"""The benchmark's tracer finds every layer it wraps under the name it uses.

``bench/tracing.py`` records a layer whose name no longer resolves as absent
and leaves its metrics out, so a rename would silently drop them. A missing
attribute that one of its after-hooks reads (``observation.objects``, for
one) drops that layer's counters the same way. These tests load the tracer
by file path, unchanged: one resolves each of its targets the way it does,
one traces a short run and requires every layer to report, and one runs the
untraced ``StepClock`` proxy that every benchmark repetition installs.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from prag.driver import RunConfig, run_iterations

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(module_name: str, owner_name: str | None, attr: str) -> bool:
    module = importlib.import_module(module_name)
    if owner_name is None:
        return callable(getattr(module, attr, None))
    # The tracer patches the owner's own attribute, never an inherited one.
    owner = getattr(module, owner_name, None)
    return owner is not None and attr in vars(owner)


def test_every_traced_name_resolves_in_prag():
    tracing = load_tracing()
    targets = [
        target[:3]
        for target in (
            *tracing.FUNCTION_TARGETS,
            *tracing.COUNT_TARGETS,
            *tracing.PROXY_TARGETS,
        )
    ]
    assert len(targets) > 20
    assert all(module_name.startswith("prag.") for module_name, _, _ in targets)
    assert [target for target in targets if not resolves(*target)] == []


def test_a_traced_run_reports_every_layer(tmp_path):
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        reports = run_iterations(RunConfig(iterations=2, early_stop=False, out=str(tmp_path)))
    finally:
        broken = tracer.restore()
    assert broken == []
    assert len(reports) == 2
    assert tracer.absent == set()
    metrics = tracer.layer_metrics(0)
    assert metrics["scene_graph.extract.objects"] > 0
    assert metrics["agent.plan_step.calls"] > 0


def test_the_untraced_step_clock_runs_every_episode(tmp_path):
    # Every untraced repetition proxies the backend through ``StepClock``,
    # which forwards ``complete(prompt, bundle)`` positionally.
    clock = load_tracing().StepClock()
    clock.install()
    try:
        run_iterations(RunConfig(iterations=2, early_stop=False, out=str(tmp_path)))
    finally:
        clock.restore()
    assert clock.episodes == 12
    assert dict(clock.failures) == {}
    assert clock.step_gaps_ms()
