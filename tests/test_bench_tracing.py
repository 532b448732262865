"""The benchmark's tracer finds every layer it wraps under the name it uses.

``bench/tracing.py`` records a layer whose name no longer resolves as absent
and leaves its metrics out, so a rename would silently drop them. This test
loads the tracer by file path, unchanged, and resolves each of its targets
the way it does.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

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
