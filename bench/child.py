"""One repetition of a workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so the program's
process-global state (the solver's memo among it) starts cold, as it does
for a ``prag run`` user. The parent reads the clock just before it starts
this interpreter; the child reports the monotonic time of its first episode
and of the end of the run, so ``setup_s`` and ``wall_s`` include interpreter
start and imports. Checks run after the end of the run is stamped.

A set-up-only repetition (``setup_only`` in the spec) stops at its first
episode and reports only that time.

Usage: python3 bench/child.py SPEC_JSON
(SPEC_JSON keys: workload, seed, inputs, out, result, trace, setup_only, spans.)
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

SCORE_TOLERANCE = 1e-12


def digest(reports, db_path: Path | None) -> str:
    """Hash of every report's deterministic content plus the final database."""
    h = hashlib.sha256()
    h.update(json.dumps([r.to_dict() for r in reports], sort_keys=True).encode("utf-8"))
    if db_path is not None:
        h.update(db_path.read_bytes())
    return h.hexdigest()


def check_outputs(out: Path | None, iterations: int) -> dict[str, str]:
    """Output checks beyond the digest. Maps check name to '' or a problem.

    Every checkpoint must reload, and no task's stored record may go from
    done to not done across checkpoints: the store keeps a completed record
    over a failed one.
    """
    from prag import TrajectoryDB

    if out is None:
        return {}
    problems = []
    checkpoints = sorted(out.glob("db_iter_*.jsonl"))
    if len(checkpoints) != iterations:
        problems.append(f"{len(checkpoints)} checkpoints for {iterations} iterations")
    done: set[str] = set()
    for path in checkpoints:
        try:
            db = TrajectoryDB.load(path)
        except Exception as exc:  # any failure to reload is the finding
            problems.append(f"{path.name} does not reload: {exc}")
            continue
        now = {r.task_id for r in db.records() if r.done}
        problems.extend(f"{t} not done in {path.name}" for t in sorted(done - now)[:5])
        done |= now
    return {"checkpoints": "; ".join(problems)}


def successes_lost(reports) -> list[str]:
    """Tasks whose episode succeeded in one iteration and failed in a later one."""
    lost, solved = [], set()
    for report in (r for r in reports if r.phase == "train"):
        now = {t for t, ok in report.done_vector.items() if ok}
        lost.extend(f"{t}@{report.iteration}" for t in sorted(solved - now))
        solved |= now
    return lost


def rescore(samples) -> str | None:
    """Re-score sampled retrievals by brute force.

    Returns '' when all match, a problem when one differs, and None when the
    program no longer has ``trajectory_db.score``.
    """
    try:
        from prag.trajectory_db import score
    except ImportError:
        return None
    for query, k, records, hits in samples:
        expected = sorted(
            ((score(query, r), r) for r in records),
            key=lambda pair: (-pair[0], -pair[1].iteration, pair[1].task_id),
        )[:k]
        if [h.record.task_id for h in hits] != [r.task_id for _, r in expected]:
            return "top-k order differs from brute force"
        for hit, (ref, _) in zip(hits, expected):
            if abs(hit.score - ref) >= SCORE_TOLERANCE:
                return f"score {hit.score!r} differs from brute force {ref!r}"
    return ""


def tree_bytes(path: Path | None) -> int:
    if path is None or not path.exists():
        return 0
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main() -> None:
    spec = json.loads(sys.argv[1])
    name = spec["workload"]
    inputs = Path(spec["inputs"])
    out = Path(spec["out"]) if workloads.WORKLOADS[name].iterations else None

    clock = tracing.StepClock(setup_only=spec["setup_only"])
    clock.install()
    tracer = tracing.Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()

    error = None
    reports, db_path = [], None
    try:
        reports, db_path = workloads.run(name, spec["seed"], inputs, out)
    except tracing.SetupDone:
        pass
    except Exception:
        error = traceback.format_exc()
    end_ns = time.monotonic_ns()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if spec["setup_only"]:
        first = clock.first_episode_ns
        result = {"first_episode_ns": first, "error": error or (None if first else "no episode started")}
        Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
        return

    result = {
        "first_episode_ns": clock.first_episode_ns,
        "end_ns": end_ns,
        "rss_kb": rss_kb,
        "episodes": clock.episodes,
        "failures": dict(clock.failures),
        "error": error,
        "step_gaps_ms": clock.step_gaps_ms(),
        "successes_lost": [],
    }
    checks = {}
    if tracer is not None:
        checks["patches_restored"] = ", ".join(tracer.restore())
    clock.restore()
    if error is None:
        result["digest"] = digest(reports, db_path)
        checks.update(check_outputs(out, workloads.WORKLOADS[name].iterations))
        result["successes_lost"] = successes_lost(reports)
    if tracer is not None:
        rescored = rescore(tracer.rescore)
        if rescored is None:
            tracer.absent.add("trajectory_db.score")
        else:
            checks["rescore_top_k"] = rescored
        result["rescored"] = len(tracer.rescore) if rescored is not None else 0
        try:
            result["layers"] = tracer.layer_metrics(tree_bytes(out))
            result["shares"] = {k: v["s"] for k, v in tracer.layer_stats().items()}
            tracer.write_spans(Path(spec["spans"]))
        except Exception as exc:  # a report the tracer cannot build is absent, not a crash
            tracer.absent.add(f"layer report ({type(exc).__name__}: {exc})")
        result["absent"] = sorted(tracer.absent)
    result["checks"] = checks
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
