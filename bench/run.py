"""Offline benchmark of prag: end-to-end metrics, or per-layer metrics traced.

Usage, from the root of a prag checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` measures every workload in turn; its last line then
prefixes each metric with the workload name.

The load is a closed loop with one client: one process, one thread, episodes
back to back. Every repetition runs in a fresh interpreter (``child.py``)
with ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS``
set to 1, one at a time, for about ``--seconds`` and at least
``MIN_REPETITIONS`` times. Inputs are generated from ``--seed`` once and
cached under ``bench/_work``, beside the store ``large-db-eval`` reads, which
is built once per program version; building them is never timed.

After each full repetition a set-up-only repetition stops at the first
episode, so set-up time has twice the samples.

``--trace 0`` prints the end-to-end metrics (see ``end_to_end``).
``--trace 1`` alternates ``TRACE_PAIRS`` untraced and traced repetitions,
runs the layer sweeps, and prints the per-layer metrics and the tracing
overhead. Metric units come from ``BENCHMARK.json``.

Every repetition's outputs are checked: a digest of every report and the
final database must agree across repetitions and with the digest pinned in
``digests.json`` for that workload and seed; every checkpoint must reload and no
stored record may lose its done flag; in traced runs, sampled retrievals must match
a brute-force re-scoring. A repetition that fails a check counts every one
of its episodes as failed, as does one whose interpreter crashes or runs out
of time. The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
PINS = BENCH / "digests.json"
SPEC = ROOT / "BENCHMARK.json"

MIN_REPETITIONS = 3
TRACE_PAIRS = 3
TIME_LIMIT_S = 170
CACHED_INPUTS_PER_WORKLOAD = 2
TAIL_PERCENTILES = (99, 95, 90)
TAIL_MIN_BEYOND = 30


def fingerprint() -> str:
    """Hash of the program and generator sources the inputs depend on."""
    h = hashlib.sha256()
    files = sorted(SRC.joinpath("prag").rglob("*.py")) + sorted(SRC.joinpath("prag").rglob("*.yaml"))
    files += [BENCH / "gen.py", BENCH / "workloads.py"]
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def build_once(target: Path, args: list[str], deadline: float) -> None:
    """Run ``args`` in a fresh interpreter to fill ``target``, unless it is ready."""
    if (target / "READY").exists():
        return
    staging = target.with_name(target.name + ".tmp")
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    run_child([*args, str(staging)], deadline)
    (staging / "READY").write_text("", encoding="utf-8")
    staging.rename(target)


def prune(pattern: str, keep: int) -> None:
    """Delete all but the ``keep`` newest input directories matching ``pattern``."""
    cached = sorted((WORK / "inputs").glob(pattern), key=lambda p: p.stat().st_mtime)
    for stale in cached[: max(0, len(cached) - keep)]:
        shutil.rmtree(stale, ignore_errors=True)


def prepare_inputs(workload: str, seed: int, deadline: float) -> Path:
    """Build (or reuse) the inputs for ``seed``, each part in a fresh interpreter.

    A fresh interpreter per build keeps the solver's per-process memo, which
    is keyed by task id only, from vouching for a layout it never solved.
    """
    import workloads

    version = fingerprint()
    inputs = WORK / "inputs" / f"{workload}-s{seed}-{version}"
    build_once(inputs, [str(BENCH / "workloads.py"), workload, str(seed)], deadline)
    prune(f"{workload}-s*", CACHED_INPUTS_PER_WORKLOAD)
    if workloads.needs_store(workload) and not (inputs / "db.jsonl").exists():
        store = WORK / "inputs" / f"store-{version}"
        build_once(store, [str(BENCH / "workloads.py"), "store"], deadline)
        prune("store-*", 1)
        shutil.copyfile(store / "db.jsonl", inputs / "db.jsonl.tmp")
        (inputs / "db.jsonl.tmp").replace(inputs / "db.jsonl")
    return inputs


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(SRC), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list[str], deadline: float) -> None:
    timeout = max(1.0, deadline - time.monotonic())
    subprocess.run([sys.executable, *args], env=child_env(), check=True, timeout=timeout)


def repetition(workload: str, seed: int, inputs: Path, deadline: float,
               trace: bool = False, setup_only: bool = False) -> dict:
    """One fresh-interpreter run; returns the child's result with wall and setup.

    A child that exits non-zero, runs past the deadline or writes no result
    yields a result with ``error`` set and no digest, so ``judge`` counts
    its episodes as failed.
    """
    rep_dir = WORK / f"rep-{os.getpid()}"
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    spec = {
        "workload": workload,
        "seed": seed,
        "inputs": str(inputs),
        "out": str(rep_dir / "out"),
        "result": str(rep_dir / "result.json"),
        "trace": trace,
        "setup_only": setup_only,
        "spans": str(WORK / f"spans-{workload}-s{seed}.tsv"),
    }
    try:
        start_ns = time.monotonic_ns()
        run_child([str(BENCH / "child.py"), json.dumps(spec)], deadline)
        result = json.loads((rep_dir / "result.json").read_text(encoding="utf-8"))
    except subprocess.CalledProcessError as exc:
        error = f"the interpreter exited with code {exc.returncode}"
    except subprocess.TimeoutExpired:
        error = f"the interpreter ran past the run's {TIME_LIMIT_S} s limit"
    except (OSError, ValueError) as exc:
        error = f"no result: {exc}"
    else:
        error = None
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)
    if error is not None:
        return {"error": error, "checks": {}, "episodes": 0, "failures": {}, "step_gaps_ms": [], "successes_lost": []}
    first = result["first_episode_ns"]
    if setup_only:
        result["setup_s"] = (first - start_ns) / 1e9 if first is not None else None
        return result
    result["wall_s"] = (result["end_ns"] - start_ns) / 1e9
    result["setup_s"] = (first - start_ns) / 1e9 if first is not None else result["wall_s"]
    return result


def tail(values: list[float]) -> tuple[float, int, int]:
    """Highest listed percentile with enough samples beyond it: (value, pct, beyond).

    Enough is ``TAIL_MIN_BEYOND``, so that the percentile does not rest on a
    handful of steps hit by a scheduler hiccup (household p99 ranged
    4.5-10.7 ms over five seeds of one commit on a shared 2-CPU machine).
    The lowest listed percentile is the fallback.
    """
    cuts = statistics.quantiles(values, n=100)
    for pct in TAIL_PERCENTILES:
        beyond = int(len(values) * (100 - pct) / 100)
        if beyond >= TAIL_MIN_BEYOND:
            break
    return cuts[pct - 1], pct, beyond


def pinned_digest(workload: str, seed: int) -> str | None:
    pins = json.loads(PINS.read_text(encoding="utf-8")) if PINS.exists() else {}
    return pins.get(workload, {}).get(str(seed))


def judge(reps: list[dict], planned: int, pin: str | None) -> tuple[bool, int, list[str]]:
    """(all checks passed, episodes failed, problems) over the repetitions."""
    problems = []
    digests = {r.get("digest") for r in reps}
    if None in digests:
        problems.append("a repetition failed: " + next(r["error"] for r in reps if r["error"]).strip())
    if len(digests - {None}) > 1:
        problems.append(f"digests differ between repetitions: {sorted(digests - {None})}")
    if pin is not None and digests != {pin}:
        problems.append(f"digest differs from the pinned {pin}")
    failed = 0
    for rep in reps:
        rep_problems = [f"{name}: {detail}" for name, detail in rep["checks"].items() if detail]
        problems.extend(rep_problems)
        if rep_problems or rep.get("digest") is None or (pin is not None and rep["digest"] != pin):
            failed += planned
        else:
            failed += sum(rep["failures"].values()) + planned - rep["episodes"]
    if len(digests - {None}) > 1:
        failed = planned * len(reps)
    return not problems, failed, problems


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def end_to_end(reps: list[dict], setups: list[float], attempted: int, failed: int) -> tuple[dict, list]:
    """Aggregate the repetitions of one run; repetitions that failed are left out.

    Returns the metrics and the rows the table prints: (name, value, unit,
    note), with two rows that are printed but not gated.

    ``wall_s`` and ``episodes_per_s`` are means over repetitions. The
    machine's speed switches between a fast and a slow state, so
    per-repetition times are bimodal and their median jumps between the two
    states: over ten household runs the median wall time spread 18 %
    (quartiles over median), the mean 10 %.

    ``step_mean_ms`` is the mean gap between backend calls over all steps
    of all repetitions. Household step gaps have two modes (about 1.9 and
    3.1 ms) with the median in the valley between them, and the slow state
    slows the lower mode far more than the upper: within one run the median
    moved by 68 % and the mean by 42 %. So the median is printed, not gated,
    and the tail is taken per repetition and averaged. Set-up time is the
    median over full and set-up-only repetitions, memory the median over
    full ones.
    """
    mean = statistics.fmean
    timed = [r for r in reps if r["error"] is None]
    if not timed:
        return {}, [("episodes_failed_frac", failed / attempted, "ratio", f"{failed} of {attempted} episodes")]
    tails = [tail(r["step_gaps_ms"]) for r in timed]
    gaps = [gap for r in timed for gap in r["step_gaps_ms"]]
    setups = [r["setup_s"] for r in timed] + setups
    metrics = {
        "wall_s": mean(r["wall_s"] for r in timed),
        "setup_s": statistics.median(setups),
        "episodes_per_s": mean(r["episodes"] / (r["wall_s"] - r["setup_s"]) for r in timed),
        "step_mean_ms": mean(gaps),
        "step_tail_ms": mean(t[0] for t in tails),
        "peak_rss_mb": statistics.median(r["rss_kb"] / 1024 for r in timed),
        "episodes_ok_frac": 1 - failed / attempted,
    }
    steps = len(timed[0]["step_gaps_ms"])
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "step_mean_ms": f"{len(gaps)} steps",
        "step_tail_ms": f"p{tails[0][1]} of {steps} steps per repetition, {tails[0][2]} beyond",
    }
    rows = [(name, value, None, notes.get(name, "")) for name, value in metrics.items()]
    rows.insert(4, ("step_p50_ms", statistics.median(gaps), "ms", f"{len(gaps)} steps, not gated"))
    rows.append(("episodes_failed_frac", failed / attempted, "ratio", f"{failed} of {attempted} episodes"))
    return metrics, rows


def declared_units() -> dict[str, str]:
    """Every metric ``BENCHMARK.json`` declares, with its unit."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def mean_of(dicts: list[dict]) -> dict[str, float]:
    """Key-wise mean over ``dicts``, for the keys every one of them has.

    A value that is the same in every dict (a count) is kept as it is.
    """
    keys = set.intersection(*(set(d) for d in dicts)) if dicts else set()
    means = {}
    for key in sorted(keys, key=list(dicts[0]).index):
        values = [d[key] for d in dicts]
        means[key] = values[0] if len(set(values)) == 1 else statistics.fmean(values)
    return means


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "prag" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'prag'}; run from a prag checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in workloads.WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        results = {name: bench(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except subprocess.SubprocessError as exc:
        print(f"error: building the inputs failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}:{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


def bench(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Measure one workload, print its report, and return its result object."""
    import workloads

    deadline = time.monotonic() + TIME_LIMIT_S
    env_before = environment()
    inputs = prepare_inputs(workload, seed, deadline)
    planned = workloads.episodes_planned(workload, inputs)
    pin = pinned_digest(workload, seed)

    reps, setups, pairs = [], [], []
    timed_from = time.monotonic()
    if trace:
        # Alternate which side of a pair runs first, so drift in machine
        # speed falls on both sides alike.
        for i in range(TRACE_PAIRS):
            if pairs and time.monotonic() + 1.5 * sum(p.get("wall_s", 0) for p in pairs[-1].values()) > deadline:
                break
            order = (False, True) if i % 2 == 0 else (True, False)
            pairs.append({traced: repetition(workload, seed, inputs, deadline, trace=traced) for traced in order})
            reps.extend(pairs[-1].values())
            if any(r["error"] for r in reps):
                break
        sweeps, sweep_path = {}, WORK / f"sweeps-{os.getpid()}.json"
        try:
            run_child([str(BENCH / "sweeps.py"), str(seed), str(sweep_path)], deadline)
            sweeps = json.loads(sweep_path.read_text(encoding="utf-8"))
        except (subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"layer sweeps failed: {type(exc).__name__}: {exc}")
        finally:
            sweep_path.unlink(missing_ok=True)
    else:
        # A cycle is a full repetition and its set-up-only one. The next
        # cycle starts only if at least half of it fits in ``seconds``.
        cycle = 0.0
        while len(reps) < MIN_REPETITIONS or time.monotonic() - timed_from + cycle / 2 < seconds:
            if reps and time.monotonic() + 1.5 * cycle > deadline:
                break
            cycle_from = time.monotonic()
            reps.append(repetition(workload, seed, inputs, deadline))
            if reps[-1]["error"]:
                break
            probe = repetition(workload, seed, inputs, deadline, setup_only=True)
            if probe["error"] is None:
                setups.append(probe["setup_s"])
            cycle = time.monotonic() - cycle_from

    correct, failed, problems = judge(reps, planned, pin)
    attempted = planned * len(reps)
    env = dict(env_before, loadavg_after=[round(x, 2) for x in os.getloadavg()])

    print(f"workload {workload}  seed {seed}  repetitions {len(reps)}  trace {int(trace)}")
    print("environment " + json.dumps(env))
    digests = sorted({r.get("digest") or "-" for r in reps})
    pin_state = "unpinned" if pin is None else ("match" if digests == [pin] else "MISMATCH")
    print(f"output digest {', '.join(digests)} (pinned: {pin_state})")
    print("output checks " + ("passed" if correct else "FAILED: " + "; ".join(problems)))
    lost = sorted({x for r in reps for x in r["successes_lost"]})
    print(f"episode successes lost in a later iteration: {len(lost)} {' '.join(lost)}")

    units = declared_units()
    if trace:
        untraced = [p[False] for p in pairs if p[False]["error"] is None]
        traced = [p[True] for p in pairs if p[True]["error"] is None and "layers" in p[True]]
        metrics = mean_of([r["layers"] for r in traced])
        if traced:
            metrics["episodes.successes_lost"] = len(traced[0]["successes_lost"])
        if traced and untraced:
            traced_wall = statistics.fmean(r["wall_s"] for r in traced)
            untraced_wall = statistics.fmean(r["wall_s"] for r in untraced)
            metrics["trace.overhead_s"] = traced_wall - untraced_wall
            print(f"traced wall {traced_wall:.3f} s, untraced {untraced_wall:.3f} s"
                  f" (means of {len(traced)} and {len(untraced)} alternating repetitions),"
                  f" {traced[0].get('rescored', 0)} retrievals re-scored per traced repetition")
            shares = sorted(mean_of([r.get("shares", {}) for r in traced]).items(), key=lambda kv: -kv[1])
            print("self-time share of traced wall:")
            for name, self_s in shares:
                print(f"  {name:<44} {self_s:9.4f} s  {100 * self_s / traced_wall:5.1f}%")
        absent = sorted({a for r in traced for a in r.get("absent", [])})
        if absent:
            print("absent layers (symbol not found): " + ", ".join(absent))
        metrics.update(sweeps)
        import sweeps as sweep_module

        print("layer sweeps (measured / ROADMAP baseline):")
        for name, value in sweeps.items():
            print(f"  {name:<36} {value:10.3f} ms   ROADMAP {sweep_module.roadmap_figure(name)}")
    else:
        metrics, rows = end_to_end(reps, setups, attempted, failed)
        for i, rep in enumerate(reps, start=1):
            if rep["error"] is None:
                print(f"repetition {i}: wall {rep['wall_s']:.3f} s, setup {rep['setup_s']:.3f} s,"
                      f" {rep['episodes']} episodes, {len(rep['step_gaps_ms'])} steps")
        print("set-up-only repetitions: " + " ".join(f"{s:.3f}" for s in setups) + " s")
        print(f"{'metric':<22} {'value':>12}  unit")
        for name, value, unit, note in rows:
            print(f"{name:<22} {value:12.4f}  {unit or units[name]}  {note}")
    out = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}


if __name__ == "__main__":
    sys.exit(main())
