"""Record the output digest of every workload for a range of seeds.

    python3 bench/pin.py FIRST LAST

Runs one untraced repetition per workload and seed (FIRST..LAST inclusive)
and writes the digests to ``bench/digests.json``, which ``run.py`` checks
every repetition against. Run it only when a change is meant to alter the
program's output bytes, and say so in the change.
"""

from __future__ import annotations

import json
import sys
import time

import run


def main() -> None:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    sys.path[:0] = [str(run.SRC), str(run.BENCH)]
    import workloads

    pins = json.loads(run.PINS.read_text(encoding="utf-8")) if run.PINS.exists() else {}
    for name in workloads.WORKLOADS:
        for seed in range(first, last + 1):
            deadline = time.monotonic() + run.TIME_LIMIT_S
            inputs = run.prepare_inputs(name, seed, deadline)
            rep = run.repetition(name, seed, inputs, deadline)
            planned = workloads.episodes_planned(name, inputs)
            if rep["error"] or any(rep["checks"].values()) or rep["failures"] or rep["episodes"] != planned:
                problem = rep["error"] or rep["checks"] or f"{rep['failures']}, {rep['episodes']} of {planned} episodes"
                raise SystemExit(f"{name} seed {seed} fails its checks: {problem}")
            pins.setdefault(name, {})[str(seed)] = rep["digest"]
            print(name, seed, rep["digest"], flush=True)
    run.PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
