"""The benchmark's workloads: how each one's inputs are built and run.

Inputs reach the program only through its public entry points: task
directories, ``RunConfig`` with ``run_iterations`` / ``run_eval``, and
``TrajectoryDB.load``.

Why each workload was chosen is stated in ``BENCHMARK.json``. Scene-graph
cost over world size is swept in traced runs (``sweeps.py``).
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

HOUSEHOLD_TASKS = 60
DB_TASKS = 1000
EVAL_TASKS = 45
# The run seed (explorer scripts) is the same for every benchmark seed: with
# task shapes also fixed, the seed changes layouts but hardly the number of
# planning steps, which keeps a run's work close across seeds.
RUN_SEED = 0
STORE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    iterations: int  # 0: one frozen evaluation pass over a prebuilt database


WORKLOADS = {
    w.name: w
    for w in (
        Workload("household-progressive", iterations=6),
        Workload("large-db-eval", iterations=0),
    )
}


def prepare(name: str, seed: int, inputs: Path) -> None:
    """Write the workload's tasks for ``seed`` into ``inputs``.

    Run once per interpreter (``python3 bench/workloads.py NAME SEED DIR``):
    see ``gen`` on the solver's memo. ``large-db-eval`` also needs the store
    that ``build_store`` writes, copied in as ``db.jsonl``.
    """
    import gen

    prefix, count = {"household-progressive": ("hh", HOUSEHOLD_TASKS), "large-db-eval": ("ev", EVAL_TASKS)}[name]
    gen.write_suite(inputs / "tasks", gen.generate(seed, prefix, count))


def needs_store(name: str) -> bool:
    return WORKLOADS[name].iterations == 0


def build_store(directory: Path) -> None:
    """Write the 1,000-record store of ``large-db-eval`` to ``directory/db.jsonl``.

    One seeded-explorer iteration over ``DB_TASKS`` tasks generated from
    ``STORE_SEED``. The store is the same for every benchmark seed, which
    varies the evaluated tasks, so it is built once per program version
    (about 25 s), outside every timed region.
    """
    import gen
    from prag import RunConfig, run_iterations

    gen.write_suite(directory / "db_tasks", gen.generate(STORE_SEED, "db", DB_TASKS))
    run_iterations(
        RunConfig(
            tasks=str(directory / "db_tasks"),
            iterations=1,
            backend="seeded-explorer",
            seed=RUN_SEED,
            early_stop=False,
            out=str(directory / "db_run"),
        )
    )
    (directory / "db_run" / "db.jsonl").replace(directory / "db.jsonl")
    shutil.rmtree(directory / "db_run")
    shutil.rmtree(directory / "db_tasks")


def episodes_planned(name: str, inputs: Path) -> int:
    tasks = len(list((inputs / "tasks").glob("*.yaml")))
    return tasks * max(1, WORKLOADS[name].iterations)


def run(name: str, seed: int, inputs: Path, out: Path | None):
    """Run the workload once. Returns (reports, path of the final database)."""
    from prag import RunConfig, TrajectoryDB, run_eval, run_iterations

    workload = WORKLOADS[name]
    if workload.iterations == 0:
        db = TrajectoryDB.load(inputs / "db.jsonl")
        config = RunConfig(tasks=str(inputs / "tasks"), k=3, backend="replay-oracle", seed=RUN_SEED)
        return [run_eval(config, db)], inputs / "db.jsonl"
    config = RunConfig(
        tasks=str(inputs / "tasks"),
        iterations=workload.iterations,
        k=3,
        backend="replay-oracle",
        seed=RUN_SEED,
        early_stop=False,
        out=str(out),
    )
    return run_iterations(config), out / "db.jsonl"


if __name__ == "__main__":
    import sys

    if sys.argv[1] == "store":
        build_store(Path(sys.argv[2]))
    else:
        prepare(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
