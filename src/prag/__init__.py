"""prag: progressive retrieval-augmented planning for embodied everyday tasks.

The engine runs an agent through repeated episodes of grid-world household
tasks. Every episode is recorded in a retrieval database; later episodes
retrieve the most similar past trajectories (by goal text and scene-graph
similarity) and hand them to a pluggable planner backend as in-context
experience, so performance improves iteration over iteration.
"""

__version__ = "0.1.0"

from .embedding import HashingEncoder, RemoteEncoder, cosine
from .scene_graph import SceneGraph, extract, parse_text, render_text
from .trajectory_db import (
    RetrievalHit,
    RetrievalQuery,
    TaskRecord,
    TrajectoryDB,
    score,
)
from .agent import EpisodeOutcome, PlannerFailure, plan_step, run_episode
from .backends import (
    BackendError,
    PlannerBackend,
    RemoteChatBackend,
    ReplayOracleBackend,
    SeededExplorerBackend,
)
from .driver import IterationReport, RunConfig, run_eval, run_iterations
from .metrics import TransitionReport, spl, task_sr, total_sr
from .prompting import (
    HighLevelAction,
    ParseFailure,
    PromptBundle,
    build_prompt,
    parse_action,
    render_action,
)

__all__ = [
    "BackendError",
    "EpisodeOutcome",
    "HashingEncoder",
    "HighLevelAction",
    "IterationReport",
    "ParseFailure",
    "PlannerBackend",
    "PlannerFailure",
    "PromptBundle",
    "RemoteChatBackend",
    "RemoteEncoder",
    "ReplayOracleBackend",
    "RetrievalHit",
    "RetrievalQuery",
    "RunConfig",
    "SceneGraph",
    "SeededExplorerBackend",
    "TaskRecord",
    "TrajectoryDB",
    "TransitionReport",
    "build_prompt",
    "cosine",
    "extract",
    "parse_action",
    "parse_text",
    "plan_step",
    "render_action",
    "render_text",
    "run_episode",
    "run_eval",
    "run_iterations",
    "score",
    "spl",
    "task_sr",
    "total_sr",
    "__version__",
]
