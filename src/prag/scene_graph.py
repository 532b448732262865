"""Scene graphs: typed object-relation snapshots of a world.

A scene graph is the text-friendly form of what the agent can see: a list of
object instance labels (landmarks first) plus the relation triples that
currently hold. Only true relations are kept, and the rendered form is one
``subject/object/relation: True`` line per triple, sorted, so equal world
states always produce byte-identical text.

``extract`` derives the relations from the world's cell stacks and object
states, in one pass over the occupied cells and one over the pairs of
occupied cells that touch, rather than asking ``World.relation_query``
about every label pair and relation; the tests keep that per-triple sweep
as the reference. Its graph skips the constructor's label, duplicate and
endpoint checks, which a world's graph passes by construction; a graph
built any other way, ``parse_text``'s included, is checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

AGENT_LABEL = "agent"

# Closed relation vocabulary. The first three are spatial and hold between
# ordered pairs of distinct objects; held_by ties an object to the agent;
# toggled_on and is_open are object states recorded as self-relations.
SPATIAL_RELATIONS = ("on_top_of", "inside_of", "next_to")
STATE_RELATIONS = ("toggled_on", "is_open")
RELATION_NAMES = frozenset(SPATIAL_RELATIONS) | frozenset(STATE_RELATIONS) | {"held_by"}

_LABEL_FORBIDDEN = ("/", ":", "\n")


class SceneTextError(ValueError):
    """Raised when canonical scene-graph text cannot be parsed."""


def check_label(label: str) -> None:
    """Reject a label the text form cannot carry: empty, or with a ``/``, ``:`` or newline."""
    if not label or any(ch in label for ch in _LABEL_FORBIDDEN):
        raise ValueError(f"illegal object label: {label!r}")


@dataclass(frozen=True)
class SceneGraph:
    """Immutable set of nodes and true relation triples.

    ``relations`` holds (subject, relation, object) triples. Every label that
    appears in a triple must also appear in ``nodes``.
    """

    nodes: tuple[str, ...]
    relations: tuple[tuple[str, str, str], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(
            self, "relations", tuple(tuple(t) for t in self.relations)
        )
        seen_nodes = set()
        for label in self.nodes:
            check_label(label)
            if label in seen_nodes:
                raise ValueError(f"duplicate node label: {label!r}")
            seen_nodes.add(label)
        seen_triples = set()
        for triple in self.relations:
            if len(triple) != 3:
                raise ValueError(f"relation triple must have 3 elements: {triple!r}")
            subject, relation, obj = triple
            if relation not in RELATION_NAMES:
                raise ValueError(f"unknown relation name: {relation!r}")
            for endpoint in (subject, obj):
                if endpoint not in seen_nodes:
                    raise ValueError(
                        f"relation endpoint {endpoint!r} missing from nodes"
                    )
            if triple in seen_triples:
                raise ValueError(f"duplicate relation triple: {triple!r}")
            seen_triples.add(triple)

    @classmethod
    def _unchecked(
        cls, nodes: tuple[str, ...], relations: tuple[tuple[str, str, str], ...]
    ) -> "SceneGraph":
        """A graph from tuples already known to pass every check above.

        ``extract`` builds through this: a world's labels are legal and
        distinct (``World.place_object`` checks them), and its one pass
        yields each triple once, between present labels, with a known
        relation name. Everyone else goes through the checked constructor.
        """
        graph = object.__new__(cls)
        object.__setattr__(graph, "nodes", nodes)
        object.__setattr__(graph, "relations", relations)
        return graph


def order_landmark_first(
    labels: Iterable[str], is_landmark: Callable[[str], bool]
) -> list[str]:
    """Stable partition of ``labels`` with landmarks ahead of everything else."""
    labels = list(labels)
    landmarks = [l for l in labels if is_landmark(l)]
    others = [l for l in labels if not is_landmark(l)]
    return landmarks + others


def extract(world) -> SceneGraph:
    """Build a SceneGraph from a world, usually a step's private snapshot.

    ``world`` must expose ``objects``, ``agent_inventory`` and ``stacks()``.
    Spatial relations are read off the stacks in one pass: ``on_top_of``
    pairs consecutive stack entries whose lower entry is not a container,
    ``inside_of`` ties every other label of a stack to its container, and
    ``next_to`` pairs distinct labels of one stack. A second pass over each
    pair of occupied cells at most one step apart in x and in y adds
    ``next_to`` between their labels, both ways. Object states become
    self-relations, and a held object relates to the agent pseudo-node.
    Triples come out in (subject, object, relation) order, the order of a
    sweep over every sorted label pair.
    """
    objects = world.objects
    labels = sorted(objects)
    rank = {label: i for i, label in enumerate(labels)}
    nodes = order_landmark_first(labels, lambda l: objects[l].landmark)

    # (subject rank, object rank, index into SPATIAL_RELATIONS)
    spatial: list[tuple[int, int, int]] = []
    cells = []
    for cell, stack in world.stacks().items():
        ranks = [rank[label] for label in stack]
        cells.append((cell, ranks))
        if len(stack) == 1:
            continue
        for lower, upper in zip(stack, stack[1:]):
            if not objects[lower].container:
                spatial.append((rank[upper], rank[lower], 0))
        for holder, held in zip(stack, ranks):
            if objects[holder].container:
                spatial += [(label, held, 1) for label in ranks if label != held]
        spatial += [(a, b, 2) for a in ranks for b in ranks if a != b]
    # next_to across cells: each pair of occupied cells at most one step
    # apart in x and in y, both ways.
    for index, ((x, y), ranks) in enumerate(cells):
        for (u, v), others in cells[index + 1 :]:
            if -1 <= u - x <= 1 and -1 <= v - y <= 1:
                for a in ranks:
                    for b in others:
                        spatial += [(a, b, 2), (b, a, 2)]
    spatial.sort()
    relations = [
        (labels[subject], SPATIAL_RELATIONS[name], labels[obj])
        for subject, obj, name in spatial
    ]
    for label in labels:
        state = objects[label]
        if state.toggleable and state.toggled:
            relations.append((label, "toggled_on", label))
        if state.openable and state.open:
            relations.append((label, "is_open", label))
    held = world.agent_inventory
    if held is not None:
        relations.append((held, "held_by", AGENT_LABEL))
        nodes.append(AGENT_LABEL)
    return SceneGraph._unchecked(tuple(nodes), tuple(relations))


def render_text(graph: SceneGraph) -> str:
    """Canonical text form: sorted ``subject/object/relation: True`` lines."""
    lines = [
        f"{subject}/{obj}/{relation}: True"
        for subject, relation, obj in graph.relations
    ]
    return "\n".join(sorted(lines))


def parse_text(text: str) -> SceneGraph:
    """Parse canonical scene-graph text back into a SceneGraph.

    The inverse of :func:`render_text` up to node metadata: nodes are
    recovered as the sorted set of labels mentioned by the triples.
    """
    relations: list[tuple[str, str, str]] = []
    labels: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if not line.endswith(": True"):
            raise SceneTextError(f"line {lineno}: expected ': True' suffix: {line!r}")
        body = line[: -len(": True")]
        parts = body.split("/")
        if len(parts) != 3:
            raise SceneTextError(f"line {lineno}: expected subject/object/relation: {line!r}")
        subject, obj, relation = parts
        if relation not in RELATION_NAMES:
            raise SceneTextError(f"line {lineno}: unknown relation name: {relation!r}")
        labels.add(subject)
        labels.add(obj)
        relations.append((subject, relation, obj))
    return SceneGraph(nodes=tuple(sorted(labels)), relations=tuple(relations))
