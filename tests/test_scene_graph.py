"""Scene graph extraction, rendering, and parsing tests."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prag.gridworld.world import KINDS, LOW_LEVEL_ACTIONS, World
from prag.scene_graph import (
    AGENT_LABEL,
    RELATION_NAMES,
    SPATIAL_RELATIONS,
    STATE_RELATIONS,
    SceneGraph,
    SceneTextError,
    extract,
    order_landmark_first,
    parse_text,
    render_text,
)
from tests.conftest import border_walls

_RELATIONS = tuple(sorted(RELATION_NAMES))

LINE_RE = re.compile(r"^[^/\n]+/[^/\n]+/(on_top_of|inside_of|next_to|held_by|toggled_on|is_open): True$")


def small_world() -> World:
    world = World(6, 6, walls=border_walls(6, 6), agent_position=(1, 4), agent_heading="N")
    world.place_object("table_1", "table", (2, 2))
    world.place_object("plant_1", "plant", (2, 2))
    world.place_object("sink_1", "sink", (4, 2))
    world.place_object("mug_1", "mug", (4, 2))
    return world


class TestExtract:
    def test_stacked_item_on_landmark(self):
        graph = extract(small_world().observe())
        assert ("plant_1", "on_top_of", "table_1") in graph.relations

    def test_item_in_container(self):
        graph = extract(small_world().observe())
        assert ("mug_1", "inside_of", "sink_1") in graph.relations
        # A container does not double as a surface.
        assert ("mug_1", "on_top_of", "sink_1") not in graph.relations

    def test_next_to_is_chebyshev_and_symmetric(self):
        world = small_world()
        world.place_object("ball_1", "ball", (3, 3))  # diagonal to table at (2,2)
        graph = extract(world.observe())
        assert ("ball_1", "next_to", "table_1") in graph.relations
        assert ("table_1", "next_to", "ball_1") in graph.relations
        assert ("ball_1", "next_to", "ball_1") not in graph.relations

    def test_held_item_relates_to_agent(self):
        world = small_world()
        world.agent_position = (4, 3)
        world.agent_heading = "N"
        world.apply_action("pickup")
        graph = extract(world.observe())
        assert ("mug_1", "held_by", "agent") in graph.relations
        assert "agent" in graph.nodes

    def test_unary_states_are_self_relations(self):
        world = small_world()
        world.place_object("box_1", "box", (3, 4), open=True)
        world.agent_position = (4, 3)
        world.apply_action("toggle")  # faces sink_1
        graph = extract(world.observe())
        assert ("sink_1", "toggled_on", "sink_1") in graph.relations
        assert ("box_1", "is_open", "box_1") in graph.relations

    def test_landmarks_precede_items_in_nodes(self):
        graph = extract(small_world().observe())
        nodes = list(graph.nodes)
        landmark_indices = [nodes.index(n) for n in ("sink_1", "table_1")]
        item_indices = [nodes.index(n) for n in ("mug_1", "plant_1")]
        assert max(landmark_indices) < min(item_indices)

    def test_only_true_relations_appear(self):
        world = small_world()
        graph = extract(world.observe())
        assert ("sink_1", "toggled_on", "sink_1") not in graph.relations
        assert all(len(triple) == 3 for triple in graph.relations)


def sweep_extract(world) -> SceneGraph:
    """Reference: ask ``relation_query`` about every label pair and relation."""
    labels = sorted(world.objects)
    nodes = order_landmark_first(labels, lambda l: world.objects[l].landmark)
    relations = []
    for subject in labels:
        for obj in labels:
            if subject == obj:
                continue
            for name in SPATIAL_RELATIONS:
                if world.relation_query(subject, obj, name):
                    relations.append((subject, name, obj))
    for label in labels:
        for name in STATE_RELATIONS:
            if world.relation_query(label, label, name):
                relations.append((label, name, label))
    agent_needed = False
    for label in labels:
        if world.relation_query(label, AGENT_LABEL, "held_by"):
            relations.append((label, "held_by", AGENT_LABEL))
            agent_needed = True
    if agent_needed:
        nodes = nodes + [AGENT_LABEL]
    return SceneGraph(nodes=tuple(nodes), relations=tuple(relations))


_LANDMARK_KINDS = sorted(k for k, info in KINDS.items() if info.landmark)
_ITEM_KINDS = sorted(k for k, info in KINDS.items() if not info.landmark)


def random_world(rng: random.Random) -> World:
    """A crowded bordered room: landmarks in random states, items stacked."""
    side = rng.choice((5, 6, 7))
    world = World(side, side, walls=border_walls(side, side), agent_position=(1, 1))
    interior = [(x, y) for y in range(1, side - 1) for x in range(1, side - 1)]
    for i in range(rng.randint(2, 4)):
        kind = rng.choice(_LANDMARK_KINDS)
        info = KINDS[kind]
        cell = rng.choice(interior)
        try:
            world.place_object(
                f"{kind}_{i}",
                kind,
                cell,
                toggled=info.toggleable and rng.random() < 0.5,
                open=info.openable and rng.random() < 0.5,
            )
        except ValueError:
            pass  # landmark overlap or the agent's cell
    # Items go to few cells so stacks of three and crowded neighbourhoods occur.
    hot_cells = rng.sample(interior, 4)
    for i in range(rng.randint(4, 9)):
        kind = rng.choice(_ITEM_KINDS)
        try:
            world.place_object(f"{kind}_{i}", kind, rng.choice(hot_cells))
        except ValueError:
            pass  # cell full
    return world


def _features(world: World, graph: SceneGraph) -> set:
    """Which of the cases the sweep comparison should cover this graph shows."""
    found = set()
    if world.agent_inventory is not None:
        found.add("held")
    for stack in world.stacks().values():
        if len(stack) >= 3:
            found.add("three-stack")
    for subject, name, obj in graph.relations:
        if name == "inside_of" and world.objects[obj].openable:
            found.add("inside-open" if world.objects[obj].open else "inside-closed")
        elif name == "toggled_on":
            found.add("toggled")
        elif name == "next_to":
            a, b = world.objects[subject].position, world.objects[obj].position
            if a == b:
                found.add("same-cell-next-to")
            elif a[0] != b[0] and a[1] != b[1]:
                found.add("diagonal-next-to")
    return found


class TestExtractMatchesRelationSweep:
    def test_random_worlds_under_random_actions(self):
        rng = random.Random(20241)
        seen = set()
        for _ in range(60):
            world = random_world(rng)
            for _step in range(80):
                observation = world.observe()
                graph = extract(observation)
                assert graph == sweep_extract(observation)
                # extract skips the checks; the checked constructor agrees.
                assert SceneGraph(graph.nodes, graph.relations) == graph
                seen.update(_features(world, graph))
                world.apply_action(rng.choice(LOW_LEVEL_ACTIONS))
        assert seen >= {
            "held",
            "three-stack",
            "inside-open",
            "inside-closed",
            "toggled",
            "same-cell-next-to",
            "diagonal-next-to",
        }

    def test_held_item_has_no_spatial_relations(self):
        world = small_world()
        world.agent_position = (4, 3)
        world.apply_action("pickup")  # mug_1 out of sink_1
        graph = extract(world.observe())
        assert graph == sweep_extract(world.observe())
        assert SceneGraph(graph.nodes, graph.relations) == graph
        assert [t for t in graph.relations if "mug_1" in t] == [
            ("mug_1", "held_by", AGENT_LABEL)
        ]


class TestRenderParse:
    def test_render_lines_sorted_and_well_formed(self):
        text = render_text(extract(small_world().observe()))
        lines = text.splitlines()
        assert lines == sorted(lines)
        for line in lines:
            assert LINE_RE.match(line), line

    def test_parse_inverts_render_on_triples(self):
        graph = extract(small_world().observe())
        parsed = parse_text(render_text(graph))
        assert set(parsed.relations) == set(graph.relations)

    def test_parse_error_names_line_number(self):
        text = "table_1/plant_1/on_top_of: True\nbogus line\n"
        with pytest.raises(SceneTextError, match="line 2"):
            parse_text(text)

    def test_parse_rejects_false_lines(self):
        with pytest.raises(SceneTextError, match="line 1"):
            parse_text("a/b/next_to: False")

    def test_parse_rejects_unknown_relation(self):
        with pytest.raises(SceneTextError, match="line 1"):
            parse_text("a/b/under: True")

    def test_empty_text_is_empty_graph(self):
        graph = parse_text("")
        assert graph.nodes == ()
        assert graph.relations == ()


def graph_strategy():
    label = st.text(
        alphabet=st.sampled_from("abcdefghij_0123456789"), min_size=1, max_size=8
    ).filter(lambda s: s.strip())
    labels = st.lists(label, min_size=1, max_size=6, unique=True)

    def build(labels_and_seed):
        labels_, choices = labels_and_seed
        triples = []
        for subject_i, object_i, relation_i in choices:
            subject = labels_[subject_i % len(labels_)]
            obj = labels_[object_i % len(labels_)]
            relation = _RELATIONS[relation_i % len(_RELATIONS)]
            triples.append((subject, relation, obj))
        return SceneGraph(tuple(labels_), tuple(dict.fromkeys(triples)))

    choices = st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
        max_size=10,
    )
    return st.tuples(labels, choices).map(build)


class TestRoundTripProperty:
    @given(graph_strategy())
    @settings(max_examples=200)
    def test_random_graphs_round_trip(self, graph):
        text = render_text(graph)
        for line in text.splitlines():
            assert LINE_RE.match(line), line
        parsed = parse_text(text)
        assert set(parsed.relations) == set(graph.relations)
        # Re-rendering the parsed graph is byte-identical.
        assert render_text(parsed) == text


class TestSceneGraphValidation:
    def test_rejects_duplicate_nodes(self):
        with pytest.raises(ValueError):
            SceneGraph(("a", "a"), ())

    def test_rejects_unknown_relation(self):
        with pytest.raises(ValueError):
            SceneGraph(("a", "b"), (("a", "under", "b"),))

    def test_rejects_endpoint_outside_nodes(self):
        with pytest.raises(ValueError):
            SceneGraph(("a",), (("a", "next_to", "b"),))

    def test_rejects_illegal_label(self):
        with pytest.raises(ValueError):
            SceneGraph(("a/b",), ())
        with pytest.raises(ValueError):
            SceneGraph(("a:b",), ())

    @pytest.mark.parametrize("label", ["", "a/b", "a:b", "a\nb"])
    def test_a_world_refuses_a_label_its_graph_could_not_carry(self, label):
        # extract builds its graph unchecked, so the world checks each label.
        world = small_world()
        with pytest.raises(ValueError, match="illegal object label"):
            world.place_object(label, "ball", (3, 3))
        assert extract(world.observe()) == extract(small_world().observe())
