import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowmatch.cli import build_parser
from rainbowmatch.generators import FAMILIES
from rainbowmatch.graph import (_BLOCK, ColorClassKind,
                                ColoredMultigraph, RainbowMatching,
                                draw_sample_split,
                                is_rainbow_matching, load_instance,
                                restrict_with_map, save_instance, validate)


def small_graph():
    # two triangles in color 0, a matching in color 1
    edges = [(0, 1, 0), (0, 2, 0), (1, 2, 0),
             (3, 4, 0), (3, 5, 0), (4, 5, 0),
             (0, 3, 1), (1, 4, 1)]
    return ColoredMultigraph(6, 2, edges)


def test_edge_validation_rejects_loops_and_ranges():
    with pytest.raises(ValueError, match="loop"):
        ColoredMultigraph(3, 1, [(1, 1, 0)])
    with pytest.raises(ValueError, match="endpoint"):
        ColoredMultigraph(3, 1, [(0, 3, 0)])
    with pytest.raises(ValueError, match="color"):
        ColoredMultigraph(3, 2, [(0, 1, 2)])
    with pytest.raises(ValueError):
        ColoredMultigraph(3, 1, [(0, -1, 0)])
    with pytest.raises(ValueError, match="negative"):
        ColoredMultigraph(-1, 1, [])
    with pytest.raises(ValueError, match="negative"):
        ColoredMultigraph(3, -1, [])


def test_multiplicity_counts_parallel_edges():
    g = ColoredMultigraph(3, 3, [(0, 1, 0), (1, 0, 1), (0, 1, 2), (1, 2, 0)])
    assert g.max_multiplicity() == 3  # both orientations count toward one pair
    assert ColoredMultigraph(3, 1, [(0, 1, 0), (1, 2, 0)]).max_multiplicity() == 1
    assert ColoredMultigraph(3, 1, []).max_multiplicity() == 0


def test_instance_round_trip(tmp_path):
    g = small_graph()
    path = tmp_path / "inst.json"
    save_instance(g, str(path), ColorClassKind.CLIQUE_UNION)
    loaded, kind, digest = load_instance(str(path))
    assert kind is ColorClassKind.CLIQUE_UNION
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert loaded.edges == g.edges
    assert loaded.n_vertices == g.n_vertices
    # canonical file: save again, byte-identical
    path2 = tmp_path / "inst2.json"
    save_instance(loaded, str(path2), ColorClassKind.CLIQUE_UNION)
    assert path.read_bytes() == path2.read_bytes()
    doc = json.loads(path.read_text())
    assert set(doc) == {"n_vertices", "n_colors", "kind", "edges"}


def _dumps(graph, kind):
    return (json.dumps(graph.to_json_dict(kind), indent=2) + "\n").encode()


# small options for every generate family
SMALL = {
    "latin_cayley": ["--n", "5"],
    "latin_random": ["--n", "6"],
    "ab_bipartite": ["--n", "8", "--extra", "2"],
    "ab_general": ["--n", "8", "--extra", "2"],
    "grinblat": ["--n", "6", "--v", "18", "--m", "6"],
    "triangle_lb": ["--n", "3"],
    "two_k4": [],
    "multiplicity_lb": ["--n", "5", "--d", "2"],
    "circulant_two_factor": ["--d", "4", "--extra", "2"],
    "symmetric_latin_two_factor": ["--d", "3"],
}


def test_small_options_cover_every_family():
    assert set(SMALL) == set(FAMILIES)


@pytest.mark.parametrize("family", list(SMALL))
def test_writer_matches_json_dumps_on_every_family(tmp_path, family):
    args = build_parser().parse_args(["generate", "--family", family, *SMALL[family],
                                      "-o", "unused"])
    kind, make = FAMILIES[family]
    graph = make(args, 1)
    path = tmp_path / "inst.json"
    save_instance(graph, str(path), kind)
    assert path.read_bytes() == _dumps(graph, kind)


@pytest.mark.parametrize("n_edges", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
@pytest.mark.parametrize("with_sides", [False, True], ids=["no_sides", "sides"])
def test_writer_matches_json_dumps_across_blocks(tmp_path, n_edges, with_sides):
    # as many vertices as edges, so the sides list crosses the same block edges
    rng = random.Random(n_edges)
    nv = max(2, n_edges)
    edges = []
    for _ in range(n_edges):
        u, v = rng.sample(range(nv), 2)
        edges.append((u, v, rng.randrange(7)))
    sides = [rng.randrange(2) for _ in range(nv)] if with_sides else None
    graph = ColoredMultigraph(nv, 7, edges, sides=sides)
    path = tmp_path / "inst.json"
    for kind in ColorClassKind:
        save_instance(graph, str(path), kind)
        assert path.read_bytes() == _dumps(graph, kind)


@pytest.mark.parametrize("sides", [None, []], ids=["no_sides", "empty_sides"])
def test_writer_matches_json_dumps_without_vertices(tmp_path, sides):
    graph = ColoredMultigraph(0, 0, [], sides=sides)
    path = tmp_path / "inst.json"
    save_instance(graph, str(path))
    assert path.read_bytes() == _dumps(graph, ColorClassKind.ARBITRARY)


def test_validate_matching_kind_flags_shared_vertex():
    g = ColoredMultigraph(3, 1, [(0, 1, 0), (1, 2, 0)])
    report = validate(g, ColorClassKind.MATCHING)
    assert not report.valid
    assert (0, 1) in report.witnesses


def test_validate_clique_union_accepts_triangles():
    report = validate(small_graph(), ColorClassKind.CLIQUE_UNION)
    assert report.valid
    deco = report.decompositions[0]
    assert deco.spanned_vertices == 6
    assert len(deco.triangles) == 2


def test_validate_clique_union_rejects_path():
    g = ColoredMultigraph(3, 1, [(0, 1, 0), (1, 2, 0)])
    report = validate(g, ColorClassKind.CLIQUE_UNION)
    assert not report.valid


def test_matching_kind_implies_clique_union_kind():
    g = ColoredMultigraph(4, 2, [(0, 1, 0), (2, 3, 0), (0, 2, 1)])
    assert validate(g, ColorClassKind.MATCHING).valid
    assert validate(g, ColorClassKind.CLIQUE_UNION).valid


def test_sides_violations_reported_with_color_minus_one():
    g = ColoredMultigraph(4, 1, [(0, 1, 0)], sides=[0, 0, 1, 1])
    report = validate(g, ColorClassKind.ARBITRARY)
    assert (-1, 0) in report.witnesses


def test_clique_decompose_splits_k4_and_k5():
    def deco_of(graph):
        return validate(graph, ColorClassKind.CLIQUE_UNION).decompositions[0]

    k4 = [(a, b, 0) for a in range(4) for b in range(a + 1, 4)]
    deco = deco_of(ColoredMultigraph(4, 1, k4))
    assert len(deco.triangles) == 0 and len(deco.pair_edges) == 2
    k5 = [(a, b, 0) for a in range(5) for b in range(a + 1, 5)]
    deco5 = deco_of(ColoredMultigraph(5, 1, k5))
    assert len(deco5.triangles) == 1 and len(deco5.pair_edges) == 1
    assert deco5.spanned_vertices == 5


def test_restrict_keeps_vertex_ids_and_colors():
    g = small_graph()
    sub, edge_map = restrict_with_map(g, {0, 1, 2})
    assert sub.n_colors == g.n_colors
    assert all(g.edges[edge_map[i]] == e for i, e in enumerate(sub.edges))
    assert sub.n_edges == 3


@settings(max_examples=50, deadline=None)
@given(a=st.sets(st.integers(0, 5)), b=st.sets(st.integers(0, 5)))
def test_restrict_composes_by_intersection(a, b):
    g = small_graph()
    inner, inner_map = restrict_with_map(g, a)
    lhs, lhs_map = restrict_with_map(inner, b)
    rhs, rhs_map = restrict_with_map(g, a & b)
    assert lhs.edges == rhs.edges
    assert [inner_map[eid] for eid in lhs_map] == rhs_map


def test_index_rebuild_is_representation_independent():
    g = ColoredMultigraph(6, 2, small_graph().edges + [(1, 0, 1)])
    permuted = ColoredMultigraph(6, 2, list(reversed(g.edges)))
    assert permuted.max_multiplicity() == g.max_multiplicity() == 2
    for v in range(6):
        assert len(permuted.incident[v]) == len(g.incident[v])


def test_is_rainbow_matching_witnesses():
    g = small_graph()
    ok, _ = is_rainbow_matching(g, RainbowMatching(pairs=[(0, 0), (7, 1)]))
    assert not ok  # edges 0 and 7 share vertex 1
    ok, why = is_rainbow_matching(g, RainbowMatching(pairs=[(2, 0), (6, 1)]))
    assert ok and why is None
    ok, _ = is_rainbow_matching(g, RainbowMatching(pairs=[(0, 1)]))
    assert not ok  # edge 0 has color 0, claimed 1
    ok, _ = is_rainbow_matching(g, RainbowMatching(pairs=[(99, 0)]))
    assert not ok


def test_draw_sample_split_partitions_vertices():
    g = small_graph()
    split = draw_sample_split(g, 0.5, 42)
    assert split.sample.isdisjoint(split.rest)
    assert sorted(split.sample | split.rest) == list(range(6))
    again = draw_sample_split(g, 0.5, 42)
    assert split.sample == again.sample
