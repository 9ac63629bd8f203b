import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowmatch.graph import (ColorClassKind,
                                ColoredMultigraph, RainbowMatching,
                                clique_decompose, draw_sample_split,
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


def test_multiplicity_counts_parallel_edges():
    g = ColoredMultigraph(2, 3, [(0, 1, 0), (1, 0, 1), (0, 1, 2)])
    assert g.multiplicity(0, 1) == 3
    assert g.multiplicity(1, 0) == 3
    assert g.max_multiplicity() == 3
    assert sorted(g.colors_on_pair(0, 1)) == [0, 1, 2]


def test_instance_round_trip(tmp_path):
    g = small_graph()
    path = tmp_path / "inst.json"
    save_instance(g, str(path), ColorClassKind.CLIQUE_UNION)
    loaded, kind = load_instance(str(path))
    assert kind is ColorClassKind.CLIQUE_UNION
    assert loaded.edges == g.edges
    assert loaded.n_vertices == g.n_vertices
    # canonical file: save again, byte-identical
    path2 = tmp_path / "inst2.json"
    save_instance(loaded, str(path2), ColorClassKind.CLIQUE_UNION)
    assert path.read_bytes() == path2.read_bytes()
    doc = json.loads(path.read_text())
    assert set(doc) == {"n_vertices", "n_colors", "kind", "edges"}


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
    k4 = [(a, b, 0) for a in range(4) for b in range(a + 1, 4)]
    deco = clique_decompose(ColoredMultigraph(4, 1, k4), 0)
    assert len(deco.triangles) == 0 and len(deco.pair_edges) == 2
    k5 = [(a, b, 0) for a in range(5) for b in range(a + 1, 5)]
    deco5 = clique_decompose(ColoredMultigraph(5, 1, k5), 0)
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
    g = small_graph()
    permuted = ColoredMultigraph(6, 2, list(reversed(g.edges)))
    assert permuted.multiplicity(0, 1) == g.multiplicity(0, 1)
    assert permuted.max_multiplicity() == g.max_multiplicity()
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
