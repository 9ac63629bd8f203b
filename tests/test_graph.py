import gc
import hashlib
import json
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowmatch.cli import build_parser
from rainbowmatch.errors import InvalidInstance
from rainbowmatch.generators import FAMILIES, gen_two_factorized
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


def _counter_multiplicity(graph):
    """The Counter definition max_multiplicity replaced."""
    counts = Counter(frozenset((u, v)) for u, v, _ in graph.edges)
    return max(counts.values(), default=0)


def test_multiplicity_matches_counter_on_random_multigraphs():
    for seed in range(300):
        rng = random.Random(seed)
        nv = rng.randint(2, 12)
        # few vertices and up to 60 edges, so multiplicities range widely
        edges = [(*rng.sample(range(nv), 2), rng.randrange(4))
                 for _ in range(rng.randint(0, 60))]
        graph = ColoredMultigraph(nv, 4, edges)
        assert graph.max_multiplicity() == _counter_multiplicity(graph), seed


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 9, 16, 17])
def test_multiplicity_of_edges_on_one_pair(m):
    # each side of a power of two: the doubling's last hit and the bisection's ends
    edges = [(0, 1, c) if c % 2 else (1, 0, c) for c in range(m)]
    assert ColoredMultigraph(2, m, edges).max_multiplicity() == m
    # one lighter pair beside it leaves the answer unchanged
    lighter = [(1, 2, c) for c in range(m - 1)]
    assert ColoredMultigraph(3, m, lighter + edges).max_multiplicity() == m


@pytest.mark.parametrize("edges", [{}, {"0": [0, 1, 0]}, 7, "010", None],
                         ids=["empty_object", "object", "number", "string", "null"])
def test_load_refuses_non_list_edges(tmp_path, edges):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"n_vertices": 2, "n_colors": 1, "edges": edges}))
    with pytest.raises(InvalidInstance, match="edges must be a list"):
        load_instance(str(path))


@pytest.mark.parametrize("d", [60, 300])
def test_load_and_multiplicity_hold_the_instance_once(tmp_path, d):
    """Traced peaks, as multiples of the memory the loaded graph holds.

    Holding the parsed lists beside the new tuples peaked at 1.8x (d = 60)
    and 1.6x (d = 300); a Counter over the pairs added 0.8x and 0.7x.
    """
    path = tmp_path / "circulant.json"
    save_instance(gen_two_factorized(d, "circulant"), str(path), ColorClassKind.TWO_FACTOR)
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        graph, _, _ = load_instance(str(path))
        held, load_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        assert graph.max_multiplicity() == 1
        multiplicity_peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    size = held - base
    assert graph.n_edges == d * (2 * d + 1)
    assert load_peak - base <= 1.3 * size
    assert multiplicity_peak - held <= 0.5 * size


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
def test_family_record_names_the_options_its_generator_reads(family, record_reads):
    _, make, reads = FAMILIES[family]
    options = record_reads(build_parser().parse_args(
        ["generate", "--family", family, *SMALL[family], "-o", "unused"]))
    make(options, 1)
    assert options.read == set(reads)


@pytest.mark.parametrize("family", list(SMALL))
def test_writer_matches_json_dumps_on_every_family(tmp_path, family):
    args = build_parser().parse_args(["generate", "--family", family, *SMALL[family],
                                      "-o", "unused"])
    kind, make, _ = FAMILIES[family]
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


def test_validate_two_factor_lists_witnesses_by_colour_then_vertex():
    # colour 0 is the 5-cycle, colour 1 a path, colour 2 a triangle plus a
    # doubled edge, colour 3 the 5-cycle again
    cycle = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    edges = [(u, v, 0) for u, v in cycle] + [(3, 2, 1), (1, 2, 1)]
    edges += [(0, 1, 2), (1, 2, 2), (2, 0, 2), (3, 4, 2), (4, 3, 2)]
    edges += [(u, v, 3) for u, v in cycle]
    report = validate(ColoredMultigraph(5, 4, edges), ColorClassKind.TWO_FACTOR)
    assert report.witnesses == [(1, 0), (1, 1), (1, 3), (1, 4)]
    sides = [0, 1, 0, 1, 0]  # edges 4-0 and 2-0 join side 0 to itself
    report = validate(ColoredMultigraph(5, 4, edges, sides), ColorClassKind.TWO_FACTOR)
    assert report.witnesses == [(-1, 4), (-1, 2), (-1, 4), (1, 0), (1, 1), (1, 3),
                                (1, 4)]


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


def test_restrict_shares_the_parent_edge_tuples():
    g = gen_two_factorized(20, "circulant", 5)
    sub, edge_map = restrict_with_map(g, range(0, g.n_vertices, 3))
    assert 0 < sub.n_edges < g.n_edges
    assert all(e is g.edges[eid] for e, eid in zip(sub.edges, edge_map, strict=True))


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
