from rainbowmatch.generators import gen_two_factorized
from rainbowmatch.graph import ColoredMultigraph
from rainbowmatch.solvers import build_aux_hypergraph, nibble_match


def test_empty_rest_gives_empty_hypergraph():
    g = gen_two_factorized(2, "circulant", 0, 0)
    h = build_aux_hypergraph(g, rest=set())
    assert h.hyperedges == []
    assert nibble_match(h) == []


def test_single_cycle_full_rest():
    g = gen_two_factorized(1, "circulant", 4, 0)  # one 7-cycle color
    h = build_aux_hypergraph(g, rest=range(g.n_vertices))
    assert len(h.hyperedges) == 7


def test_hyperedges_are_edge_ids_inside_rest_in_id_order():
    g = gen_two_factorized(1, "circulant", 4, 0)  # 0-1-2-3-4-5-6-0, edge ids in that order
    h = build_aux_hypergraph(g, rest={3, 0, 2, 1, 6})
    assert h.hyperedges == [0, 1, 2, 6]
    assert h.color_degree == {0: 4}


def test_circulant_hyperedge_count():
    g = gen_two_factorized(3, "circulant", 4, 0)
    h = build_aux_hypergraph(g, rest=range(g.n_vertices))
    # each 2-factor contributes n_vertices edges
    assert len(h.hyperedges) == 3 * g.n_vertices


def test_nibble_output_is_disjoint():
    g = gen_two_factorized(8, "circulant", 10, 1)
    h = build_aux_hypergraph(g, rest=range(g.n_vertices))
    vs: set = set()
    cs: set = set()
    for eid in nibble_match(h, seed=3):
        x, y, c = g.edges[eid]
        assert x not in vs and y not in vs and c not in cs
        vs.update((x, y))
        cs.add(c)


def test_perfect_matching_hypergraph_fully_covered():
    # disjoint edges: no conflicts, the nibble must take everything
    g = ColoredMultigraph(6, 3, [(0, 1, 0), (2, 3, 1), (4, 5, 2)])
    h = build_aux_hypergraph(g, rest=range(6))
    assert sorted(nibble_match(h, seed=9)) == [0, 1, 2]


def test_nibble_leaves_few_colors_uncovered():
    """Regression baseline: on a d=20 circulant with 45 vertices the nibble
    leaves at most d/4 colors uncovered, for each of 20 seeds."""
    d = 20
    g = gen_two_factorized(d, "circulant", 45 - (2 * d + 1), 0)
    h = build_aux_hypergraph(g, rest=range(g.n_vertices))
    for seed in range(20):
        covered = {g.edges[eid][2] for eid in nibble_match(h, seed=seed)}
        assert d - len(covered) <= d / 4
