import pytest

from rainbowmatch.errors import NotTwoFactorized
from rainbowmatch.generators import gen_two_factorized
from rainbowmatch.graph import ColoredMultigraph
from rainbowmatch.solvers import AuxHypergraph, build_aux_hypergraph, nibble_match


def test_empty_rest_gives_empty_hypergraph():
    g = gen_two_factorized(2, "circulant", 0, 0)
    h = build_aux_hypergraph(g, rest=set())
    assert h.hyperedges == []
    assert nibble_match(h) == []


def test_single_cycle_full_rest():
    g = gen_two_factorized(1, "circulant", 4, 0)  # one 7-cycle color
    h = build_aux_hypergraph(g, rest=range(g.n_vertices))
    assert len(h.hyperedges) == 7


def test_circulant_hyperedge_count():
    g = gen_two_factorized(3, "circulant", 4, 0)
    h = build_aux_hypergraph(g, rest=range(g.n_vertices))
    # each 2-factor contributes n_vertices edges
    assert len(h.hyperedges) == 3 * g.n_vertices


def test_co_degree_above_two_raises():
    # three parallel edges put one vertex pair in three hyperedges
    g = ColoredMultigraph(2, 3, [(0, 1, 0), (0, 1, 1), (0, 1, 2)])
    with pytest.raises(NotTwoFactorized):
        build_aux_hypergraph(g, rest=range(2))


def test_round_fraction_validated():
    h = AuxHypergraph(hyperedges=[(0, 1, 0)])
    with pytest.raises(ValueError):
        nibble_match(h, round_fraction=1.5)


def test_nibble_output_is_disjoint():
    g = gen_two_factorized(8, "circulant", 10, 1)
    h = build_aux_hypergraph(g, rest=range(g.n_vertices))
    triples = nibble_match(h, seed=3)
    vs: set = set()
    cs: set = set()
    for x, y, c in triples:
        assert x not in vs and y not in vs and c not in cs
        vs.update((x, y))
        cs.add(c)


def test_perfect_matching_hypergraph_fully_covered():
    # disjoint triples: no conflicts, the nibble must take everything
    h = AuxHypergraph(hyperedges=[(0, 1, 0), (2, 3, 1), (4, 5, 2)])
    assert sorted(nibble_match(h, seed=9)) == [(0, 1, 0), (2, 3, 1), (4, 5, 2)]


def test_nibble_leaves_few_colors_uncovered():
    """Regression baseline: on a d=20 circulant with 45 vertices the nibble
    leaves at most d/4 colors uncovered, for each of 20 seeds."""
    d = 20
    g = gen_two_factorized(d, "circulant", 45 - (2 * d + 1), 0)
    h = build_aux_hypergraph(g, rest=range(g.n_vertices))
    for seed in range(20):
        covered = {c for _, _, c in nibble_match(h, seed=seed)}
        assert d - len(covered) <= d / 4
