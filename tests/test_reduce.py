import pytest

from rainbowmatch.errors import NotTwoFactorized
from rainbowmatch.generators import gen_latin, gen_two_factorized
from rainbowmatch.graph import ColoredMultigraph, validate, ColorClassKind
from rainbowmatch.solvers import orient_bipartition_reduce
from rainbowmatch.verification import THEOREMS


def test_rejects_non_two_factorized():
    with pytest.raises(NotTwoFactorized):
        orient_bipartition_reduce(gen_latin(4), 0)


def test_output_is_bipartite_under_side_map():
    g = gen_two_factorized(10, "circulant", 4, 0)
    for seed in range(10):
        red = orient_bipartition_reduce(g, seed)
        for u, v, _ in red.graph.edges:
            assert red.sides[u] == 0 and red.sides[v] == 1
        assert validate(red.graph, ColorClassKind.ARBITRARY).valid


def test_edge_map_points_at_source_edges():
    g = gen_two_factorized(6, "circulant", 3, 1)
    red = orient_bipartition_reduce(g, 3)
    for rid, (u, v, c) in enumerate(red.graph.edges):
        su, sv, sc = g.edges[red.edge_map[rid]]
        assert {su, sv} == {u, v} and sc == c


def test_four_cycle_expected_kept_edges():
    # single color = one 4-cycle; each edge survives with probability 1/4
    g = ColoredMultigraph(4, 1, [(0, 1, 0), (1, 2, 0), (2, 3, 0), (0, 3, 0)])
    total = sum(orient_bipartition_reduce(g, seed).graph.n_edges
                for seed in range(4000))
    assert total / 4000 == pytest.approx(1.0, abs=0.1)


def test_lifted_matchings_are_rainbow_in_source():
    # reduction_lift runs greedy on the reduction of this test's circulant
    assert all(THEOREMS["reduction_lift"].checker(10, 0, seed)[0] for seed in range(50))
