import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowmatch.generators import gen_two_factorized
from rainbowmatch.graph import ColoredMultigraph
from rainbowmatch.solvers import build_aux_hypergraph, nibble_match
from rainbowmatch.solvers.hypergraph import (ROUND_FRACTION, AuxHypergraph, _bite,
                                             _survivors)
from test_two_factor import _digon_instance

_CIRCULANT = gen_two_factorized(6, "circulant", 3, 4)


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


@pytest.mark.parametrize("d, extra, seed", [(8, 10, 1), (20, 5, 0), (40, 20, 2)])
def test_nibble_returns_a_maximal_matching(d, extra, seed):
    """No hyperedge is disjoint in vertices and colours from the result."""
    g = gen_two_factorized(d, "circulant", extra, 0)
    rest = [v for v in range(g.n_vertices) if v % 5]
    h = build_aux_hypergraph(g, rest)
    matched = nibble_match(h, seed=seed)
    used_v = {x for eid in matched for x in g.edges[eid][:2]}
    used_c = {g.edges[eid][2] for eid in matched}
    assert len(used_v) == 2 * len(matched) and len(used_c) == len(matched)
    for eid in h.hyperedges:
        x, y, c = g.edges[eid]
        assert x in used_v or y in used_v or c in used_c


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_free_vertex_survivors_match_a_filter_over_all_hyperedges(data):
    """_survivors, walking only the free vertices, keeps exactly the
    hyperedges a filter over all of h keeps: parallel edges (the digon
    instance) and hand-built subsets of the hyperedges included."""
    g = data.draw(st.sampled_from([_digon_instance(), _CIRCULANT]))
    rest = data.draw(st.sets(st.integers(0, g.n_vertices - 1)))
    h = build_aux_hypergraph(g, rest)
    if data.draw(st.booleans()):  # a hand-built subset
        keep = data.draw(st.lists(st.booleans(), min_size=len(h.hyperedges),
                                  max_size=len(h.hyperedges)))
        ids = [eid for eid, k in zip(h.hyperedges, keep) if k]
        h = AuxHypergraph(g, ids, Counter(g.edges[eid][2] for eid in ids))
    used_v = data.draw(st.sets(st.integers(0, g.n_vertices - 1)))
    used_c = data.draw(st.sets(st.integers(0, g.n_colors - 1)))
    free = {x for eid in h.hyperedges for x in g.edges[eid][:2]} - used_v
    expected = [eid for eid in h.hyperedges
                if not ({*g.edges[eid][:2]} & used_v) and g.edges[eid][2] not in used_c]
    assert _survivors(h, free, used_c) == expected


def test_bite_takes_each_element_with_round_fraction():
    """4,000 bites of a 100-element pool: the bitten share, and the share of
    bites taking the first and the last element, lie within 4 sd of
    ROUND_FRACTION, and each bite lists distinct elements in pool order."""
    pool = list(range(100))
    rng = random.Random(11)
    bites = 4000
    counts = Counter()
    for _ in range(bites):
        bitten = _bite(rng, pool)
        assert all(a < b for a, b in zip(bitten, bitten[1:]))
        counts.update(bitten)
    q = ROUND_FRACTION
    trials = bites * len(pool)
    assert abs(sum(counts.values()) - q * trials) <= 4 * math.sqrt(q * (1 - q) * trials)
    for end in (pool[0], pool[-1]):
        assert abs(counts[end] - q * bites) <= 4 * math.sqrt(q * (1 - q) * bites)
