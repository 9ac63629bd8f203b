import math
import random

import pytest

from rainbowmatch.errors import HypothesisViolated
from rainbowmatch.generators import gen_grinblat, gen_triangle_lb
from rainbowmatch.graph import ColoredMultigraph
from rainbowmatch.solvers import edge_disjoint_matchings, expander_matching
from rainbowmatch.solvers.expander import _Expander
from rainbowmatch.verification import THEOREMS


def assert_matching(graph, edge_ids):
    seen: set = set()
    for eid in edge_ids:
        u, v, _ = graph.edges[eid]
        assert u not in seen and v not in seen
        seen.update((u, v))


def test_single_color_single_edge():
    # one color spanning 4 vertices (two disjoint edges) with m = 1
    g = ColoredMultigraph(4, 1, [(0, 1, 0), (2, 3, 0)])
    ids = expander_matching(g)
    assert len(ids) >= 1
    assert_matching(g, ids)


@pytest.mark.parametrize("n,m", [(20, 1), (50, 3)])
def test_full_size_matching_on_qualifying_instances(n, m):
    # expander_full: a matching of >= n edges on gen_grinblat(n, 2n + 2m, m)
    assert m == math.ceil(n * n / 1000)
    assert all(THEOREMS["expander_full"].checker(n, seed, 0)[0] for seed in range(5))


def test_hypothesis_violation_rejected():
    # triangle construction: 3n-3 spanned vertices with multiplicity n is far
    # below the 2n+2m threshold
    g = gen_triangle_lb(10)
    with pytest.raises(HypothesisViolated):
        expander_matching(g)


def test_count_target_one_equals_single_run():
    g = gen_grinblat(16, 2 * 16 + 2, 1, 4)
    [only] = edge_disjoint_matchings(g, 1)
    assert len(only) >= 16
    assert_matching(g, only)


# edge_disjoint: ceil(n^0.25) pairwise edge-disjoint matchings of
# >= n - ceil(n^0.75) edges each on gen_grinblat(n, 2n + 2 + ceil(n^0.75), 1)
def test_two_edge_disjoint_matchings():
    assert THEOREMS["edge_disjoint"].checker(16, 3, 0)[0]


def test_disjoint_matchings_across_seeds():
    n = 25
    target = math.ceil(n ** 0.25)
    for seed in (1, 2):
        g = gen_grinblat(n, 2 * n + 2 + math.ceil(n ** 0.75), 1, seed)
        ms = edge_disjoint_matchings(g, target)
        assert len(ms) == target
        for i in range(len(ms)):
            assert_matching(g, ms[i])
            for j in range(i + 1, len(ms)):
                assert not (set(ms[i]) & set(ms[j]))


def test_disjoint_matchings_report_a_shortfall():
    # after two rounds a colour of gen_grinblat(25, 64, 1, 0) spans fewer
    # than 2n + 2m = 48 vertices, so the third matching cannot be found
    g = gen_grinblat(25, 64, 1, 0)
    with pytest.raises(HypothesisViolated, match="found 2 of 3") as info:
        edge_disjoint_matchings(g, 3)
    assert isinstance(info.value.__cause__, HypothesisViolated)


def test_disjoint_matchings_report_running_out_of_colors():
    # the one colour is used twice, more than sqrt(1) times, and is dropped
    g = ColoredMultigraph(4, 1, [(0, 1, 0), (2, 3, 0)])
    with pytest.raises(HypothesisViolated, match="found 1 of 2"):
        edge_disjoint_matchings(g, 2)


def _round_robin_colors(n, seed):
    """n shuffled factors of the round-robin 1-factorisation of K_{2n+2}.

    Every colour is a perfect matching, so each spans 2n+2 = 2n+2m vertices
    at m = 1: the expander's hypothesis holds with no slack.
    """
    big = 2 * n + 2
    factors = [[(big - 1, r)] + [((r + k) % (big - 1), (r - k) % (big - 1))
                                 for k in range(1, big // 2)]
               for r in range(big - 1)]
    rng = random.Random(seed)
    rng.shuffle(factors)
    edges = [(min(u, v), max(u, v), c) for c, factor in enumerate(factors[:n])
             for u, v in factor]
    rng.shuffle(edges)
    return ColoredMultigraph(big, n, edges)


@pytest.mark.parametrize("n,seed", [(10, 150), (20, 8)])
def test_reconfiguration_completes_a_stuck_greedy_matching(n, seed):
    g = _round_robin_colors(n, seed)
    greedy = _Expander(g)
    greedy.extend_greedy()
    assert greedy.size == n - 1
    ids = expander_matching(g)
    assert len(ids) == n
    assert_matching(g, ids)
