import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowmatch.generators import gen_ab, gen_grinblat, gen_latin
from rainbowmatch.graph import is_rainbow_matching
from rainbowmatch.solvers import greedy_maximal
from rainbowmatch.solvers.greedy import try_complete


def assert_maximal(graph, matching):
    used_v = matching.vertices(graph)
    used_c = matching.colors()
    for u, v, c in graph.edges:
        assert c in used_c or u in used_v or v in used_v


@pytest.mark.parametrize("order", ["input", "random", "rare_color_first"])
def test_greedy_outputs_are_valid_and_maximal(order):
    g = gen_grinblat(12, 36, 2, 5)
    m = greedy_maximal(g, order, seed=3)
    ok, why = is_rainbow_matching(g, m)
    assert ok, why
    assert_maximal(g, m)


def test_greedy_deterministic_given_seed():
    g = gen_ab(15, 2, False, 8)
    a = greedy_maximal(g, "random", seed=123)
    b = greedy_maximal(g, "random", seed=123)
    assert a.pairs == b.pairs


@settings(max_examples=25, deadline=None)
@given(n=st.integers(4, 30), seed=st.integers(0, 2 ** 32))
def test_maximal_size_bound_on_3n_instances(n, seed):
    """Any maximal rainbow matching of an (n, 3n) clique-union instance has
    size at least n - sqrt(n)."""
    g = gen_grinblat(n, 3 * n, n, seed)
    m = greedy_maximal(g, "rare_color_first", seed)
    assert len(m) >= n - math.isqrt(n)


def test_try_complete_places_missing_colors():
    g = gen_latin(6)
    partial, stuck = try_complete(g, missing=[1, 3, 5])
    assert stuck is None
    assert partial.colors() == {1, 3, 5}
    ok, why = is_rainbow_matching(g, partial)
    assert ok, why


def test_try_complete_reports_first_stuck_color():
    # two colors but a single vertex pair: the second color cannot be placed
    from rainbowmatch.graph import ColoredMultigraph
    g = ColoredMultigraph(2, 2, [(0, 1, 0), (0, 1, 1)])
    matching, stuck = try_complete(g, [0, 1])
    assert len(matching) == 1
    assert stuck in (0, 1)
