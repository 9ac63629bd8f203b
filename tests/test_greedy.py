import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowmatch.generators import gen_ab, gen_grinblat, gen_latin
from rainbowmatch.graph import ColoredMultigraph, is_rainbow_matching
from rainbowmatch.solvers import greedy_maximal
from rainbowmatch.solvers.greedy import _scarcest_first, try_complete


def assert_maximal(graph, matching):
    used_v = {x for eid, _ in matching.pairs for x in graph.edges[eid][:2]}
    used_c = matching.colors()
    for u, v, c in graph.edges:
        assert c in used_c or u in used_v or v in used_v


@pytest.mark.parametrize("order", ["random", "rare_color_first"])
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
    m = greedy_maximal(g, "rare_color_first")
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
    g = ColoredMultigraph(2, 2, [(0, 1, 0), (0, 1, 1)])
    matching, stuck = try_complete(g, [0, 1])
    assert len(matching) == 1
    assert stuck in (0, 1)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


# digests of the pairs in placement order
@pytest.mark.parametrize("make, digest", [
    # the benchmark's grinblat_weak verify cell size
    (lambda: gen_grinblat(400, 1200, 400, 0),
     "e2c07dd1d7b5ca2c0b7f429e440126fa5d073c7bdec62a607b9d08836ccd772e"),
    (lambda: gen_ab(128, 0, True, 0),
     "a88ceb31a408900a8d53f750c4d4ba14f90c965a495833314435d80663e7fffc"),
    # 11 of 12 colours: some colour runs out of live edges on the way
    (lambda: gen_latin(12, "random", 3),
     "8e12f96f4023a40fd454f79aab324161ba1e256472aa64f209ddc22cff6c5db7"),
], ids=["grinblat400", "ab128", "latin12"])
def test_rare_color_first_is_pinned(make, digest):
    assert _digest(greedy_maximal(make(), "rare_color_first").pairs) == digest


# digests of the pairs in placement order, one per seed of the shuffle
@pytest.mark.parametrize("seed, digest", [
    (0, "ee65a887dae06ac8f5d692a185b7f76403505e373bdfb26010947c2a1dfd8d0e"),
    (1, "f8efe85bc7c3cbb08b90274f715f10c5eecbfb0730de97876f2c754ab1b825e0"),
    (2, "51466e5e82ad3a06f2aca9e398f39515b12eb8d47d4dd96e1bebd6c79100ce0d"),
    (3, "c3358725a8c6d1beb91c24ed44d660b14d866edc6bb5c2e2152d5675c288b320"),
])
def test_random_order_is_pinned(seed, digest):
    assert _digest(greedy_maximal(gen_ab(20, 5, False, 2), "random", seed).pairs) == digest


# digests of (pairs in placement order, stuck colour)
@pytest.mark.parametrize("make, missing, digest", [
    (lambda: gen_grinblat(40, 120, 40, 1), range(1, 40, 2),
     "c11e15b864ec1a180e970e22908e0fc95d17343acdc2378cbd8ae62e63839562"),
    # places 9 colours, then colour 9 has no disjoint edge left
    (lambda: gen_latin(12, "random", 3), range(12),
     "e4d13ab472dc471530f8ba797d15f32e4e59f7b7ce985c5b790db237a7601914"),
], ids=["completes", "stuck"])
def test_try_complete_is_pinned(make, missing, digest):
    matching, stuck = try_complete(make(), missing)
    assert _digest([matching.pairs, stuck]) == digest


def _naive_scarcest_first(graph, colors, strict):
    """_scarcest_first with every live-edge count recounted at each step."""
    covered: set = set()
    remaining = sorted(set(colors))
    pairs = []
    while remaining:
        live = {c: [e for e in graph.color_edges[c]
                    if not covered & set(graph.edges[e][:2])] for c in remaining}
        best = min(remaining, key=lambda c: (len(live[c]), c))
        if not live[best]:
            if strict:
                return pairs, best
            remaining = [c for c in remaining if live[c]]
            continue
        eid = live[best][0]
        pairs.append((eid, best))
        remaining.remove(best)
        covered.update(graph.edges[eid][:2])
    return pairs, None


@st.composite
def _graphs_and_colors(draw):
    """Small multigraphs with parallel edges, a few colours out of up to 12 or
    out of ids 0-999, and a colour list that may repeat, skip or name absent
    colours."""
    n_vertices = draw(st.integers(2, 9))
    n_colors = draw(st.integers(1, 12) | st.integers(257, 1000))
    palette = draw(st.lists(st.integers(0, n_colors - 1), min_size=1, max_size=10))
    vertex = st.integers(0, n_vertices - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, st.sampled_from(palette))
                          .filter(lambda e: e[0] != e[1]), max_size=40))
    used = st.sampled_from(palette)
    colors = draw(st.just(range(n_colors)) | st.lists(used, max_size=12)
                  | st.lists(used | st.integers(0, n_colors - 1), max_size=12))
    return ColoredMultigraph(n_vertices, n_colors, edges), colors


@pytest.mark.parametrize("strict", [False, True])
@settings(max_examples=150, deadline=None)
@given(case=_graphs_and_colors())
def test_scarcest_first_matches_a_recounting_reference(strict, case):
    graph, colors = case
    assert _scarcest_first(graph, colors, strict) == _naive_scarcest_first(graph, colors, strict)


@pytest.mark.parametrize("strict, colors, stuck", [
    (False, range(70_000), None),
    (True, [69_999, 0xFFFF, 0x10000, 0xFFFE], 69_999),
])
def test_scarcest_first_past_two_byte_colors(strict, colors, stuck):
    # 70,000 colours take the wide colour array, where 0xFFFF is a colour
    edges = [(0, 1, 0xFFFF), (2, 3, 0x10000), (4, 5, 69_999),
             (0, 1, 69_999), (2, 3, 0xFFFF), (4, 5, 0xFFFE)]
    graph = ColoredMultigraph(6, 70_000, edges)
    got = _scarcest_first(graph, colors, strict)
    assert got == ([(5, 0xFFFE), (1, 0x10000), (0, 0xFFFF)], stuck)
    assert got == _naive_scarcest_first(graph, colors, strict)
