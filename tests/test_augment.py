import gc
import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rainbowmatch.solvers.augment as augment_module
from rainbowmatch.generators import gen_ab, gen_grinblat, gen_latin
from rainbowmatch.graph import ColoredMultigraph, RainbowMatching, is_rainbow_matching
from rainbowmatch.seeding import derive_seed
from rainbowmatch.solvers import augment_flagged, greedy_maximal, sampling_solve


def test_augment_from_empty_is_valid():
    g = gen_latin(6, "random", 2)
    m, _ = augment_flagged(g, RainbowMatching(), seed=1)
    ok, why = is_rainbow_matching(g, m)
    assert ok, why
    assert len(m) >= 1


def test_augment_reaches_n_minus_one_on_odd_cayley():
    # odd-order Cayley tables have full transversals; the bounded-depth
    # augmenter must get within one of it from a greedy start
    g = gen_latin(7, "cayley", 0)
    out, _ = augment_flagged(g, RainbowMatching(), seed=5)
    assert len(out) >= 6


def test_augment_leaves_no_cyclic_garbage():
    # the search closures are unlinked after each use, so reference counting
    # frees an augment call's whole state
    g = gen_latin(8, "cayley", 0)
    start = greedy_maximal(g, "rare_color_first")
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        out, _ = augment_flagged(g, start)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    # greedy already holds the optimum, 7, so the search ran to its end
    assert len(start) == len(out) == 7


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32))
def test_augment_monotone_and_valid(seed):
    g = gen_ab(12, 1, False, seed)
    start = greedy_maximal(g, "random", seed)
    out, _ = augment_flagged(g, start, seed=seed)
    assert len(out) >= len(start)
    ok, why = is_rainbow_matching(g, out)
    assert ok, why


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32))
def test_augment_idempotent_at_fixpoint(seed):
    g = gen_grinblat(10, 30, 2, seed)
    once, _ = augment_flagged(g, RainbowMatching(), seed=7)
    twice, _ = augment_flagged(g, once, seed=7)
    assert sorted(twice.pairs) == sorted(once.pairs)


def test_budget_exhaustion_returns_current_matching(monkeypatch):
    monkeypatch.setattr(augment_module, "NODE_BUDGET", 5)
    g = gen_ab(20, 0, False, 3)
    start = greedy_maximal(g)
    out, _ = augment_flagged(g, start)
    assert len(out) >= len(start)
    ok, _ = is_rainbow_matching(g, out)
    assert ok


def _digest(pairs, exhausted) -> str:
    return hashlib.sha256(json.dumps([sorted(pairs), exhausted]).encode()).hexdigest()


def _heavy_multigraph(seed: int, n_vertices: int, n_colors: int,
                      n_pairs: int) -> ColoredMultigraph:
    """Random vertex pairs, each repeated in a random number of colours."""
    rng = random.Random(seed)
    edges = []
    for _ in range(n_pairs):
        u, v = rng.sample(range(n_vertices), 2)
        k = rng.randint(1, n_colors)
        edges += [(u, v, c) for c in rng.sample(range(n_colors), k)]
    return ColoredMultigraph(n_vertices, n_colors, edges)


# (sorted pairs, exhausted) digests; each instance is pinned at the last
# budget that runs out and the first that does not, so one search-tree node
# more or fewer per budget changes a digest
_AB20_EXHAUSTED = "ec79cf208b71cd9556fab00f2dd7a47425d788caa4593f735f5ab6042976fa36"
_HEAVY0_EXHAUSTED = "59a3903cc7224548df69cfd8d67a2e24caf56d00208c548919670fdfefd363df"


@pytest.mark.parametrize("budget, digest", [
    (5, _AB20_EXHAUSTED),
    (92, _AB20_EXHAUSTED),
    (93, "62ac140d3da97ef1a529faf5fcaaeadbcf75767923482614ebd46376d8907221"),
], ids=["5", "92", "93"])
def test_budget_exhaustion_is_pinned(monkeypatch, budget, digest):
    monkeypatch.setattr(augment_module, "NODE_BUDGET", budget)
    g = gen_ab(20, 0, False, 3)
    out, exhausted = augment_flagged(g, RainbowMatching())
    assert _digest(out.pairs, exhausted) == digest


@pytest.mark.parametrize("instance, budget, digest", [
    ((0, 14, 16, 30), 50, _HEAVY0_EXHAUSTED),
    ((0, 14, 16, 30), 2265, _HEAVY0_EXHAUSTED),
    ((0, 14, 16, 30), 2266,
     "447d60edcb19bfb718655a8bde3c59644b4e66d98513e4cae74996b00443340e"),
    ((2, 20, 16, 40), 15144,
     "b3ed1a4ecc080302c42f0ef35f5b1ec91ead0bc48af8997f9b308e419b88f55e"),
    ((2, 20, 16, 40), 15145,
     "104378044d115e9f44c4ddd32f317b28b762ccbbbc3720269b5f337ed4cdad7d"),
    # a path that depends on which free neighbour is tried first
    ((2, 14, 16, 30), 50_000,
     "c3b7bbe5453ccd3e5d82d7778e71e02ea592b154d263ef3dd062bae6e0b8e959"),
], ids=["seed0-50", "seed0-2265", "seed0-2266", "seed2-15144", "seed2-15145",
        "seed2-small"])
def test_heavy_pair_search_is_pinned(monkeypatch, instance, budget, digest):
    monkeypatch.setattr(augment_module, "NODE_BUDGET", budget)
    g = _heavy_multigraph(*instance)
    out, exhausted = augment_flagged(g, RainbowMatching(), seed=instance[0])
    assert _digest(out.pairs, exhausted) == digest
    ok, why = is_rainbow_matching(g, out)
    assert ok, why


def test_augment_solver_is_pinned_at_the_default_depth():
    # solve --solver augment --seed 43 on this square: paths of 9 edges reach a
    # full transversal, where paths of at most 7 stop at 30 colours
    g = gen_latin(32, "random", 43)
    out, exhausted = augment_flagged(g, greedy_maximal(g), seed=derive_seed(43, "augment"))
    assert len(out) == 32
    assert (_digest(out.pairs, exhausted)
            == "d77e9a2f7511106cc80e6819b441143ecffe8a5e18d90da73e542396a17cc75b")


def test_heavy_pairs_take_the_wildcard_branch(monkeypatch):
    wildcards = []
    gain = augment_module._Gain

    def counting_gain(options, wildcard):
        wildcards.append(wildcard)
        return gain(options, wildcard)

    monkeypatch.setattr(augment_module, "_Gain", counting_gain)
    monkeypatch.setattr(augment_module, "NODE_BUDGET", 2266)
    g = _heavy_multigraph(0, 14, 16, 30)
    augment_flagged(g, RainbowMatching())
    assert sum(wildcards) > 0


def test_sampling_solve_on_ab_bipartite_is_pinned():
    report = sampling_solve(gen_ab(64, 0, True, 0), 0.5)
    # True is the value of the budget-exhausted flag the report once carried
    assert (_digest(report.matching.pairs, True)
            == "30931a2a5f66239460036cf540580becf0c91bc6b6e2091b48bacd71ceb28040")
