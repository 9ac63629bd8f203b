import math

import pytest

from rainbowmatch.errors import NotTwoFactorized
from rainbowmatch.generators import gen_latin, gen_two_factorized
from rainbowmatch.graph import (ColoredMultigraph, ColorClassKind,
                                is_rainbow_matching, validate)
from rainbowmatch.solvers import alspach_solve


def test_single_color_hamilton_cycle():
    g = gen_two_factorized(1, "circulant", 5, 0)
    report = alspach_solve(g, seed=0)
    assert report.defect == 0 and len(report.matching) == 1


def test_rejects_non_two_factorized():
    g = gen_latin(4)
    with pytest.raises(NotTwoFactorized):
        alspach_solve(g)


def test_rejects_too_few_vertices():
    # both colours on the 4-cycle 0-1-2-3: a valid 2-factorization with n = 2d
    cycle = [(0, 1), (1, 2), (2, 3), (3, 0)]
    g = ColoredMultigraph(4, 2, [(u, v, c) for c in range(2) for u, v in cycle])
    assert validate(g, ColorClassKind.TWO_FACTOR).valid
    with pytest.raises(NotTwoFactorized, match="more than 2d"):
        alspach_solve(g)


def test_greedy_regime_full_matching():
    # n_vertices >= 4d: greedy suffices
    g = gen_two_factorized(5, "circulant", 20, 1)
    report = alspach_solve(g, seed=8)
    assert report.defect == 0
    ok, why = is_rainbow_matching(g, report.matching)
    assert ok, why
    assert report.phase_log[0][0] == "greedy"


def test_tight_regime_sampling_path():
    d = 20
    extra = math.ceil(d ** 0.8) - 1
    g = gen_two_factorized(d, "circulant", extra, 12)
    report = alspach_solve(g, seed=12, max_resamples=5)
    assert report.defect == 0
    ok, why = is_rainbow_matching(g, report.matching)
    assert ok, why


def test_symmetric_latin_gives_near_transversal():
    # d = 7 on 16 vertices: 16 < 28 forces the sampling path; a full rainbow
    # matching here is a partial transversal of size 7
    g = gen_two_factorized(7, "symmetric_latin", 0, 0)
    report = alspach_solve(g, seed=2, max_resamples=5)
    assert report.defect == 0
    assert len(report.matching) == 7


def test_deterministic_given_seed():
    d = 10
    g = gen_two_factorized(d, "circulant", 4, 3)
    a = alspach_solve(g, seed=21)
    b = alspach_solve(g, seed=21)
    assert a.matching.pairs == b.matching.pairs
