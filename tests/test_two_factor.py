import hashlib
import json
import math
import random

import pytest

from rainbowmatch.cli import main
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
    report = alspach_solve(g, seed=12)
    assert report.defect == 0
    ok, why = is_rainbow_matching(g, report.matching)
    assert ok, why


def test_symmetric_latin_gives_near_transversal():
    # d = 7 on 16 vertices: 16 < 28 forces the sampling path; a full rainbow
    # matching here is a partial transversal of size 7
    g = gen_two_factorized(7, "symmetric_latin", 0, 0)
    report = alspach_solve(g, seed=2)
    assert report.defect == 0
    assert len(report.matching) == 7


def test_deterministic_given_seed():
    d = 10
    g = gen_two_factorized(d, "circulant", 4, 3)
    a = alspach_solve(g, seed=21)
    b = alspach_solve(g, seed=21)
    assert a.matching.pairs == b.matching.pairs


def _digon_instance():
    """26 vertices, 9 colours in the nibble regime (2d < 26 < 4d): colours 0-6
    are the offset-2..8 circulant cycles, colour 7 is every diameter {v, v+13}
    doubled, colour 8 is a digon on {0, 1} plus the cycle 2, 3, ..., 25.  The
    edge order is shuffled so the two copies of a digon have unrelated ids."""
    n = 26
    edges = [(v, (v + off) % n, c) for c, off in enumerate(range(2, 9))
             for v in range(n)]
    edges += [(v, v + 13, 7) for v in range(13)] * 2
    cycle = list(range(2, n))
    edges += [(0, 1, 8), (1, 0, 8)]
    edges += [(a, b, 8) for a, b in zip(cycle, cycle[1:] + cycle[:1])]
    random.Random(5).shuffle(edges)
    return ColoredMultigraph(n, 9, edges)


@pytest.mark.parametrize("seed, digest", [
    (0, "3c86dd7c066794fd61845fe13cc37256a29a20f0cf7b4b6aa6db6627ff0b4f4a"),
    # completion gets stuck, so repair runs on the nibble's digon edge (12, 25)
    (13, "38178801cde68ffdfd7b8470461c659154310998deb0319bc0103878e2a8489b"),
], ids=["seed-0", "seed-13"])
def test_digon_reports_are_pinned(seed, digest):
    """Pinned by endpoints, not edge ids: either copy of a digon is the same
    matching edge."""
    g = _digon_instance()
    assert validate(g, ColorClassKind.TWO_FACTOR).valid
    report = alspach_solve(g, seed=seed)
    doc = json.dumps([report.matching.as_edge_list(g),
                      [list(p) for p in report.phase_log], report.seeds_used])
    assert hashlib.sha256(doc.encode()).hexdigest() == digest


def _pair_in_every_colour():
    """Three Hamilton cycles on 8 vertices, each through the pair {0, 1}."""
    cycles = [[0, 1, 2, 3, 4, 5, 6, 7], [0, 1, 3, 5, 7, 2, 4, 6],
              [0, 1, 4, 7, 3, 6, 2, 5]]
    return ColoredMultigraph(8, 3, [(a, b, c) for c, cyc in enumerate(cycles)
                                    for a, b in zip(cyc, cyc[1:] + cyc[:1])])


def test_pair_in_three_colours_is_refused_for_every_seed(tmp_path, capsys):
    g = _pair_in_every_colour()
    assert validate(g, ColorClassKind.TWO_FACTOR).valid
    for seed in range(20):
        with pytest.raises(NotTwoFactorized, match="pair"):
            alspach_solve(g, seed=seed)
    inst = tmp_path / "pair.json"
    inst.write_text(json.dumps(g.to_json_dict(ColorClassKind.TWO_FACTOR)))
    assert main(["solve", "--solver", "alspach", str(inst)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ") and out.err.count("\n") == 1
