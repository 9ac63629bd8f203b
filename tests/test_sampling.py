import hashlib
import json
import math

import pytest

from rainbowmatch.generators import gen_ab, gen_grinblat, gen_latin, gen_two_factorized
from rainbowmatch.graph import is_rainbow_matching
from rainbowmatch.solvers import alspach_solve, default_p, sampling_solve


def test_p_out_of_range_rejected():
    g = gen_ab(5, 0, False, 0)
    with pytest.raises(ValueError):
        sampling_solve(g, 1.0)


def test_report_fields_consistent():
    n = 32
    g = gen_ab(n, math.ceil(7 * n ** 0.75), True, 17)
    report = sampling_solve(g, min(0.5, 2 * n ** -0.25), seed=4)
    ok, why = is_rainbow_matching(g, report.matching)
    assert ok, why
    assert report.defect == n - len(report.matching.colors())
    assert report.missing_colors == sorted(set(range(n)) - report.matching.colors())
    if report.defect == 0:
        assert report.matching.colors() == set(range(n))
    doc = report.to_json_dict(g, 0)
    assert set(doc) == {"size", "defect", "missing_colors", "matching",
                        "phases", "seed", "elapsed_ms", "optimal"}
    assert doc["size"] == len(report.matching)


def test_completion_uses_only_weak_missing_colors():
    n = 24
    g = gen_grinblat(n, 3 * n + math.ceil(40 * n ** 0.75), n, 3)
    report = sampling_solve(g, 0.5, seed=9)
    # per attempt: weak_greedy, weak_augment, complete, then repair_augment
    # only when completion got stuck
    phases = [name for name, _, _ in report.phase_log]
    assert phases[0] == "weak_greedy"
    assert "complete" in phases
    for name, before, after in report.phase_log:
        assert after >= before or name == "complete"


def test_same_seed_same_matching():
    g = gen_ab(20, 6, False, 5)
    a = sampling_solve(g, 0.4, seed=77)
    b = sampling_solve(g, 0.4, seed=77)
    assert a.matching.pairs == b.matching.pairs
    assert a.seeds_used == b.seeds_used


def test_resampling_stops_at_full():
    # the first attempt of this seeded solve already places every color
    n = 16
    g = gen_ab(n, math.ceil(7 * n ** 0.75), True, 2)
    report = sampling_solve(g, 0.5, seed=1)
    assert report.defect == 0
    assert len(report.seeds_used) == 1
    assert [name for name, _, _ in report.phase_log].count("complete") == 1


def test_report_seed_is_the_callers_seed():
    g = gen_ab(12, 8, True, 3)
    report = sampling_solve(g, 0.5, seed=41)
    assert report.seed == 41 and report.to_json_dict(g, 0)["seed"] == 41
    assert report.seeds_used[0] != 41


def test_default_p():
    assert default_p(0) == 0.5
    assert default_p(16) == 0.5
    assert default_p(4096) == 2 * 4096 ** -0.25 == 0.25


@pytest.mark.parametrize("solve, digest", [
    # tight regime (16 < 4d) whose completion gets stuck, so repair runs
    (lambda: alspach_solve(gen_two_factorized(7, "symmetric_latin", 0, 0), seed=2),
     "626a942a347f591809726bf0f9e66992ae40e50e694d48a6fe4a94a56af8da30"),
    # tight circulant: 56 vertices against 4d = 80
    (lambda: alspach_solve(gen_two_factorized(20, "circulant", 15, 12), seed=12),
     "013d78b0357ca99b4828d9fb4cdf75121986c4e6188b3a3a8c7e827e9e19e632"),
    # every one of the five attempts repairs
    (lambda: sampling_solve(gen_latin(32, "random", 0), 0.5, seed=0),
     "349a21f17affd824626b126f113559c3f767ca76eb7f4482cbb8660dee548138"),
    # the weak augment stops at 5 edges and misses a path of 7 here; it ends
    # at 95 colours, not 97, and completion still brings the first attempt to 100
    (lambda: sampling_solve(gen_ab(100, 79, False, 1), 0.5, seed=1),
     "29655fb91d20c7c3be5ebbd4d7233a76839975bbaae46def502dcfab16476d86"),
], ids=["alspach-symmetric_latin-d7", "alspach-circulant-d20", "sampling-latin32",
        "sampling-ab_general-n100"])
def test_pipeline_reports_are_pinned(solve, digest):
    report = solve()
    doc = json.dumps([report.matching.pairs, [list(p) for p in report.phase_log],
                      report.seeds_used])
    assert hashlib.sha256(doc.encode()).hexdigest() == digest


def test_latin_random_keeps_its_full_transversals():
    # the repair's paths of 7 and 9 edges count here: 5 of these 20 solves
    # reach defect 0, and 3 do when every augment stops at 5 edges
    full = sum(sampling_solve(gen_latin(32, "random", s), 0.5, seed=s).defect == 0
               for s in range(20))
    assert full >= 5


@pytest.mark.parametrize("make", [lambda s: gen_ab(64, 0, True, s),
                                  lambda s: gen_grinblat(64, 128, 7, s)],
                         ids=["ab_bipartite-surplus0", "grinblat-v2n-m7"])
def test_small_surplus_completion_does_work(make):
    # the weak solve leaves colours here, and completion in the sample places some
    for s in range(10):
        report = sampling_solve(make(s), default_p(64), seed=s)
        assert report.defect == 0
        _, before, after = next(p for p in report.phase_log if p[0] == "complete")
        assert after > before
