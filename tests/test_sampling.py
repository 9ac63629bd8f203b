import hashlib
import json
import math

import pytest

from rainbowmatch.generators import gen_ab, gen_grinblat, gen_latin, gen_two_factorized
from rainbowmatch.graph import is_rainbow_matching
from rainbowmatch.solvers import SamplingConfig, alspach_solve, sampling_solve


def test_p_out_of_range_rejected():
    g = gen_ab(5, 0, False, 0)
    with pytest.raises(ValueError):
        sampling_solve(g, SamplingConfig(p=1.0))


def test_report_fields_consistent():
    n = 32
    g = gen_ab(n, math.ceil(7 * n ** 0.75), True, 17)
    cfg = SamplingConfig(p=min(0.5, 2 * n ** -0.25), seed=4)
    report = sampling_solve(g, cfg)
    ok, why = is_rainbow_matching(g, report.matching)
    assert ok, why
    assert report.defect == n - len(report.matching.colors())
    assert report.missing_colors == sorted(set(range(n)) - report.matching.colors())
    if report.defect == 0:
        assert report.matching.colors() == set(range(n))
    doc = report.to_json_dict(g)
    assert set(doc) == {"size", "defect", "missing_colors", "matching",
                        "phases", "seed", "elapsed_ms", "optimal"}
    assert doc["size"] == len(report.matching)


def test_completion_uses_only_weak_missing_colors():
    n = 24
    g = gen_grinblat(n, 3 * n + math.ceil(40 * n ** 0.75), n, 3)
    report = sampling_solve(g, SamplingConfig(p=0.5, seed=9))
    # per attempt: weak_greedy, weak_augment, complete, then repair_augment
    # only when completion got stuck
    phases = [name for name, _, _ in report.phase_log]
    assert phases[0] == "weak_greedy"
    assert "complete" in phases
    for name, before, after in report.phase_log:
        assert after >= before or name == "complete"


def test_same_seed_same_matching():
    g = gen_ab(20, 6, False, 5)
    cfg = SamplingConfig(p=0.4, seed=77)
    a = sampling_solve(g, cfg)
    b = sampling_solve(g, cfg)
    assert a.matching.pairs == b.matching.pairs
    assert a.seeds_used == b.seeds_used


def test_resampling_stops_at_full():
    n = 16
    g = gen_ab(n, math.ceil(7 * n ** 0.75), True, 2)
    report = sampling_solve(g, SamplingConfig(p=0.5, seed=1, max_resamples=5))
    if report.defect == 0:
        assert len(report.seeds_used) <= 5


@pytest.mark.parametrize("solve, digest", [
    # tight regime (16 < 4d) whose completion gets stuck, so repair runs
    (lambda: alspach_solve(gen_two_factorized(7, "symmetric_latin", 0, 0), seed=2),
     "dc782aa8ec34b4ca5dfc5c1c8cf08bb00a7a9c619eee56c88ca4bbc2c73a7eb9"),
    # tight circulant: 56 vertices against 4d = 80
    (lambda: alspach_solve(gen_two_factorized(20, "circulant", 15, 12), seed=12),
     "f3aab31844cb4129d0f668764ca9ee3871256abc44400e26069588ff88bf417c"),
    # every one of the five attempts repairs
    (lambda: sampling_solve(gen_latin(32, "random", 0), SamplingConfig(p=0.5, seed=0)),
     "fcdf3431f31a573981aee65b5105048b9a43419eb2d26dd592e866740d864356"),
], ids=["alspach-symmetric_latin-d7", "alspach-circulant-d20", "sampling-latin32"])
def test_pipeline_reports_are_pinned(solve, digest):
    report = solve()
    doc = json.dumps([report.matching.pairs, [list(p) for p in report.phase_log],
                      report.seeds_used])
    assert hashlib.sha256(doc.encode()).hexdigest() == digest
