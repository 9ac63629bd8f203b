import math
from types import SimpleNamespace

import pytest

from rainbowmatch import verification
from rainbowmatch.solvers import default_p
from rainbowmatch.verification import THEOREMS, check, sweep_surplus


def test_unknown_theorem_rejected():
    with pytest.raises(ValueError):
        check("no_such_theorem")


def test_every_cell_recorded_no_silent_skips():
    result = check("grinblat_weak", n_values=[9, 16], trials=3, seed=1)
    assert len(result.cells) == 6
    assert [(c.n, c.trial) for c in result.cells] == \
        [(9, 0), (9, 1), (9, 2), (16, 0), (16, 1), (16, 2)]


def test_triangle_lb_certifies():
    result = check("triangle_lb", n_values=[4, 5, 6], trials=1, seed=7)
    assert result.passed
    assert result.pass_rate == 1.0


def test_two_k4_lb_certifies():
    result = check("two_k4_lb", seed=0)
    assert result.passed
    assert result.cells[0].margin == 1.0  # 3 - 2


def test_multiplicity_lb_certifies():
    assert check("multiplicity_lb", seed=0).passed


def test_verdicts_reproducible_from_seed():
    a = check("grinblat_weak", n_values=[25], trials=5, seed=11)
    b = check("grinblat_weak", n_values=[25], trials=5, seed=11)
    assert a.to_json_dict() == b.to_json_dict()


def test_cells_embed_replay_seeds():
    result = check("grinblat_weak", n_values=[16], trials=2, seed=5)
    seeds = {(c.instance_seed, c.solver_seed) for c in result.cells}
    assert len(seeds) == 2  # distinct per trial
    for c in result.cells:
        assert c.instance_seed != c.solver_seed


def test_defaults_cover_all_theorems():
    for theorem in THEOREMS.values():
        assert theorem.sizes and theorem.trials >= 1 and theorem.assertion
        assert callable(theorem.checker)


@pytest.mark.parametrize("n_values, trials", [([], None), ([], 1), (None, 0),
                                              ([3], 0)])
def test_empty_grid_refused(n_values, trials):
    # None means "the default table"; an empty grid is refused, not defaulted
    with pytest.raises(ValueError):
        check("two_k4_lb", n_values=n_values, trials=trials)


def test_sweep_refuses_empty_surplus_list():
    with pytest.raises(ValueError, match="no surplus values"):
        sweep_surplus("ab_bipartite", 8, [], 1)


# min(1/2, 7n^(-1/16)) = 0.5 at n = 300, where default_p gives 0.4806
@pytest.mark.parametrize("family, theorem, p", [
    ("ab_general", "ab_general_strong", 0.5),
    ("ab_bipartite", "ab_bipartite_strong", default_p(300)),
    ("grinblat", "grinblat_strong", default_p(300)),
    ("grinblat", "grinblat_multiplicity", default_p(300)),
], ids=["ab_general", "ab_bipartite", "grinblat", "grinblat_multiplicity"])
def test_sweep_runs_the_strong_checkers_p(monkeypatch, family, theorem, p):
    used = []  # the p of every stubbed solve

    def fake_solve(graph, p, seed):
        used.append(p)
        return SimpleNamespace(defect=0)

    monkeypatch.setattr(verification, "gen_ab", lambda *args: None)
    monkeypatch.setattr(verification, "gen_grinblat", lambda *args: None)
    monkeypatch.setattr(verification, "sampling_solve", fake_solve)
    sweep_surplus(family, 300, [0], 1)
    check(theorem, n_values=[300], trials=1)
    assert used == [p, p]
    assert math.isclose(default_p(300), 0.4806, abs_tol=1e-4)


def test_report_schema():
    doc = check("grinblat_weak", n_values=[9], trials=2, seed=3).to_json_dict()
    assert set(doc) == {"theorem", "cells", "summary"}
    for cell in doc["cells"]:
        assert set(cell) == {"n", "trial", "pass", "margin",
                             "instance_seed", "solver_seed"}
    assert 0.0 <= doc["summary"]["pass_rate"] <= 1.0


def test_sweep_rejects_bad_family():
    with pytest.raises(ValueError):
        sweep_surplus("two_k4", 8, [0], 1, 0)


def test_sweep_trivial_surplus_succeeds():
    # with n extra edges per color the greedy phase alone is enough
    rows = sweep_surplus("ab_bipartite", 16, [16], trials=10, seed=2)
    assert rows[0]["success_fraction"] == 1.0


def test_sweep_reports_raw_fractions_per_surplus():
    rows = sweep_surplus("ab_general", 12, [0, 12], trials=5, seed=4)
    assert [r["surplus"] for r in rows] == [0, 12]
    for r in rows:
        assert 0.0 <= r["success_fraction"] <= 1.0
