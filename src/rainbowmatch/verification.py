"""Theorem-level checkers: generator + solver + assertion, with margins.

Each checker runs `trials` seeded experiments per parameter value and records
one cell per (n, trial) — failures are data, not exceptions.  Every cell
carries the instance and solver seeds needed to replay it standalone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from .generators import (gen_ab, gen_grinblat, gen_triangle_lb,
                         gen_two_factorized, gen_two_k4)
from .graph import ColoredMultigraph
from .seeding import derive_seed
from .solvers import (SamplingConfig, alspach_solve, default_p,
                      exact_max_rainbow, greedy_maximal, sampling_solve)

# nodes per certification cell, so "certified" depends on the instance alone;
# >= 500x the most a default cell (18) or an acceptance criterion 4 cell (182,
# the order-6 cyclic square) needs
ORACLE_NODE_BUDGET = 100_000


@dataclass
class CheckCell:
    n: int
    trial: int
    passed: bool
    margin: float
    instance_seed: int
    solver_seed: int


@dataclass
class TheoremCheck:
    theorem_id: str
    n_values: list[int]
    trials: int
    seed: int
    assertion: str
    cells: list[CheckCell] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cells)

    @property
    def pass_rate(self) -> float:
        if not self.cells:
            return 1.0
        return sum(1 for c in self.cells if c.passed) / len(self.cells)

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem_id,
            "cells": [{"n": c.n, "trial": c.trial, "pass": c.passed,
                       "margin": c.margin, "instance_seed": c.instance_seed,
                       "solver_seed": c.solver_seed} for c in self.cells],
            "summary": {"pass_rate": self.pass_rate},
        }


# per-theorem desk-scale defaults: (n_values, trials, assertion text)
DEFAULTS: dict[str, tuple[list[int], int, str]] = {
    "grinblat_weak": ([25, 100, 400], 50,
                      "greedy maximal size >= n - floor(sqrt(n)) on (n,3n)"),
    "grinblat_strong": ([64, 100], 50,
                        "defect 0 with surplus ceil(40 n^0.75)"),
    "ab_bipartite_strong": ([64, 256], 50,
                            "defect 0 with surplus ceil(7 n^0.75), bipartite"),
    "ab_general_strong": ([64, 100], 50,
                          "defect 0 with surplus ceil(n^0.95), general"),
    "grinblat_multiplicity": ([64, 100], 50,
                              "defect 0 with surplus ceil(n^0.9), m = ceil(n/10)"),
    "alspach_strong": ([10, 20, 40], 20,
                       "defect 0 on circulants with 2d + ceil(d^0.8) vertices"),
    "triangle_lb": ([4, 5, 6, 7, 8, 9, 10], 1,
                    "certified oracle optimum = n - 1"),
    "multiplicity_lb": ([21], 1,
                        "certified oracle optimum = n - 1 (d = 2 blocks)"),
    "two_k4_lb": ([3], 1, "certified oracle optimum = 2 < 3"),
}

THEOREM_IDS = tuple(DEFAULTS)


def _cell_seeds(seed: int, theorem_id: str, n: int, trial: int) -> tuple[int, int]:
    return (derive_seed(seed, theorem_id, n, trial, "instance"),
            derive_seed(seed, theorem_id, n, trial, "solver"))


def _run_pipeline(graph: ColoredMultigraph, p: float, solver_seed: int) -> int:
    """Defect of the sampling pipeline at the given split probability."""
    cfg = SamplingConfig(p=p, seed=solver_seed)
    return sampling_solve(graph, cfg).defect


def _check_grinblat_weak(n: int, iseed: int, sseed: int) -> tuple[bool, float]:
    graph = gen_grinblat(n, 3 * n, n, iseed)
    size = len(greedy_maximal(graph, "rare_color_first", sseed))
    floor_bound = n - math.isqrt(n)
    return size >= floor_bound, float(size - floor_bound)


def _check_grinblat_strong(n: int, iseed: int, sseed: int) -> tuple[bool, float]:
    surplus = math.ceil(40 * n ** 0.75)
    graph = gen_grinblat(n, 3 * n + surplus, n, iseed)
    defect = _run_pipeline(graph, default_p(n), sseed)
    return defect == 0, float(-defect)


def _check_ab_bipartite(n: int, iseed: int, sseed: int) -> tuple[bool, float]:
    surplus = math.ceil(7 * n ** 0.75)
    graph = gen_ab(n, surplus, True, iseed)
    defect = _run_pipeline(graph, default_p(n), sseed)
    return defect == 0, float(-defect)


def _check_ab_general(n: int, iseed: int, sseed: int) -> tuple[bool, float]:
    surplus = math.ceil(n ** 0.95)
    graph = gen_ab(n, surplus, False, iseed)
    defect = _run_pipeline(graph, min(0.5, 7 * n ** (-1 / 16)), sseed)
    return defect == 0, float(-defect)


def _check_grinblat_multiplicity(n: int, iseed: int, sseed: int) -> tuple[bool, float]:
    surplus = math.ceil(n ** 0.9)
    m = math.ceil(n / 10)
    graph = gen_grinblat(n, 3 * n + surplus, m, iseed)
    defect = _run_pipeline(graph, default_p(n), sseed)
    return defect == 0, float(-defect)


def _check_alspach(d: int, iseed: int, sseed: int) -> tuple[bool, float]:
    extra = max(0, math.ceil(d ** 0.8) - 1)  # n_vertices = 2d + ceil(d^0.8)
    graph = gen_two_factorized(d, "circulant", extra, iseed)
    report = alspach_solve(graph, seed=sseed, max_resamples=5)
    return report.defect == 0, float(-report.defect)


def _check_triangle_lb(n: int, iseed: int, sseed: int) -> tuple[bool, float]:
    graph = gen_triangle_lb(n)
    size, _, certified = exact_max_rainbow(graph, node_budget=ORACLE_NODE_BUDGET)
    if not certified:
        return False, math.nan  # inconclusive, never a pass
    return size == n - 1, float((n - 1) - size)


def _check_multiplicity_lb(n: int, iseed: int, sseed: int) -> tuple[bool, float]:
    from .generators import gen_multiplicity_lb
    graph = gen_multiplicity_lb(n, 2, iseed)
    size, _, certified = exact_max_rainbow(graph, node_budget=ORACLE_NODE_BUDGET)
    if not certified:
        return False, math.nan
    return size == n - 1, float((n - 1) - size)


def _check_two_k4(n: int, iseed: int, sseed: int) -> tuple[bool, float]:
    if n != 3:
        raise ValueError(f"two_k4_lb has only n = 3, got {n}")
    graph = gen_two_k4()
    size, _, certified = exact_max_rainbow(graph, node_budget=ORACLE_NODE_BUDGET)
    if not certified:
        return False, math.nan
    return size == 2, float(n - size)


_CHECKERS: dict[str, Callable[[int, int, int], tuple[bool, float]]] = {
    "grinblat_weak": _check_grinblat_weak,
    "grinblat_strong": _check_grinblat_strong,
    "ab_bipartite_strong": _check_ab_bipartite,
    "ab_general_strong": _check_ab_general,
    "grinblat_multiplicity": _check_grinblat_multiplicity,
    "alspach_strong": _check_alspach,
    "triangle_lb": _check_triangle_lb,
    "multiplicity_lb": _check_multiplicity_lb,
    "two_k4_lb": _check_two_k4,
}


def _check_domain(n_values: list[int], trials: int) -> None:
    """Refuse a grid that checks nothing, repeats a cell or feeds a checker a
    size below 1."""
    if any(n < 1 for n in n_values):
        raise ValueError(f"n must be at least 1, got {min(n_values)}")
    if len(set(n_values)) < len(n_values):
        raise ValueError(f"n values must be distinct, got {n_values}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


def check(theorem_id: str, n_values: Optional[list[int]] = None,
          trials: Optional[int] = None, seed: int = 0) -> TheoremCheck:
    """Run one theorem checker over its (n, trial) grid.

    n_values/trials default to the desk-scale table.  Every cell is recorded;
    a failing or inconclusive trial never raises.
    """
    if theorem_id not in _CHECKERS:
        raise ValueError(f"unknown theorem id {theorem_id!r}; "
                         f"known: {', '.join(THEOREM_IDS)}")
    default_n, default_trials, assertion = DEFAULTS[theorem_id]
    ns = list(n_values) if n_values else list(default_n)
    t = trials if trials else default_trials
    _check_domain(ns, t)
    result = TheoremCheck(theorem_id=theorem_id, n_values=ns, trials=t,
                          seed=seed, assertion=assertion)
    checker = _CHECKERS[theorem_id]
    for n in ns:
        for trial in range(t):
            iseed, sseed = _cell_seeds(seed, theorem_id, n, trial)
            passed, margin = checker(n, iseed, sseed)
            result.cells.append(CheckCell(n=n, trial=trial, passed=passed,
                                          margin=margin, instance_seed=iseed,
                                          solver_seed=sseed))
    result.cells.sort(key=lambda c: (c.n, c.trial))
    return result


SWEEP_FAMILIES = ("ab_bipartite", "ab_general", "grinblat")


def sweep_surplus(family: str, n: int, surplus_values: list[int],
                  trials: int, seed: int = 0) -> list[dict]:
    """Raw defect-0 fractions of the strong pipeline across surplus values."""
    if family not in SWEEP_FAMILIES:
        raise ValueError(f"family {family!r} has no surplus parameter; "
                         f"known: {', '.join(SWEEP_FAMILIES)}")
    _check_domain([n], trials)
    rows = []
    for surplus in surplus_values:
        wins = 0
        for trial in range(trials):
            iseed = derive_seed(seed, "sweep", family, n, surplus, trial, "instance")
            sseed = derive_seed(seed, "sweep", family, n, surplus, trial, "solver")
            if family == "grinblat":
                graph = gen_grinblat(n, 3 * n + surplus, n, iseed)
            else:
                graph = gen_ab(n, surplus, family == "ab_bipartite", iseed)
            defect = _run_pipeline(graph, default_p(n), sseed)
            wins += defect == 0
        rows.append({"family": family, "n": n, "surplus": surplus,
                     "trials": trials,
                     "success_fraction": wins / trials})
    return rows
