"""Theorem-level checkers: generator + solver + assertion, with margins.

Each checker runs `trials` seeded experiments per parameter value and records
one cell per (n, trial) — failures are data, not exceptions.  Every cell
carries the instance and solver seeds needed to replay it standalone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from .errors import AugmentationStalled, HypothesisViolated
from .generators import (gen_ab, gen_grinblat, gen_latin, gen_multiplicity_lb,
                         gen_triangle_lb, gen_two_factorized, gen_two_k4)
from .graph import ColoredMultigraph, is_rainbow_matching
from .seeding import derive_seed
from .solvers import (alspach_solve, default_p, edge_disjoint_matchings,
                      exact_max_rainbow, expander_matching, greedy_maximal,
                      orient_bipartition_reduce, sampling_solve)

# nodes per certification cell, so "certified" depends on the instance alone;
# >= 500x the most a default cell needs (32, the order-6 cyclic square)
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


Checker = Callable[[int, int, int], tuple[bool, float]]  # (n, iseed, sseed)


# sweep's family id -> (instance(n, surplus, seed, cap), split probability
# p(n)): the strong pipeline that `sweep` and the strong checkers run.  cap
# is grinblat's pair multiplicity cap; None means n, which never binds.
# The lambdas look gen_* up at call time, so a wrapper installed on this
# module sees every call.
PIPELINES: dict[str, tuple[Callable[..., ColoredMultigraph], Callable[[int], float]]] = {
    "ab_bipartite": (lambda n, surplus, seed, cap: gen_ab(n, surplus, True, seed),
                     default_p),
    "ab_general": (lambda n, surplus, seed, cap: gen_ab(n, surplus, False, seed),
                   lambda n: min(0.5, 7 * n ** (-1 / 16))),
    "grinblat": (lambda n, surplus, seed, cap: gen_grinblat(
                     n, 3 * n + surplus, n if cap is None else cap, seed),
                 default_p),
}


def _pipeline_defect(family: str, n: int, surplus: int, iseed: int, sseed: int,
                     cap: Optional[int] = None) -> int:
    """Defect of `family`'s strong pipeline on one seeded instance."""
    make, p = PIPELINES[family]
    graph = make(n, surplus, iseed, cap)
    return sampling_solve(graph, p(n), sseed).defect


def _strong(family: str, surplus: Callable[[int], int],
            cap: Optional[Callable[[int], int]] = None) -> Checker:
    """Checker: `family`'s strong pipeline reaches defect 0 at surplus(n)."""
    def checker(n: int, iseed: int, sseed: int) -> tuple[bool, float]:
        defect = _pipeline_defect(family, n, surplus(n), iseed, sseed,
                                  None if cap is None else cap(n))
        return defect == 0, float(-defect)
    return checker


def _oracle(make: Callable[[int, int], ColoredMultigraph],
            want: Callable[[int], int] = lambda n: n - 1, offset: int = 1) -> Checker:
    """Checker: within ORACLE_NODE_BUDGET nodes the oracle certifies that
    make(n, iseed) has optimum want(n); the margin is (n - offset) - optimum.
    An uncertified search gives (False, nan): inconclusive, never a pass."""
    def checker(n: int, iseed: int, sseed: int) -> tuple[bool, float]:
        size, _, certified = exact_max_rainbow(make(n, iseed),
                                               node_budget=ORACLE_NODE_BUDGET)
        if not certified:
            return False, math.nan
        return size == want(n), float((n - offset) - size)
    return checker


def _check_grinblat_weak(n: int, iseed: int, sseed: int) -> tuple[bool, float]:
    graph = gen_grinblat(n, 3 * n, n, iseed)
    size = len(greedy_maximal(graph))
    floor_bound = n - math.isqrt(n)
    return size >= floor_bound, float(size - floor_bound)


def _check_alspach(d: int, iseed: int, sseed: int) -> tuple[bool, float]:
    extra = max(0, math.ceil(d ** 0.8) - 1)  # n_vertices = 2d + ceil(d^0.8)
    graph = gen_two_factorized(d, "circulant", extra, iseed)
    report = alspach_solve(graph, seed=sseed)
    return report.defect == 0, float(-report.defect)


def _disjoint_matchings(graph: ColoredMultigraph, solve: Callable, target: int,
                        floor: int) -> tuple[bool, float]:
    """solve(graph) gives `target` edge-disjoint matchings of >= floor edges each,
    with margin smallest size - floor; a stalled expander gives (False, nan)."""
    try:
        matchings = solve(graph)
    except (HypothesisViolated, AugmentationStalled):
        return False, math.nan
    ids = [eid for m in matchings for eid in m]
    margin = min(map(len, matchings), default=0) - floor
    return (len(matchings) == target and len(set(ids)) == len(ids) and margin >= 0
            and all(len({x for e in m for x in graph.edges[e][:2]}) == 2 * len(m)
                    for m in matchings)), float(margin)


def _check_expander(n: int, iseed: int, sseed: int) -> tuple[bool, float]:
    m = math.ceil(n * n / 1000)
    return _disjoint_matchings(gen_grinblat(n, 2 * n + 2 * m, m, iseed),
                               lambda g: [expander_matching(g)], 1, n)


def _check_edge_disjoint(n: int, iseed: int, sseed: int) -> tuple[bool, float]:
    spread, target = math.ceil(n ** 0.75), math.ceil(n ** 0.25)
    return _disjoint_matchings(gen_grinblat(n, 2 * n + 2 + spread, 1, iseed),
                               lambda g: edge_disjoint_matchings(g, target),
                               target, n - spread)


def _check_reduction(d: int, iseed: int, sseed: int) -> tuple[bool, float]:
    graph = gen_two_factorized(d, "circulant", 4, iseed)
    reduction = orient_bipartition_reduce(graph, sseed)
    lifted = reduction.lift(greedy_maximal(reduction.graph))
    return is_rainbow_matching(graph, lifted)[0], float(len(lifted))


def _two_k4(n: int, iseed: int) -> ColoredMultigraph:
    if n != 3:
        raise ValueError(f"two_k4_lb has only n = 3, got {n}")
    return gen_two_k4()


class Theorem(NamedTuple):
    sizes: list[int]     # desk-scale default n values
    trials: int          # default trials per n
    assertion: str
    checker: Checker
    seeded: bool = True  # False: the checker reads neither cell seed


THEOREMS: dict[str, Theorem] = {
    "grinblat_weak": Theorem(
        [25, 100, 400], 50, "greedy maximal size >= n - floor(sqrt(n)) on (n,3n)",
        _check_grinblat_weak),
    "grinblat_strong": Theorem(
        [64, 100], 50, "defect 0 with surplus ceil(40 n^0.75)",
        _strong("grinblat", lambda n: math.ceil(40 * n ** 0.75))),
    "ab_bipartite_strong": Theorem(
        [64, 256], 50, "defect 0 with surplus ceil(7 n^0.75), bipartite",
        _strong("ab_bipartite", lambda n: math.ceil(7 * n ** 0.75))),
    "ab_general_strong": Theorem(
        [64, 100], 50, "defect 0 with surplus ceil(n^0.95), general",
        _strong("ab_general", lambda n: math.ceil(n ** 0.95))),
    "grinblat_multiplicity": Theorem(
        [64, 100], 50, "defect 0 with surplus ceil(n^0.9), m = ceil(n/10)",
        _strong("grinblat", lambda n: math.ceil(n ** 0.9),
                cap=lambda n: math.ceil(n / 10))),
    "alspach_strong": Theorem(
        [10, 20, 40], 20, "defect 0 on circulants with 2d + ceil(d^0.8) vertices",
        _check_alspach),
    "triangle_lb": Theorem(
        [4, 5, 6, 7, 8, 9, 10], 1, "certified oracle optimum = n - 1",
        _oracle(lambda n, iseed: gen_triangle_lb(n)), seeded=False),
    "multiplicity_lb": Theorem(
        [21], 1, "certified oracle optimum = n - 1 (d = 2 blocks)",
        _oracle(lambda n, iseed: gen_multiplicity_lb(n, 2, iseed))),
    # margin n - optimum: the colours no rainbow matching covers
    "two_k4_lb": Theorem([3], 1, "certified oracle optimum = 2 < 3",
                         _oracle(_two_k4, offset=0), seeded=False),
    # margin n - optimum again: 0 at odd n, where the square has a transversal
    "latin_optimum": Theorem(
        [3, 4, 5, 6, 7], 1, "cyclic square: certified optimum = n at odd n, else n - 1",
        _oracle(lambda n, iseed: gen_latin(n), lambda n: n - 1 + n % 2, offset=0),
        seeded=False),
    "expander_full": Theorem([20, 50, 100], 20, "a matching of >= n edges on "
                             "(n, 2n + 2m), m = ceil(n^2/1000)", _check_expander),
    "edge_disjoint": Theorem([16, 81], 5, "ceil(n^0.25) edge-disjoint matchings of >= "
                             "n - ceil(n^0.75) edges on (n, 2n + 2 + ceil(n^0.75))",
                             _check_edge_disjoint),
    # margin: the size of the lifted matching
    "reduction_lift": Theorem([10], 50, "greedy on the bipartite reduction of a "
                              "circulant lifts to a rainbow matching", _check_reduction),
}


def _check_domain(n_values: list[int], trials: int) -> None:
    """Refuse a grid that checks nothing, repeats a cell or feeds a checker a
    size below 1."""
    if not n_values:
        raise ValueError("no n values given")
    if any(n < 1 for n in n_values):
        raise ValueError(f"n must be at least 1, got {min(n_values)}")
    if len(set(n_values)) < len(n_values):
        raise ValueError(f"n values must be distinct, got {n_values}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


def check(theorem_id: str, n_values: Optional[list[int]] = None,
          trials: Optional[int] = None, seed: int = 0) -> TheoremCheck:
    """Run one theorem checker over its (n, trial) grid.

    n_values/trials of None take the desk-scale table's defaults.  Every cell
    is recorded; a failing or inconclusive trial never raises.
    """
    if theorem_id not in THEOREMS:
        raise ValueError(f"unknown theorem id {theorem_id!r}; "
                         f"known: {', '.join(THEOREMS)}")
    theorem = THEOREMS[theorem_id]
    ns = list(theorem.sizes if n_values is None else n_values)
    t = theorem.trials if trials is None else trials
    _check_domain(ns, t)
    if t > 1 and not theorem.seeded:  # every trial would replay one cell
        raise ValueError(f"{theorem_id} reads no seed: trials must be 1, got {t}")
    result = TheoremCheck(theorem_id)
    for n in ns:
        for trial in range(t):
            iseed, sseed = (derive_seed(seed, theorem_id, n, trial, part)
                            for part in ("instance", "solver"))
            passed, margin = theorem.checker(n, iseed, sseed)
            result.cells.append(CheckCell(n=n, trial=trial, passed=passed,
                                          margin=margin, instance_seed=iseed,
                                          solver_seed=sseed))
    result.cells.sort(key=lambda c: (c.n, c.trial))
    return result


def sweep_surplus(family: str, n: int, surplus_values: list[int],
                  trials: int, seed: int = 0) -> list[dict]:
    """Raw defect-0 fractions of the strong pipeline across surplus values."""
    if family not in PIPELINES:
        raise ValueError(f"family {family!r} has no surplus parameter; "
                         f"known: {', '.join(PIPELINES)}")
    _check_domain([n], trials)
    if not surplus_values:
        raise ValueError("no surplus values given")
    if len(set(surplus_values)) < len(surplus_values):
        raise ValueError(f"surplus values must be distinct, got {surplus_values}")
    rows = []
    for surplus in surplus_values:
        wins = 0
        for trial in range(trials):
            iseed = derive_seed(seed, "sweep", family, n, surplus, trial, "instance")
            sseed = derive_seed(seed, "sweep", family, n, surplus, trial, "solver")
            wins += _pipeline_defect(family, n, surplus, iseed, sseed) == 0
        rows.append({"family": family, "n": n, "surplus": surplus,
                     "trials": trials,
                     "success_fraction": wins / trials})
    return rows
