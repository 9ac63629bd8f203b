"""Sampling-trick meta-solver: weak-solve outside a random vertex sample,
then greedily place the missing colors inside it."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional

from ..graph import (ColoredMultigraph, RainbowMatching,
                     draw_sample_split, restrict_with_map)
from ..seeding import derive_seed
from .augment import AugmentConfig, augment_flagged
from .greedy import greedy_maximal, try_complete


@dataclass
class SamplingConfig:
    p: float = 0.5
    weak_solver: str = "greedy+augment"  # or "greedy"
    max_resamples: int = 5
    seed: int = 0
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    repair: bool = True  # final whole-graph augmentation when defect remains


@dataclass
class SolveReport:
    matching: RainbowMatching
    n_colors: int
    phase_log: list[tuple[str, int, int]] = field(default_factory=list)
    elapsed: float = 0.0
    seeds_used: list[int] = field(default_factory=list)
    budget_exhausted: bool = False
    optimal: Optional[bool] = None

    @property
    def defect(self) -> int:
        return self.n_colors - len(self.matching.colors())

    @property
    def missing_colors(self) -> list[int]:
        return sorted(set(range(self.n_colors)) - self.matching.colors())

    def to_json_dict(self, graph: ColoredMultigraph) -> dict:
        return {
            "size": len(self.matching),
            "defect": self.defect,
            "missing_colors": self.missing_colors,
            "matching": self.matching.as_edge_list(graph),
            "phases": [list(p) for p in self.phase_log],
            "seed": self.seeds_used[0] if self.seeds_used else 0,
            "elapsed_ms": int(self.elapsed * 1000),
            "optimal": self.optimal,
        }


def _lift(pairs: list[tuple[int, int]], edge_map: list[int]) -> list[tuple[int, int]]:
    return [(edge_map[eid], c) for eid, c in pairs]


def _one_attempt(graph: ColoredMultigraph, cfg: SamplingConfig, seed: int,
                 log: list[tuple[str, int, int]]) -> tuple[RainbowMatching, bool]:
    split = draw_sample_split(graph, cfg.p, derive_seed(seed, "split"))
    rest_graph, rest_map = restrict_with_map(graph, split.rest)

    weak = greedy_maximal(rest_graph, "rare_color_first", derive_seed(seed, "greedy"))
    log.append(("weak_greedy", 0, len(weak)))
    exhausted = False
    if cfg.weak_solver == "greedy+augment":
        before = len(weak)
        aug_cfg = replace(cfg.augment, seed=derive_seed(seed, "augment"))
        weak, exhausted = augment_flagged(rest_graph, weak, aug_cfg)
        log.append(("weak_augment", before, len(weak)))

    pairs = _lift(weak.pairs, rest_map)
    missing = set(range(graph.n_colors)) - {c for _, c in pairs}
    sample_graph, sample_map = restrict_with_map(graph, split.sample)
    completion, stuck = try_complete(sample_graph, missing)
    pairs = pairs + _lift(completion.pairs, sample_map)
    log.append(("complete", len(weak), len(pairs)))
    combined = RainbowMatching(pairs=pairs)

    if stuck is not None and cfg.repair:
        before = len(combined)
        aug_cfg = replace(cfg.augment, seed=derive_seed(seed, "repair"))
        combined, rex = augment_flagged(graph, combined, aug_cfg)
        exhausted = exhausted or rex
        log.append(("repair_augment", before, len(combined)))
    return combined, exhausted


def sampling_solve(graph: ColoredMultigraph, cfg: SamplingConfig) -> SolveReport:
    """Run the sample / weak-solve / complete pipeline with bounded resampling.

    Resamples with fresh derived seeds until the matching is full or
    max_resamples attempts are spent; the best matching found is reported.
    """
    if not (0 < cfg.p < 1):
        raise ValueError("p must lie strictly between 0 and 1")
    start = time.perf_counter()
    log: list[tuple[str, int, int]] = []
    seeds: list[int] = []
    best: Optional[RainbowMatching] = None
    exhausted = False
    for attempt in range(max(1, cfg.max_resamples)):
        seed = derive_seed(cfg.seed, "attempt", attempt)
        seeds.append(seed)
        matching, ex = _one_attempt(graph, cfg, seed, log)
        exhausted = exhausted or ex
        if best is None or len(matching.colors()) > len(best.colors()):
            best = matching
        if len(best.colors()) == graph.n_colors:
            break
    assert best is not None
    return SolveReport(matching=best, n_colors=graph.n_colors, phase_log=log,
                       elapsed=time.perf_counter() - start, seeds_used=seeds,
                       budget_exhausted=exhausted)
