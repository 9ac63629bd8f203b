"""The sampling trick as one pipeline: draw a random vertex sample, solve
weakly outside it, greedily place the missing colors inside it, and repair
with a whole-graph augment when a color gets stuck; resample a bounded number
of times and keep the best matching.

sample_and_complete is that skeleton, taking the weak solver and p as inputs.
sampling_solve plugs in greedy + augment on the rest (Aharoni–Berger,
Grinblat); two_factor.alspach_solve plugs in the auxiliary-hypergraph nibble.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Optional

from ..graph import (ColoredMultigraph, RainbowMatching, SampleSplit,
                     draw_sample_split, restrict_with_map)
from ..seeding import derive_seed
from .augment import AugmentConfig, augment_flagged
from .greedy import greedy_maximal, try_complete

PhaseLog = list[tuple[str, int, int]]


@dataclass
class SamplingConfig:
    p: float = 0.5
    max_resamples: int = 5
    seed: int = 0
    augment: AugmentConfig = field(default_factory=AugmentConfig)


@dataclass
class SolveReport:
    matching: RainbowMatching
    n_colors: int
    phase_log: PhaseLog = field(default_factory=list)
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


def sample_and_complete(
        graph: ColoredMultigraph, p: float,
        weak: Callable[[ColoredMultigraph, SampleSplit, int, PhaseLog],
                       tuple[list[tuple[int, int]], bool]],
        augment_cfg: AugmentConfig, seed: int, max_resamples: int) -> SolveReport:
    """Run split / weak solve / complete / repair with bounded resampling.

    weak(graph, split, seed, log) solves outside split.sample and returns
    (pairs in graph edge ids, whether a node budget ran out).  Attempt i uses
    derive_seed(seed, "attempt", i).  Resamples until the matching is full or
    max_resamples attempts are spent; the first matching with the most colors
    is reported.
    """
    if not (0 < p < 1):
        raise ValueError("p must lie strictly between 0 and 1")
    start = time.perf_counter()
    log: PhaseLog = []
    seeds: list[int] = []
    best = RainbowMatching()
    exhausted = False
    for attempt in range(max(1, max_resamples)):
        sub_seed = derive_seed(seed, "attempt", attempt)
        seeds.append(sub_seed)
        split = draw_sample_split(graph, p, derive_seed(sub_seed, "split"))
        pairs, ex = weak(graph, split, sub_seed, log)
        exhausted = exhausted or ex

        missing = set(range(graph.n_colors)) - {c for _, c in pairs}
        sample_graph, sample_map = restrict_with_map(graph, split.sample)
        completion, stuck = try_complete(sample_graph, missing)
        combined = RainbowMatching(pairs=pairs + _lift(completion.pairs, sample_map))
        log.append(("complete", len(pairs), len(combined)))

        if stuck is not None:
            before = len(combined)
            repair_cfg = replace(augment_cfg, seed=derive_seed(sub_seed, "repair"))
            combined, ex = augment_flagged(graph, combined, repair_cfg)
            exhausted = exhausted or ex
            log.append(("repair_augment", before, len(combined)))

        if len(combined.colors()) > len(best.colors()):
            best = combined
        if len(best.colors()) == graph.n_colors:
            break
    return SolveReport(matching=best, n_colors=graph.n_colors, phase_log=log,
                       elapsed=time.perf_counter() - start, seeds_used=seeds,
                       budget_exhausted=exhausted)


def _greedy_augment(augment_cfg: AugmentConfig, graph: ColoredMultigraph,
                    split: SampleSplit, seed: int,
                    log: PhaseLog) -> tuple[list[tuple[int, int]], bool]:
    """Weak solver: scarcest-color greedy, then augment, on the rest."""
    rest_graph, rest_map = restrict_with_map(graph, split.rest)
    matching = greedy_maximal(rest_graph, "rare_color_first", derive_seed(seed, "greedy"))
    log.append(("weak_greedy", 0, len(matching)))
    before = len(matching)
    aug_cfg = replace(augment_cfg, seed=derive_seed(seed, "augment"))
    matching, exhausted = augment_flagged(rest_graph, matching, aug_cfg)
    log.append(("weak_augment", before, len(matching)))
    return _lift(matching.pairs, rest_map), exhausted


def sampling_solve(graph: ColoredMultigraph, cfg: SamplingConfig) -> SolveReport:
    """Sampling trick with greedy + augment as the weak solver."""
    return sample_and_complete(graph, cfg.p, partial(_greedy_augment, cfg.augment),
                               cfg.augment, cfg.seed, cfg.max_resamples)
