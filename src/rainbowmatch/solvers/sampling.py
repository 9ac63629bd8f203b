"""The sampling trick as one pipeline: draw a random vertex sample, solve
weakly outside it, greedily place the missing colors inside it, and repair
with a whole-graph augment when a color gets stuck; resample a bounded number
of times and keep the best matching.

sample_and_complete is that skeleton, taking the weak solver and p as inputs.
sampling_solve plugs in greedy + augment on the rest (Aharoni–Berger,
Grinblat), whose paths stop at WEAK_MAX_DEPTH (5) edges while the repair's
go to augment.MAX_DEPTH (9); two_factor.alspach_solve plugs in the
auxiliary-hypergraph nibble.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..graph import (ColoredMultigraph, RainbowMatching, SampleSplit,
                     draw_sample_split, restrict_with_map)
from ..seeding import derive_seed
from .augment import augment_flagged
from .greedy import greedy_maximal, try_complete

PhaseLog = list[tuple[str, int, int]]

# attempts per solve, each with a fresh sample
MAX_RESAMPLES = 5
# the weak solve's longest augmenting path, in edges.  In BENCH_26.json's
# yield table it spent 96 % of its nodes on latin_random and at small surplus
# at depths 7 and 9, finding no path there; its few such paths at large
# surplus are colours that completion places anyway (defect 0 either way)
WEAK_MAX_DEPTH = 5


def default_p(n_colors: int) -> float:
    """Split probability min(1/2, 2 n^(-1/4)) for n colors; 1/2 without colors."""
    return min(0.5, 2.0 * n_colors ** -0.25) if n_colors > 0 else 0.5


@dataclass
class SolveReport:
    matching: RainbowMatching
    n_colors: int
    phase_log: PhaseLog = field(default_factory=list)
    seeds_used: list[int] = field(default_factory=list)
    optimal: Optional[bool] = None
    seed: int = 0  # the caller's seed, from which every seed in seeds_used derives

    @classmethod
    def single_phase(cls, phase: str, matching: RainbowMatching, n_colors: int,
                     seed: int, optimal: Optional[bool] = None) -> SolveReport:
        """Report of a solver that built one matching in one phase."""
        return cls(matching=matching, n_colors=n_colors,
                   phase_log=[(phase, 0, len(matching))], seeds_used=[seed],
                   optimal=optimal, seed=seed)

    @property
    def defect(self) -> int:
        return self.n_colors - len(self.matching.colors())

    @property
    def missing_colors(self) -> list[int]:
        return sorted(set(range(self.n_colors)) - self.matching.colors())

    def to_json_dict(self, graph: ColoredMultigraph, elapsed_ms: int) -> dict:
        return {
            "size": len(self.matching),
            "defect": self.defect,
            "missing_colors": self.missing_colors,
            "matching": self.matching.as_edge_list(graph),
            "phases": [list(p) for p in self.phase_log],
            "seed": self.seed,
            "elapsed_ms": elapsed_ms,
            "optimal": self.optimal,
        }


def _lift(pairs: list[tuple[int, int]], edge_map: list[int]) -> list[tuple[int, int]]:
    return [(edge_map[eid], c) for eid, c in pairs]


def sample_and_complete(
        graph: ColoredMultigraph, p: float,
        weak: Callable[[ColoredMultigraph, SampleSplit, int, PhaseLog],
                       list[tuple[int, int]]],
        seed: int) -> SolveReport:
    """Run split / weak solve / complete / repair with bounded resampling.

    weak(graph, split, seed, log) solves outside split.sample and returns its
    pairs in graph edge ids.  Attempt i uses derive_seed(seed, "attempt", i).
    Resamples until the matching is full or MAX_RESAMPLES attempts are spent;
    the first matching with the most colors is reported.
    """
    if not (0 < p < 1):
        raise ValueError("p must lie strictly between 0 and 1")
    log: PhaseLog = []
    seeds: list[int] = []
    best = RainbowMatching()
    for attempt in range(MAX_RESAMPLES):
        sub_seed = derive_seed(seed, "attempt", attempt)
        seeds.append(sub_seed)
        split = draw_sample_split(graph, p, derive_seed(sub_seed, "split"))
        pairs = weak(graph, split, sub_seed, log)

        missing = set(range(graph.n_colors)) - {c for _, c in pairs}
        sample_graph, sample_map = restrict_with_map(graph, split.sample)
        completion, stuck = try_complete(sample_graph, missing)
        combined = RainbowMatching(pairs=pairs + _lift(completion.pairs, sample_map))
        log.append(("complete", len(pairs), len(combined)))

        if stuck is not None:
            before = len(combined)
            combined, _ = augment_flagged(graph, combined,
                                          derive_seed(sub_seed, "repair"))
            log.append(("repair_augment", before, len(combined)))

        if len(combined.colors()) > len(best.colors()):
            best = combined
        if len(best.colors()) == graph.n_colors:
            break
    return SolveReport(matching=best, n_colors=graph.n_colors, phase_log=log,
                       seeds_used=seeds, seed=seed)


def _greedy_augment(graph: ColoredMultigraph, split: SampleSplit, seed: int,
                    log: PhaseLog) -> list[tuple[int, int]]:
    """Weak solver: scarcest-color greedy, then augment, on the rest."""
    rest_graph, rest_map = restrict_with_map(graph, split.rest)
    matching = greedy_maximal(rest_graph)
    log.append(("weak_greedy", 0, len(matching)))
    before = len(matching)
    matching, _ = augment_flagged(rest_graph, matching, derive_seed(seed, "augment"),
                                  max_depth=WEAK_MAX_DEPTH)
    log.append(("weak_augment", before, len(matching)))
    return _lift(matching.pairs, rest_map)


def sampling_solve(graph: ColoredMultigraph, p: float, seed: int = 0) -> SolveReport:
    """Sampling trick with greedy + augment as the weak solver."""
    return sample_and_complete(graph, p, _greedy_augment, seed)
