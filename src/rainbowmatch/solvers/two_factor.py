"""Full rainbow matchings in 2-factorized graphs.

Plenty of vertices (>= 4d) makes the greedy argument go through directly; the
tight regime runs the sampling pipeline with p = 1 - 2d/n, finding a
near-perfect matching of the auxiliary hypergraph outside the sample and
completing the missing colors inside it.
"""

from __future__ import annotations

import time

from ..errors import NotTwoFactorized
from ..graph import ColoredMultigraph, ColorClassKind, SampleSplit, validate
from ..seeding import derive_seed
from .augment import AugmentConfig
from .greedy import greedy_maximal
from .hypergraph import build_aux_hypergraph, nibble_match
from .sampling import PhaseLog, SolveReport, sample_and_complete

# unused here, kept importable: perfbench/layers.py lists them as sites of this module
from ..graph import draw_sample_split, restrict_with_map  # noqa: F401
from .augment import augment_flagged  # noqa: F401
from .greedy import try_complete  # noqa: F401


def _nibble(graph: ColoredMultigraph, split: SampleSplit, seed: int,
            log: PhaseLog) -> tuple[list[tuple[int, int]], bool]:
    """Weak solver: nibble matching of the auxiliary hypergraph on the rest."""
    aux = build_aux_hypergraph(graph, split.rest)
    triples = nibble_match(aux, seed=derive_seed(seed, "nibble"))
    log.append(("nibble", 0, len(triples)))

    # one representative edge id per matched (x, y, c) triple
    pair_index: dict[tuple[int, int, int], int] = {}
    for eid, (u, v, c) in enumerate(graph.edges):
        key = (min(u, v), max(u, v), c)
        pair_index.setdefault(key, eid)
    return [(pair_index[(min(x, y), max(x, y), c)], c) for x, y, c in triples], False


def alspach_solve(graph: ColoredMultigraph, seed: int = 0,
                  max_resamples: int = 5) -> SolveReport:
    """Rainbow matching using every color of a 2-factorized instance."""
    report = validate(graph, ColorClassKind.TWO_FACTOR)
    if not report.valid:
        raise NotTwoFactorized(f"witnesses: {report.witnesses[:5]}")
    d = graph.n_colors
    if graph.n_vertices <= 2 * d:
        raise NotTwoFactorized("need more than 2d vertices")

    if graph.n_vertices >= 4 * d:
        start = time.perf_counter()
        matching = greedy_maximal(graph, "rare_color_first", derive_seed(seed, "greedy"))
        return SolveReport(matching=matching, n_colors=d,
                           phase_log=[("greedy", 0, len(matching))],
                           elapsed=time.perf_counter() - start, seeds_used=[seed])

    return sample_and_complete(graph, 1.0 - 2.0 * d / graph.n_vertices, _nibble,
                               AugmentConfig(), seed, max_resamples)
