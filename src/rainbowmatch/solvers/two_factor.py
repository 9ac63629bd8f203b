"""Full rainbow matchings in 2-factorized graphs.

The input must have 2-factor color classes, more than 2d vertices and no
vertex pair carrying more than two edges; alspach_solve checks all three once
per instance.  Plenty of vertices (>= 4d) makes the greedy argument go through
directly; the tight regime runs the sampling pipeline with p = 1 - 2d/n,
nibbling a near-perfect matching of the auxiliary hypergraph (the graph edges
outside the sample, by id) and completing the missing colors inside the sample.
"""

from __future__ import annotations

from ..errors import NotTwoFactorized
from ..graph import ColoredMultigraph, ColorClassKind, SampleSplit, validate
from ..seeding import derive_seed
from .greedy import greedy_maximal
from .hypergraph import build_aux_hypergraph, nibble_match
from .sampling import PhaseLog, SolveReport, sample_and_complete

# unused here, kept importable: perfbench/layers.py lists them as sites of this module
from ..graph import draw_sample_split, restrict_with_map  # noqa: F401
from .augment import augment_flagged  # noqa: F401
from .greedy import try_complete  # noqa: F401


def _nibble(graph: ColoredMultigraph, split: SampleSplit, seed: int,
            log: PhaseLog) -> list[tuple[int, int]]:
    """Weak solver: nibble matching of the auxiliary hypergraph on the rest."""
    aux = build_aux_hypergraph(graph, split.rest)
    eids = nibble_match(aux, seed=derive_seed(seed, "nibble"))
    log.append(("nibble", 0, len(eids)))
    return [(eid, graph.edges[eid][2]) for eid in eids]


def alspach_solve(graph: ColoredMultigraph, seed: int = 0) -> SolveReport:
    """Rainbow matching using every color of a 2-factorized instance."""
    report = validate(graph, ColorClassKind.TWO_FACTOR)
    if not report.valid:
        raise NotTwoFactorized("colour classes are not 2-factors; first (colour, "
                               f"vertex) witnesses: {report.witnesses[:5]}")
    d = graph.n_colors
    if graph.n_vertices <= 2 * d:
        raise NotTwoFactorized("need more than 2d vertices")
    multiplicity = graph.max_multiplicity()
    if multiplicity > 2:
        raise NotTwoFactorized(f"a vertex pair carries {multiplicity} edges; "
                               "need at most 2")

    if graph.n_vertices >= 4 * d:
        matching = greedy_maximal(graph)
        return SolveReport.single_phase("greedy", matching, d, seed)

    return sample_and_complete(graph, 1.0 - 2.0 * d / graph.n_vertices, _nibble,
                               seed)
