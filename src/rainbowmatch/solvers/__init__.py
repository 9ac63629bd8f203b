from .greedy import greedy_maximal
from .augment import AugmentConfig, augment
from .sampling import SamplingConfig, SolveReport, sampling_solve
from .hypergraph import AuxHypergraph, build_aux_hypergraph, nibble_match
from .two_factor import alspach_solve
from .expander import expander_matching, edge_disjoint_matchings
from .reduce import orient_bipartition_reduce, BipartiteReduction
from .exact import exact_max_rainbow

__all__ = [
    "greedy_maximal",
    "AugmentConfig", "augment",
    "SamplingConfig", "SolveReport", "sampling_solve",
    "AuxHypergraph", "build_aux_hypergraph", "nibble_match",
    "alspach_solve",
    "expander_matching", "edge_disjoint_matchings",
    "orient_bipartition_reduce", "BipartiteReduction",
    "exact_max_rainbow",
]
