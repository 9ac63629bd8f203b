"""Rainbow matchings in edge-colored multigraphs: generators, solvers, and
verification harness."""

from .errors import (AugmentationStalled, GenerationStuck, HypothesisViolated,
                     NotCliqueUnion, NotTwoFactorized, ParameterViolation,
                     PoolTooSmall, RainbowError)
from .graph import (CliqueDecomposition, ColorClassKind, ColoredMultigraph,
                    RainbowMatching, SampleSplit, ValidationReport,
                    clique_decompose, draw_sample_split, is_rainbow_matching,
                    load_instance, restrict_with_map, save_instance, validate)
from .generators import (Family, GeneratorSpec, gen_ab, gen_grinblat,
                         gen_latin, gen_multiplicity_lb, gen_triangle_lb,
                         gen_two_factorized, gen_two_k4)
from .seeding import derive_seed
from .solvers import (AugmentConfig, AuxHypergraph, BipartiteReduction,
                      SamplingConfig, SolveReport, alspach_solve, augment,
                      build_aux_hypergraph, edge_disjoint_matchings,
                      exact_max_rainbow, expander_matching, greedy_maximal,
                      nibble_match, orient_bipartition_reduce, sampling_solve)

__version__ = "0.1.0"
