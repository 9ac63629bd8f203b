"""The layer boundaries the traced run wraps.

A site is the module attribute a caller looks the function up by at call
time, so a function imported into several modules is wrapped once per
importing module.  Counters are read from arguments and return values only.
The end-to-end metric each layer should move is mapped in NOTES.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

# counters(args, kwargs, result) -> {counter name: number}
Counters = Callable[[tuple, dict, object], dict]


@dataclass(frozen=True)
class Layer:
    name: str                      # span name, "<module>.<function>"
    sites: tuple[tuple[str, str], ...]  # (module, attribute path)
    counters: Optional[Counters] = None
    # derived per-layer metrics besides self_ms: suffix -> (unit, how)
    # how is "median" (per-request sum, median over requests) or
    # "ratio:<num>/<den>" (summed over the run's traced requests)
    metrics: dict = field(default_factory=dict)


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _edges(args, kwargs, result):
    return {"edges": len(args[0].edges)}


def _restrict(args, kwargs, result):
    return {"calls": 1}


def _complete(args, kwargs, result):
    matching, _stuck = result
    return {"placed": len(matching), "asked": len(set(_arg(args, kwargs, 1, "missing")))}


def _augment(args, kwargs, result):
    matching, exhausted = result
    gain = len(matching) - len(_arg(args, kwargs, 1, "matching"))
    return {"calls": 1, "gain": gain, "useful": int(gain > 0),
            "exhausted": int(exhausted)}


def _attempts(args, kwargs, result):
    return {"attempts": len(result.seeds_used)}


def _nibble(args, kwargs, result):
    hyper = _arg(args, kwargs, 0, "h")
    return {"triples": len(result), "colours": len(hyper.color_degree)}


def _exact(args, kwargs, result):
    return {"calls": 1, "certified": int(result[2])}


_SOLVERS = "rainbowmatch.solvers"
_SAMPLING = f"{_SOLVERS}.sampling"
_TWO_FACTOR = f"{_SOLVERS}.two_factor"

LAYERS: tuple[Layer, ...] = (
    Layer("generators.gen_grinblat",
          (("rainbowmatch.verification", "gen_grinblat"),)),
    Layer("generators.gen_latin",
          (("rainbowmatch.generators", "gen_latin"),)),
    Layer("generators.gen_ab",
          (("rainbowmatch.generators", "gen_ab"),)),
    Layer("generators.gen_two_factorized",
          (("rainbowmatch.generators", "gen_two_factorized"),)),
    Layer("graph.rebuild_indices",
          (("rainbowmatch.graph", "ColoredMultigraph.rebuild_indices"),),
          counters=_edges, metrics={"edges": ("count", "median")}),
    Layer("graph.load_instance",
          (("rainbowmatch.cli", "load_instance"),)),
    Layer("graph.save_instance",
          (("rainbowmatch.cli", "save_instance"),
           ("rainbowmatch.graph", "save_instance"))),
    Layer("graph.restrict_with_map",
          ((_SAMPLING, "restrict_with_map"), (_TWO_FACTOR, "restrict_with_map")),
          counters=_restrict, metrics={"calls": ("count", "median")}),
    Layer("graph.draw_sample_split",
          ((_SAMPLING, "draw_sample_split"), (_TWO_FACTOR, "draw_sample_split"))),
    Layer("graph.validate",
          ((_TWO_FACTOR, "validate"),)),
    Layer("solvers.greedy.greedy_maximal",
          (("rainbowmatch.verification", "greedy_maximal"),
           (_SAMPLING, "greedy_maximal"), (_TWO_FACTOR, "greedy_maximal"),
           (f"{_SOLVERS}.exact", "greedy_maximal"))),
    Layer("solvers.greedy.try_complete",
          ((_SAMPLING, "try_complete"), (_TWO_FACTOR, "try_complete")),
          counters=_complete,
          metrics={"placed_frac": ("ratio", "ratio:placed/asked")}),
    Layer("solvers.augment.augment_flagged",
          ((_SAMPLING, "augment_flagged"), (_TWO_FACTOR, "augment_flagged"),
           (f"{_SOLVERS}.augment", "augment_flagged")),
          counters=_augment,
          metrics={"gain": ("colours", "ratio:gain/calls"),
                   "useful_frac": ("ratio", "ratio:useful/calls"),
                   "exhausted_frac": ("ratio", "ratio:exhausted/calls")}),
    Layer("solvers.sampling.sampling_solve",
          (("rainbowmatch.cli", "sampling_solve"),),
          counters=_attempts, metrics={"attempts": ("count", "median")}),
    Layer("solvers.two_factor.alspach_solve",
          (("rainbowmatch.cli", "alspach_solve"),),
          counters=_attempts, metrics={"attempts": ("count", "median")}),
    Layer("solvers.hypergraph.build_aux_hypergraph",
          ((_TWO_FACTOR, "build_aux_hypergraph"),)),
    Layer("solvers.hypergraph.nibble_match",
          ((_TWO_FACTOR, "nibble_match"),),
          counters=_nibble,
          metrics={"cover_frac": ("ratio", "ratio:triples/colours")}),
    Layer("solvers.exact.exact_max_rainbow",
          (("rainbowmatch.cli", "exact_max_rainbow"),),
          counters=_exact,
          metrics={"certified_frac": ("ratio", "ratio:certified/calls")}),
    Layer("verification.check",
          (("rainbowmatch.cli", "check"),)),
    Layer("cli.main",
          (("rainbowmatch.cli", "main"),)),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for layer in LAYERS:
        units[f"{layer.name}.self_ms"] = "ms"
        for suffix, (unit, _how) in layer.metrics.items():
            units[f"{layer.name}.{suffix}"] = unit
    units["trace.overhead_frac"] = "ratio"
    return units
