"""The two benchmark workloads: their inputs, requests and output checks.

Every input comes from the workload seed.  A request is a fixed sequence of
`rainbowmatch.cli.main` calls, with argv lists as a user of the command line
would give them; the program sees only the generated inputs.  A run cycles
through a small pool of distinct requests, so each request repeats and the
repeats' report bytes can be compared.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional


def derive(*parts: object) -> int:
    """A 63-bit seed from a label path, independent of the package's own."""
    digest = hashlib.blake2b("/".join(map(str, parts)).encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big") >> 1


@dataclass
class Instance:
    n_colors: int
    edges: Counter               # (min(u, v), max(u, v), c) -> multiplicity

    @classmethod
    def parse(cls, data: bytes) -> "Instance":
        doc = json.loads(data)
        return cls(doc["n_colors"],
                   Counter((min(u, v), max(u, v), c) for u, v, c in doc["edges"]))


# verdict(report, instance) -> (failure reason or None, colours missing)
Verdict = Callable[[dict, Optional[Instance]], tuple[Optional[str], int]]


@dataclass(frozen=True)
class Step:
    argv: tuple[str, ...]        # one cli.main call
    instance: Optional[Path] = None  # the file the report is about
    verdict: Optional[Verdict] = None  # None: the report is not checked


@dataclass(frozen=True)
class Request:
    key: str                     # repeats of one request share the key
    steps: tuple[Step, ...]


def check_matching(doc: dict, inst: Instance) -> tuple[Optional[str], int]:
    """(None, defect) when the report holds a valid rainbow matching of inst."""
    used_v: set[int] = set()
    used_c: set[int] = set()
    taken: Counter = Counter()
    defect = inst.n_colors - len(doc["matching"])
    for u, v, c in doc["matching"]:
        key = (min(u, v), max(u, v), c)
        taken[key] += 1
        if taken[key] > inst.edges[key]:
            return f"[{u}, {v}, {c}] is not an instance edge", defect
        if u in used_v or v in used_v:
            return f"[{u}, {v}, {c}] shares a vertex", defect
        if c in used_c:
            return f"colour {c} is used twice", defect
        used_v.update((u, v))
        used_c.add(c)
    if doc["size"] != len(doc["matching"]) or doc["defect"] != defect:
        return (f"size {doc['size']} / defect {doc['defect']} disagree with the matching",
                defect)
    return None, defect


def certified(optimum: int) -> Verdict:
    def verdict(doc, inst):
        reason, defect = check_matching(doc, inst)
        if reason is None and (doc["optimal"] is not True or doc["size"] != optimum):
            reason = (f"expected a certified optimum of {optimum}, got size "
                      f"{doc['size']} optimal={doc['optimal']}")
        return reason, defect
    return verdict


def grinblat_cell(n: int) -> Verdict:
    def verdict(doc, inst):
        cells = doc["cells"]
        if len(cells) != 1 or cells[0]["pass"] is not True:
            return "grinblat_weak cell did not pass", 0
        # margin = size - (n - isqrt(n)), so n - size = isqrt(n) - margin
        return None, math.isqrt(n) - int(cells[0]["margin"])
    return verdict


def _generate(cli, path: Path, *args: str) -> None:
    rc = cli.main(["generate", *args, "-o", str(path)])
    if rc != 0:
        raise RuntimeError(f"generate {' '.join(args)} exited {rc}")


class Workload:
    """Base: a pool of requests, on input files written at set-up."""

    name = ""
    why = ""
    setups: int        # set-ups per run; set-up time is their median
    pool_size = 4

    def __init__(self, seed: int):
        self.seed = seed

    def _seed(self, *parts: object) -> str:
        return str(derive(self.name, self.seed, *parts))

    def build(self, cli, directory: Path) -> list[Path]:
        """Write this run's input files; returns them."""
        return []

    def pool(self, directory: Path) -> list[Request]:
        raise NotImplementedError


class GeneratorBound(Workload):
    """Per request: one grinblat_weak verify cell, then generate a random
    Latin square and solve it with the sampling solver."""

    name = "generator_bound"
    why = ("grinblat_weak n=400 verify cell, then generate latin_random n=32 and "
           "sampling-solve it; folds clique_verify and latin_generate_solve, too "
           "noisy apart in 20 s runs")
    setups = 21        # a set-up is the package import alone, ~50 ms
    GRINBLAT_N = 400
    LATIN_N = 32

    def pool(self, directory):
        out = []
        for k in range(self.pool_size):
            path = directory / f"latin-{k}.json"
            out.append(Request(f"request-{k}", (
                Step(("verify", "--theorem", "grinblat_weak", "--n", str(self.GRINBLAT_N),
                      "--trials", "1", "--seed", self._seed("verify", k)),
                     verdict=grinblat_cell(self.GRINBLAT_N)),
                Step(("generate", "--family", "latin_random", "--n", str(self.LATIN_N),
                      "--seed", self._seed("latin", k), "-o", str(path))),
                Step(("solve", "--solver", "sampling", "--seed", self._seed("sampling", k),
                      str(path)),
                     instance=path, verdict=check_matching),
            )))
        return out


class SolverBound(Workload):
    """Per request: the sampling, alspach and exact solvers, each on a file
    written at set-up."""

    name = "solver_bound"
    why = ("ab_bipartite n=128 surplus 0 sampling solve, ~9 MB circulant d=300 "
           "alspach solve, order-10 cyclic isotope exact solve; folds "
           "matching_tight_solve, two_factor_solve, oracle_certify")
    setups = 3         # a set-up writes ~10 MB; three keep the run in budget
    AB_N = 128
    D = 300
    # 2d + ceil(d^0.8) <= V < 4d runs the nibble path; a narrow window keeps
    # file size and request cost alike across seeds
    V_LOW = 2 * D + math.ceil(D ** 0.8)
    V_HIGH = V_LOW + 48
    LATIN_N = 10       # the cyclic square of this order has no transversal

    def build(self, cli, directory):
        paths = []
        for k in range(self.pool_size):
            path = directory / f"ab-{k}.json"
            _generate(cli, path, "--family", "ab_bipartite", "--n", str(self.AB_N),
                      "--extra", "0", "--seed", self._seed("ab", k))
            paths.append(path)
        v = random.Random(int(self._seed("vertices"))).randrange(self.V_LOW, self.V_HIGH)
        path = directory / "circulant.json"
        _generate(cli, path, "--family", "circulant_two_factor",
                  "--d", str(self.D), "--extra", str(v - 2 * self.D - 1))
        paths.append(path)
        return paths + self._isotopes(directory)

    def _isotopes(self, directory):
        """Row, column and symbol relabellings of Z_n's table, edges shuffled."""
        generators = importlib.import_module("rainbowmatch.generators")
        graph_mod = importlib.import_module("rainbowmatch.graph")
        n = self.LATIN_N
        cyclic = generators.gen_latin(n, "cayley")
        paths = []
        for k in range(self.pool_size):
            rng = random.Random(int(self._seed("isotope", k)))
            rows, cols, syms = (rng.sample(range(n), n) for _ in range(3))
            edges = [(rows[u], n + cols[v - n], syms[c]) for u, v, c in cyclic.edges]
            rng.shuffle(edges)
            iso = graph_mod.ColoredMultigraph(2 * n, n, edges, sides=cyclic.sides)
            path = directory / f"isotope-{k}.json"
            graph_mod.save_instance(iso, str(path), graph_mod.ColorClassKind.MATCHING)
            paths.append(path)
        return paths

    def pool(self, directory):
        circulant = directory / "circulant.json"
        out = []
        for k in range(self.pool_size):
            ab, iso = directory / f"ab-{k}.json", directory / f"isotope-{k}.json"
            out.append(Request(f"request-{k}", (
                Step(("solve", "--solver", "sampling", "--seed", self._seed("sampling", k),
                      str(ab)),
                     instance=ab, verdict=check_matching),
                Step(("solve", "--solver", "alspach", "--seed", self._seed("alspach", k),
                      str(circulant)),
                     instance=circulant, verdict=check_matching),
                Step(("solve", "--solver", "exact", "--seed", self._seed("exact", k),
                      str(iso)),
                     instance=iso, verdict=certified(self.LATIN_N - 1)),
            )))
        return out


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (GeneratorBound, SolverBound)}
