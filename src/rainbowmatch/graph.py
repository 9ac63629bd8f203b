"""Edge-coloured multigraph model and matching primitives.

Vertices and colors are dense 0-based ids.  Edges are identified by their
index into the edge list, so parallel edges of the same color are distinct
objects and pair multiplicities are exact.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, islice
from operator import eq
from typing import Iterable, Optional

from .errors import InvalidInstance


class ColorClassKind(Enum):
    MATCHING = "matching"
    CLIQUE_UNION = "clique_union"
    TWO_FACTOR = "two_factor"
    ARBITRARY = "arbitrary"


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass
class ColoredMultigraph:
    """Immutable edge-coloured multigraph with derived indices.

    edges: list of (u, v, color); parallel edges allowed, loops forbidden.
    sides: optional bipartition tag (0/1 per vertex); bipartiteness is only
    checked when the tag is present.
    """

    n_vertices: int
    n_colors: int
    edges: list[tuple[int, int, int]]
    sides: Optional[list[int]] = None

    # derived indices, rebuilt on construction
    incident: list[list[int]] = field(init=False, repr=False)
    color_edges: list[list[int]] = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_vertices < 0 or self.n_colors < 0:
            raise ValueError("negative vertex or color count")
        if self.sides is not None:
            if len(self.sides) != self.n_vertices:
                raise ValueError("sides tag must cover every vertex")
            if any(type(s) is not int or s not in (0, 1) for s in self.sides):
                raise ValueError("sides tag must be 0 or 1 per vertex")
        self.rebuild_indices()

    def rebuild_indices(self) -> None:
        """Recompute incidence and per-color indices, revalidate edges (idempotent)."""
        self.incident = [[] for _ in range(self.n_vertices)]
        self.color_edges = [[] for _ in range(self.n_colors)]
        nv, nc = self.n_vertices, self.n_colors
        incident, color_edges = self.incident, self.color_edges
        eid = 0
        try:
            for u, v, c in self.edges:
                if u == v or u < 0 or v < 0 or c < 0:
                    self._reject_edge(eid)
                incident[u].append(eid)
                incident[v].append(eid)
                color_edges[c].append(eid)
                eid += 1
        except IndexError:
            self._reject_edge(eid)

    def _reject_edge(self, eid: int) -> None:
        u, v, c = self.edges[eid]
        if u == v:
            raise ValueError(f"edge {eid} is a loop: {(u, v, c)}")
        if 0 <= u < self.n_vertices and 0 <= v < self.n_vertices:
            raise ValueError(f"edge {eid} color out of range: {(u, v, c)}")
        raise ValueError(f"edge {eid} endpoint out of range: {(u, v, c)}")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def max_multiplicity(self) -> int:
        """Most edges on any one vertex pair; 0 without edges.

        The pair keys are sorted once.  A run of m equal keys exists iff some
        key equals the one m - 1 places on, which one C-level scan decides; m
        doubles until no such run exists, then bisection finds the longest.
        """
        n = self.n_vertices
        keys = [u * n + v if u < v else v * n + u for u, v, _ in self.edges]
        if not keys:
            return 0
        keys.sort()

        def has_run(m: int) -> bool:
            return any(map(eq, keys, islice(keys, m - 1, None)))

        lo, hi = 1, 2  # a run of lo exists; of hi, unknown until tested
        while has_run(hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:  # a run of lo exists, none of hi
            mid = (lo + hi) // 2
            if has_run(mid):
                lo = mid
            else:
                hi = mid
        return lo

    def to_json_dict(self, kind: ColorClassKind = ColorClassKind.ARBITRARY) -> dict:
        doc = {
            "n_vertices": self.n_vertices,
            "n_colors": self.n_colors,
            "kind": kind.value,
            "edges": [[u, v, c] for (u, v, c) in self.edges],
        }
        if self.sides is not None:
            doc["sides"] = list(self.sides)
        return doc


# edges (and sides) per %-template when an instance file is written
_BLOCK = 1024
_HEADER = ('{\n  "n_vertices": %d,\n  "n_colors": %d,\n  "kind": "%s",\n'
           '  "edges": ')
_EDGE = "    [\n      %d,\n      %d,\n      %d\n    ]"
_SIDE = "    %d"


def _write_int_list(f, items: list, item: str, flat) -> None:
    """One indent=2 JSON list, two levels deep, in blocks of _BLOCK items.

    item formats one entry from its ints; flat(block) gives a block's ints.
    """
    if not items:
        f.write("[]")
        return
    full = ",\n".join([item] * _BLOCK)
    sep = "[\n"
    for start in range(0, len(items), _BLOCK):
        block = items[start:start + _BLOCK]
        template = full if len(block) == _BLOCK else ",\n".join([item] * len(block))
        f.write(sep)
        f.write(template % flat(block))
        sep = ",\n"
    f.write("\n  ]")


def save_instance(graph: ColoredMultigraph, path: str,
                  kind: ColorClassKind = ColorClassKind.ARBITRARY) -> None:
    """Write the bytes of json.dump(graph.to_json_dict(kind), indent=2) + newline.

    The layout is formatted directly, so no Python-level encoder runs and no
    list of lists is built.
    """
    with open(path, "w", encoding="utf-8") as f:
        f.write(_HEADER % (graph.n_vertices, graph.n_colors, kind.value))
        _write_int_list(f, graph.edges, _EDGE,
                        lambda block: tuple(chain.from_iterable(block)))
        if graph.sides is not None:
            f.write(',\n  "sides": ')
            _write_int_list(f, graph.sides, _SIDE, tuple)
        f.write("\n}\n")


def _read_document(path: str) -> tuple[object, str]:
    """The UTF-8 JSON document at path, and the SHA-256 hex digest of its bytes.

    The bytes are dropped before the parse, so the parse holds the text and
    the document alone, as a text-mode read would.
    """
    with open(path, "rb") as f:
        data = f.read()
    digest = hashlib.sha256(data).hexdigest()
    try:
        text = data.decode("utf-8")
        del data
        return json.loads(text), digest
    except ValueError as exc:
        raise InvalidInstance(f"{path}: not a UTF-8 JSON document: {exc}") from exc


def load_instance(path: str) -> tuple[ColoredMultigraph, ColorClassKind, str]:
    """Graph, declared kind and SHA-256 hex digest of the bytes parsed.

    The file is read once and must be UTF-8 without a byte-order mark.
    """
    doc, digest = _read_document(path)
    if not isinstance(doc, dict):
        raise InvalidInstance(
            f"{path}: expected a JSON object, got {type(doc).__name__}")
    # malformed fields surface as the errors the constructor raises on them,
    # so a large file is not walked twice to validate it
    try:
        n_vertices, n_colors, edges = doc["n_vertices"], doc["n_colors"], doc["edges"]
        if type(edges) is not list:
            raise TypeError(f"edges must be a list, not {type(edges).__name__}")
        # each parsed [u, v, c] list is freed as its tuple replaces it, so the
        # file's edges are never held twice
        for i, e in enumerate(edges):
            edges[i] = tuple(e)
        graph = ColoredMultigraph(n_vertices, n_colors, edges, sides=doc.get("sides"))
    except KeyError as exc:
        raise InvalidInstance(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InvalidInstance(f"{path}: malformed instance: {exc}") from exc
    try:
        kind = ColorClassKind(doc.get("kind", "arbitrary"))
    except ValueError as exc:
        raise InvalidInstance(f"{path}: unknown kind: {exc}") from exc
    return graph, kind, digest


@dataclass
class CliqueDecomposition:
    """Per-color split into vertex-disjoint triangles and pair edges."""

    color: int
    triangles: list[tuple[int, int, int]]
    pair_edges: list[tuple[int, int]]

    @property
    def spanned_vertices(self) -> int:
        return 3 * len(self.triangles) + 2 * len(self.pair_edges)


@dataclass
class ValidationReport:
    valid: bool
    witnesses: list[tuple[int, int]]  # (color, vertex); side violations use color -1
    decompositions: dict[int, CliqueDecomposition] = field(default_factory=dict)


def _color_support(graph: ColoredMultigraph, color: int) -> dict[int, set[int]]:
    """Simple-graph adjacency of one color class, keyed by its support vertices."""
    adj: dict[int, set[int]] = {}
    for eid in graph.color_edges[color]:
        u, v, _ = graph.edges[eid]
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def _components(adj: dict[int, set[int]]) -> list[list[int]]:
    seen: set[int] = set()
    comps = []
    for start in sorted(adj):
        if start in seen:
            continue
        stack, comp = [start], []
        seen.add(start)
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        comps.append(sorted(comp))
    return comps


def _split_cliques(color: int, comps: list[list[int]]) -> CliqueDecomposition:
    """K2/K3 cliques on the vertices of sorted clique components.

    An odd component gives a triangle on its three lowest ids; the rest of
    each component pairs up in ascending id order.
    """
    deco = CliqueDecomposition(color, [], [])
    for comp in comps:
        rest = comp
        if len(comp) % 2:
            deco.triangles.append(tuple(comp[:3]))
            rest = comp[3:]
        deco.pair_edges.extend(zip(rest[::2], rest[1::2]))
    return deco


def validate(graph: ColoredMultigraph, kind: ColorClassKind) -> ValidationReport:
    """Check every color class against the declared kind.

    Violations are collected as (color, vertex) witnesses rather than raised.
    When the bipartition tag is present, same-side edges are reported with
    color -1 regardless of kind.  Each clique-union color without witnesses
    is split into K2/K3 cliques from the same components.
    """
    witnesses: list[tuple[int, int]] = []
    decompositions: dict[int, CliqueDecomposition] = {}

    if graph.sides is not None:
        for u, v, _ in graph.edges:
            if graph.sides[u] == graph.sides[v]:
                witnesses.append((-1, u))

    if kind is ColorClassKind.ARBITRARY:
        return ValidationReport(not witnesses, witnesses)

    for c in range(graph.n_colors):
        if kind is ColorClassKind.MATCHING:
            degree: dict[int, int] = {}
            for eid in graph.color_edges[c]:
                u, v, _ = graph.edges[eid]
                degree[u] = degree.get(u, 0) + 1
                degree[v] = degree.get(v, 0) + 1
            witnesses.extend((c, x) for x, d in sorted(degree.items()) if d > 1)
        elif kind is ColorClassKind.CLIQUE_UNION:
            adj = _color_support(graph, c)
            comps = _components(adj)
            bad = False
            for comp in comps:
                want = set(comp)
                for x in comp:
                    missing = (want - {x}) - adj[x]
                    if missing:
                        witnesses.append((c, min(missing)))
                        bad = True
            if not bad:
                decompositions[c] = _split_cliques(c, comps)
        elif kind is ColorClassKind.TWO_FACTOR:
            degree = [0] * graph.n_vertices
            for eid in graph.color_edges[c]:
                u, v, _ = graph.edges[eid]
                degree[u] += 1
                degree[v] += 1
            # count is one C-level pass; a 2-factor has no witness to look for
            if degree.count(2) != graph.n_vertices:
                witnesses.extend((c, x) for x in range(graph.n_vertices)
                                 if degree[x] != 2)

    return ValidationReport(not witnesses, witnesses, decompositions)


def restrict_with_map(graph: ColoredMultigraph,
                      vertices: Iterable[int]) -> tuple[ColoredMultigraph, list[int]]:
    """Induced sub-multigraph: keep exactly the edges with both ends in the set.

    Vertex ids and n_colors are preserved, so restriction composes by
    intersection of the vertex sets.  Also returns, per kept edge, its id in
    the source graph.
    """
    keep = set(vertices)
    edges = []
    edge_map = []
    for eid, e in enumerate(graph.edges):
        u, v, _ = e
        if u in keep and v in keep:
            edges.append(e)  # the parent's tuple, not a copy
            edge_map.append(eid)
    sub = ColoredMultigraph(graph.n_vertices, graph.n_colors, edges,
                            sides=None if graph.sides is None else list(graph.sides))
    return sub, edge_map


@dataclass
class RainbowMatching:
    """Vertex-disjoint, color-injective set of (edge id, color) pairs."""

    pairs: list[tuple[int, int]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.pairs)

    def colors(self) -> set[int]:
        return {c for _, c in self.pairs}

    def as_edge_list(self, graph: ColoredMultigraph) -> list[list[int]]:
        return sorted([graph.edges[eid][0], graph.edges[eid][1], c]
                      for eid, c in self.pairs)


def is_rainbow_matching(graph: ColoredMultigraph,
                        candidate: RainbowMatching) -> tuple[bool, Optional[str]]:
    """Validate a candidate against the host graph; returns (ok, witness)."""
    used_vertices: set[int] = set()
    used_colors: set[int] = set()
    for eid, c in candidate.pairs:
        if not (0 <= eid < graph.n_edges):
            return False, f"edge id {eid} not in graph"
        u, v, ec = graph.edges[eid]
        if ec != c:
            return False, f"edge {eid} has color {ec}, not {c}"
        if u in used_vertices or v in used_vertices:
            shared = u if u in used_vertices else v
            return False, f"shared vertex {shared}"
        if c in used_colors:
            return False, f"shared color {c}"
        used_vertices.update((u, v))
        used_colors.add(c)
    return True, None


@dataclass
class SampleSplit:
    """Random vertex partition: each vertex lands in the sample with probability p."""

    sample: set[int]
    rest: set[int]


def draw_sample_split(graph: ColoredMultigraph, p: float, seed: int) -> SampleSplit:
    import random

    rng = random.Random(seed)
    sample = {v for v in range(graph.n_vertices) if rng.random() < p}
    rest = set(range(graph.n_vertices)) - sample
    return SampleSplit(sample=sample, rest=rest)
