"""Edge-coloured multigraph model and matching primitives.

Vertices and colors are dense 0-based ids.  Edges are identified by their
index into the edge list, so parallel edges of the same color are distinct
objects and pair multiplicities are exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

from .errors import InvalidInstance, NotCliqueUnion


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
        if self.sides is not None and len(self.sides) != self.n_vertices:
            raise ValueError("sides tag must cover every vertex")
        self.rebuild_indices()

    def rebuild_indices(self) -> None:
        """Recompute incidence and per-color indices, revalidate edges (idempotent).

        The pair-multiplicity map is derived lazily; this drops any cached copy.
        """
        self.incident = [[] for _ in range(self.n_vertices)]
        self.color_edges = [[] for _ in range(self.n_colors)]
        self._pair_colors: Optional[dict[tuple[int, int], list[int]]] = None
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
    def pair_colors(self) -> dict[tuple[int, int], list[int]]:
        if self._pair_colors is None:
            pc: dict[tuple[int, int], list[int]] = {}
            for u, v, c in self.edges:
                p = (u, v) if u < v else (v, u)
                pc.setdefault(p, []).append(c)
            self._pair_colors = pc
        return self._pair_colors

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def multiplicity(self, u: int, v: int) -> int:
        return len(self.pair_colors.get(_pair(u, v), ()))

    def max_multiplicity(self) -> int:
        return max(map(len, self.pair_colors.values()), default=0)

    def colors_on_pair(self, u: int, v: int) -> list[int]:
        return self.pair_colors.get(_pair(u, v), [])

    def color_degree(self, v: int, c: int) -> int:
        return sum(1 for eid in self.incident[v] if self.edges[eid][2] == c)

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


def save_instance(graph: ColoredMultigraph, path: str,
                  kind: ColorClassKind = ColorClassKind.ARBITRARY) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(graph.to_json_dict(kind), f, indent=2)
        f.write("\n")


def load_instance(path: str) -> tuple[ColoredMultigraph, ColorClassKind]:
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise InvalidInstance(
            f"{path}: expected a JSON object, got {type(doc).__name__}")
    # malformed fields surface as the errors the constructor raises on them,
    # so a large file is not walked twice to validate it
    try:
        graph = ColoredMultigraph(
            n_vertices=doc["n_vertices"],
            n_colors=doc["n_colors"],
            edges=[tuple(e) for e in doc["edges"]],
            sides=doc.get("sides"),
        )
    except KeyError as exc:
        raise InvalidInstance(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InvalidInstance(f"{path}: malformed instance: {exc}") from exc
    try:
        kind = ColorClassKind(doc.get("kind", "arbitrary"))
    except ValueError as exc:
        raise InvalidInstance(f"{path}: unknown kind: {exc}") from exc
    return graph, kind


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
    kind: ColorClassKind
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


def clique_decompose(graph: ColoredMultigraph, color: int) -> CliqueDecomposition:
    """Split a clique-union color class into K2/K3 cliques on the same vertex set.

    Each clique component of r vertices becomes floor(r/2) pair edges plus one
    triangle iff r is odd, grouping vertices in ascending id order so the
    decomposition is deterministic.
    """
    adj = _color_support(graph, color)
    triangles: list[tuple[int, int, int]] = []
    pair_edges: list[tuple[int, int]] = []
    for comp in _components(adj):
        for x in comp:
            if adj[x] != set(comp) - {x}:
                raise NotCliqueUnion(
                    f"color {color}: component {comp} is not a clique (vertex {x})")
        rest = comp
        if len(comp) % 2 == 1:
            triangles.append(tuple(comp[:3]))
            rest = comp[3:]
        for i in range(0, len(rest), 2):
            pair_edges.append((rest[i], rest[i + 1]))
    return CliqueDecomposition(color=color, triangles=triangles, pair_edges=pair_edges)


def validate(graph: ColoredMultigraph, kind: ColorClassKind) -> ValidationReport:
    """Check every color class against the declared kind.

    Violations are collected as (color, vertex) witnesses rather than raised.
    When the bipartition tag is present, same-side edges are reported with
    color -1 regardless of kind.
    """
    witnesses: list[tuple[int, int]] = []
    decompositions: dict[int, CliqueDecomposition] = {}

    if graph.sides is not None:
        for u, v, _ in graph.edges:
            if graph.sides[u] == graph.sides[v]:
                witnesses.append((-1, u))

    if kind is ColorClassKind.ARBITRARY:
        return ValidationReport(kind, not witnesses, witnesses)

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
            bad = False
            for comp in _components(adj):
                want = set(comp)
                for x in comp:
                    missing = (want - {x}) - adj[x]
                    if missing:
                        witnesses.append((c, min(missing)))
                        bad = True
            if not bad:
                decompositions[c] = clique_decompose(graph, c)
        elif kind is ColorClassKind.TWO_FACTOR:
            degree = [0] * graph.n_vertices
            for eid in graph.color_edges[c]:
                u, v, _ = graph.edges[eid]
                degree[u] += 1
                degree[v] += 1
            witnesses.extend((c, x) for x in range(graph.n_vertices) if degree[x] != 2)

    return ValidationReport(kind, not witnesses, witnesses, decompositions)


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
    for eid, (u, v, c) in enumerate(graph.edges):
        if u in keep and v in keep:
            edges.append((u, v, c))
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

    def vertices(self, graph: ColoredMultigraph) -> set[int]:
        out: set[int] = set()
        for eid, _ in self.pairs:
            u, v, _ = graph.edges[eid]
            out.update((u, v))
        return out

    def edge_ids(self) -> set[int]:
        return {eid for eid, _ in self.pairs}

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
    p: float
    seed: int


def draw_sample_split(graph: ColoredMultigraph, p: float, seed: int) -> SampleSplit:
    import random

    rng = random.Random(seed)
    sample = {v for v in range(graph.n_vertices) if rng.random() < p}
    rest = set(range(graph.n_vertices)) - sample
    return SampleSplit(sample=sample, rest=rest, p=p, seed=seed)
