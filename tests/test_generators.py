import hashlib
import json
from types import SimpleNamespace

import pytest

from rainbowmatch.errors import ParameterViolation
from rainbowmatch.generators import (FAMILIES, gen_ab, gen_grinblat, gen_latin,
                                     gen_multiplicity_lb, gen_triangle_lb,
                                     gen_two_factorized, gen_two_k4)
from rainbowmatch.graph import ColorClassKind, validate


def test_latin_single_cell():
    g = gen_latin(1, "cayley", 0)
    assert g.n_edges == 1 and g.edges[0] == (0, 1, 0)


@pytest.mark.parametrize("mode", ["cayley", "random"])
def test_latin_color_classes_are_perfect_matchings(mode):
    g = gen_latin(4, mode, 11)
    assert validate(g, ColorClassKind.MATCHING).valid
    for c in range(4):
        assert len(g.color_edges[c]) == 4


def test_latin_is_bipartite_tagged():
    g = gen_latin(5)
    assert g.sides == [0] * 5 + [1] * 5
    assert validate(g, ColorClassKind.MATCHING).valid


def test_latin_random_differs_from_cayley():
    assert gen_latin(6, "random", 3).edges != gen_latin(6, "cayley", 3).edges


# SHA-256 of the compact JSON edge list, pinned so that no change to the
# shuffle alters an instance; (20, 9) and (22, 4) sit on either side of the
# n <= 21 boundary where the row-pair draws change method
@pytest.mark.parametrize("n,seed,digest", [
    (2, 0, "9f79928f566e974b09044487a43aeb4982c110613a85ae7ebb36b0b20981a992"),
    (7, 1, "c97261257410faa1f8a4320d6beb91d699ed4eabd6f35a430810b5a0b82a95a6"),
    (20, 9, "b9355dafa949807031d33e6138e5bb1ba50dbd599853ec174bb6e929de8abbbc"),
    (22, 4, "c1b88548b22f609025d766aaf437ed41b51b545e6227e0bcaf8b5cc51db378ef"),
    (32, 12345, "3e1b36ed76ae9009c38c95c80856223c9ea69a46a8c7967214cb0f1a68dac76d"),
])
def test_latin_random_instances_are_pinned(n, seed, digest):
    edges = gen_latin(n, "random", seed).edges
    text = json.dumps(edges, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_ab_counts_and_validation():
    g = gen_ab(50, 0, False, 9)
    report = validate(g, ColorClassKind.MATCHING)
    assert report.valid
    for c in range(50):
        assert len(g.color_edges[c]) == 50


def test_ab_bipartite_respects_sides():
    g = gen_ab(10, 3, True, 4)
    assert g.sides is not None
    assert validate(g, ColorClassKind.MATCHING).valid
    for c in range(10):
        assert len(g.color_edges[c]) == 13


def test_ab_pool_too_small():
    # force an infeasible bipartite layout by monkeypatched arithmetic: n=1
    # with huge extra still fits, so use direct constructor misuse instead
    with pytest.raises(ParameterViolation):
        gen_ab(0, 0, True, 0)


def test_grinblat_validates_and_respects_multiplicity():
    g = gen_grinblat(20, 60, 1, 2)
    assert validate(g, ColorClassKind.CLIQUE_UNION).valid
    assert g.max_multiplicity() == 1  # simple graph when m = 1
    g3 = gen_grinblat(20, 60, 3, 2)
    assert g3.max_multiplicity() <= 3


def test_grinblat_spans_at_least_v():
    g = gen_grinblat(10, 30, 10, 1)
    report = validate(g, ColorClassKind.CLIQUE_UNION)
    for c in range(10):
        assert report.decompositions[c].spanned_vertices >= 30


@pytest.mark.parametrize("seed", [0, 1])
def test_grinblat_shares_one_object_per_vertex_id(seed):
    g = gen_grinblat(400, 1200, 400, seed)
    # ids above 256 are not cached by CPython, so each color building its
    # own id list would give up to n objects per vertex
    assert len({id(x) for u, v, _ in g.edges for x in (u, v)}) <= g.n_vertices


def test_grinblat_cap_fast_path_matches_slow_path():
    # a cap of n can never bind, so both bookkeeping paths must agree
    assert gen_grinblat(10, 30, 10, 5).edges == gen_grinblat(10, 30, 9, 5).edges


def test_triangle_lb_shape():
    g = gen_triangle_lb(4)
    report = validate(g, ColorClassKind.CLIQUE_UNION)
    assert report.valid
    for c in range(4):
        assert report.decompositions[c].spanned_vertices == 9  # 3n-3
    assert g.max_multiplicity() == 4  # every triangle repeated in all colors


def test_two_k4_shape():
    g = gen_two_k4()
    assert g.n_vertices == 8 and g.n_colors == 3
    report = validate(g, ColorClassKind.MATCHING)
    assert report.valid
    for c in range(3):
        assert len(g.color_edges[c]) == 4


def test_multiplicity_lb_blocks():
    g = gen_multiplicity_lb(21, 2, 0)
    assert g.n_vertices == 10 * 5  # (n-1)/d blocks of 2d+1
    assert validate(g, ColorClassKind.CLIQUE_UNION).valid
    # per color: one triangle + one edge per block
    for c in range(21):
        assert len(g.color_edges[c]) == 10 * 4
    with pytest.raises(ParameterViolation):
        gen_multiplicity_lb(22, 2, 0)  # 2 does not divide 21
    with pytest.raises(ParameterViolation):
        gen_multiplicity_lb(21, 1, 0)


def test_circulant_two_factor():
    g = gen_two_factorized(2, "circulant", 0, 0)
    assert g.n_vertices == 5 and g.n_colors == 2
    assert validate(g, ColorClassKind.TWO_FACTOR).valid
    big = gen_two_factorized(20, "circulant", 4, 0)
    assert validate(big, ColorClassKind.TWO_FACTOR).valid
    degrees = [len(big.incident[v]) for v in range(big.n_vertices)]
    assert set(degrees) == {40}  # 2d-regular


def test_symmetric_latin_two_factor():
    g = gen_two_factorized(3, "symmetric_latin", 0, 0)
    assert g.n_vertices == 8 and g.n_colors == 3
    assert validate(g, ColorClassKind.TWO_FACTOR).valid


def test_degenerate_circulant_offsets_rejected():
    with pytest.raises(ParameterViolation):
        gen_two_factorized(2, "circulant", -1, 0)  # offset 2 on Z_4


def test_family_table_dispatch_and_determinism():
    kind, make, _ = FAMILIES["ab_general"]
    options = SimpleNamespace(n=12, extra=2)
    a, b = make(options, 99), make(options, 99)
    assert kind is ColorClassKind.MATCHING
    assert a.edges == b.edges
    seen = {tuple(make(options, s).edges) for s in range(10)}
    assert len(seen) == 10  # different seeds, different instances
