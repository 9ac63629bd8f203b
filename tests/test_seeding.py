import random

import pytest

from rainbowmatch.generators import (gen_ab, gen_grinblat, gen_latin, gen_multiplicity_lb,
                                     gen_two_factorized)
from rainbowmatch.graph import RainbowMatching
from rainbowmatch.seeding import shuffle
from rainbowmatch.solvers import (augment_flagged, build_aux_hypergraph, greedy_maximal,
                                  nibble_match)

# every length up to 70, each side of every power of two up to 2^14, the
# grinblat pool of the benchmark's verify cell and the nibble's size on its
# solver workload
LENGTHS = sorted(set(range(71)) | {(1 << k) + d for k in range(15) for d in (-1, 0, 1)}
                 | {1400, 143_000})


@pytest.mark.parametrize("seed", [0, 1, 2**40 + 7])
def test_shuffle_matches_random_shuffle_and_leaves_the_same_state(seed):
    for length in LENGTHS:
        ours, theirs = random.Random(seed), random.Random(seed)
        x, y = list(range(length)), list(range(length))
        shuffle(ours, x)
        theirs.shuffle(y)
        assert x == y, length
        assert ours.getrandbits(32) == theirs.getrandbits(32), length
        assert ours.random() == theirs.random(), length


class _BitsOnlyRandom(random.Random):
    """Refuses every draw that goes through `_randbelow`, so a call site can
    read only `getrandbits` and `random`."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("draw outside getrandbits and random")

    shuffle = randrange = randint = choice = sample = _refuse


def _circulant_nibble(seed):
    g = gen_two_factorized(5, "circulant", 4)
    return nibble_match(build_aux_hypergraph(g, rest=range(g.n_vertices)), seed)


def _augment_latin(seed):
    # greedy leaves colours free, so improve_once shuffles the free vertices
    matching, exhausted = augment_flagged(gen_latin(9, "random", 11), RainbowMatching(), seed)
    return matching.pairs, exhausted


# one case per shuffle site; each result is compared with the unpatched one
SITES = {
    "ab_bipartite": lambda s: gen_ab(12, 3, True, s).edges,
    "ab_general": lambda s: gen_ab(12, 3, False, s).edges,
    "grinblat_unchecked": lambda s: gen_grinblat(100, 300, 100, s).edges,
    # m = 2 binds, so rejected cliques reshuffle their colour's tail
    "grinblat_checked": lambda s: gen_grinblat(10, 24, 2, s).edges,
    "multiplicity_lb": lambda s: gen_multiplicity_lb(7, 3, s).edges,
    "nibble": _circulant_nibble,
    "augment": _augment_latin,
    "greedy_random": lambda s: greedy_maximal(gen_ab(20, 5, False, 2), "random", s).pairs,
}


@pytest.mark.parametrize("site", list(SITES))
def test_shuffle_sites_draw_only_bits_and_floats(monkeypatch, site):
    make = SITES[site]
    expected = [make(s) for s in range(4, 7)]
    monkeypatch.setattr(random, "Random", _BitsOnlyRandom)
    assert [make(s) for s in range(4, 7)] == expected
