"""Counter-based seed derivation.

All randomness flows from one 64-bit seed.  Sub-seeds for trials, phases and
resample attempts are derived by hashing (base, labels...) so that any single
trial can be replayed without replaying the ones before it.
"""

from __future__ import annotations

import hashlib
import random

MASK64 = (1 << 64) - 1


def derive_seed(base: int, *parts: object) -> int:
    """Derive a 64-bit sub-seed from a base seed and a label path."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(base) & MASK64).encode())
    for part in parts:
        h.update(b"/")
        h.update(str(part).encode())
    return int.from_bytes(h.digest(), "big")


def shuffle(rng: random.Random, x: list) -> None:
    """Shuffle x in place with exactly the swaps and draws of rng.shuffle(x).

    Durstenfeld's Fisher-Yates: for i from len(x) - 1 down to 1, swap x[i]
    with x[j] for j uniform on 0..i.  j is a draw of k = (i + 1).bit_length()
    bits, redrawn while it exceeds i, as CPython's _randbelow does; so the
    order and rng's state depend only on the Mersenne Twister bit stream.
    Each band of i that shares one k runs as one loop.
    """
    getrandbits = rng.getrandbits
    top = len(x) - 1
    while top > 0:
        k = (top + 1).bit_length()
        stop = (1 << (k - 1)) - 2  # the top i of the next band down
        for i in range(top, stop, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]
        top = stop
