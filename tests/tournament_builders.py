"""Structured test inputs: one reversed arc, and random circulant and
skew-circulant tournaments drawn from a seed."""

import numpy as np

import qrtour.core as core
from qrtour import Tournament


def flip(t, u, v):
    """t with the arc between u < v reversed."""
    bits = bytearray(t.bits)
    bits[core.pair_index(t.n, u, v)] ^= 1
    return Tournament(t.n, bytes(bits))


def random_circulant(n, seed, dtype=np.int64):
    """(t, arc) for odd n: arc[d] for d <= (n-1)/2 from coins, arc[n-d] its
    complement.  ``dtype`` is the coins': numpy draws different coins for
    uint8 and int64 from one seed."""
    half = np.random.default_rng(seed).integers(0, 2, (n - 1) // 2, dtype=dtype)
    arc = np.concatenate(([0], half, 1 - half[::-1]))
    return core._circulant(n, arc), arc


def random_skew_circulant(n, seed):
    """(t, arc): arc[d] for d <= n/2 from coins, arc[n-d] the same bit."""
    half = np.random.default_rng(seed).integers(0, 2, n // 2)
    arc = np.concatenate(([0], half, half[: (n - 1) // 2][::-1]))
    return core._circulant(n, arc), arc
