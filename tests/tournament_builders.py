"""Structured test inputs: one reversed arc, random circulant and
skew-circulant tournaments drawn from a seed, and the doubly regular
tournaments over GF(p^r); the bounds that bracket lambda1; and patches
that feed lambda1 a wrong spectrum."""

import itertools
from fractions import Fraction

import numpy as np

import qrtour.core as core
from qrtour import Tournament, gram, lambda1


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


def _mulmod(a, b, f, p):
    """a * b modulo the monic x^r + f over Z_p; coefficients low to high."""
    r = len(f)
    prod = [0] * (2 * r - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for d in range(2 * r - 2, r - 1, -1):  # x^d = -x^(d-r) * f
        c = prod[d] % p
        for i, fi in enumerate(f):
            prod[d - r + i] -= c * fi
    return [c % p for c in prod[:r]]


def _frobenius(y, f, p):
    """y^p modulo x^r + f."""
    z = y
    for _ in range(p - 1):
        z = _mulmod(z, y, f, p)
    return z


def doubly_regular(p, r):
    """(t, square) for the quadratic-residue tournament on GF(q), q = p^r,
    r prime and q = 3 mod 4: u -> v iff v - u is a nonzero square.

    Element e has the base-p digits of e as its coefficients modulo a monic
    irreducible x^r + f, found by trial: of degree r prime, x^r + f is
    irreducible iff x^(p^r) = x and x^p != x modulo it.  ``square[e]`` says
    whether e is a nonzero square."""
    x = [0, 1] + [0] * (r - 2)
    for f in itertools.product(range(p), repeat=r):
        y = x
        for _ in range(r):
            y = _frobenius(y, f, p)
        if y == x and _frobenius(x, f, p) != x:
            break
    q = p**r
    weights = p ** np.arange(r)
    digits = np.arange(q)[:, None] // weights % p
    square = np.zeros(q, dtype=np.uint8)
    square[[int(np.dot(_mulmod(e, e, f, p), weights)) for e in digits[1:].tolist()]] = 1
    bits = b"".join(square[(digits[u + 1 :] - digits[u]) % p @ weights].tobytes() for u in range(q))
    return Tournament(q, bits), square.astype(bool)


def lambda1_rungs(t):
    """(rung 0, rung 1) = (max_i sum_j |G_ij|, max_i sum_j |(G^2)_ij|), after
    checking that lambda1 lies between the score bound, sigma1^2 >=
    ||s||^2 / n with s the sign matrix's row sums, and each rung, sigma1^2 <=
    rung 0 and sigma1^4 <= rung 1 (Gershgorin).  The computed |lambda1| may
    pass a rung by no more than the margin lambda1 carries: |lambda1|^p
    <= rung + upper^p - |lambda1|^p, exactly (on a tight class at n = 6,
    |lambda1|^2 reads 1 + 4e-16 times rung 0)."""
    g = gram(t)
    s = core.sign_array(t).sum(axis=1, dtype=np.int64)
    # G^2 is exact in float64: its entries are integers below n^3
    rungs = tuple(int(np.abs(m.astype(np.int64)).sum(axis=1).max()) for m in (g, g @ g))
    summary = lambda1(t)
    low, high = Fraction(summary.lambda1_abs), Fraction(summary.lambda1_upper)
    assert high**2 >= Fraction(int(s @ s), t.n)
    for p, rung in zip((2, 4), rungs):
        assert low**p <= rung + high**p - low**p, (p, rung)
    return rungs


def patch_eigvalsh(monkeypatch, change):
    """Make np.linalg.eigvalsh return change(its ascending eigenvalues)."""
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda g: change(eigvalsh(g)))


def patch_fft_nan(monkeypatch, part):
    """Make np.fft.fft return NaN as the ``part`` ("real" or "imag") of its
    output at frequency 3: odd, so an eigenvalue of A for either kind."""
    fft = np.fft.fft

    def patched(a):
        f = fft(a)
        getattr(f, part)[3] = np.nan
        return f

    monkeypatch.setattr(np.fft, "fft", patched)
