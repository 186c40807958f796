"""Exact even/odd cycle counting via traces of powers of the sign matrix.

A k-cycle is a vertex sequence (v1..vk) with no vertex repeated immediately,
cyclically (so v1 != v2, ..., vk != v1); repeated non-adjacent vertices are
allowed, and each rotation/start counts separately.  A cycle is even when an
even number of its k steps run against the stored edge orientation.

The diagonal of A^k (A the skew-symmetric +-1 sign matrix) counts even minus
odd k-cycles rooted at each vertex, which yields the closed form used by
``even_cycles_trace``; ``brute_force_count`` is the independent enumeration
oracle for it.  ``power_trace`` reconstructs tr(A^k) exactly from powers
of G = -A^2, held as n x n matrices or, for circulant and skew-circulant
input, as first rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import (
    _BLOCK_ENTRIES,
    Tournament,
    _check_count,
    _is_prime,
    _toeplitz_row,
    edge_sign,
)
from .errors import InternalInvariantError, ResourceLimitError
from .spectral import gram

ENUMERATION_LIMIT = 10**8  # brute_force_count's guard on n**k


@functools.lru_cache(maxsize=None)
def _prime(bits: int, index: int) -> int:
    """The (index+1)-th largest prime p with m * (p/2 + 2)**2 < 2**53, where
    m = 2**bits - 1 is the largest n of that bit length.

    Signed residues mod p are at most p/2 + 1 in magnitude (see ``_mod``), so
    every dot product of two length-n residue vectors, and every partial sum
    a BLAS kernel forms on the way, is an integer below 2**53: float64
    products of residue matrices are exact.
    """
    if index:
        p = _prime(bits, index - 1) - 1
    else:
        p = math.isqrt((2**55 - 1) // (2**bits - 1)) - 4
    while not _is_prime(p):
        p -= 1
    return p


def _mod(src: np.ndarray, p: int, out: np.ndarray) -> np.ndarray:
    """Signed residues of the exact integers in ``src`` into ``out``.

    The float quotient src/p may round so that rint lands one step off the
    nearest integer; the residue then still lies within p/2 + 1 of zero, and
    both q*p and the difference are exact integers below 2**53.
    """
    np.divide(src, p, out=out)
    np.rint(out, out=out)
    out *= p
    return np.subtract(src, out, out=out)


def _dot_mod(left: np.ndarray, right: np.ndarray, p: int) -> int:
    """sum_ij left_ij right_ij mod p, for signed residue arrays.

    Each row sum, and every partial sum on the way, is an integer below
    2**53 in any order (see ``_prime``), so the row sums are exact, and so
    is the sum of their residues, each at most p/2 + 1 in magnitude.
    """
    sums = np.einsum("ij,ij->i", left, right)
    return int(_mod(sums, p, np.empty_like(sums)).sum()) % p


def _dot_wrap(left: np.ndarray, right: np.ndarray, bound: int) -> tuple[int, int, int, int]:
    """(F, E, R, M): S = sum_ij left_ij right_ij lies within E of F and is R
    mod M, from one pass over row blocks of the 2-D arrays.

    The entries are integers below 2**53 in magnitude and sum_ij
    |left_ij right_ij| is at most ``bound``.  Below 2**53 every product and
    partial sum is an exact integer, so one float64 dot product gives F = S,
    E = 0 and (R, M) = (0, 1).  Otherwise F adds each block's float64 dot
    product as an exact integer.  In any summation order, a dot product of
    N terms is off by at most gamma_N = N / (2**53 - N) times the sum of
    their absolute products (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 3.1), so E is gamma_N bound rounded up, for
    N the largest block; and M = 2**64: the entries convert to int64
    exactly, and viewed as uint64 their products and sums wrap modulo 2**64.
    """
    if bound < 2**53:
        return int(np.vdot(left, right)), 0, 0, 1
    rows, n = left.shape
    step = max(1, _BLOCK_ENTRIES // n)
    lb = np.empty((min(step, rows), n), dtype=np.int64)
    rb = np.empty_like(lb)
    estimate = residue = 0
    for s in range(0, rows, step):
        block = left[s : s + step]
        estimate += int(np.vdot(block, right[s : s + step]))
        x = lb[: len(block)]
        x[...] = block
        x = x.view(np.uint64)
        if right is left:
            np.square(x, out=x)
        else:
            y = rb[: len(x)]
            y[...] = right[s : s + step]
            x *= y.view(np.uint64)
        residue += int(x.sum())
    return estimate, -(-lb.size * bound // (2**53 - lb.size)), residue % 2**64, 2**64


def _halving(j: int, memo: dict, product) -> np.ndarray:
    """G^j = G^ceil(j/2) G^floor(j/2), recursively, from the powers in ``memo``.

    Every G^i is symmetric, so an even j squares x = G^(j/2) as x.T @ x,
    which numpy hands to BLAS syrk (about half the work of a general product).
    """
    if j not in memo:
        x = _halving((j + 1) // 2, memo, product)
        if j % 2:
            memo[j] = product(x, _halving(j // 2, memo, product))
        else:
            memo[j] = product(x.T, x)
    return memo[j]


def _convolution(n: int, skew: bool):
    """First row of X Y from the first rows x, y of n x n circulant X, Y
    (skew-circulant when ``skew``): a cyclic or negacyclic convolution.  x
    may be the n x 1 transpose of a 1 x n row.

    The linear convolution's entry v sums x_w y_(v-w) over w <= v and its
    entry v + n the terms over w > v; folding the second onto the first (a
    difference for a skew-circulant) gives (X Y)_0v = sum_w x_w Y_wv term
    by term, so its partial sums are partial sums of a matrix-product entry
    and the exactness arguments of ``_exact_exponent`` and ``_prime`` hold.
    """
    fold = np.subtract if skew else np.add

    def product(x, y):
        z = np.convolve(x.ravel(), y.ravel())
        fold(z[: n - 1], z[n:], out=z[: n - 1])
        return z[None, :n]

    return product


def _frontier(j: int, e: int) -> set[int]:
    """Exponents at most e where the halving recursion from G^j bottoms out."""
    if j <= e:
        return {j}
    return _frontier((j + 1) // 2, e) | _frontier(j // 2, e)


def _exact_exponent(n: int, hi: int, room: int) -> int:
    """Largest j <= hi for which G^j is exact in float64.

    A row of G = A^T A has absolute sum at most (n-1)**2 and entries at most
    n-1 in magnitude, so every partial sum of a product forming G^j, by any
    split of j, is at most (n-1)**(2j-1); that bound must stay below
    ``room``.
    """
    e = 1
    while e < hi and (n - 1) ** (2 * e + 1) < room:
        e += 1
    return e


def power_trace(t: Tournament, k: int) -> int:
    """tr(A^k) as an exact integer, for the sign matrix A of ``t``.

    Odd k gives 0, since A is skew-symmetric: tr(A^k) = tr((A^T)^k) =
    -tr(A^k); k = 2 gives -n (n-1), one A_uv A_vu = -1 per ordered pair.
    Every other k is even and at least 4.  With the Gram matrix
    G = A^T A = -A^2, m = k // 2, lo = m // 2 >= 1 and hi = m - lo:
    tr(A^k) = (-1)**m sum_ij L_ij R_ij, where L = G^lo and R = G^hi; R is
    symmetric, so the trace of L R is the entrywise sum.  No walk of k steps
    has more than n (n-1)**(k-1) choices, which bounds |tr(A^k)| and, term
    by term, sum_ij |L_ij R_ij|: a row of G^lo sums to at most
    (n-1)**(2 lo) in magnitude, and an entry of G^hi is at most
    (n-1)**(2 hi - 1).

    G and its powers take one of two forms.  In general G comes from
    ``spectral.gram``, which checks its diagonal, and its powers are n x n
    BLAS products.  When t is circulant or skew-circulant as labelled, so is
    every power of G, and each is kept as its 1 x n first row: G's is
    -(a conv a) for A's first row a and kind from ``core._toeplitz_row``,
    its first entry must be n - 1, and ``_convolution`` multiplies them.
    Then L R has a constant diagonal and R is symmetric, so tr(L R) = n S
    with S = sum_v l_v r_v = (G^m)_00 for the first rows l and r.  G^m is
    positive semidefinite and a closed k-step walk from one vertex has at
    most (n-1)**(k-1) choices, so S and sum_v |l_v r_v| lie in
    [0, (n-1)**(k-1)].

    The powers are then formed once, in plain float64, while every partial
    sum plus the largest prime p stays below 2**53 (so that ``_mod``'s q*p
    is exact as well): the exact powers are those on the halving frontier of
    L and R, which are L and R themselves when both are exact.

    S, the entrywise sum of L R in either form, is reconstructed in one
    interval: with |S - F| <= E for an integer estimate F, S >= 0 and S <=
    bound (the growth bound, divided by n for first rows), S lies in
    [low, high] = [max(0, F - E), min(bound, F + E)].  Given the residue of
    S modulo some M > high - low, S is the one integer in [low, low + M)
    with that residue; a result above high raises InternalInvariantError.
    When L and R are exact, one pass over their row blocks (``_dot_wrap``)
    gives F, E from the size of its largest block, not from n**2 entries,
    and the first residue: none (M = 1) while the bound is below 2**53, where
    E = 0, and S mod 2**64 otherwise.  When a factor is too large to be
    exact, F = 0 and E = bound.  Primes join the residue by the Chinese
    remainder theorem while M <= high - low: each reduces the exact powers
    to signed residues, in arrays the first prime allocates and the rest
    reuse, and finishes L and R by float64 products of them, each reduced
    at once.
    """
    k = _check_count("exponent", k)
    n = t.n
    if k % 2:
        return 0
    if k == 2:
        return -n * (n - 1)
    row = _toeplitz_row(t)
    if row is None:
        scale, multiply, powers = 1, np.matmul, {1: gram(t)}
    else:
        scale, multiply = n, _convolution(n, row[1])
        a = row[0].astype(np.float64)  # np.convolve wraps int8
        powers = {1: -multiply(a, a)}
        if powers[1][0, 0] != n - 1:
            raise InternalInvariantError("Gram diagonal must equal n-1")
    bound = n * (n - 1) ** (k - 1) // scale
    bits = n.bit_length()
    room = 2**53 - _prime(bits, 0)
    m = k // 2
    lo, hi = m // 2, m - m // 2
    e = _exact_exponent(n, hi, room)
    need = _frontier(hi, e) | _frontier(lo, e)
    exact = {j: _halving(j, powers, multiply) for j in need}
    del powers  # free the intermediate powers
    if hi <= e:
        estimate, radius, residue, modulus = _dot_wrap(exact[lo], exact[hi], bound)
    else:
        estimate, radius, residue, modulus = 0, bound, 0, 1
    low, high = max(0, estimate - radius), min(bound, estimate + radius)
    buffers = None
    index = 0
    while modulus <= high - low:
        p = _prime(bits, index)
        index += 1

        def product(x, y):  # x may be a transposed view, y never is
            return _mod(multiply(x, y), p, np.empty_like(y))

        buffers = buffers or {j: np.empty_like(x) for j, x in exact.items()}
        residues = {j: _mod(x, p, buffers[j]) for j, x in exact.items()}
        factors = [_halving(j, residues, product) for j in (lo, hi)]
        r = _dot_mod(*factors, p)
        del residues, factors
        residue += modulus * ((r - residue) * pow(modulus, -1, p) % p)
        modulus *= p
    total = low + (residue - low) % modulus
    if total > high:
        raise InternalInvariantError(
            f"tr(G^{m}) reconstructs to {scale * total}, outside "
            f"[{scale * low}, {scale * high}]: past the radius of its estimate, the "
            f"growth bound or with the wrong sign (n={n})"
        )
    return -scale * total if m % 2 else scale * total


def total_cycles(n: int, k: int) -> int:
    """Number of k-cycles in any n-vertex tournament: (n-1)**k + (-1)**k (n-1)."""
    n, k = _check_count("vertex count", n), _check_count("cycle length", k, 2)
    return (n - 1) ** k + (-1) ** k * (n - 1)


@dataclass(frozen=True)
class CycleCountReport:
    """Exact cycle-count summary for one (tournament, k)."""

    k: int
    total: int
    even: int
    odd: int
    trace: int
    even_fraction: Fraction | None = field(init=False)  # None when there are no k-cycles

    def __post_init__(self):
        counted = min(self.even, self.odd) >= 0 and self.even + self.odd == self.total
        if not counted or self.trace != self.even - self.odd or self.k % 2 and self.trace:
            raise InternalInvariantError(
                f"k={self.k}: even={self.even}, odd={self.odd}, total={self.total} "
                f"and trace={self.trace} break tr(A^k) = even - odd, 0 for odd k"
            )
        frac = Fraction(self.even, self.total) if self.total else None
        object.__setattr__(self, "even_fraction", frac)


def even_cycles_trace(t: Tournament, k: int) -> CycleCountReport:
    """Exact even/odd k-cycle counts from the trace of the k-th matrix power.

    tr(A^k) = even - odd, so even = (tr(A^k) + total) / 2.  For odd k the
    trace vanishes by skew-symmetry (reversal pairs each even cycle with an
    odd one), so even = total / 2.  ``CycleCountReport`` raises
    InternalInvariantError when its four numbers break either fact.
    """
    k = _check_count("cycle length", k, 2)
    trace = power_trace(t, k)
    total = total_cycles(t.n, k)
    even = (trace + total) // 2
    return CycleCountReport(k=k, total=total, even=even, odd=total - even, trace=trace)


def cycle_parity(t: Tournament, seq) -> str:
    """Classify one k-cycle as "even" or "odd".

    ``seq`` lists the k vertices in traversal order; the closing step back to
    seq[0] is implied.  Cyclically adjacent vertices must differ.
    """
    vs = list(seq)
    k = _check_count("cycle length", len(vs), 2)
    reversals = 0
    for i in range(k):
        # edge_sign checks both endpoints of each step
        sign = edge_sign(t, vs[i], vs[(i + 1) % k])
        if sign == 0:
            raise ValueError(f"vertex {vs[i]} repeated immediately at position {i}")
        if sign < 0:
            reversals += 1
    return "even" if reversals % 2 == 0 else "odd"


def brute_force_count(t: Tournament, k: int) -> tuple[int, int]:
    """(even, odd) k-cycle counts by direct enumeration.

    Walks every sequence (v1..vk) with no immediate repeats, cyclically, and
    tallies the parity of reversed steps.  Refuses when n**k exceeds
    ENUMERATION_LIMIT, which also bounds the recursion depth (k <= 26 at
    n = 2); this is the reference oracle for ``even_cycles_trace`` and is
    deliberately independent of the matrix-power route: its table of
    reversed steps reads each arc through ``edge_sign``, never through
    ``sign_array``.
    """
    n = t.n
    k = _check_count("cycle length", k, 2)
    # n**27 > ENUMERATION_LIMIT for every n >= 2: no huge power is built
    if n ** min(k, 27) > ENUMERATION_LIMIT:
        raise ResourceLimitError(
            f"enumeration of {n}**{k} sequences exceeds the limit {ENUMERATION_LIMIT}"
        )
    rng = range(n)
    rev = [[int(edge_sign(t, u, v) < 0) for v in rng] for u in rng]
    even = 0
    total = 0

    def extend(first: int, prev: int, pos: int, parity: int) -> None:
        nonlocal even, total
        row = rev[prev]
        if pos == k - 1:
            for w in rng:
                if w != prev and w != first:
                    total += 1
                    if (parity + row[w] + rev[w][first]) % 2 == 0:
                        even += 1
        else:
            for w in rng:
                if w != prev:
                    extend(first, w, pos + 1, parity + row[w])

    for first in rng:
        extend(first, first, 1, 0)
    return even, total - even
