"""Exact even/odd cycle counting via traces of powers of the sign matrix.

A k-cycle is a vertex sequence (v1..vk) with no vertex repeated immediately,
cyclically (so v1 != v2, ..., vk != v1); repeated non-adjacent vertices are
allowed, and each rotation/start counts separately.  A cycle is even when an
even number of its k steps run against the stored edge orientation.

The diagonal of A^k (A the skew-symmetric +-1 sign matrix) counts even minus
odd k-cycles rooted at each vertex, which yields the closed form used by
``even_cycles_trace``; ``brute_force_count`` is the independent enumeration
oracle for it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    _BLOCK_ENTRIES, Tournament, _check_count, _is_prime, edge_sign, sign_array
)
from .errors import InternalInvariantError, ResourceLimitError

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


def _dot_wrap(left: np.ndarray, right: np.ndarray) -> int:
    """sum_ij left_ij right_ij mod 2**64, in row blocks.

    The float64 entries are integers below 2**53 in magnitude, so each
    converts to int64 exactly; viewed as uint64, the products and sums wrap
    modulo 2**64, so the wrapped total is the residue of the exact sum.
    """
    n = left.shape[0]
    step = max(1, _BLOCK_ENTRIES // n)
    lb = np.empty((min(step, n), n), dtype=np.int64)
    rb = np.empty_like(lb)
    total = 0
    for s in range(0, n, step):
        x = lb[: min(step, n - s)]
        x[...] = left[s : s + step]
        x = x.view(np.uint64)
        if right is left:
            np.square(x, out=x)
        else:
            y = rb[: len(x)]
            y[...] = right[s : s + step]
            x *= y.view(np.uint64)
        total += int(x.sum())
    return total % 2**64


def _estimate(left: np.ndarray, right: np.ndarray, bound: int) -> tuple[int, int]:
    """(F, E): sum_ij left_ij right_ij to within E, from one float64 dot product.

    ``left`` and ``right`` hold exact integers and sum_ij |left_ij right_ij|
    is at most ``bound``.  Below 2**53 every product and partial sum is an
    exact integer, so E = 0.  Otherwise, in any summation order, a float64
    dot product of N terms is off by at most gamma_N sum_ij |left_ij right_ij|,
    with gamma_N = N u / (1 - N u) = N / (2**53 - N) for u = 2**-53 (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., section 3.1).
    """
    estimate = int(np.vdot(left, right))
    if bound < 2**53:
        return estimate, 0
    size = left.size
    return estimate, -(-size * bound // (2**53 - size))


def _gram(t: Tournament) -> np.ndarray:
    """Gram matrix G = A^T A = -A^2 as a float64 array.

    One float32 BLAS product, widened to float64.  Each entry sums at most
    n-1 products of +-1 signs (the diagonal of A is zero), so every partial
    sum is an integer of magnitude at most n-1, which float32 holds exactly
    while n <= 2**24 (any tournament whose n(n-1)/2 orientation bits fit in
    memory), and the result equals the integer product.
    """
    a = sign_array(t).astype(np.float32)
    return (a.T @ a).astype(np.float64)


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

    G comes from ``_gram``.  G and its powers are then formed once, in plain
    float64, while every partial sum plus the largest prime p stays below
    2**53 (so that ``_mod``'s q*p is exact as well): the exact powers are
    those on the halving frontier of L and R, which are L and R themselves
    when both are exact.

    The sum S = sum_ij L_ij R_ij comes from one reconstruction: an integer
    estimate F, a radius E with |S - F| <= E, and the residue of S modulo
    some M > 2 E give S as the one integer in [F - E, F - E + M) with that
    residue.  When L and R are exact, F is their float64 dot product and E
    its error bound (see ``_estimate``); E is 0 while the growth bound is
    below 2**53, and then no residue is taken.  Otherwise the first residue
    is S mod 2**64, from one int64 pass (``_dot_wrap``).  When a factor is
    too large to be exact, F = 0 and E is the growth bound.  Primes join the
    residue by the Chinese remainder theorem while M <= 2 E: each reduces
    the exact powers to signed residues and finishes L and R from them by
    float64 BLAS products of residues.  S = tr(G^m) >= 0 because G is
    positive semidefinite, so a negative S raises InternalInvariantError, as
    does a result above F + E or past the growth bound.
    """
    k = _check_count("exponent", k)
    n = t.n
    if k % 2:
        return 0
    if k == 2:
        return -n * (n - 1)
    bound = n * (n - 1) ** (k - 1)
    bits = n.bit_length()
    room = 2**53 - _prime(bits, 0)
    powers = {1: _gram(t)}
    m = k // 2
    lo, hi = m // 2, m - m // 2
    e = _exact_exponent(n, hi, room)
    need = _frontier(hi, e) | _frontier(lo, e)
    exact = {j: _halving(j, powers, np.matmul) for j in need}
    del powers  # free the intermediate powers
    if hi <= e:
        factors = exact[lo], exact[hi]
        estimate, radius = _estimate(*factors, bound)
        residue, modulus = (_dot_wrap(*factors), 2**64) if radius else (0, 1)
    else:
        estimate, radius, residue, modulus = 0, bound, 0, 1
    buffers = {j: np.empty_like(x) for j, x in exact.items()}  # reused by every prime
    index = 0
    while modulus <= 2 * radius:
        p = _prime(bits, index)
        index += 1

        def product(x, y):  # x may be a transposed view, y never is
            return _mod(x @ y, p, np.empty_like(y))

        residues = {j: _mod(x, p, buffers[j]) for j, x in exact.items()}
        factors = [_halving(j, residues, product) for j in (lo, hi)]
        r = _dot_mod(*factors, p)
        del residues, factors
        residue += modulus * ((r - residue) * pow(modulus, -1, p) % p)
        modulus *= p
    # the one integer in [estimate - radius, estimate - radius + modulus)
    # congruent to the residue
    low = estimate - radius
    total = low + (residue - low) % modulus
    if total > estimate + radius:
        raise InternalInvariantError(
            f"tr(A^{k}) reconstructs outside the radius of its estimate (n={n})"
        )
    if total < 0:
        raise InternalInvariantError(
            f"tr(A^{k}) reconstructs with the wrong sign: tr(G^{m}) < 0 (n={n})"
        )
    trace = -total if m % 2 else total
    if abs(trace) > bound:
        raise InternalInvariantError(
            f"|tr(A^{k})| exceeds the n*(n-1)**(k-1) growth bound (n={n})"
        )
    return trace


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
    even_fraction: Fraction | None  # None when there are no k-cycles at all

    def __post_init__(self):
        if self.even < 0 or self.odd < 0 or self.even + self.odd != self.total:
            raise InternalInvariantError("cycle counts are inconsistent")
        if self.k % 2 == 0:
            if self.trace != 2 * self.even - self.total:
                raise InternalInvariantError("trace identity violated for even k")
        else:
            if self.trace != 0 or self.even != self.odd:
                raise InternalInvariantError("odd-k structure violated")


def even_cycles_trace(t: Tournament, k: int) -> CycleCountReport:
    """Exact even/odd k-cycle counts from the trace of the k-th matrix power.

    tr(A^k) = even - odd, so even = (tr(A^k) + total) / 2.  For odd k the
    trace vanishes by skew-symmetry (reversal pairs each even cycle with an
    odd one), so even = total / 2.  ``CycleCountReport`` raises
    InternalInvariantError on a trace of the wrong parity, or a nonzero one
    for odd k.
    """
    k = _check_count("cycle length", k, 2)
    trace = power_trace(t, k)
    total = total_cycles(t.n, k)
    even = (trace + total) // 2
    frac = Fraction(even, total) if total else None
    return CycleCountReport(
        k=k, total=total, even=even, odd=total - even, trace=trace, even_fraction=frac
    )


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


def _check_enumeration(n: int, k: int) -> int:
    """The cycle length k, checked; ResourceLimitError when
    ``brute_force_count`` would walk n**k > ENUMERATION_LIMIT sequences."""
    k = _check_count("cycle length", k, 2)
    # n**27 > ENUMERATION_LIMIT for every n >= 2: no huge power is built
    if n ** min(k, 27) > ENUMERATION_LIMIT:
        raise ResourceLimitError(
            f"enumeration of {n}**{k} sequences exceeds the limit {ENUMERATION_LIMIT}"
        )
    return k


def brute_force_count(t: Tournament, k: int) -> tuple[int, int]:
    """(even, odd) k-cycle counts by direct enumeration.

    Walks every sequence (v1..vk) with no immediate repeats, cyclically, and
    tallies the parity of reversed steps.  Refuses when n**k exceeds
    ENUMERATION_LIMIT, which also bounds the recursion depth (k <= 26 at
    n = 2); this is the reference oracle for ``even_cycles_trace`` and is
    deliberately independent of the matrix-power route.
    """
    n = t.n
    k = _check_enumeration(n, k)
    rev = [[1 if x < 0 else 0 for x in row] for row in sign_array(t).tolist()]
    even = 0
    total = 0
    rng = range(n)

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
