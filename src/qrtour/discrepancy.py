"""Subset discrepancy: exact evaluation, maximization, and the spectral cap.

The discrepancy of (X, Y) is sum over v in X of |d+(v,Y) - d-(v,Y)|.  The
sum is monotone in X, so all maximization routines fix X = V and search over
Y only; per-vertex witness signs are reported so any sub-X value can be
recovered.  Writing x for the sign vector of the differences and y for the
indicator of Y, the value equals x^T A y, which is capped by
|lambda1(A)| * sqrt(|X| |Y|) <= n * |lambda1(A)|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .core import (
    _BLOCK_ENTRIES, CoinStream, Tournament, _check_count, _members, _toeplitz_row, out_words,
    sign_array,
)
from .errors import InternalInvariantError, ResourceLimitError
from .spectral import _lanczos_top, _verified_psd, gram, lambda1

EXHAUSTIVE_MAX_N = 24  # the mask-order sweep is 2^n * n work
_BLOCK_BITS = 12  # low vertices tabulated per block: a 2^12 x n int8 table
# From this n up, a Lanczos estimate and one Cholesky prove the spectral
# bound faster than eigvalsh computes it (random input, CHANGES.md)
_PROOF_MIN_N = 200


@dataclass(frozen=True)
class DiscrepancyReport:
    """Best subset found by one search method, with its certificates."""

    method: str  # "exhaustive", "local" or "sample", as ``disc --method`` names it
    best_Y: tuple[int, ...]
    value: int
    normalized: Fraction  # value / n^2
    # an upper bound on n * |lambda1|: proven for input that is not Toeplitz from
    # n = 200 up, n * lambda1_upper otherwise (``spectral_upper_bound``)
    spectral_bound: float
    witness_signs: tuple[int, ...]  # sign of d+(v, best_Y) - d-(v, best_Y) per v


def _diff_vector(t: Tournament, member: np.ndarray) -> np.ndarray:
    """d+(v, Y) - d-(v, Y) for every vertex v, as an int32 vector.

    ``member`` is Y's membership vector (``core._members``).  With c_v the
    number of out-neighbours of v in Y, the difference is
    2 c_v - |Y| + [v in Y] exactly: v has one arc to or from every other
    vertex of Y, and none to itself (A[v, v] = 0).  c_v is the popcount of
    v's packed out-neighbourhood (``out_words``) masked by Y's words.
    """
    words = out_words(t)
    whole = np.concatenate((member, np.zeros(-t.n % 64, dtype=bool)))  # whole words
    mask = np.packbits(whole, bitorder="little").view("<u8")
    c = np.bitwise_count(words & mask[:, None]).sum(axis=0, dtype=np.int32)
    return 2 * c - np.count_nonzero(member) + member


def disc_given(t: Tournament, xs: Iterable[int], ys: Iterable[int]) -> int:
    """Exact discrepancy of the pair (X, Y)."""
    in_x = _members(t.n, xs)
    return int(np.abs(_diff_vector(t, _members(t.n, ys))[in_x]).sum())


def witness_vectors(t: Tournament, ys: Iterable[int]) -> tuple[tuple[int, ...], int]:
    """Sign vector x realizing the discrepancy of (V, Y), and its value.

    x_v = sign(d+(v,Y) - d-(v,Y)), with 0 on exact ties (a tie contributes
    nothing, so the realized value is unchanged and the witness is canonical
    and reversal-symmetric).  The value equals x^T A y = disc_given(V, Y).
    """
    d = _diff_vector(t, _members(t.n, ys))
    return tuple(np.sign(d).tolist()), int(np.abs(d).sum())


def spectral_upper_bound(t: Tournament) -> float:
    """An upper bound on n * |lambda1|, and so on every disc_given(X, Y).

    From n = _PROOF_MIN_N up, input that is not Toeplitz (``core._toeplitz_row``,
    cached, so ``lambda1`` reuses its answer) gets a proof: n * sqrt(mu)
    rounded up, with sigma1^2 < mu checked by one Cholesky (``_proven_bound``).
    Below that n, and on Toeplitz input at any n, it is n * lambda1_upper
    from ``eigvalsh`` or the FFT, which rests on the argued error constants
    that ``lambda1`` and ``_fft_moduli`` state; the product rounds to
    nearest, not up, inside the margin ``lambda1_upper`` carries, about
    n * 2^-53 relative on eigvalsh (n >= 2) and 64 * 2^-53 on FFT.
    """
    if t.n < _PROOF_MIN_N or _toeplitz_row(t) is not None:
        return t.n * lambda1(t).lambda1_upper
    return _proven_bound(t)


def _proven_bound(t: Tournament) -> float:
    """n * sqrt(mu) rounded up, for a mu with sigma1^2 < mu proven.

    theta, a Lanczos estimate of sigma1^2 = lambda_max(G) (``_lanczos_top``),
    gives mu = theta (1 + 1e-9), and ``_verified_psd`` proves mu I - G
    positive definite.  The mu proven is d + n - 1 exactly, for d the float
    put on the diagonal of -G, so the matrix factored holds mu I - G
    without rounding.  A failed proof doubles the margin; mu never passes
    n(n-1), which always proves, since sigma1^2 <= tr(G)/2 = n(n-1)/2 (the
    moduli pair up).  A NaN estimate raises InternalInvariantError.
    """
    n = t.n
    g = gram(t)
    theta = _lanczos_top(g)
    if math.isnan(theta):
        raise InternalInvariantError(f"Lanczos estimate of sigma1^2 is NaN (n={n})")
    s = np.negative(g)
    del g  # before the factor: one n x n array beside it
    trace = n * (n - 1)  # tr(G)
    margin = 1e-9
    while True:
        mu = min(max(theta, n - 1) * (1 + margin), trace)  # sigma1^2 >= tr(G)/n
        d = mu - (n - 1)
        np.fill_diagonal(s, d)
        if _verified_psd(s):
            break
        if mu == trace:
            raise InternalInvariantError(f"Cholesky failed to prove sigma1^2 < n(n-1) (n={n})")
        margin *= 2
    exact = Fraction(d) + (n - 1)
    bound = math.nextafter(n * math.sqrt(float(exact)), math.inf)
    while Fraction(bound) ** 2 < n * n * exact:
        bound = math.nextafter(bound, math.inf)
    return bound


def _build_report(
    t: Tournament, method: str, member: np.ndarray, expected_value: int
) -> DiscrepancyReport:
    """The report on Y, given by its membership vector, with its witness,
    whose value must equal the search's ``expected_value``."""
    d = _diff_vector(t, member)
    value = int(np.abs(d).sum())
    if value != expected_value:
        raise InternalInvariantError(
            f"search value {expected_value} disagrees with witness value {value}"
        )
    bound = spectral_upper_bound(t)
    if not (value <= t.n * (t.n - 1) and value <= bound):  # a NaN bound fails
        raise InternalInvariantError(
            f"discrepancy {value} exceeds n(n-1) or the spectral bound {bound} (n={t.n})"
        )
    return DiscrepancyReport(
        method=method,
        best_Y=tuple(np.flatnonzero(member).tolist()),
        value=value,
        normalized=Fraction(value, t.n**2),
        spectral_bound=bound,
        witness_signs=tuple(np.sign(d).tolist()),
    )


def _subsets(cols: np.ndarray) -> np.ndarray:
    """Difference vectors of every subset of the m columns ``cols`` (n x m):
    column j of the n x 2^m result sums the columns at the set bits of j."""
    table = np.zeros((len(cols), 1), dtype=np.int8)
    for k in range(cols.shape[1]):
        table = np.concatenate((table, table + cols[:, k : k + 1]), axis=1)
    return table


def disc_exhaustive(t: Tournament) -> DiscrepancyReport:
    """Exact maximum of disc_given(V, Y) over all 2^n subsets Y.

    Visits Y in bit-mask order (vertex i in Y when bit i is set), one block
    of 2^b masks at a time, where b = min(n, _BLOCK_BITS).  Two tables hold
    the difference vectors of the subsets of the low b vertices and of the
    high n - b vertices; block h adds high subset h to every low column and
    scores the block's 2^b subsets, masks h << b | j, with one numpy
    reduction.  Ties keep the smallest mask: the first maximum inside a
    block, and a later block only on a strictly larger value.
    Refuses n > EXHAUSTIVE_MAX_N.
    """
    n = t.n
    if n > EXHAUSTIVE_MAX_N:
        raise ResourceLimitError(
            f"exhaustive sweep is guarded to n <= {EXHAUSTIVE_MAX_N}, got {n}; "
            "use the local-search method instead"
        )
    # int8 is exact: every difference is a sum of at most n-1 signs.
    # Vertex-major (n x 2^b), so the reduction adds contiguous rows
    a = sign_array(t)
    b = min(n, _BLOCK_BITS)
    low = _subsets(a[:, :b])
    high = _subsets(a[:, b:])
    best_value = -1
    best_mask = 0
    for h in range(high.shape[1]):
        values = np.abs(low + high[:, h : h + 1]).sum(axis=0, dtype=np.int32)
        j = int(values.argmax())
        if values[j] > best_value:
            best_value = int(values[j])
            best_mask = h << b | j
    member = (best_mask >> np.arange(n) & 1).astype(bool)
    return _build_report(t, "exhaustive", member, best_value)


def _alternate(a: np.ndarray, member: np.ndarray) -> np.ndarray:
    """Alternating ascent from every row of ``member`` at once, in place.

    A row's value sum |d| equals x @ A @ y for x = sign(d) (0 on ties) and
    y its indicator, and for that x the best y is {u : (x @ A)_u > 0}.  Each
    round proposes that Y' for every live row and accepts it only where it
    strictly raises sum |d|; a row that does not improve retires, since its
    next round would propose the same Y' again.  So the loop ends within
    n(n-1) + 1 rounds: a live row's int64 value rises every round and is at
    most n(n-1).  ``a`` is the float32 sign matrix, exact as in _climb.

    Returns ``member`` with each row at its last accepted Y.
    """
    d = -(member.astype(np.float32) @ a)
    values = np.abs(d).sum(axis=1, dtype=np.int64)
    live = np.arange(len(member))  # the original row of each row still alternating
    while live.size:
        proposal = np.sign(d) @ a > 0
        d = -(proposal.astype(np.float32) @ a)
        new = np.abs(d).sum(axis=1, dtype=np.int64)
        up = new > values
        member[live[up]] = proposal[up]
        live, d, values = live[up], d[up], new[up]
    return member


def _climb(a: np.ndarray, member: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Steepest single-flip ascent from every row of ``member`` at once.

    Each step flips, in every live row, the u whose flip raises sum |d| the
    most (d is the row's difference vector; ties go to the smallest u), and
    a row retires when no flip strictly raises it.  All n gains come from
    one identity that is exact in integers: with s_u = -1 for u in Y (else
    +1) and g = sign(d) @ A, flipping u changes sum |d| by
    s_u g_u + #{i: d_i = 0} - [d_u = 0], since A[i, u] = +-1 for i != u.
    After a flip, g changes only through the columns where some row's
    sign(d) changed.  ``a`` is the float32 sign matrix: every partial sum
    of a product is an integer of magnitude at most 2n < 2^24, so float32 is
    exact.

    Returns the local maxima as a bool array and their values.
    """
    rows, n = member.shape
    # d = member @ A^T, and A^T = -A; all state is float32, exact below 2^24
    d = -(member.astype(np.float32) @ a)
    sgn = np.sign(d)
    g = sgn @ a
    s = np.where(member, np.float32(-1), np.float32(1))
    live = np.arange(rows)  # the original row of each row still climbing
    values = np.zeros(rows, dtype=np.int64)
    # each step raises sum |d| <= n(n-1) by at least 1 in every live row, or
    # retires rows, so a correct sweep never takes more steps than this
    steps_left = n * (n - 1) + rows
    while live.size:
        if not steps_left:
            raise InternalInvariantError(
                "local search outran its step bound: a flip did not raise the value"
            )
        steps_left -= 1
        zero = d == 0
        gain = s * g
        gain += zero.sum(axis=1, keepdims=True, dtype=np.float32)
        gain -= zero
        u = gain.argmax(axis=1)
        at = np.arange(live.size)
        stuck = gain[at, u] <= 0
        if stuck.any():
            member[live[stuck]] = s[stuck] < 0
            values[live[stuck]] = np.abs(d[stuck]).sum(axis=1, dtype=np.int64)
            keep = ~stuck
            live, d, sgn, g, s = live[keep], d[keep], sgn[keep], g[keep], s[keep]
            continue
        step = s[at, u]
        d -= step[:, None] * a[u]  # d += step * A[:, u]
        s[at, u] = -step
        new = np.sign(d)
        cols = np.flatnonzero((new != sgn).any(axis=0))
        g += (new[:, cols] - sgn[:, cols]) @ a[cols]
        sgn = new
    return member, values


def _best_of_chunks(
    t: Tournament, count: int, seed: int, score
) -> tuple[np.ndarray, int]:
    """Best Y among ``count`` rows scored _BLOCK_ENTRIES // n at a time, and its value.

    Row i is a membership vector: the i-th run of n coins of the seed's stream.
    ``score(a, member)`` takes the float32 sign matrix a, made once here, and
    a chunk of rows, and returns the rows' final members and their values.
    Ties keep the earliest row: the first maximum inside a chunk, and a later
    chunk only on a strictly larger value.
    """
    n = t.n
    a = sign_array(t).astype(np.float32)
    coins = CoinStream(seed)
    best_value = -1
    best_member = None
    step = max(1, _BLOCK_ENTRIES // n)
    for done in range(0, count, step):
        rows = coins.take(min(step, count - done) * n).reshape(-1, n)
        member, values = score(a, rows.astype(bool))
        j = int(values.argmax())
        if values[j] > best_value:
            best_value = int(values[j])
            best_member = member[j]
    return best_member, best_value


def disc_localsearch(t: Tournament, restarts: int, seed: int) -> DiscrepancyReport:
    """Best single-flip local maximum over seeded random restarts.

    Deterministic in (t, restarts, seed).  The result is a lower bound on
    the true maximum; ties across restarts keep the earliest restart.
    Restarts run together in chunks (``_best_of_chunks``), each from the next
    n coins of the seed's stream: alternating ascent first, which takes
    the long strides cheaply, then the single-flip climb, so every result
    is a single-flip local maximum worth at least its start.
    """
    restarts = _check_count("restarts", restarts)
    return _build_report(t, "local", *_best_of_chunks(
        t, restarts, seed, lambda a, member: _climb(a, _alternate(a, member))
    ))


def disc_sample(t: Tournament, samples: int, seed: int) -> DiscrepancyReport:
    """Best of ``samples`` uniformly drawn subsets; a cheap lower bound.

    Each subset is the next n coins of the seed's stream; a chunk of them is
    scored with one product, and ties keep the earliest draw.
    """
    samples = _check_count("samples", samples)

    def score(a, member):
        # the rows' difference vectors are -(member @ A); only |.| counts
        return member, np.abs(member.astype(np.float32) @ a).sum(axis=1, dtype=np.int64)

    return _build_report(t, "sample", *_best_of_chunks(t, samples, seed, score))
