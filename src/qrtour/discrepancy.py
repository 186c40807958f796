"""Subset discrepancy: exact evaluation, maximization, and the spectral cap.

The discrepancy of (X, Y) is sum over v in X of |d+(v,Y) - d-(v,Y)|.  The
sum is monotone in X, so all maximization routines fix X = V and search over
Y only; per-vertex witness signs are reported so any sub-X value can be
recovered.  Writing x for the sign vector of the differences and y for the
indicator of Y, the value equals x^T A y, which is capped by
|lambda1(A)| * sqrt(|X| |Y|) <= n * |lambda1(A)|.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .core import CoinStream, Tournament, _check_subset, sign_array
from .errors import InternalInvariantError, ResourceLimitError
from .spectral import lambda1

EXHAUSTIVE_MAX_N = 24  # the Gray-code sweep is 2^n * n work
_BLOCK_BITS = 12  # low vertices tabulated per block: a 2^12 x n int8 table
_RESTART_CHUNK = 16  # local-search restarts climbed together, bounding their state
_PRODUCT_ROWS = 64  # rows of the sign array per float32 product


@dataclass(frozen=True)
class DiscrepancyReport:
    """Best subset found by one search method, with its certificates."""

    method: str  # "exhaustive", "local_search", "sample", or "given"
    best_Y: tuple[int, ...]
    value: int
    normalized: Fraction  # value / n^2
    spectral_bound: float  # n * lambda1_upper, an upper bound on n * |lambda1|
    witness_signs: tuple[int, ...]  # sign of d+(v, best_Y) - d-(v, best_Y) per v


def _diff_vector(a: np.ndarray, ys: tuple[int, ...] | np.ndarray) -> np.ndarray:
    # d+(v, Y) - d-(v, Y) = sum over y in Y of A[v, y]; zeros for an empty Y
    return a[:, ys].sum(axis=1, dtype=np.int64)


def disc_given(t: Tournament, xs: Iterable[int], ys: Iterable[int]) -> int:
    """Exact discrepancy of the pair (X, Y)."""
    xset = _check_subset(t.n, xs)
    yset = _check_subset(t.n, ys)
    if not xset or not yset:
        return 0
    d = _diff_vector(sign_array(t), yset)
    return int(np.abs(d[list(xset)]).sum())


def witness_vectors(t: Tournament, ys: Iterable[int]) -> tuple[tuple[int, ...], int]:
    """Sign vector x realizing the discrepancy of (V, Y), and its value.

    x_v = sign(d+(v,Y) - d-(v,Y)), with 0 on exact ties (a tie contributes
    nothing, so the realized value is unchanged and the witness is canonical
    and reversal-symmetric).  The value equals x^T A y = disc_given(V, Y).
    """
    yset = _check_subset(t.n, ys)
    d = _diff_vector(sign_array(t), yset)
    x = tuple(int(v) for v in np.sign(d))
    return x, int(np.abs(d).sum())


def spectral_upper_bound(t: Tournament) -> float:
    """n * |lambda1(A)|, rounded up: an upper bound for every disc_given(X, Y)."""
    return t.n * lambda1(t).lambda1_upper


def _build_report(
    t: Tournament, method: str, ys: tuple[int, ...], expected_value: int | None = None
) -> DiscrepancyReport:
    signs, value = witness_vectors(t, ys)
    if expected_value is not None and value != expected_value:
        raise InternalInvariantError(
            f"search value {expected_value} disagrees with witness value {value}"
        )
    if value > t.n * (t.n - 1):
        raise InternalInvariantError(f"discrepancy {value} exceeds n(n-1)")
    bound = spectral_upper_bound(t)
    if value > bound:
        raise InternalInvariantError(
            f"discrepancy {value} exceeds the spectral bound {bound}"
        )
    return DiscrepancyReport(
        method=method,
        best_Y=ys,
        value=value,
        normalized=Fraction(value, t.n**2),
        spectral_bound=bound,
        witness_signs=signs,
    )


def disc_given_report(t: Tournament, ys: Iterable[int]) -> DiscrepancyReport:
    """Full report for a caller-chosen Y (method "given")."""
    return _build_report(t, "given", _check_subset(t.n, ys))


def disc_exhaustive(t: Tournament) -> DiscrepancyReport:
    """Exact maximum of disc_given(V, Y) over all 2^n subsets Y.

    Visits subsets in Gray-code order, one block of 2^b at a time, where the
    low b = min(n, _BLOCK_BITS) vertices vary inside a block and the high
    vertices stay fixed.  A table holds the difference vectors of the 2^b
    low subsets in Gray order; each block adds the high vertices' vector to
    every column and scores the block with one numpy reduction, and between
    blocks one high vertex flips, an O(n) update.  The reflected Gray code
    walks the low half backwards in odd blocks, so those read the table
    reversed.  Ties keep the lowest Gray index: the first maximum inside a
    block, and a later block only on a strictly larger value.
    Refuses n > EXHAUSTIVE_MAX_N.
    """
    n = t.n
    if n > EXHAUSTIVE_MAX_N:
        raise ResourceLimitError(
            f"exhaustive sweep is guarded to n <= {EXHAUSTIVE_MAX_N}, got {n}; "
            "use the local-search method instead"
        )
    # int8 is exact: every difference is a sum of at most n-1 signs
    a = sign_array(t)
    b = min(n, _BLOCK_BITS)
    # column j is the difference vector of the j-th low subset in Gray
    # order.  The reflected code on k+1 bits is the code on k bits followed
    # by its reverse with vertex k added, so each doubling appends that.
    # Vertex-major (n x 2^b), so the reduction adds contiguous rows; the
    # reversed table is copied for the same reason
    table = np.zeros((n, 1), dtype=np.int8)
    for k in range(b):
        table = np.concatenate((table, table[:, ::-1] + a[:, k : k + 1]), axis=1)
    reflected = np.ascontiguousarray(table[:, ::-1])
    high = np.zeros((n, 1), dtype=np.int8)
    best_value = -1
    best_index = 0
    for h in range(1 << (n - b)):
        if h:
            # step h of the Gray code flips the lowest set bit of h
            flipped = (h & -h).bit_length() - 1
            col = a[:, b + flipped : b + flipped + 1]
            high += col if (h ^ (h >> 1)) >> flipped & 1 else -col
        block = reflected if h & 1 else table
        values = np.abs(block + high).sum(axis=0, dtype=np.int32)
        j = int(values.argmax())
        if values[j] > best_value:
            best_value = int(values[j])
            best_index = h << b | j
    best_mask = best_index ^ (best_index >> 1)
    ys = tuple(v for v in range(n) if best_mask >> v & 1)
    return _build_report(t, "exhaustive", ys, best_value)


def _check_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _times_signs(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """x @ a, for a float32 matrix x of small integers and the int8 sign array.

    Works through _PRODUCT_ROWS rows of a at a time, so no float32 copy of
    the whole n x n array is made and each product stays small.  Exact in
    float32: every partial sum is an integer of magnitude at most 2n < 2^24.
    """
    out = x[:, :_PRODUCT_ROWS] @ a[:_PRODUCT_ROWS].astype(np.float32)
    for lo in range(_PRODUCT_ROWS, a.shape[0], _PRODUCT_ROWS):
        hi = lo + _PRODUCT_ROWS
        out += x[:, lo:hi] @ a[lo:hi].astype(np.float32)
    return out


def _climb(a: np.ndarray, member: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First-improvement single-flip ascent from every row of ``member`` at once.

    Each row climbs as a flip-by-flip search would: scan u = 0..n-1, flip u
    whenever that strictly raises sum |d| (d is the row's difference
    vector), and repeat until a full pass flips nothing.  A rejected
    candidate leaves the state unchanged, so each step here takes the first
    improving u cyclically from one past the row's last flip, and a row
    stops when no u improves.  All n gains come from one identity that is
    exact in integers: with s_u = -1 for u in Y (else +1) and
    g = sign(d) @ A, flipping u changes sum |d| by
    s_u g_u + #{i: d_i = 0} - [d_u = 0], since A[i, u] = +-1 for i != u.
    After a flip, g changes only through the columns where some row's
    sign(d) changed.

    Returns the local maxima as a bool array and their values.
    """
    rows, n = member.shape
    # d = member @ A^T, and A^T = -A; all state is float32, exact below 2^24
    d = -_times_signs(member.astype(np.float32), a)
    sgn = np.sign(d)
    g = _times_signs(sgn, a)
    s = np.where(member, np.float32(-1), np.float32(1))
    start = np.zeros(rows, dtype=np.intp)
    vertices = np.arange(n)
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
        up = gain > zero
        # argmax finds the first True: an improving u at or after start,
        # else the first improving u of the next pass
        scan = np.concatenate((up & (vertices >= start[:, None]), up), axis=1)
        first = scan.argmax(axis=1)
        at = np.arange(live.size)
        stuck = ~scan[at, first]
        if stuck.any():
            member[live[stuck]] = s[stuck] < 0
            values[live[stuck]] = np.abs(d[stuck]).sum(axis=1, dtype=np.int64)
            keep = ~stuck
            live, d, sgn, g, s, start = (
                live[keep], d[keep], sgn[keep], g[keep], s[keep], start[keep]
            )
            continue
        u = first % n
        step = s[at, u]
        d -= step[:, None] * a[u]  # d += step * A[:, u]
        s[at, u] = -step
        new = np.sign(d)
        cols = np.flatnonzero((new != sgn).any(axis=0))
        g += _times_signs(new[:, cols] - sgn[:, cols], a[cols])
        sgn = new
        start = u + 1
    return member, values


def disc_localsearch(t: Tournament, restarts: int, seed: int) -> DiscrepancyReport:
    """Best single-flip local maximum over seeded random restarts.

    Deterministic in (t, restarts, seed).  The result is a lower bound on
    the true maximum; ties across restarts keep the earliest restart.
    Restarts climb together, _RESTART_CHUNK at a time, each from the next
    n coins of the seed's stream.
    """
    _check_count("restarts", restarts)
    n = t.n
    a = sign_array(t)
    coins = CoinStream(seed)
    best_value = -1
    best_member = None
    for done in range(0, restarts, _RESTART_CHUNK):
        count = min(_RESTART_CHUNK, restarts - done)
        member = coins.take(count * n).reshape(count, n).astype(bool)
        member, values = _climb(a, member)
        j = int(values.argmax())
        if values[j] > best_value:
            best_value = int(values[j])
            best_member = member[j]
    ys = tuple(int(v) for v in np.flatnonzero(best_member))
    return _build_report(t, "local_search", ys, best_value)


def disc_sample(t: Tournament, samples: int, seed: int) -> DiscrepancyReport:
    """Best of ``samples`` uniformly drawn subsets; a cheap lower bound."""
    _check_count("samples", samples)
    n = t.n
    a = sign_array(t)
    coins = CoinStream(seed)
    best_value = -1
    best_ys = None
    for _ in range(samples):
        ys = np.flatnonzero(coins.take(n))
        value = int(np.abs(_diff_vector(a, ys)).sum())
        if value > best_value:
            best_value = value
            best_ys = ys
    return _build_report(t, "sample", tuple(int(v) for v in best_ys), best_value)
