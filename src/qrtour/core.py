"""Tournament data model, generators, degree queries, and .trn serialization.

A tournament on n labeled vertices (0..n-1) stores one orientation bit per
unordered pair {u, v} with u < v, in lexicographic pair order: bit 1 means
u -> v, bit 0 means v -> u.  Values are immutable; every function here is
pure.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ParseError

_TRN_MAGIC = b"TRN1"
_SEED_MAX = 2**64
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")  # complements orientation bytes

# Entries per block of the blocked loops here, in ``exactcount`` and in
# ``discrepancy``, so that no temporary grows with n^2: a loop over an n x n
# array takes ``_BLOCK_ENTRIES // n`` rows at a time, or square tiles of side
# ``isqrt(_BLOCK_ENTRIES)``.
_BLOCK_ENTRIES = 2**16


class CoinStream:
    """Deterministic draws from the 64-bit PCG64 raw output stream: fair coins
    (the top bit of each output), bounded integers and fresh seeds.

    PCG64's raw output stream is fixed by the generator's definition, so the
    values drawn for a given seed are identical on every platform and library
    version.
    """

    def __init__(self, seed: int):
        if not _int_type(type(seed)) or not 0 <= seed < _SEED_MAX:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
        self._bitgen = np.random.PCG64(int(seed))

    def take(self, count: int) -> np.ndarray:
        """Next ``count`` coins as a uint8 array of 0s and 1s."""
        count = _check_count("count", count, 0)
        coins = np.empty(count, dtype=np.uint8)
        for s in range(0, count, _BLOCK_ENTRIES):
            raw = self._bitgen.random_raw(min(_BLOCK_ENTRIES, count - s))
            coins[s : s + len(raw)] = np.right_shift(raw, 63, out=raw)
            del raw  # before the next block is drawn
        return coins

    def below(self, bound: int) -> int:
        """One integer in [0, bound): the next raw output modulo ``bound``."""
        return int(self._bitgen.random_raw() % _check_count("bound", bound))

    def seed64(self) -> int:
        """The next raw output, as an unsigned 64-bit seed."""
        return int(self._bitgen.random_raw())


def pair_index(n: int, u: int, v: int) -> int:
    """Index of pair (u, v), u < v, in the lexicographic pair order."""
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


@dataclass(frozen=True, init=False)
class Tournament:
    """Orientation of the complete graph on ``n`` vertices.

    ``Tournament(n, bits)`` takes one byte per pair, 0 or 1, from any buffer:
    ``bits[pair_index(n, u, v)]`` is 1 if u -> v and 0 if v -> u, for u < v.
    It validates them, then keeps one bit per pair, packed by ``np.packbits``
    into ceil(n(n-1)/16) bytes with zero padding; equality and hashing run on
    those.  ``t.bits`` unpacks them to one byte per pair again, O(n^2) per
    access; ``edge_sign`` reads one arc.
    """

    n: int
    _packed: bytes

    def __init__(self, n: int, bits):
        n = _check_count("vertex count", n)
        view = memoryview(bits)  # TypeError for a non-buffer
        expected = n * (n - 1) // 2
        if view.nbytes != expected:
            raise ValueError(f"need {expected} orientation bits for n={n}, got {view.nbytes}")
        flat = np.frombuffer(view if view.c_contiguous else view.tobytes(), dtype=np.uint8)
        if flat.max(initial=0) > 1:
            raise ValueError("orientation bits must be 0 or 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_packed", np.packbits(flat).tobytes())

    @classmethod
    def _of_packed(cls, n: int, packed: bytes) -> Tournament:
        """The tournament whose packed bits are ``packed``, not re-validated."""
        t = object.__new__(cls)
        t.__dict__.update(n=n, _packed=packed)  # as __init__ stores them
        return t

    @property
    def bits(self) -> bytes:
        """One byte per pair, 0 or 1, in lexicographic pair order."""
        return _unpacked(self).tobytes()


def _unpacked(t: Tournament) -> np.ndarray:
    """The n(n-1)/2 orientation bits of t as a fresh uint8 array of 0s and 1s."""
    count = t.n * (t.n - 1) // 2
    return np.unpackbits(np.frombuffer(t._packed, dtype=np.uint8), count=count)


def _int_type(kind: type) -> bool:
    """Whether ``kind`` is int or a numpy integer type; bool (True == 1) is not."""
    return issubclass(kind, (int, np.integer)) and not issubclass(kind, bool)


def _check_count(name: str, value, least: int = 1) -> int:
    """An int or numpy integer ``value`` of at least ``least`` as an int,
    which never wraps."""
    if not _int_type(type(value)) or value < least:
        rule = "a positive integer" if least == 1 else f"an integer >= {least}"
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return int(value)


def _check_vertex(n: int, v: int) -> int:
    """An int or numpy integer ``v`` in 0..n-1 as an int, which never wraps."""
    if not _int_type(type(v)) or not 0 <= v < n:
        raise ValueError(f"vertex {v!r} out of range for n={n}")
    return int(v)


def edge_sign(t: Tournament, u: int, v: int) -> int:
    """+1 if u -> v, -1 if v -> u, 0 if u == v."""
    # ints, because pair_index in a small numpy dtype would wrap
    u, v = _check_vertex(t.n, u), _check_vertex(t.n, v)
    if u == v:
        return 0
    i = pair_index(t.n, min(u, v), max(u, v))
    bit = t._packed[i >> 3] >> (7 - (i & 7)) & 1  # np.packbits is big-endian
    return 1 if bit == (u < v) else -1


def _vertices(n: int, ys: Iterable[int]) -> np.ndarray:
    """The vertex list ``ys`` as an intp array, in its order.

    Entries may repeat, in any order, and each must pass ``_check_vertex``;
    the error names the first entry that does not.
    """
    ys = list(ys)
    if all(map(_int_type, set(map(type, ys)))):
        with contextlib.suppress(OverflowError):  # an int past int64
            # fromiter with a count is about twice as fast as np.array
            idx = np.fromiter(ys, np.intp, len(ys))
            if not idx.size or (idx.min() >= 0 and idx.max() < n):
                return idx
    for y in ys:
        _check_vertex(n, y)


def _members(n: int, ys: Iterable[int]) -> np.ndarray:
    """Membership vector of the vertex set ``ys`` (see ``_vertices``): a
    length-n bool array."""
    member = np.zeros(n, dtype=bool)
    member[_vertices(n, ys)] = True
    return member


def _arcs(t: Tournament, v: int, ys: Iterable[int], sign: int) -> int:
    """#{distinct y in ys: edge_sign(t, v, y) == sign}, arc by arc."""
    _check_vertex(t.n, v)  # also when ys is empty
    return len({y for y in ys if edge_sign(t, v, y) == sign})


def d_plus(t: Tournament, v: int, ys: Iterable[int]) -> int:
    """Number of edges directed from v into the vertex set ``ys``."""
    return _arcs(t, v, ys, 1)


def d_minus(t: Tournament, v: int, ys: Iterable[int]) -> int:
    """Number of edges directed from the vertex set ``ys`` into v."""
    return _arcs(t, v, ys, -1)


@functools.lru_cache(maxsize=1)
def sign_array(t: Tournament) -> np.ndarray:
    """The n x n sign adjacency matrix as a read-only int8 array.

    Entry (u, v) is +1 if u -> v, -1 if v -> u, 0 on the diagonal; the
    matrix is skew-symmetric.  Consumers widen it before any arithmetic that
    could overflow int8.  Cached for the one tournament in use: calls that
    alternate between two would rebuild it on every switch, and none here do.
    n^2 bytes, filled in place: besides it, only the n(n-1)/2 row signs and
    one square tile of the lower triangle are held.
    """
    n = t.n
    a = np.zeros((n, n), dtype=np.int8)
    signs = _unpacked(t).view(np.int8)  # one n(n-1)/2 temporary
    signs += signs
    signs -= 1
    src = memoryview(signs).cast("B")
    start = 0
    # one buffer copy per row: cheaper than a numpy slice assignment
    with memoryview(a).cast("B") as dst:
        for u in range(n - 1):  # row u holds the pairs (u, v), v > u
            stop = start + n - 1 - u
            dst[u * (n + 1) + 1 : (u + 1) * n] = src[start:stop]
            start = stop
    side = math.isqrt(_BLOCK_ENTRIES)
    for j in range(0, n, side):
        for i in range(j, n, side):
            # tile (i, j) below the diagonal is still 0: subtract its
            # transposed mirror, which fits in cache where a tall strip of
            # columns does not (numpy buffers the overlapping diagonal tiles)
            tile = a[i : i + side, j : j + side]
            np.subtract(tile, a[j : j + side, i : i + side].T, out=tile)
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=1)
def out_words(t: Tournament) -> np.ndarray:
    """Out-neighbourhoods bit-packed, as a read-only ceil(n/64) x n uint64 array.

    Bit j of word w in column v is set when v -> 64 w + j; bits past n - 1
    are 0.  Words are stored word-major (one row per word), so a reduction
    over a vertex's words adds whole contiguous rows.  n^2 / 8 bytes, packed
    by blocks of rows into an n^2 / 8-byte buffer, then transposed; cached for
    the one tournament in use, as ``sign_array`` is: each switch rebuilds both.
    """
    n = t.n
    a = sign_array(t)
    # one row of words per vertex; the bytes past ceil(n/8) stay 0
    packed = np.zeros((n, 8 * -(-n // 64)), dtype=np.uint8)
    step = max(1, _BLOCK_ENTRIES // n)
    for s in range(0, n, step):
        rows = np.packbits(a[s : s + step] > 0, axis=1, bitorder="little")
        packed[s : s + step, : rows.shape[1]] = rows
    words = np.ascontiguousarray(packed.view("<u8").T)
    words.setflags(write=False)
    return words


# --- generators ---------------------------------------------------------


def random_tournament(n: int, seed: int) -> Tournament:
    """Uniform random tournament: one fair coin per pair, lexicographic order.

    A pure function of (n, seed); see ``CoinStream`` for the coin source.
    """
    n = _check_count("vertex count", n)
    return Tournament(n, CoinStream(seed).take(n * (n - 1) // 2))


def transitive_tournament(n: int) -> Tournament:
    """The linear order: i -> j iff i < j."""
    n = _check_count("vertex count", n)
    return Tournament(n, b"\x01" * (n * (n - 1) // 2))


def _circulant(n: int, arc: np.ndarray) -> Tournament:
    """Tournament with u -> v (u < v) iff arc[v - u] is 1: row u of the bit
    string is arc[1 : n - u]."""
    view = memoryview(arc.astype(np.uint8).tobytes())
    return Tournament(n, b"".join(view[1 : n - u] for u in range(n)))


def _toeplitz_row(t: Tournament) -> tuple[np.ndarray, bool] | None:
    """``(a, skew)`` when an FFT diagonalises t as labelled, else None: a is
    row 0 of ``sign_array(t)`` (int8), built from row 0's bits alone.

    t is Toeplitz when u -> v (u < v) iff arc[v - u] is 1, for a uint8 arc
    of length n with arc[0] = 0: then row u of the bit string is row 0's
    first n - 1 - u bits, and a = 2 arc - 1 off a[0].  Two rules on row 0
    admit an FFT, and no arc fits both: t is circulant when arc[k] +
    arc[n - k] = 1 (exactly one of u -> v and v -> u, which even n admits
    for no arc), and skew-circulant (``skew``) when arc[n - k] = arc[k] (the
    transitive tournament and its reversal among them).  Those rules reject
    most other tournaments in O(n).  Then t is Toeplitz exactly when its
    packed bits equal those ``_circulant`` builds from the same row 0: they
    are built, packed and compared at least 8n bits at a time, in O(n) memory.
    """
    n = t.n
    if n < 2:
        return None
    packed = np.frombuffer(t._packed, dtype=np.uint8)
    head = np.unpackbits(packed[: -(-(n - 1) // 8)], count=n - 1).tobytes()  # row 0
    mirror = head[::-1]
    skew = head == mirror
    if not skew and head.translate(_FLIP) != mirror:
        return None
    del mirror  # n bytes off the peak of the compare below
    bits, done = bytearray(), 0
    for length in range(n - 1, 0, -1):  # row n - 1 - length is head[:length]
        bits += head[:length]
        if len(bits) >= 8 * n or length == 1:  # whole bytes, or the zero-padded rest
            size = len(bits) if length == 1 else len(bits) & -8
            if not t._packed.startswith(np.packbits(np.frombuffer(bits, np.uint8, size)), done):
                return None
            del bits[:size]
            done += size // 8
    return np.insert(np.frombuffer(head, dtype=np.int8) * 2 - 1, 0, 0), skew


def rotational_tournament(n: int) -> Tournament:
    """Circulant tournament on odd n: i -> j iff (j - i) mod n in 1..(n-1)/2."""
    n = _check_count("vertex count", n)
    if n < 3 or n % 2 == 0:
        raise ValueError(f"rotational family needs odd n >= 3, got {n}")
    return _circulant(n, np.arange(n) <= (n - 1) // 2)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def paley_tournament(p: int) -> Tournament:
    """Quadratic-residue tournament on Z_p: i -> j iff (j - i) is a nonzero
    square mod p.

    Requires p prime with p = 3 (mod 4), so that exactly one of (j - i) and
    (i - j) is a residue and the orientation is a tournament.
    """
    p = _check_count("vertex count", p)
    if not _is_prime(p) or p % 4 != 3:
        raise ValueError(f"paley family needs a prime p with p % 4 == 3, got {p}")
    residue = np.zeros(p, dtype=bool)
    x = np.arange(1, p, dtype=np.int64)
    residue[x * x % p] = True
    return _circulant(p, residue)


def generate(kind: str, n: int, seed: int | None = None) -> Tournament:
    """The tournament of family ``kind``: "random" (which needs ``seed``),
    "transitive", "rotational" or "paley" (n is then the prime p)."""
    if kind == "random":
        if seed is None:
            raise ValueError("random family requires a seed")
        return random_tournament(n, seed)
    if kind == "transitive":
        return transitive_tournament(n)
    if kind == "rotational":
        return rotational_tournament(n)
    if kind == "paley":
        return paley_tournament(n)
    raise ValueError(f"unknown generator kind {kind!r}")


# --- symmetries ---------------------------------------------------------


def reverse(t: Tournament) -> Tournament:
    """Flip the orientation of every edge."""
    flipped = np.invert(np.frombuffer(t._packed, dtype=np.uint8))
    flipped[-1:] &= 0xFF << (-(t.n * (t.n - 1) // 2) % 8) & 0xFF  # zero padding
    return Tournament._of_packed(t.n, flipped.tobytes())


def relabel(t: Tournament, perm: Iterable[int]) -> Tournament:
    """Rename vertex i to perm[i]; the edge set is carried along.

    The permuted sign matrix is gathered one block of rows at a time, and
    only in the columns after the block's first row, so no n x n temporary
    is made besides ``sign_array``'s cached one.
    """
    n = t.n
    p = _vertices(n, perm)
    inv = np.full(n, -1, dtype=np.intp)
    inv[p] = np.arange(len(p))
    # n entries that are all vertices and cover every vertex repeat none
    if len(p) != n or inv.min() < 0:
        raise ValueError(f"perm must be a permutation of 0..{n - 1}")
    a = sign_array(t)
    step = max(1, _BLOCK_ENTRIES // n)
    rows = []
    for s in range(0, n, step):
        # new u beats new v iff old inv[u] beats old inv[v]; of the columns
        # after s, row s + i keeps those after s + i: the upper triangle
        won = a.take(inv[s : s + step], 0).take(inv[s + 1 :], 1) > 0
        rows += (won[i, i:].tobytes() for i in range(len(won)))
    return Tournament(n, b"".join(rows))


# --- .trn serialization -------------------------------------------------
#
# Line 1: "TRN1 <n>".  Line 2: n(n-1)/2 characters over '0'/'1' in
# lexicographic pair order ('1' = u -> v for the pair (u, v), u < v).
# Both lines end with '\n'; nothing may follow.


def encode(t: Tournament) -> bytes:
    """Serialize to the .trn text format."""
    text = _unpacked(t)
    text += 0x30
    return b"".join((b"%s %d\n" % (_TRN_MAGIC, t.n), text, b"\n"))


def decode(data: bytes) -> Tournament:
    """Parse .trn bytes; raises ParseError with a byte position on any defect."""
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError(f"decode expects bytes, got {type(data).__name__}")
    data = bytes(data)
    nl = data.find(b"\n")
    if nl < 0:
        raise ParseError("missing newline after header", len(data))
    header = data[:nl]
    if not header.startswith(_TRN_MAGIC + b" "):
        raise ParseError("expected 'TRN1 <n>' header", 0)
    n_text = header[len(_TRN_MAGIC) + 1 :]
    if not n_text.isdigit():
        raise ParseError("vertex count must be a decimal integer", len(_TRN_MAGIC) + 1)
    n = int(n_text)
    if n < 1:
        raise ParseError("vertex count must be positive", len(_TRN_MAGIC) + 1)
    body_start = nl + 1
    expected = n * (n - 1) // 2
    end = data.find(b"\n", body_start)
    if end < 0:
        raise ParseError("missing trailing newline after orientation bits", len(data))
    if end != body_start + expected:
        raise ParseError(
            f"expected {expected} orientation bits, found {end - body_start}",
            body_start,
        )
    # '0'/'1' become 0/1; every other byte wraps to a value above 1, which
    # Tournament refuses: its check is the one scan of the bits
    bits = np.frombuffer(data, dtype=np.uint8, count=expected, offset=body_start) - 0x30
    try:
        t = Tournament(n, bits)
    except ValueError:
        i = body_start + int(np.argmax(bits > 1))
        raise ParseError(f"illegal character {chr(data[i])!r} in bit string", i) from None
    if end + 1 != len(data):
        raise ParseError("trailing data after final newline", end + 1)
    return t
