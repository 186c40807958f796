"""Tests for exact matrix-power traces and even/odd cycle counting.

All frozen expected values were derived by independent means: hand
multiplication of the 3x3 circulant, eigenvalue arithmetic (the cyclic
triangle has eigenvalue moduli {sqrt(3), sqrt(3), 0}), a plain
Python-integer matrix power written here, and the enumeration oracle itself.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import qrtour.exactcount as exactcount
import qrtour.spectral as spectral
from qrtour import (
    InternalInvariantError,
    ResourceLimitError,
    brute_force_count,
    cycle_parity,
    even_cycles_trace,
    gram,
    moment_crosscheck,
    paley_tournament,
    power_trace,
    random_tournament,
    relabel,
    reverse,
    rotational_tournament,
    total_cycles,
    transitive_tournament,
)
from qrtour.cli import main
from qrtour.core import _toeplitz_row, encode, sign_array
from tournament_builders import doubly_regular, random_circulant

SEEDS = [0, 1, 7, 42, 99]

C3 = rotational_tournament(3)
TT3 = transitive_tournament(3)

# every function that takes a cycle length k, called as (t, k)
CYCLE_LENGTH_TAKERS = [
    even_cycles_trace,
    moment_crosscheck,
    lambda t, k: total_cycles(t.n, k),
    brute_force_count,
]


def reference_trace(t, k):
    """tr(A^k) by k-1 schoolbook products of Python-integer lists, with A
    read straight from the orientation bits (lexicographic pair order)."""
    n = t.n
    bits = iter(t.bits)
    a = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            a[u][v] = 1 if next(bits) else -1
            a[v][u] = -a[u][v]
    m = a
    for _ in range(k - 1):
        m = [[sum(row[w] * a[w][j] for w in range(n)) for j in range(n)] for row in m]
    return sum(m[i][i] for i in range(n))


def rotational_trace(n, k):
    """tr(A^k), k even, for the rotational tournament on odd n.

    A is circulant with first row c (c_d = 1 for 1 <= d <= (n-1)/2, -1
    above, c_0 = 0), so A^j is circulant with first row c^{*j}, the j-th
    cyclic convolution power of c, and tr(A^k) = n (c^{*k})_0 =
    n sum_d x_d x_{-d} with x = c^{*(k/2)}.  Each product multiplies rows
    packed into Python integers, one ``size``-byte digit per entry
    (Kronecker substitution), biased by ``half`` so that every digit is
    nonnegative: every |digit| is at most sum_d |x_d| <= (n-1)**(k/2) < half.
    """
    h = (n - 1) // 2
    c = [0] + [1] * h + [-1] * h
    size = ((n - 1) ** (k // 2)).bit_length() // 8 + 1  # bytes per digit
    half = 1 << (8 * size - 1)

    def bias(count):
        return half * ((1 << 8 * size * count) - 1) // ((1 << 8 * size) - 1)

    def pack(row):
        data = b"".join((v + half).to_bytes(size, "little") for v in row)
        return int.from_bytes(data, "little") - bias(len(row))

    def unpack(value, count):
        data = (value + bias(count)).to_bytes(size * count, "little")
        return [
            int.from_bytes(data[i : i + size], "little") - half
            for i in range(0, len(data), size)
        ]

    x, packed_c = c, pack(c)
    for _ in range(k // 2 - 1):
        linear = unpack(pack(x) * packed_c, 2 * n - 1)
        x = [a + b for a, b in zip(linear, linear[n:] + [0])]  # wrap mod n
    return n * sum(x[d] * x[-d % n] for d in range(n))


def transitive_trace(n, k):
    """tr(A^k) for the transitive tournament on n vertices.

    A closed k-walk meets at most k vertices, and its sign depends only on
    the order of the vertices it meets, so tr(A^k) is a polynomial in n of
    degree at most k: Newton's forward-difference form through
    n = 1..k+1, from ``reference_trace``, gives it at any n.
    """
    diffs = [reference_trace(transitive_tournament(m), k) for m in range(1, k + 2)]
    total = 0
    for j in range(k + 1):
        total += math.comb(n - 1, j) * diffs[0]
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return total


# three primes below 2**20: int64 products of residues stay below 2**63
ORACLE_PRIMES = (1048573, 1048571, 1048559)


def modular_trace(t, k, q):
    """tr(A^k) mod q by binary powering of int64 matrices, each product
    reduced mod q at once; A is read straight from the orientation bits."""
    n = t.n
    a = np.zeros((n, n), dtype=np.int64)
    a[np.triu_indices(n, 1)] = np.frombuffer(t.bits, dtype=np.uint8).astype(np.int64) * 2 - 1
    a = (a - a.T) % q
    power = np.eye(n, dtype=np.int64)
    while k:
        if k & 1:
            power = power @ a % q
        a = a @ a % q
        k >>= 1
    return int(np.trace(power)) % q


def paley_trace(p, k):
    """tr(A^k), k even, for the Paley tournament on p vertices, and for any
    other doubly regular tournament on p vertices.

    A is regular with A A^T = p I - J, so G = A^T A has eigenvalue p on
    the p - 1 dimensions orthogonal to the all-ones vector and 0 on it:
    tr(A^k) = (-1)**(k/2) tr(G^(k/2)).
    """
    return (-1) ** (k // 2) * (p - 1) * p ** (k // 2)


def matrix_radius(n, k):
    """E on the matrix route: the growth bound n (n-1)**(k-1) times
    N / (2**53 - N), rounded up, for N the entries of the largest row block
    (at most 2**16, or one row); 0 while the bound is below 2**53."""
    bound = n * (n - 1) ** (k - 1)
    size = min(n, max(1, 2**16 // n)) * n
    return 0 if bound < 2**53 else -(-size * bound // (2**53 - size))


def residue_edge(k):
    """The last n at which 2 E, the width of [F - E, F + E] on the matrix
    route, stays below 2**64, so that the 2**64 residue alone gives S."""
    n = 4
    while 2 * matrix_radius(n + 1, k) < 2**64:
        n += 1
    return n


def matrix_route_copy(t):
    """t relabelled by a permutation drawn from seed n, checked to be
    neither circulant nor skew-circulant as labelled: power_trace takes it
    through n x n Gram powers, never through first rows."""
    copy = relabel(t, np.random.default_rng(t.n).permutation(t.n))
    assert _toeplitz_row(copy) is None
    return copy


class TestSignMatrix:
    """Entries of ``core.sign_array``, the matrix whose powers are traced."""

    def test_c3_entries(self):
        assert sign_array(C3).tolist() == [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]

    def test_tt3_entries(self):
        assert sign_array(TT3).tolist() == [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]]

    def test_single_vertex(self):
        assert sign_array(transitive_tournament(1)).tolist() == [[0]]

    def test_skew_symmetry(self):
        for seed in SEEDS:
            rows = sign_array(random_tournament(10, seed)).tolist()
            for u in range(10):
                assert rows[u][u] == 0
                for v in range(10):
                    assert rows[u][v] == -rows[v][u]


class TestMatPowTrace:
    """tr(A^k) through ``power_trace``."""

    def test_square_trace_is_minus_n_pairs(self):
        # every off-diagonal pair contributes A_uv * A_vu = -1
        for t in [C3, TT3, transitive_tournament(7), random_tournament(13, 5)]:
            assert power_trace(t, 2) == -t.n * (t.n - 1)

    def test_c3_fourth_power(self):
        assert power_trace(C3, 4) == 18

    def test_c3_sixth_power(self):
        assert power_trace(C3, 6) == -54

    def test_rejects_zero_exponent(self):
        with pytest.raises(ValueError):
            power_trace(C3, 0)

    def test_first_power(self):
        assert power_trace(TT3, 1) == 0

    @pytest.mark.parametrize("k", [True, False, 4.0, "4", None])
    def test_rejects_non_integer_exponent(self, k):
        with pytest.raises(ValueError, match="exponent must be a positive integer"):
            power_trace(C3, k)

    def test_numpy_integer_exponent(self):
        t = random_tournament(40, 3)
        for k in (4, 5, 16):
            assert power_trace(t, np.int64(k)) == power_trace(t, k)
            assert even_cycles_trace(t, np.int64(k)) == even_cycles_trace(t, k)
        for take in CYCLE_LENGTH_TAKERS:
            assert take(C3, np.int64(4)) == take(C3, 4)

    def test_odd_powers_vanish(self):
        for seed in SEEDS:
            t = random_tournament(9, seed)
            for k in (3, 5, 7, 9):
                assert power_trace(t, k) == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 150, 301])
    def test_odd_and_square_traces_form_no_matrix(self, n, monkeypatch):
        # tr(A^k) = 0 for odd k by skew-symmetry, and tr(A^2) = -n(n-1):
        # closed forms that must not touch the signs, the Gram powers or,
        # on circulant and skew-circulant inputs, a first-row convolution
        inputs = [random_tournament(n, n), transitive_tournament(n)]
        inputs += [rotational_tournament(n)] if n % 2 and n > 1 else []

        def refuse(*args):
            raise AssertionError("a closed-form trace formed a matrix")

        for name in ("gram", "_halving", "_toeplitz_row"):
            monkeypatch.setattr(exactcount, name, refuse)
        monkeypatch.setattr(np, "convolve", refuse)
        for t in inputs:
            for k in (1, 3, 17, np.int64(5)):
                assert power_trace(t, k) == 0
            assert power_trace(t, 2) == -n * (n - 1)

    def test_wrong_gram_diagonal_raises_on_every_trace(self, tmp_path, capsys, monkeypatch):
        # a sign matrix with A[0,0] = 1 gives G[0,0] = n, not n-1: the one
        # Gram builder refuses it on the trace route too, where it would
        # otherwise make tr(A^8) 301256523 instead of 299548318
        t = random_tournament(30, 1)
        a = sign_array(t).copy()
        a[0, 0] = 1
        monkeypatch.setattr(spectral, "sign_array", lambda _: a)
        for k in (4, 16):
            with pytest.raises(InternalInvariantError, match="Gram diagonal"):
                power_trace(t, k)
        path = tmp_path / "t.trn"
        path.write_bytes(encode(t))
        assert main(["count", str(path), "--k", "8"]) == 5
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("k", [4, 16])
    @pytest.mark.parametrize("family", ["transitive", "rotational"])
    def test_wrong_first_row_diagonal_raises(self, family, k, tmp_path, capsys, monkeypatch):
        # a first row that breaks the skew-circulant (a[d] = a[n-d]) or the
        # circulant (a[d] = -a[n-d]) rule at d = 5 and 26 moves the
        # first-row Gram diagonal g_0 = n - 1 by 4: the first-row route
        # refuses it as the Gram builder refuses a wrong diagonal
        t = transitive_tournament(31) if family == "transitive" else rotational_tournament(31)
        a, skew = _toeplitz_row(t)
        a = a.copy()  # the probe's cached row is read-only
        a[5] = -a[5]
        monkeypatch.setattr(exactcount, "_toeplitz_row", lambda _: (a, skew))
        with pytest.raises(InternalInvariantError, match="Gram diagonal"):
            power_trace(t, k)
        path = tmp_path / "t.trn"
        path.write_bytes(encode(t))
        assert main(["count", str(path), "--k", str(k)]) == 5
        assert capsys.readouterr().out == ""

    def test_large_power_exceeds_int64(self):
        # C3 eigenvalue moduli are {sqrt(3), sqrt(3), 0}, so
        # tr(A^k) = +-2 * 3**(k/2) for even k; at k >= 82 this passes 2**63
        assert power_trace(C3, 100) == 2 * 3**50
        assert power_trace(C3, 102) == -2 * 3**51

    def test_two_vertex_powers(self):
        # A^2 = -I, so traces alternate between +-2 with period 4
        t = transitive_tournament(2)
        assert power_trace(t, 200) == 2
        assert power_trace(t, 202) == -2

    @pytest.mark.parametrize(
        "t",
        [
            random_tournament(60, 0),
            random_tournament(200, 1),
            paley_tournament(103),
            rotational_tournament(101),
            rotational_tournament(105),
            transitive_tournament(50),
        ],
        ids=["random60", "random200", "paley103", "rotational101", "rotational105",
             "transitive50"],
    )
    def test_fourth_power_is_gram_frobenius(self, t):
        # A^2 = -G with G symmetric, so tr(A^4) = sum of G_ij^2: an oracle
        # from the Gram matrix of the spectral layer, with no primes or CRT
        assert power_trace(t, 4) == int((gram(t).astype(np.int64) ** 2).sum())

    @pytest.mark.parametrize("k", [2, 3, 4, 6, 9, 16, 24])
    @pytest.mark.parametrize("n", [1, 2, 3, 12, 25, 40])
    def test_matches_python_integer_reference(self, n, k):
        t = random_tournament(n, 1000 + n)
        assert power_trace(t, k) == reference_trace(t, k)

    def test_reference_cases_span_several_primes(self):
        # n=40, k=24 needs six primes, so the reference cases exercise the
        # CRT join; each prime keeps products exact for every n < 64
        primes = [exactcount._prime(6, i) for i in range(6)]
        assert math.prod(primes[:5]) <= 2 * 40 * 39**23 < math.prod(primes)
        assert all(63 * (p + 4) ** 2 < 2**55 for p in primes)
        assert primes == sorted(set(primes), reverse=True)

    @pytest.mark.parametrize(
        "n, k", [(191, 16), (192, 16), (191, 17), (192, 17), (99, 17), (100, 17)]
    )
    @pytest.mark.parametrize("family", ["random", "transitive"])
    def test_exactness_boundaries(self, family, n, k, route_calls):
        # G^4 = (A^T A)^4 is formed exactly up to n = 191, where the pass
        # over the exact factors gives the float64 estimate and one 2**64
        # residue; past it the last factor is finished modulo each prime and
        # no 2**64 residue is taken.  Odd k builds no factor: its trace is 0
        # by skew-symmetry.  Every case must agree with a modular oracle that
        # shares no code with exactcount.  The transitive tournament is
        # relabelled, so that it takes n x n Gram powers as a random one does
        if family == "random":
            t = random_tournament(n, n)
        else:
            t = matrix_route_copy(transitive_tournament(n))
        trace = power_trace(t, k)
        assert route_calls["2**64"] == (1 if (n, k) == (191, 16) else 0)
        for q in ORACLE_PRIMES:
            assert trace % q == modular_trace(t, k, q)

    RESIDUE_EDGES = {k: residue_edge(k) for k in (12, 16)}

    # (2**64 residues taken, calls of _dot_mod) on each side of two route
    # boundaries: the float64 estimate's radius E turns positive past
    # n (n-1)**(k-1) < 2**53, and the 2**64 residue alone stops spanning
    # 2 E past RESIDUE_EDGES, (323, 12) and (87, 16).  E from all n**2
    # entries put the first edge at (312, 12); (313, 12) now takes the
    # residue alone.  Odd k takes neither: its trace is 0
    ROUTE_CALLS = {
        (456, 6): (0, 0), (457, 6): (1, 0), (99, 8): (0, 0), (100, 8): (1, 0),
        (312, 12): (1, 0), (313, 12): (1, 0), (87, 16): (1, 0), (88, 16): (1, 1),
        **{(n, k): (1, 0) for k, n in RESIDUE_EDGES.items()},
        **{(n + 1, k): (1, 1) for k, n in RESIDUE_EDGES.items()},
        (191, 7): (0, 0), (192, 7): (0, 0),
    }

    @pytest.fixture
    def route_calls(self, monkeypatch):
        """Counts, as they happen, of the 2**64 residues that power_trace's
        calls of _dot_wrap take and of its calls of _dot_mod, one per prime."""
        calls = {"2**64": 0, "primes": 0}
        real_wrap, real_mod = exactcount._dot_wrap, exactcount._dot_mod

        def wrap(*args):
            result = real_wrap(*args)
            calls["2**64"] += result[3] == 2**64
            return result

        def mod(*args):
            calls["primes"] += 1
            return real_mod(*args)

        monkeypatch.setattr(exactcount, "_dot_wrap", wrap)
        monkeypatch.setattr(exactcount, "_dot_mod", mod)
        return calls

    @pytest.mark.parametrize("n, k", list(ROUTE_CALLS))
    @pytest.mark.parametrize("family", ["random", "transitive"])
    def test_prime_route_boundaries(self, family, n, k, route_calls):
        # n x n Gram powers: the transitive tournament is relabelled
        if family == "random":
            t = random_tournament(n, n)
        else:
            t = matrix_route_copy(transitive_tournament(n))
        trace = power_trace(t, k)
        bound = n * (n - 1) ** (k - 1)
        assert (bound < 2**53) == (n in (456, 191, 99))
        assert (route_calls["2**64"], route_calls["primes"]) == self.ROUTE_CALLS[n, k]
        assert self.RESIDUE_EDGES == {12: 323, 16: 87}
        # S >= 2 E and S + 2 E <= bound, so F >= S - E >= E and F + E <= bound:
        # no clipping narrows [F - E, F + E], whose width 2 E sets the calls
        radius = matrix_radius(n, k)
        assert k % 2 or 2 * radius <= abs(trace) <= bound - 2 * radius
        for q in ORACLE_PRIMES:
            assert trace % q == modular_trace(t, k, q)

    # (takes the 2**64 residue, takes primes) at n = 1000-1019, on both
    # routes: E = 0 at k=4, the residue alone at k=8, the residue plus
    # primes at k=12 and the per-prime tail, with no residue, at k=16
    ROUTES_NEAR_1000 = {
        4: (False, False), 8: (True, False), 12: (True, True), 16: (False, True)
    }

    @staticmethod
    def routes_taken(route_calls):
        return route_calls["2**64"] > 0, route_calls["primes"] > 0

    def assert_both_routes(self, t, k, want, routes, route_calls):
        """t on the first-row route and a relabelled copy on the matrix
        route both give the trace ``want``, and take ``routes``."""
        for copy in (t, matrix_route_copy(t)):
            route_calls.update({"2**64": 0, "primes": 0})
            assert power_trace(copy, k) == want
            assert self.routes_taken(route_calls) == routes

    @pytest.mark.parametrize("k", [4, 6, 8, 12, 16])
    @pytest.mark.parametrize("p", [103, 503, 1019])
    def test_paley_closed_form(self, p, k, route_calls):
        # exact at every n, with no code shared with power_trace
        t = paley_tournament(p)
        assert power_trace(t, k) == paley_trace(p, k)
        if p == 1019 and k in self.ROUTES_NEAR_1000:
            self.assert_both_routes(
                t, k, paley_trace(p, k), self.ROUTES_NEAR_1000[k], route_calls
            )

    @pytest.mark.parametrize(
        "p, r, ks",
        [(3, 3, (4, 6, 8, 16)), (3, 5, (4, 6, 8, 16)), (7, 3, (4, 6, 8, 16)), (11, 3, (4, 6))],
        ids=["27", "243", "343", "1331"],
    )
    def test_doubly_regular_closed_form(self, p, r, ks, route_calls):
        # the matrix route's large-n oracle with no relabelling: a Cayley
        # tournament on Z_p^r, not on Z_q.  At q = 343, k = 16 takes the
        # per-prime tail, with no 2**64 residue, at a non-prime n
        t, _ = doubly_regular(p, r)
        assert _toeplitz_row(t) is None
        for k in ks:
            route_calls.update({"2**64": 0, "primes": 0})
            assert power_trace(t, k) == paley_trace(t.n, k), k
        if t.n == 343:
            assert self.routes_taken(route_calls) == (False, True)

    @pytest.mark.parametrize(
        "n, k", [(n, k) for n in (101, 501, 1001, 2001) for k in (4, 8, 12, 16)]
    )
    def test_rotational_convolution_power(self, n, k, route_calls):
        # an exact large-n oracle that shares no code with power_trace
        t = rotational_tournament(n)
        assert power_trace(t, k) == rotational_trace(n, k)
        if n == 1001:
            self.assert_both_routes(
                t, k, rotational_trace(n, k), self.ROUTES_NEAR_1000[k], route_calls
            )

    @pytest.mark.parametrize("k", [4, 8, 12, 16])
    @pytest.mark.parametrize("n", [1000, 1554])
    def test_transitive_polynomial(self, n, k, route_calls):
        # G^3 is not exact past n = 1553, so k = 12 at n = 1554 takes the
        # per-prime tail, with no residue
        t = transitive_tournament(n)
        want = transitive_trace(n, k)
        assert power_trace(t, k) == want
        if n == 1000:
            self.assert_both_routes(t, k, want, self.ROUTES_NEAR_1000[k], route_calls)
        elif k == 12:
            self.assert_both_routes(t, k, want, (False, True), route_calls)

    # (2**64 residues taken, calls of _dot_mod) at k = 16 on the first-row
    # route, whose S = (G^8)_00 is at most (n-1)**15 and whose one block is
    # the first row: E = 0 up to n = 12, the 2**64 residue alone up to
    # n = 153, the residue plus one prime up to n = 191, then the per-prime
    # tail (five primes up to n = 229, while M <= (n-1)**15).
    # Each family takes the nearest sizes it admits on each side of those
    # boundaries
    FIRST_ROW_CALLS = {
        11: (0, 0), 12: (0, 0), 13: (1, 0), 19: (1, 0), 151: (1, 0), 153: (1, 0),
        154: (1, 1), 155: (1, 1), 163: (1, 1), 191: (1, 1),
        192: (0, 5), 193: (0, 5), 199: (0, 5),
    }
    # family: (builder, exact oracle or None for modular_trace, sizes)
    FIRST_ROW_FAMILIES = {
        "paley": (paley_tournament, paley_trace, (11, 19, 151, 163, 191, 199)),
        "rotational": (rotational_tournament, rotational_trace, (11, 13, 153, 155, 191, 193)),
        "transitive": (transitive_tournament, transitive_trace, (12, 13, 153, 154, 191, 192)),
        "reversed-transitive": (
            lambda n: reverse(transitive_tournament(n)), transitive_trace,
            (12, 13, 153, 154, 191, 192),
        ),
        "circulant": (
            lambda n: random_circulant(n, n, np.uint8)[0], None,
            (11, 13, 153, 155, 191, 193),
        ),
    }

    @pytest.mark.parametrize(
        "family, n",
        [(f, n) for f, (_, _, sizes) in FIRST_ROW_FAMILIES.items() for n in sizes],
    )
    def test_first_row_route(self, family, n, route_calls, monkeypatch):
        # the labelled tournament takes first rows and builds no Gram
        # matrix; a relabelled copy takes n x n Gram powers; both agree with
        # an oracle that shares no code with power_trace (reversal keeps
        # every even-k trace)
        build, closed_form, _ = self.FIRST_ROW_FAMILIES[family]
        t = build(n)
        with monkeypatch.context() as patch:
            patch.setattr(exactcount, "gram", None)
            trace = power_trace(t, 16)
        assert (route_calls["2**64"], route_calls["primes"]) == self.FIRST_ROW_CALLS[n]
        assert power_trace(matrix_route_copy(t), 16) == trace
        if closed_form is None:
            for q in ORACLE_PRIMES:
                assert trace % q == modular_trace(t, 16, q)
        else:
            assert trace == closed_form(n, 16)

    @pytest.mark.parametrize("shift", [-1, 1])
    @pytest.mark.parametrize("n, k", [(100, 8), (100, 10), (313, 12), (87, 16), (150, 16)])
    def test_estimate_anywhere_in_its_radius(self, n, k, shift, monkeypatch):
        # the float64 estimate F lies within E of S = sum L R = (-1)**(k/2)
        # tr(A^k); the trace stays exact from an estimate E away from S on
        # either side, and an estimate E + 1 away lands S above F + E
        t = random_tournament(n, 7)
        expected = power_trace(t, k)
        total = -expected if k // 2 % 2 else expected
        real = exactcount._dot_wrap
        radii = []

        def shifted(*args, by=0):
            estimate, radius, residue, modulus = real(*args)
            assert abs(estimate - total) <= radius
            radii.append(radius)
            return total + shift * (radius + by), radius, residue, modulus

        monkeypatch.setattr(exactcount, "_dot_wrap", shifted)
        assert power_trace(t, k) == expected
        assert radii[-1] > 0
        monkeypatch.setattr(
            exactcount, "_dot_wrap", lambda *args: shifted(*args, by=1)
        )
        with pytest.raises(InternalInvariantError, match="radius"):
            power_trace(t, k)
        for q in ORACLE_PRIMES:
            assert expected % q == modular_trace(t, k, q)

    # estimates F on and past each end of the radius, below 0 and past the
    # growth bound, the last two clipping [max(0, F - E), min(bound, F + E)]
    # at 0 or at the bound; True where that interval holds S
    CLIPPED_ESTIMATES = {
        "below-radius": (lambda s, e, bound: s - e - 1, False),
        "low-end": (lambda s, e, bound: s - e, True),
        "high-end": (lambda s, e, bound: s + e, True),
        "above-radius": (lambda s, e, bound: s + e + 1, False),
        "negative": (lambda s, e, bound: -e - 1, False),
        "past-bound": (lambda s, e, bound: bound + 1, False),
    }

    @pytest.mark.parametrize("where", list(CLIPPED_ESTIMATES))
    @pytest.mark.parametrize("n, k", [(100, 8), (87, 16)])
    def test_clipped_interval(self, n, k, where, route_calls, monkeypatch):
        # both (n, k) reconstruct from the 2**64 residue alone; power_trace
        # returns S = tr(G^(k/2)) exactly when S is the one integer of its
        # class modulo 2**64 in the interval, and raises otherwise
        t = random_tournament(n, 4)
        expected = power_trace(t, k)
        total = -expected if k // 2 % 2 else expected
        bound = n * (n - 1) ** (k - 1)
        offset, holds = self.CLIPPED_ESTIMATES[where]
        real = exactcount._dot_wrap
        radii = []

        def placed(*args):
            _, radius, residue, modulus = real(*args)
            radii.append(radius)
            return offset(total, radius, bound), radius, residue, modulus

        monkeypatch.setattr(exactcount, "_dot_wrap", placed)
        route_calls.update({"2**64": 0, "primes": 0})
        try:
            got = power_trace(t, k)
        except InternalInvariantError:
            got = None
        assert (route_calls["2**64"], route_calls["primes"]) == (1, 0)
        radius = radii[-1]
        assert 0 < 2 * radius < 2**64
        f = offset(total, radius, bound)
        low, high = max(0, f - radius), min(bound, f + radius)
        # at most one integer of the class, since 2**64 > 2 E >= high - low
        first = low + (total - low) % 2**64
        in_class = [first] if first <= high else []
        assert (in_class == [total]) == holds
        assert got == (expected if in_class == [total] else None)

    @pytest.mark.parametrize("k", [4, 6])
    def test_negative_gram_trace_trips_sign_check(self, k, monkeypatch):
        # at n = 5 the growth bound is below 2**53, so E = 0 and no residue
        # is taken: the interval clips the estimate, -1, to [0, -1], empty,
        # rather than returning it as S
        monkeypatch.setattr(exactcount, "_dot_wrap", lambda *args: (-1, 0, 0, 1))
        with pytest.raises(InternalInvariantError, match="wrong sign"):
            power_trace(random_tournament(5, 2), k)

    def test_half_modulus_residue_error_trips_radius_check(self, monkeypatch):
        # k = 8 at n = 100 reconstructs from the 2**64 residue alone with
        # E < 2**62: a residue off by 2**63 lands at least 2**63 - 2E above
        # F + E
        real = exactcount._dot_wrap
        radii = []

        def off_by_half(*args):
            estimate, radius, residue, modulus = real(*args)
            radii.append(radius)
            return estimate, radius, (residue + 2**63) % modulus, modulus

        monkeypatch.setattr(exactcount, "_dot_wrap", off_by_half)
        with pytest.raises(InternalInvariantError, match="radius"):
            power_trace(random_tournament(100, 3), 8)
        assert 0 < 4 * radii[0] < 2**64

    @staticmethod
    def dot_wrap_inputs(top, same):
        """n = 300 factors with entries of magnitude in (top - 2**12, top],
        or (0, top] for small top; their sum and absolute sum in Python
        integers.  n = 300 takes two row blocks of 218 rows."""
        rng = np.random.default_rng(5)
        n = 300
        mags = top - rng.integers(0, min(top, 2**12), size=(2, n, n))
        signs = rng.choice(np.array([-1, 1]), size=(2, n, n))
        left, right = (mags * signs).astype(np.float64)
        if same:
            right = left
        pairs = list(zip(map(int, left.ravel()), map(int, right.ravel())))
        return left, right, sum(x * y for x, y in pairs), sum(abs(x * y) for x, y in pairs)

    @pytest.mark.parametrize("same", [False, True])
    def test_dot_wrap_matches_python_integers(self, same):
        # entries within 2**12 of +-2**52: every product passes 2**63 many
        # times over.  E comes from a block of 218 x 300 = 65 400 entries,
        # not from 90 000
        left, right, exact, bound = self.dot_wrap_inputs(2**52, same)
        assert exactcount._BLOCK_ENTRIES // 300 == 218
        estimate, radius, residue, modulus = exactcount._dot_wrap(left, right, bound)
        assert radius == -(-65400 * bound // (2**53 - 65400))
        assert abs(exact - estimate) <= radius
        assert (residue, modulus) == (exact % 2**64, 2**64)

    @pytest.mark.parametrize("same", [False, True])
    def test_dot_wrap_exact_below_2_53(self, same):
        # entries of magnitude at most 50: every partial sum is an exact
        # float64 integer, so the estimate is the sum and no residue is taken
        left, right, exact, bound = self.dot_wrap_inputs(50, same)
        assert bound < 2**53
        assert exactcount._dot_wrap(left, right, bound) == (exact, 0, 0, 1)

    @pytest.mark.parametrize(
        "n, hi, e", [(191, 4, 4), (192, 4, 3), (1553, 3, 3), (1554, 3, 2), (2, 40, 40)]
    )
    def test_exact_exponent_limits(self, n, hi, e):
        room = 2**53 - exactcount._prime(n.bit_length(), 0)
        assert exactcount._exact_exponent(n, hi, room) == e

    def test_modular_tail_matches_reference(self):
        # k = 48 at n = 40 needs G^12, past the exact limit G^5, so every
        # prime finishes it from G^3
        t = random_tournament(40, 3)
        assert power_trace(t, 48) == reference_trace(t, 48)

    @pytest.mark.parametrize(
        "family, n, k, primes", [("random", 10, 40, 5), ("transitive", 24, 34, 6)]
    )
    def test_per_prime_route_stops_past_the_bound(self, family, n, k, primes, route_calls):
        # past the exact powers F = 0 and E = bound, so S lies in [0, bound]
        # and primes join while M <= bound: n x n matrices at random 10,
        # first rows, whose bound is divided by n, at transitive 24.  A loop
        # run while M <= 2 E took one prime more at each
        t = random_tournament(n, n) if family == "random" else transitive_tournament(n)
        trace = power_trace(t, k)
        assert (route_calls["2**64"], route_calls["primes"]) == (0, primes)
        assert trace == reference_trace(t, k)
        bound = (n - 1) ** (k - 1) * (n if family == "random" else 1)
        ps = [exactcount._prime(n.bit_length(), i) for i in range(primes)]
        assert math.prod(ps[:-1]) <= bound < math.prod(ps) <= 2 * bound

    def test_residue_error_trips_growth_bound(self, monkeypatch):
        # one wrong prime residue reconstructs to a value far outside
        # [-bound, bound]: k = 48 at n = 40 is on the per-prime tail, where
        # the estimate is 0 and its radius is the growth bound
        real = exactcount._mod
        primes = []

        def off_by_one(src, p, out):
            real(src, p, out)
            if src.ndim == 1 and not primes:
                primes.append(p)
                out[0] += 1
            return out

        monkeypatch.setattr(exactcount, "_mod", off_by_one)
        with pytest.raises(InternalInvariantError):
            power_trace(random_tournament(40, 3), 48)
        assert primes

    def test_prime_free_trace_peaks_at_gram(self):
        # k = 4 at n = 2000 has its bound below 2**53, so no prime runs and
        # nothing holds residues: the peak is gram's float32 and float64 G
        t = random_tournament(2000, 1)
        sign_array(t)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            power_trace(t, 4)
            assert tracemalloc.get_traced_memory()[1] - held < 13 * t.n**2
        finally:
            tracemalloc.stop()


class TestTotalCycles:
    @pytest.mark.parametrize(
        "n,k,expected", [(4, 4, 84), (3, 5, 30), (2, 4, 2), (1, 6, 0), (3, 4, 18)]
    )
    def test_formula(self, n, k, expected):
        assert total_cycles(n, k) == expected

    def test_rejects_short_cycles(self):
        with pytest.raises(ValueError):
            total_cycles(5, 1)

    def test_numpy_integers(self):
        # 9**np.int64(40) wraps in int64; the count must be 9**40 + 9
        assert total_cycles(10, np.int64(40)) == 9**40 + 9
        assert total_cycles(np.int64(10), 40) == 9**40 + 9
        assert type(total_cycles(np.int32(10), np.int64(40))) is int

    @pytest.mark.parametrize("n, k", [(5, 2.5), (5.0, 4), (True, 4), (5, True), (0, 4)])
    def test_rejects_non_counts(self, n, k):
        with pytest.raises(ValueError):
            total_cycles(n, k)

    def test_matches_enumeration(self):
        for n in range(1, 9):
            t = random_tournament(n, n)
            for k in range(2, 7):
                even, odd = brute_force_count(t, k)
                assert even + odd == total_cycles(n, k)


class TestEvenCyclesTrace:
    def test_c3_k4(self):
        rep = even_cycles_trace(C3, 4)
        assert (rep.even, rep.total, rep.trace) == (18, 18, 18)

    def test_c3_k5(self):
        rep = even_cycles_trace(C3, 5)
        assert (rep.even, rep.total, rep.trace) == (15, 30, 0)

    def test_c3_k6(self):
        rep = even_cycles_trace(C3, 6)
        assert (rep.even, rep.odd, rep.total, rep.trace) == (6, 60, 66, -54)

    def test_two_cycles_are_all_odd(self):
        for seed in SEEDS:
            rep = even_cycles_trace(random_tournament(8, seed), 2)
            assert rep.even == 0 and rep.odd == rep.total

    def test_no_cycles_at_all(self):
        rep = even_cycles_trace(transitive_tournament(1), 4)
        assert rep.total == 0 and rep.even_fraction is None

    def test_fraction(self):
        rep = even_cycles_trace(C3, 6)
        assert rep.even_fraction == Fraction(6, 66)

    def test_rejects_short_cycles(self):
        with pytest.raises(ValueError):
            even_cycles_trace(C3, 1)

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 8])
    def test_wrong_trace_fails_loudly(self, k, monkeypatch):
        # a trace off by one for even k has the wrong parity, and a nonzero
        # trace for odd k breaks the even = odd pairing; the report refuses both
        t = random_tournament(9, 2)
        real = exactcount.power_trace
        monkeypatch.setattr(
            exactcount, "power_trace", lambda t, k: real(t, k) + 1 if k % 2 == 0 else 2
        )
        with pytest.raises(InternalInvariantError):
            even_cycles_trace(t, k)

    def test_agrees_with_enumeration_small(self):
        for n in range(2, 7):
            for seed in SEEDS:
                t = random_tournament(n, seed)
                for k in range(2, 7):
                    rep = even_cycles_trace(t, k)
                    assert (rep.even, rep.odd) == brute_force_count(t, k)

    def test_even_k_reversal_invariance(self):
        for seed in SEEDS:
            t = random_tournament(7, seed)
            for k in (4, 6):
                assert even_cycles_trace(t, k).even == even_cycles_trace(reverse(t), k).even

    def test_relabel_invariance(self):
        t = random_tournament(6, 17)
        shuffled = relabel(t, [5, 3, 0, 1, 4, 2])
        for k in range(2, 7):
            assert even_cycles_trace(t, k).even == even_cycles_trace(shuffled, k).even


class TestCycleParity:
    def test_backtracking_walk_is_even(self):
        assert cycle_parity(C3, (0, 1, 2, 1)) == "even"

    def test_pingpong_walk_is_even(self):
        assert cycle_parity(C3, (0, 2, 0, 2)) == "even"

    def test_transitive_triangle_is_odd(self):
        assert cycle_parity(TT3, (0, 1, 2)) == "odd"

    def test_directed_triangle_is_even(self):
        assert cycle_parity(C3, (0, 1, 2)) == "even"

    def test_rejects_immediate_repeats(self):
        with pytest.raises(ValueError):
            cycle_parity(C3, (0, 0, 1))
        with pytest.raises(ValueError):
            cycle_parity(C3, (0, 1, 2, 0))  # closing step repeats vertex 0

    def test_rejects_short_sequences(self):
        with pytest.raises(ValueError):
            cycle_parity(C3, (0,))

    @pytest.mark.parametrize(
        "seq",
        [
            (0, 1.9, 2.2), (0.0, 1, 2), (False, True, 2), ("0", "1", "2"),
            (0, 1, 3), (-1, 0, 1),
        ],
        ids=["floats", "float_zero", "bools", "strings", "too_large", "negative"],
    )
    def test_rejects_non_vertices(self, seq):
        # entries are checked, never truncated: (0, 1.9, 2.2) is not (0, 1, 2)
        with pytest.raises(ValueError, match="out of range"):
            cycle_parity(C3, seq)

    def test_numpy_integer_vertices(self):
        seq = np.array([0, 1, 2, 1], dtype=np.int64)
        assert cycle_parity(C3, tuple(seq)) == cycle_parity(C3, (0, 1, 2, 1)) == "even"
        assert cycle_parity(TT3, np.array([0, 1, 2], dtype=np.uint8)) == "odd"

    @pytest.mark.parametrize(
        "n,seq,dtype",
        [
            (100, (50, 60, 70), np.uint8),
            (150, (10, 140, 130, 20), np.uint8),
            (300, (210, 250, 290, 220, 5), np.int16),
        ],
    )
    def test_small_dtype_vertices_do_not_wrap(self, n, seq, dtype):
        # u * (2n - u - 1) overflows uint8 / int16; parity must not change
        t = random_tournament(n, 9)
        assert cycle_parity(t, np.array(seq, dtype=dtype)) == cycle_parity(t, seq)

    def test_matches_enumeration_classification(self):
        # tally parity over every admissible 4-walk and compare to the oracle
        t = random_tournament(5, 23)
        even = odd = 0
        import itertools

        for seq in itertools.product(range(5), repeat=4):
            if all(seq[i] != seq[(i + 1) % 4] for i in range(4)):
                if cycle_parity(t, seq) == "even":
                    even += 1
                else:
                    odd += 1
        assert (even, odd) == brute_force_count(t, 4)


class TestBruteForce:
    def test_c3_k4(self):
        assert brute_force_count(C3, 4) == (18, 0)

    def test_tt3_k4(self):
        assert brute_force_count(TT3, 4) == (18, 0)

    def test_two_vertices_k4(self):
        assert brute_force_count(transitive_tournament(2), 4) == (2, 0)

    def test_guard_refusal(self):
        with pytest.raises(ResourceLimitError) as exc:
            brute_force_count(random_tournament(30, 0), 8)
        assert "100000000" in str(exc.value)

    @pytest.mark.parametrize("n, k", [(10, 9), (2, 27), (2, 1500), (2, 15000)])
    def test_guard_refuses_before_enumerating(self, n, k, monkeypatch):
        # n**k > 10**8 is refused before any arc is read, so deep
        # recursion and huge powers never happen; 2**15000 has more digits
        # than Python converts to a string
        t = random_tournament(n, 0)
        monkeypatch.setattr(spectral, "sign_array", None)
        monkeypatch.setattr(exactcount, "edge_sign", None)
        with pytest.raises(ResourceLimitError) as exc:
            brute_force_count(t, k)
        assert str(exc.value) == (
            f"enumeration of {n}**{k} sequences exceeds the limit 100000000"
        )

    def test_guard_admits_the_limit(self):
        # n**k <= 10**8 enumerates; k = 26 at n = 2 is the deepest recursion
        assert brute_force_count(transitive_tournament(2), 26) == (0, 2)

    def test_rejects_short_cycles(self):
        with pytest.raises(ValueError):
            brute_force_count(C3, 1)

    def test_guard_takes_numpy_integers(self):
        # 30**np.int64(20) wraps to a negative int64; the guard must see 30**20
        with pytest.raises(ResourceLimitError):
            brute_force_count(random_tournament(30, 1), np.int64(20))

    @pytest.mark.parametrize("k", [True, 4.0, "4", None])
    def test_rejects_non_integer_lengths(self, k):
        # refused by the one count rule before any arithmetic, by every taker
        for take in CYCLE_LENGTH_TAKERS:
            with pytest.raises(ValueError, match="cycle length must be an integer >= 2"):
                take(C3, k)


def test_trace_sign_structure():
    # tr(A^k) has the sign of (-1)**(k/2), so the even count lies on the
    # matching side of half the total
    draws = [random_tournament(n, seed) for n in (20, 50) for seed in SEEDS]
    families = [transitive_tournament(20), rotational_tournament(21), C3]
    for t in draws + families:
        for k in (2, 4, 6, 8, 10, 12):
            rep = even_cycles_trace(t, k)
            if k % 4:
                assert rep.trace <= 0 and 2 * rep.even <= rep.total
            else:
                assert rep.trace >= 0 and 2 * rep.even >= rep.total


def test_report_invariant_validation():
    # C3's 2-, 3- and 4-cycles: valid reports, as even_cycles_trace gives them
    for k, total, even, odd, trace in [(2, 6, 0, 6, -6), (3, 6, 3, 3, 0), (4, 18, 18, 0, 18)]:
        rep = exactcount.CycleCountReport(k=k, total=total, even=even, odd=odd, trace=trace)
        assert rep == even_cycles_trace(C3, k)
        assert rep.even_fraction == Fraction(even, total)
    # the fraction is derived from the counts, never passed
    with pytest.raises(TypeError):
        exactcount.CycleCountReport(
            k=4, total=18, even=18, odd=0, trace=18, even_fraction=Fraction(1, 2)
        )
    assert even_cycles_trace(random_tournament(2, 0), 3).even_fraction is None
    with pytest.raises(InternalInvariantError):
        exactcount.CycleCountReport(k=4, total=10, even=4, odd=5, trace=0)


@pytest.mark.parametrize(
    "k, total, even, odd, trace",
    [
        (4, 2, -1, 3, -4),
        (4, 2, 3, -1, 4),
        (4, 10, 4, 5, -1),
        (4, 10, 6, 4, 0),
        (3, 10, 6, 4, 2),
        (3, 10, 6, 4, 0),
    ],
    ids=[
        "negative-even", "negative-odd", "sum-not-total", "even-k-trace",
        "odd-k-nonzero-trace", "odd-k-unbalanced",
    ],
)
def test_report_refuses_each_broken_fact(k, total, even, odd, trace):
    facts = [even >= 0, odd >= 0, even + odd == total, trace == even - odd]
    facts.append(k % 2 == 0 or trace == 0)
    assert facts.count(False) == 1  # each case breaks one fact and keeps the others
    with pytest.raises(InternalInvariantError):
        exactcount.CycleCountReport(k=k, total=total, even=even, odd=odd, trace=trace)
