"""Tests for exact matrix-power traces and even/odd cycle counting.

All frozen expected values were derived by independent means: hand
multiplication of the 3x3 circulant, eigenvalue arithmetic (the cyclic
triangle has eigenvalue moduli {sqrt(3), sqrt(3), 0}), a plain
Python-integer matrix power written here, and the enumeration oracle itself.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import qrtour.exactcount as exactcount
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
from qrtour.core import sign_array

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
        # closed forms that must not touch the signs or the Gram powers
        t = random_tournament(n, n)

        def refuse(*args):
            raise AssertionError("a closed-form trace formed a matrix")

        monkeypatch.setattr(exactcount, "sign_array", refuse)
        monkeypatch.setattr(exactcount, "_halving", refuse)
        for k in (1, 3, 17, np.int64(5)):
            assert power_trace(t, k) == 0
        assert power_trace(t, 2) == -n * (n - 1)

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
    def test_exactness_boundaries(self, family, n, k, monkeypatch):
        # G^4 = (A^T A)^4 is formed exactly up to n = 191, where the float64
        # estimate comes with one 2**64 residue; past it the last factor is
        # finished modulo each prime and no 2**64 residue is taken.  Odd k
        # builds no factor: its trace is 0 by skew-symmetry.  Every case must
        # agree with a modular oracle that shares no code with exactcount.
        t = random_tournament(n, n) if family == "random" else transitive_tournament(n)
        wraps = []
        real = exactcount._dot_wrap
        monkeypatch.setattr(
            exactcount, "_dot_wrap", lambda *args: wraps.append(1) or real(*args)
        )
        trace = power_trace(t, k)
        assert len(wraps) == (1 if (n, k) == (191, 16) else 0)
        for q in ORACLE_PRIMES:
            assert trace % q == modular_trace(t, k, q)

    # (calls of _dot_wrap, calls of _dot_mod) on each side of two route
    # boundaries: the float64 estimate's radius E turns positive past
    # n (n-1)**(k-1) < 2**53, and the 2**64 residue alone stops exceeding 2E
    # past (312, 12) and (87, 16).  Odd k takes neither: its trace is 0
    ROUTE_CALLS = {
        (456, 6): (0, 0), (457, 6): (1, 0), (99, 8): (0, 0), (100, 8): (1, 0),
        (312, 12): (1, 0), (313, 12): (1, 1), (87, 16): (1, 0), (88, 16): (1, 1),
        (191, 7): (0, 0), (192, 7): (0, 0),
    }

    @pytest.mark.parametrize("n, k", list(ROUTE_CALLS))
    @pytest.mark.parametrize("family", ["random", "transitive"])
    def test_prime_route_boundaries(self, family, n, k, monkeypatch):
        t = random_tournament(n, n) if family == "random" else transitive_tournament(n)
        calls = {"_dot_wrap": 0, "_dot_mod": 0}
        for name in calls:
            real = getattr(exactcount, name)

            def counted(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(exactcount, name, counted)
        trace = power_trace(t, k)
        fits = n * (n - 1) ** (k - 1) < 2**53
        assert fits == (n in (456, 191, 99))
        assert (calls["_dot_wrap"], calls["_dot_mod"]) == self.ROUTE_CALLS[n, k]
        for q in ORACLE_PRIMES:
            assert trace % q == modular_trace(t, k, q)

    @pytest.mark.parametrize("shift", [-1, 1])
    @pytest.mark.parametrize("n, k", [(100, 8), (100, 10), (313, 12), (87, 16), (150, 16)])
    def test_estimate_anywhere_in_its_radius(self, n, k, shift, monkeypatch):
        # the float64 estimate F lies within E of S = sum L R = (-1)**(k/2)
        # tr(A^k); the trace stays exact from an estimate E away from S on
        # either side, and an estimate E + 1 away lands S above F + E
        t = random_tournament(n, 7)
        expected = power_trace(t, k)
        total = -expected if k // 2 % 2 else expected
        real = exactcount._estimate
        radii = []

        def shifted(*args, by=0):
            estimate, radius = real(*args)
            assert abs(estimate - total) <= radius
            radii.append(radius)
            return total + shift * (radius + by), radius

        monkeypatch.setattr(exactcount, "_estimate", shifted)
        assert power_trace(t, k) == expected
        assert radii[-1] > 0
        monkeypatch.setattr(
            exactcount, "_estimate", lambda *args: shifted(*args, by=1)
        )
        with pytest.raises(InternalInvariantError, match="radius"):
            power_trace(t, k)
        for q in ORACLE_PRIMES:
            assert expected % q == modular_trace(t, k, q)

    @pytest.mark.parametrize("k", [4, 6])
    def test_negative_gram_trace_trips_sign_check(self, k, monkeypatch):
        # at n = 5 the growth bound is below 2**53, so E = 0 and no residue
        # is taken: S reconstructs as the estimate, -1, inside the radius
        # and the growth bound
        monkeypatch.setattr(exactcount, "_estimate", lambda *args: (-1, 0))
        with pytest.raises(InternalInvariantError, match="wrong sign"):
            power_trace(random_tournament(5, 2), k)

    def test_half_modulus_residue_error_trips_radius_check(self, monkeypatch):
        # k = 8 at n = 100 reconstructs from the 2**64 residue alone with
        # E < 2**62: a residue off by 2**63 lands at least 2**63 - 2E above
        # F + E
        real_estimate, real_wrap = exactcount._estimate, exactcount._dot_wrap
        radii = []

        def estimate(*args):
            result = real_estimate(*args)
            radii.append(result[1])
            return result

        monkeypatch.setattr(exactcount, "_estimate", estimate)
        monkeypatch.setattr(
            exactcount, "_dot_wrap", lambda *args: (real_wrap(*args) + 2**63) % 2**64
        )
        with pytest.raises(InternalInvariantError, match="radius"):
            power_trace(random_tournament(100, 3), 8)
        assert 0 < 4 * radii[0] < 2**64

    @pytest.mark.parametrize("same", [False, True])
    def test_dot_wrap_matches_python_integers(self, same):
        # entries within 2**12 of +-2**52: every product passes 2**63 many
        # times over, and n = 300 takes two row blocks
        rng = np.random.default_rng(5)
        n = 300
        mags = 2**52 - rng.integers(0, 2**12, size=(2, n, n))
        signs = rng.choice(np.array([-1, 1]), size=(2, n, n))
        left, right = (mags * signs).astype(np.float64)
        if same:
            right = left
        assert n > exactcount._BLOCK_ENTRIES // n
        exact = sum(
            x * y for x, y in zip(map(int, left.ravel()), map(int, right.ravel()))
        )
        assert exactcount._dot_wrap(left, right) == exact % 2**64

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

    def test_guard_is_adjustable(self):
        t = random_tournament(3, 0)
        with pytest.raises(ResourceLimitError):
            brute_force_count(t, 4, limit=10)

    def test_rejects_short_cycles(self):
        with pytest.raises(ValueError):
            brute_force_count(C3, 1)

    @pytest.mark.parametrize("limit", [-1, 0, True, 1e8, "100"])
    def test_limit_follows_the_count_rule(self, limit):
        # bad input, not a guard that fired
        with pytest.raises(ValueError) as exc:
            brute_force_count(C3, 4, limit=limit)
        assert str(exc.value) == f"limit must be a positive integer, got {limit!r}"
        assert brute_force_count(C3, 4, limit=np.int64(81)) == (18, 0)

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
    with pytest.raises(InternalInvariantError):
        exactcount.CycleCountReport(
            k=4, total=10, even=4, odd=5, trace=0, even_fraction=None
        )
