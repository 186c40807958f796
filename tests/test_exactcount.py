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
    ec_bound_check,
    even_cycles_trace,
    gram,
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

    def test_odd_powers_vanish(self):
        for seed in SEEDS:
            t = random_tournament(9, seed)
            for k in (3, 5, 7, 9):
                assert power_trace(t, k) == 0

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

    def test_residue_error_trips_growth_bound(self, monkeypatch):
        # one wrong residue reconstructs to a value far outside [-bound, bound]
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
            power_trace(random_tournament(12, 3), 16)


class TestTotalCycles:
    @pytest.mark.parametrize(
        "n,k,expected", [(4, 4, 84), (3, 5, 30), (2, 4, 2), (1, 6, 0), (3, 4, 18)]
    )
    def test_formula(self, n, k, expected):
        assert total_cycles(n, k) == expected

    def test_rejects_short_cycles(self):
        with pytest.raises(ValueError):
            total_cycles(5, 1)

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


class TestBoundCheck:
    def test_c3_k4(self):
        res = ec_bound_check(C3, 4)
        assert res.satisfied and res.side == "at_least"
        assert res.even == 18 and res.bound == 9

    def test_c3_k6(self):
        res = ec_bound_check(C3, 6)
        assert res.satisfied and res.side == "at_most"
        assert res.even == 6 and res.bound == 33

    def test_rejects_odd_k(self):
        with pytest.raises(ValueError):
            ec_bound_check(C3, 5)

    def test_rejects_k2(self):
        with pytest.raises(ValueError):
            ec_bound_check(C3, 2)

    def test_random_instances_satisfy(self):
        for seed in SEEDS:
            t = random_tournament(50, seed)
            for k in (4, 6, 8):
                assert ec_bound_check(t, k).satisfied

    def test_families_satisfy(self):
        for t in [transitive_tournament(20), rotational_tournament(21), C3]:
            for k in (4, 6, 8, 12):
                assert ec_bound_check(t, k).satisfied


def test_trace_sign_structure():
    for seed in SEEDS:
        t = random_tournament(20, seed)
        for k in (4, 8, 12):
            assert power_trace(t, k) >= 0
        for k in (2, 6, 10):
            assert power_trace(t, k) <= 0


def test_report_invariant_validation():
    with pytest.raises(InternalInvariantError):
        exactcount.CycleCountReport(
            k=4, total=10, even=4, odd=5, trace=0, even_fraction=None
        )
