"""Tests for Gram construction, the eigvalsh-based spectra, and moments.

The frozen constants come from the closed-form spectra of the structured
families (cyclic triangle: moduli {sqrt(3), sqrt(3), 0}; quadratic-residue
tournament on p vertices: sqrt(p) with multiplicity p-1, plus one zero;
rotational tournament on odd n: the circulant eigenvalues
2i * sum_{j=1}^{(n-1)/2} sin(2 pi j k / n), k = 0..n-1).
"""

import math

import numpy as np
import pytest

from qrtour import (
    gram,
    lambda1,
    moment_crosscheck,
    paley_tournament,
    quasirandom_certificate,
    random_tournament,
    relabel,
    reverse,
    rotational_tournament,
    power_trace,
    transitive_tournament,
)
from qrtour.core import sign_array

SEEDS = [0, 3, 11, 47]

C3 = rotational_tournament(3)
TT3 = transitive_tournament(3)


class TestGram:
    def test_c3_is_circulant(self):
        g = gram(C3)
        assert g.tolist() == [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]

    def test_tt3(self):
        g = gram(TT3)
        assert g.tolist() == [[2, 1, -1], [1, 2, 1], [-1, 1, 2]]

    def test_diagonal_is_degree(self):
        for seed in SEEDS:
            n = 9
            g = gram(random_tournament(n, seed))
            assert np.all(np.diag(g) == n - 1)

    def test_trace(self):
        n = 12
        g = gram(random_tournament(n, 1))
        assert np.trace(g) == n * (n - 1)

    def test_positive_semidefinite(self):
        for seed in SEEDS:
            g = gram(random_tournament(10, seed))
            assert np.linalg.eigvalsh(g).min() > -1e-9

    @pytest.mark.parametrize(
        "make, n",
        [(lambda n: random_tournament(n, n), n) for n in (1, 2, 3, 64, 301)]
        + [(transitive_tournament, n) for n in (1, 2, 3, 64, 301)]
        # the nearest sizes these families admit
        + [(rotational_tournament, n) for n in (3, 65, 301)]
        + [(paley_tournament, n) for n in (3, 67, 307)],
    )
    def test_equals_integer_product(self, make, n):
        t = make(n)
        g = gram(t)
        a = sign_array(t).astype(np.int64)
        assert g.dtype == np.float64 and g.flags.c_contiguous
        assert np.array_equal(g, a.T @ a)

    def test_entries_read_only(self):
        g = gram(C3)
        with pytest.raises(ValueError):
            g[0, 0] = 99.0


class TestLambda1:
    def test_c3(self):
        s = lambda1(C3)
        assert abs(s.lambda1_abs - math.sqrt(3)) < 1e-9

    def test_tt3(self):
        s = lambda1(TT3)
        assert abs(s.lambda1_abs - math.sqrt(3)) < 1e-9

    @pytest.mark.parametrize("p", [7, 11, 19, 103, 199])
    def test_paley(self, p):
        s = lambda1(paley_tournament(p))
        assert abs(s.lambda1_abs - math.sqrt(p)) < 1e-8

    @pytest.mark.parametrize("n", [9, 15, 21, 33])
    def test_rotational_closed_form(self, n):
        # for 3 | n every vector of period 3 is orthogonal to the dominant eigenspace
        expected = max(
            abs(2 * sum(math.sin(2 * math.pi * j * k / n) for j in range(1, (n - 1) // 2 + 1)))
            for k in range(n)
        )
        s = lambda1(rotational_tournament(n))
        assert abs(s.lambda1_abs - expected) <= 1e-9 * expected
        assert s.lambda1_upper >= expected

    def test_single_vertex(self):
        s = lambda1(transitive_tournament(1))
        assert s.lambda1_abs == 0.0 and s.lambda1_upper == 0.0

    def test_agrees_with_eigh(self):
        for seed in SEEDS:
            t = random_tournament(25, seed)
            expected = math.sqrt(np.linalg.eigvalsh(gram(t)).max())
            got = lambda1(t).lambda1_abs
            assert abs(got - expected) / expected < 1e-8

    def test_invariant_under_reverse_and_relabel(self):
        t = random_tournament(16, 9)
        base = lambda1(t).lambda1_abs
        assert abs(lambda1(reverse(t)).lambda1_abs - base) < 1e-8 * base
        perm = list(reversed(range(16)))
        assert abs(lambda1(relabel(t, perm)).lambda1_abs - base) < 1e-8 * base


class TestFullSpectrum:
    def test_c3(self):
        s = lambda1(C3)
        r3 = math.sqrt(3)
        assert np.allclose(s.singular_values, [r3, r3, 0.0], atol=1e-9)

    def test_paley7(self):
        s = lambda1(paley_tournament(7))
        r7 = math.sqrt(7)
        assert np.allclose(s.singular_values, [r7] * 6 + [0.0], atol=1e-8)

    def test_tt4_values_pair_up(self):
        s = lambda1(transitive_tournament(4))
        v = s.singular_values
        assert len(v) == 4
        assert abs(v[0] - v[1]) < 1e-8 and abs(v[2] - v[3]) < 1e-8

    def test_values_descending_nonnegative(self):
        s = lambda1(random_tournament(14, 4))
        v = list(s.singular_values)
        assert v == sorted(v, reverse=True)
        assert v[-1] >= 0.0

    def test_square_sum_identity(self):
        for seed in SEEDS:
            n = 18
            s = lambda1(random_tournament(n, seed))
            total = sum(x * x for x in s.singular_values)
            assert abs(total - n * (n - 1)) <= 1e-10 * n * (n - 1)

    def test_agrees_with_eigh(self):
        for t in (
            random_tournament(20, 8),
            transitive_tournament(20),
            rotational_tournament(21),
            paley_tournament(19),
        ):
            expected = np.sqrt(np.clip(np.linalg.eigvalsh(gram(t))[::-1], 0, None))
            s = lambda1(t)
            assert len(s.singular_values) == t.n
            assert np.allclose(s.singular_values, expected, atol=1e-8)
            assert s.singular_values[0] == s.lambda1_abs

    @pytest.mark.parametrize(
        "t",
        [
            random_tournament(40, 8),
            random_tournament(41, 8),  # odd n: one modulus is zero
            transitive_tournament(41),
            rotational_tournament(45),
            paley_tournament(43),
        ],
        ids=["random-even", "random-odd", "transitive", "rotational", "paley"],
    )
    def test_moduli_are_the_clamped_square_roots_bit_for_bit(self, t):
        # negative and signed-zero Gram eigenvalues both become +0.0
        eigs = np.linalg.eigvalsh(gram(t))[::-1]
        expected = np.sqrt(np.clip(eigs, 0.0, None))
        moduli = np.array(lambda1(t).singular_values)
        assert moduli.tobytes() == expected.tobytes()
        assert not np.signbit(moduli).any()
        # lambda1's argument order: a signed zero comes out +0.0, as from clip
        assert np.maximum(np.array([-0.0, -1e-300, 0.0]), 0.0).tobytes() == bytes(24)

    def test_single_vertex(self):
        s = lambda1(transitive_tournament(1))
        assert s.singular_values == (0.0,)


class TestMomentCrosscheck:
    def test_c3_values(self):
        assert moment_crosscheck(C3, 4) < 1e-12
        assert moment_crosscheck(C3, 6) < 1e-12

    def test_k2_is_gram_trace(self):
        for seed in SEEDS:
            assert moment_crosscheck(random_tournament(12, seed), 2) < 1e-12

    def test_random_instances(self):
        for seed in SEEDS:
            t = random_tournament(30, seed)
            for k in (2, 4, 6, 8, 10):
                assert moment_crosscheck(t, k) <= 1e-8

    def test_rejects_odd_k(self):
        with pytest.raises(ValueError):
            moment_crosscheck(C3, 3)

    @pytest.mark.parametrize(
        "t, k",
        [(random_tournament(40, 1), 400), (paley_tournament(19), 500),
         (rotational_tournament(21), 402)],
        ids=["random-40-400", "paley-19-500", "rotational-21-402"],
    )
    def test_large_k_stays_in_float_range(self, t, k):
        # sigma_1**k and tr(A^k) are far past float range
        assert moment_crosscheck(t, k) <= 1e-8

    def test_single_vertex_gap_is_zero(self):
        # sigma_1 = 0 and every trace is 0
        for k in (2, 4, 400):
            assert moment_crosscheck(transitive_tournament(1), k) == 0.0

    def test_spectral_moment_sign_matches_trace_sign(self):
        for seed in SEEDS:
            t = random_tournament(12, seed)
            summary = lambda1(t)
            sig = np.asarray(summary.singular_values)
            for k in (2, 4, 6, 8):
                moment = (-1.0) ** (k // 2) * float(np.sum(sig**k))
                trace = power_trace(t, k)
                if trace > 0:
                    assert moment > -1e-6
                elif trace < 0:
                    assert moment < 1e-6


class TestCertificate:
    def test_paley_103_certified(self):
        rep = quasirandom_certificate(paley_tournament(103), 0.2)
        assert rep.status == "certified"
        assert abs(rep.ratio - 1 / math.sqrt(103)) < 1e-9

    def test_transitive_100_refused(self):
        rep = quasirandom_certificate(transitive_tournament(100), 0.2)
        assert rep.status == "refused"
        assert rep.ratio > 0.6

    def test_single_vertex_certified(self):
        rep = quasirandom_certificate(transitive_tournament(1), 0.5)
        assert rep.status == "certified" and rep.ratio == 0.0

    def test_rotational_15_refused(self):
        # true ratio 9.514 / 15 = 0.634, far above the threshold
        rep = quasirandom_certificate(rotational_tournament(15), 0.2)
        assert rep.status == "refused"
        assert abs(rep.ratio - 9.514364454222585 / 15) < 1e-9

    @pytest.mark.parametrize("threshold", [0.0, 1.0, -0.5, 2.0])
    def test_threshold_validation(self, threshold):
        with pytest.raises(ValueError):
            quasirandom_certificate(C3, threshold)
