"""Tests for Gram construction, the eigvalsh and FFT spectra, and moments.

The frozen constants come from the closed-form spectra of the structured
families (cyclic triangle: moduli {sqrt(3), sqrt(3), 0}; quadratic-residue
tournament on p vertices: sqrt(p) with multiplicity p-1, plus one zero;
rotational tournament on odd n: the circulant eigenvalues
2i * sum_{j=1}^{(n-1)/2} sin(2 pi j k / n), k = 0..n-1; transitive
tournament on n vertices: the skew-circulant moduli |cot((2j-1) pi / 2n)|,
j = 1..n).
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import qrtour.core as core
import qrtour.spectral as spectral
from qrtour import (
    InternalInvariantError,
    disc_localsearch,
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
from tournament_builders import (
    doubly_regular,
    flip,
    lambda1_rungs,
    patch_eigvalsh,
    patch_fft_nan,
    random_circulant,
    random_skew_circulant,
)

SEEDS = [0, 3, 11, 47]

C3 = rotational_tournament(3)
TT3 = transitive_tournament(3)


def _rotational_moduli(n):
    """The direct sums 2 |sum_{k <= (n-1)/2} sin(2 pi j k / n)|, j = 0..n-1."""
    m = (n - 1) // 2
    return [
        abs(2 * math.fsum(math.sin(2 * math.pi * j * k / n) for k in range(1, m + 1)))
        for j in range(n)
    ]


def _transitive_moduli(n):
    """|cot((2j - 1) pi / 2n)|, j = 1..n, in descending order."""
    j = np.arange(1, n + 1)
    return np.sort(np.abs(1 / np.tan((2 * j - 1) * np.pi / (2 * n))))[::-1]


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
        assert s.solver == "fft"
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
        assert s.solver == "fft"
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

    def test_modulus_above_n_raises_on_eigvalsh(self, monkeypatch):
        # the true eigenvalues with the top one raised to (n + 1)^2: a
        # |lambda1| of n + 1, which no tournament on n vertices has
        t = random_tournament(20, 1)
        patch_eigvalsh(monkeypatch, lambda eigs: np.append(eigs[:-1], (t.n + 1) ** 2))
        with pytest.raises(InternalInvariantError, match="square-sum"):
            lambda1(t)

    @pytest.mark.parametrize(
        "t", [random_tournament(20, 0), doubly_regular(3, 3)[0]], ids=["random-20", "q-27"]
    )
    def test_scaled_eigenvalues_raise_on_eigvalsh(self, monkeypatch, t):
        # a relative 1e-9 moves the square sum by thousands of slacks
        assert lambda1(t).solver == "eigvalsh"
        patch_eigvalsh(monkeypatch, lambda eigs: eigs * (1 + 1e-9))
        with pytest.raises(InternalInvariantError, match="square-sum"):
            lambda1(t)

    @pytest.mark.parametrize(
        "call",
        [lambda1, lambda t: quasirandom_certificate(t, 0.5), lambda t: disc_localsearch(t, 2, 0)],
        ids=["lambda1", "quasirandom_certificate", "disc_localsearch"],
    )
    def test_nan_top_eigenvalue_raises(self, monkeypatch, call):
        # NaN passes every x > bound; the square-sum check is written to fail it
        patch_eigvalsh(monkeypatch, lambda eigs: np.append(eigs[:-1], np.nan))
        with pytest.raises(InternalInvariantError, match="square-sum"):
            call(random_tournament(20, 0))

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
        # one input per route; TestCirculantRoute checks the FFT route more closely
        for t in (random_tournament(20, 8), transitive_tournament(20)):
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
            # none is circulant or skew-circulant as labelled, so each takes eigvalsh
            transitive_tournament(1),
            core._circulant(10, np.arange(10) <= 5),  # even n, rows are prefixes
            core._circulant(11, np.arange(11) <= 3),  # odd n, rows are prefixes
            flip(rotational_tournament(45), 3, 30),
            flip(paley_tournament(43), 0, 1),
            flip(transitive_tournament(41), 3, 30),
            flip(transitive_tournament(40), 0, 1),
        ],
        ids=[
            "random-even", "random-odd", "transitive-1", "even-10", "odd-11",
            "rotational-45-flipped", "paley-43-flipped", "transitive-41-flipped",
            "transitive-40-flipped",
        ],
    )
    def test_moduli_are_the_clamped_square_roots_bit_for_bit(self, t):
        # negative and signed-zero Gram eigenvalues both become +0.0
        n = t.n
        eigs = np.linalg.eigvalsh(gram(t))[::-1]
        expected = np.sqrt(np.clip(eigs, 0.0, None))
        s = lambda1(t)
        assert s.solver == "eigvalsh"
        assert s.lambda1_abs == math.sqrt(eigs[0])
        assert s.lambda1_upper == math.sqrt(eigs[0] + n * np.finfo(float).eps * n * (n - 1))
        moduli = np.array(s.singular_values)
        assert moduli.tobytes() == expected.tobytes()
        assert not np.signbit(moduli).any()
        # lambda1's argument order: a signed zero comes out +0.0, as from clip
        assert np.maximum(np.array([-0.0, -1e-300, 0.0]), 0.0).tobytes() == bytes(24)

    def test_single_vertex(self):
        s = lambda1(transitive_tournament(1))
        assert s.singular_values == (0.0,)


class TestCirculantRoute:
    """Tournaments circulant or skew-circulant as labelled take one FFT.
    Inputs that fall back to eigvalsh are in TestFullSpectrum's bit-for-bit
    test."""

    @pytest.mark.parametrize("n", [3, 21, 45, 201])
    def test_rotational_moduli_are_the_direct_sums(self, n):
        s = lambda1(rotational_tournament(n))
        assert s.solver == "fft"
        want = sorted(_rotational_moduli(n), reverse=True)
        assert max(abs(x - y) for x, y in zip(s.singular_values, want)) <= 1e-12 * n
        assert s.singular_values[0] == s.lambda1_abs

    @pytest.mark.parametrize("p", [3, 7, 19, 43, 103, 2003])
    def test_paley_moduli_are_sqrt_p(self, p):
        s = lambda1(paley_tournament(p))
        assert s.solver == "fft"
        *rest, zero = s.singular_values  # sigma_0, the only zero, sorts last
        assert 0.0 <= zero <= 1e-12 * p
        assert max(abs(x - math.sqrt(p)) for x in rest) <= 1e-12 * p

    @pytest.mark.parametrize("n", [2, 3, 9, 40, 41, 300])
    def test_transitive_moduli_are_cotangents(self, n):
        s = lambda1(transitive_tournament(n))
        assert s.solver == "fft"
        assert np.max(np.abs(np.array(s.singular_values) - _transitive_moduli(n))) <= 1e-12 * n
        assert s.singular_values[0] == s.lambda1_abs

    @pytest.mark.parametrize(
        "t",
        [rotational_tournament(n) for n in (3, 21, 45, 201)]
        + [paley_tournament(p) for p in (19, 43, 199)]
        + [random_circulant(n, n)[0] for n in (61, 301)]
        + [transitive_tournament(n) for n in (2, 3, 9, 41)]
        + [random_tournament(2, 0), reverse(transitive_tournament(40))]
        + [random_skew_circulant(n, n)[0] for n in (60, 61, 300, 301)],
        ids=[
            "rotational-3", "rotational-21", "rotational-45", "rotational-201",
            "paley-19", "paley-43", "paley-199", "circulant-61", "circulant-301",
            "transitive-2", "transitive-3", "transitive-9", "transitive-41",
            "random-2", "reversed-transitive-40",
            "skew-circulant-60", "skew-circulant-61", "skew-circulant-300",
            "skew-circulant-301",
        ],
    )
    def test_squared_moduli_match_eigvalsh(self, t):
        s = lambda1(t)
        assert s.solver == "fft"
        want = np.linalg.eigvalsh(gram(t))[::-1]
        assert np.max(np.abs(np.square(s.singular_values) - want)) <= 1e-8 * t.n
        top = math.sqrt(want[0])
        assert abs(s.lambda1_abs - top) <= 1e-12 * top

    @pytest.mark.parametrize(
        "t",
        [rotational_tournament(2001), paley_tournament(2003), transitive_tournament(2000)],
        ids=["rotational", "paley", "transitive"],
    )
    def test_memory_stays_below_one_byte_per_entry(self, t):
        # the eigvalsh route holds about 17 n^2 bytes (Gram matrix and workspace)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            assert lambda1(t).solver == "fft"
            assert tracemalloc.get_traced_memory()[1] - held <= t.n**2
        finally:
            tracemalloc.stop()

    def test_paley_upper_bound_covers_sqrt_p(self):
        for p in range(3, 2004, 4):
            if core._is_prime(p):
                upper = lambda1(paley_tournament(p)).lambda1_upper
                assert Fraction(upper) ** 2 >= p, p

    def test_rotational_upper_bound_covers_closed_form(self):
        # sigma_1 = cot(pi / 2n), in long double; the bound's margin is
        # 64 * ceil(log2 n) * 2^-53 * n, far above either rounding
        pi = np.arctan(np.longdouble(1)) * 4
        for n in range(3, 2002, 2):
            a = np.where(np.arange(n) <= (n - 1) // 2, 1, -1).astype(np.int8)
            a[0] = 0
            moduli, upper, slack = spectral._fft_moduli(n, a, False)
            assert abs(np.dot(moduli, moduli) - n * (n - 1)) <= slack, n
            assert np.longdouble(upper) >= 1 / np.tan(pi / (2 * n)), n
            assert moduli[0] <= upper

    def test_transitive_upper_bound_covers_closed_form(self):
        # sigma_1 = cot(pi / 2n) again, now from the length-2n transform
        pi = np.arctan(np.longdouble(1)) * 4
        for n in range(2, 2002):
            a = (np.arange(n) > 0).astype(np.int8)
            moduli, upper, slack = spectral._fft_moduli(n, a, True)
            assert abs(np.dot(moduli, moduli) - n * (n - 1)) <= slack, n
            assert np.longdouble(upper) >= 1 / np.tan(pi / (2 * n)), n
            assert moduli[0] <= upper

    @pytest.mark.parametrize("perturb", [lambda f: f * (1 + 1e-9)], ids=["scaled"])
    def test_invariant_failures_raise(self, monkeypatch, perturb):
        fft = np.fft.fft
        monkeypatch.setattr(np.fft, "fft", lambda a: perturb(fft(a)))
        with pytest.raises(InternalInvariantError, match="square-sum"):
            lambda1(rotational_tournament(45))

    @pytest.mark.parametrize("n", [40, 41])
    @pytest.mark.parametrize("perturb", [lambda f: f * (1 + 1e-9)], ids=["scaled"])
    def test_skew_invariant_failures_raise(self, monkeypatch, perturb, n):
        fft = np.fft.fft
        monkeypatch.setattr(np.fft, "fft", lambda a: perturb(fft(a)))
        with pytest.raises(InternalInvariantError, match="square-sum"):
            lambda1(transitive_tournament(n))

    @pytest.mark.parametrize(
        "t",
        [rotational_tournament(45), paley_tournament(43), transitive_tournament(40),
         transitive_tournament(41)],
        ids=["rotational-45", "paley-43", "transitive-40", "transitive-41"],
    )
    @pytest.mark.parametrize("j", [3, 7])
    def test_real_part_failures_raise(self, monkeypatch, j, t):
        # an odd frequency is an eigenvalue of A for either kind; 1e-6 is
        # over 10^5 times delta, and the square-sum check sees only Im
        fft = np.fft.fft
        monkeypatch.setattr(np.fft, "fft", lambda a: fft(a) + (np.arange(len(a)) == j) * 1e-6)
        with pytest.raises(InternalInvariantError, match="real part"):
            lambda1(t)

    @pytest.mark.parametrize(
        "t", [paley_tournament(43), transitive_tournament(40)], ids=["paley-43", "transitive-40"]
    )
    @pytest.mark.parametrize(
        # halving a skew-circulant's output divides as complex numbers, so
        # a NaN imaginary part makes the real part NaN too
        "part, match",
        [("imag", "square-sum|real part"), ("real", "real part")],
        ids=["im", "re"],
    )
    def test_nan_at_a_used_frequency_raises(self, monkeypatch, part, match, t):
        patch_fft_nan(monkeypatch, part)
        with pytest.raises(InternalInvariantError, match=match):
            lambda1(t)


@pytest.mark.parametrize("p, r", [(3, 3), (3, 5), (7, 3)], ids=["27", "243", "343"])
def test_doubly_regular_closed_form(p, r):
    # G = qI - J exactly, as labelled on the eigvalsh route: every modulus
    # but one is sqrt(q), and the rungs read 2(q-1) and 2q(q-1)
    t, _ = doubly_regular(p, r)
    q = t.n
    assert core._toeplitz_row(t) is None
    assert np.array_equal(gram(t), q * np.eye(q) - 1)
    s = lambda1(t)
    assert s.solver == "eigvalsh"
    assert abs(s.lambda1_abs - math.sqrt(q)) <= 1e-12 * q
    assert Fraction(s.lambda1_upper) ** 2 >= q
    assert lambda1_rungs(t) == (2 * (q - 1), 2 * q * (q - 1))


RUNG_INPUTS = {
    **{f"transitive-{n}": transitive_tournament(n) for n in (2, 3, 40, 41)},
    **{f"rotational-{n}": rotational_tournament(n) for n in (3, 45, 201)},
    **{f"paley-{p}": paley_tournament(p) for p in (43, 199)},
    **{f"random-{n}": random_tournament(n, 0) for n in (100, 500)},
}


@pytest.mark.parametrize("t", list(RUNG_INPUTS.values()), ids=list(RUNG_INPUTS))
def test_lambda1_between_score_bound_and_rungs(t):
    # both rungs hold with equality at n = 2, where G = I
    lambda1_rungs(t)


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
