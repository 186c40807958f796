"""Tests for subset discrepancy evaluation, search, and the spectral cap."""

import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest

from qrtour import (
    CoinStream,
    ResourceLimitError,
    d_minus,
    d_plus,
    disc_exhaustive,
    disc_given,
    disc_given_report,
    disc_localsearch,
    disc_sample,
    edge_sign,
    paley_tournament,
    random_tournament,
    reverse,
    rotational_tournament,
    spectral_upper_bound,
    transitive_tournament,
    witness_vectors,
)
from qrtour import discrepancy

SEEDS = [0, 2, 19, 71]

C3 = rotational_tournament(3)


def disc_by_definition(t, xs, ys):
    return sum(abs(d_plus(t, v, ys) - d_minus(t, v, ys)) for v in xs)


def gray_sweep_oracle(t):
    """(value, best_Y) of the exhaustive sweep, by brute force.

    Row i of the mask matrix M is the i-th subset in Gray order; every
    subset's value comes from one product with the sign matrix, and the
    first maximum (lowest Gray index) wins.
    """
    n = t.n
    a = np.array([[edge_sign(t, u, v) for v in range(n)] for u in range(n)])
    i = np.arange(1 << n)
    m = ((i ^ (i >> 1))[:, None] >> np.arange(n)) & 1
    values = np.abs(m @ a.T).sum(axis=1)
    best = int(values.argmax())
    return int(values[best]), tuple(int(v) for v in np.flatnonzero(m[best]))


@functools.cache
def flip_oracle_climbs(t, restarts, seed):
    """(value, member, diff) of each restart's local maximum, one flip at a time.

    Each restart draws n coins for its start Y, then scans u = 0..n-1,
    repeating until a full pass takes no flip, and flips u whenever that
    strictly raises sum |d|.
    """
    n = t.n
    cols = [[edge_sign(t, v, u) for v in range(n)] for u in range(n)]
    coins = CoinStream(seed)
    climbs = []
    for _ in range(restarts):
        member = [bool(c) for c in coins.take(n)]
        diff = [sum(cols[u][v] for u in range(n) if member[u]) for v in range(n)]
        value = sum(abs(x) for x in diff)
        improved = True
        while improved:
            improved = False
            for u in range(n):
                step = -1 if member[u] else 1
                cand = [x + step * c for x, c in zip(diff, cols[u])]
                cand_value = sum(abs(x) for x in cand)
                if cand_value > value:
                    member[u] = not member[u]
                    diff, value = cand, cand_value
                    improved = True
        climbs.append((value, member, diff))
    return climbs


def best_climb(climbs):
    """(value, best_Y, witness_signs) of the best climb; the earliest wins ties."""
    best_value, best_member, best_diff = -1, None, None
    for value, member, diff in climbs:
        if value > best_value:
            best_value, best_member, best_diff = value, member, diff
    best_y = tuple(u for u, inside in enumerate(best_member) if inside)
    return best_value, best_y, tuple((x > 0) - (x < 0) for x in best_diff)


ORACLE_FAMILIES = {
    "random": [random_tournament(n, s) for n in range(1, 15) for s in (0, 2, 19)],
    "transitive": [transitive_tournament(n) for n in range(1, 15)],
    "rotational": [rotational_tournament(n) for n in range(3, 15, 2)],
    "paley": [paley_tournament(p) for p in (3, 7, 11)],
}


class TestDiscGiven:
    def test_c3_singleton(self):
        assert disc_given(C3, range(3), {0}) == 2

    def test_c3_full_set_is_balanced(self):
        assert disc_given(C3, range(3), range(3)) == 0

    def test_empty_sets(self):
        t = random_tournament(6, 1)
        assert disc_given(t, set(), range(6)) == 0
        assert disc_given(t, range(6), set()) == 0

    def test_matches_definition(self):
        for seed in SEEDS:
            t = random_tournament(8, seed)
            coins = CoinStream(seed)
            for _ in range(20):
                xs = {v for v, b in enumerate(coins.take(8)) if b}
                ys = {v for v, b in enumerate(coins.take(8)) if b}
                assert disc_given(t, xs, ys) == disc_by_definition(t, xs, ys)

    def test_monotone_in_x(self):
        t = random_tournament(9, 5)
        ys = {0, 3, 7}
        full = disc_given(t, range(9), ys)
        for r in range(9):
            assert disc_given(t, range(r), ys) <= full

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            disc_given(C3, {0, 3}, {1})
        with pytest.raises(ValueError):
            disc_given(C3, {0}, {-1})


class TestSubsetValidation:
    """Every subset argument goes through one validator: entries must be
    integers (numpy integers included) in range, never truncated floats."""

    T6 = random_tournament(6, 1)

    @pytest.mark.parametrize(
        "call",
        [
            lambda t: d_plus(t, 0, [1.9]),
            lambda t: d_minus(t, 0, [1.9]),
            lambda t: disc_given(t, range(6), [1.9, 3.5]),
            lambda t: disc_given(t, [0.7, 2.2], range(6)),
            lambda t: witness_vectors(t, [4.99]),
            lambda t: witness_vectors(t, [0, 2.5, 5]),
            lambda t: disc_given_report(t, [4.99]),
        ],
        ids=[
            "d_plus", "d_minus", "disc_given_Y", "disc_given_X", "witness",
            "witness_inner_float", "report",
        ],
    )
    def test_rejects_float_entries(self, call):
        with pytest.raises(ValueError, match="subset vertex"):
            call(self.T6)

    def test_out_of_range_message(self):
        with pytest.raises(ValueError, match="subset vertex 7 out of range for n=6"):
            disc_given(self.T6, range(6), [7])

    def test_numpy_integers_accepted(self):
        t = self.T6
        ys = np.array([1, 3, 3], dtype=np.int64)
        assert disc_given(t, np.arange(6), ys) == disc_given(t, range(6), [1, 3])
        assert d_plus(t, 0, ys) == d_plus(t, 0, [1, 3])
        assert disc_given_report(t, ys).best_Y == (1, 3)


class TestWitnessVectors:
    def test_c3_singleton(self):
        x, value = witness_vectors(C3, {0})
        assert x == (0, -1, 1)
        assert value == 2

    def test_empty_subset(self):
        x, value = witness_vectors(C3, set())
        assert x == (0, 0, 0) and value == 0

    def test_transitive_full_set(self):
        # rank-r vertex has difference (n-1) - 2r
        for n in (4, 6, 8, 10):
            t = transitive_tournament(n)
            x, value = witness_vectors(t, range(n))
            assert x == tuple(int(np.sign(n - 1 - 2 * v)) for v in range(n))
            assert value == sum(abs(n - 1 - 2 * r) for r in range(n)) == n * n // 2

    def test_realizes_disc_given(self):
        for seed in SEEDS:
            t = random_tournament(10, seed)
            coins = CoinStream(seed + 1)
            for _ in range(25):
                ys = {v for v, b in enumerate(coins.take(10)) if b}
                _, value = witness_vectors(t, ys)
                assert value == disc_given(t, range(10), ys)

    def test_signs_match_degree_differences(self):
        t = random_tournament(7, 3)
        ys = {1, 2, 6}
        x, _ = witness_vectors(t, ys)
        for v in range(7):
            assert x[v] == int(np.sign(d_plus(t, v, ys) - d_minus(t, v, ys)))


class TestExhaustive:
    def test_c3(self):
        rep = disc_exhaustive(C3)
        assert rep.value == 2
        assert rep.method == "exhaustive"

    def test_single_vertex(self):
        rep = disc_exhaustive(transitive_tournament(1))
        assert rep.value == 0 and rep.best_Y == ()

    def test_tt4(self):
        # the full vertex set realizes sum |3 - 2r| = 8, and the sweep
        # confirms nothing beats it
        rep = disc_exhaustive(transitive_tournament(4))
        assert rep.value == 8

    def test_matches_naive_sweep(self):
        for seed in SEEDS:
            t = random_tournament(9, seed)
            best = 0
            for r in range(10):
                for ys in itertools.combinations(range(9), r):
                    best = max(best, disc_given(t, range(9), ys))
            assert disc_exhaustive(t).value == best

    @pytest.mark.parametrize("block_bits", [None, 2, 3], ids=["default", "b2", "b3"])
    @pytest.mark.parametrize("family", ORACLE_FAMILIES)
    def test_matches_gray_oracle(self, family, block_bits, monkeypatch):
        # small blocks put many block boundaries and reflected (odd) blocks
        # into every n, so best_Y and the tie rule are checked across them
        if block_bits is not None:
            monkeypatch.setattr(discrepancy, "_BLOCK_BITS", block_bits)
        for t in ORACLE_FAMILIES[family]:
            rep = disc_exhaustive(t)
            assert (rep.value, rep.best_Y) == gray_sweep_oracle(t), t.n

    def test_dominates_random_pairs(self):
        for seed in SEEDS:
            t = random_tournament(11, seed)
            cap = disc_exhaustive(t).value
            coins = CoinStream(seed)
            for _ in range(50):
                xs = {v for v, b in enumerate(coins.take(11)) if b}
                ys = {v for v, b in enumerate(coins.take(11)) if b}
                assert disc_given(t, xs, ys) <= cap

    def test_guard(self):
        with pytest.raises(ResourceLimitError):
            disc_exhaustive(random_tournament(25, 0))

    def test_guard_limit_is_accepted(self):
        t = random_tournament(24, 3)
        rep = disc_exhaustive(t)
        assert rep.method == "exhaustive"
        assert witness_vectors(t, rep.best_Y) == (rep.witness_signs, rep.value)

    def test_n20_between_local_search_and_bound(self):
        t = random_tournament(20, 5)
        rep = disc_exhaustive(t)
        assert disc_localsearch(t, restarts=4, seed=1).value <= rep.value
        assert rep.value <= rep.spectral_bound

    def test_reverse_invariance(self):
        for seed in SEEDS:
            t = random_tournament(8, seed)
            assert disc_exhaustive(t).value == disc_exhaustive(reverse(t)).value

    def test_report_fields(self):
        t = random_tournament(7, 4)
        rep = disc_exhaustive(t)
        assert rep.normalized == Fraction(rep.value, 49)
        assert rep.value <= rep.spectral_bound + 1e-6
        x, value = witness_vectors(t, rep.best_Y)
        assert x == rep.witness_signs and value == rep.value

    def test_transitive_normalized_large(self):
        for n in (6, 8, 10, 12, 14):
            rep = disc_exhaustive(transitive_tournament(n))
            assert rep.normalized >= Fraction(2, 5)


LOCAL_FAMILIES = {
    "random": [random_tournament(n, s) for n in range(1, 41) for s in (0, 2, 19)],
    "transitive": [transitive_tournament(n) for n in range(1, 31)],
    "rotational": [rotational_tournament(n) for n in range(3, 42, 2)],
    "paley": [paley_tournament(p) for p in (3, 7, 11, 19, 23, 31, 43)],
}


class TestLocalSearch:
    @pytest.mark.parametrize("chunk", [None, 1, 3], ids=["default", "chunk1", "chunk3"])
    @pytest.mark.parametrize("family", LOCAL_FAMILIES)
    def test_matches_flip_oracle(self, family, chunk, monkeypatch):
        # chunks of 1 and 3 restarts put the earliest-restart tie rule
        # across chunk boundaries; every fourth input keeps them quick
        inputs = LOCAL_FAMILIES[family]
        if chunk is not None:
            monkeypatch.setattr(discrepancy, "_RESTART_CHUNK", chunk)
            inputs = inputs[::4]
        for t in inputs:
            for restarts in (1, 2, 8, 9):
                for seed in (0, 5):
                    # restarts 1, 2 and 8 replay the first climbs of 9
                    expected = best_climb(flip_oracle_climbs(t, 9, seed)[:restarts])
                    rep = disc_localsearch(t, restarts=restarts, seed=seed)
                    got = (rep.value, rep.best_Y, rep.witness_signs)
                    assert got == expected, (t.n, restarts, seed)

    def test_c3_finds_optimum(self):
        for seed in (0, 1, 2, 3):
            assert disc_localsearch(C3, restarts=1, seed=seed).value == 2

    def test_never_beats_exhaustive(self):
        for seed in SEEDS:
            t = random_tournament(10, seed)
            cap = disc_exhaustive(t).value
            assert disc_localsearch(t, restarts=6, seed=seed).value <= cap

    def test_deterministic(self):
        t = random_tournament(15, 8)
        a = disc_localsearch(t, restarts=5, seed=77)
        b = disc_localsearch(t, restarts=5, seed=77)
        assert a == b

    def test_improves_on_raw_samples(self):
        t = random_tournament(18, 2)
        climbed = disc_localsearch(t, restarts=4, seed=5)
        sampled = disc_sample(t, samples=4, seed=5)
        assert climbed.value >= sampled.value

    def test_rejects_no_restarts(self):
        with pytest.raises(ValueError):
            disc_localsearch(C3, restarts=0, seed=0)

    @pytest.mark.parametrize("restarts", [True, False, 2.5, 2.0, "3", None])
    def test_rejects_non_integer_restarts(self, restarts):
        with pytest.raises(ValueError, match="restarts must be a positive integer"):
            disc_localsearch(C3, restarts=restarts, seed=0)

    def test_numpy_integer_restarts(self):
        t = random_tournament(12, 1)
        assert disc_localsearch(t, np.int64(3), 4) == disc_localsearch(t, 3, 4)

    def test_single_vertex(self):
        assert disc_localsearch(transitive_tournament(1), restarts=2, seed=0).value == 0


class TestSample:
    def test_deterministic(self):
        t = random_tournament(12, 3)
        assert disc_sample(t, samples=10, seed=4) == disc_sample(t, samples=10, seed=4)

    def test_bounded_by_exhaustive(self):
        t = random_tournament(10, 6)
        assert disc_sample(t, samples=30, seed=1).value <= disc_exhaustive(t).value

    def test_rejects_no_samples(self):
        with pytest.raises(ValueError):
            disc_sample(C3, samples=0, seed=0)

    @pytest.mark.parametrize("samples", [True, False, 2.5, 2.0, "3", None])
    def test_rejects_non_integer_samples(self, samples):
        with pytest.raises(ValueError, match="samples must be a positive integer"):
            disc_sample(C3, samples=samples, seed=0)


class TestSpectralBound:
    def test_c3(self):
        bound = spectral_upper_bound(C3)
        assert abs(bound - 3 * 3**0.5) < 1e-8
        assert disc_exhaustive(C3).value <= bound

    def test_single_vertex(self):
        assert spectral_upper_bound(transitive_tournament(1)) == 0.0

    def test_paley_normalized_bound_shrinks(self):
        # bound is p * sqrt(p), so the normalized value is 1/sqrt(p)
        prev = 1.0
        for p in (7, 19, 43, 103):
            ratio = spectral_upper_bound(paley_tournament(p)) / p**2
            assert abs(ratio - p**-0.5) < 1e-8
            assert ratio < prev
            prev = ratio

    @pytest.mark.parametrize(
        "t", [random_tournament(2, 0), transitive_tournament(2)], ids=["random", "transitive"]
    )
    def test_n2_bound_is_tight(self, t):
        # the maximum 2 equals n * |lambda1| exactly: only a true upper bound
        # keeps the report's invariant check from firing
        rep = disc_exhaustive(t)
        assert rep.value == 2
        assert 2 <= rep.spectral_bound < 2 + 1e-12

    def test_caps_exhaustive_everywhere(self):
        for seed in SEEDS:
            t = random_tournament(12, seed)
            assert disc_exhaustive(t).value <= spectral_upper_bound(t) + 1e-6


def test_given_report():
    rep = disc_given_report(C3, {0})
    assert rep.method == "given"
    assert rep.best_Y == (0,) and rep.value == 2
    assert rep.witness_signs == (0, -1, 1)
