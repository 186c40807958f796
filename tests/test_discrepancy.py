"""Tests for subset discrepancy evaluation, search, and the spectral cap."""

import functools
import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qrtour import (
    CoinStream,
    InternalInvariantError,
    ResourceLimitError,
    d_minus,
    d_plus,
    disc_exhaustive,
    disc_given,
    disc_localsearch,
    disc_sample,
    edge_sign,
    gram,
    lambda1,
    paley_tournament,
    random_tournament,
    reverse,
    rotational_tournament,
    spectral_upper_bound,
    transitive_tournament,
    witness_vectors,
)
from qrtour import core, discrepancy, spectral
from qrtour.core import out_words, sign_array
from tournament_builders import doubly_regular, random_skew_circulant

SEEDS = [0, 2, 19, 71]

C3 = rotational_tournament(3)


def disc_by_definition(t, xs, ys):
    return sum(abs(d_plus(t, v, ys) - d_minus(t, v, ys)) for v in xs)


def mask_sweep_oracle(t):
    """(value, best_Y) of the exhaustive sweep, by brute force.

    Row i of the mask matrix M is the subset with bit mask i; every
    subset's value comes from one product with the sign matrix, and the
    first maximum (smallest mask) wins.
    """
    n = t.n
    a = np.array([[edge_sign(t, u, v) for v in range(n)] for u in range(n)])
    m = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    values = np.abs(m @ a.T).sum(axis=1)
    best = int(values.argmax())
    return int(values[best]), tuple(int(v) for v in np.flatnonzero(m[best]))


@functools.cache
def flip_oracle_climbs(t, restarts, seed, alternate=True):
    """(value, member, diff) of each restart's local maximum, one start at a time.

    Each restart draws n coins for its start Y.  With ``alternate``, it
    first takes x = sign(d) and Y' = {u : sum over v of x_v A[v, u] > 0}
    for as long as Y' strictly raises sum |d|.  Then, round by round, it
    scores the flip of every u = 0..n-1 and takes the first that reaches the
    strict maximum, until no flip raises sum |d|.
    """
    n = t.n
    cols = [[edge_sign(t, v, u) for v in range(n)] for u in range(n)]
    coins = CoinStream(seed)
    climbs = []
    for _ in range(restarts):
        member = [bool(c) for c in coins.take(n)]
        diff = [sum(cols[u][v] for u in range(n) if member[u]) for v in range(n)]
        value = sum(abs(x) for x in diff)
        while alternate:
            x = [(d > 0) - (d < 0) for d in diff]
            cand_member = [sum(xv * c for xv, c in zip(x, cols[u])) > 0 for u in range(n)]
            cand = [sum(cols[u][v] for u in range(n) if cand_member[u]) for v in range(n)]
            cand_value = sum(abs(d) for d in cand)
            if cand_value <= value:
                break
            member, diff, value = cand_member, cand, cand_value
        while True:
            flip = None  # the first u whose flip reaches the strict maximum
            for u in range(n):
                step = -1 if member[u] else 1
                cand = [x + step * c for x, c in zip(diff, cols[u])]
                cand_value = sum(abs(x) for x in cand)
                if cand_value > value:
                    flip, flip_diff, value = u, cand, cand_value
            if flip is None:
                break
            member[flip] = not member[flip]
            diff = flip_diff
        climbs.append((value, member, diff))
    return climbs


@functools.cache
def edge_sign_matrix(t):
    return np.array([[edge_sign(t, u, v) for v in range(t.n)] for u in range(t.n)])


def sample_oracle(t, samples, seed):
    """(value, best_Y) of the best of ``samples`` draws, one draw at a time.

    Each draw takes the next n coins as the indicator of Y; the earliest
    draw wins ties.
    """
    n = t.n
    a = edge_sign_matrix(t)
    coins = CoinStream(seed)
    best_value, best_y = -1, None
    for _ in range(samples):
        ys = np.flatnonzero(coins.take(n))
        value = int(np.abs(a[:, ys].sum(axis=1)).sum())
        if value > best_value:
            best_value, best_y = value, tuple(int(v) for v in ys)
    return best_value, best_y


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
            lambda t: disc_given(t, range(6), (y for y in [1, 2.5, 3])),
            lambda t: witness_vectors(t, {3, 4.5, 0}),
            lambda t: witness_vectors(t, [5, 2.5, 5, 1, 2.5]),
            lambda t: witness_vectors(t, np.array([1.0, 2.0])),
            lambda t: disc_given(t, [], [0.5]),
        ],
        ids=[
            "d_plus", "d_minus", "disc_given_Y", "disc_given_X", "witness",
            "witness_inner_float", "generator", "set", "unsorted_duplicates",
            "float_array", "empty_X",
        ],
    )
    def test_rejects_float_entries(self, call):
        with pytest.raises(ValueError, match="^vertex .+ out of range for n=6$"):
            call(self.T6)

    @pytest.mark.parametrize(
        ("call", "shown"),
        [
            (lambda t: edge_sign(t, True, 2), "True"),
            (lambda t: edge_sign(t, 0, False), "False"),
            (lambda t: d_plus(t, 0, [True]), "True"),
            (lambda t: d_plus(t, True, [2]), "True"),
            (lambda t: d_minus(t, 0, [True]), "True"),
            (lambda t: disc_given(t, [0, 2], [True]), "True"),
            (lambda t: disc_given(t, [True, False], range(6)), "True"),
            (lambda t: disc_given(t, range(6), [1, True]), "True"),
            (lambda t: witness_vectors(t, [True, 3]), "True"),
            (lambda t: witness_vectors(t, (y for y in [4, True, 2])), "True"),
            (lambda t: d_plus(t, 1, [5, 3, True, 5]), "True"),
            # the entries of a bool array are numpy bools
            (lambda t: disc_given(t, range(6), np.array([True, False, True])), "np.True_"),
            (lambda t: disc_given(t, [True], []), "True"),
        ],
        ids=[
            "edge_sign_u", "edge_sign_v", "d_plus", "d_plus_vertex", "d_minus",
            "disc_given_Y", "disc_given_X_all_bool", "disc_given_Y_equal_int",
            "witness", "generator", "unsorted_duplicates",
            "numpy_bool_array", "empty_Y",
        ],
    )
    def test_rejects_bool_entries(self, call, shown):
        # True == 1 as a number, and a list of bools indexes numpy as a mask
        with pytest.raises(ValueError, match=f"vertex {re.escape(shown)} out of range"):
            call(self.T6)

    @pytest.mark.parametrize(
        "call",
        [
            lambda t: disc_given(t, range(6), ["a", 1]),
            lambda t: witness_vectors(t, [2, None, 1]),
            lambda t: d_minus(t, 0, [3, "a", 1.5]),
        ],
        ids=["str", "none", "str_and_float"],
    )
    def test_types_checked_before_entries_compare(self, call):
        # these entries do not compare; the first refused one is named
        with pytest.raises(ValueError, match="^vertex ('a'|None) out of range"):
            call(self.T6)

    def test_out_of_range_message(self):
        with pytest.raises(ValueError, match="^vertex 7 out of range for n=6$"):
            disc_given(self.T6, range(6), [7])
        # the first refused entry, in the order given
        for ys, shown in (([0, 9, 2.5], "9"), ([1, 7.5, 2.5], "7.5"), ([0, 1.5, 3.5, 5], "1.5")):
            with pytest.raises(ValueError, match=f"^vertex {re.escape(shown)} out of range"):
                disc_given(self.T6, range(6), ys)

    def test_numpy_integers_accepted(self):
        t = self.T6
        ys = np.array([1, 3, 3], dtype=np.int64)
        assert disc_given(t, np.arange(6), ys) == disc_given(t, range(6), [1, 3])
        assert d_plus(t, 0, ys) == d_plus(t, 0, [1, 3])


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

    @pytest.mark.parametrize(
        "t",
        [
            transitive_tournament(300),
            random_tournament(301, 4),
            rotational_tournament(301),
            paley_tournament(307),
        ],
        ids=["transitive", "random", "rotational", "paley"],
    )
    def test_matches_column_definition(self, t):
        # transitive with Y = V has |d| up to n - 1 > 127, past int8
        a = discrepancy.sign_array(t).astype(np.int64)
        for ys in ((), range(t.n), range(0, t.n, 3)):
            d = a[:, list(ys)].sum(axis=1)  # d_v = sum over y in Y of A[v, y]
            x, value = witness_vectors(t, ys)
            assert x == tuple(int(v) for v in np.sign(d))
            assert all(type(v) is int for v in x)
            assert value == np.abs(d).sum() == disc_given(t, range(t.n), ys)

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


def _nearest_paley(n):
    p = max(n, 3)
    while p % 4 != 3 or not core._is_prime(p):
        p += 1
    return p


# sizes around the 64-bit word and 8-bit byte boundaries of the packed words
PACKED_SIZES = (1, 2, 7, 8, 9, 63, 64, 65, 127, 128, 129)
PACKED_CASES = [
    (family, n)
    for n in PACKED_SIZES
    for family in ("random", "transitive", "rotational", "paley")
    if family != "rotational" or n % 2
]


# accepted spellings of one vertex set; every n here is below 2^8
SUBSET_FORMS = {
    "generator": lambda ys: (y for y in ys),
    "set": set,
    "unsorted_duplicates": lambda ys: [*sorted(ys, reverse=True), *list(ys)[:2]],
    "uint8": lambda ys: np.array(ys, dtype=np.uint8),
    "int16": lambda ys: np.array(ys, dtype=np.int16),
    "uint64": lambda ys: np.array(ys, dtype=np.uint64),
    "mixed_numpy": lambda ys: [np.uint64(y) if y % 2 else np.int64(y) for y in ys],
}


def _packed_case(family, n):
    if family == "random":
        return random_tournament(n, n)
    if family == "transitive":
        return transitive_tournament(n)
    if family == "rotational":
        return rotational_tournament(max(n, 3))
    return paley_tournament(_nearest_paley(n))


class TestPackedRoute:
    """The popcount route over ``out_words`` against an int64 row-sum oracle."""

    @staticmethod
    def oracle(t, ys):
        # d_v = sum over y in Y of A[v, y], in int64 from the sign matrix
        return core.sign_array(t).astype(np.int64)[:, list(ys)].sum(axis=1)

    @pytest.mark.parametrize("family, n", PACKED_CASES)
    def test_matches_row_sums(self, family, n):
        t = _packed_case(family, n)
        n = t.n
        coins = CoinStream(n)
        draws = [[v for v, c in enumerate(coins.take(n)) if c] for _ in range(3)]
        subsets = [(), tuple(range(n)), (0,), (n - 1,), *draws]
        for ys in subsets:
            d = self.oracle(t, ys)
            x, value = witness_vectors(t, ys)
            assert x == tuple(int(v) for v in np.sign(d))
            assert value == np.abs(d).sum()
            assert disc_given(t, range(n), ys) == value
            for xs in ((), *draws, (n // 2,)):
                assert disc_given(t, xs, ys) == np.abs(d[list(xs)]).sum()
            # the same sets in other forms, Y and X alike, give the same answers
            given = disc_given(t, draws[0], ys)
            for form in SUBSET_FORMS.values():
                assert witness_vectors(t, form(ys)) == (x, value)
                assert disc_given(t, form(draws[0]), form(ys)) == given

    @pytest.mark.parametrize("n", PACKED_SIZES)
    def test_words_hold_out_neighbourhoods(self, n):
        t = random_tournament(n, 5)
        words = out_words(t)
        assert words.shape == (-(-n // 64), n) and words.dtype == np.uint64
        bits = (words[:, :, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
        bits = bits.transpose(1, 0, 2).reshape(n, -1)  # bit y of vertex v's words
        assert np.array_equal(bits[:, :n], core.sign_array(t) > 0)
        assert not bits[:, n:].any()

    def test_words_are_read_only_and_cached(self):
        t = random_tournament(70, 8)
        words = out_words(t)
        assert words is out_words(t)
        assert not words.flags.writeable
        with pytest.raises(ValueError):
            words[0, 0] = 0

    def test_cached_queries_skip_the_sign_matrix(self, monkeypatch):
        t = random_tournament(90, 12)
        ys = range(0, 90, 4)
        first = witness_vectors(t, ys), disc_given(t, range(0, 90, 3), ys)

        def refuse(_):
            raise AssertionError("sign_array called after the words were cached")

        monkeypatch.setattr(core, "sign_array", refuse)
        monkeypatch.setattr(discrepancy, "sign_array", refuse)
        assert (witness_vectors(t, ys), disc_given(t, range(0, 90, 3), ys)) == first


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
        # named for the Gray-order sweep it first checked, and kept so its
        # results compare across versions.  Small blocks put many block
        # boundaries into every n, so best_Y and the smallest-mask tie rule
        # are checked across them
        if block_bits is not None:
            monkeypatch.setattr(discrepancy, "_BLOCK_BITS", block_bits)
        for t in ORACLE_FAMILIES[family]:
            rep = disc_exhaustive(t)
            assert (rep.value, rep.best_Y) == mask_sweep_oracle(t), t.n

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
            inputs = inputs[::4]
        for t in inputs:
            if chunk is not None:
                monkeypatch.setattr(discrepancy, "_BLOCK_ENTRIES", chunk * t.n)
            for restarts in (1, 2, 8, 9):
                for seed in (0, 5):
                    # restarts 1, 2 and 8 replay the first climbs of 9
                    expected = best_climb(flip_oracle_climbs(t, 9, seed)[:restarts])
                    rep = disc_localsearch(t, restarts=restarts, seed=seed)
                    got = (rep.value, rep.best_Y, rep.witness_signs)
                    assert got == expected, (t.n, restarts, seed)

    @pytest.mark.parametrize("family", LOCAL_FAMILIES)
    def test_climb_alone_matches_flip_oracle(self, family):
        # the single-flip stage from the raw coin starts, without alternation
        for t in LOCAL_FAMILIES[family][::2]:
            for seed in (0, 5):
                member = CoinStream(seed).take(9 * t.n).reshape(9, t.n).astype(bool)
                a = discrepancy.sign_array(t).astype(np.float32)
                member, values = discrepancy._climb(a, member)
                climbs = flip_oracle_climbs(t, 9, seed, alternate=False)
                assert values.tolist() == [value for value, _, _ in climbs], t.n
                assert member.tolist() == [inside for _, inside, _ in climbs], t.n

    @pytest.mark.parametrize("family", LOCAL_FAMILIES)
    def test_single_flip_maximum_above_best_start(self, family):
        for t in LOCAL_FAMILIES[family]:
            a = edge_sign_matrix(t)
            for restarts, seed in ((1, 3), (4, 0), (17, 8)):
                rep = disc_localsearch(t, restarts=restarts, seed=seed)
                y = np.zeros(t.n, dtype=np.int64)
                y[list(rep.best_Y)] = 1
                d = a @ y
                assert rep.value == np.abs(d).sum()
                # column u: the difference vector after flipping u in or out
                flipped = d[:, None] + a * (1 - 2 * y)
                assert np.abs(flipped).sum(axis=0).max(initial=0) <= rep.value, t.n
                start = disc_sample(t, samples=restarts, seed=seed)
                assert rep.value >= start.value, (t.n, restarts, seed)

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

    @pytest.mark.parametrize("seed", [np.int64(0), np.uint64(2**64 - 1)])
    def test_numpy_integer_seed(self, seed):
        t = random_tournament(12, 1)
        assert disc_localsearch(t, 2, seed) == disc_localsearch(t, 2, int(seed))
        assert disc_sample(t, 5, seed) == disc_sample(t, 5, int(seed))

    @pytest.mark.parametrize("seed", [True, 1.0])
    def test_rejects_non_integer_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be an unsigned 64-bit integer"):
            disc_localsearch(C3, 2, seed)

    def test_single_vertex(self):
        assert disc_localsearch(transitive_tournament(1), restarts=2, seed=0).value == 0


class TestSample:
    @pytest.mark.parametrize("chunk", [None, 1, 3], ids=["default", "chunk1", "chunk3"])
    @pytest.mark.parametrize("family", LOCAL_FAMILIES)
    def test_matches_one_draw_at_a_time(self, family, chunk, monkeypatch):
        # chunks of 1 and 3 draws put the earliest-draw tie rule across
        # chunk boundaries; by default every count here fits one chunk
        for t in LOCAL_FAMILIES[family][::3]:
            if chunk is not None:
                monkeypatch.setattr(discrepancy, "_BLOCK_ENTRIES", chunk * t.n)
            for samples in (1, 5, 16, 17, 40):
                for seed in (0, 5):
                    rep = disc_sample(t, samples=samples, seed=seed)
                    got = (rep.value, rep.best_Y)
                    assert got == sample_oracle(t, samples, seed), (t.n, samples, seed)

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


# Input that is not Toeplitz, from n = 200 up: the proven route.  The GF(q)
# tournaments have lambda1 = sqrt(q) (q = 243 and 343).
PROOF_INPUTS = [
    pytest.param(random_tournament(n, seed), id=f"random-{n}-{seed}")
    for n in (200, 333, 601)
    for seed in range(3)
] + [pytest.param(doubly_regular(p, r)[0], id=f"q-{p**r}") for p, r in ((3, 5), (7, 3))]


def _lambda1_squared(t):
    return float(np.linalg.eigvalsh(gram(t))[-1])


def _counting(monkeypatch, module, name, calls):
    """Replace module.name by a wrapper that appends each result to ``calls``."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(real(*a)) or calls[-1])


class TestProvenBound:
    # Bounds at n >= 200 are checked against n * lambda1 with a tolerance,
    # never pinned: GEMV summation order may move the estimate's last bits.

    @pytest.mark.parametrize("t", PROOF_INPUTS)
    def test_brackets_n_lambda1_without_an_eigensolve(self, monkeypatch, t):
        cap = t.n * math.sqrt(_lambda1_squared(t))
        sizes = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: sizes.append(len(a)) or eigvalsh(a))
        assert cap <= spectral_upper_bound(t) <= cap * (1 + 1e-8)
        assert max(sizes) < t.n  # Lanczos tridiagonals only

    @pytest.mark.parametrize("t", PROOF_INPUTS)
    def test_verified_psd_decides_around_lambda1_squared(self, t):
        top = _lambda1_squared(t)
        s = np.negative(gram(t))
        for scale, proven in ((1 - 1e-9, False), (1 + 1e-8, True)):
            np.fill_diagonal(s, top * scale - (t.n - 1))  # s = mu I - G
            before = s.copy()
            assert spectral._verified_psd(s) is proven
            assert np.array_equal(s, before)  # the shifted diagonal is restored

    @pytest.mark.parametrize("entry", [(100, 100), (150, 100)], ids=["diagonal", "off-diagonal"])
    def test_verified_psd_refuses_nan(self, entry):
        # numpy's Cholesky returns NaN pivots without raising
        s = np.eye(300)
        s[entry] = s[entry[::-1]] = np.nan
        assert spectral._verified_psd(s) is False
        s[entry] = s[entry[::-1]] = 0.5
        assert spectral._verified_psd(s) is True

    def test_an_underestimate_retries_to_a_sound_bound(self, monkeypatch):
        t = random_tournament(200, 0)
        cap = t.n * math.sqrt(_lambda1_squared(t))
        lanczos = discrepancy._lanczos_top
        monkeypatch.setattr(discrepancy, "_lanczos_top", lambda g: 0.99 * lanczos(g))
        proofs = []
        _counting(monkeypatch, discrepancy, "_verified_psd", proofs)
        assert cap <= spectral_upper_bound(t) <= cap * 1.02
        assert len(proofs) > 1 and proofs[-1] and not any(proofs[:-1])

    def test_a_proof_that_never_passes_raises(self, monkeypatch):
        # a Cholesky that refuses every matrix doubles the margin until mu
        # reaches n(n-1), which always proves, and then gives up
        t = random_tournament(200, 0)
        diagonals = []  # the d of each mu I - G tried

        def refuse(s):
            diagonals.append(s[0, 0])
            return False

        monkeypatch.setattr(discrepancy, "_verified_psd", refuse)
        with pytest.raises(InternalInvariantError, match="Cholesky failed to prove"):
            spectral_upper_bound(t)
        assert len(diagonals) > 1 and diagonals[-1] == (t.n - 1) ** 2  # mu = n(n-1)

    def test_a_nan_estimate_raises(self, monkeypatch):
        # one NaN pair off the diagonal of G: the real Lanczos run meets it
        g = gram(random_tournament(200, 0)).copy()
        g[3, 150] = g[150, 3] = math.nan
        monkeypatch.setattr(discrepancy, "gram", lambda t: g)
        estimates = []
        _counting(monkeypatch, discrepancy, "_lanczos_top", estimates)
        with pytest.raises(InternalInvariantError, match="NaN"):
            spectral_upper_bound(random_tournament(200, 0))
        assert len(estimates) == 1 and math.isnan(estimates[0])

    def test_lanczos_starts_off_the_all_ones_vector(self):
        # 256 I - J sends the all-ones vector to exactly 0 (its entries are
        # multiples of 1/16), which would stop the run at the eigenvalue 0
        assert spectral._lanczos_top(256 * np.eye(256) - 1) == pytest.approx(256, rel=1e-12)

    @pytest.mark.parametrize(
        "t",
        [
            random_tournament(150, 1),
            random_tournament(199, 0),
            paley_tournament(211),
            rotational_tournament(255),
            transitive_tournament(400),
            reverse(transitive_tournament(201)),
            random_skew_circulant(230, 1)[0],
        ],
        ids=["random-150", "random-199", "paley-211", "rotational-255", "transitive-400",
             "reversed-transitive-201", "skew-circulant-230"],
    )
    def test_keeps_lambda1_upper_below_200_and_on_toeplitz_input(self, t):
        expected = t.n * lambda1(t).lambda1_upper
        core._toeplitz_row.cache_clear()
        assert spectral_upper_bound(t) == expected
        assert core._toeplitz_row.cache_info().misses == 1  # one Toeplitz probe per bound

    def test_factor_is_the_one_array_beside_g(self, monkeypatch):
        # gram peaks at 12 n^2 bytes; -G and the factor take 16 n^2, once G is dropped
        t = random_tournament(601, 0)
        sign_array(t)
        proofs = []
        _counting(monkeypatch, discrepancy, "_verified_psd", proofs)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            spectral_upper_bound(t)
            assert tracemalloc.get_traced_memory()[1] - held < 17 * t.n**2
        finally:
            tracemalloc.stop()
        assert proofs == [True]


def test_report_refuses_a_value_its_witness_does_not_give():
    # Y = {0} of C3 has discrepancy 2; a search claiming 3 is an internal error
    member = np.array([True, False, False])
    rep = discrepancy._build_report(C3, "sample", member, 2)
    assert rep.best_Y == (0,) and rep.witness_signs == (0, -1, 1)
    with pytest.raises(InternalInvariantError, match="search value 3 disagrees"):
        discrepancy._build_report(C3, "sample", member, 3)
    with pytest.raises(TypeError):  # every report is checked against a search
        discrepancy._build_report(C3, "sample", member)


def test_report_refuses_a_value_above_either_cap(monkeypatch):
    # Y = {0} of C3 has discrepancy 2: first a spectral bound below it
    member = np.array([True, False, False])
    monkeypatch.setattr(discrepancy, "spectral_upper_bound", lambda t: 1.5)
    with pytest.raises(InternalInvariantError, match="discrepancy 2 exceeds"):
        discrepancy._build_report(C3, "sample", member, 2)
    # then no spectral cap, and a witness worth n*n > n(n-1)
    monkeypatch.setattr(discrepancy, "spectral_upper_bound", lambda t: float("inf"))
    monkeypatch.setattr(discrepancy, "_diff_vector", lambda t, member: np.full(t.n, t.n))
    with pytest.raises(InternalInvariantError, match="discrepancy 9 exceeds"):
        discrepancy._build_report(C3, "sample", member, 9)


def test_report_refuses_a_nan_spectral_bound(monkeypatch):
    # min(n(n-1), nan) is n(n-1), so the cap is two comparisons, each of
    # which a NaN fails
    member = np.array([True, False, False])
    monkeypatch.setattr(discrepancy, "spectral_upper_bound", lambda t: float("nan"))
    with pytest.raises(InternalInvariantError, match="discrepancy 2 exceeds"):
        discrepancy._build_report(C3, "sample", member, 2)


def test_climb_refuses_to_outrun_its_step_bound():
    # an all-ones matrix is no sign matrix, so the gain identity predicts
    # flips that do not raise the value
    member = np.zeros((1, 12), dtype=bool)
    with pytest.raises(InternalInvariantError, match="outran its step bound"):
        discrepancy._climb(np.ones((12, 12), np.float32), member)
