"""Every tournament on at most 7 vertices, up to isomorphism, as an oracle.

The classes are generated here with numpy and itertools alone, so they
share no code with the routes they check: each class on n - 1 vertices is
extended by one new vertex in all 2^(n-1) ways, and each candidate is keyed
by the smallest upper-triangle bit key over all n! relabellings.  The 456
keys for n = 7 take about 2 s that way, so they were generated once and are
stored in ``KEYS_7``; a test checks that they are 456 distinct canonical
keys, which OEIS A000568 makes every class.  A class reaches the library
only through ``Tournament(n, bits)``, the input format.

The exact null model rides along: over the uniform random tournament, the
vertex-distinct cycle sums S4 and S6 have mean 0 and variance 2k n!/(n-k)!,
checked over every labelled tournament for n <= 7 through each class's
orbit weight n!/|Aut|, with |Aut| counted over all n! relabellings.  So do
the closed forms of S4 and S6 against enumeration, S8's closed form, 0 on
every class and equal to enumeration at n = 8 and 9, with its first-row
forms and its null moments by Monte Carlo, the 4-vertex census formulas
against counted 4-subsets, the k = 4 null moments of tr(A^4) by
enumerating every labelled tournament for n <= 5, and the bounds that
bracket lambda1.
"""

import functools
import itertools
from fractions import Fraction
from math import comb, factorial, perm, sqrt

import numpy as np
import pytest

import qrtour.core as core
import qrtour.exactcount as exactcount
from qrtour import (
    Tournament,
    brute_force_count,
    disc_exhaustive,
    edge_sign,
    even_cycles_trace,
    gram,
    lambda1,
    paley_tournament,
    power_trace,
    random_tournament,
    reverse,
    rotational_tournament,
    spectral_upper_bound,
    transitive_tournament,
)
from tournament_builders import lambda1_rungs, random_circulant, random_skew_circulant

GENERATED_MAX_N = 6  # n = 7 comes from KEYS_7
CLASS_COUNTS = [1, 1, 2, 4, 12, 56, 456]  # n = 1..7, OEIS A000568

# the canonical keys of the 456 classes on 7 vertices, in ascending order:
# atlas() with its loop run to n = 7
KEYS_7 = (
    0, 2, 4, 5, 8, 9, 10, 11, 12, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 28, 32,
    33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53,
    54, 56, 57, 58, 60, 136, 137, 144, 145, 147, 151, 152, 153, 160, 161, 163, 167, 168,
    169, 171, 175, 176, 177, 179, 184, 185, 268, 272, 273, 274, 275, 276, 277, 278, 280,
    281, 282, 284, 288, 289, 290, 291, 292, 293, 294, 295, 296, 297, 298, 299, 300, 301,
    302, 303, 304, 305, 306, 307, 308, 309, 310, 312, 313, 314, 316, 336, 337, 338, 339,
    341, 352, 353, 354, 355, 357, 359, 365, 367, 368, 369, 370, 371, 373, 536, 537, 538,
    544, 545, 546, 547, 548, 549, 550, 551, 552, 553, 554, 555, 556, 557, 558, 560, 561,
    562, 563, 564, 565, 566, 568, 569, 570, 572, 601, 602, 608, 609, 610, 611, 612, 613,
    614, 615, 616, 617, 618, 619, 620, 621, 622, 624, 625, 626, 627, 628, 629, 630, 632,
    633, 634, 636, 664, 665, 672, 673, 674, 675, 676, 677, 678, 679, 680, 681, 682, 683,
    684, 685, 686, 688, 689, 690, 691, 692, 693, 694, 696, 697, 698, 700, 729, 736, 737,
    738, 739, 740, 741, 742, 743, 745, 747, 749, 761, 792, 800, 801, 802, 803, 804, 805,
    806, 807, 808, 809, 810, 811, 812, 813, 814, 816, 817, 818, 819, 820, 821, 822, 824,
    825, 826, 828, 1072, 1073, 1074, 1075, 1076, 1077, 1078, 1080, 1081, 1082, 1137,
    1138, 1139, 1140, 1141, 1142, 1144, 1145, 1192, 1193, 1194, 1196, 1200, 1201, 1202,
    1203, 1204, 1205, 1206, 1208, 1209, 1265, 1267, 1269, 1270, 1272, 1273, 1322, 1324,
    1325, 1328, 1329, 1330, 1331, 1332, 1333, 1336, 1337, 1388, 1389, 1392, 1393, 1394,
    1395, 1396, 1397, 1400, 1401, 1456, 1457, 1458, 1459, 1460, 1461, 1464, 1465, 1521,
    1523, 1525, 1529, 1584, 1586, 1587, 1588, 1589, 1592, 1593, 1650, 1652, 1653, 1656,
    1657, 1720, 1721, 4640, 4641, 4642, 4643, 4646, 4654, 4656, 4657, 4658, 4659, 4692,
    4704, 4705, 4706, 4707, 4708, 4709, 4710, 4712, 4713, 4714, 4715, 4716, 4718, 4720,
    4721, 4722, 4724, 4725, 4728, 4729, 5168, 5169, 5170, 5171, 5228, 5232, 5233, 5234,
    5235, 5236, 5237, 5240, 5241, 5360, 5361, 5362, 5363, 5364, 5365, 5368, 5369, 5617,
    5619, 5680, 5682, 5683, 5748, 5749, 8992, 8993, 8995, 8997, 9256, 9257, 9258, 9259,
    9260, 9268, 9269, 9272, 9273, 9320, 9321, 9323, 9324, 9332, 9333, 9336, 9384, 9385,
    9386, 9387, 9388, 9392, 9393, 9394, 9395, 9396, 9397, 9400, 9449, 9452, 9457, 9464,
    9512, 9514, 9520, 9521, 9522, 9524, 9528, 9529, 9585, 9586, 9593, 9649, 9652, 9653,
    9657, 9780, 9781, 9784, 9848, 11369, 11371, 11384, 11500, 17976, 22066, 85298,
)


def _adjacency(n: int, keys: np.ndarray) -> np.ndarray:
    """Bool arc matrices (len(keys) x n x n) of upper-triangle bit keys.

    Bit i of a key is the pair (u, v), u < v, at position i of the
    lexicographic pair order; it is set when u -> v.
    """
    iu, ju = np.triu_indices(n, 1)
    bits = (keys[:, None] >> np.arange(len(iu))) & 1 == 1
    adj = np.zeros((len(keys), n, n), dtype=bool)
    adj[:, iu, ju] = bits
    adj[:, ju, iu] = ~bits
    return adj


def _relabelled_keys(adj: np.ndarray):
    """The upper-triangle keys of each arc matrix under all n! relabellings,
    the identity first: blocks of at most 32 matrices x n! keys.

    Matrices go 32 at a time, so that n = 7 holds 32 x 5040 x 21 keys' bits.
    """
    n = adj.shape[1]
    iu, ju = np.triu_indices(n, 1)
    perms = np.array(list(itertools.permutations(range(n))))
    weights = 1 << np.arange(len(iu))
    for s in range(0, len(adj), 32):
        # relabelled pair (u, v) reads the arc between perm[u] and perm[v]
        bits = adj[s : s + 32, perms[:, iu], perms[:, ju]]
        yield (bits * weights).sum(axis=2)


def _canonical_keys(adj: np.ndarray) -> np.ndarray:
    """The smallest upper-triangle key of each arc matrix over all relabellings."""
    return np.concatenate([keys.min(axis=1) for keys in _relabelled_keys(adj)])


@functools.cache
def atlas() -> dict[int, np.ndarray]:
    """The sorted canonical keys of every class, for n = 1..7."""
    classes = {1: np.zeros(1, dtype=np.int64)}
    for n in range(2, GENERATED_MAX_N + 1):
        old = _adjacency(n - 1, classes[n - 1])
        outs = np.array(list(itertools.product((False, True), repeat=n - 1)))
        cands = np.zeros((len(old), len(outs), n, n), dtype=bool)
        cands[:, :, :-1, :-1] = old[:, None]
        cands[:, :, :-1, -1] = outs  # the old vertex u -> the new one
        cands[:, :, -1, :-1] = ~outs
        classes[n] = np.unique(_canonical_keys(cands.reshape(-1, n, n)))
    classes[7] = np.array(KEYS_7, dtype=np.int64)
    return classes


@functools.cache
def _orbit_weights(n: int) -> list[int]:
    """n!/|Aut| of each class on n vertices: the labelled tournaments in it.
    |Aut| counts the relabellings that leave the class's key unchanged."""
    blocks = _relabelled_keys(_adjacency(n, atlas()[n]))
    auts = np.concatenate([(keys == keys[:, :1]).sum(axis=1) for keys in blocks])
    return [factorial(n) // int(aut) for aut in auts]


def _classes(n: int) -> list[Tournament]:
    """Every class on n vertices, built through the input format."""
    pairs = range(n * (n - 1) // 2)
    return [Tournament(n, bytes(int(key) >> i & 1 for i in pairs)) for key in atlas()[n]]


SIZES = range(1, 8)


def test_class_counts():
    assert [len(atlas()[n]) for n in SIZES] == CLASS_COUNTS


def test_stored_keys_are_distinct_canonical_keys():
    keys = atlas()[7]
    assert len(np.unique(keys)) == 456
    assert np.array_equal(_canonical_keys(_adjacency(7, keys)), keys)


@pytest.mark.parametrize("n", SIZES)
def test_trace_matches_enumeration(n):
    # enumeration also pins why the paper needs even k >= 4: at odd k
    # exactly half the k-cycles are even, and at k = 2 none are.  k = 6 at
    # n = 7 would add about 10 ms of enumeration per class
    for t in _classes(n):
        for k in range(2, 7 if n < 7 else 6):
            even, odd = brute_force_count(t, k)
            report = even_cycles_trace(t, k)
            assert (report.even, report.odd) == (even, odd), (n, t.bits, k)
            if k % 2:
                assert even == odd
            elif k == 2:
                assert even == 0


@pytest.mark.parametrize("n", SIZES)
def test_exhaustive_below_spectral_cap(n):
    for t in _classes(n):
        assert disc_exhaustive(t).value <= spectral_upper_bound(t)


# classes that take lambda1's FFT route as canonically labelled: the transitive
# class for n >= 2 and the rotational class at n = 3, 5 and 7; the rest take eigvalsh
FFT_COUNTS = [0, 1, 2, 1, 2, 1, 2]  # n = 1..7


@pytest.mark.parametrize("n", SIZES)
def test_spectrum_on_either_route(n):
    routes = []
    for t in _classes(n):
        s = lambda1(t)
        want = np.linalg.eigvalsh(gram(t))[::-1]
        assert np.max(np.abs(np.square(s.singular_values) - want)) <= 1e-12, t.bits
        assert s.lambda1_abs <= s.lambda1_upper
        routes.append(s.solver)
    assert routes.count("fft") == FFT_COUNTS[n - 1]


@pytest.mark.parametrize("n", SIZES)
def test_first_row_traces_on_fft_classes(n, monkeypatch):
    # the classes on lambda1's FFT route are the ones whose traces take
    # first rows and build no Gram matrix; their traces match enumeration at
    # k = 4 and 6 (every class meets it in test_trace_matches_enumeration).
    # The transitive class, key 0, is the one skew-circulant FFT class
    built = []
    real = exactcount.gram
    monkeypatch.setattr(exactcount, "gram", lambda t: built.append(t) or real(t))
    first_rows = 0
    for key, t in zip(atlas()[n], _classes(n)):
        built.clear()
        reports = {k: even_cycles_trace(t, k) for k in (4, 6)}
        assert (not built) == (lambda1(t).solver == "fft"), t.bits
        if not built:
            for k, report in reports.items():
                assert (report.even, report.odd) == brute_force_count(t, k), (n, t.bits, k)
            assert core._toeplitz_row(t)[1] == (key == 0), t.bits
            first_rows += 1
    assert first_rows == FFT_COUNTS[n - 1]


def _mean_trace4(n: int) -> int:
    """tr(A^4) of the uniform random tournament on n vertices, on average."""
    return n * (n - 1) * (2 * n - 3)


@pytest.mark.parametrize("n", range(2, 6))
def test_k4_null_moments(n):
    # every labelled tournament once: the uniform random tournament exactly
    everything = itertools.product((0, 1), repeat=n * (n - 1) // 2)
    s4 = [power_trace(Tournament(n, bytes(bits)), 4) - _mean_trace4(n) for bits in everything]
    mean = Fraction(sum(s4), len(s4))
    assert mean == 0
    assert Fraction(sum(s * s for s in s4), len(s4)) - mean**2 == 192 * comb(n, 4)


@pytest.mark.parametrize("n", range(2, 6))
def test_k6_null_mean(n):
    # fitted on n = 2..6 and exact at the held-out n = 7; checked here in Fractions
    everything = itertools.product((0, 1), repeat=n * (n - 1) // 2)
    traces = [power_trace(Tournament(n, bytes(bits)), 6) for bits in everything]
    assert Fraction(sum(traces), len(traces)) == -n * (n - 1) * (5 * n * n - 17 * n + 15)


# classes with tr(A^4) on its floor: every |G_uv|, u != v, is n % 2
FLOOR_COUNTS = [1, 1, 2, 2, 0, 0, 6]  # n = 1..7


def test_k4_floor_and_top():
    on_floor = []
    for n in SIZES:
        floor = n * (n - 1) ** 2 + n % 2 * n * (n - 1)
        traces = [power_trace(t, 4) for t in _classes(n)]
        assert min(traces) >= floor
        assert max(traces) - _mean_trace4(n) <= 8 * comb(n, 4)
        on_floor.append(traces.count(floor))
    assert on_floor == FLOOR_COUNTS


def _distinct_sums(n: int, tr4: int, tr6: int) -> tuple[int, int]:
    """S_4 and S_6 from tr(A^4) and tr(A^6): ROADMAP item 9's closed forms."""
    s4 = tr4 - _mean_trace4(n)
    return s4, tr6 + (6 * n - 15) * tr4 - n * (n - 1) * (n - 3) * (7 * n - 10)


def _arc_table(t: Tournament) -> np.ndarray:
    """The n x n sign matrix, read arc by arc through ``edge_sign``."""
    return np.array([[edge_sign(t, u, v) for v in range(t.n)] for u in range(t.n)])


def _matrix_forms(a: np.ndarray) -> tuple[int, int, int]:
    """ROADMAP item 20's Q, R and P from the sign matrix a, through
    G = A^T A, G^2 and A^3."""
    a = a.astype(np.int64)
    g = a.T @ a
    q = int((np.diag(g @ g) ** 2).sum())
    r = int((g**4).sum() - (np.diag(g) ** 4).sum())
    p = int((a * (a @ a @ a) * g**2).sum())
    return q, r, p


def _first_row_forms(t: Tournament) -> tuple[int, int, int]:
    """Q, R and P of a circulant or skew-circulant t from first rows alone:
    n (sum g_v^2)^2, n sum_(v != 0) g_v^4 and n sum_d a_d (a^3)_d g_d^2, for
    A's first row a from ``core._toeplitz_row``, g = -(a conv a) and
    a^3 = (a conv a) conv a, cyclic or negacyclic (skew)."""
    n = t.n
    a, skew = core._toeplitz_row(t)
    a = a.astype(np.int64)  # np.convolve wraps int8
    conv = exactcount._convolution(n, skew)
    square = conv(a, a)[0]
    # Python integers: n sum g^4 passes int64 at n = 2001
    a, cube, g = (x.astype(object) for x in (a, conv(square, a)[0], -square))
    return n * (g @ g) ** 2, n * (g[1:] ** 4).sum(), n * (a * cube * g * g).sum()


def _distinct_sum_8(t: Tournament, forms: tuple[int, int, int] | None = None) -> int:
    """S_8 by ROADMAP item 20's formula, from tr(A^8), tr(A^6) and tr(A^4)
    and its Q, R and P: ``forms``, or else those of the arc table."""
    n = t.n
    q, r, p = _matrix_forms(_arc_table(t)) if forms is None else forms
    tr4, tr6, tr8 = (power_trace(t, k) for k in (4, 6, 8))
    return (
        tr8 + (8 * n - 36) * tr6 + (36 * n * n - 248 * n + 374) * tr4
        - 4 * q + 2 * r - 8 * p - n * (n - 1) * (30 * n**3 - 287 * n**2 + 777 * n - 607)
    )


def _distinct_sum(a: np.ndarray, tuples: np.ndarray) -> int:
    """S_k: the sum over the ordered k-tuples of distinct vertices, the rows
    of ``tuples``, of prod_i a[v_i, v_(i+1 mod k)]."""
    return int(np.prod(a[tuples, np.roll(tuples, -1, axis=1)], axis=1).sum())


@pytest.mark.parametrize("n", SIZES)
def test_vertex_distinct_cycle_sums(n):
    # the closed forms ROADMAP item 9 will report, against enumeration over
    # an arc table that shares no code with power_trace; n!/(n-k)! + S_k is
    # twice the number of even vertex-distinct k-cycles
    tuples = {
        k: np.array(list(itertools.permutations(range(n), k)), dtype=int).reshape(-1, k)
        for k in (4, 6)
    }
    for t in _classes(n):
        a = _arc_table(t)
        s4, s6 = _distinct_sum(a, tuples[4]), _distinct_sum(a, tuples[6])
        assert (s4, s6) == _distinct_sums(n, power_trace(t, 4), power_trace(t, 6)), t.bits
        for k, s in ((4, s4), (6, s6)):
            assert (perm(n, k) + s) % 2 == 0 and 0 <= perm(n, k) + s <= 2 * perm(n, k)


@pytest.mark.parametrize("n", SIZES)
def test_distinct_8_cycle_sum_vanishes_below_8_vertices(n):
    # no 8 distinct vertices: ROADMAP item 20's S_8 is 0 on every class
    for t in _classes(n):
        assert _distinct_sum_8(t) == 0, t.bits


@pytest.mark.parametrize(
    "t, want",
    [
        (random_tournament(8, 1), 640),
        (random_tournament(8, 2), -1408),
        (random_tournament(9, 9), -2944),
        (rotational_tournament(9), 19584),
        (transitive_tournament(9), 19584),
    ],
    ids=["random8-1", "random8-2", "random9", "rotational9", "transitive9"],
)
def test_distinct_8_cycle_sum_matches_enumeration(t, want):
    # item 20's closed form against the sum over every ordered 8-tuple of
    # distinct vertices (362 880 at n = 9)
    tuples = np.array(list(itertools.permutations(range(t.n), 8)), dtype=int)
    s8 = _distinct_sum(_arc_table(t), tuples)
    assert _distinct_sum_8(t) == s8 == want


@pytest.mark.parametrize(
    "t",
    [
        *map(rotational_tournament, (9, 15, 45, 101)),
        *map(paley_tournament, (11, 43, 103)),
        *map(transitive_tournament, (8, 9, 40, 41, 100)),
        *(reverse(transitive_tournament(n)) for n in (9, 40)),
        *(random_circulant(n, seed)[0] for n, seed in ((9, 1), (61, 3), (101, 4))),
        *(random_skew_circulant(n, n)[0] for n in (9, 40, 41, 100)),
    ],
    ids=[
        "rotational9", "rotational15", "rotational45", "rotational101",
        "paley11", "paley43", "paley103",
        "transitive8", "transitive9", "transitive40", "transitive41", "transitive100",
        "reversed9", "reversed40", "circulant9", "circulant61", "circulant101",
        "skew9", "skew40", "skew41", "skew100",
    ],
)
def test_first_row_forms_match_matrix_forms(t):
    # item 20's structured forms: on circulant and skew-circulant input every
    # matrix in Q, R and P is of the same kind, and its sign flips cancel
    assert _first_row_forms(t) == _matrix_forms(_arc_table(t))


def test_distinct_8_cycle_sum_from_first_rows_at_large_n():
    # an exact S_8 where neither enumeration nor n x n forms reach: item 24's
    # large-n oracle.  (n)_8 + S_8 is twice the number of even 8-cycles
    t = rotational_tournament(2001)
    s8, falling = _distinct_sum_8(t, _first_row_forms(t)), perm(t.n, 8)
    assert (falling + s8) % 2 == 0 and 0 <= falling + s8 <= 2 * falling


# sorted out-degrees of the four 4-vertex tournament types (ROADMAP item 10):
# TT4, 3-cycle plus source, 3-cycle plus sink, strong
CENSUS_TYPES = [(0, 1, 2, 3), (1, 1, 1, 3), (0, 2, 2, 2), (1, 1, 2, 2)]


def _census(a: np.ndarray) -> list[int]:
    """How many 4-subsets of the arc table a have each type in CENSUS_TYPES."""
    n = len(a)
    quads = np.array(list(itertools.combinations(range(n), 4)), dtype=int).reshape(-1, 4)
    degrees = np.sort((a[quads[:, :, None], quads[:, None, :]] > 0).sum(axis=2), axis=1)
    return [int((degrees == kind).all(axis=1).sum()) for kind in CENSUS_TYPES]


def _check_census(t: Tournament) -> None:
    """Item 10's census formulas against counting the 4-subsets of t."""
    n, a = t.n, _arc_table(t)
    tt4, source, sink, strong = _census(a)
    assert tt4 + source + sink + strong == comb(n, 4)
    wins = (a > 0).astype(int)
    out = wins.sum(axis=1)
    apart = ~np.eye(n, dtype=bool)
    common = a.T @ a + 2 * out[:, None] + 2 * out[None, :] - n
    assert not (common[apart] % 4).any()
    assert np.array_equal(common[apart] // 4, (wins @ wins.T)[apart])  # common out-neighbours
    assert tt4 == sum(comb(int(c), 2) for c in (common // 4)[wins == 1])
    assert tt4 + source == sum(comb(int(d), 3) for d in out)
    assert tt4 + sink == sum(comb(n - 1 - int(d), 3) for d in out)
    assert power_trace(t, 4) - _mean_trace4(n) == 8 * comb(n, 4) - 32 * (source + sink)


@pytest.mark.parametrize("n", SIZES)
def test_four_vertex_census_on_every_class(n):
    for t in _classes(n):
        _check_census(t)


@pytest.mark.parametrize(
    "t",
    [
        *(random_tournament(13, seed) for seed in range(4)),
        rotational_tournament(11),
        transitive_tournament(9),
        paley_tournament(11),
    ],
    ids=[
        "random13-0", "random13-1", "random13-2", "random13-3",
        "rotational11", "transitive9", "paley11",
    ],
)
def test_four_vertex_census(t):
    _check_census(t)


def test_distinct_8_cycle_sum_null_moments_by_monte_carlo():
    # item 22 at k = 8, where no class count reaches: over m uniform random
    # tournaments on 12 vertices, S_8 has mean 0 and E[S_8^2] = 16 (12)_8,
    # each within 4 standard errors.  Q, R and P come from sign_array
    m = 2000
    s = []
    for seed in range(m):
        t = random_tournament(12, seed)
        s.append(_distinct_sum_8(t, _matrix_forms(core.sign_array(t))))
    mean, square, fourth = (sum(x**p for x in s) / m for p in (1, 2, 4))
    assert abs(mean) <= 4 * sqrt((square - mean**2) / m)
    assert abs(square - 16 * perm(12, 8)) <= 4 * sqrt((fourth - square**2) / m)


@pytest.mark.parametrize("n", SIZES)
def test_orbit_weights_count_every_labelled_tournament(n):
    weights = _orbit_weights(n)
    assert len(weights) == CLASS_COUNTS[n - 1]
    assert sum(weights) == 2 ** comb(n, 2)  # 2^15 at n = 6, 2^21 at n = 7


@pytest.mark.parametrize("n", SIZES)
def test_exact_null_moments_of_distinct_cycle_sums(n):
    # ROADMAP item 22: over the uniform random tournament E[S_k] = 0 and
    # Var[S_k] = 2k n!/(n-k)!, which is 192 C(n,4) at k = 4 and 8640, 60480
    # at k = 6 and n = 6, 7; in integers, summed over every labelled tournament
    weights = _orbit_weights(n)
    sums = [_distinct_sums(n, power_trace(t, 4), power_trace(t, 6)) for t in _classes(n)]
    for k, s in zip((4, 6), zip(*sums)):
        moments = [sum(w * x**p for w, x in zip(weights, s)) for p in (1, 2)]
        assert moments == [0, 2 * k * perm(n, k) * 2 ** comb(n, 2)], k


@pytest.mark.parametrize("n", SIZES)
def test_lambda1_between_score_bound_and_rungs(n):
    for t in _classes(n):
        lambda1_rungs(t)
