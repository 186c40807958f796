"""Every tournament on at most 6 vertices, up to isomorphism, as an oracle.

The classes are generated here with numpy and itertools alone, so they
share no code with the routes they check: each class on n - 1 vertices is
extended by one new vertex in all 2^(n-1) ways, and each candidate is keyed
by the smallest upper-triangle bit key over all n! relabellings.  A class
reaches the library only through ``Tournament(n, bits)``, the input format.

The exact k = 4 null model rides along: over the uniform random tournament,
S4 = tr(A^4) - n(n-1)(2n-3) has mean 0 and variance 192 C(n,4), checked by
averaging over every labelled tournament for n <= 5.
"""

import functools
import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest

import qrtour.exactcount as exactcount
from qrtour import (
    Tournament,
    brute_force_count,
    disc_exhaustive,
    even_cycles_trace,
    gram,
    lambda1,
    power_trace,
    spectral_upper_bound,
)

ATLAS_MAX_N = 6  # n = 7 has 456 classes and takes seconds to generate
CLASS_COUNTS = [1, 1, 2, 4, 12, 56]  # n = 1..6, OEIS A000568


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


def _canonical_keys(adj: np.ndarray) -> np.ndarray:
    """The smallest upper-triangle key of each arc matrix over all relabellings."""
    n = adj.shape[1]
    iu, ju = np.triu_indices(n, 1)
    perms = np.array(list(itertools.permutations(range(n))))
    # relabelled pair (u, v) reads the arc between perm[u] and perm[v]
    bits = adj[:, perms[:, iu], perms[:, ju]]
    return (bits.astype(np.int64) << np.arange(len(iu))).sum(axis=2).min(axis=1)


@functools.cache
def atlas() -> dict[int, np.ndarray]:
    """The sorted canonical keys of every class, for n = 1..ATLAS_MAX_N."""
    classes = {1: np.zeros(1, dtype=np.int64)}
    for n in range(2, ATLAS_MAX_N + 1):
        old = _adjacency(n - 1, classes[n - 1])
        outs = np.array(list(itertools.product((False, True), repeat=n - 1)))
        cands = np.zeros((len(old), len(outs), n, n), dtype=bool)
        cands[:, :, :-1, :-1] = old[:, None]
        cands[:, :, :-1, -1] = outs  # the old vertex u -> the new one
        cands[:, :, -1, :-1] = ~outs
        classes[n] = np.unique(_canonical_keys(cands.reshape(-1, n, n)))
    return classes


def _classes(n: int) -> list[Tournament]:
    """Every class on n vertices, built through the input format."""
    pairs = range(n * (n - 1) // 2)
    return [Tournament(n, bytes(int(key) >> i & 1 for i in pairs)) for key in atlas()[n]]


SIZES = range(1, ATLAS_MAX_N + 1)


def test_class_counts():
    assert [len(atlas()[n]) for n in SIZES] == CLASS_COUNTS


@pytest.mark.parametrize("n", SIZES)
def test_trace_matches_enumeration(n):
    # enumeration also pins why the paper needs even k >= 4: at odd k
    # exactly half the k-cycles are even, and at k = 2 none are
    for t in _classes(n):
        for k in range(2, 7):
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
# class for n >= 2 and the rotational class at n = 3 and 5; the rest take eigvalsh
FFT_COUNTS = [0, 1, 2, 1, 2, 1]  # n = 1..6


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
    # first rows and build no Gram matrix; their traces match enumeration
    built = []
    real = exactcount.gram
    monkeypatch.setattr(exactcount, "gram", lambda t: built.append(t) or real(t))
    first_rows = 0
    for t in _classes(n):
        built.clear()
        for k in (4, 6):
            report = even_cycles_trace(t, k)
            assert (report.even, report.odd) == brute_force_count(t, k), (n, t.bits, k)
        assert (not built) == (lambda1(t).solver == "fft"), t.bits
        first_rows += not built
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
FLOOR_COUNTS = [1, 1, 2, 2, 0, 0]  # n = 1..6


def test_k4_floor_and_top():
    on_floor = []
    for n in SIZES:
        floor = n * (n - 1) ** 2 + n % 2 * n * (n - 1)
        traces = [power_trace(t, 4) for t in _classes(n)]
        assert min(traces) >= floor
        assert max(traces) - _mean_trace4(n) <= 8 * comb(n, 4)
        on_floor.append(traces.count(floor))
    assert on_floor == FLOOR_COUNTS
