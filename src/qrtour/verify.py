"""The crosscheck behind ``qrtour verify``, over seeded tournaments.

It checks trace counts against enumeration, exact moments against the
spectrum (``moment_crosscheck``, the one place where the exact and the
spectral layers meet), and the packed discrepancy queries against
per-vertex degree differences.  The sign of an even-k trace needs no check
here: ``power_trace`` raises on a wrong one.  Every draw comes from one
CoinStream, so the checks are a pure function of (trials, nmax, seed).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .core import (
    CoinStream,
    Tournament,
    _check_count,
    d_minus,
    d_plus,
    paley_tournament,
    random_tournament,
    rotational_tournament,
    transitive_tournament,
)
from .discrepancy import disc_given, witness_vectors
from .exactcount import brute_force_count, power_trace, total_cycles
from .spectral import lambda1


def moment_crosscheck(t: Tournament, k: int) -> float:
    """Relative gap between exact tr(A^k) and the spectral moment sum.

    Eigenvalues +-i*sigma contribute (+-i)^k sigma^k, so for even k the trace
    equals (-1)^(k/2) * sum(sigma^k).  Returns
    |exact - float| / max(1, |exact|); a large value means the float
    spectrum and the exact integer route disagree.  The float sum runs over
    (sigma/c)^k, c = max(sigma_1, 1), and is scaled back by c^k in Fraction
    arithmetic, so no k takes either side out of float range.
    """
    k = _check_count("cycle length", k, 2)
    if k % 2 != 0:
        raise ValueError(f"moment comparison needs even k >= 2, got {k}")
    exact = power_trace(t, k)
    moduli = np.asarray(lambda1(t).singular_values)  # descending
    c = max(float(moduli[0]), 1.0)
    sign = -1 if (k // 2) % 2 else 1
    approx = sign * Fraction(float(np.sum((moduli / c) ** k))) * Fraction(c) ** k
    return float(abs(exact - approx) / max(1, abs(exact)))


def _check(name: str, ok: bool, detail: str = "") -> dict:
    entry = {"check": name, "pass": bool(ok)}
    if detail:
        entry["detail"] = detail
    return entry


def _trace_failure(tournaments: list[Tournament]) -> str:
    """The first (t, k), k = 2..6, where tr(A^k) or the cycle total
    disagrees with enumeration, as a detail string; "" when none does.

    The trace is compared itself, not through a ``CycleCountReport``: a
    trace off by an odd amount breaks that report's parity check, which
    would raise instead of failing this check.  When both agree, the counts
    ``even_cycles_trace`` derives from the trace are the enumerated ones.
    """
    for t in tournaments:
        for k in range(2, 7):
            even, odd = brute_force_count(t, k)
            if power_trace(t, k) != even - odd:
                return f"trace vs enumeration mismatch at n={t.n}, k={k}"
            if even + odd != total_cycles(t.n, k):
                return f"enumeration total mismatch at n={t.n}, k={k}"
    return ""


def run(trials: int, nmax: int, seed: int) -> list[dict]:
    """Trace counts vs enumeration at small n, random and structured;
    exact-vs-spectral moments, and the discrepancy queries vs d_plus -
    d_minus per vertex, on ``trials`` random draws of sizes 4..``nmax`` plus
    the rotational, Paley and transitive families, the last at an even and
    an odd n.

    Returns one entry per check: ``{"check": name, "pass": bool}``, plus a
    ``"detail"`` string naming the first failure.
    """
    trials, nmax = _check_count("trials", trials), _check_count("nmax", nmax, 4)
    rng = CoinStream(seed)
    small = [random_tournament(n, rng.seed64()) for n in range(3, 9) for _ in range(2)]
    small += [rotational_tournament(n) for n in (3, 5, 7)]
    small += [paley_tournament(p) for p in (3, 7)]
    small += [transitive_tournament(n) for n in range(2, 9)]
    fail = _trace_failure(small)
    checks = [_check("trace_vs_enumeration", not fail, fail)]
    tournaments = []
    for _ in range(trials):
        n = 4 + rng.below(nmax - 3)
        tournaments.append(random_tournament(n, rng.seed64()))
    tournaments += [rotational_tournament(n) for n in (9, 15, 21, 33)]
    tournaments += [paley_tournament(p) for p in (7, 11, 19)]
    tournaments += [transitive_tournament(n) for n in (8, 9)]
    mfail = ""
    for t in tournaments:
        for k in (4, 6, 8, 10):  # k = 2 is the identity every lambda1 checks
            err = moment_crosscheck(t, k)
            if not err <= 1e-8:
                mfail = mfail or f"moment gap {err:.2e} at n={t.n}, k={k}"
    checks.append(_check("exact_vs_spectral_moments", not mfail, mfail))
    wfail = ""
    for t in tournaments:
        x1, y1, x2, y2 = ([v for v, c in enumerate(rng.take(t.n)) if c] for _ in range(4))
        y3 = rng.take(t.n).nonzero()[0]
        # two drawn pairs, then Y empty, Y = V, and a drawn Y as an int ndarray
        for xs, ys in [(x1, y1), (x2, y2), (x1, []), (x2, range(t.n)), (x1, y3)]:
            # d_plus and d_minus read each arc through edge_sign
            d = [d_plus(t, v, ys) - d_minus(t, v, ys) for v in range(t.n)]
            signs = tuple((x > 0) - (x < 0) for x in d)
            if witness_vectors(t, ys) != (signs, sum(map(abs, d))):
                wfail = wfail or f"witness_vectors mismatch at n={t.n}"
            if disc_given(t, xs, ys) != sum(abs(d[v]) for v in xs):
                wfail = wfail or f"disc_given mismatch at n={t.n}"
    checks.append(_check("witness_vs_definition", not wfail, wfail))
    return checks
