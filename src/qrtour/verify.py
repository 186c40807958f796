"""Property-check suites over seeded tournaments.

``crosscheck`` checks trace counts against enumeration, exact moments
against the spectrum, and the packed discrepancy queries against per-vertex
degree differences.  The sign of an even-k trace needs no suite:
``power_trace`` raises on a wrong one.  Every draw comes from one
CoinStream, so the checks are a pure function of (suite, trials, nmax,
seed).
"""

from __future__ import annotations

from .core import (
    CoinStream,
    _check_count,
    d_minus,
    d_plus,
    paley_tournament,
    random_tournament,
    rotational_tournament,
)
from .discrepancy import disc_given, witness_vectors
from .exactcount import brute_force_count, even_cycles_trace, total_cycles
from .spectral import moment_crosscheck


def _check(name: str, ok: bool, detail: str = "") -> dict:
    entry = {"check": name, "pass": bool(ok)}
    if detail:
        entry["detail"] = detail
    return entry


def _crosscheck(trials: int, nmax: int, seed: int) -> list[dict]:
    """Trace counts vs enumeration at small n; exact-vs-spectral moments,
    and the discrepancy queries vs d_plus - d_minus per vertex, on random
    draws plus the circulant and Paley families."""
    rng = CoinStream(seed)
    fail = ""
    for n in range(3, 9):
        for _ in range(2):
            t = random_tournament(n, rng.seed64())
            for k in range(2, 7):
                rep = even_cycles_trace(t, k)
                even, odd = brute_force_count(t, k)
                if (rep.even, rep.odd) != (even, odd):
                    fail = fail or f"trace vs enumeration mismatch at n={n}, k={k}"
                if even + odd != total_cycles(n, k):
                    fail = fail or f"enumeration total mismatch at n={n}, k={k}"
    checks = [_check("trace_vs_enumeration", not fail, fail)]
    tournaments = []
    for _ in range(min(trials, 10)):
        n = 4 + rng.below(max(min(nmax, 60) - 3, 1))
        tournaments.append(random_tournament(n, rng.seed64()))
    tournaments += [rotational_tournament(n) for n in (9, 15, 21, 33)]
    tournaments += [paley_tournament(p) for p in (7, 11, 19)]
    mfail = ""
    for t in tournaments:
        for k in (2, 4, 6, 8, 10):
            err = moment_crosscheck(t, k)
            if err > 1e-8:
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


SUITES = {"crosscheck": _crosscheck}


def run(suite: str, trials: int, nmax: int, seed: int) -> list[dict]:
    """Run one suite, or every suite in turn for ``suite="all"``.

    Returns one entry per check: ``{"check": name, "pass": bool}``, plus a
    ``"detail"`` string naming the first failure.  ``trials`` and ``nmax``
    set the number and the largest size of the random draws.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    trials, nmax = _check_count("trials", trials), _check_count("nmax", nmax, 2)
    names = list(SUITES) if suite == "all" else [suite]
    return [check for name in names for check in SUITES[name](trials, nmax, seed)]
