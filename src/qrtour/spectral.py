"""Floating-point spectral analysis of the tournament sign matrix.

A is skew-symmetric, so its eigenvalues are purely imaginary and come in
conjugate pairs +-i*sigma; all spectral quantities used here depend only on
the moduli sigma.  Those are obtained from the Gram matrix -A^2 = A^T A,
which is real symmetric positive semidefinite with eigenvalues sigma^2, so
one dense symmetric eigensolve (LAPACK, via ``numpy.linalg.eigvalsh``)
yields every modulus and no complex arithmetic is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Tournament, _check_count
from .errors import InternalInvariantError
from .exactcount import _gram, power_trace


@dataclass(frozen=True)
class SpectralSummary:
    """Result of a spectral computation.

    ``lambda1_abs`` is the largest eigenvalue modulus of A as computed,
    ``lambda1_upper`` an upper bound on the true value that covers the
    solver's rounding error (see ``lambda1``), and ``singular_values`` all n
    moduli in descending order.
    """

    lambda1_abs: float
    lambda1_upper: float
    singular_values: tuple[float, ...]


def gram(t: Tournament) -> np.ndarray:
    """Gram matrix -A^2 = A^T A as a read-only float64 array.

    One float32 BLAS product, widened to float64, which equals the integer
    product (see ``exactcount._gram``).  The diagonal is constantly n-1
    (each vertex meets every other vertex).
    """
    g = _gram(t)
    n = t.n
    if not np.array_equal(g, g.T):
        raise InternalInvariantError("Gram matrix is not symmetric")
    if not np.all(np.diag(g) == n - 1):
        raise InternalInvariantError("Gram diagonal must equal n-1")
    g.setflags(write=False)
    return g


def lambda1(t: Tournament) -> SpectralSummary:
    """Every eigenvalue modulus of A, and |lambda_1| with its upper bound,
    from one ``eigvalsh`` call on the Gram matrix.

    LAPACK's symmetric eigensolver is backward stable: its eigenvalues are
    exact for G + E with ||E||_2 <= p(n) * eps * ||G||_2, p a modest
    polynomial.  Taking p(n) = n and ||G||_2 <= tr(G) = n(n-1) (G is PSD),
    Weyl's inequality puts the true top eigenvalue below the computed one
    plus n * eps * n(n-1); ``lambda1_upper`` is the square root of that sum.
    Gram eigenvalues are clamped at zero before the square root, so rounding
    cannot produce a NaN modulus.
    """
    n = t.n
    eigs = np.linalg.eigvalsh(gram(t))  # ascending
    top = float(eigs[-1])
    margin = n * np.finfo(np.float64).eps * n * (n - 1)
    lam = math.sqrt(top)
    if lam > n:
        raise InternalInvariantError(f"|lambda1| = {lam} exceeds n = {n}")
    # maximum(x, 0.0) turns -0.0 into +0.0, as clip does; maximum(0.0, x) keeps it
    moduli = np.sqrt(np.maximum(eigs[::-1], 0.0))
    return SpectralSummary(
        lambda1_abs=lam,
        lambda1_upper=math.sqrt(top + margin),
        singular_values=tuple(moduli.tolist()),
    )


def moment_crosscheck(t: Tournament, k: int) -> float:
    """Relative gap between exact tr(A^k) and the spectral moment sum.

    Eigenvalues +-i*sigma contribute (+-i)^k sigma^k, so for even k the trace
    equals (-1)^(k/2) * sum(sigma^k).  Returns
    |exact - float| / max(1, |exact|); a large value means the float
    spectrum and the exact integer route disagree.
    """
    k = _check_count("cycle length", k, 2)
    if k % 2 != 0:
        raise ValueError(f"moment comparison needs even k >= 2, got {k}")
    exact = power_trace(t, k)
    sign = -1.0 if (k // 2) % 2 else 1.0
    approx = sign * float(np.sum(np.asarray(lambda1(t).singular_values) ** k))
    return abs(exact - approx) / max(1, abs(exact))


@dataclass(frozen=True)
class CertificateReport:
    """Spectral quasi-randomness verdict for one tournament."""

    status: str  # "certified" or "refused"
    ratio: float  # |lambda1| / n; small ratios are the quasi-random regime
    threshold: float
    summary: SpectralSummary


def quasirandom_certificate(t: Tournament, threshold: float) -> CertificateReport:
    """Certify |lambda1|/n <= threshold, or refuse with the measured ratio.

    The verdict compares ``lambda1_upper / n`` with the threshold, so a
    certificate never rests on an underestimate.  The threshold is caller
    policy; the report always carries the ratio and the summary, so other
    thresholds can be applied after the fact.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie strictly between 0 and 1, got {threshold}")
    summary = lambda1(t)
    certified = summary.lambda1_upper / t.n <= threshold
    return CertificateReport(
        status="certified" if certified else "refused",
        ratio=summary.lambda1_abs / t.n,
        threshold=threshold,
        summary=summary,
    )
