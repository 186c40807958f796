"""Floating-point spectral analysis of the tournament sign matrix.

A is skew-symmetric, so its eigenvalues are purely imaginary and come in
conjugate pairs +-i*sigma; all spectral quantities used here depend only on
the moduli sigma.  Those are obtained from the Gram matrix -A^2 = A^T A,
which is real symmetric positive semidefinite with eigenvalues sigma^2, so
one dense symmetric eigensolve (LAPACK, via ``numpy.linalg.eigvalsh``)
yields every modulus and no complex arithmetic is needed.  A Toeplitz
tournament that is circulant as labelled (the rotational and Paley
families among them) or skew-circulant (the transitive family) skips that
solve: the DFT diagonalises a circulant A, a skew-circulant A sits inside
the circulant of twice its size, and one FFT of a first row gives every
modulus.  ``_verified_psd`` proves a symmetric matrix positive definite by
one float Cholesky, with no eigensolve; the disc reports prove their
spectral bound with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import Tournament, _toeplitz_row, sign_array
from .errors import InternalInvariantError


@dataclass(frozen=True)
class SpectralSummary:
    """Result of a spectral computation.

    ``lambda1_abs`` is the largest eigenvalue modulus of A as computed,
    ``lambda1_upper`` an upper bound on the true value that covers the
    solver's rounding error (see ``lambda1``), ``singular_values`` all n
    moduli in descending order, and ``solver`` the route that computed
    them: ``"fft"`` or ``"eigvalsh"``.
    """

    lambda1_abs: float
    lambda1_upper: float
    singular_values: tuple[float, ...]
    solver: str


def gram(t: Tournament) -> np.ndarray:
    """Gram matrix G = A^T A = -A^2 as a read-only float64 array.

    One float32 BLAS product, widened to float64.  Each entry sums at most
    n-1 products of +-1 signs (the diagonal of A is zero), so every partial
    sum is an integer of magnitude at most n-1, which float32 holds exactly
    while n <= 2**24 (any tournament whose n(n-1)/2 orientation bits fit in
    memory), and the result equals the integer product.  The diagonal must
    be n-1 (each vertex meets every other vertex); a wrong one raises
    InternalInvariantError.  Symmetry is not scanned: numpy forms a.T @ a
    with BLAS syrk, which computes one triangle and copies it into the
    other, and ``eigvalsh`` reads one triangle anyway.
    """
    a = sign_array(t).astype(np.float32)
    g = a.T @ a
    del a  # before G is widened
    g = g.astype(np.float64)
    if not np.all(np.diag(g) == t.n - 1):
        raise InternalInvariantError("Gram diagonal must equal n-1")
    g.setflags(write=False)
    return g


def lambda1(t: Tournament) -> SpectralSummary:
    """Every eigenvalue modulus of A, and |lambda_1| with its upper bound.

    A Toeplitz tournament that is circulant or skew-circulant as labelled
    (``core._toeplitz_row``, cached) takes one FFT of length n or 2n (``_fft_moduli``);
    every other one takes one ``eigvalsh`` call on the Gram matrix.  Each
    route hands over its moduli, upper bound and slack, and one check serves
    both: |sum sigma^_j^2 - n(n-1)| <= slack, n(n-1) = tr(G), written so that
    a NaN fails it (InternalInvariantError).  It caps |lambda1| too:
    sigma^_1^2 <= n(n-1) + slack < n^2 while slack < n, that is for n below
    1.6e5 on eigvalsh (G alone would take 200 GB) and 2^25 on the FFT route.

    LAPACK's symmetric eigensolver is backward stable: its eigenvalues are
    exact for G + E with ||E||_2 <= p(n) * eps * ||G||_2, p a modest
    polynomial.  Taking p(n) = n and ||G||_2 <= tr(G) (G is PSD), Weyl's
    inequality puts each one within margin = n * eps * n(n-1) of the true
    one: ``lambda1_upper`` is sqrt(top + margin), and their sum, each clamped
    at 0 (no NaN, none moved off its true value), is within n * margin, the
    slack; rounding, below (n + 3) * eps/2 * n(n-1), is left to p(n) = n.
    """
    n = t.n
    row = _toeplitz_row(t)
    if row is None:
        # descending; maximum(x, 0.0) turns -0.0 into +0.0, as clip does; maximum(0.0, x) keeps it
        eigs = np.maximum(np.linalg.eigvalsh(gram(t))[::-1], 0.0)
        margin = n * np.finfo(np.float64).eps * n * (n - 1)
        moduli, upper, slack = np.sqrt(eigs), math.sqrt(float(eigs[0]) + margin), n * margin
    else:
        moduli, upper, slack = _fft_moduli(n, *row)
    gap = abs(float(np.dot(moduli, moduli)) - n * (n - 1))
    if not gap <= slack:
        raise InternalInvariantError(f"moduli square-sum off n(n-1) by {gap} > {slack} (n={n})")
    lam = float(moduli[0])
    return SpectralSummary(
        lambda1_abs=lam,
        lambda1_upper=upper,
        singular_values=tuple(moduli.tolist()),
        solver="eigvalsh" if row is None else "fft",
    )


# The relative 2-norm error of numpy's complex FFT of length m (n for a
# circulant, 2n for a skew-circulant) is taken to be at most
# _FFT_ERROR * ceil(log2 m) * u, u = 2^-53.  Higham (Accuracy and
# Stability of Numerical Algorithms, 2nd ed., Thm 24.2) bounds a radix-2
# FFT by about 7 * log2(m) * u.  On a length with a large prime factor
# pocketfft runs Bluestein's algorithm: three such transforms of a length
# below 4m, and log2(4m) <= 2 * ceil(log2 m) for m >= 3, so 3 * 7 * 2 = 42
# plus the chirp products stays below 64.  Below m = 50 it runs its mixed
# radix passes instead, where a generic pass of prime length p < 50 has the
# worst case p^1.5 * u, still below 64 * log2(p) * u.  Like the eigvalsh
# route's p(n) = n, this is an argument about the algorithm.  Measured
# against long double references, the error stays below
# 0.72 * ceil(log2 m) * u: rotational on every odd n <= 2001 and on odd n
# sampled up to 16383, Paley on every p < 16384, random circulant n <= 2003,
# and transitive (m = 2n) on every n <= 2001.
_FFT_ERROR = 64


def _fft_moduli(n: int, a: np.ndarray, skew: bool) -> tuple[np.ndarray, float, float]:
    """(moduli, upper, slack) of A from its first row a and kind, ``core._toeplitz_row``'s.

    Circulant (a_(n-d) = -a_d): A[u, v] = a[(v - u) mod n] has eigenvalues
    lambda_j = sum_d a_d w^(dj), w = exp(2 pi i / n), one for each Fourier
    vector, purely imaginary; so sigma_j = |Im(fft(a))_j|.  Skew-circulant
    (``skew``, a_(n-d) = a_d): A is the top-left block of the length-2n
    circulant with first row (a, -a), whose odd frequencies are 2 lambda_j,
    the eigenvalues of A, and whose even frequencies are 0; so sigma_j is
    half the odd-frequency |Im|.  That row holds the exact entries of A, so with
    eps as above at m = 2n the error of the lambda_j is at most half that of
    the transform.  Either way |sigma^_j - sigma_j| <= ||lambda^ - lambda||_2
    <= eps * ||lambda||_2, and ||lambda||_2 = sqrt(n(n-1)) by Parseval
    (n * ||a||_2^2).  So the upper bound is max sigma^ + delta, delta =
    eps * n, rounded up: delta is a float exactly, and one step up from the
    rounded sum is at least the exact sum.  The slack for ``lambda1``'s
    check is eps * (2 + eps) * n(n-1), that error on ||lambda||_2^2 = tr(G),
    plus 2 * n * u * n(n-1) for the float sum.  A is real and skew-symmetric,
    so every |Re lambda^_j| <= ||lambda^ - lambda||_2 <= delta: checked here,
    NaN failing, or ``InternalInvariantError``.
    """
    f = np.fft.fft(np.concatenate((a, -a)) if skew else a)
    lam = f[1::2] / 2 if skew else f  # the n eigenvalues of A; halving is exact
    sigma = np.abs(lam.imag)
    u = 2.0**-53
    eps = _FFT_ERROR * (len(f) - 1).bit_length() * u  # bit_length: ceil(log2 m)
    delta = eps * n  # >= eps * sqrt(n(n-1)); exact, like eps
    real = np.abs(lam.real).max()
    if not real <= delta:
        raise InternalInvariantError(f"FFT eigenvalue real part {real} is not 0 within {delta}")
    moduli = np.sort(sigma)[::-1]
    slack = (eps * (2 + eps) + 2 * n * u) * n * (n - 1)
    return moduli, math.nextafter(float(moduli[0]) + delta, math.inf), slack


def _lanczos_top(g: np.ndarray) -> float:
    """An estimate of the largest eigenvalue of the symmetric n x n ``g``.

    Lanczos (three-term recurrence, no reorthogonalization) from the fixed
    start cos(0), cos(1), ..., cos(n-1); not the all-ones vector, which G
    sends to 0 on every regular tournament (G 1 = -A s, s the scores).
    Every 6 steps the top eigenvalue of the tridiagonal T_k is taken, and
    the run stops once it moves by at most 1e-13 relative, after n steps,
    or at a breakdown: a negligible beta, where the Krylov space is
    invariant.  Only an estimate, to be proven by ``_verified_psd``; NaN
    once the recurrence meets a non-finite value.
    """
    n = len(g)
    v = np.cos(np.arange(n, dtype=np.float64))
    v /= np.linalg.norm(v)
    prev = np.zeros(n)
    alphas: list[float] = []
    betas: list[float] = []
    beta, top = 0.0, -math.inf
    for k in range(1, n + 1):
        w = g @ v
        w -= beta * prev
        alpha = float(v @ w)
        w -= alpha * v
        beta = float(np.linalg.norm(w))
        if not math.isfinite(beta):  # a NaN or inf alpha leaves one in w
            return math.nan
        alphas.append(alpha)
        breakdown = beta <= 1e-12 * abs(alpha)
        if breakdown or k % 6 == 0 or k == n:
            tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            ritz = float(np.linalg.eigvalsh(tri)[-1])
            if breakdown or k == n or abs(ritz - top) <= 1e-13 * ritz:
                return ritz
            top = ritz
        betas.append(beta)
        prev, v = v, w / beta
    return top  # n = 0


def _verified_psd(s: np.ndarray) -> bool:
    """True only when the symmetric float64 matrix ``s``, exactly as stored,
    is proven positive definite by one float Cholesky.

    Rump, "Verification of positive definiteness", BIT 46 (2006): when a
    float Cholesky of a symmetric float S' runs to completion, its factor R
    has R^T R = S' + E with |E| <= gamma_(n+1) |R^T| |R|, gamma_m = m u /
    (1 - m u), u = 2^-53 (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., Thm 10.3; any summation order, and room for the
    reciprocal that scales each column), and the diagonal of that bound
    gives ||E||_2 <= sum_ij r_ij^2 gamma_(n+1) <= alpha tr(S'), alpha =
    gamma_(n+1) / (1 - gamma_(n+1)).  R^T R is positive definite when every
    r_ii is positive and finite (checked here: numpy's Cholesky returns NaN
    pivots without raising), and then so is S' + cI, for c at least alpha
    tr(S') plus 2n(2n + max_i s_ii) 2^-1022, a generous term for products
    that underflow, gradually or flushed to zero.  c is computed in
    Fraction from tr(s) rounded up, and S' is s with c taken off its
    diagonal, rounded down; so s >= S' + cI is positive definite.  ``s`` is
    shifted in place and restored, so it must be writable; the factor is
    the only n x n array this allocates.
    """
    n = len(s)
    diag = s.diagonal().copy()
    trace = math.nextafter(math.fsum(diag), math.inf)
    if not 0 < trace < math.inf:  # positive definite needs a positive trace; NaN fails
        return False
    gamma = Fraction(n + 1, 2**53 - (n + 1))
    c = gamma / (1 - gamma) * Fraction(trace) + 2 * n * (2 * n + Fraction(diag.max())) / 2**1022
    shift = math.nextafter(float(c), math.inf)  # at least c: float() rounds to nearest
    np.fill_diagonal(s, np.nextafter(diag - shift, -np.inf))
    try:
        r = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        return False
    finally:
        np.fill_diagonal(s, diag)
    pivots = np.diagonal(r)
    return bool(np.all((pivots > 0) & (pivots < np.inf)))


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
