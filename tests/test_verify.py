"""Tests for the crosscheck behind ``qrtour verify``."""

import dataclasses
import json

import pytest

import qrtour.exactcount as exactcount
from qrtour import verify
from qrtour.core import (
    _toeplitz_row,
    paley_tournament,
    random_tournament,
    rotational_tournament,
    transitive_tournament,
)
from qrtour.discrepancy import disc_given, witness_vectors
from qrtour.exactcount import brute_force_count, total_cycles
from qrtour.spectral import lambda1
from qrtour.cli import main


def test_run_matches_cli_report(capsys):
    assert main(["verify", "--trials", "4", "--nmax", "10", "--seed", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert verify.run(4, 10, 3) == report["results"]["checks"]


def _random_sizes(monkeypatch, trials, nmax):
    """The sizes of the random tournaments ``verify.run`` draws."""
    sizes = []

    def recorded(n, seed):
        sizes.append(n)
        return random_tournament(n, seed)

    monkeypatch.setattr(verify, "random_tournament", recorded)
    assert all(c["pass"] for c in verify.run(trials, nmax, 0))
    # the first 12 draws are the trace-vs-enumeration tournaments at n 3..8
    return sizes[12:]


def test_trace_check_enumerates_first_row_inputs(monkeypatch):
    # rotational 3, 5, 7, Paley 3, 7 and transitive 2..8 are circulant or
    # skew-circulant as labelled, so power_trace takes their traces from
    # first rows; the trace check enumerates each at k = 2..6
    seen = set()

    def recorded(t, k):
        seen.add((t.n, t.bits, k))
        return brute_force_count(t, k)

    monkeypatch.setattr(verify, "brute_force_count", recorded)
    assert all(c["pass"] for c in verify.run(1, 8, 0))
    families = [rotational_tournament(n) for n in (3, 5, 7)]
    families += [paley_tournament(p) for p in (3, 7)]
    families += [transitive_tournament(n) for n in range(2, 9)]
    for t in families:
        assert _toeplitz_row(t) is not None
        assert {(t.n, t.bits, k) for k in range(2, 7)} <= seen


def test_trials_draws_that_many(monkeypatch):
    sizes = _random_sizes(monkeypatch, 12, 30)
    assert len(sizes) == 12 and all(4 <= n <= 30 for n in sizes)


def test_nmax_above_60_is_drawn(monkeypatch):
    sizes = _random_sizes(monkeypatch, 4, 200)
    assert len(sizes) == 4 and max(sizes) > 60 and max(sizes) <= 200


@pytest.mark.parametrize(
    "trials, nmax",
    [(0, 10), (4, 1), (1, 3), (True, 10), (4.0, 10), (4, True), (4, 10.0)],
    ids=[
        "trials-0", "nmax-1", "nmax-3", "trials-bool", "trials-float",
        "nmax-bool", "nmax-float",
    ],
)
def test_run_rejects_bad_arguments(trials, nmax):
    with pytest.raises(ValueError):
        verify.run(trials, nmax, 0)


@pytest.mark.parametrize("name", ["witness_vectors", "disc_given"])
def test_witness_check_catches_a_wrong_query(name, monkeypatch):
    # one vertex's difference off by one, as a dropped [v in Y] term would be
    real = {"witness_vectors": witness_vectors, "disc_given": disc_given}[name]

    def shifted(t, *sets):
        if name == "witness_vectors":
            signs, value = real(t, *sets)
            return signs, value + 1
        return real(t, *sets) + 1

    monkeypatch.setattr(verify, name, shifted)
    checks = {c["check"]: c for c in verify.run(3, 12, 5)}
    assert checks["witness_vs_definition"]["pass"] is False
    assert name in checks["witness_vs_definition"]["detail"]
    assert checks["trace_vs_enumeration"]["pass"] is True


def _shift_count(t, k):
    even, odd = brute_force_count(t, k)
    return even + 1, odd


def _shift_total(n, k):
    return total_cycles(n, k) + 1


def _shift_modulus(t):
    s = lambda1(t)
    top, *rest = s.singular_values
    return dataclasses.replace(s, singular_values=(top + 1, *rest))


@pytest.mark.parametrize(
    "name, shifted, check, detail",
    [
        ("brute_force_count", _shift_count, "trace_vs_enumeration", "trace vs enumeration"),
        ("total_cycles", _shift_total, "trace_vs_enumeration", "enumeration total"),
        ("lambda1", _shift_modulus, "exact_vs_spectral_moments", "moment gap"),
    ],
    ids=["brute_force_count", "total_cycles", "lambda1"],
)
def test_each_check_reports_its_failure(name, shifted, check, detail, monkeypatch, capsys):
    # one value off: the check fails with its detail, and the others pass
    monkeypatch.setattr(verify, name, shifted)
    checks = verify.run(1, 8, 0)
    for c in checks:
        assert c["pass"] is (c["check"] != check)
    failed = next(c for c in checks if c["check"] == check)
    assert failed["detail"].startswith(detail)
    # the command runs the same real check and exits 1
    assert main(["verify", "--trials", "1", "--nmax", "8", "--seed", "0"]) == 1
    assert json.loads(capsys.readouterr().out)["results"]["checks"] == checks


def test_moments_run_at_k_4_to_10(monkeypatch):
    # k = 2 compares -n(n-1) with -sum sigma^2, the identity every lambda1
    # call checks, so each tournament solves its spectrum four times
    seen = set()
    real = verify.moment_crosscheck

    def recorded(t, k):
        seen.add(k)
        return real(t, k)

    monkeypatch.setattr(verify, "moment_crosscheck", recorded)
    assert all(c["pass"] for c in verify.run(1, 8, 0))
    assert seen == {4, 6, 8, 10}


def test_nan_moment_gap_fails_the_check(monkeypatch):
    monkeypatch.setattr(verify, "moment_crosscheck", lambda t, k: float("nan"))
    checks = {c["check"]: c for c in verify.run(1, 8, 0)}
    failed = checks["exact_vs_spectral_moments"]
    assert failed["pass"] is False
    assert failed["detail"].startswith("moment gap nan at n=")


def test_odd_trace_error_fails_the_check(monkeypatch, capsys):
    # every first-row product loses its last entry, so rotational 3's k = 4
    # trace is off by an odd amount: that breaks CycleCountReport's parity
    # check, yet the trace check must fail with a detail, not raise
    real = exactcount._convolution

    def dropping_last(n, skew):
        product = real(n, skew)

        def dropped(x, y):
            z = product(x, y)
            z[0, -1] = 0
            return z

        return dropped

    monkeypatch.setattr(exactcount, "_convolution", dropping_last)
    checks = {c["check"]: c for c in verify.run(1, 8, 0)}
    failed = checks["trace_vs_enumeration"]
    assert failed["pass"] is False
    assert failed["detail"] == "trace vs enumeration mismatch at n=3, k=4"
    assert main(["verify", "--trials", "1", "--nmax", "8", "--seed", "0"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert {c["check"]: c for c in report["results"]["checks"]} == checks
