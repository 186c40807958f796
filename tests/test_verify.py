"""Tests for the property-check suites behind ``qrtour verify``."""

import json

import pytest

from qrtour import verify
from qrtour.discrepancy import disc_given, witness_vectors
from qrtour.cli import main


def test_run_matches_cli_report(capsys):
    assert main(["verify", "--trials", "4", "--nmax", "10", "--seed", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert verify.run("all", 4, 10, 3) == report["results"]["checks"]


def test_all_is_crosscheck():
    # the trace sign needs no suite of its own: power_trace raises on it
    assert list(verify.SUITES) == ["crosscheck"]
    assert verify.run("all", 3, 8, 1) == verify.run("crosscheck", 3, 8, 1)


@pytest.mark.parametrize(
    "suite, trials, nmax",
    [
        ("all", 0, 10), ("all", 4, 1), ("nosuch", 4, 10), ("all", True, 10),
        ("all", 4.0, 10), ("all", 4, True), ("all", 4, 10.0),
    ],
    ids=[
        "trials-0", "nmax-1", "unknown-suite", "trials-bool", "trials-float",
        "nmax-bool", "nmax-float",
    ],
)
def test_run_rejects_bad_arguments(suite, trials, nmax):
    with pytest.raises(ValueError):
        verify.run(suite, trials, nmax, 0)


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
    checks = {c["check"]: c for c in verify.run("crosscheck", 3, 12, 5)}
    assert checks["witness_vs_definition"]["pass"] is False
    assert name in checks["witness_vs_definition"]["detail"]
    assert checks["trace_vs_enumeration"]["pass"] is True
