"""Tests for the property-check suites behind ``qrtour verify``."""

import json

import pytest

from qrtour import verify
from qrtour.cli import main


def test_run_matches_cli_report(capsys):
    assert main(["verify", "--trials", "4", "--nmax", "10", "--seed", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert verify.run("all", 4, 10, 3) == report["results"]["checks"]


@pytest.mark.parametrize(
    "suite, trials, nmax",
    [("all", 0, 10), ("all", 4, 1), ("nosuch", 4, 10)],
    ids=["trials-0", "nmax-1", "unknown-suite"],
)
def test_run_rejects_bad_arguments(suite, trials, nmax):
    with pytest.raises(ValueError):
        verify.run(suite, trials, nmax, 0)
