"""Tests for the command-line surface: flags, reports, and exit codes."""

import json
import math

import pytest

from qrtour.cli import main, render_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out) if out else None


def strip_timings(report):
    return {k: v for k, v in report.items() if k != "timings_ms"}


@pytest.fixture
def c3_file(tmp_path, capsys):
    path = tmp_path / "c3.trn"
    code, _ = run(capsys, "gen", "--type", "rotational", "--n", "3", "--out", str(path))
    assert code == 0
    return str(path)


class TestGen:
    def test_transitive_file_contents(self, tmp_path, capsys):
        path = tmp_path / "tt3.trn"
        code, report = run_json(
            capsys, "gen", "--type", "transitive", "--n", "3", "--out", str(path)
        )
        assert code == 0
        assert path.read_bytes() == b"TRN1 3\n111\n"
        assert report["results"]["digest"].startswith("sha256:")

    def test_paley_bad_modulus_is_usage_error(self, tmp_path, capsys):
        code, _ = run(
            capsys, "gen", "--type", "paley", "--p", "6", "--out", str(tmp_path / "x.trn")
        )
        assert code == 2

    def test_random_same_seed_same_digest(self, tmp_path, capsys):
        digests = []
        for name in ("a.trn", "b.trn"):
            _, report = run_json(
                capsys,
                "gen", "--type", "random", "--n", "10", "--seed", "42",
                "--out", str(tmp_path / name),
            )
            digests.append(report["results"]["digest"])
        assert digests[0] == digests[1]

    def test_io_failure(self, tmp_path, capsys):
        code, _ = run(
            capsys,
            "gen", "--type", "transitive", "--n", "3",
            "--out", str(tmp_path / "missing" / "x.trn"),
        )
        assert code == 3

    def test_unreadable_seed_rejected(self, tmp_path, capsys):
        code, _ = run(
            capsys,
            "gen", "--type", "random", "--n", "4", "--seed", "-3",
            "--out", str(tmp_path / "x.trn"),
        )
        assert code == 2


class TestCount:
    def test_both_methods_agree(self, c3_file, capsys):
        code, report = run_json(capsys, "count", c3_file, "--k", "4", "--method", "both")
        assert code == 0
        res = report["results"]
        assert res["even"] == 18 and res["total"] == 18
        assert res["agreement"] is True

    def test_odd_k(self, c3_file, capsys):
        code, report = run_json(capsys, "count", c3_file, "--k", "5")
        assert code == 0
        res = report["results"]
        assert res["even"] == 15 and res["trace"] == 0
        assert res["even_fraction"] == {
            "numerator": 1,
            "denominator": 2,
            "decimal": "0.5",
        }

    def test_brute_guard_exit(self, tmp_path, capsys):
        path = tmp_path / "r30.trn"
        run(capsys, "gen", "--type", "random", "--n", "30", "--seed", "1", "--out", str(path))
        code, _ = run(capsys, "count", str(path), "--k", "8", "--method", "brute")
        assert code == 4

    def test_k_too_small(self, c3_file, capsys):
        code, _ = run(capsys, "count", c3_file, "--k", "1")
        assert code == 2

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.trn"
        bad.write_bytes(b"TRN1 3\n10\n")
        code, _ = run(capsys, "count", str(bad), "--k", "4")
        assert code == 2

    def test_missing_file(self, capsys):
        code, _ = run(capsys, "count", "/does/not/exist.trn", "--k", "4")
        assert code == 3

    def test_report_to_file(self, c3_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, text = run(capsys, "count", c3_file, "--k", "4", "--out", str(out))
        assert code == 0 and text == ""
        assert json.loads(out.read_text())["results"]["even"] == 18


class TestSpectrum:
    def test_paley7(self, tmp_path, capsys):
        path = tmp_path / "p7.trn"
        run(capsys, "gen", "--type", "paley", "--p", "7", "--out", str(path))
        code, report = run_json(capsys, "spectrum", str(path))
        assert code == 0
        res = report["results"]
        assert set(res) == {"lambda1_abs", "lambda1_upper", "ratio"}
        assert abs(res["lambda1_abs"] - math.sqrt(7)) < 1e-7
        assert res["lambda1_abs"] <= res["lambda1_upper"]

    def test_full_lists_all_values(self, c3_file, capsys):
        code, report = run_json(capsys, "spectrum", c3_file, "--full")
        assert code == 0
        values = report["results"]["singular_values"]
        assert len(values) == 3
        assert abs(values[0] - math.sqrt(3)) < 1e-9


class TestDisc:
    def test_exhaustive_c3(self, c3_file, capsys):
        code, report = run_json(capsys, "disc", c3_file, "--method", "exhaustive")
        assert code == 0
        res = report["results"]
        assert res["value"] == 2
        assert abs(res["spectral_bound"] - 3 * math.sqrt(3)) < 1e-8

    def test_exhaustive_rotational_15(self, tmp_path, capsys):
        # valid input never ends in exit 5: the bound must cover the true maximum
        path = tmp_path / "r15.trn"
        run(capsys, "gen", "--type", "rotational", "--n", "15", "--out", str(path))
        code, report = run_json(capsys, "disc", str(path))
        assert code == 0
        res = report["results"]
        assert res["value"] <= res["spectral_bound"]
        assert res["spectral_bound"] >= 15 * 9.514364454222585

    def test_local_search_tt4(self, tmp_path, capsys):
        path = tmp_path / "tt4.trn"
        run(capsys, "gen", "--type", "transitive", "--n", "4", "--out", str(path))
        code, report = run_json(
            capsys, "disc", str(path), "--method", "local", "--restarts", "8", "--seed", "1"
        )
        assert code == 0
        assert report["results"]["value"] >= 8

    def test_exhaustive_guard(self, tmp_path, capsys):
        path = tmp_path / "big.trn"
        run(capsys, "gen", "--type", "random", "--n", "25", "--seed", "0", "--out", str(path))
        code, _ = run(capsys, "disc", str(path), "--method", "exhaustive")
        assert code == 4

    def test_sample_method(self, c3_file, capsys):
        code, report = run_json(
            capsys, "disc", c3_file, "--method", "sample", "--restarts", "4"
        )
        assert code == 0
        assert report["results"]["method"] == "sample"


class TestVerify:
    def test_all_suites_pass(self, capsys):
        code, report = run_json(
            capsys,
            "verify", "--suite", "all", "--trials", "4", "--nmax", "10", "--seed", "3",
        )
        assert code == 0
        assert report["results"]["all_passed"] is True
        names = {c["check"] for c in report["results"]["checks"]}
        assert names == {
            "odd_power_trace_zero",
            "even_power_trace_sign",
            "even_count_bound",
            "trace_vs_enumeration",
            "exact_vs_spectral_moments",
        }

    def test_single_suite(self, capsys):
        code, report = run_json(
            capsys, "verify", "--suite", "claims", "--trials", "3", "--nmax", "8"
        )
        assert code == 0
        assert len(report["results"]["checks"]) == 2

    def test_bad_trials(self, capsys):
        code, _ = run(capsys, "verify", "--trials", "0")
        assert code == 2


class TestBench:
    def test_rows_per_size(self, capsys):
        code, report = run_json(capsys, "bench", "--sizes", "8,12,16", "--k", "4")
        assert code == 0
        rows = report["results"]["rows"]
        assert [r["n"] for r in rows] == [8, 12, 16]
        assert report["results"]["csv"].splitlines()[0] == "n,count_ms_median,spectrum_ms_median"

    def test_repeat_statistics(self, capsys):
        code, report = run_json(capsys, "bench", "--sizes", "10", "--k", "4", "--repeat", "3")
        assert code == 0
        row = report["results"]["rows"][0]
        for name in ("count_ms", "spectrum_ms", "codec_ms", "relabel_ms", "local_ms"):
            stats = row[name]
            assert stats["min"] <= stats["median"] <= stats["max"]

    def test_empty_sizes(self, capsys):
        code, _ = run(capsys, "bench", "--sizes", "")
        assert code == 2


class TestReportContract:
    def test_usage_error_on_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_reports_reproducible_modulo_timings(self, tmp_path, capsys):
        path = tmp_path / "r.trn"
        run(capsys, "gen", "--type", "random", "--n", "12", "--seed", "9", "--out", str(path))
        reports = []
        for _ in range(2):
            _, report = run_json(capsys, "count", str(path), "--k", "6", "--method", "both")
            reports.append(strip_timings(report))
        assert reports[0] == reports[1]

    def test_float_rendering_roundtrips(self):
        values = [1.0, -0.0, math.sqrt(7), 1e-300, 12345.6789e200, 1 / 3]
        for x in values:
            assert json.loads(render_json(x)) == x

    def test_float_rendering_is_shortest_round_trip(self):
        assert render_json(0.1) == "0.1"

    def test_float_rendering_keeps_float_type(self):
        assert isinstance(json.loads(render_json(3.0)), float)

    def test_render_rejects_nan(self):
        with pytest.raises(ValueError):
            render_json(float("nan"))

    def test_version_field(self, c3_file, capsys):
        _, report = run_json(capsys, "count", c3_file, "--k", "2")
        from qrtour import __version__

        assert report["tool_version"] == __version__
