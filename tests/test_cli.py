"""Tests for the command-line surface: flags, reports, and exit codes."""

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import qrtour.cli as cli
import qrtour.spectral as spectral
from qrtour import (
    Tournament,
    brute_force_count,
    disc_exhaustive,
    disc_localsearch,
    encode,
    even_cycles_trace,
    paley_tournament,
    random_tournament,
    rotational_tournament,
)
from qrtour.cli import build_parser, main, render_json
from qrtour.core import out_words, pair_index, sign_array
from tournament_builders import patch_eigvalsh, patch_fft_nan


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
            capsys, "gen", "--type", "paley", "--n", "6", "--out", str(tmp_path / "x.trn")
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

    @pytest.mark.parametrize(
        "exc, shown",
        [
            (MemoryError(), "out of memory"),
            (MemoryError("Unable to allocate 18.6 GiB"), "Unable to allocate 18.6 GiB"),
        ],
    )
    def test_memory_error_exits_4(self, exc, shown, tmp_path, capsys, monkeypatch):
        # an allocation too large for the machine (random n = 200000 asks for
        # 2*10**10 coin bytes) is a resource limit, not a crash
        def generate(*args):
            raise exc

        monkeypatch.setattr(cli, "generate", generate)
        code = main(["gen", "--type", "random", "--n", "5", "--out", str(tmp_path / "x.trn")])
        captured = capsys.readouterr()
        assert (code, captured.out) == (4, "")
        assert captured.err == f"error: {shown}\n"

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

    def test_enumeration_reads_arcs_independently(self, tmp_path, capsys, monkeypatch):
        # a wrong sign matrix under the trace must not also reach the
        # enumeration: with sign_array answering for t with arc (0, 5)
        # flipped, the two routes count different tournaments and disagree
        t = random_tournament(6, 3)
        bits = bytearray(t.bits)
        bits[pair_index(6, 0, 5)] ^= 1
        flipped = Tournament(6, bytes(bits))
        assert brute_force_count(flipped, 4) != brute_force_count(t, 4)
        path = tmp_path / "t.trn"
        path.write_bytes(encode(t))
        monkeypatch.setattr(spectral, "sign_array", lambda _: sign_array(flipped))
        code, out = run(capsys, "count", str(path), "--k", "4", "--method", "both")
        assert (code, out) == (5, "")

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
        self.check_guard_exit(30, 8, tmp_path, capsys)

    def test_guard_exit_where_recursion_would_overflow(self, tmp_path, capsys):
        # 1500 nested calls would pass Python's recursion limit
        self.check_guard_exit(2, 1500, tmp_path, capsys)

    def test_guard_refuses_before_the_trace(self, tmp_path, capsys, monkeypatch):
        def trace(*args):
            raise AssertionError("the trace ran before the guard")

        monkeypatch.setattr(cli, "even_cycles_trace", trace)
        self.check_guard_exit(30, 16, tmp_path, capsys)

    @staticmethod
    def check_guard_exit(n, k, tmp_path, capsys):
        # n**k > 10**8 under --method both: exit 4 and one error line
        path = tmp_path / "t.trn"
        run(capsys, "gen", "--type", "random", "--n", str(n), "--seed", "1", "--out", str(path))
        code = main(["count", str(path), "--k", str(k), "--method", "both"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (4, "")
        assert captured.err == (
            f"error: enumeration of {n}**{k} sequences exceeds the limit 100000000\n"
        )

    def test_k_too_small(self, c3_file, capsys):
        code, _ = run(capsys, "count", c3_file, "--k", "1")
        assert code == 2

    @pytest.mark.parametrize("limit", ["-1", "0"])
    def test_bad_limit_is_a_usage_error(self, c3_file, capsys, limit):
        # count has no --limit (the enumeration guard is fixed): any value is
        # refused by argparse with exit 2, not the resource guard's 4
        for method in ("trace", "both"):
            argv = ["count", c3_file, "--k", "4", "--method", method, "--limit", limit]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"unrecognized arguments: --limit {limit}" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "FILE", "--k", "4", "--method", "brute"],
            ["gen", "--type", "paley", "--p", "7", "--out", "NEW"],
            ["gen", "--type", "paley", "--p", "7", "--n", "9", "--out", "NEW"],
        ],
        ids=["count-brute", "gen-p", "gen-p-and-n"],
    )
    def test_removed_options_exit_2(self, argv, c3_file, tmp_path, capsys):
        # each question has one spelling: --method both enumerates, under a
        # fixed guard, and --n is paley's prime
        new = tmp_path / "new.trn"
        argv = [c3_file if a == "FILE" else str(new) if a == "NEW" else a for a in argv]
        code, out = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert not new.exists()

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
        run(capsys, "gen", "--type", "paley", "--n", "7", "--out", str(path))
        code, report = run_json(capsys, "spectrum", str(path))
        assert code == 0
        res = report["results"]
        assert set(res) == {"lambda1_abs", "lambda1_upper", "ratio", "solver"}
        assert res["solver"] == "fft"  # Paley tournaments are circulant
        assert abs(res["lambda1_abs"] - math.sqrt(7)) < 1e-7
        assert res["lambda1_abs"] <= res["lambda1_upper"]

    def test_random_reports_eigvalsh(self, tmp_path, capsys):
        path = tmp_path / "r9.trn"
        run(capsys, "gen", "--type", "random", "--n", "9", "--seed", "1", "--out", str(path))
        code, report = run_json(capsys, "spectrum", str(path))
        assert code == 0 and report["results"]["solver"] == "eigvalsh"

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
        # one name for the method, the one --method takes
        assert report["results"]["method"] == report["parameters"]["method"] == "local"

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


def _nan_top_eigenvalue(monkeypatch):
    patch_eigvalsh(monkeypatch, lambda eigs: np.append(eigs[:-1], np.nan))
    return random_tournament(20, 0)


def _nan_fft_modulus(monkeypatch):
    patch_fft_nan(monkeypatch, "imag")
    return paley_tournament(43)


@pytest.mark.parametrize(
    "command", [["spectrum"], ["disc", "--method", "local"]], ids=["spectrum", "disc"]
)
@pytest.mark.parametrize("patch", [_nan_top_eigenvalue, _nan_fft_modulus], ids=["eigvalsh", "fft"])
def test_nan_spectrum_exits_5(command, patch, tmp_path, capsys, monkeypatch):
    # a NaN modulus fails lambda1's square-sum check: an internal error, not
    # the usage error a NaN in the report would raise while rendering
    path = tmp_path / "t.trn"
    path.write_bytes(encode(patch(monkeypatch)))
    code = main([command[0], str(path), *command[1:]])
    captured = capsys.readouterr()
    assert (code, captured.out) == (5, "")
    assert "square-sum" in captured.err


class TestVerify:
    def test_all_suites_pass(self, capsys):
        code, report = run_json(
            capsys, "verify", "--trials", "4", "--nmax", "10", "--seed", "3"
        )
        assert code == 0
        assert report["results"] == {
            "checks": [
                {"check": "trace_vs_enumeration", "pass": True},
                {"check": "exact_vs_spectral_moments", "pass": True},
                {"check": "witness_vs_definition", "pass": True},
            ],
            "all_passed": True,
        }

    def test_single_suite(self, capsys):
        # the crosscheck is verify's only suite; it runs at the default seed
        code, report = run_json(capsys, "verify", "--trials", "3", "--nmax", "8")
        assert code == 0
        assert report["parameters"] == {"trials": 3, "nmax": 8, "seed": 0}
        assert report["results"]["checks"] == [
            {"check": "trace_vs_enumeration", "pass": True},
            {"check": "exact_vs_spectral_moments", "pass": True},
            {"check": "witness_vs_definition", "pass": True},
        ]

    @pytest.mark.parametrize("suite", ["crosscheck", "all", "bounds", "claims"])
    def test_suite_option_is_gone(self, suite, capsys):
        code, _ = run(capsys, "verify", "--suite", suite)
        assert code == 2

    def test_bad_trials(self, capsys):
        code, _ = run(capsys, "verify", "--trials", "0")
        assert code == 2

    def test_nmax_below_the_smallest_draw(self, capsys):
        code, _ = run(capsys, "verify", "--nmax", "3")
        assert code == 2

    def test_failed_check_exits_1_with_report(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.verify, "run", lambda *a: [{"check": "x", "pass": False}])
        code, report = run_json(capsys, "verify")
        assert code == 1
        assert report["results"] == {
            "checks": [{"check": "x", "pass": False}], "all_passed": False
        }


class TestBench:
    def test_rows_per_size(self, capsys):
        code, report = run_json(capsys, "bench", "--sizes", "8,12,16", "--k", "4")
        assert code == 0
        rows = report["results"]["rows"]
        assert [r["n"] for r in rows] == [8, 12, 16]
        for row in rows:
            assert list(row) == [
                "n", "count_ms", "spectrum_ms", "codec_ms", "relabel_ms",
                "query_ms", "local_ms", "local_value",
            ]

    def test_repeat_statistics(self, capsys):
        code, report = run_json(capsys, "bench", "--sizes", "10", "--k", "4", "--repeat", "3")
        assert code == 0
        row = report["results"]["rows"][0]
        for name in (
            "count_ms", "spectrum_ms", "codec_ms", "relabel_ms", "query_ms", "local_ms"
        ):
            stats = row[name]
            assert stats["min"] <= stats["median"] <= stats["max"]

    def test_local_value(self, capsys):
        code, report = run_json(capsys, "bench", "--sizes", "10,30", "--repeat", "2")
        assert code == 0
        for row in report["results"]["rows"]:
            assert list(row)[-2:] == ["local_ms", "local_value"]
            t = random_tournament(row["n"], 0)
            assert row["local_value"] == disc_localsearch(t, restarts=8, seed=0).value

    def test_query_row_times_one_disc_given_and_one_witness(self, capsys, monkeypatch):
        calls = []
        real_given, real_witness = cli.disc_given, cli.witness_vectors
        monkeypatch.setattr(
            cli, "disc_given", lambda *a: calls.append("given") or real_given(*a)
        )
        monkeypatch.setattr(
            cli, "witness_vectors", lambda *a: calls.append("witness") or real_witness(*a)
        )
        code, report = run_json(capsys, "bench", "--sizes", "12,20", "--repeat", "2")
        assert code == 0
        assert calls == ["given", "witness"] * 4
        for row in report["results"]["rows"]:
            assert list(row)[4:6] == ["relabel_ms", "query_ms"]

    def test_empty_sizes(self, capsys):
        code, _ = run(capsys, "bench", "--sizes", "")
        assert code == 2

    def test_sizes_follow_the_vertex_count_rule(self, capsys):
        code, report = run_json(capsys, "bench", "--sizes", "1")
        assert code == 0 and [r["n"] for r in report["results"]["rows"]] == [1]
        assert main(["bench", "--sizes", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "vertex count must be a positive integer, got 0" in captured.err

    def test_k_too_small(self, capsys):
        # the library refuses k < 2, which the CLI turns into a usage error
        code, out = run(capsys, "bench", "--sizes", "8", "--k", "1")
        assert (code, out) == (2, "")

    def test_repeat_follows_the_count_rule(self, capsys):
        assert main(["bench", "--sizes", "8", "--repeat", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "repeat must be a positive integer, got 0" in captured.err

    def test_laps_interleave_sizes(self, capsys, monkeypatch):
        seen = []
        real = cli.even_cycles_trace

        def record(t, k):
            seen.append(t.n)
            return real(t, k)

        monkeypatch.setattr(cli, "even_cycles_trace", record)
        code, report = run_json(capsys, "bench", "--sizes", "6,9,7", "--repeat", "3")
        assert code == 0
        assert seen == [6, 9, 7] * 3
        assert [r["n"] for r in report["results"]["rows"]] == [6, 9, 7]

    def test_timed_steps_find_both_arrays_cached(self, capsys, monkeypatch):
        # the caches hold one tournament, and laps alternate sizes: each
        # (lap, size) builds its arrays before its first timed step
        builds = []
        real = cli._timed

        def misses():
            return sign_array.cache_info().misses + out_words.cache_info().misses

        @contextlib.contextmanager
        def timed(timings, phase):
            before = misses()
            with real(timings, phase):
                yield
            if str(phase).endswith("_ms"):  # not the matmul laps, keyed 0..4
                builds.append(misses() - before)

        monkeypatch.setattr(cli, "_timed", timed)
        sign_array.cache_clear()
        out_words.cache_clear()
        code, _ = run_json(capsys, "bench", "--sizes", "10,30", "--repeat", "2")
        assert code == 0
        assert builds == [0] * 24  # 6 steps x 2 sizes x 2 laps
        assert sign_array.cache_info().misses == out_words.cache_info().misses == 4

    def test_repeated_size_keeps_its_rows(self, capsys):
        code, report = run_json(capsys, "bench", "--sizes", "8,8", "--repeat", "2")
        assert code == 0
        assert [r["n"] for r in report["results"]["rows"]] == [8, 8]

    def test_records_environment(self, capsys):
        code, report = run_json(capsys, "bench", "--sizes", "8")
        assert code == 0
        env = report["results"]["environment"]
        assert set(env) == {
            "python", "numpy", "blas", "blas_version", "cpu_count", "matmul256_ms"
        }
        assert env["numpy"] == np.__version__
        assert env["cpu_count"] == os.cpu_count()
        assert env["matmul256_ms"] > 0


class TestReportContract:
    def test_usage_error_on_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_reused_parser_keeps_reports(self, tmp_path, capsys):
        # count, a usage error, disc, spectrum and count again through one
        # parser give the reports of a fresh parser, timings aside
        path = str(tmp_path / "r.trn")
        run(capsys, "gen", "--type", "random", "--n", "12", "--seed", "4", "--out", path)
        calls = [
            ("count", path, "--k", "6"),
            ("count", path, "--k", "many"),
            ("disc", path, "--method", "local", "--restarts", "3"),
            ("spectrum", path),
            ("count", path, "--k", "6"),
        ]
        reused = [run_json(capsys, *argv) for argv in calls]
        assert [code for code, _ in reused] == [0, 2, 0, 0, 0]
        assert strip_timings(reused[4][1]) == strip_timings(reused[0][1])
        for (_, report), argv in zip(reused[2:4], calls[2:4]):
            build_parser.cache_clear()
            _, fresh = run_json(capsys, *argv)
            assert strip_timings(report) == strip_timings(fresh)

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

    def test_fraction_renders_three_fields(self):
        assert json.loads(render_json([Fraction(1, 3), Fraction(-4, 2)])) == [
            {"numerator": 1, "denominator": 3, "decimal": "0.333333333333"},
            {"numerator": -2, "denominator": 1, "decimal": "-2"},
        ]

    @pytest.mark.parametrize(
        "report",
        [
            disc_exhaustive(rotational_tournament(5)),
            even_cycles_trace(rotational_tournament(5), 4),
        ],
        ids=["disc", "count"],
    )
    def test_report_dataclass_renders_its_fields(self, report):
        rendered = json.loads(render_json(report))
        assert list(rendered) == [f.name for f in dataclasses.fields(report)]
        expected = json.loads(render_json(vars(report)))
        assert rendered == expected

    @pytest.mark.parametrize(
        "value",
        [object(), {1, 2}, b"bytes", cli.DiscrepancyReport],
        ids=["object", "set", "bytes", "dataclass-type"],
    )
    def test_render_rejects_unknown_objects(self, value):
        with pytest.raises(TypeError):
            render_json({"results": value})

    def test_version_field(self, c3_file, capsys):
        _, report = run_json(capsys, "count", c3_file, "--k", "2")
        from qrtour import __version__

        assert report["tool_version"] == __version__


ENVELOPE = ["command", "tool_version", "input_digest", "parameters", "results", "timings_ms"]
COUNT_RESULTS = ["k", "method", "n", "total", "even", "odd", "trace", "even_fraction"]
COUNT_PARAMETERS = ["file", "k", "method"]
SPECTRUM_RESULTS = ["lambda1_abs", "lambda1_upper", "ratio", "solver"]
DISC_PARAMETERS = ["file", "method", "restarts", "seed"]
DISC_RESULTS = [
    "method", "best_Y", "value", "normalized", "spectral_bound", "witness_signs"
]

# argv (FILE for the input file) -> ordered keys of parameters, results and
# timings_ms
SHAPES = {
    "gen": (
        ["gen", "--type", "paley", "--n", "7", "--out", "FILE"],
        ["type", "n", "seed", "out"], ["path", "n", "digest"], ["build", "write"],
    ),
    "count-trace": (
        ["count", "FILE", "--k", "4"],
        COUNT_PARAMETERS, COUNT_RESULTS, ["load", "trace"],
    ),
    "count-both": (
        ["count", "FILE", "--k", "4", "--method", "both"],
        COUNT_PARAMETERS, [*COUNT_RESULTS, "agreement"], ["load", "brute", "trace"],
    ),
    "spectrum": (
        ["spectrum", "FILE"], ["file", "full"], SPECTRUM_RESULTS, ["load", "solve"],
    ),
    "spectrum-full": (
        ["spectrum", "FILE", "--full"],
        ["file", "full"], [*SPECTRUM_RESULTS, "singular_values"], ["load", "solve"],
    ),
    "disc-exhaustive": (
        ["disc", "FILE"], DISC_PARAMETERS, DISC_RESULTS, ["load", "search"],
    ),
    "disc-local": (
        ["disc", "FILE", "--method", "local"], DISC_PARAMETERS, DISC_RESULTS,
        ["load", "search"],
    ),
    "disc-sample": (
        ["disc", "FILE", "--method", "sample"], DISC_PARAMETERS, DISC_RESULTS,
        ["load", "search"],
    ),
    "verify": (
        ["verify", "--trials", "2", "--nmax", "6"],
        ["trials", "nmax", "seed"], ["checks", "all_passed"], ["verify"],
    ),
    "bench": (
        ["bench", "--sizes", "6,8"],
        ["sizes", "k", "repeat"], ["rows", "environment"],
        ["bench"],
    ),
}


class TestReportShape:
    @pytest.mark.parametrize("case", SHAPES)
    def test_key_order(self, case, c3_file, tmp_path, capsys):
        argv, parameters, results, timings = SHAPES[case]
        path = str(tmp_path / "new.trn") if case == "gen" else c3_file
        code, report = run_json(capsys, *[path if a == "FILE" else a for a in argv])
        assert code == 0
        assert list(report) == ENVELOPE
        assert report["command"] == argv[0]
        assert list(report["parameters"]) == parameters
        assert list(report["results"]) == results
        assert list(report["timings_ms"]) == timings

    def test_gen_parameters_name_the_built_file(self, tmp_path, capsys):
        path = str(tmp_path / "p7.trn")
        _, report = run_json(capsys, "gen", "--type", "paley", "--n", "7", "--out", path)
        assert report["parameters"] == {"type": "paley", "n": 7, "seed": 0, "out": path}
        assert report["input_digest"] is None

    def test_bench_sizes_are_parsed(self, capsys):
        _, report = run_json(capsys, "bench", "--sizes", " 6, ,8")
        assert report["parameters"]["sizes"] == [6, 8]

    def test_input_digest_names_the_file(self, c3_file, capsys):
        _, report = run_json(capsys, "spectrum", c3_file)
        with open(c3_file, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert report["input_digest"] == "sha256:" + digest


def _readme_envelope() -> list[str]:
    """The envelope keys README lists, in its order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listing = readme[readme.index("keys in this order:\n\n") :].split("\n\n")[1]
    return re.findall(r"^- `(\w+)`", listing, re.M)


class TestOneLineReport:
    # a report is one line of JSON plus "\n", on stdout and in --out alike
    CASES = {
        "count": ["count", "FILE", "--k", "5"],
        "spectrum-full": ["spectrum", "FILE", "--full"],
        "disc-local": ["disc", "FILE", "--method", "local", "--restarts", "2"],
    }

    @pytest.mark.parametrize("case", CASES)
    def test_one_line_on_stdout_and_in_out(self, case, c3_file, tmp_path, capsys):
        argv = [c3_file if a == "FILE" else a for a in self.CASES[case]]
        code, text = run(capsys, *argv)
        out = tmp_path / "report.json"
        assert (code, main([*argv, "--out", str(out)])) == (0, 0)
        assert capsys.readouterr().out == ""
        for data in (text, out.read_bytes().decode()):
            assert data.endswith("\n")
            assert data.count("\n") == 1
            report = json.loads(data)
            assert list(report) == _readme_envelope() == ENVELOPE
            if case == "count":  # a Fraction keeps its three fields
                assert report["results"]["even_fraction"] == {
                    "numerator": 1, "denominator": 2, "decimal": "0.5"
                }


def _readme_synopsis() -> dict[str, str]:
    """README's ``## CLI`` block: each subcommand's line, comment dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## CLI") :]
    start = section.index("```\n") + len("```\n")
    lines = section[start : section.index("```", start)].splitlines()
    return {line.split()[1]: line.split("#")[0] for line in lines}


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    action = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


class TestReadmeSynopsis:
    # README's CLI block names every option and choice the parser takes, and
    # no other, so that it cannot drift from the parser

    def test_one_line_per_subcommand(self):
        assert list(_readme_synopsis()) == list(_subparsers())

    @pytest.mark.parametrize("command", list(_subparsers()))
    def test_options_and_choices(self, command):
        line = _readme_synopsis()[command]
        # each option with the word after it, "--k K" or "--method trace|both"
        documented = dict(re.findall(r"(--[a-z][a-z-]*) ?([^\s\]]*)", line))
        taken = {
            option: action.choices
            for action in _subparsers()[command]._actions
            for option in action.option_strings
            if option not in ("-h", "--help", "--out")
        }
        documented.pop("--out", None)
        assert set(documented) == set(taken)
        for option, word in documented.items():
            listed = word.strip("{}").split("|") if "|" in word else None
            assert listed == taken[option], option
