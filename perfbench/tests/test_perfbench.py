"""Tests of the benchmark itself, at tiny scale.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")


class TestBenchmarkJson:
    def test_keys_and_limits(self):
        assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
        assert SPEC["paths"] == ["perfbench"]
        assert 1 <= SPEC["run_seconds"] <= 60
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        assert len(names) == len(set(names))
        assert all(set(n) <= NAME_CHARS and len(n) <= 64 and n[0].isalnum() for n in names)
        assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
        assert all(set(m) == {"name", "unit", "better", "bound"} and m["bound"] <= 0.25
                   for m in SPEC["end_to_end"])
        assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])

    def test_workloads_match_the_code(self):
        assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        assert bounds["setup_s"] == max(bounds.values())


@pytest.fixture(scope="module")
def tiny_passes():
    """The jobs and one untraced and one traced tiny pass of every workload."""
    out = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-test-", dir=ROOT) as tmp:
        for name in wl.WORKLOADS:
            work = run.Workload(name, 7, Path(tmp), tiny=True)
            out[name] = (work.jobs, work.passes(0, traced=False) + work.passes(0, traced=True))
    return out


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_every_workload_emits_every_metric(name, trace):
    rec = run.run_workload(name, 3, 0, trace, tiny=True)
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert rec["metrics"] == {
        m["name"]: {"value": rec["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in section
    }
    assert rec["correct"] and rec["attempted"] >= 1
    # rotational 3 | n inputs fail on the seed code's power iteration
    defective = name in ("spectral-cert", "disc-search")
    assert (rec["failed"] > 0) == defective
    assert all(f["known_defect"] for f in rec["failures"])
    line = json.loads(run._line(rec))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


def _failures(jobs, passes):
    return len(run.check(jobs, passes, oracles.Oracle()))


def _tamper(jobs, passes, op, change, pick=lambda job: True):
    """Copy of ``passes`` with ``change`` applied to the first matching answer."""
    passes = json.loads(json.dumps(passes))
    for p in passes:
        for job, rec in zip(jobs, p["records"]):
            if job["op"] == op and rec["ok"] and pick(job) and not wl.known_defect(job):
                change(rec["out"])
                return passes
    raise AssertionError(f"no {op} job to tamper with")


def _consistent_trace_change(out):
    # keeps the total, even + odd, trace = even - odd and the sign rule: only
    # the traces modulo primes can catch it
    out["trace"] += 4
    out["even"] += 2
    out["odd"] -= 2


INJECTED = [
    ("count-exact", "count", lambda o: o.update(trace=o["trace"] ^ 2), lambda j: j["k"] % 2 == 0),
    ("count-exact", "count", _consistent_trace_change, lambda j: j["k"] % 4 == 0),
    ("count-exact", "count", lambda o: o.update(even=o["even"] + 1), lambda j: True),
    ("spectral-cert", "spectrum", lambda o: o.update(lambda1_abs=o["lambda1_abs"] * (1 + 1e-5)), None),
    ("spectral-cert", "spectrum_full",
     lambda o: o["singular_values"].__setitem__(-1, o["singular_values"][-1] + 0.5), None),
    ("spectral-cert", "certificate",
     lambda o: o.update(status="refused" if o["status"] == "certified" else "certified"), None),
    ("disc-search", "disc", lambda o: o.update(best_Y=o["best_Y"][1:]), None),
    ("disc-search", "disc", lambda o: o.update(spectral_bound=o["spectral_bound"] * 0.9), None),
    ("disc-search", "disc", lambda o: o.update(value=o["value"] - 2, best_Y=o["best_Y"]),
     lambda j: j["method"] == "exhaustive"),
    ("ingest-large", "gen", lambda o: o.update(digest="0" * 64), None),
    ("ingest-large", "encode", lambda o: o.update(digest="0" * 64), None),
    ("ingest-large", "decode", lambda o: o.update(digest="0" * 64), None),
    ("ingest-large", "reverse", lambda o: o.update(digest="0" * 64), None),
    ("ingest-large", "relabel", lambda o: o.update(digest="0" * 64), None),
    ("ingest-large", "disc_given", lambda o: o.update(value=o["value"] + 1), None),
    ("ingest-large", "witness_vectors", lambda o: o.update(signs="0" * 64), None),
]


@pytest.mark.parametrize("name,op,change,pick", INJECTED)
def test_injected_wrong_answer_raises_fail_ratio(tiny_passes, name, op, change, pick):
    jobs, passes = tiny_passes[name]
    before = _failures(jobs, passes)
    after = _failures(jobs, _tamper(jobs, passes, op, change, pick or (lambda job: True)))
    assert after == before + 1


def test_quantile_is_a_weighted_mean_of_order_statistics():
    import numpy as np

    assert run.quantile([3.0] * 7, 0.9) == pytest.approx(3.0)
    x = np.arange(101, dtype=float)
    assert run.quantile(x, 0.5) == pytest.approx(50.0)
    assert 85 < run.quantile(x, 0.9) < 95
    assert run.quantile(x[::-1], 0.9) == run.quantile(x, 0.9)


def test_times_are_scaled_by_the_reference_kernel_near_each_job():
    import speed

    refs = [speed.REF_S] * 10 + [2 * speed.REF_S] * 30
    scale = speed.local_scale(refs)
    assert len(scale) == len(refs) - 1
    assert scale[0] == pytest.approx(1.0)
    assert scale[-1] == pytest.approx(0.5)


def test_oracle_helpers_against_direct_computation():
    import numpy as np

    a = wl.sign_matrix(9, wl.family_bits("random", 9, 5))
    exact = int(np.trace(np.linalg.matrix_power(a.astype(np.int64), 6)))
    assert all(oracles.trace_mod(a, 6, p) == exact % p for p in oracles.PRIMES)
    best = max(
        oracles.subset_value(a, [v for v in range(9) if m >> v & 1]) for m in range(1 << 9)
    )
    assert oracles.exhaustive_max(a, chunk=64) == best


def test_inputs_depend_on_the_seed_only_through_random_content():
    jobs = wl.templates("count-exact")
    a = wl.materialize(jobs, 1, None)
    b = wl.materialize(jobs, 2, None)
    assert [j["input"]["n"] for j in a] == [j["input"]["n"] for j in b]
    assert a == wl.materialize(jobs, 1, None)
    assert a != b


def test_full_job_lists_are_large_enough_for_p90():
    for name in wl.WORKLOADS:
        assert len(wl.templates(name)) >= 100


def test_tracer_rebinds_cross_module_names():
    sys.path.insert(0, str(ROOT / "src"))
    import qrtour
    import qrtour.cli

    original = qrtour.discrepancy.lambda1
    tournament = qrtour.random_tournament(12, 1)
    t = tracer.Tracer()
    t.install()
    try:
        for module, attr in [
            (qrtour.discrepancy, "lambda1"), (qrtour.spectral, "gram"),
            (qrtour.cli, "decode"), (qrtour.cli, "even_cycles_trace"), (qrtour, "encode"),
        ]:
            assert hasattr(getattr(module, attr), "__wrapped__"), f"{module.__name__}.{attr}"
        t.job = 1
        qrtour.discrepancy.spectral_upper_bound(tournament)
    finally:
        t.uninstall()
    assert qrtour.discrepancy.lambda1 is original
    names = [s[0] for s in t.spans]
    assert names[:3] == ["discrepancy.spectral_upper_bound", "spectral.lambda1", "spectral.gram"]
    assert [s[3] for s in t.spans[:3]] == [-1, 0, 1]
    assert all(s[4] == 1 for s in t.spans)


def test_smoke_check_names_a_layer_without_spans():
    spans = [["exactcount.even_cycles_trace", 0.0, 1.0, -1, 0, None]]
    assert tracer.missing_layers("ingest-large", [{"spans": spans}]) == ["core", "discrepancy"]
    spans.append(["core.decode", 0.0, 2.0, -1, 1, None])
    spans.append(["discrepancy.disc_given", 0.0, 2.0, -1, 2, None])
    assert tracer.missing_layers("ingest-large", [{"spans": spans}]) == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "count-exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
