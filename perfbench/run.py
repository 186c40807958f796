"""qrtour benchmark: oracle-checked workloads and an outside-in layer trace.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload count-exact --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28

One client runs a closed loop: each job is one call into qrtour, made only
after the previous one returned.  A pass runs the workload's whole fixed
job list in a fresh worker interpreter (so the sign_array cache starts cold
and peak RSS belongs to that pass alone); passes repeat on the same inputs
while another one fits in ``--seconds``.  Each job's time is scaled to a
reference machine speed measured between jobs (``speed.py``) and is its
median over the passes.  Every answer of every pass is checked by an
independent oracle.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half the
time untraced and half traced and prints the per-layer metrics.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a readable summary with sample counts and the
environment goes to standard error and to perfbench/results/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_PROBES = 9
# Bounds the oracle work after a run when passes get short.
MAX_PASSES = 16
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def metric_specs() -> dict[str, dict[str, str]]:
    """Metric name -> unit, per section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        section: {m["name"]: m["unit"] for m in spec[section]}
        for section in ("end_to_end", "per_layer")
    }


# --- environment ------------------------------------------------------------


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it exposes one."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": _blas_threads(),
        "thread_env": {
            k: os.environ.get(k, "unset")
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": _git_commit(),
    }


# --- worker processes -------------------------------------------------------


def _launch(spec: dict, tmp: Path) -> dict:
    """Run one worker to completion; adds ``setup_s`` (launch to warm-up done)."""
    spec = dict(spec, workdir=str(tmp), src=str(SRC), results=str(tmp / "results.json"))
    (tmp / "pass.json").write_text(json.dumps(spec))
    (tmp / "results.json").unlink(missing_ok=True)
    with open(tmp / "worker.err", "w") as err:
        launched = time.time()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(tmp / "pass.json")],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT,
        )
        try:
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        tail = (tmp / "worker.err").read_text()[-2000:]
        raise BenchError(f"worker exited with code {code}:\n{tail}")
    result = json.loads((tmp / "results.json").read_text())
    result["setup_s"] = result["ready_at"] - launched
    return result


class Workload:
    """One workload's inputs, set-up probes and passes, in a scratch directory."""

    def __init__(self, name: str, seed: int, tmp: Path, tiny: bool = False):
        self.tmp = tmp
        templates = wl.templates(name, tiny)
        self.jobs = wl.materialize(templates, seed, tmp)
        warm = dict(wl.WARMUP[name], id=len(templates))
        self.warmup = wl.materialize([warm], seed, tmp)[0]
        self.next_pass = 0

    def setup_times(self, probes: int) -> list[float]:
        spec = {"warmup": self.warmup, "jobs": [], "trace": False, "probe": True}
        return [_launch(spec, self.tmp)["setup_s"] for _ in range(probes)]

    def passes(self, deadline: float, traced: bool) -> list[dict]:
        """Whole passes while another is expected to end by ``deadline``.

        ``deadline`` is a ``time.perf_counter()`` value; at least one pass
        runs.  Every pass runs the same jobs on the same inputs, each pass
        in a fresh worker, so no cache carries over from one pass to the next.
        """
        done = []
        while True:
            began = time.perf_counter()
            spec = {"warmup": self.warmup, "jobs": self.jobs, "trace": traced}
            result = _launch(spec, self.tmp)
            result["pass_index"] = self.next_pass
            result["raw_times"] = [r["t"] for r in result["records"]]
            result["scale"] = speed.local_scale(result["refs"])
            result["times"] = [t * s for t, s in zip(result["raw_times"], result["scale"])]
            done.append(result)
            self.next_pass += 1
            now = time.perf_counter()
            if now + (now - began) > deadline or len(done) == MAX_PASSES:
                return done


def check(jobs: list[dict], passes: list[dict], oracle: oracles.Oracle) -> list[dict]:
    """Oracle verdicts for every job of every pass; returns the failures."""
    failures = []
    for p in passes:
        verdicts = oracle.check_pass(jobs, p["records"])
        for job, rec, reason in zip(jobs, p["records"], verdicts):
            if reason is not None:
                failures.append({
                    "pass": p["pass_index"], "job": job["id"], "op": job["op"],
                    "input": job.get("input", job.get("src")), "reason": reason,
                    "known_defect": wl.known_defect(job, rec),
                })
    return failures


def job_times(passes: list[dict], key: str = "times") -> np.ndarray:
    """Each job's wall time: its median over the passes of the run.

    With the default ``key`` these are times at reference speed (see
    ``speed.py``); ``"raw_times"`` gives the wall times as measured.
    """
    return np.median([p[key] for p in passes], axis=0)


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile of ``values``.

    A weighted mean of all order statistics, with Beta(p(n+1), (1-p)(n+1))
    weights; unlike a single order statistic it does not jump when two jobs
    near the quantile swap places or a job's time crosses a gap in the mix.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    grid = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)])
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ x)


def run_scale(passes: list[dict]) -> float:
    """The median of the passes' per-job factors to reference speed."""
    return float(np.median([s for p in passes for s in p["scale"]]))


def _timings(times: np.ndarray, setup_s: float) -> dict:
    return {
        "jobs_per_s": len(times) / times.sum(),
        "job_s.p50": quantile(times, 0.5),
        "job_s.p90": quantile(times, 0.9),
        "setup_s": setup_s,
    }


def end_to_end(passes: list[dict], setup: list[float]) -> tuple[dict, dict]:
    """End-to-end metric values and their sample counts.

    Set-up probes run in fresh processes, where no kernel runs between
    steps; their median is scaled by the run's median factor instead.
    """
    times = job_times(passes)
    jobs = len(times) * len(passes)
    values = dict(
        _timings(times, statistics.median(setup) * run_scale(passes)),
        peak_rss_mb=max(p["maxrss_kb"] for p in passes) / 1024.0,
    )
    samples = {
        "jobs_per_s": jobs, "job_s.p50": jobs, "job_s.p90": jobs,
        "setup_s": len(setup), "peak_rss_mb": len(passes),
    }
    return values, samples


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload and return its result record."""
    if not (SRC / "qrtour" / "__init__.py").is_file():
        raise BenchError(f"qrtour sources not found under {SRC}")
    specs = metric_specs()
    start = time.perf_counter()
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        work = Workload(name, seed, tmp, tiny)
        # set-up probes before and after the passes, so that their median
        # does not rest on one moment of the machine's speed
        setup = work.setup_times(SETUP_PROBES - SETUP_PROBES // 2)
        plain = work.passes(start + (seconds / 2 if trace else seconds), traced=False)
        traced = work.passes(start + seconds, traced=True) if trace else []
        setup += work.setup_times(SETUP_PROBES // 2)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    oracle = oracles.Oracle()
    failures = check(work.jobs, plain + traced, oracle)
    attempted = sum(len(p["records"]) for p in plain + traced)
    values, samples = end_to_end(plain, setup)
    values["fail_ratio"] = len(failures) / attempted
    samples["fail_ratio"] = attempted
    if trace:
        missing = tracer.missing_layers(name, traced)
        if missing:
            raise BenchError(f"traced run of {name} recorded no span in {missing}")
        layer = tracer.layer_metrics(traced, oracle.lambda1)
        traced_times = job_times(traced)
        layer["trace.overhead_ratio"] = len(traced_times) / traced_times.sum() / values["jobs_per_s"]
        section, source = specs["per_layer"], layer
    else:
        section, source = specs["end_to_end"], values
    metrics = {k: {"value": float(source[k]), "unit": unit} for k, unit in section.items()}
    unexplained = [f for f in failures if not f["known_defect"]]
    has_known = any(wl.known_defect(j) for j in work.jobs)
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": not unexplained,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "end_to_end": {k: {"value": v, "samples": samples[k]} for k, v in values.items()},
        "as_measured": _timings(job_times(plain, "raw_times"), statistics.median(setup)),
        "speed": run_scale(plain),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "failures": failures[:50],
        "unexplained_failures": len(unexplained),
        "known_defect_stale": has_known and len(failures) == len(unexplained),
        "environment": environment(),
    }


def summary(rec: dict) -> str:
    units = dict(metric_specs()["end_to_end"], fail_ratio="ratio")
    lines = [f"== {rec['workload']} (seed {rec['seed']}, trace {rec['trace']}, "
             f"passes {rec['passes']}) =="]
    for name, m in rec["end_to_end"].items():
        raw = rec["as_measured"].get(name)
        note = "" if raw is None else f"  (as measured {raw:.6g})"
        lines.append(f"  {name:<14} {m['value']:<14.6g} {units[name]:<6} n={m['samples']}{note}")
    lines.append(f"  machine speed: median reference scale {rec['speed']:.4g}")
    if rec["trace"]:
        for name, m in rec["metrics"].items():
            lines.append(f"  {name:<34} {m['value']:<14.6g} {m['unit']}")
    lines.append(f"  attempted {rec['attempted']}, failed {rec['failed']}, "
                 f"unexplained {rec['unexplained_failures']}")
    for f in rec["failures"][:8]:
        tag = f" [known: {f['known_defect']}]" if f["known_defect"] else ""
        lines.append(f"    job {f['job']} {f['op']} {f['input']}: {f['reason']}{tag}")
    if rec["known_defect_stale"]:
        lines.append("  note: no job of a known defect failed; update workloads.known_defect")
    lines.append(f"  env {json.dumps(rec['environment'])}")
    return "\n".join(lines)


def _save(rec: dict, stem: str) -> None:
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{stem}.json").write_text(json.dumps(rec, indent=1, default=str))


def _line(rec: dict) -> str:
    return json.dumps({k: rec[k] for k in ("correct", "attempted", "failed", "metrics")})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through the finally blocks that stop the worker
    # and remove the scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")
    try:
        if args.workload != "all":
            rec = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            print(summary(rec), file=sys.stderr)
            _save(rec, f"{args.workload}-seed{args.seed}-trace{args.trace}")
            print(_line(rec))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in wl.WORKLOADS:
            for trace in (False, True):
                rec = run_workload(name, args.seed, args.seconds, trace)
                print(summary(rec), file=sys.stderr)
                _save(rec, f"{name}-seed{args.seed}-trace{int(trace)}")
                combined["correct"] &= rec["correct"]
                combined["attempted"] += rec["attempted"]
                combined["failed"] += rec["failed"]
                for k, m in rec["metrics"].items():
                    combined["metrics"][f"{name}/{k}"] = m
        print(json.dumps(combined))
        return 0
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
