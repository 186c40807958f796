"""One benchmark pass in a fresh interpreter.

Usage: python3 worker.py <pass.json>

Imports qrtour from the checkout's ``src``, runs the workload's warm-up
job and notes the wall-clock time (the parent measures set-up from its
launch to this moment), then runs the pass's jobs one after another,
timing only the call into qrtour.  The reference kernel of ``speed.py``
runs before each job and after the last one.  Each job's answer is reduced to the
fields the oracles check and written, with the job times, peak RSS and
(when traced) the spans, to the results file named in the pass file.  With
``"probe": true`` it stops after the warm-up.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _tournament_from_file(qrtour, path: Path):
    # a plain parse of the benchmark's own file, so that building the input
    # of a library job does not go through the codec under test
    header, body, _ = path.read_bytes().split(b"\n")
    bits = (np.frombuffer(body, dtype=np.uint8) - 0x30).tobytes()
    return qrtour.Tournament(int(header.split()[1]), bits)


def _bits_digest(t) -> dict:
    return {"n": t.n, "digest": workloads.digest(bytes(t.bits))}


class Runner:
    """Prepares, times and summarizes jobs of one pass."""

    def __init__(self, qrtour, workdir: Path):
        self.q = qrtour
        self.workdir = workdir
        self.out = workdir / "report.json"
        self.slots: dict = {}

    def prepare(self, job: dict):
        """Everything a job needs before the clock starts: (call, summarize)."""
        q, op = self.q, job["op"]
        if op in ("count", "spectrum", "spectrum_full", "disc"):
            path = str(self.workdir / job["file"])
            if op == "count":
                argv = ["count", path, "--k", str(job["k"])]
            elif op == "spectrum":
                argv = ["spectrum", path]
            elif op == "spectrum_full":
                argv = ["spectrum", path, "--full"]
            else:
                argv = ["disc", path, "--method", job["method"]]
                if job["method"] != "exhaustive":
                    argv += ["--restarts", str(job["restarts"]), "--seed", str(job["seed"])]
            argv += ["--out", str(self.out)]
            self.out.unlink(missing_ok=True)
            return (lambda: q.cli.main(argv)), self._cli_summary
        if op == "certificate":
            t = _tournament_from_file(q, self.workdir / job["file"])
            threshold = job["threshold"]
            return (lambda: q.spectral.quasirandom_certificate(t, threshold)), (
                lambda r: {"status": r.status, "ratio": r.ratio, "lambda1_abs": r.summary.lambda1_abs}
            )
        if op == "gen":
            spec = job["input"]
            fam, n = spec["family"], spec["n"]
            core = q.core
            call = {
                "random": lambda: core.random_tournament(n, spec["seed"]),
                "paley": lambda: core.paley_tournament(n),
                "rotational": lambda: core.rotational_tournament(n),
                "transitive": lambda: core.transitive_tournament(n),
            }[fam]
            return call, _bits_digest
        src = self.slots[job["src"]]
        if op == "encode":
            return (lambda: q.core.encode(src)), lambda r: {"digest": workloads.digest(r)}
        if op == "decode":
            return (lambda: q.core.decode(src)), _bits_digest
        if op == "reverse":
            return (lambda: q.core.reverse(src)), _bits_digest
        if op == "relabel":
            perm = workloads.permutation(src.n, job["seed"])
            return (lambda: q.core.relabel(src, perm)), _bits_digest
        ys = workloads.subset(src.n, job["seed"], job["density"])
        if op == "disc_given":
            xs = workloads.subset(src.n, job["seed"] + 1)
            return (lambda: q.discrepancy.disc_given(src, xs, ys)), lambda r: {"value": int(r)}
        if op == "witness_vectors":
            return (lambda: q.discrepancy.witness_vectors(src, ys)), (
                lambda r: {
                    "value": int(r[1]),
                    "signs": workloads.digest(np.asarray(r[0], dtype=np.int8).tobytes()),
                }
            )
        raise ValueError(f"unknown op {op!r}")

    def _cli_summary(self, code):
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        results = json.loads(self.out.read_text())["results"]
        keep = ("total", "even", "odd", "trace", "lambda1_abs", "singular_values",
                "converged", "value", "best_Y", "spectral_bound")
        return {k: results[k] for k in keep if k in results}

    def run(self, job: dict, tracer=None) -> dict:
        """Run one job; the record holds its wall time and answer or error."""
        record = {"id": job["id"], "t": 0.0, "ok": False}
        try:
            call, summarize = self.prepare(job)
        except KeyError as exc:  # a session input that an earlier job failed to produce
            record["error"] = f"input unavailable: {exc}"
            return record
        if tracer is not None:
            tracer.job = job["id"]
        start = time.perf_counter()
        try:
            result = call()
            record["t"] = time.perf_counter() - start
        except Exception as exc:  # the job fails; the pass goes on
            record["t"] = time.perf_counter() - start
            record["error"] = f"{type(exc).__name__}: {exc}"
            return record
        finally:
            if tracer is not None:
                tracer.job = None
        try:
            record["out"] = summarize(result)
            record["ok"] = True
        except (RuntimeError, OSError, ValueError, KeyError) as exc:
            record["error"] = str(exc)
        if "slot" in job:
            self.slots[job["slot"]] = result
        return record


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    workdir = Path(spec["workdir"])
    sys.path.insert(0, spec["src"])
    import qrtour
    import qrtour.cli  # noqa: F401  (loads every layer module)

    runner = Runner(qrtour, workdir)
    warm = runner.run(spec["warmup"])
    if not warm["ok"]:
        print(f"warm-up job failed: {warm.get('error')}", file=sys.stderr)
        return 3
    ready_at = time.time()
    results = Path(spec["results"])
    if spec.get("probe"):
        results.write_text(json.dumps({"ready_at": ready_at}))
        return 0

    tracer = None
    sign_array = qrtour.core.sign_array
    info = getattr(sign_array, "cache_info", None)
    before = info() if info else None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    runner.slots.clear()
    records, refs = [], []
    for job in spec["jobs"]:
        refs.append(speed.kernel())
        records.append(runner.run(job, tracer))
    refs.append(speed.kernel())
    if tracer is not None:
        tracer.uninstall()
    after = info() if info else None
    result = {
        "ready_at": ready_at,
        "records": records,
        "refs": refs,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer else [],
        "cache": {
            "hits": after.hits - before.hits if info else 0,
            "misses": after.misses - before.misses if info else 0,
        },
    }
    results.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
