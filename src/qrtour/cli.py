"""Command-line interface: generation, counting, spectra, discrepancy,
verification suites, and benchmarking, all emitting JSON run reports.

Exit codes are a stable contract for scripting:
  0 success, 2 usage/input error, 3 I/O failure, 4 resource guard exceeded,
  5 internal invariant violation, 1 failed verification checks.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__, verify
from .core import (
    GeneratorSpec,
    Tournament,
    decode,
    encode,
    generate,
    random_tournament,
    relabel,
)
from .discrepancy import (
    DiscrepancyReport,
    disc_exhaustive,
    disc_localsearch,
    disc_sample,
)
from .errors import InternalInvariantError, ResourceLimitError
from .exactcount import brute_force_count, even_cycles_trace
from .spectral import SpectralSummary, full_spectrum, lambda1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_RESOURCE = 4
EXIT_INVARIANT = 5


def render_json(value) -> str:
    """Indented JSON; floats in shortest round-trip form, NaN and inf refused."""
    return json.dumps(value, indent=2, allow_nan=False)


@contextlib.contextmanager
def _timed(timings: dict, phase: str):
    """Record the wall time of the block, in milliseconds, as ``timings[phase]``."""
    start = time.perf_counter()
    yield
    timings[phase] = (time.perf_counter() - start) * 1000.0


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _fraction_fields(fr: Fraction | None) -> dict | None:
    if fr is None:
        return None
    return {
        "numerator": fr.numerator,
        "denominator": fr.denominator,
        "decimal": format(float(fr), ".12g"),
    }


def _run_report(command, digest, parameters, results, timings) -> dict:
    return {
        "command": command,
        "tool_version": __version__,
        "input_digest": digest,
        "parameters": parameters,
        "results": results,
        "timings_ms": timings,
    }


def _emit(report: dict, out_path: str | None) -> None:
    text = render_json(report) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_tournament(path: str, timings: dict) -> tuple[Tournament, str]:
    with _timed(timings, "load"):
        with open(path, "rb") as fh:
            data = fh.read()
        t, digest = decode(data), _digest(data)
    return t, digest


def _summary_fields(s: SpectralSummary, n: int) -> dict:
    fields = {
        "lambda1_abs": s.lambda1_abs,
        "lambda1_upper": s.lambda1_upper,
        "ratio": s.lambda1_abs / n,
    }
    if s.singular_values is not None:
        fields["singular_values"] = list(s.singular_values)
    return fields


def _disc_fields(rep: DiscrepancyReport) -> dict:
    return {
        "method": rep.method,
        "best_Y": list(rep.best_Y),
        "value": rep.value,
        "normalized": _fraction_fields(rep.normalized),
        "spectral_bound": rep.spectral_bound,
        "witness_signs": list(rep.witness_signs),
    }


# --- commands -----------------------------------------------------------


def _cmd_gen(args) -> int:
    size = args.p if args.type == "paley" else args.n
    if size is None:
        raise ValueError("--p is required for paley, --n for every other family")
    spec = GeneratorSpec(kind=args.type, n=size, seed=args.seed)
    timings: dict = {}
    with _timed(timings, "build"):
        t = generate(spec)
        data = encode(t)
    with _timed(timings, "write"), open(args.out, "wb") as fh:
        fh.write(data)
    report = _run_report(
        "gen",
        None,
        {"type": args.type, "n": t.n, "seed": args.seed, "out": args.out},
        {"path": args.out, "n": t.n, "digest": _digest(data)},
        timings,
    )
    _emit(report, None)
    return EXIT_OK


def _cmd_count(args) -> int:
    if args.k < 2:
        raise ValueError(f"--k must be at least 2, got {args.k}")
    timings: dict = {}
    t, digest = _load_tournament(args.file, timings)
    results: dict = {"k": args.k, "method": args.method, "n": t.n}
    if args.method in ("trace", "both"):
        with _timed(timings, "trace"):
            rep = even_cycles_trace(t, args.k)
        results.update(
            total=rep.total,
            even=rep.even,
            odd=rep.odd,
            trace=rep.trace,
            even_fraction=_fraction_fields(rep.even_fraction),
        )
    if args.method in ("brute", "both"):
        with _timed(timings, "brute"):
            even, odd = brute_force_count(t, args.k, limit=args.limit)
        if args.method == "both":
            if (even, odd) != (results["even"], results["odd"]):
                raise InternalInvariantError(
                    f"trace count ({results['even']}, {results['odd']}) disagrees "
                    f"with enumeration ({even}, {odd})"
                )
            results["agreement"] = True
        else:
            results.update(
                total=even + odd,
                even=even,
                odd=odd,
                trace=None,
                even_fraction=_fraction_fields(
                    Fraction(even, even + odd) if even + odd else None
                ),
            )
    report = _run_report(
        "count",
        digest,
        {"file": args.file, "k": args.k, "method": args.method, "limit": args.limit},
        results,
        timings,
    )
    _emit(report, args.out)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    timings: dict = {}
    t, digest = _load_tournament(args.file, timings)
    with _timed(timings, "solve"):
        summary = full_spectrum(t) if args.full else lambda1(t)
    report = _run_report(
        "spectrum",
        digest,
        {"file": args.file, "full": args.full},
        _summary_fields(summary, t.n),
        timings,
    )
    _emit(report, args.out)
    return EXIT_OK


def _cmd_disc(args) -> int:
    timings: dict = {}
    t, digest = _load_tournament(args.file, timings)
    with _timed(timings, "search"):
        if args.method == "exhaustive":
            rep = disc_exhaustive(t)
        elif args.method == "local":
            rep = disc_localsearch(t, restarts=args.restarts, seed=args.seed)
        else:
            rep = disc_sample(t, samples=args.restarts, seed=args.seed)
    report = _run_report(
        "disc",
        digest,
        {
            "file": args.file,
            "method": args.method,
            "restarts": args.restarts,
            "seed": args.seed,
        },
        _disc_fields(rep),
        timings,
    )
    _emit(report, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    timings: dict = {}
    with _timed(timings, "verify"):
        checks = verify.run(args.suite, args.trials, args.nmax, args.seed)
    all_passed = all(c["pass"] for c in checks)
    report = _run_report(
        "verify",
        None,
        {
            "suite": args.suite,
            "trials": args.trials,
            "nmax": args.nmax,
            "seed": args.seed,
        },
        {"checks": checks, "all_passed": all_passed},
        timings,
    )
    _emit(report, args.out)
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def _environment() -> dict:
    """The software and machine a bench ran on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "cpu_count": os.cpu_count(),
    }


def _cmd_bench(args) -> int:
    sizes = [s for s in (p.strip() for p in args.sizes.split(",")) if s]
    if not sizes:
        raise ValueError("--sizes must list at least one size")
    ns = [int(s) for s in sizes]
    if any(n < 2 for n in ns):
        raise ValueError("bench sizes must be at least 2")
    if args.k < 2:
        raise ValueError(f"--k must be at least 2, got {args.k}")
    if args.repeat < 1:
        raise ValueError(f"--repeat must be at least 1, got {args.repeat}")
    timings: dict = {}
    with _timed(timings, "bench"):
        cases = []
        for n in ns:
            t = random_tournament(n, 0)
            perm = range(n - 1, -1, -1)
            cases.append({
                "count_ms": lambda t=t: even_cycles_trace(t, args.k),
                "spectrum_ms": lambda t=t: lambda1(t),
                "codec_ms": lambda t=t: decode(encode(t)),
                "relabel_ms": lambda t=t, perm=perm: relabel(t, perm),
                "local_ms": lambda t=t: disc_localsearch(t, restarts=8, seed=0),
            })
        # laps run round-robin over the sizes, so that a slow stretch of the
        # process (BLAS start-up stalls) spreads over every row instead of
        # landing on the first one
        laps: list[list[dict]] = [[] for _ in ns]
        for _ in range(args.repeat):
            for steps, runs in zip(cases, laps):
                lap: dict = {}
                for name, step in steps.items():
                    with _timed(lap, name):
                        step()
                runs.append(lap)
        rows = []
        for n, runs in zip(ns, laps):
            row = {"n": n}
            for name in runs[0]:
                ms = [lap[name] for lap in runs]
                row[name] = {
                    "min": min(ms), "median": statistics.median(ms), "max": max(ms)
                }
            rows.append(row)
    # informational scaling estimate: log-log slope of median count time
    exponent = None
    if len(rows) >= 2 and rows[0]["count_ms"]["median"] > 0:
        first, last = rows[0], rows[-1]
        if last["n"] > first["n"] and last["count_ms"]["median"] > 0:
            exponent = float(
                np.log(last["count_ms"]["median"] / first["count_ms"]["median"])
                / np.log(last["n"] / first["n"])
            )
    csv_lines = ["n,count_ms_median,spectrum_ms_median"]
    for row in rows:
        csv_lines.append(
            f"{row['n']},{row['count_ms']['median']!r},{row['spectrum_ms']['median']!r}"
        )
    report = _run_report(
        "bench",
        None,
        {"sizes": ns, "k": args.k, "repeat": args.repeat},
        {
            "rows": rows,
            "scaling_exponent": exponent,
            "csv": "\n".join(csv_lines),
            "environment": _environment(),
        },
        timings,
    )
    _emit(report, args.out)
    return EXIT_OK


# --- parser and dispatch ------------------------------------------------


def _seed_type(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qrtour",
        description="Tournament analysis: exact even-cycle counts, spectral "
        "certificates, and subset discrepancy.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a tournament and write a .trn file")
    p.add_argument(
        "--type",
        required=True,
        choices=["random", "transitive", "rotational", "paley"],
    )
    p.add_argument("--n", type=int, help="vertex count")
    p.add_argument("--p", type=int, help="prime modulus for the paley family")
    p.add_argument("--seed", type=_seed_type, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("count", help="exact even/odd k-cycle counts")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--method", choices=["trace", "brute", "both"], default="trace"
    )
    p.add_argument(
        "--limit",
        type=int,
        default=10**8,
        help="enumeration guard on n**k for the brute method",
    )
    p.add_argument("--out")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("spectrum", help="largest eigenvalue modulus, or all of them")
    p.add_argument("file")
    p.add_argument("--full", action="store_true", help="compute every singular value")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("disc", help="maximize subset discrepancy")
    p.add_argument("file")
    p.add_argument(
        "--method", choices=["exhaustive", "local", "sample"], default="exhaustive"
    )
    p.add_argument(
        "--restarts", type=int, default=8,
        help="local-search restarts; with --method sample, the number of "
        "subsets drawn (exhaustive ignores it)",
    )
    p.add_argument("--seed", type=_seed_type, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_disc)

    p = sub.add_parser("verify", help="run property-check suites")
    p.add_argument(
        "--suite", choices=[*verify.SUITES, "all"], default="all"
    )
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--nmax", type=int, default=30)
    p.add_argument("--seed", type=_seed_type, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "bench",
        help="time counting, spectral, codec, relabel and local-search runs across sizes",
    )
    p.add_argument("--sizes", required=True, help="comma-separated vertex counts")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
