"""Command-line interface: generation, counting, spectra, discrepancy,
the verify crosscheck, and benchmarking, all emitting JSON run reports.

Exit codes are a stable contract for scripting:
  0 success, 2 usage/input error, 3 I/O failure, 4 resource guard exceeded
  or memory exhausted, 5 internal invariant violation, 1 failed verification
  checks.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
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
    CoinStream, _check_count, decode, encode, generate, out_words, random_tournament,
    relabel,
)
from .discrepancy import (
    DiscrepancyReport,
    disc_exhaustive,
    disc_given,
    disc_localsearch,
    disc_sample,
    witness_vectors,
)
from .errors import InternalInvariantError, ResourceLimitError
from .exactcount import brute_force_count, even_cycles_trace
from .spectral import lambda1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_RESOURCE = 4
EXIT_INVARIANT = 5


def _json_default(value):
    """JSON form of the library values that stock ``json`` does not know."""
    if isinstance(value, Fraction):
        return {
            "numerator": value.numerator,
            "denominator": value.denominator,
            "decimal": format(float(value), ".12g"),
        }
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return vars(value)  # a report's fields, in declaration order
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render_json(value) -> str:
    """One line of JSON; floats in shortest round-trip form, NaN and inf refused.

    A Fraction renders as its numerator, denominator and 12-digit decimal,
    and a report dataclass as its fields.  Without ``indent`` stock ``json``
    runs its C encoder.
    """
    return json.dumps(value, allow_nan=False, default=_json_default)


@contextlib.contextmanager
def _timed(timings: dict, phase: str):
    """Record the wall time of the block, in milliseconds, as ``timings[phase]``."""
    start = time.perf_counter()
    yield
    timings[phase] = (time.perf_counter() - start) * 1000.0


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


# --- commands -----------------------------------------------------------
# Each takes the parsed arguments, the tournament read from ``args.file``
# (None for commands without one) and the timings to add its phases to,
# and returns the ``results`` of its report.


def _cmd_gen(args, t, timings) -> dict:
    with _timed(timings, "build"):
        t = generate(args.type, args.n, args.seed)
        data = encode(t)
    with _timed(timings, "write"), open(args.out, "wb") as fh:
        fh.write(data)
    return {"path": args.out, "n": t.n, "digest": _digest(data)}


def _cmd_count(args, t, timings) -> dict:
    if args.method == "both":
        # first, so that its guard refuses before any trace work
        with _timed(timings, "brute"):
            even, odd = brute_force_count(t, args.k)
    results: dict = {"k": args.k, "method": args.method, "n": t.n}
    with _timed(timings, "trace"):
        results.update(vars(even_cycles_trace(t, args.k)))
    if args.method == "both":
        if (even, odd) != (results["even"], results["odd"]):
            raise InternalInvariantError(
                f"trace count ({results['even']}, {results['odd']}) disagrees "
                f"with enumeration ({even}, {odd})"
            )
        results["agreement"] = True
    return results


def _cmd_spectrum(args, t, timings) -> dict:
    with _timed(timings, "solve"):
        summary = lambda1(t)
    results = {
        "lambda1_abs": summary.lambda1_abs,
        "lambda1_upper": summary.lambda1_upper,
        "ratio": summary.lambda1_abs / t.n,
        "solver": summary.solver,
    }
    if args.full:
        results["singular_values"] = list(summary.singular_values)
    return results


def _cmd_disc(args, t, timings) -> DiscrepancyReport:
    with _timed(timings, "search"):
        if args.method == "exhaustive":
            return disc_exhaustive(t)
        if args.method == "local":
            return disc_localsearch(t, restarts=args.restarts, seed=args.seed)
        return disc_sample(t, samples=args.restarts, seed=args.seed)


def _cmd_verify(args, t, timings) -> dict:
    with _timed(timings, "verify"):
        checks = verify.run(args.trials, args.nmax, args.seed)
    return {"checks": checks, "all_passed": all(c["pass"] for c in checks)}


def _environment() -> dict:
    """The software and machine a bench ran on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    # a speed reference: the median of five 256 x 256 float64 products, so
    # that rows of different runs can be compared at the machine's speed
    x = np.linspace(-1.0, 1.0, 256 * 256).reshape(256, 256)
    laps: dict = {}
    for i in range(5):
        with _timed(laps, i):
            x @ x
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "cpu_count": os.cpu_count(),
        "matmul256_ms": statistics.median(laps.values()),
    }


def _cmd_bench(args, t, timings) -> dict:
    _check_count("repeat", args.repeat)
    with _timed(timings, "bench"):
        cases = []
        for n in args.sizes:
            t = random_tournament(n, 0)
            perm = range(n - 1, -1, -1)
            # X and Y hold each vertex on a coin of seed 0: density 0.5
            halves = CoinStream(0).take(2 * n).reshape(2, n)
            xs, ys = (np.flatnonzero(c).tolist() for c in halves)
            cases.append((t, {
                "count_ms": lambda t=t: even_cycles_trace(t, args.k),
                "spectrum_ms": lambda t=t: lambda1(t),
                "codec_ms": lambda t=t: decode(encode(t)),
                "relabel_ms": lambda t=t, perm=perm: relabel(t, perm),
                "query_ms": lambda t=t, xs=xs, ys=ys: (
                    disc_given(t, xs, ys), witness_vectors(t, ys)
                ),
                "local_ms": lambda t=t: disc_localsearch(t, restarts=8, seed=0),
            }))
        # laps run round-robin over the sizes, so that a slow stretch of the
        # process (BLAS start-up stalls) spreads over every row instead of
        # landing on the first one
        laps: list[list[dict]] = [[] for _ in args.sizes]
        # the value local search found, deterministic in its (t, 8, 0)
        local_values = [None for _ in args.sizes]
        for _ in range(args.repeat):
            for i, ((t, steps), runs) in enumerate(zip(cases, laps)):
                out_words(t)  # untimed, and builds sign_array too: every step runs warm
                lap: dict = {}
                for name, step in steps.items():
                    with _timed(lap, name):
                        result = step()
                    if name == "local_ms":
                        local_values[i] = result.value
                runs.append(lap)
        rows = []
        for n, runs, local_value in zip(args.sizes, laps, local_values):
            row = {"n": n}
            for name in runs[0]:
                ms = [lap[name] for lap in runs]
                row[name] = {
                    "min": min(ms), "median": statistics.median(ms), "max": max(ms)
                }
            row["local_value"] = local_value
            rows.append(row)
    return {"rows": rows, "environment": _environment()}


# --- parser and dispatch ------------------------------------------------


def _seed_type(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return value


def _sizes_type(text: str) -> list[int]:
    sizes = [int(s) for s in (p.strip() for p in text.split(",")) if s]
    if not sizes:
        raise argparse.ArgumentTypeError("must list at least one size")
    return sizes


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
    p.add_argument(
        "--n", type=int, required=True, help="vertex count (the prime p for paley)"
    )
    p.add_argument("--seed", type=_seed_type, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("count", help="exact even/odd k-cycle counts")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=["trace", "both"], default="trace")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("spectrum", help="largest eigenvalue modulus, or all of them")
    p.add_argument("file")
    p.add_argument("--full", action="store_true", help="list all the moduli in the report")
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

    p = sub.add_parser(
        "verify", help="cross-check trace counts, moments and discrepancy queries"
    )
    p.add_argument("--trials", type=int, default=10, help="random tournaments drawn")
    p.add_argument("--nmax", type=int, default=30, help="largest random size, at least 4")
    p.add_argument("--seed", type=_seed_type, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "bench",
        help="time counting, spectral, codec, relabel, query and local-search runs "
        "across sizes",
    )
    p.add_argument(
        "--sizes", type=_sizes_type, required=True, help="comma-separated vertex counts"
    )
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bench)
    return parser


def _report(args) -> int:
    """Load the input, run the parsed command, and render and write its report.

    Returns the exit code: 1 when a verify check failed, else 0.
    """
    timings: dict = {}
    t = digest = None
    if "file" in args:
        with _timed(timings, "load"):
            with open(args.file, "rb") as fh:
                data = fh.read()
            t, digest = decode(data), _digest(data)
    results = args.func(args, t, timings)
    skip = ("command", "func", "out")
    parameters = {k: v for k, v in vars(args).items() if k not in skip}
    out = args.out
    if args.command == "gen":
        # gen's --out is the .trn file it wrote: a parameter, with the report
        # on stdout
        parameters["out"] = out
        out = None
    text = render_json({
        "command": args.command,
        "tool_version": __version__,
        "input_digest": digest,
        "parameters": parameters,
        "results": results,
        "timings_ms": timings,
    }) + "\n"
    if out:
        # binary mode: the report is ASCII, so no text layer is needed
        with open(out, "wb") as fh:
            fh.write(text.encode())
    else:
        sys.stdout.write(text)
    if args.command == "verify" and not results["all_passed"]:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _report(args)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ResourceLimitError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
