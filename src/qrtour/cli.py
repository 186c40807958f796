"""Command-line interface: generation, counting, spectra, discrepancy,
verification suites, and benchmarking, all emitting JSON run reports.

Exit codes are a stable contract for scripting:
  0 success, 2 usage/input error, 3 I/O failure, 4 resource guard exceeded,
  5 internal invariant violation, 1 failed verification checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .core import (
    CoinStream,
    GeneratorSpec,
    Tournament,
    decode,
    encode,
    generate,
    paley_tournament,
    random_tournament,
    relabel,
    rotational_tournament,
)
from .discrepancy import (
    DiscrepancyReport,
    disc_exhaustive,
    disc_localsearch,
    disc_sample,
)
from .errors import InternalInvariantError, ParseError, ResourceLimitError
from .exactcount import (
    brute_force_count,
    ec_bound_check,
    even_cycles_trace,
    power_trace,
    total_cycles,
)
from .spectral import SpectralSummary, full_spectrum, lambda1, moment_crosscheck

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_RESOURCE = 4
EXIT_INVARIANT = 5


# --- JSON rendering -----------------------------------------------------
# Floats are printed with 17 significant digits so every double round-trips
# exactly; the stock json module prints shortest-repr instead.


def _format_float(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x}")
    s = format(float(x), ".17g")
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


def _render(value, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{inner}{_render(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{inner}"{k}": {_render(v, indent + 1)}' for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def render_json(value) -> str:
    return _render(value, 0)


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


def _load_tournament(path: str) -> tuple[Tournament, str]:
    with open(path, "rb") as fh:
        data = fh.read()
    return decode(data), _digest(data)


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
    t0 = time.perf_counter()
    t = generate(spec)
    data = encode(t)
    build_ms = (time.perf_counter() - t0) * 1000.0
    t1 = time.perf_counter()
    with open(args.out, "wb") as fh:
        fh.write(data)
    write_ms = (time.perf_counter() - t1) * 1000.0
    report = _run_report(
        "gen",
        None,
        {"type": args.type, "n": t.n, "seed": args.seed, "out": args.out},
        {"path": args.out, "n": t.n, "digest": _digest(data)},
        {"build": build_ms, "write": write_ms},
    )
    _emit(report, None)
    return EXIT_OK


def _cmd_count(args) -> int:
    if args.k < 2:
        raise ValueError(f"--k must be at least 2, got {args.k}")
    t0 = time.perf_counter()
    t, digest = _load_tournament(args.file)
    load_ms = (time.perf_counter() - t0) * 1000.0
    results: dict = {"k": args.k, "method": args.method, "n": t.n}
    timings = {"load": load_ms}
    if args.method in ("trace", "both"):
        t1 = time.perf_counter()
        rep = even_cycles_trace(t, args.k)
        timings["trace"] = (time.perf_counter() - t1) * 1000.0
        results.update(
            total=rep.total,
            even=rep.even,
            odd=rep.odd,
            trace=rep.trace,
            even_fraction=_fraction_fields(rep.even_fraction),
        )
    if args.method in ("brute", "both"):
        t1 = time.perf_counter()
        even, odd = brute_force_count(t, args.k, limit=args.limit)
        timings["brute"] = (time.perf_counter() - t1) * 1000.0
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
    t0 = time.perf_counter()
    t, digest = _load_tournament(args.file)
    load_ms = (time.perf_counter() - t0) * 1000.0
    t1 = time.perf_counter()
    summary = full_spectrum(t) if args.full else lambda1(t)
    solve_ms = (time.perf_counter() - t1) * 1000.0
    report = _run_report(
        "spectrum",
        digest,
        {"file": args.file, "full": args.full},
        _summary_fields(summary, t.n),
        {"load": load_ms, "solve": solve_ms},
    )
    _emit(report, args.out)
    return EXIT_OK


def _cmd_disc(args) -> int:
    t0 = time.perf_counter()
    t, digest = _load_tournament(args.file)
    load_ms = (time.perf_counter() - t0) * 1000.0
    t1 = time.perf_counter()
    if args.method == "exhaustive":
        rep = disc_exhaustive(t)
    elif args.method == "local":
        rep = disc_localsearch(t, restarts=args.restarts, seed=args.seed)
    else:
        rep = disc_sample(t, samples=args.restarts, seed=args.seed)
    search_ms = (time.perf_counter() - t1) * 1000.0
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
        {"load": load_ms, "search": search_ms},
    )
    _emit(report, args.out)
    return EXIT_OK


# --- verification suites ------------------------------------------------


def _check(name: str, ok: bool, detail: str = "") -> dict:
    entry = {"check": name, "pass": bool(ok)}
    if detail:
        entry["detail"] = detail
    return entry


def _verify_claims(trials: int, nmax: int, seed: int) -> list[dict]:
    """Trace structure on random tournaments: zero for odd k, signed for even k."""
    rng = CoinStream(seed)
    odd_fail = sign_fail = ""
    for _ in range(trials):
        n = 2 + rng.below(max(nmax - 1, 1))
        t = random_tournament(n, rng.seed64())
        for k in (3, 5, 7):
            if power_trace(t, k) != 0:
                odd_fail = odd_fail or f"tr(A^{k}) != 0 at n={n}"
        for k in (4, 6, 8, 12):
            tr = power_trace(t, k)
            if (k % 4 == 0 and tr < 0) or (k % 4 == 2 and tr > 0):
                sign_fail = sign_fail or f"tr(A^{k}) = {tr} has the wrong sign at n={n}"
        if power_trace(t, 2) != -n * (n - 1):
            sign_fail = sign_fail or f"tr(A^2) != -n(n-1) at n={n}"
    return [
        _check("odd_power_trace_zero", not odd_fail, odd_fail),
        _check("even_power_trace_sign", not sign_fail, sign_fail),
    ]


def _verify_bounds(trials: int, nmax: int, seed: int) -> list[dict]:
    """Even-count bound on random draws plus the named families."""
    rng = CoinStream(seed)
    tournaments = []
    for _ in range(trials):
        n = 2 + rng.below(max(nmax - 1, 1))
        tournaments.append(random_tournament(n, rng.seed64()))
    tournaments.append(generate(GeneratorSpec("transitive", max(nmax, 3))))
    odd_n = max(nmax, 3) | 1
    tournaments.append(generate(GeneratorSpec("rotational", odd_n)))
    tournaments.append(generate(GeneratorSpec("paley", 19)))
    fail = ""
    for t in tournaments:
        for k in (4, 6, 8, 12):
            res = ec_bound_check(t, k)
            if not res.satisfied:
                fail = fail or f"bound violated at n={t.n}, k={k}"
    return [_check("even_count_bound", not fail, fail)]


def _verify_crosscheck(trials: int, nmax: int, seed: int) -> list[dict]:
    """Trace counts vs enumeration at small n, and exact-vs-spectral moments
    on random draws plus the circulant and Paley families."""
    rng = CoinStream(seed)
    fail = ""
    for n in range(3, 9):
        for _ in range(2):
            t = random_tournament(n, rng.seed64())
            for k in range(2, 7):
                rep = even_cycles_trace(t, k)
                even, odd = brute_force_count(t, k)
                if (rep.even, rep.odd) != (even, odd):
                    fail = fail or f"trace vs enumeration mismatch at n={n}, k={k}"
                if even + odd != total_cycles(n, k):
                    fail = fail or f"enumeration total mismatch at n={n}, k={k}"
    checks = [_check("trace_vs_enumeration", not fail, fail)]
    tournaments = []
    for _ in range(min(trials, 10)):
        n = 4 + rng.below(max(min(nmax, 60) - 3, 1))
        tournaments.append(random_tournament(n, rng.seed64()))
    tournaments += [rotational_tournament(n) for n in (9, 15, 21, 33)]
    tournaments += [paley_tournament(p) for p in (7, 11, 19)]
    mfail = ""
    for t in tournaments:
        summary = full_spectrum(t)
        for k in (2, 4, 6, 8, 10):
            err = moment_crosscheck(t, k, summary=summary)
            if err > 1e-8:
                mfail = mfail or f"moment gap {err:.2e} at n={t.n}, k={k}"
    checks.append(_check("exact_vs_spectral_moments", not mfail, mfail))
    return checks


def _cmd_verify(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    if args.nmax < 2:
        raise ValueError(f"--nmax must be at least 2, got {args.nmax}")
    suites = {
        "claims": _verify_claims,
        "bounds": _verify_bounds,
        "crosscheck": _verify_crosscheck,
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    checks = []
    t0 = time.perf_counter()
    for name in names:
        checks.extend(suites[name](args.trials, args.nmax, args.seed))
    elapsed = (time.perf_counter() - t0) * 1000.0
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
        {"verify": elapsed},
    )
    _emit(report, args.out)
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


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
    rows = []
    t0 = time.perf_counter()
    for n in ns:
        t = random_tournament(n, 0)
        perm = range(n - 1, -1, -1)
        steps = {
            "count_ms": lambda: even_cycles_trace(t, args.k),
            "spectrum_ms": lambda: lambda1(t),
            "codec_ms": lambda: decode(encode(t)),
            "relabel_ms": lambda: relabel(t, perm),
        }
        times = {name: [] for name in steps}
        for _ in range(args.repeat):
            for name, step in steps.items():
                t1 = time.perf_counter()
                step()
                times[name].append((time.perf_counter() - t1) * 1000.0)
        row = {"n": n}
        for name, ms in times.items():
            row[name] = {"min": min(ms), "median": statistics.median(ms), "max": max(ms)}
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
            f"{row['n']},{_format_float(row['count_ms']['median'])},"
            f"{_format_float(row['spectrum_ms']['median'])}"
        )
    report = _run_report(
        "bench",
        None,
        {"sizes": ns, "k": args.k, "repeat": args.repeat},
        {"rows": rows, "scaling_exponent": exponent, "csv": "\n".join(csv_lines)},
        {"bench": (time.perf_counter() - t0) * 1000.0},
    )
    _emit(report, args.out)
    return EXIT_OK


# --- parser and dispatch ------------------------------------------------


def _seed_type(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return value


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--seed", type=_seed_type, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_disc)

    p = sub.add_parser("verify", help="run property-check suites")
    p.add_argument(
        "--suite", choices=["claims", "bounds", "crosscheck", "all"], default="all"
    )
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--nmax", type=int, default=30)
    p.add_argument("--seed", type=_seed_type, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "bench", help="time counting, spectral, codec and relabel runs across sizes"
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
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
