"""Acceptance suite: the binding exactness, sign, spectral, and
reproducibility checks, one test per criterion.

Every expected constant here was either derived independently (enumeration,
closed-form spectra, direct summation) or measured first and then pinned
with wide slack; tolerances are stated inline.  Each test prints one
"criterion N PASS" line on success (run with -s to see them); a failing
assertion is the FAIL signal.
"""

import json
import math
from pathlib import Path

from qrtour import (
    CoinStream,
    brute_force_count,
    decode,
    disc_exhaustive,
    disc_given,
    encode,
    even_cycles_trace,
    lambda1,
    moment_crosscheck,
    paley_tournament,
    random_tournament,
    rotational_tournament,
    total_cycles,
    transitive_tournament,
    witness_vectors,
)
from qrtour.cli import main


def _ok(number: int, text: str) -> None:
    print(f"criterion {number:2d} PASS: {text}")


def test_c01_trace_counts_equal_enumeration():
    # 200 seeded random tournaments, n in 2..8, every k in 2..6, exact equality
    checked = 0
    for i in range(200):
        n = 2 + i % 7
        t = random_tournament(n, i)
        for k in (2, 3, 4, 5, 6):
            rep = even_cycles_trace(t, k)
            assert (rep.even, rep.odd) == brute_force_count(t, k), (n, i, k)
            checked += 1
    _ok(1, f"trace counts equal enumeration on {checked} (tournament, k) cases")


def test_c02_cycle_total_formula():
    cases = 0
    for n in range(1, 9):
        for seed in (0, 1):
            t = random_tournament(n, seed) if n > 1 else transitive_tournament(1)
            for k in range(2, 7):
                even, odd = brute_force_count(t, k)
                assert even + odd == total_cycles(n, k) == (n - 1) ** k + (-1) ** k * (n - 1)
                cases += 1
    _ok(2, f"enumeration totals match (n-1)^k + (-1)^k (n-1) on {cases} cases")


def test_c03_trace_sign_and_even_count_bound():
    # 1000 seeded random tournaments at n = 50; zero violations allowed
    # (-1)**(k/2) tr(A^k) >= 0, so the even count lies on the matching side
    # of total/2
    violations = 0
    for seed in range(1000):
        t = random_tournament(50, seed)
        for k in (4, 6, 8, 12):
            rep = even_cycles_trace(t, k)
            sign = (-1) ** (k // 2)
            if sign * rep.trace < 0 or sign * (2 * rep.even - rep.total) < 0:
                violations += 1
    assert violations == 0
    _ok(3, "trace signs and even-count bounds hold on 1000 tournaments, k in {4,6,8,12}")


def test_c04_odd_k_structure():
    for i in range(100):
        n = 2 + i % 39  # 2..40
        t = random_tournament(n, 10_000 + i)
        for k in (3, 5, 7):
            rep = even_cycles_trace(t, k)
            assert rep.trace == 0
            assert rep.even == rep.odd == rep.total // 2
            assert rep.total == (n - 1) ** k - (n - 1)
    _ok(4, "odd powers have zero trace and exactly half-even counts (100 tournaments)")


def test_c05_paley_spectral_radius():
    for p in (7, 11, 19, 23, 31):
        s = lambda1(paley_tournament(p))
        assert abs(s.lambda1_abs - math.sqrt(p)) <= 1e-6, p
    _ok(5, "|lambda1| = sqrt(p) within 1e-6 for p in {7, 11, 19, 23, 31}")


def test_c06_random_even_fraction_near_half():
    # measured spread at n = 300 over these seeds: [0.49666, 0.49671], so the
    # pinned window [0.48, 0.52] has two orders of magnitude of slack
    n = 300
    ratios = []
    for seed in range(10):
        rep = even_cycles_trace(random_tournament(n, seed), 4)
        ratios.append(rep.even / n**4)
    assert all(0.48 <= r <= 0.52 for r in ratios), ratios
    _ok(6, f"random n=300 even-4-cycle density in [0.48, 0.52] (span {min(ratios):.5f}..{max(ratios):.5f})")


def test_c07_transitive_witnesses_non_quasirandomness():
    n = 200
    t = transitive_tournament(n)
    rep = even_cycles_trace(t, 4)
    ratio = rep.even / n**4  # measured 0.65672; floor pinned at 0.55
    assert ratio >= 0.55, ratio
    value = disc_given(t, range(n), range(n))
    assert value == sum(abs(n - 1 - 2 * r) for r in range(n)) == n * n // 2
    _ok(7, f"transitive n=200: even-4-cycle density {ratio:.4f} >= 0.55, full-set discrepancy exactly n^2/2")


def test_c08_exact_vs_spectral_moments():
    for i in range(50):
        n = 10 + i % 51  # 10..60
        t = random_tournament(n, 20_000 + i)
        for k in (2, 4, 6, 8, 10):
            err = moment_crosscheck(t, k)
            assert err <= 1e-8, (n, k, err)
    _ok(8, "exact traces match signed spectral moments to 1e-8 (50 tournaments, k up to 10)")


def test_c09_discrepancy_spectral_chain():
    for i in range(100):
        n = 2 + i % 13  # 2..14
        t = random_tournament(n, 30_000 + i)
        rep = disc_exhaustive(t)
        bound = n * lambda1(t).lambda1_abs
        assert rep.value <= bound + 1e-6, (n, i)
        coins = CoinStream(i)
        for _ in range(50):
            ys = {v for v, b in enumerate(coins.take(n)) if b}
            signs, value = witness_vectors(t, ys)
            assert value == disc_given(t, range(n), ys)
    _ok(9, "exhaustive maxima below n*|lambda1| and witnesses exact on 100x50 subsets")


def _cli_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, argv
    return json.loads(out)


def _stable(report):
    return {k: v for k, v in report.items() if k != "timings_ms"}


def test_c10_reproducibility(tmp_path, capsys):
    # identical seeds must reproduce every exact-integer report field
    trn = tmp_path / "r.trn"
    runs = []
    for _ in range(2):
        gen = _cli_json(
            capsys,
            "gen", "--type", "random", "--n", "14", "--seed", "777", "--out", str(trn),
        )
        count = _cli_json(capsys, "count", str(trn), "--k", "6", "--method", "both")
        disc = _cli_json(
            capsys, "disc", str(trn), "--method", "local", "--restarts", "6", "--seed", "5"
        )
        runs.append((_stable(gen), _stable(count), _stable(disc)))
    assert runs[0] == runs[1]

    roundtrips = 0
    for i in range(1000):
        kind = i % 4
        if kind == 0:
            t = random_tournament(1 + i % 30, i)
        elif kind == 1:
            t = transitive_tournament(1 + i % 30)
        elif kind == 2:
            t = rotational_tournament(3 + 2 * (i % 14))
        else:
            t = paley_tournament((3, 7, 11, 19, 23, 31, 43, 47)[i % 8])
        assert decode(encode(t)) == t
        roundtrips += 1
    _ok(10, f"CLI reports byte-stable across runs; {roundtrips} encode/decode round-trips")


def test_c11_readme_library_block_runs():
    # the documented API, run as written, so README cannot drift from it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library = readme[readme.index("## Library") :]
    start = library.index("```python\n") + len("```python\n")
    block = library[start : library.index("```", start)]
    exec(compile(block, "README.md", "exec"), {})
    _ok(11, "README's library block runs as written")


def test_every_export_resolves():
    # a name left in __all__ after its function went would break `import *`
    import qrtour

    namespace: dict = {}
    exec("from qrtour import *", namespace)
    for name in qrtour.__all__:
        assert namespace[name] is getattr(qrtour, name), name
