"""Tests of the benchmark's own checker, generator and metric list.

    python3 -m pytest benchmark/test_check.py -q

The checker must pass correct outputs and catch wrong ones; these build the
outputs by plain scans, without quadres.
"""

import collections
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

FACTORS = [(2, 3), (3, 1), (5, 1), (7, 1)]  # n = 840
N = 840


def _roots(a, n):
    return [x for x in range(n) if (x * x - a) % n == 0]


def _pairs(n):
    r = math.isqrt(n)
    return sorted(
        [a, b, math.gcd(a, b) == 1]
        for a in range(-r, r + 1)
        for b in range(-r, r + 1)
        if a * a + b * b == n
    )


def test_sqrt_mod_accepts_the_full_root_set():
    assert check.check("sqrt_mod", (121, N), {"factors": FACTORS}, [N, _roots(121, N)]) is None


def test_sqrt_mod_catches_a_dropped_root():
    roots = _roots(121, N)
    assert len(roots) == 32
    reason = check.check("sqrt_mod", (121, N), {"factors": FACTORS}, [N, roots[:-1]])
    assert reason == "31 residues, expected 32"


def test_sqrt_mod_catches_a_non_root():
    roots = _roots(121, N)
    roots[3] += 1
    assert "is not a solution" in check.check("sqrt_mod", (121, N), {"factors": FACTORS}, [N, roots])


def test_solve_quadratic_catches_a_dropped_root():
    # x^2 + 81 modulo 3^4 * 5: 3^4 divides the discriminant -324, as in the scan requests
    n, meta = 405, {"factors": [(3, 4), (5, 1)]}
    sols = [x for x in range(n) if (x * x + 81) % n == 0]
    assert len(sols) == 18
    assert check.check("solve_quadratic", (1, 0, 81, n), meta, [n, sols]) is None
    assert check.check("solve_quadratic", (1, 0, 81, n), meta, [n, sols[1:]]) is not None


def test_root_count_matches_a_scan_for_non_coprime_residues():
    for d in range(0, 3**5):
        assert check.root_count(d, [(3, 5)]) == len(_roots(d, 3**5)), d


def test_all_representations_catches_a_wrong_pair():
    n, factors = 325, [(5, 2), (13, 1)]
    pairs = _pairs(n)
    assert check.check("all_representations", (n,), {"factors": factors}, pairs) is None
    wrong = [list(p) for p in pairs]
    wrong[0][1] += 1
    assert "!=" in check.check("all_representations", (n,), {"factors": factors}, wrong)
    assert check.check("all_representations", (n,), {"factors": factors}, pairs[1:]) is not None


def test_represent_prime_catches_a_wrong_pair():
    assert check.check("represent_prime", (13,), {}, [3, 2, True]) is None
    assert check.check("represent_prime", (13,), {}, [2, 3, True]) is not None
    assert check.check("represent_prime", (13,), {}, [3, 1, True]) is not None


def test_gaussian_factor_must_multiply_back():
    meta = {"primes": [(2, 1), (2, 1), (3, 0)]}  # (2+i)^2 * 3 = 9 + 12i
    good = [[1, 0], [[[2, 1], 2], [[3, 0], 1]]]
    assert check.check("gaussian_factor", (9, 12), meta, good) is None
    bad = [[1, 0], [[[2, 1], 1], [[3, 0], 1]]]
    assert "multiply back" in check.check("gaussian_factor", (9, 12), meta, bad)


def test_cli_output_is_compared_with_the_expected_result():
    argv = ("two-squares", "list", "25")
    good = "".join(f"{a} {b}\n" for a, b, _ in _pairs(25))
    assert check.check("cli", argv, {}, [0, good]) is None
    assert check.check("cli", argv, {}, [0, good.replace("3 4", "4 3", 1)]) is not None
    envelope = json.dumps({"command": "jacobi", "status": "ok", "result": -1})
    assert check.check("cli", ("jacobi", "--json", "2", "5"), {}, [0, envelope]) is None
    assert check.check("cli", ("jacobi", "--json", "3", "5"), {}, [0, envelope]) is None
    assert check.check("cli", ("jacobi", "--json", "4", "5"), {}, [0, envelope]) is not None


def test_a_raised_error_is_a_failure():
    assert check.check("jacobi", (1, 3), {}, {"error": "ValueError()"}) is not None


def test_seeds_change_inputs_but_not_the_mix():
    for workload in workloads.WORKLOADS:
        one, two = workloads.draw(workload, 1, 0), workloads.draw(workload, 2, 0)
        assert one != two
        assert one == workloads.draw(workload, 1, 0)
        shape = lambda reqs: collections.Counter(  # noqa: E731
            (r.kind, r.args[0] if r.kind == "cli" else len(r.args)) for r in reqs
        )
        assert shape(one) == shape(two)


def test_benchmark_json_lists_the_metrics_the_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in tracing.PER_LAYER.items()
    ]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "throughput_rps", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb", "setup_s"
    }
