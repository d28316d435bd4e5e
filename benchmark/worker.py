"""One repetition of a workload, in a fresh interpreter so the lru_caches start cold.

Reads {"requests": [[kind, args], ...], "spans": path or null} as JSON on
stdin and sends them to quadres one at a time from a single caller: each
request starts only after the previous one returns (a closed loop). With a
spans path it first installs the tracer and writes the spans there at the
end. Writes one JSON object to stdout: the loop's wall time, each request's
latency, the peak RSS of this process, the outputs as plain data for the
checker and, when traced, the per-layer metrics.

Run by run.py with PYTHONPATH pointing at the repository's src/.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

from quadres import cli, congruences, gaussian, sqrtmod, symbols, two_squares

from tracing import Tracer


def _residues(rs):
    return [rs.modulus, list(rs.residues)]


def _rep(rep):
    return [rep.a, rep.b, rep.primitive]


def _gi(z):
    return [z.re, z.im]


def _run_cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _same(x):
    return x


# kind -> (call made in the timed loop, conversion of its result to plain data).
# Calls go through the module attribute so that traced wrappers are picked up.
OPS = {
    "sqrt_mod": (lambda a, n: sqrtmod.sqrt_mod(a, n), _residues),
    "is_qr": (lambda a, n: sqrtmod.is_quadratic_residue(a, n), _same),
    "solve_quadratic": (
        lambda a, b, c, n: congruences.solve_quadratic(congruences.QuadCongruence(a, b, c, n)),
        _residues,
    ),
    "jacobi": (lambda a, n: symbols.jacobi(a, n), _same),
    "legendre": (lambda a, p: symbols.legendre_euler(a, p), _same),
    "represent_prime": (lambda p: two_squares.represent_prime(p), _rep),
    "all_representations": (lambda n: two_squares.all_representations(n), lambda r: [_rep(x) for x in r]),
    "primitive_representations": (
        lambda n: two_squares.primitive_representations(n),
        lambda r: [_rep(x) for x in r],
    ),
    "count_representations": (lambda n: two_squares.count_representations(n), _same),
    "gaussian_factor": (
        lambda re, im: gaussian.factor(gaussian.GaussianInt(re, im)),
        lambda f: [_gi(f.unit), [[_gi(p), e] for p, e in f.factors]],
    ),
    "gaussian_gcd": (
        lambda a, b, c, d: gaussian.gcd(gaussian.GaussianInt(a, b), gaussian.GaussianInt(c, d)),
        _gi,
    ),
    "div_rem": (
        lambda a, b, c, d: gaussian.div_rem(gaussian.GaussianInt(a, b), gaussian.GaussianInt(c, d)),
        lambda qr: [_gi(qr[0]), _gi(qr[1])],
    ),
    "cli": (_run_cli, list),
}


def run(requests, tracer: Tracer | None) -> dict:
    calls = [(OPS[kind][0], args) for kind, args in requests]
    results, latencies = [], []
    clock = time.perf_counter
    loop_start = clock()
    for i, (call, args) in enumerate(calls):
        if tracer is not None:
            tracer.request = i
        start = clock()
        try:
            result = call(*args)
        except Exception as exc:  # a raising request is a failed request, not a crash
            result = exc
        latencies.append(clock() - start)
        results.append(result)
    loop_s = clock() - loop_start
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    outputs = [
        {"error": repr(r)} if isinstance(r, Exception) else OPS[kind][1](r)
        for (kind, _), r in zip(requests, results)
    ]
    return {"loop_s": loop_s, "latencies": latencies, "peak_rss_kb": peak_rss_kb, "outputs": outputs}


def main() -> int:
    job = json.load(sys.stdin)
    tracer = None
    if job["spans"] is not None:
        tracer = Tracer()
        tracer.install()
    report = run(job["requests"], tracer)
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        tracer.write_spans(job["spans"])
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
