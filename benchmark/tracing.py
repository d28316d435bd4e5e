"""Span tracing of quadres from outside the library, for the traced run.

`install` wraps every public function of every layer module and rebinds the
wrapper in each quadres namespace that imported the function, so calls made
inside the library are traced too. An lru_cache function is wrapped outside
its cache, so a cache hit is a short span. Spans stay in memory until the
repetition ends; `layer_metrics` then turns them into the per-layer numbers
and `write_spans` writes them out.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from collections import defaultdict

LAYERS = (
    "core",
    "symbols",
    "sqrtmod",
    "congruences",
    "gaussian",
    "two_squares",
    "diophantine",
    "oracle",
    "cli",
)

CACHED = ("core.factorize", "core.is_prime", "two_squares.represent_prime")

# Every per-layer metric, in the order BENCHMARK.json lists them: (unit, better).
PER_LAYER = {
    "core.factorize.calls": ("count", "lower"),
    "core.factorize.self_s": ("s", "lower"),
    "core.factorize.hit_ratio": ("ratio", "higher"),
    "core.factorize.self_s.mag06": ("s", "lower"),
    "core.factorize.self_s.mag12": ("s", "lower"),
    "core.factorize.self_s.mag18": ("s", "lower"),
    "core.factorize.self_s.mag30": ("s", "lower"),
    "core.is_prime.calls": ("count", "lower"),
    "core.is_prime.self_s": ("s", "lower"),
    "core.is_prime.hit_ratio": ("ratio", "higher"),
    "core.crt_combine.calls": ("count", "lower"),
    "core.crt_combine.self_s": ("s", "lower"),
    "core.crt_combine.residues_out": ("count", "lower"),
    "symbols.calls": ("count", "lower"),
    "symbols.self_s": ("s", "lower"),
    "sqrtmod.sqrt_mod.calls": ("count", "lower"),
    "sqrtmod.sqrt_mod.self_s": ("s", "lower"),
    "sqrtmod.sqrt_mod_prime.calls": ("count", "lower"),
    "sqrtmod.sqrt_mod_prime.self_s": ("s", "lower"),
    "sqrtmod.sqrt_mod_prime.p1mod4_share": ("share", "lower"),
    "sqrtmod.lift_odd_prime_power.self_s": ("s", "lower"),
    "sqrtmod.sqrt_mod_2e.self_s": ("s", "lower"),
    "sqrtmod.is_quadratic_residue.self_s": ("s", "lower"),
    "congruences.solve_quadratic.calls": ("count", "lower"),
    "congruences.solve_quadratic.self_s": ("s", "lower"),
    "congruences.solve_quadratic.coprime_share": ("share", "higher"),
    "congruences.solve_quadratic_coprime.self_s": ("s", "lower"),
    "congruences.solve_linear.calls": ("count", "lower"),
    "congruences.solve_linear.residues_out": ("count", "lower"),
    "two_squares.rep_from_root.calls": ("count", "lower"),
    "two_squares.rep_from_root.self_s": ("s", "lower"),
    "two_squares.represent_prime.hit_ratio": ("ratio", "higher"),
    "two_squares.all_representations.self_s": ("s", "lower"),
    "two_squares.primitive_representations.self_s": ("s", "lower"),
    "two_squares.count_representations.self_s": ("s", "lower"),
    "gaussian.div_rem.calls": ("count", "lower"),
    "gaussian.div_rem.self_s": ("s", "lower"),
    "gaussian.gcd.calls": ("count", "lower"),
    "gaussian.gcd.self_s": ("s", "lower"),
    "gaussian.factor.calls": ("count", "lower"),
    "gaussian.factor.self_s": ("s", "lower"),
    "diophantine.enumerate_quadruples.self_s": ("s", "lower"),
    "diophantine.enumerate_quadruples.useful_ratio": ("ratio", "higher"),
    "diophantine.enumerate_primitive_triples.self_s": ("s", "lower"),
    "diophantine.enumerate_primitive_triples.useful_ratio": ("ratio", "higher"),
    "diophantine.generators.self_s": ("s", "lower"),
    "oracle.calls": ("count", "lower"),
    "oracle.self_s": ("s", "lower"),
    "oracle.scanned": ("count", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.build_parser.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# Whole-module totals, and the parametric generators of diophantine as one group.
GROUPS = {
    "symbols": lambda name: name.startswith("symbols."),
    "oracle": lambda name: name.startswith("oracle."),
    "diophantine.generators": lambda name: name.startswith("diophantine.")
    and not name.startswith("diophantine.enumerate_"),
}


def _magnitude(n: int) -> str:
    """The nearest of the benchmark's magnitudes 10^6, 10^12, 10^18 and 10^30."""
    digits = len(str(abs(n)))
    return "mag06" if digits <= 9 else "mag12" if digits <= 15 else "mag18" if digits <= 24 else "mag30"


def _triple_box(r_max: int) -> int:
    # (m, n) pairs scanned by enumerate_primitive_triples: 2 <= m, m^2 + 1 <= r_max, 1 <= n < m
    top = math.isqrt(r_max - 1)
    return top * (top - 1) // 2


# Boundary counters: qualified name -> f(tracer, span index, args, result).
def _observers():
    def count(key, amount):
        return lambda t, i, args, res: t.add(key, amount(args, res))

    def scanned(size):
        return count("oracle.scanned", lambda args, res: size(args))

    return {
        "core.factorize": lambda t, i, args, res: t.tags.__setitem__(i, _magnitude(args[0])),
        "core.crt_combine": count("core.crt_combine.residues_out", lambda a, r: len(r.residues)),
        # Tonelli-Shanks runs exactly when p = 1 (mod 4) and a is a residue
        "sqrtmod.sqrt_mod_prime": count(
            "sqrtmod.sqrt_mod_prime.ts_calls", lambda a, r: a[1] % 4 == 1 and len(r.residues) > 0
        ),
        "congruences.solve_quadratic": count(
            "congruences.solve_quadratic.coprime_calls", lambda a, r: math.gcd(2 * a[0].a, a[0].n) == 1
        ),
        "congruences.solve_linear": count("congruences.solve_linear.residues_out", lambda a, r: len(r)),
        "diophantine.enumerate_quadruples": lambda t, i, args, res: (
            t.add("diophantine.enumerate_quadruples.useful", len(res)),
            t.add("diophantine.enumerate_quadruples.box", (2 * math.isqrt(args[0]) + 1) ** 4),
        ),
        "diophantine.enumerate_primitive_triples": lambda t, i, args, res: (
            t.add("diophantine.enumerate_primitive_triples.useful", len(res)),
            t.add("diophantine.enumerate_primitive_triples.box", _triple_box(args[0])),
        ),
        "oracle.brute_sqrt_mod": scanned(lambda a: a[1]),
        "oracle.brute_quadratic": scanned(lambda a: a[3]),
        "oracle.brute_two_squares": scanned(lambda a: 2 * math.isqrt(a[0]) + 1),
        # the scan range; the search stops early once it finds a root
        "oracle.brute_legendre": scanned(lambda a: (a[1] - 1) // 2),
    }


class Tracer:
    """Spans (function, start, end, parent, request) and counters of one repetition."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self.tags: dict[int, str] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self.request = -1
        self.originals: dict[str, object] = {}
        self._stack: list[int] = []

    def add(self, key: str, amount) -> None:
        self.counters[key] += amount

    def wrap(self, name: str, fn, observe=None):
        fid = len(self.names)
        self.names.append(name)
        self.originals[name] = fn
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (fid, start, end, parent, self.request)
            if observe is not None:
                observe(self, index, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap each layer's public functions and rebind them in every quadres namespace."""
        observers = _observers()
        replace: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"quadres.{layer}")
            for attr, obj in list(vars(module).items()):
                target = getattr(obj, "__wrapped__", obj)
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(target, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                replace[id(obj)] = self.wrap(name, obj, observers.get(name))
        for modname, module in list(sys.modules.items()):
            if modname != "quadres" and not modname.startswith("quadres."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in replace:
                    setattr(module, attr, replace[id(obj)])

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def layer_metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric except trace.overhead_ratio, which needs the untraced run."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        by_magnitude: dict[str, float] = defaultdict(float)
        for i, (span, own) in enumerate(zip(self.spans, self.self_times())):
            name = self.names[span[0]]
            keys = [name] + [group for group, member in GROUPS.items() if member(name)]
            for key in keys:
                calls[key] += 1
                self_s[key] += own
            if i in self.tags:
                by_magnitude[self.tags[i]] += own
        c = self.counters
        metrics: dict[str, float] = {}
        for metric in PER_LAYER:
            key, _, stat = metric.rpartition(".")
            if stat == "calls":
                metrics[metric] = calls[key]
            elif stat == "self_s":
                metrics[metric] = self_s[key]
        for magnitude in ("mag06", "mag12", "mag18", "mag30"):
            metrics[f"core.factorize.self_s.{magnitude}"] = by_magnitude[magnitude]
        for name in CACHED:
            info = self.originals[name].cache_info()
            lookups = info.hits + info.misses
            metrics[f"{name}.hit_ratio"] = info.hits / lookups if lookups else 0.0
        metrics["core.crt_combine.residues_out"] = c["core.crt_combine.residues_out"]
        metrics["sqrtmod.sqrt_mod_prime.p1mod4_share"] = _share(
            c["sqrtmod.sqrt_mod_prime.ts_calls"], calls["sqrtmod.sqrt_mod_prime"]
        )
        metrics["congruences.solve_quadratic.coprime_share"] = _share(
            c["congruences.solve_quadratic.coprime_calls"], calls["congruences.solve_quadratic"]
        )
        metrics["congruences.solve_linear.residues_out"] = c["congruences.solve_linear.residues_out"]
        for enum in ("enumerate_quadruples", "enumerate_primitive_triples"):
            prefix = f"diophantine.{enum}"
            metrics[f"{prefix}.useful_ratio"] = _share(c[f"{prefix}.useful"], c[f"{prefix}.box"])
        metrics["oracle.scanned"] = c["oracle.scanned"]
        return metrics

    def write_spans(self, path) -> None:
        """Write the spans as CSV: name, start_s, end_s, parent, request."""
        with open(path, "w", encoding="ascii") as out:
            for fid, start, end, parent, request in self.spans:
                out.write(f"{self.names[fid]},{start:.9f},{end:.9f},{parent},{request}\n")


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
