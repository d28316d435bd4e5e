"""Independent checker for the outputs of a benchmark repetition.

This module imports nothing from quadres and runs outside the timed region.
Residue sets are checked by substitution and by their size against the root
count predicted from the modulus's known factorization, so a set that holds
only solutions and has the predicted size is complete. Two-squares pairs are
checked by a^2 + b^2 = n and counted against r(n) from the known exponents.
Gaussian results are recomputed or multiplied back. CLI outputs are compared
with expected results built from plain-integer scans (inputs there are below
10^6), SymPy's Jacobi symbol or the defining formulas.

`check` returns None for a correct output and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
from collections import Counter

from sympy import isprime, jacobi_symbol


def _symbol(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0, by SymPy's reciprocity loop."""
    return int(jacobi_symbol(a % n, n))


def check(kind: str, args: tuple, meta: dict, out) -> str | None:
    if isinstance(out, dict):
        return f"raised {out['error']}"
    return CHECKS[kind](args, meta, out)


# --- residues ----------------------------------------------------------------


def _prime_power_roots(d: int, p: int, e: int) -> int:
    """Number of T mod p^e with T^2 = d (mod p^e); d odd when p = 2."""
    pe = p**e
    d %= pe
    if p == 2:
        return {1: 1, 2: 2 * (d % 4 == 1)}.get(e, 4 * (d % 8 == 1))
    if d == 0:
        return p ** (e // 2)
    v = 0
    while d % p == 0:
        d //= p
        v += 1
    if v % 2 or pow(d, (p - 1) // 2, p) != 1:
        return 0
    return 2 * p ** (v // 2)


def root_count(d: int, factors) -> int:
    """Number of T mod n with T^2 = d (mod n), n = prod p^e (CRT)."""
    return math.prod(_prime_power_roots(d, p, e) for p, e in factors)


def _residue_set(out, n: int, solves, count: int) -> str | None:
    modulus, residues = out
    if modulus != n:
        return f"modulus {modulus} != {n}"
    if residues != sorted(set(residues)) or (residues and not 0 <= residues[0] <= residues[-1] < n):
        return "residues are not sorted, distinct and reduced"
    bad = next((x for x in residues if not solves(x)), None)
    if bad is not None:
        return f"{bad} is not a solution mod {n}"
    if len(residues) != count:
        return f"{len(residues)} residues, expected {count}"
    return None


def _sqrt_mod(args, meta, out):
    a, n = args
    count = root_count(a, meta["factors"])
    return _residue_set(out, n, lambda x: (x * x - a) % n == 0, count)


def _is_qr(args, meta, out):
    expected = root_count(args[0], meta["factors"]) > 0
    return None if out is expected else f"{out} != {expected}"


def _solve_quadratic(args, meta, out):
    a, b, c, n = args
    if math.gcd(2 * a, n) != 1:
        raise ValueError("the root count below needs gcd(2a, n) = 1")
    # x -> 2ax + b is a bijection mod n, so solutions match roots of T^2 = b^2 - 4ac
    count = root_count(b * b - 4 * a * c, meta["factors"])
    return _residue_set(out, n, lambda x: (a * x * x + b * x + c) % n == 0, count)


def _euler(a: int, p: int) -> int:
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def _jacobi(args, meta, out):
    a, n = args
    expected = math.prod(_euler(a, p) ** e for p, e in meta["factors"])
    return None if out == expected else f"({a}/{n}) = {out}, expected {expected}"


def _legendre(args, meta, out):
    a, p = args
    expected = _symbol(a, p)
    return None if out == expected else f"({a}/{p}) = {out}, expected {expected}"


# --- two squares ---------------------------------------------------------------


def r2(factors) -> int:
    """r(n) = 4 * prod(e + 1) over p = 1 (mod 4), 0 if some q = 3 (mod 4) has odd e."""
    if any(p % 4 == 3 and e % 2 for p, e in factors):
        return 0
    return 4 * math.prod(e + 1 for p, e in factors if p % 4 == 1)


def _primitive_count(factors) -> int:
    """Ordered positive primitive pairs: 2^R when n or n/2 is odd and free of q = 3 (mod 4)."""
    if any(p % 4 == 3 or (p == 2 and e > 1) for p, e in factors):
        return 0
    return 2 ** sum(1 for p, _ in factors if p % 4 == 1)


def _pairs(out, n: int, count: int, positive: bool) -> str | None:
    pairs = [(a, b) for a, b, _ in out]
    if pairs != sorted(set(pairs)):
        return "pairs are not sorted and distinct"
    for a, b, primitive in out:
        if a * a + b * b != n:
            return f"{a}^2 + {b}^2 != {n}"
        if primitive != (math.gcd(a, b) == 1) or (positive and not (primitive and a > 0 and b > 0)):
            return f"({a}, {b}) has the wrong primitive flag or sign"
    if len(out) != count:
        return f"{len(out)} pairs, expected {count}"
    return None


def _represent_prime(args, meta, out):
    (p,) = args
    a, b, primitive = out
    if a * a + b * b != p or not a >= b > 0 or primitive is not True:
        return f"{p} = {a}^2 + {b}^2 is wrong"
    return None


def _all_representations(args, meta, out):
    return _pairs(out, args[0], r2(meta["factors"]), positive=False)


def _primitive_representations(args, meta, out):
    return _pairs(out, args[0], _primitive_count(meta["factors"]), positive=True)


def _count_representations(args, meta, out):
    expected = r2(meta["factors"])
    return None if out == expected else f"r({args[0]}) = {out}, expected {expected}"


# --- Gaussian integers -----------------------------------------------------------


def _mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _gnorm(x) -> int:
    return x[0] * x[0] + x[1] * x[1]


def _canonical(x):
    for _ in range(4):
        if x[0] > 0 and x[1] >= 0:
            return x
        x = (-x[1], x[0])  # times i
    raise ValueError("zero has no canonical associate")


def _round_half_down(num: int, den: int) -> int:
    q, r = divmod(num, den)
    return q if 2 * r <= den else q + 1


def _div_rem_expected(alpha, beta):
    d = _gnorm(beta)
    num = _mul(alpha, (beta[0], -beta[1]))
    kappa = (_round_half_down(num[0], d), _round_half_down(num[1], d))
    prod = _mul(kappa, beta)
    return kappa, (alpha[0] - prod[0], alpha[1] - prod[1])


def _ggcd(alpha, beta):
    while beta != (0, 0):
        alpha, beta = beta, _div_rem_expected(alpha, beta)[1]
    return _canonical(alpha)


def _exact_quotient(alpha, beta):
    d = _gnorm(beta)
    num = _mul(alpha, (beta[0], -beta[1]))
    if num[0] % d or num[1] % d:
        raise ValueError(f"{beta} does not divide {alpha}")
    return (num[0] // d, num[1] // d)


def _factorization(z, primes):
    """(unit, [(canonical prime, e)] sorted by (norm, re, im)) from known primes."""
    counts = Counter(_canonical(tuple(g)) for g in primes)
    factors = sorted(counts.items(), key=lambda fe: (_gnorm(fe[0]), fe[0]))
    product = (1, 0)
    for g, e in factors:
        for _ in range(e):
            product = _mul(product, g)
    return _exact_quotient(tuple(z), product), factors


def _gaussian_factor(args, meta, out):
    unit, factors = tuple(out[0]), [(tuple(g), e) for g, e in out[1]]
    back = unit
    for g, e in factors:
        for _ in range(e):
            back = _mul(back, g)
    if back != tuple(args):
        return f"factors of {args} multiply back to {back}"
    expected = _factorization(args, meta["primes"])
    if (unit, factors) != expected:
        return f"factorization {out} != {expected}"
    return None


def _gaussian_gcd(args, meta, out):
    expected = _ggcd(tuple(args[:2]), tuple(args[2:]))
    return None if tuple(out) == expected else f"gcd {out} != {expected}"


def _div_rem(args, meta, out):
    alpha, beta = tuple(args[:2]), tuple(args[2:])
    kappa, rho = _div_rem_expected(alpha, beta)
    if 2 * _gnorm(rho) > _gnorm(beta):
        raise ValueError("expected remainder is too large")
    got = (tuple(out[0]), tuple(out[1]))
    return None if got == (kappa, rho) else f"div_rem {got} != {(kappa, rho)}"


# --- cli ---------------------------------------------------------------------------


def _fmt(z) -> str:
    re, im = z
    if im == 0:
        return str(re)
    im_str = {1: "i", -1: "-i"}.get(im, f"{im}i")
    if re == 0:
        return im_str
    return f"{re}{'+' if im > 0 else ''}{im_str}"


def _parse(text: str):
    # the generator writes every operand as "<re>+<im>i" or "<re>-<im>i"
    body = text[:-1]
    split = max(body.rfind("+"), body.rfind("-"))
    return (int(body[:split]), int(body[split:]))


def _scan_residues(n: int, poly) -> dict:
    return {"modulus": n, "residues": [x for x in range(n) if poly(x) % n == 0]}


def _scan_squares(n: int) -> list[tuple[int, int]]:
    pairs = []
    for a in range(-math.isqrt(n), math.isqrt(n) + 1):
        b = math.isqrt(n - a * a)
        if a * a + b * b == n:
            pairs += sorted({(a, b), (a, -b)})
    return pairs


def _rep(a: int, b: int) -> dict:
    return {"a": a, "b": b, "primitive": math.gcd(a, b) == 1}


def _crt_roots(a: int, factors) -> list[int]:
    roots, mod = [0], 1
    for p, e in factors:
        pe = p**e
        local = [t for t in range(pe) if (t * t - a) % pe == 0]
        step = pow(mod, -1, pe)
        roots = [r + mod * ((t - r) * step % pe) for r in roots for t in local]
        mod *= pe
    return sorted(roots)


def _residue_lines(payload) -> list[str]:
    return [str(x) for x in payload["residues"]]


def _rep_lines(payload) -> list[str]:
    return [f"{rep['a']} {rep['b']}" for rep in payload]


def _scalar_lines(payload) -> list[str]:
    return [str(payload)]


def _cli_two_squares(action: str, n: int):
    scan = _scan_squares(n)
    if action == "count":
        return len(scan), _scalar_lines
    if action == "list":
        reps = [_rep(a, b) for a, b in scan]
    elif action == "primitive":
        reps = [_rep(a, b) for a, b in scan if a > 0 and b > 0 and math.gcd(a, b) == 1]
    else:
        reps = [_rep(a, b) for a, b in scan if a >= b > 0]
    return reps, _rep_lines


def _cli_gaussian(action: str, operands, meta):
    zs = [_parse(t) for t in operands]
    if action == "norm":
        return _gnorm(zs[0]), _scalar_lines
    if action == "is-prime":
        re, im = zs[0]
        prime = isprime(_gnorm(zs[0])) or (
            (re == 0 or im == 0) and (abs(re) + abs(im)) % 4 == 3 and isprime(abs(re) + abs(im))
        )
        return prime, lambda v: ["true" if v else "false"]
    if action == "divrem":
        kappa, rho = _div_rem_expected(zs[0], zs[1])
        payload = {"quotient": _fmt(kappa), "remainder": _fmt(rho)}
        return payload, lambda v: [v["quotient"], v["remainder"]]
    if action == "gcd":
        return _fmt(_ggcd(zs[0], zs[1])), _scalar_lines
    unit, factors = _factorization(zs[0], meta["primes"])
    payload = {"unit": _fmt(unit), "factors": [[_fmt(g), e] for g, e in factors]}
    return payload, lambda v: [f"unit {v['unit']}"] + [f"({g})^{e}" for g, e in v["factors"]]


def _triple(m: int, n: int) -> dict:
    return {"s": 2 * m * n, "t": m * m - n * n, "r": m * m + n * n, "m": m, "n": n}


def _triple_lines(payload) -> list[str]:
    return [f"{t['s']} {t['t']} {t['r']}" for t in payload]


def _xyz_lines(payload) -> list[str]:
    return [f"{payload['x']} {payload['y']} {payload['z']}"]


def _cz2(c, d3, u, v, g, m, n) -> dict:
    tr = _triple(m, n)
    s, t = tr["s"], tr["t"]
    if g == 0:
        x, y = d3 * (t * u - s * v), d3 * (s * u + t * v)
    else:
        x, y = d3 * ((s + t) * u - (s - t) * v), d3 * ((s - t) * u + (s + t) * v)
    if x * x + y * y != c * tr["r"] ** 2:
        raise ValueError("the cz2 formula does not solve X^2 + Y^2 = cZ^2")
    return {"x": x, "y": y, "z": tr["r"], "c": c, "d3": d3, "g": g, "u": u, "v": v}


def _zl(l, a, b) -> dict:
    w = (1, 0)
    for _ in range(l):
        w = _mul(w, (a, b))
    return {"x": w[0], "y": w[1], "z": a * a + b * b, "l": l, "a": a, "b": b}


def _quad(m, n, u, v) -> dict:
    x, y, z = 2 * (m * n - u * v), m * m - n * n - u * u + v * v, 2 * (m * u + n * v)
    w = m * m + n * n + u * u + v * v
    primitive = math.gcd(x, y, z) == 1
    return {"x": x, "y": y, "z": z, "w": w, "m": m, "n": n, "u": u, "v": v, "primitive": primitive}


def _quad_lines(payload) -> list[str]:
    return [f"{q['x']} {q['y']} {q['z']} {q['w']}" for q in payload]


def _primitive_quadruples(w_max: int) -> list[tuple[int, int, int, int]]:
    """(x, y, z, w), 0 < x <= y <= z, gcd 1, x^2 + y^2 + z^2 = w^2 <= w_max^2, by search."""
    found = []
    for w in range(1, w_max + 1):
        for x in range(1, w):
            for y in range(x, w):
                rest = w * w - x * x - y * y
                z = math.isqrt(rest) if rest > 0 else 0
                if z >= y and z * z == rest and math.gcd(x, y, z) == 1:
                    found.append((x, y, z, w))
    return sorted(found, key=lambda q: (q[3], q[2], q[1], q[0]))


def _verify_value(inner: list[str]):
    cmd, nums = inner[0], inner[1:]
    if cmd in ("jacobi", "legendre"):
        a, n = map(int, nums)
        return _symbol(a, n)
    if cmd == "sqrtmod":
        a, n = map(int, nums)
        return _scan_residues(n, lambda x: x * x - a)
    if cmd == "solve-quadratic":
        a, b, c, _, n = nums
        a, b, c, n = int(a), int(b), int(c), int(n)
        return _scan_residues(n, lambda x: a * x * x + b * x + c)
    action, n = nums[0], int(nums[1])
    scan = _scan_squares(n)
    if action == "count":
        return len(scan)
    if action == "list":
        return [[a, b] for a, b in scan]
    return [[a, b] for a, b in scan if a > 0 and b > 0 and math.gcd(a, b) == 1]


def _cli_expected(argv: list[str], meta: dict):
    """(JSON result payload, function rendering the plain-text lines)."""
    cmd = argv[0]
    rest = [t for t in argv[1:] if t not in ("--json", "--")]
    nums = [int(t) for t in rest if t.lstrip("-").isdigit()]
    if cmd in ("jacobi", "legendre"):
        return _symbol(nums[0], nums[1]), _scalar_lines
    if cmd == "sqrtmod":
        a, n = nums
        return {"modulus": n, "residues": _crt_roots(a, meta["factors"])}, _residue_lines
    if cmd == "solve-quadratic":
        a, b, c, n = nums
        return _scan_residues(n, lambda x: a * x * x + b * x + c), _residue_lines
    if cmd == "solve-linear":
        a, b, n = nums
        return _scan_residues(n, lambda x: a * x - b), _residue_lines
    if cmd == "two-squares":
        return _cli_two_squares(rest[0], nums[0])
    if cmd == "gaussian":
        return _cli_gaussian(rest[0], rest[1:], meta)
    if cmd == "pyth-triple":
        return _triple(*nums), lambda v: _triple_lines([v])
    if cmd == "triples":
        (r_max,) = nums
        triples = [
            _triple(m, n)
            for m in range(2, math.isqrt(r_max) + 1)
            for n in range(1, m)
            if (m - n) % 2 and math.gcd(m, n) == 1 and m * m + n * n <= r_max
        ]
        return sorted(triples, key=lambda t: (t["r"], t["t"])), _triple_lines
    if cmd == "cz2":
        return _cz2(*nums), _xyz_lines
    if cmd == "zl":
        return _zl(*nums), _xyz_lines
    if cmd == "quadruple":
        return _quad(*nums), lambda v: _quad_lines([v])
    if cmd == "verify":
        value = _verify_value(rest)
        payload = {"request": rest, "value": value, "oracle": value, "agree": True}
        return payload, lambda v: [f"value: {v['value']}", f"oracle: {v['oracle']}", "agree: true"]
    raise ValueError(f"no expected result for {cmd}")


def _check_quadruples(argv, json_mode: bool, stdout: str) -> str | None:
    expected = _primitive_quadruples(int(argv[-1]))
    if not json_mode:
        got = [tuple(map(int, line.split())) for line in stdout.splitlines()]
        return None if got == expected else f"quadruples {got[:3]}... != {expected[:3]}..."
    result = json.loads(stdout)["result"]
    if [(q["x"], q["y"], q["z"], q["w"]) for q in result] != expected:
        return "quadruple list differs from the search"
    for q in result:
        gen = _quad(q["m"], q["n"], q["u"], q["v"])
        if sorted(map(abs, (gen["x"], gen["y"], gen["z"]))) != [q["x"], q["y"], q["z"]] or gen["w"] != q["w"]:
            return f"parameters of {q} do not generate it"
    return None


def _cli(args, meta, out):
    code, stdout = out
    if code != 0:
        return f"exit code {code}"
    argv = list(args)
    json_mode = "--json" in argv
    if argv[0] == "quadruples":
        return _check_quadruples(argv, json_mode, stdout)
    payload, render = _cli_expected(argv, meta)
    if json_mode:
        envelope = json.loads(stdout)
        if envelope["status"] != "ok" or envelope["command"] != argv[0]:
            return f"envelope {envelope['status']} for {argv[0]}"
        expected = json.loads(json.dumps(payload))
        return None if envelope["result"] == expected else f"result {envelope['result']} != {expected}"
    expected_lines = render(payload)
    lines = stdout.splitlines()
    return None if lines == expected_lines else f"output {lines[:4]} != {expected_lines[:4]}"


CHECKS = {
    "sqrt_mod": _sqrt_mod,
    "is_qr": _is_qr,
    "solve_quadratic": _solve_quadratic,
    "jacobi": _jacobi,
    "legendre": _legendre,
    "represent_prime": _represent_prime,
    "all_representations": _all_representations,
    "primitive_representations": _primitive_representations,
    "count_representations": _count_representations,
    "gaussian_factor": _gaussian_factor,
    "gaussian_gcd": _gaussian_gcd,
    "div_rem": _div_rem,
    "cli": _cli,
}
