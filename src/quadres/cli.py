"""Command-line frontend exposing every capability of the library.

Each subcommand returns the library's value, and `_render` is the one place
that defines its output, read off the value's type. Plain mode prints one
result per line; --json wraps each invocation in a deterministic envelope
(sorted keys, sorted result lists). Exit codes: 0 ok (an empty solution set
is still ok), 1 domain error, 2 usage error.
"""

import argparse
import functools
import json
import sys

from . import gaussian as zi
from .congruences import QuadCongruence, solve_linear, solve_quadratic
from .core import ResidueSet
from .oracle import brute_legendre, brute_quadratic, brute_sqrt_mod, brute_two_squares
from .oracle import jacobi_by_definition, legendre_gauss_lemma
from .diophantine import CZ2Solution, PythQuadruple, PythTriple, ZlSolution
from .diophantine import (
    cz2_solution,
    enumerate_primitive_triples,
    enumerate_quadruples,
    pyth_quadruple,
    pyth_triple,
    zl_solution,
)
from .errors import NumberTheoryError
from .sqrtmod import sqrt_mod
from .symbols import jacobi, legendre_euler
from .two_squares import (
    TwoSquareRep,
    all_representations,
    count_representations,
    primitive_representations,
    represent_prime,
)


class _UsageError(Exception):
    pass


def _two_squares(args):
    if args.action == "represent-prime":
        return [represent_prime(args.n)]
    return {
        "count": count_representations, "list": all_representations,
        "primitive": primitive_representations,
    }[args.action](args.n)


def _gaussian(args):
    arity = 2 if args.action in ("divrem", "gcd") else 1
    if len(args.args) != arity:
        raise _UsageError(f"gaussian {args.action} takes exactly {arity} argument(s)")
    try:
        values = [zi.parse_gaussian(text) for text in args.args]
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    return {
        "norm": zi.norm, "divrem": zi.div_rem, "gcd": zi.gcd, "factor": zi.factor,
        "is-prime": zi.is_gaussian_prime,
    }[args.action](*values)


# a record's plain line: its leading fields (str.format ignores the rest)
_RECORD_LINE = {
    TwoSquareRep: "{} {}".format, PythTriple: "{} {} {}".format, CZ2Solution: "{} {} {}".format,
    ZlSolution: "{} {} {}".format, PythQuadruple: "{} {} {} {}".format,
}


def _render(value):
    """The JSON payload and the plain lines of a subcommand's value, read off
    its type: the one place that defines how a result prints."""
    if isinstance(value, bool):  # before int: bool is an int
        return value, ["true" if value else "false"]
    if isinstance(value, int):
        return value, [str(value)]
    if isinstance(value, list):  # of one record type: look it up once
        line = _RECORD_LINE[type(value[0])] if value else None
        return [record._asdict() for record in value], [line(*record) for record in value]
    line = _RECORD_LINE.get(type(value))
    if line is not None:
        return value._asdict(), [line(*value)]
    if isinstance(value, ResidueSet):
        rs = value.residues
        return {"modulus": value.modulus, "residues": list(rs)}, [str(x) for x in rs]
    if isinstance(value, zi.GaussianInt):
        return str(value), [str(value)]
    if isinstance(value, zi.GaussianFactorization):
        return (
            {"unit": str(value.unit), "factors": [[str(p), e] for p, e in value.factors]},
            [f"unit {value.unit}"] + [f"({p})^{e}" for p, e in value.factors],
        )
    kappa, rho = value  # the quotient and remainder of `div_rem`
    return {"quotient": str(kappa), "remainder": str(rho)}, [str(kappa), str(rho)]


def _scan_two_squares(args):
    # brute_two_squares shaped like the value of each `two-squares` action;
    # None for represent-prime of an n that represent_prime then refuses
    scan = brute_two_squares(args.n)
    if args.action == "count":
        return len(scan)
    if args.action == "list":
        return [[rep.a, rep.b] for rep in scan]
    if args.action == "primitive":
        return [[rep.a, rep.b] for rep in scan if rep.primitive and rep.a > 0 and rep.b > 0]
    return next(([rep.a, rep.b] for rep in scan if rep.primitive and rep.a >= rep.b > 0), None)


def _cmd_verify(args):
    request = list(args.request)
    if request and request[0] == "--":
        request = request[1:]
    if not request or request[0] == "verify":
        raise _UsageError("verify needs a supported subcommand to check")
    try:
        inner = _parse(request)
    except SystemExit as exc:
        if exc.code == 0:  # -h: the help is printed; main returns 0, as for `jacobi -h`
            raise
        raise _UsageError(f"could not parse verify request {request!r}") from None
    if inner.json:
        args.json = True
    command = inner.command
    _, _, call, oracle_of = _SUBCOMMANDS[command]
    if oracle_of is None:
        raise _UsageError(f"verify does not support {' '.join(request)!r}")

    # Which side runs first shows in the output when both refuse, so the order
    # is part of the interface. The two-squares scan runs first: its budget
    # refuses a large n before the named route builds a list of up to r(n)
    # pairs. Every other request runs its own route first, whose refusal is
    # the one reported: `sqrtmod 3 3000027` is NotCoprime, not the scan's
    # BudgetExceeded.
    oracle = oracle_of(inner) if command == "two-squares" else None
    value = _render(call(inner))[0]
    if command != "two-squares":
        oracle = oracle_of(inner)
    elif inner.action != "count":
        value = [[rep["a"], rep["b"]] for rep in value]
        if inner.action == "represent-prime":
            (value,) = value

    agree = value == oracle
    payload = {"request": request, "value": value, "oracle": oracle, "agree": agree}
    lines = [f"value: {value}", f"oracle: {oracle}", f"agree: {str(agree).lower()}"]
    return payload, lines


def _arg(name, **options):
    return name, options


def _ints(*names):
    return [_arg(name, type=int) for name in names]


_MOD = _arg("--mod", type=int, required=True, metavar="N")

# One row per subcommand: its help line, its arguments in order, the call that
# returns the library's value and the brute-force side that `verify` compares
# with that value (None: `verify` refuses it). `_render` alone turns a value
# into its JSON payload and plain lines; `verify`'s own call returns its
# transcript ready made. Each call and each oracle looks its route up at call
# time, so a route rebound on this module is the one that runs.
_SUBCOMMANDS = {
    "jacobi": (
        "Jacobi symbol (a/n)", _ints("a", "n"), lambda args: jacobi(args.a, args.n),
        lambda args: jacobi_by_definition(args.a, args.n),
    ),
    "legendre": (
        "Legendre symbol (a/p)",
        _ints("a", "p") + [_arg("--method", choices=("euler", "gauss-lemma"), default="euler")],
        lambda args: (
            legendre_euler if args.method == "euler" else legendre_gauss_lemma
        )(args.a, args.p),
        lambda args: brute_legendre(args.a, args.p),
    ),
    "sqrtmod": (
        "solve X^2 = a (mod n)", _ints("a", "n"), lambda args: sqrt_mod(args.a, args.n),
        lambda args: _render(brute_sqrt_mod(args.a, args.n))[0],
    ),
    "solve-quadratic": (
        "solve a*X^2 + b*X + c = 0 (mod n)", _ints("a", "b", "c") + [_MOD],
        lambda args: solve_quadratic(QuadCongruence(args.a, args.b, args.c, args.mod)),
        lambda args: _render(brute_quadratic(args.a, args.b, args.c, args.mod))[0],
    ),
    "solve-linear": (
        "solve a*X = b (mod n)", _ints("a", "b") + [_MOD],
        lambda args: solve_linear(args.a, args.b, args.mod), None,
    ),
    "two-squares": (
        "representations n = A^2 + B^2",
        [_arg("action", choices=("count", "list", "primitive", "represent-prime")),
         _arg("n", type=int)],
        _two_squares, _scan_two_squares,
    ),
    "gaussian": (
        "arithmetic in Z(i)",
        [_arg("action", choices=("norm", "divrem", "gcd", "factor", "is-prime")),
         _arg("args", nargs="+", metavar="a+bi")],
        _gaussian, None,
    ),
    "pyth-triple": (
        "primitive triple from (m, n)", _ints("m", "n"),
        lambda args: pyth_triple(args.m, args.n), None,
    ),
    "triples": (
        "primitive triples with hypotenuse <= R",
        [_arg("--max", type=int, required=True, metavar="R")],
        lambda args: enumerate_primitive_triples(args.max), None,
    ),
    "cz2": (
        "solution of X^2 + Y^2 = c*Z^2",
        [_arg("--c", type=int, required=True), _arg("--d3", type=int, default=1),
         _arg("--uv", type=int, nargs=2, required=True, metavar=("U", "V")),
         _arg("--g", type=int, default=0),
         _arg("--triple", type=int, nargs=2, required=True, metavar=("M", "N"))],
        lambda args: cz2_solution(args.c, args.d3, *args.uv, args.g, pyth_triple(*args.triple)),
        None,
    ),
    "zl": (
        "solution of X^2 + Y^2 = Z^l", _ints("l", "a", "b"),
        lambda args: zl_solution(args.l, args.a, args.b), None,
    ),
    "quadruple": (
        "quadruple from (m, n, u, v)", _ints("m", "n", "u", "v"),
        lambda args: pyth_quadruple(args.m, args.n, args.u, args.v), None,
    ),
    "quadruples": (
        "primitive quadruples with w <= W",
        [_arg("--max", type=int, required=True, metavar="W")],
        lambda args: enumerate_quadruples(args.max), None,
    ),
    "verify": (
        "re-run a request through the brute-force oracle and compare",
        [_arg("request", nargs=argparse.REMAINDER, metavar="SUBCOMMAND ...")],
        _cmd_verify, None,
    ),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    Parsing keeps no state in the parser, so `main` can run any number of
    requests in one process; callers must not add arguments to it. A request
    that names a subcommand is parsed by that subcommand's parser alone, found
    in `subcommands`; the top-level parser answers every other argv.
    """
    parser = argparse.ArgumentParser(
        prog="quadres",
        description="Exact solvers for quadratic congruences, quadratic-residue "
        "symbols, Gaussian integers, sums of two squares and Pythagorean "
        "triples/quadruples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices
    for command, (help_line, arguments, _, _) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        p.add_argument("--json", action="store_true", help="emit a JSON envelope")
        for name, options in arguments:
            p.add_argument(name, **options)
    return parser


# one encoder for every envelope: json.dumps(..., sort_keys=True) builds one per call
_ENCODER = json.JSONEncoder(sort_keys=True)


def _inputs(args) -> dict:
    skip = {"command", "json"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _parse(argv):
    """`build_parser().parse_args(argv)`, but an argv naming a subcommand goes
    straight to that subcommand's parser; extra arguments get the top-level
    refusal."""
    parser = build_parser()
    command = parser.subcommands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    payload, lines, status, error, code = None, [], "ok", None, 0
    try:
        value = _SUBCOMMANDS[args.command][2](args)
        payload, lines = value if args.command == "verify" else _render(value)
        if args.command == "verify" and not payload["agree"]:
            status, error, code = "error", "oracle disagreement", 1
    except SystemExit as exc:  # help inside a verify request
        return exc.code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except NumberTheoryError as exc:
        status, error, code = "error", str(exc), 1
    # not a library refusal: str() of an int past Python's digit limit
    except ValueError:
        digits = sys.get_int_max_str_digits()
        status, error, code = "error", f"result has more than {digits} digits", 1

    if args.json:
        envelope = {
            "command": args.command,
            "inputs": _inputs(args),
            "result": payload,
            "status": status,
            "error": error,
        }
        print(_ENCODER.encode(envelope))
    else:
        for line in lines:
            print(line)
        if error is not None:
            print(f"error: {error}", file=sys.stderr)
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
