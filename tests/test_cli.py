import hashlib
import json

import pytest

from quadres import cli, core
from quadres.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_jacobi_plain(capsys):
    code, out, _ = run(capsys, "jacobi", "365", "1847")
    assert code == 0 and out == "1\n"


def test_jacobi_json_envelope(capsys):
    code, env, _ = run_json(capsys, "jacobi", "365", "1847")
    assert code == 0
    assert env == {
        "command": "jacobi",
        "inputs": {"a": 365, "n": 1847},
        "result": 1,
        "status": "ok",
        "error": None,
    }


def test_json_keys_sorted(capsys):
    code, out, _ = run(capsys, "jacobi", "365", "1847", "--json")
    keys = list(json.loads(out).keys())
    assert keys == sorted(keys)
    assert code == 0


def test_legendre_methods(capsys):
    code, out, _ = run(capsys, "legendre", "-1", "13")
    assert code == 0 and out == "1\n"
    code, out, _ = run(capsys, "legendre", "-1", "7", "--method", "gauss-lemma")
    assert code == 0 and out == "-1\n"
    # Gauss's lemma is an O(p) scan, refused above the oracle budget
    code, out, err = run(capsys, "legendre", "2", "1000003", "--method", "gauss-lemma")
    assert code == 1 and out == "" and "budget" in err


def test_sqrtmod_plain_and_empty(capsys):
    code, out, _ = run(capsys, "sqrtmod", "61", "180")
    assert code == 0
    assert out.split() == ["31", "41", "49", "59", "121", "131", "139", "149"]
    code, out, _ = run(capsys, "sqrtmod", "2", "9")
    assert code == 0 and out == ""  # no solutions is still ok


def test_sqrtmod_large_semiprimes(capsys, monkeypatch):
    code, out, _ = run(capsys, "sqrtmod", "4", str(999999937 * 1000000009))
    assert code == 0
    assert out.split() == [
        "2", "55555552499999970", "944444393499999463", "999999945999999431",
    ]
    # a balanced 10^40 semiprime needs about 10^10 rho steps; the default cap
    # refuses it after 2^25, and a lower one here keeps the test fast
    monkeypatch.setattr(core, "_RHO_MAX_STEPS", 1 << 12)
    n = 100000000000000000039 * 110000000000000000113
    code, out, err = run(capsys, "sqrtmod", "4", str(n))
    assert code == 1 and out == "" and "budget" in err


def test_solve_quadratic(capsys):
    code, out, _ = run(capsys, "solve-quadratic", "3", "7", "-1", "--mod", "15")
    assert code == 0 and out.split() == ["4", "7"]
    code, env, _ = run_json(capsys, "solve-quadratic", "3", "7", "-1", "--mod", "195")
    assert env["result"]["residues"] == [7, 34, 112, 124]
    code, out, _ = run(capsys, "solve-quadratic", str(2**40), "1", "0", "--mod", str(2**41))
    assert code == 0 and out.split() == ["0"]


def test_solve_linear(capsys):
    code, out, _ = run(capsys, "solve-linear", "6", "114", "--mod", "180")
    assert code == 0 and out.split() == ["19", "49", "79", "109", "139", "169"]


def test_two_squares_actions(capsys):
    code, out, _ = run(capsys, "two-squares", "count", "1")
    assert code == 0 and out == "4\n"
    code, out, _ = run(capsys, "two-squares", "represent-prime", "13")
    assert code == 0 and out == "3 2\n"
    code, out, _ = run(capsys, "two-squares", "represent-prime", "1200000000000012413")
    assert code == 0 and out == "1075694267 207079318\n"
    code, out, _ = run(capsys, "two-squares", "primitive", "25")
    assert code == 0 and out.splitlines() == ["3 4", "4 3"]
    code, env, _ = run_json(capsys, "two-squares", "list", "3")
    assert code == 0 and env["result"] == []
    code, out, _ = run(capsys, "two-squares", "list", "0")
    assert code == 0 and out == "0 0\n"
    code, env, _ = run_json(capsys, "two-squares", "primitive", "0")
    assert code == 0 and env["result"] == []
    code, out, err = run(capsys, "two-squares", "list", "-1")
    assert code == 1 and out == "" and "nonnegative" in err


def test_gaussian_actions(capsys):
    code, out, _ = run(capsys, "gaussian", "norm", "2+3i")
    assert code == 0 and out == "13\n"
    code, out, _ = run(capsys, "gaussian", "divrem", "5", "1+i")
    assert code == 0 and out.splitlines() == ["2-3i", "i"]
    code, out, _ = run(capsys, "gaussian", "gcd", "5", "2+i")
    assert code == 0 and out == "2+i\n"
    code, out, _ = run(capsys, "gaussian", "is-prime", "1+i")
    assert code == 0 and out == "true\n"
    code, env, _ = run_json(capsys, "gaussian", "factor", "2")
    assert code == 0
    assert env["result"] == {"unit": "-i", "factors": [["1+i", 2]]}


def test_gaussian_negative_literal_after_dashes(capsys):
    code, out, _ = run(capsys, "gaussian", "norm", "--", "-2-3i")
    assert code == 0 and out == "13\n"


def test_gaussian_arity_usage_error(capsys):
    code, _, err = run(capsys, "gaussian", "gcd", "5")
    assert code == 2 and "usage error" in err


def test_triples(capsys):
    code, out, _ = run(capsys, "pyth-triple", "2", "1")
    assert code == 0 and out == "4 3 5\n"
    code, out, _ = run(capsys, "triples", "--max", "13")
    assert code == 0 and out.splitlines() == ["4 3 5", "12 5 13"]


def test_cz2_zl_quadruples(capsys):
    code, out, _ = run(
        capsys, "cz2", "--c", "5", "--uv", "2", "1", "--triple", "2", "1"
    )
    assert code == 0 and out == "2 11 5\n"
    code, out, _ = run(capsys, "zl", "5", "2", "1")
    assert code == 0 and out == "-38 41 5\n"
    code, out, _ = run(capsys, "quadruple", "1", "1", "1", "0")
    assert code == 0 and out == "2 -1 2 3\n"
    code, out, _ = run(capsys, "quadruples", "--max", "3")
    assert code == 0 and out == "1 2 2 3\n"


def test_verify_agreement(capsys):
    code, env, _ = run_json(capsys, "verify", "sqrtmod", "61", "180")
    assert code == 0
    assert env["status"] == "ok" and env["result"]["agree"] is True
    code, out, _ = run(capsys, "verify", "solve-quadratic", "3", "7", "-1", "--mod", "15")
    assert code == 0 and "agree: true" in out
    for action, n in (("count", "25"), ("list", "50"), ("primitive", "65"),
                      ("represent-prime", "13"), ("count", "0"), ("list", "0"),
                      ("primitive", "0")):
        code, out, _ = run(capsys, "verify", "two-squares", action, n)
        assert code == 0 and "agree: true" in out, (action, n)
    code, out, _ = run(capsys, "verify", "jacobi", "365", "1847")
    assert code == 0 and "agree: true" in out
    code, out, _ = run(capsys, "verify", "legendre", "2", "7")
    assert code == 0 and "agree: true" in out


def test_verify_error_propagates(capsys):
    # gcd(3, 9) != 1: the fast path rejects the request, exit 1
    code, env, _ = run_json(capsys, "verify", "sqrtmod", "3", "9")
    assert code == 1 and env["status"] == "error" and env["result"] is None


def test_verify_unsupported(capsys):
    code, _, err = run(capsys, "verify", "triples", "--max", "5")
    assert code == 2 and "usage error" in err


def test_domain_error_exit_code(capsys):
    code, out, err = run(capsys, "jacobi", "2", "8")
    assert code == 1 and out == "" and "error:" in err
    code, env, _ = run_json(capsys, "jacobi", "2", "8")
    assert code == 1 and env["status"] == "error" and env["result"] is None
    assert "odd" in env["error"]


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()


def test_bad_parameters_is_domain_error(capsys):
    code, _, err = run(capsys, "pyth-triple", "4", "2")
    assert code == 1 and "error:" in err


def test_parser_is_built_once_and_keeps_no_state(capsys):
    cli.build_parser.cache_clear()
    code, out, _ = run(capsys, "jacobi", "2", "15")
    assert code == 0 and out == "1\n"
    code, out, _ = run(capsys, "jacobi", "2")
    assert code == 2 and out == ""
    # the inner --json switches the outer namespace to JSON for this call only
    code, env, _ = run(capsys, "verify", "--", "jacobi", "--json", "2", "15")
    assert code == 0 and json.loads(env)["result"]["agree"] is True
    code, out, _ = run(capsys, "sqrtmod", "61", "180")
    assert code == 0 and out.split() == ["31", "41", "49", "59", "121", "131", "139", "149"]
    code, out, _ = run(capsys, "triples", "--max", "13")
    assert code == 0 and out.splitlines() == ["4 3 5", "12 5 13"]
    assert cli.build_parser.cache_info().misses == 1


# golden `--json` output: the bytes are part of the command's interface, so
# the way payloads are built must not change them
GOLDEN_JSON = {
    ("pyth-triple", "2", "1"):
        '{"command": "pyth-triple", "error": null, "inputs": {"m": 2, "n": 1}, '
        '"result": {"m": 2, "n": 1, "r": 5, "s": 4, "t": 3}, "status": "ok"}',
    ("pyth-triple", "7", "4"):
        '{"command": "pyth-triple", "error": null, "inputs": {"m": 7, "n": 4}, '
        '"result": {"m": 7, "n": 4, "r": 65, "s": 56, "t": 33}, "status": "ok"}',
    ("triples", "--max", "30"):
        '{"command": "triples", "error": null, "inputs": {"max": 30}, "result": ['
        '{"m": 2, "n": 1, "r": 5, "s": 4, "t": 3}, {"m": 3, "n": 2, "r": 13, "s": 12, "t": 5}, '
        '{"m": 4, "n": 1, "r": 17, "s": 8, "t": 15}, {"m": 4, "n": 3, "r": 25, "s": 24, "t": 7}, '
        '{"m": 5, "n": 2, "r": 29, "s": 20, "t": 21}], "status": "ok"}',
    ("cz2", "--c", "5", "--uv", "2", "1", "--triple", "2", "1"):
        '{"command": "cz2", "error": null, "inputs": {"c": 5, "d3": 1, "g": 0, '
        '"triple": [2, 1], "uv": [2, 1]}, "result": {"c": 5, "d3": 1, "g": 0, "u": 2, '
        '"v": 1, "x": 2, "y": 11, "z": 5}, "status": "ok"}',
    ("cz2", "--c", "50", "--d3", "5", "--uv", "1", "0", "--g", "1", "--triple", "3", "2"):
        '{"command": "cz2", "error": null, "inputs": {"c": 50, "d3": 5, "g": 1, '
        '"triple": [3, 2], "uv": [1, 0]}, "result": {"c": 50, "d3": 5, "g": 1, "u": 1, '
        '"v": 0, "x": 85, "y": 35, "z": 13}, "status": "ok"}',
    ("zl", "3", "2", "1"):
        '{"command": "zl", "error": null, "inputs": {"a": 2, "b": 1, "l": 3}, '
        '"result": {"a": 2, "b": 1, "l": 3, "x": 2, "y": 11, "z": 5}, "status": "ok"}',
    ("zl", "5", "4", "1"):
        '{"command": "zl", "error": null, "inputs": {"a": 4, "b": 1, "l": 5}, '
        '"result": {"a": 4, "b": 1, "l": 5, "x": 404, "y": 1121, "z": 17}, "status": "ok"}',
    ("quadruple", "1", "1", "1", "0"):
        '{"command": "quadruple", "error": null, "inputs": {"m": 1, "n": 1, "u": 1, "v": 0}, '
        '"result": {"m": 1, "n": 1, "primitive": true, "u": 1, "v": 0, "w": 3, "x": 2, '
        '"y": -1, "z": 2}, "status": "ok"}',
    ("quadruple", "1", "1", "1", "1"):
        '{"command": "quadruple", "error": null, "inputs": {"m": 1, "n": 1, "u": 1, "v": 1}, '
        '"result": {"m": 1, "n": 1, "primitive": false, "u": 1, "v": 1, "w": 4, "x": 0, '
        '"y": 0, "z": 4}, "status": "ok"}',
    ("quadruples", "--max", "9"):
        '{"command": "quadruples", "error": null, "inputs": {"max": 9}, "result": ['
        '{"m": -1, "n": -1, "primitive": true, "u": -1, "v": 0, "w": 3, "x": 1, "y": 2, "z": 2}, '
        '{"m": -2, "n": -1, "primitive": true, "u": -1, "v": -1, "w": 7, "x": 2, "y": 3, "z": 6}, '
        '{"m": -2, "n": -1, "primitive": true, "u": 0, "v": -2, "w": 9, "x": 4, "y": 4, "z": 7}, '
        '{"m": -2, "n": -2, "primitive": true, "u": -1, "v": 0, "w": 9, "x": 1, "y": 4, "z": 8}], '
        '"status": "ok"}',
    ("two-squares", "list", "25"):
        '{"command": "two-squares", "error": null, "inputs": {"action": "list", "n": 25}, '
        '"result": [{"a": -5, "b": 0, "primitive": false}, {"a": -4, "b": -3, "primitive": true}, '
        '{"a": -4, "b": 3, "primitive": true}, {"a": -3, "b": -4, "primitive": true}, '
        '{"a": -3, "b": 4, "primitive": true}, {"a": 0, "b": -5, "primitive": false}, '
        '{"a": 0, "b": 5, "primitive": false}, {"a": 3, "b": -4, "primitive": true}, '
        '{"a": 3, "b": 4, "primitive": true}, {"a": 4, "b": -3, "primitive": true}, '
        '{"a": 4, "b": 3, "primitive": true}, {"a": 5, "b": 0, "primitive": false}], '
        '"status": "ok"}',
    ("two-squares", "primitive", "65"):
        '{"command": "two-squares", "error": null, "inputs": {"action": "primitive", "n": 65}, '
        '"result": [{"a": 1, "b": 8, "primitive": true}, {"a": 4, "b": 7, "primitive": true}, '
        '{"a": 7, "b": 4, "primitive": true}, {"a": 8, "b": 1, "primitive": true}], '
        '"status": "ok"}',
    ("two-squares", "represent-prime", "13"):
        '{"command": "two-squares", "error": null, "inputs": {"action": "represent-prime", '
        '"n": 13}, "result": [{"a": 3, "b": 2, "primitive": true}], "status": "ok"}',
}

# the same on larger grids, as SHA-256 of the output
GOLDEN_JSON_SHA256 = {
    ("triples", "--max", "1000"):
        "3e1dea21c46612b45c9b23d84eb9b6b2e0413e3855291861b9f244ead4f179a7",
    ("quadruples", "--max", "40"):
        "aaf6df5654704810f9e974fdf2bb9e6451a164024eb1ca305d0afc60d4e00160",
    ("two-squares", "list", "5525"):
        "80bc5470aad497bac30b61de40b5909d1566752aa4e01470362c913bc496390e",
}


@pytest.mark.parametrize("argv", list(GOLDEN_JSON), ids=" ".join)
def test_json_output_is_byte_identical(capsys, argv):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0 and out == GOLDEN_JSON[argv] + "\n"


@pytest.mark.parametrize("argv", list(GOLDEN_JSON_SHA256), ids=" ".join)
def test_json_output_digest_is_unchanged(capsys, argv):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == GOLDEN_JSON_SHA256[argv]
