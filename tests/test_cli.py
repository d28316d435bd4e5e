import hashlib
import json
import os
import pathlib
import subprocess
import sys

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


def test_gaussian_malformed_literal_is_usage_error(capsys):
    expected = "2\nusage error: invalid Gaussian integer literal: '3+x'\n"
    assert _transcript(capsys, "gaussian", "norm", "--", "3+x") == expected
    # a usage error has no envelope, with or without --json
    assert _transcript(capsys, "gaussian", "--json", "norm", "--", "3+x") == expected


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


# a request that each subcommand answers with exit 0
SAMPLE_REQUEST = {
    "jacobi": ("365", "1847"),
    "legendre": ("2", "7"),
    "sqrtmod": ("61", "180"),
    "solve-quadratic": ("3", "7", "-1", "--mod", "15"),
    "solve-linear": ("6", "114", "--mod", "180"),
    "two-squares": ("count", "25"),
    "gaussian": ("norm", "2+3i"),
    "pyth-triple": ("2", "1"),
    "triples": ("--max", "13"),
    "cz2": ("--c", "5", "--uv", "2", "1", "--triple", "2", "1"),
    "zl": ("5", "2", "1"),
    "quadruple": ("1", "1", "1", "0"),
    "quadruples": ("--max", "3"),
}


@pytest.mark.parametrize("name", [name for name in cli._SUBCOMMANDS if name != "verify"])
def test_verify_checks_exactly_the_rows_with_an_oracle(capsys, name):
    checked = {name for name, (_, _, _, oracle) in cli._SUBCOMMANDS.items() if oracle}
    assert checked == {"legendre", "jacobi", "sqrtmod", "solve-quadratic", "two-squares"}
    assert run(capsys, name, *SAMPLE_REQUEST[name])[0] == 0
    code, out, err = run(capsys, "verify", "--", name, *SAMPLE_REQUEST[name])
    if name in checked:
        assert code == 0 and out.endswith("agree: true\n") and err == ""
    else:
        assert code == 2 and out == "" and "verify does not support" in err


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


def test_module_entry_point_reads_sys_argv(capsys):
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(root / "src"), os.environ.get("PYTHONPATH")))
    ))

    def quadres(*argv):
        return subprocess.run(
            [sys.executable, "-m", "quadres.cli", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )

    proc = quadres("jacobi", "365", "1847")
    assert proc.returncode == 0 and proc.stdout == run(capsys, "jacobi", "365", "1847")[1]
    proc = quadres()
    assert proc.returncode == 2 and proc.stdout == "" and "usage: quadres" in proc.stderr


def test_named_subcommand_skips_the_top_level_parse(capsys, monkeypatch):
    parser = cli.build_parser()
    calls = []
    top_level = parser.parse_known_args

    def counted(*args, **kwargs):
        calls.append(args)
        return top_level(*args, **kwargs)

    monkeypatch.setattr(parser, "parse_known_args", counted)
    for argv, expected in (
        (["jacobi", "2", "15"], 0),
        (["verify", "--", "jacobi", "2", "15"], 0),
        ([], 1),
        (["-h"], 1),
        (["no-such"], 1),
    ):
        calls.clear()
        main(argv)
        capsys.readouterr()
        assert len(calls) == expected, argv


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
    ("quadruples", "--max", "200"):
        "ed3c1caa6a6c878ac0ca2342e11ef558a8fbf00a2b52958bb3c16cdca898bd16",
    # 512 roots mod 2·1637·1861·1873·1907·2131·2677·2767·2819·2963
    ("sqrtmod", "9", "2869334802830417278934562195302"):
        "6edbc79433ff224fcfc5b39d948cef60071889f51be7bc36f3ae79118a9256db",
    # 1458 roots mod 3^12·157
    ("solve-quadratic", "1", "15021402", "14118876", "--mod", "83436237"):
        "11f8909880ba3fdbcb384af186903302da009b0d6b00e20637427e24f19885f7",
    # 729 roots mod 2·3^12, the large CRT component second
    ("solve-quadratic", "1", "0", "0", "--mod", "1062882"):
        "dd4e74d47a7380926c985261130a0c0b5d4a2b4ac15d13f7cecdbe2c229f15a4",
    # every Gaussian action, and the payloads no other entry pins
    ("gaussian", "norm", "2+3i"):
        "e463fdbb57d524c792b715b1d501d9dad1a9ad5d95c8adb9abbdd7304bd85dc6",
    ("gaussian", "divrem", "5", "1+i"):
        "6049796972f4f253bd068ee37a4fad2b4793be544412945821ff65457c3e8801",
    ("gaussian", "gcd", "5", "2+i"):
        "b9ea9a9a136eadb0b39a06d971c8230717501cb53aaf0a325a7b5c71deceb942",
    ("gaussian", "is-prime", "1+i"):
        "eb4c7099153554bc4e9458bd9f326efc30fc58ce46eeb68b23b83ffb83d3fa5d",
    ("gaussian", "is-prime", "4"):
        "fdd3d0207b0c07609722510654153a37194d3e1a0d3f5345e91373e64bec9516",
    ("gaussian", "factor", "5"):
        "374cd0a8c66200cc7c18a3ecdf59ac71d539772e43fb61fad5a146ab110ea879",
    ("solve-linear", "6", "114", "--mod", "180"):
        "13dd79321c601e007707cb7c090ead77e2ad55cdf0dac90bb6a2939bff881841",
    ("legendre", "-1", "13"):
        "5e3c90e95ec60f64deeb294a6e5d32d4cd2ff03643894791dbf94e31d7b62755",
    # empty results
    ("triples", "--max", "1"):
        "80fe65fb046e4847275c61e776ed559a0aa8f501be8478a8c377df40364c8fcd",
    ("quadruples", "--max", "2"):
        "2068c0f47768444d7304f3dabd8b22389b07f5a7e3aa8002c6a00759283de246",
    ("two-squares", "primitive", "3"):
        "96cebe4d670c5ff4f62a1f4e1570eaced83e4d376acd6b8714d77a6df67c8540",
}

# the plain-text output, as SHA-256
GOLDEN_PLAIN_SHA256 = {
    ("quadruples", "--max", "200"):
        "c199a85c409f7813790840a3799645ab0020a4ac372d4056729bfa6c32d79b6f",
    ("sqrtmod", "9", "2869334802830417278934562195302"):
        "8e60b067ed63de6875b4f64cf39ab54bb51b893281a0d83b8348362ae902f412",
    ("solve-quadratic", "1", "15021402", "14118876", "--mod", "83436237"):
        "6ee55a68c87db4e9a77f582e498d14ad09d336e6326ca3ae16ebd6518f3bae60",
    ("solve-quadratic", "1", "0", "0", "--mod", "1062882"):
        "fed3fe6595b6f132cdddde2f05a1e73e13887374913149e26bab018a281aedde",
    ("gaussian", "norm", "2+3i"):
        "1a252402972f6057fa53cc172b52b9ffca698e18311facd0f3b06ecaaef79e17",
    ("gaussian", "divrem", "5", "1+i"):
        "93d04aa2be1cfb07c1e6c0035cac3207dd45463e309b0289276c37b85ef097d7",
    ("gaussian", "gcd", "5", "2+i"):
        "acee108cf06ab0747d56342ce8bd7dedd178c34dc05105d317d194657e3a1df8",
    ("gaussian", "is-prime", "1+i"):
        "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74",
    ("gaussian", "is-prime", "4"):
        "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0",
    ("gaussian", "factor", "5"):
        "af1b76773cc1642c46155e5d507da37b9789b207183dcf440619468ecd7e8249",
    ("gaussian", "factor", "--", "-84+37i"):
        "30ac7e15e4ea140a07410b1a585383fbd26251b352b7bf8eb338e0d0540b3553",
    ("two-squares", "count", "25"):
        "a1fb50e6c86fae1679ef3351296fd6713411a08cf8dd1790a4fd05fae8688164",
    ("two-squares", "list", "25"):
        "ef083ff3640f352fb21b164053060869a6449e67b08f1ca9fe7b6fdd65c4a5e7",
    ("two-squares", "primitive", "65"):
        "12ef287a4f3e61babbfa90d8250affcee6c05fcd4643b3d4ee320bb6ff6f0b7e",
    ("two-squares", "represent-prime", "13"):
        "ece3d232c1ca9ef8a80b6fdb1585b8f5cf653b9dd023b0521c8da64db859ffac",
    # empty results print nothing
    ("triples", "--max", "1"):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("quadruples", "--max", "2"):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("two-squares", "primitive", "3"):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}


@pytest.mark.parametrize("argv", list(GOLDEN_JSON), ids=" ".join)
def test_json_output_is_byte_identical(capsys, argv):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0 and out == GOLDEN_JSON[argv] + "\n"


@pytest.mark.parametrize("argv", list(GOLDEN_JSON_SHA256), ids=" ".join)
def test_json_output_digest_is_unchanged(capsys, argv):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == GOLDEN_JSON_SHA256[argv]


@pytest.mark.parametrize("argv", list(GOLDEN_PLAIN_SHA256), ids=" ".join)
def test_plain_output_digest_is_unchanged(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == GOLDEN_PLAIN_SHA256[argv]


# `verify` on each request it supports, as SHA-256 of the exit code, stdout
# and stderr of the plain run followed by those of the `--json` run; refusals
# included. The value is read from the named subcommand's own handler. A
# transcript that changed on purpose is written out in place of its digest.
GOLDEN_VERIFY_SHA256 = {
    ("legendre", "2", "7"):
        "ce0e251e8a9e35977ebe29c0694a5527fdb686990f7f6986ba230b5375952c49",
    ("legendre", "14", "7"):
        "5df4118926cf680d4d41f37bc1c8aa75465000bf416be4d818dc4bc934abe7d7",
    ("legendre", "5", "9"):
        "a5321611878d7c25f1e2b8073a7d546d1d35d153bcfa4cabe498888faeeeab73",
    ("legendre", "2", "1000003"):
        "c1c33923e07449058d821b0b3fda5c17a459b35a192e46c874ad0fc3f6cf64ac",
    ("legendre", "5", "13", "--method", "gauss-lemma"):
        "e138b0e07c9878dbc9961b9b22e00d812649c11bbf045bd759a61cf9ab785bea",
    ("jacobi", "365", "1847"):
        "5c4fefe1ed414073d922c8d69bc5658e2c2fc997bdf570cec4399e047eefdf09",
    ("jacobi", "0", "9"):
        "008a1aa1bddc823b79753dcff4f31db319bcb0fbdb64048e3dac1a183c274486",
    ("jacobi", "2", "8"):
        "53250a697a86bc6b38a190045c12e4941ccd839433a594ce2e33c10f4a928f58",
    ("jacobi", "-7", "-15"):
        "4875ae30e97a1b83faffefe202395b3cfae5a060bb7d0ecd1ef624ae00830941",
    ("sqrtmod", "61", "180"):
        "e96cf1189154589249a7b0a5733607bd91aab6d8fea8eb5a054cae898d20bdec",
    ("sqrtmod", "2", "9"):
        "5bf1f4ef64fc94997740b0a160b70ad397f46a42602d75949ca58da6e5a172ce",
    ("sqrtmod", "3", "9"):
        "408ee63ea5e0c32465c05e191172e892e01d0edc7fcc3d6a75da3b7e6a00981e",
    ("sqrtmod", "4", "0"):
        "9094b0135d10fb2f13714574b02cfa07062a0bca5e81524b443a13eff93205d0",
    ("sqrtmod", "3", "3000027"):
        "39c4917a70eaeb0694cc5eb50c3a0abc1c812ec65810f002f5a0dae9746fa517",
    ("sqrtmod", "4", "998244353000000007"):
        "1302e3a884de6f36939f89f3756ad05f3e1b76ee4ac5de184ff8329e08ff108a",
    ("solve-quadratic", "3", "7", "-1", "--mod", "15"):
        "a864f45d2d5a678f4737f9789730a89609b90ff830c397650600f9ff8317d23c",
    ("solve-quadratic", "2", "0", "-8", "--mod", "1000"):
        "5891c96e07073df2ee6cd4eb5fb7c980e41b940a980f48e95b802e56efacba42",
    ("solve-quadratic", "0", "1", "1", "--mod", "5"):
        "81fa9b9df49feaf717303c9adf93d6f2a5ebe3b2b500ba4bc57c661e55f91473",
    # n = 0 is below 1, the least modulus
    ("solve-quadratic", "1", "1", "1", "--mod", "0"):
        "1\nerror: modulus must be positive\n"
        '1\n{"command": "verify", "error": "modulus must be positive", "inputs": '
        '{"request": ["--", "solve-quadratic", "1", "1", "1", "--mod", "0", "--json"]}, '
        '"result": null, "status": "error"}\n',
    ("two-squares", "count", "0"):
        "5aee5e3fffd8e3802fdc425e51ad78806ccd3d7cf7c2729ed31e4e0e38f1f94a",
    ("two-squares", "count", "25"):
        "93aa3c505dbe21f4d86887666a32115bb831e218ac7490b865d09011c7b845d5",
    ("two-squares", "count", "21"):
        "f52903c4691a031c7af1237341588d55a99c25265ae3d396542457af2b08e45b",
    ("two-squares", "count", "2000000"):
        "a24a3f19792a903fc44680b63773bb20cfe96e322e2ab66a9b1c4912b1a10cca",
    ("two-squares", "list", "0"):
        "84b43ab6f929bb5a519ee56fee69d2bd19e239cdf4c3bbeeb24c566242f9f49d",
    ("two-squares", "list", "1"):
        "a8e911d00ab46f164db60b7f8dec9674b8372bf40f7f4782cfda14d9095649d6",
    ("two-squares", "list", "3"):
        "104693ded680f9fb11692fdb266fa4728b8028bcc644929b0a15c4c35d17023e",
    ("two-squares", "list", "1105"):
        "83c91431399d26c10bb720ce739d51e149d57753f42819af8b28f64c17b79393",
    ("two-squares", "list", "-5"):
        "07c8b19f1ead1aa28294ab4d2bee9bcc3338ba93fecb7f70672fbcb6bb42ce59",
    ("two-squares", "primitive", "0"):
        "ab9a4dc5fdc0719ec68439e72bee726f934d56c714391d8631f3df6c556f00b1",
    ("two-squares", "primitive", "2"):
        "1d72e65796c134d6ca85f53693cb420267d8c886a4c27b28b088c72bfc163039",
    ("two-squares", "primitive", "4"):
        "31bf8c69906566aa1d266ea78a8dbfd3975fe34aadd2381f74c85983f78270b1",
    ("two-squares", "primitive", "130"):
        "8c8badfc7531834c92d97bbe284c34d37b1afee8592c0ce5138bf4823bb0cab4",
    ("two-squares", "primitive", "9"):
        "740a05ddd34e63cb8dc10fb13381c5bcee6f82f01efa42cf2523d33839696652",
    ("two-squares", "represent-prime", "2"):
        "b4d9a0a5b7464a989e12f13234af6862c35f2167b3fd7f9f8bc63fe3cc510a1c",
    ("two-squares", "represent-prime", "13"):
        "886193a761b5491e2eb53dadf1e84df6f40de49f974acee4f62d5723c651ed68",
    ("two-squares", "represent-prime", "7"):
        "13dc4f803ec622e8520548249c71d5377dc73ca078bf2a1cca269932651e87f8",
    ("two-squares", "represent-prime", "9"):
        "265bd476a7bc7e7594cf073591227aa9a43fb45832d93822628dd54339d606f0",
    ("two-squares", "represent-prime", "1000001"):
        "051a58996b4ce621cdb65da8c72901cbe5bf7c83a9585ba6e641ac7888f08640",
}


def _transcript(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return f"{code}\n{out}{err}"


def _is_golden(transcript, expected):
    return expected in (transcript, hashlib.sha256(transcript.encode()).hexdigest())


@pytest.mark.parametrize("request_argv", list(GOLDEN_VERIFY_SHA256), ids=" ".join)
def test_verify_output_is_unchanged(capsys, request_argv):
    both = _transcript(capsys, "verify", "--", *request_argv)
    both += _transcript(capsys, "verify", "--", *request_argv, "--json")
    assert _is_golden(both, GOLDEN_VERIFY_SHA256[request_argv])


# refusals, help and edge placements, as SHA-256 of the exit code, stdout and
# stderr; help is wrapped to COLUMNS
GOLDEN_REFUSAL_SHA256 = {
    ():
        "381466373ddd97dd8738f66463e7fd39443bd80ba0f9ef5e893dc21cddba85dd",
    ("-h",):
        "254939db4aea9f37c7838488b048fac45087eacaf4b18fe119f05b3681d26f4a",
    ("--he",):
        "254939db4aea9f37c7838488b048fac45087eacaf4b18fe119f05b3681d26f4a",
    ("no-such",):
        "61e3a51e358dde107cbd7daa0bab172f0514714feebbf904c4ec8553ee6da69d",
    ("--json", "jacobi", "2", "3"):
        "66c47a1239f8f941c0f1a3762611029e4605e551b8733b73f26217a3db01f4b0",
    ("jacobi", "2"):
        "8de6332ca4d745e901c449634c830b7909ab222acf3b50e21922022b7351915a",
    ("jacobi", "2", "3", "4"):
        "68ed96013a3a5c1eb14765708b10bade9d39bf534c38f8b4bc5547aaaa98657b",
    ("jacobi", "x", "3"):
        "0932b4da1c947e58c4af75de1f415e17a086518dfda6ba705bd20c9539ebe653",
    ("jacobi", "-h"):
        "56d6d6a32d715555f26b1b21de29eccf4c55e48b2d48d76c18c7b1c14c4a693e",
    ("jacobi", "--js", "2", "15"):
        "d04f46deadf4ccd9a57851759c13808a127cf2d3e131f2a713e55821d094b118",
    ("triples", "--ma", "20"):
        "46216c0cd20a1ccd30557f46db49b93f74643a49fc6290752d629349bb9fb4ab",
    ("triples", "--max=20"):
        "46216c0cd20a1ccd30557f46db49b93f74643a49fc6290752d629349bb9fb4ab",
    ("triples", "--max", "20", "extra"):
        "fc7b0aeded4eb1679dab00d97b7607f7d301e291959db3ea07cf05c835d7d75e",
    ("jacobi", "2", "--", "15"):
        "82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae",
    ("two-squares", "lis", "5"):
        "8efafe2793dac8eecab135202f075633b546599a0a0e78f56e0e51b093ff8354",
    ("legendre", "3", "7", "--method", "bogus"):
        "c4eae5371d1720d25d4ae750575b13c662d09af5b583c4b9ee01496d5fff4a2c",
    ("verify", "--", "jacobi", "2"):
        "8ff5cca1749228c99eb55f35a43e4d658ab7918dec06309204649642b6c6f19c",
    ("verify", "--", "jacobi", "2", "3", "4"):
        "e00c01da4cd7380e1f28af68aa6b2eb1bee16fb39e9ff5b1991b61e64fa4d0f7",
    ("verify", "--", "nope"):
        "e7fbfa961e82d86a65b28cbb779668561e7e3cc9be113fcf35c35e62416918ed",
    ("verify",):
        "a7c9f54c37de7e4c6e200cb4d3aef8907e062f423ca6571d228688faa5055295",
    ("verify", "--", "verify", "jacobi", "1", "3"):
        "a7c9f54c37de7e4c6e200cb4d3aef8907e062f423ca6571d228688faa5055295",
    # every subcommand's help and its usage error when given no arguments;
    # `jacobi -h` and a bare `verify` are pinned above
    ("legendre", "-h"):
        "83e9736f9c89e4aa419697737f5a6992ab11f38bc119d515b501b7fba6596261",
    ("sqrtmod", "-h"):
        "a285732329f3217e55d64bc3eeeb814ba556c178432222156259f864b10c1a91",
    ("solve-quadratic", "-h"):
        "82d3f8b7182744a1d22d77a148a0ef7c18a66a33db39a9d90675b37ea7650e0b",
    ("solve-linear", "-h"):
        "36bcf180d1a631aac57ab9a918cc1411ba979b130ec1ce68a527021a54324e4f",
    ("two-squares", "-h"):
        "9780a2d6fcf17b57f5caca98752774a8cca9c2706a9e6049037472f1cc431398",
    ("gaussian", "-h"):
        "bcce6b0eeeb64d89ae728067e2c118bc00a6f99c50e9be83ac41b257582f27b7",
    ("pyth-triple", "-h"):
        "200f51fded8940a20402242fc9c7263097cbb615d95a1b5a8c44feb9df0e4417",
    ("triples", "-h"):
        "b9c2e46778e71fd4aaa099cf9cd1f0b9894ead1e14f6b8f65de8e2c9eeeca154",
    ("cz2", "-h"):
        "93f1c0e9f2950dfd0d02190e3e271d0acd44c58bd16b970ab6ea6c16b00157f6",
    ("zl", "-h"):
        "72fe3b95916e110e7e6a3f1b5a75555f78f7e2a76b86e33393bf5d38f1a4d775",
    ("quadruple", "-h"):
        "e66b46db905b66cd39eafe946520932e92d5e67fc70bd2ae8c1919e19169b457",
    ("quadruples", "-h"):
        "9641bf23e8a3e290fec338778d802211da5b024e55c08d310291d2b0a9b5b48b",
    ("verify", "-h"):
        "6ab6badd7f9826e32309c5096017daaefd7866c4c61df65d5ca0978388e0ccd9",
    ("jacobi",):
        "48db691c88e3b07c0ba39f10809ad9ff253dccddcb2af529f4a9da7080db47c1",
    ("legendre",):
        "5dd261109c0c200858b916d700aac94b8cb0cc57dd1c2f81d91fdde6dfac0305",
    ("sqrtmod",):
        "f2eec036fe70ecc0cbca4ed9e997fea50aadecd1a885073ca5dcfd1e106c617b",
    ("solve-quadratic",):
        "f22ba0b3cdaca895f6405278e2939c6f2d87918d3ffb48f398807404a4bdc957",
    ("solve-linear",):
        "0245bdc1ff94802f1a50777e9afddfae762d75a18a241dbc1858194d4a55a82c",
    ("two-squares",):
        "21cd596e0401ccfa77f088f0a3497f4ba696d21504e7f4d1208e94c767c856cc",
    ("gaussian",):
        "04bdc6fdfe61ed6a1e97a8bd5b9f68fefbe3e793b0e3992c16ee4818de94c15e",
    ("pyth-triple",):
        "e2740aa5c3468b86ff88ca1d6e16e72cb933d5f4832dcafb974e6edb5be40c20",
    ("triples",):
        "cdf57316245d9a933ec206d620fdeeafa1809c3c00669ab6cab4965a3bf07264",
    ("cz2",):
        "4f95df5d15ed1cf90ca0d0e827d52fc126a6b21fd2e2cbe10cdfdd76afe63cbe",
    ("zl",):
        "9c3bf4be7f5ec6f11d56a36489945645a160b02b4dc44bfb285b0860eece430d",
    ("quadruple",):
        "e75b586561c3d5296f8b77612001954043adbac6ac9edcf06b81ecac566e1c85",
    ("quadruples",):
        "fc6eb2b7e5911e79a80df5fcda11e06f548b2b64315e08c945a73454a8ac459a",
    # help inside a verify request is answered as `jacobi -h` is: the same
    # transcript, so the same digest
    ("verify", "--", "jacobi", "-h"):
        "56d6d6a32d715555f26b1b21de29eccf4c55e48b2d48d76c18c7b1c14c4a693e",
    # domain refusals of the library, each plain and with --json
    ("two-squares", "count", "-1"):
        "f595008eca9e721e3e43bf86e2e157cc08a508dea6e44126c69cecded4d81373",
    ("two-squares", "count", "-1", "--json"):
        "59c28692fe65e9f66ea0dadc7eb8f298ce90cc93dcb019f7886da8988c20ecbe",
    ("triples", "--max", "0"):
        "5c4133f9ac33fd4170be02637e354531b01a602f93050b029a5c58d42c91a9b0",
    ("triples", "--max", "0", "--json"):
        "c688aa78c3d0bda9b2be0d9f59bfb674d5cfb2b901cb519e555f95b681c27896",
    ("quadruples", "--max", "0"):
        "0173de564e50fd2a0deed65dfdad59b48c7504b2879d5cf89d3718fc17f19912",
    ("quadruples", "--max", "0", "--json"):
        "2e4c5e323130ac856ef744af215271d32440ff726cb567f2a443d45c8ee88574",
    ("sqrtmod", "4", "0"):
        "bc62cfd5a1119d050408382d26abe52db0211d57a74533dda374c3aed5e8a566",
    ("sqrtmod", "4", "0", "--json"):
        "35f2a21311a45292a52f93b4aaccbb68937b2e2b83e15286fd411fbd8f0bc0b2",
    # n = 0 is below 1, the least modulus
    ("solve-linear", "1", "1", "--mod", "0"):
        "1\nerror: modulus must be positive\n",
    ("solve-linear", "1", "1", "--mod", "0", "--json"):
        '1\n{"command": "solve-linear", "error": "modulus must be positive", '
        '"inputs": {"a": 1, "b": 1, "mod": 0}, "result": null, "status": "error"}\n',
    ("gaussian", "divrem", "1+i", "0"):
        "486769c424484c06bff375ca1110c54e79d8e5c6ee9557473ba6123c6ae7a6bc",
    ("gaussian", "divrem", "1+i", "0", "--json"):
        "2457dc1cb639975cbece4c77dfc72172f473caaf61deced4b51707f89c5dcb33",
    ("gaussian", "factor", "0"):
        "1482cd2cbf0dedc7ce63f28a6218beae4b4d15db8d3eb386155666545f2e1308",
    ("gaussian", "factor", "0", "--json"):
        "84807051f054c55fefc8032443223d0e4722300e405b499c8e0176b81ca62766",
    # digits split by whitespace are not one number
    ("gaussian", "norm", "1 2"):
        "2\nusage error: invalid Gaussian integer literal: '1 2'\n",
    # --json ahead of the `--` that lets a literal start with a minus sign
    ("gaussian", "--json", "factor", "--", "-84+37i"):
        "d405e7a84dcf7657b4c9925e2f2137fe5b793f8809d1ccb2dd3b6ed5121503ea",
    # results too long for str(): Python refuses past 4,300 digits
    ("zl", "20000", "2", "1"):
        "1\nerror: result has more than 4300 digits\n",
    ("zl", "20000", "2", "1", "--json"):
        '1\n{"command": "zl", "error": "result has more than 4300 digits", '
        '"inputs": {"a": 2, "b": 1, "l": 20000}, "result": null, "status": "error"}\n',
    ("pyth-triple", "9" * 4000, "2"):
        "1\nerror: result has more than 4300 digits\n",
    ("pyth-triple", "9" * 4000, "2", "--json"):
        '1\n{"command": "pyth-triple", "error": "result has more than 4300 digits", '
        f'"inputs": {{"m": {"9" * 4000}, "n": 2}}, "result": null, "status": "error"}}\n',
}


def _argv_id(argv):
    return " ".join(arg if len(arg) <= 40 else f"<{len(arg)} chars>" for arg in argv) or "(none)"


@pytest.mark.parametrize("argv", list(GOLDEN_REFUSAL_SHA256), ids=_argv_id)
def test_refusals_and_help_are_unchanged(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    transcript = _transcript(capsys, *argv)
    assert _is_golden(transcript, GOLDEN_REFUSAL_SHA256[argv])


@pytest.mark.parametrize("command", [name for name in cli._SUBCOMMANDS if name != "verify"])
def test_help_inside_verify_is_the_subcommand_help(capsys, command):
    # main returns the code and never raises SystemExit: the benchmark worker
    # calls it in-process
    direct = _transcript(capsys, command, "-h")
    assert direct.startswith("0\nusage: ")
    assert _transcript(capsys, "verify", "--", command, "-h") == direct
    assert _transcript(capsys, "verify", command, "--help") == direct


def test_verify_runs_the_requested_legendre_route(capsys, monkeypatch):
    calls = []

    def counted(a, p):
        calls.append((a, p))
        return gauss_lemma(a, p)

    gauss_lemma = cli.legendre_gauss_lemma
    monkeypatch.setattr(cli, "legendre_gauss_lemma", counted)
    code, out, _ = run(capsys, "verify", "legendre", "2", "7", "--method", "gauss-lemma")
    assert code == 0 and out == "value: 1\noracle: 1\nagree: true\n"
    assert calls == [(2, 7)]
    code, out, _ = run(capsys, "verify", "legendre", "2", "7")
    assert code == 0 and calls == [(2, 7)]
    # a wrong answer from the requested route shows as a disagreement
    monkeypatch.setattr(cli, "legendre_gauss_lemma", lambda a, p: -gauss_lemma(a, p))
    code, out, _ = run(capsys, "verify", "legendre", "2", "7", "--method", "gauss-lemma")
    assert code == 1 and out == "value: -1\noracle: 1\nagree: false\n"
    # Gauss's lemma refuses a = 0 (mod p); verify reports the request's own error
    plain = run(capsys, "legendre", "14", "7", "--method", "gauss-lemma")
    checked = run(capsys, "verify", "legendre", "14", "7", "--method", "gauss-lemma")
    assert checked == plain and plain[0] == 1 and "gcd" in plain[2]
