"""CLI behavior: golden reports, exit codes, and machine-readable errors."""

import ast
import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import count_group_builds
from orbitspace import cli
from orbitspace.cli import _COMMANDS, _parse_args, _render, main
from orbitspace.corpus import corpus_names

GOLDEN = Path(__file__).parent / "golden"
IN = GOLDEN / "inputs"
EXPECTED = GOLDEN / "expected"


def inp(name):
    return str(IN / name)


GOLDEN_CASES = [
    ("validate_z2", ["validate", "--input", inp("z2_four.json")]),
    ("validate_s3_eval", ["validate", "--input", inp("s3_eval.json")]),
    ("orbits_s3_conj", ["orbits", "--input", inp("s3_conj.json")]),
    ("dimension_s3_conj", ["dimension", "--input", inp("s3_conj.json")]),
    (
        "dimension_s3_conj_a3",
        ["dimension", "--input", inp("s3_conj.json"), "--subgroup", "2"],
    ),
    (
        "free_check_z4",
        ["free-check", "--input", inp("z4_translation.json"), "--subgroup", "2"],
    ),
    (
        "fourier_z2_delta",
        ["fourier", "--input", inp("z2_four.json"), "--function", inp("f_delta.json")],
    ),
    (
        "bessel_z2_delta",
        ["bessel", "--input", inp("z2_four.json"), "--function", inp("f_delta.json")],
    ),
    (
        "decompose_z2_mixed",
        ["decompose", "--input", inp("z2_four.json"), "--function", inp("f_mixed.json")],
    ),
    (
        "reciprocity_z2",
        [
            "reciprocity",
            "--input",
            inp("z2_four.json"),
            "--subset",
            "0,1",
            "--function",
            inp("f_on_y.json"),
            "--function",
            inp("g_inv.json"),
        ],
    ),
    ("from_partition", ["from-partition", "--input", inp("partition.json")]),
    (
        "from_partition_minimal",
        ["from-partition", "--input", inp("partition.json"), "--minimal-generators"],
    ),
    (
        "from_partition_singletons",
        ["from-partition", "--input", inp("partition_singletons.json")],
    ),
    (
        "equivalence_z2",
        [
            "equivalence",
            "--input",
            inp("z2_four.json"),
            "--input",
            inp("z2_relabeled.json"),
        ],
    ),
    ("corpus_list", ["corpus", "list"]),
    ("corpus_build_symmetric", ["corpus", "build", "symmetric"]),
]


@pytest.mark.parametrize("case_id,argv", GOLDEN_CASES, ids=[c for c, _ in GOLDEN_CASES])
def test_golden_reports_are_byte_identical(case_id, argv, tmp_path):
    expected = (EXPECTED / f"{case_id}.json").read_bytes()
    runs = []
    for i in range(2):
        out = tmp_path / f"{case_id}_{i}.json"
        assert main(argv + ["--output", str(out)]) == 0
        runs.append(out.read_bytes())
    assert runs[0] == expected
    assert runs[1] == expected


def test_stdout_matches_file_output(tmp_path, capsys):
    argv = ["dimension", "--input", inp("s3_conj.json")]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "report.json"
    assert main(argv + ["--output", str(out)]) == 0
    assert stdout == out.read_text()


def test_validation_failure_exits_2_with_witness(capsys):
    code = main(["validate", "--input", inp("bad_assoc_action.json")])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "NotAssociative"
    assert {"a", "b", "c"} <= set(doc["witness"])


def test_unparseable_input_exits_3(capsys):
    code = main(["orbits", "--input", inp("not_json.json")])
    assert code == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "ParseError"
    assert "path" in doc["witness"]


@pytest.mark.parametrize("degree", [True, 1.0, "1"])
def test_validate_refuses_a_degree_that_is_not_an_int(degree, tmp_path, capsys):
    path = tmp_path / "action.json"
    doc = {"group": {"kind": "table", "mul": [[0]]}, "act": [[0]], "degree": degree}
    path.write_text(json.dumps(doc))
    assert main(["validate", "--input", str(path)]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "ParseError"
    assert report["witness"] == {"where": "action", "key": "degree"}


@pytest.mark.parametrize(
    "group, kind, argv, error",
    [
        ({"kind": "permutation", "degree": 3, "generators": [[0, 0, 1]]}, None, [], "ParseError"),
        (
            {"kind": "permutation", "degree": 4, "generators": [[1, 2, 3, 0]]},
            None,
            ["--cap", "2"],
            "ParseError",
        ),
        ({"kind": "table", "mul": [[0, 1], [0, 1]]}, None, [], "ParseError"),
        ({"kind": "permutation", "degree": 0, "generators": []}, None, [], "NotAPermutation"),
        ({"kind": "table", "mul": [[0, 1], [0, 1]]}, "evaluation", [], "ParseError"),
    ],
    ids=["not-a-permutation", "over-cap", "not-latin", "degree-0", "evaluation-not-latin"],
)
def test_a_document_bad_in_group_and_action_reports_its_shape_first(
    group, kind, argv, error, tmp_path, capsys
):
    """Shape errors of group and action come before the group's own checks;
    the group's degree limit is part of its shape, and an evaluation action
    needs a permutation-form group whatever its table holds."""
    path = tmp_path / "action.json"
    doc = {"group": group} if kind is None else {"group": group, "kind": kind}
    path.write_text(json.dumps(doc))
    assert main(["validate", "--input", str(path), *argv]) == (3 if error == "ParseError" else 2)
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == error
    if error == "ParseError":
        shape = {"where": "action", "missing": "act"} if kind is None else {"kind": kind}
        assert report["witness"] == shape


@pytest.mark.parametrize(
    "argv",
    [
        ["dimension", "--input", inp("z2_four.json"), "--subgroup=--"],
        ["reciprocity", "--input", inp("z2_four.json"), "--subset=--"],
        ["orbits", "--input=--"],
    ],
    ids=["subgroup", "subset", "input"],
)
def test_a_double_dash_value_is_a_parse_error(argv, capsys):
    # "--flag=--" passes the string "--", which no flag's reader accepts
    assert main(argv) == 3
    assert json.loads(capsys.readouterr().out)["error"] == "ParseError"


@pytest.mark.parametrize("seed", [99, -1])
def test_subgroup_seed_out_of_range_names_seed_and_order(seed, capsys):
    argv = ["dimension", "--input", inp("s3_conj.json"), f"--subgroup={seed}"]
    assert main(argv) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "ParseError"
    assert doc["witness"] == {"seed": seed, "order": 6}


def test_missing_file_exits_3(capsys):
    code = main(["orbits", "--input", inp("no_such_file.json")])
    assert code == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "ParseError"


@pytest.mark.parametrize(
    "content",
    [b"[" + b"7" * 5000 + b"]", b"\xff\xfe", b"[" * 2000],
    ids=["int-past-digit-limit", "not-utf-8", "nested-past-recursion-limit"],
)
def test_input_json_cannot_decode_exits_3_naming_the_path(content, tmp_path, capsys):
    path = tmp_path / "action.json"
    path.write_bytes(content)
    assert main(["orbits", "--input", str(path)]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "ParseError"
    assert doc["witness"] == {"path": str(path)}


def test_free_check_reports_witness_on_non_free(capsys):
    code = main(["free-check", "--input", inp("s3_conj.json")])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["is_free"] is False
    assert set(doc["witness"]) == {"element", "point"}


def test_free_check_with_subgroup_on_non_free_exits_2(capsys):
    code = main(["free-check", "--input", inp("s3_conj.json"), "--subgroup", "1"])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "NotFree"


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` so that each call is counted; returns the count list."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_free_check_with_subgroup_scans_for_freeness_once(monkeypatch, capsys):
    from orbitspace.actions import GroupAction

    calls = count_calls(monkeypatch, GroupAction, "free_witness")
    code = main(["free-check", "--input", inp("z4_translation.json"), "--subgroup", "2"])
    assert code == 0
    assert calls[0] == 1
    assert capsys.readouterr().out == (EXPECTED / "free_check_z4.json").read_text()
    calls[0] = 0
    assert main(["free-check", "--input", inp("s3_conj.json"), "--subgroup", "1"]) == 2
    assert calls[0] == 1


def test_free_check_with_subgroup_on_non_free_keeps_its_report(capsys):
    code = main(["free-check", "--input", inp("s3_conj.json"), "--subgroup", "1"])
    assert code == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "NotFree",
        "message": "element 1 fixes point 0",
        "witness": {"element": 1, "point": 0},
    }


@pytest.mark.parametrize("minimal", [False, True])
def test_from_partition_checks_membership_on_generator_rows(minimal, monkeypatch, capsys):
    from orbitspace import partitions

    calls = count_calls(monkeypatch, partitions, "preserves_cells")
    argv = ["from-partition", "--input", inp("partition.json")]
    assert main(argv + ["--minimal-generators"] * minimal) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cell_preserving_membership"] == "ok"
    assert calls[0] == len(doc["generators"]) < doc["order"]


@pytest.mark.parametrize(
    "name, argv", [case for case in GOLDEN_CASES if case[0].startswith("from_partition")]
)
def test_from_partition_builds_its_generators_once(name, argv, monkeypatch, capsys):
    from orbitspace import partitions

    calls = count_calls(monkeypatch, partitions, "cell_transpositions")
    assert main(argv) == 0
    assert calls[0] == 1
    assert capsys.readouterr().out == (EXPECTED / f"{name}.json").read_text()


@pytest.mark.parametrize("function", ["f_delta.json", "f_mixed.json", "g_inv.json"])
def test_fourier_sums_f_over_each_orbit_once(function, monkeypatch, capsys):
    from orbitspace import spaces

    argv = ["fourier", "--input", inp("z2_four.json"), "--function", inp(function)]
    assert main(argv) == 0
    before = capsys.readouterr().out
    calls = count_calls(monkeypatch, spaces, "_cell_sums")
    assert main(argv) == 0
    assert calls[0] == 1
    assert capsys.readouterr().out == before
    if function == "f_delta.json":
        assert before == (EXPECTED / "fourier_z2_delta.json").read_text()


@pytest.mark.parametrize("function, invariant", [("g_inv.json", True), ("f_delta.json", False)])
def test_fourier_is_invariant_agrees_with_the_orbit_scan(function, invariant, capsys):
    from orbitspace.jsonio import action_from_json, function_from_json
    from orbitspace.spaces import is_invariant

    argv = ["fourier", "--input", inp("z2_four.json"), "--function", inp(function)]
    assert main(argv) == 0
    reported = json.loads(capsys.readouterr().out)["is_invariant"]
    action = action_from_json(_golden_doc("z2_four.json"))
    f = function_from_json(_golden_doc(function))
    assert reported is invariant is (is_invariant(action, f) is not None)


@pytest.mark.parametrize(
    "argv, reached",
    [
        (["corpus", "list"], "a success report"),
        (["orbits", "--input", inp("no_such_file.json")], "an input error report"),
        (["dimension", "--input", inp("s3_conj.json"), "--subgroup", "1"], "a success report"),
    ],
    ids=["corpus-list", "missing-input", "dimension"],
)
def test_an_unwritable_output_is_a_parse_error_on_stdout(argv, reached, tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert main(argv + ["--output", str(out)]) == 3, reached
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "ParseError"
    assert doc["witness"] == {"path": str(out)}
    assert not out.parent.exists()


def test_an_unwritable_output_leaves_no_traceback_on_stderr(tmp_path):
    out = tmp_path / "missing" / "x.json"
    argv = ["orbits", "--input", inp("no_such_file.json"), "--output", str(out)]
    proc = subprocess.run(
        [sys.executable, "-m", "orbitspace", *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["witness"] == {"path": str(out)}


def test_a_memory_error_in_a_handler_is_a_size_limit_report(monkeypatch, capsys):
    def run(args):
        raise MemoryError

    monkeypatch.setitem(_COMMANDS, "orbits", (run, *_COMMANDS["orbits"][1:]))
    assert main(["orbits", "--input", inp("z2_four.json")]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "SizeLimitExceeded"
    assert "memory" in doc["message"]
    assert doc["witness"] == {"command": "orbits"}


def test_running_out_of_memory_exits_2_without_a_traceback(tmp_path):
    """A cyclic group of order 12 000 on 12 000 points is within the cap and
    the degree limit, but its closure needs about 1.1 GB. The child limits
    its own address space; the test runner is left as it is."""
    import resource

    n = 12_000
    path = tmp_path / "c12000.json"
    cycle = list(range(1, n)) + [0]
    group = {"kind": "permutation", "degree": n, "generators": [cycle]}
    doc = {"kind": "evaluation", "group": group}
    path.write_text(json.dumps(doc))
    limit = 400 << 20

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "orbitspace", "dimension", "--input", str(path)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        preexec_fn=limit_memory,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    report = json.loads(proc.stdout)
    assert report["error"] == "SizeLimitExceeded"
    assert report["witness"] == {"command": "dimension"}


def test_reciprocity_non_invariant_reports_both_sides(tmp_path, capsys):
    bad = tmp_path / "bad_f.json"
    bad.write_text(json.dumps({"values": [["1", "0"], ["0", "0"]]}))
    code = main(
        [
            "reciprocity",
            "--input",
            inp("z2_four.json"),
            "--subset",
            "0,1",
            "--function",
            str(bad),
            "--function",
            inp("g_inv.json"),
        ]
    )
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "NotInvariant"
    assert doc["witness"]["side"] == "f"
    assert "lhs" in doc["witness"] and "rhs" in doc["witness"]


def test_cap_flag_is_honored(capsys):
    code = main(["validate", "--input", inp("s3_eval.json"), "--cap", "4"])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "SizeLimitExceeded"


@pytest.mark.parametrize("cap,trivial", [(0, False), (-3, False), (-1, True)])
def test_cap_below_one_exits_3_naming_the_flag(cap, trivial, tmp_path, capsys):
    """Refused before any closure, also where the closure never grows."""
    path = inp("s3_eval.json")
    if trivial:
        path = tmp_path / "trivial.json"
        group = {"kind": "permutation", "degree": 1, "generators": []}
        path.write_text(json.dumps({"group": group, "kind": "evaluation"}))
    code = main(["orbits", "--input", str(path), f"--cap={cap}"])
    assert code == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "ParseError"
    assert doc["witness"] == {"flag": "--cap", "value": cap}


def test_cap_env_var_sets_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ORBITSPACE_CAP", "4")
    code = main(["validate", "--input", inp("s3_eval.json")])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "SizeLimitExceeded"


def test_corpus_build_with_params(capsys):
    code = main(["corpus", "build", "gl_on_vectors", "--param", "q=3"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"] == {"n": 2, "q": 3}
    assert len(doc["act"]) == 48


def test_corpus_build_output_feeds_other_commands(tmp_path, capsys):
    saved = tmp_path / "entry.json"
    assert main(["corpus", "build", "two_sided", "--output", str(saved)]) == 0
    assert main(["orbits", "--input", str(saved)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["orbit_count"] == 1


@pytest.mark.parametrize("family", ["coset", "subgroup_conjugates"])
@pytest.mark.parametrize("raw", ["1", "1,"])
def test_corpus_build_one_seed(family, raw, capsys):
    code = main(["corpus", "build", family, "--param", "group=s4", "--param", f"seeds={raw}"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"] == {"group": "s4", "seeds": [1]}


@pytest.mark.parametrize("family", ["coset", "subgroup_conjugates"])
@pytest.mark.parametrize(
    "raw,seed", [("99", 99), ("1,-1", -1), ("x", "x"), ("true", True), ("1,--2", "1,--2")]
)
def test_corpus_build_bad_seed_exits_3(family, raw, seed, capsys):
    code = main(["corpus", "build", family, "--param", f"seeds={raw}"])
    assert code == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "ParseError"
    assert doc["witness"] == {"seed": seed, "order": 6}


def test_corpus_build_unknown_param_exits_3(capsys):
    code = main(["corpus", "build", "symmetric", "--param", "bogus=1"])
    assert code == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "ParseError"
    assert doc["witness"] == {"name": "symmetric", "unknown": "bogus", "accepted": ["n"]}


@pytest.mark.parametrize(
    "name, accepted", [("gl_on_vectors", ["n", "q"]), ("subset_action", ["base"])]
)
def test_allow_large_is_an_unknown_parameter(name, accepted, capsys):
    """The 5040 limit is the only size bound; no parameter lifts it."""
    code = main(["corpus", "build", name, "--param", "allow_large=true"])
    assert code == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "ParseError"
    assert doc["witness"] == {"name": name, "unknown": "allow_large", "accepted": accepted}


@pytest.mark.parametrize(
    "name,param,value,expected",
    [
        ("symmetric", "n=abc", "abc", "int"),
        ("gl_on_vectors", "q=x", "x", "int"),
        ("symmetric", "n=true", True, "int"),
        ("trivial", "group=3", 3, "str"),
        ("symmetric", "n=--1", "--1", "int"),
        ("symmetric", "n=²", "²", "int"),
    ],
)
def test_corpus_build_wrong_param_type_exits_3(name, param, value, expected, capsys):
    code = main(["corpus", "build", name, "--param", param])
    assert code == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "ParseError"
    assert doc["witness"] == {
        "name": name,
        "param": param.split("=")[0],
        "value": value,
        "expected": expected,
    }


def test_bad_cap_env_var_exits_3(capsys, monkeypatch):
    monkeypatch.setenv("ORBITSPACE_CAP", "abc")
    code = main(["validate", "--input", inp("s3_eval.json")])
    assert code == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "ParseError"
    assert doc["witness"] == {"variable": "ORBITSPACE_CAP", "value": "abc"}


@pytest.mark.parametrize("family,param", [("conjugation", "group"), ("subset_action", "base")])
@pytest.mark.parametrize("name", ["s²", "c³"])
def test_corpus_group_names_with_non_decimal_digits_exit_2(family, param, name, capsys):
    """str.isdigit accepts superscripts, which int refuses."""
    code = main(["corpus", "build", family, "--param", f"{param}={name}"])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "ParamOutOfRange"
    assert doc["witness"] == {"name": name}


@pytest.mark.parametrize("family, param", [("sylow", "p"), ("gl_on_vectors", "q")])
def test_a_huge_prime_parameter_exits_2_before_any_primality_test(family, param):
    argv = ["corpus", "build", family, "--param", f"{param}=1000000007"]
    proc = subprocess.run(
        [sys.executable, "-m", "orbitspace", *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=5,
    )
    assert proc.returncode == 2
    doc = json.loads(proc.stdout)
    assert doc["error"] == "ParamOutOfRange"
    assert doc["message"] == f"{param} 1000000007 is beyond the corpus limit 5040"
    assert doc["witness"] == {param: 1000000007, "limit": 5040}


@pytest.mark.parametrize(
    "family, params, witness",
    [
        ("sylow", ["p=5039"], {"p": 5039, "order": 6}),
        ("sylow", ["p=5040"], {"p": 5040}),
        ("gl_on_vectors", ["q=5040"], {"q": 5040}),
        ("gl_on_vectors", ["q=5039"], {"n": 2, "q": 5039}),
        ("gl_on_vectors", ["n=3", "q=5039"], {"n": 3, "q": 5039}),
    ],
)
def test_a_prime_parameter_up_to_the_limit_keeps_its_witness(family, params, witness, capsys):
    argv = ["corpus", "build", family]
    for param in params:
        argv += ["--param", param]
    assert main(argv) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "ParamOutOfRange"
    assert doc["witness"] == witness


@pytest.mark.parametrize("degree", [10**12, 10**20])
def test_partition_with_a_huge_degree_exits_3_without_allocating_it(degree, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"degree": degree, "cells": [[0]]}))
    code = main(["from-partition", "--input", str(path)])
    assert code == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "ParseError"
    assert doc["message"] == "invalid partition: point 1 not covered by any cell"


@pytest.mark.parametrize("cells", [[[0, 0, 1], [2]], [[0, 1], [0, 2]]])
def test_partition_with_a_repeated_point_exits_3(cells, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"degree": 3, "cells": cells}))
    assert main(["from-partition", "--input", str(path)]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "ParseError"
    assert doc["message"] == "invalid partition: point 0 appears more than once"


def test_permutation_group_with_a_huge_degree_exits_2_before_building_it(tmp_path, capsys):
    from orbitspace.groups import _DEGREE_LIMIT

    path = tmp_path / "g.json"
    path.write_text(json.dumps({"group": {"kind": "permutation", "degree": 10**12, "generators": []}}))
    assert main(["orbits", "--input", str(path)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "SizeLimitExceeded"
    assert doc["witness"] == {"degree": 10**12, "limit": _DEGREE_LIMIT}


@pytest.mark.parametrize(
    "bad", [True, "3\n", "\u0663"], ids=["bool", "trailing-newline", "non-ascii-digit"]
)
def test_a_scalar_off_the_wire_format_exits_3_naming_the_value(bad, tmp_path, capsys):
    values = [["0", "0"]] * 6
    values[2] = [bad, "0"]
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"values": values}))
    argv = ["bessel", "--input", inp("s3_conj.json"), "--function", str(path)]
    assert main(argv) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "ParseError"
    assert doc["witness"] == {"where": "function.values[2]", "value": bad}


def test_corpus_unknown_name_exits_2(capsys):
    code = main(["corpus", "build", "nope"])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "UnknownCorpusName"


def test_equivalence_over_different_groups_exits_2(capsys):
    code = main(["equivalence", "--input", inp("s3_conj.json"), "--input", inp("z2_four.json")])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "GroupMismatch"
    assert doc["witness"] == {"orders": [6, 2]}


def test_equivalence_over_same_order_groups_names_a_product(tmp_path, capsys):
    def evaluation(gens):
        return {
            "kind": "evaluation",
            "group": {"kind": "permutation", "degree": 6, "generators": gens},
        }

    c6 = tmp_path / "c6.json"
    s3 = tmp_path / "s3.json"
    c6.write_text(json.dumps(evaluation([[1, 2, 3, 4, 5, 0]])))
    s3.write_text(json.dumps(evaluation([[1, 0, 2, 3, 4, 5], [1, 2, 0, 3, 4, 5]])))
    assert main(["equivalence", "--input", str(c6), "--input", str(s3)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "GroupMismatch"
    left, right = doc["witness"]["products"]
    assert left != right


def test_equivalence_unequal_pair(tmp_path, capsys):
    a = {
        "group": {"kind": "table", "mul": [[0, 1], [1, 0]]},
        "act": [[0, 1], [1, 0]],
    }
    b = {
        "group": {"kind": "table", "mul": [[0, 1], [1, 0]]},
        "act": [[0, 1], [0, 1]],
    }
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    assert main(["equivalence", "--input", str(pa), "--input", str(pb)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"bijection": None, "equivalent": False}


def _saved(tmp_path, i, source):
    """The path of a golden input (a name), a corpus report (name, group) or a document (a dict)."""
    if isinstance(source, str):
        return inp(source)
    path = tmp_path / f"doc{i}.json"
    if isinstance(source, dict):
        path.write_text(json.dumps(source))
    else:
        name, group = source
        assert main(["corpus", "build", name, "--param", f"group={group}", "--output", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize(
    "reports, builds, report",
    [
        (
            [("conjugation", "s4"), ("coset", "s4")],
            ["group_from_table"],
            {"bijection": None, "equivalent": False},
        ),
        (["s3_eval.json"] * 2, ["from_generators"], {"bijection": [0, 1, 2], "equivalent": True}),
        (
            [
                "z2_four.json",
                {
                    "group": {"kind": "table", "mul": [[0, 1], [1, 0]], "labels": ["e", "a"]},
                    "act": [[0, 1, 2, 3], [0, 1, 3, 2]],
                },
            ],
            ["group_from_table"] * 2,
            {"bijection": [2, 3, 0, 1], "equivalent": True},
        ),
        (
            ["s3_conj.json", "s3_eval.json"],
            ["group_from_table", "from_generators"],
            {"bijection": None, "equivalent": False},
        ),
    ],
    ids=["equal-tables", "equal-permutations", "labels-differ", "forms-differ"],
)
def test_equivalence_builds_one_group_for_equal_group_documents(
    reports, builds, report, tmp_path, monkeypatch, capsys
):
    paths = [_saved(tmp_path, i, source) for i, source in enumerate(reports)]
    capsys.readouterr()
    calls = count_group_builds(monkeypatch)
    code = main(["equivalence", "--input", paths[0], "--input", paths[1]])
    assert calls == builds
    assert json.loads(capsys.readouterr().out) == report
    assert code == 0


def test_equivalence_reads_the_second_document_after_the_first_is_built(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"group": {"kind": "words"}, "act": [[0]]}))
    missing = str(tmp_path / "missing.json")
    assert main(["equivalence", "--input", str(bad), "--input", missing]) == 3
    assert json.loads(capsys.readouterr().out)["witness"] == {"kind": "words"}


@pytest.mark.parametrize(
    "mul, act, error",
    [
        ([[0, 1], [1, 0]], [[0, 1, 2], [1, 2, 0]], "CompatibilityViolated"),
        ([[0, True], [1, 0]], [[0, 1], [1, 0]], "ParseError"),
        ([[0, 1.0], [1, 0]], [[0, 1], [1, 0]], "ParseError"),
    ],
    ids=["incompatible-act", "true-for-1", "float-for-1"],
)
def test_equivalence_over_an_equal_group_keeps_the_second_documents_error(
    mul, act, error, tmp_path, capsys
):
    """An equal group document is shared only after the second document's
    shape checks, which refuse true and 1.0 where == would take them for 1."""
    first = {"group": {"kind": "table", "mul": [[0, 1], [1, 0]]}, "act": [[0, 1], [1, 0]]}
    second = {"group": {"kind": "table", "mul": mul}, "act": act}
    paths = [_saved(tmp_path, i, doc) for i, doc in enumerate((first, second))]
    code = main(["equivalence", "--input", paths[0], "--input", paths[1]])
    report = capsys.readouterr().out
    assert (main(["validate", "--input", paths[1]]), capsys.readouterr().out) == (code, report)
    assert json.loads(report)["error"] == error


# ---------------------------------------------------------------------------
# each command imports only the layers it runs

SRC = Path(__file__).resolve().parent.parent / "src"
ACTION_LAYERS = [
    "orbitspace",
    "orbitspace.actions",
    "orbitspace.cli",
    "orbitspace.errors",
    "orbitspace.groups",
    "orbitspace.jsonio",
]
# table-form documents also load the checks of untrusted tables
TABLE_LAYERS = sorted(ACTION_LAYERS + ["orbitspace.tables"])
CLI_ONLY = ["orbitspace", "orbitspace.cli", "orbitspace.errors"]
# stdlib modules that no command needs at start-up, and fractions
STARTUP = ("argparse", "dataclasses", "gettext", "inspect", "locale")
WATCHED = STARTUP + ("fractions",)


def loaded_modules(code, clean=False):
    """The orbitspace modules and the watched stdlib modules that ``code``
    leaves in ``sys.modules`` of a fresh interpreter.

    With ``clean`` the interpreter runs under ``-S``, and pathlib is watched
    too: ``site`` may import pathlib and typing itself (through ``.pth``
    files), which would hide whether orbitspace imports them.
    """
    watched = WATCHED + ("pathlib",) if clean else WATCHED
    report = (
        "import sys\n"
        "print(' '.join(sorted(m for m in sys.modules"
        f" if m.split('.')[0] == 'orbitspace' or m in {watched!r})))\n"
    )
    out = subprocess.run(
        [sys.executable, *(["-S"] if clean else []), "-c", code + "\n" + report],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return out.split()


def loaded_by_command(argv, exit_code=0, clean=False):
    code = (
        "import contextlib, io\n"
        "from orbitspace.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == {exit_code}\n"
    )
    return loaded_modules(code, clean)


@pytest.mark.parametrize(
    "argv",
    [
        ["orbits", "--input", inp("s3_eval.json")],
        pytest.param(["dimension", "--input", inp("s3_eval.json")], id="dimension-whole-group"),
        ["dimension", "--input", inp("s3_eval.json"), "--subgroup", "1"],
        ["free-check", "--input", inp("s3_eval.json")],
        ["validate", "--input", inp("s3_eval.json")],
        ["equivalence", "--input", inp("s3_eval.json"), "--input", inp("s3_eval.json")],
    ],
    ids=lambda argv: argv[0],
)
def test_action_commands_load_only_the_action_layers(argv):
    """Evaluation documents: a closure and its own rows, no table checks, no corpus."""
    assert loaded_by_command(argv) == ACTION_LAYERS


@pytest.mark.parametrize(
    "argv",
    [
        ["orbits", "--input", inp("s3_conj.json")],
        ["dimension", "--input", inp("s3_conj.json"), "--subgroup", "2"],
        ["free-check", "--input", inp("s3_conj.json")],
        ["validate", "--input", inp("z2_four.json")],
        ["equivalence", "--input", inp("z2_four.json"), "--input", inp("z2_relabeled.json")],
        ["equivalence", "--input", inp("s3_conj.json"), "--input", inp("s3_eval.json")],
    ],
    ids=["orbits", "dimension", "free-check", "validate", "equivalence", "equivalence-mixed"],
)
def test_table_documents_load_the_table_checks_too(argv):
    assert loaded_by_command(argv) == TABLE_LAYERS


@pytest.mark.parametrize(
    "argv",
    [
        ["fourier", "--input", inp("z4_translation.json"), "--function", inp("f_delta.json")],
        ["decompose", "--input", inp("z2_four.json"), "--function", inp("f_mixed.json")],
        ["from-partition", "--input", inp("partition.json")],
    ],
    ids=lambda argv: argv[0],
)
def test_analysis_commands_load_no_corpus(argv):
    loaded = loaded_by_command(argv)
    assert "orbitspace.jsonio" in loaded and "orbitspace.corpus" not in loaded


@pytest.mark.parametrize("command", ["orbits", "dimension"])
def test_evaluation_commands_build_no_labels_or_inverses(command, monkeypatch):
    from orbitspace import groups

    calls = []
    for name in ("cycle_string", "invert_perm"):
        original = getattr(groups, name)
        monkeypatch.setattr(
            groups, name, lambda p, name=name, original=original: calls.append(name) or original(p)
        )
    assert main([command, "--input", inp("s3_eval.json")]) == 0
    assert calls == []


@pytest.mark.parametrize(
    "argv",
    [
        ["orbits", "--input", inp("s3_conj.json")],
        ["validate", "--input", inp("s3_eval.json")],
        ["corpus", "list"],
        ["corpus", "build", "two_sided", "--param", "group=s4"],
        ["decompose", "--input", inp("z2_four.json"), "--function", inp("f_mixed.json")],
        [
            "reciprocity",
            "--input",
            inp("z2_four.json"),
            "--subset",
            "0,1",
            "--function",
            inp("f_on_y.json"),
            "--function",
            inp("g_inv.json"),
        ],
    ],
    ids=lambda argv: "-".join(argv[:2]) if argv[0] == "corpus" else argv[0],
)
def test_commands_load_no_startup_only_stdlib(argv):
    assert not set(STARTUP) & set(loaded_by_command(argv))


def module_imports(path, module_level=False):
    """(line, module) for each import statement in the file at ``path``;
    a relative import is written with its leading dots. ``module_level``
    skips imports inside function bodies, which run only when called."""
    found = []
    nodes = list(ast.parse(path.read_text(encoding="utf-8")).body)
    while nodes:
        node = nodes.pop()
        if module_level and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append((node.lineno, "." * node.level + (node.module or "")))
        nodes.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_library_imports_no_argparse_inspect_or_dataclasses():
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted((SRC / "orbitspace").glob("*.py"))
        for line, name in module_imports(path)
        if name.split(".")[0] in ("argparse", "inspect", "dataclasses")
    ]
    assert found == []


def test_corpus_list_loads_no_function_layers():
    assert loaded_by_command(["corpus", "list"]) == CLI_ONLY


@pytest.mark.parametrize(
    "argv, exit_code",
    [(["--help"], 0), (["orbits", "--inp", "x"], 3), (["orbits", "--cap", "0"], 3)],
    ids=["help", "unknown-flag", "cap-below-one"],
)
def test_help_and_usage_errors_load_no_layer(argv, exit_code):
    assert loaded_by_command(argv, exit_code) == CLI_ONLY


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["orbits", "--input", inp("s3_conj.json")], TABLE_LAYERS),
        (["corpus", "list"], CLI_ONLY),
    ],
    ids=["orbits", "corpus-list"],
)
def test_commands_load_no_pathlib_in_a_clean_interpreter(argv, loaded):
    assert loaded_by_command(argv, clean=True) == loaded


def test_corpus_list_names_are_the_corpus_names(capsys):
    assert cli._CORPUS_NAMES == tuple(corpus_names())
    assert main(["corpus", "build", "nosuch"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "UnknownCorpusName"
    assert doc["message"].endswith("; known: " + ", ".join(cli._CORPUS_NAMES))


def test_cli_imports_only_stdlib_and_errors_at_module_level():
    imports = module_imports(SRC / "orbitspace" / "cli.py", module_level=True)
    assert imports, "the walk found no import"
    found = [
        f"cli.py:{line} {name}"
        for line, name in imports
        if name != ".errors" and name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert found == []


def test_import_orbitspace_loads_no_submodule():
    assert loaded_modules("import orbitspace") == ["orbitspace"]


def test_every_exported_name_resolves():
    import orbitspace

    for name in orbitspace.__all__:
        assert getattr(orbitspace, name) is not None, name
    assert set(orbitspace.__all__) <= set(dir(orbitspace))
    assert orbitspace.__all__ == sorted(orbitspace.__all__)
    with pytest.raises(AttributeError):
        orbitspace.nope


# ---------------------------------------------------------------------------
# the report writer against json.dumps


def json_scalars():
    return st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers(min_value=2**64),
        st.floats(),
        st.text(),
        st.fractions().map(str),
    )


def json_documents():
    int_lists = st.lists(st.integers(-(2**70), 2**70))
    strings = st.one_of(st.text(), st.fractions().map(str))
    near_pairs = st.one_of(
        st.lists(strings, min_size=1, max_size=3),
        st.tuples(strings, strings),
        st.lists(st.one_of(strings, st.integers(), st.none()), min_size=2, max_size=2),
    )
    huge = st.integers(-(10**400), 10**400)
    leaves = st.one_of(
        json_scalars(),
        int_lists,
        int_lists.map(tuple),
        st.lists(huge),
        # rows that share their values, as action tables do, with bools equal to 0 and 1
        st.lists(st.lists(st.integers(-2, 300), max_size=8), max_size=5),
        st.lists(st.lists(st.sampled_from([0, 1, -1, 300, True, False]), max_size=4)),
        st.lists(st.lists(st.integers(-2, 300)).map(tuple), max_size=5).map(tuple),
        # one row object repeated, beside equal copies of it, and at two indents
        st.lists(st.one_of(st.integers(-2, 300), st.booleans()), max_size=6).flatmap(
            lambda row: st.lists(
                st.sampled_from([row, list(row), tuple(row), [row, row], None]), max_size=8
            )
        ),
        st.lists(st.booleans()),
        st.lists(st.one_of(st.integers(), st.booleans())),
        st.lists(st.tuples(strings, strings).map(list)),  # a function's values
        st.lists(near_pairs | st.tuples(strings, strings).map(list), min_size=1),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(st.text(), inner, max_size=4),
        ),
        max_leaves=20,
    )


@settings(max_examples=300, deadline=None)
@given(json_documents())
def test_render_is_json_dumps_with_sorted_keys_and_indent(doc):
    assert _render(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(doc=json_documents(), size=st.integers(1, 64))
def test_emit_streams_json_dumps_to_stdout_and_to_a_file(doc, size, tmp_path, capsys):
    expected = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert cli._emit(doc, None, 0) == 0
    assert capsys.readouterr().out == expected
    out = tmp_path / "report.json"
    assert cli._emit(doc, str(out), 2) == 2
    assert out.read_text(encoding="utf-8") == expected
    chunks = list(cli._chunks(doc, size))
    assert "".join(chunks) == expected
    # a short chunk is only ever flushed ahead of a long list's own chunk
    for chunk, after in zip(chunks, chunks[1:]):
        assert len(chunk) >= size or len(after) >= size


def test_emit_never_writes_the_whole_of_a_large_report(monkeypatch):
    doc = {"rows": [list(range(300))] * 300, "values": [["1/2", "-3"]] * 3000}
    expected = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    writes = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(writelines=lambda it: writes.extend(it)))
    assert cli._emit(doc, None, 0) == 0
    assert "".join(writes) == expected
    assert len(writes) > 10
    assert max(map(len, writes)) < 2 * 65536
    # the 3000 pairs (105 KB) are one list: written as they were joined, alone
    values = json.dumps(doc["values"], indent=2).replace("\n", "\n  ")
    assert values in writes


def test_a_long_list_is_its_own_chunk():
    doc = {"a": "x" * 5, "b": list(range(40)), "c": 1}
    chunks = list(cli._chunks(doc, 64))
    rows = "[\n" + ",\n".join(f"    {i}" for i in range(40)) + "\n  ]"
    assert chunks == ['{\n  "a": "xxxxx",\n  "b": ', rows, ',\n  "c": 1\n}\n']


def test_read_json_keeps_one_int_object_per_distinct_value(tmp_path):
    # past CPython's small-int cache, json.loads alone makes one object per cell
    rows = [[1000 + (x + a) % 50 for x in range(50)] for a in range(50)]
    path = tmp_path / "action.json"
    path.write_text(json.dumps({"act": rows}))
    act = cli._read_json(str(path))["act"]
    assert act == rows
    assert len({id(x) for row in act for x in row}) == 50


TWO_POINTS = '{"group": {"kind": "table", "mul": [[0, 1], [1, 0]]}, "act": [[0, 1], [1, %s]]}'


@pytest.mark.parametrize("entry", ["7" * 5000, "-0", "true"], ids=["5000-digits", "-0", "true"])
def test_a_table_entry_keeps_its_report_through_the_int_memo(entry, tmp_path, capsys):
    path = tmp_path / "action.json"
    path.write_text(TWO_POINTS % entry)
    code = main(["validate", "--input", str(path)])
    doc = json.loads(capsys.readouterr().out)
    if entry == "-0":
        assert (code, doc) == (0, {"degree": 2, "group_order": 2, "valid": True})
        return
    if entry == "true":
        message, witness = "action.act[1] must be a list of integers", {"where": "action.act[1]"}
    else:
        with pytest.raises(ValueError) as plain:  # the digit limit, as without the memo
            json.loads(path.read_text())
        message, witness = f"{path} is not valid JSON: {plain.value}", {"path": str(path)}
    assert (code, doc) == (3, {"error": "ParseError", "message": message, "witness": witness})


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "argv",
    [["corpus", "list"], ["corpus", "build", "symmetric", "--param", "n=5"]],
    ids=["small", "many-chunks"],
)
def test_a_full_device_is_a_parse_error_on_stdout(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "orbitspace", *argv, "--output", "/dev/full"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert proc.stderr == ""
    doc = json.loads(proc.stdout)
    assert doc["error"] == "ParseError"
    assert doc["witness"] == {"path": "/dev/full"}


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        {"a": [], "b": {}, "c": ()},
        [[0, 1], [1, 0]],
        {"\u00e9t\u00e9": "na\u00efve", 'q"uo\\te': "tab\there\n"},
        {"ratio": "-3/4", "pair": ["1/2", "0"]},
        {True: 1, False: [True, 1]},
        {1: "one", 10: "ten", 2: None},
        {None: 0},
        {1.5: 0, 0.25: 1},
    ],
)
def test_render_examples(doc):
    assert _render(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "build, digest",
    [
        (
            ["symmetric", "--param", "n=6"],
            "904c650a90ee110e486c46f52e04584cb29753393a40a29fd457c2602773e506",
        ),
        (
            ["two_sided", "--param", "group=s4"],
            "1b8fd9df684062a9acb23253d07cff649d0b53e0b138c09cc0cb1113638a1b2a",
        ),
        # the bytes of the element-by-element builders that generator rows replaced
        (
            ["gl_on_vectors", "--param", "q=3"],
            "ab42d7c6b0cd727afeb316d0cdeda56e4d237726ed82edbc25f1a4cbf2ba7737",
        ),
        (
            ["gl_on_vectors", "--param", "q=5"],
            "9ce9eb9a43f9b714233049d3611189c8807a51fdb656d413a23c03984cc2895e",
        ),
        (
            ["sylow", "--param", "group=s4", "--param", "p=2"],
            "f1e036fec330b7e9b2b191ba3970a786ebb2e29423981134faa08d8db3877d9c",
        ),
        (
            ["subgroup_conjugates", "--param", "group=s4"],
            "049999713c1ad57983aeaac8188aaa9ffc5be82cc85095ede478b7fe38b955a9",
        ),
        (
            ["order_p", "--param", "group=s4", "--param", "p=2"],
            "96fedbd83d39c0e9cbdf338d7eeea5b25c9b6ef2fa6579dcef5af6d0416dfd53",
        ),
        (
            ["subset_action", "--param", "base=s4"],
            "474f313406609e0506a08f66d236a8d1010343ff49ed40987b24d079facecfe3",
        ),
        (
            ["two_sided", "--param", "group=d12"],
            "3e0dcfac74239ed4de7bb4b40a9625e618c5dd52ce0a294840603b2f98af2e3d",
        ),
        # the dicyclic groups, Dic_2 = q8 and Dic_3 = dic3, from one presentation
        (
            ["conjugation", "--param", "group=q8"],
            "623d300c005e0f4e7d983ec8d21c6c0dda7e7869cb0c9db50569021627b2fefc",
        ),
        (
            ["conjugation", "--param", "group=dic3xv4"],
            "0573698da808f38b88cfa3dadf59d36fe3519804bac2ea616b486050e771055b",
        ),
        (
            ["two_sided", "--param", "group=dic3"],
            "6ded047cdd06f0e0f4a5dcf371d46d3e6c029cb3f5bc120fc9415cd771795cbb",
        ),
        (
            ["sylow", "--param", "group=dic3", "--param", "p=2"],
            "5f0c16a434fda4dee8ca226758e31ecfc445908bc35a4e5be6487384c8251b33",
        ),
    ],
    ids=[
        "symmetric-n6",
        "two_sided-s4",
        "gl_on_vectors-q3",
        "gl_on_vectors-q5",
        "sylow-s4-p2",
        "subgroup_conjugates-s4",
        "order_p-s4-p2",
        "subset_action-s4",
        "two_sided-d12",
        "conjugation-q8",
        "conjugation-dic3xv4",
        "two_sided-dic3",
        "sylow-dic3-p2",
    ],
)
def test_corpus_table_reports_keep_their_bytes(build, digest, tmp_path):
    out = tmp_path / "report.json"
    assert main(["corpus", "build", *build, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


RSS_OF_COMMAND = """
import resource, subprocess, sys
subprocess.run(
    [sys.executable, "-m", "orbitspace", *sys.argv[1:]], stdout=subprocess.DEVNULL, check=True
)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
"""


def peak_rss_mb(argv):
    """The peak RSS of one CLI command, in a child of a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", RSS_OF_COMMAND, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return float(out)


def test_a_large_report_streams_without_a_whole_copy_of_its_text():
    # the n = 6 build writes 6.7 MB from the stored rows, each distinct int
    # rendered once; the difference leaves out the interpreter
    build = peak_rss_mb(["corpus", "build", "symmetric", "--param", "n=6"])
    growth = build - peak_rss_mb(["corpus", "list"])
    assert growth < 6, growth


def test_a_large_table_document_is_read_with_one_int_per_value(tmp_path):
    # S4 permuting the letters of the 4096 words of length 6 over 4 letters:
    # 98,304 action cells, 4096 distinct values
    from orbitspace.groups import from_generators

    group, perms = from_generators(4, [(1, 0, 2, 3), (1, 2, 3, 0)])
    words = list(itertools.product(range(4), repeat=6))
    index = {w: i for i, w in enumerate(words)}
    act = [[index[tuple(p[c] for c in w)] for w in words] for p in perms]
    path = tmp_path / "s4_words6.json"
    path.write_text(json.dumps({"group": {"kind": "table", "mul": group.mul_table}, "act": act}))
    growth = peak_rss_mb(["validate", "--input", str(path)]) - peak_rss_mb(["corpus", "list"])
    assert growth < 3, growth


TRACER = SRC.parent / "perfbench" / "tracer.py"


@pytest.mark.parametrize(
    "argv",
    [
        ["orbits", "--input", inp("s3_eval.json")],
        ["validate", "--input", inp("s3_conj.json")],
        ["corpus", "build", "cyclic_translation"],
    ],
    ids=["orbits-permutation", "validate-table", "corpus-build"],
)
def test_the_benchmark_tracer_runs_a_command_unchanged(argv, tmp_path):
    """The tracer looks up cli._render, cli._read_json, groups.from_generators
    and actions.validate_action by name; a rename would stop it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    plain = subprocess.run([sys.executable, "-m", "orbitspace", *argv], env=env, capture_output=True)
    spans = tmp_path / "spans.json"
    traced = subprocess.run(
        [sys.executable, str(TRACER), str(spans), "probe", "--", *argv],
        env=env,
        capture_output=True,
    )
    assert traced.returncode == plain.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    assert json.loads(spans.read_text())["command"] == "probe"


# ---------------------------------------------------------------------------
# the command table and its parser


def parsed(command, **flags):
    """The namespace _parse_args returns: every flag of the command unset
    except those given."""
    unset = {
        key.lstrip("-").replace("-", "_"): False if kind == "switch" else None
        for key, kind in _COMMANDS[command][2].items()
    }
    return {"command": command, **unset, **flags}


@pytest.mark.parametrize(
    "argv,expected",
    [
        (
            ["validate", "--input", "a.json", "--cap", "9"],
            parsed("validate", input=["a.json"], cap=9),
        ),
        (
            ["orbits", "--input", "a.json", "--output", "o.json"],
            parsed("orbits", input=["a.json"], output="o.json"),
        ),
        (
            ["dimension", "--input", "a.json", "--subgroup", "1,2"],
            parsed("dimension", input=["a.json"], subgroup="1,2"),
        ),
        (
            ["free-check", "--input", "a.json", "--subgroup", "2"],
            parsed("free-check", input=["a.json"], subgroup="2"),
        ),
        (
            ["fourier", "--input", "a.json", "--function", "f.json"],
            parsed("fourier", input=["a.json"], function=["f.json"]),
        ),
        (
            ["bessel", "--input", "a.json", "--function", "f.json"],
            parsed("bessel", input=["a.json"], function=["f.json"]),
        ),
        (
            ["decompose", "--input", "a.json", "--function", "f.json"],
            parsed("decompose", input=["a.json"], function=["f.json"]),
        ),
        (
            ["reciprocity", "--input", "a.json", "--subset", "0,1"]
            + ["--function", "f", "--function", "g"],
            parsed("reciprocity", input=["a.json"], subset="0,1", function=["f", "g"]),
        ),
        (
            ["from-partition", "--input", "p.json", "--minimal-generators"],
            parsed("from-partition", input=["p.json"], minimal_generators=True),
        ),
        (
            ["equivalence", "--input", "a.json", "--input", "b.json"],
            parsed("equivalence", input=["a.json", "b.json"]),
        ),
        (["corpus", "list"], parsed("corpus list")),
        (
            ["corpus", "build", "coset", "--param", "group=s4", "--output", "o.json"],
            parsed("corpus build", name="coset", param=["group=s4"], output="o.json"),
        ),
    ],
    ids=[
        "validate",
        "orbits",
        "dimension",
        "free-check",
        "fourier",
        "bessel",
        "decompose",
        "reciprocity",
        "from-partition",
        "equivalence",
        "corpus-list",
        "corpus-build",
    ],
)
def test_parse_args_reads_the_flags_of_each_command(argv, expected):
    assert vars(_parse_args(argv)) == expected


@pytest.mark.parametrize(
    "argv,expected",
    [
        (
            ["validate", "--input=a.json", "--cap=9", "--output=o.json"],
            parsed("validate", input=["a.json"], cap=9, output="o.json"),
        ),
        (
            ["dimension", "--subgroup=--", "--input=a=b"],
            parsed("dimension", subgroup="--", input=["a=b"]),
        ),
        (
            ["orbits", "--output", "a", "--cap", "3", "--output", "b", "--cap=5"],
            parsed("orbits", output="b", cap=5),
        ),
        (["dimension", "--subgroup", "-1"], parsed("dimension", subgroup="-1")),
        (
            ["from-partition", "--input", "p.json"],
            parsed("from-partition", input=["p.json"], minimal_generators=False),
        ),
        (
            ["corpus", "build", "--param", "group=s4", "coset", "--param", "seeds=1,2"],
            parsed("corpus build", name="coset", param=["group=s4", "seeds=1,2"]),
        ),
    ],
    ids=[
        "equals-form",
        "equals-keeps-the-rest",
        "last-value-wins",
        "negative-value",
        "switch-unset",
        "name-after-flags",
    ],
)
def test_parse_args_forms(argv, expected):
    assert vars(_parse_args(argv)) == expected


S3 = inp("s3_conj.json")


def usage_error(argv, capsys):
    assert main(argv) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "ParseError"
    return doc


def test_a_flag_of_another_command_is_a_parse_error(capsys):
    doc = usage_error(["validate", "--subgroup", "1"], capsys)
    assert doc["witness"] == {"command": "validate", "flag": "--subgroup"}
    assert "--subgroup" in doc["message"]


@pytest.mark.parametrize(
    "argv,witness",
    [
        (["bogus", "--input", "a.json"], {"command": "bogus"}),
        ([], {"command": None}),
        (["orbits", "--input", S3, "--bogus"], {"command": "orbits", "flag": "--bogus"}),
        (["orbits", "--inp", S3], {"command": "orbits", "flag": "--inp"}),
        (["orbits", "-i", S3], {"command": "orbits", "flag": "-i"}),
        (["orbits", "--input"], {"flag": "--input", "value": None}),
        (["orbits", "--input", "--cap", "3"], {"flag": "--input", "value": "--cap"}),
        (["orbits", "--input", S3, "--cap", "x"], {"flag": "--cap", "value": "x"}),
        (["orbits", "--input", S3, "--cap=1.5"], {"flag": "--cap", "value": "1.5"}),
        (["orbits", "--input", S3, "extra"], {"command": "orbits", "argument": "extra"}),
        (
            ["from-partition", "--input", inp("partition.json"), "--minimal-generators=yes"],
            {"flag": "--minimal-generators", "value": "yes"},
        ),
        (["corpus"], {"command": "corpus"}),
        (["corpus", "symmetric"], {"command": "corpus"}),
        (["corpus", "build"], {"command": "corpus build"}),
        (["corpus", "build", "--param", "n=3"], {"command": "corpus build"}),
        (["corpus", "list", "--param", "n=3"], {"command": "corpus list", "flag": "--param"}),
        (
            ["corpus", "build", "symmetric", "cyclic"],
            {"command": "corpus build", "argument": "cyclic"},
        ),
    ],
    ids=[
        "unknown-command",
        "no-command",
        "unknown-flag",
        "abbreviation",
        "short-flag",
        "missing-value-at-end",
        "missing-value-before-a-flag",
        "bad-cap",
        "fractional-cap",
        "stray-argument",
        "switch-with-value",
        "corpus-alone",
        "corpus-without-list-or-build",
        "corpus-build-without-name",
        "corpus-build-flags-without-name",
        "corpus-list-with-param",
        "corpus-build-two-names",
    ],
)
def test_usage_errors_exit_3_naming_the_token(argv, witness, capsys):
    assert usage_error(argv, capsys)["witness"] == witness


def test_a_usage_error_is_reported_on_stdout_even_with_output(tmp_path, capsys):
    out = tmp_path / "report.json"
    usage_error(["orbits", "--output", str(out), "--bogus"], capsys)
    assert not out.exists()


def test_commands_without_cap_never_read_the_cap_env_var(monkeypatch, capsys):
    builds = [
        ["corpus", "build", "symmetric", "--param", "n=4"],
        ["corpus", "build", "conjugation", "--param", "group=q8"],
    ]
    unset = []
    for argv in builds:
        assert main(argv) == 0
        unset.append(capsys.readouterr().out)
    for raw in ("abc", "4"):
        monkeypatch.setenv("ORBITSPACE_CAP", raw)
        assert main(["corpus", "list"]) == 0
        assert json.loads(capsys.readouterr().out) == {"names": corpus_names()}
        for argv, text in zip(builds, unset):
            assert main(argv) == 0
            assert capsys.readouterr().out == text


def test_default_cap_reads_a_positive_integer(monkeypatch):
    from orbitspace.errors import ParseError
    from orbitspace.groups import DEFAULT_CLOSURE_CAP

    monkeypatch.delenv("ORBITSPACE_CAP", raising=False)
    assert cli._default_cap() == DEFAULT_CLOSURE_CAP
    monkeypatch.setenv("ORBITSPACE_CAP", "12")
    assert cli._default_cap() == 12
    for raw in ("abc", "0", "-3", ""):
        monkeypatch.setenv("ORBITSPACE_CAP", raw)
        with pytest.raises(ParseError) as exc:
            cli._default_cap()
        assert exc.value.witness == {"variable": "ORBITSPACE_CAP", "value": raw}


@pytest.mark.parametrize(
    "argv",
    [
        ["-h"],
        ["--help"],
        ["orbits", "--input", "a.json", "-h"],
        ["corpus", "build", "--help"],
        ["bogus", "-h"],
    ],
)
def test_help_writes_a_json_usage_report_from_the_command_table(argv, capsys):
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert text == _render(json.loads(text))
    commands = json.loads(text)["commands"]
    assert list(commands) == sorted(_COMMANDS)
    for name, (_, help_text, flags) in _COMMANDS.items():
        assert commands[name] == {"help": help_text, "flags": flags}


# ---------------------------------------------------------------------------
# the CLI contract on structured but malformed documents

SMALL = st.integers(-1, 6)  # small, so that no example asks for a large allocation
# one branch, so that one_of(SMALL, SMALL, SMALL, JUNK) draws ints three times in four
JUNK = st.sampled_from([True, False, None, 0.0, 1.5, -1.0, "1", "x", "1/0", "", "1/2", [], {}])
ENTRY = st.one_of(SMALL, SMALL, SMALL, JUNK)
ROWS = st.lists(st.lists(ENTRY, max_size=6), max_size=6)
GOOD_SCALAR = st.sampled_from(["0", "1", "-1/2", "2/4", "3"])
SCALAR = st.one_of(
    GOOD_SCALAR, GOOD_SCALAR, st.sampled_from(["1/0", "x", "", " 1", "1.5"]), JUNK, SMALL
)
CSV = st.one_of(
    st.lists(SMALL, max_size=4).map(lambda xs: ",".join(map(str, xs))),
    st.sampled_from(["a", "1.5", "0,,2", ",", "0, 1", "--", "1e2"]),
)


def _golden_doc(name):
    return json.loads((IN / name).read_text())


ACTIONS = [
    _golden_doc(name)
    for name in ("z2_four.json", "s3_conj.json", "z4_translation.json", "s3_eval.json")
]
PARTITIONS = [_golden_doc(name) for name in ("partition.json", "partition_singletons.json")]
# every command but corpus, with the number of --function files it reads
COMMANDS = {
    "validate": 0,
    "orbits": 0,
    "dimension": 0,
    "free-check": 0,
    "fourier": 1,
    "bessel": 1,
    "decompose": 1,
    "reciprocity": 2,
    "from-partition": 0,
    "equivalence": 0,
}


def _paths(doc, path=()):
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, path + (i,))


@st.composite
def mutated(draw, base):
    """A copy of a valid document with up to three entries replaced or removed."""
    doc = json.loads(json.dumps(draw(st.sampled_from(base))))
    for _ in range(draw(st.integers(0, 3))):
        paths = [p for p in _paths(doc) if p]
        if not paths:
            break
        *parent_path, key = draw(st.sampled_from(paths))
        parent = doc
        for step in parent_path:
            parent = parent[step]
        if draw(st.booleans()):
            parent[key] = draw(ENTRY)
        else:
            del parent[key]
    return doc


def group_docs():
    return st.one_of(
        st.fixed_dictionaries({"kind": st.just("table"), "mul": ROWS}),
        st.fixed_dictionaries(
            {
                "kind": st.just("permutation"),
                "degree": ENTRY,
                "generators": st.lists(
                    st.one_of(st.permutations(range(4)), st.lists(ENTRY, max_size=6)),
                    max_size=3,
                ),
            }
        ),
        st.fixed_dictionaries({"kind": ENTRY}),
    )


def action_docs():
    built = st.fixed_dictionaries(
        {"group": group_docs(), "act": ROWS},
        optional={"degree": ENTRY, "kind": st.sampled_from(["evaluation", "table", 1])},
    )
    return st.one_of(mutated(ACTIONS), mutated(ACTIONS), built, JUNK)


def function_docs():
    value = st.one_of(st.lists(SCALAR, min_size=2, max_size=2), SCALAR)
    good = st.lists(GOOD_SCALAR, min_size=2, max_size=2)
    return st.one_of(
        st.fixed_dictionaries({"values": st.lists(good, min_size=2, max_size=6)}),
        st.fixed_dictionaries(
            {"values": st.lists(value, max_size=6)},
            optional={"subset": st.lists(ENTRY, max_size=4)},
        ),
        JUNK,
    )


def partition_docs():
    built = st.fixed_dictionaries(
        {"degree": ENTRY, "cells": st.lists(st.lists(ENTRY, max_size=4), max_size=4)}
    )
    return st.one_of(mutated(PARTITIONS), built, JUNK)


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(sorted(COMMANDS)), st.data())
def test_every_command_exits_0_2_or_3_with_a_json_report(command, data):
    with tempfile.TemporaryDirectory() as tmp:

        def saved(doc):
            path = os.path.join(tmp, f"doc{len(os.listdir(tmp))}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            return path

        if command == "from-partition":
            argv = [command, "--input", saved(data.draw(partition_docs()))]
            if data.draw(st.booleans()):
                argv.append("--minimal-generators")
        else:
            argv = [command, "--input", saved(data.draw(action_docs()))]
        if command == "equivalence":
            argv += ["--input", saved(data.draw(action_docs()))]
        if command in ("dimension", "free-check") and data.draw(st.booleans()):
            argv.append("--subgroup=" + data.draw(CSV))
        if command == "reciprocity":
            argv.append("--subset=" + data.draw(CSV))
        for _ in range(COMMANDS[command]):
            argv += ["--function", saved(data.draw(function_docs()))]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
    assert code in (0, 2, 3), argv
    doc = json.loads(out.getvalue())
    assert (code == 0) == ("error" not in doc), doc
    if code:
        assert isinstance(doc["witness"], dict) and doc["error"].isidentifier()


# valid JSON of any shape: scalars, huge ints and floats at the top, nesting
# below; and schema-shaped documents with these where ints belong. Keys of at
# most three characters are never "group", "kind", "degree" or "cells".
HUGE = st.one_of(st.integers(2**63, 10**4000), st.integers(-(10**4000), -(2**63)))
NOT_INT = st.one_of(
    st.booleans(), st.none(), st.floats(allow_nan=False, allow_infinity=False), HUGE, st.text()
)
ANY_JSON = st.recursive(
    st.one_of(NOT_INT, SMALL, st.integers()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=3), inner, max_size=4)
    ),
    max_leaves=12,
)
ANY_ROWS = st.one_of(
    st.lists(st.lists(st.one_of(SMALL, SMALL, NOT_INT, ANY_JSON), max_size=4), max_size=4),
    ANY_JSON,
)


def any_action_docs():
    """Never a valid action: a table action's degree and a permutation group's
    degree are never an int of a possible size, and an evaluation action needs
    a permutation group."""
    group = st.one_of(
        st.fixed_dictionaries({"kind": st.just("table"), "mul": ANY_ROWS}),
        st.fixed_dictionaries(
            {"kind": st.just("permutation"), "degree": NOT_INT, "generators": ANY_ROWS}
        ),
        ANY_JSON,
    )
    shaped = st.fixed_dictionaries(
        {"group": group, "act": ANY_ROWS, "degree": NOT_INT},
        optional={"kind": st.one_of(st.just("evaluation"), ANY_JSON)},
    )
    return st.one_of(shaped, ANY_JSON)


def any_partition_docs():
    shaped = st.fixed_dictionaries({"degree": NOT_INT, "cells": ANY_ROWS})
    return st.one_of(shaped, ANY_JSON)


def any_function_docs():
    pairs = st.lists(st.one_of(st.lists(st.text(max_size=3), min_size=2, max_size=2), ANY_JSON))
    return st.one_of(st.fixed_dictionaries({"values": pairs}), ANY_JSON)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(COMMANDS)), st.data())
def test_json_of_any_shape_exits_2_or_3_with_a_json_report(command, data):
    with tempfile.TemporaryDirectory() as tmp:

        def saved(strategy):
            path = os.path.join(tmp, f"doc{len(os.listdir(tmp))}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data.draw(strategy), fh, allow_nan=False)
            return path

        docs = any_partition_docs() if command == "from-partition" else any_action_docs()
        argv = [command, "--input", saved(docs)]
        if command == "equivalence":
            argv += ["--input", saved(any_action_docs())]
        if command == "reciprocity":
            argv.append("--subset=0")
        for _ in range(COMMANDS[command]):
            argv += ["--function", saved(any_function_docs())]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (2, 3), argv
    assert err.getvalue() == ""
    doc = json.loads(out.getvalue())
    assert set(doc) == {"error", "message", "witness"}, doc
    assert isinstance(doc["witness"], dict) and doc["error"].isidentifier()


# ---------------------------------------------------------------------------
# the contract holds for any argv

ARGV_COMMANDS = [name.split() for name in _COMMANDS if name != "corpus build"]
ARGV_COMMANDS += [["corpus"], ["bogus"], []]
ARGV_FLAGS = sorted({key for *_, flags in _COMMANDS.values() for key in flags if key[0] == "-"})
ARGV_FLAGS.remove("--output")  # drawn only as --output=REPORT, a scratch file
ARGV_FLAGS += ["--bogus", "--inp", "--sub", "-i", "--"]
ARGV_ACTIONS = [
    inp(name)
    for name in ("z2_four.json", "s3_conj.json", "s3_eval.json", "bad_assoc_action.json")
]
ARGV_VALUES = ARGV_ACTIONS + [
    inp(name)
    for name in ("partition.json", "f_delta.json", "f_on_y.json", "g_inv.json", "not_json.json")
]
ARGV_VALUES += ["missing.json", "0,1", "2", "-1", "1,x", "", "0", "x", "n=3", "--"]
ARGV_FLAG = st.sampled_from(ARGV_FLAGS)
ARGV_VALUE = st.sampled_from(ARGV_VALUES)
ARGV_PAIR = st.tuples(ARGV_FLAG, ARGV_VALUE).map(list)
# one or two tokens at a time, so that flags often meet a value
ARGV_PIECES = st.one_of(
    ARGV_PAIR,
    ARGV_PAIR,
    ARGV_PAIR,
    st.builds("{}={}".format, ARGV_FLAG, ARGV_VALUE).map(lambda token: [token]),
    ARGV_FLAG.map(lambda token: [token]),
    ARGV_VALUE.map(lambda token: [token]),
    st.sampled_from([["-h"], ["--help"], ["--output=REPORT"]]),
)
# an action first, half the time, so that some draws get to run
ARGV_INPUT = st.one_of(
    st.just([]), st.sampled_from(ARGV_ACTIONS).map(lambda path: ["--input", path])
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ARGV_COMMANDS), ARGV_INPUT, st.lists(ARGV_PIECES, max_size=4))
def test_any_argv_exits_0_2_or_3_with_one_json_report(command, first, pieces):
    """No corpus build is drawn, and --output only names a scratch file."""
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.json"
        tokens = first + [token for piece in pieces for token in piece]
        argv = command + [token.replace("REPORT", str(report)) for token in tokens]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        text = out.getvalue() + (report.read_text() if report.exists() else "")
    assert code in (0, 2, 3), argv
    doc = json.loads(text)
    assert (code == 0) == ("error" not in doc), doc
    if code:
        assert isinstance(doc["witness"], dict) and doc["error"].isidentifier()


# ---------------------------------------------------------------------------
# the contract holds for corpus builds too

SMALL_GROUPS = ["c1", "c2", "c3", "c4", "c5", "c6", "s1", "s2", "s3", "s4", "s5"]
SMALL_GROUPS += ["a4", "d4", "q8", "dic3", "v4", "c2xc3"]
CORPUS_VALUES = st.one_of(
    st.integers(-1, 5).map(str),
    st.sampled_from(["true", "false"]),
    st.lists(st.integers(-1, 5), max_size=3).map(lambda seeds: ",".join(map(str, seeds)) + ","),
    st.sampled_from(SMALL_GROUPS),
    st.sampled_from(["c6000", "c80xc80", "s4xs4xs4"]),  # past the corpus limit
    st.sampled_from(["", "x", "s", "c0", "q8x"]),
    st.sampled_from(["--1", "1,--2", "²", "s²", "c³"]),  # str.isdigit passes them, int refuses
)
CORPUS_PARAMS = st.one_of(
    st.builds(
        "{}={}".format,
        st.sampled_from(["n", "q", "p", "group", "base", "seeds", "allow_large", "bogus"]),
        CORPUS_VALUES,
    ),
    st.sampled_from(["", "n", "=3"]),
)


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(corpus_names() + ["nope"]),
    st.lists(CORPUS_PARAMS, max_size=3),
)
def test_corpus_build_exits_0_2_or_3_with_a_json_report(name, params):
    argv = ["corpus", "build", name]
    for param in params:
        argv += ["--param", param]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in (0, 2, 3), argv
    doc = json.loads(out.getvalue())
    assert (code == 0) == ("error" not in doc), doc
    if code:
        assert isinstance(doc["witness"], dict) and doc["error"].isidentifier()
