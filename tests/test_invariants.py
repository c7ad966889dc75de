"""Identity checks are explicit raises: they survive ``python -O`` and reach
the CLI as an exit-2 report carrying both sides."""

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from orbitspace.actions import GroupAction, Partition
from orbitspace.cli import main
from orbitspace.errors import InvariantViolated
from orbitspace.scalars import GaussianRational

SRC = Path(__file__).resolve().parent.parent / "src"
INPUTS = Path(__file__).parent / "golden" / "inputs"


def test_library_has_no_assert_statements():
    found = []
    for path in sorted((SRC / "orbitspace").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert found == []


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names_read(tree):
    """Every name the module reads, counting names inside quoted annotations."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _names_read(ast.parse(node.value, mode="eval"))
    return names


def test_library_imports_are_all_used():
    unused = []
    for path in sorted((SRC / "orbitspace").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = _names_read(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in bound if name not in read]
    assert unused == []


def test_index_check_survives_python_O():
    # With an assert, -O would let index() return 4 // 3 = 1.
    code = (
        "from orbitspace.errors import InvariantViolated\n"
        "from orbitspace import Subgroup, cyclic_group\n"
        "try:\n"
        "    print(Subgroup(cyclic_group(4), [0, 1, 2]).index())\n"
        "except InvariantViolated as exc:\n"
        "    print(exc.witness)\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "{'lhs': 4, 'rhs': 3, 'order': 3}\n"


def test_witness_sides_are_json_data():
    exc = InvariantViolated("m", Fraction(1, 2), GaussianRational(Fraction(1, 3), 2), point=0)
    assert exc.witness == {"lhs": "1/2", "rhs": ["1/3", "2"], "point": 0}
    exc = InvariantViolated("m", ((0, 1), (2,)), None)
    assert exc.witness == {"lhs": [[0, 1], [2]], "rhs": None}


def test_violated_identity_exits_2_with_both_sides(monkeypatch, capsys):
    # A broken orbit scan (all singletons) makes the fixed-point average 3
    # disagree with the orbit count 6 on S3 acting on itself by conjugation.
    def singletons(self, subgroup=None):
        return Partition(self.degree, [[x] for x in range(self.degree)])

    monkeypatch.setattr(GroupAction, "orbits", singletons)
    code = main(["dimension", "--input", str(INPUTS / "s3_conj.json")])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "InvariantViolated"
    assert doc["witness"] == {"lhs": 3, "rhs": 6}
