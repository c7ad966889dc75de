"""Differential tests against sympy.combinatorics, an independent permutation
group library (used by the tests only)."""

import json
import random

import pytest

combinatorics = pytest.importorskip("sympy.combinatorics")
Permutation = combinatorics.Permutation
PermutationGroup = combinatorics.PermutationGroup

from orbitspace.actions import GroupAction  # noqa: E402
from orbitspace.cli import main  # noqa: E402
from orbitspace.corpus import group_by_name  # noqa: E402
from orbitspace.groups import from_generators  # noqa: E402


def sympy_group(degree, perms):
    return PermutationGroup([Permutation(list(range(degree)))] + [Permutation(list(p)) for p in perms])


def rand_perm(rng, degree):
    images = list(range(degree))
    rng.shuffle(images)
    return tuple(images)


def test_from_generators_order_matches_sympy():
    rng = random.Random(53)
    for _ in range(30):
        degree = rng.randint(1, 6)
        gens = [rand_perm(rng, degree) for _ in range(rng.randint(0, 3))]
        group, _ = from_generators(degree, gens)
        assert group.order == sympy_group(degree, gens).order(), (degree, gens)


def test_subgroup_generated_order_matches_sympy():
    rng = random.Random(59)
    group, perms = from_generators(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])
    for _ in range(40):
        seeds = rng.sample(range(group.order), rng.randint(0, 3))
        ours = group.subgroup_generated(seeds)
        theirs = sympy_group(5, [perms[a] for a in seeds])
        assert ours.order == theirs.order(), seeds


def test_orbits_and_stabilizer_orders_match_sympy():
    rng = random.Random(61)
    for _ in range(40):
        degree = rng.randint(1, 7)
        gens = [rand_perm(rng, degree) for _ in range(rng.randint(0, 3))]
        action = GroupAction(*from_generators(degree, gens))
        theirs = sympy_group(degree, gens)
        cells = sorted(tuple(sorted(orbit)) for orbit in theirs.orbits())
        assert list(action.orbits().cells) == cells, (degree, gens)
        for x in range(degree):
            assert action.stabilizer(x).order == theirs.stabilizer(x).order(), (gens, x)


def test_cli_orbits_of_permutation_documents_match_sympy(tmp_path, capsys):
    rng = random.Random(67)
    path = tmp_path / "action.json"
    for _ in range(10):
        degree = rng.randint(2, 8)
        gens = [rand_perm(rng, degree) for _ in range(rng.randint(1, 2))]
        group = {"kind": "permutation", "degree": degree, "generators": [list(g) for g in gens]}
        path.write_text(json.dumps({"kind": "evaluation", "group": group}))
        assert main(["orbits", "--input", str(path)]) == 0
        cells = json.loads(capsys.readouterr().out)["cells"]
        theirs = sorted(sorted(orbit) for orbit in sympy_group(degree, gens).orbits())
        assert cells == theirs, (degree, gens)


def sylow_count(group, p):
    """The number of conjugates of one sympy Sylow p-subgroup, in the left
    regular representation of the group's Cayley table."""
    regular = [Permutation(list(row)) for row in group.mul_table]
    whole = PermutationGroup(regular)
    sylow = set(whole.sylow_subgroup(p).elements)
    return len({frozenset(g * x * ~g for x in sylow) for g in regular})


@pytest.mark.parametrize(
    "name, p", [("s4", 2), ("s4", 3), ("d4", 2), ("a4", 2), ("a4", 3), ("dic3", 2), ("dic3", 3)]
)
def test_corpus_sylow_degree_matches_sympy(name, p, capsys):
    code = main(["corpus", "build", "sylow", "--param", f"group={name}", "--param", f"p={p}"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["degree"] == sylow_count(group_by_name(name), p)
