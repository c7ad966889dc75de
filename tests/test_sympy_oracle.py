"""Differential tests against sympy.combinatorics, an independent permutation
group library (used by the tests only)."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

combinatorics = pytest.importorskip("sympy.combinatorics")
Permutation = combinatorics.Permutation
PermutationGroup = combinatorics.PermutationGroup

from orbitspace.actions import GroupAction  # noqa: E402
from helpers import fixed_point_total_oracle  # noqa: E402
from orbitspace.cli import main  # noqa: E402
from orbitspace.corpus import _conjugates, _sylow_subgroup, build  # noqa: E402
from orbitspace.corpus import group_by_name, small_group_catalog  # noqa: E402
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


def sympy_sylow_sets(group, p):
    """Every Sylow p-subgroup as a set of element indices: the conjugates of
    one sympy Sylow p-subgroup, read through the permutations that back the
    elements. Those are the regular representation for a group built from
    its Cayley table; for S_n and A_n they are the n-point ones, as sympy
    takes 8-11 s per prime on S5's 120-point regular representation."""
    perms = [Permutation(list(perm)) for perm in group.perms]
    whole = PermutationGroup([perms[s] for s in group.generators])
    sylow = whole.sylow_subgroup(p).elements
    return {frozenset(group.index[tuple((g * x * ~g).array_form)] for x in sylow) for g in perms}


@pytest.mark.parametrize("name", [name for name, _ in small_group_catalog()] + ["s5", "a5", "s6", "a6"])
def test_the_sylow_family_is_every_sylow_subgroup_sympy_finds(name):
    group = group_by_name(name)
    for p in [p for p in (2, 3, 5, 7, 11) if group.order % p == 0]:
        grown = _sylow_subgroup(group, p)
        assert len(grown) == p ** max(k for k in range(12) if group.order % p**k == 0)
        assert group.subgroup_generated(grown).members == grown
        ours = _conjugates(group, grown)
        assert set(map(frozenset, ours)) == sympy_sylow_sets(group, p)
        assert len(set(ours)) == len(ours) and ours == sorted(ours)
        assert build("sylow", group=name, p=p).action.degree == len(ours)


# D2520, order 5040 on 2520 points: a dihedral group at the corpus order limit
D2520 = 2520
D2520_GENS = [[(i + 1) % D2520 for i in range(D2520)], [(-i) % D2520 for i in range(D2520)]]
SRC = Path(__file__).resolve().parent.parent / "src"

# Runs CLI orbits and dimension, each in its own child, and reports their
# largest peak RSS. RUSAGE_CHILDREN of this fresh process counts only those
# two, not what pytest ran before.
RSS_WRAPPER = """
import json, resource, subprocess, sys
reports = {
    command: json.loads(subprocess.run(
        [sys.executable, "-m", "orbitspace", command, "--input", sys.argv[1]],
        capture_output=True, check=True,
    ).stdout)
    for command in ("orbits", "dimension")
}
peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(json.dumps({"reports": reports, "peak_mb": peak_kb / 1024}))
"""


@pytest.fixture(scope="module")
def d2520_cli(tmp_path_factory):
    path = tmp_path_factory.mktemp("d2520") / "d2520.json"
    group = {"kind": "permutation", "degree": D2520, "generators": D2520_GENS}
    path.write_text(json.dumps({"kind": "evaluation", "group": group}))
    out = subprocess.run(
        [sys.executable, "-c", RSS_WRAPPER, str(path)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        check=True,
    ).stdout
    return json.loads(out)


def test_d2520_order_orbits_burnside_and_stabilizer_match_sympy(d2520_cli):
    theirs = sympy_group(D2520, D2520_GENS)
    order = theirs.order()
    # Schreier-Sims with base point 0 yields the stabilizer of 0 as its next
    # basic stabilizer, without a second closure over the Schreier generators
    assert theirs.base[0] == 0
    stabilizer_order = theirs.basic_stabilizers[1].order()
    cells = sorted(sorted(orbit) for orbit in theirs.orbits())
    orbits, dimension = d2520_cli["reports"]["orbits"], d2520_cli["reports"]["dimension"]
    assert dimension["group_order"] == order == 2 * D2520
    assert orbits["cells"] == cells
    # Cauchy-Frobenius: the fixed points summed over G are |G| per orbit
    assert dimension["burnside_sum"] == order * len(cells)
    action = GroupAction(*from_generators(D2520, D2520_GENS))
    assert action.stabilizer(0).order == stabilizer_order == 2


def test_d2520_cli_orbits_and_dimension_peak_below_150_mb(d2520_cli):
    assert d2520_cli["peak_mb"] < 150, d2520_cli["peak_mb"]


def test_the_d2520_evaluation_document_scans_only_its_two_generator_rows(monkeypatch):
    from orbitspace import groups
    from orbitspace.jsonio import action_from_json

    scanned = []
    are_permutations = groups._are_permutations

    def counted(rows, n):
        scanned.extend(rows)
        return are_permutations(rows, n)

    monkeypatch.setattr(groups, "_are_permutations", counted)
    group = {"kind": "permutation", "degree": D2520, "generators": D2520_GENS}
    action = action_from_json({"kind": "evaluation", "group": group})
    assert action.group.order == 2 * D2520
    assert [list(row) for row in scanned] == D2520_GENS


def test_d2520_rotation_subgroup_burnside_sum_matches_sympy_and_the_element_sum():
    action = GroupAction(*from_generators(D2520, D2520_GENS))
    rotation = action.group.index[tuple(D2520_GENS[0])]
    h = action.group.subgroup_generated([rotation])
    # a cyclic group's order and orbits are its generator's order and cycles
    theirs = Permutation(D2520_GENS[0])
    assert h.order == theirs.order() == D2520
    assert len(action.orbits(h)) == len(theirs.full_cyclic_form) == 1
    assert action.fixed_point_total(h) == fixed_point_total_oracle(action, h.members) == D2520
    whole = range(action.group.order)
    assert action.fixed_point_total() == fixed_point_total_oracle(action, whole) == 2 * D2520
