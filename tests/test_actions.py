"""Actions: orbits, stabilizers, dimension counts, freeness, equivalence."""

import contextlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    are_equivalent_oracle,
    compatibility_oracle,
    conjugation_oracle,
    coset_oracle,
    coset_unions,
    disjoint_union,
    first_bad_row_entry_oracle,
    fixed_point_total_oracle,
    mul_table_oracle,
    orbit_cells_oracle,
    permutation_groups,
    relabel,
    trusted_rows_checked,
)
from orbitspace import (
    conjugation_action,
    coset_action,
    cyclic_group,
    direct_product,
    tables,
    translation_action,
    trivial_action,
)
from orbitspace.actions import GroupAction, Partition, are_equivalent, validate_action
from orbitspace.errors import (
    CompatibilityViolated,
    GroupMismatch,
    IdentityAxiomViolated,
    NotAnInteger,
    NotFree,
)
from orbitspace.corpus import group_by_name
from orbitspace.groups import (
    Subgroup,
    compose,
    from_generators,
    group_from_table,
    whole_group,
)


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        self.parent[self.find(x)] = self.find(y)


def orbit_count_oracle(action, members=None):
    """Independent orbit counter via union-find over the action table."""
    if members is None:
        members = range(action.group.order)
    uf = UnionFind(action.degree)
    for a in members:
        for x in range(action.degree):
            uf.union(x, action.act[a][x])
    return len({uf.find(x) for x in range(action.degree)})


def s3():
    return from_generators(3, [(1, 0, 2), (1, 2, 0)])


def s3_conjugation():
    group, _ = s3()
    return conjugation_action(group)


def z4_translation():
    return translation_action(cyclic_group(4))


def test_partition_validation():
    p = Partition(4, [[2, 3], [0], [1]])
    assert p.cells == ((0,), (1,), (2, 3))
    assert p.cell_of == (0, 1, 2, 2)
    with pytest.raises(ValueError):
        Partition(3, [[0, 1]])
    with pytest.raises(ValueError):
        Partition(3, [[0, 1], [1, 2]])
    with pytest.raises(ValueError):
        Partition(3, [[0, 1, 2], []])


def test_validate_trivial_action():
    g = cyclic_group(3)
    act = validate_action(g, [[0, 1], [0, 1], [0, 1]])
    assert act.is_trivial()


def test_validate_rejects_empty_point_set():
    with pytest.raises(IdentityAxiomViolated):
        GroupAction(cyclic_group(2), [[], []])


@pytest.mark.parametrize("degree", [0, -2])
def test_a_trivial_action_on_no_points_is_refused(degree):
    with pytest.raises(IdentityAxiomViolated) as exc:
        trivial_action(cyclic_group(3), degree)
    assert str(exc.value) == "point set must be nonempty"
    assert exc.value.witness == {"degree": 0}


def test_trivial_action_shares_one_identity_row():
    action = trivial_action(cyclic_group(4), 3)
    assert action.act == ((0, 1, 2),) * 4 and action.degree == 3
    assert len({id(row) for row in action.act}) == 1
    assert action == GroupAction(cyclic_group(4), [[0, 1, 2]] * 4)


def test_validate_rejects_identity_violation():
    g = cyclic_group(2)
    with pytest.raises(IdentityAxiomViolated) as exc:
        GroupAction(g, [[1, 0], [0, 1]])
    assert exc.value.witness["point"] == 0


@pytest.mark.parametrize(
    "identity_row, first", [([0, 2, 1, 4, 3], 1), ([4, 1, 2, 3, 0], 0), ([0, 1, 3, 4, 2], 2)]
)
def test_an_identity_row_moving_several_points_names_the_first(identity_row, first):
    """The identity here is element 1 of a Cayley table, not element 0."""
    from orbitspace.jsonio import action_from_json

    mul = [[1, 0], [0, 1]]
    g = group_from_table(mul)
    assert g.identity == 1
    act = [[1, 0, 2, 3, 4], identity_row]
    with pytest.raises(IdentityAxiomViolated) as exc:
        GroupAction(g, act)
    assert exc.value.witness == {"point": first}
    with pytest.raises(IdentityAxiomViolated) as exc:
        action_from_json({"group": {"kind": "table", "mul": mul}, "act": act})
    assert exc.value.witness == {"point": first}


def test_validate_rejects_non_bijective_row():
    g = cyclic_group(2)
    with pytest.raises(CompatibilityViolated) as exc:
        GroupAction(g, [[0, 1], [0, 0]])
    assert exc.value.witness == {"a": 1, "point": 1, "value": 0}


def test_the_first_bad_row_is_named_even_when_a_later_row_has_junk():
    # row 1 repeats an image, row 2 holds a float: rows are read in order
    table = [[0, 1, 2], [1, 1, 0], [2.0, 0, 1]]
    assert first_bad_row_entry_oracle(table, 3) == (1, 1, 1, True)
    with pytest.raises(CompatibilityViolated) as exc:
        GroupAction(cyclic_group(3), table)
    assert exc.value.witness == {"a": 1, "point": 1, "value": 1}


@pytest.mark.parametrize(
    "row",
    [[1.9, 0.2], [1.0, 0], [True, 0], ["1", 0]],
    ids=["float", "integral_float", "bool", "numeric_string"],
)
def test_action_entries_must_be_ints(row):
    # converting would read [[0, 1], [1.9, 0.2]] as [[0, 1], [1, 0]]
    with pytest.raises(CompatibilityViolated) as exc:
        validate_action(cyclic_group(2), [[0, 1], row])
    w = exc.value.witness
    assert (w["a"], w["point"], w["value"]) == (1, 0, row[0])
    assert type(w["value"]) is type(row[0])


@pytest.mark.parametrize("bad", [5, -1])
def test_out_of_range_action_entry_names_row_and_point(bad):
    g = cyclic_group(3)
    with pytest.raises(CompatibilityViolated) as exc:
        GroupAction(g, [[0, 1], [1, 0], [0, bad]])
    w = exc.value.witness
    assert (w["a"], w["point"], w["value"]) == (2, 1, bad)


def test_short_identity_row_is_a_row_length_error():
    # element 1 is the identity of this table, and its row is shorter than row 0
    g = group_from_table([[1, 0], [0, 1]])
    assert g.identity == 1
    with pytest.raises(CompatibilityViolated) as exc:
        GroupAction(g, [[1, 0, 2], [0, 1]])
    assert exc.value.witness == {"a": 1}


def test_validate_rejects_incompatible_rows():
    # rows are permutations and identity is fine, but act[1]^2 != act[0]
    g = cyclic_group(2)
    with pytest.raises(CompatibilityViolated) as exc:
        validate_action(g, [[0, 1, 2], [1, 2, 0]])
    w = exc.value.witness
    assert {"a", "b", "point"} <= set(w)


def test_s3_conjugation_is_valid_and_matches_oracle():
    group, _ = s3()
    # direct construction from the Cayley table, then full validation
    table = [
        [group.mul(group.mul(a, x), group.inv(a)) for x in range(group.order)]
        for a in range(group.order)
    ]
    action = validate_action(group, table)
    assert action == conjugation_action(group)


# ---------------------------------------------------------------------------
# compatibility on generators against the full loop


def compatibility_violation(group, act):
    """The full O(m^2 n) loop: the first (a, b, x) with act[ab][x] != act[a][act[b][x]]."""
    mul = group.mul_table
    for a in range(group.order):
        for b in range(group.order):
            for x in range(len(act[0])):
                if act[mul[a][b]][x] != act[a][act[b][x]]:
                    return a, b, x
    return None


# C4 records the generator 1, V4 those of its factors, S3 those of its
# closure, Q8 the greedy set of its table check.
ACTION_GROUPS = {name: group_by_name(name) for name in ("c4", "s3", "q8", "v4")}


def actions_of(group):
    return [
        translation_action(group),
        conjugation_action(group),
        coset_action(group, group.subgroup_generated([1])),
    ]


@st.composite
def mutated_action_tables(draw):
    """A valid action table with one non-identity row changed (two entries
    swapped, or the row replaced by another row), or with the rows of one
    coset c<s> != <s> all composed with one permutation pi. The twisted
    table still satisfies act[as] = act[a] o act[s] for every a, so only a
    check on the other generators can catch it. Rows stay permutations."""
    group = ACTION_GROUPS[draw(st.sampled_from(sorted(ACTION_GROUPS)))]
    action = draw(st.sampled_from(actions_of(group)))
    rows = [list(row) for row in action.act]
    a = draw(st.sampled_from([a for a in group.elements() if a != group.identity]))
    kind = draw(st.sampled_from(["swap", "replace", "twist"]))
    if kind == "swap":
        x = draw(st.integers(0, action.degree - 1))
        y = draw(st.integers(0, action.degree - 1))
        rows[a][x], rows[a][y] = rows[a][y], rows[a][x]
    elif kind == "replace":
        rows[a] = list(rows[draw(st.integers(0, group.order - 1))])
    else:
        h = group.subgroup_generated([a])
        outside = [c for c in group.elements() if c not in h]
        if outside:
            c = draw(st.sampled_from(outside))
            pi = draw(st.permutations(range(action.degree)))
            for b in h:
                cb = group.mul(c, b)
                rows[cb] = [pi[y] for y in rows[cb]]
    return group, rows


@settings(max_examples=200, deadline=None)
@given(mutated_action_tables())
def test_generator_compatibility_agrees_with_the_full_loop(case):
    group, rows = case
    violation = compatibility_violation(group, rows)
    try:
        validate_action(group, rows)
    except CompatibilityViolated as exc:
        assert violation is not None
        a, b, x = exc.witness["a"], exc.witness["b"], exc.witness["point"]
        assert rows[group.mul(a, b)][x] != rows[a][rows[b][x]]
        assert (a, b, x) == compatibility_oracle(group, rows, group.generators)
    else:
        assert violation is None


@st.composite
def bad_action_tables(draw):
    """A valid action table with one or two changes: an entry set to another
    point or to junk (1.0, True, "1", -1 or the degree), or a row other than
    the first cut short, so that the degree stays that of the first row."""
    group = ACTION_GROUPS[draw(st.sampled_from(sorted(ACTION_GROUPS)))]
    action = draw(st.sampled_from(actions_of(group)))
    rows = [list(row) for row in action.act]
    n = action.degree
    for _ in range(draw(st.integers(1, 2))):
        a = draw(st.integers(0, group.order - 1))
        row = rows[a]
        if not row:
            continue
        x = draw(st.integers(0, len(row) - 1))
        if a and draw(st.booleans()):
            del row[x:]
        else:
            row[x] = draw(st.integers(0, n - 1) | st.sampled_from([1.0, True, "1", -1, n]))
    return group, rows


@settings(max_examples=300, deadline=None)
@given(bad_action_tables())
def test_action_rows_are_reported_at_their_first_bad_entry(case):
    group, rows = case
    bad = first_bad_row_entry_oracle(rows, len(rows[0]))
    if bad is None:
        # rows that stay permutations may still move a point under the identity
        with contextlib.suppress(IdentityAxiomViolated):
            GroupAction(group, rows)
        return
    with pytest.raises(CompatibilityViolated) as exc:
        GroupAction(group, rows)
    a, x, value, _ = bad
    if x is None:
        assert exc.value.witness == {"a": a}
    else:
        assert exc.value.witness == {"a": a, "point": x, "value": value}
        assert type(exc.value.witness["value"]) is type(value)


def test_s5_compatibility_composes_rows_once_per_element_and_generator(monkeypatch):
    group = group_by_name("s5")
    table = conjugation_action(group).act
    group.mul_table  # built first, so that products are table reads
    calls = [0]

    def counted(p, q):
        calls[0] += 1
        return compose(p, q)

    monkeypatch.setattr(tables, "compose", counted)
    validate_action(group, table)
    assert group.order <= calls[0] <= group.order * len(group.generators)


def test_conjugation_orbit_structure():
    act = s3_conjugation()
    part = act.orbits()
    assert [len(c) for c in part.cells] == [1, 3, 2]
    assert part.cells[0] == (act.group.identity,)
    # abelian: conjugation is trivial
    assert conjugation_action(cyclic_group(2)).is_trivial()


def test_conjugation_orbit_of_transposition():
    act = s3_conjugation()
    group = act.group
    transpositions = sorted(
        a for a in range(group.order) if group.element_order(a) == 2
    )
    assert act.orbit(transpositions[0]) == tuple(transpositions)


def test_coset_action_whole_group_is_single_point():
    group, _ = s3()
    act = coset_action(group, whole_group(group))
    assert act.degree == 1
    assert act.is_trivial()


def test_coset_action_s3_mod_a3():
    group, _ = s3()
    a3_seed = next(a for a in range(6) if group.element_order(a) == 3)
    act = coset_action(group, group.subgroup_generated([a3_seed]))
    assert act.degree == 2
    assert act.is_transitive()
    for t in range(6):
        if group.element_order(t) == 2:
            assert act.act[t] == (1, 0)


def test_coset_action_z4():
    z4 = cyclic_group(4)
    act = coset_action(z4, z4.subgroup_generated([2]))
    assert act.degree == 2
    assert act.act[1] == (1, 0)


def test_orbits_fix_stabilizer_basics():
    act = trivial_action(cyclic_group(2), 4)
    assert act.orbits().cells == ((0,), (1,), (2,), (3,))
    assert act.stabilizer(0).order == 2

    z4 = z4_translation()
    assert z4.orbit(2) == (0, 1, 2, 3)
    assert z4.fix(0) == (0, 1, 2, 3)
    assert z4.fix(1) == ()
    assert z4.stabilizer(1).members == (0,)

    conj = s3_conjugation()
    group = conj.group
    assert conj.fix(group.identity) == tuple(range(6))
    t = next(a for a in range(6) if group.element_order(a) == 2)
    assert len(conj.fix(t)) == 2  # centralizer of a transposition
    assert conj.stabilizer(t).members == (0, t)


def test_flags_on_small_actions():
    z4 = z4_translation()
    assert z4.is_free() and z4.is_transitive() and not z4.is_trivial()
    triv = trivial_action(cyclic_group(2), 3)
    assert not triv.is_free() and not triv.is_transitive() and triv.is_trivial()
    conj = s3_conjugation()
    assert not conj.is_free() and not conj.is_transitive() and not conj.is_trivial()


def test_orbit_stabilizer_identity():
    for act in (z4_translation(), s3_conjugation(), trivial_action(cyclic_group(3), 2)):
        for x in range(act.degree):
            assert len(act.orbit(x)) * act.stabilizer(x).order == act.group.order


def test_burnside_dimension_examples():
    conj = s3_conjugation()
    group = conj.group
    assert conj.burnside_dimension() == 3
    assert sum(len(conj.fix(a)) for a in range(6)) == 18

    triv_sub = group.subgroup_generated([])
    assert conj.burnside_dimension(triv_sub) == 6

    z4 = z4_translation()
    assert z4.burnside_dimension(z4.group.subgroup_generated([2])) == 2

    a3 = group.subgroup_generated(
        [next(a for a in range(6) if group.element_order(a) == 3)]
    )
    assert conj.burnside_dimension(a3) == 4


def test_burnside_matches_union_find_oracle():
    rng = random.Random(3)
    for act in (s3_conjugation(), z4_translation(), trivial_action(cyclic_group(4), 5)):
        for _ in range(10):
            seeds = rng.sample(range(act.group.order), rng.randint(0, 2))
            h = act.group.subgroup_generated(seeds)
            assert act.burnside_dimension(h) == orbit_count_oracle(act, h.members)


def test_burnside_not_an_integer_on_broken_table():
    # passes the cheap constructor checks but is not a real action
    g = cyclic_group(2)
    broken = GroupAction(g, [[0, 1, 2], [1, 2, 0]])
    with pytest.raises(NotAnInteger):
        broken.burnside_dimension()


def test_dimension_difference_examples():
    conj = s3_conjugation()
    group = conj.group
    assert conj.dimension_difference(whole_group(group)) == 0

    z4 = z4_translation()
    assert z4.dimension_difference(z4.group.subgroup_generated([2])) == 0

    a3 = group.subgroup_generated(
        [next(a for a in range(6) if group.element_order(a) == 3)]
    )
    # 6*3 - 3*4 = 6 = sum of transposition centralizer sizes 2+2+2
    assert conj.dimension_difference(a3) == 6


def test_free_ratio_examples():
    z4 = z4_translation()
    ratio, index = z4.free_ratio_check(z4.group.subgroup_generated([2]))
    assert (ratio, index) == (Fraction(2), 2)
    ratio, index = z4.free_ratio_check(whole_group(z4.group))
    assert (ratio, index) == (Fraction(1), 1)

    z6 = translation_action(cyclic_group(6))
    ratio, index = z6.free_ratio_check(z6.group.subgroup_generated([2]))
    assert ratio == 2 == index

    with pytest.raises(NotFree) as exc:
        s3_conjugation().free_ratio_check(whole_group(s3_conjugation().group))
    assert "element" in exc.value.witness


def test_are_equivalent_identity():
    act = s3_conjugation()
    assert are_equivalent(act, act) == list(range(act.degree))


def test_are_equivalent_relabeling():
    rng = random.Random(5)
    for base in (s3_conjugation(), z4_translation()):
        rho = list(range(base.degree))
        rng.shuffle(rho)
        other = relabel(base, rho)
        phi = are_equivalent(base, other)
        assert phi is not None
        for a in range(base.group.order):
            for x in range(base.degree):
                assert phi[base.act[a][x]] == other.act[a][phi[x]]


def test_are_equivalent_degree_mismatch_returns_none():
    # the one-point versus two-point evaluation sets: equal dimensions, not equivalent
    s2, nat = from_generators(2, [(1, 0)])
    one_point = trivial_action(s2, 1)
    two_point = GroupAction(s2, nat)
    assert one_point.burnside_dimension() == 1 == two_point.burnside_dimension()
    assert are_equivalent(one_point, two_point) is None


def test_are_equivalent_distinguishes_stabilizers():
    # V4 swapping {0,1} with generator a in one action, generator b in the other:
    # same orbit sizes, different stabilizers, so no equivariant bijection
    v4 = direct_product(cyclic_group(2), cyclic_group(2))
    # elements: 0=(0,0), 1=(0,1), 2=(1,0), 3=(1,1)
    act_a = GroupAction(v4, [[0, 1], [0, 1], [1, 0], [1, 0]])
    act_b = GroupAction(v4, [[0, 1], [1, 0], [0, 1], [1, 0]])
    assert are_equivalent(act_a, act_b) is None
    assert are_equivalent(act_a, act_a) is not None


def test_are_equivalent_requires_same_group():
    with pytest.raises(ValueError):
        are_equivalent(z4_translation(), trivial_action(cyclic_group(2), 4))


def test_group_mismatch_names_the_orders():
    with pytest.raises(GroupMismatch) as exc:
        are_equivalent(z4_translation(), trivial_action(cyclic_group(2), 4))
    assert exc.value.witness == {"orders": [4, 2]}
    with pytest.raises(GroupMismatch):
        coset_action(cyclic_group(4), cyclic_group(2).subgroup_generated([1]))


def test_fixed_point_total_and_free_witness():
    conj = s3_conjugation()
    # three conjugacy classes: 6 * 3 fixed points in total
    assert conj.fixed_point_total() == 18
    assert conj.burnside_dimension() == 3
    h = conj.group.subgroup_generated([1])
    assert conj.fixed_point_total(h) == h.order * orbit_count_oracle(conj, h.members)
    a, x = conj.free_witness()
    assert a != conj.group.identity and conj.act[a][x] == x
    assert z4_translation().free_witness() is None


@settings(max_examples=60, deadline=None)
@given(permutation_groups(), st.data())
def test_free_witness_is_the_first_fixing_pair_in_element_order(group, data):
    parts = data.draw(coset_unions(group))
    if data.draw(st.booleans()):  # G/1 is regular, so a union of them is free
        parts = [coset_action(group, group.subgroup_generated([]))] * len(parts)
    action = disjoint_union(parts)
    action = relabel(action, data.draw(st.permutations(range(action.degree))))
    pairs = ((a, x) for a in range(group.order) for x in range(action.degree))
    e = group.identity
    first = next(((a, x) for a, x in pairs if a != e and action.act[a][x] == x), None)
    assert action.free_witness() == first
    assert action.is_free() == (first is None)


def test_are_equivalent_backtracks_over_orbit_pairing():
    # two orbits with identical (size, stabilizer-order) signatures whose
    # correct pairing is crossed: {0,1} moved by a / {2,3} moved by b versus
    # {0,1} moved by b / {2,3} moved by a
    v4 = direct_product(cyclic_group(2), cyclic_group(2))
    # element indices: 0=(0,0), 1=(0,1)=b, 2=(1,0)=a, 3=(1,1)=ab
    act1 = GroupAction(v4, [[0, 1, 2, 3], [0, 1, 3, 2], [1, 0, 2, 3], [1, 0, 3, 2]])
    act2 = GroupAction(v4, [[0, 1, 2, 3], [1, 0, 2, 3], [0, 1, 3, 2], [1, 0, 3, 2]])
    phi = are_equivalent(act1, act2)
    assert phi is not None
    # the pairing must swap the two orbits
    assert {phi[0], phi[1]} == {2, 3}
    assert {phi[2], phi[3]} == {0, 1}


def test_equivalence_transports_invariance():
    rng = random.Random(9)
    base = s3_conjugation()
    rho = list(range(base.degree))
    rng.shuffle(rho)
    other = relabel(base, rho)
    phi = are_equivalent(base, other)
    phi_inv = [0] * len(phi)
    for x, y in enumerate(phi):
        phi_inv[y] = x
    for _ in range(10):
        seeds = rng.sample(range(base.group.order), rng.randint(0, 2))
        h = base.group.subgroup_generated(seeds)
        values = [0] * base.degree
        for cell in base.orbits(h).cells:
            v = rng.randint(-3, 3)
            for x in cell:
                values[x] = v
        transported = [values[phi_inv[y]] for y in range(base.degree)]
        # values is h-invariant on the source; the transport must be too
        for a in h.members:
            for y in range(other.degree):
                assert transported[other.act[a][y]] == transported[y]


# ---------------------------------------------------------------------------
# tables from generator rows, against the element-by-element builds


@settings(max_examples=40, deadline=None)
@given(permutation_groups())
def test_conjugation_action_matches_the_table_build(group):
    table = conjugation_action(group).act
    assert table == conjugation_oracle(mul_table_oracle(group), group.inv_table)


@settings(max_examples=40, deadline=None)
@given(permutation_groups(), st.data())
def test_coset_action_matches_the_table_build(group, data):
    seeds = data.draw(st.lists(st.integers(0, group.order - 1), max_size=2))
    h = group.subgroup_generated(seeds)
    table = coset_action(group, h).act
    assert table == coset_oracle(mul_table_oracle(group), h.members)


# ---------------------------------------------------------------------------
# orbits and equivalence from generator rows, against the element scans


@settings(max_examples=60, deadline=None)
@given(permutation_groups(), st.data())
def test_are_equivalent_matches_the_backtracking_search(group, data):
    parts = data.draw(coset_unions(group))
    a1 = disjoint_union(parts)
    kind = data.draw(st.sampled_from(["twin", "crossed", "conjugate", "other"]))
    if kind == "crossed":  # the same orbits in another order
        others = data.draw(st.permutations(parts))
    elif kind == "conjugate":  # G/H and G/gHg^-1 are isomorphic by a non-identity map
        g = data.draw(st.integers(0, group.order - 1))
        others = []
        for part in parts:
            h = part.stabilizer(0)
            conj = group.subgroup_generated([group.conjugate(g, a) for a in h.members])
            others.append(coset_action(group, conj))
        others = data.draw(st.permutations(others))
    elif kind == "other":  # usually inequivalent
        others = data.draw(coset_unions(group))
    else:
        others = parts
    a2 = disjoint_union(others)
    rho = data.draw(st.permutations(range(a2.degree)))
    a2 = relabel(a2, rho)
    phi = are_equivalent(a1, a2)
    assert phi == are_equivalent_oracle(a1, a2)
    if kind != "other":
        assert phi is not None


@settings(max_examples=60, deadline=None)
@given(permutation_groups(), st.data())
def test_orbits_match_union_find(group, data):
    action = disjoint_union(data.draw(coset_unions(group)))
    rho = data.draw(st.permutations(range(action.degree)))
    action = relabel(action, rho)
    assert action.orbits().cells == orbit_cells_oracle(action)
    assert action.orbits().cell_of == Partition(action.degree, action.orbits().cells).cell_of
    seeds = data.draw(st.lists(st.integers(0, group.order - 1), max_size=3))
    h = group.subgroup_generated(seeds)
    assert action.orbits(h).cells == orbit_cells_oracle(action, h.members)
    # a hand-built subgroup has no recorded generators and closes its members
    assert action.orbits(Subgroup(group, h.members)) == action.orbits(h)
    x = data.draw(st.integers(0, action.degree - 1))
    assert action.orbit(x) == tuple(sorted({row[x] for row in action.act}))
    assert action.is_transitive() == (len(orbit_cells_oracle(action)) == 1)
    identity_row = tuple(range(action.degree))
    assert action.is_trivial() == all(row == identity_row for row in action.act)


@settings(max_examples=80, deadline=None)
@given(permutation_groups(), st.data())
def test_fixed_point_total_by_orbits_matches_the_element_sum(group, data):
    kind = data.draw(st.sampled_from(["cosets", "trivial"]))
    if kind == "trivial":
        action = trivial_action(group, data.draw(st.integers(1, 4)))
    else:  # a union of coset actions is intransitive when it has two parts
        action = disjoint_union(data.draw(coset_unions(group)))
        action = relabel(action, data.draw(st.permutations(range(action.degree))))
    seeds = data.draw(st.lists(st.integers(0, group.order - 1), max_size=3))
    for h in (group.subgroup_generated([]), group.subgroup_generated(seeds), None):
        members = range(group.order) if h is None else h.members
        total = action.fixed_point_total(h)
        assert total == fixed_point_total_oracle(action, members)
        assert total == len(members) * len(orbit_cells_oracle(action, members))


def test_fixed_point_total_reads_no_fixed_point_set(monkeypatch):
    def no_fix(self, a):
        raise AssertionError("fix called")

    monkeypatch.setattr(GroupAction, "fix", no_fix)
    conj = s3_conjugation()
    assert conj.fixed_point_total() == 18
    assert conj.fixed_point_total(conj.group.subgroup_generated([1])) == 2 * 4
    assert conj.burnside_dimension() == 3


def test_whole_group_orbits_are_kept_on_the_action():
    act = s3_conjugation()
    assert act.orbits() is act.orbits()
    assert act.orbits(whole_group(act.group)) is act.orbits()
    assert whole_group(act.group).generators == act.group.generators
    assert act.group.subgroup_generated([3, 1, 3]).generators == (1, 3)


def test_are_equivalent_scans_one_stabilizer_per_orbit(monkeypatch):
    group, _ = from_generators(6, [(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)])
    base = conjugation_action(group)
    rho = list(range(base.degree))
    random.Random(11).shuffle(rho)
    twin = relabel(base, rho)
    expected = are_equivalent_oracle(base, twin)
    calls = []
    stabilizer = GroupAction.stabilizer

    def counted(action, x):
        calls.append(x)
        return stabilizer(action, x)

    monkeypatch.setattr(GroupAction, "stabilizer", counted)
    phi = are_equivalent(base, twin)
    assert phi == expected
    assert 0 < len(calls) <= len(base.orbits())


@pytest.mark.parametrize("bad", [True, 1.9, "1"], ids=["bool", "float", "numeric-string"])
def test_partition_refuses_non_int_points(bad):
    with pytest.raises(ValueError, match="not an int"):
        Partition(2, [[0, bad]])
    with pytest.raises(ValueError, match="not an int"):
        Partition(2, [[bad, 0]])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_trusted_rows_from_random_generators_pass_the_row_scan(data):
    from orbitspace.jsonio import action_from_json

    degree = data.draw(st.integers(1, 6))
    gens = data.draw(st.lists(st.permutations(range(degree)), max_size=3))
    group_doc = {"kind": "permutation", "degree": degree, "generators": gens}
    with trusted_rows_checked() as seen:
        action = action_from_json({"kind": "evaluation", "group": group_doc})
        group = action.group
        if data.draw(st.booleans()):  # _extend_rows over a table-form group as well
            group = group_from_table(group.mul_table)
        conjugation_action(group)
        seeds = data.draw(st.lists(st.integers(0, group.order - 1), max_size=2))
        coset_action(group, group.subgroup_generated(seeds))
        translation_action(group)
        trivial_action(group, data.draw(st.integers(1, 4)))
    assert len(seen) == 5
    assert action.act == action.group.perms


def test_trusted_rows_of_every_corpus_family_pass_the_row_scan():
    from orbitspace.corpus import build, corpus_names

    reached = set()
    for name in corpus_names():
        with trusted_rows_checked() as seen:
            build(name)
        if seen:
            reached.add(name)
    assert reached == set(corpus_names())
    for name, params in [
        ("conjugation", {"group": "q8"}),
        ("coset", {"group": "dic3", "seeds": [2]}),
        ("sylow", {"group": "s4", "p": 3}),
        ("order_p", {"group": "a4", "p": 3}),
        ("subset_action", {"base": "a4"}),
        ("symmetric", {"n": 5}),
        ("cyclic_translation", {"n": 12}),
        ("gl_on_vectors", {"q": 3}),
        ("trivial", {"n": 5, "group": "a4"}),
        ("two_sided", {"group": "q8"}),
    ]:
        with trusted_rows_checked() as seen:
            build(name, **params)
        assert seen, name
