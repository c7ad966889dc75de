"""Group construction and validation against small independent oracles."""

import contextlib
import hashlib
import json
import random
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    direct_product_oracle,
    first_bad_row_entry_oracle,
    greedy_generators_oracle,
    is_automorphism_oracle,
    latin_oracle,
    light_test_oracle,
    mul_table_oracle,
    permutation_groups,
)
from orbitspace import automorphism_group, corpus, cyclic_group, direct_product, groups, tables
from orbitspace.actions import Partition, validate_action
from orbitspace.cli import main
from orbitspace.corpus import group_by_name, small_group_catalog
from orbitspace.errors import (
    InvariantViolated,
    NoIdentity,
    NoInverse,
    NotAPermutation,
    NotAssociative,
    NotLatinSquare,
    ParseError,
    SizeLimitExceeded,
)
from orbitspace.groups import (
    FiniteGroup,
    compose,
    cycle_string,
    from_generators,
    group_from_table,
    invert_perm,
    whole_group,
)
from orbitspace.scalars import GaussianRational


def closure_oracle(degree, gens):
    """Reference closure: repeated composition until stable, order-free."""
    elems = {tuple(range(degree))}
    gens = [tuple(g) for g in gens]
    while True:
        new = {compose(p, g) for p in elems for g in gens} | elems
        if new == elems:
            return elems
        elems = new


S3_GENS = [(1, 0, 2), (1, 2, 0)]
# the report of ``corpus build gl_on_vectors --param q=3``
GL_Q3_SHA256 = "ab42d7c6b0cd727afeb316d0cdeda56e4d237726ed82edbc25f1a4cbf2ba7737"


def s3():
    return from_generators(3, S3_GENS)


def test_from_generators_s3_is_all_six_permutations():
    group, act = s3()
    assert group.order == 6
    assert set(map(tuple, act)) == set(permutations(range(3)))
    assert set(map(tuple, act)) == closure_oracle(3, S3_GENS)


def test_from_generators_empty_is_trivial():
    group, act = from_generators(4, [])
    assert group.order == 1
    assert act == ((0, 1, 2, 3),)


def test_from_generators_four_cycle():
    cyc = (1, 2, 3, 0)
    group, act = from_generators(4, [cyc])
    powers = {tuple(range(4))}
    p = cyc
    while p not in powers:
        powers.add(p)
        p = compose(p, cyc)
    assert set(map(tuple, act)) == powers
    assert group.order == 4
    assert group.element_order(1) == 4


def test_from_generators_rejects_non_permutation():
    with pytest.raises(NotAPermutation) as exc:
        from_generators(3, [(0, 0, 1)])
    assert exc.value.witness["image"] == 0


def test_from_generators_cap():
    with pytest.raises(SizeLimitExceeded) as exc:
        from_generators(3, S3_GENS, cap=3)
    assert exc.value.witness["cap"] == 3


def test_from_generators_cap_witness_is_one_past_the_cap():
    for cap in (1, 3, 5):
        with pytest.raises(SizeLimitExceeded) as exc:
            from_generators(3, S3_GENS, cap=cap)
        assert exc.value.witness == {"cap": cap, "reached": cap + 1}
    group, _ = from_generators(3, S3_GENS, cap=6)
    assert group.order == 6


@pytest.mark.parametrize(
    "image", [1.9, 1.0, True, "1"], ids=["float", "integral_float", "bool", "numeric_string"]
)
def test_permutation_images_must_be_ints(image):
    with pytest.raises(NotAPermutation) as exc:
        groups.check_permutation([0, image, 2], 3)
    assert exc.value.witness == {"position": 1, "image": image}
    with pytest.raises(NotAPermutation):
        from_generators(3, [(image, 0, 2)])


IMAGES = st.lists(st.one_of(st.integers(-1, 4), st.sampled_from([1.0, True, "1"])), max_size=5)


@settings(max_examples=200, deadline=None)
@given(IMAGES, st.integers(0, 4))
def test_check_permutation_names_the_first_bad_image(images, degree):
    bad = first_bad_row_entry_oracle([images], degree)
    if bad is None:
        assert groups.check_permutation(images, degree) == tuple(images)
        return
    with pytest.raises(NotAPermutation) as exc:
        groups.check_permutation(images, degree)
    _, pos, value, _ = bad
    if pos is None:
        assert exc.value.witness == {"degree": degree, "length": value}
    else:
        assert exc.value.witness == {"position": pos, "image": value}
        assert type(exc.value.witness["image"]) is type(value)


def test_check_permutation_reports_a_repeat_before_a_later_bad_image():
    with pytest.raises(NotAPermutation) as exc:
        groups.check_permutation([0, 0, 5], 3)
    assert exc.value.witness == {"position": 1, "image": 0}
    assert str(exc.value) == "repeated image 0 at position 1"


@pytest.mark.parametrize("seed", [1.9, True, -1, 6], ids=["float", "bool", "negative", "order"])
def test_subgroup_seeds_must_be_element_indices(seed):
    # 1.9 and True were read as 1, -1 as the last element, and 6 escaped as an IndexError
    group, _ = s3()
    with pytest.raises(ParseError) as exc:
        group.subgroup_generated([1, seed])
    assert exc.value.witness == {"seed": seed, "order": 6}
    assert type(exc.value.witness["seed"]) is type(seed)


def test_closure_lists_breadth_first_and_stops_past_the_cap():
    def add(a, b):
        return (a + b) % 6

    assert groups._closure(0, [2, 3], add) == [0, 2, 3, 4, 5, 1]
    assert groups._closure(0, [2, 3], add, cap=6) == [0, 2, 3, 4, 5, 1]
    assert groups._closure(0, [2, 3], add, cap=5) is None
    assert groups._closure(0, [], add, cap=1) == [0]


def test_extend_hom_returns_automorphisms_and_none_otherwise():
    z4 = cyclic_group(4)
    assert corpus._extend_hom(z4, [1], [1]) == (0, 1, 2, 3)
    assert corpus._extend_hom(z4, [1], [3]) == (0, 3, 2, 1)
    # 1 -> 2 extends to k -> 2k, which is not a bijection
    assert corpus._extend_hom(z4, [1], [2]) is None
    # 2 = 1 + 1 must go to 1 + 1 = 2, not to 1
    assert corpus._extend_hom(z4, [1, 2], [1, 1]) is None
    # one generator given two images
    assert corpus._extend_hom(z4, [1, 1], [1, 3]) is None
    assert corpus._extend_hom(z4, [1, 1], [3, 3]) == (0, 3, 2, 1)
    # the identity must go to the identity
    assert corpus._extend_hom(z4, [0, 1], [2, 1]) is None


def test_extend_hom_rejects_images_of_the_wrong_order():
    group, _ = s3()
    gens = groups._generating_set(group)
    assert corpus._extend_hom(group, gens, gens) == tuple(range(6))
    # swapping the images of an involution and a 3-cycle breaks a relation
    orders = [group.element_order(s) for s in gens]
    assert sorted(orders) == [2, 3]
    assert corpus._extend_hom(group, gens, gens[::-1]) is None


def test_identity_is_element_zero_with_cycle_labels():
    group, _ = s3()
    assert group.identity == 0
    assert group.labels[0] == "()"
    assert "(0 1)" in group.labels


def test_validate_z2_table():
    g = group_from_table([[0, 1], [1, 0]])
    assert g.identity == 0
    assert g.inv_table == (0, 1)


def test_validate_constant_table_is_not_latin():
    with pytest.raises(NotLatinSquare):
        group_from_table([[0, 0], [0, 0]])


@pytest.mark.parametrize(
    "table,witness",
    [
        ([[0, 1], [1]], {"row": 1, "length": 1}),
        ([[0, 1], [1, 2]], {"row": 1, "col": 1, "value": 2}),
        ([[0, 1.0], [1, 0]], {"row": 0, "col": 1, "value": 1.0}),
        ([[0, True], [True, 0]], {"row": 0, "col": 1, "value": True}),
        ([[0, 1, 2], [1, 1, 0], [2, 0, 1]], {"row": 1, "value": 1}),
        ([[0, 1, 2], [1, 2, 0], [1, 0, 2]], {"col": 0, "value": 1}),
    ],
    ids=["short-row", "out-of-range", "float", "bool", "row-repeat", "column-repeat"],
)
def test_latin_failures_name_the_first_offending_entry(table, witness):
    # {1.0} == {True} == {1} as sets, so the set comparisons alone would pass
    # the float and bool tables; the type test must catch them.
    with pytest.raises(NotLatinSquare) as exc:
        group_from_table(table)
    assert exc.value.witness == witness


# a column repeat in these reaches each later check: identity, inverses and
# Light's test all fail first on some swap
LATIN_GROUPS = [group_by_name(name) for name in ("c4", "s3", "q8", "v4")]


@st.composite
def near_latin_tables(draw):
    """A Cayley table with one or two changes: an entry set to another point,
    an entry set to junk (1.0, True, "1", -1 or m), a row cut short, or two
    entries swapped inside one row, which keeps rows permutations and makes
    columns repeat."""
    group = draw(st.sampled_from(LATIN_GROUPS))
    m = group.order
    rows = [list(row) for row in group.mul_table]
    for _ in range(draw(st.integers(1, 2))):
        row = rows[draw(st.integers(0, m - 1))]
        if not row:
            continue
        j, k = (draw(st.integers(0, len(row) - 1)) for _ in range(2))
        kind = draw(st.sampled_from(["point", "junk", "short", "swap"]))
        if kind == "point":
            row[j] = draw(st.integers(0, m - 1))
        elif kind == "junk":
            row[j] = draw(st.sampled_from([1.0, True, "1", -1, m]))
        elif kind == "short":
            del row[j:]
        else:
            row[j], row[k] = row[k], row[j]
    return rows


@settings(max_examples=400, deadline=None)
@given(near_latin_tables())
def test_near_latin_tables_get_the_witness_of_the_row_then_column_scan(rows):
    witness = latin_oracle(rows)
    if witness is None:
        # a Latin square may still fail a later check, but never as NotLatinSquare
        with contextlib.suppress(NoIdentity, NoInverse, NotAssociative):
            group_from_table(rows)
        return
    with pytest.raises(NotLatinSquare) as exc:
        group_from_table(rows)
    assert exc.value.witness == witness
    if "value" in witness:
        assert type(exc.value.witness["value"]) is type(witness["value"])


def test_s6_latin_check_needs_no_entry_scan(monkeypatch):
    # a valid table is scanned by rows once and its columns are never read;
    # a table that fails a later check has its columns scanned before the raise
    group, _ = from_generators(6, [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)])
    table = [list(row) for row in group.mul_table]
    scanned = []
    bad_entry = tables._bad_entry

    def counted(rows, n):
        scanned.append(len(rows))
        return bad_entry(rows, n)

    monkeypatch.setattr(tables, "_bad_entry", counted)
    assert group_from_table(table).order == 720
    assert scanned == [720]
    scanned.clear()
    with pytest.raises(NotLatinSquare) as exc:
        group_from_table([[0, 1, 2], [1, 2, 0], [1, 0, 2]])
    assert exc.value.witness == {"col": 0, "value": 1}
    assert scanned == [3, 3]


def test_a_table_that_is_no_group_takes_few_greedy_steps(monkeypatch):
    # x*0 = x, x*x = 0 and x*y = y otherwise: the rows are permutations with
    # a two-sided identity and inverses, and {0..k} is closed for every k, so
    # a greedy set left to run would take m - 1 generators and ~m^3/3 products
    m = 300
    table = [list(range(m))]
    table += [[x] + [0 if y == x else y for y in range(1, m)] for x in range(1, m)]
    calls = {"_generating_set": 0, "_closure": 0}
    for name in calls:
        wrapped = getattr(groups, name)

        def counted(*args, name=name, wrapped=wrapped, **kwargs):
            calls[name] += 1
            return wrapped(*args, **kwargs)

        monkeypatch.setattr(groups, name, counted)
    with pytest.raises(NotLatinSquare) as exc:
        group_from_table(table)
    assert exc.value.witness == {"col": 1, "value": 1}
    assert calls["_generating_set"] <= 1
    assert calls["_closure"] <= m.bit_length() + 1


def test_validate_subtraction_table_has_no_identity():
    # a*b = (a-b) mod 5 is a quasigroup with only a right identity
    table = [[(a - b) % 5 for b in range(5)] for a in range(5)]
    with pytest.raises(NoIdentity):
        group_from_table(table)


# Found by scanning order-5 Latin squares with identity 0: this one has
# two-sided inverses but (1*1)*2 != 1*(1*2).
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]

# Same scan: identity and Latin hold, but 2 has only a one-sided inverse.
NO_INVERSE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def triple_loop_violation(table):
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return (a, b, c)
    return None


def test_validate_nonassociative_loop():
    assert triple_loop_violation(NONASSOC_LOOP) is not None
    with pytest.raises(NotAssociative) as exc:
        group_from_table(NONASSOC_LOOP)
    w = exc.value.witness
    a, b, c = w["a"], w["b"], w["c"]
    t = NONASSOC_LOOP
    assert t[t[a][b]][c] != t[a][t[b][c]]


# ---------------------------------------------------------------------------
# associativity on generators against the triple loop


def random_loop(order, rng):
    """A Latin square with identity 0, filled cell by cell with backtracking."""
    table = [[a + b if a * b == 0 else None for b in range(order)] for a in range(order)]
    cells = [(a, b) for a in range(1, order) for b in range(1, order)]

    def fill(k):
        if k == len(cells):
            return True
        a, b = cells[k]
        options = [
            v
            for v in range(order)
            if v not in table[a] and all(row[b] != v for row in table)
        ]
        rng.shuffle(options)
        for v in options:
            table[a][b] = v
            if fill(k + 1):
                return True
        table[a][b] = None
        return False

    assert fill(0)
    return table


def relabel(table, sigma):
    """The table carried over the bijection a -> sigma[a]."""
    out = [[None] * len(table) for _ in table]
    for a, row in enumerate(table):
        for b, ab in enumerate(row):
            out[sigma[a]][sigma[b]] = sigma[ab]
    return out


def switch_intercalate(table, identity, rng):
    """Swap the values of one 2x2 Latin subsquare away from the identity's
    row and column: the result is still a Latin square with that identity,
    but its non-associative triples (if any) are few."""
    m = len(table)
    rest = [a for a in range(m) if a != identity]
    found = [
        (a, b, c, d)
        for a in rest
        for b in rest
        for c in rest
        for d in rest
        if a < b and c < d
        and table[a][c] == table[b][d]
        and table[a][d] == table[b][c]
    ]
    if not found:
        return table
    a, b, c, d = rng.choice(found)
    out = [list(row) for row in table]
    out[a][c], out[a][d] = table[a][d], table[a][c]
    out[b][c], out[b][d] = table[b][d], table[b][c]
    return out


SMALL_GROUP_TABLES = [
    cyclic_group(n).mul_table for n in range(1, 7)
] + [
    direct_product(cyclic_group(2), cyclic_group(2)).mul_table,
    from_generators(3, S3_GENS)[0].mul_table,
]


@st.composite
def loops_with_identity(draw, max_order=6):
    """Latin squares of order <= 6 with a two-sided identity: random ones,
    relabeled group tables, and group tables with one intercalate switched."""
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["random", "group", "switched"]))
    if kind == "random":
        return random_loop(draw(st.integers(1, max_order)), rng)
    table = draw(st.sampled_from(SMALL_GROUP_TABLES))
    sigma = draw(st.permutations(range(len(table))))
    table = relabel(table, sigma)
    if kind == "switched":
        table = switch_intercalate(table, sigma[0], rng)
    return table


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.just(NONASSOC_LOOP), loops_with_identity()))
def test_generator_associativity_agrees_with_the_triple_loop(table):
    violation = triple_loop_violation(table)
    try:
        group = group_from_table(table)
    except NotAssociative as exc:
        assert violation is not None
        a, b, c = (exc.witness[k] for k in "abc")
        assert table[table[a][b]][c] != table[a][table[b][c]]
        assert (a, b, c) == light_test_oracle(table, greedy_generators_oracle(table))
    except NoInverse:
        # an associative Latin square with identity is a group, so has inverses
        assert violation is not None
    else:
        assert violation is None
        assert group.generators == greedy_generators_oracle(table)
        assert group.subgroup_generated(group.generators).is_whole_group()


def test_s6_associativity_composes_rows_once_per_element_and_generator(monkeypatch):
    """The triple loop reads 720^3 products; the generator test composes
    row a with row s once for each element a and generator s."""
    table = from_generators(6, [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)])[0].mul_table
    calls = [0]

    def counted(p, q):
        calls[0] += 1
        return compose(p, q)

    monkeypatch.setattr(tables, "compose", counted)
    group = group_from_table(table)
    m = group.order
    assert m == 720 and 1 <= len(group.generators) <= 9
    assert m <= calls[0] <= m * len(group.generators)


def test_table_groups_record_the_checked_generators():
    group = group_from_table(cyclic_group(6).mul_table)
    assert group.generators == (1,)
    assert group_from_table([[0]]).generators == ()


def test_the_greedy_generating_set_is_built_once_and_only_when_none_is_given(
    monkeypatch, capsys
):
    calls = [0]
    greedy = groups._generating_set

    def counted(g):
        calls[0] += 1
        return greedy(g)

    monkeypatch.setattr(groups, "_generating_set", counted)

    def calls_to_build_and_use(make):
        calls[0] = 0
        group = make()
        group.generators, group.mul_table
        validate_action(group, group.mul_table).orbits()
        return group, calls[0]

    s3_group, n = calls_to_build_and_use(lambda: s3()[0])
    assert n == 0
    assert calls_to_build_and_use(lambda: cyclic_group(6))[1] == 0
    assert calls_to_build_and_use(lambda: direct_product(s3()[0], cyclic_group(2)))[1] == 0
    assert calls_to_build_and_use(lambda: group_from_table(s3_group.mul_table))[1] == 1

    # without recorded generators, the greedy set is built on first read
    bare, n = calls_to_build_and_use(lambda: FiniteGroup(s3_group.perms, s3_group.identity))
    assert n == 1
    assert bare.subgroup_generated(bare.generators).is_whole_group()
    bare = FiniteGroup(s3_group.perms, s3_group.identity)
    assert bare.table_mismatch(group_from_table(s3_group.mul_table)) is None

    calls[0] = 0
    capsys.readouterr()
    assert main(["corpus", "build", "gl_on_vectors", "--param", "q=3"]) == 0
    assert calls[0] == 1
    report = capsys.readouterr().out.encode()
    assert hashlib.sha256(report).hexdigest() == GL_Q3_SHA256


@pytest.mark.parametrize("raw", ["1", "abc"])
def test_library_functions_never_read_the_cap_env_var(raw, monkeypatch):
    from orbitspace.jsonio import action_from_json
    from orbitspace.partitions import group_from_partition

    monkeypatch.setenv("ORBITSPACE_CAP", raw)
    assert from_generators(3, [[1, 0, 2], [1, 2, 0]])[0].order == 6
    group, _ = group_from_partition(Partition(4, [[0, 1, 2], [3]]))
    assert group.order == 6
    with open(Path(__file__).parent / "golden" / "inputs" / "s3_eval.json", encoding="utf-8") as fh:
        assert action_from_json(json.load(fh)).group.order == 6


def test_validate_no_inverse_loop():
    with pytest.raises(NoInverse) as exc:
        group_from_table(NO_INVERSE_LOOP)
    assert exc.value.witness["element"] == 2


def test_validate_rejects_mismatched_labels():
    with pytest.raises(NotLatinSquare):
        group_from_table([[0, 1], [1, 0]], labels=["e"])


def test_from_generators_output_passes_validation():
    rng = random.Random(7)
    for _ in range(5):
        degree = rng.randint(2, 5)
        gens = []
        for _ in range(rng.randint(0, 2)):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(tuple(images))
        group, _ = from_generators(degree, gens)
        revalidated = group_from_table(group.mul_table)
        assert revalidated.identity == group.identity
        assert revalidated.inv_table == group.inv_table


def test_subgroup_generated_empty_is_trivial():
    group, _ = s3()
    assert group.subgroup_generated([]).members == (0,)


def test_subgroup_generated_z4():
    z4 = cyclic_group(4)
    assert z4.subgroup_generated([2]).members == (0, 2)


def three_cycle_index(group, act):
    for a in range(group.order):
        if group.element_order(a) == 3:
            return a
    raise AssertionError("no 3-cycle found")


def test_subgroup_generated_alternating_in_s3():
    group, act = s3()
    a = three_cycle_index(group, act)
    sub = group.subgroup_generated([a])
    assert sub.order == 3
    # closure oracle on the permutations themselves
    perms = closure_oracle(3, [act[a]])
    assert {tuple(act[m]) for m in sub.members} == perms


def test_subgroup_idempotence():
    rng = random.Random(11)
    group, _ = s3()
    z6 = cyclic_group(6)
    for g in (group, z6):
        for _ in range(10):
            seeds = rng.sample(range(g.order), rng.randint(0, g.order))
            sub = g.subgroup_generated(seeds)
            again = g.subgroup_generated(sub.members)
            assert again.members == sub.members
            assert g.order == sub.index() * sub.order


def test_index_examples():
    z4 = cyclic_group(4)
    assert whole_group(z4).index() == 1
    assert z4.subgroup_generated([2]).index() == 2
    group, act = s3()
    a3 = group.subgroup_generated([three_cycle_index(group, act)])
    assert a3.index() == 2


def test_automorphism_check_examples():
    z4 = cyclic_group(4)
    assert z4.is_automorphism([0, 1, 2, 3])
    # negation x -> -x is an automorphism of any abelian group
    assert z4.is_automorphism([0, 3, 2, 1])
    # swapping 1 and 2 breaks 1+1=2
    assert not z4.is_automorphism([0, 2, 1, 3])


def filter_oracle_automorphisms(g):
    return sorted(
        sigma for sigma in permutations(range(g.order)) if g.is_automorphism(sigma)
    )


@pytest.mark.parametrize(
    "name,builder",
    [
        ("z4", lambda: cyclic_group(4)),
        ("z6", lambda: cyclic_group(6)),
        ("v4", lambda: direct_product(cyclic_group(2), cyclic_group(2))),
        ("s3", lambda: s3()[0]),
    ],
)
def test_automorphism_group_matches_full_filter(name, builder):
    g = builder()
    assert automorphism_group(g) == filter_oracle_automorphisms(g)


def test_automorphism_group_trivial():
    assert automorphism_group(cyclic_group(1)) == [(0,)]


def test_direct_product_orders_and_validity():
    v4 = direct_product(cyclic_group(2), cyclic_group(2))
    assert v4.order == 4
    assert all(v4.element_order(a) in (1, 2) for a in range(4))
    group_from_table(v4.mul_table)


def test_cycle_string():
    assert cycle_string((0, 1, 2)) == "()"
    assert cycle_string((1, 0, 2)) == "(0 1)"
    assert cycle_string((1, 2, 0)) == "(0 1 2)"
    assert invert_perm((1, 2, 0)) == (2, 0, 1)


# ---------------------------------------------------------------------------
# permutation-backed groups: lazy products, generator equality, no table


@st.composite
def generator_sets(draw, max_degree=6):
    degree = draw(st.integers(1, max_degree))
    gens = draw(st.lists(st.permutations(range(degree)), max_size=3))
    return degree, [tuple(g) for g in gens]


def conjugate_gens(sigma, gens):
    """sigma g sigma^-1 for each generator: a relabeling of the points."""
    sigma = tuple(sigma)
    return [compose(compose(sigma, g), invert_perm(sigma)) for g in gens]


@settings(max_examples=40, deadline=None)
@given(generator_sets())
def test_lazy_products_match_the_table(case):
    degree, gens = case
    g, _ = from_generators(degree, gens)
    rows = range(0, g.order, max(1, g.order // 30))
    lazy = {(a, b): g.mul(a, b) for a in rows for b in g.elements()}
    table = g.mul_table
    assert all(table[a][b] == ab for (a, b), ab in lazy.items())
    # the rows of a Cayley table compose like the elements (Cayley's theorem)
    regular = FiniteGroup(table, g.identity, g.inv_table)
    assert all(regular.mul(a, b) == ab for (a, b), ab in lazy.items())
    if g.order <= 60:
        validated = group_from_table(table)
        assert validated.mul_table == table
        assert validated == g and hash(validated) == hash(g)


@settings(max_examples=40, deadline=None)
@given(generator_sets(), st.data())
def test_generator_equality_agrees_with_table_equality(case, data):
    degree, gens = case
    first, _ = from_generators(degree, gens)
    assume(first.order <= 120)
    sigma = data.draw(st.permutations(range(degree)))
    other = data.draw(st.lists(st.permutations(range(degree)), max_size=3))
    for second_gens in (conjugate_gens(sigma, gens), gens[::-1], [tuple(p) for p in other]):
        g1, _ = from_generators(degree, gens)
        g2, _ = from_generators(degree, second_gens)
        assume(g2.order <= 120)
        lazy_equal = g1 == g2  # decided before either table exists
        assert lazy_equal == (g1.mul_table == g2.mul_table)
        if lazy_equal:
            assert hash(g1) == hash(g2)
        # one side with a table, the other without
        g3, _ = from_generators(degree, second_gens)
        assert (g1 == g3) == lazy_equal
        assert (g3 == g1) == lazy_equal
    # a relabeling of the points keeps the closure order, hence the table
    twin, _ = from_generators(degree, conjugate_gens(sigma, gens))
    assert first == twin


def test_same_order_groups_with_different_tables_differ():
    c6, _ = from_generators(6, [(1, 2, 3, 4, 5, 0)])
    s3_group, _ = s3()
    witness = c6.table_mismatch(s3_group)
    assert set(witness) == {"a", "b", "products"}
    a, b = witness["a"], witness["b"]
    assert witness["products"] == [c6.mul(a, b), s3_group.mul(a, b)]
    assert witness["products"][0] != witness["products"][1]
    assert c6 != s3_group
    assert c6 == c6 and c6.table_mismatch(c6) is None
    assert cyclic_group(2).table_mismatch(c6) == {"orders": [2, 6]}
    assert c6 != cyclic_group(2)


def test_two_cayley_tables_are_compared_on_generators_only():
    c6 = group_from_table(cyclic_group(6).mul_table)
    s3_table = group_from_table(s3()[0].mul_table)
    assert c6._mul_table is not None and s3_table._mul_table is not None
    witness = c6.table_mismatch(s3_table)
    assert set(witness) == {"a", "b", "products"}
    a, b = witness["a"], witness["b"]
    assert b in c6.generators
    assert witness["products"] == [c6.mul(a, b), s3_table.mul(a, b)]
    assert witness["products"][0] != witness["products"][1]
    assert c6 != s3_table and s3_table != c6


def test_table_mismatch_on_generators_agrees_with_the_whole_table():
    # every relabeling of S3's elements that keeps the identity, compared
    # table against table: the generator loop finds a witness exactly when
    # the two Cayley tables differ, also when the first generator agrees
    table = s3()[0].mul_table
    first = group_from_table(table)
    agree_on_first = 0
    for rest in permutations(range(1, 6)):
        sigma = (0,) + rest
        relabeled = [[None] * 6 for _ in range(6)]
        for a in range(6):
            for b in range(6):
                relabeled[sigma[a]][sigma[b]] = sigma[table[a][b]]
        other = group_from_table(relabeled)
        witness = first.table_mismatch(other)
        assert (witness is None) == (other.mul_table == first.mul_table)
        if witness is not None:
            a, b = witness["a"], witness["b"]
            assert b in first.generators
            assert witness["products"] == [first.mul(a, b), other.mul(a, b)]
            assert witness["products"][0] != witness["products"][1]
            s = first.generators[0]
            agree_on_first += all(first.mul(a, s) == other.mul(a, s) for a in range(6))
    assert agree_on_first > 0


@settings(max_examples=80, deadline=None)
@given(permutation_groups(), permutation_groups(), st.data())
def test_equal_perms_short_cut_agrees_with_the_whole_table(group, other, data):
    """Groups with equal ``perms`` built apart are equal without a product;
    the twins with an equal table but other ``perms`` (points relabeled, or
    the Cayley rows as perms) and a second random group go through the
    generator loop. Each verdict is the whole table's."""
    degree = len(group.perms[0])
    sigma = data.draw(st.permutations(range(degree)))
    relabeled = []
    for p in group.perms:
        q = [None] * degree
        for x in range(degree):
            q[sigma[x]] = sigma[p[x]]
        relabeled.append(q)
    table = mul_table_oracle(group)
    for twin in (
        FiniteGroup([list(p) for p in group.perms], group.identity),
        FiniteGroup(relabeled, group.identity),
        FiniteGroup.from_cayley_rows(group.mul_table, group.identity, group.inv_table),
        other,
    ):
        same_table = mul_table_oracle(twin) == table
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(groups, "compose", lambda p, q: calls.append(1) or compose(p, q))
            witness = group.table_mismatch(twin)
        assert (witness is None) == same_table
        if twin.perms == group.perms:
            assert witness is None and not calls
        if witness is not None and "a" in witness:
            a, b = witness["a"], witness["b"]
            assert b in group.generators
            assert witness["products"] == [group.mul(a, b), twin.mul(a, b)]
            assert witness["products"][0] != witness["products"][1]


def test_from_generators_records_generator_elements():
    group, act = s3()
    assert {tuple(act[a]) for a in group.generators} == set(S3_GENS)
    assert group.subgroup_generated(group.generators).is_whole_group()


def test_subgroup_membership():
    z4 = cyclic_group(4)
    sub = z4.subgroup_generated([2])
    assert 0 in sub and 2 in sub
    assert 1 not in sub and 3 not in sub


S7_DOC = {
    "kind": "evaluation",
    "group": {
        "kind": "permutation",
        "degree": 7,
        "generators": [[1, 0, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 0]],
    },
}


@pytest.mark.parametrize(
    "argv",
    [["orbits"], ["dimension"], ["dimension", "--subgroup", "1,2"], ["free-check"]],
    ids=["orbits", "dimension", "dimension-subgroup", "free-check"],
)
def test_s7_commands_compose_linearly_in_the_order(argv, tmp_path, monkeypatch, capsys):
    """Any path that builds the 5040 x 5040 table makes 5040^2 compositions."""
    path = tmp_path / "s7.json"
    path.write_text(json.dumps(S7_DOC))
    calls = [0]

    def counted(p, q):
        calls[0] += 1
        return compose(p, q)

    monkeypatch.setattr(groups, "compose", counted)
    assert main([argv[0], "--input", str(path)] + argv[1:]) == 0
    report = json.loads(capsys.readouterr().out)
    order, n_gens = 5040, len(S7_DOC["group"]["generators"])
    assert calls[0] <= 2 * order * n_gens
    if argv[0] == "dimension":
        assert report["group_order"] == order


# ---------------------------------------------------------------------------
# tables from generator rows, against the m^2 composition loop


@settings(max_examples=40, deadline=None)
@given(generator_sets(), st.booleans())
def test_mul_table_matches_the_composition_loop(case, recorded):
    degree, gens = case
    g, _ = from_generators(degree, gens)
    if not recorded:  # falls back to a greedy generating set
        g = FiniteGroup(g.perms, g.identity, g.inv_table)
    assert g.mul_table == mul_table_oracle(g)


def small_factors():
    perm_groups = generator_sets(max_degree=4).map(lambda case: from_generators(*case)[0])
    cyclic = st.integers(1, 6).map(cyclic_group)
    return st.one_of(perm_groups, cyclic, st.builds(direct_product, cyclic, cyclic))


@settings(max_examples=30, deadline=None)
@given(small_factors(), small_factors())
def test_direct_product_matches_the_factor_tables(g, h):
    gh = direct_product(g, h)
    assert gh.mul_table == direct_product_oracle(mul_table_oracle(g), mul_table_oracle(h))
    mh = h.order
    assert gh.identity == g.identity * mh + h.identity
    assert gh.inv_table == tuple(a * mh + b for a in g.inv_table for b in h.inv_table)
    assert gh.subgroup_generated(gh.generators).is_whole_group()
    assert gh == group_from_table(gh.mul_table)


CATALOG = [g for _, g in small_group_catalog()]
# generators (0 1), (3 4), (1 2): only the first and the last fail to commute
FAR_APART = from_generators(5, [(1, 0, 2, 3, 4), (0, 1, 2, 4, 3), (0, 2, 1, 3, 4)])[0]


@settings(max_examples=80, deadline=None)
@example(FAR_APART)
@given(
    st.one_of(
        st.sampled_from(CATALOG),
        st.builds(direct_product, st.sampled_from(CATALOG), st.sampled_from(CATALOG)),
        generator_sets(max_degree=5).map(lambda case: from_generators(*case)[0]),
        permutation_groups(),
    )
)
def test_is_abelian_matches_all_pairs(g):
    had_table = g._mul_table is not None
    table = mul_table_oracle(g)
    pairs = all(table[a][b] == table[b][a] for a in g.elements() for b in g.elements())
    assert g.is_abelian() == pairs
    # generators suffice: a group without a table gets none
    assert (g._mul_table is not None) == had_table


def relabeled_table(group, rho):
    """The Cayley table of ``group`` with element a renamed rho[a]."""
    inv = invert_perm(rho)
    table = group.mul_table
    return [[rho[table[inv[x]][inv[y]]] for y in range(group.order)] for x in range(group.order)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CATALOG), st.data())
def test_group_from_table_finds_the_identity_wherever_it_is(g, data):
    rho = tuple(data.draw(st.permutations(range(g.order))))
    rows = relabeled_table(g, rho)
    # the first e with row e the identity row and column e the identity column
    points = list(range(g.order))
    expected = next(e for e in points if rows[e] == points and [r[e] for r in rows] == points)
    assert expected == rho[g.identity]
    assert group_from_table(rows).identity == expected


def test_a_left_identity_alone_is_no_identity():
    # a*b = (b-a) mod 5: row 0 is the identity row, column 0 is not
    table = [[(b - a) % 5 for b in range(5)] for a in range(5)]
    with pytest.raises(NoIdentity):
        group_from_table(table)


def test_s6_mul_table_composes_linearly_in_the_order(monkeypatch):
    """The composition loop makes m^2 = 518400 compositions. Generator rows
    take m |S| products, the closure walk m |S| more, and a row needs none."""
    group, _ = from_generators(6, [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)])
    calls = [0]

    def counted(p, q):
        calls[0] += 1
        return compose(p, q)

    monkeypatch.setattr(groups, "compose", counted)
    table = group.mul_table
    m, k = group.order, len(group.generators)
    assert m == 720 and calls[0] <= m * (2 * k + 1)
    monkeypatch.undo()
    assert table == mul_table_oracle(group)


def test_table_rows_share_the_identity_rows_ints():
    group, _ = from_generators(6, [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)])
    table = group.mul_table
    identity_row = table[group.identity]
    assert all(row[b] is identity_row[row[b]] for row in table for b in (0, 300, 719))


def test_extend_rows_refuses_generators_that_miss_elements():
    g, _ = from_generators(3, S3_GENS)
    short = FiniteGroup(g.perms, g.identity, g.inv_table, generators=[1])
    with pytest.raises(InvariantViolated) as exc:
        short.mul_table
    assert exc.value.witness["rhs"] == 6 and exc.value.witness["lhs"] < 6


# ---------------------------------------------------------------------------
# one row composition


def row_values():
    fractions = st.fractions(max_denominator=5)
    scalars = st.builds(GaussianRational, fractions, fractions)
    return st.one_of(st.integers(-3, 60), st.text(max_size=2), scalars)


@settings(max_examples=200, deadline=None)
@given(st.lists(row_values(), min_size=1, max_size=50), st.data(), st.booleans(), st.booleans())
def test_compose_reads_p_through_q(p, data, p_tuple, q_tuple):
    q = data.draw(st.lists(st.integers(0, len(p) - 1), min_size=1, max_size=50))
    p, q = (tuple(p) if p_tuple else p), (tuple(q) if q_tuple else q)
    assert compose(p, q) == tuple(map(p.__getitem__, q))


def test_is_automorphism_matches_the_pairwise_check():
    from orbitspace.corpus import small_group_catalog

    rng = random.Random(11)
    for name, g in small_group_catalog():
        maps = automorphism_group(g)
        for _ in range(20):
            sigma = list(range(g.order))
            rng.shuffle(sigma)
            maps.append(tuple(sigma))
        for sigma in maps:
            assert g.is_automorphism(sigma) == is_automorphism_oracle(g, sigma), (name, sigma)
