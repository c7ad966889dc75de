"""Corpus constructors: validity, expected flags, and parameter guards."""

from math import factorial

import pytest

from helpers import (
    conjugation_on_sets_oracle,
    conjugation_oracle,
    coset_oracle,
    direct_product_oracle,
    gl_oracle,
    mul_table_oracle,
    subgroup_conjugates_oracle,
    subset_action_oracle,
    two_sided_oracle,
)
from orbitspace import corpus
from orbitspace.actions import validate_action
from orbitspace.corpus import (
    NON_FREE_FAMILIES,
    build,
    corpus_names,
    default_entries,
    group_by_name,
    natural_action_by_name,
    small_group_catalog,
)
from orbitspace.errors import ParamOutOfRange, ParseError, UnknownCorpusName
from orbitspace.groups import group_from_table


def test_corpus_names_cover_the_families():
    names = corpus_names()
    for family in NON_FREE_FAMILIES:
        assert family in names
    assert "trivial" in names
    assert "cyclic_translation" in names
    assert "conjugation" in names


def test_every_default_entry_passes_full_validation():
    for entry in default_entries():
        validated = validate_action(entry.action.group, entry.action.act)
        assert validated == entry.action


def test_expected_flags_match_recomputation():
    for entry in default_entries():
        action = entry.action
        recomputed = {
            "orbit_count": len(action.orbits()),
            "is_free": action.is_free(),
            "is_transitive": action.is_transitive(),
            "is_trivial": action.is_trivial(),
        }
        for key, value in entry.expected.items():
            assert recomputed[key] == value, (entry.name, key)


def test_all_eight_families_are_not_free_at_defaults():
    for family in NON_FREE_FAMILIES:
        entry = build(family)
        assert entry.action.is_free() is False, family


def test_divisibility_diagnostic():
    for family in NON_FREE_FAMILIES:
        entry = build(family)
        div = entry.divisibility()
        assert div["group_order"] == entry.action.group.order
        assert div["degree"] == entry.action.degree
        # whenever the order fails to divide the point count, freeness is impossible
        if not div["group_order_divides_degree"]:
            assert not entry.action.is_free()


def test_a_corpus_entry_is_a_named_tuple_of_its_four_fields():
    entry = build("trivial", n=2)
    name, action, expected, params = entry
    assert (name, params) == ("trivial", {"n": 2, "group": "c2"})
    assert entry == build("trivial", n=2)
    assert repr(entry) == (
        f"CorpusEntry(name='trivial', action={action!r}, "
        f"expected={expected!r}, params={{'n': 2, 'group': 'c2'}})"
    )


def test_symmetric_family():
    entry = build("symmetric", n=3)
    assert entry.action.group.order == 6
    assert entry.action.is_transitive()
    assert not entry.action.is_free()
    # the boundary case: two points is the regular action, which is free
    assert build("symmetric", n=2).action.is_free()


def test_cyclic_translation_family():
    entry = build("cyclic_translation", n=6)
    assert entry.action.is_free() and entry.action.is_transitive()
    assert entry.action.burnside_dimension() == 1


def test_conjugation_family():
    entry = build("conjugation", group="s3")
    assert len(entry.action.orbits()) == 3
    abelian = build("conjugation", group="c6")
    assert abelian.action.is_trivial()


def test_coset_family():
    entry = build("coset")
    assert entry.action.degree == 3
    assert entry.action.is_transitive()
    with pytest.raises(ParamOutOfRange):
        build("coset", seeds=[0])


def test_seed_lists_and_single_seeds():
    for family in ("coset", "subgroup_conjugates"):
        assert build(family, seeds=1).action == build(family, seeds=[1]).action
        assert build(family, seeds=(1,)).params["seeds"] == [1]
        for bad in (6, -1, [1, "2"], 1.0):
            with pytest.raises(ParseError):
                build(family, seeds=bad)


def test_every_builder_parameter_has_a_default():
    """build reads defaults from the code object, which needs one for each."""
    for name, builder in corpus._BUILDERS.items():
        code = builder.__code__
        assert code.co_kwonlyargcount == 0, name
        assert len(builder.__defaults__ or ()) == code.co_argcount, name


def test_unknown_parameters_are_named():
    with pytest.raises(ParseError) as exc:
        build("coset", group="s3", seed=1)
    assert exc.value.witness["unknown"] == "seed"
    assert exc.value.witness["accepted"] == ["group", "seeds"]


def test_subgroup_conjugates_family():
    entry = build("subgroup_conjugates")
    assert entry.action.degree == 3  # three conjugate subgroups of order 2 in s3
    assert entry.action.is_transitive()


def test_sylow_family():
    entry = build("sylow", group="s3", p=2)
    assert entry.action.degree == 3
    one_point = build("sylow", group="s3", p=3)
    assert one_point.action.degree == 1
    d4_sylow = build("sylow", group="d4", p=2)
    assert d4_sylow.action.degree == 1  # the whole 2-group is its own sylow subgroup
    with pytest.raises(ParamOutOfRange):
        build("sylow", group="s3", p=5)
    with pytest.raises(ParamOutOfRange):
        build("sylow", group="s3", p=4)


def test_order_p_family():
    entry = build("order_p", group="s3", p=2)
    assert entry.action.degree == 3  # the transpositions
    cubes = build("order_p", group="s3", p=3)
    assert cubes.action.degree == 2  # the two 3-cycles
    assert build("order_p", group="s3", p=1).action.degree == 1  # the identity
    with pytest.raises(ParamOutOfRange) as info:  # in range, but no element has that order
        build("order_p", group="s3", p=5)
    assert info.value.witness == {"order": 6, "p": 5}


def test_gl_family():
    entry = build("gl_on_vectors", n=2, q=2)
    assert entry.action.group.order == 6  # (4-1)(4-2)
    assert entry.action.degree == 4
    assert [len(c) for c in entry.action.orbits().cells] == [1, 3]

    bigger = build("gl_on_vectors", n=2, q=3)
    assert bigger.action.group.order == 48  # (9-1)(9-3)
    assert bigger.action.degree == 9
    assert [len(c) for c in bigger.action.orbits().cells] == [1, 8]

    with pytest.raises(ParamOutOfRange):
        build("gl_on_vectors", n=2, q=4)
    assert build("gl_on_vectors", n=3, q=2).action.group.order == 168
    assert build("gl_on_vectors", n=2, q=7).action.group.order == 2016
    for n, q in [(3, 3), (2, 11), (1, 2), (4, 2)]:  # orders 11232 and 13200; n outside 2..3
        with pytest.raises(ParamOutOfRange) as info:
            build("gl_on_vectors", n=n, q=q)
        assert info.value.witness == {"n": n, "q": q}


def test_subset_family():
    entry = build("subset_action")
    assert entry.action.degree == 8
    # empty and full subsets are fixed points; orbits group subsets by size
    assert entry.action.orbit(0) == (0,)
    assert entry.action.orbit(7) == (7,)
    assert len(entry.action.orbits()) == 4
    for base, order in [("c4", 4), ("c8", 8), ("d8", 16)]:  # 2-groups are excluded
        with pytest.raises(ParamOutOfRange) as info:
            build("subset_action", base=base)
        assert info.value.witness == {"base": base, "order": order}
    assert build("subset_action", base="s5").action.degree == 32


def test_two_sided_family():
    entry = build("two_sided", group="c2")
    assert entry.action.group.order == 4
    assert entry.action.degree == 2
    s3_pair = build("two_sided", group="s3")
    assert s3_pair.action.group.order == 36
    assert not s3_pair.action.is_free()
    with pytest.raises(ParamOutOfRange):
        build("two_sided", group="c1")


def test_unknown_name_is_reported():
    with pytest.raises(UnknownCorpusName):
        build("no_such_family")


def test_group_by_name():
    assert group_by_name("c6").order == 6
    assert group_by_name("s4").order == 24
    assert group_by_name("a4").order == 12
    assert group_by_name("d4").order == 8
    assert group_by_name("c2xc4").order == 8
    q8 = group_by_name("q8")
    assert sorted(q8.element_order(a) for a in range(8)) == [1, 2, 4, 4, 4, 4, 4, 4]
    dic3 = group_by_name("dic3")
    assert sorted(dic3.element_order(a) for a in range(12)) == [
        1, 2, 3, 3, 4, 4, 4, 4, 4, 4, 6, 6,
    ]
    with pytest.raises(ParamOutOfRange):
        group_by_name("foo")


@pytest.mark.parametrize("name", ["s0", "c0", "a0", "d0"])
def test_natural_actions_refuse_size_zero_by_name(name):
    """Both name resolvers share one family parser, so n = 0 is refused by
    name before a degree-0 permutation group is attempted."""
    for resolve in (natural_action_by_name, group_by_name):
        with pytest.raises(ParamOutOfRange) as exc:
            resolve(name)
        assert exc.value.witness == {"name": name}


def test_small_group_catalog_is_complete_and_distinct():
    catalog = small_group_catalog()
    assert len(catalog) == 24
    counts = {}
    for _, g in catalog:
        counts[g.order] = counts.get(g.order, 0) + 1
    # the classical enumeration of isomorphism classes up to order 12
    assert counts == {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2, 10: 2, 11: 1, 12: 5}
    # the element-order multiset separates every pair here
    signatures = {
        (g.order, tuple(sorted(g.element_order(a) for a in range(g.order))))
        for _, g in catalog
    }
    assert len(signatures) == 24


def test_small_group_catalog_tables_are_valid():
    for name, g in small_group_catalog():
        revalidated = group_from_table(g.mul_table)
        assert revalidated.identity == g.identity, name


def test_automorphisms_of_catalog_groups_form_groups():
    # the automorphism set of each catalog group is closed under
    # composition and inversion and contains the identity map
    from orbitspace import automorphism_group
    from orbitspace.groups import compose, invert_perm

    for name, g in small_group_catalog():
        auts = set(automorphism_group(g))
        assert tuple(range(g.order)) in auts, name
        for s in auts:
            assert invert_perm(s) in auts, name
        sample = sorted(auts)[: min(len(auts), 12)]
        for s in sample:
            for t in sample:
                assert compose(s, t) in auts, name


# ---------------------------------------------------------------------------
# every family's tables against element-by-element builders


def _named(name):
    g = group_by_name(name)
    table = mul_table_oracle(g)
    return g, table, tuple(row.index(g.identity) for row in table)


def _element_order(table, identity, a):
    k, x = 1, a
    while x != identity:
        x, k = table[x][a], k + 1
    return k


def _oracle(name, params):
    """(Cayley table, labels, action table) of a corpus entry, built element by
    element: m^2 products for each table, and every row from its own element."""
    if name == "gl_on_vectors":
        return gl_oracle(params.get("n", 2), params.get("q", 2))
    if name == "cyclic_translation":
        n = params.get("n", 4)
        table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
        return table, tuple(map(str, range(n))), table
    if name in ("symmetric", "subset_action"):
        g, base = natural_action_by_name(params.get("base", f"s{params.get('n', 3)}"))
        act = base.act if name == "symmetric" else subset_action_oracle(base.act, base.degree)
        return mul_table_oracle(g), g.labels, act
    g, table, inv = _named(params.get("group", "c2" if name in ("trivial", "two_sided") else "s3"))
    if name == "two_sided":
        labels = tuple(f"({a},{b})" for a in g.labels for b in g.labels)
        return direct_product_oracle(table, table), labels, two_sided_oracle(table, inv)
    if name == "trivial":
        act = (tuple(range(params.get("n", 3))),) * g.order
    elif name == "conjugation":
        act = conjugation_oracle(table, inv)
    elif name in ("coset", "subgroup_conjugates"):
        members = g.subgroup_generated(params.get("seeds", [1])).members
        if name == "coset":
            act = coset_oracle(table, members)
        else:
            sets = subgroup_conjugates_oracle(table, inv, members)
            act = conjugation_on_sets_oracle(table, inv, sets)
    elif name == "order_p":
        points = [a for a in range(g.order) if _element_order(table, g.identity, a) == params["p"]]
        act = conjugation_on_sets_oracle(table, inv, [(a,) for a in points])
    else:  # sylow: each Sylow subgroup of the groups used here has two generators
        p = params["p"]
        pk = p ** max(k for k in range(g.order.bit_length()) if g.order % p**k == 0)
        elements = range(g.order)
        found = {g.subgroup_generated([x, y]).members for x in elements for y in elements}
        act = conjugation_on_sets_oracle(table, inv, sorted(h for h in found if len(h) == pk))
    return table, g.labels, act


ORACLE_CASES = [
    ("trivial", {}),
    ("trivial", {"n": 2, "group": "s3"}),
    ("symmetric", {"n": 4}),
    ("cyclic_translation", {"n": 5}),
    ("conjugation", {"group": "q8"}),
    ("coset", {"group": "s4", "seeds": [1]}),
    ("subgroup_conjugates", {}),
    ("subgroup_conjugates", {"group": "s4"}),
    ("subgroup_conjugates", {"group": "s4", "seeds": [1, 2]}),
    ("subgroup_conjugates", {"group": "d6", "seeds": [3]}),
    ("sylow", {"group": "s4", "p": 2}),
    ("sylow", {"group": "s4", "p": 3}),
    ("sylow", {"group": "a4", "p": 2}),
    ("sylow", {"group": "dic3", "p": 2}),
    ("order_p", {"group": "s4", "p": 2}),
    ("order_p", {"group": "a4", "p": 3}),
    ("order_p", {"group": "q8", "p": 4}),
    ("gl_on_vectors", {}),
    ("gl_on_vectors", {"q": 3}),
    ("gl_on_vectors", {"n": 3, "q": 2}),
    ("gl_on_vectors", {"n": 2, "q": 5}),
    ("subset_action", {}),
    ("subset_action", {"base": "s4"}),
    ("subset_action", {"base": "a4"}),
    ("subset_action", {"base": "s5"}),
    ("subset_action", {"base": "c12"}),
    ("two_sided", {}),
    ("two_sided", {"group": "s3"}),
    ("two_sided", {"group": "q8"}),
]


@pytest.mark.parametrize(
    "name, params",
    ORACLE_CASES,
    ids=[f"{n}-" + "-".join(f"{k}{v}" for k, v in p.items()) for n, p in ORACLE_CASES],
)
def test_corpus_tables_match_the_element_by_element_builders(name, params):
    entry = build(name, **params)
    table, labels, act = _oracle(name, params)
    assert entry.action.group.mul_table == tuple(map(tuple, table))
    assert entry.action.group.labels == tuple(labels)
    assert entry.action.act == tuple(map(tuple, act))


@pytest.mark.parametrize(
    "name, params, witness",
    [
        ("conjugation", {"group": "c6000"}, {"name": "c6000", "order": 6000}),
        ("conjugation", {"group": "c80xc80"}, {"name": "c80xc80", "order": 6400}),
        ("trivial", {"group": "s4xs4xs4"}, {"name": "s4xs4xs4", "order": 13824}),
        ("two_sided", {"group": "s5"}, {"group": "s5", "order": 14400}),
        ("trivial", {"n": 5041}, {"n": 5041}),
        ("cyclic_translation", {"n": 5041}, {"n": 5041}),
        ("conjugation", {"group": "a8"}, {"name": "a8", "degree": 8}),
        ("conjugation", {"group": "s100000"}, {"name": "s100000", "degree": 100000}),
        ("conjugation", {"group": "d2521"}, {"name": "d2521", "order": 5042}),
        ("subset_action", {"base": "c100000"}, {"name": "c100000", "order": 100000}),
        ("subset_action", {"base": "s9"}, {"name": "s9", "degree": 9}),
    ],
)
def test_sizes_past_the_corpus_limit_are_refused_before_construction(
    name, params, witness, monkeypatch
):
    def bounded(build_it, size):
        def guarded(*args):
            assert size(*args) <= 5040, (name, params)
            return build_it(*args)

        return guarded

    for attr, size in (
        ("cyclic_group", lambda n: n),
        ("direct_product", lambda g, h: g.order * h.order),
        ("trivial_action", lambda g, n: n),
        ("from_generators", lambda n, gens: n),
        ("_symmetric", factorial),
        ("_alternating", lambda n: factorial(n) // 2),
        ("_dihedral", lambda n: 2 * n),
    ):
        monkeypatch.setattr(corpus, attr, bounded(getattr(corpus, attr), size))
    with pytest.raises(ParamOutOfRange) as info:
        build(name, **params)
    assert info.value.witness == {**witness, "limit": 5040}


@pytest.mark.parametrize(
    "name, params, witness",
    [
        ("subset_action", {"base": "c5040"}, {"base": "c5040", "degree": 5040}),
        ("subset_action", {"base": "d2520"}, {"base": "d2520", "degree": 2520}),
        ("subset_action", {"base": "c13"}, {"base": "c13", "degree": 13}),
        ("trivial", {"group": "c5040", "n": 0}, {"n": 0}),
        ("sylow", {"group": "c5040", "p": 5041}, {"p": 5041, "limit": 5040}),
        ("sylow", {"group": "c5040", "p": 4}, {"p": 4}),
        ("order_p", {"group": "c5040", "p": 0}, {"p": 0}),
        ("order_p", {"group": "c5040", "p": -3}, {"p": -3}),
        ("order_p", {"group": "c5040", "p": 6000}, {"p": 6000, "limit": 5040}),
        ("conjugation", {"group": "c5040xc2"}, {"name": "c5040xc2", "order": 10080, "limit": 5040}),
        ("two_sided", {"group": "c5040"}, {"group": "c5040", "order": 5040**2, "limit": 5040}),
        ("two_sided", {"group": "a2"}, {"group": "a2"}),
        ("coset", {"group": "c5040xfoo"}, {"name": "foo"}),
        ("conjugation", {"group": "c9999xfoo"}, {"name": "c9999", "order": 9999, "limit": 5040}),
        ("two_sided", {"group": "fooxc9999"}, {"name": "foo"}),
        ("two_sided", {"group": "s3xs8"}, {"name": "s8", "degree": 8, "limit": 5040}),
    ],
)
def test_parameter_refusals_build_no_group(name, params, witness, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} {params} built a group before refusing")

    for attr in ("FiniteGroup", "cyclic_group", "direct_product", "from_generators", "group_from_table"):
        monkeypatch.setattr(corpus, attr, refuse)
    with pytest.raises(ParamOutOfRange) as info:
        build(name, **params)
    assert info.value.witness == witness


@pytest.mark.parametrize(
    "name",
    [name for name, _ in small_group_catalog()]
    + ["d1", "d2", "a1", "a2", "s1", "s7", "a7", "d2520", "c2xs3xq8", "dic3xv4", " C4 x D5 "],
)
def test_the_order_of_a_name_is_the_order_of_its_group(name):
    assert corpus._named(name)[0] == group_by_name(name).order


def test_sizes_at_the_corpus_limit_are_built():
    assert build("trivial", n=5040).action.degree == 5040
    assert group_by_name("c70xc72").order == 5040
    assert group_by_name("a7").order == 2520
