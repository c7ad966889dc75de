"""Named constructors for a corpus of concrete actions with known structure.

Each entry packages an action with the structural facts that are forced for
it (freeness, transitivity, orbit count where determined), so tests, docs,
and the CLI share one source of ready-made inputs. The eight families
documented as never free at default parameters are listed in
``NON_FREE_FAMILIES``; the divisibility diagnostic (group order versus point
count) is reported alongside each entry. The constructors that no analysis
command runs live here too, so that no such command compiles them:
``cyclic_group``, ``direct_product``, ``automorphism_group`` and the
conjugation, coset, translation and trivial actions. The named groups ``q8``
and ``dic3`` are the dicyclic groups Dic_2 and Dic_3, from one presentation.
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from math import factorial, prod
from typing import Dict, List, NamedTuple, Sequence

from .actions import GroupAction, _require_same_group
from .errors import IdentityAxiomViolated, InvariantViolated, NoIdentity, ParamOutOfRange
from .errors import ParseError, UnknownCorpusName
from .groups import FiniteGroup, Subgroup, _closure, _extend_rows, _generating_set, compose
from .groups import from_generators, group_from_table

# The largest group order, or point count, a corpus entry is built for: the
# desk scale, and the order of S7, the largest symmetric family member.
_ORDER_LIMIT = 5040


def _within_limit(key: str, **witness):
    """Refuse the size ``witness[key]`` past the limit, before it is built."""
    if witness[key] > _ORDER_LIMIT:
        message = f"{key} {witness[key]} is beyond the corpus limit {_ORDER_LIMIT}"
        raise ParamOutOfRange(message, **witness, limit=_ORDER_LIMIT)


class CorpusEntry(NamedTuple):
    """A named action, the structural facts forced for it, and its parameters.

    A ``NamedTuple`` rather than a dataclass: ``dataclasses`` imports
    ``inspect``, which would make ``corpus list`` pay for both.
    """

    name: str
    action: GroupAction
    expected: Dict[str, object]
    params: Dict[str, object]

    def divisibility(self) -> Dict[str, object]:
        m = self.action.group.order
        n = self.action.degree
        return {
            "group_order": m,
            "degree": n,
            "group_order_divides_degree": n % m == 0,
        }


NON_FREE_FAMILIES = (
    "symmetric",
    "coset",
    "subgroup_conjugates",
    "sylow",
    "order_p",
    "gl_on_vectors",
    "subset_action",
    "two_sided",
)


# ---------------------------------------------------------------------------
# constructors that no analysis command runs


def cyclic_group(n: int) -> FiniteGroup:
    """Z_n with additive notation; element k is the residue k."""
    if n < 1:
        raise NoIdentity(f"order must be positive, got {n}")
    residues = tuple(range(n))  # row a is them rotated by a, sharing their int objects
    mul = [residues[a:] + residues[:a] for a in range(n)]
    inv = [(-a) % n for a in range(n)]
    return FiniteGroup.from_cayley_rows(
        mul, 0, inv, labels=[str(a) for a in range(n)], generators=[1] if n > 1 else []
    )


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """G x H with element (a, b) encoded as a*|H| + b.

    Element (a, b) carries g's permutation of a followed by h's permutation
    of b, shifted past it, so the product is backed by permutations like a
    closure, with generators (s, e) and (e, t), and builds its Cayley table
    on demand.
    """
    mh = h.order
    shift = len(g.perms[0])
    h_perms = [tuple([x + shift for x in q]) for q in h.perms]
    perms = [p + q for p in g.perms for q in h_perms]
    labels = (f"({g.label(a)},{h.label(b)})" for a in range(g.order) for b in range(mh))
    gens = [s * mh + h.identity for s in g.generators]
    gens += [g.identity * mh + t for t in h.generators]
    return FiniteGroup(
        perms, g.identity * mh + h.identity, labels=labels, generators=sorted(gens)
    )


def _extend_hom(g: FiniteGroup, gens: Sequence[int], images: Sequence[int]):
    """Extend gen -> image to an automorphism, or return None.

    The pairs (s, image of s) generate a subgroup of G x G. When the gens
    generate G, its first coordinates cover G, so it is the graph of a
    function (then a homomorphism) exactly when it has at most |G| pairs.
    The map is returned when it is also a bijection.
    """
    mul = g.mul_table
    pairs = _closure(
        (g.identity, g.identity),
        list(zip(gens, images)),
        lambda p, s: (mul[p[0]][s[0]], mul[p[1]][s[1]]),
        g.order,
    )
    if pairs is None:
        return None
    hom = dict(pairs)
    if len(hom) != g.order:
        return None
    images_full = [hom[a] for a in range(g.order)]
    if len(set(images_full)) != g.order:
        return None
    return tuple(images_full)


def automorphism_group(g: FiniteGroup) -> list:
    """All automorphisms of g, as permutations of element indices.

    Candidate images of a small generating set are filtered by element
    order, extended to full maps by closure, and finally verified with
    ``is_automorphism``. Sorted for determinism; the identity map is always
    present.
    """
    gens = _generating_set(g)
    if not gens:
        return [tuple(range(g.order))]
    orders = [g.element_order(a) for a in range(g.order)]
    candidates_per_gen = [
        [b for b in range(g.order) if orders[b] == orders[a]] for a in gens
    ]
    auts = set()

    def assign(i, images):
        if i == len(gens):
            full = _extend_hom(g, gens, images)
            if full is not None and g.is_automorphism(full):
                auts.add(full)
            return
        for b in candidates_per_gen[i]:
            assign(i + 1, images + [b])

    assign(0, [])
    identity_map = tuple(range(g.order))
    if identity_map not in auts:
        raise InvariantViolated(
            "extending each generator to itself did not give an automorphism",
            _extend_hom(g, gens, gens),
            identity_map,
        )
    return sorted(auts)


def trivial_action(group: FiniteGroup, degree: int) -> GroupAction:
    if degree < 1:
        raise IdentityAxiomViolated("point set must be nonempty", degree=0)
    return GroupAction._trusted(group, (tuple(range(degree)),) * group.order)  # identity rows


def conjugation_action(group: FiniteGroup) -> GroupAction:
    """The group acting on its own elements by a.x = a x a^-1."""
    elements = group.elements()
    act = _extend_rows(  # x -> s x s^-1 is a bijection, undone by s^-1
        group, group.order, lambda s: [group.conjugate(s, x) for x in elements]
    )
    return GroupAction._trusted(group, act)


def translation_action(group: FiniteGroup) -> GroupAction:
    """The group acting on itself by left multiplication (always free and transitive)."""
    return GroupAction._trusted(group, group.mul_table)  # Cayley rows: left-regular perms


def coset_action(group: FiniteGroup, h: Subgroup) -> GroupAction:
    """Left multiplication on the cosets xH; points ordered by smallest member."""
    _require_same_group(h.parent, group, "subgroup belongs to a different group")
    # scanning upward, the first element not yet placed is the smallest of its coset
    coset_of = [None] * group.order
    reps = []
    for x in group.elements():
        if coset_of[x] is None:
            for y in h.members:
                coset_of[group.mul(x, y)] = len(reps)
            reps.append(x)
    act = _extend_rows(  # xH -> sxH is a bijection of the cosets, undone by s^-1
        group, len(reps), lambda s: [coset_of[group.mul(s, x)] for x in reps]
    )
    return GroupAction._trusted(group, act)


# ---------------------------------------------------------------------------
# named groups


def _cyclic(n: int):
    return from_generators(n, [tuple((i + 1) % n for i in range(n))])


def _dihedral(n: int):
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((-i) % n for i in range(n))
    return from_generators(n, [rot, ref])


def _symmetric(n: int):
    if n == 1:
        return from_generators(1, [])
    gens = [tuple([1, 0] + list(range(2, n)))]
    if n > 2:
        gens.append(tuple(list(range(1, n)) + [0]))
    return from_generators(n, gens)


def _alternating(n: int):
    gens = []
    for i in range(n - 2):
        images = list(range(n))
        images[i], images[i + 1], images[i + 2] = images[i + 1], images[i + 2], images[i]
        gens.append(tuple(images))
    return from_generators(n, gens)


def _dicyclic(n: int, labels, relabel=None):
    """Dic_n = <a, b | a^2n, b^2 = a^n, b a b^-1 = a^-1>, of order 4n, with
    a^i b^j numbered i + 2nj; b a^k = a^-k b gives every product. The
    involution ``relabel``, if any, renumbers rows, columns and entries."""
    m = 2 * n

    def times(x, y):
        (j, i), (l, k) = divmod(x, m), divmod(y, m)
        return (i + k) % m + m * l if j == 0 else (i - k + n * l) % m + m * (1 - l)

    r = relabel or range(2 * m)
    mul = [[r[times(r[x], r[y])] for y in range(2 * m)] for x in range(2 * m)]
    return group_from_table(mul, labels=labels)


_FAMILIES = {"c": _cyclic, "s": _symmetric, "a": _alternating, "d": _dihedral}

# q8 is Dic_2 with a = i and b = j, renumbered to 1, -1, i, -i, j, -j, k, -k
_FIXED = {
    "v4": (4, lambda: direct_product(cyclic_group(2), cyclic_group(2))),
    "q8": (8, lambda: _dicyclic(2, "1 -1 i -i j -j k -k".split(), (0, 2, 1, 3, 4, 6, 5, 7))),
    "dic3": (12, lambda: _dicyclic(3, [f"a{i}" + "b" * j for j in range(2) for i in range(6)])),
}


def _family(name: str):
    """The family letter, n and group order of c<n>, s<n>, a<n> or d<n>, or
    None for another name; n below 1 or an order past the corpus limit is
    refused before it is built."""
    key = name.strip().lower()
    if key[:1] not in _FAMILIES or not key[1:].isdecimal():
        return None
    prefix, n = key[0], int(key[1:])
    if n < 1:
        raise ParamOutOfRange(f"group size must be positive in {name!r}", name=name)
    if prefix in "sa" and n > 7:  # 7! is the limit, and 8!/2 is past it
        message = f"{name!r} has order at least 20160, beyond the corpus limit {_ORDER_LIMIT}"
        raise ParamOutOfRange(message, name=name, degree=n, limit=_ORDER_LIMIT)
    if prefix in "sa":
        order = max(1, factorial(n) // (2 if prefix == "a" else 1))
    else:
        order = 2 * n if prefix == "d" and n > 2 else n
    _within_limit("order", name=name, order=order)
    return prefix, n, order


def _named(name: str):
    """The order of the group a short name names, and the call that builds
    it. Every factor of a product is named and sized, and the product
    checked against the limit, before anything is built."""
    key = name.strip().lower()
    if "x" in key:
        factors = [_named(part) for part in key.split("x")]
        order = prod([order for order, _ in factors])
        _within_limit("order", name=name, order=order)
        return order, lambda: reduce(direct_product, [build() for _, build in factors])
    if key in _FIXED:
        return _FIXED[key]
    family = _family(name)
    if family is None:
        raise ParamOutOfRange(f"unknown group name {name!r}", name=name)
    prefix, n, order = family
    return order, lambda: cyclic_group(n) if prefix == "c" else _FAMILIES[prefix](n)[0]


def group_by_name(name: str) -> FiniteGroup:
    """Resolve a short group name: c<n>, s<n>, a<n>, d<n>, v4, q8, dic3,
    and x-separated direct products of those (e.g. c2xc4)."""
    return _named(name)[1]()


def natural_action_by_name(name: str):
    """A permutation family with its degree-n evaluation action."""
    family = _family(name)
    if family is None:
        raise ParamOutOfRange(f"no natural point action for group {name!r}", name=name)
    prefix, n, _ = family
    group, act = _FAMILIES[prefix](n)
    return group, GroupAction._trusted(group, act)


def small_group_catalog(max_order: int = 12) -> List:
    """All isomorphism classes of groups with order up to 12, as (name, group)."""
    if max_order > 12:
        raise ParamOutOfRange(
            f"catalog covers orders up to 12, asked for {max_order}", max_order=max_order
        )
    names = [f"c{n}" for n in range(1, 13)]
    names += "c2xc2 c2xc4 c2xc2xc2 c3xc3 c2xc6 s3 d4 d5 d6 q8 a4 dic3".split()
    named = [(name, group_by_name(name)) for name in names]
    return [(name, g) for name, g in named if g.order <= max_order]


# ---------------------------------------------------------------------------
# conjugation on families of subgroups


def _conjugate_set(g: FiniteGroup, a: int, s: tuple) -> tuple:
    """a s a^-1 as a sorted tuple, read off the Cayley table."""
    mul, a_inv = g.mul_table, g.inv_table[a]
    row_a = mul[a]
    return tuple(sorted([mul[row_a[y]][a_inv] for y in s]))


def _conjugation_on_sets(g: FiniteGroup, sets: List) -> GroupAction:
    """g acting on a closed family of sorted element tuples by pointwise
    conjugation. The generator rows read ``g.mul_table``, so the table is
    built before ``_extend_rows`` walks the closure and takes products."""
    index = {s: i for i, s in enumerate(sets)}
    act = _extend_rows(  # conjugation is injective on sets, and the finite family is closed
        g, len(sets), lambda a: [index[_conjugate_set(g, a, s)] for s in sets]
    )
    return GroupAction._trusted(g, act)


def _conjugates(g: FiniteGroup, members: tuple) -> List:
    """The conjugates of the subgroup with the sorted ``members``, sorted: its
    orbit under conjugation by the generators."""
    return sorted(_closure(members, g.generators, lambda s, a: _conjugate_set(g, a, s)))


# ---------------------------------------------------------------------------
# builders


def _build_trivial(n: int = 3, group: str = "c2") -> CorpusEntry:
    if n < 1:
        raise ParamOutOfRange(f"need at least one point, got {n}", n=n)
    _within_limit("n", n=n)
    g = group_by_name(group)
    action = trivial_action(g, n)
    expected = {
        "is_trivial": True,
        "orbit_count": n,
        "is_transitive": n == 1,
        "is_free": g.order == 1,
    }
    return CorpusEntry("trivial", action, expected, {"n": n, "group": group})


def _build_symmetric(n: int = 3) -> CorpusEntry:
    if n < 1 or n > 7:
        raise ParamOutOfRange(f"symmetric family supports 1 <= n <= 7, got {n}", n=n)
    action = natural_action_by_name(f"s{n}")[1]
    expected = {
        "orbit_count": 1,
        "is_transitive": True,
        "is_trivial": n == 1,
        "is_free": n <= 2,
    }
    return CorpusEntry("symmetric", action, expected, {"n": n})


def _build_cyclic_translation(n: int = 4) -> CorpusEntry:
    if n < 1:
        raise ParamOutOfRange(f"need n >= 1, got {n}", n=n)
    _within_limit("n", n=n)
    action = translation_action(cyclic_group(n))
    expected = {
        "orbit_count": 1,
        "is_transitive": True,
        "is_free": True,
        "is_trivial": n == 1,
    }
    return CorpusEntry("cyclic_translation", action, expected, {"n": n})


def _build_conjugation(group: str = "s3") -> CorpusEntry:
    g = group_by_name(group)
    action = conjugation_action(g)
    expected = {
        "is_free": g.order == 1,
        "is_trivial": g.is_abelian(),
    }
    return CorpusEntry("conjugation", action, expected, {"group": group})


def _subgroup_from_seeds(g: FiniteGroup, seeds) -> tuple:
    """The seed list and the subgroup it generates; one integer is one seed."""
    seeds = list(seeds) if isinstance(seeds, (list, tuple)) else [seeds]
    return seeds, g.subgroup_generated(seeds)


def _build_coset(group: str = "s3", seeds=(1,)) -> CorpusEntry:
    g = group_by_name(group)
    seeds, h = _subgroup_from_seeds(g, seeds)
    if h.order == 1:
        raise ParamOutOfRange(
            "coset family needs a nontrivial subgroup", seeds=seeds
        )
    action = coset_action(g, h)
    expected = {"is_free": False, "is_transitive": True, "orbit_count": 1}
    return CorpusEntry("coset", action, expected, {"group": group, "seeds": seeds})


def _build_subgroup_conjugates(group: str = "s3", seeds=(1,)) -> CorpusEntry:
    g = group_by_name(group)
    seeds, h = _subgroup_from_seeds(g, seeds)
    if h.order == 1:
        raise ParamOutOfRange(
            "conjugate family needs a nontrivial subgroup", seeds=seeds
        )
    action = _conjugation_on_sets(g, _conjugates(g, h.members))
    expected = {"is_free": False, "is_transitive": True, "orbit_count": 1}
    return CorpusEntry(
        "subgroup_conjugates", action, expected, {"group": group, "seeds": seeds}
    )


def _sylow_subgroup(g: FiniteGroup, p: int) -> tuple:
    """The sorted members of a Sylow p-subgroup P, grown in one pass over the
    p-elements: x joins when <P, x> is a p-group of order at most p^k, the
    largest power of p dividing |G|. Were the final P smaller, p would divide
    [N(P):P], so some p-element x in N(P) minus P would make <P, x> such a
    p-group; an earlier P' in P gives <P', x> inside it, so x would have joined.
    """
    pk = 1
    while g.order % (pk * p) == 0:
        pk *= p
    g.mul_table  # built first, so that element_order and the closures read table lookups
    gens, members = [], {g.identity}
    for x in range(g.order):
        if x not in members and _is_power_of(g.element_order(x), p):
            grown = _closure(g.identity, gens + [x], g.mul, pk)
            if grown is not None and _is_power_of(len(grown), p):
                gens.append(x)
                members = set(grown)
    return tuple(sorted(members))


def _build_sylow(group: str = "s3", p: int = 2) -> CorpusEntry:
    """G acting by conjugation on its Sylow p-subgroups, the conjugates of one (Sylow II)."""
    _within_limit("p", p=p)  # a larger p divides no corpus order, and the test below is O(p)
    if not _is_prime(p):
        raise ParamOutOfRange(f"p must be prime, got {p}", p=p)
    g = group_by_name(group)
    if g.order % p != 0:
        raise ParamOutOfRange(
            f"p = {p} does not divide the group order {g.order}", p=p, order=g.order
        )
    action = _conjugation_on_sets(g, _conjugates(g, _sylow_subgroup(g, p)))
    expected = {"is_free": False, "is_transitive": True}
    return CorpusEntry("sylow", action, expected, {"group": group, "p": p})


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, p))


def _is_power_of(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def _build_order_p(group: str = "s3", p: int = 2) -> CorpusEntry:
    if p < 1:  # no element order is below 1, or past the order limit
        raise ParamOutOfRange(f"element orders are at least 1, got p = {p}", p=p)
    _within_limit("p", p=p)
    g = group_by_name(group)
    g.mul_table  # built first, so that element_order reads table lookups
    points = [a for a in range(g.order) if g.element_order(a) == p]
    if not points:
        raise ParamOutOfRange(
            f"no elements of order {p} in this group", p=p, order=g.order
        )
    action = _conjugation_on_sets(g, [(a,) for a in points])
    expected = {"is_free": False}
    return CorpusEntry("order_p", action, expected, {"group": group, "p": p})


def _gl_order(n: int, q: int) -> int:
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


def _build_gl_on_vectors(n: int = 2, q: int = 2) -> CorpusEntry:
    """GL(n, q) on the vectors of F_q^n, numbered by base-q value.

    A matrix is invertible exactly when its map on the vectors is a
    bijection, and these maps compose like the matrices, (MN)v = M(Nv). So
    the permutations are both the group and its action table, and the
    Cayley table is built from generator rows on demand.
    """
    _within_limit("q", q=q)  # a larger q gives |GL| > q > 5040, and the test below is O(q)
    if not _is_prime(q):
        raise ParamOutOfRange(f"q must be prime, got {q}", q=q)
    if n not in (2, 3) or _gl_order(n, q) > _ORDER_LIMIT:
        message = f"GL({n}, {q}) is beyond desk scale: n is 2 or 3 and the order at most {_ORDER_LIMIT}"
        raise ParamOutOfRange(message, n=n, q=q)
    vectors = list(product(range(q), repeat=n))
    code = {v: i for i, v in enumerate(vectors)}
    perms, labels = [], []
    for digits in product(range(q), repeat=n * n):
        entries = digits[::-1]  # matrices in entry-code order, first entry least significant
        rows = [list(entries[r * n : r * n + n]) for r in range(n)]
        perm = tuple(
            [code[tuple([sum([a * x for a, x in zip(row, v)]) % q for row in rows])] for v in vectors]
        )
        if len(set(perm)) == len(vectors):
            perms.append(perm)
            labels.append(str(rows))
    g = FiniteGroup(perms, perms.index(tuple(range(len(vectors)))), labels=labels)
    action = GroupAction._trusted(g, g.perms)  # bijections only; the identity's is range(q^n)
    expected = {"is_free": False, "is_transitive": False, "orbit_count": 2}
    return CorpusEntry("gl_on_vectors", action, expected, {"n": n, "q": q})


def _build_subset_action(base: str = "s3") -> CorpusEntry:
    family = _family(base)  # its n is the degree of the natural action
    if family is not None and 2 ** family[1] > _ORDER_LIMIT:  # the 2^n subsets are the points
        degree = family[1]
        raise ParamOutOfRange(
            f"power set of {degree} points is beyond desk scale", base=base, degree=degree
        )
    group, base_action = natural_action_by_name(base)
    n = base_action.degree
    if _is_power_of(group.order, 2):  # the order-1 group too
        raise ParamOutOfRange(
            "subset family requires a group that is not a 2-group",
            base=base,
            order=group.order,
        )

    def row_of(s):  # s permutes the points, so it permutes their subsets one to one
        bits = [1 << y for y in base_action.act[s]]
        return [
            sum([bit for x, bit in enumerate(bits) if mask >> x & 1])
            for mask in range(2**n)
        ]

    action = GroupAction._trusted(group, _extend_rows(group, 2**n, row_of))
    expected = {"is_free": False}
    return CorpusEntry("subset_action", action, expected, {"base": base})


def _build_two_sided(group: str = "c2") -> CorpusEntry:
    order, build_group = _named(group)
    if order < 2:
        raise ParamOutOfRange("two-sided family needs a group of order >= 2", group=group)
    _within_limit("order", group=group, order=order**2)
    g = build_group()
    gg = direct_product(g, g)
    # (a, b).x = (a x) b^-1: column b^-1 read through row a. _extend_rows on
    # G x G would take lazy products, and the report then builds its table.
    mul = g.mul_table
    columns = tuple(zip(*mul))
    act = tuple([compose(columns[b_inv], row_a) for row_a in mul for b_inv in g.inv_table])
    action = GroupAction._trusted(gg, act)  # Cayley rows and columns are bijections; (e, e) fixes all
    expected = {"is_free": False}
    return CorpusEntry("two_sided", action, expected, {"group": group})


_BUILDERS = {
    "trivial": _build_trivial,
    "symmetric": _build_symmetric,
    "cyclic_translation": _build_cyclic_translation,
    "conjugation": _build_conjugation,
    "coset": _build_coset,
    "subgroup_conjugates": _build_subgroup_conjugates,
    "sylow": _build_sylow,
    "order_p": _build_order_p,
    "gl_on_vectors": _build_gl_on_vectors,
    "subset_action": _build_subset_action,
    "two_sided": _build_two_sided,
}


def corpus_names() -> List[str]:
    return sorted(_BUILDERS)


def build(name: str, **params) -> CorpusEntry:
    """Build a corpus entry by name; unknown names and bad parameters raise.

    A parameter whose default is an int or str takes only a value of exactly
    that type (so True is not the integer 1); seed lists are checked by the
    builders that take them.
    """
    builder = _BUILDERS.get(name)
    if builder is None:
        raise UnknownCorpusName(
            f"unknown corpus name {name!r}; known: {', '.join(corpus_names())}",
            name=name,
        )
    code = builder.__code__  # every builder parameter has a default
    defaults = dict(zip(code.co_varnames[: code.co_argcount], builder.__defaults__))
    accepted = sorted(defaults)
    for key in sorted(params):
        if key not in defaults:
            raise ParseError(
                f"unknown parameter {key!r} for {name}; accepted: {', '.join(accepted)}",
                name=name,
                unknown=key,
                accepted=accepted,
            )
        default, value = defaults[key], params[key]
        if isinstance(default, (int, str)) and type(value) is not type(default):
            expected = type(default).__name__
            raise ParseError(
                f"parameter {key!r} for {name} expects {expected}, got {value!r}",
                name=name,
                param=key,
                value=value,
                expected=expected,
            )
    entry = builder(**params)
    _check_expected(entry)
    return entry


def _check_expected(entry: CorpusEntry):
    action = entry.action
    recomputed = {
        "orbit_count": len(action.orbits()),
        "is_free": action.is_free(),
        "is_transitive": action.is_transitive(),
        "is_trivial": action.is_trivial(),
    }
    for key, value in entry.expected.items():
        if recomputed[key] != value:
            raise InvariantViolated(
                f"{entry.name}: expected {key}={value}, recomputed {recomputed[key]}",
                recomputed[key],
                value,
                name=entry.name,
                key=key,
            )


def default_entries() -> List[CorpusEntry]:
    """Every family at its default parameters."""
    return [build(name) for name in corpus_names()]
