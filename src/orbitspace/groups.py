"""Finite groups as permutations, with the Cayley table built on demand.

Elements are the indices 0..order-1, and each element carries a permutation
that composes like the element does. Groups are built either by validating a
user-supplied Cayley table or by breadth-first closure of permutation
generators; both paths end in the same immutable ``FiniteGroup``. A closure
keeps the permutations it found. A Cayley table's rows are its left-regular
permutations (Cayley's theorem), so a validated table serves as both the
permutations and the ready-made table.

A product is one composition and one dictionary lookup, so closure, orbits,
fixed points, stabilizers, Burnside sums and subgroup closure need no m x m
table. Code that reads on the order of m^2 products reads ``mul_table``,
which is built once, on first access, from the generators' rows
(``_extend_rows``): the Cayley table is the left-regular action. Every row
composition in the package is one C-level ``compose`` call.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from collections.abc import Iterable, Sequence

from .errors import InvariantViolated, NotAPermutation, ParseError, SizeLimitExceeded

Perm = tuple  # image array in one-line notation, 0-based

DEFAULT_CLOSURE_CAP = 20160
# the most points a permutation group may act on; the identity alone is a
# degree-long tuple, and the largest corpus action has 5040 points
_DEGREE_LIMIT = 1 << 16


def check_permutation(images: Sequence[int], degree: int) -> Perm:
    """Validate a one-line image array as a bijection on 0..degree-1.

    Every image must be an ``int``: bools, floats and strings are refused,
    not converted, so that 1.9 or "1" never passes as 1.
    """
    images = tuple(images)
    bad = _bad_entry((images,), degree)
    if bad is None:
        return images
    _, pos, img, repeat = bad
    if pos is None:
        raise NotAPermutation(
            f"expected {degree} images, got {len(images)}", degree=degree, length=len(images)
        )
    if repeat:
        raise NotAPermutation(
            f"repeated image {img} at position {pos}", position=pos, image=img
        )
    raise NotAPermutation(
        f"image {img!r} at position {pos} is not a point 0..{degree - 1}",
        position=pos,
        image=img,
    )


def compose(p: Sequence, q: Sequence[int]) -> tuple:
    """(p o q)(x) = p(q(x)): p, of any values, read through q in one C-level call."""
    if len(q) < 2:  # itemgetter with one index returns the item, not a tuple
        return tuple([p[x] for x in q])
    return itemgetter(*q)(p)


def invert_perm(p: Perm) -> Perm:
    inv = [0] * len(p)
    for x, y in enumerate(p):
        inv[y] = x
    return tuple(inv)


def cycle_string(p: Perm) -> str:
    """Cycle notation, fixed points omitted; identity renders as '()'."""
    seen = [False] * len(p)
    parts = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        x = p[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = p[x]
        parts.append("(" + " ".join(str(c) for c in cyc) + ")")
    return "".join(parts) if parts else "()"


class FiniteGroup:
    """A finite group whose elements are backed by permutations.

    ``perms[a]`` is the permutation of element a, and ``index`` maps each
    permutation back to its element, so that
    ``index[compose(perms[a], perms[b])]`` is the product ab. The Cayley
    table ``mul_table`` is built from them on first access, unless the group
    came from ``from_cayley_rows``. ``generators``, elements that generate
    the group, decide equality, automorphisms, tables and the action law in
    O(m |S|) products.

    ``generators`` and ``inv_table``, when not given, are built on first
    read (a greedy generating set; each permutation inverted), and so is
    ``labels``, from the iterable given, if any.

    Instances are immutable; construction is expected to go through
    ``group_from_table`` (validating) or ``from_generators`` (closure).
    """

    __slots__ = (
        "order",
        "perms",
        "index",
        "identity",
        "_generators",
        "_inv_table",
        "_labels",
        "_mul_table",
    )

    def __init__(self, perms, identity, inv_table=None, labels=None, generators=None):
        self.perms = tuple(map(tuple, perms))
        self.order = len(self.perms)
        self.index = {p: a for a, p in enumerate(self.perms)}
        self.identity = identity
        self._inv_table = None if inv_table is None else tuple(inv_table)
        self._labels = labels
        self._generators = None if generators is None else tuple(generators)
        self._mul_table = None

    @classmethod
    def from_cayley_rows(cls, mul_table, identity, inv_table, labels=None, generators=None):
        """A group from a trusted Cayley table, whose rows b -> ab are the
        left-regular permutations: one tuple serves as perms and table."""
        group = cls(mul_table, identity, inv_table, labels=labels, generators=generators)
        group._mul_table = group.perms
        return group

    @property
    def generators(self) -> tuple:
        if self._generators is None:
            self._generators = tuple(_generating_set(self))
        return self._generators

    @property
    def inv_table(self) -> tuple:
        if self._inv_table is None:
            index = self.index
            self._inv_table = tuple([index[invert_perm(p)] for p in self.perms])
        return self._inv_table

    @property
    def labels(self) -> tuple | None:
        if self._labels is not None and type(self._labels) is not tuple:
            self._labels = tuple(self._labels)
        return self._labels

    @property
    def mul_table(self) -> tuple:
        """The m x m Cayley table, built on first access.

        Row a is the left-regular permutation b -> ab, and these rows compose
        like the elements (Cayley's theorem), so the generators' rows fix the
        whole table: m |S| products for those rows, then ``_extend_rows``.
        """
        if self._mul_table is None:
            index, perms = self.index, self.perms
            self._mul_table = _extend_rows(
                self, self.order, lambda s: [index[compose(perms[s], q)] for q in perms]
            )
        return self._mul_table

    def mul(self, a: int, b: int) -> int:
        table = self._mul_table
        if table is not None:
            return table[a][b]
        return self.index[compose(self.perms[a], self.perms[b])]

    def inv(self, a: int) -> int:
        return self.inv_table[a]

    def elements(self) -> range:
        return range(self.order)

    def label(self, a: int) -> str:
        if self.labels is None:
            return str(a)
        return self.labels[a]

    def element_order(self, a: int) -> int:
        n = 1
        x = a
        while x != self.identity:
            x = self.mul(x, a)
            n += 1
        return n

    def conjugate(self, a: int, x: int) -> int:
        """a x a^-1."""
        return self.mul(self.mul(a, x), self.inv(a))

    def subgroup_generated(self, seeds: Iterable[int]) -> "Subgroup":
        """Smallest subgroup containing the seeds (closure under products).

        In a finite group, closure under multiplication already yields
        closure under inverses. Every seed must be an ``int`` element index:
        1.9, True and -1 are refused, not read as 1, 1 and the last element.
        """
        seeds = list(seeds)
        for seed in seeds:
            if type(seed) is not int or not 0 <= seed < self.order:
                raise ParseError(
                    f"seed {seed!r} is not an element index 0..{self.order - 1}",
                    seed=seed,
                    order=self.order,
                )
        gens = sorted(set(seeds))
        return Subgroup(self, _closure(self.identity, gens, self.mul), gens)

    def is_automorphism(self, sigma: Sequence[int]) -> bool:
        """True iff sigma o row(s) = row(sigma(s)) o sigma, sigma(sb) = sigma(s)sigma(b)
        for all b, for every generator s. The s that pass are closed under
        products (evaluate at t: sigma(st) = sigma(s)sigma(t)), so all a pass."""
        sigma = check_permutation(sigma, self.order)
        mul = self.mul_table
        return all(
            compose(sigma, mul[s]) == compose(mul[sigma[s]], sigma) for s in self.generators
        )

    def is_abelian(self) -> bool:
        """Whether the generators commute: |S|^2 products, no table. A generator
        that commutes with every generator commutes with every word in them
        (s t1...tk = t1 s t2...tk = ... = t1...tk s), so all of S is central,
        and so is every word in S."""
        gens, mul = self.generators, self.mul
        return all(mul(s, t) == mul(t, s) for i, s in enumerate(gens) for t in gens[:i])

    def table_mismatch(self, other: "FiniteGroup") -> dict | None:
        """None when both groups have the same Cayley table, else a witness.

        The witness is the pair of orders, or a pair (a, b) with the two
        products. b runs over this group's generators S only: if a*s agrees
        for every a and every s in S, then a*(s1...sk) agrees too by
        associativity in each group, and every b is such a word. That is
        O(m |S|) products instead of m^2, whether or not a table is built.

        Equal ``perms`` give equal ``index`` dicts, so every product agrees:
        that case is one C-level comparison, which stops at the first row
        that differs.
        """
        if self is other or self.perms == other.perms:
            return None
        m = self.order
        if m != other.order:
            return {"orders": [m, other.order]}
        for a in range(m):
            for b in self.generators:
                ours, theirs = self.mul(a, b), other.mul(a, b)
                if ours != theirs:
                    return {"a": a, "b": b, "products": [ours, theirs]}
        return None

    def __eq__(self, other):
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.table_mismatch(other) is None

    def __hash__(self):
        # Equal tables have equal inverse tables, and this needs no table.
        return hash(self.inv_table)

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


class Subgroup:
    """A subgroup as a sorted member set inside a parent group, with
    ``generators`` that generate it (by default, all the members)."""

    __slots__ = ("parent", "members", "generators", "_member_set")

    def __init__(self, parent: FiniteGroup, members: Iterable[int], generators=None):
        self.parent = parent
        self._member_set = frozenset(members)
        self.members = tuple(sorted(self._member_set))
        self.generators = self.members if generators is None else tuple(generators)

    @property
    def order(self) -> int:
        return len(self.members)

    def index(self) -> int:
        """[G : H]; Lagrange guarantees this is an exact integer."""
        q, r = divmod(self.parent.order, self.order)
        if r:
            raise InvariantViolated(
                f"member count {self.order} does not divide the parent order",
                self.parent.order,
                q * self.order,
                order=self.order,
            )
        return q

    def is_whole_group(self) -> bool:
        return self.order == self.parent.order

    def __contains__(self, a: int) -> bool:
        return a in self._member_set

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def __eq__(self, other):
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.parent == other.parent and self.members == other.members

    def __hash__(self):
        return hash(self.members)

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent.order})"


def whole_group(g: FiniteGroup) -> Subgroup:
    return Subgroup(g, range(g.order), g.generators)


def group_from_table(mul_table, labels=None) -> FiniteGroup:
    """Validate a Cayley table and derive identity and inverses: the checks
    and their proofs are ``tables.checked_group``, which only table input loads."""
    from .tables import checked_group

    return checked_group(mul_table, labels)


def _are_permutations(rows, n: int) -> bool:
    """Whether every row is a permutation of 0..n-1 of ints: one type test on
    all entries (bools and floats fail it, though {True} == {1} == {1.0}), then
    one set comparison per row. ``rows`` is read twice, so no iterator."""
    points = set(range(n))
    return set(map(type, chain.from_iterable(rows))) == {int} and all(
        len(row) == n and set(row) == points for row in rows
    )


def _bad_entry(rows, n: int) -> tuple | None:
    """None when every row is a permutation of 0..n-1 of ints, else the first
    problem in row order as (row, position, value, repeat): position None and
    value the length for a row of the wrong length, repeat True for a value
    earlier in its row, False for an entry that is not an int 0..n-1.

    Bools, floats and strings are problems, never converted. Valid rows cost
    one ``_are_permutations``; the entry scan runs only on a failure."""
    if _are_permutations(rows, n):
        return None
    for i, row in enumerate(rows):
        if len(row) != n:
            return i, None, len(row), False
        seen = [False] * n
        for j, v in enumerate(row):
            if type(v) is not int or not 0 <= v < n:
                return i, j, v, False
            if seen[v]:
                return i, j, v, True
            seen[v] = True
    return None  # no rows, or rows of no points


def _check_degree(degree: int) -> None:
    """Refuse a degree below 1 or past ``_DEGREE_LIMIT`` before anything is built."""
    if degree < 1:
        raise NotAPermutation(f"degree must be at least 1, got {degree}", degree=degree)
    if degree > _DEGREE_LIMIT:
        raise SizeLimitExceeded(
            f"degree {degree} is beyond the limit {_DEGREE_LIMIT}",
            degree=degree,
            limit=_DEGREE_LIMIT,
        )


def from_generators(
    degree: int, generators: Sequence[Sequence[int]], cap: int = DEFAULT_CLOSURE_CAP
):
    """Close permutation generators and return the group plus its evaluation action.

    The group elements are the distinct permutations found by breadth-first
    closure starting from the identity; element 0 is the identity. The second
    return value is the evaluation action table act[a][x] = perm_a(x), which
    is the group's own ``perms``. Labels carry cycle notation for display.
    """
    _check_degree(degree)
    gens = [check_permutation(p, degree) for p in generators]
    elements = _closure(tuple(range(degree)), gens, compose, cap)
    if elements is None:
        raise SizeLimitExceeded(f"closure exceeded cap {cap}", cap=cap, reached=cap + 1)
    group = FiniteGroup(elements, 0, labels=map(cycle_string, elements))
    group._generators = tuple(sorted({group.index[g] for g in gens}))
    return group, group.perms


def _closure(start, gens, product, cap=None):
    """Everything reached from ``start`` by right products with ``gens``.

    A breadth-first closure: the result lists ``start`` first and then each
    new element in the order it is found, so callers that number elements
    by position get the same numbering on every run. Returns None as soon
    as more than ``cap`` elements have been found. In a finite group, the
    closure of the identity is the subgroup the gens generate.
    """
    found = [start]
    seen = {start}
    limit = float("inf") if cap is None else cap
    for p in found:  # appending while iterating visits each level in turn
        for s in gens:
            q = product(p, s)
            if q not in seen:
                seen.add(q)
                found.append(q)
                if len(found) > limit:
                    return None
    return found


def _extend_rows(group: FiniteGroup, degree: int, row_of) -> tuple:
    """The table of an action of ``group`` on 0..degree-1, from generator rows.

    ``row_of(s)`` is the row x -> s.x of a generator s. In any action
    row(p.s) = row(p) o row(s), so the closure walk from the identity gives
    each newly found q = p.s the row row(p) o row(s), read from row(p) by
    one ``compose``: m row compositions plus m |S| products, where an
    element-by-element build takes m n. Every row holds the identity row's
    int objects.
    """
    gens = group.generators
    gen_rows = {s: tuple(row_of(s)) for s in gens}
    rows = [None] * group.order
    rows[group.identity] = tuple(range(degree))

    def step(p, s):
        q = group.mul(p, s)
        if rows[q] is None:
            rows[q] = compose(rows[p], gen_rows[s])
        return q

    found = _closure(group.identity, gens, step)
    if len(found) != group.order:
        raise InvariantViolated(
            "the generators do not generate the group", len(found), group.order
        )
    return tuple(rows)


def _generating_set(g: FiniteGroup) -> list:
    """Greedy small generating set (empty for the trivial group).

    In a group each new generator at least doubles the members (Lagrange),
    so there are at most log2 |G| of them. The loop also stops at a step
    that does not double them. That happens only when ``g`` is a table under
    validation that is no group, where the set could otherwise grow one
    element at a time, at some |G|^3/3 products; ``tables.checked_group``
    explains why Light's test then fails on the set as it stands.
    """
    gens = []
    members = g.subgroup_generated([])
    for a in range(g.order):
        if a not in members:
            gens.append(a)
            reached = members.order
            members = g.subgroup_generated(gens)
            if members.is_whole_group() or members.order < 2 * reached:
                break
    return gens
