"""Checks of untrusted tables: Cayley tables and action tables from input.

``groups.group_from_table``, ``GroupAction(...)`` and
``actions.validate_action`` import this module when they are called, so a
command on permutation-form documents, whose groups come from closure and
whose evaluation actions are the closure's own rows, never loads it.
"""

from __future__ import annotations

from typing import Optional

from .errors import CompatibilityViolated, IdentityAxiomViolated, NoIdentity, NoInverse
from .errors import NotAssociative, NotLatinSquare
from .groups import FiniteGroup, _bad_entry, compose


def checked_group(mul_table, labels=None) -> FiniteGroup:
    """Validate a Cayley table and derive identity and inverses.

    Checks, in order: every row a permutation of 0..m-1 of ints, a
    two-sided identity, two-sided inverses, the label count and
    associativity. Each failure names the first offending entry, element or
    triple. Columns are read only when a later check fails: rows that pass
    all of these make a group, whose columns are permutations too (x*a = b
    has the one solution b*a^-1). A column that repeats a value is then
    reported as ``NotLatinSquare`` in place of the later failure, so that a
    table that is not a Latin square is always refused as one.

    Associativity is checked on a generating set S only (Light's test):
    (a*s)*c = a*(s*c) for every a, c and every s in S, which is O(m^2 |S|)
    steps instead of O(m^3). The elements s that pass for all a and c are
    closed under products, since (a*(st))*c = ((a*s)*t)*c = (a*s)*(t*c)
    = a*(s*(t*c)) = a*((s*t)*c), and ``_generating_set`` stops once the
    left-associated words (...(s1*s2)*...)*sk reach every element. S is
    the group's ``generators``, and the test is ``_broken_product``: row a*s
    is row a composed with row s, the law of the left-regular action.

    ``_generating_set`` also stops at a step that does not double the words
    reached, so a table that is no group costs O(log m) closures there. If
    every s in S passed, the words before and after that step would be
    groups: closed and associative as above, finite, and left-cancellative
    since rows are permutations. A group properly inside another is at most half
    its size, so some s in S fails. The first failing triple is the one the
    full greedy set would give, since that set begins with S.
    """
    rows = [tuple(row) for row in mul_table]
    m = len(rows)
    if m == 0:
        raise NoIdentity("empty multiplication table")
    bad = _bad_entry(rows, m)
    if bad is not None:
        i, j, v, repeat = bad
        if j is None:
            raise NotLatinSquare(f"row {i} has length {v}, expected {m}", row=i, length=v)
        if repeat:
            raise NotLatinSquare(f"value {v} repeats in row {i}", row=i, value=v)
        raise NotLatinSquare(
            f"entry ({i},{j}) = {v!r} out of range 0..{m - 1}", row=i, col=j, value=v
        )

    try:
        points = tuple(range(m))
        left = (e for e in points if rows[e] == points)
        identity = next((e for e in left if all(rows[a][e] == a for a in points)), None)
        if identity is None:
            raise NoIdentity("no two-sided identity element")

        inv = [None] * m
        for a in range(m):
            b = rows[a].index(identity)
            if rows[b][a] != identity:
                raise NoInverse(f"element {a} has no two-sided inverse", element=a)
            inv[a] = b
        if labels is not None and len(labels) != m:
            raise NotLatinSquare(f"{len(labels)} labels for {m} elements", labels=len(labels))

        group = FiniteGroup.from_cayley_rows(rows, identity, inv, labels=labels)
        broken = _broken_product(group, rows)
        if broken is not None:
            a, s, c = broken
            raise NotAssociative(f"({a}*{s})*{c} != {a}*({s}*{c})", a=a, b=s, c=c)
    except (NoIdentity, NoInverse, NotLatinSquare, NotAssociative) as exc:
        raise _or_column_repeat(rows, exc) from None
    return group


def _or_column_repeat(rows, error: Exception) -> Exception:
    """The first column repeat of ``rows``, as ``NotLatinSquare``, else ``error``.
    The rows are permutations of 0..m-1 of ints, so a column can fail only by
    a repeat."""
    bad = _bad_entry(tuple(zip(*rows)), len(rows))
    if bad is None:
        return error
    j, _, v, _ = bad
    return NotLatinSquare(f"value {v} repeats in column {j}", col=j, value=v)


def _broken_product(group: FiniteGroup, table) -> Optional[tuple]:
    """The first (a, s, x), s over the generators and then a over the elements,
    with table[a*s][x] != table[a][table[s][x]], or None: the action law of
    ``table`` on generators, one ``compose`` per (a, s)."""
    for s in group.generators:
        row_s = table[s]
        for a in range(group.order):
            row_a = table[a]
            row_as = table[group.mul(a, s)]
            if row_as != compose(row_a, row_s):
                x = next(x for x in range(len(row_s)) if row_as[x] != row_a[row_s[x]])
                return a, s, x
    return None


def action_rows(group: FiniteGroup, act) -> tuple:
    """``act`` as a tuple of row tuples, with the cheap axioms of ``GroupAction``
    checked: one row per element, every row a permutation of int points, and
    the identity's row range(n)."""
    rows = tuple(map(tuple, act))
    if len(rows) != group.order:
        raise CompatibilityViolated(
            f"action table has {len(rows)} rows, group order is {group.order}",
            rows=len(rows),
            order=group.order,
        )
    if not rows or not rows[0]:
        raise IdentityAxiomViolated("point set must be nonempty", degree=0)
    degree = len(rows[0])
    bad = _bad_entry(rows, degree)
    if bad is not None:
        a, x, v, repeat = bad
        if x is None:
            raise CompatibilityViolated(f"row {a} has length {v}, expected {degree}", a=a)
        problem = "repeats an image" if repeat else f"is not a point 0..{degree - 1}"
        raise CompatibilityViolated(f"act[{a}][{x}] = {v!r} {problem}", a=a, point=x, value=v)
    row = rows[group.identity]
    if row != tuple(range(degree)):
        x = next(x for x, y in enumerate(row) if x != y)
        raise IdentityAxiomViolated(f"identity moves point {x}", point=x)
    return rows


def check_compatible(group: FiniteGroup, rows: tuple) -> None:
    """Refuse rows that break act[ab] = act[a] o act[b].

    It is checked for every a and every b = s in a generating set S:
    O(m |S| n) steps instead of O(m^2 n). That is exact, because the group is
    associative and act[e] is the identity: if it holds for b = w and for
    every generator s, then act[a(ws)] = act[(aw)s] = act[aw] o act[s]
    = act[a] o act[w] o act[s] = act[a] o act[ws], and every b is a word in
    S. A failure names a failing (a, b, point), from ``_broken_product``.
    """
    broken = _broken_product(group, rows)
    if broken is not None:
        a, s, x = broken
        raise CompatibilityViolated(
            f"act[{a}*{s}][{x}] != act[{a}][act[{s}][{x}]]", a=a, b=s, point=x
        )
