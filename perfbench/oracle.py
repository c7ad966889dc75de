"""Independent output oracle for the orbitspace benchmark.

Every expected value here is computed by the benchmark's own code: a
union-find for orbits, direct fixed-point sums for Burnside, exact
``Fraction`` arithmetic for orbit averages and both sides of Bessel and
reciprocity, and structural checks (Latin rows, permutation rows, orders,
orbit counts) for corpus documents. Nothing is imported from orbitspace.

``verify(check, rc, out)`` returns None when a report is right and a short
reason when it is not.
"""

from __future__ import annotations

import json
from fractions import Fraction

# ---------------------------------------------------------------------------
# canonical rendering (the CLI contract: sorted keys, two-space indent)


def render(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# permutations and orbits


def compose(p, q):
    """(p o q)(x) = p[q[x]]."""
    return tuple([p[x] for x in q])


def closure(degree, gens):
    """Every product of the generators, numbered in breadth-first order from
    the identity (frontier by frontier, each frontier element times each
    generator in order); this numbering is the CLI's element contract."""
    ident = tuple(range(degree))
    index = {ident: 0}
    elements = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = compose(p, g)
                if q not in index:
                    index[q] = len(elements)
                    elements.append(q)
                    nxt.append(q)
        frontier = nxt
    return elements


def orbit_cells(degree, perms):
    """Orbits of the group generated by ``perms``, by union-find.

    Cells are sorted and listed by smallest member.
    """
    parent = list(range(degree))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in perms:
        for x in range(degree):
            rx, ry = find(x), find(p[x])
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)
    cells = {}
    for x in range(degree):
        cells.setdefault(find(x), []).append(x)
    return sorted(cells.values(), key=lambda c: c[0])


def fixed_points(p) -> int:
    return sum(1 for x, y in enumerate(p) if x == y)


def orbits_doc(cells) -> dict:
    return {
        "orbit_count": len(cells),
        "cells": [list(c) for c in cells],
        "orbit_sizes": [len(c) for c in cells],
    }


def dimension_doc(degree, members, gens, group_order) -> dict:
    """The ``dimension`` report for the subgroup ``members`` generated by
    ``gens``; the orbit count and the Burnside average must agree."""
    total = sum(fixed_points(p) for p in members)
    count = len(orbit_cells(degree, gens))
    if total != count * len(members):
        raise AssertionError("oracle: Burnside sum disagrees with union-find")
    return {
        "dim": count,
        "burnside_sum": total,
        "group_order": group_order,
        "subgroup_order": len(members),
    }


# ---------------------------------------------------------------------------
# exact Gaussian rationals as (re, im) pairs of Fractions

ZERO = (Fraction(0), Fraction(0))


def gsub(z, w):
    return (z[0] - w[0], z[1] - w[1])


def gmul(z, w):
    return (z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0])


def gscale(z, q):
    return (z[0] * q, z[1] * q)


def gconj(z):
    return (z[0], -z[1])


def gnorm(z):
    return z[0] * z[0] + z[1] * z[1]


def gsum(values):
    re = sum((v[0] for v in values), Fraction(0))
    im = sum((v[1] for v in values), Fraction(0))
    return (re, im)


def pair(z) -> list:
    return [str(z[0]), str(z[1])]


def values_doc(values) -> dict:
    return {"values": [pair(v) for v in values]}


def _invariant(cells, f) -> bool:
    return all(f[x] == f[c[0]] for c in cells for x in c)


def _cell_sums(cells, f):
    return [gsum([f[x] for x in c]) for c in cells]


def _projection(degree, cells, sums):
    out = [ZERO] * degree
    for cell, s in zip(cells, sums):
        avg = gscale(s, Fraction(1, len(cell)))
        for x in cell:
            out[x] = avg
    return out


def fourier_doc(cells, f) -> dict:
    n = len(f)
    sums = _cell_sums(cells, f)
    return {
        "projection": values_doc(_projection(n, cells, sums)),
        "coefficients": [
            {
                "cell": list(cell),
                "raw_sum": pair(s),
                "coef_norm_sq": str(gnorm(s) / (n * len(cell))),
            }
            for cell, s in zip(cells, sums)
        ],
        "is_invariant": _invariant(cells, f),
    }


def bessel_doc(cells, f) -> dict:
    sums = _cell_sums(cells, f)
    lhs = sum((gnorm(s) / len(c) for c, s in zip(cells, sums)), Fraction(0))
    rhs = sum((gnorm(v) for v in f), Fraction(0))
    invariant = _invariant(cells, f)
    if lhs > rhs or (lhs == rhs) != invariant:
        raise AssertionError("oracle: Bessel's inequality failed on its own inputs")
    return {"lhs": str(lhs), "rhs": str(rhs), "equal": lhs == rhs, "is_invariant": invariant}


def decompose_doc(cells, f) -> dict:
    n = len(f)
    inv = _projection(n, cells, _cell_sums(cells, f))
    total = gsum(f)
    mean = gscale(total, Fraction(1, n))
    return {
        "invariant_part": values_doc(inv),
        "perp_part": values_doc([gsub(a, b) for a, b in zip(f, inv)]),
        "mean_part": values_doc([mean] * n),
        "zero_sum_part": values_doc([gsub(a, mean) for a in f]),
        "value_sum": pair(total),
    }


def reciprocity_doc(cells, subset, f_on_y, g) -> dict:
    """Both sides of <Ind f, g> = <f, Res g>, each computed on its own.

    Induction is taken in orbit-sum form, Ind f(x) = |X| / (|Y| |Gx|) times
    the sum of the zero-extension over the orbit of x, which is a different
    formula from the group sum the library evaluates.
    """
    n = len(g)
    position = {y: i for i, y in enumerate(subset)}
    tilde = [f_on_y[position[x]] if x in position else ZERO for x in range(n)]
    ind = [ZERO] * n
    for cell in cells:
        s = gscale(gsum([tilde[x] for x in cell]), Fraction(n, len(subset) * len(cell)))
        for x in cell:
            ind[x] = s
    lhs = gscale(gsum([gmul(a, gconj(b)) for a, b in zip(ind, g)]), Fraction(1, n))
    rhs = gscale(
        gsum([gmul(f_on_y[i], gconj(g[y])) for i, y in enumerate(subset)]),
        Fraction(1, len(subset)),
    )
    if lhs != rhs:
        raise AssertionError("oracle: reciprocity failed on its own inputs")
    return {"lhs": pair(lhs), "rhs": pair(rhs), "equal": True, "subset": list(subset)}


# ---------------------------------------------------------------------------
# report checks


def verify(check, rc: int, out: bytes):
    """None if the report is right, else the reason it is not.

    ``check`` is ``(kind, expected_rc, payload)`` as built by workloads.py.
    """
    kind, expected_rc, payload = check
    if rc != expected_rc:
        return f"exit code {rc}, expected {expected_rc}"
    if kind == "exact":
        return None if out == payload else "report differs from the expected bytes"
    try:
        text = out.decode("utf-8")
        doc = json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return f"report is not JSON: {exc}"
    if render(doc) != text:
        return "report is not in canonical form"
    try:
        return _CHECKS[kind](doc, payload)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed {kind} report: {exc!r}"


def _keys(doc, keys):
    if not isinstance(doc, dict) or set(doc) != set(keys):
        return f"report keys {sorted(doc) if isinstance(doc, dict) else doc!r}, expected {sorted(keys)}"
    return None


def _is_index(value, bound) -> bool:
    return type(value) is int and 0 <= value < bound


def _check_free(doc, payload):
    perms, identity, is_free = payload
    keys = ("is_free",) if is_free else ("is_free", "witness")
    bad = _keys(doc, keys)
    if bad:
        return bad
    if doc["is_free"] is not is_free:
        return f"is_free {doc['is_free']!r}, expected {is_free}"
    if is_free:
        return None
    w = doc["witness"]
    bad = _keys(w, ("element", "point"))
    if bad:
        return "witness: " + bad
    a, x = w["element"], w["point"]
    if not _is_index(a, len(perms)) or not _is_index(x, len(perms[0])):
        return f"witness {w} out of range"
    if a == identity or perms[a][x] != x:
        return f"witness {w} is not a non-identity element fixing the point"
    return None


def _check_equivalence(doc, payload):
    perms1, perms2 = payload
    bad = _keys(doc, ("equivalent", "bijection"))
    if bad:
        return bad
    if doc["equivalent"] is not True:
        return "actions reported inequivalent"
    phi = doc["bijection"]
    n = len(perms1[0])
    if not isinstance(phi, list) or sorted(phi) != list(range(n)):
        return "bijection is not a permutation of the points"
    for p, q in zip(perms1, perms2):
        for x in range(n):
            if phi[p[x]] != q[phi[x]]:
                return f"bijection is not equivariant at point {x}"
    return None


def _check_partition(doc, payload):
    expected, generators = payload
    bad = _keys(doc, list(expected) + ["generators"])
    if bad:
        return bad
    for key, value in expected.items():
        if doc[key] != value:
            return f"{key} is {doc[key]!r}, expected {value!r}"
    got = doc["generators"]
    if len(got) != len(generators) or sorted(map(tuple, got)) != sorted(generators):
        return "generators are not the expected cell transpositions"
    return None


def _check_defect(doc, payload):
    kind, mul, act = payload
    bad = _keys(doc, ("error", "message", "witness"))
    if bad:
        return bad
    if doc["error"] != kind:
        return f"error kind {doc['error']!r}, expected {kind!r}"
    if not isinstance(doc["message"], str):
        return "message is not a string"
    w = doc["witness"]
    m = len(mul)
    if kind == "NotAssociative":
        bad = _keys(w, ("a", "b", "c"))
        if bad:
            return "witness: " + bad
        a, b, c = w["a"], w["b"], w["c"]
        if not all(_is_index(v, m) for v in (a, b, c)):
            return f"witness {w} out of range"
        if mul[mul[a][b]][c] == mul[a][mul[b][c]]:
            return f"witness {w} is an associative triple"
        return None
    if kind == "CompatibilityViolated":
        bad = _keys(w, ("a", "b", "point"))
        if bad:
            return "witness: " + bad
        a, b, x = w["a"], w["b"], w["point"]
        if not (_is_index(a, m) and _is_index(b, m) and _is_index(x, len(act[0]))):
            return f"witness {w} out of range"
        if act[mul[a][b]][x] == act[a][act[b][x]]:
            return f"witness {w} is a compatible triple"
        return None
    return f"no witness check for {kind}"


def _check_corpus(doc, payload):
    name, params, order, degree, orbit_count = payload
    bad = _keys(doc, ("group", "degree", "act", "name", "params", "expected", "divisibility"))
    if bad:
        return bad
    if doc["name"] != name or doc["params"] != params:
        return f"entry {doc['name']!r} {doc['params']!r}, expected {name!r} {params!r}"
    mul = doc["group"]["mul"]
    act = doc["act"]
    if doc["group"]["kind"] != "table" or len(mul) != order:
        return f"group order {len(mul)}, expected {order}"
    if doc["degree"] != degree or len(act) != order:
        return f"action shape {len(act)}x{doc['degree']}, expected {order}x{degree}"
    want = list(range(order))
    if any(sorted(row) != want for row in mul) or any(
        sorted(col) != want for col in zip(*mul)
    ):
        return "multiplication table is not a Latin square"
    points = list(range(degree))
    if any(sorted(row) != points for row in act):
        return "an action row is not a permutation of the points"
    identity = [e for e in range(order) if mul[e] == want]
    if len(identity) != 1 or act[identity[0]] != points:
        return "no identity element acting trivially"
    cells = orbit_cells(degree, act)
    if len(cells) != orbit_count:
        return f"{len(cells)} orbits, expected {orbit_count}"
    facts = {
        "orbit_count": len(cells),
        "is_transitive": len(cells) == 1,
        "is_trivial": all(row == points for row in act),
        "is_free": not any(
            row[x] == x for e, row in enumerate(act) if e != identity[0] for x in points
        ),
    }
    for key, value in doc["expected"].items():
        if facts.get(key) != value:
            return f"expected.{key} is {value!r}, recomputed {facts.get(key)!r}"
    divisibility = {
        "group_order": order,
        "degree": degree,
        "group_order_divides_degree": degree % order == 0,
    }
    if doc["divisibility"] != divisibility:
        return f"divisibility {doc['divisibility']!r}, expected {divisibility!r}"
    return None


def _check_names(doc, payload):
    bad = _keys(doc, ("names",))
    if bad:
        return bad
    names = doc["names"]
    if not names or not all(isinstance(n, str) for n in names) or names != sorted(set(names)):
        return "names are not a sorted list of distinct strings"
    return None


_CHECKS = {
    "names": _check_names,
    "free": _check_free,
    "equivalence": _check_equivalence,
    "partition": _check_partition,
    "defect": _check_defect,
    "corpus": _check_corpus,
}
