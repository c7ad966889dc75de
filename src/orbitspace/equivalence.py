"""The search for an equivariant bijection between two actions of one group.

``actions.are_equivalent`` imports this module when it is called, so only
the ``equivalence`` command loads it; every other action command leaves it
uncompiled.
"""

from __future__ import annotations

from .actions import GroupAction, _require_same_group
from .errors import InvariantViolated
from .groups import _closure


def equivariant_bijection(a1: GroupAction, a2: GroupAction) -> list | None:
    """An equivariant bijection phi with phi(a.x) = a.phi(x), or None.

    Returns the point map as a list, or None when the actions are not
    equivalent (including the degree-mismatch case). The orbit of x0 is
    isomorphic to an orbit of a2 exactly when the latter holds a y0 with the
    stabilizer of x0, and then phi(a.x0) = a.y0. Isomorphism is an equivalence
    relation, so taking the first unused such orbit finds a pairing whenever
    one exists. Orbits of one size have stabilizers of one order, so y0 needs
    only to be fixed by Stab(x0). Equivariance is checked on generators.
    """
    _require_same_group(a1.group, a2.group, "actions must share the same group")
    if a1.degree != a2.degree:
        return None
    cells1 = a1.orbits().cells
    cells2 = a2.orbits().cells
    if len(cells1) != len(cells2):
        return None
    gens = a1.group.generators
    gen_rows = [(a1.act[s], a2.act[s]) for s in gens]
    phi = [None] * a1.degree
    used = [False] * len(cells2)
    for c1 in cells1:
        x0 = c1[0]
        stab_rows = [a2.act[a] for a in a1.stabilizer(x0).members]
        candidates = (
            (j, y) for j, c2 in enumerate(cells2) if not used[j] and len(c2) == len(c1) for y in c2
        )
        match = next(((j, y) for j, y in candidates if all(r[y] == y for r in stab_rows)), None)
        if match is None:
            return None
        j, y0 = match
        used[j] = True
        # phi(s.x) = s.phi(x) carries x0 -> y0 over the orbit
        for x, y in _closure((x0, y0), gen_rows, lambda p, r: (r[0][p[0]], r[1][p[1]])):
            phi[x] = y
    if None in phi:
        raise InvariantViolated(
            "matched orbits leave a point unassigned",
            a1.degree - phi.count(None),
            a1.degree,
            point=phi.index(None),
        )
    for s, (row1, row2) in zip(gens, gen_rows):
        for x in range(a1.degree):
            lhs, rhs = phi[row1[x]], row2[phi[x]]
            if lhs != rhs:
                raise InvariantViolated(
                    f"phi({s}.{x}) != {s}.phi({x})", lhs, rhs, element=s, point=x
                )
    return phi
