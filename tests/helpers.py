"""Shared generators and independent oracles for the test suite."""

from fractions import Fraction
from itertools import permutations

from orbitspace.actions import GroupAction
from orbitspace.groups import compose
from orbitspace.scalars import GaussianRational
from orbitspace.spaces import PointFunction


def rand_fraction(rng, span=4):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_scalar(rng, span=4):
    return GaussianRational(rand_fraction(rng, span), rand_fraction(rng, span))


def rand_function(rng, degree, span=4):
    return PointFunction(rand_scalar(rng, span) for _ in range(degree))


def rand_invariant_values(rng, action: GroupAction, subgroup=None, span=4):
    """Random values constant on each orbit cell (of the subgroup if given)."""
    values = [None] * action.degree
    for cell in action.orbits(subgroup).cells:
        v = rand_scalar(rng, span)
        for x in cell:
            values[x] = v
    return PointFunction(values)


def rand_subgroup(rng, group, max_seeds=2):
    k = rng.randint(0, min(max_seeds, group.order))
    seeds = rng.sample(range(group.order), k)
    return group.subgroup_generated(seeds)


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


def orbit_count_oracle(action: GroupAction, members=None) -> int:
    """Orbit counter independent of the library's partition scan."""
    return len(orbit_cells_oracle(action, members))


def orbit_cells_oracle(action: GroupAction, members=None) -> tuple:
    """Orbit cells by union-find over every member's row, sorted like a Partition."""
    if members is None:
        members = range(action.group.order)
    uf = UnionFind(action.degree)
    for a in members:
        row = action.act[a]
        for x in range(action.degree):
            uf.union(x, row[x])
    cells = {}
    for x in range(action.degree):
        cells.setdefault(uf.find(x), []).append(x)
    return tuple(sorted(tuple(c) for c in cells.values()))


def disjoint_union(actions) -> GroupAction:
    """The actions of one group side by side, each shifted past the ones before."""
    group = actions[0].group
    rows = [[] for _ in range(group.order)]
    shift = 0
    for action in actions:
        for row, part in zip(rows, action.act):
            row.extend(x + shift for x in part)
        shift += action.degree
    return GroupAction(group, rows)


def are_equivalent_oracle(a1: GroupAction, a2: GroupAction):
    """Equivariant bijection search over every group element: orbits paired
    by (size, stabilizer-order multiset) signatures with backtracking, and
    the result checked on all m elements. None when there is none."""
    if a1.degree != a2.degree:
        return None
    group = a1.group
    cells1 = list(a1.orbits().cells)
    cells2 = list(a2.orbits().cells)
    if len(cells1) != len(cells2):
        return None

    def signature(action, cell):
        return (len(cell), tuple(sorted(action.stabilizer(x).order for x in cell)))

    sig1 = [signature(a1, c) for c in cells1]
    sig2 = [signature(a2, c) for c in cells2]
    if sorted(sig1) != sorted(sig2):
        return None
    phi = [None] * a1.degree
    used = [False] * len(cells2)

    def match_pair(c1, c2):
        x0 = c1[0]
        s1 = a1.stabilizer(x0).members
        for y0 in c2:
            if a2.stabilizer(y0).members == s1:
                return {a1.act[a][x0]: a2.act[a][y0] for a in range(group.order)}
        return None

    def assign(i):
        if i == len(cells1):
            return True
        for j, c2 in enumerate(cells2):
            if used[j] or sig2[j] != sig1[i]:
                continue
            local = match_pair(cells1[i], c2)
            if local is None:
                continue
            used[j] = True
            for x, y in local.items():
                phi[x] = y
            if assign(i + 1):
                return True
            used[j] = False
            for x in local:
                phi[x] = None
        return False

    if not assign(0):
        return None
    for a in range(group.order):
        for x in range(a1.degree):
            assert phi[a1.act[a][x]] == a2.act[a][phi[x]], (a, x)
    return phi


def induce_group_sum(subset, g) -> PointFunction:
    """Induction by its definition, (|X| / (|G| |Y|)) sum over b in G of the
    zero-extension at b^-1 . x: O(|G| |X|), independent of the orbit scan."""
    act = subset.action
    group = act.group
    tilde = [GaussianRational(0)] * act.degree
    for x, v in zip(subset.points, g.values):
        tilde[x] = v
    coeff = GaussianRational(Fraction(act.degree, group.order * subset.size))
    inv_rows = [act.act[group.inv(b)] for b in range(group.order)]
    vals = []
    for x in range(act.degree):
        s = GaussianRational(0)
        for row in inv_rows:
            s = s + tilde[row[x]]
        vals.append(coeff * s)
    return PointFunction(vals)


def mul_table_oracle(group):
    """The Cayley table by m^2 compositions of the elements' permutations."""
    index, perms = group.index, group.perms
    return tuple(tuple([index[compose(p, q)] for q in perms]) for p in perms)


def is_automorphism_oracle(group, sigma) -> bool:
    """sigma(ab) = sigma(a)sigma(b) checked over all m^2 pairs, one at a time."""
    mul = group.mul_table
    for a in range(group.order):
        sa = sigma[a]
        row = mul[a]
        for b in range(group.order):
            if sigma[row[b]] != mul[sa][sigma[b]]:
                return False
    return True


def direct_product_oracle(g_table, h_table):
    """The Cayley table of G x H, with (a, b) as a*|H| + b, from both tables."""
    mg, mh = len(g_table), len(h_table)
    mul = [[0] * (mg * mh) for _ in range(mg * mh)]
    for a1 in range(mg):
        for b1 in range(mh):
            row = mul[a1 * mh + b1]
            for a2 in range(mg):
                for b2 in range(mh):
                    row[a2 * mh + b2] = g_table[a1][a2] * mh + h_table[b1][b2]
    return tuple(map(tuple, mul))


def conjugation_oracle(table, inv):
    """act[a][x] = a x a^-1, read off a Cayley table."""
    return tuple(tuple(table[ax][inv[a]] for ax in table[a]) for a in range(len(table)))


def coset_oracle(table, members):
    """Left multiplication on the cosets xH, ordered by smallest member."""
    coset_of = [None] * len(table)
    cosets = []
    for x in range(len(table)):
        if coset_of[x] is None:
            cs = sorted(table[x][m] for m in members)
            for y in cs:
                coset_of[y] = len(cosets)
            cosets.append(cs)
    return tuple(
        tuple(coset_of[table[a][cs[0]]] for cs in cosets) for a in range(len(table))
    )


def count_cell_preserving(partition) -> int:
    """Brute-force count of cell-preserving permutations (n! scan; keep n small)."""
    cell_of = partition.cell_of
    n = partition.degree
    count = 0
    for sigma in permutations(range(n)):
        if all(cell_of[sigma[x]] == cell_of[x] for x in range(n)):
            count += 1
    return count


def scalar_rank(rows):
    """Rank of a matrix of GaussianRational values by exact elimination."""
    matrix = [list(row) for row in rows]
    rank = 0
    cols = len(matrix[0]) if matrix else 0
    for col in range(cols):
        pivot = None
        for r in range(rank, len(matrix)):
            if not matrix[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = matrix[rank][col].inverse()
        matrix[rank] = [v * inv for v in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and not matrix[r][col].is_zero():
                factor = matrix[r][col]
                matrix[r] = [
                    v - factor * w for v, w in zip(matrix[r], matrix[rank])
                ]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# element-by-element corpus builders, the oracles of the generator-row ones


def conjugation_on_sets_oracle(table, inv, sets):
    """act[a][i] = the index of a s_i a^-1, conjugated element by element."""
    index = {tuple(s): i for i, s in enumerate(sets)}
    act = []
    for a in range(len(table)):
        row_a, a_inv = table[a], inv[a]
        act.append(tuple(index[tuple(sorted(table[row_a[y]][a_inv] for y in s))] for s in sets))
    return tuple(act)


def subgroup_conjugates_oracle(table, inv, members):
    """The conjugates x H x^-1 over every element x, as sorted tuples, sorted."""
    conjugates = set()
    for x in range(len(table)):
        conjugates.add(tuple(sorted(table[table[x][y]][inv[x]] for y in members)))
    return sorted(conjugates)


def _det_mod(mat, n, q):
    if n == 2:
        return (mat[0] * mat[3] - mat[1] * mat[2]) % q
    a, b, c, d, e, f, g_, h, i = mat
    return (a * (e * i - f * h) - b * (d * i - f * g_) + c * (d * h - e * g_)) % q


def gl_oracle(n, q):
    """GL(n, q) on F_q^n by determinants and matrix products: the m x m Cayley
    table, the labels and the action table, with matrices in entry-code order
    and vectors by base-q value, first component most significant."""
    cells = n * n
    mats = []
    for code in range(q**cells):
        mat = tuple(code // q**k % q for k in range(cells))
        if _det_mod(mat, n, q) != 0:
            mats.append(mat)
    index = {m: i for i, m in enumerate(mats)}

    def matmul(x, y):
        return tuple(
            sum(x[r * n + k] * y[k * n + c] for k in range(n)) % q
            for r in range(n)
            for c in range(n)
        )

    table = tuple(tuple(index[matmul(x, y)] for y in mats) for x in mats)
    labels = tuple(str([list(m[r * n : (r + 1) * n]) for r in range(n)]) for m in mats)
    vectors = [tuple(code // q ** (n - 1 - k) % q for k in range(n)) for code in range(q**n)]

    def vec_index(vec):
        out = 0
        for comp in vec:
            out = out * q + comp
        return out

    act = tuple(
        tuple(
            vec_index([sum(m[r * n + k] * vec[k] for k in range(n)) % q for r in range(n)])
            for vec in vectors
        )
        for m in mats
    )
    return table, labels, act


def subset_action_oracle(base_act, n):
    """A permutation action on n points, lifted to the 2^n subset masks bit by bit."""
    act = []
    for row_base in base_act:
        row = []
        for mask in range(2**n):
            image = 0
            for x in range(n):
                if mask >> x & 1:
                    image |= 1 << row_base[x]
            row.append(image)
        act.append(tuple(row))
    return tuple(act)


def two_sided_oracle(table, inv):
    """G x G on G by (a, b).x = a x b^-1, with (a, b) as a*|G| + b."""
    return tuple(
        tuple(table[ax][inv[b]] for ax in table[a])
        for a in range(len(table))
        for b in range(len(table))
    )
