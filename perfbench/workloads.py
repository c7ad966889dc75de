"""Seeded inputs for the orbitspace benchmark.

``build(workload, seed, directory)`` writes every input document of one
workload into ``directory`` and returns the command list of one pass, each
command with the oracle check its report must pass. Only the standard
library is used; groups, Cayley tables, action tables, functions and
invariant subsets are all composed here, and the same seed gives
byte-identical files. The seed relabels points and elements and draws
function values; it never changes the sizes, so every seed does the same
amount of work.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracle
from oracle import closure, compose, orbit_cells

WORKLOADS = ("closure", "tables")


@dataclass
class Command:
    label: str
    argv: list
    check: tuple  # (kind, expected exit code, payload), see oracle.verify
    tags: tuple = field(default=())


# ---------------------------------------------------------------------------
# permutation groups


def transposition(n, x, y):
    images = list(range(n))
    images[x], images[y] = y, x
    return tuple(images)


def symmetric_gens(n):
    return [transposition(n, 0, 1), tuple(list(range(1, n)) + [0])]


def alternating_gens(n):
    gens = []
    for i in range(n - 2):
        images = list(range(n))
        images[i], images[i + 1], images[i + 2] = images[i + 1], images[i + 2], images[i]
        gens.append(tuple(images))
    return gens


def on_pairs(n, gens):
    """The induced action on the 2-subsets of n points."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    return [tuple(index[tuple(sorted((g[a], g[b])))] for a, b in pairs) for g in gens]


def disjoint_product(*families):
    """Generators of a direct product acting on disjoint blocks of points."""
    total = sum(n for n, _ in families)
    out, offset = [], 0
    for n, gens in families:
        for g in gens:
            images = list(range(total))
            for x in range(n):
                images[offset + x] = offset + g[x]
            out.append(tuple(images))
        offset += n
    return out


def conjugate_by(sigma, p):
    """sigma p sigma^-1: the same permutation with points renamed by sigma."""
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[sigma[x]] = sigma[y]
    return tuple(out)


def random_perm(rng, n):
    images = list(range(n))
    rng.shuffle(images)
    return images


def evaluation_doc(degree, gens):
    return {
        "kind": "evaluation",
        "group": {"kind": "permutation", "degree": degree, "generators": [list(g) for g in gens]},
    }


def subgroup_members(elements, seeds):
    """Members of the subgroup generated by the elements with these indices."""
    gens = [elements[s] for s in seeds]
    ident = elements[0]
    members = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = compose(p, g)
                if q not in members:
                    members.add(q)
                    nxt.append(q)
        frontier = nxt
    return list(members), gens


# ---------------------------------------------------------------------------
# abstract groups as (elements, multiplication) and their tables


def perm_group(n, gens):
    return closure(n, gens), compose


def cyclic(n):
    return list(range(n)), lambda a, b: (a + b) % n


def product(g, h):
    (els_g, mul_g), (els_h, mul_h) = g, h
    elements = [(a, b) for a in els_g for b in els_h]
    return elements, lambda x, y: (mul_g(x[0], y[0]), mul_h(x[1], y[1]))


def gl2(q):
    """GL(2, q) as row-major 2x2 matrices mod q."""
    mats = [
        m for m in itertools.product(range(q), repeat=4) if (m[0] * m[3] - m[1] * m[2]) % q
    ]

    def mul(x, y):
        return (
            (x[0] * y[0] + x[1] * y[2]) % q,
            (x[0] * y[1] + x[1] * y[3]) % q,
            (x[2] * y[0] + x[3] * y[2]) % q,
            (x[2] * y[1] + x[3] * y[3]) % q,
        )

    return mats, mul


def cayley(group):
    elements, mul = group
    index = {e: i for i, e in enumerate(elements)}
    return [[index[mul(a, b)] for b in elements] for a in elements], index


def conjugation_table(group):
    elements, mul = group
    table, index = cayley(group)
    e = next(i for i, row in enumerate(table) if row == list(range(len(row))))
    inv = [row.index(e) for row in table]
    act = [[table[table[a][x]][inv[a]] for x in range(len(elements))] for a in range(len(elements))]
    return table, act


def gl2_on_vectors(q, length):
    """GL(2, q) on sequences of ``length`` column vectors of F_q^2."""
    mats, mul = gl2(q)
    table, _ = cayley((mats, mul))
    vectors = list(itertools.product(range(q), repeat=2))
    words = list(itertools.product(vectors, repeat=length))
    index = {w: i for i, w in enumerate(words)}

    def apply(m, v):
        return ((m[0] * v[0] + m[1] * v[1]) % q, (m[2] * v[0] + m[3] * v[1]) % q)

    act = [[index[tuple(apply(m, v) for v in w)] for w in words] for m in mats]
    return table, act


def letters_on_words(k, length, reversal):
    """Sym(k) permuting the letters of words of the given length over k
    letters, times reversal of the word when ``reversal`` is set."""
    letters = perm_group(k, symmetric_gens(k))
    group = product(cyclic(2), letters) if reversal else letters
    table, _ = cayley(group)
    words = list(itertools.product(range(k), repeat=length))
    index = {w: i for i, w in enumerate(words)}

    def apply(g, w):
        flip, p = g if reversal else (0, g)
        image = tuple(p[c] for c in w)
        return image[::-1] if flip else image

    act = [[index[apply(g, w)] for w in words] for g in group[0]]
    return table, act


def relabel(rng, mul, act):
    """Rename elements and points by seeded random permutations."""
    m, n = len(mul), len(act[0])
    rho, pi = random_perm(rng, m), random_perm(rng, n)
    new_mul = [[0] * m for _ in range(m)]
    new_act = [[0] * n for _ in range(m)]
    for a in range(m):
        row, new_row = mul[a], new_mul[rho[a]]
        for b in range(m):
            new_row[rho[b]] = rho[row[b]]
        row, new_row = act[a], new_act[rho[a]]
        for x in range(n):
            new_row[pi[x]] = pi[row[x]]
    return new_mul, new_act


def table_doc(mul, act):
    return {"group": {"kind": "table", "mul": mul}, "degree": len(act[0]), "act": act}


def identity_of(mul):
    want = list(range(len(mul)))
    return next(e for e, row in enumerate(mul) if row == want)


# ---------------------------------------------------------------------------
# planted defects


def plant_nonassociative(rng, mul):
    """Swap an intercalate g.h, g.th / gt.h, gt.th for an involution t.

    The result is still a Latin square with the same identity and inverses,
    so group validation gets as far as associativity and must fail there.
    """
    m = len(mul)
    e = identity_of(mul)
    involutions = [t for t in range(m) if t != e and mul[t][t] == e]
    while True:
        t, g, h = rng.choice(involutions), rng.randrange(m), rng.randrange(m)
        gt, th = mul[g][t], mul[t][h]
        if e in (g, gt, h, th, mul[g][h], mul[g][th]):
            continue
        bad = [list(row) for row in mul]
        bad[g][h], bad[g][th] = mul[g][th], mul[g][h]
        bad[gt][h], bad[gt][th] = mul[gt][th], mul[gt][h]
        if any(bad[bad[g][h]][c] != bad[g][bad[h][c]] for c in range(m)):
            return bad


def plant_incompatible(rng, mul, act):
    """Swap two images in one non-identity row; every row stays a
    permutation, so only the compatibility loop can catch it."""
    m, n = len(act), len(act[0])
    e = identity_of(mul)
    while True:
        r, x, y = rng.randrange(m), rng.randrange(n), rng.randrange(n)
        if r == e or act[r][x] == act[r][y]:
            continue
        bad = [list(row) for row in act]
        bad[r][x], bad[r][y] = act[r][y], act[r][x]
        if any(
            bad[mul[r][b]][z] != bad[r][bad[b][z]] for b in range(m) for z in range(n)
        ):
            return bad


# ---------------------------------------------------------------------------
# writing


class Files:
    def __init__(self, directory: Path):
        self.directory = directory
        directory.mkdir(parents=True, exist_ok=True)

    def write(self, name, doc) -> str:
        path = self.directory / name
        path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")), encoding="utf-8")
        return str(path)


def _exact(doc):
    return ("exact", 0, oracle.render(doc).encode("utf-8"))


# ---------------------------------------------------------------------------
# closure: permutation-form evaluation documents

def signed_gens(k):
    """The hyperoctahedral group C2 wr Sym(k) on the 2k points +i, -i."""
    flip = transposition(2 * k, 0, k)
    return [flip] + [tuple(list(g) + [k + x for x in g]) for g in symmetric_gens(k)]


def cyclic_gens(n):
    return [tuple(list(range(1, n)) + [0])]


# name: (degree, generators); orders run from 120 to 720 with no big gaps,
# and the command list below puts the median and the tail percentile inside
# a run of commands of similar cost (about 0.25 s here), not on a step
# between clusters
CLOSURE_FAMILIES = {
    "S6": (6, symmetric_gens(6)),
    "S4xS4": (8, disjoint_product((4, symmetric_gens(4)), (4, symmetric_gens(4)))),
    "S5xC4": (9, disjoint_product((5, symmetric_gens(5)), (4, cyclic_gens(4)))),
    "S3xA4xS3": (10, disjoint_product((3, symmetric_gens(3)), (4, alternating_gens(4)), (3, symmetric_gens(3)))),
    "C2wrS4": (8, signed_gens(4)),
    "A6": (6, alternating_gens(6)),
    "S4xS3xS2": (9, disjoint_product((4, symmetric_gens(4)), (3, symmetric_gens(3)), (2, symmetric_gens(2)))),
    "S5xS2": (7, disjoint_product((5, symmetric_gens(5)), (2, symmetric_gens(2)))),
    "S3xS3xS3": (9, disjoint_product(*[(3, symmetric_gens(3))] * 3)),
    "S3xS4": (7, disjoint_product((3, symmetric_gens(3)), (4, symmetric_gens(4)))),
    "S5": (5, symmetric_gens(5)),
    "S5-pairs": (10, on_pairs(5, symmetric_gens(5))),
}

CLOSURE_COMMANDS = [
    ("S6", "orbits"),
    ("S4xS4", "orbits"),
    ("S5xC4", "orbits"),
    ("S3xA4xS3", "orbits"),
    ("S3xA4xS3", "dimension-sub"),
    ("C2wrS4", "orbits"),
    ("C2wrS4", "dimension-sub"),
    ("C2wrS4", "equivalence"),
    ("A6", "orbits"),
    ("A6", "dimension-sub"),
    ("A6", "free-check"),
    ("S4xS3xS2", "orbits"),
    ("S4xS3xS2", "dimension-sub"),
    ("S5xS2", "orbits"),
    ("S5xS2", "equivalence"),
    ("S3xS3xS3", "orbits"),
    ("S3xS3xS3", "dimension-sub"),
    ("S3xS4", "orbits"),
    ("S3xS4", "free-check"),
    ("S5", "orbits"),
    ("S5", "dimension"),
    ("S5", "dimension-sub"),
    ("S5-pairs", "orbits"),
    ("S5-pairs", "free-check"),
]

# cell sizes of the from-partition inputs (the rest of the points are
# singletons) and whether --minimal-generators is passed
PARTITIONS = [
    (12, (4, 3, 2), False),
    (12, (5, 2), True),
    (12, (5, 2), False),
    (12, (4, 3), False),
    (12, (4, 2, 2), True),
]


def _closure(rng, files):
    docs = {}
    for name, (degree, base) in CLOSURE_FAMILIES.items():
        sigma = random_perm(rng, degree)
        gens = [conjugate_by(sigma, g) for g in base]
        path = files.write(f"{name}.json", evaluation_doc(degree, gens))
        docs[name] = (degree, gens, closure(degree, gens), path)

    commands = []
    for name, kind in CLOSURE_COMMANDS:
        degree, gens, elements, path = docs[name]
        m = len(elements)
        label = f"{kind} {name}"
        tags = ("from_generators S6",) if (name, kind) == ("S6", "orbits") else ()
        if kind == "orbits":
            check = _exact(oracle.orbits_doc(orbit_cells(degree, gens)))
            argv = ["orbits", "--input", path]
        elif kind == "dimension":
            check = _exact(oracle.dimension_doc(degree, elements, gens, m))
            argv = ["dimension", "--input", path]
        elif kind == "dimension-sub":
            seeds = sorted(rng.sample(range(1, m), 2))
            members, sub_gens = subgroup_members(elements, seeds)
            check = _exact(oracle.dimension_doc(degree, members, sub_gens, m))
            argv = ["dimension", "--input", path, "--subgroup", ",".join(map(str, seeds))]
        elif kind == "free-check":
            is_free = not any(oracle.fixed_points(p) for p in elements[1:])
            check = ("free", 0, (elements, 0, is_free))
            argv = ["free-check", "--input", path]
        else:  # equivalence with a relabeled twin, whose closure has the same table
            sigma = random_perm(rng, degree)
            twin = [conjugate_by(sigma, g) for g in gens]
            twin_path = files.write(f"{name}-twin.json", evaluation_doc(degree, twin))
            check = ("equivalence", 0, (elements, closure(degree, twin)))
            argv = ["equivalence", "--input", path, "--input", twin_path]
        commands.append(Command(label, argv, check, tags))

    for i, (degree, sizes, minimal) in enumerate(PARTITIONS):
        points = random_perm(rng, degree)
        cells, start = [], 0
        for size in sizes + (1,) * (degree - sum(sizes)):
            cells.append(points[start : start + size])
            start += size
        path = files.write(f"partition-{i}.json", {"degree": degree, "cells": cells})
        norm = sorted((sorted(c) for c in cells), key=lambda c: c[0])
        generators = []
        for cell in norm:
            pairs = zip(cell, cell[1:]) if minimal else itertools.combinations(cell, 2)
            generators += [transposition(degree, x, y) for x, y in pairs]
        expected = {
            "order": math.prod(math.factorial(len(c)) for c in norm),
            "degree": degree,
            "orbit_cells": norm,
            "round_trip": "ok",
            "cell_preserving_membership": "ok",
        }
        argv = ["from-partition", "--input", path] + (["--minimal-generators"] if minimal else [])
        label = "from-partition " + "+".join(map(str, sizes))
        commands.append(Command(label, argv, ("partition", 0, (expected, generators))))
    return commands


# ---------------------------------------------------------------------------
# tables, part 1: table-form documents as corpus build writes them

VALIDATE_FAMILIES = {
    "conj-S5": lambda: conjugation_table(perm_group(5, symmetric_gens(5))),
    "conj-A5xC3": lambda: conjugation_table(product(perm_group(5, alternating_gens(5)), cyclic(3))),
    "conj-S4xS3": lambda: conjugation_table(
        product(perm_group(4, symmetric_gens(4)), perm_group(3, symmetric_gens(3)))
    ),
    "GL23-vectors": lambda: gl2_on_vectors(3, 1),
}

VALIDATE_COMMANDS = [
    ("conj-S5", "validate"),
    ("conj-S5", "orbits"),
    ("conj-S5", "dimension"),
    ("conj-S5", "dimension-sub"),
    ("conj-S5", "free-check"),
    ("conj-A5xC3", "validate"),
    ("conj-A5xC3", "orbits"),
    ("conj-S4xS3", "validate"),
    ("conj-S4xS3", "orbits"),
    ("conj-S4xS3", "dimension"),
    ("conj-S4xS3", "free-check"),
    ("GL23-vectors", "validate"),
    ("GL23-vectors", "orbits"),
    ("GL23-vectors", "dimension"),
    ("GL23-vectors", "dimension-sub"),
    ("GL23-vectors", "free-check"),
]

# planted defects: (family, error kind); each document is run by
# ``validate`` and by ``orbits``, and both must exit 2
VALIDATE_DEFECTS = [
    ("conj-S5", "NotAssociative"),
    ("conj-S4xS3", "NotAssociative"),
    ("conj-S5", "CompatibilityViolated"),
    ("conj-S4xS3", "CompatibilityViolated"),
]


def _validate(rng, files):
    docs = {}
    for name, make in VALIDATE_FAMILIES.items():
        mul, act = relabel(rng, *make())
        docs[name] = (mul, act, files.write(f"{name}.json", table_doc(mul, act)))

    commands = []
    for name, kind in VALIDATE_COMMANDS:
        mul, act, path = docs[name]
        m, n = len(mul), len(act[0])
        e = identity_of(mul)
        argv = [kind.replace("dimension-sub", "dimension"), "--input", path]
        tags = ("validate_action conj S5",) if (name, kind) == ("conj-S5", "validate") else ()
        if kind == "validate":
            check = _exact({"valid": True, "group_order": m, "degree": n})
        elif kind == "orbits":
            check = _exact(oracle.orbits_doc(orbit_cells(n, act)))
        elif kind == "dimension":
            check = _exact(oracle.dimension_doc(n, act, act, m))
        elif kind == "dimension-sub":
            seeds = sorted(rng.sample([a for a in range(m) if a != e], 2))
            members = _table_subgroup(mul, e, seeds)
            rows = [act[a] for a in members]
            check = _exact(oracle.dimension_doc(n, rows, [act[s] for s in seeds], m))
            argv += ["--subgroup", ",".join(map(str, seeds))]
        else:
            is_free = not any(oracle.fixed_points(row) for a, row in enumerate(act) if a != e)
            check = ("free", 0, (act, e, is_free))
        commands.append(Command(f"{kind} {name}", argv, check, tags))

    for i, (name, kind) in enumerate(VALIDATE_DEFECTS):
        mul, act, _ = docs[name]
        if kind == "NotAssociative":
            mul = plant_nonassociative(rng, mul)
        else:
            act = plant_incompatible(rng, mul, act)
        path = files.write(f"defect-{i}.json", table_doc(mul, act))
        for command in ("validate", "orbits"):
            check = ("defect", 2, (kind, mul, act))
            commands.append(Command(f"{command} {name} {kind}", [command, "--input", path], check))
    return commands


def _table_subgroup(mul, e, seeds):
    members = {e}
    frontier = [e]
    while frontier:
        nxt = []
        for a in frontier:
            for s in seeds:
                b = mul[a][s]
                if b not in members:
                    members.add(b)
                    nxt.append(b)
        frontier = nxt
    return sorted(members)


# ---------------------------------------------------------------------------
# tables, part 2: small groups on thousands of points

FUNCTION_FAMILIES = {
    "S4-words6": lambda: letters_on_words(4, 6, False),
    "C2xS4-words5": lambda: letters_on_words(4, 5, True),
    "S3-words7": lambda: letters_on_words(3, 7, False),
    "GL23-vectors3": lambda: gl2_on_vectors(3, 3),
}

DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 9, 10, 12)


def _random_scalar(rng):
    return (
        Fraction(rng.randint(-99, 99), rng.choice(DENOMINATORS)),
        Fraction(rng.randint(-99, 99), rng.choice(DENOMINATORS)),
    )


def _invariant_on(rng, cells, chosen, points):
    """Values constant on each chosen orbit, listed by position in ``points``."""
    position = {y: i for i, y in enumerate(points)}
    values = [None] * len(points)
    for i in chosen:
        value = _random_scalar(rng)
        for x in cells[i]:
            values[position[x]] = value
    return values


def _functions(rng, files):
    commands = []
    for name, make in FUNCTION_FAMILIES.items():
        mul, act = relabel(rng, *make())
        n = len(act[0])
        path = files.write(f"{name}.json", table_doc(mul, act))
        cells = orbit_cells(n, act)
        f = [_random_scalar(rng) for _ in range(n)]
        g = _invariant_on(rng, cells, range(len(cells)), range(n))
        f_path = files.write(f"{name}-f.json", oracle.values_doc(f))
        g_path = files.write(f"{name}-g.json", oracle.values_doc(g))
        expected = {
            "fourier": (oracle.fourier_doc(cells, f), f_path),
            "bessel": (oracle.bessel_doc(cells, f), f_path),
            "decompose": (oracle.decompose_doc(cells, f), f_path),
            "bessel-invariant": (oracle.bessel_doc(cells, g), g_path),
        }
        if name == "S4-words6":
            # the largest document keeps bessel and reciprocity only, to hold the pass short
            expected = {k: v for k, v in expected.items() if k in ("bessel", "bessel-invariant")}
        for kind, (doc, function_path) in expected.items():
            argv = [kind.split("-")[0], "--input", path, "--function", function_path]
            commands.append(Command(f"{kind} {name}", argv, _exact(doc)))
        # reciprocity on an invariant subset: seeded orbits covering half the points
        order, chosen, size = random_perm(rng, len(cells)), [], 0
        while size < n // 2:
            chosen.append(order.pop())
            size += len(cells[chosen[-1]])
        chosen.sort()
        subset = sorted(x for c in chosen for x in cells[c])
        f_on_y = _invariant_on(rng, cells, chosen, subset)
        fy_path = files.write(f"{name}-f-on-y.json", dict(oracle.values_doc(f_on_y), subset=subset))
        doc = oracle.reciprocity_doc(cells, subset, f_on_y, g)
        argv = [
            "reciprocity", "--input", path, "--subset", ",".join(map(str, subset)),
            "--function", fy_path, "--function", g_path,
        ]
        commands.append(Command(f"reciprocity {name}", argv, _exact(doc)))
    return commands


# ---------------------------------------------------------------------------
# tables, part 3: corpus builds, full table documents on stdout

# (name, [same-size parameter variants], order, degree, orbit count, copies)
CORPUS_ENTRIES = [
    ("sylow", [{"group": "s4", "p": 2}, {"group": "s4", "p": 3}], 24, None, 1, 3),
    ("symmetric", [{"n": 5}], 120, 5, 1, 2),
    ("gl_on_vectors", [{"q": 3}], 48, 9, 2, 2),
    ("conjugation", [{"group": "s5"}], 120, 120, 7, 3),
    ("conjugation", [{"group": "c2xs5"}, {"group": "s5xc2"}], 240, 240, 14, 3),
    ("two_sided", [{"group": "d10"}], 400, 20, 1, 2),
    ("two_sided", [{"group": "s4"}, {"group": "d12"}], 576, 24, 1, 2),
    ("symmetric", [{"n": 6}], 720, 6, 1, 1),
]

# Sylow subgroup counts of S4, the degree of its Sylow action
SYLOW_S4 = {2: 3, 3: 4}


def _corpus_build(rng, files):
    commands = []
    for name, variants, order, degree, orbit_count, copies in CORPUS_ENTRIES:
        for _ in range(copies):
            params = rng.choice(variants)
            argv = ["corpus", "build", name]
            for key, value in params.items():
                argv += ["--param", f"{key}={value}"]
            shown = dict(params, n=2) if name == "gl_on_vectors" else params
            n = SYLOW_S4[params["p"]] if name == "sylow" else degree
            check = ("corpus", 0, (name, shown, order, n, orbit_count))
            label = " ".join(["corpus build", name] + argv[4::2])
            tags = ("corpus build symmetric n=6",) if params == {"n": 6} else ()
            commands.append(Command(label, argv, check, tags))
    rng.shuffle(commands)
    return commands


# ---------------------------------------------------------------------------
# layer probes for the traced run


def layer_probes(directory: Path):
    """Nine small commands that enter every traced layer: the traced run
    appends them to each pass, so that no per-layer reading is an unmeasured
    zero. They are the same for every workload and seed."""
    files = Files(Path(directory))
    rng = random.Random("orbitspace-perfbench:probes")
    mul, act = conjugation_table(perm_group(3, symmetric_gens(3)))
    n = len(act[0])
    table = files.write("probe-table.json", table_doc(mul, act))
    cells = orbit_cells(n, act)
    f = [_random_scalar(rng) for _ in range(n)]
    g = _invariant_on(rng, cells, range(len(cells)), range(n))
    subset = sorted(cells[0] + cells[1])
    f_on_y = _invariant_on(rng, cells, (0, 1), subset)
    f_path = files.write("probe-f.json", oracle.values_doc(f))
    g_path = files.write("probe-g.json", oracle.values_doc(g))
    fy_path = files.write("probe-f-on-y.json", dict(oracle.values_doc(f_on_y), subset=subset))
    gens = symmetric_gens(3)
    perm = files.write("probe-s3.json", evaluation_doc(3, gens))
    elements = closure(3, gens)
    members, sub_gens = subgroup_members(elements, [1])
    partition = files.write("probe-partition.json", {"degree": 4, "cells": [[0, 1], [2, 3]]})
    expected_partition = {
        "order": 4,
        "degree": 4,
        "orbit_cells": [[0, 1], [2, 3]],
        "round_trip": "ok",
        "cell_preserving_membership": "ok",
    }
    function = ["--input", table, "--function", f_path]
    return [
        Command("probe validate", ["validate", "--input", table], _exact({"valid": True, "group_order": 6, "degree": 6})),
        Command("probe fourier", ["fourier", *function], _exact(oracle.fourier_doc(cells, f))),
        Command("probe bessel", ["bessel", *function], _exact(oracle.bessel_doc(cells, f))),
        Command("probe decompose", ["decompose", *function], _exact(oracle.decompose_doc(cells, f))),
        Command(
            "probe reciprocity",
            ["reciprocity", "--input", table, "--subset", ",".join(map(str, subset)),
             "--function", fy_path, "--function", g_path],
            _exact(oracle.reciprocity_doc(cells, subset, f_on_y, g)),
        ),
        Command(
            "probe dimension",
            ["dimension", "--input", perm, "--subgroup", "1"],
            _exact(oracle.dimension_doc(3, members, sub_gens, len(elements))),
        ),
        Command("probe equivalence", ["equivalence", "--input", perm, "--input", perm], ("equivalence", 0, (elements, elements))),
        Command(
            "probe from-partition",
            ["from-partition", "--input", partition],
            ("partition", 0, (expected_partition, [transposition(4, 0, 1), transposition(4, 2, 3)])),
        ),
        Command(
            "probe corpus build",
            ["corpus", "build", "cyclic_translation", "--param", "n=3"],
            ("corpus", 0, ("cyclic_translation", {"n": 3}, 3, 3, 1)),
        ),
    ]


def _tables(rng, files):
    """Table-form documents in three parts: validation (with planted
    defects), functions on many points, and corpus builds."""
    return _validate(rng, files) + _functions(rng, files) + _corpus_build(rng, files)


_BUILDERS = {
    "closure": _closure,
    "tables": _tables,
}


def build(workload: str, seed: int, directory: Path):
    """Write the inputs of one workload and return its per-pass command list."""
    rng = random.Random(f"orbitspace-perfbench:{workload}:{seed}")
    return _BUILDERS[workload](rng, Files(Path(directory)))
