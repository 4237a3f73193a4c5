"""Seeded case lists for the benchmark workloads, with their answer checks.

Every case is one ``maq`` command line.  The program receives only
builtin specs and the complex and subgroup files written here; the
expected answers come from a second pathway (a closed form, Kunneth over
a join, Hochster's formula, the cell census or Stanley-Reisner counts),
computed once in set-up and never timed.

Cases are chosen from seeded random pools by a combinatorial size proxy
that this file computes itself, so a case list does not depend on how
fast the program is, and two seeds give lists of nearly equal cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from math import comb, gcd, log

WORKLOADS = ("cellular", "koszul", "limit")


@dataclass
class Case:
    name: str       # stable label; unique within a workload
    argv: list      # maq command line
    check: object   # callable(report dict) -> None, or a mismatch message
    files: dict = field(default_factory=dict)   # path -> text to write


# ---------------------------------------------------------------------------
# abelian groups as {degree: (rank, sorted prime-power torsion)}
# ---------------------------------------------------------------------------

def _prime_powers(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            out.append(q)
        p += 1
    if n > 1:
        out.append(n)
    return out


def group(rank, *torsion):
    return (rank, tuple(sorted(q for t in torsion for q in _prime_powers(t))))


def canon(groups):
    """Canonical form of a report's ``groups`` block; drops trivial degrees."""
    out = {}
    for d, g in groups.items():
        rank, tors = group(g["rank"], *g.get("torsion", ()))
        if rank or tors:
            out[int(d)] = (rank, tors)
    return out


def _add(out, deg, rank, tors):
    if rank or tors:
        r0, t0 = out.get(deg, (0, ()))
        out[deg] = (r0 + rank, tuple(sorted(t0 + tuple(tors))))


def kunneth(A, B):
    """Cohomology of X x Y from that of X and Y (Tor terms one degree down)."""
    out = {}
    for p, (ra, ta) in A.items():
        for q, (rb, tb) in B.items():
            cross = [gcd(a, b) for a in ta for b in tb if gcd(a, b) > 1]
            _add(out, p + q, ra * rb, list(tb) * ra + list(ta) * rb + cross)
            _add(out, p + q - 1, 0, cross)
    return out


def sphere(m):
    """Moment-angle complex of the boundary of the (m-1)-simplex: S^(2m-1)."""
    return {0: group(1), 2 * m - 1: group(1)}


def lens(m, n):
    """Lens space S^(2m-1)/(Z/n)."""
    out = {0: group(1), 2 * m - 1: group(1)}
    for k in range(1, m):
        out[2 * k] = group(0, n)
    return out


def real_projective(dim):
    out = {0: group(1)}
    for k in range(2, dim + 1, 2):
        out[k] = group(0, 2)
    if dim % 2:
        out[dim] = group(1)
    return out


def skeleton_wedge(m, k):
    """The moment-angle complex of a simplex skeleton is a wedge of spheres."""
    out = {0: group(1)}
    for j in range(k + 2, m + 1):
        mult = comb(m, j) * comb(j - 1, k + 1)
        if mult:
            _add(out, k + j + 1, mult, ())
    return out


# ---------------------------------------------------------------------------
# complexes as (m, facets); facets are frozensets of vertices 1..m
# ---------------------------------------------------------------------------

def random_complex(rng, m):
    """The distribution of the acceptance tests' random complexes."""
    facets = []
    for _ in range(rng.randint(1, 2 * m)):
        size = rng.randint(1, max(1, m - 1))
        facets.append(frozenset(rng.sample(range(1, m + 1), size)))
    return m, facets


def faces(facets):
    out = {frozenset()}
    for f in facets:
        vs = sorted(f)
        for r in range(1, len(vs) + 1):
            out.update(frozenset(c) for c in combinations(vs, r))
    return out


def join(A, B):
    (m1, f1), (m2, f2) = A, B
    return m1 + m2, [a | frozenset(v + m1 for v in b) for a in f1 for b in f2]


def complex_text(K):
    m, facets = K
    lines = ["m=%d" % m]
    lines += [" ".join(map(str, sorted(f))) for f in facets]
    return "\n".join(lines) + "\n"


def subgroup_text(d, rows):
    head = "d=2\nannihilator:\n" if d == 2 else "d=1\nsubspace:\n"
    return head + "".join(" ".join(map(str, r)) + "\n" for r in rows)


def skeleton(m, k):
    return m, [frozenset(c) for c in combinations(range(1, m + 1), k + 1)]


def boundary_simplex(m):
    return skeleton(m, m - 2)


# kept here rather than taken from maq.constructions, so that the case
# lists never depend on the program under test
RP2_6 = (6, [frozenset(f) for f in (
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6))])


def sr_dims(face_set, d, max_degree):
    """Face-ring dimensions (generators in degree d) up to max_degree."""
    sizes = [len(f) for f in face_set if f]
    out = {}
    for n in range(0, max_degree + 1, d):
        k = n // d
        out[n] = 1 if k == 0 else sum(comb(k - 1, s - 1)
                                      for s in sizes if s <= k)
    return out


# ---------------------------------------------------------------------------
# size proxies: each grows with the cost of its pathway at the seed commit
# ---------------------------------------------------------------------------

def hochster_cells(K):
    """Cells summed over all full subcomplexes."""
    m, facets = K
    return sum(1 << (m - len(f)) for f in faces(facets))


def koszul_pairs(K, nforms):
    """Sum over degrees of (cells in n) x (cells in n+1) of the Koszul
    complex, over the CLI's default degree range and one degree past it."""
    m, facets = K
    fs = faces(facets)
    sizes = [len(f) for f in fs if f]
    top = m + max(sizes) + 1

    def monos(k):
        if k == 0:
            return 1
        return sum(comb(k - 1, s - 1) for s in sizes if s <= k)

    cells = []
    for n in range(top + 2):
        cells.append(sum(comb(nforms, p) * monos((n - p) // 2)
                         for p in range(min(nforms, n) + 1)
                         if (n - p) % 2 == 0))
    return sum(a * b for a, b in zip(cells, cells[1:]))


def limit_gens(K, max_degree=10, step=2, span=()):
    """Sum over degrees of the squared generator count of the product of
    the face values; ``span`` is a d=1 subgroup (step 1), which lowers the
    rank at faces that contain part of it."""
    m, facets = K
    elements = {0}
    for v in span:
        elements |= {e ^ v for e in elements}
    ranks = []
    for f in faces(facets):
        fm = sum(1 << (i - 1) for i in f)
        inside = sum(1 for e in elements if not e & ~fm)
        ranks.append(len(f) - inside.bit_length() + 1)
    total = 0
    for k in range(max_degree // step + 1):
        n = sum(comb(k + r - 1, r - 1) if r else int(k == 0) for r in ranks)
        total += n * n
    return total


def pick(rng, draw, proxy, target, tries):
    """The draw whose proxy is nearest to target (on a log scale)."""
    best = None
    for _ in range(tries):
        x = draw(rng)
        score = abs(log(max(proxy(x), 1) / target))
        if best is None or score < best[0]:
            best = (score, x)
    return best[1]


# ---------------------------------------------------------------------------
# answer checks
# ---------------------------------------------------------------------------

def expect_groups(want):
    def check(report):
        got = canon(report["groups"])
        if got != want:
            return "groups %s, expected %s" % (sorted(got.items()),
                                               sorted(want.items()))
        return None
    return check


def expect_dims(want, d):
    """Limit dimensions (ranks for d=2, F2 dimensions for d=1) per degree."""
    def check(report):
        got = canon(report["groups"])
        for n, dim in want.items():
            rank, tors = got.get(n, (0, ()))
            have = rank if d == 2 else rank + len(tors)
            if have != dim:
                return "degree %d has dimension %d, expected %d" % (n, have,
                                                                    dim)
        return None
    return check


def expect_even_connected(report):
    """d=2 limits vanish in odd degrees and are Z in degree 0."""
    got = canon(report["groups"])
    odd = [n for n in got if n % 2]
    if odd:
        return "nonzero odd degrees %s" % odd
    if got.get(0) != group(1):
        return "degree 0 is %s, expected Z" % (got.get(0),)
    return None


def expect_euler(chi):
    def check(report):
        got = canon(report["groups"])
        have = sum((-1) ** n * r for n, (r, _) in got.items())
        if have != chi:
            return "Euler characteristic %d, census gives %d" % (have, chi)
        return None
    return check


def expect_pipeline(report):
    rep = report["report"]
    want = {"m": 7, "M": 21, "q": 9, "quotient_dim": 26, "free": True}
    got = {k: rep.get(k) for k in want}
    if got != want or not rep["sphere_sanity"]["passed"]:
        return "pipeline report %s, expected %s" % (got, want)
    return None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class _Builder:
    def __init__(self, workload, seed, workdir, maq):
        # the heaviest cases come from a fixed stream, so the cost of a
        # run does not swing with the seed; the seed varies the rest
        self.core = random.Random(repr((workload, "core")))
        self.rng = random.Random(repr((workload, seed)))
        self.workdir = workdir
        self.maq = maq
        self.cases = []

    def file(self, case_files, stem, text):
        path = "%s/%s-%d.txt" % (self.workdir, stem, len(self.cases))
        case_files[path] = text
        return path

    def add(self, name, argv, check, files=None):
        self.cases.append(Case(name, argv, check, files or {}))

    def hochster_oracle(self, K):
        return canon(self.maq.hochster(
            self.maq.SimplicialComplex(*K)).to_json())

    def compatible(self, K, H):
        return self.maq.check_condition1(self.maq.SimplicialComplex(*K), H)[0]


def _free_d1(K, span):
    """Whether the F2 span meets each facet's coordinate subspace trivially."""
    m, facets = K
    elements = {0}
    for v in span:
        elements |= {e ^ v for e in elements}
    masks = [sum(1 << (i - 1) for i in f) for f in facets]
    return all(e & ~fm for e in elements if e for fm in masks)


def _bits(v, m):
    return [(v >> i) & 1 for i in range(m)]


def _lens_rows(m, n, w):
    """Annihilator of Z/n acting with weights w (w[0] a unit mod n)."""
    inv = pow(w[0], -1, n)
    rows = [[n] + [0] * (m - 1)]
    for i in range(1, m):
        row = [0] * m
        row[0], row[i] = -(w[i] * inv % n), 1
        rows.append(row)
    return rows


def _unit_weights(rng, m, n):
    units = [u for u in range(1, n) if gcd(u, n) == 1]
    return [rng.choice(units) for _ in range(m)]


def cellular(b):
    b.add("hochster:boundary_simplex(8)",
          ["hochster", "builtin:boundary_simplex(8)"],
          expect_groups(sphere(8)))
    for m, k in ((8, 1), (8, 3), (9, 2)):
        b.add("hochster:skeleton(%d,%d)" % (m, k),
              ["hochster", "builtin:skeleton(%d,%d)" % (m, k)],
              expect_groups(skeleton_wedge(m, k)))
    files = {}
    sub = b.file(files, "diag", subgroup_text(1, [[1] * 7]))
    b.add("cubical:boundary_simplex(7)",
          ["quotient-cohomology", "--complex", "builtin:boundary_simplex(7)",
           "--subgroup", sub], expect_groups(real_projective(6)), files)
    b.add("torsion-build:rp2_6",
          ["torsion-build", "--input", "builtin:rp2_6", "--p", "2"],
          expect_pipeline)

    def draw_join(r):
        m = r.randint(8, 10)
        m1 = r.randint(3, m // 2)
        A, B = random_complex(r, m1), random_complex(r, m - m1)
        return A, B, join(A, B)

    def draw_rp2_join(r):
        B = random_complex(r, r.randint(2, 4))
        return RP2_6, B, join(RP2_6, B)

    def join_cells(x):
        # every face of a join is a face of K1 joined with a face of K2
        return hochster_cells(x[0]) * hochster_cells(x[1])

    # a plateau of joins near the tail case and one near the median case
    draws = [(draw_join, 5000)] * 8 + [(draw_rp2_join, 5000)] + \
        [(draw_join, 1200)] * 28
    for slot, (draw, target) in enumerate(draws):
        A, B, K = pick(b.rng, draw, join_cells, target, 60)
        want = kunneth(b.hochster_oracle(A), b.hochster_oracle(B))
        files = {}
        path = b.file(files, "join", complex_text(K))
        b.add("hochster:join#%d" % slot, ["hochster", path],
              expect_groups(want), files)

    def draw_cubical(r):
        m = r.randint(6, 8)
        K = random_complex(r, m)
        span = [r.randrange(1, 1 << m) for _ in range(r.randint(1, 3))]
        if not _free_d1(K, span):
            return K, span, 0
        return K, span, sum(1 << (m - len(f)) for f in faces(K[1]))

    for slot in range(8):
        K, span, _ = pick(b.rng, draw_cubical, lambda x: x[2], 500, 40)
        m = K[0]
        H = b.maq.TorusSubgroup.from_f2_span(m, span)
        _, chi = b.maq.cw_census(b.maq.SimplicialComplex(*K), H)
        files = {}
        cpath = b.file(files, "cubK", complex_text(K))
        spath = b.file(files, "cubH", subgroup_text(
            1, [_bits(v, m) for v in span]))
        b.add("cubical:random#%d" % slot,
              ["quotient-cohomology", "--complex", cpath, "--subgroup", spath],
              expect_euler(chi), files)


def koszul(b):
    def draw(r):
        return random_complex(r, r.randint(5, 6))

    def draw5(r):
        # at one size, m = 5 complexes vary far less in cost than m = 6
        return random_complex(r, 5)

    def add_trivial(name, rng, target, draw=draw):
        K = pick(rng, draw, lambda K: koszul_pairs(K, K[0]), target, 60)
        m = K[0]
        files = {}
        cpath = b.file(files, "kosK", complex_text(K))
        spath = b.file(files, "kosH", subgroup_text(
            2, [[int(i == j) for j in range(m)] for i in range(m)]))
        b.add(name,
              ["quotient-cohomology", "--complex", cpath, "--subgroup", spath],
              expect_groups(b.hochster_oracle(K)), files)

    for slot, target in enumerate((6e6, 1e7, 1.6e7, 2.4e7)):
        add_trivial("koszul:heavy#%d" % slot, b.core, target)
    # a plateau around the tail case and one near the median case
    for slot in range(6):
        add_trivial("koszul:trivial#%d" % slot, b.rng, 1e6, draw5)
    for slot in range(36):
        add_trivial("koszul:small#%d" % slot, b.rng, 2e5, draw5)

    for slot, m in enumerate((4, 4, 5, 5)):
        n = b.rng.randint(2, 7)
        rows = _lens_rows(m, n, _unit_weights(b.rng, m, n))
        files = {}
        spath = b.file(files, "lensH", subgroup_text(2, rows))
        b.add("koszul:lens#%d" % slot,
              ["quotient-cohomology", "--complex",
               "builtin:boundary_simplex(%d)" % m, "--subgroup", spath],
              expect_groups(lens(m, n)), files)

    for slot, (m1, m2) in enumerate(((2, 2), (2, 3), (2, 2), (2, 3))):
        n1, n2 = b.rng.randint(2, 6), b.rng.randint(2, 6)
        r1 = _lens_rows(m1, n1, _unit_weights(b.rng, m1, n1))
        r2 = _lens_rows(m2, n2, _unit_weights(b.rng, m2, n2))
        rows = [a + [0] * m2 for a in r1] + [[0] * m1 + c for c in r2]
        K = join(boundary_simplex(m1), boundary_simplex(m2))
        files = {}
        cpath = b.file(files, "lpK", complex_text(K))
        spath = b.file(files, "lpH", subgroup_text(2, rows))
        b.add("koszul:lens_product#%d" % slot,
              ["quotient-cohomology", "--complex", cpath, "--subgroup", spath],
              expect_groups(kunneth(lens(m1, n1), lens(m2, n2))), files)


def limit(b):
    rng = b.rng
    TorusSubgroup = b.maq.TorusSubgroup

    def draw(r):
        return random_complex(r, r.randint(4, 6))

    def add(name, K, d, rows, max_degree, check):
        files = {}
        cpath = b.file(files, "limK", complex_text(K))
        spath = b.file(files, "limH", subgroup_text(d, rows))
        b.add(name, ["equivariant", "--complex", cpath, "--subgroup", spath,
                     "--max-degree", str(max_degree)], check, files)

    def add_trivial(name, rng, target):
        K = pick(rng, draw, limit_gens, target, 60)
        m = K[0]
        rows = [[int(i == j) for j in range(m)] for i in range(m)]
        add(name, K, 2, rows, 10, expect_dims(sr_dims(faces(K[1]), 2, 10), 2))

    for slot, target in enumerate((2.5e5, 5e5)):
        add_trivial("limit:heavy#%d" % slot, b.core, target)
    # a plateau near the tail case (with the random subgroups below) and
    # one near the median case
    for slot in range(6):
        add_trivial("limit:d2_trivial#%d" % slot, rng, 1e5)
    for slot in range(28):
        add_trivial("limit:d2_small#%d" % slot, rng, 3.3e4)

    for slot in range(6):
        K = pick(rng, draw, limit_gens, 1e5, 60)
        m = K[0]
        while True:
            rows = [[rng.randint(-2, 2) for _ in range(m)]
                    for _ in range(rng.randint(1, m))]
            if any(any(r) for r in rows) and b.compatible(
                    K, TorusSubgroup.from_annihilator(m, rows)):
                break
        add("limit:d2_random#%d" % slot, K, 2, rows, 10,
            expect_even_connected)

    for slot in range(4):
        K = pick(rng, draw, limit_gens, 1e5, 60)
        m = K[0]
        I0 = set(rng.sample(range(1, m + 1), rng.randint(1, m - 1)))
        rows = [[int(i == j) for j in range(m)] for i in range(m)
                if i + 1 not in I0]
        contracted = {f - I0 for f in faces(K[1])}
        add("limit:d2_coordinate#%d" % slot, K, 2, rows, 10,
            expect_dims(sr_dims(contracted, 2, 10), 2))

    def draw_d1(r, coordinate):
        K = random_complex(r, r.randint(4, 5))
        m = K[0]
        while True:
            if coordinate:
                I0 = r.sample(range(1, m + 1), r.randint(1, m - 1))
                span = [1 << (v - 1) for v in sorted(I0)]
            else:
                span = [r.randrange(1, 1 << m) for _ in range(r.randint(1, 2))]
            if b.compatible(K, TorusSubgroup.from_f2_span(m, span)):
                return K, span

    def d1_proxy(x):
        return limit_gens(x[0], x[0][0], 1, x[1])

    for slot in range(4):
        K, span = pick(rng, lambda r: draw_d1(r, True), d1_proxy, 5000, 10)
        m = K[0]
        I0 = {v + 1 for v in range(m) if any(s >> v & 1 for s in span)}
        contracted = {f - I0 for f in faces(K[1])}
        add("limit:d1_coordinate#%d" % slot, K, 1,
            [_bits(v, m) for v in span], m,
            expect_dims(sr_dims(contracted, 1, m), 1))

    for slot in range(4):
        K, span = pick(rng, lambda r: draw_d1(r, False), d1_proxy, 5000, 10)
        m = K[0]
        add("limit:d1_random#%d" % slot, K, 1, [_bits(v, m) for v in span],
            m, expect_dims({0: 1}, 1))


def build(workload, seed, workdir, maq):
    """The seeded case list of a workload, in a seeded order."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    b = _Builder(workload, seed, workdir, maq)
    {"cellular": cellular, "koszul": koszul, "limit": limit}[workload](b)
    b.rng.shuffle(b.cases)
    return b.cases
