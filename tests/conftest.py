import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

from maq import homology
from maq.simplicial import (SimplicialComplex, boundary_simplex,
                            stellar_subdivision, vertices)


def random_complex(rng, m, max_facets=None):
    """Nonvoid complex on [m] with facets drawn uniformly-ish."""
    nf = rng.randint(1, max_facets or 2 * m)
    facets = []
    for _ in range(nf):
        size = rng.randint(1, max(1, m - 1))
        facets.append(frozenset(rng.sample(range(1, m + 1), size)))
    return SimplicialComplex(m, facets)


def join(A, B):
    """The join A * B, with the vertices of B shifted past those of A."""
    return SimplicialComplex(A.m + B.m, [f | {v + A.m for v in g}
                                         for f in A.facets
                                         for g in B.facets])


def random_sphere(rng):
    """A simplicial sphere on 2..7 vertices: the boundary of a simplex or
    the join of two, then 0-2 stellar subdivisions at random faces, each
    adding one vertex.  Joins and stellar subdivisions of spheres are
    spheres, so every complex drawn is one by construction."""
    if rng.random() < 0.5:
        K = boundary_simplex(rng.randint(2, 7))
    else:
        a = rng.randint(2, 5)
        K = join(boundary_simplex(a), boundary_simplex(rng.randint(2, 7 - a)))
    for _ in range(rng.randint(0, min(2, 7 - K.m))):
        F = vertices(rng.choice(K.facet_masks))
        K = stellar_subdivision(K, rng.sample(F, rng.randint(1, len(F))))
    return K


def stellar_reference(K, sigma):
    """Stellar subdivision built on frozensets: a facet F that contains
    sigma is replaced by the faces (F - {s}) + {m+1}, s in sigma."""
    v = K.m + 1
    facets = []
    for F in K.facets:
        if sigma <= F:
            facets += [(F - {s}) | {v} for s in sigma]
        else:
            facets.append(F)
    return SimplicialComplex(v, facets)


def swap_vertices(K, i, j):
    """K with the vertex labels i and j exchanged."""
    swap = {i: j, j: i}
    return SimplicialComplex(K.m, [{swap.get(v, v) for v in F}
                                   for F in K.facets])


def random_unimodular(rng, n, steps=8):
    """Product of elementary row operations."""
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        for k in range(n):
            U[i][k] += c * U[j][k]
        if rng.random() < 0.3:
            U[i], U[j] = U[j], U[i]
        if rng.random() < 0.3:
            U[i] = [-x for x in U[i]]
    return U


def mat_mul(a, b):
    """a @ b for dense integer matrices given as lists of rows."""
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def rank_mod_p(entries, p):
    """Rank over F_p of the sparse integer matrix given as ``(row, col,
    value)`` triples, by plain row reduction mod p: each row is reduced
    against the pivot rows found so far, each scaled by the modular
    inverse of its pivot so that the pivot is 1.  Independent of the
    integral elimination, whose invariant factors it checks."""
    rows = {}
    for r, c, v in entries:
        rows.setdefault(r, {})[c] = v % p
    pivots = {}   # pivot column -> reduced row with 1 there
    for row in rows.values():
        row = {c: v for c, v in row.items() if v}
        while row:
            c = min(row)
            if c not in pivots:
                inv = pow(row[c], -1, p)
                pivots[c] = {k: v * inv % p for k, v in row.items()}
                break
            q = row[c]
            for k, v in pivots[c].items():
                x = (row.get(k, 0) - q * v) % p
                if x:
                    row[k] = x
                else:
                    row.pop(k, None)
    return len(pivots)


def coboundary_ranks_mod_p(C, p):
    """{n: F_p rank of d: C^n -> C^(n+1)} for a ``ChainComplex`` C; d is
    the transpose of the boundary out of degree n + 1, of the same rank."""
    return {C.min_degree + i - 1: rank_mod_p(
        ((r, c, v) for (r, c), v in b.items()), p)
        for i, b in enumerate(C.boundaries) if b}


def check_cohomology_uct(dims, ranks, groups, p, degrees):
    """Assert the universal coefficient theorem for cohomology in each
    degree n of ``degrees``: dim H^n(C; F_p) = rank H^n + t_p(H^n) +
    t_p(H^(n+1)), t_p(G) the number of invariant factors of G that p
    divides.  The left side is dims[n] - ranks[n] - ranks[n - 1], with
    ranks[n] the F_p rank of d: C^n -> C^(n+1) (missing means 0); the
    right side reads the integral ``groups``.  Returns the F_p
    dimensions by degree."""
    def t_p(g):
        return sum(1 for t in g.torsion if t % p == 0)

    dims_p = {}
    for n in degrees:
        dims_p[n] = dims[n] - ranks.get(n, 0) - ranks.get(n - 1, 0)
        g = groups.group(n)
        assert dims_p[n] == g.free_rank + t_p(g) + t_p(groups.group(n + 1)), (
            p, n)
    return dims_p


def rational_rref(mat):
    """Nonzero rows of the reduced row echelon form over Q, by exact
    Fraction elimination."""
    rows = [[Fraction(x) for x in row] for row in mat]
    rank = 0
    for j in range(len(rows[0]) if rows else 0):
        p = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][j]:
                q = rows[i][j] / rows[rank][j]
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rows[:rank]


def seeded(name, seed=0):
    return random.Random(repr((seed, name)))


def complexes_isomorphic(K1, K2):
    """Whether two complexes agree after some vertex relabeling.

    Backtracking search over degree-compatible assignments; fine for the
    small complexes used in the test batteries.
    """
    if K1.m != K2.m or sorted(map(len, K1.facets)) != \
            sorted(map(len, K2.facets)):
        return False
    m = K1.m
    f1 = set(K1.facets)
    f2 = set(K2.facets)

    def profile(facets, v):
        return tuple(sorted(len(F) for F in facets if v in F))

    p1 = {v: profile(f1, v) for v in range(1, m + 1)}
    p2 = {v: profile(f2, v) for v in range(1, m + 1)}
    if sorted(p1.values()) != sorted(p2.values()):
        return False
    # assign most-constrained vertices first
    order = sorted(range(1, m + 1),
                   key=lambda v: sum(1 for w in p2 if p2[w] == p1[v]))

    def extend(idx, mapping, used):
        if idx == len(order):
            return {frozenset(mapping[v] for v in F) for F in f1} == f2
        v = order[idx]
        for w in range(1, m + 1):
            if w in used or p2[w] != p1[v]:
                continue
            mapping[v] = w
            # partial consistency: fully mapped facets must land in f2
            ok = True
            for F in f1:
                if all(u in mapping for u in F):
                    if frozenset(mapping[u] for u in F) not in f2:
                        ok = False
                        break
            if ok and extend(idx + 1, mapping, used | {w}):
                return True
            del mapping[v]
        return False

    return extend(0, {}, set())


def sym_power_reference(M, rows, cols, k, mod=None):
    """Sym^k of the rows x cols matrix M, a dict {(row, col): value}, on
    the monomials combinations_with_replacement(range(n), k) of both
    sides: column alpha is the product of the column polynomials
    sum_i M[i, j] x_i over the factors j of alpha, expanded as a dict
    from sorted factor tuples to coefficients, reduced mod ``mod`` when
    given."""
    polys = [{} for _ in range(cols)]
    for (i, j), v in M.items():
        polys[j][i,] = v
    row_of = {mono: t for t, mono in
              enumerate(combinations_with_replacement(range(rows), k))}
    out = {}
    for col, alpha in enumerate(combinations_with_replacement(range(cols),
                                                              k)):
        poly = {(): 1}
        for j in alpha:
            nxt = {}
            for mono, c in poly.items():
                for (i,), v in polys[j].items():
                    key = tuple(sorted(mono + (i,)))
                    nxt[key] = nxt.get(key, 0) + c * v
            poly = nxt
        for mono, c in poly.items():
            c = c % mod if mod else c
            if c:
                out[row_of[mono], col] = c
    return out


def reference_limit(D, top_k):
    """lim Sym^k(D) for k = 0..top_k, over every face and every covering
    pair.

    Every arrow is Sym^k of the cover's matrix, by sym_power_reference.
    One unknown block per face and one constraint block
    arrow(I, J) x_J - x_I per covering pair I < J.  A value of rank r is
    read as Z^r / diag(o) with every generator of order o = 0 over Z and
    o = 2 over F2, and the limit, the kernel of Z^a / R_A -> Z^b / R_B
    with both presentations diagonal, is H_1 of the integral three-term
    complex

        Z^|R_A| --(R_A, chi)--> Z^a + Z^|R_B| --(psi, R_B)--> Z^b

    with chi[t, k] = -o_j psi[r_t, j] / o_t for the k-th relation o_j e_j
    of A and the t-th relation o_t e_{r_t} of B, so that R_B chi =
    -psi R_A.  It shares no step with the facet kernel of
    ``homology.limit_graded`` or with its symmetric powers, which it
    checks.
    """
    covers = D.covering_pairs()
    out = {}
    for k in range(top_k + 1):
        def gens(I):
            n = comb(D.ranks.get(I, 0) + k - 1, k) if k else 1
            return (D.mod or 0,) * n

        col, rel_a, d2 = {}, {}, {}
        for I in D.faces:
            for t, o in enumerate(gens(I)):
                j = col[I, t] = len(col)
                if o:
                    d2[j, len(rel_a)] = o
                    rel_a[j] = (len(rel_a), o)
        a = len(col)
        d1, b, nb = {}, 0, 0
        for I, J in covers:
            gi = gens(I)
            y = {}
            for r, ot in enumerate(gi):
                if ot:
                    y[r] = a + nb
                    d1[b + r, a + nb] = ot
                    nb += 1
            power = sym_power_reference(D.arrow(I, J), D.ranks.get(I, 0),
                                        D.ranks.get(J, 0), k, D.mod)
            psi = [((r, col[I, r]), -1) for r in range(len(gi))]
            psi += [((r, col[J, c]), v) for (r, c), v in power.items()]
            for (r, j), v in psi:
                d1[b + r, j] = v
                if j in rel_a:
                    t, oj = rel_a[j]
                    assert gi[r] and oj * v % gi[r] == 0
                    d2[y[r], t] = -oj * v // gi[r]
            b += len(gi)
        C = homology.ChainComplex([b, a + nb, len(rel_a)], [d1, d2],
                                  check=False)
        out[k] = C.homology().group(1)
    return homology.GradedAbGroup.make(out)
