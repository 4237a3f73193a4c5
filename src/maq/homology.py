"""Exact (co)homology of finite chain complexes and degreewise limits.

Everything is integral: homology groups come out of Smith normal form,
cohomology over a prime field is counted through invariant factors, and
limits of diagrams of finitely generated abelian groups are computed from
integer presentations so that torsion is tracked exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import (hnf_solve, kernel_basis, mat_mul, rank_and_invariants,
                    row_hnf)
from .intlattice import FinAbGroup


@dataclass(frozen=True)
class GradedAbGroup:
    """Finitely supported map from integer degrees to FinAbGroup."""

    groups: tuple = ()   # sorted tuple of (degree, FinAbGroup), no trivial entries

    @staticmethod
    def make(mapping):
        items = sorted((d, g) for d, g in dict(mapping).items()
                       if not g.is_trivial())
        return GradedAbGroup(tuple(items))

    def group(self, degree):
        for d, g in self.groups:
            if d == degree:
                return g
        return FinAbGroup.trivial()

    def support(self):
        return [d for d, _ in self.groups]

    def total_rank(self):
        return sum(g.free_rank for _, g in self.groups)

    def is_trivial(self):
        return not self.groups

    def shift(self, k):
        return GradedAbGroup(tuple((d + k, g) for d, g in self.groups))

    def direct_sum(self, other):
        out = {d: g for d, g in self.groups}
        for d, g in other.groups:
            out[d] = out.get(d, FinAbGroup.trivial()).direct_sum(g)
        return GradedAbGroup.make(out)

    def to_json(self):
        return {str(d): g.to_json() for d, g in self.groups}

    @staticmethod
    def from_json(data):
        return GradedAbGroup.make({
            int(d): FinAbGroup.make(v["rank"], v.get("torsion", ()))
            for d, v in data.items()})

    def __str__(self):
        if not self.groups:
            return "0"
        return ", ".join("%d: %s" % (d, g) for d, g in self.groups)


# ---------------------------------------------------------------------------
# chain complexes
# ---------------------------------------------------------------------------

class ChainComplex:
    """Bounded complex of free abelian groups.

    ``dims[i]`` is the rank in degree ``min_degree + i`` and
    ``boundaries[i]`` is d: C_{min_degree+i} -> C_{min_degree+i-1} as a
    dict ``{(row, col): value}`` of its nonzero entries.  Rows are the cells
    of degree min_degree+i-1 (0 <= row < dims[i-1]) and columns those of
    degree min_degree+i (0 <= col < dims[i]); boundaries[0] maps out of the
    complex and is None.  The dicts are stored as given, not copied, so
    they must not be mutated afterwards.
    """

    def __init__(self, dims, boundaries, min_degree=0, check=True):
        # boundaries[i] is d out of degree index i, for i = 1..len(dims)-1
        self.min_degree = min_degree
        self.dims = list(dims)
        bs = list(boundaries)
        if len(bs) == len(self.dims) - 1:
            bs = [None] + bs
        if len(bs) != len(self.dims):
            raise ValueError("boundary count inconsistent with dims")
        self.boundaries = [None] + bs[1:]
        self._eliminated = {}   # boundary index -> (rank, invariants)
        if check:
            self._validate()

    def _validate(self):
        n = len(self.dims)
        for i in range(1, n):
            rows, cols = self.dims[i - 1], self.dims[i]
            for (r, c), v in self.boundaries[i].items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ValueError("boundary %d has entry (%d, %d) outside "
                                     "its %d x %d shape" % (i, r, c, rows, cols))
                if not v:
                    raise ValueError("boundary %d stores a zero at (%d, %d)"
                                     % (i, r, c))
        for i in range(1, n - 1):
            if not product_vanishes(self.boundaries[i], self.boundaries[i + 1]):
                raise ValueError("dd != 0 at degree index %d" % i)

    def degree_index(self, degree):
        return degree - self.min_degree

    def _rank_inv(self, i):
        """(rank, invariant factors) of boundaries[i]; zero map if absent.

        Each boundary is eliminated at most once per instance; homology,
        cohomology and homology_mod all read the same result.
        """
        if i < 1 or i >= len(self.dims):
            return 0, []
        b = self.boundaries[i]
        if not b:
            return 0, []
        if i not in self._eliminated:
            self._eliminated[i] = rank_and_invariants(
                ((r, c, v) for (r, c), v in b.items()),
                self.dims[i - 1], self.dims[i])
        return self._eliminated[i]

    def homology(self):
        out = {}
        for i, dim in enumerate(self.dims):
            r_in, inv_in = self._rank_inv(i + 1)
            r_out, _ = self._rank_inv(i)
            rank = dim - r_out - r_in
            out[self.min_degree + i] = FinAbGroup.make(rank, inv_in)
        return GradedAbGroup.make(out)

    def cohomology(self):
        """Integral cohomology of the dual complex Hom(C, Z).

        Free part matches homology in the same degree; torsion in degree n
        comes from the invariant factors of the boundary out of degree n.
        """
        out = {}
        for i, dim in enumerate(self.dims):
            r_in, _ = self._rank_inv(i + 1)
            r_out, inv_out = self._rank_inv(i)
            rank = dim - r_out - r_in
            out[self.min_degree + i] = FinAbGroup.make(rank, inv_out)
        return GradedAbGroup.make(out)

    def homology_mod(self, p):
        """Homology with F_p coefficients, reported as F_p-dimensions."""
        out = {}
        for i, dim in enumerate(self.dims):
            rank = dim - self._rank_mod(i, p) - self._rank_mod(i + 1, p)
            if rank:
                out[self.min_degree + i] = FinAbGroup.free(rank)
        return GradedAbGroup.make(out)

    def _rank_mod(self, i, p):
        _, inv = self._rank_inv(i)
        return sum(1 for d in inv if d % p)


def product_vanishes(a, b):
    """Whether a @ b == 0 for sparse matrices {(row, col): value}."""
    by_col = {}
    for (r, k), v in a.items():
        by_col.setdefault(k, []).append((r, v))
    acc = {}
    for (k, c), v in b.items():
        for r, w in by_col.get(k, ()):
            acc[r, c] = acc.get((r, c), 0) + w * v
    return not any(acc.values())


def simplicial_chain_complex(K, reduced=True):
    """(Reduced) simplicial chain complex of K over Z.

    Reduced complexes include the empty face in degree -1; the void
    complex gives the zero complex either way.
    """
    if K.is_void():
        return ChainComplex([0], [], min_degree=0)
    faces = sorted(K.faces(), key=lambda f: (len(f), sorted(f)))
    by_dim = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    min_deg = -1 if reduced else 0
    if not reduced:
        by_dim.pop(-1, None)
    top = max(by_dim) if by_dim else min_deg
    dims, boundaries = [], []
    index = {d: {f: i for i, f in enumerate(by_dim.get(d, []))}
             for d in range(min_deg, top + 1)}
    for d in range(min_deg, top + 1):
        dims.append(len(by_dim.get(d, [])))
    for d in range(min_deg + 1, top + 1):
        rows = index[d - 1]
        b = {}
        for f, j in index[d].items():
            for k in range(len(f)):
                i = rows.get(f[:k] + f[k + 1:])
                if i is not None:
                    b[i, j] = -1 if k % 2 else 1
        boundaries.append(b)
    return ChainComplex(dims, boundaries, min_degree=min_deg, check=False)


def reduced_cohomology(K, p=None):
    """Reduced simplicial cohomology of K (integral, or F_p dims if p given)."""
    C = simplicial_chain_complex(K, reduced=True)
    if p is None:
        return C.cohomology()
    return C.homology_mod(p)


def reduced_homology(K):
    return simplicial_chain_complex(K, reduced=True).homology()


# ---------------------------------------------------------------------------
# diagrams of presented groups over the face poset
# ---------------------------------------------------------------------------

def _congruent(M, N, orders):
    """Whether M = N modulo the relations diag(orders) of the target."""
    for r, o in enumerate(orders):
        for c in range(len(M[r]) if M else 0):
            diff = M[r][c] - N[r][c]
            if o == 0:
                if diff:
                    return False
            elif diff % o:
                return False
    return True


@dataclass
class PosetDiagram:
    """Contravariant diagram of graded f.g. abelian groups over a face poset.

    ``orders[(I, n)]`` lists generator orders (0 for a free generator) of
    the value at face I in degree n; missing keys mean the zero group.
    ``arrows[(I, J, n)]`` for I subset of J is the matrix of the structure
    map value(J) -> value(I) in degree n, with one row per generator of
    value(I) and one column per generator of value(J).  Functoriality is
    checked on construction via validate().
    """

    faces: tuple
    orders: dict
    arrows: dict
    max_degree: int

    def __post_init__(self):
        self.faces = tuple(sorted(set(frozenset(f) for f in self.faces),
                                  key=lambda f: (len(f), sorted(f))))
        self._composites = {}
        self.validate()

    def gens(self, I, n):
        return self.orders.get((frozenset(I), n), ())

    def arrow(self, I, J, n):
        """Structure matrix for I subset of J in degree n (composite of
        covering arrows when not stored directly)."""
        I, J = frozenset(I), frozenset(J)
        if I == J:
            k = len(self.gens(I, n))
            return [[1 if a == b else 0 for b in range(k)] for a in range(k)]
        key = (I, J, n)
        if key in self.arrows:
            return self.arrows[key]
        if key in self._composites:
            return self._composites[key]
        # walk down one vertex at a time
        v = min(J - I)
        out = self._through(I, J - {v}, J, n)
        self._composites[key] = out
        return out

    def _through(self, I, mid, J, n):
        """Composite I <= mid <= J, shaped gens(I) x gens(J) even when the
        value at mid is zero."""
        return (mat_mul(self.arrow(I, mid, n), self.arrow(mid, J, n))
                or [[0] * len(self.gens(J, n)) for _ in self.gens(I, n)])

    def covering_pairs(self):
        face_set = set(self.faces)
        out = []
        for J in self.faces:
            for v in sorted(J):
                I = J - {v}
                if I in face_set:
                    out.append((I, J))
        return out

    def validate(self):
        face_set = set(self.faces)
        for (I, J, n), M in self.arrows.items():
            if I not in face_set or J not in face_set or not I <= J:
                raise ValueError("arrow between objects not in the poset")
            gi, gj = self.gens(I, n), self.gens(J, n)
            if len(M) != len(gi) or any(len(r) != len(gj) for r in M):
                raise ValueError("arrow shape mismatch at %s <= %s, degree %d"
                                 % (sorted(I), sorted(J), n))
            # torsion orders must be respected: o_j * column_j lands in
            # the relation lattice of the target
            for c, oj in enumerate(gj):
                if oj == 0:
                    continue
                for r, oi in enumerate(gi):
                    x = oj * M[r][c]
                    if (oi == 0 and x) or (oi and x % oi):
                        raise ValueError("arrow incompatible with torsion")
        # functoriality: diamonds I < J with |J - I| = 2 generate all
        # coherence constraints for cover-generated arrows; stored longer
        # arrows are compared against the cover composites as well
        face_set = set(self.faces)
        checks = set()
        for J in self.faces:
            for a in sorted(J):
                for b in sorted(J):
                    if a >= b:
                        continue
                    I = J - {a, b}
                    if I in face_set:
                        checks.add((I, J))
        for (I, J, n) in self.arrows:
            if len(J - I) >= 2:
                checks.add((I, J))
        for (I, J) in checks:
            for n in range(0, self.max_degree + 1):
                if not self.gens(I, n) or not self.gens(J, n):
                    continue
                paths = []
                for v in sorted(J - I):
                    mid = J - {v}
                    if mid in face_set:
                        paths.append(self._through(I, mid, J, n))
                if (I, J, n) in self.arrows:
                    paths.append(self.arrows[(I, J, n)])
                for other in paths[1:]:
                    if not _congruent(paths[0], other, self.gens(I, n)):
                        raise ValueError(
                            "diagram not functorial at %s <= %s, degree %d"
                            % (sorted(I), sorted(J), n))


def _presented_kernel(ngens_src, rel_src, ngens_tgt, rel_tgt, psi):
    """Kernel of a map of presented groups as a FinAbGroup.

    Source = Z^ngens_src / rows(rel_src), target likewise; psi is the
    integer matrix of the map on generators (ngens_tgt x ngens_src).
    """
    if ngens_src == 0:
        return FinAbGroup.trivial()
    if ngens_tgt == 0:
        return FinAbGroup.from_presentation(ngens_src, rel_src)
    # lattice P = { x : psi x in rowspan(rel_tgt) }
    ncols = ngens_src + len(rel_tgt)
    mat = []
    for r in range(ngens_tgt):
        row = [psi[r][c] for c in range(ngens_src)]
        row += [-rel_tgt[t][r] for t in range(len(rel_tgt))]
        mat.append(row)
    P = [k[:ngens_src] for k in kernel_basis(mat, ncols)]
    P = row_hnf([list(v) for v in P])
    if not P:
        return FinAbGroup.trivial()
    # kernel = P / (rowspan(rel_src), which sits inside P)
    rels = []
    for r in rel_src:
        coeff = hnf_solve(P, list(r))
        if coeff is None:
            raise ValueError("relations do not map to relations")
        rels.append(coeff)
    return FinAbGroup.from_presentation(len(P), rels)


def limit_graded(D, max_degree=None):
    """Degreewise inverse limit of a PosetDiagram over its face poset.

    Computed as the kernel of the difference map from the product of the
    values into the product over covering pairs, using integer
    presentations throughout so that torsion survives.
    """
    if max_degree is None:
        max_degree = D.max_degree
    covers = D.covering_pairs()
    out = {}
    degrees = sorted({n for (_, n) in D.orders})
    for n in degrees:
        if n > max_degree:
            continue
        src_faces = [I for I in D.faces if D.gens(I, n)]
        offs, total = {}, 0
        for I in src_faces:
            offs[I] = total
            total += len(D.gens(I, n))
        if total == 0:
            continue
        rel_src = []
        for I in src_faces:
            for j, o in enumerate(D.gens(I, n)):
                if o:
                    row = [0] * total
                    row[offs[I] + j] = o
                    rel_src.append(row)
        # difference map into the product over covering pairs
        toffs, ttotal, tgt_rel, rows = {}, 0, [], []
        live = [(I, J) for (I, J) in covers if D.gens(I, n)]
        for (I, J) in live:
            toffs[(I, J)] = ttotal
            ttotal += len(D.gens(I, n))
        for (I, J) in live:
            for j, o in enumerate(D.gens(I, n)):
                if o:
                    row = [0] * ttotal
                    row[toffs[(I, J)] + j] = o
                    tgt_rel.append(row)
        psi = [[0] * total for _ in range(ttotal)]
        for (I, J) in live:
            M = D.arrow(I, J, n)
            base = toffs[(I, J)]
            for r in range(len(D.gens(I, n))):
                if J in offs:
                    for c in range(len(D.gens(J, n))):
                        psi[base + r][offs[J] + c] += M[r][c]
                psi[base + r][offs[I] + r] -= 1
        g = _presented_kernel(total, rel_src, ttotal, tgt_rel, psi)
        if not g.is_trivial():
            out[n] = g
    return GradedAbGroup.make(out)
