"""Closed subgroups of tori as character annihilator lattices.

A closed subgroup H of the torus T^m is represented by the sublattice of
Z^m of characters vanishing on H (its annihilator).  For d=1 the ambient
group is (Z/2)^m and H is stored directly as an F2 subspace in reduced
echelon form.  All quotient data is reported as finitely generated abelian
groups in invariant-factor form.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .exact import (
    f2_annihilator,
    f2_rank,
    f2_rref,
    hnf_solve,
    kernel_basis,
    mat_mul,
    row_hnf,
    smith_normal_form,
)


def _lcm(a, b):
    return a * b // gcd(a, b)


@dataclass(frozen=True)
class FinAbGroup:
    """Finitely generated abelian group: Z^rank + Z/d1 + ... with d1|d2|..."""

    free_rank: int
    torsion: tuple = ()

    @staticmethod
    def make(free_rank, coeffs=()):
        """Normalize arbitrary torsion coefficients into an invariant chain."""
        tor = [abs(c) for c in coeffs if abs(c) > 1]
        changed = True
        while changed:
            changed = False
            for i in range(len(tor)):
                for j in range(i + 1, len(tor)):
                    if tor[j] % tor[i]:
                        g = gcd(tor[i], tor[j])
                        tor[i], tor[j] = g, _lcm(tor[i], tor[j])
                        changed = True
            tor = [t for t in tor if t > 1]
        return FinAbGroup(free_rank, tuple(sorted(tor, key=lambda t: (0, t))))

    @staticmethod
    def trivial():
        return FinAbGroup(0, ())

    @staticmethod
    def free(rank):
        return FinAbGroup(rank, ())

    @staticmethod
    def cyclic(n):
        return FinAbGroup.make(0, (n,))

    @staticmethod
    def from_presentation(ngens, relations):
        """Z^ngens modulo the subgroup generated by the relation vectors."""
        if ngens == 0:
            return FinAbGroup.trivial()
        rels = [r for r in relations if any(r)]
        if not rels:
            return FinAbGroup.free(ngens)
        diag, _, _ = smith_normal_form(rels)
        return FinAbGroup.make(ngens - len(diag), diag)

    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def order(self):
        if self.free_rank:
            return None
        n = 1
        for t in self.torsion:
            n *= t
        return n

    def direct_sum(self, other):
        return FinAbGroup.make(self.free_rank + other.free_rank,
                               self.torsion + other.torsion)

    def tensor(self, other):
        coeffs = []
        coeffs += list(other.torsion) * self.free_rank
        coeffs += list(self.torsion) * other.free_rank
        coeffs += [gcd(a, b) for a in self.torsion for b in other.torsion]
        return FinAbGroup.make(self.free_rank * other.free_rank, coeffs)

    def tor(self, other):
        """Tor_1(self, other)."""
        return FinAbGroup.make(
            0, [gcd(a, b) for a in self.torsion for b in other.torsion])

    def to_json(self):
        return {"rank": self.free_rank, "torsion": list(self.torsion)}

    def __str__(self):
        parts = []
        if self.free_rank:
            parts.append("Z^%d" % self.free_rank if self.free_rank > 1 else "Z")
        parts += ["Z/%d" % t for t in self.torsion]
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# integer lattices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lattice:
    """Sublattice of Z^m in canonical Hermite normal form.

    ``basis`` holds the generators as HNF rows; equal lattices have equal
    representations.
    """

    m: int
    basis: tuple

    @staticmethod
    def from_generators(m, gens):
        gens = [list(g) for g in gens]
        for g in gens:
            if len(g) != m:
                raise ValueError("generator length != ambient rank")
        return Lattice(m, tuple(tuple(r) for r in row_hnf(gens)))

    @staticmethod
    def full(m):
        return Lattice.from_generators(m, [[1 if i == j else 0
                                            for j in range(m)]
                                           for i in range(m)])

    @staticmethod
    def zero(m):
        return Lattice(m, ())

    def rank(self):
        return len(self.basis)

    def contains(self, vec):
        return hnf_solve(list(self.basis), vec) is not None

    def sum(self, other):
        if self.m != other.m:
            raise ValueError("ambient rank mismatch")
        return Lattice.from_generators(self.m, list(self.basis) + list(other.basis))

    def intersection(self, other):
        if self.m != other.m:
            raise ValueError("ambient rank mismatch")
        if not self.basis or not other.basis:
            return Lattice.zero(self.m)
        # solve sum x_i a_i = sum y_j b_j
        cols = list(self.basis) + [tuple(-x for x in b) for b in other.basis]
        mat = [[cols[t][i] for t in range(len(cols))] for i in range(self.m)]
        gens = []
        for k in kernel_basis(mat, len(cols)):
            x = k[:len(self.basis)]
            v = [sum(x[t] * self.basis[t][i] for t in range(len(x)))
                 for i in range(self.m)]
            gens.append(v)
        return Lattice.from_generators(self.m, gens)

    def cokernel(self):
        """Z^m / L as a FinAbGroup."""
        if not self.basis:
            return FinAbGroup.free(self.m)
        return FinAbGroup.from_presentation(self.m, [list(b) for b in self.basis])

    def project(self, coords):
        """Image under projection of Z^m onto the given sorted coordinates
        (1-based), as a lattice in Z^len(coords)."""
        cs = sorted(coords)
        gens = [[b[c - 1] for c in cs] for b in self.basis]
        return Lattice.from_generators(len(cs), gens)

    def saturate_dual(self):
        """Annihilator-of-annihilator round trip computed via SNF.

        Writes the subgroup of T^m cut out by this character lattice in
        split coordinates and reads its annihilator back off the Smith
        form.  Used as an independent check that annihilator duality is
        the identity on canonical forms.
        """
        if not self.basis:
            return Lattice.zero(self.m)
        mat = [list(b) for b in self.basis]          # r x m
        diag, U, V = smith_normal_form(mat, transforms=True)
        # U @ mat @ V = D  =>  mat = U^-1 D V^-1, and U^-1 is unimodular,
        # so row span of mat = row span of D V^{-1}
        n = len(V)
        # invert V by solving V X = I over Z (V unimodular)
        X = _unimodular_inverse(V)
        r = len(self.basis)
        D = [[diag[i] if i == j and i < len(diag) else 0 for j in range(n)]
             for i in range(r)]
        return Lattice.from_generators(self.m, mat_mul(D, X))


def _unimodular_inverse(V):
    n = len(V)
    # HNF of [V | I] is [I | V^{-1}] when V is unimodular
    aug = [list(V[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    red = row_hnf(aug)
    # red = [I | V^{-1}] up to row order, since HNF of a unimodular matrix is I
    inv = [None] * n
    for row in red:
        j = next(i for i, x in enumerate(row) if x)
        if j >= n or row[j] != 1:
            raise ValueError("matrix is not unimodular")
        inv[j] = row[n:]
    return inv


# ---------------------------------------------------------------------------
# torus subgroups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TorusSubgroup:
    """Closed subgroup H of G_d^m, G_1 = Z/2, G_2 = S^1.

    d=2: ``ann`` is the annihilator lattice of H in Z^m.
    d=1: ``span`` is the canonical F2 echelon basis of H itself (bitmasks).
    """

    d: int
    m: int
    ann: Lattice = None
    span: tuple = None

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError("d must be 1 or 2")
        if self.d == 2 and self.ann is None:
            raise ValueError("d=2 subgroup needs an annihilator lattice")
        if self.d == 1 and self.span is None:
            raise ValueError("d=1 subgroup needs an F2 span")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_annihilator(m, gens):
        return TorusSubgroup(2, m, ann=Lattice.from_generators(m, gens))

    @staticmethod
    def from_f2_span(m, gens):
        masks = []
        for g in gens:
            if isinstance(g, int):
                masks.append(g)
            else:
                v = 0
                for i, x in enumerate(g):
                    if x % 2:
                        v |= 1 << i
                masks.append(v)
        return TorusSubgroup(1, m, span=tuple(f2_rref(masks)))

    @staticmethod
    def trivial(d, m):
        if d == 2:
            return TorusSubgroup(2, m, ann=Lattice.full(m))
        return TorusSubgroup(1, m, span=())

    @staticmethod
    def full(d, m):
        if d == 2:
            return TorusSubgroup(2, m, ann=Lattice.zero(m))
        return TorusSubgroup.from_f2_span(m, [1 << i for i in range(m)])

    @staticmethod
    def coordinate(d, m, I0):
        """The coordinate subgroup G_d^I0."""
        I0 = frozenset(I0)
        if d == 2:
            gens = [[1 if j == i else 0 for j in range(m)]
                    for i in range(m) if i + 1 not in I0]
            return TorusSubgroup(2, m, ann=Lattice.from_generators(m, gens))
        return TorusSubgroup.from_f2_span(m, [1 << (v - 1) for v in I0])

    # -- structure ---------------------------------------------------------

    def torus_rank(self):
        """Dimension of the identity component (0 for d=1)."""
        if self.d == 2:
            return self.m - self.ann.rank()
        return 0

    def f2_dim(self):
        if self.d != 1:
            raise ValueError("f2_dim only for d=1")
        return len(self.span)

    def character_group(self):
        """Character group of H itself (as abstract FinAbGroup)."""
        if self.d == 2:
            return self.ann.cokernel()
        return FinAbGroup.make(0, (2,) * len(self.span))

    def splits(self):
        """Whether 1 -> H -> G^m -> G^m/H -> 1 splits (d=1 or H connected)."""
        if self.d == 1:
            return True
        return not self.ann.cokernel().torsion

    def to_json(self):
        if self.d == 2:
            return {"d": 2, "m": self.m,
                    "annihilator": [list(b) for b in self.ann.basis]}
        return {"d": 1, "m": self.m,
                "span": [[(v >> i) & 1 for i in range(self.m)]
                         for v in self.span]}


@dataclass(frozen=True)
class MeetResult:
    intersection: FinAbGroup   # character group of H `meet` G^I
    quotient: FinAbGroup       # character group of S(I) = G^I/(H `meet` G^I)


def _check_subset(I, m):
    I = frozenset(I)
    if any(v < 1 or v > m for v in I):
        raise ValueError("vertex out of range 1..%d" % m)
    return I


def meet_coordinate(H, I):
    """Character groups of H  intersect G^I and of S(I) = G^I/(H intersect G^I)."""
    I = _check_subset(I, H.m)
    if H.d == 2:
        if not I:
            return MeetResult(FinAbGroup.trivial(), FinAbGroup.trivial())
        A = H.ann.project(sorted(I))
        inter = (FinAbGroup.free(len(I)) if not A.basis
                 else FinAbGroup.from_presentation(len(I), [list(b) for b in A.basis]))
        return MeetResult(inter, FinAbGroup.free(A.rank()))
    # d=1: H cap F2^I = vectors of H supported inside I
    mask = 0
    for v in I:
        mask |= 1 << (v - 1)
    inside = _f2_meet_basis(H.span, mask)
    k = len(inside)
    return MeetResult(FinAbGroup.make(0, (2,) * k),
                      FinAbGroup.make(0, (2,) * (len(I) - k)))


def _f2_meet_basis(span, mask):
    """Basis of the subspace of span(vectors) supported inside mask."""
    downs = f2_rref([v for v in span])
    # intersect with the coordinate subspace: kernel of projection to the
    # complement coordinates, computed by RREF on (outside | inside) split
    if not downs:
        return []
    out = []
    pivot = {}
    for v in downs:
        oo, vv = v & ~mask, v
        while oo:
            p = oo.bit_length() - 1
            if p in pivot:
                po, pv = pivot[p]
                oo ^= po
                vv ^= pv
            else:
                pivot[p] = (oo, vv)
                break
        else:
            if vv:
                out.append(vv)
    return f2_rref(out)


def join_coordinate(H, I):
    """Character group of Q(I) = G^m/(H . G^I)."""
    I = _check_subset(I, H.m)
    if H.d == 2:
        comp = [v for v in range(1, H.m + 1) if v not in I]
        coord = Lattice.from_generators(
            H.m, [[1 if j + 1 == v else 0 for j in range(H.m)] for v in comp])
        inter = H.ann.intersection(coord)
        return FinAbGroup.free(inter.rank())
    mask = 0
    for v in I:
        mask |= 1 << (v - 1)
    gens = list(H.span) + [1 << (v - 1) for v in I]
    dim_join = f2_rank(gens)
    return FinAbGroup.make(0, (2,) * (H.m - dim_join))


def s_lattice(H, I):
    """Character lattice of S(I) inside Z^I (d=2): proj_I(H_perp)."""
    if H.d != 2:
        raise ValueError("s_lattice is a d=2 notion")
    I = sorted(_check_subset(I, H.m))
    if not I:
        return Lattice.zero(0)
    return H.ann.project(I)


def s_space_f2(H, I):
    """Dual-space basis of S(I) for d=1: proj_I of the F2 annihilator of H,
    as bitmasks over the positions of sorted(I)."""
    if H.d != 1:
        raise ValueError("s_space_f2 is a d=1 notion")
    I = sorted(_check_subset(I, H.m))
    perp = f2_annihilator(list(H.span), H.m) if H.span else \
        [1 << i for i in range(H.m)]
    pos = {v: i for i, v in enumerate(I)}
    projected = []
    for w in perp:
        x = 0
        for v in I:
            if (w >> (v - 1)) & 1:
                x |= 1 << pos[v]
        projected.append(x)
    return f2_rref(projected)


def exact_row_check(H, I):
    """Bookkeeping for exactness of 1 -> S(I) -> L -> Q(I) -> 1."""
    I = _check_subset(I, H.m)
    if H.d == 2:
        r_l = H.ann.rank()
        r_s = s_lattice(H, I).rank() if I else 0
        r_q = join_coordinate(H, I).free_rank
        if r_s + r_q != r_l:
            return False
        # char Q = H_perp cap Z^{[m]\I} must inject into char L = H_perp
        # with torsion-free quotient isomorphic to proj_I(H_perp)
        comp = [v for v in range(1, H.m + 1) if v not in I]
        coord = Lattice.from_generators(
            H.m, [[1 if j + 1 == v else 0 for j in range(H.m)] for v in comp])
        inter = H.ann.intersection(coord)
        if not all(H.ann.contains(list(b)) for b in inter.basis):
            return False
        if inter.basis:
            # quotient H_perp / inter is torsion-free of rank r_s
            coords = [hnf_solve(list(H.ann.basis), list(b)) for b in inter.basis]
            q = FinAbGroup.from_presentation(r_l, [c for c in coords if c])
            if q.torsion or q.free_rank != r_s:
                return False
        return True
    # d=1: F2 dimension additivity
    dim_l = H.m - len(H.span)
    dim_s = len(s_space_f2(H, I)) if I else 0
    q = join_coordinate(H, I)
    return dim_s + len(q.torsion) == dim_l
