"""Closed subgroups of tori as character annihilator lattices.

A closed subgroup H of the torus T^m is represented by the sublattice of
Z^m of characters vanishing on H (its annihilator).  For d=1 the ambient
group is (Z/2)^m and H is stored directly as an F2 subspace in reduced
echelon form.  All quotient data is reported as finitely generated abelian
groups in invariant-factor form.

Every face-wise question goes through one projection per face:
``TorusSubgroup.characters(I)`` is the canonical basis of proj_I(ann H),
the characters of S(I) = G^I/(H meet G^I), for d=1 and d=2 alike.  S(I)
is their span, the meet H meet G^I their cokernel, and the orbit group
Q(I) = G^m/(H . G^I) has the kernel of proj_I as characters.  Presentations
are reduced by ``exact.rank_and_invariants``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .exact import (
    divisor_chain,
    f2_annihilator,
    f2_rref,
    rank_and_invariants,
    row_hnf,
)


@dataclass(frozen=True)
class FinAbGroup:
    """Finitely generated abelian group: Z^rank + Z/d1 + ... with d1|d2|..."""

    free_rank: int
    torsion: tuple = ()

    @staticmethod
    def make(free_rank, coeffs=()):
        """Normalize arbitrary torsion coefficients into an invariant chain."""
        chain = divisor_chain([c for c in coeffs if abs(c) > 1])
        return FinAbGroup(free_rank, tuple([t for t in chain if t > 1]))

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
        rank, invariants = rank_and_invariants(
            (i, j, v) for i, r in enumerate(relations)
            for j, v in enumerate(r) if v)
        return FinAbGroup.make(ngens - rank, invariants)

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

    def project(self, coords):
        """Image under projection of Z^m onto the given sorted coordinates
        (1-based), as a lattice in Z^len(coords)."""
        cs = sorted(coords)
        gens = [[b[c - 1] for c in cs] for b in self.basis]
        return Lattice.from_generators(len(cs), gens)


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

    @cached_property
    def _f2_perp(self):
        """The F2 annihilator of H (d=1), computed once per subgroup."""
        return f2_annihilator(list(self.span), self.m)

    @cached_property
    def _characters(self):
        """characters() per face, memoized for the life of the subgroup."""
        return {}

    def characters(self, I):
        """Canonical basis of proj_I(ann H), the characters of
        S(I) = G^I/(H meet G^I), in the coordinates of sorted(I): HNF rows
        for d=2, F2 echelon bitmasks for d=1.

        Computed once per face and subgroup: every caller of the same face
        gets the same list (of the same row lists for d=2), so callers must
        not mutate what this returns."""
        I = _check_subset(I, self.m)
        hit = self._characters.get(I)
        if hit is None:
            Is = sorted(I)
            if self.d == 2:
                hit = [list(b) for b in self.ann.project(Is).basis]
            else:
                hit = f2_rref(sum(((w >> (v - 1)) & 1) << t
                                  for t, v in enumerate(Is))
                              for w in self._f2_perp)
            self._characters[I] = hit
        return hit

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
    """Character groups of H meet G^I and of S(I) = G^I/(H meet G^I).

    For both d, S(I) has the characters proj_I(ann H) and H meet G^I those
    of G^I modulo them."""
    I = _check_subset(I, H.m)
    chars = H.characters(I)
    if H.d == 2:
        return MeetResult(FinAbGroup.from_presentation(len(I), chars),
                          FinAbGroup.free(len(chars)))
    return MeetResult(FinAbGroup.make(0, (2,) * (len(I) - len(chars))),
                      FinAbGroup.make(0, (2,) * len(chars)))


def join_coordinate(H, I):
    """Character group of Q(I) = G^m/(H . G^I).

    Its characters are those of L = G^m/H that vanish on G^I: the kernel
    of proj_I on the characters of L.  The image is characters(I), the
    characters of S(I), so 1 -> S(I) -> L -> Q(I) -> 1 is exact and
    rank Q(I) = rank L - len(characters(I)), with rank L = rank(ann H)
    for d=2 (a sublattice of Z^m, so free) and m - dim H for d=1."""
    if H.d == 2:
        return FinAbGroup.free(H.ann.rank() - len(H.characters(I)))
    rank = H.m - len(H.span) - len(H.characters(I))
    return FinAbGroup.make(0, (2,) * rank)
