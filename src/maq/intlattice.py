"""Closed subgroups of tori, held by their character annihilators.

A closed subgroup H of G_d^m (the torus T^m for d=2, (Z/2)^m for d=1) is
represented by one field for both d: the canonical basis of ann H, the
characters of G^m vanishing on H.  For d=2 that is the Hermite form of a
sublattice of Z^m, for d=1 the reduced echelon form of an F2 subspace;
the F2 span of H itself is read back as its annihilator.  All quotient
data is reported as finitely generated abelian groups in invariant-factor
form.

A face I is a bitmask, and every question about it goes through one
projection: ``TorusSubgroup.characters(I)``, the basis of proj_I(ann H),
the characters of S(I) = G^I/(H meet G^I), for d=1 and d=2 alike.  S(I)
is their span, the meet H meet G^I their cokernel, and the orbit group
Q(I) = G^m/(H . G^I) has the kernel of proj_I as characters.  Only the
rows of ann H whose support mask meets I are projected; the others
project to zero.  The subgroup answers the questions that compare two
faces I <= J itself (``is_full``, ``extends``, ``restriction``), so no
caller reads how a character is stored.  Presentations are reduced by
``exact.rank_and_invariants``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .exact import (
    divisor_chain,
    f2_annihilator,
    f2_rref,
    f2_solve,
    hnf_solve,
    rank_and_invariants,
    row_hnf,
)
from .simplicial import _checked_mask, vertex_bits, vertices


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

    def to_json(self):
        return {"rank": self.free_rank, "torsion": list(self.torsion)}

    def __str__(self):
        parts = []
        if self.free_rank:
            parts.append("Z^%d" % self.free_rank if self.free_rank > 1 else "Z")
        parts += ["Z/%d" % t for t in self.torsion]
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# torus subgroups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TorusSubgroup:
    """Closed subgroup H of G_d^m, G_1 = Z/2, G_2 = S^1.

    ``ann`` is the canonical basis of the annihilator of H, the characters
    of G^m vanishing on H: HNF rows (tuples) of a sublattice of Z^m for
    d=2, F2 echelon bitmasks (bit i-1 for vertex i) for d=1.  Equal
    subgroups have equal fields.
    """

    d: int
    m: int
    ann: tuple

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError("d must be 1 or 2")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_annihilator(m, gens):
        gens = [list(g) for g in gens]
        if any(len(g) != m for g in gens):
            raise ValueError("generator length != ambient rank")
        return TorusSubgroup(2, m, tuple(map(tuple, row_hnf(gens))))

    @staticmethod
    def from_f2_span(m, gens):
        """H spanned by ``gens``: bitmasks (bit i-1 for vertex i) or rows
        of one entry per vertex 1..m."""
        masks = []
        for g in gens:
            if isinstance(g, int):
                if not 0 <= g < 1 << m:
                    raise ValueError("span mask %#x has a bit outside the "
                                     "vertices 1..%d" % (g, m))
                masks.append(g)
            else:
                if len(g) != m:
                    raise ValueError("span row of length %d, not one entry "
                                     "for each of the vertices 1..%d"
                                     % (len(g), m))
                masks.append(sum(1 << i for i, x in enumerate(g) if x % 2))
        return TorusSubgroup(1, m, tuple(f2_annihilator(masks, m)))

    @staticmethod
    def trivial(d, m):
        return TorusSubgroup.coordinate(d, m, ())

    @staticmethod
    def full(d, m):
        return TorusSubgroup.coordinate(d, m, range(1, m + 1))

    @staticmethod
    def coordinate(d, m, I0):
        """The coordinate subgroup G_d^I0."""
        I0 = _checked_mask(I0, m)
        if d == 2:
            return TorusSubgroup.from_annihilator(
                m, [[int(j == i) for j in range(m)]
                    for i in range(m) if not I0 >> i & 1])
        return TorusSubgroup.from_f2_span(m, vertex_bits(I0))

    # -- structure ---------------------------------------------------------

    def torus_rank(self):
        """Dimension of the identity component (0 for d=1)."""
        return self.m - len(self.ann) if self.d == 2 else 0

    @cached_property
    def span(self):
        """The canonical F2 echelon basis of H itself (d=1), the
        annihilator of ``ann``."""
        return tuple(f2_annihilator(self.ann, self.m))

    @cached_property
    def _supports(self):
        """The support of each row of ``ann`` as a bitmask (bit i-1 for
        vertex i); a d=1 row is its own support."""
        if self.d == 1:
            return self.ann
        return tuple(sum(1 << i for i, x in enumerate(b) if x)
                     for b in self.ann)

    @cached_property
    def _characters(self):
        """characters() per face, memoized for the life of the subgroup."""
        return {}

    def characters(self, I):
        """Canonical basis of proj_I(ann H), the characters of
        S(I) = G^I/(H meet G^I), I a face mask, in the coordinates of its
        vertices in increasing order, as a tuple: of HNF rows for d=2, of
        F2 echelon bitmasks for d=1.  Checked and computed once per face.

        Only the rows of ``ann`` whose support mask meets I are projected:
        the others project to zero, which the canonical basis drops."""
        hit = self._characters.get(I)
        if hit is None:
            if I >> self.m:   # a bit at or above m, or a negative mask
                raise ValueError("vertex out of range 1..%d" % self.m)
            idx = [b.bit_length() - 1 for b in vertex_bits(I)]
            rows = [b for b, s in zip(self.ann, self._supports) if s & I]
            if self.d == 2:
                hit = tuple(map(tuple, row_hnf(
                    [[b[i] for i in idx] for b in rows])))
            else:
                hit = tuple(f2_rref(sum(((w >> i) & 1) << t
                                        for t, i in enumerate(idx))
                                    for w in rows))
            self._characters[I] = hit
        return hit

    def is_full(self, I):
        """Whether S(I) is all of G^I, that is, H meets G^I trivially:
        proj_I(ann H) is Z^I (a Hermite form of rank |I| with every pivot
        1, the identity) for d=2, F2^I (rank |I|) for d=1."""
        chars = self.characters(I)
        if len(chars) != I.bit_count():
            return False
        return self.d == 1 or all(next(x for x in row if x) == 1
                                  for row in chars)

    def extends(self, I, J):
        """Whether every character of S(I), extended by zero, is a
        character of S(J), for face masks I <= J."""
        basis = self.characters(J)
        pos = _positions(I, J)
        for a in self.characters(I):
            if self.d == 2:
                x = [0] * J.bit_count()
                for t, p in enumerate(pos):
                    x[p] = a[t]
                if hnf_solve(basis, x) is None:
                    return False
            elif f2_solve([(b, 0) for b in basis],
                          sum(((a >> t) & 1) << p
                              for t, p in enumerate(pos)))[0]:
                return False
        return True

    def restriction(self, I, J):
        """Restriction of characters from S(J) to S(I), for faces I <= J,
        in the bases of characters(J) and characters(I), as the matrix
        {(row, col): value} of its nonzero entries: column j is the j-th
        character of J written in the basis of I."""
        basis = self.characters(I)
        pos = _positions(I, J)
        M = {}
        for j, b in enumerate(self.characters(J)):
            if self.d == 2:
                coeff = hnf_solve(basis, [b[p] for p in pos])
            else:
                residue, tag = f2_solve(
                    [(r, 1 << i) for i, r in enumerate(basis)],
                    sum(((b >> p) & 1) << t for t, p in enumerate(pos)))
                coeff = None if residue else [(tag >> i) & 1
                                              for i in range(len(basis))]
            if coeff is None:
                # proj_J(ann H) restricted to I is proj_I(ann H)
                raise AssertionError("character restriction not defined at "
                                     "(%s, %s)" % (vertices(I), vertices(J)))
            M.update(((i, j), c) for i, c in enumerate(coeff) if c)
        return M

    def to_json(self):
        if self.d == 2:
            return {"d": 2, "m": self.m,
                    "annihilator": [list(b) for b in self.ann]}
        return {"d": 1, "m": self.m,
                "span": [[(v >> i) & 1 for i in range(self.m)]
                         for v in self.span]}


def _positions(I, J):
    """The position among the vertices of J of each vertex of I, I <= J."""
    return [(J & (b - 1)).bit_count() for b in vertex_bits(I)]


@dataclass(frozen=True)
class MeetResult:
    intersection: FinAbGroup   # character group of H `meet` G^I
    quotient: FinAbGroup       # character group of S(I) = G^I/(H `meet` G^I)


def meet_coordinate(H, I):
    """Character groups of H meet G^I and of S(I) = G^I/(H meet G^I).

    For both d, S(I) has the characters proj_I(ann H) and H meet G^I those
    of G^I modulo them."""
    chars = H.characters(I)
    if H.d == 2:
        return MeetResult(FinAbGroup.from_presentation(I.bit_count(), chars),
                          FinAbGroup.free(len(chars)))
    return MeetResult(FinAbGroup.make(0, (2,) * (I.bit_count() - len(chars))),
                      FinAbGroup.make(0, (2,) * len(chars)))


def join_coordinate(H, I):
    """Character group of Q(I) = G^m/(H . G^I), for the face mask I.

    Its characters are those of L = G^m/H that vanish on G^I: the kernel
    of proj_I on the characters of L.  The image is characters(I), the
    characters of S(I), so 1 -> S(I) -> L -> Q(I) -> 1 is exact and
    rank Q(I) = rank L - len(characters(I)), with rank L = len(ann H):
    a free lattice for d=2, an F2 space of dimension m - dim H for d=1."""
    rank = len(H.ann) - len(H.characters(I))
    if H.d == 2:
        return FinAbGroup.free(rank)
    return FinAbGroup.make(0, (2,) * rank)
