"""Freeness and compatibility checks for quasitorus actions, and
equivariant cohomology of the quotient as a degreewise limit.

For a closed subgroup H of G^m acting on the polyhedral product, each face
I carries the quotient quasitorus S(I) = G^I/(H meet G^I).  The diagram
I -> H*(BS(I)) over the face poset is assembled from character lattices;
its inverse limit computes the equivariant cohomology of the quotient when
the compatibility condition below holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .exact import f2_in_span, hnf_solve
from .homology import GradedAbGroup, PosetDiagram, limit_graded
from .intlattice import (FinAbGroup, TorusSubgroup, _f2_meet_basis,
                         meet_coordinate, s_lattice, s_space_f2)
from .momentangle import SRRing, sr_dimension
from .simplicial import contraction


class PreconditionFailed(Exception):
    """An enforced precondition failed; ``witness`` explains where."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class ActionReport:
    """Outcome of the freeness and projection-compatibility checks."""

    free: bool
    free_witness: frozenset = None        # facet with H meet G^I nontrivial
    condition1: bool = True
    condition1_witness: tuple = None      # covering pair (I, J) that fails

    def __post_init__(self):
        if self.free and not self.condition1:
            raise AssertionError("a free action always satisfies the "
                                 "projection condition")

    def to_json(self):
        return {
            "free": self.free,
            "free_witness": sorted(self.free_witness) if self.free_witness
            else None,
            "condition1": self.condition1,
            "condition1_witness":
                [sorted(self.condition1_witness[0]),
                 sorted(self.condition1_witness[1])]
                if self.condition1_witness else None,
        }


def check_free(K, H):
    """Whether H acts freely: H meet G^I trivial for every facet I.

    Returns (free, witness) with witness the first failing facet.
    """
    for I in sorted(K.facets, key=lambda f: (len(f), sorted(f))):
        if not meet_coordinate(H, I).intersection.is_trivial():
            return False, I
    return True, None


def _cond1_pair_d2(H, I, J):
    # the projection of H meet G^J to the I coordinates lands in H meet G^I
    # iff every generator of proj_I(annihilator) extends by zero into
    # proj_J(annihilator)
    AI = s_lattice(H, I)
    AJ = s_lattice(H, J)
    Is, Js = sorted(I), sorted(J)
    pos = {v: i for i, v in enumerate(Js)}
    for a in AI.basis:
        ext = [0] * len(Js)
        for v, x in zip(Is, a):
            ext[pos[v]] = x
        if not AJ.contains(ext):
            return False
    return True


def _cond1_pair_d1(H, I, J):
    maskJ = 0
    for v in J:
        maskJ |= 1 << (v - 1)
    maskI = 0
    for v in I:
        maskI |= 1 << (v - 1)
    inJ = _f2_meet_basis(H.span, maskJ)
    inI = _f2_meet_basis(H.span, maskI)
    return all(f2_in_span(inI, w & maskI) for w in inJ)


def check_condition1(K, H, all_pairs=False):
    """Projection compatibility over the face poset.

    For each covering pair I < J of faces, the image of H meet G^J under
    the coordinate projection to I must lie in H meet G^I.  Covering pairs
    generate all constraints; ``all_pairs`` rechecks every inclusion.

    Returns (ok, witness) with witness the first failing pair.
    """
    pair = _cond1_pair_d2 if H.d == 2 else _cond1_pair_d1
    faces = sorted(K.faces(), key=lambda f: (len(f), sorted(f)))
    face_set = set(faces)
    for J in faces:
        if all_pairs:
            smaller = [I for I in faces if I < J]
        else:
            smaller = [J - {v} for v in sorted(J) if J - {v} in face_set]
        for I in smaller:
            if not pair(H, I, J):
                return False, (I, J)
    return True, None


def require_condition1(K, H):
    """Raise PreconditionFailed at the first covering pair where projection
    compatibility fails."""
    ok, witness = check_condition1(K, H)
    if not ok:
        raise PreconditionFailed(
            "projection compatibility fails at the covering pair "
            "(%s, %s)" % (sorted(witness[0]), sorted(witness[1])),
            witness=witness)


def action_report(K, H):
    free, fw = check_free(K, H)
    cond, cw = check_condition1(K, H)
    return ActionReport(free=free, free_witness=fw,
                        condition1=cond, condition1_witness=cw)


def classifying_cohomology(G, max_degree):
    """H*(B(T^r x product of Z/n_i); Z) up to max_degree.

    G is the character group of the quasitorus.  Assembled by iterated
    Kunneth with torsion cross-terms from the rank-one pieces: a circle
    contributes a polynomial generator in degree 2, a Z/n factor
    contributes Z/n in every positive even degree.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    out = GradedAbGroup.make({0: FinAbGroup.free(1)})
    if G.free_rank:
        poly = {2 * k: FinAbGroup.free(comb(G.free_rank + k - 1, k))
                for k in range(0, max_degree // 2 + 1)}
        out = graded_kunneth(out, GradedAbGroup.make(poly), max_degree)
    for n in G.torsion:
        piece = {0: FinAbGroup.free(1)}
        for k in range(2, max_degree + 1, 2):
            piece[k] = FinAbGroup.cyclic(n)
        out = graded_kunneth(out, GradedAbGroup.make(piece), max_degree)
    return out


def graded_kunneth(A, B, max_degree):
    """Graded tensor product with Tor correction terms one degree up."""
    out = {}

    def add(deg, g):
        if deg <= max_degree and not g.is_trivial():
            out[deg] = out.get(deg, FinAbGroup.trivial()).direct_sum(g)

    for p, gp in A.groups:
        for q, gq in B.groups:
            add(p + q, gp.tensor(gq))
            add(p + q + 1, gp.tor(gq))
    return GradedAbGroup.make(out)


# ---------------------------------------------------------------------------
# the diagram I -> H*(BS(I)) and its limit
# ---------------------------------------------------------------------------

def _monomials(r, k):
    """Exponent tuples of total degree k in r variables, in a fixed order."""
    if r == 0:
        return [()] if k == 0 else []
    out = []

    def rec(prefix, rem, vars_left):
        if vars_left == 1:
            out.append(prefix + (rem,))
            return
        for e in range(rem, -1, -1):
            rec(prefix + (e,), rem - e, vars_left - 1)

    rec((), k, r)
    return out


def _sym_power(M, rows, cols, k, mod=None):
    """k-th symmetric power of the linear map with dense matrix M
    (rows x cols) on the monomial bases from _monomials, as a dict
    {(row, col): value} of its nonzero entries."""
    src = _monomials(cols, k)
    tgt_index = {mono: i for i, mono in enumerate(_monomials(rows, k))}
    out = {}
    for j, alpha in enumerate(src):
        # expand the product over variables of (column image)^exponent
        poly = {(0,) * rows: 1}
        for var, e in enumerate(alpha):
            col = [M[r][var] for r in range(rows)]
            for _ in range(e):
                nxt = {}
                for mono, c in poly.items():
                    for r in range(rows):
                        if not col[r]:
                            continue
                        mono2 = mono[:r] + (mono[r] + 1,) + mono[r + 1:]
                        nxt[mono2] = nxt.get(mono2, 0) + c * col[r]
                poly = nxt
        for mono, c in poly.items():
            if mod:
                c %= mod
            if c:
                out[tgt_index[mono], j] = c
    return out


def _f2_coords(basis, vec):
    """Coordinates of vec in the F2 basis (bitmask rows), or None."""
    coeffs = [0] * len(basis)
    v = vec
    for i, b in enumerate(basis):
        p = b.bit_length() - 1
        if (v >> p) & 1:
            v ^= b
            coeffs[i] = 1
    return coeffs if v == 0 else None


def build_classifying_diagram(K, H, max_degree):
    """PosetDiagram of H*(BS(I)) over the faces of K.

    d=2: integral polynomial rings on the character lattices, even degrees.
    d=1: mod-2 polynomial rings on degree-one classes, stored as order-2
    generators in every degree.
    """
    faces = sorted(K.faces(), key=lambda f: (len(f), sorted(f)))
    step = 2 if H.d == 2 else 1
    top_k = max_degree // step
    bases = {}
    ranks = {}
    for I in faces:
        if H.d == 2:
            bases[I] = [list(b) for b in s_lattice(H, I).basis]
        else:
            bases[I] = s_space_f2(H, I)
        ranks[I] = len(bases[I])
    # character map A_J -> A_I for each covering pair
    char_maps = {}
    face_set = set(faces)
    for J in faces:
        for v in sorted(J):
            I = J - {v}
            if I not in face_set:
                continue
            char_maps[(I, J)] = _char_map(H, I, J, bases)
    orders = {}
    arrows = {}
    for I in faces:
        for k in range(top_k + 1):
            n = len(_monomials(ranks[I], k))
            if n:
                orders[(I, k * step)] = ((0,) * n if H.d == 2 else (2,) * n)
    for (I, J), M in char_maps.items():
        for k in range(top_k + 1):
            if (I, k * step) not in orders or (J, k * step) not in orders:
                continue
            arrows[(I, J, k * step)] = _sym_power(
                M, ranks[I], ranks[J], k, mod=2 if H.d == 1 else None)
    return PosetDiagram(faces=tuple(faces), orders=orders, arrows=arrows,
                        max_degree=max_degree)


def _char_map(H, I, J, bases):
    """Matrix of restriction of characters from S(J) to S(I) in the chosen
    bases: columns are the J-basis characters written in the I-basis."""
    Is, Js = sorted(I), sorted(J)
    if H.d == 2:
        picked = [Js.index(v) for v in Is]
        rows = len(bases[I])
        out = [[0] * len(bases[J]) for _ in range(rows)]
        for j, b in enumerate(bases[J]):
            restricted = [b[t] for t in picked]
            coeff = hnf_solve([list(a) for a in bases[I]], restricted)
            if coeff is None:
                raise PreconditionFailed(
                    "character restriction not integral", witness=(I, J))
            for i in range(rows):
                out[i][j] = coeff[i]
        return out
    pos = {v: t for t, v in enumerate(Js)}
    rows = len(bases[I])
    out = [[0] * len(bases[J]) for _ in range(rows)]
    for j, b in enumerate(bases[J]):
        restricted = 0
        for t, v in enumerate(Is):
            if (b >> pos[v]) & 1:
                restricted |= 1 << t
        coeff = _f2_coords(bases[I], restricted)
        if coeff is None:
            raise PreconditionFailed(
                "character restriction not defined", witness=(I, J))
        for i in range(rows):
            out[i][j] = coeff[i]
    return out


def equivariant_limit(K, H, max_degree):
    """Equivariant cohomology of the quotient of the polyhedral product,
    as the degreewise limit of H*(BS(I)) over the face poset.

    Enforces the projection-compatibility condition and reports the first
    failing covering pair on violation.
    """
    require_condition1(K, H)
    D = build_classifying_diagram(K, H, max_degree)
    return limit_graded(D, max_degree)


def graded_dimensions(G, d):
    """Degreewise dimensions of a limit value: ranks for d=2, F2
    dimensions (torsion generator counts) for d=1."""
    out = {}
    for deg, g in G.groups:
        dim = g.free_rank if d == 2 else g.free_rank + len(g.torsion)
        if dim:
            out[deg] = dim
    return out


def coordinate_quotient_check(K, I0, max_degree, d=2):
    """Whether the limit for the coordinate subgroup G^I0 matches the face
    ring of the contraction of K at I0, degreewise up to max_degree."""
    H = TorusSubgroup.coordinate(d, K.m, I0)
    lim = equivariant_limit(K, H, max_degree)
    dims = graded_dimensions(lim, d)
    Kc = contraction(K, frozenset(I0))
    R = SRRing(Kc, d)
    for n in range(max_degree + 1):
        if dims.get(n, 0) != sr_dimension(R, n):
            return False
    return True
