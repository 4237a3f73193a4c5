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
from itertools import combinations_with_replacement
from math import comb

from .exact import f2_solve, hnf_solve
from .homology import GradedAbGroup, PosetDiagram, limit_graded
from .intlattice import FinAbGroup, TorusSubgroup
from .momentangle import sr_dimension
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

    H meet G^I has the characters of G^I modulo proj_I(ann H), so it is
    trivial exactly when proj_I(ann H) is all of Z^I (F2^I for d=1),
    which _is_full reads off the canonical basis: a Hermite form of rank
    |I| with every pivot 1 is the identity.

    Returns (free, witness) with witness the first failing facet.
    """
    for I in sorted(K.facets, key=lambda f: (len(f), sorted(f))):
        if not _is_full(H.d, H.characters(I), len(I)):
            return False, I
    return True, None


def _reindex(d, x, pairs, width):
    """Character x moved along (source, target) coordinate positions, zero
    elsewhere: a list of ``width`` entries for d=2, a bitmask for d=1."""
    if d == 2:
        out = [0] * width
        for s, t in pairs:
            out[t] = x[s]
        return out
    return sum(((x >> s) & 1) << t for s, t in pairs)


def _solve(d, basis, x):
    """Coordinates of the character x in a face's character basis, or None
    when x is not a character of that face."""
    if d == 2:
        return hnf_solve(basis, x)
    residue, tag = f2_solve([(b, 1 << i) for i, b in enumerate(basis)], x)
    return None if residue else [(tag >> i) & 1 for i in range(len(basis))]


def _positions(I, J):
    """(position in sorted(I), position in sorted(J)) for each vertex of I."""
    Js = sorted(J)
    return [(t, Js.index(v)) for t, v in enumerate(sorted(I))]


def _is_full(d, chars, n):
    """Whether a face with n vertices sees all of G^n: its character basis
    spans Z^n (rank n, every HNF pivot 1) for d=2, F2^n (rank n) for d=1."""
    if len(chars) != n:
        return False
    return d == 1 or all(next(x for x in row if x) == 1 for row in chars)


def check_condition1(K, H, all_pairs=False):
    """Projection compatibility over the face poset.

    For each covering pair I < J of faces, the image of H meet G^J under
    the coordinate projection to I must lie in H meet G^I.  Dually, since
    the annihilator of H meet G^J is proj_J(ann H) for both d: every
    character of S(I), extended by zero, is a character of S(J).  That one
    predicate is checked for d=1 and d=2 alike.  Covering pairs generate
    all constraints; ``all_pairs`` rechecks every inclusion.

    A face J inside a facet F with proj_F(ann H) all of Z^F (F2^F for
    d=1) has proj_J(ann H) all of Z^J, so no pair (I, J) can fail there.
    The facets' characters are read first, the faces below a full facet
    are collected by walking down from those facets, each face once, and
    skipped; the other faces' characters are read as the pairs reach
    them, each computed once by H.characters.  The skipped pairs cannot
    fail, so the first failing pair is the same as over all pairs.

    Returns (ok, witness) with witness the first failing pair.
    """
    below_full = set()
    stack = [F for F in K.facets if _is_full(H.d, H.characters(F), len(F))]
    while stack:
        J = stack.pop()
        if J not in below_full:
            below_full.add(J)
            stack.extend(J - {v} for v in J)
    faces = K.faces()
    is_face = set(faces)
    for J in faces:
        if J in below_full:
            continue
        if all_pairs:
            smaller = [I for I in faces if I < J]
        else:
            smaller = [J - {v} for v in sorted(J) if J - {v} in is_face]
        basis = H.characters(J)
        for I in smaller:
            pairs = _positions(I, J)
            for a in H.characters(I):
                if _solve(H.d, basis,
                          _reindex(H.d, a, pairs, len(J))) is None:
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

def _sym_powers(columns, rows, top_k, mod=None):
    """Symmetric powers 0..top_k of the linear map whose j-th column is the
    sparse dict ``columns[j]`` ({row: value}) with ``rows`` rows.

    Degree k uses the monomial basis combinations_with_replacement(range(n),
    k) on both sides.  Each power is a dict {(row, col): value} of its
    nonzero entries, reduced mod ``mod`` when given.  Degree k is built from
    degree k-1: a monomial's image is the image of its first k-1 factors
    times the column of its last factor.
    """
    images = {(): {(): 1}}
    powers = [{(0, 0): 1}]
    for k in range(1, top_k + 1):
        index = {mono: i for i, mono in
                 enumerate(combinations_with_replacement(range(rows), k))}
        nxt = {}
        arrow = {}
        for j, mono in enumerate(
                combinations_with_replacement(range(len(columns)), k)):
            image = {}
            for tgt, c in images[mono[:-1]].items():
                for r, x in columns[mono[-1]].items():
                    key = tuple(sorted(tgt + (r,)))
                    image[key] = image.get(key, 0) + c * x
            if mod:
                image = {t: c % mod for t, c in image.items()}
            nxt[mono] = image = {t: c for t, c in image.items() if c}
            for tgt, c in image.items():
                arrow[index[tgt], j] = c
        images = nxt
        powers.append(arrow)
    return powers


def build_classifying_diagram(K, H, max_degree):
    """PosetDiagram of H*(BS(I)) over the faces of K.

    d=2: integral polynomial rings on the character lattices, even degrees.
    d=1: mod-2 polynomial rings on degree-one classes, stored as order-2
    generators in every degree.

    Values with the same generator count share one ``orders`` tuple, and
    covers with the same character map share one table of symmetric
    powers, so PosetDiagram's identity-keyed memos see repeated keys.
    The character map of a cover I = J - {v} is a function of chars[I],
    chars[J] and the position of v in sorted(J), and is solved once per
    distinct such triple, compared by content.  The tables are memoized
    under the key ``(len(chars[I]), columns)``, with ``columns`` the
    sparse columns of _char_map as tuples of sorted ``(row, value)``
    items.  The row count belongs to the key because it fixes the
    monomial index of the target; ``top_k`` and the modulus are fixed
    within the call.  Both memos live for the call.
    """
    faces = K.faces()
    step = 2 if H.d == 2 else 1
    top_k = max_degree // step
    chars = {I: H.characters(I) for I in faces}
    # chars[I] by content: HNF rows as tuples for d=2, bitmasks for d=1
    content = {I: tuple(map(tuple, c)) if H.d == 2 else tuple(c)
               for I, c in chars.items()}
    shapes = {}   # generator count -> the one orders tuple for it
    orders = {}
    for I in faces:
        r = len(chars[I])
        for k in range(top_k + 1 if r else 1):
            n = comb(r + k - 1, k) if k else 1
            if n not in shapes:
                shapes[n] = (0,) * n if H.d == 2 else (2,) * n
            orders[(I, k * step)] = shapes[n]
    mod = 2 if H.d == 1 else None
    maps = {}     # (content of I, content of J, position) -> table
    tables = {}
    arrows = {}
    for J in faces:
        for t, v in enumerate(sorted(J)):
            I = J - {v}
            if I not in chars:
                continue
            key = content[I], content[J], t
            powers = maps.get(key)
            if powers is None:
                columns = _char_map(H, I, J, chars)
                table = (len(chars[I]),
                         tuple(tuple(sorted(col.items())) for col in columns))
                powers = tables.get(table)
                if powers is None:
                    powers = tables[table] = _sym_powers(
                        columns, len(chars[I]), top_k, mod)
                maps[key] = powers
            for k, arrow in enumerate(powers):
                if (I, k * step) in orders and (J, k * step) in orders:
                    arrows[(I, J, k * step)] = arrow
    try:
        return PosetDiagram(faces=tuple(faces), orders=orders, arrows=arrows,
                            max_degree=max_degree)
    except ValueError as exc:
        # every arrow is a restriction of characters, so the diagram is
        # functorial by construction; a failure here is a bug, not input
        raise AssertionError("classifying diagram: %s" % exc) from exc


def _char_map(H, I, J, chars):
    """Restriction of characters from S(J) to S(I) in the chosen bases, as
    sparse columns: column j is the j-th J-basis character written in the
    I-basis, a dict {row: value} of its nonzero coordinates."""
    pairs = [(t, s) for s, t in _positions(I, J)]
    columns = []
    for b in chars[J]:
        coeff = _solve(H.d, chars[I], _reindex(H.d, b, pairs, len(I)))
        if coeff is None:
            # proj_J(ann H) restricted to I is proj_I(ann H)
            raise AssertionError("character restriction not defined at "
                                 "(%s, %s)" % (sorted(I), sorted(J)))
        columns.append({i: c for i, c in enumerate(coeff) if c})
    return columns


def equivariant_limit(K, H, max_degree):
    """Equivariant cohomology of the quotient of the polyhedral product,
    as the degreewise limit of H*(BS(I)) over the face poset.

    Enforces the projection-compatibility condition and reports the first
    failing covering pair on violation.
    """
    require_condition1(K, H)
    D = build_classifying_diagram(K, H, max_degree)
    return limit_graded(D)


def coordinate_quotient_check(K, I0, max_degree, d=2):
    """Whether the limit for the coordinate subgroup G^I0 is the face ring
    of the contraction of K at I0, group by group in every degree up to
    max_degree.

    The face ring is free, with generators of degree d, so for d=2 the
    limit in degree n must be free of rank sr_dimension.  For d=1 the
    diagram stores mod-2 rings as order-2 generators, so the limit in
    degree n must be (Z/2)^sr_dimension: rank 0, every coefficient 2.
    Stray torsion, or a coefficient other than 2, fails the check as a
    wrong count does.
    """
    H = TorusSubgroup.coordinate(d, K.m, I0)
    lim = equivariant_limit(K, H, max_degree)
    Kc = contraction(K, frozenset(I0))
    for n in range(max_degree + 1):
        count = sr_dimension(Kc, n, d)
        want = (FinAbGroup.free(count) if d == 2
                else FinAbGroup.make(0, (2,) * count))
        if lim.group(n) != want:
            return False
    return True
