"""Freeness and compatibility checks for quasitorus actions, and
equivariant cohomology of the quotient as a degreewise limit.

For a closed subgroup H of G^m acting on the polyhedral product, each face
I carries the quotient quasitorus S(I) = G^I/(H meet G^I).  The diagram
I -> H*(BS(I)) over the face poset is assembled from character lattices;
its inverse limit computes the equivariant cohomology of the quotient when
the compatibility condition below holds.  The subgroup answers every
face-wise question itself (``TorusSubgroup.is_full``, ``extends`` and
``restriction``), so nothing here reads how a character is stored; only
the ring, Z for d=2 and F2 for d=1, and its degree step depend on d.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .homology import PosetDiagram, limit_graded
from .intlattice import FinAbGroup, TorusSubgroup
from .momentangle import PreconditionFailed, sr_dimension
from .simplicial import contraction, face_order, vertex_bits, vertices


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


def _same_vertices(K, H):
    if H.m != K.m:
        raise ValueError("subgroup and complex live on different vertex sets")


def check_free(K, H):
    """Whether H acts freely: H meet G^I trivial for every facet I.

    H meet G^I has the characters of G^I modulo proj_I(ann H), so it is
    trivial exactly when proj_I(ann H) is all of Z^I (F2^I for d=1),
    which H.is_full reads off the canonical basis.

    Returns (free, witness) with witness the first failing facet.
    """
    _same_vertices(K, H)
    failing = [F for F in K.facet_masks if not H.is_full(F)]
    if failing:
        return False, frozenset(vertices(min(failing, key=face_order)))
    return True, None


def check_condition1(K, H, all_pairs=False):
    """Projection compatibility over the face poset.

    For each covering pair I < J of faces, the image of H meet G^J under
    the coordinate projection to I must lie in H meet G^I.  Dually, since
    the annihilator of H meet G^J is proj_J(ann H) for both d: every
    character of S(I), extended by zero, is a character of S(J).  That one
    predicate, H.extends(I, J), is checked for d=1 and d=2 alike.
    Covering pairs generate all constraints; ``all_pairs`` rechecks every
    inclusion.

    A face J inside a facet F with proj_F(ann H) all of Z^F (F2^F for
    d=1) has proj_J(ann H) all of Z^J, so no pair (I, J) can fail there.
    The facets are tested first, the faces below a full facet are
    collected by walking down from those facets, each face once, and
    skipped; the other faces' characters are read as the pairs reach
    them, each computed once by H.characters.  The skipped pairs cannot
    fail, so the first failing pair is the same as over all pairs.

    Returns (ok, witness) with witness the first failing pair.
    """
    _same_vertices(K, H)
    below_full = set()
    stack = [F for F in K.facet_masks if H.is_full(F)]
    while stack:
        J = stack.pop()
        if J not in below_full:
            below_full.add(J)
            stack.extend(J ^ b for b in vertex_bits(J))
    faces = sorted(K.face_masks, key=face_order)
    for J in faces:
        if J in below_full:
            continue
        if all_pairs:
            smaller = [I for I in faces if I & ~J == 0 and I != J]
        else:
            smaller = [J ^ b for b in vertex_bits(J)]
        for I in smaller:
            if not H.extends(I, J):
                return False, (frozenset(vertices(I)), frozenset(vertices(J)))
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


def require_free(K, H):
    """Raise PreconditionFailed at the first facet I where H meets G^I."""
    free, witness = check_free(K, H)
    if not free:
        raise PreconditionFailed(
            "the action is not free (witness facet %s)" % sorted(witness),
            witness=witness)


def action_report(K, H):
    free, fw = check_free(K, H)
    cond, cw = check_condition1(K, H)
    return ActionReport(free=free, free_witness=fw,
                        condition1=cond, condition1_witness=cw)


# ---------------------------------------------------------------------------
# the diagram I -> H*(BS(I)) and its limit
# ---------------------------------------------------------------------------

def _monomial_index(indexes, rank, k, width):
    """{code: position} over the degree-k monomials in ``rank`` factors,
    kept in ``indexes`` under (rank, k).

    Positions follow combinations_with_replacement(range(rank), k).  A
    monomial's code holds the exponent of factor r in the ``width``-bit
    field at bit r * width, so multiplying by factor r adds 1 << r * width,
    and the highest set bit lies in the field of the last factor.  Degree k
    extends each monomial of degree k-1, in order, by every factor from its
    last one on, which is that order.
    """
    found = indexes.get((rank, k))
    if found is None:
        if k == 0:
            found = {0: 0}
        else:
            steps = [1 << r * width for r in range(rank)]
            lower = _monomial_index(indexes, rank, k - 1, width)
            found = {}
            for code in lower:
                for j in range((code.bit_length() - 1) // width if code else 0,
                               rank):
                    found[code + steps[j]] = len(found)
        indexes[rank, k] = found
    return found


def _sym_powers(columns, rows, top_k, mod=None, indexes=None):
    """Symmetric powers 0..top_k of the linear map whose j-th column is the
    sparse dict ``columns[j]`` ({row: value}) with ``rows`` rows.

    Degree k uses the monomial basis combinations_with_replacement(range(n),
    k) on both sides.  Each power is a dict {(row, col): value} of its
    nonzero entries, reduced mod ``mod`` when given.  Degree k is built from
    degree k-1: a monomial's image is the image of its first k-1 factors
    times the column of its last factor, which is no smaller than any of
    the others.  Only the nonzero images of degree k-1 are extended, since
    a zero image has only zero extensions.

    Monomials are coded as ints, as in ``_monomial_index`` with a field
    width of top_k.bit_length() bits, wide enough for any exponent up to
    top_k; a code is turned into its position by the index of its rank
    and degree.  ``indexes`` maps (rank, k) to that index and is filled as
    needed; a caller may share one dict between calls with the same top_k.
    """
    width = top_k.bit_length()
    if indexes is None:
        indexes = {}
    cols = [[(1 << r * width, x) for r, x in col.items()] for col in columns]
    steps = [1 << j * width for j in range(len(columns))]
    images = [(0, 0, {0: 1})]   # (source code, last factor, nonzero image)
    powers = [{(0, 0): 1}]
    for k in range(1, top_k + 1):
        source = _monomial_index(indexes, len(columns), k, width)
        target = _monomial_index(indexes, rows, k, width)
        nxt = []
        arrow = {}
        for code, last, image in images:
            for j in range(last, len(columns)):
                col = cols[j]
                if not col:
                    continue
                out = {}
                for t, c in image.items():
                    for step, x in col:
                        out[t + step] = out.get(t + step, 0) + c * x
                if mod:
                    out = {t: c % mod for t, c in out.items() if c % mod}
                else:
                    out = {t: c for t, c in out.items() if c}
                if out:
                    mono = code + steps[j]
                    nxt.append((mono, j, out))
                    pos = source[mono]
                    for t, c in out.items():
                        arrow[target[t], pos] = c
        images = nxt
        powers.append(arrow)
    return powers


def build_classifying_diagram(K, H, max_degree):
    """PosetDiagram of H*(BS(I)) over the faces of K.

    d=2: integral polynomial rings on the character lattices, even
    degrees, ``mod`` None.  d=1: mod-2 polynomial rings on degree-one
    classes, every degree, ``mod`` 2.  The value at I in degree k * step
    is free of rank C(r + k - 1, k), r = len(H.characters(I)), so the
    faces with the same r share one rank profile.

    Covers with the same character map share one graded arrow, its table
    of symmetric powers, so PosetDiagram's identity-keyed memos see
    repeated keys.  The character map of a cover I = J - {v},
    H.restriction(I, J), is a function of the characters of I and J and
    of the position of v in J (vertex_bits order), and is computed once
    per such triple.  The tables are memoized under the key
    ``(len(characters(I)), columns)``, with ``columns`` the sparse
    columns of the restriction as tuples of sorted ``(row, value)``
    items.  The row count belongs to the key because it fixes the
    monomial index of the target; ``top_k`` and the modulus are fixed
    within the call.  The key also fixes the ranks of both ends, one per
    column, so a table holds exactly the degrees in which both ends are
    nonzero: every degree when both have characters, else degree 0.
    Every table reads one shared monomial index per (rank, degree), as
    source and as target, built on first use.  The memos and the indexes
    live for the call.
    """
    faces = K.face_masks
    step = 2 if H.d == 2 else 1
    mod = 2 if H.d == 1 else None
    top_k = max_degree // step
    chars = {I: H.characters(I) for I in faces}
    profiles = {}   # character rank -> {degree: rank}
    ranks = {}
    for I in faces:
        r = len(chars[I])
        if r not in profiles:
            profiles[r] = {k * step: comb(r + k - 1, k) if k else 1
                           for k in range(top_k + 1 if r else 1)}
        ranks[I] = profiles[r]
    maps = {}     # (chars[I], chars[J], position) -> graded arrow
    tables = {}
    indexes = {}  # (rank, k) -> {monomial code: position}
    arrows = {}
    for J in faces:
        for t, b in enumerate(vertex_bits(J)):
            I = J ^ b
            key = chars[I], chars[J], t
            graded = maps.get(key)
            if graded is None:
                columns = H.restriction(I, J)
                table = (len(chars[I]),
                         tuple(tuple(sorted(col.items())) for col in columns))
                graded = tables.get(table)
                if graded is None:
                    powers = _sym_powers(columns, len(chars[I]), top_k, mod,
                                         indexes)
                    if not (chars[I] and columns):
                        powers = powers[:1]
                    graded = tables[table] = {
                        k * step: arrow for k, arrow in enumerate(powers)}
                maps[key] = graded
            arrows[I, J] = graded
    try:
        return PosetDiagram(faces=faces, ranks=ranks, arrows=arrows,
                            max_degree=max_degree, mod=mod)
    except ValueError as exc:
        # every arrow is a restriction of characters, so the diagram is
        # functorial by construction; a failure here is a bug, not input
        raise AssertionError("classifying diagram: %s" % exc) from exc


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
    diagram is one of F2-modules, so the limit in degree n must be
    (Z/2)^sr_dimension: rank 0, every coefficient 2.  Whole groups are
    compared, so a free summand, or a summand of another order, fails
    the check as a wrong count does.  ``I0`` is read once, so any iterable
    of vertices will do.
    """
    I0 = tuple(I0)
    H = TorusSubgroup.coordinate(d, K.m, I0)
    lim = equivariant_limit(K, H, max_degree)
    Kc = contraction(K, I0)
    for n in range(max_degree + 1):
        count = sr_dimension(Kc, n, d)
        want = (FinAbGroup.free(count) if d == 2
                else FinAbGroup.make(0, (2,) * count))
        if lim.group(n) != want:
            return False
    return True
