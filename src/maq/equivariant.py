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

from .homology import GradedAbGroup, PosetDiagram, limit_graded
from .intlattice import FinAbGroup, TorusSubgroup
from .momentangle import BoundExceeded, PreconditionFailed, sr_dimension
from .simplicial import contraction, face_order, vertex_bits, vertices

# the most facet generators in the top degree that equivariant_limit
# presents: on boundary_simplex(9) with the trivial subgroup a limit costs
# about 35 us and 1.2 KB per facet generator (2 vCPUs, Python 3.11), so
# a run at the cap takes on the order of 35 s and 1.2 GB
LIMIT_GENERATOR_CAP = 1_000_000


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

def build_classifying_diagram(K, H):
    """PosetDiagram of the characters of S(I) over the faces of K, whose
    symmetric algebras are H*(BS(I)).

    The value at I is free on the characters of S(I), of rank
    len(H.characters(I)), and the arrow of a cover I < J is the
    restriction of characters H.restriction(I, J).  d=2: over Z, the
    characters in degree 2, ``mod`` None.  d=1: over F2, the characters
    in degree 1, ``mod`` 2.  limit_graded takes Sym^k of the diagram, the
    part of H*(BS(I)) in degree k times that step.

    The character map of a cover I = J - {v} is a function of the
    characters of I and J and of the position of v in J (vertex_bits
    order), so it is computed once per such triple, and the covers that
    share the triple share one matrix; PosetDiagram's identity-keyed
    memos see the repeated keys.  The memo lives for the call.
    """
    faces = K.face_masks
    chars = {I: H.characters(I) for I in faces}
    maps = {}     # (chars[I], chars[J], position) -> character map
    arrows = {}
    for J in faces:
        for t, b in enumerate(vertex_bits(J)):
            I = J ^ b
            key = chars[I], chars[J], t
            M = maps.get(key)
            if M is None:
                M = maps[key] = H.restriction(I, J)
            arrows[I, J] = M
    try:
        return PosetDiagram(faces=faces,
                            ranks={I: len(chars[I]) for I in faces},
                            arrows=arrows, mod=2 if H.d == 1 else None)
    except ValueError as exc:
        # every arrow is a restriction of characters, so the diagram is
        # functorial by construction; a failure here is a bug, not input
        raise AssertionError("classifying diagram: %s" % exc) from exc


def equivariant_limit(K, H, max_degree):
    """Equivariant cohomology of the quotient of the polyhedral product,
    as the degreewise limit of H*(BS(I)) over the face poset: Sym^k of
    the classifying diagram, placed in degree k * step, step 2 for d=2
    and 1 for d=1.

    Enforces the projection-compatibility condition and reports the first
    failing covering pair on violation.  Before the diagram is built, the
    generators of the facet values in the top degree, the unknowns of
    limit_graded's largest presentation, are counted against
    LIMIT_GENERATOR_CAP; past it, BoundExceeded names the layer "limit",
    the count and the degree.
    """
    require_condition1(K, H)
    step = 2 if H.d == 2 else 1
    top_k = max_degree // step
    count = sum(comb(len(H.characters(F)) + top_k - 1, top_k) if top_k > 0
                else 1 for F in K.facet_masks)
    if count > LIMIT_GENERATOR_CAP:
        raise BoundExceeded(
            "limit: %d facet generators in degree %d exceed cap %d"
            % (count, top_k * step, LIMIT_GENERATOR_CAP), "limit", count,
            LIMIT_GENERATOR_CAP, degree=top_k * step)
    lim = limit_graded(build_classifying_diagram(K, H), top_k)
    return GradedAbGroup.make({k * step: g for k, g in lim.groups})


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
