"""The torsion-construction pipeline.

Starting from a triangulated Moore space, a stellar subdivision guarantees
a disjoint vertex pair, iterated combinatorial face truncations of the
dual simplex produce a polytopal-sphere nerve, and a one-parameter circle
subgroup acts freely on the corresponding moment-angle manifold.  The
pipeline reports where the torsion of the input is predicted to reappear
in the quotient's cohomology.
"""

from __future__ import annotations

from dataclasses import dataclass

from .equivariant import check_free
from .intlattice import TorusSubgroup
from .momentangle import PreconditionFailed
from .simplicial import (SimplicialComplex, SphereSanityReport,
                         boundary_simplex, full_subcomplex, minimal_non_faces,
                         sphere_sanity, stellar_subdivision, vertices)


def rp2_6():
    """The 6-vertex triangulation of the real projective plane."""
    facets = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
              (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)]
    return SimplicialComplex(6, [frozenset(f) for f in facets])


def truncate_face(S, sigma, presanitized=False):
    """Truncate the face of the simple polytope dual to the face sigma of
    its nerve sphere S; combinatorially, the stellar subdivision at sigma.

    Adds one vertex; sigma stops being a face.
    """
    sigma = frozenset(sigma)
    if not S.is_face(sigma) or not sigma:
        raise ValueError(
            "cannot truncate at %s: not a face of the sphere" % sorted(sigma))
    if not presanitized and not sphere_sanity(S).passed:
        raise ValueError("input fails the sphere sanity battery")
    out = stellar_subdivision(S, sigma)
    if out.m != S.m + 1 or out.is_face(sigma):
        raise AssertionError("truncation postcondition violated")
    return out


def bosio_meersseman_nerve(Kp):
    """Nerve of the simple polytope obtained from the simplex by cutting
    the faces dual to the minimal non-faces of Kp, in lexicographic order.

    The result is an (m-2)-dimensional sphere on m + |MF(Kp)| vertices, and
    every minimal non-face of Kp stays a non-face.
    """
    m = Kp.m
    if m < 3:
        raise ValueError("need at least 3 vertices")
    mf = sorted(minimal_non_faces(Kp), key=sorted)
    if not mf:
        raise ValueError("the input has no minimal non-face (full simplex)")
    S = boundary_simplex(m)
    for sigma in mf:
        S = truncate_face(S, sigma, presanitized=True)
    if S.m != m + len(mf):
        raise AssertionError("vertex count is off after the fold")
    for sigma in mf:
        if S.is_face(sigma):
            raise AssertionError(
                "%s survived the fold as a face" % sorted(sigma))
    return S


def lambda_alpha_subgroup(M, pair):
    """The circle in T^M wiped out by gluing coordinates i and j: its
    annihilator is the sublattice of characters with equal i and j
    entries."""
    i, j = sorted(pair)
    if i == j:
        raise ValueError("the pair must consist of two distinct vertices")
    if not (1 <= i < j <= M):
        raise ValueError("pair out of range 1..%d" % M)
    gens = []
    for k in range(1, M + 1):
        if k == j:
            continue
        row = [0] * M
        row[k - 1] = 1
        if k == i:
            row[j - 1] = 1
        gens.append(row)
    return TorusSubgroup.from_annihilator(M, gens)


@dataclass(frozen=True)
class TorsionPipelineReport:
    input_m: int                 # vertices of the Moore-space triangulation
    m: int                       # vertices of K' (after the subdivision)
    mf_count: int                # |MF(K')|
    M: int                       # vertices of the nerve sphere
    sphere: SphereSanityReport
    pair: tuple                  # the glued vertex pair {i, j}
    subgroup: TorusSubgroup
    free: bool
    q: int                       # degree where the torsion reappears
    quotient_dim: int
    nerve: SimplicialComplex = None

    def to_json(self):
        return {
            "input_m": self.input_m,
            "m": self.m,
            "mf_count": self.mf_count,
            "M": self.M,
            "sphere_sanity": self.sphere.to_json(),
            "pair": list(self.pair),
            "subgroup": self.subgroup.to_json(),
            "free": self.free,
            "q": self.q,
            "quotient_dim": self.quotient_dim,
        }


def torsion_pipeline(K, p):
    """End-to-end construction of a freely acting circle whose quotient is
    predicted to carry the torsion of the input in degree p + m.

    K triangulates a space with interesting cohomology in top degree p;
    the output records the nerve sphere, the circle, the freeness verdict,
    and the predicted torsion degree and quotient dimension.  Integral
    torsion of K sits only in degrees 2..dim K, as H^1 is free.
    """
    if K.m < 3 or K.is_void():
        raise PreconditionFailed("need at least 3 vertices and a facet")
    if not 2 <= p <= K.dim():
        raise PreconditionFailed("p=%d: integral torsion of K sits only in "
                                 "degrees 2..%d" % (p, K.dim()))
    # subdividing a maximal simplex creates a vertex pair spanning a
    # non-edge: the new vertex and any vertex outside that facet, which
    # exists unless K is the full simplex
    Kp = stellar_subdivision(K, min(map(vertices, K.facet_masks)))
    m = Kp.m
    pair = None
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            if not Kp.is_face({i, j}):
                pair = (i, j)
                break
        if pair:
            break
    if pair is None:
        raise PreconditionFailed("K is a simplex: no disjoint vertex pair "
                                 "after the subdivision")
    nerve = bosio_meersseman_nerve(Kp)
    if full_subcomplex(nerve, range(1, m + 1)) != Kp:
        raise AssertionError("the nerve's full subcomplex on 1..%d is not "
                             "the subdivided input" % m)
    M = nerve.m
    mf_count = M - m   # the nerve checked M == m + |MF(K')|
    sphere = sphere_sanity(nerve)
    if not sphere.passed:
        raise AssertionError("nerve sphere fails the sanity battery")
    H = lambda_alpha_subgroup(M, pair)
    free, witness = check_free(nerve, H)
    if not free:
        raise AssertionError(
            "the circle is not free on the nerve (witness facet %s)"
            % sorted(witness))
    return TorsionPipelineReport(
        input_m=K.m, m=m, mf_count=mf_count, M=M, sphere=sphere, pair=pair,
        subgroup=H, free=free, q=p + m, quotient_dim=2 * m + mf_count - 2,
        nerve=nerve)
