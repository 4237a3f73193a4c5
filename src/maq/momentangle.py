"""Cohomology of moment-angle complexes and rank bookkeeping.

The decomposition H^p = direct sum over vertex subsets I of the reduced
cohomology of the full subcomplex on I, shifted by |I|+1, is the ground
truth oracle here: every other cohomology pathway in the package is
reconciled against it where both apply.
"""

from __future__ import annotations

from functools import reduce
from math import comb
from operator import and_, or_

from .homology import GradedAbGroup, face_chain_complex
from .intlattice import FinAbGroup
from .simplicial import _relabeled, full_subcomplex, vertices

# the most vertices hochster and buchstaber_real accept
HOCHSTER_M_BOUND = 14
BUCHSTABER_REAL_M_BOUND = 12


class BoundExceeded(Exception):
    """Input size beyond the configured enumeration bound.

    ``layer`` names where the bound was crossed (koszul, cubical, limit,
    hochster or buchstaber-real), ``size`` is the size that crossed it
    and ``cap`` the bound; ``degree`` is the degree whose size is counted
    (koszul, limit), else None.
    """

    def __init__(self, message, layer, size, cap, degree=None):
        super().__init__(message)
        self.layer = layer
        self.size = size
        self.cap = cap
        self.degree = degree


class PreconditionFailed(ValueError):
    """An enforced precondition failed; ``witness`` explains where."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def sr_dimension(K, n, d=2):
    """Number of monomials of total degree n whose support is a face of K,
    in the face ring with generators v_i of degree d (2 complex, 1 real)."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n % d:
        return 0
    k = n // d
    if k == 0:
        return 0 if K.is_void() else 1
    total = 0
    for f in K.face_masks:
        s = f.bit_count()
        if 1 <= s <= k:
            total += comb(k - 1, s - 1)
    return total


def hochster(K, max_degree=None):
    """Integral cohomology of the moment-angle complex of K (d=2), as the
    one fold of ``_subset_walk``.

    A cone vertex of K (one in every facet) and a ghost vertex (one in no
    facet) are split off first.  With c cone vertices, g ghosts and the
    core the full subcomplex on the other vertices, K is the join of the
    core, a (c-1)-simplex and the complex {()} on the g ghosts, and the
    moment-angle complex of a join is the product of its factors', so
    Z_K = Z_core x (D^2)^c x (S^1)^g (Buchstaber and Panov, *Toric
    Topology*, AMS 2015).  H*((S^1)^g) is free, an exterior algebra on g
    generators of degree 1, so by Kunneth degree p of Z_K holds C(g, k)
    copies of each group of degree p - k of Z_core, torsion included.
    The core has neither kind of vertex: its facets are those of K cut
    down to it, one for each facet of K.  The walk then visits the
    2^|core| vertex subsets of the core, not the 2^m of K; the bound
    ``HOCHSTER_M_BOUND`` still counts m.

    The fold is Hochster's formula: degree p of Z_core collects
    H-tilde^{p-|I|-1}(K_I) over the vertex subsets I of the core.  Each
    group is read once, as the walk yields it, and adds its free rank and
    torsion coefficients C(g, k) times to degree p + k of Z_K.  With
    ``max_degree`` = d the walk stops at |I| <= max(d - 1, 0) and no
    degree above d is reported; each degree is normalized once, at the
    end.
    """
    if K.m > HOCHSTER_M_BOUND:
        raise BoundExceeded("hochster: m=%d exceeds bound %d" % (
            K.m, HOCHSTER_M_BOUND), "hochster", K.m, HOCHSTER_M_BOUND)
    used = reduce(or_, K.facet_masks, 0)
    cone = reduce(and_, K.facet_masks, used)   # 0 for the void complex
    ghosts = K.m - used.bit_count()
    core = full_subcomplex(K, vertices(used & ~cone))
    copies = [comb(ghosts, k) for k in range(ghosts + 1)]
    out = {}   # degree -> [free rank, torsion coefficients] of Z_K
    for I, groups in _subset_walk(
            core, core.m if max_degree is None else max(max_degree - 1, 0)):
        for j, g in groups:
            p = j + I.bit_count() + 1
            for k, c in enumerate(copies):
                if max_degree is not None and p + k > max_degree:
                    break
                acc = out.setdefault(p + k, [0, []])
                acc[0] += c * g.free_rank
                acc[1] += c * g.torsion
    return GradedAbGroup.make({p: FinAbGroup.make(rank, torsion)
                               for p, (rank, torsion) in out.items()})


def _subset_walk(K, top):
    """Yield (I, H-tilde(K_I)) for every vertex subset I of K with
    |I| <= top, in increasing integer order; the groups are a
    ``GradedAbGroup.groups`` tuple, unshifted.  The faces of K_I, the
    full subcomplex on I, are the face masks of K inside I, kept on K's
    own vertex labels.

    Since I \\ v comes before I, the groups are kept per I, and they are
    copied from I \\ v, with K_I never built, when v in I is dominated in
    K_I: some other vertex w lies in every facet of K_I that contains v.
    Then K_I strong-collapses onto the deletion of v, which is K_{I \\ v}
    (Barmak and Minian, "Strong homotopy types, nerves and collapses",
    Discrete Comput. Geom. 47 (2012), 301-328), so the two are homotopy
    equivalent and have the same integral cohomology, torsion included.
    Every cone is such a K_I, and so is every K_I with a ghost vertex v
    ({v} not in K): v lies in no facet of K_I, so it is vacuously
    dominated, and K_I and K_{I \\ v} have the same faces.

    The facets of K_I are kept per I, derived from those of K_{I \\ u}
    with u the highest vertex of I: a facet of K_I without u is a facet
    of K_{I \\ u} that u does not extend, and one with u is a set F & I,
    F a facet of K through u, that no vertex of I extends, which one
    table ``up`` answers.  The test costs O(#facets of K_{I \\ u} +
    #facets of K through u + |I| #facets of K_I) per I.

    A K_I that must be built is first looked up by its facets with the
    vertices of I renumbered 0..|I|-1 in increasing order (by
    ``simplicial._relabeled``, shared with ``full_subcomplex``).  Equal keys
    mean K_I and K_J are the same complex up to relabeling, hence
    isomorphic, with the same integral cohomology, torsion included; so
    each full subcomplex is built once up to relabeling.  On skeleta and
    boundaries of simplices every K_I with the same |I| gives one key.
    The memo lives for one walk.

    A subset with |I| > top is skipped.  Each I \\ v read from the memo
    has |I| - 1 vertices, so it was visited.  Shifted by |I| + 1, the
    groups of K_I start in degree |I| + 1 but for H-tilde^{-1}(K_I) = Z
    in degree |I| when K_I = {empty face}, on a K without ghosts only for
    I empty; so a sum cut at degree d needs only top = max(d - 1, 0).
    """
    faces = K.face_masks
    up, through = _vertex_tables(K)
    memo = []
    # facet masks of K_I per visited subset I; tops_of[J] is read only as
    # the I ^ u of a superset I, which leaves it without the top vertex m,
    # so only those J are kept
    tops_of = [None] * ((1 << K.m) >> 1)
    built = {}   # relabeled facets of K_I -> its cohomology groups
    for I in range(1 << K.m):
        if I.bit_count() > top:
            memo.append(None)   # read only by supersets, skipped too
            continue
        v, tops = _removable_vertex(I, tops_of, through, up)
        if I < len(tops_of):
            tops_of[I] = tops
        if v:
            groups = memo[I ^ v]
        else:
            key = _relabeled(tops, I)
            groups = built.get(key)
            if groups is None:
                groups = built[key] = face_chain_complex(
                    [f for f in faces if f & I == f]).cohomology().groups
        memo.append(groups)
        yield I, groups


def _vertex_tables(K):
    """(up, through) for K: for each face f the bits of the vertices w
    outside f with f + w a face; and for each vertex bit u the facet masks
    of K through u."""
    faces = K.face_masks
    up = dict.fromkeys(faces, 0)
    for g in faces:
        s = g
        while s:
            low = s & -s
            up[g ^ low] |= low
            s ^= low
    through = {1 << i: [F for F in K.facet_masks if F >> i & 1]
               for i in range(K.m)}
    return up, through


def _removable_vertex(I, tops_of, through, up):
    """(v, tops): v a vertex bit of I that is dominated in K_I, else 0; a
    vertex in no facet of K_I counts as dominated.  tops is the facet
    masks of K_I as a tuple, derived from ``tops_of[I ^ u]``, u the
    highest vertex bit of I, which must hold the tops of I ^ u."""
    if not I:
        tops = (0,) if 0 in up else ()   # the empty face, unless K is void
    else:
        u = 1 << (I.bit_length() - 1)
        # the facets of K_{I \ u} that u does not extend, and the sets
        # F & I through u that no vertex of I extends
        tops = (*[g for g in tops_of[I ^ u] if not up[g] & u],
                *{f for F in through[u] if not up[f := F & I] & I})
    rest = I
    while rest:
        v = rest & -rest
        rest ^= v
        common = I   # the vertices in every facet of K_I through v
        for f in tops:
            if f & v:
                common &= f
                if common == v:
                    break
        else:   # some w other than v lies in every facet through v
            return v, tops
    return 0, tops


def skeleton_wedge(m, k):
    """Betti numbers of the moment-angle complex over the k-skeleton of
    the (m-1)-simplex, as {degree: count} in increasing degree, nonzero
    counts only: spheres S^{k+j+1} with multiplicity C(m,j)C(j-1,k+1)
    for j = k+2..m, plus the unit in degree 0."""
    if m < 2 or k < 0 or k > m - 2:
        raise ValueError("need m >= 2 and 0 <= k <= m-2")
    counts = {0: 1}
    for j in range(k + 2, m + 1):
        mult = comb(m, j) * comb(j - 1, k + 1)
        if mult:
            counts[k + j + 1] = counts.get(k + j + 1, 0) + mult
    return counts


def _hrk_z(m, k):
    """Total rank of H*(Z_{Delta^k_m}; Q); 1 when the skeleton is the
    whole simplex."""
    if k >= m - 1:
        return 1
    return sum(skeleton_wedge(m, k).values())


def skeleton_quotient_hrk(m, k):
    """Recursion value for hrk of the quotient of the moment-angle complex
    over the k-skeleton of the (m-1)-simplex by the diagonal circle
    {(t, ..., t)}, whose annihilator is spanned by e_i - e_(i+1), with the
    2^{m-k-1} bound.  The value equals the total rank of the computed
    Koszul cohomology for every 3 <= m <= 8 and for m = 10 and m = 11,
    every 0 <= k <= m-2.

    Returns (hrk, bound, verdict).
    """
    if m < 2 or k < 0 or k > m - 2:
        raise ValueError("need m >= 2 and 0 <= k <= m-2")
    hrk = 1 + (k + 1) + (_hrk_z(m - 1, k) - 1)
    for i in range(1, k + 1):
        hrk += _hrk_z(m - i - 1, k - i) - 1
    hrk += 2 ** (m - k - 2) - 1
    bound = 2 ** (m - k - 1)
    return hrk, bound, hrk >= bound


def buchstaber_real(K):
    """Largest dimension of a subspace H of F2^m meeting every coordinate
    subspace F2^I, I a facet, only in 0.

    Exhaustive search over canonical subspace chains, pruned by the facet
    condition; such H are exactly the subgroups acting freely on the real
    moment-angle complex.
    """
    if K.m > BUCHSTABER_REAL_M_BOUND:
        raise BoundExceeded("buchstaber-real: m=%d exceeds bound %d"
                            % (K.m, BUCHSTABER_REAL_M_BOUND),
                            "buchstaber-real", K.m, BUCHSTABER_REAL_M_BOUND)
    if K.is_void() or K.dim() < 0:
        raise PreconditionFailed("need a complex with at least one vertex")
    m = K.m
    upper = m - max(f.bit_count() for f in K.facet_masks)
    forbidden = set(K.face_masks)

    best = 0

    def extend(rows, span, start):
        # span holds every element of the subspace built so far
        nonlocal best
        best = max(best, len(rows))
        if len(rows) >= upper:
            return
        for v in range(start, 1 << m):
            # canonical chain: v is the minimum of its coset v + span
            if any(v ^ s < v for s in span) or any(v ^ s in forbidden
                                                   for s in span):
                continue
            extend(rows + [v], span + [v ^ s for s in span], v + 1)

    extend([], [0], 1)
    return best
