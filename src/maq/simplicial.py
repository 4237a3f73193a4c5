"""Finite simplicial complexes on the vertex set {1..m}.

Faces are stored as int bitmasks (bit i-1 set means vertex i belongs to the
face), so subset tests are single AND operations.  Engine internals (chain
assembly, Hochster's sum, the cubical builder) read
``SimplicialComplex.face_masks`` directly.  ``frozenset`` of vertex labels
is the API boundary; it stays only where the result is keyed by faces
(``PosetDiagram`` values, census chains, Koszul monomials, JSON witnesses).

Two degenerate complexes are distinguished: the *void* complex (no faces at
all) and the complex ``{()}`` whose only face is the empty one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property


def _mask(vertices):
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def _unmask(mask):
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return frozenset(out)


def _maximalize(masks):
    """The inclusion-maximal masks among ``masks``, sorted.

    Masks are visited by decreasing size, and each is compared only with
    the kept masks of strictly larger size: after deduplication no mask
    lies inside a different mask of its own size."""
    out = []
    size = bigger = None   # out[:bigger] has the kept masks above size
    for f in sorted(set(masks), key=int.bit_count, reverse=True):
        if f.bit_count() != size:
            size, bigger = f.bit_count(), len(out)
        if not any(f & g == f for g in itertools.islice(out, bigger)):
            out.append(f)
    return tuple(sorted(out))


class SimplicialComplex:
    """A simplicial complex given by its inclusion-maximal faces."""

    __slots__ = ("m", "facet_masks", "__dict__")

    def __init__(self, m, facets):
        self.m = int(m)
        masks = [_mask(f) for f in facets]
        full = (1 << self.m) - 1
        for f in masks:
            if f & ~full:
                raise ValueError("facet vertex out of range 1..%d" % self.m)
        self.facet_masks = _maximalize(masks)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def void(m=0):
        return SimplicialComplex(m, [])

    @staticmethod
    def empty_face_only(m=0):
        return SimplicialComplex(m, [frozenset()])

    @staticmethod
    def simplex(m):
        """Full simplex on [m]."""
        return SimplicialComplex(m, [range(1, m + 1)])

    @staticmethod
    def points(m):
        return SimplicialComplex(m, [[v] for v in range(1, m + 1)])

    # -- basic queries -----------------------------------------------------

    @property
    def facets(self):
        return [_unmask(f) for f in self.facet_masks]

    def is_void(self):
        return not self.facet_masks

    def dim(self):
        if self.is_void():
            raise ValueError("void complex has no dimension")
        return max(bin(f).count("1") for f in self.facet_masks) - 1

    def is_face_mask(self, mask):
        return any(mask & f == mask for f in self.facet_masks)

    def is_face(self, vertices):
        vs = frozenset(vertices)
        if any(v < 1 or v > self.m for v in vs):
            raise ValueError("vertex out of range 1..%d" % self.m)
        return self.is_face_mask(_mask(vs))

    @cached_property
    def face_masks(self):
        """All faces (incl. the empty one when the complex is nonvoid),
        sorted, each once: the submasks of every facet."""
        seen = {0} if self.facet_masks else set()
        for f in self.facet_masks:
            s = f
            while s:
                seen.add(s)
                s = (s - 1) & f
        return sorted(seen)

    def faces(self):
        return [_unmask(f) for f in self.face_masks]

    def f_vector(self):
        """(f_0, f_1, ...) counts of faces per dimension."""
        if self.is_void():
            return ()
        counts = [0] * (self.dim() + 1)
        for f in self.face_masks:
            k = bin(f).count("1")
            if k:
                counts[k - 1] += 1
        return tuple(counts)

    def euler_characteristic(self):
        return sum(((-1) ** i) * c for i, c in enumerate(self.f_vector()))

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and self.m == other.m
                and self.facet_masks == other.facet_masks)

    def __hash__(self):
        return hash((self.m, self.facet_masks))

    def __repr__(self):
        fs = ",".join("{%s}" % ",".join(map(str, sorted(f))) for f in self.facets)
        return "SimplicialComplex(m=%d, facets=[%s])" % (self.m, fs)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def minimal_non_faces(K):
    """All inclusion-minimal non-faces of K."""
    if K.is_void():
        return {frozenset()}
    out = []
    # BFS by cardinality: a candidate is minimal iff all proper subsets are faces
    for size in range(1, K.m + 1):
        for c in itertools.combinations(range(1, K.m + 1), size):
            cm = _mask(c)
            if K.is_face_mask(cm):
                continue
            if all(K.is_face_mask(cm & ~(1 << (v - 1))) for v in c):
                out.append(frozenset(c))
    return set(out)


def full_subcomplex(K, I):
    """K_I = {J in K : J subset I}, re-indexed on sorted(I) -> 1..|I|."""
    I = frozenset(I)
    if any(v < 1 or v > K.m for v in I):
        raise ValueError("vertex out of range")
    order = {v: i + 1 for i, v in enumerate(sorted(I))}
    im = _mask(I)
    facets = []
    for f in K.face_masks:
        if f & im == f:
            facets.append(frozenset(order[v] for v in _unmask(f)))
    if not facets:
        return SimplicialComplex.void(len(I))
    return SimplicialComplex(len(I), facets)


def skeleton(m, k):
    """k-skeleton of the (m-1)-simplex: all (k+1)-subsets of [m] as facets."""
    if m < 2 or k < 0 or k > m - 2:
        raise ValueError("need m >= 2 and 0 <= k <= m-2")
    return SimplicialComplex(m, itertools.combinations(range(1, m + 1), k + 1))


def boundary_simplex(m):
    """Boundary of the (m-1)-simplex."""
    return skeleton(m, m - 2)


def contraction(K, I0):
    """K/I0 = {I \\ I0 : I in K} on the remaining vertices, re-indexed."""
    I0 = frozenset(I0)
    if any(v < 1 or v > K.m for v in I0):
        raise ValueError("vertex out of range")
    rest = [v for v in range(1, K.m + 1) if v not in I0]
    order = {v: i + 1 for i, v in enumerate(rest)}
    if K.is_void():
        return SimplicialComplex.void(len(rest))
    facets = [frozenset(order[v] for v in f - I0) for f in K.facets]
    return SimplicialComplex(len(rest), facets)


def cone(K):
    """Cone with apex m+1 over K."""
    apex = K.m + 1
    if K.is_void():
        return SimplicialComplex(apex, [[apex]])
    return SimplicialComplex(apex, [f | {apex} for f in K.facets])


def order_complex(K):
    """Barycentric subdivision K': vertices are the nonempty faces of K,
    numbered in (cardinality, lexicographic) order; faces are chains."""
    verts = sorted((f for f in K.face_masks if f),
                   key=lambda f: (bin(f).count("1"), f))
    index = {f: i + 1 for i, f in enumerate(verts)}
    # maximal chains: descend from facets
    chains = []

    def extend(chain, last):
        proper = [g for g in K.face_masks if g and g & last == g and g != last]
        if not proper:
            chains.append(chain)
            return
        for g in proper:
            extend(chain + [g], g)

    for f in K.facet_masks:
        if f:
            extend([f], f)
    if not chains:
        if K.is_void():
            return SimplicialComplex.void(0)
        return SimplicialComplex.empty_face_only(0)
    return SimplicialComplex(len(verts),
                             [frozenset(index[g] for g in c) for c in chains])


def link(K, sigma):
    """Link of a face as a set of face masks (internal helper)."""
    sm = _mask(sigma)
    return [f & ~sm for f in K.face_masks if f & sm == sm]


def stellar_subdivision(K, sigma):
    """Stellar subdivision at the face sigma; the new vertex is m+1."""
    sigma = frozenset(sigma)
    if not sigma or not K.is_face(sigma):
        raise ValueError("sigma must be a nonempty face of K")
    sm = _mask(sigma)
    v = K.m + 1
    facets = []
    for f in K.facet_masks:
        if f & sm != sm:
            facets.append(_unmask(f))
        else:
            for s in sorted(sigma):
                facets.append(_unmask(f & ~(1 << (s - 1))) | {v})
    return SimplicialComplex(v, facets)


@dataclass(frozen=True)
class SphereSanityReport:
    dimension: int
    pure: bool
    pseudomanifold: bool
    euler_ok: bool
    links_connected: bool

    @property
    def passed(self):
        return self.pure and self.pseudomanifold and self.euler_ok \
            and self.links_connected

    def to_json(self):
        return {"dimension": self.dimension, "pure": self.pure,
                "pseudomanifold": self.pseudomanifold,
                "euler_ok": self.euler_ok,
                "links_connected": self.links_connected,
                "passed": self.passed}


def sphere_sanity(K):
    """Heuristic battery of necessary sphere conditions (not a decision)."""
    if K.is_void() or K.dim() < 0:
        return SphereSanityReport(-1, False, False, False, False)
    d = K.dim()
    sizes = {bin(f).count("1") for f in K.facet_masks}
    pure = sizes == {d + 1}

    # pseudomanifold: every ridge (d-1 face) lies in exactly two facets
    pm = True
    if pure and d >= 0:
        ridge_count = {}
        for f in K.facet_masks:
            for b in range(K.m):
                if (f >> b) & 1:
                    r = f & ~(1 << b)
                    ridge_count[r] = ridge_count.get(r, 0) + 1
        pm = all(c == 2 for c in ridge_count.values())
    else:
        pm = False

    euler_ok = K.euler_characteristic() == 1 + (-1) ** d

    # connected vertex links: the link of v is covered by the facets
    # containing v with v removed; merge the ones whose masks overlap
    links_ok = True
    if d >= 2:
        for b in range(K.m):
            vm = 1 << b
            parts = []
            for f in K.facet_masks:
                if f & vm and f != vm:
                    f &= ~vm
                    for p in [p for p in parts if p & f]:
                        parts.remove(p)
                        f |= p
                    parts.append(f)
            if len(parts) > 1 or (not parts and K.is_face_mask(vm)):
                links_ok = False
    return SphereSanityReport(d, pure, pm, euler_ok, links_ok)
