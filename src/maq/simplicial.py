"""Finite simplicial complexes on the vertex set {1..m}.

A face is an int bitmask (bit i-1 set means vertex i belongs to the face),
the one face format of the engine: I <= J is ``I & ~J == 0``, J covers the
faces J ^ b for b in ``vertex_bits(J)``, ``face_order`` sorts faces, and
every layer reads ``facet_masks`` and ``face_masks``.  Derived complexes are
built from facet masks by the private mask entry
``SimplicialComplex._from_masks`` and list no faces: ``full_subcomplex`` and
``contraction`` cut each facet down and renumber the kept vertices by
``_relabeled``, the one vertex renumbering (Hochster's memo shares it),
``cone`` adds the apex to each facet, and ``stellar_subdivision`` writes each
new facet.  A vertex set becomes a mask through the one range check,
``_checked_mask``.  The sphere battery walks the bits of each facet.
Frozensets of vertex labels stay at the API edge only: ``faces()``,
``facets``, returned witnesses, and JSON, where a face is ``vertices(mask)``.

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


def vertex_bits(mask):
    """The one-bit masks of the vertices of ``mask``, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


def vertices(mask):
    """The vertices of the face ``mask``, in increasing order."""
    return [b.bit_length() for b in vertex_bits(mask)]


def _checked_mask(vertices, m):
    """The mask of ``vertices``, each checked to lie in 1..m."""
    mask = 0
    for v in vertices:
        if not 1 <= v <= m:
            raise ValueError("vertex out of range 1..%d" % m)
        mask |= 1 << (v - 1)
    return mask


def _relabeled(masks, I):
    """The masks, subsets of I, with the vertices of I renumbered
    0..|I|-1 in increasing order, as a frozenset."""
    new = {}   # vertex bit of I -> its bit after renumbering
    while I:
        low = I & -I
        new[low] = 1 << len(new)
        I ^= low
    out = []
    for f in masks:
        g = 0
        while f:
            low = f & -f
            g |= new[low]
            f ^= low
        out.append(g)
    return frozenset(out)


_FLIP = str.maketrans("01", "10")


def face_order(mask):
    """Sort key of face masks: by size, then by sorted vertices; the bits
    read from vertex 1 up, 0 and 1 swapped, sort as the vertex lists do."""
    return mask.bit_count(), bin(mask)[:1:-1].translate(_FLIP)


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
        self._set_masks(m, [_mask(f) for f in facets])

    def _set_masks(self, m, masks):
        """The step every constructor shares after masking its facets:
        check the masks against 1..m and keep the maximal ones."""
        self.m = int(m)
        full = (1 << self.m) - 1
        for f in masks:
            if f & ~full:
                raise ValueError("facet vertex out of range 1..%d" % self.m)
        self.facet_masks = _maximalize(masks)

    @staticmethod
    def _from_masks(m, masks):
        """The complex on 1..m whose facets are among ``masks``."""
        K = SimplicialComplex.__new__(SimplicialComplex)
        K._set_masks(m, masks)
        return K

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
        return [frozenset(vertices(f)) for f in self.facet_masks]

    def is_void(self):
        return not self.facet_masks

    def dim(self):
        if self.is_void():
            raise ValueError("void complex has no dimension")
        return max(f.bit_count() for f in self.facet_masks) - 1

    def is_face_mask(self, mask):
        return any(mask & f == mask for f in self.facet_masks)

    def is_face(self, vertices):
        return self.is_face_mask(_checked_mask(vertices, self.m))

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
        """All faces as frozensets, by size and then by sorted vertices."""
        return [frozenset(vertices(f))
                for f in sorted(self.face_masks, key=face_order)]

    def f_vector(self):
        """(f_0, f_1, ...) counts of faces per dimension."""
        if self.is_void():
            return ()
        counts = [0] * (self.dim() + 1)
        for f in self.face_masks:
            k = f.bit_count()
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
    im = _checked_mask(I, K.m)
    return SimplicialComplex._from_masks(
        im.bit_count(), _relabeled([F & im for F in K.facet_masks], im))


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
    rest = ((1 << K.m) - 1) & ~_checked_mask(I0, K.m)
    return full_subcomplex(K, vertices(rest))


def cone(K):
    """Cone with apex m+1 over K."""
    apex = 1 << K.m
    return SimplicialComplex._from_masks(
        K.m + 1, [F | apex for F in K.facet_masks] or [apex])


def stellar_subdivision(K, sigma):
    """Stellar subdivision at the face sigma; the new vertex is m+1."""
    sm = _checked_mask(sigma, K.m)
    if not sm or not K.is_face_mask(sm):
        raise ValueError("sigma must be a nonempty face of K")
    new = 1 << K.m   # the new vertex m+1
    facets = []
    for f in K.facet_masks:
        if f & sm != sm:
            facets.append(f)
        else:
            facets.extend(f ^ b | new for b in vertex_bits(sm))
    return SimplicialComplex._from_masks(K.m + 1, facets)


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
    sizes = {f.bit_count() for f in K.facet_masks}
    pure = sizes == {d + 1}

    # pseudomanifold: every ridge (d-1 face) lies in exactly two facets
    ridge_count = {}
    for f in K.facet_masks:
        for b in vertex_bits(f):
            ridge_count[f ^ b] = ridge_count.get(f ^ b, 0) + 1
    pm = pure and all(c == 2 for c in ridge_count.values())

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
