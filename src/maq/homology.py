"""Exact (co)homology of finite chain complexes and degreewise limits.

Homology and cohomology are integral and come out of Smith normal form,
torsion included.  Limits are taken of diagrams of free modules over one
ring, Z or F2, so each degree of a limit is a kernel, read off one rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .exact import f2_echelon, rank_and_invariants
from .intlattice import FinAbGroup
from .simplicial import face_order, vertex_bits, vertices


@dataclass(frozen=True)
class GradedAbGroup:
    """Finitely supported map from integer degrees to FinAbGroup."""

    groups: tuple = ()   # sorted tuple of (degree, FinAbGroup), no trivial entries

    @staticmethod
    def make(mapping):
        items = sorted((d, g) for d, g in dict(mapping).items()
                       if not g.is_trivial())
        return GradedAbGroup(tuple(items))

    def group(self, degree):
        for d, g in self.groups:
            if d == degree:
                return g
        return FinAbGroup.trivial()

    def support(self):
        return [d for d, _ in self.groups]

    def total_rank(self):
        return sum(g.free_rank for _, g in self.groups)

    def is_trivial(self):
        return not self.groups

    def to_json(self):
        return {str(d): g.to_json() for d, g in self.groups}

    def __str__(self):
        if not self.groups:
            return "0"
        return ", ".join("%d: %s" % (d, g) for d, g in self.groups)


# ---------------------------------------------------------------------------
# chain complexes
# ---------------------------------------------------------------------------

class ChainComplex:
    """Bounded complex of free abelian groups.

    ``dims[i]`` is the rank in degree ``min_degree + i`` and
    ``boundaries[i]`` is d: C_{min_degree+i} -> C_{min_degree+i-1} as a
    dict ``{(row, col): value}`` of its nonzero entries.  Rows are the cells
    of degree min_degree+i-1 (0 <= row < dims[i-1]) and columns those of
    degree min_degree+i (0 <= col < dims[i]).  The constructor takes the
    len(dims) - 1 maps boundaries[1:]; boundaries[0] maps out of the
    complex and is stored as None.  The dicts are stored as given, not
    copied, so they must not be mutated afterwards.

    On first use every boundary is eliminated once, from the highest index
    down, and each elimination clears the next: the columns of d_k that
    are unit-pivot rows of d_{k+1} are dropped before d_k is eliminated.
    This is exact over Z.  Let R and S be the rows and columns of the
    unit pivots that ``rank_and_invariants`` takes in d_{k+1}.  The block
    d_{k+1}[R, S] is unimodular, so {d_{k+1} e_s : s in S} together with
    {e_j : j not in R} is a Z-basis of C_k: in that basis's matrix the
    block on R is d_{k+1}[R, S] and the rest is the identity.  d_k kills
    the first part because d_k d_{k+1} = 0, so d_k times this change of
    basis is d_k on the columns outside R beside zero columns, and d_k
    restricted to those columns has the rank and the invariant factors
    of d_k.  Only +-1 pivots may be cleared: for a divisor pivot the block
    is not unimodular and the set above spans a proper sublattice.  The
    argument needs d_k d_{k+1} = 0, which ``check`` verifies; a complex
    built with ``check=False`` must satisfy it by construction.
    """

    def __init__(self, dims, boundaries, min_degree=0, check=True):
        # boundaries[i] is d out of degree index i, for i = 1..len(dims)-1
        self.min_degree = min_degree
        self.dims = list(dims)
        self.boundaries = [None] + list(boundaries)
        # an empty complex has no degrees and no boundary
        if len(self.boundaries) != max(len(self.dims), 1):
            raise ValueError("boundary count inconsistent with dims")
        self._eliminated = None   # boundary index -> (rank, invariants)
        if check:
            self._validate()

    def _validate(self):
        n = len(self.dims)
        for i in range(1, n):
            rows, cols = self.dims[i - 1], self.dims[i]
            for (r, c), v in self.boundaries[i].items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ValueError("boundary %d has entry (%d, %d) outside "
                                     "its %d x %d shape" % (i, r, c, rows, cols))
                if not v:
                    raise ValueError("boundary %d stores a zero at (%d, %d)"
                                     % (i, r, c))
        for i in range(1, n - 1):
            if sparse_product(self.boundaries[i], self.boundaries[i + 1]):
                raise ValueError("dd != 0 at degree index %d" % i)

    def _rank_inv(self, i):
        """(rank, invariant factors) of boundaries[i]; zero map if absent.

        Every boundary is eliminated once per instance, on the first call;
        homology and cohomology both read the same result.
        """
        if self._eliminated is None:
            self._eliminated = {}
            cleared = set()
            for k in range(len(self.dims) - 1, 0, -1):
                entries = [(r, c, v) for (r, c), v
                           in self.boundaries[k].items() if c not in cleared]
                pivot_rows = []
                if entries:
                    self._eliminated[k] = rank_and_invariants(entries,
                                                              pivot_rows)
                cleared = set(pivot_rows)
        return self._eliminated.get(i, (0, []))

    def homology(self):
        out = {}
        for i, dim in enumerate(self.dims):
            r_in, inv_in = self._rank_inv(i + 1)
            r_out, _ = self._rank_inv(i)
            rank = dim - r_out - r_in
            out[self.min_degree + i] = FinAbGroup.make(rank, inv_in)
        return GradedAbGroup.make(out)

    def cohomology(self):
        """Integral cohomology of the dual complex Hom(C, Z).

        Free part matches homology in the same degree; torsion in degree n
        comes from the invariant factors of the boundary out of degree n.
        """
        out = {}
        for i, dim in enumerate(self.dims):
            r_in, _ = self._rank_inv(i + 1)
            r_out, inv_out = self._rank_inv(i)
            rank = dim - r_out - r_in
            out[self.min_degree + i] = FinAbGroup.make(rank, inv_out)
        return GradedAbGroup.make(out)


def sparse_product(a, b):
    """a @ b for sparse matrices {(row, col): value}, zeros dropped."""
    if not a or not b:
        return {}
    by_col = {}
    for (r, k), v in a.items():
        by_col.setdefault(k, []).append((r, v))
    acc = {}
    for (k, c), v in b.items():
        for r, w in by_col.get(k, ()):
            acc[r, c] = acc.get((r, c), 0) + w * v
    return {key: v for key, v in acc.items() if v}


def face_chain_complex(masks):
    """Reduced chain complex over Z of a closed family of face bitmasks.

    Degree d holds the masks with d + 1 set bits, in the order given, so
    the empty face sits in degree -1.  The boundary of a face drops each
    set bit, lowest first, with sign (-1)^k for the k-th lowest.  An empty
    family gives the zero complex.
    """
    by_dim = {}
    for f in masks:
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    index = [{f: i for i, f in enumerate(by_dim.get(d, ()))}
             for d in range(-1, max([-1, *by_dim]) + 1)]
    boundaries = []
    for rows, cols in zip(index, index[1:]):
        b = {}
        for f, j in cols.items():
            s, sign = f, 1
            while s:
                low = s & -s
                b[rows[f ^ low], j] = sign
                s ^= low
                sign = -sign
        boundaries.append(b)
    return ChainComplex([len(ix) for ix in index], boundaries,
                        min_degree=-1, check=False)


def reduced_cohomology(K):
    """Reduced integral simplicial cohomology of K."""
    return face_chain_complex(K.face_masks).cohomology()


def reduced_homology(K):
    return face_chain_complex(K.face_masks).homology()


# ---------------------------------------------------------------------------
# diagrams of free modules over the face poset
# ---------------------------------------------------------------------------

_ZERO = {}   # the zero profile and the zero map, read and never written


def _congruent(M, N, mod):
    """Whether M = N, modulo ``mod`` when it is given."""
    if not mod:
        return M == N
    return all((M.get(key, 0) - N.get(key, 0)) % mod == 0
               for key in M.keys() | N.keys())


@dataclass
class PosetDiagram:
    """Contravariant diagram of graded free modules over face bitmasks.

    Every value is free over one ring: Z when ``mod`` is None, F2 when it
    is 2.  ``ranks[I]`` is the rank profile ``{n: rank}`` of the value at
    face I; a missing face or degree means the zero module.
    ``arrows[(I, J)]`` for a cover I < J (J is I plus one vertex) is the
    graded structure map value(J) -> value(I), a dict ``{n: M}`` with M
    its degree-n part as a dict ``{(row, col): value}`` of the entries
    that are nonzero in the ring, one row per generator of value(I) and
    one column per generator of value(J); ``{}`` is the zero map.  It
    must hold every degree in which both ends are nonzero.  An arrow with
    no degree is no arrow.  Only covers are stored; arrow() composes the
    rest, over Z, so a composite is read modulo ``mod``.  The faces must
    contain every set that lies between two of them, as the face poset
    of a simplicial complex does.  validate() checks on construction that
    the faces have no such gap, that every stored arrow is a cover of the
    right shape, that no cover between nonzero values lacks an arrow, and
    functoriality modulo ``mod`` in every degree of ``ranks``.
    limit_graded relies on all of it: it solves for the facet values alone
    and asks agreement only at faces with a disconnected link, so a
    diagram changed after construction is not checked again there.

    One profile may be the value of several faces, and one graded arrow
    the value of several covers, as build_classifying_diagram shares them
    between faces with the same character rank and covers with the same
    character table.  validate() turns that sharing into saved work with
    memos keyed by identity.  It scans the shape of each distinct triple
    (arrow, profile of I, profile of J) once, and looks for missing
    degrees once per such triple.  It decides each diamond once per
    distinct set of its four arrows, and within that keeps the verdict in
    one degree by its four matrices.  The four arrows fix the verdict,
    whatever the profiles, since the ring is one for the whole diagram
    and every arrow has passed its shape scan at each of its covers: a
    matrix with a zero end is the zero map, so in a degree where a face
    of a diamond is zero, each path through that face has the zero
    product, in every diamond that shares the four arrows.  Each memo
    holds the objects of its keys, so no id is reused while it lives.
    The covering pairs are listed once, on construction; products and
    composites are recomputed when asked.  arrow() returns a stored
    matrix itself, not a copy, so it must not be mutated.
    """

    faces: tuple
    ranks: dict
    arrows: dict
    max_degree: int
    mod: int = None

    def __post_init__(self):
        self.faces = tuple(sorted(set(self.faces), key=face_order))
        face_set = set(self.faces)
        self._covers = [(J ^ b, J) for J in self.faces
                        for b in vertex_bits(J) if J ^ b in face_set]
        self.validate()

    def arrow(self, I, J, n):
        """Structure map for I subset of J in degree n (composite of
        covering arrows when not stored directly; ``{}`` when either value
        is zero)."""
        if I & ~J:
            raise ValueError("no arrow from %s to %s: not a subset"
                             % (vertices(I), vertices(J)))
        return self._arrow(I, J, n)

    def _arrow(self, I, J, n):
        """arrow() for I <= J, which the caller guarantees."""
        rank = self.ranks.get(I, _ZERO).get(n)
        if not rank or not self.ranks.get(J, _ZERO).get(n):
            return {}
        if I == J:
            return {(k, k): 1 for k in range(rank)}
        graded = self.arrows.get((I, J))
        if graded:
            return graded[n]
        # walk down one vertex at a time, the lowest of J - I first
        mid = J ^ vertex_bits(J & ~I)[0]
        return sparse_product(self._arrow(I, mid, n), self._arrow(mid, J, n))

    def covering_pairs(self):
        """The pairs (J - {v}, J) of faces, J in ``faces`` order and v
        increasing; the list is shared, so it must not be mutated."""
        return self._covers

    def validate(self):
        faces = self.faces
        face_set = set(faces)
        ranks, arrows, mod = self.ranks, self.arrows, self.mod
        if mod not in (None, 2):
            raise ValueError("mod is None (Z) or 2 (F2), not %r" % (mod,))
        for J in faces:
            for I in (J ^ b for b in vertex_bits(J)):
                if I not in face_set and any(F & ~I == 0 for F in faces):
                    raise ValueError("%s lies between two faces but is not "
                                     "one" % vertices(I))
        scanned = {}   # ids of (arrow, profile of I, profile of J) -> those
        for (I, J), graded in arrows.items():
            if not isinstance(graded, dict):
                raise ValueError("arrow at %s <= %s is not a {degree: "
                                 "{(row, col): value}} dict"
                                 % (vertices(I), vertices(J)))
            if not graded:
                continue
            if I not in face_set or J not in face_set:
                raise ValueError("arrow between objects not in the poset")
            if I & ~J or (I ^ J).bit_count() != 1:
                raise ValueError("arrow from %s to %s, degree %d is not a "
                                 "cover" % (vertices(I), vertices(J),
                                            next(iter(graded))))
            low, high = ranks.get(I, _ZERO), ranks.get(J, _ZERO)
            key = id(graded), id(low), id(high)
            if key in scanned:
                continue
            scanned[key] = graded, low, high
            for n, M in graded.items():
                if not isinstance(M, dict):
                    raise ValueError("arrow at %s <= %s, degree %d is not a "
                                     "{(row, col): value} dict"
                                     % (vertices(I), vertices(J), n))
                rows, cols = low.get(n, 0), high.get(n, 0)
                for (r, c), x in M.items():
                    if not (0 <= r < rows and 0 <= c < cols
                            and (x % mod if mod else x)):
                        raise ValueError(
                            "arrow shape mismatch at %s <= %s, degree %d: %s"
                            % (vertices(I), vertices(J), n, {(r, c): x}))
        # a covering arrow between nonzero values has no composite to
        # fall back on
        complete = {}   # same keys as ``scanned``
        for I, J in self._covers:
            graded = arrows.get((I, J), _ZERO)
            low, high = ranks.get(I, _ZERO), ranks.get(J, _ZERO)
            key = id(graded), id(low), id(high)
            if key in complete:
                continue
            complete[key] = graded, low, high
            for n in sorted(low):
                if low[n] and high.get(n) and n not in graded:
                    raise ValueError("missing arrow at %s <= %s, degree %d"
                                     % (vertices(I), vertices(J), n))
        # functoriality: the diamonds I < J with |J - I| = 2 generate all
        # coherence constraints for cover-generated arrows
        diamonds = {}   # ids of four graded arrows -> those
        verdicts = {}   # ids of four matrices -> those
        for J in faces:
            for a, b in combinations(vertex_bits(J), 2):
                I = J ^ a ^ b
                if I not in face_set:
                    continue
                # both sets between I and J are faces, since the faces
                # have no gap, and every cover between nonzero values is
                # stored, as checked above, so the four covers are read
                # directly
                m1, m2 = J ^ a, J ^ b
                parts = (arrows.get((I, m1), _ZERO),
                         arrows.get((m1, J), _ZERO),
                         arrows.get((I, m2), _ZERO),
                         arrows.get((m2, J), _ZERO))
                key = tuple(map(id, parts))
                if key in diamonds:
                    continue
                diamonds[key] = parts
                low1, high1, low2, high2 = parts
                low, high = ranks.get(I, _ZERO), ranks.get(J, _ZERO)
                mid1, mid2 = ranks.get(m1, _ZERO), ranks.get(m2, _ZERO)
                for n in sorted(low):
                    if not low[n] or not high.get(n):
                        continue
                    lo1 = hi1 = lo2 = hi2 = _ZERO
                    if mid1.get(n):
                        lo1, hi1 = low1[n], high1[n]
                    if mid2.get(n):
                        lo2, hi2 = low2[n], high2[n]
                    key = id(lo1), id(hi1), id(lo2), id(hi2)
                    if key in verdicts:
                        continue
                    verdicts[key] = lo1, hi1, lo2, hi2
                    if not _congruent(sparse_product(lo1, hi1),
                                      sparse_product(lo2, hi2), mod):
                        raise ValueError(
                            "diagram not functorial at %s <= %s, degree %d"
                            % (vertices(I), vertices(J), n))


def limit_graded(D):
    """Degreewise inverse limit of a PosetDiagram over its face poset, in
    the degrees up to ``D.max_degree``.

    A compatible family (x_I) is determined by its values at the facets,
    x_I = arrow(I, F) x_F for any facet F above I, so the unknowns are
    the facet values alone.  They come from a family exactly when, at
    each face I, every facet F above I gives the same arrow(I, F) x_F.
    Facets F, G that share a face J strictly above I give it once they
    agree at J, since arrow(I, F) = arrow(I, J) arrow(J, F) modulo
    ``D.mod``, as validate() checks on construction.  Going down from the
    facets, agreement at I is thus forced within each component of lk(I),
    whose vertices a, b are joined when I + a + b is a face.  A face whose
    link has c components asks c - 1 blocks

        arrow(I, P) x_P - arrow(I, Q) x_Q = 0,

    Q the first facet above the first component, P the first above
    another.  Such a face has c covers or more, so no presentation is
    larger than the one over every face and cover.  The argument needs
    every set between two faces to be a face, as in the face poset of a
    simplicial complex; PosetDiagram rejects a poset without that
    property on construction.

    In degree n the blocks make one constraint map psi from the product
    of the facet values, free of rank a, and the limit is its kernel.  A
    submodule of a free Z-module is free, and every F2-module is free, so
    the kernel is Z^(a - rank psi) or (Z/2)^(a - rank psi): the rank is
    taken by rank_and_invariants over Z and as the length of the
    f2_echelon basis of psi's rows over F2.  The degrees are those of
    the rank profiles, each shared profile read once.
    """
    ranks, mod = D.ranks, D.mod
    facets, blocks = _link_blocks(D)
    profiles = {id(p): p for p in ranks.values()}.values()
    out = {}
    for n in sorted({n for p in profiles for n in p if n <= D.max_degree}):
        col = {}
        for F in facets:
            for k in range(ranks.get(F, _ZERO).get(n, 0)):
                col[F, k] = len(col)
        psi, b = {}, 0
        for I, P, Q in blocks:
            for sign, F in ((1, P), (-1, Q)):
                for (r, c), v in D._arrow(I, F, n).items():
                    psi[b + r, col[F, c]] = sign * v
            b += ranks.get(I, _ZERO).get(n, 0)
        if mod:
            rows = [0] * b
            for (r, j), v in psi.items():
                rows[r] |= (v & 1) << j
            rank = len(f2_echelon((row, 0) for row in rows)[0])
            out[n] = FinAbGroup(0, (2,) * (len(col) - rank))
        else:
            rank, _ = rank_and_invariants(
                (r, j, v) for (r, j), v in psi.items())
            out[n] = FinAbGroup.free(len(col) - rank)
    return GradedAbGroup.make(out)


def _link_blocks(D):
    """(facets, blocks): the maximal faces of D in ``D.faces`` order, and
    a triple (I, P, Q) for each component of lk(I) but the first, P and Q
    the first facets above that component and above the first.  Each
    facet above I joins the components whose vertices it meets."""
    face_set = set(D.faces)
    below = {I for I, _ in D.covering_pairs()}
    facets = [F for F in D.faces if F not in below]
    parts = {}   # I -> [first facet, its vertex mask of lk(I)] per component
    for F in facets:
        I = F
        while I:
            I = (I - 1) & F
            if I in face_set:
                comps = parts.setdefault(I, [])
                hit = [c for c in comps if c[1] & F]
                if not hit:
                    comps.append([F, F ^ I])
                    continue
                for c in hit[1:]:
                    hit[0][1] |= c[1]
                    comps.remove(c)
                hit[0][1] |= F ^ I
    return facets, [(I, P, comps[0][0]) for I, comps in parts.items()
                    for P, _ in comps[1:]]
