"""Exact (co)homology of finite chain complexes and degreewise limits.

Homology and cohomology are integral and come out of Smith normal form,
torsion included.  Limits are taken of the symmetric powers of a diagram
of free modules over one ring, Z or F2, so each degree of a limit is a
kernel, read off one rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

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
                B, pivot_rows = self.boundaries[k], []
                if B:
                    self._eliminated[k] = rank_and_invariants(
                        ((r, c, v) for (r, c), v in B.items()
                         if c not in cleared), pivot_rows)
                cleared = set(pivot_rows)
        return self._eliminated.get(i, (0, []))

    def homology(self):
        return self._groups(1)

    def cohomology(self):
        """Integral cohomology of the dual complex Hom(C, Z).

        Free part matches homology in the same degree; torsion in degree n
        comes from the invariant factors of the boundary out of degree n.
        """
        return self._groups(0)

    def _groups(self, torsion_from):
        """Degree index i has rank dims[i] - rank d_i - rank d_{i+1} and
        the invariant factors of d_{i + torsion_from}: 1 for homology, the
        boundary into degree i, and 0 for cohomology, the one out of it."""
        out = {}
        for i, dim in enumerate(self.dims):
            rank = dim - self._rank_inv(i)[0] - self._rank_inv(i + 1)[0]
            out[self.min_degree + i] = FinAbGroup.make(
                rank, self._rank_inv(i + torsion_from)[1])
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

_ZERO = {}   # the zero map, read and never written


def _congruent(M, N, mod):
    """Whether M = N, modulo ``mod`` when it is given."""
    if not mod:
        return M == N
    return all((M.get(key, 0) - N.get(key, 0)) % mod == 0
               for key in M.keys() | N.keys())


@dataclass
class PosetDiagram:
    """Contravariant diagram of free modules over face bitmasks.

    Every value is free over one ring: Z when ``mod`` is None, F2 when it
    is 2.  ``ranks[I]`` is the rank of the value at face I; a missing face
    has rank 0.  ``arrows[(I, J)]`` for a cover I < J (J is I plus one
    vertex) is the structure map value(J) -> value(I), a dict
    ``{(row, col): value}`` of the entries that are nonzero in the ring,
    one row per generator of value(I) and one column per generator of
    value(J); ``{}`` is the zero map.  Only covers are stored; arrow()
    composes the rest, over Z, so a composite is read modulo ``mod``.  The
    faces must contain every set that lies between two of them, as the
    face poset of a simplicial complex does.  validate() checks on
    construction that the faces have no such gap, that every stored
    arrow is a dict and every nonzero one sits at a cover, that no cover
    between nonzero values lacks an arrow, that every covering arrow has
    the shape of its ends, and that every diamond commutes modulo
    ``mod``.  limit_graded relies on all of it: it solves for the facet
    values alone and asks agreement only at faces with a disconnected
    link, so a diagram changed after construction is not checked again
    there.

    The diagram is ungraded; limit_graded grades it by Sym^k, and the one
    degree checked here covers every degree.  Sym^k is a functor:
    Sym^k(AB) = Sym^k(A) Sym^k(B) and Sym^k(1) = 1, for matrices of any
    shape, a zero end included.  Each entry of Sym^k(A) is a polynomial
    with integer coefficients in the entries of A, so A = B modulo 2
    gives Sym^k(A) = Sym^k(B) modulo 2.  So if every diamond commutes
    modulo ``mod``, Sym^k of the diagram is a diagram for every k, and
    the argument of limit_graded holds in each degree.

    One matrix may be the arrow of several covers, as
    build_classifying_diagram shares it between covers with the same
    character map.  validate() turns that sharing into saved work with
    memos keyed by identity: it scans each distinct (matrix, rank of I,
    rank of J) once for its shape, and decides each diamond once per
    distinct set of its four matrices, which fix the verdict, since the
    ring is one for the whole diagram.  ``arrows``, or the shared zero
    map, holds every keyed matrix for the whole call, so no id is reused
    while a memo lives.  The covering pairs are listed once, on
    construction; products and composites are recomputed when asked.
    arrow() returns a stored matrix itself, not a copy, so it must not be
    mutated.
    """

    faces: tuple
    ranks: dict
    arrows: dict
    mod: int = None

    def __post_init__(self):
        self.faces = tuple(sorted(set(self.faces), key=face_order))
        face_set = set(self.faces)
        self._covers = [(J ^ b, J) for J in self.faces
                        for b in vertex_bits(J) if J ^ b in face_set]
        self.validate()

    def arrow(self, I, J):
        """Structure map for I subset of J: the identity for I = J, the
        stored matrix for a cover, else the composite of covering arrows;
        ``{}`` when either value is zero."""
        if I & ~J:
            raise ValueError("no arrow from %s to %s: not a subset"
                             % (vertices(I), vertices(J)))
        rank = self.ranks.get(I, 0)
        if not rank or not self.ranks.get(J, 0):
            return {}
        if I == J:
            return {(k, k): 1 for k in range(rank)}
        gap = J ^ I
        if not gap & (gap - 1):
            return self.arrows[I, J]
        # walk down one vertex at a time, the lowest of J - I first
        mid = J ^ (gap & -gap)
        return sparse_product(self.arrow(I, mid), self.arrow(mid, J))

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
        for (I, J), M in arrows.items():
            if not isinstance(M, dict):
                raise ValueError("arrow at %s <= %s is not a {(row, col): "
                                 "value} dict" % (vertices(I), vertices(J)))
            if not M:
                continue
            if I not in face_set or J not in face_set:
                raise ValueError("arrow between objects not in the poset")
            if I & ~J or (I ^ J).bit_count() != 1:
                raise ValueError("arrow from %s to %s is not a cover"
                                 % (vertices(I), vertices(J)))
        # every nonzero arrow is now known to sit at a cover, so one scan
        # of the covers reads each of them; a covering arrow between
        # nonzero values has no composite to fall back on
        scanned = set()   # (id of a matrix, rows, columns)
        for I, J in self._covers:
            rows, cols = ranks.get(I, 0), ranks.get(J, 0)
            M = arrows.get((I, J))
            if M is None:
                if rows and cols:
                    raise ValueError("missing arrow at %s <= %s"
                                     % (vertices(I), vertices(J)))
                continue
            key = id(M), rows, cols
            if key in scanned:
                continue
            scanned.add(key)
            for (r, c), x in M.items():
                if not (0 <= r < rows and 0 <= c < cols
                        and (x % mod if mod else x)):
                    raise ValueError("arrow shape mismatch at %s <= %s: %s"
                                     % (vertices(I), vertices(J), {(r, c): x}))
        # functoriality: the diamonds I < J with |J - I| = 2 generate all
        # coherence constraints for cover-generated arrows
        diamonds = set()   # ids of four matrices
        for J in faces:
            for a, b in combinations(vertex_bits(J), 2):
                I = J ^ a ^ b
                if I not in face_set:
                    continue
                # both sets between I and J are faces, since the faces
                # have no gap, and every cover between nonzero values is
                # stored, as checked above, so the four covers are read
                # directly; a cover with a zero end holds the zero map
                m1, m2 = J ^ a, J ^ b
                parts = (arrows.get((I, m1), _ZERO),
                         arrows.get((m1, J), _ZERO),
                         arrows.get((I, m2), _ZERO),
                         arrows.get((m2, J), _ZERO))
                key = tuple(map(id, parts))
                if key in diamonds:
                    continue
                diamonds.add(key)
                lo1, hi1, lo2, hi2 = parts
                if not _congruent(sparse_product(lo1, hi1),
                                  sparse_product(lo2, hi2), mod):
                    raise ValueError("diagram not functorial at %s <= %s"
                                     % (vertices(I), vertices(J)))


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


def _sym_powers(M, rows, cols, top_k, mod=None, indexes=None):
    """Symmetric powers 0..top_k of the rows x cols matrix M, a dict
    {(row, col): value}; ``cols`` counts trailing zero columns too.

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
    columns = [[] for _ in range(cols)]   # per column, (row step, value)
    for (r, c), x in M.items():
        columns[c].append((1 << r * width, x))
    steps = [1 << j * width for j in range(cols)]
    images = [(0, 0, {0: 1})]   # (source code, last factor, nonzero image)
    powers = [{(0, 0): 1}]
    for k in range(1, top_k + 1):
        source = _monomial_index(indexes, cols, k, width)
        target = _monomial_index(indexes, rows, k, width)
        nxt = []
        arrow = {}
        for code, last, image in images:
            for j in range(last, cols):
                col = columns[j]
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


def limit_graded(D, top_k):
    """The inverse limits of Sym^k of a PosetDiagram over its face poset,
    for k = 0..top_k, as a GradedAbGroup with lim Sym^k(D) in degree k.

    In degree k the value at I is Sym^k of value(I), free on the
    C(r + k - 1, k) monomials of degree k in its r = ``D.ranks[I]``
    generators (one, the ring itself, for k = 0, also when r = 0), and
    the arrow for I <= J is Sym^k(D.arrow(I, J)) on those monomials.
    Sym^k(D) is functorial modulo ``D.mod`` because D is, as the
    PosetDiagram docstring proves, so the argument below holds in every
    degree.

    A compatible family (x_I) is determined by its values at the facets,
    x_I = arrow(I, F) x_F for any facet F above I, so the unknowns are
    the facet values alone.  They come from a family exactly when, at
    each face I, every facet F above I gives the same arrow(I, F) x_F.
    Facets F, G that share a face J strictly above I give it once they
    agree at J, since arrow(I, F) = arrow(I, J) arrow(J, F) modulo
    ``D.mod``.  Going down from the facets, agreement at I is thus forced
    within each component of lk(I), whose vertices a, b are joined when
    I + a + b is a face.  A face whose link has c components asks c - 1
    blocks

        arrow(I, P) x_P - arrow(I, Q) x_Q = 0,

    Q the first facet above the first component, P the first above
    another.  Such a face has c covers or more, so no presentation is
    larger than the one over every face and cover.  The argument needs
    every set between two faces to be a face, as in the face poset of a
    simplicial complex; PosetDiagram rejects a poset without that
    property on construction.

    Each block arrow is composed once, and its powers 0..top_k are built
    by _sym_powers once per distinct (rank of I, rank of F, entries),
    shared between blocks, over one monomial index per (rank, k); the
    ranks fix the monomial indexes of both sides.  In degree k the blocks
    make one constraint map psi from the product of the facet values,
    free of rank a, and the limit is its kernel.  A submodule of a free
    Z-module is free, and every F2-module is free, so the kernel is
    Z^(a - rank psi) or (Z/2)^(a - rank psi): the rank is taken by
    rank_and_invariants over Z and as the length of the f2_echelon basis
    of psi's rows over F2, psi's entries streaming from the tables.
    """
    ranks, mod = D.ranks, D.mod
    facets, blocks = _link_blocks(D)
    tables = {}    # (rank of I, rank of F, entries) -> powers 0..top_k
    indexes = {}   # (rank, k) -> {monomial code: position}
    powers = {}    # (I, facet) -> its table
    for I, P, Q in blocks:
        for F in (P, Q):
            if (I, F) in powers:
                continue
            M = D.arrow(I, F)
            key = ranks.get(I, 0), ranks.get(F, 0), frozenset(M.items())
            table = tables.get(key)
            if table is None:
                table = tables[key] = _sym_powers(M, key[0], key[1], top_k,
                                                  mod, indexes)
            powers[I, F] = table
    out = {}
    for k in range(top_k + 1):
        def gens(I):
            return comb(ranks.get(I, 0) + k - 1, k) if k else 1

        offset, a = {}, 0
        for F in facets:
            offset[F] = a
            a += gens(F)

        def psi():
            b = 0
            for I, P, Q in blocks:
                for sign, F in ((1, P), (-1, Q)):
                    c0 = offset[F]
                    for (r, c), v in powers[I, F][k].items():
                        yield b + r, c0 + c, sign * v
                b += gens(I)

        if mod:
            rows = [0] * sum(gens(I) for I, _, _ in blocks)
            for r, j, v in psi():
                rows[r] |= (v & 1) << j
            rank = len(f2_echelon((row, 0) for row in rows)[0])
            out[k] = FinAbGroup(0, (2,) * (a - rank))
        else:
            rank, _ = rank_and_invariants(psi())
            out[k] = FinAbGroup.free(a - rank)
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
