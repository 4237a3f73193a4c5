"""Ordinary cohomology of quotients of polyhedral products.

Three pathways live here: the Koszul computation of the associated graded
of H*(Z_K/H) for d=2, a direct cubical cell model for d=1 quotients, and
the homotopy-colimit cell census with its Euler characteristic.  The d=1
model is a genuine oracle: it computes cellular cohomology of an explicit
finite complex with no algebra in between.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations
from math import comb
from operator import and_

from .homology import ChainComplex, GradedAbGroup
from .intlattice import TorusSubgroup, join_coordinate
from .exact import f2_echelon, f2_solve
from .equivariant import _same_vertices, require_free
from .momentangle import BoundExceeded, PreconditionFailed
from .simplicial import SimplicialComplex

# the default bound on the cells a Koszul or cubical complex may build
CELL_CAP = 2_000_000


# ---------------------------------------------------------------------------
# Koszul pathway (d=2)
# ---------------------------------------------------------------------------

def _unit_coordinates(forms):
    """{k: j} for every unit coordinate k: form j is the only form that
    touches coordinate k, with coefficient +-1 there.  Each form serves at
    most one coordinate, its lowest such k."""
    unit = {}
    for j, f in enumerate(forms):
        for k, c in enumerate(f):
            if abs(c) == 1 and sum(1 for g in forms if g[k]) == 1:
                unit[k] = j
                break
    return unit


def _face_monomials(K, unit, pinned, shift, top):
    """{k: [(F, codes)]} for k = 0..top//2: for each face F that misses
    ``pinned``, in the order of ``K.face_masks``, the codes of the monomials
    v^mu of total v-degree k with support F and exponent exactly 1 at every
    coordinate of F in ``unit``; mu_i is added at bit shift[i]."""
    out = {k: [] for k in range(top // 2 + 1)}
    for F in K.face_masks:
        if F & pinned:
            continue
        vs = [i for i in range(K.m) if F >> i & 1]
        free = [shift[i] for i in vs if i not in unit]
        base = sum(1 << shift[i] for i in vs if i in unit)
        # unit vertices take exponent 1, the rest of k goes to ``free``;
        # without free vertices there is one monomial, of degree |F|: for
        # the empty face, which only a nonvoid K has, the monomial 1
        last = top // 2 if free else min(len(vs), top // 2)
        for k in range(len(vs), last + 1):
            rest = k - len(vs) + len(free)
            codes = []
            for cut in combinations(range(1, rest), max(len(free) - 1, 0)):
                code = base
                prev = 0
                for at, c in zip(free, cut + (rest,)):
                    code += (c - prev) << at
                    prev = c
                codes.append(code)
            out[k].append((F, codes))
    return out


class KoszulComplex:
    """Exterior algebra on u_1..u_l tensored with the face ring of K.

    ``linear_forms`` are integer row vectors of length m; d(u_j) is the
    corresponding linear combination of the degree-2 generators v_i,
    truncated by the face relations.  u-degree 1, v-degree 2, d of total
    degree +1 and d^2 = 0.

    The differentials d^n, n = 0..max_degree, are all assembled on
    construction, from d^max_degree down to d^0 and one column at a time.
    Each column is checked as soon as it is written: d^(n+1) d^n on it
    is the sum of its stored entries times the stored columns of
    d^(n+1), and it must vanish, or AssertionError("dd != 0 in degree
    n") is raised.  So every pair of differentials that ``cohomology``
    eliminates is checked exactly, on the entries it reads, and the
    highest failing degree is the one reported.

    Each cell (S, v^mu) is stored as one int, its code: bit j, for j < l,
    is set when u_j is in S, and mu_i sits in the w-bit field at bit
    l + i*w.  ``basis[n]`` lists the codes of C^n and ``decode`` reads a
    code back as (S, mu).  With top = max_degree + 1, every cell has
    v-degree at most top//2, and d is assembled on C^n for n <= top - 1
    only, where a cell with S nonempty has v-degree (n - |S|)/2 <=
    (top - 2)/2.  So no exponent of a cell, nor of a term mu + e_i of d,
    exceeds top//2, and w is the least width with 2^w > top//2.  Codes
    are then distinct, and the code of a term of u_j at v_i is the source
    code with bit j cleared plus 1 at bit l + i*w.  The cells of C^n are
    ordered by |S|, then by face and monomial as ``_face_monomials`` lists
    them, then by S in ``combinations`` order of the allowed forms.

    Only the cells that can carry cohomology are built.  Call k a unit
    coordinate of form u_j when u_j is the only form that touches k and
    its coefficient there is +-1; u_j may touch other coordinates too.
    Write a_k = mu_k + [j in S] on a cell (S, v^mu).  Every term of d
    preserves a_k or lowers it by one, and it lowers it only through the
    terms of u_j away from k.  So the cells with a_k <= 1 span a
    subcomplex F.  Filter C/F by a_k: on each graded piece with a_k >= 2,
    the differential is the cone of multiplication by +-v_k from the cells
    with j in S onto those with j not in S.  Since mu_k >= 1 on both
    sides, the face support is the same, so that map is a bijection on
    cells and the piece is acyclic over Z.  Hence C/F is acyclic and F has
    the cohomology of C in degrees 0..max_degree; repeating this for each
    unit coordinate prunes them all.  The basis therefore keeps mu_k <= 1
    at every unit coordinate and drops u_j from S where mu_k = 1.  Each form
    serves at most one coordinate: were u_j to serve k and k', then after
    pruning k its cells with j in S have mu_k = 0 while those without j
    may have mu_k = 1, and the cone for k' is no longer a bijection.  A
    coefficient 2 at k, or a second form touching k, makes k no unit
    coordinate.

    A unit coordinate k of u_j that is a cone vertex of K, one in every
    facet, keeps only the cells with a_k = 0: no face through k, and u_j
    beside no face.  Those cells span a subcomplex of F, since d never
    raises a_k.  On the piece a_k = 1 of F, the cells with j not in S and
    mu_k = 1 span a subcomplex B: u_j is not in S, and the other forms
    do not touch k, so their terms keep mu_k and leave j out of S.  The
    other cells A of the piece have j in S and mu_k = 0; the terms of
    u_j away from k lower a_k, so in the piece d maps A to A by the other
    forms' terms and to B by the term of u_j at k, (S, mu) -> (S - j,
    mu + e_k) with coefficient +-1.  That map is a bijection on cells:
    supp(mu) + k is a face whenever supp(mu) is, because k lies in every
    facet; the inverse removes k from a support; and neither changes the
    exponent at another unit coordinate or whether its form lies in S.
    It takes a cell of degree n, |S| + 2|mu|, to one of degree n + 1, as
    the cone for a_k >= 2 does.  So the piece is the cone of an
    isomorphism, acyclic over Z, and the cells with a_k = 0 have the
    cohomology of F in degrees 0..max_degree.  Were k to miss a facet G,
    a cell of A with support G would have no partner in B.

    ``cell_cap`` bounds the number of cells built, counted cumulatively
    over the degrees, and is checked as cells are appended.
    """

    def __init__(self, K, linear_forms, max_degree, cell_cap=CELL_CAP):
        self.K = K
        self.forms = [list(f) for f in linear_forms]
        for f in self.forms:
            if len(f) != K.m:
                raise ValueError("linear form length != m")
        self.l = len(self.forms)
        self.max_degree = max_degree
        self._width = ((max_degree + 1) // 2).bit_length()
        self._shift = [self.l + i * self._width for i in range(K.m)]
        # the terms c v_i of each form u_j, with the signs +1 and -1, as
        # (code step, value): the step clears bit j and adds 1 to mu_i
        self._form_steps = [
            [[((1 << self._shift[i]) - (1 << j), sign * c)
              for i, c in enumerate(f) if c] for sign in (1, -1)]
            for j, f in enumerate(self.forms)]
        self._build(cell_cap)
        self._differentials = {}   # n -> entries of d: C^n -> C^{n+1}
        self._assemble()

    def decode(self, code):
        """The cell (S, mu) of a code: the forms in S as a sorted tuple and
        the exponents as an m-tuple."""
        field = (1 << self._width) - 1
        return (tuple(j for j in range(self.l) if code >> j & 1),
                tuple(code >> at & field for at in self._shift))

    def _build(self, cell_cap):
        top = self.max_degree + 1
        l = self.l
        unit = _unit_coordinates(self.forms)
        # the unit coordinates in every facet, kept at a_k = 0
        cone = reduce(and_, self.K.facet_masks, (1 << self.K.m) - 1)
        pinned = sum(1 << k for k in unit if cone >> k & 1)
        # the monomials of each face with the bits of the forms that S may
        # contain beside them, and the sums of their p-subsets by p, shared
        # by the faces that allow the same forms
        subsets = {}
        monos = {}
        for k, faces in _face_monomials(self.K, unit, pinned, self._shift,
                                        top).items():
            monos[k] = []
            for F, codes in faces:
                banned = {j for i, j in unit.items()
                          if (F | pinned) >> i & 1}
                bits = tuple(1 << j for j in range(l) if j not in banned)
                monos[k].append((codes, bits, subsets.setdefault(bits, {})))
        self.basis = {}
        total_cells = 0
        for n in range(top + 1):
            cells = []
            for p in range(min(l, n) + 1):
                if (n - p) % 2:
                    continue
                for codes, bits, masks_of in monos[(n - p) // 2]:
                    size = comb(len(bits), p)
                    if not size:
                        continue
                    if total_cells + size * len(codes) > cell_cap:
                        # the count at the first monomial past the cap
                        total_cells += size * (
                            (cell_cap - total_cells) // size + 1)
                        raise BoundExceeded(
                            "koszul: cell count %d in degrees 0..%d "
                            "(cumulative) exceeds cap %d" %
                            (total_cells, n, cell_cap),
                            "koszul", total_cells, cell_cap, degree=n)
                    total_cells += size * len(codes)
                    masks = masks_of.get(p)
                    if masks is None:
                        masks = masks_of[p] = list(
                            map(sum, combinations(bits, p)))
                    for c in codes:
                        cells += map(c.__or__, masks)
            self.basis[n] = cells

    def differential(self, n):
        """Sparse entries {(row, col): value} of d: C^n -> C^{n+1}, empty
        outside n = 0..max_degree.

        Built in ``__init__`` and shared by every caller, so callers must
        not mutate it.
        """
        return self._differentials.get(n, {})

    def _assemble(self):
        """d^n for n = max_degree down to 0, one column at a time, each
        column checked against d^(n+1) as soon as it is written.

        The (row, value) pairs of a column go into the stored d^n and into
        a tuple kept for one degree: column col of d^(n+1) d^n is the sum of
        value times column row of d^(n+1), and it must vanish.  A column
        with a single entry fails exactly when that column of d^(n+1) is
        nonempty, since no entry is zero.
        """
        low = (1 << self.l) - 1
        terms = {}      # S -> self._steps(S)
        above = None    # the columns of d^(n+1), as (row, value) tuples
        for n in range(self.max_degree, -1, -1):
            cells = self.basis[n + 1]
            get = dict(zip(cells, range(len(cells)))).get
            out = self._differentials[n] = {}
            columns = []
            for col, code in enumerate(self.basis[n]):
                steps = terms.get(code & low)
                if steps is None:
                    steps = terms[code & low] = self._steps(code & low)
                # each term reaches a different cell, so no entry is
                # written twice, and none is zero
                column = []
                for step, v in steps:
                    row = get(code + step)
                    if row is not None:
                        out[row, col] = v
                        column.append((row, v))
                # kept as a tuple, which the garbage collector stops
                # tracking once it holds only ints and tuples of ints
                columns.append(tuple(column))
                if above is None or not column:
                    continue
                if len(column) == 1:
                    bad = above[column[0][0]]
                else:
                    acc = {}
                    for row, v in column:
                        for r, w in above[row]:
                            acc[r] = acc.get(r, 0) + v * w
                    bad = any(acc.values())
                if bad:
                    raise AssertionError("dd != 0 in degree %d" % n)
            above = columns

    def _steps(self, S):
        """(code step, value) of every term of d on the cells whose forms
        are S: the t-th form u_j of S gives (-1)^t c v_i for each
        coefficient c of u_j, at i."""
        steps = []
        t = 0
        for j in range(self.l):
            if S >> j & 1:
                steps += self._form_steps[j][t % 2]
                t += 1
        return steps

    def cohomology(self):
        """H^n for n = 0..max_degree, as the homology of the chain complex
        with C^n in degree -n, so each d^n keeps its orientation (rows in
        C^{n+1}).  Degree max_degree+1 is cut off by the truncation and not
        reported."""
        top = self.max_degree + 1
        C = ChainComplex(
            [len(self.basis[n]) for n in range(top, -1, -1)],
            [self.differential(n) for n in range(top - 1, -1, -1)],
            min_degree=-top, check=False)
        return GradedAbGroup.make({-d: g for d, g in C.homology().groups
                                   if -d <= self.max_degree})


def koszul_cohomology(K, H, max_degree=None, cell_cap=CELL_CAP):
    """Associated graded of the integral cohomology of the quotient of the
    moment-angle complex of K by the d=2 subgroup H, by total degree.

    Requires a free action (hence the projection-compatibility
    condition); for a non-free H the complex computes the Borel
    cohomology of Z_K, not that of the orbit space.  The linear forms are
    the canonical basis of the annihilator lattice of H (the result is
    independent of that choice).  ``max_degree`` defaults to the
    quotient's dimension, m + dim K + 1 - torus rank; every degree above
    it is zero.
    """
    if H.d != 2:
        raise PreconditionFailed("koszul pathway needs a d=2 subgroup")
    require_free(K, H)
    if max_degree is None:
        # Z_K of the void complex is empty: every degree is zero
        max_degree = 0 if K.is_void() else K.m + K.dim() + 1 - H.torus_rank()
    koszul = KoszulComplex(K, [list(b) for b in H.ann], max_degree,
                           cell_cap=cell_cap)
    return koszul.cohomology()


# ---------------------------------------------------------------------------
# cubical pathway (d=1)
# ---------------------------------------------------------------------------

@dataclass
class CubicalQuotient:
    """Cell structure on the quotient of the real polyhedral product.

    Cells of the model are pairs (C, eps): C a face of K, eps a sign
    vector on the remaining coordinates (bit set = -1).  The subgroup acts
    by flipping signs; a free action permutes cells freely and the
    quotient complex has one cell per orbit.  Each face C keeps its
    ``f2_echelon`` basis and one index, orbit representative -> position
    among the cells of degree |C|; a boundary entry is one ``f2_solve``
    and one lookup in the index of the face it lands on.

    ``cell_cap`` bounds the number of quotient cells.  It is checked once
    the action is known to be free, when each face C carries exactly
    2^(m - |C|) / |H| cells, and before any cell is built.
    """

    K: SimplicialComplex
    H: TorusSubgroup
    cell_cap: int = CELL_CAP
    dims: list = field(init=False)
    complex: ChainComplex = field(init=False)

    def __post_init__(self):
        if self.H.d != 1:
            raise PreconditionFailed("cubical model needs a d=1 subgroup")
        require_free(self.K, self.H)
        count = sum(1 << (self.K.m - bin(fm).count("1"))
                    for fm in self.K.face_masks) >> len(self.H.span)
        if count > self.cell_cap:
            raise BoundExceeded("cubical: cell count %d exceeds cap %d"
                                % (count, self.cell_cap), "cubical", count,
                                self.cell_cap)
        self._build()

    def _build(self):
        K, H, m = self.K, self.H, self.K.m
        # per face C: the echelon of the outside-of-C projections of the
        # span, each row tagged with its group element.  Reducing eps
        # against it gives the least element of the orbit of eps and the
        # group element carrying eps there (unique by freeness)
        solvers = {fm: f2_echelon((h & ~fm, h) for h in H.span)[0]
                   for fm in K.face_masks}
        # orbit representatives per face: the sign vectors outside C that
        # are zero on every pivot, in increasing order; position[C] maps
        # each to its place among the cells of degree |C|
        full = (1 << m) - 1
        dims = []
        position = {}
        for fm in K.face_masks:
            free = full & ~fm
            for row, _ in solvers[fm]:
                free &= ~(1 << (row.bit_length() - 1))
            d = fm.bit_count()
            dims += [0] * (d + 1 - len(dims))
            pos = position[fm] = {}
            eps = 0   # (eps - free) & free is the next submask of free
            while True:
                pos[eps] = dims[d]
                dims[d] += 1
                if eps == free:
                    break
                eps = (eps - free) & free
        # the column of (C, eps) in d_|C|: at the t-th vertex i of C, the
        # cells (C - i, eps) and (C - i, eps + e_i), each carried to its
        # representative by the group element h, with sign (-1)^t, -(-1)^t
        # and (-1)^|h on C - i|.  No two of them share an orbit: the faces
        # C - i differ, and an h carrying one of the pair to the other
        # would be supported on the face C, which freeness rules out.  So
        # every entry is written once
        boundaries = [{} for _ in dims[1:]]
        for fm, cols in position.items():
            verts = [1 << i for i in range(m) if (fm >> i) & 1]
            sides = [(bit, fm ^ bit, solvers[fm ^ bit], position[fm ^ bit],
                      -1 if t % 2 else 1) for t, bit in enumerate(verts)]
            b = boundaries[len(verts) - 1] if verts else {}
            for eps, col in cols.items():
                for bit, fm2, solver, pos, sign in sides:
                    for point, psign in ((0, sign), (bit, -sign)):
                        rep, h = f2_solve(solver, eps | point)
                        v = -psign if (h & fm2).bit_count() & 1 else psign
                        b[(pos[rep], col)] = v
        self.dims = dims
        self.complex = ChainComplex(dims, boundaries, min_degree=0,
                                    check=False)


def cubical_quotient_cohomology(K, H, cell_cap=CELL_CAP):
    """Integral cellular cohomology of the quotient of the real polyhedral
    product by a freely acting d=1 subgroup."""
    return CubicalQuotient(K, H, cell_cap).complex.cohomology()


# ---------------------------------------------------------------------------
# homotopy-colimit cell census
# ---------------------------------------------------------------------------

def cw_census(K, H):
    """Cell counts of the homotopy-colimit decomposition of the quotient.

    Each strictly decreasing chain of faces contributes one family of
    cells in dimension equal to its length, with multiplicity the order
    of Q at the chain's minimal element.  Only d=1 gives finite counts.
    """
    if H.d != 1:
        raise PreconditionFailed("census requires finite orbits (d=1)")
    _same_vertices(K, H)
    # a chain I = I_0 < ... < I_s = J of faces is an ordered partition of
    # J - I into s nonempty blocks, so the chains of length s that start
    # at I number sum over faces J >= I of surj(|J - I|, s), the
    # surjections of |J - I| things onto s
    surj = [[1]]
    for r in range(1, K.m + 1):
        prev = surj[-1] + [0]
        surj.append([0] + [s * (prev[s - 1] + prev[s])
                           for s in range(1, r + 1)])
    # above[I][r]: the faces J >= I with |J - I| = r, from one walk over
    # the pairs I <= J of faces, as every submask of a face is a face
    above = {I: [0] * (K.m + 1) for I in K.face_masks}
    for J in K.face_masks:
        I = J
        while True:
            above[I][(J ^ I).bit_count()] += 1
            if not I:
                break
            I = (I - 1) & J
    counts = {}
    for I, sizes in above.items():
        mult = join_coordinate(H, I).order()
        for r, n in enumerate(sizes):
            if n:
                for s in range(r + 1):
                    counts[s] = counts.get(s, 0) + mult * n * surj[r][s]
    chi = sum((-1) ** s * c for s, c in counts.items())
    return counts, chi


# ---------------------------------------------------------------------------
# rank reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrcReport:
    hrk: int
    torus_rank: int
    bound: int
    verdict: bool
    groups: GradedAbGroup

    def to_json(self):
        return {"hrk": self.hrk, "torus_rank": self.torus_rank,
                "bound": self.bound, "verdict": self.verdict,
                "groups": self.groups.to_json()}


def trc_report(K, H):
    """Total rank of the quotient cohomology against the 2^rank bound for
    the acting torus, over every degree: a truncated total rank is only a
    lower bound, and a verdict drawn from it could be false.

    Z_K of the void complex is empty, so it has no quotient to bound;
    that is a failed precondition, not a verdict."""
    if H.d != 2:
        raise PreconditionFailed("trc needs a d=2 subgroup, got d=%d" % H.d)
    if K.is_void():
        raise PreconditionFailed("trc: the void complex has an empty "
                                 "moment-angle complex, so the total-rank "
                                 "bound does not apply")
    groups = koszul_cohomology(K, H)
    hrk = groups.total_rank()
    r = H.torus_rank()
    return TrcReport(hrk=hrk, torus_rank=r, bound=2 ** r,
                     verdict=hrk >= 2 ** r, groups=groups)
