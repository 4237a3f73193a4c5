"""Ordinary cohomology of quotients of polyhedral products.

Three pathways live here: the Koszul computation of the associated graded
of H*(Z_K/H) for d=2, a direct cubical cell model for d=1 quotients, and
the homotopy-colimit cell census with its Euler characteristic.  The d=1
model is a genuine oracle: it computes cellular cohomology of an explicit
finite complex with no algebra in between.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, repeat
from math import comb

from .homology import ChainComplex, GradedAbGroup, sparse_product
from .intlattice import TorusSubgroup, join_coordinate
from .equivariant import PreconditionFailed, check_free, require_condition1
from .momentangle import BoundExceeded
from .simplicial import SimplicialComplex


# ---------------------------------------------------------------------------
# Koszul pathway (d=2)
# ---------------------------------------------------------------------------

def _unit_coordinates(forms):
    """{k: j} for every unit coordinate k: form j is exactly +-e_k and no
    other form touches coordinate k."""
    unit = {}
    for j, f in enumerate(forms):
        support = [i for i, c in enumerate(f) if c]
        if len(support) == 1 and abs(f[support[0]]) == 1:
            k = support[0]
            if sum(1 for g in forms if g[k]) == 1:
                unit[k] = j
    return unit


def _face_monomials(K, k, unit):
    """Exponent tuples (length m) of total v-degree k with face support and
    exponent exactly 1 at every coordinate of the support in ``unit``."""
    if k == 0:
        return [(0,) * K.m]
    out = []
    for F in K.face_masks:
        vs = [i for i in range(K.m) if F >> i & 1]
        free = [i for i in vs if i not in unit]
        # unit vertices take exponent 1, the rest of k goes to ``free``
        rest = k - len(vs) + len(free)
        if not vs or rest < len(free) or (rest and not free):
            continue
        mono = [0] * K.m
        for i in vs:
            mono[i] = 1
        for cut in combinations(range(1, rest), max(len(free) - 1, 0)):
            prev = 0
            for i, c in zip(free, cut + (rest,)):
                mono[i] = c - prev
                prev = c
            out.append(tuple(mono))
    return out


class KoszulComplex:
    """Exterior algebra on u_1..u_l tensored with the face ring of K.

    ``linear_forms`` are integer row vectors of length m; d(u_j) is the
    corresponding linear combination of the degree-2 generators v_i,
    truncated by the face relations.  u-degree 1, v-degree 2, d of total
    degree +1 and d^2 = 0 (checked on construction degreewise).

    Only the cells that can carry cohomology are built.  Call k a unit
    coordinate when some form u_j is exactly +-e_k and no other form
    touches k.  Then d preserves a_k = mu_k + [j in S] on a cell
    (S, v^mu), so the complex splits by the values of a.  Where a_k >= 2,
    the block is the cone of multiplication by +-v_k from its cells with
    j in S onto its cells with j not in S: since mu_k >= 1 on both sides,
    the face support is the same, so that map is a bijection on cells and
    the block is acyclic over Z.  The basis therefore keeps mu_k <= 1 at
    every unit coordinate and drops u_j from S where mu_k = 1.  The kept
    cells span a subcomplex that is a direct summand, with the same
    cohomology in degrees 0..max_degree.  A form 2e_k, or +-e_k beside
    another form touching k, makes k no unit coordinate.

    ``cell_cap`` bounds the number of cells built, counted cumulatively
    over the degrees, and is checked as cells are appended.
    """

    def __init__(self, K, linear_forms, max_degree, cell_cap=2_000_000,
                 check=True):
        self.K = K
        self.forms = [list(f) for f in linear_forms]
        for f in self.forms:
            if len(f) != K.m:
                raise ValueError("linear form length != m")
        self.l = len(self.forms)
        self.max_degree = max_degree
        self._differentials = {}   # n -> entries of d: C^n -> C^{n+1}
        self._build(cell_cap)
        if check:
            for n in range(self.max_degree):
                if sparse_product(self.differential(n + 1),
                                  self.differential(n)):
                    raise AssertionError("dd != 0 in degree %d" % n)

    def _build(self, cell_cap):
        top = self.max_degree + 1
        unit = _unit_coordinates(self.forms)
        # each monomial with the forms that S may contain beside it
        monos = {}
        for k in range(top // 2 + 1):
            monos[k] = []
            for mu in _face_monomials(self.K, k, unit):
                banned = {j for i, j in unit.items() if mu[i]}
                monos[k].append(
                    (mu, tuple(j for j in range(self.l) if j not in banned)))
        self.basis = {}
        total_cells = 0
        for n in range(top + 1):
            cells = []
            for p in range(min(self.l, n) + 1):
                if (n - p) % 2:
                    continue
                for mu, allowed in monos[(n - p) // 2]:
                    total_cells += comb(len(allowed), p)
                    if total_cells > cell_cap:
                        raise BoundExceeded(
                            "koszul: cell count %d in degrees 0..%d "
                            "(cumulative) exceeds cap %d" %
                            (total_cells, n, cell_cap))
                    cells.extend(zip(combinations(allowed, p), repeat(mu)))
            self.basis[n] = cells

    def differential(self, n):
        """Sparse entries {(row, col): value} of d: C^n -> C^{n+1}.

        Built once per degree and shared by the dd-check and cohomology(),
        so callers must not mutate it.
        """
        if n < 0 or n + 1 > self.max_degree + 1:
            return {}
        if n not in self._differentials:
            self._differentials[n] = self._assemble(n)
        return self._differentials[n]

    def _assemble(self, n):
        cells = self.basis.get(n + 1, [])
        tgt = dict(zip(cells, range(len(cells))))
        out = {}
        for col, (S, mu) in enumerate(self.basis.get(n, [])):
            for t, j in enumerate(S):
                sign = -1 if t % 2 else 1
                S2 = S[:t] + S[t + 1:]
                for i, c in enumerate(self.forms[j]):
                    if not c:
                        continue
                    mu2 = mu[:i] + (mu[i] + 1,) + mu[i + 1:]
                    key = (S2, mu2)
                    row = tgt.get(key)
                    if row is None:
                        continue
                    out[(row, col)] = out.get((row, col), 0) + sign * c
        return {k: v for k, v in out.items() if v}

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


def koszul_cohomology(K, H, max_degree=None, cell_cap=2_000_000):
    """Associated graded of the integral cohomology of the quotient of the
    moment-angle complex of K by the d=2 subgroup H, by total degree.

    Requires the projection-compatibility condition; the linear forms are
    the canonical basis of the annihilator lattice of H (the result is
    independent of that choice).
    """
    if H.d != 2:
        raise ValueError("koszul pathway needs a d=2 subgroup")
    if H.m != K.m:
        raise ValueError("subgroup and complex live on different vertex sets")
    require_condition1(K, H)
    if max_degree is None:
        max_degree = K.m + K.dim() + 1
    koszul = KoszulComplex(K, [list(b) for b in H.ann.basis], max_degree,
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
    quotient complex has one cell per orbit.
    """

    K: SimplicialComplex
    H: TorusSubgroup
    dims: list = None
    complex: ChainComplex = None

    def __post_init__(self):
        if self.H.d != 1:
            raise ValueError("cubical model needs a d=1 subgroup")
        if self.H.m != self.K.m:
            raise ValueError("subgroup and complex live on different "
                             "vertex sets")
        free, witness = check_free(self.K, self.H)
        if not free:
            raise PreconditionFailed(
                "the action is not free (witness facet %s); the quotient "
                "has no induced cell structure" % sorted(witness),
                witness=witness)
        self._build()

    def _orbit_rep(self, cmask, eps):
        best = eps
        for h in self._group:
            cand = eps ^ (h & ~cmask)
            if cand < best:
                best = cand
        return best

    def _transporter(self, cmask, src, dst):
        """The group element with outside-of-C projection src ^ dst.

        Unique by freeness (two candidates would differ by an element
        supported inside the face C).
        """
        coeffs = 0
        v = src ^ dst
        for proj, orig in self._solvers[cmask]:
            p = proj.bit_length() - 1
            if (v >> p) & 1:
                v ^= proj
                coeffs ^= orig
        if v:
            raise AssertionError("cells not in the same orbit")
        return coeffs

    def _build(self):
        K, H, m = self.K, self.H, self.K.m
        self._group = [0]
        for b in H.span:
            self._group += [g ^ b for g in self._group]
        # per-face solvers: echelonized outside-projections of the span,
        # carrying the original group elements along
        self._solvers = {}
        for fm in K.face_masks:
            pivot = {}
            for b in H.span:
                proj, orig = b & ~fm, b
                while proj:
                    p = proj.bit_length() - 1
                    if p in pivot:
                        pp, po = pivot[p]
                        proj ^= pp
                        orig ^= po
                    else:
                        pivot[p] = (proj, orig)
                        break
            self._solvers[fm] = sorted(pivot.values(),
                                       key=lambda t: -t[0].bit_length())
        # orbit representatives per face
        cells = {}
        for fm in K.face_masks:
            dim = bin(fm).count("1")
            reps = []
            seen = set()
            outside = [i for i in range(m) if not (fm >> i) & 1]
            for combo in range(1 << len(outside)):
                eps = 0
                for t, i in enumerate(outside):
                    if (combo >> t) & 1:
                        eps |= 1 << i
                if eps in seen:
                    continue
                orbit = {eps ^ (h & ~fm) for h in self._group}
                seen |= orbit
                reps.append(min(orbit))
            cells.setdefault(dim, []).extend((fm, r) for r in reps)
        top = max(cells)
        index = {d: {c: i for i, c in enumerate(cells.get(d, []))}
                 for d in range(top + 1)}
        dims = [len(cells.get(d, [])) for d in range(top + 1)]
        boundaries = []
        for d in range(1, top + 1):
            b = {}
            for col, (fm, eps) in enumerate(cells.get(d, [])):
                verts = [i for i in range(m) if (fm >> i) & 1]
                for t, i in enumerate(verts):
                    sign = -1 if t % 2 else 1
                    fm2 = fm & ~(1 << i)
                    for point, psign in ((0, 1), (1 << i, -1)):
                        eps2 = eps | point
                        rep = self._orbit_rep(fm2, eps2)
                        h = self._transporter(fm2, eps2, rep)
                        osign = -1 if bin(h & fm2).count("1") % 2 else 1
                        key = (index[d - 1][(fm2, rep)], col)
                        v = b.pop(key, 0) + sign * psign * osign
                        if v:
                            b[key] = v
            boundaries.append(b)
        self.dims = dims
        self.complex = ChainComplex(dims, boundaries, min_degree=0,
                                    check=False)

    def euler_characteristic(self):
        return sum((-1) ** d * n for d, n in enumerate(self.dims))


def cubical_quotient_cohomology(K, H, cell_cap=2_000_000):
    """Integral cellular cohomology of the quotient of the real polyhedral
    product by a freely acting d=1 subgroup."""
    count = sum(1 << (K.m - bin(fm).count("1")) for fm in K.face_masks)
    if count > cell_cap:
        raise BoundExceeded("cell count %d exceeds cap %d" % (count, cell_cap))
    return CubicalQuotient(K, H).complex.cohomology()


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
    if H.m != K.m:
        raise ValueError("subgroup and complex live on different vertex sets")
    faces = sorted(K.faces(), key=lambda f: (len(f), sorted(f)))
    mult = {}
    for I in faces:
        mult[frozenset(I)] = join_coordinate(H, I).order()
    # count strictly increasing chains by dynamic programming over the
    # face poset; chains ending at their maximal element
    faces = [frozenset(f) for f in faces]
    counts = {}
    # strictly increasing chains in the inclusion DAG, grouped by minimum
    longer = {I: [J for J in faces if I < J] for I in faces}
    memo = {}

    def paths_from(I):
        # number of strictly increasing chains starting at I, by length
        if I in memo:
            return memo[I]
        out = {0: 1}
        for J in longer[I]:
            for s, c in paths_from(J).items():
                out[s + 1] = out.get(s + 1, 0) + c
        memo[I] = out
        return out

    for I in faces:
        for s, c in paths_from(I).items():
            counts[s] = counts.get(s, 0) + c * mult[I]
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


def trc_report(K, H, max_degree=None):
    """Total rank of the computed quotient cohomology against the 2^rank
    bound for the acting torus."""
    groups = koszul_cohomology(K, H, max_degree=max_degree)
    hrk = groups.total_rank()
    r = H.torus_rank()
    return TrcReport(hrk=hrk, torus_rank=r, bound=2 ** r,
                     verdict=hrk >= 2 ** r, groups=groups)
