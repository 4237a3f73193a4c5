"""Cohomology of moment-angle complexes and rank bookkeeping.

The decomposition H^p = direct sum over vertex subsets I of the reduced
cohomology of the full subcomplex on I, shifted by |I|+1, is the ground
truth oracle here: every other cohomology pathway in the package is
reconciled against it where both apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .homology import GradedAbGroup, reduced_cohomology
from .intlattice import FinAbGroup
from .simplicial import SimplicialComplex, full_subcomplex, skeleton


class BoundExceeded(Exception):
    """Input size beyond the configured enumeration bound."""


@dataclass(frozen=True)
class PoincareSeries:
    """Finitely supported map from degrees to nonnegative counts."""

    counts: tuple = ()   # sorted (degree, count), counts positive

    @staticmethod
    def make(mapping):
        items = sorted((d, c) for d, c in dict(mapping).items() if c)
        if any(c < 0 for _, c in items):
            raise ValueError("negative coefficient")
        return PoincareSeries(tuple(items))

    def count(self, degree):
        for d, c in self.counts:
            if d == degree:
                return c
        return 0

    def total(self):
        return sum(c for _, c in self.counts)

    def to_json(self):
        return {str(d): c for d, c in self.counts}


@dataclass(frozen=True)
class SRRing:
    """Face ring of K with generators v_i of degree d (2 complex, 1 real)."""

    K: SimplicialComplex
    d: int = 2

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError("d must be 1 or 2")


def sr_dimension(R, n):
    """Number of monomials of total degree n whose support is a face."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n % R.d:
        return 0
    k = n // R.d
    if k == 0:
        return 0 if R.K.is_void() else 1
    total = 0
    for f in R.K.faces():
        s = len(f)
        if 1 <= s <= k:
            total += comb(k - 1, s - 1)
    return total


def hochster(K, max_degree=None, m_bound=14):
    """Integral cohomology of the moment-angle complex of K (d=2).

    Degree p collects H-tilde^{p-|I|-1} of the full subcomplex on I over
    all vertex subsets I.
    """
    if K.m > m_bound:
        raise BoundExceeded("m=%d exceeds bound %d" % (K.m, m_bound))
    out = {}
    verts = range(1, K.m + 1)
    for size in range(K.m + 1):
        for I in combinations(verts, size):
            KI = full_subcomplex(K, frozenset(I))
            for j, g in reduced_cohomology(KI).groups:
                p = j + size + 1
                if max_degree is not None and p > max_degree:
                    continue
                out[p] = out.get(p, FinAbGroup.trivial()).direct_sum(g)
    return GradedAbGroup.make(out)


def skeleton_wedge(m, k):
    """Betti numbers of the moment-angle complex over the k-skeleton of
    the (m-1)-simplex: spheres S^{k+j+1} with multiplicity C(m,j)C(j-1,k+1)
    for j = k+2..m, plus the unit in degree 0."""
    if m < 2 or k < 0 or k > m - 2:
        raise ValueError("need m >= 2 and 0 <= k <= m-2")
    counts = {0: 1}
    for j in range(k + 2, m + 1):
        mult = comb(m, j) * comb(j - 1, k + 1)
        if mult:
            counts[k + j + 1] = counts.get(k + j + 1, 0) + mult
    return PoincareSeries.make(counts)


def _hrk_z(m, k):
    """Total rank of H*(Z_{Delta^k_m}; Q); 1 when the skeleton is the
    whole simplex."""
    if k >= m - 1:
        return 1
    return skeleton_wedge(m, k).total()


def skeleton_quotient_hrk(m, k):
    """Recursion value for hrk of the quotient of the skeleton family by a
    generically chosen diagonal-free circle, with the 2^{m-k-1} bound.

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


def trk_moment_angle(K):
    """Rank of the largest torus acting freely on the moment-angle
    complex: m minus the number of vertices of a maximal face."""
    if K.is_void() or K.dim() < 0:
        raise ValueError("need a complex with at least one vertex")
    n = K.dim() + 1
    return K.m - n


def trc_verdict(hrk, trk):
    """Whether the homological rank clears the 2^trk bound."""
    return hrk >= 2 ** trk


def buchstaber_real(K, m_bound=12):
    """Largest dimension of a subspace H of F2^m meeting every coordinate
    subspace F2^I, I a facet, only in 0.

    Exhaustive search over canonical subspace chains, pruned by the facet
    condition; such H are exactly the subgroups acting freely on the real
    moment-angle complex.
    """
    if K.m > m_bound:
        raise BoundExceeded("m=%d exceeds bound %d" % (K.m, m_bound))
    if K.is_void() or K.dim() < 0:
        raise ValueError("need a complex with at least one vertex")
    m = K.m
    facets = list(K.facet_masks)
    upper = m - max(bin(f).count("1") for f in facets)
    forbidden = set()
    for f in facets:
        s = f
        while s:
            forbidden.add(s)
            s = (s - 1) & f

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
