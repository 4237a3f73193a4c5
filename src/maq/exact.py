"""Exact linear algebra over the integers and over F2.

Everything here works with plain Python ints (arbitrary precision), lists of
lists for dense matrices, and int bitmasks for F2 vectors.  No floating point
anywhere.

Over F2 there is one row reduction, ``f2_echelon``, whose rows carry tags
recording the input combination that produced them, and one way to reduce
a vector against its result, ``f2_solve``.  ``f2_rref`` and
``f2_annihilator`` are thin readings of the two, and so is every d=1
computation elsewhere: coordinate meets in ``intlattice``, character
coordinates in ``equivariant``, and cubical orbit representatives and
transporters in ``quotient``.

Over Z every presentation, chain complex boundary and Koszul differential
is reduced by ``rank_and_invariants``, sparse unit pivots first.  It can
report the rows of its unit pivots, and ``homology.ChainComplex`` uses
them to clear: boundaries are eliminated from the highest degree down,
and the unit-pivot rows of d_{k+1} are dropped from the columns of d_k
before d_k is eliminated, which changes neither its rank nor its
invariant factors (the argument is in ``ChainComplex``).  There is one
dense elimination, ``row_hnf``, and one normalization, ``divisor_chain``.
The dense ``smith_normal_form`` has one caller, the residue inside
``rank_and_invariants``; it alternates ``row_hnf`` on the matrix and its
transpose and normalizes the diagonal it reaches with ``divisor_chain``,
which ``FinAbGroup.make`` uses too.
"""

from __future__ import annotations

import heapq
from math import gcd


# ---------------------------------------------------------------------------
# dense integer matrices (lists of rows)
# ---------------------------------------------------------------------------

def _addmul(target, source, q):
    for k in range(len(target)):
        target[k] += q * source[k]


def row_hnf(mat):
    """Canonical Hermite normal form of the row span of ``mat``.

    Returns the nonzero rows: pivots positive, entries above each pivot
    reduced into [0, pivot).  Two generating sets span the same subgroup of
    Z^n iff their HNFs are identical.
    """
    rows = [list(r) for r in mat if any(r)]
    if not rows:
        return []
    n = len(rows[0])
    r = 0
    for j in range(n):
        while True:
            nz = [i for i in range(r, len(rows)) if rows[i][j]]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: abs(rows[i][j]))
            i0 = nz[0]
            for i in nz[1:]:
                q = rows[i][j] // rows[i0][j]
                if q:
                    _addmul(rows[i], rows[i0], -q)
        nz = [i for i in range(r, len(rows)) if rows[i][j]]
        if nz:
            i0 = nz[0]
            rows[r], rows[i0] = rows[i0], rows[r]
            if rows[r][j] < 0:
                rows[r] = [-x for x in rows[r]]
            p = rows[r][j]
            for i in range(r):
                q = rows[i][j] // p
                if q:
                    _addmul(rows[i], rows[r], -q)
            r += 1
    return [rows[i] for i in range(r)]


def hnf_solve(hnf_rows, target):
    """Integer coefficients expressing ``target`` in HNF rows, or None."""
    t = list(target)
    coeffs = [0] * len(hnf_rows)
    for idx, row in enumerate(hnf_rows):
        j = next(i for i, x in enumerate(row) if x)
        if t[j] % row[j]:
            return None
        q = t[j] // row[j]
        coeffs[idx] = q
        if q:
            _addmul(t, row, -q)
    if any(t):
        return None
    return coeffs


def mat_mul(a, b):
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def divisor_chain(values):
    """Invariant factors d1 | d2 | ... of the sum of the Z/|v|, v != 0.

    One gcd/lcm pass over the pairs i < j: Z/a + Z/b = Z/gcd + Z/lcm, and
    once position i has met every later one it divides all of them, which
    later steps (gcds and lcms of multiples of it) keep true.  Units stay,
    as the leading 1s of the chain.
    """
    d = [abs(v) for v in values]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            if d[j] % d[i]:
                g = gcd(d[i], d[j])
                d[i], d[j] = g, d[i] // g * d[j]
    return d


def smith_normal_form(mat):
    """Smith normal form of an integer matrix, as ``(diag, None, None)``.

    ``diag`` lists the nonzero invariant factors d1 | d2 | ...; the two
    Nones keep the shape that ``bench/tracing.py`` reads.  The matrix is
    put into row Hermite form, and then its transpose, alternately, until
    every row holds one nonzero entry; those entries, one per row and
    column, are normalized by ``divisor_chain``.  Going through Hermite
    forms, which reduce the entries above each pivot, keeps entries from
    growing as unreduced row combinations let them (Kannan and Bachem,
    SIAM J. Comput. 8, 1979).

    The loop ends.  Take the first pivot p not yet alone in its row and
    column.  After a row Hermite form p is alone in its column, and the
    next form (on the transpose) puts the gcd of p's row in its place.
    That is p itself only if p divides its row, and then the column steps
    clear the row and p is split off for good; otherwise p is replaced by
    a proper divisor, which can happen only finitely often.
    """
    a = row_hnf(mat)
    while any(len(row) - row.count(0) > 1 for row in a):
        a = row_hnf(zip(*a))
    return divisor_chain(next(x for x in row if x) for row in a), None, None


def rank_and_invariants(entries, pivot_rows=None):
    """Rank and nonzero invariant factors of a sparse integer matrix.

    ``entries`` is an iterable of ``(i, j, v)`` triples with v != 0.  Unit
    (+-1) pivots are eliminated first, which keeps fill-in and coefficient
    growth small on the very sparse boundary matrices this package
    produces; whatever remains is handed to the dense SNF.

    When ``pivot_rows`` is a list, the row id of every unit pivot is
    appended to it in pivot order; pivots of the dense residue are not.
    Each pivot row, at the moment it is taken, is its original row plus
    multiples of earlier pivot rows and is zero in the earlier pivot
    columns, so the original block on the pivot rows and columns is a
    unit lower triangular matrix times a triangular one with +-1 on the
    diagonal: it is unimodular.  ``ChainComplex`` clears with these rows.

    Pivot rows come from a heap of ``(row length, row id)``, so the
    shortest live row is tried first and ties go to the smaller row id.
    The heap is updated lazily: an entry is stale, and skipped, when its
    row is gone or no longer has that length.  Within the chosen row the
    pivot is the unit entry whose column has the fewest nonzeros (ties to
    the smaller column id); a row with no unit entry is dropped from the
    heap.  Every row an elimination step changes is pushed again with its
    new length, so a row that fill turns into one with a unit entry is a
    candidate again.
    """
    rows = {}
    cols = {}
    for i, j, v in entries:
        if v:
            rows.setdefault(i, {})[j] = v
            cols.setdefault(j, set()).add(i)
    heap = [(len(row), i) for i, row in rows.items()]
    heapq.heapify(heap)
    ones = 0
    while heap:
        li, pi = heapq.heappop(heap)
        prow = rows.get(pi)
        if prow is None or len(prow) != li:
            continue
        best = None
        for j, v in prow.items():
            if v == 1 or v == -1:
                key = (len(cols[j]), j)
                if best is None or key < best:
                    best = key
        if best is None:
            continue
        pj = best[1]
        pv = prow[pj]
        if pivot_rows is not None:
            pivot_rows.append(pi)
        del rows[pi]
        for j in prow:
            col = cols[j]
            col.discard(pi)
            if not col:
                del cols[j]
        for i in cols.pop(pj, ()):
            row = rows[i]
            q = row[pj] * pv
            for j, v in prow.items():
                nv = row.get(j, 0) - q * v
                if nv:
                    if j not in row:
                        cols.setdefault(j, set()).add(i)
                    row[j] = nv
                elif j in row:
                    del row[j]
                    if j != pj:
                        col = cols[j]
                        col.discard(i)
                        if not col:
                            del cols[j]
            if row:
                heapq.heappush(heap, (len(row), i))
            else:
                del rows[i]
        ones += 1
    if not rows:
        return ones, [1] * ones
    ridx = {i: k for k, i in enumerate(sorted(rows))}
    cset = set()
    for row in rows.values():
        cset.update(row)
    cidx = {j: k for k, j in enumerate(sorted(cset))}
    dense = [[0] * len(cidx) for _ in ridx]
    for i, row in rows.items():
        for j, v in row.items():
            dense[ridx[i]][cidx[j]] = v
    diag, _, _ = smith_normal_form(dense)
    return ones + len(diag), [1] * ones + diag


# ---------------------------------------------------------------------------
# F2 linear algebra on int bitmasks (bit i = coordinate i)
# ---------------------------------------------------------------------------

def f2_echelon(pairs):
    """Reduced echelon form of bitmask rows that carry tags.

    ``pairs`` yields ``(vector, tag)``; each tag is XORed along with its
    row, so a tag records which input rows were combined (tag each input
    with ``1 << i`` to read that off, or with its own original vector).
    Returns ``(basis, kernel)``: ``basis`` lists ``(row, tag)`` with the
    pivot of each row its highest set bit, every pivot set in its own row
    only, sorted by pivot descending, so equal spans give identical rows;
    ``kernel`` lists the tags of the input rows that reduced to zero.
    """
    pivot = {}   # pivot bit -> (row, tag)
    kernel = []
    for v, t in pairs:
        while v:
            p = v.bit_length() - 1
            if p not in pivot:
                pivot[p] = (v, t)
                break
            pv, pt = pivot[p]
            v ^= pv
            t ^= pt
        else:
            kernel.append(t)
    # back-substitute so each pivot appears only in its own row
    for p in sorted(pivot):
        row, tag = pivot[p]
        for q, (qv, qt) in pivot.items():
            if q > p and (qv >> p) & 1:
                pivot[q] = (qv ^ row, qt ^ tag)
    return [pivot[p] for p in sorted(pivot, reverse=True)], kernel


def f2_solve(basis, v):
    """``(residue, tag)`` of v reduced against an ``f2_echelon`` basis.

    The residue is zero on every pivot, which makes it the least element of
    the coset v + span; ``v ^ residue`` is the XOR of the basis rows used
    and ``tag`` the XOR of their tags.
    """
    tag = 0
    for row, t in basis:
        if (v >> (row.bit_length() - 1)) & 1:
            v ^= row
            tag ^= t
    return v, tag


def f2_rref(vectors):
    """Reduced row echelon basis (canonical) of the span of bitmask vectors,
    pivots (highest set bits) descending."""
    return [row for row, _ in f2_echelon((v, 0) for v in vectors)[0]]


def f2_annihilator(vectors, width):
    """Basis of {x in F2^width : x . v = 0 for all v} as bitmasks.

    x annihilates every v exactly when the columns (coordinate j as a mask
    over the vectors) selected by x sum to zero, so the annihilator is the
    kernel of those columns.
    """
    columns = []
    for j in range(width):
        col = 0
        for i, v in enumerate(vectors):
            col |= ((v >> j) & 1) << i
        columns.append((col, 1 << j))
    return f2_rref(f2_echelon(columns)[1])
