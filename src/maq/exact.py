"""Exact linear algebra over the integers and over F2.

Everything here works with plain Python ints (arbitrary precision), lists of
lists for dense matrices, and int bitmasks for F2 vectors.  No floating point
anywhere.

Over F2 there is one row reduction, ``f2_echelon``, whose rows carry tags
recording the input combination that produced them, and one way to reduce
a vector against its result, ``f2_solve``.  ``f2_rref`` and
``f2_annihilator`` are thin readings of the two, and so is every d=1
computation elsewhere: coordinate meets in ``intlattice``, character
coordinates in ``equivariant``, cubical orbit representatives and
transporters in ``quotient``, and the rank of the constraint map of a
d=1 limit in ``homology``.  ``f2_echelon`` costs one XOR per pivot bit
its rows hold, forward and in back-substitution, with no step per pair
of pivots.

Over Z every presentation, chain complex boundary, Koszul differential
and constraint map of a d=2 limit is reduced by ``rank_and_invariants``,
sparse unit pivots first: the fill-free ones, a +-1 alone in its row or
its column, are peeled off by deletions alone, and a heap of short rows
orders the rest.  It can
report the rows of its unit pivots, whose block is unimodular, and
``homology.ChainComplex`` uses them to clear: boundaries are eliminated
from the highest degree down, and the unit-pivot rows of d_{k+1} are
dropped from the columns of d_k before d_k is eliminated, which changes
neither its rank nor its invariant factors (the argument is in
``ChainComplex``).  There is one dense elimination, ``row_hnf``, and
one normalization, ``divisor_chain``.  ``row_hnf`` keeps its rows in
buckets by leading column and visits only the columns where some row
leads, running its Euclid steps within one bucket, so an input already
in Hermite form (zero rows aside) costs one pass over its entries.  The
dense ``smith_normal_form`` has one caller, the residue inside
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


def _lead(row, start):
    """The first column from ``start`` on where ``row`` is nonzero, or -1."""
    for k in range(start, len(row)):
        if row[k]:
            return k
    return -1


def row_hnf(mat):
    """Canonical Hermite normal form of the row span of ``mat``.

    Returns the nonzero rows: pivots positive, entries above each pivot
    reduced into [0, pivot).  Two generating sets span the same subgroup of
    Z^n iff their HNFs are identical.

    The rows wait in buckets by their leading column, and the columns are
    visited in increasing order of the buckets alone: a column where no row
    leads costs nothing.  The Euclid steps of column j run among the rows
    of its bucket; a row that cancels in column j moves to the bucket of
    its next nonzero column, and a row that cancels everywhere is dropped.
    So an input that is already in Hermite form, zero rows aside, costs one
    pass over its entries to find the leading columns, plus the reduction
    of the entries above each pivot.
    """
    buckets = {}
    for r in mat:
        r = list(r)
        j = _lead(r, 0)
        if j >= 0:
            buckets.setdefault(j, []).append(r)
    heap = list(buckets)
    heapq.heapify(heap)
    out = []
    while heap:
        j = heapq.heappop(heap)
        bucket = buckets.pop(j)
        while len(bucket) > 1:
            bucket.sort(key=lambda r: abs(r[j]))
            p = bucket[0]
            left = [p]
            for r in bucket[1:]:
                _addmul(r, p, -(r[j] // p[j]))
                if r[j]:
                    left.append(r)
                    continue
                k = _lead(r, j + 1)
                if k >= 0:
                    if k not in buckets:
                        buckets[k] = []
                        heapq.heappush(heap, k)
                    buckets[k].append(r)
            bucket = left
        p = bucket[0]
        if p[j] < 0:
            p = [-x for x in p]
        for r in out:
            q = r[j] // p[j]
            if q:
                _addmul(r, p, -q)
        out.append(p)
    return out


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

    The fill-free unit pivots come first.  A +-1 alone in its column is
    taken by deleting its row: column operations clear the rest of that
    row and touch no other row.  A +-1 alone in its row is taken by
    deleting its column from every other row: each of those row
    operations subtracts a multiple of a unit vector, so nothing is
    multiplied and no entry fills in.  Two work stacks, columns that drop
    to one row and rows that drop to one entry, are fed as entries go,
    and the peel runs until both are empty; a singleton that is not +-1
    is skipped.

    Pivot rows for the rest come from a heap of ``(row length, row id)``
    over the rows that are left, so the shortest live row is tried first
    and ties go to the smaller row id.  The heap is updated lazily: an
    entry is stale, and skipped, when its row is gone or no longer has
    that length.  Within the chosen row the pivot is the unit entry whose
    column has the fewest nonzeros (ties to the smaller column id); a row
    with no unit entry is dropped from the heap.  Every row an
    elimination step changes is pushed again with its new length, so a
    row that fill turns into one with a unit entry is a candidate again.

    When ``pivot_rows`` is a list, the row id of every unit pivot is
    appended to it in the order the pivots are taken, peeled ones first;
    pivots of the dense residue are not.  Each pivot row, at the moment
    it is taken, is its original row plus multiples of earlier pivot rows
    (only row operations change the rows that are left), and it is zero
    in the earlier pivot columns, since every pivot clears its column
    from the rows that are left.  So the original block on the pivot rows
    and columns is a unit lower triangular matrix times a triangular one
    with +-1 on the diagonal: it is unimodular.  ``ChainComplex`` clears
    with these rows.
    """
    rows = {}
    cols = {}
    for i, j, v in entries:
        if v:
            rows.setdefault(i, {})[j] = v
            cols.setdefault(j, set()).add(i)
    ones = 0
    # the fill-free unit pivots, peeled by deletions alone
    lone_cols = [j for j, col in cols.items() if len(col) == 1]
    lone_rows = [i for i, row in rows.items() if len(row) == 1]
    while lone_cols or lone_rows:
        if lone_cols:
            pj = lone_cols.pop()
            col = cols.get(pj)
            if col is None or len(col) != 1:
                continue
            (pi,) = col
            prow = rows[pi]
            if prow[pj] != 1 and prow[pj] != -1:
                continue
            del rows[pi]
            for j in prow:
                col = cols[j]
                col.discard(pi)
                if len(col) == 1:
                    lone_cols.append(j)
                elif not col:
                    del cols[j]
        else:
            pi = lone_rows.pop()
            prow = rows.get(pi)
            if prow is None or len(prow) != 1:
                continue
            ((pj, pv),) = prow.items()
            if pv != 1 and pv != -1:
                continue
            del rows[pi]
            for i in cols.pop(pj):
                if i != pi:
                    row = rows[i]
                    del row[pj]
                    if len(row) == 1:
                        lone_rows.append(i)
                    elif not row:
                        del rows[i]
        if pivot_rows is not None:
            pivot_rows.append(pi)
        ones += 1
    heap = [(len(row), i) for i, row in rows.items()]
    heapq.heapify(heap)
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

    Back-substitution costs one XOR for each pivot bit that a row holds
    below its own pivot after the forward pass, not one test per pair of
    pivots.
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
    # back-substitute going up: the rows below p are already reduced, so
    # XOR with one clears its pivot bit and sets no other pivot bit
    below = 0   # the pivot bits below p
    for p in sorted(pivot):
        row, tag = pivot[p]
        while held := row & below:
            qv, qt = pivot[held.bit_length() - 1]
            row, tag = row ^ qv, tag ^ qt
        pivot[p] = (row, tag)
        below |= 1 << p
    return [pivot[p] for p in sorted(pivot, reverse=True)], kernel


def f2_solve(basis, v):
    """``(residue, tag)`` of v reduced against an ``f2_echelon`` basis.

    The residue is zero on every pivot, which makes it the least element of
    the coset v + span; ``v ^ residue`` is the XOR of the basis rows used
    and ``tag`` the XOR of their tags.
    """
    tag = 0
    for row, t in basis:
        if v ^ row < v:   # v holds the pivot of row
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
