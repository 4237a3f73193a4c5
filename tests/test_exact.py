from fractions import Fraction
from itertools import combinations
from math import gcd

from maq import exact
from maq.exact import (f2_annihilator, f2_echelon, f2_rref, f2_solve,
                       hnf_solve, mat_mul, rank_and_invariants, row_hnf,
                       smith_normal_form)

from conftest import random_unimodular, rational_rref, seeded


def test_hnf_canonical():
    assert row_hnf([[2, 4], [1, 1]]) == [[1, 1], [0, 2]]
    assert row_hnf([[0, 2], [1, 1]]) == [[1, 1], [0, 2]]
    # entries above a pivot are reduced into [0, pivot)
    h = row_hnf([[2, 7], [0, 3]])
    for j, row in enumerate(h):
        p = next(i for i, x in enumerate(row) if x)
        for above in h[:j]:
            assert 0 <= above[p] < row[p]


def test_hnf_idempotent_and_span_invariant():
    rng = seeded("hnf")
    for _ in range(200):
        n, m = rng.randint(1, 4), rng.randint(1, 5)
        mat = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)]
        h = row_hnf([r[:] for r in mat])
        assert row_hnf([r[:] for r in h]) == h
        U = random_unimodular(rng, n)
        h2 = row_hnf(mat_mul(U, mat))
        assert h2 == h


def test_hnf_solve():
    h = row_hnf([[1, 1], [0, 2]])
    assert hnf_solve(h, [1, 3]) == [1, 1]
    assert hnf_solve(h, [1, 0]) is None
    assert hnf_solve(h, [0, 0]) == [0, 0]


def test_smith_normal_form_basics():
    diag, _, _ = smith_normal_form([[2, 0], [0, 3]])
    assert diag == [1, 6]
    diag, _, _ = smith_normal_form([[1, 1], [0, 2]])
    assert diag == [1, 2]
    # its row Hermite form is itself; the form of its transpose,
    # [[1, 2], [0, 4]], puts the gcd 1 of its first row in the corner, and
    # a second round clears the 2 beside it
    assert smith_normal_form([[2, 1], [0, 2]]) == ([1, 4], None, None)
    assert smith_normal_form([[4, 6], [2, 2]])[0] == [2, 2]


def dense_to_entries(mat):
    for i, row in enumerate(mat):
        for j, v in enumerate(row):
            if v:
                yield i, j, v


def _random_sparse(rng, n, m, density, unit_rows=True):
    """n x m matrix with about density * n * m nonzeros, mostly +-1.

    Without unit_rows a third of the rows carry only +-2/+-3 entries; a
    row like that only gets a unit entry from fill.
    """
    mat = [[0] * m for _ in range(n)]
    for i in range(n):
        units = unit_rows or rng.random() < 0.67
        for j in range(m):
            if rng.random() < density:
                if units:
                    mat[i][j] = rng.choice((1, -1, 1, -1, 1, -1, 2, -3))
                else:
                    mat[i][j] = rng.choice((2, -2, 3, -3))
    return mat


def _dense_invariants(mat):
    if not any(any(row) for row in mat):
        return []
    return smith_normal_form([row[:] for row in mat])[0]


def test_sparse_matches_dense():
    rng = seeded("sparse")
    for _ in range(150):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        mat = [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(m)]
               for _ in range(n)]
        r, inv = rank_and_invariants(dense_to_entries(mat))
        diag = _dense_invariants(mat)
        assert r == len(diag)
        assert inv == diag
        assert len(rational_rref(mat)) == r


def test_sparse_matches_dense_at_realistic_size():
    rng = seeded("sparse-large")
    for k in range(40):
        n, m = rng.randint(10, 40), rng.randint(10, 60)
        mat = _random_sparse(rng, n, m, rng.choice((0.05, 0.1, 0.2)),
                             unit_rows=k % 2 == 0)
        r, inv = rank_and_invariants(dense_to_entries(mat))
        diag = _dense_invariants(mat)
        assert r == len(diag)
        assert inv == diag


def test_sparse_elimination_permutation_invariant():
    rng = seeded("sparse-perm")
    for k in range(20):
        n, m = rng.randint(10, 40), rng.randint(10, 60)
        mat = _random_sparse(rng, n, m, 0.1, unit_rows=k % 2 == 0)
        entries = list(dense_to_entries(mat))
        expect = rank_and_invariants(entries)
        pr, pc = list(range(n)), list(range(m))
        rng.shuffle(pr)
        rng.shuffle(pc)
        moved = [(pr[i], pc[j], v) for i, j, v in entries]
        rng.shuffle(moved)
        assert rank_and_invariants(moved) == expect


def test_fill_makes_a_unit_row_a_candidate_again(monkeypatch):
    # row 0 is shortest but has no unit entry, so it leaves the heap; the
    # pivot on row 1 turns it into [0, -1, -4], which must be pushed again
    # and eliminated sparsely rather than left for the dense residue
    def no_residue(mat):
        raise AssertionError("dense residue %r" % (mat,))

    monkeypatch.setattr(exact, "smith_normal_form", no_residue)
    assert rank_and_invariants(
        dense_to_entries([[2, 3, 0], [1, 2, 2]])) == (2, [1, 1])


def _det(mat):
    """Exact determinant by elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in mat]
    n, det = len(a), Fraction(1)
    for t in range(n):
        p = next((i for i in range(t, n) if a[i][t]), None)
        if p is None:
            return 0
        if p != t:
            a[t], a[p] = a[p], a[t]
            det = -det
        det *= a[t][t]
        for i in range(t + 1, n):
            q = a[i][t] / a[t][t]
            a[i] = [x - q * y for x, y in zip(a[i], a[t])]
    return det


def test_smith_normal_form_certificate():
    # d1 d2 ... dk is the gcd of the k x k minors, and there are as many
    # invariant factors as nonzero minor sizes (the rank)
    rng = seeded("snf-certificate")
    for _ in range(200):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        mat = [[rng.choice((0, 0, 1, -1, 2, -3, 4, 6)) for _ in range(m)]
               for _ in range(n)]
        diag, _, _ = smith_normal_form(mat)
        assert all(d > 0 for d in diag)
        assert all(b % a == 0 for a, b in zip(diag, diag[1:]))
        product = 1
        for k in range(1, min(n, m) + 1):
            divisor = 0
            for rows in combinations(range(n), k):
                for cols in combinations(range(m), k):
                    minor = _det([[mat[i][j] for j in cols] for i in rows])
                    divisor = gcd(divisor, int(minor))
            if k <= len(diag):
                product *= diag[k - 1]
                assert divisor == product
            else:
                assert divisor == 0


def test_f2_rref_canonical():
    basis = f2_rref([0b110, 0b011, 0b101])
    assert len(basis) == 2
    rng = seeded("f2")
    for _ in range(100):
        vecs = [rng.randrange(1, 32) for _ in range(rng.randint(1, 5))]
        b1 = f2_rref(vecs)
        rng.shuffle(vecs)
        assert f2_rref(vecs) == b1
        for v in vecs:
            assert f2_solve([(b, 0) for b in b1], v)[0] == 0


def test_f2_annihilator():
    vecs = [0b011, 0b110]
    ann = f2_annihilator(vecs, 3)
    assert len(ann) == 1
    for w in ann:
        for v in vecs:
            assert bin(v & w).count("1") % 2 == 0
    # double annihilator returns the span
    assert f2_rref(f2_annihilator(ann, 3)) == f2_rref(vecs)


def _xor_tagged(vecs, tag):
    out = 0
    for i, v in enumerate(vecs):
        if (tag >> i) & 1:
            out ^= v
    return out


def test_f2_echelon_and_solve_bruteforce():
    # width <= 6, so every span and coset can be listed: the basis is the
    # canonical RREF, each tag names the inputs its row combines, kernel
    # tags combine inputs to zero, and f2_solve lands on the coset minimum
    rng = seeded("f2-echelon")
    for _ in range(300):
        w = rng.randint(1, 6)
        vecs = [rng.randrange(1 << w) for _ in range(rng.randint(0, 6))]
        basis, kernel = f2_echelon((v, 1 << i) for i, v in enumerate(vecs))
        rows = [row for row, _ in basis]
        assert rows == f2_rref(vecs)
        pivots = [row.bit_length() - 1 for row in rows]
        assert pivots == sorted(set(pivots), reverse=True)
        for p in pivots:
            assert sum((row >> p) & 1 for row in rows) == 1
        for row, tag in basis:
            assert _xor_tagged(vecs, tag) == row
        assert len(kernel) == len(vecs) - len(basis)
        assert len(f2_rref(kernel)) == len(kernel)
        for tag in kernel:
            assert _xor_tagged(vecs, tag) == 0
        span = {_xor_tagged(vecs, t) for t in range(1 << len(vecs))}
        for v in range(1 << w):
            residue, tag = f2_solve(basis, v)
            assert residue == min(v ^ x for x in span)
            assert v ^ residue == _xor_tagged(vecs, tag)
            assert (residue == 0) == (v in span)


def test_f2_annihilator_bruteforce():
    rng = seeded("f2-annihilator")
    for _ in range(100):
        w = rng.randint(0, 6)
        vecs = [rng.randrange(1 << w) for _ in range(rng.randint(0, 5))]
        want = [x for x in range(1 << w)
                if all(bin(x & v).count("1") % 2 == 0 for v in vecs)]
        assert f2_annihilator(vecs, w) == f2_rref(want)
