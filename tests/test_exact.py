from fractions import Fraction
from itertools import combinations
from math import gcd

from maq import exact
from maq.homology import face_chain_complex
from maq.exact import (f2_annihilator, f2_echelon, f2_rref, f2_solve,
                       hnf_solve, rank_and_invariants, row_hnf,
                       smith_normal_form)

from conftest import (mat_mul, random_complex, random_unimodular,
                      rational_rref, seeded)


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


def _column_scan_hnf(mat):
    """Reference Hermite form: visit every column, run Euclid steps among
    all rows from the current pivot row down, then make the pivot positive
    and reduce the entries above it."""
    rows = [list(r) for r in mat if any(r)]
    r = 0
    for j in range(len(rows[0]) if rows else 0):
        while True:
            nz = sorted((i for i in range(r, len(rows)) if rows[i][j]),
                        key=lambda i: abs(rows[i][j]))
            if len(nz) <= 1:
                break
            for i in nz[1:]:
                q = rows[i][j] // rows[nz[0]][j]
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[nz[0]])]
        if nz:
            rows[r], rows[nz[0]] = rows[nz[0]], rows[r]
            if rows[r][j] < 0:
                rows[r] = [-x for x in rows[r]]
            for i in range(r):
                q = rows[i][j] // rows[r][j]
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
            r += 1
    return rows[:r]


def _hnf_stress_matrix(rng):
    """Random rows mixed with rows already in Hermite form, zero rows, zero
    columns, negative leading entries, and pairs of rows that agree in
    their leading column, so that one cancels there and then leads a
    later column."""
    n = rng.randint(1, 7)
    zero_cols = set(rng.sample(range(n), rng.randint(0, n - 1)))

    def row(lead):
        r = [0] * lead + [rng.choice([0, 0, 1, -1, 2, -3, 4, 6, -9])
                          for _ in range(n - lead)]
        if lead < n:
            r[lead] = rng.choice([1, 2, 3, 5, 12]) * rng.choice([1, -1])
        return [0 if j in zero_cols else x for j, x in enumerate(r)]

    rows = [row(rng.randrange(n)) for _ in range(rng.randint(0, 4))]
    # a block already in Hermite form
    free = [j for j in range(n) if j not in zero_cols]
    block = []
    for lead in sorted(rng.sample(free, rng.randint(0, min(3, len(free))))):
        r = row(lead)
        r[lead] = abs(r[lead])
        for above in block:
            above[lead] %= r[lead]
        block.append(r)
    rows += block
    rows += [[0] * n for _ in range(rng.randint(0, 2))]
    for r in list(rows[:2]):
        # a partner that cancels r in its leading column
        tail = row(rng.randrange(n))
        lead = next((j for j, x in enumerate(r) if x), n)
        tail[:lead + 1] = [0] * (lead + 1)
        rows.append([-a + b for a, b in zip(r, tail)])
    rng.shuffle(rows)
    return rows


def test_row_hnf_canonical_form_of_the_row_lattice():
    rng = seeded("hnf-buckets")
    for _ in range(600):
        mat = _hnf_stress_matrix(rng)
        h = row_hnf(mat)
        pivots = [next(j for j, x in enumerate(r) if x) for r in h]
        # canonical: positive pivots in strictly increasing columns, the
        # entries above each pivot in [0, pivot)
        assert pivots == sorted(set(pivots)), (mat, h)
        for k, (r, j) in enumerate(zip(h, pivots)):
            assert r[j] > 0
            assert all(0 <= above[j] < r[j] for above in h[:k]), (mat, h)
        # the same lattice: every input row solves in the output, the
        # output absorbs the input, and it is the reference form
        for r in mat:
            assert hnf_solve(h, r) is not None, (mat, h)
        assert row_hnf(mat + h) == h
        assert h == _column_scan_hnf(mat), mat


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


def _peel_heavy(rng):
    """A boundary matrix of a random simplicial complex, under a random
    signed permutation of its rows and of its columns, with a few +-2 and
    +-3 entries planted: mostly +-1 entries alone in their row or column,
    beside some that are not units."""
    C = face_chain_complex(random_complex(rng, rng.randint(3, 6)).face_masks)
    k = rng.randrange(1, len(C.dims))
    n, m = C.dims[k - 1], C.dims[k]
    pr, pc = list(range(n)), list(range(m))
    rng.shuffle(pr)
    rng.shuffle(pc)
    sr = [rng.choice((1, -1)) for _ in range(n)]
    sc = [rng.choice((1, -1)) for _ in range(m)]
    mat = [[0] * m for _ in range(n)]
    for (r, c), v in C.boundaries[k].items():
        mat[pr[r]][pc[c]] = sr[r] * sc[c] * v
    for _ in range(rng.randint(0, 3)):
        mat[rng.randrange(n)][rng.randrange(m)] = rng.choice((2, -2, 3, -3))
    return mat


def test_peel_matches_dense_on_boundaries():
    # whole divisor chains against the dense Smith form, on matrices
    # where most pivots are taken by the peel
    rng = seeded("peel-boundaries")
    for _ in range(150):
        mat = _peel_heavy(rng)
        assert rank_and_invariants(dense_to_entries(mat)) == (
            len(_dense_invariants(mat)), _dense_invariants(mat))


def test_fully_peelable_matrix_takes_no_heap_round(monkeypatch):
    # a triangular matrix with +-1 on the diagonal, under permutations,
    # is peeled to nothing by column singletons (upper triangular) or by
    # row singletons (lower triangular), whatever lies off the diagonal:
    # neither the heap nor the dense residue is reached
    def unreached(*args):
        raise AssertionError("reached %r" % (args,))

    monkeypatch.setattr(exact, "smith_normal_form", unreached)
    monkeypatch.setattr(exact.heapq, "heappop", unreached)
    rng = seeded("peel-triangular")
    for k in range(40):
        n = rng.randint(1, 12)
        mat = [[rng.choice((1, -1)) if i == j else
                rng.choice((0, 0, 1, -2, 3)) if (i < j) == (k % 2 == 0)
                else 0 for j in range(n)] for i in range(n)]
        pr, pc = list(range(n)), list(range(n))
        rng.shuffle(pr)
        rng.shuffle(pc)
        entries = [(pr[i], pc[j], v) for i, j, v in dense_to_entries(mat)]
        assert rank_and_invariants(entries) == (n, [1] * n)


def test_non_unit_singleton_is_not_peeled():
    # the 2 is alone in its column and the 3 alone in its row, but
    # neither is a pivot: the unit pivot on row 0 leaves [-6], so the
    # invariants are 1, 6, not 1, 3 or 1, 2
    assert rank_and_invariants(dense_to_entries([[2, 1], [0, 3]])) == (
        2, [1, 6])
    assert rank_and_invariants(dense_to_entries([[2, 0], [1, 3]])) == (
        2, [1, 6])


def test_pivot_rows_carry_a_unimodular_block():
    # the reported pivot rows alone have one invariant factor 1 per row:
    # their block on the pivot columns is unimodular, which is what
    # clearing in ChainComplex relies on
    rng = seeded("pivot-rows")
    for k in range(120):
        if k % 2:
            mat = _peel_heavy(rng)
        else:
            mat = _random_sparse(rng, rng.randint(2, 25), rng.randint(2, 25),
                                 rng.choice((0.1, 0.2, 0.4)),
                                 unit_rows=k % 4 == 0)
        rows = []
        rank_and_invariants(dense_to_entries(mat), rows)
        assert len(set(rows)) == len(rows)
        sub = [mat[i] for i in rows]
        assert _dense_invariants(sub) == [1] * len(rows)
        assert rank_and_invariants(dense_to_entries(sub)) == (
            len(rows), [1] * len(rows))


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


def _dense_rref(mat, cols):
    """Gauss-Jordan on 0/1 list rows, pivot columns searched in the order
    ``cols``; returns the reduced rows and the number of pivots."""
    mat = [list(row) for row in mat]
    r = 0
    for c in cols:
        i = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if i is None:
            continue
        mat[r], mat[i] = mat[i], mat[r]
        for j in range(len(mat)):
            if j != r and mat[j][c]:
                mat[j] = [a ^ b for a, b in zip(mat[j], mat[r])]
        r += 1
    return mat, r


def _bits(x, n):
    return [(x >> j) & 1 for j in range(n)]


def _mask(bits):
    return sum(b << j for j, b in enumerate(bits))


def test_f2_echelon_matches_dense_reference():
    # widths up to 90 and up to 100 rows, sparse to dense, against a dense
    # Gauss-Jordan on [V | I] written independently of bitmask reduction.
    # Rows whose vector part vanishes span the relations among the inputs;
    # their canonical basis (highest input index first) is the kernel:
    # each kernel tag is one dependent input plus the unique combination
    # of the independent inputs S equal to it.  The rows of the RREF of
    # [V_S | I_S] are the basis rows with their tags, and f2_solve clears
    # every pivot v holds with the row of that pivot
    rng = seeded("f2-echelon-dense")
    for density in (0.02, 0.1, 0.3, 0.5, 0.8, 0.97):
        for _ in range(10):
            w = rng.randint(1, 90)
            k = rng.randint(0, 100)
            vecs = [_mask([rng.random() < density for _ in range(w)])
                    for _ in range(k)]
            basis, kernel = f2_echelon((v, 1 << i) for i, v in enumerate(vecs))
            vcols = range(w - 1, -1, -1)
            aug = [_bits(v, w) + _bits(1 << i, k) for i, v in enumerate(vecs)]
            red, rank = _dense_rref(aug, vcols)
            rels, nrel = _dense_rref([row[w:] for row in red[rank:]],
                                     range(k - 1, -1, -1))
            want_kernel = sorted((_mask(row) for row in rels[:nrel]),
                                 key=int.bit_length)
            assert kernel == want_kernel
            dependent = {t.bit_length() - 1 for t in kernel}
            indep = [i for i in range(k) if i not in dependent]
            red, rank = _dense_rref([aug[i] for i in indep], vcols)
            assert rank == len(indep)
            want = [(_mask(row[:w]), _mask(row[w:])) for row in red]
            assert basis == want
            for _ in range(4):
                v = rng.getrandbits(w)
                residue, tag = v, 0
                for row, t in want:
                    if (v >> (row.bit_length() - 1)) & 1:
                        residue ^= row
                        tag ^= t
                assert f2_solve(basis, v) == (residue, tag)
