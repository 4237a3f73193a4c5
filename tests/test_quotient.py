from itertools import combinations, product
from math import gcd

import pytest

from maq.equivariant import PreconditionFailed, check_free
from maq.exact import mat_mul
from maq.homology import ChainComplex, GradedAbGroup
from maq.intlattice import FinAbGroup, TorusSubgroup
from maq.momentangle import BoundExceeded, hochster
from maq.quotient import (CubicalQuotient, KoszulComplex,
                          cubical_quotient_cohomology, cw_census,
                          koszul_cohomology, trc_report)
from maq.simplicial import SimplicialComplex, boundary_simplex

from conftest import random_complex, random_unimodular, seeded

TWO_POINTS = SimplicialComplex(2, [(1,), (2,)])


def test_projective_plane_from_diagonal_circle():
    # S^5 / diagonal circle: Z in degrees 0, 2, 4
    H = TorusSubgroup.from_annihilator(3, [[1, -1, 0], [0, 1, -1]])
    g = koszul_cohomology(boundary_simplex(3), H, 8)
    assert list(g.support()) == [0, 2, 4]
    assert all(gr == FinAbGroup.free(1) for _, gr in g.groups)


def test_lens_space_torsion():
    # S^3 / diagonal order-2 subgroup: Z, 0, Z/2, Z
    H = TorusSubgroup.from_annihilator(2, [[1, 1], [0, 2]])
    g = koszul_cohomology(TWO_POINTS, H, 3)
    assert g.group(0) == FinAbGroup.free(1)
    assert g.group(1).is_trivial()
    assert g.group(2) == FinAbGroup.cyclic(2)
    assert g.group(3) == FinAbGroup.free(1)


def test_weighted_projective_space():
    # S^3 / circle of weight (1, 2): Z, 0, Z, 0, Z/2
    H = TorusSubgroup.from_annihilator(2, [[1, -2]])
    g = koszul_cohomology(TWO_POINTS, H, 4)
    assert g.group(2) == FinAbGroup.free(1)
    assert g.group(4) == FinAbGroup.cyclic(2)


def test_koszul_trivial_subgroup_is_hochster():
    rng = seeded("koszul-hochster")
    done = 0
    while done < 8:
        K = random_complex(rng, rng.randint(2, 4))
        if K.is_void() or K.dim() < 0:
            continue
        done += 1
        H = TorusSubgroup.trivial(2, K.m)
        assert koszul_cohomology(K, H) == hochster(K)


def test_koszul_vanishes_above_dimension():
    K = boundary_simplex(3)
    H = TorusSubgroup.from_annihilator(3, [[1, -1, 0], [0, 1, -1]])
    g = koszul_cohomology(K, H)
    # quotient has dimension 2m - 2(number of subgroup circles) at most
    assert max(g.support()) <= 2 * K.m


def test_koszul_requires_condition1():
    seg = SimplicialComplex(2, [(1, 2)])
    diag = TorusSubgroup.from_annihilator(2, [[1, -1]])
    with pytest.raises(PreconditionFailed):
        koszul_cohomology(seg, diag, 4)
    with pytest.raises(ValueError):
        koszul_cohomology(seg, TorusSubgroup.trivial(1, 2), 4)


def test_koszul_cell_cap():
    with pytest.raises(BoundExceeded) as exc:
        koszul_cohomology(boundary_simplex(4),
                          TorusSubgroup.trivial(2, 4), cell_cap=10)
    message = str(exc.value)
    assert message.startswith("koszul:")
    assert "degrees 0..2" in message
    assert "cumulative" in message
    assert "cap 10" in message
    # checked as cells are appended: four points without forms have one
    # cell per monomial, so the count stops one past the cap in degree 6
    # (degrees 0, 2, 4 and 6 hold 1, 4, 4 and 4 cells)
    with pytest.raises(BoundExceeded, match="cell count 11 in degrees 0..6"):
        KoszulComplex(SimplicialComplex.points(4), [], 7, cell_cap=10)


def unpruned_koszul_cohomology(K, forms, max_degree):
    """Koszul cohomology from every cell (S, v^mu) with face-supported mu,
    none pruned: the reference for the basis KoszulComplex builds."""
    top = max_degree + 1
    l = len(forms)
    monos = {k: [mu for mu in product(range(k + 1), repeat=K.m)
                 if sum(mu) == k
                 and K.is_face([i + 1 for i, e in enumerate(mu) if e])]
             for k in range(top // 2 + 1)}
    basis = [[(S, mu) for p in range(min(l, n) + 1) if (n - p) % 2 == 0
              for S in combinations(range(l), p)
              for mu in monos[(n - p) // 2]]
             for n in range(top + 1)]
    ds = []
    for n in range(top):
        index = {c: i for i, c in enumerate(basis[n + 1])}
        d = {}
        for col, (S, mu) in enumerate(basis[n]):
            for t, j in enumerate(S):
                for i, c in enumerate(forms[j]):
                    key = (S[:t] + S[t + 1:],
                           mu[:i] + (mu[i] + 1,) + mu[i + 1:])
                    if c and key in index:
                        e = (index[key], col)
                        d[e] = d.get(e, 0) + (-1) ** t * c
        ds.append({e: v for e, v in d.items() if v})
    C = ChainComplex([len(b) for b in reversed(basis)], ds[::-1],
                     min_degree=-top)
    return GradedAbGroup.make({-d: g for d, g in C.homology().groups
                               if -d <= max_degree})


def _unit_row(m, k, sign=1):
    return [sign * int(i == k) for i in range(m)]


def _pruning_rows(rng, family, m):
    """Linear forms on m coordinates for one family of pruning cases."""
    coords = list(range(m))
    rng.shuffle(coords)

    def sign():
        return rng.choice((1, -1))

    if family == "trivial":
        return [_unit_row(m, k) for k in range(m)]
    if family == "mixed":
        # unit forms on some coordinates, coupled forms on the others
        cut = rng.randint(0, m - 2)
        rows = [_unit_row(m, k, sign()) for k in coords[:cut]]
        for _ in range(rng.randint(1, 2)):
            row = [0] * m
            for k in coords[cut:]:
                row[k] = rng.choice((-2, -1, 1, 2))
            rows.append(row)
        return rows
    if family == "double":
        # c e_k with |c| >= 2 beside unit forms: k is no unit coordinate
        k = coords[0]
        rows = [_unit_row(m, i, sign()) for i in coords[1:]]
        rows.insert(rng.randrange(len(rows) + 1),
                    _unit_row(m, k, rng.choice((2, -2, 3))))
        return rows
    if family == "shared":
        # +-e_k while another form also touches k
        k, other = coords[0], coords[1]
        row = [0] * m
        row[k], row[other] = rng.choice((-2, -1, 1, 2)), sign()
        rows = [_unit_row(m, k, sign()), row]
        rows += [_unit_row(m, i, sign()) for i in coords[2:]
                 if rng.random() < 0.5]
        return rows
    if family == "lens":
        # annihilator of Z/n acting with weights w: n e_1 and e_i - w_i e_1
        n = rng.randint(2, 5)
        rows = [[n] + [0] * (m - 1)]
        for i in range(1, m):
            row = _unit_row(m, i)
            row[0] = -rng.choice([w for w in range(1, n) if gcd(w, n) == 1])
            rows.append(row)
        return rows
    raise ValueError(family)


@pytest.mark.parametrize("family",
                         ["trivial", "mixed", "double", "shared", "lens"])
def test_koszul_pruning_matches_unpruned_reference(family):
    rng = seeded("koszul-pruning-" + family)
    done = 0
    while done < 8:
        m = rng.randint(2, 5)
        K = (boundary_simplex(m) if family == "lens" and done % 2
             else random_complex(rng, m))
        if K.is_void() or K.dim() < 0:
            continue
        done += 1
        rows = _pruning_rows(rng, family, m)
        max_degree = m + K.dim() + 1
        kc = KoszulComplex(K, rows, max_degree)
        assert kc.cohomology() == \
            unpruned_koszul_cohomology(K, rows, max_degree)
        # the kept cells span a subcomplex: d leaves the basis only
        # through the face relations
        for n in range(max_degree + 1):
            kept = set(kc.basis[n + 1])
            for S, mu in kc.basis[n]:
                for t, j in enumerate(S):
                    for i, c in enumerate(rows[j]):
                        mu2 = mu[:i] + (mu[i] + 1,) + mu[i + 1:]
                        if c and K.is_face(
                                [v + 1 for v, e in enumerate(mu2) if e]):
                            assert (S[:t] + S[t + 1:], mu2) in kept


def test_koszul_basis_independence():
    rng = seeded("koszul-basis")
    K = TWO_POINTS
    for _ in range(10):
        rows = [[rng.randint(-3, 3) for _ in range(2)]
                for _ in range(rng.randint(1, 2))]
        if not any(any(r) for r in rows):
            continue
        U = random_unimodular(rng, len(rows))
        c1 = KoszulComplex(K, rows, 6).cohomology()
        c2 = KoszulComplex(K, mat_mul(U, rows), 6).cohomology()
        assert c1 == c2


def test_koszul_dd_check_fires(monkeypatch):
    # S^5 / diagonal circle; plant one extra entry in d^2, in a column that
    # some row of d^1 hits, so d^2 d^1 != 0 while d^1 stays intact
    K = boundary_simplex(3)
    forms = [[1, -1, 0], [0, 1, -1]]
    built = KoszulComplex(K, forms, 4)
    assert built.differential(2) is built.differential(2)
    assemble = KoszulComplex._assemble

    def planted(self, n):
        d = assemble(self, n)
        if n == 2:
            row = next(r for r, _ in self.differential(1))
            d[(0, row)] = d.get((0, row), 0) + 1
        return d

    monkeypatch.setattr(KoszulComplex, "_assemble", planted)
    with pytest.raises(AssertionError, match="dd != 0 in degree 1"):
        KoszulComplex(K, forms, 4)
    unchecked = KoszulComplex(K, forms, 4, check=False)
    assert unchecked.differential(2) != built.differential(2)


def test_cubical_circle():
    # real moment-angle complex of two points is a circle
    g = cubical_quotient_cohomology(TWO_POINTS, TorusSubgroup.trivial(1, 2))
    assert list(g.support()) == [0, 1]
    assert g.group(1) == FinAbGroup.free(1)


def test_cubical_antipodal_quotient():
    # circle modulo the free diagonal Z/2 is again a circle
    W = TorusSubgroup.from_f2_span(2, [0b11])
    g = cubical_quotient_cohomology(TWO_POINTS, W)
    assert g.group(0) == FinAbGroup.free(1)
    assert g.group(1) == FinAbGroup.free(1)


def test_cubical_requires_free_action():
    seg = SimplicialComplex(2, [(1, 2)])
    W = TorusSubgroup.from_f2_span(2, [0b11])
    with pytest.raises(PreconditionFailed) as exc:
        cubical_quotient_cohomology(seg, W)
    assert exc.value.witness == frozenset({1, 2})


def test_cw_census_euler_characteristic():
    rng = seeded("census")
    checked = 0
    while checked < 15:
        m = rng.randint(2, 4)
        K = random_complex(rng, m)
        if K.is_void() or K.dim() < 0:
            continue
        vecs = [rng.randrange(1, 1 << m) for _ in range(rng.randint(0, m))]
        W = TorusSubgroup.from_f2_span(m, vecs)
        if not check_free(K, W)[0]:
            continue
        checked += 1
        counts, chi = cw_census(K, W)
        g = cubical_quotient_cohomology(K, W)
        chi_coh = sum((-1) ** d * g.group(d).free_rank for d in g.support())
        assert chi == chi_coh
        assert chi == sum((-1) ** d * c for d, c in counts.items())


def test_cubical_boundaries_revalidate():
    # the cubical model writes its boundaries sparsely and drops entries
    # that cancel; a checked rebuild rejects stray zeros, shapes and dd
    rng = seeded("sparse-cubical")
    checked = 0
    while checked < 20:
        m = rng.randint(2, 5)
        K = random_complex(rng, m)
        if K.is_void() or K.dim() < 0:
            continue
        vecs = [rng.randrange(1, 1 << m) for _ in range(rng.randint(0, m))]
        W = TorusSubgroup.from_f2_span(m, vecs)
        if not check_free(K, W)[0]:
            continue
        checked += 1
        C = CubicalQuotient(K, W).complex
        again = ChainComplex(C.dims, C.boundaries, C.min_degree, check=True)
        assert again.cohomology() == C.cohomology()


def test_trc_report_four_points():
    r = trc_report(SimplicialComplex.points(4), TorusSubgroup.trivial(2, 4))
    assert r.hrk == 18
    assert r.torus_rank == 0
    assert r.bound == 1
    assert r.verdict
    assert r.groups.group(3) == FinAbGroup.free(6)


def test_trc_report_projective_space():
    # S^7 / diagonal circle: hrk 4 against the 2^1 bound
    H = TorusSubgroup.from_annihilator(
        4, [[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1]])
    r = trc_report(boundary_simplex(4), H)
    assert r.torus_rank == 1
    assert r.hrk == 4
    assert r.verdict
