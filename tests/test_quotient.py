import pytest

from maq.equivariant import PreconditionFailed
from maq.exact import mat_mul
from maq.intlattice import FinAbGroup, TorusSubgroup
from maq.momentangle import BoundExceeded, hochster
from maq.quotient import (KoszulComplex, cubical_quotient_cohomology,
                          cw_census, koszul_cohomology, trc_report)
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
    with pytest.raises(BoundExceeded):
        koszul_cohomology(boundary_simplex(4),
                          TorusSubgroup.trivial(2, 4), cell_cap=10)


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
        from maq.equivariant import check_free
        if not check_free(K, W)[0]:
            continue
        checked += 1
        counts, chi = cw_census(K, W)
        g = cubical_quotient_cohomology(K, W)
        chi_coh = sum((-1) ** d * g.group(d).free_rank for d in g.support())
        assert chi == chi_coh
        assert chi == sum((-1) ** d * c for d, c in counts.items())


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
