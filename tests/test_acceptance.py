"""End-to-end acceptance gate for the quotient-cohomology engine.

Each test pins one externally checkable contract: closed-form answers for
sphere and projective-space quotients, agreement between the two
independent integral pathways, limit formulas against Stanley-Reisner
dimensions, and randomized invariance batteries for the underlying
normal-form arithmetic.
"""

import itertools
import time
from math import comb

import pytest

from maq.equivariant import (check_condition1, check_free,
                             coordinate_quotient_check, equivariant_limit)
from maq.exact import smith_normal_form
from maq.homology import GradedAbGroup
from maq.intlattice import FinAbGroup, TorusSubgroup
from maq.momentangle import hochster, skeleton_quotient_hrk, skeleton_wedge
from maq.quotient import (KoszulComplex, cubical_quotient_cohomology,
                          cw_census, koszul_cohomology, trc_report)
from maq.constructions import rp2_6, torsion_pipeline, truncate_face
from maq.simplicial import (SimplicialComplex, boundary_simplex,
                            contraction, minimal_non_faces, skeleton)

from conftest import (complexes_isomorphic, mat_mul, random_complex,
                      random_unimodular, seeded)


def _nonvoid(rng, m):
    while True:
        K = random_complex(rng, m)
        if not K.is_void() and K.dim() >= 0:
            return K


def test_01_sphere_identities():
    start = time.time()
    two_points = SimplicialComplex(2, [(1,), (2,)])
    h = hochster(two_points)
    assert list(h.support()) == [0, 3]
    assert h.group(0) == FinAbGroup.free(1)
    assert h.group(3) == FinAbGroup.free(1)
    for m in range(2, 7):
        h = hochster(boundary_simplex(m))
        assert list(h.support()) == [0, 2 * m - 1]
        assert h.group(2 * m - 1) == FinAbGroup.free(1)
        assert all(g.torsion == () for _, g in h.groups)
    assert time.time() - start < 1.0


def test_02_real_projective_three_space():
    start = time.time()
    K = SimplicialComplex(2, [(1,), (2,)])
    H = TorusSubgroup.from_annihilator(2, [[1, 1], [0, 2]])
    g = koszul_cohomology(K, H, 3)
    assert g.group(0) == FinAbGroup.free(1)
    assert g.group(1).is_trivial()
    assert g.group(2) == FinAbGroup.cyclic(2)
    assert g.group(3) == FinAbGroup.free(1)
    assert time.time() - start < 1.0


def test_03_hochster_koszul_agreement():
    start = time.time()
    rng = seeded("acc-hochster-koszul")
    done = 0
    while done < 200:
        K = _nonvoid(rng, rng.randint(2, 6))
        done += 1
        H = TorusSubgroup.trivial(2, K.m)
        assert koszul_cohomology(K, H) == hochster(K)
    # the degenerate complexes: Z_K is empty for the void K, and the torus
    # T^m for {()}, whose only face is the empty one
    for m in range(5):
        H = TorusSubgroup.trivial(2, m)
        void = SimplicialComplex.void(m)
        assert hochster(void) == koszul_cohomology(void, H) == \
            koszul_cohomology(void, H, max_degree=m + 1) == \
            GradedAbGroup.make({})
        empty = SimplicialComplex.empty_face_only(m)
        assert koszul_cohomology(empty, H) == hochster(empty) == \
            GradedAbGroup.make({n: FinAbGroup.free(comb(m, n))
                                for n in range(m + 1)})
    assert time.time() - start < 600.0


def test_04_coordinate_subgroup_quotients():
    rng = seeded("acc-coord")
    cases = [boundary_simplex(3), boundary_simplex(4), boundary_simplex(5),
             skeleton(4, 1), skeleton(5, 2),
             SimplicialComplex(4, [(1, 2), (2, 3), (3, 4)]),
             SimplicialComplex.points(3)]
    for _ in range(5):
        cases.append(_nonvoid(rng, rng.randint(2, 4)))
    cases.append(_nonvoid(rng, 5))
    for K in cases:
        vertices = range(1, K.m + 1)
        for r in range(1, K.m):
            for combo in itertools.combinations(vertices, r):
                assert coordinate_quotient_check(K, frozenset(combo), 10)
    # random complexes, contracted at a random proper vertex set (possibly
    # empty), at both d: up to degree 2m for d=2 and m for d=1
    for _ in range(100):
        m = rng.randint(2, 5)
        K = _nonvoid(rng, m)
        I0 = frozenset(rng.sample(range(1, m + 1), rng.randint(0, m - 1)))
        assert coordinate_quotient_check(K, I0, 2 * m, d=2), (K, I0)
        assert coordinate_quotient_check(K, I0, m, d=1), (K, I0)


def test_04b_coordinate_subgroup_quotients_real():
    rng = seeded("acc-coord-d1")
    cases = [boundary_simplex(4), SimplicialComplex.points(3)]
    for _ in range(4):
        cases.append(_nonvoid(rng, rng.randint(2, 4)))
    for K in cases:
        for r in range(1, K.m):
            for combo in itertools.combinations(range(1, K.m + 1), r):
                assert coordinate_quotient_check(K, frozenset(combo), K.m,
                                                 d=1)


def test_05_stanley_reisner_limit():
    rng = seeded("acc-sr")
    cases = [boundary_simplex(3), boundary_simplex(5), skeleton(5, 1),
             SimplicialComplex(5, [(1, 2, 3), (3, 4), (4, 5)])]
    for _ in range(6):
        cases.append(_nonvoid(rng, rng.randint(2, 5)))
    for K in cases:
        # the coordinate subgroup at no vertex is the trivial subgroup
        assert coordinate_quotient_check(K, frozenset(), 10)


def test_06_compatibility_fixtures():
    # a freely acting subgroup passes
    pts = SimplicialComplex(2, [(1,), (2,)])
    diag = TorusSubgroup.from_annihilator(2, [[1, -1]])
    assert check_free(pts, diag)[0]
    assert check_condition1(pts, diag)[0]
    # coordinate subgroups always pass
    K = boundary_simplex(3)
    for I0 in ({1}, {2, 3}):
        coord = TorusSubgroup.coordinate(2, 3, frozenset(I0))
        assert check_condition1(K, coord)[0]
    # the diagonal circle on the full segment fails, with a covering-pair
    # witness among ({1},{1,2}) and its mirror image ({2},{1,2})
    seg = SimplicialComplex(2, [(1, 2)])
    ok, witness = check_condition1(seg, diag)
    assert not ok
    I, J = witness
    assert J == frozenset({1, 2}) and len(I) == 1
    ok_all, witness_all = check_condition1(seg, diag, all_pairs=True)
    assert not ok_all
    assert witness_all == (frozenset({1}), frozenset({1, 2}))


def test_07_odd_vanishing():
    rng = seeded("acc-odd")
    done = 0
    while done < 50:
        m = rng.randint(2, 4)
        K = _nonvoid(rng, m)
        rows = [[rng.randint(-2, 2) for _ in range(m)]
                for _ in range(rng.randint(1, m))]
        if not any(any(r) for r in rows):
            continue
        H = TorusSubgroup.from_annihilator(m, rows)
        if not check_condition1(K, H)[0]:
            continue
        done += 1
        lim = equivariant_limit(K, H, 12)
        for deg, g in lim.groups:
            assert deg % 2 == 0, (K, rows, deg, g)


def test_08_skeleton_family():
    for m in range(2, 7):
        for k in range(m - 1):
            h = hochster(skeleton(m, k))
            ps = skeleton_wedge(m, k)
            for n in range(2 * m + 2):
                g = h.group(n)
                assert g.torsion == ()
                assert g.free_rank == ps.get(n, 0)


def test_09_skeleton_quotient_rank_verdicts():
    start = time.time()
    for m in range(2, 11):
        for k in range(m - 1):
            hrk, bound, verdict = skeleton_quotient_hrk(m, k)
            assert verdict, (m, k, hrk, bound)
    assert time.time() - start < 1.0


def test_09b_skeleton_quotient_rank_computed():
    # the recursion for hrk of the skeleton quotients against the total
    # rank of the Koszul cohomology maq computes, for the diagonal circle
    # (annihilator rows e_i - e_(i+1)); none of these quotients has torsion
    cases = [(m, k) for m in range(3, 9) for k in range(m - 1)]
    for m, k in cases:
        H = TorusSubgroup.from_annihilator(
            m, [[(j == i) - (j == i + 1) for j in range(m)]
                for i in range(m - 1)])
        rep = trc_report(skeleton(m, k), H)
        assert rep.hrk == skeleton_quotient_hrk(m, k)[0], (m, k)
        assert all(not g.torsion for _, g in rep.groups.groups), (m, k)


def test_10_torsion_pipeline_projective_plane():
    start = time.time()
    rep = torsion_pipeline(rp2_6(), 2)
    assert rep.m == 7
    assert rep.M == 21
    assert rep.q == 9
    assert rep.quotient_dim == 26
    assert rep.free is True
    assert rep.sphere.passed
    assert time.time() - start < 60.0


def test_11_real_quotient_euler_characteristics():
    rng = seeded("acc-census")
    done = 0
    while done < 100:
        m = rng.randint(2, 5)
        K = _nonvoid(rng, m)
        vecs = [rng.randrange(1, 1 << m) for _ in range(rng.randint(0, m))]
        W = TorusSubgroup.from_f2_span(m, vecs)
        if not check_free(K, W)[0]:
            continue
        done += 1
        g = cubical_quotient_cohomology(K, W)
        chi_coh = sum((-1) ** d * g.group(d).free_rank for d in g.support())
        _, chi_census = cw_census(K, W)
        assert chi_coh == chi_census, (K, vecs)


def test_12a_snf_unimodular_invariance():
    rng = seeded("acc-snf")
    for _ in range(1000):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        A = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)]
        U = random_unimodular(rng, n)
        V = random_unimodular(rng, m)
        d1, _, _ = smith_normal_form([r[:] for r in A])
        d2, _, _ = smith_normal_form(mat_mul(mat_mul(U, A), V))
        assert d1 == d2


def test_12b_hnf_canonical_under_unimodular_change():
    rng = seeded("acc-dual")
    for _ in range(1000):
        m = rng.randint(1, 5)
        n = rng.randint(0, m + 1)
        gens = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)]
        H = TorusSubgroup.from_annihilator(m, gens)
        U = random_unimodular(rng, n)
        assert TorusSubgroup.from_annihilator(m, mat_mul(U, gens)) == H


def test_12c_koszul_basis_independence():
    rng = seeded("acc-koszul-basis")
    done = 0
    while done < 1000:
        m = rng.randint(2, 3)
        K = _nonvoid(rng, m)
        rows = [[rng.randint(-2, 2) for _ in range(m)]
                for _ in range(rng.randint(1, 2))]
        if not any(any(r) for r in rows):
            continue
        done += 1
        U = random_unimodular(rng, len(rows))
        c1 = KoszulComplex(K, rows, 5).cohomology()
        c2 = KoszulComplex(K, mat_mul(U, rows), 5).cohomology()
        assert c1 == c2, (K, rows, U)


def _fold_truncations(m, faces):
    S = boundary_simplex(m)
    for f in faces:
        S = truncate_face(S, f)
    return S


def test_12d_truncation_order_independence():
    # Truncations at incomparable faces do not commute facet-for-facet,
    # and reordering can even change the combinatorial type (cutting the
    # four edges {1,3},{1,4},{2,3},{2,4} of the tetrahedron in different
    # orders yields spheres with different vertex degree sequences).
    # What is order-independent, and what the construction relies on, is
    # the contract: vertex count, dimension, being a sphere, every
    # truncated face becoming a non-face, and the homeomorphism type.
    from maq.homology import reduced_homology
    rng = seeded("acc-truncate")
    done = 0
    while done < 1000:
        m = rng.randint(3, 4)
        K = _nonvoid(rng, m)
        mf = [f for f in minimal_non_faces(K) if 2 <= len(f) <= m - 1]
        if not (2 <= len(mf) <= 4):
            continue
        done += 1
        shuffled = mf[:]
        rng.shuffle(shuffled)
        base = _fold_truncations(m, sorted(mf, key=lambda f: sorted(f)))
        other = _fold_truncations(m, shuffled)
        assert other.m == base.m == m + len(mf)
        assert other.dim() == base.dim() == m - 2
        faces = set(other.faces())
        assert not any(f in faces for f in mf)
        h = reduced_homology(other)
        assert list(h.support()) == [m - 2]
        assert h.group(m - 2) == FinAbGroup.free(1)
        assert reduced_homology(base) == h
        # the lexicographic fold itself is deterministic
        again = _fold_truncations(m, sorted(mf, key=lambda f: sorted(f)))
        assert set(again.facets) == set(base.facets)


def test_12d_pairwise_swap_preserves_type_mostly():
    # for a single pair of incomparable faces the two orders usually
    # produce isomorphic spheres; pin the verified small example
    a = _fold_truncations(4, [frozenset({1, 2}), frozenset({2, 4})])
    b = _fold_truncations(4, [frozenset({2, 4}), frozenset({1, 2})])
    assert complexes_isomorphic(a, b)
