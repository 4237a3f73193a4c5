import pytest

from maq import constructions
from maq.constructions import (bosio_meersseman_nerve, lambda_alpha_subgroup,
                               rp2_6, torsion_pipeline, truncate_face)
from maq.exact import hnf_solve
from maq.homology import reduced_cohomology, reduced_homology
from maq.intlattice import FinAbGroup
from maq.quotient import koszul_cohomology
from maq.simplicial import (SimplicialComplex, boundary_simplex,
                            full_subcomplex, minimal_non_faces,
                            sphere_sanity, stellar_subdivision)

from conftest import stellar_reference, swap_vertices

# the mod-3 Moore space on 10 vertices
MOORE_3 = SimplicialComplex(10, [
    (1, 2, 4), (1, 2, 6), (1, 2, 8), (1, 3, 5), (1, 3, 7), (1, 3, 9),
    (1, 4, 9), (1, 5, 6), (1, 7, 8), (2, 3, 5), (2, 3, 7), (2, 3, 9),
    (2, 4, 5), (2, 6, 7), (2, 8, 9), (4, 5, 10), (4, 9, 10), (5, 6, 10),
    (6, 7, 10), (7, 8, 10), (8, 9, 10)])


def test_rp2_6_is_the_projective_plane():
    K = rp2_6()
    assert K.m == 6
    assert len(K.facets) == 10
    assert K.f_vector() == (6, 15, 10)
    h = reduced_homology(K)
    assert h.group(1) == FinAbGroup.cyclic(2)
    assert h.group(2).is_trivial()
    hc = reduced_cohomology(K)
    assert hc.group(2) == FinAbGroup.cyclic(2)
    # vertex-transitive minimal triangulation: every vertex in 5 triangles
    for v in range(1, 7):
        assert sum(1 for F in K.facets if v in F) == 5


def test_truncate_face_square():
    # truncating an edge of the triangle boundary gives the square
    tri = boundary_simplex(3)
    sq = truncate_face(tri, frozenset({1, 2}))
    assert sq.m == 4
    assert sq.f_vector() == (4, 4)
    assert sphere_sanity(sq).passed


def test_truncate_face_rejects_bad_input():
    with pytest.raises(ValueError):
        truncate_face(boundary_simplex(3), frozenset({1, 2, 3}))
    with pytest.raises(ValueError):
        truncate_face(SimplicialComplex(3, [(1, 2, 3)]), frozenset({1}))


def test_nerve_of_three_points_is_hexagon():
    K = SimplicialComplex.points(3)
    P = bosio_meersseman_nerve(K)
    assert P.m == K.m + len(minimal_non_faces(K))
    assert P.f_vector() == (6, 6)
    assert sphere_sanity(P).passed


def test_lambda_alpha_subgroup():
    M = 5
    H = lambda_alpha_subgroup(M, (2, 4))
    assert H.d == 2 and H.m == M
    # a single circle wound oppositely through coordinates 2 and 4
    assert H.torus_rank() == 1
    assert len(H.ann) == M - 1
    # characters vanishing on H are exactly those with equal weight at 2, 4
    assert hnf_solve(H.ann, [0, 1, 0, 1, 0]) is not None
    assert hnf_solve(H.ann, [1, 0, 0, 0, 0]) is not None
    assert hnf_solve(H.ann, [0, 1, 0, 0, 0]) is None


def test_torsion_pipeline_rp2():
    rep = torsion_pipeline(rp2_6(), 2)
    assert rep.input_m == 6
    assert rep.m == 7
    assert rep.mf_count == 14
    assert rep.M == 21
    assert rep.sphere.passed
    assert rep.free
    assert rep.q == 9
    assert rep.quotient_dim == 26
    assert rep.subgroup.m == rep.M
    assert rep.subgroup.torus_rank() == 1
    assert rep.nerve.m == rep.M
    j = rep.to_json()
    assert j["m"] == 7 and j["free"] is True


def test_subdivided_input_is_the_nerves_full_subcomplex():
    # K' is the full subcomplex of the nerve on 1..m, on the rp2_6 nerve
    # (M = 21) and the mod-3 Moore nerve (M = 44)
    for K, M in ((rp2_6(), 21), (MOORE_3, 44)):
        Kp = stellar_subdivision(K, min(K.facets, key=sorted))
        nerve = bosio_meersseman_nerve(Kp)
        assert nerve.m == M
        assert full_subcomplex(nerve, range(1, Kp.m + 1)) == Kp


def test_torsion_pipeline_rejects_a_nerve_without_the_input(monkeypatch):
    # a nerve with a vertex label in 1..m swapped for one outside keeps
    # its sphere but no longer holds K' on 1..m
    build = constructions.bosio_meersseman_nerve
    monkeypatch.setattr(constructions, "bosio_meersseman_nerve",
                        lambda Kp: swap_vertices(build(Kp), 1, Kp.m + 1))
    with pytest.raises(AssertionError,
                       match="full subcomplex on 1..7 is not"):
        torsion_pipeline(rp2_6(), 2)


def test_torsion_pipeline_quotients_satisfy_poincare_duality():
    # the circle acts freely on the moment-angle manifold of the nerve, so
    # the quotient is a closed orientable manifold of dimension
    # quotient_dim = n: rank H^k = rank H^(n-k), the torsion of H^k is
    # that of H^(n+1-k), H^n = Z and nothing lies above n
    cases = [boundary_simplex(4), boundary_simplex(5),
             SimplicialComplex(4, [(1, 2, 3), (2, 3, 4)])]
    for K in cases:
        rep = torsion_pipeline(K, 2)
        n = rep.quotient_dim
        g = koszul_cohomology(rep.nerve, rep.subgroup, max_degree=n + 1)
        assert g.group(n) == FinAbGroup.free(1), K
        assert g.group(n + 1).is_trivial(), K
        for k in range(n + 1):
            assert g.group(k).free_rank == g.group(n - k).free_rank, (K, k)
            assert g.group(k).torsion == g.group(n + 1 - k).torsion, (K, k)


def test_nerve_fold_passes_sanity_at_every_step():
    # the nerve's fold skips the sphere battery between truncations;
    # replaying it with the battery before every truncation must reach
    # the pipeline's nerve
    K = rp2_6()
    Kp = stellar_subdivision(K, min(K.facets, key=sorted))
    S = boundary_simplex(Kp.m)
    for sigma in sorted(minimal_non_faces(Kp), key=sorted):
        S = truncate_face(S, sigma)
    assert S == bosio_meersseman_nerve(Kp) == torsion_pipeline(K, 2).nerve
    assert sphere_sanity(S).passed


def test_nerve_of_rp2_6_matches_frozenset_fold():
    # the fold on facet masks reaches the nerve that stellar subdivisions
    # built on frozensets reach: M = 21 vertices and 276 facets
    K = rp2_6()
    Kp = stellar_reference(K, frozenset(min(K.facets, key=sorted)))
    S = boundary_simplex(Kp.m)
    for sigma in sorted(minimal_non_faces(Kp), key=sorted):
        S = stellar_reference(S, sigma)
    nerve = torsion_pipeline(K, 2).nerve
    assert nerve.m == S.m == 21
    assert len(nerve.facet_masks) == 276
    assert nerve.facet_masks == S.facet_masks


def test_moore_space_mod_3():
    # a disk whose 9-gon boundary wraps three times around the triangle
    # {1, 2, 3}, with inner ring 4..9 and centre 10: the mod-3 Moore space
    # M(Z/3, 1), whose reduced homology is Z/3 in degree 1 and nothing else
    h = reduced_homology(MOORE_3)
    assert h.groups == ((1, FinAbGroup.cyclic(3)),)
