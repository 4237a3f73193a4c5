import itertools

import pytest

from maq.simplicial import (SimplicialComplex, _maximalize, boundary_simplex,
                            cone, contraction, face_order, full_subcomplex,
                            minimal_non_faces, skeleton, sphere_sanity,
                            stellar_subdivision, vertex_bits, vertices)

from conftest import random_complex, seeded, stellar_reference


def test_basic_invariants():
    K = SimplicialComplex(4, [(1, 2), (2, 3), (3, 4)])
    assert K.dim() == 1
    assert K.f_vector() == (4, 3)
    assert K.euler_characteristic() == 1
    assert K.is_face(frozenset({2, 3}))
    assert not K.is_face(frozenset({1, 3}))
    assert len(list(K.faces())) == 8


def test_special_complexes():
    assert SimplicialComplex.void(3).is_void()
    assert SimplicialComplex.empty_face_only(3).dim() == -1
    assert SimplicialComplex.points(3).f_vector() == (3,)
    assert SimplicialComplex.simplex(3).facets == [frozenset({1, 2, 3})]
    dS = boundary_simplex(4)
    assert dS.dim() == 2
    assert dS.euler_characteristic() == 2


def test_minimal_non_faces():
    path = SimplicialComplex(4, [(1, 2), (2, 3), (3, 4)])
    assert minimal_non_faces(path) == {frozenset({1, 3}), frozenset({1, 4}),
                                       frozenset({2, 4})}
    assert minimal_non_faces(boundary_simplex(3)) == {frozenset({1, 2, 3})}
    assert minimal_non_faces(SimplicialComplex.simplex(2)) == set()


def test_skeleton():
    K = skeleton(4, 1)
    assert K.f_vector() == (4, 6)
    assert skeleton(4, 2).facets == boundary_simplex(4).facets
    # skeleton faces are exactly the small faces of the simplex
    for F in skeleton(5, 2).faces():
        assert len(F) <= 3


def test_full_subcomplex():
    dS = boundary_simplex(4)
    sub = full_subcomplex(dS, frozenset({1, 2, 3}))
    assert sub.m == 3
    assert sub.facets == [frozenset({1, 2, 3})]


def test_cone_and_contraction():
    c = cone(boundary_simplex(3))
    assert c.euler_characteristic() == 1
    assert c.m == 4
    K = SimplicialComplex(4, [(1, 2), (2, 3), (3, 4)])
    Q = contraction(K, frozenset({2}))
    # vertex 2 removed, survivors relabeled 1,3,4 -> 1,2,3
    assert Q.m == 3
    assert set(Q.facets) == {frozenset({1}), frozenset({2, 3})}


def test_stellar_subdivision():
    dS = boundary_simplex(3)
    K = stellar_subdivision(dS, frozenset({1, 2}))
    assert K.m == 4
    assert K.euler_characteristic() == 0
    assert frozenset({1, 2}) not in set(K.faces())
    assert frozenset({1, 4}) in set(K.faces())


def test_sphere_sanity():
    rep = sphere_sanity(boundary_simplex(4))
    assert rep.passed
    assert rep.dimension == 2
    disk = SimplicialComplex(3, [(1, 2, 3)])
    assert not sphere_sanity(disk).passed
    j = rep.to_json()
    assert j["passed"] is True


def test_sphere_sanity_disconnected_link():
    # two tetrahedron boundaries sharing vertex 1: a pure pseudomanifold
    # whose link at 1 is two disjoint circles
    first = list(itertools.combinations((1, 2, 3, 4), 3))
    second = list(itertools.combinations((1, 5, 6, 7), 3))
    rep = sphere_sanity(SimplicialComplex(7, first + second))
    assert rep.pure and rep.pseudomanifold
    assert rep.links_connected is False
    assert not rep.passed


def test_face_enumeration_matches_bruteforce():
    rng = seeded("simp-faces")
    cases = [random_complex(rng, rng.randint(2, 5)) for _ in range(25)]
    cases += [SimplicialComplex.void(3), SimplicialComplex.empty_face_only(3),
              SimplicialComplex(4, [(1, 2), (2, 3)])]   # 4 is a ghost vertex
    for K in cases:
        assert K.face_masks == sorted(set(K.face_masks))
        faces = set(K.faces())
        for r in range(K.m + 1):
            for combo in itertools.combinations(range(1, K.m + 1), r):
                F = frozenset(combo)
                assert (F in faces) == any(F <= G for G in K.facets)


def test_maximalize_matches_all_pairs_rule():
    # the size-ordered comparison keeps exactly the masks that lie inside
    # no other mask, on lists with duplicates and nested masks
    rng = seeded("maximalize")
    for _ in range(300):
        m = rng.randint(0, 7)
        masks = [rng.randrange(1 << m) for _ in range(rng.randint(0, 10))]
        masks += [f & rng.randrange(1 << m) for f in masks]
        masks += rng.choices(masks, k=rng.randint(0, 4)) if masks else []
        rng.shuffle(masks)
        want = {f for f in masks if not any(f != g and f & g == f
                                            for g in masks)}
        assert _maximalize(masks) == tuple(sorted(want)), masks


def test_stellar_subdivision_matches_frozenset_reference():
    # at every nonempty face of random pure and non-pure complexes
    rng = seeded("stellar-masks")
    cases = [random_complex(rng, rng.randint(1, 6)) for _ in range(25)]
    for _ in range(15):
        m = rng.randint(2, 6)
        k = rng.randint(1, m)
        cases.append(SimplicialComplex(m, [
            rng.sample(range(1, m + 1), k)
            for _ in range(rng.randint(1, 6))]))
    assert any(len({len(F) for F in K.facets}) == 1 for K in cases)
    assert any(len({len(F) for F in K.facets}) > 1 for K in cases)
    for K in cases:
        for sigma in K.faces():
            if sigma:
                S = stellar_subdivision(K, sigma)
                assert S == stellar_reference(K, sigma), (K, sorted(sigma))


def _relabel(faces, kept):
    """The faces, subsets of kept, with kept renumbered 1..|kept| in
    increasing order."""
    order = {v: i + 1 for i, v in enumerate(sorted(kept))}
    return {frozenset(order[v] for v in F) for F in faces}


def test_derived_complexes_match_frozenset_definitions():
    # full subcomplexes, contractions and cones, built from facet masks,
    # against their definitions on the faces as frozensets; on random
    # complexes, the void complex, {()} and complexes with ghost vertices,
    # at empty, full and random vertex sets
    rng = seeded("derived-complexes")
    cases = [random_complex(rng, rng.randint(1, 7)) for _ in range(30)]
    cases += [SimplicialComplex.void(0), SimplicialComplex.void(3),
              SimplicialComplex.empty_face_only(0),
              SimplicialComplex.empty_face_only(4),
              SimplicialComplex(6, [(1, 2), (2, 4, 5)]),   # 3, 6 ghosts
              SimplicialComplex(7, [(2,), (5, 6)])]
    assert any(not K.is_face([v]) for K in cases for v in range(1, K.m + 1))
    for K in cases:
        faces = set(K.faces())
        everything = frozenset(range(1, K.m + 1))
        vertex_sets = [frozenset(), everything] + [
            frozenset(v for v in everything if rng.random() < 0.5)
            for _ in range(4)]
        for I in vertex_sets:
            sub = full_subcomplex(K, I)
            assert sub.m == len(I)
            assert set(sub.faces()) == _relabel(
                {F for F in faces if F <= I}, I), (K, sorted(I))
            Q = contraction(K, I)
            assert Q.m == K.m - len(I)
            assert set(Q.faces()) == _relabel(
                {F - I for F in faces}, everything - I), (K, sorted(I))
        apex = frozenset({K.m + 1})
        C = cone(K)
        assert C.m == K.m + 1
        assert set(C.faces()) == faces | {F | apex for F in faces} | {
            frozenset(), apex}, K


def test_derived_complexes_read_only_facets():
    # a fresh complex has not listed its faces; building a full
    # subcomplex, a contraction or a cone from it lists none either
    K = SimplicialComplex(8, itertools.combinations(range(1, 9), 5))
    full_subcomplex(K, range(2, 8))
    contraction(K, {1, 8})
    cone(K)
    assert "face_masks" not in vars(K)


def test_vertex_sets_out_of_range_are_rejected():
    K = SimplicialComplex(4, [(1, 2), (2, 3)])   # 4 is a ghost vertex
    assert not K.is_face([4])
    operations = (K.is_face, lambda I: full_subcomplex(K, I),
                  lambda I: contraction(K, I))
    for bad in ([0], [5], [1, 5], [-1, 2]):
        for op in operations:
            with pytest.raises(ValueError, match=r"out of range 1\.\.4"):
                op(bad)
    with pytest.raises(ValueError, match=r"out of range 1\.\.0"):
        full_subcomplex(SimplicialComplex.void(0), [1])


def test_face_order_on_masks_is_the_order_of_vertex_lists():
    # face_order sorts masks by size and then by the increasing vertex
    # lists: on seeded random complexes (m <= 8) the sorted masks, turned
    # into frozensets, are the faces listed from the facets as frozensets
    # and sorted by (len(f), sorted(f)); faces() lists them that way
    rng = seeded("face-order")
    for _ in range(80):
        K = random_complex(rng, rng.randint(1, 8))
        faces = {frozenset(c) for F in K.facets for r in range(len(F) + 1)
                 for c in itertools.combinations(F, r)}
        want = sorted(faces, key=lambda f: (len(f), sorted(f)))
        got = [frozenset(vertices(f))
               for f in sorted(K.face_masks, key=face_order)]
        assert got == want, K
        assert K.faces() == want
    # the vertex lists differ first at a low vertex, the ints at a high one
    assert sorted([0b0110, 0b1001], key=face_order) == [0b1001, 0b0110]
    assert sorted([0b100011, 0b001101], key=face_order) == \
        [0b100011, 0b001101]
    assert vertex_bits(0b101001) == [0b1, 0b1000, 0b100000]
    assert vertices(0b101001) == [1, 4, 6]
