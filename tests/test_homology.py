import pytest

from maq.homology import (ChainComplex, GradedAbGroup, PosetDiagram,
                          limit_graded, reduced_cohomology, reduced_homology,
                          simplicial_chain_complex)
from maq.intlattice import FinAbGroup
from maq.simplicial import boundary_simplex, cone, skeleton

from conftest import random_complex, seeded


def test_graded_group_algebra():
    g = GradedAbGroup.make({0: FinAbGroup.free(1), 3: FinAbGroup.cyclic(2)})
    assert g.group(0) == FinAbGroup.free(1)
    assert g.group(1).is_trivial()
    assert list(g.support()) == [0, 3]
    assert g.total_rank() == 1
    assert list(g.shift(2).support()) == [2, 5]
    assert GradedAbGroup.from_json(g.to_json()) == g


def test_chain_complex_validation():
    with pytest.raises(ValueError):
        # d.d != 0
        ChainComplex([1, 1, 1], [{(0, 0): 1}, {(0, 0): 1}])


def test_chain_complex_rejects_malformed_boundaries():
    with pytest.raises(ValueError, match="outside"):
        ChainComplex([1, 2], [{(0, 2): 1}])
    with pytest.raises(ValueError, match="outside"):
        ChainComplex([1, 2], [{(1, 0): 1}])
    with pytest.raises(ValueError, match="zero"):
        ChainComplex([1, 2], [{(0, 0): 1, (0, 1): 0}])
    # the same data without the zero is a valid complex, stored uncopied
    b = {(0, 0): 1, (0, 1): -1}
    C = ChainComplex([1, 2], [b])
    assert C.boundaries[1] is b
    assert C.homology().group(1) == FinAbGroup.free(1)


def test_simplicial_boundaries_revalidate():
    rng = seeded("sparse-simplicial")
    for _ in range(30):
        K = random_complex(rng, rng.randint(2, 6))
        for reduced in (True, False):
            C = simplicial_chain_complex(K, reduced=reduced)
            again = ChainComplex(C.dims, C.boundaries, C.min_degree,
                                 check=True)
            assert again.homology() == C.homology()


def test_sphere_homology():
    for m in range(2, 6):
        h = reduced_homology(boundary_simplex(m))
        assert list(h.support()) == [m - 2]
        assert h.group(m - 2) == FinAbGroup.free(1)
        assert reduced_cohomology(boundary_simplex(m)) == h


def test_cone_acyclic():
    rng = seeded("cone")
    for _ in range(20):
        K = random_complex(rng, rng.randint(2, 5))
        if K.is_void() or K.dim() < 0:
            continue
        assert reduced_homology(cone(K)).is_trivial()


def test_skeleton_wedge_homology():
    # 1-skeleton of the 3-simplex is a wedge of three circles
    h = reduced_homology(skeleton(4, 1))
    assert list(h.support()) == [1]
    assert h.group(1) == FinAbGroup.free(3)


def test_mod_p_cohomology():
    K = boundary_simplex(3)
    h2 = reduced_cohomology(K, p=2)
    assert h2.group(1) == FinAbGroup.free(1)


def test_euler_characteristic_consistency():
    rng = seeded("euler")
    for _ in range(30):
        K = random_complex(rng, rng.randint(2, 5))
        if K.is_void():
            continue
        h = reduced_homology(K)
        chi = sum((-1) ** d * g.free_rank for d, g in h.groups)
        assert chi == K.euler_characteristic() - 1


def test_limit_constant_diagram():
    # constant diagram Z over the face poset of a simplex: limit is Z
    faces = [frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})]
    orders = {(f, 0): (0,) for f in faces}
    arrows = {(I, J, 0): [[1]] for I in faces for J in faces
              if I < J and len(J - I) == 1}
    D = PosetDiagram(tuple(faces), orders, arrows, 0)
    lim = limit_graded(D)
    assert lim.group(0) == FinAbGroup.free(1)


def test_limit_two_points():
    # values Z at each of two vertices, Z^2 at the edge is absent:
    # poset of two incomparable faces gives the product
    faces = [frozenset({1}), frozenset({2})]
    orders = {(f, 2): (0,) for f in faces}
    D = PosetDiagram(tuple(faces), orders, {}, 2)
    lim = limit_graded(D)
    assert lim.group(2) == FinAbGroup.free(2)


def test_limit_equalizer_with_torsion():
    # Z -> Z/2 twice, one map the reduction and one zero: limit is 2Z + Z/2
    e, a, b = frozenset(), frozenset({1}), frozenset({2})
    orders = {(a, 0): (0,), (b, 0): (0,), (e, 0): (2,)}
    arrows = {(e, a, 0): [[1]], (e, b, 0): [[0]]}
    D = PosetDiagram((e, a, b), orders, arrows, 0)
    lim = limit_graded(D)
    # compatible pairs (x, y) with x mod 2 == 0, y free
    assert lim.group(0) == FinAbGroup.free(2)


def test_limit_invariant_under_relabeling():
    # relabeling the poset vertices must not change the limit
    rng = seeded("relabel")
    faces = [frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})]
    orders = {(frozenset(), 0): (0,), (frozenset({1}), 0): (0, 0),
              (frozenset({2}), 0): (0,), (frozenset({1, 2}), 0): (0,)}
    arrows = {
        (frozenset(), frozenset({1}), 0): [[1, 1]],
        (frozenset(), frozenset({2}), 0): [[1]],
        (frozenset({1}), frozenset({1, 2}), 0): [[1], [0]],
        (frozenset({2}), frozenset({1, 2}), 0): [[1]],
    }
    D = PosetDiagram(tuple(faces), orders, arrows, 0)
    base = limit_graded(D)
    perm = {1: 2, 2: 1}
    relabel = lambda f: frozenset(perm[v] for v in f)
    D2 = PosetDiagram(tuple(relabel(f) for f in faces),
                      {(relabel(f), n): o for (f, n), o in orders.items()},
                      {(relabel(I), relabel(J), n): M
                       for (I, J, n), M in arrows.items()}, 0)
    assert limit_graded(D2) == base


def test_diagram_functoriality_rejected():
    faces = [frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})]
    orders = {(f, 0): (0,) for f in faces}
    arrows = {(I, J, 0): [[1]] for I in faces for J in faces
              if I < J and len(J - I) == 1}
    # break one square: composite through {1} gives 1, through {2} gives 2
    arrows[(frozenset({2}), frozenset({1, 2}), 0)] = [[2]]
    with pytest.raises(ValueError):
        PosetDiagram(tuple(faces), orders, arrows, 0)


def test_diagram_composes_through_a_zero_value():
    # value(I) = Z except at {1}, where it is 0 in degree 0: the square
    # (empty, {1, 2}) has one composite through a zero group
    e, a, b, ab = (frozenset(), frozenset({1}), frozenset({2}),
                   frozenset({1, 2}))
    orders = {(f, 0): (0,) for f in (e, b, ab)}

    def diagram(to_b):
        arrows = {(e, a, 0): [[]], (a, ab, 0): [],
                  (e, b, 0): to_b, (b, ab, 0): [[1]]}
        return PosetDiagram((e, a, b, ab), orders, arrows, 0)

    with pytest.raises(ValueError, match="not functorial"):
        diagram([[1]])
    assert diagram([[0]]).arrow(e, ab, 0) == [[0]]


def test_homology_matches_bruteforce_ranks():
    # cross-check integral ranks against mod-p dimensions for p = 2, 3
    rng = seeded("uct")
    for _ in range(15):
        K = random_complex(rng, rng.randint(2, 5))
        if K.is_void():
            continue
        h = reduced_homology(K)
        for p in (2, 3):
            hp = reduced_cohomology(K, p=p)
            for d in set(h.support()) | set(hp.support()):
                g = h.group(d)
                dim_p = hp.group(d).free_rank
                t_here = sum(1 for t in g.torsion if t % p == 0)
                t_below = sum(1 for t in h.group(d + 1).torsion if t % p == 0)
                assert dim_p == g.free_rank + t_here + t_below
