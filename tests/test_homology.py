from collections import Counter
from itertools import product
from math import gcd, lcm

import pytest

from maq import homology, quotient
from maq.constructions import rp2_6
from maq.equivariant import build_classifying_diagram, check_condition1
from maq.exact import mat_mul, rank_and_invariants
from maq.homology import (ChainComplex, GradedAbGroup, PosetDiagram,
                          limit_graded, reduced_cohomology, reduced_homology,
                          simplicial_chain_complex, sparse_product)
from maq.intlattice import FinAbGroup, TorusSubgroup
from maq.quotient import cubical_quotient_cohomology, koszul_cohomology
from maq.simplicial import SimplicialComplex, boundary_simplex, cone, skeleton

from conftest import join, random_complex, reference_limit, seeded


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


def _entries(mat):
    return {(r, c): v for r, row in enumerate(mat)
            for c, v in enumerate(row) if v}


def test_sparse_product_matches_dense():
    # entries in {-1, 0, 1} with many zeros, so that products cancel
    rng = seeded("sparse-product")
    cancelled = 0
    for _ in range(200):
        n, k, m = (rng.randint(1, 6) for _ in range(3))
        a = [[rng.choice((-1, 0, 0, 0, 1)) for _ in range(k)]
             for _ in range(n)]
        b = [[rng.choice((-1, 0, 0, 0, 1)) for _ in range(m)]
             for _ in range(k)]
        dense = mat_mul(a, b)
        assert sparse_product(_entries(a), _entries(b)) == _entries(dense)
        cancelled += sum(1 for r in range(n) for c in range(m)
                         if not dense[r][c]
                         and any(a[r][t] * b[t][c] for t in range(k)))
    assert cancelled
    assert sparse_product({(0, 0): 1, (0, 1): 1},
                          {(0, 0): 1, (1, 0): -1}) == {}
    assert sparse_product({}, {(0, 0): 1}) == {}


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
    arrows = {(I, J, 0): {(0, 0): 1} for I in faces for J in faces
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
    arrows = {(e, a, 0): {(0, 0): 1}, (e, b, 0): {}}
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
        (frozenset(), frozenset({1}), 0): {(0, 0): 1, (0, 1): 1},
        (frozenset(), frozenset({2}), 0): {(0, 0): 1},
        (frozenset({1}), frozenset({1, 2}), 0): {(0, 0): 1},
        (frozenset({2}), frozenset({1, 2}), 0): {(0, 0): 1},
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
    arrows = {(I, J, 0): {(0, 0): 1} for I in faces for J in faces
              if I < J and len(J - I) == 1}
    # break one square: composite through {1} gives 1, through {2} gives 2
    arrows[(frozenset({2}), frozenset({1, 2}), 0)] = {(0, 0): 2}
    with pytest.raises(ValueError):
        PosetDiagram(tuple(faces), orders, arrows, 0)


def _square(n, arrows, order_e=0):
    # the face poset of an edge, Z in degree n at every face except the
    # empty one, which carries Z/order_e (Z for 0)
    e, a, b, ab = (frozenset(), frozenset({1}), frozenset({2}),
                   frozenset({1, 2}))
    orders = {(f, n): (0,) for f in (a, b, ab)}
    orders[e, n] = (order_e,)
    covers = {(e, a, n): 1, (e, b, n): 1, (a, ab, n): 1, (b, ab, n): 1}
    covers.update(arrows)
    return PosetDiagram((e, a, b, ab), orders,
                        {key: {(0, 0): v} for key, v in covers.items()}, 2)


def test_diagram_functoriality_checked_in_every_degree():
    # a broken square above max_degree or in a negative degree is
    # rejected like one in degree 0
    b, ab = frozenset({2}), frozenset({1, 2})
    for n in (0, 4, -2):
        _square(n, {})
        with pytest.raises(ValueError, match="not functorial.*degree %d" % n):
            _square(n, {(b, ab, n): 2})


def test_diagram_functoriality_modulo_torsion():
    # into Z/4 the two composites 1 and 5 agree; 1 and 3 do not
    b, ab = frozenset({2}), frozenset({1, 2})
    D = _square(0, {(b, ab, 0): 5}, order_e=4)
    assert limit_graded(D).group(0) == FinAbGroup.free(1)
    with pytest.raises(ValueError, match="not functorial"):
        _square(0, {(b, ab, 0): 3}, order_e=4)


def test_diagram_stored_long_arrow_checked():
    # a stored arrow across a diamond must equal the cover composites
    e, ab = frozenset(), frozenset({1, 2})
    D = _square(0, {(e, ab, 0): 1})
    assert D.arrow(e, ab, 0) == {(0, 0): 1}
    with pytest.raises(ValueError, match="not functorial"):
        _square(0, {(e, ab, 0): 2})


def test_diagram_arrow_requires_a_subset():
    D = _square(0, {})
    with pytest.raises(ValueError, match=r"\[1\] to \[2\]"):
        D.arrow(frozenset({1}), frozenset({2}), 0)
    with pytest.raises(ValueError, match=r"\[1, 2\] to \[1\]"):
        D.arrow(frozenset({1, 2}), frozenset({1}), 0)
    assert D.arrow(frozenset({1}), frozenset({1}), 0) == {(0, 0): 1}


def test_diagram_composes_through_a_zero_value():
    # value(I) = Z except at {1}, where it is 0 in degree 0: the square
    # (empty, {1, 2}) has one composite through a zero group
    e, a, b, ab = (frozenset(), frozenset({1}), frozenset({2}),
                   frozenset({1, 2}))
    orders = {(f, 0): (0,) for f in (e, b, ab)}

    def diagram(to_b):
        arrows = {(e, a, 0): {}, (a, ab, 0): {},
                  (e, b, 0): to_b, (b, ab, 0): {(0, 0): 1}}
        return PosetDiagram((e, a, b, ab), orders, arrows, 0)

    with pytest.raises(ValueError, match="not functorial"):
        diagram({(0, 0): 1})
    assert diagram({}).arrow(e, ab, 0) == {}


def _edge_square(ea, a_ab, eb, b_ab, rank=2):
    # Z^rank at every face of an edge, with the four covers given
    e, a, b, ab = (frozenset(), frozenset({1}), frozenset({2}),
                   frozenset({1, 2}))
    arrows = {(e, a, 0): ea, (a, ab, 0): a_ab, (e, b, 0): eb,
              (b, ab, 0): b_ab}
    return PosetDiagram((e, a, b, ab), {(f, 0): (0,) * rank
                                        for f in (e, a, b, ab)}, arrows, 0)


def test_diagram_shared_arrows_still_checked():
    # S and T do not commute: with S stored at e < a and b < ab and T at
    # a < ab and e < b, the two paths are ST and TS, built from the same
    # two dict objects in either order
    S = {(0, 0): 1, (0, 1): 1, (1, 1): 1}
    T = {(0, 0): 1, (1, 0): 1, (1, 1): 1}
    assert sparse_product(S, T) != sparse_product(T, S)
    with pytest.raises(ValueError, match="not functorial"):
        _edge_square(S, T, T, S)
    # one object at all four covers is functorial
    D = _edge_square(S, S, S, S)
    assert D.arrow(frozenset(), frozenset({1, 2}), 0) == sparse_product(S, S)
    # one object at three covers, a different map at the fourth
    with pytest.raises(ValueError, match="not functorial"):
        _edge_square(S, S, S, T)


def test_diagram_diamond_memo_keyed_on_orders():
    # the square carries Z/2 at the empty face in degree 0 and Z in
    # degree 2, with the same four cover dicts in both degrees: the
    # composites 1 and 3 agree modulo 2 but not in Z, so the diamond in
    # degree 0 is functorial and the one in degree 2, checked after it,
    # is not; a verdict memo that forgets the orders would pass both
    e, a, b, ab = (frozenset(), frozenset({1}), frozenset({2}),
                   frozenset({1, 2}))
    one, three = {(0, 0): 1}, {(0, 0): 3}
    covers = {(e, a): one, (a, ab): one, (e, b): one, (b, ab): three}

    def diagram(bottom):
        orders = {(f, n): (0,) for f in (a, b, ab) for n in (0, 2)}
        orders.update({(e, n): (o,) for n, o in zip((0, 2), bottom)})
        arrows = {(I, J, n): M for (I, J), M in covers.items()
                  for n in (0, 2)}
        return PosetDiagram((e, a, b, ab), orders, arrows, 2)

    D = diagram((2, 2))
    assert D.arrows[e, a, 0] is D.arrows[e, a, 2]
    with pytest.raises(ValueError,
                       match=r"not functorial at \[\] <= \[1, 2\], degree 2"):
        diagram((2, 0))


def _diagonal_diagram(rng, K):
    """Z^r at every face of K, the cover I < I + v multiplying generator g
    by s[v][g]; diagonal maps commute, so the diagram is functorial.  Every
    arrow is a dict made here and referenced only by the diagram."""
    r = rng.randint(1, 3)
    s = {v: [rng.choice((-3, -2, -1, 2, 3)) for _ in range(r)]
         for v in range(1, K.m + 1)}
    faces = sorted(K.faces(), key=lambda f: (len(f), sorted(f)))
    arrows = {(J - {v}, J, 0): {(g, g): s[v][g] for g in range(r)}
              for J in faces for v in J}
    return PosetDiagram(tuple(faces), {(f, 0): (0,) * r for f in faces},
                        arrows, 0)


def test_diagram_composites_match_fresh_products():
    # diagrams come and go in the loop, so the ids of their arrow dicts
    # are reused; every composite must still be the chain of covers
    # multiplied afresh
    rng = seeded("fresh-composites")
    for _ in range(60):
        K = skeleton(5, rng.randint(2, 3))
        D = _diagonal_diagram(rng, K)
        for J in D.faces:
            for I in D.faces:
                if I < J and len(J - I) >= 2:
                    chain = sorted(J - I)
                    expect = D.arrows[J - {chain[0]}, J, 0]
                    top = J - {chain[0]}
                    for v in chain[1:]:
                        expect = sparse_product(D.arrows[top - {v}, top, 0],
                                                expect)
                        top = top - {v}
                    assert D.arrow(I, J, 0) == expect, (sorted(I), sorted(J))


def test_diagram_validate_rejects_malformed_arrows():
    e, a, b = frozenset(), frozenset({1}), frozenset({2})

    def diagram(arrow, src=(0,), tgt=(0,), key=(e, a, 0)):
        # one arrow value(a) -> value(e), source order src, target tgt
        return PosetDiagram((e, a), {(e, 0): tgt, (a, 0): src},
                            {key: arrow}, 0)

    with pytest.raises(ValueError, match="not in the poset"):
        diagram({(0, 0): 1}, key=(e, b, 0))
    with pytest.raises(ValueError, match="shape mismatch"):
        diagram({(0, 1): 1})
    with pytest.raises(ValueError, match="shape mismatch"):
        diagram({(0, 0): 0})
    with pytest.raises(ValueError, match=r"\[\] <= \[1\], degree 0 is not a"):
        diagram([[1]])
    with pytest.raises(ValueError, match="incompatible with torsion"):
        diagram({(0, 0): 1}, src=(2,), tgt=(0,))
    with pytest.raises(ValueError, match="incompatible with torsion"):
        diagram({(0, 0): 1}, src=(4,), tgt=(8,))
    # Z/4 -> Z/8 by 2 is defined, and its limit is the source
    D = diagram({(0, 0): 2}, src=(4,), tgt=(8,))
    assert limit_graded(D).group(0) == FinAbGroup.cyclic(4)


def test_limit_missing_covering_arrow():
    # a cover with a zero end needs no stored arrow: the limit of
    # value({1}) = 0 -> value(empty) = Z/2 is trivial; between two nonzero
    # values a missing covering arrow is rejected, naming the pair
    e, a = frozenset(), frozenset({1})
    D = PosetDiagram((e, a), {(e, 0): (2,)}, {}, 0)
    assert limit_graded(D).is_trivial()
    with pytest.raises(ValueError, match=r"missing arrow at \[\] <= \[1\]"):
        PosetDiagram((e, a), {(e, 0): (0,), (a, 0): (0,)}, {}, 0)


def test_limit_rejects_torsion_incompatible_arrow_as_internal():
    # validate() rejects an arrow from Z/2 to Z; one slipped in after
    # construction reaches limit_graded, which reports a bug
    e, a = frozenset(), frozenset({1})
    D = PosetDiagram((e, a), {(e, 0): (0,), (a, 0): (2,)},
                     {(e, a, 0): {}}, 0)
    D.arrows[(e, a, 0)] = {(0, 0): 1}
    with pytest.raises(AssertionError, match="relations do not map"):
        limit_graded(D)


def test_limit_torsion_matches_bruteforce():
    # cyclic values over the poset {empty, {1}, {2}, {3}}: it has no
    # diamonds, so every torsion-compatible choice of arrows is functorial,
    # and the limit is the set of families x with c_v x_v = x_empty for
    # each leaf v.  A finite abelian group with invariant factors d_i has
    # prod gcd(k, d_i) elements killed by k; k <= 24 covers every divisor
    # of the exponent, which divides lcm(2, 3, 4, 6, 8)
    rng = seeded("torsion-limit")
    e = frozenset()
    leaves = [frozenset({v}) for v in (1, 2, 3)]
    for _ in range(300):
        order = {F: rng.choice((2, 3, 4, 6, 8)) for F in [e] + leaves}
        o = order[e]
        # x -> c x from Z/order[F] to Z/o is defined iff o | order[F] c
        mult = [rng.choice([c for c in range(o) if order[F] * c % o == 0])
                for F in leaves]
        D = PosetDiagram((e, *leaves),
                         {(F, 0): (n,) for F, n in order.items()},
                         {(e, F, 0): {(0, 0): c} if c else {}
                          for F, c in zip(leaves, mult)}, 0)
        lim = limit_graded(D).group(0)
        assert lim.free_rank == 0
        element_orders = Counter()
        for x in product(*(range(order[F]) for F in leaves)):
            images = {c * xv % o for c, xv in zip(mult, x)}
            if len(images) == 1:
                element_orders[lcm(*(order[F] // gcd(xv, order[F])
                                     for F, xv in zip(leaves, x)))] += 1
        for k in range(1, 25):
            killed = sum(n for t, n in element_orders.items() if k % t == 0)
            expected = 1
            for d in lim.torsion:
                expected *= gcd(k, d)
            assert killed == expected, (order, mult, lim, k)


def _classifying_diagrams(d, count, name):
    """Classifying diagrams of ``count`` seeded compatible (K, H), m <= 6:
    random annihilators (d=2) or F2 spans (d=1), the trivial subgroup
    among them.  d=1 diagrams with more than 150 generators in their top
    degree are passed over: the reference's dense Smith residue takes
    seconds on them."""
    rng = seeded(name)
    top = 6 if d == 2 else 2
    while count:
        m = rng.randint(2, 6)
        K = random_complex(rng, m)
        if K.dim() < 0:
            continue
        if d == 2:
            rows = [[rng.randint(-2, 2) for _ in range(m)]
                    for _ in range(rng.randint(0, m))]
            H = (TorusSubgroup.from_annihilator(m, rows)
                 if any(map(any, rows)) else TorusSubgroup.trivial(2, m))
        else:
            H = TorusSubgroup.from_f2_span(
                m, [rng.randrange(1, 1 << m) for _ in range(rng.randint(0, 2))])
        if not check_condition1(K, H)[0]:
            continue
        D = build_classifying_diagram(K, H, top)
        if d == 1 and sum(len(D.gens(I, top)) for I in D.faces) > 150:
            continue
        count -= 1
        yield D


def _torsion_diagram(rng, K):
    """A functorial diagram of cyclic groups over the faces of K, in
    degrees 0 and 1.  Generator g of value(I) has order
    base_g * prod(c_v for v in I), or is free when I meets the free
    vertices, so orders divide along inclusions; the cover I < I + v is
    multiplication by s_v on each generator, so every diamond commutes.
    In degree 1 the faces below a size threshold carry the zero group."""
    vertices = range(1, K.m + 1)
    free = set(rng.sample(vertices, rng.randint(0, 1)))
    c = {v: rng.choice((1, 2, 3)) for v in vertices}
    s = {v: rng.choice((1, 1, -1, 2, 3)) for v in vertices}
    base = [rng.choice((2, 3, 4)) for _ in range(rng.randint(1, 2))]
    low = rng.randint(0, 2)
    faces = sorted(K.faces(), key=lambda f: (len(f), sorted(f)))
    orders, arrows = {}, {}
    for I in faces:
        scale = 1
        for v in I:
            scale *= c[v]
        for n in (0, 1):
            if n == 0 or len(I) >= low:
                orders[I, n] = tuple(0 if I & free else b * scale
                                     for b in base)
    for J in faces:
        for v in J:
            I = J - {v}
            for n in (0, 1):
                if (I, n) in orders:
                    arrows[I, J, n] = {(k, k): s[v] for k in range(len(base))}
    return PosetDiagram(tuple(faces), orders, arrows, 1)


def _torsion_diagrams(count, name):
    """``count`` seeded torsion diagrams over complexes with two or more
    facets, m <= 5."""
    rng = seeded(name)
    while count:
        K = random_complex(rng, rng.randint(2, 5))
        if len(K.facets) >= 2 and K.dim() >= 1:
            count -= 1
            yield _torsion_diagram(rng, K)


def test_limit_matches_reference_on_classifying_diagrams():
    # the facet presentation against the one over every face and cover,
    # as whole groups, torsion included (d=1 values are 2-torsion)
    for d in (2, 1):
        for D in _classifying_diagrams(d, 200, "limit-reference-%d" % d):
            assert limit_graded(D) == reference_limit(D), (d, D.faces)


def test_limit_matches_reference_with_torsion():
    # cyclic values of several orders over complexes with two or more
    # facets, so that covers meet in diamonds
    seen = set()
    for D in _torsion_diagrams(150, "limit-reference-torsion"):
        lim = limit_graded(D)
        assert lim == reference_limit(D), (D.faces, D.orders)
        seen.update(t for _, g in lim.groups for t in g.torsion)
    assert len(seen) >= 3


def _presentation_shapes(monkeypatch, limit, D):
    """(rows, columns) of the middle term that ``limit`` presents D by in
    each degree of D, (0, 0) where it builds nothing."""
    out = []
    shapes = []
    real = homology.ChainComplex

    def recorded(dims, *args, **kwargs):
        shapes.append((dims[0], dims[1]))
        return real(dims, *args, **kwargs)

    monkeypatch.setattr(homology, "ChainComplex", recorded)
    for n in sorted({n for (_, n) in D.orders}):
        shapes.clear()
        limit(_in_degree(D, n))
        assert len(shapes) <= 1
        out.append(shapes[0] if shapes else (0, 0))
    monkeypatch.setattr(homology, "ChainComplex", real)
    return out


def _in_degree(D, n):
    return PosetDiagram(
        D.faces, {key: o for key, o in D.orders.items() if key[1] == n},
        {key: M for key, M in D.arrows.items() if key[2] == n}, n)


def test_limit_presentation_never_exceeds_the_reference(monkeypatch):
    diagrams = [*_classifying_diagrams(2, 40, "limit-shape-2"),
                *_classifying_diagrams(1, 40, "limit-shape-1"),
                *_torsion_diagrams(40, "limit-shape-torsion")]
    smaller = 0
    for D in diagrams:
        new = _presentation_shapes(monkeypatch, limit_graded, D)
        old = _presentation_shapes(monkeypatch, reference_limit, D)
        for (rows, cols), (ref_rows, ref_cols) in zip(new, old):
            assert rows <= ref_rows and cols <= ref_cols, D.faces
        smaller += new != old
    assert smaller


def test_limit_over_one_facet_is_its_value(monkeypatch):
    # the full simplex has one facet, every face's parent: no constraint
    # rows, and the limit is the facet's value in every degree
    rng = seeded("limit-one-facet")
    top = SimplicialComplex.simplex(3)
    H = TorusSubgroup.from_annihilator(3, [[1, 2, 0], [0, 1, -1]])
    diagrams = [build_classifying_diagram(top, H, 6),
                build_classifying_diagram(
                    top, TorusSubgroup.from_f2_span(3, [0b011]), 3)]
    diagrams += [_torsion_diagram(rng, top) for _ in range(10)]
    facet = frozenset({1, 2, 3})
    for D in diagrams:
        rows = [r for r, _ in _presentation_shapes(monkeypatch,
                                                   limit_graded, D)]
        assert rows == [0] * len(rows)
        lim = limit_graded(D)
        for n in {n for (_, n) in D.orders}:
            gens = D.gens(facet, n)
            assert lim.group(n) == FinAbGroup.make(
                gens.count(0), [o for o in gens if o]), (D.orders, n)


def test_facet_parents_are_the_first_facets_containing_each_face():
    rng = seeded("facet-parents")
    for _ in range(40):
        K = random_complex(rng, rng.randint(1, 6))
        D = _torsion_diagram(rng, K)
        facets, parent = homology._facet_parents(D)
        assert facets == [F for F in D.faces
                          if not any(F < J for J in D.faces)]
        for I in D.faces:
            assert parent[I] == next(F for F in facets if I <= F), (K, I)


def test_limit_rejects_a_poset_with_a_gap():
    # {1} and {2} lie between the faces {} and {1, 2} but are not faces:
    # the facet presentation needs every such set to be one
    e, ab = frozenset(), frozenset({1, 2})
    D = PosetDiagram((e, ab), {(e, 0): (0,), (ab, 0): (0,)},
                     {(e, ab, 0): {(0, 0): 1}}, 0)
    with pytest.raises(ValueError, match=r"\[[12]\] lies between two faces"):
        limit_graded(D)


def test_homology_matches_bruteforce_ranks():
    # cross-check integral ranks against mod-p dimensions for p = 2, 3 by
    # the universal coefficient theorem,
    # dim H^d(K; F_p) = rank H_d + t_p(H_d) + t_p(H_{d-1}); the random
    # draws carry no torsion, rp2_6 carries a Z/2 in H_1
    rng = seeded("uct")
    complexes = [random_complex(rng, rng.randint(2, 5)) for _ in range(15)]
    for K in complexes + [rp2_6()]:
        if K.is_void():
            continue
        h = reduced_homology(K)
        for p in (2, 3):
            hp = reduced_cohomology(K, p=p)
            for d in set(h.support()) | set(hp.support()):
                g = h.group(d)
                dim_p = hp.group(d).free_rank
                t_here = sum(1 for t in g.torsion if t % p == 0)
                t_below = sum(1 for t in h.group(d - 1).torsion if t % p == 0)
                assert dim_p == g.free_rank + t_here + t_below


def _recorded(monkeypatch, run):
    """The ChainComplex instances that ``run()`` builds, in homology and
    in quotient."""
    made = []

    class Recorded(ChainComplex):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(homology, "ChainComplex", Recorded)
    monkeypatch.setattr(quotient, "ChainComplex", Recorded)
    run()
    monkeypatch.undo()
    return made


def _lens_rows(n, weights, width, offset=0):
    """Annihilator rows of Z/n acting on S^(2k-1) with the given weights,
    k = len(weights) + 1, on coordinates offset..offset+k-1 of Z^width:
    n e_0 and e_i - w_i e_0."""
    rows = [[n if j == offset else 0 for j in range(width)]]
    for i, w in enumerate(weights, 1):
        rows.append([(j == offset + i) - w * (j == offset)
                     for j in range(width)])
    return rows


def _lens(rng, m):
    n = rng.randint(2, 7)
    units = [w for w in range(1, n) if gcd(w, n) == 1]
    return n, [rng.choice(units) for _ in range(m - 1)]


def test_clearing_keeps_every_boundary(monkeypatch):
    # each boundary's (rank, invariants) with the unit-pivot rows of the
    # boundary above cleared, against the same boundary eliminated whole,
    # on complexes from every producer; each producer clears some column
    # and carries torsion
    rng = seeded("clearing")

    def simplicial():
        for _ in range(20):
            reduced_cohomology(random_complex(rng, rng.randint(3, 7)))
        for _ in range(3):
            reduced_cohomology(join(rp2_6(), random_complex(rng, 2)))

    def koszul():
        for m in (3, 4):
            n, w = _lens(rng, m)
            koszul_cohomology(boundary_simplex(m), TorusSubgroup
                              .from_annihilator(m, _lens_rows(n, w, m)))
        for a, b in ((2, 2), (2, 3)):
            (n1, w1), (n2, w2) = _lens(rng, a), _lens(rng, b)
            rows = (_lens_rows(n1, w1, a + b)
                    + _lens_rows(n2, w2, a + b, offset=a))
            koszul_cohomology(join(boundary_simplex(a), boundary_simplex(b)),
                              TorusSubgroup.from_annihilator(a + b, rows))

    def cubical():
        for m in range(3, 8):
            W = TorusSubgroup.from_f2_span(m, [(1 << m) - 1])
            cubical_quotient_cohomology(boundary_simplex(m), W)

    def limit():
        for D in _torsion_diagrams(30, "clearing-limit"):
            limit_graded(D)
        for D in _classifying_diagrams(1, 20, "clearing-limit-1"):
            limit_graded(D)

    for run in (simplicial, koszul, cubical, limit):
        cleared = torsion = 0
        for C in _recorded(monkeypatch, run):
            for i in range(1, len(C.dims)):
                b = C.boundaries[i]
                whole = rank_and_invariants(
                    (r, c, v) for (r, c), v in b.items())
                assert C._rank_inv(i) == whole, (run.__name__, i)
                torsion += any(x > 1 for x in whole[1])
                if i + 1 < len(C.dims):
                    rows = []
                    rank_and_invariants(
                        ((r, c, v) for (r, c), v
                         in C.boundaries[i + 1].items()), rows)
                    cleared += len({c for _, c in b} & set(rows))
        assert cleared and torsion, run.__name__
