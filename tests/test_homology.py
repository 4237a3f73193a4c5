import re
from itertools import combinations, product
from math import comb, gcd

import pytest

from maq import homology, quotient
from maq.constructions import rp2_6
from maq.equivariant import build_classifying_diagram, check_condition1
from maq.exact import rank_and_invariants
from maq.homology import (ChainComplex, GradedAbGroup, PosetDiagram,
                          face_chain_complex, limit_graded,
                          reduced_cohomology, reduced_homology,
                          sparse_product)
from maq.intlattice import FinAbGroup, TorusSubgroup
from maq.quotient import cubical_quotient_cohomology, koszul_cohomology
from maq.simplicial import (SimplicialComplex, _mask, boundary_simplex, cone,
                            face_order, skeleton, vertex_bits, vertices)

from conftest import (check_cohomology_uct, coboundary_ranks_mod_p, join,
                      mat_mul, random_complex, rank_mod_p, reference_limit,
                      seeded)


def test_graded_group_algebra():
    g = GradedAbGroup.make({0: FinAbGroup.free(1), 3: FinAbGroup.cyclic(2)})
    assert g.group(0) == FinAbGroup.free(1)
    assert g.group(1).is_trivial()
    assert list(g.support()) == [0, 3]
    assert g.total_rank() == 1


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
        C = face_chain_complex(K.face_masks)
        again = ChainComplex(C.dims, C.boundaries[1:], C.min_degree,
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
    # the circle boundary_simplex(3) has dim H^1(K; F_2) = 1 and nothing
    # else, by row reduction mod 2 of its coboundaries; the integral
    # cohomology gives the same dimensions by the universal coefficient
    # theorem, dim H^d(K; F_p) = rank H^d + t_p(H^d) + t_p(H^{d+1})
    K = boundary_simplex(3)
    C = face_chain_complex(K.face_masks)
    dims = {C.min_degree + i: dim for i, dim in enumerate(C.dims)}
    h = reduced_cohomology(K)
    dims_2 = check_cohomology_uct(dims, coboundary_ranks_mod_p(C, 2), h, 2,
                                  dims)
    assert {d: n for d, n in dims_2.items() if n} == {1: 1}
    assert h.group(1) == FinAbGroup.free(1)


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
    faces = [0, 0b1, 0b10, 0b11]   # {}, {1}, {2}, {1, 2}
    ranks = {f: 1 for f in faces}
    arrows = {(I, J): {(0, 0): 1} for I in faces for J in faces
              if I & ~J == 0 and (J ^ I).bit_count() == 1}
    D = PosetDiagram(tuple(faces), ranks, arrows)
    lim = limit_graded(D, 1)
    assert lim.group(1) == FinAbGroup.free(1)


def test_limit_two_points():
    # values Z at each of two vertices, Z^2 at the edge is absent:
    # poset of two incomparable faces gives the product
    faces = [0b1, 0b10]   # {1}, {2}
    ranks = {f: 1 for f in faces}
    D = PosetDiagram(tuple(faces), ranks, {})
    lim = limit_graded(D, 1)
    assert lim.group(1) == FinAbGroup.free(2)


def test_limit_equalizer_with_torsion():
    # F2^2 -> F2 at {1} by the first coordinate and F2 -> F2 at {2} by
    # zero: the compatible pairs (x, y) have x_1 = 0, so the limit is
    # (Z/2)^2; the same shapes over Z with the arrow at {1} multiplying by
    # 2 give Z^2, pairs with 2 x_1 = 0
    e, a, b = 0, 0b1, 0b10   # {}, {1}, {2}
    ranks = {a: 2, b: 1, e: 1}
    for mod, x, want in ((2, 1, FinAbGroup.make(0, (2, 2))),
                         (None, 2, FinAbGroup.free(2))):
        arrows = {(e, a): {(0, 0): x}, (e, b): {}}
        D = PosetDiagram((e, a, b), ranks, arrows, mod)
        assert limit_graded(D, 1).group(1) == want


def test_limit_invariant_under_relabeling():
    # relabeling the poset vertices must not change the limit
    faces = [0, 0b1, 0b10, 0b11]   # {}, {1}, {2}, {1, 2}
    ranks = {0: 1, 0b1: 2, 0b10: 1, 0b11: 1}
    arrows = {
        (0, 0b1): {(0, 0): 1, (0, 1): 1},
        (0, 0b10): {(0, 0): 1},
        (0b1, 0b11): {(0, 0): 1},
        (0b10, 0b11): {(0, 0): 1},
    }
    D = PosetDiagram(tuple(faces), ranks, arrows)
    base = limit_graded(D, 3)
    perm = {1: 2, 2: 1}
    relabel = lambda f: _mask(perm[v] for v in vertices(f))
    D2 = PosetDiagram(tuple(relabel(f) for f in faces),
                      {relabel(f): r for f, r in ranks.items()},
                      {(relabel(I), relabel(J)): M
                       for (I, J), M in arrows.items()})
    assert limit_graded(D2, 3) == base


def test_diagram_functoriality_rejected():
    faces = [0, 0b1, 0b10, 0b11]   # {}, {1}, {2}, {1, 2}
    ranks = {f: 1 for f in faces}
    arrows = {(I, J): {(0, 0): 1} for I in faces for J in faces
              if I & ~J == 0 and (J ^ I).bit_count() == 1}
    # break one square: composite through {1} gives 1, through {2} gives 2
    arrows[(0b10, 0b11)] = {(0, 0): 2}
    with pytest.raises(ValueError):
        PosetDiagram(tuple(faces), ranks, arrows)


def _square(arrows, mod=None):
    # the face poset of an edge, Z (F2 for mod=2) at every face
    e, a, b, ab = 0, 0b1, 0b10, 0b11   # {}, {1}, {2}, {1, 2}
    covers = {(e, a): 1, (e, b): 1, (a, ab): 1, (b, ab): 1}
    covers.update(arrows)
    return PosetDiagram((e, a, b, ab), {f: 1 for f in (e, a, b, ab)},
                        {key: {(0, 0): v} for key, v in covers.items()},
                        mod)


def test_diagram_functoriality_checked_in_every_degree():
    # validate() checks the one degree of a diagram, and its docstring
    # proves that Sym^k of a diagram that passes is a diagram; here every
    # diamond of diagrams that pass commutes under Sym^k for k <= 3,
    # modulo the ring, with the powers that limit_graded reads, and a
    # square broken in that one degree is rejected
    b, ab = 0b10, 0b11   # {2}, {1, 2}
    with pytest.raises(ValueError, match=re.escape(
            "diagram not functorial at [] <= [1, 2]")):
        _square({(b, ab): 2})
    rng = seeded("sym-diamonds")
    diagrams = [*_classifying_diagrams(2, 15, "sym-diamonds-2"),
                *_classifying_diagrams(1, 15, "sym-diamonds-1"),
                *(_polynomial_diagram(rng, random_complex(rng, 4))
                  for _ in range(15))]
    checked = 0
    for D in diagrams:
        powers = {}

        def sym(I, J):
            if (I, J) not in powers:
                powers[I, J] = homology._sym_powers(
                    D.arrow(I, J), D.ranks.get(I, 0), D.ranks.get(J, 0), 3,
                    D.mod)
            return powers[I, J]

        for J in D.faces:
            for x, y in combinations(vertex_bits(J), 2):
                I = J ^ x ^ y
                if I not in D.faces:
                    continue
                for k in range(4):
                    left = sparse_product(sym(I, J ^ x)[k], sym(J ^ x, J)[k])
                    right = sparse_product(sym(I, J ^ y)[k],
                                           sym(J ^ y, J)[k])
                    assert homology._congruent(left, right, D.mod)
                    checked += bool(left)
    assert checked


def test_diagram_functoriality_modulo_torsion():
    # the composites 1 and 3 agree over F2, not over Z: the square is a
    # diagram with mod=2, with the limit of its top value, and not one
    # with mod=None
    b, ab = 0b10, 0b11   # {2}, {1, 2}
    D = _square({(b, ab): 3}, mod=2)
    assert limit_graded(D, 1).group(1) == FinAbGroup.cyclic(2)
    with pytest.raises(ValueError, match="not functorial"):
        _square({(b, ab): 3})


def test_diagram_stored_long_arrow_checked():
    # only covers are stored: an arrow across the diamond is rejected on
    # construction, naming the pair, even when it equals the cover
    # composite that arrow() gives in its place; so is an arrow between
    # faces that are not nested
    e, a, b, ab = 0, 0b1, 0b10, 0b11   # {}, {1}, {2}, {1, 2}
    assert _square({}).arrow(e, ab) == {(0, 0): 1}
    for I, J in ((e, ab), (a, b), (ab, a)):
        with pytest.raises(ValueError, match=re.escape(
                "from %s to %s is not a cover"
                % (vertices(I), vertices(J)))):
            _square({(I, J): 1})


def test_diagram_arrow_requires_a_subset():
    D = _square({})
    with pytest.raises(ValueError, match=r"\[1\] to \[2\]"):
        D.arrow(0b1, 0b10)
    with pytest.raises(ValueError, match=r"\[1, 2\] to \[1\]"):
        D.arrow(0b11, 0b1)
    assert D.arrow(0b1, 0b1) == {(0, 0): 1}


def test_diagram_composes_through_a_zero_value():
    # value(I) = Z except at {1}, where it is 0: the square (empty,
    # {1, 2}) has one composite through a zero group
    e, a, b, ab = 0, 0b1, 0b10, 0b11   # {}, {1}, {2}, {1, 2}
    ranks = {f: 1 for f in (e, b, ab)}

    def diagram(to_b):
        arrows = {(e, a): {}, (a, ab): {},
                  (e, b): to_b, (b, ab): {(0, 0): 1}}
        return PosetDiagram((e, a, b, ab), ranks, arrows)

    with pytest.raises(ValueError, match="not functorial"):
        diagram({(0, 0): 1})
    assert diagram({}).arrow(e, ab) == {}


def _edge_square(ea, a_ab, eb, b_ab, rank=2):
    # Z^rank at every face of an edge, with the four covers given
    e, a, b, ab = 0, 0b1, 0b10, 0b11   # {}, {1}, {2}, {1, 2}
    arrows = {(e, a): ea, (a, ab): a_ab, (e, b): eb, (b, ab): b_ab}
    return PosetDiagram((e, a, b, ab), {f: rank for f in (e, a, b, ab)},
                        arrows)


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
    assert D.arrow(0, 0b11) == sparse_product(S, S)
    # one object at three covers, a different map at the fourth
    with pytest.raises(ValueError, match="not functorial"):
        _edge_square(S, S, S, T)
    # two diamonds of the edges {1, 2} and {1, 3} share three cover
    # objects and differ in the fourth: the first commutes and the
    # second, decided after it, does not; a verdict memo keyed on part
    # of the four covers would pass both
    one, two = {(0, 0): 1}, {(0, 0): 2}
    faces = [_mask(f) for f in ((), (1,), (2,), (3,), (1, 2), (1, 3))]
    e, a, b, c, ab, ac = faces
    arrows = {(e, a): one, (e, b): one, (e, c): one,
              (b, ab): one, (c, ac): one, (a, ab): {(0, 0): 1},
              (a, ac): two}
    with pytest.raises(ValueError, match=re.escape("at [] <= [1, 3]")):
        PosetDiagram(tuple(faces), {f: 1 for f in faces}, arrows)


def test_diagram_shape_scan_keyed_on_both_profiles():
    # one matrix object at {} < {1} and at {} < {2}: it fits the rank 2
    # value at {1} and not the rank 1 value at {2}, so its shape is
    # scanned again at the second cover; a scan memo keyed on the matrix
    # alone would pass it
    e, a, b = 0, 0b1, 0b10   # {}, {1}, {2}
    ranks = {e: 1, a: 2, b: 1}
    G = {(0, 1): 1}
    PosetDiagram((e, a, b), ranks, {(e, a): G, (e, b): {(0, 0): 1}})
    with pytest.raises(ValueError, match=re.escape(
            "shape mismatch at [] <= [2]")):
        PosetDiagram((e, a, b), ranks, {(e, a): G, (e, b): G})


def _diagonal_diagram(rng, K):
    """Z^r at every face of K, the cover I < I + v multiplying generator g
    by s[v][g]; diagonal maps commute, so the diagram is functorial.  Every
    arrow is a dict made here and referenced only by the diagram."""
    r = rng.randint(1, 3)
    s = {v: [rng.choice((-3, -2, -1, 2, 3)) for _ in range(r)]
         for v in range(1, K.m + 1)}
    faces = sorted(K.face_masks, key=face_order)
    arrows = {(J ^ b, J): {(g, g): s[b.bit_length()][g] for g in range(r)}
              for J in faces for b in vertex_bits(J)}
    return PosetDiagram(tuple(faces), {f: r for f in faces}, arrows)


def test_diagram_composites_match_fresh_products():
    # diagrams come and go in the loop, so the ids of their arrow dicts
    # are reused; no cache keyed by identity may hand a composite the
    # product of another diagram's arrows: arrow() must give the chain of
    # covers multiplied afresh
    rng = seeded("fresh-composites")
    for _ in range(60):
        K = skeleton(5, rng.randint(2, 3))
        D = _diagonal_diagram(rng, K)
        for J in D.faces:
            for I in D.faces:
                if I & ~J == 0 and (J ^ I).bit_count() >= 2:
                    chain = vertex_bits(J ^ I)
                    expect = D.arrows[J ^ chain[0], J]
                    top = J ^ chain[0]
                    for b in chain[1:]:
                        expect = sparse_product(D.arrows[top ^ b, top],
                                                expect)
                        top = top ^ b
                    assert D.arrow(I, J) == expect, (vertices(I),
                                                     vertices(J))


def test_diagram_validate_rejects_malformed_arrows():
    e, a, b = 0, 0b1, 0b10   # {}, {1}, {2}

    def diagram(arrow, key=(e, a), mod=None):
        # one arrow value(a) -> value(e), both of rank 1
        return PosetDiagram((e, a), {e: 1, a: 1}, {key: arrow}, mod)

    with pytest.raises(ValueError, match="not in the poset"):
        diagram({(0, 0): 1}, key=(e, b))
    with pytest.raises(ValueError, match="shape mismatch"):
        diagram({(0, 1): 1})
    with pytest.raises(ValueError, match="shape mismatch"):
        diagram({(0, 0): 0})
    with pytest.raises(ValueError, match=r"\[\] <= \[1\] is not a"):
        diagram([[1]])
    # an entry that vanishes in F2 is a stored zero; the ring is Z or F2
    with pytest.raises(ValueError, match="shape mismatch"):
        diagram({(0, 0): 2}, mod=2)
    with pytest.raises(ValueError, match="mod is None"):
        diagram({(0, 0): 1}, mod=3)
    # one dict stored at two covers is scanned at each: it fits the rank
    # 1 value at {1}, not the zero value at {2}
    M = {(0, 0): 1}
    with pytest.raises(ValueError, match="shape mismatch"):
        PosetDiagram((e, a, b), {e: 1, a: 1}, {(e, a): M, (e, b): M})
    # F2 -> F2 by 3 is the identity, and its limit is the source
    D = diagram({(0, 0): 3}, mod=2)
    assert limit_graded(D, 1).group(1) == FinAbGroup.cyclic(2)


def test_diagram_shape_scan_bounds_every_index():
    # an entry of a rank 1 -> rank 1 arrow lies in row 0 and column 0: a
    # row past the end and a negative row or column are shape mismatches
    e, a = 0, 0b1   # {}, {1}
    for entry in ((1, 0), (-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="shape mismatch"):
            PosetDiagram((e, a), {e: 1, a: 1}, {(e, a): {entry: 1}})


def test_limit_missing_covering_arrow():
    # a cover with a zero end needs no stored arrow: the limit of
    # value({1}) = 0 -> value(empty) = Z/2 is trivial; between two nonzero
    # values a missing covering arrow is rejected, naming the pair
    e, a = 0, 0b1   # {}, {1}
    D = PosetDiagram((e, a), {e: 1}, {}, 2)
    assert limit_graded(D, 1).group(1).is_trivial()
    with pytest.raises(ValueError, match=r"missing arrow at \[\] <= \[1\]"):
        PosetDiagram((e, a), {e: 1, a: 1}, {})


def _f2_apply(M, x):
    """The image of the bitmask x under the F2 matrix {(row, col): 1}."""
    y = 0
    for r, c in M:
        y ^= (x >> c & 1) << r
    return y


def test_limit_torsion_matches_bruteforce():
    # F2-modules over the poset {empty, {1}, {2}, {3}}: it has no diamonds,
    # so every choice of 0/1 arrows is functorial, and the limit is the
    # set of families x with M_v x_v = x_empty for each leaf v, counted by
    # enumeration; an F2 limit (Z/2)^k has 2^k elements
    rng = seeded("torsion-limit")
    e = 0
    leaves = [1 << (v - 1) for v in (1, 2, 3)]
    for _ in range(300):
        rank = {F: rng.randint(1, 3) for F in [e] + leaves}
        arrows = {(e, F): {(r, c): 1 for r in range(rank[e])
                           for c in range(rank[F]) if rng.randint(0, 1)}
                  for F in leaves}
        D = PosetDiagram((e, *leaves), rank, arrows, 2)
        lim = limit_graded(D, 1).group(1)
        assert lim.free_rank == 0 and set(lim.torsion) <= {2}
        families = 0
        for x in product(*(range(1 << rank[F]) for F in leaves)):
            families += len({_f2_apply(arrows[e, F], xv)
                             for F, xv in zip(leaves, x)}) == 1
        assert families == 2 ** len(lim.torsion), (rank, arrows, lim)


def _classifying_diagrams(d, count, name):
    """Classifying diagrams of ``count`` seeded compatible (K, H), m <= 6:
    random annihilators (d=2) or F2 spans (d=1), the trivial subgroup
    among them.  d=1 diagrams with more than 150 generators over all
    faces in Sym^3 are passed over: the reference's dense Smith residue
    takes seconds on them."""
    rng = seeded(name)
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
        D = build_classifying_diagram(K, H)
        if d == 1 and sum(comb(r + 2, 3) for r in D.ranks.values()) > 150:
            continue
        count -= 1
        yield D


def _torsion_diagram(rng, K):
    """A random diagonal diagram over the faces of K, over Z or over F2,
    one drawn at random.  Every value has the same rank r <= 2, except
    that the faces below a size threshold carry the zero module, and the
    cover I < I + v multiplies generator g by s_v[g], zero allowed, so
    every diamond commutes."""
    mod = rng.choice((None, 2))
    r = rng.randint(1, 2)
    s = {v: [rng.choice((0, 1, 1, -1, 2, 3)) for _ in range(r)]
         for v in range(1, K.m + 1)}
    low = rng.randint(0, 2)
    faces = sorted(K.face_masks, key=face_order)
    ranks = {I: r if I.bit_count() >= low else 0 for I in faces}
    arrows = {}
    for J in faces:
        for b in vertex_bits(J):
            I = J ^ b
            arrows[I, J] = {(k, k): x for k, x in enumerate(s[b.bit_length()])
                            if ranks[I] and (x % mod if mod else x)}
    return PosetDiagram(tuple(faces), ranks, arrows, mod)


def _polynomial_diagram(rng, K):
    """A random diagram over the faces of K, over Z or over F2, whose
    arrows are not diagonal: Z^r at every face, r <= 2, and the cover
    I < I + v multiplies by c_v + e_v B for one random r x r matrix B;
    polynomials in B commute, so every diamond does."""
    mod = rng.choice((None, 2))
    r = rng.randint(1, 2)
    B = {(i, j): rng.randint(-1, 1) for i in range(r) for j in range(r)}
    faces = sorted(K.face_masks, key=face_order)
    arrows = {}
    for v in range(1, K.m + 1):
        c, e = rng.choice((0, 1, -1, 2)), rng.choice((1, 1, -1, 2))
        M = {(i, j): e * x + c * (i == j) for (i, j), x in B.items()}
        M = {key: x for key, x in M.items() if (x % mod if mod else x)}
        b = 1 << (v - 1)
        for J in faces:
            if J & b:
                arrows[J ^ b, J] = M
    return PosetDiagram(tuple(faces), {I: r for I in faces}, arrows, mod)


def _torsion_diagrams(count, name):
    """``count`` seeded diagonal diagrams over complexes with two or more
    facets, m <= 5."""
    rng = seeded(name)
    while count:
        K = random_complex(rng, rng.randint(2, 5))
        if len(K.facets) >= 2 and K.dim() >= 1:
            count -= 1
            yield _torsion_diagram(rng, K)


def test_limit_matches_reference_on_classifying_diagrams():
    # the facet presentation of Sym^k, k <= 3, against the one over
    # every face and cover with its own symmetric powers, as whole
    # groups, torsion included (d=1 values are 2-torsion)
    for d in (2, 1):
        for D in _classifying_diagrams(d, 200, "limit-reference-%d" % d):
            assert limit_graded(D, 3) == reference_limit(D, 3), (d, D.faces)


def test_limit_matches_reference_with_torsion():
    # diagonal and polynomial diagrams over Z and over F2 on complexes
    # with two or more facets, so that covers meet in diamonds; both
    # rings give nonzero limits
    rng = seeded("limit-reference-polynomial")
    polynomial = []
    while len(polynomial) < 100:
        K = random_complex(rng, rng.randint(2, 5))
        if len(K.facets) >= 2 and K.dim() >= 1:
            polynomial.append(_polynomial_diagram(rng, K))
    seen = set()
    for D in [*_torsion_diagrams(150, "limit-reference-torsion"),
              *polynomial]:
        lim = limit_graded(D, 3)
        assert lim == reference_limit(D, 3), (D.faces, D.ranks, D.mod)
        if not lim.is_trivial():
            seen.add(D.mod)
    assert seen == {None, 2}


def _presentation_shapes(monkeypatch, limit, D, top_k):
    """(rows, columns) of the matrix that ``limit`` presents Sym^k(D) by,
    for k = 0..top_k: for limit_graded the constraint map psi at its rank
    call, whose rows are the pairs f2_echelon gets (the highest row and
    column seen for rank_and_invariants), and for reference_limit the
    middle term of its ChainComplex."""
    shapes = []
    if limit is limit_graded:
        rank, echelon = homology.rank_and_invariants, homology.f2_echelon

        def ranked(entries):
            entries = list(entries)
            shapes.append((1 + max((r for r, _, _ in entries), default=-1),
                           1 + max((c for _, c, _ in entries), default=-1)))
            return rank(entries)

        def reduced(pairs):
            pairs = list(pairs)
            shapes.append((len(pairs), max((v.bit_length() for v, _ in pairs),
                                           default=0)))
            return echelon(pairs)

        monkeypatch.setattr(homology, "rank_and_invariants", ranked)
        monkeypatch.setattr(homology, "f2_echelon", reduced)
    else:
        real = homology.ChainComplex

        def recorded(dims, *args, **kwargs):
            shapes.append((dims[0], dims[1]))
            return real(dims, *args, **kwargs)

        monkeypatch.setattr(homology, "ChainComplex", recorded)
    limit(D, top_k)
    monkeypatch.undo()
    assert len(shapes) == top_k + 1
    return shapes


def test_limit_presentation_never_exceeds_the_reference(monkeypatch):
    diagrams = [*_classifying_diagrams(2, 40, "limit-shape-2"),
                *_classifying_diagrams(1, 40, "limit-shape-1"),
                *_torsion_diagrams(40, "limit-shape-torsion")]
    smaller = 0
    for D in diagrams:
        new = _presentation_shapes(monkeypatch, limit_graded, D, 3)
        old = _presentation_shapes(monkeypatch, reference_limit, D, 3)
        for (rows, cols), (ref_rows, ref_cols) in zip(new, old):
            assert rows <= ref_rows and cols <= ref_cols, D.faces
        smaller += new != old
    assert smaller


def test_limit_over_one_facet_is_its_value(monkeypatch):
    # the full simplex has one facet, above every face: no constraint
    # rows, and the limit is the facet's value in every degree
    rng = seeded("limit-one-facet")
    top = SimplicialComplex.simplex(3)
    H = TorusSubgroup.from_annihilator(3, [[1, 2, 0], [0, 1, -1]])
    diagrams = [build_classifying_diagram(top, H),
                build_classifying_diagram(
                    top, TorusSubgroup.from_f2_span(3, [0b011]))]
    diagrams += [_torsion_diagram(rng, top) for _ in range(10)]
    facet = 0b111
    for D in diagrams:
        rows = [r for r, _ in _presentation_shapes(monkeypatch,
                                                   limit_graded, D, 3)]
        assert rows == [0] * len(rows)
        lim = limit_graded(D, 3)
        for k in range(4):
            rank = comb(D.ranks[facet] + k - 1, k) if k else 1
            assert lim.group(k) == (FinAbGroup.make(0, (2,) * rank) if D.mod
                                    else FinAbGroup.free(rank)), (D.ranks, k)


def _link_components(facets, I):
    """The facets above I, grouped by brute force: two are joined when
    they share a face strictly above I."""
    groups = []
    for F in (F for F in facets if I & ~F == 0):
        touching = [g for g in groups
                    if any((F & G).bit_count() > I.bit_count() for G in g)]
        groups = [g for g in groups if g not in touching]
        groups.append([F] + [G for g in touching for G in g])
    return groups


def test_link_blocks_follow_the_components_of_each_link():
    rng = seeded("link-blocks")
    split = 0
    for _ in range(60):
        K = random_complex(rng, rng.randint(1, 7))
        D = _torsion_diagram(rng, K)
        facets, blocks = homology._link_blocks(D)
        assert facets == [F for F in D.faces
                          if not any(F & ~J == 0 and F != J
                                     for J in D.faces)]
        for I in D.faces:
            groups = _link_components(facets, I)
            mine = [(P, Q) for J, P, Q in blocks if J == I]
            assert len(mine) == max(len(groups) - 1, 0), (K, I)
            if mine:
                split += 1
                component = {F: t for t, g in enumerate(groups) for F in g}
                Q = next(F for F in facets if I & ~F == 0)
                assert {q for _, q in mine} == {Q}
                assert sorted(component[P] for P, _ in mine) == \
                    sorted(set(component.values()) - {component[Q]})
    assert split


def test_link_blocks_of_a_sphere_sit_at_its_ridges():
    # the link of a face of the boundary of a simplex is the boundary of
    # a simplex, connected unless it is two points
    for m in range(2, 8):
        D = build_classifying_diagram(boundary_simplex(m),
                                      TorusSubgroup.trivial(2, m))
        facets, blocks = homology._link_blocks(D)
        assert len(facets) == m
        assert sorted(vertices(I) for I, _, _ in blocks) == sorted(
            vertices(I) for I in D.faces if I.bit_count() == m - 2)


def test_limit_reads_composites_modulo_2():
    # over F2 on the bowtie, the block at {3} reads arrow({3}, {1, 2, 3})
    # through {2, 3}, of rank 2: [1 1] times [1 1]^T, the entry 2, which
    # is zero in F2; the arrows into {3, 4, 5} are zero, so psi is zero
    # and the limit is the whole product (Z/2)^2 of the facet values
    K = SimplicialComplex(5, [{1, 2, 3}, {3, 4, 5}])
    faces = K.face_masks
    ranks = {I: 2 if I == 0b110 else 1 for I in faces}
    row, col = {(0, 0): 1, (0, 1): 1}, {(0, 0): 1, (1, 0): 1}
    special = {((3,), (2, 3)): row, ((2,), (2, 3)): row,
               ((2, 3), (1, 2, 3)): col, ((1, 3), (1, 2, 3)): {},
               ((1, 2), (1, 2, 3)): {}, ((3, 4), (3, 4, 5)): {},
               ((3, 5), (3, 4, 5)): {}, ((4, 5), (3, 4, 5)): {}}
    special = {(_mask(I), _mask(J)): M for (I, J), M in special.items()}
    arrows = {(J ^ b, J): special.get((J ^ b, J), {(0, 0): 1})
              for J in faces for b in vertex_bits(J)}
    D = PosetDiagram(tuple(faces), ranks, arrows, 2)
    assert D.arrow(0b100, 0b111) == {(0, 0): 2}
    assert limit_graded(D, 1).group(1) == FinAbGroup.make(0, (2, 2))
    assert limit_graded(D, 3) == reference_limit(D, 3)


def test_limit_over_a_bowtie_matches_the_reference(monkeypatch):
    # two triangles sharing the vertex 3: the link of {3} is two edges,
    # the one face whose link is disconnected, so one block carries every
    # constraint; dropping it changes some limit
    K = SimplicialComplex(5, [{1, 2, 3}, {3, 4, 5}])
    rng = seeded("limit-bowtie")
    diagrams = [_torsion_diagram(rng, K) for _ in range(30)]
    assert [I for I, _, _ in homology._link_blocks(diagrams[0])[1]] == \
        [0b100]
    seen = set()
    for D in diagrams:
        lim = limit_graded(D, 3)
        assert lim == reference_limit(D, 3), (D.ranks, D.mod)
        seen.update(t for _, g in lim.groups for t in g.torsion)
    assert seen
    real = homology._link_blocks
    monkeypatch.setattr(homology, "_link_blocks",
                        lambda D: (real(D)[0], []))
    assert any(limit_graded(D, 3) != reference_limit(D, 3)
               for D in diagrams)


def test_limit_rejects_a_poset_with_a_gap():
    # {1} and {2} lie between the faces {} and {1, 2} but are not faces:
    # the facet presentation needs every such set to be one, so the
    # diagram is rejected on construction, with or without arrows
    e, ab = 0, 0b11   # {}, {1, 2}
    for arrows in ({(e, ab): {(0, 0): 1}}, {}):
        with pytest.raises(ValueError,
                           match=r"\[[12]\] lies between two faces"):
            PosetDiagram((e, ab), {e: 1, ab: 1}, arrows)


def test_homology_matches_bruteforce_ranks():
    # cross-check the integral groups against F_p dimensions for p = 2, 3,
    # computed by plain row reduction mod p of the same boundaries, by the
    # universal coefficient theorem,
    # dim H_d(K; F_p) = rank H_d + t_p(H_d) + t_p(H_{d-1}); the random
    # draws carry no torsion, and rp2_6 carries a Z/2 in H_1, which F_2
    # sees in degrees 1 and 2
    rng = seeded("uct")
    complexes = [random_complex(rng, rng.randint(2, 5)) for _ in range(15)]
    for K in complexes + [boundary_simplex(3), rp2_6()]:
        if K.is_void():
            continue
        h = reduced_homology(K)
        C = face_chain_complex(K.face_masks)
        for p in (2, 3):
            ranks = [0] + [rank_mod_p(((r, c, v) for (r, c), v in b.items()),
                                      p) for b in C.boundaries[1:]] + [0]
            dims_p = {C.min_degree + i: dim - ranks[i] - ranks[i + 1]
                      for i, dim in enumerate(C.dims)}
            for d, dim_p in dims_p.items():
                g = h.group(d)
                t_here = sum(1 for t in g.torsion if t % p == 0)
                t_below = sum(1 for t in h.group(d - 1).torsion if t % p == 0)
                assert dim_p == g.free_rank + t_here + t_below, (K, p, d)


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

    for run in (simplicial, koszul, cubical):
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
