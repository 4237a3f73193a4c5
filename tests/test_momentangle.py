from math import comb

import pytest

from maq import momentangle
from maq.constructions import rp2_6
from maq.homology import GradedAbGroup, reduced_cohomology
from maq.intlattice import FinAbGroup
from maq.momentangle import (BoundExceeded, buchstaber_real, hochster,
                             skeleton_quotient_hrk, skeleton_wedge,
                             sr_dimension)
from maq.simplicial import (SimplicialComplex, boundary_simplex, cone,
                            full_subcomplex, skeleton, vertices)

from conftest import join, random_complex, seeded


def test_hochster_spheres():
    # two points give the 3-sphere, boundary simplices give odd spheres
    h = hochster(SimplicialComplex.points(2))
    assert list(h.support()) == [0, 3]
    for m in range(2, 6):
        h = hochster(boundary_simplex(m))
        assert list(h.support()) == [0, 2 * m - 1]
        assert h.group(2 * m - 1) == FinAbGroup.free(1)


def test_hochster_matches_subcomplex_sum():
    # the sum rebuilt through re-indexed full subcomplexes, the empty one
    # included, compared as whole groups, torsion included
    rng = seeded("hochster-sum")
    cases = [random_complex(rng, rng.randint(2, 6)) for _ in range(12)]
    cases += [SimplicialComplex(5, [(1, 2), (2, 3), (3, 4)]),  # 5 is a ghost
              SimplicialComplex.empty_face_only(3), rp2_6()]
    # joins (one carrying the Z/2 of rp2_6), cones, ghosts, and complexes
    # with a dominated vertex that are not cones: a circle and rp2_6, each
    # with a whisker
    cases += [join(rp2_6(), SimplicialComplex.points(2)),
              join(boundary_simplex(3), SimplicialComplex.points(2))]
    cases += [join(random_complex(rng, rng.randint(1, 3)),
                    random_complex(rng, rng.randint(1, 3))) for _ in range(4)]
    cases += [cone(rp2_6()), cone(boundary_simplex(4)),
              cone(random_complex(rng, 4)),
              SimplicialComplex(8, rp2_6().facets),  # 7 and 8 are ghosts
              SimplicialComplex(4, [(1, 2), (2, 3), (1, 3), (3, 4)]),
              SimplicialComplex(7, rp2_6().facets + [(1, 7)])]
    for K in cases:
        assert hochster(K) == _hochster_bruteforce(K)
    # H^2(RP^2) = Z/2 on all six vertices lands in degree 2 + 6 + 1
    assert hochster(rp2_6()).group(9) == FinAbGroup.cyclic(2)


def _hochster_bruteforce(K, max_degree=None):
    """Hochster's sum with every K_I built through full_subcomplex and
    reduced_cohomology: no domination, no memo."""
    total = {}
    for I in _all_subsets(K.m):
        for d, g in reduced_cohomology(full_subcomplex(K, I)).groups:
            n = d + len(I) + 1
            if max_degree is None or n <= max_degree:
                total[n] = total.get(n, FinAbGroup.trivial()).direct_sum(g)
    return GradedAbGroup.make(total)


def _with_cone_and_ghosts(K, cone, ghosts, rng):
    """K joined with a simplex on ``cone`` new vertices, plus ``ghosts``
    vertices in no face, with all labels shuffled."""
    labels = list(range(1, K.m + cone + ghosts + 1))
    rng.shuffle(labels)
    apex = set(labels[K.m:K.m + cone])
    return SimplicialComplex(len(labels), [{labels[v - 1] for v in F} | apex
                                           for F in K.facets])


def test_hochster_splits_cone_and_ghost_vertices():
    # Z_K = Z_core x (D^2)^c x (S^1)^g, against every K_I built, as whole
    # groups with torsion at every degree cut; _hochster_bruteforce cuts
    # its degrees after summing, so its truncation at d is its value at d
    rng = seeded("hochster-split")
    cases = [_with_cone_and_ghosts(random_complex(rng, rng.randint(1, 4)),
                                   rng.randint(1, 3), rng.randint(0, 3), rng)
             for _ in range(10)]
    edge = join(rp2_6(), SimplicialComplex.simplex(2))
    cases += [SimplicialComplex(edge.m + g, edge.facets) for g in (0, 2)]
    cases += [SimplicialComplex.simplex(4),
              SimplicialComplex.empty_face_only(3),
              SimplicialComplex.void(3)]
    for K in cases:
        full = _hochster_bruteforce(K)
        for d in range(-1, 2 * K.m + 2):
            assert hochster(K, max_degree=d) == _truncated(full, d), (K, d)
    # the Z/2 of rp2_6 in degree 9 moves up with the ghosts: C(2, k)
    # copies in degree 9 + k
    for k in range(3):
        assert hochster(cases[11]).group(9 + k).torsion == (2,) * (1 + k % 2)
    # {()} with three ghosts is the 3-torus; the void complex gives zero
    assert hochster(cases[13]) == GradedAbGroup.make(
        {k: FinAbGroup.free(c) for k, c in enumerate((1, 3, 3, 1))})
    assert hochster(cases[14]) == GradedAbGroup.make({})


def test_hochster_walks_only_the_core_vertices(monkeypatch):
    # rp2_6 with two cone vertices and six ghosts has m = 14, at the
    # bound, but only the 2^6 subsets of its core are visited
    calls = []
    original = momentangle._removable_vertex

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(momentangle, "_removable_vertex", counted)
    K = _with_cone_and_ghosts(rp2_6(), 2, 6, seeded("hochster-core"))
    assert K.m == 14
    h = hochster(K)
    assert len(calls) == 64
    calls.clear()
    core = hochster(rp2_6())
    assert len(calls) == 64
    want = {}
    for p, g in core.groups:
        for k in range(7):
            want[p + k] = want.get(p + k, FinAbGroup.trivial()).direct_sum(
                FinAbGroup.make(comb(6, k) * g.free_rank,
                                comb(6, k) * g.torsion))
    assert h == GradedAbGroup.make(want)


def test_subset_walk_yields_each_full_subcomplex():
    # the walk alone, with no sum: every I with |I| <= top once, in
    # increasing order, with H-tilde(K_I) of the re-indexed full
    # subcomplex, as whole groups with torsion; ghosts sit at shuffled
    # labels, so the domination test meets them below other vertices
    rng = seeded("subset-walk")
    cases = [_with_cone_and_ghosts(random_complex(rng, rng.randint(1, 6)),
                                   0, rng.randint(0, 3), rng)
             for _ in range(24)]
    cases += [_with_cone_and_ghosts(rp2_6(), 0, 2, rng),
              SimplicialComplex.empty_face_only(3), SimplicialComplex.void(2)]
    for K in cases:
        for top in (K.m, rng.randint(-1, K.m)):
            walked = list(momentangle._subset_walk(K, top))
            assert [I for I, _ in walked] == [
                I for I in range(1 << K.m) if I.bit_count() <= top], (K, top)
            for I, groups in walked:
                assert groups == reduced_cohomology(
                    full_subcomplex(K, vertices(I))).groups, (K, I)


def test_hochster_memo_matches_bruteforce(monkeypatch):
    # K_I looked up by its relabeled facets, against every K_I built, as
    # whole groups with torsion: random complexes with ghost vertices,
    # joins with rp2_6 (Z/2), and max_degree cuts
    built = []
    original = momentangle.face_chain_complex

    def counted(masks, *args):
        built.append(masks)
        return original(masks, *args)

    monkeypatch.setattr(momentangle, "face_chain_complex", counted)
    rng = seeded("hochster-memo")
    cases = []
    for _ in range(12):
        K = random_complex(rng, rng.randint(2, 6))
        cases.append(SimplicialComplex(K.m + rng.randint(0, 2), K.facets))
    cases += [join(rp2_6(), random_complex(rng, rng.randint(1, 2)))
              for _ in range(2)]
    cases += [join(random_complex(rng, 3), random_complex(rng, 3))
              for _ in range(2)]
    undominated = builds = 0
    for K in cases:
        up, through = momentangle._vertex_tables(K)
        tops_of = []
        for I in range(1 << K.m):
            v, tops = momentangle._removable_vertex(I, tops_of, through, up)
            tops_of.append(tops)
            undominated += not v
        built.clear()
        assert hochster(K) == _hochster_bruteforce(K), K
        builds += len(built)
        for d in rng.sample(range(2 * K.m + 2), 3):
            assert hochster(K, max_degree=d) == \
                _hochster_bruteforce(K, max_degree=d), (K, d)
    # the memo was read: fewer builds than undominated subsets
    assert builds < undominated


def test_hochster_reuse_is_exercised():
    # the whiskered complexes are not cones, yet their whisker vertex is
    # dominated on the full vertex set, so K_[m] is never built
    for K, v in ((SimplicialComplex(4, [(1, 2), (2, 3), (1, 3), (3, 4)]), 4),
                 (SimplicialComplex(7, rp2_6().facets + [(1, 7)]), 7)):
        assert not any(all(w in F for F in K.facets)
                       for w in range(1, K.m + 1))
        up, through = momentangle._vertex_tables(K)
        full = (1 << K.m) - 1
        tops_of = []
        for I in range(full):
            tops_of.append(momentangle._removable_vertex(
                I, tops_of, through, up)[1])
        assert momentangle._removable_vertex(
            full, tops_of, through, up)[0] == 1 << (v - 1)
    # the Z/2 of K_[7] in degree 2 + 7 + 1 is copied from K_[6] = rp2_6
    assert hochster(SimplicialComplex(7, rp2_6().facets + [(1, 7)])) \
        .group(10) == FinAbGroup.cyclic(2)


def test_hochster_builds_only_the_undominated_full_subcomplexes(monkeypatch):
    # on the boundary of a simplex every proper K_I with |I| >= 2 is a full
    # simplex, and the m singletons are one complex up to relabeling: only
    # the empty set, one vertex and [m] are built
    built = []
    original = momentangle.face_chain_complex

    def counted(masks, *args):
        built.append(masks)
        return original(masks, *args)

    monkeypatch.setattr(momentangle, "face_chain_complex", counted)
    for m in range(3, 9):
        built.clear()
        h = hochster(boundary_simplex(m))
        assert len(built) == 3
        assert h == GradedAbGroup.make({0: FinAbGroup.free(1),
                                        2 * m - 1: FinAbGroup.free(1)})


def test_hochster_max_degree_skips_subsets_above_it(monkeypatch):
    # |I| > max_degree cannot reach max_degree: on skeleton(9, 2) with
    # max_degree 4, no K_I on five or more vertices is built
    built = []
    original = momentangle.face_chain_complex

    def counted(masks, *args):
        built.append(masks)
        return original(masks, *args)

    monkeypatch.setattr(momentangle, "face_chain_complex", counted)
    K = skeleton(9, 2)
    h = hochster(K, max_degree=4)
    assert built and max(_union(masks).bit_count() for masks in built) <= 4
    assert h == _truncated(hochster(K), 4)
    # vertex 3 is a ghost, split off as an (S^1) factor: the degree-1
    # class is its copy of the core's unit in degree 0, not an
    # H-tilde^{-1} that the walk finds
    ghost = SimplicialComplex(3, [{1, 2}])
    assert hochster(ghost, max_degree=1).group(1) == FinAbGroup.free(1)


def test_hochster_max_degree_is_a_truncation():
    rng = seeded("hochster-truncation")
    cases = [rp2_6(), SimplicialComplex(8, rp2_6().facets),
             SimplicialComplex(3, [{1, 2}]),
             SimplicialComplex.empty_face_only(2)]
    for _ in range(20):
        K = random_complex(rng, rng.randint(2, 6))
        ghosts = rng.choice((0, 0, 1, 2))
        cases.append(SimplicialComplex(K.m + ghosts, K.facets))
    for K in cases:
        full = hochster(K)
        for d in range(-1, 2 * K.m + 2):
            assert hochster(K, max_degree=d) == _truncated(full, d), (K, d)


def _union(masks):
    out = 0
    for f in masks:
        out |= f
    return out


def _truncated(G, d):
    return GradedAbGroup.make({n: g for n, g in G.groups if n <= d})


def test_domination_test_matches_bruteforce():
    # _removable_vertex finds a vertex of I exactly when I holds a vertex
    # dominated in K_I, a ghost (in no facet) included, and the one it
    # finds is such a vertex; the brute force reads the facets of the
    # re-indexed full subcomplex
    rng = seeded("domination")
    checked = dominated = 0
    for _ in range(60):
        m = rng.randint(1, 7)
        K = random_complex(rng, m)
        if rng.random() < 0.3:
            K = SimplicialComplex(m + 1, K.facets)   # vertex m + 1 a ghost
        up, through_u = momentangle._vertex_tables(K)
        tops_of = {}   # mask -> tops, filled before its supersets
        for I in _all_subsets(K.m):
            labels = sorted(I)
            sub = full_subcomplex(K, I)
            facets = [frozenset(labels[i - 1] for i in F)
                      for F in sub.facets]
            removable = {v for v in I if not K.is_face([v])}
            for v in I:
                through = [F for F in facets if v in F]
                if through and frozenset.intersection(*through) - {v}:
                    removable.add(v)
            mask = sum(1 << (v - 1) for v in I)
            got, tops = momentangle._removable_vertex(mask, tops_of,
                                                      through_u, up)
            tops_of[mask] = tops
            if removable:
                assert got.bit_length() in removable, (K, I)
            else:
                assert got == 0, (K, I)
            # the facets it hands to the memo are those of K_I, for every
            # I: (0,), the empty face, when I holds only ghosts
            assert sorted(tops) == sorted(sum(1 << (v - 1) for v in F)
                                          for F in facets), (K, I)
            checked += 1
            dominated += bool(removable)
    assert dominated and checked - dominated


def _all_subsets(m):
    import itertools
    out = []
    for r in range(m + 1):
        out.extend(frozenset(c)
                   for c in itertools.combinations(range(1, m + 1), r))
    return out


def test_hochster_bound():
    # the bound is checked before any subset is visited
    with pytest.raises(BoundExceeded,
                       match="hochster: m=15 exceeds bound 14"):
        hochster(SimplicialComplex.points(15))


def test_sr_dimension():
    K = boundary_simplex(3)
    assert [sr_dimension(K, n) for n in range(7)] == [1, 0, 3, 0, 6, 0, 9]
    # full simplex: polynomial ring on m variables
    S = SimplicialComplex.simplex(2)
    assert [sr_dimension(S, 2 * k) for k in range(4)] == [1, 2, 3, 4]
    assert [sr_dimension(K, n, d=1) for n in range(4)] == [1, 3, 6, 9]


def test_skeleton_wedge_counts():
    ps = skeleton_wedge(4, 0)
    assert ps == {0: 1, 3: 6, 4: 8, 5: 3}
    assert list(ps) == sorted(ps)
    # wedge ranks agree with the full moment-angle computation
    for m in range(3, 6):
        for k in range(m - 1):
            ps = skeleton_wedge(m, k)
            h = hochster(skeleton(m, k))
            for n in range(2 * m + 2):
                assert ps.get(n, 0) == h.group(n).free_rank
                assert h.group(n).torsion == ()


def test_skeleton_quotient_rank_bound():
    for m in range(2, 11):
        for k in range(m - 1):
            hrk, bound, ok = skeleton_quotient_hrk(m, k)
            assert ok
            assert hrk >= bound


def test_buchstaber_real():
    assert buchstaber_real(SimplicialComplex.points(3)) == 2
    assert buchstaber_real(SimplicialComplex.points(5)) == 4
    assert buchstaber_real(boundary_simplex(4)) == 1
    assert buchstaber_real(SimplicialComplex.simplex(3)) == 0
    with pytest.raises(BoundExceeded,
                       match="buchstaber-real: m=13 exceeds bound 12"):
        buchstaber_real(SimplicialComplex.points(13))


def test_buchstaber_real_positive_without_full_facet():
    rng = seeded("buch")
    for _ in range(10):
        K = random_complex(rng, rng.randint(2, 5))
        if K.is_void() or K.dim() < 0:
            continue
        r = buchstaber_real(K)
        full = frozenset(range(1, K.m + 1))
        if full in K.facets:
            assert r == 0
        else:
            assert 1 <= r <= K.m - (K.dim() + 1)
