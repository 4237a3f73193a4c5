from fractions import Fraction
from itertools import combinations

import pytest

from maq.exact import f2_rref, hnf_solve, row_hnf
from maq.formats import parse_subgroup
from maq.intlattice import (FinAbGroup, TorusSubgroup, join_coordinate,
                            meet_coordinate)
from maq.simplicial import _mask, vertices

from conftest import (mat_mul, random_complex, random_unimodular,
                      rational_rref, seeded)


def test_finabgroup_normalization():
    g = FinAbGroup.make(2, (2, 4, 3))
    assert g.free_rank == 2
    assert g.torsion == (2, 12)
    assert g.order() is None
    assert FinAbGroup.cyclic(6).order() == 6
    assert FinAbGroup.trivial().is_trivial()
    assert str(FinAbGroup.make(0, (2,))) == "Z/2"


def test_finabgroup_from_presentation():
    # Z^2 / <(2,0),(0,3)> = Z/2 + Z/3 = Z/6 as a cyclic chain
    g = FinAbGroup.from_presentation(2, [[2, 0], [0, 3]])
    assert g == FinAbGroup.make(0, (6,))
    g = FinAbGroup.from_presentation(3, [[1, 1, 1]])
    assert g == FinAbGroup.free(2)


def test_lattice_basics():
    H = TorusSubgroup.from_annihilator(3, [[2, 4, 0], [1, 1, 0]])
    assert len(H.ann) == 2
    assert hnf_solve(H.ann, [3, 5, 0]) is not None
    assert hnf_solve(H.ann, [0, 0, 1]) is None


def test_lattice_cokernel_and_project():
    L = row_hnf([[2, 0], [0, 3]])
    assert FinAbGroup.from_presentation(2, L) == FinAbGroup.make(0, (6,))
    # characters of the face {1, 2} (mask 0b11) are the projection of
    # ann H to the first two coordinates
    H = TorusSubgroup.from_annihilator(3, [[1, 2, 5]])
    assert H.characters(0b11) == ((1, 2),)


def test_hnf_canonical_under_unimodular_change():
    # equal lattices have equal representations: U . gens spans the same
    # lattice as gens for every unimodular U
    rng = seeded("satdual")
    for _ in range(100):
        m = rng.randint(1, 4)
        n = rng.randint(0, m)
        gens = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)]
        L = row_hnf(gens)
        U = random_unimodular(rng, n)
        assert row_hnf(mat_mul(U, gens)) == L
        assert all(hnf_solve(L, g) is not None for g in gens)


def test_torus_subgroup_ranks():
    H = TorusSubgroup.from_annihilator(3, [[1, 1, 1]])
    assert H.torus_rank() == 2
    assert TorusSubgroup.trivial(2, 4).torus_rank() == 0
    assert TorusSubgroup.full(2, 4).torus_rank() == 4
    assert TorusSubgroup.coordinate(2, 4, frozenset({1, 3})).torus_rank() == 2


def test_torus_subgroup_rejects_vertices_outside_range():
    # a vertex outside 1..m is an error for both d, not a span bit past
    # F2^m, a silently trivial subgroup or a negative shift
    for d in (1, 2):
        for I0 in ({5}, {0}, {1, 4}):
            with pytest.raises(ValueError, match=r"out of range 1\.\.3"):
                TorusSubgroup.coordinate(d, 3, I0)
        assert TorusSubgroup.coordinate(d, 3, {1, 3}).torus_rank() == \
            (2 if d == 2 else 0)
    # d=1 spans: a mask bit past vertex m, a negative mask, and rows of
    # the wrong length
    for gens in ([0b11000], [0b111, 0b1000], [-1], [[1, 0]], [[1, 0, 1, 1]]):
        with pytest.raises(ValueError, match=r"vertices 1\.\.3"):
            TorusSubgroup.from_f2_span(3, gens)
    assert TorusSubgroup.from_f2_span(3, [0b111, [1, 1, 0]]).span == (4, 3)
    # d=2 annihilator rows of the wrong length
    for row in ([1, 0], [1, 0, 1, 1]):
        with pytest.raises(ValueError, match="length"):
            TorusSubgroup.from_annihilator(3, [row])


def test_face_masks_outside_the_vertices_are_rejected():
    # a face mask with a bit at or above m, or a negative mask, is an
    # error for characters, meet_coordinate and join_coordinate, d = 1, 2;
    # the rejected mask is not memoized, so asking again fails again
    for H in (TorusSubgroup.from_annihilator(3, [[1, 1, 1]]),
              TorusSubgroup.from_f2_span(3, [0b111])):
        for I in (1 << 3, 0b1011, -1):
            for query in (H.characters, lambda I: meet_coordinate(H, I),
                          lambda I: join_coordinate(H, I), H.characters):
                with pytest.raises(ValueError, match=r"out of range 1\.\.3"):
                    query(I)
        # the masks inside 1..3 are answered: H meets G^{1} trivially but
        # not G^{1,2,3}
        assert H.is_full(0b1) and not H.is_full(0b111)


def test_meet_join_coordinate_d2():
    # diagonal circle in T^2
    H = TorusSubgroup.from_annihilator(2, [[1, -1]])
    full = meet_coordinate(H, 0b11)
    assert full.intersection == FinAbGroup.free(1)
    one = meet_coordinate(H, 0b1)
    assert one.intersection.is_trivial()
    # H together with the first coordinate circle generates all of T^2
    assert join_coordinate(H, 0b1).is_trivial()
    assert H.characters(0b1) == ((1,),)


def test_meet_coordinate_torsion():
    # H = {(t, t^2)}: meets the first coordinate circle in Z/2
    H = TorusSubgroup.from_annihilator(2, [[2, -1]])
    r = meet_coordinate(H, 0b1)
    assert r.intersection == FinAbGroup.make(0, (2,))
    # t -> t^2 is onto, so H . G^I is all of T^2
    assert join_coordinate(H, 0b1).is_trivial()
    assert join_coordinate(H, 0b11).is_trivial()


def test_meet_join_d1():
    # Z/2 diagonal inside (Z/2)^2
    W = TorusSubgroup.from_f2_span(2, [0b11])
    assert meet_coordinate(W, 0b1).intersection.is_trivial()
    assert meet_coordinate(W, 0b11).intersection == \
        FinAbGroup.make(0, (2,))
    assert W.characters(0b1) == (0b1,)
    assert join_coordinate(W, 0b1).is_trivial()


def test_d1_meet_and_characters_bruteforce():
    # the d=1 meet, S(I) and Q(I) all read the projection of the
    # annihilator; check each against enumeration of H and of its
    # annihilator
    rng = seeded("d1-projection")
    for _ in range(60):
        m = rng.randint(1, 6)
        W = TorusSubgroup.from_f2_span(
            m, [rng.randrange(1 << m) for _ in range(rng.randint(0, m))])
        elements = {0}
        for g in W.span:
            elements |= {h ^ g for h in elements}
        perp = [x for x in range(1 << m)
                if all(bin(x & h).count("1") % 2 == 0 for h in W.span)]
        for r in range(m + 1):
            for I in combinations(range(1, m + 1), r):
                mask = _mask(I)
                inside = sum(1 for h in elements if h & ~mask == 0)
                k = inside.bit_length() - 1
                meet = meet_coordinate(W, mask)
                assert meet.intersection == FinAbGroup.make(0, (2,) * k)
                assert meet.quotient == FinAbGroup.make(0, (2,) * (r - k))
                projected = [sum(((x >> (v - 1)) & 1) << t
                                 for t, v in enumerate(I)) for x in perp]
                assert W.characters(mask) == tuple(f2_rref(projected))
                join = {h ^ s for h in elements for s in range(1 << m)
                        if s & ~mask == 0}
                assert join_coordinate(W, mask).order() == \
                    (1 << m) // len(join)


def _kernel_q(rows, m):
    """Basis of {x in Q^m : r . x = 0 for every row r}."""
    red = rational_rref(rows)
    pivots = [next(j for j, x in enumerate(r) if x) for r in red]
    basis = []
    for free in (j for j in range(m) if j not in pivots):
        x = [Fraction(0)] * m
        x[free] = Fraction(1)
        for r, p in zip(red, pivots):
            x[p] = -r[free] / r[p]
        basis.append(x)
    return basis


def test_d2_join_coordinate_bruteforce():
    # Q(I) = T^m/(H . T^I) is a torus of dimension m minus that of
    # Lie(H) + R^I, and Lie(H) is the rational kernel of ann H
    rng = seeded("d2-join")
    for _ in range(200):
        m = rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(m)]
                for _ in range(rng.randint(0, m))]
        H = TorusSubgroup.from_annihilator(m, rows)
        lie = _kernel_q(rows, m)
        for r in range(m + 1):
            for I in combinations(range(1, m + 1), r):
                units = [[int(j + 1 == v) for j in range(m)] for v in I]
                dim = m - len(rational_rref(lie + units))
                assert join_coordinate(H, _mask(I)) == FinAbGroup.free(dim)


def test_subgroup_json():
    H = TorusSubgroup.from_annihilator(3, [[1, 1, 1]])
    j = H.to_json()
    assert j["d"] == 2 and j["m"] == 3


def test_subgroup_json_d1_reads_back():
    # the span rows of a d=1 subgroup's JSON, written as a subgroup file,
    # read back to the same subgroup
    H = TorusSubgroup.from_f2_span(4, [[1, 1, 0, 0], [0, 1, 1, 1]])
    j = H.to_json()
    assert (j["d"], j["m"]) == (1, 4)
    text = "d=1\nsubspace:\n" + "".join(
        " ".join(map(str, row)) + "\n" for row in j["span"])
    assert parse_subgroup(text, 4) == H


def test_annihilator_basis_invariance():
    rng = seeded("ann-inv")
    for _ in range(50):
        m = rng.randint(1, 4)
        n = rng.randint(1, m)
        rows = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)]
        U = random_unimodular(rng, n)
        H1 = TorusSubgroup.from_annihilator(m, rows)
        H2 = TorusSubgroup.from_annihilator(m, mat_mul(U, rows))
        assert H1 == H2
        assert row_hnf(rows) == [list(r) for r in H1.ann]


def test_characters_memo_matches_fresh_subgroup():
    # characters(I) is computed once per face and subgroup: repeated calls
    # return the same tuple, equal to what a fresh subgroup computes, at
    # every face of random subgroups for d = 2 and d = 1
    rng = seeded("characters-memo")
    for d in (2, 1):
        for _ in range(30):
            m = rng.randint(1, 5)
            if d == 2:
                H = TorusSubgroup.from_annihilator(
                    m, [[rng.randint(-3, 3) for _ in range(m)]
                        for _ in range(rng.randint(1, m))])
            else:
                H = TorusSubgroup.from_f2_span(
                    m, [rng.randrange(1 << m)
                        for _ in range(rng.randint(0, m))])
            faces = range(1 << m)
            first = {I: H.characters(I) for I in faces}
            for I in faces:
                fresh = TorusSubgroup(d, m, H.ann)
                assert H.characters(I) is first[I]
                assert first[I] == fresh.characters(I), (H, vertices(I))


def test_subgroup_round_trip():
    # the one field ann determines the subgroup: for d = 2 it is the
    # annihilator a subgroup is built from, for d = 1 the span read back
    # from it is the canonical echelon basis of the parent's span; and
    # characters(I) is a tuple for both d
    rng = seeded("round-trip")
    for _ in range(100):
        m = rng.randint(1, 6)
        faces = range(1 << m)
        H = TorusSubgroup.from_annihilator(
            m, [[rng.randint(-3, 3) for _ in range(m)]
                for _ in range(rng.randint(0, m))])
        assert TorusSubgroup.from_annihilator(m, H.ann) == H
        assert all(type(H.characters(I)) is tuple for I in faces)
        gens = [rng.randrange(1 << m) for _ in range(rng.randint(0, m))]
        W = TorusSubgroup.from_f2_span(m, gens)
        assert W.span == tuple(f2_rref(gens))
        assert TorusSubgroup.from_f2_span(m, W.span) == W
        assert all(type(W.characters(I)) is tuple for I in faces)


def test_characters_match_the_projection_of_every_row():
    # characters(I) projects only the rows of ann H whose support meets I;
    # it must equal the canonical basis of the projection of every row,
    # at every face of random complexes, for random d = 2 subgroups with
    # sparse annihilator rows and random d = 1 subgroups
    rng = seeded("characters-support")
    for d in (2, 1):
        for _ in range(40):
            m = rng.randint(1, 7)
            if d == 2:
                H = TorusSubgroup.from_annihilator(
                    m, [[rng.choice([0, 0, 0, 1, -1, 2, -3])
                         for _ in range(m)]
                        for _ in range(rng.randint(0, m))])
            else:
                H = TorusSubgroup.from_f2_span(
                    m, [rng.randrange(1 << m)
                        for _ in range(rng.randint(0, m))])
            for I in random_complex(rng, m).face_masks:
                Is = vertices(I)
                if d == 2:
                    want = row_hnf([[b[v - 1] for v in Is] for b in H.ann])
                    want = tuple(map(tuple, want))
                else:
                    want = tuple(f2_rref(
                        sum(((w >> (v - 1)) & 1) << t
                            for t, v in enumerate(Is)) for w in H.ann))
                assert H.characters(I) == want, (H, Is)
