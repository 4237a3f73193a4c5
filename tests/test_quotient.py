from itertools import combinations, product
from math import gcd

import pytest

import maq
from maq import momentangle
from maq.equivariant import (PreconditionFailed, action_report,
                             check_condition1, check_free, equivariant_limit,
                             require_condition1, require_free)
from maq.homology import ChainComplex, GradedAbGroup, sparse_product
from maq.intlattice import FinAbGroup, TorusSubgroup, join_coordinate
from maq.momentangle import BoundExceeded, buchstaber_real, hochster
from maq.quotient import (CubicalQuotient, KoszulComplex,
                          _unit_coordinates, cubical_quotient_cohomology,
                          cw_census, koszul_cohomology, trc_report)
from maq.simplicial import (SimplicialComplex, boundary_simplex, cone,
                            stellar_subdivision)

from conftest import (check_cohomology_uct, coboundary_ranks_mod_p, join,
                      mat_mul, random_complex, random_sphere,
                      random_unimodular, rank_mod_p, seeded, swap_vertices)

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
    # the element (1, -1) of the circle {(t^2, t)} fixes every point of S^3
    # with z_2 = 0, so the action is not free, though it passes the
    # projection condition.  Its quotient, a weighted projective line, is
    # 2-dimensional and torsion-free (Kawasaki 1973); the Koszul complex
    # of a non-free H computes something else, so it is refused
    H = TorusSubgroup.from_annihilator(2, [[1, -2]])
    assert check_condition1(TWO_POINTS, H)[0]
    with pytest.raises(PreconditionFailed, match="not free") as exc:
        koszul_cohomology(TWO_POINTS, H, 4)
    assert exc.value.witness == frozenset({2})


def test_subgroup_on_other_vertices_is_rejected():
    # a subgroup of G^m' with m' != m is no action on a complex on m
    # vertices, whether m' is larger (the identity annihilator on T^4 over
    # boundary_simplex(3) once gave Z, Z^3, Z^6 and a free verdict) or
    # smaller; every checked entry point refuses it
    K = boundary_simplex(3)
    checks = [check_free, check_condition1, require_free, require_condition1,
              action_report, lambda K, H: equivariant_limit(K, H, 4)]
    for d, pathways in ((2, [koszul_cohomology]),
                        (1, [CubicalQuotient, cw_census])):
        assert check_free(K, TorusSubgroup.trivial(d, 3)) == (True, None)
        for m in (4, 2):
            H = TorusSubgroup.trivial(d, m)
            for call in checks + pathways:
                with pytest.raises(ValueError,
                                   match="different vertex sets"):
                    call(K, H)


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


def test_koszul_default_degree_is_the_quotient_dimension():
    # the free quotient by H has dimension m + dim K + 1 - (torus rank of
    # H), the default max_degree: at the old default m + dim K + 1 no
    # group lies above it, and the two defaults give the same groups,
    # torsion included
    rng = seeded("koszul-default-degree")
    cases = sharp = torsion = 0
    while cases < 60:
        m = rng.randint(3, 6)
        K = random_complex(rng, m)
        rows = [[rng.randint(-2, 2) for _ in range(m)]
                for _ in range(rng.randint(1, m - 1))]
        if K.is_void() or not any(map(any, rows)):
            continue
        H = TorusSubgroup.from_annihilator(m, rows)
        if H.torus_rank() < 1 or not check_free(K, H)[0]:
            continue
        cases += 1
        top = K.m + K.dim() + 1 - H.torus_rank()
        old = koszul_cohomology(K, H, max_degree=K.m + K.dim() + 1)
        assert max(old.support()) <= top, (K, rows)
        assert koszul_cohomology(K, H) == old, (K, rows)
        sharp += max(old.support()) == top
        torsion += any(g.torsion for _, g in old.groups)
    assert sharp and torsion


def test_koszul_below_degree_zero_is_empty():
    forms = [[1, -1, 0], [0, 1, -1]]
    for max_degree in (-1, -2, -3):
        kc = KoszulComplex(boundary_simplex(3), forms, max_degree)
        assert kc.cohomology() == GradedAbGroup.make({})


def test_koszul_requires_condition1():
    seg = SimplicialComplex(2, [(1, 2)])
    diag = TorusSubgroup.from_annihilator(2, [[1, -1]])
    with pytest.raises(PreconditionFailed):
        koszul_cohomology(seg, diag, 4)
    # each pathway names the flavor it needs; a failed precondition is
    # still a ValueError to a library caller
    with pytest.raises(PreconditionFailed, match="needs a d=2 subgroup"):
        koszul_cohomology(seg, TorusSubgroup.trivial(1, 2), 4)
    with pytest.raises(PreconditionFailed, match="needs a d=1 subgroup"):
        cubical_quotient_cohomology(seg, diag)
    assert issubclass(PreconditionFailed, ValueError)
    assert maq.PreconditionFailed is PreconditionFailed
    assert momentangle.PreconditionFailed is PreconditionFailed


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


def test_bound_errors_carry_layer_size_and_cap():
    antipodal = TorusSubgroup.from_f2_span(5, [0b11111])
    cases = [
        (lambda: KoszulComplex(SimplicialComplex.points(4), [], 7,
                               cell_cap=10), ("koszul", 11, 10, 6)),
        (lambda: cubical_quotient_cohomology(boundary_simplex(5), antipodal,
                                             cell_cap=120),
         ("cubical", 121, 120, None)),
        (lambda: hochster(SimplicialComplex.points(15)),
         ("hochster", 15, 14, None)),
        (lambda: buchstaber_real(SimplicialComplex.points(13)),
         ("buchstaber-real", 13, 12, None)),
    ]
    for run, fields in cases:
        with pytest.raises(BoundExceeded) as exc:
            run()
        e = exc.value
        assert (e.layer, e.size, e.cap, e.degree) == fields
        assert str(e).startswith(e.layer + ": ")


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
    if family == "pivot":
        # unit forms that touch other coordinates too: the HNF basis of a
        # random lattice (every pivot-1 column), or e_k + c e_i beside
        # forms on the remaining coordinates
        if rng.random() < 0.5:
            gens = [[rng.choice((0, 0, 1, -1, 2, 3)) for _ in range(m)]
                    for _ in range(rng.randint(1, m))]
            rows = TorusSubgroup.from_annihilator(m, gens).ann
            if rows:
                return [list(b) for b in rows]
        k, i = coords[0], coords[1]
        row = _unit_row(m, k, sign())
        row[i] = rng.choice((-2, -1, 1, 2))
        rows = [row]
        for j in coords[2:]:
            r = rng.random()
            if r < 0.4:
                rows.append(_unit_row(m, j, sign()))
            elif r < 0.7:
                rows.append(_unit_row(m, j, 2) if rng.random() < 0.5
                            else [c + (t == j) for t, c in enumerate(row)])
        rng.shuffle(rows)
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


@pytest.mark.parametrize("family", ["trivial", "mixed", "double", "shared",
                                    "pivot", "lens", "cone"])
def test_koszul_pruning_matches_unpruned_reference(family):
    rng = seeded("koszul-pruning-" + family)
    done = wide = pinned = 0
    while done < 8:
        m = rng.randint(2, 5)
        if family == "cone":
            # a random complex coned over one or two vertices, relabeled
            # so that an apex can sit at any coordinate
            K = random_complex(rng, rng.randint(1, 3))
            for _ in range(rng.randint(1, 2)):
                K = cone(K)
            m = K.m
            K = swap_vertices(K, m, rng.randint(1, m))
        elif family == "lens" and done % 2:
            K = boundary_simplex(m)
        else:
            K = random_complex(rng, m)
        if K.is_void() or K.dim() < 0:
            continue
        done += 1
        rows = _pruning_rows(rng, rng.choice(("trivial", "pivot", "lens"))
                             if family == "cone" else family, m)
        unit = _unit_coordinates(rows)
        wide += any(sum(map(bool, rows[j])) > 1 for j in unit.values())
        max_degree = m + K.dim() + 1
        kc = KoszulComplex(K, rows, max_degree)
        # no kept cell has a_k = mu_k + [j in S] = 1 at a unit coordinate
        # k of u_j in every facet
        apexes = frozenset.intersection(*K.facets)
        cone_units = [(k, j) for k, j in unit.items() if k + 1 in apexes]
        pinned += bool(cone_units)
        for codes in kc.basis.values():
            for S, mu in map(kc.decode, codes):
                assert not any(mu[k] or j in S for k, j in cone_units)
        assert kc.cohomology() == \
            unpruned_koszul_cohomology(K, rows, max_degree)
        # the kept cells span a subcomplex: d leaves the basis only
        # through the face relations
        for n in range(max_degree + 1):
            kept = set(map(kc.decode, kc.basis[n + 1]))
            for S, mu in map(kc.decode, kc.basis[n]):
                for t, j in enumerate(S):
                    for i, c in enumerate(rows[j]):
                        mu2 = mu[:i] + (mu[i] + 1,) + mu[i + 1:]
                        if c and K.is_face(
                                [v + 1 for v, e in enumerate(mu2) if e]):
                            assert (S[:t] + S[t + 1:], mu2) in kept
    if family == "pivot":
        # some unit form touches coordinates besides its own
        assert wide
    if family == "cone":
        # some unit coordinate lies in every facet
        assert pinned


@pytest.mark.parametrize("max_degree", [2, 3, 5, 6, 13])
def test_koszul_exponent_field_at_its_edge(max_degree):
    # the largest exponent is top//2, top = max_degree + 1: it fills its
    # field at 2, 5, 6 and 13 (top//2 = 1, 3, 3, 7) and opens a new bit
    # at 3 (top//2 = 2); a non-unit coordinate first, last, or everywhere
    top = max_degree + 1
    cases = [
        (TWO_POINTS, [[3, 0], [-1, 1]]),
        (boundary_simplex(3), [[5, 0, 0], [-2, 1, 0], [-3, 0, 1]]),
        (boundary_simplex(3), [[1, 0, -1], [0, 1, -2], [0, 0, 5]]),
        (boundary_simplex(3), [[1, 1, 0], [0, 1, 1], [1, 0, -1]]),
    ]
    for K, rows in cases:
        kc = KoszulComplex(K, rows, max_degree)
        assert kc.cohomology() == \
            unpruned_koszul_cohomology(K, rows, max_degree)
        largest = 0
        for n, codes in kc.basis.items():
            assert len(set(codes)) == len(codes)
            for S, mu in map(kc.decode, codes):
                assert len(S) + 2 * sum(mu) == n
                assert K.is_face([i + 1 for i, e in enumerate(mu) if e])
                largest = max(largest, *mu)
        assert largest == top // 2


def test_unit_form_with_wider_support():
    # e_1 + e_2 serves coordinate 0 only
    assert _unit_coordinates([[1, 1]]) == {0: 0}
    assert _unit_coordinates([[1, 1, 0], [0, 0, 1]]) == {0: 0, 2: 1}
    # a second form touching k, or a coefficient 2, disqualifies k
    assert _unit_coordinates([[1, 1], [0, 1]]) == {0: 0}
    assert _unit_coordinates([[2, 1], [0, 2]]) == {}
    # on the full 2-simplex, letting e_1 + e_2 serve both of its
    # coordinates would lose the Z in degree 6
    for K, rows in ((TWO_POINTS, [[1, 1]]),
                    (boundary_simplex(3), [[1, 1, 0], [0, 0, 1]]),
                    (SimplicialComplex.simplex(3), [[1, 1, 0], [0, 0, 1]])):
        max_degree = K.m + K.dim() + 1
        assert KoszulComplex(K, rows, max_degree).cohomology() == \
            unpruned_koszul_cohomology(K, rows, max_degree)


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


def _plant_steps(monkeypatch, S, edit):
    """Make KoszulComplex._steps return edit(steps) for the forms S (a
    bitmask), so the wrong terms reach the stored differentials and the
    dd-check alike; returns the planted steps beside the real ones."""
    steps = KoszulComplex._steps

    def planted(self, forms):
        out = steps(self, forms)
        return edit(out) if forms == S else out

    monkeypatch.setattr(KoszulComplex, "_steps", planted)
    return steps, planted


def test_koszul_dd_check_fires(monkeypatch):
    # S^3 with the identity forms: d(u_1) gains a wrong term u_1 u_2.  A
    # face {i} bans u_i beside v_i, so the term lands only on the cell
    # u_1 of C^1, whose image u_1 u_2 has d nonzero: d^2 d^1 != 0, while
    # every other pair, up to d^4 d^3, stays zero
    forms = [[1, 0], [0, 1]]
    built = KoszulComplex(TWO_POINTS, forms, 4)
    steps, planted = _plant_steps(monkeypatch, 0b01,
                                  lambda out: out + [(0b10, 1)])
    with pytest.raises(AssertionError, match="dd != 0 in degree 1"):
        KoszulComplex(TWO_POINTS, forms, 4)
    assert planted(built, 0b01) != steps(built, 0b01)


def test_koszul_dd_check_fires_at_the_top_pair(monkeypatch):
    # S^5 / Z_3 with weights 1, 1, 2: one sign flipped in d(u_1 u_2 u_3)
    # breaks d^4 d^3 on the cell u_1 u_2 u_3 of C^3, the first pair the
    # check multiplies.  Its cells of C^5 lie past the truncation
    forms = [[3, 0, 0], [-1, 1, 0], [-2, 0, 1]]
    K = boundary_simplex(3)
    built = KoszulComplex(K, forms, 4)
    steps, planted = _plant_steps(
        monkeypatch, 0b111,
        lambda out: [(out[0][0], -out[0][1])] + out[1:])
    with pytest.raises(AssertionError, match="dd != 0 in degree 3"):
        KoszulComplex(K, forms, 4)
    assert planted(built, 0b111) != steps(built, 0b111)


def test_koszul_dd_check_fires_on_a_single_entry_column(monkeypatch):
    # S^5 with the identity forms: dropping the v_1 u_2 term of
    # d(u_1 u_2) leaves the cell u_1 u_2 of C^2 one entry, -v_2 u_1, and
    # d(v_2 u_1) = v_1 v_2 != 0.  The check must fail on that column
    # alone: d^3 d^2 != 0
    forms = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    K = boundary_simplex(3)
    built = KoszulComplex(K, forms, 3)
    col = built.basis[2].index(0b011)
    assert sum(c == col for _, c in built.differential(2)) == 2
    steps, planted = _plant_steps(monkeypatch, 0b011, lambda out: out[1:])
    with pytest.raises(AssertionError, match="dd != 0 in degree 2"):
        KoszulComplex(K, forms, 3)
    assert len(planted(built, 0b011)) == len(steps(built, 0b011)) - 1


def _free_koszul_cases(rng, count):
    """(K, forms, max_degree) for free d=2 subgroups on m <= 6 vertices:
    random annihilators on random complexes, lens spaces S^(2m-1)/Z_n and
    products of two, each at the quotient's dimension."""
    cases = []
    while len(cases) < count:
        shape = ("random", "lens", "lens_product")[len(cases) % 3]
        if shape == "random":
            m = rng.randint(3, 6)
            K = random_complex(rng, m)
            rows = [[rng.randint(-2, 2) for _ in range(m)]
                    for _ in range(rng.randint(1, m))]
        else:
            sizes = ([rng.randint(2, 5)] if shape == "lens"
                     else [rng.randint(2, 3), rng.randint(2, 3)])
            m = sum(sizes)
            K = boundary_simplex(sizes[0])
            if len(sizes) == 2:
                K = join(K, boundary_simplex(sizes[1]))
            rows, at = [], 0
            for size in sizes:
                rows += [[0] * at + b + [0] * (m - at - size)
                         for b in _pruning_rows(rng, "lens", size)]
                at += size
        if K.is_void() or not any(map(any, rows)):
            continue
        H = TorusSubgroup.from_annihilator(m, rows)
        if not check_free(K, H)[0]:
            continue
        cases.append((K, [list(b) for b in H.ann],
                      K.m + K.dim() + 1 - H.torus_rank()))
    return cases


def test_koszul_stored_differentials_compose_to_zero():
    # the dd-check multiplies each column as it is written; the oracle
    # multiplies every stored pair of differentials in full
    nonzero = 0
    for K, forms, max_degree in _free_koszul_cases(seeded("koszul-dd"), 24):
        kc = KoszulComplex(K, forms, max_degree)
        for n in range(max_degree):
            assert sparse_product(kc.differential(n + 1),
                                  kc.differential(n)) == {}, (K, forms, n)
            nonzero += bool(kc.differential(n + 1) and kc.differential(n))
        assert kc.differential(-1) == kc.differential(max_degree + 1) == {}
    assert nonzero


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


def test_cubical_cell_cap_counts_quotient_cells():
    # the 242 cubes of the real moment-angle complex of the boundary of the
    # 4-simplex (the sphere S^4) fall into 121 antipodal orbits: the cap
    # is checked against the cells of the quotient RP^4, not the cubes
    K = boundary_simplex(5)
    W = TorusSubgroup.from_f2_span(5, [0b11111])
    g = cubical_quotient_cohomology(K, W, cell_cap=121)
    assert g == GradedAbGroup.make({0: FinAbGroup.free(1),
                                    2: FinAbGroup.cyclic(2),
                                    4: FinAbGroup.cyclic(2)})
    assert sum(CubicalQuotient(K, W).dims) == 121
    with pytest.raises(BoundExceeded, match="cubical: cell count 121 "
                                            "exceeds cap 120"):
        cubical_quotient_cohomology(K, W, cell_cap=120)


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


def _pairwise_census(K, W):
    """cw_census by testing every pair of faces for inclusion and counting
    the chains from each face by recursion: the reference."""
    faces = K.face_masks
    longer = {I: [J for J in faces if I & ~J == 0 and I != J] for I in faces}
    memo = {}

    def chains_from(I):
        if I not in memo:
            out = {0: 1}
            for J in longer[I]:
                for s, c in chains_from(J).items():
                    out[s + 1] = out.get(s + 1, 0) + c
            memo[I] = out
        return memo[I]

    counts = {}
    for I in faces:
        mult = join_coordinate(W, I).order()
        for s, c in chains_from(I).items():
            counts[s] = counts.get(s, 0) + c * mult
    return counts, sum((-1) ** s * c for s, c in counts.items())


def test_cw_census_matches_the_pairwise_construction():
    rng = seeded("census-pairwise")
    checked = 0
    while checked < 30:
        m = rng.randint(1, 7)
        K = random_complex(rng, m)
        if K.is_void():
            continue
        vecs = [rng.randrange(1, 1 << m) for _ in range(rng.randint(0, m))]
        W = TorusSubgroup.from_f2_span(m, vecs)
        checked += 1
        assert cw_census(K, W) == _pairwise_census(K, W), (K, vecs)
    K = boundary_simplex(6)
    W = TorusSubgroup.from_f2_span(6, [0b111111])
    assert cw_census(K, W) == _pairwise_census(K, W)


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
        again = ChainComplex(C.dims, C.boundaries[1:], C.min_degree,
                             check=True)
        assert again.cohomology() == C.cohomology()


def reference_cubical(K, H):
    """(dims, boundaries) of the cubical quotient built by brute force:
    the whole group is listed, each orbit is written out, its least element
    is the representative and the group element reaching it is looked up
    in the orbit.  Cells come face by face, representatives increasing."""
    group = [0]
    for b in H.span:
        group += [g ^ b for g in group]

    def orbit(C, eps):   # {element of the orbit: the h that reaches it}
        return {eps ^ (h & ~C): h for h in group}

    cells = {}
    for C in K.face_masks:
        outside = [i for i in range(K.m) if not (C >> i) & 1]
        signs = [sum(1 << i for t, i in enumerate(outside) if (s >> t) & 1)
                 for s in range(1 << len(outside))]
        reps = sorted({min(orbit(C, eps)) for eps in signs})
        cells.setdefault(bin(C).count("1"), []).extend((C, r) for r in reps)
    top = max(cells)
    index = {d: {c: i for i, c in enumerate(cells.get(d, []))}
             for d in range(top + 1)}
    boundaries = []
    for d in range(1, top + 1):
        b = {}
        for col, (C, eps) in enumerate(cells.get(d, [])):
            verts = [i for i in range(K.m) if (C >> i) & 1]
            for t, i in enumerate(verts):
                C2 = C & ~(1 << i)
                for point, psign in ((0, 1), (1 << i, -1)):
                    o = orbit(C2, eps | point)
                    rep = min(o)
                    osign = -1 if bin(o[rep] & C2).count("1") % 2 else 1
                    key = (index[d - 1][(C2, rep)], col)
                    b[key] = b.get(key, 0) + (-1) ** t * psign * osign
        boundaries.append({k: v for k, v in b.items() if v})
    return [len(cells.get(d, [])) for d in range(top + 1)], boundaries


def test_cubical_matches_reference_builder():
    # the echelon-based orbit representatives and transporters give the
    # same cells in the same order and the same boundary entries as the
    # brute-force orbit minima
    rng = seeded("cubical-reference")
    checked = 0
    while checked < 200:
        m = rng.randint(2, 7)
        K = random_complex(rng, m)
        if K.is_void() or K.dim() < 0:
            continue
        vecs = [rng.randrange(1, 1 << m) for _ in range(rng.randint(0, m))]
        W = TorusSubgroup.from_f2_span(m, vecs)
        if not check_free(K, W)[0]:
            continue
        checked += 1
        cq = CubicalQuotient(K, W)
        dims, boundaries = reference_cubical(K, W)
        assert cq.dims == dims
        assert cq.complex.boundaries[1:] == boundaries


def test_cubical_antipodal_sphere_is_projective_space():
    # the real moment-angle complex of the boundary of the (m-1)-simplex is
    # the sphere S^(m-1), and the diagonal Z/2 acts antipodally: RP^(m-1)
    for m in range(3, 8):
        n = m - 1
        W = TorusSubgroup.from_f2_span(m, [(1 << m) - 1])
        want = {0: FinAbGroup.free(1)}
        want.update({k: FinAbGroup.cyclic(2) for k in range(2, n + 1, 2)})
        if n % 2:
            want[n] = FinAbGroup.free(1)
        g = cubical_quotient_cohomology(boundary_simplex(m), W)
        assert g == GradedAbGroup.make(want)


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


def _koszul_uct(K, H, p):
    # the universal coefficient theorem on the Koszul complex's own
    # differentials, in every degree whose next group lies below the
    # truncation
    kc = KoszulComplex(K, [list(b) for b in H.ann], K.m + K.dim() + 1)
    top = kc.max_degree
    ranks = {n: rank_mod_p(((r, c, v) for (r, c), v
                            in kc.differential(n).items()), p)
             for n in range(top)}
    dims = {n: len(kc.basis[n]) for n in range(top)}
    groups = kc.cohomology()
    check_cohomology_uct(dims, ranks, groups, p, range(top))
    return groups


def test_koszul_real_projective_three_space_mod_2():
    # RP^3 = S^3 / the diagonal Z/2: Z, 0, Z/2, Z, so F_2 sees the Z/2 in
    # degrees 1 and 2
    H = TorusSubgroup.from_annihilator(2, [[1, 1], [0, 2]])
    g = _koszul_uct(TWO_POINTS, H, 2)
    assert g.group(2) == FinAbGroup.cyclic(2)


def test_koszul_lens_space_mod_its_order():
    # S^15 / Z_7 with weights 1..6, 1: Z/7 in the even degrees 2..14,
    # which F_7 sees in every degree 1..14
    w = [1, 2, 3, 4, 5, 6, 1]
    rows = [[7] + [0] * 7] + [[-x if j == 0 else int(j == i + 1)
                               for j in range(8)] for i, x in enumerate(w)]
    H = TorusSubgroup.from_annihilator(8, rows)
    g = _koszul_uct(boundary_simplex(8), H, 7)
    assert [n for n, gr in g.groups if gr.torsion == (7,)] == list(
        range(2, 15, 2))


def test_cubical_projective_space_mod_2():
    # the antipodal RP^(m-1) of the cubical model, on the cellular
    # complex the model builds, in every degree
    for m in range(3, 8):
        W = TorusSubgroup.from_f2_span(m, [(1 << m) - 1])
        C = CubicalQuotient(boundary_simplex(m), W).complex
        dims = {C.min_degree + i: d for i, d in enumerate(C.dims)}
        groups = C.cohomology()
        check_cohomology_uct(dims, coboundary_ranks_mod_p(C, 2), groups, 2,
                             dims)
        assert groups.group(2) == FinAbGroup.cyclic(2)


def test_koszul_answers_satisfy_poincare_duality():
    # K an (n-1)-sphere on m vertices makes Z_K a closed (m + n)-manifold,
    # and a free H in the connected torus gives an orientable closed
    # quotient of dimension N = m + n - torus rank; Poincare duality with
    # universal coefficients then asks rank H^k = rank H^(N-k) and tors
    # H^k = tors H^(N+1-k), an oracle that shares nothing with the Koszul
    # model it checks
    rng = seeded("duality-koszul")
    cases = torsion = 0
    while cases < 90:
        K = random_sphere(rng)
        m, n = K.m, K.dim() + 1
        rows = [[rng.randint(-2, 2) for _ in range(m)]
                for _ in range(m - rng.randint(0, min(2, m - n)))]
        H = TorusSubgroup.from_annihilator(m, rows)
        if not check_free(K, H)[0]:
            continue
        cases += 1
        N = m + n - H.torus_rank()
        G = koszul_cohomology(K, H)
        torsion += any(g.torsion for _, g in G.groups)
        for k in range(N + 2):
            assert G.group(k).free_rank == G.group(N - k).free_rank, (K, H, k)
            assert G.group(k).torsion == G.group(N + 1 - k).torsion, (K, H, k)
    assert torsion >= 20


def test_cubical_answers_satisfy_poincare_duality_mod_2():
    # K an (n-1)-sphere makes the real moment-angle complex a closed
    # n-manifold, and a free d=1 H a closed quotient, perhaps not
    # orientable, so only F2 duality holds: dim H^k(-; F2) = dim
    # H^(n-k)(-; F2), each read from the integral groups by universal
    # coefficients, rank H^k + t_2(H^k) + t_2(H^(k+1))
    def dim_f2(G, k):
        return G.group(k).free_rank + sum(
            1 for t in G.group(k).torsion + G.group(k + 1).torsion
            if t % 2 == 0)

    rng = seeded("duality-cubical")
    cases = non_orientable = 0
    while cases < 160:
        K = random_sphere(rng)
        m, n = K.m, K.dim() + 1
        H = TorusSubgroup.from_f2_span(
            m, [rng.randrange(1, 1 << m) for _ in range(rng.randint(1, 2))])
        if not check_free(K, H)[0]:
            continue
        cases += 1
        G = cubical_quotient_cohomology(K, H)
        non_orientable += G.group(n).free_rank == 0
        for k in range(n + 1):
            assert dim_f2(G, k) == dim_f2(G, n - k), (K, H, k)
    assert non_orientable >= 20


@pytest.mark.parametrize("build, error, message", [
    (lambda: ChainComplex([1, 1], []), ValueError,
     "boundary count inconsistent with dims"),
    (lambda: TorusSubgroup(3, 2, ()), ValueError, "d must be 1 or 2"),
    (lambda: momentangle.sr_dimension(boundary_simplex(3), -1), ValueError,
     "degree must be nonnegative"),
    (lambda: KoszulComplex(boundary_simplex(3), [[1, 0]], 2), ValueError,
     "linear form length != m"),
    (lambda: cw_census(boundary_simplex(3), TorusSubgroup.trivial(2, 3)),
     PreconditionFailed, "census requires finite orbits (d=1)"),
    (lambda: SimplicialComplex(2, [(1, 3)]), ValueError,
     "facet vertex out of range 1..2"),
    (lambda: stellar_subdivision(TWO_POINTS, {1, 2}), ValueError,
     "sigma must be a nonempty face of K"),
], ids=["boundary-count", "subgroup-d", "sr-degree", "form-length",
        "census-d", "facet-vertex", "subdivide-non-face"])
def test_input_rejections(build, error, message):
    # each bad input is refused with its own exception type and message
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message
