"""Lattice invariants tested against independent counting oracles."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from polylat.errors import (
    GeometryError,
    InternalConsistencyError,
    NotFullDimensionalError,
    NotLatticeError,
    NotPointedError,
)
from polylat.exactmath import Matrix, Vector, det, primitive
from polylat.geomcore import (
    _int_rank,
    cross,
    cube,
    double_description,
    facets_from_points,
    hasse_diagram,
    incidence,
    vertices_from_facets,
)
from polylat.latticecore import (
    caratheodory_witness_scan,
    ehrhart_counts,
    h_star,
    hilbert_basis,
    in_cone,
    interior_rows,
    lattice_codegree,
    lattice_degree,
    lattice_points,
    lattice_test,
    lattice_volume,
    parallelepiped_points,
    placing_triangulation,
    reflexive,
    smooth,
)
from oracles import boxscan_parallelepiped, n_interior_from_hstar

M_ROWS = [
    (0, 1, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0),
    (0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 1),
    (1, 0, 2, 1, 1, 2),
    (1, 2, 0, 2, 1, 1),
    (1, 1, 2, 0, 2, 1),
    (1, 1, 1, 2, 0, 2),
    (1, 2, 1, 1, 2, 0),
]


def hull_of(rows):
    m = Matrix(rows)
    facets, hull = facets_from_points(m)
    verts = vertices_from_facets(facets, hull)
    return verts, facets, hull


def random_pointed_cone(rng, dim):
    """Random pointed cone generators with coordinates in [-3, 3]."""
    while True:
        gens = []
        for _ in range(rng.randint(dim, dim + 2)):
            v = tuple(rng.randint(-3, 3) for _ in range(dim))
            if any(v):
                gens.append(v)
        if not gens:
            continue
        gens = sorted({primitive(g) for g in gens})
        facets, equations = double_description(gens, dim)
        if _int_rank(list(facets) + list(equations), dim) == dim:
            return gens, facets, equations


class TestLatticeTest:
    def test_cube(self):
        p = cube(3)
        assert p.request("LATTICE") is True

    def test_half_integral_triangle(self):
        verts, _, _ = hull_of([(1, Fraction(1, 2), 0), (1, 1, 1), (1, 0, 1)])
        assert lattice_test(verts, True) is False

    def test_cross5(self):
        assert cross(5).request("LATTICE") is True

    def test_unbounded_is_not_lattice(self):
        assert lattice_test(Matrix([[0, 1], [1, 0]]), False) is False


class TestLatticePoints:
    def test_cube3_has_27(self):
        verts, facets, hull = hull_of(
            [(1,) + s for s in itertools.product((-1, 1), repeat=3)])
        pts = lattice_points(verts, facets, hull)
        assert pts.n_rows == 27

    def test_cube3_interior_is_origin(self):
        verts, facets, hull = hull_of(
            [(1,) + s for s in itertools.product((-1, 1), repeat=3)])
        pts = lattice_points(verts, facets, hull)
        inside = interior_rows(pts, facets)
        assert [tuple(int(x) for x in r) for r in inside.rows] == [(1, 0, 0, 0)]

    def test_unit_triangle(self):
        verts, facets, hull = hull_of([(1, 0, 0), (1, 1, 0), (1, 0, 1)])
        pts = lattice_points(verts, facets, hull)
        assert pts.n_rows == 3
        assert interior_rows(pts, facets).n_rows == 0

    def test_equations_respected_for_lower_dim(self):
        verts, facets, hull = hull_of([(1, 0, 0), (1, 2, 2)])
        pts = lattice_points(verts, facets, hull)
        assert [tuple(int(x) for x in r) for r in pts.rows] == [
            (1, 0, 0), (1, 1, 1), (1, 2, 2)]

    def test_points_sorted_and_distinct(self):
        verts, facets, hull = hull_of(
            [(1,) + s for s in itertools.product((-2, 2), repeat=2)])
        pts = lattice_points(verts, facets, hull)
        rows = [tuple(r) for r in pts.rows]
        assert rows == sorted(set(rows))

    def test_unbounded_rejected(self):
        with pytest.raises(GeometryError):
            lattice_points(Matrix([[0, 1]]), Matrix([[0, 1]]),
                           Matrix([], n_cols=2))


class TestEhrhart:
    def test_cube3_closed_form(self):
        verts, facets, _ = hull_of(
            [(1,) + s for s in itertools.product((-1, 1), repeat=3)])
        counts = ehrhart_counts(verts, facets, 3)
        assert counts == (1, 27, 125, 343)
        assert counts == tuple((2 * k + 1) ** 3 for k in range(4))

    def test_segment(self):
        verts, facets, _ = hull_of([(1, -1), (1, 1)])
        assert ehrhart_counts(verts, facets, 4) == tuple(
            2 * k + 1 for k in range(5))

    def test_unit_simplex_stars_and_bars(self):
        verts, facets, _ = hull_of([(1, 0, 0), (1, 1, 0), (1, 0, 1)])
        counts = ehrhart_counts(verts, facets, 5)
        assert counts == tuple(math.comb(k + 2, 2) for k in range(6))

    def test_non_lattice_rejected(self):
        verts, facets, _ = hull_of([(1, Fraction(1, 2), 0), (1, 1, 1),
                                    (1, 0, 1)])
        with pytest.raises(NotLatticeError):
            ehrhart_counts(verts, facets, 2)

    def test_lower_dimensional_rejected(self):
        verts, facets, _ = hull_of([(1, 0, 0), (1, 2, 2)])
        with pytest.raises(NotFullDimensionalError):
            ehrhart_counts(verts, facets, 1)

    def test_counts_monotone(self):
        rng = random.Random(5)
        for _ in range(5):
            pts = {(1,) + tuple(rng.randint(-2, 2) for _ in range(2))
                   for _ in range(4)}
            verts, facets, hull = hull_of(sorted(pts))
            if hull.n_rows:
                continue
            counts = ehrhart_counts(verts, facets, 4)
            assert all(a <= b for a, b in zip(counts, counts[1:]))


class TestHStar:
    def test_cube3(self):
        assert h_star((1, 27, 125, 343), 3) == Vector([1, 23, 23, 1])

    def test_segment_0_2(self):
        # E(0)=1, E(1)=3; binomial transform by hand gives (1, 1)
        assert h_star((1, 3), 1) == Vector([1, 1])

    def test_unit_simplex_telescopes(self):
        for d in range(1, 5):
            counts = tuple(math.comb(k + d, d) for k in range(d + 1))
            assert h_star(counts, d) == Vector([1] + [0] * d)

    def test_wrong_length_rejected(self):
        with pytest.raises(GeometryError):
            h_star((1, 2, 3), 3)

    def test_negative_coefficient_flagged(self):
        with pytest.raises(InternalConsistencyError):
            h_star((1, 1, 9), 2)  # impossible counts

    def test_derived_invariants_cube(self):
        hs = h_star((1, 27, 125, 343), 3)
        assert lattice_volume(hs) == 48
        assert lattice_degree(hs) == 3
        assert lattice_codegree(hs, 3) == 1
        assert n_interior_from_hstar(hs) == 1

    def test_unit_simplex_dim3_invariants(self):
        hs = h_star(tuple(math.comb(k + 3, 3) for k in range(4)), 3)
        assert lattice_volume(hs) == 1
        assert lattice_degree(hs) == 0
        assert lattice_codegree(hs, 3) == 4

    def test_segment_pm1_invariants(self):
        hs = h_star((1, 3), 1)
        assert lattice_volume(hs) == 2
        assert n_interior_from_hstar(hs) == 1  # the origin

    def test_hstar_sum_is_normalized_volume_on_random_simplices(self):
        rng = random.Random(88)
        done = 0
        while done < 10:
            d = rng.randint(1, 3)
            pts = [(1,) + tuple(rng.randint(-3, 3) for _ in range(d))
                   for _ in range(d + 1)]
            m = Matrix(pts)
            edge = Matrix([[a - b for a, b in zip(p[1:], pts[0][1:])]
                           for p in pts[1:]])
            vol = abs(det(edge))  # d! * Euclidean volume of a simplex
            if vol == 0:
                continue
            facets, hull = facets_from_points(m)
            verts = vertices_from_facets(facets, hull)
            counts = ehrhart_counts(verts, facets, d)
            assert lattice_volume(h_star(counts, d)) == vol
            done += 1

    def test_reciprocity_random_lattice_polytopes(self):
        rng = random.Random(1234)
        done = 0
        while done < 8:
            d = rng.randint(1, 3)
            pts = sorted({(1,) + tuple(rng.randint(-3, 3) for _ in range(d))
                          for _ in range(rng.randint(d + 1, 6))})
            facets, hull = facets_from_points(Matrix(pts))
            if hull.n_rows:
                continue
            verts = vertices_from_facets(facets, hull)
            counts = ehrhart_counts(verts, facets, d)
            for k in (1, 2):
                lk = _interpolate(counts, -k)
                vk = Matrix([(r[0],) + tuple(k * x for x in r[1:])
                             for r in verts.rows])
                fk = Matrix([(k * r[0],) + tuple(r[1:])
                             for r in facets.rows])
                strict = lattice_points(vk, fk, None, interior=True)
                assert (-1) ** d * lk == strict.n_rows
            done += 1


def _interpolate(values, at):
    """Lagrange evaluation of the degree-(len-1) interpolant at a point."""
    n = len(values)
    total = Fraction(0)
    for i, v in enumerate(values):
        term = Fraction(v)
        for j in range(n):
            if j != i:
                term *= Fraction(at - j, i - j)
        total += term
    return total


class TestReflexive:
    def test_cube3(self):
        verts, facets, hull = hull_of(
            [(1,) + s for s in itertools.product((-1, 1), repeat=3)])
        assert reflexive(facets, hull) is True

    def test_cross3_polar_of_cube(self):
        p = cross(3)
        facets, hull = facets_from_points(p.get("VERTICES"))
        assert reflexive(facets, hull) is True

    def test_doubled_cube_not_reflexive(self):
        verts, facets, hull = hull_of(
            [(1,) + tuple(2 * x for x in s)
             for s in itertools.product((-1, 1), repeat=3)])
        assert reflexive(facets, hull) is False

    def test_lower_dim_never_reflexive(self):
        _, facets, hull = hull_of([(1, 0, 0), (1, 2, 2)])
        assert reflexive(facets, hull) is False

    def test_shifted_simplex_origin_not_interior(self):
        _, facets, hull = hull_of([(1, 1, 1), (1, 2, 1), (1, 1, 2)])
        assert reflexive(facets, hull) is False

    def test_reflexive_implies_one_interior_point(self):
        for obj in (cube(2), cube(3), cross(3)):
            if obj.request("REFLEXIVE"):
                assert obj.request("N_INTERIOR_LATTICE_POINTS") == 1


class TestSmooth:
    def _smooth_of(self, rows):
        verts, facets, hull = hull_of(rows)
        h = hasse_diagram(incidence(verts, facets))
        return smooth(h, verts, verts.n_cols - 1, verts.n_cols - 1)

    def test_cube3(self):
        assert self._smooth_of(
            [(1,) + s for s in itertools.product((-1, 1), repeat=3)]) is True

    def test_cross3_not_simple(self):
        # octahedron vertices meet 4 edges in dimension 3
        assert self._smooth_of(
            [(1, 1, 0, 0), (1, -1, 0, 0), (1, 0, 1, 0), (1, 0, -1, 0),
             (1, 0, 0, 1), (1, 0, 0, -1)]) is False

    def test_unit_simplices(self):
        for d in (1, 2, 3, 4):
            rows = [(1,) + (0,) * d]
            for i in range(d):
                e = [0] * d
                e[i] = 1
                rows.append((1,) + tuple(e))
            assert self._smooth_of(rows) is True

    def test_simple_but_not_unimodular(self):
        # triangle conv{0, 2e1, e2}: vertex cone at origin has det 2
        assert self._smooth_of([(1, 0, 0), (1, 2, 0), (1, 0, 1)]) is False

    def test_non_full_dim_rejected(self):
        verts, facets, hull = hull_of([(1, 0, 0), (1, 1, 1)])
        h = hasse_diagram(incidence(verts, facets))
        with pytest.raises(NotFullDimensionalError):
            smooth(h, verts, 1, 2)


class TestParallelepiped:
    def test_unimodular_cone_only_origin(self):
        pts = parallelepiped_points([(1, 0), (0, 1)])
        assert sorted(pts) == [(0, 0)]

    def test_matches_boxscan_oracle(self):
        cases = [
            [(1, 0), (1, 2)],
            [(1, 0), (1, 3)],
            [(2, 1), (1, 2)],
            [(1, 0, 0), (0, 1, 0), (1, 1, 2)],
            [(1, 2, 0), (0, 1, 1), (1, 0, 3)],
            [(1, -1), (1, 1)],
        ]
        for gens in cases:
            assert sorted(parallelepiped_points(gens)) == \
                boxscan_parallelepiped(gens)

    def test_lower_dimensional_cone(self):
        gens = [(1, 1, 0), (1, 3, 0)]
        assert sorted(parallelepiped_points(gens)) == \
            boxscan_parallelepiped(gens)

    def test_count_equals_det_for_full_dim(self):
        rng = random.Random(6)
        for _ in range(10):
            d = rng.randint(2, 3)
            while True:
                gens = [tuple(rng.randint(0, 3) for _ in range(d))
                        for _ in range(d)]
                dd = det(Matrix(gens))
                if dd != 0:
                    break
            assert len(parallelepiped_points(gens)) == abs(dd)


class TestPlacingTriangulation:
    def test_partitions_generator_count(self):
        gens = sorted({tuple(r) for r in M_ROWS})
        simplices = placing_triangulation(gens)
        assert all(len(s) == 6 for s in simplices)

    def test_volumes_add_up(self):
        # simplex volumes must sum to the cone volume
        gens = [(0, 1), (1, 1), (2, 1)]
        simplices = placing_triangulation(gens)
        total = sum(abs(det(Matrix([gens[i] for i in s])))
                    for s in simplices if len(s) == 2)
        # cone spanned by (0,1) and (2,1): |det| = 2
        assert total == 2
        assert len(simplices) == 2  # the middle generator splits it


class TestHilbertBasis:
    def test_counterexample_cone_equals_generators(self):
        hb = hilbert_basis(Matrix(M_ROWS))
        assert {tuple(int(x) for x in r) for r in hb.rows} == set(M_ROWS)

    def test_unimodular_cone(self):
        hb = hilbert_basis(Matrix([[1, 0], [0, 1]]))
        assert [tuple(int(x) for x in r) for r in hb.rows] == [(0, 1), (1, 0)]

    def test_two_dim_cone_brute_force(self):
        hb = hilbert_basis(Matrix([[1, 0], [1, 2]]))
        got = {tuple(int(x) for x in r) for r in hb.rows}
        assert got == {(1, 0), (1, 1), (1, 2)}
        # brute-force irreducibility oracle over small cone points
        facets, equations = double_description([(1, 0), (1, 2)], 2)
        pts = [p for p in itertools.product(range(5), repeat=2)
               if any(p) and in_cone(p, facets, equations)]
        irreducible = {
            p for p in pts
            if not any(q != p and in_cone([a - b for a, b in zip(p, q)],
                                          facets, equations) for q in pts)}
        assert got == irreducible

    def test_non_pointed_rejected(self):
        with pytest.raises(NotPointedError):
            hilbert_basis(Matrix([[1, 0], [-1, 0], [0, 1]]))

    def test_output_sorted_and_primitive(self):
        hb = hilbert_basis(Matrix([[2, 0], [2, 4]]))
        rows = [tuple(int(x) for x in r) for r in hb.rows]
        assert rows == sorted(rows)
        assert (1, 0) in rows and (1, 2) in rows

    def test_minimality_and_completeness_random_cones(self):
        rng = random.Random(2025)
        for trial in range(8):
            dim = rng.choice((2, 3))
            gens, facets, equations = random_pointed_cone(rng, dim)
            hb = hilbert_basis(Matrix(gens))
            basis = [tuple(int(x) for x in r) for r in hb.rows]
            # minimality: no element reducible by another basis element
            for x in basis:
                assert not any(
                    y != x and in_cone([a - b for a, b in zip(x, y)],
                                       facets, equations) for y in basis)
            # completeness: random small cone points decompose over the basis
            cone_pts = [p for p in
                        itertools.product(range(-4, 5), repeat=dim)
                        if any(p) and in_cone(p, facets, equations)]
            rng.shuffle(cone_pts)
            for p in cone_pts[:10]:
                assert _expressible(p, basis, facets, equations)


def _expressible(p, basis, facets, equations, _memo=None):
    if _memo is None:
        _memo = {}
    p = tuple(p)
    if not any(p):
        return True
    if p in _memo:
        return _memo[p]
    _memo[p] = False
    for b in basis:
        q = tuple(a - c for a, c in zip(p, b))
        if in_cone(q, facets, equations) and _expressible(
                q, basis, facets, equations, _memo):
            _memo[p] = True
            break
    return _memo[p]


@pytest.fixture(scope="module")
def report():
    return caratheodory_witness_scan(Matrix(M_ROWS),
                                     Vector([9, 13, 13, 13, 13, 13]))


class TestWitnessScan:
    def test_exactly_185_nonsingular(self, report):
        assert report.n_subsets == 210
        assert report.n_nonsingular == 185

    def test_no_nonnegative_integral_solution(self, report):
        # the substance of the counter-example: x is not a nonnegative
        # integral combination of six linearly independent generators
        assert report.n_nonnegative_integral == 0
        for line in report.lines:
            assert not (line.integral and line.nonnegative)

    def test_solutions_verify(self, report):
        from polylat.exactmath import minor, All
        m = Matrix(M_ROWS)
        for line in report.lines[:20]:
            b = minor(m, line.subset, All)
            lhs = [sum(line.solution[i] * b.rows[i][j] for i in range(6))
                   for j in range(6)]
            assert lhs == [9, 13, 13, 13, 13, 13]

    def test_generator_itself_has_trivial_solution(self):
        rep = caratheodory_witness_scan(Matrix(M_ROWS), Vector(M_ROWS[0]))
        assert rep.n_nonnegative_integral >= 1

    def test_summary_mentions_counts(self, report):
        s = report.summary()
        assert "210" in s and "185" in s
