"""Geometry core tests: double description, incidence, face lattice.

Hull computations are checked against independent oracles: sign-vector
enumeration for the cube, a brute-force supporting-hyperplane scan for the
counter-example cone, and closed-form f-vectors.
"""

import itertools
import math
import random

import pytest

from polylat.errors import (
    EmptyPolytopeError,
    GeometryError,
    NotPointedError,
)
from polylat.exactmath import Matrix, Vector
from polylat.geomcore import (
    HasseDiagram,
    IncidenceMatrix,
    _int_rank,
    _kernel_basis,
    affine_hull_from_facets,
    ambient_dim,
    cross,
    cube,
    dim_from_facets,
    dim_from_generators,
    extreme_points_in_input_order,
    f2_vector,
    f_vector,
    facets_from_points,
    from_points,
    hasse_diagram,
    incidence,
    is_bounded,
    is_pointed,
    skeleton_graphs,
    vertices_from_facets,
)
from polylat.graphiso import isomorphic

from oracles import brute_force_face_lattice

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

CUBE3_FACET_ROWS = {
    (1, 1, 0, 0), (1, 0, 0, 1), (1, 0, 1, 0),
    (1, 0, -1, 0), (1, -1, 0, 0), (1, 0, 0, -1),
}


def cube_vertex_matrix(d):
    return Matrix([(1,) + s for s in itertools.product((-1, 1), repeat=d)])


def facet_oracle(rows):
    """Independent facet enumeration: supporting hyperplanes through
    rank-(n-1) generator subsets with every generator on one side."""
    width = len(rows[0])
    out = {}
    for s in itertools.combinations(range(len(rows)), width - 1):
        sub = [rows[i] for i in s]
        if _int_rank(sub, width) != width - 1:
            continue
        ker = _kernel_basis(sub, width)
        if len(ker) != 1:
            continue
        f = ker[0]
        vals = [sum(a * b for a, b in zip(f, g)) for g in rows]
        if all(v <= 0 for v in vals):
            f = tuple(-x for x in f)
            vals = [-v for v in vals]
        if not all(v >= 0 for v in vals):
            continue
        out[f] = frozenset(i for i, v in enumerate(vals) if v == 0)
    return out


@pytest.fixture(scope="module")
def cone_c():
    m = Matrix(M_ROWS)
    facets, hull = facets_from_points(m)
    vertices = extreme_points_in_input_order(m, facets, hull)
    inc = incidence(vertices, facets)
    return m, facets, hull, vertices, inc


class TestConstructors:
    def test_cube_birth_properties(self):
        p = cube(3)
        assert p.list_properties() == [
            "AMBIENT_DIM", "DIM", "FACETS", "VERTICES_IN_FACETS", "BOUNDED"]
        assert p.get("AMBIENT_DIM") == 3
        assert p.get("DIM") == 3
        assert p.get("BOUNDED") is True

    def test_cube3_facets_match_known_rows(self):
        got = {tuple(int(x) for x in r) for r in cube(3).get("FACETS").rows}
        assert got == CUBE3_FACET_ROWS
        # pinned deterministic order: lexicographic
        rows = [tuple(r) for r in cube(3).get("FACETS").rows]
        assert rows == sorted(rows)

    def test_cube1_is_segment(self):
        p = cube(1)
        assert {tuple(int(x) for x in r) for r in p.get("FACETS").rows} == {
            (1, 1), (1, -1)}

    def test_cube_dimension_error(self):
        with pytest.raises(GeometryError):
            cube(0)

    def test_cross3_is_octahedron(self):
        p = cross(3)
        v = p.get("VERTICES")
        assert v.n_rows == 6
        facets, hull = facets_from_points(v)
        assert facets.n_rows == 8
        assert hull.n_rows == 0

    def test_cross1_equals_cube1_as_point_set(self):
        c1 = cross(1).get("VERTICES")
        q1 = vertices_from_facets(cube(1).get("FACETS"), Matrix([], n_cols=2))
        assert c1 == q1

    def test_from_points_single_point(self):
        from polylat.geomcore import from_points
        p = from_points(Matrix([[1, 0, 0]]))
        assert p.list_properties() == ["POINTS"]
        assert dim_from_generators(p.get("POINTS")) == 0

    def test_from_points_rejects_garbage(self):
        from polylat.geomcore import from_points
        with pytest.raises(GeometryError):
            from_points(Matrix([[0, 0, 0]]))
        with pytest.raises(GeometryError):
            from_points(Matrix([[-1, 2, 2]]))
        with pytest.raises(GeometryError):
            from_points(Matrix([], n_cols=3))

    def test_from_points_normalizes_leading_entry(self):
        from polylat.geomcore import from_points
        p = from_points(Matrix([[2, 4, 6], [0, 0, 3]]))
        assert p.get("POINTS") == Matrix([[1, 2, 3], [0, 0, 3]])


class TestHullConversions:
    def test_cube_facets_from_vertices(self):
        facets, hull = facets_from_points(cube_vertex_matrix(3))
        assert {tuple(int(x) for x in r) for r in facets.rows} == \
            CUBE3_FACET_ROWS
        assert hull.n_rows == 0

    def test_cube_vertices_from_known_facets(self):
        # oracle: enumerate sign vectors, verify the inequalities directly
        facets = cube(3).get("FACETS")
        got = vertices_from_facets(facets, Matrix([], n_cols=4))
        oracle = sorted(
            (1,) + s for s in itertools.product((-1, 1), repeat=3)
            if all(f[0] + sum(a * b for a, b in zip(f[1:], s)) >= 0
                   for f in facets.rows))
        assert [tuple(int(x) for x in r) for r in got.rows] == oracle
        assert len(oracle) == 8

    def test_simplex_three_facets(self):
        simplex = Matrix([[1, 0, 0], [1, 1, 0], [1, 0, 1]])
        facets, hull = facets_from_points(simplex)
        assert facets.n_rows == 3
        assert hull.n_rows == 0

    def test_cone_c_has_27_facets(self, cone_c):
        _, facets, hull, _, _ = cone_c
        assert facets.n_rows == 27
        assert hull.n_rows == 0

    def test_cone_c_facets_match_bruteforce_oracle(self, cone_c):
        _, facets, _, _, inc = cone_c
        oracle = facet_oracle(M_ROWS)
        assert {tuple(int(x) for x in r) for r in facets.rows} == set(oracle)
        assert set(inc.rows) == set(oracle.values())

    def test_lower_dimensional_affine_hull(self):
        segment = Matrix([[1, 0, 0], [1, 2, 2]])
        facets, hull = facets_from_points(segment)
        assert hull.n_rows == 1
        assert tuple(int(x) for x in hull.rows[0]) in {(0, 1, -1), (0, -1, 1)}
        back = vertices_from_facets(facets, hull)
        assert back == Matrix([[1, 0, 0], [1, 2, 2]])

    def test_roundtrip_random_01_polytopes(self):
        rng = random.Random(424242)
        for trial in range(12):
            d = rng.randint(1, 4)
            pts = {(1,) + tuple(rng.randint(0, 1) for _ in range(d))
                   for _ in range(rng.randint(2, 10))}
            m = Matrix(sorted(pts))
            facets, hull = facets_from_points(m)
            verts = vertices_from_facets(facets, hull)
            # oracle irredundancy: vertex iff not in hull of the others
            again, hull2 = facets_from_points(verts)
            assert {tuple(r) for r in again.rows} == {
                tuple(r) for r in facets.rows}
            assert vertices_from_facets(again, hull2) == verts
            assert {tuple(r) for r in verts.rows} <= {tuple(r) for r in m.rows}

    def test_empty_feasible_set_flagged(self):
        # x >= 1 and x <= -1
        facets = Matrix([[-1, 1], [-1, -1]])
        with pytest.raises(EmptyPolytopeError):
            vertices_from_facets(facets, Matrix([], n_cols=2))

    def test_lineality_rejected(self):
        # whole line: no inequalities beyond the homogenizing one
        facets = Matrix([[1, 0]])
        with pytest.raises(NotPointedError):
            vertices_from_facets(facets, Matrix([], n_cols=2))

    def test_affine_hull_from_facets_full_dim(self):
        assert affine_hull_from_facets(cube(3).get("FACETS")) == \
            Matrix([], n_cols=4)

    def test_affine_hull_from_facets_implied_equation(self):
        # x >= 1 and x <= 1 imply x == 1
        facets = Matrix([[-1, 1], [1, -1]])
        hull = affine_hull_from_facets(facets)
        assert hull.n_rows == 1
        assert tuple(int(x) for x in hull.rows[0]) in {(1, -1), (-1, 1)}

    def test_input_order_vertices_for_cone_c(self, cone_c):
        m, _, _, vertices, _ = cone_c
        assert vertices == m  # every row of M is extreme, order preserved

    def test_every_vertex_satisfies_every_facet(self, cone_c):
        _, facets, _, vertices, _ = cone_c
        for v in vertices.rows:
            for f in facets.rows:
                assert sum(a * b for a, b in zip(f, v)) >= 0


class TestIncidence:
    def test_cube_incidence_counts(self):
        p = cube(3)
        inc = p.get("VERTICES_IN_FACETS")
        assert all(len(r) == 4 for r in inc.rows)
        for v in range(8):
            assert sum(1 for r in inc.rows if v in r) == 3

    def test_cube_conincides_with_computed(self):
        p = cube(3)
        facets = p.get("FACETS")
        verts = vertices_from_facets(facets, Matrix([], n_cols=4))
        assert incidence(verts, facets) == p.get("VERTICES_IN_FACETS")

    def test_cone_c_disjoint_simplex_facets(self, cone_c):
        _, _, _, _, inc = cone_c
        sets = set(inc.rows)
        assert frozenset(range(5)) in sets
        assert frozenset(range(5, 10)) in sets

    def test_duplicate_facet_rows_rejected(self):
        with pytest.raises(GeometryError):
            IncidenceMatrix((frozenset({0}), frozenset({0})), 1)


class TestHasse:
    def test_cube3_node_count(self):
        h = hasse_diagram(cube(3).get("VERTICES_IN_FACETS"))
        assert len(h.nodes) == 28  # 1 + 8 + 12 + 6 + 1
        assert h.dim == 3

    def test_simplex_boolean_lattice(self):
        simplex = Matrix([[1, 0, 0], [1, 1, 0], [1, 0, 1]])
        facets, hull = facets_from_points(simplex)
        verts = vertices_from_facets(facets, hull)
        h = hasse_diagram(incidence(verts, facets))
        assert len(h.nodes) == 8

    def test_gradedness_and_atoms(self):
        for obj in (cube(3), cube(4)):
            h = hasse_diagram(obj.get("VERTICES_IN_FACETS"))
            for a, b in h.edges:
                assert h.nodes[b][1] == h.nodes[a][1] + 1
            assert h.nodes[-1][0] == frozenset(range(h.n_vertices))
            assert h.nodes[0][0] == frozenset()
            atoms = h.faces_of_dim(0)
            assert sorted(map(tuple, atoms)) == [(v,) for v in
                                                 range(h.n_vertices)]

    def test_cone_c_adjacent_simplex_facets_share_ridge(self, cone_c):
        # two simplex facets meeting in a ridge: the straightened pairs
        _, _, _, _, inc = cone_c
        h = hasse_diagram(inc)
        facet_nodes = {h.nodes[i][0]: i for i in h.node_ids_of_dim(h.dim - 1)}
        found = False
        for fa, fb in itertools.combinations(facet_nodes, 2):
            if len(fa) == 5 and len(fb) == 5 and len(fa & fb) == 4:
                ridge = fa & fb
                ridge_ids = [i for i in h.node_ids_of_dim(h.dim - 2)
                             if h.nodes[i][0] == ridge]
                assert len(ridge_ids) == 1
                above = set(h.covers_above(ridge_ids[0]))
                assert above == {facet_nodes[fa], facet_nodes[fb]}
                found = True
                break
        assert found

    @pytest.mark.parametrize("nodes, edges", [
        ([(set(), -1), ({0}, 0)], [(0, 2)]),                # end out of range
        ([(set(), -1), ({0}, 0), ({0, 1}, 1)], [(0, 2)]),   # skips a dimension
        ([(set(), -1), ({0}, 0), ({1}, 0)], [(1, 2)]),      # same dimension
        ([(set(), -1), ({0}, 0), ({1, 2}, 1)], [(1, 2)]),   # not an inclusion
        ([(set(), -1), ({5}, 0)], [(0, 1)]),                # vertex out of range
        ([({0}, 0), (set(), -1)], [(1, 0)]),                # dimensions descend
        ([({0}, -1)], []),                                  # bottom not empty
        ([(set(), -1), ({0, 1}, 0)], [(0, 1)]),             # 2-vertex 0-face
        ([(set(), -1), ({0}, 0), ({0, 1, 2}, 1)], [(1, 2)]),  # 3-vertex 1-face
    ])
    def test_constructor_refuses_non_lattice_input(self, nodes, edges):
        with pytest.raises(GeometryError):
            HasseDiagram(nodes, edges, 3)

    def test_covers_above_ascending(self):
        h = hasse_diagram(cube(3).get("VERTICES_IN_FACETS"))
        for i in range(len(h.nodes)):
            assert h.covers_above(i) == sorted(b for a, b in h.edges if a == i)

    def test_point_face_lattice(self):
        from polylat.geomcore import from_points
        p = from_points(Matrix([[1, 0, 0]]))
        facets, hull = facets_from_points(p.get("POINTS"))
        verts = vertices_from_facets(facets, hull)
        h = hasse_diagram(incidence(verts, facets))
        assert h.dim == 0
        assert len(h.nodes) == 2


class TestFVectors:
    def test_cube3(self):
        h = hasse_diagram(cube(3).get("VERTICES_IN_FACETS"))
        assert f_vector(h) == Vector([8, 12, 6])

    def test_cube_formula_up_to_dim6(self):
        for d in range(1, 7):
            h = hasse_diagram(cube(d).get("VERTICES_IN_FACETS"))
            expected = [2 ** (d - k) * math.comb(d, k) for k in range(d)]
            assert f_vector(h) == Vector(expected)

    def test_cross5_formula(self):
        p = cross(5)
        facets, hull = facets_from_points(p.get("VERTICES"))
        h = hasse_diagram(incidence(p.get("VERTICES"), facets))
        expected = [2 ** (k + 1) * math.comb(5, k + 1) for k in range(5)]
        assert expected == [10, 40, 80, 80, 32]
        assert f_vector(h) == Vector(expected)

    def test_cross5_minus_cone_c(self, cone_c):
        _, _, _, _, inc = cone_c
        fc = f_vector(hasse_diagram(inc))
        p = cross(5)
        facets, _ = facets_from_points(p.get("VERTICES"))
        f5 = f_vector(hasse_diagram(incidence(p.get("VERTICES"), facets)))
        assert f5 - fc == Vector([0, 0, 0, 5, 5])

    def test_euler_relation_random(self):
        rng = random.Random(77)
        for _ in range(8):
            d = rng.randint(1, 4)
            pts = sorted({(1,) + tuple(rng.randint(0, 1) for _ in range(d))
                          for _ in range(rng.randint(d + 1, 11))})
            facets, hull = facets_from_points(Matrix(pts))
            verts = vertices_from_facets(facets, hull)
            h = hasse_diagram(incidence(verts, facets))
            fv = f_vector(h)
            alt = sum((-1) ** k * int(x) for k, x in enumerate(fv.entries))
            assert alt == 1 - (-1) ** h.dim

    def test_f2_cube3(self):
        h = hasse_diagram(cube(3).get("VERTICES_IN_FACETS"))
        f2 = f2_vector(h)
        assert f2.rows[0][1] == 24  # 12 edges, 2 vertices each
        assert [f2.rows[i][i] for i in range(3)] == [8, 12, 6]
        assert f2 == f2.transpose()


class TestSkeletons:
    def test_cube3_graph_is_3_regular(self):
        p = cube(3)
        inc = p.get("VERTICES_IN_FACETS")
        g, dual = skeleton_graphs(hasse_diagram(inc), inc)
        assert g.n_nodes == 8
        assert all(g.degree(v) == 3 for v in range(8))
        assert dual.n_nodes == 6
        assert all(dual.degree(v) == 4 for v in range(6))

    def test_cross5_dual_graph_is_hypercube(self):
        p = cross(5)
        facets, _ = facets_from_points(p.get("VERTICES"))
        inc = incidence(p.get("VERTICES"), facets)
        _, dual = skeleton_graphs(hasse_diagram(inc), inc)
        assert dual.n_nodes == 32
        assert all(dual.degree(v) == 5 for v in range(32))
        from polylat.graphiso import Graph
        q5 = Graph(32)
        for u in range(32):
            for b in range(5):
                if u < u ^ (1 << b):
                    q5.add_edge(u, u ^ (1 << b))
        assert isomorphic(dual, q5)

    def test_point_graph_empty(self):
        from polylat.geomcore import from_points
        p = from_points(Matrix([[1, 0]]))
        facets, hull = facets_from_points(p.get("POINTS"))
        verts = vertices_from_facets(facets, hull)
        inc = incidence(verts, facets)
        g, dual = skeleton_graphs(hasse_diagram(inc), inc)
        assert g.n_edges() == 0
        assert dual.n_edges() == 0


def _random_points(seed, d):
    rng = random.Random(seed)
    return Matrix([[1] + [rng.randint(-3, 3) for _ in range(d)]
                   for _ in range(d + 5)])


LATTICE_BIRTHS = {
    **{f"cube({d})": lambda d=d: cube(d) for d in (3, 4, 5)},
    **{f"cross({d})": lambda d=d: cross(d) for d in (3, 4, 5)},
    **{f"random-{d}d-{seed}": lambda seed=seed, d=d:
       from_points(_random_points(seed, d))
       for d in (3, 4) for seed in (1, 2, 3)},
    # pointed cone over a square: the far facet holds the four rays
    "cone": lambda: from_points(Matrix(
        [[1, 0, 0, 0], [0, 1, 0, 1], [0, -1, 0, 1], [0, 0, 1, 1],
         [0, 0, -1, 1]])),
    # a pentagon in the plane z = x + y of 3-space
    "flat-pentagon": lambda: from_points(Matrix(
        [[1, 0, 0, 0], [1, 2, 0, 2], [1, 3, 2, 5], [1, 1, 3, 4],
         [1, -1, 1, 0], [1, 1, 1, 2]])),
}


class TestFaceLatticeOracle:
    @pytest.mark.parametrize("name", sorted(LATTICE_BIRTHS))
    def test_matches_brute_force(self, name):
        p = LATTICE_BIRTHS[name]()
        inc = p.request("VERTICES_IN_FACETS")
        want = brute_force_face_lattice(inc.rows, inc.n_vertices)
        h = p.request("HASSE_DIAGRAM")
        assert list(h.nodes) == want["nodes"]
        assert h.edges == want["edges"]
        assert list(p.request("F_VECTOR").entries) == want["f_vector"]
        assert [list(r) for r in p.request("F2_VECTOR").rows] \
            == want["f2_vector"]
        assert list(p.request("GRAPH").adjacency()) == want["graph"]
        assert list(p.request("DUAL_GRAPH").adjacency()) == want["dual_graph"]


class TestPredicates:
    def test_cube_bounded(self):
        assert is_bounded(cube_vertex_matrix(3))

    def test_cone_c_unbounded_but_pointed(self, cone_c):
        m, facets, hull, _, _ = cone_c
        assert not is_bounded(m)
        assert is_pointed(facets, hull)

    def test_dims(self, cone_c):
        m, facets, hull, _, _ = cone_c
        assert ambient_dim(m) == 5
        assert dim_from_generators(m) == 5
        assert dim_from_facets(facets, hull) == 5
        assert ambient_dim(cube_vertex_matrix(3)) == 3
        assert dim_from_generators(cube_vertex_matrix(3)) == 3

    def test_segment_in_plane_dims(self):
        seg = Matrix([[1, 0, 0], [1, 2, 2]])
        facets, hull = facets_from_points(seg)
        assert dim_from_generators(seg) == 1
        assert dim_from_facets(facets, hull) == 1
