"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.  Shared
objects are built once; everything produced here feeds the final object
file round-trip check.

Criterion 6 is split in two.  The scan counts and the conclusion (no
solution is simultaneously integral and nonnegative, so the witness
vector has no nonnegative integral representation by six independent
generators) hold and pass.  The stronger blanket statements "every
solution is integral" and "every solution has a negative coefficient"
are asserted verbatim in a second test and are computationally false
for this matrix: 120 of 185 solutions are integral and 160 of 185 have
a negative entry (row subset {0,1,2,3,5,9} forces 2*y4 = 13 in column
5).  That test fails by design; it documents the discrepancy instead of
weakening the assertion.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from polylat.errors import CastRefusedError
from polylat.exactmath import Matrix, Vector, rank
from polylat.geomcore import (
    cross,
    cube,
    facets_from_points,
    from_points,
    vertices_from_facets,
)
from polylat.graphiso import isomorphic, isomorphism
from polylat.latticecore import (
    caratheodory_witness_scan,
    ehrhart_counts,
    h_star,
    hilbert_basis,
    in_cone,
    lattice_points,
)
from polylat.objectfile import load_object, save_object
from polylat.rules import fresh_rulebase

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

RB = fresh_rulebase()
PRODUCED = []  # objects for the criterion-8e round trip


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({title}): FAIL")
        raise
    print(f"criterion {number} ({title}): PASS")


@pytest.fixture(scope="module")
def cube3():
    obj = cube(3, rulebase=RB)
    PRODUCED.append(obj)
    return obj


@pytest.fixture(scope="module")
def cone_c():
    obj = from_points(Matrix(M_ROWS), rulebase=RB)
    PRODUCED.append(obj)
    return obj


@pytest.fixture(scope="module")
def cross5():
    obj = cross(5, rulebase=RB)
    PRODUCED.append(obj)
    return obj


def test_criterion_1_cube_transcript(cube3):
    with criterion(1, "cube transcript"):
        start = time.monotonic()
        assert cube3.request("F_VECTOR") == Vector([8, 12, 6])
        facets = cube3.request("FACETS")
        assert {tuple(int(x) for x in r) for r in facets.rows} == \
            CUBE3_FACET_ROWS
        assert [tuple(r) for r in facets.rows] == \
            sorted(tuple(r) for r in facets.rows)  # pinned order
        assert cube3.request("LATTICE") is True
        assert cube3.request("N_LATTICE_POINTS") == 27
        assert cube3.request("N_INTERIOR_LATTICE_POINTS") == 1
        interior = cube3.request("INTERIOR_LATTICE_POINTS")
        assert [tuple(int(x) for x in r) for r in interior.rows] == \
            [(1, 0, 0, 0)]
        assert cube3.request("REFLEXIVE") is True
        assert cube3.request("SMOOTH") is True
        assert cube3.request("H_STAR_VECTOR") == Vector([1, 23, 23, 1])
        assert cube3.request("LATTICE_VOLUME") == 48
        assert cube3.request("LATTICE_DEGREE") == 3
        assert cube3.request("LATTICE_CODEGREE") == 1
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


def test_criterion_2_schedule_reproduction():
    with criterion(2, "schedule reproduction"):
        fresh = cube(3, rulebase=RB)
        schedule = fresh.get_schedule("F_VECTOR")
        assert schedule.list() == [
            "HASSE_DIAGRAM : VERTICES_IN_FACETS",
            "F_VECTOR, F2_VECTOR : HASSE_DIAGRAM",
        ]
        before = set(fresh.list_properties())
        schedule.apply(fresh)
        gained = set(fresh.list_properties()) - before
        assert gained == {"HASSE_DIAGRAM", "F_VECTOR", "F2_VECTOR"}


def test_criterion_3_subclass_casting(cone_c):
    with criterion(3, "subclass casting"):
        fresh = cube(3, rulebase=RB)
        assert fresh.type_full_name == "Polytope<Rational>"
        assert fresh.request("REFLEXIVE") is True
        assert fresh.type_full_name == "LatticePolytope"

        with pytest.raises(CastRefusedError) as exc:
            cone_c.request("REFLEXIVE")
        assert "BOUNDED" in str(exc.value)
        assert cone_c.class_tag == "Polytope"

        halfway = from_points(
            Matrix([[1, Fraction(1, 2), 0], [1, 1, 1], [1, 0, 1]]),
            rulebase=RB)
        PRODUCED.append(halfway)
        with pytest.raises(CastRefusedError) as exc:
            halfway.request("REFLEXIVE")
        assert "LATTICE" in str(exc.value)
        assert halfway.class_tag == "Polytope"


def test_criterion_4_hilbert_basis_of_c(cone_c):
    with criterion(4, "Hilbert basis of C"):
        start = time.monotonic()
        basis = cone_c.request("HILBERT_BASIS")
        elapsed = time.monotonic() - start
        assert {tuple(int(x) for x in r) for r in basis.rows} == set(M_ROWS)
        assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"


def test_criterion_5_facet_structure_of_c(cone_c, cross5):
    with criterion(5, "facet structure of C"):
        inc = cone_c.request("VERTICES_IN_FACETS")
        assert len(inc) == 27
        sets = set(inc.rows)
        assert frozenset(range(5)) in sets
        assert frozenset(range(5, 10)) in sets
        diff = cross5.request("F_VECTOR") - cone_c.request("F_VECTOR")
        assert diff == Vector([0, 0, 0, 5, 5])


def test_criterion_6_theorem1_scan():
    with criterion(6, "Theorem 1 scan: counts and conclusion"):
        report = caratheodory_witness_scan(
            Matrix(M_ROWS), Vector([9, 13, 13, 13, 13, 13]))
        assert report.n_subsets == 210
        assert report.n_nonsingular == 185
        # the point of the scan: no solution is simultaneously integral
        # and nonnegative, so x has no nonnegative integral representation
        # by six linearly independent generators
        assert report.n_nonnegative_integral == 0
        print(f"  [scan: {report.summary()}]")


def test_criterion_6_verbatim_subclaims():
    # Fails by design: the blanket claims do not hold for this matrix
    # (120 of 185 integral, 160 of 185 with a negative entry; row subset
    # {0,1,2,3,5,9} forces 2*y4 = 13).  Kept as stated, not weakened.
    with criterion(6, "Theorem 1 scan: verbatim sub-claims"):
        report = caratheodory_witness_scan(
            Matrix(M_ROWS), Vector([9, 13, 13, 13, 13, 13]))
        assert report.n_integral == report.n_nonsingular, (
            f"only {report.n_integral} of {report.n_nonsingular} "
            "solutions are integral")
        assert report.n_with_negative == report.n_nonsingular, (
            f"only {report.n_with_negative} of {report.n_nonsingular} "
            "solutions have a negative coefficient")


def test_criterion_7_graph_structure(cone_c, cross5):
    with criterion(7, "graph structure"):
        start = time.monotonic()
        g_c = cone_c.request("GRAPH")
        g_q = cross5.request("GRAPH")
        assert isomorphic(g_c, g_q)

        dual_c = cone_c.request("DUAL_GRAPH")
        dual_q = cross5.request("DUAL_GRAPH")
        matching = _find_contraction_matching(cone_c, cross5)
        assert matching is not None, "no valid 5-edge matching found"
        assert len({n for e in matching for n in e}) == 10
        contracted = dual_q.copy()
        for u, v in matching:
            contracted.contract_edge(u, v)
        contracted.squeeze()
        assert isomorphic(contracted, dual_c)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.2f}s, budget 60s"


def _find_contraction_matching(cone_c, cross5):
    """Bounded search over node-disjoint 5-matchings of the dual graph.

    The candidate order is seeded by transporting the six-vertex facets of
    the cone through a vertex-graph isomorphism (those are the straightened
    facet pairs), followed by plain lexicographic enumeration with the
    first edge pinned (the hypercube graph is edge-transitive).  The
    search is bounded and fails hard rather than returning a guess.
    """
    dual_c = cone_c.request("DUAL_GRAPH")
    dual_q = cross5.request("DUAL_GRAPH")
    target = dual_c.degree_multiset()
    edges = dual_q.edges()

    def contracts_to_target(matching):
        g = dual_q.copy()
        for u, v in matching:
            g.contract_edge(u, v)
        g.squeeze()
        return g.degree_multiset() == target and isomorphic(g, dual_c)

    # seeded candidates
    for phi in _vertex_graph_isomorphisms(cone_c, cross5):
        candidate = _transport_six_vertex_facets(cone_c, cross5, phi)
        if candidate and contracts_to_target(candidate):
            return candidate

    # exhaustive fallback within a node budget
    deadline = time.monotonic() + 55.0
    first = edges[0]
    stack = [(1, (first,), set(first))]
    while stack:
        if time.monotonic() > deadline:
            raise AssertionError("matching search exceeded its budget")
        idx, chosen, used = stack.pop()
        if len(chosen) == 5:
            if contracts_to_target(chosen):
                return list(chosen)
            continue
        for i in range(idx, len(edges)):
            u, v = edges[i]
            if u in used or v in used:
                continue
            stack.append((i + 1, chosen + ((u, v),), used | {u, v}))
    return None


def _vertex_graph_isomorphisms(cone_c, cross5):
    phi = isomorphism(cone_c.request("GRAPH"), cross5.request("GRAPH"))
    return [phi] if phi is not None else []


def _transport_six_vertex_facets(cone_c, cross5, phi):
    inc_c = cone_c.request("VERTICES_IN_FACETS")
    inc_q = cross5.request("VERTICES_IN_FACETS")
    dual_q = cross5.request("DUAL_GRAPH")
    pairs = []
    for face in inc_c.rows:
        if len(face) != 6:
            continue
        image = {phi[v] for v in face}
        covered = [j for j, row in enumerate(inc_q.rows)
                   if set(row) <= image]
        if len(covered) != 2 or not dual_q.has_edge(*covered):
            return None
        pairs.append(tuple(covered))
    if len(pairs) != 5 or len({n for p in pairs for n in p}) != 10:
        return None
    return pairs


def _interpolate(values, at):
    total = Fraction(0)
    for i, v in enumerate(values):
        term = Fraction(v)
        for j in range(len(values)):
            if j != i:
                term *= Fraction(at - j, i - j)
        total += term
    return total


def test_criterion_8a_ehrhart_reciprocity_and_hstar():
    with criterion(8, "a: Ehrhart reciprocity + h* on 100 random simplices"):
        rng = random.Random(20250808)
        done = 0
        while done < 100:
            d = rng.randint(1, 3)
            pts = [(1,) + tuple(rng.randint(-3, 3) for _ in range(d))
                   for _ in range(d + 1)]
            m = Matrix(pts)
            if rank(m) != d + 1:
                continue
            facets, hull = facets_from_points(m)
            verts = vertices_from_facets(facets, hull)
            counts = ehrhart_counts(verts, facets, d)
            hs = h_star(counts, d)
            assert all(x.denominator == 1 and x >= 0 for x in hs.entries)
            assert hs.entries[0] == 1
            for k in (1, 2):
                expected = (-1) ** d * _interpolate(counts, -k)
                vk = Matrix([(r[0],) + tuple(k * x for x in r[1:])
                             for r in verts.rows])
                fk = Matrix([(k * r[0],) + tuple(r[1:])
                             for r in facets.rows])
                strict = lattice_points(vk, fk, None, interior=True)
                assert expected == strict.n_rows
            done += 1


def test_criterion_8b_hilbert_basis_oracles():
    with criterion(8, "b: Hilbert basis oracles on 25 random pointed cones"):
        from polylat.exactmath import primitive
        from polylat.geomcore import _int_rank, double_description
        rng = random.Random(5150)
        checked_points = 0
        for trial in range(25):
            dim = rng.choice((2, 3))
            while True:
                gens = set()
                for _ in range(rng.randint(dim, dim + 2)):
                    v = tuple(rng.randint(-3, 3) for _ in range(dim))
                    if any(v):
                        gens.add(primitive(v))
                gens = sorted(gens)
                if not gens:
                    continue
                facets, equations = double_description(gens, dim)
                if _int_rank(list(facets) + list(equations), dim) == dim:
                    break
            basis = [tuple(int(x) for x in r)
                     for r in hilbert_basis(Matrix(gens)).rows]
            # minimality oracle
            for x in basis:
                assert not any(
                    y != x and in_cone([a - b for a, b in zip(x, y)],
                                       facets, equations) for y in basis)
            # completeness oracle on random small cone points
            pts = [p for p in itertools.product(range(-4, 5), repeat=dim)
                   if any(p) and in_cone(p, facets, equations)]
            rng.shuffle(pts)
            for p in pts[:2]:
                assert _decomposes(p, basis, facets, equations)
                checked_points += 1
        assert checked_points == 50


def _decomposes(point, basis, facets, equations, _memo=None):
    if _memo is None:
        _memo = {}
    point = tuple(point)
    if not any(point):
        return True
    if point in _memo:
        return _memo[point]
    _memo[point] = False
    for b in basis:
        rest = tuple(a - c for a, c in zip(point, b))
        if in_cone(rest, facets, equations) and _decomposes(
                rest, basis, facets, equations, _memo):
            _memo[point] = True
            break
    return _memo[point]


def test_criterion_8c_hull_round_trip():
    with criterion(8, "c: V/H round trip on random 0/1-polytopes"):
        rng = random.Random(99887)
        for trial in range(20):
            d = rng.randint(1, 4)
            pts = sorted({(1,) + tuple(rng.randint(0, 1) for _ in range(d))
                          for _ in range(rng.randint(2, 12))})
            m = Matrix(pts)
            facets, hull = facets_from_points(m)
            verts = vertices_from_facets(facets, hull)
            facets2, hull2 = facets_from_points(verts)
            assert facets2 == facets
            assert hull2 == hull
            assert vertices_from_facets(facets2, hull2) == verts


def test_criterion_8d_scheduler_optimality():
    with criterion(8, "d: scheduler optimality vs exhaustive search"):
        rb = fresh_rulebase()

        def exhaustive_min_weight(start_keys, targets, class_name):
            rules = [r for _, r in rb.rules_for_class(class_name)]
            best = [None]
            seen = {}

            def walk(state, cost):
                if best[0] is not None and cost >= best[0]:
                    return
                if seen.get(state, math.inf) <= cost:
                    return
                seen[state] = cost
                if targets <= state:
                    best[0] = cost
                    return
                for r in rules:
                    if (set(r.sources) <= state
                            and not set(r.targets) <= state):
                        walk(state | set(r.targets), cost + r.weight)

            walk(frozenset(start_keys), 0)
            return best[0]

        cube_state = {"AMBIENT_DIM", "DIM", "FACETS", "VERTICES_IN_FACETS",
                      "BOUNDED"}
        points_state = {"POINTS"}
        cases = [
            (cube_state, "Polytope", ("F_VECTOR",)),
            (cube_state, "Polytope", ("VERTICES",)),
            (cube_state, "Polytope", ("GRAPH",)),
            (cube_state, "Polytope", ("N_INTERIOR_LATTICE_POINTS",)),
            (cube_state, "Polytope", ("HILBERT_BASIS", "POINTED")),
            (points_state, "Polytope", ("VERTICES_IN_FACETS",)),
            (points_state, "Polytope", ("DIM", "BOUNDED")),
            (points_state, "Polytope", ("F_VECTOR", "HILBERT_BASIS")),
        ]
        for start, klass, targets in cases:
            obj = _bare_object(rb, start, klass)
            schedule = obj.get_schedule(*targets)
            expected = exhaustive_min_weight(start, set(targets), klass)
            assert schedule.total_weight == expected, (targets, expected)

        # subclass rules, compared on an already-cast object
        lattice_cube = cube(3, rulebase=rb)
        lattice_cube.request("LATTICE")
        lattice_cube.cast_if_needed("LatticePolytope")
        for targets in (("REFLEXIVE",), ("SMOOTH",), ("LATTICE_CODEGREE",)):
            schedule = lattice_cube.get_schedule(*targets)
            expected = exhaustive_min_weight(
                set(lattice_cube.list_properties()), set(targets),
                "LatticePolytope")
            assert schedule.total_weight == expected, targets


def _bare_object(rb, keys, klass):
    """Object with the given keys present (dummy values are fine for
    scheduling, which only looks at key sets)."""
    from polylat.ruleengine import ComputationObject
    obj = ComputationObject(rb, klass)
    donor = cube(3, rulebase=rb)
    for key in keys:
        if key == "POINTS":
            obj.take("POINTS", Matrix(M_ROWS))
        else:
            donor.request(key)
            obj.take(key, donor.get(key))
    return obj


def test_criterion_8e_objectfile_round_trip(tmp_path):
    with criterion(8, "e: object file round trip on all produced objects"):
        assert PRODUCED, "earlier criteria must register their objects"
        for i, obj in enumerate(PRODUCED):
            path = tmp_path / f"object_{i}.poly"
            save_object(obj, path)
            back = load_object(path, rulebase=RB)
            assert back.class_tag == obj.class_tag
            assert back.list_properties() == obj.list_properties()
            assert dict(back.store_items()) == dict(obj.store_items())
