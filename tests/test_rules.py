"""Integration tests: the standard rulebase driving whole-object flows."""

import importlib.util
import itertools
import pathlib
from fractions import Fraction

import pytest

from polylat.errors import (
    CastRefusedError,
    GeometryError,
    NotFullDimensionalError,
    PolylatError,
    RuleBodyError,
)
from polylat.exactmath import Matrix, Vector
from polylat.geomcore import cross, cube, from_points
from polylat.ruleengine import RuleSpec
from polylat.rules import PROPERTIES, fresh_rulebase

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


# rule ids and classes in registration order; ties between equally cheap
# schedules go to the earlier rule, and the ids are the names that the
# schedule printouts, --trace-rules and perfbench/spans.py show
RULEBASE_PIN = [
    ("FACETS, AFFINE_HULL : POINTS", "Polytope"),
    ("FACETS, AFFINE_HULL : VERTICES", "Polytope"),
    ("AFFINE_HULL : FACETS", "Polytope"),
    ("VERTICES : POINTS, FACETS, AFFINE_HULL", "Polytope"),
    ("VERTICES : FACETS, AFFINE_HULL", "Polytope"),
    ("VERTICES_IN_FACETS : VERTICES, FACETS", "Polytope"),
    ("HASSE_DIAGRAM : VERTICES_IN_FACETS", "Polytope"),
    ("F_VECTOR, F2_VECTOR : HASSE_DIAGRAM", "Polytope"),
    ("GRAPH, DUAL_GRAPH : HASSE_DIAGRAM, VERTICES_IN_FACETS", "Polytope"),
    ("AMBIENT_DIM : FACETS", "Polytope"),
    ("AMBIENT_DIM : POINTS", "Polytope"),
    ("AMBIENT_DIM : VERTICES", "Polytope"),
    ("DIM : VERTICES", "Polytope"),
    ("DIM : POINTS", "Polytope"),
    ("DIM : FACETS, AFFINE_HULL", "Polytope"),
    ("BOUNDED : VERTICES", "Polytope"),
    ("BOUNDED : POINTS", "Polytope"),
    ("POINTED : FACETS, AFFINE_HULL", "Polytope"),
    ("LATTICE : VERTICES, BOUNDED", "Polytope"),
    ("LATTICE_POINTS : VERTICES, FACETS, AFFINE_HULL, BOUNDED", "Polytope"),
    ("N_LATTICE_POINTS : LATTICE_POINTS", "Polytope"),
    ("INTERIOR_LATTICE_POINTS : LATTICE_POINTS, FACETS", "Polytope"),
    ("N_INTERIOR_LATTICE_POINTS : INTERIOR_LATTICE_POINTS", "Polytope"),
    ("HILBERT_BASIS : POINTS", "Polytope"),
    ("HILBERT_BASIS : VERTICES", "Polytope"),
    ("REFLEXIVE : FACETS, AFFINE_HULL", "LatticePolytope"),
    ("SMOOTH : HASSE_DIAGRAM, VERTICES, DIM, AMBIENT_DIM", "LatticePolytope"),
    ("H_STAR_VECTOR : VERTICES, FACETS, DIM, AMBIENT_DIM", "LatticePolytope"),
    ("LATTICE_VOLUME : H_STAR_VECTOR", "LatticePolytope"),
    ("LATTICE_DEGREE : H_STAR_VECTOR", "LatticePolytope"),
    ("LATTICE_CODEGREE : H_STAR_VECTOR, DIM", "LatticePolytope"),
]


@pytest.fixture()
def rb():
    return fresh_rulebase()


def test_rulebase_pin(rb):
    assert [(r.id, r.required_class) for r in rb.rules] == RULEBASE_PIN
    assert all(r.id == r.label for r in rb.rules)


def test_benchmark_rule_names_are_registered(rb):
    # a renamed id would silently move that rule's time to rules.other.s
    path = pathlib.Path(__file__).parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert set(spans.RULE_NAMES) <= {r.id for r in rb.rules}


def test_rule_kernels_are_looked_up_when_fired(rb, monkeypatch):
    # perfbench/spans.py wraps a kernel by rebinding its module attribute
    from polylat import geomcore
    calls = []
    real = geomcore.incidence
    monkeypatch.setattr(geomcore, "incidence",
                        lambda v, f: calls.append(v.n_rows) or real(v, f))
    rows = [(1,) + s for s in itertools.product((-1, 1), repeat=3)]
    from_points(Matrix(rows), rulebase=rb).request("VERTICES_IN_FACETS")
    assert calls == [8]


def test_points_object_reproduces_cube_facets(rb):
    rows = [(1,) + s for s in itertools.product((-1, 1), repeat=3)]
    p = from_points(Matrix(rows), rulebase=rb)
    q = cube(3, rulebase=rb)
    assert p.request("FACETS") == q.request("FACETS")
    assert p.request("AFFINE_HULL") == Matrix([], n_cols=4)


def test_cube_vertices_consistent_with_birth_incidence(rb):
    p = cube(3, rulebase=rb)
    inc_at_birth = p.get("VERTICES_IN_FACETS")
    verts = p.request("VERTICES")
    facets = p.get("FACETS")
    from polylat.geomcore import incidence
    assert incidence(verts, facets) == inc_at_birth


def test_unbounded_lattice_count_is_rule_error(rb):
    c = from_points(Matrix(M_ROWS), rulebase=rb)
    with pytest.raises(RuleBodyError) as exc:
        c.request("N_LATTICE_POINTS")
    assert "HILBERT_BASIS" in str(exc.value)  # points at the cone machinery
    assert isinstance(exc.value.cause, GeometryError)


def test_hilbert_basis_of_cube_equals_lattice_points(rb):
    # two fully independent pipelines must agree on the 27 points
    p = cube(3, rulebase=rb)
    hb = p.request("HILBERT_BASIS")
    lp = p.request("LATTICE_POINTS")
    assert set(hb.rows) == set(lp.rows)
    assert hb.n_rows == 27


def test_second_request_executes_zero_rules(rb):
    fired = []
    rb.trace_hooks.append(lambda rule, obj: fired.append(rule.id))
    p = cube(3, rulebase=rb)
    first = p.request("F_VECTOR")
    count = len(fired)
    assert count > 0
    again = p.request("F_VECTOR")
    assert again == first
    assert len(fired) == count


def test_cone_dimensions_and_flags(rb):
    c = from_points(Matrix(M_ROWS), rulebase=rb)
    assert c.request("AMBIENT_DIM") == 5
    assert c.request("DIM") == 5
    assert c.request("BOUNDED") is False
    assert c.request("POINTED") is True


def test_cross5_is_reflexive_but_not_smooth(rb):
    p = cross(5, rulebase=rb)
    assert p.request("REFLEXIVE") is True
    assert p.class_tag == "LatticePolytope"
    assert p.request("SMOOTH") is False
    assert p.request("LATTICE_VOLUME") == 2 ** 5  # sum over orthants


def test_segment_object_full_lattice_pipeline(rb):
    p = from_points(Matrix([[1, -1], [1, 1]]), rulebase=rb)
    assert p.request("N_LATTICE_POINTS") == 3
    assert p.request("H_STAR_VECTOR") == Vector([1, 1])
    assert p.request("LATTICE_VOLUME") == 2
    assert p.request("LATTICE_DEGREE") == 1
    assert p.request("LATTICE_CODEGREE") == 1
    assert p.request("SMOOTH") is True


def test_lower_dim_object_hstar_is_rule_error(rb):
    p = from_points(Matrix([[1, 0, 0], [1, 2, 2]]), rulebase=rb)
    with pytest.raises(RuleBodyError) as exc:
        p.request("H_STAR_VECTOR")
    assert isinstance(exc.value.cause, NotFullDimensionalError)


def test_class_stays_after_base_requests(rb):
    p = cube(2, rulebase=rb)
    p.request("REFLEXIVE")
    assert p.class_tag == "LatticePolytope"
    p.request("GRAPH")
    p.request("N_LATTICE_POINTS")
    assert p.class_tag == "LatticePolytope"


LINE_ROWS = [(1, 0, 0), (0, 1, 0), (0, -1, 0)]  # a point plus a line

# births that the LatticePolytope cast accepts or refuses for each reason
BIRTHS = {
    "cube": lambda rb: cube(3, rulebase=rb),
    "cross": lambda rb: cross(3, rulebase=rb),
    "lattice triangle": lambda rb: from_points(
        Matrix([(1, 0, 0), (1, 1, 0), (1, 0, 1)]), rulebase=rb),
    "non-lattice triangle": lambda rb: from_points(
        Matrix([(1, Fraction(1, 2), 0), (1, 1, 1), (1, 0, 1)]), rulebase=rb),
    "pointed cone": lambda rb: from_points(
        Matrix([(1, 0, 0), (0, 1, 0), (0, 0, 1)]), rulebase=rb),
    "line": lambda rb: from_points(Matrix(LINE_ROWS), rulebase=rb),
}


def _outcome(rb, obj, action):
    """Rules fired, error raised, class and stored keys after action(obj)."""
    fired = []
    rb.trace_hooks.append(lambda rule, o: fired.append(rule.id))
    try:
        action(obj)
        error = None
    except PolylatError as exc:
        error = (type(exc), str(exc))
    finally:
        rb.trace_hooks.pop()
    return fired, error, obj.class_tag, obj.list_properties()


@pytest.mark.parametrize("birth", BIRTHS)
def test_request_runs_the_printed_schedule(rb, birth):
    for key, _, _ in PROPERTIES:
        printed = []

        def plan_and_apply(obj):
            schedule = obj.get_schedule(key)
            printed.extend(e.id for e in schedule.entries
                           if isinstance(e, RuleSpec))
            schedule.apply(obj)

        planned = _outcome(rb, BIRTHS[birth](rb), plan_and_apply)
        requested = _outcome(rb, BIRTHS[birth](rb), lambda o: o.request(key))
        assert requested == planned, key
        if requested[1] is None:
            assert requested[0] == printed, key


def test_line_refused_on_bounded_by_both_paths(rb):
    for run in (lambda o: o.request("REFLEXIVE"),
                lambda o: o.get_schedule("REFLEXIVE").apply(o)):
        obj = from_points(Matrix(LINE_ROWS), rulebase=rb)
        with pytest.raises(CastRefusedError) as exc:
            run(obj)
        assert exc.value.condition == "BOUNDED"
        assert obj.class_tag == "Polytope"
        assert obj.list_properties() == ["POINTS", "BOUNDED"]


def test_unknown_cast_target_names_the_class(rb):
    obj = cube(2, rulebase=rb)
    with pytest.raises(PolylatError, match="unknown class 'Nope'"):
        obj.cast_if_needed("Nope")
    assert obj.class_tag == "Polytope"
