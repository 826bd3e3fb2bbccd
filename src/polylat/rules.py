"""The standard rulebase as two tables: properties and rules.

Polytope objects hold exact rational polyhedra (bounded or pointed-unbounded,
via the homogenizing coordinate); LatticePolytope is the subclass guarded by
BOUNDED and LATTICE.  A rule body is one call through a kernel's module
(``geomcore.incidence``, not ``incidence``), so that the function is looked
up when the rule fires.
"""

from . import geomcore, latticecore
from .ruleengine import ClassSpec, Kind, RuleBase, RuleSpec

POLYTOPE = "Polytope"
LATTICE_POLYTOPE = "LatticePolytope"

CLASSES = (
    ClassSpec(POLYTOPE, "Polytope<Rational>"),
    ClassSpec(LATTICE_POLYTOPE, "LatticePolytope", parent=POLYTOPE,
              preconditions=(("BOUNDED", True), ("LATTICE", True))),
)

# (name, kind, class); a class's properties are registered right after it
PROPERTIES = (
    ("POINTS", Kind.MATRIX, POLYTOPE),
    ("VERTICES", Kind.MATRIX, POLYTOPE),
    ("FACETS", Kind.MATRIX, POLYTOPE),
    ("AFFINE_HULL", Kind.MATRIX, POLYTOPE),
    ("VERTICES_IN_FACETS", Kind.INCIDENCE, POLYTOPE),
    ("HASSE_DIAGRAM", Kind.HASSE, POLYTOPE),
    ("F_VECTOR", Kind.VECTOR, POLYTOPE),
    ("F2_VECTOR", Kind.MATRIX, POLYTOPE),
    ("GRAPH", Kind.GRAPH, POLYTOPE),
    ("DUAL_GRAPH", Kind.GRAPH, POLYTOPE),
    ("AMBIENT_DIM", Kind.INT, POLYTOPE),
    ("DIM", Kind.INT, POLYTOPE),
    ("BOUNDED", Kind.BOOL, POLYTOPE),
    ("POINTED", Kind.BOOL, POLYTOPE),
    ("LATTICE", Kind.BOOL, POLYTOPE),
    ("LATTICE_POINTS", Kind.MATRIX, POLYTOPE),
    ("N_LATTICE_POINTS", Kind.INT, POLYTOPE),
    ("INTERIOR_LATTICE_POINTS", Kind.MATRIX, POLYTOPE),
    ("N_INTERIOR_LATTICE_POINTS", Kind.INT, POLYTOPE),
    ("HILBERT_BASIS", Kind.MATRIX, POLYTOPE),
    ("REFLEXIVE", Kind.BOOL, LATTICE_POLYTOPE),
    ("SMOOTH", Kind.BOOL, LATTICE_POLYTOPE),
    ("H_STAR_VECTOR", Kind.VECTOR, LATTICE_POLYTOPE),
    ("LATTICE_VOLUME", Kind.INT, LATTICE_POLYTOPE),
    ("LATTICE_DEGREE", Kind.INT, LATTICE_POLYTOPE),
    ("LATTICE_CODEGREE", Kind.INT, LATTICE_POLYTOPE),
)

# (targets, sources, kernel, class) in registration order, which breaks ties
RULES = (
    # hull conversions
    ("FACETS AFFINE_HULL", "POINTS",
     lambda p: geomcore.facets_from_points(p), POLYTOPE),
    ("FACETS AFFINE_HULL", "VERTICES",
     lambda v: geomcore.facets_from_points(v), POLYTOPE),
    ("AFFINE_HULL", "FACETS",
     lambda f: geomcore.affine_hull_from_facets(f), POLYTOPE),
    ("VERTICES", "POINTS FACETS AFFINE_HULL",
     lambda p, f, a: geomcore.extreme_points_in_input_order(p, f, a),
     POLYTOPE),
    ("VERTICES", "FACETS AFFINE_HULL",
     lambda f, a: geomcore.vertices_from_facets(f, a), POLYTOPE),
    # combinatorics
    ("VERTICES_IN_FACETS", "VERTICES FACETS",
     lambda v, f: geomcore.incidence(v, f), POLYTOPE),
    ("HASSE_DIAGRAM", "VERTICES_IN_FACETS",
     lambda i: geomcore.hasse_diagram(i), POLYTOPE),
    ("F_VECTOR F2_VECTOR", "HASSE_DIAGRAM",
     lambda h: (geomcore.f_vector(h), geomcore.f2_vector(h)), POLYTOPE),
    ("GRAPH DUAL_GRAPH", "HASSE_DIAGRAM VERTICES_IN_FACETS",
     lambda h, i: geomcore.skeleton_graphs(h, i), POLYTOPE),
    # dimensions and flags
    ("AMBIENT_DIM", "FACETS", lambda f: geomcore.ambient_dim(f), POLYTOPE),
    ("AMBIENT_DIM", "POINTS", lambda p: geomcore.ambient_dim(p), POLYTOPE),
    ("AMBIENT_DIM", "VERTICES", lambda v: geomcore.ambient_dim(v), POLYTOPE),
    ("DIM", "VERTICES", lambda v: geomcore.dim_from_generators(v), POLYTOPE),
    ("DIM", "POINTS", lambda p: geomcore.dim_from_generators(p), POLYTOPE),
    ("DIM", "FACETS AFFINE_HULL",
     lambda f, a: geomcore.dim_from_facets(f, a), POLYTOPE),
    ("BOUNDED", "VERTICES", lambda v: geomcore.is_bounded(v), POLYTOPE),
    ("BOUNDED", "POINTS", lambda p: geomcore.is_bounded(p), POLYTOPE),
    ("POINTED", "FACETS AFFINE_HULL",
     lambda f, a: geomcore.is_pointed(f, a), POLYTOPE),
    ("LATTICE", "VERTICES BOUNDED",
     lambda v, b: latticecore.lattice_test(v, b), POLYTOPE),
    # lattice points; the kernel itself rejects unbounded input
    ("LATTICE_POINTS", "VERTICES FACETS AFFINE_HULL BOUNDED",
     lambda v, f, a, _b: latticecore.lattice_points(v, f, a), POLYTOPE),
    ("N_LATTICE_POINTS", "LATTICE_POINTS", lambda m: m.n_rows, POLYTOPE),
    ("INTERIOR_LATTICE_POINTS", "LATTICE_POINTS FACETS",
     lambda m, f: latticecore.interior_rows(m, f), POLYTOPE),
    ("N_INTERIOR_LATTICE_POINTS", "INTERIOR_LATTICE_POINTS",
     lambda m: m.n_rows, POLYTOPE),
    # Hilbert bases
    ("HILBERT_BASIS", "POINTS",
     lambda p: latticecore.hilbert_basis(p), POLYTOPE),
    ("HILBERT_BASIS", "VERTICES",
     lambda v: latticecore.hilbert_basis(v), POLYTOPE),
    # LatticePolytope only; ehrhart_counts rejects lower-dimensional input
    ("REFLEXIVE", "FACETS AFFINE_HULL",
     lambda f, a: latticecore.reflexive(f, a), LATTICE_POLYTOPE),
    ("SMOOTH", "HASSE_DIAGRAM VERTICES DIM AMBIENT_DIM",
     lambda h, v, d, n: latticecore.smooth(h, v, d, n), LATTICE_POLYTOPE),
    ("H_STAR_VECTOR", "VERTICES FACETS DIM AMBIENT_DIM",
     lambda v, f, d, _n: latticecore.h_star(
         latticecore.ehrhart_counts(v, f, d), d), LATTICE_POLYTOPE),
    ("LATTICE_VOLUME", "H_STAR_VECTOR",
     lambda h: latticecore.lattice_volume(h), LATTICE_POLYTOPE),
    ("LATTICE_DEGREE", "H_STAR_VECTOR",
     lambda h: latticecore.lattice_degree(h), LATTICE_POLYTOPE),
    ("LATTICE_CODEGREE", "H_STAR_VECTOR DIM",
     lambda h, d: latticecore.lattice_codegree(h, d), LATTICE_POLYTOPE),
)


def _body(targets, sources, kernel):
    """Call ``kernel`` on the source values; zip its result onto targets."""
    def body(src):
        result = kernel(*(src[s] for s in sources))
        return dict(zip(targets, result if len(targets) > 1 else (result,)))
    return body


def fresh_rulebase() -> RuleBase:
    """Build an independent copy of the standard rulebase."""
    rb = RuleBase()
    for spec in CLASSES:
        rb.register_class(spec)
        for name, kind, klass in PROPERTIES:
            if klass == spec.name:
                rb.register_property(name, kind, klass)
    for targets, sources, kernel, klass in RULES:
        targets, sources = tuple(targets.split()), tuple(sources.split())
        label = ", ".join(targets) + " : " + ", ".join(sources)
        rb.register_rule(RuleSpec(label, targets, sources,
                                  _body(targets, sources, kernel),
                                  required_class=klass))
    return rb


DEFAULT_RULEBASE = fresh_rulebase()
