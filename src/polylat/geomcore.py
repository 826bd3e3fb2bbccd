"""Exact polyhedral geometry on homogeneous coordinates.

Points and inequalities are rows whose index 0 is the homogenizing
coordinate: a point is (1, x), a ray (0, r), and an inequality
(a0, a1, ..., ad) means a0 + a1 x1 + ... + ad xd >= 0.  All combinatorics
(incidence, face lattice, f-vectors, skeletons) is computed on the
homogenization cone, which makes bounded polytopes and pointed cones look
alike; for an unbounded pointed object the result is the face structure of
the projectively equivalent polytope, far facet included.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    EmptyPolytopeError,
    GeometryError,
    InternalConsistencyError,
    NotPointedError,
)
from .exactmath import (
    Matrix,
    Vector,
    back_substitute,
    echelon,
    primitive,
    primitive_rational,
    rank,
)
from .graphiso import Graph

IntRow = tuple[int, ...]


# ---------------------------------------------------------------------------
# double description
# ---------------------------------------------------------------------------

def _int_rank(rows: Sequence[IntRow], width: int) -> int:
    """Rank of integer rows by fraction-free elimination."""
    return len(echelon(rows, width)[1])


def double_description(
    inequalities: Sequence[IntRow], width: int
) -> tuple[list[IntRow], list[IntRow]]:
    """Extreme rays and lineality basis of {y : <a, y> >= 0 for all a}.

    Inequalities are inserted in input order.  Adjacency of extreme rays is
    decided by the algebraic rank criterion: the inequalities tight at both
    rays must have rank (current cone rank) - 2.  All arithmetic is over
    integers; rays are kept primitive.
    """
    lineality: list[IntRow] = [
        tuple(1 if i == j else 0 for j in range(width)) for i in range(width)
    ]
    rays: list[IntRow] = []
    masks: dict[IntRow, int] = {}
    processed: list[IntRow] = []

    def dot(a: IntRow, b: IntRow) -> int:
        return sum(x * y for x, y in zip(a, b))

    for a in inequalities:
        a = tuple(int(x) for x in a)
        idx = len(processed)
        lin_dots = [dot(a, l) for l in lineality]
        if any(lin_dots):
            j0 = next(i for i, d in enumerate(lin_dots) if d != 0)
            l0 = lineality.pop(j0)
            d0 = lin_dots.pop(j0)
            if d0 < 0:
                l0 = tuple(-x for x in l0)
                d0 = -d0
            lineality = [
                primitive(tuple(d0 * x - d * y for x, y in zip(l, l0)))
                if d else l
                for l, d in zip(lineality, lin_dots)
            ]
            new_rays = []
            new_masks = {}
            for r in rays:
                d = dot(a, r)
                if d:
                    r2 = primitive(
                        tuple(d0 * x - d * y for x, y in zip(r, l0)))
                else:
                    r2 = r
                new_rays.append(r2)
                new_masks[r2] = masks[r] | (1 << idx)
            full_mask = (1 << idx) - 1  # tight at every previous inequality
            new_rays.append(l0)
            new_masks[l0] = full_mask
            rays, masks = new_rays, new_masks
            processed.append(a)
            continue

        cur_rank = width - len(lineality)
        dots = {r: dot(a, r) for r in rays}
        pos = [r for r in rays if dots[r] > 0]
        neg = [r for r in rays if dots[r] < 0]
        if neg:
            created: list[IntRow] = []
            for p in pos:
                for n in neg:
                    z = masks[p] & masks[n]
                    if bin(z).count("1") < cur_rank - 2:
                        continue
                    tight = [processed[i] for i in range(idx) if z >> i & 1]
                    if _int_rank(tight, width) != cur_rank - 2:
                        continue
                    v = primitive(tuple(
                        dots[p] * xn - dots[n] * xp for xp, xn in zip(p, n)))
                    if v not in masks:
                        masks[v] = (z | (1 << idx))
                        created.append(v)
            kept = [r for r in rays if dots[r] >= 0]
            for r in kept:
                if dots[r] == 0:
                    masks[r] |= 1 << idx
            for r in neg:
                del masks[r]
            rays = kept + created
        else:
            for r in rays:
                if dots[r] == 0:
                    masks[r] |= 1 << idx
        processed.append(a)

    return rays, lineality


def _integer_rref(rows: Iterable[IntRow], width: int
                  ) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of integer rows times one positive integer,
    so that it stays integral, and its pivot columns."""
    ech, pivots, _ = echelon(rows, width)
    cols = [back_substitute(ech, pivots, [r[c] for r in ech])
            for c in range(width)]
    return [[y[i] if d > 0 else -y[i] for y, d in cols]
            for i in range(len(ech))], pivots


def _canonical_basis(rows: Iterable[IntRow], width: int) -> list[IntRow]:
    """Canonical (RREF-derived) basis of the span, primitive integer rows."""
    rref, _ = _integer_rref(rows, width)
    return sorted(primitive(row) for row in rref)


def _kernel_basis(rows: Sequence[IntRow], width: int) -> list[IntRow]:
    """Primitive integer basis of {y : <r, y> = 0 for all rows}."""
    rref, pivots = _integer_rref(rows, width)
    d = rref[0][pivots[0]] if rref else 1
    kernel = []
    for fc in (c for c in range(width) if c not in pivots):
        y = [0] * width
        y[fc] = d
        for row, p in zip(rref, pivots):
            y[p] = -row[fc]
        kernel.append(primitive(y))
    return sorted(kernel)


def _primitive_rows(m: Matrix) -> list[IntRow]:
    return [primitive_rational(row) for row in m.rows]


# ---------------------------------------------------------------------------
# representation conversion
# ---------------------------------------------------------------------------

def facets_from_points(points: Matrix) -> tuple[Matrix, Matrix]:
    """Irredundant facets and affine-hull equations of cone(points rows).

    The double description method runs on the polar side: every point row
    is an inequality on the facet vector.  Extreme rays of the polar are
    the facets; its lineality is the affine hull.
    """
    if points.n_rows == 0:
        raise GeometryError("no points given")
    width = points.n_cols
    rays, lineality = double_description(_primitive_rows(points), width)
    facets = Matrix(sorted(rays), n_cols=width)
    hull = Matrix(_canonical_basis(lineality, width), n_cols=width)
    return facets, hull


def vertices_from_facets(facets: Matrix, affine_hull: Matrix) -> Matrix:
    """Vertex/ray description from facets plus affine-hull equations.

    Vertices come out with homogenizing coordinate 1, rays as primitive
    integer rows with leading 0; rows are sorted lexicographically.
    """
    width = facets.n_cols if facets.n_cols else affine_hull.n_cols
    if width == 0:
        raise GeometryError("no inequalities or equations given")
    ineqs: list[IntRow] = _primitive_rows(facets)
    for eq in _primitive_rows(affine_hull):
        ineqs.append(eq)
        ineqs.append(tuple(-x for x in eq))
    ineqs.append(tuple(1 if i == 0 else 0 for i in range(width)))
    rays, lineality = double_description(ineqs, width)
    if lineality:
        raise NotPointedError("feasible set contains a line")
    rows = []
    has_vertex = False
    for r in rays:
        if r[0] > 0:
            rows.append(tuple(Fraction(x, r[0]) for x in r))
            has_vertex = True
        else:
            rows.append(tuple(Fraction(x) for x in r))
    if not has_vertex:
        raise EmptyPolytopeError("EMPTY: no feasible point")
    return Matrix(sorted(rows), n_cols=width)


def extreme_points_in_input_order(points: Matrix, facets: Matrix,
                                  affine_hull: Matrix) -> Matrix:
    """Irredundant vertex/ray rows of a POINTS matrix, keeping input order.

    Matches the canonical vertex set computed from the facets against the
    normalized point rows, so generator numbering follows the input.
    """
    canonical = vertices_from_facets(facets, affine_hull)
    wanted = set(canonical.rows)
    rows = []
    seen = set()
    for row in points.rows:
        key = _normalized_generator(row)
        if key in wanted and key not in seen:
            rows.append(key)
            seen.add(key)
    if len(rows) != canonical.n_rows:
        raise InternalConsistencyError(
            "points matrix misses a vertex of its own hull")
    return Matrix(rows, n_cols=points.n_cols)


def _normalized_generator(row: Sequence[Fraction]) -> tuple[Fraction, ...]:
    if row[0] > 0:
        return tuple(Fraction(x, 1) / row[0] for x in row)
    return tuple(Fraction(x) for x in primitive_rational(row))


def affine_hull_from_facets(facets: Matrix) -> Matrix:
    """Equations implied by an inequality description.

    Runs the primal double description and returns the equations vanishing
    on every generator of the homogenization cone.
    """
    width = facets.n_cols
    ineqs = _primitive_rows(facets)
    ineqs.append(tuple(1 if i == 0 else 0 for i in range(width)))
    rays, lineality = double_description(ineqs, width)
    span = rays + lineality
    if not span:
        raise EmptyPolytopeError("EMPTY: no feasible point")
    return Matrix(_kernel_basis(span, width), n_cols=width)


# ---------------------------------------------------------------------------
# incidence and the face lattice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IncidenceMatrix:
    """Per-facet vertex index sets (VERTICES_IN_FACETS)."""

    rows: tuple[frozenset[int], ...]
    n_vertices: int

    def __post_init__(self):
        for r in self.rows:
            if any(v < 0 or v >= self.n_vertices for v in r):
                raise GeometryError("vertex index out of range")
        if len(set(self.rows)) != len(self.rows):
            raise GeometryError("two facets share the same vertex set")

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> frozenset[int]:
        return self.rows[i]

    def __iter__(self):
        return iter(self.rows)

    def __str__(self) -> str:
        return "\n".join(
            "{" + " ".join(str(v) for v in sorted(r)) + "}" for r in self.rows)


def incidence(vertices: Matrix, facets: Matrix) -> IncidenceMatrix:
    """Vertex v lies in facet row F iff the inequality is tight at v."""
    rows = []
    for f in facets.rows:
        tight = frozenset(
            i for i, v in enumerate(vertices.rows)
            if sum(a * b for a, b in zip(f, v)) == 0)
        rows.append(tight)
    return IncidenceMatrix(tuple(rows), vertices.n_rows)


class HasseDiagram:
    """Graded face lattice, nodes are (vertex index set, dimension)."""

    def __init__(self, nodes: Sequence[tuple[frozenset[int], int]],
                 edges: Iterable[tuple[int, int]], n_vertices: int):
        self.nodes: tuple[tuple[frozenset[int], int], ...] = tuple(
            (frozenset(s), int(d)) for s, d in nodes)
        self.edges: frozenset[tuple[int, int]] = frozenset(
            (int(a), int(b)) for a, b in edges)
        self.n_vertices = int(n_vertices)

    @property
    def bottom(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return len(self.nodes) - 1

    @property
    def dim(self) -> int:
        return self.nodes[-1][1]

    def faces_of_dim(self, d: int) -> list[frozenset[int]]:
        return [s for s, dd in self.nodes if dd == d]

    def node_ids_of_dim(self, d: int) -> list[int]:
        return [i for i, (_, dd) in enumerate(self.nodes) if dd == d]

    def covers_above(self, i: int) -> list[int]:
        return sorted(b for a, b in self.edges if a == i)

    def covers_below(self, i: int) -> list[int]:
        return sorted(a for a, b in self.edges if b == i)

    def __eq__(self, other) -> bool:
        return (isinstance(other, HasseDiagram)
                and self.nodes == other.nodes and self.edges == other.edges
                and self.n_vertices == other.n_vertices)

    def __hash__(self):
        return hash((self.nodes, self.edges, self.n_vertices))

    def __repr__(self) -> str:
        return (f"HasseDiagram({len(self.nodes)} faces, dim {self.dim}, "
                f"{self.n_vertices} vertices)")


def hasse_diagram(inc: IncidenceMatrix) -> HasseDiagram:
    """Build the full face lattice bottom-up from vertex-facet incidence.

    A face is the closure of a vertex set S: the vertices lying in every
    facet containing S.  Covers of a face are the minimal closures obtained
    by joining it with one more vertex.
    """
    n = inc.n_vertices
    full = (1 << n) - 1
    facet_masks = []
    for r in inc.rows:
        m = 0
        for v in r:
            m |= 1 << v
        facet_masks.append(m)

    def closure(mask: int) -> int:
        c = full
        for fm in facet_masks:
            if mask & ~fm == 0:
                c &= fm
        return c

    def to_set(mask: int) -> frozenset[int]:
        return frozenset(i for i in range(n) if mask >> i & 1)

    bottom = closure(0)
    nodes: list[tuple[frozenset[int], int]] = [(to_set(bottom), -1)]
    ids = {bottom: 0}
    edges: list[tuple[int, int]] = []
    frontier = [bottom]
    dim = -1
    while frontier and not (len(frontier) == 1 and frontier[0] == full):
        dim += 1
        next_level: set[int] = set()
        cover_pairs: list[tuple[int, int]] = []
        for face in frontier:
            cands = set()
            for v in range(n):
                if not face >> v & 1:
                    cands.add(closure(face | (1 << v)))
            covers = [g for g in cands
                      if not any(h != g and h & ~g == 0 for h in cands)]
            for g in covers:
                next_level.add(g)
                cover_pairs.append((face, g))
        ordered = sorted(next_level, key=lambda m: sorted(to_set(m)))
        for g in ordered:
            ids[g] = len(nodes)
            nodes.append((to_set(g), dim))
        for f, g in cover_pairs:
            edges.append((ids[f], ids[g]))
        frontier = ordered
    return HasseDiagram(nodes, edges, n)


def f_vector(h: HasseDiagram) -> Vector:
    """Counts of proper nonempty faces by dimension 0 .. dim-1."""
    return Vector(len(h.faces_of_dim(d)) for d in range(h.dim))


def f2_vector(h: HasseDiagram) -> Matrix:
    """Incidence-count matrix: entry (i, j) is the number of pairs of an
    i-face and a j-face with one contained in the other; diagonal is the
    f-vector."""
    d_top = h.dim
    if d_top <= 0:
        return Matrix([], n_cols=max(d_top, 0))
    proper = [i for i, (_, d) in enumerate(h.nodes) if 0 <= d < d_top]
    dim_of = {i: h.nodes[i][1] for i in proper}
    desc: dict[int, int] = {i: 0 for i in proper}
    for i in sorted(proper, key=lambda k: dim_of[k]):
        acc = 0
        for below in h.covers_below(i):
            if below in desc:
                acc |= desc[below] | (1 << below)
        desc[i] = acc
    level_mask = [0] * d_top
    for i in proper:
        level_mask[dim_of[i]] |= 1 << i
    out = [[0] * d_top for _ in range(d_top)]
    for i in proper:
        di = dim_of[i]
        out[di][di] += 1
        for dj in range(di):
            out[dj][di] += bin(desc[i] & level_mask[dj]).count("1")
    for i in range(d_top):
        for j in range(i):
            out[i][j] = out[j][i]
    return Matrix(out, n_cols=d_top)


def skeleton_graphs(h: HasseDiagram, inc: IncidenceMatrix) -> tuple[Graph, Graph]:
    """Vertex-edge graph and facet-ridge (dual) graph of the face lattice.

    Dual graph nodes are numbered like the incidence rows.
    """
    g = Graph(h.n_vertices)
    for face in h.faces_of_dim(1):
        pair = sorted(face)
        if len(pair) != 2:
            raise InternalConsistencyError(
                f"1-face with {len(pair)} vertices")
        g.add_edge(pair[0], pair[1])

    facet_index = {r: i for i, r in enumerate(inc.rows)}
    dual = Graph(len(inc.rows))
    if h.dim >= 2:
        facet_ids = set(h.node_ids_of_dim(h.dim - 1))
        for ridge_id in h.node_ids_of_dim(h.dim - 2):
            above = [a for a in h.covers_above(ridge_id) if a in facet_ids]
            if len(above) != 2:
                raise InternalConsistencyError(
                    f"ridge contained in {len(above)} facets")
            fa = facet_index[h.nodes[above[0]][0]]
            fb = facet_index[h.nodes[above[1]][0]]
            dual.add_edge(fa, fb)
    return g, dual


# ---------------------------------------------------------------------------
# scalar predicates
# ---------------------------------------------------------------------------

def is_bounded(generators: Matrix) -> bool:
    """True iff every generator row has positive homogenizing coordinate."""
    return all(row[0] > 0 for row in generators.rows)


def ambient_dim(m: Matrix) -> int:
    return m.n_cols - 1


def dim_from_generators(m: Matrix) -> int:
    return rank(m) - 1


def dim_from_facets(facets: Matrix, affine_hull: Matrix) -> int:
    return facets.n_cols - 1 - affine_hull.n_rows


def is_pointed(facets: Matrix, affine_hull: Matrix) -> bool:
    """Pointed iff facet normals plus equations span the whole space."""
    rows = list(facets.rows) + list(affine_hull.rows)
    return rank(Matrix(rows, n_cols=facets.n_cols)) == facets.n_cols


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _default_rulebase():
    from .rules import DEFAULT_RULEBASE
    return DEFAULT_RULEBASE


def cube(d: int, rulebase=None):
    """The d-cube with +-1 coordinates, born from its facet description."""
    from .ruleengine import ComputationObject
    if d < 1:
        raise GeometryError("cube dimension must be >= 1")
    rb = rulebase or _default_rulebase()
    facet_rows = []
    for i in range(1, d + 1):
        for s in (1, -1):
            row = [1] + [0] * d
            row[i] = s
            facet_rows.append(tuple(row))
    facet_rows.sort()
    vertex_rows = [(1,) + signs
                   for signs in itertools.product((-1, 1), repeat=d)]
    vif = tuple(
        frozenset(i for i, v in enumerate(vertex_rows)
                  if sum(a * b for a, b in zip(f, v)) == 0)
        for f in facet_rows)
    obj = ComputationObject(rb, "Polytope")
    obj.take("AMBIENT_DIM", d)
    obj.take("DIM", d)
    obj.take("FACETS", Matrix(facet_rows, n_cols=d + 1))
    obj.take("VERTICES_IN_FACETS", IncidenceMatrix(vif, len(vertex_rows)))
    obj.take("BOUNDED", True)
    return obj


def cross(d: int, rulebase=None):
    """The d-dimensional cross polytope conv(+-e_i), born from vertices."""
    from .ruleengine import ComputationObject
    if d < 1:
        raise GeometryError("cross polytope dimension must be >= 1")
    rb = rulebase or _default_rulebase()
    rows = []
    for i in range(1, d + 1):
        for s in (1, -1):
            row = [0] * (d + 1)
            row[0] = 1
            row[i] = s
            rows.append(tuple(row))
    rows.sort()
    obj = ComputationObject(rb, "Polytope")
    obj.take("AMBIENT_DIM", d)
    obj.take("DIM", d)
    obj.take("VERTICES", Matrix(rows, n_cols=d + 1))
    obj.take("BOUNDED", True)
    return obj


def from_points(m: Matrix, rulebase=None):
    """Object spanned by homogeneous point/ray rows (leading 1 or 0).

    Rows with positive leading entry are scaled to leading 1; rows with
    leading 0 are rays.  Zero rows and negative leading entries are
    rejected.
    """
    from .ruleengine import ComputationObject
    if m.n_rows == 0:
        raise GeometryError("no points given")
    rows = []
    for row in m.rows:
        if all(x == 0 for x in row):
            raise GeometryError("zero row is not a point or ray")
        if row[0] < 0:
            raise GeometryError("negative homogenizing coordinate")
        if row[0] > 0:
            rows.append(tuple(x / row[0] for x in row))
        else:
            rows.append(row)
    rb = rulebase or _default_rulebase()
    obj = ComputationObject(rb, "Polytope")
    obj.take("POINTS", Matrix(rows, n_cols=m.n_cols))
    return obj
