"""Lattice properties: point counts, Ehrhart data, h*, Hilbert bases.

The lattice is always Z^n.  Counting is by direct bounding-box
enumeration; Hilbert bases come from a placing triangulation of the
generators plus half-open parallelepiped points, followed by a
reducibility scan.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    GeometryError,
    InternalConsistencyError,
    NotFullDimensionalError,
    NotLatticeError,
    NotPointedError,
)
from .exactmath import (
    All,
    Matrix,
    Vector,
    all_subsets_of_k,
    back_substitute,
    det,
    echelon,
    hermite_normal_form,
    lin_solve,
    minor,
    primitive,
    primitive_rational,
    rank,
)
from .geomcore import HasseDiagram, IntRow, _int_rank, double_description


# ---------------------------------------------------------------------------
# lattice points and Ehrhart counts
# ---------------------------------------------------------------------------

def lattice_test(vertices: Matrix, bounded: bool) -> bool:
    """True iff the object is bounded with integral vertex coordinates."""
    if not bounded:
        return False
    return all(row[0] == 1 and all(x.denominator == 1 for x in row)
               for row in vertices.rows)


def lattice_points(vertices: Matrix, facets: Matrix,
                   equations: Matrix | None = None,
                   interior: bool = False) -> Matrix:
    """Integer points of a bounded polytope, as sorted homogeneous rows.

    Scans the coordinate bounding box of the vertices and keeps the points
    satisfying every facet inequality (strictly, for the interior variant)
    and every affine-hull equation.
    """
    if any(row[0] != 1 for row in vertices.rows):
        raise GeometryError("lattice point enumeration needs a bounded polytope")
    d = vertices.n_cols - 1
    eq_rows = list(equations.rows) if equations is not None else []
    bounds = []
    for j in range(1, d + 1):
        vals = [row[j] for row in vertices.rows]
        bounds.append(range(math.ceil(min(vals)), math.floor(max(vals)) + 1))
    # facets and equations are integral in every produced representation;
    # plain int arithmetic here is several times faster than Fraction
    if facets.is_integral() and all(x.denominator == 1
                                    for e in eq_rows for x in e):
        f_rows = [tuple(int(x) for x in row) for row in facets.rows]
        e_rows = [tuple(int(x) for x in row) for row in eq_rows]
    else:
        f_rows = [tuple(row) for row in facets.rows]
        e_rows = [tuple(row) for row in eq_rows]
    rows = []
    for xs in itertools.product(*bounds):
        p = (1,) + xs
        ok = True
        for f in f_rows:
            s = sum(a * b for a, b in zip(f, p))
            if s < 0 or (interior and s == 0):
                ok = False
                break
        if ok:
            for e in e_rows:
                if sum(a * b for a, b in zip(e, p)) != 0:
                    ok = False
                    break
        if ok:
            rows.append(p)
    return Matrix(rows, n_cols=d + 1)


def interior_rows(points: Matrix, facets: Matrix) -> Matrix:
    """Rows of a lattice point matrix that satisfy every facet strictly."""
    rows = [p for p in points.rows
            if all(sum(a * b for a, b in zip(f, p)) > 0 for f in facets.rows)]
    return Matrix(rows, n_cols=points.n_cols)


def ehrhart_counts(vertices: Matrix, facets: Matrix, k_max: int) -> tuple[int, ...]:
    """Lattice point counts of the dilates 0P, 1P, ..., k_max P.

    Requires a full-dimensional bounded lattice polytope.
    """
    if any(row[0] != 1 for row in vertices.rows):
        raise GeometryError("Ehrhart counts need a bounded polytope")
    if not vertices.is_integral():
        raise NotLatticeError("Ehrhart counts need integral vertices")
    if rank(vertices) != vertices.n_cols:
        raise NotFullDimensionalError(
            "Ehrhart counts need a full-dimensional polytope")
    counts = [1]
    for k in range(1, k_max + 1):
        vk = Matrix([(row[0],) + tuple(k * x for x in row[1:])
                     for row in vertices.rows], n_cols=vertices.n_cols)
        fk = Matrix([(k * row[0],) + tuple(row[1:])
                     for row in facets.rows], n_cols=facets.n_cols)
        counts.append(lattice_points(vk, fk).n_rows)
    return tuple(counts)


# ---------------------------------------------------------------------------
# h* and derived invariants
# ---------------------------------------------------------------------------

def h_star(counts: Sequence[int], d: int) -> Vector:
    """h*-coefficients from the dilate counts E(0) .. E(d).

    Inverts the generating-function identity
    sum_k E(k) t^k = h*(t) / (1-t)^(d+1) by the binomial transform
    h*_j = sum_i (-1)^(j-i) C(d+1, j-i) E(i).  Negative output signals an
    upstream counting bug and raises.
    """
    if len(counts) != d + 1:
        raise GeometryError(f"need exactly {d + 1} dilate counts, "
                            f"got {len(counts)}")
    hs = []
    for j in range(d + 1):
        v = sum((-1) ** (j - i) * math.comb(d + 1, j - i) * counts[i]
                for i in range(j + 1))
        if v < 0:
            raise InternalConsistencyError(
                f"negative h*-coefficient h*_{j} = {v}")
        hs.append(v)
    return Vector(hs)


def lattice_volume(hstar: Vector) -> int:
    """Normalized volume: the coefficient sum of h*."""
    return int(sum(hstar.entries))


def lattice_degree(hstar: Vector) -> int:
    """Largest index with a nonzero h*-coefficient."""
    nz = [i for i, x in enumerate(hstar.entries) if x != 0]
    return nz[-1] if nz else 0


def lattice_codegree(hstar: Vector, d: int) -> int:
    """Smallest dilation factor giving an interior lattice point."""
    return d + 1 - lattice_degree(hstar)


# ---------------------------------------------------------------------------
# reflexivity and smoothness
# ---------------------------------------------------------------------------

def reflexive(facets: Matrix, affine_hull: Matrix) -> bool:
    """Origin interior and every facet at integral lattice distance one.

    With primitive integer facet rows this reads: the inhomogeneous part of
    every row is primitive and the homogenizing entry equals 1.
    """
    if affine_hull.n_rows > 0:
        return False  # no interior point at all
    for row in facets.rows:
        if row[0] != 1:
            return False
        tail = [int(x) for x in row[1:]]
        g = 0
        for x in tail:
            g = math.gcd(g, abs(x))
        if g != 1:
            return False
    return True


def smooth(hasse: HasseDiagram, vertices: Matrix, d: int, ambient: int) -> bool:
    """Every vertex simple with a unimodular cone of primitive edge vectors."""
    if d != ambient:
        raise NotFullDimensionalError(
            "smoothness test needs a full-dimensional polytope")
    if not vertices.is_integral() or any(r[0] != 1 for r in vertices.rows):
        raise NotLatticeError("smoothness test needs a lattice polytope")
    neighbors: dict[int, set[int]] = {i: set() for i in range(vertices.n_rows)}
    for face in hasse.faces_of_dim(1):
        a, b = sorted(face)
        neighbors[a].add(b)
        neighbors[b].add(a)
    for v, nbrs in neighbors.items():
        if len(nbrs) != d:
            return False
        dirs = []
        for w in sorted(nbrs):
            delta = [int(x - y) for x, y
                     in zip(vertices.rows[w][1:], vertices.rows[v][1:])]
            dirs.append(primitive(delta))
        if abs(det(Matrix(dirs, n_cols=d))) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Hilbert bases of pointed cones
# ---------------------------------------------------------------------------

def in_cone(x: Sequence[int], facets: Sequence[IntRow],
            equations: Sequence[IntRow]) -> bool:
    if any(sum(a * b for a, b in zip(e, x)) != 0 for e in equations):
        return False
    return all(sum(a * b for a, b in zip(f, x)) >= 0 for f in facets)


def placing_triangulation(generators: Sequence[IntRow]) -> list[tuple[int, ...]]:
    """Triangulate cone(generators) into simplicial subcones.

    Generators are placed one after the other (callers pass them
    lexicographically sorted, which pins the result); each new generator
    outside the current cone is joined to the visible boundary simplices.
    Returns index tuples into ``generators``.
    """
    gens = [tuple(g) for g in generators]
    width = len(gens[0])
    simplices: list[tuple[int, ...]] = []
    placed: list[int] = []
    cur_rank = 0
    for i, g in enumerate(gens):
        if not placed:
            simplices = [(i,)]
            placed = [i]
            cur_rank = 1
            continue
        new_rank = _int_rank([gens[j] for j in placed] + [g], width)
        if new_rank > cur_rank:
            simplices = [s + (i,) for s in simplices]
            cur_rank = new_rank
        else:
            support, _ = double_description([gens[j] for j in placed], width)
            visible = [f for f in support
                       if sum(a * b for a, b in zip(f, g)) < 0]
            fresh = set()
            for f in visible:
                for s in simplices:
                    ridge = tuple(j for j in s
                                  if sum(a * b for a, b in zip(f, gens[j])) == 0)
                    if len(ridge) == len(s) - 1:
                        fresh.add(tuple(sorted(ridge + (i,))))
            simplices.extend(sorted(fresh))
        placed.append(i)
    return simplices


def parallelepiped_points(gen_rows: Sequence[IntRow]) -> list[IntRow]:
    """Integer points of the half-open parallelepiped of a simplicial cone.

    For independent generators g_1..g_k these are the points
    sum lambda_i g_i with 0 <= lambda_i < 1.  Enumeration runs over a
    complete residue system derived from the Hermite normal form of the
    pivot-column minor gp.  gp^T is factored once, together with the
    identity that carries the right-hand sides, and each residue costs one
    integer back-substitution.
    """
    k = len(gen_rows)
    width = len(gen_rows[0]) if gen_rows else 0
    _, pivots, _ = echelon(gen_rows, width)
    if len(pivots) != k:
        raise GeometryError("parallelepiped needs independent generators")
    gp = [[row[c] for c in pivots] for row in gen_rows]
    h, _ = hermite_normal_form(Matrix(gp, n_cols=k))
    ech, ech_pivots, _ = echelon([[gp[i][j] for i in range(k)]
                                  + [int(i == j) for i in range(k)]
                                  for j in range(k)], k)
    out = []
    for resid in itertools.product(*(range(int(h.rows[i][i]))
                                     for i in range(k))):
        rhs = [sum(a * b for a, b in zip(row[k:], resid)) for row in ech]
        y, d = back_substitute(ech, ech_pivots, rhs)
        if d < 0:
            y, d = [-v for v in y], -d
        # lambda_i = y_i / d; its fractional part is (y_i mod d) / d
        t = [v % d for v in y]
        x = [sum(ti * row[c] for ti, row in zip(t, gen_rows))
             for c in range(width)]
        if all(v % d == 0 for v in x):
            out.append(tuple(v // d for v in x))
    return out


def hilbert_basis(points: Matrix) -> Matrix:
    """Unique minimal generating set of the lattice points of a pointed cone.

    Steps: primitive generators; placing triangulation; half-open
    parallelepiped points per simplicial cone; reduction, dropping x when
    some other nonzero candidate y has x - y still in the cone.  Output
    rows are sorted lexicographically.
    """
    if points.n_rows == 0:
        raise GeometryError("no generators given")
    width = points.n_cols
    gens = sorted({primitive_rational(row) for row in points.rows})
    facets, equations = double_description(gens, width)
    if _int_rank(list(facets) + list(equations), width) != width:
        raise NotPointedError("Hilbert basis needs a pointed cone")

    candidates: set[IntRow] = set(gens)
    for s in placing_triangulation(gens):
        for x in parallelepiped_points([gens[j] for j in s]):
            if any(x):
                candidates.add(x)

    # strictly positive grading on the cone: sum of all facet normals
    w = tuple(sum(f[c] for f in facets) for c in range(width))

    def grade(x: IntRow) -> int:
        return sum(a * b for a, b in zip(w, x))

    ordered = sorted(candidates, key=lambda x: (grade(x), x))
    survivors: list[IntRow] = []
    for idx, x in enumerate(ordered):
        others = itertools.chain(survivors, ordered[idx + 1:])
        if any(y != x and in_cone([a - b for a, b in zip(x, y)],
                                  facets, equations) for y in others):
            continue
        survivors.append(x)
    for x in survivors:
        if any(y != x and in_cone([a - b for a, b in zip(x, y)],
                                  facets, equations) for y in survivors):
            raise InternalConsistencyError("Hilbert basis reduction unstable")
    return Matrix(sorted(survivors), n_cols=width)


# ---------------------------------------------------------------------------
# the six-generator witness scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessLine:
    subset: tuple[int, ...]
    solution: Vector

    @property
    def integral(self) -> bool:
        return all(x.denominator == 1 for x in self.solution.entries)

    @property
    def nonnegative(self) -> bool:
        return all(x >= 0 for x in self.solution.entries)


@dataclass(frozen=True)
class WitnessScanReport:
    """Per-subset solutions of y^T B = x over the nonsingular row minors."""

    lines: tuple[WitnessLine, ...]
    n_subsets: int

    @property
    def n_nonsingular(self) -> int:
        return len(self.lines)

    @property
    def n_integral(self) -> int:
        return sum(1 for l in self.lines if l.integral)

    @property
    def n_with_negative(self) -> int:
        return sum(1 for l in self.lines if not l.nonnegative)

    @property
    def n_nonnegative_integral(self) -> int:
        return sum(1 for l in self.lines if l.integral and l.nonnegative)

    def summary(self) -> str:
        return (f"{self.n_subsets} subsets, {self.n_nonsingular} nonsingular, "
                f"{self.n_integral} integral, "
                f"{self.n_with_negative} with a negative coefficient, "
                f"{self.n_nonnegative_integral} nonnegative integral")


def caratheodory_witness_scan(m: Matrix, x: Vector) -> WitnessScanReport:
    """Solve y^T B = x for every nonsingular maximal row minor B of m.

    Walks the k-subsets of row indices (k = column count) in lexicographic
    order; a subset contributes a line when its minor is nonsingular.
    """
    if len(x) != m.n_cols:
        raise GeometryError("witness vector length must match column count")
    k = m.n_cols
    lines = []
    subsets = all_subsets_of_k(k, range(m.n_rows))
    for s in subsets:
        # a square system has a unique solution iff its matrix is nonsingular
        y = lin_solve(minor(m, s, All).transpose(), x)
        if y is not None:
            lines.append(WitnessLine(s, y))
    return WitnessScanReport(tuple(lines), len(subsets))
