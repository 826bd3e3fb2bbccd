"""Slow reference implementations and helpers that only tests use.

The oracles share no code with the fraction-free elimination kernel in
``polylat.exactmath``: they work on ``Fraction`` entries by textbook
cofactor expansion, Cramer's rule and Gauss-Jordan elimination.
"""

import itertools
from fractions import Fraction
from math import gcd

from polylat.exactmath import Matrix, Vector


def cofactor_det(rows):
    """Independent determinant oracle: textbook cofactor expansion."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        sub = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * Fraction(rows[0][j]) * cofactor_det(sub)
    return total


def cramer_solve(rows, b):
    """Independent solve oracle for square nonsingular systems."""
    d = cofactor_det(rows)
    assert d != 0
    n = len(rows)
    out = []
    for k in range(n):
        cols = [r[:] for r in rows]
        for i in range(n):
            cols[i] = list(cols[i])
            cols[i][k] = b[i]
        out.append(cofactor_det(cols) / d)
    return out


def gauss_jordan(rows):
    """Reduced row echelon form over Fractions: (nonzero rows, pivots)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    n_cols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0),
                         None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:len(pivots)], pivots


def gauss_jordan_solve(rows, b, n_cols):
    """Unique solution of rows . x = b as a list of Fractions, else None."""
    if not rows:
        return [] if n_cols == 0 else None
    reduced, pivots = gauss_jordan([list(r) + [bv] for r, bv in zip(rows, b)])
    if pivots != list(range(n_cols)):
        return None
    return [row[-1] for row in reduced]


def _primitive(v):
    """Primitive integer multiple of a nonzero rational vector, same
    direction."""
    v = [Fraction(x) for x in v]
    m = 1
    for x in v:
        m = m * x.denominator // gcd(m, x.denominator)
    ints = [int(x * m) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints)


def canonical_basis(rows):
    """Primitive RREF rows of the span, sorted."""
    reduced, _ = gauss_jordan(rows)
    return sorted(_primitive(r) for r in reduced)


def kernel_basis(rows, width):
    """Primitive integer kernel basis read off the RREF, sorted."""
    reduced, pivots = gauss_jordan(rows)
    kernel = []
    for fc in (c for c in range(width) if c not in pivots):
        y = [Fraction(0)] * width
        y[fc] = Fraction(1)
        for r, p in enumerate(pivots):
            y[p] = -reduced[r][fc]
        kernel.append(_primitive(y))
    return sorted(kernel)


def boxscan_parallelepiped(gens):
    """Scan the bounding box of the half-open parallelepiped and keep the
    points with coefficients in [0, 1)."""
    width = len(gens[0])
    lo = [sum(min(g[j], 0) for g in gens) for j in range(width)]
    hi = [sum(max(g[j], 0) for g in gens) for j in range(width)]
    gt = [[g[j] for g in gens] for j in range(width)]
    out = []
    for x in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))):
        lam = gauss_jordan_solve(gt, x, len(gens))
        if lam is not None and all(0 <= c < 1 for c in lam):
            out.append(tuple(x))
    return sorted(out)


def mat_vec(m: Matrix, v: Vector) -> Vector:
    """Matrix times column vector."""
    assert m.n_cols == len(v)
    return Vector(sum((a * b for a, b in zip(row, v.entries)), Fraction(0))
                  for row in m.rows)


def zero_matrix(m: int, n: int) -> Matrix:
    return Matrix([[0] * n for _ in range(m)], n_cols=n)


def n_interior_from_hstar(hstar: Vector) -> int:
    """The top h*-coefficient counts the interior lattice points."""
    return int(hstar.entries[-1])
