"""Exact rational linear algebra: vectors, matrices, elimination, solving.

Everything here is pure and exact.  Scalars are ``fractions.Fraction``
(arbitrary-precision, always reduced, positive denominator), so no rounding
can occur anywhere in the kernel.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DimensionError


def _q(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("boolean is not a rational scalar")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class Vector:
    """Immutable vector of exact rationals.

    By convention index 0 is the homogenizing coordinate when the vector
    represents a point (leading 1), a ray (leading 0) or an inequality
    (alpha_0 + alpha_1 x_1 + ... + alpha_d x_d >= 0).
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable):
        object.__setattr__(self, "entries", tuple(_q(x) for x in entries))

    def __setattr__(self, name, value):
        raise AttributeError("Vector is immutable")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Vector) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(("Vector", self.entries))

    def __add__(self, other: "Vector") -> "Vector":
        self._check_len(other)
        return Vector(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "Vector") -> "Vector":
        self._check_len(other)
        return Vector(a - b for a, b in zip(self.entries, other.entries))

    def __neg__(self) -> "Vector":
        return Vector(-a for a in self.entries)

    def __mul__(self, scalar) -> "Vector":
        s = _q(scalar)
        return Vector(a * s for a in self.entries)

    __rmul__ = __mul__

    def dot(self, other: "Vector") -> Fraction:
        self._check_len(other)
        return sum((a * b for a, b in zip(self.entries, other.entries)),
                   Fraction(0))

    def is_integral(self) -> bool:
        return all(a.denominator == 1 for a in self.entries)

    def _check_len(self, other: "Vector"):
        if len(self) != len(other):
            raise DimensionError(
                f"vector lengths differ: {len(self)} vs {len(other)}")

    def __repr__(self) -> str:
        return f"Vector([{', '.join(str(a) for a in self.entries)}])"

    def __str__(self) -> str:
        return " ".join(str(a) for a in self.entries)


class _AllType:
    """Sentinel for 'all indices' in minor(); ``All`` is its one instance."""

    def __repr__(self):
        return "All"


All = _AllType()


class Matrix:
    """Immutable rectangular matrix of exact rationals.

    ``n_cols`` is stored explicitly so that matrices with zero rows keep
    their width (needed e.g. for empty affine-hull matrices).
    """

    __slots__ = ("rows", "n_cols")

    def __init__(self, rows: Iterable, n_cols: int | None = None):
        rs = tuple(tuple(_q(x) for x in row) for row in rows)
        if rs:
            width = len(rs[0])
            if any(len(r) != width for r in rs):
                raise DimensionError("ragged rows in matrix")
            if n_cols is not None and n_cols != width:
                raise DimensionError(
                    f"declared width {n_cols} != row width {width}")
            n_cols = width
        elif n_cols is None:
            n_cols = 0
        object.__setattr__(self, "rows", rs)
        object.__setattr__(self, "n_cols", int(n_cols))

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def row(self, i: int) -> Vector:
        return Vector(self.rows[i])

    def __getitem__(self, i) -> Vector:
        return self.row(i)

    def __iter__(self):
        return (Vector(r) for r in self.rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.n_cols == other.n_cols)

    def __hash__(self) -> int:
        return hash(("Matrix", self.rows, self.n_cols))

    def transpose(self) -> "Matrix":
        return Matrix([[self.rows[i][j] for i in range(self.n_rows)]
                       for j in range(self.n_cols)], n_cols=self.n_rows)

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for row in self.rows for x in row)

    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def __repr__(self) -> str:
        return f"Matrix({self.n_rows}x{self.n_cols})"

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self.rows)


def minor(m: Matrix, row_set, col_set=All) -> Matrix:
    """Submatrix of the given rows/columns, kept in ascending index order.

    Either index set may be the ``All`` sentinel.
    """
    if row_set is All:
        rows = range(m.n_rows)
    else:
        rows = sorted(set(int(i) for i in row_set))
        if rows and (rows[0] < 0 or rows[-1] >= m.n_rows):
            raise DimensionError(f"row index out of range for {m!r}")
    if col_set is All:
        cols = range(m.n_cols)
    else:
        cols = sorted(set(int(j) for j in col_set))
        if cols and (cols[0] < 0 or cols[-1] >= m.n_cols):
            raise DimensionError(f"column index out of range for {m!r}")
    return Matrix([[m.rows[i][j] for j in cols] for i in rows],
                  n_cols=len(tuple(cols)))


def echelon(rows: Sequence[Sequence[int]], n_cols: int
            ) -> tuple[list[list[int]], list[int], int]:
    """Forward fraction-free (Bareiss) elimination of integer rows.

    Eliminates in columns ``0 .. n_cols-1``; entries beyond ``n_cols`` are
    carried along by the same row operations.  Returns
    ``(echelon_rows, pivots, sign)``: the nonzero rows of an integer row
    echelon form, the pivot column of each, and the parity of the row swaps.
    Zero rows are dropped.  After ``k`` pivots every entry is a
    (k+1)-minor of the input (Sylvester's identity), so each division by
    the previous pivot is exact and the last pivot of a full-rank square
    input is ``sign`` times its determinant.
    """
    work = [list(r) for r in rows if any(r)]
    out: list[list[int]] = []
    pivots: list[int] = []
    sign = 1
    prev = 1
    for col in range(n_cols):
        if not work:
            break
        i = next((i for i, r in enumerate(work) if r[col]), None)
        if i is None:
            continue
        if i:
            work[0], work[i] = work[i], work[0]
            sign = -sign
        head = work[0]
        p = head[col]
        rest = []
        for r in work[1:]:
            f = r[col]
            if f:
                r = [(p * x - f * y) // prev for x, y in zip(r, head)]
                if not any(r):
                    continue
            elif p != prev:
                r = [p * x // prev for x in r]
            rest.append(r)
        out.append(head)
        pivots.append(col)
        work = rest
        prev = p
    return out, pivots, sign


def back_substitute(ech: Sequence[Sequence[int]], pivots: Sequence[int],
                    rhs: Sequence[int]) -> tuple[list[int], int]:
    """Solve the triangular system ``ech[:, pivots] . x = rhs`` of an
    ``echelon`` result for one right-hand side.

    ``rhs`` must be a column carried along by the same elimination.
    Returns integers ``(y, d)`` with ``x = y / d``: ``d`` is the last pivot,
    a minor of the input, so by Cramer's rule every division is exact.
    """
    d = ech[-1][pivots[-1]] if ech else 1
    y = [0] * len(ech)
    for r in range(len(ech) - 1, -1, -1):
        row = ech[r]
        s = d * rhs[r] - sum(row[pivots[j]] * y[j]
                             for j in range(r + 1, len(ech)))
        y[r] = s // row[pivots[r]]
    return y, d


def _integer_rows(rows: Iterable[Sequence[Fraction]]) -> list[list[int]]:
    """Each rational row scaled by the lcm of its denominators."""
    out = []
    for row in rows:
        m = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (m // x.denominator) for x in row])
    return out


def det(m: Matrix) -> Fraction:
    """Exact determinant by fraction-free elimination of the integer-scaled
    rows."""
    if not m.is_square():
        raise DimensionError(f"determinant of non-square {m!r}")
    if m.n_rows == 0:
        return Fraction(1)
    ech, pivots, sign = echelon(_integer_rows(m.rows), m.n_cols)
    if len(pivots) < m.n_cols:
        return Fraction(0)
    scale = 1
    for row in m.rows:
        scale *= lcm(*(x.denominator for x in row))
    return Fraction(sign * ech[-1][-1], scale)


def rank(m: Matrix) -> int:
    """Exact rank by fraction-free elimination."""
    return len(echelon(_integer_rows(m.rows), m.n_cols)[1])


def lin_solve(a: Matrix, b: Vector) -> Vector | None:
    """Solve a . x = b exactly.

    Returns the solution when it is unique (in particular for square
    nonsingular ``a``); returns ``None`` when the system is inconsistent or
    underdetermined.  A shape mismatch is an error, not an absent value.
    """
    if a.n_rows != len(b):
        raise DimensionError(
            f"matrix has {a.n_rows} rows but vector has {len(b)} entries")
    n = a.n_cols
    aug = _integer_rows(row + (bv,) for row, bv in zip(a.rows, b.entries))
    ech, pivots, _ = echelon(aug, n + 1)
    if pivots != list(range(n)):
        return None  # free variables, or a pivot in the constant column
    y, d = back_substitute(ech, pivots, [row[n] for row in ech])
    return Vector(Fraction(v, d) for v in y)


def all_subsets_of_k(k: int, index_range: Sequence[int]) -> list[tuple[int, ...]]:
    """All k-subsets of the given index range, lexicographically ordered.

    ``k`` larger than the range yields the empty list; ``k == 0`` yields a
    single empty subset.
    """
    if k < 0:
        raise ValueError("subset size must be >= 0")
    return list(itertools.combinations(index_range, k))


def primitive(v: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its absolute entries.

    The sign pattern (in particular of the first nonzero entry) is kept.
    """
    g = gcd(*v)
    if g == 0:
        raise ValueError("primitive() of the zero vector")
    return tuple(x // g for x in v)


def primitive_rational(v: Iterable[Fraction]) -> tuple[int, ...]:
    """Scale a nonzero rational vector to its primitive integer multiple.

    The result points in the same direction (positive scaling only).
    """
    return primitive(_integer_rows([[_q(x) for x in v]])[0])


def hermite_normal_form(m: Matrix) -> tuple[Matrix, Matrix]:
    """Row-operation Hermite normal form of an integer matrix.

    Returns ``(h, u)`` with ``h = u . m``, ``u`` unimodular, ``h`` in row
    echelon form with positive pivots and entries above each pivot reduced
    to ``[0, pivot)``.
    """
    if not m.is_integral():
        raise ValueError("hermite_normal_form needs an integer matrix")
    n_rows, n_cols = m.n_rows, m.n_cols
    h = [[int(x) for x in row] for row in m.rows]
    u = [[1 if i == j else 0 for j in range(n_rows)] for i in range(n_rows)]

    def swap(i, j):
        h[i], h[j] = h[j], h[i]
        u[i], u[j] = u[j], u[i]

    def addmul(i, j, f):
        # row_i += f * row_j
        h[i] = [a + f * b for a, b in zip(h[i], h[j])]
        u[i] = [a + f * b for a, b in zip(u[i], u[j])]

    r = 0
    for c in range(n_cols):
        # Euclidean reduction of column c below row r.
        while True:
            nz = [i for i in range(r, n_rows) if h[i][c] != 0]
            if not nz:
                break
            pivot = min(nz, key=lambda i: abs(h[i][c]))
            swap(r, pivot)
            done = True
            for i in range(r + 1, n_rows):
                if h[i][c] != 0:
                    addmul(i, r, -(h[i][c] // h[r][c]))
                    if h[i][c] != 0:
                        done = False
            if done:
                break
        if r < n_rows and h[r][c] != 0:
            if h[r][c] < 0:
                h[r] = [-x for x in h[r]]
                u[r] = [-x for x in u[r]]
            for i in range(r):
                f = h[i][c] // h[r][c]
                if f:
                    addmul(i, r, -f)
            r += 1
            if r == n_rows:
                break
    return Matrix(h, n_cols=n_cols), Matrix(u, n_cols=n_rows)
