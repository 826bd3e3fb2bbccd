"""Seeded differential test of the fraction-free elimination kernel.

Every routine built on ``exactmath.echelon`` is compared with the
Fraction Gauss-Jordan reference and the cofactor/Cramer oracles in
``oracles.py`` on random integer and rational matrices: square and
rectangular, full rank and rank-deficient, with zero rows or columns.
"""

import itertools
import random
from fractions import Fraction

import pytest

from polylat.exactmath import (
    All,
    Matrix,
    Vector,
    det,
    echelon,
    lin_solve,
    minor,
    rank,
)
from polylat.geomcore import _canonical_basis, _int_rank, _kernel_basis
from polylat.latticecore import (
    caratheodory_witness_scan,
    parallelepiped_points,
)
from oracles import (
    boxscan_parallelepiped,
    canonical_basis,
    cofactor_det,
    cramer_solve,
    gauss_jordan,
    gauss_jordan_solve,
    kernel_basis,
)


def random_matrix(rng, n_rows, n_cols, rational):
    """Random matrix whose rank is at most a random target, so that
    rank-deficient inputs are common."""
    target = rng.randint(0, min(n_rows, n_cols))

    def entry():
        if rational:
            return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        return rng.randint(-4, 4)

    basis = [[entry() for _ in range(n_cols)] for _ in range(target)]
    rows = []
    for _ in range(n_rows):
        if basis and rng.random() < 0.6:
            coeffs = [rng.randint(-2, 2) for _ in basis]
            rows.append([sum(c * b[j] for c, b in zip(coeffs, basis))
                         for j in range(n_cols)])
        else:
            rows.append([entry() for _ in range(n_cols)])
    return rows


def matrix_cases(seed, count):
    rng = random.Random(seed)
    yield [], 0
    yield [], 3
    yield [[], []], 0
    yield [[0, 0, 0]], 3
    for _ in range(count):
        n_rows = rng.randint(0, 6)
        n_cols = rng.randint(0, 6)
        rational = rng.random() < 0.4
        yield random_matrix(rng, n_rows, n_cols, rational), n_cols


def test_rank_det_and_echelon_match_reference():
    mismatches = []
    for rows, n_cols in matrix_cases(11, 400):
        m = Matrix(rows, n_cols=n_cols)
        _, ref_pivots = gauss_jordan(rows)
        if rank(m) != len(ref_pivots):
            mismatches.append(("rank", rows))
        if m.is_integral():
            int_rows = [[int(x) for x in r] for r in rows]
            ech, pivots, sign = echelon(int_rows, n_cols)
            if pivots != ref_pivots or len(ech) != len(pivots):
                mismatches.append(("echelon pivots", rows))
            if _int_rank(int_rows, n_cols) != len(ref_pivots):
                mismatches.append(("_int_rank", rows))
            for row, p in zip(ech, pivots):
                if row[p] == 0 or any(row[:p]):
                    mismatches.append(("echelon shape", rows))
            if n_cols == len(rows) == len(pivots) > 0:
                if sign * ech[-1][-1] != cofactor_det(int_rows):
                    mismatches.append(("echelon sign", rows))
        if n_cols == len(rows):
            if det(m) != cofactor_det(rows):
                mismatches.append(("det", rows))
    assert mismatches == []


def test_lin_solve_matches_reference():
    rng = random.Random(12)
    mismatches = []
    for rows, n_cols in matrix_cases(13, 250):
        a = Matrix(rows, n_cols=n_cols)
        x0 = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
              for _ in range(n_cols)]
        consistent = [sum(r[j] * x0[j] for j in range(n_cols)) for r in rows]
        arbitrary = [rng.randint(-5, 5) for _ in rows]
        for b in (consistent, arbitrary):
            got = lin_solve(a, Vector(b))
            ref = gauss_jordan_solve(rows, b, n_cols)
            if (None if got is None else list(got)) != ref:
                mismatches.append(("lin_solve", rows, b))
            if n_cols == len(rows) and det(a) != 0:
                if list(got) != cramer_solve(rows, b):
                    mismatches.append(("cramer", rows, b))
    assert mismatches == []


def test_canonical_and_kernel_basis_match_reference():
    rng = random.Random(14)
    mismatches = []
    for _ in range(300):
        width = rng.randint(1, 6)
        rows = random_matrix(rng, rng.randint(0, 6), width, False)
        rows = [tuple(r) for r in rows]
        if _canonical_basis(rows, width) != canonical_basis(rows):
            mismatches.append(("canonical", rows))
        if _kernel_basis(rows, width) != kernel_basis(rows, width):
            mismatches.append(("kernel", rows))
    assert mismatches == []


def random_unimodular(rng, k):
    """Product of random elementary integer row operations on I_k."""
    u = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(3 * k):
        i, j = rng.sample(range(k), 2) if k > 1 else (0, 0)
        if i != j:
            f = rng.randint(-2, 2)
            u[i] = [a + f * b for a, b in zip(u[i], u[j])]
        if rng.random() < 0.3:
            u[i] = [-a for a in u[i]]
    return u


@pytest.mark.parametrize("seed", range(4))
def test_parallelepiped_matches_boxscan(seed):
    rng = random.Random(100 + seed)
    checked = 0
    while checked < 12:
        width = rng.randint(1, 3)
        k = rng.randint(1, width)
        if rng.random() < 0.3 and k == width:
            gens = random_unimodular(rng, k)  # |det| = 1
        else:
            gens = [[rng.randint(-2, 2) for _ in range(width)]
                    for _ in range(k)]
        gens = [tuple(g) for g in gens]
        _, pivots = gauss_jordan(gens)
        if len(pivots) != k:
            continue
        got = parallelepiped_points(gens)
        assert sorted(got) == boxscan_parallelepiped(gens), gens
        if k == width and abs(cofactor_det(gens)) == 1:
            assert got == [(0,) * width]
        checked += 1


def test_witness_scan_line_iff_nonsingular():
    rng = random.Random(15)
    m_rows = [
        [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1], [1, 0, 2, 1, 1, 2],
        [1, 2, 0, 2, 1, 1], [1, 1, 2, 0, 2, 1], [1, 1, 1, 2, 0, 2],
        [1, 2, 1, 1, 2, 0],
    ]
    cases = [(m_rows, [9, 13, 13, 13, 13, 13])]
    for _ in range(6):
        k = rng.randint(1, 4)
        n = rng.randint(k, k + 3)
        cases.append((random_matrix(rng, n, k, rng.random() < 0.3),
                      [rng.randint(-5, 5) for _ in range(k)]))
    for rows, x in cases:
        m = Matrix(rows)
        report = caratheodory_witness_scan(m, Vector(x))
        lines = {line.subset: line.solution for line in report.lines}
        k = m.n_cols
        for s in itertools.combinations(range(m.n_rows), k):
            b = minor(m, s, All)
            assert (s in lines) == (det(b) != 0), (rows, s)
            if s in lines:
                bt = [[b.rows[i][j] for i in range(k)] for j in range(k)]
                assert list(lines[s]) == gauss_jordan_solve(bt, x, k)
