"""Exact linear algebra kernel tests.

Determinants and solves are cross-checked against independent oracles
(cofactor expansion, Cramer's rule, in ``oracles.py``) that share no code
with the kernel.
"""

import random
from fractions import Fraction

import pytest

from polylat.errors import DimensionError
from polylat.exactmath import (
    All,
    Matrix,
    Vector,
    all_subsets_of_k,
    det,
    hermite_normal_form,
    lin_solve,
    minor,
    primitive,
    primitive_rational,
    rank,
)
from oracles import cofactor_det, cramer_solve, mat_vec, zero_matrix

# The 10x6 generator matrix of the counter-example cone, used throughout.
M_ROWS = [
    [0, 1, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0],
    [0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 1],
    [1, 0, 2, 1, 1, 2],
    [1, 2, 0, 2, 1, 1],
    [1, 1, 2, 0, 2, 1],
    [1, 1, 1, 2, 0, 2],
    [1, 2, 1, 1, 2, 0],
]


class TestVectorMatrix:
    def test_vector_arithmetic(self):
        a = Vector([1, 2, 3])
        b = Vector([Fraction(1, 2), 0, -1])
        assert a + b == Vector([Fraction(3, 2), 2, 2])
        assert a - b == Vector([Fraction(1, 2), 2, 4])
        assert -b == Vector([Fraction(-1, 2), 0, 1])
        assert 2 * b == Vector([1, 0, -2])
        assert a.dot(b) == Fraction(1, 2) - 3

    def test_vector_length_mismatch(self):
        with pytest.raises(DimensionError):
            Vector([1, 2]) + Vector([1, 2, 3])

    def test_vector_str_exact(self):
        assert str(Vector([Fraction(1, 2), -3])) == "1/2 -3"

    def test_matrix_ragged_rejected(self):
        with pytest.raises(DimensionError):
            Matrix([[1, 2], [3]])

    def test_empty_matrix_keeps_width(self):
        m = Matrix([], n_cols=4)
        assert m.n_rows == 0 and m.n_cols == 4
        assert m != Matrix([], n_cols=5)

    def test_matrix_multiply(self):
        a = Matrix([[1, 2], [3, 4]])
        b = Matrix([[0, 1], [1, 0]])
        assert a.mul(b) == Matrix([[2, 1], [4, 3]])
        assert mat_vec(a, Vector([1, 1])) == Vector([3, 7])

    def test_transpose(self):
        m = Matrix([[1, 2, 3], [4, 5, 6]])
        assert m.transpose() == Matrix([[1, 4], [2, 5], [3, 6]])
        assert Matrix([], n_cols=3).transpose() == Matrix([[], [], []], n_cols=0)


class TestDet:
    def test_identity(self):
        assert det(Matrix.identity(3)) == 1

    def test_permutation(self):
        assert det(Matrix([[0, 1], [1, 0]])) == -1

    def test_minor_of_m_vs_cofactor_oracle(self):
        rows = [M_ROWS[i] for i in range(6)]
        expected = cofactor_det(rows)
        assert expected == -1  # frozen from the oracle
        assert det(Matrix(rows)) == expected

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            det(Matrix([[1, 2, 3], [4, 5, 6]]))

    def test_rational_entries(self):
        m = Matrix([[Fraction(1, 2), 1], [1, Fraction(1, 2)]])
        assert det(m) == Fraction(1, 4) - 1

    def test_random_vs_oracle(self):
        rng = random.Random(20240817)
        for n in range(1, 7):
            for _ in range(8):
                rows = [[rng.randint(-5, 5) for _ in range(n)]
                        for _ in range(n)]
                assert det(Matrix(rows)) == cofactor_det(rows)

    def test_zero_by_zero(self):
        assert det(Matrix([], n_cols=0)) == 1


class TestLinSolve:
    def test_identity(self):
        x = lin_solve(Matrix.identity(3), Vector([1, 2, 3]))
        assert x == Vector([1, 2, 3])

    def test_inconsistent_is_absent(self):
        assert lin_solve(Matrix([[1, 1], [1, 1]]), Vector([1, 2])) is None

    def test_underdetermined_is_absent(self):
        assert lin_solve(Matrix([[1, 1], [2, 2]]), Vector([1, 2])) is None

    def test_dimension_mismatch_is_error(self):
        with pytest.raises(DimensionError):
            lin_solve(Matrix.identity(3), Vector([1, 2]))

    def test_witness_system_vs_cramer_oracle(self):
        rows = [M_ROWS[i] for i in range(6)]
        bt = [[rows[i][j] for i in range(6)] for j in range(6)]
        b = [9, 13, 13, 13, 13, 13]
        expected = cramer_solve(bt, b)
        assert expected == [13, -5, 4, 4, -5, 9]  # frozen from the oracle
        got = lin_solve(Matrix(bt), Vector(b))
        assert got == Vector(expected)

    def test_solution_verifies(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(1, 5)
            a = Matrix([[rng.randint(-4, 4) for _ in range(n)]
                        for _ in range(n)])
            b = Vector([rng.randint(-4, 4) for _ in range(n)])
            x = lin_solve(a, b)
            if x is None:
                assert det(a) == 0
            else:
                assert mat_vec(a, x) == b

    def test_overdetermined_consistent(self):
        a = Matrix([[1, 0], [0, 1], [1, 1]])
        assert lin_solve(a, Vector([2, 3, 5])) == Vector([2, 3])
        assert lin_solve(a, Vector([2, 3, 6])) is None


class TestMinor:
    def test_row_selection(self):
        m = Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert minor(m, {0, 2}) == Matrix([[1, 2, 3], [7, 8, 9]])

    def test_full_index_set_is_identity(self):
        m = Matrix(M_ROWS)
        assert minor(m, range(10), All) == m

    def test_generator_rows_of_m(self):
        m = Matrix(M_ROWS)
        got = minor(m, {5, 6, 7, 8, 9}, All)
        assert got == Matrix(M_ROWS[5:])

    def test_out_of_range(self):
        with pytest.raises(DimensionError):
            minor(Matrix.identity(2), {0, 5})

    def test_column_selection(self):
        m = Matrix([[1, 2, 3], [4, 5, 6]])
        assert minor(m, All, {2, 0}) == Matrix([[1, 3], [4, 6]])


class TestSubsets:
    def test_small(self):
        assert all_subsets_of_k(2, range(3)) == [(0, 1), (0, 2), (1, 2)]

    def test_count_6_of_10(self):
        subs = all_subsets_of_k(6, range(10))
        assert len(subs) == 210  # C(10, 6)

    def test_k_zero(self):
        assert all_subsets_of_k(0, range(5)) == [()]

    def test_k_too_large_empty(self):
        assert all_subsets_of_k(4, range(3)) == []

    def test_strictly_increasing_no_duplicates(self):
        subs = all_subsets_of_k(3, range(7))
        assert subs == sorted(set(subs))


class TestHnf:
    def test_identity(self):
        h, u = hermite_normal_form(Matrix.identity(3))
        assert h == Matrix.identity(3)
        assert u == Matrix.identity(3)

    def test_already_hnf(self):
        m = Matrix([[2, 0], [0, 3]])
        h, u = hermite_normal_form(m)
        assert h == m

    def test_contract_on_example(self):
        m = Matrix([[1, 2], [3, 4]])
        h, u = hermite_normal_form(m)
        assert u.mul(m) == h
        assert abs(det(u)) == 1
        assert abs(det(h)) == 2

    def test_random_contract(self):
        rng = random.Random(99)
        for _ in range(30):
            nr = rng.randint(1, 5)
            nc = rng.randint(1, 5)
            m = Matrix([[rng.randint(-6, 6) for _ in range(nc)]
                        for _ in range(nr)])
            h, u = hermite_normal_form(m)
            assert u.mul(m) == h
            assert abs(det(u)) == 1
            if nr == nc:
                assert abs(det(h)) == abs(det(m))
            # echelon shape: pivot columns strictly increase
            pivot_cols = []
            for row in h.rows:
                nz = [j for j, x in enumerate(row) if x != 0]
                if nz:
                    pivot_cols.append(nz[0])
            assert pivot_cols == sorted(pivot_cols)
            assert len(set(pivot_cols)) == len(pivot_cols)

    def test_pivots_positive_and_reduced(self):
        m = Matrix([[4, 7], [2, 3]])
        h, u = hermite_normal_form(m)
        assert u.mul(m) == h
        for r, row in enumerate(h.rows):
            nz = [j for j, x in enumerate(row) if x != 0]
            if not nz:
                continue
            p = nz[0]
            assert row[p] > 0
            for above in range(r):
                assert 0 <= h.rows[above][p] < row[p]


class TestRank:
    def test_zero(self):
        assert rank(zero_matrix(3, 4)) == 0

    def test_identity(self):
        assert rank(Matrix.identity(5)) == 5

    def test_m_has_full_column_rank(self):
        assert rank(Matrix(M_ROWS)) == 6

    def test_rank_deficient(self):
        assert rank(Matrix([[1, 2], [2, 4], [3, 6]])) == 1


class TestPrimitive:
    def test_simple(self):
        assert primitive((2, 4, 6)) == (1, 2, 3)

    def test_sign_preserved(self):
        assert primitive((0, -3, 0)) == (0, -1, 0)

    def test_gcd_one_kept(self):
        assert primitive((5, 0, 0, 5)) == (1, 0, 0, 1)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            primitive((0, 0))

    def test_rational_scaling(self):
        got = primitive_rational([Fraction(1, 2), Fraction(-3, 4), 0])
        assert got == (2, -3, 0)

    def test_random_invariants(self):
        rng = random.Random(3)
        from math import gcd
        for _ in range(50):
            n = rng.randint(1, 6)
            v = [rng.randint(-9, 9) for _ in range(n)]
            if all(x == 0 for x in v):
                v[0] = 1
            p = primitive(v)
            g = 0
            for x in p:
                g = gcd(g, abs(x))
            assert g == 1
            # positive rational multiple of the input
            ratios = {Fraction(a, b) for a, b in zip(v, p) if b != 0}
            assert len(ratios) == 1 and ratios.pop() > 0
