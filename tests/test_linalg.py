"""Exact matrix operations and fraction-free rank."""
from __future__ import annotations

from fractions import Fraction

import pytest

from hypstab import RationalMatrix
from hypstab.linalg import (
    MatrixError,
    integer_rank,
    matrix_moving_point_last,
    rational_rank,
)


class TestRationalMatrix:
    def test_identity_and_permutation(self):
        eye = RationalMatrix.identity(3)
        assert eye.determinant() == 1
        perm = RationalMatrix.permutation([2, 1, 0])
        assert perm.determinant() == -1
        assert perm @ perm == eye

    def test_permutation_column_convention(self):
        # x_j -> x_{images[j]}: column j carries the unit vector at images[j].
        perm = RationalMatrix.permutation([1, 2, 0])
        assert perm.column(0) == (0, 1, 0)
        assert perm.column(1) == (0, 0, 1)

    def test_determinant_and_inverse(self):
        m = RationalMatrix.from_rows([[2, 1], [1, 1]])
        assert m.determinant() == 1
        inv = RationalMatrix.from_rows([[1, -1], [-1, 2]])
        assert inv @ m == RationalMatrix.identity(2)
        assert RationalMatrix.from_rows([[1, 2], [2, 4]]).determinant() == 0

    def test_fraction_entries(self):
        m = RationalMatrix.from_rows([[Fraction(1, 2), 0], [0, Fraction(3)]])
        assert m.determinant() == Fraction(3, 2)

    def test_string_round_trip(self):
        m = RationalMatrix.from_rows([[Fraction(1, 2), -1], [3, 0]])
        assert RationalMatrix.from_strings(m.to_strings()) == m

    def test_non_permutation_rejected(self):
        with pytest.raises(MatrixError):
            RationalMatrix.permutation([0, 0, 1])


class TestRank:
    def test_integer_rank_basic(self):
        assert integer_rank([[1, 2], [2, 4]]) == 1
        assert integer_rank([[1, 0], [0, 1]]) == 2
        assert integer_rank([[0, 0], [0, 0]]) == 0

    def test_rational_rank_scaling_invariance(self):
        rows = [[Fraction(1, 3), Fraction(2, 3)], [Fraction(1, 7), Fraction(2, 7)]]
        assert rational_rank(rows) == 1

    def test_rank_rectangular(self):
        rows = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
        assert integer_rank(rows) == 2

    def test_rank_needs_column_skips(self):
        rows = [[0, 1, 2], [0, 2, 4], [0, 0, 5]]
        assert integer_rank(rows) == 2


class TestPointMove:
    def test_last_coordinate_point_gives_identity(self):
        assert matrix_moving_point_last([0, 0, 1]) == RationalMatrix.identity(3)

    def test_general_point(self):
        sigma = matrix_moving_point_last([1, 0, 0, 0])
        assert sigma.rows[-1] == (1, 0, 0, 0)
        assert sigma.determinant() != 0

    def test_zero_vector_rejected(self):
        with pytest.raises(MatrixError):
            matrix_moving_point_last([0, 0, 0])
