"""Weight vectors and cone membership."""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest

from hypstab import RationalMatrix, WeightVector, apply_linear_change, membership, parse_poly
from hypstab.linalg import permutation_rows
from hypstab.weights import WeightError, first_violation, weight_of


class TestWeightVector:
    def test_validation(self):
        with pytest.raises(WeightError):
            WeightVector((1, 1, 1))
        with pytest.raises(WeightError):
            WeightVector((0, 0, 0))
        with pytest.raises(WeightError):
            WeightVector((5,))

    @pytest.mark.parametrize(
        "weights", [(Fraction(3, 2), Fraction(-1, 2), -1), (1.5, -0.5, -1), (2.0, -1, -1)]
    )
    def test_non_integers_refused(self, weights):
        # int() would have truncated the first two into (1, 0, -1), a
        # different weight; an integral float is refused too.
        with pytest.raises(WeightError, match="integers"):
            WeightVector(weights)

    def test_numpy_integers_accepted(self):
        r = WeightVector(tuple(np.array([3, 1, -4], dtype=np.int64)))
        assert r == WeightVector((3, 1, -4))
        assert all(type(v) is int for v in r)

    def test_reduced(self):
        assert WeightVector((6, 2, -8)).reduced() == WeightVector((3, 1, -4))
        assert WeightVector((3, 1, -4)).reduced() == WeightVector((3, 1, -4))


class TestWeightOf:
    def test_spec_values(self):
        r = WeightVector((3, 1, -4))
        assert weight_of(r, (2, 0, 1)) == 2
        assert weight_of(r, (0, 3, 0)) == 3
        assert weight_of(WeightVector((1, 0, -1)), (1, 1, 1)) == 0

    def test_length_mismatch(self):
        with pytest.raises(WeightError):
            weight_of(WeightVector((1, -1)), (1, 1, 1))


class TestMembership:
    def test_strict_family_members(self, corpus):
        assert membership(corpus["f2"], WeightVector((3, 1, -4)), strict=True)
        g3 = parse_poly("x0^2*x3^2 + x0*x2^3 + x1^4", 3)
        assert membership(g3, WeightVector((11, 1, -3, -9)), strict=True)

    def test_fermat_not_member(self, corpus):
        assert not membership(corpus["fermat_cubic"], WeightVector((1, 0, -1)), strict=False)

    def test_first_violation_reports_weight(self, corpus):
        violation = first_violation(corpus["fermat_cubic"], WeightVector((1, 0, -1)), False)
        assert violation == ((0, 0, 3), -3)

    def test_permutation_invariance(self, corpus):
        f = corpus["f2"]
        r = WeightVector((3, 1, -4))
        for images in [(1, 0, 2), (2, 1, 0), (1, 2, 0)]:
            sigma = RationalMatrix(1, permutation_rows(images))
            g = apply_linear_change(f, sigma)
            permuted = [0] * 3
            for j, k in enumerate(images):
                permuted[k] = r.r[j]
            assert membership(g, WeightVector(tuple(permuted)), True) == membership(f, r, True)

    def test_positive_scaling_invariance(self, corpus):
        f = corpus["f2"]
        for scale in (1, 2, 7):
            r = WeightVector((3 * scale, scale, -4 * scale))
            assert membership(f, r, strict=True)


def sorted_weight_grid(n: int, bound: int):
    for combo in combinations_with_replacement(range(bound, -bound - 1, -1), n + 1):
        if sum(combo) == 0 and any(combo):
            yield WeightVector(combo)


class TestSortedWeightStructure:
    """Structure forced on sorted weight vectors with r_0 + 2 r_n >= 0."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_top_bottom_combination_forces_shape(self, n):
        checked = 0
        for r in sorted_weight_grid(n, 10):
            if r.r[0] + 2 * r.r[n] < 0:
                continue
            checked += 1
            assert r.r[n - 1] < 0
            if n >= 3:
                assert r.r[n - 2] <= 0
                if r.r[n - 2] == 0:
                    assert all(r.r[j] == 0 for j in range(1, n - 1))
        assert checked > 0
