from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointsparse.errors import DomainError
from jointsparse.norms import (
    DEFAULT_ZERO_TOL,
    RowSupport,
    mixed_norm_2p,
    row_norms,
    row_support,
    theta,
    theta_max_over_S,
    theta_top_k,
)

from oracles import theta_profile_max

# The recorded kernel generator of the bundled 4x5 instance (rounded to 4
# decimals) and the value of theta at p=1 over its two dominant rows.
NULLVEC = np.array([[0.3217], [-0.0331], [0.9291], [-0.1754], [-0.0371]])
THETA_P1 = 5.092833876221499


class TestRowSupport:
    def test_valid_construction(self):
        s = RowSupport(indices=(1, 3, 5), n=6)
        assert len(s) == 3 and 3 in s and 2 not in s

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            RowSupport(indices=(0, 1), n=3)
        with pytest.raises(DomainError):
            RowSupport(indices=(1, 4), n=3)

    def test_rejects_unsorted_or_duplicate(self):
        with pytest.raises(DomainError):
            RowSupport(indices=(3, 1), n=4)
        with pytest.raises(DomainError):
            RowSupport(indices=(2, 2), n=4)

    def test_rejects_non_integer(self):
        with pytest.raises(DomainError):
            RowSupport(indices=(1.5, 2), n=4)

    def test_mask(self):
        s = RowSupport(indices=(2, 4), n=5)
        assert list(s.mask()) == [False, True, False, True, False]


class TestCounting:
    def test_row_support_threshold(self):
        x = np.array([[1.0, 0.0], [1e-9, 0.0], [0.0, 2.0]])
        assert row_support(x).indices == (1, 3)
        assert row_support(x, zero_tol=1e-10).indices == (1, 2, 3)
        assert len(row_support(x)) == 2

    def test_zero_matrix(self):
        assert len(row_support(np.zeros((3, 2)))) == 0
        assert row_support(np.zeros((3, 2))).indices == ()

    @pytest.mark.parametrize("zero_tol", [math.nan, -1e-8])
    def test_row_support_rejects_a_nan_or_negative_tolerance(self, zero_tol):
        # NaN compares false with every norm, so it would class every row zero
        with pytest.raises(DomainError, match="zero_tol"):
            row_support(np.eye(2), zero_tol=zero_tol)


class TestMixedNorm:
    def test_example_value(self, example2):
        # planted solution: rows (1,1) and (-1,-2)
        val = mixed_norm_2p(example2.planted, 1.0)
        assert val == pytest.approx(math.sqrt(2) + math.sqrt(5), abs=1e-12)

    def test_p_one_is_row_norm_sum(self, rng):
        x = rng.standard_normal((5, 3))
        expected = sum(np.linalg.norm(row) for row in x)
        assert mixed_norm_2p(x, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_rejects_bad_p(self):
        x = np.ones((2, 2))
        for p in (0.0, -0.5, 1.5):
            with pytest.raises(DomainError):
                mixed_norm_2p(x, p)

    def test_decreasing_p_grows_value_on_subunit_rows(self):
        # rows shorter than 1 have ||row||^p increasing as p decreases
        x = 0.5 * np.eye(3)
        assert mixed_norm_2p(x, 0.3) > mixed_norm_2p(x, 0.9)


class TestTheta:
    def test_recorded_value(self):
        s = RowSupport(indices=(1, 3), n=5)
        assert theta(1.0, NULLVEC, s) == pytest.approx(THETA_P1, abs=1e-9)

    def test_p_zero_counts(self):
        s = RowSupport(indices=(1, 3), n=5)
        assert theta(0.0, NULLVEC, s) == pytest.approx(2.0 / 3.0, abs=0)

    def test_zero_matrix_rejected(self):
        with pytest.raises(DomainError):
            theta(0.5, np.zeros((3, 1)), RowSupport(indices=(1,), n=3))

    def test_bad_p_rejected(self):
        with pytest.raises(DomainError):
            theta(1.2, NULLVEC, RowSupport(indices=(1,), n=5))

    def test_infinite_when_denominator_empty(self):
        x = np.array([[1.0], [2.0], [0.0]])
        s = RowSupport(indices=(1, 2, 3), n=3)
        assert theta(0.7, x, s) == math.inf

    def test_zero_when_numerator_empty(self):
        x = np.array([[1.0], [2.0], [0.0]])
        s = RowSupport(indices=(3,), n=3)
        assert theta(0.7, x, s) == 0.0

    def test_size_mismatch(self):
        with pytest.raises(DomainError):
            theta(0.5, NULLVEC, RowSupport(indices=(1,), n=4))

    @pytest.mark.parametrize("zero_tol", [math.nan, -1e-8])
    def test_nan_or_negative_tolerance_rejected(self, zero_tol):
        # at p = 0 a NaN tolerance would count no row and read 0.0
        with pytest.raises(DomainError, match="zero_tol"):
            theta(0.0, NULLVEC, RowSupport(indices=(1, 3), n=5), zero_tol=zero_tol)

    def test_scale_invariance_bitwise_for_pow2(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 9))
            x = rng.standard_normal((n, int(rng.integers(1, 4))))
            s = RowSupport(tuple(sorted(
                rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, n)), replace=False))), n)
            p = float(rng.uniform(0.05, 1.0))
            j = int(rng.integers(-8, 9))
            assert theta(p, x, s) == theta(p, (2.0 ** j) * x, s)

    def test_approximate_scale_invariance_general_c(self, rng):
        x = rng.standard_normal((6, 2))
        s = RowSupport(indices=(2, 5), n=6)
        v1 = theta(0.6, x, s)
        v2 = theta(0.6, 3.7 * x, s)
        assert v2 == pytest.approx(v1, rel=1e-12)


class TestThetaMax:
    def test_picks_top_k_rows(self):
        x = np.array([[3.0], [1.0], [2.0], [0.5]])
        val, s = theta_max_over_S(1.0, x, 2)
        assert s.indices == (1, 3)
        assert val == pytest.approx((3.0 + 2.0) / (1.0 + 0.5), rel=1e-12)

    def test_tie_breaks_to_lower_index(self):
        x = np.array([[1.0], [2.0], [2.0], [1.0]])
        _, s = theta_max_over_S(1.0, x, 1)
        assert s.indices == (2,)

    def test_matches_exhaustive_search(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 7))
            x = rng.standard_normal((n, 2))
            k = int(rng.integers(1, n))
            p = float(rng.choice([0.0, 0.3, 0.7, 1.0]))
            val, _ = theta_max_over_S(p, x, k)
            best = 0.0
            for size in range(1, k + 1):
                for sub in itertools.combinations(range(1, n + 1), size):
                    best = max(best, theta(p, x, RowSupport(indices=sub, n=n)))
            assert val == pytest.approx(best, rel=1e-12)

    def test_monotone_in_p(self, rng):
        for _ in range(100):
            n = int(rng.integers(3, 9))
            x = rng.standard_normal((n, int(rng.integers(1, 4))))
            k = int(rng.integers(1, n))
            p1, p2 = sorted(rng.uniform(0.01, 1.0, size=2))
            v1, _ = theta_max_over_S(p1, x, k)
            v2, _ = theta_max_over_S(p2, x, k)
            assert v1 <= v2 * (1 + 1e-12)

    def test_k_out_of_range(self):
        with pytest.raises(DomainError):
            theta_max_over_S(0.5, NULLVEC, 5)
        with pytest.raises(DomainError):
            theta_max_over_S(0.5, NULLVEC, 0)

    @pytest.mark.parametrize("zero_tol", [math.nan, -1e-8])
    def test_nan_or_negative_tolerance_rejected(self, zero_tol):
        with pytest.raises(DomainError, match="zero_tol"):
            theta_max_over_S(0.0, NULLVEC, 2, zero_tol=zero_tol)

    def test_infinite_when_support_fits_in_k(self):
        x = np.array([[1.0], [0.0], [2.0], [0.0]])
        val, s = theta_max_over_S(0.5, x, 2)
        assert val == math.inf
        assert s.indices == (1, 3)


@st.composite
def profile_batches(draw):
    """(x, k, p): a stack x (P, n, r) whose rows repeat a few drawn rows, so
    ties and zero rows are common, and none of whose profiles is all zero.
    Rows below the zero tolerance exercise p = 0; with ``only_top`` every
    row outside k drawn rows is zero, where theta is +inf.  Up to 20 rows,
    so that either side of the support can hold 8 or more (the sorted sums)
    as well as both fewer (the outer-axis sums)."""
    n = draw(st.integers(2, 20))
    r = draw(st.integers(1, 3))
    batch = draw(st.integers(1, 5))
    k = draw(st.integers(1, n - 1))
    p = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    entry = st.floats(-8.0, 8.0, allow_nan=False) | st.sampled_from([1e-9, -3e-9])
    pool = [np.zeros(r)] + draw(st.lists(
        st.lists(entry, min_size=r, max_size=r).map(np.array), min_size=1, max_size=4))
    x = np.array([[pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n)]
                  for _ in range(batch)])
    if draw(st.booleans()):                   # all but k rows zero
        for prof in x:
            keep = draw(st.permutations(range(n)))[:k]
            prof[[i for i in range(n) if i not in keep]] = 0.0
    for prof in x:
        if not np.any(row_norms(prof) > 0.0):
            prof[draw(st.integers(0, n - 1))] = 1.0
    return x, k, p


class TestThetaTopK:
    @settings(max_examples=300, deadline=None, database=None)
    @given(profile_batches())
    def test_equals_theta_on_its_own_support(self, case):
        x, k, p = case
        norms = np.array([row_norms(prof) for prof in x])
        values, top = theta_top_k(norms, k, p, DEFAULT_ZERO_TOL)
        assert top.shape == (len(x), k)
        for prof, nrm, value, rows in zip(x, norms, values, np.sort(top, axis=1)):
            rest = np.setdiff1d(np.arange(len(nrm)), rows)
            # the k largest norms, lower index first on ties
            assert all(nrm[i] > nrm[j] or (nrm[i] == nrm[j] and i < j)
                       for i in rows for j in rest)
            s = RowSupport(indices=tuple(int(i) + 1 for i in rows), n=len(nrm))
            want = theta(p, prof, s)
            assert value == want, (value.hex(), want.hex())
        oracle = theta_profile_max(p, norms, k)
        assert values == pytest.approx(oracle, rel=1e-12)

    def test_infinite_when_all_but_k_rows_vanish(self):
        norms = np.array([[0.0, 2.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                          [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]])
        for p in (0.0, 0.5, 1.0):
            values, top = theta_top_k(norms, 2, p, DEFAULT_ZERO_TOL)
            assert values[0] == math.inf and sorted(top[0].tolist()) == [1, 3]
            assert values[1] == 2.0 / 7.0 and sorted(top[1].tolist()) == [0, 1]

    @pytest.mark.parametrize("inside,outside", [(7, 7), (7, 8), (8, 7), (8, 8)])
    def test_seven_and_eight_terms_a_side(self, inside, outside, rng):
        # 7 terms a side are summed down the outer axis, 8 sorted along the
        # last; either way each value is theta's, alone or in a batch
        n, k = inside + outside, inside
        x = rng.standard_normal((6, n, 2)) * 10.0 ** rng.integers(-6, 7, (6, n, 1))
        norms = np.array([row_norms(prof) for prof in x])
        for p in (0.0, 0.3, 1.0):
            values, top = theta_top_k(norms, k, p, DEFAULT_ZERO_TOL)
            for prof, nrm, value, rows in zip(x, norms, values, np.sort(top, axis=1)):
                s = RowSupport(indices=tuple(int(i) + 1 for i in rows), n=n)
                assert value == theta(p, prof, s)
                alone, alone_top = theta_top_k(nrm[None], k, p, DEFAULT_ZERO_TOL)
                assert alone[0] == value and sorted(alone_top[0]) == list(rows)

    @pytest.mark.parametrize("n,k", [(5, 2), (14, 7), (16, 8)])
    def test_all_zero_profile_scores_zero(self, n, k):
        norms = np.zeros((3, n))
        norms[1, 0] = 1.0
        for p in (0.0, 0.5, 1.0):
            with np.errstate(all="raise"):
                values, _ = theta_top_k(norms, k, p, DEFAULT_ZERO_TOL)
                alone, _ = theta_top_k(norms[:1], k, p, DEFAULT_ZERO_TOL)
            assert values[0] == 0.0 and values[2] == 0.0 and alone[0] == 0.0
            assert values[1] == math.inf


class TestInterpolationInequality:
    def test_lemma1_relation_on_random_draws(self, rng):
        # (sum ||row||^p)^(1/p) <= s^(1/p - 1/2) * ||X||_F
        for _ in range(300):
            n = int(rng.integers(1, 10))
            x = rng.standard_normal((n, int(rng.integers(1, 4))))
            zero_rows = rng.uniform(size=n) < 0.3
            x[zero_rows] = 0.0
            if not np.any(x):
                continue
            p = float(rng.uniform(0.05, 1.0))
            s = len(row_support(x, zero_tol=0.0))
            lhs = mixed_norm_2p(x, p) ** (1.0 / p)
            rhs = s ** (1.0 / p - 0.5) * np.linalg.norm(x)
            assert lhs <= rhs * (1 + 1e-10)
