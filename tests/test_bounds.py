from __future__ import annotations

import json
import math

import numpy as np
import pytest

from jointsparse.bounds import (
    SQRT2_PLUS_1,
    corollary1_bounds,
    f_threshold,
    lemma1_check,
    lemma2_check,
    pstar,
    pstar_report_to_json,
    theorem4_bound,
)
from jointsparse.errors import DomainError, RankDeficient
from jointsparse.generators import PortableRng
from jointsparse.linalg import eig_summary

# Spectral ratio of the bundled 4x5 example, frozen in test_linalg as well.
EX2_LAM = 1.573459681567424


class TestThresholdFunction:
    def test_frozen_values(self):
        assert f_threshold(1, EX2_LAM, 5) == pytest.approx(1.3978956335048853, abs=1e-12)
        assert f_threshold(2, EX2_LAM, 5) == pytest.approx(0.8177165255222029, abs=1e-12)
        assert f_threshold(3, EX2_LAM, 5) == pytest.approx(0.5801791079826826, abs=1e-12)
        assert f_threshold(5, EX2_LAM, 5) == pytest.approx(0.36769464737661245, abs=1e-12)

    def test_decreasing_in_x(self):
        vals = [f_threshold(x, 2.0, 6) for x in (1, 2, 3, 4, 7, 10, 25)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_infinite_when_denominator_closes(self):
        # lam = 1 shrinks the log argument to 1: den = ln((sqrt2+1)/4) < 0
        assert math.isinf(f_threshold(2, 1.0, 5))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            f_threshold(0.5, 2.0, 5)
        with pytest.raises(DomainError):
            f_threshold(2, 0.9, 5)
        with pytest.raises(DomainError):
            f_threshold(2, 2.0, 2)
        with pytest.raises(DomainError):
            f_threshold(2, 2.0, 5.0)  # type: ignore[arg-type]

    def test_log_argument_guard(self):
        # lam*n - n - 2*lam + 3 <= 0 requires lam < 1 for n >= 3, so force it
        # via the smallest legal corner: lam=1, n=3 gives arg=1 (fine); no
        # n >= 3 and lam >= 1 makes arg <= 0, which the guard still covers.
        assert f_threshold(1, 1.0, 3) == math.inf


class TestCorollaryBounds:
    def test_frozen(self):
        assert corollary1_bounds(4, 5) == (2, 2)
        assert corollary1_bounds(6, 9) == (3, 4)
        assert corollary1_bounds(2, 3) == (1, 1)

    def test_errors(self):
        with pytest.raises(DomainError):
            corollary1_bounds(1, 5)
        with pytest.raises(DomainError):
            corollary1_bounds(4, 2)
        with pytest.raises(DomainError):
            corollary1_bounds(4.0, 5)  # type: ignore[arg-type]


class TestPstar:
    def test_example2_report(self, example2):
        rep = pstar(example2.a, example2.b)
        assert rep.lam == pytest.approx(EX2_LAM, abs=1e-12)
        assert rep.s_star == 5
        assert (rep.k_bound_m, rep.k_bound_n) == (2, 2)
        assert rep.p_star == pytest.approx(0.8177165255221992, abs=5e-4)
        assert rep.clamped is False
        assert rep.f_values[0] == pytest.approx(0.36769464737661084, abs=1e-9)

    def test_max_is_f_of_smallest_argument(self):
        # f decreases, so the max of the three values is f at the smallest of
        # the three sparsity levels
        rng = np.random.default_rng(2)
        for _ in range(200):
            m = int(rng.integers(2, 8))
            n = int(rng.integers(max(3, m), 12))
            a = rng.standard_normal((m, n))
            b = rng.standard_normal((m, 2))
            rep = pstar(a, b)
            args = (rep.s_star if rep.s_star >= 1 else None,
                    rep.k_bound_m, rep.k_bound_n)
            finite_args = [x for x in args if x is not None]
            want = f_threshold(min(finite_args), rep.lam, n)
            raw = max(rep.f_values)
            if math.isfinite(want):
                assert raw == pytest.approx(want, rel=1e-12)
            assert rep.p_star == min(1.0, raw)

    def test_orthogonal_columns_clamp_to_one(self):
        a = np.eye(3)
        rep = pstar(a, np.array([[1.0], [0.0], [0.0]]))
        assert rep.lam == pytest.approx(1.0, abs=1e-12)
        assert rep.p_star == 1.0
        assert rep.clamped is True
        assert all(math.isinf(v) for v in rep.f_values)

    def test_zero_rhs(self, example2):
        rep = pstar(example2.a, np.zeros((4, 2)))
        assert rep.s_star == 0
        assert math.isinf(rep.f_values[0])
        assert rep.p_star <= 1.0

    def test_rank_deficient(self):
        a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
        with pytest.raises(RankDeficient):
            pstar(a, np.array([[1.0], [2.0]]))

    def test_too_small(self):
        with pytest.raises(DomainError):
            pstar(np.eye(2), np.ones((2, 1)))

    def test_json_inf_encoding(self):
        rep = pstar(np.eye(3), np.ones((3, 1)))
        obj = json.loads(json.dumps(pstar_report_to_json(rep)))
        assert obj["f_values"] == ["inf", "inf", "inf"]
        assert obj["p_star"] == 1.0


class TestTheorem4Bound:
    def test_frozen_corner(self):
        # lam = 1, k = 1, n = 4, p = 1: the bracket collapses to
        # (sqrt2+1)/2 * 1/2 * 1/2 = (sqrt2+1)/8
        want = SQRT2_PLUS_1 / 8.0
        assert abs(theorem4_bound(1.0, 4, 1, 1.0) - want) <= 1e-12

    def test_example_lambda_values(self):
        # spot values used by the reporting command; keep them honest here
        assert theorem4_bound(0.5, 5, 2, EX2_LAM) == pytest.approx(
            0.5655175370779594, abs=1e-9)
        assert theorem4_bound(1.0, 5, 2, EX2_LAM) == pytest.approx(
            0.4797151271140817, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            theorem4_bound(0.0, 5, 2, 1.5)
        with pytest.raises(DomainError):
            theorem4_bound(1.1, 5, 2, 1.5)
        with pytest.raises(DomainError):
            theorem4_bound(0.5, 4, 2, 1.5)   # n <= k + 2
        with pytest.raises(DomainError):
            theorem4_bound(0.5, 5, 0, 1.5)
        with pytest.raises(DomainError):
            theorem4_bound(0.5, 5, 2, 0.99)


class TestLemma1Check:
    def test_holds_on_randoms(self, rng):
        grid = [0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
        for _ in range(50):
            x = rng.standard_normal((int(rng.integers(1, 9)), int(rng.integers(1, 4))))
            assert lemma1_check(x, grid) is True

    def test_tight_at_equal_rows(self):
        # equal row norms make the interpolation exact at every p
        x = np.ones((4, 2))
        assert lemma1_check(x, [0.2, 0.5, 1.0]) is True

    def test_errors(self):
        with pytest.raises(DomainError):
            lemma1_check(np.zeros((3, 2)), [0.5])
        with pytest.raises(DomainError):
            lemma1_check(np.ones((3, 2)), [])
        with pytest.raises(DomainError):
            lemma1_check(np.ones((3, 2)), [0.0])


class TestLemma2Check:
    def test_example2_reports_low_rayleigh_as_data(self, example2):
        # sparse draws explore subsets whose restricted spectrum dips far
        # below the smallest positive eigenvalue of the full Gram matrix, so
        # violations are expected — the report must carry them, not raise
        rep = lemma2_check(example2.a, 2, trials=200, seed=0)
        assert rep.trials == 200
        assert any(v["check"] == "rayleigh_low" for v in rep.violations)
        assert rep.rayleigh_min < rep.lambda_min_plus
        assert rep.rayleigh_max <= rep.lambda_max * (1 + 1e-9)
        summary = eig_summary(example2.a)
        assert rep.lambda_min_plus == summary.lambda_min_plus
        assert rep.cross_bound == (summary.lambda_max - summary.lambda_min_plus) / 2.0

    def test_orthonormal_matrix_never_violates(self):
        # A with orthonormal columns has a flat spectrum: both inequalities
        # hold for every support
        a = np.linalg.qr(np.random.default_rng(3).standard_normal((6, 4)))[0]
        rep = lemma2_check(a, 2, trials=150, seed=5)
        assert rep.violations == ()
        assert rep.rayleigh_min >= 1.0 - 1e-9
        assert rep.rayleigh_max <= 1.0 + 1e-9

    def test_deterministic_json(self, example2):
        one = lemma2_check(example2.a, 2, trials=60, seed=9)
        two = lemma2_check(example2.a, 2, trials=60, seed=9)
        assert one == two

    def test_supports_are_one_based_and_disjoint(self, example2):
        rep = lemma2_check(example2.a, 2, trials=40, seed=1)
        for v in rep.violations:
            if v["check"] == "cross":
                assert not set(v["support_1"]) & set(v["support_2"])
            sup = v.get("support", v.get("support_1"))
            assert min(sup) >= 1

    def test_errors(self, example2):
        with pytest.raises(DomainError):
            lemma2_check(example2.a, 0, trials=10, seed=0)
        with pytest.raises(DomainError):
            lemma2_check(example2.a, 3, trials=10, seed=0)   # k > n // 2
        with pytest.raises(DomainError):
            lemma2_check(example2.a, 2, trials=0, seed=0)
