from __future__ import annotations

import itertools

import numpy as np
import pytest

from jointsparse.bounds import pstar
from jointsparse.errors import AllZeroMatrix, DomainError, EnumerationTooLarge, RankDeficient
from jointsparse.linalg import (
    ENUMERATION_GUARD,
    as_matrix,
    check_enumerable,
    column_subsets,
    eig_summary,
    gram_eigenvalues,
    gram_spectrum,
    matrix_from_csv,
    matrix_from_json,
    matrix_to_csv,
    matrix_to_json,
    min_norm_solution,
    nullspace_basis,
)
from jointsparse.nsc import NscOptions, nsc_curve, spark
from jointsparse.solvers import (
    DescentOptions,
    IrlsOptions,
    MmvProblem,
    irls_solve,
    l20_solve,
    nullspace_solve,
)

from oracles import charpoly_eigenvalues, min_norm_oracle

# Spectrum of A^T A for the bundled 4x5 instance, frozen from the
# characteristic-polynomial oracle.
EX2_EVALS = [0.0, 6.466001382025592, 8.457917083567364, 9.598778206961973, 10.173992475576512]
EX2_RATIO = 1.573459681567424
EX2_NULLVEC = np.array([0.321784, -0.033230, 0.929099, -0.175329, 0.037215])


class TestValidation:
    def test_rejects_ragged(self):
        with pytest.raises(DomainError):
            as_matrix([[1.0, 2.0], [3.0]])

    def test_rejects_non_2d(self):
        with pytest.raises(DomainError):
            as_matrix([1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            as_matrix(np.zeros((2, 2, 2)))

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            as_matrix([[1.0, np.nan]])
        with pytest.raises(DomainError):
            as_matrix([[np.inf, 1.0]])

    def test_rejects_empty_axis(self):
        with pytest.raises(DomainError):
            as_matrix(np.zeros((0, 3)))

    def test_result_is_read_only(self):
        m = as_matrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            m[0, 0] = 5.0


class TestSerialization:
    def test_json_round_trip(self, rng):
        m = rng.standard_normal((3, 4))
        again = matrix_from_json(matrix_to_json(m))
        assert np.array_equal(again, m)

    def test_csv_round_trip(self, rng):
        m = rng.standard_normal((4, 2))
        again = matrix_from_csv(matrix_to_csv(m))
        assert np.array_equal(again, m)

    def test_csv_uses_dot_decimal(self):
        text = matrix_to_csv(np.array([[0.5, -1.25]]))
        assert text == "0.5,-1.25\n"

    def test_ragged_json_rejected(self):
        with pytest.raises(DomainError):
            matrix_from_json([[1.0, 2.0], [3.0]])

    def test_ragged_csv_rejected(self):
        with pytest.raises(DomainError):
            matrix_from_csv("1.0,2.0\n3.0\n")

    def test_garbage_csv_rejected(self):
        with pytest.raises(DomainError):
            matrix_from_csv("1.0,abc\n")


class TestEigSummary:
    def test_against_charpoly_oracle(self, example2):
        a = example2.a
        oracle = charpoly_eigenvalues(a.T @ a)
        summary = eig_summary(a)
        # oracle loses the zero root to grid placement at times; compare tops
        assert summary.lambda_max == pytest.approx(oracle[-1], abs=1e-6)
        assert summary.lambda_min_plus == pytest.approx(EX2_EVALS[1], abs=1e-9)
        assert summary.lambda_max == pytest.approx(EX2_EVALS[-1], abs=1e-9)
        assert summary.ratio == pytest.approx(EX2_RATIO, abs=1e-9)
        assert summary.rank == 4

    def test_wide_and_tall_agree(self, rng):
        a = rng.standard_normal((3, 6))
        wide = eig_summary(a)
        tall = eig_summary(a.T)
        assert wide.lambda_max == pytest.approx(tall.lambda_max, rel=1e-12)
        assert wide.lambda_min_plus == pytest.approx(tall.lambda_min_plus, rel=1e-10)

    def test_zero_matrix_raises(self):
        with pytest.raises(AllZeroMatrix):
            eig_summary(np.zeros((3, 3)))

    def test_relative_threshold_controls_rank(self):
        # lambda_max = 4, so the cut is 4e-10: 1e-8 clears it, 1e-10 does not
        assert eig_summary(np.diag([2.0, 1e-4])).rank == 2
        summary = eig_summary(np.diag([2.0, 1e-5]))
        assert summary.rank == 1
        assert summary.zero_threshold == pytest.approx(4e-10, rel=1e-15)
        assert nullspace_basis(np.diag([2.0, 1e-5])).nullity == 1


class TestNullspace:
    def test_example2_generator(self, example2):
        ns = nullspace_basis(example2.a)
        assert ns.nullity == 1
        # entrywise agreement with the recorded generator (sign fixed so the
        # largest-magnitude entry is positive)
        assert np.allclose(ns.basis[:, 0], EX2_NULLVEC, atol=5e-4)

    def test_columns_annihilated(self, example2):
        ns = nullspace_basis(example2.a)
        assert np.linalg.norm(example2.a @ ns.basis) <= 1e-10

    def test_orthonormal(self, rng):
        a = rng.standard_normal((3, 7))
        ns = nullspace_basis(a)
        assert ns.nullity == 4
        gram = ns.basis.T @ ns.basis
        assert np.allclose(gram, np.eye(4), atol=1e-12)

    def test_sign_convention(self, rng):
        for _ in range(10):
            a = rng.standard_normal((2, 5))
            basis = nullspace_basis(a).basis
            for col in basis.T:
                assert col[np.argmax(np.abs(col))] > 0

    def test_rank_plus_nullity(self, rng):
        for _ in range(10):
            m, n = rng.integers(2, 7, size=2)
            a = rng.standard_normal((m, n))
            if rng.uniform() < 0.5:                     # force rank deficiency
                a[-1] = a[0] if m > 1 else a[-1]
            try:
                rank = eig_summary(a).rank
            except AllZeroMatrix:
                rank = 0
            assert rank + nullspace_basis(a).nullity == n

    def test_zero_matrix_full_kernel(self):
        ns = nullspace_basis(np.zeros((2, 4)))
        assert ns.nullity == 4

    def test_trivial_kernel_empty_basis(self):
        ns = nullspace_basis(np.eye(3))
        assert ns.nullity == 0
        assert ns.basis.shape == (3, 0)


class TestMinNorm:
    def test_against_elimination_oracle(self, rng):
        for _ in range(10):
            m, n = 3, 6
            a = rng.standard_normal((m, n))
            b = rng.standard_normal((m, 2))
            x0 = min_norm_solution(a, b)
            assert np.allclose(x0, min_norm_oracle(a, b), atol=1e-10)

    def test_residual(self, rng):
        a = rng.standard_normal((4, 9))
        b = rng.standard_normal((4, 3))
        x0 = min_norm_solution(a, b)
        assert np.linalg.norm(a @ x0 - b) <= 1e-10 * max(1.0, np.linalg.norm(b))

    def test_orthogonal_to_kernel(self, rng):
        a = rng.standard_normal((3, 8))
        b = rng.standard_normal((3, 2))
        x0 = min_norm_solution(a, b)
        basis = nullspace_basis(a).basis
        assert np.linalg.norm(basis.T @ x0) <= 1e-8 * max(1.0, np.linalg.norm(x0))

    def test_rank_deficient_raises(self):
        a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
        with pytest.raises(RankDeficient):
            min_norm_solution(a, np.ones((2, 1)))

    def test_shape_mismatch(self, rng):
        with pytest.raises(DomainError):
            min_norm_solution(rng.standard_normal((3, 5)), rng.standard_normal((4, 1)))


class TestColumnSubsets:
    """3003 subsets of 15 columns taken 5 at a time span two batches."""

    @pytest.mark.parametrize("duplicate", [False, True])
    def test_matches_per_subset_reference(self, rng, duplicate):
        a = rng.standard_normal((6, 15))
        if duplicate:
            a[:, 9] = a[:, 2]          # every subset holding columns 2 and 9 is singular
        cut = gram_spectrum(a).cut
        subsets, batches = [], 0
        for chunk, sub, gram, full_rank in column_subsets(a, 5, cut):
            batches += 1
            for s, a_s, g_s, ok in zip(chunk, sub, gram, full_rank):
                assert np.array_equal(a_s, a[:, list(s)])
                assert np.allclose(g_s, a_s.T @ a_s, rtol=1e-12, atol=0)
                assert ok == (np.linalg.eigvalsh(a_s.T @ a_s)[0] > cut)
                assert ok == (not duplicate or not {2, 9} <= set(s))
            subsets.extend(chunk)
        assert batches == 2
        assert subsets == list(itertools.combinations(range(15), 5))

    def test_guard(self):
        check_enumerable(np.zeros((1, ENUMERATION_GUARD)))
        with pytest.raises(EnumerationTooLarge):
            check_enumerable(np.zeros((1, ENUMERATION_GUARD + 1)))


class TestOneDecompositionPerCall:
    """Every entry point decomposes A's Gram matrix (a 2-D eigh or eigvalsh
    call) exactly once.  The descent instance has nullity * r = 1, so the
    kink polish, which decomposes small matrices of its own, does not run."""

    CALLS = {
        "pstar": lambda ex: pstar(ex.a, ex.b),
        "nsc_curve": lambda ex: nsc_curve(
            ex.a[:3], 1, 1, [0.2, 0.5, 0.8], NscOptions(seed=0, restarts=1)),
        "nullspace_solve": lambda ex: nullspace_solve(
            MmvProblem(a=ex.a, b=ex.b[:, [0]]), 0.5, DescentOptions(seed=0, restarts=1)),
        "irls_solve": lambda ex: irls_solve(ex, 0.5, IrlsOptions()),
        "l20_solve": lambda ex: l20_solve(ex, 2),
        "spark": lambda ex: spark(ex.a),
        "eig_summary": lambda ex: eig_summary(ex.a),
        "gram_eigenvalues": lambda ex: gram_eigenvalues(ex.a),
        "nullspace_basis": lambda ex: nullspace_basis(ex.a),
        "min_norm_solution": lambda ex: min_norm_solution(ex.a, ex.b),
    }

    @pytest.mark.parametrize("name", list(CALLS))
    def test_exactly_one(self, name, example2, monkeypatch):
        shapes = []
        for fn in ("eigh", "eigvalsh"):
            def spy(mat, *args, _real=getattr(np.linalg, fn), **kwargs):
                if np.ndim(mat) == 2:
                    shapes.append(np.shape(mat))
                return _real(mat, *args, **kwargs)
            monkeypatch.setattr(np.linalg, fn, spy)
        self.CALLS[name](example2)
        assert len(shapes) == 1, shapes
