from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from jointsparse import linalg
from jointsparse.bounds import pstar
from jointsparse.cli import main
from jointsparse.errors import AllZeroMatrix, DomainError, EnumerationTooLarge, RankDeficient
from jointsparse.generators import GenSpec, gen_problem
from jointsparse.linalg import (
    ENUMERATION_GUARD,
    REL_EIG_TOL,
    SubsetCover,
    as_matrix,
    check_enumerable,
    circuits,
    column_stacks,
    eig_summary,
    gram_eigenvalues,
    gram_spectrum,
    matrix_from_csv,
    matrix_from_json,
    matrix_to_csv,
    matrix_to_json,
    min_norm_solution,
    nullspace_basis,
    rank_covers,
    residual_covers,
    subset_batches,
)
from jointsparse.nsc import NscOptions, estimate_to_json, nsc_curve, nsc_estimate, spark
from jointsparse.solvers import (
    DescentOptions,
    IrlsOptions,
    MmvProblem,
    irls_solve,
    l20_solve,
    nullspace_solve,
)

from oracles import charpoly_eigenvalues, circuit_oracle, min_norm_oracle

# Spectrum of A^T A for the bundled 4x5 instance, frozen from the
# characteristic-polynomial oracle.
EX2_EVALS = [0.0, 6.466001382025592, 8.457917083567364, 9.598778206961973, 10.173992475576512]
EX2_RATIO = 1.573459681567424
EX2_NULLVEC = np.array([0.321784, -0.033230, 0.929099, -0.175329, 0.037215])


def listed(batches) -> list[tuple[int, ...]]:
    return [tuple(s) for idx in batches for s in idx.tolist()]


def holds_nothing(cover: SubsetCover, n: int, top: int) -> bool:
    """Whether *cover* lists every subset of range(n) of each size 1..top."""
    return all(listed(cover.uncovered(card)) == listed(subset_batches(n, card))
               for card in range(1, top + 1))


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


class TestGramSpectrum:
    def test_kernel_is_built_on_first_read(self, rng, monkeypatch):
        fixed = []

        def spy(basis, _real=linalg._fix_column_signs):
            fixed.append(basis.shape)
            return _real(basis)

        monkeypatch.setattr(linalg, "_fix_column_signs", spy)
        a = rng.standard_normal((3, 7))
        prob = MmvProblem(a=a, b=a[:, :2] @ rng.standard_normal((2, 2)))
        # the routes that read only the cut or the min-norm solve
        l20_solve(prob, 2)
        spark(a)
        pstar(a, prob.b)
        irls_solve(prob, 0.5, IrlsOptions())
        assert fixed == []
        spec = gram_spectrum(a)
        assert spec.kernel is spec.kernel and fixed == [(7, 4)]
        assert np.array_equal(spec.kernel, nullspace_basis(a).basis)
        assert not spec.kernel.flags.writeable


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
    def test_matches_per_subset_reference(self, rng, duplicate, decomposed):
        a = rng.standard_normal((6, 15))
        if duplicate:
            a[:, 9] = a[:, 2]          # every subset holding columns 2 and 9 is singular
        cut = gram_spectrum(a).cut
        subsets = []
        for idx in subset_batches(15, 5):
            sub, gram, full_rank = column_stacks(a, idx, cut)
            for s, a_s, g_s, ok in zip(idx.tolist(), sub, gram, full_rank):
                assert np.array_equal(a_s, a[:, s])
                assert np.allclose(g_s, a_s.T @ a_s, rtol=1e-12, atol=0)
                assert ok == (np.linalg.eigvalsh(a_s.T @ a_s)[0] > cut)
                assert ok == (not duplicate or not {2, 9} <= set(s))
            subsets.extend(map(tuple, idx.tolist()))
        assert subsets == list(itertools.combinations(range(15), 5))
        # two batches, every subset decomposed
        assert len(decomposed) == 2
        assert sum(decomposed) == math.comb(15, 5)

    def test_guard(self):
        check_enumerable(np.zeros((1, ENUMERATION_GUARD)))
        with pytest.raises(EnumerationTooLarge):
            check_enumerable(np.zeros((1, ENUMERATION_GUARD + 1)))


class TestRankCovers:
    """One rank test of every subset of size c* vouches for every subset of
    each one that passes."""

    @staticmethod
    def unvouched(a, top):
        # per size, the number of subsets of that size the cover leaves to
        # a rank test: every one until the voucher has run
        cut = gram_spectrum(a).cut
        return [sum(len(idx) for idx in ranked.uncovered(card))
                for card, ranked in rank_covers(a, cut, top)]

    def test_certified_after_the_first_size(self, rng, decomposed):
        # c* = 16 has 17 subsets, as many as size 1 enumerated before it
        a = rng.standard_normal((16, 17))
        assert self.unvouched(a, 8) == [17] + [0] * 7
        assert decomposed == [17]

    def test_n_at_most_m(self, rng, decomposed):
        assert self.unvouched(rng.standard_normal((6, 5)), 5) == [5] + [0] * 4
        assert decomposed == [1]

    def test_a_failed_subset_leaves_the_others_vouched(self, rng, decomposed):
        # 15 of the 17 subsets of 16 columns hold columns 2 and 9 and fail;
        # the 2 without column 2 or without column 9 vouch for every subset
        # but the C(15, c - 2) of size c that hold both
        a = rng.standard_normal((16, 17))
        a[:, 9] = a[:, 2]
        assert self.unvouched(a, 8) == [17] + [math.comb(15, c - 2) for c in range(2, 9)]
        assert decomposed == [17]

    def test_no_size_qualifies_above_min_m_n(self, rng, decomposed):
        assert self.unvouched(rng.standard_normal((3, 6)), 4) == [6, 15, 20, 15]
        assert decomposed == []

    def test_no_test_when_c_star_is_the_last_size(self, rng, decomposed):
        # c* = 4 (495 subsets, as many as size 8); sizes 1-3 hold only 298
        assert self.unvouched(rng.standard_normal((8, 12)), 4) == [12, 66, 220, 495]
        assert decomposed == []

    def test_pinned_subset_counts(self, decomposed):
        # Before the interlacing test: spark decomposed all 2^17 - 2 subsets
        # of 1-16 columns and one of 17 (131 071), l20_solve every subset of
        # 1-8 columns (65 535).  Now spark decomposes the 17 single columns,
        # then the 17 subsets of 16 columns, and nothing more.  l20_solve
        # built the same rank voucher too, decomposing the same 34 until B's
        # rank (4) ruled out size 1 and the 17 subsets of 16 columns after;
        # now it builds none and rank-tests only the one support the
        # residual test leaves, the planted one.
        prob = gen_problem(GenSpec("gaussian", 16, 17, 4, 8, 1))
        assert spark(prob.a) == 17
        assert sum(decomposed) == 34
        decomposed.clear()
        assert l20_solve(prob, 8).unique is True
        assert decomposed == [1]

    def test_one_dependent_c_star_subset(self, decomposed):
        # The exact benchmark pool at seed 1010 holds this instance: of its
        # 17 subsets of 16 columns only the one without column 9 is
        # dependent.  The other 16 vouch for every subset but that one and
        # all 17 columns, so spark decomposes the 17 single columns, the 17
        # subsets of 16 columns and that one again.  l20_solve builds no rank
        # voucher and decomposes the one support the residual test leaves;
        # with its own rank voucher it decomposed the 17 subsets of 16
        # columns and no support (the 17 single columns too, until B's rank
        # ruled out size 1).  While one test failing kept the rank cut for
        # every size, spark decomposed 131 087 subsets here and l20_solve
        # 65 552 (every support of 1-8 columns and the 17 tested).
        prob = gen_problem(GenSpec("gaussian", 16, 17, 4, 8, 3226652560831358504))
        assert spark(prob.a) == 16
        assert decomposed == [17, 17, 1]
        decomposed.clear()
        sol = l20_solve(prob, 8)
        assert decomposed == [1]
        planted = tuple(int(j) + 1 for j in np.flatnonzero(np.any(prob.planted != 0, axis=1)))
        assert sol.support.indices == planted and sol.unique is True


class TestSubsetBatches:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 9, 12])
    def test_every_size_in_lexicographic_order(self, n):
        for card in range(n + 1):
            batches = list(subset_batches(n, card))
            assert all(b.dtype == np.int8 and len(b) <= 2048 for b in batches)
            rows = [tuple(row) for b in batches for row in b.tolist()]
            assert rows == list(itertools.combinations(range(n), card))

    def test_complements_of_the_smaller_size(self):
        # sizes above n/2 come from the complements of the smaller size
        rows = [tuple(r) for b in subset_batches(ENUMERATION_GUARD, 17) for r in b.tolist()]
        assert rows == list(itertools.combinations(range(ENUMERATION_GUARD), 17))


def circuit_cases() -> dict[str, np.ndarray]:
    """Seeded Gaussian matrices, and ones with a duplicated column, a zero
    column, a repeated row (rank below m, so no circuit) and n = m (no
    (m + 1)-subset)."""
    rng = np.random.default_rng(1962)
    cases = {f"{m}x{n}": rng.standard_normal((m, n)) for m, n in ((1, 4), (2, 5), (3, 6), (4, 7))}
    dup = rng.standard_normal((3, 6))
    dup[:, 4] = dup[:, 1]
    cases["3x6 column 4 = column 1"] = dup
    zero = rng.standard_normal((3, 6))
    zero[:, 2] = 0.0
    cases["3x6 zero column"] = zero
    cases["4x6 repeated row"] = np.vstack([rng.standard_normal((3, 6))] * 2)[:4]
    cases["4x4"] = rng.standard_normal((4, 4))
    return cases


CIRCUIT_CASES = circuit_cases()


class TestCircuits:
    @pytest.mark.parametrize("name", sorted(CIRCUIT_CASES))
    def test_matches_the_svd_oracle(self, name):
        a = CIRCUIT_CASES[name]
        got = circuits(a, gram_spectrum(a).cut)
        want = circuit_oracle(a)
        assert got.shape == (len(want), a.shape[1])
        for x, (sub, y) in zip(got, want.items()):
            off = np.setdiff1d(np.arange(a.shape[1]), sub)
            assert not x[off].any(), (name, sub)            # exact zeros off C
            x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)
            sign = np.sign(x @ y)
            assert np.allclose(x, sign * y, rtol=0, atol=1e-9), (name, sub)
            assert np.linalg.norm(a @ x) <= 1e-12 * np.linalg.norm(a)

    def test_scale_moves_nothing(self):
        # 5x8 scaled by 2**210: each 5x5 determinant would reach 2**1050
        a = np.random.default_rng(5).standard_normal((5, 8))
        want = circuits(a, gram_spectrum(a).cut)
        for scale in (2.0 ** 210, 2.0 ** -210):
            big = a * scale
            assert np.array_equal(circuits(big, gram_spectrum(big).cut), want)

    def test_guard(self):
        with pytest.raises(EnumerationTooLarge):
            circuits(np.ones((2, ENUMERATION_GUARD + 1)), 0.0)


class TestCloseDownward:
    @pytest.mark.parametrize("n", range(11))
    def test_equals_brute_force(self, rng, n):
        # a few marked masks, so that most subsets stay unmarked
        table = rng.random(1 << n) < 2.0 / (1 << n) + 0.01
        masks = np.arange(1 << n)
        superset = (masks[None, :] & masks[:, None]) == masks[:, None]
        want = (superset & table[None, :]).any(axis=1)
        before = table.copy()
        got = linalg._close_downward(table)
        assert got.dtype == bool and got.tolist() == want.tolist()
        assert np.array_equal(table, before)


class TestSubsetCover:
    """The covers that hold nothing and everything need no table."""

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 12])
    def test_the_empty_cover_lists_what_subset_batches_lists(self, n):
        empty = SubsetCover(n, False)
        for card in range(n + 1):
            batches = list(empty.uncovered(card))
            want = list(subset_batches(n, card))
            assert [(b.dtype, b.tolist()) for b in batches] == [(b.dtype, b.tolist())
                                                               for b in want]

    def test_the_full_cover_and_a_table_cover(self):
        # a table cover: every subset of columns 0-2 (bits n - 1 - j)
        n = 6
        x = SubsetCover(n, (np.arange(1 << n) & ~0b111000) == 0)
        assert listed(SubsetCover(n, True).uncovered(3)) == []
        assert listed(x.uncovered(3)) == [s for s in itertools.combinations(range(n), 3)
                                          if s != (0, 1, 2)]


class TestResidualCovers:
    """One least-squares residual of a superset U rules out every subset of
    U; ``residual_covers`` says which supports that rules out, and when."""

    @staticmethod
    def certified(a, b, u, tol):
        # the voucher's rule, by one lstsq per U
        m, n = a.shape
        allowance = m * n * np.finfo(float).eps * (np.linalg.norm(b) + tol)
        limit = tol + allowance / math.sqrt(REL_EIG_TOL)
        out = []
        for cols in itertools.combinations(range(n), u):
            y = np.linalg.lstsq(a[:, cols], b, rcond=None)[0]
            if np.linalg.norm(a[:, cols] @ y - b) > limit:
                out.append(set(cols))
        return out

    @pytest.mark.parametrize("planted", [0, 2, 5])
    def test_matches_per_superset_least_squares(self, rng, planted):
        a = rng.standard_normal((6, 8))
        x = np.zeros((8, 2))
        x[:planted] = rng.standard_normal((planted, 2))
        b = a @ x if planted else rng.standard_normal((6, 2))
        tol = 1e-8 * max(1.0, np.linalg.norm(b))
        # u* = 5 (56 subsets); sizes 1-2 hold 36 and sizes 1-3 hold 92, so
        # the test comes before size 4
        covers = [covered for _, covered in residual_covers(a, b, 4, tol)]
        assert all(holds_nothing(c, 8, 4) for c in covers[:3])
        vouched = self.certified(a, b, 5, tol)
        # every U holding the planted rows fits B; no other U does
        assert len(vouched) == 56 - (math.comb(8 - planted, 5 - planted) if planted else 0)
        for card in range(1, 5):
            want = [s for s in itertools.combinations(range(8), card)
                    if not any(set(s) <= u for u in vouched)]
            assert listed(covers[3].uncovered(card)) == want

    @pytest.mark.parametrize("shape, planted, top", [
        ((6, 8), 0, 4), ((6, 8), 2, 4), ((6, 8), 5, 4),
        # u* = 19 (20 subsets), tested before size 2; every subset holding
        # the planted row escapes, C(19, c - 1) of size c, so sizes 5 and 6
        # take more than one batch
        ((ENUMERATION_GUARD, ENUMERATION_GUARD), 1, 6)])
    def test_listing_equals_the_filter(self, rng, shape, planted, top):
        m, n = shape
        a = rng.standard_normal((m, n))
        x = np.zeros((n, 2))
        x[:planted] = rng.standard_normal((planted, 2))
        b = a @ x if planted else rng.standard_normal((m, 2))
        tol = 1e-8 * max(1.0, np.linalg.norm(b))
        u, due = (5, 4) if n == 8 else (19, 2)      # u* and the size it is tested before
        vouched = self.certified(a, b, u, tol)
        batch_counts = []
        for card, covered in residual_covers(a, b, top, tol):
            batches = list(covered.uncovered(card))
            assert all(idx.dtype == np.int8 and 0 < len(idx) <= 2048 for idx in batches)
            assert listed(batches) == [s for s in itertools.combinations(range(n), card)
                                       if card < due or not any(set(s) <= v for v in vouched)]
            batch_counts.append(len(batches))
        # the sizes before the test list every subset, one batch each
        if n == 8:
            assert batch_counts == [1, 1, 1, 0 if planted in (0, 5) else 1]
        else:
            assert batch_counts == [1, 1, 1, 1, 2, 6]

    @pytest.mark.parametrize("shape, top, u", [
        # n within one word of the packed closure, whose table is padded
        # (u* = 3 and 4, tested before size 2), and beyond it (u* = 5
        # before size 4, 7 before 5)
        ((4, 4), 2, 3), ((5, 5), 3, 4), ((6, 9), 5, 5), ((8, 12), 6, 7)])
    @pytest.mark.parametrize("kind", ["planted", "hub"])
    def test_closed_table_equals_brute_force(self, rng, shape, top, u, kind):
        m, n = shape
        a = rng.standard_normal((m, n))
        if kind == "planted":
            # a U fits B when it holds columns 0 and n - 2, or column n - 1
            # (which repeats column 0) and n - 2; some Us are rank deficient
            a[:, n - 1] = a[:, 0]
            b = a[:, [0, n - 2]] @ rng.standard_normal((2, 2))
        else:
            # every column but the hub and B lie in one hyperplane, which
            # any u = m - 1 of those columns span, so every certified U
            # holds the hub; its subsets without it are covered only
            # through closing the hub's bit (n - 1 - hub)
            hub = {4: 2, 5: 0, 9: 3, 12: 9}[n]
            plane = np.linalg.qr(rng.standard_normal((m, m - 1)))[0]
            a = plane @ rng.standard_normal((m - 1, n))
            a[:, hub] = rng.standard_normal(m)
            b = plane @ rng.standard_normal((m - 1, 2))
        tol = 1e-8 * max(1.0, np.linalg.norm(b))
        covered = [c for _, c in residual_covers(a, b, top, tol)][-1]
        vouched = np.array([sum(1 << j for j in cols) for cols in self.certified(a, b, u, tol)])
        assert 0 < len(vouched) < math.comb(n, u)
        # the rank cover of the same matrix: every subset of a c*-subset
        # whose smallest Gram eigenvalue clears the cut, c* = min(m, n) here
        cut = gram_spectrum(a).cut
        ranked = [c for _, c in rank_covers(a, cut, top)][-1]
        passed = np.array([sum(1 << j for j in cols)
                           for cols in itertools.combinations(range(n), min(m, n))
                           if np.linalg.eigvalsh(a[:, cols].T @ a[:, cols])[0] > cut], dtype=int)
        for card in range(1, n + 1):
            every = np.array(list(itertools.combinations(range(n), card)), dtype=np.int8)
            masks = (1 << every.astype(np.int64)).sum(axis=1)
            for cover, sets in ((covered, vouched), (ranked, passed)):
                want = ((masks[:, None] & ~sets[None, :]) == 0).any(axis=1)
                assert listed(cover.uncovered(card)) == listed([every[~want]]), card

    def test_nothing_certified_yields_the_empty_cover(self, rng):
        # every column and B lie on one line: every U fits B
        a = np.outer(rng.standard_normal(6), rng.standard_normal(8))
        b = 3.0 * a[:, :1]
        assert all(holds_nothing(c, 8, 4) for _, c in residual_covers(a, b, 4, 1e-8))

    @pytest.mark.parametrize("factor, covered", [(1.05, False), (1.5, True)])
    def test_rounding_allowance(self, rng, factor, covered):
        # every column lies in the span of columns 0-3, and B lies *factor*
        # times the tolerance off that span, so every U leaves that
        # residual.  1.05 is inside the allowance (0.107 of the tolerance
        # here), 1.5 beyond it.
        a = rng.standard_normal((6, 8))
        a[:, 4:] = a[:, :4] @ rng.standard_normal((4, 4))
        b = a[:, :4] @ rng.standard_normal((4, 1))
        off = rng.standard_normal((6, 1))
        off -= a[:, :4] @ np.linalg.lstsq(a[:, :4], off, rcond=None)[0]
        tol = 1e-8 * np.linalg.norm(b)
        b = b + off * (factor * tol / np.linalg.norm(off))
        last = list(residual_covers(a, b, 4, tol))[-1][1]
        # every U is certified, or none is
        assert ((0, 1, 2, 3) in listed(last.uncovered(4))) != covered
        assert holds_nothing(last, 8, 4) != covered

    @pytest.mark.parametrize("factor, covered", [(1.05, False), (1.5, True)])
    def test_rounding_allowance_with_rows_below_the_block(self, rng, factor, covered):
        # n < m - 1, so u* = n = 8, tested before size 2, and R[u:, u:] has
        # a row below its first, where the raw QR factor keeps a Householder
        # vector that the bound must leave out.  B lies *factor* tolerances
        # off range(A); the allowance is 0.178 of the tolerance here.
        a = rng.standard_normal((10, 8))
        b = a @ rng.standard_normal((8, 2))
        off = rng.standard_normal((10, 2))
        off -= a @ np.linalg.lstsq(a, off, rcond=None)[0]
        tol = 1e-8 * np.linalg.norm(b)
        b = b + off * (factor * tol / np.linalg.norm(off))
        last = list(residual_covers(a, b, 4, tol))[-1][1]
        assert holds_nothing(last, 8, 4) != covered

    @pytest.mark.parametrize("shape, top", [((4, 6), 2), ((3, 6), 3), ((6, 4), 1)])
    def test_no_test_without_a_qualifying_size_or_time(self, rng, shape, top, monkeypatch):
        # u* = top (4x6); m - 1 < top (3x6); u* = 4 has one subset, but
        # size 1, the only size, comes before any subset is enumerated (6x4)
        def never(*_args, **_kwargs):
            raise AssertionError("no residual test expected")

        monkeypatch.setattr(np.linalg, "qr", never)
        a = rng.standard_normal(shape)
        b = rng.standard_normal((shape[0], 1))
        assert all(holds_nothing(c, shape[1], top) for _, c in residual_covers(a, b, top, 1e-8))


def cli_nsc(a: np.ndarray) -> None:
    """``jointsparse nsc`` on A, which reads both the kernel basis and the
    theorem 4 eigenvalue ratio off A's Gram matrix."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.json"
        path.write_text(json.dumps(matrix_to_json(a)))
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["nsc", str(path), "--k", "1", "--r", "1",
                         "--grid", "0.2,0.5,0.8", "--restarts", "1"])
    assert code == 0


def gram_decompositions(monkeypatch) -> list[tuple[int, ...]]:
    """The shapes of the 2-D eigh and eigvalsh calls made from now on in the
    test: one entry per decomposition of a Gram matrix."""
    shapes = []
    for fn in ("eigh", "eigvalsh"):
        def spy(mat, *args, _real=getattr(np.linalg, fn), **kwargs):
            if np.ndim(mat) == 2:
                shapes.append(np.shape(mat))
            return _real(mat, *args, **kwargs)
        monkeypatch.setattr(np.linalg, fn, spy)
    return shapes


class TestOneDecompositionPerCall:
    """Every entry point decomposes A's Gram matrix (a 2-D eigh or eigvalsh
    call) exactly once.  The descent instance has nullity * r = 1, so the
    kink polish, which decomposes small matrices of its own, does not run."""

    CALLS = {
        "pstar": lambda ex: pstar(ex.a, ex.b),
        "nsc_estimate": lambda ex: nsc_estimate(
            ex.a[:3], 1, 0.5, NscOptions(seed=0, restarts=1)),
        "nsc_curve": lambda ex: nsc_curve(
            ex.a[:3], 1, [0.2, 0.5, 0.8], NscOptions(seed=0, restarts=1)),
        "cli nsc": lambda ex: cli_nsc(ex.a[:3]),
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
        shapes = gram_decompositions(monkeypatch)
        self.CALLS[name](example2)
        assert len(shapes) == 1, shapes


class TestSpectrumInput:
    """The entry points whose first step is ``gram_spectrum`` take A or its
    spectrum alike: given the spectrum they decompose nothing and answer
    exactly as they do on A."""

    OPTS = NscOptions(seed=0, restarts=1)
    # name: (the matrix, the call on it or on its spectrum, the answer as == compares it)
    CALLS = {
        "pstar": (lambda ex: ex.a, lambda a, ex: pstar(a, ex.b), repr),
        "nsc_estimate": (lambda ex: ex.a[:3], lambda a, ex: nsc_estimate(
            a, 1, 0.5, TestSpectrumInput.OPTS), lambda est: estimate_to_json(est, 1)),
        "nsc_curve": (lambda ex: ex.a[:3], lambda a, ex: nsc_curve(
            a, 1, [0.2, 0.5, 0.8], TestSpectrumInput.OPTS),
            lambda curve: [estimate_to_json(est, 1) for est in curve]),
        "MmvProblem": (lambda ex: ex.a, lambda a, ex: nullspace_solve(
            MmvProblem(a=a, b=ex.b[:, [0]]), 0.5, DescentOptions(seed=0, restarts=1)),
            lambda sol: sol.x.tolist()),
    }

    @pytest.mark.parametrize("name", list(CALLS))
    def test_no_decomposition_and_the_same_answer(self, name, example2, monkeypatch):
        matrix, call, render = self.CALLS[name]
        a = matrix(example2)
        spec = gram_spectrum(a)
        on_a = render(call(a, example2))
        shapes = gram_decompositions(monkeypatch)
        assert render(call(spec, example2)) == on_a
        assert shapes == []

    def test_gram_spectrum_returns_a_spectrum_unchanged(self, example2):
        spec = example2.spectrum
        assert gram_spectrum(spec) is spec

    def test_problem_keeps_the_spectrum_and_its_a(self, example2, spectra):
        spec = example2.spectrum
        col = MmvProblem(a=spec, b=example2.b[:, [1]])
        assert col.spectrum is spec and col.a is spec.a
        assert [a is example2.a for a in spectra] == [True]
