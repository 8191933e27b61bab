from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np
import pytest

from jointsparse.errors import (
    DimGuardExceeded,
    DomainError,
    EnumerationTooLarge,
    Infeasible,
    MaxIterationsExceeded,
    RankDeficient,
)
from jointsparse import solvers
from jointsparse.generators import GenSpec, gen_problem
from jointsparse.norms import DEFAULT_ZERO_TOL, mixed_norm_2p, row_norms, row_support
from jointsparse.nsc import NscOptions, nsc_estimate
from jointsparse.linalg import gram_spectrum, min_norm_solution, min_support_size, nullspace_basis
from jointsparse.linalg import residual_covers
from jointsparse.solvers import (
    IRLS_EPS0,
    IRLS_EPS_MIN,
    DescentOptions,
    EquivalenceOptions,
    IrlsOptions,
    MmvProblem,
    check_equivalence,
    irls_solve,
    l20_solve,
    nullspace_solve,
    problem_from_json,
    problem_to_json,
    solution_to_json,
)

from oracles import basic_optimum, basic_solutions, exhaustive_l20, l20_every_support


class TestMmvProblem:
    def test_row_mismatch(self, rng):
        with pytest.raises(DomainError):
            MmvProblem(a=rng.standard_normal((3, 5)), b=rng.standard_normal((4, 1)))

    def test_planted_must_satisfy_system(self, rng):
        a = rng.standard_normal((3, 5))
        x = rng.standard_normal((5, 2))
        with pytest.raises(DomainError):
            MmvProblem(a=a, b=a @ x + 1.0, planted=x)

    def test_planted_shape_checked(self, rng):
        a = rng.standard_normal((3, 5))
        with pytest.raises(DomainError):
            MmvProblem(a=a, b=rng.standard_normal((3, 2)),
                       planted=rng.standard_normal((4, 2)))

    def test_k_range(self, rng):
        a = rng.standard_normal((3, 5))
        b = rng.standard_normal((3, 1))
        with pytest.raises(DomainError):
            MmvProblem(a=a, b=b, k=0)
        with pytest.raises(DomainError):
            MmvProblem(a=a, b=b, k=6)

    def test_json_round_trip(self, example2):
        again = problem_from_json(problem_to_json(example2))
        assert np.array_equal(again.a, example2.a)
        assert np.array_equal(again.b, example2.b)
        assert np.array_equal(again.planted, example2.planted)
        assert again.k == example2.k

    def test_json_unknown_field(self):
        with pytest.raises(DomainError):
            problem_from_json({"A": [[1.0]], "B": [[1.0]], "C": 1})


class TestL20:
    def test_example2_support_and_uniqueness(self, example2):
        sol = l20_solve(example2, example2.k)
        assert sol.support.indices == (2, 5)
        assert sol.objective == 2.0
        assert sol.unique is True
        assert np.allclose(sol.x, example2.planted, atol=1e-8)
        assert sol.residual <= 1e-8

    def test_example1_joint_not_unique(self, example1):
        sol = l20_solve(example1, 5)
        assert sol.objective == 3.0
        assert sol.support.indices == (1, 2, 3)    # beats {3,4,5} on Frobenius norm
        assert sol.unique is False

    def test_example1_column_solves(self, example1):
        lefts = l20_solve(MmvProblem(a=example1.a, b=example1.b[:, [0]]), 4)
        rights = l20_solve(MmvProblem(a=example1.a, b=example1.b[:, [1]]), 4)
        assert lefts.support.indices == (1, 2)
        assert rights.support.indices == (4, 5)
        assert int(lefts.objective + rights.objective) == 4

    def test_zero_rhs(self, rng):
        a = rng.standard_normal((3, 6))
        sol = l20_solve(MmvProblem(a=a, b=np.zeros((3, 2))), 3)
        assert sol.objective == 0.0
        assert sol.support.indices == ()
        assert sol.unique is True

    def test_infeasible(self):
        a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        b = np.array([[1.0], [2.0]])
        with pytest.raises(Infeasible):
            l20_solve(MmvProblem(a=a, b=b), 1)

    def test_enumeration_guard(self, rng):
        a = rng.standard_normal((3, 21))
        with pytest.raises(EnumerationTooLarge):
            l20_solve(MmvProblem(a=a, b=rng.standard_normal((3, 1))), 2)

    def test_k_max_validation(self, example2):
        with pytest.raises(DomainError):
            l20_solve(example2, 0)
        with pytest.raises(DomainError):
            l20_solve(example2, 6)

    @pytest.mark.parametrize("zero_tol", [math.nan, -1e-8])
    def test_nan_or_negative_zero_tol_rejected_before_enumerating(self, example2, stacked,
                                                                  zero_tol):
        # a NaN tolerance used to return support () with objective 0.0
        with pytest.raises(DomainError, match="zero_tol"):
            l20_solve(example2, 2, zero_tol=zero_tol)
        assert stacked == []

    def test_against_exhaustive_oracle(self):
        for seed in range(40):
            spec = GenSpec(kind="gaussian", m=4, n=8, r=2, k=2, seed=seed)
            prob = gen_problem(spec)
            sol = l20_solve(prob, 4)
            oracle = exhaustive_l20(prob.a, prob.b, 4)
            assert oracle is not None
            card, supports, best_x = oracle
            assert int(sol.objective) == card
            assert np.allclose(sol.x, best_x, atol=1e-7)
            assert sol.unique == (len(supports) == 1)

    def test_planted_two_sparse_recovered_with_matched_support(self):
        spec = GenSpec(kind="gaussian", m=6, n=10, r=2, k=3, seed=99)
        prob = gen_problem(spec)
        sol = l20_solve(prob, 3)
        planted_support = tuple(
            int(i) + 1 for i in np.nonzero(np.linalg.norm(prob.planted, axis=1))[0]
        )
        assert sol.support.indices == planted_support
        assert np.allclose(sol.x, prob.planted, atol=1e-8)


def l20_cases() -> dict[str, tuple[MmvProblem, int]]:
    """Problems and k_max for the frozen ``l20_solve`` values.

    The generated instances reach every route through the interlacing
    check: it passes before the last size (8x10 k4, 16x17 k8), it is never
    made apart from enumerating the last size (4x6, 5x8, 8x12), and n <= m
    (6x5).  "duplicate" copies column 1 into column 5, so the check fails
    for the subsets holding both columns, and the supports holding both
    take the lstsq path; "k_max > m" asks for more rows than A has, where
    no size qualifies for the check.
    """
    cases = {
        f"gaussian {m}x{n} r{r} k{k} seed {s} k_max {k + extra}":
            (gen_problem(GenSpec("gaussian", m, n, r, k, s)), k + extra)
        for m, n, r, k, s, extra in (
            (4, 6, 1, 2, 3, 0), (5, 8, 2, 2, 11, 1), (6, 5, 2, 2, 4, 1),
            (7, 8, 1, 3, 2, 0), (8, 10, 2, 4, 6, 0), (8, 12, 3, 4, 9, 0),
            (16, 17, 4, 8, 1, 0), (16, 17, 4, 8, 2, 0),
        )
    }
    rng = np.random.default_rng(7)
    a = rng.standard_normal((7, 8))
    a[:, 5] = a[:, 1]
    x = np.zeros((8, 2))
    x[[1, 3, 6]] = rng.standard_normal((3, 2))
    cases["duplicate"] = (MmvProblem(a=a, b=a @ x), 3)
    a = rng.standard_normal((3, 6))
    cases["k_max > m"] = (MmvProblem(a=a, b=rng.standard_normal((3, 2))), 4)
    return cases


def l20_digest(sol) -> tuple:
    return (sol.support.indices, sol.unique, sol.objective,
            hashlib.sha256(sol.x.tobytes()).hexdigest()[:16])


# l20_solve on l20_cases() as it ran when every support's Gram matrix was
# decomposed: support, unique, objective and the first 16 hex digits of
# sha256 over x's bytes.
FROZEN_L20 = {
    "gaussian 4x6 r1 k2 seed 3 k_max 2": ((3, 4), True, 2.0, "d9a9303555a2b987"),
    "gaussian 5x8 r2 k2 seed 11 k_max 3": ((1, 2), True, 2.0, "5e81e1e02070ca3e"),
    "gaussian 6x5 r2 k2 seed 4 k_max 3": ((4, 5), True, 2.0, "42b1b89c30b8b03f"),
    "gaussian 7x8 r1 k3 seed 2 k_max 3": ((2, 3, 4), True, 3.0, "1ed1203dec382418"),
    "gaussian 8x10 r2 k4 seed 6 k_max 4": ((1, 5, 8, 10), True, 4.0, "603e1a25994458f4"),
    "gaussian 8x12 r3 k4 seed 9 k_max 4": ((3, 7, 8, 9), True, 4.0, "b91f424b1a7a5c54"),
    "gaussian 16x17 r4 k8 seed 1 k_max 8":
        ((1, 4, 6, 8, 11, 14, 16, 17), True, 8.0, "878fc8debd0ce538"),
    "gaussian 16x17 r4 k8 seed 2 k_max 8":
        ((1, 2, 3, 4, 8, 10, 11, 15), True, 8.0, "7912320384a55527"),
    "duplicate": ((2, 4, 7), False, 3.0, "7850a1a252bb2c13"),
    "k_max > m": ((2, 4, 6), False, 3.0, "db8e8cb091467745"),
}

L20_CASES = l20_cases()


class TestL20Frozen:
    @pytest.mark.parametrize("name", list(FROZEN_L20))
    def test_frozen_values(self, name):
        prob, k_max = L20_CASES[name]
        assert l20_digest(l20_solve(prob, k_max)) == FROZEN_L20[name]

    def test_duplicate_column_takes_the_lstsq_path(self, monkeypatch, decomposed):
        singular = []

        def spy(mat, *args, _real=np.linalg.lstsq, **kwargs):
            singular.append(mat.shape[1])
            return _real(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", spy)
        prob, k_max = L20_CASES["duplicate"]
        l20_solve(prob, k_max)
        # B has rank 2, so its singular values rule out size 1.  The residual
        # test of the 28 six-column subsets runs before size 3, so all 28
        # pairs are rank-tested and solved, {1, 5} by lstsq, and of size 3
        # only the 2 supports no certified subset holds: the planted one and
        # {3, 5, 6}.  The six supports {1, 5, j} lie inside certified subsets
        # and are skipped with no rank test and no solve, where lstsq solved
        # them while the rank voucher decided which covered supports to skip.
        assert decomposed == [28, 2]
        assert singular == [2]


def l20_population() -> list[tuple[str, MmvProblem, int]]:
    """320 seeded instances as (kind, problem, k_max): m 2-8, n from m - 2
    to m + 3 within 2-10, k_max in 1..n or, for half of them, in
    1..min(m - 1, n).  Columns: plain Gaussian, one column duplicated, one
    column zero, or rows of rank m - 1.  B: A X for a planted X of
    1..min(m, n) rows, unstructured, or A_S X plus a residual orthogonal to
    span(A_S) of 0.5 or 2 times l20_solve's feasibility tolerance, S planted.
    """
    rng = np.random.default_rng(2027)
    cases = []
    for i in range(320):
        m, r = int(rng.integers(2, 9)), int(rng.integers(1, 4))
        n = min(max(2, m + int(rng.integers(-2, 4))), 10)
        a = rng.standard_normal((m, n))
        columns = ("plain", "duplicate", "zero", "row-deficient")[i % 4]
        if columns == "duplicate":
            src, dst = rng.choice(n, 2, replace=False)
            a[:, dst] = a[:, src]
        elif columns == "zero":
            a[:, rng.integers(n)] = 0.0
        elif columns == "row-deficient":
            a[-1] = rng.standard_normal(m - 1) @ a[:-1]
        rhs = ("planted", "unstructured", "0.5 tol off", "2 tol off")[i // 4 % 4]
        if rhs == "unstructured":
            b = rng.standard_normal((m, r))
        else:
            k = int(rng.integers(1, min(m, n) + 1))
            if rhs != "planted":
                k = min(k, m - 1)
            support = np.sort(rng.choice(n, k, replace=False))
            b = a[:, support] @ rng.standard_normal((k, r))
            if rhs != "planted":
                off = rng.standard_normal((m, r))
                off -= a[:, support] @ np.linalg.lstsq(a[:, support], off, rcond=None)[0]
                scale = float(rhs.split()[0]) * solvers.FEASIBILITY_TOL
                b = b + off * (scale * max(1.0, float(np.linalg.norm(b))) / np.linalg.norm(off))
        # half the draws keep k_max below m, where the residual test can run
        top = n if i // 16 % 2 else max(1, min(m - 1, n))
        cases.append((f"{columns}, {rhs}", MmvProblem(a=a, b=b), int(rng.integers(1, top + 1))))
    return cases


class TestL20AgainstEverySupport:
    """Ruling supports out by a superset's residual changes no result."""

    def test_population_matches_the_textbook_loop(self, solved, monkeypatch):
        lstsq = []

        def spy(mat, *args, _real=np.linalg.lstsq, **kwargs):
            lstsq.append(np.shape(mat))
            return _real(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", spy)
        seen, skipped = set(), 0
        for kind, prob, k_max in l20_population():
            want = l20_every_support(prob.a, prob.b, k_max)
            solved.clear()
            lstsq.clear()
            try:
                sol = l20_solve(prob, k_max)
            except Infeasible:
                assert want is None, kind
                card = k_max
            else:
                assert want is not None, kind
                support, unique, objective, x = want
                assert sol.support.indices == support, kind
                assert sol.unique == unique, kind
                assert sol.objective == objective, kind
                assert np.allclose(sol.x, x, rtol=0, atol=1e-12), kind
                card = len(support)
            tried = sum(solved) + len(lstsq)
            skipped += tried < sum(math.comb(prob.n, c) for c in range(1, card + 1))
            seen.add((kind, want is None, k_max > prob.m))
        # every column kind meets every kind of B, and Infeasible and
        # k_max > m each occur with and without the other
        assert {kind for kind, *_ in seen} == {
            f"{c}, {b}" for c in ("plain", "duplicate", "zero", "row-deficient")
            for b in ("planted", "unstructured", "0.5 tol off", "2 tol off")}
        assert {(infeasible, wide) for _, infeasible, wide in seen} == {
            (False, False), (False, True), (True, False), (True, True)}
        assert skipped >= 50

    def test_pinned_solve_count(self, solved):
        # Before the residual test every support of 1-8 columns was solved
        # (65 535), and before B's singular values ruled sizes out, 154: the
        # 17 single columns, the 136 pairs and the planted support.  Now B's
        # rank (4) rules out sizes 1-3, the 136 subsets of 15 columns rule
        # out sizes 4-7, and of size 8 only the planted support escapes them.
        prob = gen_problem(GenSpec("gaussian", 16, 17, 4, 8, 1))
        assert l20_solve(prob, 8).unique is True
        assert sum(solved) == 1

    def test_pinned_voucher_factorization(self, monkeypatch):
        # Each U of 15 columns is tested by the R factor of [A_U | B]; all
        # 136 come in one batched QR, whose raw factor holds R transposed,
        # so neither Q nor the whole of R is formed.
        calls = []

        def spy(mat, mode="reduced", _real=np.linalg.qr):
            calls.append((np.shape(mat), mode))
            return _real(mat, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", spy)
        prob = gen_problem(GenSpec("gaussian", 16, 17, 4, 8, 1))
        assert l20_solve(prob, 8).unique is True
        assert calls == [((136, 16, 15 + prob.r), "raw")]

    def test_pinned_enumeration_count(self, stacked):
        # Before supports were listed, all 65 535 supports of 1-8 columns
        # were enumerated and the covered ones dropped batch by batch, and
        # before B's singular values ruled sizes out, the 17 single columns,
        # the 136 pairs and the planted support were listed.  Now sizes 1-3
        # are ruled out, and from size 4 on only the supports no certified U
        # covers are listed: the planted one.
        prob = gen_problem(GenSpec("gaussian", 16, 17, 4, 8, 1))
        assert l20_solve(prob, 8).unique is True
        assert stacked == [1]

    def test_a_dependent_c_star_subset_lists_what_it_leaves(self, rng, stacked):
        # Column 9 repeats column 2.  B's rank (4) rules out sizes 1-3, and
        # of size 4 only the planted support escapes the subsets of 15
        # columns the residual test certifies.  The 105 supports of size 4
        # holding columns 2 and 9 are rank deficient and lie inside certified
        # subsets, so they are skipped unsolved; while the rank voucher
        # decided which covered supports to skip, they were listed,
        # rank-tested and solved by lstsq, and before the size cut sizes 1-3
        # were listed too.
        a = rng.standard_normal((16, 17))
        a[:, 9] = a[:, 2]
        x = np.zeros((17, 4))
        x[[0, 5, 11, 14]] = rng.standard_normal((4, 4))
        prob = MmvProblem(a=a, b=a @ x)
        sol = l20_solve(prob, 8)
        assert stacked == [1]
        support, unique, objective, want = l20_every_support(prob.a, prob.b, 8)
        assert (sol.support.indices, sol.unique, sol.objective) == (support, unique, objective)
        assert support == (1, 6, 12, 15) and unique is True
        assert np.allclose(sol.x, want, rtol=0, atol=1e-12)


def assert_matches_textbook_loop(prob: MmvProblem, k_max: int) -> None:
    want = l20_every_support(prob.a, prob.b, k_max)
    if want is None:
        with pytest.raises(Infeasible):
            l20_solve(prob, k_max)
        return
    sol = l20_solve(prob, k_max)
    support, unique, objective, x = want
    assert (sol.support.indices, sol.unique, sol.objective) == (support, unique, objective)
    assert np.allclose(sol.x, x, rtol=0, atol=1e-12)


def feasibility_tol(b: np.ndarray) -> float:
    return solvers.FEASIBILITY_TOL * max(1.0, float(np.linalg.norm(b)))


@pytest.fixture()
def widths(monkeypatch) -> list[int]:
    """Column counts of the index batches ``l20_solve`` passes to
    ``column_stacks`` while the test runs: the sizes it listed supports of."""
    batches: list[int] = []

    def spy(a, idx, *args, _real=solvers.column_stacks):
        batches.append(idx.shape[1])
        return _real(a, idx, *args)

    monkeypatch.setattr(solvers, "column_stacks", spy)
    return batches


class TestL20SizeCut:
    """B's singular values rule out whole sizes: a support of c columns fits
    B no closer than B's tail beyond its c-th singular value.  No result
    changes."""

    @pytest.mark.parametrize("m, n, r, k, seed", [
        *[(6, 10, 3, 3, s) for s in range(6)], *[(8, 12, 4, 4, s) for s in range(6)],
        (12, 20, 6, 6, 1), (12, 20, 8, 6, 2), (16, 17, 8, 8, 3)])
    def test_r_at_least_k_matches_the_textbook_loop(self, m, n, r, k, seed, widths):
        prob = gen_problem(GenSpec("gaussian", m, n, r, k, seed))
        assert_matches_textbook_loop(prob, k)
        # B has rank k, so no support of fewer columns is listed
        assert set(widths) == {k}

    def test_nothing_below_six_columns_is_listed(self, stacked, widths):
        # Every size below 6 is ruled out, where before all 21 699 supports
        # of 1-5 columns were solved.  All 38 760 of 6 columns are still
        # listed: neither voucher is due before size 6.
        prob = gen_problem(GenSpec("gaussian", 12, 20, 6, 6, 1))
        sol = l20_solve(prob, 6)
        assert set(widths) == {6} and sum(stacked) == 38_760
        assert sol.support.indices == (1, 5, 7, 12, 19, 20) and sol.unique is True

    @staticmethod
    def tailed(rng, factor: float) -> MmvProblem:
        """8x12, B of rank 4 whose tail beyond its 3rd singular value is
        *factor* times the feasibility tolerance; columns 2, 5 and 9 span
        its top 3 left singular vectors, so they fit B to exactly that."""
        q = np.linalg.qr(rng.standard_normal((8, 8)))[0]
        v = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        big = np.array([3.0, 2.0, 1.0])
        # ||B||_F >= 1, so the tolerance is 1e-8 ||B||_F, tail included
        t = factor * solvers.FEASIBILITY_TOL
        tail = t * math.sqrt(big @ big / (1 - t * t))
        b = q[:, :4] @ np.diag([*big, tail]) @ v.T
        a = rng.standard_normal((8, 12))
        a[:, [2, 5, 9]] = q[:, :3] @ rng.standard_normal((3, 3))
        return MmvProblem(a=a, b=b)

    @pytest.mark.parametrize("factor, first", [(0.95, 3), (1.05, 3), (1.5, 4)])
    def test_tail_near_the_tolerance(self, rng, factor, first, widths):
        # The allowance is 0.213 of the tolerance at 8x12: a tail of 1.05
        # tolerances leaves size 3 to the solves, 1.5 rules it out.
        prob = self.tailed(rng, factor)
        tol = feasibility_tol(prob.b)
        sigma = np.linalg.svd(prob.b, compute_uv=False)
        assert sigma[3] / tol == pytest.approx(factor, rel=1e-9)
        assert min_support_size(prob.a, prob.b, tol) == first
        assert_matches_textbook_loop(prob, 3)
        assert set(widths) == ({3} if first == 3 else set())
        assert_matches_textbook_loop(prob, 4)
        assert min(widths) == first

    @pytest.mark.parametrize("gap", [0.0, 1e-9, 1e-12])
    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_duplicated_columns(self, rng, gap, r):
        # column 8 repeats planted column 4, exactly or up to a perturbation
        a = rng.standard_normal((8, 12))
        a[:, 8] = a[:, 4] + gap * rng.standard_normal(8)
        b = a[:, [1, 4, 10]] @ rng.standard_normal((3, r))
        prob = MmvProblem(a=a, b=b)
        for k_max in (3, 4):
            assert_matches_textbook_loop(prob, k_max)

    @pytest.mark.parametrize("factor", [1.01, 1.5, 4.0])
    @pytest.mark.parametrize("r", [3, 4])
    def test_pair_just_above_the_lstsq_cutoff(self, rng, factor, r, widths):
        # Column 8 is column 4 moved so that the pair's smallest singular
        # value is *factor* times lstsq's cutoff (eps * 8 times the largest):
        # lstsq solves it as full rank with a huge Y, the Gram test as
        # rank-deficient.  B has rank 3, so the cut skips size 2, the pair
        # included, with no solve; the textbook loop solves it and finds it
        # infeasible too.
        a = rng.standard_normal((8, 12))
        w = rng.standard_normal(8)
        w -= a[:, 4] * (a[:, 4] @ w) / (a[:, 4] @ a[:, 4])
        w /= np.linalg.norm(w)
        cutoff = np.finfo(float).eps * 8
        delta = factor * cutoff * math.sqrt(2) * np.linalg.norm(a[:, 4])
        for _ in range(3):          # the ratio is linear in delta this small
            a[:, 8] = a[:, 4] + delta * w
            sv = np.linalg.svd(a[:, [4, 8]], compute_uv=False)
            delta *= factor * cutoff / (sv[1] / sv[0])
        a[:, 8] = a[:, 4] + delta * w
        sv = np.linalg.svd(a[:, [4, 8]], compute_uv=False)
        assert sv[1] / sv[0] == pytest.approx(factor * cutoff, rel=1e-3)
        b = a[:, [1, 4, 10]] @ rng.standard_normal((3, r))
        prob = MmvProblem(a=a, b=b)
        assert min_support_size(a, b, feasibility_tol(b)) == 3
        assert np.linalg.lstsq(a[:, [4, 8]], b, rcond=None)[2] == 2
        assert_matches_textbook_loop(prob, 2)
        assert widths == []
        assert_matches_textbook_loop(prob, 3)

    def test_b_of_rank_below_r(self, rng, widths):
        a = rng.standard_normal((8, 12))
        b = a[:, [2, 7]] @ rng.standard_normal((2, 1)) @ rng.standard_normal((1, 4))
        b += a[:, [2, 7]] @ rng.standard_normal((2, 1)) @ rng.standard_normal((1, 4))
        assert np.linalg.matrix_rank(b) == 2
        assert min_support_size(a, b, feasibility_tol(b)) == 2
        assert_matches_textbook_loop(MmvProblem(a=a, b=b), 4)
        assert set(widths) == {2}


def paired(rng, m: int, n: int, kind: str) -> np.ndarray:
    """A Gaussian m x n matrix whose last column is made from column 0:
    equal to it ("duplicate"), 2.5 times it ("scaled"), moved by 1e-9 or
    1e-12 times a Gaussian ("near 1e-9"), or moved so that the pair's
    smallest singular value is 1.01 or 4 times lstsq's cutoff, eps * m times
    the largest ("cutoff 1.01").  The Gram test classes every support
    holding the pair rank deficient."""
    a = rng.standard_normal((m, n))
    name, _, value = kind.partition(" ")
    if name in ("duplicate", "scaled"):
        a[:, -1] = (2.5 if name == "scaled" else 1.0) * a[:, 0]
    elif name == "near":
        a[:, -1] = a[:, 0] + float(value) * rng.standard_normal(m)
    else:
        w = rng.standard_normal(m)
        w -= a[:, 0] * (a[:, 0] @ w) / (a[:, 0] @ a[:, 0])
        w /= np.linalg.norm(w)
        target = float(value) * np.finfo(float).eps * m
        delta = target * math.sqrt(2) * np.linalg.norm(a[:, 0])
        for _ in range(3):          # the ratio is linear in delta this small
            a[:, -1] = a[:, 0] + delta * w
            sv = np.linalg.svd(a[:, [0, -1]], compute_uv=False)
            delta *= target / (sv[1] / sv[0])
        a[:, -1] = a[:, 0] + delta * w
    return a


def skipped_rank_deficient(prob: MmvProblem, k_max: int) -> list[tuple[int, ...]]:
    """The rank-deficient supports of the sizes from min_support_size to
    k_max that lie inside a U the residual test certifies: those l20_solve
    skips unsolved, where before it solved them by lstsq."""
    a, b = prob.a, prob.b
    tol = feasibility_tol(b)
    cut = gram_spectrum(a).cut
    first = min_support_size(a, b, tol)
    out = []
    for card, covered in residual_covers(a, b, k_max, tol):
        left = {tuple(s) for idx in covered.uncovered(card) for s in idx.tolist()}
        out += [s for s in itertools.combinations(range(prob.n), card)
                if card >= first and s not in left
                and np.linalg.eigvalsh(a[:, s].T @ a[:, s])[0] <= cut]
    return out


class TestL20SkipsInsideCertifiedU:
    """A support inside a U the residual test certifies is skipped at any
    rank, as a support of a size the cut rules out is; the rank-deficient
    ones were solved by lstsq while the residual cover skipped only
    full-rank supports.  No result changes."""

    KINDS = ["duplicate", "scaled", "near 1e-9", "near 1e-12", "cutoff 1.01", "cutoff 4"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_b_in_range(self, rng, kind):
        # 8x8, u* = 7 tested before size 2: every U of 7 columns without a
        # planted one is certified, and every support holding the pair lies
        # in one of them
        a = paired(rng, 8, 8, kind)
        prob = MmvProblem(a=a, b=a[:, [2, 4, 5]] @ rng.standard_normal((3, 2)))
        assert len(skipped_rank_deficient(prob, 3)) == 7        # {0, 7} and {0, j, 7}
        assert_matches_textbook_loop(prob, 3)

    @pytest.mark.parametrize("factor, r", [(1.25, 1), (2.0, 3)])
    @pytest.mark.parametrize("kind", KINDS)
    def test_b_off_range(self, rng, kind, factor, r):
        # 10x8: B lies *factor* tolerances off range(A), so the one U of 8
        # columns, tested before size 2, is certified, and every support of
        # up to 4 columns holding the pair {0, 7} is skipped; {0, 2, 4, 7}
        # leaves exactly that residual
        a = paired(rng, 10, 8, kind)
        b = a[:, [2, 4]] @ rng.standard_normal((2, r))
        off = np.linalg.qr(a, mode="complete")[0][:, 8:] @ rng.standard_normal((2, r))
        b = b + off * (factor * feasibility_tol(b) / np.linalg.norm(off))
        prob = MmvProblem(a=a, b=b)
        assert skipped_rank_deficient(prob, 4)
        assert_matches_textbook_loop(prob, 4)


class TestIrls:
    def test_example2_recovery(self, example2):
        # the iterate lands within ~1e-7 of the planted matrix, so read the
        # support at a matching tolerance rather than the strict default
        for p in (0.3, 0.5, 0.8175):
            sol = irls_solve(example2, p, IrlsOptions(zero_tol=1e-6))
            assert np.linalg.norm(sol.x - example2.planted) <= 1e-6
            assert sol.support.indices == (2, 5)
            assert sol.residual <= 1e-8
            # the objective is taken over the reported support only
            kept = np.where(sol.support.mask()[:, None], sol.x, 0.0)
            assert sol.objective == mixed_norm_2p(kept, p)

    def test_smoothed_objective_monotone_at_fixed_eps(self, example2):
        trace: list[tuple[float, float]] = []
        opts = IrlsOptions(callback=lambda it, x, eps, obj: trace.append((eps, obj)))
        irls_solve(example2, 0.5, opts)
        assert len(trace) >= 3
        for (eps_prev, obj_prev), (eps_cur, obj_cur) in zip(trace, trace[1:]):
            if eps_prev == eps_cur:
                assert obj_cur <= obj_prev * (1 + 1e-12)

    def test_eps_schedule_never_below_floor(self, example2):
        seen = []
        opts = IrlsOptions(callback=lambda it, x, eps, obj: seen.append(eps))
        irls_solve(example2, 0.5, opts)
        assert min(seen) >= IRLS_EPS_MIN
        assert seen[0] == IRLS_EPS0

    def test_budget_exhaustion_carries_last_iterate(self, example2, monkeypatch):
        monkeypatch.setattr(solvers, "IRLS_MAX_ITER", 2)
        with pytest.raises(MaxIterationsExceeded, match="within 2 iterations") as exc_info:
            irls_solve(example2, 0.5)
        last = exc_info.value.last
        assert last is not None
        assert last.x.shape == (5, 2)
        assert last.residual <= 1e-8

    def test_rank_deficient_rejected(self):
        a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
        with pytest.raises(RankDeficient):
            irls_solve(MmvProblem(a=a, b=np.ones((2, 1))), 0.5)

    def test_bad_p(self, example2):
        for p in (0.0, -1.0, 1.01):
            with pytest.raises(DomainError):
                irls_solve(example2, p)

    @pytest.mark.parametrize("zero_tol", [math.nan, -1.0])
    def test_nan_or_negative_zero_tol_rejected(self, zero_tol):
        with pytest.raises(DomainError, match="zero_tol"):
            IrlsOptions(zero_tol=zero_tol)


class TestNullspaceSolve:
    def test_example2_recovery_all_three_exponents(self, example2):
        for p in (0.3, 0.5, 0.8175):
            sol = nullspace_solve(example2, p, DescentOptions(seed=0))
            assert np.linalg.norm(sol.x - example2.planted) <= 1e-4
            assert sol.support.indices == (2, 5)
            assert sol.residual <= 1e-8

    def test_never_worse_than_basepoint(self):
        for seed in range(10):
            spec = GenSpec(kind="gaussian", m=4, n=6, r=2, k=2, seed=seed)
            prob = gen_problem(spec)
            p = 0.5
            sol = nullspace_solve(prob, p, DescentOptions(seed=1, restarts=4))
            base = mixed_norm_2p(min_norm_solution(prob.a, prob.b), p)
            assert sol.objective <= base * (1 + 1e-12)

    def test_trivial_nullity_returns_unique_solution(self, rng):
        a = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        x = rng.standard_normal((4, 2))
        prob = MmvProblem(a=a, b=a @ x)
        sol = nullspace_solve(prob, 0.7, DescentOptions(seed=0))
        assert np.allclose(sol.x, x, atol=1e-8)
        assert sol.unique is True

    def test_dim_guard(self, rng):
        a = rng.standard_normal((2, 12))
        prob = MmvProblem(a=a, b=rng.standard_normal((2, 1)))
        with pytest.raises(DimGuardExceeded):
            nullspace_solve(prob, 0.5, DescentOptions(seed=0))

    def test_parametrization_sign_symmetry(self, example2):
        # the objective over coefficients is invariant under flipping both the
        # basis sign and the coefficient sign
        x0 = min_norm_solution(example2.a, example2.b)
        basis = nullspace_basis(example2.a).basis
        for c in (np.array([[0.3, -1.2]]), np.array([[2.0, 0.07]])):
            with_basis = mixed_norm_2p(x0 + basis @ c, 0.5)
            flipped = mixed_norm_2p(x0 + (-basis) @ (-c), 0.5)
            assert with_basis == flipped

    def test_deterministic_given_seed(self, example2):
        a = nullspace_solve(example2, 0.5, DescentOptions(seed=5))
        b = nullspace_solve(example2, 0.5, DescentOptions(seed=5))
        assert np.array_equal(a.x, b.x)

    def test_seed_required(self):
        with pytest.raises(TypeError):
            DescentOptions()

    @pytest.mark.parametrize("field, value", [
        ("tol", math.nan), ("tol", 0.0), ("zero_tol", math.nan), ("zero_tol", -1e-8)])
    def test_nan_or_out_of_range_tolerances_rejected(self, field, value):
        with pytest.raises(DomainError, match=field):
            DescentOptions(seed=0, **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("seed", 1.5), ("seed", True), ("seed", -1), ("restarts", 1.5), ("restarts", True),
        ("restarts", 2.0), ("restarts", -1), ("grid_points", 51.5), ("grid_points", 1)])
    def test_counts_must_be_integers_in_range(self, field, value):
        # 1.5 restarts or 51.5 grid points used to escape as a bare
        # TypeError from range or linspace, a seed of 1.5 went unchecked on
        # nullity-0 problems, and True counted as 1
        opts = {"seed": 0, field: value}
        with pytest.raises(DomainError, match=field):
            DescentOptions(**opts)

    def test_numpy_integer_counts_accepted(self, example2):
        opts = DescentOptions(seed=np.int64(5), restarts=np.int32(2), grid_points=np.int64(51))
        assert nullspace_solve(example2, 0.5, opts).support.indices == (2, 5)

    def test_rank_deficient_rejected(self, rng):
        a = np.vstack([np.ones((1, 5)), np.ones((1, 5))])
        with pytest.raises(RankDeficient):
            nullspace_solve(MmvProblem(a=a, b=np.ones((2, 1))), 0.5,
                            DescentOptions(seed=0))


# Criterion 5's options for the two relaxation solvers.
FROZEN_IRLS = IrlsOptions(zero_tol=1e-6)
FROZEN_DESCENT = DescentOptions(seed=5, restarts=2, tol=1e-8, grid_points=51, zero_tol=1e-6)


def relaxed_digest(sol) -> tuple:
    return hashlib.sha256(sol.x.tobytes()).hexdigest()[:16], sol.objective


# irls_solve and nullspace_solve under FROZEN_IRLS and FROZEN_DESCENT on
# `gen` Gaussian instances, two per (nullity, r) class for nullity 1-3 and
# r 1-2 and one each for r = 3 and r = 4 at nullity 1 and 2 (where a line
# search sums two and three other columns), as they ran when every line
# search built its rows with np.delete and IRLS called np.linalg.norm: the
# first 16 hex digits of sha256 over x's bytes and the objective, IRLS
# first.  Any change to the order or the rounding of the arithmetic moves
# a digest.
FROZEN_RELAXED = {
    (4, 5, 1, 2, 3, 0.35): (("7022ec45ec707520", 1.9029394949824523),
                            ("42b9ffe437bc1a10", 1.9029394970539144)),
    (5, 6, 1, 1, 8, 0.9): (("ec8469e1439ad68d", 0.21372462454107777),
                           ("5e9ed324b3319b08", 0.2136986096814071)),
    (4, 5, 2, 1, 4, 0.6): (("5a986b79cc75cc12", 1.4820588825862522),
                           ("be683f1fa04e41fe", 1.482058882787229)),
    (5, 6, 2, 2, 12, 0.35): (("e135cbfd0138bcd7", 1.8234811456607773),
                             ("2dc4434edc9906e0", 1.823481150153829)),
    (4, 6, 1, 2, 5, 0.6): (("27ba162fa4040385", 1.5583236476790925),
                           ("080883f817939584", 1.558323655828699)),
    (3, 5, 1, 1, 9, 0.9): (("d14ca61fd1899c20", 1.006969052405881),
                           ("b26725b1948309e8", 1.00696346986996)),
    (4, 6, 2, 2, 6, 0.9): (("aba54ea011976a6e", 2.5045419727843665),
                           ("7c57a31101dc82e8", 2.50452814861822)),
    (3, 5, 2, 1, 10, 0.35): (("3fd0f92dcd9d80c9", 1.293441947798625),
                             ("6d27abd6c67dee16", 1.2934419480653117)),
    (4, 7, 1, 2, 7, 0.9): (("c6593723f18d1beb", 1.3263033130565987),
                           ("0b3e69edf0598dff", 1.3262909059377412)),
    (5, 8, 1, 2, 11, 0.6): (("146c08bc12f30d1b", 1.8877808493769048),
                            ("9609e628b6a3d84c", 1.8877809470496698)),
    (4, 7, 2, 1, 2, 0.35): (("6ddc5ee988e5a67c", 0.7203727106248257),
                            ("6d499680f7625d63", 0.7203727107922773)),
    (5, 8, 2, 2, 1, 0.6): (("34d0ded010c7e701", 3.079565745552788),
                           ("0c8536eb42d2cb0d", 3.0795657521007898)),
    (4, 5, 3, 2, 13, 0.6): (("1c9feb74b8b66d2b", 2.8323921102740046),
                            ("1bdd35ecb8c658a9", 2.8323921110229304)),
    (4, 6, 3, 2, 14, 0.9): (("d60bc43d0324deb7", 2.3920034623422923),
                            ("71f8f9fa487bdc1b", 2.391989965091029)),
    (4, 5, 4, 2, 15, 0.35): (("edb46bec4dd2dbe1", 2.515924299493919),
                             ("fa2d88be6ce0a003", 2.5159242999246985)),
    (4, 6, 4, 2, 16, 0.6): (("17159fa9970ec619", 2.803088097935653),
                            ("43219a47d6e615b3", 2.7010138594316393)),
}


class TestRelaxedFrozen:
    @pytest.mark.parametrize("case", list(FROZEN_RELAXED),
                             ids=[f"{m}x{n} r{r} k{k} seed {s} p {p}"
                                  for m, n, r, k, s, p in FROZEN_RELAXED])
    def test_frozen_values(self, case):
        m, n, r, k, seed, p = case
        prob = gen_problem(GenSpec("gaussian", m, n, r, k, seed))
        got = (relaxed_digest(irls_solve(prob, p, FROZEN_IRLS)),
               relaxed_digest(nullspace_solve(prob, p, FROZEN_DESCENT)))
        assert got == FROZEN_RELAXED[case]

    def test_irls_budget_out_iterate(self, monkeypatch):
        # no frozen instance runs out of the full budget, so a 25-iteration
        # budget pins the iterate the loop has reached after 25 steps
        monkeypatch.setattr(solvers, "IRLS_MAX_ITER", 25)
        prob = gen_problem(GenSpec("gaussian", 4, 6, 2, 2, 6))
        with pytest.raises(MaxIterationsExceeded) as exc_info:
            irls_solve(prob, 0.9, FROZEN_IRLS)
        assert relaxed_digest(exc_info.value.last) == ("2270a3a2ac05090e", 2.506411413941421)


class TestCheckEquivalence:
    def test_example2_equivalent_at_moderate_p(self, example2):
        rep = check_equivalence(example2, 0.5, EquivalenceOptions(seed=0))
        assert rep.equivalent is True
        assert rep.distance <= rep.match_tol
        assert rep.l20.support.indices == (2, 5)
        assert rep.best_method in ("irls", "nullspace")
        assert rep.irls is not None and rep.nullspace is not None
        assert rep.skipped == ()

    def test_descent_skipped_when_guard_trips(self, rng):
        a = rng.standard_normal((3, 13))            # nullity * r = 10 > 8
        x = np.zeros((13, 1))
        x[2, 0] = 1.0
        prob = MmvProblem(a=a, b=a @ x)
        rep = check_equivalence(prob, 0.5, EquivalenceOptions(seed=0))
        assert rep.nullspace is None
        assert any(name == "nullspace" for name, _ in rep.skipped)
        assert rep.irls is not None
        assert rep.best_method == "irls"

    def test_every_solver_reads_its_support_at_zero_tol(self, example2):
        rep = check_equivalence(example2, 0.5, EquivalenceOptions(seed=0, zero_tol=1e-6))
        for sol in (rep.l20, rep.irls, rep.nullspace):
            assert sol.zero_tol == 1e-6

    def test_bad_p(self, example2):
        with pytest.raises(DomainError):
            check_equivalence(example2, 0.0, EquivalenceOptions(seed=0))

    @pytest.mark.parametrize("zero_tol", [math.nan, -1e-8])
    def test_nan_or_negative_zero_tol_rejected(self, zero_tol):
        with pytest.raises(DomainError, match="zero_tol"):
            EquivalenceOptions(seed=0, zero_tol=zero_tol)

    @pytest.mark.parametrize("seed", [1.5, True, "1"])
    def test_non_integer_seed_rejected(self, seed):
        # a seed of 1.5 used to reach PortableRng inside nullspace_solve,
        # which check_equivalence recorded in skipped, reporting a verdict
        # from IRLS alone
        with pytest.raises(DomainError, match="seed"):
            EquivalenceOptions(seed=seed)

    def test_bad_seed_rejected_before_any_solver_runs(self, example2, monkeypatch):
        ran = []
        for name in ("l20_solve", "irls_solve"):
            monkeypatch.setattr(solvers, name, lambda *args, _name=name, **kw: ran.append(_name))
        with pytest.raises(DomainError):
            check_equivalence(example2, 0.5, EquivalenceOptions(seed=-1))
        assert ran == []



class TestOneDecompositionPerProblem:
    """A problem decomposes A^T A once, on first read of ``spectrum``, and
    every solver reads that one decomposition."""

    def test_solver_pair_decomposes_once(self, spectra):
        prob = gen_problem(GenSpec("gaussian", 4, 7, 2, 2, 3))
        irls_solve(prob, 0.5)
        nullspace_solve(prob, 0.5, DescentOptions(seed=1))
        assert [a is prob.a for a in spectra] == [True]     # two before
        assert prob.spectrum is prob.spectrum

    def test_check_equivalence_decomposes_once(self, spectra, exact_solves):
        prob = gen_problem(GenSpec("gaussian", 4, 7, 2, 2, 3))
        rep = check_equivalence(prob, 0.5, EquivalenceOptions(seed=1))
        assert [a is prob.a for a in spectra] == [True]     # three before
        assert exact_solves == [None]
        assert rep.l20.support.indices == rep.nullspace.support.indices

    def test_default_cap_is_the_claimed_k_else_min_m_n(self, example2, rng):
        with pytest.raises(Infeasible, match="<= 1"):
            l20_solve(MmvProblem(a=example2.a, b=example2.b, k=1))
        assert l20_solve(example2).support.indices == (2, 5)
        dense = MmvProblem(a=example2.a, b=rng.standard_normal((4, 1)))
        assert len(l20_solve(dense).support) == 4           # min(m, n) = 4


class TestValidatedOnce:
    """On a built problem, the solvers and ``nsc_estimate`` take row norms by
    ``norms``' unchecked cores, never by a validating function, and
    ``as_matrix`` checks only what crosses the boundary: the solution X, and
    for ``nsc_estimate`` A and the certificate.  B was checked when the
    problem was built, so the solvers' minimum-norm solve does not check it
    again, and reading a solution's support checks nothing."""

    # the call, and the most as_matrix calls it may make
    CALLS = {
        "l20_solve": (lambda prob: l20_solve(prob), 1),
        "irls_solve": (lambda prob: irls_solve(prob, 0.5), 1),
        "nullspace_solve": (
            lambda prob: nullspace_solve(prob, 0.5, DescentOptions(seed=1, restarts=2)), 1),
        "nsc_estimate": (lambda prob: nsc_estimate(
            np.array(prob.a), 2, 0.5, NscOptions(seed=1, restarts=2)), 2),
    }

    @pytest.mark.parametrize("name", CALLS)
    def test_no_validating_row_norm_call(self, name, validations):
        prob = gen_problem(GenSpec("gaussian", 4, 6, 1, 2, 11))
        prob.spectrum
        validations.clear()
        call, most = self.CALLS[name]
        call(prob)
        assert validations["as_matrix"] <= most
        names = ("row_norms", "row_support", "mixed_norm_2p", "theta")
        assert [validations[f] for f in names] == [0, 0, 0, 0]

    def test_reading_the_support_checks_nothing(self, validations):
        prob = gen_problem(GenSpec("gaussian", 4, 6, 1, 2, 11))
        sol = l20_solve(prob)
        validations.clear()
        support = sol.support
        names = ("as_matrix", "row_support", "row_norms")
        assert [validations[f] for f in names] == [0, 0, 0]
        assert support == row_support(sol.x, sol.zero_tol)

    def test_gen_problem_checks_each_matrix_once(self, validations):
        gen_problem(GenSpec("gaussian", 4, 6, 1, 2, 11))
        assert validations["as_matrix"] == 3                # A, B and planted


class TestObjectiveOverSupport:
    """``objective`` is ``mixed_norm_2p`` of x with the rows outside its
    support zeroed, and the row count for ``l20_solve``, also when a row
    norm lies in (0, zero_tol]: zero_tol moves the support, not x."""

    SOLVES = {
        "l20": lambda prob, zero_tol: l20_solve(prob, zero_tol=zero_tol),
        "irls": lambda prob, zero_tol: irls_solve(prob, 0.5, IrlsOptions(zero_tol=zero_tol)),
        "nullspace": lambda prob, zero_tol: nullspace_solve(
            prob, 0.5, DescentOptions(seed=1, restarts=2, zero_tol=zero_tol)),
    }

    @pytest.mark.parametrize("method", SOLVES)
    @pytest.mark.parametrize("spec", [(4, 6, 1, 2, 11), (6, 9, 2, 2, 5)])
    def test_objective_is_taken_over_the_support(self, method, spec):
        prob = gen_problem(GenSpec("gaussian", *spec))
        solve = self.SOLVES[method]
        norms = row_norms(solve(prob, DEFAULT_ZERO_TOL).x)
        smallest = float(norms[norms > 0.0].min())
        for zero_tol in (DEFAULT_ZERO_TOL, smallest):
            sol = solve(prob, zero_tol)
            if method == "l20":
                assert sol.objective == len(sol.support)
            else:
                kept = np.where(sol.support.mask()[:, None], sol.x, 0.0)
                assert sol.objective == mixed_norm_2p(kept, 0.5)
        # the last solve read its support with a row norm in (0, zero_tol]
        assert np.count_nonzero(row_norms(sol.x) > 0.0) > len(sol.support)


class TestSolutionContainer:
    def test_solution_json_fields(self, example2):
        sol = l20_solve(example2, 2)
        obj = solution_to_json(sol)
        assert set(obj) == {"X", "support", "objective", "p", "method",
                            "residual", "unique"}
        assert obj["method"] == "exact_l20"

    def test_x_is_read_only(self, example2):
        sol = l20_solve(example2, 2)
        with pytest.raises(ValueError):
            sol.x[0, 0] = 9.9


class TestBasicSolutionOracle:
    @pytest.mark.parametrize("p", [0.5, 0.8175, 1.0])
    def test_nullity_one_optimum_is_the_best_breakpoint(self, example2, p):
        # Along the kernel line x0 + t v the objective sum_i |x_i|^p is
        # concave between the breakpoints t_i = -x0_i / v_i, where row i
        # vanishes, and grows without bound, so its minimum is the smallest
        # breakpoint value.  Computed here from an SVD kernel vector and a
        # least-squares x0, apart from the oracle's elimination.
        a, b = example2.a, example2.b[:, [0]]
        v = np.linalg.svd(a)[2][-1]
        x0 = np.linalg.lstsq(a, b[:, 0], rcond=None)[0]
        values = []
        for i in np.flatnonzero(np.abs(v) > 1e-12):
            x = x0 - (x0[i] / v[i]) * v
            x[i] = 0.0
            values.append(float(np.sum(np.abs(x) ** p)))
        got = basic_optimum(basic_solutions(a, b), p)
        assert got == pytest.approx(min(values), rel=1e-7)
