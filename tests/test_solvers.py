from __future__ import annotations

import json
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
from jointsparse.generators import GenSpec, gen_problem
from jointsparse.norms import mixed_norm_2p
from jointsparse.linalg import min_norm_solution, nullspace_basis
from jointsparse.solvers import (
    IRLS_EPS0,
    IRLS_EPS_MIN,
    DescentOptions,
    EquivalenceOptions,
    IrlsOptions,
    MmvProblem,
    check_equivalence,
    equivalence_report_to_json,
    irls_solve,
    l20_solve,
    nullspace_solve,
    problem_from_json,
    problem_to_json,
    solution_to_json,
)

from oracles import basic_optimum, basic_solutions, exhaustive_l20


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

    def test_budget_exhaustion_carries_last_iterate(self, example2):
        with pytest.raises(MaxIterationsExceeded) as exc_info:
            irls_solve(example2, 0.5, IrlsOptions(max_iter=2))
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

    def test_options_validation(self):
        with pytest.raises(DomainError):
            IrlsOptions(max_iter=0)


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

    def test_rank_deficient_rejected(self, rng):
        a = np.vstack([np.ones((1, 5)), np.ones((1, 5))])
        with pytest.raises(RankDeficient):
            nullspace_solve(MmvProblem(a=a, b=np.ones((2, 1))), 0.5,
                            DescentOptions(seed=0))


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

    def test_report_serializes(self, example2):
        rep = check_equivalence(example2, 0.8, EquivalenceOptions(seed=0))
        text = json.dumps(equivalence_report_to_json(rep))
        parsed = json.loads(text)
        assert parsed["equivalent"] is True
        assert parsed["l20"]["support"] == [2, 5]

    def test_bad_p(self, example2):
        with pytest.raises(DomainError):
            check_equivalence(example2, 0.0, EquivalenceOptions(seed=0))


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
