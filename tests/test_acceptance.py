"""End-to-end acceptance gate.

Each test covers one shipped guarantee and prints exactly one
``[criterion N] PASS/FAIL`` line (run ``pytest tests/test_acceptance.py -s``
to see them all).  Criterion 5's last clause checks that ``irls_solve`` and
``nullspace_solve`` each minimize the l_{2,p} objective over {AX = B}: both
solutions are feasible, neither reports an objective below an exact lower
bound built from the basic solutions (the optimum itself when r = 1), and
descent never ends above its C = 0 start.  The two routes are independent
heuristics for a nonconvex objective and still disagree on a measured share
of instances; the detail line reports that share, and how often each route
reaches the best basic solution, without gating on either.  README.md has
the analysis.  Do not couple one route to the other, or to the reference,
to move those numbers: the disagreement is a finding.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from importlib import resources

import numpy as np
import pytest

from jointsparse.bounds import f_threshold, lemma1_check, pstar, theorem4_bound
from jointsparse.cli import EXIT_OK, main
from jointsparse.errors import MaxIterationsExceeded
from jointsparse.generators import PortableRng
from jointsparse.linalg import matrix_from_json
from jointsparse.norms import (
    RowSupport,
    mixed_norm_2p,
    theta,
    theta_max_over_S,
)
from jointsparse.nsc import NscOptions, estimate_to_json, nsc_curve, nsc_estimate
from jointsparse.solvers import (
    DescentOptions,
    IrlsOptions,
    MmvProblem,
    irls_solve,
    l20_solve,
    nullspace_solve,
    problem_from_json,
)

from oracles import basic_optimum, basic_solutions, min_norm_oracle

NSC_GRID = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]


def _verdict(num: int, ok: bool, detail: str) -> str:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    return line


def _packaged_bytes(name: str) -> bytes:
    return resources.files("jointsparse.data").joinpath(f"{name}.json").read_bytes()


def _packaged_problem(name: str) -> MmvProblem:
    return problem_from_json(json.loads(_packaged_bytes(name)))


@pytest.fixture(scope="module")
def example_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("examples")
    paths = {}
    for name in ("example1", "example2"):
        dest = root / f"{name}.json"
        dest.write_bytes(_packaged_bytes(name))
        paths[name] = str(dest)
    return paths


def _run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


# ---------------------------------------------------------------------------
# 1. shipped 4x5 instance: analytic threshold from the data files


def test_criterion_1_threshold_reproduction(capsys):
    t0 = time.perf_counter()
    code, out = _run_cli(capsys, "reproduce", "example2")
    elapsed = time.perf_counter() - t0
    rep = json.loads(out)
    p_star = rep["outputs"]["pstar"]["p_star"]
    err = abs(p_star - 0.8176)
    ok = code == EXIT_OK and err <= 5e-4 and elapsed < 1.0
    detail = (f"p* = {p_star:.6f} (|Δ| = {err:.2e} <= 5e-4), "
              f"{elapsed:.2f} s < 1 s")
    line = _verdict(1, ok, detail)
    assert ok, line


# ---------------------------------------------------------------------------
# 2. shipped 4x5 instance: sparsest solution and descent recovery


def test_criterion_2_recovery():
    prob = _packaged_problem("example2")
    t0 = time.perf_counter()
    exact = l20_solve(prob, prob.k)
    dists = []
    for p in (0.3, 0.5, 0.8175):
        # defaults: 201 grid points per axis, and nullity * r = 2 here, so
        # every solve includes the full 201^2 sweep
        sol = nullspace_solve(prob, p, DescentOptions(seed=0))
        dists.append(float(np.linalg.norm(sol.x - exact.x)))
    elapsed = time.perf_counter() - t0
    ok = (exact.support.indices == (2, 5) and exact.unique is True
          and all(d <= 1e-4 for d in dists) and elapsed < 5.0)
    detail = (f"support {list(exact.support.indices)} unique={exact.unique}, "
              f"recovery distances {['%.1e' % d for d in dists]} <= 1e-4 "
              f"at p in (0.3, 0.5, 0.8175), {elapsed:.2f} s < 5 s")
    line = _verdict(2, ok, detail)
    assert ok, line


# ---------------------------------------------------------------------------
# 3. shipped 4x5 two-column instance: joint vs column-by-column gap


def test_criterion_3_joint_vs_columnwise():
    prob = _packaged_problem("example1")
    joint = int(l20_solve(prob, prob.k).objective)
    total = 0
    for j in range(prob.r):
        col = MmvProblem(a=prob.a, b=prob.b[:, [j]])
        total += int(l20_solve(col, min(prob.m, prob.n)).objective)
    ok = joint == 3 and total == 4
    detail = f"joint row count {joint} == 3, columnwise total {total} == 4"
    line = _verdict(3, ok, detail)
    assert ok, line


# ---------------------------------------------------------------------------
# 4. nullity-1 closed form: exact value, monotone curve, r-independence


def test_criterion_4_nsc_closed_form():
    a = _packaged_problem("example2").a
    opts = NscOptions(seed=0)
    at_zero = nsc_estimate(a, 2, 0.0, opts)
    exact_two_thirds = at_zero.value == 2.0 / 3.0 and at_zero.exact
    curve = nsc_curve(a, 2, NSC_GRID, opts)
    values = [e.value for e in curve]
    nondecreasing = all(v1 <= v2 for v1, v2 in zip(values, values[1:]))
    # the constant at r columns is theta of the certificate reported at r
    spread = max(
        abs(theta(e.p, np.array(estimate_to_json(e, r)["certificate_X"]),
                  e.certificate_support) - e.value)
        for r in (1, 2, 5) for e in curve
    )
    ok = exact_two_thirds and nondecreasing and spread <= 1e-12
    detail = (f"value(p=0, k=2) == 2/3 exactly: {exact_two_thirds}; "
              f"curve nondecreasing: {nondecreasing}; "
              f"max |r-spread| over r in (1, 2, 5): {spread:.2e} <= 1e-12")
    line = _verdict(4, ok, detail)
    assert ok, line


# ---------------------------------------------------------------------------
# 5. property suite


def _masked_objective(sol, p: float) -> float:
    """Objective restricted to the rows the solver itself reports as support.

    Rows below zero_tol carry norms around 1e-8..1e-7; raised to p < 1 they
    would contribute far more than the 1e-4 comparison tolerance, so the
    comparison scores each solver on the sparse solution it claims.
    """
    x = np.array(sol.x, dtype=float, copy=True)
    keep = np.zeros(x.shape[0], dtype=bool)
    keep[[i - 1 for i in sol.support.indices]] = True
    x[~keep] = 0.0
    return mixed_norm_2p(x, p)


def _gap(a: float, b: float) -> float:
    """How far a exceeds b, relative: (a - b) / max(1, min(a, b))."""
    return (a - b) / max(1.0, min(a, b))


def _oracle_sparsest(a: np.ndarray, b: np.ndarray, k_max: int):
    """Independent exhaustive route: least squares over every column subset."""
    n = a.shape[1]
    b_scale = max(1.0, float(np.linalg.norm(b)))
    if float(np.linalg.norm(b)) <= 1e-8 * b_scale:
        return 0
    for size in range(1, k_max + 1):
        for sub in itertools.combinations(range(n), size):
            cols = a[:, sub]
            x_sub, *_ = np.linalg.lstsq(cols, b, rcond=None)
            if float(np.linalg.norm(cols @ x_sub - b)) <= 1e-8 * b_scale:
                return size
    return None


def test_criterion_5_property_suite():
    n_cases = 10_000
    t0 = time.perf_counter()

    # (a) ratio is bit-identical under power-of-two scalings
    rng = PortableRng(9001, stream=0)
    fail_scale = 0
    for _ in range(n_cases):
        n = 2 + rng.integer_below(11)
        x = rng.normal((n, 1 + rng.integer_below(4)))
        s = RowSupport(tuple(i + 1 for i in rng.subset(n, 1 + rng.integer_below(n - 1))), n)
        p = 0.05 + 0.95 * float(rng.uniform(1)[0])
        j = rng.integer_below(17) - 8
        if theta(p, x, s) != theta(p, (2.0 ** j) * x, s):
            fail_scale += 1

    # (b) worst-case ratio over top-k supports grows with p
    rng = PortableRng(9001, stream=1)
    fail_mono = 0
    for _ in range(n_cases):
        n = 3 + rng.integer_below(10)
        x = rng.normal((n, 1 + rng.integer_below(4)))
        k = 1 + rng.integer_below(n - 1)
        p1, p2 = sorted(0.01 + 0.99 * rng.uniform(2))
        v1, _ = theta_max_over_S(float(p1), x, k)
        v2, _ = theta_max_over_S(float(p2), x, k)
        if not v1 <= v2 * (1 + 1e-12):
            fail_mono += 1

    # (c) row-norm interpolation inequality (1e-10 relative slack built in)
    rng = PortableRng(9001, stream=2)
    fail_interp = 0
    for _ in range(n_cases):
        n = 1 + rng.integer_below(12)
        x = rng.normal((n, 1 + rng.integer_below(4)))
        for i in rng.subset(n, rng.integer_below(n)):
            x[i] = 0.0
        if not np.any(x):
            continue
        grid = sorted(0.05 + 0.95 * rng.uniform(3))
        if not lemma1_check(x, [float(q) for q in grid]):
            fail_interp += 1

    # (d) enumeration solver vs an independent exhaustive re-enumeration
    rng = PortableRng(9001, stream=3)
    fail_enum = 0
    for _ in range(n_cases):
        m = 3 + rng.integer_below(3)
        n = 5 + rng.integer_below(3)
        k = 1 + rng.integer_below(2)
        a = rng.normal((m, n))
        x_true = np.zeros((n, 2))
        x_true[list(rng.subset(n, k))] = rng.normal((k, 2))
        prob = MmvProblem(a=a, b=a @ x_true)
        sol = l20_solve(prob, 2)
        want = _oracle_sparsest(prob.a, prob.b, 2)
        feasible = float(np.linalg.norm(prob.a @ sol.x - prob.b)) <= 1e-6
        if want is None or int(sol.objective) != want or not feasible:
            fail_enum += 1

    # (e) both routes minimize the same l_{2,p} objective over {AX = B}:
    #     each is checked against an exact basic-solution reference, not
    #     against the other route (neither promises a global optimum)
    n_agree = 400
    rng = PortableRng(505, stream=1)
    disagree = irls_side = budget_out = 0
    irls_opt = descent_opt = 0
    worst_gap = 0.0
    broken: list[str] = []           # one message per failed check
    fail_ref = 0                     # instances with any failed check
    for case in range(n_agree):
        m = 3 + rng.integer_below(3)
        d = 1 + rng.integer_below(3)
        n = m + d
        r = 1 + rng.integer_below(2)
        k = 1 + rng.integer_below(2)
        p = 0.3 + 0.7 * float(rng.uniform(1)[0])
        a = rng.normal((m, n))
        x_true = np.zeros((n, r))
        x_true[list(rng.subset(n, k))] = rng.normal((k, r))
        prob = MmvProblem(a=a, b=a @ x_true)
        try:
            s1 = irls_solve(prob, p, opts=IrlsOptions(zero_tol=1e-6))
        except MaxIterationsExceeded as e:
            s1 = e.last
            budget_out += 1
        s2 = nullspace_solve(
            prob, p,
            opts=DescentOptions(seed=5, restarts=2, tol=1e-8,
                                grid_points=51, zero_tol=1e-6))

        # The reference: column j of any feasible X solves A x = b_j, and
        # ||x_i||_2 >= |x_ij|, so each column's exact basic-solution optimum
        # bounds the objective from below (and is the optimum when r = 1).
        basic = basic_solutions(prob.a, prob.b)
        lower = max(basic_optimum(basic[:, :, [j]], p) for j in range(r))
        at_zero = mixed_norm_2p(min_norm_oracle(prob.a, prob.b), p)
        limit = 1e-6 * max(1.0, float(np.linalg.norm(prob.b)))
        why = []
        for sol in (s1, s2):
            resid = float(np.linalg.norm(prob.a @ sol.x - prob.b))
            if not resid <= limit:
                why.append(f"{sol.method} infeasible: residual {resid:.2e} > {limit:.2e}")
            if _gap(lower, sol.objective) > 1e-4:
                why.append(f"{sol.method} objective {sol.objective:.6g} below "
                           f"the lower bound {lower:.6g}")
        if _gap(s2.objective, at_zero) > 1e-4:
            why.append(f"descent objective {s2.objective:.6g} above its "
                       f"C = 0 value {at_zero:.6g}")
        fail_ref += bool(why)
        broken.extend(f"case {case}: {w}" for w in why)

        # measured, not gated: agreement of the two routes, and how often
        # each reaches the best basic solution (the optimum when r = 1)
        o1, o2 = _masked_objective(s1, p), _masked_objective(s2, p)
        best = basic_optimum(basic, p, zero_tol=1e-6)
        irls_opt += _gap(o1, best) <= 1e-4
        descent_opt += _gap(o2, best) <= 1e-4
        gap = abs(_gap(o1, o2))
        if gap > 1e-4:
            disagree += 1
            irls_side += o1 < o2
            worst_gap = max(worst_gap, gap)

    elapsed = time.perf_counter() - t0
    failed = [name for name, bad in (
        ("scale-invariance", fail_scale), ("p-monotonicity", fail_mono),
        ("interpolation inequality", fail_interp),
        ("enumeration-vs-oracle", fail_enum), ("basic-solution reference", fail_ref),
        ("30 s budget", not elapsed < 30.0),
    ) if bad]
    ok = not failed
    detail = (
        f"scale-invariance {n_cases - fail_scale}/{n_cases} exact; "
        f"p-monotonicity {n_cases - fail_mono}/{n_cases}; "
        f"interpolation inequality {n_cases - fail_interp}/{n_cases}; "
        f"enumeration-vs-oracle {n_cases - fail_enum}/{n_cases}; "
        f"both routes feasible, not below the basic-solution lower bound, "
        f"descent not above C = 0: {n_agree - fail_ref}/{n_agree} within 1e-4 "
        f"(400 cases, reduced from 10^4 to fit the 30 s budget); "
        f"measured: within 1e-4 of the best basic solution irls "
        f"{irls_opt}/{n_agree}, descent {descent_opt}/{n_agree}; "
        f"solver agreement {n_agree - disagree}/{n_agree} within 1e-4 "
        f"({disagree} beyond: {irls_side} with irls lower, "
        f"{disagree - irls_side} with descent lower, "
        f"worst rel gap {worst_gap:.2e}, {budget_out} irls budget-outs); "
        f"elapsed {elapsed:.1f} s"
    )
    line = _verdict(5, ok, detail)
    assert ok, line + f" | failed: {', '.join(failed)}" + "".join(f" | {b}" for b in broken[:5])


# ---------------------------------------------------------------------------
# 6. bound arithmetic against hand-substituted values


def test_criterion_6_bounds_arithmetic():
    # corner where the bracket collapses: p = 1, n = 4, k = 1, lam = 1 gives
    # (sqrt2+1)/2 * 1/2 * 1/2 by direct substitution
    corner_err = abs(theorem4_bound(1.0, 4, 1, 1.0) - (math.sqrt(2.0) + 1.0) / 8.0)

    # threshold function by direct substitution at x = 2, lam = 3, n = 5:
    # ln(3/2) / ln((sqrt2+1)/4 * (3*5 - 5 - 2*3 + 3))
    by_hand = math.log(1.5) / math.log((math.sqrt(2.0) + 1.0) / 4.0 * 7.0)
    f_err = abs(f_threshold(2, 3.0, 5) - by_hand)

    # lam = 1 makes the denominator nonpositive: every value is +inf and the
    # report clamps to 1
    clamp_inf = math.isinf(f_threshold(2, 1.0, 5))
    rep = pstar(np.eye(3), np.array([[1.0], [0.0], [0.0]]))
    clamp_rep = rep.p_star == 1.0 and rep.clamped is True

    # max of the three candidate values is the value at the smallest argument
    rng = PortableRng(606, stream=0)
    fail_max = 0
    for _ in range(1000):
        lam = 1.0 + 49.0 * float(rng.uniform(1)[0])
        n = 3 + rng.integer_below(38)
        args = [1 + rng.integer_below(n) for _ in range(3)]
        vals = [f_threshold(x, lam, n) for x in args]
        if max(vals) != f_threshold(min(args), lam, n):
            fail_max += 1

    ok = (corner_err <= 1e-12 and f_err <= 1e-12 and clamp_inf and clamp_rep
          and fail_max == 0)
    detail = (f"corner |Δ| = {corner_err:.1e} <= 1e-12, "
              f"hand-substituted f |Δ| = {f_err:.1e} <= 1e-12, "
              f"lam = 1 clamps (inf: {clamp_inf}, report: {clamp_rep}), "
              f"max-at-min-argument {1000 - fail_max}/1000")
    line = _verdict(6, ok, detail)
    assert ok, line


# ---------------------------------------------------------------------------
# 7. honesty table: computed constant next to the analytic cap, no ordering
#    asserted between them


def test_criterion_7_honesty_table(capsys, example_paths):
    code, out = _run_cli(
        capsys, "nsc", example_paths["example2"], "--k", "2",
        "--grid", "0,0.25,0.5,0.75,1", "--r", "1", "--seed", "3")
    rep = json.loads(out)
    curve = rep["outputs"]["curve"]
    certs = rep["outputs"]["certificates"]
    n = 5

    both_columns = all("value" in row and "theorem4_bound" in row for row in curve)
    cert_errs = []
    for row, cert in zip(curve, certs):
        x = matrix_from_json(cert["certificate_X"])
        s = RowSupport(tuple(cert["certificate_support"]), n)
        again = theta(cert["p"], x, s)
        cert_errs.append(abs(again - row["value"]) / max(1.0, abs(row["value"])))
    consistent = all(e <= 1e-9 for e in cert_errs)

    # the computed constant exceeds the analytic cap on this matrix; the
    # command must report that side by side rather than enforce an ordering
    exceeds = sum(
        1 for row in curve
        if row["theorem4_bound"] is not None
        and row["value"] > row["theorem4_bound"]
    )
    ok = (code == EXIT_OK and both_columns and consistent and exceeds >= 1)
    detail = (f"table emitted with both columns: {both_columns}; "
              f"certificates reproduce values (worst rel err "
              f"{max(cert_errs):.1e} <= 1e-9): {consistent}; "
              f"constant exceeds the cap on {exceeds} rows and the command "
              f"still exits 0 (no ordering asserted)")
    line = _verdict(7, ok, detail)
    assert ok, line


# ---------------------------------------------------------------------------
# 8. determinism of every emitted artifact


def test_criterion_8_determinism(capsys, example_paths):
    ex2 = example_paths["example2"]
    gen_spec = '{"kind": "gaussian", "m": 5, "n": 8, "r": 2, "k": 2, "seed": 11}'
    battery: list[tuple[str, ...]] = [
        ("pstar", ex2),
        ("solve", ex2, "--method", "l20"),
        ("solve", ex2, "--method", "l20", "--csv"),
        ("solve", ex2, "--method", "nullspace", "--p", "0.5", "--seed", "7"),
        ("solve", ex2, "--method", "irls", "--p", "0.5"),
        ("sweep", ex2, "--grid", "0.3,0.5,0.8175", "--seed", "5"),
        ("sweep", ex2, "--grid", "0.3,0.5,0.8175", "--seed", "5", "--csv"),
        ("nsc", ex2, "--k", "2", "--grid", "0,0.5,1", "--r", "2", "--seed", "3"),
        ("nsc", ex2, "--k", "2", "--grid", "0,0.5,1", "--r", "2", "--seed", "3",
         "--csv"),
        ("gen", gen_spec),
        ("reproduce", "example1"),
        ("reproduce", "example2"),
    ]
    mismatches = []
    for argv in battery:
        outs = []
        for _ in range(2):
            code, out = _run_cli(capsys, *argv)
            assert code == EXIT_OK, argv
            if "--csv" in argv:
                outs.append(out)
            else:
                rep = json.loads(out)
                rep.pop("runtime_ms")
                outs.append(json.dumps(rep, sort_keys=True))
        if outs[0] != outs[1]:
            mismatches.append(" ".join(argv))
    ok = not mismatches
    detail = (f"{len(battery)} command invocations run twice, byte-identical "
              f"modulo runtime_ms: {ok}"
              + (f"; mismatches: {mismatches}" if mismatches else ""))
    line = _verdict(8, ok, detail)
    assert ok, line
