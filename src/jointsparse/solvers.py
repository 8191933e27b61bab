"""Solvers for the multiple-measurement-vector (MMV) sparse recovery problem.

Three routes to min ||X||_{2,p} subject to A X = B:

* :func:`l20_solve` — exact row-sparsest solution by support enumeration
  (p = 0, small n only);
* :func:`irls_solve` — iteratively reweighted least squares for p in (0, 1],
  with a decreasing smoothing parameter;
* :func:`nullspace_solve` — exact-feasible search over X0 + N C where N spans
  Ker(A), by multi-start coordinate descent (plus a grid pass in tiny
  dimensions).

:func:`check_equivalence` runs the exact and relaxed routes and reports
whether they land on the same solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DimGuardExceeded,
    DomainError,
    Infeasible,
    MaxIterationsExceeded,
    RankDeficient,
)
from .generators import PortableRng
from .linalg import as_matrix, check_enumerable, column_subsets, gram_spectrum
from .linalg import matrix_from_json, matrix_to_json
from .norms import DEFAULT_ZERO_TOL, RowSupport, mixed_norm_2p, row_support

FEASIBILITY_TOL = 1e-8      # l20_solve's residual bound, times max(1, ||B||_F)
MATCH_TOL = 1e-4            # check_equivalence's Frobenius match distance
IRLS_EPS0, IRLS_EPS_MIN, IRLS_TOL = 1.0, 1e-10, 1e-9   # irls_solve's schedule
DESCENT_DIM_GUARD = 8       # largest nullity * r that nullspace_solve accepts
DESCENT_MAX_SWEEPS = 200    # per coordinate descent and per polish round

_GOLD = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# problem / solution containers


@dataclass(frozen=True)
class MmvProblem:
    """An instance A X = B, optionally with a planted solution and claimed k."""

    a: np.ndarray
    b: np.ndarray
    planted: np.ndarray | None = None
    k: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "a", as_matrix(self.a, name="A"))
        object.__setattr__(self, "b", as_matrix(self.b, name="B"))
        if self.a.shape[0] != self.b.shape[0]:
            raise DomainError(f"row mismatch: A is {self.a.shape}, B is {self.b.shape}")
        if self.planted is not None:
            planted = as_matrix(self.planted, name="planted")
            object.__setattr__(self, "planted", planted)
            if planted.shape != (self.a.shape[1], self.b.shape[1]):
                raise DomainError(
                    f"planted shape {planted.shape} != ({self.a.shape[1]}, {self.b.shape[1]})"
                )
            resid = float(np.linalg.norm(self.a @ planted - self.b))
            ref = max(1.0, float(np.linalg.norm(self.b)))
            if resid > 1e-8 * ref:
                raise DomainError(f"planted solution violates A X = B: residual {resid:.3e}")
        if self.k is not None:
            if not isinstance(self.k, (int, np.integer)) or isinstance(self.k, bool):
                raise DomainError("k must be an integer")
            object.__setattr__(self, "k", int(self.k))
            if self.k < 1 or self.k > self.a.shape[1]:
                raise DomainError(f"k must lie in 1..{self.a.shape[1]}, got {self.k}")

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return self.a.shape[1]

    @property
    def r(self) -> int:
        return self.b.shape[1]


def problem_to_json(prob: MmvProblem) -> dict:
    out = {"A": matrix_to_json(prob.a), "B": matrix_to_json(prob.b)}
    if prob.planted is not None:
        out["X_star"] = matrix_to_json(prob.planted)
    if prob.k is not None:
        out["k"] = prob.k
    return out


def problem_from_json(obj) -> MmvProblem:
    if not isinstance(obj, dict):
        raise DomainError("problem JSON must be an object")
    unknown = set(obj) - {"A", "B", "X_star", "k"}
    if unknown:
        raise DomainError(f"problem JSON has unknown fields: {sorted(unknown)}")
    if "A" not in obj or "B" not in obj:
        raise DomainError("problem JSON must contain 'A' and 'B'")
    planted = obj.get("X_star")
    return MmvProblem(
        a=matrix_from_json(obj["A"], name="A"),
        b=matrix_from_json(obj["B"], name="B"),
        planted=matrix_from_json(planted, name="X_star") if planted is not None else None,
        k=obj.get("k"),
    )


@dataclass(frozen=True, slots=True)
class SparseSolution:
    """A feasible solution with its reported support and objective value.

    ``x`` is never truncated; ``support`` is what survives ``zero_tol``,
    derived from ``x`` on access rather than stored, so that a solution
    holds no more than its array and a few scalars.
    ``objective`` is the norms-module value at ``p`` of ``x`` with the rows
    outside ``support`` zeroed (the row count for p = 0).
    """

    x: np.ndarray
    zero_tol: float
    objective: float
    p: float
    method: str
    residual: float
    unique: bool | None = None

    @property
    def support(self) -> RowSupport:
        return row_support(self.x, self.zero_tol)


def solution_to_json(sol: SparseSolution) -> dict:
    out = {
        "X": matrix_to_json(sol.x),
        "support": list(sol.support.indices),
        "objective": sol.objective,
        "p": sol.p,
        "method": sol.method,
        "residual": sol.residual,
    }
    if sol.unique is not None:
        out["unique"] = sol.unique
    return out


def _finish(x: np.ndarray, p: float, method: str, prob: MmvProblem,
            zero_tol: float, unique: bool | None = None) -> SparseSolution:
    x = as_matrix(x, name="X")
    support = row_support(x, zero_tol)
    objective = (float(len(support)) if p == 0.0
                 else mixed_norm_2p(np.where(support.mask()[:, None], x, 0.0), p))
    return SparseSolution(
        x=x,
        zero_tol=zero_tol,
        objective=objective,
        p=p,
        method=method,
        residual=float(np.linalg.norm(prob.a @ x - prob.b)),
        unique=unique,
    )


# ---------------------------------------------------------------------------
# exact l_{2,0} by enumeration


def l20_solve(prob: MmvProblem, k_max: int, zero_tol: float = DEFAULT_ZERO_TOL) -> SparseSolution:
    """Row-sparsest solution of A X = B by enumeration over supports.

    Supports are tried in order of increasing cardinality (lexicographic
    within a cardinality); the first feasible cardinality wins.  A support S
    is feasible when least squares restricted to S leaves a residual of at
    most ``FEASIBILITY_TOL * max(1, ||B||_F)``.  Ties at the winning
    cardinality break by smaller Frobenius norm, then lexicographic support.

    ``unique`` is true iff exactly one support of the winning cardinality is
    feasible and A restricted to it has full column rank.

    Raises EnumerationTooLarge when n exceeds ``linalg.ENUMERATION_GUARD``,
    and Infeasible when no support of size <= k_max fits.
    """
    a, b = prob.a, prob.b
    n, r = prob.n, prob.r
    check_enumerable(a)
    if not (1 <= k_max <= n):
        raise DomainError(f"k_max must lie in 1..{n}, got {k_max}")
    bnorm = float(np.linalg.norm(b))
    ref = max(1.0, bnorm)
    if bnorm <= FEASIBILITY_TOL * ref:
        zero = np.zeros((n, r))
        return _finish(zero, 0.0, "exact_l20", prob, zero_tol, unique=True)
    cut = gram_spectrum(a).cut
    for card in range(1, k_max + 1):
        feasible: list[tuple[float, tuple[int, ...], np.ndarray, bool]] = []
        for subsets, sub, gram, full_rank in column_subsets(a, card, cut):
            rhs = sub.transpose(0, 2, 1) @ b                      # (c, card, r)
            sols = np.empty((len(subsets), card, r))
            if np.any(full_rank):
                sols[full_rank] = np.linalg.solve(gram[full_rank], rhs[full_rank])
            for i in np.nonzero(~full_rank)[0]:
                sols[i] = np.linalg.lstsq(sub[i], b, rcond=None)[0]
            resid = np.linalg.norm(sub @ sols - b[None], axis=(1, 2))
            for i in np.nonzero(resid <= FEASIBILITY_TOL * ref)[0]:
                frob = float(np.linalg.norm(sols[i]))
                feasible.append((frob, subsets[i], sols[i], bool(full_rank[i])))
        if feasible:
            feasible.sort(key=lambda t: (t[0], t[1]))
            frob, supp, y, well_posed = feasible[0]
            x = np.zeros((n, r))
            x[list(supp)] = y
            unique = len(feasible) == 1 and well_posed
            return _finish(x, 0.0, "exact_l20", prob, zero_tol, unique=unique)
    raise Infeasible(f"no feasible support of cardinality <= {k_max}")


# ---------------------------------------------------------------------------
# IRLS for p in (0, 1]


@dataclass(frozen=True)
class IrlsOptions:
    """Knobs for :func:`irls_solve`.

    ``callback(iteration, x, eps, smoothed_objective)`` fires once per
    iteration when provided.
    """

    max_iter: int = 2000
    zero_tol: float = DEFAULT_ZERO_TOL
    callback: Callable[[int, np.ndarray, float, float], None] | None = None

    def __post_init__(self):
        if self.max_iter < 1:
            raise DomainError("max_iter must be >= 1")


def irls_solve(prob: MmvProblem, p: float, opts: IrlsOptions = IrlsOptions()) -> SparseSolution:
    """Iteratively reweighted least squares for min ||X||_{2,p}^p s.t. A X = B.

    Each iterate solves the weighted minimum-norm problem
    X = W^{-1} A^T (A W^{-1} A^T)^{-1} B with row weights
    w_i = (||row_i||^2 + eps)^(p/2 - 1), so feasibility is exact throughout.
    The smoothing parameter eps starts at 1 and divides by 10 (never below
    1e-10) each time the relative iterate change drops under sqrt(eps)/100,
    i.e. once the iterate has settled at the current smoothing level; the
    iteration has converged once that change is below 1e-9 at eps = 1e-10.
    Requires A with full row rank.  Raises MaxIterationsExceeded (carrying the
    last iterate in ``.last``) if the budget runs out.
    """
    if not (0.0 < p <= 1.0):
        raise DomainError(f"p must lie in (0, 1], got {p}")
    a = prob.a
    x = np.array(gram_spectrum(a).min_norm(prob.b))
    eps = IRLS_EPS0
    for iteration in range(1, opts.max_iter + 1):
        rowsq = np.sum(x * x, axis=1)
        winv = (rowsq + eps) ** (1.0 - p / 2.0)      # 1/w_i, strictly positive
        try:
            y = np.linalg.solve((a * winv) @ a.T, prob.b)
        except np.linalg.LinAlgError:
            raise RankDeficient("weighted Gram A W^{-1} A^T became singular") from None
        x_next = winv[:, None] * (a.T @ y)
        rel = float(np.linalg.norm(x_next - x)) / max(1.0, float(np.linalg.norm(x)))
        x = x_next
        if opts.callback is not None:
            smoothed = float(np.sum((np.sum(x * x, axis=1) + eps) ** (p / 2.0)))
            opts.callback(iteration, x, eps, smoothed)
        # The smoothing parameter only shrinks once the iterate has settled at
        # the current eps (the /100 keeps the continuation slow enough to
        # track the smoothed minimizer instead of freezing in the first basin).
        if rel < math.sqrt(eps) / 100.0:
            if eps <= IRLS_EPS_MIN and rel < IRLS_TOL:
                return _finish(x, p, "irls", prob, opts.zero_tol)
            eps = max(eps / 10.0, IRLS_EPS_MIN)
    raise MaxIterationsExceeded(
        f"no convergence within {opts.max_iter} iterations",
        last=_finish(x, p, "irls", prob, opts.zero_tol),
    )


# ---------------------------------------------------------------------------
# nullspace-parametrized descent


@dataclass(frozen=True)
class DescentOptions:
    """Knobs for :func:`nullspace_solve`.  ``seed`` has no default on purpose:
    every run must pin its random restarts."""

    seed: int
    restarts: int = 32
    grid_points: int = 201
    tol: float = 1e-10
    zero_tol: float = DEFAULT_ZERO_TOL

    def __post_init__(self):
        if self.seed < 0:
            raise DomainError("seed must be nonnegative")
        if self.restarts < 0:
            raise DomainError("restarts must be nonnegative")
        if self.grid_points < 2:
            raise DomainError("grid_points must be >= 2")
        if self.tol <= 0:
            raise DomainError("tol must be positive")


def _golden_shrink(g, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section minimization of scalar g on [lo, hi]."""
    x1 = hi - _GOLD * (hi - lo)
    x2 = lo + _GOLD * (hi - lo)
    f1, f2 = g(x1), g(x2)
    while (hi - lo) > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLD * (hi - lo)
            f1 = g(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLD * (hi - lo)
            f2 = g(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def _line_min(g, center: float, f_center: float, tol: float) -> tuple[float, float]:
    """Minimize scalar g near *center*: grow a symmetric bracket until the
    midpoint is lowest, then golden-shrink inside it."""
    h = 0.5 * max(abs(center), 1.0)
    f_lo, f_hi = g(center - h), g(center + h)
    for _ in range(64):
        if f_center <= f_lo and f_center <= f_hi:
            break
        if f_lo < f_hi:
            center, f_center = center - h, f_lo
        else:
            center, f_center = center + h, f_hi
        h *= 2.0
        f_lo, f_hi = g(center - h), g(center + h)
    x, fx = _golden_shrink(g, center - h, center + h, tol)
    if fx < f_center:
        return x, fx
    return center, f_center


def _along(x: np.ndarray, j: int, w: np.ndarray, p: float, t0: float = 0.0):
    """The objective along one direction: g(t) = ||X + (t - t0) w e_j^T||_{2,p}^p.

    Every line search moves a single column j of X by a multiple of a fixed
    vector w (a kernel basis column for a coordinate move, a kernel direction
    for the polish), so row i's squared norm is the fixed mass of its other
    columns plus (X_ij + (t - t0) w_i)^2.  Moving the entry itself, rather
    than expanding the squared norm into a quadratic in t, keeps a vanishing
    row's norm accurate to the rounding of its entries, and the minima sit
    exactly where rows vanish.  An evaluation runs on Python floats: a
    search makes thousands of them on a few rows each, where numpy's
    per-call overhead would cost several times the arithmetic.
    """
    rest = np.delete(x, j, axis=1)
    rows = list(zip(np.add.reduce(rest * rest, axis=1).tolist(), x[:, j].tolist(), w.tolist()))
    sqrt = math.sqrt

    def g(t: float) -> float:
        s = t - t0
        acc = 0.0
        for other, u, v in rows:
            y = u + s * v
            acc += sqrt(other + y * y) ** p
        return acc

    return g


def _coordinate_descent(x0: np.ndarray, basis: np.ndarray, p: float, c0: np.ndarray,
                        tol: float):
    """Cyclic coordinate descent on C with golden-section line searches.

    Stops when a full sweep improves the objective by at most *tol*.
    """
    c = c0.astype(float).copy()
    f_cur = mixed_norm_2p(x0 + basis @ c, p)
    for _ in range(DESCENT_MAX_SWEEPS):
        f_start = f_cur
        for i, j in np.ndindex(c.shape):
            old = float(c[i, j])
            g = _along(x0 + basis @ c, j, basis[:, i], p, t0=old)
            t_new, f_new = _line_min(g, old, f_cur, tol)
            if f_new < f_cur:
                c[i, j] = t_new
                f_cur = f_new
        if f_start - f_cur <= tol:
            break
    return c, f_cur


def _kink_polish(x0: np.ndarray, basis: np.ndarray, p: float, c0: np.ndarray,
                 f_cur: float, tol: float):
    """Escape coordinate-descent stalls at the objective's kinks.

    Wherever row norms vanish the objective is non-smooth, and cyclic
    single-axis moves can stall there even on convex instances (p = 1): the
    descent directions that keep the zero rows zero are a proper subspace of
    coefficient space, which axis moves leave immediately.  This polish
    computes that subspace for the current zeroed rows (the null space of
    the corresponding kernel-basis rows) plus one release direction per
    zeroed row (free that row, disturb the others minimally), line-searches
    along all of them until exhausted, then alternates back to full
    coordinate sweeps.
    """
    c = c0.copy()
    r = c.shape[1]
    for _ in range(6):
        f_enter = f_cur
        x = x0 + basis @ c
        norms = np.sqrt(np.sum(x * x, axis=1))
        scale = float(norms.max())
        if scale == 0.0:
            break
        active = norms <= 1e-5 * scale
        if not np.any(active):
            break
        bz = basis[active, :]
        evals, evecs = np.linalg.eigh(bz.T @ bz)
        floor = evecs[:, evals <= 1e-12 * max(float(evals[-1]), 1.0)]
        dirs = [floor[:, q] for q in range(floor.shape[1])]
        # release directions: free one pinned row while moving the other
        # pinned rows as little as possible
        idx_active = np.flatnonzero(active)
        for i in idx_active:
            others = idx_active[idx_active != i]
            if others.size:
                bo = basis[others, :]
                ev_o, vec_o = np.linalg.eigh(bo.T @ bo)
                null_o = vec_o[:, ev_o <= 1e-12 * max(float(ev_o[-1]), 1.0)]
                v = null_o @ (null_o.T @ basis[i])
            else:
                v = basis[i].copy()
            nrm = float(np.linalg.norm(v))
            if nrm > 1e-10:
                dirs.append(v / nrm)
        if not dirs:
            break
        for _ in range(DESCENT_MAX_SWEEPS):
            f_round = f_cur
            for v in dirs:
                w = basis @ v
                for j in range(r):
                    g = _along(x0 + basis @ c, j, w, p)
                    t_new, f_new = _line_min(g, 0.0, f_cur, tol)
                    if f_new < f_cur:
                        c[:, j] += t_new * v
                        f_cur = f_new
            if f_round - f_cur <= tol:
                break
        c2, f2 = _coordinate_descent(x0, basis, p, c, tol)
        if f2 < f_cur:
            c, f_cur = c2, f2
        if f_enter - f_cur <= tol:
            break
    return c, f_cur


def _grid_best(x0, basis, p, d, r, grid_points):
    """Best point of a uniform grid over [-g, g]^(d*r), g = 10 ||X0||_F."""
    g = 10.0 * float(np.linalg.norm(x0))
    if g == 0.0:
        return np.zeros((d, r))
    axis = np.linspace(-g, g, grid_points)
    dims = d * r
    if dims == 1:
        pts = axis.reshape(-1, 1)
    else:
        aa, bb = np.meshgrid(axis, axis, indexing="ij")
        pts = np.column_stack([aa.ravel(), bb.ravel()])
    coeffs = pts.reshape(-1, d, r)                                   # (P, d, r)
    best_val = math.inf
    best = None
    chunk = 512                  # keeps each (chunk, n, r) temporary small
    for start in range(0, coeffs.shape[0], chunk):
        cs = coeffs[start:start + chunk]
        xs = x0[None] + np.einsum("nd,pdr->pnr", basis, cs)
        vals = np.sum(np.sqrt(np.sum(xs * xs, axis=2)) ** p, axis=1)
        i = int(np.argmin(vals))                   # first index on ties
        if vals[i] < best_val:
            best_val = float(vals[i])
            best = cs[i].copy()
    return best


def nullspace_solve(prob: MmvProblem, p: float, opts: DescentOptions) -> SparseSolution:
    """Minimize ||X0 + N C||_{2,p}^p over coefficient matrices C.

    X0 is the minimum-norm solution and N an orthonormal kernel basis, so
    every candidate is exactly feasible.  Starts: C = 0, the planted
    solution's coefficients when the problem carries one, ``opts.restarts``
    seeded Gaussian draws scaled by ||X0||_F, and — when nullity * r <= 2 —
    the best point of a ``grid_points``-per-axis sweep of [-10||X0||_F,
    10||X0||_F], refined like every other start by coordinate descent.
    Runs sequentially in start order, then polishes the winner along the
    subspace that keeps its zero rows zero (coordinate moves alone can stall
    on the objective's kinks); the result can never be worse than the
    objective at C = 0.
    """
    if not (0.0 < p <= 1.0):
        raise DomainError(f"p must lie in (0, 1], got {p}")
    spec = gram_spectrum(prob.a)
    x0 = spec.min_norm(prob.b)
    basis = spec.kernel
    d, r = basis.shape[1], prob.r
    if d == 0:
        return _finish(x0, p, "nullspace_descent", prob, opts.zero_tol, unique=True)
    if d * r > DESCENT_DIM_GUARD:
        raise DimGuardExceeded(f"nullity*r = {d * r} exceeds dim_guard {DESCENT_DIM_GUARD}")

    starts: list[np.ndarray] = [np.zeros((d, r))]
    if prob.planted is not None:
        starts.append(basis.T @ (prob.planted - x0))
    rng = PortableRng(opts.seed)
    scale = float(np.linalg.norm(x0))
    for _ in range(opts.restarts):
        starts.append(scale * rng.normal((d, r)))
    if d * r <= 2:
        starts.append(_grid_best(x0, basis, p, d, r, opts.grid_points))

    best_c, best_val = None, math.inf
    for c_init in starts:
        c, val = _coordinate_descent(x0, basis, p, c_init, opts.tol)
        if val < best_val:
            best_c, best_val = c, val
    if best_c.size >= 2:
        best_c, best_val = _kink_polish(x0, basis, p, best_c, best_val, opts.tol)
    x = x0 + basis @ best_c
    return _finish(x, p, "nullspace_descent", prob, opts.zero_tol)


# ---------------------------------------------------------------------------
# equivalence checking


@dataclass(frozen=True)
class EquivalenceOptions:
    """Configuration for :func:`check_equivalence`: ``seed`` drives the
    nullspace restarts, and every solver reads its support at ``zero_tol``."""

    seed: int
    zero_tol: float = DEFAULT_ZERO_TOL


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of the exact-vs-relaxed comparison at a single p."""

    p: float
    match_tol: float
    l20: SparseSolution
    irls: SparseSolution | None
    nullspace: SparseSolution | None
    skipped: tuple[tuple[str, str], ...]
    best_method: str | None
    distance: float
    equivalent: bool


def equivalence_report_to_json(rep: EquivalenceReport) -> dict:
    return {
        "p": rep.p,
        "match_tol": rep.match_tol,
        "l20": solution_to_json(rep.l20),
        "irls": solution_to_json(rep.irls) if rep.irls else None,
        "nullspace": solution_to_json(rep.nullspace) if rep.nullspace else None,
        "skipped": [list(s) for s in rep.skipped],
        "best_method": rep.best_method,
        "distance": rep.distance if math.isfinite(rep.distance) else "inf",
        "equivalent": rep.equivalent,
    }


def check_equivalence(prob: MmvProblem, p: float, opts: EquivalenceOptions) -> EquivalenceReport:
    """Compare the exact row-sparsest solution against the l_{2,p} relaxations.

    Runs l20_solve up to cardinality ``prob.k`` (min(m, n) when the problem
    claims no k), then irls_solve and nullspace_solve where their guards
    allow (a relaxed solver that raises is recorded in ``skipped`` with the
    reason), all three at ``opts.zero_tol``.  The relaxed solution with the
    smaller objective is compared to the exact one; ``equivalent`` means
    Frobenius distance <= ``MATCH_TOL``.
    """
    if not (0.0 < p <= 1.0):
        raise DomainError(f"p must lie in (0, 1], got {p}")
    k_max = prob.k if prob.k is not None else min(prob.m, prob.n)
    exact = l20_solve(prob, k_max, zero_tol=opts.zero_tol)
    skipped: list[tuple[str, str]] = []
    ran: list[tuple[str, SparseSolution]] = []
    irls_sol = None
    try:
        irls_sol = irls_solve(prob, p, IrlsOptions(zero_tol=opts.zero_tol))
        ran.append(("irls", irls_sol))
    except MaxIterationsExceeded as exc:
        irls_sol = exc.last
        ran.append(("irls", irls_sol))
        skipped.append(("irls", "budget exhausted; last iterate used"))
    except (RankDeficient, DomainError) as exc:
        skipped.append(("irls", str(exc)))
    descent = DescentOptions(seed=opts.seed, zero_tol=opts.zero_tol)
    null_sol = None
    try:
        null_sol = nullspace_solve(prob, p, descent)
        ran.append(("nullspace", null_sol))
    except (DimGuardExceeded, RankDeficient, DomainError) as exc:
        skipped.append(("nullspace", str(exc)))
    if ran:
        best_method, best = min(ran, key=lambda t: t[1].objective)
        distance = float(np.linalg.norm(best.x - exact.x))
    else:
        best_method, distance = None, math.inf
    return EquivalenceReport(
        p=p,
        match_tol=MATCH_TOL,
        l20=exact,
        irls=irls_sol,
        nullspace=null_sol,
        skipped=tuple(skipped),
        best_method=best_method,
        distance=distance,
        equivalent=distance <= MATCH_TOL,
    )
