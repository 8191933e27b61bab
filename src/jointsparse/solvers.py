"""Solvers for the multiple-measurement-vector (MMV) sparse recovery problem.

Three routes to min ||X||_{2,p} subject to A X = B:

* :func:`l20_solve` — exact row-sparsest solution by support enumeration
  (p = 0, small n only);
* :func:`irls_solve` — iteratively reweighted least squares for p in (0, 1],
  with a decreasing smoothing parameter;
* :func:`nullspace_solve` — exact-feasible search over X0 + N C where N spans
  Ker(A), by multi-start coordinate descent (plus a grid pass in tiny
  dimensions).

:func:`check_equivalence` runs the exact route once and the relaxed routes
at each p of a grid, and reports whether they land on the same solution.
All three read A's decomposition from :attr:`MmvProblem.spectrum`, which
makes it once per problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
from .linalg import GramSpectrum, as_matrix, check_enumerable, column_stacks, gram_spectrum
from .linalg import min_support_size, residual_covers
from .linalg import matrix_from_json, matrix_to_json
from .norms import DEFAULT_ZERO_TOL, RowSupport, check_count, check_zero_tol
from .norms import _power_sum, _row_norms, check_grid, check_real, check_seed

FEASIBILITY_TOL = 1e-8      # l20_solve's residual bound, times max(1, ||B||_F)
MATCH_TOL = 1e-4            # check_equivalence's Frobenius match distance
TIE_RTOL = 1e-12            # l20_solve's Frobenius norms this close (relative) tie
IRLS_EPS0, IRLS_EPS_MIN, IRLS_TOL = 1.0, 1e-10, 1e-9   # irls_solve's schedule
IRLS_MAX_ITER = 2000        # irls_solve's iteration budget
DESCENT_DIM_GUARD = 8       # largest nullity * r that nullspace_solve accepts
DESCENT_MAX_SWEEPS = 200    # per coordinate descent and per polish round

_GOLD = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# problem / solution containers


@dataclass(frozen=True)
class MmvProblem:
    """An instance A X = B, optionally with a planted solution and claimed k.

    B's Frobenius norm must be finite: every tolerance scales with it, and
    an inf would pass any residual test.

    ``spectrum``, the one decomposition of A^T A that every solver reads,
    is made on first read and kept: A is read-only, so it cannot go stale.
    ``a`` may be given as A or as its :func:`linalg.gram_spectrum` (another
    problem's ``spectrum``, say); a problem given a spectrum keeps it and
    its A, and decomposes nothing.
    """

    a: np.ndarray
    b: np.ndarray
    planted: np.ndarray | None = None
    k: int | None = None

    def __post_init__(self):
        if isinstance(self.a, GramSpectrum):     # its A was checked when decomposed
            self.__dict__.update(spectrum=self.a, a=self.a.a)
        else:
            object.__setattr__(self, "a", as_matrix(self.a, name="A"))
        object.__setattr__(self, "b", as_matrix(self.b, name="B"))
        if self.a.shape[0] != self.b.shape[0]:
            raise DomainError(f"row mismatch: A is {self.a.shape}, B is {self.b.shape}")
        with np.errstate(over="ignore"):        # an overflow is refused below, not warned
            bnorm = float(np.linalg.norm(self.b))
        if not math.isfinite(bnorm):
            raise DomainError("B: Frobenius norm overflows the float range")
        if self.planted is not None:
            planted = as_matrix(self.planted, name="planted")
            object.__setattr__(self, "planted", planted)
            if planted.shape != (self.a.shape[1], self.b.shape[1]):
                raise DomainError(
                    f"planted shape {planted.shape} != ({self.a.shape[1]}, {self.b.shape[1]})"
                )
            with np.errstate(over="ignore", invalid="ignore"):   # inf and nan fail the test
                resid = float(np.linalg.norm(self.a @ planted - self.b))
            ref = max(1.0, bnorm)
            if not resid <= FEASIBILITY_TOL * ref:
                raise DomainError(f"planted solution violates A X = B: residual {resid:.3e}")
        if self.k is not None:
            check_count("k", self.k, 1, self.a.shape[1])
            object.__setattr__(self, "k", int(self.k))

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return self.a.shape[1]

    @property
    def r(self) -> int:
        return self.b.shape[1]

    @cached_property
    def spectrum(self) -> GramSpectrum:
        return gram_spectrum(self.a)


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
    ``objective`` is ``norms.mixed_norm_2p`` at ``p`` of ``x`` with the rows
    outside ``support`` zeroed (the row count for p = 0), read off one pass
    of row norms in :func:`_finish`.
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
        """``norms.row_support`` of ``x`` at ``zero_tol``, without its
        checks: :func:`_finish` has refused a non-finite x."""
        idx = np.flatnonzero(_row_norms(self.x) > self.zero_tol)
        return RowSupport(indices=tuple(int(i) + 1 for i in idx), n=self.x.shape[0])


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
    """The solution *x*, refused if not finite, with its objective read off
    one pass of row norms.  A row outside the support stays in the sum as a
    zero, so the sum is grouped as ``mixed_norm_2p`` groups it on *x* with
    those rows zeroed."""
    x = as_matrix(x, name="X")
    norms = _row_norms(x)
    norms[norms <= zero_tol] = 0.0          # the rows outside the support
    objective = float(np.count_nonzero(norms) if p == 0.0 else _power_sum(norms, p))
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


def l20_solve(prob: MmvProblem, k_max: int | None = None,
              zero_tol: float = DEFAULT_ZERO_TOL) -> SparseSolution:
    """Row-sparsest solution of A X = B by enumeration over supports.

    Supports of at most ``k_max`` rows are tried; ``None`` caps them at the
    problem's claimed ``k``, or at min(m, n) when it claims none.  They are
    tried in order of increasing cardinality (lexicographic within a
    cardinality); the first feasible cardinality wins.  A support S
    is feasible when least squares restricted to S leaves a residual of at
    most tol = ``FEASIBILITY_TOL * max(1, ||B||_F)``.  At the winning
    cardinality the smallest Frobenius norm wins; norms within ``TIE_RTOL``
    (relative) of it tie, and the lexicographically first of those supports
    wins.  Such norms are equal in exact arithmetic (two supports that differ
    by a duplicated column, say) and differ only by rounding.

    ``unique`` is true iff exactly one support of the winning cardinality is
    feasible and A restricted to it has full column rank.

    Two cuts skip supports, each at any rank, with no rank test and no
    solve (``linalg`` module docstring):

    * B's singular values rule out sizes (``linalg.min_support_size``).
      A_S Y has rank at most |S|, so no support of a size c fits B closer
      than B's tail beyond its c-th singular value, and every size whose
      tail exceeds tol plus the rounding allowance ``m * n * eps *
      (||B||_F + tol) / sqrt(REL_EIG_TOL)`` is skipped: nothing of it is
      listed.
    * ``linalg.residual_covers`` rules supports out.  Every U of the size u*
      in [k_max, min(m - 1, n)] with the fewest subsets gets the R factor
      of [A_U | B], read off QR's raw factor, whose trailing block has the
      norm ``||Q_perp^T B||_F`` of A_U's complete QR; when that clears tol
      plus the allowance, no subset of U fits B.  The test is made once the
      smaller sizes have cost at least as many subsets (the sizes the cut
      skips count towards that too, so it runs at the same size with or
      without the cut), and answers every size with a ``linalg.SubsetCover``
      that holds nothing until then.

    A full-rank support skipped by either cut would fit B by a solve of its
    own only if rounding exceeded the allowance.  A rank-deficient one is
    skipped too, as ``lstsq`` would have found it infeasible: that is an
    empirical margin, not a proof.  The supports of a size the cut leaves
    are listed off the cover, not enumerated and filtered; each is
    rank-tested against A's rank cut and solved, by its normal equations
    when full rank and by ``lstsq`` otherwise.

    On ``gen`` Gaussian 16x17 r4 seed 1 with k_max = 8, B's rank rules out
    sizes 1-3, one batched QR of the 136 stacks [A_U | B] with 15 columns
    of A rules out sizes 4-7, and one support, the planted one, is listed,
    rank-tested and solved (154 before the size cut: the 17 single columns,
    the 136 pairs and the planted support; 65 535 with no cover).  On the
    instance of seed 3226652560831358504, whose one dependent set of 16
    columns omits column 9 (0-based), again 1 subset is rank-tested and the
    planted support found.  On ``gen`` Gaussian 12x20 r6 k6 seed 1 with
    k_max = 6, sizes 1-5 are ruled out, where their 21 699 supports were
    solved before the cut, and the 38 760 supports of 6 columns are still
    listed and solved: the residual test is not due before size 6.

    Raises EnumerationTooLarge when n exceeds ``linalg.ENUMERATION_GUARD``,
    DomainError for a k_max other than None that is not an integer in 1..n
    or a *zero_tol* that is not finite and >= 0 (before any support is
    tried), and Infeasible when no support of size <= k_max fits.
    """
    a, b = prob.a, prob.b
    n, r = prob.n, prob.r
    check_enumerable(a)
    if k_max is None:
        k_max = prob.k if prob.k is not None else min(prob.m, n)
    check_count("k_max", k_max, 1, n)
    check_zero_tol(zero_tol)
    bnorm = float(np.linalg.norm(b))
    tol = FEASIBILITY_TOL * max(1.0, bnorm)
    if bnorm <= tol:
        zero = np.zeros((n, r))
        return _finish(zero, 0.0, "exact_l20", prob, zero_tol, unique=True)
    cut = prob.spectrum.cut
    first = min_support_size(a, b, tol)
    if first > k_max:
        raise Infeasible(f"no feasible support of cardinality <= {k_max}")
    for card, ruled_out in residual_covers(a, b, k_max, tol):
        if card < first:                    # the cover advances, so the voucher keeps its size
            continue
        feasible: list[tuple[float, tuple[int, ...], np.ndarray, bool]] = []
        for idx in ruled_out.uncovered(card):
            sub, gram, full_rank = column_stacks(a, idx, cut)
            rhs = sub.transpose(0, 2, 1) @ b                      # (c, card, r)
            sols = np.empty((len(idx), card, r))
            if np.any(full_rank):
                sols[full_rank] = np.linalg.solve(gram[full_rank], rhs[full_rank])
            for i in np.nonzero(~full_rank)[0]:
                sols[i] = np.linalg.lstsq(sub[i], b, rcond=None)[0]
            resid = np.linalg.norm(sub @ sols - b[None], axis=(1, 2))
            for i in np.nonzero(resid <= tol)[0]:
                frob = float(np.linalg.norm(sols[i]))
                feasible.append((frob, tuple(idx[i].tolist()), sols[i], bool(full_rank[i])))
        if feasible:
            least = min(t[0] for t in feasible)
            frob, supp, y, well_posed = min(
                (t for t in feasible if t[0] <= least * (1 + TIE_RTOL)), key=lambda t: t[1])
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

    zero_tol: float = DEFAULT_ZERO_TOL
    callback: Callable[[int, np.ndarray, float, float], None] | None = None

    def __post_init__(self):
        check_zero_tol(self.zero_tol)


def _frobenius(v: np.ndarray) -> float:
    """``float(np.linalg.norm(v))`` without the wrapper: the same dot over
    v's entries in memory order, then the same correctly rounded sqrt."""
    flat = v.ravel(order="K")
    return math.sqrt(flat.dot(flat))


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
    last iterate in ``.last``) if the budget of ``IRLS_MAX_ITER`` iterations
    runs out.

    An iteration is a few numpy calls on arrays of n x r or m x m entries,
    and most of its time is their per-call overhead: A^T and the exponent
    are taken once per call, the row masses once per iterate, and the two
    norms of the stopping test as plain dot products (``_frobenius``).
    """
    p = check_real("p", p, 0, 1, strict=True)
    a, b = prob.a, prob.b
    at = a.T
    power = 1.0 - p / 2.0
    x = np.array(prob.spectrum._min_norm(b))
    rowsq = np.add.reduce(x * x, axis=1)
    eps = IRLS_EPS0
    for iteration in range(1, IRLS_MAX_ITER + 1):
        winv = (rowsq + eps) ** power                 # 1/w_i, strictly positive
        try:
            y = np.linalg.solve((a * winv) @ at, b)
        except np.linalg.LinAlgError:
            raise RankDeficient("weighted Gram A W^{-1} A^T became singular") from None
        x_next = winv[:, None] * (at @ y)
        rel = _frobenius(x_next - x) / max(1.0, _frobenius(x))
        x = x_next
        rowsq = np.add.reduce(x * x, axis=1)
        if opts.callback is not None:
            smoothed = float(np.add.reduce((rowsq + eps) ** (p / 2.0)))
            opts.callback(iteration, x, eps, smoothed)
        # The smoothing parameter only shrinks once the iterate has settled at
        # the current eps (the /100 keeps the continuation slow enough to
        # track the smoothed minimizer instead of freezing in the first basin).
        if rel < math.sqrt(eps) / 100.0:
            if eps <= IRLS_EPS_MIN and rel < IRLS_TOL:
                return _finish(x, p, "irls", prob, opts.zero_tol)
            eps = max(eps / 10.0, IRLS_EPS_MIN)
    raise MaxIterationsExceeded(
        f"no convergence within {IRLS_MAX_ITER} iterations",
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
        check_seed("seed", self.seed)
        check_count("restarts", self.restarts, 0)
        check_count("grid_points", self.grid_points, 2)
        check_real("tol", self.tol, 0, strict=True)
        check_zero_tol(self.zero_tol)


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


def _along(x: np.ndarray, j: int, w: list[float], p: float, t0: float = 0.0):
    """The objective along one direction: g(t) = ||X + (t - t0) w e_j^T||_{2,p}^p.

    Every line search moves a single column j of X by a multiple of a fixed
    vector w (a kernel basis column for a coordinate move, a kernel direction
    for the polish), so row i's squared norm is the fixed mass of its other
    columns plus (X_ij + (t - t0) w_i)^2.  Moving the entry itself, rather
    than expanding the squared norm into a quadratic in t, keeps a vanishing
    row's norm accurate to the rounding of its entries, and the minima sit
    exactly where rows vanish.

    The cost sits in the evaluations, not in building g.  A search makes
    about 43 of them, each a loop over the rows on Python floats, where
    numpy's per-call overhead would cost several times the arithmetic.
    Building g reads X's columns as lists once; w comes as a list the
    caller read once per descent.  The other columns' mass is the value
    numpy's reduce over them gives, taken without numpy where that is
    exact: with one column it is 0.0 (a reduce over no columns), with two
    it is the other entry squared (a one-element reduce returns its
    element).
    """
    r = x.shape[1]
    cols = x.T.tolist()
    sqrt = math.sqrt
    if r == 1:
        rows = [(0.0, u, v) for u, v in zip(cols[0], w)]
    elif r == 2:
        rows = [(o * o, u, v) for o, u, v in zip(cols[1 - j], cols[j], w)]
    else:
        rest = np.concatenate((x[:, :j], x[:, j + 1:]), axis=1)   # C order: fixed grouping
        rows = list(zip(np.add.reduce(rest * rest, axis=1).tolist(), cols[j], w))

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
    d, r = c.shape
    kernel_cols = basis.T.tolist()
    f_cur = float(_power_sum(_row_norms(x0 + basis @ c), p))
    for _ in range(DESCENT_MAX_SWEEPS):
        f_start = f_cur
        for i in range(d):
            for j in range(r):
                old = float(c[i, j])
                g = _along(x0 + basis @ c, j, kernel_cols[i], p, t0=old)
                t_new, f_new = _line_min(g, old, f_cur, tol)
                if f_new < f_cur:
                    c[i, j] = t_new
                    f_cur = f_new
        if f_start - f_cur <= tol:
            break
    return c, f_cur


def _null_space_of_rows(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the coefficient directions v with rows @ v = 0:
    the eigenvectors of rows^T rows whose eigenvalues are at most 1e-12 *
    max(lambda_max, 1)."""
    evals, evecs = np.linalg.eigh(rows.T @ rows)
    return evecs[:, evals <= 1e-12 * max(float(evals[-1]), 1.0)]


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
        norms = _row_norms(x0 + basis @ c)
        scale = float(norms.max())
        if scale == 0.0:
            break
        active = norms <= 1e-5 * scale
        if not np.any(active):
            break
        dirs = list(_null_space_of_rows(basis[active, :]).T)    # its columns
        # release directions: free one pinned row while moving the other
        # pinned rows as little as possible
        idx_active = np.flatnonzero(active)
        for i in idx_active:
            others = idx_active[idx_active != i]
            if others.size:
                null_o = _null_space_of_rows(basis[others, :])
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
                w = (basis @ v).tolist()
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
        vals = _power_sum(_row_norms(xs), p)
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
    seeded Gaussian draws scaled by ||X0||_F (one ``PortableRng.normal``
    call), and — when nullity * r <= 2 — the best point of a
    ``grid_points``-per-axis sweep of [-10||X0||_F, 10||X0||_F], refined
    like every other start by coordinate descent.
    Runs sequentially in start order, then polishes the winner along the
    subspace that keeps its zero rows zero (coordinate moves alone can stall
    on the objective's kinks); the result can never be worse than the
    objective at C = 0.
    """
    p = check_real("p", p, 0, 1, strict=True)
    spec = prob.spectrum
    x0 = spec._min_norm(prob.b)
    basis = spec.kernel
    d, r = basis.shape[1], prob.r
    if d == 0:
        return _finish(x0, p, "nullspace_descent", prob, opts.zero_tol, unique=True)
    if d * r > DESCENT_DIM_GUARD:
        raise DimGuardExceeded(f"nullity*r = {d * r} exceeds dim_guard {DESCENT_DIM_GUARD}")

    starts: list[np.ndarray] = [np.zeros((d, r))]
    if prob.planted is not None:
        starts.append(basis.T @ (prob.planted - x0))
    # one draw for every restart: a start of odd d * r drops the second
    # normal of its last Box-Muller pair, as a draw of its own would
    scale = float(np.linalg.norm(x0))
    draws = PortableRng(opts.seed).normal((opts.restarts, d * r + d * r % 2))[:, :d * r]
    starts.extend(scale * draws.reshape(opts.restarts, d, r))
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

    def __post_init__(self):
        check_seed("seed", self.seed)
        check_zero_tol(self.zero_tol)


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of the exact-vs-relaxed comparison at a single p."""

    p: float
    l20: SparseSolution
    irls: SparseSolution | None
    nullspace: SparseSolution | None
    skipped: tuple[tuple[str, str], ...]
    best_method: str | None
    distance: float
    equivalent: bool


def check_equivalence(prob: MmvProblem, p_grid, opts: EquivalenceOptions
                      ) -> list[EquivalenceReport]:
    """Compare the exact row-sparsest solution against the l_{2,p}
    relaxations at each p of *p_grid*, one report per p, in grid order.

    Every p must lie in (0, 1]; the grid is checked before anything runs.
    The exact solution does not depend on p, so l20_solve runs once, at its
    default cap (``prob.k``, min(m, n) when the problem claims no k), and
    its error, if any, is the call's.  Then, at each p, irls_solve and
    nullspace_solve run; a relaxed solver that raises is recorded in
    ``skipped`` with the reason (IRLS's last iterate is still used when its
    budget runs out).  All three read their supports at ``opts.zero_tol``
    and A's one decomposition ``prob.spectrum``.  The relaxed solution with
    the smaller objective is compared to the exact one; ``equivalent``
    means Frobenius distance <= ``MATCH_TOL``.
    """
    grid = check_grid("p_grid", p_grid, 0, 1, strict=True)
    exact = l20_solve(prob, zero_tol=opts.zero_tol)
    irls_opts = IrlsOptions(zero_tol=opts.zero_tol)
    descent = DescentOptions(seed=opts.seed, zero_tol=opts.zero_tol)
    reports = []
    for p in grid:
        skipped: list[tuple[str, str]] = []
        ran: list[tuple[str, SparseSolution]] = []
        irls_sol = null_sol = None
        try:
            irls_sol = irls_solve(prob, p, irls_opts)
            ran.append(("irls", irls_sol))
        except MaxIterationsExceeded as exc:
            irls_sol = exc.last
            ran.append(("irls", irls_sol))
            skipped.append(("irls", "budget exhausted; last iterate used"))
        except (RankDeficient, DomainError) as exc:
            skipped.append(("irls", str(exc)))
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
        reports.append(EquivalenceReport(
            p=p, l20=exact, irls=irls_sol, nullspace=null_sol, skipped=tuple(skipped),
            best_method=best_method, distance=distance, equivalent=distance <= MATCH_TOL))
    return reports
