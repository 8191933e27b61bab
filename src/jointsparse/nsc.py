"""Estimation of the joint null-space constant of a matrix.

The constant h(p, A, r, k) is the supremum of theta(p, X, S) over nonzero
X with all r columns in Ker(A) and |S| <= k.  For nullity 1 it reduces to a
closed form on the single kernel generator and is computed exactly.  For
larger nullity a multi-start coordinate ascent produces a certified lower
bound: the certificate (X, S) always reproduces the reported value.

Recovery interpretation: h < 1 certifies that every k-row-sparse solution is
the unique l_{2,p} minimizer for its own measurements.

Also here: spark (smallest number of linearly dependent columns) and the
exact-recovery cardinality limit derived from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TrivialNullspace
from .generators import PortableRng
from .linalg import as_matrix, check_enumerable, column_subsets, gram_spectrum, matrix_to_json
from .norms import DEFAULT_ZERO_TOL, RowSupport, theta, theta_top_k

#: Most sweeps the ascent makes at one scale.
MAX_SWEEPS = 40

#: Multi-scale offsets for the coordinate ascent: each scale tries these
#: relative steps on every coefficient before shrinking.
_SCALES = (1.0, 0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3, 3e-4, 1e-4)
_STEPS = (-1.0, -0.5, 0.5, 1.0)


@dataclass(frozen=True)
class NscOptions:
    """Knobs for the estimator; ``seed`` is required (drives the restarts)."""

    seed: int
    restarts: int = 64
    zero_tol: float = DEFAULT_ZERO_TOL

    def __post_init__(self):
        if self.seed < 0:
            raise DomainError("seed must be nonnegative")
        if self.restarts < 0:
            raise DomainError("restarts must be nonnegative")


@dataclass(frozen=True)
class NscEstimate:
    """A certified lower bound on (or exact value of) the null-space constant.

    ``value`` is exactly ``theta(p, certificate_x, certificate_support)``;
    ``exact`` is True only on the closed-form nullity-1 path.  ``probes``
    counts the coefficient matrices C the estimate scored (each start once,
    then every nonzero ascent probe; 1 on the exact path), and ``start`` is
    the index of the winning start in the order unit, warm, seeded (-1 on
    the exact path and for a certificate carried over by ``nsc_curve``).
    """

    p: float
    k: int
    r: int
    value: float
    certificate_x: np.ndarray
    certificate_support: RowSupport
    restarts: int
    exact: bool
    probes: int
    start: int


def estimate_to_json(est: NscEstimate) -> dict:
    return {
        "p": est.p,
        "k": est.k,
        "r": est.r,
        "value": est.value,
        "certificate_X": matrix_to_json(est.certificate_x),
        "certificate_support": list(est.certificate_support.indices),
        "restarts": est.restarts,
        "exact": est.exact,
        "probes": est.probes,
        "start": est.start,
    }


def _normalize(x: np.ndarray) -> np.ndarray:
    nrm = float(np.linalg.norm(x))
    return x / nrm if nrm > 0 else x


def _better(val: float, top: tuple, best_val: float, best_top: tuple) -> bool:
    """Tie-break order: larger value, then lexicographically smaller support."""
    return val > best_val or (val == best_val and top < best_top)


def _top_theta(xs: np.ndarray, k: int, p: float, zero_tol: float):
    """``theta_top_k`` on the row norms of a stack of candidates X (P, n, r)."""
    return theta_top_k(np.sqrt(np.add.reduce(xs * xs, axis=2)), k, p, zero_tol)


def nsc_estimate(
    a: np.ndarray,
    r: int,
    k: int,
    p: float,
    opts: NscOptions,
    warm_starts: tuple[np.ndarray, ...] = (),
) -> NscEstimate:
    """Estimate h(p, A, r, k).

    Nullity 1 is exact (single-generator closed form, independent of r).
    Otherwise a coordinate ascent over coefficient matrices C (the candidate
    is X = N C for an orthonormal kernel basis N) runs from deterministic
    unit starts, any ``warm_starts``, and ``opts.restarts`` seeded Gaussian
    draws; theta's scale invariance lets every iterate live on the unit
    sphere.  A start stops early if its value reaches +inf.
    """
    a = as_matrix(a, name="A")
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"p must lie in [0, 1], got {p}")
    return _estimate(_kernel(a, r, k), int(r), k, p, opts, warm_starts)


def _kernel(a: np.ndarray, r, k) -> np.ndarray:
    """Ker(A)'s basis, after the checks nsc_estimate and nsc_curve share."""
    n = a.shape[1]
    if not isinstance(r, (int, np.integer)) or isinstance(r, bool) or r < 1:
        raise DomainError(f"r must be a positive integer, got {r!r}")
    if not (1 <= k < n):
        raise DomainError(f"k must satisfy 1 <= k < n={n}, got {k}")
    basis = gram_spectrum(a).kernel
    if basis.shape[1] == 0:
        raise TrivialNullspace("Ker(A) = {0}: the null-space constant is vacuous")
    return basis


def _certified(p: float, k: int, x: np.ndarray, top, zero_tol: float,
               **rest) -> NscEstimate:
    """The estimate whose certificate is X normalized, on the 0-based rows
    ``top``; its value is theta of exactly that certificate."""
    cert = as_matrix(_normalize(x))
    support = RowSupport(indices=tuple(int(i) + 1 for i in top), n=cert.shape[0])
    return NscEstimate(p=p, k=k, r=cert.shape[1],
                       value=theta(p, cert, support, zero_tol=zero_tol),
                       certificate_x=cert, certificate_support=support, **rest)


def _estimate(basis: np.ndarray, r: int, k: int, p: float, opts: NscOptions,
              warm_starts: tuple[np.ndarray, ...],
              carried: tuple[np.ndarray, ...] = ()) -> NscEstimate:
    """:func:`nsc_estimate` on validated arguments and a nontrivial kernel basis.

    Each ``carried`` coefficient matrix is scored as it is after the ascent
    and replaces the winner if it is better.
    """
    n, d = basis.shape
    if d == 1:
        x = np.zeros((n, r))
        x[:, 0] = basis[:, 0]
        _, top = _top_theta(x[None], k, p, opts.zero_tol)
        return _certified(p, k, x, top[0], opts.zero_tol,
                          restarts=0, exact=True, probes=1, start=-1)
    val, top, c, start, probes = _ascend(basis, r, k, p, opts, warm_starts)
    x = basis @ c
    for cert_c in carried:
        x_prev = basis @ cert_c
        vals, tops = _top_theta(x_prev[None], k, p, opts.zero_tol)
        cand = float(vals[0]), tuple(tops[0].tolist())
        if _better(*cand, val, top):
            (val, top), x, start = cand, x_prev, -1
    return _certified(p, k, x, top, opts.zero_tol,
                      restarts=opts.restarts, exact=False, probes=probes, start=start)


def _ascend(basis: np.ndarray, r: int, k: int, p: float, opts: NscOptions,
            warm_starts: tuple[np.ndarray, ...]):
    """Coordinate ascent of theta_max over C, run in lockstep for every start.

    Each start, on its own, follows the serial order: for each scale, up to
    ``MAX_SWEEPS`` sweeps over the entries j of C, each trying the steps in
    ``_STEPS`` from the entry's current value and keeping a probe that beats
    the start's value.  A start leaves a scale after a sweep that brought no
    gain and leaves the ascent once its value is +inf; C is renormalized
    after every sweep.  All probes of one (scale, sweep, j, step) are scored
    as one batch.  Returns the best start's (value, 0-based support, C,
    start index, number of C scored); ties go to the smaller support, then
    to the earlier start.
    """
    d = basis.shape[1]
    starts: list[np.ndarray] = []
    for j in range(d):                       # deterministic single-generator starts
        c = np.zeros((d, r))
        c[j, 0] = 1.0
        starts.append(c)
    starts.extend(np.asarray(w, dtype=float).reshape(d, r) for w in warm_starts)
    rng = PortableRng(opts.seed)
    for _ in range(opts.restarts):
        starts.append(rng.normal((d, r)))

    def score(cs: np.ndarray):
        return _top_theta(basis @ cs.reshape(-1, d, r), k, p, opts.zero_tol)

    flat = np.array([_normalize(c0).ravel() for c0 in starts])
    valid = np.flatnonzero([float(np.linalg.norm(c)) > 0.0 for c in flat])
    val = np.full(len(starts), -np.inf)
    top = np.zeros((len(starts), k), dtype=np.intp)
    val[valid], top[valid] = score(flat[valid])
    probes = valid.size
    live = valid[val[valid] < np.inf]
    for scale in _SCALES:
        act = live
        for _ in range(MAX_SWEEPS):
            if act.size == 0:
                break
            improved = np.zeros(act.size, dtype=bool)
            for j in range(flat.shape[1]):
                old = flat[act, j]
                for step in _STEPS:
                    cand = old + scale * step
                    probe = flat[act]
                    probe[:, j] = cand
                    rows = probe.any(axis=1).nonzero()[0]   # C = 0 is invalid
                    cand_val, cand_top = score(probe[rows])
                    probes += rows.size
                    win = cand_val > val[act[rows]]
                    if win.any():
                        rows = rows[win]
                        old[rows] = cand[rows]
                        val[act[rows]], top[act[rows]] = cand_val[win], cand_top[win]
                        improved[rows] = True
                flat[act, j] = old
            for i in act:                    # theta is scale-invariant;
                nrm = float(np.linalg.norm(flat[i]))  # renormalize to stop drift
                if nrm > 0:
                    flat[i] /= nrm
            live = live[val[live] < np.inf]
            act = act[improved & (val[act] < np.inf)]

    tops = [tuple(t) for t in top.tolist()]
    best = valid[0]
    for i in valid[1:]:
        if _better(val[i], tops[i], val[best], tops[best]):
            best = i
    return float(val[best]), tops[best], flat[best].reshape(d, r), int(best), probes


def nsc_curve(
    a: np.ndarray,
    r: int,
    k: int,
    p_grid,
    opts: NscOptions,
) -> list[NscEstimate]:
    """Estimates along an ascending grid of p values, sharing certificates.

    Each point considers every earlier certificate re-evaluated at its own p
    in addition to a fresh estimate, so the reported curve is nondecreasing
    whenever those certificates have no rows in the open interval
    (0, zero_tol] (re-evaluation at a larger p can only grow theta there).
    One kernel basis of A serves the whole grid.
    """
    grid = [float(q) for q in p_grid]
    if not grid:
        raise DomainError("p_grid must be non-empty")
    if any(b <= a_ for a_, b in zip(grid, grid[1:])):
        raise DomainError("p_grid must be strictly ascending")
    if grid[0] < 0.0 or grid[-1] > 1.0:
        raise DomainError("p_grid values must lie in [0, 1]")
    basis = _kernel(as_matrix(a, name="A"), r, k)
    out: list[NscEstimate] = []
    carried: list[np.ndarray] = []          # certificates, as coefficient matrices
    for p in grid:
        best = _estimate(basis, int(r), k, p, opts, tuple(carried), tuple(carried))
        out.append(best)
        if not math.isinf(best.value):
            carried.append(basis.T @ best.certificate_x)
    return out


# ---------------------------------------------------------------------------
# spark


def spark(a: np.ndarray) -> int:
    """Size of the smallest linearly dependent column subset (n + 1 if none).

    A subset counts as dependent when the smallest eigenvalue of its Gram
    matrix is zero by A's rank rule (at or below 1e-10 times
    lambda_max(A^T A)); in the zero matrix every column is dependent.
    Enumeration is capped at ``linalg.ENUMERATION_GUARD`` columns.
    """
    a = as_matrix(a, name="A")
    m, n = a.shape
    check_enumerable(a)
    cut = gram_spectrum(a).cut
    for card in range(1, min(n, m + 1) + 1):
        for *_, full_rank in column_subsets(a, card, cut):
            if not full_rank.all():
                return card
    return n + 1


def max_recoverable_k(a: np.ndarray) -> int:
    """Largest k with 2k < spark(A): the uniqueness limit for k-row-sparse
    solutions."""
    return (spark(a) - 1) // 2
