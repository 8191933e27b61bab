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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EnumerationTooLarge, TrivialNullspace
from .generators import PortableRng
from .linalg import as_matrix, gram_spectrum, matrix_to_json
from .norms import DEFAULT_ZERO_TOL, RowSupport, theta, theta_max_over_S

ENUMERATION_GUARD = 20

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
    max_sweeps: int = 40

    def __post_init__(self):
        if self.seed < 0:
            raise DomainError("seed must be nonnegative")
        if self.restarts < 0:
            raise DomainError("restarts must be nonnegative")
        if self.max_sweeps < 1:
            raise DomainError("max_sweeps must be >= 1")


@dataclass(frozen=True)
class NscEstimate:
    """A certified lower bound on (or exact value of) the null-space constant.

    ``theta(p, certificate_x, certificate_support)`` reproduces ``value``;
    ``exact`` is True only on the closed-form nullity-1 path.
    """

    p: float
    k: int
    r: int
    value: float
    certificate_x: np.ndarray
    certificate_support: RowSupport
    restarts: int
    exact: bool


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
    }


def _normalize(x: np.ndarray) -> np.ndarray:
    nrm = float(np.linalg.norm(x))
    return x / nrm if nrm > 0 else x


def _better(val: float, sup: RowSupport, best_val: float, best_sup: RowSupport | None) -> bool:
    """Tie-break order: larger value, then lexicographically smaller support."""
    if val > best_val:
        return True
    if val == best_val and best_sup is not None and sup.indices < best_sup.indices:
        return True
    return False


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
    sphere.  Ascent stops early if the value reaches +inf.
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


def _estimate(basis: np.ndarray, r: int, k: int, p: float, opts: NscOptions,
              warm_starts: tuple[np.ndarray, ...]) -> NscEstimate:
    """:func:`nsc_estimate` on validated arguments and a nontrivial kernel basis."""
    n, d = basis.shape
    if d == 1:
        value, support = theta_max_over_S(p, basis, k, zero_tol=opts.zero_tol)
        cert = np.zeros((n, r))
        cert[:, 0] = basis[:, 0]
        return NscEstimate(
            p=p, k=k, r=r, value=value,
            certificate_x=as_matrix(_normalize(cert)),
            certificate_support=support,
            restarts=0, exact=True,
        )

    def score(c: np.ndarray) -> tuple[float, RowSupport]:
        return theta_max_over_S(p, basis @ c, k, zero_tol=opts.zero_tol)

    starts: list[np.ndarray] = []
    for j in range(d):                       # deterministic single-generator starts
        c = np.zeros((d, r))
        c[j, 0] = 1.0
        starts.append(c)
    starts.extend(np.asarray(w, dtype=float).reshape(d, r) for w in warm_starts)
    rng = PortableRng(opts.seed)
    for _ in range(opts.restarts):
        starts.append(rng.normal((d, r)))

    best_val, best_sup, best_c = -math.inf, None, None
    for c0 in starts:
        c = _normalize(c0.astype(float).copy())
        if float(np.linalg.norm(c)) == 0.0:
            continue
        val, sup = score(c)
        if not math.isinf(val):
            flat = c.ravel()
            for scale in _SCALES:
                for _ in range(opts.max_sweeps):
                    improved = False
                    for j in range(flat.size):
                        old = flat[j]
                        for step in _STEPS:
                            flat[j] = old + scale * step
                            if not np.any(flat):       # probe hit C = 0: invalid
                                flat[j] = old
                                continue
                            cand_val, cand_sup = score(c)
                            if cand_val > val:
                                val, sup = cand_val, cand_sup
                                old = flat[j]
                                improved = True
                            else:
                                flat[j] = old
                        flat[j] = old
                    nrm = float(np.linalg.norm(flat))  # theta is scale-invariant;
                    if nrm > 0:                        # renormalize to stop drift
                        flat /= nrm
                    if math.isinf(val) or not improved:
                        break
                if math.isinf(val):
                    break
        if _better(val, sup, best_val, best_sup):
            best_val, best_sup, best_c = val, sup, c.copy()
    cert = _normalize(basis @ best_c)
    return NscEstimate(
        p=p, k=k, r=r, value=best_val,
        certificate_x=as_matrix(cert),
        certificate_support=best_sup,
        restarts=opts.restarts, exact=False,
    )


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
        est = _estimate(basis, int(r), k, p, opts, tuple(carried))
        best = est
        for cert_c in carried if not est.exact else ():
            x_prev = basis @ cert_c
            val, sup = theta_max_over_S(p, x_prev, k, zero_tol=opts.zero_tol)
            if _better(val, sup, best.value, best.certificate_support):
                best = NscEstimate(
                    p=p, k=k, r=est.r, value=val,
                    certificate_x=as_matrix(_normalize(x_prev)),
                    certificate_support=sup,
                    restarts=est.restarts, exact=est.exact,
                )
        out.append(best)
        if not math.isinf(best.value):
            carried.append(basis.T @ best.certificate_x)
    return out


# ---------------------------------------------------------------------------
# spark


def spark(a: np.ndarray, guard: int = ENUMERATION_GUARD) -> int:
    """Size of the smallest linearly dependent column subset (n + 1 if none).

    A subset counts as dependent when the smallest eigenvalue of its Gram
    matrix is zero by A's rank rule (at or below 1e-10 times
    lambda_max(A^T A)); in the zero matrix every column is dependent.
    Enumeration is capped at ``guard`` columns.
    """
    a = as_matrix(a, name="A")
    m, n = a.shape
    if n > guard:
        raise EnumerationTooLarge(f"n={n} exceeds enumeration guard {guard}")
    cut = gram_spectrum(a).cut
    top = min(n, m + 1)
    for card in range(1, top + 1):
        combos = itertools.combinations(range(n), card)
        while True:
            chunk = list(itertools.islice(combos, 4096))
            if not chunk:
                break
            idx = np.array(chunk, dtype=int)
            sub = np.moveaxis(a[:, idx], 1, 0)
            evs = np.linalg.eigvalsh(sub.transpose(0, 2, 1) @ sub)
            if np.any(evs[:, 0] <= cut):
                return card
    return n + 1


def max_recoverable_k(a: np.ndarray, guard: int = ENUMERATION_GUARD) -> int:
    """Largest k with 2k < spark(A): the uniqueness limit for k-row-sparse
    solutions."""
    return (spark(a, guard=guard) - 1) // 2
