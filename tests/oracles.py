"""Independent oracles used to cross-check the library's computations.

These deliberately avoid the code paths under test: eigenvalues come from the
characteristic polynomial (Faddeev-LeVerrier coefficients + bisection),
linear solves from a plain textbook elimination, sparsest solutions from
one-support-at-a-time least-squares re-enumerations, spark from a
one-subset-at-a-time rank test, l_{2,p} optima from the basic solutions,
null-space-constant maxima from dense sphere grids in coefficient space,
circuits from the SVD of each column subset, and the null-space-constant
ascent from a one-probe-at-a-time loop that scores each probe by the
public ``theta_max_over_S``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from jointsparse.generators import PortableRng
from jointsparse.norms import theta, theta_max_over_S


def charpoly_coefficients(mat: np.ndarray) -> list[float]:
    """Coefficients [c_0, ..., c_n] of det(tI - M), ascending powers of t,
    via the Faddeev-LeVerrier recursion."""
    m = np.asarray(mat, dtype=float)
    n = m.shape[0]
    coeffs = [0.0] * (n + 1)
    coeffs[n] = 1.0
    work = np.zeros_like(m)
    for i in range(1, n + 1):
        work = m @ work + coeffs[n - i + 1] * np.eye(n)
        coeffs[n - i] = -np.trace(m @ work) / i
    return coeffs


def _poly_eval(coeffs: list[float], t: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def charpoly_eigenvalues(mat: np.ndarray, tol: float = 1e-12) -> list[float]:
    """All real eigenvalues of a symmetric PSD matrix by char-poly bisection.

    Roots are isolated by scanning sign changes on a fine grid of
    [-margin, upper] and refined by bisection; multiple roots are collapsed
    within sqrt(tol).  Good enough for the small matrices in the tests.
    """
    m = np.asarray(mat, dtype=float)
    n = m.shape[0]
    coeffs = charpoly_coefficients(m)
    upper = float(np.max(np.sum(np.abs(m), axis=1))) + 1.0   # Gershgorin cap
    grid = np.linspace(-1e-6 * upper, upper, 200001)
    vals = [_poly_eval(coeffs, t) for t in grid]
    roots: list[float] = []
    for i in range(len(grid) - 1):
        a, b = grid[i], grid[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            roots.append(float(a))
            continue
        if fa * fb < 0.0:
            lo, hi, flo = a, b, fa
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                fm = _poly_eval(coeffs, mid)
                if fm == 0.0 or (hi - lo) < tol * max(1.0, abs(mid)):
                    lo = hi = mid
                    break
                if flo * fm < 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            roots.append(0.5 * (lo + hi))
    merged: list[float] = []
    for root in sorted(roots):
        if merged and abs(root - merged[-1]) < math.sqrt(tol) * max(1.0, abs(root)):
            continue
        merged.append(root)
    return merged


def gauss_solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Textbook partial-pivot elimination, independent of numpy.linalg."""
    a = [list(map(float, row)) for row in np.asarray(mat)]
    b = [list(map(float, row)) for row in np.atleast_2d(np.asarray(rhs, dtype=float).T).T]
    n = len(a)
    for col in range(n):
        piv = max(range(col, n), key=lambda i: abs(a[i][col]))
        if abs(a[piv][col]) == 0.0:
            raise ZeroDivisionError("singular")
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        for i in range(col + 1, n):
            f = a[i][col] / a[col][col]
            for j in range(col, n):
                a[i][j] -= f * a[col][j]
            for j in range(len(b[0])):
                b[i][j] -= f * b[col][j]
    x = [[0.0] * len(b[0]) for _ in range(n)]
    for i in range(n - 1, -1, -1):
        for j in range(len(b[0])):
            acc = b[i][j]
            for col in range(i + 1, n):
                acc -= a[i][col] * x[col][j]
            x[i][j] = acc / a[i][i]
    return np.array(x)


def min_norm_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A^T (A A^T)^{-1} B through the elimination oracle."""
    a = np.asarray(a, dtype=float)
    return a.T @ gauss_solve(a @ a.T, np.asarray(b, dtype=float))


def exhaustive_l20(a: np.ndarray, b: np.ndarray, k_max: int, tol: float = 1e-8):
    """Re-enumerate supports one at a time with per-support lstsq.

    Returns (cardinality, list of feasible supports at that cardinality,
    best X) or None if nothing feasible up to k_max.  Feasibility uses the
    same residual rule as the implementation but a different solve path.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[1]
    ref = max(1.0, float(np.linalg.norm(b)))
    if float(np.linalg.norm(b)) <= tol * ref:
        return 0, [()], np.zeros((n, b.shape[1]))
    for card in range(1, k_max + 1):
        feas = []
        for sup in itertools.combinations(range(n), card):
            y, *_ = np.linalg.lstsq(a[:, sup], b, rcond=None)
            resid = float(np.linalg.norm(a[:, sup] @ y - b))
            if resid <= tol * ref:
                x = np.zeros((n, b.shape[1]))
                x[list(sup)] = y
                feas.append((float(np.linalg.norm(y)), sup, x))
        if feas:
            feas.sort(key=lambda t: (t[0], t[1]))
            return card, [f[1] for f in feas], feas[0][2]
    return None


def l20_every_support(a: np.ndarray, b: np.ndarray, k_max: int):
    """``l20_solve`` by the textbook loop: one ``lstsq`` per support.

    Sizes 1..k_max in turn, every support of a size with plain
    ``itertools``; a support is feasible when its least-squares residual is
    at most 1e-8 * max(1, ||B||_F), and the first size with a feasible
    support wins.  Of its feasible supports, those whose Frobenius norms
    agree with the smallest to 1e-12 (relative) tie, and the
    lexicographically first of them wins.  ``unique`` holds when exactly one
    support of that size is feasible and its own Gram matrix's smallest
    eigenvalue (a 2-D ``eigvalsh``) clears 1e-10 * lambda_max(A^T A).

    Returns None when no support of up to k_max columns is feasible, else
    the winner as (support, unique, objective, X): the 1-based rows of X
    whose norm exceeds 1e-8, their count as a float, and X.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[1]
    tol = 1e-8 * max(1.0, float(np.linalg.norm(b)))
    if float(np.linalg.norm(b)) <= tol:
        return (), True, 0.0, np.zeros((n, b.shape[1]))
    cut = 1e-10 * max(float(np.linalg.eigvalsh(a.T @ a)[-1]), 0.0)
    for card in range(1, k_max + 1):
        feas = []
        for sup in itertools.combinations(range(n), card):
            sub = a[:, sup]
            y = np.linalg.lstsq(sub, b, rcond=None)[0]
            if float(np.linalg.norm(sub @ y - b)) <= tol:
                feas.append((float(np.linalg.norm(y)), sup, y))
        if feas:
            least = min(frob for frob, *_ in feas)
            _, sup, y = min((t for t in feas if t[0] <= least * (1 + 1e-12)),
                            key=lambda t: t[1])
            sub = a[:, sup]
            x = np.zeros((n, b.shape[1]))
            x[list(sup)] = y
            unique = len(feas) == 1 and bool(np.linalg.eigvalsh(sub.T @ sub)[0] > cut)
            rows = tuple(int(i) + 1 for i in np.flatnonzero(np.linalg.norm(x, axis=1) > 1e-8))
            return rows, unique, float(len(rows)), x
    return None


def spark_bottom_up(a: np.ndarray) -> tuple[int, int]:
    """Spark by the textbook loop, and the number of subsets it decomposed.

    Every column subset of size 1, 2, ... up to min(n, m + 1) gets its own
    2-D ``eigvalsh``; the first subset whose smallest Gram eigenvalue is at
    or below A's rank cut (1e-10 times lambda_max(A^T A)) ends the loop.
    n + 1 when no subset is dependent.
    """
    a = np.asarray(a, dtype=float)
    m, n = a.shape
    cut = 1e-10 * max(float(np.linalg.eigvalsh(a.T @ a)[-1]), 0.0)
    decomposed = 0
    for card in range(1, min(n, m + 1) + 1):
        for sup in itertools.combinations(range(n), card):
            sub = a[:, sup]
            decomposed += 1
            if np.linalg.eigvalsh(sub.T @ sub)[0] <= cut:
                return card, decomposed
    return n + 1, decomposed


def basic_solutions(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Every basic solution of A X = B, stacked as (count, n, r).

    Each m-column support S gives X_S = A_S^{-1} B through the elimination
    oracle, zero outside S.  Supports where elimination meets a zero pivot,
    or whose solution leaves a residual above 1e-9 max(1, ||B||), are
    singular to working precision and skipped.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = a.shape
    limit = 1e-9 * max(1.0, float(np.linalg.norm(b)))
    out = []
    for sup in itertools.combinations(range(n), m):
        try:
            y = gauss_solve(a[:, sup], b)
        except ZeroDivisionError:
            continue
        if float(np.linalg.norm(a[:, sup] @ y - b)) <= limit:
            x = np.zeros((n, b.shape[1]))
            x[list(sup)] = y
            out.append(x)
    return np.array(out)


def basic_optimum(xs: np.ndarray, p: float, zero_tol: float = 0.0) -> float:
    """Smallest sum_i ||x_i||_2^p over a stack of basic solutions (count, n, r),
    rows at or below *zero_tol* counted as zero.

    For one column and p <= 1 the objective is concave on each orthant, so
    its minimum over {A x = b} sits at a basic solution and this is the exact
    optimum (Ge, Jiang & Ye, Math. Program. 2011).  For r >= 2 it is the
    objective of a feasible point, an upper bound on the optimum.
    """
    rows = np.sqrt(np.sum(xs * xs, axis=2))
    rows[rows <= zero_tol] = 0.0
    return float(np.min(np.sum(rows ** p, axis=1)))


def sphere_grid(dim: int, per_axis: int) -> np.ndarray:
    """Points covering the unit sphere S^(dim-1) via spherical-angle grids."""
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    angles = [np.linspace(0.0, math.pi, per_axis) for _ in range(dim - 2)]
    angles.append(np.linspace(0.0, 2.0 * math.pi, 2 * per_axis, endpoint=False))
    mesh = np.meshgrid(*angles, indexing="ij")
    flat = [m.ravel() for m in mesh]
    pts = np.empty((flat[0].size, dim))
    sin_prod = np.ones_like(flat[0])
    for i in range(dim - 1):
        pts[:, i] = sin_prod * np.cos(flat[i])
        sin_prod = sin_prod * np.sin(flat[i])
    pts[:, dim - 1] = sin_prod
    return pts


def theta_profile_max(p: float, rownorms: np.ndarray, k: int) -> np.ndarray:
    """Vectorized top-k theta over batches of row-norm profiles (P, n)."""
    srt = np.sort(rownorms, axis=1)[:, ::-1]
    if p == 0.0:
        pos = (srt > 1e-8).astype(float)
        num = np.sum(pos[:, :k], axis=1)
        den = np.sum(pos[:, k:], axis=1)
    else:
        pw = srt ** p
        num = np.sum(pw[:, :k], axis=1)
        den = np.sum(pw[:, k:], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(num == 0.0, 0.0, np.where(den == 0.0, np.inf, num / den))
    return out


def nsc_sphere_oracle(a: np.ndarray, r: int, k: int, p: float, per_axis: int = 400) -> float:
    """Best theta over a dense sphere grid in kernel-coefficient space."""
    a = np.asarray(a, dtype=float)
    evals, evecs = np.linalg.eigh(a.T @ a)
    null = evecs[:, evals <= 1e-10 * max(evals[-1], 0.0)]
    d = null.shape[1]
    pts = sphere_grid(d * r, per_axis)
    coeffs = pts.reshape(-1, d, r)
    best = -math.inf
    chunk = 20000
    for start in range(0, coeffs.shape[0], chunk):
        cs = coeffs[start:start + chunk]
        xs = np.einsum("nd,pdr->pnr", null, cs)
        rn = np.sqrt(np.sum(xs * xs, axis=2))
        vals = theta_profile_max(p, rn, k)
        best = max(best, float(np.max(vals)))
    return best


def circuit_oracle(a: np.ndarray) -> dict[tuple[int, ...], np.ndarray]:
    """The circuits of A (m x n) by the textbook route: for every (m + 1)-subset
    C, one at a time with plain ``itertools``, the SVD of A_C.  C counts
    when its m-th singular value squared clears A's rank cut (1e-10 times
    lambda_max(A^T A)); its circuit is the right singular vector of the
    zero singular value, spread onto the n columns.  Returns {C: vector}."""
    a = np.asarray(a, dtype=float)
    m, n = a.shape
    cut = 1e-10 * max(float(np.linalg.eigvalsh(a.T @ a)[-1]), 0.0)
    out = {}
    for sub in itertools.combinations(range(n), m + 1):
        _, sigma, vt = np.linalg.svd(a[:, sub])
        if sigma[m - 1] ** 2 > cut:
            x = np.zeros(n)
            x[list(sub)] = vt[m]
            out[sub] = x
    return out


def nsc_serial_ascent(a: np.ndarray, k: int, p: float, seed: int, restarts: int,
                      warm_starts=(), candidates=(), zero_tol: float = 1e-8,
                      wins: list | None = None):
    """``nsc_estimate``'s ascent on kernel vectors, one start and one probe
    at a time.

    N is Ker(A)'s basis: the eigenvectors of A^T A (``eigh``) whose
    eigenvalues, clipped at 0, are at or below 1e-10 lambda_max, each sign
    fixed so the column's first largest-magnitude entry is positive, stored
    row major (the layout decides which BLAS kernel forms N c).  The
    starts are the unit vectors e_j, each warm start (d coefficients, flat
    or as a (d, 1) matrix), then ``restarts`` ``PortableRng(seed)`` draws
    of d normals, each normalized; one that is zero after that is skipped,
    but keeps its index.  A start scores c, a (d, 1) matrix, by
    ``theta_max_over_S`` on N c.  For each scale, up to 40 sweeps over the
    entries of c try each step from the entry's current value; a probe
    that is not c = 0 is scored, and kept when it beats the start's value.
    c is renormalized after each sweep; the start leaves the scale after a
    sweep without a gain and stops once its value is +inf.  The best start
    has the largest value, then the smaller support, then the lower index.
    Then each of ``candidates``, kernel vectors (n, 1), is scored as it is
    and replaces the winner, as start -1, when it is better by that order.

    Returns (value, 1-based support, certificate x, probes, start) as
    ``nsc_estimate`` reports them: x (n, 1) is the winner
    normalized, and the value is ``theta`` of x on the support.  A ``wins``
    list gets (start, sweep, place) for every kept probe: the start's
    sweeps count from 0 across its scales, and a probe's place in its
    sweep is 4 * entry + step index, c = 0 probes included.
    """
    a = np.array(a, dtype=float, order="C")
    evals, evecs = np.linalg.eigh(a.T @ a)
    evals = np.maximum(evals, 0.0)
    basis = np.ascontiguousarray(evecs[:, evals <= 1e-10 * evals[-1]])
    for j in range(basis.shape[1]):
        if basis[np.argmax(np.abs(basis[:, j])), j] < 0:
            basis[:, j] = -basis[:, j]
    d = basis.shape[1]
    rng = PortableRng(seed)
    starts = [np.zeros((d, 1)) for _ in range(d)]
    for j, c in enumerate(starts):
        c[j, 0] = 1.0
    starts += [np.asarray(w, dtype=float).reshape(d, 1) for w in warm_starts]
    starts += [rng.normal((d, 1)) for _ in range(restarts)]

    def score(c):
        return theta_max_over_S(p, basis @ c, k, zero_tol)

    best, probes = None, 0
    for index, c in enumerate(starts):
        if np.linalg.norm(c) > 0:
            c = c / np.linalg.norm(c)
        if not np.linalg.norm(c) > 0:
            continue
        val, sup = score(c)
        probes += 1
        sweep = 0
        for scale in (1.0, 0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3, 3e-4, 1e-4):
            if val == math.inf:
                break
            for _ in range(40):
                improved = False
                for j in range(c.size):
                    for s, step in enumerate((-1.0, -0.5, 0.5, 1.0)):
                        probe = c.copy()
                        probe.flat[j] = c.flat[j] + scale * step
                        if not probe.any():
                            continue
                        probe_val, probe_sup = score(probe)
                        probes += 1
                        if probe_val > val:
                            c, val, sup, improved = probe, probe_val, probe_sup, True
                            if wins is not None:
                                wins.append((index, sweep, 4 * j + s))
                sweep += 1
                if np.linalg.norm(c) > 0:
                    c = c / np.linalg.norm(c)
                if not improved or val == math.inf:
                    break
        if best is None or val > best[0] or (val == best[0] and sup.indices < best[1].indices):
            best = val, sup, basis @ c, index
    for x in candidates:
        val, sup = theta_max_over_S(p, x, k, zero_tol)
        if val > best[0] or (val == best[0] and sup.indices < best[1].indices):
            best = val, sup, x, -1
    _, sup, x, index = best
    x = x / np.linalg.norm(x)
    return theta(p, x, sup, zero_tol), sup.indices, x, probes, index
