"""Analytic recovery thresholds and empirical inequality checks.

The centerpiece is :func:`pstar`: for a full-row-rank A and measurements B it
returns the exponent below which the l_{2,p} relaxation provably shares its
minimizer with the row-counting problem.  The threshold is the max of a
single decreasing function f evaluated at three sparsity levels — the
observed support size of the minimum-norm solution and two dimension-derived
caps — clamped into (0, 1].

The *_check functions exercise inequalities on concrete data: lemma1_check
verifies a norm interpolation bound, lemma2_check samples restricted-spectrum
behavior and reports violations as data (it never asserts; the bounds it
probes can genuinely fail off the full spectrum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .generators import PortableRng
from .linalg import GramSpectrum, as_matrix, gram_spectrum, json_float
from .norms import DEFAULT_ZERO_TOL, _power_sum, _row_norms, check_count, check_grid
from .norms import check_real, check_zero_tol

SQRT2_PLUS_1 = math.sqrt(2.0) + 1.0


def f_threshold(x: float, lam: float, n: int) -> float:
    """The threshold function f(x) = ln(1 + 1/x) / ln(((sqrt2+1)/4) (lam n - n - 2 lam + 3)).

    Decreasing in x.  Returns +inf when the denominator is <= 0 (the bound
    then never binds and callers clamp to 1); raises DomainError when the
    log argument lam*n - n - 2*lam + 3 is not positive.
    """
    x = check_real("x", x, 1)
    lam = check_real("lam", lam, 1)
    check_count("n", n, 3)
    arg = lam * n - n - 2.0 * lam + 3.0
    if arg <= 0.0:
        raise DomainError(f"lam*n - n - 2*lam + 3 = {arg} is not positive")
    den = math.log(SQRT2_PLUS_1) + math.log(arg) - math.log(4.0)
    if den <= 0.0:
        return math.inf
    return (math.log(x + 1.0) - math.log(x)) / den


def corollary1_bounds(m: int, n: int) -> tuple[int, int]:
    """The two dimension-derived sparsity caps: (floor(m/2), floor((n-2.5)/2)+1)."""
    check_count("m", m, 2)
    check_count("n", n, 3)
    return m // 2, int(math.floor((n - 2.5) / 2.0)) + 1


@dataclass(frozen=True, slots=True)
class PstarReport:
    """The equivalence threshold and everything that went into it.

    ``f_values`` holds f at (s_star, k_bound_m, k_bound_n) in that order;
    ``p_star = min(1, max(f_values))`` and ``clamped`` records whether the
    clamp (or an infinite f) fired.
    """

    lam: float
    s_star: int
    k_bound_m: int
    k_bound_n: int
    f_values: tuple[float, float, float]
    p_star: float
    clamped: bool
    zero_tol: float


def pstar_report_to_json(rep: PstarReport) -> dict:
    return {
        "lam": rep.lam,
        "s_star": rep.s_star,
        "k_bound_m": rep.k_bound_m,
        "k_bound_n": rep.k_bound_n,
        "f_values": [json_float(v) for v in rep.f_values],
        "p_star": rep.p_star,
        "clamped": rep.clamped,
        "zero_tol": rep.zero_tol,
    }


def pstar(a: np.ndarray | GramSpectrum, b: np.ndarray,
          zero_tol: float = DEFAULT_ZERO_TOL) -> PstarReport:
    """Equivalence threshold p*(A, B) for the instance A X = B.

    lam is the ratio of extreme positive eigenvalues of A^T A; s_star is the
    row support size of the minimum-norm solution at ``zero_tol``.  Requires
    m >= 2, n >= 3, and full row rank (RankDeficient otherwise).  When B = 0
    the s_star term is vacuous (+inf) and the threshold clamps to 1.  *a*
    is A or its :func:`linalg.gram_spectrum` (``MmvProblem.spectrum``, say),
    which is then not decomposed again.
    """
    spec = gram_spectrum(a)
    b = as_matrix(b, name="B")
    m, n = spec.a.shape
    if m < 2 or n < 3:
        raise DomainError(f"need m >= 2 and n >= 3, got shape {spec.a.shape}")
    lam = spec.summary().ratio
    x0 = spec._min_norm(b)
    check_zero_tol(zero_tol)
    s_star = int(np.count_nonzero(_row_norms(x0) > zero_tol))
    k_m, k_n = corollary1_bounds(m, n)
    f_s = f_threshold(s_star, lam, n) if s_star >= 1 else math.inf
    f_m = f_threshold(k_m, lam, n)
    f_n = f_threshold(k_n, lam, n)
    raw = max(f_s, f_m, f_n)
    clamped = not math.isfinite(raw) or raw > 1.0
    return PstarReport(
        lam=lam,
        s_star=s_star,
        k_bound_m=k_m,
        k_bound_n=k_n,
        f_values=(f_s, f_m, f_n),
        p_star=min(1.0, raw),
        clamped=clamped,
        zero_tol=float(zero_tol),
    )


def theorem4_bound(p: float, n: int, k: int, lam: float) -> float:
    """Closed-form cap on the null-space constant at exponent p.

    M = [ (sqrt2+1)/2 * ( (lam-1)(n-2-k)/(2k) + (lam-1)/(2 sqrt k) + 1/(2k) )
          * (k/(k+1))^(1/p) ]^p,  valid for k >= 1 and n > k + 2.
    """
    p = check_real("p", p, 0, 1, strict=True)
    check_count("k", k, 1)
    check_count("n", n, k + 3)                  # the bound needs n > k + 2
    lam = check_real("lam", lam, 1)
    inner = (SQRT2_PLUS_1 / 2.0) * (
        (lam - 1.0) * (n - 2.0 - k) / (2.0 * k)
        + (lam - 1.0) / (2.0 * math.sqrt(k))
        + 1.0 / (2.0 * k)
    )
    return (inner * (k / (k + 1.0)) ** (1.0 / p)) ** p


# ---------------------------------------------------------------------------
# empirical inequality checks


def lemma1_check(x: np.ndarray, p_grid) -> bool:
    """Verify (sum_i ||row_i||^p)^(1/p) <= s^(1/p - 1/2) ||X||_F on a grid of p.

    s counts the exactly nonzero rows.  Allows 1e-10 relative slack; True
    means the inequality held at every grid point.
    """
    x = as_matrix(x, name="X")
    grid = check_grid("p_grid", p_grid, 0, 1, strict=True)
    fro = float(np.linalg.norm(x))
    if fro == 0.0:
        raise DomainError("X must be nonzero")
    norms = _row_norms(x)                       # once for the whole grid
    s = int(np.count_nonzero(norms > 0.0))
    for q in grid:
        lhs = float(_power_sum(norms, q)) ** (1.0 / q)
        rhs = s ** (1.0 / q - 0.5) * fro
        if lhs > rhs * (1.0 + 1e-10):
            return False
    return True


@dataclass(frozen=True)
class CheckReport:
    """Sampled evidence about restricted-spectrum inequalities.

    ``violations`` lists every sampled case that broke a bound (these are
    data, not errors: the probed inequalities need not hold for all
    supports).  rayleigh_min/max summarize ||A X||^2 / ||X||^2 over the
    sparse draws; cross_max is the largest normalized inner product seen
    between images of disjointly supported pairs.
    """

    trials: int
    seed: int
    k: int
    r: int
    lambda_min_plus: float
    lambda_max: float
    cross_bound: float
    rayleigh_min: float
    rayleigh_max: float
    cross_max: float
    violations: tuple[dict, ...]


def lemma2_check(a: np.ndarray, k: int, trials: int, seed: int, r: int = 2) -> CheckReport:
    """Sample two restricted-spectrum claims and report what random data says.

    Per trial (an independent Philox stream keyed (seed, trial+1), so trials
    could run concurrently with identical output):

    * draw X with at most 2k nonzero rows and test
      lambda_min_plus <= ||A X||_F^2 / ||X||_F^2 <= lambda_max;
    * draw disjointly supported X1, X2 (each at most k rows) and test
      |<A X1, A X2>| <= (lambda_max - lambda_min_plus)/2 * ||X1||_F ||X2||_F.

    Breaches land in ``violations`` with the support(s) and values; nothing
    is raised for them.
    """
    a = as_matrix(a, name="A")
    m, n = a.shape
    check_count("k", k, 1, n // 2)
    check_count("trials", trials, 1)
    check_count("r", r, 1)
    summary = gram_spectrum(a).summary()
    lo, hi = summary.lambda_min_plus, summary.lambda_max
    cross_bound = (hi - lo) / 2.0
    slack = 1e-9
    ray_min, ray_max, cross_max = math.inf, -math.inf, -math.inf
    violations: list[dict] = []
    for trial in range(trials):
        rng = PortableRng(seed, stream=trial + 1)
        size = 1 + rng.integer_below(min(2 * k, n))
        support = rng.subset(n, size)
        x = np.zeros((n, r))
        x[list(support)] = rng.normal((size, r))
        ratio = float(np.sum((a @ x) ** 2) / np.sum(x * x))
        ray_min = min(ray_min, ratio)
        ray_max = max(ray_max, ratio)
        if ratio < lo * (1.0 - slack):
            violations.append({"trial": trial, "check": "rayleigh_low",
                               "value": ratio, "bound": lo,
                               "support": [i + 1 for i in support]})
        if ratio > hi * (1.0 + slack):
            violations.append({"trial": trial, "check": "rayleigh_high",
                               "value": ratio, "bound": hi,
                               "support": [i + 1 for i in support]})
        s1 = 1 + rng.integer_below(min(k, n - 1))
        s2 = 1 + rng.integer_below(min(k, n - s1))
        both = rng.subset(n, s1 + s2)
        sup1, sup2 = both[:s1], both[s1:]
        x1 = np.zeros((n, r))
        x2 = np.zeros((n, r))
        x1[list(sup1)] = rng.normal((s1, r))
        x2[list(sup2)] = rng.normal((s2, r))
        inner = abs(float(np.sum((a @ x1) * (a @ x2))))
        scaled = inner / (float(np.linalg.norm(x1)) * float(np.linalg.norm(x2)))
        cross_max = max(cross_max, scaled)
        if scaled > cross_bound * (1.0 + slack) + 1e-12:
            violations.append({"trial": trial, "check": "cross",
                               "value": scaled, "bound": cross_bound,
                               "support_1": [i + 1 for i in sup1],
                               "support_2": [i + 1 for i in sup2]})
    return CheckReport(
        trials=trials,
        seed=seed,
        k=k,
        r=r,
        lambda_min_plus=lo,
        lambda_max=hi,
        cross_bound=cross_bound,
        rayleigh_min=ray_min,
        rayleigh_max=ray_max,
        cross_max=cross_max,
        violations=tuple(violations),
    )
