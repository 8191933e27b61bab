"""Row-wise mixed norms and support ratios for multichannel matrices.

The central objects: the l_{2,p} quasi-norm (sum of p-th powers of row
2-norms, p in (0, 1]), the row-counting l_{2,0} "norm" (the length of a
``row_support``), and the ratio theta(p, X, S) comparing mass inside an
index set S against mass outside it.

Each public function validates its own inputs once and then calls one of
the unchecked cores ``_row_norms``, ``_power_sum`` and ``_theta``; the
package's internal paths call the cores directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .linalg import as_matrix

#: Rows with 2-norm at or below this count as zero rows.
DEFAULT_ZERO_TOL = 1e-8


@dataclass(frozen=True, slots=True)
class RowSupport:
    """A validated, ascending set of 1-based row indices.

    ``n`` is the row count of the matrix the indices refer to.
    """

    indices: tuple[int, ...]
    n: int

    def __post_init__(self):
        check_count("RowSupport: n", self.n, 1)
        idx = tuple(self.indices) if np.iterable(self.indices) else None  # a generator once
        if idx is None or any(
                (not isinstance(i, (int, np.integer))) or isinstance(i, bool) for i in idx):
            raise DomainError(
                f"RowSupport: indices must be a sequence of integers, got {self.indices!r}")
        idx = tuple(int(i) for i in idx)
        object.__setattr__(self, "indices", idx)
        if any(i < 1 or i > self.n for i in idx):
            raise DomainError(f"RowSupport: indices must lie in 1..{self.n}, got {idx}")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise DomainError(f"RowSupport: indices must be strictly ascending, got {idx}")

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, i) -> bool:
        return i in self.indices

    def __iter__(self):
        return iter(self.indices)

    def mask(self) -> np.ndarray:
        """Boolean row mask of length n (0-based positions)."""
        m = np.zeros(self.n, dtype=bool)
        for i in self.indices:
            m[i - 1] = True
        return m


def _row_norms(x: np.ndarray) -> np.ndarray:
    """The 2-norms along the last axis of x, unchecked: (n,) for one X
    (n, r), (P, n) for a stack of them (P, n, r).

    Below 8 columns the squares are added in column order, which is what
    ``np.add.reduce`` does, bit for bit, at about half its cost; from 8 on
    numpy adds in unrolled blocks, so the reduce itself runs there.
    """
    sq = x * x
    if sq.shape[-1] >= 8:
        return np.sqrt(np.add.reduce(sq, axis=-1))
    total = sq[..., 0]
    for col in range(1, sq.shape[-1]):
        total = total + sq[..., col]
    return np.sqrt(total)


def _power_sum(norms: np.ndarray, p: float):
    """sum_i norms_i^p along the last axis, unchecked: the l_{2,p}
    objective of the row-norm profile(s) *norms*."""
    return np.add.reduce(norms ** p, axis=-1)


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row."""
    return _row_norms(as_matrix(x, name="X"))


def check_count(name: str, value, least: int, most: int | None = None) -> None:
    """Raise DomainError unless *value* is an integer in least..most (no
    upper bound when *most* is None).  A bool is refused (``True`` would
    count as 1), and so is a float, even a whole one: ``range`` and
    :class:`PortableRng` reject floats."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if most is None and value < least:
        raise DomainError(f"{name} must be >= {least}, got {value}")
    if most is not None and not least <= value <= most:
        raise DomainError(f"{name} must lie in {least}..{most}, got {value}")


def check_seed(name: str, value) -> None:
    """Raise DomainError unless *value* can key a 64-bit Philox stream: an
    integer in 0..2**64 - 1.  Seeds and stream numbers both key one."""
    check_count(name, value, 0, 2 ** 64 - 1)


def check_real(name: str, value, least: float = -math.inf, most: float = math.inf, *,
               strict: bool = False) -> float:
    """Return *value* as a float, or raise DomainError unless it is a finite
    real in the interval from *least* to *most*, both ends included except
    *least* when *strict* (p > 0, say).  A real is an ``int`` or a ``float``,
    numpy's included; a bool (``True`` would pass as 1.0), a string, a
    complex, a ``Fraction`` and a 0-d array are not, and neither is NaN,
    which fails every comparison."""
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:                   # an int beyond the float range
        real = math.inf
    if not (math.isfinite(real) and real <= most and (least < real if strict else least <= real)):
        if most < math.inf:
            bounds = f"lie in {'(' if strict else '['}{least}, {most}]"
        elif least > -math.inf:
            bounds = f"be finite and {'>' if strict else '>='} {least}"
        else:
            bounds = "be finite"
        raise DomainError(f"{name} must {bounds}, got {value}")
    return real


def check_grid(name: str, values, least: float = -math.inf, most: float = math.inf, *,
               strict: bool = False) -> list[float]:
    """*values* as a list of floats, each checked by :func:`check_real` as
    one of the "*name* values"; DomainError unless *values* is a non-empty
    iterable other than a string (a p grid, Vandermonde nodes)."""
    if isinstance(values, (str, bytes)) or not np.iterable(values):
        raise DomainError(f"{name} must be a non-empty sequence of reals, got {values!r}")
    grid = [check_real(f"{name} values", q, least, most, strict=strict) for q in values]
    if not grid:
        raise DomainError(f"{name} must be non-empty")
    return grid


def check_zero_tol(zero_tol: float) -> None:
    """Raise DomainError unless *zero_tol* is a finite real >= 0.  NaN and
    +inf fail: every comparison with NaN is false and +inf exceeds every
    row norm, so either would class every row zero."""
    check_real("zero_tol", zero_tol, 0)


def row_support(x: np.ndarray, zero_tol: float = DEFAULT_ZERO_TOL) -> RowSupport:
    """Indices (1-based) of rows whose 2-norm exceeds zero_tol."""
    check_zero_tol(zero_tol)
    norms = row_norms(x)
    idx = tuple(int(i) + 1 for i in np.nonzero(norms > zero_tol)[0])
    return RowSupport(indices=idx, n=int(norms.size))


def mixed_norm_2p(x: np.ndarray, p: float) -> float:
    """The l_{2,p} objective: sum_i ||row_i||_2^p for p in (0, 1].

    This is the p-th power form (no outer 1/p root); it is the quantity the
    solvers minimize and report.
    """
    p = check_real("p", p, 0, 1, strict=True)
    return float(_power_sum(row_norms(x), p))


def _check_theta_args(p: float, x: np.ndarray) -> tuple[float, np.ndarray]:
    p = check_real("p", p, 0, 1)
    norms = row_norms(x)
    if not np.any(norms > 0.0):
        raise DomainError("theta is undefined for the zero matrix")
    return p, norms


def _contributions(norms: np.ndarray, peak, p: float, zero_tol: float) -> np.ndarray:
    """Each row's term in theta, for one row-norm profile (n,) whose largest
    norm is ``peak``, or a batch of them laid out (P, n) with ``peak``
    (P, 1) or (n, P) with ``peak`` (P,)."""
    if p == 0.0:
        return (norms > zero_tol).astype(float)
    # Normalize by a power of two before exponentiating: scaling X by 2**j
    # then shifts every row norm exactly, so the ratio is bit-identical
    # under such scalings instead of drifting by per-row rounding in pow.
    # The scale is 2**floor(log2(peak)), read exactly off the exponent.
    return (norms / np.ldexp(1.0, np.frexp(peak)[1] - 1)) ** p


def theta(p: float, x: np.ndarray, s: RowSupport, zero_tol: float = DEFAULT_ZERO_TOL) -> float:
    """Mass ratio of X inside S versus outside S.

    For p > 0 this is sum_{i in S} ||row_i||^p / sum_{j not in S} ||row_j||^p.
    For p = 0 each row contributes 1 iff its norm exceeds zero_tol, so the
    ratio becomes a count ratio.  Returns +inf when the denominator vanishes
    with a positive numerator, and 0.0 whenever the numerator vanishes.
    """
    p, norms = _check_theta_args(p, x)
    check_zero_tol(zero_tol)
    if s.n != norms.size:
        raise DomainError(f"support is over n={s.n} rows but X has {norms.size}")
    return _theta(norms, s.mask(), p, zero_tol)


def _theta(norms: np.ndarray, mask: np.ndarray, p: float, zero_tol: float) -> float:
    """theta on one row-norm profile (n,) that is not all zero, S being the
    rows where the boolean *mask* is set; nothing is validated."""
    contrib = _contributions(norms, norms.max(), p, zero_tol)
    num = float(np.add.reduce(contrib[mask]))
    den = float(np.add.reduce(contrib[~mask]))
    if num == 0.0:
        return 0.0
    if den == 0.0:
        return float("inf")
    return num / den


def theta_top_k(
    norms: np.ndarray, k: int, p: float, zero_tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """theta on the best support of each row-norm profile in a batch.

    ``norms`` is (P, n), one profile of row 2-norms per row; returns the
    values (P,) and the 0-based rows of each best support (P, k), not
    sorted: sort a row for its support in ascending order.  The best
    support holds the k largest norms, lower index first on ties, as one
    stable argsort ranks them.

    Each value is bit-identical to ``theta`` of a matrix with those row
    norms on that support, whose masked sums add their terms in ascending
    row order; numpy adds fewer than 8 terms along the last axis in that
    order and more in unrolled blocks.  When both sides hold fewer than 8
    rows and there are several profiles, the terms are laid out (n, P)
    with the other side's rows zeroed and each sum runs down the outer
    axis, one row of terms after another, so the zeros add nothing and
    nothing is sorted.  Otherwise (and for a single profile, whose (n, 1)
    layout numpy sums in blocks) each side's rows are sorted into
    ascending order, gathered and summed along the last axis, as
    ``theta`` does.  An all-zero profile scores 0.0, with no warning.
    Nothing is validated: callers pass 1 <= k < n and p in [0, 1].
    """
    count, n = norms.shape
    order = (-norms).argsort(axis=1, kind="stable")
    top = order[:, :k]
    if count == 1 or k >= 8 or n - k >= 8:
        rows = np.arange(count)[:, None]
        contrib = _contributions(norms, norms[rows, order[:, :1]], p, zero_tol)
        top.sort(axis=1)                 # both sorts work on views of order
        order[:, k:].sort(axis=1)
        terms = contrib[rows, order]
        num = np.add.reduce(terms[:, :k], axis=1)
        den = np.add.reduce(terms[:, k:], axis=1)
    else:
        lay = np.ascontiguousarray(norms.T)                 # (n, P)
        contrib = _contributions(lay, np.maximum.reduce(lay, axis=0), p, zero_tol)
        inside = np.zeros(n * count, dtype=bool)
        inside[(top * count + np.arange(count)[:, None]).ravel()] = True
        inside = inside.reshape(n, count)
        num = np.add.reduce(np.where(inside, contrib, 0.0), axis=0)
        den = np.add.reduce(np.where(inside, 0.0, contrib), axis=0)
    value = np.where(num == 0.0, 0.0, np.inf)           # inf: den vanishes
    return np.divide(num, den, out=value, where=den != 0.0), top


def theta_max_over_S(
    p: float, x: np.ndarray, k: int, zero_tol: float = DEFAULT_ZERO_TOL
) -> tuple[float, RowSupport]:
    """Maximize theta(p, X, S) over index sets with |S| <= k.

    The maximum is attained by the k rows of largest 2-norm (lower index
    first on ties); returns the value together with that witnessing support.
    """
    p, norms = _check_theta_args(p, x)
    check_zero_tol(zero_tol)
    n = norms.size
    check_count("k", k, 1, n - 1)
    values, top = theta_top_k(norms[None, :], k, p, zero_tol)
    return float(values[0]), RowSupport(indices=tuple(sorted(int(i) + 1 for i in top[0])), n=n)
