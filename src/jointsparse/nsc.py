"""Estimation of the joint null-space constant of a matrix.

The joint constant h(p, A, r, k) is the supremum of theta(p, X, S) over
nonzero X with all r columns in Ker(A) and |S| <= k.  It does not depend
on r.  Take such an X, any S and g ~ N(0, I_r): Xg lies in Ker(A), and
E|<x_i, g>|^p = E|Z|^p ||x_i||^p for every row i and p in (0, 1], while at
p = 0 Xg has the nonzero rows of X for almost every g.  Averaging the
r = 1 inequality sum_S |(Xg)_i|^p <= h(p, A, 1, k) sum_{S^c} |(Xg)_i|^p
over g gives theta(p, X, S) <= h(p, A, 1, k), and x e_1^T attains every
r = 1 value: the MMV/SMV null-space equivalence of Lai & Liu (*ACHA*
2011).  So this module computes h(p, A, k) = h(p, A, 1, k) on kernel
vectors x, and no function here takes r: a certificate is one kernel
vector, normalized, (n, 1).  A report on n x r matrices writes it as
[x, 0, ..., 0] (:func:`estimate_to_json`), whose theta is the value bit
for bit: the zero columns add exact zeros to every squared row norm.

Every exact case is the best of a set of vertices, scored in batches of
``linalg._CHUNK`` rows.  At nullity 1 the kernel is one line, and its
generator is the only vertex: the best vertex is exact at every p.  For
larger nullity, and at most ``linalg.ENUMERATION_GUARD`` columns, the
vertices are the circuits (``linalg.circuits``) of a row basis of A: A
itself at full row rank, else the orthonormal eigenvectors of A^T A
above A's rank cut.  A row basis has A's kernel, so its circuits are A's,
the elementary vectors of Ker(A) (Rockafellar 1969) and the vertices of
the arrangement {x_i = 0} in Ker(A), at every rank.  Each vertex is
scored as a unit row, the scale of its certificate.  At p = 1 theta on
each sign cell is linear-fractional, so its maximum sits at a vertex
(Charnes & Cooper, *Naval Res. Logist. Q.* 1962).  At p = 0 theta counts
rows, and the sparsest kernel vectors are circuits.  At k = 1 and any p,
fix a sign cell K of Ker(A), the cone on which each x_i keeps its sign.
On K, |x_j| is linear and (sum_{i != j} |x_i|^p)^{1/p} is concave for
p <= 1 (Boyd & Vandenberghe, *Convex Optimization*, 2004, ch. 3), so
{|x_j| <= c^{1/p} (sum_{i != j} |x_i|^p)^{1/p}} is convex: theta on
S = {j} is quasi-convex on K, and so is its maximum over j.  Its maximum
on K then lies on an extreme ray of K, and those are circuits
(Rockafellar 1969).  And h is a supremum, so a vertex scored +inf is h
at every k and p.  In these cases the best vertex is reported as exact
and no ascent runs.  Otherwise (0 < p < 1 at k >= 2 and nullity 2 or
more with a finite best vertex, or no circuit scored) the best circuit is
a certified lower bound, both a start of the ascent and a candidate after
it.  Whether the best circuit is h there too is open.

At p = 0 two rules count zeros, and the estimate follows theta's.  theta
counts a row when its norm exceeds ``zero_tol``: a circuit is exactly
zero off the r + 1 columns of its minors (r the rank), and each entry of
its unit row that exceeds ``zero_tol`` is a row however small it is.
:func:`spark` counts columns as dependent by A's rank cut (a Gram
eigenvalue at or below 1e-10 lambda_max).  The value at p = 0 is theta of
the best circuit by ``zero_tol``, and it equals k / (spark - k) when the
two rules agree, as on generic matrices and on exactly dependent columns.
On nearly dependent columns they can disagree: with column 1 set to
column 0 plus eps times Gaussian noise in Gaussian 3 x 7 and 4 x 8
matrices, the cut finds a dependent set of 2 or 3 columns while the
circuits through it keep unit-row entries above ``zero_tol``, at eps from
about 1e-8 to 1e-4, and the reported value is below k / (spark - k).

The ascent is a multi-start coordinate ascent over the coefficients c of
x = N c, N an orthonormal kernel basis, from the unit starts, the best
circuit, the certificates ``nsc_curve`` carries, and ``opts.restarts``
seeded Gaussian draws taken in one ``PortableRng.normal`` call.  It
produces a certified lower bound: the certificate always reproduces the
reported value.  Each start walks its own sweeps and step scales, and one
scoring batch holds the next few probes of every live start's sweep;
each batch is scored whole.  ``probes`` counts the c the
one-start-at-a-time ascent scores, however many rows the batches hold:
the rows a batch holds after a start's first win in it, past the end of
its sweep or at c = 0 are scored too, but are not probes.  The ascent's
winner, the best circuit and the certificates ``nsc_curve`` carries over
are then one batch, whose best row, by one order (larger value, then
smaller support, then the earlier row), is the estimate.  Candidates are
scored on row norms taken by ``norms``' unchecked core, and a
certificate's value is ``norms.theta`` of it, taken by theta's unchecked
core.

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
from .linalg import _CHUNK, ENUMERATION_GUARD, REL_EIG_TOL, GramSpectrum, as_matrix
from .linalg import check_enumerable, circuits, column_stacks, gram_spectrum, json_float
from .linalg import matrix_to_json, rank_covers
from .norms import DEFAULT_ZERO_TOL, RowSupport, check_count, check_seed, check_zero_tol
from .norms import _row_norms, _theta, check_grid, check_real, theta_top_k

#: Most sweeps the ascent makes at one scale.
MAX_SWEEPS = 40

#: Multi-scale offsets for the coordinate ascent: each scale tries these
#: relative steps on every coefficient before shrinking.
_SCALES = (1.0, 0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3, 3e-4, 1e-4)
_STEPS = (-1.0, -0.5, 0.5, 1.0)

#: Probes of its sweep each live start puts into one scoring batch.
_WINDOW = 12


@dataclass(frozen=True)
class NscOptions:
    """Knobs for the estimator; ``seed`` is required (drives the restarts)."""

    seed: int
    restarts: int = 64
    zero_tol: float = DEFAULT_ZERO_TOL

    def __post_init__(self):
        check_seed("seed", self.seed)
        check_count("restarts", self.restarts, 0)
        check_zero_tol(self.zero_tol)


@dataclass(frozen=True)
class NscEstimate:
    """A certified lower bound on (or exact value of) the null-space constant.

    ``value`` is exactly ``theta(p, certificate_x, certificate_support)``.
    The constant does not depend on r (module docstring), so the estimate
    is made on kernel vectors and ``certificate_x`` is the best one,
    normalized: an (n, 1) read-only matrix.  ``exact`` is True when the
    best vertex is reported with no ascent: at nullity 1, and, when
    circuits were scored, at k = 1, at p = 0 and p = 1, and wherever the
    best vertex is +inf, each as a unit row.  ``vertices``
    counts the vertices scored: 1 at nullity 1, else the circuits of a row
    basis of A, which are A's (0 beyond ``linalg.ENUMERATION_GUARD``
    columns).  ``probes`` counts the coefficient vectors c the serial
    ascent scores (each start once, then every nonzero probe; 0 on every
    exact path).  The ascent scores each batch whole, so the rows a batch
    holds after a start's first win in it, past the end of its sweep or at
    c = 0 are scored as well, but are not probes.  ``start`` is the index
    of the winning start in the order unit, best circuit, carried, seeded
    (-1 on the exact paths and for a certificate that is the best circuit
    itself or was carried over by ``nsc_curve``).
    """

    p: float
    k: int
    value: float
    certificate_x: np.ndarray
    certificate_support: RowSupport
    restarts: int
    exact: bool
    probes: int
    start: int
    vertices: int


def estimate_to_json(est: NscEstimate, r: int) -> dict:
    """*est* for a report on n x r matrices X: its certificate is written as
    [x, 0, ..., 0], the kernel vector x in column 0 and zeros in the other
    r - 1 columns, whose theta is the value bit for bit (module docstring)."""
    pad = [0.0] * (r - 1)
    return {
        "p": est.p,
        "k": est.k,
        "r": r,
        "value": json_float(est.value),
        "certificate_X": [row + pad for row in matrix_to_json(est.certificate_x)],
        "certificate_support": list(est.certificate_support.indices),
        "restarts": est.restarts,
        "exact": est.exact,
        "probes": est.probes,
        "start": est.start,
        "vertices": est.vertices,
    }


def _flat_norms(x: np.ndarray) -> np.ndarray:
    """The 2-norm of each row of x (P, d), bit-identical to
    ``np.linalg.norm`` of that row: both are the root of one dot product."""
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    """Each row of x (P, D) divided by its 2-norm; a zero row is divided by
    1.0, which leaves it as it is."""
    nrm = _flat_norms(x)
    return x / np.where(nrm > 0, nrm, 1.0)[:, None]


def _best_row(vals: np.ndarray, tops: np.ndarray) -> int:
    """The index of the best of a batch of scored rows: the largest value,
    then the lexicographically smallest support (each row of *tops*
    sorted), then the first."""
    tied = np.flatnonzero(vals == vals.max())
    return int(tied[np.lexsort(np.sort(tops[tied], axis=1).T[::-1])[0]])


def _top_theta(xs: np.ndarray, k: int, p: float, zero_tol: float):
    """``theta_top_k`` on the row norms of a stack of kernel vectors
    (P, n, 1); the supports come back unsorted."""
    return theta_top_k(_row_norms(xs), k, p, zero_tol)


def _best_vertex(verts: np.ndarray, k: int, p: float, zero_tol: float):
    """The best of the vertices *verts* (count, n) by :func:`_best_row`'s
    order: its value, 0-based support (unsorted) and row of *verts*.  Each
    is scored as a unit row, the scale of its certificate, so at p = 0
    ``zero_tol`` weighs the entries the certificate reports.  They are
    scored ``_CHUNK`` rows at a time, so memory stays bounded however many
    there are; a chunk's best goes on, and the first chunk's wins a tie
    with a later one's."""
    best = []
    for lo in range(0, len(verts), _CHUNK):
        unit = _normalize_rows(verts[lo:lo + _CHUNK])
        vals, tops = _top_theta(unit[:, :, None], k, p, zero_tol)
        i = _best_row(vals, tops)
        best.append((vals[i], tops[i], lo + i))
    vals, tops, _ = zip(*best)
    return best[_best_row(np.array(vals), np.array(tops))]


def nsc_estimate(
    a: np.ndarray | GramSpectrum,
    k: int,
    p: float,
    opts: NscOptions,
) -> NscEstimate:
    """Estimate h(p, A, k) at one p: :func:`nsc_curve` on the grid [p],
    which carries no certificate.  *p* is checked first, under its own
    name."""
    return nsc_curve(a, k, [check_real("p", p, 0, 1)], opts)[0]


def _kernel(spec: GramSpectrum, k) -> tuple[np.ndarray, np.ndarray]:
    """Ker(A)'s basis, read off A's spectrum after k is checked, and the
    vertices to score, (count, n): at nullity 1 the kernel generator, else
    the circuits of a row basis of A (none beyond the enumeration guard).
    The row basis is A itself at full row rank, else the orthonormal
    eigenvectors of A^T A above the cut, whose Gram eigenvalues are 1 and
    0: the cut is then ``REL_EIG_TOL``.  Either has A's kernel, so it has
    A's circuits."""
    m, n = spec.a.shape
    check_count("k", k, 1, n - 1)
    basis = spec.kernel
    if basis.shape[1] == 0:
        raise TrivialNullspace("Ker(A) = {0}: the null-space constant is vacuous")
    if basis.shape[1] == 1:
        return basis, basis.T
    if n > ENUMERATION_GUARD:
        return basis, np.empty((0, n))
    if spec.rank == m:
        return basis, circuits(spec.a, spec.cut)
    return basis, circuits(spec.evecs[:, spec.evals > spec.cut].T, REL_EIG_TOL)


def _certified(p: float, k: int, x: np.ndarray, top, zero_tol: float,
               **rest) -> NscEstimate:
    """The estimate whose certificate is the kernel vector x (n, 1)
    normalized, on the 0-based rows ``top`` (in any order); its value is
    ``norms.theta`` of exactly that certificate, taken by theta's unchecked
    core on the certificate's row norms."""
    cert = as_matrix(_normalize_rows(x.T).T)
    support = RowSupport(indices=tuple(int(i) + 1 for i in sorted(top)), n=cert.shape[0])
    return NscEstimate(p=p, k=k,
                       value=_theta(_row_norms(cert), support.mask(), p, zero_tol),
                       certificate_x=cert, certificate_support=support, **rest)


def _estimate(basis: np.ndarray, verts: np.ndarray, k: int, p: float, opts: NscOptions,
              carried: tuple[np.ndarray, ...]) -> NscEstimate:
    """The estimate at one p of :func:`nsc_curve`'s grid, on a nontrivial
    kernel basis and the vertices *verts* to score.

    Each ``carried`` coefficient vector (d, 1) is a start of the ascent,
    after the best circuit's, and a candidate after it: the ascent's
    winner, the best circuit and the carried vectors are scored as they
    are, and the best of them by :func:`_best_row` is the estimate.
    """
    d = basis.shape[1]
    starts = list(np.eye(d))                # deterministic single-generator starts
    cands = []                              # (x, value, support) beside the ascent's winner
    if len(verts):
        val, top, i = _best_vertex(verts, k, p, opts.zero_tol)
        if d == 1 or k == 1 or p in (0.0, 1.0) or val == math.inf:  # h itself (module docstring)
            return _certified(p, k, verts[i][:, None], top, opts.zero_tol, restarts=0,
                              exact=True, probes=0, start=-1, vertices=len(verts))
        starts.append(basis.T @ verts[i])
        cands.append((verts[i][:, None], val, top))
    starts.extend(w[:, 0] for w in carried)
    # one draw for every restart: a start of odd d drops the second normal
    # of its last Box-Muller pair, as a draw of its own would
    starts.extend(PortableRng(opts.seed).normal((opts.restarts, d + d % 2))[:, :d])
    val, top, c, start, probes = _ascend(basis, k, p, opts, starts)
    if carried:
        held = np.stack([basis @ w for w in carried])
        cands.extend(zip(held, *_top_theta(held, k, p, opts.zero_tol)))
    xs, vals, tops = zip((basis @ c[:, None], val, top), *cands)
    i = _best_row(np.array(vals), np.array(tops))
    return _certified(p, k, xs[i], tops[i], opts.zero_tol, restarts=opts.restarts,
                      exact=False, probes=probes, start=start if i == 0 else -1,
                      vertices=len(verts))


def _ascend(basis: np.ndarray, k: int, p: float, opts: NscOptions,
            starts: list[np.ndarray]):
    """Coordinate ascent of theta_max over c, every start on its own schedule.

    The ascent moves the coefficients c, never x = N c itself: every
    c != 0 maps to a kernel vector, within rounding of N's columns, while
    a step on x whose entries cancel leaves rounding noise that is not in
    Ker(A), and at small p such a row outweighs the exact zeros it stands
    for.

    *starts* are coefficient vectors (d,), each normalized first; one that
    is zero after that is skipped.  Each start follows the serial order:
    for each scale, up to ``MAX_SWEEPS`` sweeps over the entries j of c,
    each trying the steps in ``_STEPS`` from the entry's current value and
    keeping a probe that beats the start's value; c is renormalized after
    every sweep.  A start moves to its next scale after a sweep that
    brought no gain (or its ``MAX_SWEEPS``-th), and retires after its last
    scale or once its value is +inf.

    Every start keeps its own place in its sweep, and one scoring batch
    holds ``_WINDOW`` rows of every live start, all formed from that
    start's current c: the next probes of its sweep, then (at the sweep's
    end) copies of its last probe.  The batch is scored whole, and only
    then are the rows past the sweep's end and the rows that are c = 0
    kept out of the test for a win; c = 0 is never a probe.  Up to and
    including a start's first win the rows are the serial ascent's probes;
    the start takes that win and goes on from the probe after it, and the
    rows its window holds after the win are scored but are not probes.
    Returns the best start's (value, 0-based support in any order, c,
    start index, number of probes) by :func:`_best_row`'s order: ties go
    to the smaller support, then to the earlier start.
    """
    d = basis.shape[1]

    def score(cs: np.ndarray):
        return _top_theta(basis @ cs[:, :, None], k, p, opts.zero_tol)

    flat = _normalize_rows(np.array(starts))
    valid = np.flatnonzero(_flat_norms(flat) > 0.0)
    val = np.full(len(starts), -np.inf)
    top = np.zeros((len(starts), k), dtype=np.intp)
    val[valid], top[valid] = score(flat[valid])
    probes = valid.size
    # Probe t of the window that starts at place q of a sweep is place
    # q + t: step (q + t) % 4 on entry (q + t) // 4, if that is in the sweep.
    sweep_len = d * len(_STEPS)
    window = np.arange(_WINDOW)
    at = np.arange(sweep_len)[:, None] + window
    inside = at < sweep_len                                  # (place, t)
    span = inside.sum(axis=1)
    entry, step = np.divmod(np.minimum(at, sweep_len - 1), len(_STEPS))
    offsets = np.multiply.outer(_SCALES, _STEPS)[:, step]    # (scale, place, t)
    cell = window * d + entry               # the changed entry in a window's rows
    block = np.arange(len(starts))[:, None] * (_WINDOW * d)

    # The live starts' state, in start order: c, value, support, place in
    # the sweep, scale index, sweeps at that scale, whether the sweep won.
    ids = valid[val[valid] < np.inf]
    cs, cur, cur_top = flat[ids], val[ids], top[ids]
    place = np.zeros(ids.size, dtype=np.intp)
    level = np.zeros(ids.size, dtype=np.intp)
    sweeps = np.zeros(ids.size, dtype=np.intp)
    improved = np.zeros(ids.size, dtype=bool)
    while ids.size:
        live = ids.size
        work = np.repeat(cs, _WINDOW, axis=0)               # (start, t) rows of c
        changed = block[:live] + cell[place]
        new = work.take(changed) + offsets[level, place]
        np.put(work, changed, new)
        got, got_top = score(work)
        keep, zero = inside[place], None
        if (new == 0.0).any():                               # c = 0 is invalid
            zero = keep & ~work.any(axis=1).reshape(live, _WINDOW)
            keep = keep & ~zero
        win = keep & (got.reshape(live, _WINDOW) > cur[:, None])
        hit = win.any(axis=1)
        used = np.where(hit, win.argmax(axis=1) + 1, span[place])
        probes += int(used.sum())
        if zero is not None:                     # nor is c = 0 a probe
            probes -= int(np.count_nonzero(zero & (window < used[:, None])))
        won = hit.nonzero()[0]
        pick = won * _WINDOW + used[won] - 1
        cs[won], cur[won] = work[pick], got[pick]
        cur_top[won] = got_top[pick]
        improved[won] = True
        place += used
        done = place == sweep_len
        if done.any():
            cs[done] = _normalize_rows(cs[done])    # theta is scale-invariant: stop drift
            sweeps += done
            moving = done & ~(improved & (sweeps < MAX_SWEEPS))
            level += moving
            sweeps[moving] = 0
            place[done] = 0
            improved &= ~done
            gone = done & ((cur == np.inf) | (level == len(_SCALES)))
            if gone.any():
                out = ids[gone]
                flat[out], val[out], top[out] = cs[gone], cur[gone], cur_top[gone]
                stay = ~gone
                ids, cs, cur, cur_top = ids[stay], cs[stay], cur[stay], cur_top[stay]
                place, level, sweeps, improved = (
                    place[stay], level[stay], sweeps[stay], improved[stay])

    best = _best_row(val, top)
    return float(val[best]), top[best], flat[best], best, probes


def nsc_curve(
    a: np.ndarray | GramSpectrum,
    k: int,
    p_grid,
    opts: NscOptions,
) -> list[NscEstimate]:
    """Estimates along an ascending grid of p values, sharing certificates.

    A point where the estimate is exact (nullity 1, or k = 1, p = 0, p = 1
    or a +inf best vertex with circuits scored) reports the best vertex,
    with no probes.  Every
    other point considers every earlier certificate re-evaluated at its own
    p in addition to a fresh estimate, so the reported curve is
    nondecreasing whenever those certificates have no rows in the open
    interval (0, zero_tol] (re-evaluation at a larger p can only grow theta
    there).  The certificates are carried as coefficient vectors (d, 1),
    each both a start of the ascent and a candidate after it; this is the
    only way a start other than the unit, best-circuit and seeded ones
    reaches the ascent.  One kernel basis of A, and one set of vertices,
    serve the whole grid.  *a* is A or its :func:`linalg.gram_spectrum`,
    which is then not decomposed again.  This is the one path from A to
    an estimate: :func:`nsc_estimate` runs it on a grid of one point.
    """
    grid = check_grid("p_grid", p_grid, 0, 1)
    if any(b <= a_ for a_, b in zip(grid, grid[1:])):
        raise DomainError("p_grid must be strictly ascending")
    basis, verts = _kernel(gram_spectrum(a), k)
    out: list[NscEstimate] = []
    carried: list[np.ndarray] = []          # certificates, as coefficient vectors (d, 1)
    for p in grid:
        best = _estimate(basis, verts, k, p, opts, tuple(carried))
        out.append(best)
        if not math.isinf(best.value):
            carried.append(basis.T @ best.certificate_x)
    return out


# ---------------------------------------------------------------------------
# spark


def spark(a: np.ndarray) -> int:
    """Size of the smallest linearly dependent column subset of A (m x n);
    min(m, n) + 1 if there is none of up to min(m, n) columns, since any
    m + 1 columns are dependent.

    A subset counts as dependent when the smallest eigenvalue of its Gram
    matrix is zero by A's rank rule (at or below 1e-10 times
    lambda_max(A^T A)); in the zero matrix every column is dependent.
    The answer is the smallest size with a subset that fails the cut among
    those ``linalg.rank_covers`` lists, whose cover holds nothing until its
    voucher runs.  Sizes go up from 1, every subset tested; once the
    smaller sizes have cost at least as many subsets, every subset of
    min(m, n) columns is tested (one test), and by interlacing each one that
    passes vouches for every subset of its own, so only the subsets no
    passing one holds are tested from then on.  When all pass, the answer is
    min(m, n) + 1.  On ``gen`` Gaussian 16x17 seed 1 that is 34 subsets
    decomposed instead of 131 071; on seed 3226652560831358504, whose one
    dependent set of 16 columns omits column 9 (0-based), 35: the 17 single
    columns, the 17 sets of 16 columns and that set again, which gives 16.
    A subset is classed differently from a test of its own only if its
    smallest Gram eigenvalue lies within rounding (about 1e-15 lambda_max)
    of the cut.  Enumeration is capped at ``linalg.ENUMERATION_GUARD``
    columns.

    *a* is A itself, never its spectrum: ``check_enumerable`` refuses a
    matrix with too many columns before anything is decomposed, and a
    spectrum has been decomposed already.
    """
    a = as_matrix(a, name="A")
    check_enumerable(a)
    top = min(a.shape)
    cut = gram_spectrum(a).cut
    for card, ranked in rank_covers(a, cut, top):
        for idx in ranked.uncovered(card):
            if not column_stacks(a, idx, cut)[2].all():
                return card
    return top + 1


def max_recoverable_k(a: np.ndarray) -> int:
    """Largest k with 2k < spark(A): the uniqueness limit for k-row-sparse
    solutions.  *a* is A itself, never its spectrum, as for :func:`spark`,
    whose enumeration guard runs before any decomposition."""
    return (spark(a) - 1) // 2
