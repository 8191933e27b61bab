"""Dense matrix utilities: validation, serialization, spectra, nullspaces.

Matrices are plain float64 numpy arrays, validated and frozen (read-only) on
the way in.  Everything spectral about a matrix A comes from one LAPACK
eigendecomposition of A^T A, made by :func:`gram_spectrum`, which also owns
the rank rule: an eigenvalue at or below ``REL_EIG_TOL * lambda_max`` is
zero.  The public spectral functions each read from one such decomposition,
and the solvers take one per call and read everything from it.
:func:`subset_batches` enumerates column subsets, and :func:`column_stacks`
applies the same cut to each.  Where the vouchers below rule out all but a
few subsets, :meth:`ResidualCover.uncovered` lists those few instead.

Two vouchers spare per-subset work where it cannot change the answer.  Each
tests every subset of one size, the one with the fewest subsets in its
range, and only once the caller has enumerated at least that many subsets
(:func:`_schedule`): a test never costs more than the work before it, so it
at most doubles the one-subset-at-a-time loop, plus one batch.

:func:`size_cuts` vouches for rank.  By Cauchy interlacing (Horn & Johnson,
*Matrix Analysis*, 4.3) the Gram matrix of a subset S of T is a principal
submatrix of T's, so its smallest eigenvalue is at least T's: once every
subset of c* columns clears the cut, so does every smaller subset.  It tests
the size c* in [k, min(m, n)] for a caller that needs sizes up to k.  In
floating point a subset is then classed differently from a test of its own
only if its smallest Gram eigenvalue lies within rounding (about 1e-15 *
lambda_max) of the cut.

:func:`residual_covers` vouches against feasibility.  Least-squares
residuals only grow as columns are removed (Bjorck, *Numerical Methods for
Least Squares Problems*, 1.1 and 2.4): for S a subset of U,

    min_Y ||A_S Y - B||_F >= min_Y ||A_U Y - B||_F >= ||Q_perp^T B||_F,

Q_perp being the trailing m - |U| columns of a complete QR of A_U (an
orthonormal basis of a space orthogonal to range(A_U), whatever A_U's
rank).  So one U whose bound clears the caller's tolerance rules out every
subset of U.  It tests the size u* in [k, min(m - 1, n)], reading the
bound off the R factor of [A_U | B]: the first u = |U| Householder
reflections of that QR are those of A_U's complete QR, and the rest act
on rows u and below only, so ||R[u:, u:]||_F = ||Q_perp^T B||_F and no Q
is formed.  The rounding allowance: a support S that A's cut classes full
rank has smallest singular value above sqrt(cut) and norm at most
sqrt(lambda_max), so any Y that fits B to the tolerance tol has ||A_S||
||Y|| <= (||B||_F + tol) / sqrt(REL_EIG_TOL).  The rounding of the QR
(backward stable column by column, as that of A_U and the product
Q_perp^T B), and of S's own solve and residual, is a small multiple of eps
times that, and U is certified only when its bound clears tol by m * n *
eps times it.  A support S skipped this way would then be found feasible
by a solve of its own only if that rounding exceeded the allowance, about
6e-9 * (||B||_F + tol) at m = 16, n = 17.  Rank-deficient supports have
no such bound: the caller solves them.  The certified Us and every subset
of theirs are marked in one table over column bit masks, so a caller for
whom interlacing vouches for rank lists the unmarked supports of each size
off it, by bit count, rather than enumerating them all and filtering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllZeroMatrix, DomainError, EnumerationTooLarge, RankDeficient

#: Relative threshold separating "zero" eigenvalues of A^T A from positive ones.
REL_EIG_TOL = 1e-10

#: Most columns a matrix may have for its column subsets to be enumerated.
ENUMERATION_GUARD = 20

#: Column subsets decomposed per batch by :func:`column_subsets`.
_CHUNK = 2048


def as_matrix(data, name: str = "matrix") -> np.ndarray:
    """Validate *data* as a finite 2-D float64 matrix and return it read-only.

    Rejects ragged nested lists, non-2-D arrays, NaN/inf entries and
    zero-length axes.
    """
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name}: not interpretable as a numeric matrix: {exc}") from None
    if arr.ndim != 2:
        raise DomainError(f"{name}: expected a 2-D matrix, got ndim={arr.ndim}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise DomainError(f"{name}: empty dimension in shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DomainError(f"{name}: contains non-finite entries")
    out = np.array(arr, dtype=float, order="C")
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# serialization


def matrix_to_json(mat: np.ndarray) -> list[list[float]]:
    """Nested-list form, suitable for json.dump."""
    return [[float(v) for v in row] for row in np.asarray(mat)]


def matrix_from_json(obj, name: str = "matrix") -> np.ndarray:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise DomainError(f"{name}: JSON matrix must be a non-empty list of rows")
    ncols = len(obj[0])
    if any(len(r) != ncols for r in obj):
        raise DomainError(f"{name}: ragged rows in JSON matrix")
    return as_matrix(obj, name=name)


def matrix_to_csv(mat: np.ndarray) -> str:
    """One row per line, comma-separated, repr-round-trip floats, '.' decimal."""
    lines = [",".join(repr(float(v)) for v in row) for row in np.asarray(mat)]
    return "\n".join(lines) + "\n"


def matrix_from_csv(text: str, name: str = "matrix") -> np.ndarray:
    rows = []
    for ln, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError:
            raise DomainError(f"{name}: line {ln} is not comma-separated numbers") from None
    if not rows:
        raise DomainError(f"{name}: no data rows")
    if len({len(r) for r in rows}) != 1:
        raise DomainError(f"{name}: ragged rows in CSV")
    return as_matrix(rows, name=name)


# ---------------------------------------------------------------------------
# spectra


@dataclass(frozen=True)
class EigSummary:
    """Spectral summary of A^T A.

    ``ratio = lambda_max / lambda_min_plus`` where ``lambda_min_plus`` is the
    smallest eigenvalue strictly above ``zero_threshold``.
    """

    lambda_max: float
    lambda_min_plus: float
    ratio: float
    rank: int
    zero_threshold: float


def _fix_column_signs(basis: np.ndarray) -> np.ndarray:
    out = basis.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        i = int(np.argmax(np.abs(col)))
        if col[i] < 0:
            out[:, j] = -col
    return out


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, order="C")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class GramSpectrum:
    """One eigendecomposition of A^T A and everything read from it.

    ``evals`` are ascending and clipped at 0 (LAPACK leaves tiny negative
    noise on PSD input).  An eigenvalue at or below ``cut = REL_EIG_TOL *
    lambda_max`` counts as zero; ``rank`` counts the others.  ``kernel`` is
    the orthonormal basis of Ker(A) made of the zero eigenvalues'
    eigenvectors, shape (n, nullity), each column's sign fixed so its
    largest-magnitude entry (first such entry on ties) is positive.
    """

    a: np.ndarray
    evals: np.ndarray
    cut: float
    rank: int
    kernel: np.ndarray

    def summary(self) -> EigSummary:
        """The extreme eigenvalues; AllZeroMatrix if none clears the cut."""
        positive = self.evals[self.evals > self.cut]
        if positive.size == 0:
            raise AllZeroMatrix("no eigenvalue of A^T A exceeds the zero threshold")
        lam_max, lam_min_plus = float(self.evals[-1]), float(positive[0])
        return EigSummary(
            lambda_max=lam_max,
            lambda_min_plus=lam_min_plus,
            ratio=lam_max / lam_min_plus,
            rank=self.rank,
            zero_threshold=self.cut,
        )

    def min_norm(self, b: np.ndarray) -> np.ndarray:
        """Minimum-Frobenius-norm solution X0 = A^T (A A^T)^{-1} B of A X = B.

        Raises RankDeficient unless A has full row rank (rank m).
        """
        a = self.a
        b = as_matrix(b, name="B")
        if a.shape[0] != b.shape[0]:
            raise DomainError(f"row mismatch: A is {a.shape}, B is {b.shape}")
        if self.rank < a.shape[0]:
            raise RankDeficient("A A^T is singular within tolerance: A lacks full row rank")
        return _frozen(a.T @ np.linalg.solve(a @ a.T, b))


def gram_spectrum(a: np.ndarray) -> GramSpectrum:
    """Decompose A^T A once (``numpy.linalg.eigh``) and apply the rank rule."""
    a = as_matrix(a, name="A")
    evals, evecs = np.linalg.eigh(a.T @ a)
    evals = np.maximum(evals, 0.0)
    cut = REL_EIG_TOL * float(evals[-1])
    zero = evals <= cut
    evals.flags.writeable = False
    return GramSpectrum(
        a=a,
        evals=evals,
        cut=cut,
        rank=int(evals.size - zero.sum()),
        kernel=_frozen(_fix_column_signs(evecs[:, zero])),
    )


def check_enumerable(a: np.ndarray) -> None:
    """Raise EnumerationTooLarge when A has more than ``ENUMERATION_GUARD``
    columns; callers check before they decompose anything."""
    n = a.shape[1]
    if n > ENUMERATION_GUARD:
        raise EnumerationTooLarge(f"n={n} exceeds enumeration guard {ENUMERATION_GUARD}")


def subset_batches(n: int, card: int):
    """Every *card*-subset of range(n), in lexicographic order (that of
    ``itertools.combinations``), as int8 index arrays of at most ``_CHUNK``
    rows, one subset per row.  The caller checks :func:`check_enumerable`.
    """
    low = min(card, n - card)
    table, last = np.empty((1, 0), dtype=np.int8), np.full(1, -1)
    for k in range(1, low + 1):
        # lexicographic order extends each (k-1)-subset, in order, by every
        # index above its last, in increasing order
        ext = n - 1 - last
        rows = np.repeat(table, ext, axis=0)
        last = np.repeat(last + 1 - (np.cumsum(ext) - ext), ext) + np.arange(len(rows))
        table = np.empty((len(rows), k), dtype=np.int8)
        table[:, :-1] = rows
        table[:, -1] = last
    if low < card:
        # taking complements reverses lexicographic order within a size
        keep = np.ones((len(table), n), dtype=bool)
        keep[np.arange(len(table))[:, None], table] = False
        table = np.nonzero(keep[::-1])[1].astype(np.int8).reshape(-1, card)
    for start in range(0, len(table), _CHUNK):
        yield table[start:start + _CHUNK]


def column_stacks(a: np.ndarray, idx: np.ndarray, cut: float | None):
    """``(sub, gram, full_rank)`` for the column subsets in the rows of
    *idx*: the stack A_S of shape (c, m, card), the stack A_S^T A_S of shape
    (c, card, card), and whether each Gram matrix's smallest eigenvalue
    clears *cut*, the rank cut of A from :func:`gram_spectrum`.  A *cut* of
    None, which :func:`size_cuts` gives once interlacing vouches for every
    subset, marks them all full rank without decomposing any.
    """
    sub = np.moveaxis(a[:, idx], 1, 0)                           # (c, m, card)
    gram = sub.transpose(0, 2, 1) @ sub                          # (c, card, card)
    if cut is None:
        full_rank = np.ones(len(idx), dtype=bool)
    else:
        full_rank = np.linalg.eigvalsh(gram)[:, 0] > cut
    return sub, gram, full_rank


def column_subsets(a: np.ndarray, card: int, cut: float | None):
    """Every column subset S of A with |S| = *card*, in batches.

    Each batch of :func:`subset_batches` comes as ``(subsets, sub, gram,
    full_rank)``: the subsets as 0-based index tuples, then
    :func:`column_stacks` of them.  The caller checks
    :func:`check_enumerable`.
    """
    for idx in subset_batches(a.shape[1], card):
        yield list(map(tuple, idx.tolist())), *column_stacks(a, idx, cut)


def _schedule(n: int, top: int, sizes: range):
    """The cost rule shared by the two vouchers (module docstring).

    Yields ``(card, star)`` for each size 1..*top*.  *star* is the member of
    *sizes* with the fewest subsets (the smallest on ties), given once:
    before the first size at which the caller has already enumerated at
    least as many subsets as size *star* has, unless that size is *star*,
    whose own enumeration would be the test.  Otherwise *star* is None.
    The caller resumes the generator only after enumerating a whole size.
    """
    star = min(sizes, key=lambda c: math.comb(n, c), default=None)
    done = 0
    for card in range(1, top + 1):
        due = star is not None and star > card and done >= math.comb(n, star)
        yield card, (star if due else None)
        if due:
            star = None
        done += math.comb(n, card)


def size_cuts(a: np.ndarray, top: int):
    """The rank cut to give :func:`column_stacks` for each size 1..*top*.

    Yields ``(card, cut)``, *cut* being A's from :func:`gram_spectrum`,
    until interlacing (module docstring) vouches for every subset of up to
    *top* columns, then ``(card, None)``.  The voucher is one test of every
    subset of c* columns, c* being the size in [top, min(m, n)] with the
    fewest subsets, made when :func:`_schedule` says.  If a subset fails,
    the cut stays and no test is made again.
    """
    m, n = a.shape
    cut = gram_spectrum(a).cut
    for card, star in _schedule(n, top, range(top, min(m, n) + 1)):
        if star is not None and all(ok.all() for *_, ok in column_subsets(a, star, cut)):
            cut = None
        yield card, cut


def residual_covers(a: np.ndarray, b: np.ndarray, top: int, tol: float):
    """Which supports of up to *top* columns least squares cannot fit to *tol*.

    Yields ``(card, covered)`` for each size 1..*top*.  *covered* is None
    until the voucher (module docstring) has run and certified some U; from
    then on it is a :class:`ResidualCover`, which maps an index batch of
    :func:`subset_batches` to a boolean array, true for each subset of a
    certified U, and lists the supports of one size that no certified U
    covers.  The voucher is the R factor of [A_U | B] for every U of u*
    columns, u* being the size in [top, min(m - 1, n)] with the fewest
    subsets, made when :func:`_schedule` says.  U is certified when
    ``||R[u*:, u*:]||_F``, which is ``||Q_perp^T B||_F``, exceeds *tol*
    plus the rounding allowance ``m * n * eps * (||B||_F + tol) /
    sqrt(REL_EIG_TOL)``, the same as for the product of a complete QR.
    The caller skips only the covered supports that A's rank cut classes
    full rank; the allowance holds for those alone.
    """
    m, n = a.shape
    covered = None
    for card, star in _schedule(n, top, range(top, min(m - 1, n) + 1)):
        if star is not None:
            covered = _residual_voucher(a, b, star, tol)
        yield card, covered


class ResidualCover:
    """The supports a certified voucher rules out, as a table over column bit
    masks (column j is bit n - 1 - j), true for every subset of a certified
    U.  In this numbering the masks of one size fall in lexicographic order
    when read downward, so the supports it leaves are listed straight off
    the table, without generating the ones it covers.
    """

    def __init__(self, table: np.ndarray):
        self._table = table
        self._n = table.size.bit_length() - 1
        pop = np.zeros(1, dtype=np.int8)           # bits set in each mask
        for _ in range(self._n):
            pop = np.concatenate((pop, pop + 1))
        self._pop = pop
        # one scan of the table serves every size uncovered() is asked for
        self._free = np.flatnonzero(~table)
        self._free_pop = pop[self._free]

    def __call__(self, idx: np.ndarray) -> np.ndarray:
        """For each row of an index batch, whether a certified U holds it."""
        return self._table[(np.int64(1) << (self._n - 1 - idx)).sum(axis=1)]

    def uncovered(self, card: int):
        """Every *card*-subset no certified U holds, in lexicographic order,
        as int8 index arrays of at most ``_CHUNK`` rows; none when there is
        no such subset."""
        masks = self._free[self._free_pop == card][::-1]
        rows = np.empty((len(masks), card), dtype=np.int8)
        for col in range(card - 1, -1, -1):        # lowest bit: last column
            low = masks & -masks
            rows[:, col] = self._n - 1 - self._pop[low - 1]
            masks = masks ^ low
        for start in range(0, len(rows), _CHUNK):
            yield rows[start:start + _CHUNK]


#: Bits of a column bit mask that :func:`_close_downward` closes on a
#: transposed copy, where its inner axis is long.
_LOW_BITS = 5


def _close_downward(table: np.ndarray) -> None:
    """Mark in place every subset of a marked mask in a table over the
    2**n column bit masks.

    Closing bit i ORs each mask's entry with that of the mask plus bit i,
    over runs of 2**i entries.  The low bits' runs are too short to stream,
    so they are closed on a transposed copy, where bit i < ``_LOW_BITS``
    runs over 2**(n - _LOW_BITS + i) entries, and copied back.
    """
    n = table.size.bit_length() - 1
    low = min(_LOW_BITS, n)
    for i in range(low, n):
        pairs = table.reshape(-1, 2, 1 << i)
        pairs[:, 0] |= pairs[:, 1]
    grid = table.reshape(-1, 1 << low)                # (high bits, low bits)
    flip = np.ascontiguousarray(grid.T)
    for i in range(low):
        pairs = flip.reshape(-1, 2, flip.shape[1] << i)
        pairs[:, 0] |= pairs[:, 1]
    grid[...] = flip.T


def _residual_voucher(a: np.ndarray, b: np.ndarray, u: int, tol: float):
    """The :class:`ResidualCover` :func:`residual_covers` yields after
    testing every U of *u* columns, or None when no U is certified."""
    m, n = a.shape
    eps = float(np.finfo(float).eps)
    limit = tol + m * n * eps * (float(np.linalg.norm(b)) + tol) / math.sqrt(REL_EIG_TOL)
    ab = np.concatenate((a, b), axis=1)
    rhs = np.arange(n, ab.shape[1])                 # B's columns in [A | B]
    table = np.zeros(1 << n, dtype=bool)        # indexed by column bit mask
    for idx in subset_batches(n, u):
        cols = np.concatenate((idx, np.broadcast_to(rhs, (len(idx), rhs.size))), axis=1)
        r = np.linalg.qr(np.moveaxis(ab[:, cols], 1, 0), mode="r")  # R of [A_U | B]
        bound = np.linalg.norm(r[:, u:, u:], axis=(1, 2))
        table[(np.int64(1) << (n - 1 - idx[bound > limit])).sum(axis=1)] = True
    if not table.any():
        return None
    _close_downward(table)
    return ResidualCover(table)


def gram_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of A^T A, ascending, clipped at 0 (read-only)."""
    return gram_spectrum(a).evals


def eig_summary(a: np.ndarray) -> EigSummary:
    """Summarize the spectrum of A^T A; eigenvalues at or below
    ``REL_EIG_TOL * lambda_max`` count as zero.

    Raises AllZeroMatrix if no eigenvalue clears that threshold.
    """
    return gram_spectrum(a).summary()


@dataclass(frozen=True)
class NullspaceBasis:
    """Orthonormal basis of Ker(A), one column per basis vector.

    ``basis`` has shape (n, nullity); nullity 0 gives an (n, 0) array.  Each
    column's sign is fixed so its largest-magnitude entry (first such entry on
    ties) is positive.
    """

    basis: np.ndarray
    nullity: int


def nullspace_basis(a: np.ndarray) -> NullspaceBasis:
    """Orthonormal kernel basis from the eigenvectors of A^T A whose
    eigenvalues lie at or below ``REL_EIG_TOL * lambda_max``."""
    kernel = gram_spectrum(a).kernel
    return NullspaceBasis(basis=kernel, nullity=kernel.shape[1])


def min_norm_solution(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-Frobenius-norm solution X0 = A^T (A A^T)^{-1} B of A X = B.

    Requires A to have full row rank: raises RankDeficient when A^T A has
    fewer than m eigenvalues above ``REL_EIG_TOL * lambda_max``.
    """
    return gram_spectrum(a).min_norm(b)
