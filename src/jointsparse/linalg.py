"""Dense matrix utilities: validation, serialization, spectra, nullspaces.

Matrices are plain float64 numpy arrays, validated and frozen (read-only) on
the way in.  Everything spectral about a matrix A comes from one LAPACK
eigendecomposition of A^T A, made by :func:`gram_spectrum`, which also owns
the rank rule: an eigenvalue at or below ``REL_EIG_TOL * lambda_max`` is
zero.  The public spectral functions each read from one such decomposition,
and the solvers take one per problem, ``MmvProblem.spectrum``, made on
first read and kept, and read everything from it.  :func:`gram_spectrum`
returns a spectrum it is given unchanged, so every entry point whose first
step is that call (``bounds.pstar``, ``nsc.nsc_estimate``,
``nsc.nsc_curve``, ``MmvProblem``) takes A or its spectrum alike.
:func:`subset_batches` enumerates column subsets, and :func:`column_stacks`
applies the same cut to each one; :func:`circuits` builds A's circuit
vectors on both, for the vertex start of ``nsc``.

Two vouchers spare per-subset work where it cannot change the answer.  Each
tests every subset of one size, the one with the fewest subsets in its
range, and only once the caller has enumerated at least that many subsets
(:func:`_covers`): a test never costs more than the work before it, so it
at most doubles the one-subset-at-a-time loop, plus one batch.  Each
answers every size with the same kind of cover, a :class:`SubsetCover`:
a cover that holds nothing until its voucher runs, then every subset of a
set it certified, marked in one table over column bit masks and closed
downward.  A caller lists the subsets of a size the cover leaves, read off
the table by bit count in lexicographic order (every subset, while the
cover holds nothing), rather than enumerating them all and filtering.
The table is closed on its packed form (:func:`_close_downward`): 64 masks
to a little-endian word, the six low bits closed inside each word by a
shift and a mask, the others by ORing runs of words.

:func:`rank_covers` vouches for rank, for ``nsc.spark`` alone.  By Cauchy
interlacing (Horn & Johnson, *Matrix Analysis*, 4.3) the Gram matrix of a
subset S of T is a principal submatrix of T's, so its smallest eigenvalue
is at least T's: every subset of a set of c* columns that clears the cut
clears it too.
The rule holds set by set, so one dependent set of c* columns takes only
its own subsets out of the cover, not the whole size.  It tests the size
c* in [k, min(m, n)] for a caller that needs sizes up to k.  When every
set of c* columns passes, the cover holds every subset and needs no table.
In floating point a subset is classed differently from a test of its own
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
is formed.  R comes from ``numpy.linalg.qr``'s raw factor, whose upper
part holds R transposed: only the trailing block is transposed and zeroed
below its diagonal, the same numbers mode "r" gives after zeroing below
the diagonal of the whole factor.  The rounding allowance: a support S
that A's cut classes full rank has smallest singular value above sqrt(cut)
and norm at most sqrt(lambda_max), so any Y that fits B to the tolerance
tol, or to its own least-squares residual, has ||A_S|| ||Y|| <= (||B||_F +
tol) / sqrt(REL_EIG_TOL).  The rounding of the QR (backward stable column
by column, as that of A_U and the product Q_perp^T B), and of S's own
solve and residual, is a small multiple of eps times that, and U is
certified only when its bound clears tol by m * n * eps times it.  A
full-rank support S skipped this way would then be found feasible by a
solve of its own only if that rounding exceeded the allowance, about 6e-9
* (||B||_F + tol) at m = 16, n = 17.

:func:`min_support_size` rules out sizes from the singular values
sigma_1 >= sigma_2 >= ... of B alone, before any subset is listed.  A_S Y
has rank at most |S|, so by Eckart & Young (*Psychometrika* 1936) and
Mirsky, for c = |S|,

    min_Y ||A_S Y - B||_F >= tail_c = ||(sigma_{c+1}, sigma_{c+2}, ...)||.

Every size whose tail exceeds tol plus the allowance above is ruled out
whole; those are the sizes below the first one left.  The allowance
covers a full-rank support's own solve and residual, as for the residual
voucher, and the SVD of B is backward stable, so its singular values are
exact for B moved by a small multiple of eps ||B||_F, far inside the
allowance.

The caller skips what either cut rules out at any rank, with no rank
test: a support of a size :func:`min_support_size` rules out, and a support
inside a U :func:`residual_covers` certified.  For a rank-deficient support
the allowance bounds nothing.  In exact arithmetic the skip is sound, since
its residual is at least the tail, or U's bound, whatever Y ``lstsq``
gives it.  Its computed residual could still fall to tol if the rounding of
the product A_S Y cancelled a residual above tol plus the allowance to
within tol.  Nothing here bounds that rounding: when A_S's smallest
singular value sits just above ``lstsq``'s cutoff, Y is huge and so is the
rounding.  That such rounding is noise far above tol, never a fit, is an
empirical margin, not a proven one.  The matrices had duplicated, scaled or
near-duplicated columns (moved by 1e-7 to 1e-12), or a pair of columns just
above ``lstsq``'s cutoff.  Over 3 989 supports of sizes ruled out,
``lstsq``'s residual was at least 2.18 tol (above 1e7 tol on the 334 whose
smallest singular value lay within ten times that cutoff).  Over 2 841
supports inside a certified U, at sizes the size cut leaves, it was at
least 6e6 tol where B lay in range(A) or far off it, and at least 1.25 tol
where B was built 1.25 to 4 tol off the span of a planted support: there
about what exact arithmetic gives, never more than 6e-9 (relative) below
the certified U's bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AllZeroMatrix, DomainError, EnumerationTooLarge, RankDeficient

#: Relative threshold separating "zero" eigenvalues of A^T A from positive ones.
REL_EIG_TOL = 1e-10

#: Most columns a matrix may have for its column subsets to be enumerated.
ENUMERATION_GUARD = 20

#: Most rows in an index batch of :func:`subset_batches` or
#: :meth:`SubsetCover.uncovered`.
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
    return _frozen(arr)


# ---------------------------------------------------------------------------
# serialization


def json_float(v):
    """v for a JSON report: +-inf become the strings 'inf'/'-inf'.

    Anything else passes through unchanged, NaN included, so a NaN still
    fails a strict (``allow_nan=False``) dump.
    """
    if isinstance(v, float) and math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


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
    largest-magnitude entry (first such entry on ties) is positive.  It is
    built on first read, so a caller that needs only the cut pays for
    ``eigh``'s eigenvectors but not for the sign fix and the copy.
    """

    a: np.ndarray
    evals: np.ndarray
    cut: float
    rank: int
    evecs: np.ndarray = field(repr=False)

    @cached_property
    def kernel(self) -> np.ndarray:
        return _frozen(_fix_column_signs(self.evecs[:, self.evals <= self.cut]))

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

    def _min_norm(self, b: np.ndarray) -> np.ndarray:
        """:func:`min_norm_solution` of a B that ``as_matrix`` has already
        checked (``MmvProblem.b``, say); its shape and A's rank are still
        checked."""
        a = self.a
        if a.shape[0] != b.shape[0]:
            raise DomainError(f"row mismatch: A is {a.shape}, B is {b.shape}")
        if self.rank < a.shape[0]:
            raise RankDeficient("A A^T is singular within tolerance: A lacks full row rank")
        return _frozen(a.T @ np.linalg.solve(a @ a.T, b))


def gram_spectrum(a: np.ndarray | GramSpectrum) -> GramSpectrum:
    """Decompose A^T A once (``numpy.linalg.eigh``) and apply the rank rule.

    *a* is A or its spectrum; a spectrum is returned as it is, so an entry
    point whose first step is this call takes either and decomposes A at
    most once.
    """
    if isinstance(a, GramSpectrum):
        return a
    a = as_matrix(a, name="A")
    evals, evecs = np.linalg.eigh(a.T @ a)
    evals = np.maximum(evals, 0.0)
    cut = REL_EIG_TOL * float(evals[-1])
    evals.flags.writeable = False
    evecs.flags.writeable = False
    return GramSpectrum(a=a, evals=evals, cut=cut,
                        rank=int(np.count_nonzero(evals > cut)), evecs=evecs)


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


def column_stacks(a: np.ndarray, idx: np.ndarray, cut: float):
    """``(sub, gram, full_rank)`` for the column subsets in the rows of
    *idx*: the stack A_S of shape (c, m, card), the stack A_S^T A_S of shape
    (c, card, card), and whether each subset is full rank, that is whether
    its Gram matrix's smallest eigenvalue clears *cut*, the rank cut of A
    from :func:`gram_spectrum`.
    """
    sub = np.moveaxis(a[:, idx], 1, 0)                           # (c, m, card)
    gram = sub.transpose(0, 2, 1) @ sub                          # (c, card, card)
    return sub, gram, np.linalg.eigvalsh(gram)[:, 0] > cut


def circuits(a: np.ndarray, cut: float) -> np.ndarray:
    """The circuit vectors of A (m x n), one per row of a (count, n) array.

    Each (m + 1)-subset C = {c_0 < ... < c_m} of the columns that A's cut
    classes as rank m gives one row: ``(-1)**i * det(A_{C minus c_i})`` at
    column c_i (the generalized cross product, which A_C maps to 0 by
    Laplace expansion) and exact zeros off C.  C has rank m when one of its
    m-subsets is full rank by :func:`column_stacks` against *cut*, A's
    rank cut from :func:`gram_spectrum`; each m-subset is decomposed, and
    its determinant taken, once for all the C that hold it.  Rows come in
    lexicographic order of C; there are none when m + 1 > n, or when A's
    rank is below m, and at m = 0 they are the n coordinate vectors (an
    empty minor's determinant is 1).  For A of full row rank these are the
    vertices of the arrangement {x_i = 0} in Ker(A), up to scale: every
    kernel vector with d - 1 independent zero coordinates (d the nullity)
    is one of them.  A
    and *cut* are first scaled by the power of two that brings A's largest
    entry into [0.5, 1), so that no determinant of a large or small A
    overflows or underflows, and A and every power-of-two multiple of it
    give the same rows.  Raises EnumerationTooLarge beyond
    ``ENUMERATION_GUARD`` columns.
    """
    check_enumerable(a)
    m, n = a.shape
    if m + 1 > n:
        return np.empty((0, n))
    if m == 0:
        return np.eye(n)
    shift = int(np.frexp(np.abs(a).max())[1])
    a, cut = np.ldexp(a, -shift), math.ldexp(cut, -2 * shift)
    # each m-subset's determinant and rank class, indexed by its column bit
    # mask (column j is bit j)
    bit = np.int64(1) << np.arange(n, dtype=np.int64)
    det = np.zeros(1 << n)
    full = np.zeros(1 << n, dtype=bool)
    for idx in subset_batches(n, m):
        sub, _, full_rank = column_stacks(a, idx, cut)
        masks = bit[idx].sum(axis=1)
        det[masks], full[masks] = np.linalg.det(sub), full_rank
    signs = (-1.0) ** np.arange(m + 1)
    # room for every C, written in place: the pages of rows never written
    # (the C of rank below m) are zeros that are never touched
    out, count = np.zeros((math.comb(n, m + 1), n)), 0
    for idx in subset_batches(n, m + 1):
        minors = bit[idx].sum(axis=1)[:, None] - bit[idx]       # C minus c_i
        rank_m = full[minors].any(axis=1)
        idx, minors = idx[rank_m], minors[rank_m]
        rows = np.arange(count, count + len(idx))
        out[rows[:, None], idx] = det[minors] * signs
        count += len(idx)
    return out[:count]


def _covers(n: int, top: int, most: int, voucher):
    """The cost rule shared by the two vouchers (module docstring).

    Yields ``(card, cover)`` for each size 1..*top*: a cover that holds
    nothing until the test is due, then ``voucher(star)``.  *star* is the
    size in [top, *most*] with the fewest subsets (the smallest on ties;
    there is none when *most* < *top*).  Its test is due before the first
    size at which the caller has already enumerated at least as many
    subsets as size *star* has, unless that size is *star*, whose own
    enumeration would be the test.  The caller resumes the generator only
    after enumerating a whole size.
    """
    star = min(range(top, most + 1), key=lambda c: math.comb(n, c), default=None)
    cover, done = SubsetCover(n, False), 0
    for card in range(1, top + 1):
        if star is not None and star > card and done >= math.comb(n, star):
            cover, star = voucher(star), None
        yield card, cover
        done += math.comb(n, card)


def rank_covers(a: np.ndarray, cut: float, top: int):
    """Which supports of up to *top* columns interlacing makes full rank.

    Yields ``(card, ranked)`` for each size 1..*top*.  *ranked* is a
    :class:`SubsetCover` that holds nothing until the voucher (module
    docstring) has run, and from then on holds the passing subsets.
    The voucher is one rank test, against A's cut *cut*, of every subset
    of c* columns, c* being the size in [top, min(m, n)] with the fewest
    subsets, made when :func:`_covers` says.
    """
    m, n = a.shape
    return _covers(n, top, min(m, n), lambda c: _cover(n, c, [
        idx[column_stacks(a, idx, cut)[2]] for idx in subset_batches(n, c)]))


def residual_covers(a: np.ndarray, b: np.ndarray, top: int, tol: float):
    """Which supports of up to *top* columns least squares cannot fit to *tol*.

    Yields ``(card, covered)`` for each size 1..*top*.  *covered* is a
    :class:`SubsetCover` that holds nothing until the voucher (module
    docstring) has run, and from then on holds the certified Us.  The
    voucher is the R factor of [A_U | B] for every U of u* columns, u*
    being the size in [top, min(m - 1, n)] with the fewest subsets, made
    when :func:`_covers` says.  U is certified when
    ``||R[u*:, u*:]||_F``, which is ``||Q_perp^T B||_F``, exceeds *tol*
    plus the rounding allowance ``m * n * eps * (||B||_F + tol) /
    sqrt(REL_EIG_TOL)``, the same as for the product of a complete QR.
    The caller skips every covered support, at any rank; the allowance
    holds for the full-rank ones, an empirical margin for the others
    (module docstring).
    """
    m, n = a.shape
    return _covers(n, top, min(m - 1, n), lambda u: _residual_voucher(a, b, u, tol))


def min_support_size(a: np.ndarray, b: np.ndarray, tol: float) -> int:
    """The smallest size c whose tail ``||sigma_{c+1:}(B)||`` is at most
    *tol* plus the rounding allowance: no support of fewer columns fits B
    to *tol* (module docstring)."""
    m, n = a.shape
    sigma = np.linalg.svd(b, compute_uv=False)
    tails = np.sqrt(np.cumsum(sigma[::-1] ** 2)[::-1])     # tails[c] = ||sigma[c:]||
    return 1 + int(np.count_nonzero(tails[1:] > tol + _allowance(m, n, b, tol)))


class SubsetCover:
    """The subsets of range(n) that a voucher covers: every subset of a set
    it certified.  *table* is a table over column bit masks (column j is
    bit n - 1 - j), true for every subset of a certified set.  In this
    numbering the masks of one size fall in lexicographic order when read
    downward, so the subsets it leaves are listed straight off the table,
    without generating the ones it covers.  A *table* of True holds every
    subset (a voucher that certifies every set of its size builds no
    table, and its callers ask only about subsets of at most that size),
    and one of False holds none (no voucher has run, or it certified
    nothing): that cover lists every subset, as :func:`subset_batches`.
    """

    def __init__(self, n: int, table: np.ndarray | bool):
        self._n, self._table = n, table
        if not isinstance(table, bool):
            # one scan of the table serves every size uncovered() is asked for;
            # _free_pop counts the bits set in each mask it leaves
            self._free = np.flatnonzero(~table)
            self._free_pop = sum((self._free >> j) & 1 for j in range(n))

    def uncovered(self, card: int):
        """Every *card*-subset the cover does not hold, in lexicographic
        order, as int8 index arrays of at most ``_CHUNK`` rows; none when
        there is no such subset."""
        if isinstance(self._table, bool):
            if not self._table:
                yield from subset_batches(self._n, card)
            return
        masks = self._free[self._free_pop == card][::-1]
        held = masks[:, None] & (1 << np.arange(self._n - 1, -1, -1)) != 0  # column j: bit n-1-j
        rows = np.nonzero(held)[1].astype(np.int8).reshape(-1, card)
        for start in range(0, len(rows), _CHUNK):
            yield rows[start:start + _CHUNK]


def _cover(n: int, size: int, certified: list[np.ndarray]) -> SubsetCover:
    """The :class:`SubsetCover` of the certified *size*-subsets of range(n),
    given as index batches; no table when none or all C(n, size) are."""
    count = sum(map(len, certified))
    if not count:
        return SubsetCover(n, False)
    if count == math.comb(n, size):
        return SubsetCover(n, True)
    table = np.zeros(1 << n, dtype=bool)        # indexed by column bit mask
    for idx in certified:
        table[(np.int64(1) << (n - 1 - idx)).sum(axis=1)] = True
    return SubsetCover(n, _close_downward(table))


#: For bit i < 6 of a column bit mask, the bits of a 64-bit word of the
#: packed table whose position has bit i clear.
_IN_WORD = tuple(map(np.uint64, (0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
                                 0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF)))


def _close_downward(table: np.ndarray) -> np.ndarray:
    """The table over the 2**n column bit masks with every subset of a
    marked mask marked.

    Closing bit i ORs each mask's entry with that of the mask plus bit i.
    The table is packed into little-endian 64-bit words (padded to one
    word), entry t at bit t % 64 of word t // 64, so bits 0-5 are closed
    inside each word by a shift and a mask, and bits 6 and up by ORing
    runs of 2**(i - 6) words, then the words are unpacked once.
    """
    n = table.size.bit_length() - 1
    packed = np.packbits(table, bitorder="little")
    words = np.zeros(max(1, packed.size // 8), dtype="<u8")
    words.view(np.uint8)[:packed.size] = packed
    for i in range(min(6, n)):
        words |= (words >> np.uint64(1 << i)) & _IN_WORD[i]
    for i in range(6, n):
        pairs = words.reshape(-1, 2, 1 << (i - 6))
        pairs[:, 0] |= pairs[:, 1]
    return np.unpackbits(words.view(np.uint8), count=table.size,
                         bitorder="little").view(bool)


def _allowance(m: int, n: int, b: np.ndarray, tol: float) -> float:
    """The rounding allowance of :func:`residual_covers` and
    :func:`min_support_size`: ``m * n * eps * (||B||_F + tol) / sqrt(REL_EIG_TOL)``."""
    eps = float(np.finfo(float).eps)
    return m * n * eps * (float(np.linalg.norm(b)) + tol) / math.sqrt(REL_EIG_TOL)


def _residual_voucher(a: np.ndarray, b: np.ndarray, u: int, tol: float):
    """The cover :func:`residual_covers` yields after testing every U of
    *u* columns."""
    m, n = a.shape
    limit = tol + _allowance(m, n, b, tol)
    ab = np.concatenate((a, b), axis=1)
    rhs = np.arange(n, ab.shape[1])                 # B's columns in [A | B]
    rows = min(m, ab.shape[1])                      # R's rows
    certified = []
    for idx in subset_batches(n, u):
        cols = np.concatenate((idx, np.broadcast_to(rhs, (len(idx), rhs.size))), axis=1)
        # the raw factor of [A_U | B] holds R transposed in its upper part
        h = np.linalg.qr(np.moveaxis(ab[:, cols], 1, 0), mode="raw")[0]
        tail = np.triu(h[:, u:, u:rows].transpose(0, 2, 1))    # R[u:, u:]
        certified.append(idx[np.linalg.norm(tail, axis=(1, 2)) > limit])
    return _cover(n, u, certified)


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
    return gram_spectrum(a)._min_norm(as_matrix(b, name="B"))
