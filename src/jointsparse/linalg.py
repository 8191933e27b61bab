"""Dense matrix utilities: validation, serialization, spectra, nullspaces.

Matrices are plain float64 numpy arrays, validated and frozen (read-only) on
the way in.  Everything spectral about a matrix A comes from one LAPACK
eigendecomposition of A^T A, made by :func:`gram_spectrum`, which also owns
the rank rule: an eigenvalue at or below ``REL_EIG_TOL * lambda_max`` is
zero.  The public spectral functions each read from one such decomposition,
and the solvers take one per call and read everything from it.
:func:`column_subsets` applies the same cut to every column subset it
enumerates.
"""

from __future__ import annotations

import itertools
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


def column_subsets(a: np.ndarray, card: int, cut: float):
    """Every column subset S of A with |S| = *card*, in batches.

    Subsets come in lexicographic order (that of ``itertools.combinations``),
    at most ``_CHUNK`` per batch.  Each batch is ``(subsets, sub, gram,
    full_rank)``: the subsets as 0-based index tuples, the stack A_S of shape
    (c, m, card), the stack A_S^T A_S of shape (c, card, card), and whether
    each Gram matrix's smallest eigenvalue clears *cut*, the rank cut of A
    from :func:`gram_spectrum`.  The caller checks :func:`check_enumerable`.
    """
    combos = itertools.combinations(range(a.shape[1]), card)
    while True:
        subsets = list(itertools.islice(combos, _CHUNK))
        if not subsets:
            return
        sub = np.moveaxis(a[:, np.array(subsets, dtype=int)], 1, 0)   # (c, m, card)
        gram = sub.transpose(0, 2, 1) @ sub                          # (c, card, card)
        full_rank = np.linalg.eigvalsh(gram)[:, 0] > cut
        yield subsets, sub, gram, full_rank


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
