from __future__ import annotations

import json
from collections import Counter
from importlib import resources

import numpy as np
import pytest

import jointsparse
from jointsparse import bounds, cli, generators, linalg, norms, nsc, solvers
from jointsparse.solvers import MmvProblem, problem_from_json


def _packaged(name: str) -> MmvProblem:
    raw = resources.files("jointsparse.data").joinpath(f"{name}.json").read_text()
    return problem_from_json(json.loads(raw))


# One problem per test: a problem keeps the spectrum a solver reads from it,
# so a shared one would let one test's decomposition serve another's.
@pytest.fixture()
def example1() -> MmvProblem:
    return _packaged("example1")


@pytest.fixture()
def example2() -> MmvProblem:
    return _packaged("example2")


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture()
def decomposed(monkeypatch) -> list[int]:
    """Batch sizes of the 3-D ``eigvalsh`` calls made while the test runs:
    their sum is the number of column subsets whose Gram matrix was
    decomposed."""
    batches: list[int] = []

    def spy(mat, *args, _real=np.linalg.eigvalsh, **kwargs):
        if np.ndim(mat) == 3:
            batches.append(np.shape(mat)[0])
        return _real(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return batches


@pytest.fixture()
def solved(monkeypatch) -> list[int]:
    """Batch sizes of the 3-D ``np.linalg.solve`` calls made while the test
    runs: their sum is the number of supports ``l20_solve`` solved by their
    normal equations."""
    batches: list[int] = []

    def spy(mat, *args, _real=np.linalg.solve, **kwargs):
        if np.ndim(mat) == 3:
            batches.append(np.shape(mat)[0])
        return _real(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", spy)
    return batches


@pytest.fixture()
def stacked(monkeypatch) -> list[int]:
    """Row counts of the index batches ``l20_solve`` passes to
    ``column_stacks`` while the test runs: their sum is the number of
    supports it enumerated."""
    batches: list[int] = []

    def spy(a, idx, *args, _real=solvers.column_stacks, **kwargs):
        batches.append(len(idx))
        return _real(a, idx, *args, **kwargs)

    monkeypatch.setattr(solvers, "column_stacks", spy)
    return batches


@pytest.fixture()
def scored(monkeypatch) -> list[int]:
    """Row counts of the ``theta_top_k`` calls ``nsc`` makes while the test
    runs.  An ascent makes one per scoring batch, so their number is the
    number of batches and their sum the number of rows scored.  A batch is
    scored whole, ``nsc._WINDOW`` rows per live start (the first, of the
    starts themselves, one row each): the probes, and the rows a start's
    window holds after its first win in it, past its sweep's end or at
    c = 0.  An estimate scores its vertices (the kernel generator at
    nullity 1, else A's circuits) before any other call, one row per
    vertex, in calls of up to ``linalg._CHUNK`` rows.  After an ascent, the
    certificates ``nsc_curve`` carried in, if any, are scored in one more
    call; the best circuit's score is reused."""
    batches: list[int] = []

    def spy(norms, *args, _real=nsc.theta_top_k, **kwargs):
        batches.append(np.shape(norms)[0])
        return _real(norms, *args, **kwargs)

    monkeypatch.setattr(nsc, "theta_top_k", spy)
    return batches


@pytest.fixture()
def spectra(monkeypatch) -> list[np.ndarray]:
    """The matrices ``linalg.gram_spectrum`` decomposes while the test runs,
    called through any module: one entry per decomposition of A^T A.  A
    spectrum passed in comes back unchanged and is not recorded."""
    seen: list[np.ndarray] = []

    def spy(a, _real=linalg.gram_spectrum):
        if not isinstance(a, linalg.GramSpectrum):
            seen.append(a)
        return _real(a)

    for mod in (linalg, solvers, bounds, nsc, cli):
        monkeypatch.setattr(mod, "gram_spectrum", spy)
    return seen


@pytest.fixture()
def exact_solves(monkeypatch) -> list[int | None]:
    """The ``k_max`` of each ``l20_solve`` call made while the test runs,
    through ``solvers`` or ``cli``."""
    caps: list[int | None] = []

    def spy(prob, k_max=None, *args, _real=solvers.l20_solve, **kwargs):
        caps.append(k_max)
        return _real(prob, k_max, *args, **kwargs)

    for mod in (solvers, cli):
        monkeypatch.setattr(mod, "l20_solve", spy)
    return caps


@pytest.fixture()
def validations(monkeypatch) -> Counter:
    """Calls of ``linalg.as_matrix`` and of ``norms``' validating row-norm
    functions made while the test runs, through any module, by name."""
    calls: Counter = Counter()
    for real in (linalg.as_matrix, norms.row_norms, norms.row_support,
                 norms.mixed_norm_2p, norms.theta):
        def spy(*args, _real=real, **kwargs):
            calls[_real.__name__] += 1
            return _real(*args, **kwargs)

        for mod in (jointsparse, bounds, cli, generators, linalg, norms, nsc, solvers):
            if getattr(mod, real.__name__, None) is real:
                monkeypatch.setattr(mod, real.__name__, spy)
    return calls
