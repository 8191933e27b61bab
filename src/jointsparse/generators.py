"""Deterministic problem generators and the portable random stream behind them.

Randomness contract
-------------------
All seeded draws in this package go through :class:`PortableRng`, built on the
Philox 4x64 counter-based generator keyed by ``(seed, stream)``:

* uniforms take the top 53 bits of each raw 64-bit word:
  ``u = ((raw >> 11) + 1) * 2**-53``, so ``u`` lies in (0, 1];
* normals come from the Box-Muller transform applied to consecutive uniform
  pairs ``(u1, u2)``: ``z0 = sqrt(-2 ln u1) cos(2 pi u2)``,
  ``z1 = sqrt(-2 ln u1) sin(2 pi u2)``, consumed in (z0, z1) order;
* integer draws in [0, n) are ``floor(u * n)`` with ``u`` uniform in [0, 1)
  (i.e. the same 53-bit uniform minus the +1 offset);
* k-subsets come from a partial Fisher-Yates shuffle of [0, n), taking one
  integer draw per selected element, reported sorted.

The raw word stream is consumed strictly left to right, so any implementation
of Philox 4x64-10 reproduces every draw bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .errors import DomainError, DuplicateNodes
from .linalg import as_matrix
from .norms import check_count, check_grid, check_real, check_seed

_TWO_NEG53 = 2.0 ** -53
# GenSpec.amplitude's range (the GenSpec docstring gives the reason)
AMPLITUDE_MIN, AMPLITUDE_MAX = 1e-100, 1e100


class PortableRng:
    """Counter-based random stream: Philox 4x64 keyed by (seed, stream)."""

    def __init__(self, seed: int, stream: int = 0):
        check_seed("seed", seed)
        check_seed("stream", stream)
        self.seed = int(seed)
        self.stream = int(stream)
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self._bg = np.random.Philox(key=key)

    def raw(self, count: int) -> np.ndarray:
        """Next *count* raw uint64 words."""
        check_count("count", count, 0)
        return self._bg.random_raw(count)

    def uniform_open(self, count: int) -> np.ndarray:
        """Uniforms in (0, 1]: top 53 bits, shifted off zero."""
        return (np.right_shift(self.raw(count), np.uint64(11)) + 1.0) * _TWO_NEG53

    def uniform(self, count: int) -> np.ndarray:
        """Uniforms in [0, 1): top 53 bits."""
        return np.right_shift(self.raw(count), np.uint64(11)) * _TWO_NEG53

    def normal(self, shape) -> np.ndarray:
        """Standard normals via Box-Muller, filled in C order; *shape* is a
        count or a tuple of them."""
        dims = shape if isinstance(shape, tuple) else (shape,)
        for dim in dims:
            check_count("shape", dim, 0)
        total = math.prod(dims)
        pairs = (total + 1) // 2
        u = self.uniform_open(2 * pairs)
        u1, u2 = u[0::2], u[1::2]
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * math.pi * u2
        z = np.empty(2 * pairs)
        z[0::2] = radius * np.cos(angle)
        z[1::2] = radius * np.sin(angle)
        return z[:total].reshape(shape)

    def integer_below(self, n: int) -> int:
        """One integer uniform on [0, n)."""
        check_count("n", n, 1)
        # The scalar form of uniform(1)[0]: the same word and the same two
        # exact operations, without building arrays for a single draw.
        return int((self._bg.random_raw() >> 11) * _TWO_NEG53 * n)

    def subset(self, n: int, k: int) -> tuple[int, ...]:
        """A uniform k-subset of {0, ..., n-1} via partial Fisher-Yates, sorted."""
        check_count("n", n, 0)
        check_count("k", k, 0, n)
        pool = list(range(n))
        for i in range(k):
            j = i + self.integer_below(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return tuple(sorted(pool[:k]))


# ---------------------------------------------------------------------------
# generation specs


@dataclass(frozen=True)
class GenSpec:
    """Recipe for a reproducible MMV instance.

    kind is "gaussian" (i.i.d. normal A) or "vandermonde" (nodes**row powers);
    k = 0 is allowed and plants the zero solution.  Every field is checked
    when the spec is built, and the counts and the seed are kept as ``int``
    (a numpy integer is accepted and converted, so ``to_json`` always
    serializes).

    ``amplitude`` lies in [``AMPLITUDE_MIN``, ``AMPLITUDE_MAX``] = [1e-100,
    1e100], so that no draw, product or norm leaves the float range.  A
    normal draw is below 8.6 in magnitude (its uniform is at least 2**-53),
    so a planted entry is below 8.6e100, an entry of a Gaussian B = A X
    below 7.4e101 k, and a Frobenius norm of B sums m r squares below
    5.5e203 k^2 each, far under the float maximum 1.8e308 on any shape that
    fits in memory.  At the low end a planted row the redraw rule in
    ``gen_problem`` accepts has norm at least 1e-101, whose square is still
    a normal float; with an amplitude near 1e-300 every row's squared norm
    underflows to 0 and the redraw never ends.
    """

    kind: str
    m: int
    n: int
    r: int
    k: int
    seed: int
    nodes: tuple[float, ...] | None = None
    amplitude: float = 1.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "vandermonde"):
            raise DomainError(f"kind must be 'gaussian' or 'vandermonde', got {self.kind!r}")
        for label in ("m", "n", "r"):
            check_count(label, getattr(self, label), 1)
        check_count("k", self.k, 0, min(self.m // 2, self.n))
        check_seed("seed", self.seed)
        for label in ("m", "n", "r", "k", "seed"):
            object.__setattr__(self, label, int(getattr(self, label)))
        check_real("amplitude", self.amplitude, AMPLITUDE_MIN, AMPLITUDE_MAX)
        if self.nodes is not None:
            object.__setattr__(self, "nodes", _check_nodes(self.nodes))
            if len(self.nodes) != self.n:
                raise DomainError(f"nodes length {len(self.nodes)} != n = {self.n}")

    def to_json(self) -> dict:
        out = asdict(self)
        if self.nodes is None:
            del out["nodes"]
        return out


def _check_nodes(nodes) -> tuple[float, ...]:
    """Vandermonde nodes as floats: DomainError unless *nodes* is a
    non-empty sequence of finite reals, DuplicateNodes unless they are
    pairwise distinct."""
    values = tuple(check_grid("nodes", nodes))
    if len(set(values)) != len(values):
        raise DuplicateNodes("nodes must be pairwise distinct")
    return values


def genspec_from_json(obj) -> GenSpec:
    """The GenSpec a JSON object spells out field by field; an omitted
    field takes its default, and the fields without one are required."""
    if not isinstance(obj, dict):
        raise DomainError("GenSpec JSON must be an object")
    spec_fields = fields(GenSpec)
    unknown = set(obj) - {f.name for f in spec_fields}
    if unknown:
        raise DomainError(f"GenSpec JSON has unknown fields: {sorted(unknown)}")
    missing = {f.name for f in spec_fields if f.default is MISSING} - set(obj)
    if missing:
        raise DomainError(f"GenSpec JSON is missing fields: {sorted(missing)}")
    return GenSpec(**obj)


def gen_vandermonde(nodes, m: int) -> np.ndarray:
    """The m x len(nodes) matrix with entries nodes[j] ** i, i = 0..m-1."""
    t = np.array(_check_nodes(nodes))
    check_count("m", m, 1)
    powers = np.arange(m).reshape(-1, 1)
    with np.errstate(over="ignore"):        # an overflow leaves inf, which as_matrix refuses
        return as_matrix(t.reshape(1, -1) ** powers, name="vandermonde")


def default_nodes(n: int) -> tuple[float, ...]:
    """Equispaced nodes on [-1, 1] used when a vandermonde spec omits nodes."""
    return tuple(float(t) for t in np.linspace(-1.0, 1.0, n))


def gen_problem(spec: GenSpec):
    """Materialize a GenSpec into an MmvProblem with a planted k-row solution.

    Draw order from PortableRng(spec.seed): first A (gaussian kind only,
    m*n normals in row-major order), then the support (k-subset of rows),
    then each planted row in ascending row order (r normals each, redrawn
    whole while its 2-norm is below 0.1 * amplitude).
    """
    from .solvers import MmvProblem  # local import: solvers depends on this module

    rng = PortableRng(spec.seed)
    if spec.kind == "gaussian":
        a = rng.normal((spec.m, spec.n))
    else:
        nodes = spec.nodes if spec.nodes is not None else default_nodes(spec.n)
        a = gen_vandermonde(nodes, spec.m)
    support = rng.subset(spec.n, spec.k)
    x = np.zeros((spec.n, spec.r))
    for i in support:
        row = rng.normal(spec.r) * spec.amplitude
        while float(np.sqrt(row @ row)) < 0.1 * spec.amplitude:
            row = rng.normal(spec.r) * spec.amplitude
        x[i] = row
    with np.errstate(over="ignore", invalid="ignore"):   # inf or inf - inf: MmvProblem refuses it
        b = a @ x
    return MmvProblem(a=a, b=b, planted=x, k=spec.k if spec.k > 0 else None)


__all__ = [
    "PortableRng",
    "GenSpec",
    "genspec_from_json",
    "gen_vandermonde",
    "default_nodes",
    "gen_problem",
]
