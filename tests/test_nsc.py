from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest

from jointsparse.errors import DomainError, EnumerationTooLarge, TrivialNullspace
from jointsparse.generators import GenSpec, PortableRng, gen_problem
from jointsparse.linalg import circuits, gram_spectrum
from jointsparse.norms import RowSupport, _row_norms, row_support, theta, theta_max_over_S
from jointsparse.norms import theta_top_k
from jointsparse.nsc import (
    _WINDOW,
    NscOptions,
    _estimate,
    _kernel,
    estimate_to_json,
    max_recoverable_k,
    nsc_curve,
    nsc_estimate,
    spark,
)

from oracles import nsc_serial_ascent, nsc_sphere_oracle, spark_bottom_up

# Frozen values for the bundled 4x5 example (nullity 1, so exact): the
# constant at k = 2 over kernel columns, independent of r.
EX2_H = {0.0: 2.0 / 3.0, 0.5: 1.9285862938389415, 1.0: 5.089554457757596}

DEFAULT_GRID = [round(0.1 * i, 1) for i in range(11)]

# nsc_curve on the generated Gaussian 4x7 matrices of GenSpec seeds 1 and 2
# (nullity 3; k = 2, NscOptions(seed=<same>, restarts=8)) over the default
# grid.  Per p: the value, the support, the first 16 hex digits of sha256
# over the bytes of the certificate as reported at r = 2 (n x 2, its
# second column zero), and the number of c the
# one-start-at-a-time ascent scored (none at p = 0 and p = 1, where the
# best of the 21 circuits is exact).
FROZEN_CURVES = {
    1: [
        (0.0, 0.6666666666666666, (1, 4), "b693e7ed9936c900", 0),
        (0.1, 0.9076070816453923, (6, 7), "5b0b1c188671cc80", 2591),
        (0.2, 1.22538018440052, (6, 7), "5b0b1c188671cc80", 2640),
        (0.3, 1.6417689355782836, (6, 7), "5b0b1c188671cc80", 2989),
        (0.4, 2.1844264105475553, (6, 7), "5b0b1c188671cc80", 3049),
        (0.5, 2.8885316530017957, (6, 7), "5b0b1c188671cc80", 3302),
        (0.6, 3.7989206517253518, (6, 7), "5b0b1c188671cc80", 3327),
        (0.7, 4.972819370605339, (6, 7), "5b0b1c188671cc80", 3401),
        (0.8, 6.483341875873324, (6, 7), "5b0b1c188671cc80", 3749),
        (0.9, 8.423963581132623, (6, 7), "5b0b1c188671cc80", 3738),
        (1.0, 11.101190580830764, (6, 7), "c8aaf936bbdac79f", 0),
    ],
    2: [
        (0.0, 0.6666666666666666, (1, 2), "5fb9f1aa9861bc75", 0),
        (0.1, 0.900015752834095, (2, 3), "4be23f8dbe2bfeef", 2397),
        (0.2, 1.1771101279822092, (2, 3), "4be23f8dbe2bfeef", 2531),
        (0.3, 1.5018950087868104, (2, 3), "4be23f8dbe2bfeef", 2712),
        (0.4, 1.8819304568210933, (2, 3), "4be23f8dbe2bfeef", 2880),
        (0.5, 2.3918607460687777, (2, 3), "cf077f9c9985285d", 3097),
        (0.6, 3.0768793491471444, (2, 3), "cf077f9c9985285d", 3375),
        (0.7, 3.954881815762664, (2, 3), "cf077f9c9985285d", 3615),
        (0.8, 5.080131592151116, (2, 3), "cf077f9c9985285d", 3582),
        (0.9, 6.522278167433919, (2, 3), "cf077f9c9985285d", 4327),
        (1.0, 8.370761429850107, (2, 3), "cf077f9c9985285d", 0),
    ],
}


# nsc_estimate(gaussian_4x7(11), 2, 0.5, NscOptions(seed=0, restarts=8)):
# its probes, support and certificate digest (as reported at r = 2), and
# its theta_top_k calls and the rows the ascent's batches scored.
PROBES, PROBES_SUPPORT, PROBES_DIGEST = 2423, (1, 6), "3254982fa5d8302b"
BATCHES = (43, 4236)


def gaussian_4x7(seed: int) -> np.ndarray:
    return gen_problem(GenSpec("gaussian", 4, 7, 2, 2, seed)).a


def digest(x: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()[:16]


def embedded(est, r: int) -> np.ndarray:
    """The n x r certificate ``estimate_to_json`` writes for *est*."""
    return np.array(estimate_to_json(est, r)["certificate_X"])


def nsc_pool(seed: int) -> list[np.ndarray]:
    """The 16 Gaussian 4x7 matrices of the ``nsc`` benchmark pool at *seed*."""
    return [gen_problem(GenSpec("gaussian", 4, 7, 2, 2, int(w >> 2))).a
            for w in PortableRng(seed, 3).raw(16)]


def best_vertex(a: np.ndarray, k: int, p: float):
    """The circuit of A that ``nsc_estimate`` scores best, found one circuit
    at a time by the public ``theta_max_over_S``: the largest value, then
    the smaller support, then the first.  (circuit, value, 1-based
    support), or None when A has no circuit."""
    spec = gram_spectrum(a)
    best = None
    for x in circuits(spec.a, spec.cut):
        val, sup = theta_max_over_S(p, x[:, None], k)
        if best is None or val > best[1] or (val == best[1] and sup.indices < best[2]):
            best = x, val, sup.indices
    return best


def estimate(a: np.ndarray, k: int, p: float, opts: NscOptions, carried=()):
    """``nsc_estimate`` with the coefficient vectors (d, 1) *carried* passed
    in, as ``nsc_curve`` passes its earlier certificates."""
    basis, verts = _kernel(gram_spectrum(a), k)
    return _estimate(basis, verts, k, p, opts, carried)


def serial(a: np.ndarray, k: int, p: float, seed: int, restarts: int, carried=(),
           wins: list | None = None):
    """What :func:`estimate` reports for A of nullity 2 or more, by the
    serial oracle: the best circuit normalized at k = 1, at p = 0 and
    p = 1, and where it is +inf, else the ascent with that circuit's kernel
    coefficients, then the *carried* coefficient vectors, as warm starts,
    and the circuit, then the carried vectors' kernel vectors, as
    candidates after the ascent."""
    basis = gram_spectrum(a).kernel
    cands = tuple(basis @ w for w in carried)
    vertex = best_vertex(a, k, p)
    if vertex is None:
        return nsc_serial_ascent(a, k, p, seed, restarts, carried, cands, wins=wins)
    x, value, support = vertex
    if k == 1 or p in (0.0, 1.0) or math.isinf(value):
        x = x[:, None] / np.linalg.norm(x)
        return theta(p, x, RowSupport(support, n=x.shape[0])), support, x, 0, -1
    return nsc_serial_ascent(a, k, p, seed, restarts, (basis.T @ x,) + tuple(carried),
                             (x[:, None],) + cands, wins=wins)


def assert_matches(est, value, support, x, probes, start, name=""):
    """*est* is the serial result (value, support, x, probes, start), x
    its (n, 1) certificate bit for bit."""
    assert est.value == value, name
    assert est.certificate_support.indices == support, name
    assert est.certificate_x.shape == x.shape == (x.shape[0], 1), name
    assert digest(est.certificate_x) == digest(x), name
    assert (est.probes, est.start) == (probes, start), name


def ascent_population():
    """Seeded (name, A, k, p, seed, restarts, carried) for the ascent.

    40 Gaussian 2x4 and 3x5 matrices (nullity 2) run through every p in
    {0, 0.1, 0.5, 1}, with k 1 or 2, some seeded restarts, and 1 to 3
    carried coefficient vectors (d, 1) on some of them.  Then a matrix with
    zero columns whose value is +inf: its unit starts and its circuits are
    +inf from the outset, and its best circuit is exact.  Last, the third
    instance of the ``nsc`` benchmark pool (seed 3): 4x7, nullity 3.
    """
    rng = np.random.default_rng(909)
    for i in range(40):
        r, p = 1 + (i // 4) % 3, (0.0, 0.1, 0.5, 1.0)[i % 4]
        m, n = (2, 4) if i % 3 else (3, 5)
        a = rng.standard_normal((m, n))
        carried = ()
        if i % 7 == 3:
            w = rng.standard_normal((n - m, r))
            carried = tuple(w[:, [j]] for j in range(r))
        yield f"gaussian {i}", a, 1 + i % 2, p, i, int(i % 5 == 2), carried
    half = (np.full((4, 1), 0.5),)      # one step from a c on 3 rows
    yield "zero columns", np.array([[1.0, 0, 0, 0, 0]]), 3, 0.5, 0, 0, half
    yield "nsc pool", nsc_pool(3)[2], 2, 0.1, 0, 64, ()


def first_wins_at_ends(wins, sweep_len: int) -> set[str]:
    """Where in the ascent's scoring windows the serial ascent's wins fall.

    ``wins`` holds (start, sweep, place) as ``nsc_serial_ascent`` records
    them.  A start's sweep opens a window at place 0, and after each window
    the next opens on the probe after its win, or ``_WINDOW`` places on when
    it had none.  Returns "window end" if a win is the last probe of a full
    window before the sweep's end, and "sweep end" if a win is a sweep's
    last probe.
    """
    sweeps: dict[tuple[int, int], list[int]] = {}
    for start, sweep, place in wins:
        sweeps.setdefault((start, sweep), []).append(place)
    ends = set()
    for places in sweeps.values():
        opened = 0
        for place in places:
            opened += (place - opened) // _WINDOW * _WINDOW
            if place == sweep_len - 1:
                ends.add("sweep end")
            elif place - opened == _WINDOW - 1:
                ends.add("window end")
            opened = place + 1
    return ends


# (m, n, r, k, GenSpec seed) of Gaussian matrices whose ascent at p = 0.5,
# with the seed's one restart, takes a first win at the named place; the
# certificate is also reported at r columns, and theta of that is the value.
WINDOW_CASES = {
    "window end": ((2, 6, 3, 1, 0), {"window end"}),
    "sweep end": ((2, 4, 3, 1, 1), {"sweep end"}),
    "r 8, reduced row norms": ((2, 4, 8, 1, 0), set()),
}


class TestExactPath:
    def test_frozen_values(self, example2):
        for p, want in EX2_H.items():
            est = nsc_estimate(example2.a, 2, p, NscOptions(seed=0))
            assert est.exact is True
            assert est.certificate_support.indices == (1, 3)
            if p == 0.0:
                assert est.value == want       # exact rational in binary
            else:
                assert est.value == pytest.approx(want, abs=1e-9)

    def test_r_independence(self, example2):
        # the certificate reported on n x r matrices is the kernel vector in
        # column 0, zeros elsewhere, and theta of it is the value bit for bit
        for p in (0.0, 0.3, 0.7, 1.0):
            est = nsc_estimate(example2.a, 2, p, NscOptions(seed=0))
            for r in (1, 2, 3):
                x = embedded(est, r)
                assert x.shape == (5, r)
                assert np.array_equal(x[:, :1], est.certificate_x) and not x[:, 1:].any()
                assert theta(p, x, est.certificate_support) == est.value

    def test_certificate_reproduces_value(self, example2):
        for p in (0.0, 0.25, 0.5, 0.8, 1.0):
            est = nsc_estimate(example2.a, 2, p, NscOptions(seed=0))
            again = theta(p, est.certificate_x, est.certificate_support)
            assert again == est.value

    def test_certificate_lies_in_kernel(self, example2):
        est = nsc_estimate(example2.a, 2, 0.5, NscOptions(seed=0))
        assert np.linalg.norm(example2.a @ est.certificate_x) <= 1e-10
        assert est.certificate_x.shape == (5, 1)
        assert not est.certificate_x.flags.writeable
        assert np.linalg.norm(est.certificate_x) == pytest.approx(1.0, abs=1e-12)


class TestAscentPath:
    def test_matches_dense_sphere_oracle(self):
        # nullity-2 targets: the ascent must come within grid resolution of a
        # brute-force sweep over the coefficient sphere
        for seed in (7, 11, 23):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal((4, 6))
            est = nsc_estimate(a, 2, 0.5, NscOptions(seed=3))
            assert est.exact is False
            grid_best = nsc_sphere_oracle(a, 1, 2, 0.5, per_axis=600)
            assert est.value >= grid_best - 1e-3
            again = theta(0.5, est.certificate_x, est.certificate_support)
            assert again == est.value

    def test_probes_match_the_serial_score_calls(self):
        # PROBES probes scored this instance when the ascent ran one start
        # and one probe at a time (5050 while the ascent searched r = 2
        # coefficient matrices)
        a = gaussian_4x7(11)
        est = nsc_estimate(a, 2, 0.5, NscOptions(seed=0, restarts=8))
        assert_matches(est, *serial(a, 2, 0.5, 0, 8))
        assert est.probes == PROBES
        assert est.certificate_support.indices == PROBES_SUPPORT
        assert digest(embedded(est, 2)) == PROBES_DIGEST

    def test_every_batch_holds_every_live_start(self, scored):
        # A batch holds the next _WINDOW probes of every live start's sweep.
        # Each batch is scored whole: the rows after a start's first win,
        # past its sweep's end and at c = 0 are scored but are not probes.
        # Before the ascent, one call scores A's 21 circuits; the best
        # circuit's score from that call is reused after it.
        est = nsc_estimate(gaussian_4x7(11), 2, 0.5, NscOptions(seed=0, restarts=8))
        assert est.probes == PROBES and est.vertices == 21
        assert scored[0] == 21 and scored[1] == 3 + 1 + 8
        assert (len(scored), sum(scored[2:])) == BATCHES

    @pytest.mark.parametrize("case", sorted(WINDOW_CASES))
    def test_windows_match_the_serial_ascent(self, case):
        # k = 1 is exact wherever circuits are scored, so the ascent runs
        # here on an empty vertex pool, as it does beyond the guard
        (m, n, r, k, seed), ends = WINDOW_CASES[case]
        a = gen_problem(GenSpec("gaussian", m, n, 1, 1, seed)).a
        wins: list[tuple[int, int, int]] = []
        got = nsc_serial_ascent(a, k, 0.5, seed, 1, wins=wins)
        assert first_wins_at_ends(wins, (n - m) * 4) >= ends
        basis = gram_spectrum(a).kernel
        est = _estimate(basis, np.empty((0, n)), k, 0.5, NscOptions(seed=seed, restarts=1), ())
        assert_matches(est, *got)
        assert theta(0.5, embedded(est, r), est.certificate_support) == est.value

    def test_population_matches_the_serial_ascent(self):
        values, seen = {}, set()
        for name, a, k, p, seed, restarts, carried in ascent_population():
            got = serial(a, k, p, seed, restarts, carried)
            est = estimate(a, k, p, NscOptions(seed=seed, restarts=restarts), carried)
            assert_matches(est, *got, name=name)
            assert est.exact is (k == 1 or p in (0.0, 1.0) or math.isinf(est.value)), name
            values[name] = est.value
            seen.add(p)
        assert len(values) == 42 and len(seen) == 4
        assert math.isinf(values["zero columns"])

    def test_winning_start_ascends_alone_to_the_same_certificate(self):
        # starts do not interact: the winner, rerun as the only carried
        # start next to the unit starts, wins again with the same
        # certificate.  The vertex pool is empty, so no circuit starts or
        # wins: the starts are the unit ones and the seeded draws, each
        # drawn here on its own.
        g = gaussian_4x7(11)
        a, d = np.vstack([g, g[0] + g[1]]), 3
        basis, none = gram_spectrum(a).kernel, np.empty((0, 7))
        opts = NscOptions(seed=4, restarts=8)
        for p, start in ((0.2, 5), (0.4, 7), (0.9, 0)):
            est = _estimate(basis, none, 2, p, opts, ())
            assert (est.start, est.vertices) == (start, 0)
            rng = PortableRng(opts.seed)
            draws = [rng.normal((d,)) for _ in range(start - d + 1)]
            carried = (draws[-1][:, None],) if start >= d else ()
            alone = _estimate(basis, none, 2, p, NscOptions(seed=4, restarts=0), carried)
            assert alone.start == min(start, d)
            assert alone.value == est.value
            assert np.array_equal(alone.certificate_x, est.certificate_x)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 6))
        one = nsc_estimate(a, 2, 0.6, NscOptions(seed=9))
        two = nsc_estimate(a, 2, 0.6, NscOptions(seed=9))
        assert one.value == two.value
        assert np.array_equal(one.certificate_x, two.certificate_x)

    def test_infinite_when_kernel_fits_in_k_rows(self):
        # a zero column puts a coordinate vector in the kernel, so S can
        # swallow the entire support of the certificate
        a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        est = nsc_estimate(a, 1, 0.5, NscOptions(seed=0))
        assert math.isinf(est.value)
        assert est.certificate_support.indices == (3,)

    def test_trivial_nullspace(self):
        with pytest.raises(TrivialNullspace):
            nsc_estimate(np.eye(4), 2, 0.5, NscOptions(seed=0))

    def test_argument_validation(self, example2):
        # r is not the library's: the CLI checks --r (test_cli)
        with pytest.raises(DomainError):
            nsc_estimate(example2.a, 0, 0.5, NscOptions(seed=0))
        with pytest.raises(DomainError):
            nsc_estimate(example2.a, 5, 0.5, NscOptions(seed=0))
        with pytest.raises(DomainError):
            nsc_estimate(example2.a, 2, 1.5, NscOptions(seed=0))
        with pytest.raises(DomainError):
            NscOptions(seed=-1)

    @pytest.mark.parametrize("zero_tol", [math.nan, -1e-8])
    def test_nan_or_negative_zero_tol_rejected(self, zero_tol):
        with pytest.raises(DomainError, match="zero_tol"):
            NscOptions(seed=0, zero_tol=zero_tol)

    @pytest.mark.parametrize("field, value", [
        ("seed", 1.5), ("seed", True), ("restarts", 2.5), ("restarts", True), ("restarts", -1)])
    def test_counts_must_be_integers_in_range(self, field, value):
        # 2.5 restarts used to escape as a bare TypeError from range
        opts = {"seed": 0, field: value}
        with pytest.raises(DomainError, match=field):
            NscOptions(**opts)


@pytest.mark.parametrize("r", range(1, 10))
def test_stack_row_norms_are_the_reduce_bit_for_bit(r):
    # norms' row-norm core: below 8 columns the squares are summed in column
    # order, from 8 on by np.add.reduce itself, which switches to blocked
    # summation there.  It takes stacks (P, n, r), as the ascent's (P, n, 1),
    # and single matrices (n, r), as nsc's certificates and those of
    # row_norms and the solvers, in either memory order.
    rng = np.random.default_rng(4100 + r)
    xs = rng.standard_normal((300, 7, r)) * rng.uniform(1e-3, 1e3, (300, 7, 1))
    for x in (xs, xs[0], xs.reshape(-1, r), np.asfortranarray(xs.reshape(-1, r))):
        want = np.sqrt(np.add.reduce(x * x, axis=-1))
        assert np.array_equal(_row_norms(x), want)


def generic_gaussians():
    """Seeded Gaussian (name, A) of nullity 3 or 4 and spark m + 1."""
    rng = np.random.default_rng(2011)
    for m, n in ((3, 6), (4, 7), (3, 7), (4, 8), (5, 9)):
        for i in range(2):
            yield f"{m}x{n} {i}", rng.standard_normal((m, n))


def rank_deficient():
    """Seeded (name, A) of rank below the row count: A = G H, Gaussian G
    (m x rank) and H (rank x n), each of spark rank + 1."""
    rng = np.random.default_rng(11)
    for m, n, rank in ((5, 7, 4), (8, 7, 5), (6, 9, 4)):
        g = rng.standard_normal((m, rank))
        yield f"{m}x{n} rank {rank}", g @ rng.standard_normal((rank, n))


class TestVertices:
    def test_p1_ascent_never_beats_the_best_circuit(self):
        # at p = 1 theta is linear-fractional on each sign cell, so no
        # kernel vector beats the best vertex: the serial ascent, run from
        # its unit and seeded starts alone, comes within rounding of it
        for name, a in generic_gaussians():
            for k in (1, 2):
                est = nsc_estimate(a, k, 1.0, NscOptions(seed=5))
                assert est.exact and (est.probes, est.start) == (0, -1), name
                assert est.vertices == math.comb(a.shape[1], a.shape[0] + 1), name
                assert_matches(est, *serial(a, k, 1.0, 5, 0), name=name)
                value = nsc_serial_ascent(a, k, 1.0, 5, 2)[0]
                assert value <= est.value * (1 + 1e-12), (name, k, value, est.value)

    def test_p0_best_circuit_is_the_spark_closed_form(self):
        # theta at p = 0 counts rows, and the sparsest kernel vector has
        # spark(A) of them: h(0) = k / (spark - k), which the best circuit
        # attains and the estimate reports as exact, with no ascent
        for name, a in generic_gaussians():
            for k in (1, 2):
                want = k / (spark(a) - k)
                assert best_vertex(a, k, 0.0)[1] == want, name
                est = nsc_estimate(a, k, 0.0, NscOptions(seed=0, restarts=4))
                assert (est.value, est.exact, est.probes) == (want, True, 0), name

    @staticmethod
    def closed_form(k: int, rows: int) -> float:
        """theta at p = 0 of a kernel vector with *rows* nonzero rows, k of
        them in S."""
        return k / (rows - k) if rows > k else math.inf

    # eps: in how many of the 12 cases (three Gaussian 3x7 and three 4x8
    # matrices, column 1 set to column 0 + eps * noise, k 1 and 2) the value
    # at p = 0 differs from k / (spark - k).  Circuits are scored as unit
    # rows; at 1e-8 this was 11 while zero_tol weighed their raw minors.
    P0_DISAGREEMENTS = {1e-2: 0, 1e-4: 10, 1e-6: 12, 1e-7: 12, 1e-8: 4, 1e-10: 0, 0.0: 0}

    @pytest.mark.parametrize("eps", sorted(P0_DISAGREEMENTS))
    def test_p0_counts_rows_by_zero_tol_not_by_the_rank_cut(self, eps):
        # spark classes columns as dependent by A's rank cut, theta counts
        # the rows of a circuit above zero_tol: on nearly dependent columns
        # the rules disagree, and the estimate follows theta's, from below
        differ = 0
        for m, n in ((3, 7), (4, 8)):
            for i in range(3):
                rng = np.random.default_rng(1000 * m + i)
                a = rng.standard_normal((m, n))
                a[:, 1] = a[:, 0] + eps * rng.standard_normal(m)
                s = spark(a)
                for k in (1, 2):
                    est = nsc_estimate(a, k, 0.0, NscOptions(seed=0))
                    rows = len(row_support(est.certificate_x))
                    assert est.exact and est.value == self.closed_form(k, rows), (m, i, k)
                    assert est.value <= self.closed_form(k, s), (m, i, k)
                    differ += est.value != self.closed_form(k, s)
        assert differ == self.P0_DISAGREEMENTS[eps]

    def test_no_circuit_scored_beyond_the_guard(self, scored):
        a = np.random.default_rng(3).standard_normal((18, 21))
        est = nsc_estimate(a, 1, 1.0, NscOptions(seed=0, restarts=0))
        assert (est.vertices, est.exact) == (0, False)
        assert scored[0] == 3                   # the unit starts, no circuit

    @staticmethod
    def nearly_dependent(eps: float):
        for m, n in ((3, 7), (4, 8)):
            for i in range(3):
                rng = np.random.default_rng(1000 * m + i)
                a = rng.standard_normal((m, n))
                a[:, 1] = a[:, 0] + eps * rng.standard_normal(m)
                yield f"{m}x{n} {i} eps {eps}", a

    def test_exact_value_is_the_best_unit_vertex_score(self):
        # each vertex is scored as its certificate reports it, a unit row.
        # On nearly dependent columns a circuit's raw minors can hold
        # entries below zero_tol that are rows once it is unit: scored raw,
        # 13 of these 24 cases at p = 0 reported less than the best vertex
        cases = [*generic_gaussians(), *rank_deficient(),
                 *self.nearly_dependent(1e-6), *self.nearly_dependent(1e-8)]
        for name, a in cases:
            for k in (1, 2):
                _, verts = _kernel(gram_spectrum(a), k)
                units = [x[:, None] / np.linalg.norm(x) for x in verts]
                for p in (0.0, 1.0):
                    best = max(theta_max_over_S(p, x, k)[0] for x in units)
                    est = nsc_estimate(a, k, p, NscOptions(seed=0, restarts=0))
                    assert est.exact and est.value == best, (name, k, p)

    @pytest.mark.parametrize("name", ["5x7 rank 4", "8x7 rank 5", "6x9 rank 4"])
    def test_rank_deficient_a_scores_the_circuits_of_a_row_basis(self, name):
        # a row basis of A has A's kernel, and so A's circuits: the vertex
        # rule holds at every rank, exact at p = 0 and p = 1
        a = dict(rank_deficient())[name]
        kernel = gram_spectrum(a).kernel
        for k in (1, 2):
            want = k / (spark(a) - k)
            for p in (0.0, 1.0):
                est = nsc_estimate(a, k, p, NscOptions(seed=0))
                assert est.exact and est.vertices > 0 and est.probes == 0, (k, p)
                x = est.certificate_x
                assert np.linalg.norm(x - kernel @ (kernel.T @ x)) <= 1e-12, (k, p)
                if p == 0.0:
                    assert est.value == want, k

    def test_zero_matrix_scores_the_coordinate_vectors(self):
        # rank 0: the row basis has no rows, and its circuits are the
        # coordinate vectors, each +inf with its one row in S.  h is a
        # supremum, so a +inf vertex is exact at every p and k: no ascent
        for k in (1, 2):
            for p in (0.0, 0.5, 1.0):
                est = nsc_estimate(np.zeros((2, 4)), k, p, NscOptions(seed=0))
                assert (est.value, est.exact, est.vertices) == (math.inf, True, 4), (k, p)
                assert (est.probes, est.restarts) == (0, 0), (k, p)
                assert est.certificate_support.indices == tuple(range(1, k + 1)), (k, p)

    def test_two_dimensional_sections_peak_at_a_vertex(self):
        # whether the best circuit is h at k >= 2 reduces to 2-D sections of
        # the kernel, on which theta is a function on a circle: on V = F R^2
        # (F n x 2), theta of x = F u over the circle |u| = 1 should peak
        # where a row of x vanishes.  Those vertices take that entry as an
        # exact 0; about 400 interior points of each arc between
        # consecutive vertices are scored densely.  A failure here is a
        # counterexample to the conjecture, not a tolerance to widen.
        rng = np.random.default_rng(2017)
        cases = 0
        for _ in range(40):
            n = int(rng.integers(5, 9))
            f = rng.standard_normal((n, 2))
            angle = np.arctan2(f[:, 0], -f[:, 1]) % np.pi   # row i of F u(t) is 0 there
            order = np.argsort(angle)
            ends = angle[order]
            verts = np.abs(f @ np.stack([np.cos(ends), np.sin(ends)]))  # (n, vertex)
            verts[order, np.arange(n)] = 0.0            # vertex j zeroes row order[j]
            arcs = np.append(ends, ends[0] + np.pi)
            t = (arcs[:-1, None] + np.diff(arcs)[:, None] * np.linspace(0, 1, 402)[1:-1]).ravel()
            dense = np.abs(f @ np.stack([np.cos(t), np.sin(t)]))
            for k in range(1, min(3, n - 2) + 1):
                for p in (0.2, 0.5, 0.8):
                    top = theta_top_k(verts.T, k, p, 0.0)[0].max()
                    inner = theta_top_k(dense.T, k, p, 0.0)[0].max()
                    assert inner <= top, (n, k, p, inner / top)
                    cases += 1
        assert cases == 360

    def test_k1_best_circuit_is_exact(self):
        # at k = 1, theta is quasi-convex on each sign cell of Ker(A), so
        # its maximum lies on an extreme ray, a circuit (module docstring):
        # the best circuit is reported with no ascent, and the serial
        # oracle's ascent, from its unit starts and a seeded one, never
        # beats it
        cases = [*generic_gaussians(), *rank_deficient(), *self.nearly_dependent(1e-6)]
        for name, a in cases:
            for p in (0.1, 0.5, 0.9):
                est = nsc_estimate(a, 1, p, NscOptions(seed=2))
                assert est.exact and (est.probes, est.restarts, est.start) == (0, 0, -1), name
                assert est.vertices > 0, name
                value = nsc_serial_ascent(a, 1, p, 2, 1)[0]
                assert value <= est.value * (1 + 1e-12), (name, p, value, est.value)


class TestRFree:
    """h(p, A, r, k) = h(p, A, 1, k): the estimate is made on kernel vectors,
    and a report on n x r matrices embeds its certificate in column 0."""

    MATRICES = {
        "4x7 pool": gen_problem(GenSpec("gaussian", 4, 7, 2, 2, 3064721759105622167)).a,
        "3x6": np.random.default_rng(8).standard_normal((3, 6)),
        "rank deficient 4x6": np.vstack([np.random.default_rng(9).standard_normal((3, 6))] * 2)[:4],
    }

    @pytest.mark.parametrize("name", sorted(MATRICES))
    def test_every_r_gives_the_r1_estimate_embedded(self, name):
        # estimate_to_json at r differs from r = 1 only in "r" and in the
        # certificate's zero columns, whose theta is still the value
        a, opts = self.MATRICES[name], NscOptions(seed=2, restarts=8)
        ests = [*nsc_curve(a, 2, [0.0, 0.1, 0.5, 1.0], opts), nsc_estimate(a, 2, 0.3, opts)]
        for est in ests:
            one = estimate_to_json(est, 1)
            assert one["certificate_X"] == est.certificate_x.tolist()
            for r in (2, 3):
                got = estimate_to_json(est, r)
                assert list(got) == list(one) and got["r"] == r
                assert {**got, "r": 1, "certificate_X": None} == {
                    **one, "certificate_X": None}
                x = np.array(got["certificate_X"])
                assert x.shape == (a.shape[1], r)
                assert np.array_equal(x[:, :1], est.certificate_x) and not x[:, 1:].any()
                assert theta(est.p, x, est.certificate_support) == est.value

    @pytest.mark.parametrize("r", [2, 3])
    def test_some_gaussian_combination_of_the_columns_does_as_well(self, r):
        # E over g ~ N(0, I_r) of |<x_i, g>|^p is E|Z|^p ||x_i||^p, so for X
        # with columns in Ker(A) some Xg has theta(Xg, S) >= theta(X, S)
        rng = np.random.default_rng(40 + r)
        for m, n in ((3, 6), (4, 7), (2, 6)):
            a = rng.standard_normal((m, n))
            basis = gram_spectrum(a).kernel
            for p in (0.0, 0.1, 0.5, 1.0):
                x = basis @ rng.standard_normal((n - m, r))
                s = RowSupport(tuple(sorted(rng.choice(n, 2, replace=False) + 1)), n=n)
                ys = x @ rng.standard_normal((r, 4096))           # (n, g)
                terms = (np.abs(ys) > 1e-8) if p == 0.0 else np.abs(ys) ** p
                inside = s.mask()
                ratio = terms[inside].sum(axis=0) / terms[~inside].sum(axis=0)
                y = ys[:, [int(np.argmax(ratio))]]
                assert theta(p, y, s) >= theta(p, x, s), (m, n, p)


class TestKernelResidual:
    """Every certificate lies in Ker(A): ||A x|| / ||A||_2 <= 1e-12 for the
    unit certificate x.  theta of the certificate being the value does not
    show this; an ascent that moved x = N c itself would pass that check
    with residuals near 0.1."""

    @staticmethod
    def assert_in_kernel(a, ests):
        scale = np.linalg.norm(a, 2)
        for est in ests:
            assert np.linalg.norm(a @ est.certificate_x) <= 1e-12 * scale, est.p

    @pytest.mark.parametrize("seed", [3, 5, 11])
    def test_nsc_pool(self, seed):
        # the benchmark's argv: k 2 at p = 0.1, seed 0, 64 restarts
        for a in nsc_pool(seed):
            self.assert_in_kernel(a, nsc_curve(a, 2, [0.1], NscOptions(seed=0)))

    def test_nsc_pool_on_the_default_grid(self):
        for a in nsc_pool(3):
            self.assert_in_kernel(a, nsc_curve(a, 2, DEFAULT_GRID, NscOptions(seed=0)))

    def test_example2(self, example2):
        for k in (1, 2, 3, 4):
            self.assert_in_kernel(example2.a, nsc_curve(
                example2.a, k, DEFAULT_GRID, NscOptions(seed=0)))


class TestCurve:
    def test_nondecreasing_on_example(self, example2):
        grid = [0.0, 0.1, 0.25, 0.5, 0.8, 1.0]
        ests = nsc_curve(example2.a, 2, grid, NscOptions(seed=0))
        vals = [e.value for e in ests]
        assert vals == sorted(vals)
        assert [e.p for e in ests] == grid

    def test_nondecreasing_on_random_nullity2(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((4, 6))
        ests = nsc_curve(a, 2, [0.2, 0.4, 0.6, 0.8, 1.0], NscOptions(seed=1, restarts=16))
        vals = [e.value for e in ests]
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo - 1e-12

    def test_grid_validation(self, example2):
        opts = NscOptions(seed=0)
        with pytest.raises(DomainError):
            nsc_curve(example2.a, 2, [], opts)
        with pytest.raises(DomainError):
            nsc_curve(example2.a, 2, [0.5, 0.5], opts)
        with pytest.raises(DomainError):
            nsc_curve(example2.a, 2, [0.5, 1.2], opts)

    @pytest.mark.parametrize("grid", [[0.2, math.nan], [math.nan], [0.2, 0.5, 1.2]])
    def test_every_p_checked_before_any_estimate(self, example2, grid, scored):
        # [0.2, nan] used to run the whole p = 0.2 estimate and only then
        # fail inside theta
        with pytest.raises(DomainError, match=r"\[0, 1\]"):
            nsc_curve(example2.a, 2, grid, NscOptions(seed=0))
        assert scored == []

    def test_estimate_serializes(self, example2):
        est = nsc_estimate(example2.a, 2, 0.5, NscOptions(seed=0))
        obj = json.loads(json.dumps(estimate_to_json(est, 2)))
        assert list(obj) == ["p", "k", "r", "value", "certificate_X", "certificate_support",
                             "restarts", "exact", "probes", "start", "vertices"]
        assert obj["r"] == 2 and [row[1] for row in obj["certificate_X"]] == [0.0] * 5
        assert obj["value"] == pytest.approx(EX2_H[0.5], abs=1e-9)
        assert obj["certificate_support"] == [1, 3]
        assert obj["exact"] is True
        assert (obj["probes"], obj["start"], obj["vertices"]) == (0, -1, 1)

    @pytest.mark.parametrize("seed", sorted(FROZEN_CURVES))
    def test_frozen_curves(self, seed):
        ests = nsc_curve(gaussian_4x7(seed), 2, DEFAULT_GRID,
                         NscOptions(seed=seed, restarts=8))
        assert len(ests) == len(FROZEN_CURVES[seed])
        for est, (p, value, support, cert, probes) in zip(ests, FROZEN_CURVES[seed]):
            assert est.p == p and est.exact is (p in (0.0, 1.0))
            assert est.certificate_support.indices == support
            assert digest(embedded(est, 2)) == cert
            assert est.value == pytest.approx(value, rel=1e-12)
            assert est.value == theta(p, est.certificate_x, est.certificate_support)
            assert est.probes == probes


def spark_cases() -> dict[str, np.ndarray]:
    """Seeded matrices with n <= m, n = m + 1 and wider, each Gaussian and
    with a dependency of d columns planted in the first or the last
    columns (column d - 1, or n - 1, made a combination of the others), a
    zero first or last column, the zero matrix, and one generated 16x17
    matrix with a single dependent 16-column subset.  The 16x20 matrices are
    where a test of all 16-column subsets made as soon as the next size has
    as many subsets (4845 each) would cost more than twice the loop."""
    rng = np.random.default_rng(2006)
    cases = {}
    for m, n in ((4, 4), (5, 4), (4, 5), (7, 8), (4, 9), (6, 10), (9, 12), (16, 20)):
        if m < 16:
            cases[f"{m}x{n}"] = rng.standard_normal((m, n))
        for d in sorted({2, 4, min(m, n)} if m < 16 else {4}):
            for where, cols in (("first", range(d)), ("last", range(n - d, n))):
                a = rng.standard_normal((m, n))
                cols = list(cols)
                a[:, cols[-1]] = a[:, cols[:-1]] @ rng.standard_normal(d - 1)
                cases[f"{m}x{n} {where} {d}"] = a
        for where, j in (("first", 0), ("last", n - 1)):
            a = rng.standard_normal((m, n))
            a[:, j] = 0.0
            cases[f"{m}x{n} zero {where}"] = a
    cases["zero 3x5"] = np.zeros((3, 5))
    # from the exact benchmark pool at seed 1010: of the 17 subsets of 16
    # columns, only the one without column 9 is dependent
    cases["16x17 one dependent 16"] = gen_problem(
        GenSpec("gaussian", 16, 17, 4, 8, 3226652560831358504)).a
    return cases


SPARK_CASES = spark_cases()


class TestSpark:
    @pytest.mark.parametrize("name", list(SPARK_CASES))
    def test_matches_bottom_up_loop(self, name, decomposed):
        a = SPARK_CASES[name]
        want, oracle_count = spark_bottom_up(a)
        decomposed.clear()
        assert spark(a) == want
        assert sum(decomposed) <= 2 * oracle_count + 2048, (sum(decomposed), oracle_count)

    def test_frozen_cases(self, example2):
        assert spark(example2.a) == 5
        assert spark(np.eye(4)) == 5
        assert spark(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])) == 1
        assert spark(np.array([[1.0, 2.0, 1.0],
                               [0.0, 1.0, 0.0],
                               [1.0, 0.0, 1.0]])) == 2

    def test_against_rank_oracle(self):
        # smallest dependent subset by brute-force matrix_rank
        import itertools

        rng = np.random.default_rng(17)
        for _ in range(20):
            m, n = int(rng.integers(2, 5)), int(rng.integers(2, 7))
            a = rng.standard_normal((m, n))
            if rng.random() < 0.5:             # plant a dependency sometimes
                j, kcol = rng.choice(n, size=2, replace=False)
                a[:, j] = rng.normal() * a[:, kcol]
            want = n + 1
            for card in range(1, min(n, m + 1) + 1):
                dep = any(
                    np.linalg.matrix_rank(a[:, list(s)], tol=1e-8) < card
                    for s in itertools.combinations(range(n), card)
                )
                if dep:
                    want = card
                    break
            assert spark(a) == want

    def test_guard(self, rng):
        a = rng.standard_normal((3, 21))
        with pytest.raises(EnumerationTooLarge):
            spark(a)

    def test_max_recoverable_k(self, example2):
        assert max_recoverable_k(example2.a) == 2
        assert max_recoverable_k(np.eye(4)) == 2
        assert max_recoverable_k(np.array([[1.0, 2.0], [2.0, 4.0]])) == 0
