from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest

from jointsparse.errors import DomainError, EnumerationTooLarge, TrivialNullspace
from jointsparse.generators import GenSpec, PortableRng, gen_problem
from jointsparse.norms import _row_norms, theta
from jointsparse.nsc import (
    _WINDOW,
    NscOptions,
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
# (nullity 3; r = 2, k = 2, NscOptions(seed=<same>, restarts=8)) over the
# default grid, as the one-start-at-a-time ascent computed it.  Per p: the
# value, the support, the first 16 hex digits of sha256 over the
# certificate's bytes, and the number of C the ascent scored.
FROZEN_CURVES = {
    1: [
        (0.0, 0.4, (1, 3), "df0f7e15a67f16d5", 2384),
        (0.1, 0.6705266913045249, (6, 7), "6b0cb6a8165922dc", 5938),
        (0.2, 1.0134504943248719, (6, 7), "68e2be5bb58bd19a", 5987),
        (0.3, 1.5184312996593385, (6, 7), "ff03c7b4ec1b03c3", 6780),
        (0.4, 2.0548722739240883, (6, 7), "0bf149508f06cf8c", 6805),
        (0.5, 2.86905656163185, (6, 7), "2c533bc7f25088e1", 7286),
        (0.6, 3.788609335526712, (6, 7), "5746a389e5fd655b", 8007),
        (0.7, 4.967292188298877, (6, 7), "5746a389e5fd655b", 7912),
        (0.8, 6.480240650184669, (6, 7), "5746a389e5fd655b", 8608),
        (0.9, 8.422023740532909, (6, 7), "5746a389e5fd655b", 9929),
        (1.0, 11.100864972188667, (6, 7), "34c60dccb4bbe76b", 15211),
    ],
    2: [
        (0.0, 0.4, (1, 2), "aeb256d8eded1bbe", 2384),
        (0.1, 0.635804195687675, (6, 7), "96d8c842dfbc85a1", 5361),
        (0.2, 0.958848599683749, (2, 3), "d732063f65a9f5e8", 5482),
        (0.3, 1.3190102771726357, (2, 3), "6b29251492e1d057", 5819),
        (0.4, 1.838925001641566, (2, 3), "905b97dfac7c8b95", 6323),
        (0.5, 2.3747307462183835, (2, 3), "0b5c2594d84d8c91", 6757),
        (0.6, 3.0729585312387386, (2, 3), "023eccd3aa8062c3", 7286),
        (0.7, 3.9529924757620636, (2, 3), "ac00c1b72d4620c4", 7502),
        (0.8, 5.0792654785330855, (2, 3), "ac00c1b72d4620c4", 8201),
        (0.9, 6.52195341733493, (2, 3), "ac00c1b72d4620c4", 8706),
        (1.0, 8.370756697566437, (2, 3), "4b5a17b3d9b79a7d", 16603),
    ],
}


def gaussian_4x7(seed: int) -> np.ndarray:
    return gen_problem(GenSpec("gaussian", 4, 7, 2, 2, seed)).a


def digest(x: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()[:16]


def ascent_population():
    """Seeded (name, A, r, k, p, seed, restarts, warm starts) for the ascent.

    40 Gaussian 2x4 and 3x5 matrices (nullity 2) run through every pair of
    r in 1..3 and p in {0, 0.1, 0.5, 1}, with k 1 or 2, some seeded
    restarts, and warm starts (a zero one among them, which is skipped).
    Then a matrix with zero columns whose value is +inf: its unit starts
    are +inf from the outset, and its warm start reaches +inf in its first
    sweep.  Last, the third instance of the ``nsc`` benchmark pool (seed
    3): 4x7, nullity 3, where the winning start makes all 40 sweeps at
    scale 1.0.
    """
    rng = np.random.default_rng(909)
    for i in range(40):
        r, p = 1 + (i // 4) % 3, (0.0, 0.1, 0.5, 1.0)[i % 4]
        m, n = (2, 4) if i % 3 else (3, 5)
        a = rng.standard_normal((m, n))
        warm = ()
        if i % 7 == 3:
            warm = (rng.standard_normal((n - m, r)),)
        if i % 14 == 10:
            warm += (np.zeros((n - m, r)),)
        yield f"gaussian {i}", a, r, 1 + i % 2, p, i, int(i % 5 == 2), warm
    half = (np.full((4, 1), 0.5),)      # one step from a C on 3 rows
    yield "zero columns", np.array([[1.0, 0, 0, 0, 0]]), 1, 3, 0.5, 0, 0, half
    pool = gen_problem(GenSpec("gaussian", 4, 7, 2, 2, 3064721759105622167)).a
    yield "nsc pool", pool, 2, 2, 0.1, 0, 64, ()


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
# with the seed's one restart, takes a first win at the named place.
WINDOW_CASES = {
    "window end": ((2, 4, 3, 1, 2), {"window end"}),
    "sweep end": ((2, 4, 3, 1, 3), {"sweep end"}),
    "r 8, reduced row norms": ((2, 4, 8, 1, 0), set()),
}


class TestExactPath:
    def test_frozen_values(self, example2):
        for p, want in EX2_H.items():
            est = nsc_estimate(example2.a, 2, 2, p, NscOptions(seed=0))
            assert est.exact is True
            assert est.certificate_support.indices == (1, 3)
            if p == 0.0:
                assert est.value == want       # exact rational in binary
            else:
                assert est.value == pytest.approx(want, abs=1e-9)

    def test_r_independence(self, example2):
        for p in (0.0, 0.3, 0.7, 1.0):
            vals = [
                nsc_estimate(example2.a, r, 2, p, NscOptions(seed=0)).value
                for r in (1, 2, 3)
            ]
            assert max(vals) - min(vals) <= 1e-12
            assert all(
                nsc_estimate(example2.a, r, 2, p, NscOptions(seed=0)).certificate_x.shape
                == (5, r)
                for r in (1, 2, 3)
            )

    def test_certificate_reproduces_value(self, example2):
        for p in (0.0, 0.25, 0.5, 0.8, 1.0):
            est = nsc_estimate(example2.a, 2, 2, p, NscOptions(seed=0))
            again = theta(p, est.certificate_x, est.certificate_support)
            assert again == est.value

    def test_certificate_lies_in_kernel(self, example2):
        est = nsc_estimate(example2.a, 3, 2, 0.5, NscOptions(seed=0))
        assert np.linalg.norm(example2.a @ est.certificate_x) <= 1e-10
        assert est.certificate_x.shape == (5, 3)
        assert np.linalg.norm(est.certificate_x) == pytest.approx(1.0, abs=1e-12)


class TestAscentPath:
    def test_matches_dense_sphere_oracle(self):
        # nullity-2 targets: the ascent must come within grid resolution of a
        # brute-force sweep over the coefficient sphere
        for seed in (7, 11, 23):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal((4, 6))
            est = nsc_estimate(a, 1, 2, 0.5, NscOptions(seed=3))
            assert est.exact is False
            grid_best = nsc_sphere_oracle(a, 1, 2, 0.5, per_axis=600)
            assert est.value >= grid_best - 1e-3
            again = theta(0.5, est.certificate_x, est.certificate_support)
            assert again == est.value

    def test_probes_match_the_serial_score_calls(self):
        # 5050 theta_max_over_S calls scored this instance when the ascent
        # ran one start and one probe at a time
        est = nsc_estimate(gaussian_4x7(11), 2, 2, 0.5, NscOptions(seed=0, restarts=8))
        assert est.probes == 5050
        assert est.certificate_support.indices == (1, 6)
        assert digest(est.certificate_x) == "840e708820bbf954"

    def test_every_batch_holds_every_live_start(self, scored):
        # A batch holds the next _WINDOW probes of every live start's sweep.
        # The same 5050 probes took 673 batches while all starts shared one
        # scale, and 529, one per (entry, step), while each start had its
        # own scale.  Each batch is scored whole: after the 11 starts, 74
        # batches of _WINDOW rows per live start, 660 windows in all, with
        # the rows after a start's first win, past its sweep's end and at
        # C = 0 scored but not probes (7118 rows while only the rows up to
        # the sweep's end that were not C = 0 were scored).
        est = nsc_estimate(gaussian_4x7(11), 2, 2, 0.5, NscOptions(seed=0, restarts=8))
        assert est.probes == 5050
        assert (len(scored), sum(scored)) == (75, 11 + 660 * 12)

    @pytest.mark.parametrize("case", sorted(WINDOW_CASES))
    def test_windows_match_the_serial_ascent(self, case):
        (m, n, r, k, seed), ends = WINDOW_CASES[case]
        a = gen_problem(GenSpec("gaussian", m, n, r, k, seed)).a
        wins: list[tuple[int, int, int]] = []
        value, support, x, probes, start = nsc_serial_ascent(a, r, k, 0.5, seed, 1, wins=wins)
        assert first_wins_at_ends(wins, (n - m) * r * 4) >= ends
        est = nsc_estimate(a, r, k, 0.5, NscOptions(seed=seed, restarts=1))
        assert est.value == value
        assert est.certificate_support.indices == support
        assert digest(est.certificate_x) == digest(x)
        assert (est.probes, est.start) == (probes, start)

    def test_population_matches_the_serial_ascent(self):
        values, seen = {}, set()
        for name, a, r, k, p, seed, restarts, warm in ascent_population():
            value, support, x, probes, start = nsc_serial_ascent(
                a, r, k, p, seed, restarts, warm)
            est = nsc_estimate(a, r, k, p, NscOptions(seed=seed, restarts=restarts), warm)
            assert est.value == value, name
            assert est.certificate_support.indices == support, name
            assert digest(est.certificate_x) == digest(x), name
            assert (est.probes, est.start) == (probes, start), name
            values[name] = value
            seen.add((r, p))
        assert len(values) == 42 and len(seen) == 12
        assert math.isinf(values["zero columns"])

    def test_winning_start_ascends_alone_to_the_same_certificate(self):
        # starts do not interact: the winner, rerun as the only warm start
        # next to the unit starts, wins again with the same certificate
        a, d, r = gaussian_4x7(11), 3, 2
        opts = NscOptions(seed=4, restarts=8)
        for p, start in ((0.2, 6), (0.6, 9), (1.0, 1)):
            est = nsc_estimate(a, r, 2, p, opts)
            assert est.start == start
            rng = PortableRng(opts.seed)
            draws = [rng.normal((d, r)) for _ in range(start - d + 1)]
            warm = (draws[-1],) if start >= d else ()
            alone = nsc_estimate(a, r, 2, p, NscOptions(seed=4, restarts=0),
                                 warm_starts=warm)
            assert alone.start == min(start, d)
            assert alone.value == est.value
            assert np.array_equal(alone.certificate_x, est.certificate_x)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 6))
        one = nsc_estimate(a, 2, 2, 0.6, NscOptions(seed=9))
        two = nsc_estimate(a, 2, 2, 0.6, NscOptions(seed=9))
        assert one.value == two.value
        assert np.array_equal(one.certificate_x, two.certificate_x)

    def test_infinite_when_kernel_fits_in_k_rows(self):
        # a zero column puts a coordinate vector in the kernel, so S can
        # swallow the entire support of the certificate
        a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        est = nsc_estimate(a, 1, 1, 0.5, NscOptions(seed=0))
        assert math.isinf(est.value)
        assert est.certificate_support.indices == (3,)

    def test_trivial_nullspace(self):
        with pytest.raises(TrivialNullspace):
            nsc_estimate(np.eye(4), 1, 2, 0.5, NscOptions(seed=0))

    def test_argument_validation(self, example2):
        with pytest.raises(DomainError):
            nsc_estimate(example2.a, 0, 2, 0.5, NscOptions(seed=0))
        with pytest.raises(DomainError):
            nsc_estimate(example2.a, 1, 0, 0.5, NscOptions(seed=0))
        with pytest.raises(DomainError):
            nsc_estimate(example2.a, 1, 5, 0.5, NscOptions(seed=0))
        with pytest.raises(DomainError):
            nsc_estimate(example2.a, 1, 2, 1.5, NscOptions(seed=0))
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
    # summation there.  It takes the ascent's stacks (P, n, r) and the single
    # matrices (n, r) of row_norms and the solvers, in either memory order.
    rng = np.random.default_rng(4100 + r)
    xs = rng.standard_normal((300, 7, r)) * rng.uniform(1e-3, 1e3, (300, 7, 1))
    for x in (xs, xs[0], xs.reshape(-1, r), np.asfortranarray(xs.reshape(-1, r))):
        want = np.sqrt(np.add.reduce(x * x, axis=-1))
        assert np.array_equal(_row_norms(x), want)


class TestCurve:
    def test_nondecreasing_on_example(self, example2):
        grid = [0.0, 0.1, 0.25, 0.5, 0.8, 1.0]
        ests = nsc_curve(example2.a, 2, 2, grid, NscOptions(seed=0))
        vals = [e.value for e in ests]
        assert vals == sorted(vals)
        assert [e.p for e in ests] == grid

    def test_nondecreasing_on_random_nullity2(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((4, 6))
        ests = nsc_curve(a, 1, 2, [0.2, 0.4, 0.6, 0.8, 1.0], NscOptions(seed=1, restarts=16))
        vals = [e.value for e in ests]
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo - 1e-12

    def test_grid_validation(self, example2):
        opts = NscOptions(seed=0)
        with pytest.raises(DomainError):
            nsc_curve(example2.a, 1, 2, [], opts)
        with pytest.raises(DomainError):
            nsc_curve(example2.a, 1, 2, [0.5, 0.5], opts)
        with pytest.raises(DomainError):
            nsc_curve(example2.a, 1, 2, [0.5, 1.2], opts)

    @pytest.mark.parametrize("grid", [[0.2, math.nan], [math.nan], [0.2, 0.5, 1.2]])
    def test_every_p_checked_before_any_estimate(self, example2, grid, scored):
        # [0.2, nan] used to run the whole p = 0.2 estimate and only then
        # fail inside theta
        with pytest.raises(DomainError, match=r"\[0, 1\]"):
            nsc_curve(example2.a, 1, 2, grid, NscOptions(seed=0))
        assert scored == []

    def test_estimate_serializes(self, example2):
        est = nsc_estimate(example2.a, 2, 2, 0.5, NscOptions(seed=0))
        obj = json.loads(json.dumps(estimate_to_json(est)))
        assert obj["value"] == pytest.approx(EX2_H[0.5], abs=1e-9)
        assert obj["certificate_support"] == [1, 3]
        assert obj["exact"] is True
        assert (obj["probes"], obj["start"]) == (1, -1)

    @pytest.mark.parametrize("seed", sorted(FROZEN_CURVES))
    def test_frozen_curves(self, seed):
        ests = nsc_curve(gaussian_4x7(seed), 2, 2, DEFAULT_GRID,
                         NscOptions(seed=seed, restarts=8))
        assert len(ests) == len(FROZEN_CURVES[seed])
        for est, (p, value, support, cert, probes) in zip(ests, FROZEN_CURVES[seed]):
            assert est.p == p and est.exact is False
            assert est.certificate_support.indices == support
            assert digest(est.certificate_x) == cert
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
