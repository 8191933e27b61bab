"""One rule per kind of input: counts, seeds, exponents, p grids,
tolerances and the other real-valued inputs outside their domain raise
DomainError wherever they enter the library, never TypeError, ValueError
or OverflowError from deeper down; a value of the wrong type (a bool, a
string, a complex, a Fraction, a 0-d array) is outside every domain, and
the edge values inside the domain are still accepted."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from jointsparse.bounds import corollary1_bounds, f_threshold, lemma1_check, lemma2_check
from jointsparse.bounds import pstar, theorem4_bound
from jointsparse.errors import DomainError
from jointsparse.generators import (
    AMPLITUDE_MAX,
    AMPLITUDE_MIN,
    GenSpec,
    PortableRng,
    gen_problem,
    gen_vandermonde,
    genspec_from_json,
)
from jointsparse.norms import (
    RowSupport,
    check_count,
    check_real,
    mixed_norm_2p,
    row_support,
    theta,
    theta_max_over_S,
)
from jointsparse.nsc import NscOptions, nsc_curve, nsc_estimate
from jointsparse.solvers import (
    DescentOptions,
    EquivalenceOptions,
    IrlsOptions,
    MmvProblem,
    check_equivalence,
    irls_solve,
    l20_solve,
    nullspace_solve,
)

SEED_END = 2 ** 64                      # one past the largest seed


def spec(**change) -> dict:
    base = {"kind": "gaussian", "m": 4, "n": 6, "r": 1, "k": 2, "seed": 1}
    return {**base, **change}


def vandermonde(**change) -> dict:
    return spec(kind="vandermonde", n=3, k=1, **change)


REFUSED = {
    # seeds and stream numbers key a 64-bit Philox stream
    "descent_seed_2**64": lambda ex: DescentOptions(seed=SEED_END),
    "nsc_seed_2**64": lambda ex: NscOptions(seed=SEED_END),
    "equivalence_seed_2**64": lambda ex: EquivalenceOptions(seed=SEED_END),
    "lemma2_seed_2**64": lambda ex: lemma2_check(ex.a, 2, trials=3, seed=SEED_END),
    "rng_stream_float": lambda ex: PortableRng(1, stream=1.5),
    "rng_stream_2**64": lambda ex: PortableRng(1, stream=SEED_END),
    "genspec_seed_bool": lambda ex: GenSpec(**spec(seed=True)),
    "genspec_seed_float": lambda ex: GenSpec(**spec(seed=1.5)),
    "genspec_seed_str": lambda ex: GenSpec(**spec(seed="7")),
    "genspec_seed_negative": lambda ex: GenSpec(**spec(seed=-1)),
    # counts
    "lemma2_trials_float": lambda ex: lemma2_check(ex.a, 2, trials=1.5, seed=0),
    "lemma2_r_float": lambda ex: lemma2_check(ex.a, 2, trials=3, seed=0, r=1.5),
    "lemma2_r_zero": lambda ex: lemma2_check(ex.a, 2, trials=3, seed=0, r=0),
    "lemma2_k_float": lambda ex: lemma2_check(ex.a, 1.5, trials=3, seed=0),
    "nsc_k_float": lambda ex: nsc_estimate(ex.a, 1.5, 0.5, NscOptions(seed=0)),
    "l20_k_max_float": lambda ex: l20_solve(ex, 2.5),
    "l20_k_max_bool": lambda ex: l20_solve(ex, True),
    "problem_k_float": lambda ex: MmvProblem(a=ex.a, b=ex.b, k=1.5),
    "genspec_m_zero": lambda ex: GenSpec(**spec(m=0)),
    "genspec_k_negative": lambda ex: GenSpec(**spec(k=-1)),
    "theta_k_float": lambda ex: theta_max_over_S(0.5, ex.planted, 1.5),
    "f_threshold_n_float": lambda ex: f_threshold(1.0, 2.0, 5.0),
    "corollary1_m_bool": lambda ex: corollary1_bounds(True, 5),
    "theorem4_n_float": lambda ex: theorem4_bound(0.5, 9.0, 2, 2.0),
    "theorem4_n_too_small": lambda ex: theorem4_bound(0.5, 4, 2, 2.0),
    # tolerances: finite and >= 0
    "l20_zero_tol_inf": lambda ex: l20_solve(ex, 2, zero_tol=math.inf),
    "irls_zero_tol_inf": lambda ex: IrlsOptions(zero_tol=math.inf),
    "nsc_zero_tol_inf": lambda ex: NscOptions(seed=0, zero_tol=math.inf),
    "l20_zero_tol_str": lambda ex: l20_solve(ex, 2, zero_tol="0"),
    "pstar_zero_tol_str": lambda ex: pstar(ex.a, ex.b, zero_tol="0"),
    "row_support_zero_tol_str": lambda ex: row_support(ex.planted, "0"),
    "irls_zero_tol_str": lambda ex: IrlsOptions(zero_tol="0"),
    "descent_tol_str": lambda ex: DescentOptions(seed=0, tol="1"),
    "descent_tol_inf": lambda ex: DescentOptions(seed=0, tol=math.inf),
    # exponents: p in (0, 1] for the l_{2,p} objective and its solvers,
    # [0, 1] for theta and the null-space constant
    "irls_p_str": lambda ex: irls_solve(ex, "0.5"),
    "irls_p_none": lambda ex: irls_solve(ex, None),
    "irls_p_bool": lambda ex: irls_solve(ex, True),
    "irls_p_fraction": lambda ex: irls_solve(ex, Fraction(1, 2)),
    "irls_p_0d_array": lambda ex: irls_solve(ex, np.array(0.5)),
    "nullspace_p_str": lambda ex: nullspace_solve(ex, "0.5", DescentOptions(seed=0)),
    "nullspace_p_complex": lambda ex: nullspace_solve(ex, 0.5j, DescentOptions(seed=0)),
    "nullspace_p_zero": lambda ex: nullspace_solve(ex, 0.0, DescentOptions(seed=0)),
    "equivalence_p_str": lambda ex: check_equivalence(ex, "0.5", EquivalenceOptions(seed=0)),
    "mixed_norm_p_str": lambda ex: mixed_norm_2p(ex.planted, "0.5"),
    "mixed_norm_p_array": lambda ex: mixed_norm_2p(ex.planted, np.array([0.5])),
    "theta_p_str": lambda ex: theta("0.5", ex.planted, RowSupport((2,), n=5)),
    "theta_max_p_str": lambda ex: theta_max_over_S("0.5", ex.planted, 1),
    "nsc_p_str": lambda ex: nsc_estimate(ex.a, 1, "0.5", NscOptions(seed=0)),
    "nsc_p_bool": lambda ex: nsc_estimate(ex.a, 1, True, NscOptions(seed=0)),
    "theorem4_p_str": lambda ex: theorem4_bound("0.5", 5, 2, 2.0),
    # p grids: a non-empty iterable, not a string, of exponents
    "nsc_curve_grid_scalar": lambda ex: nsc_curve(ex.a, 1, 0.5, NscOptions(seed=0)),
    "nsc_curve_grid_none": lambda ex: nsc_curve(ex.a, 1, [None], NscOptions(seed=0)),
    "nsc_curve_grid_str_entry": lambda ex: nsc_curve(ex.a, 1, ["0.5"], NscOptions(seed=0)),
    "lemma1_grid_scalar": lambda ex: lemma1_check(ex.planted, 0.5),
    "lemma1_grid_none": lambda ex: lemma1_check(ex.planted, [None]),
    "lemma1_grid_str_entries": lambda ex: lemma1_check(ex.planted, ["0.5", b"0.9"]),
    # the other real-valued inputs
    "f_threshold_x_str": lambda ex: f_threshold("2", 2.0, 5),
    "f_threshold_lam_str": lambda ex: f_threshold(2, "2", 5),
    "theorem4_lam_str": lambda ex: theorem4_bound(0.5, 5, 2, "2"),
    # row supports and PortableRng draws: counts
    "row_support_n_float": lambda ex: RowSupport((1,), n=2.5),
    "row_support_n_str": lambda ex: RowSupport((1,), n="3"),
    "row_support_indices_int": lambda ex: RowSupport(3, n=4),
    "rng_integer_below_float": lambda ex: PortableRng(1).integer_below(2.5),
    "rng_integer_below_bool": lambda ex: PortableRng(1).integer_below(True),
    "rng_subset_n_float": lambda ex: PortableRng(1).subset(5.0, 2),
    "rng_raw_negative": lambda ex: PortableRng(1).raw(-1),
    "rng_normal_negative": lambda ex: PortableRng(1).normal(-1),
    # the other GenSpec fields
    "genspec_amplitude_nan": lambda ex: GenSpec(**spec(amplitude=math.nan)),
    "genspec_amplitude_inf": lambda ex: GenSpec(**spec(amplitude=math.inf)),
    "genspec_amplitude_zero": lambda ex: GenSpec(**spec(amplitude=0.0)),
    "genspec_amplitude_bool": lambda ex: GenSpec(**spec(amplitude=True)),
    "genspec_amplitude_huge_int": lambda ex: GenSpec(**spec(amplitude=10 ** 400)),
    "genspec_nodes_str": lambda ex: GenSpec(**vandermonde(nodes=(1, "a", 2))),
    "genspec_json_nodes_int": lambda ex: genspec_from_json(vandermonde(nodes=5)),
    "vandermonde_nodes_str": lambda ex: gen_vandermonde(["1", "2"], 2),
    "vandermonde_nodes_bool": lambda ex: gen_vandermonde([True, 2.0], 2),
    "vandermonde_m_float": lambda ex: gen_vandermonde([0.1, 0.2], 1.5),
    "genspec_json_no_seed": lambda ex: genspec_from_json({"kind": "gaussian", "m": 4,
                                                          "n": 6, "r": 1, "k": 2}),
    # amplitude and B's norm: nothing may overflow (pytest turns numpy's
    # RuntimeWarning into an error, so a probe that overflows fails here)
    "genspec_amplitude_1e308": lambda ex: GenSpec(**spec(amplitude=1e308)),
    "genspec_amplitude_1e101": lambda ex: GenSpec(**spec(amplitude=1e101)),
    "genspec_amplitude_1e-300": lambda ex: GenSpec(**spec(amplitude=1e-300)),
    "problem_b_norm_overflow": lambda ex: MmvProblem(a=ex.a, b=np.full(ex.b.shape, 1e200)),
    "vandermonde_power_overflow": lambda ex: gen_vandermonde([1e200, 2e200], 3),
    "gen_vandermonde_b_norm_overflow":
        lambda ex: gen_problem(GenSpec(**vandermonde(nodes=(1e100, 2e100, 3e100)))),
    # products of opposite sign that overflow: numpy's matmul may sum them
    # to inf - inf = nan and flag it invalid, which must neither warn nor
    # pass the planted residual test
    "gen_vandermonde_b_opposite_infs": lambda ex: gen_problem(GenSpec(**spec(
        kind="vandermonde", n=4, k=2, seed=87, nodes=(5e102, -5.01e102, 5.02e102, -5.03e102)))),
    "problem_planted_residual_nan": lambda ex: MmvProblem(
        a=np.tile([1e200, -1e200], (3, 8)), b=np.zeros((3, 2)), planted=np.full((16, 2), 1e200)),
}


@pytest.mark.parametrize("probe", REFUSED.values(), ids=REFUSED.keys())
def test_out_of_domain_input_raises_domain_error(example2, probe):
    with pytest.raises(DomainError):
        probe(example2)


def test_edge_values_inside_the_domains_are_accepted(example2):
    top = SEED_END - 1
    assert PortableRng(top, stream=top).seed == top
    assert DescentOptions(seed=top, restarts=np.int64(0)).restarts == 0
    NscOptions(seed=np.uint64(top), restarts=np.int64(3), zero_tol=0.0)
    EquivalenceOptions(seed=top, zero_tol=0.0)
    IrlsOptions(zero_tol=0.0)
    prob = MmvProblem(a=example2.a, b=example2.b, k=np.int64(2))
    assert type(prob.k) is int
    assert l20_solve(prob, np.int64(2), zero_tol=0.0).support.indices == (2, 5)
    assert lemma2_check(example2.a, np.int64(1), np.int64(2), top, r=np.int64(1)).trials == 2
    assert nsc_estimate(example2.a, np.int64(2), 0.5, NscOptions(seed=0)).exact
    assert theorem4_bound(0.5, 5, 2, 2.0) > 0.0
    assert np.array_equal(irls_solve(example2, 1).x, irls_solve(example2, 1.0).x)
    assert mixed_norm_2p(example2.planted, np.float32(0.5)) > 0.0
    assert theta(0, example2.planted, RowSupport((2,), n=5)) == 1.0
    assert nsc_estimate(example2.a, 1, 0, NscOptions(seed=0)).exact
    assert lemma1_check(example2.planted, np.array([0.5, 1.0]))
    assert len(nsc_curve(example2.a, 1, np.array([0.0, 0.5]), NscOptions(seed=0))) == 2
    assert DescentOptions(seed=0, tol=5e-324).tol == 5e-324
    assert RowSupport((i for i in (1, 2)), n=np.int64(3)).indices == (1, 2)
    assert type(check_real("x", np.float32(0.5), 0, 1)) is float
    zero = gen_problem(GenSpec(**spec(m=np.int64(4), k=0, seed=top, amplitude=2)))
    assert zero.k is None and not np.any(zero.b)
    for amplitude in (AMPLITUDE_MIN, AMPLITUDE_MAX):
        prob = gen_problem(GenSpec(**spec(amplitude=amplitude)))
        assert len(row_support(prob.planted, 0.0)) == 2


def test_an_exponent_runs_and_is_recorded_as_its_float(example2):
    # float32 0.3 is not 0.3: IRLS formed its exponent 1 - p/2 in float32,
    # and the descent raised Python floats to a float32 power
    p32 = np.float32(0.3)
    p = float(p32)
    descent = DescentOptions(seed=0, restarts=4)
    for solve in (irls_solve, lambda prob, q: nullspace_solve(prob, q, descent)):
        got, want = solve(example2, p32), solve(example2, p)
        assert type(got.p) is float and got.p == p
        assert np.array_equal(got.x, want.x) and got.objective == want.objective
    got, want = (check_equivalence(example2, [q], EquivalenceOptions(seed=0))[0]
                 for q in (p32, p))
    assert type(got.p) is float and type(got.irls.p) is float
    assert np.array_equal(got.irls.x, want.irls.x) and got.distance == want.distance
    a = gen_problem(GenSpec(**spec(m=4, n=7, k=2, seed=3))).a
    got, want = (nsc_estimate(a, 2, q, NscOptions(seed=0, restarts=4)) for q in (p32, p))
    assert type(got.p) is float and (got.value, got.probes) == (want.value, want.probes)
    x = example2.planted
    s = RowSupport((2,), n=5)
    for fn in (lambda q: theorem4_bound(q, 7, 2, 3.0), lambda q: mixed_norm_2p(x, q),
               lambda q: theta(q, x, s), lambda q: theta_max_over_S(q, x, 1)[0]):
        got = fn(np.float32(0.5))
        assert type(got) is float and got == fn(0.5)
    assert type(irls_solve(example2, 1).p) is float                # was the int 1


@pytest.mark.parametrize("value, most, message", [
    (1.0, 2, "c must be an integer, got 1.0"),
    (False, 2, "c must be an integer, got False"),
    (0, 2, "c must lie in 1..2, got 0"),
    (3, 2, "c must lie in 1..2, got 3"),
    (0, None, "c must be >= 1, got 0"),
])
def test_check_count_messages(value, most, message):
    with pytest.raises(DomainError) as info:
        check_count("c", value, 1, most)
    assert str(info.value) == message


@pytest.mark.parametrize("value, least, most, strict, message", [
    (True, 0, 1, False, "x must be a real number, got True"),
    ("0.5", 0, 1, False, "x must be a real number, got '0.5'"),
    (0.5j, 0, 1, False, "x must be a real number, got 0.5j"),
    (Fraction(1, 2), 0, 1, False, "x must be a real number, got Fraction(1, 2)"),
    (np.array(0.5), 0, 1, False, "x must be a real number, got array(0.5)"),
    (0, 0, 1, True, "x must lie in (0, 1], got 0"),
    (1.5, 0, 1, False, "x must lie in [0, 1], got 1.5"),
    (math.nan, 0, 1, False, "x must lie in [0, 1], got nan"),
    (math.inf, 0, math.inf, False, "x must be finite and >= 0, got inf"),
    (0.0, 0, math.inf, True, "x must be finite and > 0, got 0.0"),
    (-math.inf, -math.inf, math.inf, False, "x must be finite, got -inf"),
    (2 ** 1024, -math.inf, math.inf, False, f"x must be finite, got {2 ** 1024}"),
])
def test_check_real_messages(value, least, most, strict, message):
    with pytest.raises(DomainError) as info:
        check_real("x", value, least, most, strict=strict)
    assert str(info.value) == message
