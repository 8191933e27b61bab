"""Property tests for the CLI's argument handling: the p-grid parser and the
option domains checked once after parsing."""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointsparse import cli
from jointsparse.cli import EXIT_COMPUTE, EXIT_USAGE, UsageError, _parse_grid, main

EX2 = str(resources.files("jointsparse.data").joinpath("example2.json"))
SETTINGS = settings(max_examples=40, deadline=None, database=None)


def run(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_usage_error(code: int, err: str) -> None:
    assert code == EXIT_USAGE
    assert json.loads(err)["error"]["type"] == "UsageError"


class TestParseGrid:
    def test_range_lands_on_decimal_points(self):
        assert _parse_grid("0.1:0.3:0.1") == [0.1, 0.2, 0.3]

    def test_unit_range_is_the_nsc_default_grid(self):
        assert _parse_grid("0:1:0.1") == [round(0.1 * i, 1) for i in range(11)]

    @SETTINGS
    @given(st.integers(0, 2000), st.integers(1, 500), st.integers(0, 40),
           st.integers(0, 499), st.integers(0, 4))
    def test_range_points_are_the_nearest_floats(self, start, step, count, extra, places):
        # every point is start + i*step in units of 10^-places, rounded once;
        # a stop short of the next point does not add one
        extra %= step
        unit = 10 ** places

        def dec(units: int) -> str:
            return f"{units // unit}.{units % unit:0{places}d}" if places else str(units)

        spec = f"{dec(start)}:{dec(start + step * count + extra)}:{dec(step)}"
        assert _parse_grid(spec) == [(start + step * i) / unit for i in range(count + 1)]

    @SETTINGS
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                    max_size=8, unique=True))
    def test_comma_list_round_trips(self, values):
        values.sort()
        assert _parse_grid(",".join(repr(v) for v in values)) == values

    @SETTINGS
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2,
                    max_size=8).filter(lambda v: any(b <= a for a, b in zip(v, v[1:]))))
    def test_unordered_comma_list_rejected(self, values):
        with pytest.raises(UsageError):
            _parse_grid(",".join(repr(v) for v in values))

    @SETTINGS
    @given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 0))
    def test_empty_or_backward_range_rejected(self, lo, hi, step):
        with pytest.raises(UsageError):
            _parse_grid(f"{lo!r}:{hi!r}:{step!r}")           # step <= 0
        if hi < lo:
            with pytest.raises(UsageError):
                _parse_grid(f"{lo!r}:{hi!r}:0.5")

    @pytest.mark.parametrize("spec", ["0,nan", "0,inf", "nan:1:0.1", "0:inf:0.1",
                                      "0:1:1e-40", "a:b:c", "0:1"])
    def test_non_finite_oversized_or_malformed_rejected(self, spec):
        with pytest.raises(UsageError):
            _parse_grid(spec)


class TestOptionDomains:
    @SETTINGS
    @given(st.integers(0, 2 ** 64 - 1))
    def test_valid_seed_accepted(self, seed):
        assert run("pstar", EX2, f"--seed={seed}")[0] == 0

    @SETTINGS
    @given(st.one_of(st.integers(max_value=-1), st.integers(min_value=2 ** 64)))
    def test_invalid_seed_exits_2(self, seed):
        code, _, err = run("pstar", EX2, f"--seed={seed}")
        assert_usage_error(code, err)

    @SETTINGS
    @given(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
    def test_valid_tol_accepted(self, tol):
        assert run("pstar", EX2, f"--tol={tol!r}")[0] == 0

    @SETTINGS
    @given(st.floats().filter(lambda t: not (math.isfinite(t) and t >= 0.0)))
    def test_negative_or_non_finite_tol_exits_2(self, tol):
        code, _, err = run("pstar", EX2, f"--tol={tol!r}")
        assert_usage_error(code, err)

    @SETTINGS
    @given(st.integers(1, 5))
    def test_valid_k_max_never_exits_2(self, k_max):
        # example2 has n = 5 columns
        assert run("solve", EX2, "--method", "l20", f"--k-max={k_max}")[0] != EXIT_USAGE

    @SETTINGS
    @given(st.integers(max_value=0) | st.integers(min_value=6))
    def test_invalid_k_max_exits_2(self, k_max):
        code, _, err = run("solve", EX2, "--method", "l20", f"--k-max={k_max}")
        assert_usage_error(code, err)

    @SETTINGS
    @given(st.integers(0, 10 ** 6))
    def test_valid_restarts_accepted(self, restarts):
        # example2 has nullity 1: the constant is closed-form and no restart runs
        assert run("nsc", EX2, "--k", "2", "--grid", "0.5", f"--restarts={restarts}")[0] == 0

    @SETTINGS
    @given(st.integers(max_value=-1))
    def test_invalid_restarts_exits_2(self, restarts):
        code, _, err = run("nsc", EX2, "--k", "2", "--grid", "0.5", f"--restarts={restarts}")
        assert_usage_error(code, err)


def test_non_finite_report_exits_1_without_output(monkeypatch):
    def cmd(args):
        return {"lam": math.nan}, None, "", None

    monkeypatch.setattr(cli, "cmd_pstar", cmd)
    code, out, err = run("pstar", EX2)
    assert code == EXIT_COMPUTE
    assert out == ""
    assert json.loads(err)["error"]["type"] == "NonFiniteOutput"
