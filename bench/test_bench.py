"""Tests of the benchmark's own logic: self-time arithmetic, the tail
percentile rule, failure accounting, the reference solutions, and a
tiny-size smoke run of every workload, untraced and traced."""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

import metrics
import run
import spans

workloads = run.load_package()


def test_self_time_subtracts_children_union_and_leaves():
    #  0: [0, 10]  children 1: [1, 4], 2: [3, 6] (overlapping) -> union 5
    #  1: [1, 4]   child 3: [2, 3]; leaves 0.5 s under span 1
    spans_ = [
        ["a", 0.0, 10.0, None, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 3.0, 6.0, 0, 0],
        ["d", 2.0, 3.0, 1, 0],
    ]
    leaves = {(1, "leaf"): [7, 0.5], (None, "leaf"): [1, 9.0]}
    assert spans.self_times(spans_, leaves) == pytest.approx([5.0, 1.5, 3.0, 1.0])


def test_layer_self_times_and_unspanned_account_for_op_time():
    ticks = iter(float(t) for t in range(100))
    tracer = spans.Tracer(clock=lambda: next(ticks))
    with tracer.op_span(0):                              # op: ticks 0..5
        outer = tracer.open("solvers.l20_solve")         # 1..4
        inner = tracer.open("linalg.nullspace_basis")    # 2..3
        tracer.close(inner)
        tracer.leaf("norms.row_support", 0.25)
        tracer.close(outer)
    layer, accounted, min_self = spans.layer_metrics(tracer, n_ops=1)
    assert accounted == pytest.approx(5.0)
    assert min_self == pytest.approx(1.0)
    assert layer["solvers.l20_solve.calls"] == 1
    assert layer["solvers.l20_solve.ms"] == pytest.approx((3 - 1 - 0.25) * 1e3)
    assert layer["linalg.self_ms"] == pytest.approx(1e3)
    assert layer["trace.unspanned_ms"] == pytest.approx(2e3)
    assert layer["norms.row_support.calls"] == 1


def test_time_subtracted_twice_shows_as_negative_self_time():
    # A leaf whose 3 s include another leaf's 2 s, both recorded under the
    # same 4 s span: the span's self time comes out at -1 s.
    ticks = iter([0.0, 4.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    idx = tracer.open("solvers.l20_solve")
    tracer.leaf("norms.theta_max_over_S", 3.0)
    tracer.leaf("norms.row_support", 2.0)
    tracer.close(idx)
    _layer, _accounted, min_self = spans.layer_metrics(tracer, n_ops=1)
    assert min_self == pytest.approx(-1.0)


@pytest.mark.parametrize("n, want_q, want_beyond", [
    (19, None, None), (20, 50, 10), (100, 90, 10), (450, 97, 13), (1000, 99, 10),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, want_q, want_beyond):
    samples = list(np.random.default_rng(n).permutation(n).astype(float))
    got = metrics.tail_percentile(samples)
    if want_q is None:
        assert got is None
        return
    q, value, beyond = got
    assert (q, beyond) == (want_q, want_beyond)
    assert sum(s > value for s in samples) == beyond


def test_tail_percentile_is_highest_with_ten_beyond():
    for n in range(20, 2000):
        q, _value, beyond = metrics.tail_percentile(range(n))
        assert beyond >= 10
        next_rank = -(-(q + 1) * n // 100)
        assert q == 99 or n - next_rank < 10


class _Flaky:
    """Op 1 raises, op 2 fails its check, the rest pass."""

    def op(self, i):
        if i == 1:
            raise RuntimeError("boom")
        return i

    def check(self, i, out):
        return ["wrong"] if i == 2 else []


def test_fail_ratio_counts_raised_and_failed_checks():
    log, passed, wall = run.op_loop(_Flaky(), n_ops=5)
    assert (log.attempted, log.failed) == (5, 2)
    assert log.fail_ratio() == pytest.approx(0.4)
    assert [i for i, _ in passed] == [0, 3, 4]
    assert wall > 0


def test_time_budget_runs_at_least_one_op():
    log, _, _ = run.op_loop(_Flaky(), seconds=1e-9)
    assert log.attempted == 1


def test_basic_reference_is_exact_for_one_column():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.normal(size=(3, 5))
        b = a @ np.where(rng.random((5, 1)) < 0.4, rng.normal(size=(5, 1)), 0.0)
        if not np.any(b):
            continue
        p = float(rng.uniform(0.3, 1.0))
        ref = workloads.basic_reference(a, b, p, zero_tol=0.0)
        x0 = np.linalg.lstsq(a, b, rcond=None)[0]
        kernel = np.linalg.svd(a)[2][3:].T
        probes = x0[:, 0] + np.einsum("nd,sd->sn", kernel, rng.normal(size=(4000, 2)) * 3)
        assert ref <= np.min(np.sum(np.abs(probes) ** p, axis=1)) * (1 + 1e-12)


def test_agree_replays_criterion_5_population():
    # Criterion 5(e)'s 400 draws of PortableRng(505, stream=1) in draw order,
    # through the workload's own draw, solves and agreement rule.
    rng = workloads.PortableRng(505, stream=1)
    scored = []
    for _ in range(400):
        prob, p = workloads.Agree._draw(rng)
        scored.append((prob, p, *workloads.solve_pair(prob, p)))
    assert workloads.agreement(scored)["agree_ratio"] == 355 / 400


def test_instrument_wraps_every_binding_and_restores():
    from jointsparse import cli, solvers

    original = solvers.check_equivalence
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert cli.check_equivalence is solvers.check_equivalence
        assert solvers.check_equivalence is not original
    assert cli.check_equivalence is original and solvers.check_equivalence is original


def test_benchmark_json_matches_metric_tables():
    on_disk = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert on_disk == metrics.spec()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    result, detail = run.measure(cls, seed=1, seconds=1.0, ops=2, tiny=True,
                                 setup_reps=1, t0=time.perf_counter())
    assert result["correct"] and result["attempted"] == 2, detail
    assert set(result["metrics"]) == {m["name"] for m in metrics.END_TO_END}
    assert all(v["value"] > 0 for v in result["metrics"].values())

    result, detail = run.measure_traced(cls, seed=1, seconds=1.0, ops=2, tiny=True,
                                        spans_path=tmp_path / "spans.json")
    assert result["correct"], detail
    assert list(result["metrics"]) == [n for n, _u in metrics.PER_LAYER]
    assert detail["accounted_s"] == pytest.approx(detail["traced_op_s"], rel=1e-2)
    assert detail["min_self_s"] >= -run.SELF_TIME_SLACK
    written = json.loads((tmp_path / "spans.json").read_text())
    assert {s[4] for s in written["spans"] if s[0] == spans.OP} == {0, 1}
