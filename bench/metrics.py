"""What the benchmark reports: the workload and metric tables that
``BENCHMARK.json`` is written from, and the statistics behind them."""

from __future__ import annotations

import math

RUN_SECONDS = 44

# The workloads in BENCHMARK.json.  Between them they reach every layer.
WORKLOADS = [
    ("agree", "rounds of six criterion-5 instances, one per (nullity, r) class, IRLS then "
              "descent: per-call overhead, the <=2-D grid pass, per-call factorizations"),
    ("nsc", "cli nsc at p 0.1 on Gaussian 4x7 matrices, r2 k2, 64 restarts: certified "
            "ascent and theta_max_over_S scoring, with no solver call at all"),
    ("exact", "l20_solve, pstar, max_recoverable_k on Gaussian m16 n17 r4 k8: batched "
              "enumeration chunks (spark 2/3, l20 1/3), no relaxation solver call"),
]
# Run by ``--workload`` and ``--all`` but not gated: a fourth gated workload
# would cut every run to about 30 s, too short to average out the host's
# speed swings (see CHANGES.md).
EXTRA_WORKLOADS = [
    ("sweep", "cli sweep at p 0.2,0.3 on Gaussian m6 n10 r2 k3 (nullity*r 8): 8-D descent "
              "with 32 restarts, no grid pass, l20 and factorizations repeated per p"),
]

# Gated end-to-end metrics, reported by every workload with tracing off.
# ``bound`` is the share of the parent's median by which a metric may worsen.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

# Printed next to the gated metrics where the workload has them, but not
# gated: fail_ratio is 0 on a clean run, the quality figures exist for one
# workload each, and the op percentiles of a run of 10-20 ops moved by more
# than 0.25 (IQR/median) between runs on a 2-core host with noisy neighbours.
DETAIL = [
    ("op_p50_ms", "ms", "lower"),
    ("fail_ratio", "ratio", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("agree_ratio", "ratio", "higher"),
    ("irls_opt_ratio", "ratio", "higher"),
    ("descent_opt_ratio", "ratio", "higher"),
    ("equiv_ratio", "ratio", "higher"),
    ("nsc_h_mean", "value", "higher"),
    ("nsc_cert_max_rel_err", "ratio", "lower"),
]

# Per-layer metrics of the traced run.  ``.ms``/``.us``/``.self_ms`` of a
# function are its self time per call; ``.calls`` and the other counts are
# totals per run, set-up included.  A layer a workload never calls reads 0.
_C, _MS, _US = "count", "ms/call", "us/call"
PER_LAYER = [
    ("cli.main.calls", _C), ("cli.main.self_ms", _MS),
    ("solvers.l20_solve.calls", _C), ("solvers.l20_solve.ms", _MS),
    ("solvers.l20_solve.supports_tried", _C),
    ("solvers.irls_solve.calls", _C), ("solvers.irls_solve.ms", _MS),
    ("solvers.irls_solve.budget_outs", _C), ("solvers.irls_solve.iterations", _C),
    ("solvers.nullspace_solve.calls", _C), ("solvers.nullspace_solve.ms", _MS),
    ("solvers.nullspace_solve.ms.dr1", _MS), ("solvers.nullspace_solve.ms.dr2", _MS),
    ("solvers.nullspace_solve.ms.dr3-4", _MS), ("solvers.nullspace_solve.ms.dr5-8", _MS),
    ("solvers.nullspace_solve.starts", _C),
    ("linalg.min_norm_solution.calls", _C), ("linalg.nullspace_basis.calls", _C),
    ("linalg.eig_summary.calls", _C), ("linalg.gram_eigenvalues.calls", _C),
    ("linalg.factorizations_per_op", "count/op"), ("linalg.self_ms", "ms/op"),
    ("norms.theta_max_over_S.calls", _C), ("norms.theta_max_over_S.us", _US),
    ("norms.theta_max_over_S.calls_per_estimate", "count/call"),
    ("norms.mixed_norm_2p.calls", _C), ("norms.row_support.calls", _C),
    ("nsc.nsc_curve.calls", _C), ("nsc.nsc_estimate.calls", _C),
    ("nsc.nsc_estimate.self_ms", _MS), ("nsc.spark.calls", _C), ("nsc.spark.ms", _MS),
    ("bounds.pstar.calls", _C), ("bounds.pstar.ms", _MS), ("bounds.theorem4_bound.calls", _C),
    ("generators.gen_problem.calls", _C), ("generators.gen_problem.ms", _MS),
    ("generators.PortableRng.normal.calls", _C), ("generators.PortableRng.normal.us", _US),
    ("trace.overhead_ratio", "ratio"), ("trace.unspanned_ms", "ms/op"),
]
# Every count above repeats exactly for a given seed.  Lower is better for
# all of them: fewer calls, less work, less time.


def spec() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": "lower"} for n, u in PER_LAYER],
    }


def tail_percentile(samples) -> tuple[int, float, int] | None:
    """Highest whole percentile with at least ten samples beyond it.

    Returns ``(percentile, value, samples_beyond)`` by the nearest-rank rule,
    or None when there are too few samples for the tail to lie above the
    median (fewer than 20).
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 20:
        return None
    q = math.floor(100 * (n - 10) / n)
    rank = math.ceil(q * n / 100)           # 1-based nearest rank
    return q, xs[rank - 1], n - rank


class OpLog:
    """Closed-loop op accounting: every attempted op is timed and counted,
    and one that raised or failed its correctness check counts as failed."""

    def __init__(self):
        self.times: list[float] = []
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, seconds: float, problems: list[str]) -> None:
        self.times.append(seconds)
        if problems:
            self.failures.append("; ".join(problems))

    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
