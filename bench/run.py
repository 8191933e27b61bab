"""Benchmark for jointsparse: seeded workloads, measured end to end and per
layer.  ``agree``, ``nsc`` and ``exact`` are gated in ``BENCHMARK.json``;
``sweep`` runs the same way but is not gated.

One workload, untraced (the gated end-to-end metrics) or traced (the
per-layer metrics):

    python3 bench/run.py --workload agree --seed 505 --seconds 44 --trace 0

Every workload, each in its own process, untraced and then traced; prints
every metric with its unit and direction, writes ``BENCHMARK.json`` from the
tables in ``metrics.py`` and the full results with an environment block to
``bench/out/report.json``:

    python3 bench/run.py --all

A traced run also writes its spans to
``bench/out/spans-<workload>-<seed>.json``.

Load is a single closed-loop client: the next op starts when the previous
one returns.  BLAS runs on one thread.  The last line of stdout is the result
object; the lines before it are for people, except the one starting with
``DETAIL``, which ``--all`` reads.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import metrics  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / ".work"
REPORT = ROOT / "bench" / "out" / "report.json"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPS = 5
# Ops in the traced run at ``metrics.RUN_SECONDS``: the untraced and the
# traced pass over them, plus one repeated op, take about half that long.
# The traced run gates nothing, so it is kept short.
TRACE_OPS = {"agree": 30, "sweep": 6, "nsc": 4, "exact": 8}
# The layer self times plus the unspanned time must match the op times taken
# around the op spans to this share, plus this much per op for entering and
# leaving the op span itself.
ACCOUNTING_RTOL = 1e-3
ACCOUNTING_ATOL_PER_OP = 1e-4
# Rounding slack below zero for a span's self time.
SELF_TIME_SLACK = 1e-9


def pin_blas() -> None:
    """One BLAS thread; must run before numpy is imported."""
    for var in BLAS_VARS:
        os.environ[var] = "1"


def load_package():
    """Put the checkout's ``src`` first on the path and import the workloads."""
    if not (SRC / "jointsparse" / "__init__.py").is_file():
        raise SystemExit(f"bench: no jointsparse sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads
    return workloads


def environment(seeds: dict) -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_commit": commit,
        "workload_seeds": seeds,
        "source_lines": {
            p.stem: len(p.read_text().splitlines())
            for p in sorted((SRC / "jointsparse").glob("*.py"))
        },
    }


@contextlib.contextmanager
def workdir(name: str):
    path = WORK / f"{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def timed_op(wl, i: int, tracer=None):
    """Run and check op ``i``: (seconds, problems, output).  An op that
    raises is a failed op, not a crash."""
    t = time.perf_counter()
    try:
        with tracer.op_span(i) if tracer is not None else contextlib.nullcontext():
            out = wl.op(i)
        dt = time.perf_counter() - t
        return dt, wl.check(i, out), out
    except Exception as exc:
        return time.perf_counter() - t, [f"{type(exc).__name__}: {exc}"], None


def op_loop(wl, n_ops: int | None = None, seconds: float | None = None):
    """Closed loop over ops 0, 1, ...: exactly ``n_ops`` of them, or as many
    as fit in ``seconds`` (the next op starts only while the mean op time so
    far says it will end in time; at least one op runs).

    Returns the op log, the (op index, output) of every op that passed its
    check, and the loop's wall time.
    """
    log, passed = metrics.OpLog(), []
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if n_ops is not None:
            if i >= n_ops:
                break
        elif i > 0 and elapsed * (i + 1) / i > seconds:
            break
        dt, problems, out = timed_op(wl, i)
        log.record(dt, problems)
        if not problems:
            passed.append((i, out))
        i += 1
    return log, passed, time.perf_counter() - start


def setup_in_subprocess(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up run failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def measure(cls, seed: int, seconds: float, ops: int | None = None, tiny: bool = False,
            setup_reps: int = SETUP_REPS, t0: float = _T0) -> tuple[dict, dict]:
    """Untraced run: the end-to-end metrics and the ungated details."""
    with workdir(cls.name) as wd:
        wl = cls(seed, wd, tiny)
        setups = [time.perf_counter() - t0]
        setups += [setup_in_subprocess(cls.name, seed) for _ in range(setup_reps - 1)]
        log, passed, wall = op_loop(wl, n_ops=ops, seconds=seconds)
    times_ms = [t * 1e3 for t in log.times]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": (log.attempted - log.failed) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"op_p50_ms": statistics.median(times_ms),
              "fail_ratio": log.fail_ratio(), "ops": log.attempted,
              "loop_s": wall, "setup_samples_s": setups, "failures": log.failures[:5]}
    tail = metrics.tail_percentile(times_ms)
    if tail is not None:
        q, value, beyond = tail
        detail.update(op_tail_ms=value, op_tail_percentile=q, op_tail_beyond=beyond)
    if passed:
        detail.update(wl.quality(passed))
    result = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics.END_TO_END},
    }
    return result, detail


def measure_traced(cls, seed: int, seconds: float, ops: int | None = None, tiny: bool = False,
                   spans_path: Path | None = None) -> tuple[dict, dict]:
    """Traced run: per-layer metrics from spans around the package's public
    functions, with the same ops run untraced for the overhead.  The spans
    are kept in memory and written to ``spans_path`` when the run ends."""
    n_ops = ops or max(1, round(TRACE_OPS[cls.name] * seconds / metrics.RUN_SECONDS))
    tracer, repeat = spans.Tracer(), spans.Tracer()
    plain, traced, again = metrics.OpLog(), metrics.OpLog(), metrics.OpLog()
    with workdir(cls.name) as wd:
        with spans.instrument(tracer):
            wl = cls(seed, wd, tiny)
        # Each op runs untraced and then traced, so that drift in the
        # machine's speed does not show as tracing overhead.
        for i in range(n_ops):
            plain.record(*timed_op(wl, i)[:2])
            with spans.instrument(tracer):
                traced.record(*timed_op(wl, i, tracer)[:2])
        with spans.instrument(repeat):
            again.record(*timed_op(wl, 0, repeat)[:2])
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps(spans.dump(tracer)))
    layer, accounted, min_self = spans.layer_metrics(tracer, n_ops)
    traced_s = sum(traced.times)
    layer["trace.overhead_ratio"] = traced_s / sum(plain.times)
    problems = plain.failures + traced.failures + again.failures
    if spans.op_counts(tracer, 0) != spans.op_counts(repeat, 0):
        problems.append("counts of op 0 differ between two traced runs of it")
    if abs(accounted - traced_s) > ACCOUNTING_RTOL * traced_s + ACCOUNTING_ATOL_PER_OP * n_ops:
        problems.append(f"layer self times and unspanned time add up to {accounted:.6f} s, "
                        f"the ops took {traced_s:.6f} s")
    if min_self < -SELF_TIME_SLACK:
        problems.append(f"a span's self time is {min_self:.3e} s: time subtracted twice")
    attempted = plain.attempted + traced.attempted + again.attempted
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": plain.failed + traced.failed + again.failed,
        "metrics": {n: {"value": layer[n], "unit": u} for n, u in metrics.PER_LAYER},
    }
    detail = {"ops": n_ops, "traced_op_s": traced_s, "accounted_s": accounted,
              "min_self_s": min_self, "problems": problems[:5],
              "counts_op0": dict(spans.op_counts(tracer, 0))}
    return result, detail


def print_run(name: str, seed: int, trace: int, result: dict, detail: dict) -> None:
    print(f"bench {name} seed={seed} trace={trace} attempted={result['attempted']} "
          f"failed={result['failed']} correct={result['correct']} blas_threads=1")
    if trace:
        for n, unit in metrics.PER_LAYER:
            print(f"  {n:44s} {result['metrics'][n]['value']:.6g} {unit} (lower is better)")
        return
    for m in metrics.END_TO_END:
        print(f"  {m['name']:18s} {result['metrics'][m['name']]['value']:.6g} {m['unit']}"
              f" ({m['better']} is better)")
    for n, unit, better in metrics.DETAIL:
        if n in detail:
            extra = ""
            if n == "op_p50_ms":
                extra = f" [{detail['ops']} samples]"
            if n == "op_tail_ms":
                extra = (f" [p{detail['op_tail_percentile']}, {detail['op_tail_beyond']} "
                         f"beyond, {detail['ops']} samples]")
            print(f"  {n:18s} {detail[n]:.6g} {unit} ({better} is better){extra}")


def run_all(seconds: float) -> int:
    """Every workload in its own process, untraced then traced."""
    runs, seeds = [], {}
    ok = True
    for name, _why in metrics.WORKLOADS + metrics.EXTRA_WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", name,
                    "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(line for line in lines if not line.startswith("DETAIL ")))
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                ok = False
                continue
            detail = json.loads(next(x for x in lines if x.startswith("DETAIL "))[7:])
            seeds[name] = detail["seed"]
            runs.append({"workload": name, "trace": trace,
                         "result": json.loads(lines[-1]), "detail": detail})
            ok = ok and runs[-1]["result"]["correct"]
    (ROOT / "BENCHMARK.json").write_text(json.dumps(metrics.spec(), indent=2) + "\n")
    REPORT.parent.mkdir(parents=True, exist_ok=True)
    REPORT.write_text(json.dumps({"env": environment(seeds), "runs": runs}, indent=1) + "\n")
    print(f"wrote {REPORT.relative_to(ROOT)} and BENCHMARK.json")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[
        n for n, _why in metrics.WORKLOADS + metrics.EXTRA_WORKLOADS])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced, write the report")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    pin_blas()
    workloads = load_package()
    if args.all:
        return run_all(args.seconds)
    if args.workload is None:
        parser.error("--workload or --all is required")
    cls = workloads.WORKLOADS[args.workload]
    seed = cls.default_seed if args.seed is None else args.seed
    if args.setup_only:
        with workdir(cls.name) as wd:
            cls(seed, wd)
            print(f"{time.perf_counter() - _T0!r}")
        return 0
    if args.trace:
        result, detail = measure_traced(
            cls, seed, args.seconds,
            spans_path=REPORT.parent / f"spans-{cls.name}-{seed}.json")
    else:
        result, detail = measure(cls, seed, args.seconds)
    detail.update(workload=cls.name, seed=seed, env=environment({cls.name: seed}))
    print_run(cls.name, seed, args.trace, result, detail)
    print("DETAIL " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
