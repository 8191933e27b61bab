"""Layer spans for the traced run, recorded from outside the package.

``instrument(tracer)`` replaces each public function named in ``TARGETS`` by
a timing wrapper in every ``jointsparse`` module namespace that binds it, so
a call through ``cli.check_equivalence`` is timed as well as one through
``solvers.check_equivalence``.  The originals are put back on exit.

A span is ``[name, start, end, parent, op]``.  Leaf functions called
thousands of times per op (``LEAVES``) are not given spans: each parent span
keeps a count and a total for them instead, which keeps the trace small.
Self time is a span's duration minus the time its child spans and leaf
calls cover.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import math
import time
from collections import Counter, defaultdict

MODULES = ("bounds", "cli", "generators", "linalg", "norms", "nsc", "solvers")

TARGETS = (
    "cli.main",
    "solvers.check_equivalence", "solvers.l20_solve", "solvers.irls_solve",
    "solvers.nullspace_solve",
    "linalg.min_norm_solution", "linalg.nullspace_basis", "linalg.eig_summary",
    "linalg.gram_eigenvalues",
    "nsc.nsc_curve", "nsc.nsc_estimate", "nsc.spark", "nsc.max_recoverable_k",
    "bounds.pstar",
    "generators.gen_problem",
)
LEAVES = (
    "norms.theta_max_over_S", "norms.mixed_norm_2p", "norms.row_support",
    "bounds.theorem4_bound", "generators.PortableRng.normal",
)
OP = "op"


class Tracer:
    """In-memory spans of one traced run; written out only when it ends."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.leaves: dict[tuple, list] = {}     # (parent span, name) -> [count, total]
        self.events: dict[int | None, Counter] = defaultdict(Counter)  # op -> counts
        self.attrs: dict[int, int] = {}         # span -> nullity * r (nullspace_solve)
        self.stack: list[int] = []
        self.op: int | None = None

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, self.clock(), None, parent, self.op])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self.stack.pop()

    def leaf(self, name: str, seconds: float) -> None:
        key = (self.stack[-1] if self.stack else None, name)
        rec = self.leaves.get(key)
        if rec is None:
            self.leaves[key] = [1, seconds]
        else:
            rec[0] += 1
            rec[1] += seconds

    def count(self, name: str, n: int = 1) -> None:
        self.events[self.op][name] += n

    @contextlib.contextmanager
    def op_span(self, op: int):
        self.op = op
        idx = self.open(OP)
        try:
            yield
        finally:
            self.close(idx)
            self.op = None


def dump(tracer: Tracer) -> dict:
    """The trace as JSON: spans as [name, start, end, parent, op], and leaf
    calls as [parent span, name, count, total seconds]."""
    return {
        "spans": tracer.spans,
        "leaves": [[parent, name, count, total]
                   for (parent, name), (count, total) in tracer.leaves.items()],
    }


def _union_length(intervals) -> float:
    total, end = 0.0, -math.inf
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


def self_times(spans, leaves) -> list[float]:
    """Self time of each span: its duration minus the union of its child
    span intervals and the total of the leaf calls made directly under it."""
    children = defaultdict(list)
    for name, s, e, parent, op in spans:
        if parent is not None:
            children[parent].append((s, e))
    leaf_time = defaultdict(float)
    for (parent, _name), (_count, total) in leaves.items():
        if parent is not None:
            leaf_time[parent] += total
    return [
        (e - s) - _union_length(children[i]) - leaf_time[i]
        for i, (name, s, e, parent, op) in enumerate(spans)
    ]


# ---------------------------------------------------------------------------
# counts taken from public inputs and outputs


def _supports_tried(n: int, card: int) -> int:
    return sum(math.comb(n, c) for c in range(1, card + 1))


def _nullity_r(prob) -> int:
    # The generated matrices have full row rank, so the nullity is n - m.
    return (prob.n - prob.m) * prob.r


def _starts(prob, opts) -> int:
    d = prob.n - prob.m
    if d == 0:
        return 0
    return (1 + (prob.planted is not None) + opts.restarts
            + (_nullity_r(prob) <= 2))


def _wrap(tracer: Tracer, name: str, fn, errors):
    """A span-recording stand-in for ``fn``, with the per-function counts."""
    if name in LEAVES:
        @functools.wraps(fn)
        def leaf(*args, **kwargs):
            t0 = tracer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.leaf(name, tracer.clock() - t0)
        return leaf

    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        bound = None
        if name in ("solvers.irls_solve", "solvers.nullspace_solve", "solvers.l20_solve"):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            if name == "solvers.irls_solve":
                opts = bound.arguments["opts"]
                inner = opts.callback

                def counting(*cb_args):
                    tracer.count("solvers.irls_solve.iterations")
                    if inner is not None:
                        inner(*cb_args)
                bound.arguments["opts"] = dataclasses.replace(opts, callback=counting)
            args, kwargs = bound.args, bound.kwargs
        idx = tracer.open(name)
        if name == "solvers.nullspace_solve":
            tracer.attrs[idx] = _nullity_r(bound.arguments["prob"])
        try:
            result = fn(*args, **kwargs)
        except errors.MaxIterationsExceeded:
            if name == "solvers.irls_solve":
                tracer.count("solvers.irls_solve.budget_outs")
            raise
        finally:
            tracer.close(idx)
        if name == "solvers.l20_solve":
            prob = bound.arguments["prob"]
            tracer.count("solvers.l20_solve.supports_tried",
                         _supports_tried(prob.n, len(result.support)))
        elif name == "solvers.nullspace_solve":
            tracer.count("solvers.nullspace_solve.starts",
                         _starts(bound.arguments["prob"], bound.arguments["opts"]))
        return result

    return spanned


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    mods = {m: importlib.import_module(f"jointsparse.{m}") for m in MODULES}
    namespaces = [importlib.import_module("jointsparse"), *mods.values()]
    errors = importlib.import_module("jointsparse.errors")
    rng_cls = mods["generators"].PortableRng
    wrappers = {}
    for name in TARGETS + LEAVES:
        if name == "generators.PortableRng.normal":
            continue
        mod, attr = name.split(".")
        fn = getattr(mods[mod], attr)
        wrappers[id(fn)] = (fn, _wrap(tracer, name, fn, errors))
    replaced = []
    for ns in namespaces:
        for attr, val in list(vars(ns).items()):
            hit = wrappers.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(ns, attr, hit[1])
                replaced.append((ns, attr, val))
    normal = rng_cls.normal
    rng_cls.normal = _wrap(tracer, "generators.PortableRng.normal", normal, errors)
    try:
        yield tracer
    finally:
        rng_cls.normal = normal
        for ns, attr, val in replaced:
            setattr(ns, attr, val)


# ---------------------------------------------------------------------------
# per-layer figures


def op_counts(tracer: Tracer, op: int) -> Counter:
    """Machine-independent counts of one op: calls per function and the
    counts taken from its inputs and outputs."""
    out = Counter(tracer.events.get(op, Counter()))
    for name, s, e, parent, span_op in tracer.spans:
        if span_op == op and name != OP:
            out[name + ".calls"] += 1
    for (parent, name), (count, _total) in tracer.leaves.items():
        if parent is not None and tracer.spans[parent][4] == op:
            out[name + ".calls"] += count
    return out


def _dr_bucket(dr: int) -> str:
    if dr <= 2:
        return f"dr{dr}"
    return "dr3-4" if dr <= 4 else "dr5-8"


def layer_metrics(tracer: Tracer, n_ops: int) -> tuple[dict, float, float]:
    """Per-layer figures; the op time that the layer self times and the
    unspanned time add up to, for comparison with the op times taken outside
    the tracer; and the smallest self time of any span, which is negative if
    some time was subtracted twice.  Calls and per-call times cover set-up
    too; the per-op figures cover ops only."""
    selfs = self_times(tracer.spans, tracer.leaves)
    calls, self_s = Counter(), defaultdict(float)
    op_calls, op_self_s = Counter(), defaultdict(float)     # inside ops only
    dr_calls, dr_self = Counter(), defaultdict(float)
    op_self = 0.0
    for i, (name, s, e, parent, op) in enumerate(tracer.spans):
        if name == OP:
            op_self += selfs[i]
            continue
        calls[name] += 1
        self_s[name] += selfs[i]
        if op is not None:
            op_calls[name] += 1
            op_self_s[name] += selfs[i]
        if i in tracer.attrs:
            bucket = _dr_bucket(tracer.attrs[i])
            dr_calls[bucket] += 1
            dr_self[bucket] += selfs[i]
    for (parent, name), (count, total) in tracer.leaves.items():
        calls[name] += count
        self_s[name] += total
        if parent is not None and tracer.spans[parent][4] is not None:
            op_calls[name] += count
            op_self_s[name] += total
    events = Counter()
    for counter in tracer.events.values():
        events.update(counter)

    def per_call(total, count, scale):
        return total * scale / count if count else 0.0

    out = {}
    for name in TARGETS + LEAVES:
        out[name + ".calls"] = calls[name]
    for name in ("cli.main", "nsc.nsc_estimate"):
        out[name + ".self_ms"] = per_call(self_s[name], calls[name], 1e3)
    for name in ("solvers.l20_solve", "solvers.irls_solve", "solvers.nullspace_solve",
                 "nsc.spark", "bounds.pstar", "generators.gen_problem"):
        out[name + ".ms"] = per_call(self_s[name], calls[name], 1e3)
    for bucket in ("dr1", "dr2", "dr3-4", "dr5-8"):
        out["solvers.nullspace_solve.ms." + bucket] = per_call(
            dr_self[bucket], dr_calls[bucket], 1e3)
    for name in ("norms.theta_max_over_S", "generators.PortableRng.normal"):
        out[name + ".us"] = per_call(self_s[name], calls[name], 1e6)
    for name in ("solvers.l20_solve.supports_tried", "solvers.nullspace_solve.starts",
                 "solvers.irls_solve.iterations", "solvers.irls_solve.budget_outs"):
        out[name] = events[name]
    # eig_summary factors through gram_eigenvalues, so it is not counted again
    factorizations = sum(op_calls[f"linalg.{f}"] for f in
                         ("min_norm_solution", "nullspace_basis", "gram_eigenvalues"))
    out["linalg.factorizations_per_op"] = factorizations / n_ops
    out["linalg.self_ms"] = sum(t for n, t in op_self_s.items()
                                if n.startswith("linalg.")) * 1e3 / n_ops
    estimates = calls["nsc.nsc_estimate"]
    out["norms.theta_max_over_S.calls_per_estimate"] = (
        calls["norms.theta_max_over_S"] / estimates if estimates else 0.0)
    out["trace.unspanned_ms"] = op_self * 1e3 / n_ops
    accounted = sum(op_self_s.values()) + op_self
    return out, accounted, min(selfs, default=0.0)
