"""Command-line interface.

Every command prints a RunReport envelope as JSON on stdout:

    {"command": ..., "inputs_digest": ..., "outputs": ..., "runtime_ms": ...,
     "seed": ...}

and is deterministic byte-for-byte apart from runtime_ms.  ``--csv`` switches
tabular commands (solve, sweep, nsc) to a plain CSV rendering on stdout;
``--out PATH`` additionally writes the primary payload to a file.  Exit
codes: 0 success, 1 computational failure (error JSON on stderr), 2 bad
input or usage, including an option outside its domain (error JSON on
stderr).  Reports are strict JSON: a non-finite number that reaches one
fails the run with exit code 1 instead of printing ``NaN`` or ``Infinity``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from decimal import Decimal
from importlib import resources

import numpy as np

from .bounds import pstar, pstar_report_to_json, theorem4_bound
from .errors import DomainError, JointSparseError
from .generators import gen_problem, genspec_from_json
from .linalg import eig_summary, matrix_from_csv, matrix_from_json, matrix_to_csv
from .norms import DEFAULT_ZERO_TOL
from .nsc import NscOptions, estimate_to_json, nsc_curve
from .solvers import (
    DescentOptions,
    EquivalenceOptions,
    IrlsOptions,
    MmvProblem,
    check_equivalence,
    irls_solve,
    l20_solve,
    nullspace_solve,
    problem_from_json,
    problem_to_json,
    solution_to_json,
)

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_USAGE = 2

#: Most points a start:stop:step grid may expand to.
MAX_GRID_POINTS = 10_000


class UsageError(Exception):
    """Bad input or usage: maps to exit code 2."""


@dataclass(frozen=True)
class Flags:
    """Global options shared by every command."""

    seed: int
    tol: float | None
    out: str | None
    fmt: str


@dataclass(frozen=True)
class RunReport:
    command: str
    inputs_digest: str
    outputs: dict
    runtime_ms: int
    seed: int | None


def report_to_json(rep: RunReport) -> dict:
    return {
        "command": rep.command,
        "inputs_digest": rep.inputs_digest,
        "outputs": rep.outputs,
        "runtime_ms": rep.runtime_ms,
        "seed": rep.seed,
    }


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
        h.update(b"\x00")
    return h.hexdigest()


def _enc(v: float):
    """Floats for JSON; non-finite values become the string 'inf'/'-inf'."""
    if isinstance(v, float) and not math.isfinite(v):
        return "inf" if v > 0 else "-inf"
    return v


def _read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _load_problem(path: str) -> tuple[MmvProblem, bytes]:
    raw = _read_file(path)
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UsageError(f"{path}: not valid JSON: {exc}") from None
    try:
        return problem_from_json(obj), raw
    except JointSparseError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _load_matrix_source(path: str) -> tuple[np.ndarray, bytes]:
    """A problem JSON (its A), a bare JSON matrix, or a CSV matrix."""
    raw = _read_file(path)
    text = raw.decode("utf-8", errors="replace").lstrip()
    try:
        if text.startswith("{"):
            prob, _ = _load_problem(path)
            return prob.a, raw
        if text.startswith("["):
            return matrix_from_json(json.loads(text), name=path), raw
        return matrix_from_csv(text, name=path), raw
    except UsageError:
        raise
    except (json.JSONDecodeError, JointSparseError) as exc:
        raise UsageError(f"{path}: {exc}") from None


def _parse_grid(spec: str) -> list[float]:
    """Either comma-separated values or start:stop:step (inclusive).

    A range is stepped in decimal arithmetic, so each point is the float
    nearest its decimal value: ``0.1:0.3:0.1`` gives 0.1, 0.2, 0.3.
    """
    spec = spec.strip()
    try:
        if ":" in spec:
            lo, hi, step = (Decimal(tok) for tok in spec.split(":"))
            if not (lo.is_finite() and hi.is_finite() and step.is_finite()):
                raise ValueError("start, stop and step must be finite")
            if step <= 0 or hi < lo:
                raise ValueError("need stop >= start and step > 0")
            steps = (hi - lo) / step
            if steps >= MAX_GRID_POINTS:
                raise ValueError(f"more than {MAX_GRID_POINTS} points")
            points = (lo + i * step for i in range(int(steps) + 1))
            grid = [float(q) for q in points if q <= hi]
        else:
            grid = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"bad grid {spec!r}: {exc}") from None
    except ArithmeticError:                 # decimal's syntax and overflow signals
        raise UsageError(f"bad grid {spec!r}: not a decimal start:stop:step") from None
    if not grid:
        raise UsageError(f"bad grid {spec!r}: empty")
    if not all(math.isfinite(q) for q in grid):
        raise UsageError(f"bad grid {spec!r}: values must be finite")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise UsageError(f"bad grid {spec!r}: values must be strictly ascending")
    return grid


#: Domains [lo, hi) of the integer options; a seed keys a 64-bit Philox stream.
_INT_OPTIONS = {"seed": (0, 2 ** 64), "k_max": (1, math.inf), "restarts": (0, math.inf)}


def _check_options(args: argparse.Namespace) -> None:
    """Reject option values outside their domain, once, right after parsing."""
    for name, (lo, hi) in _INT_OPTIONS.items():
        value = getattr(args, name, None)       # only some commands take k_max, restarts
        if value is not None and not lo <= value < hi:
            raise UsageError(f"--{name.replace('_', '-')} must lie in [{lo}, {hi}), got {value}")
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise UsageError(f"--tol must be finite and >= 0, got {args.tol}")


def _zero_tol(flags: Flags) -> float:
    return flags.tol if flags.tol is not None else DEFAULT_ZERO_TOL


def _emit(rep: RunReport, flags: Flags, csv_text: str | None = None) -> None:
    if flags.fmt == "csv":
        if csv_text is None:
            raise UsageError("--csv is not supported for this command")
        sys.stdout.write(csv_text)
        if flags.out:
            with open(flags.out, "w") as fh:
                fh.write(csv_text)
        return
    print(json.dumps(report_to_json(rep), indent=2, allow_nan=False))
    if flags.out:
        with open(flags.out, "w") as fh:
            json.dump(rep.outputs, fh, indent=2)
            fh.write("\n")


# ---------------------------------------------------------------------------
# commands


def cmd_pstar(problem_path: str, flags: Flags) -> tuple[RunReport, None]:
    prob, raw = _load_problem(problem_path)
    t0 = time.perf_counter()
    rep = pstar(prob.a, prob.b, zero_tol=_zero_tol(flags))
    ms = int((time.perf_counter() - t0) * 1000)
    outputs = pstar_report_to_json(rep)
    return RunReport(
        command="pstar",
        inputs_digest=_digest(raw, f"zero_tol={_zero_tol(flags)}".encode()),
        outputs=outputs,
        runtime_ms=ms,
        seed=None,
    ), None


def cmd_solve(
    problem_path: str,
    method: str,
    p: float | None,
    flags: Flags,
    k_max: int | None,
) -> tuple[RunReport, str]:
    prob, raw = _load_problem(problem_path)
    if method not in ("l20", "irls", "nullspace"):
        raise UsageError(f"unknown method {method!r}")
    if method in ("irls", "nullspace"):
        if p is None:
            raise UsageError(f"method {method} needs --p")
        if not (0.0 < p <= 1.0):
            raise UsageError(f"p must lie in (0, 1], got {p}")
        if k_max is not None:
            raise UsageError(f"--k-max applies to --method l20 only, not {method}")
    elif k_max is not None and k_max > prob.n:
        raise UsageError(f"--k-max must lie in 1..{prob.n} for this problem, got {k_max}")
    zero_tol = _zero_tol(flags)
    t0 = time.perf_counter()
    if method == "l20":
        cap = k_max if k_max is not None else (prob.k or min(prob.m, prob.n))
        sol = l20_solve(prob, cap, zero_tol=zero_tol)
    elif method == "irls":
        sol = irls_solve(prob, p, IrlsOptions(zero_tol=zero_tol))
    else:
        sol = nullspace_solve(prob, p, DescentOptions(seed=flags.seed, zero_tol=zero_tol))
    ms = int((time.perf_counter() - t0) * 1000)
    outputs = solution_to_json(sol)
    digest = _digest(raw, f"method={method},p={p},k_max={k_max},tol={zero_tol}".encode())
    rep = RunReport(
        command="solve", inputs_digest=digest, outputs=outputs, runtime_ms=ms,
        seed=flags.seed if method == "nullspace" else None,
    )
    return rep, matrix_to_csv(sol.x)


def cmd_sweep(problem_path: str, p_grid: list[float], flags: Flags) -> tuple[RunReport, str]:
    prob, raw = _load_problem(problem_path)
    for q in p_grid:
        if not (0.0 < q <= 1.0):
            raise UsageError(f"grid value {q} outside (0, 1]")
    zero_tol = _zero_tol(flags)
    rows = []
    t0 = time.perf_counter()
    for q in p_grid:
        try:
            report = check_equivalence(
                prob, q, EquivalenceOptions(seed=flags.seed, zero_tol=zero_tol)
            )
            best = report.best_method
            best_obj = None
            if best == "irls":
                best_obj = report.irls.objective
            elif best == "nullspace":
                best_obj = report.nullspace.objective
            rows.append({
                "p": q,
                "equivalent": report.equivalent,
                "l2p_objective": _enc(best_obj) if best_obj is not None else None,
                "l20_objective": report.l20.objective,
                "distance": _enc(report.distance),
                "best_method": best,
                "error": "",
            })
        except JointSparseError as exc:
            rows.append({
                "p": q, "equivalent": None, "l2p_objective": None,
                "l20_objective": None, "distance": None, "best_method": None,
                "error": f"{type(exc).__name__}: {exc}",
            })
    ms = int((time.perf_counter() - t0) * 1000)
    header = "p,equivalent,l2p_objective,l20_objective,distance,best_method,error"
    lines = [header]
    for row in rows:
        lines.append(",".join(
            "" if row[c] is None else str(row[c]).replace(",", ";")
            for c in ("p", "equivalent", "l2p_objective", "l20_objective",
                      "distance", "best_method", "error")
        ))
    csv_text = "\n".join(lines) + "\n"
    digest = _digest(raw, json.dumps(p_grid).encode(), f"tol={zero_tol}".encode())
    rep = RunReport(
        command="sweep", inputs_digest=digest,
        outputs={"rows": rows}, runtime_ms=ms, seed=flags.seed,
    )
    return rep, csv_text


def cmd_nsc(
    source_path: str,
    k: int,
    flags: Flags,
    r: int,
    p_grid: list[float],
    restarts: int,
) -> tuple[RunReport, str]:
    a, raw = _load_matrix_source(source_path)
    if any(not (0.0 <= q <= 1.0) for q in p_grid):
        raise UsageError("nsc grid values must lie in [0, 1]")
    n = a.shape[1]
    if not (1 <= k < n):
        raise UsageError(f"--k must lie in 1..{n - 1} for this matrix, got {k}")
    if r < 1:
        raise UsageError(f"--r must be >= 1, got {r}")
    opts = NscOptions(seed=flags.seed, restarts=restarts, zero_tol=_zero_tol(flags))
    t0 = time.perf_counter()
    curve = nsc_curve(a, r, k, p_grid, opts)
    lam = eig_summary(a).ratio
    rows = []
    for est in curve:
        try:
            cap = theorem4_bound(est.p, n, k, lam)
        except DomainError:
            cap = None
        digest = hashlib.sha256(
            json.dumps(estimate_to_json(est)["certificate_X"]).encode()
        ).hexdigest()[:16]
        rows.append({
            "p": est.p,
            "value": _enc(est.value),
            "exact": est.exact,
            "support": list(est.certificate_support.indices),
            "theorem4_bound": cap,
            "certificate_digest": digest,
        })
    ms = int((time.perf_counter() - t0) * 1000)
    header = "p,value,exact,support,theorem4_bound,certificate_digest"
    lines = [header]
    for row in rows:
        lines.append(",".join([
            str(row["p"]),
            str(row["value"]),
            str(row["exact"]),
            ";".join(str(i) for i in row["support"]),
            "" if row["theorem4_bound"] is None else str(row["theorem4_bound"]),
            row["certificate_digest"],
        ]))
    csv_text = "\n".join(lines) + "\n"
    outputs = {
        "k": k, "r": r, "lam": lam,
        "curve": rows,
        "certificates": [estimate_to_json(est) for est in curve],
    }
    digest = _digest(raw, json.dumps([k, r, p_grid, restarts]).encode())
    rep = RunReport(
        command="nsc", inputs_digest=digest, outputs=outputs,
        runtime_ms=ms, seed=flags.seed,
    )
    return rep, csv_text


def _packaged_problem(name: str) -> tuple[MmvProblem, bytes]:
    ref = resources.files("jointsparse.data").joinpath(f"{name}.json")
    raw = ref.read_bytes()
    return problem_from_json(json.loads(raw.decode("utf-8"))), raw


def cmd_reproduce(which: str, flags: Flags) -> tuple[RunReport, None]:
    if which not in ("example1", "example2"):
        raise UsageError(f"unknown example {which!r} (choose example1 or example2)")
    prob, raw = _packaged_problem(which)
    checks: list[dict] = []

    def record(name: str, expected, actual, tol: float | None = None):
        if tol is None:
            ok = expected == actual
        else:
            ok = abs(float(expected) - float(actual)) <= tol
        checks.append({"name": name, "expected": _enc(expected),
                       "actual": _enc(actual), "tol": tol, "pass": bool(ok)})

    t0 = time.perf_counter()
    outputs: dict = {"example": which}
    if which == "example1":
        joint = l20_solve(prob, prob.k)
        per_column_supports = []
        total = 0
        for j in range(prob.r):
            col = MmvProblem(a=prob.a, b=prob.b[:, [j]])
            sol = l20_solve(col, min(prob.m, prob.n))
            per_column_supports.append(list(sol.support.indices))
            total += int(sol.objective)
        combined = sorted({i for sup in per_column_supports for i in sup})
        record("joint_row_sparsity", 3, int(joint.objective))
        record("columnwise_total_sparsity", 4, total)
        record("combined_columnwise_support_size", 4, len(combined))
        outputs.update({
            "joint": solution_to_json(joint),
            "per_column_supports": per_column_supports,
            "combined_support": combined,
        })
    else:
        rep = pstar(prob.a, prob.b)
        record("p_star", 0.8176, rep.p_star, tol=5e-4)
        exact = l20_solve(prob, prob.k)
        record("l20_support", [2, 5], list(exact.support.indices))
        record("l20_unique", True, exact.unique)
        outputs["pstar"] = pstar_report_to_json(rep)
        outputs["l20"] = solution_to_json(exact)
        recoveries = []
        for q in (0.3, 0.5, 0.8175):
            sol = nullspace_solve(prob, q, DescentOptions(seed=flags.seed))
            dist = float(np.linalg.norm(sol.x - prob.planted))
            record(f"nullspace_recovery_p_{q}", 0.0, dist, tol=1e-4)
            recoveries.append({"p": q, "distance": dist,
                               "objective": sol.objective,
                               "support": list(sol.support.indices)})
        outputs["recoveries"] = recoveries
    ms = int((time.perf_counter() - t0) * 1000)
    outputs["checks"] = checks
    outputs["all_pass"] = all(c["pass"] for c in checks)
    rep = RunReport(
        command="reproduce", inputs_digest=_digest(raw, which.encode()),
        outputs=outputs, runtime_ms=ms,
        seed=flags.seed if which == "example2" else None,
    )
    return rep, None


def cmd_gen(spec_arg: str, flags: Flags) -> tuple[RunReport, None]:
    text = spec_arg.strip()
    if not text.startswith("{"):
        text = _read_file(spec_arg).decode("utf-8", errors="replace")
    try:
        spec = genspec_from_json(json.loads(text))
    except json.JSONDecodeError as exc:
        raise UsageError(f"gen spec is not valid JSON: {exc}") from None
    except JointSparseError as exc:
        raise UsageError(f"gen spec invalid: {exc}") from None
    t0 = time.perf_counter()
    prob = gen_problem(spec)
    ms = int((time.perf_counter() - t0) * 1000)
    outputs = problem_to_json(prob)
    rep = RunReport(
        command="gen",
        inputs_digest=_digest(json.dumps(spec.to_json(), sort_keys=True).encode()),
        outputs=outputs, runtime_ms=ms, seed=spec.seed,
    )
    return rep, None


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="seed for randomized steps")
    common.add_argument("--tol", type=float, default=None,
                        help="override the zero/support tolerance")
    common.add_argument("--out", default=None, help="also write the payload to this file")
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="fmt", action="store_const", const="json",
                     help="JSON envelope output (default)")
    fmt.add_argument("--csv", dest="fmt", action="store_const", const="csv",
                     help="CSV rendering (tabular commands)")
    common.set_defaults(fmt="json")

    parser = argparse.ArgumentParser(
        prog="jointsparse",
        description="Joint sparse recovery: solvers, null-space constants, thresholds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("pstar", parents=[common],
                        help="equivalence threshold p*(A, B) for a problem file")
    sp.add_argument("problem", help="problem JSON path")

    sp = sub.add_parser("solve", parents=[common], help="solve one instance")
    sp.add_argument("problem", help="problem JSON path")
    sp.add_argument("--method", required=True, choices=("l20", "irls", "nullspace"))
    sp.add_argument("--p", type=float, default=None, help="exponent for irls/nullspace")
    sp.add_argument("--k-max", type=int, default=None, dest="k_max",
                    help="enumeration cap for --method l20")

    sp = sub.add_parser("sweep", parents=[common],
                        help="equivalence check over a grid of p values")
    sp.add_argument("problem", help="problem JSON path")
    sp.add_argument("--grid", required=True,
                    help="comma list '0.1,0.5,0.9' or range 'start:stop:step'")

    sp = sub.add_parser("nsc", parents=[common],
                        help="null-space constant curve with certificates")
    sp.add_argument("source", help="problem JSON, matrix JSON, or matrix CSV path")
    sp.add_argument("--k", type=int, required=True, help="sparsity level")
    sp.add_argument("--r", type=int, default=1, help="number of columns (default 1)")
    sp.add_argument("--grid", default="0:1:0.1", help="p grid (default 0:1:0.1)")
    sp.add_argument("--restarts", type=int, default=64)

    sp = sub.add_parser("reproduce", parents=[common],
                        help="re-derive the recorded values for a bundled example")
    sp.add_argument("which", help="example1 or example2")

    sp = sub.add_parser("gen", parents=[common],
                        help="generate a problem from a GenSpec (inline JSON or path)")
    sp.add_argument("spec", help="GenSpec JSON text or file path")
    return parser


def _fail(code: int, kind: str, message: str, **extra) -> int:
    print(json.dumps({"error": {"type": kind, "message": message, **extra}}),
          file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    flags = Flags(seed=args.seed, tol=args.tol, out=args.out, fmt=args.fmt)
    try:
        _check_options(args)
        if args.command == "pstar":
            rep, csv_text = cmd_pstar(args.problem, flags)
        elif args.command == "solve":
            rep, csv_text = cmd_solve(args.problem, args.method, args.p, flags,
                                      k_max=args.k_max)
        elif args.command == "sweep":
            rep, csv_text = cmd_sweep(args.problem, _parse_grid(args.grid), flags)
        elif args.command == "nsc":
            rep, csv_text = cmd_nsc(args.source, args.k, flags, r=args.r,
                                    p_grid=_parse_grid(args.grid), restarts=args.restarts)
        elif args.command == "reproduce":
            rep, csv_text = cmd_reproduce(args.which, flags)
        else:
            rep, csv_text = cmd_gen(args.spec, flags)
    except UsageError as exc:
        return _fail(EXIT_USAGE, "UsageError", str(exc))
    except JointSparseError as exc:
        return _fail(EXIT_COMPUTE, type(exc).__name__, str(exc))
    try:
        _emit(rep, flags, csv_text)
    except UsageError as exc:
        return _fail(EXIT_USAGE, "UsageError", str(exc))
    except ValueError as exc:                # json refuses NaN and Infinity
        return _fail(EXIT_COMPUTE, "NonFiniteOutput", f"report is not strict JSON: {exc}")
    if args.command == "reproduce" and not rep.outputs["all_pass"]:
        failures = [c for c in rep.outputs["checks"] if not c["pass"]]
        return _fail(EXIT_COMPUTE, "ReproduceMismatch",
                     f"{len(failures)} check(s) failed", failures=failures)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
