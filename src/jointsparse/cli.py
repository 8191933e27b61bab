"""Command-line interface.

Every command prints one JSON envelope on stdout:

    {"command": ..., "inputs_digest": ..., "outputs": ..., "runtime_ms": ...,
     "seed": ...}

and is deterministic byte-for-byte apart from runtime_ms, which times the
whole command, input loading included (argument parsing and rendering are
not timed).  ``--csv`` switches tabular commands (solve, sweep, nsc) to a
plain CSV rendering on stdout; ``--out PATH`` additionally writes the primary
payload (the CSV text, or ``outputs`` alone) to a file, before anything is
printed.  Exit codes: 0 success, 1 computational failure (error JSON on
stderr), 2 bad input or usage, including an option outside its domain and
an ``--out`` path that cannot be written (error JSON on stderr).  Reports
are strict JSON: a non-finite number that reaches one fails the run with
exit code 1 instead of printing ``NaN`` or ``Infinity``.

Each ``cmd_*`` takes the parsed arguments and returns
``(outputs, csv_text or None, inputs_digest, seed)``; :func:`main` does the
rest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from decimal import Decimal
from functools import partial
from importlib import resources

import numpy as np

from .bounds import pstar, pstar_report_to_json, theorem4_bound
from .errors import DomainError, JointSparseError
from .generators import gen_problem, genspec_from_json
from .linalg import gram_spectrum, json_float, matrix_from_csv, matrix_from_json, matrix_to_csv
from .norms import DEFAULT_ZERO_TOL, check_count, check_grid, check_real, check_seed
from .norms import check_zero_tol
from .nsc import NscOptions, estimate_to_json, nsc_curve
from .solvers import (  # noqa: F401 (check_equivalence stays importable from cli)
    DescentOptions,
    EquivalenceOptions,
    IrlsOptions,
    MmvProblem,
    _compare,
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

#: What a command returns: (outputs, csv_text or None, inputs_digest, seed).
CommandResult = tuple[dict, str | None, str, int | None]


class UsageError(Exception):
    """Bad input or usage: maps to exit code 2."""


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
        h.update(b"\x00")
    return h.hexdigest()


def _csv(header: str, rows) -> str:
    """The header line, then one line per row of cells; None is an empty
    cell and a comma inside a cell becomes ';'."""
    lines = [header] + [
        ",".join("" if cell is None else str(cell).replace(",", ";") for cell in row)
        for row in rows
    ]
    return "\n".join(lines) + "\n"


def _read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None


def _parse_problem(raw: bytes, path: str) -> MmvProblem:
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UsageError(f"{path}: not valid JSON: {exc}") from None
    try:
        return problem_from_json(obj)
    except JointSparseError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _load_problem(path: str) -> tuple[MmvProblem, bytes]:
    raw = _read_file(path)
    return _parse_problem(raw, path), raw


def _load_matrix_source(path: str) -> tuple[np.ndarray, bytes]:
    """A problem JSON (its A), a bare JSON matrix, or a CSV matrix."""
    raw = _read_file(path)
    text = raw.decode("utf-8", errors="replace").lstrip()
    if text.startswith("{"):
        return _parse_problem(raw, path).a, raw
    try:
        if text.startswith("["):
            return matrix_from_json(json.loads(text), name=path), raw
        return matrix_from_csv(text, name=path), raw
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: {exc}") from None
    except JointSparseError as exc:             # its message starts with the path
        raise UsageError(str(exc)) from None


def _parse_grid(spec: str) -> list[float]:
    """Either comma-separated values or start:stop:step (inclusive): a
    non-empty list of finite reals, as ``norms.check_grid`` reads one.

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
        check_grid("grid", grid)
    except (ValueError, DomainError) as exc:
        raise UsageError(f"bad grid {spec!r}: {exc}") from None
    except ArithmeticError:                 # decimal's syntax and overflow signals
        raise UsageError(f"bad grid {spec!r}: not a decimal start:stop:step") from None
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise UsageError(f"bad grid {spec!r}: values must be strictly ascending")
    return grid


def _check_exponents(grid: list[float], strict: bool) -> None:
    """Refuse a --grid point outside [0, 1], or (0, 1] when *strict*: the
    exponent rule of the library call it feeds, before any point is used."""
    try:
        check_grid("grid", grid, 0, 1, strict=strict)
    except DomainError as exc:
        raise UsageError(f"--grid: {exc}") from None


#: The library's rule for each option that has one.
_OPTION_RULES = {
    "seed": partial(check_seed, "seed"),
    "tol": check_zero_tol,
    "p": partial(check_real, "p", least=0, most=1, strict=True),
    "k_max": partial(check_count, "k_max", least=1),
    "restarts": partial(check_count, "restarts", least=0),
    "r": partial(check_count, "r", least=1),
}


def _check_options(args: argparse.Namespace) -> None:
    """Reject option values outside their domain, once, right after parsing,
    by the rule the library applies to the same value."""
    for name, rule in _OPTION_RULES.items():
        value = getattr(args, name, None)       # only some commands take k_max, restarts, r
        if value is not None:
            try:
                rule(value)
            except DomainError as exc:
                raise UsageError(f"--{name.replace('_', '-')}: {exc}") from None


def _zero_tol(args: argparse.Namespace) -> float:
    return args.tol if args.tol is not None else DEFAULT_ZERO_TOL


# ---------------------------------------------------------------------------
# commands


def cmd_pstar(args: argparse.Namespace) -> CommandResult:
    prob, raw = _load_problem(args.problem)
    zero_tol = _zero_tol(args)
    try:
        rep = pstar(prob.spectrum, prob.b, zero_tol=zero_tol)
    except DomainError as exc:              # a shape outside pstar's domain
        raise UsageError(f"{args.problem}: {exc}") from None
    return pstar_report_to_json(rep), None, _digest(raw, f"zero_tol={zero_tol}".encode()), None


def cmd_solve(args: argparse.Namespace) -> CommandResult:
    method, p, k_max = args.method, args.p, args.k_max
    prob, raw = _load_problem(args.problem)
    if method in ("irls", "nullspace"):
        if p is None:
            raise UsageError(f"method {method} needs --p")
        if k_max is not None:
            raise UsageError(f"--k-max applies to --method l20 only, not {method}")
    elif p is not None:
        raise UsageError("--p applies to --method irls and nullspace only, not l20")
    elif k_max is not None and k_max > prob.n:
        raise UsageError(f"--k-max must lie in 1..{prob.n} for this problem, got {k_max}")
    zero_tol = _zero_tol(args)
    if method == "l20":
        sol = l20_solve(prob, k_max, zero_tol=zero_tol)
    elif method == "irls":
        sol = irls_solve(prob, p, IrlsOptions(zero_tol=zero_tol))
    else:
        sol = nullspace_solve(prob, p, DescentOptions(seed=args.seed, zero_tol=zero_tol))
    digest = _digest(raw, f"method={method},p={p},k_max={k_max},tol={zero_tol}".encode())
    seed = args.seed if method == "nullspace" else None
    return solution_to_json(sol), matrix_to_csv(sol.x), digest, seed


def cmd_sweep(args: argparse.Namespace) -> CommandResult:
    p_grid = _parse_grid(args.grid)
    prob, raw = _load_problem(args.problem)
    _check_exponents(p_grid, strict=True)
    zero_tol = _zero_tol(args)
    opts = EquivalenceOptions(seed=args.seed, zero_tol=zero_tol)
    try:
        exact, failure = l20_solve(prob, zero_tol=zero_tol), None    # the same at every p
    except JointSparseError as exc:
        exact, failure = None, exc
    rows = []
    for q in p_grid:
        try:
            if failure is not None:
                raise failure
            report = _compare(prob, q, exact, opts)
            best = report.best_method
            rows.append({
                "p": q,
                "equivalent": report.equivalent,
                "l2p_objective": json_float(getattr(report, best).objective if best else None),
                "l20_objective": report.l20.objective,
                "distance": json_float(report.distance),
                "best_method": best,
                "error": "",
            })
        except JointSparseError as exc:
            rows.append({
                "p": q, "equivalent": None, "l2p_objective": None,
                "l20_objective": None, "distance": None, "best_method": None,
                "error": f"{type(exc).__name__}: {exc}",
            })
    csv_text = _csv("p,equivalent,l2p_objective,l20_objective,distance,best_method,error",
                    (row.values() for row in rows))
    digest = _digest(raw, json.dumps(p_grid).encode(), f"tol={zero_tol}".encode())
    return {"rows": rows}, csv_text, digest, args.seed


def cmd_nsc(args: argparse.Namespace) -> CommandResult:
    k, r, restarts = args.k, args.r, args.restarts
    p_grid = _parse_grid(args.grid)
    a, raw = _load_matrix_source(args.source)
    _check_exponents(p_grid, strict=False)
    n = a.shape[1]
    if not (1 <= k < n):
        raise UsageError(f"--k must lie in 1..{n - 1} for this matrix, got {k}")
    opts = NscOptions(seed=args.seed, restarts=restarts, zero_tol=_zero_tol(args))
    spec = gram_spectrum(a)                 # one decomposition for both
    curve = nsc_curve(spec, k, p_grid, opts)
    lam = spec.summary().ratio
    certificates = [estimate_to_json(est, r) for est in curve]
    rows = []
    for est, cert in zip(curve, certificates):
        try:
            cap = theorem4_bound(est.p, n, k, lam)
        except DomainError:
            cap = None
        rows.append({
            "p": est.p,
            "value": json_float(est.value),
            "exact": est.exact,
            "support": list(est.certificate_support.indices),
            "theorem4_bound": cap,
            "certificate_digest": hashlib.sha256(
                json.dumps(cert["certificate_X"]).encode()
            ).hexdigest()[:16],
        })
    csv_text = _csv("p,value,exact,support,theorem4_bound,certificate_digest", (
        [row["p"], row["value"], row["exact"], ";".join(str(i) for i in row["support"]),
         row["theorem4_bound"], row["certificate_digest"]]
        for row in rows
    ))
    outputs = {"k": k, "r": r, "lam": lam, "curve": rows, "certificates": certificates}
    digest = _digest(raw, json.dumps([k, r, p_grid, restarts]).encode(),
                     f"tol={opts.zero_tol}".encode())
    return outputs, csv_text, digest, args.seed


def cmd_reproduce(args: argparse.Namespace) -> CommandResult:
    which = args.which
    if which not in ("example1", "example2"):
        raise UsageError(f"unknown example {which!r} (choose example1 or example2)")
    raw = resources.files("jointsparse.data").joinpath(f"{which}.json").read_bytes()
    prob = _parse_problem(raw, which)
    checks: list[dict] = []

    def record(name: str, expected, actual, tol: float | None = None):
        if tol is None:
            ok = expected == actual
        else:
            ok = abs(float(expected) - float(actual)) <= tol
        checks.append({"name": name, "expected": json_float(expected),
                       "actual": json_float(actual), "tol": tol, "pass": bool(ok)})

    outputs: dict = {"example": which}
    if which == "example1":
        joint = l20_solve(prob)
        # one problem per column of B, all reading the one decomposition of A
        columns = [l20_solve(MmvProblem(a=prob.spectrum, b=prob.b[:, [j]]))
                   for j in range(prob.r)]
        per_column_supports = [list(sol.support.indices) for sol in columns]
        total = sum(int(sol.objective) for sol in columns)
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
        rep = pstar(prob.spectrum, prob.b)
        record("p_star", 0.8176, rep.p_star, tol=5e-4)
        exact = l20_solve(prob)
        record("l20_support", [2, 5], list(exact.support.indices))
        record("l20_unique", True, exact.unique)
        outputs["pstar"] = pstar_report_to_json(rep)
        outputs["l20"] = solution_to_json(exact)
        recoveries = []
        for q in (0.3, 0.5, 0.8175):
            sol = nullspace_solve(prob, q, DescentOptions(seed=args.seed))
            dist = float(np.linalg.norm(sol.x - prob.planted))
            record(f"nullspace_recovery_p_{q}", 0.0, dist, tol=1e-4)
            recoveries.append({"p": q, "distance": dist,
                               "objective": sol.objective,
                               "support": list(sol.support.indices)})
        outputs["recoveries"] = recoveries
    outputs["checks"] = checks
    outputs["all_pass"] = all(c["pass"] for c in checks)
    seed = args.seed if which == "example2" else None
    return outputs, None, _digest(raw, which.encode()), seed


def cmd_gen(args: argparse.Namespace) -> CommandResult:
    text = args.spec.strip()
    if not text.startswith("{"):
        text = _read_file(args.spec).decode("utf-8", errors="replace")
    try:
        spec = genspec_from_json(json.loads(text))
        prob = gen_problem(spec)
    except json.JSONDecodeError as exc:
        raise UsageError(f"gen spec is not valid JSON: {exc}") from None
    except JointSparseError as exc:
        raise UsageError(f"gen spec invalid: {exc}") from None
    digest = _digest(json.dumps(spec.to_json(), sort_keys=True).encode())
    return problem_to_json(prob), None, digest, spec.seed


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="seed for randomized steps")
    common.add_argument("--out", default=None, help="also write the payload to this file")
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="fmt", action="store_const", const="json",
                     help="JSON envelope output (default)")
    fmt.add_argument("--csv", dest="fmt", action="store_const", const="csv",
                     help="CSV rendering (tabular commands)")
    common.set_defaults(fmt="json")
    # only the commands that read a zero/support tolerance take --tol
    tolerant = argparse.ArgumentParser(add_help=False, parents=[common])
    tolerant.add_argument("--tol", type=float, default=None,
                          help="override the zero/support tolerance")

    parser = argparse.ArgumentParser(
        prog="jointsparse",
        description="Joint sparse recovery: solvers, null-space constants, thresholds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("pstar", parents=[tolerant],
                        help="equivalence threshold p*(A, B) for a problem file")
    sp.add_argument("problem", help="problem JSON path")
    sp.set_defaults(run=cmd_pstar)

    sp = sub.add_parser("solve", parents=[tolerant], help="solve one instance")
    sp.add_argument("problem", help="problem JSON path")
    sp.add_argument("--method", required=True, choices=("l20", "irls", "nullspace"))
    sp.add_argument("--p", type=float, default=None, help="exponent for irls/nullspace")
    sp.add_argument("--k-max", type=int, default=None, dest="k_max",
                    help="enumeration cap for --method l20")
    sp.set_defaults(run=cmd_solve)

    sp = sub.add_parser("sweep", parents=[tolerant],
                        help="equivalence check over a grid of p values")
    sp.add_argument("problem", help="problem JSON path")
    sp.add_argument("--grid", required=True,
                    help="comma list '0.1,0.5,0.9' or range 'start:stop:step'")
    sp.set_defaults(run=cmd_sweep)

    sp = sub.add_parser("nsc", parents=[tolerant],
                        help="null-space constant curve with certificates")
    sp.add_argument("source", help="problem JSON, matrix JSON, or matrix CSV path")
    sp.add_argument("--k", type=int, required=True, help="sparsity level")
    sp.add_argument("--r", type=int, default=1,
                    help="number of columns (default 1).  It does not change the value: "
                         "averaging the r = 1 inequality over Gaussian combinations of the "
                         "columns gives h(p, A, r, k) = h(p, A, 1, k), so each certificate is "
                         "the r = 1 one in column 0, with zeros in the other columns")
    sp.add_argument("--grid", default="0:1:0.1", help="p grid (default 0:1:0.1)")
    sp.add_argument("--restarts", type=int, default=64,
                    help="seeded Gaussian starts of the ascent, after the unit and "
                         "best-circuit starts (default 64; the exact points run none)")
    sp.set_defaults(run=cmd_nsc)

    sp = sub.add_parser("reproduce", parents=[common],
                        help="re-derive the recorded values for a bundled example")
    sp.add_argument("which", help="example1 or example2")
    sp.set_defaults(run=cmd_reproduce)

    sp = sub.add_parser("gen", parents=[common],
                        help="generate a problem from a GenSpec (inline JSON or path)")
    sp.add_argument("spec", help="GenSpec JSON text or file path")
    sp.set_defaults(run=cmd_gen)
    return parser


def _fail(code: int, kind: str, message: str, **extra) -> int:
    print(json.dumps({"error": {"type": kind, "message": message, **extra}}),
          file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_options(args)
        t0 = time.perf_counter()
        outputs, csv_text, digest, seed = args.run(args)
        runtime_ms = int((time.perf_counter() - t0) * 1000)
        if args.fmt == "csv":
            if csv_text is None:
                raise UsageError("--csv is not supported for this command")
            text = payload = csv_text
        else:
            envelope = {"command": args.command, "inputs_digest": digest,
                        "outputs": outputs, "runtime_ms": runtime_ms, "seed": seed}
            try:
                text = json.dumps(envelope, indent=2, allow_nan=False) + "\n"
            except ValueError as exc:           # json refuses NaN and Infinity
                return _fail(EXIT_COMPUTE, "NonFiniteOutput",
                             f"report is not strict JSON: {exc}")
            payload = json.dumps(outputs, indent=2) + "\n"
        if args.out:
            _write_file(args.out, payload)
    except UsageError as exc:
        return _fail(EXIT_USAGE, "UsageError", str(exc))
    except JointSparseError as exc:
        return _fail(EXIT_COMPUTE, type(exc).__name__, str(exc))
    sys.stdout.write(text)
    if args.command == "reproduce" and not outputs["all_pass"]:
        failures = [c for c in outputs["checks"] if not c["pass"]]
        return _fail(EXIT_COMPUTE, "ReproduceMismatch",
                     f"{len(failures)} check(s) failed", failures=failures)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
