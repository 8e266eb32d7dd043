"""Command-line front end.

Subcommands: point evaluation (``eval``), identity verification runs
(``verify``), moment-integral method comparison (``furdui``), the
superadditivity threshold (``alpha0``) and the open-problem scanner
(``scan``).  Exit codes: 0 success (all expectation-PASS identities
passed), 1 unexpected failure, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .beta import beta_k
from .errors import BracketError, ConvergenceError, DomainError, QuadratureError
from .furdui import FURDUI_METHODS, furdui_method, furdui_oracle
from .hadamard import alpha0_solve, hadamard_k
from .kcore import gamma_k, k_value, psi_k, psi_k_m
from .registry import (
    GridSpec,
    default_grid,
    get_entry,
    openproblem_scan,
    registry_ids,
    reports_to_csv,
    reports_to_json,
    run_all,
    run_identity,
)
from .scalar import gauss_2f1, zeta_int

EVAL_FUNCTIONS = ("gamma_k", "psi_k", "psi_k_m", "beta_k", "hadamard_k", "zeta", "2f1")


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksf",
        description="k-gamma-family special functions and identity verification",
    )
    parser.add_argument("--version", action="version", version=f"ksf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one function at a point")
    p_eval.add_argument("--fn", required=True, help=f"one of {', '.join(EVAL_FUNCTIONS)}")
    p_eval.add_argument("--k", type=float, default=1.0)
    p_eval.add_argument("--x", type=float)
    p_eval.add_argument("--m", type=int)
    p_eval.add_argument("--a", type=float)
    p_eval.add_argument("--b", type=float)
    p_eval.add_argument("--c", type=float)
    p_eval.add_argument("--z", type=float)

    p_verify = sub.add_parser("verify", help="run registered identity checks")
    p_verify.add_argument("--id", required=True, help="identity id or ALL")
    p_verify.add_argument("--k-list", dest="k_list", help="comma-separated k values")
    p_verify.add_argument("--x-list", dest="x_list", help="comma-separated unit x values")
    p_verify.add_argument("--tol", type=float, help="tolerance override (single id only)")
    p_verify.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_verify.add_argument("--out", help="write the report to this path")
    p_verify.add_argument("--list", action="store_true", help="list known identity ids and exit")

    p_furdui = sub.add_parser("furdui", help="compare moment-integral methods")
    p_furdui.add_argument("--k", type=float, required=True)
    p_furdui.add_argument("--m", type=int, required=True)
    p_furdui.add_argument("--n", type=int, default=1)
    p_furdui.add_argument("--methods", required=True,
                          help=f"comma list from {', '.join(FURDUI_METHODS)}")

    p_alpha = sub.add_parser("alpha0", help="solve the superadditivity threshold")
    p_alpha.add_argument("--k", type=float, required=True)
    p_alpha.add_argument("--tol", type=float, default=1e-10)

    p_scan = sub.add_parser("scan", help="sample the open-problem ratio")
    p_scan.add_argument("--k", type=float, required=True)
    p_scan.add_argument("--n", type=int, required=True, help="max derivative index (<= 4)")
    p_scan.add_argument("--x-lo", dest="x_lo", type=float)
    p_scan.add_argument("--x-hi", dest="x_hi", type=float)
    p_scan.add_argument("--points", type=int, default=12)
    return parser


def _usage_error(message: str) -> int:
    print(f"ksf: error: {message}", file=sys.stderr)
    return 2


def _cmd_eval(args) -> int:
    fn = args.fn
    if fn not in EVAL_FUNCTIONS:
        return _usage_error(f"unknown function {fn!r}; choose from {', '.join(EVAL_FUNCTIONS)}")
    if fn == "2f1":
        missing = [f for f in ("a", "b", "c", "z") if getattr(args, f) is None]
        if missing:
            return _usage_error(f"2f1 requires --a --b --c --z (missing {', '.join(missing)})")
        value = gauss_2f1(args.a, args.b, args.c, args.z).value
    elif fn == "zeta":
        if args.m is None:
            return _usage_error("zeta requires --m (the integer argument s >= 2)")
        value = zeta_int(args.m)
    else:
        if args.x is None:
            return _usage_error(f"{fn} requires --x")
        if fn == "gamma_k":
            value = gamma_k(args.k, args.x)
        elif fn == "psi_k":
            value = psi_k(args.k, args.x)
        elif fn == "psi_k_m":
            if args.m is None:
                return _usage_error("psi_k_m requires --m")
            value = psi_k_m(args.k, args.m, args.x)
        elif fn == "beta_k":
            value = beta_k(args.k, args.x)
        else:
            value = hadamard_k(args.k, args.x)
    print(_fmt(value))
    return 0


def _parse_float_list(text: str, what: str):
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise DomainError(f"could not parse {what} list {text!r}")
    if not values:
        raise DomainError(f"empty {what} list")
    return values


def _atomic_write(path: str, content: str):
    import tempfile  # here, not at module level: no other ksf command needs it

    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ksf-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cmd_verify(args) -> int:
    if args.list:
        for identity_id in registry_ids():
            print(identity_id)
        return 0
    grid_kwargs = {}
    if args.k_list:
        grid_kwargs["k_values"] = _parse_float_list(args.k_list, "k")
    if args.x_list:
        grid_kwargs["x_values"] = _parse_float_list(args.x_list, "x")
    grid = GridSpec(**grid_kwargs) if grid_kwargs else default_grid()

    if args.id == "ALL":
        if args.tol is not None:
            return _usage_error("--tol applies only to a single identity id")
        summary = run_all(grid)
        reports = summary.reports
        entries = summary.entries
        ok = summary.overall_ok
    else:
        entry = get_entry(args.id)  # raises DomainError for unknown ids
        reports = run_identity(args.id, grid, args.tol)
        n_fail = sum(r.verdict == "FAIL" for r in reports)
        ok = n_fail == 0 if entry.expectation == "PASS" else True
        entries = None

    if args.format == "json":
        body = reports_to_json(reports)
    elif args.format == "csv":
        body = reports_to_csv(reports)
    else:
        body = _verify_text(reports, entries, ok)
    if args.out:
        _atomic_write(args.out, body)
        print(f"report written to {args.out}")
    if args.format == "text" or not args.out:
        sys.stdout.write(body)
    return 0 if ok else 1


def _verify_text(reports, entries, ok) -> str:
    lines = []
    if entries is not None:
        for s in entries:
            lines.append(
                f"{s.identity_id:<24} expect={s.expectation:<4} "
                f"pass={s.n_pass:<4} fail={s.n_fail:<3} skip={s.n_skip:<3} "
                f"worst_rel={s.worst_rel_diff:.3e} "
                f"{'ok' if s.satisfied else 'UNEXPECTED'}"
            )
            for rec in s.fits:
                expected = "" if rec.expected is None else f" (documented {_fmt(rec.expected)})"
                lines.append(
                    f"    fit {rec.label}: {rec.fit.mode} constant {_fmt(rec.fit.constant)}"
                    f"{expected}, residual_rms={rec.fit.residual_rms:.3e}"
                    f" over {rec.fit.n_points} points"
                )
    else:
        for r in reports:
            params = ", ".join(f"{k}={_fmt(v) if isinstance(v, float) else v}"
                               for k, v in sorted(r.params.items()))
            if r.verdict == "SKIP":
                lines.append(f"{r.identity_id} [{params}] SKIP ({r.note})")
            else:
                lines.append(
                    f"{r.identity_id} [{params}] lhs={_fmt(r.lhs)} rhs={_fmt(r.rhs)} "
                    f"abs_diff={r.abs_diff:.3e} {r.verdict}"
                )
    lines.append("OVERALL: " + ("ok" if ok else "UNEXPECTED FAILURES"))
    return "\n".join(lines) + "\n"


def _cmd_furdui(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        return _usage_error("empty --methods list")
    unknown = [m for m in methods if m not in FURDUI_METHODS]
    if unknown:
        return _usage_error(
            f"unknown method(s) {', '.join(unknown)}; choose from {', '.join(FURDUI_METHODS)}"
        )
    print(f"{'method':<16} {'value':>18} {'error_est':>12} {'terms/panels':>12}")
    reference = furdui_oracle(args.k, args.m, 1e-10).value
    for method in methods:
        res = furdui_method(method, args.k, args.m, n=args.n)
        gap = res.value - reference
        print(f"{method:<16} {res.value:>18.10f} {res.error_estimate:>12.3e} "
              f"{res.terms_used:>12d}   vs oracle {gap:+.3e}")
    return 0


def _cmd_alpha0(args) -> int:
    result = alpha0_solve(args.k, args.tol)
    print(f"root         {_fmt(result.root)}")
    print(f"residual     {result.residual:.3e}")
    print(f"bracket      [{_fmt(result.bracket_lo)}, {_fmt(result.bracket_hi)}]")
    print(f"iterations   {result.iterations}")
    print(f"sign_changes {result.sign_changes}")
    return 0


def _cmd_scan(args) -> int:
    k = k_value(args.k)
    if args.n > 4 or args.n < 0:
        return _usage_error("scan derivative index --n must be in 0..4")
    grid = default_grid()
    if args.x_lo is not None or args.x_hi is not None:
        if args.x_lo is None or args.x_hi is None or args.x_lo >= args.x_hi:
            return _usage_error("provide both --x-lo < --x-hi")
        if args.points < 2:
            return _usage_error("--points must be >= 2")
        step = (args.x_hi - args.x_lo) / (args.points - 1)
        xs = tuple((args.x_lo + i * step) / k for i in range(args.points))
        grid = GridSpec(x_values=xs)
    tables = openproblem_scan(k, args.n, grid)
    for table in tables:
        print(f"n={table.n}: ratio of derivative orders ({table.n + 1}) vs ({table.n})*({table.n + 2})")
        for x, g in table.rows:
            print(f"  x={_fmt(x):>14}  g={'SKIP' if g is None else _fmt(g):>16}")
        print(f"  verdict: {table.verdict}")
        if table.first_violation:
            x1, x2, g1, g2 = table.first_violation
            print(f"  first violation between x={_fmt(x1)} (g={_fmt(g1)}) "
                  f"and x={_fmt(x2)} (g={_fmt(g2)})")
    return 0


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "furdui":
            return _cmd_furdui(args)
        if args.command == "alpha0":
            return _cmd_alpha0(args)
        if args.command == "scan":
            return _cmd_scan(args)
        return _usage_error(f"unknown command {args.command!r}")
    except (DomainError, OverflowError) as exc:
        return _usage_error(str(exc))
    except (ConvergenceError, QuadratureError, BracketError) as exc:
        print(f"ksf: computation failed: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
