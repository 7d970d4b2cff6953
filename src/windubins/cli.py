"""Command-line front end.

Subcommands:

  plan      solve one scenario given on the command line
  batch     solve one scenario per line of a file (wx wy X Y theta_f_deg rho)

Exit codes: 0 success, 1 invalid input, 2 no feasible candidate.  Angles are
taken in degrees on the command line and converted once at this boundary; all
internal math is in radians.  Output is deterministic: identical invocations
produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .geometry import DEFAULT_START, DEFAULT_TOLERANCES, Scenario, ToleranceSet, WindVector
from .planner import PlanResult, plan, sample

CSV_HEADER = "t,x_rel,y_rel,theta,u,x_inertial,y_inertial"


class _CliError(Exception):
    """Input error carrying the one-line diagnostic to print."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's default 2
        raise _CliError(message)


def _numbers(count: int, shape: str):
    """Parser of ``count`` comma-separated numbers; ``shape`` names them in
    the error message."""

    def parse(text: str) -> tuple[float, ...]:
        parts = text.split(",")
        if len(parts) != count:
            raise argparse.ArgumentTypeError(f"expected {shape}, got {text!r}")
        try:
            return tuple(float(p) for p in parts)
        except ValueError:
            raise argparse.ArgumentTypeError(f"non-numeric value in {text!r}") from None

    return parse


def _positive(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric value {text!r}") from None
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be > 0 and finite, got {text!r}")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--feas-tol", type=_positive, default=DEFAULT_TOLERANCES.feas_tol)
    p.add_argument("--residual-tol", type=_positive, default=DEFAULT_TOLERANCES.residual_tol)
    p.add_argument("--sample-dt", type=_positive, default=0.1)
    p.add_argument("--output", choices=("table", "csv", "both"), default="table")
    p.add_argument("--out", default=None, metavar="PATH")


@functools.cache  # built once: building costs about as much as planning one scenario
def _build_parser() -> _Parser:
    parser = _Parser(prog="windubins", description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)

    p_plan = sub.add_parser("plan", help="solve one scenario")
    pair = "two comma-separated numbers"
    p_plan.add_argument("--wind", type=_numbers(2, pair), required=True, metavar="WX,WY")
    p_plan.add_argument("--target", type=_numbers(2, pair), required=True, metavar="X,Y")
    p_plan.add_argument("--theta-f-deg", type=float, required=True, metavar="D")
    p_plan.add_argument("--rho", type=_positive, required=True, metavar="R")
    p_plan.add_argument(
        "--start", type=_numbers(3, "X,Y,THETA_DEG"), default=None, metavar="X,Y,THETA_DEG"
    )
    _add_common(p_plan)

    p_batch = sub.add_parser("batch", help="solve scenarios from a file")
    p_batch.add_argument("path", metavar="FILE")
    _add_common(p_batch)
    return parser


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    wx, wy = args.wind
    try:
        wind = WindVector(wx, wy)
    except ValueError as exc:
        raise _CliError(f"argument --wind: {exc}") from None
    start = DEFAULT_START
    if args.start is not None:
        sx, sy, sth_deg = args.start
        start = (sx, sy, math.radians(sth_deg))
    try:
        return Scenario(
            wind=wind,
            target_x=args.target[0],
            target_y=args.target[1],
            theta_f=math.radians(args.theta_f_deg),
            rho=args.rho,
            start=start,
            tol=ToleranceSet(args.feas_tol, args.residual_tol),
        )
    except ValueError as exc:
        raise _CliError(str(exc)) from None


def _format_table(result: PlanResult) -> str:
    lines = [f"t_f={result.t_f:.6f} best={result.best.variant.label}"]
    lines.append(
        f"{'variant':<8} {'alpha':>9} {'beta':>9} {'gamma':>9} {'d':>9} {'time':>10} {'residual':>9}"
    )
    for cand in result.all_candidates:
        mark = "*" if cand is result.best else " "
        p = cand.params
        lines.append(
            f"{mark}{cand.variant.label:<7} {p.alpha:9.6f} {p.beta:9.6f} {p.gamma:9.6f}"
            f" {p.d:9.6f} {cand.total_time:10.6f} {cand.residual:9.1e}"
        )
    return "\n".join(lines) + "\n"


def _format_csv(result: PlanResult, scenario: Scenario, dt: float) -> str:
    try:
        rows = sample(result.best, dt, scenario)
    except ValueError as exc:
        raise _CliError(str(exc)) from None
    row = "%.17g,%.17g,%.17g,%.17g,%d,%.17g,%.17g\n"
    return CSV_HEADER + "\n" + "".join([row % r for r in rows])


def _emit(result: PlanResult, scenario: Scenario, args: argparse.Namespace) -> str:
    parts = []
    if args.output in ("table", "both"):
        parts.append(_format_table(result))
    if args.output in ("csv", "both"):
        parts.append(_format_csv(result, scenario, args.sample_dt))
    return "".join(parts)


def _run_plan(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    result = plan(scenario)
    if not result.feasible:
        print("no feasible candidate", file=sys.stderr)
        return 2
    _write(args, _emit(result, scenario, args))
    return 0


def _parse_batch(path: str, tol: ToleranceSet) -> list[tuple[int, Scenario]]:
    """(line number, scenario) for each scenario line of the file, each with
    the tolerances ``tol``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(f"argument FILE: cannot read {path!r}: {exc}") from None
    out = []
    for i, line in enumerate(raw, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        fields = text.split()
        if len(fields) != 6:
            raise _CliError(f"argument FILE: line {i}: expected 6 fields, got {len(fields)}")
        try:
            wx, wy, tx, ty, th_deg, rho = (float(f) for f in fields)
        except ValueError:
            raise _CliError(f"argument FILE: line {i}: non-numeric field") from None
        try:
            scenario = Scenario(
                wind=WindVector(wx, wy),
                target_x=tx,
                target_y=ty,
                theta_f=math.radians(th_deg),
                rho=rho,
                tol=tol,
            )
        except ValueError as exc:
            raise _CliError(f"argument FILE: line {i}: {exc}") from None
        out.append((i, scenario))
    return out


def _run_batch(args: argparse.Namespace) -> int:
    """Exit status: 1 when a line's output failed, else 2 when a line has no
    feasible candidate, else 0.  Either kind of line marks only its own
    block; every other line's block is still written."""
    chunks = []
    status = 0
    for number, s in _parse_batch(args.path, ToleranceSet(args.feas_tol, args.residual_tol)):
        header = (
            f"# scenario {number}: wind={s.wind.wx:g},{s.wind.wy:g}"
            f" target={s.target_x:g},{s.target_y:g}"
            f" theta_f_deg={math.degrees(s.theta_f):g} rho={s.rho:g}\n"
        )
        result = plan(s)
        if not result.feasible:
            status = status or 2
            chunks.append(header + "# no feasible candidate\n")
            continue
        try:
            chunks.append(header + _emit(result, s, args))
        except _CliError as exc:
            print(f"error: argument FILE: line {number}: {exc}", file=sys.stderr)
            status = 1
            chunks.append(header + f"# error: {exc}\n")
    _write(args, "\n".join(chunks))
    return status


def _write(args: argparse.Namespace, text: str) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _CliError(f"argument --out: cannot write {args.out!r}: {exc}") from None
    else:
        sys.stdout.write(text)


def run(argv: list[str] | None = None) -> int:
    """Parse argv and execute; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.mode == "plan":
            return _run_plan(args)
        return _run_batch(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
