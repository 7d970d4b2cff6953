"""The workloads' operations, shared by the timed passes (workloads.py) and
the fresh-interpreter set-up probe (first_op.py), so that both time the same
calls.

Only the package is imported here, not numpy or the checks: importing this
module in the set-up probe costs what importing ``windubins`` costs.  Each
operation calls the planner through a module attribute looked up at call
time, so the span recorder's wrappers see every call.
"""

from __future__ import annotations

import math

import windubins
import windubins.cli

START = (0.0, 0.0, 0.5 * math.pi)


def make_scenario(wx, wy, x, y, theta_f, rho, start=START):
    return windubins.Scenario(
        wind=windubins.WindVector(wx, wy), target_x=x, target_y=y, theta_f=theta_f, rho=rho,
        start=tuple(start),
    )


def make_coeffs(q, s, e):
    return windubins.QuadCosCoeffs(*q), windubins.SinusoidCoeffs(*s), windubins.EnvelopeCoeffs(*e)


def plan(scenario):
    """plan-mixed: one plan() call."""
    return windubins.planner.plan(scenario)


def solve_roots(coeffs):
    """roots-direct: the three root solvers on one draw of coefficients."""
    rootfind = windubins.rootfind
    q, s, e = coeffs
    return rootfind.solve_quadcos(q), rootfind.solve_sinusoid(s), rootfind.solve_envelope(e)


def batch_argv(path, out_path, sample_dt):
    return ["batch", path, "--output", "both", "--sample-dt", sample_dt, "--out", out_path]


def run_cli(argv):
    """batch-csv: one `windubins batch` invocation; its exit status."""
    return windubins.cli.run(argv)
