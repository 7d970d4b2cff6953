import math
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import windubins
from windubins.cli import CSV_HEADER, run
from windubins.geometry import mod2pi

from conftest import CASE1_WIND

EXACT_WIND_FLAG = f"{CASE1_WIND[0]!r},{CASE1_WIND[1]!r}"


def run_cli(capsys, *argv):
    status = run(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_plan_case1_rounded_flags(capsys):
    status, out, err = run_cli(
        capsys, "plan", "--wind", "0.475,-0.155", "--target", "5,-2",
        "--theta-f-deg", "72", "--rho", "1",
    )
    assert status == 0
    first = out.splitlines()[0]
    assert "best=LSL" in first
    t_f = float(first.split("t_f=")[1].split()[0])
    assert abs(t_f - 7.5294) < 1e-2
    winners = [line for line in out.splitlines() if line.startswith("*")]
    assert len(winners) == 1 and winners[0].startswith("*LSL")


def test_plan_case1_exact_wind(capsys):
    status, out, _ = run_cli(
        capsys, "plan", "--wind", EXACT_WIND_FLAG, "--target", "5,-2",
        "--theta-f-deg", "72", "--rho", "1",
    )
    assert status == 0
    t_f = float(out.splitlines()[0].split("t_f=")[1].split()[0])
    assert abs(t_f - 7.5294) < 1e-3


def test_plan_zero_wind_straight(capsys):
    status, out, _ = run_cli(
        capsys, "plan", "--wind", "0,0", "--target", "0,10",
        "--theta-f-deg", "90", "--rho", "1",
    )
    assert status == 0
    assert out.startswith("t_f=10.000000")


def test_plan_with_start_pose(capsys):
    status, out, _ = run_cli(
        capsys, "plan", "--wind", "0,0", "--target", "10,0",
        "--theta-f-deg", "0", "--rho", "1", "--start", "0,0,0",
    )
    assert status == 0
    assert out.startswith("t_f=10.000000")


def test_invalid_wind_magnitude(capsys):
    status, out, err = run_cli(
        capsys, "plan", "--wind", "1.2,0", "--target", "1,1",
        "--theta-f-deg", "0", "--rho", "1",
    )
    assert status == 1
    assert "--wind" in err


def test_invalid_rho(capsys):
    status, _, err = run_cli(
        capsys, "plan", "--wind", "0,0", "--target", "1,1",
        "--theta-f-deg", "0", "--rho", "-1",
    )
    assert status == 1
    assert "rho" in err


def test_non_numeric_target(capsys):
    status, _, err = run_cli(
        capsys, "plan", "--wind", "0,0", "--target", "1,abc",
        "--theta-f-deg", "0", "--rho", "1",
    )
    assert status == 1
    assert "target" in err


@pytest.mark.parametrize(
    "argv,word",
    [
        (["plan", "--wind", "0,0", "--target", "1,1", "--theta-f-deg", "0", "--rho", "1",
          "--frobnicate", "3"], "frobnicate"),
        (["selftest"], "selftest"),  # a removed subcommand
    ],
    ids=["frobnicate", "selftest"],
)
def test_unknown_flag(capsys, argv, word):
    status, _, err = run_cli(capsys, *argv)
    assert status == 1
    assert word in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_no_feasible_candidate_exit_code(capsys):
    status, out, err = run_cli(
        capsys, "plan", "--wind", "0.3,0.1", "--target", "4,2",
        "--theta-f-deg", "30", "--rho", "1", "--residual-tol", "1e-30",
    )
    assert status == 2
    assert "no feasible candidate" in err
    assert out == ""


def test_csv_output_schema_and_roundtrip(capsys):
    status, out, _ = run_cli(
        capsys, "plan", "--wind", EXACT_WIND_FLAG, "--target", "5,-2",
        "--theta-f-deg", "72", "--rho", "1", "--output", "csv",
        "--sample-dt", "0.25",
    )
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    # Re-integrating the control column between consecutive rows reproduces
    # the pose columns (switch times appear as explicit rows).
    rho = 1.0
    for prev, cur in zip(rows[:-1], rows[1:]):
        t0, x0, y0, th0, u0 = prev[0], prev[1], prev[2], prev[3], prev[4]
        dt = cur[0] - t0
        if u0 == 0:
            x1 = x0 + dt * math.cos(th0)
            y1 = y0 + dt * math.sin(th0)
            th1 = th0
        else:
            cx = x0 - u0 * rho * math.sin(th0)
            cy = y0 + u0 * rho * math.cos(th0)
            th1 = th0 + u0 * dt / rho
            x1 = cx + u0 * rho * math.sin(th1)
            y1 = cy - u0 * rho * math.cos(th1)
        assert math.hypot(x1 - cur[1], y1 - cur[2]) < 1e-9
        assert abs(mod2pi(th1) - cur[3]) % (2 * math.pi) < 1e-9
    # Inertial columns are relative plus wind drift.
    for r in rows:
        assert abs(r[5] - (r[1] + r[0] * CASE1_WIND[0])) < 1e-9
        assert abs(r[6] - (r[2] + r[0] * CASE1_WIND[1])) < 1e-9


def test_output_both_and_file(tmp_path, capsys):
    out_path = tmp_path / "result.txt"
    status, out, _ = run_cli(
        capsys, "plan", "--wind", "0,0", "--target", "0,10",
        "--theta-f-deg", "90", "--rho", "1", "--output", "both",
        "--out", str(out_path),
    )
    assert status == 0
    assert out == ""
    text = out_path.read_text()
    assert text.startswith("t_f=10.000000")
    assert CSV_HEADER in text


def test_deterministic_output(capsys):
    argv = ["plan", "--wind", "0.2,-0.1", "--target", "3,4",
            "--theta-f-deg", "10", "--rho", "0.7", "--output", "both"]
    s1, out1, _ = run_cli(capsys, *argv)
    s2, out2, _ = run_cli(capsys, *argv)
    assert s1 == s2 == 0
    assert out1 == out2


def test_batch_mode(tmp_path, capsys):
    path = tmp_path / "scenarios.txt"
    path.write_text(
        "# one scenario per line: wx wy X Y theta_f_deg rho\n"
        "0 0 0 10 90 1\n"
        "0.2 -0.1 3 4 10 0.7\n"
        "0.475 -0.155 5 -2 72 1  # trailing comment\n"
    )
    status, out, _ = run_cli(capsys, "batch", str(path))
    assert status == 0
    blocks = [b for b in out.split("\n\n") if b.strip()]
    assert len(blocks) == 3
    assert out.count("# scenario") == 3


def test_batch_csv_blocks(tmp_path, capsys):
    path = tmp_path / "scenarios.txt"
    path.write_text("0 0 0 10 90 1\n0 0 5 5 0 1\n0.1 0 2 2 45 1\n")
    status, out, _ = run_cli(capsys, "batch", str(path), "--output", "csv")
    assert status == 0
    assert out.count(CSV_HEADER) == 3


def test_batch_bad_line(tmp_path, capsys):
    path = tmp_path / "scenarios.txt"
    path.write_text("0 0 0 10 90\n")
    status, _, err = run_cli(capsys, "batch", str(path))
    assert status == 1
    assert "line 1" in err


@pytest.mark.parametrize("line", ["0.1 0.2 nan 1 10 1", "0.1 0.2 1e300 1 10 1", "0 0 x 1 10 1"])
def test_batch_out_of_domain_line(tmp_path, capsys, line):
    path = tmp_path / "scenarios.txt"
    path.write_text(line + "\n")
    status, out, err = run_cli(capsys, "batch", str(path))
    assert status == 1
    assert out == ""
    assert err.startswith("error: argument FILE: line 1: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--sample-dt", "1e-320"),
        ("--sample-dt", "inf"),
        ("--feas-tol", "inf"),
        ("--wind", "1"),  # one number where two are expected
        ("--rho", "abc"),
    ],
)
def test_plan_rejects_bad_step_or_tolerance(capsys, flag, value):
    status, out, err = run_cli(
        capsys, "plan", "--wind", "0.4755,-0.1545", "--target", "5,-2",
        "--theta-f-deg", "72", "--rho", "1", "--output", "csv", flag, value,
    )
    assert status == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_batch_csv_row_ceiling(tmp_path, capsys):
    # At rho = 1e200 the path lasts about 5e200, so the default step would
    # ask for about 5e201 rows; the line is rejected before any row is made,
    # and its block holds the error in place of rows.
    path = tmp_path / "scenarios.txt"
    path.write_text("0.1 0.2 0.5 1 10 1e200\n")
    status, out, err = run_cli(capsys, "batch", str(path), "--output", "csv")
    assert status == 1
    assert err.startswith("error: argument FILE: line 1: ") and err.count("\n") == 1
    message = err[len("error: argument FILE: line 1: "):]
    assert "at most 1000000 are supported" in message
    assert out.startswith("# scenario 1: ") and out.endswith(f"\n# error: {message}")
    assert CSV_HEADER not in out


@pytest.mark.parametrize("output", ["csv", "both"])
def test_batch_csv_row_ceiling_keeps_other_lines(tmp_path, capsys, output):
    # A line over the row ceiling marks only its own block, the way an
    # infeasible line does; every other line's block is still written.
    path = tmp_path / "scenarios.txt"
    argv = ("batch", str(path), "--output", output, "--sample-dt", "1")
    path.write_text("0 0 0 10 90 1\n")
    status, first, _ = run_cli(capsys, *argv)
    assert status == 0 and first.count(CSV_HEADER) == 1
    path.write_text("0 0 0 10 90 1\n0.1 0.2 0.5 1 10 1e200\n")
    status, out, err = run_cli(capsys, *argv)
    assert status == 1
    prefix = "error: argument FILE: line 2: "
    assert err.startswith(prefix + "sample step 1 gives ") and err.count("\n") == 1
    block1, block2 = out.split("\n\n")
    assert block1 + "\n" == first
    assert block2.startswith("# scenario 2: ")
    assert block2.endswith("\n# error: " + err[len(prefix):])
    # the exit code 1 of the error outranks the 2 of an infeasible line
    path.write_text("0 0 0 10 90 1\n0.1 0.2 0.5 1 10 1e200\n0.1 0.2 0.5 1 10 1.7e308\n")
    status, out3, err3 = run_cli(capsys, *argv)
    assert status == 1 and err3 == err
    assert out3.startswith(out + "\n# scenario 3: ")
    assert out3.endswith("\n# no feasible candidate\n")


def test_batch_huge_turn_radius(tmp_path, capsys):
    path = tmp_path / "scenarios.txt"
    path.write_text("0.1 0.2 0.5 1 10 1e200\n")
    status, out, err = run_cli(capsys, "batch", str(path))
    assert status == 0
    assert err == ""
    assert "best=" in out


def test_batch_overflowing_turn_radius(tmp_path, capsys):
    # At rho = 1.7e308 every path time overflows in physical units: the line
    # reports no feasible candidate instead of ending the batch, and the
    # lines around it still plan.
    path = tmp_path / "scenarios.txt"
    path.write_text("0.1 0.2 0.5 1 10 1e307\n0.1 0.2 0.5 1 10 1.7e308\n0 0 0 10 90 1\n")
    status, out, err = run_cli(capsys, "batch", str(path))
    assert status == 2
    assert err == ""
    blocks = out.split("\n\n")
    assert len(blocks) == 3
    assert "best=" in blocks[0] and "best=" in blocks[2]
    assert blocks[1].splitlines()[-1] == "# no feasible candidate"


def test_plan_error_names_the_bad_field(capsys):
    status, _, err = run_cli(
        capsys, "plan", "--wind", "0,0", "--target", "nan,1",
        "--theta-f-deg", "0", "--rho", "1",
    )
    assert status == 1
    assert "target_x" in err and "--rho" not in err


def test_batch_missing_file(capsys):
    status, _, err = run_cli(capsys, "batch", "/nonexistent/file.txt")
    assert status == 1
    assert "cannot read" in err


def test_batch_invalid_utf8(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"0 0 0 10 90 1\n\xff\xfe 1 2\n")
    status, out, err = run_cli(capsys, "batch", str(path))
    assert status == 1
    assert out == ""
    assert err.startswith("error: argument FILE: cannot read ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("mode", ["plan", "batch"])
def test_out_into_missing_directory(tmp_path, capsys, mode):
    batch = tmp_path / "one.txt"
    batch.write_text("0 0 0 10 90 1\n")
    argv = {"plan": ["plan", "--wind", "0,0", "--target", "0,10", "--theta-f-deg", "90",
                     "--rho", "1"], "batch": ["batch", str(batch)]}[mode]
    target = tmp_path / "missing" / "out.txt"
    status, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert status == 1
    assert out == ""
    assert err.startswith("error: argument --out: cannot write ")
    assert err.count("\n") == 1
    assert not target.parent.exists()


def test_import_skips_dataclasses_and_inspect():
    # Cold start: importing the package and its CLI must not pull in
    # dataclasses, whose import loads inspect, ast, dis and tokenize.  And no
    # runtime dependency: every module that importing them and planning case 1
    # loads is the package's own or the standard library's.  The difference
    # of sys.modules leaves out what the interpreter's site setup loaded first.
    src = str(pathlib.Path(windubins.__file__).resolve().parents[1])
    code = f"""
import os, sys
before = set(sys.modules)
sys.path.insert(0, {src!r})
import windubins, windubins.cli
print(sorted({{"dataclasses", "inspect"}} & set(sys.modules)))
status = windubins.cli.run(["plan", "--wind", "0.4755,-0.1545", "--target", "5,-2",
    "--theta-f-deg", "72", "--rho", "1", "--output", "both", "--out", os.devnull])
allowed = sys.stdlib_module_names | {{"windubins"}}
print(status, sorted(m for m in set(sys.modules) - before if m.partition(".")[0] not in allowed))
"""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n0 []\n"


def test_public_names_are_the_contract():
    # A name is public when the README, bench/ or the CLI uses it, or when it
    # is the type of a documented return value; the rest is importable from
    # its module but is not part of the contract.
    assert sorted(windubins.__all__) == [
        "ControlSchedule", "EnvelopeCoeffs", "Family", "PathCandidate", "PlanResult",
        "QuadCosCoeffs", "RootSet", "Scenario", "SinusoidCoeffs", "ToleranceSet",
        "TrajectoryPoint", "ValidationReport", "Variant", "WindVector", "normalize",
        "plan", "sample", "solve_envelope", "solve_quadcos", "solve_sinusoid", "validate",
    ]
    for name in windubins.__all__:
        assert getattr(windubins, name).__module__.startswith("windubins.")


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "windubins.cli", "plan", "--wind", "0,0",
         "--target", "0,10", "--theta-f-deg", "90", "--rho", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("t_f=10.000000")


def test_batch_tiny_wind_plans_as_zero_wind(tmp_path, capsys):
    # Winds below ZERO_WIND_EPS are zero: the root equations of a wind of
    # 1e-300 would carry coefficients whose squares underflow.
    path = tmp_path / "scenarios.txt"
    path.write_text("0 0 5 -2 70 1\n")
    status, still, _ = run_cli(capsys, "batch", str(path))
    assert status == 0
    for wind in ("0 1e-300", "1e-200 0", "-1e-160 1e-160", "1e-13 0"):
        path.write_text(f"{wind} 5 -2 70 1\n")
        status, out, err = run_cli(capsys, "batch", str(path))
        assert status == 0 and err == ""
        assert out.splitlines()[1:] == still.splitlines()[1:]  # all but the header


#: a batch field: the edges of the float range, special values, or an
#: ordinary number (winds of at most 0.6 a component, so paths stay short)
_SPECIAL = st.sampled_from(
    (0.0, 1e-320, -1e-320, 1e-300, 1e-160, 1e150, 1e300, 1.7e308, math.inf, math.nan)
)
_LINE = st.tuples(
    _SPECIAL | st.floats(-0.6, 0.6), _SPECIAL | st.floats(-0.6, 0.6),
    _SPECIAL | st.floats(-50.0, 50.0), _SPECIAL | st.floats(-50.0, 50.0),
    _SPECIAL | st.floats(-720.0, 720.0), _SPECIAL | st.floats(0.01, 20.0),
)


@settings(
    max_examples=120, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.lists(_LINE, min_size=1, max_size=3))
@example([(0.0, 1e-300, 5.0, -2.0, 70.0, 1.0)])  # the tiny-wind line
def test_batch_never_raises(tmp_path, capsys, lines):
    path, out = tmp_path / "scenarios.txt", tmp_path / "out.txt"
    path.write_text("".join(" ".join(repr(v) for v in fields) + "\n" for fields in lines))
    status, _, err = run_cli(capsys, "batch", str(path), "--output", "both", "--out", str(out))
    assert status in (0, 1, 2)
    assert all(line.startswith("error: ") for line in err.splitlines())
    assert (status == 1) == (err != "")


#: the plan flags' ordinary values; each example swaps a few of them for
#: values of ``_SPECIAL``
_PLAN_FIELDS = {
    "wx": st.floats(-0.6, 0.6), "wy": st.floats(-0.6, 0.6),
    "x": st.floats(-50.0, 50.0), "y": st.floats(-50.0, 50.0),
    "theta_f_deg": st.floats(-720.0, 720.0), "rho": st.floats(0.01, 20.0),
    "sx": st.floats(-50.0, 50.0), "sy": st.floats(-50.0, 50.0),
    "sth_deg": st.floats(-720.0, 720.0),
    "feas_tol": st.floats(1e-12, 1e-2), "residual_tol": st.floats(1e-12, 1e-2),
    "sample_dt": st.floats(0.01, 1.0),
}
#: the scenario of test_no_feasible_candidate_exit_code: exit 2
_INFEASIBLE = {
    "wx": 0.3, "wy": 0.1, "x": 4.0, "y": 2.0, "theta_f_deg": 30.0, "rho": 1.0,
    "sx": 0.0, "sy": 0.0, "sth_deg": 90.0, "feas_tol": 1e-6, "residual_tol": 1e-30,
    "sample_dt": 0.1,
}


@settings(
    max_examples=120, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    st.fixed_dictionaries(_PLAN_FIELDS),
    st.dictionaries(st.sampled_from(sorted(_PLAN_FIELDS)), _SPECIAL, max_size=3),
    st.booleans(),
)
@example(_INFEASIBLE, {}, False)
def test_plan_never_raises(tmp_path, capsys, ordinary, special, with_start):
    # The plan-mode twin of test_batch_never_raises.  Values go in as
    # --flag=value, so that argparse reads a negative one as a value.
    v = {**ordinary, **special}
    argv = [
        "plan", f"--wind={v['wx']!r},{v['wy']!r}", f"--target={v['x']!r},{v['y']!r}",
        f"--theta-f-deg={v['theta_f_deg']!r}", f"--rho={v['rho']!r}",
        f"--feas-tol={v['feas_tol']!r}", f"--residual-tol={v['residual_tol']!r}",
        f"--sample-dt={v['sample_dt']!r}", "--output", "both", "--out", str(tmp_path / "out.txt"),
    ]
    if with_start:
        argv.append(f"--start={v['sx']!r},{v['sy']!r},{v['sth_deg']!r}")
    status, out, err = run_cli(capsys, *argv)
    assert out == ""
    if status == 0:
        assert err == ""
    elif status == 1:
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert status == 2 and err == "no feasible candidate\n"
