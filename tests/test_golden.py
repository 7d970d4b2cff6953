"""Byte-for-byte pins of the CLI output.

Each case runs ``windubins plan`` or ``windubins batch`` with ``--output
both`` and compares stdout with a file under ``tests/golden/``.  The files
were written by the same calls, so a change that moves any printed digit of
a table or a CSV row fails here.  A change meant to alter the output writes
the file again from the same call and says why in its description.
"""

import math
from pathlib import Path

import pytest

from windubins.cli import run

from conftest import CASE1_WIND

GOLDEN = Path(__file__).parent / "golden"

_CASE2_WIND_Y = -(4.0 + 2.0 * math.sqrt(2.0)) / (9.0 * math.pi)
_CASE2_TARGET_X = 1.0 - 1.0 / math.sqrt(2.0)

PLAN_CASES = {
    "plan_case1": [
        "--wind", f"{CASE1_WIND[0]!r},{CASE1_WIND[1]!r}", "--target", "5,-2",
        "--theta-f-deg", "72", "--rho", "1",
    ],
    "plan_case2": [
        "--wind", f"0,{_CASE2_WIND_Y!r}", "--target", f"{_CASE2_TARGET_X!r},-1",
        "--theta-f-deg", "45", "--rho", "1",
    ],
    "plan_rho07": [
        "--wind", "0.2,-0.1", "--target", "3,4", "--theta-f-deg", "10", "--rho", "0.7",
    ],
}


def _plan_output(capsys, name):
    status = run(["plan", *PLAN_CASES[name], "--output", "both"])
    return status, capsys.readouterr().out


def _batch_output(capsys):
    status = run(["batch", str(GOLDEN / "batch_input.txt"), "--output", "both"])
    return status, capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(PLAN_CASES))
def test_plan_golden(capsys, name):
    status, out = _plan_output(capsys, name)
    assert status == 0
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def test_batch_golden(capsys):
    status, out = _batch_output(capsys)
    assert status == 0
    assert out == (GOLDEN / "batch.txt").read_text(encoding="utf-8")
