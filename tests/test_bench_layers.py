"""The benchmark's traced runs need every layer they measure to be called.

``bench/run.py --trace 1`` stops with exit status 2 when a layer that a
workload lists records no call, so a change that stops calling a layer
function (or renames it) breaks the benchmark, not the planner.  This test
records spans with the benchmark's own recorder over a few plans and one
batch run, and checks that each listed layer of ``plan-mixed`` and
``batch-csv`` was called.
"""

import importlib
import math
import pathlib

import windubins.cli
import windubins.planner
from windubins import Scenario, WindVector

from conftest import make_case1, make_case2

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def test_traced_workload_layers_are_called(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads").WORKLOADS
    batch = tmp_path / "one.txt"
    batch.write_text("0.1 0.2 3 1 40 1\n")
    zero_wind = Scenario(
        wind=WindVector(0.0, 0.0), target_x=4.0, target_y=3.0, theta_f=math.radians(30.0), rho=1.0
    )
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        for scenario in (make_case1(), make_case2(), zero_wind):
            assert windubins.planner.plan(scenario).feasible
        argv = ["batch", str(batch), "--output", "both", "--out", str(tmp_path / "out.txt")]
        assert windubins.cli.run(argv) == 0
    finally:
        recorder.uninstall()
    totals = recorder.totals()
    for name in ("plan-mixed", "batch-csv"):
        silent = [layer for layer in workloads[name].layers if totals[layer]["calls"] == 0]
        assert not silent, f"{name}: no call recorded for {silent}"
