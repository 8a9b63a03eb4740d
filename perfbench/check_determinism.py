"""The benchmark's own checks.

    python3 -m pytest perfbench/check_determinism.py

Run from the root of a checkout. Two traced passes of one seed must give
identical work counts; a boundary that no longer exists must read as
absent; BENCHMARK.json must list exactly the metrics the runner reports;
the runner must refuse to run without the program's sources; and the
scaled clock must net out its own samples. The file name keeps these
checks out of the program's own test run: the traced passes take about
two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402  (pins BLAS before numpy loads)
import tracer  # noqa: E402

#: per-layer metrics that are work counts, not host times
COUNTS = [
    name
    for name, unit in tracer.metric_units().items()
    if unit != "s" or name.endswith(".sim_s")
]
COUNTS.remove("engine.simulate.us_per_event")


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(HERE.parent)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    counts = []
    for _ in range(2):
        workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
        try:
            tally = run.Tally(run.RawClock())
            metrics, _wall = run.traced_pass(workload, 7, workdir, tally)
        finally:
            shutil.rmtree(workdir)
        assert tally.failed == 0
        counts.append({name: metrics[name] for name in COUNTS})
    assert counts[0] == counts[1]
    assert all(v is not None for v in counts[0].values())
    # every workload drives at least its own layer and the fan-out sweeps
    assert counts[0]["verify.fanout_limit.solves"] > 0
    own = {
        "osc3": "cli.main.calls",
        "ring101": "cli.to_csv.bytes",
        "logic": "verify.truth_table.rows",
        "calibrate": "engine.calibrate.sims",
    }[workload]
    assert counts[0][own] > 0


def test_missing_boundary_reads_absent_not_zero(monkeypatch):
    import tblsim.engine

    original = tblsim.engine.simulate
    gone = ("engine.gone", "tblsim.engine", "no_such_function")
    monkeypatch.setattr(tracer, "BOUNDARIES", tracer.BOUNDARIES + (gone,))
    with tracer.Tracer() as tr:
        assert tblsim.engine.simulate is not original
    assert tblsim.engine.simulate is original
    metrics = tr.metrics()
    assert metrics["engine.gone.calls"] is None
    assert metrics["engine.gone.s"] is None
    assert metrics["engine.simulate.calls"] == 0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == {**tracer.metric_units(), "trace.overhead_s": "s"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "osc3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_scaled_clock_nets_out_its_own_samples():
    import signal

    import speed

    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as clock:
        mark = clock.mark()
        t0 = run.perf_counter()
        while run.perf_counter() - t0 < 0.35:
            pass
    raw, scaled = clock.since(mark)
    inside = clock.samples[mark[1]:]
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(inside) >= 2
    assert raw < 0.35 + 0.01 and raw > 0.35 - sum(inside) - 0.01
    assert scaled == raw * speed.factor(inside)
