"""tblsim benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see ``workloads.py`` and ``BENCHMARK.json``): osc3, ring101,
logic and calibrate. One process, one thread, closed loop: each op starts
when the previous one ends. BLAS is pinned to one thread.

Untraced (``--trace 0``), the runner times ``setup_s`` in fresh processes,
then repeats the workload's pass of ops until ``--seconds`` have gone, with
batches of fan-out sweeps between passes, and reports the end-to-end
metrics. Their host times are scaled to a fixed machine speed by a
reference snippet timed alongside (see ``speed.py``); the raw host times
are printed beside them. Traced (``--trace 1``), it runs the same passes
unscaled, then one traced pass (set-up, ops and fan-out sweeps), and
reports the per-layer metrics of that pass, whose counts repeat exactly for
a seed, and the tracing overhead in raw host seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and the run: op and pass counts, raw host times.
``--workload all`` runs every workload both ways in child processes and
prints every metric by name, with its unit.
"""

from __future__ import annotations

import os

# pin BLAS before anything imports numpy; child processes inherit this
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import itertools
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("osc3", "ring101", "logic", "calibrate")
#: fresh processes timed per run for setup_s; the median is reported
SETUP_PROBES = 5
#: fan-out sweeps run together at the start, the middle and the end of the
#: timed loop, so that fanout_s samples the whole run as wall_s does
FANOUT_BATCH = 4
#: a child process (set-up probe or workload run) must end within this
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s.p50": "s",
    "fanout_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


# -- measurement ---------------------------------------------------------------


class RawClock:
    """Host seconds, unscaled; ``speed.Sampler`` is the scaled clock."""

    def mark(self) -> float:
        return perf_counter()

    def since(self, mark: float) -> tuple[float, float]:
        raw = perf_counter() - mark
        return raw, raw


class Tally:
    """Attempted and failed ops, timed on ``clock``: (raw, scaled) seconds."""

    def __init__(self, clock):
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self._reported = False

    def run(self, op) -> tuple[float, float]:
        self.attempted += 1
        mark = self.clock.mark()
        try:
            result = op.run()
            times = self.clock.since(mark)
            ok = op.check(result)
        except Exception:  # any exception is a failed op, counted, not fatal
            times = self.clock.since(mark)
            ok = False
            if not self._reported:
                traceback.print_exc(file=sys.stderr)
                self._reported = True
        if not ok:
            self.failed += 1
        return times


def _run_pass(ops, tally: Tally, op_times: list | None = None) -> tuple[float, float]:
    mark = tally.clock.mark()
    for op in ops:
        times = tally.run(op)
        if op_times is not None:
            op_times.append(times)
    return tally.clock.since(mark)


def _medians(times: list[tuple[float, float]]) -> tuple[float, float]:
    """Medians of the raw and of the scaled seconds."""
    raw, scaled = zip(*times)
    return statistics.median(raw), statistics.median(scaled)


def _setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """One fresh process: import tblsim, then parse and expand."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S, check=True)
    raw, scaled = out.stdout.split()
    return float(raw), float(scaled)


def _blas_threads() -> dict[str, int]:
    """Threads of each OpenBLAS loaded in this process, asked directly."""
    import ctypes

    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tblsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": _blas_threads(),
    }


def traced_pass(workload: str, seed: int, workdir: str, tally: Tally) -> tuple[dict, float]:
    """One traced pass: set-up, the ops and the fan-out sweeps. Returns
    the per-layer metrics and the host seconds of the ops."""
    import tracer
    import workloads

    with tracer.Tracer() as tr:
        ops = workloads.build(workload, seed, workdir)
        wall, _ = _run_pass(ops, tally)
        _run_pass(workloads.fanout_ops(seed), tally)
    return tr.metrics(), wall


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns the result and a record of the environment and the run."""
    import speed
    import tracer
    import workloads

    setup = [] if trace else [_setup_probe(workload, seed) for _ in range(SETUP_PROBES)]
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    clock = RawClock() if trace else speed.Sampler()
    tally = Tally(clock)
    op_times: list[tuple[float, float]] = []
    passes: list[tuple[float, float]] = []
    fanout: list[tuple[float, float]] = []
    try:
        ops = workloads.build(workload, seed, workdir)
        sweeps = itertools.cycle(workloads.fanout_ops(seed))

        def fanout_batch() -> float:
            fanout.extend(tally.run(next(sweeps)) for _ in range(FANOUT_BATCH))
            return perf_counter()

        with contextlib.nullcontext() if trace else clock:
            t_start = perf_counter()
            last_batch = t_start if trace else fanout_batch()
            while True:
                passes.append(_run_pass(ops, tally, op_times))
                done = perf_counter() - t_start >= seconds
                if not trace and (done or perf_counter() - last_batch >= seconds / 2):
                    last_batch = fanout_batch()
                if done:
                    break
        if trace:
            metrics, traced_wall = traced_pass(workload, seed, workdir, tally)
            metrics["trace.overhead_s"] = traced_wall - _medians(passes)[0]
            units = {**tracer.metric_units(), "trace.overhead_s": "s"}
            raw = {}
        else:
            timed = {"setup_s": setup, "wall_s": passes, "op_s.p50": op_times,
                     "fanout_s": fanout}
            raw = {name: _medians(times)[0] for name, times in timed.items()}
            metrics = {name: _medians(times)[1] for name, times in timed.items()}
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["ok_frac"] = (tally.attempted - tally.failed) / tally.attempted
            raw["ref_ms.p50"] = 1e3 * statistics.median(clock.samples)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    run = {"ops": len(op_times), "passes": len(passes), "fanout_sweeps": len(fanout),
           "raw_host_s": raw}
    return result, {"env": environment(workload, seed), "run": run}


# -- reporting -----------------------------------------------------------------


def _table(title: str, result: dict, run: dict) -> str:
    lines = [f"== {title}: {run['ops']} ops in {run['passes']} passes, "
             f"{run['fanout_sweeps']} fan-out sweeps; attempted {result['attempted']}, "
             f"failed {result['failed']}, fail_frac {result['failed'] / result['attempted']:.4g}"]
    raw = run["raw_host_s"]
    for name, m in result["metrics"].items():
        v = m["value"]
        shown = "absent" if v is None else f"{v:.6g}" if isinstance(v, float) else str(v)
        line = f"  {name:<36} {shown:>14} {m['unit']}"
        if name in raw:
            line += f"  (raw host {raw[name]:.6g} s)"
        lines.append(line)
    if "ref_ms.p50" in raw:
        lines.append(f"  reference snippet: {raw['ref_ms.p50']:.4g} ms median")
    return "\n".join(lines)


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    report = {"seed": seed, "seconds": seconds, "workloads": {}}
    status = 0
    for workload in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                 timeout=4 * CHILD_TIMEOUT_S)
            sys.stderr.write(out.stderr)
            if out.returncode != 0:
                print(f"{workload} --trace {trace}: exit {out.returncode}", file=sys.stderr)
                status = 1
                continue
            *_, record_line, result_line = out.stdout.strip().splitlines()
            record = json.loads(record_line)
            entry["env"] = record["env"]
            entry[f"run{trace}"] = record["run"]
            entry[f"trace{trace}"] = result = json.loads(result_line)
            print(_table(f"{workload} --trace {trace}", result, record["run"]), flush=True)
        report["workloads"][workload] = entry
    print(json.dumps(report))
    return status


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "tblsim" / "__init__.py").is_file():
        print(f"run.py: no tblsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_probe:
        t0 = perf_counter()
        import workloads  # imports tblsim

        workloads.parse_and_expand(args.workload, args.seed)
        raw = perf_counter() - t0
        import speed

        speed.reference()  # the first run pays for warming up
        print(raw, raw * speed.factor([speed.reference() for _ in range(5)]))
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(_table(f"{args.workload} --trace {args.trace}", result, record["run"]))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
