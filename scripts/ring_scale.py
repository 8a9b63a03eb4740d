"""Time and peak memory of ``measure_oscillation`` on rings of n stages.

    python3 scripts/ring_scale.py 101 201 301

Run it from the root of a checkout; the program is imported from ``src/``.
For each n given, a fresh process builds the n-stage stock ring macro and
runs it from start B (valves alternating closed and open from gate 1,
every balloon at 70 kPa, every stage output probed, a 1,000-s cap), the
construction of ``scripts/trace_digest.py``'s ``ring_b`` line. It prints
one line per n: the valve events the run took, f·n (the ring's frequency
times its stages), the seconds ``measure_oscillation`` took, the seconds
of those in its event loop (``engine._limit_cycle``) and in its report of
the limit cycle (``engine._report``), and the process's peak resident
memory (``ru_maxrss``) in MB, imports included. BLAS is pinned to one
thread.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import importlib.util
import multiprocessing
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _timed(spent: dict, name: str, func):
    """``func``, adding the seconds of each call to ``spent[name]``."""
    def run(*args):
        start = time.perf_counter()
        try:
            return func(*args)
        finally:
            spent[name] = spent.get(name, 0.0) + time.perf_counter() - start
    return run


def _measure(n: int, conn) -> None:
    """Run the n-stage ring in this process and send back its events, f·n,
    seconds in all, in the event loop and in the report, and peak RSS in
    MB."""
    spec = importlib.util.spec_from_file_location("trace_digest", os.path.join(HERE, "trace_digest.py"))
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)  # puts the checkout's src/ on sys.path
    spent = {}
    for name in ("_limit_cycle", "_report"):  # measure_oscillation calls them by these names
        setattr(digest.engine, name, _timed(spent, name, getattr(digest.engine, name)))
    net, cfg = digest._start_b(n, 1000.0)
    start = time.perf_counter()
    report = digest.measure_oscillation(net, cfg)
    seconds = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KB on Linux
    conn.send((report.events, report.frequency_hz * n, seconds, spent["_limit_cycle"], spent["_report"], peak_mb))
    conn.close()


def main(argv: list[str]) -> int:
    sizes = [int(a) for a in argv if a.isdigit()]
    if not sizes or len(sizes) < len(argv) or any(n < 3 or n % 2 == 0 for n in sizes):
        print("usage: " + __doc__.strip().splitlines()[2].strip() + "  (odd sizes of 3 or more)", file=sys.stderr)
        return 2
    ctx = multiprocessing.get_context("spawn")  # a fresh interpreter per ring
    print(f"{'n':>6} {'events':>7} {'f*n':>10} {'seconds':>8} {'loop_s':>8} {'report_s':>8} {'peak_MB':>8}")
    for n in sizes:
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_measure, args=(n, send))
        child.start()
        send.close()
        try:
            events, fn, seconds, loop_s, report_s, peak_mb = receive.recv()
        except EOFError:
            child.join()
            print(f"{n:>6} failed (exit code {child.exitcode})")
            continue
        child.join()
        print(f"{n:>6} {events:>7} {fn:>10.6f} {seconds:>8.3f} {loop_s:>8.3f} {report_s:>8.3f} {peak_mb:>8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
