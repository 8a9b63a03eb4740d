"""Per-call cost of the transient's event step and of a network's set-up.

    python3 scripts/hot_path.py

Run it from the root of a checkout; the program is imported from ``src/``.
The process pins BLAS to one thread, repeats each measurement and prints
the best time of the repeats, on two lines:

- ``freq``: ``circuits/ring3_calibrated.tbl`` read for its limit cycle
  as ``tblsim freq --t-end 1.5`` reads it. ``us_per_segment`` is the
  event loop (``engine._limit_cycle``) on a compiled network whose
  regimes are all built, over the segments it reads. ``compile_us``
  validates and compiles the network (``engine._compile_probed``);
  ``regime_us`` builds a new compiled network's first regime, at its
  declared valve states, with the region layout and layer maps that
  needs; ``modes_us`` builds that regime's first ``engine._Modes``, every
  balloon above rest.
- ``calibrate``: the fit of the benchmark's calibrate workload, the same
  ring at compliance 4e-10 and open conductance 1e-5 fitted to 15 Hz and
  35 kPa at ``m1`` within 2 %. It prints the milliseconds of one fit, its
  evaluations, the segments they read and the regimes they built, and the
  function calls that ``cProfile`` counts in one fit, which do not
  depend on the host's speed.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import cProfile
import math
import pstats
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from tblsim import SimConfig, calibrate_oscillator, engine  # noqa: E402
from tblsim.netlist import expand, parse  # noqa: E402

RING = "circuits/ring3_calibrated.tbl"
REPEATS = 30


def _best(run, prepare=lambda: None, repeats: int = REPEATS) -> float:
    """The least seconds that ``run(prepare())`` took over ``repeats``
    calls, ``prepare`` untimed."""
    best = math.inf
    for _ in range(repeats):
        arg = prepare()
        start = time.perf_counter()
        run(arg)
        best = min(best, time.perf_counter() - start)
    return best


@contextlib.contextmanager
def _counting():
    """Count the segments read (``engine._segments``) and the regimes
    built (``engine._Regime``) within the block."""
    counts = {"segments": 0, "regimes": 0}
    segments, init = engine._segments, engine._Regime.__init__

    def counting_segments(*args):
        for seg in segments(*args):
            counts["segments"] += 1
            yield seg

    def counting_regime(self, *args):
        counts["regimes"] += 1
        init(self, *args)

    engine._segments, engine._Regime.__init__ = counting_segments, counting_regime
    try:
        yield counts
    finally:
        engine._segments, engine._Regime.__init__ = segments, init


def _freq(net) -> str:
    cfg = SimConfig(t_end=1.5)

    def compiled():
        return engine._compile_probed(net, cfg)

    def cycle(c):
        return engine._limit_cycle(c, c.initial_states(None), c.initial_volumes(None), cfg.t_end)

    def regime(c):
        return c.regime(c.initial_open)

    def fresh_regime():
        return regime(compiled())

    def modes(reg):
        return reg.modes(np.full(len(reg.rest_volume), engine._ABOVE))

    warm = compiled()
    cycle(warm)  # every regime and set of modes the run meets, built
    with _counting() as counts:
        cycle(warm)
    loop = _best(cycle, lambda: warm) / counts["segments"]
    return (f"freq {RING}: segments={counts['segments']} us_per_segment={loop * 1e6:.1f} "
            f"compile_us={_best(lambda _: compiled()) * 1e6:.0f} "
            f"regime_us={_best(regime, compiled) * 1e6:.0f} "
            f"modes_us={_best(modes, fresh_regime) * 1e6:.0f}")


def _calibrate(net) -> str:
    template = net.with_uniform_params(compliance=4.0e-10, open_conductance=1.0e-5)

    def fit(_=None):
        return calibrate_oscillator(template, 15.0, 35.0, probe="m1", tolerance=0.02)

    best = _best(fit, repeats=REPEATS // 3)
    with _counting() as counts:
        evaluations = len(fit().evaluations)
    profile = cProfile.Profile()
    profile.runcall(fit)
    calls = pstats.Stats(profile).total_calls
    return (f"calibrate: ms={best * 1e3:.2f} evaluations={evaluations} segments={counts['segments']} "
            f"regimes={counts['regimes']} calls={calls}")


def main() -> None:
    with open(RING, encoding="utf-8") as fh:
        net = expand(parse(fh.read()))
    print(_freq(net))
    print(_calibrate(net))


if __name__ == "__main__":
    main()
