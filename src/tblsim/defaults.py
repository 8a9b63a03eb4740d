"""Built-in physical defaults and the TBL_DEFAULTS override mechanism."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields, replace

#: environment variable naming a JSON file with default overrides
ENV_VAR = "TBL_DEFAULTS"


@dataclass(frozen=True)
class PhysicalDefaults:
    """Element parameters used by gate macros and the CLI.

    Geometry follows the reference device build: 7.5 cm device tubes and a
    15 cm pull-down resistor, both 1 mm inner diameter. The deflate
    threshold and the balloon compliance are modeling assumptions rather
    than measured values; the compliance in particular is a calibration
    knob, not a datasheet number.
    """

    air_viscosity: float = 1.81e-5        # Pa*s
    tube_inner_diameter: float = 1.0e-3   # m
    device_tube_length: float = 0.075     # m
    pulldown_length: float = 0.15         # m
    inflate_kpa: float = 85.0             # control pressure that kinks the valve shut
    deflate_kpa: float = 60.0             # assumed reopening threshold
    burst_kpa: float = 200.0
    balloon_rest_volume: float = 1.0e-6   # m3
    balloon_compliance: float = 4.0e-10   # m3/Pa
    open_conductance: float = 1.0e-5      # m3/(Pa*s)
    leak_conductance: float = 0.0         # closed valves seal completely
    supply_kpa: float = 145.0

    def merged(self, overrides: dict) -> "PhysicalDefaults":
        """A copy with ``overrides`` applied by field name; an unknown name
        or a value that is NaN or infinite is a ValueError naming it."""
        known = {f.name for f in fields(self)}
        bad = sorted(set(overrides) - known)
        if bad:
            raise ValueError(f"unknown default parameter(s): {', '.join(bad)}")
        values = {k: float(v) for k, v in overrides.items()}
        for k, v in values.items():
            if not math.isfinite(v):
                raise ValueError(f"default parameter {k} must be finite, got {v!r}")
        return replace(self, **values)


def load_defaults(path: str | None = None) -> PhysicalDefaults:
    """Return the defaults, applying the TBL_DEFAULTS JSON file if set.

    ``path`` overrides the environment lookup (used by tests). A missing
    variable yields the built-ins; a present but unreadable or invalid
    file is an error, not a silent fallback.
    """
    base = PhysicalDefaults()
    if path is None:
        path = os.environ.get(ENV_VAR)
    if not path:
        return base
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object of default overrides")
    return base.merged(data)
