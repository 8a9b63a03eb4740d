"""Quantities with display units for netlist values.

Netlist text uses kPa, mL, cm, mm, m and s; everything downstream of the
parser works in SI (Pa, m3, m, s). A Quantity keeps its display unit so a
parsed circuit can be formatted back to text that re-parses to an equal
AST. Display units are normalized once, at parse time, and never touched
again, which keeps parse/format round trips exact.
"""

from __future__ import annotations

from dataclasses import dataclass

# unit -> factor converting a displayed value to SI base units
SCALE = {
    "kPa": 1.0e3,
    "mL": 1.0e-6,
    "cm": 1.0e-2,
    "mm": 1.0e-3,
    "m": 1.0,
    "s": 1.0,
    "": 1.0,  # bare numbers are SI already
}

DIMENSION = {
    "kPa": "pressure",
    "mL": "volume",
    "cm": "length",
    "mm": "length",
    "m": "length",
    "s": "time",
    "": "raw",
}


# dimension -> its display unit; lengths choose between cm and mm by size
_DISPLAY = {"pressure": "kPa", "volume": "mL", "time": "s", "raw": ""}


def _display_unit(dimension: str, si_value: float) -> str:
    """The canonical display unit of an SI value of ``dimension``: kPa, mL
    or s, none for raw numbers, cm at or above 1 cm and mm below."""
    if dimension == "length":
        return "cm" if abs(si_value) >= 1.0e-2 else "mm"
    if dimension not in _DISPLAY:
        raise ValueError(f"unknown dimension {dimension!r}")
    return _DISPLAY[dimension]


def format_number(x: float) -> str:
    """Render a float the shortest way that parses back to the same value."""
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


@dataclass(frozen=True)
class Quantity:
    value: float
    unit: str = ""

    @property
    def si(self) -> float:
        return self.value * SCALE[self.unit]

    @property
    def dimension(self) -> str:
        return DIMENSION[self.unit]

    def canonical(self) -> "Quantity":
        """Normalize the display unit (kPa / mL / s; cm at or above 1 cm, mm below).

        A Quantity already in its canonical unit is returned unchanged, so
        repeated normalization never drifts.
        """
        target = _display_unit(self.dimension, self.si)
        if target == self.unit:
            return self
        return Quantity(self.value * (SCALE[self.unit] / SCALE[target]), target)

    def render(self) -> str:
        return format_number(self.value) + self.unit


def from_si(si_value: float, dimension: str) -> Quantity:
    """Build a canonical Quantity from an SI value of a known dimension."""
    unit = _display_unit(dimension, si_value)
    return Quantity(si_value / SCALE[unit], unit)
