"""Exception hierarchy shared across the package.

Every error carries a short ``code`` used in CLI diagnostics; netlist
errors additionally carry a source position so the CLI can print
``file:line:column`` style messages.
"""

from __future__ import annotations


class TblError(Exception):
    """Base class for all simulator errors."""

    code = "Error"


# ---------------------------------------------------------------------------
# netlist / static errors (CLI exit code 2)
# ---------------------------------------------------------------------------


class NetlistError(TblError):
    code = "NetlistError"

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


class NetlistSyntaxError(NetlistError):
    code = "SyntaxError"


class DuplicateIdError(NetlistError):
    code = "DuplicateId"


class UnknownUnitError(NetlistError):
    code = "UnknownUnit"


class UnknownKeywordError(NetlistError):
    code = "UnknownKeyword"


class EvenRingError(NetlistError):
    code = "EvenRing"


class UnboundPortError(NetlistError):
    code = "UnboundPort"


class SupplyMissingError(NetlistError):
    code = "SupplyMissing"


class BadValueError(NetlistError, ValueError):
    """A statement value its element rejects, such as a negative length.

    Also a ValueError, which is what the element raised, so library
    callers that catch that keep working."""

    code = "BadValue"


class NetworkError(TblError):
    """A structurally invalid network (bad element wiring, shorts, ...)."""

    code = "InvalidNetwork"


# ---------------------------------------------------------------------------
# engine / analysis errors (CLI exit code 3)
# ---------------------------------------------------------------------------


class EngineError(TblError):
    code = "EngineError"


class AstableCircuitError(EngineError):
    """No self-consistent valve-state assignment exists at DC."""

    code = "AstableCircuit"


class SingularNetworkError(EngineError):
    """The flow-balance system has no unique solution."""

    code = "Singular"


class TooManyValvesError(EngineError):
    code = "TooManyValves"


class NoOscillationError(EngineError):
    code = "NoOscillation"


class CalibrationFailedError(EngineError):
    """Raised when the bounded search cannot meet the fit tolerance.

    ``best`` holds the closest CalibrationResult found, so callers can
    still inspect how far off the search ended up.
    """

    code = "CalibrationFailed"

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


# ---------------------------------------------------------------------------
# verification errors
# ---------------------------------------------------------------------------


class VerifyError(TblError):
    code = "VerifyError"


class IndeterminateLevelError(VerifyError):
    """An output pressure fell strictly between the logic thresholds."""

    code = "IndeterminateLevel"

    def __init__(self, message: str, node: str | None = None, pressure_kpa: float | None = None):
        super().__init__(message)
        self.node = node
        self.pressure_kpa = pressure_kpa


class UnknownVariableError(VerifyError):
    code = "UnknownVariable"
