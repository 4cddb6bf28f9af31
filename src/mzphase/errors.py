"""Exception taxonomy for mzphase.

Contract violations (bad arguments, series operations, configs) derive from
ValueError; numeric/consistency failures discovered at runtime derive from
RuntimeError. A sweep turns InfeasibleTarget, BracketExceeded and
DegenerateSignal into a per-row status (`sweep.ROW_ERRORS`); any other error
aborts it. A kernel denominator below its floor, which the declared parameter
domain rules out, is a ConsistencyError. The multivariate jets the tests
build their reference kernels with raise their own shape and index errors
(`tests/jet_reference.py`).
"""


class JetError(ValueError):
    """Base for truncated-series contract violations."""


class SingularConstantTerm(JetError):
    """recip/sqrt of a series whose constant term is zero."""


class ParamOutOfRange(ValueError):
    """A physical parameter is outside its supported range."""


class InfeasibleTarget(ValueError):
    """A requested target value is below the reachable minimum."""


class BracketExceeded(ValueError):
    """A root/target lies outside the search bracket."""


class CutoffTooSmall(ValueError):
    """A Fock-space cutoff leaves more probability in the tail than allowed."""


class DegenerateSignal(RuntimeError):
    """The detection signal carries no phase information at this point."""


class SingularNormalEquations(RuntimeError):
    """The stationary-point linear system is singular; no closed-form optimum."""


class UnitarityDrift(RuntimeError):
    """A nominally unitary step changed the state norm beyond tolerance."""


class TraceDrift(RuntimeError):
    """A trace-preserving channel changed the trace beyond tolerance."""


class ConsistencyError(RuntimeError):
    """An internal physical-consistency check failed (imaginary residue,
    out-of-range expectation value, indefinite moment matrix, ...)."""


class SpecInvalid(ValueError):
    """A sweep specification is structurally valid but semantically wrong."""


class SchemaViolation(ValueError):
    """A config document does not match the expected schema.

    The message carries a JSONPath-style location ($.key[i]...).
    """


class UnknownFigure(ValueError):
    """No data preset exists for the requested figure number."""
