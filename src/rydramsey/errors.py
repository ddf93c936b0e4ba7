"""Exception taxonomy and warning categories shared across the package."""


class RydramseyError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(RydramseyError, ValueError):
    """An argument lies outside the operation's domain."""


class UnsupportedRegimeError(RydramseyError):
    """The request is well-formed but outside the supported physics.

    Raised, for example, for a repulsive-tail detuning in soft-core mode;
    the message points at the supported alternative where one exists.
    """


class SingularityError(ParameterError):
    """Evaluation was requested exactly at a non-removable singularity."""


class CapacityError(RydramseyError):
    """Problem size exceeds a hard implementation cap."""


class NumericalError(RydramseyError):
    """A numerical scheme failed to reach its tolerance.

    Carries a ``diagnostics`` dict with scheme-specific details (achieved
    error, panel counts, integration bounds, and similar).
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class CrossingNotFoundError(NumericalError):
    """A root search exhausted its window without finding a sign change."""


class ConfigError(RydramseyError):
    """A configuration file is missing, malformed, or inconsistent."""


class BiasWarning(UserWarning):
    """Results may carry a systematic bias (e.g. simulation box too small)."""


class ValidityWarning(UserWarning):
    """Inputs are outside the validity range of the formula being applied."""
