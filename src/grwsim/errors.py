"""Exception and warning types shared across the package, and the one
guard on integer arguments."""


class GrwsimError(Exception):
    """Base class for every package-specific error."""


class ValidationError(GrwsimError):
    """An argument or configuration violates a documented invariant."""


def require_int(label: str, value) -> None:
    """Raise :class:`ValidationError` unless ``value`` is a Python ``int``.

    A ``bool`` is an int, but not a count: a summary would spell it
    ``true``.  A float or a numpy integer is refused too, rather than
    failing later inside numpy or ``range``, or reaching an artifact only
    through a JSON fallback.
    """
    if type(value) is bool or not isinstance(value, int):
        raise ValidationError(f"{label} must be an integer, got {value!r}")


class ParseError(GrwsimError):
    """A config file could not be parsed (bad section, key, or literal)."""


class ZeroNormError(GrwsimError):
    """State norm too small to renormalize (squared norm below 1e-30)."""


class GridMismatchError(GrwsimError):
    """A WaveFunction's amplitude rows are not its grid's ``n_points`` long."""


class UnresolvedWidthError(ValidationError):
    """Localization width narrower than four grid spacings (a config error)."""


class ZeroDensityError(GrwsimError):
    """Collapse-center density integrates to (numerically) zero."""


class UnstableStepError(GrwsimError):
    """A propagation call drifted the norm beyond its tolerance."""


class NonConvergentError(GrwsimError):
    """Undecided-trajectory fraction of a ``grw`` ensemble exceeded
    ``grwsim.ensemble.UNDECIDED_BUDGET``."""


class InvalidHorizonError(ValidationError):
    """Horizon reaches the ring's exact recurrence time (an argument error)."""


class InsufficientDataError(GrwsimError):
    """Too few decided trajectories for a meaningful statistic."""


class DegenerateFitError(GrwsimError):
    """Scaling fit attempted on fewer than three distinct abscissae."""


class EnsembleFailureError(GrwsimError):
    """Failed-trajectory fraction exceeded ``grwsim.ensemble.FAILURE_BUDGET``;
    ensemble aborted.  An error raised for a whole batch is raised as it
    is, not as this."""


class InsufficientSeparationWarning(UserWarning):
    """Pointer packets overlap more than a readout scenario assumes."""
