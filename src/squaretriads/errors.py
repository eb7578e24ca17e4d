"""Exception hierarchy shared across the package.

Everything mathematical derives from DomainError so callers (and the CLI)
can treat "the input is outside the operation's domain" uniformly, while
still being able to catch the precise condition.
"""


class DomainError(ValueError):
    """Input outside an operation's mathematical domain."""


class PoleError(DomainError):
    """A denominator vanished during evaluation or substitution."""


class DegenerateParameterError(DomainError):
    """Parameters lie on an excluded locus of a construction."""


class ExcludedLocusError(DegenerateParameterError):
    """Family evaluated at parameters where a member or denominator vanishes."""


class ExcludedBranchError(DegenerateParameterError):
    """The zero-product branch of the factored cubic; it yields no new solutions."""


class NoAscentError(DegenerateParameterError):
    """Quartic ascent produced a degenerate residual equation or no new point."""


class CompositionError(DegenerateParameterError):
    """Point composition on a quartic model is undefined for these points."""


class ImageTooLargeError(DomainError):
    """A polynomial operation would build a coefficient-list image in several
    variables with more slots than multipoly's limit (_MAX_IMAGE_SLOTS)."""


class PipelineStepError(DomainError):
    """A multi-step generation pipeline degenerated; the message names the step."""


class VerificationError(RuntimeError):
    """An internal consistency check failed; this indicates a bug, not bad input."""
