"""Exception types raised by the solver library.

Everything derives from :class:`NitscheIgaError` so callers can catch the
whole family at once.  Configuration problems (bad run files, contradictory
keys) are kept separate from numerical failures; the CLI maps the former to
exit code 2 and the latter to exit code 3.
"""


class NitscheIgaError(Exception):
    """Base class for all library errors."""


class ConfigError(NitscheIgaError, ValueError):
    """A run configuration is missing, contradictory, or malformed."""


# -- knot vector validation ------------------------------------------------

class KnotVectorError(NitscheIgaError, ValueError):
    """A knot sequence fails structural validation."""


class NotNondecreasing(KnotVectorError):
    """Knots are not sorted in nondecreasing order."""


class NotOpen(KnotVectorError):
    """End knots do not repeat exactly degree+1 times (or range is not [0,1])."""


class ExcessMultiplicity(KnotVectorError):
    """An interior knot repeats more than degree+1 times."""


class OutOfDomain(NitscheIgaError, ValueError):
    """Evaluation point lies outside the parametric domain [0,1]."""


# -- geometry and quadrature -----------------------------------------------

class DegenerateJacobian(NitscheIgaError):
    """|det(grad F)| fell below the floor; the geometry map is not usable."""


class UnsupportedOrder(NitscheIgaError, ValueError):
    """Requested quadrature point count outside the supported range."""


class UnknownCase(NitscheIgaError, ValueError):
    """No registered problem case under the requested name."""


# -- linear algebra ----------------------------------------------------------

class SingularMatrix(NitscheIgaError):
    """Direct factorization failed; the system matrix is singular."""


class ConvergenceFailure(NitscheIgaError):
    """A solve or eigensolve finished but violated its residual bound."""


class NotSPD(NitscheIgaError):
    """Matrix expected to be symmetric positive definite is not."""


class SingularGram(NitscheIgaError):
    """A local Gram matrix is singular beyond the constant mode."""


class InsufficientLevels(NitscheIgaError, ValueError):
    """A convergence study needs at least two refinement levels."""
