"""Exception types shared across the package."""


class PsforgeError(Exception):
    """Base class for all package-specific errors."""


class NotUnitary(PsforgeError):
    """A matrix expected in SU(2) fails the unitarity tolerance."""


class NotSkew(PsforgeError):
    """A matrix expected to be skew-symmetric is not, within tolerance."""


class ZeroSpectralParameter(PsforgeError):
    """lambda = 0 where 1/lambda enters: a Laurent loop evaluated there, or
    the frame equations marched there."""


class BigCellViolation(PsforgeError):
    """Birkhoff factorization failed: the loop is outside the big cell
    (the truncated linear system is singular or ill-conditioned)."""


class TruncationTooSmall(PsforgeError):
    """Birkhoff factorization residual does not decrease under refinement."""


class IncompatibleCorner(PsforgeError):
    """Goursat characteristic data disagrees at the corner node."""


class NonconvergentCell(PsforgeError):
    """Local Picard iteration of the Goursat scheme failed to converge."""


class StepFailure(PsforgeError):
    """A frame/potential ODE integration produced a non-finite state or
    left its group: the step does not resolve the equations."""


class SingularAngle(PsforgeError):
    """Principal curvatures requested at an angle with sin(phi) = 0."""


class NonpositiveProfile(PsforgeError):
    """A metric profile A(x) or B(y) must be strictly positive."""
