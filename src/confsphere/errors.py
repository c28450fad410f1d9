"""Exception types shared across the library."""


class ConfSphereError(Exception):
    """Base class for all library-specific errors."""


class PoleSingularity(ConfSphereError):
    """Stereographic projection evaluated too close to its pole."""


class AxisMismatch(ConfSphereError):
    """Operation requires Mobius maps / zonal functions sharing one axis."""


class InsufficientNodes(ConfSphereError):
    """Quadrature rule too small for the requested spectral degree."""


class NonPositiveFunction(ConfSphereError):
    """Function fails the strict-positivity gate required by negative powers."""


class CriticalOrder(ConfSphereError):
    """Operation undefined at the critical order 2m = n."""


class SingularOperator(ConfSphereError):
    """Spectral inversion attempted while some multiplier vanishes."""


class PrecondViolated(ConfSphereError):
    """Vanishing conditions at the pole required by the flat energy identity fail."""


class SupportViolation(ConfSphereError):
    """Test function is not supported away from the projection pole."""


class ClosedFormMismatch(ConfSphereError):
    """An exact Hessian eigenvalue differs from its closed form."""


class NotUnstable(ConfSphereError):
    """No negative Hessian eigenvalue where instability was requested."""


class InvalidConfig(ConfSphereError):
    """Command-line or run configuration fails validation."""
