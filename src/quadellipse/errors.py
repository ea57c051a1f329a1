"""Exception types shared across the package."""


class QuadEllipseError(Exception):
    """Base class for every error raised by this package."""


class NotAnEllipse(QuadEllipseError):
    pass


class SingularCenterSystem(QuadEllipseError):
    """No longer raised: an ellipse's centre system is never singular once
    classify_conic has accepted it. Kept because perfbench's ERROR_CLASSES
    names it."""


class DegenerateLine(QuadEllipseError):
    pass


class NotConvex(QuadEllipseError):
    pass


class DegenerateVertices(QuadEllipseError):
    pass


class IsTrapezoid(QuadEllipseError):
    pass


class NotParallelogram(QuadEllipseError):
    pass


class IsParallelogram(QuadEllipseError):
    pass


class TrapezoidUnsupported(QuadEllipseError):
    """No longer raised: max_area_ellipse has a closed form for trapezoids.
    Kept because perfbench's ERROR_CLASSES and Inscribe.op name it."""


class ParameterOutOfRange(QuadEllipseError):
    pass


class CanonicalFormViolated(QuadEllipseError):
    pass


class CenterOffLocus(QuadEllipseError):
    pass


class EmptyInput(QuadEllipseError):
    pass


class ZeroImaginaryPart(QuadEllipseError):
    pass


class DomainError(QuadEllipseError):
    pass


class IdentityMismatch(QuadEllipseError):
    pass


class OptimizationFailed(QuadEllipseError):
    pass


class EmptyScene(QuadEllipseError):
    pass
