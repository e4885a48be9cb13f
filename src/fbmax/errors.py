"""Exception types shared across the package."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to produce a trustworthy result."""


class EmbeddingError(NumericalError):
    """Circulant embedding produced an eigenvalue too negative to clip."""


class QuadratureError(NumericalError):
    """Numerical integration did not converge or failed a cross-check."""
