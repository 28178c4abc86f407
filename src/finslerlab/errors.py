"""Shared exception types."""


class FinslerError(Exception):
    """Base class for all finslerlab errors."""


class EvalError(FinslerError):
    """Arithmetic cannot proceed (division by ~0, sqrt of a negative, 0^negative, ...)."""


class DomainEscape(FinslerError):
    """A point (or a finite-difference stencil / trajectory) left the model domain."""


class SingularMetric(FinslerError):
    """The fundamental tensor is numerically singular at the requested sample."""


class OutsideHatDomain(FinslerError):
    """Sample violates F - Phi > 0, so the changed metric is undefined there."""


class DegenerateMargin(FinslerError):
    """|F(1+2p^2) - 3*Phi| is below the configured threshold; the changed
    metric tensor is (numerically) degenerate and change scalars are unusable."""


class ModelSyntaxError(FinslerError):
    """Model source failed to tokenize/parse. Carries position and expectations."""

    def __init__(self, message, line, col, expected=()):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.expected = tuple(expected)


class ModelValidationError(FinslerError):
    """Model parsed but violates a structural rule (y-variable in phi, dim mismatch, ...)."""
