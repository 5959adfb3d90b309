"""Exception types shared across the package."""

from __future__ import annotations


class Gl3Error(Exception):
    """Base class for all domain errors raised by this package."""


class PoleError(Gl3Error):
    """A rational building block was evaluated at (or too close to) a pole."""


class ZeroArgError(Gl3Error):
    """A logarithm argument fell within the collision tolerance of zero."""


class CollisionError(Gl3Error):
    """Root configuration drifted into a forbidden coincidence (u_i = u_j or u_i = u_j +- c)."""


class NoConvergence(Gl3Error):
    """Iteration budget exhausted without meeting the requested tolerance."""


class JacobianSingular(Gl3Error):
    """Newton Jacobian was numerically singular."""


class PathCollision(Gl3Error):
    """Roots collided at an intermediate point of a twist continuation path."""


class SectorMismatch(Gl3Error):
    """Left/right state sectors are incompatible with the requested matrix entry."""


class DegenerateEigenvalue(Gl3Error):
    """The oracle has no confirmed vector for the state: its Bethe vector
    vanishes, is no transfer-matrix eigenvector, or has no formula (b >= 2)."""


class ZeroDenominator(Gl3Error):
    """An invariant comparator hit a vanishing denominator."""


class NonFiniteResult(Gl3Error):
    """A matrix element or norm overflowed to a non-finite value."""


class ConfigError(Gl3Error):
    """Run configuration failed validation."""


class DegeneracyWarning(UserWarning):
    """Two root multisets are nearly (but not exactly) identical; both
    evaluation branches of the diagonal form factor become ill-conditioned."""
