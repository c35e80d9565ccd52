"""Exception types shared across rigidkit."""


class RigidkitError(Exception):
    """Base class for rigidkit errors."""


class FrameworkValidationError(RigidkitError):
    """A framework violates a structural invariant (self loop, duplicate or
    out-of-range edge, zero-length bar, shape mismatch)."""


class DegenerateLeadingVertices(RigidkitError):
    """The leading span_dim + 1 vertices are affinely dependent, so the
    configuration cannot be pinned in the given vertex order.  Callers may
    permute the vertices and retry."""


class DimKNotOne(RigidkitError):
    """An operation that requires a 1-dimensional first-order flex space was
    called with dim K != 1.  Only the energy-based order tests apply."""


class ZeroLengthEdge(RigidkitError):
    """An edge length hit zero (or a sphere radius was large enough that it
    could), which puts the energy outside its analytic domain."""


class NotACriticalPoint(RigidkitError):
    """The target function does not have (numerically) vanishing gradient at
    the origin, so critical-point classification does not apply."""


class DegenerateFit(RigidkitError):
    """A growth fit could not be performed: dim K > 1, where the fit does not
    apply, no edges, or some sampled minimum energy was non-positive or at
    the floating-point floor (a flexible framework)."""
