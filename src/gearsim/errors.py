"""Exception types shared across the package."""


class GearsError(Exception):
    """Base class for all gearsim errors."""


class NonPhysicalError(GearsError, ValueError):
    """A collective momentum has no integer (m1, m2) preimage, the tooth
    profile has no well at the aligned configuration, or a hand-built window
    the profile's couplings do not fit."""


class UnsupportedInertiaError(GearsError, ValueError):
    """The inertia ratio gives band_structure more Bloch residues than it
    solves (relative.MAX_BAND_RESIDUES)."""


class ConvergenceFailure(GearsError, RuntimeError):
    """A numerical routine failed to converge."""


class TruncationBreach(GearsError, RuntimeError):
    """Probability reached the edge of a truncated basis; results untrusted."""


class InternalInconsistency(GearsError, RuntimeError):
    """Two redundant computations of the same quantity disagree (bug guard)."""


class ConfigError(GearsError, ValueError):
    """Malformed or contradictory experiment configuration."""
