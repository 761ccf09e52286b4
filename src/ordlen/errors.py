"""Exception hierarchy shared by all ordlen modules."""


class OrdlenError(Exception):
    """Base class for all errors raised by this library."""


class AmbientMismatchError(OrdlenError):
    """Two objects living over different polynomial rings were combined."""


class TooManyVariablesError(OrdlenError):
    """Ambient variable count exceeds the configured cap."""


class InvalidSubquotientError(OrdlenError):
    """A pair (I, J) with I not contained in J, or an inclusion chain broken."""


class ZeroModuleError(OrdlenError):
    """An invariant that is undefined on the zero module was requested."""


class NonEffectiveCycleError(OrdlenError):
    """A cycle with a negative coefficient reached an effective-only operation."""


class NotArtinianError(OrdlenError):
    """The classical length oracle was called on a module of infinite length."""


class ResourceCapError(OrdlenError):
    """An iteration cap was exceeded; the cap is reported in the message."""


class SubmoduleSearchError(ResourceCapError):
    """The submodule-of-given-length search failed within its degree bound."""
