"""Exception hierarchy shared across the package."""


class CodedimError(Exception):
    """Base class for all errors raised by codedim."""


class InputError(CodedimError, ValueError):
    """Malformed user input: bad codeword syntax, bad edges, bad flags."""


class GuardError(CodedimError):
    """A size guard was exceeded; the computation was refused."""


class VoidComplexError(CodedimError):
    """No face at all, not even the empty one: the void complex.

    Every complex contains the empty face, so from_faces refuses the void
    complex where it would be built and no other operation meets it.
    """


class ConsistencyError(CodedimError):
    """Two evaluation routes that must agree disagreed; indicates a bug."""
