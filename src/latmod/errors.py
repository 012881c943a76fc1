"""Exception types raised by latmod."""


class LatmodError(Exception):
    """Base class for all input and validation errors."""


class DuplicateLabel(LatmodError):
    """Two elements were given the same label."""


class UnknownLabel(LatmodError):
    """A cover or arrow refers to a label that does not exist."""


class CycleError(LatmodError):
    """The cover relation contains a directed cycle."""


class NotALattice(LatmodError):
    """The input poset is missing a meet or a join for some pair."""


class NotATransferSystem(LatmodError):
    """An operation that requires a transfer system was given something else."""


class NotAWeakEquivalenceSet(LatmodError):
    """An operation that requires a weak equivalence set was given something else."""


class MaximalityViolation(LatmodError):
    """The union of admissible systems inside W failed to be closed."""


class NotAdmissible(LatmodError):
    """The proposed acyclic fibrations do not lie in the admissible interval.

    Raised as NotAdmissible(weq, acyclic_fib) with the refused arrow sets.
    The message is worded only when it is read, so a caller that catches
    the refusal pays for no arrow names.
    """

    @property
    def weq(self):
        return self.args[0]

    @property
    def acyclic_fib(self):
        return self.args[1]

    def __str__(self) -> str:
        return (
            f"AF={self.acyclic_fib.signature()} is outside the admissible "
            f"interval of W={self.weq.signature()}"
        )


class NotShort(LatmodError):
    """Golden arrow computations require a short arrow (a cover)."""


class FixpointError(RuntimeError):
    """Internal error: a localization changed the class it keeps
    (fibrations or cofibrations)."""
