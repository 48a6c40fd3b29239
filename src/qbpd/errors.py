"""Exception types shared across the package."""


class NotABijection(ValueError):
    """One-line notation is not a bijection of {1..n}."""


class OutOfRange(ValueError):
    """A position, index or size argument is outside its legal range."""


class IdentityPermutation(ValueError):
    """The identity permutation was passed where a non-identity is required."""


class AmbientMismatch(ValueError):
    """Two polynomials with different ambient sizes were combined."""


class SizeMismatch(ValueError):
    """A sequence argument has the wrong length."""


class TracingStuck(Exception):
    """A pipe cannot be traced through the grid.

    Carries the 1-based cell and the entry side where tracing failed.
    """

    def __init__(self, cell, side, reason=""):
        self.cell = cell
        self.side = side
        self.reason = reason
        msg = f"tracing stuck at {cell} entering from {side}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)


class InvalidDiagram(ValueError):
    """A diagram failed validation; carries the violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations) or "invalid diagram")


class HasDominoes(ValueError):
    """An unpaired diagram was required but the input carries dominoes."""


class NotRestrictable(ValueError):
    """The diagram's permutation does not fix n, so no restriction exists."""


class MoveRejected(Exception):
    """A droop or lift move does not apply; carries the reason."""

    def __init__(self, reason):
        self.reason = reason
        super().__init__(reason)


class SizeLimit(ValueError):
    """The requested size exceeds the supported limit."""
