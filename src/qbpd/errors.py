"""Exception types shared across the package."""


class NotABijection(ValueError):
    """One-line notation is not a bijection of {1..n}."""


class OutOfRange(ValueError):
    """A position, index or size argument is outside its legal range."""


class IdentityPermutation(ValueError):
    """The identity permutation was passed where a non-identity is required."""


class AmbientMismatch(ValueError):
    """Two polynomials with different ambient sizes were combined."""


class InvalidDiagram(ValueError):
    """A diagram failed validation; carries the violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations) or "invalid diagram")


class HasDominoes(ValueError):
    """An unpaired diagram was required but the input carries dominoes."""


class SizeLimit(ValueError):
    """The requested size exceeds the supported limit."""
