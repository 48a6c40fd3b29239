"""Permutations of {1..n} in one-line notation.

Positions and values are 1-based throughout, matching matrix coordinates:
``w(i)`` is the image of position ``i``.  Besides the basic group
operations this module provides the two cover predicates used by the
transition recursion (ordinary Bruhat covers and "quantum" lowerings by a
reflection of full length) and the transition setup data
``(n, a, b, m, sigma)`` extracted from a non-identity permutation.
"""

from __future__ import annotations

import itertools
from operator import attrgetter, index
from typing import Iterator, NamedTuple, Sequence

from .errors import IdentityPermutation, NotABijection, OutOfRange

__all__ = [
    "Permutation",
    "TransitionData",
    "make_permutation",
    "parse_permutation",
    "length",
    "right_multiply_transposition",
    "is_bruhat_cover",
    "is_quantum_lower",
    "transition_setup",
    "embed",
    "enumerate_symmetric_group",
]


class _Record:
    """Fields named by ``__slots__`` that only the constructor sets.

    ``_values``, an ``attrgetter`` of the fields, gives what records of one
    class compare and hash by; they show as ``Name(field=value, ...)``.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(map(self.__getattribute__, self.__slots__))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class Permutation(_Record):
    """A bijection of {1..n}, stored as the tuple (w(1), ..., w(n))."""

    __slots__ = ("images",)
    _values = attrgetter(*__slots__)

    def __init__(self, images: tuple[int, ...]):
        images = tuple(map(index, images))  # a float raises TypeError
        n = len(images)
        if n < 1:
            raise NotABijection("empty one-line notation")
        if sorted(images) != list(range(1, n + 1)):
            raise NotABijection(f"{images} is not a bijection of 1..{n}")
        object.__setattr__(self, "images", images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise OutOfRange(f"position {i} not in 1..{self.n}")
        return self.images[i - 1]

    def position_of(self, value: int) -> int:
        """Return w^{-1}(value)."""
        if not 1 <= value <= self.n:
            raise OutOfRange(f"value {value} not in 1..{self.n}")
        return self.images.index(value) + 1

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.images))

    def trimmed_images(self) -> tuple[int, ...]:
        """One-line notation with trailing fixed points removed (at least (1,))."""
        images = self.images
        m = len(images)
        while m > 1 and images[m - 1] == m:
            m -= 1
        return images[:m]

    def to_text(self) -> str:
        """Digit string for n <= 9, comma-separated values otherwise."""
        if self.n <= 9:
            return "".join(str(v) for v in self.images)
        return ",".join(str(v) for v in self.images)

    def __str__(self) -> str:
        return self.to_text()


def make_permutation(images: Sequence[int]) -> Permutation:
    """Validate one-line notation and build a :class:`Permutation`.

    >>> make_permutation([4, 2, 1, 3]).images
    (4, 2, 1, 3)
    """
    return Permutation(tuple(int(v) for v in images))


def parse_permutation(text: str) -> Permutation:
    """Parse either a digit string ("4213") or comma-separated values."""
    text = text.strip()
    if not text:
        raise NotABijection("empty permutation string")
    if "," in text:
        parts = [p.strip() for p in text.split(",")]
    else:
        if not text.isdigit():
            raise NotABijection(f"cannot parse permutation {text!r}")
        parts = list(text)
    try:
        return make_permutation([int(p) for p in parts])
    except ValueError as exc:
        raise NotABijection(f"cannot parse permutation {text!r}") from exc


def length(w: Permutation) -> int:
    """Number of inversions of w (the Coxeter length).

    >>> length(make_permutation([4, 2, 1, 3]))
    4
    """
    images = w.images
    n = len(images)
    return sum(
        1 for i in range(n) for j in range(i + 1, n) if images[i] > images[j]
    )


def right_multiply_transposition(w: Permutation, a: int, b: int) -> Permutation:
    """Return w*t_ab: the images at positions a < b swapped."""
    if not 1 <= a < b <= w.n:
        raise OutOfRange(f"need 1 <= a < b <= {w.n}, got a={a}, b={b}")
    images = list(w.images)
    images[a - 1], images[b - 1] = images[b - 1], images[a - 1]
    return Permutation(tuple(images))


def is_bruhat_cover(sigma: Permutation, a: int, b: int) -> bool:
    """True iff sigma*t_ab covers sigma, i.e. the length goes up by one.

    Equivalent to: sigma(a) < sigma(b) and no intermediate value lies
    strictly between them.
    """
    if not 1 <= a < b <= sigma.n:
        raise OutOfRange(f"need 1 <= a < b <= {sigma.n}, got a={a}, b={b}")
    images = sigma.images
    va, vb = images[a - 1], images[b - 1]
    if va >= vb:
        return False
    return all(not va < images[k - 1] < vb for k in range(a + 1, b))


def is_quantum_lower(sigma: Permutation, c: int, d: int) -> bool:
    """True iff sigma*t_cd drops the length by the full 2(d-c)-1.

    Equivalent to: sigma(c) > sigma(d) and every intermediate value lies
    strictly between them.
    """
    if not 1 <= c < d <= sigma.n:
        raise OutOfRange(f"need 1 <= c < d <= {sigma.n}, got c={c}, d={d}")
    images = sigma.images
    vc, vd = images[c - 1], images[d - 1]
    if vc <= vd:
        return False
    return all(vc > images[k - 1] > vd for k in range(c + 1, d))


class TransitionData(NamedTuple):
    """The data (n, a, b, m, sigma) the transition equation reads for w.

    ``n`` is the largest non-fixed point, ``a`` the position carrying the
    value n, ``b`` the position of the secondary maximum after a,
    ``sigma = w*t_ab`` and ``m = sigma(a)``.
    """

    n: int
    a: int
    b: int
    m: int
    sigma: Permutation


def transition_setup(pi: Permutation) -> TransitionData:
    """Compute the transition data of a non-identity permutation.

    >>> td = transition_setup(make_permutation([3, 4, 2, 1]))
    >>> (td.n, td.a, td.b, td.m, td.sigma.images)
    (4, 2, 3, 2, (3, 2, 4, 1))
    """
    if pi.is_identity():
        raise IdentityPermutation("transition setup needs a non-identity input")
    images = pi.images
    n = max(i for i in range(1, pi.n + 1) if images[i - 1] != i)
    a = images.index(n) + 1
    b = max(range(a + 1, n + 1), key=lambda i: images[i - 1])
    sigma = right_multiply_transposition(pi, a, b)
    return TransitionData(n=n, a=a, b=b, m=sigma(a), sigma=sigma)


def embed(w: Permutation, N: int) -> Permutation:
    """Extend w by fixed points n+1..N."""
    if N < w.n:
        raise OutOfRange(f"cannot embed S_{w.n} into S_{N}")
    return Permutation(w.images + tuple(range(w.n + 1, N + 1)))


def enumerate_symmetric_group(n: int) -> Iterator[Permutation]:
    """Yield all n! permutations in lexicographic one-line order."""
    if n < 1:
        raise OutOfRange("n must be >= 1")
    for images in itertools.permutations(range(1, n + 1)):
        yield Permutation(images)
