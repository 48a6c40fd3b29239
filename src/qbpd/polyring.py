"""Exact sparse polynomial arithmetic over Z in x_1..x_n, y_1..y_n, q_1..q_{n-1}.

A polynomial is a map from monomials to nonzero Python ints, so coefficients
never overflow.  Monomials are stored internally as one packed int: the
3n-1 exponents (the x block, then the y block, then the q block) sit in
8-bit fields, slot 0 (x_1) in the most significant one, so multiplying
monomials adds ints and descending int order is descending lex order on
the exponent vector.  The top bit of every field is a guard bit: exponents
range over 0..127, and an operation whose result leaves that range raises
:class:`OutOfRange` instead of carrying into the next field.  At the public
boundary a monomial is its exponent tuple (x_1..x_n, y_1..y_n,
q_1..q_{n-1}): :class:`Poly` takes ``{tuple: int}`` and :meth:`Poly.terms`
gives it back.  The ambient size n is fixed per polynomial and mixed-size
arithmetic is an error; :meth:`Poly.embed` performs the explicit inclusion
into a larger ring.

The quantum degree of a monomial counts deg x_i = deg y_j = 1 and
deg q_i = 2.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index
from typing import NamedTuple

from .errors import AmbientMismatch, OutOfRange

__all__ = ["Poly"]

# one byte per exponent field, so ``int.to_bytes`` decodes a key
_WIDTH = 8
_MAX_EXP = 127
_PIECE = 4096  # terms per piece of written output


class _Layout(NamedTuple):
    """Where the 3n-1 exponent fields of a packed key sit."""

    shifts: tuple[int, ...]  # bit shift of each slot, slot 0 the highest
    field: int  # mask of one field, unshifted
    x: tuple[int, ...]  # the key of each variable alone
    y: tuple[int, ...]
    q: tuple[int, ...]
    xmask: int  # the x block's fields, in place
    ymask: int  # the y block's fields, in place
    qmask: int  # the q block's fields, the lowest slots


@lru_cache(maxsize=None)
def _layout(n: int, width: int = _WIDTH) -> _Layout:
    """The layout of keys with ``width``-bit fields."""
    top = 3 * n - 2
    shifts = tuple((top - s) * width for s in range(top + 1))
    units = tuple(1 << s for s in shifts)
    qmask = (1 << (n - 1) * width) - 1
    ymask = ((1 << n * width) - 1) << (n - 1) * width
    xmask = ((1 << n * width) - 1) << (2 * n - 1) * width
    x, y, q = units[:n], units[n : 2 * n], units[2 * n :]
    return _Layout(shifts, (1 << width) - 1, x, y, q, xmask, ymask, qmask)


def _narrow(n: int) -> _Layout:
    """The layout of the weight sum's keys: fields just wide enough for n.

    Those keys only multiply within the weight of one diagram or of its
    columns east of a boundary.  No exponent there passes n, since a cell
    adds one x_i or q_i of its row or y_j of its column at most, and a row,
    a column and a q-row each have at most n cells; so narrow fields never
    carry, and they keep the keys small.
    """
    return _layout(n, (n + 1).bit_length())


class _Memo(dict):
    """A dict that fills each missing key ``k`` with ``fn(k)``."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _mac(acc: dict, poly: dict, terms) -> dict:
    """acc += poly * terms on packed keys; returns acc.

    ``terms`` is an iterable of (key, coefficient) pairs; it is the outer
    loop, so it should be the shorter factor.  Both factors must hold only
    nonzero coefficients, so a new key's product needs no zero test; a
    zero sum is deleted as soon as it appears, so ``acc`` never holds a
    zero coefficient either.
    """
    get = acc.get
    items = poly.items()
    for tk, tv in terms:
        for k, v in items:
            t = k + tk
            s = get(t)
            if s is None:
                acc[t] = v * tv
            else:
                s += v * tv
                if s:
                    acc[t] = s
                else:
                    del acc[t]
    return acc


def _checked(n: int, terms: dict) -> dict:
    """``terms`` itself, after checking that no exponent passed the limit."""
    guard = int.from_bytes(b"\x80" * (3 * n - 1), "big")
    if any(map(guard.__and__, terms)):
        raise OutOfRange(f"an exponent exceeds {_MAX_EXP}")
    return terms


class Poly:
    """Immutable sparse polynomial with exact integer coefficients."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: dict | None = None):
        if n < 1:
            raise OutOfRange("ambient size must be >= 1")
        self.n = n
        self._terms = {}
        if terms:
            width = 3 * n - 1
            for key, coeff in terms.items():
                if len(key) != width:
                    raise AmbientMismatch(
                        f"monomial width {len(key)} != {width} for n={n}"
                    )
                if min(key) < 0 or max(key) > _MAX_EXP:
                    raise OutOfRange(f"exponents {tuple(key)} not in 0..{_MAX_EXP}")
                coeff = index(coeff)  # a float raises TypeError, as in bytes(key)
                if coeff:
                    self._terms[int.from_bytes(bytes(key), "big")] = coeff

    @classmethod
    def _raw(cls, n: int, terms: dict) -> "Poly":
        # trusted constructor: terms already normalized, ownership transfers
        p = cls.__new__(cls)
        p.n = n
        p._terms = terms
        return p

    @classmethod
    def _from_packed(cls, n: int, parts) -> "Poly":
        """One Poly from key-disjoint dicts laid out by ``_narrow(n)``.

        Each dict of ``parts`` is re-packed into Poly's fields in turn, so
        an iterator of parts is never held whole in the narrow layout.
        Keys share few x, y and q blocks, whose bits are disjoint: one memo
        widens each block value once, and a key is the OR of its blocks.
        """
        narrow = _narrow(n)
        xmask, ymask, qmask = narrow.xmask, narrow.ymask, narrow.qmask
        pairs = list(zip(narrow.shifts, _layout(n).shifts))

        def widen(block: int) -> int:
            key = 0
            for src, dst in pairs:
                key |= (block >> src & narrow.field) << dst
            return key

        wide = _Memo(widen)
        out = {
            wide[k & xmask] | wide[k & ymask] | wide[k & qmask]: c
            for terms in parts
            for k, c in terms.items()
        }
        return cls._raw(n, _checked(n, out))

    def _flat(self, key: int) -> bytes:
        # one exponent per byte, slot 0 first
        return key.to_bytes(3 * self.n - 1, "big")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Poly":
        return cls(n)

    @classmethod
    def const(cls, c: int, n: int) -> "Poly":
        c = index(c)
        if c == 0:
            return cls(n)
        return cls._raw(n, {0: c})

    @classmethod
    def one(cls, n: int) -> "Poly":
        return cls.const(1, n)

    @classmethod
    def x(cls, i: int, n: int) -> "Poly":
        if not 1 <= i <= n:
            raise OutOfRange(f"x index {i} not in 1..{n}")
        return cls._raw(n, {_layout(n).x[i - 1]: 1})

    @classmethod
    def y(cls, j: int, n: int) -> "Poly":
        if not 1 <= j <= n:
            raise OutOfRange(f"y index {j} not in 1..{n}")
        return cls._raw(n, {_layout(n).y[j - 1]: 1})

    @classmethod
    def q(cls, i: int, n: int) -> "Poly":
        if not 1 <= i <= n - 1:
            raise OutOfRange(f"q index {i} not in 1..{n - 1}")
        return cls._raw(n, {_layout(n).q[i - 1]: 1})

    @classmethod
    def x_minus_y(cls, i: int, j: int, n: int) -> "Poly":
        return cls.x(i, n) - cls.y(j, n)

    # -- ring operations ---------------------------------------------------

    def _check_ambient(self, other: "Poly") -> None:
        if self.n != other.n:
            raise AmbientMismatch(f"ambient sizes differ: {self.n} != {other.n}")

    def __add__(self, other):
        if isinstance(other, int):
            other = Poly.const(other, self.n)
        elif not isinstance(other, Poly):
            return NotImplemented
        self._check_ambient(other)
        return Poly._raw(self.n, _mac(dict(self._terms), other._terms, ((0, 1),)))

    __radd__ = __add__

    def __neg__(self):
        return Poly._raw(self.n, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = Poly.const(other, self.n)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return Poly.zero(self.n)
            return Poly._raw(self.n, {k: c * other for k, c in self._terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_ambient(other)
        a, b = self._terms, other._terms
        if len(a) < len(b):
            a, b = b, a
        return Poly._raw(self.n, _checked(self.n, _mac({}, a, b.items())))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            return self._terms == Poly.const(other, self.n)._terms
        return (
            isinstance(other, Poly)
            and self.n == other.n
            and self._terms == other._terms
        )

    __hash__ = None

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        """The number of stored terms."""
        return len(self._terms)

    # -- structure ---------------------------------------------------------

    def terms(self) -> dict[tuple[int, ...], int]:
        """{exponent tuple: coefficient}, so ``Poly(p.n, p.terms()) == p``.

        Tuples sort like the packed keys: sorting them in reverse gives the
        canonical order.
        """
        return {tuple(self._flat(k)): c for k, c in self._terms.items()}

    def counts(self) -> tuple[int, int]:
        """(number of stored terms, sum of absolute coefficient values)."""
        return len(self._terms), sum(abs(c) for c in self._terms.values())

    def embed(self, N: int) -> "Poly":
        """Include into the ring with ambient size N >= n."""
        n = self.n
        if N < n:
            raise OutOfRange(f"cannot embed ambient {n} into {N}")
        if N == n:
            return self
        # each block moves whole, its last slot to that slot's field in the
        # larger ring; the new slots of each block stay zero
        src, dst = _layout(n), _layout(N)
        ymask, qmask = src.ymask, src.qmask
        xs, ys = src.shifts[n - 1], src.shifts[2 * n - 1]
        xd, yd, qd = (dst.shifts[s] for s in (n - 1, N + n - 1, 2 * N + n - 2))
        terms = {
            (k >> xs) << xd | (k & ymask) >> ys << yd | (k & qmask) << qd: c
            for k, c in self._terms.items()
        }
        return Poly._raw(N, terms)

    # -- specialization and operators ---------------------------------------

    def specialize(self, zero_y: bool = False, zero_q: bool = False) -> "Poly":
        """Set the selected variable families to 0."""
        if not (zero_y or zero_q):
            return self
        layout = _layout(self.n)
        mask = (layout.ymask if zero_y else 0) | (layout.qmask if zero_q else 0)
        return Poly._raw(self.n, {k: c for k, c in self._terms.items() if not k & mask})

    def divided_difference_y(self, i: int) -> "Poly":
        """(f - s_i f) / (y_i - y_{i+1}), computed by exact synthetic division.

        Each term m of f contributes m - s_i m, which is zero when m is
        symmetric in y_i, y_{i+1}.  Otherwise both m and its swapped
        negative are divided by y_i - y_{i+1} along the y_i exponent (via
        y_i = (y_i - y_{i+1}) + y_{i+1}); their remainders, y_{i+1}^{a+b}
        with opposite signs, cancel, so the division is exact by
        construction.
        """
        n = self.n
        if not 1 <= i <= n - 1:
            raise OutOfRange(f"divided difference index {i} not in 1..{n - 1}")
        layout = _layout(n)
        sa, sb, field = layout.shifts[n + i - 1], layout.shifts[n + i], layout.field
        ua, ub = 1 << sa, 1 << sb
        step = ua - ub
        quot: dict = {}
        qget = quot.get
        for key, c in self._terms.items():
            a, b = key >> sa & field, key >> sb & field
            if a == b:
                continue
            base = key - a * ua - b * ub
            # y_i^a y_{i+1}^b = (y_i - y_{i+1}) * sum_{j<a} y_i^j y_{i+1}^{a-1-j+b}
            #                   + y_{i+1}^{a+b}
            # The quotients of m and -s_i m share their terms j < min(a, b),
            # which cancel, so only j in min(a, b)..max(a, b)-1 is added.
            lo, hi, sign = (b, a, c) if a > b else (a, b, -c)
            k2 = base + (a + b - 1) * ub + lo * step
            for _ in range(hi - lo):
                quot[k2] = qget(k2, 0) + sign
                k2 += step
        # quotient exponents are at most max(a, b) - 1, so none can overflow
        return Poly._raw(n, {k: c for k, c in quot.items() if c})

    # -- rendering -----------------------------------------------------------

    def canonical_text(self) -> str:
        """Deterministic text form, terms in descending lex order.

        >>> (Poly.q(1, 3) * Poly.q(2, 3) - Poly.q(1, 3) * Poly.q(1, 3)).canonical_text()
        '-q1^2 + q1*q2'
        """
        return "".join(self.pieces())

    def pieces(self, as_json: bool = False):
        """The canonical text, or with ``as_json`` the JSON object, in pieces.

        Each piece is ``_PIECE`` whole terms in descending lex order, so no
        output is held whole, and the text of each coefficient and block
        value is made once.  The JSON object is laid out as ``json.dumps``
        lays out ``{"n": n, "terms": [{"c": "-2", "x": [..], "y": [..], "q": [..]}]}``.
        """
        n, terms, flat = self.n, self._terms, self._flat
        if as_json:
            yield f'{{"n": {n}, "terms": ['
            head = _Memo(lambda c: f', {{"c": "{c}", "x": ')
            x = _Memo(lambda block: f'{list(flat(block)[:n])}, "y": ')
            y = _Memo(lambda block: f'{list(flat(block)[n : 2 * n])}, "q": ')
            q = _Memo(lambda block: f"{list(flat(block)[2 * n :])}}}")
        else:
            blocks = (("x", n), ("y", n), ("q", n - 1))
            names = [f"{v}{i}" for v, size in blocks for i in range(1, size + 1)]
            # factors follow a "*" and every term writes its magnitude, so a
            # constant term is whole; a 1 before a factor is dropped per piece
            head = _Memo(lambda c: f" - {-c}" if c < 0 else f" + {c}")
            x = y = q = _Memo(
                lambda block: "".join(
                    f"*{name}" if e == 1 else f"*{name}^{e}"
                    for name, e in zip(names, flat(block))
                    if e
                )
            )
        layout = _layout(n)
        xmask, ymask, qmask = layout.xmask, layout.ymask, layout.qmask
        keys = sorted(terms, reverse=True)
        for at in range(0, len(keys), _PIECE):
            piece = "".join(
                [
                    f"{head[terms[k]]}{x[k & xmask]}{y[k & ymask]}{q[k & qmask]}"
                    for k in keys[at : at + _PIECE]
                ]
            )
            if not as_json:
                piece = piece.replace(" 1*", " ")
            if not at:  # no separator before the first term; text keeps its sign
                piece = piece[2:] if as_json else piece[1].strip("+") + piece[3:]
            yield piece
        if as_json:
            yield "]}"
        elif not keys:
            yield "0"

    def __repr__(self):
        return f"Poly(n={self.n}, {self.canonical_text()})"
