"""Exact coefficient arithmetic.

A :class:`Coefficient` is an arbitrary-precision integer, a rational in lowest
terms, or a single-variable Laurent polynomial in ``q`` with integer
coefficients.  All values are immutable and kept in one normal form: an
``int``; a ``Fraction`` (lowest terms, positive denominator); or a tuple of
``(exponent, coefficient)`` int pairs sorted by exponent, with no zero
coefficient.  Equality and hashing compare that form; the hash is of the
normal form, computed on first use and kept.  No floating point is used
anywhere.

The public constructor accepts only exact values: ints, Fractions for the
rational variant, and for Laurent terms int pairs, where repeated exponents
add up.  Anything else, a float above all, raises :class:`DomainError`.

The arithmetic itself is one payload kernel per variant, returned by
:func:`kernel`: ``mul``, ``add`` and ``neg`` act directly on normal-form
payloads and return one, and ``zero`` and ``one`` are the payloads of 0
and 1.  Zero is the only falsy payload (``0``, ``Fraction(0)``, ``()``).
A Laurent product with a one-term factor shifts and scales the other
factor's terms.  ``+``, ``-`` and ``*`` of :class:`Coefficient` are thin
wrappers over the kernel: they wrap its result with the private trusted
constructor ``Coefficient._normal``, which neither validates nor
re-sorts.  Hot loops, such as the bead products of
:func:`~xctangle.invariant.zeval`, run on bare payloads (the slot
``Coefficient._payload``) and wrap only their results, so that no
partial product or partial sum builds a :class:`Coefficient`.

Laurent text syntax (also used by algebra files and CLI output): terms joined
by ``+``/``-``; a term is an optional integer coefficient, optionally followed
by ``q`` with an optional ``^<int>`` exponent (which may be negative), e.g.
``1 - q^2 + 3q^-1``.  Whitespace is insignificant.  Canonical printing lists
terms by descending exponent with explicit signs; a coefficient of 1 is
suppressed except on the constant term.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Callable, Iterable
from numbers import Rational

from .errors import DomainError, ParseError, VariantMismatchError
from .record import FrozenRecord

INTEGER = "integer"
RATIONAL = "rational"
LAURENT = "laurent"

_VARIANTS = (INTEGER, RATIONAL, LAURENT)


def _laurent_add(p1: tuple, p2: tuple) -> tuple:
    if not p1:
        return p2
    if not p2:
        return p1
    acc = dict(p1)
    for e, c in p2:
        v = acc.get(e, 0) + c
        if v:
            acc[e] = v
        else:
            del acc[e]
    return tuple(sorted(acc.items()))


def _laurent_mul(p1: tuple, p2: tuple) -> tuple:
    if len(p1) == 1:
        p1, p2 = p2, p1
    if len(p2) == 1:  # a monomial shifts and scales the other factor
        (e2, c2), = p2
        # tuple() of a list, not of a generator, which over-allocates
        # and resizes: that left pages of freed memory resident
        return tuple([(e + e2, c * c2) for e, c in p1])
    acc: dict[int, int] = {}
    for e1, c1 in p1:
        for e2, c2 in p2:
            e = e1 + e2
            v = acc.get(e, 0) + c1 * c2
            if v:
                acc[e] = v
            else:
                del acc[e]
    return tuple(sorted(acc.items()))


def _laurent_neg(p: tuple) -> tuple:
    return tuple([(e, -c) for e, c in p])


class Kernel(FrozenRecord):
    """The exact arithmetic of one variant, on normal-form payloads."""

    __slots__ = ("mul", "add", "neg", "zero", "one")

    mul: Callable
    add: Callable
    neg: Callable
    zero: object
    one: object


class _Kernels(dict):
    """Kernels by variant, each built on first use: the rational one
    imports fractions, which loads decimal, and only that variant needs
    it."""

    def __missing__(self, variant: str) -> Kernel:
        if variant == LAURENT:
            k = Kernel(_laurent_mul, _laurent_add, _laurent_neg, (), ((0, 1),))
        elif variant in (INTEGER, RATIONAL):
            zero, one = 0, 1
            if variant == RATIONAL:
                from fractions import Fraction

                zero, one = Fraction(0), Fraction(1)
            k = Kernel(operator.mul, operator.add, operator.neg, zero, one)
        else:
            raise DomainError(f"unknown coefficient variant {variant!r}")
        self[variant] = k
        return k


_KERNELS = _Kernels()


def kernel(variant: str) -> Kernel:
    """The payload kernel of ``variant``."""
    return _KERNELS[variant]


def _exact_int(x, what: str) -> int:
    if not isinstance(x, int) or isinstance(x, bool):
        raise DomainError(f"{what} must be an int, got {x!r}")
    return int(x)


class Coefficient:
    """An immutable exact scalar tagged with its ring variant."""

    __slots__ = ("variant", "_payload", "_hash")

    def __init__(self, variant: str, payload):
        if variant not in _VARIANTS:
            raise DomainError(f"unknown coefficient variant {variant!r}")
        if variant == INTEGER:
            payload = _exact_int(payload, "integer value")
        elif variant == RATIONAL:
            if not isinstance(payload, Rational) or isinstance(payload, bool):
                raise DomainError(
                    f"rational value must be an int or a Fraction, got {payload!r}"
                )
            # imported here: fractions loads decimal, and only the
            # rational variant needs it
            from fractions import Fraction

            payload = Fraction(payload)
        else:
            items = payload.items() if isinstance(payload, dict) else payload
            acc: dict[int, int] = {}
            for e, c in items:
                e = _exact_int(e, "laurent exponent")
                acc[e] = acc.get(e, 0) + _exact_int(c, "laurent coefficient")
            payload = tuple(sorted((e, c) for e, c in acc.items() if c))
        self._set(variant, payload)

    @staticmethod
    def _normal(variant: str, payload) -> "Coefficient":
        """Trusted constructor: ``payload`` is already in normal form (an
        ``int``; a ``Fraction``; or a tuple of ``(exponent, coefficient)``
        int pairs sorted by exponent, with no zero coefficient)."""
        self = object.__new__(Coefficient)
        self._set(variant, payload)
        return self

    def _set(self, variant: str, payload) -> None:
        # the slot descriptors' own setters, bound below the class: two
        # C calls, where object.__setattr__ would look each name up
        _set_variant(self, variant)
        _set_payload(self, payload)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Coefficient is immutable")

    def __reduce__(self):
        return (Coefficient._normal, (self.variant, self._payload))

    # -- constructors -------------------------------------------------

    @staticmethod
    def integer(n: int) -> "Coefficient":
        return Coefficient(INTEGER, n)

    @staticmethod
    def rational(p, q: int = 1) -> "Coefficient":
        if not (isinstance(p, Rational) and isinstance(q, Rational)):
            raise DomainError(f"rational value must be exact, got {p!r}/{q!r}")
        if q == 0:
            raise DomainError("rational value with zero denominator")
        from fractions import Fraction

        return Coefficient(RATIONAL, Fraction(p, q))

    @staticmethod
    def laurent(terms: dict[int, int] | Iterable[tuple[int, int]]) -> "Coefficient":
        """Sum of ``c q^e`` over the ``(e, c)`` terms; repeated exponents add."""
        return Coefficient(LAURENT, terms)

    @staticmethod
    def q_power(e: int, coeff: int = 1) -> "Coefficient":
        return Coefficient(LAURENT, ((e, coeff),))

    @staticmethod
    def zero(variant: str = LAURENT) -> "Coefficient":
        return Coefficient._normal(variant, _KERNELS[variant].zero)

    @staticmethod
    def one(variant: str = LAURENT) -> "Coefficient":
        return Coefficient._normal(variant, _KERNELS[variant].one)

    # -- accessors ----------------------------------------------------

    @property
    def terms(self) -> dict[int, int]:
        if self.variant != LAURENT:
            raise DomainError("terms only defined for laurent coefficients")
        return dict(self._payload)

    def as_fraction(self):
        """The value as a ``fractions.Fraction``."""
        if self.variant == INTEGER:
            from fractions import Fraction

            return Fraction(self._payload)
        if self.variant == RATIONAL:
            return self._payload
        raise DomainError("laurent coefficient has no rational value")

    def is_zero(self) -> bool:
        return not self._payload

    def is_one(self) -> bool:
        return self._payload == _KERNELS[self.variant].one

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "Coefficient") -> None:
        if other.__class__ is Coefficient and other.variant == self.variant:
            return
        if not isinstance(other, Coefficient):
            raise VariantMismatchError(f"expected Coefficient, got {type(other).__name__}")
        if self.variant != other.variant:
            raise VariantMismatchError(
                f"coefficient variant mismatch: {self.variant} vs {other.variant}"
            )

    def __add__(self, other: "Coefficient") -> "Coefficient":
        self._check(other)
        return Coefficient._normal(
            self.variant, _KERNELS[self.variant].add(self._payload, other._payload))

    def __neg__(self) -> "Coefficient":
        return Coefficient._normal(
            self.variant, _KERNELS[self.variant].neg(self._payload))

    def __sub__(self, other: "Coefficient") -> "Coefficient":
        return self + (-other)

    def __mul__(self, other: "Coefficient") -> "Coefficient":
        self._check(other)
        return Coefficient._normal(
            self.variant, _KERNELS[self.variant].mul(self._payload, other._payload))

    def __pow__(self, n: int) -> "Coefficient":
        if not isinstance(n, int):
            raise DomainError("exponent must be an integer")
        if n < 0:
            inv = self.inverse()
            return inv ** (-n)
        acc = Coefficient.one(self.variant)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def inverse(self) -> "Coefficient":
        """Multiplicative inverse; defined for nonzero rationals, the integer
        units +/-1, and Laurent monomials with unit coefficient."""
        if self.is_zero():
            raise DomainError("zero has no inverse")
        if self.variant == RATIONAL:
            return Coefficient._normal(RATIONAL, 1 / self._payload)
        if self.variant == INTEGER:
            if self._payload in (1, -1):
                return self
            raise DomainError(f"integer {self._payload} is not invertible")
        if len(self._payload) == 1 and self._payload[0][1] in (1, -1):
            e, c = self._payload[0]
            return Coefficient._normal(LAURENT, ((-e, c),))
        raise DomainError("laurent coefficient is not an invertible monomial")

    # -- comparison / hashing -----------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Coefficient)
            and self.variant == other.variant
            and self._payload == other._payload
        )

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:  # first call: hash the normal form once
            object.__setattr__(self, "_hash", hash((self.variant, self._payload)))
            return self._hash

    # -- printing / parsing -------------------------------------------

    def __repr__(self) -> str:
        return f"Coefficient({self.variant}, {self!s})"

    def __str__(self) -> str:
        if self.variant == INTEGER:
            return str(self._payload)
        if self.variant == RATIONAL:
            return str(self._payload)
        return format_laurent(dict(self._payload))


_set_variant = Coefficient.variant.__set__
_set_payload = Coefficient._payload.__set__


def format_laurent(terms: dict[int, int]) -> str:
    """Canonical Laurent printing: descending exponents, explicit signs."""
    if not terms:
        return "0"
    parts: list[str] = []
    for e in sorted(terms, reverse=True):
        c = terms[e]
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            var = "q" if e == 1 else f"q^{e}"
            body = var if mag == 1 else f"{mag}{var}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)


_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?P<coeff>\d+)?\s*(?P<q>q(\^(?P<exp>-?\d+))?)?",
    re.ASCII)


def parse_laurent(text: str, line: int = 0, column_offset: int = 0) -> Coefficient:
    """Parse the Laurent text syntax into a laurent :class:`Coefficient`."""
    s = text.strip()
    if not s:
        raise ParseError("empty laurent expression", line, column_offset + 1)
    pos = 0
    acc: dict[int, int] = {}
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos or (m.group("coeff") is None and m.group("q") is None):
            raise ParseError(
                f"unexpected token {s[pos:pos + 10]!r} in laurent expression",
                line,
                column_offset + pos + 1,
            )
        sign = m.group("sign")
        if sign is None and not first:
            raise ParseError("missing + or - between terms", line, column_offset + pos + 1)
        c = int(m.group("coeff")) if m.group("coeff") is not None else 1
        if sign == "-":
            c = -c
        if m.group("q") is not None:
            e = int(m.group("exp")) if m.group("exp") is not None else 1
        else:
            e = 0
        acc[e] = acc.get(e, 0) + c
        pos = m.end()
        first = False
    return Coefficient.laurent(acc)
