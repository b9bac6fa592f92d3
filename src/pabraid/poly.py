"""Exact arithmetic for integer-coefficient polynomials.

Coefficients are stored densely in ascending order: index ``i`` holds the
coefficient of ``t**i``, so the constant term is always ``coeffs[0]``.
The zero polynomial is the empty tuple and its degree is ``None`` (a real
sentinel, never an integer).  Everything in this module is exact; floating
point enters only through :meth:`IntPolynomial.__call__` when the caller
evaluates at a float or complex point.

Besides the ring operations, this module provides the reciprocal
``f_*(t) = t^deg(f) * f(1/t)``, the shifted combinations
``t^n * P +/- P_*`` produced from a monic base polynomial, and the
reciprocal / anti-reciprocal classification those combinations satisfy.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

#: Largest integer that survives a round trip through a 64-bit JSON float.
_JSON_SAFE_INT = 2**53 - 1

Exact = Union[int, Fraction]


class IntPolynomial:
    """A dense univariate polynomial over the integers.

    >>> f = IntPolynomial([-2, -1, 1])      # t^2 - t - 2
    >>> f.degree, f(2), f(Fraction(1, 2))
    (2, 0, Fraction(-9, 4))
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficient expected, got {type(c).__name__}")
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls([1])

    @classmethod
    def from_text(cls, text: str) -> "IntPolynomial":
        """Parse the comma-separated ascending coefficient format, e.g. ``"-2,-1,1"``."""
        body = text.replace("−", "-").strip()
        if not body:
            return cls()
        return cls([int(part.strip()) for part in body.split(",")])

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> int | None:
        """Degree, or ``None`` for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def constant(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)!r})"

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + -other

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __mul__(self, other: Union["IntPolynomial", int]) -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def shift(self, power: int) -> "IntPolynomial":
        """Multiply by ``t**power``."""
        if power < 0:
            raise ValueError("shift power must be nonnegative")
        return IntPolynomial([0] * power + list(self.coeffs))

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    # -- evaluation ----------------------------------------------------

    def __call__(self, x):
        """Horner evaluation.  Exact for int/Fraction arguments, and follows the
        arithmetic of whatever numeric type ``x`` is otherwise (float, complex)."""
        acc = 0 * x  # zero of the argument's type
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def sign_at(self, x: Exact) -> int:
        """Exact sign of ``self(x)`` at a rational point, via pure integer
        arithmetic (no Fraction normalisation in the inner loop)."""
        num, den = x.numerator, x.denominator
        acc = 0
        dp = 1
        for c in reversed(self.coeffs):
            acc = acc * num + c * dp
            dp *= den
        return (acc > 0) - (acc < 0)

    # -- content and exact division -------------------------------------

    def content(self) -> int:
        """Positive gcd of the coefficients (0 for the zero polynomial)."""
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive_part(self) -> "IntPolynomial":
        """Divide out the content, keeping the sign of the leading coefficient."""
        c = self.content()
        if c <= 1:
            return self
        return IntPolynomial([a // c for a in self.coeffs])

    def divexact(self, divisor: "IntPolynomial") -> "IntPolynomial":
        """Exact quotient ``self / divisor``; raises if the division leaves a
        remainder or a non-integer quotient."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return IntPolynomial()
        if divisor.degree > self.degree:
            raise ValueError("not divisible: divisor degree exceeds dividend degree")
        rem = [Fraction(c) for c in self.coeffs]
        dcs = divisor.coeffs
        dlead = Fraction(dcs[-1])
        qdeg = len(rem) - len(dcs)
        quo = [Fraction(0)] * (qdeg + 1)
        for k in range(qdeg, -1, -1):
            q = rem[k + len(dcs) - 1] / dlead
            quo[k] = q
            if q:
                for j, d in enumerate(dcs):
                    rem[k + j] -= q * d
        if any(rem):
            raise ValueError("not divisible: nonzero remainder")
        if any(q.denominator != 1 for q in quo):
            raise ValueError("not divisible over the integers")
        return IntPolynomial([int(q) for q in quo])

    # -- serialization ---------------------------------------------------

    def to_json_data(self) -> list:
        return [c if abs(c) <= _JSON_SAFE_INT else str(c) for c in self.coeffs]


def reciprocal(f: IntPolynomial) -> IntPolynomial:
    """The degree-reversal ``f_*(t) = t^d f(1/t)`` with ``d = deg f``.

    Involutive on polynomials with nonzero constant term.
    """
    if f.is_zero():
        raise ValueError("reciprocal of the zero polynomial is undefined")
    return IntPolynomial(list(reversed(f.coeffs)))


class Sign(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"

    @property
    def factor(self) -> int:
        return 1 if self is Sign.PLUS else -1


@dataclass(frozen=True)
class SalemBoydSpec:
    """A monic base polynomial, a shift exponent and a sign choosing between
    ``t^n P + P_*`` and ``t^n P - P_*``."""

    base: IntPolynomial
    exponent: int
    sign: Sign

    def __post_init__(self):
        if not self.base.is_monic():
            raise ValueError("base polynomial must be monic")
        if self.exponent < 0:
            raise ValueError("exponent must be nonnegative")


def salem_boyd(spec: SalemBoydSpec) -> IntPolynomial:
    """Return ``t^n * P +/- P_*`` for the given spec.

    The result is always reciprocal or anti-reciprocal (see
    :func:`symmetry_class`), because reversing ``t^n P +/- P_*`` of degree
    ``n + d`` reproduces it up to the chosen sign.
    """
    shifted = spec.base.shift(spec.exponent)
    rev = reciprocal(spec.base)
    return shifted + rev if spec.sign is Sign.PLUS else shifted - rev


class SymmetryClass(enum.Enum):
    RECIPROCAL = "reciprocal"
    ANTI_RECIPROCAL = "anti_reciprocal"
    NEITHER = "neither"


def symmetry_class(f: IntPolynomial) -> SymmetryClass:
    """Compare ``f`` exactly against ``+f_*`` and ``-f_*``."""
    if f.is_zero():
        raise ValueError("symmetry class of the zero polynomial is undefined")
    rev = reciprocal(f)
    if f == rev:
        return SymmetryClass.RECIPROCAL
    if f == -rev:
        return SymmetryClass.ANTI_RECIPROCAL
    return SymmetryClass.NEITHER


# -- gcd, squarefree machinery --------------------------------------------


def pseudo_rem(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Pseudo-remainder: ``lc(b)^(deg a - deg b + 1) * a  mod  b`` over Z."""
    if b.is_zero():
        raise ZeroDivisionError("pseudo-remainder by zero")
    da, db = a.degree, b.degree
    if da is None or da < db:
        return a
    r = list(a.coeffs)
    lb = b.coeffs[-1]
    steps = da - db + 1
    for _ in range(steps):
        if len(r) - 1 < db or not r:
            # degree already dropped below deg b; keep multiplying so the
            # overall scale factor stays lc(b)^steps
            r = [lb * c for c in r]
            continue
        lead = r[-1]
        r = [lb * c for c in r[:-1]]
        off = len(r) - db
        for j in range(db):
            r[off + j] -= lead * b.coeffs[j]
        while r and r[-1] == 0:
            r.pop()
    return IntPolynomial(r)


def poly_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Primitive gcd over Z via the primitive pseudo-remainder sequence.

    The result is primitive with positive leading coefficient (or zero when
    both inputs are zero).
    """
    p, q = a.primitive_part(), b.primitive_part()
    while not q.is_zero():
        r = pseudo_rem(p, q).primitive_part()
        p, q = q, r
    if p.is_zero():
        return p
    p = p.primitive_part()
    return -p if p.leading < 0 else p


def _squarefree_step(p: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
    """For a primitive ``p`` of degree >= 1: ``g = gcd(p, p')`` and the
    squarefree part ``p / g``, primitive with positive leading coefficient."""
    g = poly_gcd(p, p.derivative())
    sf = (p.divexact(g) if g.degree else p).primitive_part()
    return g, (-sf if sf.leading < 0 else sf)


def squarefree_part(f: IntPolynomial) -> IntPolynomial:
    """Primitive polynomial with the same roots as ``f``, all simple."""
    if f.is_zero():
        raise ValueError("squarefree part of the zero polynomial is undefined")
    p = f.primitive_part()
    if p.degree == 0:
        return IntPolynomial.one()
    return _squarefree_step(p)[1]


def squarefree_decomposition(f: IntPolynomial) -> list[tuple[IntPolynomial, int]]:
    """Squarefree decomposition ``f = c * prod g_k^k`` over Z.

    Returns the primitive, positive-leading factors ``g_k`` of degree >= 1
    together with their multiplicities; the constant is dropped.
    """
    if f.is_zero():
        raise ValueError("squarefree decomposition of the zero polynomial is undefined")
    t = f.primitive_part()
    if t.degree == 0:
        return []
    # chain[i] = product of the distinct irreducible factors of multiplicity > i
    chain: list[IntPolynomial] = []
    while True:
        t, sf = _squarefree_step(t)
        chain.append(sf)
        if t.degree == 0:
            break
    out = []
    for i, cur in enumerate(chain):
        nxt = chain[i + 1] if i + 1 < len(chain) else IntPolynomial.one()
        fac = cur.divexact(nxt)
        if fac.degree is not None and fac.degree >= 1:
            out.append((fac, i + 1))
    return out


def cauchy_root_bound(f: IntPolynomial) -> Fraction:
    """The bound ``1 + max |c_i| / |c_d|``; every root has strictly smaller modulus."""
    if f.is_zero() or f.degree == 0:
        raise ValueError("root bound needs degree >= 1")
    lead = abs(f.leading)
    biggest = max(abs(c) for c in f.coeffs[:-1])
    return 1 + Fraction(biggest, lead)
