"""Certified real-root enclosures and full numeric root sets for integer
polynomials, plus the two derived quantities used throughout: the Mahler
measure and the unit-circle census.

Two independent routes to real roots coexist and must stay independent:

* :func:`largest_real_root` is exact.  It isolates the greatest real root
  above a floor by Descartes' rule of signs over the integers and bisection
  on rational endpoints, so the returned enclosure is certified by exact
  sign evaluations.  The witness is polished on scaled integers too and
  rounded once to a dyadic rational of :func:`witness_bits` significant
  bits, which the enclosure's width sets.

* :func:`all_roots` is numeric.  It runs Aberth-Ehrlich simultaneous
  iteration, after an exact squarefree decomposition so that repeated roots
  (the families here genuinely have double roots at -1) are located at full
  accuracy with exact integer multiplicities.  One Gauss-Seidel sweep
  routine, which freezes converged roots, serves both the double-precision
  warm start and the fixed-point integer refinement.  The refinement starts
  at the bits its residual target needs and, while a residual misses,
  carries the roots it has to doubled precision (capped at 1024 bits)
  instead of starting over.  Each approximation is an exact dyadic pair
  with the Newton residual of its last evaluation: the Mahler measure is a
  fixed-point product at the bits of its root set.  No caller picks these
  bits: the accuracy asked for sets them, here and for the witnesses of the
  exact route alike.

The unit-circle census (:func:`count_outside_unit`) takes no root set: it
is exact, by Boyd's reciprocal splitting and Cauchy indices over one signed
remainder routine, whose ``(g, g')`` case is :func:`sturm_chain`.  With
:func:`count_roots_between` that chain is also the tests' independent
oracle for Descartes isolation.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import frexp, inf, isqrt, lcm
from typing import Sequence

from .poly import (
    IntPolynomial,
    cauchy_root_bound,
    poly_gcd,
    pseudo_rem,
    reciprocal,
    squarefree_decomposition,
    squarefree_part,
)

DEFAULT_PREC_BITS = 128
# the least working bits of a root set (see _target_bits)
MIN_PREC_BITS = 53
MAX_PREC_BITS = 1024


class NoRealRootError(ValueError):
    """Raised when a polynomial has no real root above the requested floor."""


class ConvergenceError(RuntimeError):
    """Raised when simultaneous iteration fails even at maximum precision."""


def to_witness(x: Fraction, prec: int = DEFAULT_PREC_BITS) -> Fraction:
    """``x`` rounded once to the nearest dyadic rational with ``prec``
    significant bits, ties to even."""
    if not x:
        return Fraction(0)
    e = _log2(x) - prec  # |x| / 2^e lies in (2^(prec-1), 2^(prec+1))
    num, den = x.numerator << max(-e, 0), x.denominator << max(e, 0)
    if abs(num) >= den << prec:
        e, den = e + 1, den << 1
    return Fraction(round(Fraction(num, den)) << max(e, 0), 1 << max(-e, 0))


def witness_bits(x: Fraction, width: Fraction) -> int:
    """Significant bits for a witness of magnitude up to ``|x|`` in an
    enclosure of ``width``: ``64 + log2|x| - log2 width``, so that rounding
    moves it by under ``2^-60`` of the width, and at least
    :data:`DEFAULT_PREC_BITS`."""
    return max(DEFAULT_PREC_BITS, 64 + _log2(x) - _log2(width))


@dataclass(frozen=True)
class RootEnclosure:
    """An interval known to contain one targeted real root.

    ``certified`` records whether the defining polynomial itself changes sign
    between the exact rational endpoints; the witness is a dyadic rational
    inside the interval, of the significant bits :func:`witness_bits` gives
    for its width (see :func:`to_witness`), and carries no certainty of its
    own.
    """

    lower: Fraction
    upper: Fraction
    witness: Fraction
    certified: bool

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError("enclosure requires lower < upper")
        if not self.lower <= self.witness <= self.upper:
            raise ValueError("witness lies outside its enclosure")

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    @property
    def midpoint(self) -> Fraction:
        return (self.lower + self.upper) / 2


@dataclass(frozen=True)
class UnitCircleCensus:
    """Counts of roots outside / on / inside the unit circle, with
    multiplicity; exact, so ``on_circle`` holds the roots of modulus exactly 1.
    """

    outside: int
    on_circle: int
    inside: int

    @property
    def total(self) -> int:
        return self.outside + self.on_circle + self.inside


@dataclass(frozen=True)
class RootApprox:
    """One root approximation ``real + i imag`` in dyadic rationals, with its
    Newton residual and the exact multiplicity it carries in the input.

    The residual bounds ``|g/g'|`` from above (``inf`` where ``g' = 0``) for
    the squarefree factor ``g`` that the root was located in (against ``f``
    itself a multiple root would give only evaluation noise), taken at the
    root's last evaluation, just before its last correction, so a converged
    iteration overstates the distance.
    """

    real: Fraction
    imag: Fraction
    residual: Fraction | float
    multiplicity: int

    @property
    def value(self) -> complex:
        return complex(self.real, self.imag)


# -- exact counts --------------------------------------------------------------


def _sign_changes(values: Sequence[int]) -> int:
    """Sign changes along ``values``, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _signed_remainders(a: IntPolynomial, b: IntPolynomial) -> list[IntPolynomial]:
    """Signed remainder sequence ``a, b, -rem(a, b), ...`` of coprime
    integer polynomials, ``deg a >= 1`` and ``b != 0``, ending at a constant.
    Remainders are produced by pseudo-division and rescaled to primitive
    integer polynomials; each rescale is by a positive constant (the sign of
    ``lc(b)^delta`` is compensated), so sign variation counts are those of
    the rational sequence.
    """
    chain = [a, b]
    while chain[-1].degree:
        a, b = chain[-2], chain[-1]
        r = pseudo_rem(a, b)
        if r.is_zero():
            raise ArithmeticError("remainder sequence of polynomials with a common factor")
        delta = a.degree - b.degree + 1
        positive_scale = b.leading > 0 or delta % 2 == 0
        r = -r if positive_scale else r
        chain.append(r.primitive_part())
    return chain


def sturm_chain(g: IntPolynomial) -> list[IntPolynomial]:
    """Sturm chain of a squarefree integer polynomial: the signed remainder
    sequence of ``(g, g')``.  The census counts the roots of its trace
    polynomials with it, and the tests check Descartes isolation against it.
    """
    if g.is_zero() or g.degree == 0:
        raise ValueError("sturm chain needs degree >= 1")
    return _signed_remainders(g, g.derivative())


def count_roots_between(chain: Sequence[IntPolynomial], a: Fraction, b: Fraction) -> int:
    """Distinct real roots of ``chain[0]`` in the open interval ``(a, b)``,
    from its :func:`sturm_chain`.

    Both endpoints must be non-roots of ``chain[0]``.
    """
    return _sign_changes([p.sign_at(a) for p in chain]) - _sign_changes([p.sign_at(b) for p in chain])


def _taylor_shift(cs: Sequence[int], a: int) -> list[int]:
    """Ascending coefficients of ``p(t + a)`` from those of ``p(t)``."""
    out = list(cs)
    for i in range(len(out) - 1):
        for j in range(len(out) - 2, i - 1, -1):
            out[j] += a * out[j + 1]
    return out


def _descartes(g: IntPolynomial, lo: Fraction, hi: Fraction) -> int:
    """Sign changes of ``(1 + t)^d g((lo + hi t) / (1 + t))``, ``d = deg g``:
    by Descartes' rule a bound on the roots of ``g`` in ``(lo, hi)``, counted
    with multiplicity, of the same parity, so exact at 0 and 1.  With
    ``lo = a/c`` and ``hi - lo = e/c``, ``c^d g(lo + (hi - lo) x)`` is
    ``h(a + e x)``; reversed and shifted by one it is that polynomial, reversed.
    """
    d = g.degree
    c = lcm(lo.denominator, hi.denominator)
    a, e = int(lo * c), int((hi - lo) * c)
    h = [gi * c ** (d - i) for i, gi in enumerate(g.coeffs)]
    q = [k * e**i for i, k in enumerate(_taylor_shift(h, a))]
    return _sign_changes(_taylor_shift(q[::-1], 1))


# -- exact isolation -----------------------------------------------------------


def _divide_out_rational_root(g: IntPolynomial, r: Fraction) -> IntPolynomial:
    return g.divexact(IntPolynomial([-r.numerator, r.denominator]))


def _log2(x: Fraction) -> int:
    """``log2 |x|`` to within one, for ``x != 0``."""
    return abs(x.numerator).bit_length() - x.denominator.bit_length()


def _polish_witness(g: IntPolynomial, lo: Fraction, hi: Fraction, sign_hi: int):
    """The witness for ``(lo, hi)``: bracketed Newton iteration from the
    midpoint on scaled integers ``k / 2^bits``, reported at the ``prec``
    bits :func:`witness_bits` gives for the enclosure.

    ``g`` has one simple root in ``(lo, hi)`` and the exact sign ``sign_hi``
    at ``hi``.  ``bits`` gives the bracket several units and ``k`` at least
    ``prec + 16`` significant bits, and grows as ``k`` falls towards 0, so a
    tiny root keeps full relative precision.  One truncated Horner pass gives
    ``p`` and ``p'``, as in :func:`_factor_roots`.  The bracket (the enclosure
    rounded to units) keeps the side where ``g`` changes sign; a Newton step,
    rounded to a unit, that leaves it becomes the bracket's midpoint.  Steps
    stop below ``2^(8-prec) |k|`` or at a cap that lets bisection alone reach
    ``2^-(prec+16)``.  Only the witness depends on this, not the certificate.
    """
    width, top = hi - lo, max(abs(lo), abs(hi))
    prec = witness_bits(top, width)
    cap = prec + 16 + max(0, _log2(width) + 1)
    bits = max(prec + 16 - _log2(top), 4 - _log2(width))
    a, b = round(lo * (1 << bits)), round(hi * (1 << bits))
    k = (a + b) >> 1
    for _ in range(cap):
        shift = max(0, prec + 16 - abs(k).bit_length())
        k, a, b, bits = k << shift, a << shift, b << shift, bits + shift
        p = dp = 0
        for c in reversed(g.coeffs):
            dp = ((dp * k) >> bits) + p
            p = ((p * k) >> bits) + (c << bits)
        if not p:
            break
        a, b = (a, k) if (p > 0) == (sign_hi > 0) else (k, b)
        step = ((p << bits + 1) + dp) // (dp << 1) if dp else k - (a + b) // 2
        if not a <= k - step <= b:
            step = k - (a + b) // 2
        k -= step
        if abs(step) << (prec - 8) <= abs(k):
            break
    return to_witness(Fraction(k, 1 << bits), prec)


def largest_real_root(f: IntPolynomial, floor: Fraction | int | None, tol: float) -> RootEnclosure:
    """Certified enclosure of the greatest real root of ``f`` strictly above
    ``floor`` (or the greatest real root overall when ``floor`` is None).

    Descartes counts (:func:`_descartes`) on dyadic subintervals of
    ``(floor, B)``, with ``B`` the Cauchy bound ``1 + max|c_i/c_d|``, isolate
    the root; the squarefree part of ``f`` is taken only when the first count
    exceeds 1.  Sign bisection with rational endpoints then narrows it to the
    first dyadic subinterval of width <= ``tol`` whose lower endpoint is not
    a root of ``f``, or to ``root +/- delta`` when a midpoint is the root.
    When a floor is given the enclosure lies strictly above it: while the
    lower endpoint is the floor, ``tol`` is divided by 100 (in floats) and
    bisection goes on.  ``certified`` is True when ``f`` itself changes sign
    across the endpoints under exact evaluation.  The witness has the bits
    :func:`witness_bits` gives for the enclosure, so any ``tol`` has one.

    Raises :class:`NoRealRootError` when there is no real root above the
    floor.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no roots")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if f.degree == 0:
        raise NoRealRootError("constant polynomial has no roots")
    tolf = Fraction(tol)
    bound = cauchy_root_bound(f)
    floor_frac = Fraction(floor) if floor is not None else -bound
    if floor_frac >= bound:
        raise NoRealRootError(f"no real root above {floor_frac} (Cauchy bound {bound})")

    lo, hi = floor_frac, bound
    sqf = f
    count = _descartes(f, lo, hi)
    if count > 1:  # a multiple root counts at least twice, so go squarefree
        sqf = squarefree_part(f)
        count = _descartes(sqf, lo, hi)
    # Vincent-Collins-Akritas bisection, upper halves first: the first
    # interval with one sign change holds the greatest root.  A rational root
    # r met at a midpoint is divided out of g and stacked as (r, r).
    g, stack, pinned = sqf, [], None
    while count != 1:
        if count > 1:
            mid = (lo + hi) / 2
            stack.append((lo, mid))
            if g.sign_at(mid) == 0:
                g, pinned = _divide_out_rational_root(g, mid), mid
                stack.append((mid, mid))
            stack.append((mid, hi))
        if not stack:
            raise NoRealRootError(f"no real root above {floor_frac}")
        lo, hi = stack.pop()
        count = 1 if lo == hi else _descartes(g, lo, hi)

    # g has one simple root in (lo, hi) and none at hi, or lo == hi is the
    # root.  The rational root met last (pinned) or the floor may sit at lo,
    # and neither may bound the enclosure.
    sign_hi = g.sign_at(hi)
    while lo < hi:
        if hi - lo > tolf or lo == pinned:
            mid = (lo + hi) / 2
            s = g.sign_at(mid)
            if s == sign_hi:
                hi = mid
            elif s:
                lo = mid
            else:
                lo = hi = mid
        elif lo == floor:  # never for floor None
            tolf = Fraction(float(tolf) / 100) or tolf / 100
        else:
            certified = f.sign_at(lo) * f.sign_at(hi) < 0
            return RootEnclosure(lo, hi, _polish_witness(g, lo, hi, sign_hi), certified)

    # Enclose the rational root: halve delta until no other root of sqf is near.
    root, delta = lo, tolf / 2
    if root - floor_frac < tolf:
        delta = (root - floor_frac) / 4
    rest = _divide_out_rational_root(sqf, root)
    while True:
        lo, hi = root - delta, root + delta
        if _descartes(rest, lo, hi) == 0 and sqf.sign_at(lo) * sqf.sign_at(hi) < 0:
            certified = f.sign_at(lo) * f.sign_at(hi) < 0
            return RootEnclosure(lo, hi, to_witness(root, witness_bits(root, 2 * delta)), certified)
        delta /= 2


# -- simultaneous iteration --------------------------------------------------


def _aberth_excess(w: complex, s: complex) -> complex:
    """``w / (1 - w s) - w``: the Aberth correction minus the Newton one."""
    q = w * s
    return w * q / (1 - q) if q != 1 else 0j


def _aberth(step, zs: list[complex], tiny: float, iters: int) -> None:
    """Gauss-Seidel Aberth-Ehrlich sweeps over double copies ``zs`` of the roots.

    ``step(i, s)`` gets ``s = sum 1/(z_i - z_j)`` in doubles, corrects root
    ``i`` in its stage's arithmetic and returns its new double copy and the
    correction's size relative to ``1 + |z|``; below ``tiny`` it is frozen.
    """
    live = list(range(len(zs)))
    for _ in range(iters):
        for i in list(live):
            z = zs[i]
            zs[i], size = step(i, sum([1 / (z - other) for other in zs if other != z]))
            if size < tiny:
                live.remove(i)


def _to_fixed(x: float, bits: int) -> int:
    """``floor(x * 2^bits)``, exact for every finite double."""
    num, den = x.as_integer_ratio()
    return (num << bits) // den


def _target_bits(target: float) -> int:
    """Working bits for a residual or accuracy ``target``: 79 for 1e-18,
    96 for 1e-23, clamped to ``MIN_PREC_BITS..MAX_PREC_BITS``."""
    return min(max(20 - frexp(target)[1], MIN_PREC_BITS), MAX_PREC_BITS)


def _factor_roots(factor: IntPolynomial, precision: float):
    """Roots ``(re, im, residual)`` of one squarefree factor, each residual
    below ``precision``: a double warm start on the circle of radius
    ``|c0/cd|^(1/d)``, then a refinement at ``(a + bi) / 2^(prec + 32)`` with
    integer ``a, b`` and ``prec`` the bits ``precision`` needs (one exact
    Horner pass for ``p`` and ``p'``; with integer coefficients its error is
    below a ``prec``-bit floating Horner bound).  While a residual misses,
    ``a, b`` are shifted left and refined on at doubled ``prec``, up to a
    last pass at :data:`MAX_PREC_BITS`."""
    d = factor.degree
    coeffs = factor.coeffs
    scale = max(abs(c) for c in coeffs)
    cs = [float(Fraction(c, scale)) for c in coeffs]
    radius = (abs(coeffs[0]) / abs(coeffs[-1])) ** (1 / d) if coeffs[0] else (
        0.5 + 0.7 * max(abs(c / cs[-1]) for c in cs[:-1]))
    zs = [radius * cmath.exp(2j * cmath.pi * (k + 0.354) / d + 0.13j) for k in range(d)]

    def warm(i: int, s: complex):
        z = zs[i]
        p = dp = 0j
        for c in reversed(cs):
            dp = dp * z + p
            p = p * z + c
        if dp == 0:
            return (z, 0.0) if p == 0 else (z + 1e-13, 1.0)
        w = p / dp
        delta = w + _aberth_excess(w, s)
        return z - delta, abs(delta) / (1 + abs(z))

    _aberth(warm, zs, 1e-13, 240)
    if not all(map(cmath.isfinite, zs)):
        raise ConvergenceError("double-precision warm start diverged")

    prec = _target_bits(precision)
    bits = prec + 32
    one = 1 << bits
    fixed = [[_to_fixed(z.real, bits), _to_fixed(z.imag, bits)] for z in zs]
    newton: list = [None] * d

    def refine(i: int, s: complex):
        a, b = fixed[i]
        pr = pi = dr = di = 0
        for c in reversed(coeffs):
            dr, di = ((dr * a - di * b) >> bits) + pr, ((dr * b + di * a) >> bits) + pi
            pr, pi = ((pr * a - pi * b) >> bits) + (c << bits), (pr * b + pi * a) >> bits
        den = dr * dr + di * di
        if den == 0:  # an exact root if p vanishes too, else an unusable one
            newton[i] = (0, 0) if pr == pi == 0 else None
            return zs[i], 0.0
        wr, wi = ((pr * dr + pi * di) << bits) // den, ((pi * dr - pr * di) << bits) // den
        newton[i] = (wr, wi)
        w = complex(wr / one, wi / one)
        excess = _aberth_excess(w, s)
        fixed[i] = [a - wr - _to_fixed(excess.real, bits), b - wi - _to_fixed(excess.imag, bits)]
        return complex(fixed[i][0] / one, fixed[i][1] / one), abs(w + excess) / (1 + abs(zs[i]))

    while True:
        _aberth(refine, zs, 2.0 ** (16 - prec), 120)
        residuals = [inf if w is None else Fraction(isqrt(w[0] ** 2 + w[1] ** 2) + 1, one) for w in newton]
        if all(r < precision for r in residuals):
            return [(Fraction(a, one), Fraction(b, one), r) for (a, b), r in zip(fixed, residuals)]
        if prec >= MAX_PREC_BITS:
            raise ConvergenceError(f"residuals above {precision} even at {MAX_PREC_BITS} bits")
        grow = min(2 * prec, MAX_PREC_BITS) - prec
        prec, bits, one = prec + grow, bits + grow, one << grow
        fixed = [[a << grow, b << grow] for a, b in fixed]


def all_roots(f: IntPolynomial, precision: float = 1e-20) -> list[RootApprox]:
    """All complex roots of ``f`` with residual bounds and multiplicities.

    The polynomial is first split into exact squarefree factors so that the
    iteration only ever sees simple roots; each located root is emitted once
    per unit of multiplicity, so the list has exactly ``deg f`` entries, in
    no specified order.
    Each factor is refined from the working bits ``precision`` needs
    (``20 - log2 precision``, 79 for 1e-18), raising the precision of the
    roots it has (up to 1024 bits) until every Newton residual (see
    :class:`RootApprox`) is below ``precision``; failure at the cap raises
    :class:`ConvergenceError`.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no roots")
    if f.degree is None or f.degree < 1:
        raise ValueError("all_roots needs degree >= 1")
    if precision <= 0:
        raise ValueError("precision must be positive")
    return [RootApprox(real, imag, residual, mult)
            for factor, mult in squarefree_decomposition(f)
            for real, imag, residual in _factor_roots(factor, precision)
            for _ in range(mult)]


# -- derived quantities ------------------------------------------------------


def mahler_measure(f: IntPolynomial, tol: float = 1e-9) -> Fraction:
    """``|lc(f)| * prod max(1, |z|)`` over all roots, as a dyadic rational
    (:func:`to_witness`) of the significant bits its root set starts at.

    The residual target handed to :func:`all_roots` is several orders below
    ``tol`` divided by the degree, so the propagated error of the product is
    below ``tol`` with a wide margin, and at least ``2^-1024``, the finest
    that the cap of 1024 bits (with 32 guard bits) meets.  The moduli ``|z| > 1`` are multiplied
    in fixed point, ``isqrt`` of ``|z|^2`` at 32 fractional bits beyond the
    bits that target needs, and the product is rounded to those bits.
    """
    if f.is_zero():
        raise ValueError("Mahler measure of the zero polynomial is undefined")
    if tol <= 0:
        raise ValueError("tol must be positive")
    target = max(min(1e-18, tol * 1e-4 / (f.degree + 1)), 2.0**-MAX_PREC_BITS)
    prec = _target_bits(target)
    one = 1 << (prec + 32)
    measure = abs(f.leading) * one
    for r in all_roots(f, target) if f.degree else []:
        square = r.real**2 + r.imag**2
        if square > 1:
            measure = measure * isqrt(square.numerator * one * one // square.denominator) // one
    return to_witness(Fraction(measure, one), prec)


def _circle_pairs(g: IntPolynomial) -> tuple[int, int]:
    """``(on, off)`` for a self-reciprocal ``g``: its roots on the circle and
    its pairs ``z, 1/z`` off it.  Past the factors ``t -/+ 1``, ``g`` is
    ``t^k T(t + 1/t)``, ``T = c_k + sum c_(k+j) V_j``, ``V_j(t + 1/t) = t^j + t^-j``:
    a root of ``T`` in ``(-2, 2)`` is a pair on the circle, any other a pair off it.
    """
    on = 0
    for root in (1, -1):
        while g.sign_at(root) == 0:  # synthetic division by t - root
            g, on = IntPolynomial(list(accumulate(g.coeffs[:0:-1], lambda q, c: c + root * q))[::-1]), on + 1
    k = g.degree // 2
    trace, v, w = IntPolynomial([g.coeffs[k]]), IntPolynomial([2]), IntPolynomial([0, 1])
    for c in g.coeffs[k + 1:]:
        trace, v, w = trace + w * c, w, w.shift(1) - v
    inner = sum(mult * count_roots_between(sturm_chain(factor), Fraction(-2), Fraction(2))
                for factor, mult in squarefree_decomposition(trace))
    return on + 2 * inner, k - inner


def _inside_count(h: IntPolynomial) -> int:
    """Roots inside the circle of an ``h`` of degree ``e`` with none on it and
    no pair ``z, 1/z``.  ``q(w) = (1 - w)^e h((1 + w) / (1 - w))`` is ``h(u - 1)``,
    then ``v^e`` times that at ``u = 2/v``, then at ``v = 1 - w``.  With
    ``q(iy) = A(y) + i B(y)``, ``2 inside - e`` is the Cauchy index of
    ``A/B`` for odd ``e`` and of ``-B/A`` for even ``e``, read off the signed
    remainder sequence of the denominator and the numerator.
    """
    e = h.degree
    p = _taylor_shift([c << j for j, c in enumerate(_taylor_shift(h.coeffs, -1))][::-1], 1)  # q(-w)
    a = IntPolynomial([c * (1, 0, -1, 0)[j % 4] for j, c in enumerate(p)])
    b = IntPolynomial([c * (0, -1, 0, 1)[j % 4] for j, c in enumerate(p)])
    chain = _signed_remainders(*((b, a) if e % 2 else (a, -b)))
    twice = (_sign_changes([r.leading * (-1) ** r.degree for r in chain])
             - _sign_changes([r.leading for r in chain]))  # variations at -inf less at +inf
    if (twice + e) % 2 or abs(twice) > e:
        raise ArithmeticError("Cauchy index disagrees with the degree")
    return (twice + e) // 2


def count_outside_unit(f: IntPolynomial, tol: float = 1e-9) -> UnitCircleCensus:
    """Exact census of the roots of ``f`` outside, on and inside the unit
    circle, with multiplicity, in integer arithmetic; ``tol`` is ignored.
    Roots at 0 are inside; ``g = gcd(f, f_*)`` holds every other root on the
    circle and every pair ``z, 1/z``, and ``h = f / g`` the rest.
    """
    if f.is_zero():
        raise ValueError("census of the zero polynomial is undefined")
    zeros = next(i for i, c in enumerate(f.coeffs) if c)
    f = IntPolynomial(f.coeffs[zeros:])
    g = poly_gcd(f, reciprocal(f))
    h = f.divexact(g)
    on, pairs = _circle_pairs(g)
    inside = _inside_count(h) if h.degree else 0
    census = UnitCircleCensus(pairs + h.degree - inside, on, zeros + pairs + inside)
    if census.total != f.degree + zeros:
        raise ArithmeticError("census does not account for every root")
    return census
