"""Certified real-root enclosures and full numeric root sets for integer
polynomials, plus the two derived quantities used throughout: the Mahler
measure and the unit-circle census.

Two independent routes coexist deliberately and must stay independent:

* :func:`largest_real_root` is exact.  It isolates the greatest real root
  above a floor with a Sturm chain over the integers and bisection on
  rational endpoints, so the returned enclosure is certified by exact sign
  evaluations.  Floating point only ever touches the reported witness.

* :func:`all_roots` is numeric.  It runs Aberth-Ehrlich simultaneous
  iteration, after an exact squarefree decomposition so that repeated roots
  (the families here genuinely have double roots at -1) are located at full
  accuracy with exact integer multiplicities.  One sweep routine serves both
  the double-precision warm start and the arbitrary-precision refinement.
  Each approximation carries a Newton residual.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from mpmath import mp

from .poly import (
    IntPolynomial,
    cauchy_root_bound,
    pseudo_rem,
    squarefree_decomposition,
    squarefree_part,
)

DEFAULT_PREC_BITS = 128
_MAX_PREC_BITS = 1024


class NoRealRootError(ValueError):
    """Raised when a polynomial has no real root above the requested floor."""


class ConvergenceError(RuntimeError):
    """Raised when simultaneous iteration fails even at maximum precision."""


def to_witness(x: Fraction, prec: int = DEFAULT_PREC_BITS):
    """Round an exact rational to an mpf at the given precision."""
    with mp.workprec(prec):
        return mp.mpf(x.numerator) / x.denominator


@dataclass(frozen=True)
class RootEnclosure:
    """An interval known to contain one targeted real root.

    ``certified`` records whether the defining polynomial itself changes sign
    between the exact rational endpoints; the witness is a high-precision
    approximation inside the interval and carries no certainty of its own.
    """

    lower: Fraction
    upper: Fraction
    witness: object  # mpmath.mpf
    certified: bool

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError("enclosure requires lower < upper")

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    @property
    def midpoint(self) -> Fraction:
        return (self.lower + self.upper) / 2


@dataclass(frozen=True)
class UnitCircleCensus:
    """Counts of roots outside / on / inside the unit circle at tolerance ``tol``.

    Roots within ``tol`` of the circle are reported separately in
    ``on_circle`` and never folded silently into the other buckets.
    """

    outside: int
    on_circle: int
    inside: int
    tol: float

    @property
    def total(self) -> int:
        return self.outside + self.on_circle + self.inside


@dataclass(frozen=True)
class RootApprox:
    """One root approximation with its Newton residual and the exact
    multiplicity it carries in the input polynomial.

    The residual is ``|g(z)/g'(z)|`` for the squarefree factor ``g`` that
    the root was located in; for a simple root this is the classical
    ``|f(z)/f'(z)|`` up to the smooth cofactor, and for a multiple root it
    is the quantity that actually bounds the distance to the true root
    (the ratio against ``f`` itself degenerates to evaluation noise there).
    """

    value: object  # mpmath.mpc
    residual: object  # mpmath.mpf
    multiplicity: int


# -- Sturm machinery --------------------------------------------------------


def sturm_chain(g: IntPolynomial) -> list[IntPolynomial]:
    """Sturm chain of a squarefree integer polynomial.

    Remainders are produced by pseudo-division and rescaled to primitive
    integer polynomials; each rescale is by a positive constant (the sign of
    ``lc(b)^delta`` is compensated), so sign variation counts are those of
    the rational Sturm sequence.
    """
    if g.is_zero() or g.degree == 0:
        raise ValueError("sturm chain needs degree >= 1")
    chain = [g, g.derivative()]
    while chain[-1].degree is not None and chain[-1].degree >= 1:
        a, b = chain[-2], chain[-1]
        r = pseudo_rem(a, b)
        if r.is_zero():
            raise ArithmeticError("polynomial was not squarefree")
        delta = a.degree - b.degree + 1
        positive_scale = b.leading > 0 or delta % 2 == 0
        r = -r if positive_scale else r
        chain.append(r.primitive_part())
    return chain


def _variations(chain: Sequence[IntPolynomial], x: Fraction) -> int:
    signs = [s for s in (p.sign_at(x) for p in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_between(chain: Sequence[IntPolynomial], a: Fraction, b: Fraction) -> int:
    """Distinct real roots of ``chain[0]`` in the open interval ``(a, b)``.

    Both endpoints must be non-roots of ``chain[0]``.
    """
    return _variations(chain, a) - _variations(chain, b)


def _divide_out_rational_root(g: IntPolynomial, r: Fraction) -> IntPolynomial:
    return g.divexact(IntPolynomial([-r.numerator, r.denominator]))


def _polish_witness(f: IntPolynomial, lo: Fraction, hi: Fraction, prec: int):
    """Newton refinement of the enclosure midpoint, reported at ``prec`` bits.

    Only the printed witness depends on this; the certificate is the exact
    interval.  If Newton leaves the interval the midpoint is returned.
    """
    with mp.workprec(prec + 16):
        lo_f = to_witness(lo, prec + 16)
        hi_f = to_witness(hi, prec + 16)
        x = (lo_f + hi_f) / 2
        deriv = f.derivative()
        eps = mp.mpf(2) ** (8 - prec)
        for _ in range(80):
            fx = f(x)
            dfx = deriv(x)
            if dfx == 0:
                break
            step = fx / dfx
            nxt = x - step
            if not (lo_f <= nxt <= hi_f):
                break
            x = nxt
            if abs(step) <= eps * (1 + abs(x)):
                break
        with mp.workprec(prec):
            return +x


def largest_real_root(
    f: IntPolynomial,
    floor: Fraction | int | None,
    tol: float,
    prec: int = DEFAULT_PREC_BITS,
) -> RootEnclosure:
    """Certified enclosure of the greatest real root of ``f`` strictly above
    ``floor`` (or the greatest real root overall when ``floor`` is None).

    The root is isolated by Sturm counts on the squarefree part, bracketed
    inside ``[floor, B]`` with ``B`` the Cauchy bound ``1 + max|c_i/c_d|``,
    and narrowed to width <= ``tol`` by bisection with rational endpoints.
    ``certified`` is True when ``f`` itself changes sign across the final
    endpoints under exact evaluation.

    Raises :class:`NoRealRootError` when the Sturm count above the floor is
    zero.
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

    g = squarefree_part(f)
    while g.sign_at(floor_frac) == 0:
        g = _divide_out_rational_root(g, floor_frac)
        if g.degree is None or g.degree == 0:
            raise NoRealRootError(f"no real root above {floor_frac}")
    chain = sturm_chain(g)
    total = count_roots_between(chain, floor_frac, bound)
    if total <= 0:
        raise NoRealRootError(f"no real root above {floor_frac}")

    lo, hi = floor_frac, bound
    above_lo = total
    # Sturm phase: shrink (lo, hi] until it contains exactly the greatest root
    # and lo is not itself a root.
    for _ in range(20000):
        if above_lo == 1 and g.sign_at(lo) != 0:
            break
        mid = (lo + hi) / 2
        if g.sign_at(mid) == 0:
            reduced = _divide_out_rational_root(g, mid)
            above_mid = 0
            if reduced.degree is not None and reduced.degree >= 1:
                above_mid = count_roots_between(sturm_chain(reduced), mid, bound)
            if above_mid == 0:
                return _exact_root_enclosure(f, g, reduced, mid, floor_frac, tolf, prec)
            lo, above_lo = mid, above_mid
        else:
            above_mid = count_roots_between(chain, mid, bound)
            if above_mid == 0:
                hi = mid
            else:
                lo, above_lo = mid, above_mid
    else:
        raise ArithmeticError("root isolation did not terminate")

    # Sign phase: one simple root of g in (lo, hi), so plain sign bisection.
    sign_lo = g.sign_at(lo)
    while hi - lo > tolf:
        mid = (lo + hi) / 2
        s = g.sign_at(mid)
        if s == 0:
            reduced = _divide_out_rational_root(g, mid)
            return _exact_root_enclosure(f, g, reduced, mid, floor_frac, tolf, prec)
        if s == sign_lo:
            lo = mid
        else:
            hi = mid
    certified = f.sign_at(lo) * f.sign_at(hi) < 0
    return RootEnclosure(lo, hi, _polish_witness(f, lo, hi, prec), certified)


def _exact_root_enclosure(
    f: IntPolynomial,
    g: IntPolynomial,
    g_reduced: IntPolynomial,
    root: Fraction,
    floor_frac: Fraction,
    tolf: Fraction,
    prec: int,
) -> RootEnclosure:
    """Enclosure construction when bisection lands exactly on a rational root."""
    sibling_chain = None
    if g_reduced.degree is not None and g_reduced.degree >= 1:
        sibling_chain = sturm_chain(g_reduced)
    delta = tolf / 2
    if root - floor_frac < delta * 2 and root - floor_frac > 0:
        delta = (root - floor_frac) / 4
    for _ in range(200):
        lo, hi = root - delta, root + delta
        clear = True
        if sibling_chain is not None and count_roots_between(sibling_chain, lo, hi) > 0:
            clear = False
        if clear and g.sign_at(lo) * g.sign_at(hi) < 0:
            certified = f.sign_at(lo) * f.sign_at(hi) < 0
            return RootEnclosure(lo, hi, to_witness(root, prec), certified)
        delta /= 2
    raise ArithmeticError("could not certify an interval around an exact rational root")


# -- simultaneous iteration --------------------------------------------------


def _horner(coeffs: Sequence, z):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _aberth(evaluate, zs: list, tiny, iters: int) -> list:
    """Jacobi-style Aberth-Ehrlich sweeps in the arithmetic of ``zs``.

    ``evaluate(z)`` returns the polynomial and its derivative at ``z``.  The
    sweeps stop once every correction is below ``tiny`` relative to
    ``1 + |z|``, or after ``iters`` sweeps.
    """
    for _ in range(iters):
        news = []
        moved = False
        for i, z in enumerate(zs):
            p, dp = evaluate(z)
            if dp == 0:
                news.append(z if p == 0 else z + tiny)
                continue
            w = p / dp
            s = 0
            for j, other in enumerate(zs):
                if j != i:
                    diff = z - other
                    s += 1 / (diff if diff != 0 else tiny)
            denom = 1 - w * s
            delta = w / denom if denom != 0 else w
            news.append(z - delta)
            if abs(delta) / (1 + abs(z)) >= tiny:
                moved = True
        zs = news
        if not moved:
            break
    return zs


def _factor_roots(factor: IntPolynomial, prec: int):
    """Roots of one squarefree factor at ``prec`` bits: a double-precision
    warm start from perturbed-circle points, then refinement at ``prec``."""
    d = factor.degree
    with mp.workprec(prec):
        if d == 1:
            c0, c1 = factor.coeffs
            return [mp.mpc(mp.mpf(-c0) / c1)]
        if d == 2:
            c0, c1, c2 = factor.coeffs
            disc = mp.mpc(c1 * c1 - 4 * c2 * c0)
            sq = mp.sqrt(disc)
            # the sign choice that avoids cancellation
            q = -(mp.mpc(c1) + sq) / 2 if mp.re(sq) * c1 >= 0 else -(mp.mpc(c1) - sq) / 2
            r1 = q / c2
            r2 = mp.mpc(c0) / q if q != 0 else mp.mpc(0)
            return [r1, r2]
    scale = max(abs(c) for c in factor.coeffs)
    cs = [float(Fraction(c, scale)) for c in factor.coeffs]
    dcs = [i * c for i, c in enumerate(cs)][1:]
    radius = 0.5 + 0.7 * max(abs(c / cs[-1]) for c in cs[:-1])
    start = [radius * cmath.exp(2j * cmath.pi * (k + 0.354) / d + 0.13j) for k in range(d)]
    warm = _aberth(lambda z: (_horner(cs, z), _horner(dcs, z)), start, 1e-13, 240)
    with mp.workprec(prec):
        deriv = factor.derivative()
        zs = [mp.mpc(z) for z in warm]
        return _aberth(lambda z: (factor(z), deriv(z)), zs, mp.mpf(2) ** (16 - prec), 120)


def all_roots(
    f: IntPolynomial,
    precision: float = 1e-20,
    prec: int = DEFAULT_PREC_BITS,
) -> list[RootApprox]:
    """All complex roots of ``f`` with residual bounds and multiplicities.

    The polynomial is first split into exact squarefree factors so that the
    iteration only ever sees simple roots; each located root is emitted once
    per unit of multiplicity, so the list has exactly ``deg f`` entries.
    Iteration restarts at doubled working precision (up to 1024 bits) until
    every Newton residual (see :class:`RootApprox`) is below ``precision``;
    failure at the cap raises :class:`ConvergenceError`.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no roots")
    if f.degree is None or f.degree < 1:
        raise ValueError("all_roots needs degree >= 1")
    if precision <= 0:
        raise ValueError("precision must be positive")
    work = max(prec, 64)
    while True:
        result = _all_roots_at(f, precision, work)
        if result is not None:
            return result
        work *= 2
        if work > _MAX_PREC_BITS:
            raise ConvergenceError(
                f"residuals above {precision} even at {_MAX_PREC_BITS} bits"
            )


def _all_roots_at(f: IntPolynomial, precision: float, prec: int):
    located: list[tuple[object, int, IntPolynomial]] = []
    for factor, mult in squarefree_decomposition(f):
        for z in _factor_roots(factor, prec):
            located.append((z, mult, factor))
    with mp.workprec(prec):
        located.sort(key=lambda item: (mp.re(item[0]), mp.im(item[0])))
        out: list[RootApprox] = []
        for z, mult, factor in located:
            gz = factor(z)
            dgz = factor.derivative()(z)
            if dgz == 0:
                residual = mp.mpf(0) if gz == 0 else mp.inf
            else:
                residual = abs(gz / dgz)
            if not residual < mp.mpf(precision):
                return None
            approx = RootApprox(z, residual, mult)
            out.extend([approx] * mult)
        return out


# -- derived quantities ------------------------------------------------------


def mahler_measure(f: IntPolynomial, tol: float = 1e-9, prec: int = DEFAULT_PREC_BITS):
    """``|lc(f)| * prod max(1, |z|)`` over all roots, as an mpf.

    The residual target handed to :func:`all_roots` is several orders below
    ``tol`` divided by the degree, so the propagated error of the product is
    below ``tol`` with a wide margin.
    """
    if f.is_zero():
        raise ValueError("Mahler measure of the zero polynomial is undefined")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if f.degree == 0:
        return mp.mpf(abs(f.constant))
    target = min(1e-18, tol * 1e-4 / (f.degree + 1))
    roots = all_roots(f, precision=target, prec=prec)
    with mp.workprec(prec):
        measure = mp.mpf(abs(f.leading))
        for r in roots:
            a = abs(r.value)
            if a > 1:
                measure *= a
        return measure


def count_outside_unit(
    f: IntPolynomial, tol: float = 1e-9, prec: int = DEFAULT_PREC_BITS
) -> UnitCircleCensus:
    """Census of roots relative to the unit circle at tolerance ``tol``."""
    if f.is_zero():
        raise ValueError("census of the zero polynomial is undefined")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if f.degree == 0:
        return UnitCircleCensus(0, 0, 0, tol)
    target = min(1e-18, tol * 1e-6)
    roots = all_roots(f, precision=target, prec=prec)
    outside = on_circle = inside = 0
    with mp.workprec(prec):
        tol_mp = mp.mpf(tol)
        for r in roots:
            gap = abs(r.value) - 1
            if abs(gap) <= tol_mp:
                on_circle += 1
            elif gap > 0:
                outside += 1
            else:
                inside += 1
    census = UnitCircleCensus(outside, on_circle, inside, tol)
    if census.total != f.degree:
        raise ArithmeticError("census does not account for every root")
    return census
