"""The two-parameter braid families and everything computed about them.

For parameters ``m, n >= 1`` there are two families: the "split" braids
(here ``beta``) that twist the first ``m`` strands positively and the last
``n`` negatively, and the variants (``sigma``) obtained by passing the last
strand once around the others.  The split family is pseudo-Anosov for all
parameters; the variant is periodic when ``m == n``, reducible when
``|m - n| == 1`` and pseudo-Anosov otherwise.

Every pseudo-Anosov dilatation here is the greatest real root of an explicit
integer polynomial built from the core polynomial ``R_m(t) = t^m (t-1) - 2``:

* beta:   ``t^(n+1) R_m(t) + (R_m)_*(t)``
* sigma:  ``t^(n+1) R_m(t) - (R_m)_*(t)``

The same quantity also arrives by a second, independent route: the
characteristic polynomial of a hand-transcribed ``(m+n+2) x (m+n+2)``
transition matrix (a single entry flips sign between the two families).
``dilatation`` always offers to cross-validate the routes against each
other; disagreement is a hard error because it can only mean a
transcription bug.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from decimal import Context
from fractions import Fraction

from . import linalg
from .poly import IntPolynomial, SalemBoydSpec, Sign, salem_boyd
from .spectral import DEFAULT_PREC_BITS, RootEnclosure, largest_real_root


class Family(enum.Enum):
    BETA = "beta"
    SIGMA = "sigma"


class TNKind(enum.Enum):
    PSEUDO_ANOSOV = "pseudo_anosov"
    REDUCIBLE = "reducible"
    PERIODIC = "periodic"


class Provenance(enum.Enum):
    CLOSED_FORM = "closed_form"
    BOTH_AGREE = "both_agree"


class OracleMismatchError(ArithmeticError):
    """The closed-form polynomial and the transition-matrix characteristic
    polynomial disagreed about a dilatation.  This signals a transcription
    bug, never a numerical issue."""


@dataclass(frozen=True)
class FamilyParams:
    family: Family
    m: int
    n: int

    def __post_init__(self):
        if not (isinstance(self.m, int) and isinstance(self.n, int)):
            raise ValueError("m and n must be integers")
        if self.m < 1 or self.n < 1:
            raise ValueError("family parameters require m >= 1 and n >= 1")

    @property
    def g(self) -> int:
        """Half of ``m + n``; defined only when the sum is even."""
        if (self.m + self.n) % 2 != 0:
            raise ValueError(f"g undefined: m + n = {self.m + self.n} is odd")
        return (self.m + self.n) // 2


def classify(params: FamilyParams) -> TNKind:
    """Thurston-Nielsen type.  The beta family is pseudo-Anosov for every
    ``m, n >= 1``; sigma is periodic on the diagonal, reducible one step off
    it, and pseudo-Anosov once ``|m - n| >= 2``."""
    if params.family is Family.BETA:
        return TNKind.PSEUDO_ANOSOV
    gap = abs(params.m - params.n)
    if gap == 0:
        return TNKind.PERIODIC
    if gap == 1:
        return TNKind.REDUCIBLE
    return TNKind.PSEUDO_ANOSOV


def _require_pa(params: FamilyParams) -> None:
    kind = classify(params)
    if kind is not TNKind.PSEUDO_ANOSOV:
        raise ValueError(
            f"{params.family.value}(m={params.m}, n={params.n}) is {kind.value}, "
            "not pseudo-Anosov"
        )


def _normalized_sigma(params: FamilyParams) -> tuple[int, int]:
    """Sigma constructors are symmetric in (m, n); everything is built from
    the ordering n > m so only one matrix transcription exists."""
    return (min(params.m, params.n), max(params.m, params.n))


# -- core polynomial and matrix ----------------------------------------------


def r_poly(m: int) -> IntPolynomial:
    """``t^(m+1) - t^m - 2`` in ascending coefficients."""
    if m < 1:
        raise ValueError("m must be >= 1")
    coeffs = [0] * (m + 2)
    coeffs[0] = -2
    coeffs[m] = -1
    coeffs[m + 1] = 1
    return IntPolynomial(coeffs)


def r_matrix(m: int) -> linalg.IntMatrix:
    """The ``(m+1) x (m+1)`` cyclic-with-doubling transition block whose
    characteristic polynomial is :func:`r_poly`.  Column j is the image of
    the j-th edge vector."""
    if m < 1:
        raise ValueError("m must be >= 1")
    d = m + 1
    rows = [[0] * d for _ in range(d)]
    for i in range(m - 1):
        rows[i][i + 1] = 1
    rows[m - 1][m] = 2
    rows[m][0] = 1
    rows[m][m] = 1
    return linalg.IntMatrix(rows)


def closed_form_poly(params: FamilyParams) -> IntPolynomial:
    """``t^(n+1) R_m +/- (R_m)_*`` per family; pseudo-Anosov parameters only."""
    _require_pa(params)
    if params.family is Family.BETA:
        m, n = params.m, params.n
        sign = Sign.PLUS
    else:
        m, n = _normalized_sigma(params)
        sign = Sign.MINUS
    return salem_boyd(SalemBoydSpec(r_poly(m), n + 1, sign))


def transition_matrix(params: FamilyParams) -> linalg.IntMatrix:
    """The ``(m+n+2)``-dimensional transition matrix for the induced graph map.

    The upper-left ``(m+1)`` block is :func:`r_matrix`; a single entry (row
    ``m+n``, column ``m``) is +1 for beta and -1 for sigma.  Transcribed once
    and exercised against :func:`closed_form_poly` by the exact
    characteristic-polynomial oracle.
    """
    _require_pa(params)
    if params.family is Family.BETA:
        m, n = params.m, params.n
        flip = 1
    else:
        m, n = _normalized_sigma(params)
        flip = -1
    rows = [list(row) + [0] * (n + 1) for row in r_matrix(m).entries]
    rows += [[0] * (m + n + 2) for _ in range(n + 1)]
    rows[m - 1][m + 1] = 1
    rows[m - 1][m + n + 1] = 1
    rows[m][m + 1] = 2
    for i in range(1, n):
        rows[m + i][m + i + 1] = 1
    rows[m + n][m] = flip
    rows[m + n + 1][m + 1] = -1
    return linalg.IntMatrix(rows)


def kernel_vector(m: int, n: int) -> tuple[int, ...]:
    """The integer vector ``w`` fixed by the sigma transition matrix:
    ``2(v_1 + .. + v_m) + v_{m+1} - (v_{m+2} + .. + v_{m+n+1}) + v_{m+n+2}``.

    Witnesses the extra eigenvalue 1 that separates the sigma matrix spectrum
    from the dilatation."""
    a, b = min(m, n), max(m, n)
    if a < 1 or b - a < 2:
        raise ValueError("kernel vector exists only for pseudo-Anosov sigma parameters")
    return (2,) * a + (1,) + (-1,) * b + (1,)


# -- results -----------------------------------------------------------------


def format_float(x) -> float:
    """Round to 10 significant digits (round-half-even via the float formatter);
    the single formatting used for every emitted decimal."""
    return float(f"{float(x):.10g}")


@dataclass(frozen=True)
class DilatationResult:
    params: FamilyParams
    tn: TNKind
    defining_poly: IntPolynomial | None
    root: RootEnclosure | None
    provenance: Provenance | None

    def to_json_data(self) -> dict:
        data = {
            "family": self.params.family.value,
            "m": self.params.m,
            "n": self.params.n,
            "tn_class": self.tn.value,
            "poly": self.defining_poly.to_json_data() if self.defining_poly else None,
            "root": None,
            "provenance": self.provenance.value if self.provenance else None,
        }
        if self.root is not None:
            data["root"] = {
                "lower": str(self.root.lower),
                "upper": str(self.root.upper),
                "witness": format_float(self.root.witness),
            }
        return data

    def to_csv_row(self) -> list[str]:
        base = [self.params.family.value, str(self.params.m), str(self.params.n), self.tn.value]
        if self.root is None:
            return base + ["", ""]
        w, ctx = self.root.witness, Context(prec=40)  # a correctly rounded ln
        lam = format_float(w)
        log_lam = format_float(ctx.ln(ctx.divide(w.numerator, w.denominator)))
        return base + [f"{lam:.10g}", f"{log_lam:.10g}"]


def dilatation(
    params: FamilyParams,
    tol: float = 1e-9,
    prec: int = DEFAULT_PREC_BITS,
    cross_validate: bool = True,
) -> DilatationResult:
    """Dilatation of a family member as a certified enclosure.

    For pseudo-Anosov parameters the greatest real root (above 1) of the
    closed-form polynomial is isolated exactly.  With ``cross_validate`` the
    characteristic polynomial of the transition matrix must equal it exactly;
    otherwise :class:`OracleMismatchError` is raised.  Periodic and reducible
    parameters return a result without a root.
    """
    kind = classify(params)
    if kind is not TNKind.PSEUDO_ANOSOV:
        return DilatationResult(params, kind, None, None, None)
    poly = closed_form_poly(params)
    root = largest_real_root(poly, 1, tol, prec)
    provenance = Provenance.CLOSED_FORM
    if cross_validate:
        if linalg.char_poly(transition_matrix(params)) != poly:
            raise OracleMismatchError(
                f"matrix and closed-form polynomials differ for "
                f"{params.family.value}({params.m},{params.n})"
            )
        provenance = Provenance.BOTH_AGREE
    return DilatationResult(params, kind, poly, root, provenance)


# -- singularity data ----------------------------------------------------------


@dataclass(frozen=True)
class SingularityData:
    """Prong counts of the invariant foliations on the sphere."""

    marked_point_prongs: int
    marked_point_count: int
    p_prongs: int
    q_prongs: int | None
    p_infinity_prongs: int

    def euler_poincare_sum(self) -> int:
        """Sum of ``2 - prongs`` over all singularities; equals 4 on the sphere."""
        total = self.marked_point_count * (2 - self.marked_point_prongs)
        total += 2 - self.p_prongs
        if self.q_prongs is not None:
            total += 2 - self.q_prongs
        total += 2 - self.p_infinity_prongs
        return total


def singularity_data(params: FamilyParams) -> SingularityData:
    """Prong counts at the distinguished fixed points and marked points.

    Beta: 1-pronged at the ``m+n+1`` marked points and at infinity, with an
    ``(m+1)``- and an ``(n+1)``-pronged interior fixed point.  Sigma (with
    ``n > m`` after normalisation): 1-pronged marked points, an
    ``(m+1)``-pronged fixed point, and an ``n``-pronged point at infinity.
    """
    _require_pa(params)
    marked = params.m + params.n + 1
    if params.family is Family.BETA:
        data = SingularityData(1, marked, params.m + 1, params.n + 1, 1)
    else:
        m, n = _normalized_sigma(params)
        data = SingularityData(1, marked, m + 1, None, n)
    if data.euler_poincare_sum() != 4:
        raise ArithmeticError("prong table violates the Euler-Poincare balance")
    return data


def orientable_lift(params: FamilyParams) -> bool:
    """Whether the invariant foliations lift to orientable ones on the double
    cover branched over the marked points (and infinity when their count is
    odd): exactly when every odd-pronged singularity is a branch point.  The
    marked points always are, the interior fixed points never are."""
    data = singularity_data(params)
    interior = (data.p_prongs, data.q_prongs or 0)
    infinity_ok = data.marked_point_count % 2 == 1 or data.p_infinity_prongs % 2 == 0
    return infinity_ok and all(k % 2 == 0 for k in interior)


# -- the least-dilatation member ------------------------------------------------


@dataclass(frozen=True)
class MinimizerReport:
    """Dilatation of the least-dilatation member on ``2g+1`` strands, with the
    structural and two-sided bound certificates that come with it."""

    g: int
    result: DilatationResult
    core_poly: IntPolynomial
    core_sign_change_ok: bool
    lower_bound_ok: bool
    upper_bound_ok: bool
    core_residual: float
    power_identity_residual: float


def _core_poly(g: int) -> IntPolynomial:
    """``t^(2g+1) - 2 t^(g+1) - 2 t^g + 1``, the defining polynomial of the
    minimal dilatation with the eigenvalue-1 factor removed."""
    coeffs = [0] * (2 * g + 2)
    coeffs[0] = 1
    coeffs[g] = -2
    coeffs[g + 1] = -2
    coeffs[2 * g + 1] = 1
    return IntPolynomial(coeffs)


def _certifies_lower_bound(value: Fraction, g: int) -> bool:
    """Exact test for ``value > (2 + sqrt 3)^(1/(g+1))`` with rational ``value > 1``:
    equivalent to ``y = value^(g+1)`` satisfying ``y > 2`` and ``y^2 - 4y + 1 > 0``."""
    if value <= 1:
        return False
    y = value ** (g + 1)
    return y > 2 and y * y - 4 * y + 1 > 0


def _certifies_upper_bound(value: Fraction, g: int) -> bool:
    """Exact test for ``1 < value < (2 + sqrt 3)^(1/g)``: with ``y = value^g > 1``
    this is ``y^2 - 4y + 1 < 0``."""
    if value <= 1:
        return False
    y = value**g
    return y * y - 4 * y + 1 < 0


def minimizer(
    g: int,
    tol: float = 1e-9,
    prec: int = DEFAULT_PREC_BITS,
) -> MinimizerReport:
    """Dilatation of the minimal family member for ``m + n = 2g`` (the sigma
    member with parameters ``(g-1, g+1)``), with certificates.

    Verifies exactly that the closed-form polynomial factors as ``(t - 1)``
    times the core polynomial ``t^(2g+1) - 2t^(g+1) - 2t^g + 1``, that the
    core changes sign across the certified enclosure, and that the enclosure
    lies strictly inside ``((2+sqrt 3)^(1/(g+1)), (2+sqrt 3)^(1/g))`` by exact
    rational arithmetic (re-isolating at most three times, at ``tol / 100``
    each time).  Also reports the residual of the core polynomial and of the
    identity ``a = sqrt b``, ``a = x^(g+1) - x - 1``, ``b = x^2 + x + 1``, at
    the witness: the first exactly, the second as ``|a^2 - b| / (a + sqrt b)``.

    The transition-matrix cross-check runs only for ``g <= 8``, where the
    exact characteristic polynomial is cheap; the matrix route is exercised
    exhaustively elsewhere.
    """
    if not isinstance(g, int) or g < 2:
        raise ValueError("minimizer requires an integer g >= 2")
    params = FamilyParams(Family.SIGMA, g - 1, g + 1)
    core = _core_poly(g)

    result = dilatation(params, tol, prec, cross_validate=g <= 8)
    if result.defining_poly != core * IntPolynomial([-1, 1]):
        raise OracleMismatchError("closed form does not factor as (t-1) * core polynomial")
    lower_ok = _certifies_lower_bound(result.root.lower, g)
    upper_ok = _certifies_upper_bound(result.root.upper, g)
    for _ in range(3):
        if lower_ok and upper_ok:
            break
        tol /= 100
        result = replace(result, root=largest_real_root(result.defining_poly, 1, tol, prec))
        lower_ok = _certifies_lower_bound(result.root.lower, g)
        upper_ok = _certifies_upper_bound(result.root.upper, g)

    sign_ok = core.sign_at(result.root.lower) * core.sign_at(result.root.upper) < 0
    w = result.root.witness
    a, b = w ** (g + 1) - w - 1, w * w + w + 1
    return MinimizerReport(
        g=g,
        result=result,
        core_poly=core,
        core_sign_change_ok=sign_ok,
        lower_bound_ok=lower_ok,
        upper_bound_ok=upper_ok,
        core_residual=float(abs(core(w))),
        power_identity_residual=float(abs(a * a - b)) / (float(a) + math.sqrt(b)),
    )
