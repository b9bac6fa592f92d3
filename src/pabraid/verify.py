"""The self-verification suite behind ``pabraid verify``.

Each check is a sweep over one invariant of the library at a parameter range
set by the depth (``quick`` or ``full``).  A sweep yields one
``(margin, holds)`` pair per case: ``(0.0, True)`` or ``(-1.0, False)`` for an
exact comparison, the gap ``b.lower - a.upper`` for "enclosure ``a`` lies
strictly below enclosure ``b``" (holds when positive, so touching enclosures
fail; orderings of roots narrow both first), and the slack for a bound
(holds when at least zero).  One verdict rule, :func:`_fold`, turns a whole
sweep into the reported pair: ``passed`` when every case holds, and
``worst_margin``, the least margin (0.0 for an empty sweep).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from . import families, horseshoe, linalg, spectral
from .families import Family, FamilyParams, TNKind
from .poly import (
    IntPolynomial,
    SalemBoydSpec,
    Sign,
    SymmetryClass,
    poly_gcd,
    reciprocal,
    salem_boyd,
    symmetry_class,
)

_SEED = 20240803


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    range: str
    passed: bool
    worst_margin: float


@dataclass(frozen=True)
class VerifyReport:
    depth: str
    checks: list[CheckResult]

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def total(self) -> int:
        return len(self.checks)

    def to_json_data(self) -> dict:
        return {
            "depth": self.depth,
            "checks": [
                {"id": c.check_id, "range": c.range, "passed": c.passed, "worst_margin": c.worst_margin}
                for c in self.checks
            ],
            "summary": {"passed": self.passed, "total": self.total},
        }


@dataclass(frozen=True)
class _Bounds:
    mn: int
    g: int
    rm: int
    count_m: int
    count_n: int
    conv_m: int


_DEPTHS = {
    "quick": _Bounds(mn=4, g=5, rm=8, count_m=4, count_n=10, conv_m=2),
    "full": _Bounds(mn=10, g=50, rm=12, count_m=6, count_n=30, conv_m=4),
}


Member = tuple[IntPolynomial, spectral.RootEnclosure]


class _Session:
    """One verify run: fixed tolerance and precision, memoised members."""

    def __init__(self, bounds: _Bounds, tol: float, prec: int = spectral.DEFAULT_PREC_BITS):
        self.bounds = bounds
        self.tol = tol
        self.prec = prec
        self.rng = random.Random(_SEED)
        self._members: dict[tuple[Family, int, int], Member] = {}

    def member(self, family: Family, m: int, n: int) -> Member:
        key = (family, m, n)
        if key not in self._members:
            res = families.dilatation(FamilyParams(family, m, n), self.tol, self.prec, cross_validate=False)
            self._members[key] = res.defining_poly, res.root
        return self._members[key]

    def pa_params(self, limit: int):
        for m in range(1, limit + 1):
            for n in range(1, limit + 1):
                yield FamilyParams(Family.BETA, m, n)
        for m in range(1, limit + 1):
            for n in range(1, limit + 1):
                p = FamilyParams(Family.SIGMA, m, n)
                if families.classify(p) is TNKind.PSEUDO_ANOSOV:
                    yield p

    def random_poly(self, max_deg: int, monic: bool = False) -> IntPolynomial:
        deg = self.rng.randint(1, max_deg)
        coeffs = [self.rng.randint(-9, 9) for _ in range(deg)]
        coeffs.append(1 if monic else self.rng.choice([-3, -2, -1, 1, 2, 3]))
        if coeffs[0] == 0:
            coeffs[0] = 1
        return IntPolynomial(coeffs)


# -- the verdict rule ----------------------------------------------------------

Margin = tuple[float, bool]
Sweep = Callable[[_Session], Iterator[Margin]]


def _exact(holds: bool) -> Margin:
    return (0.0, True) if holds else (-1.0, False)


def _below(a, b) -> Margin:
    """Enclosure ``a`` lies strictly below enclosure ``b``: the gap, positive iff so."""
    gap = float(b.lower - a.upper)
    return gap, gap > 0


def _ordered(s: _Session, lower: Member, upper: Member) -> Margin:
    """:func:`_below` for the greatest roots above 1 of two polynomials,
    re-isolated at 256 times finer tolerances while the enclosures meet and
    one is at least ``2^-(prec-16)`` wide: a failure is never just width."""
    (f, a), (g, b) = lower, upper
    tol, finest = Fraction(s.tol), Fraction(1, 1 << (s.prec - 16))
    while b.lower <= a.upper and max(a.width, b.width) >= finest:
        tol /= 256
        a, b = (spectral.largest_real_root(h, 1, tol, s.prec) for h in (f, g))
    return _below(a, b)


def _slack(slack: float) -> Margin:
    return slack, slack >= 0


def _fold(pairs: Iterable[Margin]) -> tuple[bool, float]:
    """``(passed, worst_margin)`` of a whole sweep: every pair holds, and the
    least margin (0.0 when the sweep is empty).  The sweep is always consumed
    to its end, so a failure still reports the worst margin over all cases."""
    passed, worst = True, None
    for margin, holds in pairs:
        passed &= holds
        worst = margin if worst is None else min(worst, margin)
    return passed, 0.0 if worst is None else worst


# -- individual checks -------------------------------------------------------


def _reciprocal_involution(s: _Session) -> Iterator[Margin]:
    polys = [families.r_poly(m) for m in range(1, s.bounds.rm + 1)]
    polys += [s.random_poly(12) for _ in range(40)]
    for f in polys:
        yield _exact(f.constant == 0 or reciprocal(reciprocal(f)) == f)


def _salem_boyd_symmetry(s: _Session) -> Iterator[Margin]:
    for m in range(1, s.bounds.mn + 1):
        base = families.r_poly(m)
        for n in range(0, 2 * s.bounds.mn + 1):
            plus = salem_boyd(SalemBoydSpec(base, n, Sign.PLUS))
            minus = salem_boyd(SalemBoydSpec(base, n, Sign.MINUS))
            yield _exact(symmetry_class(plus) is SymmetryClass.RECIPROCAL)
            yield _exact(symmetry_class(minus) is SymmetryClass.ANTI_RECIPROCAL)


def _salem_boyd_shift(s: _Session) -> Iterator[Margin]:
    bases = [families.r_poly(m) for m in range(1, s.bounds.mn + 1)]
    bases += [s.random_poly(8, monic=True) for _ in range(15)]
    for base in bases:
        rev = reciprocal(base)
        for n in range(0, 8):
            for sign in (Sign.PLUS, Sign.MINUS):
                q_n = salem_boyd(SalemBoydSpec(base, n, sign))
                q_n1 = salem_boyd(SalemBoydSpec(base, n + 1, sign))
                expect = sign.factor * (rev - rev.shift(1))
                yield _exact((q_n1 - q_n.shift(1)) == expect)


def _salem_boyd_degree(s: _Session) -> Iterator[Margin]:
    for m in range(1, s.bounds.mn + 1):
        base = families.r_poly(m)
        for n in range(1, 2 * s.bounds.mn + 1):
            for sign in (Sign.PLUS, Sign.MINUS):
                q = salem_boyd(SalemBoydSpec(base, n, sign))
                yield _exact(q.degree == n + base.degree)


def _charpoly_spot(s: _Session) -> Iterator[Margin]:
    mats = [families.r_matrix(m) for m in range(1, min(s.bounds.mn, 6) + 1)]
    mats += [families.transition_matrix(p) for p in s.pa_params(min(s.bounds.mn, 4))]
    for mat in mats:
        cp = linalg.char_poly(mat)
        for _ in range(10):
            x = s.rng.randint(-9, 9)
            shifted = [[(x if i == j else 0) - mat.entries[i][j] for j in range(mat.dim)]
                       for i in range(mat.dim)]
            yield _exact(cp(x) == linalg.bareiss_determinant(shifted))


def _charpoly_block_triangular(s: _Session) -> Iterator[Margin]:
    for a in range(1, min(s.bounds.mn, 5) + 1):
        for b in range(1, min(s.bounds.mn, 5) + 1):
            top = families.r_matrix(a)
            bottom = families.r_matrix(b)
            da, db = top.dim, bottom.dim
            rows = [list(top.entries[i]) + [s.rng.randint(-3, 3) for _ in range(db)] for i in range(da)]
            rows += [[0] * da + list(bottom.entries[i]) for i in range(db)]
            whole = linalg.IntMatrix(rows)
            yield _exact(linalg.char_poly(whole) == linalg.char_poly(top) * linalg.char_poly(bottom))


def _matrix_oracle(s: _Session) -> Iterator[Margin]:
    # exact equality: the two routes share no code, so any difference is a
    # transcription bug in the matrix or the closed form
    for p in s.pa_params(s.bounds.mn):
        yield _exact(linalg.char_poly(families.transition_matrix(p)) == families.closed_form_poly(p))


def _kernel_vector(s: _Session) -> Iterator[Margin]:
    for m in range(1, s.bounds.mn + 1):
        for n in range(m + 2, s.bounds.mn + 1):
            mat = families.transition_matrix(FamilyParams(Family.SIGMA, m, n))
            w = families.kernel_vector(m, n)
            yield _exact(mat.mul_vector(w) == w)


def _irreducible_support(s: _Session) -> Iterator[Margin]:
    for m in range(1, s.bounds.rm + 1):
        yield _exact(linalg.is_irreducible(families.r_matrix(m)))
    for p in s.pa_params(s.bounds.mn):
        yield _exact(linalg.is_irreducible(families.transition_matrix(p)))


def _perron_agreement(s: _Session) -> Iterator[Margin]:
    for m in range(1, s.bounds.rm + 1):
        pr = linalg.perron_root(families.r_matrix(m), s.tol, s.prec)
        rr = spectral.largest_real_root(families.r_poly(m), Fraction(1), s.tol, s.prec)
        yield _slack(2 * s.tol - abs(float(pr.midpoint - rr.midpoint)))


def _dilatation_symmetry(s: _Session) -> Iterator[Margin]:
    for family in (Family.BETA, Family.SIGMA):
        for m in range(1, s.bounds.mn + 1):
            for n in range(1, s.bounds.mn + 1):
                if families.classify(FamilyParams(family, m, n)) is not TNKind.PSEUDO_ANOSOV:
                    continue
                a = s.member(family, m, n)[1]
                b = s.member(family, n, m)[1]
                yield _slack(1e-9 - abs(float(a.midpoint - b.midpoint)))


def _beta_monotone(s: _Session) -> Iterator[Margin]:
    for m in range(1, s.bounds.mn + 1):
        for n in range(1, 2 * s.bounds.mn):
            yield _ordered(s, s.member(Family.BETA, m, n + 1), s.member(Family.BETA, m, n))


def _sigma_monotone(s: _Session) -> Iterator[Margin]:
    for m in range(1, s.bounds.mn + 1):
        for n in range(m + 2, 2 * s.bounds.mn):
            yield _ordered(s, s.member(Family.SIGMA, m, n), s.member(Family.SIGMA, m, n + 1))


def _beta_above_sigma(s: _Session) -> Iterator[Margin]:
    for m in range(1, s.bounds.mn + 1):
        for n in range(1, s.bounds.mn + 1):
            if abs(m - n) >= 2:
                yield _ordered(s, s.member(Family.SIGMA, m, n), s.member(Family.BETA, m, n))


def _min_ordering(s: _Session) -> Iterator[Margin]:
    for m in range(2, s.bounds.mn + 1):
        yield _ordered(s, s.member(Family.SIGMA, m - 1, m + 1), s.member(Family.BETA, m, m))
        for k in range(1, m):
            yield _ordered(s, s.member(Family.BETA, m, m), s.member(Family.BETA, m - k, m + k))


def _min_equality_case(s: _Session) -> Iterator[Margin]:
    """The two dilatations that coincide do so exactly: the shared factor
    ``h`` of the defining polynomials changes sign across both members'
    enclosures.  Each enclosure holds one distinct root of its ``f`` and none
    lies above it, so as ``h`` divides ``f`` that root is ``h``'s greatest
    real root, the same number for both members."""
    beta_poly, beta_root = s.member(Family.BETA, 2, 3)
    sigma_poly, sigma_root = s.member(Family.SIGMA, 1, 4)
    shared = poly_gcd(beta_poly, sigma_poly)
    for root in (beta_root, sigma_root):
        yield _exact(shared.sign_at(root.lower) * shared.sign_at(root.upper) < 0)


def _singularity_balance(s: _Session) -> Iterator[Margin]:
    for p in s.pa_params(s.bounds.mn):
        yield _exact(families.singularity_data(p).euler_poincare_sum() == 4)


def _mahler_base(s: _Session) -> Iterator[Margin]:
    for m in range(1, s.bounds.rm + 1):
        yield _slack(1e-8 - abs(float(spectral.mahler_measure(families.r_poly(m), tol=1e-10)) - 2.0))


def _root_count_law(s: _Session) -> Iterator[Margin]:
    for m in range(1, s.bounds.count_m + 1):
        base = families.r_poly(m)
        allowed = spectral.count_outside_unit(base, tol=1e-9).outside
        for n in range(0, s.bounds.count_n + 1):
            for sign in (Sign.PLUS, Sign.MINUS):
                q = salem_boyd(SalemBoydSpec(base, n, sign))
                yield _slack(float(allowed - spectral.count_outside_unit(q, tol=1e-9).outside))


def _mahler_convergence(s: _Session) -> Iterator[Margin]:
    # Qualitative limit check.  The deviation must shrink from n=10 to n=80
    # for every base; the 1e-2 quantitative bound is only meaningful once all
    # of the base's off-circle roots have been resolved by the combination
    # polynomial, which for the m=4 base (complex pair at modulus 1.0139)
    # happens only for n in the several hundreds, so that bound is asserted
    # for m <= 3.
    for m in range(1, s.bounds.conv_m + 1):
        base = families.r_poly(m)
        for sign in (Sign.PLUS, Sign.MINUS):
            early = abs(float(spectral.mahler_measure(salem_boyd(SalemBoydSpec(base, 10, sign)), 1e-10)) - 2.0)
            late = abs(float(spectral.mahler_measure(salem_boyd(SalemBoydSpec(base, 80, sign)), 1e-10)) - 2.0)
            slack = early - late + 1e-12
            if m <= 3:
                slack = min(slack, 1e-2 - late)
            yield _slack(slack)


def _core_root_monotone(s: _Session) -> Iterator[Margin]:
    prev = None
    for m in range(1, 14):
        f = families.r_poly(m)
        cur = f, spectral.largest_real_root(f, Fraction(1), s.tol, s.prec)
        if prev is not None:
            yield _ordered(s, cur, prev)
        prev = cur


def _minimizer_bounds(s: _Session) -> Iterator[Margin]:
    for g in range(2, s.bounds.g + 1):
        report = families.minimizer(g, s.tol, s.prec)
        certified = report.lower_bound_ok and report.upper_bound_ok and report.core_sign_change_ok
        slack = 1e-8 - max(report.core_residual, report.power_identity_residual)
        yield slack, certified and slack >= 0


def _horseshoe_roundtrip(s: _Session) -> Iterator[Margin]:
    for m in range(1, 6):
        for n in range(m + 2, 13):
            code_a, code_b = horseshoe.family_to_codes(m, n)
            for code, form in ((code_a, "A"), (code_b, "B")):
                yield _exact(len(code) == m + n + 1)
                match = horseshoe.code_to_family(code)
                yield _exact(match == horseshoe.FamilyMatch(m, n, form))
                shifted = code[3:] + code[:3]
                yield _exact(horseshoe.code_to_family(shifted) == match)


def _enclosure_certificates(s: _Session) -> Iterator[Margin]:
    for p in s.pa_params(min(s.bounds.mn, 4)):
        f, root = s.member(p.family, p.m, p.n)
        yield _exact(root.certified)
        yield _exact(f.sign_at(root.lower) * f.sign_at(root.upper) < 0)


#: (check id, its range string at the depth's bounds, sweep), in report order.
_CHECKS: list[tuple[str, Callable[[_Bounds], str], Sweep]] = [
    ("reciprocal-involution", lambda b: f"rm<= {b.rm}, 40 random", _reciprocal_involution),
    ("salem-boyd-symmetry", lambda b: f"m<={b.mn}, n<={2 * b.mn}", _salem_boyd_symmetry),
    ("salem-boyd-shift", lambda b: "family and random bases, n<=8", _salem_boyd_shift),
    ("salem-boyd-degree", lambda b: f"m<={b.mn}, 1<=n<={2 * b.mn}", _salem_boyd_degree),
    ("charpoly-bareiss-spot", lambda b: "10 draws per matrix", _charpoly_spot),
    ("charpoly-block-triangular", lambda b: f"blocks m<={min(b.mn, 5)}", _charpoly_block_triangular),
    ("matrix-vs-closed-form", lambda b: f"pA m,n<={b.mn}", _matrix_oracle),
    ("kernel-eigenvector", lambda b: f"sigma pA m,n<={b.mn}", _kernel_vector),
    ("irreducible-support", lambda b: f"pA m,n<={b.mn}", _irreducible_support),
    ("perron-vs-sturm", lambda b: f"m<={b.rm}", _perron_agreement),
    ("dilatation-symmetry", lambda b: f"m,n<={b.mn}", _dilatation_symmetry),
    ("beta-monotone-decreasing", lambda b: f"m<={b.mn}, n<={2 * b.mn}", _beta_monotone),
    ("sigma-monotone-increasing", lambda b: f"m<={b.mn}, n<={2 * b.mn}", _sigma_monotone),
    ("beta-above-sigma", lambda b: f"|m-n|>=2, m,n<={b.mn}", _beta_above_sigma),
    ("min-ordering", lambda b: f"2<=m<={b.mn}, all k", _min_ordering),
    ("min-equality-m2", lambda b: "beta(2,3) vs sigma(1,4)", _min_equality_case),
    ("singularity-balance", lambda b: f"pA m,n<={b.mn}", _singularity_balance),
    ("mahler-base", lambda b: f"m<={b.rm}", _mahler_base),
    ("root-count-law", lambda b: f"m<={b.count_m}, n<={b.count_n}", _root_count_law),
    ("mahler-convergence", lambda b: f"m<={b.conv_m}, n=80", _mahler_convergence),
    ("core-root-monotone", lambda b: "m<=13", _core_root_monotone),
    ("minimizer-bounds", lambda b: f"2<=g<={b.g}", _minimizer_bounds),
    ("horseshoe-roundtrip", lambda b: "m<=5, n<=12", _horseshoe_roundtrip),
    ("enclosure-certificates", lambda b: f"pA m,n<={min(b.mn, 4)}", _enclosure_certificates),
]


def run_verify(depth: str = "quick", tol: float = 1e-9, prec: int = spectral.DEFAULT_PREC_BITS) -> VerifyReport:
    """Run every registered check at the given depth, tolerance and witness precision."""
    if depth not in _DEPTHS:
        raise ValueError(f"depth must be one of {sorted(_DEPTHS)}")
    session = _Session(_DEPTHS[depth], tol, prec)
    results = [
        CheckResult(check_id, range_of(session.bounds), *_fold(sweep(session)))
        for check_id, range_of, sweep in _CHECKS
    ]
    return VerifyReport(depth, results)
