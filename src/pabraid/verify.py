"""The self-verification suite behind ``pabraid verify``.

Each check exercises one invariant of the library at a parameter range set
by the depth (``quick`` or ``full``) and reports a pass flag plus its worst
margin: the smallest slack by which the check held (0.0 for exact checks,
negative when it failed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

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
    squarefree_part,
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
                {
                    "id": c.check_id,
                    "range": c.range,
                    "passed": c.passed,
                    "worst_margin": c.worst_margin,
                }
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


class _Session:
    """One verify run: fixed tolerance and precision, memoised dilatations."""

    def __init__(self, bounds: _Bounds, tol: float, prec: int = spectral.DEFAULT_PREC_BITS):
        self.bounds = bounds
        self.tol = tol
        self.prec = prec
        self.rng = random.Random(_SEED)
        self._dilatations: dict[tuple[Family, int, int], families.DilatationResult] = {}

    def dil(self, family: Family, m: int, n: int) -> families.DilatationResult:
        key = (family, m, n)
        if key not in self._dilatations:
            self._dilatations[key] = families.dilatation(
                FamilyParams(family, m, n), self.tol, self.prec, cross_validate=False
            )
        return self._dilatations[key]

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


def _exact(passed: bool) -> float:
    return 0.0 if passed else -1.0


# -- individual checks -------------------------------------------------------


def _check_reciprocal_involution(s: _Session) -> CheckResult:
    ok = True
    polys = [families.r_poly(m) for m in range(1, s.bounds.rm + 1)]
    polys += [s.random_poly(12) for _ in range(40)]
    for f in polys:
        if f.constant != 0 and reciprocal(reciprocal(f)) != f:
            ok = False
    return CheckResult("reciprocal-involution", f"rm<= {s.bounds.rm}, 40 random", ok, _exact(ok))


def _check_salem_boyd_symmetry(s: _Session) -> CheckResult:
    ok = True
    for m in range(1, s.bounds.mn + 1):
        base = families.r_poly(m)
        for n in range(0, 2 * s.bounds.mn + 1):
            plus = salem_boyd(SalemBoydSpec(base, n, Sign.PLUS))
            minus = salem_boyd(SalemBoydSpec(base, n, Sign.MINUS))
            ok &= symmetry_class(plus) is SymmetryClass.RECIPROCAL
            ok &= symmetry_class(minus) is SymmetryClass.ANTI_RECIPROCAL
    return CheckResult(
        "salem-boyd-symmetry", f"m<={s.bounds.mn}, n<={2 * s.bounds.mn}", ok, _exact(ok)
    )


def _check_salem_boyd_shift(s: _Session) -> CheckResult:
    ok = True
    bases = [families.r_poly(m) for m in range(1, s.bounds.mn + 1)]
    bases += [s.random_poly(8, monic=True) for _ in range(15)]
    for base in bases:
        rev = reciprocal(base)
        for n in range(0, 8):
            for sign in (Sign.PLUS, Sign.MINUS):
                q_n = salem_boyd(SalemBoydSpec(base, n, sign))
                q_n1 = salem_boyd(SalemBoydSpec(base, n + 1, sign))
                expect = sign.factor * (rev - rev.shift(1))
                ok &= (q_n1 - q_n.shift(1)) == expect
    return CheckResult("salem-boyd-shift", "family and random bases, n<=8", ok, _exact(ok))


def _check_salem_boyd_degree(s: _Session) -> CheckResult:
    ok = True
    for m in range(1, s.bounds.mn + 1):
        base = families.r_poly(m)
        for n in range(1, 2 * s.bounds.mn + 1):
            for sign in (Sign.PLUS, Sign.MINUS):
                q = salem_boyd(SalemBoydSpec(base, n, sign))
                ok &= q.degree == n + base.degree
    return CheckResult(
        "salem-boyd-degree", f"m<={s.bounds.mn}, 1<=n<={2 * s.bounds.mn}", ok, _exact(ok)
    )


def _check_charpoly_spot(s: _Session) -> CheckResult:
    ok = True
    mats = [families.r_matrix(m) for m in range(1, min(s.bounds.mn, 6) + 1)]
    mats += [
        families.transition_matrix(p)
        for p in s.pa_params(min(s.bounds.mn, 4))
    ]
    for mat in mats:
        cp = linalg.char_poly(mat)
        for _ in range(10):
            x = s.rng.randint(-9, 9)
            shifted = [
                [(x if i == j else 0) - mat.entries[i][j] for j in range(mat.dim)]
                for i in range(mat.dim)
            ]
            ok &= cp(x) == linalg.bareiss_determinant(shifted)
    return CheckResult("charpoly-bareiss-spot", "10 draws per matrix", ok, _exact(ok))


def _check_charpoly_block_triangular(s: _Session) -> CheckResult:
    ok = True
    for a in range(1, min(s.bounds.mn, 5) + 1):
        for b in range(1, min(s.bounds.mn, 5) + 1):
            top = families.r_matrix(a)
            bottom = families.r_matrix(b)
            da, db = top.dim, bottom.dim
            rows = []
            for i in range(da):
                rows.append(list(top.entries[i]) + [s.rng.randint(-3, 3) for _ in range(db)])
            for i in range(db):
                rows.append([0] * da + list(bottom.entries[i]))
            whole = linalg.IntMatrix(rows)
            ok &= linalg.char_poly(whole) == linalg.char_poly(top) * linalg.char_poly(bottom)
    return CheckResult("charpoly-block-triangular", f"blocks m<={min(s.bounds.mn, 5)}", ok, _exact(ok))


def _check_matrix_oracle(s: _Session) -> CheckResult:
    # exact equality: the two routes share no code, so any difference is a
    # transcription bug in the matrix or the closed form
    ok = True
    for p in s.pa_params(s.bounds.mn):
        ok &= linalg.char_poly(families.transition_matrix(p)) == families.closed_form_poly(p)
    return CheckResult("matrix-vs-closed-form", f"pA m,n<={s.bounds.mn}", ok, _exact(ok))


def _check_kernel_vector(s: _Session) -> CheckResult:
    ok = True
    for m in range(1, s.bounds.mn + 1):
        for n in range(m + 2, s.bounds.mn + 1):
            mat = families.transition_matrix(FamilyParams(Family.SIGMA, m, n))
            w = families.kernel_vector(m, n)
            ok &= mat.mul_vector(w) == w
    return CheckResult("kernel-eigenvector", f"sigma pA m,n<={s.bounds.mn}", ok, _exact(ok))


def _check_irreducible_support(s: _Session) -> CheckResult:
    ok = True
    for m in range(1, s.bounds.rm + 1):
        ok &= linalg.is_irreducible(families.r_matrix(m))
    for p in s.pa_params(s.bounds.mn):
        ok &= linalg.is_irreducible(families.transition_matrix(p))
    return CheckResult("irreducible-support", f"pA m,n<={s.bounds.mn}", ok, _exact(ok))


def _check_perron_agreement(s: _Session) -> CheckResult:
    ok = True
    worst = None
    for m in range(1, s.bounds.rm + 1):
        pr = linalg.perron_root(families.r_matrix(m), s.tol, s.prec)
        rr = spectral.largest_real_root(families.r_poly(m), Fraction(1), s.tol, s.prec)
        gap = abs(float(pr.midpoint - rr.midpoint))
        slack = 2 * s.tol - gap
        worst = slack if worst is None else min(worst, slack)
        ok &= slack >= 0
    return CheckResult("perron-vs-sturm", f"m<={s.bounds.rm}", ok, worst if worst is not None else 0.0)


def _check_dilatation_symmetry(s: _Session) -> CheckResult:
    ok = True
    worst = None
    for family in (Family.BETA, Family.SIGMA):
        for m in range(1, s.bounds.mn + 1):
            for n in range(1, s.bounds.mn + 1):
                p = FamilyParams(family, m, n)
                if families.classify(p) is not TNKind.PSEUDO_ANOSOV:
                    continue
                a = s.dil(family, m, n).root
                b = s.dil(family, n, m).root
                gap = abs(float(a.midpoint - b.midpoint))
                slack = 1e-9 - gap
                worst = slack if worst is None else min(worst, slack)
                ok &= slack >= 0
    return CheckResult("dilatation-symmetry", f"m,n<={s.bounds.mn}", ok, worst if worst is not None else 0.0)


def _disjoint_below(a, b) -> float:
    """Positive margin iff enclosure a lies strictly below enclosure b."""
    return float(b.lower - a.upper)


def _check_beta_monotone(s: _Session) -> CheckResult:
    ok = True
    worst = None
    for m in range(1, s.bounds.mn + 1):
        for n in range(1, 2 * s.bounds.mn):
            cur = s.dil(Family.BETA, m, n).root
            nxt = s.dil(Family.BETA, m, n + 1).root
            margin = _disjoint_below(nxt, cur)
            worst = margin if worst is None else min(worst, margin)
            ok &= margin > 0
    return CheckResult("beta-monotone-decreasing", f"m<={s.bounds.mn}, n<={2 * s.bounds.mn}", ok, worst)


def _check_sigma_monotone(s: _Session) -> CheckResult:
    ok = True
    worst = None
    for m in range(1, s.bounds.mn + 1):
        for n in range(m + 2, 2 * s.bounds.mn):
            cur = s.dil(Family.SIGMA, m, n).root
            nxt = s.dil(Family.SIGMA, m, n + 1).root
            margin = _disjoint_below(cur, nxt)
            worst = margin if worst is None else min(worst, margin)
            ok &= margin > 0
    return CheckResult("sigma-monotone-increasing", f"m<={s.bounds.mn}, n<={2 * s.bounds.mn}", ok, worst)


def _check_beta_above_sigma(s: _Session) -> CheckResult:
    ok = True
    worst = None
    for m in range(1, s.bounds.mn + 1):
        for n in range(1, s.bounds.mn + 1):
            if abs(m - n) < 2:
                continue
            margin = _disjoint_below(s.dil(Family.SIGMA, m, n).root, s.dil(Family.BETA, m, n).root)
            worst = margin if worst is None else min(worst, margin)
            ok &= margin > 0
    return CheckResult("beta-above-sigma", f"|m-n|>=2, m,n<={s.bounds.mn}", ok, worst)


def _check_min_ordering(s: _Session) -> CheckResult:
    ok = True
    worst = None
    for m in range(2, s.bounds.mn + 1):
        margin = _disjoint_below(s.dil(Family.SIGMA, m - 1, m + 1).root, s.dil(Family.BETA, m, m).root)
        worst = margin if worst is None else min(worst, margin)
        ok &= margin > 0
        for k in range(1, m):
            margin = _disjoint_below(s.dil(Family.BETA, m, m).root, s.dil(Family.BETA, m - k, m + k).root)
            worst = margin if worst is None else min(worst, margin)
            ok &= margin > 0
    return CheckResult("min-ordering", f"2<=m<={s.bounds.mn}, all k", ok, worst)


def _check_min_equality_case(s: _Session) -> CheckResult:
    """The two dilatations that coincide do so exactly: the defining
    polynomials share a factor, and each polynomial's greatest real root is
    the greatest real root of that common factor."""
    beta_poly = families.closed_form_poly(FamilyParams(Family.BETA, 2, 3))
    sigma_poly = families.closed_form_poly(FamilyParams(Family.SIGMA, 1, 4))
    shared = poly_gcd(beta_poly, sigma_poly)
    ok = shared.degree is not None and shared.degree >= 1
    if ok:
        enc = spectral.largest_real_root(shared, Fraction(1), s.tol, s.prec)
        bound = Fraction(10)
        for f in (beta_poly, sigma_poly):
            chain = spectral.sturm_chain(squarefree_part(f))
            above = spectral.count_roots_between(chain, enc.upper, bound)
            inside = spectral.count_roots_between(chain, enc.lower, enc.upper)
            ok &= above == 0 and inside == 1
    return CheckResult("min-equality-m2", "beta(2,3) vs sigma(1,4)", ok, _exact(ok))


def _check_singularity_balance(s: _Session) -> CheckResult:
    ok = True
    for p in s.pa_params(s.bounds.mn):
        ok &= families.singularity_data(p).euler_poincare_sum() == 4
    return CheckResult("singularity-balance", f"pA m,n<={s.bounds.mn}", ok, _exact(ok))


def _check_mahler_base(s: _Session) -> CheckResult:
    ok = True
    worst = None
    for m in range(1, s.bounds.rm + 1):
        err = abs(float(spectral.mahler_measure(families.r_poly(m), tol=1e-10)) - 2.0)
        slack = 1e-8 - err
        worst = slack if worst is None else min(worst, slack)
        ok &= slack >= 0
    return CheckResult("mahler-base", f"m<={s.bounds.rm}", ok, worst)


def _check_root_count_law(s: _Session) -> CheckResult:
    ok = True
    worst = None
    for m in range(1, s.bounds.count_m + 1):
        base = families.r_poly(m)
        allowed = spectral.count_outside_unit(base, tol=1e-9).outside
        for n in range(0, s.bounds.count_n + 1):
            for sign in (Sign.PLUS, Sign.MINUS):
                q = salem_boyd(SalemBoydSpec(base, n, sign))
                got = spectral.count_outside_unit(q, tol=1e-9).outside
                slack = float(allowed - got)
                worst = slack if worst is None else min(worst, slack)
                ok &= got <= allowed
    return CheckResult(
        "root-count-law", f"m<={s.bounds.count_m}, n<={s.bounds.count_n}", ok, worst
    )


def _check_mahler_convergence(s: _Session) -> CheckResult:
    # Qualitative limit check.  The deviation must shrink from n=10 to n=80
    # for every base; the 1e-2 quantitative bound is only meaningful once all
    # of the base's off-circle roots have been resolved by the combination
    # polynomial, which for the m=4 base (complex pair at modulus 1.0139)
    # happens only for n in the several hundreds, so that bound is asserted
    # for m <= 3.
    ok = True
    worst = None
    for m in range(1, s.bounds.conv_m + 1):
        base = families.r_poly(m)
        for sign in (Sign.PLUS, Sign.MINUS):
            early = abs(float(spectral.mahler_measure(salem_boyd(SalemBoydSpec(base, 10, sign)), 1e-10)) - 2.0)
            late = abs(float(spectral.mahler_measure(salem_boyd(SalemBoydSpec(base, 80, sign)), 1e-10)) - 2.0)
            slack = early - late + 1e-12
            if m <= 3:
                slack = min(slack, 1e-2 - late)
            worst = slack if worst is None else min(worst, slack)
            ok &= slack >= 0
    return CheckResult("mahler-convergence", f"m<={s.bounds.conv_m}, n=80", ok, worst)


def _check_core_root_monotone(s: _Session) -> CheckResult:
    ok = True
    worst = None
    prev = None
    for m in range(1, 14):
        enc = spectral.largest_real_root(families.r_poly(m), Fraction(1), s.tol, s.prec)
        if prev is not None:
            margin = _disjoint_below(enc, prev)
            worst = margin if worst is None else min(worst, margin)
            ok &= margin > 0
        prev = enc
    return CheckResult("core-root-monotone", "m<=13", ok, worst)


def _check_minimizer_bounds(s: _Session) -> CheckResult:
    ok = True
    worst = None
    for g in range(2, s.bounds.g + 1):
        report = families.minimizer(g, s.tol, s.prec)
        ok &= report.lower_bound_ok and report.upper_bound_ok and report.core_sign_change_ok
        slack = 1e-8 - max(report.core_residual, report.power_identity_residual)
        worst = slack if worst is None else min(worst, slack)
        ok &= slack >= 0
    return CheckResult("minimizer-bounds", f"2<=g<={s.bounds.g}", ok, worst)


def _check_horseshoe_roundtrip(s: _Session) -> CheckResult:
    ok = True
    for m in range(1, 6):
        for n in range(m + 2, 13):
            code_a, code_b = horseshoe.family_to_codes(m, n)
            for code, form in ((code_a, "A"), (code_b, "B")):
                ok &= len(code) == m + n + 1
                match = horseshoe.code_to_family(code)
                ok &= match == horseshoe.FamilyMatch(m, n, form)
                shifted = code[3:] + code[:3]
                ok &= horseshoe.code_to_family(shifted) == match
    return CheckResult("horseshoe-roundtrip", "m<=5, n<=12", ok, _exact(ok))


def _check_enclosure_certificates(s: _Session) -> CheckResult:
    ok = True
    for p in s.pa_params(min(s.bounds.mn, 4)):
        res = s.dil(p.family, p.m, p.n)
        ok &= res.root.certified
        ok &= res.defining_poly.sign_at(res.root.lower) * res.defining_poly.sign_at(res.root.upper) < 0
    return CheckResult("enclosure-certificates", f"pA m,n<={min(s.bounds.mn, 4)}", ok, _exact(ok))


_CHECKS = [
    _check_reciprocal_involution,
    _check_salem_boyd_symmetry,
    _check_salem_boyd_shift,
    _check_salem_boyd_degree,
    _check_charpoly_spot,
    _check_charpoly_block_triangular,
    _check_matrix_oracle,
    _check_kernel_vector,
    _check_irreducible_support,
    _check_perron_agreement,
    _check_dilatation_symmetry,
    _check_beta_monotone,
    _check_sigma_monotone,
    _check_beta_above_sigma,
    _check_min_ordering,
    _check_min_equality_case,
    _check_singularity_balance,
    _check_mahler_base,
    _check_root_count_law,
    _check_mahler_convergence,
    _check_core_root_monotone,
    _check_minimizer_bounds,
    _check_horseshoe_roundtrip,
    _check_enclosure_certificates,
]


def run_verify(depth: str = "quick", tol: float = 1e-9, prec: int = spectral.DEFAULT_PREC_BITS) -> VerifyReport:
    """Run every registered check at the given depth, tolerance and witness precision."""
    if depth not in _DEPTHS:
        raise ValueError(f"depth must be one of {sorted(_DEPTHS)}")
    session = _Session(_DEPTHS[depth], tol, prec)
    results = [check(session) for check in _CHECKS]
    return VerifyReport(depth, results)
