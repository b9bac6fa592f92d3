"""Certified root enclosures, full root sets, Mahler measure, circle census."""

import math
import random
import re
from fractions import Fraction

import pytest
from mpmath import mp

from pabraid import cli, spectral
from pabraid.families import r_matrix, r_poly
from pabraid.linalg import perron_root
from pabraid.poly import IntPolynomial, SalemBoydSpec, Sign, cauchy_root_bound, salem_boyd, squarefree_part
from pabraid.spectral import (
    ConvergenceError,
    NoRealRootError,
    all_roots,
    count_outside_unit,
    count_roots_between,
    largest_real_root,
    mahler_measure,
    sturm_chain,
    to_witness,
)

R1 = IntPolynomial([-2, -1, 1])
T11 = IntPolynomial([1, -1, -4, -1, 1])
ZHIROV = IntPolynomial([1, -1, -1, -1, 1])  # x^4 - x^3 - x^2 - x + 1


def bisect_root(f, lo, hi, steps=80):
    """Independent plain-float bisection oracle for a bracketed simple root."""
    flo = f(lo)
    for _ in range(steps):
        mid = (lo + hi) / 2
        fm = f(mid)
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return (lo + hi) / 2


def test_largest_real_root_quartic_equals_closed_form():
    enc = largest_real_root(T11, Fraction(1), 1e-9)
    golden_sq = (3 + math.sqrt(5)) / 2
    assert abs(float(enc.witness) - golden_sq) <= 1e-9
    assert enc.certified
    assert T11.sign_at(enc.lower) * T11.sign_at(enc.upper) < 0
    assert float(enc.width) <= 1e-9


def test_largest_real_root_hits_exact_rational_root():
    enc = largest_real_root(R1, Fraction(1), 1e-9)
    assert enc.lower < 2 < enc.upper
    assert enc.certified
    # root 0 is the first midpoint; the roots -1/4 and -3/4 halve delta to 1/8
    enc = largest_real_root(IntPolynomial([0, 3, 16, 16]), None, 2.0)
    assert (enc.lower, enc.upper) == (Fraction(-1, 8), Fraction(1, 8))


def test_largest_real_root_zhirov_anchor():
    oracle = bisect_root(lambda x: x**4 - x**3 - x**2 - x + 1, 1.5, 2.0)
    enc = largest_real_root(ZHIROV, Fraction(1), 1e-9)
    assert abs(float(enc.witness) - 1.72208) <= 1e-5
    assert abs(float(enc.witness) - oracle) <= 1e-9


def test_largest_real_root_reports_absence():
    with pytest.raises(NoRealRootError):
        largest_real_root(IntPolynomial([1, 0, 1]), Fraction(0), 1e-9)  # t^2 + 1
    with pytest.raises(NoRealRootError):
        largest_real_root(R1, Fraction(2), 1e-9)  # nothing strictly above 2


def test_largest_real_root_lower_end_passes_a_rational_root():
    # roots 0 and 3/16: the midpoint 0 is met first, and at width 19/64 the
    # interval would still start at it, so bisection goes one level deeper
    enc = largest_real_root(IntPolynomial([0, -3, 16]), None, 0.3)
    assert (enc.lower, enc.upper) == (Fraction(19, 128), Fraction(19, 64))
    assert enc.certified


def test_largest_real_root_floor_none_finds_greatest_overall():
    f = IntPolynomial([1, 1]) * IntPolynomial([3, 1])  # roots -1, -3
    enc = largest_real_root(f, None, 1e-9)
    assert enc.lower < -1 < enc.upper


@pytest.mark.parametrize("root", [Fraction(3, 2**100), Fraction(1, 3 * 2**100)], ids=["dyadic", "non-dyadic"])
@pytest.mark.parametrize("prec", [53, 128, 256])
def test_witness_of_a_tiny_root_has_full_relative_precision(prec, root):
    # the witness takes at least 128 bits, and more as tol narrows below the root
    tol = 2.0 ** -(prec + 40)
    linear = IntPolynomial([-root.numerator, root.denominator])
    enc = largest_real_root(linear * IntPolynomial([1, 0, 1]), None, tol)
    assert enc.width <= Fraction(tol)
    assert abs(enc.witness - root) <= root / 2 ** (max(prec, 128) - 1)


def _mpf_value(x) -> Fraction:
    """The exact value of an mpmath mpf (``man_exp`` carries no sign)."""
    man, exp = x.man_exp
    return Fraction(-man if x < 0 else man) * Fraction(2) ** exp


@pytest.mark.parametrize("prec", [53, 128, 256])
def test_to_witness_rounds_dyadics_like_mpmath(prec):
    # mpmath rounds a dyadic once, to nearest with ties to even
    rng = random.Random(prec)
    for _ in range(300):
        bits = rng.randint(60, 400)
        num = (rng.getrandbits(bits) | 1 << (bits - 1)) * rng.choice([-1, 1])
        x = Fraction(num) * Fraction(2) ** rng.randint(-500, 100)
        with mp.workprec(prec):
            expected = _mpf_value(mp.mpf(x.numerator) / x.denominator)
        assert to_witness(x, prec) == expected, (x, prec)


def test_to_witness_ties_to_even_and_edge_values():
    half_way = Fraction(2**53 + 1, 2**60)  # between 2^53 and 2^53 + 2 units
    assert to_witness(half_way, 53) == Fraction(2**53, 2**60)
    assert to_witness(Fraction(2**53 + 3, 2**60), 53) == Fraction(2**53 + 4, 2**60)
    assert to_witness(-half_way, 53) == -Fraction(2**53, 2**60)
    assert to_witness(Fraction(2**54 - 1), 53) == 2**54  # rounding up carries into a new bit
    assert to_witness(Fraction(0), 53) == 0
    assert to_witness(Fraction(-1, 3), 53) == Fraction(-1 / 3)  # a double is correctly rounded
    assert to_witness(Fraction(-1, 3), 128) == -to_witness(Fraction(1, 3), 128)


@pytest.mark.parametrize("m", [3, 6, 12])
def test_to_witness_rounds_a_non_dyadic_once(m):
    # mpmath's mpf(num) / den rounds the numerator first and then the
    # quotient; at these Perron midpoints that lands one unit off
    mid = perron_root(r_matrix(m), 1e-9).midpoint
    once = to_witness(mid, 53)
    assert once == Fraction(float(mid))
    with mp.workprec(53):
        twice = _mpf_value(mp.mpf(mid.numerator) / mid.denominator)
    assert twice != once
    assert abs(once - mid) < abs(twice - mid)


def test_largest_real_root_input_validation():
    with pytest.raises(ValueError):
        largest_real_root(IntPolynomial(), Fraction(0), 1e-9)
    with pytest.raises(ValueError):
        largest_real_root(T11, Fraction(1), -1.0)


def _isolation_corpus(rng):
    for _ in range(100):
        deg = rng.randint(1, 12)
        yield IntPolynomial([rng.randint(-9, 9) for _ in range(deg)] + [rng.choice([-3, -2, -1, 1, 2, 3])])
    for _ in range(100):  # rational roots, some of them double
        f = IntPolynomial([1])
        for _ in range(rng.randint(1, 5)):
            linear = IntPolynomial([rng.randint(-12, 12), rng.randint(1, 4)])
            f = f * linear * (linear if rng.random() < 0.3 else IntPolynomial([1]))
        yield f


def test_largest_real_root_agrees_with_sturm_count():
    rng = random.Random(20261018)
    for f in _isolation_corpus(rng):
        chain = sturm_chain(squarefree_part(f))
        bound = cauchy_root_bound(f)
        for floor in (None, 0, 1, -1, Fraction(1, 2)):
            tol = rng.choice([1e-9, 1e-3, 0.3, 2.0])
            lowest = -bound if floor is None else Fraction(floor)
            if count_roots_between(chain, lowest, bound) == 0:
                with pytest.raises(NoRealRootError):
                    largest_real_root(f, floor, tol)
                continue
            enc = largest_real_root(f, floor, tol)
            assert f.sign_at(enc.lower) != 0 and f.sign_at(enc.upper) != 0
            assert count_roots_between(chain, enc.lower, enc.upper) == 1
            assert count_roots_between(chain, enc.upper, bound) == 0
            assert floor is None or enc.lower > floor


def test_all_roots_simple_cases():
    roots = all_roots(IntPolynomial([-1, 0, 1]))  # t^2 - 1
    values = sorted(float(mp.re(r.value)) for r in roots)
    assert values == pytest.approx([-1.0, 1.0], abs=1e-20)
    roots = all_roots(R1)
    values = sorted(float(mp.re(r.value)) for r in roots)
    assert values == pytest.approx([-1.0, 2.0], abs=1e-20)


def test_all_roots_reports_multiplicity_and_residuals():
    roots = all_roots(T11)
    assert len(roots) == 4
    mults = sorted(r.multiplicity for r in roots)
    assert mults == [1, 1, 2, 2]
    golden_sq = (3 + math.sqrt(5)) / 2
    golden_inv = (3 - math.sqrt(5)) / 2
    reals = sorted(float(mp.re(r.value)) for r in roots)
    assert reals == pytest.approx([-1.0, -1.0, golden_inv, golden_sq], abs=1e-12)
    assert all(float(r.residual) < 1e-20 for r in roots)


def test_all_roots_with_zero_constant_term():
    roots = all_roots(IntPolynomial([0, -1, 0, 1]))  # t^3 - t
    values = sorted((complex(r.value) for r in roots), key=lambda z: z.real)
    assert [v.real for v in values] == pytest.approx([-1.0, 0.0, 1.0], abs=1e-30)
    assert all(abs(v.imag) <= 1e-30 for v in values)
    assert all(float(r.residual) < 1e-20 for r in roots)


def test_all_roots_with_widely_spread_moduli():
    f = IntPolynomial([-1000, 1]) * IntPolynomial([-1, 1000]) * IntPolynomial([1, 0, 1])
    # +-1j differ in their real parts' noise only, so sort those as equal
    values = sorted((complex(r.value) for r in all_roots(f)), key=lambda z: (round(z.real, 12), z.imag))
    expected = [-1j, 1j, 0.001, 1000]
    assert all(abs(v - e) <= 1e-20 * (1 + abs(e)) for v, e in zip(values, expected))


# degree 22: a squarefree factor of degree 20 times (t + 1)^2
SB20 = salem_boyd(SalemBoydSpec(R1, 20, Sign.PLUS))


@pytest.fixture
def aberth_passes(monkeypatch):
    """Records each Aberth pass as (stage, freeze threshold); ``cut[stage]``
    caps the sweeps of that stage's first pass."""
    aberth, passes, cut = spectral._aberth, [], {}

    def recorded(step, zs, tiny, iters):
        first = step.__name__ not in [stage for stage, _ in passes]
        passes.append((step.__name__, tiny))
        aberth(step, zs, tiny, min(iters, cut.get(step.__name__, iters)) if first else iters)

    monkeypatch.setattr(spectral, "_aberth", recorded)
    return passes, cut


def test_all_roots_decomposes_once_below_the_bits_its_target_needs(monkeypatch):
    # the start takes the bits the 1e-18 target needs instead of retrying
    # the whole root set
    decompose, calls = spectral.squarefree_decomposition, []
    monkeypatch.setattr(spectral, "squarefree_decomposition", lambda f: calls.append(f) or decompose(f))
    roots = all_roots(SB20, 1e-18)
    assert len(calls) == 1
    assert len(roots) == SB20.degree and all(r.residual < 1e-18 for r in roots)


def test_all_roots_escalates_in_place(aberth_passes):
    passes, cut = aberth_passes
    cut["refine"] = 1  # the first refinement pass stops after one sweep
    roots = all_roots(SB20, 1e-20)
    assert all(r.residual < 1e-20 for r in roots)
    stages = [stage for stage, _ in passes]
    assert stages.count("warm") == 2  # one per squarefree factor
    assert stages[:3] == ["warm", "refine", "refine"]  # escalated, not restarted
    assert passes[1][1] == 2.0 ** (16 - 86)  # the bits 1e-20 needs
    assert passes[2][1] == 2.0 ** (16 - 172)


@pytest.mark.parametrize("bits", [128, 200])
def test_all_roots_fails_only_after_a_pass_at_the_cap(aberth_passes, bits):
    # two real roots about 1.4e-22 apart near 1/100 converge to one point;
    # from 128 bits the doubling lands on 1024, from 200 it is clamped there
    passes, _ = aberth_passes
    target = 2.0 ** (19 - bits)  # the finest target that starts at `bits`
    f = IntPolynomial([-2, 400, -20000] + [0] * 17 + [1])  # t^20 - 2 (100 t - 1)^2
    with pytest.raises(ConvergenceError, match=re.escape(f"residuals above {target} even at 1024 bits")):
        all_roots(f, target)
    assert passes[1] == ("refine", 2.0 ** (16 - bits))
    assert passes[-1] == ("refine", 2.0 ** (16 - 1024))


@pytest.mark.parametrize(
    "m, sign, expected",
    [
        (1, Sign.PLUS, 2.0),
        (1, Sign.MINUS, 2.0),
        (2, Sign.PLUS, 2.0002750726645053),
        (2, Sign.MINUS, 1.9997515410686388),
    ],
)
def test_mahler_measure_of_long_combination_is_pinned(m, sign, expected):
    # exact to the last double: a refinement stopped short of full
    # precision moves these
    q = salem_boyd(SalemBoydSpec(r_poly(m), 80, sign))
    assert float(mahler_measure(q, 1e-10)) == expected


def test_all_roots_validation():
    with pytest.raises(ValueError):
        all_roots(IntPolynomial())
    with pytest.raises(ValueError):
        all_roots(IntPolynomial([3]))


def test_mahler_measure_simple_values():
    assert float(mahler_measure(IntPolynomial([-1, 1]))) == pytest.approx(1.0, abs=1e-12)
    assert float(mahler_measure(T11)) == pytest.approx(2.618034, abs=1e-6)


@pytest.mark.parametrize("tol", [1e-45, 1e-60])
def test_mahler_measure_meets_a_fine_tol(tol):
    # M(t^2 - t - 1) is the golden ratio, the root of M^2 - M - 1
    m = mahler_measure(IntPolynomial([-1, -1, 1]), tol)
    assert abs(m * m - m - 1) < tol


def test_census_examples():
    census = count_outside_unit(T11)
    assert (census.outside, census.on_circle, census.inside) == (1, 2, 1)
    census = count_outside_unit(IntPolynomial([1, 1, 1]))  # t^2 + t + 1
    assert (census.outside, census.on_circle, census.inside) == (0, 2, 0)
    census = count_outside_unit(R1)
    assert (census.outside, census.on_circle, census.inside) == (1, 1, 0)
    assert census.total == R1.degree


def test_census_compares_moduli_exactly():
    # the root of 2^30 t - (2^30 + 1) has modulus exactly 1 + 2^-30, outside at every tol
    f = IntPolynomial([-(2**30 + 1), 2**30])
    for tol in (2.0**-30 + 2.0**-60, 2.0**-30 - 2.0**-60, 0.5):
        census = count_outside_unit(f, tol=tol)
        assert (census.outside, census.on_circle, census.inside) == (1, 0, 0)
    # the root of t is inside, whatever the tol
    census = count_outside_unit(IntPolynomial([0, 1]), tol=2.0)
    assert (census.outside, census.on_circle, census.inside) == (0, 0, 1)


def _product(*factors):
    out = IntPolynomial.one()
    for factor in factors:
        out = out * IntPolynomial(factor)
    return out


@pytest.mark.parametrize("f, expected", [
    (_product([0, 0, 0, -2, 1]), (1, 0, 3)),  # t^3 (t - 2)
    (_product([1, 0, 1], [1, 0, 1]), (0, 4, 0)),  # (t^2 + 1)^2
    (_product([-1, 1], [-1, 1], [-1, 1], [1, 1], [1, 1]), (0, 5, 0)),  # (t - 1)^3 (t + 1)^2
    (_product([-2, 1], [-2, 1], [-1, 2]), (2, 0, 1)),  # a reciprocal pair of unequal multiplicity
    (_product([3, 1, 1], [-1, 2]), (2, 0, 1)),  # h of odd degree
    (_product([3, 1, 1], [1, 1, 4]), (2, 0, 2)),  # h of even degree
    (_product([3, 1, 1], [1, 1, 3], [1, 1, 1], [-5, 1]), (3, 2, 2)),  # both parts at once
], ids=["zeros", "double-pair", "plus-minus-one", "unequal-pair", "odd-h", "even-h", "mixed"])
def test_census_of_exact_cases(f, expected):
    census = count_outside_unit(f)
    assert (census.outside, census.on_circle, census.inside) == expected


def _numeric_census(f):
    """Census from the Aberth root set, with a 1e-9 band around the circle."""
    counts = {"outside": 0, "on_circle": 0, "inside": 0}
    for r in all_roots(f, 1e-18):
        gap = r.real**2 + r.imag**2 - 1
        counts["outside" if gap > 1e-9 else "inside" if gap < -1e-9 else "on_circle"] += 1
    return counts["outside"], counts["on_circle"], counts["inside"]


def _census_sweep():
    rng = random.Random(19)
    for _ in range(120):
        degree = rng.randint(1, 14)
        yield IntPolynomial([rng.randint(-3, 3) for _ in range(degree)] + [rng.choice([-2, -1, 1, 2])])
    for text in ("-2,-1,1", "-2,0,0,-1,1", "-1,-1,0,1", "1,-1,-1,0,1"):
        base = IntPolynomial.from_text(text)
        yield base
        for n in range(41):
            for sign in (Sign.PLUS, Sign.MINUS):
                yield salem_boyd(SalemBoydSpec(base, n, sign))


def test_census_matches_the_numeric_census_on_a_seeded_sweep():
    # the last two bases make classical Schur-Cohn singular
    for f in _census_sweep():
        if f.degree:
            census = count_outside_unit(f)
            assert (census.outside, census.on_circle, census.inside) == _numeric_census(f), f


def test_census_computes_no_root_set(monkeypatch, tmp_path):
    calls = []

    def counted(f, *args, **kwargs):
        calls.append(f.degree)
        return all_roots(f, *args, **kwargs)

    monkeypatch.setattr(spectral, "all_roots", counted)
    for n in range(41):
        count_outside_unit(salem_boyd(SalemBoydSpec(R1, n, Sign.PLUS)))
    assert calls == []
    base = tmp_path / "base.txt"
    base.write_text("-2,-1,1\n")
    assert cli.main(["salem-boyd", str(base), "40"]) == 0
    assert len(calls) == 42  # one Mahler measure per row, none for the census


def test_census_counts_outside_complex_roots():
    # the m=2 core polynomial has a complex pair strictly outside the circle
    census = count_outside_unit(r_poly(2))
    assert (census.outside, census.on_circle, census.inside) == (3, 0, 0)


def test_sturm_chain_counts_distinct_roots():
    f = IntPolynomial([-1, 1]) * IntPolynomial([-2, 1]) * IntPolynomial([-3, 1])
    chain = sturm_chain(f)
    assert count_roots_between(chain, Fraction(0), Fraction(4)) == 3
    assert count_roots_between(chain, Fraction(3, 2), Fraction(4)) == 2
    assert count_roots_between(chain, Fraction(7, 2), Fraction(4)) == 0


def test_core_root_sequence_strictly_decreasing():
    prev = None
    for m in range(1, 14):
        enc = largest_real_root(r_poly(m), Fraction(1), 1e-10)
        assert enc.certified
        if prev is not None:
            assert enc.upper < prev.lower  # disjoint certified enclosures
        prev = enc


def test_enclosure_certificate_is_checkable():
    enc = largest_real_root(S := salem_boyd(SalemBoydSpec(r_poly(2), 6, Sign.MINUS)), Fraction(1), 1e-9)
    assert enc.certified
    assert S.sign_at(enc.lower) * S.sign_at(enc.upper) < 0
    sf = squarefree_part(S)
    assert sf.sign_at(enc.lower) * sf.sign_at(enc.upper) < 0
