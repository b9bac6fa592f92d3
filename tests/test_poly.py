"""Exact polynomial arithmetic, reciprocals and shifted combinations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pabraid.poly import (
    IntPolynomial,
    SalemBoydSpec,
    Sign,
    SymmetryClass,
    cauchy_root_bound,
    poly_gcd,
    reciprocal,
    salem_boyd,
    squarefree_decomposition,
    squarefree_part,
    symmetry_class,
)

R1 = IntPolynomial([-2, -1, 1])  # t^2 - t - 2
T11 = IntPolynomial([1, -1, -4, -1, 1])
S13 = IntPolynomial([-1, 1, 2, 0, -2, -1, 1])


def test_normalization_drops_trailing_zeros():
    assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPolynomial([0, 0]).is_zero()
    assert IntPolynomial([]).degree is None


def test_degree_of_zero_is_sentinel_not_integer():
    assert IntPolynomial().degree is None
    assert IntPolynomial([7]).degree == 0


def test_arithmetic_add_cancellation():
    assert IntPolynomial([1, 1]) + IntPolynomial([-1, 1]) == IntPolynomial([0, 2])


def test_arithmetic_mul_identity():
    assert R1 * IntPolynomial([1]) == R1


def test_arithmetic_shift_by_power():
    assert R1.shift(2) == IntPolynomial([0, 0, -2, -1, 1])


def test_arithmetic_sub_to_zero():
    assert (R1 - R1).is_zero()


def test_evaluate_exact_points():
    assert R1(1) == -2
    assert R1(2) == 0
    assert T11(0) == 1
    assert R1(Fraction(1, 2)) == Fraction(-9, 4)


def test_product_degree_adds():
    f = IntPolynomial([1, 2, 3])
    g = IntPolynomial([-5, 0, 0, 7])
    assert (f * g).degree == f.degree + g.degree


def test_reciprocal_examples():
    assert reciprocal(R1) == IntPolynomial([1, -1, -2])
    assert reciprocal(IntPolynomial([5])) == IntPolynomial([5])
    assert reciprocal(T11) == T11
    with pytest.raises(ValueError):
        reciprocal(IntPolynomial())


def test_salem_boyd_matches_hand_expansion():
    # t^2 (t^2 - t - 2) + (1 - t - 2 t^2)
    assert salem_boyd(SalemBoydSpec(R1, 2, Sign.PLUS)) == T11
    # t^4 (t^2 - t - 2) - (1 - t - 2 t^2)
    assert salem_boyd(SalemBoydSpec(R1, 4, Sign.MINUS)) == S13
    assert salem_boyd(SalemBoydSpec(R1, 0, Sign.PLUS)) == IntPolynomial([-1, -2, -1])


def test_salem_boyd_rejects_non_monic():
    with pytest.raises(ValueError):
        SalemBoydSpec(IntPolynomial([1, 2]), 1, Sign.PLUS)


def test_symmetry_class_examples():
    assert symmetry_class(T11) is SymmetryClass.RECIPROCAL
    assert symmetry_class(S13) is SymmetryClass.ANTI_RECIPROCAL
    assert symmetry_class(R1) is SymmetryClass.NEITHER
    with pytest.raises(ValueError):
        symmetry_class(IntPolynomial())


small_polys = st.builds(
    IntPolynomial,
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=9),
)

monic_polys = st.builds(
    lambda cs: IntPolynomial(cs + [1]),
    st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=7),
)


@given(small_polys)
def test_reciprocal_involution(f):
    if f.is_zero() or f.constant == 0:
        return
    assert reciprocal(reciprocal(f)) == f


@given(monic_polys, st.integers(min_value=0, max_value=8), st.sampled_from(list(Sign)))
@settings(max_examples=120)
def test_salem_boyd_always_symmetric(base, n, sign):
    q = salem_boyd(SalemBoydSpec(base, n, sign))
    if q.is_zero():
        # full cancellation happens only at n=0 for a base equal to -+ its reversal
        rev = reciprocal(base)
        assert n == 0 and rev == (base if sign is Sign.MINUS else -base)
        return
    if q.degree == n + base.degree:
        assert symmetry_class(q) is not SymmetryClass.NEITHER


@given(monic_polys, st.integers(min_value=0, max_value=8), st.sampled_from(list(Sign)))
@settings(max_examples=120)
def test_salem_boyd_shift_identity(base, n, sign):
    q_n = salem_boyd(SalemBoydSpec(base, n, sign))
    q_n1 = salem_boyd(SalemBoydSpec(base, n + 1, sign))
    rev = reciprocal(base)
    assert q_n1 - q_n.shift(1) == sign.factor * (rev - rev.shift(1))


def test_text_round_trip():
    assert IntPolynomial.from_text("-2,-1,1") == R1
    assert IntPolynomial.from_text("0").is_zero()
    # unicode minus tolerated on input
    assert IntPolynomial.from_text("−2,−1,1") == R1


def test_json_round_trip_big_ints_as_strings():
    big = 2**60
    f = IntPolynomial([big, -1, 1])
    data = f.to_json_data()
    assert data[0] == str(big) and data[1] == -1


def test_divexact_and_gcd():
    prod = R1 * T11
    assert prod.divexact(R1) == T11
    with pytest.raises(ValueError):
        T11.divexact(R1)
    # R1 = (t-2)(t+1), T11 has a double root at -1, S13 a simple one
    g = poly_gcd(R1 * T11, R1 * S13)
    assert g == R1 * IntPolynomial([1, 1])
    assert poly_gcd(R1, IntPolynomial([1])).degree == 0


def test_squarefree_decomposition_recovers_multiplicities():
    t_minus_1 = IntPolynomial([-1, 1])
    t_plus_1 = IntPolynomial([1, 1])
    f = t_minus_1 * t_minus_1 * t_minus_1 * t_plus_1 * t_plus_1
    decomp = squarefree_decomposition(f)
    assert (t_plus_1, 2) in decomp and (t_minus_1, 3) in decomp
    sf = squarefree_part(f)
    assert sf == t_minus_1 * t_plus_1 or sf == -(t_minus_1 * t_plus_1)


def test_cauchy_bound_dominates_roots():
    b = cauchy_root_bound(R1)
    assert b == 3  # 1 + 2/1
    assert R1.sign_at(b) > 0


def test_sign_at_matches_exact_evaluation():
    for num in range(-8, 9):
        for den in (1, 2, 3, 7):
            x = Fraction(num, den)
            v = S13(x)
            assert S13.sign_at(x) == (v > 0) - (v < 0)
