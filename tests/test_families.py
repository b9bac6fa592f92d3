"""Family constructors, classification, dilatations, prong data, minimizer."""

import math
from fractions import Fraction

import pytest
from mpmath import mp

from pabraid import cli, linalg, verify
from pabraid.families import (
    Family,
    FamilyParams,
    OracleMismatchError,
    Provenance,
    TNKind,
    classify,
    closed_form_poly,
    dilatation,
    kernel_vector,
    minimizer,
    orientable_lift,
    r_matrix,
    r_poly,
    singularity_data,
    transition_matrix,
)
from pabraid.linalg import IntMatrix, char_poly
from pabraid.poly import IntPolynomial, cauchy_root_bound, poly_gcd, squarefree_part
from pabraid.spectral import count_roots_between, largest_real_root, sturm_chain


def beta(m, n):
    return FamilyParams(Family.BETA, m, n)


def sigma(m, n):
    return FamilyParams(Family.SIGMA, m, n)


# -- classification -----------------------------------------------------------


def test_classification_table():
    assert classify(sigma(3, 3)) is TNKind.PERIODIC
    assert classify(sigma(2, 3)) is TNKind.REDUCIBLE
    assert classify(sigma(3, 2)) is TNKind.REDUCIBLE
    assert classify(sigma(1, 3)) is TNKind.PSEUDO_ANOSOV
    assert classify(beta(7, 2)) is TNKind.PSEUDO_ANOSOV
    assert classify(beta(1, 1)) is TNKind.PSEUDO_ANOSOV


def test_params_validation():
    with pytest.raises(ValueError):
        FamilyParams(Family.BETA, 0, 1)
    with pytest.raises(ValueError):
        FamilyParams(Family.SIGMA, 1, -2)


# -- core polynomial and matrices ----------------------------------------------


def test_r_poly_values():
    assert r_poly(1) == IntPolynomial([-2, -1, 1])
    assert r_poly(2) == IntPolynomial([-2, 0, -1, 1])


def test_closed_form_examples():
    assert closed_form_poly(beta(1, 1)) == IntPolynomial([1, -1, -4, -1, 1])
    assert closed_form_poly(sigma(1, 3)) == IntPolynomial([-1, 1, 2, 0, -2, -1, 1])


def test_closed_form_rejects_non_pa_with_kind():
    with pytest.raises(ValueError, match="periodic"):
        closed_form_poly(sigma(2, 2))
    with pytest.raises(ValueError, match="reducible"):
        closed_form_poly(sigma(4, 3))


def test_sigma_normalization_gives_single_polynomial():
    assert closed_form_poly(sigma(3, 1)) == closed_form_poly(sigma(1, 3))
    assert transition_matrix(sigma(3, 1)) == transition_matrix(sigma(1, 3))


def test_beta_closed_form_is_symmetric_in_parameters():
    for m in range(1, 6):
        for n in range(1, 6):
            assert closed_form_poly(beta(m, n)) == closed_form_poly(beta(n, m))


def test_equal_dilatation_pair_shares_essential_factor():
    """The two members with equal dilatation have *different* defining
    polynomials; the equality is carried by a common degree-5 factor:
    beta(2,3) = (t^2+1) h and sigma(1,4) = (t^2-1) h."""
    t_poly = closed_form_poly(beta(2, 3))
    s_poly = closed_form_poly(sigma(1, 4))
    h = IntPolynomial([1, -1, -1, -1, -1, 1])
    assert t_poly == h * IntPolynomial([1, 0, 1])
    assert s_poly == h * IntPolynomial([-1, 0, 1])
    assert t_poly != s_poly
    shared = poly_gcd(t_poly, s_poly)
    assert shared == h
    # both greatest roots are the greatest root of h, hence exactly equal
    enc = largest_real_root(h, Fraction(1), 1e-12)
    for f in (t_poly, s_poly):
        chain = sturm_chain(squarefree_part(f))
        assert count_roots_between(chain, enc.upper, Fraction(10)) == 0
        assert count_roots_between(chain, enc.lower, enc.upper) == 1


def test_dilatation_enclosure_is_first_dyadic_interval_at_tol():
    tol = Fraction(1e-9)
    for family in Family:
        for m in range(1, 13):
            for n in range(1, 13):
                p = FamilyParams(family, m, n)
                if classify(p) is not TNKind.PSEUDO_ANOSOV:
                    continue
                res = dilatation(p, 1e-9, cross_validate=False)
                f, root = res.defining_poly, res.root
                width = cauchy_root_bound(f) - 1
                while width > tol:
                    width /= 2
                assert root.width == width
                assert ((root.lower - 1) / width).denominator == 1
                assert root.lower > 1
                assert f.sign_at(root.lower) * f.sign_at(root.upper) < 0


@pytest.mark.parametrize("tol", [0.5, 0.1, 1e-3])
def test_witness_changes_sign_at_coarse_tol(tol):
    # a Newton step that leaves the enclosure must not leave the midpoint
    # as the witness: f changes sign across w +/- 2^-(128-28) for every member
    delta = Fraction(1, 2 ** (128 - 28))
    for family in Family:
        for m in range(1, 13):
            for n in range(1, 13):
                p = FamilyParams(family, m, n)
                if classify(p) is not TNKind.PSEUDO_ANOSOV:
                    continue
                res = dilatation(p, tol, cross_validate=False)
                w = res.root.witness
                f = res.defining_poly
                assert f.sign_at(w - delta) * f.sign_at(w + delta) < 0, (p, tol)


def test_transition_matrix_beta_1_1_explicit():
    mat = transition_matrix(beta(1, 1))
    assert mat == IntMatrix([[0, 2, 1, 1], [1, 1, 2, 0], [0, 1, 0, 0], [0, 0, -1, 0]])
    assert char_poly(mat) == closed_form_poly(beta(1, 1))


def test_transition_matrix_upper_left_block_is_core():
    mat = transition_matrix(beta(2, 2))
    core = r_matrix(2)
    assert IntMatrix([row[:3] for row in mat.entries[:3]]) == core


def test_sigma_matrix_charpoly_equals_closed_form_with_unit_eigenvalue():
    mat = transition_matrix(sigma(1, 3))
    cp = char_poly(mat)
    closed = closed_form_poly(sigma(1, 3))
    assert cp == closed
    # eigenvalue 1 witnessed by the explicit fixed vector
    w = kernel_vector(1, 3)
    assert mat.mul_vector(w) == w
    # consistency: the closed form vanishes at 1
    assert closed.sign_at(1) == 0


def test_kernel_vector_examples():
    assert kernel_vector(1, 3) == (2, 1, -1, -1, -1, 1)
    assert kernel_vector(1, 4) == (2, 1, -1, -1, -1, -1, 1)
    with pytest.raises(ValueError):
        kernel_vector(2, 3)


@pytest.mark.parametrize("m, n", [(1, 1)], ids=["1-1"])
def test_matrix_oracle_small_grid(m, n):
    # one fast case outside `verify`; its matrix-vs-closed-form check sweeps
    # m, n <= 10
    for fam in (Family.BETA, Family.SIGMA):
        p = FamilyParams(fam, m, n)
        if classify(p) is not TNKind.PSEUDO_ANOSOV:
            continue
        assert char_poly(transition_matrix(p)) == closed_form_poly(p)


# -- dilatations ----------------------------------------------------------------


def test_dilatation_beta_1_1():
    res = dilatation(beta(1, 1))
    golden_sq = (3 + math.sqrt(5)) / 2
    assert abs(float(res.root.witness) - golden_sq) <= 1e-9
    assert res.provenance is Provenance.BOTH_AGREE
    assert res.root.certified
    assert res.root.lower > 1


def test_dilatation_sigma_1_3_equals_quartic_root():
    res = dilatation(sigma(1, 3))
    quartic = IntPolynomial([1, -1, -1, -1, 1])
    anchor = largest_real_root(quartic, Fraction(1), 1e-12)
    assert abs(float(res.root.witness) - float(anchor.witness)) <= 1e-5
    assert abs(float(res.root.witness) - 1.72208) <= 1e-5


def test_dilatation_sigma_2_5_anchor():
    res = dilatation(sigma(2, 5))
    assert abs(float(res.root.witness) - 1.5823) <= 1e-4


def test_dilatation_sigma_4_6_log_anchor():
    res = dilatation(sigma(4, 6))
    assert abs(math.log(float(res.root.witness)) - 0.240965) <= 1e-6


def test_matrix_oracle_demands_exact_equality(monkeypatch):
    # a different polynomial with the same greatest root must still be refused
    p = beta(2, 3)
    fake = closed_form_poly(p) * IntPolynomial([2, 1])
    monkeypatch.setattr(linalg, "char_poly", lambda mat: fake)
    with pytest.raises(OracleMismatchError):
        dilatation(p)
    assert cli.main(["dilatation", "beta", "2", "3"]) == cli.EXIT_ORACLE_MISMATCH


def test_verify_matrix_oracle_demands_exact_equality(monkeypatch):
    real = linalg.char_poly
    monkeypatch.setattr(linalg, "char_poly", lambda mat: real(mat) * IntPolynomial([2, 1]))
    session = verify._Session(verify._DEPTHS["quick"], 1e-9)
    passed, worst_margin = verify._fold(verify._matrix_oracle(session))
    assert not passed
    assert worst_margin == -1.0


def test_dilatation_non_pa_has_no_root():
    res = dilatation(sigma(2, 2))
    assert res.tn is TNKind.PERIODIC
    assert res.root is None and res.defining_poly is None and res.provenance is None


def test_dilatation_json_schema():
    data = dilatation(sigma(1, 3)).to_json_data()
    assert list(data) == ["family", "m", "n", "tn_class", "poly", "root", "provenance"]
    assert data["tn_class"] == "pseudo_anosov"
    assert list(data["root"]) == ["lower", "upper", "witness"]
    assert Fraction(data["root"]["lower"]) < Fraction(data["root"]["upper"])


# -- singularity data -------------------------------------------------------------


def test_singularity_data_beta_2_3():
    data = singularity_data(beta(2, 3))
    assert (data.p_prongs, data.q_prongs, data.p_infinity_prongs) == (3, 4, 1)
    assert data.marked_point_count == 6
    assert data.euler_poincare_sum() == 4


def test_singularity_data_sigma_1_3():
    data = singularity_data(sigma(1, 3))
    assert (data.p_prongs, data.q_prongs, data.p_infinity_prongs) == (2, None, 3)
    assert data.marked_point_count == 5
    assert data.euler_poincare_sum() == 4


def test_singularity_data_normalizes_sigma():
    assert singularity_data(sigma(3, 1)) == singularity_data(sigma(1, 3))


def test_singularity_data_rejects_non_pa():
    with pytest.raises(ValueError):
        singularity_data(sigma(4, 4))


@pytest.mark.parametrize("m", range(1, 8))
@pytest.mark.parametrize("n", range(1, 8))
def test_euler_poincare_balance_everywhere(m, n):
    for fam in (Family.BETA, Family.SIGMA):
        p = FamilyParams(fam, m, n)
        if classify(p) is TNKind.PSEUDO_ANOSOV:
            assert singularity_data(p).euler_poincare_sum() == 4


# -- orientability -----------------------------------------------------------------


def test_orientable_lift_rules():
    assert orientable_lift(beta(1, 1)) is True
    assert orientable_lift(beta(1, 2)) is False
    assert orientable_lift(beta(3, 5)) is True
    assert orientable_lift(sigma(4, 6)) is False
    assert orientable_lift(sigma(1, 4)) is True
    with pytest.raises(ValueError):
        orientable_lift(sigma(2, 2))


def _burau_at_minus_one(word, strands):
    """Unreduced Burau matrix at t = -1 of a word of signed generator indices,
    multiplied left to right: sigma_i acts on strands i, i+1 by [[2, -1], [1, 0]]
    and its inverse by [[0, 1], [-1, 2]]."""
    rows = [[int(i == j) for j in range(strands)] for i in range(strands)]
    for gen in word:
        (a, b), (c, d) = ((2, -1), (1, 0)) if gen > 0 else ((0, 1), (-1, 2))
        i = abs(gen) - 1
        for row in rows:
            row[i], row[i + 1] = row[i] * a + row[i + 1] * c, row[i] * b + row[i + 1] * d
    return IntMatrix(rows)


def _burau_says_orientable(p):
    """The lift to the branched double cover is orientable iff +-lambda is an
    eigenvalue of the Burau(-1) matrix: the gcd of the closed form with
    chi(t) or chi(-t) changes sign across the certified enclosure."""
    m, n = p.m, p.n
    word = list(range(1, m + 1)) + [-i for i in range(m + 1, m + n + 1)]
    if p.family is Family.SIGMA:  # the last strand passed once around the others
        word += list(range(m + n, 0, -1)) + list(range(1, m + n + 1))
    chi = char_poly(_burau_at_minus_one(word, m + n + 1))
    chi_neg = IntPolynomial([(-1) ** i * c for i, c in enumerate(chi.coeffs)])
    f, root = closed_form_poly(p), dilatation(p, cross_validate=False).root
    return any(g.sign_at(root.lower) * g.sign_at(root.upper) < 0
               for g in (poly_gcd(f, chi), poly_gcd(f, chi_neg)))


def test_orientable_lift_agrees_with_burau_oracle():
    members = [beta(m, n) for m in range(1, 6) for n in range(1, 6)]
    members += [sigma(m, n) for m in range(1, 10) for n in range(m + 2, 12)]
    verdicts = [orientable_lift(p) for p in members]
    assert verdicts == [_burau_says_orientable(p) for p in members]
    assert sum(verdicts) == 34  # 9 beta members, 25 sigma members


# -- minimizer ------------------------------------------------------------------------


def test_minimizer_g2_is_quartic_anchor_with_bounds():
    report = minimizer(2)
    lam = float(report.result.root.witness)
    assert abs(lam - 1.72208) <= 1e-5
    base = 2 + math.sqrt(3)
    assert base ** (1 / 3) < lam < base ** (1 / 2)
    assert report.lower_bound_ok and report.upper_bound_ok
    assert report.core_sign_change_ok


def test_minimizer_g5_log_anchor():
    report = minimizer(5)
    assert abs(math.log(float(report.result.root.witness)) - 0.240965) <= 1e-6


def test_minimizer_tightening_keeps_provenance():
    # at tol 0.1 the first enclosure is too wide to certify the bounds
    report = minimizer(5, tol=0.1)
    assert report.lower_bound_ok and report.upper_bound_ok
    assert report.result.root.width == Fraction(1, 1024)
    assert report.result.provenance is Provenance.BOTH_AGREE


def test_minimizer_residuals_tiny():
    report = minimizer(2)
    lam = report.result.root.witness
    with mp.workprec(128):
        residual = abs(lam**5 - 2 * lam**3 - 2 * lam**2 + 1)
    assert float(residual) <= 1e-8
    assert report.core_residual <= 1e-8


def test_minimizer_rejects_small_g():
    with pytest.raises(ValueError):
        minimizer(1)
    with pytest.raises(ValueError):
        minimizer(0)


def test_minimizer_core_poly_shape():
    report = minimizer(3)
    assert report.core_poly == IntPolynomial([1, 0, 0, -2, -2, 0, 0, 1])
    assert report.result.defining_poly == report.core_poly * IntPolynomial([-1, 1])
