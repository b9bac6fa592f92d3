"""Exact characteristic polynomials, irreducibility, Perron enclosures."""

import random
from fractions import Fraction

import pytest

from pabraid.families import Family, FamilyParams, closed_form_poly, r_matrix, r_poly, transition_matrix
from pabraid.linalg import IntMatrix, bareiss_determinant, char_poly, is_irreducible, perron_root
from pabraid.poly import IntPolynomial, SalemBoydSpec, Sign, salem_boyd
from pabraid.spectral import largest_real_root


def test_char_poly_of_core_block_m1():
    m = IntMatrix([[0, 2], [1, 1]])
    assert char_poly(m) == IntPolynomial([-2, -1, 1])


def test_char_poly_one_by_one():
    assert char_poly(IntMatrix([[5]])) == IntPolynomial([-5, 1])


@pytest.mark.parametrize("m", range(1, 9))
def test_core_matrix_matches_core_poly(m):
    assert char_poly(r_matrix(m)) == r_poly(m)


def test_char_poly_of_transition_matrix_vs_shifted_combination():
    mat = transition_matrix(FamilyParams(Family.BETA, 1, 3))
    assert mat.dim == 6
    assert char_poly(mat) == salem_boyd(SalemBoydSpec(r_poly(1), 4, Sign.PLUS))


def test_char_poly_agrees_with_bareiss_on_random_dense_matrices():
    rng = random.Random(20261018)
    for _ in range(100):
        d = rng.randint(1, 12)
        rows = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]
        cp = char_poly(IntMatrix(rows))
        for _ in range(3):
            x = rng.randint(-20, 20)
            shifted = [[(x if i == j else 0) - rows[i][j] for j in range(d)] for i in range(d)]
            assert cp(x) == bareiss_determinant(shifted)


@pytest.mark.parametrize("d", [1, 2, 7])
def test_char_poly_of_zero_and_identity(d):
    zero = IntMatrix([[0] * d for _ in range(d)])
    identity = IntMatrix([[int(i == j) for j in range(d)] for i in range(d)])
    assert char_poly(zero) == IntPolynomial([0] * d + [1])
    expected = IntPolynomial.one()
    for _ in range(d):
        expected = expected * IntPolynomial([-1, 1])
    assert char_poly(identity) == expected


@pytest.mark.parametrize("family", [Family.BETA, Family.SIGMA])
def test_char_poly_of_66_dimensional_transition_matrix(family):
    params = FamilyParams(family, 30, 34)
    mat = transition_matrix(params)
    assert mat.dim == 66
    assert char_poly(mat) == closed_form_poly(params)


def test_bareiss_determinant_values():
    assert bareiss_determinant([[2]]) == 2
    assert bareiss_determinant([[1, 2], [3, 4]]) == -2
    assert bareiss_determinant([[0, 1], [1, 0]]) == -1
    assert bareiss_determinant([[1, 2], [2, 4]]) == 0


def test_is_irreducible_examples():
    assert is_irreducible(r_matrix(2))
    assert not is_irreducible(IntMatrix([[1, 0], [0, 1]]))
    assert is_irreducible(transition_matrix(FamilyParams(Family.BETA, 1, 3)))
    assert is_irreducible(transition_matrix(FamilyParams(Family.SIGMA, 1, 3)))
    assert not is_irreducible(IntMatrix([[0]]))
    assert is_irreducible(IntMatrix([[3]]))


def test_perron_root_of_core_block_m1_is_two():
    enc = perron_root(r_matrix(1), 1e-9)
    assert enc.lower < 2 < enc.upper
    assert float(enc.upper - enc.lower) <= 1e-9


def test_perron_root_of_permutation_is_one():
    enc = perron_root(IntMatrix([[0, 1], [1, 0]]), 1e-9)
    assert enc.lower < 1 < enc.upper


def test_perron_root_core_block_m2_anchor():
    enc = perron_root(r_matrix(2), 1e-5)
    assert abs(float(enc.witness) - 1.69562) <= 1e-5


def test_perron_root_at_a_fine_tol():
    # the witness takes the bits its enclosure needs: 128 cannot resolve 1e-45
    enc = perron_root(r_matrix(3), 1e-45)
    assert enc.width <= Fraction(1e-45)
    assert enc.lower <= enc.witness <= enc.upper


def test_perron_root_rejects_signed_and_reducible():
    with pytest.raises(ValueError):
        perron_root(transition_matrix(FamilyParams(Family.SIGMA, 1, 3)), 1e-6)
    with pytest.raises(ValueError):
        perron_root(IntMatrix([[1, 1], [0, 1]]), 1e-6)


@pytest.mark.parametrize("m", range(1, 7))
def test_perron_enclosure_contains_largest_real_charpoly_root(m):
    mat = r_matrix(m)
    enc = perron_root(mat, 1e-9)
    root = largest_real_root(char_poly(mat), Fraction(1), 1e-10)
    assert enc.lower <= root.upper and root.lower <= enc.upper


def test_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2]])
    with pytest.raises(ValueError):
        IntMatrix([])
