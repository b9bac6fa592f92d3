"""Horseshoe orbit codes and their braid family parameters."""

import pytest

from pabraid.families import Family, FamilyParams, dilatation
from pabraid.horseshoe import FamilyMatch, canonicalize, code_to_family, family_to_codes


def test_canonicalize_least_rotation():
    assert canonicalize("01001").canonical == "00101"
    assert canonicalize("10010").canonical == "00101"
    assert canonicalize("10010").period == 5


def test_canonicalize_flags_non_primitive():
    orbit = canonicalize("111")
    assert orbit.canonical == "111"
    assert not orbit.primitive
    assert canonicalize("0101").primitive is False
    assert canonicalize("011").primitive is True


def test_canonicalize_rejects_non_binary():
    with pytest.raises(ValueError):
        canonicalize("10012")
    with pytest.raises(ValueError):
        canonicalize("")


def test_code_to_family_paper_orbit():
    assert code_to_family("10010") == FamilyMatch(1, 3, "A")


def test_code_to_family_longer_form_a():
    assert code_to_family("1000100") == FamilyMatch(2, 4, "A")


def test_code_to_family_unmatched_codes():
    assert code_to_family("10010110") is None  # the period-8 competitor
    assert code_to_family("0") is None
    assert code_to_family("111") is None
    assert code_to_family("1") is None


def test_code_to_family_form_b():
    assert code_to_family("10011") == FamilyMatch(1, 3, "B")


def test_family_to_codes_examples():
    assert family_to_codes(1, 3) == ("10010", "10011")
    assert family_to_codes(2, 4) == ("1000100", "1000101")


def test_family_to_codes_validation():
    with pytest.raises(ValueError):
        family_to_codes(0, 3)
    with pytest.raises(ValueError):
        family_to_codes(2, 3)


def test_code_to_family_matches_definition_on_all_short_words():
    # the match implied by the rotations of every family code, up to length 12
    expected = {}
    for length in range(1, 13):
        for m in range(1, length):
            n = length - m - 1
            if n < m + 2:
                continue
            for code, form in zip(family_to_codes(m, n), "AB"):
                match = FamilyMatch(m, n, form)
                for k in range(length):
                    assert expected.setdefault(code[k:] + code[:k], match) == match
    for length in range(1, 13):
        for bits in range(2**length):
            word = format(bits, f"0{length}b")
            assert code_to_family(word) == expected.get(word), word


def test_rotation_invariance():
    for code in ("10010", "10011", "1000100", "10010110"):
        expected = code_to_family(code)
        for k in range(1, len(code)):
            rotated = code[k:] + code[:k]
            assert code_to_family(rotated) == expected


def test_distinct_forms_same_parameters():
    code_a, code_b = family_to_codes(1, 3)
    assert canonicalize(code_a).canonical != canonicalize(code_b).canonical
    assert code_to_family(code_a).m == code_to_family(code_b).m
    assert code_to_family(code_a).n == code_to_family(code_b).n


def test_dilatation_ordering_anchor():
    # the family member for the period-8 orbit's strand count beats 1.4134
    res = dilatation(FamilyParams(Family.SIGMA, 2, 5))
    assert float(res.root.witness) > 1.4134
