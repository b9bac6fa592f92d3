"""The verdict rule of the self-verification suite, and the suite at full depth."""

from dataclasses import replace
from fractions import Fraction

import pytest

from pabraid import families, verify
from pabraid.poly import IntPolynomial
from pabraid.spectral import RootEnclosure, to_witness


def _enclosure(lower, upper):
    lower, upper = Fraction(lower), Fraction(upper)
    return RootEnclosure(lower, upper, to_witness((lower + upper) / 2), True)


def test_touching_enclosures_fail_with_margin_zero():
    assert verify._fold([verify._below(_enclosure(1, 2), _enclosure(2, 3))]) == (False, 0.0)
    assert verify._fold([verify._below(_enclosure(1, 2), _enclosure("9/4", 3))]) == (True, 0.25)
    assert verify._fold([verify._below(_enclosure(1, 3), _enclosure(2, 4))]) == (False, -1.0)


def test_zero_slack_passes():
    assert verify._fold([verify._slack(0.0)]) == (True, 0.0)
    assert verify._fold([verify._slack(1e-8), verify._slack(-1e-300)]) == (False, -1e-300)


def test_exact_failure_reports_minus_one():
    assert verify._fold([verify._exact(True), verify._exact(False), verify._exact(True)]) == (False, -1.0)
    assert verify._fold([verify._exact(True)] * 3) == (True, 0.0)


def test_empty_sweep_passes_with_zero():
    assert verify._fold([]) == (True, 0.0)
    assert verify._fold(iter(())) == (True, 0.0)


def test_fold_consumes_the_whole_sweep():
    seen = []

    def sweep():
        for slack in (-1.0, 2.0, -3.0, 0.5):
            seen.append(slack)
            yield verify._slack(slack)

    assert verify._fold(sweep()) == (False, -3.0)
    assert seen == [-1.0, 2.0, -3.0, 0.5]


def test_failed_minimizer_certificate_fails_with_positive_slack(monkeypatch):
    real = families.minimizer
    monkeypatch.setattr(families, "minimizer", lambda *args: replace(real(*args), lower_bound_ok=False))
    session = verify._Session(verify._DEPTHS["quick"], 1e-9)
    passed, worst_margin = verify._fold(verify._minimizer_bounds(session))
    assert not passed
    assert worst_margin > 0


def test_equality_case_without_a_real_shared_root_fails(monkeypatch):
    # t^2 + 1 has no real root, so it changes sign across neither enclosure
    monkeypatch.setattr(verify, "poly_gcd", lambda f, g: IntPolynomial([1, 0, 1]))
    session = verify._Session(verify._DEPTHS["quick"], 1e-9)
    assert verify._fold(verify._min_equality_case(session)) == (False, -1.0)


def test_registry_ids_are_unique():
    ids = [check_id for check_id, _, _ in verify._CHECKS]
    assert len(ids) == len(set(ids)) == 24


@pytest.fixture(scope="module")
def full_report():
    return {c.check_id: c for c in verify.run_verify("full").checks}


@pytest.mark.parametrize("check_id", [check_id for check_id, _, _ in verify._CHECKS])
def test_check_passes_at_full_depth(full_report, check_id):
    check = full_report[check_id]
    assert check.passed, f"{check_id} fails over {check.range}: worst margin {check.worst_margin}"
