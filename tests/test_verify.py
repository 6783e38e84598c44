"""Verification report: fresh-build checks pass, errata list is stable."""

from madics.field_codes import family_codes
from madics.verify import (
    expected_identity_failures,
    run_verification,
)

EXPECTED_CHECKS = {
    "classes-p13-m3",
    "classes-p13-m4",
    "even-like-generators-q7-p19-m6",
    "distances-q7-p19-m6",
    "idempotents-q3-p13-m4",
    "eta-q3-s3",
    "chain-q3-s3-p13-a7",
    "chain-generator-components",
    "chain-distances-q3-s3",
    "identity-suite",
    "structural-invariants",
    "component-consistency-p-1-mod-q",
}

EXPECTED_ERRATA = {
    "classes-context",
    "field-label-f4",
    "g0-x2-coefficient",
    "g1-v2-terms",
    "g2-g3-equal-claim",
    "chain-parameters",
    "sum-even-like-I",
    "product-odd-like-I",
    "class-II-idempotency",
    "sum-odd-like-II",
    "odd-like-II-defining-element",
    "zeta-root-order",
    "eta-display-exponent",
}


def test_report_ok():
    report = run_verification()
    assert report.ok
    assert {c.name for c in report.checks} == EXPECTED_CHECKS
    for c in report.checks:
        assert c.passed, (c.name, c.detail)


def test_verification_builds_each_family_once(cold_caches):
    # verify asks for the labeling ring_code uses, alpha_exp = 1, so
    # both read one cache entry per (system, field, family)
    run_verification()
    assert family_codes.cache_info().currsize == 16


def test_errata_catalog():
    report = run_verification()
    assert {e.name for e in report.errata} == EXPECTED_ERRATA
    for e in report.errata:
        assert e.printed and e.computed


def test_expected_identity_failures():
    assert expected_identity_failures(3, 13) == {"Dp_sum_identity"}
    assert "D_idempotent" in expected_identity_failures(7, 19)
    assert len(expected_identity_failures(7, 19)) == 8
