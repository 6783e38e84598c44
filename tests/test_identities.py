"""Identity suite over the parameter grid, checked against the frozen
expectation table.

Empirical finding baked in here: seven of the printed identities hold
exactly when p = 1 (mod q) and fail otherwise, and the odd-like
class-II sum identity fails on every valid grid instance (its true
value is 1 + (L - p^-1) h for orbit length L, not 1 - (s-1) h).
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from madics import identities, poly
from madics.errors import QNotResidue
from madics.ffield import make_prime_field
from madics.identities import IDENTITY_NAMES, check_identities
from madics.residues import build_residue_system
from madics.ringalg import make_ring
from madics.verify import IDENTITY_GRID
from oracle import check_identities_vbasis

P_DEPENDENT = {
    "E_sum_is_1_minus_h",
    "Ep_product_is_h",
    "D_idempotent",
    "D_pair_identity",
    "D_product_zero",
    "Dp_idempotent",
    "Dp_pair_is_h",
}

ALWAYS_TRUE = {
    "E_idempotent",
    "mu_E_idempotent",
    "orbit_closes",
    "E_products_zero",
    "Ep_idempotent",
    "Ep_mu_chain",
    "Ep_pair_identity",
    "D_mu_chain",
    "Dp_mu_chain",
}

GRID = ((3, 13, 4, 3), (7, 19, 6, 3), (7, 19, 3, 4), (3, 13, 2, 2))


def run_suite(q, p, m, s):
    system = build_residue_system(p, m)
    ring = make_ring(make_prime_field(q), s)
    return check_identities(ring, system)


def test_identity_names_partition():
    assert P_DEPENDENT | ALWAYS_TRUE | {"Dp_sum_identity"} == \
        set(IDENTITY_NAMES)
    assert not P_DEPENDENT & ALWAYS_TRUE


@pytest.mark.parametrize("q,p,m,s", GRID)
def test_always_true_identities(q, p, m, s):
    outcomes = run_suite(q, p, m, s)
    for name in ALWAYS_TRUE:
        assert outcomes[name].holds, name


@pytest.mark.parametrize("q,p,m,s", GRID)
def test_p_dependent_identities(q, p, m, s):
    outcomes = run_suite(q, p, m, s)
    expect = p % q == 1
    for name in P_DEPENDENT:
        assert outcomes[name].holds == expect, (name, p % q)


@pytest.mark.parametrize("q,p,m,s", GRID)
def test_dp_sum_identity_fails_everywhere(q, p, m, s):
    outcomes = run_suite(q, p, m, s)
    assert not outcomes["Dp_sum_identity"].holds
    # a failing outcome carries both sides for inspection
    assert outcomes["Dp_sum_identity"].computed
    assert outcomes["Dp_sum_identity"].expected


def test_dp_sum_computed_form_q3_p13():
    # sum D'_r = 1 + (m - p^-1) h; p^-1 = 1 mod 3 and m = 4 = 1 mod 3,
    # so the sum collapses to the constant 1
    outcomes = run_suite(3, 13, 4, 3)
    assert outcomes["Dp_sum_identity"].computed == "1"


def test_diagonal_instance_q7_p19_m3_s3():
    # m = s = 3 is valid (2 is in Q_1 here... multiplier class coprime
    # to 3) and follows the same p-dependence
    outcomes = run_suite(7, 19, 3, 3)
    for name in ALWAYS_TRUE:
        assert outcomes[name].holds, name
    for name in P_DEPENDENT:
        assert not outcomes[name].holds, name
    assert not outcomes["Dp_sum_identity"].holds


def test_excluded_instance_q5_p11():
    # 5 is not a 5-adic residue mod 11, so the families never descend
    system = build_residue_system(11, 5)
    assert not system.is_madic_residue(5)
    ring = make_ring(make_prime_field(5), 5)
    with pytest.raises(QNotResidue):
        check_identities(ring, system)


def test_outcomes_cover_all_names():
    outcomes = run_suite(3, 13, 2, 2)
    assert set(outcomes) == set(IDENTITY_NAMES)
    for name, o in outcomes.items():
        assert o.name == name


@pytest.mark.parametrize("alpha_exp", (1, 2))
@pytest.mark.parametrize("q,p,m,s", IDENTITY_GRID + ((7, 19, 3, 3),))
def test_suite_matches_vbasis_oracle(q, p, m, s, alpha_exp):
    system = build_residue_system(p, m)
    ring = make_ring(make_prime_field(q), s)
    if not system.is_madic_residue(q % p):
        for suite in (check_identities, check_identities_vbasis):
            with pytest.raises(QNotResidue):
                suite(ring, system, alpha_exp=alpha_exp)
        return
    assert check_identities(ring, system, alpha_exp=alpha_exp) == \
        check_identities_vbasis(ring, system, alpha_exp=alpha_exp)


@pytest.mark.parametrize("q,p,m,s,calls", [
    (3, 13, 4, 3, 58), (7, 19, 6, 3, 84), (7, 19, 3, 4, 36)])
def test_suite_multiplies_each_pair_once(cold_caches, monkeypatch, q, p, m,
                                         s, calls):
    # one mul_mod per unordered pair of component polynomials; the suite
    # made 168, 204 and 116 calls here when it multiplied every product
    system = build_residue_system(p, m)
    ring = make_ring(make_prime_field(q), s)
    check_identities(ring, system)  # build the cached codes first
    seen = []
    mul_mod = poly.mul_mod

    def counting(ctx, a, b, n):
        seen.append(frozenset((a, b)))
        return mul_mod(ctx, a, b, n)

    monkeypatch.setattr(poly, "mul_mod", counting)
    outcomes = check_identities(ring, system)
    monkeypatch.undo()
    assert len(seen) == len(set(seen)) == calls
    assert outcomes == check_identities_vbasis(ring, system)


def test_refuted_sides_formatted_on_read(cold_caches, monkeypatch):
    # the suite formats no side; reading one formats only that side
    calls = []
    fmt = identities.format_ring_poly

    def counting(ring, a):
        calls.append(a)
        return fmt(ring, a)

    monkeypatch.setattr(identities, "format_ring_poly", counting)
    outcomes = run_suite(7, 19, 6, 3)
    assert calls == []
    refuted = [o for o in outcomes.values() if not o.holds]
    assert len(refuted) == len(P_DEPENDENT) + 1
    shown = refuted[0].computed
    assert len(calls) == 1
    assert refuted[0].computed is shown
    assert len(calls) == 1
    monkeypatch.undo()
    assert outcomes == check_identities_vbasis(
        make_ring(make_prime_field(7), 3), build_residue_system(19, 6))


# (q, p, m, s) with q an m-adic residue mod p, p small enough that the
# v-basis oracle stays cheap
SUITE_CASES = [
    (q, p, m, s)
    for q in (2, 3, 5, 7)
    for p in (5, 7, 11, 13, 17, 19) if p != q
    for m in range(2, 7) if (p - 1) % m == 0
    and build_residue_system(p, m).is_madic_residue(q % p)
    for s in range(2, q + 1) if (q - 1) % (s - 1) == 0
]


@st.composite
def suite_inputs(draw):
    q, p, m, s = draw(st.sampled_from(SUITE_CASES))
    system = build_residue_system(p, m)
    slots = tuple(draw(st.lists(st.integers(0, m - 1), min_size=s,
                                max_size=s)))
    a = draw(st.sampled_from(
        [x for x in range(1, p) if math.gcd(system.class_of(x), m) == 1]))
    alpha_exp = draw(st.integers(-p, 2 * p).filter(lambda u: u % p))
    return make_ring(make_prime_field(q), s), system, slots, a, alpha_exp


@settings(max_examples=25, deadline=None)
@given(suite_inputs())
def test_suite_matches_vbasis_oracle_property(inputs):
    assert check_identities(*inputs) == check_identities_vbasis(*inputs)
