"""Ring code construction, multiplier chains and component consistency."""

import pytest
from hypothesis import given, settings, strategies as st

from madics import poly, ring_codes
from madics.analysis import min_distance_ring_exhaustive
from madics.errors import BadSlotIndex, MultiplierNotCyclic, NotCoprime
from madics.ffield import make_prime_field
from madics.field_codes import FAMILIES, family_codes
from madics.identities import check_identities
from madics.residues import build_residue_system
from madics.ringalg import make_ring, ring_poly_combine, ring_poly_component
from madics.ring_codes import (
    chain_step_poly,
    component_consistency,
    ring_code,
    ring_mu_chain,
)
from oracle import VBasisRing

SYS134 = build_residue_system(13, 4, a=7)
R33 = make_ring(make_prime_field(3), 3)
V33 = VBasisRing(R33)


def test_defining_elements_by_family():
    # the v-basis forms over R, built independently of the CRT components
    base, odd1, even2, odd2 = (ring_code(R33, SYS134, fam, (1, 2, 3))
                               for fam in ("even-I", "odd-I", "even-II",
                                           "odd-II"))
    one = (V33.one,)
    h = (V33.one,) * 13
    assert odd1.idempotent == poly.trim(V33, poly.sub(V33, one, base.idempotent))
    assert even2.idempotent == poly.trim(
        V33, poly.sub(V33, poly.sub(V33, one, h), base.idempotent))
    assert odd2.idempotent == poly.trim(
        V33, poly.add(V33, h, base.idempotent))


def test_components_follow_slots():
    slots = (1, 2, 3)
    for fam in ("even-I", "odd-I", "even-II", "odd-II"):
        code = ring_code(R33, SYS134, fam, slots)
        field_family = family_codes(SYS134, R33.field, fam)
        assert code.components == tuple(field_family[i] for i in slots)
        for k, i in enumerate(slots):
            assert ring_poly_component(R33, code.generator, k) == \
                field_family[i].generator
            assert ring_poly_component(R33, code.idempotent, k) == \
                field_family[i].idempotent
            # p = 1 (mod q): every family's element is the field idempotent
            assert code.elements[k] == field_family[i].idempotent


def test_repeated_slots_lift_field_code():
    # equal CRT components interpolate to scalar (v-free) coefficients
    code = ring_code(R33, SYS134, "even-I", (0, 0, 0))
    g = family_codes(SYS134, R33.field, "even-I")[0].generator
    lifted = tuple(V33.from_scalar(c) for c in g)
    assert code.generator == lifted


def test_slot_validation():
    with pytest.raises(BadSlotIndex):
        ring_code(R33, SYS134, "even-I", (0, 1))
    with pytest.raises(BadSlotIndex):
        ring_code(R33, SYS134, "even-I", (0, 1, 4))


def test_ring_idempotents_are_idempotent():
    # E and 1-E always; the class-II elements too when p = 1 (mod q)
    for fam in ("even-I", "odd-I", "even-II", "odd-II"):
        code = ring_code(R33, SYS134, fam, (1, 2, 3))
        sq = poly.mod_xn_minus_1(
            V33, poly.mul(V33, code.idempotent, code.idempotent), 13)
        assert sq == poly.mod_xn_minus_1(V33, code.idempotent, 13)


def test_chain_step_poly_is_inverse_relocation():
    p, a = 13, 7
    coeffs = tuple(range(13))
    moved = chain_step_poly(p, a, coeffs)
    padded = list(moved) + [0] * (13 - len(moved))
    for i in range(p):
        assert padded[i] == coeffs[a * i % p]


def test_mu_chain_slot_walk():
    # each step advances every slot by the class index of a (here 3)
    base = ring_code(R33, SYS134, "even-I", (1, 2, 3))
    chain = ring_mu_chain(base, 7)
    assert [c.slots for c in chain] == [(1, 2, 3), (0, 1, 2), (3, 0, 1),
                                        (2, 3, 0)]
    assert len(chain) == SYS134.m


def test_mu_chain_closes():
    base = ring_code(R33, SYS134, "even-I", (1, 2, 3))
    chain = ring_mu_chain(base, 7)
    moved = tuple(chain_step_poly(13, 7, e) for e in chain[-1].elements)
    assert moved == base.elements


def test_mu_chain_orbit_length():
    # gcd(j, m) = 1 gives a full orbit of length m
    sys26 = build_residue_system(19, 6)
    ring73 = make_ring(make_prime_field(7), 3)
    base = ring_code(ring73, sys26, "even-I", (0, 1, 2))
    chain = ring_mu_chain(base)
    assert len(chain) == 6
    assert len({c.slots for c in chain}) == 6


def test_mu_chain_multiplier_validation():
    base = ring_code(R33, SYS134, "even-I", (1, 2, 3))
    with pytest.raises(NotCoprime):
        ring_mu_chain(base, 13)
    with pytest.raises(MultiplierNotCyclic):
        ring_mu_chain(base, 3)  # 3 is in Q_0, gcd(0, 4) != 1


def test_component_consistency_p_1_mod_q():
    # p = 13 = 1 (mod 3): every family's element generates its components
    for fam in ("even-I", "odd-I", "even-II", "odd-II"):
        code = ring_code(R33, SYS134, fam, (1, 2, 3))
        assert all(component_consistency(code))


def test_component_consistency_p_not_1_mod_q():
    # p = 19 = 5 (mod 7): the class-II even-like element fails; a chain
    # of gcds shows its components generate the odd-like class-I ideals
    sys26 = build_residue_system(19, 6)
    ring73 = make_ring(make_prime_field(7), 3)
    for fam in ("even-I", "odd-I", "odd-II"):
        code = ring_code(ring73, sys26, fam, (0, 1, 2))
        assert all(component_consistency(code))
    bad = ring_code(ring73, sys26, "even-II", (0, 1, 2))
    assert not any(component_consistency(bad))
    ctx = ring73.field
    xp1 = poly.xn_minus_1(ctx, 19)
    odd1 = family_codes(sys26, ctx, "odd-I")
    for k, i in enumerate(bad.slots):
        elt = ring_poly_component(ring73, bad.idempotent, k)
        ideal = poly.gcd(ctx, elt, xp1)
        assert poly.associates(ctx, ideal, odd1[i].generator)


def test_v_basis_forms_built_on_first_read(monkeypatch):
    # construction, chains, consistency checks and the identity suite
    # work on the components and never combine the v-basis forms
    calls = []

    def spy(ring, components):
        calls.append(len(components))
        return ring_poly_combine(ring, components)

    monkeypatch.setattr(ring_codes, "ring_poly_combine", spy)
    sys63 = build_residue_system(19, 6)
    ring73 = make_ring(make_prime_field(7), 3)
    check_identities(ring73, sys63)
    for family in FAMILIES:
        for code in ring_mu_chain(ring_code(ring73, sys63, family,
                                            (0, 1, 2))):
            component_consistency(code)
    assert calls == []
    code = ring_code(ring73, sys63, "odd-II", (0, 1, 2))
    assert code.idempotent == code.idempotent
    assert len(calls) == 1
    assert code.generator == ring_poly_combine(
        ring73, [c.generator for c in code.components])
    assert len(calls) == 2


def test_component_ranks():
    code = ring_code(R33, SYS134, "even-I", (1, 2, 3))
    assert code.component_ranks == (3, 3, 3)
    odd2 = ring_code(R33, SYS134, "odd-II", (1, 2, 3))
    assert odd2.component_ranks == (4, 4, 4)


# valid (q, p, m, s, family) with q an m-adic residue mod p and p <= 19
CASES = [
    (q, p, m, s, family)
    for q in (2, 3, 5, 7)
    for p in (5, 7, 11, 13, 17, 19) if p != q
    for m in range(2, 7) if (p - 1) % m == 0
    and build_residue_system(p, m).is_madic_residue(q % p)
    for s in range(2, q + 1) if (q - 1) % (s - 1) == 0
    for family in FAMILIES
]


# the chain cases whose exhaustive scan enumerates at most 2**15 tuples
SMALL_CASES = [
    (q, p, m, s, family) for q, p, m, s, family in CASES
    if q ** (s * family_codes(build_residue_system(p, m), make_prime_field(q),
                              family)[0].dimension) <= 1 << 15
]


@st.composite
def ring_codes_from(draw, cases):
    q, p, m, s, family = draw(st.sampled_from(cases))
    slots = draw(st.lists(st.integers(0, m - 1), min_size=s, max_size=s))
    alpha_exp = draw(st.integers(-p, 2 * p).filter(lambda u: u % p))
    return ring_code(make_ring(make_prime_field(q), s),
                     build_residue_system(p, m), family, slots, alpha_exp)


@settings(max_examples=40, deadline=None)
@given(ring_codes_from(CASES))
def test_v_basis_forms_split_into_components_property(code):
    for k, comp in enumerate(code.components):
        assert ring_poly_component(code.ring, code.idempotent, k) == \
            code.elements[k]
        assert ring_poly_component(code.ring, code.generator, k) == \
            comp.generator


@settings(max_examples=40, deadline=None)
@given(ring_codes_from(CASES))
def test_class_i_elements_idempotent_property(code):
    ctx, p = code.ring.field, code.p
    for fam in ("even-I", "odd-I"):
        c = ring_code(code.ring, code.system, fam, code.slots,
                      code.alpha_exp)
        for e in c.elements:
            assert poly.mul_mod(ctx, e, e, p) == e


@settings(max_examples=25, deadline=None)
@given(ring_codes_from(SMALL_CASES))
def test_chain_weight_distribution_invariant_property(code):
    # one mu_a step permutes the coordinates of every component alike
    dists = {min_distance_ring_exhaustive(c).weight_distribution
             for c in ring_mu_chain(code)}
    assert len(dists) == 1
