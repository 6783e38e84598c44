"""Ring code construction, multiplier chains and component consistency."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from madics import field_codes, poly, ring_codes
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
from oracle import (
    VBasisRing,
    add_generic,
    component_consistency_uncached,
    mod_xn_minus_1,
    mul_mod_schoolbook,
    sub_generic,
)

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
    assert odd1.idempotent == sub_generic(V33, one, base.idempotent)
    assert even2.idempotent == sub_generic(
        V33, sub_generic(V33, one, h), base.idempotent)
    assert odd2.idempotent == add_generic(V33, h, base.idempotent)


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


def test_one_shared_instance_per_code():
    # list or tuple slots, ints of another type and alpha_exp + p all
    # name one code: one instance, holding plain ints and the reduced u
    code = ring_code(R33, SYS134, "odd-I", (1, 2, 3), 2)
    assert ring_code(R33, SYS134, "odd-I", [1, 2, 3], 2) is code
    assert ring_code(R33, SYS134, "odd-I", (1, 2, 3), 2 + 13) is code
    assert ring_code(R33, SYS134, "odd-I", (1, 2, 3), 2 - 13) is code
    assert ring_code(R33, SYS134, "odd-I",
                     np.array([1, 2, 3]), np.int64(15)) is code
    assert all(type(i) is int for i in code.slots)
    assert type(code.alpha_exp) is int and code.alpha_exp == 2
    assert ring_code(R33, SYS134, "odd-I", (1, 2, 3)) is not code
    assert ring_code(R33, SYS134, "even-I", (1, 2, 3), 2) is not code


def test_true_slot_is_a_plain_one(cold_caches):
    # True == 1 and hashes alike, so an unnormalised key would store
    # whichever form came first
    code = ring_code(R33, SYS134, "even-I", (True, 0, 0))
    assert code.slots == (1, 0, 0)
    assert all(type(i) is int for i in code.slots)
    assert ring_code(R33, SYS134, "even-I", (1, 0, 0)) is code


@pytest.mark.parametrize("slots", [(0, 1), (0, 1, 2, 3), (0, 1, 4),
                                   (-1, 0, 0), [0, 4, 1]])
def test_invalid_slots_raise_on_every_call(slots):
    cached = ring_codes._shared_ring_code.cache_info().currsize
    for _ in range(3):
        with pytest.raises(BadSlotIndex):
            ring_code(R33, SYS134, "even-I", slots)
    assert ring_codes._shared_ring_code.cache_info().currsize == cached


def test_mu_chain_checks_every_step(monkeypatch):
    # the chain's step comparison is not cached: a wrong step element
    # is caught on a warm second call
    base = ring_code(R33, SYS134, "even-I", (1, 2, 3))
    first = ring_mu_chain(base, 7)
    step = ring_codes.chain_step_poly

    def wrong(p, a, coeffs):
        return poly.add(R33.field, step(p, a, coeffs), (1,))

    monkeypatch.setattr(ring_codes, "chain_step_poly", wrong)
    with pytest.raises(AssertionError, match="mu step"):
        ring_mu_chain(base, 7)
    monkeypatch.undo()
    assert ring_mu_chain(base, 7) == first


def test_ring_idempotents_are_idempotent():
    # E and 1-E always; the class-II elements too when p = 1 (mod q)
    for fam in ("even-I", "odd-I", "even-II", "odd-II"):
        code = ring_code(R33, SYS134, fam, (1, 2, 3))
        sq = mul_mod_schoolbook(V33, code.idempotent, code.idempotent, 13)
        assert sq == mod_xn_minus_1(V33, code.idempotent, 13)


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
        assert ideal == poly.monic(ctx, odd1[i].generator)


def test_consistency_solves_each_component_element_once(cold_caches,
                                                        monkeypatch):
    # a mu-orbit permutes the same component elements: one gcd each, and
    # none on a second pass
    sys63 = build_residue_system(19, 6)
    ring73 = make_ring(make_prime_field(7), 3)
    orbit = [c for family in FAMILIES
             for c in ring_mu_chain(ring_code(ring73, sys63, family,
                                              (0, 1, 2)))]
    calls = []
    gcd = poly.gcd

    def counting(ctx, a, b):
        calls.append(a)
        return gcd(ctx, a, b)

    monkeypatch.setattr(poly, "gcd", counting)
    first = [component_consistency(c) for c in orbit]
    assert sorted(calls) == sorted({e for c in orbit for e in c.elements})
    assert len(calls) == 24  # 6 classes x 4 families
    calls.clear()
    assert [component_consistency(c) for c in orbit] == first
    assert calls == []
    monkeypatch.undo()
    assert first == [component_consistency_uncached(c) for c in orbit]


@pytest.mark.parametrize("q,p,m", [
    (3, 13, 4), (3, 13, 2), (7, 19, 6), (7, 19, 3), (5, 11, 2), (2, 31, 3)])
def test_generators_and_ideal_generators_are_monic(q, p, m):
    # component_consistency and verify compare the two with ==, which is
    # the ideal equality only because both sides are canonical monic
    system = build_residue_system(p, m)
    ctx = make_prime_field(q)
    ring = make_ring(ctx, 2)
    for u in (1, 2, -1):
        for family in FAMILIES:
            for c in family_codes(system, ctx, family, u):
                assert c.generator[-1] == 1
                assert ring_codes.ideal_generator(ctx, p, c.idempotent)[-1] \
                    == 1
            for i in range(m):
                elem, = set(ring_code(ring, system, family, (i, i),
                                      u).elements)
                ideal = ring_codes.ideal_generator(ctx, p, elem)
                assert ideal[-1] == 1
                assert ideal == poly.trim(ctx, ideal)


def test_ring_code_reuses_family_elements(cold_caches, monkeypatch):
    # each (family, index) element is built at most once, and only for
    # the indices some slot names; a ring code picks them by slot.  The
    # coset factors are warmed first: the field build subtracts too
    field_codes.coset_factors(3, 13)
    built = []

    def counting(module, name):
        op = getattr(module, name)

        def wrapped(*args):
            built.append(name)
            return op(*args)
        monkeypatch.setattr(module, name, wrapped)

    counting(poly, "add")
    counting(poly, "sub")
    counting(field_codes, "from_spectrum")
    codes = [ring_code(R33, SYS134, family, slots) for family in FAMILIES
             for slots in ((0, 1, 1), (1, 0, 0), (1, 1, 0))]
    # e_0 and e_1 once each, then per index one sub for odd-I, two for
    # even-II and one add for odd-II
    assert sorted(built) == ["add"] * 2 + ["from_spectrum"] * 2 + ["sub"] * 6
    monkeypatch.undo()
    for code in codes:
        # p = 1 (mod q): every family's element is the field idempotent
        field_family = family_codes(SYS134, R33.field, code.family)
        assert code.elements == tuple(field_family[i].idempotent
                                      for i in code.slots)


def test_v_basis_forms_built_on_first_read(cold_caches, monkeypatch):
    # construction, chains, consistency checks and the identity suite
    # work on the components and never combine the v-basis forms; the
    # caches start cold, since an earlier test may have read the forms
    # of these shared instances
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
    # the shared instance keeps both forms: no second combine
    again = ring_code(ring73, sys63, "odd-II", [0, 1, 2])
    assert again is code
    assert (again.idempotent, again.generator) == \
        (code.idempotent, code.generator)
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
def test_component_consistency_matches_uncached_oracle(code):
    # CASES are the identity suite's grid points with all four families
    expected = component_consistency_uncached(code)
    ring_codes.ideal_generator.cache_clear()
    assert component_consistency(code) == expected  # cold
    assert component_consistency(code) == expected  # warm


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
