"""Ring code construction, multiplier chains and component consistency."""

import inspect
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from madics import field_codes, poly, ring_codes
from madics.analysis import min_distance_ring_exhaustive
from madics.errors import BadSlotIndex, MultiplierNotCyclic, NotCoprime
from madics.ffield import make_extension, make_prime_field
from madics.field_codes import FAMILIES, family_codes
from madics.identities import check_identities
from madics.residues import build_residue_system
from madics.ringalg import make_ring, ring_poly_combine, ring_poly_component
from madics.ring_codes import (
    chain_source,
    component_consistency,
    ring_code,
    ring_mu_chain,
)
from madics.verify import ideal_generator
from oracle import (
    VBasisRing,
    _step_vbasis,
    add_generic,
    component_consistency_uncached,
    distribution_certificate,
    mod_xn_minus_1,
    mul_mod_schoolbook,
    spectrum_direct,
    sub_generic,
)

SYS134 = build_residue_system(13, 4, a=7)
R33 = make_ring(make_prime_field(3), 3)
EXT33 = make_extension(3, 3)
V33 = VBasisRing(R33)
SYS196 = build_residue_system(19, 6)
R73 = make_ring(make_prime_field(7), 3)


def test_defining_elements_by_family():
    # the v-basis forms over R, built independently of the CRT
    # components, at p = 1 (mod q) and at p = 19 = 5 (mod 7), where the
    # class-II elements are not the component idempotents
    for ring, system, slots in ((R33, SYS134, (1, 2, 3)),
                                (R73, SYS196, (0, 1, 2))):
        vring = VBasisRing(ring)
        base, odd1, even2, odd2 = (ring_code(ring, system, fam, slots)
                                   for fam in FAMILIES)
        one = (vring.one,)
        h = (vring.one,) * system.p
        assert odd1.idempotent == sub_generic(vring, one, base.idempotent)
        assert even2.idempotent == sub_generic(
            vring, sub_generic(vring, one, h), base.idempotent)
        assert odd2.idempotent == add_generic(vring, h, base.idempotent)
        # only the class-II spectra leave the component's 0/1 spectrum,
        # and only at x = 1, where they read 1 - p and p
        p, q = system.p, ring.q
        for code, at_one in ((base, None), (odd1, None),
                             (even2, (1 - p) % q), (odd2, p % q)):
            for spec, comp in zip(code.spectra, code.components):
                if at_one is None:
                    assert spec == comp.spectrum
                else:
                    assert spec == (at_one,) + comp.spectrum[1:]
                    assert (spec == comp.spectrum) == (p % q == 1)


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
            assert code.spectra[k] == field_family[i].spectrum


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


def test_contexts_are_their_constructors_objects():
    # fields and rings compare by identity: each is the one object its
    # cached constructor returns, GF(q) alike from either constructor
    assert make_extension(7, 1) is make_prime_field(7)
    assert field_codes.splitting_field(3, 13)[0] is make_extension(3, 3)
    ring = make_ring(make_prime_field(3), 3)
    assert make_ring(make_prime_field(3), 3) is ring
    # an oracle ring is another key, so it gets its own instance of a
    # code, which agrees with the shared one
    code = ring_code(ring, SYS134, "odd-II", (1, 2, 3))
    oracle_code = ring_code(VBasisRing(ring), SYS134, "odd-II", (1, 2, 3))
    assert oracle_code is not code
    assert oracle_code.generator == code.generator
    assert oracle_code.idempotent == code.idempotent


def test_cold_caches_keep_the_contexts(cold_caches):
    # the fixture empties the caches keyed on contexts, not the context
    # constructors, so the module-level contexts are still theirs
    assert make_prime_field(3) is R33.field
    assert make_ring(make_prime_field(3), 3) is R33
    assert field_codes.splitting_field(3, 13)[0] is EXT33


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


def test_unknown_family_raises_on_every_call():
    # family_codes refuses the family inside the cached builder, and a
    # cache stores no exception
    cached = ring_codes._shared_ring_code.cache_info().currsize
    for _ in range(3):
        with pytest.raises(ValueError, match="unknown family"):
            ring_code(R33, SYS134, "even-III", (0, 1, 2))
    assert ring_codes._shared_ring_code.cache_info().currsize == cached


def test_mu_chain_checks_every_step(monkeypatch):
    # the chain's step comparison is not cached: a wrong step is caught
    # on a warm second call
    base = ring_code(R33, SYS134, "even-I", (1, 2, 3))
    first = ring_mu_chain(base, 7)

    def wrong(m, j):
        return chain_source(m, (j + 1) % m)

    monkeypatch.setattr(ring_codes, "chain_source", wrong)
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
    # the polynomial chain step (exponent a*i moves to i) of every
    # family idempotent, evaluated in the splitting field at 1 and at
    # the alpha**g_r, is its spectrum stepped by chain_source
    for system, q in ((SYS134, 3), (SYS196, 7)):
        ctx, p, m = make_prime_field(q), system.p, system.m
        coeffs = tuple(1 + k % (q - 1) for k in range(p))
        assert _step_vbasis(ctx, p, system.a, coeffs) == tuple(
            coeffs[system.a * i % p] for i in range(p))
        for a in range(2, p):
            j = system.class_of(a)
            if math.gcd(j, m) != 1:
                continue
            step = operator.itemgetter(*chain_source(m, j))
            for family in FAMILIES:
                for c in family_codes(system, ctx, family):
                    moved = _step_vbasis(ctx, p, a, c.idempotent)
                    assert spectrum_direct(system, q, 1, moved) == \
                        step(c.spectrum)


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
    step = operator.itemgetter(*chain_source(4, SYS134.class_of(7)))
    assert tuple(map(step, chain[-1].spectra)) == base.spectra
    assert _step_vbasis(V33, 13, 7, chain[-1].idempotent) == base.idempotent


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
    xp1 = poly.xn_minus_1(ctx.q, 19)
    odd1 = family_codes(sys26, ctx, "odd-I")
    for k, i in enumerate(bad.slots):
        elt = ring_poly_component(ring73, bad.idempotent, k)
        ideal = poly.gcd(ctx.q, elt, xp1)
        assert ideal == poly.monic(ctx.q, odd1[i].generator)


def _refuse_polynomials(monkeypatch):
    """Make every poly function and from_spectrum raise: the ring layer
    builds, steps and checks codes on spectra alone."""
    def refuse(*args):
        raise AssertionError("the ring layer ran polynomial arithmetic")

    for name, f in vars(poly).items():
        if inspect.isfunction(f):
            monkeypatch.setattr(poly, name, refuse)
    for module in (field_codes, ring_codes):
        monkeypatch.setattr(module, "from_spectrum", refuse)


def test_consistency_solves_each_component_element_once(cold_caches,
                                                        monkeypatch,
                                                        spectra_computed):
    # a mu-orbit permutes the same component codes: one spectrum each,
    # read off the code's nonzeros, none on a second pass, and no
    # polynomial arithmetic in chains or consistency.  The field layer
    # is warmed first: it builds the coset tables with poly
    sys63 = build_residue_system(19, 6)
    ring73 = make_ring(make_prime_field(7), 3)
    for family in FAMILIES:
        family_codes(sys63, ring73.field, family, 1)
    _refuse_polynomials(monkeypatch)
    orbit = [c for family in FAMILIES
             for c in ring_mu_chain(ring_code(ring73, sys63, family,
                                              (0, 1, 2)))]
    first = [component_consistency(c) for c in orbit]
    assert sorted(map(id, spectra_computed)) == sorted(
        {id(comp) for c in orbit for comp in c.components})
    assert len(spectra_computed) == 24  # 6 classes x 4 families
    spectra_computed.clear()
    assert [component_consistency(c) for c in orbit] == first
    assert [c.slots for c in ring_mu_chain(orbit[0])] == \
        [c.slots for c in orbit[:6]]
    assert spectra_computed == []
    monkeypatch.undo()
    assert first == [component_consistency_uncached(c) for c in orbit]


@pytest.mark.parametrize("q,p,m", [
    (3, 13, 4), (3, 13, 2), (7, 19, 6), (7, 19, 3), (5, 11, 2), (2, 31, 3)])
def test_generators_and_ideal_generators_are_monic(q, p, m):
    # verify compares the two with ==, which is the ideal equality only
    # because both sides are canonical monic
    system = build_residue_system(p, m)
    ctx = make_prime_field(q)
    ring = make_ring(ctx, 2)
    for u in (1, 2, -1):
        for family in FAMILIES:
            for c in family_codes(system, ctx, family, u):
                assert c.generator[-1] == 1
                assert ideal_generator(q, p, c.idempotent)[-1] == 1
            for i in range(m):
                code = ring_code(ring, system, family, (i, i), u)
                elem, = {ring_poly_component(ring, code.idempotent, k)
                         for k in range(2)}
                ideal = ideal_generator(q, p, elem)
                assert ideal[-1] == 1
                assert ideal == poly.trim(q, ideal)


def test_ring_code_reuses_family_elements(cold_caches, monkeypatch,
                                          spectra_computed):
    # construction picks each slot's spectrum from its component code,
    # computes each one at most once, and calls no poly function and no
    # from_spectrum.  The field layer is warmed first: it builds the
    # coset tables with poly
    for family in FAMILIES:
        family_codes(SYS134, R33.field, family, 1)
    _refuse_polynomials(monkeypatch)
    codes = [ring_code(R33, SYS134, family, slots) for family in FAMILIES
             for slots in ((0, 1, 1), (1, 0, 0), (1, 1, 0))]
    # indices 0 and 1 of each family, once each
    assert sorted((c.family, c.index) for c in spectra_computed) == sorted(
        (family, i) for family in FAMILIES for i in (0, 1))
    monkeypatch.undo()
    for code in codes:
        # p = 1 (mod q): every family's element is the field idempotent,
        # and class I shares the component's spectrum itself
        field_family = family_codes(SYS134, R33.field, code.family)
        assert code.spectra == tuple(field_family[i].spectrum
                                     for i in code.slots)
        if code.family.endswith("-I"):
            assert all(spec is comp.spectrum for spec, comp
                       in zip(code.spectra, code.components))


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


@pytest.mark.parametrize("family", ("even-II", "odd-II"))
def test_class_ii_orbit_inverts_each_spectrum_once(cold_caches,
                                                   monkeypatch, family):
    # every slot reads from_spectrum, cached per spectrum: a class-II
    # orbit at p != 1 (mod q) inverts its m distinct slot spectra once
    # each, plus the Gauss periods' own check of e_0, whatever the
    # number of codes and slots (m codes of s = 5 slots here)
    calls = []
    inverse = field_codes._inverse

    def counting(*args):
        calls.append(args[-1])
        return inverse(*args)

    monkeypatch.setattr(field_codes, "_inverse", counting)
    system = build_residue_system(31, 5)
    ring = make_ring(make_prime_field(5), 5)
    orbit = ring_mu_chain(ring_code(ring, system, family, (0, 1, 2, 3, 4)))
    idempotents = [c.idempotent for c in orbit]
    assert len(calls) <= system.m + 1
    assert len(calls) == len(set(calls))
    monkeypatch.undo()
    assert idempotents == [ring_poly_combine(ring, [
        inverse(system, 5, field_codes.gauss_periods(system, 5), spec)
        for spec in c.spectra]) for c in orbit]


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
    # the spectra are relative to alpha whatever the labeling
    for k, comp in enumerate(code.components):
        elem = ring_poly_component(code.ring, code.idempotent, k)
        assert spectrum_direct(code.system, code.ring.q, 1, elem) == \
            code.spectra[k]
        assert ring_poly_component(code.ring, code.generator, k) == \
            comp.generator


@settings(max_examples=40, deadline=None)
@given(ring_codes_from(CASES))
def test_component_consistency_matches_uncached_oracle(code):
    # CASES are the identity suite's grid points with all four families
    expected = component_consistency_uncached(code)
    assert component_consistency(code) == expected
    assert component_consistency(code) == expected  # no cached verdict


@settings(max_examples=40, deadline=None)
@given(ring_codes_from(CASES))
def test_class_i_elements_idempotent_property(code):
    ctx, p = code.ring.field, code.p
    for fam in ("even-I", "odd-I"):
        c = ring_code(code.ring, code.system, fam, code.slots,
                      code.alpha_exp)
        for k in range(code.ring.s):
            e = ring_poly_component(code.ring, c.idempotent, k)
            assert poly.mul_mod(ctx.q, e, e, p) == e


@settings(max_examples=25, deadline=None)
@given(ring_codes_from(SMALL_CASES))
def test_chain_weight_distribution_invariant_property(code):
    # one mu_a step permutes the coordinates of every component alike,
    # and each member's distribution passes the certificate
    q, s = code.ring.q, code.ring.s
    dists = {min_distance_ring_exhaustive(c).weight_distribution
             for c in ring_mu_chain(code)}
    assert len(dists) == 1
    distribution_certificate(dists.pop(), code.p,
                             q ** sum(code.component_ranks), q**s, code.p, q)
