"""Field code family tests with frozen reference generators."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from madics import poly
from madics.analysis import min_distance_field
from madics.errors import NonPrimeModulus, QNotResidue
from madics.ffield import make_prime_field
from madics.field_codes import (
    FAMILIES,
    _class_products,
    _product,
    all_ones_h,
    coset_factors,
    family_codes,
    splitting_field,
)
from madics.residues import build_residue_system
from oracle import idempotent_bezout, mod_xn_minus_1, product_schoolbook

F3 = make_prime_field(3)
F7 = make_prime_field(7)

# six degree-16 generators for q=7, p=19, m=6, transcribed ascending
REF_GENERATORS_Q7_P19_M6 = {
    (1, 4, 6, 6, 3, 0, 4, 5, 1, 0, 2, 2, 2, 4, 5, 3, 1),
    (1, 3, 1, 1, 5, 1, 6, 1, 5, 6, 0, 6, 3, 3, 5, 1, 1),
    (1, 0, 5, 1, 4, 3, 0, 5, 3, 4, 6, 2, 6, 2, 4, 2, 1),
    (1, 3, 5, 4, 2, 2, 2, 0, 1, 5, 4, 0, 3, 6, 6, 4, 1),
    (1, 1, 5, 3, 3, 6, 0, 6, 5, 1, 6, 1, 5, 1, 1, 3, 1),
    (1, 2, 4, 2, 6, 2, 6, 4, 3, 5, 0, 3, 4, 1, 5, 0, 1),
}


def test_even_like_generators_q7_p19_m6_frozen():
    system = build_residue_system(19, 6)
    codes = family_codes(system, F7, "even-I")
    assert {c.generator for c in codes} == REF_GENERATORS_Q7_P19_M6


def test_family_degrees():
    # deg ghat = (p-1)/m; even-I = p - that; class II off by one
    for q, p, m in ((3, 13, 4), (7, 19, 6), (3, 13, 2), (7, 19, 3)):
        system = build_residue_system(p, m)
        ctx = make_prime_field(q)
        card = (p - 1) // m
        degs = {
            "even-I": p - card,
            "odd-I": card,
            "even-II": card + 1,
            "odd-II": p - card - 1,
        }
        for fam in FAMILIES:
            for c in family_codes(system, ctx, fam):
                assert len(c.generator) - 1 == degs[fam]
                assert c.dimension == p - degs[fam]


def test_generators_divide_xp_minus_1():
    system = build_residue_system(13, 4)
    xp1 = poly.xn_minus_1(F3, 13)
    for fam in FAMILIES:
        for c in family_codes(system, F3, fam):
            assert poly.divides(F3, c.generator, xp1)


def test_class_i_complement_product():
    # g_i * ghat_i = x^p - 1
    system = build_residue_system(13, 4)
    xp1 = poly.xn_minus_1(F3, 13)
    evens = family_codes(system, F3, "even-I")
    odds = family_codes(system, F3, "odd-I")
    for e, o in zip(evens, odds):
        assert poly.mul(F3, e.generator, o.generator) == xp1


def test_class_ii_x_minus_1_relation():
    # h_i = (x-1) ghat_i and hhat_i = g_i/(x-1)
    system = build_residue_system(13, 4)
    x_minus_1 = (F3.neg(F3.one), F3.one)
    odd1 = family_codes(system, F3, "odd-I")
    even2 = family_codes(system, F3, "even-II")
    even1 = family_codes(system, F3, "even-I")
    odd2 = family_codes(system, F3, "odd-II")
    for o1, e2 in zip(odd1, even2):
        assert e2.generator == poly.mul(F3, x_minus_1, o1.generator)
    for e1, o2 in zip(even1, odd2):
        assert poly.mul(F3, x_minus_1, o2.generator) == e1.generator


def test_idempotent_properties():
    for q, p, m in ((3, 13, 4), (7, 19, 6)):
        system = build_residue_system(p, m)
        ctx = make_prime_field(q)
        xp1 = poly.xn_minus_1(ctx, p)
        for fam in FAMILIES:
            for c in family_codes(system, ctx, fam):
                assert poly.mul_mod(ctx, c.idempotent, c.idempotent, p) == \
                    c.idempotent
                assert poly.associates(
                    ctx, poly.gcd(ctx, c.idempotent, xp1), c.generator)


def test_even_like_codes_vanish_at_one():
    system = build_residue_system(13, 4)
    for fam in ("even-I", "even-II"):
        for c in family_codes(system, F3, fam):
            assert poly.eval_poly(F3, c.generator, F3.one) == F3.zero
    for fam in ("odd-I", "odd-II"):
        for c in family_codes(system, F3, fam):
            assert poly.eval_poly(F3, c.generator, F3.one) != F3.zero


def test_contains():
    system = build_residue_system(13, 4)
    code = family_codes(system, F3, "even-I")[0]

    def contains(word):
        # a codeword is a multiple of the generator mod x^p - 1
        return poly.divides(F3, code.generator,
                            mod_xn_minus_1(F3, word, code.p))

    assert contains(code.generator)
    shifted = (0,) + code.generator
    assert contains(shifted)
    assert not contains((1,))
    assert contains(())


def test_q_must_be_residue():
    system = build_residue_system(7, 3)
    with pytest.raises(QNotResidue):
        family_codes(system, make_prime_field(2), "even-I")


def test_alpha_exp_rotates_labels():
    # a different p-th root permutes the class labeling but not the set
    system = build_residue_system(13, 4)
    base = {c.generator for c in family_codes(system, F3, "even-I")}
    for u in (2, 5, 7):
        relabeled = {c.generator
                     for c in family_codes(system, F3, "even-I", u)}
        assert relabeled == base


def test_negative_alpha_exp_is_reduced_mod_p():
    # u = -1 and u = p - 1 name the same root alpha^(p-1)
    system = build_residue_system(13, 4)
    for fam in FAMILIES:
        assert family_codes(system, F3, fam, -1) == \
            family_codes(system, F3, fam, 12)


def test_coset_factors_multiply_to_xp_minus_1():
    for q, p in ((3, 13), (7, 19), (2, 7)):
        ctx = make_prime_field(q)
        factor_of = coset_factors(q, p)
        assert factor_of[0] == (ctx.neg(ctx.one), ctx.one)
        for coset in poly.cyclotomic_cosets(q, p):
            assert len({factor_of[k] for k in coset}) == 1
        assert product_schoolbook(ctx, dict.fromkeys(factor_of)) == \
            poly.xn_minus_1(ctx, p)
    with pytest.raises(NonPrimeModulus):
        coset_factors(3, 15)


@pytest.mark.parametrize("q,p", ((2, 7), (3, 13), (7, 19), (2, 23),
                                 (3, 11), (5, 31), (2, 89), (2, 127)))
def test_coset_factor_product_tree_matches_schoolbook(q, p):
    # every factor is the monic polynomial of degree |C| that vanishes
    # at alpha^k for k in its coset C, so it is unchanged; the packed
    # product tree agrees with the schoolbook product on the factors,
    # on every prefix of them and on random lists
    ctx = make_prime_field(q)
    ext, alpha = splitting_field(q, p)
    factor_of = coset_factors(q, p)
    for coset in poly.cyclotomic_cosets(q, p):
        factor = factor_of[coset[0]]
        assert len(factor) == len(coset) + 1 and factor[-1] == 1
        assert all(poly.eval_poly(ext, factor, ext.pow(alpha, k)) == 0
                   for k in coset)
    factors = list(dict.fromkeys(factor_of))
    for i in range(len(factors) + 1):
        assert _product(ctx, factors[:i]) == \
            product_schoolbook(ctx, factors[:i])
    rng = random.Random(q * p)
    for size in range(1, 8):
        polys = [tuple(rng.randrange(q) for _ in range(rng.randrange(1, 9)))
                 + (rng.randrange(1, q),) for _ in range(size)]
        assert _product(ctx, polys) == product_schoolbook(ctx, polys)


def test_dropped_coset_fails_the_factor_check(monkeypatch):
    cosets = poly.cyclotomic_cosets
    monkeypatch.setattr(poly, "cyclotomic_cosets",
                        lambda q, p: cosets(q, p)[:-1])
    message = r"coset factors do not multiply to x\*\*p - 1"
    for q, p in ((3, 13), (2, 89)):
        with pytest.raises(AssertionError, match=message):
            coset_factors.__wrapped__(q, p)


@pytest.mark.parametrize("q,p,m", (
    (2, 7, 2), (3, 13, 4), (3, 13, 2), (7, 19, 6), (2, 23, 2), (3, 11, 2),
    (2, 31, 3), (5, 11, 2), (2, 73, 8), (2, 89, 8), (2, 127, 9)))
def test_class_products_match_direct_roots(q, p, m):
    # ghat_i = prod_{k in u*Q_i} (x - alpha^k), multiplied out in GF(q^t)
    system = build_residue_system(p, m)
    ext, alpha = splitting_field(q, p)
    for u in (1, 2, 3, -1):
        direct = []
        for cls in system.classes:
            prod = (ext.one,)
            for k in cls:
                root = ext.pow(alpha, u * k % p)
                prod = poly.mul(ext, prod, (ext.neg(root), ext.one))
            direct.append(prod)
        assert _class_products(system, q, u) == tuple(direct)


@pytest.mark.parametrize("q,p,m", (
    (2, 7, 2), (3, 13, 2), (3, 13, 4), (3, 11, 2), (5, 11, 2), (7, 19, 3),
    (7, 19, 6), (2, 23, 2), (2, 31, 3), (2, 89, 8), (2, 127, 9)))
def test_idempotents_match_bezout_oracle(q, p, m):
    # the Gauss-period idempotents against the extended Euclid on each
    # generator, p != 1 (mod q) included: (7, 19) and (3, 11)
    system = build_residue_system(p, m)
    ctx = make_prime_field(q)
    for u in (1, 2, 3, -1):
        for fam in FAMILIES:
            for c in family_codes(system, ctx, fam, u):
                assert c.idempotent == idempotent_bezout(ctx, c.generator, p)


def _family_dims(p, m):
    e = (p - 1) // m
    return {"even-I": e, "odd-I": p - e, "even-II": p - 1 - e,
            "odd-II": e + 1}


# (q, p, m, family) with q an m-adic residue mod p, a splitting field of
# at most 2**16 elements and q**k <= 2**14 words in the family's codes
FIELD_CASES = [
    (q, p, m, family)
    for q in (2, 3, 5, 7)
    for p in (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 73) if p != q
    if q ** make_prime_field(p).multiplicative_order(q % p) <= 1 << 16
    for m in range(2, p) if (p - 1) % m == 0
    and build_residue_system(p, m).is_madic_residue(q % p)
    for family, k in _family_dims(p, m).items() if q ** k <= 1 << 14
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FIELD_CASES))
def test_family_idempotents_generate_property(case):
    q, p, m, family = case
    ctx = make_prime_field(q)
    xp1 = poly.xn_minus_1(ctx, p)
    for c in family_codes(build_residue_system(p, m), ctx, family):
        assert poly.mul_mod(ctx, c.idempotent, c.idempotent, p) == \
            c.idempotent
        assert poly.associates(ctx, poly.gcd(ctx, c.idempotent, xp1),
                               c.generator)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FIELD_CASES))
def test_family_weight_distributions_agree_property(case):
    # the m codes of a family are equivalent under the multipliers mu_b
    q, p, m, family = case
    codes = family_codes(build_residue_system(p, m), make_prime_field(q),
                         family)
    assert len({min_distance_field(c).weight_distribution
                for c in codes}) == 1


def test_idempotents_supported_on_classes():
    # even-I idempotents are class-sum combinations plus constant
    system = build_residue_system(13, 4)
    for c in family_codes(system, F3, "even-I"):
        e = list(c.idempotent) + [0] * (13 - len(c.idempotent))
        for i, cls in enumerate(system.classes):
            vals = {e[k] for k in cls}
            assert len(vals) == 1


def test_splitting_field_root_order():
    ext, alpha = splitting_field(3, 13)
    assert ext.multiplicative_order(alpha) == 13
    ext7, alpha7 = splitting_field(7, 19)
    assert ext7.multiplicative_order(alpha7) == 19


def test_all_ones_h():
    assert all_ones_h(5) == (1, 1, 1, 1, 1)
