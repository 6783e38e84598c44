"""Polynomial arithmetic tests over field contexts."""

import random

import pytest

from madics import poly
from madics.errors import BothZero, NotADivisor, ZeroCode
from madics.ffield import make_extension, make_prime_field
from madics.field_codes import coset_factors

rng = random.Random(0x9017)
F3 = make_prime_field(3)
F7 = make_prime_field(7)


def rand_poly(ctx, max_deg):
    return poly.trim(ctx, tuple(rng.randrange(ctx.size)
                                for _ in range(max_deg + 1)))


def test_trim_and_degree():
    assert poly.trim(F3, (1, 2, 0, 0)) == (1, 2)
    assert poly.trim(F3, (0, 0)) == ()
    assert poly.degree(()) == poly.NEG_DEGREE
    assert poly.degree((0, 1)) == 1


def test_add_sub_cancel():
    for _ in range(50):
        a, b = rand_poly(F7, 8), rand_poly(F7, 8)
        assert poly.sub(F7, poly.add(F7, a, b), b) == a


def test_mul_degree_and_commutativity():
    for _ in range(50):
        a, b = rand_poly(F7, 6), rand_poly(F7, 6)
        ab = poly.mul(F7, a, b)
        assert ab == poly.mul(F7, b, a)
        if a and b:
            assert poly.degree(ab) == poly.degree(a) + poly.degree(b)


def test_divmod_round_trip():
    for _ in range(80):
        a = rand_poly(F7, 10)
        b = rand_poly(F7, 5)
        if not b:
            continue
        q, r = poly.divmod_poly(F7, a, b)
        assert poly.add(F7, poly.mul(F7, q, b), r) == a
        assert poly.degree(r) < poly.degree(b)


def test_div_exact_rejects_remainder():
    with pytest.raises(NotADivisor):
        poly.div_exact(F3, (1, 1, 1), (1, 1))


def test_gcd_ext_bezout():
    for _ in range(60):
        a, b = rand_poly(F3, 8), rand_poly(F3, 8)
        if not a and not b:
            continue
        g, u, v = poly.gcd_ext(F3, a, b)
        lhs = poly.add(F3, poly.mul(F3, u, a), poly.mul(F3, v, b))
        assert lhs == g
        if a:
            assert poly.divides(F3, g, a)
        if b:
            assert poly.divides(F3, g, b)
        # gcd is monic
        assert g[-1] == F3.one


def test_gcd_both_zero():
    with pytest.raises(BothZero):
        poly.gcd(F3, (), ())


def test_mod_xn_minus_1_folds_exponents():
    a = (0, 0, 0, 0, 0, 1)  # x^5
    assert poly.mod_xn_minus_1(F3, a, 5) == (1,)
    assert poly.mul_mod(F3, (0, 1), (0, 0, 0, 0, 1), 5) == (1,)


def test_eval_poly():
    a = (1, 2, 1)  # 1 + 2x + x^2 over F_3
    assert poly.eval_poly(F3, a, 1) == 1
    assert poly.eval_poly(F3, a, 2) == (1 + 4 + 4) % 3


def test_powmod_matches_naive():
    f = poly.xn_minus_1(F3, 7)
    base = (1, 1)
    acc = poly.constant(F3, F3.one)
    for e in range(10):
        assert poly.powmod(F3, base, e, f) == poly.divmod_poly(F3, acc, f)[1]
        acc = poly.mul(F3, acc, base)


def test_cyclotomic_cosets_partition():
    cosets = poly.cyclotomic_cosets(3, 13)
    seen = sorted(x for c in cosets for x in c)
    assert seen == list(range(13))
    for c in cosets:
        for x in c:
            assert (3 * x) % 13 in c


def test_idempotent_of_cyclic_properties():
    ctx = F3
    p = 13
    xp1 = poly.xn_minus_1(ctx, p)
    factors = list(dict.fromkeys(coset_factors(3, p)))
    # products of factor subsets give every nontrivial divisor shape
    for i in range(len(factors)):
        g = poly.constant(ctx, ctx.one)
        for k, f in enumerate(factors):
            if k != i:
                g = poly.mul(ctx, g, f)
        e = poly.idempotent_of_cyclic(ctx, g, p)
        assert poly.mul_mod(ctx, e, e, p) == e
        assert poly.divides(ctx, g, e)
        assert poly.associates(ctx, poly.gcd(ctx, e, xp1), g)


def test_idempotent_rejects_zero_code():
    with pytest.raises(ZeroCode):
        poly.idempotent_of_cyclic(F3, poly.xn_minus_1(F3, 13), 13)


def test_parse_format_round_trip():
    for _ in range(40):
        a = rand_poly(F7, 9)
        text = poly.format_poly(a)
        assert len(text.split("+")) == max(1, sum(1 for c in a if c))
    assert poly.format_poly((1, 2, 0, 1)) == "1+2*x+x^3"
    assert poly.format_poly(()) == "0"


def test_extension_context_polys():
    ext = make_extension(3, 2)
    a = rand_poly(ext, 4)
    b = rand_poly(ext, 3)
    if b:
        q, r = poly.divmod_poly(ext, a, b)
        assert poly.add(ext, poly.mul(ext, q, b), r) == a
