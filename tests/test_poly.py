"""Polynomial arithmetic tests over prime fields GF(q), against the
field-context oracles."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from madics import poly
from madics.errors import BothZero, NonUnitLeadingCoefficient
from madics.ffield import make_prime_field
from madics.field_codes import coset_factors
from oracle import (
    add_generic,
    divmod_generic,
    eval_generic,
    gcd_ext,
    gcd_generic,
    idempotent_bezout,
    mod_xn_minus_1,
    monic_generic,
    mul_mod_schoolbook,
    product_schoolbook,
    sub_generic,
    trim_generic,
)

rng = random.Random(0x9017)
F3 = make_prime_field(3)
F7 = make_prime_field(7)


def rand_poly(ctx, max_deg):
    return poly.trim(ctx.q, tuple(rng.randrange(ctx.size)
                                  for _ in range(max_deg + 1)))


def test_trim_and_degree():
    assert poly.trim(3, (1, 2, 0, 0)) == (1, 2)
    assert poly.trim(3, (0, 0)) == ()
    # a canonical polynomial has degree len - 1, the zero one none
    assert len(poly.trim(3, (0, 1, 0))) - 1 == 1


def test_add_sub_cancel():
    for _ in range(50):
        a, b = rand_poly(F7, 8), rand_poly(F7, 8)
        assert sub_generic(F7, add_generic(F7, a, b), b) == a


def test_mul_degree_and_commutativity():
    for _ in range(50):
        a, b = rand_poly(F7, 6), rand_poly(F7, 6)
        ab = poly.mul(7, a, b)
        assert ab == poly.mul(7, b, a)
        if a and b:
            assert len(ab) == len(a) + len(b) - 1


def test_divmod_round_trip():
    for _ in range(80):
        a = rand_poly(F7, 10)
        b = rand_poly(F7, 5)
        if not b:
            continue
        r = poly.rem(7, a, b)
        assert len(r) < len(b)
        # b divides a - r: the oracle's quotient times b gives it back
        diff = sub_generic(F7, a, r)
        quot, rest = divmod_generic(F7, diff, b)
        assert not rest and poly.mul(7, quot, b) == diff


def test_gcd_ext_bezout():
    # the oracle's cofactors, the basis of the Bezout idempotents
    for _ in range(60):
        a, b = rand_poly(F3, 8), rand_poly(F3, 8)
        if not a and not b:
            continue
        g, u, v = gcd_ext(F3, a, b)
        lhs = add_generic(F3, poly.mul(3, u, a), poly.mul(3, v, b))
        assert lhs == g
        if a:
            assert poly.divides(3, g, a)
        if b:
            assert poly.divides(3, g, b)
        # gcd is monic
        assert g[-1] == 1


def test_gcd_both_zero():
    with pytest.raises(BothZero):
        poly.gcd(3, (), ())


def test_gcd_matches_gcd_ext():
    for ctx in (F3, F7):
        for _ in range(60):
            a, b = rand_poly(ctx, 9), rand_poly(ctx, 6)
            if a or b:
                assert poly.gcd(ctx.q, a, b) == gcd_ext(ctx, a, b)[0]
    # a shared factor, and one side zero
    f = (1, 1)
    assert poly.gcd(7, poly.mul(7, f, (2, 3)), poly.mul(7, f, (5,))) == f
    assert poly.gcd(7, (), (3, 6)) == (4, 1)


def test_mod_xn_minus_1_folds_exponents():
    a = (0, 0, 0, 0, 0, 1)  # x^5
    assert mod_xn_minus_1(F3, a, 5) == (1,)
    assert poly.mul_mod(3, (0, 1), (0, 0, 0, 0, 1), 5) == (1,)


@st.composite
def mul_mod_cases(draw):
    q = draw(st.sampled_from((2, 3, 5, 7, 13, 31)))
    n = draw(st.integers(1, 130))
    coeffs = st.lists(st.integers(0, q - 1), max_size=n)
    return make_prime_field(q), draw(coeffs), draw(coeffs), n


@settings(max_examples=150, deadline=None)
@given(mul_mod_cases())
def test_mul_mod_matches_schoolbook_property(case):
    ctx, a, b, n = case
    a, b = poly.trim(ctx.q, a), poly.trim(ctx.q, b)
    assert poly.mul_mod(ctx.q, a, b, n) == mul_mod_schoolbook(ctx, a, b, n)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((257, 65537, 2**31 - 1)), st.integers(1, 40),
       st.data())
def test_mul_mod_multibyte_coefficients_match_schoolbook(q, n, data):
    # q > 256: a coefficient spans several bytes of its slot
    ctx = make_prime_field(q)
    coeffs = st.lists(st.integers(0, q - 1), max_size=n)
    a, b = poly.trim(q, data.draw(coeffs)), poly.trim(q, data.draw(coeffs))
    assert poly.mul_mod(q, a, b, n) == mul_mod_schoolbook(ctx, a, b, n)


def test_mul_mod_slot_width_worst_case():
    # every folded slot sums n products (q-1)**2: the largest slot value
    for q, n in ((31, 127), (2, 127), (65537, 127)):
        ctx = make_prime_field(q)
        full = (q - 1,) * n
        want = ((n * (q - 1) ** 2) % q,) * n
        got = poly.mul_mod(q, full, full, n)
        assert got == poly.trim(q, want)
        assert got == mul_mod_schoolbook(ctx, full, full, n)


def test_mul_mod_zero_and_unfolded():
    a = rand_poly(F7, 10)
    assert poly.mul_mod(7, (), a, 11) == ()
    assert poly.mul_mod(7, a, (), 11) == ()
    # deg(a*b) < n: no fold, the plain product
    b = (3, 0, 5)
    assert poly.mul_mod(7, a, b, 13) == poly.mul(7, a, b)


def test_mul_mod_rejects_long_inputs():
    with pytest.raises(ValueError):
        poly.mul_mod(3, (1,) * 6, (1, 1), 5)
    with pytest.raises(ValueError):
        poly.mul_mod(3, (1, 1), (1,) * 6, 5)


def test_eval_poly():
    a = (1, 2, 1)  # 1 + 2x + x^2 over F_3
    assert poly.eval_poly(3, a, 1) == 1
    assert poly.eval_poly(3, a, 2) == (1 + 4 + 4) % 3


def test_idempotent_of_cyclic_properties():
    ctx = F3
    p = 13
    xp1 = poly.xn_minus_1(ctx.q, p)
    factors = list(coset_factors(3, p).values())
    # products of factor subsets give every nontrivial divisor shape
    for i in range(len(factors)):
        g = (1,)
        for k, f in enumerate(factors):
            if k != i:
                g = poly.mul(ctx.q, g, f)
        e = idempotent_bezout(ctx, g, p)
        assert poly.mul_mod(ctx.q, e, e, p) == e
        assert poly.divides(ctx.q, g, e)
        assert poly.gcd(ctx.q, e, xp1) == poly.monic(ctx.q, g)


def test_parse_format_round_trip():
    for _ in range(40):
        a = rand_poly(F7, 9)
        text = poly.format_poly(a)
        assert len(text.split("+")) == max(1, sum(1 for c in a if c))
    assert poly.format_poly((1, 2, 0, 1)) == "1+2*x+x^3"
    assert poly.format_poly(()) == "0"


# ---------------- differential tests against the oracles ----------------

SMALL_FIELDS = tuple(make_prime_field(q) for q in (2, 3, 5, 7))


def canon(ctx, a):
    """The canonical polynomial of an unreduced coefficient sequence."""
    return trim_generic(ctx, [c % ctx.q for c in a])


@st.composite
def raw_polys(draw, count=2):
    """A small prime field and ``count`` coefficient tuples of unequal
    lengths, with unreduced (negative, >= q) entries and trailing
    zeros; the empty tuple and all-zero tuples are the zero polynomial."""
    ctx = draw(st.sampled_from(SMALL_FIELDS))
    q = ctx.q
    coeffs = st.lists(st.integers(-2 * q, 3 * q), max_size=12).map(tuple)
    return (ctx,) + tuple(draw(coeffs) for _ in range(count))


DIFF = settings(max_examples=120, deadline=None)


@DIFF
@given(raw_polys())
def test_ring_operations_match_oracle(case):
    ctx, a, b = case
    A, B = canon(ctx, a), canon(ctx, b)
    assert poly.trim(ctx.q, a) == A
    assert poly.mul(ctx.q, a, b) == product_schoolbook(ctx, (A, B))
    for x in range(-1, ctx.q + 1):
        assert poly.eval_poly(ctx.q, a, x) == eval_generic(ctx, A, x % ctx.q)


@DIFF
@given(raw_polys(), st.integers(0, 6))
def test_mul_mod_unreduced_matches_oracle(case, extra):
    ctx, a, b = case
    n = max(len(a), len(b), 1) + extra
    assert poly.mul_mod(ctx.q, a, b, n) == mul_mod_schoolbook(
        ctx, canon(ctx, a), canon(ctx, b), n)


@DIFF
@given(raw_polys())
def test_division_matches_oracle(case):
    ctx, a, b = case
    A, B = canon(ctx, a), canon(ctx, b)
    if not B:
        with pytest.raises(NonUnitLeadingCoefficient):
            poly.rem(ctx.q, a, b)
        assert poly.divides(ctx.q, b, a) == (not A)
        return
    rem = divmod_generic(ctx, A, B)[1]
    assert poly.rem(ctx.q, a, b) == rem
    assert poly.divides(ctx.q, b, a) == (not rem)
    assert poly.rem(ctx.q, product_schoolbook(ctx, (A, B)), b) == ()


@DIFF
@given(raw_polys())
def test_gcd_monic_associates_match_oracle(case):
    ctx, a, b = case
    A, B = canon(ctx, a), canon(ctx, b)
    assert poly.monic(ctx.q, a) == monic_generic(ctx, A)
    if A or B:
        assert poly.gcd(ctx.q, a, b) == gcd_generic(ctx, A, B)
    else:
        with pytest.raises(BothZero):
            poly.gcd(ctx.q, a, b)


@pytest.mark.parametrize("ctx", SMALL_FIELDS, ids=lambda c: f"GF({c.q})")
def test_xn_minus_1_matches_oracle(ctx):
    for n in (1, 2, 7):
        x_n = (0,) * n + (1,)
        assert poly.xn_minus_1(ctx.q, n) == sub_generic(ctx, x_n, (1,))
