"""Field context tests: prime fields, extensions, orders and inverses."""

import random
from itertools import product

import pytest

from madics import ffield, poly
from madics.errors import FieldTooLarge, NonPrimeModulus
from madics.ffield import (
    is_prime,
    is_prime_power,
    make_extension,
    make_prime_field,
)
from oracle import (
    field_add,
    field_neg,
    is_prime_power_trial,
    is_prime_trial,
)

rng = random.Random(0xF1E1D)


def test_is_prime_small():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                      47, 53, 59]


def test_is_prime_matches_trial_division():
    assert all(is_prime(n) == is_prime_trial(n) for n in range(10**5))


def test_is_prime_power_matches_trial_division():
    assert all(is_prime_power(n) == is_prime_power_trial(n)
               for n in range(10**5))


@pytest.mark.parametrize("n", [561, 41041, 3215031751])
def test_carmichael_numbers_are_composite(n):
    # Fermat pseudoprimes to every coprime base; 3215031751 is also a
    # strong pseudoprime to the bases 2, 3, 5 and 7
    assert not is_prime(n) and not is_prime_trial(n)
    assert not is_prime_power(n)


def test_large_primes_and_prime_powers():
    m61 = 2**61 - 1
    assert is_prime(m61) and is_prime_power(m61)
    assert is_prime_power(m61**3) and not is_prime(m61**3)
    assert not is_prime_power(m61 * (2**31 - 1))
    assert is_prime(100000000000031)


def test_prime_field_ops():
    ctx = make_prime_field(13)
    assert ctx.q == 13 and ctx.t == 1 and ctx.size == 13
    for _ in range(200):
        a, b = rng.randrange(13), rng.randrange(13)
        assert field_add(ctx, a, b) == (a + b) % 13
        assert ctx.mul(a, b) == (a * b) % 13
    assert field_neg(ctx, 0) == 0


def test_prime_field_inverse():
    ctx = make_prime_field(19)
    for a in range(1, 19):
        assert ctx.mul(a, ctx.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)


def test_prime_field_zero_is_read_mod_q():
    # a multiple of q is the zero of GF(q): it has no inverse and no
    # order, and it is not primitive; a nonzero value is read mod q
    ctx = make_prime_field(5)
    for zero in (0, 5, 10, -5):
        with pytest.raises(ZeroDivisionError):
            ctx.inv(zero)
        with pytest.raises(ZeroDivisionError):
            ctx.multiplicative_order(zero)
        assert not ctx.is_primitive(zero)
    assert ctx.inv(7) == ctx.inv(2) == 3
    assert ctx.multiplicative_order(7) == ctx.multiplicative_order(2) == 4
    assert ctx.is_primitive(7) and not ctx.is_primitive(9)


def test_extension_zero_is_read_mod_size():
    ext = make_extension(3, 2)
    for zero in (0, 9, 18):
        with pytest.raises(ZeroDivisionError):
            ext.inv(zero)
        with pytest.raises(ZeroDivisionError):
            ext.multiplicative_order(zero)
        assert not ext.is_primitive(zero)


def test_prime_field_requires_prime():
    with pytest.raises(NonPrimeModulus):
        make_prime_field(12)


def test_field_size_cap():
    # 2**32 elements is past SIZE_CAP; so is a large prime field, which
    # is refused before its primitive-root search factors q - 1
    with pytest.raises(FieldTooLarge):
        make_extension(2, 32)
    with pytest.raises(FieldTooLarge):
        make_prime_field(4611686018427394499)
    assert make_prime_field(2**31 - 1).primitive_element == 7


def _order_by_steps(ext, a):
    """The multiplicative order of a, one multiply at a time."""
    e, x = 1, a
    while x != 1:
        x, e = ext.mul(x, a), e + 1
    return e


@pytest.mark.parametrize("q,t", [(2, 1), (2, 4), (3, 1), (3, 2), (5, 2),
                                 (13, 1), (2, 6)])
def test_is_primitive_matches_order(q, t):
    ext = make_extension(q, t)
    assert not ext.is_primitive(0)
    for a in range(1, ext.size):
        assert ext.is_primitive(a) == (_order_by_steps(ext, a) == ext.size - 1)


def test_primitive_element_order():
    for q in (3, 7, 11, 13):
        ctx = make_prime_field(q)
        assert ctx.multiplicative_order(ctx.primitive_element) == q - 1


@pytest.mark.parametrize("q,t", [(3, 3), (7, 3), (2, 4), (5, 2)])
def test_extension_field_laws(q, t):
    ext = make_extension(q, t)
    assert ext.size == q ** t
    assert ext.multiplicative_order(ext.primitive_element) == ext.size - 1
    elems = [rng.randrange(ext.size) for _ in range(25)]
    for a in elems:
        b, c = rng.randrange(ext.size), rng.randrange(ext.size)
        assert field_add(ext, a, b) == field_add(ext, b, a)
        assert ext.mul(a, b) == ext.mul(b, a)
        # distributivity
        assert ext.mul(a, field_add(ext, b, c)) == field_add(
            ext, ext.mul(a, b), ext.mul(a, c))
        if a:
            assert ext.mul(a, ext.inv(a)) == 1


def test_extension_subfield_embedding():
    ext = make_extension(3, 3)
    # integers 0..q-1 are the prime subfield and add/multiply as such
    for a in range(3):
        for b in range(3):
            assert field_add(ext, a, b) == (a + b) % 3
            assert ext.mul(a, b) == (a * b) % 3


def test_extension_frobenius_fixes_base():
    ext = make_extension(7, 3)
    for a in range(7):
        assert ext.pow(a, 7) == a


def test_vec_round_trip():
    ext = make_extension(3, 3)
    for a in range(ext.size):
        assert ext.from_vec(ext.to_vec(a)) == a


def test_pow_matches_repeated_mul():
    ext = make_extension(5, 2)
    a = ext.primitive_element
    acc = 1
    for e in range(12):
        assert ext.pow(a, e) == acc
        acc = ext.mul(acc, a)


def test_pow_rejects_negative_exponent():
    for ctx in (make_prime_field(13), make_extension(5, 2)):
        with pytest.raises(ValueError):
            ctx.pow(ctx.primitive_element, -1)


def test_gf3_11_pinned():
    # the values the full search (c_0 = 0 candidates included) finds,
    # which takes about 100 s for this field
    ext = make_extension(3, 11)
    assert ext.modulus == (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 1)
    assert ext.primitive_element == 118098
    assert ext.to_vec(ext.primitive_element) == (0,) * 10 + (2,)


def full_modulus_search(q, t):
    """The smallest monic irreducible, c_0 = 0 candidates included."""
    for lower in product(range(q), repeat=t):
        cand = poly.trim(q, lower + (1,))
        if ffield._is_irreducible(q, cand, t):
            return cand


@pytest.mark.parametrize("q,t", [(2, 8), (2, 9), (3, 6), (5, 4), (5, 5),
                                 (7, 3)])
def test_modulus_search_skips_only_reducibles(q, t):
    assert (ffield.make_extension.__wrapped__(q, t).modulus
            == full_modulus_search(q, t))
