"""Field context tests: prime fields, extensions, orders and inverses."""

import random
from itertools import product

import pytest

from madics import ffield, poly
from madics.errors import NonPrimeModulus
from madics.ffield import FieldCtx, is_prime, make_extension, make_prime_field

rng = random.Random(0xF1E1D)


def test_is_prime_small():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                      47, 53, 59]


def test_prime_field_ops():
    ctx = make_prime_field(13)
    assert ctx.q == 13 and ctx.t == 1 and ctx.size == 13
    for _ in range(200):
        a, b = rng.randrange(13), rng.randrange(13)
        assert ctx.add(a, b) == (a + b) % 13
        assert ctx.mul(a, b) == (a * b) % 13
        assert ctx.sub(a, b) == (a - b) % 13
    assert ctx.neg(0) == 0


def test_prime_field_inverse():
    ctx = make_prime_field(19)
    for a in range(1, 19):
        assert ctx.mul(a, ctx.inv(a)) == ctx.one
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)


def test_prime_field_requires_prime():
    with pytest.raises(NonPrimeModulus):
        make_prime_field(12)


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
        assert ext.add(a, b) == ext.add(b, a)
        assert ext.mul(a, b) == ext.mul(b, a)
        # distributivity
        assert ext.mul(a, ext.add(b, c)) == ext.add(ext.mul(a, b),
                                                    ext.mul(a, c))
        if a != ext.zero:
            assert ext.mul(a, ext.inv(a)) == ext.one


def test_extension_subfield_embedding():
    ext = make_extension(3, 3)
    # integers 0..q-1 are the prime subfield and add/multiply as such
    for a in range(3):
        for b in range(3):
            assert ext.add(a, b) == (a + b) % 3
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
    acc = ext.one
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
    base = make_prime_field(q)
    for lower in product(range(q), repeat=t):
        cand = poly.trim(base, lower + (1,))
        if ffield._is_irreducible(base, cand, t):
            return cand


@pytest.mark.parametrize("q,t", [(2, 8), (2, 9), (3, 6), (5, 4), (5, 5),
                                 (7, 3)])
def test_modulus_search_skips_only_reducibles(q, t):
    assert ffield._build_extension(q, t).modulus == full_modulus_search(q, t)
