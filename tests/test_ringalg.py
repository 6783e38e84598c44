"""Ring context tests: GF(q)[v]/(v^s - v) with its CRT structure."""

import random

import pytest

from madics import poly
from madics.errors import IncompatibleS
from madics.ffield import make_prime_field
from madics.ringalg import (
    all_ones_ring,
    format_ring_poly,
    make_ring,
    ring_poly_combine,
    ring_poly_component,
)

rng = random.Random(0x51A6)
R33 = make_ring(make_prime_field(3), 3)


def rand_elt(ring):
    return tuple(rng.randrange(ring.q) for _ in range(ring.s))


def test_incompatible_s():
    with pytest.raises(IncompatibleS):
        make_ring(make_prime_field(3), 4)
    with pytest.raises(IncompatibleS):
        make_ring(make_prime_field(7), 5)


def test_valid_rings():
    for q, s in ((3, 2), (3, 3), (7, 3), (7, 4), (7, 7), (5, 5), (11, 3)):
        ring = make_ring(make_prime_field(q), s)
        assert ring.s == s and ring.q == q


def test_zeta_order():
    for q, s in ((3, 3), (7, 4), (5, 5), (7, 7)):
        ring = make_ring(make_prime_field(q), s)
        field = ring.field
        assert field.multiplicative_order(ring.zeta) == s - 1


def test_eta_frozen_q3_s3():
    assert R33.eta == ((1, 0, 2), (0, 2, 2), (0, 1, 2))


def test_eta_orthogonal_idempotents():
    for q, s in ((3, 3), (7, 4), (5, 5)):
        ring = make_ring(make_prime_field(q), s)
        total = ring.zero_elt if hasattr(ring, "zero_elt") else \
            tuple([0] * s)
        for i, ei in enumerate(ring.eta):
            assert ring.mul(ei, ei) == ei
            for k, ek in enumerate(ring.eta):
                if k != i:
                    assert ring.mul(ei, ek) == tuple([0] * s)
            total = ring.add(total, ei)
        assert total == ring.one


def test_crt_round_trip():
    for q, s in ((3, 3), (7, 4), (5, 5)):
        ring = make_ring(make_prime_field(q), s)
        for _ in range(60):
            a = rand_elt(ring)
            assert ring.crt_inv(ring.crt(a)) == a


def test_crt_is_ring_homomorphism():
    for _ in range(60):
        a, b = rand_elt(R33), rand_elt(R33)
        va, vb = R33.crt(a), R33.crt(b)
        prod = R33.crt(R33.mul(a, b))
        add = R33.crt(R33.add(a, b))
        for k in range(R33.s):
            assert prod[k] == R33.field.mul(va[k], vb[k])
            assert add[k] == R33.field.add(va[k], vb[k])


def test_crt_points():
    # evaluation points are 0 and the powers of zeta's inverse order
    vals = R33.crt_points
    assert vals[0] == 0
    assert len(set(vals)) == R33.s


def test_units_and_inverse():
    units = 0
    for a0 in range(3):
        for a1 in range(3):
            for a2 in range(3):
                a = (a0, a1, a2)
                if R33.is_unit(a):
                    units += 1
                    assert R33.mul(a, R33.inv(a)) == R33.one
    # unit count = (q-1)^s over the CRT points
    assert units == 2 ** 3


def test_v_satisfies_relation():
    # v^s = v in the ring
    v = tuple([0, 1] + [0] * (R33.s - 2))
    acc = v
    for _ in range(R33.s - 1):
        acc = R33.mul(acc, v)
    assert acc == v


def test_lift_component_combine_round_trip():
    coeffs = tuple(rng.randrange(3) for _ in range(13))
    lifted = poly.trim(R33, (R33.from_scalar(c) for c in coeffs))
    for k in range(3):
        assert ring_poly_component(R33, lifted, k) == poly.trim(
            make_prime_field(3), coeffs)
    parts = [tuple(rng.randrange(3) for _ in range(13)) for _ in range(3)]
    combined = ring_poly_combine(R33, parts)
    f3 = make_prime_field(3)
    for k in range(3):
        assert ring_poly_component(R33, combined, k) == poly.trim(f3, parts[k])


def test_all_ones_ring():
    h = all_ones_ring(R33, 5)
    assert len(h) == 5
    assert all(c == R33.one for c in h)


def test_format_ring_poly():
    one = R33.one
    v = (0, 1, 0)
    text = format_ring_poly(R33, (one, v))
    assert "v" in text and "x" in text
    assert format_ring_poly(R33, ()) == "0"
