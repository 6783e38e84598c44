"""Ring context tests: GF(q)[v]/(v^s - v) with its CRT structure."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from madics import poly
from madics.errors import IncompatibleS, TooLarge
from madics.ffield import FieldCtx, make_prime_field
from madics.ringalg import (
    S_CAP,
    RingCtx,
    _validate_ring,
    format_ring_poly,
    make_ring,
    ring_poly_combine,
    ring_poly_component,
)
from oracle import (
    VBasisRing,
    crt_inv,
    ring_poly_combine_coeffwise,
    trim_generic,
)

rng = random.Random(0x51A6)
R33 = make_ring(make_prime_field(3), 3)
V33 = VBasisRing(R33)
VALID = ((3, 2), (3, 3), (7, 3), (7, 4), (7, 7), (5, 5), (11, 3))


def rand_elt(ring):
    return tuple(rng.randrange(ring.q) for _ in range(ring.s))


def test_s_cap_refused_before_zeta(monkeypatch):
    # validating the s idempotents at the s CRT points costs s**3
    # steps: an s past S_CAP is refused before zeta or any eta_k
    assert 7 <= S_CAP < 257
    ctx = make_prime_field(257)

    def no_power(*args):
        raise AssertionError("zeta computed before the cap check")

    monkeypatch.setattr(FieldCtx, "pow", no_power)
    with pytest.raises(TooLarge, match="s=257 exceeds the ring cap"):
        make_ring(ctx, 257)


def test_s_cap_builds():
    assert make_ring(make_prime_field(127), S_CAP).s == S_CAP == 64


def test_incompatible_s():
    with pytest.raises(IncompatibleS):
        make_ring(make_prime_field(3), 4)
    with pytest.raises(IncompatibleS):
        make_ring(make_prime_field(7), 5)


def test_valid_rings():
    for q, s in VALID:
        ring = make_ring(make_prime_field(q), s)
        assert ring.s == s and ring.q == q


def test_validate_ring_rejects_swapped_eta():
    eta = (R33.eta[1], R33.eta[0]) + R33.eta[2:]
    bad = RingCtx(R33.field, 3, R33.zeta, eta, R33.crt_points)
    with pytest.raises(AssertionError, match="CRT components"):
        _validate_ring(bad)


def test_validate_ring_rejects_repeated_point():
    points = (R33.crt_points[0],) * 2 + R33.crt_points[2:]
    bad = RingCtx(R33.field, 3, R33.zeta, R33.eta, points)
    with pytest.raises(AssertionError, match="roots of v"):
        _validate_ring(bad)


def test_zeta_order():
    for q, s in ((3, 3), (7, 4), (5, 5), (7, 7)):
        ring = make_ring(make_prime_field(q), s)
        field = ring.field
        assert field.multiplicative_order(ring.zeta) == s - 1


def test_eta_frozen_q3_s3():
    assert R33.eta == ((1, 0, 2), (0, 2, 2), (0, 1, 2))


def test_eta_orthogonal_idempotents():
    for q, s in VALID:
        ring = VBasisRing(make_ring(make_prime_field(q), s))
        total = ring.zero
        for i, ei in enumerate(ring.eta):
            assert ring.mul(ei, ei) == ei
            for k, ek in enumerate(ring.eta):
                if k != i:
                    assert ring.mul(ei, ek) == ring.zero
            total = ring.add(total, ei)
        assert total == ring.one


def test_crt_round_trip():
    for q, s in ((3, 3), (7, 4), (5, 5)):
        ring = make_ring(make_prime_field(q), s)
        for _ in range(60):
            a = rand_elt(ring)
            assert crt_inv(ring, ring.crt(a)) == a


def test_crt_is_ring_homomorphism():
    for _ in range(60):
        a, b = rand_elt(R33), rand_elt(R33)
        va, vb = R33.crt(a), R33.crt(b)
        prod = R33.crt(V33.mul(a, b))
        add = R33.crt(V33.add(a, b))
        for k in range(R33.s):
            assert prod[k] == R33.field.mul(va[k], vb[k])
            assert add[k] == (va[k] + vb[k]) % R33.q


def test_crt_points():
    # evaluation points are 0 and the powers of zeta's inverse order
    vals = R33.crt_points
    assert vals[0] == 0
    assert len(set(vals)) == R33.s


def test_v_satisfies_relation():
    # v^s = v in the ring
    v = tuple([0, 1] + [0] * (R33.s - 2))
    acc = v
    for _ in range(R33.s - 1):
        acc = V33.mul(acc, v)
    assert acc == v


def test_lift_component_combine_round_trip():
    coeffs = tuple(rng.randrange(3) for _ in range(13))
    lifted = trim_generic(V33, (V33.from_scalar(c) for c in coeffs))
    for k in range(3):
        assert ring_poly_component(R33, lifted, k) == poly.trim(3, coeffs)
    parts = [tuple(rng.randrange(3) for _ in range(13)) for _ in range(3)]
    combined = ring_poly_combine(R33, parts)
    for k in range(3):
        assert ring_poly_component(R33, combined, k) == poly.trim(3, parts[k])


@pytest.mark.parametrize("q,s", VALID + ((5, 2), (5, 3), (7, 2)))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ring_poly_combine_matches_coeffwise_crt_inv(q, s, data):
    # the column sums agree with crt_inv applied at every x-degree, on
    # components of unequal lengths, zero ones and unreduced entries
    ring = make_ring(make_prime_field(q), s)
    comp = st.lists(st.integers(-q, 2 * q), max_size=9).map(tuple)
    parts = [data.draw(comp) for _ in range(s)]
    assert ring_poly_combine(ring, parts) == ring_poly_combine_coeffwise(
        ring, parts)


def test_format_ring_poly():
    one = R33.one
    v = (0, 1, 0)
    text = format_ring_poly(R33, (one, v))
    assert "v" in text and "x" in text
    assert format_ring_poly(R33, ()) == "0"
