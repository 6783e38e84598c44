"""Residue class partition and multiplier action tests."""

import dataclasses
import random
import time

import pytest

from madics.errors import (
    InvalidM,
    MultiplierNotCyclic,
    NonPrimeModulus,
    NotCoprime,
    NotPrimitiveRoot,
    TooLarge,
)
from madics.ffield import is_prime, make_prime_field
from madics.residues import P_CAP, build_residue_system
from oracle import _step_vbasis

rng = random.Random(0x2E5)


def test_classes_p13_m3_frozen():
    system = build_residue_system(13, 3, b=2)
    assert system.classes == ((1, 5, 8, 12), (2, 3, 10, 11), (4, 6, 7, 9))


def test_classes_p13_m4_frozen():
    system = build_residue_system(13, 4)
    assert system.b == 2
    assert system.classes[0] == (1, 3, 9)
    assert system.classes == ((1, 3, 9), (2, 5, 6), (4, 10, 12), (7, 8, 11))


def test_classes_p19_m6_frozen():
    system = build_residue_system(19, 6)
    assert system.b == 2 and system.a == 2
    assert system.classes == ((1, 7, 11), (2, 3, 14), (4, 6, 9),
                              (8, 12, 18), (5, 16, 17), (10, 13, 15))


def test_classes_partition():
    for p, m in ((13, 3), (13, 4), (19, 6), (11, 5), (23, 11)):
        system = build_residue_system(p, m)
        seen = sorted(x for cls in system.classes for x in cls)
        assert seen == list(range(1, p))
        assert all(len(cls) == (p - 1) // m for cls in system.classes)


def test_class_shift_structure():
    # Q_i = b^i Q_0 elementwise mod p
    system = build_residue_system(13, 4)
    q0 = set(system.classes[0])
    for i in range(4):
        shifted = {x * pow(system.b, i, 13) % 13 for x in q0}
        assert shifted == set(system.classes[i])


def test_class_of_and_membership():
    system = build_residue_system(13, 4)
    for i, cls in enumerate(system.classes):
        for x in cls:
            assert system.class_of(x) == i
            assert system.class_of(x + 13) == i
    assert system.is_madic_residue(3)
    assert not system.is_madic_residue(2)
    with pytest.raises(ValueError):
        system.class_of(0)


def test_default_multiplier_in_q1():
    system = build_residue_system(13, 4)
    assert system.a == 2 and system.a_class_index == 1


def test_multiplier_class_must_be_coprime_to_m():
    # 3 lies in Q_0 for p=13, m=4; gcd(0, 4) != 1
    with pytest.raises(MultiplierNotCyclic):
        build_residue_system(13, 4, a=3)
    # index 2 multiplier: 4 is in Q_2; gcd(2, 4) != 1
    with pytest.raises(MultiplierNotCyclic):
        build_residue_system(13, 4, a=4)


def test_p_cap_refuses_before_building():
    above = next(p for p in range(P_CAP + 1, 2 * P_CAP) if is_prime(p))
    t0 = time.perf_counter()
    for p in (above, 1000000000039):
        with pytest.raises(TooLarge, match=f"p={p} exceeds"):
            build_residue_system(p, 2)
    assert time.perf_counter() - t0 < 0.1
    # a composite p stays malformed input, whatever its size
    with pytest.raises(NonPrimeModulus):
        build_residue_system(1000000000038, 2)


def test_validation_errors():
    with pytest.raises(NonPrimeModulus):
        build_residue_system(15, 2)
    with pytest.raises(InvalidM):
        build_residue_system(13, 5)
    with pytest.raises(InvalidM):
        build_residue_system(13, 1)
    with pytest.raises(NotPrimitiveRoot):
        build_residue_system(13, 3, b=3)
    with pytest.raises(NotCoprime):
        build_residue_system(13, 4, a=13)


@pytest.mark.parametrize("a", [13, 26, -13])
def test_non_coprime_multiplier_named_as_given(a):
    with pytest.raises(NotCoprime, match=f"multiplier {a} is not coprime"):
        build_residue_system(13, 4, a=a)


def test_system_built_once_per_arguments():
    system = build_residue_system(19, 6, 2, 10)
    assert build_residue_system(19, 6, 2, 10) is system
    assert build_residue_system(19, 6, b=2, a=10) == system


def test_system_identified_by_p_m_b_a():
    # the classes and a's class index are functions of (p, m, b, a), so
    # equality and hashing, and so every cache keyed on a system, read
    # those four ints alone: an unhashable classes list changes neither
    system = build_residue_system(19, 6, 2, 10)
    stripped = dataclasses.replace(system, a_class_index=None,
                                   classes=list(system.classes))
    assert stripped == system and hash(stripped) == hash(system)
    for name in ("p", "m", "b", "a"):
        moved = {name: getattr(system, name) + 1}
        assert dataclasses.replace(system, **moved) != system


@pytest.mark.parametrize("args,error", [
    ((15, 2), NonPrimeModulus), ((13, 5), InvalidM),
    ((13, 3, 3), NotPrimitiveRoot), ((13, 4, None, 13), NotCoprime),
    ((13, 4, None, 3), MultiplierNotCyclic)])
def test_refused_system_raises_on_every_call(args, error):
    # the cache holds built systems only, never a refusal
    for _ in range(3):
        with pytest.raises(error):
            build_residue_system(*args)


def test_base_reduced_mod_p():
    # b = 15 and b = 2 are one primitive root mod 13, so one system
    system = build_residue_system(13, 4, 15)
    assert system == build_residue_system(13, 4, 2)
    assert system.b == 2


def test_mu_exponents_permutes_classes():
    # exponent sets move forward by the class index of a
    for p, m in ((13, 4), (19, 6), (11, 5)):
        system = build_residue_system(p, m)
        j = system.a_class_index
        for r in range(m):
            moved = {system.a * i % p for i in system.classes[r]}
            assert moved == set(system.classes[(r + j) % m])


# mu_a on polynomials, the relocation of exponents i -> a*i, is the
# oracle's chain step _step_vbasis over F_q with the inverse multiplier:
# that step moves the coefficient at exponent a*i to exponent i

F3, F5, F7 = (make_prime_field(q) for q in (3, 5, 7))


def mu_poly(p, a, coeffs, field=F7):
    return _step_vbasis(field, p, pow(a, -1, p), coeffs)


def test_mu_poly_relocates_coefficients():
    # coefficient at exponent i lands on exponent a*i mod p
    p, a = 13, 7
    for _ in range(30):
        coeffs = [rng.randrange(3) for _ in range(p)]
        out = mu_poly(p, a, coeffs, F3)
        padded = list(out) + [0] * (p - len(out))
        for i in range(p):
            assert padded[a * i % p] == coeffs[i]


def _pad(coeffs, p):
    out = list(coeffs)
    return tuple(out + [0] * (p - len(out)))


def test_mu_poly_order():
    # applying mu_a ord(a) times is the identity
    p, a = 13, 7
    ord_a, x = 1, a
    while x != 1:
        x = x * a % p
        ord_a += 1
    coeffs = _pad([rng.randrange(5) for _ in range(p)], p)
    out = coeffs
    for _ in range(ord_a):
        out = _pad(mu_poly(p, a, out, F5), p)
    assert out == coeffs


def test_mu_poly_composition():
    p = 13
    coeffs = tuple(rng.randrange(7) for _ in range(p))
    once = _pad(mu_poly(p, 2, _pad(mu_poly(p, 7, coeffs), p)), p)
    direct = _pad(mu_poly(p, 14 % p, coeffs), p)
    assert once == direct
