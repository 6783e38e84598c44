"""m-adic residue classes mod a prime p and the multiplier permutation.

For m | (p - 1) the m-th powers Q_0 = {x**m mod p} form a subgroup of
index m in the multiplicative group, and Q_i = b**i * Q_0 for a
primitive root b are its cosets: a partition of {1, ..., p-1} into m
classes of size (p - 1)/m.  The multiplier mu_a : i -> a*i mod p
permutes exponents; when the class index j of a is coprime to m it
cyclically shifts the classes, Q_i -> Q_{i+j}.  On polynomials it
acts on F_q coefficients only; ring codes apply it per CRT component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    InvalidM,
    MultiplierNotCyclic,
    NonPrimeModulus,
    NotCoprime,
    NotPrimitiveRoot,
)
from .ffield import factorize, is_prime, smallest_primitive_root


def _is_primitive_root(b, p):
    if b % p == 0:
        return False
    return all(pow(b, (p - 1) // r, p) != 1 for r in factorize(p - 1))


@dataclass(frozen=True)
class ResidueSystem:
    """The classes Q_0, ..., Q_{m-1} with a pinned base b and multiplier a."""

    p: int
    m: int
    b: int
    a: int
    a_class_index: int
    classes: tuple
    _class_of: dict = field(repr=False, compare=False, hash=False, default=None)

    def class_of(self, x):
        """Index i with x mod p in Q_i; raises for x = 0 mod p."""
        x %= self.p
        if x == 0:
            raise ValueError("0 lies in no residue class")
        return self._class_of[x]

    def is_madic_residue(self, x):
        """True when x mod p is an m-adic residue (lies in Q_0)."""
        x %= self.p
        return x != 0 and self._class_of[x] == 0


def build_residue_system(p, m, b=None, a=None):
    """Build the class partition for (p, m) with optional overrides.

    b defaults to the smallest primitive root mod p and a to the
    smallest element of Q_1.  The class index j of a must satisfy
    gcd(j, m) = 1 so that mu_a cyclically permutes the classes.
    """
    if not is_prime(p):
        raise NonPrimeModulus(f"{p} is not prime")
    if m < 2 or (p - 1) % m != 0:
        raise InvalidM(f"m={m} must be >= 2 and divide p-1={p - 1}")
    if b is None:
        b = smallest_primitive_root(p)
    elif not _is_primitive_root(b, p):
        raise NotPrimitiveRoot(f"{b} is not a primitive root mod {p}")

    q0 = sorted({pow(x, m, p) for x in range(1, p)})
    classes = [tuple(q0)]
    for i in range(1, m):
        shift = pow(b, i, p)
        classes.append(tuple(sorted(x * shift % p for x in q0)))
    class_of = {}
    for i, cls in enumerate(classes):
        for x in cls:
            class_of[x] = i
    if len(class_of) != p - 1:
        raise AssertionError("classes do not partition {1, ..., p-1}")

    if a is None:
        a = classes[1][0]
    a %= p
    if math.gcd(a, p) != 1:
        raise NotCoprime(f"multiplier {a} is not coprime to {p}")
    j = class_of[a]
    if math.gcd(j, m) != 1:
        raise MultiplierNotCyclic(
            f"multiplier {a} lies in Q_{j} and gcd({j}, {m}) != 1")
    return ResidueSystem(p, m, b, a, j, tuple(classes), class_of)


def mu_poly(p, a, coeffs):
    """Apply mu_a to an F_q polynomial of degree < p: the coefficient at
    exponent i moves to exponent a*i mod p.  Position 0 is fixed.
    """
    if math.gcd(a, p) != 1:
        raise NotCoprime(f"multiplier {a} is not coprime to {p}")
    if len(coeffs) > p:
        raise ValueError("polynomial degree must be < p")
    out = [0] * p
    for i, c in enumerate(coeffs):
        out[a * i % p] = c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)
