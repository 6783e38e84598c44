"""m-adic residue classes mod a prime p and the multiplier permutation.

For m | (p - 1) the m-th powers Q_0 = {x**m mod p} form a subgroup of
index m in the multiplicative group, and Q_i = b**i * Q_0 for a
primitive root b are its cosets: a partition of {1, ..., p-1} into m
classes of size (p - 1)/m.  The multiplier mu_a : i -> a*i mod p
permutes exponents; when the class index j of a is coprime to m it
cyclically shifts the classes, Q_i -> Q_{i+j}.  Ring codes apply it
per CRT component, as a shift of each component's class-algebra
spectrum (ring_codes.chain_source).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .errors import (
    InvalidM,
    MultiplierNotCyclic,
    NonPrimeModulus,
    NotCoprime,
    NotPrimitiveRoot,
    TooLarge,
)
from .ffield import is_prime, make_prime_field

# Largest p build_residue_system accepts.  A system keeps about 82 bytes
# per residue (the class_of dict and the class tuples; 107 at the peak
# of the build), so 2**20 residues hold about 85 MB and peak near
# 110 MB (measured with tracemalloc at p = 1000003, CPython 3.11).
P_CAP = 1 << 20


@dataclass(frozen=True)
class ResidueSystem:
    """The classes Q_0, ..., Q_{m-1} with a pinned base b and multiplier a.

    Equality and hashing read (p, m, b, a) alone; the classes and the
    class index of a follow from them."""

    p: int
    m: int
    b: int
    a: int
    a_class_index: int = field(compare=False)
    classes: tuple = field(compare=False)
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


@functools.lru_cache(maxsize=None)
def build_residue_system(p, m, b=None, a=None):
    """Build the class partition for (p, m) with optional overrides,
    cached per (p, m, b, a) like make_prime_field; a refused input
    raises on every call.

    p is refused with TooLarge above P_CAP, before any residue is built.

    b (default: the smallest primitive root mod p) and a (default: the
    smallest element of Q_1) are reduced mod p; an error names a as
    given.  The class index j of a must satisfy gcd(j, m) = 1, so that
    mu_a cycles the classes.
    """
    if not is_prime(p):
        raise NonPrimeModulus(f"{p} is not prime")
    if m < 2 or (p - 1) % m != 0:
        raise InvalidM(f"m={m} must be >= 2 and divide p-1={p - 1}")
    if p > P_CAP:
        raise TooLarge(
            f"p={p} exceeds the residue-system cap {P_CAP}: the classes "
            f"would hold {p - 1} residues in memory")
    gf_p = make_prime_field(p)
    if b is None:
        b = gf_p.primitive_element
    elif not gf_p.is_primitive(b % p):
        raise NotPrimitiveRoot(f"{b} is not a primitive root mod {p}")
    b %= p

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

    given = classes[1][0] if a is None else a
    a = given % p
    if a == 0:
        raise NotCoprime(f"multiplier {given} is not coprime to {p}")
    j = class_of[a]
    if math.gcd(j, m) != 1:
        raise MultiplierNotCyclic(
            f"multiplier {given} lies in Q_{j} and gcd({j}, {m}) != 1")
    return ResidueSystem(p, m, b, a, j, tuple(classes), class_of)

