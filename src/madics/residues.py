"""m-adic residue classes mod a prime p and the multiplier permutation.

For m | (p - 1) the m-th powers Q_0 = {x**m mod p} form a subgroup of
index m in the multiplicative group, and Q_i = b**i * Q_0 for a
primitive root b are its cosets: a partition of {1, ..., p-1} into m
classes of size (p - 1)/m.  As Q_i = {b**k : k = i mod m}, one walk of
the powers of b labels every residue with its class, the one table a
system stores and every layer reads; the classes are listed from it
when first read.  The multiplier mu_a : i -> a*i mod p permutes
exponents; when the class index j of a is coprime to m it cyclically
shifts the classes, Q_i -> Q_{i+j} (the rule of multiplier_class).
Ring codes apply it per CRT component, as a shift of each component's
class-algebra spectrum (ring_codes.chain_source).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

from .errors import (
    InternalCheckFailed,
    InvalidM,
    MultiplierNotCyclic,
    NonPrimeModulus,
    NotCoprime,
    NotPrimitiveRoot,
    TooLarge,
    int_text,
)
from .ffield import is_prime, make_prime_field

# Largest p build_residue_system accepts.  A system keeps about 8 bytes
# per residue, its class_table (16 at the peak of the build), so 2**20
# residues hold about 8 MB and peak near 17 MB (tracemalloc at p =
# 1000003, CPython 3.11); reading classes adds about 40 a residue.
P_CAP = 1 << 20


@dataclass(frozen=True)
class ResidueSystem:
    """The classes Q_0, ..., Q_{m-1} with a pinned base b and multiplier a.

    class_table[x] is the class of x for 0 < x < p (entry 0 is None).
    Equality and hashing read (p, m, b, a) alone; the table, and the
    classes and class index of a read from it, follow from them."""

    p: int
    m: int
    b: int
    a: int
    class_table: tuple = field(repr=False, compare=False)

    @functools.cached_property
    def classes(self):
        """(Q_0, ..., Q_{m-1}), each ascending."""
        classes = [[] for _ in range(self.m)]
        for x in range(1, self.p):
            classes[self.class_table[x]].append(x)
        return tuple(map(tuple, classes))

    @property
    def a_class_index(self):
        return self.class_table[self.a]

    def class_of(self, x):
        """Index i with x mod p in Q_i; raises for x = 0 mod p."""
        x %= self.p
        if x == 0:
            raise ValueError("0 lies in no residue class")
        return self.class_table[x]

    def is_madic_residue(self, x):
        """True when x mod p is an m-adic residue (lies in Q_0)."""
        x %= self.p
        return x != 0 and self.class_table[x] == 0

    def multiplier_class(self, a):
        """The class index j of the multiplier a, the one rule a
        multiplier meets: a coprime to p (NotCoprime) and gcd(j, m) = 1
        (MultiplierNotCyclic), so that mu_a cycles the classes.  An
        error names a as given."""
        x = a % self.p
        if x == 0:
            raise NotCoprime(
                f"multiplier {int_text(a)} is not coprime to {self.p}")
        j = self.class_table[x]
        if math.gcd(j, self.m) != 1:
            raise MultiplierNotCyclic(
                f"multiplier {int_text(a)} lies in Q_{j} and "
                f"gcd({j}, {self.m}) != 1")
        return j


@functools.lru_cache(maxsize=None)
def build_residue_system(p, m, b=None, a=None):
    """Build the class table for (p, m) with optional overrides, cached
    per (p, m, b, a) like make_prime_field; a refused input raises on
    every call.

    p is refused with TooLarge above P_CAP first, before its primality
    test (which takes seconds at thousands of digits) or any residue;
    the message names its bit length, as errors.int_text names any
    other huge input.

    b (default: the smallest primitive root mod p) and a (default: the
    smallest element of Q_1) are reduced mod p; a must pass
    ResidueSystem.multiplier_class, whose errors name a as given.
    """
    if p > P_CAP:
        raise TooLarge(
            f"p of {p.bit_length()} bits exceeds the residue-system cap "
            f"{P_CAP}: its class table would hold p - 1 residues")
    if not is_prime(p):
        raise NonPrimeModulus(f"{p} is not prime")
    if m < 2 or (p - 1) % m != 0:
        raise InvalidM(
            f"m={int_text(m)} must be >= 2 and divide p-1={p - 1}")
    gf_p = make_prime_field(p)
    if b is None:
        b = gf_p.primitive_element
    elif not gf_p.is_primitive(b % p):
        raise NotPrimitiveRoot(
            f"{int_text(b)} is not a primitive root mod {p}")
    b %= p

    # b**k lies in Q_(k mod m); cycle reuses its m index objects
    table, x = [None] * p, 1
    for i in itertools.islice(itertools.cycle(range(m)), p - 1):
        table[x] = i
        x = x * b % p
    if x != 1 or table.count(None) != 1:
        raise InternalCheckFailed("the powers of b do not walk {1, ..., p-1}")
    given = table.index(1) if a is None else a
    system = ResidueSystem(p, m, b, given % p, tuple(table))
    system.multiplier_class(given)
    return system
