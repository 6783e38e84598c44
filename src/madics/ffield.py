"""Exact arithmetic in prime fields GF(q) and extensions GF(q^t).

GF(q^t) is F_q[y]/(modulus).  An element is a canonical integer in
[0, q^t): the base-q digits of the integer are the coefficients of its
reduced representative polynomial, ascending degree.  Its arithmetic is
poly's over GF(q), which takes the prime q itself: a product is
poly.mul of the digit vectors reduced by poly.rem mod the modulus, and
the irreducibility test takes its powers of x with the same product.
For t = 1 this collapses to ordinary arithmetic mod q, and base-field
elements embed into any extension as themselves.  Elements are stored
as reduced coefficient vectors (packed), never as discrete logarithms.

Canonical choices are pinned so every run prints identical polynomials:
the modulus is the lexicographically smallest monic irreducible of
degree t (coefficients compared ascending-degree-first) and the
primitive element is the lexicographically smallest generator of the
multiplicative group, found with FieldCtx.is_primitive, the one
primitivity test (residues uses it for the base b).  Prime fields past
SIZE_CAP are refused before that search.
"""

from __future__ import annotations

import functools
from itertools import product

from . import poly
from .errors import (FieldTooLarge, InternalCheckFailed, NonPrimeModulus,
                     int_text)

# The two caps on every alphabet madics builds: a field has at most
# SIZE_CAP elements, and the ring R = GF(q)[v]/(v**s - v) of ringalg,
# GF(q)**s through the CRT, has s <= S_CAP, so no alphabet passes
# SIZE_CAP**S_CAP = 2**1984.  ringalg._validate_ring evaluates each of
# the s idempotents, s coefficients each, at the s CRT points, s**3
# steps: make_ring took 18 ms at s = 64 (q = 127) and 133 ms at s = 129
# (q = 257) on an Intel Xeon with CPython 3.11.
SIZE_CAP = 2 ** 31
S_CAP = 64


# No composite below 3317044064679887385961981 (about 3.3 * 10**24) is a
# strong pseudoprime to all of the first 13 primes (Sorenson & Webster,
# Math. Comp. 86, 2017).
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n):
    """Miller-Rabin test to the bases MR_BASES: exact below about
    3.3 * 10**24, a strong probable-prime test above."""
    if n < 2:
        return False
    for b in MR_BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n, e):
    """Largest r with r**e <= n, for n >= 1, by integer Newton steps
    down from a power of two above the root."""
    r = 1 << -(-n.bit_length() // e)
    while True:
        s = ((e - 1) * r + n // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


def is_prime_power(n):
    """True when n = r**e for a prime r and e >= 1: some integer e-th
    root of n, e < bit length of n, is exact and prime."""
    for e in range(1, n.bit_length()):
        r = _iroot(n, e)
        if r**e == n and is_prime(r):
            return True
    return False


@functools.lru_cache(maxsize=None)
def prime_divisors(n):
    """The distinct primes dividing n, ascending, by trial division."""
    primes = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        primes.append(n)
    return tuple(primes)


class FieldCtx:
    """A finite field with pinned canonical modulus and primitive element.

    Use make_prime_field / make_extension instead of constructing
    directly.  Aside from q, t and size, the context carries the modulus
    as an ascending coefficient tuple (the identity polynomial x when
    t = 1) and the smallest primitive element.  For t > 1 it is
    F_q[y]/(modulus): a product is the poly product of the two digit
    vectors over GF(q), reduced mod the modulus by poly.rem.  A context
    is passed only where it carries more than q: GF(q^t) or the pinned
    primitive element; below the field constructors GF(q) is the int q.
    Each field is the one object its cached constructor returns, so
    contexts compare, and key caches, by identity.
    """

    __slots__ = ("q", "t", "size", "modulus", "primitive_element")

    def __init__(self, q, t, modulus, primitive_element=None):
        self.q = q
        self.t = t
        self.size = q ** t
        self.modulus = tuple(modulus)
        self.primitive_element = primitive_element

    # -- representation ------------------------------------------------

    def to_vec(self, a):
        """Base-q digits of a: the coefficient vector, ascending degree."""
        vec = []
        for _ in range(self.t):
            vec.append(a % self.q)
            a //= self.q
        return tuple(vec)

    def from_vec(self, vec):
        a = 0
        for c in reversed(tuple(vec)):
            a = a * self.q + c % self.q
        return a

    # -- arithmetic ----------------------------------------------------

    def mul(self, a, b):
        if self.t == 1:
            return a * b % self.q
        prod = poly.mul(self.q, self.to_vec(a), self.to_vec(b))
        return self.from_vec(poly.rem(self.q, prod, self.modulus))

    def pow(self, a, e):
        """a**e by square and multiply; e may be any nonnegative int."""
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        if self.t == 1:
            return pow(a, e, self.q)
        result = 1
        a %= self.size
        while e > 0:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def inv(self, a):
        if a % self.size == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.size - 2)

    def multiplicative_order(self, a):
        """Least e > 0 with a**e = 1, by descending through divisors of
        the group order."""
        if a % self.size == 0:
            raise ZeroDivisionError("zero has no multiplicative order")
        n = self.size - 1
        for r in prime_divisors(n):
            while n % r == 0 and self.pow(a, n // r) == 1:
                n //= r
        return n

    def is_primitive(self, a):
        """True when a generates the multiplicative group: a != 0 and
        a**((size-1)/r) != 1 for every prime r dividing size - 1."""
        n = self.size - 1
        return a % self.size != 0 and all(self.pow(a, n // r) != 1
                              for r in prime_divisors(n))

    def __repr__(self):
        if self.t == 1:
            return f"FieldCtx(GF({self.q}))"
        return f"FieldCtx(GF({self.q}^{self.t}), modulus={poly.format_poly(self.modulus)})"


def _pin_primitive(ctx):
    """Set ctx.primitive_element to the first generator of the
    multiplicative group in product(range(q), repeat=t) order of digit
    vectors, the constant coefficient most significant; returns ctx.
    Counting n up and reversing its digits walks that order lazily."""
    candidates = (ctx.from_vec(ctx.to_vec(n)[::-1])
                  for n in range(1, ctx.size))
    ctx.primitive_element = next(a for a in candidates if ctx.is_primitive(a))
    return ctx


@functools.lru_cache(maxsize=None)
def make_prime_field(q):
    """GF(q) for prime q; primitive element = smallest primitive root.

    q above SIZE_CAP is refused with FieldTooLarge first, before its
    primality test (seconds at thousands of digits) and the search that
    factors q - 1: every code over GF(q) needs an extension of at most
    SIZE_CAP elements anyway.
    """
    if q > SIZE_CAP:
        raise FieldTooLarge(f"field size {int_text(q)} exceeds cap {SIZE_CAP}")
    if not is_prime(q):
        raise NonPrimeModulus(f"{q} is not prime")
    return _pin_primitive(FieldCtx(q, 1, (0, 1)))


def _is_irreducible(q, f, t):
    """Rabin's test for a monic polynomial f of degree t >= 2 over
    GF(q), with the powers of x taken in F_q[y]/(f)."""
    ring = FieldCtx(q, t, f)
    # frob[j] = x^(q^j) mod f, j <= t; f divides x^(q^t) - x
    frob = [ring.from_vec((0, 1))]
    for _ in range(t):
        frob.append(ring.pow(frob[-1], q))
    if frob[t] != frob[0]:
        return False
    for r in prime_divisors(t):
        # h - x on the digits of h = x^(q^(t/r)); gcd trims it
        h_minus_x = list(ring.to_vec(frob[t // r]))
        h_minus_x[1] -= 1
        if len(poly.gcd(q, h_minus_x, f)) != 1:
            return False
    return True


def power_exceeds(q, e, cap):
    """q**e > cap, for q >= 2, e >= 0 and cap >= 1, with q**e formed
    only below 2**(2 * cap.bit_length()): q**e >= 2**((b - 1) * e) for
    b the bit length of q, so past cap's bit length the answer is
    known.  At q = 2**31 - 1 and e = 524286 the power alone took 3 s
    on a 2-vCPU Xeon."""
    return (q.bit_length() - 1) * e >= cap.bit_length() or q**e > cap


@functools.lru_cache(maxsize=None)
def make_extension(q, t):
    """GF(q^t) with the lexicographically smallest monic irreducible
    modulus and the lexicographically smallest primitive element.

    Construction is deterministic, so repeated calls agree coefficient
    for coefficient.  Sizes are capped at q**t <= 2**31: GF(q) comes
    first, so a q past the cap is refused before its primality test,
    and q**t is compared with the cap by power_exceeds.
    """
    base = make_prime_field(q)
    if t < 1:
        raise ValueError("extension degree must be >= 1")
    if t == 1:
        return base
    if power_exceeds(q, t, SIZE_CAP):
        raise FieldTooLarge(f"field size {q}^{t} exceeds cap {SIZE_CAP}")
    # lexicographically smallest: compare (c_0, ..., c_{t-1}) left to right;
    # t > 1 here, so c_0 = 0 would make x a factor and is skipped
    for lower in product(range(1, q), *[range(q)] * (t - 1)):
        modulus = lower + (1,)
        if _is_irreducible(q, modulus, t):
            break
    else:
        raise InternalCheckFailed(f"no irreducible of degree {t} over GF({q})")
    return _pin_primitive(FieldCtx(q, t, modulus))
