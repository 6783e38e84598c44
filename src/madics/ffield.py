"""Exact arithmetic in prime fields GF(q) and extensions GF(q^t).

An element of GF(q^t) is a canonical integer in [0, q^t): the base-q
digits of the integer are the coefficients of its reduced representative
polynomial, ascending degree.  For t = 1 this collapses to ordinary
arithmetic mod q, and base-field elements embed into any extension as
themselves.  Elements are stored as reduced coefficient vectors (packed),
never as discrete logarithms.

Canonical choices are pinned so every run prints identical polynomials:
the modulus is the lexicographically smallest monic irreducible of
degree t (coefficients compared ascending-degree-first) and the
primitive element is the lexicographically smallest generator of the
multiplicative group.
"""

from __future__ import annotations

import functools
from itertools import product

from . import poly
from .errors import FieldTooLarge, NonPrimeModulus

SIZE_CAP = 2 ** 31


def is_prime(n):
    """Trial-division primality check (desk-scale inputs)."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def factorize(n):
    """Prime factorization {prime: exponent} by trial division."""
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


class FieldCtx:
    """A finite field with pinned canonical modulus and primitive element.

    Use make_prime_field / make_extension instead of constructing
    directly.  Aside from q, t and size, the context carries the modulus
    as an ascending coefficient tuple (the identity polynomial x when
    t = 1) and the smallest primitive element.
    """

    __slots__ = ("q", "t", "size", "modulus", "primitive_element", "_xpow")

    zero = 0
    one = 1

    def __init__(self, q, t, modulus, primitive_element=None):
        self.q = q
        self.t = t
        self.size = q ** t
        self.modulus = tuple(modulus)
        self.primitive_element = primitive_element
        # x^(t+i) mod modulus for i in [0, t-1), used to fold products
        self._xpow = None
        if t > 1:
            table = []
            # x^t = -(m_0 + m_1 x + ... + m_{t-1} x^{t-1})
            cur = [(-c) % q for c in self.modulus[:t]]
            table.append(tuple(cur))
            for _ in range(t - 2):
                nxt = [0] * t
                carry = cur[t - 1]
                for i in range(t - 1):
                    nxt[i + 1] = cur[i]
                if carry:
                    for i in range(t):
                        nxt[i] = (nxt[i] + carry * table[0][i]) % q
                table.append(tuple(nxt))
                cur = nxt
            self._xpow = table

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

    def add(self, a, b):
        if self.t == 1:
            return (a + b) % self.q
        q = self.q
        return self.from_vec(
            (x + y) % q for x, y in zip(self.to_vec(a), self.to_vec(b)))

    def sub(self, a, b):
        if self.t == 1:
            return (a - b) % self.q
        q = self.q
        return self.from_vec(
            (x - y) % q for x, y in zip(self.to_vec(a), self.to_vec(b)))

    def neg(self, a):
        if self.t == 1:
            return -a % self.q
        return self.from_vec((-x) % self.q for x in self.to_vec(a))

    def mul(self, a, b):
        q, t = self.q, self.t
        if t == 1:
            return a * b % q
        va, vb = self.to_vec(a), self.to_vec(b)
        conv = [0] * (2 * t - 1)
        for i, x in enumerate(va):
            if x:
                for j, y in enumerate(vb):
                    conv[i + j] += x * y
        out = [c % q for c in conv[:t]]
        for e in range(t, 2 * t - 1):
            c = conv[e] % q
            if c:
                fold = self._xpow[e - t]
                for i in range(t):
                    out[i] = (out[i] + c * fold[i]) % q
        return self.from_vec(out)

    def pow(self, a, e):
        """a**e by square and multiply; e may be any nonnegative int."""
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        result = self.one
        a %= self.size
        while e > 0:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.size - 2)

    def multiplicative_order(self, a):
        """Least e > 0 with a**e = 1, by descending through divisors of
        the group order."""
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative order")
        n = self.size - 1
        for r in factorize(n):
            while n % r == 0 and self.pow(a, n // r) == 1:
                n //= r
        return n

    # -- identity ------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FieldCtx)
                and self.q == other.q and self.t == other.t
                and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.q, self.t, self.modulus))

    def __repr__(self):
        if self.t == 1:
            return f"FieldCtx(GF({self.q}))"
        return f"FieldCtx(GF({self.q}^{self.t}), modulus={poly.format_poly(self.modulus)})"


def smallest_primitive_root(q):
    """Least primitive root mod the prime q (1 for q = 2)."""
    if q == 2:
        return 1
    primes = list(factorize(q - 1))
    for g in range(2, q):
        if all(pow(g, (q - 1) // r, q) != 1 for r in primes):
            return g
    raise AssertionError(f"no primitive root mod {q}")


@functools.lru_cache(maxsize=None)
def make_prime_field(q):
    """GF(q) for prime q; primitive element = smallest primitive root."""
    if not is_prime(q):
        raise NonPrimeModulus(f"{q} is not prime")
    return FieldCtx(q, 1, (0, 1), smallest_primitive_root(q))


def _is_irreducible(base, f, t):
    """Rabin's test for a monic degree-t polynomial over GF(q)."""
    q = base.q
    x = (0, 1)
    # x^(q^t) == x mod f
    h = x
    for _ in range(t):
        h = poly.powmod(base, h, q, f)
    if h != poly.divmod_poly(base, x, f)[1]:
        return False
    for r in factorize(t):
        h = x
        for _ in range(t // r):
            h = poly.powmod(base, h, q, f)
        g = poly.gcd(base, poly.sub(base, h, x), f)
        if poly.degree(g) != 0:
            return False
    return True


def _build_extension(q, t):
    """Uncached construction; see make_extension."""
    if not is_prime(q):
        raise NonPrimeModulus(f"{q} is not prime")
    if t < 1:
        raise ValueError("extension degree must be >= 1")
    if q ** t > SIZE_CAP:
        raise FieldTooLarge(f"field size {q}^{t} exceeds cap {SIZE_CAP}")
    if t == 1:
        return make_prime_field(q)
    base = make_prime_field(q)
    modulus = None
    # lexicographically smallest: compare (c_0, ..., c_{t-1}) left to right;
    # t > 1 here, so c_0 = 0 would make x a factor and is skipped
    for lower in product(range(1, q), *[range(q)] * (t - 1)):
        cand = poly.trim(base, lower + (1,))
        if _is_irreducible(base, cand, t):
            modulus = cand
            break
    if modulus is None:
        raise AssertionError(f"no irreducible of degree {t} over GF({q})")
    ctx = FieldCtx(q, t, modulus)
    n = ctx.size - 1
    primes = list(factorize(n))
    for vec in product(range(q), repeat=t):
        a = ctx.from_vec(vec)
        if a == 0:
            continue
        if all(ctx.pow(a, n // r) != 1 for r in primes):
            ctx.primitive_element = a
            break
    if ctx.primitive_element is None:
        raise AssertionError("no primitive element found")
    return ctx


@functools.lru_cache(maxsize=None)
def make_extension(q, t):
    """GF(q^t) with the lexicographically smallest monic irreducible
    modulus and the lexicographically smallest primitive element.

    Construction is deterministic, so repeated calls agree coefficient
    for coefficient.  Sizes are capped at q**t <= 2**31.
    """
    return _build_extension(q, t)
