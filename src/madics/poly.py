"""Polynomial arithmetic over a finite field.

A polynomial is a tuple of coefficient values in ascending degree with
trailing zeros trimmed, so equal polynomials compare equal as tuples.
The zero polynomial is the empty tuple and its degree is the sentinel
NEG_DEGREE (minus infinity), never -1.

Every operation takes the coefficient field as its first argument: a
FieldCtx, prime or extension, whose ``zero``, ``one``, ``add``,
``sub``, ``neg``, ``mul`` and ``inv`` act on coefficient values.
Coefficients are plain ints, so polynomials stay cheap to copy,
compare and store.  Polynomials over R = F_q[v]/(v**s - v) are not
handled here: ringalg builds them from their F_q components.

mul_mod, the product mod x**n - 1, works over prime fields only
(NonPrimeModulus otherwise).  It is a Kronecker substitution: one
big-int product of the packed operands, folded mod x**n - 1 at the
integer level, with byte-aligned slots wide enough for n*(q-1)**2.
The module is pure Python and imports nothing but its errors.

ffield builds the arithmetic of GF(q^t) on these operations over
GF(q).  The module also holds the q-cyclotomic cosets mod p; the
factors of x**p - 1 they index are minimal polynomials over the
splitting field, solved in field_codes, where the idempotent generators
are built too (in closed form).
"""

from __future__ import annotations

from .errors import (
    BothZero,
    NonPrimeModulus,
    NonUnitLeadingCoefficient,
    NotADivisor,
)

ZERO = ()
NEG_DEGREE = float("-inf")


def trim(dom, coeffs):
    """Canonical form: drop trailing zero coefficients."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == dom.zero:
        coeffs.pop()
    return tuple(coeffs)


def degree(a):
    """Degree of ``a``; NEG_DEGREE for the zero polynomial."""
    return len(a) - 1 if a else NEG_DEGREE


def constant(dom, c):
    return () if c == dom.zero else (c,)


def xn_minus_1(dom, n):
    return (dom.neg(dom.one),) + (dom.zero,) * (n - 1) + (dom.one,)

def add(dom, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = dom.add(out[i], c)
    return trim(dom, out)


def neg(dom, a):
    return tuple(dom.neg(c) for c in a)


def sub(dom, a, b):
    return add(dom, a, neg(dom, b))


def scale(dom, c, a):
    if c == dom.zero:
        return ZERO
    return trim(dom, (dom.mul(c, x) for x in a))


def mul(dom, a, b):
    if not a or not b:
        return ZERO
    out = [dom.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == dom.zero:
            continue
        for j, y in enumerate(b):
            if y == dom.zero:
                continue
            out[i + j] = dom.add(out[i + j], dom.mul(x, y))
    return trim(dom, out)


def divmod_poly(dom, a, b):
    """Quotient and remainder of a by b; b must not be zero."""
    if not b:
        raise NonUnitLeadingCoefficient("division by the zero polynomial")
    lead_inv = dom.inv(b[-1])
    rem = list(a)
    db = len(b) - 1
    if len(rem) - 1 < db:
        return ZERO, trim(dom, rem)
    quot = [dom.zero] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c == dom.zero:
            continue
        f = dom.mul(c, lead_inv)
        quot[i - db] = f
        for j in range(db + 1):
            rem[i - db + j] = dom.sub(rem[i - db + j], dom.mul(f, b[j]))
    return trim(dom, quot), trim(dom, rem)


def div_exact(dom, a, b):
    q, r = divmod_poly(dom, a, b)
    if r:
        raise NotADivisor(f"{b} does not divide {a}")
    return q


def divides(dom, b, a):
    if not b:
        return not a
    return not divmod_poly(dom, a, b)[1]


def _pack(coeffs, width):
    """One int holding coeffs[i] in bytes [i*width, (i+1)*width)."""
    return int.from_bytes(
        b"".join([c.to_bytes(width, "little") for c in coeffs]), "little")


def mul_mod(dom, a, b, n):
    """a*b mod x**n - 1 over a prime field, by Kronecker substitution.

    Each operand becomes one int with B bits per coefficient slot; one
    int product C holds the slots of a*b, and (C mod 2**(n*B)) +
    (C >> n*B) adds slot i + n onto slot i, which is the fold mod
    x**n - 1.  With len(a), len(b) <= n each folded slot is a sum of at
    most n products of coefficients in [0, q), so it is at most
    n*(q-1)**2; B is that bit length rounded up to whole bytes, so no
    slot carries into the next.  The slots are reduced mod q at the end.
    """
    if dom.t != 1:
        raise NonPrimeModulus(
            f"mul_mod needs a prime field, not GF({dom.q}^{dom.t})")
    if n < 1 or len(a) > n or len(b) > n:
        raise ValueError(f"mul_mod needs n >= 1 and operands of length "
                         f"<= n, got {len(a)} and {len(b)} for n = {n}")
    q = dom.q
    width = -(-(n * (q - 1) ** 2).bit_length() // 8)
    bits = 8 * width
    span = n * bits
    prod = _pack(a, width) * _pack(b, width)
    folded = (prod & ((1 << span) - 1)) + (prod >> span)
    mask = (1 << bits) - 1
    return trim(dom, [(folded >> i & mask) % q for i in range(0, span, bits)])


def eval_poly(dom, a, x):
    """Evaluate at a field value by Horner's rule."""
    acc = dom.zero
    for c in reversed(a):
        acc = dom.add(dom.mul(acc, x), c)
    return acc


def monic(dom, a):
    if not a:
        return ZERO
    lead = a[-1]
    if lead == dom.one:
        return a
    return scale(dom, dom.inv(lead), a)


def gcd(dom, a, b):
    """Monic gcd of a and b by the remainder loop; raises BothZero when
    a = b = 0."""
    if not a and not b:
        raise BothZero("gcd(0, 0) is undefined")
    while b:
        a, b = b, divmod_poly(dom, a, b)[1]
    return monic(dom, a)


def associates(dom, a, b):
    """True when a and b agree up to a unit scalar."""
    if not a or not b:
        return a == b
    return monic(dom, a) == monic(dom, b)


def cyclotomic_cosets(q, p):
    """Cosets of {0, ..., p-1} under multiplication by q mod p,
    each sorted, ordered by smallest element ({0} first)."""
    seen = [False] * p
    cosets = []
    for start in range(p):
        if seen[start]:
            continue
        coset = []
        k = start
        while not seen[k]:
            seen[k] = True
            coset.append(k)
            k = k * q % p
        cosets.append(tuple(sorted(coset)))
    cosets.sort(key=lambda c: c[0])
    return cosets


# ---------------- text format ----------------

def format_poly(a, var="x"):
    """Ascending-degree text, omitting zero terms and unit coefficients."""
    terms = []
    for i, c in enumerate(a):
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
            continue
        xpart = var if i == 1 else f"{var}^{i}"
        terms.append(xpart if c == 1 else f"{c}*{xpart}")
    return "+".join(terms) if terms else "0"
