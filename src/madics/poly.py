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

The module also holds the q-cyclotomic cosets mod p; the factors of
x**p - 1 they index need the splitting field and are built in
field_codes.
"""

from __future__ import annotations

from .errors import (
    BothZero,
    NonUnitLeadingCoefficient,
    NotADivisor,
    NotCoprime,
    ZeroCode,
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


def mod_xn_minus_1(dom, a, n):
    """Reduce mod x**n - 1 by folding exponents mod n."""
    out = [dom.zero] * n
    for i, c in enumerate(a):
        if c != dom.zero:
            out[i % n] = dom.add(out[i % n], c)
    return trim(dom, out)


def mul_mod(dom, a, b, n):
    return mod_xn_minus_1(dom, mul(dom, a, b), n)


def powmod(dom, base, e, f):
    """base**e mod f by square and multiply."""
    result = constant(dom, dom.one)
    base = divmod_poly(dom, base, f)[1]
    while e > 0:
        if e & 1:
            result = divmod_poly(dom, mul(dom, result, base), f)[1]
        base = divmod_poly(dom, mul(dom, base, base), f)[1]
        e >>= 1
    return result


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


def gcd_ext(dom, a, b):
    """Monic gcd g of a and b plus Bezout cofactors (g, u, w), u*a + w*b = g.

    Raises BothZero when a = b = 0.
    """
    if not a and not b:
        raise BothZero("gcd(0, 0) is undefined")
    r0, r1 = a, b
    u0, u1 = constant(dom, dom.one), ZERO
    w0, w1 = ZERO, constant(dom, dom.one)
    while r1:
        q, r = divmod_poly(dom, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, sub(dom, u0, mul(dom, q, u1))
        w0, w1 = w1, sub(dom, w0, mul(dom, q, w1))
    lead_inv = dom.inv(r0[-1])
    return (scale(dom, lead_inv, r0),
            scale(dom, lead_inv, u0),
            scale(dom, lead_inv, w0))


def gcd(dom, a, b):
    return gcd_ext(dom, a, b)[0]


def associates(dom, a, b):
    """True when a and b agree up to a unit scalar."""
    if not a or not b:
        return a == b
    return monic(dom, a) == monic(dom, b)

def idempotent_of_cyclic(dom, g, p):
    """Idempotent generator of the cyclic code <g> in F_q[x]/(x**p - 1).

    With gbar = (x**p - 1)/g and Bezout cofactors u*g + w*gbar = 1, the
    idempotent is e = u*g mod (x**p - 1).  Requires g | x**p - 1 with
    x**p - 1 squarefree (gcd(p, q) = 1), and rejects g = x**p - 1: the
    zero code has no idempotent generator.
    """
    xp1 = xn_minus_1(dom, p)
    if not g or not divides(dom, g, xp1):
        raise NotADivisor("generator must divide x**p - 1")
    if degree(g) == p:
        raise ZeroCode("the zero code has no idempotent generator")
    gbar = div_exact(dom, xp1, g)
    d, u, _ = gcd_ext(dom, g, gbar)
    if degree(d) != 0:
        raise NotCoprime("x**p - 1 is not squarefree over this field")
    e = mul_mod(dom, u, g, p)
    if mul_mod(dom, e, e, p) != e:
        raise AssertionError("computed generator is not idempotent")
    return e


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
