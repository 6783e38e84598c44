"""Polynomial arithmetic over a prime field GF(q).

A polynomial is a tuple of coefficient values in ascending degree with
trailing zeros trimmed, so equal polynomials compare equal as tuples.
The zero polynomial is the empty tuple.

Every operation takes the prime q as its first argument: coefficients
are plain ints and the arithmetic is integer arithmetic mod q, written
inline.  ffield builds the arithmetic of GF(q^t) on these operations
over GF(q), and the dom-generic schoolbook forms are test oracles.
Inputs are read mod q and every result is canonical (reduced into
[0, q) and trimmed).  Polynomials over R = F_q[v]/(v**s - v) are not
handled here: ringalg builds them from their F_q components.

There is one product, mul_mod, the product mod x**n - 1, by Kronecker
substitution (von zur Gathen & Gerhard, Modern Computer Algebra,
ch. 8): one big-int product of the packed operands, folded mod
x**n - 1 at the integer level, with byte-aligned slots wide enough for
n*(q-1)**2.  mul is mul_mod with n = len(a) + len(b), where nothing
folds.  Division yields only a remainder, which is all its callers
read (GF(q^t) products mod the modulus, divides, gcd): rem is long
division with lazy reduction, the running remainder reduced mod q only
where a coefficient is read.  The module is pure Python and imports
nothing but its errors.
"""

from __future__ import annotations

from .errors import BothZero, NonUnitLeadingCoefficient


def _trimmed(coeffs):
    """The tuple of a list of reduced coefficients, trailing zeros
    dropped (the list is consumed)."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def trim(q, coeffs):
    """Canonical form: coefficients reduced mod q, trailing zeros
    dropped."""
    return _trimmed([c % q for c in coeffs])


def xn_minus_1(q, n):
    return (q - 1,) + (0,) * (n - 1) + (1,)


def mul(q, a, b):
    """The product a*b: mul_mod with n = len(a) + len(b), more slots
    than a*b has coefficients, so nothing folds."""
    return mul_mod(q, a, b, len(a) + len(b) or 1)


def rem(q, a, b):
    """The canonical remainder of a by b; b must not be zero."""
    b = trim(q, b)
    if not b:
        raise NonUnitLeadingCoefficient("division by the zero polynomial")
    return _rem_monic(q, a, _monic(q, b))


def _rem_monic(q, a, b):
    """The canonical remainder of a by a canonical monic b, by long
    division with lazy reduction: a window of the running remainder
    takes the products of one step unreduced, and a coefficient is
    reduced mod q only when it becomes the leading one or lands in the
    remainder."""
    db = len(b) - 1
    low = b[:db]
    run = list(a)
    for i in range(len(run) - 1, db - 1, -1):
        f = run[i] % q
        if f:
            lo = i - db
            run[lo:i] = [r - f * c for r, c in zip(run[lo:i], low)]
    return _trimmed([r % q for r in run[:db]])


def divides(q, b, a):
    if not trim(q, b):
        return not trim(q, a)
    return not rem(q, a, b)


def _pack(coeffs, q, width):
    """One int holding coeffs[i] mod q in bytes [i*width, (i+1)*width):
    byte k of every slot is written in one strided slice."""
    digits = [c % q for c in coeffs]
    if width == 1:
        return int.from_bytes(bytes(digits), "little")
    buf = bytearray(len(digits) * width)
    if q <= 256:
        buf[::width] = bytes(digits)
    else:
        for k in range(((q - 1).bit_length() + 7) // 8):
            buf[k::width] = bytes([d >> 8 * k & 255 for d in digits])
    return int.from_bytes(buf, "little")


def _unpack(value, q, width, n):
    """The n slots of ``value`` (width bytes each) reduced mod q: byte
    k of every slot is read in one strided slice, high byte first."""
    buf = value.to_bytes(n * width, "little")
    if width == 1:
        return [s % q for s in buf]
    slots = buf[width - 1::width]
    for k in range(width - 2, 0, -1):
        slots = [s << 8 | b for s, b in zip(slots, buf[k::width])]
    return [(s << 8 | b) % q for s, b in zip(slots, buf[::width])]


def mul_mod(q, a, b, n):
    """a*b mod x**n - 1 over a prime field, by Kronecker substitution.

    Each operand becomes one int with B bits per coefficient slot; one
    int product C holds the slots of a*b, and (C mod 2**(n*B)) +
    (C >> n*B) adds slot i + n onto slot i, which is the fold mod
    x**n - 1.  With len(a), len(b) <= n each folded slot is a sum of at
    most n products of coefficients in [0, q), so it is at most
    n*(q-1)**2; B is that bit length rounded up to whole bytes, so no
    slot carries into the next.  The slots are reduced mod q at the end.
    """
    if n < 1 or len(a) > n or len(b) > n:
        raise ValueError(f"mul_mod needs n >= 1 and operands of length "
                         f"<= n, got {len(a)} and {len(b)} for n = {n}")
    width = -(-(n * (q - 1) ** 2).bit_length() // 8)
    span = n * 8 * width
    packed = _pack(a, q, width)
    prod = packed * (packed if b is a else _pack(b, q, width))
    folded = (prod & ((1 << span) - 1)) + (prod >> span)
    return _trimmed(_unpack(folded, q, width, n))


def eval_poly(q, a, x):
    """Evaluate at a field value by Horner's rule."""
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % q
    return acc


def monic(q, a):
    return _monic(q, trim(q, a))


def _monic(q, a):
    """A canonical polynomial scaled to leading coefficient 1."""
    if not a or a[-1] == 1:
        return a
    lead_inv = pow(a[-1], -1, q)
    return tuple([c * lead_inv % q for c in a])


def gcd(q, a, b):
    """Monic gcd of a and b by the remainder loop on monic remainders;
    raises BothZero when a = b = 0."""
    a, b = monic(q, a), monic(q, b)
    if not a and not b:
        raise BothZero("gcd(0, 0) is undefined")
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _monic(q, _rem_monic(q, a, b))
    return a


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
