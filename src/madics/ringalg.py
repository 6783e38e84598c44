"""The non-chain ring R = F_q[v]/(v**s - v) and its CRT decomposition.

Elements are tuples of s ints: coefficients of 1, v, ..., v**(s-1).
The ring needs (s - 1) | (q - 1); then zeta = alpha**((q-1)/(s-1)) has
multiplicative order s - 1 and R splits into s copies of F_q through
the orthogonal idempotents

    eta_0     = 1 - v**(s-1)
    eta_(j+1) = (s-1)^(-1) * (sum_{k=1}^{s-2} zeta^(jk) v^k + v**(s-1))

for j = 0, ..., s-2.  Evaluation of v at the points
(0, 1, zeta^(-1), ..., zeta^(-(s-2))) realizes the isomorphism: eta_k
evaluates to 1 at point k and 0 at the others; make_ring checks this
at construction time.

R has no element arithmetic of its own: ring codes are built and
checked on their CRT components over F_q, and the v-basis is an output
format.  RingCtx.crt takes an element to its components; polynomials
over R are formed from components only by ring_poly_combine, which sums
each v**i column as sum_k eta_k[i] * component_k over F_q, split by
ring_poly_component and shown by format_ring_poly.
"""

from __future__ import annotations

import functools

from . import poly
from .errors import IncompatibleS, NonPrimeModulus, TooLarge
from .ffield import FieldCtx

# Largest s that make_ring builds: _validate_ring evaluates each of the
# s idempotents, s coefficients each, at the s CRT points, s**3 steps.
# make_ring took 18 ms at s = 64 (q = 127) and 133 ms at s = 129
# (q = 257) on an Intel Xeon with CPython 3.11.
S_CAP = 64


class RingCtx:
    """F_q[v]/(v**s - v) with pinned zeta, idempotents and CRT points.

    It only transports elements between the v-basis and their CRT
    components; all arithmetic happens on the components over F_q.
    Each ring is the one object make_ring returns for its field and s,
    so rings compare, and key caches, by identity.
    """

    __slots__ = ("field", "s", "zeta", "eta", "crt_points", "zero", "one")

    def __init__(self, field, s, zeta, eta, crt_points):
        self.field = field
        self.s = s
        self.zeta = zeta
        self.eta = eta
        self.crt_points = crt_points
        self.zero = (0,) * s
        self.one = (1,) + (0,) * (s - 1)

    @property
    def q(self):
        return self.field.q

    # -- CRT transport ---------------------------------------------------

    def crt(self, a):
        """Component vector (a(point_0), ..., a(point_{s-1}))."""
        return tuple(poly.eval_poly(self.q, a, pt)
                     for pt in self.crt_points)

    def __repr__(self):
        return f"RingCtx(GF({self.q})[v]/(v^{self.s} - v))"


@functools.lru_cache(maxsize=None)
def make_ring(ctx: FieldCtx, s: int) -> RingCtx:
    """Construct F_q[v]/(v**s - v); requires prime q and (s-1) | (q-1).

    s is refused with TooLarge above S_CAP, before zeta or any eta_k is
    computed."""
    if ctx.t != 1:
        raise NonPrimeModulus("the coefficient field of R must be prime")
    if s < 2:
        raise IncompatibleS("s must be >= 2")
    q = ctx.q
    if (q - 1) % (s - 1) != 0:
        raise IncompatibleS(f"(s-1)={s - 1} must divide (q-1)={q - 1}")
    if s > S_CAP:
        raise TooLarge(
            f"s={s} exceeds the ring cap {S_CAP}: checking the CRT "
            f"idempotents takes s**3 = {s**3} steps")

    zeta = ctx.pow(ctx.primitive_element, (q - 1) // (s - 1))
    if ctx.multiplicative_order(zeta) != s - 1:
        raise AssertionError("zeta does not have order s - 1")

    eta0 = [1] + [0] * (s - 1)
    eta0[s - 1] = (q - 1) % q  # 1 - v^(s-1)
    etas = [tuple(eta0)]
    inv_sm1 = ctx.inv((s - 1) % q)
    for j in range(s - 1):
        vec = [0] * s
        for k in range(1, s - 1):
            vec[k] = ctx.pow(zeta, j * k)
        vec[s - 1] = 1
        etas.append(tuple(ctx.mul(inv_sm1, c) for c in vec))

    points = (0, 1) + tuple(ctx.inv(ctx.pow(zeta, k)) for k in range(1, s - 1))
    ring = RingCtx(ctx, s, zeta, tuple(etas), points)
    _validate_ring(ring)
    return ring


def _validate_ring(ring):
    """The s CRT points are distinct roots of v**s - v, hence all of
    them, so evaluation at them is the isomorphism R -> F_q**s.  Each
    eta_i must evaluate to the i-th unit vector; that makes the eta_i
    orthogonal idempotents summing to 1."""
    f, s = ring.field, ring.s
    points = ring.crt_points
    if len(set(points)) != s or any(f.pow(pt, s) != pt for pt in points):
        raise AssertionError("CRT points are not the s roots of v^s - v")
    for i, ei in enumerate(ring.eta):
        if ring.crt(ei) != (0,) * i + (1,) + (0,) * (s - 1 - i):
            raise AssertionError(f"eta_{i} has wrong CRT components")


# ---------------- polynomials over R ----------------

def ring_poly_component(ring, rp, k):
    """k-th CRT component of a polynomial over R, as an F_q polynomial."""
    pt, q = ring.crt_points[k], ring.q
    return poly.trim(q, (poly.eval_poly(q, c, pt) for c in rp))


def ring_poly_combine(ring, components):
    """Polynomial over R with the given component polynomials.

    The element with CRT components (c_0, ..., c_{s-1}) is
    sum_k c_k eta_k, so the coefficient of v**i, as a polynomial in x,
    is the column sum_k eta_k[i] * components[k]; each column is summed
    unreduced, reduced once mod q, and the columns are read off
    x-degree by x-degree.
    """
    q = ring.q
    width = max(map(len, components))
    cols = []
    for i in range(ring.s):
        col = [0] * width
        for eta, comp in zip(ring.eta, components):
            c = eta[i]
            if c:
                col[:len(comp)] = [x + c * y for x, y in zip(col, comp)]
        cols.append([x % q for x in col])
    out = list(zip(*cols))
    while out and out[-1] == ring.zero:
        out.pop()
    return tuple(out)


def format_ring_poly(ring, rp, var="x"):
    """Text form with v-polynomial coefficients, e.g. ``1+(1+2*v)*x+v*x^2``."""
    terms = []
    for i, c in enumerate(rp):
        if c == ring.zero:
            continue
        scalar = all(x == 0 for x in c[1:])
        inner = poly.format_poly(c, var="v")
        if i == 0:
            terms.append(inner if scalar else f"({inner})")
            continue
        xpart = var if i == 1 else f"{var}^{i}"
        if c == ring.one:
            terms.append(xpart)
        elif scalar:
            terms.append(f"{inner}*{xpart}")
        else:
            terms.append(f"({inner})*{xpart}")
    return "+".join(terms) if terms else "0"
