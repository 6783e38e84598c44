"""Slow references that the fast paths of madics are tested against.

VBasisRing is R = F_q[v]/(v^s - v) with element arithmetic in the
v-basis (coefficients of 1, v, ..., v^(s-1)), which madics itself does
without: it computes on the CRT components and keeps the v-basis as an
output format.  VBasisRing has the field operations that madics.poly
uses except ``inv``, so the ring operations of madics.poly (trim, add,
sub, neg, scale and mul) run over it.

mul_mod_schoolbook is the oracle of madics.poly.mul_mod: the schoolbook
product poly.mul folded mod x^n - 1 one coefficient at a time by
mod_xn_minus_1.  poly.mul_mod packs coefficients into one int and so
works over prime fields only; the v-basis references multiply over
VBasisRing with mul_mod_schoolbook, which keeps them independent of
that fast path.

check_identities_vbasis evaluates the identity suite directly in the
v-basis of R = F_q[v]/(v^s - v), on the stored idempotents and with
its own chain step, so it uses none of the ring codes' CRT components;
madics.identities.check_identities, which works on the components,
must agree with it on every outcome.

The scans are the oracles of madics._kernels.  scan_numpy expands
each block of message indices into base-q digits and multiplies by G.
scan_union builds the full 0/1 support table of every component and
ORs it across all tuples.  Neither splits G or packs words into bit
planes as the kernel does.  Both return (d_min, counts) with the zero
word in counts[0], but scan_union holds every tuple in memory at once,
so keep its inputs small.

griesmer_bound_naive is the oracle of madics.analysis.griesmer_check:
the sum of ceil(d / q**i) over every i < k, one power at a time.

macwilliams_naive is the oracle of madics.analysis.macwilliams: the
same transform with each Krawtchouk value summed from its binomial
definition instead of the three-term recurrence.

product_schoolbook is the oracle of madics.field_codes._product, the
pairwise tree of packed products that checks the coset factors and
multiplies the class products: it folds the schoolbook poly.mul left
to right.

gcd_ext and idempotent_bezout are the Bezout oracle of the idempotents
of madics.field_codes, which come in closed form from Gauss periods:
for a proper divisor g of x^p - 1 with gbar = (x^p - 1)/g, the extended
Euclidean algorithm gives u*g + w*gbar = 1, and u*g mod x^p - 1 is the
idempotent generator of <g>.  It knows nothing of residue classes and
works from the generator alone.

is_prime_trial and is_prime_power_trial are the oracles of
madics.ffield.is_prime (Miller-Rabin) and is_prime_power (integer
roots): trial division up to sqrt(n), for small n only.
"""

from math import comb

import numpy as np

from madics import poly
from madics.identities import IDENTITY_NAMES, IdentityOutcome
from madics.ring_codes import ring_code, ring_mu_chain
from madics.ringalg import RingCtx, format_ring_poly


class VBasisRing(RingCtx):
    """A ring context with v-basis element arithmetic, for tests."""

    def __init__(self, ring):
        super().__init__(ring.field, ring.s, ring.zeta, ring.eta,
                         ring.crt_points)

    def from_scalar(self, c):
        return (c % self.q,) + (0,) * (self.s - 1)

    def add(self, a, b):
        q = self.q
        return tuple((x + y) % q for x, y in zip(a, b))

    def sub(self, a, b):
        q = self.q
        return tuple((x - y) % q for x, y in zip(a, b))

    def neg(self, a):
        q = self.q
        return tuple(-x % q for x in a)

    def mul(self, a, b):
        # convolution with the fold v**e -> v**((e-1) mod (s-1) + 1)
        q, s = self.q, self.s
        out = [0] * s
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if not y:
                    continue
                e = i + j
                if e >= s:
                    e = (e - 1) % (s - 1) + 1
                out[e] = (out[e] + x * y) % q
        return tuple(out)


def mod_xn_minus_1(dom, a, n):
    """Reduce mod x**n - 1 by folding exponents mod n."""
    out = [dom.zero] * n
    for i, c in enumerate(a):
        if c != dom.zero:
            out[i % n] = dom.add(out[i % n], c)
    return poly.trim(dom, out)


def mul_mod_schoolbook(dom, a, b, n):
    """a*b mod x**n - 1 by the schoolbook product, over any dom."""
    return mod_xn_minus_1(dom, poly.mul(dom, a, b), n)


def product_schoolbook(dom, polys):
    """The product of polys, one schoolbook poly.mul at a time."""
    acc = (dom.one,)
    for f in polys:
        acc = poly.mul(dom, acc, f)
    return acc


def gcd_ext(dom, a, b):
    """Monic gcd g of a and b, not both zero, with Bezout cofactors:
    (g, u, w) with u*a + w*b = g."""
    r0, r1 = a, b
    u0, u1 = (dom.one,), poly.ZERO
    w0, w1 = poly.ZERO, (dom.one,)
    while r1:
        quot, rem = poly.divmod_poly(dom, r0, r1)
        r0, r1 = r1, rem
        u0, u1 = u1, poly.sub(dom, u0, poly.mul(dom, quot, u1))
        w0, w1 = w1, poly.sub(dom, w0, poly.mul(dom, quot, w1))
    lead_inv = dom.inv(r0[-1])
    return tuple(poly.scale(dom, lead_inv, f) for f in (r0, u0, w0))


def idempotent_bezout(dom, g, p):
    """Idempotent generator of <g> in F_q[x]/(x^p - 1), for g a proper
    divisor of x^p - 1 with gcd(p, q) = 1."""
    gbar = poly.div_exact(dom, poly.xn_minus_1(dom, p), g)
    d, u, _ = gcd_ext(dom, g, gbar)
    assert d == (dom.one,), "x^p - 1 is not squarefree over this field"
    return mul_mod_schoolbook(dom, u, g, p)


def scan_numpy(gmat, q, chunk=1 << 13):
    gmat = np.ascontiguousarray(gmat, dtype=np.int64)
    k, n = gmat.shape
    counts = np.zeros(n + 1, dtype=np.int64)
    counts[0] += 1
    total = q**k
    best = n + 1
    powers = q ** np.arange(k, dtype=np.int64)
    for start in range(1, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        msgs = (idx[:, None] // powers[None, :]) % q
        words = (msgs @ gmat) % q
        ws = np.count_nonzero(words, axis=1)
        counts += np.bincount(ws, minlength=n + 1)
        best = min(best, int(ws.min()))
    return best, counts


def support_table(gmat, q):
    """All q**k codewords as a 0/1 support matrix, in base-q counting
    order of the messages (coefficient 0 least significant)."""
    gmat = np.ascontiguousarray(gmat, dtype=np.int64)
    k = gmat.shape[0]
    powers = q ** np.arange(k, dtype=np.int64)
    idx = np.arange(q**k, dtype=np.int64)
    msgs = (idx[:, None] // powers[None, :]) % q
    return ((msgs @ gmat) % q != 0).astype(np.uint8)


def scan_union(gmats, q):
    n = gmats[0].shape[1]
    combined = np.zeros((1, n), dtype=np.uint8)
    for gmat in gmats:
        table = support_table(gmat, q)
        combined = (combined[:, None, :] | table[None, :, :]).reshape(-1, n)
    weights = combined.sum(axis=1, dtype=np.int64)
    counts = np.bincount(weights, minlength=n + 1)
    nonzero = weights[weights > 0]
    return (int(nonzero.min()) if nonzero.size else 0), counts


def griesmer_bound_naive(k, d, q):
    return sum(-(-d // q**i) for i in range(k))


def krawtchouk(w, i, n, q):
    """K_w(i) = sum_j (-1)**j (q-1)**(w-j) C(i, j) C(n-i, w-j)."""
    return sum((-1)**j * (q - 1)**(w - j) * comb(i, j) * comb(n - i, w - j)
               for j in range(w + 1))


def macwilliams_naive(dual_counts, n, q):
    size = sum(dual_counts)
    return tuple(
        sum(b * krawtchouk(w, i, n, q) for i, b in enumerate(dual_counts))
        // size
        for w in range(n + 1))


def is_prime_trial(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def is_prime_power_trial(n):
    """True when n > 1 has exactly one prime divisor."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            while n % d == 0:
                n //= d
            return n == 1
        d += 1
    return n > 1


def _eq(ring, p, a, b):
    return mod_xn_minus_1(ring, a, p) == mod_xn_minus_1(ring, b, p)


def _step_vbasis(ring, p, a, coeffs):
    """One chain step over R: the coefficient at exponent a*i moves to
    exponent i."""
    padded = tuple(coeffs) + (ring.zero,) * (p - len(coeffs))
    return poly.trim(ring, (padded[a * i % p] for i in range(p)))


def check_identities_vbasis(ring, system, base_slots=None, a=None,
                            alpha_exp=1):
    """The identity suite evaluated in the v-basis over R, the oracle of
    madics.identities.check_identities; returns {name: IdentityOutcome}.

    h is the all-ones polynomial over R, built here as (ring.one,) * p.
    """
    ring = VBasisRing(ring)
    p, m, s = system.p, system.m, ring.s
    if base_slots is None:
        base_slots = tuple(i % m for i in range(s))
    if a is None:
        a = system.a

    base = ring_code(ring, system, "even-I", base_slots, alpha_exp)
    orbit = ring_mu_chain(base, a)
    es = [c.idempotent for c in orbit]
    eps = [ring_code(ring, system, "odd-I", c.slots, alpha_exp).idempotent
           for c in orbit]
    ds = [ring_code(ring, system, "even-II", c.slots, alpha_exp).idempotent
          for c in orbit]
    dps = [ring_code(ring, system, "odd-II", c.slots, alpha_exp).idempotent
           for c in orbit]

    one = (ring.one,)
    zero = poly.ZERO
    h = (ring.one,) * p
    one_minus_h = poly.sub(ring, one, h)

    def mm(x, y):
        return mul_mod_schoolbook(ring, x, y, p)

    def sq_ok(polys):
        return all(_eq(ring, p, mm(e, e), e) for e in polys)

    def chain_ok(polys):
        n = len(polys)
        return all(
            _eq(ring, p, _step_vbasis(ring, p, a, polys[r]),
                polys[(r + 1) % n])
            for r in range(n))

    def total(polys):
        acc = zero
        for e in polys:
            acc = poly.add(ring, acc, e)
        return mod_xn_minus_1(ring, acc, p)

    def product(polys):
        acc = one
        for e in polys:
            acc = mm(acc, e)
        return acc

    out = {}

    def record(name, holds, computed=(), expected=()):
        out[name] = IdentityOutcome(
            name, holds,
            format_ring_poly(ring, computed) if not holds else "",
            format_ring_poly(ring, expected) if not holds else "")

    record("E_idempotent", sq_ok(es))
    mu_es = [_step_vbasis(ring, p, a, e) for e in es]
    record("mu_E_idempotent", sq_ok(mu_es))
    record("orbit_closes",
           _eq(ring, p, _step_vbasis(ring, p, a, es[-1]), es[0]))

    prod_zero = all(
        _eq(ring, p, mm(es[r], es[t]), zero)
        for r in range(len(es)) for t in range(r + 1, len(es)))
    record("E_products_zero", prod_zero)

    e_sum = total(es)
    record("E_sum_is_1_minus_h", _eq(ring, p, e_sum, one_minus_h),
           e_sum, one_minus_h)

    record("Ep_idempotent", sq_ok(eps))
    record("Ep_mu_chain", chain_ok(eps))
    pair_ok = all(
        _eq(ring, p,
                 poly.sub(ring, poly.add(ring, eps[r], eps[t]),
                          mm(eps[r], eps[t])),
                 one)
        for r in range(len(eps)) for t in range(r + 1, len(eps)))
    record("Ep_pair_identity", pair_ok)
    ep_prod = product(eps)
    record("Ep_product_is_h", _eq(ring, p, ep_prod, h), ep_prod, h)

    record("D_idempotent", sq_ok(ds), mm(ds[0], ds[0]), ds[0])
    record("D_mu_chain", chain_ok(ds))
    d_pair_ok = all(
        _eq(ring, p,
                 poly.sub(ring, poly.add(ring, ds[r], ds[t]),
                          mm(ds[r], ds[t])),
                 one_minus_h)
        for r in range(len(ds)) for t in range(r + 1, len(ds)))
    sample_pair = poly.sub(ring, poly.add(ring, ds[0], ds[1 % len(ds)]),
                           mm(ds[0], ds[1 % len(ds)]))
    record("D_pair_identity", d_pair_ok, sample_pair, one_minus_h)
    d_prod = product(ds)
    record("D_product_zero", _eq(ring, p, d_prod, zero), d_prod, zero)

    record("Dp_idempotent", sq_ok(dps), mm(dps[0], dps[0]), dps[0])
    record("Dp_mu_chain", chain_ok(dps))
    dp_pair_ok = all(
        _eq(ring, p, mm(dps[r], dps[t]), h)
        for r in range(len(dps)) for t in range(r + 1, len(dps)))
    record("Dp_pair_is_h", dp_pair_ok, mm(dps[0], dps[1 % len(dps)]), h)
    dp_sum = total(dps)
    dp_expected = mod_xn_minus_1(
        ring,
        poly.sub(ring, one,
                 poly.scale(ring, ring.from_scalar(s - 1), h)),
        p)
    record("Dp_sum_identity", _eq(ring, p, dp_sum, dp_expected),
           dp_sum, dp_expected)

    assert set(out) == set(IDENTITY_NAMES)
    return out
