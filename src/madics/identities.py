"""Algebraic identity checks for the ring code families.

Over a full mu_a orbit E_0, ..., E_{L-1} (L = m for gcd(j, m) = 1) the
checks cover, mod x**p - 1 over R:

    E idempotency              E_r**2 = E_r, and mu_a(E_r) idempotent
    orbit products             E_r * E_t = 0 for r != t
    orbit sum                  sum E_r = 1 - h
    odd-like I                 E'_r**2 = E'_r, mu chain,
                               E'_i + E'_j - E'_i E'_j = 1, prod E'_r = h
    even-like II               D_r**2 = D_r, mu chain,
                               D_i + D_j - D_i D_j = 1 - h, prod D_r = 0
    odd-like II                D'_r**2 = D'_r, mu chain,
                               D'_i D'_j = h, sum D'_r = 1 - (s-1) h

Some of these hold only under arithmetic side conditions on (q, p)
(notably p = 1 mod q); the suite evaluates each one exactly and reports
what it finds instead of assuming.

The suite runs over F_q on the s CRT components each ring code
carries (``RingCode.elements``): products, sums, chain steps and
comparisons act per component, and the v-basis form is built only to
display a refuted identity's two sides.  Each product is one
packed-integer poly.mul_mod (Kronecker substitution over GF(q)), made
once per call for each unordered pair of component polynomials: the
orbit repeats its components, mu_a(E_r) squares the elements E_r
squared, and the pair identities reuse at most m polynomials a family.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import poly
from .field_codes import all_ones_h
from .ring_codes import chain_step_poly, ring_code, ring_mu_chain
from .ringalg import format_ring_poly, ring_poly_combine

IDENTITY_NAMES = (
    "E_idempotent",
    "mu_E_idempotent",
    "orbit_closes",
    "E_products_zero",
    "E_sum_is_1_minus_h",
    "Ep_idempotent",
    "Ep_mu_chain",
    "Ep_pair_identity",
    "Ep_product_is_h",
    "D_idempotent",
    "D_mu_chain",
    "D_pair_identity",
    "D_product_zero",
    "Dp_idempotent",
    "Dp_mu_chain",
    "Dp_pair_is_h",
    "Dp_sum_identity",
)


@dataclass(frozen=True)
class IdentityOutcome:
    name: str
    holds: bool
    computed: str = ""
    expected: str = ""


def check_identities(ring, system, base_slots=None, a=None, alpha_exp=1):
    """Evaluate every identity over the mu_a orbit; returns
    {name: IdentityOutcome}."""
    p, m, s = system.p, system.m, ring.s
    ctx = ring.field
    if base_slots is None:
        base_slots = tuple(i % m for i in range(s))
    if a is None:
        a = system.a

    base = ring_code(ring, system, "even-I", base_slots, alpha_exp)
    orbit = ring_mu_chain(base, a)
    es = [c.elements for c in orbit]
    eps, ds, dps = (
        [ring_code(ring, system, family, c.slots, alpha_exp).elements
         for c in orbit]
        for family in ("odd-I", "even-II", "odd-II"))

    # every value below is a tuple of s reduced F_q polynomials
    h = all_ones_h(p)
    one = ((ctx.one,),) * s
    zero = (poly.ZERO,) * s
    hs = (h,) * s
    one_minus_h = (poly.sub(ctx, (ctx.one,), h),) * s
    dp_expected = (poly.sub(ctx, (ctx.one,),
                            poly.scale(ctx, (s - 1) % ctx.q, h)),) * s

    products = {}

    def mul(u, w):
        key = (u, w) if u <= w else (w, u)
        if key not in products:
            products[key] = poly.mul_mod(ctx, u, w, p)
        return products[key]

    def mm(x, y):
        return tuple(mul(u, w) for u, w in zip(x, y))

    def add(x, y):
        return tuple(poly.add(ctx, u, w) for u, w in zip(x, y))

    def sub(x, y):
        return tuple(poly.sub(ctx, u, w) for u, w in zip(x, y))

    def step(x):
        return tuple(chain_step_poly(p, a, u) for u in x)

    def sq_ok(elems):
        return all(mm(e, e) == e for e in elems)

    def chain_ok(elems):
        n = len(elems)
        return all(step(elems[r]) == elems[(r + 1) % n] for r in range(n))

    def pairs(elems):
        return [(elems[r], elems[t])
                for r in range(len(elems)) for t in range(r + 1, len(elems))]

    def total(elems):
        acc = zero
        for e in elems:
            acc = add(acc, e)
        return acc

    def product(elems):
        acc = one
        for e in elems:
            acc = mm(acc, e)
        return acc

    def pair_sum(x, y):
        return sub(add(x, y), mm(x, y))

    out = {}

    def record(name, holds, computed=zero, expected=zero):
        shown = ("", "") if holds else tuple(
            format_ring_poly(ring, ring_poly_combine(ring, v))
            for v in (computed, expected))
        out[name] = IdentityOutcome(name, holds, *shown)

    record("E_idempotent", sq_ok(es))
    record("mu_E_idempotent", sq_ok([step(e) for e in es]))
    record("orbit_closes", step(es[-1]) == es[0])
    record("E_products_zero", all(mm(x, y) == zero for x, y in pairs(es)))
    e_sum = total(es)
    record("E_sum_is_1_minus_h", e_sum == one_minus_h, e_sum, one_minus_h)

    record("Ep_idempotent", sq_ok(eps))
    record("Ep_mu_chain", chain_ok(eps))
    record("Ep_pair_identity",
           all(pair_sum(x, y) == one for x, y in pairs(eps)))
    ep_prod = product(eps)
    record("Ep_product_is_h", ep_prod == hs, ep_prod, hs)

    record("D_idempotent", sq_ok(ds), mm(ds[0], ds[0]), ds[0])
    record("D_mu_chain", chain_ok(ds))
    record("D_pair_identity",
           all(pair_sum(x, y) == one_minus_h for x, y in pairs(ds)),
           pair_sum(ds[0], ds[1 % len(ds)]), one_minus_h)
    d_prod = product(ds)
    record("D_product_zero", d_prod == zero, d_prod, zero)

    record("Dp_idempotent", sq_ok(dps), mm(dps[0], dps[0]), dps[0])
    record("Dp_mu_chain", chain_ok(dps))
    record("Dp_pair_is_h", all(mm(x, y) == hs for x, y in pairs(dps)),
           mm(dps[0], dps[1 % len(dps)]), hs)
    dp_sum = total(dps)
    record("Dp_sum_identity", dp_sum == dp_expected, dp_sum, dp_expected)

    assert set(out) == set(IDENTITY_NAMES)
    return out
