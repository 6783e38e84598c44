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
carries, and on each component it works in the spectrum of the class
algebra A, so it multiplies no polynomial.  field_codes owns A and its
transform: its module docstring defines sigma, and
field_codes.from_spectrum inverts it.  Every element the suite touches
lies in A: e_i, 1 - e_i, 1 - h - e_i, h + e_i, 1, h, their sums and
products and their chain steps.  So a product is a pointwise product of
spectra, a sum a pointwise sum, and an identity holds exactly when it
holds pointwise.  A ring code holds its component spectra
(``RingCode.spectra``), and a ring element is the flat list of them.
The chain step is ring_codes.chain_source, the one the chains check.
The spectra are relative to alpha, so the suite at base slots b under
the labeling u = alpha_exp is the suite at slots b + c(u) under alpha.

On spectra, idempotency is "every value is 0 or 1", since v**2 = v
only for those in a field.  Each pairwise identity is written as
"a_r a_t = c for every r < t" with a_r = x_r or 1 - x_r:

    E_r E_t = 0                       x_r x_t = 0
    E'_i + E'_j - E'_i E'_j = 1       (1 - x_r)(1 - x_t) = 0
    D_i + D_j - D_i D_j = 1 - h       (1 - x_r)(1 - x_t) = h
    D'_i D'_j = h                     x_r x_t = h

and pairwise_products_equal checks that form in O(L) per spectral
coordinate, not with the L(L-1)/2 products.

Every identity is evaluated on every call.  A refuted identity's two
sides are shown through _shown, cached per spectrum: it inverts each
component spectrum with from_spectrum, combines the components and
formats the v-basis form, so each distinct side is formatted once and
a warm call formats nothing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .field_codes import FAMILIES, from_spectrum
from .ring_codes import chain_source, ring_code, ring_mu_chain
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
    """One identity's result.  A refuted identity shows its two sides,
    ``computed`` and ``expected``, as v-basis text over R; a holding
    one shows empty text."""

    name: str
    holds: bool
    computed: str = ""
    expected: str = ""


@functools.lru_cache(maxsize=None)
def _shown(ring, system, spectra):
    """The v-basis text over R of a flat tuple of s component spectra:
    each inverted by from_spectrum, then combined and formatted, cached
    per spectrum."""
    width = system.m + 1
    comps = [from_spectrum(system, ring.q, spectra[k:k + width])
             for k in range(0, len(spectra), width)]
    return format_ring_poly(ring, ring_poly_combine(ring, comps))


def pairwise_products_equal(q, values, target):
    """Does values[r] * values[t] == target hold pointwise over F_q for
    every r < t?  All arguments are spectra of one length, with entries
    in [0, q).

    Per coordinate, with c the target entry and a_r the values there:
    for c = 0, at most one a_r is nonzero; for L = 2 values, the one
    product is c; for L >= 3 and c != 0, all a_r are nonzero, a_r a_t
    = a_r a_u forces a_t = a_u, so all equal one v with v**2 = c.
    """
    if len(values) < 2:
        return True
    for c, *col in zip(target, *values):
        if c == 0:
            if len(col) - col.count(0) > 1:
                return False
        elif len(col) == 2:
            if col[0] * col[1] % q != c:
                return False
        elif col.count(col[0]) != len(col) or col[0] * col[0] % q != c:
            return False
    return True


def check_identities(ring, system, base_slots=None, a=None, alpha_exp=1):
    """Evaluate every identity over the mu_a orbit of the even-I ring
    code at base_slots, labeled by alpha_exp; returns {name: outcome}."""
    p, m, s, q = system.p, system.m, ring.s, ring.q
    if base_slots is None:
        base_slots = tuple(i % m for i in range(s))
    if a is None:
        a = system.a

    base = ring_code(ring, system, "even-I", base_slots, alpha_exp)
    orbit = ring_mu_chain(base, a)
    u = base.alpha_exp

    def spectra(code):
        return [v for spec in code.spectra for v in spec]

    es = [spectra(c) for c in orbit]
    eps, ds, dps = (
        [spectra(ring_code(ring, system, family, c.slots, u)) for c in orbit]
        for family in FAMILIES[1:])

    # every value below is a flat list of s spectra of length m + 1
    def const(at_one, elsewhere):
        return ([at_one % q] + [elsewhere] * m) * s

    one = const(1, 1)
    zero = const(0, 0)
    hs = const(p, 0)
    one_minus_h = const(1 - p, 1)
    dp_expected = const(1 - (s - 1) * p, 1)
    source = chain_source(m, system.class_of(a))
    moved = [o + i for o in range(0, s * (m + 1), m + 1) for i in source]

    def mm(x, y):
        return [v * w % q for v, w in zip(x, y)]

    def add(x, y):
        return [(v + w) % q for v, w in zip(x, y)]

    def sub(x, y):
        return [(v - w) % q for v, w in zip(x, y)]

    def step(x):
        return [x[i] for i in moved]

    def sq_ok(elems):
        return all(max(e) < 2 for e in elems)

    def chain_ok(elems):
        n = len(elems)
        return all(step(elems[r]) == elems[(r + 1) % n] for r in range(n))

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

    def complements(elems):
        return [sub(one, e) for e in elems]

    out = {}

    def record(name, holds, computed=zero, expected=zero):
        out[name] = (IdentityOutcome(name, True) if holds else
                     IdentityOutcome(name, False,
                                     _shown(ring, system, tuple(computed)),
                                     _shown(ring, system, tuple(expected))))

    record("E_idempotent", sq_ok(es))
    record("mu_E_idempotent", sq_ok([step(e) for e in es]))
    record("orbit_closes", step(es[-1]) == es[0])
    record("E_products_zero", pairwise_products_equal(q, es, zero))
    e_sum = total(es)
    record("E_sum_is_1_minus_h", e_sum == one_minus_h, e_sum, one_minus_h)

    record("Ep_idempotent", sq_ok(eps))
    record("Ep_mu_chain", chain_ok(eps))
    record("Ep_pair_identity",
           pairwise_products_equal(q, complements(eps), zero))
    ep_prod = product(eps)
    record("Ep_product_is_h", ep_prod == hs, ep_prod, hs)

    record("D_idempotent", sq_ok(ds), mm(ds[0], ds[0]), ds[0])
    record("D_mu_chain", chain_ok(ds))
    record("D_pair_identity",
           pairwise_products_equal(q, complements(ds), hs),
           pair_sum(ds[0], ds[1 % len(ds)]), one_minus_h)
    d_prod = product(ds)
    record("D_product_zero", d_prod == zero, d_prod, zero)

    record("Dp_idempotent", sq_ok(dps), mm(dps[0], dps[0]), dps[0])
    record("Dp_mu_chain", chain_ok(dps))
    record("Dp_pair_is_h", pairwise_products_equal(q, dps, hs),
           mm(dps[0], dps[1 % len(dps)]), hs)
    dp_sum = total(dps)
    record("Dp_sum_identity", dp_sum == dp_expected, dp_sum, dp_expected)

    assert set(out) == set(IDENTITY_NAMES)
    return out
