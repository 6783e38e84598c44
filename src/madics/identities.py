"""Algebraic identity checks for the ring code families.

Over a full mu_a orbit (length L = m for gcd(j, m) = 1) the checks
cover, mod x**p - 1 over R, the same four relations for each of the
four families, one row each:

    family        orbit   pairwise law, r != t          orbit fold
    even-like I   E_r     E_r E_t = 0                   sum E_r = 1 - h
    odd-like I    E'_r    E'_r + E'_t - E'_r E'_t = 1   prod E'_r = h
    even-like II  D_r     D_r + D_t - D_r D_t = 1 - h   prod D_r = 0
    odd-like II   D'_r    D'_r D'_t = h                 sum D'_r = 1 - (s-1) h

and on every row idempotency, x_r**2 = x_r, and the mu chain,
mu_a(x_r) = x_{r+1}.  The even-I orbit is the chain ring_mu_chain
builds and checks, so that row records instead that mu_a(E_r) is
idempotent and that the orbit closes.  check_identities runs this
table: per row, idempotency, chain, pairwise law and fold, in that
order.

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
(``RingCode.spectra``), and a ring element is the flat tuple of them.
The orbit is read once: one ring_code call validates the base slots,
and the E', D and D' rows are the codes at the even-I orbit's slots in
the shared-code cache behind ring_code.  The chain step is
ring_codes.chain_source, the one the chains check.  The spectra are
relative to alpha, so the suite at base slots b under the labeling u =
alpha_exp is the suite at slots b + c(u) under alpha.

On spectra, idempotency is "every value is 0 or 1", since v**2 = v
only for those in a field.  Each pairwise law is written as "a_r a_t = c
for every r < t": a_r = x_r with c = 0 and h on the even-I and odd-II
rows, a_r = 1 - x_r with c = 0 and h on odd-I and even-II, as
x_r + x_t - x_r x_t = 1 - (1 - x_r)(1 - x_t).  pairwise_products_equal
takes the x_r and forms 1 - x_r itself, and checks the law in O(L) per
spectral coordinate, not with the L(L-1)/2 products.  A fold is a sum
or product mod q over each spectral column of the orbit.

Every identity is evaluated on every call.  A refuted identity shows
its two sides, built only once it is refuted: x_0**2 against x_0, the
pairwise law as printed at the first pair (x_0 x_1 against c, or x_0 +
x_1 - x_0 x_1 against 1 - c), the fold against its expected value, and
0 against 0 for a chain.  _shown makes each side's text, cached per
spectrum: it inverts each component spectrum with from_spectrum,
combines the components and formats the v-basis form, so each distinct
side is formatted once and a warm call formats nothing.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

from .field_codes import FAMILIES, from_spectrum
from .ring_codes import (_shared_ring_code, chain_source, ring_code,
                         ring_mu_chain)
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


def pairwise_products_equal(q, values, target, complement=False):
    """Does a_r * a_t == target hold pointwise over F_q for every r < t,
    with a_r = values[r], or 1 - values[r] when complement?  All
    arguments are spectra of one length, with entries in [0, q).

    Per coordinate, with c the target entry and a_r the values there:
    for c = 0, at most one a_r is nonzero; for L = 2 values, the one
    product is c; for L >= 3 and c != 0, all a_r are nonzero, a_r a_t
    = a_r a_u forces a_t = a_u, so all equal one v with v**2 = c.
    """
    if len(values) < 2:
        return True
    for c, *col in zip(target, *values):
        if complement:
            col = [(1 - v) % q for v in col]
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
    code at base_slots, labeled by alpha_exp; returns {name: outcome}
    in IDENTITY_NAMES order."""
    p, m, s, q = system.p, system.m, ring.s, ring.q
    if base_slots is None:
        base_slots = tuple(i % m for i in range(s))
    if a is None:
        a = system.a
    orbit = ring_mu_chain(
        ring_code(ring, system, "even-I", base_slots, alpha_exp), a)
    # each family's orbit as flat tuples of s spectra of length m + 1:
    # the even-I row is the orbit itself, the others share its slots
    es, eps, ds, dps = ([sum(_shared_ring_code(
        ring, system, family, c.slots, c.alpha_exp).spectra, ())
        for c in orbit] for family in FAMILIES)

    def const(at_one, elsewhere):
        return ((at_one % q,) + (elsewhere,) * m) * s

    zero, hs = const(0, 0), const(p, 0)
    source = chain_source(m, system.class_of(a))
    step = operator.itemgetter(
        *[o + i for o in range(0, s * (m + 1), m + 1) for i in source])

    def columns(fold, *xs):
        return tuple(fold(col) % q for col in zip(*xs))

    out = {}

    def record(name, holds, sides=lambda: (zero, zero)):
        out[name] = (IdentityOutcome(name, True) if holds else
                     IdentityOutcome(name, False, *(
                         _shown(ring, system, side) for side in sides())))

    record("mu_E_idempotent", all(max(step(e)) < 2 for e in es))
    record("orbit_closes", step(es[-1]) == es[0])
    # one row per family (module docstring): name prefix, orbit,
    # whether the pairwise law is on 1 - x, its target c and name, and
    # the orbit fold with its expected value and name
    table = (
        ("E", es, False, zero, "E_products_zero",
         sum, const(1 - p, 1), "E_sum_is_1_minus_h"),
        ("Ep", eps, True, zero, "Ep_pair_identity",
         math.prod, hs, "Ep_product_is_h"),
        ("D", ds, True, hs, "D_pair_identity",
         math.prod, zero, "D_product_zero"),
        ("Dp", dps, False, hs, "Dp_pair_is_h",
         sum, const(1 - (s - 1) * p, 1), "Dp_sum_identity"),
    )
    for pre, xs, complement, c, pair_name, fold, expected, fold_name in table:
        x, y = xs[0], xs[1 % len(xs)]
        record(pre + "_idempotent", all(max(v) < 2 for v in xs),
               lambda: (columns(math.prod, x, x), x))
        if pre != "E":
            record(pre + "_mu_chain", all(
                step(v) == w for v, w in zip(xs, xs[1:] + xs[:1])))
        # shown as printed: x_0 x_1 = c, or x_0 + x_1 - x_0 x_1 = 1 - c
        record(pair_name, pairwise_products_equal(q, xs, c, complement),
               lambda: (columns(lambda v: sum(v) - math.prod(v), x, y),
                        columns(lambda v: 1 - v[0], c)) if complement
               else (columns(math.prod, x, y), c))
        value = columns(fold, *xs)
        record(fold_name, value == expected, lambda: (value, expected))

    return {name: out[name] for name in IDENTITY_NAMES}
