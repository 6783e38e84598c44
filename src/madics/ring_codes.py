"""m-adic residue codes over R = F_q[v]/(v**s - v).

An even-like class-I code over R is built from a slot assignment
(i_0, ..., i_{s-1}) of class indices: its idempotent is

    E = eta_0 * e_{i_0} + ... + eta_{s-1} * e_{i_{s-1}}

with e_i the field even-like class-I idempotents.  Through the CRT the
code splits into s independent field codes, one per slot.  The derived
families transform the idempotent:

    odd-like class I    E' = 1 - E
    even-like class II  D  = 1 - h - E
    odd-like class II   D' = h + E

with h the all-ones polynomial.  The reported generator over R is the
slotwise CRT combination of the component generators, zero-padded to
the widest component.

The multiplier mu_a sends the exponent set Q_r to Q_{r+j}, with j the
class index of a.  On polynomial coefficients the chain therefore
steps with the inverse relocation (the coefficient at exponent a*i
moves to exponent i): that is what carries the code built on Q_r to
the code built on Q_{r+j}, keeping the slot walk aligned with the
class walk.  The orbit closes after m/gcd(j, m) steps, which is m for
the required gcd(j, m) = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import poly
from .errors import BadSlotIndex, MultiplierNotCyclic, NotCoprime
from .field_codes import FAMILIES, CyclicCode, family_codes
from .residues import ResidueSystem, mu_poly
from .ringalg import (
    RingCtx,
    all_ones_ring,
    ring_poly_combine,
    ring_poly_component,
)


@dataclass(frozen=True)
class RingCode:
    """A code over R with its defining element, combined generator and
    the s field component codes.

    ``idempotent`` holds the family's defining element (E, 1-E, 1-h-E
    or h+E).  For class-II even-like codes this element is a true
    idempotent exactly when p = 1 mod q; the verification suite checks
    and reports this rather than hiding it.
    """

    ring: RingCtx
    system: ResidueSystem
    family: str
    slots: tuple
    alpha_exp: int
    idempotent: tuple
    generator: tuple
    components: tuple

    @property
    def p(self):
        return self.system.p

    @property
    def component_ranks(self):
        return tuple(c.dimension for c in self.components)


def _even_idempotents(system, ctx, alpha_exp):
    return tuple(c.idempotent for c in
                 family_codes(system, ctx, "even-I", alpha_exp))


def ring_code(ring, system, family, slots, alpha_exp=1):
    """Build one ring code family member for a slot assignment."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    slots = tuple(slots)
    if len(slots) != ring.s:
        raise BadSlotIndex(
            f"slot assignment needs exactly s={ring.s} entries, got {len(slots)}")
    if any(i < 0 or i >= system.m for i in slots):
        raise BadSlotIndex(f"slot indices must lie in [0, {system.m})")

    ctx = ring.field
    p = system.p
    evens = _even_idempotents(system, ctx, alpha_exp)
    e_combined = ring_poly_combine(ring, [evens[i] for i in slots])

    one = (ring.one,)
    h = all_ones_ring(ring, p)
    if family == "even-I":
        element = e_combined
    elif family == "odd-I":
        element = poly.sub(ring, one, e_combined)
    elif family == "even-II":
        element = poly.sub(ring, poly.sub(ring, one, h), e_combined)
    else:  # odd-II
        element = poly.add(ring, h, e_combined)

    comps = family_codes(system, ctx, family, alpha_exp)
    components = tuple(comps[i] for i in slots)
    generator = ring_poly_combine(ring, [c.generator for c in components])
    return RingCode(ring, system, family, slots, alpha_exp,
                    element, generator, components)


def ring_even_like_i(ring, system, slots, alpha_exp=1):
    return ring_code(ring, system, "even-I", slots, alpha_exp)


def ring_odd_like_i(code):
    """Odd-like class-I companion of an even-like class-I code."""
    return ring_code(code.ring, code.system, "odd-I", code.slots, code.alpha_exp)


def ring_even_like_ii(code):
    """Even-like class-II code with defining element D = 1 - h - E."""
    return ring_code(code.ring, code.system, "even-II", code.slots, code.alpha_exp)


def ring_odd_like_ii(code):
    """Odd-like class-II code with defining element D' = h + E."""
    return ring_code(code.ring, code.system, "odd-II", code.slots, code.alpha_exp)


def chain_step_poly(p, a, coeffs):
    """One multiplier step on coefficients: exponent a*i contributes to
    exponent i, the inverse of the exponent-set action.  This is the
    relocation that moves the code built on Q_r to the one built on
    Q_{r+j}."""
    return mu_poly(p, pow(a, -1, p), coeffs)


def ring_mu_chain(code, a=None):
    """The mu_a orbit of a ring code, starting at the code itself.

    Each step shifts every slot index by the class index j of a; the
    orbit has length m/gcd(j, m), which is m when mu_a cyclically
    permutes the classes (gcd(j, m) = 1).  Each returned code's
    idempotent equals the chain step applied to the previous one.
    """
    system = code.system
    if a is None:
        a = system.a
    if math.gcd(a, system.p) != 1:
        raise NotCoprime(f"multiplier {a} is not coprime to {system.p}")
    j = system.class_of(a)
    if math.gcd(j, system.m) != 1:
        raise MultiplierNotCyclic(
            f"multiplier {a} lies in Q_{j} and gcd({j}, {system.m}) != 1")
    length = system.m // math.gcd(j, system.m)
    orbit = [code]
    slots = code.slots
    for _ in range(length - 1):
        slots = tuple((i + j) % system.m for i in slots)
        nxt = ring_code(code.ring, system, code.family, slots, code.alpha_exp)
        moved = chain_step_poly(system.p, a, orbit[-1].idempotent)
        if poly.trim(code.ring, moved) != nxt.idempotent:
            raise AssertionError("mu step does not match the shifted slots")
        orbit.append(nxt)
    return orbit


def component_consistency(code):
    """Per slot: does the CRT component of the defining element generate
    the same ideal as the stored component generator?"""
    ring, p = code.ring, code.p
    ctx = ring.field
    xp1 = poly.xn_minus_1(ctx, p)
    out = []
    for k, comp_code in enumerate(code.components):
        elem = ring_poly_component(ring, code.idempotent, k)
        if not elem:
            out.append(len(comp_code.generator) - 1 == p)
            continue
        ideal_gen = poly.gcd(ctx, elem, xp1)
        out.append(poly.associates(ctx, ideal_gen, comp_code.generator))
    return tuple(out)
