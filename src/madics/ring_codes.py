"""m-adic residue codes over R = F_q[v]/(v**s - v).

A ring code is built from a slot assignment (i_0, ..., i_{s-1}) of
class indices.  Through the CRT it splits into s independent field
codes, one per slot, and the ring layer works on those components
only: slot k carries the F_q defining element

    even-like class I   e_{i_k}
    odd-like class I    1 - e_{i_k}
    even-like class II  1 - h - e_{i_k}
    odd-like class II   h + e_{i_k}

with e_i the field even-like class-I idempotents and h the all-ones
polynomial, and the component code of the same family.  The v-basis
forms over R, the defining element

    E = eta_0 * (slot-0 element) + ... + eta_{s-1} * (slot-(s-1) element)

and the generator (component generators combined the same way,
zero-padded to the widest component), are built once from the
components, for storage, display and export.

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
from .field_codes import FAMILIES, all_ones_h, family_codes
from .residues import ResidueSystem, mu_poly
from .ringalg import RingCtx, ring_poly_combine


@dataclass(frozen=True)
class RingCode:
    """A code over R: its s component defining elements over F_q, the
    v-basis defining element and generator combined from them, and the
    s field component codes.

    ``elements[k]`` is the family's defining element on slot k (e, 1-e,
    1-h-e or h+e) and ``idempotent`` is their CRT combination.  For
    class-II codes this element is a true idempotent exactly when
    p = 1 mod q; the verification suite checks and reports this rather
    than hiding it.
    """

    ring: RingCtx
    system: ResidueSystem
    family: str
    slots: tuple
    alpha_exp: int
    elements: tuple
    idempotent: tuple
    generator: tuple
    components: tuple

    @property
    def p(self):
        return self.system.p

    @property
    def component_ranks(self):
        return tuple(c.dimension for c in self.components)


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
    evens = family_codes(system, ctx, "even-I", alpha_exp)
    one = (ctx.one,)
    h = all_ones_h(system.p)
    elements = []
    for i in slots:
        e = evens[i].idempotent
        if family == "even-I":
            elements.append(e)
        elif family == "odd-I":
            elements.append(poly.sub(ctx, one, e))
        elif family == "even-II":
            elements.append(poly.sub(ctx, poly.sub(ctx, one, h), e))
        else:  # odd-II
            elements.append(poly.add(ctx, h, e))

    comps = family_codes(system, ctx, family, alpha_exp)
    components = tuple(comps[i] for i in slots)
    return RingCode(ring, system, family, slots, alpha_exp, tuple(elements),
                    ring_poly_combine(ring, elements),
                    ring_poly_combine(ring, [c.generator for c in components]),
                    components)


def chain_step_poly(p, a, coeffs):
    """One multiplier step on an F_q polynomial: exponent a*i moves to
    exponent i, the inverse of the exponent-set action.  This is the
    relocation that moves the code built on Q_r to the one built on
    Q_{r+j}."""
    return mu_poly(p, pow(a, -1, p), coeffs)


def ring_mu_chain(code, a=None):
    """The mu_a orbit of a ring code, starting at the code itself.

    Each step shifts every slot index by the class index j of a; the
    orbit has length m/gcd(j, m), which is m when mu_a cyclically
    permutes the classes (gcd(j, m) = 1).  On every component, each
    returned code's defining element equals the chain step applied to
    the previous one.
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
        moved = tuple(chain_step_poly(system.p, a, e)
                      for e in orbit[-1].elements)
        if moved != nxt.elements:
            raise AssertionError("mu step does not match the shifted slots")
        orbit.append(nxt)
    return orbit


def component_consistency(code):
    """Per slot: does the component defining element generate the same
    ideal as the stored component generator?"""
    p = code.p
    ctx = code.ring.field
    xp1 = poly.xn_minus_1(ctx, p)
    out = []
    for elem, comp_code in zip(code.elements, code.components):
        if not elem:
            out.append(len(comp_code.generator) - 1 == p)
            continue
        ideal_gen = poly.gcd(ctx, elem, xp1)
        out.append(poly.associates(ctx, ideal_gen, comp_code.generator))
    return tuple(out)
