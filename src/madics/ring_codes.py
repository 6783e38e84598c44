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
zero-padded to the widest component), are output formats: a RingCode
builds each from its components the first time it is read, for
display and export.  Construction, chains, consistency checks and the
identity suite never build them.

Each code is built once.  ring_code returns one shared RingCode per
(ring, system, family, slots, alpha_exp mod p), so chains, the
identity suite, component_consistency, verify-paper and the CLI all
reuse one instance, and its v-basis forms are combined at most once
per process.  A defining element is cached per class index, (system,
field, family, alpha_exp, i), and built only for the indices a slot
names; chain_step_poly is cached per (p, a, coeffs).  The ideal an
element generates in F_q[x]/(x**p - 1) is the monic gcd(e, x**p - 1),
cached per (field, p, element) by ideal_generator: a mu_a orbit
permutes the same component elements, so component_consistency (and
verify-paper's idempotent-ideal check) solves each element once.  No
cache holds a verdict: ring_mu_chain still compares every step.

The multiplier mu_a sends the exponent set Q_r to Q_{r+j}, with j the
class index of a.  On polynomial coefficients the chain therefore
steps with the inverse relocation (the coefficient at exponent a*i
moves to exponent i): that is what carries the code built on Q_r to
the code built on Q_{r+j}, keeping the slot walk aligned with the
class walk.  The orbit closes after m/gcd(j, m) steps, which is m for
the required gcd(j, m) = 1.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

from . import poly
from .errors import BadSlotIndex, MultiplierNotCyclic, NotCoprime
from .field_codes import FAMILIES, all_ones_h, family_codes
from .residues import ResidueSystem, mu_poly
from .ringalg import RingCtx, ring_poly_combine


@dataclass(frozen=True)
class RingCode:
    """A code over R: its s component defining elements over F_q and
    its s field component codes, with the v-basis defining element and
    generator combined from them on first read.  ring_code returns one
    shared instance per code, so the v-basis forms are combined at most
    once per process.

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
    components: tuple

    @functools.cached_property
    def idempotent(self):
        return ring_poly_combine(self.ring, self.elements)

    @functools.cached_property
    def generator(self):
        return ring_poly_combine(self.ring,
                                 [c.generator for c in self.components])

    @property
    def p(self):
        return self.system.p

    @property
    def component_ranks(self):
        return tuple(c.dimension for c in self.components)


def ring_code(ring, system, family, slots, alpha_exp=1):
    """The ring code family member for a slot assignment: one shared
    RingCode per code.

    The arguments are checked first, so a refused call raises every
    time and nothing is cached for it.  Slots are then normalised to
    ints and alpha_exp is reduced mod p, so equal codes share one
    instance whatever form the caller passed, and the code stores the
    normalised values.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    slots = tuple(map(operator.index, slots))
    if len(slots) != ring.s:
        raise BadSlotIndex(
            f"slot assignment needs exactly s={ring.s} entries, got {len(slots)}")
    if any(i < 0 or i >= system.m for i in slots):
        raise BadSlotIndex(f"slot indices must lie in [0, {system.m})")
    return _shared_ring_code(ring, system, family, slots,
                             operator.index(alpha_exp) % system.p)


@functools.lru_cache(maxsize=None)
def _shared_ring_code(ring, system, family, slots, alpha_exp):
    ctx = ring.field
    comps = family_codes(system, ctx, family, alpha_exp)
    return RingCode(ring, system, family, slots, alpha_exp,
                    tuple(_defining_element(system, ctx, family, alpha_exp, i)
                          for i in slots),
                    tuple(comps[i] for i in slots))


@functools.lru_cache(maxsize=None)
def _defining_element(system, ctx, family, alpha_exp, i):
    """The family's defining element for class index i, from the field
    even-like class-I idempotent e_i (see the module docstring)."""
    e = family_codes(system, ctx, "even-I", alpha_exp)[i].idempotent
    if family == "even-I":
        return e
    one, h = (ctx.one,), all_ones_h(system.p)
    if family == "odd-I":
        return poly.sub(ctx, one, e)
    if family == "even-II":
        return poly.sub(ctx, poly.sub(ctx, one, h), e)
    return poly.add(ctx, h, e)  # odd-II


@functools.lru_cache(maxsize=None)
def chain_step_poly(p, a, coeffs):
    """One multiplier step on an F_q polynomial: exponent a*i moves to
    exponent i, the inverse of the exponent-set action.  This is the
    relocation that moves the code built on Q_r to the one built on
    Q_{r+j}.  Cached per (p, a, coeffs), like ideal_generator."""
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
        nxt = _shared_ring_code(code.ring, system, code.family, slots,
                                code.alpha_exp)
        moved = tuple(chain_step_poly(system.p, a, e)
                      for e in orbit[-1].elements)
        if moved != nxt.elements:
            raise AssertionError("mu step does not match the shifted slots")
        orbit.append(nxt)
    return orbit


@functools.lru_cache(maxsize=None)
def ideal_generator(ctx, p, elem):
    """The monic generator gcd(elem, x**p - 1) of the ideal that elem
    generates in F_q[x]/(x**p - 1), cached per (ctx, p, elem): a mu_a
    orbit permutes the same component elements, so each is solved once.
    The zero element gives x**p - 1."""
    return poly.gcd(ctx, elem, poly.xn_minus_1(ctx, p))


def component_consistency(code):
    """Per slot: does the component defining element generate the same
    ideal as the stored component generator?  Both ideal_generator and
    every CyclicCode generator are canonical monic, so the ideals agree
    exactly when the two tuples are equal."""
    ctx, p = code.ring.field, code.p
    return tuple(ideal_generator(ctx, p, elem) == comp_code.generator
                 for elem, comp_code in zip(code.elements, code.components))
