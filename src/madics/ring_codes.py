"""m-adic residue codes over R = F_q[v]/(v**s - v).

A ring code is built from a slot assignment (i_0, ..., i_{s-1}) of
class indices under a labeling u = alpha_exp.  Through the CRT it
splits into s independent field codes, family_codes(system, F_q,
family, u)[i_k] on slot k, and the ring layer works on those
components only: slot k carries the F_q defining element

    even-like class I   e_{i_k}
    odd-like class I    1 - e_{i_k}
    even-like class II  1 - h - e_{i_k}
    odd-like class II   h + e_{i_k}

with e_i the even-like class-I idempotent of the component's class
and h the all-ones polynomial.  Every one of these elements lies in
the class algebra A of field_codes, so a ring code holds each by its
spectrum sigma relative to alpha (the field_codes module docstring),
one (m+1)-tuple per slot, and the ring layer runs no polynomial
arithmetic: construction, chains and consistency checks read and
compare spectra, and so does the identity suite.

The v-basis forms over R, the defining element

    E = eta_0 * (slot-0 element) + ... + eta_{s-1} * (slot-(s-1) element)

and the generator (component generators combined the same way,
zero-padded to the widest component), are output formats: a RingCode
inverts its spectra and combines the components the first time a form
is read, for display and export.

Each code is built once.  ring_code returns one shared RingCode per
(ring, system, family, slots, alpha_exp mod p), so chains, the
identity suite, component_consistency, verify-paper and the CLI all
reuse one instance, and its v-basis forms are built at most once per
process.  A slot's spectrum is its component code's cached spectrum,
or that tuple with one entry changed for class II, and from_spectrum
inverts each distinct spectrum once, so all the ring codes of a family
share at most m inversions.  No cache holds a verdict: ring_mu_chain
still compares every step.

The multiplier mu_a sends the exponent set Q_r to Q_{r+j}, with j the
class index of a.  On polynomial coefficients the chain therefore
steps with the inverse relocation (the coefficient at exponent a*i
moves to exponent i): that is what carries the code built on Q_r to
the code built on Q_{r+j}, keeping the slot walk aligned with the
class walk.  On a spectrum that step keeps the value at 1 and takes
the value at alpha**g_r from alpha**g_{r-j} (chain_source), in the
caller's labels and relative to alpha alike, as a labeling shifts
every class by c(u).  The orbit closes after m/gcd(j, m) steps, which
is m for the required gcd(j, m) = 1.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

from .errors import BadSlotIndex, InternalCheckFailed
from .field_codes import family_codes, from_spectrum
from .residues import ResidueSystem
from .ringalg import RingCtx, ring_poly_combine


@dataclass(frozen=True)
class RingCode:
    """A code over R: the spectra of its s component defining elements
    and its s field component codes, with the v-basis defining element
    and generator built from them on first read.  ring_code returns one
    shared instance per code, so the v-basis forms are built at most
    once per process.  ``slots`` and ``alpha_exp`` are the caller's
    labels; the components and spectra are relative to alpha.

    ``spectra[k]`` is sigma of the family's defining element on slot k
    (e, 1-e, 1-h-e or h+e) and ``idempotent`` is the CRT combination of
    their inverses (from_spectrum, cached per spectrum).  For class-II
    codes this element is a true idempotent exactly when p = 1 mod q;
    the verification suite checks and reports this rather than hiding
    it.
    """

    ring: RingCtx
    system: ResidueSystem
    family: str
    slots: tuple
    alpha_exp: int
    spectra: tuple
    components: tuple

    @functools.cached_property
    def idempotent(self):
        return ring_poly_combine(self.ring, [
            from_spectrum(self.system, self.ring.q, spec)
            for spec in self.spectra])

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

    The slots are checked here and the family by family_codes; a
    refused call raises every time and caches nothing, since a cache
    stores no exception.  Slots are normalised to ints and alpha_exp is
    reduced mod p, so equal codes share one instance whatever form the
    caller passed, and the code stores the normalised values.
    """
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
    comps = tuple(family_codes(system, ring.field, family, alpha_exp)[i]
                  for i in slots)
    return RingCode(ring, system, family, slots, alpha_exp,
                    tuple(map(_defining_spectrum, comps)), comps)


def _defining_spectrum(comp):
    """sigma of the defining element on a slot with component code comp:
    comp's 0/1 spectrum, except at x = 1 for class II, where 1 - h - e_i
    and h + e_i take 1 - p and p, as sigma(h) = (p, 0, ..., 0).  The
    true idempotents, comp.idempotent, take 0 and 1 there; the two agree
    exactly when p = 1 mod q (the class-II defect in ROADMAP.md)."""
    spec = comp.spectrum
    if comp.family.endswith("II"):
        p, q = comp.p, comp.q
        return ((1 - p if comp.family == "even-II" else p) % q,) + spec[1:]
    return spec


@functools.lru_cache(maxsize=None)
def chain_source(m, j):
    """Where each value of a chain-stepped spectrum comes from, for a
    multiplier in Q_j: the value at 1 stays, and the value at alpha**g_r
    is the one at alpha**g_{r-j} (module docstring)."""
    return (0,) + tuple(1 + (r - j) % m for r in range(m))


def ring_mu_chain(code, a=None):
    """The mu_a orbit of a ring code, starting at the code itself.

    Each step shifts every slot index by the class index j of a; the
    orbit has length m, since gcd(j, m) = 1 is checked, so mu_a
    cyclically permutes the classes.  On every component, each
    returned code's defining spectrum equals the chain step applied to
    the previous one.
    """
    system = code.system
    j = system.multiplier_class(system.a if a is None else a)
    step = operator.itemgetter(*chain_source(system.m, j))
    orbit = [code]
    slots = code.slots
    for _ in range(system.m - 1):
        slots = tuple((i + j) % system.m for i in slots)
        nxt = _shared_ring_code(code.ring, system, code.family, slots,
                                code.alpha_exp)
        if tuple(map(step, orbit[-1].spectra)) != nxt.spectra:
            raise InternalCheckFailed(
                "mu step does not match the shifted slots")
        orbit.append(nxt)
    return orbit


def component_consistency(code):
    """Per slot: does the component defining element generate the same
    ideal as the stored component code?  An element f of A generates
    the ideal whose nonzeros are the roots where f is nonzero, which
    its spectrum lists, so f and the code's 0/1 spectrum must vanish at
    the same entries; the common case, f the code's idempotent, is one
    tuple compare."""
    return tuple(spec == comp.spectrum
                 or list(map(bool, spec)) == list(comp.spectrum)
                 for spec, comp in zip(code.spectra, code.components))
