"""The four families of m-adic residue codes over a prime field.

With alpha a fixed primitive p-th root of unity in the splitting field
and ghat_i = prod_{k in Q_i} (x - alpha^k), the families are

    even-like class I   <g_i>,      g_i = (x**p - 1) / ghat_i
    odd-like class I    <ghat_i>
    even-like class II  <h_i>,      h_i = (x - 1) * ghat_i
    odd-like class II   <hhat_i>,   hhat_i = g_i / (x - 1)

All four require q to be an m-adic residue mod p (q in Q_0); that is
exactly the condition for the class products to have coefficients in
F_q.  Each code carries its generator and its idempotent generator,
always derived from the generator through the same Bezout mechanism.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import poly
from .errors import NotCoprime, QNotResidue
from .ffield import FieldCtx, make_extension, make_prime_field

FAMILIES = ("even-I", "odd-I", "even-II", "odd-II")


@dataclass(frozen=True)
class CyclicCode:
    """A cyclic code of prime length p over GF(q), with its generator
    polynomial (monic, ascending coefficients) and idempotent generator."""

    ctx: FieldCtx
    p: int
    family: str
    index: int
    generator: tuple
    idempotent: tuple

    @property
    def q(self):
        return self.ctx.q

    @property
    def dimension(self):
        return self.p - (len(self.generator) - 1)

    def contains(self, word):
        """Membership test: the word polynomial must be a multiple of
        the generator mod x**p - 1."""
        w = poly.mod_xn_minus_1(self.ctx, tuple(word), self.p)
        return poly.divides(self.ctx, self.generator, w)


def all_ones_h(p):
    """h = 1 + x + ... + x**(p-1), the all-ones polynomial."""
    return (1,) * p


@functools.lru_cache(maxsize=None)
def _pth_root_setup(q, p):
    """Splitting field of x**p - 1 over GF(q) and the canonical
    primitive p-th root of unity alpha in it."""
    t = make_prime_field(p).multiplicative_order(q % p)
    ext = make_extension(q, t)
    alpha = ext.pow(ext.primitive_element, (ext.size - 1) // p)
    return ext, alpha


def splitting_field(q, p):
    """Public view of the pinned splitting field: (extension ctx, alpha)."""
    return _pth_root_setup(q, p)


@functools.lru_cache(maxsize=None)
def coset_factors(q, p):
    """The irreducible factors of x**p - 1 over GF(q), by exponent.

    Each q-cyclotomic coset C mod p gives the factor
    prod_{k in C} (x - alpha^k), built once in the splitting field and
    descended to F_q ints.  Returns a tuple whose entry k is the factor
    of the coset holding k, so the coset {0} maps to x - 1 and the
    members of one coset share one tuple.
    """
    ext, alpha = _pth_root_setup(q, p)
    roots = [ext.one]
    for _ in range(p - 1):
        roots.append(ext.mul(roots[-1], alpha))
    ctx = make_prime_field(q)
    factor_of = [None] * p
    check = (ctx.one,)
    for coset in poly.cyclotomic_cosets(q, p):
        prod = (ext.one,)
        for k in coset:
            prod = poly.mul(ext, prod, (ext.neg(roots[k]), ext.one))
        if any(c >= q for c in prod):
            raise AssertionError("coset product did not descend to F_q")
        factor = tuple(int(c) for c in prod)
        for k in coset:
            factor_of[k] = factor
        check = poly.mul(ctx, check, factor)
    if check != poly.xn_minus_1(ctx, p):
        raise AssertionError("coset factors do not multiply to x**p - 1")
    return tuple(factor_of)


@functools.lru_cache(maxsize=None)
def _class_products(system, q, alpha_exp):
    """ghat_i = prod_{k in Q_i} (x - alpha^(u*k)) over F_q.

    alpha_exp = u selects which primitive p-th root anchors the
    class-to-factor labeling; u must be coprime to p.  Labelings for
    different u differ by a rotation of the class index.  Since q lies
    in Q_0, u*Q_i is a union of q-cyclotomic cosets, and ghat_i is the
    product of their coset factors.
    """
    p = system.p
    if q % p == 0:
        raise NotCoprime("q must be coprime to the code length")
    if not system.is_madic_residue(q):
        raise QNotResidue(
            f"q={q} is not an m-adic residue mod {p}; "
            "class products do not descend to the base field")
    if alpha_exp % p == 0:
        raise NotCoprime("alpha_exp must be coprime to p")
    factor_of = coset_factors(q, p)
    ctx = make_prime_field(q)
    ghats = []
    for cls in system.classes:
        prod = (ctx.one,)
        for factor in dict.fromkeys(factor_of[alpha_exp * k % p] for k in cls):
            prod = poly.mul(ctx, prod, factor)
        ghats.append(prod)
    return tuple(ghats)


@functools.lru_cache(maxsize=None)
def family_codes(system, ctx, family, alpha_exp=1):
    """All m codes of one family, cached per (system, ctx, labeling).

    Each generator comes from the class product ghat_i as in the table
    above; x - 1 divides every even-like class-I generator, so the
    odd-like class-II division is exact.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    p = system.p
    xp1 = poly.xn_minus_1(ctx, p)
    x_minus_1 = (ctx.neg(ctx.one), ctx.one)
    codes = []
    for i, ghat in enumerate(_class_products(system, ctx.q, alpha_exp)):
        if family == "even-I":
            g = poly.div_exact(ctx, xp1, ghat)
        elif family == "odd-I":
            g = ghat
        elif family == "even-II":
            g = poly.mul(ctx, x_minus_1, ghat)
        else:  # odd-II
            g = poly.div_exact(ctx, poly.div_exact(ctx, xp1, ghat), x_minus_1)
        e = poly.idempotent_of_cyclic(ctx, g, p)
        codes.append(CyclicCode(ctx, p, family, i, g, e))
    return tuple(codes)
