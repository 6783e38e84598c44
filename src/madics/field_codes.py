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
the inverse DFT of its 0/1 spectrum (MacWilliams & Sloane, ch. 8).
With beta = alpha**u, the Gauss periods eta_r = sum_{k in Q_r} beta**k
lie in F_q, and with c(k) the class of k the even-like class-I one is

    e_i = p**-1 * ((p-1)/m + sum_{k=1}^{p-1} eta_{i+c(-k)} x**k);

odd-I takes 1 - e_i, even-II 1 - p**-1 h - e_i, odd-II p**-1 h + e_i.
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


def all_ones_h(p):
    """h = 1 + x + ... + x**(p-1), the all-ones polynomial."""
    return (1,) * p


@functools.lru_cache(maxsize=None)
def splitting_field(q, p):
    """The pinned splitting field of x**p - 1 over GF(q) and the
    canonical primitive p-th root of unity alpha in it: (ext, alpha)."""
    t = make_prime_field(p).multiplicative_order(q % p)
    ext = make_extension(q, t)
    alpha = ext.pow(ext.primitive_element, (ext.size - 1) // p)
    return ext, alpha


@functools.lru_cache(maxsize=None)
def _root_powers(q, p):
    """(ext, alpha**0, ..., alpha**(p-1)) of the splitting field: the one
    table of powers behind the coset factors and the Gauss periods."""
    ext, alpha = splitting_field(q, p)
    roots = [ext.one]
    for _ in range(p - 1):
        roots.append(ext.mul(roots[-1], alpha))
    return ext, tuple(roots)


@functools.lru_cache(maxsize=None)
def coset_factors(q, p):
    """The irreducible factors of x**p - 1 over GF(q), by exponent.

    Each q-cyclotomic coset C mod p gives the factor
    prod_{k in C} (x - alpha^k), built once in the splitting field and
    descended to F_q ints.  Returns a tuple whose entry k is the factor
    of the coset holding k, so the coset {0} maps to x - 1 and the
    members of one coset share one tuple.
    """
    ext, roots = _root_powers(q, p)
    ctx = make_prime_field(q)
    factor_of = [None] * p
    factors = []
    for coset in poly.cyclotomic_cosets(q, p):
        prod = (ext.one,)
        for k in coset:
            prod = poly.mul(ext, prod, (ext.neg(roots[k]), ext.one))
        if any(c >= q for c in prod):
            raise AssertionError("coset product did not descend to F_q")
        factor = tuple(int(c) for c in prod)
        for k in coset:
            factor_of[k] = factor
        factors.append(factor)
    if _product(ctx, factors) != poly.xn_minus_1(ctx, p):
        raise AssertionError("coset factors do not multiply to x**p - 1")
    return tuple(factor_of)


def _product(ctx, polys):
    """The product of nonzero polynomials over a prime field, by a
    pairwise tree of packed products: a*b has len(a) + len(b) - 1
    coefficients, so mul_mod with that n folds nothing."""
    polys = list(polys) or [(ctx.one,)]
    while len(polys) > 1:
        pairs = [poly.mul_mod(ctx, a, b, len(a) + len(b) - 1)
                 for a, b in zip(polys[::2], polys[1::2])]
        polys = pairs + polys[2 * len(pairs):]
    return polys[0]


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
    return tuple(
        _product(ctx, dict.fromkeys(factor_of[alpha_exp * k % p] for k in cls))
        for cls in system.classes)


@functools.lru_cache(maxsize=None)
def _class_idempotents(system, q, alpha_exp):
    """The even-like class-I idempotents e_i of the module docstring.

    Checks that each eta_r lies in F_q, that sum_i e_i = 1 - p**-1 h
    (coefficientwise, sum_r eta_r = -1) and that e_0 * e_0 = e_0.
    """
    p, m = system.p, system.m
    ext, roots = _root_powers(q, p)
    u = alpha_exp % p
    etas = [functools.reduce(ext.add, (roots[u * k % p] for k in cls))
            for cls in system.classes]
    if any(eta >= q for eta in etas):
        raise AssertionError("a Gauss period did not descend to F_q")
    if sum(etas) % q != q - 1:
        raise AssertionError("idempotents do not sum to 1 - p^-1 h")
    p_inv = pow(p, -1, q)
    scaled = [p_inv * eta % q for eta in etas]
    head = [p_inv * ((p - 1) // m) % q]
    class_of_neg = [system.class_of(-k) for k in range(1, p)]
    ctx = make_prime_field(q)
    idems = tuple(poly.trim(ctx, head + [scaled[(i + c) % m]
                                         for c in class_of_neg])
                  for i in range(m))
    if poly.mul_mod(ctx, idems[0], idems[0], p) != idems[0]:
        raise AssertionError("e_0 * e_0 != e_0")
    return idems


@functools.lru_cache(maxsize=None)
def family_codes(system, ctx, family, alpha_exp=1):
    """All m codes of one family, cached per (system, ctx, labeling).

    Each generator comes from the class product ghat_i and each
    idempotent from e_i, as in the module docstring; x - 1 divides
    every even-like class-I generator, so the odd-like class-II
    division is exact.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    p = system.p
    ghats = _class_products(system, ctx.q, alpha_exp)
    idems = _class_idempotents(system, ctx.q, alpha_exp)
    xp1 = poly.xn_minus_1(ctx, p)
    x_minus_1 = (ctx.neg(ctx.one), ctx.one)
    one = (ctx.one,)
    h_idem = poly.scale(ctx, pow(p, -1, ctx.q), all_ones_h(p))
    one_minus_h = poly.sub(ctx, one, h_idem)
    codes = []
    for i, (ghat, e_i) in enumerate(zip(ghats, idems)):
        if family == "even-I":
            g, e = poly.div_exact(ctx, xp1, ghat), e_i
        elif family == "odd-I":
            g, e = ghat, poly.sub(ctx, one, e_i)
        elif family == "even-II":
            g = poly.mul(ctx, x_minus_1, ghat)
            e = poly.sub(ctx, one_minus_h, e_i)
        else:  # odd-II
            g = poly.div_exact(ctx, poly.div_exact(ctx, xp1, ghat), x_minus_1)
            e = poly.add(ctx, h_idem, e_i)
        codes.append(CyclicCode(ctx, p, family, i, g, e))
    return tuple(codes)
