"""The four families of m-adic residue codes over a prime field.

With alpha a fixed primitive p-th root of unity in the splitting field
and ghat_i = prod_{k in Q_i} (x - alpha^k), the families are

    even-like class I   <g_i>,      g_i = (x**p - 1) / ghat_i
    odd-like class I    <ghat_i>
    even-like class II  <h_i>,      h_i = (x - 1) * ghat_i
    odd-like class II   <hhat_i>,   hhat_i = g_i / (x - 1)

All four require q to be an m-adic residue mod p (q in Q_0); that is
exactly the condition for the class products to have coefficients in
F_q.  ghat_i is the product over F_q of the irreducible factors of
x**p - 1 for the q-cyclotomic cosets in Q_i, and each factor is the
minimal polynomial of alpha**min(C) over F_q, found by Berlekamp-Massey
on the constant digits of its powers, so no polynomial over GF(q^t) is
multiplied (MacWilliams & Sloane, ch. 4).  The even-I and odd-II
generators are complement products of the ghat_j, so none is divided.
Each code carries its generator, its idempotent generator (the
inverse DFT of its 0/1 spectrum, MacWilliams & Sloane, ch. 8) and its
nonzeros: the q-cyclotomic cosets C whose roots alpha^k, k in C, are
roots of its check polynomial (x**p - 1)/g, each named by its least
member.  With u*Q_i the cosets of class i, even-I has nonzeros u*Q_i,
odd-I all cosets but u*Q_i, even-II all but u*Q_i and {0}, and odd-II
u*Q_i and {0}.
With beta = alpha**u, the Gauss periods eta_r = sum_{k in Q_r} beta**k
lie in F_q (Storer, Cyclotomy and Difference Sets); gauss_periods
reads them off the coset factors once per (system, q, u).  With c(k)
the class of k the even-like class-I idempotent is

    e_i = p**-1 * ((p-1)/m + sum_{k=1}^{p-1} eta_{i+c(-k)} x**k);

odd-I takes 1 - e_i, even-II 1 - p**-1 h - e_i, odd-II p**-1 h + e_i.

All of these lie in the class algebra A: with q in Q_0, the
polynomials whose coefficients are constant on {0}, Q_0, ..., Q_{m-1},

    f = c_0 + sum_i c_i S_i,    S_i = sum_{k in Q_i} x**k,

form an (m+1)-dimensional subalgebra of F_q[x]/(x**p - 1).  With g_r
in Q_r, evaluation at the p-th roots of unity is the injective ring
homomorphism

    sigma(f) = (f(1), f(beta**g_0), ..., f(beta**g_{m-1}))
    f(1)           = c_0 + ((p-1)/m) sum_i c_i
    f(beta**g_r)   = c_0 + sum_i c_i eta_{i+r}

from A to F_q**(m+1) (MacWilliams & Sloane, ch. 8: the Mattson-Solomon
transform restricted to A), computed by spectrum.  So a product is a
pointwise product of spectra and a sum a pointwise sum; sigma(1) =
(1, ..., 1) and sigma(h) = (p mod q, 0, ..., 0).  sigma maps p**-1 h to
(1, 0, ..., 0) and e_r to the unit vector at beta**g_r, so p**-1 h,
e_0, ..., e_{m-1} is the basis of idempotents of A, and from_spectrum
inverts sigma by linearity,

    sigma**-1(v) = v_0 p**-1 h + sum_r v_{r+1} e_r,

so the inverse formula is written once, in e_i.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field

from . import poly
from .errors import NotCoprime, QNotResidue, TooLarge
from .ffield import FieldCtx, make_extension, make_prime_field

FAMILIES = ("even-I", "odd-I", "even-II", "odd-II")
# Most coefficients, m * p, that family_codes builds: a family holds m
# generators and m idempotents of up to p coefficients each, all kept
# for the life of the process by its cache.  (2, 8191, 630), about
# 5.2 M, still builds; (2, 131071, 7710), about 10**9, is refused.
FAMILY_COEFFS = 1 << 23


@dataclass(frozen=True)
class CyclicCode:
    """A cyclic code of prime length p over GF(q), with its generator
    polynomial (monic, ascending coefficients) and idempotent generator.

    nonzeros names the code's nonzero cyclotomic cosets by their least
    members (module docstring), relative to the alpha of
    splitting_field: (0,) for <h>, () for the zero code.  It takes no
    part in equality, since the generator determines it."""

    ctx: FieldCtx
    p: int
    family: str
    index: int
    generator: tuple
    idempotent: tuple
    nonzeros: tuple = field(compare=False)

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
def coset_factors(q, p):
    """The irreducible factors of x**p - 1 over GF(q), by exponent.

    With u_k the constant digit of alpha^k, u_0 .. u_{2t-1} give the
    minimal polynomial of alpha (_min_poly), whose recurrence extends u
    to every k < p.  The factor of a coset C is prod_{k in C}
    (x - alpha^k), the minimal polynomial of beta = alpha^min(C); it is
    that of the sequence u_{min(C) j mod p}, the constant digits of the
    beta^j, which starts at u_0 = 1.  Returns a tuple whose entry k is
    the factor of the coset holding k, so {0} maps to x - 1.
    """
    ext, alpha = splitting_field(q, p)
    ctx = make_prime_field(q)
    power, u = ext.one, []
    for _ in range(2 * ext.t):
        u.append(power % q)
        power = ext.mul(power, alpha)
    recurrence = [-c % q for c in _min_poly(q, u)[:-1]]
    for k in range(len(u), p):
        u.append(sum(map(operator.mul, recurrence, u[k - ext.t:k])) % q)
    factor_of = [None] * p
    factors = []
    for coset in poly.cyclotomic_cosets(q, p):
        g = coset[0]
        factor = _min_poly(q, [u[g * j % p] for j in range(2 * len(coset))])
        for k in coset:
            factor_of[k] = factor
        factors.append(factor)
    if product(ctx, factors) != poly.xn_minus_1(ctx, p):
        raise AssertionError("coset factors do not multiply to x**p - 1")
    return tuple(factor_of)


def _min_poly(q, seq):
    """The minimal polynomial over GF(q) of the linear recurring seq,
    monic and ascending, by Berlekamp-Massey (Massey 1969): exact when
    seq holds at least twice its degree terms."""
    conn = prev = [1] + [0] * len(seq)
    length, shift, prev_disc = 0, 1, 1
    for n, s in enumerate(seq):
        disc = (s + sum(map(operator.mul, conn[1:length + 1],
                            reversed(seq[n - length:n])))) % q
        if disc:
            coef = disc * pow(prev_disc, -1, q) % q
            old, conn = conn, conn[:shift] + [
                (c - coef * b) % q for c, b in zip(conn[shift:], prev)]
            if 2 * length <= n:
                length, prev, prev_disc, shift = n + 1 - length, old, disc, 0
        shift += 1
    return tuple(conn[length::-1])


def product(ctx, polys):
    """The product of nonzero polynomials over a prime field, by a
    pairwise tree of packed products (poly.mul)."""
    polys = list(polys) or [(ctx.one,)]
    while len(polys) > 1:
        pairs = [poly.mul(ctx, a, b)
                 for a, b in zip(polys[::2], polys[1::2])]
        polys = pairs + polys[2 * len(pairs):]
    return polys[0]


def _complements(ctx, polys, seed):
    """seed * prod_{j != i} polys[j] for each i, from the suffix
    products and a running prefix: O(len(polys)) products, no
    division."""
    mul = functools.partial(poly.mul, ctx)
    suffix = list(itertools.accumulate(polys[:0:-1], mul, initial=(ctx.one,)))
    prefix = itertools.accumulate(polys, mul, initial=seed)
    return [mul(a, b) for a, b in zip(reversed(suffix), prefix)]


@functools.lru_cache(maxsize=None)
def coset_leaders(q, p):
    """The least member of the q-cyclotomic coset mod p of each k < p."""
    leader = [0] * p
    for coset in poly.cyclotomic_cosets(q, p):
        for k in coset:
            leader[k] = coset[0]
    return tuple(leader)


def _other_cosets(q, p, cosets):
    """The leaders of the q-cyclotomic cosets mod p not in cosets,
    ascending."""
    own = set(cosets)
    return tuple(r for r in dict.fromkeys(coset_leaders(q, p))
                 if r not in own)


def check_factors(code, dual=False):
    """The coset factors of the check polynomial of code, or of its dual
    when dual, one per nonzero coset.  The dual's nonzeros are the
    negated zeros of code, so no polynomial is divided."""
    q, p = code.q, code.p
    nonzeros = code.nonzeros
    if dual:
        leader = coset_leaders(q, p)
        nonzeros = [leader[-r % p] for r in _other_cosets(q, p, nonzeros)]
    factor_of = coset_factors(q, p)
    return [factor_of[r] for r in nonzeros]


def dual_generator(code):
    """Generator of the dual of code: the monic reciprocal of the check
    polynomial (x**p - 1)/g.  Its roots are the inverses alpha^-k of the
    check polynomial's, so it is the product of the coset factors of the
    negated nonzeros, and no polynomial is divided."""
    p = code.p
    factor_of = coset_factors(code.q, p)
    return product(code.ctx, [factor_of[-r % p] for r in code.nonzeros])


@functools.lru_cache(maxsize=None)
def _class_cosets(system, q, alpha_exp):
    """The q-cyclotomic cosets of u*Q_i for each class i, by least
    member, ascending: the one check of a labeling, read by the class
    products and the Gauss periods.

    q must be coprime to p and an m-adic residue (QNotResidue
    otherwise), and u = alpha_exp coprime to p (NotCoprime).  Then q
    lies in Q_0, so u*Q_i is a union of q-cyclotomic cosets.
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
    leader = coset_leaders(q, p)
    return tuple(tuple(sorted({leader[alpha_exp * k % p] for k in cls}))
                 for cls in system.classes)


@functools.lru_cache(maxsize=None)
def _class_products(system, q, alpha_exp):
    """ghat_i = prod_{k in Q_i} (x - alpha^(u*k)) over F_q.

    alpha_exp = u selects which primitive p-th root anchors the
    class-to-factor labeling.  Labelings for different u differ by a
    rotation of the class index.  ghat_i is the product of the coset
    factors of u*Q_i (_class_cosets, which checks q and u).
    """
    factor_of = coset_factors(q, system.p)
    ctx = make_prime_field(q)
    return tuple(product(ctx, [factor_of[r] for r in cosets])
                 for cosets in _class_cosets(system, q, alpha_exp))


@functools.lru_cache(maxsize=None)
def gauss_periods(system, q, alpha_exp):
    """The Gauss periods (eta_0, ..., eta_{m-1}) of the module docstring,
    eta_r = sum_{k in Q_r} beta**k with beta = alpha**alpha_exp, as ints
    of F_q: the one source of the periods for the idempotents and the
    spectra.

    u*Q_r is a union of q-cyclotomic cosets (_class_cosets, which checks
    q and u as the class products do); the roots of a coset factor f of
    degree d sum to minus its x**(d-1) coefficient, so eta_r is the sum
    of -f[-2] over the coset factors of u*Q_r.  Checks that
    sum_r eta_r = -1 (the sum of all nontrivial p-th roots of unity).
    """
    factor_of = coset_factors(q, system.p)
    etas = tuple(-sum(factor_of[r][-2] for r in cosets) % q
                 for cosets in _class_cosets(system, q, alpha_exp))
    if sum(etas) % q != q - 1:
        raise AssertionError("the Gauss periods do not sum to -1")
    return etas


@functools.lru_cache(maxsize=None)
def _class_idempotents(system, q, alpha_exp):
    """The even-like class-I idempotents e_i of the module docstring.

    Row i reads the scaled periods rotated by i at the class of -k, so
    no class index is reduced per coefficient, and every coefficient is
    already reduced, so a row only drops its trailing zeros.  The
    periods summing to -1 makes sum_i e_i = 1 - p**-1 h
    coefficientwise; the build checks that e_0 * e_0 = e_0.
    """
    p, m = system.p, system.m
    p_inv = pow(p, -1, q)
    scaled = [p_inv * eta % q for eta in gauss_periods(system, q, alpha_exp)]
    head = [p_inv * ((p - 1) // m) % q]
    class_of_neg = [system.class_of(-k) for k in range(1, p)]
    ctx = make_prime_field(q)
    idems = []
    for i in range(m):
        rot = scaled[i:] + scaled[:i]
        row = head + list(map(rot.__getitem__, class_of_neg))
        while row and not row[-1]:
            row.pop()
        idems.append(tuple(row))
    if poly.mul_mod(ctx, idems[0], idems[0], p) != idems[0]:
        raise AssertionError("e_0 * e_0 != e_0")
    return tuple(idems)


@functools.lru_cache(maxsize=None)
def spectrum(system, q, u, elem):
    """sigma(elem) of the module docstring, (elem(1), elem(beta**g_0),
    ..., elem(beta**g_{m-1})) as ints of F_q, cached per element.

    Reads elem's own coefficients and raises AssertionError when they
    are not constant on each class Q_i, since sigma is injective only
    on the class algebra.
    """
    p, m = system.p, system.m
    coeffs = elem + (0,) * (p - len(elem))
    cs = []
    for cls in system.classes:
        row = [coeffs[k] for k in cls]
        if row.count(row[0]) != len(row):
            raise AssertionError("element is not constant on the classes")
        cs.append(row[0])
    etas = gauss_periods(system, q, u)
    c0 = coeffs[0]
    values = [c0 + (p - 1) // m * sum(cs)]
    for r in range(m):
        rot = etas[r:] + etas[:r]
        values.append(c0 + sum(c * eta for c, eta in zip(cs, rot)))
    return tuple(v % q for v in values)


def from_spectrum(system, q, u, spec):
    """The class-constant polynomial f with sigma(f) = spec: the inverse
    of spectrum, spec[0] p**-1 h + sum_r spec[r+1] e_r, on the
    idempotents e_r of _class_idempotents."""
    coeffs = [spec[0] * pow(system.p, -1, q)] * system.p
    for v, e in zip(spec[1:], _class_idempotents(system, q, u)):
        coeffs[:len(e)] = [c + v * x for c, x in zip(coeffs, e)]
    return poly.trim(make_prime_field(q), coeffs)


@functools.lru_cache(maxsize=None)
def family_codes(system, ctx, family, alpha_exp=1):
    """All m codes of one family, cached per (system, ctx, labeling).

    Each generator comes from the class products ghat_j and each
    idempotent from e_i, as in the module docstring; even-I and odd-II
    take the complements of the ghat_j seeded with x - 1 and with 1.
    A family of more than FAMILY_COEFFS coefficients, m * p, is refused
    with TooLarge before any is built.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    p, m = system.p, system.m
    if m * p > FAMILY_COEFFS:
        raise TooLarge(
            f"a family of {m} codes of length {p} holds {m * p} "
            f"coefficients, past the cap {FAMILY_COEFFS}")
    cosets = _class_cosets(system, ctx.q, alpha_exp)
    ghats = _class_products(system, ctx.q, alpha_exp)
    idems = _class_idempotents(system, ctx.q, alpha_exp)
    x_minus_1 = (ctx.neg(ctx.one), ctx.one)
    one = (ctx.one,)
    h_idem = poly.scale(ctx, pow(p, -1, ctx.q), all_ones_h(p))
    one_minus_h = poly.sub(ctx, one, h_idem)
    if family in ("even-I", "odd-II"):
        comps = _complements(
            ctx, ghats, x_minus_1 if family == "even-I" else one)
    codes = []
    for i, (ghat, e_i, own) in enumerate(zip(ghats, idems, cosets)):
        if family == "even-I":
            g, e, nonzeros = comps[i], e_i, own
        elif family == "odd-I":
            g, e = ghat, poly.sub(ctx, one, e_i)
            nonzeros = _other_cosets(ctx.q, p, own)
        elif family == "even-II":
            g = poly.mul(ctx, x_minus_1, ghat)
            e = poly.sub(ctx, one_minus_h, e_i)
            nonzeros = _other_cosets(ctx.q, p, (0,) + own)
        else:  # odd-II
            g, e, nonzeros = comps[i], poly.add(ctx, h_idem, e_i), (0,) + own
        codes.append(CyclicCode(ctx, p, family, i, g, e, nonzeros))
    return tuple(codes)
