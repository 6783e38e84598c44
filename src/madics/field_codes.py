"""The four families of m-adic residue codes over a prime field.

With alpha a fixed primitive p-th root of unity in the splitting field
and ghat_i = prod_{k in Q_i} (x - alpha^k), the families are

    even-like class I   <g_i>,      g_i = (x**p - 1) / ghat_i
    odd-like class I    <ghat_i>
    even-like class II  <h_i>,      h_i = (x - 1) * ghat_i
    odd-like class II   <hhat_i>,   hhat_i = g_i / (x - 1)

All four require q to be an m-adic residue mod p (q in Q_0); that is
exactly the condition for the class products to have coefficients in
F_q.  The q-cyclotomic cosets C mod p come from one ascending walk
k -> q k mod p, which meets each coset first at its least member.  The
irreducible factors of x**p - 1 over F_q belong to them, each the
minimal polynomial of alpha**min(C), found by Berlekamp-Massey on the
constant digits of its powers, so no polynomial over GF(q^t) is
multiplied (MacWilliams & Sloane, ch. 4).

A cyclic code is fixed by its nonzeros: the cosets C, by least member,
whose roots alpha^k, k in C, are those of its check polynomial
(x**p - 1)/g.  With Q_i the cosets of class i, even-I has nonzeros
Q_i, odd-I all cosets but Q_i, even-II all but Q_i and {0}, and odd-II
Q_i and {0}.  family_codes returns these records; on first read a code
multiplies the factors of its zero cosets into its generator, dividing
nothing, and inverts its 0/1 spectrum into its idempotent (below;
MacWilliams & Sloane, ch. 7 and ch. 8).

Another root beta = alpha**u, c(u) the class of u, only relabels the
classes, as u*Q_i = Q_{i+c(u)} (the multiplier action, Huffman &
Pless, ch. 6), so family_codes alone reads a labeling and every layer
below it works relative to alpha.

Duality stays inside the families.  The nonzeros of C^perp are the
negated zeros of C, and -Q_r = Q_{r+c}, c = c(-1) = ((p-1)/2) mod m,
as -1 = b**((p-1)/2).  Negated, the zeros {0}, Q_r (r != i) of even-I_i
leave out only Q_{i+c}, the nonzeros of odd-I_{i+c}, and the zeros
{0}, Q_i of even-II_i are the nonzeros of odd-II_{i+c}; odd to even is
the same.  So the dual is the family partner at index i + c (the
mu_{-1} relation of duadic codes, Huffman & Pless, ch. 6), and as
2c = 0 mod m, the dual's dual is the code.

The Gauss periods eta_r = sum_{k in Q_r} alpha**k lie in F_q (Storer,
Cyclotomy and Difference Sets); gauss_periods reads them off the coset
factors once per (system, q).  With c(k) the class of k the even-like
class-I idempotent is

    e_i = p**-1 * ((p-1)/m + sum_{k=1}^{p-1} eta_{i+c(-k)} x**k).

The idempotents lie in the class algebra A: with q in Q_0, the
polynomials whose coefficients are constant on {0}, Q_0, ..., Q_{m-1},

    f = c_0 + sum_i c_i S_i,    S_i = sum_{k in Q_i} x**k,

form an (m+1)-dimensional subalgebra of F_q[x]/(x**p - 1).  With g_r
in Q_r, evaluation at the p-th roots of unity is the injective ring
homomorphism

    sigma(f) = (f(1), f(alpha**g_0), ..., f(alpha**g_{m-1}))
    f(1)            = c_0 + ((p-1)/m) sum_i c_i
    f(alpha**g_r)   = c_0 + sum_i c_i eta_{i+r}

from A to F_q**(m+1) (MacWilliams & Sloane, ch. 8: the Mattson-Solomon
transform restricted to A).  So a product is a pointwise product of
spectra and a sum a pointwise sum; sigma(1) = (1, ..., 1) and
sigma(h) = (p mod q, 0, ..., 0).  sigma maps p**-1 h to
(1, 0, ..., 0) and e_r to the unit vector at alpha**g_r, so p**-1 h,
e_0, ..., e_{m-1} is the basis of idempotents of A, and from_spectrum
inverts sigma by linearity,

    sigma**-1(v) = v_0 p**-1 h + sum_r v_{r+1} e_r,

whose coefficient k >= 1 is p**-1 (v_0 + sum_r v_{r+1} eta_{r+c(-k)}).
A code's spectrum, sigma of its idempotent, is 0/1 with entry 0 set iff
{0} is a nonzero and entry r+1 iff the cosets of Q_r are; it is read
off the nonzeros, with no polynomial evaluated, and one formula inverts
it into the idempotents of all four families: e_i, 1 - e_i,
1 - p**-1 h - e_i and p**-1 h + e_i.  The ring layer and the identity
suite compute on these spectra, and a polynomial is formed from one
only where it is read.
"""

from __future__ import annotations

import functools
import operator
from collections import Counter
from dataclasses import dataclass, field

from . import poly
from .errors import NonPrimeModulus, NotCoprime, QNotResidue, TooLarge
from .ffield import make_extension, make_prime_field
from .residues import ResidueSystem

FAMILIES = ("even-I", "odd-I", "even-II", "odd-II")
# Most coefficients, m * p, of a family: reading every code of it holds
# m generators and m idempotents of up to p coefficients each, and the
# check stops a long-p family before coset_factors runs.  (2, 8191,
# 630), about 5.2 M, is built; (2, 131071, 7710), about 10**9, is not.
FAMILY_COEFFS = 1 << 23


@dataclass(frozen=True)
class CyclicCode:
    """A cyclic code of prime length p over GF(q), q the prime itself,
    fixed by nonzeros: its nonzero cyclotomic cosets by least member,
    ascending, relative to the alpha of splitting_field ((0,) for <h>,
    () for the zero code), so index is its class Q_index whatever
    labeling family_codes gave.  The generator (monic, ascending),
    dimension, spectrum, idempotent and dual are built on first read
    and kept; the last three read the system, which takes no part in
    equality."""

    q: int
    p: int
    family: str
    index: int
    nonzeros: tuple
    system: ResidueSystem = field(compare=False, repr=False)

    @functools.cached_property
    def generator(self):
        factor_of = coset_factors(self.q, self.p)
        zeros = _other_cosets(self.q, self.p, self.nonzeros)
        return product(self.q, [factor_of[r] for r in zeros])

    @functools.cached_property
    def dual(self):
        """The dual code: the other-parity member of the same class type
        at index + c(-1) (module docstring), so dual.dual == self."""
        system = self.system
        partner = FAMILIES[FAMILIES.index(self.family) ^ 1]
        return family_codes(system, make_prime_field(self.q), partner)[
            (self.index + system.class_of(-1)) % system.m]

    @functools.cached_property
    def dimension(self):
        return sum(map(_coset_sizes(self.q, self.p).__getitem__,
                       self.nonzeros))

    @functools.cached_property
    def spectrum(self):
        """sigma of the idempotent (module docstring): 1 at the
        nonzeros, {0} first, then each class of cosets Q_r."""
        own = set(self.nonzeros)
        cosets = _class_cosets(self.system, self.q)
        return (int(0 in own),) + tuple(int(own.issuperset(c))
                                        for c in cosets)

    @functools.cached_property
    def idempotent(self):
        return from_spectrum(self.system, self.q, self.spectrum)


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
    """The irreducible factors of x**p - 1 over GF(q), by least member.

    With u_k the constant digit of alpha^k, u_0 .. u_{2t-1} give the
    minimal polynomial of alpha (_min_poly), whose recurrence extends u
    to every k < p.  The factor of a coset C is prod_{k in C}
    (x - alpha^k), the minimal polynomial of beta = alpha^min(C); it is
    that of the sequence u_{min(C) j mod p}, the constant digits of the
    beta^j, which starts at u_0 = 1.  Returns {min(C): factor},
    ascending, so 0 maps to x - 1.

    The factors are proved, not multiplied out.  Each digit sequence is
    nonzero (u_0 = 1) and its minimal polynomial divides beta's, which
    is irreducible of degree |C|: so alpha's recurrence, of degree t,
    and each factor, of degree |C|, is the minimal polynomial of its
    root.  As alpha**p = 1, each divides x**p - 1, which is squarefree,
    and distinct ones whose degrees sum to p are its factorization.
    """
    ext, alpha = splitting_field(q, p)
    power, u = 1, []
    for _ in range(2 * ext.t):
        u.append(power % q)
        power = ext.mul(power, alpha)
    recurrence = [-c % q for c in _min_poly(q, u)[:-1]]
    for k in range(len(u), p):
        u.append(sum(map(operator.mul, recurrence, u[k - ext.t:k])) % q)
    sizes = _coset_sizes(q, p)
    factor_of = {g: _min_poly(q, [u[g * j % p] for j in range(2 * size)])
                 for g, size in sizes.items()}
    if (len(recurrence) != ext.t or sum(sizes.values()) != p
            or len(set(factor_of.values())) < len(factor_of)
            or any(len(f) - 1 != sizes[g] for g, f in factor_of.items())):
        raise AssertionError("coset factors do not multiply to x**p - 1")
    return factor_of


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


def product(q, polys):
    """The product of nonzero polynomials over GF(q), q prime, by a
    pairwise tree of packed products (poly.mul)."""
    polys = list(polys) or [(1,)]
    while len(polys) > 1:
        pairs = [poly.mul(q, a, b)
                 for a, b in zip(polys[::2], polys[1::2])]
        polys = pairs + polys[2 * len(pairs):]
    return polys[0]


@functools.lru_cache(maxsize=None)
def _coset_sizes(q, p):
    """{least member: size} of the q-cyclotomic cosets mod p, ascending:
    the walk k -> q k mod p from each residue no earlier walk reached,
    which is its coset's least member, as every smaller one was seen."""
    seen = [False] * p
    sizes = {}
    for start in range(p):
        if not seen[start]:
            k, size = start, 0
            while not seen[k]:
                seen[k] = True
                k, size = k * q % p, size + 1
            sizes[start] = size
    return sizes


def _other_cosets(q, p, cosets):
    """The q-cyclotomic coset leaders mod p not in cosets, ascending."""
    own = set(cosets)
    return tuple(r for r in _coset_sizes(q, p) if r not in own)


def check_factors(code):
    """The coset factors of the check polynomial of code, one per
    nonzero coset, so no polynomial is divided."""
    factor_of = coset_factors(code.q, code.p)
    return [factor_of[r] for r in code.nonzeros]


@functools.lru_cache(maxsize=None)
def _class_cosets(system, q):
    """The q-cyclotomic cosets of Q_i for each class i, by least member,
    ascending.  q must be coprime to p and an m-adic residue
    (QNotResidue otherwise); then q lies in Q_0, so Q_i is a union of
    q-cyclotomic cosets, each filed by the class of its least member."""
    p = system.p
    if q % p == 0:
        raise NotCoprime("q must be coprime to the code length")
    if not system.is_madic_residue(q):
        raise QNotResidue(
            f"q={q} is not an m-adic residue mod {p}; "
            "class products do not descend to the base field")
    cosets = [[] for _ in system.classes]
    for r in _coset_sizes(q, p):
        if r:
            cosets[system.class_of(r)].append(r)
    return tuple(map(tuple, cosets))


@functools.lru_cache(maxsize=None)
def gauss_periods(system, q):
    """The Gauss periods (eta_0, ..., eta_{m-1}) of the module docstring,
    eta_r = sum_{k in Q_r} alpha**k, as ints of F_q: the one source of
    the periods, read by from_spectrum.

    Q_r is a union of q-cyclotomic cosets (_class_cosets checks q), and
    the roots of a coset factor f sum to -f[-2], so eta_r sums -f[-2]
    over the coset factors of Q_r.  Checks sum_r eta_r = -1
    and, so the index convention of the periods is checked, e_0**2 = e_0.
    """
    factor_of = coset_factors(q, system.p)
    etas = tuple(-sum(factor_of[r][-2] for r in cosets) % q
                 for cosets in _class_cosets(system, q))
    if sum(etas) % q != q - 1:
        raise AssertionError("the Gauss periods do not sum to -1")
    e_0 = _inverse(system, q, etas, (0, 1) + (0,) * (system.m - 1))
    if poly.mul_mod(q, e_0, e_0, system.p) != e_0:
        raise AssertionError("e_0 * e_0 != e_0")
    return etas


@functools.lru_cache(maxsize=None)
def _classes_of_negatives(system):
    """c(-k), the class of -k, for k = 1, ..., p - 1."""
    neg = {system.p - k: i for i, cls in enumerate(system.classes)
           for k in cls}
    return tuple(map(neg.__getitem__, range(1, system.p)))


@functools.lru_cache(maxsize=None)
def from_spectrum(system, q, spec):
    """The class-constant polynomial f with sigma(f) = spec, a tuple,
    read straight off the Gauss periods once per spec."""
    return _inverse(system, q, gauss_periods(system, q), spec)


def _inverse(system, q, etas, spec):
    """sigma**-1(spec) by the module docstring's coefficient formula,
    p**-1 (v_0 + s_{c(-k)}) at k >= 1 with s = _correlate(etas, v_1..v_m):
    O(p + m d), and a family code's spectrum has d <= 1."""
    p, m = system.p, system.m
    p_inv = pow(p, -1, q)
    scaled = [p_inv * (spec[0] + s) % q for s in _correlate(etas, spec[1:])]
    head = p_inv * (spec[0] + (p - 1) // m * sum(spec[1:])) % q
    coeffs = [head, *map(scaled.__getitem__, _classes_of_negatives(system))]
    return poly.trim(q, coeffs)


def _correlate(etas, values):
    """s_j = sum_r values[r] eta_{r+j} (mod q) for each j, the sums both
    sigma and its inverse read.  With w the most common value and
    sum_r eta_r = -1, s_j is -w plus (values[r] - w) eta_{r+j} over the
    d entries other than w, so it costs O(m d)."""
    w = Counter(values).most_common(1)[0][0]
    sums = [-w] * len(etas)
    for r, v in enumerate(values):
        if v != w:
            rot = etas[r:] + etas[:r]
            sums = [s + (v - w) * eta for s, eta in zip(sums, rot)]
    return sums


@functools.lru_cache(maxsize=None)
def family_codes(system, ctx, family, alpha_exp=None):
    """All m codes of one family over the prime field ctx as records of
    their nonzeros (module docstring), built once relative to alpha;
    none multiplies a polynomial before it is read.  The codes carry
    GF(q) as the int q, so ctx is checked here, once: GF(q^t), t != 1,
    is refused with NonPrimeModulus.  A family of more than
    FAMILY_COEFFS coefficients, m * p, is refused with TooLarge first.
    Under the labeling alpha_exp = u, coprime to p (NotCoprime), entry i
    is code i + c(u) of that one build."""
    if ctx.t != 1:
        raise NonPrimeModulus(
            f"field codes need a prime field, not GF({ctx.q}^{ctx.t})")
    if alpha_exp is not None:
        codes = family_codes(system, ctx, family)
        if alpha_exp % system.p == 0:
            raise NotCoprime("alpha_exp must be coprime to p")
        shift = system.class_of(alpha_exp)
        return codes[shift:] + codes[:shift]
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    p, m, q = system.p, system.m, ctx.q
    if m * p > FAMILY_COEFFS:
        raise TooLarge(
            f"a family of {m} codes of length {p} holds {m * p} "
            f"coefficients, past the cap {FAMILY_COEFFS}")
    # class II adds {0} to Q_i; odd-I and even-II take the complement
    zero = (0,) if family.endswith("II") else ()
    other = family in ("odd-I", "even-II")
    return tuple(
        CyclicCode(q, p, family, i, _other_cosets(q, p, zero + own)
                   if other else zero + own, system)
        for i, own in enumerate(_class_cosets(system, q)))
