"""Slow references that the fast paths of madics are tested against.

The dom-generic polynomial arithmetic (trim_generic, add_generic,
neg_generic, sub_generic, scale_generic, mul_generic, divmod_generic,
monic_generic, gcd_generic and eval_generic) is the oracle of
madics.poly.  It is the schoolbook form, one coefficient at a time
through the ``mul`` and ``inv`` of its first argument, its zero and one
from dom_units and the sum and negation dom_add and dom_neg, so it runs
over any FieldCtx, prime or extension, and (all but the division, monic
and gcd, which need ``inv``) over VBasisRing.  dom_units gives the
zero and one, the ints 0 and 1 for a FieldCtx, and field_add and
field_neg the sum and negation of GF(q^t), digit by digit: madics
needs none of them on a field element, so FieldCtx has none of them.
madics.poly takes the prime q itself and works on plain ints mod q
with one packed product.

VBasisRing is R = F_q[v]/(v^s - v) with element arithmetic in the
v-basis (coefficients of 1, v, ..., v^(s-1)), which madics itself does
without: it computes on the CRT components and keeps the v-basis as an
output format.  crt_inv is the per-coefficient inverse of RingCtx.crt,
sum_k values[k] * eta_k, and ring_poly_combine_coeffwise applies it to
each x-degree: the oracle of madics.ringalg.ring_poly_combine, which
works column by column.

mul_mod_schoolbook is the oracle of madics.poly.mul_mod: the schoolbook
product mul_generic folded mod x^n - 1 one coefficient at a time by
mod_xn_minus_1.  poly.mul_mod packs coefficients into one int and so
works over prime fields only; the v-basis references multiply over
VBasisRing with mul_mod_schoolbook, which keeps them independent of
that fast path.

check_identities_vbasis evaluates the identity suite directly in the
v-basis of R = F_q[v]/(v^s - v), on each ring code's v-basis defining
element (RingCode.idempotent) with polynomial products and its own
chain step, so it uses none of the spectral arithmetic of
madics.identities.check_identities, which must agree with it on every
outcome.

_step_vbasis is that chain step on coefficients, over R or over F_q:
the coefficient at exponent a*i moves to exponent i.  It is the oracle
of madics.ring_codes.chain_source, which steps spectra.

spectrum_direct is the oracle of the spectra that madics holds for
every code (CyclicCode.spectrum, RingCode.spectra): it evaluates an
F_q polynomial at 1 and at beta**g_r, g_r the least member of Q_r, in
the splitting field GF(q^t), without the Gauss periods.  It takes the
labeling u, beta = alpha**u, that madics reads only in family_codes;
madics' spectra are those at u = 1, and relabeled maps one read at u
there (entry r + 1 at u is entry r + c(u) + 1 at 1, as u*Q_r =
Q_{r+c(u)}).

pairwise_products_all_pairs is the oracle of
madics.identities.pairwise_products_equal, which checks "a_r a_t = c
for every r < t" in O(L) per coordinate from the shape of the values:
it multiplies all L(L-1)/2 pairs and compares each product with c.

component_consistency_uncached is the oracle of
madics.ring_codes.component_consistency, which compares where the
spectra vanish: it reads each slot's element off the v-basis defining
element with ring_poly_component and takes gcd_generic of it with
x^p - 1 on every call.

The scans are the oracles of madics._kernels.  scan_numpy expands
each block of message indices into base-q digits and multiplies by G.
scan_union builds the full 0/1 support table of every component and
ORs it across all tuples.  Neither splits G or packs words into bit
planes as the kernel does.  Both return (d_min, counts) with the zero
word in counts[0], where the kernels return the counts alone; the
oracles' d_min is an independent read for the one in
madics.analysis._smaller_side.  scan_union holds every tuple in memory
at once, so keep its inputs small.

min_distance_ring_per_component is the oracle of
madics.analysis.min_distance_ring, which scans the first component
alone because a family's members share one weight distribution: it
scans every component with min_distance_field, takes the minimum
nonzero distance, and reports the common rank or None when the ranks
differ.

griesmer_bound_naive is the oracle of madics.analysis.griesmer_check:
the sum of ceil(d / q**i) over every i < k, one power at a time.

macwilliams_naive is the oracle of madics.analysis.macwilliams: the
same transform with each Krawtchouk value summed from its binomial
definition instead of the three-term recurrence.

distribution_certificate checks a weight distribution against
conditions that hold for every cyclic, scalar-closed code, whatever
scanned it: the MacWilliams transform must divide exactly (which
madics.analysis.macwilliams also checks) and give a nonnegative dual
distribution, the counts below weight p must fill whole orbits of the
shift and the scalars, and the first Pless moment must hold.  It
expands the transformed weight enumerator as polynomials in z and
shares no code with the scans or with macwilliams.

product_schoolbook is the oracle of madics.poly.mul and of
madics.field_codes.product, the pairwise tree of packed products that
checks the coset factors and multiplies each code's generator: it
folds mul_generic left to right.

gcd_ext and idempotent_bezout are the Bezout oracle of the idempotents
of madics.field_codes, which come in closed form from Gauss periods:
for a proper divisor g of x^p - 1 with gbar = (x^p - 1)/g, the extended
Euclidean algorithm gives u*g + w*gbar = 1, and u*g mod x^p - 1 is the
idempotent generator of <g>.  It knows nothing of residue classes and
works from the generator alone.

cyclotomic_cosets_walked is the oracle of madics.field_codes._coset_sizes,
which marks residues in one ascending walk and keeps only each coset's
least member and size: it walks the coset of every residue on its own,
so each coset is walked once per member, and sorts the member sets.

coset_factor_schoolbook is the oracle of madics.field_codes.coset_factors,
which finds each factor by Berlekamp-Massey over F_q: it
multiplies out the linear terms x - alpha^k, k in the coset, with
mul_generic over the splitting field GF(q^t).  class_products_direct
does the same for the class products ghat_i, the odd-I generators.

gauss_periods_table is the oracle of madics.field_codes.gauss_periods,
which reads each period off the coset factors: it sums the powers
beta**k, k in Q_r, in the splitting field and checks that each sum
lies in F_q.  At u it is madics' periods rotated by c(u).

residue_classes_by_logs is the oracle of
madics.residues.build_residue_system, which labels every residue in
one walk of the powers of b: it reads each residue's exponent to b off
a discrete-log table of another primitive root g (discrete_logs, one
table per p), k = log_g x / log_g b mod p - 1, and puts x in Q_(k mod
m).  residue_classes_by_powers, which forms Q_0 as the set of m-th
powers and each Q_i as the sorted shift b**i Q_0, spot-checks it.

is_prime_trial and is_prime_power_trial are the oracles of
madics.ffield.is_prime (Miller-Rabin) and is_prime_power (integer
roots): trial division up to sqrt(n), for small n only.
"""

import functools
from math import comb

import numpy as np

from madics.analysis import DistanceReport, min_distance_field
from madics.errors import DEFAULT_CAP
from madics.ffield import FieldCtx
from madics.field_codes import splitting_field
from madics.identities import IDENTITY_NAMES, IdentityOutcome
from madics.ring_codes import ring_code, ring_mu_chain
from madics.ringalg import RingCtx, format_ring_poly, ring_poly_component


class VBasisRing(RingCtx):
    """A ring context with v-basis element arithmetic, for tests."""

    def __init__(self, ring):
        super().__init__(ring.field, ring.s, ring.zeta, ring.eta,
                         ring.crt_points)

    def from_scalar(self, c):
        return (c % self.q,) + (0,) * (self.s - 1)

    def add(self, a, b):
        q = self.q
        return tuple((x + y) % q for x, y in zip(a, b))

    def sub(self, a, b):
        q = self.q
        return tuple((x - y) % q for x, y in zip(a, b))

    def neg(self, a):
        q = self.q
        return tuple(-x % q for x in a)

    def mul(self, a, b):
        # convolution with the fold v**e -> v**((e-1) mod (s-1) + 1)
        q, s = self.q, self.s
        out = [0] * s
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if not y:
                    continue
                e = i + j
                if e >= s:
                    e = (e - 1) % (s - 1) + 1
                out[e] = (out[e] + x * y) % q
        return tuple(out)


def dom_units(dom):
    """(zero, one) of dom: the ints 0 and 1 for a FieldCtx, the ring's
    own zero and one otherwise."""
    if isinstance(dom, FieldCtx):
        return 0, 1
    return dom.zero, dom.one


def trim_generic(dom, coeffs):
    """Drop trailing zero coefficients."""
    zero = dom_units(dom)[0]
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == zero:
        coeffs.pop()
    return tuple(coeffs)


def field_add(ctx, a, b):
    """a + b in the FieldCtx ctx, prime or GF(q^t): the base-q digits of
    a and b added mod q one by one."""
    q = ctx.q
    return ctx.from_vec((x + y) % q
                        for x, y in zip(ctx.to_vec(a), ctx.to_vec(b)))


def field_neg(ctx, a):
    """-a in the FieldCtx ctx, prime or GF(q^t): each base-q digit of a
    negated mod q."""
    q = ctx.q
    return ctx.from_vec(-x % q for x in ctx.to_vec(a))


def dom_add(dom, a, b):
    """a + b in dom: VBasisRing adds itself, a FieldCtx by field_add."""
    if isinstance(dom, VBasisRing):
        return dom.add(a, b)
    return field_add(dom, a, b)


def dom_neg(dom, a):
    """-a in dom: VBasisRing negates itself, a FieldCtx by field_neg."""
    if isinstance(dom, VBasisRing):
        return dom.neg(a)
    return field_neg(dom, a)


def add_generic(dom, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = dom_add(dom, out[i], c)
    return trim_generic(dom, out)


def neg_generic(dom, a):
    return tuple(dom_neg(dom, c) for c in a)


def sub_generic(dom, a, b):
    return add_generic(dom, a, neg_generic(dom, b))


def scale_generic(dom, c, a):
    if c == dom_units(dom)[0]:
        return ()
    return trim_generic(dom, (dom.mul(c, x) for x in a))


def mul_generic(dom, a, b):
    """The schoolbook product, one coefficient product at a time."""
    if not a or not b:
        return ()
    zero = dom_units(dom)[0]
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == zero:
            continue
        for j, y in enumerate(b):
            if y == zero:
                continue
            out[i + j] = dom_add(dom, out[i + j], dom.mul(x, y))
    return trim_generic(dom, out)


def divmod_generic(dom, a, b):
    """Quotient and remainder of a by a nonzero b, by long division."""
    assert b, "division by the zero polynomial"
    zero = dom_units(dom)[0]
    lead_inv = dom.inv(b[-1])
    rem = list(a)
    db = len(b) - 1
    if len(rem) - 1 < db:
        return (), trim_generic(dom, rem)
    quot = [zero] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c == zero:
            continue
        f = dom.mul(c, lead_inv)
        quot[i - db] = f
        for j in range(db + 1):
            rem[i - db + j] = dom_add(dom, rem[i - db + j],
                                      dom_neg(dom, dom.mul(f, b[j])))
    return trim_generic(dom, quot), trim_generic(dom, rem)


def monic_generic(dom, a):
    if not a:
        return ()
    return scale_generic(dom, dom.inv(a[-1]), a)


def gcd_generic(dom, a, b):
    """Monic gcd of a and b, not both zero, by the remainder loop."""
    assert a or b, "gcd(0, 0) is undefined"
    while b:
        a, b = b, divmod_generic(dom, a, b)[1]
    return monic_generic(dom, a)


def eval_generic(dom, a, x):
    """a(x) by Horner's rule."""
    acc = dom_units(dom)[0]
    for c in reversed(a):
        acc = dom_add(dom, dom.mul(acc, x), c)
    return acc


def crt_inv(ring, values):
    """The element of R with the given CRT components:
    sum_k values[k] * eta_k, one v-coefficient at a time."""
    q = ring.q
    out = [0] * ring.s
    for val, eta in zip(values, ring.eta):
        for i, c in enumerate(eta):
            out[i] = (out[i] + val * c) % q
    return tuple(out)


def ring_poly_combine_coeffwise(ring, components):
    """Polynomial over R with the given component polynomials: crt_inv
    of the components' coefficients at each x-degree."""
    width = max((len(c) for c in components), default=0)
    out = [crt_inv(ring, tuple(c[i] if i < len(c) else 0
                               for c in components))
           for i in range(width)]
    while out and out[-1] == ring.zero:
        out.pop()
    return tuple(out)


def mod_xn_minus_1(dom, a, n):
    """Reduce mod x**n - 1 by folding exponents mod n."""
    zero = dom_units(dom)[0]
    out = [zero] * n
    for i, c in enumerate(a):
        if c != zero:
            out[i % n] = dom_add(dom, out[i % n], c)
    return trim_generic(dom, out)


def mul_mod_schoolbook(dom, a, b, n):
    """a*b mod x**n - 1 by the schoolbook product, over any dom."""
    return mod_xn_minus_1(dom, mul_generic(dom, a, b), n)


def product_schoolbook(dom, polys):
    """The product of polys, one schoolbook product at a time."""
    acc = (dom_units(dom)[1],)
    for f in polys:
        acc = mul_generic(dom, acc, f)
    return acc


def cyclotomic_cosets_walked(q, p):
    """The q-cyclotomic cosets mod p, each walked from each of its
    members on its own and sorted, ordered by least member ((0,)
    first)."""
    cosets = set()
    for start in range(p):
        coset, k = {start}, start * q % p
        while k != start:
            coset.add(k)
            k = k * q % p
        cosets.add(tuple(sorted(coset)))
    return sorted(cosets)


def coset_factor_schoolbook(q, p):
    """{coset: prod_{k in coset} (x - alpha^k)} for the q-cyclotomic
    cosets mod p, multiplied out over the splitting field."""
    ext, alpha = splitting_field(q, p)
    out = {}
    for coset in cyclotomic_cosets_walked(q, p):
        prod = (1,)
        for k in coset:
            prod = mul_generic(ext, prod,
                               (field_neg(ext, ext.pow(alpha, k)), 1))
        out[coset] = prod
    return out


def class_products_direct(system, q, alpha_exp):
    """(ghat_0, ..., ghat_{m-1}), ghat_i = prod_{k in u*Q_i}
    (x - alpha**k) with u = alpha_exp, multiplied out over the splitting
    field."""
    ext, alpha = splitting_field(q, system.p)
    out = []
    for cls in system.classes:
        prod = (1,)
        for k in cls:
            root = ext.pow(alpha, alpha_exp * k % system.p)
            prod = mul_generic(ext, prod, (field_neg(ext, root), 1))
        out.append(prod)
    return tuple(out)


def gauss_periods_table(system, q, alpha_exp):
    """(eta_0, ..., eta_{m-1}), eta_r = sum_{k in Q_r} beta**k with
    beta = alpha**alpha_exp, summed in the splitting field."""
    p = system.p
    ext, alpha = splitting_field(q, p)
    etas = []
    for cls in system.classes:
        acc = 0
        for k in cls:
            acc = field_add(ext, acc, ext.pow(alpha, alpha_exp * k % p))
        assert acc < q, "a Gauss period did not descend to F_q"
        etas.append(acc)
    return tuple(etas)


def gcd_ext(dom, a, b):
    """Monic gcd g of a and b, not both zero, with Bezout cofactors:
    (g, u, w) with u*a + w*b = g."""
    r0, r1 = a, b
    one = dom_units(dom)[1]
    u0, u1 = (one,), ()
    w0, w1 = (), (one,)
    while r1:
        quot, rem = divmod_generic(dom, r0, r1)
        r0, r1 = r1, rem
        u0, u1 = u1, sub_generic(dom, u0, mul_generic(dom, quot, u1))
        w0, w1 = w1, sub_generic(dom, w0, mul_generic(dom, quot, w1))
    lead_inv = dom.inv(r0[-1])
    return tuple(scale_generic(dom, lead_inv, f) for f in (r0, u0, w0))


def idempotent_bezout(dom, g, p):
    """Idempotent generator of <g> in F_q[x]/(x^p - 1), for g a proper
    divisor of x^p - 1 with gcd(p, q) = 1."""
    zero, one = dom_units(dom)
    xp1 = (dom_neg(dom, one),) + (zero,) * (p - 1) + (one,)
    gbar, rem = divmod_generic(dom, xp1, g)
    assert not rem, "g does not divide x^p - 1"
    d, u, _ = gcd_ext(dom, g, gbar)
    assert d == (one,), "x^p - 1 is not squarefree over this field"
    return mul_mod_schoolbook(dom, u, g, p)


def scan_numpy(gmat, q, chunk=1 << 13):
    gmat = np.ascontiguousarray(gmat, dtype=np.int64)
    k, n = gmat.shape
    counts = np.zeros(n + 1, dtype=np.int64)
    counts[0] += 1
    total = q**k
    best = n + 1
    powers = q ** np.arange(k, dtype=np.int64)
    for start in range(1, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        msgs = (idx[:, None] // powers[None, :]) % q
        words = (msgs @ gmat) % q
        ws = np.count_nonzero(words, axis=1)
        counts += np.bincount(ws, minlength=n + 1)
        best = min(best, int(ws.min()))
    return best, counts


def support_table(gmat, q):
    """All q**k codewords as a 0/1 support matrix, in base-q counting
    order of the messages (coefficient 0 least significant)."""
    gmat = np.ascontiguousarray(gmat, dtype=np.int64)
    k = gmat.shape[0]
    powers = q ** np.arange(k, dtype=np.int64)
    idx = np.arange(q**k, dtype=np.int64)
    msgs = (idx[:, None] // powers[None, :]) % q
    return ((msgs @ gmat) % q != 0).astype(np.uint8)


def scan_union(gmats, q):
    n = gmats[0].shape[1]
    combined = np.zeros((1, n), dtype=np.uint8)
    for gmat in gmats:
        table = support_table(gmat, q)
        combined = (combined[:, None, :] | table[None, :, :]).reshape(-1, n)
    weights = combined.sum(axis=1, dtype=np.int64)
    counts = np.bincount(weights, minlength=n + 1)
    nonzero = weights[weights > 0]
    return (int(nonzero.min()) if nonzero.size else 0), counts


def min_distance_ring_per_component(code, cap=DEFAULT_CAP):
    """Component-min ring distance with every component scanned."""
    reports = [min_distance_field(c, cap) for c in code.components]
    ranks = tuple(r.k for r in reports)
    dmins = tuple(r.d_min for r in reports)
    live = [d for d in dmins if d > 0]
    common = ranks[0] if len(set(ranks)) == 1 else None
    return DistanceReport(code.p, common, min(live) if live else 0,
                          "component-min",
                          sum(r.enumerated for r in reports), None, ranks,
                          dmins)


def griesmer_bound_naive(k, d, q):
    return sum(-(-d // q**i) for i in range(k))


def krawtchouk(w, i, n, q):
    """K_w(i) = sum_j (-1)**j (q-1)**(w-j) C(i, j) C(n-i, w-j)."""
    return sum((-1)**j * (q - 1)**(w - j) * comb(i, j) * comb(n - i, w - j)
               for j in range(w + 1))


def macwilliams_naive(dual_counts, n, q):
    size = sum(dual_counts)
    return tuple(
        sum(b * krawtchouk(w, i, n, q) for i, b in enumerate(dual_counts))
        // size
        for w in range(n + 1))


def distribution_certificate(A, n, words, alphabet, p, q):
    """Assert what every weight distribution A of a code with the given
    number of words, length n over an alphabet of that many symbols,
    cyclic of prime length p and closed under the nonzero scalars of
    GF(q), must satisfy: A_0 = 1 and sum A = words; the MacWilliams
    transform, words * B(z) = sum_w A_w (1 + (alphabet - 1) z)**(n - w)
    (1 - z)**w, divides by words exactly, with B >= 0, B_0 = 1 and
    sum B * words = alphabet**n; A_w = 0 mod p (q - 1) for 0 < w < p,
    since the shift and the scalars act freely on words of those
    weights; and the first Pless moment, alphabet * sum w A_w =
    words ((alphabet - 1) n - B_1)."""
    A = [int(a) for a in A]
    assert len(A) == n + 1 and A[0] == 1 and sum(A) == words, "A_0 or sum A"
    powers = [[1]]  # (1 + (alphabet - 1) z)**j, coefficients low first
    for _ in range(n):
        prev = powers[-1]
        powers.append([a + (alphabet - 1) * b
                       for a, b in zip(prev + [0], [0] + prev)])
    # Horner in 1 - z: acc_w = A_w powers[n - w] + (1 - z) acc_(w+1)
    acc = []
    for w in range(n, -1, -1):
        acc = [a - b + A[w] * c
               for a, b, c in zip(acc + [0], [0] + acc, powers[n - w])]
    assert all(c % words == 0 for c in acc), \
        "the MacWilliams transform does not divide by the word count"
    B = [c // words for c in acc]
    assert B[0] == 1 and min(B) >= 0 and sum(B) * words == alphabet**n, \
        "the dual distribution B"
    assert all(A[w] % (p * (q - 1)) == 0 for w in range(1, min(p, n + 1))), \
        "A_w not a multiple of p (q - 1) for some 0 < w < p"
    assert alphabet * sum(w * a for w, a in enumerate(A)) == \
        words * ((alphabet - 1) * n - B[1]), "the first Pless moment"


@functools.lru_cache(maxsize=1)
def mth_powers(p, m):
    """Q_0 = {x**m mod p}, sorted; kept for the next base b at (p, m)."""
    return sorted({pow(x, m, p) for x in range(1, p)})


def residue_classes_by_powers(p, m, b):
    """(classes, {x: class of x}): Q_0 the m-th powers mod p and Q_i =
    b**i Q_0, each sorted."""
    classes = []
    for i in range(m):
        shift = pow(b, i, p)
        classes.append(tuple(sorted(x * shift % p for x in mth_powers(p, m))))
    class_of = {x: i for i, cls in enumerate(classes) for x in cls}
    assert len(class_of) == p - 1, "classes do not partition {1, ..., p-1}"
    return tuple(classes), class_of


def discrete_logs(p):
    """(g, log) for the largest primitive root g mod p: log[x] = k with
    g**k = x mod p for x in [1, p).  A candidate whose powers come back
    to 1 before p - 1 steps is no primitive root."""
    for g in range(p - 1, 0, -1):
        log, x = [None] * p, 1
        for k in range(p - 1):
            if log[x] is not None:
                break
            log[x] = k
            x = x * g % p
        else:
            return g, log
    raise ValueError(f"no primitive root mod {p}")


def exponents_to(b, log):
    """k_x with b**k_x = x mod p, at index x in [1, p) (-1 at 0), from
    the discrete logs of another primitive root: k_x = log[x] / log[b]
    mod p - 1."""
    order = len(log) - 1
    inv = pow(log[b], -1, order)
    return [-1] + [k * inv % order for k in log[1:]]


def residue_classes_by_logs(exponents, m):
    """(classes, class_of) for the exponents of exponents_to: x lies in
    Q_(k_x mod m); class_of[x] is its class (-1 at 0), and each class
    is ascending."""
    class_of = [-1] + [k % m for k in exponents[1:]]
    size = (len(exponents) - 1) // m
    ordered = sorted(range(1, len(exponents)), key=class_of.__getitem__)
    classes = tuple(tuple(ordered[i * size:(i + 1) * size])
                    for i in range(m))
    assert all(class_of[c[0]] == class_of[c[-1]] == i
               for i, c in enumerate(classes)), "classes of unequal size"
    return classes, class_of


def is_prime_trial(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def is_prime_power_trial(n):
    """True when n > 1 has exactly one prime divisor."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            while n % d == 0:
                n //= d
            return n == 1
        d += 1
    return n > 1


def pairwise_products_all_pairs(q, values, target):
    """True when values[r] * values[t] == target pointwise mod q for
    every r < t, by multiplying every pair."""
    return all(
        [x * y % q for x, y in zip(values[r], values[t])] == list(target)
        for r in range(len(values)) for t in range(r + 1, len(values)))


def component_consistency_uncached(code):
    """The oracle of madics.ring_codes.component_consistency: per slot,
    the gcd of the element with x^p - 1 against the component generator
    up to a unit, solved afresh for every slot on every call."""
    p = code.p
    ctx = code.ring.field
    xp1 = (ctx.q - 1,) + (0,) * (p - 1) + (1,)
    out = []
    for k, comp_code in enumerate(code.components):
        elem = ring_poly_component(code.ring, code.idempotent, k)
        if not elem:
            out.append(len(comp_code.generator) - 1 == p)
            continue
        ideal_gen = gcd_generic(ctx, elem, xp1)
        out.append(ideal_gen == monic_generic(ctx, comp_code.generator))
    return tuple(out)


def spectrum_direct(system, q, u, f):
    """(f(1), f(beta**g_0), ..., f(beta**g_{m-1})) with beta =
    alpha**u and g_r the least member of Q_r, each evaluated in the
    splitting field by Horner's rule; every value must lie in F_q."""
    ext, alpha = splitting_field(q, system.p)
    beta = ext.pow(alpha, u % system.p)
    points = [1] + [ext.pow(beta, cls[0]) for cls in system.classes]
    values = tuple(eval_generic(ext, f, x) for x in points)
    assert all(v < q for v in values), "a value did not descend to F_q"
    return values


def relabeled(system, u, spec):
    """The spectrum at u = 1 of an element whose spectrum at the
    labeling u is spec: entry r + 1 at u is entry r + c(u) + 1 at 1."""
    c = system.class_of(u)
    tail = tuple(spec[1:])
    return (spec[0],) + tail[-c:] + tail[:-c] if c else tuple(spec)


def _eq(ring, p, a, b):
    return mod_xn_minus_1(ring, a, p) == mod_xn_minus_1(ring, b, p)


def _step_vbasis(ring, p, a, coeffs):
    """One chain step over R: the coefficient at exponent a*i moves to
    exponent i."""
    padded = tuple(coeffs) + (dom_units(ring)[0],) * (p - len(coeffs))
    return trim_generic(ring, (padded[a * i % p] for i in range(p)))


def check_identities_vbasis(ring, system, base_slots=None, a=None,
                            alpha_exp=1):
    """The identity suite evaluated in the v-basis over R, the oracle of
    madics.identities.check_identities; returns {name: IdentityOutcome}.

    h is the all-ones polynomial over R, built here as (ring.one,) * p.
    """
    ring = VBasisRing(ring)
    p, m, s = system.p, system.m, ring.s
    if base_slots is None:
        base_slots = tuple(i % m for i in range(s))
    if a is None:
        a = system.a

    base = ring_code(ring, system, "even-I", base_slots, alpha_exp)
    orbit = ring_mu_chain(base, a)
    es = [c.idempotent for c in orbit]
    eps = [ring_code(ring, system, "odd-I", c.slots, alpha_exp).idempotent
           for c in orbit]
    ds = [ring_code(ring, system, "even-II", c.slots, alpha_exp).idempotent
          for c in orbit]
    dps = [ring_code(ring, system, "odd-II", c.slots, alpha_exp).idempotent
           for c in orbit]

    one = (ring.one,)
    zero = ()
    h = (ring.one,) * p
    one_minus_h = sub_generic(ring, one, h)

    def mm(x, y):
        return mul_mod_schoolbook(ring, x, y, p)

    def sq_ok(polys):
        return all(_eq(ring, p, mm(e, e), e) for e in polys)

    def chain_ok(polys):
        n = len(polys)
        return all(
            _eq(ring, p, _step_vbasis(ring, p, a, polys[r]),
                polys[(r + 1) % n])
            for r in range(n))

    def total(polys):
        acc = zero
        for e in polys:
            acc = add_generic(ring, acc, e)
        return mod_xn_minus_1(ring, acc, p)

    def product(polys):
        acc = one
        for e in polys:
            acc = mm(acc, e)
        return acc

    out = {}

    def record(name, holds, computed=(), expected=()):
        out[name] = IdentityOutcome(
            name, holds,
            format_ring_poly(ring, computed) if not holds else "",
            format_ring_poly(ring, expected) if not holds else "")

    record("E_idempotent", sq_ok(es))
    record("E_mu_chain", chain_ok(es))

    prod_zero = all(
        _eq(ring, p, mm(es[r], es[t]), zero)
        for r in range(len(es)) for t in range(r + 1, len(es)))
    record("E_products_zero", prod_zero)

    e_sum = total(es)
    record("E_sum_is_1_minus_h", _eq(ring, p, e_sum, one_minus_h),
           e_sum, one_minus_h)

    record("Ep_idempotent", sq_ok(eps))
    record("Ep_mu_chain", chain_ok(eps))
    pair_ok = all(
        _eq(ring, p,
                 sub_generic(ring, add_generic(ring, eps[r], eps[t]),
                             mm(eps[r], eps[t])),
                 one)
        for r in range(len(eps)) for t in range(r + 1, len(eps)))
    record("Ep_pair_identity", pair_ok)
    ep_prod = product(eps)
    record("Ep_product_is_h", _eq(ring, p, ep_prod, h), ep_prod, h)

    record("D_idempotent", sq_ok(ds), mm(ds[0], ds[0]), ds[0])
    record("D_mu_chain", chain_ok(ds))
    d_pair_ok = all(
        _eq(ring, p,
                 sub_generic(ring, add_generic(ring, ds[r], ds[t]),
                             mm(ds[r], ds[t])),
                 one_minus_h)
        for r in range(len(ds)) for t in range(r + 1, len(ds)))
    sample_pair = sub_generic(
        ring, add_generic(ring, ds[0], ds[1 % len(ds)]),
        mm(ds[0], ds[1 % len(ds)]))
    record("D_pair_identity", d_pair_ok, sample_pair, one_minus_h)
    d_prod = product(ds)
    record("D_product_zero", _eq(ring, p, d_prod, zero), d_prod, zero)

    record("Dp_idempotent", sq_ok(dps), mm(dps[0], dps[0]), dps[0])
    record("Dp_mu_chain", chain_ok(dps))
    dp_pair_ok = all(
        _eq(ring, p, mm(dps[r], dps[t]), h)
        for r in range(len(dps)) for t in range(r + 1, len(dps)))
    record("Dp_pair_is_h", dp_pair_ok, mm(dps[0], dps[1 % len(dps)]), h)
    dp_sum = total(dps)
    dp_expected = mod_xn_minus_1(
        ring,
        sub_generic(ring, one,
                    scale_generic(ring, ring.from_scalar(s - 1), h)),
        p)
    record("Dp_sum_identity", _eq(ring, p, dp_sum, dp_expected),
           dp_sum, dp_expected)

    assert set(out) == set(IDENTITY_NAMES)
    return out
