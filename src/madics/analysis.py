"""Exact minimum distances, weight distributions and Griesmer checks.

One function, _smaller_side, measures a field code and the exhaustive
ring method alike.  Through the CRT a ring code over
F_q[v]/(v**s - v) is the product C_0 x ... x C_{s-1} of its component
codes, an additive code of length n over the alphabet F_q**s whose
Hamming weight is the ring weight; a field code is the case s = 1.
Under the sum of the component dot products its dual is C_0.dual x ...
x C_{s-1}.dual, each C_k.dual the family partner of field_codes (the
code whose nonzeros are the negated zeros of C_k).  With k the sum of
the component ranks, the scan runs over the q**k messages of the code
when s n - k >= k, and over the q**(s n - k) messages of the dual when
s n - k < k; then the MacWilliams identity with q**s symbols (Delsarte
1973; MacWilliams & Sloane, ch. 5) turns the dual's weight distribution
B into the code's, A_w = q**-(s n - k) sum_i B_i K_w(i), with the
Krawtchouk values K_w(i) exact Python ints from their three-term
recurrence, which raises where the division is not exact.  The kernel
only counts: _smaller_side checks one zero word (every generator matrix
has full rank) and one count per scanned message, and reads d_min off
A on either side.  The counts are Python ints (past the cap A_w
exceeds int64), and the cap (default DEFAULT_CAP = 2**24) bounds the
messages actually scanned, min(q**k, q**(s n - k)): a larger scan is
refused with TooLarge, whose text names both sides.  That count is
compared with the cap before it is formed (ffield.power_exceeds), and
named as q^e from 10**30 on (errors.power_text), so a refusal at
(q, p) = (2**31 - 1, 1048573) costs no 32-Mbit power.  The zero code
scans its one word like any other.

A field code's scanned side, C or C.dual, is cyclic, so its check
polynomial factors into the coset factors of its nonzeros
(CyclicCode.nonzeros, field_codes.check_factors).  _split divides them
between two ideals, C = A + B: A takes the factors whose degrees sum to
the most that is at most ceil(dim/2), and the kernel tabulates every
word of B against one word of A per orbit of the group generated by the
cyclic shift and the scalars, weighed by the orbit size (see _kernels).
The scan has no split for an irreducible check polynomial or a dim A
below 2, a B of more than SPLIT_LOW_ROWS words (its low table), or
fewer than SPLIT_MIN_WORDS words in all; then the same orbit builder
groups the upper half of the rows by the scalars alone.

Ring codes are measured two ways: the component-min method takes the
minimum of the CRT component distances, which is exact because a ring
codeword's support is the union of its component supports and the
components are independent; the exhaustive method above counts every
tuple of component messages on the smaller side and is used as a
cross-check.  A ring code's components are members of one family_codes
tuple, which a multiplier mu_b, b in Q_1, permutes cyclically, so they
share one weight distribution: component-min scans the first alone and
reports its rank (k) and distance for all s, and enumerated stays the
sum of the s components' word counts.  A union weight depends on the
component supports alone, so the exhaustive scan visits one row per
distinct support of each later component, weighed by the number of
messages with that support.  Every component of either side is cyclic,
so the first one is reduced, as in a split field scan, to one word per
orbit of the cyclic shift (x mod its check polynomial) and the scalars,
folded by support and weighed by the orbit sizes (see _kernels); its
enumerated count and its cap stay the scanned side's full tuple count.

numpy and the scan kernel (_kernels) are imported inside the functions
that build a generator matrix or scan, so importing madics or its CLI
does not load numpy; it loads on the first scan only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (DEFAULT_CAP, BackendUnavailable, FieldTooLarge,
                     InternalCheckFailed, InvalidParameter, TooLarge,
                     int_text, power_text)
from .ffield import S_CAP, SIZE_CAP, is_prime_power, power_exceeds
from .field_codes import check_factors, product

# Most words of the ideal B that a split scan tabulates whole (its low
# table); a split whose B has more falls back to the scalar-only scan.
SPLIT_LOW_ROWS = 1 << 14
# Fewest words a scan must have to be split: on smaller codes the
# labeling and the generator products cost more than the pairs saved.
SPLIT_MIN_WORDS = 1 << 14


@dataclass(frozen=True)
class DistanceReport:
    """Outcome of one distance computation.

    k is the code's rank, whichever side was scanned: the dimension of
    a field code, the sum of component ranks for an exhaustive ring run,
    and the common component rank for component-min.  weight_distribution
    is A_0..A_n (Python ints) when the method accounts for every word,
    else None.  d_min, read by _smaller_side, is the least w >= 1 with
    A_w > 0, and 0 for the zero code.

    method is "exhaustive" when the scan ran over the code itself (for
    a ring code, over every tuple of component messages), "macwilliams"
    when it ran over the dual code (for a ring code, every tuple of dual
    component messages) and A came from the MacWilliams identity, and
    "component-min" for the minimum over the CRT components.  enumerated
    is the number of words whose weights were counted: the scanned
    side's q**k or q**(n-k) for a field code, its tuple count for an
    exhaustive ring run, or the sum over the s components, each counted
    as if scanned.
    """

    n: int
    k: int
    d_min: int
    method: str
    enumerated: int
    weight_distribution: tuple | None = None
    component_ranks: tuple | None = None
    component_dmins: tuple | None = None


def _shift_matrix(gen, n, k):
    """k x n integer matrix whose rows are x**i * gen, i < k."""
    import numpy as np

    mat = np.zeros((k, n), dtype=np.int64)
    gen = np.asarray(gen, dtype=np.int64)  # converted once, not per row
    for i in range(k):
        mat[i, i:i + len(gen)] = gen
    return mat


def _split(code):
    """The check polynomials (f_A, f_B) of the split of code into ideals
    A + B of the module docstring, or None when it has none.  A below
    dimension 2 is no split: on a one-dimensional ideal the shift acts
    as a scalar."""
    dim = code.dimension
    if code.q**dim < SPLIT_MIN_WORDS:
        return None
    factors = check_factors(code)
    # one subset of the factors, by index, per reachable degree sum
    reach = {0: ()}
    for i, f in enumerate(factors):
        for total, part in list(reach.items()):
            if total + len(f) - 1 <= (dim + 1) // 2:
                reach.setdefault(total + len(f) - 1, part + (i,))
    dim_a = max(reach)
    if dim_a < 2 or code.q**(dim - dim_a) > SPLIT_LOW_ROWS:
        return None
    part = set(reach[dim_a])
    return (product(code.q, [factors[i] for i in reach[dim_a]]),
            product(code.q, [f for i, f in enumerate(factors)
                             if i not in part]))


def _scan_matrix(code):
    """A generator matrix of code and the check polynomial f_A of its
    split, or None when it has none.  With a split C = A + B, the first
    rows are x**i g f_A, i < dim B, and the last x**i g f_B, i < dim A,
    for g the generator of C."""
    import numpy as np

    split = _split(code)
    if split is None:
        return generator_matrix(code), None
    f_a, f_b = split
    n, dim, gen = code.p, code.dimension, code.generator
    dim_a = len(f_a) - 1
    return np.vstack([
        _shift_matrix(product(code.q, (gen, f_a)), n, dim - dim_a),
        _shift_matrix(product(code.q, (gen, f_b)), n, dim_a)]), f_a


def generator_matrix(code):
    """k x n integer matrix whose rows are x**i * g, i < k."""
    return _shift_matrix(code.generator, code.p, code.dimension)


def macwilliams(dual_counts, n, q):
    """Weight distribution A of a linear code of length n over GF(q)
    from the weight distribution B of its dual: A_w = sum_i B_i K_w(i)
    / sum_i B_i, where (w + 1) K_{w+1}(i) = ((q-1)(n-w) + w - q i)
    K_w(i) - (q-1)(n-w+1) K_{w-1}(i), K_0 = 1.  Exact in Python ints,
    with InternalCheckFailed on a remainder; K is evaluated only at weights i
    with B_i != 0."""
    acc = [0] * (n + 1)
    for i, b in enumerate(dual_counts):
        if not b:
            continue
        prev, cur = 0, 1
        for w in range(n + 1):
            acc[w] += b * cur
            prev, cur = cur, (((q - 1) * (n - w) + w - q * i) * cur
                              - (q - 1) * (n - w + 1) * prev) // (w + 1)
    size = sum(dual_counts)
    if any(a % size for a in acc):
        raise InternalCheckFailed(
            f"{size} does not divide the transform {acc}")
    return tuple(a // size for a in acc)


def _kernel_only(use_numba):
    # perfbench/layers.py still passes use_numba=None positionally
    if use_numba:
        raise BackendUnavailable(
            "only the numpy scan kernel exists; pass use_numba=None")


def _smaller_side(codes, cap):
    """Exact distance and weight distribution of C_0 x ... x C_{s-1},
    one cyclic code of length n over GF(q) for a field code and s
    components for a ring code, by enumerating the messages of whichever
    of it and its dual, C_0.dual x ... x C_{s-1}.dual, has fewer (module
    docstring)."""
    from . import _kernels

    n, q, s = codes[0].p, codes[0].q, len(codes)
    ranks = tuple(c.dimension for c in codes)
    k = sum(ranks)
    dual = s * n - k < k
    scanned = [c.dual for c in codes] if dual else codes
    e = min(k, s * n - k)
    if power_exceeds(q, e, cap):
        raise TooLarge(
            f"enumerating {power_text(q, e)} "
            f"{'codewords' if s == 1 else 'component-message tuples'}, the "
            f"smaller of the code ({q}^{k}) and its dual ({q}^{s * n - k}), "
            f"exceeds the cap {int_text(cap)}; raise the cap to proceed")
    total = q**e
    if s == 1:
        gmat, check = _scan_matrix(scanned[0])
        counts = _kernels.scan(gmat, q, check)
    else:
        factors = check_factors(scanned[0])  # of its check polynomial
        counts = _kernels.scan_union(
            [generator_matrix(c) for c in scanned], q,
            product(q, factors) if factors else None)
    counts = tuple(map(int, counts))
    if counts[0] != 1 or sum(counts) != total:
        raise InternalCheckFailed(
            f"the scan of {total} messages gave {counts}")
    if dual:
        counts = macwilliams(counts, n, q**s)
    d_min = next((w for w in range(1, n + 1) if counts[w]), 0)
    return DistanceReport(n, k, d_min, "macwilliams" if dual else "exhaustive",
                          total, counts, ranks if s > 1 else None)


def min_distance_field(code, cap=DEFAULT_CAP, use_numba=None):
    """Exact distance and weight distribution of a field code, by
    enumerating the smaller of the code and its dual."""
    _kernel_only(use_numba)
    return _smaller_side([code], cap)


def min_distance_ring(code, cap=DEFAULT_CAP, use_numba=None):
    """Exact ring distance as the minimum over CRT component distances,
    which all equal the first one's (module docstring)."""
    rep = min_distance_field(code.components[0], cap, use_numba)
    s = len(code.components)
    return DistanceReport(code.p, rep.k, rep.d_min, "component-min",
                          s * rep.enumerated, None, (rep.k,) * s,
                          (rep.d_min,) * s)


def min_distance_ring_exhaustive(code, cap=DEFAULT_CAP):
    """Exact ring distance and weight distribution by enumerating every
    tuple of component messages of the smaller of the code and its dual;
    enumerated is that side's tuple count (module docstring)."""
    return _smaller_side(code.components, cap)


def griesmer_check(n, k, d, q):
    """Bound n >= sum ceil(d / q**i) for i < k; returns (bound, attained).

    q must be a prime power, the order of some GF(q).  A q past the
    largest alphabet madics builds, SIZE_CAP**S_CAP = 2**1984 (ffield),
    is refused with FieldTooLarge before the prime-power test, which
    takes seconds at thousands of digits.  Every term with q**i >= d is
    1, so the sum runs explicitly only up to the first such i and adds
    the remaining terms as their count.
    """
    if n < 1 or k < 1 or d < 1 or q < 2:
        raise InvalidParameter(
            "griesmer check needs n, k, d >= 1 and q >= 2, got "
            f"n={int_text(n)}, k={int_text(k)}, d={int_text(d)}, "
            f"q={int_text(q)}")
    if q > SIZE_CAP**S_CAP:
        raise FieldTooLarge(
            f"q of {q.bit_length()} bits exceeds the largest alphabet "
            f"madics builds, SIZE_CAP**S_CAP = {SIZE_CAP}**{S_CAP}")
    if not is_prime_power(q):
        raise InvalidParameter(
            "griesmer check needs a prime power q, the order of a field; "
            f"got q={int_text(q)}")
    bound, i, qi = 0, 0, 1
    while i < k and qi < d:
        bound += -(-d // qi)
        i, qi = i + 1, qi * q
    bound += k - i
    return bound, bound == n
