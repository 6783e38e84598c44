"""Exact minimum distances, weight distributions and Griesmer checks.

A field code of dimension k is measured by enumerating whichever of C
and its dual is smaller.  When n - k >= k the scan runs over the q**k
messages of C; when n - k < k it runs over the q**(n-k) messages of
C.dual, the family partner of field_codes (the code whose nonzeros are
the negated zeros of C), and the MacWilliams identity turns the dual's
weight distribution B into C's, A_w = q**-(n-k) sum_i B_i K_w(i), with
the Krawtchouk values K_w(i) exact Python ints from their three-term
recurrence.  Either way the counts are Python ints (past the cap A_w
exceeds int64), and the cap (default DEFAULT_CAP = 2**24) bounds the
words actually scanned, min(q**k, q**(n-k)): a larger scan is refused
with TooLarge.  The zero code scans its one word like any other.

The scanned code, C or C.dual, is cyclic, so its check polynomial
factors into the coset factors of its nonzeros (CyclicCode.nonzeros,
field_codes.check_factors).  _split divides them between two ideals,
C = A + B: A takes the factors whose degrees sum to the most that is at
most ceil(dim/2), and the kernel tabulates every word of B against one
word of A per orbit of the group generated by the cyclic shift and the
scalars, weighed by the orbit size (see _kernels).  The scan has no
split for an irreducible check polynomial or a dim A below 2, a B of
more than SPLIT_LOW_ROWS words (its low table), or fewer than
SPLIT_MIN_WORDS words in all; then the same orbit builder groups the
upper half of the rows by the scalars alone.  The
exhaustive ring method holds its tuple count, the product of the
component word counts, to the same cap.  Ring codes are
measured two ways: the component-min method takes the minimum of the
CRT component distances, which is exact because a ring codeword's
support is the union of its component supports and the components are
independent; the exhaustive method counts every tuple of component
messages and is used as a cross-check on small instances.  A ring
code's components are members of one family_codes tuple, which a
multiplier mu_b, b in Q_1, permutes cyclically, so they share one
weight distribution: component-min scans the first alone and reports
its rank (k) and distance for all s, and enumerated stays the sum of
the s components' word counts.  A union weight depends on the component
supports alone, so its scan visits one row per distinct support of
each later component, weighed by the number of messages with that
support.  Every component is cyclic, so the first one is reduced, as in
a split field scan, to one word per orbit of the cyclic shift (x mod
its check polynomial) and the scalars, folded by support and weighed
by the orbit sizes (see _kernels); its enumerated count and its cap
stay the full tuple count.

numpy and the scan kernel (_kernels) are imported inside the functions
that build a generator matrix or scan, so importing madics or its CLI
does not load numpy; it loads on the first scan only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DEFAULT_CAP, BackendUnavailable, InvalidParameter, TooLarge
from .ffield import is_prime_power
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

    k is the rank of the enumeration basis: the code dimension for a
    field code, the sum of component ranks for an exhaustive ring run,
    and the common component rank for component-min.  weight_distribution
    is A_0..A_n (Python ints) when the method accounts for every word,
    else None.  The zero code reports d_min = 0.

    method is "exhaustive" when the scan ran over the code itself (or,
    for a ring code, over every tuple of component messages),
    "macwilliams" when it ran over the dual code and A came from the
    MacWilliams identity, and "component-min" for the minimum over the
    CRT components.  enumerated is the number of words whose weights
    were counted: q**k, the dual's q**(n-k), the tuple count, or the
    sum over the s components, each counted as if scanned.
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
    K_w(i) - (q-1)(n-w+1) K_{w-1}(i), K_0 = 1.  Exact in Python ints;
    K is evaluated only at weights i with B_i != 0."""
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
    return tuple(a // size for a in acc)


def _kernel_only(use_numba):
    # perfbench/layers.py still passes use_numba=None positionally
    if use_numba:
        raise BackendUnavailable(
            "only the numpy scan kernel exists; pass use_numba=None")


def min_distance_field(code, cap=DEFAULT_CAP, use_numba=None):
    """Exact distance and weight distribution of a field code, by
    enumerating the smaller of the code and its dual."""
    from . import _kernels

    _kernel_only(use_numba)
    n, k, q = code.p, code.dimension, code.q
    scanned = code.dual if n - k < k else code
    total = q**scanned.dimension
    if total > cap:
        raise TooLarge(
            f"enumerating {total} codewords, the smaller of the code "
            f"({q}^{k}) and its dual ({q}^{n - k}), exceeds the cap {cap}; "
            "raise the cap to proceed")
    gmat, check = _scan_matrix(scanned)
    best, counts = _kernels.scan(gmat, q, check)
    counts = [int(c) for c in counts]
    if scanned is code:
        return DistanceReport(n, k, best, "exhaustive", total, tuple(counts))
    dist = macwilliams(counts, n, q)
    best = next((w for w in range(1, n + 1) if dist[w]), 0)
    return DistanceReport(n, k, best, "macwilliams", total, dist)


def min_distance_ring(code, cap=DEFAULT_CAP, use_numba=None):
    """Exact ring distance as the minimum over CRT component distances,
    which all equal the first one's (module docstring)."""
    rep = min_distance_field(code.components[0], cap, use_numba)
    s = len(code.components)
    return DistanceReport(code.p, rep.k, rep.d_min, "component-min",
                          s * rep.enumerated, None, (rep.k,) * s,
                          (rep.d_min,) * s)


def min_distance_ring_exhaustive(code, cap=DEFAULT_CAP):
    """Exact ring distance by enumerating every component-message tuple.

    The support of a ring word is the union of the component supports,
    so the kernel folds 0/1 support tables across components, one row
    per distinct support of each (of its shift-and-scalar orbits for
    the first), weighed by its message count; enumerated is the full
    tuple count.
    """
    from . import _kernels

    n, q, ranks = code.p, code.ring.q, code.component_ranks
    total = q**sum(ranks)
    if total > cap:
        raise TooLarge(
            f"enumerating {total} component-message tuples exceeds the cap "
            f"{cap}; raise the cap to proceed")
    factors = check_factors(code.components[0])  # of its check polynomial
    check = product(q, factors) if factors else None
    d, counts = _kernels.scan_union(
        [generator_matrix(c) for c in code.components], q, check)
    return DistanceReport(n, sum(ranks), d, "exhaustive", total,
                          tuple(int(c) for c in counts),
                          ranks, None)


def griesmer_check(n, k, d, q):
    """Bound n >= sum ceil(d / q**i) for i < k; returns (bound, attained).

    q must be a prime power, the order of some GF(q).  Every term with
    q**i >= d is 1, so the sum runs explicitly only up to the first
    such i and adds the remaining terms as their count.
    """
    if n < 1 or k < 1 or d < 1 or q < 2:
        raise InvalidParameter(
            f"griesmer check needs n, k, d >= 1 and q >= 2, got n={n}, "
            f"k={k}, d={d}, q={q}")
    if not is_prime_power(q):
        raise InvalidParameter(
            "griesmer check needs a prime power q, the order of a field; "
            f"got q={q}")
    bound, i, qi = 0, 0, 1
    while i < k and qi < d:
        bound += -(-d // qi)
        i, qi = i + 1, qi * q
    bound += k - i
    return bound, bound == n
