"""Exact minimum distances, weight distributions and Griesmer checks.

A field code of dimension k is measured by enumerating whichever of C
and its dual is smaller.  When n - k >= k the scan runs over the q**k
messages of C; when n - k < k it runs over the q**(n-k) messages of the
dual (generated by the monic reciprocal of the check polynomial
(x**n - 1)/g) and the MacWilliams identity turns the dual's weight
distribution B into C's, A_w = q**-(n-k) sum_i B_i K_w(i), with the
Krawtchouk values K_w(i) exact Python ints from their three-term
recurrence.  Either way the counts are Python ints (past the cap A_w
exceeds int64), and the cap (default DEFAULT_CAP = 2**24) bounds the
words actually scanned, min(q**k, q**(n-k)): a larger scan is refused
with TooLarge.  The exhaustive ring method holds its tuple count, the
product of the component word counts, to the same cap.  Ring codes are
measured two ways: the component-min method takes the minimum of the
CRT component distances, which is exact because a ring codeword's
support is the union of its component supports and the components are
independent; the exhaustive method counts every tuple of component
messages and is used as a cross-check on small instances.  Scaling a
component message leaves the union unchanged, so its scan visits one
message per projective point of each component and weighs each pair
by (q-1) to the number of its nonzero components (see _kernels); its
enumerated count and its cap stay the full tuple count.

numpy and the scan kernel (_kernels) are imported inside the functions
that build a generator matrix or scan, so importing madics or its CLI
does not load numpy; it loads on the first scan only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import poly
from .errors import BackendUnavailable, InvalidParameter, TooLarge
from .ffield import is_prime_power

DEFAULT_CAP = 1 << 24


@dataclass(frozen=True)
class DistanceReport:
    """Outcome of one distance computation.

    k is the rank of the enumeration basis: the code dimension for a
    field code, the sum of component ranks for an exhaustive ring run,
    and the common component rank (or None when ranks differ) for the
    component-min method.  weight_distribution is A_0..A_n (Python
    ints) when the method accounts for every word, else None.  The zero
    code reports d_min = 0.

    method is "exhaustive" when the scan ran over the code itself (or,
    for a ring code, over every tuple of component messages),
    "macwilliams" when it ran over the dual code and A came from the
    MacWilliams identity, and "component-min" for the minimum over the
    CRT components.  enumerated is the number of words whose weights
    were counted: q**k, the dual's q**(n-k), the tuple count, or the
    sum over the components.
    """

    n: int
    k: int | None
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
    for i in range(k):
        mat[i, i:i + len(gen)] = gen
    return mat


def generator_matrix(code):
    """k x n integer matrix whose rows are x**i * g, i < k."""
    if code.ctx.t != 1:
        raise ValueError("generator_matrix expects a prime-field code")
    return _shift_matrix(code.generator, code.p, code.dimension)


def dual_generator(code):
    """Generator of the dual of <g>: the monic reciprocal of the check
    polynomial (x**n - 1)/g, whose constant term is nonzero."""
    ctx = code.ctx
    check = poly.div_exact(ctx, poly.xn_minus_1(ctx, code.p), code.generator)
    return poly.monic(ctx, check[::-1])


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
    if k == 0:
        dist = (1,) + (0,) * n
        return DistanceReport(n, 0, 0, "exhaustive", 1, dist)
    dual = n - k < k
    total = q**(n - k if dual else k)
    if total > cap:
        raise TooLarge(
            f"enumerating {total} codewords, the smaller of the code "
            f"({q}^{k}) and its dual ({q}^{n - k}), exceeds the cap {cap}; "
            "raise the cap to proceed")
    if not dual:
        best, counts = _kernels.scan(generator_matrix(code), q)
        return DistanceReport(n, k, best, "exhaustive", total,
                              tuple(int(c) for c in counts))
    gmat = _shift_matrix(dual_generator(code), n, n - k)
    dist = macwilliams([int(c) for c in _kernels.scan(gmat, q)[1]], n, q)
    best = next((w for w in range(1, n + 1) if dist[w]), 0)
    return DistanceReport(n, k, best, "macwilliams", total, dist)


def _component_sizes(code):
    q = code.ring.q
    return [q**c.dimension for c in code.components]


def min_distance_ring(code, cap=DEFAULT_CAP, use_numba=None):
    """Exact ring distance as the minimum over CRT component distances."""
    _kernel_only(use_numba)
    reports = [min_distance_field(c, cap) for c in code.components]
    ranks = tuple(r.k for r in reports)
    dmins = tuple(r.d_min for r in reports)
    live = [d for d in dmins if d > 0]
    d = min(live) if live else 0
    common = ranks[0] if len(set(ranks)) == 1 else None
    return DistanceReport(code.p, common, d, "component-min",
                          sum(r.enumerated for r in reports),
                          None, ranks, dmins)


def min_distance_ring_exhaustive(code, cap=DEFAULT_CAP):
    """Exact ring distance by enumerating every component-message tuple.

    The support of a ring word is the union of the component supports,
    so the kernel folds 0/1 support tables across components, one row
    per projective point of each; enumerated is the full tuple count.
    """
    from . import _kernels

    n, q = code.p, code.ring.q
    total = math.prod(_component_sizes(code))
    if total > cap:
        raise TooLarge(
            f"enumerating {total} component-message tuples exceeds the cap "
            f"{cap}; raise the cap to proceed")
    d, counts = _kernels.scan_union(
        [generator_matrix(c) for c in code.components], q)
    ranks = tuple(c.dimension for c in code.components)
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
