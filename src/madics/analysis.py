"""Exact minimum distances, weight distributions and Griesmer checks.

Field codes are measured by exhaustive enumeration of all q**k
messages, refused with TooLarge unless q**k <= cap (default
DEFAULT_CAP = 2**24; the exhaustive ring method holds its tuple count,
the product of the component word counts, to the same cap).  Ring
codes are measured two ways: the component-min method takes the
minimum of the CRT component distances, which is exact because a ring
codeword's support is the union of its component supports and the
components are independent; the exhaustive method enumerates every
tuple of component messages and is used as a cross-check on small
instances.

numpy and the scan kernel (_kernels) are imported inside the functions
that build a generator matrix or scan, so importing madics or its CLI
does not load numpy; it loads on the first scan only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BackendUnavailable, InvalidParameter, TooLarge
from .ffield import factorize

DEFAULT_CAP = 1 << 24


@dataclass(frozen=True)
class DistanceReport:
    """Outcome of one distance computation.

    k is the rank of the enumeration basis: the code dimension for a
    field code, the sum of component ranks for an exhaustive ring run,
    and the common component rank (or None when ranks differ) for the
    component-min method.  weight_distribution is A_0..A_n when the
    method enumerated every word, else None.  The zero code reports
    d_min = 0.
    """

    n: int
    k: int | None
    d_min: int
    method: str
    enumerated: int
    weight_distribution: tuple | None = None
    component_ranks: tuple | None = None
    component_dmins: tuple | None = None


def generator_matrix(code):
    """k x n integer matrix whose rows are x**i * g, i < k."""
    import numpy as np

    ctx = code.ctx
    if ctx.t != 1:
        raise ValueError("generator_matrix expects a prime-field code")
    n, gen = code.p, code.generator
    k = code.dimension
    mat = np.zeros((k, n), dtype=np.int64)
    for i in range(k):
        for jj, c in enumerate(gen):
            mat[i, (i + jj) % n] = c
    return mat


def _kernel_only(use_numba):
    # perfbench/layers.py still passes use_numba=None positionally
    if use_numba:
        raise BackendUnavailable(
            "only the numpy scan kernel exists; pass use_numba=None")


def min_distance_field(code, cap=DEFAULT_CAP, use_numba=None):
    """Exact distance of a field code by full message enumeration."""
    from . import _kernels

    _kernel_only(use_numba)
    n, k, q = code.p, code.dimension, code.q
    if k == 0:
        dist = (1,) + (0,) * n
        return DistanceReport(n, 0, 0, "exhaustive", 1, dist)
    total = q**k
    if total > cap:
        raise TooLarge(
            f"enumerating {q}^{k} = {total} codewords exceeds the cap {cap}; "
            "raise the cap to proceed")
    best, counts = _kernels.scan(generator_matrix(code), q)
    return DistanceReport(n, k, best, "exhaustive", total,
                          tuple(int(c) for c in counts))


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
    so the kernel folds 0/1 support tables across components.
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
    if len(factorize(q)) != 1:
        raise InvalidParameter(
            "griesmer check needs a prime power q, the order of a field; "
            f"got q={q}")
    bound, i, qi = 0, 0, 1
    while i < k and qi < d:
        bound += -(-d // qi)
        i, qi = i + 1, qi * q
    bound += k - i
    return bound, bound == n
