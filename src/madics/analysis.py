"""Exact minimum distances, weight distributions and Griesmer checks.

Field codes are measured by exhaustive enumeration of all q**k
messages (k <= 24ish; the cap keeps the cost contract explicit).  Ring
codes are measured two ways: the component-min method takes the
minimum of the CRT component distances, which is exact because a ring
codeword's support is the union of its component supports and the
components are independent; the exhaustive method enumerates every
tuple of component messages and is used as a cross-check on small
instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import BackendUnavailable, TooLarge

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
    """Bound n >= sum ceil(d / q**i) for i < k; returns (bound, attained)."""
    if k < 1 or d < 1:
        raise ValueError("griesmer_check needs k >= 1 and d >= 1")
    bound = sum(-(-d // q**i) for i in range(k))
    return bound, bound == n
