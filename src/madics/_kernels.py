"""Exhaustive codeword scans.

Every distance computation histograms the Hamming weights of all words
h + l, where h runs over the rows of a "high" table and l over the rows
of a "low" table.  With entries in [0, q), h + l vanishes mod q exactly
where h equals -l mod q, so the weight of h + l is the Hamming distance
from h to the negated low row.  ``_distance_counts`` is the one kernel:
it compares blocks of high rows with the whole negated low table, at
most BLOCK_BYTES of comparisons at a time, and folds the distances into
counts with bincount.  Its two callers:

    scan         field code: the high and low tables hold every word
                 spanned by the upper and the lower half of G's rows
    scan_union   ring code: a ring word's support is the union of its
                 CRT component supports; the high rows are ORs of the
                 first components' 0/1 support tables, gathered per
                 block, and the low table is the last component's.  As
                 0/1 entries mod 3, h + l is nonzero exactly on h | l.

Tables are sized by q**ceil(k/2) words (field) or by each component's
word count (ring), never by the total word or tuple count.  counts[0]
includes the zero word.
"""

from __future__ import annotations

import math

import numpy as np

BLOCK_BYTES = 1 << 20


def _distance_counts(high, n_high, low):
    """counts[w] = number of pairs (i, j), i < n_high, at Hamming
    distance w, between high row i and low row j.  high(start, stop)
    returns high rows start..stop-1."""
    n = low.shape[1]
    step = max(1, BLOCK_BYTES // low.nbytes)
    wtype = np.min_scalar_type(n)
    counts = np.zeros(n + 1, dtype=np.int64)
    for start in range(0, n_high, step):
        block = high(start, min(start + step, n_high))
        dist = (block[:, None, :] != low[None, :, :]).sum(axis=2, dtype=wtype)
        counts += np.bincount(dist.ravel(), minlength=n + 1)
    return counts


def _words(gmat, q):
    """All q**k words spanned by gmat's k rows mod q, one per table row."""
    n = gmat.shape[1]
    gmat = np.asarray(gmat, dtype=np.int64) % q
    dtype = np.min_scalar_type(q - 1)
    digits = np.arange(q, dtype=np.int64)[:, None, None]
    table = np.zeros((1, n), dtype=dtype)
    for row in gmat:
        table = ((table + digits * row) % q).astype(dtype).reshape(-1, n)
    return table


def min_weight(counts):
    """Least weight of a nonzero message: 0 when one maps to the zero
    word (counts[0] > 1), else the least w >= 1 with counts[w] > 0 (0
    when there is none)."""
    live = np.flatnonzero(counts[1:])
    if counts[0] > 1 or not live.size:
        return 0
    return int(live[0]) + 1


def scan(gmat, q):
    """Weight distribution of all q**k messages of the k x n matrix
    gmat; returns (min_weight(counts), counts)."""
    half = (len(gmat) + 1) // 2
    low = (q - _words(gmat[:half], q)) % q
    high = _words(gmat[half:], q)
    counts = _distance_counts(lambda a, b: high[a:b], len(high), low)
    return min_weight(counts), counts


def scan_union(gmats, q):
    """Weight distribution of the unions of supports, one word from each
    matrix's code, over every tuple of messages; returns
    (min_weight(counts), counts)."""
    supports = [(_words(g, q) != 0).astype(np.uint8) for g in gmats]
    *high_tables, last = supports
    low = 2 * last

    def high(start, stop):
        idx = np.arange(start, stop, dtype=np.int64)
        rows = np.zeros((stop - start, last.shape[1]), dtype=np.uint8)
        for table in reversed(high_tables):
            idx, digit = np.divmod(idx, len(table))
            rows |= table[digit]
        return rows

    n_high = math.prod(len(t) for t in high_tables)
    counts = _distance_counts(high, n_high, low)
    return min_weight(counts), counts
