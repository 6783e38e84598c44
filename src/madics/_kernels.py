"""Exhaustive codeword scans on packed bit planes.

Every scan histograms one weight over all pairs (h, l), h a row of a
"high" table and l a row of a "low" table.  Rows are stored as bit
planes (plane b holds bit b of every entry), each packed into
ceil(n/64) uint64 words.  ``_distance_counts`` is the one kernel: for a
block of high rows against the whole low table it ORs op(h_b, l_b) over
the planes, counts set bits with ``np.bitwise_count`` and folds the
weights into counts with bincount.  Its callers differ only in the
planes and in op:

    scan         field code: the tables hold every word spanned by the
                 upper and the lower half of G's rows, so each codeword
                 is one h + l.  The low words are a linear code, which
                 negation permutes, so the weights of all h + l are the
                 distances of all pairs h, l: op = XOR on the
                 (q-1).bit_length() planes of the binary digits.
    scan_union   ring code: a ring word's support is the union of its
                 CRT component supports, so op = OR on one plane of 0/1
                 supports.  High rows are ORs of the first components'
                 supports, gathered per block; the low table is the
                 last component's.

Only one high message per line is scanned: the messages whose most
significant nonzero base-q digit is 1, the rows [q**j, 2 q**j) of the
_words order (see _lines).  Scaling a whole high message by lambda != 0
keeps the histogram over the low side: for scan, lambda h - l =
lambda (h - l / lambda) and l -> l / lambda permutes the low code;
for scan_union, supports do not change.  So the line counts are
multiplied by q - 1, and the zero high row, whose pairs op(0, l) = l
are the low table itself for XOR and OR, is added from the low table's
own weights.  This is exact for rank-deficient matrices too: counts[0]
still counts every message that maps to the zero word.

A block's largest temporary, pairs x words per plane x 8 bytes, is kept
to BLOCK_BYTES (one high row at least).  Tables are sized by
q**ceil(k/2) words (field) or each component's word count (ring), never
by the total word or tuple count.  counts[0] includes the zero word.
"""

from __future__ import annotations

import math

import numpy as np

BLOCK_BYTES = 1 << 18


def _planes(table, bits):
    """Planes b < bits of a table, plane b holding bit b of each entry,
    each row packed into ceil(n/64) uint64 words: (bits, rows, words)."""
    rows, n = table.shape
    packed = np.zeros((bits, rows, -(-n // 64) * 8), dtype=np.uint8)
    for b in range(bits):
        packed[b, :, :-(-n // 8)] = np.packbits(table >> b & 1, axis=1)
    return packed.view(np.uint64)


def _lines(n_high, q):
    """Message indices of the lines of q**kh = n_high high messages,
    one per line: position t is the index q**j + r, r < q**j, of the
    t-th message whose most significant nonzero base-q digit is 1, the
    rows [q**j, 2 q**j) of the _words order for j = 0, 1, ..., kh - 1."""
    tops, top = [], 1
    while top < n_high:
        tops.append(top)
        top *= q
    tops = np.array(tops, dtype=np.int64)
    firsts = np.cumsum(tops) - tops  # position of the line q**j

    def lines(start, stop):
        pos = np.arange(start, stop, dtype=np.int64)
        j = np.searchsorted(firsts, pos, side="right") - 1
        return tops[j] + pos - firsts[j]

    return (n_high - 1) // (q - 1), lines


def _distance_counts(high, n_high, low, n, op, q):
    """counts[w] = number of pairs (i, j), i < n_high, where the OR over
    planes of op(high row i, low row j) has w set bits.  low has shape
    (planes, rows, words); high(idx) returns the high rows of the
    message indices idx in the same layout.  n_high is a power of q."""
    planes, n_low, width = low.shape
    step = max(1, BLOCK_BYTES // (n_low * width * 8))
    wtype = np.min_scalar_type(n)
    counts = np.zeros(n + 1, dtype=np.int64)
    n_lines, lines = _lines(n_high, q)
    for start in range(0, n_lines, step):
        block = high(lines(start, min(start + step, n_lines)))[:, :, None]
        diff = op(block[0], low[0])
        for b in range(1, planes):
            diff |= op(block[b], low[b])
        dist = np.bitwise_count(diff).sum(axis=2, dtype=wtype)
        counts += np.bincount(dist.ravel(), minlength=n + 1)
    counts *= q - 1
    # the zero high row: op(0, l) = l for XOR and OR
    zero = np.bitwise_or.reduce(low, axis=0)
    counts += np.bincount(np.bitwise_count(zero).sum(axis=1, dtype=wtype),
                          minlength=n + 1)
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
    bits = (q - 1).bit_length()
    low = _planes(_words(gmat[:half], q), bits)
    high = _planes(_words(gmat[half:], q), bits)
    counts = _distance_counts(lambda idx: high[:, idx], high.shape[1], low,
                              gmat.shape[1], np.bitwise_xor, q)
    return min_weight(counts), counts


def scan_union(gmats, q):
    """Weight distribution of the unions of supports, one word from each
    matrix's code, over every tuple of messages; returns
    (min_weight(counts), counts)."""
    *high_tables, last = [_planes(np.minimum(_words(g, q), 1), 1)[0]
                          for g in gmats]

    def high(idx):
        rows = np.zeros((1, len(idx), last.shape[1]), dtype=np.uint64)
        for table in reversed(high_tables):
            idx, digit = np.divmod(idx, len(table))
            rows[0] |= table[digit]
        return rows

    n_high = math.prod(len(t) for t in high_tables)
    counts = _distance_counts(high, n_high, last[None], gmats[-1].shape[1],
                              np.bitwise_or, q)
    return min_weight(counts), counts
