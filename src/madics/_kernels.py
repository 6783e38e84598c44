"""Exhaustive codeword scans on packed bit planes.

Every scan histograms one weight over all pairs (h, l), h a row of a
"high" table and l a row of a "low" table.  Rows are stored as bit
planes (plane b holds bit b of every entry), each packed into
ceil(n/64) uint64 words.  ``_distance_counts`` is the one kernel: for a
block of high rows against the whole low table it ORs op(h_b, l_b) over
the planes, counts set bits with ``np.bitwise_count`` and folds the
weights into counts with bincount.  Its callers differ only in the
tables and in op:

    scan         field code: the tables hold words spanned by the
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

Scans are projective: multiplying a message by lambda != 0 moves no
weight that a scan counts.  A scaled component keeps its support, and
for scan lambda h - l = lambda (h - l / lambda), where l -> l / lambda
permutes the low code.  So a projective table holds the zero word (row
0) and one word per projective point: the messages whose most
significant nonzero base-q digit is 1, the rows [q**j, 2 q**j) of the
_words order (see _points), 1 + (q**k - 1)/(q - 1) rows instead of
q**k.  Each row has a key, 0 for the zero word and 1 for a point, which
stands for the q - 1 multiples of its message.  scan_union takes every
component projectively and keys a pair by its number of nonzero
component messages; scan takes its high half projectively and keeps
its low table whole, with key 0.  The kernel histograms (key c, weight
w) and folds A_w = sum_c (q-1)**c counts[c, w] with one int64 product;
c only reaches the number of parts that have a point, so (q-1)**c is
at most the message count the caller's cap bounds.  The fold counts
messages, not words, so it is exact for zero components
and rank-deficient matrices too: counts[0] still counts every message
that maps to the zero word.

A block's largest temporary, pairs x words per plane x 8 bytes, is kept
to BLOCK_BYTES (one high row at least).  Tables are sized by
q**ceil(k/2) words (field) or by each component's projective rows
(ring), never by the total word or tuple count.  counts[0] includes the
zero word.
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


def _points(words, q):
    """The zero word and one word per projective point of a table in the
    _words order, the rows 0 and [q**j, 2 q**j) for q**j < len(words),
    with their keys: (rows, 0 for the zero word and 1 for a point)."""
    rows = [np.zeros(1, dtype=np.int64)]
    top = 1
    while top < len(words):
        rows.append(np.arange(top, 2 * top, dtype=np.int64))
        top *= q
    rows = np.concatenate(rows)
    return words[rows], np.minimum(rows, 1).astype(np.uint8)


def _distance_counts(high, n_high, low, low_keys, n, op, q, n_keys):
    """counts[w] = sum_c (q-1)**c times the number of pairs (i, j), i <
    n_high, where the OR over planes of op(high row i, low row j) has w
    set bits and the keys of rows i and j add up to c < n_keys.  low has
    shape (planes, rows, words) and low_keys one key per low row, or
    None when every low key is 0; high(idx) returns the rows, in the
    same layout, and the keys of the high rows idx.  n_keys - 1 is the
    largest key a pair can reach, so (q-1)**c fits int64 whenever some
    message tuple has c nonzero parts."""
    keyed = q > 2  # every (q-1)**c is 1 when q = 2
    n_keys = n_keys if keyed else 1
    planes, n_low, width = low.shape
    step = max(1, BLOCK_BYTES // (n_low * width * 8))
    bins = n + 1
    atype = np.min_scalar_type(n_keys * bins - 1)
    low_at = (None if low_keys is None
              else np.multiply(low_keys, bins, dtype=atype))
    hist = np.zeros(n_keys * bins, dtype=np.int64)
    for start in range(0, n_high, step):
        block, keys = high(np.arange(start, min(start + step, n_high)))
        diff = op(block[0][:, None], low[0])
        for b in range(1, planes):
            diff |= op(block[b][:, None], low[b])
        at = np.bitwise_count(diff).sum(axis=2, dtype=atype)
        if keyed:
            if low_at is not None:
                at += low_at
            at += np.multiply(keys, bins, dtype=atype)[:, None]
        hist += np.bincount(at.ravel(), minlength=len(hist))
    weights = np.array([(q - 1)**c for c in range(n_keys)], dtype=np.int64)
    return weights @ hist.reshape(n_keys, bins)


def _words(gmat, q):
    """All q**k words spanned by gmat's k rows mod q, one per table row.
    Each step adds the q multiples of a row to the table in a type that
    holds 2(q-1) and reduces with min(x, x - q), since x - q wraps past
    x in an unsigned type when x < q: no integer division."""
    n = gmat.shape[1]
    gmat = np.asarray(gmat, dtype=np.int64) % q
    dtype = np.min_scalar_type(2 * (q - 1))
    digits = np.arange(q, dtype=np.int64)[:, None]
    table = np.zeros((1, n), dtype=dtype)
    for row in gmat:
        table = (digits * row % q).astype(dtype)[:, None] + table
        table = np.minimum(table, table - dtype.type(q)).reshape(-1, n)
    return table.astype(np.min_scalar_type(q - 1), copy=False)


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
    words, keys = _points(_words(gmat[half:], q), q)
    high = _planes(words, bits)
    counts = _distance_counts(lambda idx: (high[:, idx], keys[idx]),
                              len(keys), low, None, gmat.shape[1],
                              np.bitwise_xor, q, 2)
    return min_weight(counts), counts


def scan_union(gmats, q):
    """Weight distribution of the unions of supports, one word from each
    matrix's code, over every tuple of messages; returns
    (min_weight(counts), counts)."""
    tables = [(_planes(np.minimum(words, 1), 1)[0], keys)
              for words, keys in (_points(_words(g, q), q) for g in gmats)]
    *high_tables, (last, last_keys) = tables
    # the high side of a one-component scan is the zero word alone; a
    # key counts the components with a point, at most len(gmats)
    empty = (np.zeros_like(last[:1]),
             np.zeros(1, np.min_scalar_type(len(gmats))))

    def high(idx):
        rows, keys = empty
        for table, table_keys in reversed(high_tables):
            idx, digit = np.divmod(idx, len(table))
            rows, keys = rows | table[digit], keys + table_keys[digit]
        return rows[None], keys

    n_high = math.prod(len(t) for t, _ in high_tables)
    counts = _distance_counts(high, n_high, last[None], last_keys,
                              gmats[-1].shape[1], np.bitwise_or, q,
                              1 + sum(len(keys) > 1 for _, keys in tables))
    return min_weight(counts), counts
