"""Exhaustive codeword scans on packed bit planes.

Every scan histograms one weight over all pairs (h, l), h a row of a
"high" table and l a row of a "low" table.  Rows are stored as bit
planes (plane b holds bit b of every entry), each packed into
ceil(n/64) uint64 words with entry j at bit j % 64 of word j // 64.
``_distance_counts`` is the one kernel: for a block of high rows
against the whole low table it ORs op(h_b, l_b) over the planes, counts
set bits with ``np.bitwise_count`` and folds the weights into counts
with bincount.  Every high row carries a weight, the int64 number of
messages it stands for, and every low row a key, an index into a small
table of message counts, mult_low.  The kernel histograms each block
per (high row i, low key b, weight w) and folds A_w = sum_ib
weight[i] mult_low[b] counts[i, b, w] with one int64 product.  The
fold counts messages, not words, so it is exact for zero components
and rank-deficient matrices too: counts[0] counts every message that
maps to the zero word.  The index (i len(mult_low) + b) (n + 1) + w is
built in the least unsigned type that holds the block's largest one.
Its callers differ in the tables, the counts and op:

    scan         field code: the tables hold words spanned by two
                 sets of G's rows, so each codeword is one h + l.  The
                 low words are a linear code, which negation permutes,
                 so the weights of all h + l are the distances of all
                 pairs h, l: op = XOR on the (q-1).bit_length() planes
                 of the binary digits.
    scan_union   ring code: a ring word's support is the union of its
                 CRT component supports, so op = OR on one plane of 0/1
                 supports, and a weight depends on supports alone.
                 High rows are ORs of the first components' supports,
                 gathered per block; the low table is the last
                 component's.

scan's high table holds one word per orbit of a group acting on the
messages of its rows, weighed by the orbit size, and its low table is
a code L that the group maps onto itself, kept whole (mult_low = [1]).
Then hist(g h + L) = hist(g (h + L)) = hist(h + L) for each g of the
group, so one word stands for its orbit.  _orbit_words builds every
such table, the word of each orbit's least message with the orbit
sizes, for one of two groups:

    scalars      without check: the low table is the span of the
                 lower half of G's rows, the high table the zero word
                 and one word per projective point of the upper half,
                 the messages whose most significant nonzero base-q
                 digit is 1, read off directly as the rows [q**j,
                 2 q**j) of the _words order: 1 + (q**k - 1)/(q - 1)
                 rows instead of q**k, sizes 1 and q - 1.
    <x, scalars> with check = f_A: G's rows span a cyclic code
                 C = A + B, two ideals, where A has check polynomial
                 f_A and its rows x**i a come last.  The low table is
                 every word of B, which the cyclic shift and the
                 scalars map onto itself; the high table is one word of
                 A per orbit of the shift, m -> x m mod f_A on A's
                 messages, and the scalars.  A shift orbit has p words
                 unless the word is fixed, so [127,15]_2 visits 4 x 128
                 pairs where the scalar orbits visit 128 x 256.

The orbits of <x, scalars> are labeled in message space: each
generator is a k x k matrix acting on base-q digit vectors, _words of
its rows tabulates every image in message order, and _least_labels
doubles the power of the generator each step, leaving the least
message of each cycle.

scan_union works on support classes.  Every component's table is
_supports of its _orbit_words: each distinct support of the orbit
words once, with the summed sizes of the orbits that have it, the
number of messages with that support.  A later component's table, and
the first one's without check, folds the scalar orbits: the zero word,
counted once, and one word per projective point, counted q - 1 times.
Different points can share a support, and in a rank-deficient matrix
a point can have the empty one.  A low row's key indexes the last
table's distinct counts, mult_low; a high row, a tuple of classes of
the other tables gathered per block, weighs the product of their
counts, at most the message count the caller's cap bounds.

A simultaneous cyclic shift of every component permutes the tuples,
and the scalars keep every support.  So when every later component
spans a cyclic code, the histogram H(c) of union weights over the later
components, given the first component's word c, is the same for every
word of c's orbit under <x, scalars>.  With check = f, the first
matrix's rows are x**i a for the ideal with check polynomial f, as in
scan, and its table folds the orbits of <x, scalars> instead.  Two
orbits whose supports are rotations of each other keep a row each, so
the table can hold more rows than there are rotation classes of
supports: (5, 11, 2, 2) even-I visits 39 x 343 pairs, (3, 11, 2, 3)
12 x 122 x 122.  The caller vouches for the cyclic codes; without
check any matrices scan exactly, grouped by the scalars alone.
Tables deduplicate on the bytes of their packed rows in dicts, without
a sort: the first np.unique or np.sort call of a process pages in
numpy code that the peak resident size of a run would show.

A block's pair table, pairs x words per plane x 8 bytes, and its
per-row histograms, rows x len(mult_low) (n + 1) x 8 bytes, are each
kept to BLOCK_BYTES (one high row at least), and the pair table is
freed before bincount copies the block's indices to intp, so those two
are never held at once.
_orbit_words holds at most 2 q**(k-1) words without check and q**k
labels with it, k its matrix's rows, so tables are sized by
q**ceil(k/2) words (scalar-only field scans), by the caller's bound on
B and q**dim(A) labels (split field scans: analysis.SPLIT_LOW_ROWS),
or by 2 q**(k-1) words per later component and the first one's q**k
labels (ring), never by the total word or tuple count.  scan and
scan_union return the counts alone: analysis._smaller_side checks them
and reads d_min.
"""

from __future__ import annotations

import math

import numpy as np

from .ffield import make_prime_field

BLOCK_BYTES = 1 << 18


def _pack(table):
    """The supports of a table's rows (its last axis), each packed into
    ceil(n/64) uint64 words with entry j at bit j % 64 of word j // 64."""
    *lead, n = table.shape
    packed = np.zeros((*lead, -(-n // 64) * 8), dtype=np.uint8)
    packed[..., :-(-n // 8)] = np.packbits(table, axis=-1, bitorder="little")
    return packed.view("<u8")


def _planes(table, bits):
    """Planes b < bits of a table, plane b packing bit b of each entry:
    (bits, rows, words)."""
    masks = np.array([1 << b for b in range(bits)], dtype=table.dtype)
    return _pack(table & masks[:, None, None])


def _distance_counts(high, n_high, low, low_keys, mult_low, n, op):
    """counts[w] = the sum of weight(i) * mult_low[b] over the pairs
    (i, j), i < n_high, where the OR over planes of op(high row i, low
    row j) has w set bits and b is the key of low row j.  low has shape
    (planes, rows, words) and low_keys one key per low row, read only
    when mult_low has more than one entry; high(start, stop) returns the
    high rows [start, stop), in the same layout, and their int64
    weights.  Every weight times mult_low[b] is at most the message
    count the caller's cap bounds, so the fold fits int64."""
    planes, n_low, width = low.shape
    bins = len(mult_low) * (n + 1)  # one histogram per high row
    step = min(n_high, max(1, BLOCK_BYTES // (max(n_low * width, bins) * 8)))
    atype = np.min_scalar_type(step * bins - 1)  # the block's indices
    # block row i against low row j counts into i bins + key(j) (n + 1)
    rows = (np.arange(step) * bins).astype(atype)[:, None]
    low_at = ((np.asarray(low_keys, np.intp) * (n + 1)).astype(atype)
              if len(mult_low) > 1 else None)
    mult_low = np.array(mult_low, dtype=np.int64)
    counts = np.zeros(n + 1, dtype=np.int64)
    for start in range(0, n_high, step):
        block, weights = high(start, min(start + step, n_high))
        diff = op(block[0][:, None], low[0])
        for b in range(1, planes):
            diff |= op(block[b][:, None], low[b])
        ones = np.bitwise_count(diff)
        del diff  # freed before bincount makes its own intp copy of at
        at = ones[..., 0] + rows[:len(weights)]
        for w in range(1, width):  # a word slice at a time: few words
            at += ones[..., w]
        del ones
        if low_at is not None:
            at += low_at
        hist = np.bincount(at.ravel(), minlength=len(weights) * bins)
        counts += np.outer(weights, mult_low).ravel() @ hist.reshape(-1, n + 1)
    return counts


def _words(gmat, q, last=None):
    """All q**k words spanned by gmat's k rows mod q, one per table row:
    row sum_i c_i q**i holds sum_i c_i g_i.  Each step adds the q
    multiples of a row to the table in a type that holds 2(q-1) and
    reduces with min(x, x - q), since x - q wraps past x in an unsigned
    type when x < q: no integer division.  With last = d the last row
    adds only its multiples c < d: the first d q**(k-1) rows."""
    n, k = gmat.shape[1], len(gmat)
    dtype = np.min_scalar_type(2 * (q - 1))
    multiples = (np.arange(q)[:, None, None] * np.asarray(gmat, np.int64)
                 % q).astype(dtype)
    table = np.zeros((1, n), dtype=dtype)
    for i in range(k):
        table = multiples[:last if i == k - 1 else q, i, None] + table
        table = np.minimum(table, table - dtype.type(q)).reshape(-1, n)
    return table.astype(np.min_scalar_type(q - 1), copy=False)


def _least_labels(label, perm, steps):
    """Each label replaced by the least label over perm**s(i), s <
    2**steps: with 2**steps at least the order of perm, the least label
    on each cycle.  Each doubling step takes the least label over twice
    as many powers of perm."""
    for _ in range(steps):
        label = np.minimum(label, label[perm])
        perm = perm[perm]
    return label


def _orbit_words(gmat, q, check=None):
    """One word per orbit of a group on the q**k messages of gmat's k
    rows, the word of the orbit's least message in the _words order,
    with the orbit sizes (module docstring).  Without check the group is
    the scalars, whose orbits' least messages are 0 and those with most
    significant nonzero digit 1: the rows 0 and [q**j, 2 q**j), j < k,
    each g_j plus a word of the rows below it, sizes 1 and q - 1.  The
    last row enters with digits 0 and 1 only, so the table stops at
    2 q**(k-1) rows.  With check = f the group is <x mod f, scalars>,
    generated by the shift m -> x m mod f, the companion matrix of f,
    and a primitive root mod q times the identity; it is abelian, so
    _least_labels over each generator in turn leaves the least message
    of each orbit."""
    k, n = gmat.shape
    if check is None:
        words = _words(gmat, q, 2)
        points = np.concatenate([words[:1]] + [words[q**j:2 * q**j]
                                               for j in range(k)])
        return points, [1] + [q - 1] * (len(points) - 1)
    shift = np.eye(k, k, 1, dtype=np.int64)
    shift[-1] = np.negative(check[:k])
    root = make_prime_field(q).primitive_element
    # f divides x**n - 1, so x**n = 1 mod f
    gens = [(shift, n), (root * np.eye(k, dtype=np.int64), q - 1)]
    label = np.arange(q**k)
    powers = q ** np.arange(k)
    for mat, order in gens:
        if order > 1:
            label = _least_labels(label, _words(mat, q) @ powers,
                                  (order - 1).bit_length())
    sizes = np.zeros(len(label), dtype=np.int64)
    np.add.at(sizes, label, 1)
    reps = np.flatnonzero(sizes)
    # few orbits: the words of their least messages' digits
    words = reps[:, None] // powers % q @ np.asarray(gmat, np.int64) % q
    return words.astype(np.min_scalar_type(q - 1)), sizes[reps].tolist()


def scan(gmat, q, check=None):
    """Weight distribution of all q**k messages of the k x n matrix
    gmat, as int64 counts.  With check = f, a monic divisor of x**n - 1
    of degree j, the last j rows must be x**i a, i < j, for a word a of
    the ideal A with check polynomial f, and the others must span a
    cyclic code B (module docstring)."""
    k, n = gmat.shape
    half = (k + 1) // 2 if check is None else k - (len(check) - 1)
    bits = (q - 1).bit_length()
    low = _planes(_words(gmat[:half], q), bits)
    high, sizes = _orbit_words(gmat[half:], q, check)
    high, sizes = _planes(high, bits), np.array(sizes, dtype=np.int64)
    return _distance_counts(
        lambda start, stop: (high[:, start:stop], sizes[start:stop]),
        len(sizes), low, None, [1], n, np.bitwise_xor)


def _supports(words, sizes):
    """The distinct supports of a table's words, packed as by _pack in
    order of first appearance, and the summed sizes of the words with
    each."""
    rows = _pack(words)
    sums = {}  # keyed on the bytes of each packed row
    for key, size in zip(rows.view(f"V{rows.shape[1] * 8}").ravel().tolist(),
                         sizes):
        sums[key] = sums.get(key, 0) + size
    rows = np.frombuffer(b"".join(sums), dtype="<u8").reshape(len(sums), -1)
    return rows, list(sums.values())


def _index(values):
    """The index of each value among the distinct values, and those
    values in order of first appearance."""
    distinct = list(dict.fromkeys(values))
    where = dict(zip(distinct, range(len(distinct))))
    return (np.array(list(map(where.get, values)),
                     dtype=np.min_scalar_type(len(distinct))), distinct)


def scan_union(gmats, q, check=None):
    """Weight distribution of the unions of supports, one word from each
    matrix's code, over every tuple of messages, as int64 counts.  With
    check = f, a monic divisor of x**n - 1 of degree k, the first
    matrix's k rows must be x**i a, i < k, for a word a of the ideal
    with check polynomial f, and every later matrix must span a cyclic
    code (module docstring)."""
    n = gmats[-1].shape[1]
    checks = [check] + [None] * (len(gmats) - 1)
    *high_tables, (last, last_sizes) = [
        _supports(*_orbit_words(g, q, c)) for g, c in zip(gmats, checks)]
    high_tables = [(rows, np.array(sizes, dtype=np.int64))
                   for rows, sizes in reversed(high_tables)]

    def high(start, stop):
        # row i's digits in the tables' mixed radix pick one class of
        # each, weighed by the product of their message counts; with one
        # component the high side is the zero word alone
        idx = np.arange(start, stop)
        rows = np.zeros_like(last[:1])
        weights = np.ones(len(idx), dtype=np.int64)
        for table, sizes in high_tables:
            idx, digit = np.divmod(idx, len(table))
            rows = rows | table[digit]
            weights *= sizes[digit]
        return rows[None], weights

    n_high = math.prod(len(t) for t, _ in high_tables)
    return _distance_counts(high, n_high, last[None], *_index(last_sizes),
                            n, np.bitwise_or)
