"""Exhaustive codeword scans on packed bit planes.

Every scan histograms one weight over all pairs (h, l), h a row of a
"high" table and l a row of a "low" table.  Rows are stored as bit
planes (plane b holds bit b of every entry), each packed into
ceil(n/64) uint64 words with entry j at bit j % 64 of word j // 64.
``_distance_counts`` is the one kernel: for a block of high rows
against the whole low table it ORs op(h_b, l_b) over the planes, counts
set bits with ``np.bitwise_count`` and folds the weights into counts
with bincount.  Every row has a key, an index into a small table of
message counts, mult_high for the high rows and mult_low for the low
ones.  The kernel histograms (high key a, low key b, weight w) and folds
A_w = sum_ab mult_high[a] mult_low[b] counts[a, b, w] with one int64
product.  The fold counts messages, not words, so it is exact for zero
components and rank-deficient matrices too: counts[0] counts every
message that maps to the zero word.  The index (a len(mult_low) + b)
(n + 1) + w is built in the least unsigned type that holds its largest
value and the scalar len(mult_low) (n + 1) it is built from, which is
the larger when there is one high key.  Its callers differ in the tables,
the counts and op:

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
messages of its rows, keyed by the orbit size, and its low table is a
code L that the group maps onto itself, kept whole (mult_low = [1]).
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
table's distinct counts, mult_low; a high row's key indexes the
distinct products of its classes' counts, mult_high, each at most the
message count the caller's cap bounds.

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

A block's largest temporary, pairs x words per plane x 8 bytes, is kept
to BLOCK_BYTES (one high row at least), and is freed before bincount
copies the block's bins to intp, so the two are never held at once.
_orbit_words holds at most 2 q**(k-1) words without check and q**k
labels with it, k its matrix's rows, so tables are sized by
q**ceil(k/2) words (scalar-only field scans), by the caller's bound on
B and q**dim(A) labels (split field scans: analysis.SPLIT_LOW_ROWS),
or by 2 q**(k-1) words per later component and the first one's q**k
labels (ring), never by the total word or tuple count.  counts[0]
includes the zero word.
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


def _distance_counts(high, n_high, low, low_keys, n, op, mult_high,
                     mult_low):
    """counts[w] = the sum of mult_high[a] * mult_low[b] over the pairs
    (i, j), i < n_high, where the OR over planes of op(high row i, low
    row j) has w set bits, a is the key of row i and b that of row j.
    low has shape (planes, rows, words) and low_keys one key per low
    row, or None when every low key is 0; high(idx) returns the rows, in
    the same layout, and the keys of the high rows idx.  Every product
    of multiplicities is at most the message count the caller's cap
    bounds, so it fits int64."""
    mult = [a * b for a in mult_high for b in mult_low]
    keyed = min(mult) < max(mult)  # else every pair weighs mult[0]
    n_keys = len(mult) if keyed else 1
    planes, n_low, width = low.shape
    step = max(1, BLOCK_BYTES // (n_low * width * 8))
    bins = n + 1
    # the indices and, keyed, the scalar len(mult_low) * bins fit atype
    atype = np.min_scalar_type(max(n_keys * bins - 1,
                                   len(mult_low) * bins if keyed else 0))
    low_at = (np.multiply(low_keys, bins, dtype=atype)
              if keyed and low_keys is not None else None)
    hist = np.zeros(n_keys * bins, dtype=np.int64)
    for start in range(0, n_high, step):
        block, keys = high(np.arange(start, min(start + step, n_high)))
        diff = op(block[0][:, None], low[0])
        for b in range(1, planes):
            diff |= op(block[b][:, None], low[b])
        ones = np.bitwise_count(diff)
        del diff  # freed before bincount makes its own intp copy of at
        at = ones[..., 0].astype(atype)
        for w in range(1, width):  # a word slice at a time: few words
            at += ones[..., w]
        del ones
        if keyed:
            if low_at is not None:
                at += low_at
            at += np.multiply(keys, len(mult_low) * bins, dtype=atype)[:, None]
        hist += np.bincount(at.ravel(), minlength=len(hist))
    return np.array(mult[:n_keys], dtype=np.int64) @ hist.reshape(n_keys, bins)


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


def min_weight(counts):
    """Least weight of a nonzero message: 0 when one maps to the zero
    word (counts[0] > 1), else the least w >= 1 with counts[w] > 0 (0
    when there is none)."""
    live = np.flatnonzero(counts[1:])
    if counts[0] > 1 or not live.size:
        return 0
    return int(live[0]) + 1


def scan(gmat, q, check=None):
    """Weight distribution of all q**k messages of the k x n matrix
    gmat; returns (min_weight(counts), counts).  With check = f, a
    monic divisor of x**n - 1 of degree j, the last j rows must be
    x**i a, i < j, for a word a of the ideal A with check polynomial f,
    and the others must span a cyclic code B (module docstring)."""
    k, n = gmat.shape
    half = (k + 1) // 2 if check is None else k - (len(check) - 1)
    bits = (q - 1).bit_length()
    low = _planes(_words(gmat[:half], q), bits)
    high, sizes = _orbit_words(gmat[half:], q, check)
    keys, mult_high = _index(sizes)
    high = _planes(high, bits)
    counts = _distance_counts(lambda idx: (high[:, idx], keys[idx]),
                              len(keys), low, None, n, np.bitwise_xor,
                              mult_high, [1])
    return min_weight(counts), counts


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
    matrix's code, over every tuple of messages; returns
    (min_weight(counts), counts).  With check = f, a monic divisor of
    x**n - 1 of degree k, the first matrix's k rows must be x**i a, i <
    k, for a word a of the ideal with check polynomial f, and every
    later matrix must span a cyclic code (module docstring)."""
    n = gmats[-1].shape[1]
    checks = [check] + [None] * (len(gmats) - 1)
    # a row's key indexes its table's distinct counts
    *high_tables, (last, last_keys, mult_low) = [
        (rows, *_index(sizes)) for rows, sizes in
        (_supports(*_orbit_words(g, q, c)) for g, c in zip(gmats, checks))]
    # a high key indexes the distinct products of its classes' counts,
    # so the key count grows with those products, not with the number
    # of components: steps[i][a * len(vals) + b] is the key of product
    # mult_high[a] * vals[b]
    mult_high, steps = [1], []
    for _, _, vals in reversed(high_tables):
        step, mult_high = _index([a * b for a in mult_high for b in vals])
        steps.append(step)
    # the high side of a one-component scan is the zero word alone
    empty = (np.zeros_like(last[:1]), np.zeros(1, np.uint8))

    def high(idx):
        rows, keys = empty
        for (table, table_keys, vals), step in zip(reversed(high_tables),
                                                    steps):
            idx, digit = np.divmod(idx, len(table))
            rows = rows | table[digit]
            keys = step[np.multiply(keys, len(vals), dtype=np.intp)
                        + table_keys[digit]]
        return rows[None], keys

    n_high = math.prod(len(t) for t, _, _ in high_tables)
    counts = _distance_counts(high, n_high, last[None], last_keys, n,
                              np.bitwise_or, mult_high, mult_low)
    return min_weight(counts), counts
