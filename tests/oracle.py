"""Slow reference scans, the test oracles of madics._kernels.

scan_numpy expands each block of message indices into base-q digits
and multiplies by G.  scan_union builds the full 0/1 support table of
every component and ORs it across all tuples.  Neither splits G or
compares against negated words as the kernel does.  Both return
(d_min, counts) with the zero word in counts[0], but scan_union holds
every tuple in memory at once, so keep its inputs small.
"""

import numpy as np


def scan_numpy(gmat, q, chunk=1 << 13):
    gmat = np.ascontiguousarray(gmat, dtype=np.int64)
    k, n = gmat.shape
    counts = np.zeros(n + 1, dtype=np.int64)
    counts[0] += 1
    total = q**k
    best = n + 1
    powers = q ** np.arange(k, dtype=np.int64)
    for start in range(1, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        msgs = (idx[:, None] // powers[None, :]) % q
        words = (msgs @ gmat) % q
        ws = np.count_nonzero(words, axis=1)
        counts += np.bincount(ws, minlength=n + 1)
        best = min(best, int(ws.min()))
    return best, counts


def support_table(gmat, q):
    """All q**k codewords as a 0/1 support matrix, in base-q counting
    order of the messages (coefficient 0 least significant)."""
    gmat = np.ascontiguousarray(gmat, dtype=np.int64)
    k = gmat.shape[0]
    powers = q ** np.arange(k, dtype=np.int64)
    idx = np.arange(q**k, dtype=np.int64)
    msgs = (idx[:, None] // powers[None, :]) % q
    return ((msgs @ gmat) % q != 0).astype(np.uint8)


def scan_union(gmats, q):
    n = gmats[0].shape[1]
    combined = np.zeros((1, n), dtype=np.uint8)
    for gmat in gmats:
        table = support_table(gmat, q)
        combined = (combined[:, None, :] | table[None, :, :]).reshape(-1, n)
    weights = combined.sum(axis=1, dtype=np.int64)
    counts = np.bincount(weights, minlength=n + 1)
    nonzero = weights[weights > 0]
    return (int(nonzero.min()) if nonzero.size else 0), counts
