"""The codeword-scan kernel against the slow oracles in oracle.py."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from madics import _kernels
from madics._kernels import min_weight, scan, scan_union
from oracle import scan_numpy, scan_union as scan_union_oracle

rng = random.Random(0xCAFE)


def rand_gmat(k, n, q):
    return np.array([[rng.randrange(q) for _ in range(n)] for _ in range(k)],
                    dtype=np.int64).reshape(k, n)


def systematic_gmat(k, n, q):
    """A random full-rank k x n matrix [I | A]."""
    gmat = rand_gmat(k, n, q)
    gmat[:, :k] = np.eye(k, dtype=np.int64)
    return gmat


def assert_same(got, ref):
    assert got[0] == ref[0]
    assert np.array_equal(got[1], ref[1])


@pytest.mark.parametrize("q,k,n", [(2, 5, 9), (3, 4, 13), (5, 3, 11),
                                   (7, 3, 19), (3, 7, 13)])
def test_backends_agree(q, k, n):
    gmat = rand_gmat(k, n, q)
    got = scan(gmat, q)
    assert got[1].sum() == q ** k
    assert_same(got, scan_numpy(gmat, q))


def test_known_code_distance():
    # generator matrix of the [13, 3, 9] cyclic code over GF(3)
    from madics.analysis import generator_matrix
    from madics.ffield import make_prime_field
    from madics.field_codes import family_codes
    from madics.residues import build_residue_system

    system = build_residue_system(13, 4, a=7)
    code = family_codes(system, make_prime_field(3), "even-I")[0]
    gmat = generator_matrix(code)
    assert scan(gmat, 3)[0] == scan_numpy(gmat, 3)[0] == 9


@pytest.mark.parametrize("q", [2, 3, 7])
def test_rank_deficient_generator(q):
    # a repeated row and a zero row: some nonzero message maps to 0
    gmat = rand_gmat(4, 11, q)
    gmat[3] = gmat[0]
    got = scan(gmat, q)
    assert got[0] == 0 and got[1][0] > 1
    assert_same(got, scan_numpy(gmat, q))
    zero_row = np.vstack([rand_gmat(2, 11, q), np.zeros((1, 11), np.int64)])
    assert_same(scan(zero_row, q), scan_numpy(zero_row, q))


def block_bytes(rows, n_low, n):
    """BLOCK_BYTES that gives blocks of rows high rows against n_low low
    rows of n entries, each plane packed into ceil(n/64) words."""
    return rows * n_low * -(-n // 64) * 8


def test_scan_block_boundary(monkeypatch):
    # 27 high rows in blocks of 5 (not dividing 27), and of one row, with
    # one, two and three words per plane
    for n in (13, 70, 130):
        gmat = rand_gmat(7, n, 3)
        ref = scan_numpy(gmat, 3)
        monkeypatch.setattr(_kernels, "BLOCK_BYTES",
                            block_bytes(5, 3 ** 4, n) + 1)
        assert_same(scan(gmat, 3), ref)
        monkeypatch.setattr(_kernels, "BLOCK_BYTES", 1)
        assert_same(scan(gmat, 3), ref)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_line_blocks_straddle_seams(monkeypatch, q):
    # the kernel scans the zero word and one high message per line, the
    # rows [q**j, 2 q**j); blocks of 2 and 3 rows straddle those seams
    # and the seam between keys 0 and 1.  k = 1 leaves the high half
    # empty, k = 2 gives it one line, and a repeated scaled row makes
    # the matrix rank deficient.
    n = 23
    deficient = rand_gmat(4, n, q)
    deficient[3] = 2 * deficient[1] % q
    cases = [rand_gmat(k, n, q) for k in (1, 2, 6 if q < 5 else 4)]
    for gmat in cases + [deficient]:
        ref = scan_numpy(gmat, q)
        n_low = q ** ((len(gmat) + 1) // 2)
        for rows in (1, 2, 3):
            monkeypatch.setattr(_kernels, "BLOCK_BYTES",
                                block_bytes(rows, n_low, n))
            assert_same(scan(gmat, q), ref)
    assert scan(deficient, q)[0] == 0
    # a union whose high side is a tuple of three messages; with the
    # deficient pair some nonzero tuple has empty support, which the
    # kernel reports as 0 and the oracle skips
    for gmats in ([cases[0], cases[1], cases[0]],
                  [deficient[1::2], cases[0], deficient[:2]]):
        ref = scan_union_oracle(gmats, q)
        for rows in (1, 2, 3):
            monkeypatch.setattr(_kernels, "BLOCK_BYTES",
                                block_bytes(rows, q ** len(gmats[-1]), n))
            got = scan_union(gmats, q)
            assert np.array_equal(got[1], ref[1])
            assert got[0] == (0 if ref[1][0] > 1 else ref[0])
    assert got[0] == 0


def test_scan_union_matches_oracle(monkeypatch):
    gmats = [systematic_gmat(k, 13, 3) for k in (3, 2, 4)]
    ref = scan_union_oracle(gmats, 3)
    assert_same(scan_union(gmats, 3), ref)
    assert ref[1].sum() == 3 ** 9
    # 3^3 * 3^2 = 243 high rows in blocks of 7 (not dividing 243), and of one
    monkeypatch.setattr(_kernels, "BLOCK_BYTES", block_bytes(7, 3 ** 4, 13))
    assert_same(scan_union(gmats, 3), ref)
    monkeypatch.setattr(_kernels, "BLOCK_BYTES", 1)
    assert_same(scan_union(gmats, 3), ref)


def test_weights_past_uint8():
    # n = 300 spans five words per plane; an all-ones row has weight 300,
    # which a uint8 sum of the per-word popcounts would wrap
    gmat = rand_gmat(5, 300, 2)
    gmat[0] = 1
    got = scan(gmat, 2)
    assert_same(got, scan_numpy(gmat, 2))
    assert got[1][256:].sum() > 0
    gmats = [gmat[:2], gmat[2:]]
    assert_same(scan_union(gmats, 2), scan_union_oracle(gmats, 2))


def test_scan_union_zero_component():
    gmats = [np.zeros((0, 11), np.int64), systematic_gmat(3, 11, 5)]
    got = scan_union(gmats, 5)
    assert_same(got, scan_union_oracle(gmats, 5))
    assert_same(got, scan(gmats[1], 5))


def projective_rows(k, q):
    """1 + (q**k - 1)/(q - 1): the zero word and one word per point."""
    return 1 + (q**k - 1) // (q - 1)


def union_matches_oracle(gmats, q):
    got, ref = scan_union(gmats, q), scan_union_oracle(gmats, q)
    assert np.array_equal(got[1], ref[1])
    assert got[1].sum() == q ** sum(len(g) for g in gmats)
    assert got[0] == (0 if ref[1][0] > 1 else ref[0])


@pytest.mark.parametrize("q", [2, 3, 5])
def test_union_zero_dimension_components(q):
    # a k = 0 component has only the zero word (key 0), as a high
    # component and as the last one, whose table is the low side
    n = 17
    empty = np.zeros((0, n), np.int64)
    full = systematic_gmat(2, n, q)
    for gmats in ([empty, full], [full, empty], [empty, full, empty],
                  [full, empty, full], [empty], [empty, empty]):
        union_matches_oracle(gmats, q)


def test_union_many_zero_components_fold_in_int64():
    # 16 k = 0 components beside one of k = 1 over GF(17): a key counts
    # only the components with a point, so the fold's largest weight is
    # 16**1, not 16**17, which would not fit int64
    n, q = 5, 17
    one = systematic_gmat(1, n, q)
    got = scan_union([np.zeros((0, n), np.int64)] * 16 + [one], q)
    assert got[1].dtype == np.int64
    assert_same(got, scan(one, q))


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_union_full_rank_component(q):
    # k = n: the component is all of GF(q)**n, so some tuple covers
    # every position and the least nonzero weight is 1
    n = 3
    eye = np.eye(n, dtype=np.int64)
    for gmats in ([eye, rand_gmat(2, n, q)], [rand_gmat(1, n, q), eye]):
        union_matches_oracle(gmats, q)
    assert scan_union([eye], q)[1].tolist() == [
        math.comb(n, w) * (q - 1)**w for w in range(n + 1)]


@pytest.mark.parametrize("s", [1, 2, 3, 4])
@pytest.mark.parametrize("q", [2, 3, 5])
def test_union_s_components(q, s):
    n = 9
    ks = [2, 1, 2, 1][:s] if q < 5 else [1, 1, 2, 1][:s]
    union_matches_oracle([systematic_gmat(k, n, q) for k in ks], q)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_union_blocks_straddle_keys(monkeypatch, q):
    # high tuples of keys 0, 1 and 2 in blocks of one, two and three
    # rows, so most blocks mix keys, and with BLOCK_BYTES = 1
    n = 11
    gmats = [systematic_gmat(2, n, q), rand_gmat(1, n, q),
             systematic_gmat(2, n, q)]
    ref = scan_union_oracle(gmats, q)
    n_low = projective_rows(2, q)
    for block in (1, 2, 3):
        monkeypatch.setattr(_kernels, "BLOCK_BYTES",
                            block_bytes(block, n_low, n))
        assert np.array_equal(scan_union(gmats, q)[1], ref[1])
    monkeypatch.setattr(_kernels, "BLOCK_BYTES", 1)
    assert np.array_equal(scan_union(gmats, q)[1], ref[1])


def count_pairs(monkeypatch):
    """A list that gathers the number of (high, low) pairs of every
    popcount the kernel makes."""
    seen = []
    popcount = np.bitwise_count

    def counting(diff):
        seen.append(diff.shape[0] * diff.shape[1])
        return popcount(diff)

    monkeypatch.setattr(_kernels.np, "bitwise_count", counting)
    return seen


@pytest.mark.parametrize("q,ks", [(3, (5, 5, 5)), (5, (5, 5)), (7, (3, 3)),
                                  (3, (0, 2, 4)), (2, (3, 0)), (5, (2,))])
def test_union_pairs_visited(monkeypatch, q, ks):
    # every component table has 1 + (q**k - 1)/(q - 1) rows, so the
    # block loop visits their product of pairs: 122**3 for the
    # (q, k) = (3, 5), s = 3 ring scan instead of 29,524 * 243
    n = 11
    gmats = [systematic_gmat(k, n, q) for k in ks]
    ref = scan_union(gmats, q)
    seen = count_pairs(monkeypatch)
    got = scan_union(gmats, q)
    assert sum(seen) == math.prod(projective_rows(k, q) for k in ks)
    assert np.array_equal(got[1], ref[1])


@pytest.mark.parametrize("q,k", [(2, 9), (3, 7), (5, 4), (7, 1)])
def test_scan_pairs_visited(monkeypatch, q, k):
    # scan keeps its cost: the zero word and the points of the high half
    # against the whole low half
    gmat = rand_gmat(k, 13, q)
    seen = count_pairs(monkeypatch)
    scan(gmat, q)
    half = (k + 1) // 2
    assert sum(seen) == projective_rows(k - half, q) * q ** half


def test_min_weight():
    assert min_weight(np.array([1, 0, 0, 3, 5])) == 3
    assert min_weight(np.array([2, 0, 0, 3, 5])) == 0
    assert min_weight(np.array([1, 0, 0])) == 0


@st.composite
def field_cases(draw):
    q = draw(st.sampled_from([2, 3, 5, 7]))
    # k <= 7 and at most q**k <= 20000 words, so the oracle stays fast
    k = draw(st.integers(1, max(j for j in range(1, 8) if q**j <= 20000)))
    # n crosses the 64- and 128-bit word boundaries of the packed planes
    n = draw(st.integers(1, 140))
    return q, draw_gmat(draw, k, n, q)


def draw_gmat(draw, k, n, q):
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n,
                                  max_size=n), min_size=k, max_size=k))
    return np.array(rows, dtype=np.int64).reshape(k, n)


@settings(max_examples=60, deadline=None)
@given(field_cases())
def test_scan_matches_oracle_property(case):
    q, gmat = case
    assert_same(scan(gmat, q), scan_numpy(gmat, q))


@st.composite
def union_cases(draw):
    q = draw(st.sampled_from([2, 3, 5, 7]))
    s = draw(st.integers(1, 3))
    n = draw(st.integers(1, 140))
    # at most 4096 tuples in all, since the oracle tabulates every one
    ks, total = [], 1
    for _ in range(s):
        k = draw(st.integers(0, max(j for j in range(5)
                                    if total * q**j <= 4096)))
        ks.append(k)
        total *= q**k
    return q, [draw_gmat(draw, k, n, q) for k in ks]


@settings(max_examples=60, deadline=None)
@given(union_cases())
def test_scan_union_matches_oracle_property(case):
    q, gmats = case
    got, ref = scan_union(gmats, q), scan_union_oracle(gmats, q)
    assert np.array_equal(got[1], ref[1])
    # a random matrix may be rank deficient: the kernel then reports 0,
    # where the oracle reports the least nonzero weight
    assert got[0] == (0 if ref[1][0] > 1 else ref[0])
