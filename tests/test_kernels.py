"""The codeword-scan kernel against the slow oracles in oracle.py."""

import itertools
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from madics import _kernels, poly
from madics._kernels import min_weight, scan, scan_union
from madics.analysis import generator_matrix
from madics.ffield import make_prime_field
from madics.field_codes import FAMILIES, family_codes
from madics.residues import build_residue_system
from oracle import (
    divmod_generic,
    scan_numpy,
    scan_union as scan_union_oracle,
    support_table,
)
from test_analysis import RING_CASES

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


def union_matches_oracle(gmats, q, check=None):
    got, ref = scan_union(gmats, q, check), scan_union_oracle(gmats, q)
    assert np.array_equal(got[1], ref[1])
    assert got[1].sum() == q ** sum(len(g) for g in gmats)
    assert got[0] == (0 if ref[1][0] > 1 else ref[0])


def unit_row(n, j):
    """The 1 x n matrix of the weight-1 word e_j."""
    row = np.zeros((1, n), np.int64)
    row[0, j] = 1
    return row


@pytest.mark.parametrize("q,gmats", [
    (3, [unit_row(127, 126)]),
    (5, [unit_row(127, 126)]),
    (3, [np.zeros((1, 127), np.int64), unit_row(127, 126)]),
    (2, [unit_row(255, 0)]),
    (2, [unit_row(255, 0), unit_row(255, 254)]),
], ids=["n127-q3", "n127-q5", "n127-zero-first", "n255-one", "n255-two"])
def test_union_key_scalars_fit_index_type(q, gmats):
    # one high key and two low counts at n = 127: the high-key scalar
    # len(mult_low) (n + 1) = 256 equals the key count times n + 1, one
    # past the largest index; at n = 255 over GF(2) every count is 1,
    # so nothing is keyed, while the low keys times n + 1 = 256 would
    # again overflow an index type of uint8
    union_matches_oracle(gmats, q)


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


def test_union_high_weights_fold_exactly(monkeypatch):
    # twelve k = 1 components over GF(3), each with supports of counts
    # [1, 2]: the high rows are the 2**11 tuples of classes of the first
    # eleven, each weighing the product of its classes' counts, so the
    # weights sum to the 3**11 messages they stand for and the fold
    # matches the oracle's count of every 3**12 tuples
    q, n = 3, 5
    gmats = [systematic_gmat(1, n, q) for _ in range(12)]
    weights = []
    kernel = _kernels._distance_counts

    def spy(high, n_high, *args):
        def seen(start, stop):
            rows, w = high(start, stop)
            weights.extend(w.tolist())
            return rows, w
        return kernel(seen, n_high, *args)

    monkeypatch.setattr(_kernels, "_distance_counts", spy)
    union_matches_oracle(gmats, q)
    assert Counter(weights) == {2**j: math.comb(11, j) for j in range(12)}
    assert sum(weights) == q**11


def test_union_histograms_fit_the_block_bound():
    # a 12 x 127 matrix over GF(2) beside a zero component: 4,096 high
    # rows against one low row, so the pair table is small and the 128
    # bins of each high row's histogram bound the block instead; one
    # block of them all would hold 4 MB of histograms
    gmats = [rand_gmat(12, 127, 2), np.zeros((0, 127), np.int64)]
    scan_union(gmats, 2)  # numpy's first-call setup outside the trace
    tracemalloc.start()
    try:
        got = scan_union(gmats, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got[1], scan_union_oracle(gmats, 2)[1])
    assert peak < 2 << 20, peak


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


def family_gmats(q, p, m, family, slots, alpha_exp=1):
    """Generator matrices of one family's components, one per slot, and
    the check polynomial (x**p - 1)/g of the first, by the oracle's
    division."""
    comps = family_codes(build_residue_system(p, m), make_prime_field(q),
                         family, alpha_exp)
    first = comps[slots[0]]
    check, rest = divmod_generic(make_prime_field(q), poly.xn_minus_1(q, p),
                                 first.generator)
    assert not rest
    return [generator_matrix(comps[i]) for i in slots], check


def support_counts(gmat, q):
    """{support: number of messages with it}, from the oracle's table of
    all q**k words."""
    return Counter(map(tuple, support_table(gmat, q).tolist()))


def orbit_supports(gmat, q):
    """The distinct supports of the orbits of the rotations and scalars
    on a cyclic code of full rank, taken in codeword space: each orbit's
    word of least message, in the order sum_i c_i q**i."""
    k, n = gmat.shape
    words = [tuple(np.array([m // q**i % q for i in range(k)], np.int64)
                   @ gmat % q) for m in range(q**k)]
    message = {w: m for m, w in enumerate(words)}
    reps = {min(message[tuple(c * x % q for x in w[j:] + w[:j])]
                for j in range(n) for c in range(1, q))
            for w in words}
    return {tuple(x != 0 for x in words[m]) for m in reps}


def expected_pairs(gmats, q, grouped=False):
    """The pairs a union scan visits: one row per distinct support of
    each component, and for the first component, when grouped, one row
    per distinct support of its rotation-and-scalar orbits instead."""
    first, *rest = [support_counts(g, q) for g in gmats]
    rows = len(orbit_supports(gmats[0], q) if grouped else first)
    return rows * math.prod(len(counts) for counts in rest)


@pytest.mark.parametrize("q,ks", [(3, (5, 5, 5)), (5, (5, 5)), (7, (3, 3)),
                                  (3, (0, 2, 4)), (2, (3, 0)), (5, (2,))])
def test_union_pairs_visited(monkeypatch, q, ks):
    # one row per distinct support of each component, weighed by its
    # message count; random systematic matrices are not cyclic, so the
    # first component is not grouped into orbits
    n = 11
    gmats = [systematic_gmat(k, n, q) for k in ks]
    ref = scan_union(gmats, q)
    seen = count_pairs(monkeypatch)
    got = scan_union(gmats, q)
    assert sum(seen) == expected_pairs(gmats, q)
    assert sum(seen) <= math.prod(projective_rows(k, q) for k in ks)
    assert np.array_equal(got[1], ref[1])


@pytest.mark.parametrize("q,p,m,s,family,pairs", [
    (3, 11, 2, 3, "even-I", 12 * 122 * 122),
    (5, 11, 2, 2, "even-I", 39 * 343),
    (7, 19, 6, 2, "even-I", 4 * 58),
    (2, 73, 8, 2, "odd-II", 16 * 1024)])
def test_union_pairs_visited_ring_codes(monkeypatch, q, p, m, s, family,
                                        pairs):
    # the components are cyclic, so with its check polynomial the first
    # one is reduced to the supports of its shift-and-scalar orbits:
    # 12 x 122 x 122 pairs at (3, 11, 2, 3) instead of the 122**3 of one
    # row per projective point
    gmats, check = family_gmats(q, p, m, family, [i % m for i in range(s)])
    seen = count_pairs(monkeypatch)
    scan_union(gmats, q, check)
    assert sum(seen) == expected_pairs(gmats, q, grouped=True) == pairs


@pytest.mark.parametrize("q,k", [(2, 9), (3, 7), (5, 4), (7, 1)])
def test_scan_pairs_visited(monkeypatch, q, k):
    # scan keeps its cost: the zero word and the points of the high half
    # against the whole low half
    gmat = rand_gmat(k, 13, q)
    seen = count_pairs(monkeypatch)
    scan(gmat, q)
    half = (k + 1) // 2
    assert sum(seen) == projective_rows(k - half, q) * q ** half


@pytest.mark.parametrize("q", [3, 5, 7])
def test_points_built_directly_match_oracle(q):
    # _orbit_words without check builds the rows [q**j, 2 q**j) as g_j
    # plus the words of the rows before it, without the full q**k table:
    # the rows must be the words of the messages 0 and q**j + i, in that
    # order, with sizes 1 and q - 1, and the scans that read them must
    # match the oracles, also for rank-deficient and zero matrices and
    # k = 0, 1
    n = 13
    deficient = rand_gmat(4, n, q)
    deficient[2] = (q - 1) * deficient[0] % q
    cases = [rand_gmat(k, n, q) for k in (0, 1, 2, 4)]
    cases += [deficient, np.zeros((3, n), np.int64)]
    for gmat in cases:
        k = len(gmat)
        msgs = [0] + [m for j in range(k) for m in range(q**j, 2 * q**j)]
        digits = np.array([[m // q**i % q for i in range(k)] for m in msgs],
                          dtype=np.int64).reshape(len(msgs), k)
        got, sizes = _kernels._orbit_words(gmat, q)
        assert len(got) == projective_rows(k, q)
        assert np.array_equal(got, digits @ gmat % q)
        assert sizes == [1] + [q - 1] * (len(msgs) - 1)
        assert np.array_equal(scan(gmat, q)[1], scan_numpy(gmat, q)[1])
        union_matches_oracle([gmat, cases[2]], q)
        union_matches_oracle([cases[3], gmat], q)


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
@example((3, [unit_row(127, 126)]))
def test_scan_union_matches_oracle_property(case):
    q, gmats = case
    got, ref = scan_union(gmats, q), scan_union_oracle(gmats, q)
    assert np.array_equal(got[1], ref[1])
    # a random matrix may be rank deficient: the kernel then reports 0,
    # where the oracle reports the least nonzero weight
    assert got[0] == (0 if ref[1][0] > 1 else ref[0])


@st.composite
def ring_component_cases(draw):
    # the components of one family at a tier-1 point, or at the
    # dimension-1 point (7, 3, 2), in any slot order, with any labeling
    # alpha**alpha_exp of the p-th roots of unity
    q, p, m, s, family = draw(st.sampled_from(RING_CASES + [
        (7, 3, 2, s, family) for s in (2, 3) for family in FAMILIES]))
    slots = draw(st.lists(st.integers(0, m - 1), min_size=s, max_size=s))
    alpha_exp = draw(st.integers(1, p - 1))
    return q, *family_gmats(q, p, m, family, slots, alpha_exp)


@settings(max_examples=40, deadline=None)
@given(ring_component_cases())
def test_union_ring_components_match_oracle_property(case):
    q, gmats, check = case
    union_matches_oracle(gmats, q, check)


def test_union_any_component_order():
    # two cyclic components, a random one and a zero one in every order,
    # without a check polynomial; with one, the cyclic and zero
    # components in both orders after the first cyclic one
    q, n = 3, 13
    cyclic, check = family_gmats(q, n, 4, "even-I", [0, 1])
    zero = np.zeros((0, n), np.int64)
    for order in itertools.permutations(
            cyclic + [systematic_gmat(2, n, q), zero]):
        union_matches_oracle(list(order), q)
    for rest in itertools.permutations([cyclic[1], zero]):
        union_matches_oracle([cyclic[0], *rest], q, check)


def test_union_cyclic_rank_deficient():
    # repeated and zero rows keep the code cyclic, with every support
    # counted q**(k - rank) times over; later components may be rank
    # deficient beside a first one grouped by its orbits
    q, n = 3, 13
    (gmat,), check = family_gmats(q, n, 4, "even-I", [0])
    deficient = np.vstack([gmat, gmat[:1], np.zeros((1, n), np.int64)])
    assert _kernels._supports(*_kernels._orbit_words(
        deficient, q))[1][0] == q ** 2
    for gmats in ([deficient, gmat], [gmat, deficient],
                  [deficient, deficient, gmat]):
        union_matches_oracle(gmats, q)
    union_matches_oracle([gmat, deficient], q, check)
    union_matches_oracle([gmat, deficient, deficient], q, check)


def test_union_cyclic_blocks(monkeypatch):
    # (3, 13, 4, 3) even-I: 2 orbit supports x 14 classes = 28 high rows
    # against 14 low ones, in blocks of 5 (not dividing 28) and of one
    q, n = 3, 13
    gmats, check = family_gmats(q, n, 4, "even-I", [0, 1, 2])
    ref = scan_union_oracle(gmats, q)
    for block in (block_bytes(5, 14, n), 1):
        monkeypatch.setattr(_kernels, "BLOCK_BYTES", block)
        seen = count_pairs(monkeypatch)
        assert np.array_equal(scan_union(gmats, q, check)[1], ref[1])
        assert sum(seen) == 28 * 14
        monkeypatch.undo()
    assert expected_pairs(gmats, q, grouped=True) == 28 * 14


def test_union_cyclic_multiword():
    # n = 73 packs each support into two words; the first component
    # grouped by its orbits and not
    gmats, check = family_gmats(2, 73, 8, "even-I", [0, 3])
    union_matches_oracle(gmats, 2, check)
    union_matches_oracle(gmats, 2)


def test_union_off_cyclic_orders():
    # without a check polynomial no matrix need span a cyclic code: a
    # cyclic matrix, a random one and the cyclic one with an entry past
    # the generator's degree set, in mixed orders
    q, n = 3, 13
    (cyclic,), _ = family_gmats(q, n, 4, "even-I", [1])
    random_gmat = systematic_gmat(3, n, q)
    bent = cyclic.copy()
    bent[0, -1] = 1
    for gmats in ([cyclic, random_gmat], [random_gmat, cyclic],
                  [cyclic, bent, cyclic], [bent, cyclic]):
        union_matches_oracle(gmats, q)

