"""The codeword-scan kernel against the slow oracles in oracle.py."""

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


def test_scan_block_boundary(monkeypatch):
    # blocks of a few high rows, not dividing the high row count
    gmat = rand_gmat(7, 13, 3)
    ref = scan_numpy(gmat, 3)
    low_bytes = 3 ** 4 * 13
    monkeypatch.setattr(_kernels, "BLOCK_BYTES", 5 * low_bytes + 1)
    assert_same(scan(gmat, 3), ref)
    monkeypatch.setattr(_kernels, "BLOCK_BYTES", 1)
    assert_same(scan(gmat, 3), ref)


def test_scan_union_matches_oracle(monkeypatch):
    gmats = [systematic_gmat(k, 13, 3) for k in (3, 2, 4)]
    ref = scan_union_oracle(gmats, 3)
    assert_same(scan_union(gmats, 3), ref)
    assert ref[1].sum() == 3 ** 9
    monkeypatch.setattr(_kernels, "BLOCK_BYTES", 7 * 3 ** 4 * 13)
    assert_same(scan_union(gmats, 3), ref)


def test_scan_union_zero_component():
    gmats = [np.zeros((0, 11), np.int64), systematic_gmat(3, 11, 5)]
    got = scan_union(gmats, 5)
    assert_same(got, scan_union_oracle(gmats, 5))
    assert_same(got, scan(gmats[1], 5))


def test_min_weight():
    assert min_weight(np.array([1, 0, 0, 3, 5])) == 3
    assert min_weight(np.array([2, 0, 0, 3, 5])) == 0
    assert min_weight(np.array([1, 0, 0])) == 0


@st.composite
def field_cases(draw):
    q = draw(st.sampled_from([2, 3, 5, 7]))
    # k <= 7 and at most q**k <= 20000 words, so the oracle stays fast
    k = draw(st.integers(1, max(j for j in range(1, 8) if q**j <= 20000)))
    n = draw(st.integers(1, 40))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n,
                                  max_size=n), min_size=k, max_size=k))
    return q, np.array(rows, dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(field_cases())
def test_scan_matches_oracle_property(case):
    q, gmat = case
    assert_same(scan(gmat, q), scan_numpy(gmat, q))
