"""Distance computation and bound checks with frozen oracle values."""

import random
import time

import pytest
import numpy as np
from hypothesis import given, settings, strategies as st

from madics import poly
from madics.analysis import (
    DEFAULT_CAP,
    dual_generator,
    generator_matrix,
    griesmer_check,
    macwilliams,
    min_distance_field,
    min_distance_ring,
    min_distance_ring_exhaustive,
)
from madics.errors import BackendUnavailable, InvalidParameter, TooLarge
from madics.ffield import make_extension, make_prime_field
from madics.field_codes import CyclicCode, family_codes
from madics.residues import build_residue_system
from madics.ringalg import make_ring
from madics.ring_codes import ring_code, ring_mu_chain
from oracle import griesmer_bound_naive, macwilliams_naive, scan_numpy
from oracle import scan_union

rng = random.Random(0xD157)
F3 = make_prime_field(3)
SYS134 = build_residue_system(13, 4, a=7)


def test_even_like_q3_p13_distances():
    for c in family_codes(SYS134, F3, "even-I"):
        rep = min_distance_field(c)
        assert (rep.n, rep.k, rep.d_min) == (13, 3, 9)
        assert rep.weight_distribution == (1,) + (0,) * 8 + (26, 0, 0, 0, 0)


def test_odd_like_ii_q3_p13_distances():
    for c in family_codes(SYS134, F3, "odd-II"):
        rep = min_distance_field(c)
        assert (rep.n, rep.k, rep.d_min) == (13, 4, 7)


def test_even_like_q7_p19_distances():
    system = build_residue_system(19, 6)
    for c in family_codes(system, make_prime_field(7), "even-I"):
        rep = min_distance_field(c)
        assert (rep.n, rep.k, rep.d_min) == (19, 3, 15)


def test_repetition_like_code_distance():
    # <h> with h the all-ones polynomial: rank 1, weight 13
    g = (1,) * 13
    code = CyclicCode(F3, 13, "even-I", 0, g, g)
    rep = min_distance_field(code)
    assert (rep.k, rep.d_min) == (1, 13)


def test_zero_code_report():
    code = CyclicCode(F3, 13, "even-I", 0, poly.xn_minus_1(F3, 13), (0,))
    rep = min_distance_field(code)
    assert rep.k == 0 and rep.d_min == 0 and rep.enumerated == 1


def test_cap_enforced():
    system = build_residue_system(19, 6)
    code = family_codes(system, make_prime_field(7), "odd-II")[0]
    with pytest.raises(TooLarge):
        min_distance_field(code, cap=100)


def test_generator_matrix_shape():
    code = family_codes(SYS134, F3, "even-I")[0]
    gm = generator_matrix(code)
    assert gm.shape == (3, 13)
    # rows are cyclic shifts
    assert list(gm[1][1:]) == list(gm[0][:-1])


def test_generator_matrix_rejects_extension_fields():
    ext = make_extension(3, 2)
    code = CyclicCode(ext, 13, "even-I", 0, (1, 1), (1, 1))
    with pytest.raises(ValueError):
        generator_matrix(code)


def test_ring_distance_component_min_equals_exhaustive():
    base = ring_code(make_ring(F3, 3), SYS134, "even-I", (1, 2, 3))
    for code in ring_mu_chain(base, 7):
        rep = min_distance_ring(code)
        cross = min_distance_ring_exhaustive(code)
        assert rep.d_min == cross.d_min == 9
        assert rep.component_dmins == (9, 9, 9)
        assert cross.enumerated == 3 ** 9


def test_ring_distance_s2():
    ring = make_ring(F3, 2)
    sys2 = build_residue_system(13, 2)
    even = ring_code(ring, sys2, "even-I", (0, 1))
    rep = min_distance_ring(even)
    cross = min_distance_ring_exhaustive(even)
    assert rep.d_min == cross.d_min == 6
    odd2 = ring_code(ring, sys2, "odd-II", (0, 1))
    assert min_distance_ring(odd2).d_min == \
        min_distance_ring_exhaustive(odd2).d_min == 5


def test_ring_exhaustive_cap():
    base = ring_code(make_ring(F3, 3), SYS134, "even-I", (1, 2, 3))
    with pytest.raises(TooLarge):
        min_distance_ring_exhaustive(base, cap=100)


def test_ring_exhaustive_counts_every_tuple():
    # the kernel scans one message per projective point of each
    # component, but enumerated stays the full tuple count and the cap
    # bounds that count, so every refusal is unchanged
    ring = make_ring(make_prime_field(5), 2)
    code = ring_code(ring, build_residue_system(11, 2), "even-I", (0, 1))
    total = 5 ** 5 * 5 ** 5
    rep = min_distance_ring_exhaustive(code, cap=total)
    assert rep.enumerated == total
    assert sum(rep.weight_distribution) == total
    with pytest.raises(TooLarge, match=rf"enumerating {total} component"):
        min_distance_ring_exhaustive(code, cap=total - 1)
    base = ring_code(make_ring(F3, 3), SYS134, "even-I", (1, 2, 3))
    assert min_distance_ring_exhaustive(base, cap=3 ** 9).enumerated == 3 ** 9
    with pytest.raises(TooLarge):
        min_distance_ring_exhaustive(base, cap=3 ** 9 - 1)


def test_ring_common_rank():
    base = ring_code(make_ring(F3, 3), SYS134, "even-I", (1, 2, 3))
    rep = min_distance_ring(base)
    assert rep.k == 3 and rep.component_ranks == (3, 3, 3)
    mixed = ring_code(make_ring(F3, 3), SYS134, "even-I", (0, 0, 1))
    assert min_distance_ring(mixed).k == 3  # ranks still all equal here


def test_weight_enumerator_invariant_on_mu_orbit():
    # codes in one family are permutation-equivalent
    for fam in ("even-I", "odd-II"):
        dists = {min_distance_field(c).weight_distribution
                 for c in family_codes(SYS134, F3, fam)}
        assert len(dists) == 1


def test_singleton_bound():
    for fam in ("even-I", "odd-I", "even-II", "odd-II"):
        for c in family_codes(SYS134, F3, fam):
            k = c.dimension
            if 3 ** k > 1 << 20:
                continue
            rep = min_distance_field(c)
            assert rep.d_min <= rep.n - rep.k + 1


def test_min_weight_attained_by_some_word():
    # spot-check: the reported minimum equals the weight of an actual
    # codeword (random message against the generator matrix)
    code = family_codes(SYS134, F3, "even-I")[0]
    rep = min_distance_field(code)
    gm = generator_matrix(code)
    found = rep.n + 1
    for _ in range(200):
        msg = [rng.randrange(3) for _ in range(gm.shape[0])]
        word = [sum(m * int(g) for m, g in zip(msg, col)) % 3
                for col in gm.T]
        w = sum(1 for c in word if c)
        if 0 < w < found:
            found = w
    assert found >= rep.d_min


def test_griesmer_values():
    assert griesmer_check(13, 3, 9, 3) == (13, True)
    assert griesmer_check(19, 3, 15, 7) == (19, True)
    assert griesmer_check(13, 4, 7, 3) == (12, False)
    assert griesmer_check(13, 1, 13, 3) == (13, True)


def test_griesmer_rejects_degenerate():
    # InvalidParameter is a MadicError and a ValueError
    for n, k, d, q in ((13, 0, 9, 3), (13, 3, 0, 3), (13, 3, 9, 0),
                       (13, 3, 9, 1), (13, 3, 9, -3), (0, 3, 9, 3),
                       (-1, 3, 9, 3), (13, 3, 9, 6), (13, 3, 9, 10),
                       (13, 3, 9, 12), (13, 3, 9, 100)):
        with pytest.raises(InvalidParameter, match="griesmer check needs"):
            griesmer_check(n, k, d, q)


def test_griesmer_matches_naive_sum():
    # terms past the first q**i >= d are counted, not computed; every
    # prime power q is accepted
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 31, 49):
        for d in (1, 2, 3, 7, 8, 9, 10, 26, 27, 100):
            for k in (1, 2, 3, 5, 8, 13):
                n = griesmer_bound_naive(k, d, q)
                for nn in (n, n + 1):
                    assert griesmer_check(nn, k, d, q) == (n, nn == n)


def test_griesmer_large_k_is_immediate():
    t0 = time.perf_counter()
    bound, attained = griesmer_check(10**6, 10**6, 9, 3)
    assert time.perf_counter() - t0 < 0.5
    # 9 + 3, then 10**6 - 2 terms of 1
    assert bound == 10**6 + 10 and not attained


def _family_dims(p, m):
    e = (p - 1) // m
    return {"even-I": e, "odd-I": p - e, "even-II": p - 1 - e,
            "odd-II": e + 1}


def test_griesmer_large_prime_q_is_immediate():
    # a prime power test by integer roots and Miller-Rabin, no factoring
    t0 = time.perf_counter()
    assert griesmer_check(13, 3, 9, 100000000000031) == (11, False)
    assert griesmer_check(13, 3, 9, (2**61 - 1) ** 2) == (11, False)
    assert time.perf_counter() - t0 < 0.1
    with pytest.raises(InvalidParameter, match="prime power"):
        griesmer_check(13, 3, 9, (2**61 - 1) * (2**31 - 1))


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_macwilliams_recurrence_matches_binomial_sums(q):
    for n in (1, 2, 7, 20, 41):
        for _ in range(5):
            dual = [rng.randrange(4) * rng.randrange(10**rng.randrange(6))
                    for _ in range(n + 1)]
            dual[rng.randrange(n + 1)] += 1
            assert macwilliams(dual, n, q) == macwilliams_naive(dual, n, q)


def dual_matrix(code):
    """Rows x**i * h for the dual generator h, checked against C: the
    rows are independent (h is monic of degree k) and orthogonal to
    every row of G."""
    h, n, k = dual_generator(code), code.p, code.dimension
    assert len(h) == k + 1 and h[-1] == 1
    mat = np.zeros((n - k, n), dtype=np.int64)
    for i in range(n - k):
        mat[i, i:i + k + 1] = h
    assert not ((generator_matrix(code) @ mat.T) % code.q).any()
    return mat


# every family code with n - k < k at these points is scanned through its
# dual; across the points every family occurs
DUAL_CASES = [(q, p, m, family)
              for q, p, m in ((2, 23, 2), (3, 11, 2), (3, 13, 4), (2, 31, 3),
                              (5, 31, 5))
              for family, k in _family_dims(p, m).items() if 2 * k > p]


@pytest.mark.parametrize("q,p,m,family", DUAL_CASES)
def test_dual_scan_matches_oracles(q, p, m, family):
    code = family_codes(build_residue_system(p, m), make_prime_field(q),
                        family)[0]
    n, k = p, code.dimension
    rep = min_distance_field(code)
    assert rep.method == "macwilliams" and rep.enumerated == q ** (n - k)
    dual = tuple(int(c) for c in scan_numpy(dual_matrix(code), q)[1])
    assert rep.weight_distribution == macwilliams_naive(dual, n, q)
    assert macwilliams(rep.weight_distribution, n, q) == dual
    if q ** k <= 1 << 21:
        assert rep.weight_distribution == tuple(
            int(c) for c in scan_numpy(generator_matrix(code), q)[1])
    assert rep.d_min == next(w for w in range(1, n + 1)
                             if rep.weight_distribution[w])


def test_dual_scan_counts_the_smaller_side():
    code = family_codes(build_residue_system(31, 3), make_prime_field(2),
                        "odd-I")[0]
    rep = min_distance_field(code)
    assert (rep.n, rep.k, rep.enumerated) == (31, 21, 2**10)
    with pytest.raises(TooLarge, match=r"enumerating 1024 codewords"):
        min_distance_field(code, cap=2**10 - 1)


def test_benchmark_call_shape():
    # perfbench/layers.py passes the cap and use_numba=None positionally
    field_code = family_codes(SYS134, F3, "even-I")[0]
    rc = ring_code(make_ring(F3, 3), SYS134, "even-I", (1, 2, 3))
    assert min_distance_field(field_code, DEFAULT_CAP, None).d_min == 9
    assert min_distance_ring(rc, DEFAULT_CAP, None).d_min == 9
    assert min_distance_field(field_code, DEFAULT_CAP, False).d_min == 9
    assert min_distance_ring(rc, DEFAULT_CAP, False).d_min == 9
    with pytest.raises(BackendUnavailable):
        min_distance_field(field_code, DEFAULT_CAP, True)
    with pytest.raises(BackendUnavailable):
        min_distance_ring(rc, DEFAULT_CAP, True)


# (q, p, m) with q an m-adic residue mod p and a small splitting field;
# every (s, family) whose tuple count stays at most 2**17
RING_CASES = [
    (q, p, m, s, family)
    for q, p, m in ((2, 7, 2), (3, 11, 2), (3, 13, 2), (3, 13, 4),
                    (5, 13, 3), (2, 17, 2), (7, 19, 3), (7, 19, 6),
                    (2, 31, 3), (2, 31, 6), (5, 31, 5), (5, 31, 10))
    for s in range(2, q + 1) if (q - 1) % (s - 1) == 0
    for family, k in _family_dims(p, m).items() if q ** (k * s) <= 1 << 17
]


@st.composite
def ring_cases(draw):
    q, p, m, s, family = draw(st.sampled_from(RING_CASES))
    slots = draw(st.lists(st.integers(0, m - 1), min_size=s, max_size=s))
    system = build_residue_system(p, m)
    return ring_code(make_ring(make_prime_field(q), s), system, family, slots)


@settings(max_examples=40, deadline=None)
@given(ring_cases())
def test_ring_exhaustive_matches_oracle_property(code):
    rep = min_distance_ring_exhaustive(code)
    d, counts = scan_union([generator_matrix(c) for c in code.components],
                           code.ring.q)
    assert rep.weight_distribution == tuple(int(c) for c in counts)
    assert rep.d_min == d == min_distance_ring(code).d_min
