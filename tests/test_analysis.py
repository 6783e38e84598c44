"""Distance computation and bound checks with frozen oracle values."""

import math
import random
import time
from collections import Counter

import pytest
import numpy as np
from hypothesis import example, given, settings, strategies as st

from madics import _kernels, analysis, poly
from madics.analysis import (
    DEFAULT_CAP,
    generator_matrix,
    griesmer_check,
    macwilliams,
    min_distance_field,
    min_distance_ring,
    min_distance_ring_exhaustive,
)
from madics.errors import (
    BackendUnavailable,
    FieldTooLarge,
    InvalidParameter,
    TooLarge,
)
from madics.ffield import S_CAP, SIZE_CAP, is_prime, make_prime_field
from madics.field_codes import FAMILIES, CyclicCode, family_codes
from madics.residues import build_residue_system
from madics.ringalg import make_ring
from madics.ring_codes import ring_code, ring_mu_chain
from oracle import (
    distribution_certificate,
    divmod_generic,
    griesmer_bound_naive,
    krawtchouk,
    macwilliams_naive,
    min_distance_ring_per_component,
    monic_generic,
    scan_numpy,
    scan_union,
)

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
    code = CyclicCode(3, 13, "even-I", 0, (0,), SYS134)
    rep = min_distance_field(code)
    assert (rep.k, rep.d_min) == (1, 13)


def test_zero_code_report():
    code = CyclicCode(3, 13, "even-I", 0, (), SYS134)
    rep = min_distance_field(code)
    assert rep.k == 0 and rep.d_min == 0 and rep.enumerated == 1
    assert rep.method == "exhaustive"
    assert rep.weight_distribution == (1,) + (0,) * 13


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


def ring_certificate(code, rep):
    """distribution_certificate of a ring code's exhaustive report: q**s
    symbols and q**(sum of ranks) words."""
    q, s = code.ring.q, code.ring.s
    distribution_certificate(rep.weight_distribution, code.p,
                             q ** sum(code.component_ranks), q**s, code.p, q)


def test_ring_distance_component_min_equals_exhaustive():
    base = ring_code(make_ring(F3, 3), SYS134, "even-I", (1, 2, 3))
    for code in ring_mu_chain(base, 7):
        rep = min_distance_ring(code)
        cross = min_distance_ring_exhaustive(code)
        ring_certificate(code, cross)
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


def test_ring_exhaustive_counts_every_tuple(monkeypatch):
    # the kernel scans one row per support class of each later component
    # and one per orbit support of the first (39 x 343 and 12 x 122 x 122
    # pairs), but enumerated stays the full tuple count, the product of
    # q**k_i, and the cap bounds that count, so every refusal is unchanged
    seen = kernel_work(monkeypatch)
    for q, s, work in ((5, 2, (39, 343)), (3, 3, (12 * 122, 122))):
        ring = make_ring(make_prime_field(q), s)
        code = ring_code(ring, build_residue_system(11, 2), "even-I",
                         [i % 2 for i in range(s)])
        total = math.prod(q ** c.dimension for c in code.components)
        assert total == q ** (5 * s)
        rep = min_distance_ring_exhaustive(code, cap=total)
        ring_certificate(code, rep)
        assert seen.pop() == work
        assert rep.enumerated == total
        assert sum(rep.weight_distribution) == total
        with pytest.raises(TooLarge,
                           match=rf"enumerating {total} component"):
            min_distance_ring_exhaustive(code, cap=total - 1)
    base = ring_code(make_ring(F3, 3), SYS134, "even-I", (1, 2, 3))
    assert min_distance_ring_exhaustive(base, cap=3 ** 9).enumerated == 3 ** 9
    with pytest.raises(TooLarge):
        min_distance_ring_exhaustive(base, cap=3 ** 9 - 1)


@pytest.mark.parametrize("q,p,m,s,family,k,d,dual_k", [
    (3, 13, 4, 3, "even-II", 27, 3, 12),
    (7, 19, 6, 2, "odd-I", 32, 3, 6),
    (2, 31, 3, 2, "even-II", 40, 6, 22)])
def test_ring_exhaustive_reaches_by_the_dual(q, p, m, s, family, k, d,
                                             dual_k):
    # q**k tuples, 2**42.8, 2**89.8 and 2**40, are past any cap, while
    # the dual components span q**dual_k: the dual side is scanned and
    # MacWilliams over q**s symbols gives the exact distribution
    code = ring_code(make_ring(make_prime_field(q), s),
                     build_residue_system(p, m), family, list(range(s)))
    rep = min_distance_ring_exhaustive(code)
    assert (rep.n, rep.k, rep.d_min, rep.method, rep.enumerated) == (
        p, k, d, "macwilliams", q**dual_k)
    assert rep.component_ranks == (k // s,) * s
    ring_certificate(code, rep)
    assert min_distance_ring(code).d_min == d
    with pytest.raises(TooLarge, match=rf"the smaller of the code "
                       rf"\({q}\^{k}\) and its dual \({q}\^{dual_k}\)"):
        min_distance_ring_exhaustive(code, cap=q**dual_k - 1)


def test_ring_common_rank():
    base = ring_code(make_ring(F3, 3), SYS134, "even-I", (1, 2, 3))
    rep = min_distance_ring(base)
    assert rep.k == 3 and rep.component_ranks == (3, 3, 3)
    mixed = ring_code(make_ring(F3, 3), SYS134, "even-I", (0, 0, 1))
    assert min_distance_ring(mixed).k == 3  # ranks still all equal here


def test_weight_enumerator_invariant_on_mu_orbit():
    # codes in one family are permutation-equivalent (mu_b, b in Q_1,
    # maps member i to member i + 1), so all m members share one weight
    # distribution: what min_distance_ring's single scan relies on
    for q, p, m in [(3, 13, 4)] + FIELD_CASES:
        system = build_residue_system(p, m)
        for fam in FAMILIES:
            for u in (1, 2):
                codes = family_codes(system, make_prime_field(q), fam, u)
                assert len(codes) == m
                dists = {min_distance_field(c).weight_distribution
                         for c in codes}
                assert len(dists) == 1, (q, p, m, fam, u)


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
    # InvalidParameter is a MadicError and a ValueError; a q of 5,001
    # digits, which Python cannot write in decimal, is named by its bits
    for n, k, d, q in ((13, 0, 9, 3), (13, 3, 0, 3), (13, 3, 9, 0),
                       (13, 3, 9, 1), (13, 3, 9, -3), (0, 3, 9, 3),
                       (-1, 3, 9, 3), (13, 3, 9, 6), (13, 3, 9, 10),
                       (13, 3, 9, 12), (13, 3, 9, 100),
                       (0, 1, 1, 10**5000 + 3)):
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


def test_griesmer_q_bounded_by_the_largest_alphabet():
    # the largest alphabet madics builds is GF(q) to SIZE_CAP, to the
    # power S_CAP in a ring: q up to 2^1984 is tested, in well under a
    # second, and any larger q is refused before the prime-power test,
    # which took 22-27 s at a 4,001-digit q
    top = SIZE_CAP**S_CAP
    assert top == 2**1984
    t0 = time.perf_counter()
    assert griesmer_check(13, 3, 9, top) == (11, False)
    assert griesmer_check(13, 3, 9, (2**61 - 1) ** 32) == (11, False)
    with pytest.raises(InvalidParameter, match="prime power"):
        griesmer_check(13, 3, 9, top - 1)
    assert time.perf_counter() - t0 < 1
    t0 = time.perf_counter()
    for q in (top + 1, 2**3217 - 1, 10**4000 + 1):
        with pytest.raises(FieldTooLarge,
                           match=f"q of {q.bit_length()} bits exceeds"):
            griesmer_check(1, 1, 1, q)
    assert time.perf_counter() - t0 < 0.1


# (q, p) of the census whose splitting field GF(q^t) is past SIZE_CAP
CENSUS_FIELD_TOO_LARGE = {(3, 47), (3, 59), (5, 29), (5, 41), (5, 59),
                          (5, 61), (7, 31), (7, 47), (7, 53), (7, 59)}
# the census's Griesmer-optimal [n, k, d]_q, as (n, k, d, q), with the
# number of distinct codes that attain each
CENSUS_GRIESMER_ATTAINED = {
    (7, 3, 4, 2): 2, (7, 4, 3, 2): 2, (31, 5, 16, 2): 6,
    (31, 6, 15, 2): 6, (11, 5, 6, 3): 2, (11, 6, 5, 3): 2,
    (13, 3, 9, 3): 4, (11, 5, 6, 5): 2, (31, 3, 25, 5): 10,
    (3, 1, 3, 7): 2, (3, 2, 2, 7): 2, (19, 3, 15, 7): 6,
}


def test_field_griesmer_census():
    # every distinct nonzero family code, by generator, over q in
    # {2, 3, 5, 7}, primes p < 64 and every m with q in Q_0, under
    # alpha_exp = 1: each scan under DEFAULT_CAP accounts for all q**k
    # words, and the codes that attain the Griesmer bound are pinned
    too_large, codes = set(), {}
    for q in (2, 3, 5, 7):
        for p in filter(is_prime, range(2, 64)):
            for m in range(2, p):
                if p == q or (p - 1) % m:
                    continue
                system = build_residue_system(p, m)
                if not system.is_madic_residue(q % p):
                    continue
                for family in FAMILIES:
                    for code in family_codes(system, make_prime_field(q),
                                             family, 1):
                        try:
                            gen = code.generator
                        except FieldTooLarge:
                            too_large.add((q, p))
                            break
                        if code.dimension:
                            codes.setdefault((q, p, gen), code)
    assert too_large == CENSUS_FIELD_TOO_LARGE
    assert len(codes) == 360
    refused, attained = 0, Counter()
    for code in codes.values():
        n, k, q = code.p, code.dimension, code.q
        try:
            rep = min_distance_field(code, DEFAULT_CAP)
        except TooLarge:
            refused += 1
            continue
        distribution_certificate(rep.weight_distribution, n, q**k, q, n, q)
        if griesmer_check(n, k, rep.d_min, q)[1]:
            attained[n, k, rep.d_min, q] += 1
    assert refused == 52
    assert attained == CENSUS_GRIESMER_ATTAINED


# the ring census's points that attain the field form of the Griesmer
# bound at their common component rank, as (n, k, d, q), with the number
# of (p, m, s, family) points that attain each
RING_CENSUS_FIELD_FORM = {
    (7, 3, 4, 2): 2, (7, 4, 3, 2): 2, (31, 5, 16, 2): 1,
    (31, 6, 15, 2): 1, (11, 5, 6, 3): 4, (11, 6, 5, 3): 4,
    (13, 3, 9, 3): 2, (11, 5, 6, 5): 6, (31, 3, 25, 5): 3,
    (3, 1, 3, 7): 8, (3, 2, 2, 7): 8, (19, 3, 15, 7): 4,
}
# and those that attain the form with alphabet q**s, as (n, k, d, q, s)
RING_CENSUS_QS_FORM = {
    (3, k, 4 - k, 7, s): 2 for k in (1, 2) for s in (2, 3, 4, 7)}


def test_ring_griesmer_census():
    # the ring half of the optimality check: member 0 of each family at
    # slots i mod m over q in {2, 3, 5, 7}, primes p < 64, every m with
    # q in Q_0 and every s <= q with (s - 1) | (q - 1).  Through the CRT
    # the code is free of rank k with [n, k, d]_q components, so the
    # field bound at rank k holds for it; the q**s form, the shape of
    # Shiromoto & Storme's bound over a quasi-Frobenius ring, is weaker.
    # Every point whose smaller side fits DEFAULT_CAP gives component-
    # min's distance exhaustively, half of them by MacWilliams over q**s
    points, refused, field_form, qs_form = 0, 0, Counter(), Counter()
    methods = Counter()
    for q in (2, 3, 5, 7):
        field = make_prime_field(q)
        for p in filter(is_prime, range(2, 64)):
            for m in range(2, p):
                if p == q or (p - 1) % m:
                    continue
                system = build_residue_system(p, m)
                if not system.is_madic_residue(q % p):
                    continue
                for s in range(2, q + 1):
                    if (q - 1) % (s - 1):
                        continue
                    ring = make_ring(field, s)
                    for family in FAMILIES:
                        code = ring_code(ring, system, family,
                                         [i % m for i in range(s)])
                        try:
                            rep = min_distance_ring(code)
                        except TooLarge:
                            refused += 1
                            continue
                        points += 1
                        n, k, d = rep.n, rep.k, rep.d_min
                        if griesmer_check(n, k, d, q)[1]:
                            field_form[n, k, d, q] += 1
                        if griesmer_check(n, k, d, q**s)[1]:
                            qs_form[n, k, d, q, s] += 1
                        try:
                            cross = min_distance_ring_exhaustive(code)
                        except TooLarge:
                            continue
                        ring_certificate(code, cross)
                        assert cross.d_min == d
                        methods[cross.method] += 1
    assert (points, refused) == (224, 228)
    assert field_form == RING_CENSUS_FIELD_FORM
    assert sum(field_form.values()) == 45
    assert qs_form == RING_CENSUS_QS_FORM
    assert sum(qs_form.values()) == 16
    assert methods == {"exhaustive": 37, "macwilliams": 37}


def test_certificate_catches_a_moved_count():
    # [13, 3, 9]_3, A_0 = 1 and A_9 = 26, passes; one word of weight 9
    # moved to weight 10 keeps A_0 and the sum but changes 27 B_1 by -3,
    # which 27 does not divide
    code = family_codes(SYS134, F3, "even-I")[0]
    dist = list(min_distance_field(code).weight_distribution)
    distribution_certificate(dist, 13, 27, 3, 13, 3)
    dist[9] -= 1
    dist[10] += 1
    with pytest.raises(AssertionError, match="does not divide"):
        distribution_certificate(dist, 13, 27, 3, 13, 3)


def test_macwilliams_catches_a_moved_count():
    # the same moved count leaves 27 B_1 - 3 for macwilliams to divide
    # by 27: it raises where it used to floor
    code = family_codes(SYS134, F3, "even-I")[0]
    dist = list(min_distance_field(code).weight_distribution)
    assert macwilliams(dist, 13, 3) == \
        min_distance_field(code.dual).weight_distribution
    dist[9] -= 1
    dist[10] += 1
    with pytest.raises(AssertionError, match="does not divide"):
        macwilliams(dist, 13, 3)


@pytest.mark.parametrize("family", ["even-I", "odd-I"])
@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("fault", ["moved to weight 0", "one too many"])
def test_smaller_side_checks_the_kernel_counts(monkeypatch, family, s,
                                               fault):
    # a code side (even-I) and a dual side (odd-I) at (3, 13, 4), as a
    # field code through scan and a ring code through scan_union: a count
    # of the least nonzero weight moved into counts[0], or one count too
    # many, fails the check before macwilliams or the d_min read
    if s == 1:
        code = family_codes(SYS134, F3, family)[0]
        measure, kernel = min_distance_field, "scan"
    else:
        code = ring_code(make_ring(F3, 2), SYS134, family, (0, 1))
        measure, kernel = min_distance_ring_exhaustive, "scan_union"
    assert measure(code).weight_distribution[0] == 1
    real = getattr(_kernels, kernel)

    def faulty(*args):
        counts = real(*args)
        w = np.flatnonzero(counts[1:])[0] + 1
        counts[w] -= fault == "moved to weight 0"
        counts[0 if fault == "moved to weight 0" else w] += 1
        return counts

    monkeypatch.setattr(_kernels, kernel, faulty)
    with pytest.raises(AssertionError, match="messages gave"):
        measure(code)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_macwilliams_recurrence_matches_binomial_sums(q):
    # a random draw is rarely a dual distribution: macwilliams must raise
    # where a binomial sum leaves a remainder, and agree where none does;
    # with B_0 set so that sum_i B_i = 1 every division is exact, and the
    # recurrence must meet the binomial sums unfloored
    for n in (1, 2, 7, 20, 41):
        for _ in range(5):
            dual = [rng.randrange(4) * rng.randrange(10**rng.randrange(6))
                    for _ in range(n + 1)]
            dual[rng.randrange(n + 1)] += 1
            sums = [sum(b * krawtchouk(w, i, n, q) for i, b in enumerate(dual))
                    for w in range(n + 1)]
            if any(a % sum(dual) for a in sums):
                with pytest.raises(AssertionError, match="does not divide"):
                    macwilliams(dual, n, q)
            else:
                assert macwilliams(dual, n, q) == macwilliams_naive(dual, n, q)
            dual[0] += 1 - sum(dual)
            assert macwilliams(dual, n, q) == macwilliams_naive(dual, n, q)


def dual_matrix(code):
    """Rows x**i * h for the generator h of code.dual, checked against
    C: the rows are independent (h is monic of degree k) and orthogonal
    to every row of G."""
    h, n, k = code.dual.generator, code.p, code.dimension
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


# (q, p, m) with q an m-adic residue mod p and a small splitting field
FIELD_CASES = [(2, 7, 2), (3, 11, 2), (3, 13, 2), (3, 13, 4), (5, 13, 3),
               (2, 17, 2), (7, 19, 3), (7, 19, 6), (2, 31, 3), (2, 31, 6),
               (5, 31, 5), (5, 31, 10)]


@pytest.mark.parametrize("q,p,m", FIELD_CASES + [
    (11, 5, 2), (11, 5, 4), (2, 127, 9), (2, 89, 8)])
def test_dual_generator_is_the_reciprocal_quotient(q, p, m):
    # the generator of the family partner against the monic reciprocal
    # of the exact quotient (x**p - 1)/g, for every family code and both
    # labelings; (11, 5) has p | q - 1
    ctx = make_prime_field(q)
    xp1 = poly.xn_minus_1(q, p)
    for family in FAMILIES:
        for u in (1, -1):
            for code in family_codes(build_residue_system(p, m), ctx,
                                     family, u):
                check, rem = divmod_generic(ctx, xp1, code.generator)
                assert rem == ()
                assert code.dual.generator == \
                    monic_generic(ctx, check[::-1])


def scalar_only_matrix(code):
    """The matrix of the same scan without a split: the scan of a code
    below SPLIT_MIN_WORDS."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "SPLIT_MIN_WORDS", math.inf)
        gmat, check = analysis._scan_matrix(code)
    assert check is None
    return gmat


def split_sides(q, p, m, index=None):
    """Every family code at (q, p, m), which holds the dual of each, or
    the code of one index and its dual: the sides a distance scan may
    take."""
    for family in FAMILIES:
        codes = family_codes(build_residue_system(p, m), make_prime_field(q),
                             family)
        if index is None:
            yield from codes
        else:
            yield from (codes[index], codes[index].dual)


def assert_split_scan_exact(code, oracle_words):
    """The split scan of code against scan_numpy up to oracle_words
    words, else against the scalar-only scan; returns whether code was
    split."""
    q = code.q
    gmat, check = analysis._scan_matrix(code)
    got = _kernels.scan(gmat, q, check)
    plain = scalar_only_matrix(code)
    ref = (scan_numpy(plain, q)[1] if q ** len(plain) <= oracle_words
           else _kernels.scan(plain, q))
    assert np.array_equal(got, ref)
    return check is not None


@pytest.mark.parametrize("q,p,m", FIELD_CASES)
def test_split_scan_matches_oracles(monkeypatch, q, p, m):
    # every family code and its dual, whichever side the distance scan
    # would take, through the ideal split where there is one, also on
    # codes too small for the distance scan to split
    monkeypatch.setattr(analysis, "SPLIT_MIN_WORDS", 0)
    for code in split_sides(q, p, m):
        if q ** code.dimension <= 1 << 18:
            assert_split_scan_exact(code, 1 << 12)


@pytest.mark.parametrize("q,p,m", [(11, 5, 2), (11, 5, 4)])
def test_split_scan_when_p_divides_q_minus_1(monkeypatch, q, p, m):
    # x has order p, which divides q - 1, so <x, scalars> is not
    # cyclic and no single element of it generates the orbits
    monkeypatch.setattr(analysis, "SPLIT_MIN_WORDS", 0)
    split = 0
    for code in split_sides(q, p, m):
        split += assert_split_scan_exact(code, 1 << 12)
    assert split


@pytest.mark.parametrize("q,p,m", [(2, 127, 9), (2, 127, 6), (2, 89, 4)])
def test_split_scan_matches_scalar_only_at_length(q, p, m):
    # up to 2**22 words a side, against the scalar-only scan
    split = 0
    for code in split_sides(q, p, m, index=0):
        if q ** code.dimension <= 1 << 22:
            split += assert_split_scan_exact(code, 1 << 12)
    assert split


def kernel_work(monkeypatch):
    """A list that gathers (high rows, low rows) of every
    _distance_counts call."""
    seen = []
    kernel = _kernels._distance_counts

    def spy(high, n_high, low, *rest):
        seen.append((n_high, low.shape[1]))
        return kernel(high, n_high, low, *rest)

    monkeypatch.setattr(_kernels, "_distance_counts", spy)
    return seen


@pytest.mark.parametrize("q,p,m,family,work", [
    # [127,15]_2 = A + B with k_A = 8 (x - 1 and one degree-7 factor):
    # orbits 0, the all-ones word, and two of 127 words each
    (2, 127, 9, "odd-II", (4, 128)),
    # [89,22]_2, 2**22 words: 1 + 2047/89 orbits of A against 2**11
    (2, 89, 4, "even-I", (24, 2048)),
    # [127,14]_2: 0 and the 127 nonzero words of a degree-7 ideal
    (2, 127, 9, "even-I", (2, 128)),
    # [19,7]_7 = (3 + 1) + 3: orbits of <x, scalars> on 7**4 messages
    (7, 19, 3, "odd-II", (23, 343))])
def test_split_scan_work(monkeypatch, q, p, m, family, work):
    code = family_codes(build_residue_system(p, m), make_prime_field(q),
                        family)[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "SPLIT_MIN_WORDS", math.inf)
        ref = min_distance_field(code)
    seen = kernel_work(monkeypatch)
    assert min_distance_field(code) == ref
    assert seen == [work]


def test_split_fallbacks(monkeypatch):
    # [19,3]_7 has an irreducible check polynomial and [13,4]_3 one of
    # degrees 1 + 3, whose A could only be the x - 1 part: both scan as
    # before, the zero word and the projective points of the upper
    # half against the lower half, at any size
    monkeypatch.setattr(analysis, "SPLIT_MIN_WORDS", 0)
    seen = kernel_work(monkeypatch)
    for (q, p, m, family), work in [((7, 19, 6, "even-I"), (2, 49)),
                                    ((3, 13, 4, "odd-II"), (5, 9))]:
        code = family_codes(build_residue_system(p, m), make_prime_field(q),
                            family)[0]
        assert analysis._split(code) is None
        assert analysis._scan_matrix(code)[1] is None
        min_distance_field(code)
        assert seen.pop() == work
    # a B past SPLIT_LOW_ROWS: [127,15]_2 splits 8 + 7, so B has 2**7
    code = family_codes(build_residue_system(127, 9), make_prime_field(2),
                        "odd-II")[0]
    monkeypatch.setattr(analysis, "SPLIT_LOW_ROWS", 2**7 - 1)
    assert analysis._split(code) is None
    monkeypatch.setattr(analysis, "SPLIT_LOW_ROWS", 2**7)
    assert len(analysis._split(code)[0]) == 9
    # a scan of fewer than SPLIT_MIN_WORDS words: [13,6]_3 splits 3 + 3
    # when forced, and not at the default
    code = family_codes(build_residue_system(13, 2), F3, "even-I")[0]
    assert analysis._split(code) is not None
    monkeypatch.setattr(analysis, "SPLIT_MIN_WORDS", 3**6 + 1)
    assert analysis._split(code) is None


# every (s, family) whose tuple count stays at most 2**17
RING_CASES = [
    (q, p, m, s, family)
    for q, p, m in FIELD_CASES
    for s in range(2, q + 1) if (q - 1) % (s - 1) == 0
    for family, k in _family_dims(p, m).items() if q ** (k * s) <= 1 << 17
]


@pytest.mark.parametrize("q,p,m,s,family", RING_CASES)
def test_ring_grid_certificates(q, p, m, s, family):
    # every ring code of the grid whose tuple count stays at most 2**17,
    # on the slots i, 0 and 2i + 1 mod m
    ring, system = make_ring(make_prime_field(q), s), build_residue_system(p, m)
    for slots in ([i % m for i in range(s)], [0] * s,
                  [(2 * i + 1) % m for i in range(s)]):
        code = ring_code(ring, system, family, slots)
        ring_certificate(code, min_distance_ring_exhaustive(code))


@st.composite
def ring_cases(draw):
    q, p, m, s, family = draw(st.sampled_from(RING_CASES))
    slots = draw(st.lists(st.integers(0, m - 1), min_size=s, max_size=s))
    system = build_residue_system(p, m)
    return ring_code(make_ring(make_prime_field(q), s), system, family, slots)


@settings(max_examples=40, deadline=None)
@given(ring_cases())
# a repeated slot in each class II family, beside the random draws
@example(ring_code(make_ring(make_prime_field(2), 2),
                   build_residue_system(7, 2), "even-II", (1, 1)))
@example(ring_code(make_ring(F3, 2), SYS134, "odd-II", (3, 3)))
def test_ring_exhaustive_matches_oracle_property(code):
    rep = min_distance_ring_exhaustive(code)
    ring_certificate(code, rep)
    d, counts = scan_union([generator_matrix(c) for c in code.components],
                           code.ring.q)
    assert rep.weight_distribution == tuple(int(c) for c in counts)
    assert rep.d_min == d == min_distance_ring(code).d_min
    assert min_distance_ring(code) == min_distance_ring_per_component(code)
