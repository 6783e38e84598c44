"""Distance computation and bound checks with frozen oracle values."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from madics import poly
from madics.analysis import (
    DEFAULT_CAP,
    generator_matrix,
    griesmer_check,
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
                       (-1, 3, 9, 3)):
        with pytest.raises(InvalidParameter, match="griesmer check needs"):
            griesmer_check(n, k, d, q)


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


def _family_dims(p, m):
    e = (p - 1) // m
    return {"even-I": e, "odd-I": p - e, "even-II": p - 1 - e,
            "odd-II": e + 1}


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
