"""Field code family tests with frozen reference generators."""

import dataclasses
import random
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from madics import poly
from madics.analysis import min_distance_field
from madics.errors import NonPrimeModulus, NotCoprime, QNotResidue, TooLarge
from madics.ffield import make_extension, make_prime_field
from madics import field_codes
from madics.field_codes import (
    FAMILIES,
    _min_poly,
    check_factors,
    coset_factors,
    family_codes,
    gauss_periods,
    product,
    splitting_field,
)
from madics.residues import build_residue_system
from oracle import (
    class_products_direct,
    coset_factor_schoolbook,
    cyclotomic_cosets_walked,
    divmod_generic,
    eval_generic,
    gauss_periods_table,
    idempotent_bezout,
    mod_xn_minus_1,
    monic_generic,
    product_schoolbook,
    relabeled,
    spectrum_direct,
)

F3 = make_prime_field(3)
F7 = make_prime_field(7)

# six degree-16 generators for q=7, p=19, m=6, transcribed ascending
REF_GENERATORS_Q7_P19_M6 = {
    (1, 4, 6, 6, 3, 0, 4, 5, 1, 0, 2, 2, 2, 4, 5, 3, 1),
    (1, 3, 1, 1, 5, 1, 6, 1, 5, 6, 0, 6, 3, 3, 5, 1, 1),
    (1, 0, 5, 1, 4, 3, 0, 5, 3, 4, 6, 2, 6, 2, 4, 2, 1),
    (1, 3, 5, 4, 2, 2, 2, 0, 1, 5, 4, 0, 3, 6, 6, 4, 1),
    (1, 1, 5, 3, 3, 6, 0, 6, 5, 1, 6, 1, 5, 1, 1, 3, 1),
    (1, 2, 4, 2, 6, 2, 6, 4, 3, 5, 0, 3, 4, 1, 5, 0, 1),
}


def test_even_like_generators_q7_p19_m6_frozen():
    system = build_residue_system(19, 6)
    codes = family_codes(system, F7, "even-I")
    assert {c.generator for c in codes} == REF_GENERATORS_Q7_P19_M6


def test_family_degrees():
    # deg ghat = (p-1)/m; even-I = p - that; class II off by one
    for q, p, m in ((3, 13, 4), (7, 19, 6), (3, 13, 2), (7, 19, 3)):
        system = build_residue_system(p, m)
        ctx = make_prime_field(q)
        card = (p - 1) // m
        degs = {
            "even-I": p - card,
            "odd-I": card,
            "even-II": card + 1,
            "odd-II": p - card - 1,
        }
        for fam in FAMILIES:
            for c in family_codes(system, ctx, fam):
                assert len(c.generator) - 1 == degs[fam]
                assert c.dimension == p - degs[fam]


def test_generators_divide_xp_minus_1():
    system = build_residue_system(13, 4)
    xp1 = poly.xn_minus_1(3, 13)
    for fam in FAMILIES:
        for c in family_codes(system, F3, fam):
            assert poly.divides(3, c.generator, xp1)


def test_class_i_complement_product():
    # g_i * ghat_i = x^p - 1
    system = build_residue_system(13, 4)
    xp1 = poly.xn_minus_1(3, 13)
    evens = family_codes(system, F3, "even-I")
    odds = family_codes(system, F3, "odd-I")
    for e, o in zip(evens, odds):
        assert poly.mul(3, e.generator, o.generator) == xp1


def test_class_ii_x_minus_1_relation():
    # h_i = (x-1) ghat_i and hhat_i = g_i/(x-1)
    system = build_residue_system(13, 4)
    x_minus_1 = (2, 1)
    odd1 = family_codes(system, F3, "odd-I")
    even2 = family_codes(system, F3, "even-II")
    even1 = family_codes(system, F3, "even-I")
    odd2 = family_codes(system, F3, "odd-II")
    for o1, e2 in zip(odd1, even2):
        assert e2.generator == poly.mul(3, x_minus_1, o1.generator)
    for e1, o2 in zip(even1, odd2):
        assert poly.mul(3, x_minus_1, o2.generator) == e1.generator


def test_idempotent_properties():
    for q, p, m in ((3, 13, 4), (7, 19, 6)):
        system = build_residue_system(p, m)
        ctx = make_prime_field(q)
        xp1 = poly.xn_minus_1(q, p)
        for fam in FAMILIES:
            for c in family_codes(system, ctx, fam):
                assert poly.mul_mod(q, c.idempotent, c.idempotent, p) == \
                    c.idempotent
                assert poly.gcd(q, c.idempotent, xp1) == \
                    poly.monic(q, c.generator)


def test_even_like_codes_vanish_at_one():
    system = build_residue_system(13, 4)
    for fam in ("even-I", "even-II"):
        for c in family_codes(system, F3, fam):
            assert poly.eval_poly(3, c.generator, 1) == 0
    for fam in ("odd-I", "odd-II"):
        for c in family_codes(system, F3, fam):
            assert poly.eval_poly(3, c.generator, 1) != 0


def test_contains():
    system = build_residue_system(13, 4)
    code = family_codes(system, F3, "even-I")[0]

    def contains(word):
        # a codeword is a multiple of the generator mod x^p - 1
        return poly.divides(3, code.generator,
                            mod_xn_minus_1(F3, word, code.p))

    assert contains(code.generator)
    shifted = (0,) + code.generator
    assert contains(shifted)
    assert not contains((1,))
    assert contains(())


def test_q_must_be_residue():
    system = build_residue_system(7, 3)
    with pytest.raises(QNotResidue):
        family_codes(system, make_prime_field(2), "even-I")


def test_extension_fields_are_refused_at_the_call():
    # the codes carry GF(q) as the int q, so a field context with t != 1
    # is refused where it enters, before any record is handed out
    system = build_residue_system(13, 4)
    with pytest.raises(NonPrimeModulus):
        family_codes(system, make_extension(3, 2), "even-I")
    with pytest.raises(NonPrimeModulus):
        family_codes(system, make_extension(3, 2), "even-I", 2)


def test_alpha_exp_rotates_labels():
    # beta = alpha**u relabels class i as class i + c(u), as u*Q_i =
    # Q_{i+c(u)}: every call form and labeling hands out the m codes of
    # one build, and each code's dual's dual is the code itself
    for q, p, m in ((3, 13, 4), (7, 19, 6), (2, 31, 3)):
        system = build_residue_system(p, m)
        ctx = make_prime_field(q)
        for family in FAMILIES:
            base = family_codes(system, ctx, family)
            assert all(code.index == i for i, code in enumerate(base))
            assert all(code.dual.dual is code for code in base)
            for u in range(1, p):
                c = system.class_of(u)
                for labeled in (
                        family_codes(system, ctx, family, u),
                        family_codes(system, ctx, family, alpha_exp=u),
                        family_codes(system, ctx, family, u - p)):
                    assert all(labeled[i] is base[(i + c) % m]
                               for i in range(m))
                    assert all(code.dual.dual is code for code in labeled)


def test_negative_alpha_exp_is_reduced_mod_p():
    # u = -1 and u = p - 1 name the same root alpha^(p-1)
    system = build_residue_system(13, 4)
    for fam in FAMILIES:
        assert family_codes(system, F3, fam, -1) == \
            family_codes(system, F3, fam, 12)


def test_coset_factors_multiply_to_xp_minus_1():
    for q, p in ((3, 13), (7, 19), (2, 7)):
        ctx = make_prime_field(q)
        factor_of = coset_factors(q, p)
        assert factor_of[0] == (q - 1, 1)
        assert list(factor_of) == [c[0]
                                   for c in cyclotomic_cosets_walked(q, p)]
        assert len(set(factor_of.values())) == len(factor_of)
        assert product_schoolbook(ctx, factor_of.values()) == \
            poly.xn_minus_1(q, p)
    with pytest.raises(NonPrimeModulus):
        coset_factors(3, 15)


@pytest.mark.parametrize("q,p", ((2, 7), (3, 13), (7, 19), (2, 23),
                                 (3, 11), (5, 31), (2, 89), (2, 127)))
def test_coset_factor_product_tree_matches_schoolbook(q, p):
    # every factor is the monic polynomial of degree |C| that vanishes
    # at alpha^k for k in its coset C, so it is unchanged; the packed
    # product tree agrees with the schoolbook product on the factors,
    # on every prefix of them and on random lists
    ctx = make_prime_field(q)
    ext, alpha = splitting_field(q, p)
    factor_of = coset_factors(q, p)
    for coset in cyclotomic_cosets_walked(q, p):
        factor = factor_of[coset[0]]
        assert len(factor) == len(coset) + 1 and factor[-1] == 1
        assert all(eval_generic(ext, factor, ext.pow(alpha, k)) == 0
                   for k in coset)
    factors = list(factor_of.values())
    assert product(q, factors) == poly.xn_minus_1(q, p)
    for i in range(len(factors) + 1):
        assert product(q, factors[:i]) == \
            product_schoolbook(ctx, factors[:i])
    rng = random.Random(q * p)
    for size in range(1, 8):
        polys = [tuple(rng.randrange(q) for _ in range(rng.randrange(1, 9)))
                 + (rng.randrange(1, q),) for _ in range(size)]
        assert product(q, polys) == product_schoolbook(ctx, polys)


@pytest.mark.parametrize("q,p", ((7, 3), (11, 5), (13, 3), (2, 7), (3, 13),
                                 (2, 23), (3, 41), (5, 71), (2, 89),
                                 (2, 127)))
def test_coset_factors_match_schoolbook_oracle(q, p):
    # minimal polynomials over F_q against the linear terms multiplied
    # out over GF(q^t); (7, 3), (11, 5) and (13, 3) have t = 1
    factor_of = coset_factors(q, p)
    schoolbook = coset_factor_schoolbook(q, p)
    assert set(factor_of) == {coset[0] for coset in schoolbook}
    for coset, factor in schoolbook.items():
        assert factor_of[coset[0]] == factor


def test_min_poly_known_answers():
    # Fibonacci mod 5 satisfies x^2 - x - 1; a geometric sequence of
    # ratio 3 over GF(7) satisfies x - 3; 0, 0, 1 repeated satisfies
    # x^3 - 1; 1, 0, 0, 0 is the impulse, whose minimal polynomial is x
    fib = [0, 1]
    while len(fib) < 12:
        fib.append((fib[-1] + fib[-2]) % 5)
    assert _min_poly(5, fib) == (4, 4, 1)
    assert _min_poly(7, [1, 3, 2, 6]) == (4, 1)
    assert _min_poly(2, [0, 0, 1] * 4) == (1, 0, 0, 1)
    assert _min_poly(3, [1, 0, 0, 0]) == (0, 1)


@pytest.mark.parametrize("family", FAMILIES)
def test_cold_family_long_p_time(cold_caches, family):
    # field, coset factors, the family's records and one code's
    # generator and idempotent from cold caches: no construction step
    # may grow with p faster than one product of coset factors
    system = build_residue_system(8191, 2)
    t0 = time.perf_counter()
    code = family_codes(system, make_prime_field(2), family)[1]
    code.generator, code.idempotent
    assert time.perf_counter() - t0 < 0.5


def test_cold_even_like_longest_p_time(cold_caches):
    # (2, 131071), t = 17, the longest p the caps admit at q = 2; a
    # schoolbook division of x^p - 1 there takes minutes
    system = build_residue_system(131071, 2)
    t0 = time.perf_counter()
    code = family_codes(system, make_prime_field(2), "even-I")[1]
    code.generator, code.idempotent
    assert time.perf_counter() - t0 < 10


GENERATOR_GRID = ((7, 19, 6), (2, 127, 9), (3, 13, 4), (2, 89, 8),
                  (5, 31, 5))


@pytest.mark.parametrize("q,p,m", GENERATOR_GRID)
def test_complement_generators_match_division(q, p, m):
    # g_i = (x**p - 1) / ghat_i and hhat_i = g_i / (x - 1), with ghat_i
    # the odd-I generator
    ctx = make_prime_field(q)
    system = build_residue_system(p, m)
    xp1 = poly.xn_minus_1(q, p)
    x_minus_1 = (q - 1, 1)
    for u in (1, -1):
        ghats = family_codes(system, ctx, "odd-I", u)
        even = family_codes(system, ctx, "even-I", u)
        odd = family_codes(system, ctx, "odd-II", u)
        for ghat, e, o in zip(ghats, even, odd):
            g, rem = divmod_generic(ctx, xp1, ghat.generator)
            assert rem == () and e.generator == g
            assert divmod_generic(ctx, g, x_minus_1) == (o.generator, ())


@pytest.mark.parametrize("q,p,m", GENERATOR_GRID)
def test_family_codes_match_the_oracles(q, p, m):
    # each record's polynomials against the schoolbook forms: g is
    # (x**p - 1) over the product of its nonzero coset factors, the
    # idempotent is Bezout's on g, the dimension is p - deg g and the
    # dual's generator the monic reciprocal of the check polynomial
    ctx = make_prime_field(q)
    system = build_residue_system(p, m)
    xp1 = poly.xn_minus_1(q, p)
    factors = {coset[0]: f
               for coset, f in coset_factor_schoolbook(q, p).items()}
    for u in (1, -1):
        for family in FAMILIES:
            for code in family_codes(system, ctx, family, u):
                check = product_schoolbook(
                    ctx, [factors[r] for r in code.nonzeros])
                assert divmod_generic(ctx, xp1, check) == \
                    (code.generator, ())
                assert code.idempotent == \
                    idempotent_bezout(ctx, code.generator, p)
                assert code.dimension == p + 1 - len(code.generator)
                assert code.dual.generator == \
                    monic_generic(ctx, check[::-1])


def test_family_codes_builds_no_polynomial(monkeypatch):
    # a family is m records of nonzeros; every product waits for a read
    def refuse(*args):
        raise AssertionError("family_codes multiplied a polynomial")

    monkeypatch.setattr(field_codes, "product", refuse)
    monkeypatch.setattr(poly, "mul_mod", refuse)
    system, ctx = build_residue_system(8191, 630), make_prime_field(2)
    for family in FAMILIES:
        codes = family_codes.__wrapped__(system, ctx, family)
        assert [c.index for c in codes] == list(range(630))


def test_dual_generator_built_once_per_code(monkeypatch):
    # the dual is the partner's record, so its generator is one coset
    # product, kept on that record whichever side reads it first
    system, ctx = build_residue_system(8191, 630), make_prime_field(2)
    odd, even = (family_codes(system, ctx, fam, 1)
                 for fam in ("odd-I", "even-I"))
    c = system.class_of(-1)
    through_code = odd[3].dual.generator
    through_partner = even[5 + c].generator
    calls = []
    monkeypatch.setattr(field_codes, "product",
                        lambda *args: calls.append(args))
    assert odd[3].dual is even[3 + c] and odd[5].dual is even[5 + c]
    assert even[3 + c].generator == through_code
    assert odd[5].dual.generator == through_partner
    assert calls == []


# the points of test_analysis.test_dual_generator_is_the_reciprocal_quotient
DUALITY_GRID = ((2, 7, 2), (3, 11, 2), (3, 13, 2), (3, 13, 4), (5, 13, 3),
                (2, 17, 2), (7, 19, 3), (7, 19, 6), (2, 31, 3), (2, 31, 6),
                (5, 31, 5), (5, 31, 10), (11, 5, 2), (11, 5, 4),
                (2, 127, 9), (2, 89, 8))


@pytest.mark.parametrize("q,p,m", DUALITY_GRID)
def test_dual_is_the_family_partner(q, p, m):
    # C^perp has the negated zeros of C as nonzeros: the other-parity
    # member of the same class type at index + c(-1), c(-1) = (p-1)/2
    # mod m, whose own dual is C, for every family; under a labeling the
    # partner sits at position + c(-1) of the relabeled family too
    ctx = make_prime_field(q)
    system = build_residue_system(p, m)
    c = system.class_of(-1)
    assert c == (p - 1) // 2 % m
    leader = [min(k * pow(q, j, p) % p for j in range(p)) for k in range(p)]
    partner = dict(zip(FAMILIES, ("odd-I", "even-I", "odd-II", "even-II")))
    for family in FAMILIES:
        for u in (1, -1):
            for i, code in enumerate(family_codes(system, ctx, family, u)):
                dual = code.dual
                assert dual is family_codes(system, ctx, partner[family],
                                            u)[(i + c) % m]
                assert dual is family_codes(system, ctx, partner[family])[
                    (code.index + c) % m]
                zeros = [k for k in range(p)
                         if leader[k] not in code.nonzeros]
                assert dual.nonzeros == tuple(
                    sorted({leader[-k % p] for k in zeros}))
                assert dual.dimension == p - code.dimension
                assert dual.dual is code


def test_dropped_coset_fails_the_factor_check(monkeypatch):
    # coset_factors reads the partition from _coset_sizes, cached apart
    sizes = field_codes._coset_sizes
    monkeypatch.setattr(field_codes, "_coset_sizes",
                        lambda q, p: dict(list(sizes(q, p).items())[:-1]))
    for q, p in ((3, 13), (2, 89)):
        with pytest.raises(AssertionError, match=FACTOR_CHECK):
            coset_factors.__wrapped__(q, p)


FACTOR_CHECK = "coset factors fail their degree proof"


def test_factor_of_wrong_degree_fails_the_factor_check(monkeypatch):
    # the last coset's factor one degree short is not the minimal
    # polynomial of its root, and the product of the factors, the test
    # oracle, is then no longer x**p - 1
    min_poly = field_codes._min_poly
    for q, p in ((3, 13), (2, 89)):
        factors = list(coset_factors(q, p).values())
        last = factors[-1]
        factors[-1] = last[1:]
        assert product_schoolbook(make_prime_field(q), factors) != \
            poly.xn_minus_1(q, p)

        def short(q_, seq, last=last):
            f = min_poly(q_, seq)
            return f[1:] if f == last else f

        monkeypatch.setattr(field_codes, "_min_poly", short)
        with pytest.raises(AssertionError, match=FACTOR_CHECK):
            coset_factors.__wrapped__(q, p)
        monkeypatch.undo()


def test_repeated_coset_leader_fails_the_factor_check(monkeypatch):
    # a member of coset 1 other than 1 listed as a leader of its own
    # gives coset 1's factor twice
    sizes = field_codes._coset_sizes
    for q, p in ((3, 13), (2, 89)):
        real = sizes(q, p)
        member = q % p  # in the coset of 1, and not its leader
        assert member not in real
        monkeypatch.setattr(field_codes, "_coset_sizes",
                            lambda q_, p_: {**real, member: real[1]})
        with pytest.raises(AssertionError, match=FACTOR_CHECK):
            coset_factors.__wrapped__(q, p)
        monkeypatch.undo()


def test_cyclotomic_cosets_partition():
    cosets = cyclotomic_cosets_walked(3, 13)
    seen = sorted(x for c in cosets for x in c)
    assert seen == list(range(13))
    for c in cosets:
        for x in c:
            assert (3 * x) % 13 in c
    assert field_codes._coset_sizes(3, 13) == {c[0]: len(c) for c in cosets}


def _primes_below(n):
    return [p for p in range(2, n) if all(p % d for d in range(2, p))]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_primes_below(2000)), st.integers(2, 10 ** 6))
def test_coset_sizes_walk_property(p, q):
    # one ascending walk: keys ascending, each key the least member of
    # the coset walked from it, sizes summing to p, and every nonzero
    # coset of size ord_p(q), the orbit length of q on the units
    assume(q % p)
    sizes = field_codes._coset_sizes.__wrapped__(q, p)
    assert list(sizes) == sorted(sizes)
    for leader, size in sizes.items():
        walk = [leader * pow(q, j, p) % p for j in range(size + 1)]
        assert walk[-1] == leader and len(set(walk)) == size
        assert min(walk) == leader
    assert sum(sizes.values()) == p
    order = next(t for t in range(1, p) if pow(q, t, p) == 1)
    assert sizes[0] == 1
    assert all(size == order for leader, size in sizes.items() if leader)


@pytest.mark.parametrize("q,p,m", [(3, 13, 4), (2, 127, 9), (7, 19, 3),
                                   (5, 31, 5), (11, 5, 2)])
def test_cosets_are_keyed_by_least_member(q, p, m):
    # the factors, the sizes and the cosets share one key, the least
    # member; filing each leader under its class is the per-residue
    # grouping, as q in Q_0 keeps a whole coset in one class
    cosets = cyclotomic_cosets_walked(q, p)
    factor_of = coset_factors(q, p)
    sizes = field_codes._coset_sizes(q, p)
    assert list(factor_of) == list(sizes) == [c[0] for c in cosets]
    for coset in cosets:
        assert len(factor_of[coset[0]]) - 1 == sizes[coset[0]] == len(coset)
    system = build_residue_system(p, m)
    leader = {k: c[0] for c in cosets for k in c}
    assert field_codes._class_cosets(system, q) == tuple(
        tuple(sorted({leader[k] for k in cls})) for cls in system.classes)


@pytest.mark.parametrize("q,p,m", (
    (2, 7, 2), (3, 13, 4), (3, 13, 2), (7, 19, 6), (2, 23, 2), (3, 11, 2),
    (2, 31, 3), (5, 11, 2), (2, 73, 8), (2, 89, 8), (2, 127, 9)))
def test_class_products_match_direct_roots(q, p, m):
    # the odd-I generators are ghat_i = prod_{k in u*Q_i} (x - alpha^k),
    # multiplied out in GF(q^t)
    system = build_residue_system(p, m)
    ctx = make_prime_field(q)
    for u in (1, 2, 3, -1):
        assert tuple(c.generator for c in family_codes(
            system, ctx, "odd-I", u)) == class_products_direct(system, q, u)


@pytest.mark.parametrize("q,p,m", (
    (2, 7, 2), (3, 13, 2), (3, 13, 4), (3, 11, 2), (5, 11, 2), (7, 19, 3),
    (7, 19, 6), (2, 23, 2), (2, 31, 3), (2, 89, 8), (2, 127, 9)))
def test_idempotents_match_bezout_oracle(q, p, m):
    # the Gauss-period idempotents against the extended Euclid on each
    # generator, p != 1 (mod q) included: (7, 19) and (3, 11)
    system = build_residue_system(p, m)
    ctx = make_prime_field(q)
    for u in (1, 2, 3, -1):
        for fam in FAMILIES:
            for c in family_codes(system, ctx, fam, u):
                assert c.idempotent == idempotent_bezout(ctx, c.generator, p)


@pytest.mark.parametrize("q,p,m", ((3, 13, 4), (7, 19, 6), (2, 31, 3)))
def test_spectrum_matches_direct_evaluation(q, p, m):
    # the 0/1 spectrum read off the nonzeros is the idempotent evaluated
    # at 1 and at alpha**g_r in the splitting field; evaluated at
    # beta**g_r, beta = alpha**u, it is that spectrum relabeled
    system = build_residue_system(p, m)
    ctx = make_prime_field(q)
    for u in (1, 2, -1):
        for fam in FAMILIES:
            for c in family_codes(system, ctx, fam, u):
                assert c.spectrum == relabeled(
                    system, u, spectrum_direct(system, q, u, c.idempotent))


def _family_dims(p, m):
    e = (p - 1) // m
    return {"even-I": e, "odd-I": p - e, "even-II": p - 1 - e,
            "odd-II": e + 1}


# (q, p, m, family) with q an m-adic residue mod p, a splitting field of
# at most 2**16 elements and q**k <= 2**14 words in the family's codes
FIELD_CASES = [
    (q, p, m, family)
    for q in (2, 3, 5, 7)
    for p in (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 73) if p != q
    if q ** make_prime_field(p).multiplicative_order(q % p) <= 1 << 16
    for m in range(2, p) if (p - 1) % m == 0
    and build_residue_system(p, m).is_madic_residue(q % p)
    for family, k in _family_dims(p, m).items() if q ** k <= 1 << 14
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FIELD_CASES))
def test_family_idempotents_generate_property(case):
    q, p, m, family = case
    ctx = make_prime_field(q)
    xp1 = poly.xn_minus_1(q, p)
    for c in family_codes(build_residue_system(p, m), ctx, family):
        assert poly.mul_mod(q, c.idempotent, c.idempotent, p) == \
            c.idempotent
        assert poly.gcd(q, c.idempotent, xp1) == \
            poly.monic(q, c.generator)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FIELD_CASES))
def test_family_weight_distributions_agree_property(case):
    # the m codes of a family are equivalent under the multipliers mu_b
    q, p, m, family = case
    codes = family_codes(build_residue_system(p, m), make_prime_field(q),
                         family)
    assert len({min_distance_field(c).weight_distribution
                for c in codes}) == 1


@pytest.mark.parametrize("q,p,m", sorted({c[:3] for c in FIELD_CASES}
                                         | {(2, 89, 8), (2, 127, 9)}))
def test_gauss_periods_match_table_oracle(q, p, m):
    # the periods read off the coset factors against the powers of beta
    # = alpha**u summed in the splitting field, at every u and at -1 and
    # 2p - 1: those at u are the periods of alpha rotated by c(u)
    system = build_residue_system(p, m)
    etas = gauss_periods(system, q)
    for u in (*range(1, p), -1, 2 * p - 1):
        c = system.class_of(u)
        assert gauss_periods_table(system, q, u) == etas[c:] + etas[:c]


@pytest.mark.parametrize("alpha_exp", [0, 13, -26])
def test_labeling_refuses_alpha_exp_divisible_by_p(alpha_exp):
    # u = 0 mod p labels no primitive root and lies in no class, so
    # family_codes, the one reader of a labeling, refuses it
    for family in FAMILIES:
        with pytest.raises(NotCoprime, match="alpha_exp must be coprime"):
            family_codes(build_residue_system(13, 2), F3, family, alpha_exp)


@pytest.mark.parametrize("p", [13, 7])
def test_gauss_periods_refuse_q_not_residue(p):
    # 2 is no cubic residue mod 13 or 7; the coset-factor reading would
    # return (1, 1, 1) without the check the class products make
    with pytest.raises(QNotResidue):
        gauss_periods(build_residue_system(p, 3), 2)


@pytest.mark.parametrize("q,p,m", [(3, 13, 4), (2, 127, 9), (7, 19, 3),
                                   (2, 89, 4), (5, 31, 5), (2, 23, 2)])
def test_nonzeros_are_the_check_polynomial_roots(q, p, m):
    # the product of the coset factors of the recorded nonzeros is the
    # check polynomial (x**p - 1)/g, for every family and labeling
    ctx = make_prime_field(q)
    xp1 = poly.xn_minus_1(q, p)
    factor_of = coset_factors(q, p)
    leaders = {c[0] for c in cyclotomic_cosets_walked(q, p)}
    for family in FAMILIES:
        for u in (1, 2, -1):
            for code in family_codes(build_residue_system(p, m), ctx,
                                     family, u):
                assert list(code.nonzeros) == sorted(code.nonzeros)
                assert set(code.nonzeros) <= leaders
                check = product(q, [factor_of[r] for r in code.nonzeros])
                assert divmod_generic(ctx, xp1, code.generator) == (check, ())


@pytest.mark.parametrize("q,p,m", [(3, 13, 4), (2, 127, 9), (7, 19, 3),
                                   (11, 5, 2), (5, 31, 5)])
def test_check_factors_multiply_to_the_check_polynomials(q, p, m):
    # the factors of every family code, the dual of each among them, are
    # those of (x**p - 1)/g
    ctx = make_prime_field(q)
    xp1 = poly.xn_minus_1(q, p)
    for family in FAMILIES:
        for code in family_codes(build_residue_system(p, m), ctx, family):
            assert divmod_generic(ctx, xp1, code.generator) == (
                product(q, check_factors(code)), ())


def test_nonzeros_of_singleton_cosets_time():
    # with p | q - 1 every coset is a singleton, so odd-I and even-II
    # record p - 1 - (p - 1)/m nonzeros per code; taking them as the
    # complement of a class in linear time keeps the warm build in
    # milliseconds (about 3 s per family with a tuple membership test)
    p, q = 16411, 98467
    system, ctx = build_residue_system(p, 2), make_prime_field(q)
    for family in ("odd-I", "even-II"):
        t0 = time.perf_counter()
        codes = family_codes.__wrapped__(system, ctx, family)
        assert time.perf_counter() - t0 < 0.5
        for code in codes:
            assert len(code.nonzeros) == (p - 1) // 2 + (family == "odd-I")


def test_nonzeros_decide_equality():
    # a code is its nonzeros; the labeling it was read through is not
    system = build_residue_system(13, 4)
    code = family_codes(system, F3, "odd-I")[0]
    assert dataclasses.replace(code, nonzeros=()) != code
    same = family_codes(system, F3, "odd-I", 1 + 13)[0]
    assert same == code and hash(same) == hash(code)


def test_family_coefficient_cap(monkeypatch):
    # m * p coefficients past FAMILY_COEFFS are refused before any code
    # is built; the cached family_codes is bypassed so nothing is reused
    system = build_residue_system(13, 4)
    monkeypatch.setattr(field_codes, "FAMILY_COEFFS", 13 * 4 - 1)
    with pytest.raises(TooLarge, match="4 codes of length 13 holds 52"):
        family_codes.__wrapped__(system, F3, "even-I")
    monkeypatch.setattr(field_codes, "FAMILY_COEFFS", 13 * 4)
    assert len(family_codes.__wrapped__(system, F3, "even-I")) == 4


def test_idempotents_supported_on_classes():
    # even-I idempotents are class-sum combinations plus constant
    system = build_residue_system(13, 4)
    for c in family_codes(system, F3, "even-I"):
        e = list(c.idempotent) + [0] * (13 - len(c.idempotent))
        for i, cls in enumerate(system.classes):
            vals = {e[k] for k in cls}
            assert len(vals) == 1


def test_splitting_field_root_order():
    ext, alpha = splitting_field(3, 13)
    assert ext.multiplicative_order(alpha) == 13
    ext7, alpha7 = splitting_field(7, 19)
    assert ext7.multiplicative_order(alpha7) == 19


def test_all_ones_h():
    # h = 1 + x + ... + x**(p-1) takes p at 1 and vanishes at every other
    # p-th root of unity: sigma(h) = (p mod q, 0, ..., 0), the entry the
    # class-II defining spectra of ring_codes read
    for q, p, m in ((3, 13, 4), (7, 19, 6), (2, 31, 3)):
        system = build_residue_system(p, m)
        for u in (1, 2, -1):
            assert spectrum_direct(system, q, u, (1,) * p) == \
                (p % q,) + (0,) * m
