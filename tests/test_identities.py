"""Identity suite over the parameter grid, checked against the frozen
expectation table.

Empirical finding baked in here: seven of the printed identities hold
exactly when p = 1 (mod q) and fail otherwise.  The odd-like class-II
sum is 1 + (L - p^-1) h for orbit length L, so the printed
1 - (s-1) h holds exactly when (L + s - 1) p = 1 (mod q), which no
point of the verify grid meets.
"""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from madics import identities, poly
from madics.errors import BadSlotIndex, QNotResidue
from madics.ffield import SIZE_CAP, is_prime, make_prime_field
from madics.field_codes import FAMILIES, from_spectrum
from madics.identities import (
    IDENTITY_NAMES,
    check_identities,
    pairwise_products_equal,
)
from madics.residues import build_residue_system
from madics.ring_codes import chain_source, ring_code, ring_mu_chain
from madics.ringalg import make_ring
from madics.verify import IDENTITY_GRID
from oracle import (
    _step_vbasis,
    check_identities_vbasis,
    class_products_direct,
    divmod_generic,
    idempotent_bezout,
    mul_mod_schoolbook,
    pairwise_products_all_pairs,
    relabeled,
    spectrum_direct,
)

P_DEPENDENT = {
    "E_sum_is_1_minus_h",
    "Ep_product_is_h",
    "D_idempotent",
    "D_pair_identity",
    "D_product_zero",
    "Dp_idempotent",
    "Dp_pair_is_h",
}

ALWAYS_TRUE = {
    "E_idempotent",
    "mu_E_idempotent",
    "orbit_closes",
    "E_products_zero",
    "Ep_idempotent",
    "Ep_mu_chain",
    "Ep_pair_identity",
    "D_mu_chain",
    "Dp_mu_chain",
}

GRID = ((3, 13, 4, 3), (7, 19, 6, 3), (7, 19, 3, 4), (3, 13, 2, 2))


def run_suite(q, p, m, s):
    system = build_residue_system(p, m)
    ring = make_ring(make_prime_field(q), s)
    return check_identities(ring, system)


def test_identity_names_partition():
    assert P_DEPENDENT | ALWAYS_TRUE | {"Dp_sum_identity"} == \
        set(IDENTITY_NAMES)
    assert not P_DEPENDENT & ALWAYS_TRUE


@pytest.mark.parametrize("q,p,m,s", GRID)
def test_always_true_identities(q, p, m, s):
    outcomes = run_suite(q, p, m, s)
    for name in ALWAYS_TRUE:
        assert outcomes[name].holds, name


@pytest.mark.parametrize("q,p,m,s", GRID)
def test_p_dependent_identities(q, p, m, s):
    outcomes = run_suite(q, p, m, s)
    expect = p % q == 1
    for name in P_DEPENDENT:
        assert outcomes[name].holds == expect, (name, p % q)


@pytest.mark.parametrize("q,p,m,s", GRID)
def test_dp_sum_identity_fails_everywhere(q, p, m, s):
    outcomes = run_suite(q, p, m, s)
    assert not outcomes["Dp_sum_identity"].holds
    # a failing outcome carries both sides for inspection
    assert outcomes["Dp_sum_identity"].computed
    assert outcomes["Dp_sum_identity"].expected


def dp_sum_law(q, system, s):
    """Whether the printed 1 - (s-1) h is the odd-like class-II sum
    1 + (L - p^-1) h: (L + s - 1) p = 1 (mod q), with L the length of
    the mu_a orbit."""
    j, m = system.class_of(system.a), system.m
    return (m // math.gcd(j, m) + s - 1) * system.p % q == 1


def law_grid():
    """Every valid (q, p, m, s) with q < 8 and 5 <= p < 64 whose
    splitting field fits SIZE_CAP."""
    return [(q, p, m, s)
            for q in (2, 3, 5, 7)
            for p in filter(is_prime, range(5, 64))
            if p != q
            and q ** make_prime_field(p).multiplicative_order(q) <= SIZE_CAP
            for m in range(2, p)
            if (p - 1) % m == 0
            and build_residue_system(p, m).is_madic_residue(q)
            for s in range(2, q + 1) if (q - 1) % (s - 1) == 0]


def test_dp_sum_identity_holds_by_its_law():
    # with default b and a; the identity holds at 22 of the 77 points
    grid = law_grid()
    holding = 0
    for q, p, m, s in grid:
        holds = run_suite(q, p, m, s)["Dp_sum_identity"].holds
        assert holds == dp_sum_law(q, build_residue_system(p, m), s), \
            (q, p, m, s)
        holding += holds
    assert (len(grid), holding) == (77, 22)
    # verify-paper's grid, p = 1 (mod q) points included, never meets it
    for q, p, m, s in IDENTITY_GRID:
        assert not dp_sum_law(q, build_residue_system(p, m), s)


def test_dp_sum_computed_form_q3_p13():
    # sum D'_r = 1 + (m - p^-1) h; p^-1 = 1 mod 3 and m = 4 = 1 mod 3,
    # so the sum collapses to the constant 1
    outcomes = run_suite(3, 13, 4, 3)
    assert outcomes["Dp_sum_identity"].computed == "1"


def test_diagonal_instance_q7_p19_m3_s3():
    # m = s = 3 is valid (2 is in Q_1 here... multiplier class coprime
    # to 3) and follows the same p-dependence
    outcomes = run_suite(7, 19, 3, 3)
    for name in ALWAYS_TRUE:
        assert outcomes[name].holds, name
    for name in P_DEPENDENT:
        assert not outcomes[name].holds, name
    assert not outcomes["Dp_sum_identity"].holds


def test_excluded_instance_q5_p11():
    # 5 is not a 5-adic residue mod 11, so the families never descend
    system = build_residue_system(11, 5)
    assert not system.is_madic_residue(5)
    ring = make_ring(make_prime_field(5), 5)
    with pytest.raises(QNotResidue):
        check_identities(ring, system)


def test_outcomes_cover_all_names():
    outcomes = run_suite(3, 13, 2, 2)
    assert set(outcomes) == set(IDENTITY_NAMES)
    for name, o in outcomes.items():
        assert o.name == name


@pytest.mark.parametrize("alpha_exp", (1, 2))
@pytest.mark.parametrize("q,p,m,s", [
    (q, p, m, s) for q, p, m, s in IDENTITY_GRID
    if build_residue_system(p, m).is_madic_residue(q % p)])
def test_outcomes_in_name_order(q, p, m, s, alpha_exp):
    # the suite returns IDENTITY_NAMES' order, each name once; dict
    # equality, as in the oracle comparisons, would not see the order
    outcomes = check_identities(make_ring(make_prime_field(q), s),
                                build_residue_system(p, m),
                                alpha_exp=alpha_exp)
    assert tuple(outcomes) == IDENTITY_NAMES
    assert [o.name for o in outcomes.values()] == list(IDENTITY_NAMES)


@pytest.mark.parametrize("alpha_exp", (1, 2))
@pytest.mark.parametrize("q,p,m,s", IDENTITY_GRID + ((7, 19, 3, 3),))
def test_suite_matches_vbasis_oracle(q, p, m, s, alpha_exp):
    system = build_residue_system(p, m)
    ring = make_ring(make_prime_field(q), s)
    if not system.is_madic_residue(q % p):
        for suite in (check_identities, check_identities_vbasis):
            with pytest.raises(QNotResidue):
                suite(ring, system, alpha_exp=alpha_exp)
        return
    assert check_identities(ring, system, alpha_exp=alpha_exp) == \
        check_identities_vbasis(ring, system, alpha_exp=alpha_exp)


@pytest.mark.parametrize("q,p,m,s", [
    (3, 13, 4, 3), (7, 19, 6, 3), (7, 19, 3, 4)])
def test_suite_multiplies_no_polynomials(cold_caches, monkeypatch,
                                         spectra_computed, q, p, m, s):
    # the suite works on spectra: no packed product, cold or warm, and
    # one spectrum per distinct component code, made on the first call.
    # The Gauss periods are warmed first: they check e_0**2 = e_0 with
    # one product
    system = build_residue_system(p, m)
    ring = make_ring(make_prime_field(q), s)
    from_spectrum(system, q, (1,) * (m + 1))
    calls = []
    mul_mod = poly.mul_mod

    def counting(ctx, a, b, n):
        calls.append((a, b))
        return mul_mod(ctx, a, b, n)

    monkeypatch.setattr(poly, "mul_mod", counting)
    cold = check_identities(ring, system)
    assert calls == []
    orbit = ring_mu_chain(ring_code(ring, system, "even-I",
                                    tuple(i % m for i in range(s))))
    components = {comp for family in FAMILIES for c in orbit
                  for comp in ring_code(ring, system, family,
                                        c.slots).components}
    assert len(spectra_computed) == len(set(spectra_computed)) == \
        len(components)
    warm = check_identities(ring, system)
    assert calls == []
    assert len(spectra_computed) == len(components)
    monkeypatch.undo()
    assert cold == warm == check_identities_vbasis(ring, system)


def test_refuted_sides_formatted_once(cold_caches, monkeypatch):
    # a cold call formats each distinct refuted side once, a warm call
    # formats none, and a holding outcome shows no sides
    shown = []
    fmt = identities.format_ring_poly

    def counting(ring, a):
        shown.append(fmt(ring, a))
        return shown[-1]

    monkeypatch.setattr(identities, "format_ring_poly", counting)
    outcomes = run_suite(7, 19, 6, 3)
    refuted = [o for o in outcomes.values() if not o.holds]
    assert len(refuted) == len(P_DEPENDENT) + 1
    sides = {side for o in refuted for side in (o.computed, o.expected)}
    assert sorted(shown) == sorted(sides)
    assert run_suite(7, 19, 6, 3) == outcomes
    assert len(shown) == len(sides)
    monkeypatch.undo()
    assert all(o.computed == o.expected == ""
               for o in outcomes.values() if o.holds)
    assert outcomes == check_identities_vbasis(
        make_ring(make_prime_field(7), 3), build_residue_system(19, 6))


@pytest.mark.parametrize("q,p,m,s", GRID)
def test_suite_reads_the_orbit_once(monkeypatch, q, p, m, s):
    # ring_code validates the base slots once; the chain and the other
    # three rows read the shared codes at the orbit's slots
    system = build_residue_system(p, m)
    ring = make_ring(make_prime_field(q), s)
    calls = []

    def counting(*args):
        calls.append(args)
        return ring_code(*args)

    monkeypatch.setattr(identities, "ring_code", counting)
    outcomes = check_identities(ring, system)
    assert len(calls) == 1
    monkeypatch.undo()
    assert outcomes == check_identities_vbasis(ring, system)
    with pytest.raises(BadSlotIndex):
        check_identities(ring, system, (m,) + (0,) * (s - 1))


# (q, p, m, s) with q an m-adic residue mod p, p small enough that the
# v-basis oracle stays cheap
SUITE_CASES = [
    (q, p, m, s)
    for q in (2, 3, 5, 7)
    for p in (5, 7, 11, 13, 17, 19) if p != q
    for m in range(2, 7) if (p - 1) % m == 0
    and build_residue_system(p, m).is_madic_residue(q % p)
    for s in range(2, q + 1) if (q - 1) % (s - 1) == 0
]


@st.composite
def suite_inputs(draw):
    q, p, m, s = draw(st.sampled_from(SUITE_CASES))
    system = build_residue_system(p, m)
    slots = tuple(draw(st.lists(st.integers(0, m - 1), min_size=s,
                                max_size=s)))
    a = draw(st.sampled_from(
        [x for x in range(1, p) if math.gcd(system.class_of(x), m) == 1]))
    alpha_exp = draw(st.integers(-p, 2 * p).filter(lambda u: u % p))
    return make_ring(make_prime_field(q), s), system, slots, a, alpha_exp


@pytest.mark.parametrize("q,p,m,s", ((3, 13, 4, 3), (7, 19, 6, 3),
                                     (2, 31, 3, 2)))
def test_labeling_rotates_the_suite_slots(q, p, m, s):
    # the suite under beta = alpha**u at base slots b is the suite under
    # alpha at slots b + c(u): outcomes and refuted sides alike
    system = build_residue_system(p, m)
    ring = make_ring(make_prime_field(q), s)
    slots = tuple(range(1, s + 1))
    for u in range(1, p):
        c = system.class_of(u)
        assert check_identities(ring, system, slots, alpha_exp=u) == \
            check_identities(ring, system,
                             tuple((i + c) % m for i in slots))


@settings(max_examples=25, deadline=None)
@given(suite_inputs())
def test_suite_matches_vbasis_oracle_property(inputs):
    assert check_identities(*inputs) == check_identities_vbasis(*inputs)


# differential tests of the class-algebra spectrum against polynomial
# arithmetic: sigma is an injective ring homomorphism on the polynomials
# constant on {0}, Q_0, ..., Q_{m-1}

def _class_constant(system, q, cs):
    """c_0 + sum_i c_i S_i for cs = (c_0, c_1, ..., c_m), canonical."""
    coeffs = [cs[0]] + [0] * (system.p - 1)
    for c, cls in zip(cs[1:], system.classes):
        for k in cls:
            coeffs[k] = c
    return poly.trim(q, coeffs)


@st.composite
def class_algebra_inputs(draw):
    q, p, m, _ = draw(st.sampled_from(SUITE_CASES))
    system = build_residue_system(p, m)
    u = draw(st.integers(-p, 2 * p).filter(lambda v: v % p))
    f, g = (_class_constant(system, q, draw(st.lists(
        st.integers(0, q - 1), min_size=m + 1, max_size=m + 1)))
        for _ in range(2))
    a = draw(st.integers(1, p - 1))
    return system, q, u, f, g, a


@pytest.mark.parametrize("q,p,m", sorted({c[:3] for c in SUITE_CASES}))
def test_unit_spectra_invert_to_the_idempotent_basis(q, p, m):
    # sigma**-1 is linear on p**-1 h, e_0, ..., e_{m-1}; each must be the
    # preimage of its unit spectrum, so spectrum and the idempotents
    # index the roots alpha**g_r alike; e_r is Bezout's idempotent of
    # (x**p - 1)/ghat_r, with ghat_r multiplied out over GF(q^t).  At
    # beta = alpha**u, the basis and its unit spectra are relabeled
    system = build_residue_system(p, m)
    ctx = make_prime_field(q)
    xp1 = poly.xn_minus_1(q, p)
    h_idem = (pow(p, -1, q),) * p
    units = [tuple(int(i == j) for i in range(m + 1)) for j in range(m + 1)]
    for u in (1, system.b, p - 1):
        basis = [h_idem] + [
            idempotent_bezout(ctx, divmod_generic(ctx, xp1, ghat)[0], p)
            for ghat in class_products_direct(system, q, u)]
        for unit, f in zip(units, basis):
            assert from_spectrum(system, q, relabeled(system, u, unit)) == f
            assert spectrum_direct(system, q, u, f) == unit


@settings(max_examples=60, deadline=None)
@given(class_algebra_inputs())
def test_spectrum_round_trip_property(inputs):
    system, q, u, f, _, _ = inputs
    spec = spectrum_direct(system, q, u, f)
    assert len(spec) == system.m + 1
    assert from_spectrum(system, q, relabeled(system, u, spec)) == f


@settings(max_examples=60, deadline=None)
@given(class_algebra_inputs())
def test_spectrum_of_product_is_pointwise_property(inputs):
    system, q, u, f, g, _ = inputs
    product = mul_mod_schoolbook(make_prime_field(q), f, g, system.p)
    pointwise = tuple(x * y % q
                      for x, y in zip(spectrum_direct(system, q, u, f),
                                      spectrum_direct(system, q, u, g)))
    assert spectrum_direct(system, q, u, product) == pointwise


@settings(max_examples=60, deadline=None)
@given(class_algebra_inputs())
def test_chain_step_is_a_class_shift_property(inputs):
    system, q, u, f, _, a = inputs
    spec = spectrum_direct(system, q, u, f)
    shifted = tuple(spec[i]
                    for i in chain_source(system.m, system.class_of(a)))
    moved = _step_vbasis(make_prime_field(q), system.p, a, f)
    assert spectrum_direct(system, q, u, moved) == shifted


# the O(L) pairwise check against the all-pairs oracle

@pytest.mark.parametrize("q,length", [
    (q, length) for q in (2, 3, 5, 7) for length in (1, 2, 3, 4)])
def test_pairwise_check_exhaustive_one_coordinate(q, length):
    # every column of values and every target at one coordinate (0 and
    # h's entry among them), as given and in the 1 - x form
    for col in itertools.product(range(q), repeat=length):
        values = [(v,) for v in col]
        complements = [((1 - v) % q,) for v in col]
        for c in range(q):
            assert pairwise_products_equal(q, values, (c,)) == \
                pairwise_products_all_pairs(q, values, (c,)), (col, c)
            assert pairwise_products_equal(q, values, (c,), True) == \
                pairwise_products_all_pairs(q, complements, (c,)), (col, c)


@st.composite
def pairwise_inputs(draw):
    """(q, values, target, complement): L = 1..10 spectra of one
    length, columns drawn at random, all equal, or with one nonzero
    entry, each maybe with one entry changed; the target zero, h (p at
    the first entry, 0 elsewhere), the product of each column's first
    and last value (the one product when L = 2, v**2 when the column is
    all v) or random; complement, whether the law is on 1 - x."""
    q = draw(st.sampled_from((2, 3, 5, 7)))
    length = draw(st.integers(1, 10))
    width = draw(st.integers(1, 8))
    value = st.integers(0, q - 1)
    shape = draw(st.sampled_from(("random", "equal", "one-nonzero")))
    cols = []
    for _ in range(width):
        if shape == "equal":
            col = [draw(value)] * length
        elif shape == "one-nonzero":
            col = [0] * length
            col[draw(st.integers(0, length - 1))] = draw(value)
        else:
            col = draw(st.lists(value, min_size=length, max_size=length))
        if draw(st.integers(0, 3)) == 0:
            col[draw(st.integers(0, length - 1))] = draw(value)
        cols.append(col)
    kind = draw(st.sampled_from(("zero", "h", "product", "random")))
    if kind == "zero":
        target = (0,) * width
    elif kind == "h":
        target = (draw(st.sampled_from((5, 7, 11, 13))) % q,) + \
            (0,) * (width - 1)
    elif kind == "product":
        target = tuple(col[0] * col[-1] % q for col in cols)
    else:
        target = tuple(draw(value) for _ in range(width))
    values = [tuple(col[r] for col in cols) for r in range(length)]
    return q, values, target, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(pairwise_inputs())
def test_pairwise_check_matches_all_pairs_property(inputs):
    q, values, target, complement = inputs
    terms = ([tuple((1 - v) % q for v in x) for x in values] if complement
             else values)
    assert pairwise_products_equal(q, values, target, complement) == \
        pairwise_products_all_pairs(q, terms, target)
