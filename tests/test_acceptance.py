"""Acceptance gate: one test per published acceptance criterion, each
printing a single [PASS]/[FAIL] line and asserting the same text.

Criteria 2 (g_0) and 4 pin exact values.  Where a printed reference
value is contradicted by exact recomputation, the test states the
corrected value and proves the correction in the test itself: the
printed x^2 coefficient of g_0 yields a v=0 component that does not
divide x^13 - 1, and the printed identities that name h hold only with
p^-1 h, the trivial-character idempotent, in its place.  Criterion 4
holds the class-II defining elements to the corrected forms, which
only true idempotents satisfy; it fails on the p != 1 (mod q) grid
points, where the class-II elements 1 - h - E and h + E are not
idempotent.  `madics verify-paper` still lists every printed value as
an erratum, and its own checks all pass.
"""

import time
from itertools import product

from madics import poly
from madics.analysis import (
    griesmer_check,
    min_distance_field,
    min_distance_ring,
    min_distance_ring_exhaustive,
)
from madics.cli import main
from madics.ffield import make_prime_field
from madics.field_codes import FAMILIES, family_codes
from madics.identities import IDENTITY_NAMES, check_identities
from madics.residues import build_residue_system
from madics.ringalg import make_ring
from madics.ring_codes import ring_code, ring_mu_chain
from madics.verify import (
    REF_G0_Q3_S3,
    REF_GENERATORS_Q7_P19_M6,
    REF_IDEMPOTENT_COMBOS_Q3_P13_M4,
    run_verification,
    _combo_poly,
)
from oracle import (
    VBasisRing,
    add_generic,
    mod_xn_minus_1,
    mul_mod_schoolbook,
    sub_generic,
    trim_generic,
)

GRID = ((3, 13, 4, 3), (7, 19, 6, 3), (7, 19, 3, 4), (3, 13, 2, 2),
        (5, 11, 5, 5))


def report(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_even_like_family_q7_p19():
    t0 = time.time()
    system = build_residue_system(19, 6)
    ctx = make_prime_field(7)
    codes = family_codes(system, ctx, "even-I")
    set_match = {c.generator for c in codes} == set(REF_GENERATORS_Q7_P19_M6)
    params_ok = True
    for c in codes:
        rep = min_distance_field(c)
        if (rep.n, rep.k, rep.d_min) != (19, 3, 15):
            params_ok = False
    bound, attained = griesmer_check(19, 3, 15, 7)
    elapsed = time.time() - t0
    ok = set_match and params_ok and attained and bound == 19 and elapsed < 1.0
    report(1, ok,
           f"six generators match as a set ({set_match}), each [19,3,15] "
           f"({params_ok}), Griesmer 15+3+1=19 attained ({attained}), "
           f"{elapsed:.3f}s")


def _ring_example_setup():
    system = build_residue_system(13, 4, a=7)
    ctx = make_prime_field(3)
    ring = make_ring(ctx, 3)
    ours = tuple(c.idempotent for c in family_codes(system, ctx, "even-I"))
    printed = tuple(_combo_poly(system, combo)
                    for combo in REF_IDEMPOTENT_COMBOS_Q3_P13_M4)
    return system, ctx, ring, ours, printed


def test_criterion_2_idempotent_set():
    t0 = time.time()
    system, ctx, ring, ours, printed = _ring_example_setup()
    ok = set(ours) == set(printed) and time.time() - t0 < 1.0
    report("2 (idempotents)", ok,
           "four computed idempotents equal the printed class-sum "
           "combinations as a set")


def test_criterion_2_eta():
    _, _, ring, _, _ = _ring_example_setup()
    ok = ring.eta == ((1, 0, 2), (0, 2, 2), (0, 1, 2))
    report("2 (eta)", ok,
           f"eta = 1-v^2, 2v+2v^2, v+2v^2 exactly (computed {ring.eta})")


def test_criterion_2_chain_slots():
    system, ctx, ring, ours, printed = _ring_example_setup()
    rotation = tuple(ours.index(e) for e in printed)
    base = ring_code(ring, system, "even-I",
                     tuple(rotation[i] for i in (0, 1, 2)))
    chain = ring_mu_chain(base, 7)
    inv = {v: k for k, v in enumerate(rotation)}
    walked = tuple(tuple(inv[i] for i in c.slots) for c in chain)
    ok = walked == ((0, 1, 2), (3, 0, 1), (2, 3, 0), (1, 2, 3))
    report("2 (chain)", ok,
           f"mu_7 chain reproduces the printed slot walk: {walked}")


# erratum g0-x2-coefficient: the printed x^2 coefficient is 2v+2v^2,
# exact recomputation gives 2+2v (v-basis 1, v, v^2)
G0_X2_PRINTED = (0, 2, 2)
G0_X2_CORRECTED = (2, 2, 0)


def _v_component(coeffs, point):
    """F_3 polynomial obtained by evaluating each v-basis coefficient at
    v = point, trimmed (plain Python, independent of madics)."""
    out = [sum(c * point ** j for j, c in enumerate(co)) % 3 for co in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def _divides_x13_minus_1(g):
    """Long division of x^13 - 1 by g over F_3 (plain Python)."""
    rem = [2] + [0] * 12 + [1]
    inv = pow(g[-1], -1, 3)
    for shift in range(len(rem) - len(g), -1, -1):
        c = rem[shift + len(g) - 1] * inv % 3
        for i, gi in enumerate(g):
            rem[shift + i] = (rem[shift + i] - c * gi) % 3
    return not any(rem)


def _components_divide(coeffs):
    # CRT points of F_3[v]/(v^3 - v): v = 0, 1, -1
    return tuple(_divides_x13_minus_1(_v_component(coeffs, pt))
                 for pt in (0, 1, 2))


def _with_x2(coeffs, c):
    return coeffs[:2] + (c,) + coeffs[3:]


def test_criterion_2_g0_coefficients():
    system, ctx, ring, ours, printed = _ring_example_setup()
    rotation = tuple(ours.index(e) for e in printed)
    base = ring_code(ring, system, "even-I",
                     tuple(rotation[i] for i in (0, 1, 2)))
    g0 = base.generator

    # the transcription is the print; only its x^2 coefficient is wrong
    assert REF_G0_Q3_S3[2] == G0_X2_PRINTED
    expected = _with_x2(REF_G0_Q3_S3, G0_X2_CORRECTED)
    coeffs_ok = g0 == expected
    diffs = [(f"x^{i}", f"computed {c}", f"expected {r}")
             for i, (c, r) in enumerate(zip(g0, expected)) if c != r]

    # proof of the erratum: the printed x^2 value leaves the v=0
    # component a non-divisor of x^13 - 1, and (2, 2, 0) is the only
    # x^2 value for which all three components divide it
    printed_divides = _components_divide(REF_G0_Q3_S3)
    unique = {c for c in product(range(3), repeat=3)
              if all(_components_divide(_with_x2(REF_G0_Q3_S3, c)))}
    proof_ok = (printed_divides == (False, True, True)
                and unique == {G0_X2_CORRECTED})

    listed = "g0-x2-coefficient" in {e.name
                                     for e in run_verification().errata}
    ok = coeffs_ok and proof_ok and listed
    report("2 (g_0)", ok,
           f"generator matches the printed g_0 at every coefficient but "
           f"x^2, where it is the corrected {G0_X2_CORRECTED} "
           f"({coeffs_ok}; differences {diffs}); printed x^2 "
           f"{G0_X2_PRINTED} gives component divisibility "
           f"{printed_divides}, and the x^2 values making all three "
           f"components divide x^13-1 are {sorted(unique)} ({proof_ok}); "
           f"verify-paper lists erratum g0-x2-coefficient ({listed})")


def test_criterion_3_distance_and_bound():
    t0 = time.time()
    system = build_residue_system(13, 4, a=7)
    ring = make_ring(make_prime_field(3), 3)
    ours = tuple(c.idempotent
                 for c in family_codes(system, ring.field, "even-I"))
    printed = tuple(_combo_poly(system, combo)
                    for combo in REF_IDEMPOTENT_COMBOS_Q3_P13_M4)
    rotation = tuple(ours.index(e) for e in printed)
    base = ring_code(ring, system, "even-I",
                     tuple(rotation[i] for i in (0, 1, 2)))
    rep = min_distance_ring(base)
    cross = min_distance_ring_exhaustive(base)
    bound, attained = griesmer_check(13, 3, 9, 3)
    errata = {e.name for e in run_verification().errata}
    routed = {"g2-g3-equal-claim", "chain-parameters"} <= errata
    ok = (rep.d_min == 9 and cross.d_min == 9
          and cross.enumerated == 3 ** 9 and attained and routed
          and time.time() - t0 < 5.0)
    report(3, ok,
           f"E_0 code distance 9 by component-min ({rep.d_min}) and by "
           f"full {cross.enumerated}-word enumeration ({cross.d_min}); "
           f"griesmer(13,3,9,3) attained ({attained}); printed g_2=g_3 "
           f"and [13,3,6]/[13,4,6] mismatches routed to errata ({routed})")


# The printed identities that name h, as const + coef * h.  With h the
# all-ones polynomial, h^2 = p h, so the idempotent of the trivial
# character is p^-1 h, and it is orthogonal to every even-like E_r.
# When every defining element is a true idempotent (E_r, 1 - E_r,
# 1 - p^-1 h - E_r and p^-1 h + E_r) these forms become the corrected
# ones below; they coincide with the printed ones exactly when
# p = 1 (mod q), except the D' sum, which is misprinted everywhere.
def _printed_h_forms(s):
    return {
        "E_sum_is_1_minus_h": (1, -1),
        "Ep_product_is_h": (0, 1),
        "D_pair_identity": (1, -1),
        "Dp_pair_is_h": (0, 1),
        "Dp_sum_identity": (1, -(s - 1)),
    }


def _corrected_h_forms(pinv, L):
    return {
        "E_sum_is_1_minus_h": (1, -pinv),
        "Ep_product_is_h": (0, pinv),
        "D_pair_identity": (1, -pinv),
        "Dp_pair_is_h": (0, pinv),
        "Dp_sum_identity": (1, (L - 1) * pinv),
    }


def _h_form(ring, p, const, coef):
    """const + coef * h in R[x]/(x^p - 1)."""
    c = ring.from_scalar(coef)
    return trim_generic(ring,
                        (ring.from_scalar(const + coef),) + (c,) * (p - 1))


def _corrected_forms(ring, p, es, eps, ds, dps):
    """Evaluate exactly, over an orbit of length L, the identities that
    hold when every element is a true idempotent: sum E_r = 1 - p^-1 h,
    prod E'_r = p^-1 h, D_r^2 = D_r, D_i + D_j - D_i D_j = 1 - p^-1 h,
    prod D_r = 0, D'_r^2 = D'_r, D'_i D'_j = p^-1 h and
    sum D'_r = 1 + (L - 1) p^-1 h."""
    L = len(es)
    forms = {name: _h_form(ring, p, *cf) for name, cf in
             _corrected_h_forms(pow(p, -1, ring.q), L).items()}
    pairs = [(r, t) for r in range(L) for t in range(r + 1, L)]

    def mm(x, y):
        return mul_mod_schoolbook(ring, x, y, p)

    def eq(x, y):
        return mod_xn_minus_1(ring, x, p) == mod_xn_minus_1(ring, y, p)

    def total(polys):
        acc = ()
        for e in polys:
            acc = add_generic(ring, acc, e)
        return acc

    def product(polys):
        acc = (ring.one,)
        for e in polys:
            acc = mm(acc, e)
        return acc

    return {
        "E_sum_is_1_minus_h": eq(total(es), forms["E_sum_is_1_minus_h"]),
        "Ep_product_is_h": eq(product(eps), forms["Ep_product_is_h"]),
        "D_idempotent": all(eq(mm(d, d), d) for d in ds),
        "D_pair_identity": all(
            eq(sub_generic(ring, add_generic(ring, ds[r], ds[t]),
                           mm(ds[r], ds[t])),
               forms["D_pair_identity"]) for r, t in pairs),
        "D_product_zero": eq(product(ds), ()),
        "Dp_idempotent": all(eq(mm(d, d), d) for d in dps),
        "Dp_pair_is_h": all(eq(mm(dps[r], dps[t]), forms["Dp_pair_is_h"])
                            for r, t in pairs),
        "Dp_sum_identity": eq(total(dps), forms["Dp_sum_identity"]),
    }


def test_criterion_4_identity_suite():
    wrong = []
    checked = 0
    for (q, p, m, s) in GRID:
        system = build_residue_system(p, m)
        if not system.is_madic_residue(q):
            continue  # (5,11,5,5): q not in Q_0, outside the valid set
        checked += 1
        here = f"(q={q},p={p},m={m},s={s})"
        ring = VBasisRing(make_ring(make_prime_field(q), s))
        outcomes = check_identities(ring, system)
        orbit = ring_mu_chain(
            ring_code(ring, system, "even-I",
                      tuple(i % m for i in range(s))), system.a)
        L, pinv = len(orbit), pow(p, -1, q)

        # the printed identity is refuted exactly where its printed form
        # differs from the corrected one; identities without h stand as
        # printed
        printed, corrected = _printed_h_forms(s), _corrected_h_forms(pinv, L)
        for name in IDENTITY_NAMES:
            agrees = (name not in printed
                      or _h_form(ring, p, *printed[name])
                      == _h_form(ring, p, *corrected[name]))
            if outcomes[name].holds != agrees:
                wrong.append(f"{here}: printed {name} "
                             f"{'holds' if outcomes[name].holds else 'fails'}"
                             f", expected it to "
                             f"{'hold' if agrees else 'fail'}")

        # the defining elements of the four families
        def elements(family):
            return [ring_code(ring, system, family, c.slots).idempotent
                    for c in orbit]
        es, eps = elements("even-I"), elements("odd-I")
        ds, dps = elements("even-II"), elements("odd-II")
        for name, holds in _corrected_forms(ring, p, es, eps,
                                            ds, dps).items():
            if not holds:
                wrong.append(f"{here}: corrected {name} does not hold")

        # proof that the corrected forms are the right ones: the true
        # idempotents 1 - p^-1 h - E_r and p^-1 h + E_r satisfy them all
        ph = _h_form(ring, p, 0, pinv)
        true_ds = [sub_generic(ring, sub_generic(ring, (ring.one,), ph), e)
                   for e in es]
        true_dps = [add_generic(ring, ph, e) for e in es]
        for name, holds in _corrected_forms(ring, p, es, eps,
                                            true_ds, true_dps).items():
            if not holds:
                wrong.append(f"{here}: corrected {name} fails for the "
                             "true idempotents")
    ok = not wrong and checked == 4
    report(4, ok,
           f"on all {checked} valid grid points every printed identity "
           "holds exactly where its form agrees with the corrected one "
           "(p^-1 h for the trivial-character idempotent) and fails "
           "elsewhere, and the corrected forms hold exactly"
           if ok else f"mismatch: {'; '.join(wrong)}")


def test_criterion_5_ring_distance_oracle_equivalence():
    checked = 0
    agree = True
    details = []
    for (q, p, m, s) in GRID:
        system = build_residue_system(p, m)
        if not system.is_madic_residue(q):
            continue
        ring = make_ring(make_prime_field(q), s)
        slots = tuple(i % m for i in range(s))
        candidates = [ring_code(ring, system, fam, slots)
                      for fam in FAMILIES]
        candidates += list(ring_mu_chain(
            ring_code(ring, system, "even-I", slots)))
        for code in candidates:
            total = 1
            for k in code.component_ranks:
                total *= q ** k
            if total > 1 << 20:
                continue
            rep = min_distance_ring(code)
            cross = min_distance_ring_exhaustive(code)
            checked += 1
            if rep.d_min != cross.d_min:
                agree = False
                details.append(f"(q={q},p={p},{code.family},{code.slots}): "
                               f"{rep.d_min} != {cross.d_min}")
    ok = agree and checked >= 6
    report(5, ok,
           f"component-min equals exhaustive distance on all {checked} "
           f"grid codes with enumeration <= 2^20"
           if ok else f"mismatch: {details or 'too few codes checked'}")


def test_criterion_6_structural_invariants():
    ok = True
    details = []
    for (q, p, m, s) in GRID:
        system = build_residue_system(p, m)
        if not system.is_madic_residue(q):
            continue
        ctx = make_prime_field(q)
        xp1 = poly.xn_minus_1(q, p)
        prod = (1,)
        for c in family_codes(system, ctx, "odd-I"):
            prod = poly.mul(q, prod, c.generator)
        prod = poly.mul(q, prod, (q - 1, 1))
        if prod != xp1:
            ok = False
            details.append(f"(q={q},p={p},m={m}): factor product")
        for c in family_codes(system, ctx, "even-I"):
            if poly.eval_poly(q, c.generator, 1) != 0:
                ok = False
                details.append(f"(q={q},p={p},m={m}): evenness")
        for fam in FAMILIES:
            for c in family_codes(system, ctx, fam):
                ideal = poly.gcd(q, c.idempotent, xp1)
                if ideal != poly.monic(q, c.generator):
                    ok = False
                    details.append(f"(q={q},p={p},m={m},{fam}): ideal")
    report(6, ok,
           "factor products, even-like evaluation and idempotent ideal "
           "equality hold for every constructed family"
           if ok else f"violations: {details}")


def test_criterion_7_classes_cli(capsys):
    code = main(["classes", "--p", "13", "--m", "3", "--b", "2"])
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    printed_ok = (code == 0
                  and lines[1] == "Q_0 = {1, 5, 8, 12}"
                  and lines[2] == "Q_1 = {2, 3, 10, 11}"
                  and lines[3] == "Q_2 = {4, 6, 7, 9}")
    errata = {e.name for e in run_verification().errata}
    noted = "classes-context" in errata
    ok = printed_ok and noted
    report(7, ok,
           f"CLI prints the three class sets exactly ({printed_ok}); "
           f"verify-paper notes the m=6/Z_19 header inconsistency as an "
           f"erratum ({noted})")
