"""Cross-checks against printed reference values for the worked
instances this library reproduces.

Checks assert facts the computation itself guarantees (set equality of
generator families, distances, identity outcomes matching the frozen
expectation table).  Printed values that the independent computation
contradicts are collected as errata entries, each carrying the printed
value, the computed value and the verification path; errata are kept
separate from check failures, so a fresh build reports ok=True along
with a nonempty errata list.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import poly
from .analysis import (
    griesmer_check,
    min_distance_field,
    min_distance_ring,
    min_distance_ring_exhaustive,
)
from .errors import DEFAULT_CAP
from .ffield import make_prime_field
from .field_codes import FAMILIES, family_codes, product
from .identities import IDENTITY_NAMES, check_identities
from .residues import build_residue_system
from .ringalg import format_ring_poly, make_ring, ring_poly_component
from .ring_codes import component_consistency, ring_code, ring_mu_chain

# reference transcriptions, coefficients ascending

REF_CLASSES_P13_M3 = ((1, 5, 8, 12), (2, 3, 10, 11), (4, 6, 7, 9))

REF_GENERATORS_Q7_P19_M6 = (
    (1, 4, 6, 6, 3, 0, 4, 5, 1, 0, 2, 2, 2, 4, 5, 3, 1),
    (1, 3, 1, 1, 5, 1, 6, 1, 5, 6, 0, 6, 3, 3, 5, 1, 1),
    (1, 0, 5, 1, 4, 3, 0, 5, 3, 4, 6, 2, 6, 2, 4, 2, 1),
    (1, 3, 5, 4, 2, 2, 2, 0, 1, 5, 4, 0, 3, 6, 6, 4, 1),
    (1, 1, 5, 3, 3, 6, 0, 6, 5, 1, 6, 1, 5, 1, 1, 3, 1),
    (1, 2, 4, 2, 6, 2, 6, 4, 3, 5, 0, 3, 4, 1, 5, 0, 1),
)

# idempotents for q=3, p=13, m=4 as {class index: coefficient} maps
REF_IDEMPOTENT_COMBOS_Q3_P13_M4 = (
    {0: 1, 2: 2, 3: 2},
    {1: 2, 2: 2, 3: 1},
    {0: 2, 1: 2, 2: 1},
    {0: 2, 1: 1, 3: 2},
)

REF_ETA_Q3_S3 = ((1, 0, 2), (0, 2, 2), (0, 1, 2))

REF_CHAIN_MULTIPLIER = 7
REF_CHAIN_SLOTS = ((0, 1, 2), (3, 0, 1), (2, 3, 0), (1, 2, 3))

REF_G0_Q3_S3 = (
    (1, 0, 0), (1, 2, 0), (0, 2, 2), (1, 1, 2), (1, 2, 1), (1, 2, 2),
    (0, 2, 0), (2, 1, 0), (0, 1, 0), (2, 2, 1), (1, 0, 0),
)
REF_G1_Q3_S3 = (
    (1, 0, 0), (0, 2, 0), (1, 2, 0), (1, 1, 0), (1, 2, 0), (2, 2, 0),
    (2, 2, 0), (0, 1, 0), (1, 1, 0), (2, 2, 0), (1, 0, 0),
)
REF_G23_Q3_S3 = (1, 1, 2, 2, 0, 2, 0, 0, 2, 1)
REF_CHAIN_PARAMS = ((13, 3, 9), (13, 3, 6), (13, 4, 6), (13, 4, 6))

IDENTITY_GRID = (
    (3, 13, 4, 3),
    (7, 19, 6, 3),
    (7, 19, 3, 4),
    (3, 13, 2, 2),
    (5, 11, 5, 5),
)

# identities that hold exactly when p = 1 (mod q) and fail otherwise
P_DEPENDENT_IDENTITIES = frozenset({
    "E_sum_is_1_minus_h",
    "Ep_product_is_h",
    "D_idempotent",
    "D_pair_identity",
    "D_product_zero",
    "Dp_idempotent",
    "Dp_pair_is_h",
})


def expected_identity_failures(q, p):
    """Frozen expectation: which printed identities the computation
    refutes at (q, p).  The odd-like class-II sum holds only when
    (L + s - 1) p = 1 (mod q), L the orbit length, which no grid point
    meets; the class-II and sum/product identities additionally need
    p = 1 (mod q)."""
    fails = {"Dp_sum_identity"}
    if p % q != 1:
        fails |= P_DEPENDENT_IDENTITIES
    return frozenset(fails)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class Erratum:
    name: str
    printed: str
    computed: str
    note: str = ""


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple
    errata: tuple

    @property
    def ok(self):
        return all(c.passed for c in self.checks)


def _combo_poly(system, combo):
    out = [0] * system.p
    for cls, coef in combo.items():
        for k in system.classes[cls]:
            out[k] = (out[k] + coef) % 3
    return poly.trim(3, out)


def _check_classes(checks, errata):
    system = build_residue_system(13, 3, b=2)
    got = system.classes
    checks.append(CheckResult(
        "classes-p13-m3", got == REF_CLASSES_P13_M3,
        f"computed {got}"))
    six = build_residue_system(19, 6, b=2)
    errata.append(Erratum(
        "classes-context",
        "the residue-class example is headed p=13 with 2 primitive in "
        "Z_19* and m=6",
        f"the printed sets {REF_CLASSES_P13_M3} are the m=3 classes "
        f"modulo 13; m=6 modulo 19 gives six 3-element classes starting "
        f"{six.classes[0]}",
        "reproduced with p=13, m=3, b=2"))

    sys4 = build_residue_system(13, 4, b=2)
    checks.append(CheckResult(
        "classes-p13-m4", sys4.classes[0] == (1, 3, 9),
        f"Q_0 = {sys4.classes[0]}"))


def _check_field_family(checks, errata, cap):
    system = build_residue_system(19, 6)
    codes = family_codes(system, make_prime_field(7), "even-I")
    ours = tuple(c.generator for c in codes)
    match = set(ours) == set(REF_GENERATORS_Q7_P19_M6)
    rotation = tuple(ours.index(g) for g in REF_GENERATORS_Q7_P19_M6) \
        if match else ()
    checks.append(CheckResult(
        "even-like-generators-q7-p19-m6", match,
        f"printed index i is computed class {rotation}" if match
        else "generator sets differ"))

    dist_ok = True
    for c in codes:
        rep = min_distance_field(c, cap)
        bound, attained = griesmer_check(rep.n, rep.k, rep.d_min, 7)
        if (rep.n, rep.k, rep.d_min) != (19, 3, 15) or not attained:
            dist_ok = False
    checks.append(CheckResult(
        "distances-q7-p19-m6", dist_ok,
        "all six codes are [19,3,15] and meet the Griesmer bound"
        if dist_ok else "distance mismatch"))


def _reference_rotation(system, ctx):
    """Map reference idempotent index -> computed class index."""
    ours = tuple(c.idempotent for c in family_codes(system, ctx, "even-I"))
    printed = tuple(_combo_poly(system, combo)
                    for combo in REF_IDEMPOTENT_COMBOS_Q3_P13_M4)
    if set(ours) != set(printed):
        return None, ours, printed
    return tuple(ours.index(e) for e in printed), ours, printed


def _check_ring_example(checks, errata, cap):
    system = build_residue_system(13, 4)
    ctx = make_prime_field(3)
    ring = make_ring(ctx, 3)

    rotation, ours, printed = _reference_rotation(system, ctx)
    checks.append(CheckResult(
        "idempotents-q3-p13-m4", rotation is not None,
        f"printed index i is computed class {rotation}"
        if rotation else "idempotent sets differ"))
    errata.append(Erratum(
        "field-label-f4",
        "the length-13 idempotent example is labeled over F_4",
        "all printed coefficients and the ring context are mod 3",
        "arithmetic verified over F_3"))

    checks.append(CheckResult(
        "eta-q3-s3", ring.eta == REF_ETA_Q3_S3,
        f"eta = {ring.eta} (reference lists the same values indexed "
        "from 1)"))
    if rotation is None:
        return

    base = ring_code(ring, system, "even-I",
                     tuple(rotation[i] for i in (0, 1, 2)))
    chain = ring_mu_chain(base, REF_CHAIN_MULTIPLIER)
    inv = {v: k for k, v in enumerate(rotation)}
    walked = tuple(tuple(inv[i] for i in c.slots) for c in chain)
    checks.append(CheckResult(
        "chain-q3-s3-p13-a7", walked == REF_CHAIN_SLOTS,
        f"slot walk in reference labels: {walked}"))

    evens = family_codes(system, ctx, "even-I")
    comp_ok = all(
        ring_poly_component(ring, base.generator, k) == evens[i].generator
        for k, i in enumerate(base.slots))
    checks.append(CheckResult(
        "chain-generator-components", comp_ok,
        "CRT components of the combined generator are the slot field "
        "generators"))

    g0 = base.generator
    if g0 != REF_G0_Q3_S3:
        diff = [i for i, (a, b) in enumerate(zip(g0, REF_G0_Q3_S3)) if a != b]
        bad = ring_poly_component(ring, REF_G0_Q3_S3, 0)
        divides = poly.divides(3, bad, poly.xn_minus_1(3, 13))
        errata.append(Erratum(
            "g0-x2-coefficient",
            f"g_0 printed with x^{diff} coefficients "
            f"{[REF_G0_Q3_S3[i] for i in diff]} (basis 1, v, v^2)",
            f"computed coefficients {[g0[i] for i in diff]}; full "
            f"generator {format_ring_poly(ring, g0)}",
            "the printed polynomial's v=0 component "
            f"{'divides' if divides else 'does not divide'} x^13 - 1, "
            "so it generates no component ideal"))

    g1 = chain[1].generator
    if g1 != REF_G1_Q3_S3:
        bad2 = ring_poly_component(ring, REF_G1_Q3_S3, 2)
        divides2 = poly.divides(3, bad2, poly.xn_minus_1(3, 13))
        errata.append(Erratum(
            "g1-v2-terms",
            "g_1 printed with no v^2 term in any coefficient",
            f"computed generator {format_ring_poly(ring, g1)}",
            "a v-linear polynomial's third CRT component is forced by "
            "the first two; the printed one "
            f"{'divides' if divides2 else 'does not divide'} x^13 - 1"))

    printed_scalar = poly.trim(3, REF_G23_Q3_S3)
    errata.append(Erratum(
        "g2-g3-equal-claim",
        "a single degree-9 generator printed for both the third and "
        "fourth chain codes",
        f"the two codes differ (slots {chain[2].slots} vs "
        f"{chain[3].slots} in computed labels) and both generators "
        "have degree 10",
        "the printed degree-9 polynomial "
        f"{'divides' if poly.divides(3, printed_scalar, poly.xn_minus_1(3, 13)) else 'does not divide'} "
        "x^13 - 1, so it generates no length-13 cyclic code"))

    params_ok = True
    computed_params = []
    for c in chain:
        rep = min_distance_ring(c, cap)
        cross = min_distance_ring_exhaustive(c, cap)
        if rep.d_min != cross.d_min:
            params_ok = False
        computed_params.append((rep.n, rep.component_ranks, rep.d_min))
        bound, attained = griesmer_check(rep.n, rep.component_ranks[0],
                                         rep.d_min, 3)
        if rep.component_ranks != (3, 3, 3) or rep.d_min != 9 or not attained:
            params_ok = False
    checks.append(CheckResult(
        "chain-distances-q3-s3", params_ok,
        f"each chain code is [13, ranks (3,3,3), 9] and meets the "
        f"Griesmer bound; computed {computed_params}"))
    errata.append(Erratum(
        "chain-parameters",
        f"chain parameters printed as {REF_CHAIN_PARAMS}",
        f"computed {computed_params} by component-min and full "
        "enumeration",
        "every chain code attains the Griesmer bound 9 + 3 + 1 = 13"))


# (identity, erratum, printed, computed, note): the erratum is reported
# when its identity is refuted on the grid, its computed text filled in
# from the first such point's q, p, m, s and outcome o
IDENTITY_ERRATA = (
    ("E_sum_is_1_minus_h", "sum-even-like-I",
     "sum of the even-like class-I chain equals 1 - h",
     "the sum equals 1 - (p^-1 mod q) h; at (q={q},p={p}) it is "
     "{o.computed}",
     "agreement requires p = 1 (mod q); h is the all-ones polynomial"),
    ("Ep_product_is_h", "product-odd-like-I",
     "product of the odd-like class-I chain equals h",
     "the product equals (p^-1 mod q) h; at (q={q},p={p}) it is "
     "{o.computed}",
     "agreement requires p = 1 (mod q)"),
    ("D_idempotent", "class-II-idempotency",
     "1 - h - E and h + E are called idempotent for all valid parameters",
     "both square to themselves exactly when p = 1 (mod q); at "
     "(q={q},p={p}) they do not, and the components of 1 - h - E "
     "generate the odd-like class-I ideals instead of the even-like "
     "class-II ones",
     "spectral value at x=1 is 1-p resp. p, idempotent only if "
     "p = 1 (mod q)"),
    ("Dp_sum_identity", "sum-odd-like-II",
     "sum of the odd-like class-II chain equals 1 - (s-1) h",
     "the sum equals 1 + (L - p^-1 mod q) h with L the orbit length; at "
     "(q={q},p={p},m={m},s={s}) computed {o.computed}, printed form "
     "evaluates to {o.expected}",
     "holds exactly when (L + s - 1) p = 1 (mod q), which no grid "
     "instance meets, p = 1 (mod q) ones included"),
)


def _check_identities(checks, errata):
    lines = []
    all_ok = True
    ref_examples = {}
    for (q, p, m, s) in IDENTITY_GRID:
        system = build_residue_system(p, m)
        if not system.is_madic_residue(q % p):
            lines.append(f"(q={q},p={p},m={m},s={s}): excluded, q not in Q_0")
            continue
        ring = make_ring(make_prime_field(q), s)
        outcomes = check_identities(ring, system)
        failed = frozenset(n for n in IDENTITY_NAMES if not outcomes[n].holds)
        expected = expected_identity_failures(q, p)
        ok = failed == expected
        all_ok = all_ok and ok
        lines.append(
            f"(q={q},p={p},m={m},s={s}): p mod q = {p % q}; "
            f"failing = {sorted(failed) or 'none'}; matches expectation: {ok}")
        for name in failed:
            ref_examples.setdefault(name, dict(q=q, p=p, m=m, s=s,
                                               o=outcomes[name]))
    checks.append(CheckResult(
        "identity-suite", all_ok, "; ".join(lines)))
    errata.extend(Erratum(name, printed, computed.format(**ref_examples[i]),
                          note)
                  for i, name, printed, computed, note in IDENTITY_ERRATA
                  if i in ref_examples)


@functools.lru_cache(maxsize=None)
def ideal_generator(q, p, elem):
    """The monic generator gcd(elem, x**p - 1) of the ideal that elem
    generates in F_q[x]/(x**p - 1), q prime, cached per (q, p, elem).
    The zero element gives x**p - 1."""
    return poly.gcd(q, elem, poly.xn_minus_1(q, p))


def _check_structure(checks, errata):
    ok = True
    notes = []
    for (q, p, m) in ((3, 13, 4), (7, 19, 6), (7, 19, 3), (3, 13, 2)):
        system = build_residue_system(p, m)
        ctx = make_prime_field(q)
        factors = [c.generator for c in family_codes(system, ctx, "odd-I")]
        if product(q, factors + [(q - 1, 1)]) != poly.xn_minus_1(q, p):
            ok = False
            notes.append(f"(q={q},p={p},m={m}): factor product mismatch")
        for fam in ("even-I", "even-II"):
            for c in family_codes(system, ctx, fam):
                if poly.eval_poly(q, c.generator, 1):
                    ok = False
                    notes.append(f"(q={q},p={p},m={m}) {fam}: not even-like")
        for fam in FAMILIES:
            for c in family_codes(system, ctx, fam):
                if ideal_generator(q, p, c.idempotent) != c.generator:
                    ok = False
                    notes.append(
                        f"(q={q},p={p},m={m}) {fam}: idempotent ideal differs")
    checks.append(CheckResult(
        "structural-invariants", ok,
        "; ".join(notes) if notes else
        "factor products, evenness and idempotent ideals verified"))

    cc_ok = True
    for (q, p, m, s) in ((3, 13, 4, 3), (3, 13, 2, 2)):
        system = build_residue_system(p, m)
        ring = make_ring(make_prime_field(q), s)
        for fam in FAMILIES:
            code = ring_code(ring, system, fam,
                             tuple(i % m for i in range(s)))
            if not all(component_consistency(code)):
                cc_ok = False
    checks.append(CheckResult(
        "component-consistency-p-1-mod-q", cc_ok,
        "defining elements generate their component ideals on the "
        "p = 1 (mod q) instances"))


def run_verification(cap=DEFAULT_CAP):
    """Run every reference check; returns a VerifyReport."""
    checks, errata = [], []
    _check_classes(checks, errata)
    _check_field_family(checks, errata, cap)
    _check_ring_example(checks, errata, cap)
    _check_identities(checks, errata)
    _check_structure(checks, errata)
    errata.append(Erratum(
        "odd-like-II-defining-element",
        "one displayed definition writes the odd-like class-II element "
        "as h + D_i",
        "the complement relation 1 - D_i forces h + E_i, which the "
        "computation uses",
        "validated by D + D' = 1 on every instance"))
    errata.append(Erratum(
        "zeta-root-order",
        "zeta = alpha^((q-1)/(s-1)) is called a primitive s-th root of "
        "unity",
        "its multiplicative order is s - 1, validated at ring "
        "construction",
        "order s would contradict 1 + zeta + ... + zeta^(s-2) = 0"))
    errata.append(Erratum(
        "eta-display-exponent",
        "the eta_1 display ends its middle run at v^(m-2)",
        "the run ends at v^(s-2); m is the class count elsewhere",
        "forced by the pattern of the other eta_i and by the "
        "idempotent identities"))
    return VerifyReport(tuple(checks), tuple(errata))
