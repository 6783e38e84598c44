"""The benchmark's three workloads: job templates, seeded variants,
set-up, job bodies and the output projections that are pinned.

A template fixes everything that sets a job's cost: the verb or layer,
(q, p, m, s) and the family.  The seed picks one cost-equivalent
variant per template for the whole run (class index, slot assignment,
--alpha-exp, multiplier a; family members are permutation-equivalent)
and the job order of every round.  Templates at one (q, p, m) point
share --alpha-exp and a, so the set-up builds as many cached objects
on every seed.  pins.json holds the digest of every
variant's outputs, computed by pin.py at the commit that defined the
benchmark, so any variant a seed can pick is checked.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from itertools import product

ALPHA_EXPS = (1, 2, 3)
MULTIPLIER_CHOICES = 3  # the smallest valid multipliers a seed may pick
# ring-exhaustive takes a only as part of its residue system, so it
# shares the system of the identity and chain jobs at its point
TAKES_A = frozenset({"classes", "ring-code", "identities", "chain",
                     "ring-exhaustive"})
FAMILIES = ("even-I", "odd-I", "even-II", "odd-II")
DIST_KEYS = ("n", "k", "d_min", "weight_distribution", "component_dmins")

# [n, k, d] known from the coding literature, independent of the pins:
# the binary and ternary Golay codes and the [19, 3, 15] code over GF(7)
KNOWN_FIELD_CODES = {
    (2, 23, 2, "odd-I"): (23, 12, 7),
    (3, 11, 2, "odd-I"): (11, 6, 5),
    (7, 19, 6, "even-I"): (19, 3, 15),
}


def _t(kind, **kw):
    return dict(kind=kind, **kw)


# Each job is a fresh `python -m madics.cli ... --output json` process.
# Splitting-field degrees t = 3..11; distance jobs stay at q^k <= ~2^12,
# so the import floor and field construction dominate, not the scan.
# Six jobs per round build GF(2^11), so the tail percentile lands among
# them rather than between two job kinds of different cost.
COLD_CLI = (
    _t("classes", p=13, m=4),
    _t("field-code", q=3, p=13, m=4, family="even-I"),     # t = 3
    _t("field-code", q=7, p=19, m=6, family="odd-I"),      # t = 3
    _t("field-code", q=5, p=31, m=5, family="even-II"),    # t = 3
    _t("field-code", q=3, p=11, m=2, family="odd-II"),     # t = 5
    _t("field-code", q=5, p=71, m=7, family="even-I"),     # t = 5
    _t("field-code", q=3, p=41, m=5, family="odd-I"),      # t = 8
    _t("field-code", q=2, p=73, m=8, family="even-I"),     # t = 9
    _t("field-code", q=2, p=23, m=2, family="odd-I"),      # t = 11
    _t("field-code", q=2, p=89, m=8, family="odd-II"),     # t = 11
    _t("ring-code", q=3, p=13, m=4, s=3, family="even-I"),
    _t("ring-code", q=7, p=19, m=6, s=3, family="odd-I"),
    _t("ring-code", q=5, p=31, m=5, s=5, family="even-II"),
    _t("distance", q=2, p=23, m=2, family="odd-I"),        # [23,12,7]_2
    _t("distance", q=3, p=11, m=2, family="odd-I"),        # [11,6,5]_3
    _t("distance", q=2, p=89, m=8, family="even-I"),       # [89,11]_2
    _t("distance", q=7, p=19, m=6, family="even-I"),       # [19,3,15]_7
    _t("distance", q=2, p=73, m=8, family="odd-II"),       # [73,10]_2
    _t("distance", q=3, p=13, m=4, s=3, family="odd-II"),  # --method both
    _t("distance", q=7, p=19, m=6, s=2, family="even-I"),  # --method both
    _t("export", q=2, p=23, m=2, family="odd-I"),          # then --from
    _t("export", q=3, p=13, m=4, s=3, family="even-II"),   # then --from
)

# Exhaustive field scans with warm caches.  Odd-like codes (large k,
# small dual) are the ones MacWilliams would help; even-like ones (small
# k or large dual) it would not.  The [13,6]_3, [13,4]_3 and [19,3]_7
# cases are those of benchmarks/bench_distance.py, the print-only
# numba-versus-numpy script this benchmark supersedes.
FIELD_DISTANCE = (
    _t("field", q=2, p=31, m=3, family="odd-I"),      # [31,21]_2, 2^21 words
    _t("field", q=7, p=19, m=3, family="odd-II"),     # [19,7]_7
    _t("field", q=7, p=19, m=3, family="even-I"),     # [19,6]_7
    _t("field", q=2, p=127, m=9, family="odd-II"),    # [127,15]_2
    _t("field", q=2, p=127, m=9, family="even-I"),    # [127,14]_2
    _t("field", q=5, p=31, m=5, family="odd-II"),     # [31,7]_5
    _t("field", q=3, p=13, m=4, family="odd-I"),      # [13,10]_3
    _t("field", q=2, p=23, m=2, family="odd-I"),      # [23,12,7]_2
    _t("field", q=3, p=11, m=2, family="odd-I"),      # [11,6,5]_3
    _t("field", q=7, p=19, m=6, family="even-I"),     # [19,3,15]_7
    _t("field", q=3, p=13, m=2, family="even-I"),     # [13,6]_3
    _t("field", q=3, p=13, m=4, family="odd-II"),     # [13,4]_3
    _t("ring-min", q=3, p=13, m=4, s=3, family="even-I"),
    _t("ring-min", q=3, p=13, m=2, s=2, family="even-I"),
    _t("ring-min", q=5, p=11, m=2, s=2, family="even-I"),
)

# Tuple arithmetic over GF(q)[v]/(v^s - v), the identity suite,
# multiplier chains, the memory-bound exhaustive ring scan and the
# paper's reference checks.
RING_ALGEBRA = (
    tuple(_t("identities", q=q, p=p, m=m, s=s) for q, p, m, s in (
        (3, 13, 4, 3), (7, 19, 6, 3), (7, 19, 6, 7), (7, 19, 3, 4),
        (5, 31, 5, 5), (5, 31, 10, 5), (5, 31, 2, 3)))
    + tuple(_t("chain", q=q, p=p, m=m, s=s, family=f)
            for q, p, m, s in ((3, 13, 4, 3), (7, 19, 6, 3), (5, 31, 5, 5))
            for f in FAMILIES)
    + tuple(_t("ring-exhaustive", q=q, p=p, m=m, s=s, family="even-I")
            for q, p, m, s in ((5, 11, 2, 2), (3, 11, 2, 3), (7, 19, 6, 2)))
    + (_t("verify"),)
)

# A round is one pass over every job.  The run makes
# max(1, round(seconds / NOMINAL_ROUND_S)) rounds, so it measures about
# --seconds at the commit that defined the benchmark and the same fixed
# batch of work on every commit after it.
WORKLOADS = {
    "cold-cli": (COLD_CLI, 10.0),
    "field-distance": (FIELD_DISTANCE, 3.3),
    "ring-algebra": (RING_ALGEBRA, 5.5),
}

# Deliberately outside the grid, with the reason.
OUTSIDE_GRID = (
    "distance --q 3 --p 23 (and the [23,11]_3 kernel-script case): builds "
    "GF(3^11), about 100 s at the defining commit",
    "p = 61 with q = 3: builds GF(3^10), about 20 s",
    "p = 43 with q = 7: builds GF(7^6), about 13 s",
    "check_identities on (2, 127, 9, 2): about 8 s per call, longer than a "
    "whole ring-algebra round",
    "cap-refused jobs such as [89,78]_2 (distance --q 2 --p 89 --m 8 "
    "--family odd-I), which exit 2 by design and would mix refusals into "
    "the failure count",
)


@dataclass(frozen=True)
class Job:
    key: str
    kind: str
    spec: dict


def multipliers(p, m):
    """The smallest valid --a (class index coprime to m) other than the
    default.  verify-paper builds on the default a, so a seed that
    picked it would share cached systems and codes with it and set up
    less than other seeds."""
    from madics.residues import build_residue_system

    system = build_residue_system(p, m)
    valid = [x for x in range(2, p) if x != system.a
             and math.gcd(system.class_of(x), m) == 1]
    return tuple(valid[:MULTIPLIER_CHOICES])


def variants(template):
    """Every cost-equivalent variant of a template, in a fixed order."""
    dims = {}
    if "q" in template:
        dims["alpha_exp"] = ALPHA_EXPS
        dims["rotation" if "s" in template else "index"] = range(template["m"])
    if template["kind"] in TAKES_A:
        dims["a"] = multipliers(template["p"], template["m"])
    return [dict(zip(dims, combo)) for combo in product(*dims.values())]


def make_job(template, variant, kind=None):
    spec = {k: v for k, v in {**template, **variant}.items() if k != "kind"}
    kind = kind or template["kind"]
    if "rotation" in spec:
        r = spec.pop("rotation")
        spec["slots"] = tuple((r + i) % spec["m"] for i in range(spec["s"]))
    fields = " ".join(
        f"{k}={','.join(map(str, v)) if isinstance(v, tuple) else v}"
        for k, v in sorted(spec.items()))
    return Job(f"{kind} {fields}".rstrip(), kind, spec)


def units_for(template, variant):
    """One variant as a unit of jobs that run back to back."""
    job = make_job(template, variant)
    if job.kind == "export":
        return [job, make_job(template, variant, kind="distance-from")]
    return [job]


def make_units(workload, rng):
    """One seeded variant of every template.  Templates at one (q, p, m)
    point share one --alpha-exp and one --a, so every seed builds the
    same number of cached systems and codes; the class index and the
    slot rotation are drawn per template."""
    templates, _ = WORKLOADS[workload]
    shared = {}
    units = []
    for t in templates:
        point = (t.get("q"), t.get("p"), t.get("m"))
        if point not in shared:
            draw = shared[point] = {}
            if "q" in t:
                draw["alpha_exp"] = rng.choice(ALPHA_EXPS)
            if "m" in t:
                draw["a"] = rng.choice(multipliers(t["p"], t["m"]))
        fits = [v for v in variants(t)
                if all(v[k] == x for k, x in shared[point].items() if k in v)]
        units.append(units_for(t, rng.choice(fits)))
    return units


def cli_argv(job, path=None):
    """Arguments of the madics CLI for one cold-cli job."""
    s = job.spec
    if job.kind == "distance-from":
        return ["distance", "--from", path, "--output", "json"]
    argv = [job.kind, "--p", str(s["p"]), "--m", str(s["m"])]
    if "a" in s:
        argv += ["--a", str(s["a"])]
    if "q" in s:
        argv += ["--q", str(s["q"]), "--family", s["family"],
                 "--alpha-exp", str(s["alpha_exp"])]
    if "s" in s:
        argv += ["--s", str(s["s"]), "--slots", ",".join(map(str, s["slots"]))]
    elif "q" in s:
        argv += ["--index", str(s["index"])]
    if job.kind == "ring-code":
        argv.append("--chain")
    if job.kind == "distance" and "s" in s:
        argv += ["--method", "both"]
    if job.kind == "export":
        argv += ["--out", path]
    return argv + ["--output", "json"]


def _verify_cases():
    from madics.verify import IDENTITY_GRID

    structural = ((3, 13, 4, None), (7, 19, 6, None), (7, 19, 3, None),
                  (3, 13, 2, None))
    return IDENTITY_GRID + structural


def prepare(job, layers):
    """Build, in dependency order, every cached object the job reuses."""
    s = job.spec
    if job.kind == "verify":
        for q, p, m, rs in _verify_cases():
            system = layers.system(p, m)
            if not system.is_madic_residue(q):
                continue
            layers.splitting_field(q, p)
            for fam in FAMILIES:
                layers.family(system, q, fam)     # as verify calls it
                layers.family(system, q, fam, 1)  # as ring_code calls it
            if rs is not None:
                layers.ring(q, rs)
        return {}
    state = {"system": layers.system(s["p"], s["m"], None, s.get("a"))}
    if "q" not in s:
        return state
    system, q, alpha_exp = state["system"], s["q"], s["alpha_exp"]
    layers.splitting_field(q, s["p"])
    if job.kind == "identities":
        families = FAMILIES
    elif "s" in s:
        families = sorted({"even-I", s["family"]})
    else:
        families = (s["family"],)
    for fam in families:
        codes = layers.family(system, q, fam, alpha_exp)
    if "index" in s:
        state["code"] = codes[s["index"]]
    if "s" in s:
        state["ring"] = layers.ring(q, s["s"])
    if job.kind in ("ring-min", "ring-exhaustive"):
        state["code"] = layers.ring_code(state["ring"], system, s["family"],
                                         s["slots"], alpha_exp)
    return state


class CheckFailed(Exception):
    pass


def report_dict(rep):
    return {k: getattr(rep, k) for k in DIST_KEYS}


def run_job(job, state, layers):
    """Run one in-process job; returns its output projection."""
    s = job.spec
    if job.kind == "field":
        code = state["code"]
        rep = layers.field_distance(code)
        return {"generator": code.generator, "idempotent": code.idempotent,
                "distance": report_dict(rep)}
    if job.kind == "ring-min":
        code = state["code"]
        rep = layers.ring_distance(code)
        return {"generator": code.generator, "idempotent": code.idempotent,
                "distance": report_dict(rep)}
    if job.kind == "identities":
        from madics.verify import expected_identity_failures

        out = layers.identities(state["ring"], state["system"], s["slots"],
                                s["a"], s["alpha_exp"])
        refuted = sorted(n for n, o in out.items() if not o.holds)
        if set(refuted) != expected_identity_failures(s["q"], s["p"]):
            raise CheckFailed(f"refuted {refuted} differs from the frozen "
                              "expectation")
        return {"refuted": refuted}
    if job.kind == "chain":
        code = layers.ring_code(state["ring"], state["system"], s["family"],
                                s["slots"], s["alpha_exp"])
        orbit = layers.chain(code, s["a"])
        return {"chain": [[c.slots, c.generator, c.idempotent,
                           layers.consistency(c)] for c in orbit]}
    if job.kind == "ring-exhaustive":
        code = state["code"]
        return {"distance": report_dict(layers.ring_exhaustive(code))}
    if job.kind == "verify":
        rep = layers.verify()
        if not rep.ok:
            raise CheckFailed("verify-paper reports a failing check")
        return {"ok": rep.ok, "errata": [e.name for e in rep.errata],
                "checks": [[c.name, c.passed] for c in rep.checks]}
    raise ValueError(f"no in-process body for {job.kind}")


def cli_projection(payload):
    """The pinned outputs of one CLI payload: classes, generators,
    idempotents, the pinned splitting field, chains and distances."""
    out = {}
    params = payload.get("parameters", {})
    for k in ("b", "a", "alpha", "splitting_field_modulus", "zeta", "eta"):
        if k in params:
            out[k] = params[k]
    if "classes" in payload:
        out["classes"] = payload["classes"]
    code = payload.get("code")
    if code is not None:
        out["generator"] = code["generator"]
        out["idempotent"] = code["idempotent"]
        if code.get("distance_report") is not None:
            out["distance"] = {k: code["distance_report"][k]
                               for k in DIST_KEYS}
    if "chain" in payload:
        out["chain"] = payload["chain"]
    if "cross_check" in payload:
        out["cross_check"] = {k: payload["cross_check"][k] for k in DIST_KEYS}
        out["cross_check_agrees"] = payload["cross_check_agrees"]
    return out


def digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check(job, proj, pins):
    """None when the projection matches every pinned and known value,
    else the reason it does not."""
    s = job.spec
    want = pins.get(job.key)
    if want is None:
        return "no pinned value for this job"
    if digest(proj) != want:
        return "output differs from its pinned value"
    dist = proj.get("distance")
    known = KNOWN_FIELD_CODES.get(
        (s.get("q"), s.get("p"), s.get("m"), s.get("family")))
    if known and "s" not in s and dist is not None:
        got = (dist["n"], dist["k"], dist["d_min"])
        if got != known:
            return f"[n,k,d] = {got}, known {known}"
    if job.kind == "ring-min":
        exhaustive = pins.get("xcheck " + job.key)
        if dist["d_min"] != exhaustive:
            return (f"component-min d={dist['d_min']} but the exhaustive "
                    f"scan gives {exhaustive}")
    if "cross_check_agrees" in proj and not proj["cross_check_agrees"]:
        return "component-min and exhaustive distances disagree"
    return None
