"""Command-line front end.

Verbs: classes, field-code, ring-code, distance, griesmer, verify-paper,
export.  Every verb takes --output json|text, declared once for all in
build_parser, and echoes the fully resolved parameters (including
defaulted b, a and the pinned splitting field) so runs are
reproducible.  The four code verbs build their {command, parameters,
code} JSON in one function, _code_payload.  A record's JSON (a distance
report, its cross-check, each verify-paper check and erratum) is its
dataclass fields in field order, so a field added to the record reaches
--output json unedited.  Exit codes: 0 success, 1 validation
error or a reader that closed stdout early, 2 size cap exceeded (an
enumeration past --cap, p past residues.P_CAP, a family past
field_codes.FAMILY_COEFFS, s past ringalg.S_CAP, or a splitting field
past ffield.SIZE_CAP = 2^31, refused with FieldTooLarge when a verb
first builds it).  A field distance checks its scan cap before it builds
the field, so at (q, p, m) = (3, 47, 2), GF(3^23), field-code names
FieldTooLarge and distance TooLarge.

main sets OPENBLAS_NUM_THREADS to 1 unless the caller has set it, before
any verb runs.  The scanning verbs import numpy, which would otherwise
start an OpenBLAS worker thread per extra CPU at import; madics only
multiplies integer arrays, which numpy never hands to BLAS, so the
threads would cost start-up time and do nothing.  Importing this module
or calling the library leaves the environment alone.

run is the process entry of the madics script and of python -m
madics.cli.  It calls gc.freeze() before main, which moves site,
argparse, json and the madics modules out of the collector's
generations, so the passes that a verb's numpy import and its work set
off stop re-traversing them; it freezes again after main returns, so
interpreter exit skips its final collection over numpy and the
package.  Both are safe because what is frozen lives until exit anyway,
and a freeze is not gc.disable(): garbage made while a verb runs is
still collected, so a long ring-code --chain keeps bounded memory.  On
a 2-vCPU Xeon with Python 3.11 the time from a verb's end to process
exit fell from 14 to 4 ms without numpy and from 27 to 8 ms with it,
and a whole call by about 10 %.  main(argv) itself leaves the
collector alone, so an in-process caller (a test, a tracing harness)
never has its heap frozen.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from dataclasses import asdict

from . import poly
from .errors import DEFAULT_CAP, MadicError, TooLarge
from .ffield import make_prime_field
from .field_codes import FAMILIES, CyclicCode, family_codes, splitting_field
from .residues import build_residue_system


# module attributes that the verbs call, so a caller can reroute them (a
# tracing harness does); each imports its layer on its first call
def ring_code(*args):
    from .ring_codes import ring_code
    return ring_code(*args)


def ring_mu_chain(*args):
    from .ring_codes import ring_mu_chain
    return ring_mu_chain(*args)


def min_distance_field(*args):
    from .analysis import min_distance_field
    return min_distance_field(*args)


def min_distance_ring(*args):
    from .analysis import min_distance_ring
    return min_distance_ring(*args)


def min_distance_ring_exhaustive(*args):
    from .analysis import min_distance_ring_exhaustive
    return min_distance_ring_exhaustive(*args)


def run_verification(*args):
    from .verify import run_verification
    return run_verification(*args)


def _slots(text):
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"slots must be comma-separated integers, got {text!r}")


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad arguments; remap to the validation
    exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _resolved_params(system, q=None, ring=None, alpha_exp=1):
    out = {"p": system.p, "m": system.m, "b": system.b, "a": system.a,
           "a_class_index": system.a_class_index}
    if q is not None:
        ext, alpha = splitting_field(q, system.p)
        out.update({
            "q": q,
            "alpha_exp": alpha_exp,
            "splitting_field_degree": ext.t,
            "splitting_field_modulus": list(ext.modulus),
            "alpha": int(alpha),
        })
    if ring is not None:
        out.update({
            "s": ring.s,
            "zeta": int(ring.zeta),
            "eta": [list(e) for e in ring.eta],
            "crt_points": [int(c) for c in ring.crt_points],
        })
    return out


def _params_lines(params):
    return ["resolved parameters: "
            + " ".join(f"{k}={v}" for k, v in params.items())]


def _field_code_json(code, params, index, report=None):
    return {
        "params": dict(params, family=code.family, index=index,
                       n=code.p, k=code.dimension),
        "generator": list(code.generator),
        "idempotent": list(code.idempotent),
        "components": None,
        "distance_report": None if report is None else asdict(report),
    }


def _ring_code_json(code, params, report=None):
    return {
        "params": dict(params, family=code.family, slots=list(code.slots),
                       n=code.p, component_ranks=list(code.component_ranks)),
        "generator": [list(c) for c in code.generator],
        "idempotent": [list(c) for c in code.idempotent],
        "components": [
            _field_code_json(c, {"q": code.ring.q, "p": code.p}, slot)
            for c, slot in zip(code.components, code.slots)],
        "distance_report": None if report is None else asdict(report),
    }


def cmd_classes(args):
    system = build_residue_system(args.p, args.m, args.b, args.a)
    params = _resolved_params(system)
    payload = {"command": "classes", "parameters": params,
               "classes": [list(c) for c in system.classes]}
    lines = _params_lines(params)
    for i, cls in enumerate(system.classes):
        lines.append(f"Q_{i} = {{{', '.join(str(x) for x in cls)}}}")
    return payload, lines


def _code_system(args):
    """The residue system of the code flags.  Reduces args.alpha_exp mod
    p, so equal labelings echo one value."""
    system = build_residue_system(args.p, args.m, args.b, args.a)
    args.alpha_exp %= system.p
    return system


def _build_field(args):
    system = _code_system(args)
    if not 0 <= args.index < system.m:
        raise MadicError(f"index must lie in [0, {system.m})")
    codes = family_codes(system, make_prime_field(args.q), args.family,
                         args.alpha_exp)
    return codes[args.index]


def cmd_field_code(args):
    code = _build_field(args)
    payload, lines = _code_payload(code, args)
    lines.append(f"family {code.family} index {args.index}: "
                 f"[{code.p}, {code.dimension}] over GF({code.q})")
    lines.append(f"generator  = {poly.format_poly(code.generator)}")
    lines.append(f"idempotent = {poly.format_poly(code.idempotent)}")
    return payload, lines


def _build_ring(args):
    from .ringalg import make_ring

    system = _code_system(args)
    ring = make_ring(make_prime_field(args.q), args.s)
    return ring_code(ring, system, args.family, args.slots, args.alpha_exp)


def cmd_ring_code(args):
    from .ringalg import format_ring_poly

    code = _build_ring(args)
    ring, system = code.ring, code.system
    payload, lines = _code_payload(code, args)
    lines.append(f"family {code.family} slots {list(code.slots)}: length "
                 f"{code.p} over GF({ring.q})[v]/(v^{ring.s} - v), "
                 f"component ranks {list(code.component_ranks)}")
    lines.append(f"defining element = {format_ring_poly(ring, code.idempotent)}")
    lines.append(f"generator        = {format_ring_poly(ring, code.generator)}")
    if args.chain:
        orbit = ring_mu_chain(code, system.a)
        payload["chain"] = [
            {"slots": list(c.slots),
             "generator": [list(x) for x in c.generator]}
            for c in orbit]
        lines.append(f"mu_{system.a} chain:")
        for c in orbit:
            lines.append(f"  slots {list(c.slots)}: "
                         f"{format_ring_poly(ring, c.generator)}")
    return payload, lines


def _exported_params(doc):
    """The code object and params of an export document, or MadicError
    naming what is malformed."""
    code_doc = doc.get("code", doc) if isinstance(doc, dict) else None
    params = code_doc.get("params") if isinstance(code_doc, dict) else None
    if not isinstance(params, dict) or "generator" not in code_doc:
        raise MadicError("not an exported code: expected an object with "
                         "'params' and 'generator'")
    ints = ("p", "m", "b", "a", "q") + (
        ("s",) if "slots" in params else ("index",))
    missing = [key for key in ints + ("family",) if key not in params]
    if missing:
        raise MadicError(f"exported params lack {', '.join(missing)}")
    slots = params.get("slots", [])
    # type(x) is int: JSON true and false load as bool, a subclass of int
    if not (all(type(params[key]) is int for key in ints)
            and type(params.get("alpha_exp", 1)) is int
            and isinstance(params["family"], str)
            and isinstance(slots, list)
            and all(type(x) is int for x in slots)):
        raise MadicError("exported params have the wrong types: integers, "
                         "a family name and a list of integer slots")
    return code_doc, params


def _load_exported(args):
    """Replace the code flags of args by the params of the export
    document args.from_file; returns the document's code object."""
    with open(args.from_file, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise MadicError("export file nests too deeply") from None
    code_doc, params = _exported_params(doc)
    slots = params.get("slots")
    vars(args).update(
        alpha_exp=params.get("alpha_exp", 1),
        slots=None if slots is None else tuple(slots),
        **{key: params.get(key)
           for key in ("p", "m", "b", "a", "q", "family", "index", "s")})
    return code_doc


def _distance_target(args):
    """The code of the flags, or of an export document's params, which
    replace the flags and must rebuild the document's generator."""
    code_doc = _load_exported(args) if args.from_file else None
    code = _build_ring(args) if args.slots is not None else _build_field(args)
    if code_doc is not None and code_doc["generator"] != json.loads(
            json.dumps(code.generator)):
        raise MadicError(
            "stored generator does not match the one rebuilt from the "
            "exported parameters; file edited or truncated?")
    return code


def _analyze(code, args):
    """The report of code under args.method and its exhaustive
    cross-check, None unless --method both, which must agree."""
    if isinstance(code, CyclicCode):
        return min_distance_field(code, args.cap), None
    if args.method == "exhaustive":
        return min_distance_ring_exhaustive(code, args.cap), None
    report = min_distance_ring(code, args.cap)
    if args.method != "both":
        return report, None
    cross = min_distance_ring_exhaustive(code, args.cap)
    if cross.d_min != report.d_min:
        raise MadicError("component-min and exhaustive distances differ")
    return report, cross


def _code_payload(code, args, report=None, cross=None):
    """The payload of the code verb args.command on a field or ring code,
    under the labels of args, with its distance report and exhaustive
    cross-check when given, and its resolved-parameters line."""
    if isinstance(code, CyclicCode):
        params = _resolved_params(code.system, code.q,
                                  alpha_exp=args.alpha_exp)
        code_json = _field_code_json(code, params, args.index, report)
    else:
        params = _resolved_params(code.system, code.ring.q, code.ring,
                                  args.alpha_exp)
        code_json = _ring_code_json(code, params, report)
    payload = {"command": args.command, "parameters": params,
               "code": code_json}
    if cross is not None:
        payload["cross_check"] = asdict(cross)
        payload["cross_check_agrees"] = cross.d_min == report.d_min
    return payload, _params_lines(params)


def cmd_distance(args):
    code = _distance_target(args)
    report, cross = _analyze(code, args)
    payload, lines = _code_payload(code, args, report, cross)
    lines.append(f"[{report.n}, {report.k}] d_min = {report.d_min} "
                 f"({report.method}, {report.enumerated} codewords "
                 "enumerated)")
    if report.component_dmins is not None:
        lines.append(f"component distances: {list(report.component_dmins)}")
    if cross is not None:
        lines.append(f"exhaustive cross-check: d_min = {cross.d_min} "
                     f"({cross.enumerated} words) agrees")
    if report.weight_distribution is not None and report.n <= 32:
        lines.append("weight distribution: "
                     f"{list(report.weight_distribution)}")
    return payload, lines


def cmd_griesmer(args):
    from .analysis import griesmer_check

    bound, attained = griesmer_check(args.n, args.k, args.d, args.q)
    payload = {"command": "griesmer", "parameters":
               {"n": args.n, "k": args.k, "d": args.d, "q": args.q},
               "bound": bound, "attained": attained}
    lines = [f"griesmer bound for [n, {args.k}, {args.d}] over "
             f"GF({args.q}): n >= {bound}; "
             f"n = {args.n} {'attains' if attained else 'does not attain'} "
             "the bound"]
    return payload, lines


def cmd_export(args):
    code = _distance_target(args)
    report, cross = ((None, None) if args.skip_distance
                     else _analyze(code, args))
    payload, _ = _code_payload(code, args, report, cross)
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        return payload, [f"wrote {args.out}"]
    # the export artifact is the JSON document itself
    return payload, [text]


def cmd_verify_paper(args):
    report = run_verification(args.cap)
    payload = {
        "command": "verify-paper",
        "ok": report.ok,
        "checks": list(map(asdict, report.checks)),
        "errata": list(map(asdict, report.errata)),
    }
    lines = []
    for c in report.checks:
        lines.append(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
    lines.append("")
    lines.append(f"errata ({len(report.errata)} printed values contradicted "
                 "by computation):")
    for e in report.errata:
        lines.append(f"  * {e.name}")
        lines.append(f"      printed:  {e.printed}")
        lines.append(f"      computed: {e.computed}")
        if e.note:
            lines.append(f"      note:     {e.note}")
    lines.append("")
    lines.append(f"result: {'ok' if report.ok else 'FAILED'} "
                 f"({sum(c.passed for c in report.checks)}/"
                 f"{len(report.checks)} checks)")
    return payload, lines


def _add_system_flags(sub, required=True):
    sub.add_argument("--p", type=int, required=required, help="prime length")
    sub.add_argument("--m", type=int, required=required, help="class count")
    sub.add_argument("--b", type=int, default=None,
                     help="primitive root mod p (default: smallest)")
    sub.add_argument("--a", type=int, default=None,
                     help="multiplier (default: smallest element of Q_1)")


def _add_field_flags(sub, required=True):
    sub.add_argument("--q", type=int, required=required, help="field size")
    sub.add_argument("--family", choices=FAMILIES, required=required)
    sub.add_argument("--alpha-exp", type=int, default=1, dest="alpha_exp",
                     help="label class i by beta = alpha^ALPHA_EXP, alpha "
                     "the pinned p-th root; outputs echo the labels given")


def _add_code_source_flags(sub, from_help):
    """The flags that name a field or ring code, or the export document
    to load it from, and the distance analysis flags."""
    src = sub.add_argument_group("code source")
    src.add_argument("--from", dest="from_file", default=None,
                     metavar="FILE", help=from_help)
    _add_system_flags(src, required=False)
    _add_field_flags(src, required=False)
    src.add_argument("--index", type=int, default=None)
    src.add_argument("--s", type=int, default=None)
    src.add_argument("--slots", type=_slots, default=None)
    sub.add_argument("--cap", type=int, default=DEFAULT_CAP,
                     help="maximum enumeration size")
    sub.add_argument("--method",
                     choices=("component-min", "exhaustive", "both"),
                     default="component-min",
                     help="ring distance method (field codes always "
                     "enumerate exhaustively)")


def build_parser():
    parser = _Parser(prog="madics",
                     description="m-adic residue codes over GF(q) and "
                     "GF(q)[v]/(v^s - v): construction, idempotents, "
                     "distances, bound checks")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("classes", help="residue classes Q_i")
    _add_system_flags(sp)
    sp.set_defaults(func=cmd_classes)

    sp = subs.add_parser("field-code", help="one code of a field family")
    _add_system_flags(sp)
    _add_field_flags(sp)
    sp.add_argument("--index", type=int, required=True,
                    help="class index of the code")
    sp.set_defaults(func=cmd_field_code)

    sp = subs.add_parser("ring-code", help="one code over GF(q)[v]/(v^s - v)")
    _add_system_flags(sp)
    _add_field_flags(sp)
    sp.add_argument("--s", type=int, required=True,
                    help="ring parameter, (s-1) must divide (q-1)")
    sp.add_argument("--slots", type=_slots, required=True,
                    help="comma-separated class index per CRT slot")
    sp.add_argument("--chain", action="store_true",
                    help="also emit the full multiplier orbit")
    sp.set_defaults(func=cmd_ring_code)

    sp = subs.add_parser("distance", help="exact minimum distance")
    _add_code_source_flags(sp, "re-analyze an exported JSON code")
    sp.set_defaults(func=cmd_distance)

    sp = subs.add_parser("griesmer", help="Griesmer bound check")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.set_defaults(func=cmd_griesmer)

    sp = subs.add_parser("verify-paper",
                         help="check computed values against the published "
                         "reference values and list errata")
    sp.add_argument("--cap", type=int, default=DEFAULT_CAP)
    sp.set_defaults(func=cmd_verify_paper)

    sp = subs.add_parser("export", help="emit a code as a JSON document")
    _add_code_source_flags(sp, "re-export a previously exported code")
    sp.add_argument("--skip-distance", action="store_true",
                    help="omit the distance report")
    sp.add_argument("--out", default=None, metavar="FILE",
                    help="write to a file instead of stdout")
    sp.set_defaults(func=cmd_export)

    # last, so it closes every verb's flags and help
    for sp in subs.choices.values():
        sp.add_argument("--output", choices=("text", "json"), default="text")
    return parser


def _validate_args(args):
    if getattr(args, "cap", 1) < 1:
        raise MadicError(f"--cap must be a positive integer, got {args.cap}")
    if not hasattr(args, "from_file") or args.from_file:
        return
    for name in ("p", "m", "q", "family"):
        if getattr(args, name, None) is None:
            raise MadicError(f"--{name} is required unless --from is given")
    if args.slots is not None:
        if args.s is None:
            raise MadicError("--slots requires --s")
    elif args.index is None:
        raise MadicError(
            "give --index (field code), --s/--slots (ring code) or --from")


def main(argv=None):
    # before a scanning verb's lazy numpy import (module docstring)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate_args(args)
        payload, lines = args.func(args)
    except (MadicError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, TooLarge) else 1
    try:
        # chunk by chunk: an unbuffered stdout would drop the tail of one
        # large write cut short by a closed pipe without raising
        if args.output == "json":
            json.dump(payload, sys.stdout, indent=2)
            sys.stdout.write("\n")
        else:
            sys.stdout.writelines(f"{line}\n" for line in lines)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left: the exit-time flush goes to devnull, silently
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0 if payload.get("ok", True) else 1


def run():
    """Run main on sys.argv as a whole process and return its status,
    with the collector's generations frozen around it (module
    docstring)."""
    gc.freeze()
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(run())
