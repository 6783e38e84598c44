"""Seeded property test of the CLI.

From one fixed seed it generates argv for every verb, valid and not,
over a pool of values that holds the edge cases (0, negatives, a
composite p, a q that is no m-adic residue, primes and composites past
each size cap, a 4,001-digit integer, a 5,001-digit token) and the
inputs that once cost seconds or printed kilobytes: classes --p
10**4000+1, griesmer --q 10**4000+1 and ring-code --chain at
(q, p, m, s) = (2, 8191, 630, 2).
It also feeds distance and export --from documents that an export
wrote and an edit then broke.  Every call, run in process through
cli.main, must exit 0, 1, 2 or 3, print no traceback and at most one
``error: <Class>: `` line, whose class matches the exit code, and end
within PER_CALL_S.
"""

import json
import random
import re
import time

from madics.cli import main
from madics.field_codes import FAMILIES

SEED = 0x5EED
CALLS = 160
DOCUMENTS = 40
PER_CALL_S = 1.0

HUGE = 10**4000 + 1
# 5,001 digits, past the 4,300-digit limit of int(), so argparse refuses
# it and echoes it in the parser error
LONG = "1" + "0" * 5000
INTS = (0, 1, 2, 3, 4, 5, 6, 7, 13, 19, 31, -1, -13, 15, 630, 8191,
        2**31 - 1, 4611686018427394499, 1000000000039, 2**1984 + 1, HUGE,
        LONG)
VERBS = ("classes", "field-code", "ring-code", "distance", "griesmer",
         "verify-paper", "export")
# small points that build, so a share of the calls exit 0
POINTS = ((3, 13, 4), (2, 7, 2), (7, 19, 6), (5, 31, 5), (3, 11, 5),
          (2, 8191, 630))
FIXED = (
    ("classes", "--p", str(HUGE), "--m", "2"),
    ("griesmer", "--n", "1", "--k", "1", "--d", "1", "--q", str(HUGE)),
    ("ring-code", "--q", "2", "--p", "8191", "--m", "630", "--s", "2",
     "--slots", "0,1", "--family", "even-I", "--chain"),
    ("ring-code", "--q", "2", "--p", "8191", "--m", "630", "--s", "2",
     "--slots", "0,1", "--family", "even-I", "--chain", "--output", "json"),
    # 2^65535 words: the refusal names the count by its bit length
    ("distance", "--q", "2", "--p", "131071", "--m", "2", "--family",
     "even-I", "--index", "0"),
)
ERROR_LINE = re.compile(r"^error: (\w+): ", re.M)


def _value(rng):
    return str(rng.choice(INTS))


def _code_flags(rng, ring):
    """The flags of a field or ring code: usually a point that builds,
    with now and then a value replaced from the pool or a flag left
    out."""
    q, p, m = rng.choice(POINTS)
    flags = {"--q": str(q), "--p": str(p), "--m": str(m),
             "--family": rng.choice(FAMILIES)}
    if ring:
        s = rng.choice([d + 1 for d in range(1, q) if (q - 1) % d == 0])
        flags["--s"] = str(s)
        flags["--slots"] = ",".join(str(rng.randrange(m)) for _ in range(s))
    else:
        flags["--index"] = str(rng.randrange(-1, m + 1))
    for name in ("--b", "--a", "--alpha-exp"):
        if rng.random() < 0.1:
            flags[name] = _value(rng)
    for name in list(flags):
        roll = rng.random()
        if roll < 0.05:
            flags[name] = _value(rng)
        elif roll < 0.07:
            del flags[name]
    return [x for item in flags.items() for x in item]


def _scan_flags(rng, ring):
    # a small --cap, so no call scans for long
    flags = ["--cap", rng.choice(("1", "100", "4096", "65536", "65536",
                                  "0"))]
    if rng.random() < (0.6 if ring else 0.1):
        flags += ["--method", rng.choice(("component-min", "exhaustive",
                                          "both"))]
    return flags


def _argv(rng, verb):
    ring = verb == "ring-code" or (verb != "field-code"
                                   and rng.random() < 0.5)
    if verb == "classes":
        argv = ["--p", rng.choice(("13", "19", "31", _value(rng))),
                "--m", rng.choice(("3", "6", _value(rng)))]
        argv += ["--b", _value(rng)] if rng.random() < 0.3 else []
        argv += ["--a", _value(rng)] if rng.random() < 0.3 else []
    elif verb == "griesmer":
        argv = [x for name in ("--n", "--k", "--d", "--q")
                for x in (name, rng.choice(("3", "9", _value(rng))))]
    elif verb == "verify-paper":
        argv = ["--cap", rng.choice(("100", "65536", "0"))]
    elif verb in ("field-code", "ring-code"):
        argv = _code_flags(rng, ring)
        if ring and rng.random() < 0.5:
            argv.append("--chain")
    else:
        argv = _code_flags(rng, ring) + _scan_flags(rng, ring)
        if verb == "export" and rng.random() < 0.3:
            argv.append("--skip-distance")
    return [verb, *argv, "--output", rng.choice(("text", "json"))]


def _edited(rng, doc):
    """The text of an export document with one edit."""
    doc = json.loads(json.dumps(doc))
    params = doc["code"]["params"]
    edit = rng.randrange(7)
    if edit == 0:
        params.pop(rng.choice(sorted(params)))
    elif edit == 1:
        params[rng.choice(sorted(params))] = rng.choice(
            (rng.choice(INTS), "13", True, None, [1, 2], 2.5))
    elif edit == 2:
        doc["code"]["generator"] = [1] * rng.randrange(1, 5)
    elif edit == 3:
        doc = rng.choice(([], 7, "code", {"code": None}))
    elif edit == 4:
        return json.dumps(doc)[:rng.randrange(1, 40)]
    elif edit == 5:
        return "[" * 100000 + "]" * 100000
    else:
        # past Python's 4,300-digit limit for int-to-str conversion
        return json.dumps(doc).replace('"p": ', '"p": 1' + "0" * 5000, 1)
    return json.dumps(doc)


def _check(capsys, argv):
    t0 = time.perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses the argv
        code = exc.code
    elapsed = time.perf_counter() - t0
    _, err = capsys.readouterr()
    shown = " ".join(a if len(a) < 40 else f"<{len(a)} chars>"
                     for a in argv)
    assert code in (0, 1, 2, 3), shown
    assert "Traceback" not in err, shown
    classes = ERROR_LINE.findall(err)
    assert len(classes) <= 1, (shown, err)
    if classes:
        want = {"TooLarge": 2, "FieldTooLarge": 2,
                "InternalCheckFailed": 3}.get(classes[0], 1)
        assert code == want, (shown, err)
    assert elapsed < PER_CALL_S, (shown, elapsed)
    return code


def test_generated_calls_end_with_a_named_exit(capsys, tmp_path):
    rng = random.Random(SEED)
    codes = [_check(capsys, list(argv)) for argv in FIXED]
    assert codes == [2] * len(FIXED)
    for _ in range(CALLS):
        codes.append(_check(capsys, _argv(rng, rng.choice(VERBS))))
    # exports to edit: one field code and one ring code
    sources = []
    for flags in (("--q", "3", "--p", "13", "--m", "4", "--family",
                   "odd-II", "--index", "1"),
                  ("--q", "7", "--p", "19", "--m", "6", "--family",
                   "even-I", "--s", "3", "--slots", "0,2,4")):
        assert main(["export", *flags, "--skip-distance",
                     "--output", "json"]) == 0
        sources.append(json.loads(capsys.readouterr().out))
    path = tmp_path / "code.json"
    for _ in range(DOCUMENTS):
        path.write_text(_edited(rng, rng.choice(sources)), encoding="utf-8")
        verb = rng.choice(("distance", "export"))
        codes.append(_check(capsys, [verb, "--from", str(path),
                                     *_scan_flags(rng, False)]))
    # the generator reaches every exit code but the internal fault's
    assert {0, 1, 2} <= set(codes)

