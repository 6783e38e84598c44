"""CLI behavior: verbs, output formats, exit codes, JSON round-trips."""

import dataclasses
import gc
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from madics import cli, field_codes
from madics.analysis import (
    DistanceReport,
    generator_matrix,
    macwilliams,
    min_distance_field,
)
from madics.cli import main
from madics.ffield import make_prime_field
from madics.field_codes import family_codes
from madics.residues import build_residue_system
from madics.verify import CheckResult, Erratum
from oracle import scan_numpy

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--output", "json")
    return code, json.loads(out) if out else None, err


def test_classes_text_output(capsys):
    code, out, _ = run_cli(capsys, "classes", "--p", "13", "--m", "3",
                           "--b", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "Q_0 = {1, 5, 8, 12}"
    assert lines[2] == "Q_1 = {2, 3, 10, 11}"
    assert lines[3] == "Q_2 = {4, 6, 7, 9}"
    assert "resolved parameters" in lines[0]
    assert "b=2" in lines[0]


def test_classes_json_output(capsys):
    code, doc, _ = run_json(capsys, "classes", "--p", "13", "--m", "4")
    assert code == 0
    assert doc["classes"][0] == [1, 3, 9]
    assert doc["parameters"]["b"] == 2
    assert doc["parameters"]["a"] == 2


def test_classes_base_reduced_mod_p(capsys):
    code, doc, _ = run_json(capsys, "classes", "--p", "13", "--m", "4",
                            "--b", "15")
    assert code == 0
    assert doc["parameters"]["b"] == 2


_CLASSES_65537 = ("classes", "--p", "65537", "--m", "2")
# loads numpy and writes 238,628 bytes, past a 64 KB pipe buffer, so the
# exit-time freeze of cli.run follows the BrokenPipe path
_DISTANCE_8191 = ("distance", "--q", "2", "--p", "8191", "--m", "630",
                  "--family", "odd-II", "--index", "3")


@pytest.mark.parametrize("unbuffered,argv", [
    (False, _CLASSES_65537), (True, _CLASSES_65537),
    (False, _DISTANCE_8191)], ids=["False", "True", "distance"])
def test_closed_pipe_exits_without_traceback(unbuffered, argv):
    # the reader keeps 100 bytes of a long output and closes the pipe,
    # as `madics classes ... | head -c 100` does
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "madics.cli", *argv, "--output", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "Exception ignored" not in err, err


def _python(*args):
    """Run a fresh interpreter that imports madics from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def _run_module(*argv):
    """(exit code, stdout, stderr) of python -m madics.cli on argv."""
    proc = _python("-m", "madics.cli", *argv)
    return proc.returncode, proc.stdout, proc.stderr


_RING_3_13 = ("--q", "3", "--s", "3", "--p", "13", "--m", "4", "--a", "7",
              "--family", "even-I", "--slots", "1,2,3")


@pytest.mark.parametrize("argv", [
    ("classes", "--p", "13", "--m", "3", "--b", "2"),
    ("classes", "--p", "13", "--m", "5"),
    ("field-code", "--q", "7", "--p", "19", "--m", "6", "--family",
     "even-I", "--index", "0"),
    ("ring-code", *_RING_3_13, "--chain"),
    ("distance", *_RING_3_13, "--method", "both"),
], ids=["classes", "classes-invalid", "field-code", "ring-code-chain",
        "distance-both"])
def test_module_entry_matches_main(capsys, argv):
    # python -m madics.cli goes through cli.run, which freezes the
    # collector around main; what the user sees must not change
    argv = (*argv, "--output", "json")
    assert _run_module(*argv) == run_cli(capsys, *argv)


def test_module_entry_matches_main_on_export_and_from(tmp_path, capsys):
    path = tmp_path / "code.json"
    export = ("export", "--q", "3", "--p", "13", "--m", "4", "--family",
              "even-I", "--index", "0", "--out", str(path), "--output",
              "json")
    assert run_cli(capsys, *export) == _run_module(*export)
    from_file = ("distance", "--from", str(path), "--output", "json")
    assert _run_module(*from_file) == run_cli(capsys, *from_file)


def test_main_leaves_the_collector_alone(capsys):
    # only the process entry cli.run freezes; an in-process caller keeps
    # its heap collectable, numpy verb or not
    before = (gc.get_freeze_count(), gc.isenabled())
    assert run_cli(capsys, "classes", "--p", "13", "--m", "3")[0] == 0
    assert run_cli(capsys, "distance", *_RING_3_13, "--method",
                   "both")[0] == 0
    assert run_cli(capsys, "classes", "--p", "13", "--m", "5")[0] == 1
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_run_returns_main_status_and_freezes():
    # the process entry returns main's status for sys.exit and leaves
    # the collector frozen but enabled
    child = ("import gc, sys\n"
             "from madics import cli\n"
             "sys.argv = ['madics', 'classes', '--p', '13', '--m', '5']\n"
             "assert cli.run() == 1\n"
             "sys.argv = ['madics', 'classes', '--p', '13', '--m', '3']\n"
             "assert cli.run() == 0\n"
             "assert gc.get_freeze_count() > 0 and gc.isenabled()\n")
    proc = _python("-c", child)
    assert proc.returncode == 0, proc.stderr
    assert "InvalidM" in proc.stderr
    assert proc.stdout.startswith("resolved parameters: ")


def test_classes_invalid_m_exit_1(capsys):
    code, _, err = run_cli(capsys, "classes", "--p", "13", "--m", "5")
    assert code == 1
    assert "InvalidM" in err


@pytest.mark.parametrize("a", ["13", "26"])
def test_classes_multiplier_zero_mod_p_exit_1(capsys, a):
    code, _, err = run_cli(capsys, "classes", "--p", "13", "--m", "4",
                           "--a", a)
    assert code == 1
    assert f"multiplier {a} is not coprime to 13" in err


def test_bad_flag_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classes", "--p", "13"])
    assert exc.value.code == 1


def test_field_code_json(capsys):
    code, doc, _ = run_json(capsys, "field-code", "--q", "7", "--p", "19",
                            "--m", "6", "--family", "even-I", "--index", "0")
    assert code == 0
    c = doc["code"]
    assert len(c["generator"]) == 17
    assert c["params"]["n"] == 19 and c["params"]["k"] == 3
    assert c["components"] is None
    assert doc["parameters"]["splitting_field_degree"] == 3


def test_field_code_q_not_residue(capsys):
    code, _, err = run_cli(capsys, "field-code", "--q", "2", "--p", "7",
                           "--m", "3", "--family", "even-I", "--index", "0")
    assert code == 1
    assert "QNotResidue" in err


def test_ring_code_json(capsys):
    code, doc, _ = run_json(capsys, "ring-code", "--q", "3", "--s", "3",
                            "--p", "13", "--m", "4", "--a", "7",
                            "--family", "even-I", "--slots", "1,2,3",
                            "--chain")
    assert code == 0
    c = doc["code"]
    assert all(len(coef) == 3 for coef in c["generator"])
    assert len(c["components"]) == 3
    assert c["params"]["component_ranks"] == [3, 3, 3]
    walked = [step["slots"] for step in doc["chain"]]
    assert walked == [[1, 2, 3], [0, 1, 2], [3, 0, 1], [2, 3, 0]]


@pytest.mark.parametrize("output", ["text", "json"])
def test_ring_code_chain_coefficient_cap(capsys, monkeypatch, output):
    # the chain's m ring generators, m * p * s coefficients, are bounded
    # by FAMILY_COEFFS before any is built: (2, 8191, 630, s = 2) holds
    # 10.3 M and wrote 238 MB of JSON in about a minute
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "ring-code", "--q", "2", "--p", "8191",
                             "--m", "630", "--s", "2", "--slots", "0,1",
                             "--family", "even-I", "--chain",
                             "--output", output)
    assert time.perf_counter() - t0 < 2
    assert (code, out) == (2, "")
    assert err == ("error: TooLarge: a chain of 630 ring codes of length "
                   "8191 over s=2 components holds 10320660 coefficients, "
                   "past the cap 8388608\n")
    # (3, 13, 4, s = 3) holds 156: refused one under, built at the bound
    flags = ("ring-code", "--q", "3", "--p", "13", "--m", "4", "--s", "3",
             "--slots", "1,2,3", "--family", "even-I", "--chain",
             "--output", output)
    monkeypatch.setattr(field_codes, "FAMILY_COEFFS", 4 * 13 * 3 - 1)
    assert run_cli(capsys, *flags)[:2] == (2, "")
    monkeypatch.setattr(field_codes, "FAMILY_COEFFS", 4 * 13 * 3)
    code, out, _ = run_cli(capsys, *flags)
    assert code == 0 and "chain" in out


def test_ring_code_incompatible_s(capsys):
    code, _, err = run_cli(capsys, "ring-code", "--q", "3", "--s", "4",
                           "--p", "13", "--m", "4", "--family", "even-I",
                           "--slots", "0,1,2,3")
    assert code == 1
    assert "IncompatibleS" in err


def test_ring_code_s_cap_exit_2(capsys):
    code, out, err = run_cli(capsys, "ring-code", "--q", "257", "--s", "257",
                             "--p", "13", "--m", "4", "--family", "even-I",
                             "--slots", "0")
    assert code == 2 and out == ""
    assert err.startswith("error: TooLarge: s=257 exceeds the ring cap")


@pytest.mark.parametrize("verb", ["field-code", "distance"])
def test_index_checked_before_the_family_is_built(capsys, monkeypatch, verb):
    built = []
    monkeypatch.setattr(cli, "family_codes",
                        lambda *args: built.append(args))
    code, _, err = run_cli(capsys, verb, "--q", "3", "--p", "13", "--m", "4",
                           "--family", "odd-I", "--index", "4")
    assert code == 1 and built == []
    assert "index must lie in [0, 4)" in err


def test_distance_field(capsys):
    code, doc, _ = run_json(capsys, "distance", "--q", "3", "--p", "13",
                            "--m", "4", "--family", "even-I", "--index", "0")
    assert code == 0
    rep = doc["code"]["distance_report"]
    assert rep["d_min"] == 9 and rep["method"] == "exhaustive"


def test_distance_ring_both_methods(capsys):
    code, doc, _ = run_json(capsys, "distance", "--q", "3", "--s", "3",
                            "--p", "13", "--m", "4", "--a", "7",
                            "--family", "even-I", "--slots", "1,2,3",
                            "--method", "both")
    assert code == 0
    assert doc["code"]["distance_report"]["d_min"] == 9
    assert doc["cross_check"]["d_min"] == 9
    assert doc["cross_check_agrees"] is True


def test_both_verbs_share_the_cross_check(tmp_path, capsys, monkeypatch):
    # export --method both writes the cross-check distance writes, and
    # a disagreeing exhaustive scan fails both verbs with exit 1
    ring = ("--q", "3", "--s", "3", "--p", "13", "--m", "4", "--a", "7",
            "--family", "even-I", "--slots", "1,2,3", "--method", "both")
    _, dist, _ = run_json(capsys, "distance", *ring)
    out = tmp_path / "code.json"
    code, _, _ = run_cli(capsys, "export", *ring, "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["cross_check"] == dist["cross_check"]
    assert doc["cross_check_agrees"] is True
    exhaustive = cli.min_distance_ring_exhaustive
    monkeypatch.setattr(cli, "min_distance_ring_exhaustive",
                        lambda *args: dataclasses.replace(
                            exhaustive(*args), d_min=8))
    for verb in ("distance", "export"):
        code, out_text, err = run_cli(capsys, verb, *ring)
        assert (code, out_text) == (1, "")
        assert "component-min and exhaustive distances differ" in err


def test_distance_cap_exit_2(capsys):
    code, _, err = run_cli(capsys, "distance", "--q", "3", "--s", "3",
                           "--p", "13", "--m", "4", "--a", "7",
                           "--family", "even-I", "--slots", "1,2,3",
                           "--method", "exhaustive", "--cap", "10")
    assert code == 2
    assert "TooLarge" in err



def test_distance_ring_by_its_dual_side(capsys):
    # (7, 19, 6, 2) odd-I has 7**32 component-message tuples, about
    # 2**89.8, past any cap, and its dual 7**6: the exhaustive
    # cross-check scans the dual side and agrees with component-min
    code, doc, _ = run_json(capsys, "distance", "--q", "7", "--p", "19",
                            "--m", "6", "--family", "odd-I", "--s", "2",
                            "--slots", "0,1", "--method", "both")
    assert code == 0
    assert doc["code"]["distance_report"]["d_min"] == 3
    cross = doc["cross_check"]
    assert (cross["d_min"], cross["method"], cross["enumerated"]) == (
        3, "macwilliams", 7**6)


def test_distance_text_names_the_methods_that_ran(capsys):
    # the cross-check ran macwilliams over 7**6 dual tuples, and the main
    # line counts the codewords of the two components component-min read
    code, out, _ = run_cli(capsys, "distance", "--q", "7", "--p", "19",
                           "--m", "6", "--family", "odd-I", "--s", "2",
                           "--slots", "0,1", "--method", "both")
    assert code == 0
    assert out.splitlines()[1:] == [
        "[19, 16] d_min = 3 (component-min, 686 codewords enumerated)",
        "component distances: [3, 3]",
        "cross-check: d_min = 3 (macwilliams, 117649 component-message "
        "tuples enumerated) agrees"]
    # an exhaustive ring run counts tuples, a field scan codewords
    code, out, _ = run_cli(capsys, "distance", *_RING_3_13, "--method",
                           "exhaustive")
    assert code == 0
    assert out.splitlines()[1] == (
        "[13, 9] d_min = 9 (exhaustive, 19683 component-message tuples "
        "enumerated)")
    code, out, _ = run_cli(capsys, "distance", "--q", "2", "--p", "89",
                           "--m", "8", "--family", "odd-I", "--index", "0")
    assert code == 0
    assert out.splitlines()[1] == (
        "[89, 78] d_min = 4 (macwilliams, 2048 codewords enumerated)")


@pytest.mark.parametrize("method", ["component-min", "exhaustive", "both"])
def test_method_on_a_field_code_exit_1(tmp_path, capsys, method):
    # a field code is always measured on its smaller side, so --method,
    # given by flags or beside a field export loaded with --from, is
    # refused rather than ignored; on a ring export it is honoured
    refusal = "--method applies to ring codes only"
    field = ("--q", "3", "--p", "13", "--m", "4", "--family", "even-I",
             "--index", "0")
    path = tmp_path / "field.json"
    assert main(["export", *field, "--skip-distance", "--out",
                 str(path)]) == 0
    ring = tmp_path / "ring.json"
    assert main(["export", *_RING_3_13, "--skip-distance", "--out",
                 str(ring)]) == 0
    capsys.readouterr()
    for verb in ("distance", "export"):
        for source in (field, ("--from", str(path))):
            code, out, err = run_cli(capsys, verb, *source, "--method",
                                     method)
            assert (code, out) == (1, "")
            assert f"error: MadicError: {refusal}" in err
        code, doc, _ = run_json(capsys, verb, "--from", str(ring),
                                "--method", method)
        assert code == 0
        assert doc["code"]["distance_report"]["method"] == (
            "exhaustive" if method == "exhaustive" else "component-min")


@pytest.mark.parametrize("form", ["field", "ring", "from"])
def test_method_beside_skip_distance_exit_1(tmp_path, capsys, form):
    # --skip-distance measures nothing, so --method beside it is refused
    # for every code source rather than ignored
    path = tmp_path / "ring.json"
    assert main(["export", *_RING_3_13, "--skip-distance", "--out",
                 str(path)]) == 0
    source = {"field": (*FIELD_FLAGS, "--index", "0"), "ring": _RING_3_13,
              "from": ("--from", str(path))}[form]
    capsys.readouterr()
    code, out, err = run_cli(capsys, "export", *source, "--skip-distance",
                             "--method", "both", "--output", "json")
    assert (code, out) == (1, "")
    assert err == ("error: MadicError: --method cannot be given with "
                   "--skip-distance, which measures no distance\n")


def gf2_rank(rows):
    """Rank over GF(2) of rows given as int bit masks."""
    basis = []
    for r in rows:
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis.append(r)
    return len(basis)


def test_distance_past_cap_by_macwilliams(capsys):
    # [89, 78]_2 has 2^78 words; its dual has 2^11
    code, doc, _ = run_json(capsys, "distance", "--q", "2", "--p", "89",
                            "--m", "8", "--family", "odd-I", "--index", "0")
    assert code == 0
    rep = doc["code"]["distance_report"]
    assert (rep["n"], rep["k"], rep["d_min"]) == (89, 78, 4)
    assert rep["method"] == "macwilliams" and rep["enumerated"] == 2048
    weights = rep["weight_distribution"]
    assert sum(weights) == 2**78 and min(weights) >= 0
    # H: the shifts of the dual's generator, checked to be a parity-check
    # matrix of C (rank 11, orthogonal to G), as column bit masks
    fc = family_codes(build_residue_system(89, 8), make_prime_field(2),
                      "odd-I")[0]
    h = fc.dual.generator
    hmat = np.zeros((11, 89), dtype=np.int64)
    for i in range(11):
        hmat[i, i:i + 79] = h
    assert gf2_rank(int("".join(map(str, row)), 2) for row in hmat) == 11
    assert not (generator_matrix(fc) @ hmat.T % 2).any()
    # transforming A back reproduces the dual's scan
    assert macwilliams(weights, 89, 2) == tuple(
        int(c) for c in scan_numpy(hmat, 2)[1])
    # d = 4: no 1, 2 or 3 columns of H sum to zero, and some 4 do
    cols = [sum(int(hmat[i, j]) << i for i in range(11)) for j in range(89)]
    assert 0 not in cols and len(set(cols)) == 89
    pair_sums = {}
    for a in range(89):
        for b in range(a + 1, 89):
            pair_sums.setdefault(cols[a] ^ cols[b], []).append((a, b))
    assert not set(pair_sums) & set(cols)
    assert any(len({*p1, *p2}) == 4 for pairs in pair_sums.values()
               for p1 in pairs for p2 in pairs)


def test_distance_cap_names_the_smaller_side(capsys):
    # [19, 7]_7 scans the code itself (7^7 words), not its dual (7^12)
    code, _, err = run_cli(capsys, "distance", "--q", "7", "--p", "19",
                           "--m", "3", "--family", "odd-II", "--index", "0",
                           "--cap", "1000")
    assert code == 2
    assert "enumerating 823543 codewords" in err


def test_classes_p_cap_exit_2(capsys):
    code, out, err = run_cli(capsys, "classes", "--p", "1000000000039",
                             "--m", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: TooLarge: p of 40 bits exceeds")


def test_classes_p_cap_before_primality_exit_2(capsys):
    # the cap is checked before the Miller-Rabin test, which took about
    # 6 s at this 4,001-digit composite before refusing it as not prime;
    # the refusal names p's bit length, not its digits
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "classes", "--p", str(10**4000 + 1),
                             "--m", "2")
    assert time.perf_counter() - t0 < 0.5
    assert code == 2 and out == ""
    assert err.startswith("error: TooLarge: p of 13288 bits exceeds")
    assert len(err.encode()) <= 200


def test_failed_internal_check_exit_3(capsys, monkeypatch):
    # a kernel fault caught by the fold check of the scan counts is a
    # named error with its own exit code, not a traceback
    from madics import _kernels

    scan = _kernels.scan

    def off_by_one(*args):
        counts = scan(*args)
        counts[0] += 1
        return counts

    monkeypatch.setattr(_kernels, "scan", off_by_one)
    code, out, err = run_cli(capsys, "distance", "--q", "3", "--p", "13",
                             "--m", "4", "--family", "even-I", "--index",
                             "0")
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: InternalCheckFailed: the scan of ")


def test_family_coefficient_cap_exit_2():
    # 7710 codes of length 131071, about 10**9 coefficients: refused
    # before any is built, where the build used to end in a MemoryError
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "madics.cli", "field-code", "--q", "2",
         "--p", "131071", "--m", "7710", "--family", "even-I", "--index",
         "0"], capture_output=True, text=True, env=env, timeout=60)
    assert time.perf_counter() - t0 < 10
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith(
        "error: TooLarge: a family of 7710 codes of length 131071")
    assert "Traceback" not in proc.stderr


def test_long_family_code_reads_one_code_promptly():
    # the family is 630 records of nonzeros and only code 3 builds its
    # generator and idempotent; building all 630 took about 4 s
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "madics.cli", "field-code", "--q", "2",
         "--p", "8191", "--m", "630", "--family", "even-I", "--index", "3",
         "--output", "json"], capture_output=True, text=True, env=env,
        timeout=60)
    assert time.perf_counter() - t0 < 2
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["code"]["params"]["k"] == 13


def test_splitting_field_cap(capsys, monkeypatch):
    # x**47 - 1 over GF(3) splits in GF(3^23), past ffield.SIZE_CAP:
    # field-code, which echoes the splitting field, exits 2 at once with
    # FieldTooLarge, a size cap like the others; distance meets the scan
    # cap first (3^23 words) and exits 2 before any field is built
    flags = ("--q", "3", "--p", "47", "--m", "2", "--family", "even-I",
             "--index", "0")
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "field-code", *flags)
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (2, "")
    assert err == ("error: FieldTooLarge: field size 3^23 exceeds cap "
                   "2147483648\n")
    built = []
    monkeypatch.setattr(field_codes, "make_extension",
                        lambda *args: built.append(args))
    code, out, err = run_cli(capsys, "distance", *flags)
    assert (code, out, built) == (2, "", [])
    assert err.startswith(
        "error: TooLarge: enumerating 94143178827 codewords")


@pytest.mark.parametrize("shape", [("field-code", "--index", "0"),
                                   ("ring-code", "--s", "3", "--slots",
                                    "0,1,2")], ids=lambda s: s[0])
def test_large_prime_q_exit_2_promptly(capsys, shape):
    # a prime q past SIZE_CAP is refused before the primitive-root
    # search, which would factor q - 1 by trial division
    verb, *rest = shape
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, verb, "--q", "4611686018427394499",
                             "--p", "13", "--m", "3", "--family", "even-I",
                             *rest)
    assert time.perf_counter() - t0 < 0.5
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: FieldTooLarge: field size "
                          "4611686018427394499 exceeds")


@pytest.mark.parametrize("cap", ["0", "-5"])
@pytest.mark.parametrize("verb", [
    ("distance", "--q", "3", "--p", "13", "--m", "4", "--family", "even-I",
     "--index", "0"),
    ("verify-paper",)], ids=["distance", "verify-paper"])
def test_nonpositive_cap_exit_1(capsys, verb, cap):
    # a nonpositive cap is malformed input (exit 1), not a cap hit (exit 2)
    code, out, err = run_cli(capsys, *verb, "--cap", cap)
    assert code == 1
    assert out == ""
    assert err == ("error: MadicError: --cap must be a positive integer, "
                   f"got {cap}\n")


def test_distance_numba_backend_without_numba_exit_1(capsys):
    # there is no --backend option: asking for the numba backend is a
    # usage error, exit 1 with nothing on stdout
    with pytest.raises(SystemExit) as exc:
        main(["distance", "--q", "3", "--p", "13", "--m", "4",
              "--family", "even-I", "--index", "0", "--backend", "numba"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --backend numba" in captured.err


def test_distance_needs_source(capsys):
    code, _, err = run_cli(capsys, "distance", "--q", "3", "--p", "13",
                           "--m", "4", "--family", "even-I")
    assert code == 1
    assert "--index" in err


FIELD_FLAGS = ("--q", "3", "--p", "13", "--m", "4", "--family", "even-I")


def test_distance_s_without_slots_exit_1(capsys):
    # --s alone names no ring code: it must not fall back to the field
    # code of --index
    code, out, err = run_cli(capsys, "distance", *FIELD_FLAGS, "--index", "0",
                             "--s", "3")
    assert (code, out) == (1, "")
    assert "MadicError" in err and "--s and --slots" in err


def test_distance_index_beside_slots_exit_1(capsys):
    # a ring code has slots, not an index: --index must not be dropped
    code, out, err = run_cli(capsys, "distance", *FIELD_FLAGS, "--index", "2",
                             "--s", "3", "--slots", "0,1,2")
    assert (code, out) == (1, "")
    assert "MadicError" in err and "--index or --slots" in err


@pytest.mark.parametrize("flag", (
    ("--p", "19"), ("--m", "6"), ("--b", "2"), ("--a", "7"), ("--q", "7"),
    ("--family", "odd-I"), ("--alpha-exp", "1"), ("--index", "0"),
    ("--s", "3"), ("--slots", "0,1,2")))
@pytest.mark.parametrize("verb", ("distance", "export"))
def test_code_flag_beside_from_exit_1(tmp_path, capsys, verb, flag):
    # the document names the code, so a code flag beside --from would be
    # replaced by its params unseen
    path = tmp_path / "field.json"
    assert main(["export", *FIELD_FLAGS, "--index", "0", "--skip-distance",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    code, out, err = run_cli(capsys, verb, "--from", str(path), *flag)
    assert (code, out) == (1, "")
    assert "MadicError" in err
    assert f"--from cannot be given with {flag[0]}" in err


def test_export_round_trip(tmp_path, capsys):
    path = tmp_path / "code.json"
    code, _, _ = run_cli(capsys, "export", "--q", "3", "--s", "3",
                         "--p", "13", "--m", "4", "--a", "7",
                         "--family", "even-I", "--slots", "1,2,3",
                         "--out", str(path))
    assert code == 0
    first = json.loads(path.read_text())
    rep1 = first["code"]["distance_report"]

    code, doc, _ = run_json(capsys, "distance", "--from", str(path))
    assert code == 0
    assert doc["code"]["distance_report"] == rep1
    assert doc["code"]["generator"] == first["code"]["generator"]


def test_export_field_round_trip(tmp_path, capsys):
    path = tmp_path / "fcode.json"
    code, _, _ = run_cli(capsys, "export", "--q", "7", "--p", "19",
                         "--m", "6", "--family", "even-I", "--index", "3",
                         "--out", str(path))
    assert code == 0
    code, doc, _ = run_json(capsys, "distance", "--from", str(path))
    assert code == 0
    assert doc["code"]["distance_report"]["d_min"] == 15


def _assert_labels_echoed(doc, u, index, slots):
    """The code params of a CLI document echo the labeling u and the
    class index or the slots given, on the code and on each ring
    component."""
    params = doc["code"]["params"]
    assert doc["parameters"]["alpha_exp"] == params["alpha_exp"] == u
    if slots is None:
        assert params["index"] == index
        return
    assert params["slots"] == slots
    assert [c["params"]["index"] for c in doc["code"]["components"]] == slots


@pytest.mark.parametrize("source", (
    ("--index", "1"), ("--s", "3", "--slots", "1,3,0")))
def test_reexport_keeps_alpha_exp(tmp_path, capsys, source):
    # the labels go out as given, reduced mod p, and come back through
    # --from, on every labeling: alpha, beta = alpha**2, alpha**-1 and
    # alpha**(p+1) = alpha
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    index = int(source[1]) if source[0] == "--index" else None
    slots = None if index is not None else [1, 3, 0]
    for u in (1, 2, -1, 14):
        code, _, _ = run_cli(capsys, "export", "--q", "3", "--p", "13",
                             "--m", "4", "--family", "odd-I", *source,
                             "--alpha-exp", str(u), "--skip-distance",
                             "--out", str(first))
        assert code == 0
        code, _, _ = run_cli(capsys, "export", "--from", str(first),
                             "--skip-distance", "--out", str(second))
        assert code == 0
        doc = json.loads(second.read_text())
        assert doc == json.loads(first.read_text())
        _assert_labels_echoed(doc, u % 13, index, slots)
        code, out, _ = run_json(capsys, "distance", "--from", str(second))
        assert code == 0
        _assert_labels_echoed(out, u % 13, index, slots)
        assert out["code"]["generator"] == doc["code"]["generator"]


def test_negative_alpha_exp_field_code(capsys):
    args = ("field-code", "--q", "3", "--p", "13", "--m", "4",
            "--family", "odd-I", "--index", "0", "--alpha-exp")
    code, neg, _ = run_json(capsys, *args, "-1")
    assert code == 0
    code, pos, _ = run_json(capsys, *args, "12")
    assert code == 0
    assert neg["code"]["generator"] == pos["code"]["generator"]
    assert neg["code"]["idempotent"] == pos["code"]["idempotent"]
    # the labeling is reduced mod p before it is used or echoed
    assert neg == pos
    assert pos["parameters"]["alpha_exp"] == 12
    code, _, err = run_cli(capsys, *args, "26")
    assert code == 1
    assert "NotCoprime" in err


def test_alpha_exp_reduced_in_ring_code_and_exports(tmp_path, capsys):
    ring_args = ("ring-code", "--q", "3", "--p", "13", "--m", "4",
                 "--family", "even-II", "--s", "3", "--slots", "2,1,3",
                 "--alpha-exp")
    path = tmp_path / "code.json"
    for u in (1, 2, -1, 14):
        code, neg, _ = run_json(capsys, *ring_args, str(u - 13))
        assert code == 0
        code, pos, _ = run_json(capsys, *ring_args, str(u))
        assert code == 0
        assert neg == pos
        _assert_labels_echoed(pos, u % 13, None, [2, 1, 3])
        code, _, _ = run_cli(capsys, "export", "--q", "3", "--p", "13",
                             "--m", "4", "--family", "odd-I", "--index", "1",
                             "--alpha-exp", str(u + 13), "--skip-distance",
                             "--out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        _assert_labels_echoed(doc, u % 13, 1, None)
        doc["parameters"]["alpha_exp"] = u + 26
        doc["code"]["params"]["alpha_exp"] = u + 26
        path.write_text(json.dumps(doc))
        code, out, _ = run_json(capsys, "distance", "--from", str(path))
        assert code == 0
        _assert_labels_echoed(out, u % 13, 1, None)
        assert out["code"]["generator"] == doc["code"]["generator"]


def test_export_tamper_detected(tmp_path, capsys):
    path = tmp_path / "code.json"
    run_cli(capsys, "export", "--q", "3", "--p", "13", "--m", "4",
            "--family", "even-I", "--index", "0", "--skip-distance",
            "--out", str(path))
    doc = json.loads(path.read_text())
    doc["code"]["generator"][0] = (doc["code"]["generator"][0] + 1) % 3
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "distance", "--from", str(path))
    assert code == 1
    assert "does not match" in err


def _drop(key):
    def edit(doc):
        del doc["code"]["params"][key]
        return doc
    return edit


def _set(key, value):
    def edit(doc):
        doc["code"]["params"][key] = value
        return doc
    return edit


def _ring_without_s(doc):
    doc["code"]["params"]["slots"] = [0, 1, 2]
    return doc


@pytest.mark.parametrize("edit", [
    lambda doc: {"code": {"generator": doc["code"]["generator"]}},
    lambda doc: [doc],
    lambda doc: {"code": {"params": [3, 13], "generator": [1]}},
    _ring_without_s,
    _set("index", 9),
    _drop("q"),
    _set("p", "13"),
    _set("slots", "0,1"),
], ids=["no-params", "top-level-list", "params-not-dict", "slots-without-s",
        "index-out-of-range", "missing-q", "p-not-int", "slots-not-list"])
def test_malformed_export_exit_1(tmp_path, capsys, edit):
    path = tmp_path / "code.json"
    run_cli(capsys, "export", "--q", "3", "--p", "13", "--m", "4",
            "--family", "even-I", "--index", "0", "--skip-distance",
            "--out", str(path))
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    code, out, err = run_cli(capsys, "distance", "--from", str(path))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: MadicError: ")


@pytest.mark.parametrize("verb", ["distance", "export"])
def test_deeply_nested_export_exit_1(tmp_path, verb):
    # the json decoder recurses once per level: 200,000 nested lists
    # raised RecursionError out of the CLI
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "madics.cli", verb, "--from", str(path),
         *(("--out", str(tmp_path / "out.json")) if verb == "export" else ())],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: MadicError: ")
    assert "Traceback" not in proc.stderr


def _ring_slot_true(doc):
    doc["code"]["params"]["slots"][1] = True
    return doc


@pytest.mark.parametrize("ring,edit", [
    (False, _set("p", True)),
    (False, _set("q", True)),
    (False, _set("index", True)),
    (False, _set("alpha_exp", True)),
    (True, _ring_slot_true),
], ids=["p", "q", "index", "alpha_exp", "slot"])
def test_boolean_export_params_exit_1(tmp_path, capsys, ring, edit):
    # JSON true loads as a bool, which is an int subclass: without the
    # check "p": true reached the residue system and "index": true read
    # as index 1
    path = tmp_path / "code.json"
    shape = (("--s", "3", "--slots", "1,2,3") if ring else
             ("--index", "1"))
    run_cli(capsys, "export", "--q", "3", "--p", "13", "--m", "4", "--a",
            "7", "--family", "even-I", *shape, "--skip-distance",
            "--out", str(path))
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    code, out, err = run_cli(capsys, "distance", "--from", str(path))
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        "error: MadicError: exported params have the wrong types: "
        "integers, a family name and a list of integer slots"]


def test_griesmer_verb(capsys):
    code, doc, _ = run_json(capsys, "griesmer", "--n", "13", "--k", "3",
                            "--d", "9", "--q", "3")
    assert code == 0
    assert doc["bound"] == 13 and doc["attained"] is True
    code, doc, _ = run_json(capsys, "griesmer", "--n", "13", "--k", "4",
                            "--d", "7", "--q", "3")
    assert code == 0
    assert doc["bound"] == 12 and doc["attained"] is False
    # prime powers are field orders too
    for q, bound in (("4", 13), ("9", 11)):
        code, doc, _ = run_json(capsys, "griesmer", "--n", "13", "--k", "3",
                                "--d", "9", "--q", q)
        assert code == 0
        assert doc["bound"] == bound


def test_griesmer_q_past_every_alphabet_exit_2(capsys):
    # q past SIZE_CAP**S_CAP = 2^1984 is refused before the prime-power
    # test, which took 22-27 s at this 4,001-digit q
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "griesmer", "--n", "1", "--k", "1",
                             "--d", "1", "--q", str(10**4000 + 1))
    assert time.perf_counter() - t0 < 0.5
    assert code == 2 and out == ""
    assert err.startswith("error: FieldTooLarge: q of 13288 bits exceeds")
    assert len(err.encode()) <= 200


@pytest.mark.parametrize("n, q", [("13", "0"), ("13", "1"), ("13", "-2"),
                                  ("0", "3"), ("13", "6")])
def test_griesmer_bad_q_or_n_exit_1(capsys, n, q):
    code, out, err = run_cli(capsys, "griesmer", "--n", n, "--k", "3",
                             "--d", "9", "--q", q)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: InvalidParameter: griesmer check needs")


def test_verify_paper_exit_0(capsys):
    code, doc, _ = run_json(capsys, "verify-paper")
    assert code == 0
    assert doc["ok"] is True
    assert all(c["passed"] for c in doc["checks"])
    assert len(doc["errata"]) >= 10
    names = {e["name"] for e in doc["errata"]}
    assert "classes-context" in names
    assert "g2-g3-equal-claim" in names


def test_record_json_is_the_record_fields(capsys):
    # a distance report, its cross-check and each verify-paper check
    # and erratum reach JSON as their dataclass fields, in field order
    def names(record):
        return [f.name for f in dataclasses.fields(record)]

    _, doc, _ = run_json(capsys, "distance", "--q", "3", "--p", "13",
                         "--m", "4", "--family", "even-I", "--index", "0")
    code = family_codes(build_residue_system(13, 4), make_prime_field(3),
                        "even-I")[0]
    report = min_distance_field(code)
    assert list(doc["code"]["distance_report"]) == names(DistanceReport)
    assert doc["code"]["distance_report"] == dict(
        dataclasses.asdict(report),
        weight_distribution=list(report.weight_distribution))
    _, doc, _ = run_json(capsys, "distance", "--q", "3", "--s", "3",
                         "--p", "13", "--m", "4", "--a", "7",
                         "--family", "even-I", "--slots", "1,2,3",
                         "--method", "both")
    assert list(doc["code"]["distance_report"]) == names(DistanceReport)
    assert list(doc["cross_check"]) == names(DistanceReport)
    _, doc, _ = run_json(capsys, "verify-paper")
    assert doc["checks"] and doc["errata"]
    assert all(list(c) == names(CheckResult) for c in doc["checks"])
    assert all(list(e) == names(Erratum) for e in doc["errata"])


def test_verify_paper_text(capsys):
    code, out, _ = run_cli(capsys, "verify-paper")
    assert code == 0
    assert "[PASS] classes-p13-m3" in out
    assert "errata" in out
    assert "result: ok" in out



@pytest.mark.parametrize("output,digest", [
    ("json", "d1937bb3a260587956f7f16a24b7ffd3"),
    ("text", "acf15331a467357a379d3a40673c86a6")])
def test_verify_paper_output_is_pinned(capsys, output, digest):
    """verify-paper's whole stdout, every check, value and erratum, is
    pinned by its md5.  Making the class-II defining elements true
    idempotents (ROADMAP direction 1) changes the checks and errata it
    reports, and is expected to re-pin both digests."""
    code, out, _ = run_cli(capsys, "verify-paper", "--output", output)
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == digest

RING = ("--q", "3", "--s", "3", "--p", "13", "--m", "4", "--a", "7",
        "--family", "even-I", "--slots", "1,2,3")


@pytest.mark.parametrize("name,argv", [
    ("ring_code", ("ring-code", *RING)),
    ("ring_mu_chain", ("ring-code", *RING, "--chain")),
    ("min_distance_field", ("distance", "--q", "3", "--p", "13", "--m", "4",
                            "--family", "even-I", "--index", "0")),
    ("min_distance_ring", ("distance", *RING)),
    ("min_distance_ring_exhaustive",
     ("distance", *RING, "--method", "exhaustive")),
    ("run_verification", ("verify-paper",)),
])
def test_verbs_call_the_cli_module_names(monkeypatch, capsys, name, argv):
    # a tracing harness (perfbench/layers.py, Layers.patch_cli) replaces
    # these six attributes of the cli module to time each layer, so the
    # verbs must look them up there at call time
    real, calls = getattr(cli, name), []

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, name, recording)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert calls


LABELS = ("--q", "3", "--p", "13", "--m", "4", "--family", "even-I",
          "--alpha-exp", "2")


@pytest.mark.parametrize("build,source", [
    ("field-code", ("--index", "1")),
    ("ring-code", ("--s", "3", "--slots", "1,2,3"))], ids=["field", "ring"])
def test_code_verbs_share_one_payload(capsys, build, source):
    # the four code verbs emit the payload of cli._code_payload: only the
    # verb and distance's report set them apart
    docs = {}
    for verb, extra in ((build, ()), ("export", ("--skip-distance",)),
                        ("distance", ())):
        code, doc, _ = run_json(capsys, verb, *LABELS, *source, *extra)
        assert code == 0
        assert list(doc) == ["command", "parameters", "code"]
        assert doc["command"] == verb
        docs[verb] = doc
    assert docs["distance"]["code"]["distance_report"] is not None
    first = docs[build]
    for doc in docs.values():
        assert doc["parameters"] == first["parameters"]
        assert dict(doc["code"], distance_report=None) == first["code"]


@pytest.mark.parametrize("verb,argv", [
    ("classes", ("--p", "13", "--m", "4")),
    ("field-code", (*LABELS, "--index", "1")),
    ("ring-code", (*LABELS, "--s", "3", "--slots", "1,2,3")),
    ("distance", (*LABELS, "--index", "1")),
    ("griesmer", ("--n", "13", "--k", "3", "--d", "9", "--q", "3")),
    ("verify-paper", ()),
    ("export", ("--from", "code.json")),
])
def test_every_verb_takes_output_last(capsys, verb, argv):
    args = cli.build_parser().parse_args([verb, *argv, "--output", "json"])
    assert (args.command, args.output) == (verb, "json")
    with pytest.raises(SystemExit):
        main([verb, "--help"])
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert usage.endswith(" [--output {text,json}]")


def test_missing_from_file(capsys):
    code, _, err = run_cli(capsys, "distance", "--from", "/no/such/file.json")
    assert code == 1
