"""The README's examples run as printed: the library example prints what
the text after it claims, and every line of the CLI block exits 0."""

import re
import shlex
from pathlib import Path

from madics.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")


def _blocks(section):
    """The fenced code blocks of the README section with this heading."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```[a-z]*\n(.*?)```", body, re.S)


def test_library_example_prints_its_claim(capsys):
    # four [13, (3,3,3)] ring codes of exact distance 9, every one
    # meeting the Griesmer bound
    (source,) = _blocks("Library example")
    capsys.readouterr()
    exec(compile(source, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    for line in lines:
        assert line.endswith(" (3, 3, 3) 9 (13, True)"), line


def test_cli_block_exits_0(tmp_path, monkeypatch, capsys):
    # a drift guard: each madics line, continuations joined, in order,
    # so the export writes the file that distance --from reads
    monkeypatch.chdir(tmp_path)
    lines = [line for block in _blocks("CLI")
             for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("madics ")]
    verbs = [shlex.split(line)[1:] for line in lines]
    assert len(verbs) == 9
    exports = [i for i, argv in enumerate(verbs) if argv[0] == "export"]
    reads = [i for i, argv in enumerate(verbs) if "--from" in argv]
    assert exports and reads and max(exports) < min(reads)
    for argv in verbs:
        assert main(argv) == 0, argv
        capsys.readouterr()
