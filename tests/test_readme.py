"""The README's library example and CLI session run as documented."""

import re
import shlex
from pathlib import Path

from womkit.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_library_example_runs():
    blocks = fenced_blocks("python")
    assert len(blocks) == 1
    namespace = {"__name__": "readme_example"}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["image"].startswith(b"WOMIMG 1\n")


def test_readme_cli_session_runs(tmp_path, monkeypatch, capsys):
    (session,) = [block for block in fenced_blocks("sh") if "womkit init" in block]
    commands = [shlex.split(line) for line in session.splitlines() if line.startswith("womkit ")]
    assert [argv[1] for argv in commands] == ["params", "init", "write", "write", "read", "audit-hash"]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "round1.hex").write_text("a1b2c3\n")  # 24 bits: four 6-bit subset ranks
    (tmp_path / "round2.hex").write_text("0d0e0f\n")  # the round uses the low 20 bits
    for argv in commands:
        code = main(argv[1:])
        out, err = capsys.readouterr()
        assert code == 0, (argv, err)
        if argv[1] == "read":
            assert out.splitlines() == ["round=2", "bits=20", "payload=0d0e0f"]
