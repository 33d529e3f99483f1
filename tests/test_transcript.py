"""The CLI contract as a golden transcript.

One fixed session runs through `cli.main`: reports, t = 1, 2 and 3 images
of 1, 5 and 40 blocks through every round, exit codes 0, 2, 3, 4 and 5 (a
write-once violation, exit 6, is refused earlier as an unwritable block)
and the tampered copies CI refuses. Each scenario runs in its own
directory under a temp directory, with that directory as the cwd and every
path relative. Each command records its argv, exit code, stdout, stderr and
the SHA-256 of every file in the directory, and the record must equal the
checked-in `tests/transcript.txt`. Floats in the output are
recorded to nine decimals, since the last bits of a float sum may differ
between Python versions. Regenerate the file with

    PYTHONPATH=src python tests/test_transcript.py

and name each changed line, and why it changed, with the change.
"""

from __future__ import annotations

import hashlib
import os
import re
import tempfile
from binascii import crc32
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from womkit.cli import main

TRANSCRIPT = Path(__file__).with_name("transcript.txt")
# a float's repr has a point or a signed exponent, which no hex payload has
FLOAT = re.compile(r"(?<![\w.])-?\d+(?:\.\d+(?:e[-+]\d+)?|e[-+]\d+)(?![\w.])")

# (t, init options) of the images every round is written to
SHAPES = [
    (1, ["--n", "10", "--m", "4", "--l", "2", "--p", "1/2"]),
    (2, ["--n", "10", "--m", "4", "--l", "2", "--k", "7", "--p", "1/3,1/2"]),
    (3, ["--n", "12", "--m", "3", "--l", "2", "--k", "7,5", "--p", "1/4,1/3,1/2"]),
]
T2 = ["init", "--t", "2", *SHAPES[1][1]]


class Session:
    """Runs womkit commands in one directory after another and records what each did."""

    def __init__(self, root: Path):
        self.root = root
        self.lines: list[str] = []

    def scenario(self, name: str) -> None:
        (self.root / name).mkdir()
        os.chdir(self.root / name)
        self.lines.append(f"## {name}")

    def note(self, text: str) -> None:
        self.lines.append(f"# {text}")

    def run(self, *argv: str) -> int:
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
        self.lines.append("$ womkit " + " ".join(argv))
        self.lines.append(f"exit={code}")
        for prefix, text in (("1>", out.getvalue()), ("2>", err.getvalue())):
            text = FLOAT.sub(lambda match: f"{float(match[0]):.9f}", text)
            self.lines.extend(f"{prefix} {line}" for line in text.splitlines())
        for path in sorted(Path().iterdir()):
            self.lines.append(f"file {path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}")
        return code

    def message(self, name: str, nbits: int, seed: int) -> str:
        """Write a hex message file of at least nbits bits, the same bytes for the same seed."""
        data = bytes((seed * 131 + 29 * i) % 251 for i in range(-(-nbits // 8)))
        Path(name).write_text(data.hex() + "\n")
        self.note(f"{name} holds {8 * len(data)} bits")
        return name

    def tamper(self, source: str, target: str, what: str, edit) -> str:
        """Copy source to target with edit applied to the text before the CRC line, CRC fixed."""
        image = Path(source).read_bytes()
        body = edit(image[: image.rindex(b"crc32=")])
        Path(target).write_bytes(body + b"crc32=%08x\n" % crc32(body))
        self.note(f"{target} is {source} with {what}, CRC fixed")
        return target


def sub_once(pattern: bytes, replacement: bytes):
    return lambda body: re.sub(pattern, replacement, body, count=1)


def reports(s: Session) -> None:
    s.scenario("reports")
    s.run("params", "--t", "2", "--epsilon", "0.5")
    s.run("params", "--t", "3", "--epsilon", "0.3")
    s.run("params", "--t", "2", "--epsilon", "0.5", "--rates", "0.8,0.5")
    s.run("params", "--t", "2", "--epsilon", "1.6")
    s.run("audit-hash", "--n", "6", "--k", "4", "--l", "2", "--trials", "2")
    s.run("audit-hash", "--n", "8", "--k", "6", "--l", "4", "--trials", "3")
    s.run("audit-hash", "--n", "6", "--k", "7", "--l", "2", "--trials", "2")
    s.run("selftest", "--only", "1,7,9")
    s.run("selftest", "--only", "2,99")


def rounds(s: Session) -> None:
    for t, options in SHAPES:
        for blocks in (1, 5, 40):
            s.scenario(f"t{t}-blocks{blocks}")
            s.run("init", "--out", "img.wom", "--t", str(t), *options, "--blocks", str(blocks))
            for j in range(1, t + 1):
                msg = s.message(f"r{j}.hex", 32 * blocks, 10 * t + j)  # at least what any round needs
                s.run("write", "--img", "img.wom", "--round", str(j), "--in", msg)
                s.run("read", "--img", "img.wom")


def exit_codes(s: Session) -> None:
    s.scenario("exits")
    s.run(*T2, "--out", "e.wom", "--blocks", "2")
    s.run(*T2, "--out", "e.wom")
    s.run(*T2, "--out", "zero.wom", "--blocks", "0")
    s.run("init", "--out", "wide.wom", "--t", "2", "--n", "30", "--m", "4", "--l", "2", "--k", "7", "--p", "1/3,1/2")
    s.run("read", "--img", "e.wom")
    s.run("read", "--img", "missing.wom")
    s.run("write", "--img", "e.wom", "--round", "2", "--in", s.message("r2.hex", 40, 2))
    s.run("write", "--img", "e.wom", "--round", "1", "--in", s.message("short.hex", 8, 1))
    Path("odd.hex").write_text("a1b\n")
    s.note("odd.hex holds 'a1b'")
    s.run("write", "--img", "e.wom", "--round", "1", "--in", "odd.hex")
    s.run("write", "--img", "e.wom", "--round", "1", "--in", "r1.hex")
    s.run("write", "--img", "e.wom", "--round", "1", "--in", s.message("r1.hex", 48, 1), "--blocks", "3")
    s.run("write", "--img", "e.wom", "--round", "3", "--in", "r1.hex")
    s.run("write", "--img", "e.wom", "--round", "1", "--in", "r1.hex", "--blocks", "2")
    s.run("write", "--img", "e.wom", "--round", "1", "--in", "r1.hex")
    s.run("read", "--img", "e.wom", "--round", "2")
    Path("crc.wom").write_bytes(Path("e.wom").read_bytes().replace(b"\ndata0=", b"\ndata0=f", 1))
    s.note("crc.wom is e.wom with its first data0 line changed, CRC not fixed")
    s.run("read", "--img", "crc.wom")
    s.run(*T2, "--out", "e.wom", "--force")
    # n = 2: ranks (1, 1) give both words the same value, so targets (0, 1) clash
    s.run("init", "--out", "tiny.wom", "--t", "2", "--n", "2", "--m", "2", "--l", "1", "--k", "2", "--p", "1/2,1/2")
    Path("a.hex").write_text("03\n")
    Path("b.hex").write_text("02\n")
    s.note("a.hex holds '03' and b.hex holds '02'")
    s.run("write", "--img", "tiny.wom", "--round", "1", "--in", "a.hex")
    s.run("write", "--img", "tiny.wom", "--round", "2", "--in", "b.hex")


def tampered(s: Session) -> None:
    s.scenario("tampered")
    s.run(*T2, "--out", "ci.wom", "--blocks", "2")
    Path("r1.hex").write_text("a1b2c3d4e5f6\n")
    Path("r2.hex").write_text("0d0e0f1011\n")
    s.note("r1.hex holds 'a1b2c3d4e5f6' and r2.hex holds '0d0e0f1011'")
    s.run("write", "--img", "ci.wom", "--round", "1", "--in", "r1.hex")
    s.run("read", "--img", "ci.wom")
    copies = [
        s.tamper("ci.wom", "bad.wom", "block 0 data0=0300", sub_once(rb"\ndata0=[0-9a-f]+\n", b"\ndata0=0300\n")),
        s.tamper("ci.wom", "bad1.wom", "block 1 side0=010000",
                 sub_once(rb"(\nblock=1\n(?:\w+=\w+\n)*?side0=)\w+\n", rb"\g<1>010000\n")),
        s.tamper("ci.wom", "plus.wom", "round=+1", lambda body: body.replace(b"\nround=1\n", b"\nround=+1\n", 1)),
        s.tamper("ci.wom", "high.wom", "a 0xff byte after the first side0=",
                 lambda body: body.replace(b"\nside0=", b"\nside0=\xff", 1)),
        # the weight-3 word of colex rank 100: C(10, 3) = 120 words, but a packed rank has 6 bits
        s.tamper("ci.wom", "rank.wom", "block 1 data0=4202",
                 sub_once(rb"(\nblock=1\n(?:\w+=\w+\n)*?data0=)\w+\n", rb"\g<1>4202\n")),
    ]
    for copy in copies:
        s.run("write", "--img", copy, "--round", "2", "--in", "r2.hex")
        s.run("read", "--img", copy)
    s.run("write", "--img", "ci.wom", "--round", "2", "--in", "r2.hex")
    s.run("read", "--img", "ci.wom")
    s.tamper("ci.wom", "floor.wom", "block 0 data0=0000", sub_once(rb"\ndata0=[0-9a-f]+\n", b"\ndata0=0000\n"))
    s.run("write", "--img", "floor.wom", "--round", "2", "--in", "r2.hex")
    s.run("read", "--img", "floor.wom")
    # the weight floor's first repro: one block, data0 emptied after round 2
    s.run(*T2, "--out", "one.wom")
    Path("a.hex").write_text("a1b2c3\n")
    Path("b.hex").write_text("0d0e0f\n")
    s.note("a.hex holds 'a1b2c3' and b.hex holds '0d0e0f'")
    s.run("write", "--img", "one.wom", "--round", "1", "--in", "a.hex")
    s.run("write", "--img", "one.wom", "--round", "2", "--in", "b.hex")
    s.tamper("one.wom", "empty.wom", "data0=0000", sub_once(rb"\ndata0=[0-9a-f]+\n", b"\ndata0=0000\n"))
    s.run("read", "--img", "empty.wom")
    s.run("write", "--img", "empty.wom", "--round", "2", "--in", "b.hex")


def transcript(root: Path) -> str:
    """The whole session's record, run in fresh directories under root."""
    s = Session(root)
    cwd = os.getcwd()
    try:
        for part in (reports, rounds, exit_codes, tampered):
            part(s)
    finally:
        os.chdir(cwd)
    return "\n".join(s.lines) + "\n"


def test_cli_session_matches_the_golden_transcript(tmp_path):
    assert transcript(tmp_path).splitlines() == TRANSCRIPT.read_text().splitlines()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        TRANSCRIPT.write_text(transcript(Path(root)))
