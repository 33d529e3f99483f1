"""Smoke test of the benchmark: each workload at a tiny size, and its gate.

    python3 perfbench/smoke.py              # from the repository root
    python3 -m pytest -q perfbench/smoke.py

Every workload runs end to end and traced at a few blocks and must report
exactly the metrics BENCHMARK.json names. Speed scaling must use the
reference-loop samples around an operation and leave a run on a machine
of reference speed unchanged. The correctness gate must trip
on a corrupted decode, a corrupted image, a wrong pinned digest and a
failing CLI command, and the command must fail without printing a result
when the womkit sources are missing.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
from speed import SpeedProbe, Timed  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    WORKLOADS,
    Aborted,
    Ledger,
    Session,
    Workload,
    check_read,
    make_params,
    random_stream,
    read_round,
    write_round,
)

TINY = {
    "search_wide": dict(blocks=2, pool=1, reads=2),
    "bulk_image": dict(blocks=12, pool=1, probe=2),
    "cli_session": dict(blocks=3, pool=1),
}
SEED = 7


def tiny(name: str, **changes):
    return dataclasses.replace(WORKLOADS[name], **{"pin": None, **TINY[name], **changes})


def declared(kind: str) -> set[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"] for m in json.load(handle)[kind]}


class WorkDir:
    """A work directory inside the checkout, removed afterwards."""

    def __enter__(self) -> str:
        base = os.path.join(ROOT, run.WORK_DIR)
        os.makedirs(base, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="smoke-", dir=base)
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        base = os.path.dirname(self.path)
        if not os.listdir(base):
            os.rmdir(base)


def test_every_workload_reports_its_metrics():
    for name in WORKLOADS:
        with WorkDir() as workdir:
            ledger = Ledger()
            workload = Workload(tiny(name), ledger, workdir)
            e2e = run.end_to_end(workload, SEED, 0.0, {})
            layers = run.per_layer(workload, SEED, 0.0, {})
        assert ledger.failed == 0, (name, ledger.reasons)
        assert ledger.attempted > 0
        assert set(e2e) == declared("end_to_end"), name
        assert set(layers) == declared("per_layer"), name
        assert all(m["value"] > 0 for m in e2e.values()), (name, e2e)


def test_speed_scaling_uses_samples_around_an_operation():
    probe = SpeedProbe()
    probe.starts = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    probe.samples = [9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 9.0]
    # Inside [2.5, 4.5]: the samples at 3 and 4; around it: 1, 2 and 5, 6.
    assert probe.local(2.5, 4.5) == (1.0 + 2.0 + 3.0 + 4.0 + 5.0 + 6.0) / 6
    assert probe.local(0.5, 0.6) == (9.0 + 1.0 + 2.0) / 3

    # At reference speed the scaled metrics are the measured ones; at half
    # speed the times halve.
    session = Session(write=Timed(2.0, 0.5, 2.6), write_bits=100, reads=[Timed(1.0, 3.1, 4.2)],
                      read_bits=50, session=Timed(3.0, 0.5, 4.2),
                      latencies=[Timed(0.1, 0.6, 0.7), Timed(0.3, 0.8, 1.1)])
    setups = [Timed(0.2, 0.1, 0.3)]

    def scaled(loop_s):
        probe.samples = [loop_s] * len(probe.starts)
        return run.summarize([session], setups, 90.0,
                             lambda t: t.seconds * run.SPEED_REF_S / probe.local(t.start, t.end))

    measured = run.summarize([session], setups, 90.0, lambda t: t.seconds)
    same, slow = scaled(run.SPEED_REF_S), scaled(2 * run.SPEED_REF_S)
    for name, value in measured.items():
        assert math.isclose(same[name], value), name
        factor = 2.0 if name.endswith("_per_s") else 0.5
        assert math.isclose(slow[name], factor * value), name


def _tiny_search(wk, ledger):
    spec = tiny("search_wide")
    full = wk.FullParams(make_params(wk, spec), spec.blocks)
    stream = random_stream(wk, random.Random(SEED), full.round_capacity(1))
    dev, image, msgs, _, _ = write_round(wk, full, wk.Device.fresh(full.N1), 1, stream)
    got, got_stream = read_round(wk, full, image)
    assert check_read(ledger, got, got_stream, msgs, stream, "clean")
    return full, dev, msgs, stream


def test_gate_trips_on_corrupted_image():
    wk = run.fresh_import()
    ledger = Ledger()
    full, dev, msgs, stream = _tiny_search(wk, ledger)
    # Move one programmed cell of block 0's first data word: same weight,
    # valid checksum, different subset rank.
    offset = full.block.data_offset(0)
    word = (dev.cells.bits >> offset) & ((1 << full.block.n) - 1)
    low_set = word & -word
    low_clear = ~word & (word + 1)
    cells = dev.cells.bits ^ ((low_set | low_clear) << offset)
    tampered = wk.save_image(wk.Device(wk.BitWord(dev.cells.length, cells)), full.block, 1)
    got, got_stream = read_round(wk, full, tampered)
    assert not check_read(ledger, got, got_stream, msgs, stream, "tampered")
    assert ledger.failed >= 1

    # A flipped byte breaks the checksum: the session counts the exception.
    flipped = bytearray(wk.save_image(dev, full.block, 1))
    flipped[20] ^= 0x01

    def read_flipped(wk_, inp, out):
        read_round(wk_, full, bytes(flipped))

    with WorkDir() as workdir:
        workload = Workload(tiny("search_wide"), ledger, workdir)
        workload._search_session = read_flipped
        before = ledger.failed
        workload.session(wk, [None], 0)
    assert ledger.failed == before + 1


def test_gate_trips_on_corrupted_decode():
    for name in WORKLOADS:
        wk = run.fresh_import()
        honest = wk.decode_round

        def lying(state, j):
            msg = honest(state, j)
            first = msg.payload[0]
            wrong = first ^ 1 if j == 1 else wk.BitWord(first.length, first.bits ^ 1)
            return wk.RoundMessage(j, (wrong,) + msg.payload[1:])

        with WorkDir() as workdir:
            ledger = Ledger()
            workload = Workload(tiny(name), ledger, workdir)
            inputs = workload.setup(wk, SEED)
            wk.decode_round = lying
            workload.session(wk, inputs, 0)
        assert ledger.failed > 0, name


def test_gate_trips_on_wrong_pin_and_cli_exit():
    ledger = Ledger()
    spec = tiny("search_wide", pin="0" * 64)
    assert run.check_pin(ledger, spec, DEFAULT_SEED, "f" * 64) is False
    assert run.check_pin(ledger, spec, DEFAULT_SEED + 1, "f" * 64) is None
    assert ledger.failed == 1
    with WorkDir() as workdir:
        workload = Workload(tiny("cli_session"), ledger, workdir)
        out = Session()
        try:
            workload.cli(out, "read", "--img", "missing.wom")
        except Aborted:
            pass
        else:
            raise AssertionError("a failing CLI command must abort the session")
    assert ledger.failed == 2 and out.cli_nonzero == 1


def test_command_fails_without_sources():
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "bulk_image", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


if __name__ == "__main__":
    for test_name, test in list(globals().items()):
        if test_name.startswith("test_"):
            test()
            print(f"{test_name} ok")
