"""The benchmark's workloads: inputs from a seed, timed sessions, output checks.

Every call into womkit goes through attributes of the package object `wk`
looked up at call time, so the tracer can wrap them, or through `python -m
womkit.cli` children. Sessions are functional: session i always runs on
input set i % pool (its `key`), so a session that comes round again
repeats the same work on the same input, and session 0 at the default seed
has a pinned image digest. run.py takes the median of the repeats of each
timed operation on each input.

Any wrong output, any exception and any non-zero CLI exit is counted on the
Ledger as a failed operation.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from speed import SpeedProbe, Timed, timed_since

DEFAULT_SEED = 1
CLI_TIMEOUT_S = 120
SAMPLE_GAP_S = 0.025  # least time between speed samples inside a round of short searches
clock = time.perf_counter


@dataclass(frozen=True)
class Spec:
    name: str
    kind: str  # "search", "bulk" or "cli"
    t: int
    n: int
    m: int
    l: int
    k: tuple[int, ...]
    p: tuple[str, ...]
    blocks: int
    pool: int  # distinct session inputs made in setup, then cycled
    reads: int = 1  # search: reads of the first session's image, which has no predecessor
    probe: int = 0  # bulk: blocks of the round-2 search probe after each session
    # Tail percentile of block search latency: the highest of 90, 95, 99 that
    # leaves at least ten samples above it in a run of the default length.
    tail_pct: float = 90.0
    pin: str | None = None  # SHA-256 of session 0's output at DEFAULT_SEED


WORKLOADS = {
    spec.name: spec
    for spec in (
        Spec(
            "search_wide", "search",
            t=2, n=18, m=4, l=2, k=(11,), p=("1/3", "1/2"), blocks=40, pool=12, reads=20,
            pin="c26067899d21dac68dbbe82899597a8abfa638a1219ea79743f18bcf504ce4b1",
        ),
        Spec(
            "bulk_image", "bulk",
            t=2, n=10, m=4, l=2, k=(7,), p=("1/3", "1/2"), blocks=8000, pool=3, probe=128, tail_pct=95.0,
            pin="04699c119b4ae33a764c756f647c97b11b9b99d563d99b3a2ae4c2722ce51368",
        ),
        Spec(
            "cli_session", "cli",
            t=3, n=12, m=3, l=2, k=(7, 5), p=("1/4", "1/3", "1/2"), blocks=400, pool=3, tail_pct=99.0,
            pin="3aea3c060676880701ce00719758166c53180f7b05f7264131ce74ef62c45fed",
        ),
    )
}

# Why each workload exists is in BENCHMARK.json and README.md. CLI_PROBE is
# a small CLI session run in traced mode on the in-process workloads, so the
# cli.* layer metrics are measured on every workload.
CLI_PROBE = Spec("cli_probe", "cli", t=3, n=12, m=3, l=2, k=(7, 5), p=("1/4", "1/3", "1/2"),
                 blocks=8, pool=1)


class Aborted(Exception):
    """A session stopped after an operation whose failure is already counted."""


class Ledger:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.no_encoding = 0
        self.reasons: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(what)
        print(f"FAIL {what}", file=sys.stderr)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(what)
        return ok


@dataclass
class Session:
    """What one session measured.

    `key` is the input set the session ran on; `read_key` the input set
    whose image its reads returned. Latencies are in a fixed order per
    input, so repeats of one input line up position by position.
    """

    key: int = 0
    read_key: int = 0
    session: Timed | None = None
    write: Timed | None = None
    write_bits: int = 0
    reads: list[Timed] = field(default_factory=list)  # reads of one image, read_bits each
    read_bits: int = 0
    latencies: list[Timed] = field(default_factory=list)  # per-block round j >= 2 encodes
    searched: list[tuple] = field(default_factory=list)  # (params, j, words before, multiplier a)
    digest: str | None = None  # SHA-256 of the session's output
    image_bytes: int = 0
    cells_programmed: int = 0
    cli_walls: dict[str, list[float]] = field(default_factory=dict)
    cli_nonzero: int = 0


def make_params(wk, spec: Spec):
    return wk.WomParams(t=spec.t, n=spec.n, m=spec.m, l=spec.l, k=spec.k,
                        p=wk.WeightVector([Fraction(x) for x in spec.p]))


def random_stream(wk, rnd: random.Random, nbits: int):
    return wk.BitWord(nbits, rnd.getrandbits(nbits))


def write_round(wk, full, dev, j, stream, out: Session | None = None, between=None):
    """One round write as `womkit write` does it.

    pack -> regime check -> encode -> apply_write -> save_image. Round j >= 2
    encodes block by block so each block's search is timed into
    `out.latencies`, with the garbage collector off as timeit does: a
    collection pays for everything the benchmark holds, not for the block.
    `between()`, if given, runs after each block, and the caller takes its
    time out of the write's. Returns the device, the
    image, the packed messages and the states before and after.
    """
    msgs = wk.pack_messages(stream, j, full)
    before = wk.memory_to_states(dev.cells, full)
    if j >= 2:
        all(wk.in_guaranteed_regime(full.block, j, s.data) for s in before)
    if out is None or j == 1:
        after = wk.full_encode_round(before, msgs)
    else:
        after = []
        gc.disable()
        try:
            for state, msg in zip(before, msgs):
                t0 = clock()
                after.extend(wk.full_encode_round([state], [msg]))
                out.latencies.append(timed_since(t0))
                if between is not None:
                    between()
        finally:
            gc.enable()
    dev = wk.apply_write(dev, wk.states_to_memory(after))
    image = wk.save_image(dev, full.block, j)
    return dev, image, msgs, before, after


def read_round(wk, full, image):
    """One read as `womkit read` does it: load -> memory_to_states -> decode -> unpack."""
    dev, _, j = wk.load_image(image)
    states = wk.memory_to_states(dev.cells, full)
    msgs = [wk.decode_round(s, j) for s in states]
    return msgs, wk.unpack_messages(msgs, full)


def check_read(ledger: Ledger, msgs, stream, want_msgs, want_stream, what: str) -> bool:
    """Per-block decode check (one operation per block) plus the whole stream."""
    results = [ledger.check(got.payload == want.payload, f"{what}: block {b} decodes wrong")
               for b, (got, want) in enumerate(zip(msgs, want_msgs))]
    results.append(ledger.check(len(msgs) == len(want_msgs), f"{what}: {len(msgs)} blocks read back"))
    same = stream.length == want_stream.length and stream.bits == want_stream.bits
    results.append(ledger.check(same, f"{what}: read stream differs from the written one"))
    return all(results)


def record_search(out: Session, full, j, before, after) -> None:
    n = full.block.n
    for old, new in zip(before, after):
        a = new.sides[j - 2].bits & ((1 << n) - 1)
        out.searched.append((full.block, j, old.data, a))


class Workload:
    """Setup and sessions of one Spec; `setup` returns the per-session inputs."""

    def __init__(self, spec: Spec, ledger: Ledger, workdir: str):
        self.spec = spec
        self.ledger = ledger
        self.workdir = workdir
        self.last_image = None  # search: (key, full, image, stream) of the previous session
        self.speed = SpeedProbe()

    def rng(self, seed: int) -> random.Random:
        return random.Random(f"{self.spec.name}/{seed}")

    def session(self, wk, inputs, i: int) -> Session:
        key = i % len(inputs)
        out = Session(key=key, read_key=key)
        try:
            getattr(self, f"_{self.spec.kind}_session")(wk, inputs[key], out)
        except Aborted:
            pass
        except Exception as exc:  # any exception fails the session's current operation
            self.ledger.no_encoding += isinstance(exc, wk.NoEncoding)
            self.ledger.attempted += 1
            self.ledger.fail(f"{self.spec.name} session {i}: {exc!r}")
        return out

    def setup(self, wk, seed: int):
        self.last_image = None
        return getattr(self, f"_{self.spec.kind}_setup")(wk, seed)

    # search_wide --------------------------------------------------------------

    def _search_setup(self, wk, seed):
        spec = self.spec
        params = make_params(wk, spec)
        wk.canonical_spec(spec.n)
        full = wk.FullParams(params, spec.blocks)
        rnd = self.rng(seed)
        inputs = []
        for s in range(spec.pool):
            stream1 = random_stream(wk, rnd, full.round_capacity(1))
            stream2 = random_stream(wk, rnd, full.round_capacity(2))
            dev, image, msgs, _, _ = write_round(wk, full, wk.Device.fresh(full.N1), 1, stream1)
            got, got_stream = read_round(wk, full, image)
            check_read(self.ledger, got, got_stream, msgs, stream1, f"setup {s} round 1")
            inputs.append((full, dev, stream2))
        return inputs

    def _search_session(self, wk, inp, out: Session):
        """Round-2 write, block by block, then one read of the new image.

        Between blocks it reads the previous session's image once, so the
        reads of each image are spread over a whole session, and samples
        the machine's speed; the first session reads its own image `reads`
        times at the end instead.
        """
        full, dev1, stream2 = inp
        last, paused = self.last_image, []

        def read_last():
            key, last_full, last_image, last_stream = last
            t = clock()
            _, got_stream = read_round(wk, last_full, last_image)
            out.reads.append(timed_since(t))
            self.ledger.check(got_stream.bits == last_stream.bits, f"round 2 re-read of input {key} differs")

        def between():
            t = clock()
            if last is not None:
                read_last()
            self.speed.sample()
            paused.append(clock() - t)

        t0 = clock()
        dev, image, msgs, before, after = write_round(wk, full, dev1, 2, stream2, out, between)
        t1 = clock()
        out.write = Timed(t1 - t0 - sum(paused), t0, t1)
        out.write_bits = full.round_capacity(2)
        got, got_stream = read_round(wk, full, image)
        t2 = clock()
        out.session = Timed(out.write.seconds + t2 - t1, t0, t2)
        check_read(self.ledger, got, got_stream, msgs, stream2, "round 2")
        if last is None:
            last = (out.key, full, image, stream2)
            for _ in range(self.spec.reads):
                read_last()
                self.speed.sample()
        out.read_key, out.read_bits = last[0], last[3].length
        self.last_image = (out.key, full, image, stream2)
        record_search(out, full, 2, before, after)
        out.digest = hashlib.sha256(image).hexdigest()
        out.image_bytes = len(image)
        out.cells_programmed = dev.cells.weight

    # bulk_image ---------------------------------------------------------------

    def _bulk_setup(self, wk, seed):
        spec = self.spec
        params = make_params(wk, spec)
        wk.canonical_spec(spec.n)
        full = wk.FullParams(params, spec.blocks)
        probe = wk.FullParams(params, spec.probe)
        rnd = self.rng(seed)
        return [
            (full, probe, random_stream(wk, rnd, full.round_capacity(1)),
             random_stream(wk, rnd, probe.round_capacity(2)))
            for _ in range(spec.pool)
        ]

    def _bulk_session(self, wk, inp, out: Session):
        full, probe, stream1, probe_stream = inp
        t0 = clock()
        dev, image, msgs, _, states = write_round(wk, full, wk.Device.fresh(full.N1), 1, stream1)
        out.write, out.write_bits = timed_since(t0), full.round_capacity(1)
        self.speed.sample()
        t1 = clock()
        got, got_stream = read_round(wk, full, image)
        out.reads.append(timed_since(t1))
        out.read_bits = got_stream.length
        out.session = Timed(out.write.seconds + out.reads[0].seconds, t0, clock())
        check_read(self.ledger, got, got_stream, msgs, stream1, "round 1")
        out.image_bytes = len(image)
        out.cells_programmed = dev.cells.weight

        # Round-2 search probe on the first blocks, outside the session's timing.
        probe_dev = wk.apply_write(wk.Device.fresh(probe.N1), wk.states_to_memory(states[: probe.n1]))
        self.speed.sample()
        probe_dev, probe_image, pmsgs, before, after = write_round(
            wk, probe, probe_dev, 2, probe_stream, out, lambda: self.speed.sample_every(SAMPLE_GAP_S))
        for b, (state, msg) in enumerate(zip(after, pmsgs)):
            self.ledger.check(wk.decode_round(state, 2).payload == msg.payload,
                              f"probe block {b} decodes wrong")
        record_search(out, probe, 2, before, after)
        out.digest = hashlib.sha256(image + probe_image).hexdigest()

    # cli_session --------------------------------------------------------------

    def _cli_setup(self, wk, seed):
        spec = self.spec
        params = make_params(wk, spec)
        wk.canonical_spec(spec.n)
        full = wk.FullParams(params, spec.blocks)
        rnd = self.rng(seed)
        inputs = []
        for s in range(spec.pool):
            streams = []
            for j in range(1, spec.t + 1):
                stream = random_stream(wk, rnd, full.round_capacity(j))
                path = os.path.join(self.workdir, f"{spec.name}-s{s}-r{j}.hex")
                with open(path, "w", encoding="ascii") as handle:
                    handle.write(stream_hex(stream) + "\n")
                streams.append((stream, path))
            inputs.append((full, os.path.join(self.workdir, f"{spec.name}-s{s}.wom"), streams))
        return inputs

    def cli(self, out: Session, command: str, *args: str) -> subprocess.CompletedProcess:
        argv = [sys.executable, "-m", "womkit.cli", command, *args]
        t0 = clock()
        proc = subprocess.run(argv, cwd=self.workdir, env=cli_env(), capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        wall = clock() - t0
        out.cli_walls.setdefault(command, []).append(wall)
        self.speed.sample()
        ok = self.ledger.check(proc.returncode == 0,
                               f"womkit {command} exited {proc.returncode}: {proc.stderr.strip()}")
        if not ok:
            out.cli_nonzero += 1
            raise Aborted(command)
        return proc

    def _cli_session(self, wk, inp, out: Session):
        spec = self.spec
        full, img, streams = inp
        for stale in (img, img + ".lock"):
            if os.path.exists(stale):
                os.remove(stale)
        p = full.block
        t0 = clock()
        self.cli(out, "init", "--out", img, "--t", str(p.t), "--n", str(p.n), "--m", str(p.m),
                 "--l", str(p.l), "--k", ",".join(map(str, p.k)), "--p", ",".join(spec.p),
                 "--blocks", str(full.n1))
        images = []
        for j, (stream, path) in enumerate(streams, start=1):
            self.cli(out, "write", "--img", img, "--round", str(j), "--in", path)
            out.write_bits += full.round_capacity(j)
            with open(img, "rb") as handle:
                images.append(handle.read())
            proc = self.cli(out, "read", "--img", img)
            out.read_bits += full.round_capacity(j)
            fields = dict(line.split("=", 1) for line in proc.stdout.split())
            self.ledger.check(fields.get("payload") == stream_hex(stream),
                              f"womkit read round {j}: payload differs from the input")
        self.ledger.check(not os.path.exists(img + ".lock"), "womkit write left a lock file")
        t1 = clock()
        walls = out.cli_walls
        out.session = Timed(sum(sum(w) for w in walls.values()), t0, t1)
        out.write = Timed(sum(walls["write"]), t0, t1)
        out.reads.append(Timed(sum(walls["read"]), t0, t1))

        # Replay the session in-process: same images, and per-block search times.
        dev = wk.Device.fresh(full.N1)
        for j, (stream, _) in enumerate(streams, start=1):
            dev, image, msgs, before, after = write_round(
                wk, full, dev, j, stream, out, lambda: self.speed.sample_every(SAMPLE_GAP_S))
            if j >= 2:
                record_search(out, full, j, before, after)
            got, got_stream = read_round(wk, full, image)
            check_read(self.ledger, got, got_stream, msgs, stream, f"replay round {j}")
            self.ledger.check(image == images[j - 1], f"round {j}: CLI image differs from library image")
        out.digest = hashlib.sha256(images[-1]).hexdigest()
        out.image_bytes = len(images[-1])
        out.cells_programmed = dev.cells.weight


def stream_hex(stream) -> str:
    return stream.bits.to_bytes((stream.length + 7) // 8, "little").hex()


def src_dir() -> str:
    return os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir()
    return env
