"""Command-line interface: parameter reports, image sessions, and audits.

Exit codes: 0 success, 1 audit or selftest failure, 2 usage or file-format
errors, 3 read before anything was written, 4 round sequencing errors,
5 no encoding exists for the requested round, 6 write-once violation.
Stdout is line-oriented `key=value`; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import fcntl
import os
import sys
import tempfile
from contextlib import contextmanager, nullcontext, suppress
from fractions import Fraction
from math import ceil

from .bitwords import BitWord
from .block_codec import BlockState, NoEncoding, SequencingError, decode_round, in_guaranteed_regime
from .capacity import (
    WeightVector, WomParams, achieved_rate, derivation_constant, derive_parameters, inverse_entropy,
    optimal_point, parse_densities,
)
from .full_codec import (
    FullParams, full_encode_round, memory_to_states, pack_messages, states_to_memory, unpack_messages,
)
from .gf2n import MAX_WIDTH, MIN_WIDTH
from .hashfam import AUDIT_MAX_WIDTH, DISTANCE_MAX_WIDTH, image_fraction_audit, lhl_exact_distance
from .wom_device import Device, ImageFormatError, WriteOnceViolation, apply_write, load_image, save_image

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NOTHING_WRITTEN = 3
EXIT_SEQUENCING = 4
EXIT_NO_ENCODING = 5
EXIT_WRITE_ONCE = 6


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _parse_rates(text: str) -> tuple[float, ...]:
    try:
        rates = tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad rates {text!r}: {exc}") from exc
    if any(r < 0 for r in rates):
        raise ValueError(f"bad rates {text!r}: rates must be nonnegative")
    return rates


def _parse_ints(option: str, text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"{option} must be comma-separated integers, got {text!r}") from None


def _densities_for_rates(rates: tuple[float, ...]) -> WeightVector:
    """Smallest densities supporting each round's rate, final round at 1/2.

    Each density is at most 1/2, so the memory left stays at least 2^-(t-1).
    """
    entries = []
    remaining = 1.0
    for j in range(1, len(rates)):
        target = rates[j - 1] / remaining
        if target > 1 + 1e-9:
            raise ValueError(f"round {j} rate {rates[j - 1]} is not achievable")
        p = inverse_entropy(min(target, 1.0))
        entries.append(Fraction(p))
        remaining *= 1.0 - p
    entries.append(Fraction(1, 2))
    return WeightVector(entries)


def cmd_params(args) -> int:
    if args.rates:
        rates = _parse_rates(args.rates)
        if len(rates) != args.t:
            raise ValueError(f"{len(rates)} rates given for t={args.t}")
        densities = _densities_for_rates(rates)
    else:
        rates, densities = optimal_point(args.t)
    params = derive_parameters(args.epsilon, rates, densities)
    rate = achieved_rate(params)
    print(f"c={derivation_constant(args.epsilon, params.t)}")
    print(f"t={params.t}")
    print(f"n={params.n}")
    print(f"l={params.l}")
    print(f"m={params.m}")
    print("k=" + ",".join(str(kj) for kj in params.k))
    print("budgets=" + ",".join(str(b) for b in params.budgets))
    print(f"N0={params.n0}")
    print(f"sum_rates={sum(rates)!r}")
    print(f"achieved_rate={rate!r}")
    print(f"rate_gap={sum(rates) - rate!r}")
    print(f"scale={'desk' if params.desk_executable else 'analysis'}")
    return EXIT_OK


def _manual_params(args) -> WomParams:
    missing = [name for name in ("n", "m", "l", "p") if getattr(args, name) is None]
    if missing:
        raise ValueError(f"manual parameters need --{', --'.join(missing)}")
    k = _parse_ints("--k", args.k) if args.k else ()
    return WomParams(t=args.t, n=args.n, m=args.m, l=args.l, k=k, p=WeightVector(parse_densities(args.p)))


def _atomic_write(path: str, data: bytes) -> None:
    """Replace path with data through a synced temp file and rename, keeping path's mode, owner and group."""
    directory = os.path.dirname(os.path.abspath(path))
    owner = (-1, -1)  # -1 leaves an id as the temp file has it
    try:
        old = os.stat(path)
        mode, owner = old.st_mode & 0o7777, (old.st_uid, old.st_gid)
    except FileNotFoundError:  # a new file gets open()'s mode: 0o666 less the umask
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".womimg-")  # mode 0o600
    try:
        with os.fdopen(fd, "wb") as handle:
            with suppress(PermissionError):  # only root may give a file away; others write as themselves
                os.fchown(fd, *owner)
            os.fchmod(fd, mode)  # after fchown, which may clear the setuid and setgid bits
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


@contextmanager
def _image_lock(path: str):
    """Hold an exclusive flock on the image itself; a killed writer's lock dies with it.

    Once locked, a path naming another file means a writer replaced the image first.
    """
    with open(path, "rb") as handle:
        try:
            fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise ValueError(f"image {path} is locked by another writer") from None
        if not os.path.samestat(os.stat(path), os.fstat(handle.fileno())):
            raise ValueError(f"image {path} was replaced by another writer")
        yield


def cmd_init(args) -> int:
    if args.blocks < 1:
        raise ValueError(f"--blocks must be at least 1, got {args.blocks}")
    if os.path.exists(args.out) and not args.force:
        raise ValueError(f"{args.out} already exists (use --force to overwrite)")
    params = _manual_params(args)
    if not params.desk_executable:
        raise ValueError(f"n={params.n} is outside the searchable field width {MIN_WIDTH}..{MAX_WIDTH}")
    dev = Device.fresh(args.blocks * params.n0)
    path = os.path.realpath(args.out)  # a symlinked image is replaced at its target, the link kept
    # Overwriting takes the image's lock: a writer that holds it would later
    # rename its own image over this one.
    with _image_lock(path) if os.path.exists(path) else nullcontext():
        _atomic_write(path, save_image(dev, params, 0))
    print(f"image={args.out}")
    print(f"blocks={args.blocks}")
    print(f"N0={params.n0}")
    print(f"total_bits={dev.cells.length}")
    return EXIT_OK


def _load_session(path: str) -> tuple[Device, FullParams, int, list[BlockState], BitWord | None]:
    """Device, parameters, round, states and the stream the round holds (None at round 0).

    Write decodes here as read does, so it refuses every image read refuses, with the same text.
    """
    with open(path, "rb") as handle:
        dev, params, round_ = load_image(handle.read())
    full = FullParams(params, dev.cells.length // params.n0)
    states = memory_to_states(dev.cells, full)
    stream = unpack_messages([decode_round(state, round_) for state in states], full) if round_ else None
    return dev, full, round_, states, stream


def _read_message_file(path: str) -> BitWord:
    with open(path, "r", encoding="ascii") as handle:
        text = "".join(handle.read().split())
    try:
        raw = bytes.fromhex(text)
    except ValueError as exc:
        raise ValueError(f"message file {path} is not a hex bitstream: {exc}") from exc
    return BitWord(8 * len(raw), int.from_bytes(raw, "little"))


def cmd_write(args) -> int:
    path = os.path.realpath(args.img)  # a symlinked image is replaced at its target, the link kept
    with _image_lock(path):
        dev, full, current, states, _ = _load_session(path)
        if args.blocks is not None and args.blocks != full.n1:
            raise ValueError(f"image holds {full.n1} block(s), not {args.blocks}")
        if not 1 <= args.round <= full.block.t:
            raise ValueError(f"round {args.round} out of range 1..{full.block.t}")
        if args.round != current + 1:
            raise SequencingError(f"image holds {current} round(s); the next write must be round {current + 1}")
        stream = _read_message_file(args.infile)
        msgs = pack_messages(stream, args.round, full)
        regime = "exact"
        if args.round >= 2:
            guaranteed = all(in_guaranteed_regime(full.block, args.round, state.data) for state in states)
            regime = "guaranteed" if guaranteed else "empirical"
        new_states = full_encode_round(states, msgs)
        dev = apply_write(dev, states_to_memory(new_states))
        _atomic_write(path, save_image(dev, full.block, args.round))
    print(f"round={args.round}")
    print(f"blocks={full.n1}")
    print(f"regime={regime}")
    print(f"consumed_bits={full.round_capacity(args.round)}")
    return EXIT_OK


def cmd_read(args) -> int:
    _, _, current, _, stream = _load_session(args.img)
    if current == 0:
        _fail("image holds no written rounds yet")
        return EXIT_NOTHING_WRITTEN
    if args.round not in (None, current):
        raise ValueError(f"only the most recent round ({current}) is decodable")
    payload = stream.bits.to_bytes(ceil(stream.length / 8) if stream.length else 0, "little")
    print(f"round={current}")
    print(f"bits={stream.length}")
    print(f"payload={payload.hex()}")
    return EXIT_OK


def cmd_audit_hash(args) -> int:
    import random

    if not 2 <= args.n <= AUDIT_MAX_WIDTH:
        raise ValueError(f"audit width must be in 2..{AUDIT_MAX_WIDTH}, got {args.n}")
    if not 0 <= args.l <= args.k <= args.n:
        raise ValueError(f"need 0 <= l <= k <= n, got l={args.l} k={args.k} n={args.n}")
    if args.trials < 1:
        raise ValueError("need at least one trial set")
    rnd = random.Random(args.seed)
    sets = [rnd.sample(range(1 << args.n), 1 << args.k) for _ in range(args.trials)]
    worst = image_fraction_audit(args.n, args.k, args.l, sets)
    image_bound = 2.0 ** (-args.l / 4)
    ok = worst <= image_bound
    print(f"image_audit_worst={worst!r}")
    print(f"image_audit_bound={image_bound!r}")
    print(f"image_audit={'PASS' if ok else 'FAIL'}")
    if args.n <= DISTANCE_MAX_WIDTH:
        distance_bound = 2.0 ** (-args.l / 2)
        worst_distance = max(lhl_exact_distance(args.n, args.k, args.l, y) for y in sets)
        distance_ok = worst_distance <= distance_bound
        print(f"distance_worst={worst_distance!r}")
        print(f"distance_bound={distance_bound!r}")
        print(f"distance_audit={'PASS' if distance_ok else 'FAIL'}")
        ok = ok and distance_ok
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_selftest(args) -> int:
    from . import selftest  # only this command runs the suite, so only it compiles it

    numbers = _parse_ints("--only", args.only) if args.only else None
    results = selftest.run_all(numbers)
    for _, line in results:
        print(line)
    return EXIT_OK if all(passed for passed, _ in results) else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="womkit",
        description="Multi-round write-once memory codes over GF(2^n).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="derive block parameters from a rate target")
    p.add_argument("--t", type=int, required=True, help="number of write rounds")
    p.add_argument("--epsilon", type=float, required=True, help="rate slack to concede")
    p.add_argument("--rates", help="comma-separated per-round rates (default: optimal point)")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("init", help="create a fresh all-zero image")
    p.add_argument("--out", required=True, help="image path to create")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--n", type=int, help="data word bits")
    p.add_argument("--m", type=int, help="data words per block")
    p.add_argument("--l", type=int, help="hash output slack")
    p.add_argument("--k", help="comma-separated hash sizes k_2..k_t")
    p.add_argument("--p", help="comma-separated densities num/den, last 1/2")
    p.add_argument("--blocks", type=int, default=1, help="independent blocks (default 1)")
    p.add_argument("--force", action="store_true", help="overwrite an existing image")
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("write", help="encode one round from a hex message file")
    p.add_argument("--img", required=True)
    p.add_argument("--round", type=int, required=True)
    p.add_argument("--in", dest="infile", required=True, help="hex bitstream file")
    p.add_argument("--blocks", type=int, help="expected block count (consistency check)")
    p.set_defaults(func=cmd_write)

    p = sub.add_parser("read", help="decode the most recent round to hex")
    p.add_argument("--img", required=True)
    p.add_argument("--round", type=int, help="round to decode (default: current)")
    p.set_defaults(func=cmd_read)

    p = sub.add_parser("audit-hash", help="exhaustive uniformity audits of the hash family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--trials", type=int, required=True, help="random source sets to audit")
    p.add_argument("--seed", type=int, default=20240901, help="sampling seed")
    p.set_defaults(func=cmd_audit_hash)

    p = sub.add_parser("selftest", help="run the built-in acceptance criteria")
    p.add_argument("--only", help="comma-separated criterion numbers (default: all)")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SequencingError as exc:
        _fail(str(exc))
        return EXIT_SEQUENCING
    except NoEncoding as exc:
        _fail(str(exc))
        return EXIT_NO_ENCODING
    except WriteOnceViolation as exc:
        _fail(str(exc))
        return EXIT_WRITE_ONCE
    except (ValueError, ImageFormatError, OSError) as exc:
        _fail(str(exc))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
