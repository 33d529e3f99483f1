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
from contextlib import contextmanager
from fractions import Fraction
from math import ceil

from . import selftest
from .bitwords import BitWord
from .block_codec import BlockState, NoEncoding, SequencingError, decode_round, in_guaranteed_regime
from .capacity import (
    RatePoint,
    WeightVector,
    WomParams,
    achieved_rate,
    derive_parameters,
    inverse_entropy,
    optimal_point,
    parse_densities,
)
from .full_codec import (
    FullParams,
    full_encode_round,
    memory_to_states,
    pack_messages,
    states_to_memory,
    unpack_messages,
)
from .hashfam import AUDIT_MAX_WIDTH, DISTANCE_MAX_WIDTH, image_fraction_audit, lhl_exact_distance
from .wom_device import Device, ImageFormatError, WriteOnceViolation, apply_write, load_image, save_image

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NOTHING_WRITTEN = 3
EXIT_SEQUENCING = 4
EXIT_NO_ENCODING = 5
EXIT_WRITE_ONCE = 6


class NothingWritten(Exception):
    """Read was requested on an image with no completed rounds."""


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _parse_rates(text: str) -> RatePoint:
    try:
        return RatePoint(tuple(float(x) for x in text.split(",")))
    except ValueError as exc:
        raise ValueError(f"bad rates {text!r}: {exc}") from exc


def _densities_for_rates(rates: RatePoint) -> WeightVector:
    """Smallest densities supporting each round's rate, final round at 1/2."""
    entries = []
    remaining = 1.0
    for j in range(1, rates.t):
        if remaining <= 0:
            raise ValueError("earlier rounds consumed the whole memory")
        target = rates.rates[j - 1] / remaining
        if target > 1 + 1e-9:
            raise ValueError(f"round {j} rate {rates.rates[j - 1]} is not achievable")
        p = inverse_entropy(min(target, 1.0))
        entries.append(Fraction(p))
        remaining *= 1.0 - p
    entries.append(Fraction(1, 2))
    return WeightVector(entries)


def _report_params(params: WomParams, rates: RatePoint) -> None:
    rate = achieved_rate(params)
    if params.c is not None:
        print(f"c={params.c}")
    print(f"t={params.t}")
    print(f"n={params.n}")
    print(f"l={params.l}")
    print(f"m={params.m}")
    print("k=" + ",".join(str(kj) for kj in params.k))
    print("budgets=" + ",".join(str(b) for b in params.budgets))
    print(f"N0={params.n0}")
    print(f"sum_rates={rates.total!r}")
    print(f"achieved_rate={rate!r}")
    print(f"rate_gap={rates.total - rate!r}")
    print(f"scale={'desk' if params.desk_executable else 'analysis'}")


def cmd_params(args) -> int:
    if args.rates:
        rates = _parse_rates(args.rates)
        if rates.t != args.t:
            raise ValueError(f"{rates.t} rates given for t={args.t}")
        densities = _densities_for_rates(rates)
    else:
        rates, densities = optimal_point(args.t)
    params = derive_parameters(args.epsilon, args.t, rates, densities)
    _report_params(params, rates)
    return EXIT_OK


def _manual_params(args) -> WomParams:
    missing = [name for name in ("n", "m", "l", "p") if getattr(args, name) is None]
    if missing:
        raise ValueError(f"manual parameters need --{', --'.join(missing)}")
    k_text = args.k or ""
    k = tuple(int(x) for x in k_text.split(",")) if k_text else ()
    return WomParams(t=args.t, n=args.n, m=args.m, l=args.l, k=k, p=WeightVector(parse_densities(args.p)))


def _atomic_write(path: str, data: bytes) -> None:
    """Replace path with data through a synced temp file and rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".womimg-")
    try:
        with os.fdopen(fd, "wb") as handle:
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
    manual = [name for name in ("n", "m", "l", "k", "p") if getattr(args, name) is not None]
    if args.epsilon is not None and manual:
        raise ValueError(f"--epsilon and manual parameters (--{manual[0]}) are exclusive")
    if args.epsilon is not None:
        rates, densities = optimal_point(args.t)
        params = derive_parameters(args.epsilon, args.t, rates, densities)
        if not params.desk_executable:
            raise ValueError(
                f"derived n={params.n} exceeds the searchable field width; "
                "pass manual desk-scale parameters instead"
            )
    else:
        params = _manual_params(args)
        if not params.desk_executable:
            raise ValueError(f"n={params.n} is outside the searchable field width 2..24")
    dev = Device.fresh(args.blocks * params.n0)
    _atomic_write(args.out, save_image(dev, params, 0))
    print(f"image={args.out}")
    print(f"blocks={args.blocks}")
    print(f"N0={params.n0}")
    print(f"total_bits={dev.cells.length}")
    return EXIT_OK


def _load_session(path: str) -> tuple[Device, FullParams, int, list[BlockState]]:
    with open(path, "rb") as handle:
        dev, params, round_ = load_image(handle.read())
    full = FullParams(params, dev.cells.length // params.n0)
    states = memory_to_states(dev.cells, full)
    if any(s.round != round_ for s in states):
        raise ImageFormatError("block headers disagree with the round line")
    return dev, full, round_, states


def _read_message_file(path: str) -> BitWord:
    with open(path, "r", encoding="ascii") as handle:
        text = "".join(handle.read().split())
    try:
        raw = bytes.fromhex(text)
    except ValueError as exc:
        raise ValueError(f"message file {path} is not a hex bitstream: {exc}") from exc
    return BitWord(8 * len(raw), int.from_bytes(raw, "little"))


def cmd_write(args) -> int:
    with _image_lock(args.img):
        dev, full, current, states = _load_session(args.img)
        if args.blocks is not None and args.blocks != full.n1:
            raise ValueError(f"image holds {full.n1} block(s), not {args.blocks}")
        if not 1 <= args.round <= full.block.t:
            raise ValueError(f"round {args.round} out of range 1..{full.block.t}")
        if args.round != current + 1:
            raise SequencingError(
                f"image holds {current} round(s); the next write must be round {current + 1}"
            )
        stream = _read_message_file(args.infile)
        msgs = pack_messages(stream, args.round, full)
        if args.round >= 2:
            guaranteed = all(
                in_guaranteed_regime(full.block, args.round, state.data) for state in states
            )
            regime = "guaranteed" if guaranteed else "empirical"
        else:
            regime = "exact"
        new_states = full_encode_round(states, msgs)
        dev = apply_write(dev, states_to_memory(new_states))
        _atomic_write(args.img, save_image(dev, full.block, args.round))
    print(f"round={args.round}")
    print(f"blocks={full.n1}")
    print(f"regime={regime}")
    print(f"consumed_bits={full.round_capacity(args.round)}")
    return EXIT_OK


def cmd_read(args) -> int:
    _, full, current, states = _load_session(args.img)
    if current == 0:
        raise NothingWritten("image holds no written rounds yet")
    j = current if args.round is None else args.round
    if j != current:
        raise ValueError(f"only the most recent round ({current}) is decodable")
    msgs = [decode_round(state, j) for state in states]
    stream = unpack_messages(msgs, full)
    payload = stream.bits.to_bytes(ceil(stream.length / 8) if stream.length else 0, "little")
    print(f"round={j}")
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
    numbers = None
    if args.only:
        numbers = [int(x) for x in args.only.split(",")]
    results = selftest.run_all(numbers)
    for result in results:
        print(result.line())
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


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
    p.add_argument("--epsilon", type=float, help="derive parameters instead of giving them")
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
    except NothingWritten as exc:
        _fail(str(exc))
        return EXIT_NOTHING_WRITTEN
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
