"""Strict write-once memory and its on-disk image format.

The device is the independent safety layer: every write must dominate the
current contents coordinatewise or it is rejected, so a codec bug cannot
silently clear a programmed cell.

Images are text files with LF newlines:

    WOMIMG 1
    t=<int> n=<int> m=<int> l=<int>
    k=<int>,<int>,...          k_2..k_t, empty after "k=" when t = 1
    p=<num>/<den>,...          t exact rationals, the last one 1/2
    round=<int>
    header=<hex>               then data0..data{m-1}, then side0..side{t-2}
    crc32=<8 hex digits>       over every byte before this line

Multi-block images repeat the header/data/side group once per block, each
group preceded by a `block=<i>` line (single-block images omit the
delimiter). Hex packs bits little-endian within bytes: bit index 0 is the
least significant bit of the first byte.

Saving and loading split the memory into blocks, or join blocks back,
through one byte string rather than shifting the whole memory once per
line, so both cost time linear in the block count. Both work slot by slot
(`header`, `data<i>`, `side<j>`) and handle each distinct value of a slot
once per call: saving formats it once. Loading reads every line through
one checked reader, `_take`, and reuses a slot's value wherever that exact
line text appears again in the same slot.
"""

from __future__ import annotations

import binascii
from dataclasses import dataclass

from .bitwords import BitWord, _join_fields, _split_fields
from .capacity import WeightVector, WomParams, parse_densities

MAGIC = b"WOMIMG 1"


class WriteOnceViolation(Exception):
    """A write tried to clear a programmed cell; `index` is the lowest one."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class ImageFormatError(ValueError):
    """Base class for image parse failures."""


class BadMagic(ImageFormatError):
    """The file does not start with the image magic line."""


class TruncatedImage(ImageFormatError):
    """The file ends before all declared regions (or the trailer) appear."""


class ChecksumMismatch(ImageFormatError):
    """The CRC32 trailer does not match the file contents."""


class MalformedImage(ImageFormatError):
    """A line is present but does not parse."""


@dataclass(frozen=True, slots=True)
class Device:
    """Write-once memory of fixed size."""

    cells: BitWord

    @classmethod
    def fresh(cls, nbits: int) -> "Device":
        return cls(BitWord.zeros(nbits))


def apply_write(dev: Device, new_state: BitWord) -> Device:
    """Replace the memory contents; rejects any 1 -> 0 transition."""
    if new_state.length != dev.cells.length:
        raise ValueError(
            f"write has {new_state.length} bits, device has {dev.cells.length}"
        )
    cleared = dev.cells.bits & ~new_state.bits
    if cleared:
        index = (cleared & -cleared).bit_length() - 1
        raise WriteOnceViolation(f"write clears programmed cell {index}", index)
    return Device(new_state)


def _bits_to_hex(bits: int, length: int) -> str:
    return bits.to_bytes((length + 7) // 8, "little").hex()


def _hex_to_bits(text: str, length: int) -> int:
    nbytes = (length + 7) // 8
    if len(text) != 2 * nbytes:
        raise MalformedImage(f"expected {2 * nbytes} hex digits for {length} bits, got {len(text)}")
    try:
        raw = bytes.fromhex(text)
    except ValueError as exc:
        raise MalformedImage(f"bad hex payload: {text!r}") from exc
    bits = int.from_bytes(raw, "little")
    if bits >> length:
        raise MalformedImage("padding bits beyond the region length are set")
    return bits


def _slots(params: WomParams) -> list[tuple[str, int, int]]:
    """(key, bit length, offset in the block) of each line of a block group, in order."""
    return (
        [("header", params.t, 0)]
        + [(f"data{i}", params.n, params.data_offset(i)) for i in range(params.m)]
        + [(f"side{j}", 2 * params.n, params.side_offset(j)) for j in range(params.t - 1)]
    )


def save_image(dev: Device, params: WomParams, round_: int) -> bytes:
    """Serialize the device; the block count is the device size / block size."""
    n1, rem = divmod(dev.cells.length, params.n0)
    if rem != 0 or n1 < 1:
        raise ValueError(
            f"device size {dev.cells.length} is not a positive multiple of block size {params.n0}"
        )
    if not 0 <= round_ <= params.t:
        raise ValueError(f"round {round_} out of range 0..{params.t}")
    lines = [
        MAGIC.decode(),
        f"t={params.t} n={params.n} m={params.m} l={params.l}",
        "k=" + ",".join(str(kj) for kj in params.k),
        "p=" + ",".join(f"{x.numerator}/{x.denominator}" for x in params.p.p),
        f"round={round_}",
    ]
    # Each slot formats each distinct value once: slot -> {value: line}.
    slots = [(key, length, offset, (1 << length) - 1, {}) for key, length, offset in _slots(params)]
    for block, bits in enumerate(_split_fields(dev.cells.bits, params.n0, n1)):
        if n1 > 1:
            lines.append(f"block={block}")
        for key, length, offset, mask, seen in slots:
            value = bits >> offset & mask
            line = seen.get(value)
            if line is None:
                line = seen[value] = f"{key}=" + _bits_to_hex(value, length)
            lines.append(line)
    body = "\n".join(lines).encode() + b"\n"
    return body + f"crc32={binascii.crc32(body):08x}\n".encode()


def _take(lines: list[str], pos: int, key: str) -> str:
    """The text after `key=` on line pos, which must exist and start with it."""
    if pos >= len(lines):
        raise TruncatedImage(f"file ends where {key}= was expected")
    line = lines[pos]
    if not line.startswith(key + "="):
        raise MalformedImage(f"expected {key}=..., found {line!r}")
    return line[len(key) + 1 :]


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise MalformedImage(f"bad {what}: {text!r}") from exc


def load_image(data: bytes) -> tuple[Device, WomParams, int]:
    """Parse image bytes back into a device, its parameters, and the round."""
    if not data.startswith(MAGIC + b"\n"):
        raise BadMagic("not a memory image (bad magic line)")
    if not data.endswith(b"\n"):
        raise TruncatedImage("file does not end with a newline")
    split = data.rfind(b"\ncrc32=")
    if split < 0:
        raise TruncatedImage("missing crc32 trailer")
    covered = data[: split + 1]
    trailer = data[split + 1 : -1].decode("ascii", errors="replace")
    digits = trailer[len("crc32=") :]
    if len(digits) != 8 or any(c not in "0123456789abcdef" for c in digits):
        raise MalformedImage(f"bad crc32 trailer: {trailer!r}")
    if int(digits, 16) != binascii.crc32(covered):
        raise ChecksumMismatch("crc32 mismatch: image bytes were altered")

    try:
        text = covered.decode("ascii")
    except UnicodeDecodeError as exc:
        raise MalformedImage("image is not ASCII text") from exc
    lines = text.split("\n")[:-1]  # lines[0] is the magic line, already checked

    fields = _take(lines, 1, "t").split()
    if len(fields) != 4:
        raise MalformedImage("parameter line must hold t= n= m= l=")
    t = _parse_int(fields[0], "t")
    values = {}
    for part, key in zip(fields[1:], ("n", "m", "l")):
        if not part.startswith(key + "="):
            raise MalformedImage(f"expected {key}= in parameter line, found {part!r}")
        values[key] = _parse_int(part[len(key) + 1 :], key)

    k_text = _take(lines, 2, "k")
    k = tuple(_parse_int(x, "k entry") for x in k_text.split(",")) if k_text else ()
    p_text = _take(lines, 3, "p")
    try:
        densities = parse_densities(p_text)
    except ValueError as exc:
        raise MalformedImage(str(exc)) from exc
    try:
        params = WomParams(t=t, n=values["n"], m=values["m"], l=values["l"], k=k, p=WeightVector(densities))
    except ValueError as exc:
        raise MalformedImage(f"inconsistent parameters: {exc}") from exc

    round_ = _parse_int(_take(lines, 4, "round"), "round")
    if not 0 <= round_ <= params.t:
        raise MalformedImage(f"round {round_} out of range 0..{params.t}")

    # Each slot parses each distinct line once: slot -> {line: value << offset}.
    # Only a line text that already parsed in this slot is taken from the
    # memo; any other line, a canonical block label aside, gets every check.
    slots = [(key, length, offset, {}) for key, length, offset in _slots(params)]
    pos, end = 5, len(lines)
    delimited = pos < end and lines[pos].startswith("block=")
    blocks = []
    while True:
        if delimited:
            if pos == end:
                break
            if lines[pos] != f"block={len(blocks)}":
                label = _parse_int(_take(lines, pos, "block"), "block index")
                if label != len(blocks):
                    raise MalformedImage(f"expected block={len(blocks)}, found block={label}")
            pos += 1
        bits = 0
        for key, length, offset, seen in slots:
            line = lines[pos] if pos < end else None
            value = seen.get(line)
            if value is None:
                value = seen[line] = _hex_to_bits(_take(lines, pos, key), length) << offset
            bits |= value
            pos += 1
        blocks.append(bits)
        if not delimited:
            break
    if pos < end:
        raise MalformedImage(f"unexpected trailing line: {lines[pos]!r}")

    cells = BitWord(len(blocks) * params.n0, _join_fields(blocks, params.n0))
    return Device(cells), params, round_
