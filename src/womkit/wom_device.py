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
group preceded by a `block=<i>` line (a single-block image has no such
line). Hex packs bits little-endian within bytes: bit index 0 is the
least significant bit of the first byte. The header is the block's round r
as a t-bit unary counter, (1 << r) - 1; `save_image` refuses any other
header, so every image it writes loads. An image loads only in the text
`save_image` writes (the lines of `_preamble`, exact block labels, lower
case hex), so a loaded image saves back to the same bytes.

Saving and loading split the memory into blocks, or join blocks back,
through one byte string rather than shifting the whole memory once per
line, so both cost time linear in the block count. Both work slot by slot
(`header`, `data<i>`, `side<j>`) and handle each distinct value of a slot
once per call: saving formats it once. Loading streams the image's lines
from the caller's bytes and copies nothing of the image: the CRC runs over
a memoryview, and only the preamble lines and lines that need parsing or
an error message become text. Every line goes through one checked reader,
`_take`, and a slot's value is reused wherever that exact line appears
again in the same slot, so loading keeps one memo entry per distinct line
per slot plus one int per block. Every block's header must be the
unary counter of the `round=` line; each distinct header line is checked
once, when it is first parsed.
"""

from __future__ import annotations

import binascii
import io
from dataclasses import dataclass
from itertools import islice

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
    if text.strip("0123456789abcdef"):  # lower case hex only, as save_image writes it
        raise MalformedImage(f"bad hex payload: {text!r}")
    bits = int.from_bytes(bytes.fromhex(text), "little")
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


def _preamble(params: WomParams, round_: int) -> list[str]:
    """The parameter and round lines of an image, as save_image writes them and load_image requires."""
    return [
        f"t={params.t} n={params.n} m={params.m} l={params.l}",
        "k=" + ",".join(str(kj) for kj in params.k),
        "p=" + ",".join(f"{x.numerator}/{x.denominator}" for x in params.p.p),
        f"round={round_}",
    ]


def save_image(dev: Device, params: WomParams, round_: int) -> bytes:
    """Serialize the device; the block count is the device size / block size."""
    n1, rem = divmod(dev.cells.length, params.n0)
    if rem != 0 or n1 < 1:
        raise ValueError(
            f"device size {dev.cells.length} is not a positive multiple of block size {params.n0}"
        )
    if type(round_) is not int:
        raise ValueError(f"round {round_!r} is not an int")
    if not 0 <= round_ <= params.t:
        raise ValueError(f"round {round_} out of range 0..{params.t}")
    lines = [MAGIC.decode(), *_preamble(params, round_)]
    # Each slot formats each distinct value once: slot -> {value: line}. A
    # header must be the unary counter of the round, as load_image requires.
    header = (1 << round_) - 1
    slots = [(key, length, offset, (1 << length) - 1, {}) for key, length, offset in _slots(params)]
    for block, bits in enumerate(_split_fields(dev.cells.bits, params.n0, n1)):
        if n1 > 1:
            lines.append(f"block={block}")
        for key, length, offset, mask, seen in slots:
            value = bits >> offset & mask
            line = seen.get(value)
            if line is None:
                if key == "header" and value != header:
                    raise ValueError(f"block {block} header 0b{value:b} disagrees with round={round_}")
                line = seen[value] = f"{key}=" + _bits_to_hex(value, length)
            lines.append(line)
    body = "\n".join(lines).encode() + b"\n"
    return body + f"crc32={binascii.crc32(body):08x}\n".encode()


def _text(line: bytes) -> str:
    """An image line without its newline, as text (load_image reads lines once the image is known ASCII)."""
    return line[:-1].decode()


def _take(line: bytes | None, prefix: str) -> str:
    """The text after prefix (`key=`) on an image line, which must exist (not None) and start with it."""
    if line is None:
        raise TruncatedImage(f"file ends where {prefix} was expected")
    text = line.decode()
    if not text.startswith(prefix):
        raise MalformedImage(f"expected {prefix}..., found {text[:-1]!r}")
    return text[len(prefix) : -1]


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
    trailer = data[split + 1 : -1].decode("ascii", errors="replace")
    digits = trailer[len("crc32=") :]
    if len(digits) != 8 or any(c not in "0123456789abcdef" for c in digits):
        raise MalformedImage(f"bad crc32 trailer: {trailer!r}")
    if int(digits, 16) != binascii.crc32(memoryview(data)[: split + 1]):
        raise ChecksumMismatch("crc32 mismatch: image bytes were altered")
    if not data.isascii():  # the trailer is ASCII once it parsed
        raise MalformedImage("image is not ASCII text")

    # The lines before the CRC line, one at a time with their newlines:
    # BytesIO shares the buffer of a bytes object, so nothing is copied.
    count = data.count(b"\n", 0, split + 1)
    stream = io.BytesIO(data)
    lines = islice(stream, count)
    next(lines)  # the magic line, already checked
    head = [next(lines, None) for _ in range(4)]  # t=, k=, p=, round=

    fields = _take(head[0], "t=").split()
    if len(fields) != 4:
        raise MalformedImage("parameter line must hold t= n= m= l=")
    t = _parse_int(fields[0], "t")
    values = {}
    for part, key in zip(fields[1:], ("n", "m", "l")):
        if not part.startswith(key + "="):
            raise MalformedImage(f"expected {key}= in parameter line, found {part!r}")
        values[key] = _parse_int(part[len(key) + 1 :], key)

    k_text = _take(head[1], "k=")
    k = tuple(_parse_int(x, "k entry") for x in k_text.split(",")) if k_text else ()
    p_text = _take(head[2], "p=")
    try:
        densities = parse_densities(p_text)
    except ValueError as exc:
        raise MalformedImage(str(exc)) from exc
    try:
        params = WomParams(t=t, n=values["n"], m=values["m"], l=values["l"], k=k, p=WeightVector(densities))
    except ValueError as exc:
        raise MalformedImage(f"inconsistent parameters: {exc}") from exc

    round_ = _parse_int(_take(head[3], "round="), "round")
    if not 0 <= round_ <= params.t:
        raise MalformedImage(f"round {round_} out of range 0..{params.t}")
    for line, canonical in zip(head, _preamble(params, round_)):
        if _text(line) != canonical:
            raise MalformedImage(f"expected {canonical!r}, found {_text(line)!r}")

    # Each slot parses each distinct line once: slot -> {raw line: value << offset}.
    # Only a line that already parsed in this slot is taken from the memo;
    # any other line gets every check, and a header must be the unary
    # counter of the round line.
    header = (1 << round_) - 1
    slots = [(key + "=", length, offset, {}) for key, length, offset in _slots(params)]
    # block= lines delimit two or more block groups; a one-block image has none.
    delimited = count - 5 > len(slots) + 1 and data.startswith(b"block=", stream.tell())
    blocks = []
    while True:
        if delimited:
            label = next(lines, None)
            if label is None:
                break
            if label != b"block=%d\n" % len(blocks):
                raise MalformedImage(f"expected block={len(blocks)}, found {_text(label)!r}")
        bits = 0
        for prefix, length, offset, seen in slots:
            line = next(lines, None)
            value = seen.get(line)
            if value is None:
                value = _hex_to_bits(_take(line, prefix), length) << offset
                if prefix == "header=" and value != header:
                    raise MalformedImage(f"block {len(blocks)} header 0b{value:b} disagrees with round={round_}")
                seen[line] = value
            bits |= value
        blocks.append(bits)
        if not delimited:
            break
    line = next(lines, None)
    if line is not None:
        raise MalformedImage(f"unexpected trailing line: {_text(line)!r}")

    cells = BitWord(len(blocks) * params.n0, _join_fields(blocks, params.n0))
    return Device(cells), params, round_
