"""Reference implementations of the round-1 and image layers.

These are the straightforward bodies of `full_codec.pack_messages`,
`unpack_messages`, `states_to_memory`, `memory_to_states` and
`wom_device.save_image`, `load_image`: each shifts or ORs the whole image
integer once per field, so they cost time quadratic in the block count,
and each builds, formats or parses every block and line anew. The library
versions split and join fields through one byte string and share equal
words, blocks and lines instead. The image helpers (`_LineReader`,
`_hex_to_bits`, `_bits_to_hex`, `_parse_int`), `subset_rank`,
`subset_unrank` and the checks of `BlockState(...)` (the rule of
`block_codec.check_block`) are kept here in their own words, so the oracles
do not follow the library's internals. `memory_to_states` checks each
unary header, builds its states through the public constructor and names
the first block it rejects. `unpack_messages` refuses a round-1 rank that
is no int and, as the encoder does, a round-j word whose value fits but
whose length is not the round's payload width. `save_image` refuses a
round that is no int and a block header that is not the round's unary
counter. `load_image` takes
only the text `save_image` writes: the same parameter and round lines,
exact block labels (none in a one-block image) and lower case hex. Tests
require bit-identical results, byte-identical images and the same
exceptions from both.
"""

from __future__ import annotations

import binascii
from fractions import Fraction
from math import comb
from typing import Sequence

from womkit.bitwords import BitWord
from womkit.block_codec import BlockState, RoundMessage
from womkit.capacity import WeightVector, WomParams
from womkit.full_codec import FullParams
from womkit.wom_device import (
    MAGIC,
    BadMagic,
    ChecksumMismatch,
    Device,
    MalformedImage,
    TruncatedImage,
)


def subset_rank(word: BitWord, weight: int) -> int:
    """Colexicographic rank of a weight-`weight` word among all such words."""
    if word.weight != weight:
        raise ValueError(f"word has weight {word.weight}, expected {weight}")
    return sum(comb(c, j + 1) for j, c in enumerate(word.support()))


def subset_unrank(rank: int, length: int, weight: int) -> BitWord:
    """Inverse of subset_rank: the weight-`weight` word of given colex rank."""
    if not 0 <= weight <= length:
        raise ValueError(f"weight {weight} out of range for length {length}")
    total = comb(length, weight)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} out of range, expected 0..{total - 1}")
    bits = 0
    c = length - 1
    for j in range(weight, 0, -1):
        while comb(c, j) > rank:
            c -= 1
        bits |= 1 << c
        rank -= comb(c, j)
    return BitWord(length, bits)


def check_block_state(params: WomParams, r, data, sides) -> tuple[tuple, tuple]:
    """The checks of BlockState(...); returns data and sides as tuples."""
    data = tuple(data)
    sides = tuple(sides)
    p = params
    if not isinstance(r, int) or isinstance(r, bool) or r < 0 or r > p.t:
        raise ValueError(f"round {r!r} is not an int in 0..{p.t}")
    if len(data) != p.m or any(d.length != p.n for d in data):
        raise ValueError(f"expected {p.m} data words of {p.n} bits")
    if len(sides) != p.t - 1 or any(s.length != 2 * p.n for s in sides):
        raise ValueError(f"expected {p.t - 1} side words of {2 * p.n} bits")
    # after round r: weight B_1 exactly at r = 1, none at r = 0; later rounds only
    # set cells, so from r = 2 on a word keeps at least B_1 and spends at most B_r
    limit = (0,) + p.budgets
    for i, d in enumerate(data):
        if r == 1 and d.weight != limit[1]:
            raise ValueError(f"data word {i} has weight {d.weight}, expected round-1 weight {limit[1]}")
        if r >= 2 and d.weight < limit[1]:
            raise ValueError(f"data word {i} has weight {d.weight}, below round-1 weight {limit[1]}")
        if d.weight > limit[r]:
            raise ValueError(f"data word {i} has weight {d.weight}, above round-{r} budget {limit[r]}")
    # side word s holds round s + 2's map a | b << n
    for s, side in enumerate(sides):
        written = s + 2 <= r
        b = side.bits >> p.n
        if written and b >= 1 << p.payload_bits(s + 2):
            raise ValueError(f"side word {s} holds b = {b}, wider than {p.payload_bits(s + 2)} bits")
        if not written and side.bits != 0:
            raise ValueError(f"side word {s} is set, but round {s + 2} is not written")
    return data, sides


def _bits_to_hex(bits: int, length: int) -> str:
    return bits.to_bytes((length + 7) // 8, "little").hex()


def _hex_to_bits(text: str, length: int) -> int:
    nbytes = (length + 7) // 8
    if len(text) != 2 * nbytes:
        raise MalformedImage(f"expected {2 * nbytes} hex digits for {length} bits, got {len(text)}")
    if any(c not in "0123456789abcdef" for c in text):  # lower case only, as saved
        raise MalformedImage(f"bad hex payload: {text!r}")
    bits = int.from_bytes(bytes.fromhex(text), "little")
    if bits >> length:
        raise MalformedImage("padding bits beyond the region length are set")
    return bits


class _LineReader:
    def __init__(self, lines: list[str]):
        self.lines = lines
        self.pos = 0

    def peek(self) -> str | None:
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def take(self, key: str) -> str:
        line = self.peek()
        if line is None:
            raise TruncatedImage(f"file ends where {key}= was expected")
        if not line.startswith(key + "="):
            raise MalformedImage(f"expected {key}=..., found {line!r}")
        self.pos += 1
        return line[len(key) + 1 :]


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise MalformedImage(f"bad {what}: {text!r}") from exc


def _read_bits(stream: BitWord, offset: int, width: int) -> int:
    return (stream.bits >> offset) & ((1 << width) - 1)


def pack_messages(stream: BitWord, j: int, params: FullParams) -> list[RoundMessage]:
    width = params.block.payload_bits(j)
    needed = params.round_capacity(j)
    if stream.length < needed:
        raise ValueError(f"stream has {stream.length} bits, round {j} needs {needed}")
    out = []
    offset = 0
    for _ in range(params.n1):
        payload = []
        for _ in range(params.block.m):
            value = _read_bits(stream, offset, width)
            offset += width
            payload.append(value if j == 1 else BitWord(width, value))
        out.append(RoundMessage(j, tuple(payload)))
    return out


def unpack_messages(msgs: Sequence[RoundMessage], params: FullParams) -> BitWord:
    if len(msgs) != params.n1:
        raise ValueError(f"{len(msgs)} messages for {params.n1} blocks")
    rounds = {m.round for m in msgs}
    if len(rounds) != 1:
        raise ValueError(f"messages disagree on the round: {sorted(rounds)}")
    j = rounds.pop()
    width = params.block.payload_bits(j)
    bits = 0
    offset = 0
    for block, msg in enumerate(msgs):
        if len(msg.payload) != params.block.m:
            raise ValueError(f"payload has {len(msg.payload)} entries, expected {params.block.m}")
        for word, entry in enumerate(msg.payload):
            if j == 1 and not isinstance(entry, int):
                raise ValueError(f"block {block} word {word}: rank {entry!r} is not an int")
            value = entry if j == 1 else entry.bits
            if value >> width:
                raise ValueError(f"block {block} word {word}: payload value {value} does not fit in {width} bits")
            if j != 1 and entry.length != width:
                raise ValueError(f"block {block} word {word}: message has {entry.length} bits, expected {width}")
            bits |= value << offset
            offset += width
    return BitWord(offset, bits)


def states_to_memory(states: Sequence[BlockState]) -> BitWord:
    if not states:
        raise ValueError("need at least one block")
    p = states[0].params
    if any(s.params != p for s in states):
        raise ValueError("blocks disagree on parameters")
    memory = 0
    for i, state in enumerate(states):
        base = i * p.n0
        memory |= ((1 << state.round) - 1) << base  # the round as a unary header
        for d, word in enumerate(state.data):
            memory |= word.bits << (base + p.data_offset(d))
        for s, word in enumerate(state.sides):
            memory |= word.bits << (base + p.side_offset(s))
    return BitWord(len(states) * p.n0, memory)


def memory_to_states(memory: BitWord, params: FullParams) -> list[BlockState]:
    if memory.length != params.N1:
        raise ValueError(f"memory has {memory.length} bits, expected {params.N1}")
    p = params.block
    out = []
    for i in range(params.n1):
        base = i * p.n0
        grab = lambda off, length: BitWord(length, (memory.bits >> (base + off)) & ((1 << length) - 1))
        try:
            header = grab(0, p.t).bits
            if header != (1 << header.bit_length()) - 1:
                raise ValueError(f"header 0b{header:b} is not a unary round counter")
            state = BlockState(
                params=p,
                round=header.bit_length(),
                data=tuple(grab(p.data_offset(d), p.n) for d in range(p.m)),
                sides=tuple(grab(p.side_offset(s), 2 * p.n) for s in range(p.t - 1)),
            )
        except ValueError as exc:
            raise ValueError(f"block {i}: {exc}") from None
        out.append(state)
    return out


def save_image(dev: Device, params: WomParams, round_: int) -> bytes:
    n1, rem = divmod(dev.cells.length, params.n0)
    if rem != 0 or n1 < 1:
        raise ValueError(
            f"device size {dev.cells.length} is not a positive multiple of block size {params.n0}"
        )
    if not isinstance(round_, int) or isinstance(round_, bool):
        raise ValueError(f"round {round_!r} is not an int")
    if not 0 <= round_ <= params.t:
        raise ValueError(f"round {round_} out of range 0..{params.t}")
    lines = [
        MAGIC.decode(),
        f"t={params.t} n={params.n} m={params.m} l={params.l}",
        "k=" + ",".join(str(kj) for kj in params.k),
        "p=" + ",".join(f"{x.numerator}/{x.denominator}" for x in params.p.p),
        f"round={round_}",
    ]
    memory = dev.cells.bits
    for block in range(n1):
        if n1 > 1:
            lines.append(f"block={block}")
        base = block * params.n0
        header = (memory >> base) & ((1 << params.t) - 1)
        if header != (1 << round_) - 1:  # only images load_image takes
            raise ValueError(f"block {block} header 0b{header:b} disagrees with round={round_}")
        region = lambda off, length: _bits_to_hex((memory >> (base + off)) & ((1 << length) - 1), length)
        lines.append("header=" + region(0, params.t))
        for i in range(params.m):
            lines.append(f"data{i}=" + region(params.data_offset(i), params.n))
        for j in range(params.t - 1):
            lines.append(f"side{j}=" + region(params.side_offset(j), 2 * params.n))
    body = "\n".join(lines).encode() + b"\n"
    return body + f"crc32={binascii.crc32(body):08x}\n".encode()


def load_image(data: bytes) -> tuple[Device, WomParams, int]:
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
    reader = _LineReader(text.split("\n")[:-1])
    reader.pos = 1  # magic line already checked

    fields = reader.take("t").split()
    if len(fields) != 4:
        raise MalformedImage("parameter line must hold t= n= m= l=")
    t = _parse_int(fields[0], "t")
    values = {}
    for part, key in zip(fields[1:], ("n", "m", "l")):
        if not part.startswith(key + "="):
            raise MalformedImage(f"expected {key}= in parameter line, found {part!r}")
        values[key] = _parse_int(part[len(key) + 1 :], key)

    k_text = reader.take("k")
    k = tuple(_parse_int(x, "k entry") for x in k_text.split(",")) if k_text else ()
    p_entries = []
    for part in reader.take("p").split(","):
        num, sep, den = part.partition("/")
        if not sep:
            raise MalformedImage(f"density {part!r} is not a num/den rational")
        try:
            p_entries.append(Fraction(_parse_int(num, "density"), _parse_int(den, "density")))
        except ZeroDivisionError as exc:
            raise MalformedImage(f"density {part!r} has a zero denominator") from exc
    try:
        params = WomParams(t=t, n=values["n"], m=values["m"], l=values["l"], k=k, p=WeightVector(p_entries))
    except ValueError as exc:
        raise MalformedImage(f"inconsistent parameters: {exc}") from exc

    round_ = _parse_int(reader.take("round"), "round")
    if not 0 <= round_ <= params.t:
        raise MalformedImage(f"round {round_} out of range 0..{params.t}")
    # only the text save_image writes for these values: one image, one text
    written = [
        f"t={t} n={values['n']} m={values['m']} l={values['l']}",
        "k=" + ",".join(str(kj) for kj in k),
        "p=" + ",".join(f"{x.numerator}/{x.denominator}" for x in p_entries),
        f"round={round_}",
    ]
    for line, want in zip(reader.lines[1:5], written):
        if line != want:
            raise MalformedImage(f"expected {want!r}, found {line!r}")

    # a one-block image has no block= line: one labelled group is refused
    group = params.m + params.t  # header, data and side lines
    delimited = len(reader.lines) - reader.pos > group + 1 and reader.peek().startswith("block=")
    memory = 0
    block = 0
    while True:
        if delimited:
            if reader.peek() is None:
                break
            if reader.peek() != f"block={block}":  # the exact label only
                raise MalformedImage(f"expected block={block}, found {reader.peek()!r}")
            reader.pos += 1
        base = block * params.n0
        header = _hex_to_bits(reader.take("header"), params.t)
        if header != (1 << round_) - 1:
            raise MalformedImage(f"block {block} header 0b{header:b} disagrees with round={round_}")
        memory |= header << base
        for i in range(params.m):
            memory |= _hex_to_bits(reader.take(f"data{i}"), params.n) << (base + params.data_offset(i))
        for j in range(params.t - 1):
            memory |= _hex_to_bits(reader.take(f"side{j}"), 2 * params.n) << (base + params.side_offset(j))
        block += 1
        if not delimited:
            break
    if reader.peek() is not None:
        raise MalformedImage(f"unexpected trailing line: {reader.peek()!r}")

    cells = BitWord(block * params.n0, memory)
    return Device(cells), params, round_
