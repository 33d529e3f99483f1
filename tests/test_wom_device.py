import random
from binascii import crc32
from fractions import Fraction

import pytest

from womkit.bitwords import BitWord
from womkit.block_codec import BlockState, RoundMessage, encode_round, encode_round1
from womkit.capacity import WeightVector, WomParams
from womkit.full_codec import FullParams, full_encode_round, memory_to_states, pack_messages, states_to_memory
from womkit.wom_device import (
    BadMagic,
    ChecksumMismatch,
    Device,
    ImageFormatError,
    MalformedImage,
    TruncatedImage,
    WriteOnceViolation,
    apply_write,
    load_image,
    save_image,
)


def params_t2():
    return WomParams(t=2, n=10, m=4, l=2, k=(7,), p=WeightVector([Fraction(1, 3), Fraction(1, 2)]))


def test_apply_write_accepts_monotone_steps():
    dev = Device.fresh(4)
    dev = apply_write(dev, BitWord(4, 0b0011))
    assert dev == Device(BitWord(4, 0b0011))
    dev = apply_write(dev, BitWord(4, 0b0111))
    assert dev == Device(BitWord(4, 0b0111))
    # rewriting the identical state is accepted and changes nothing
    assert apply_write(dev, BitWord(4, 0b0111)) == dev


def test_apply_write_rejects_cleared_cell():
    dev = apply_write(Device.fresh(4), BitWord(4, 0b0100))
    with pytest.raises(WriteOnceViolation) as err:
        apply_write(dev, BitWord(4, 0b0011))
    assert err.value.index == 2
    with pytest.raises(ValueError):
        apply_write(dev, BitWord(5, 0))


def test_weight_never_decreases_across_session():
    rnd = random.Random(20)
    dev = Device.fresh(32)
    previous = 0
    state = 0
    for _ in range(50):
        state |= rnd.getrandbits(32)
        dev = apply_write(dev, BitWord(32, state))
        assert dev.cells.weight >= previous
        previous = dev.cells.weight


def make_session_image(round_count=2, seed=21):
    params = params_t2()
    rnd = random.Random(seed)
    dev = Device.fresh(params.n0)
    state = BlockState.fresh(params)
    for j in range(1, round_count + 1):
        if j == 1:
            msg = RoundMessage(1, tuple(rnd.randrange(params.round1_space) for _ in range(4)))
            state = encode_round1(state, msg)
        else:
            msg = RoundMessage(j, tuple(BitWord(5, rnd.getrandbits(5)) for _ in range(4)))
            state = encode_round(state, msg)
        dev = apply_write(dev, states_to_memory([state]))
    return dev, params, round_count, state


def test_save_load_round_trip_fresh():
    params = params_t2()
    dev = Device.fresh(params.n0)
    image = save_image(dev, params, 0)
    loaded_dev, loaded_params, loaded_round = load_image(image)
    assert loaded_dev.cells == dev.cells
    assert loaded_params == params
    assert loaded_round == 0
    assert save_image(loaded_dev, loaded_params, loaded_round) == image


def test_save_load_round_trip_mid_session():
    dev, params, round_, state = make_session_image()
    image = save_image(dev, params, round_)
    loaded_dev, loaded_params, loaded_round = load_image(image)
    assert (loaded_dev, loaded_params, loaded_round) == (dev, params, round_)


def test_resumed_session_continues_identically():
    dev, params, _, state = make_session_image(round_count=1, seed=22)
    image = save_image(dev, params, 1)
    loaded_dev, loaded_params, _ = load_image(image)

    msg2 = RoundMessage(2, tuple(BitWord(5, v) for v in (3, 17, 9, 30)))
    direct = apply_write(dev, states_to_memory([encode_round(state, msg2)]))

    from womkit.full_codec import FullParams, memory_to_states

    resumed_state = memory_to_states(loaded_dev.cells, FullParams(loaded_params, 1))[0]
    resumed = apply_write(loaded_dev, states_to_memory([encode_round(resumed_state, msg2)]))
    assert save_image(direct, params, 2) == save_image(resumed, loaded_params, 2)


def test_single_block_format_lines():
    dev, params, round_, _ = make_session_image()
    lines = save_image(dev, params, round_).decode().splitlines()
    assert lines[0] == "WOMIMG 1"
    assert lines[1] == "t=2 n=10 m=4 l=2"
    assert lines[2] == "k=7"
    assert lines[3] == "p=1/3,1/2"
    assert lines[4] == "round=2"
    assert lines[5].startswith("header=")
    assert [l.split("=")[0] for l in lines[6:10]] == ["data0", "data1", "data2", "data3"]
    assert lines[10].startswith("side0=")
    assert lines[11].startswith("crc32=")
    assert len(lines) == 12
    assert not any(l.startswith("block=") for l in lines)


def test_t1_format_has_empty_k_and_no_sides():
    params = WomParams(t=1, n=6, m=2, l=0, k=(), p=WeightVector([Fraction(1, 2)]))
    image = save_image(Device.fresh(params.n0), params, 0)
    lines = image.decode().splitlines()
    assert lines[2] == "k="
    assert not any(l.startswith("side") for l in lines)
    loaded_dev, loaded_params, _ = load_image(image)
    assert loaded_params == params


def test_multi_block_format_round_trip():
    params = params_t2()
    dev = Device.fresh(3 * params.n0)
    image = save_image(dev, params, 0)
    lines = image.decode().splitlines()
    assert [l for l in lines if l.startswith("block=")] == ["block=0", "block=1", "block=2"]
    loaded_dev, loaded_params, loaded_round = load_image(image)
    assert loaded_dev.cells.length == 3 * params.n0
    assert save_image(loaded_dev, loaded_params, loaded_round) == image


def rewrite_with_crc(image: bytes, old: bytes, new: bytes) -> bytes:
    """Alter a line but keep the trailer valid, to reach deeper parse checks."""
    body = image[: image.rfind(b"crc32=")]
    assert old in body
    body = body.replace(old, new)
    return body + f"crc32={crc32(body):08x}\n".encode()


def test_corruption_detected_as_checksum_mismatch():
    dev, params, round_, _ = make_session_image()
    image = save_image(dev, params, round_)
    pos = image.index(b"data1=") + len(b"data1=")
    corrupt = bytearray(image)
    corrupt[pos] = ord("f") if corrupt[pos] != ord("f") else ord("e")
    with pytest.raises(ChecksumMismatch):
        load_image(bytes(corrupt))


def test_bad_magic():
    dev, params, round_, _ = make_session_image()
    image = save_image(dev, params, round_)
    with pytest.raises(BadMagic):
        load_image(b"NOTIMG 1\n" + image)


def test_truncated_images():
    dev, params, round_, _ = make_session_image()
    image = save_image(dev, params, round_)
    with pytest.raises(TruncatedImage):
        load_image(image[: image.rfind(b"crc32=")])  # trailer gone
    with pytest.raises(TruncatedImage):
        load_image(image[:-1])  # final newline gone
    # payload lines missing but trailer intact
    body = image[: image.rfind(b"crc32=")]
    cut = b"\n".join(body.split(b"\n")[:7]) + b"\n"
    with pytest.raises(TruncatedImage):
        load_image(cut + f"crc32={crc32(cut):08x}\n".encode())


def test_malformed_images():
    dev, params, round_, _ = make_session_image()
    image = save_image(dev, params, round_)
    with pytest.raises(MalformedImage):
        load_image(rewrite_with_crc(image, b"round=2", b"round=9"))
    with pytest.raises(MalformedImage):
        load_image(rewrite_with_crc(image, b"round=2", b"round=x"))
    with pytest.raises(MalformedImage):
        load_image(rewrite_with_crc(image, b"p=1/3,1/2", b"p=0.33,0.5"))
    with pytest.raises(MalformedImage):
        load_image(rewrite_with_crc(image, b"p=1/3,1/2", b"p=1/0,1/2"))
    with pytest.raises(MalformedImage):
        load_image(rewrite_with_crc(image, b"k=7", b"k=77"))  # k above n
    # wrong hex width for a region
    with pytest.raises(MalformedImage):
        load_image(rewrite_with_crc(image, b"header=03", b"header=0300"))
    # padding bits beyond the region length
    with pytest.raises(MalformedImage):
        load_image(rewrite_with_crc(image, b"header=03", b"header=07"))


def test_image_round_trip_fuzzed_shapes():
    rnd = random.Random(99)
    shapes = 0
    while shapes < 40:
        t = rnd.randint(1, 4)
        n = rnd.randint(2, 16)
        l = rnd.randint(0, n)
        den = rnd.randint(2, 8)
        try:
            params = WomParams(
                t=t, n=n, m=rnd.randint(1, 5), l=l,
                k=tuple(rnd.randint(l, n) for _ in range(t - 1)),
                p=WeightVector(
                    [Fraction(rnd.randint(0, den), 2 * den) for _ in range(t - 1)]
                    + [Fraction(1, 2)]
                ),
            )
        except ValueError:
            continue
        shapes += 1
        n1 = rnd.randint(1, 3)
        bits = rnd.getrandbits(n1 * params.n0)
        round_ = rnd.randint(0, t)
        for block in range(n1):  # every header holds the round line's counter
            bits = bits & ~(((1 << t) - 1) << (block * params.n0)) | ((1 << round_) - 1) << (block * params.n0)
        dev = Device(BitWord(n1 * params.n0, bits))
        image = save_image(dev, params, round_)
        loaded = load_image(image)
        assert loaded == (dev, params, round_)
        assert save_image(*loaded) == image


def test_save_image_validates_geometry():
    params = params_t2()
    with pytest.raises(ValueError):
        save_image(Device.fresh(params.n0 + 1), params, 0)
    with pytest.raises(ValueError, match=r"^round 3 out of range 0\.\.2$"):
        save_image(Device.fresh(params.n0), params, 3)
    # what load_image would refuse is not saved: a round that is no int, or a
    # header that is not the round's unary counter
    for round_ in (True, 1.0):
        with pytest.raises(ValueError, match=f"^round {round_} is not an int$"):
            save_image(Device.fresh(params.n0), params, round_)
    with pytest.raises(ValueError, match=r"^block 0 header 0b0 disagrees with round=2$"):
        save_image(Device.fresh(params.n0), params, 2)
    headers = BitWord(3 * params.n0, 1 | 0b11 << params.n0 | 1 << 2 * params.n0)
    with pytest.raises(ValueError, match=r"^block 1 header 0b11 disagrees with round=1$"):
        save_image(Device(headers), params, 1)


def params_t3():
    return WomParams(
        t=3, n=12, m=3, l=2, k=(7, 5),
        p=WeightVector([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)]),
    )


def multi_block_image(params, n1, rounds, seed):
    """The image of n1 blocks after `rounds` rounds of random messages."""
    rnd = random.Random(seed)
    full = FullParams(params, n1)
    states = memory_to_states(BitWord(full.N1, 0), full)
    for j in range(1, rounds + 1):
        needed = full.round_capacity(j)
        states = full_encode_round(states, pack_messages(BitWord(needed, rnd.getrandbits(needed)), j, full))
    return save_image(Device(states_to_memory(states)), params, rounds)


@pytest.mark.parametrize("block", [0, 1, 2])
@pytest.mark.parametrize("header", ["00", "03", "02"])
def test_load_image_names_the_block_whose_header_disagrees_with_the_round(block, header):
    image = multi_block_image(params_t2(), 3, 1, seed=60)
    assert image.count(b"\nheader=01\n") == 3  # one header line text, parsed once
    body = image[: image.rfind(b"crc32=")]
    start = body.index(f"\nblock={block}\nheader=".encode()) + len(f"\nblock={block}\nheader=")
    body = body[:start] + header.encode() + body[start + 2 :]
    with pytest.raises(MalformedImage) as err:
        load_image(body + f"crc32={crc32(body):08x}\n".encode())
    assert str(err.value) == f"block {block} header 0b{int(header, 16):b} disagrees with round=1"


def test_every_bit_flip_and_truncation_is_rejected():
    image = multi_block_image(params_t3(), 3, 2, seed=61)
    assert load_image(image)[2] == 2 and 250 <= len(image) <= 350
    for pos in range(len(image)):
        with pytest.raises(ImageFormatError):
            load_image(image[:pos])
        for bit in range(8):
            with pytest.raises(ImageFormatError):
                load_image(image[:pos] + bytes([image[pos] ^ 1 << bit]) + image[pos + 1 :])
