import fcntl
import os
import random
import signal
import stat
import subprocess
import sys
from binascii import crc32
from pathlib import Path

import pytest

from womkit import cli, selftest, wom_device
from womkit.bitwords import BitWord
from womkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out):
    pairs = {}
    for line in out.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            pairs.setdefault(key, value)
    return pairs


def init_image(capsys, path, **extra):
    args = [
        "init", "--out", str(path), "--t", "2", "--n", "10", "--m", "4",
        "--l", "2", "--k", "7", "--p", "1/3,1/2",
    ]
    for key, value in extra.items():
        args += [f"--{key}", str(value)]
    code, out, err = run(capsys, *args)
    assert code == 0, err
    return parse_kv(out)


def write_hex(path, text):
    path.write_text(text)
    return str(path)


def test_params_report_frozen_example(capsys):
    code, out, err = run(capsys, "params", "--t", "2", "--epsilon", "0.5")
    assert code == 0
    kv = parse_kv(out)
    assert kv["c"] == "40"
    assert kv["n"] == "320"
    assert kv["scale"] == "analysis"
    assert float(kv["achieved_rate"]) >= 1.084
    assert abs(float(kv["sum_rates"]) - 1.584962500721156) < 1e-12


def test_params_sum_line_for_t3(capsys):
    code, out, _ = run(capsys, "params", "--t", "3", "--epsilon", "0.3")
    assert code == 0
    assert abs(float(parse_kv(out)["sum_rates"]) - 2.0) < 1e-9


def test_params_rejects_vacuous_epsilon(capsys):
    code, _, err = run(capsys, "params", "--t", "2", "--epsilon", "1.6")
    assert code == 2
    assert "epsilon" in err


def test_params_with_explicit_rates(capsys):
    code, out, _ = run(capsys, "params", "--t", "2", "--epsilon", "0.5", "--rates", "0.8,0.5")
    assert code == 0
    assert parse_kv(out)["scale"] == "analysis"
    code, _, err = run(capsys, "params", "--t", "2", "--epsilon", "0.5", "--rates", "1.2,0.5")
    assert code == 2


@pytest.mark.parametrize("argv,message", [
    (["params", "--t", "3", "--epsilon", "0.5", "--rates", "0.5,0.5"], "2 rates given for t=3"),
    (["params", "--t", "2", "--epsilon", "0.5", "--rates", "x"],
     "bad rates 'x': could not convert string to float: 'x'"),
    (["init", "--out", "{img}", "--t", "2", "--m", "4", "--l", "2", "--k", "7", "--p", "1/3,1/2"],
     "manual parameters need --n"),
    (["audit-hash", "--n", "6", "--k", "4", "--l", "2", "--trials", "0"], "need at least one trial set"),
])
def test_usage_errors_print_one_line_and_exit_2(tmp_path, capsys, argv, message):
    img = tmp_path / "none.wom"
    code, out, err = run(capsys, *(arg.format(img=img) for arg in argv))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not img.exists()


def test_init_write_read_cycle(tmp_path, capsys):
    img = tmp_path / "session.wom"
    init_image(capsys, img)

    rnd = random.Random(40)
    msg1 = write_hex(tmp_path / "r1.hex", rnd.randbytes(3).hex())
    code, out, err = run(capsys, "write", "--img", str(img), "--round", "1", "--in", msg1)
    assert code == 0, err
    assert parse_kv(out)["regime"] == "exact"

    payload2 = rnd.randbytes(3)
    msg2 = write_hex(tmp_path / "r2.hex", payload2.hex())
    code, out, err = run(capsys, "write", "--img", str(img), "--round", "2", "--in", msg2)
    assert code == 0, err
    kv = parse_kv(out)
    assert kv["round"] == "2"
    assert kv["consumed_bits"] == "20"

    code, out, err = run(capsys, "read", "--img", str(img))
    assert code == 0, err
    kv = parse_kv(out)
    assert kv["round"] == "2"
    assert kv["bits"] == "20"
    expected = int.from_bytes(payload2, "little") & ((1 << 20) - 1)
    assert bytes.fromhex(kv["payload"]) == expected.to_bytes(3, "little")


def test_write_round2_on_fresh_image_is_sequencing_error(tmp_path, capsys):
    img = tmp_path / "fresh.wom"
    init_image(capsys, img)
    msg = write_hex(tmp_path / "m.hex", "00" * 4)
    before = img.read_bytes()
    code, _, err = run(capsys, "write", "--img", str(img), "--round", "2", "--in", msg)
    assert code == 4
    assert img.read_bytes() == before  # failing command leaves the image alone


def test_read_fresh_image_is_exit_3(tmp_path, capsys):
    img = tmp_path / "fresh.wom"
    init_image(capsys, img)
    code, _, err = run(capsys, "read", "--img", str(img))
    assert code == 3
    assert "no written rounds" in err


def test_read_earlier_round_rejected(tmp_path, capsys):
    img = tmp_path / "s.wom"
    init_image(capsys, img)
    msg = write_hex(tmp_path / "m.hex", "ffffff")
    assert run(capsys, "write", "--img", str(img), "--round", "1", "--in", msg)[0] == 0
    code, _, err = run(capsys, "read", "--img", str(img), "--round", "2")
    assert code == 2


def test_no_encoding_exit_5_and_atomicity(tmp_path, capsys):
    img = tmp_path / "tiny.wom"
    code, _, err = run(
        capsys, "init", "--out", str(img), "--t", "2", "--n", "2", "--m", "2",
        "--l", "1", "--k", "2", "--p", "1/2,1/2",
    )
    assert code == 0, err
    # ranks (1, 1): both blocks hold the same word; targets (0, 1) then clash
    assert run(capsys, "write", "--img", str(img), "--round", "1",
               "--in", write_hex(tmp_path / "a.hex", "03"))[0] == 0
    before = img.read_bytes()
    code, _, err = run(capsys, "write", "--img", str(img), "--round", "2",
                       "--in", write_hex(tmp_path / "b.hex", "02"))
    assert code == 5
    assert "bottleneck" in err
    assert img.read_bytes() == before
    # two blocks: round 1 ranks (0, 1) and (1, 1); round 2 encodes block 0, and
    # block 1 has none, so the write aborts after block 0's new state is built
    img = tmp_path / "two.wom"
    assert run(capsys, "init", "--out", str(img), "--blocks", "2", "--t", "2", "--n", "2", "--m", "2",
               "--l", "1", "--k", "2", "--p", "1/2,1/2")[0] == 0
    assert run(capsys, "write", "--img", str(img), "--round", "1",
               "--in", write_hex(tmp_path / "c.hex", "0e"))[0] == 0
    before = img.read_bytes()
    assert run(capsys, "write", "--img", str(img), "--round", "2", "--in", write_hex(tmp_path / "d.hex", "08")) == (
        5, "", "error: exhausted all 4 multipliers for round 2; data word 1 was the most frequent bottleneck\n")
    assert img.read_bytes() == before


def test_multi_block_session(tmp_path, capsys):
    img = tmp_path / "multi.wom"
    init_image(capsys, img, blocks=3)
    rnd = random.Random(41)
    msg1 = write_hex(tmp_path / "m1.hex", rnd.randbytes(9).hex())  # 72 bits for 72 needed
    code, out, err = run(capsys, "write", "--img", str(img), "--round", "1", "--in", msg1)
    assert code == 0, err
    assert parse_kv(out)["blocks"] == "3"
    code, _, err = run(capsys, "write", "--img", str(img), "--round", "2",
                       "--in", write_hex(tmp_path / "m2.hex", rnd.randbytes(8).hex()),
                       "--blocks", "4")
    assert code == 2  # consistency check
    code, out, err = run(capsys, "write", "--img", str(img), "--round", "2",
                         "--in", write_hex(tmp_path / "m2.hex", rnd.randbytes(8).hex()),
                         "--blocks", "3")
    assert code == 0, err
    code, out, _ = run(capsys, "read", "--img", str(img))
    assert code == 0
    assert parse_kv(out)["bits"] == "60"


def test_write_insufficient_bits_is_usage_error(tmp_path, capsys):
    img = tmp_path / "s.wom"
    init_image(capsys, img)
    short = write_hex(tmp_path / "short.hex", "ff")  # 8 bits, round 1 needs 24
    code, _, err = run(capsys, "write", "--img", str(img), "--round", "1", "--in", short)
    assert code == 2
    assert "24" in err


def test_lock_file_blocks_concurrent_writer(tmp_path, capsys):
    img = tmp_path / "locked.wom"
    init_image(capsys, img)
    msg = write_hex(tmp_path / "m.hex", "ffffff")
    before = img.read_bytes()
    # flock locks belong to an open file, so a second open() in this process conflicts
    with open(img, "rb") as holder:
        fcntl.flock(holder, fcntl.LOCK_EX)
        code, out, err = run(capsys, "write", "--img", str(img), "--round", "1", "--in", msg)
        assert code == 2
        assert (out, err) == ("", f"error: image {img} is locked by another writer\n")
        assert img.read_bytes() == before
    assert run(capsys, "write", "--img", str(img), "--round", "1", "--in", msg)[0] == 0
    assert sorted(os.listdir(tmp_path)) == ["locked.wom", "m.hex"]  # no lock or temp file


def test_writer_that_lost_the_race_to_a_rename_gives_up(tmp_path, capsys, monkeypatch):
    img = tmp_path / "raced.wom"
    init_image(capsys, img)
    msg = write_hex(tmp_path / "m.hex", "ffffff")
    real_flock = fcntl.flock

    def flock_after_rename(handle, flags):
        # another writer renames a new image over the path between open() and flock()
        other = tmp_path / "other.wom"
        other.write_bytes(img.read_bytes())
        os.replace(other, img)
        real_flock(handle, flags)

    monkeypatch.setattr(fcntl, "flock", flock_after_rename)
    replaced = img.read_bytes()
    code, out, err = run(capsys, "write", "--img", str(img), "--round", "1", "--in", msg)
    assert code == 2
    assert (out, err) == ("", f"error: image {img} was replaced by another writer\n")
    assert img.read_bytes() == replaced


def test_leftover_lock_file_does_not_block_writes(tmp_path, capsys):
    img = tmp_path / "stale.wom"
    init_image(capsys, img)
    (tmp_path / "stale.wom.lock").write_text("")  # what a killed writer used to leave
    msg = write_hex(tmp_path / "m.hex", "ffffff")
    code, _, err = run(capsys, "write", "--img", str(img), "--round", "1", "--in", msg)
    assert code == 0, err


def test_failed_rename_leaves_image_and_no_temp_file(tmp_path, capsys, monkeypatch):
    img = tmp_path / "crash.wom"
    init_image(capsys, img)
    before = img.read_bytes()
    msg = write_hex(tmp_path / "m.hex", "ffffff")

    def crash(src, dst):
        raise OSError(f"simulated crash renaming {os.path.basename(src)}")

    monkeypatch.setattr(os, "replace", crash)
    code, _, err = run(capsys, "write", "--img", str(img), "--round", "1", "--in", msg)
    assert code == 2
    assert "simulated crash" in err
    assert img.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["crash.wom", "m.hex"]


def test_init_takes_the_umask_and_writes_keep_the_images_mode(tmp_path, capsys):
    # the temp file renamed over the image is created with mode 0o600
    img = tmp_path / "mode.wom"
    umask = os.umask(0o022)
    try:
        init_image(capsys, img)
        assert stat.S_IMODE(img.stat().st_mode) == 0o644
        img.chmod(0o664)
        msg = write_hex(tmp_path / "m.hex", "ffffff")
        assert run(capsys, "write", "--img", str(img), "--round", "1", "--in", msg)[0] == 0
        assert stat.S_IMODE(img.stat().st_mode) == 0o664
        assert run(capsys, "init", "--out", str(img), "--force", "--t", "2", "--n", "10", "--m", "4", "--l", "2",
                   "--k", "7", "--p", "1/3,1/2")[0] == 0
        assert stat.S_IMODE(img.stat().st_mode) == 0o664
        os.umask(0o077)
        init_image(capsys, tmp_path / "private.wom")
        assert stat.S_IMODE((tmp_path / "private.wom").stat().st_mode) == 0o600
    finally:
        os.umask(umask)


@pytest.mark.skipif(os.geteuid() != 0, reason="only root can give an image to another user")
def test_write_and_init_force_keep_the_images_owner_and_group(tmp_path, capsys):
    img = tmp_path / "owned.wom"
    init_image(capsys, img)
    os.chown(img, 65534, 65534)  # nobody:nogroup on most systems; the ids need no account
    img.chmod(0o664)
    msg = write_hex(tmp_path / "m.hex", "ffffff")
    assert run(capsys, "write", "--img", str(img), "--round", "1", "--in", msg)[0] == 0
    after = img.stat()
    assert (after.st_uid, after.st_gid, stat.S_IMODE(after.st_mode)) == (65534, 65534, 0o664)
    assert run(capsys, "init", "--out", str(img), "--force", "--t", "2", "--n", "10", "--m", "4", "--l", "2",
               "--k", "7", "--p", "1/3,1/2")[0] == 0
    after = img.stat()
    assert (after.st_uid, after.st_gid, stat.S_IMODE(after.st_mode)) == (65534, 65534, 0o664)


def test_a_writer_that_may_not_give_the_image_away_still_writes_it(tmp_path, capsys, monkeypatch):
    img = tmp_path / "shared.wom"
    init_image(capsys, img)

    def refuse(fd, uid, gid):
        raise PermissionError(1, "Operation not permitted")

    monkeypatch.setattr(os, "fchown", refuse)
    msg = write_hex(tmp_path / "m.hex", "ffffff")
    assert run(capsys, "write", "--img", str(img), "--round", "1", "--in", msg)[0] == 0
    code, out, _ = run(capsys, "read", "--img", str(img))
    assert (code, parse_kv(out)["payload"]) == (0, "ffffff")
    assert sorted(os.listdir(tmp_path)) == ["m.hex", "shared.wom"]


def test_a_write_that_clears_a_programmed_cell_exits_6_and_leaves_the_image(tmp_path, capsys, monkeypatch):
    img = tmp_path / "once.wom"
    init_image(capsys, img)
    msg = write_hex(tmp_path / "a.hex", "a1b2c3")
    assert run(capsys, "write", "--img", str(img), "--round", "1", "--in", msg)[0] == 0
    before = img.read_bytes()
    programmed = wom_device.load_image(before)[0].cells.bits >> 2 << 2  # round 1's data cells, past the header
    lowest = programmed & -programmed
    encode = cli.states_to_memory

    def clearing(states):
        memory = encode(states)
        return BitWord(memory.length, memory.bits & ~lowest)

    monkeypatch.setattr(cli, "states_to_memory", clearing)
    msg = write_hex(tmp_path / "b.hex", "0d0e0f")
    assert run(capsys, "write", "--img", str(img), "--round", "2", "--in", msg) == (
        6, "", f"error: write clears programmed cell {lowest.bit_length() - 1}\n")
    assert img.read_bytes() == before


def test_write_and_init_force_follow_a_symlinked_image(tmp_path, capsys):
    real, link = tmp_path / "real.wom", tmp_path / "link.wom"
    init_image(capsys, real)
    link.symlink_to("real.wom")
    msg = write_hex(tmp_path / "m.hex", "ffffff")
    assert run(capsys, "write", "--img", str(link), "--round", "1", "--in", msg)[0] == 0
    assert os.readlink(link) == "real.wom"
    code, out, _ = run(capsys, "read", "--img", str(real))
    assert (code, parse_kv(out)["round"]) == (0, "1")
    assert run(capsys, "init", "--out", str(link), "--force", "--t", "2", "--n", "10", "--m", "4", "--l", "2",
               "--k", "7", "--p", "1/3,1/2")[0] == 0
    assert os.readlink(link) == "real.wom"
    assert run(capsys, "read", "--img", str(real))[0] == 3
    assert sorted(os.listdir(tmp_path)) == ["link.wom", "m.hex", "real.wom"]


def test_init_refuses_overwrite_without_force(tmp_path, capsys):
    img = tmp_path / "x.wom"
    init_image(capsys, img)
    base = ["init", "--out", str(img), "--t", "2", "--n", "10", "--m", "4",
            "--l", "2", "--k", "7", "--p", "1/3,1/2"]
    code, _, err = run(capsys, *base)
    assert code == 2
    assert "exists" in err
    assert run(capsys, *base, "--force")[0] == 0


def test_init_force_refuses_an_image_a_writer_has_locked(tmp_path, capsys):
    img = tmp_path / "busy.wom"
    init_image(capsys, img)
    msg = write_hex(tmp_path / "m.hex", "ffffff")
    assert run(capsys, "write", "--img", str(img), "--round", "1", "--in", msg)[0] == 0
    before = img.read_bytes()
    base = ["init", "--out", str(img), "--t", "2", "--n", "10", "--m", "4",
            "--l", "2", "--k", "7", "--p", "1/3,1/2", "--force"]
    with open(img, "rb") as holder:
        fcntl.flock(holder, fcntl.LOCK_EX)
        code, out, err = run(capsys, *base)
        assert code == 2
        assert (out, err) == ("", f"error: image {img} is locked by another writer\n")
        assert img.read_bytes() == before
    assert run(capsys, *base)[0] == 0
    assert img.read_bytes() != before
    assert sorted(os.listdir(tmp_path)) == ["busy.wom", "m.hex"]


def test_init_derived_analysis_scale_is_refused(tmp_path, capsys):
    # Parameters derived from a rate slack always need n >= 32, above the
    # searchable width, so init takes no --epsilon.
    img = tmp_path / "big.wom"
    code, _, err = run(capsys, "init", "--out", str(img), "--t", "2", "--epsilon", "0.5")
    assert code == 2
    assert "unrecognized arguments: --epsilon 0.5" in err
    assert not img.exists()


def test_init_zero_denominator_density_is_usage_error(tmp_path, capsys):
    img = tmp_path / "z.wom"
    code, out, err = run(capsys, "init", "--out", str(img), "--t", "2", "--n", "10", "--m", "4",
                         "--l", "2", "--k", "7", "--p", "1/0,1/2")
    assert code == 2
    assert (out, err) == ("", "error: density '1/0' has a zero denominator\n")
    assert not img.exists()


@pytest.mark.parametrize("blocks", ["0", "-1"])
def test_init_names_a_block_count_below_one(tmp_path, capsys, blocks):
    img = tmp_path / "none.wom"
    code, out, err = run(capsys, "init", "--out", str(img), "--t", "2", "--n", "10", "--m", "4",
                         "--l", "2", "--k", "7", "--p", "1/3,1/2", "--blocks", blocks)
    assert code == 2
    assert (out, err) == ("", f"error: --blocks must be at least 1, got {blocks}\n")
    assert not img.exists()


@pytest.mark.parametrize("k", ["7,x", "x", "7,"])
def test_init_names_a_bad_hash_size_list(tmp_path, capsys, k):
    img = tmp_path / "k.wom"
    code, out, err = run(capsys, "init", "--out", str(img), "--t", "2", "--n", "10", "--m", "4",
                         "--l", "2", "--k", k, "--p", "1/3,1/2")
    assert code == 2
    assert (out, err) == ("", f"error: --k must be comma-separated integers, got {k!r}\n")
    assert not img.exists()


def test_tampered_round2_data_word_over_budget_is_rejected(tmp_path, capsys):
    img = tmp_path / "tampered.wom"
    init_image(capsys, img)
    for j, payload in ((1, "a1b2c3"), (2, "0d0e0f")):
        msg = write_hex(tmp_path / f"r{j}.hex", payload)
        assert run(capsys, "write", "--img", str(img), "--round", str(j), "--in", msg)[0] == 0
    assert run(capsys, "read", "--img", str(img))[0] == 0
    # data0 set to weight 10 with a fixed CRC: B_2 = 6, so no encoder wrote it
    image = img.read_bytes()
    body = image[: image.rfind(b"crc32=")]
    start = body.index(b"\ndata0=") + len(b"\ndata0=")
    body = body[:start] + b"ff03" + body[start + 4 :]
    img.write_bytes(body + f"crc32={crc32(body):08x}\n".encode())
    code, out, err = run(capsys, "read", "--img", str(img))
    assert code == 2
    assert (out, err) == ("", "error: block 0: data word 0 has weight 10, above round-2 budget 6\n")


def test_tampered_round1_data_word_off_weight_is_rejected(tmp_path, capsys):
    img = tmp_path / "round1.wom"
    init_image(capsys, img)
    msg = write_hex(tmp_path / "r1.hex", "a1b2c3")
    assert run(capsys, "write", "--img", str(img), "--round", "1", "--in", msg)[0] == 0
    assert run(capsys, "read", "--img", str(img))[0] == 0
    # data1 set to weight 4 with a fixed CRC: round 1 writes weight B_1 = 3 exactly
    image = img.read_bytes()
    body = image[: image.rfind(b"crc32=")]
    start = body.index(b"\ndata1=") + len(b"\ndata1=")
    body = body[:start] + b"0f00" + body[start + 4 :]
    img.write_bytes(body + f"crc32={crc32(body):08x}\n".encode())
    code, out, err = run(capsys, "read", "--img", str(img))
    assert code == 2
    assert (out, err) == ("", "error: block 0: data word 1 has weight 4, expected round-1 weight 3\n")


def test_tampered_header_is_rejected_when_the_image_loads(tmp_path, capsys):
    img = tmp_path / "header.wom"
    init_image(capsys, img, blocks=3)
    msg = write_hex(tmp_path / "r1.hex", "a1b2c3" * 8)
    assert run(capsys, "write", "--img", str(img), "--round", "1", "--in", msg)[0] == 0
    assert run(capsys, "read", "--img", str(img))[0] == 0
    # block 1's header set to round 2's counter with a fixed CRC: the round line says 1
    image = img.read_bytes()
    body = image[: image.rfind(b"crc32=")]
    start = body.index(b"\nblock=1\nheader=") + len(b"\nblock=1\nheader=")
    body = body[:start] + b"03" + body[start + 2 :]
    img.write_bytes(body + f"crc32={crc32(body):08x}\n".encode())
    code, out, err = run(capsys, "read", "--img", str(img))
    assert code == 2
    assert (out, err) == ("", "error: block 1 header 0b11 disagrees with round=1\n")


def test_tampered_round1_rank_above_packed_width_names_the_block_and_word(tmp_path, capsys):
    img = tmp_path / "rank.wom"
    init_image(capsys, img, blocks=2)
    msg = write_hex(tmp_path / "r1.hex", "a1b2c3" * 2)
    assert run(capsys, "write", "--img", str(img), "--round", "1", "--in", msg)[0] == 0
    assert run(capsys, "read", "--img", str(img))[0] == 0
    # block 1's data0 set to the weight-3 word of colex rank 100 with a fixed CRC:
    # C(10, 3) = 120 words exist, but a packed rank has 6 bits, so the packer stops at 63
    image = img.read_bytes()
    body = image[: image.rfind(b"crc32=")]
    start = body.index(b"\nblock=1\nheader=01\ndata0=") + len(b"\nblock=1\nheader=01\ndata0=")
    body = body[:start] + b"4202" + body[start + 4 :]
    img.write_bytes(body + f"crc32={crc32(body):08x}\n".encode())
    code, out, err = run(capsys, "read", "--img", str(img))
    assert code == 2
    assert (out, err) == ("", "error: block 1 word 0: payload value 100 does not fit in 6 bits\n")


def test_write_refuses_a_round1_rank_above_packed_width_as_read_does(tmp_path, capsys):
    # block 1's data0 is the weight-3 word of colex rank 100: the block rule takes any
    # weight-3 word, but the stream carries 6-bit ranks, so read refuses the image
    img = tmp_path / "rank.wom"
    init_image(capsys, img, blocks=2)
    assert run(capsys, "write", "--img", str(img), "--round", "1",
               "--in", write_hex(tmp_path / "r1.hex", "a1b2c3" * 2))[0] == 0
    set_line(img, "data0", "4202", block=1)
    before = img.read_bytes()
    write = run(capsys, "write", "--img", str(img), "--round", "2",
                "--in", write_hex(tmp_path / "r2.hex", "0d0e0f1011"))
    assert write == (2, "", "error: block 1 word 0: payload value 100 does not fit in 6 bits\n")
    assert img.read_bytes() == before
    assert run(capsys, "read", "--img", str(img)) == write


def test_tampered_round3_earlier_side_word_is_rejected(tmp_path, capsys):
    img = tmp_path / "side.wom"
    code, _, err = run(capsys, "init", "--out", str(img), "--t", "3", "--n", "12", "--m", "3",
                       "--l", "2", "--k", "7,5", "--p", "1/4,1/3,1/2")
    assert code == 0, err
    for j, payload in ((1, "a1b2c3"), (2, "0d0e"), (3, "0f0f")):
        msg = write_hex(tmp_path / f"r{j}.hex", payload)
        assert run(capsys, "write", "--img", str(img), "--round", str(j), "--in", msg)[0] == 0
    assert run(capsys, "read", "--img", str(img))[0] == 0
    # side0 (round 2's map) set to all ones with a fixed CRC: b = 4095, but k_2 - l = 5
    image = img.read_bytes()
    body = image[: image.rfind(b"crc32=")]
    start = body.index(b"\nside0=") + len(b"\nside0=")
    body = body[:start] + b"ffffff" + body[start + 6 :]
    img.write_bytes(body + f"crc32={crc32(body):08x}\n".encode())
    code, out, err = run(capsys, "read", "--img", str(img))
    assert code == 2
    assert (out, err) == ("", "error: block 0: side word 0 holds b = 4095, wider than 5 bits\n")


def set_line(img, key, value, block=None):
    """Replace the hex of the first `key=` line (of block=<block>, if given) and fix the CRC."""
    image = img.read_bytes()
    body = image[: image.rfind(b"crc32=")]
    start = body.index(f"\nblock={block}\n".encode()) if block is not None else 0
    start = body.index(f"\n{key}=".encode(), start) + len(key) + 2
    body = body[:start] + value.encode() + body[body.index(b"\n", start) :]
    img.write_bytes(body + f"crc32={crc32(body):08x}\n".encode())


# Blocks the codec cannot have written: write refuses them with the text read
# prints, exit 2, before it searches or touches the device.
UNWRITABLE = [
    # round 1 writes weight B_1 = 3 exactly; round 2 would have built on weight 2
    ("round-1 data0 of weight 2", "a1b2c3", "data0", "0300",
     "error: block 0: data word 0 has weight 2, expected round-1 weight 3\n"),
    # side0 holds round 2's map, so it is zero until round 2 (the write exited 6)
    ("round-1 side0 set", "a1b2c3", "side0", "010000",
     "error: block 0: side word 0 is set, but round 2 is not written\n"),
    # nothing is written in round 0 (the write exited 6 and the read 3)
    ("round-0 data0 set", None, "data0", "0200",
     "error: block 0: data word 0 has weight 1, above round-0 budget 0\n"),
]


@pytest.mark.parametrize("what,round1,key,value,message", UNWRITABLE, ids=[case[0] for case in UNWRITABLE])
def test_write_and_read_refuse_a_block_the_codec_cannot_write(tmp_path, capsys, what, round1, key, value, message):
    img = tmp_path / "tampered.wom"
    init_image(capsys, img)
    current = 0
    if round1 is not None:
        assert run(capsys, "write", "--img", str(img), "--round", "1",
                   "--in", write_hex(tmp_path / "r1.hex", round1))[0] == 0
        current = 1
    set_line(img, key, value)
    before = img.read_bytes()
    msg = write_hex(tmp_path / "next.hex", "0d0e0f")
    write = run(capsys, "write", "--img", str(img), "--round", str(current + 1), "--in", msg)
    assert write == (2, "", message)
    assert img.read_bytes() == before
    assert run(capsys, "read", "--img", str(img)) == write


def test_write_and_read_refuse_a_round2_data_word_below_round1_weight(tmp_path, capsys):
    # round 1 writes weight B_1 = 3 and round 2 only sets cells, so data0 cannot be empty after round 2
    img = tmp_path / "floor.wom"
    init_image(capsys, img)
    for j, payload in ((1, "a1b2c3"), (2, "0d0e0f")):
        msg = write_hex(tmp_path / f"r{j}.hex", payload)
        assert run(capsys, "write", "--img", str(img), "--round", str(j), "--in", msg)[0] == 0
    set_line(img, "data0", "0000")
    before = img.read_bytes()
    write = run(capsys, "write", "--img", str(img), "--round", "2", "--in", str(tmp_path / "r2.hex"))
    assert write == (2, "", "error: block 0: data word 0 has weight 0, below round-1 weight 3\n")
    assert img.read_bytes() == before
    assert run(capsys, "read", "--img", str(img)) == write


def test_a_fault_in_a_later_block_names_that_block(tmp_path, capsys):
    img = tmp_path / "blocks.wom"
    init_image(capsys, img, blocks=4)
    assert run(capsys, "write", "--img", str(img), "--round", "1",
               "--in", write_hex(tmp_path / "r1.hex", "a1b2c3" * 4))[0] == 0
    set_line(img, "data1", "0f00", block=2)
    message = "error: block 2: data word 1 has weight 4, expected round-1 weight 3\n"
    write = run(capsys, "write", "--img", str(img), "--round", "2",
                "--in", write_hex(tmp_path / "r2.hex", "0d0e0f" * 4))
    assert write == (2, "", message)
    assert run(capsys, "read", "--img", str(img)) == write


def test_a_side_word_set_in_block_1_is_refused_by_write_and_read(tmp_path, capsys):
    # the CI session's image: block 1's side0 set in round 1, while block 0 stays valid
    img = tmp_path / "ci.wom"
    init_image(capsys, img, blocks=2)
    assert run(capsys, "write", "--img", str(img), "--round", "1",
               "--in", write_hex(tmp_path / "r1.hex", "a1b2c3d4e5f6"))[0] == 0
    set_line(img, "side0", "010000", block=1)
    before = img.read_bytes()
    message = "error: block 1: side word 0 is set, but round 2 is not written\n"
    write = run(capsys, "write", "--img", str(img), "--round", "2",
                "--in", write_hex(tmp_path / "r2.hex", "0d0e0f1011"))
    assert write == (2, "", message)
    assert img.read_bytes() == before
    assert run(capsys, "read", "--img", str(img)) == write


# Text that parses to a saved image's values but is not the text save_image
# writes: write and read refuse it alike, so a loaded image re-saves unchanged.
NON_CANONICAL = [
    ("round=0", "round=+0"), ("t=2 n=10 m=4 l=2", "t=2 n=1_0 m=4 l=2"), ("k=7", "k= 7"),
    ("p=1/3,1/2", "p=+1/3,1/2"), ("p=1/3,1/2", "p=2/6,1/2"), ("block=1", "block=01"),
    ("block=1", "block=+1"), ("t=2 n=10 m=4 l=2", "t=2  n=10 m=4 l=2"),
]


@pytest.mark.parametrize("line,altered", NON_CANONICAL, ids=[case[1] for case in NON_CANONICAL])
def test_write_and_read_refuse_image_text_save_image_never_writes(tmp_path, capsys, line, altered):
    img = tmp_path / "text.wom"
    init_image(capsys, img, blocks=2)
    image = img.read_bytes()
    body = image[: image.rfind(b"crc32=")].replace(f"\n{line}\n".encode(), f"\n{altered}\n".encode(), 1)
    assert body != image[: image.rfind(b"crc32=")]
    img.write_bytes(body + f"crc32={crc32(body):08x}\n".encode())
    before = img.read_bytes()
    expected = line if line.startswith("block=") else repr(line)
    msg = write_hex(tmp_path / "r1.hex", "a1b2c3d4e5f6")
    write = run(capsys, "write", "--img", str(img), "--round", "1", "--in", msg)
    assert write == (2, "", f"error: expected {expected}, found {altered!r}\n")
    assert img.read_bytes() == before
    assert run(capsys, "read", "--img", str(img)) == write


def test_corrupted_image_is_usage_error(tmp_path, capsys):
    img = tmp_path / "c.wom"
    init_image(capsys, img)
    data = bytearray(img.read_bytes())
    pos = data.index(b"header=") + len(b"header=")
    data[pos] = ord("1") if data[pos] != ord("1") else ord("2")
    img.write_bytes(bytes(data))
    code, _, err = run(capsys, "read", "--img", str(img))
    assert code == 2
    assert "crc32" in err


def test_audit_hash_pass_and_range_check(capsys):
    code, out, _ = run(capsys, "audit-hash", "--n", "6", "--k", "4", "--l", "2", "--trials", "3")
    assert code == 0
    kv = parse_kv(out)
    assert kv["image_audit"] == "PASS"
    assert kv["distance_audit"] == "PASS"
    assert float(kv["image_audit_worst"]) <= float(kv["image_audit_bound"])
    code, _, err = run(capsys, "audit-hash", "--n", "13", "--k", "4", "--l", "2", "--trials", "1")
    assert code == 2


def test_audit_hash_checks_sizes_before_sampling(capsys):
    # k = 7 > n = 6 would otherwise ask for more source words than exist
    for n, k, l in ((6, 7, 2), (6, 4, 5), (6, 4, -1)):
        code, out, err = run(capsys, "audit-hash", "--n", str(n), "--k", str(k), "--l", str(l), "--trials", "1")
        assert code == 2
        assert (out, err) == ("", f"error: need 0 <= l <= k <= n, got l={l} k={k} n={n}\n")


def test_audit_hash_n8_reports_bound_half(capsys):
    code, out, _ = run(capsys, "audit-hash", "--n", "8", "--k", "6", "--l", "4", "--trials", "10")
    assert code == 0
    kv = parse_kv(out)
    assert float(kv["image_audit_bound"]) == 0.5
    assert float(kv["image_audit_worst"]) <= 0.5


def test_degenerate_round_consumes_and_returns_nothing(tmp_path, capsys):
    img = tmp_path / "deg.wom"
    code, _, err = run(
        capsys, "init", "--out", str(img), "--t", "2", "--n", "6", "--m", "2",
        "--l", "2", "--k", "2", "--p", "1/3,1/2",
    )
    assert code == 0, err
    assert run(capsys, "write", "--img", str(img), "--round", "1",
               "--in", write_hex(tmp_path / "r1.hex", "0f"))[0] == 0
    code, out, err = run(capsys, "write", "--img", str(img), "--round", "2",
                         "--in", write_hex(tmp_path / "r2.hex", ""))
    assert code == 0, err
    assert parse_kv(out)["consumed_bits"] == "0"
    code, out, _ = run(capsys, "read", "--img", str(img))
    assert code == 0
    kv = parse_kv(out)
    assert kv["bits"] == "0"
    assert kv["payload"] == ""


def test_selftest_subset(capsys):
    code, out, _ = run(capsys, "selftest", "--only", "1,7")
    assert code == 0
    assert "criterion_1=PASS" in out
    assert "criterion_7=PASS" in out


def test_selftest_names_a_bad_criterion_list(capsys):
    code, out, err = run(capsys, "selftest", "--only", "x")
    assert code == 2
    assert (out, err) == ("", "error: --only must be comma-separated integers, got 'x'\n")


def test_selftest_a_crashing_criterion_fails_alone(capsys, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("session crashed")

    monkeypatch.setattr(selftest, "_session", crash)
    code, out, err = run(capsys, "selftest", "--only", "1,7,10")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert [line.partition("=")[0] for line in lines] == ["criterion_1", "criterion_7", "criterion_10"]
    assert lines[0].startswith("criterion_1=PASS (") and lines[1].startswith("criterion_7=PASS (")
    assert lines[2] == "criterion_10=FAIL (determinism: RuntimeError('session crashed'))"


def test_selftest_a_value_error_in_a_check_is_its_fail_line(capsys, monkeypatch):
    def bad_image(data):
        raise ValueError("bad image")

    monkeypatch.setattr(selftest, "load_image", bad_image)
    assert run(capsys, "selftest", "--only", "9") == (
        1, "criterion_9=FAIL (persistence: ValueError('bad image'))\n", "")


def test_selftest_refuses_an_unknown_criterion_before_any_runs(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(selftest, "_session", lambda *args, **kwargs: calls.append(args))
    assert run(capsys, "selftest", "--only", "2,99") == (2, "", "error: unknown criterion 99\n")
    assert calls == []


def test_the_cli_reads_every_image_selftest_builds(tmp_path, capsys, monkeypatch):
    # each round's stream, as the session splits it, and each image it saves
    streams, saved = {}, []
    pack, save = selftest.pack_messages, selftest.save_image

    def packing(stream, j, full):
        streams[j] = stream
        return pack(stream, j, full)

    def saving(dev, params, round_):
        image = save(dev, params, round_)
        saved.append((image, round_, streams[round_]))
        return image

    monkeypatch.setattr(selftest, "pack_messages", packing)
    monkeypatch.setattr(selftest, "save_image", saving)
    for number in (9, 2):
        assert selftest.run_criterion(number)[0]
    assert [round_ for _, round_, _ in saved] == [1, 1, 2, 2] * 2  # each saved, then saved again
    for i, (image, round_, stream) in enumerate(saved):
        img = tmp_path / f"{i}.wom"
        img.write_bytes(image)
        payload = stream.bits.to_bytes((stream.length + 7) // 8, "little").hex()
        assert run(capsys, "read", "--img", str(img)) == (
            0, f"round={round_}\nbits={stream.length}\npayload={payload}\n", "")


def python(*args):
    """Run a fresh interpreter on womkit from this checkout, writing no bytecode."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=300)


def test_selftest_checks_hold_under_python_O():
    # -O strips assert statements: a field multiply that always returns 0 must still fail criterion 8
    done = python("-O", "-c", "import sys; from womkit import cli, selftest; "
                              "selftest.mul_bits = lambda modulus, x, y: 0; "
                              "sys.exit(cli.main(['selftest', '--only', '8']))")
    assert (done.returncode, done.stderr) == (1, "")
    assert done.stdout.startswith("criterion_8=FAIL (field and combinatorics suites: Fermat failed for 0x")


def test_importing_the_cli_leaves_the_selftest_suite_unloaded():
    done = python("-c", "import sys, womkit.cli; print('womkit.selftest' in sys.modules)")
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


def test_the_cli_and_selftest_import_no_code_generation_modules():
    # the value classes are plain slotted classes, so womkit needs dataclasses' helpers nowhere
    done = python("-S", "-c", "import sys, womkit.cli, womkit.selftest; "
                              "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))")
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


# A writer killed at one step of `womkit write`: the child's -c script wraps
# that step so the process sends itself SIGKILL there.
KILLED_WRITER = """
import os, signal, sys
from womkit import cli

def kill():
    os.kill(os.getpid(), signal.SIGKILL)

def after(step):
    def wrapped(*args, **kwargs):
        result = step(*args, **kwargs)
        kill()
        return result
    return wrapped

def fsync_kill(call, before):
    fsync, calls = os.fsync, []
    def wrapped(fd):
        calls.append(fd)
        if len(calls) == call and before:
            kill()
        fsync(fd)
        if len(calls) == call:
            kill()
    return wrapped

{patch}
sys.exit(cli.main(sys.argv[1:]))
"""


def consumed_payload(path, bits):
    """The payload `read` prints after a write consumed the first `bits` bits of this hex file."""
    value = int.from_bytes(bytes.fromhex(Path(path).read_text()), "little") & ((1 << bits) - 1)
    return value.to_bytes((bits + 7) // 8, "little").hex()


@pytest.mark.parametrize("patch, left", [  # left: what the kill leaves beside the image
    ("cli._load_session = after(cli._load_session)", "old image"),
    ("cli.full_encode_round = after(cli.full_encode_round)", "old image"),
    ("os.fsync = fsync_kill(1, before=True)", "temp file"),  # written, not synced
    ("os.fsync = fsync_kill(1, before=False)", "temp file"),  # synced, not renamed
    ("os.replace = after(os.replace)", "new image"),
    ("os.fsync = fsync_kill(2, before=True)", "new image"),  # the directory is not synced
])
def test_a_killed_writer_leaves_a_loadable_writable_image(tmp_path, capsys, patch, left):
    img = tmp_path / "killed.wom"
    init_image(capsys, img, t=3, n=12, m=3, k="7,5", p="1/4,1/3,1/2", blocks=2)  # rounds of 42, 30, 18 bits
    rnd = random.Random(14)
    hexes = [write_hex(tmp_path / f"r{j}.hex", rnd.randbytes(size).hex()) for j, size in ((1, 6), (2, 4), (3, 3))]
    assert run(capsys, "write", "--img", str(img), "--round", "1", "--in", hexes[0])[0] == 0
    old = img.read_bytes()
    copy = tmp_path / "unkilled.wom"
    copy.write_bytes(old)
    assert run(capsys, "write", "--img", str(copy), "--round", "2", "--in", hexes[1])[0] == 0
    new = copy.read_bytes()

    done = python("-c", KILLED_WRITER.format(patch=patch), "write", "--img", str(img), "--round", "2", "--in", hexes[1])
    assert (done.returncode, done.stdout, done.stderr) == (-signal.SIGKILL, "", "")
    wom_device.load_image(img.read_bytes())
    assert img.read_bytes() == (new if left == "new image" else old)
    leftovers = [name for name in os.listdir(tmp_path) if name.startswith(".womimg-")]
    assert len(leftovers) == (left == "temp file")
    if left != "new image":  # the write did not happen: the same write again
        assert run(capsys, "write", "--img", str(img), "--round", "2", "--in", hexes[1])[0] == 0
        assert img.read_bytes() == new
    assert parse_kv(run(capsys, "read", "--img", str(img))[1])["payload"] == consumed_payload(hexes[1], 30)
    assert run(capsys, "write", "--img", str(img), "--round", "3", "--in", hexes[2])[0] == 0
    assert parse_kv(run(capsys, "read", "--img", str(img))[1])["payload"] == consumed_payload(hexes[2], 18)
