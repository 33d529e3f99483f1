import fcntl
import os
import random
from binascii import crc32

import pytest

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


def test_init_refuses_overwrite_without_force(tmp_path, capsys):
    img = tmp_path / "x.wom"
    init_image(capsys, img)
    base = ["init", "--out", str(img), "--t", "2", "--n", "10", "--m", "4",
            "--l", "2", "--k", "7", "--p", "1/3,1/2"]
    code, _, err = run(capsys, *base)
    assert code == 2
    assert "exists" in err
    assert run(capsys, *base, "--force")[0] == 0


def test_init_derived_analysis_scale_is_refused(tmp_path, capsys):
    img = tmp_path / "big.wom"
    code, _, err = run(capsys, "init", "--out", str(img), "--t", "2", "--epsilon", "0.5")
    assert code == 2
    assert "manual" in err
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
    assert (out, err) == ("", "error: data word 0 has weight 10, above round-2 budget 6\n")


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
