"""Built-in acceptance checks, runnable from the CLI (`womkit selftest`).

`CRITERIA` maps each number to its name and check. A check has fixed seeds
and returns its PASS detail, or fails through `_require`, which raises even
under `python -O`. `run_criterion` makes a failed check FAIL with its detail
and a crashed one FAIL with the exception's repr, so every requested
criterion prints its line. Together the checks exercise capacity arithmetic,
both end-to-end codecs, the exhaustive hash audits, the guaranteed search
regime, parameter derivation, the field and combinatorics layers,
persistence, and determinism.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, log2

from .bitwords import BitWord, dominates, enumerate_above, subset_rank, subset_unrank
from .block_codec import decode_round, encode_round, in_guaranteed_regime, search_block_encoding
from .capacity import (
    WeightVector, WomParams, achieved_rate, derivation_constant, derive_parameters, in_capacity_region, optimal_point,
)
from .full_codec import (
    FullParams, full_encode_round, memory_to_states, pack_messages, states_to_memory, unpack_messages,
)
from .gf2n import canonical_spec, mul_bits
from .hashfam import hash_apply, image_fraction_audit, lhl_exact_distance
from .wom_device import ChecksumMismatch, Device, apply_write, load_image, save_image


class CheckFailed(Exception):
    """A criterion's property does not hold; the message is its FAIL detail."""


def _require(ok: bool, detail: str) -> None:
    if not ok:
        raise CheckFailed(detail)


def params_t2() -> WomParams:
    """Desk-scale two-round configuration used across the checks."""
    return WomParams(t=2, n=10, m=4, l=2, k=(7,), p=WeightVector([Fraction(1, 3), Fraction(1, 2)]))


def params_t3() -> WomParams:
    """Desk-scale three-round configuration used across the checks."""
    return WomParams(
        t=3, n=12, m=3, l=2, k=(7, 5),
        p=WeightVector([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)]),
    )


def _session(params: WomParams, seed: int, blocks: int) -> bytes:
    """One image of `blocks` blocks written through every round as `womkit write` and `read` do.

    Each round packs a random stream, writes it whole-image (checked against
    `encode_round` per block) on the strict device, saves, loads and resumes
    from the image, and reads the stream back. Raises CheckFailed on any
    mismatch or budget overrun; a WriteOnceViolation propagates. Returns the
    final image, whose bytes capture the chosen coefficients.
    """
    rnd = random.Random(seed)
    full = FullParams(params, blocks)
    dev = Device.fresh(full.N1)
    states = memory_to_states(dev.cells, full)
    for j in range(1, params.t + 1):
        width = full.round_capacity(j)
        stream = BitWord(width, rnd.getrandbits(width))
        msgs = pack_messages(stream, j, full)
        written = full_encode_round(states, msgs)
        _require(written == list(map(encode_round, states, msgs)),
                 f"round {j}: whole-image states differ from per-block states")
        _require(all(d.weight <= params.budgets[j - 1] for s in written for d in s.data), f"round {j} budget exceeded")
        memory = states_to_memory(written)
        _require(dominates(memory, dev.cells), "encode produced a non-dominating state")
        image = save_image(apply_write(dev, memory), params, j)
        dev, loaded_params, loaded_round = load_image(image)
        _require((dev.cells, loaded_params, loaded_round) == (memory, params, j),
                 "save/load round trip is not bit-exact")
        _require(save_image(dev, loaded_params, loaded_round) == image, "re-serialized image differs")
        states = memory_to_states(dev.cells, full)
        _require(states == written, f"round {j}: loaded states differ from written states")
        _require(unpack_messages([decode_round(s, j) for s in states], full) == stream, f"round {j} decode mismatch")
    return image


def criterion_1() -> str:
    """Optimal rate points sum to log2(t+1) and lie in the region."""
    worst = 0.0
    for t in range(1, 11):
        rates, densities = optimal_point(t)
        worst = max(worst, abs(sum(rates) - log2(t + 1)))
        _require(in_capacity_region(rates, densities), f"optimal point t={t} outside region")
    detail = f"max |sum - log2(t+1)| = {worst:.3g}"
    _require(worst <= 1e-9, detail)
    return detail


def criterion_2() -> str:
    """100 two-round sessions round-trip on the strict device."""
    _session(params_t2(), seed=0x2C0DE, blocks=100)
    return "100 sessions, all rounds decoded, no violations"


def criterion_3() -> str:
    """50 three-round sessions round-trip on the strict device."""
    _session(params_t3(), seed=0x3C0DE, blocks=50)
    return "50 sessions, all rounds decoded, no violations"


def criterion_4() -> str:
    """Exhaustive image audit at n=8, k=6, l=4 stays within the 2^-1 bound."""
    rnd = random.Random(0xA0D17)
    sets = [rnd.sample(range(1 << 8), 1 << 6) for _ in range(10)]
    worst = image_fraction_audit(8, 6, 4, sets)
    detail = f"worst fraction {worst:.6f} vs bound 0.5"
    _require(worst <= 0.5, detail)
    return detail


def criterion_5() -> str:
    """Exact output distance from uniform stays within 2^(-l/2)."""
    rnd = random.Random(0x11D157)
    checks = [(lhl_exact_distance(4, 4, 2, range(16)), 0.5, "n=4 full cube")]
    for i in range(5):
        d = lhl_exact_distance(6, 4, 2, rnd.sample(range(64), 16))
        checks.append((d, 0.5, f"n=6 sample {i}"))
    checks.append((lhl_exact_distance(4, 4, 4, range(16)), 0.0, "l=k degenerate"))
    for value, bound, label in checks:
        _require(value <= bound, f"{label}: {value} > {bound}")
    worst = max(v for v, _, _ in checks[:-1])
    return f"worst distance {worst:.6f}, degenerate = 0"


def criterion_6() -> str:
    """200 guaranteed-regime searches all succeed with valid witnesses."""
    rnd = random.Random(0x6C0DE)
    families = [
        (WomParams(t=2, n=12, m=2, l=5, k=(9,), p=WeightVector([Fraction(1, 6), Fraction(1, 2)])), 70),
        (WomParams(t=2, n=10, m=2, l=6, k=(7,), p=WeightVector([Fraction(1, 5), Fraction(1, 2)])), 70),
        (WomParams(t=2, n=12, m=3, l=8, k=(9,), p=WeightVector([Fraction(1, 6), Fraction(1, 2)])), 60),
    ]
    ran = 0
    for params, count in families:
        out_len = params.payload_bits(2)
        for _ in range(count):
            ws = []
            for _ in range(params.m):
                weight = rnd.randint(0, params.budgets[0])
                ws.append(BitWord.from_support(rnd.sample(range(params.n), weight), params.n))
            xs = [BitWord(out_len, rnd.getrandbits(out_len)) for _ in range(params.m)]
            _require(in_guaranteed_regime(params, 2, ws), "instance left the regime")
            a, b, ys = search_block_encoding(params, 2, ws, xs)
            budget = params.budgets[1]
            for w, x, y in zip(ws, xs, ys):
                _require(dominates(y, w) and y.weight <= budget and hash_apply(a, b, out_len, y) == x,
                         "witness check failed")
            ran += 1
    return f"{ran} instances, all found valid encodings"


def criterion_7() -> str:
    """Derived parameters at eps=0.5, t=2 match the closed forms."""
    c, params = derivation_constant(0.5, 2), derive_parameters(0.5, *optimal_point(2))
    _require((c, params.n) == (40, 320), f"got c={c}, n={params.n}")
    rate = achieved_rate(params)
    floor_rate = log2(3) - 0.5
    _require(rate >= floor_rate, f"rate {rate:.4f} below {floor_rate:.4f}")
    occupancy = params.m * params.n / params.n0
    needed = 1 - 0.5 / (3 * 2)
    _require(occupancy > needed, f"occupancy {occupancy:.6f} <= {needed:.6f}")
    return f"c=40 n=320 rate={rate:.4f} >= {floor_rate:.4f}, occupancy {occupancy:.4f} > {needed:.4f}"


def _check_field_axioms(n: int, samples: int, rnd: random.Random) -> None:
    modulus = canonical_spec(n)
    order = 1 << n

    def mul(x: int, y: int) -> int:
        return mul_bits(modulus, x, y)

    for _ in range(samples):
        x = rnd.randrange(order)
        y = rnd.randrange(order)
        z = rnd.randrange(order)
        _require(
            mul(x, y) == mul(y, x) and mul(mul(x, y), z) == mul(x, mul(y, z))
            and mul(x, y ^ z) == mul(x, y) ^ mul(x, z),
            f"field axioms failed for 0x{x:x}, 0x{y:x}, 0x{z:x} at n={n}",
        )
        if x:
            # x^(2^n - 1) by square-and-multiply over the all-ones exponent
            acc = x
            for _ in range(n - 1):
                acc = mul(mul(acc, acc), x)
            _require(acc == 1, f"Fermat failed for 0x{x:x} at n={n}")


def criterion_8() -> str:
    """Field axioms, Fermat, combinadics, and superset enumeration."""
    rnd = random.Random(0x8C0DE)
    for n in (3, 8, 12, 16):
        _check_field_axioms(n, 10_000, rnd)
    for weight in range(5):
        for rank in range(comb(16, weight)):
            word = subset_unrank(rank, 16, weight)
            _require(word.weight == weight and subset_rank(word, weight) == rank,
                     f"colex bijection failed at weight {weight}, rank {rank}")
    for length in (4, 6, 8, 14):
        words = (
            [BitWord(length, v) for v in range(1 << length)]
            if length <= 8
            else [BitWord(length, rnd.getrandbits(length)) for _ in range(6)]
        )
        for w in words:
            for max_weight in (w.weight, (w.weight + length) // 2, length):
                got = list(enumerate_above(w, max_weight))
                expect = [v for v in range(1 << length) if v & w.bits == w.bits and v.bit_count() <= max_weight]
                _require(got == expect, f"enumerate_above mismatch at len={length}")
    return "axioms+Fermat at n=3,8,12,16; colex bijection len 16; enumeration vs filter"


def criterion_9() -> str:
    """Images round-trip bit-exactly, reject corruption, and resume cleanly."""
    image = _session(params_t2(), seed=0x9C0DE, blocks=3)
    corrupt = bytearray(image)
    pos = image.index(b"data0=") + len(b"data0=")
    corrupt[pos] = ord("f") if corrupt[pos] != ord("f") else ord("0")
    try:
        load_image(bytes(corrupt))
        raise CheckFailed("corrupted image was accepted")
    except ChecksumMismatch:
        pass
    return "round trip, corruption detection, resume identical"


def criterion_10() -> str:
    """Re-running the end-to-end sessions reproduces byte-identical images."""
    for label, params, seed, blocks in (("t=2", params_t2(), 0x2C0DE, 100), ("t=3", params_t3(), 0x3C0DE, 50)):
        first, second = (_session(params, seed, blocks) for _ in range(2))
        _require(first == second, f"{label} images differ between runs")
    return "byte-identical images, coefficients included"


CRITERIA = {
    1: ("capacity arithmetic", criterion_1),
    2: ("t=2 end-to-end", criterion_2),
    3: ("t=3 end-to-end", criterion_3),
    4: ("small-image fraction audit", criterion_4),
    5: ("exact distance audit", criterion_5),
    6: ("guaranteed-regime search", criterion_6),
    7: ("parameter formulas", criterion_7),
    8: ("field and combinatorics suites", criterion_8),
    9: ("persistence", criterion_9),
    10: ("determinism", criterion_10),
}


def run_criterion(number: int) -> tuple[bool, str]:
    """Whether one criterion's check passed, and its line; whatever the check raises becomes its FAIL line."""
    name, check = CRITERIA[number]
    try:
        passed, detail = True, check()
    except CheckFailed as exc:
        passed, detail = False, str(exc)
    except Exception as exc:  # a crash fails this criterion, not the rest of the suite
        passed, detail = False, repr(exc)
    return passed, f"criterion_{number}={'PASS' if passed else 'FAIL'} ({name}: {detail})"


def run_all(numbers=None) -> list[tuple[bool, str]]:
    chosen = sorted(CRITERIA if numbers is None else numbers)
    for number in chosen:
        if number not in CRITERIA:
            raise ValueError(f"unknown criterion {number}")
    return [run_criterion(number) for number in chosen]
