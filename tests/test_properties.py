"""Property round trips over random small parameters, drawn with a fixed-seed `random`.

Each draw has t in {1, 2, 3}, n <= 12 and m <= 4, and runs every round
through the whole public pipeline: pack -> encode -> states_to_memory ->
save_image -> load_image -> memory_to_states -> decode -> unpack. Every
round that is written must read back its stream. Outside the guaranteed
regime the search may prove that no encoding exists; the round then fails
atomically and the session ends. Inside it, it must not fail. Every state
the encoder builds without `BlockState`'s check must equal the state the
checked constructor builds from its fields.
"""

import random
from fractions import Fraction

from womkit.bitwords import BitWord
from womkit.block_codec import BlockState, NoEncoding, decode_round, in_guaranteed_regime
from womkit.capacity import WeightVector, WomParams
from womkit.full_codec import (
    FullParams,
    full_encode_round,
    memory_to_states,
    pack_messages,
    states_to_memory,
    unpack_messages,
)
from womkit.wom_device import Device, apply_write, load_image, save_image


def random_params(rnd: random.Random) -> WomParams:
    t = rnd.choice((1, 2, 3))
    n = rnd.randint(2, 12)
    l = rnd.randint(0, min(2, n))
    k = tuple(rnd.randint(l, min(n, l + 4)) for _ in range(t - 1))
    densities = [Fraction(rnd.randint(1, 4), 8) for _ in range(t - 1)] + [Fraction(1, 2)]
    return WomParams(t=t, n=n, m=rnd.randint(1, 4), l=l, k=k, p=WeightVector(densities))


def test_random_params_read_back_every_round_through_the_whole_pipeline():
    rnd = random.Random(2012)
    written = refused = 0
    for _ in range(120):
        params = random_params(rnd)
        full = FullParams(params, rnd.randint(1, 4))
        image = save_image(Device.fresh(full.N1), params, 0)
        for j in range(1, params.t + 1):
            dev, loaded, current = load_image(image)
            assert (loaded, current) == (params, j - 1)
            states = memory_to_states(dev.cells, full)
            need = full.round_capacity(j)
            stream = BitWord(need, rnd.getrandbits(need))
            msgs = pack_messages(stream, j, full)
            try:
                new_states = full_encode_round(states, msgs)
            except NoEncoding:
                assert not all(in_guaranteed_regime(params, j, s.data) for s in states)
                assert memory_to_states(dev.cells, full) == states  # nothing was written
                refused += 1
                break
            for state in new_states:
                assert state == BlockState(params, state.round, list(state.data), list(state.sides))
            image = save_image(apply_write(dev, states_to_memory(new_states)), params, j)
            dev, _, current = load_image(image)
            got = [decode_round(state, current) for state in memory_to_states(dev.cells, full)]
            assert got == msgs
            assert unpack_messages(got, full) == stream
            written += 1
    assert written >= 200 and refused <= written // 10, (written, refused)
