"""womkit's value classes against the frozen dataclasses in `value_oracle`.

For sample values of all seven classes, each value and its dataclass twin
must show the same `repr`, compare alike with every other sample and with
an instance of a subclass, hash alike, refuse assignment and deletion with
the same message, and survive `pickle`, `copy` and `deepcopy` unchanged.
"""

import copy
import pickle
from dataclasses import fields
from fractions import Fraction

import pytest

import value_oracle as oracle
from womkit.bitwords import BitWord
from womkit.block_codec import BlockState, RoundMessage, encode_round, encode_round1
from womkit.capacity import WeightVector, WomParams, optimal_point
from womkit.full_codec import FullParams
from womkit.selftest import params_t2, params_t3
from womkit.wom_device import Device


def samples():
    t2, t3 = params_t2(), params_t3()
    state = encode_round1(BlockState.fresh(t2), RoundMessage(1, (0, 5, 17, 3)))
    payload = tuple(BitWord(t2.k[0] - t2.l, bits) for bits in (1, 6, 0, 31))
    return [
        BitWord(0, 0), BitWord(3, 5), BitWord(3, 6), BitWord(8, 0xA5),
        RoundMessage(1, (0, 5, 17, 3)), RoundMessage(2, payload), RoundMessage(2, ()),
        BlockState.fresh(t2), BlockState.fresh(t3), state, encode_round(state, RoundMessage(2, payload)),
        WeightVector([Fraction(1, 3), Fraction(1, 2)]), WeightVector([Fraction(1, 2)]), optimal_point(3)[1],
        t2, t3, oracle.replace(t2, l=3), oracle.replace(t2, n=12),
        FullParams(t2, 1), FullParams(t2, 3), FullParams(t3, 3),
        Device.fresh(10), Device(BitWord(4, 9)), Device(BitWord(4, 0)),
    ]


SAMPLES = samples()
# Samples 11 to 13 were rate points, which are plain tuples now; later samples keep their numbers.
IDS = [f"{type(value).__name__}-{i + 3 * (i >= 11)}" for i, value in enumerate(SAMPLES)]


def test_samples_cover_every_class():
    assert {type(value).__name__ for value in SAMPLES} == set(oracle.TWINS)
    assert all(type(oracle.twin(value)) is oracle.TWINS[type(value).__name__] for value in SAMPLES)


@pytest.mark.parametrize("value", SAMPLES, ids=IDS)
def test_repr_and_hash_match_the_dataclass(value):
    assert repr(value) == repr(oracle.twin(value))
    assert hash(value) == hash(oracle.twin(value))


def test_equality_matches_the_dataclass_across_all_samples():
    twins = [oracle.twin(value) for value in SAMPLES]
    for a, ta in zip(SAMPLES, twins):
        for b, tb in zip(SAMPLES, twins):
            assert (a == b, a != b) == (ta == tb, ta != tb), (a, b)
        # an equal value in another object, and the twin itself: another class, same fields
        assert a == oracle.replace(a) and hash(a) == hash(oracle.replace(a))
        assert (a == ta, a != ta, ta == a) == (False, True, False)


@pytest.mark.parametrize("value", SAMPLES, ids=IDS)
def test_a_subclass_instance_is_never_equal(value):
    twin = oracle.twin(value)
    names = [f.name for f in fields(twin) if f.init]
    sub = type("Sub", (type(value),), {"__slots__": ()})(*(getattr(value, name) for name in names))
    twin_sub = type("Sub", (type(twin),), {})(*(getattr(twin, name) for name in names))
    assert (value == sub, value != sub) == (twin == twin_sub, twin != twin_sub) == (False, True)


def test_womparams_keep_their_budgets_in_a_property():
    # the twin neither shows nor compares its budgets, so equal reprs and hashes above show the same
    params = params_t2()
    assert oracle.replace(params).budgets == params.budgets == (3, 6)
    assert isinstance(vars(WomParams)["budgets"], property)


@pytest.mark.parametrize("value", SAMPLES, ids=IDS)
def test_assignment_and_deletion_raise_like_the_dataclass(value):
    twin, shown = oracle.twin(value), repr(value)
    for name in [f.name for f in fields(twin)]:
        messages = []
        for target in (value, twin):
            with pytest.raises(AttributeError) as assigned:
                setattr(target, name, getattr(target, name))
            with pytest.raises(AttributeError) as deleted:
                delattr(target, name)
            messages.append((str(assigned.value), str(deleted.value)))
        assert messages[0] == messages[1] == (f"cannot assign to field {name!r}", f"cannot delete field {name!r}")
    # a slotted frozen dataclass raises TypeError for a name that is no field on some Pythons
    with pytest.raises(AttributeError, match="^cannot assign to field 'other'$"):
        value.other = 1
    with pytest.raises(AttributeError, match="^cannot delete field 'other'$"):
        del value.other
    assert repr(value) == shown


@pytest.mark.parametrize("value", SAMPLES, ids=IDS)
def test_pickle_and_copies_round_trip(value):
    for target in (value, oracle.twin(value)):
        for rebuilt in (pickle.loads(pickle.dumps(target)), copy.copy(target), copy.deepcopy(target)):
            assert type(rebuilt) is type(target) and rebuilt == target and repr(rebuilt) == repr(target)
            assert hash(rebuilt) == hash(target)
            if type(target) is WomParams:
                assert rebuilt.budgets == target.budgets

