"""Reference twins of womkit's value classes, and a keyword `replace` for tests.

Each twin is the frozen dataclass the library class once was, fields only,
with no checks: `WomParams` keeps its budgets in a `_budgets` field that is
neither shown nor compared.
`tests/test_value_oracle.py` compares each library value with its twin.
"""

import inspect
from dataclasses import dataclass, field, fields
from fractions import Fraction


@dataclass(frozen=True, slots=True)
class BitWord:
    length: int
    bits: int


@dataclass(frozen=True, slots=True)
class RoundMessage:
    round: int
    payload: tuple


@dataclass(frozen=True, slots=True)
class BlockState:
    params: "WomParams"
    round: int
    data: tuple
    sides: tuple


@dataclass(frozen=True, slots=True)
class WeightVector:
    p: tuple[Fraction, ...]


@dataclass(frozen=True, slots=True)
class WomParams:
    t: int
    n: int
    m: int
    l: int
    k: tuple[int, ...]
    p: WeightVector
    _budgets: tuple = field(default=(), init=False, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class FullParams:
    block: WomParams
    n1: int


@dataclass(frozen=True, slots=True)
class Device:
    cells: BitWord


TWINS = {cls.__name__: cls for cls in (
    BitWord, RoundMessage, BlockState, WeightVector, WomParams, FullParams, Device,
)}


def twin(value):
    """The twin of a library value, nested values and tuples of them included."""
    if type(value) is tuple:
        return tuple(map(twin, value))
    cls = TWINS.get(type(value).__name__)
    if cls is None:
        return value
    return cls(**{f.name: twin(getattr(value, f.name)) for f in fields(cls) if f.init})


def replace(value, **changes):
    """A copy of value with some fields changed, built again by its public constructor."""
    names = inspect.signature(type(value)).parameters
    return type(value)(**{name: getattr(value, name) for name in names} | changes)
