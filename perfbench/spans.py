"""In-memory span tracer that wraps womkit's public layer functions from outside.

`Tracer.install` replaces each function named in LAYER_FUNCTIONS (and the
`WomParams.budgets` property) with a wrapper in every loaded womkit module
that holds it, so calls between modules are traced too; `uninstall` puts
the originals back. Each span records its name, start, end and parent in
flat arrays. A layer's self time is its spans' durations minus the
durations of their direct children: the process is single-threaded, so
child spans never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

LAYER_FUNCTIONS = {
    "gf2n": ("mul_bits", "canonical_spec"),
    "bitwords": ("enumerate_above", "count_above", "subset_rank", "subset_unrank"),
    "hashfam": ("hash_apply",),
    "block_codec": (
        "search_block_encoding",
        "encode_round1",
        "encode_round",
        "decode_round",
        "in_guaranteed_regime",
    ),
    "full_codec": (
        "pack_messages",
        "unpack_messages",
        "states_to_memory",
        "memory_to_states",
        "full_encode_round",
    ),
    "wom_device": ("apply_write", "save_image", "load_image"),
}
BUDGETS_SPAN = "capacity.budgets"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("l")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.items: Counter[str] = Counter()  # values yielded by traced generators
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int, push: bool) -> int:
        idx = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        if push:
            self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span for the benchmark's own steps, parent of the layer calls inside."""
        idx = self._open(self._name_id(name), push=True)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)
        if inspect.isgeneratorfunction(fn):
            # Only time spent inside the generator counts: the consumer runs
            # between items, so the span's end is its start plus that time.
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                idx = self._open(name_id, push=False)
                busy = 0.0
                produced = 0
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        t0 = time.perf_counter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            busy += time.perf_counter() - t0
                            return
                        busy += time.perf_counter() - t0
                        produced += 1
                        yield item
                finally:
                    self.ends[idx] = self.starts[idx] + busy
                    self.items[name] += produced

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id, push=True)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def install(self, womkit) -> None:
        """Wrap every layer function in every loaded womkit module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sys.modules.items() if key == "womkit" or key.startswith("womkit.")]
        for layer, functions in LAYER_FUNCTIONS.items():
            home = sys.modules[f"womkit.{layer}"]
            for fname in functions:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))
        params_cls = womkit.WomParams
        budgets = vars(params_cls)["budgets"]
        traced_budgets = property(self.wrap(BUDGETS_SPAN, budgets.fget), doc=budgets.__doc__)
        setattr(params_cls, "budgets", traced_budgets)
        self._patches.append((params_cls, "budgets", budgets))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self, womkit):
        self.install(womkit)
        try:
            yield
        finally:
            self.uninstall()

    def summary(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds)."""
        child = [0.0] * len(self.starts)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[idx] - self.starts[idx]
        calls: Counter[int] = Counter()
        self_s: dict[int, float] = {}
        for idx, name_id in enumerate(self.name_ids):
            calls[name_id] += 1
            self_s[name_id] = self_s.get(name_id, 0.0) + (self.ends[idx] - self.starts[idx]) - child[idx]
        return {self.names[i]: (calls[i], self_s[i]) for i in calls}
