"""In-memory span tracer that wraps functions from outside the program.

A span is one call of a wrapped function: its name, the span that was
open when it started (its parent), start and end times, and, for calls
whose first argument is a configuration, the world size and replicate
count.  Spans stay in memory and are written out once, at the end.

Only one thread is traced, so spans nest strictly and a span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

# Functions whose first argument is a ParameterSet; their spans carry
# (n_world, replicates) so per-replicate figures can be derived.
PARAM_SPANS = frozenset({"experiment.replicate_statistics", "experiment.run_config"})

TRACED_MODULES = ("cli", "experiment", "indicators", "intervals", "distribution")


class Tracer:
    """Records one span per call of every function it wrapped."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.n_world: list[int] = []
        self.replicates: list[int] = []
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn):
        """Return fn wrapped so each call records a span called `name`."""
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        with_params = name in PARAM_SPANS
        clock, open_spans = self.clock, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name.append(name_id)
            self.parent.append(open_spans[-1] if open_spans else -1)
            if with_params:
                self.n_world.append(args[0].n_world)
                self.replicates.append(args[0].replicates)
            else:
                self.n_world.append(0)
                self.replicates.append(0)
            self.end.append(0.0)
            open_spans.append(sid)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                open_spans.pop()

        return traced

    def to_dict(self) -> dict:
        return {
            "names": self.names,
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "n_world": self.n_world,
            "replicates": self.replicates,
        }


def instrument(tracer: Tracer, only=None, package: str = "citesim") -> None:
    """Wrap the public functions of the traced modules, on every binding.

    `from .x import f` copies the binding of f into the importing module,
    so each module of the package that holds f gets the same wrapper.
    numpy.random.default_rng is wrapped as well: it is the per-replicate
    stream constructor.  `only`, when given, restricts wrapping to those
    span names.
    """
    wrappers: dict[int, object] = {}
    for short in TRACED_MODULES:
        module = sys.modules[f"{package}.{short}"]
        for attr in module.__all__:
            fn = getattr(module, attr)
            name = f"{short}.{attr}"
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            if only is None or name in only:
                wrappers[id(fn)] = tracer.wrap(name, fn)
    bindings = [m for n, m in list(sys.modules.items())
                if n == package or n.startswith(package + ".")]
    for module in bindings:
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)
    if only is None or "numpy.random.default_rng" in only:
        np.random.default_rng = tracer.wrap("numpy.random.default_rng", np.random.default_rng)


def self_times(parent, duration) -> np.ndarray:
    """Duration of each span minus the summed durations of its children."""
    parent = np.asarray(parent, dtype=np.int64)
    duration = np.asarray(duration, dtype=np.float64)
    children = np.zeros_like(duration)
    nested = parent >= 0
    np.add.at(children, parent[nested], duration[nested])
    return duration - children


class SpanTable:
    """Column view of a dumped tracer, with durations and self times."""

    def __init__(self, data: dict):
        self.names = list(data["names"])
        self.name = np.asarray(data["name"], dtype=np.int64)
        self.parent = np.asarray(data["parent"], dtype=np.int64)
        self.start = np.asarray(data["start"], dtype=np.float64)
        self.end = np.asarray(data["end"], dtype=np.float64)
        self.n_world = np.asarray(data["n_world"], dtype=np.int64)
        self.replicates = np.asarray(data["replicates"], dtype=np.int64)
        self.duration = self.end - self.start
        self.self_time = self_times(self.parent, self.duration)

    def __len__(self) -> int:
        return self.start.size

    def subset(self, lo: int, hi: int) -> "SpanTable":
        """Spans [lo, hi), which must not nest under spans outside it."""
        view = SpanTable.__new__(SpanTable)
        view.names = self.names
        for col in ("name", "start", "end", "n_world", "replicates",
                    "duration", "self_time"):
            setattr(view, col, getattr(self, col)[lo:hi])
        view.parent = np.where(self.parent[lo:hi] >= 0, self.parent[lo:hi] - lo, -1)
        return view

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self), dtype=bool)
        return self.name == self.names.index(name)

    def count(self, name: str) -> int:
        return int(self.mask(name).sum())

    def total(self, name: str) -> float:
        return float(self.duration[self.mask(name)].sum())

    def self_total(self, name: str) -> float:
        return float(self.self_time[self.mask(name)].sum())

    def top_level(self) -> np.ndarray:
        return self.parent < 0

    def children_of(self, parents: np.ndarray) -> np.ndarray:
        """Mask of spans whose direct parent is selected by `parents`."""
        nested = self.parent >= 0
        out = np.zeros(len(self), dtype=bool)
        out[nested] = parents[self.parent[nested]]
        return out


def dump(tracer: Tracer, path, **extra) -> None:
    payload = tracer.to_dict()
    payload.update(extra)
    with open(path, "w") as handle:
        json.dump(payload, handle, separators=(",", ":"))
