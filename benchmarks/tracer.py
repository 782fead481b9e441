"""Outside-in instrumentation of the fairedit package.

The benchmark never edits the program. It rebinds public functions and
methods of the package for the length of one unit of work and restores them
afterwards. A function bound into another module by ``from ... import`` is
rebound there too, so every call site goes through the wrapper.

Four kinds of wrapper exist:

* ``Clock`` records (start, end) of every call of one function; the
  untraced run uses it to time the workload's inner operation;
* ``Tally`` counts calls, and what a call did, for the traced run's counts;
* ``Probe`` runs a fixed reference kernel now and then to track how fast
  the machine is running, and converts wall time into reference seconds;
* ``Tracer`` records one span (name, start, end, parent) per call of every
  layer function, in memory. Self time is a span's duration minus the
  durations of its direct children.
"""
from __future__ import annotations

import gc
import inspect
import sys
from bisect import bisect_right
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


class Patch:
    """Rebinds package functions and methods; ``restore`` undoes every one."""

    def __init__(self):
        self._undo = []

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        """Replace ``owner.attr`` by ``make_wrapper(original)``. For a module
        attribute, every module of the package that binds the same object is
        rebound; for a class attribute, the class is."""
        if inspect.isclass(owner):
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, staticmethod):
                new = staticmethod(make_wrapper(raw.__func__))
            else:
                new = make_wrapper(raw)
            self._set(owner, attr, new)
            return
        orig = getattr(owner, attr)
        new = make_wrapper(orig)
        for name, mod in list(sys.modules.items()):
            if name != "fairedit" and not name.startswith("fairedit."):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, new)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


class Clock:
    """Start and end times of every call of the wrapped function."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []

    def __call__(self, fn):
        starts, ends = self.starts, self.ends

        def clocked(*args, **kwargs):
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends.append(perf_counter())
        return clocked


class Tally:
    """Call count of the wrapped function, plus the sum of
    ``measure(args, result)`` over its calls when a measure is given."""

    def __init__(self, measure=None):
        self.calls = 0
        self.total = 0
        self._measure = measure

    def __call__(self, fn):
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.calls += 1
            if self._measure is not None:
                self.total += self._measure(args, out)
            return out
        return counted


# A fixed workload, independent of the package, that mixes what its hot paths
# do: interpreted loops, sorting tuples and small NumPy scatter-adds.
_KERNEL_RNG = np.random.default_rng(12345)
_KERNEL_ROWS = _KERNEL_RNG.normal(size=(400, 16))
_KERNEL_SRC = _KERNEL_RNG.integers(0, 400, 1500)
_KERNEL_DST = _KERNEL_RNG.integers(0, 400, 1500)


def reference_kernel() -> float:
    acc = 0
    for i in range(1500):
        acc += i * i % 7
    pairs = sorted(((i * 7919) % 401, (i * 104729) % 397) for i in range(300))
    out = np.zeros_like(_KERNEL_ROWS)
    np.add.at(out, _KERNEL_DST, _KERNEL_ROWS[_KERNEL_SRC])
    return acc + len(pairs) + float(out[0, 0])


# Typical time of reference_kernel on the machine the baseline was recorded
# on (2 cores, Python 3.11, NumPy 2.4), so that reference seconds read close
# to wall seconds there; it only fixes the scale.
REFERENCE_S = 8.0e-4


class Probe:
    """Tracks how fast the machine runs while a unit of work executes.

    The machine this benchmark was built on slows every process by up to
    1.6x for seconds to minutes at a time, from load outside the process.
    Before a call of the wrapped function, at most once every EVERY_S
    seconds, the probe times ``reference_kernel``. ``scaled(a, b)`` turns the
    wall time between two ``perf_counter`` readings into reference seconds:
    time spent outside the probes, multiplied by REFERENCE_S over the median
    kernel time of the nearest probes. In 30-second runs of each workload
    there, the interquartile spread of the unit time was 15-18 % of the
    median in wall seconds (5 runs) and 3-7 % in reference seconds (10 runs).
    The kernel also runs about 10 % slower inside a unit than in a tight
    loop, so a change to the program's memory behaviour can shift the scale
    a little; wall times are reported beside reference times for that."""

    EVERY_S = 0.05
    WINDOW = 9          # probes per local median

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.begins: list[float] = []
        self.ends: list[float] = []
        self._knots = None
        reference_kernel()      # unrecorded: the first run pays one-time costs

    def __call__(self, fn):
        def probed(*args, **kwargs):
            if not self.ends or perf_counter() - self.ends[-1] >= self.EVERY_S:
                self._probe()
            return fn(*args, **kwargs)
        return probed

    def _probe(self) -> None:
        # The kernel runs twice and only the second, warm run is timed, with
        # the garbage collector off: the time then tracks the machine, not the
        # cache contents or garbage the program left behind.
        i = None if self.tracer is None else self.tracer._open("bench.probe")
        collecting = gc.isenabled()
        gc.disable()
        try:
            reference_kernel()
            b = perf_counter()
            reference_kernel()
            e = perf_counter()
        finally:
            if collecting:
                gc.enable()
            if i is not None:
                self.tracer._close(i)
        self.begins.append(b)
        self.ends.append(e)
        self._knots = None

    def kernel_seconds(self) -> np.ndarray:
        return np.asarray(self.ends) - np.asarray(self.begins)

    def _build(self):
        d = self.kernel_seconds()
        half = self.WINDOW // 2
        f = REFERENCE_S / np.array([np.median(d[max(0, i - half):i + half + 1])
                                    for i in range(len(d))])
        gaps = np.asarray(self.begins[1:]) - np.asarray(self.ends[:-1])
        acc = np.concatenate([[0.0], np.cumsum(gaps * (f[:-1] + f[1:]) / 2)])
        far = 1e6
        t = np.concatenate([[self.begins[0] - far],
                            np.column_stack([self.begins, self.ends]).ravel(),
                            [self.ends[-1] + far]])
        s = np.concatenate([[-far * f[0]], np.repeat(acc, 2),
                            [acc[-1] + far * f[-1]]])
        return t, s

    def scaled(self, a, b):
        """Reference seconds between wall times a and b (scalars or arrays)."""
        if not self.ends:
            return np.asarray(b) - np.asarray(a)
        if self._knots is None:
            self._knots = self._build()
        t, s = self._knots
        return np.interp(b, t, s) - np.interp(a, t, s)


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []   # index of the enclosing span, -1 at top
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self._stack.pop()

    def wrapper(self, name: str):
        """``make_wrapper`` for ``Patch.wrap`` that records spans named name."""
        def make(fn):
            def traced(*args, **kwargs):
                i = self._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(i)
            return traced
        return make

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        tracer = self

        class _Span:
            def __enter__(self):
                self.index = tracer._open(name)
                return self

            def __exit__(self, *exc):
                tracer._close(self.index)
        return _Span()

    def self_times(self, duration=None) -> tuple[dict, Counter]:
        """(name -> summed self seconds, name -> span count). ``duration``
        maps arrays of span starts and ends to durations; the default is
        their difference in wall seconds."""
        starts, ends = np.asarray(self.starts), np.asarray(self.ends)
        dur = ends - starts if duration is None else duration(starts, ends)
        parents = np.asarray(self.parents, dtype=np.int64)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested],
                            minlength=len(dur))
        own = dur - child
        seconds: dict = defaultdict(float)
        for name, s in zip(self.names, own.tolist()):
            seconds[name] += s
        return dict(seconds), Counter(self.names)

    def _under(self, i: int, root: int, within: str | None) -> bool:
        seen_within = within is None
        p = self.parents[i]
        while p != -1:
            if p == root:
                return seen_within
            if self.names[p] == within:
                seen_within = True
            p = self.parents[p]
        return False

    def forwards_per_epoch(self, root: int, within: str | None = None) -> dict:
        """Count ``models.forward`` spans below span ``root``, keyed by the
        training epoch they ran in. Epoch k starts with the k-th
        ``models.train_step`` span directly below root. With ``within``, only
        forwards below a span of that name count."""
        epoch_starts = [self.starts[i] for i, p in enumerate(self.parents)
                        if p == root and self.names[i] == "models.train_step"]
        counts: Counter = Counter()
        for i, name in enumerate(self.names):
            if name == "models.forward" and self._under(i, root, within):
                counts[bisect_right(epoch_starts, self.starts[i])] += 1
        return dict(counts)
