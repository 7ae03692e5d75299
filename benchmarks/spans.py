"""In-memory spans around calls into the lacunary modules.

A span is (name, start, end, parent).  The self time of a span is its
duration minus the time its direct children cover; calls and self time
are summed per name when the run ends.

``patched`` replaces a function under every name that refers to it:
``from .x import y`` binds ``y`` separately in each importing module,
and ``checks.CHECK_FUNCTIONS`` holds the check functions in a dict, so
patching only the defining module would miss most calls.  Methods are
patched on their class.  Every replaced name is restored on exit.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager


class Tracer:
    """Records one span per wrapped call; single-threaded."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, observe=None):
        """``fn`` with a span named ``name``; ``observe(tracer, result)``
        runs on each return value, outside the span."""
        nid = self._name_id(name)
        clock = self.clock
        names, starts, ends, parents = (
            self.span_name,
            self.span_start,
            self.span_end,
            self.span_parent,
        )
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def __len__(self) -> int:
        return len(self.span_start)

    def totals(self, seconds=None) -> dict[str, dict[str, float]]:
        """name -> {calls, total_s, self_s}; ``seconds(start, end)`` gives
        a span's length (default end - start)."""
        if seconds is None:
            lengths = [end - start for start, end in zip(self.span_start, self.span_end)]
        else:
            lengths = [seconds(start, end) for start, end in zip(self.span_start, self.span_end)]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for nid, length, own in zip(
            self.span_name, lengths, self_times(lengths, self.span_parent)
        ):
            entry = out[self.names[nid]]
            entry["calls"] += 1
            entry["total_s"] += length
            entry["self_s"] += own
        return out

    def count_within(self, name: str, ancestor: str) -> int:
        """Spans named ``name`` that run inside a span named ``ancestor``."""
        if name not in self._name_ids or ancestor not in self._name_ids:
            return 0
        nid, aid = self._name_ids[name], self._name_ids[ancestor]
        # inside[i]: span i is, or runs inside, an ancestor span; parents
        # precede children, so one forward pass settles every span
        inside = array("b", bytes(len(self)))
        hits = 0
        for i, (sid, parent) in enumerate(zip(self.span_name, self.span_parent)):
            within = parent >= 0 and inside[parent]
            if sid == nid and within:
                hits += 1
            inside[i] = 1 if (within or sid == aid) else 0
        return hits

    def intervals(self, name: str, since: int = 0) -> list[tuple[float, float]]:
        """(start, end) of the spans named ``name`` from index ``since`` on."""
        nid = self._name_ids.get(name)
        return [
            (self.span_start[i], self.span_end[i])
            for i in range(since, len(self))
            if self.span_name[i] == nid
        ]

    def write(self, fh) -> None:
        """Spans as CSV: name,start_s,end_s,parent (parent -1 for a root)."""
        fh.write("name,start_s,end_s,parent\n")
        for nid, start, end, parent in zip(
            self.span_name, self.span_start, self.span_end, self.span_parent
        ):
            fh.write(f"{self.names[nid]},{start:.9f},{end:.9f},{parent}\n")


def self_times(lengths, parents) -> list[float]:
    """Length of each span minus the lengths of its direct children."""
    own = list(lengths)
    for length, parent in zip(lengths, parents):
        if parent >= 0:
            own[parent] -= length
    return own


def per_span_overhead(repeats: int = 20000) -> float:
    """Seconds one traced call adds over a bare call (best of 3)."""

    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    costs = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(repeats):
            noop()
        t1 = time.perf_counter()
        for _ in range(repeats):
            traced()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / repeats)
    return max(min(costs), 0.0)


def _resolve(qualname: str):
    """'module.func' or 'module.Class.method' inside the lacunary package."""
    parts = qualname.split(".")
    module = sys.modules[f"lacunary.{parts[0]}"]
    owner = module
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _package_namespaces():
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "lacunary" or name.startswith("lacunary.")):
            continue
        ns = vars(module)
        yield ns
        for value in list(ns.values()):
            if isinstance(value, dict) and value is not ns:
                yield value


@contextmanager
def patched(tracer: Tracer, targets, observers=None):
    """Wrap each qualified name in ``targets`` for the duration of the block.

    Module-level functions are replaced in every lacunary module namespace
    and module-level dict that holds them; methods on their class.
    """
    observers = observers or {}
    undo = []
    try:
        for qualname in targets:
            owner, attr = _resolve(qualname)
            original = vars(owner)[attr]
            wrapper = tracer.wrap(qualname, original, observers.get(qualname))
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                undo.append((owner, attr, original, True))
                continue
            for ns in _package_namespaces():
                for key, value in list(ns.items()):
                    if value is original:
                        ns[key] = wrapper
                        undo.append((ns, key, original, False))
        yield tracer
    finally:
        for owner, attr, original, is_class in reversed(undo):
            if is_class:
                setattr(owner, attr, original)
            else:
                owner[attr] = original
