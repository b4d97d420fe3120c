"""Spans and counters recorded from the benchmark's side of each layer.

Nothing here edits flowprobe. Layer boundaries are public functions and
methods, replaced for the length of a run by wrappers that record a span
(name, parent, start, end) in flat arrays. The spans stay in memory until
the run ends; self time is a span's duration minus its children's.

Two kinds of wrapper exist. `Observer` wrappers sit on calls that happen a
handful of times per pipeline run (switch construction and the four attack
phases) and read exact counts from public state; they are installed in the
untraced run too, so the two runs can be compared count for count.
`Spans.wrap` sits on the hot methods and is installed only when tracing.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager


class Spans:
    """In-memory span store: one array per field, one slot per call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, split=None):
        """Return `fn` recording one span per call, named `name`.

        `split` is `(predicate, true_suffix, false_suffix)`: the suffix the
        predicate picks from the call's result is appended to the name, which
        is how hits are told from misses and evicting inserts from plain ones.
        """
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns
        if split is None:
            predicate, yes = None, self._id(name)
        else:
            predicate = split[0]
            yes, no = self._id(name + split[1]), self._id(name + split[2])

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(yes)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if predicate is not None and not predicate(result):
                names[idx] = no
            return result
        return traced

    def __len__(self) -> int:
        return len(self.start)

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        starts, ends, parents = self.start, self.end, self.parent
        child_ns = [0] * len(starts)
        for i, parent in enumerate(parents):
            if parent >= 0:
                child_ns[parent] += ends[i] - starts[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i, nid in enumerate(self.name):
            dur = ends[i] - starts[i]
            row = out[self.names[nid]]
            row["calls"] += 1
            row["s"] += dur / 1e9
            row["self_s"] += (dur - child_ns[i]) / 1e9
        return out

    def dump(self, prefix: str) -> None:
        """Write the spans to `<prefix>.bin` with a JSON index beside it."""
        fields = ("name", "parent", "start", "end")
        with open(prefix + ".bin", "wb") as handle:
            for field in fields:
                getattr(self, field).tofile(handle)
        index = {
            "names": self.names,
            "count": len(self),
            "fields": [[f, getattr(self, f).typecode] for f in fields],
            "clock": "time.perf_counter_ns",
        }
        with open(prefix + ".json", "w", encoding="utf-8") as handle:
            json.dump(index, handle)


class Observer:
    """Exact counts read from public state around switch builds and phases."""

    PHASES = ("bootstrap", "idle_timeout", "hard_timeout", "infer")

    def __init__(self, switch_cls) -> None:
        self.counts: Counter = Counter()
        self._switch_cls = switch_cls
        self._pending = None

    def build_switch(self, *args, **kwargs):
        """Stand-in for the switch class: builds one and tallies the last."""
        self.flush()
        self._pending = self._switch_cls(*args, **kwargs)
        return self._pending

    def flush(self) -> None:
        sim, self._pending = self._pending, None
        if sim is not None:
            self.tally_switch(sim)

    def tally_switch(self, sim) -> None:
        counts = self.counts
        counts["switches"] += 1
        counts["events"] += sim.events_processed
        counts["background_arrivals"] += sim.background_arrivals
        counts["probes"] += sim.events_processed - sim.background_arrivals
        log = sim.table.removal_log
        counts["removal_log_len"] += len(log)
        for reason, n in Counter(record.reason for record in log).items():
            counts[f"removed_{reason}"] += n

    def phase(self, phase: str, fn):
        """Wrap a phase function whose first argument is the ProbeSession."""
        counts = self.counts

        def observed(session, *args, **kwargs):
            probes0, now0 = session.probes_sent, session.now_us
            try:
                result = fn(session, *args, **kwargs)
            finally:
                counts[f"{phase}.calls"] += 1
                counts[f"{phase}.probes"] += session.probes_sent - probes0
                counts[f"{phase}.virtual_us"] += session.now_us - now0
            if phase == "infer":
                for field in ("n1", "n2", "probes_sent", "distinct_keys", "reinstalls"):
                    counts[f"infer.{field}"] += getattr(result, field)
            return result
        return observed


@contextmanager
def patched(replacements):
    """Set `(owner, attribute, value)` triples for the block, then restore."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
