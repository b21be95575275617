"""Span tracing of the rangemodes layers, installed from outside the package.

:meth:`Tracer.install` replaces the public methods of each layer class with
wrappers that record one span per call: the method, its start and end, and
the span that was open when it was called.  Spans stay in memory until
:meth:`Tracer.write`; :meth:`Tracer.uninstall` puts the original methods back.
A layer's self time is the duration of its spans minus the part covered by
their child spans.

``CountedSet.increment`` is deliberately left unwrapped: it runs once per
margin element of a modes query, so a span per call would cost more than
the work it measures, and its time stays in ``engine.modes`` self time.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

from rangemodes import BlockSizeIndex, CharSeq, CountedSet, PairTable, RangeModeEngine, SetFamily

# (layer, class, public methods traced as that layer)
LAYERS = (
    ("charseq", CharSeq, ("__init__", "__getitem__", "insert_at", "delete_at", "access_range", "to_list")),
    ("blockindex", BlockSizeIndex, ("__init__", "size_of", "to_list", "adjust", "prefix_sum",
                                    "select_prefix", "argmin_size", "argmin_size_in",
                                    "insert_slot", "delete_slot")),
    ("pairtable.build", PairTable, ("__init__",)),
    ("pairtable.apply_point", PairTable, ("apply_point",)),
    ("pairtable.shift", PairTable, ("shift_left", "shift_right")),
    ("countedset.read", PairTable, ("cell",)),
    ("countedset.read", CountedSet, ("max_entry", "count_of", "cursor", "next_entry")),
    ("engine.update", RangeModeEngine, ("insert", "delete", "move_left", "move_right")),
    ("engine.modes", RangeModeEngine, ("modes",)),
    ("setintersect", SetFamily, ("add_member", "remove_member", "enumerate_intersection")),
)


def _cells_touched(tracer: "Tracer", args: tuple, result) -> None:
    table, j = args[0], args[1]
    tracer.counts["cells_touched"] += (j + 1) * (table.slots - j)


def _margin_elems(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["margin_elems"] += len(result)


def _modes_output(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["modes_output"] += len(result.modes)


def _table_built(tracer: "Tracer", args: tuple, result) -> None:
    tracer.table = args[0]


# Work counted from the arguments or result of a call, keyed by span name.
HOOKS = {
    "PairTable.apply_point": _cells_touched,
    "CharSeq.access_range": _margin_elems,
    "RangeModeEngine.modes": _modes_output,
    "PairTable.__init__": _table_built,
}


class Tracer:
    """In-memory span recorder over the wrapped layer methods."""

    def __init__(self) -> None:
        self.span_names: list[str] = []  # span name of each name id
        self.layer_of: dict[str, str] = {}  # layer of each span name
        # One entry per span, in call order: name id, parent span (-1 at the
        # top), start and end in ns.  Arrays keep a long trace compact.
        self.names = array("q")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.counts: Counter = Counter()
        self.table: PairTable | None = None  # the last table built
        self._stack = [-1]
        self._saved: list[tuple[type, str, object]] = []

    def install(self) -> None:
        for layer, cls, methods in LAYERS:
            for method in methods:
                original = cls.__dict__[method]
                self._saved.append((cls, method, original))
                setattr(cls, method, self._wrap(original, f"{cls.__name__}.{method}", layer))

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._saved):
            setattr(cls, method, original)
        self._saved.clear()

    def _wrap(self, fn, span_name: str, layer: str):
        name_id = len(self.span_names)
        self.span_names.append(span_name)
        self.layer_of[span_name] = layer
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, hook, clock = self._stack, HOOKS.get(span_name), time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def mark(self) -> int:
        """Start a new phase: clear the counts and return the next span index."""
        self.counts.clear()
        return len(self.starts)

    def self_times(self, first: int = 0, roots: frozenset[str] | None = None) -> tuple[Counter, Counter]:
        """Self nanoseconds and call counts per span name, for spans ``first`` onward.

        With ``roots``, only spans called (directly or not) from a top-level
        span of one of those names count; checks the caller makes between
        ops, such as ``audit()``, are then left out.
        """
        starts, ends, parents, names, span_names = self.starts, self.ends, self.parents, self.names, self.span_names
        child = [0] * len(starts)
        root = list(range(len(starts)))
        for span in range(first, len(starts)):
            parent = parents[span]
            if parent >= first:
                child[parent] += ends[span] - starts[span]
                root[span] = root[parent]
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        for span in range(first, len(starts)):
            if roots is not None and span_names[names[root[span]]] not in roots:
                continue
            name = span_names[names[span]]
            self_ns[name] += ends[span] - starts[span] - child[span]
            calls[name] += 1
        return self_ns, calls

    def write(self, path) -> None:
        """Write every span as CSV: id, parent id, name, start and end in ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write("id,parent,name,start_ns,end_ns\n")
            for span, (name, parent, start, end) in enumerate(
                zip(self.names, self.parents, self.starts, self.ends)
            ):
                out.write(f"{span},{parent},{self.span_names[name]},{start},{end}\n")
