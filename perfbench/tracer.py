"""Run the clfmetrics CLI once, in process, with spans between its layers.

Usage: python3 perfbench/tracer.py SPANS_JSON RUN_ID [--memory] -- CLI_ARGS...

The CLI's own ``main`` runs unchanged. Before it starts, every public function
that one layer module (cli, ingest, confusion, proba, metrics, report) imports
from another is replaced, in the importing module, by a wrapper that records a
span around the call. Construction of ConfusionMatrix and ProbRecord is timed
the same way, and an iterator that crosses a layer boundary is wrapped in a
timing iterator that pulls bounded chunks, so streams stay streams. Spans are
kept in memory and written to SPANS_JSON when the run ends; the report goes
to stdout exactly as the CLI writes it.

With --memory, tracemalloc runs and the JSON also holds the traced-memory
peak seen while ingest code was running; span times from such a run are not
used, because tracemalloc slows every allocation.
"""

from __future__ import annotations

# Only modules the interpreter has loaded at start-up are imported here, so the
# cli.import span pays for everything clfmetrics itself pulls in.
import importlib
import os
import sys
import time
import weakref
from itertools import islice

perf = time.perf_counter
LAYERS = ("cli", "ingest", "confusion", "proba", "metrics", "report")
CHUNK = 1024  # rows pulled per timed step of a wrapped stream
# Constructors timed as spans of their own, one span per (class, caller): records are many.
TIMED_CLASSES = (("confusion", "ConfusionMatrix"), ("proba", "ProbRecord"))


class Tracer:
    """In-memory spans: [name, start, end, parent index, busy seconds, calls]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.aggregates: dict[tuple[str, int | None], int] = {}
        self.streams = weakref.WeakSet()  # iterators this tracer already times
        self.counters = {"ingest.rows": 0, "ingest.bytes": 0, "report.bytes_out": 0}
        self.tracemalloc = None  # the module, in a --memory run
        self.ingest_peak = 0

    def current(self) -> str:
        return self.spans[self.stack[-1]][0] if self.stack else "cli.main"

    def open(self, name: str) -> int:
        if self.tracemalloc and name.startswith("ingest."):
            self.tracemalloc.reset_peak()
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else None, 0.0, 1])
        self.stack.append(index)
        self.spans[index][1] = perf()
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = perf()
        span[4] = span[2] - span[1]
        self.stack.pop()
        if self.tracemalloc and span[0].startswith("ingest."):
            self.ingest_peak = max(self.ingest_peak, self.tracemalloc.get_traced_memory()[1])

    def add(self, name: str, start: float, end: float) -> None:
        """Fold one short call into a single span per (name, parent)."""
        parent = self.stack[-1] if self.stack else None
        index = self.aggregates.get((name, parent))
        if index is None:
            index = self.aggregates[(name, parent)] = len(self.spans)
            self.spans.append([name, start, end, parent, 0.0, 0])
        span = self.spans[index]
        span[2] = end
        span[4] += end - start
        span[5] += 1

    def stream(self, name: str, inner):
        """A timing iterator over inner: each bounded chunk pull is a span called name."""
        timed = self._pull(name, iter(inner))
        self.streams.add(timed)
        return timed

    def _pull(self, name: str, inner):
        ingest = name.startswith("ingest.")
        while True:
            index = self.open(name)
            try:
                chunk = list(islice(inner, CHUNK))
            finally:
                self.close(index)
            if not chunk:
                return
            if ingest:
                self.counters["ingest.rows"] += len(chunk)
            yield from chunk

    def wrap_function(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        tracer = self

        def traced(*args, **kwargs):
            # An iterator argument is pulled inside the callee; that time is the caller's work.
            caller = tracer.current()
            args = tuple(
                tracer.stream(caller, a) if tracer.is_untimed_stream(a) else a for a in args
            )
            if layer == "ingest" and args and isinstance(args[0], str):
                tracer.counters["ingest.bytes"] += os.path.getsize(args[0])
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            return tracer.wrap_result(layer, name, result)

        return traced

    def wrap_result(self, layer: str, name: str, result):
        if layer == "report" and isinstance(result, (bytes, str)):
            self.counters["report.bytes_out"] += len(result)
        if layer != "ingest":
            return result
        if self.is_untimed_stream(result):
            return self.stream(name, result)
        if isinstance(result, list):
            self.counters["ingest.rows"] += len(result)
        if isinstance(result, tuple):
            return tuple(self.wrap_result(layer, name, item) for item in result)
        return result

    def time_constructor(self, cls, name: str) -> None:
        init = cls.__init__
        tracer = self

        def __init__(self, *args, **kwargs):
            start = perf()
            try:
                init(self, *args, **kwargs)
            finally:
                tracer.add(name, start, perf())

        cls.__init__ = __init__

    def is_untimed_stream(self, value) -> bool:
        """A one-shot iterator (a generator, say) that no span times yet."""
        return hasattr(value, "__next__") and value not in self.streams

    def as_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": self.spans,
            "counters": self.counters,
            "ingest_peak_bytes": self.ingest_peak if self.tracemalloc else None,
        }


def instrument(tracer: Tracer, modules: dict) -> None:
    """Wrap every cross-layer call site and the timed constructors."""
    import inspect

    wrappers = {}
    owner = {module.__name__: layer for layer, module in modules.items()}
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            layer = owner.get(value.__module__)
            if layer is None or value.__module__ == module.__name__:
                continue
            if value not in wrappers:
                wrappers[value] = tracer.wrap_function(layer, value)
            setattr(module, attr, wrappers[value])
    for layer, cls_name in TIMED_CLASSES:
        cls = getattr(modules[layer], cls_name, None)
        if cls is not None:
            tracer.time_constructor(cls, f"{layer}.{cls_name}")


def main(argv: list[str]):
    spans_path, run_id, *rest = argv
    memory = rest[0] == "--memory"
    cli_args = rest[rest.index("--") + 1:]
    tracer = Tracer(run_id)

    index = tracer.open("cli.import")
    modules = {layer: importlib.import_module(f"clfmetrics.{layer}") for layer in LAYERS}
    tracer.close(index)

    import json
    import tracemalloc

    instrument(tracer, modules)
    if memory:
        tracer.tracemalloc = tracemalloc
        tracemalloc.start()
    index = tracer.open("cli.main")
    try:
        code = modules["cli"].main(cli_args)
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.close(index)
        if memory:
            tracemalloc.stop()
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.as_json(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
