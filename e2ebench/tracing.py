"""Span tracing for the benchmark's traced runs, installed from outside.

:func:`install` wraps public functions of ``repro`` so that each call
records a span: ``[name, start_ns, end_ns, span_id, parent_id,
request_id, count]``.  Each name is patched where its caller looks it
up.  ``CompiledRuleSet.repair_values`` runs once per row, so it gets no
span: its time, calls, changed rows and fixes are summed into the
enclosing span instead.  Untraced runs never import this module.

Run as a script, it is the traced entry point of the daemon::

    python3 e2ebench/tracing.py SPANS.json serve --rules R --port 0 ...

It installs the wrappers, calls ``repro.cli.main`` with the remaining
arguments, and writes the spans to ``SPANS.json`` on exit and whenever
it receives SIGUSR1.  Pool workers fork from it, but only this
process writes spans, so ``pool.dispatch`` covers worker compute plus
IPC.  Times come from ``time.monotonic_ns`` (CLOCK_MONOTONIC), which
the load generator reads too.
"""

import asyncio
import contextlib
import contextvars
import functools
import itertools
import json
import os
import signal
import sys
import threading
from collections import defaultdict
from time import monotonic_ns

#: (span id, span name, enclosing entry) of the innermost open span
_CURRENT = contextvars.ContextVar("e2ebench_span", default=None)
#: id of the HTTP request being served
_REQUEST = contextvars.ContextVar("e2ebench_request", default=None)

#: span-timed layers in report order, with the call each one wraps
LAYERS = (
    ("csvio.read", "repro.cli.read_csv"),
    ("csvio.write", "repro.cli.write_csv"),
    ("serialization.load", "repro.cli.load_ruleset"),
    ("engine.compile", "compile_for_schema, compile_cached"),
    ("columnar.encode", "ColumnarTable.from_rows"),
    ("columnar.scan", "ColumnarKernel.candidate_indices"),
    ("consistency.check", "find_conflicts_cached, find_conflicts"),
    ("httpio.read", "read_request"),
    ("httpio.json_decode", "Request.json"),
    ("httpio.encode", "json_response"),
    ("admission.wait", "AdmissionController.__aenter__"),
    ("pool.dispatch", "ServePool.repair"),
    ("delta.apply", "DeltaRepairSession.apply_rows"),
    ("durability.append", "StateStore.append"),
    ("durability.fsync", "durable_fsync"),
    ("recovery.rebuild", "RecoveryManager.rebuild"),
    ("discovery.mine", "mine_candidates"),
    ("discovery.resolve", "resolve_by_weight"),
)
#: counters read from the ``count`` field of one layer's spans
SPAN_COUNTERS = {
    "columnar.candidates": "columnar.scan",
    "consistency.pairs_examined": "consistency.check",
    "delta.rows_rechased": "delta.apply",
    "discovery.candidates": "discovery.mine",
    "discovery.kept": "discovery.resolve",
}


class Tracer:
    """Spans of one process, kept in memory until :meth:`dump`."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans = []
        #: enclosing span id -> [ns, calls, rows changed, fixes] of
        #: repair_values
        self.apply = defaultdict(lambda: [0, 0, 0, 0])
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def open(self, name):
        """Open a span; ``None`` inside a span of the same name, so a
        layer calling itself (compile_cached -> compile_for_schema) is
        one span."""
        entry = _CURRENT.get()
        outer = entry
        while outer is not None:
            if outer[1] == name:
                return None
            outer = outer[2]
        span_id = next(self._ids)
        token = _CURRENT.set((span_id, name, entry))
        return [name, monotonic_ns(), 0, span_id,
                entry[0] if entry else None, _REQUEST.get(), 0, token]

    def close(self, record, count=0):
        record[2] = monotonic_ns()
        _CURRENT.reset(record.pop())
        record[6] = count
        with self._lock:
            self.spans.append(record)

    def span(self, name, fn, count=None):
        """*fn* wrapped in a span; ``count(result)`` fills its count."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self.open(name)
            if record is None:
                return fn(*args, **kwargs)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(record, count(result) if count and
                           result is not None else 0)
        return wrapper

    def async_span(self, name, fn):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            record = self.open(name)
            try:
                return await fn(*args, **kwargs)
            finally:
                if record is not None:
                    self.close(record)
        return wrapper

    @contextlib.contextmanager
    def root(self, name):
        """A benchmark-owned span around one workload operation."""
        record = self.open(name)
        try:
            yield
        finally:
            self.close(record)

    def snapshot(self):
        with self._lock:
            return {"spans": [list(s) for s in self.spans],
                    "apply": {str(k): list(v)
                              for k, v in self.apply.items()}}

    def dump(self, path):
        """Write the spans atomically; forked pool workers never do."""
        if os.getpid() != self.pid:
            return
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(tmp, path)


def _patch(owner, attr, make):
    setattr(owner, attr, make(getattr(owner, attr)))


def install(tracer):
    """Wrap every layer of :data:`LAYERS`; returns *tracer*."""
    import repro.cli as cli
    import repro.core.columnar as columnar
    import repro.core.consistency as consistency
    import repro.core.engine as engine
    import repro.core.repair as repair
    import repro.core.stream as stream
    import repro.discovery.resolve as resolve
    import repro.discovery.session as session
    import repro.durability.faults as faults
    import repro.durability.store as store
    import repro.serve.registry as registry
    import repro.serve.server as server
    from repro.core.delta import DeltaRepairSession
    from repro.core.instrumentation import ENGINE_STATS
    from repro.durability.recovery import RecoveryManager
    from repro.serve.admission import AdmissionController
    from repro.serve.httpio import Request
    from repro.serve.pool import ServePool

    def span(name, count=None):
        return lambda fn: tracer.span(name, fn, count)

    _patch(cli, "read_csv", span("csvio.read"))
    _patch(cli, "write_csv", span("csvio.write"))
    _patch(cli, "load_ruleset", span("serialization.load"))
    for module in (engine, repair, columnar, stream):
        _patch(module, "compile_for_schema", span("engine.compile"))
    for module in (engine, registry):
        _patch(module, "compile_cached", span("engine.compile"))

    def checked(fn):
        # pairs examined by the outermost check, read off ENGINE_STATS
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = tracer.open("consistency.check")
            if record is None:
                return fn(*args, **kwargs)
            before = ENGINE_STATS.pairs_examined
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(record, ENGINE_STATS.pairs_examined - before)
        return wrapper

    # repair, delta and stream import find_conflicts_cached lazily from
    # consistency; registry and server bind it at import time
    for module in (consistency, registry, server, stream):
        _patch(module, "find_conflicts_cached", checked)
    for module in (consistency, resolve):
        _patch(module, "find_conflicts", checked)

    from_rows = columnar.ColumnarTable.__dict__["from_rows"].__func__
    columnar.ColumnarTable.from_rows = classmethod(
        tracer.span("columnar.encode", from_rows))
    _patch(columnar.ColumnarKernel, "candidate_indices",
           span("columnar.scan", len))

    repair_values = engine.CompiledRuleSet.repair_values

    @functools.wraps(repair_values)
    def traced_repair_values(self, values):
        started = monotonic_ns()
        outcome = repair_values(self, values)
        elapsed = monotonic_ns() - started
        entry = _CURRENT.get()
        with tracer._lock:
            totals = tracer.apply[entry[0] if entry else None]
            totals[0] += elapsed
            totals[1] += 1
            if outcome is not None:
                totals[2] += 1
                totals[3] += len(outcome[1])
        return outcome

    engine.CompiledRuleSet.repair_values = traced_repair_values

    read_request = server.read_request

    @functools.wraps(read_request)
    async def traced_read_request(reader, *args, **kwargs):
        # A keep-alive connection idles in read_request until the
        # client's next request; that wait is the client's, so the span
        # starts once the request's first bytes are buffered.
        if not reader._buffer and not reader.at_eof():
            await reader._wait_for_data("read_request")
        _REQUEST.set("%d-%d" % (tracer.pid, next(tracer._ids)))
        record = tracer.open("httpio.read")
        try:
            return await read_request(reader, *args, **kwargs)
        finally:
            tracer.close(record)

    server.read_request = traced_read_request
    _patch(Request, "json", span("httpio.json_decode"))
    _patch(server, "json_response", span("httpio.encode"))
    _patch(AdmissionController, "__aenter__",
           lambda fn: tracer.async_span("admission.wait", fn))
    _patch(ServePool, "repair", span("pool.dispatch"))
    _patch(DeltaRepairSession, "apply_rows",
           span("delta.apply", lambda outcome: len(outcome.affected)))
    _patch(store.StateStore, "append", span("durability.append"))
    # delta imports durable_fsync lazily from faults; store binds it
    for module in (faults, store):
        _patch(module, "durable_fsync", span("durability.fsync"))
    _patch(RecoveryManager, "rebuild", span("recovery.rebuild"))
    _patch(session, "mine_candidates",
           span("discovery.mine", lambda result: len(result.candidates)))
    _patch(session, "resolve_by_weight", span("discovery.resolve", len))

    # Executor threads do not inherit context variables; carry the
    # request id and the enclosing span across run_in_executor, as
    # asyncio.to_thread does.
    run_in_executor = asyncio.base_events.BaseEventLoop.run_in_executor

    def traced_run_in_executor(self, executor, func, *args):
        return run_in_executor(self, executor,
                               contextvars.copy_context().run, func, *args)

    asyncio.base_events.BaseEventLoop.run_in_executor = \
        traced_run_in_executor
    return tracer


# -- aggregation --


def _union_ns(intervals):
    total, end = 0, None
    for start, stop in sorted(intervals):
        if end is None or start > end:
            total += stop - start
            end = stop
        elif stop > end:
            total += stop - end
            end = stop
    return total


def summarize(trace, keep=lambda span: True):
    """Per-layer totals of the spans *keep* selects.

    Returns ``(busy_s, self_s, counts)``: seconds spent in each span
    name, seconds not covered by its child spans or by the
    ``repair_values`` time summed into it, and the counters of
    :data:`SPAN_COUNTERS` plus ``durability.fsyncs`` and the summed
    ``engine.*`` figures.
    """
    spans = [s for s in trace["spans"] if keep(s)]
    apply = trace["apply"]
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append((s[1], s[2]))
    busy, self_s = defaultdict(float), defaultdict(float)
    counts = defaultdict(int)
    engine = [0, 0, 0, 0]
    for s in spans:
        ns, calls, changed, fixes = apply.get(str(s[3]), (0, 0, 0, 0))
        duration = s[2] - s[1]
        covered = _union_ns(children.get(s[3], ())) + ns
        busy[s[0]] += duration / 1e9
        self_s[s[0]] += max(0, duration - covered) / 1e9
        counts[s[0]] += s[6]
        for i, value in enumerate((ns, calls, changed, fixes)):
            engine[i] += value
    out = {name: counts[layer] for name, layer in SPAN_COUNTERS.items()}
    out["durability.fsyncs"] = sum(1 for s in spans
                                   if s[0] == "durability.fsync")
    out["engine.apply_s"] = engine[0] / 1e9
    out["engine.rows_changed"] = engine[2]
    out["engine.fixes"] = engine[3]
    return busy, self_s, out


def uncovered_share(trace, root):
    """Share of the *root* spans' wall time that no child span covers."""
    busy, self_s, _ = summarize(trace)
    return self_s[root] / busy[root] if busy[root] else 0.0


def request_uncovered_share(trace, keep):
    """Share of served requests' wall time that no span covers.

    A request's wall runs from its first span's start to its last
    span's end; every span carrying its request id covers part of it.
    """
    by_request = defaultdict(list)
    for s in trace["spans"]:
        if s[5] is not None and keep(s):
            by_request[s[5]].append(s)
    wall = covered = 0
    for group in by_request.values():
        wall += max(s[2] for s in group) - min(s[1] for s in group)
        covered += _union_ns([(s[1], s[2]) for s in group])
    return 1.0 - covered / wall if wall else 0.0


def main(argv):
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = install(Tracer())
    signal.signal(signal.SIGUSR1, lambda *_: tracer.dump(spans_path))
    import repro.cli
    try:
        return repro.cli.main(cli_argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
