"""End-to-end benchmark of ``repro``: batch repair, the daemon, discovery.

    python3 e2ebench/run.py [--workload batch|serve|discover|all]
        [--seed N] [--seconds S] [--trace 0|1] [--tiny]

Run it from the root of a source checkout.  Inputs are HOSP tables made
by ``repro.datagen`` from ``--seed`` and cached in ``.bench_cache/``;
the program only sees the files.  Each workload runs in its own process
(``workloads.py``), so its memory peak and caches are its own, and
checks every output it produced.  A run that fails a check prints
``"correct": false`` with no metrics and exits 1.

Workloads:

* ``batch``: ``repro repair dirty.csv rules.json out.csv`` through
  ``repro.cli.main``: 50K rows at 8% noise, 2K seed-mined rules.  The
  compiled-Σ and consistency caches are cleared before each call, as a
  fresh CLI process has them.  CSV I/O, columnar encode and scan, and
  fix apply do the work; HTTP, the pool and discovery do none.
* ``serve``: ``repro serve --rules R --state-dir D --port 0`` in its
  own process with a pool of 2 workers, under an open-loop mix of
  ``/repair`` reads and ``/repair/delta`` durable writes, then closed
  loop at saturation, a capacity ladder, and a SIGKILL restart (see
  ``serve_load.py``).  HTTP, admission, pool IPC, the delta session and
  fsyncs do the work; csvio, columnar and discovery do none.
* ``discover``: ``DiscoverySession(dirty, fds=hosp_fds(),
  min_confidence=0.7).discover()`` on each of two 50K-row tables at 10%
  noise drawn from the seed, then ``repair_table`` with the ~40K rules
  discovered in that table, check on.  Two draws per run, because
  mining time varies from draw to draw as well as with the host.
  Mining, weighted resolution and the blocked check do the work.

End-to-end metrics (``--trace 0``) carry the same names on every
workload, as the benchmark contract asks:

* ``rows_per_s``: batch, rows / median wall of one CLI repair; serve,
  ``/repair`` rows per second with both connections busy; discover,
  rows per table / median wall of mine plus resolve over the passes;
* ``p50_ms``: batch, median wall of one CLI repair; serve, median
  latency over both endpoints in the fixed-rate mix, timed from when
  each request was due; discover, median wall of the repair with the
  discovered Σ, check included;
* ``setup_s``: median over several set-ups in one run; batch, a fresh
  interpreter imports ``repro`` and loads Σ; serve, spawn to
  ``/readyz`` 200; discover, a fresh interpreter imports ``repro`` and
  reads the dirty CSV;
* ``peak_rss_mb``: peak resident memory of the workload process; for
  serve, the daemon plus its pool workers; discover holds both tables;
* ``f1``: F1 of the repaired cells against the clean table; discover
  counts the cells of both tables.

Per-workload figures under their own names (``batch_rows_per_s``,
``repair_p99_ms``, ``delta_p50_ms``, ``serve_max_rows_per_s``,
``recover_s``, ``discover_repair_rows_per_s``, generator lag, ...) and
``failed_frac`` are printed above the result line.

``--trace 1`` runs the workload twice, untraced and then traced, and
reports per-layer metrics from the traced run: ``<layer>_s`` seconds
in each layer and ``<layer>_self_s`` seconds not covered by its child
spans, both per operation (batch: one CLI repair; discover: one pass;
serve: one request of the fixed-rate mix, except ``recovery.rebuild``,
per restart); counters per operation; ``uncovered_frac``, the share of
wall time no span covers; and ``trace_overhead_frac``, the traced run's
wall per operation over the untraced run's, minus one.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(ROOT, ".bench_cache")
WORKLOADS = ("batch", "serve", "discover")
INPUT_KIND = {"batch": "repair", "serve": "repair", "discover": "discover"}
E2E_UNITS = {"rows_per_s": "rows/s", "p50_ms": "ms", "setup_s": "s",
             "peak_rss_mb": "MB", "f1": "ratio"}
COUNTERS = ("columnar.candidates", "engine.fixes",
            "consistency.pairs_examined", "delta.rows_rechased",
            "durability.fsyncs", "discovery.candidates", "discovery.kept")
DAEMON_COUNTERS = ("admission.shed", "pool.fallbacks", "supervisor.retries")
ROOT_SPAN = {"batch": "batch.cli", "discover": "discover.pass"}
#: a workload still running after this many seconds is stopped and fails
RUN_TIMEOUT_S = 170


def kill_daemons(work):
    """SIGKILL every daemon process group the workload logged."""
    from serve_load import kill_group
    path = os.path.join(work, "pgids")
    if os.path.exists(path):
        with open(path) as handle:
            for line in handle:
                kill_group(int(line))


def run_child(name, inputs, work, args, trace, deadline):
    """Run *name* in its own process; returns its result dict."""
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    out = os.path.join(work, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), name,
           "--inputs", inputs, "--work", work, "--seconds",
           str(args.seconds), "--trace", str(trace), "--size",
           "tiny" if args.tiny else "full", "--out", out]
    from workloads import repro_env
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                            stdout=sys.stderr,
                            env=repro_env(os.path.join(work, "tmp")))
    try:
        code = proc.wait(max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.send_signal(signal.SIGTERM)  # its clean-up stops the daemon
        try:
            proc.wait(10)
        except subprocess.TimeoutExpired:
            pass
        code = "timeout"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        kill_daemons(work)
    if code != 0 or not os.path.exists(out):
        raise RuntimeError("%s workload process failed (%s)" % (name, code))
    with open(out) as handle:
        return json.load(handle)


def per_layer(name, plain, traced):
    """Per-layer metrics of a traced run, per operation."""
    from tracing import (LAYERS, request_uncovered_share, summarize,
                         uncovered_share)
    trace = traced["trace"]
    if name == "serve":
        low, high = traced["mix_window_ns"]

        def in_mix(span):
            return low <= span[1] <= high
        busy, self_s, counts = summarize(trace, in_mix)
        rbusy, rself, _ = summarize(traced["restart_trace"])
        uncovered = request_uncovered_share(trace, in_mix)
        daemon = traced["detail"]["daemon_counters"]
    else:
        busy, self_s, counts = summarize(trace)
        rbusy, rself = busy, self_s
        uncovered = uncovered_share(trace, ROOT_SPAN[name])
        daemon = {}
    ops = traced["ops"]
    metrics = {}
    for layer, _wraps in LAYERS:
        # a restart happens once per run, whatever the operations
        scale = 1.0 if layer == "recovery.rebuild" else 1.0 / ops
        source = (rbusy, rself) if layer == "recovery.rebuild" \
            else (busy, self_s)
        metrics[layer + "_s"] = source[0].get(layer, 0.0) * scale
        metrics[layer + "_self_s"] = source[1].get(layer, 0.0) * scale
    metrics["engine.apply_s"] = counts["engine.apply_s"] / ops
    for counter in COUNTERS:
        metrics[counter] = counts[counter] / ops
    candidates = counts["columnar.candidates"]
    metrics["columnar.fix_yield"] = (counts["engine.rows_changed"]
                                     / candidates if candidates else 0.0)
    for counter in DAEMON_COUNTERS:
        metrics[counter] = daemon.get(counter, 0.0)
    metrics["uncovered_frac"] = uncovered
    metrics["trace_overhead_frac"] = traced["basis_s"] / plain["basis_s"] \
        - 1.0
    return metrics


def per_layer_units():
    from tracing import LAYERS
    units = {}
    for layer, _wraps in LAYERS:
        units[layer + "_s"] = units[layer + "_self_s"] = "s"
    units["engine.apply_s"] = "s"
    for counter in COUNTERS + DAEMON_COUNTERS:
        units[counter] = "count"
    units["columnar.fix_yield"] = "ratio"
    units["uncovered_frac"] = units["trace_overhead_frac"] = "fraction"
    return units


def provenance(args, inputs):
    from inputs import describe
    from repro.core import cpus_usable
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, stdin=subprocess.DEVNULL).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {"nproc": os.cpu_count(), "cpus_usable": cpus_usable(),
            "python": platform.python_version(), "numpy": numpy_version,
            "commit": commit or "unknown", "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "inputs": describe(inputs)}


def bench(name, args, deadline):
    """Run workload *name*; returns (correct, attempted, failed, metrics)."""
    from inputs import ensure_inputs
    inputs = ensure_inputs(os.path.join(CACHE, "inputs"), INPUT_KIND[name],
                           args.seed, "tiny" if args.tiny else "full")
    work = os.path.join(CACHE, "run-%d-%s" % (os.getpid(), name))
    runs = []
    try:
        runs.append(run_child(name, inputs, work + "-plain", args, 0,
                              deadline))
        if args.trace:
            runs.append(run_child(name, inputs, work + "-traced", args, 1,
                                  deadline))
    finally:
        for suffix in ("-plain", "-traced"):
            shutil.rmtree(work + suffix, ignore_errors=True)
    plain = runs[0]
    if args.trace:
        metrics, units = per_layer(name, plain, runs[1]), per_layer_units()
    else:
        metrics, units = plain["metrics"], E2E_UNITS

    print("== %s %s" % (name, json.dumps(provenance(args, inputs),
                                         sort_keys=True)))
    correct = all(run["correct"] for run in runs)
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    for run, label in zip(runs, ("untraced", "traced")):
        for check, ok in sorted(run["checks"].items()):
            print("  check (%s) %-40s %s"
                  % (label, check, "ok" if ok else "FAILED"))
    print("  failed_frac = %.6f fraction (%d of %d operations failed)"
          % (failed / attempted, failed, attempted))
    for key, (value, unit) in sorted(plain["named"].items()):
        print("  %s = %.6g %s" % (key, value, unit))
    print("  detail: %s" % json.dumps(plain["detail"], sort_keys=True))
    if args.trace:
        print("  wall per operation: traced %.6f s, untraced %.6f s"
              % (runs[1]["basis_s"], plain["basis_s"]))
    for key in sorted(metrics):
        print("  %s = %r %s" % (key, metrics[key], units[key]))
    return correct, attempted, failed, {
        key: {"value": value, "unit": units[key]}
        for key, value in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="The module docstring of e2ebench/run.py defines every "
               "metric.")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long each workload measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs and short phases: a self-test "
                             "of every check and of the traced run")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.exists(os.path.join(src, "repro", "__init__.py")):
        print("error: no repro sources under %s; run from the root of a "
              "source checkout" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            ok, tried, bad, found = bench(
                name, args, time.monotonic() + RUN_TIMEOUT_S)
        except RuntimeError as exc:
            print("error: %s" % exc, file=sys.stderr)
            ok, tried, bad, found = False, 1, 1, {}
        correct &= ok
        attempted += tried
        failed += bad
        prefix = "" if len(names) == 1 else name + "."
        metrics.update({prefix + k: v for k, v in found.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": metrics if correct else {}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
