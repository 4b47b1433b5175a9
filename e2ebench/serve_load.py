"""The ``serve`` workload: a real ``repro serve`` daemon under load.

Phases, in order:

1. set-up: spawn ``repro serve --rules R --state-dir D --port 0`` on a
   fresh state dir and time spawn to ``/readyz`` 200, several times;
   the last daemon stays up;
2. warm-up, untimed: ``/repair`` calls that reach both pool workers,
   and one ``/repair/delta`` per id block, which opens the lazy delta
   session and fills it, so the mix measures steady-state upserts;
3. the mix: ``/repair`` (200-row reads) and ``/repair/delta`` (50-row
   durable upserts) alternate at one fixed offered rate, open loop on
   two connections, each request timed from when it was due;
4. the ladder: ``/repair`` open loop at rising offered rates; the
   highest rate whose p99 stays within 100 ms with every request
   answered 200 is the capacity;
5. saturation: ``/repair`` back to back on both connections (closed
   loop) in three bursts, before the mix, after it and after the
   ladder; the median of their rows per second is the daemon's
   throughput, so one slow moment of a shared host does not set it;
6. recovery: SIGKILL the daemon's process group, restart it on the
   same state dir and time spawn to ``/readyz`` 200.

Only then are outputs checked: every ``/repair`` and ``/repair/delta``
response against ``CompiledRuleSet.repair_values`` run here, every
acknowledged upsert in the restarted daemon's ``GET /repair/delta``,
and ``verify_state_dir`` on the state dir once the daemon has stopped.
"""

import asyncio
import csv
import http.client
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time

from workloads import HERE, percentile, repro_env

REPAIR_ROWS = 200
DELTA_ROWS = 50
#: the latency limit of the capacity ladder
LADDER_LIMIT_S = 0.100
CONNECTIONS = 2

FULL = {
    "mix_rate": 150.0,        # offered requests/s, both kinds together
    "per_kind": 1000,         # fewest samples per endpoint in the mix
    "setup_spawns": 5,
    "warm_repair": 20,
    "delta_blocks": 100,      # delta requests cycle over these id blocks
    "saturation_s": 2.0,      # per burst
    "ladder": (100, 150, 200, 250, 300, 400, 500),
    "rung_s": 1.5,
}
TINY = {
    "mix_rate": 40.0, "per_kind": 30, "setup_spawns": 2,
    "warm_repair": 4, "delta_blocks": 4, "saturation_s": 0.5,
    "ladder": (20, 40), "rung_s": 0.5,
}


# -- the daemon --


def group_pids(pgid):
    """Live, non-zombie processes of process group *pgid*."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def kill_group(pgid, timeout=30.0):
    """SIGKILL process group *pgid* and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + timeout
    while group_pids(pgid) and time.monotonic() < deadline:
        time.sleep(0.01)


class Daemon:
    """One ``repro serve`` process group; its pgid is logged to
    ``work/pgids`` so the parent can kill it whatever happens here."""

    def __init__(self, work, rules, state_dir, spans=None):
        self.work = work
        self.log_path = os.path.join(work, "daemon-%d.log"
                                     % len(os.listdir(work)))
        argv = ["serve", "--rules", rules, "--state-dir", state_dir,
                "--port", "0"]
        if spans is None:
            self.cmd = [sys.executable, "-m", "repro"] + argv
        else:
            self.cmd = [sys.executable, os.path.join(HERE, "tracing.py"),
                        spans] + argv
        self.proc = self.port = None

    def start(self):
        """Spawn; returns seconds from spawn to the first ``/readyz``
        200 (Σ validated and compiled, the pool warm, replay done)."""
        with open(self.log_path, "w") as log:
            spawned = time.monotonic()
            self.proc = subprocess.Popen(
                self.cmd, stdin=subprocess.DEVNULL, stdout=log,
                stderr=subprocess.STDOUT, start_new_session=True,
                env=repro_env(os.path.join(self.work, "tmp")))
        with open(os.path.join(self.work, "pgids"), "a") as handle:
            handle.write("%d\n" % self.proc.pid)
        deadline = spawned + 120
        while True:
            if self.port is None:
                with open(self.log_path) as handle:
                    for line in handle:
                        if "listening on http://" in line:
                            self.port = int(line.split("http://")[1]
                                            .split()[0].rsplit(":", 1)[1])
            if self.port is not None and \
                    http_get(self.port, "/readyz")[0] == 200:
                return time.monotonic() - spawned
            if self.proc.poll() is not None or time.monotonic() > deadline:
                with open(self.log_path) as handle:
                    raise RuntimeError("daemon not ready (exit %s):\n%s"
                                       % (self.proc.poll(),
                                          handle.read()[-2000:]))
            time.sleep(0.005)

    def peak_rss_mb(self):
        """Summed peak resident memory of the daemon and its workers."""
        total_kb = 0
        for pid in group_pids(self.proc.pid):
            try:
                with open("/proc/%d/status" % pid) as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                pass
        return total_kb / 1024.0

    def kill(self):
        if self.proc is not None:
            kill_group(self.proc.pid)
            self.proc.wait()

    def stop(self, timeout=30.0):
        """SIGTERM (graceful drain); True if it exited with code 0."""
        if self.proc is None or self.proc.poll() is not None:
            return False
        os.kill(self.proc.pid, signal.SIGTERM)
        try:
            code = self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            code = None
        self.kill()
        return code == 0


def http_get(port, path, timeout=10.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    except OSError:
        return 0, b""
    finally:
        conn.close()


def scrape(port, names):
    """Values of the named ``/metrics`` series."""
    _status, text = http_get(port, "/metrics")
    values = dict.fromkeys(names, 0.0)
    for line in text.decode().splitlines():
        name, _, value = line.rpartition(" ")
        if name in values:
            values[name] = float(value)
    return values


METRIC_SERIES = {
    "admission.shed": "repro_serve_admission_shed_total",
    "pool.fallbacks": "repro_serve_fallbacks_total",
    "supervisor.retries": "repro_serve_supervisor_chunk_retries",
}


# -- the load generator --


class Client:
    """One keep-alive HTTP/1.1 connection; reconnects after an error."""

    def __init__(self, port):
        self.port = port
        self.reader = self.writer = None

    async def post(self, path, body):
        try:
            if self.writer is None:
                self.reader, self.writer = await asyncio.open_connection(
                    "127.0.0.1", self.port)
            self.writer.write(b"POST %s HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              b"Content-Length: %d\r\n\r\n%s"
                              % (path.encode(), len(body), body))
            await self.writer.drain()
            status = int((await self.reader.readuntil(b"\r\n")).split()[1])
            length, close = 0, False
            while True:
                line = await self.reader.readuntil(b"\r\n")
                if line == b"\r\n":
                    break
                name, _, value = line.decode("latin-1").partition(":")
                name = name.strip().lower()
                if name == "content-length":
                    length = int(value)
                elif name == "connection":
                    close = value.strip().lower() == "close"
            payload = await self.reader.readexactly(length)
        except (OSError, EOFError, ValueError, IndexError,
                asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            self.close()
            return 0, b""
        if close:
            self.close()
        return status, payload

    def close(self):
        if self.writer is not None:
            self.writer.close()
        self.reader = self.writer = None


PATHS = {"repair": "/repair", "delta": "/repair/delta"}


async def _drive(port, jobs, bodies, until=None):
    """Send *jobs* ``(offset_s, kind, index)`` on two connections.

    A job posts ``bodies[kind][index]`` to ``PATHS[kind]``, due
    *offset_s* after the start.  A free connection takes the next job
    and sends it when due, so a stalled daemon makes later jobs late
    and their latency counts from when they were due.  With *until*
    set, no job is sent after that many seconds.  Returns ``(start,
    results)`` with ``(due, sent, done, status, payload)`` per job sent
    and ``None`` per job not sent.
    """
    loop = asyncio.get_running_loop()
    start = loop.time() + 0.05
    results = [None] * len(jobs)
    order = iter(range(len(jobs)))

    async def connection():
        client = Client(port)
        try:
            for i in order:
                offset, kind, index = jobs[i]
                due = start + offset
                if until is not None and loop.time() >= start + until:
                    return
                delay = due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                sent = loop.time()
                status, payload = await client.post(PATHS[kind],
                                                    bodies[kind][index])
                results[i] = (due, sent, loop.time(), status, payload)
        finally:
            client.close()

    await asyncio.gather(*(connection() for _ in range(CONNECTIONS)))
    return start, results


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        next(reader)
        return list(reader)


def run_serve(args):
    cfg = TINY if args.size == "tiny" else FULL
    rules_path = os.path.join(args.inputs, "rules.json")
    dirty = _read_rows(os.path.join(args.inputs, "dirty.csv"))
    rng = random.Random(len(dirty))
    spans = ({"main": os.path.join(args.work, "spans-main.json"),
              "restart": os.path.join(args.work, "spans-restart.json")}
             if args.trace else {})

    # Request bodies, built before any clock starts.  /repair bodies
    # split a shuffle of the whole table, so their responses make up a
    # repair of the whole table.  Delta requests cycle over id blocks,
    # so two requests in flight never upsert the same id.
    order = list(range(len(dirty)))
    rng.shuffle(order)
    repair_rows = [order[i:i + REPAIR_ROWS]
                   for i in range(0, len(order), REPAIR_ROWS)]
    rate = cfg["mix_rate"]
    per_kind = max(cfg["per_kind"], int(args.seconds * rate / 2))
    blocks = cfg["delta_blocks"]
    deltas = [{"b%d-%d" % (k % blocks, j): dirty[rng.randrange(len(dirty))]
               for j in range(DELTA_ROWS)} for k in range(blocks + per_kind)]
    bodies = {
        "repair": [json.dumps({"rows": [dirty[i] for i in idx]}).encode()
                   for idx in repair_rows],
        "delta": [json.dumps({"upserts": [
            {"id": rid, "values": values} for rid, values in d.items()]})
            .encode() for d in deltas],
    }
    n_repair = len(repair_rows)
    sent = []          # (job, result) of every request sent
    daemons = []

    def run(jobs, until=None):
        start, results = asyncio.run(_drive(port, jobs, bodies, until))
        sent.extend((job, r) for job, r in zip(jobs, results)
                    if r is not None)
        return start, [r for r in results if r is not None]

    def saturate():
        """Rows per second of ``/repair`` sent back to back."""
        start, results = run([(0.0, "repair", i % n_repair)
                              for i in range(int(cfg["saturation_s"] * 1000))],
                             until=cfg["saturation_s"])
        return len(results) * REPAIR_ROWS / (max(r[2] for r in results)
                                            - start)

    try:
        # 1. set-up
        setup_samples = []
        for k in range(cfg["setup_spawns"]):
            state_dir = os.path.join(args.work, "state-%d" % k)
            last = k == cfg["setup_spawns"] - 1
            daemon = Daemon(args.work, rules_path, state_dir,
                            spans.get("main") if last else None)
            daemons.append(daemon)
            setup_samples.append(daemon.start())
            if not last:
                daemon.kill()
        port = daemon.port

        # 2. warm-up
        run([(0.0, "repair", i % n_repair)
             for i in range(cfg["warm_repair"])]
            + [(0.0, "delta", k) for k in range(blocks)])

        saturation = [saturate()]

        # 3. the mix
        before = scrape(port, METRIC_SERIES.values())
        mix = [(k / rate, "repair", (k // 2) % n_repair) if k % 2 == 0
               else (k / rate, "delta", blocks + k // 2)
               for k in range(2 * per_kind)]
        mix_start, mix_results = run(mix)
        mix_end = time.monotonic()
        after = scrape(port, METRIC_SERIES.values())

        saturation.append(saturate())

        # 4. the ladder
        capacity, rungs = 0.0, []
        for rung_rate in cfg["ladder"]:
            _start, results = run(
                [(i / rung_rate, "repair", i % n_repair)
                 for i in range(int(rung_rate * cfg["rung_s"]))])
            p99 = percentile([r[2] - r[0] for r in results], 0.99)
            ok = all(r[3] == 200 for r in results) and \
                p99 <= LADDER_LIMIT_S
            rungs.append({"rate": rung_rate, "p99_ms": 1e3 * p99,
                          "ok": ok})
            if not ok:
                break
            capacity = rung_rate * REPAIR_ROWS

        # 5. saturation, the third burst
        saturation.append(saturate())
        peak = daemon.peak_rss_mb()

        # 6. recovery after SIGKILL
        if args.trace:  # the spans die with the daemon: ask for them
            os.kill(daemon.proc.pid, signal.SIGUSR1)
            deadline = time.monotonic() + 30
            while not os.path.exists(spans["main"]) and \
                    time.monotonic() < deadline:
                time.sleep(0.01)
        daemon.kill()
        restarted = Daemon(args.work, rules_path, state_dir,
                           spans.get("restart"))
        daemons.append(restarted)
        recover_s = restarted.start()
        status, body = http_get(restarted.port, "/repair/delta?rows=1")
        recovered = json.loads(body).get("rows_data", {}) \
            if status == 200 else {}
        stopped = restarted.stop()
    finally:
        for d in daemons:
            d.kill()

    # checks, after every clock has stopped
    from repro.core import compile_for_schema, load_ruleset
    from repro.durability import verify_state_dir
    from repro.evaluation import evaluate_repair
    from repro.relational import Table, read_csv

    rules = load_ruleset(rules_path)
    compiled = compile_for_schema(rules.schema, rules)

    def repaired(values):
        outcome = compiled.repair_values(values)
        return list(values) if outcome is None else list(outcome[0])

    expected = [[repaired(dirty[i]) for i in idx] for idx in repair_rows]
    answered = [list(row) for row in dirty]  # the daemon's repair
    failed = {"status": 0, "repair_output": 0, "delta_output": 0}
    acked = {}
    for (_offset, kind, index), r in sorted(
            sent, key=lambda item: item[0][1:]):
        if r[3] != 200:
            failed["status"] += 1
        elif kind == "repair":
            rows = json.loads(r[4])["rows"]
            if rows != expected[index]:
                failed["repair_output"] += 1
            for i, row in zip(repair_rows[index], rows):
                answered[i] = row
        else:
            want = {rid: repaired(values)
                    for rid, values in deltas[index].items()}
            got = json.loads(r[4])["rows"]
            if any(got[rid] != want.get(rid) for rid in got):
                failed["delta_output"] += 1
            acked.update(want)
    report = verify_state_dir(state_dir)
    checks = {
        "every_request_answered_200": failed["status"] == 0,
        "repair_responses_equal_repair_values":
            failed["repair_output"] == 0,
        "delta_responses_equal_repair_values": failed["delta_output"] == 0,
        "acked_upserts_survive_sigkill": all(
            recovered.get(rid) == values for rid, values in acked.items()),
        "restarted_daemon_drains_cleanly": stopped,
        "verify_state_dir_ok": bool(report.get("ok")),
    }
    clean = read_csv(os.path.join(args.inputs, "clean.csv"),
                     schema=rules.schema)
    quality = evaluate_repair(clean, Table(rules.schema, dirty),
                              Table(rules.schema, answered))

    latency = {"repair": [], "delta": []}
    for (_offset, kind, _index), r in zip(mix, mix_results):
        if r[3] == 200:
            latency[kind].append(r[2] - r[0])
    lags = [r[1] - r[0] for r in mix_results]
    rows_per_s = statistics.median(saturation)
    setup_s = statistics.median(setup_samples)
    p50 = statistics.median(latency["repair"] + latency["delta"])
    named = {
        "repair_p50_ms": [1e3 * statistics.median(latency["repair"]), "ms"],
        "repair_p99_ms": [1e3 * percentile(latency["repair"], 0.99), "ms"],
        "delta_p50_ms": [1e3 * statistics.median(latency["delta"]), "ms"],
        "delta_p99_ms": [1e3 * percentile(latency["delta"], 0.99), "ms"],
        "serve_max_rows_per_s": [capacity, "rows/s"],
        "serve_saturated_rows_per_s": [rows_per_s, "rows/s"],
        "recover_s": [recover_s, "s"],
        "setup_s": [setup_s, "s"],
        "peak_rss_mb": [peak, "MB"],
        "serve_f1": [quality.f1, "ratio"],
        "generator_lag_p50_ms": [1e3 * statistics.median(lags), "ms"],
        "generator_lag_max_ms": [1e3 * max(lags), "ms"],
    }
    result = {
        "checks": checks,
        # requests, the recovered-upserts read and the state-dir verify
        "attempted": len(sent) + 2,
        "failed": sum(failed.values())
        + (not checks["acked_upserts_survive_sigkill"])
        + (not checks["verify_state_dir_ok"]),
        "ops": len(mix), "basis_s": REPAIR_ROWS / rows_per_s,
        "metrics": {"rows_per_s": rows_per_s, "p50_ms": 1e3 * p50,
                    "setup_s": setup_s, "peak_rss_mb": peak,
                    "f1": quality.f1},
        "named": named,
        "detail": {"mix_rate": rate, "per_kind": per_kind,
                   "samples": {kind: len(v) for kind, v in latency.items()},
                   "setup_samples": setup_samples, "ladder": rungs,
                   "saturation_rows_per_s": saturation,
                   "daemon_counters": {
                       key: after[series] - before[series]
                       for key, series in METRIC_SERIES.items()}},
    }
    if args.trace:
        with open(spans["main"]) as handle:
            result["trace"] = json.load(handle)
        with open(spans["restart"]) as handle:
            result["restart_trace"] = json.load(handle)
        result["mix_window_ns"] = [int(mix_start * 1e9), int(mix_end * 1e9)]
    return result
