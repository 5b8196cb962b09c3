#!/usr/bin/env python3
"""End-to-end benchmark of the tsg_serve daemon over TCP.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds tsg_serve and the in-process probe from the checkout (into
.bench_build/), generates the workload's designs from the seed, starts the
daemon with default flags, and drives one of three traffic mixes through the
real event-loop transport from this single process (at most 4 connections).
Every response is verified; see README.md for the metrics and workloads.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same traffic,
then replays the logged stream in-process through perfbench_probe, timing
each layer's public functions from the outside, and prints the per-layer
metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Any failed or incorrect
response makes the exit code 1.
"""

import argparse
import collections
import json
import math
import os
import random
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
DAEMON = BUILD / "tsg" / "tsg_serve"
PROBE = BUILD / "perfbench_probe"

WRITE_BUFFER_CAP = 8 << 20  # net::connection_limits::write_buffer_cap
SETUPS = 15                 # daemon start-ups per run; setup_s is their median
REQUEST_TIMEOUT_S = 60.0

# Per workload: loop type, connections, designs (name, events), the latency
# percentile reported as latency_tail_ms, and how many equal windows the
# measured phase is cut into for the latency quantiles (each window's exact
# quantile, median across windows).  The tail is the highest of p99/p95/p90
# with >= 10 samples beyond it at the run length in BENCHMARK.json (25 s,
# where bulk_stats serves about 125 requests).  The closed loops rotate
# through several designs (designer_session: 48 per connection, bulk_stats:
# 4 pairs) so one run averages over many random designs' costs.
DESIGNER_ROTATION = 48
BULK_ROTATION = 4
WORKLOADS = {
    "designer_session": {"loop": "closed", "conns": 2, "tail": 0.99, "windows": 1,
                         "warmup": 24, "designs": [(f"c{c}d{k}", 256) for c in range(2)
                                                   for k in range(DESIGNER_ROTATION)]},
    "mc_fanin": {"loop": "open", "conns": 4, "tail": 0.99, "windows": 5, "warmup": 200,
                 "rate": 600.0, "designs": [("shared", 256)]},
    "bulk_stats": {"loop": "closed", "conns": 1, "tail": 0.90, "windows": 1, "warmup": 5,
                   "designs": [(f"big{k}", 1024) for k in range(BULK_ROTATION)] +
                              [(f"small{k}", 256) for k in range(BULK_ROTATION)]},
}

KINDS = ["analyze", "edit", "criticality", "report_topk", "optimize", "montecarlo",
         "montecarlo_adaptive", "sweep"]


class BenchError(Exception):
    pass


# --- build -------------------------------------------------------------------


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "core").is_dir():
        raise BenchError(f"the repository sources are not next to {BENCH.name}/; "
                         "run from the root of a full checkout")
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    with open(log, "w") as out:
        if not (BUILD / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = ["cmake", "-S", str(BENCH), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release", *generator]
            if subprocess.run(configure, stdout=out, stderr=subprocess.STDOUT).returncode:
                raise BenchError(f"cmake configure failed (see {log})")
        compile_cmd = ["cmake", "--build", str(BUILD), "--target", "tsg_serve",
                       "perfbench_probe", "-j", "4"]
        if subprocess.run(compile_cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
            raise BenchError(f"build failed (see {log})")


# --- inputs ------------------------------------------------------------------


def request(rid, kind, design, **options):
    options.setdefault("solver", "border")  # witness identity independent of threads
    return {"api_version": 1, "id": rid, "kind": kind, "design": {"id": design},
            "options": options}


def generate_designs(workdir, workload, rng):
    specs = [f"{name}:{events}:{rng.randrange(1, 1 << 31)}"
             for name, events in WORKLOADS[workload]["designs"]]
    out = subprocess.run([str(PROBE), "gen", str(workdir), *specs], capture_output=True,
                         text=True, check=True).stdout
    return {d["name"]: d for d in map(json.loads, out.splitlines())}


def designer_stream(conn, arcs, rng):
    """One designer at a CAD session on designs of their own, one 24-request
    period each in turn: delay edits with re-analysis, a small criticality
    run, and a top-K report or an optimization.  The heavy requests' cost
    differs a lot between random designs, so a run visits each design once
    or twice and averages over all of them."""
    period = (["edit", "edit", "analyze"] * 7) + ["criticality", "analyze", "heavy"]
    i = 0
    visit = 0
    while True:
        for k in range(DESIGNER_ROTATION):
            design = f"c{conn}d{k}"
            for step in period:
                rid = f"{conn}-{i}"
                i += 1
                if step == "edit":
                    batches = [[{"op": "set_delay", "arc": rng.randrange(arcs[design]),
                                 "delay": f"{rng.randint(1, 20)}/2"}
                                for _ in range(rng.randint(1, 2))]
                               for _ in range(2)]
                    yield {"api_version": 1, "id": rid, "kind": "edit",
                           "design": {"id": design}, "edits": {"batches": batches}}
                elif step == "analyze":
                    yield request(rid, "analyze", design)
                elif step == "criticality":
                    yield request(rid, "criticality", design, samples=64, with_slack=False,
                                  seed=rng.randrange(1, 1 << 40))
                elif (visit + k) % 2 == 0:
                    # Each design alternates the two heavy kinds on its
                    # successive visits, so every design's cost of each counts.
                    yield request(rid, "optimize", design, budget="4", step="1")
                else:
                    yield request(rid, "report_topk", design, k=3)
        visit += 1


def bulk_stream(rng):
    """Batch statistics on n=1024 plus a full-outcome sweep on n=256, one
    design pair per cycle in turn.  Every body differs (fresh seeds and
    sweep factors), so nothing is cached."""
    i = 0
    while True:
        for k in range(BULK_ROTATION):
            big, small = f"big{k}", f"small{k}"
            for kind in ("mc", "adaptive", "criticality", "sweep_stats", "sweep_full"):
                rid = f"0-{i}"
                i += 1
                seed = rng.randrange(1, 1 << 40)
                factor = f"{500 + i % 1500}/10000"  # distinct within a run
                if kind == "mc":
                    yield request(rid, "montecarlo", big, samples=4096, seed=seed,
                                  with_slack=False, with_witness=False)
                elif kind == "adaptive":
                    yield request(rid, "montecarlo", big, adaptive=True, epsilon=0.6,
                                  samples=16384, seed=seed, with_slack=False,
                                  with_witness=False)
                elif kind == "criticality":
                    yield request(rid, "criticality", big, samples=512, seed=seed,
                                  with_slack=False)
                elif kind == "sweep_stats":
                    yield request(rid, "sweep", big, factor=factor, with_slack=False,
                                  with_witness=False)
                else:
                    yield request(rid, "sweep", small, factor=factor)


def mc_fanin_schedule(rng, rate, seconds, first_id):
    """Open-loop arrivals: bursts of 1..7 requests (mean 4) with exponential
    gaps, scaled so the schedule spans exactly `seconds` at `rate`.  About a
    quarter of the requests repeat one of the last 32 distinct bodies (new
    id, same content) -- recent enough to still sit in the payload cache."""
    n = max(1, int(rate * seconds))
    times = []
    t = 0.0
    while len(times) < n:
        t += rng.expovariate(rate / 4.0)
        for k in range(rng.randint(1, 7)):
            times.append(t + k * 20e-6)
    times = times[:n]
    scale = seconds / times[-1] if times[-1] > 0 else 1.0
    bodies = []
    schedule = []
    for j, due in enumerate(times):
        conn = rng.randrange(4)
        rid = f"{conn}-{first_id + j}"
        if bodies and rng.random() < 0.25:
            body = dict(rng.choice(bodies[-32:]), id=rid)
        else:
            body = request(rid, "montecarlo", "shared", samples=rng.randint(4, 8),
                           seed=rng.randrange(1, 1 << 40), with_slack=False,
                           with_witness=False)
            bodies.append(body)
        schedule.append((due * scale, conn, body))
    return schedule


# --- the daemon --------------------------------------------------------------


def start_daemon(designs_dir, names):
    """Spawns tsg_serve with default flags and waits for its first health
    answer.  Returns (process, port, seconds from spawn to that answer)."""
    args = [str(DAEMON), "--port", "0"]
    for name in names:
        args += ["--design", f"{name}={designs_dir / (name + '.tsg')}"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(args, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        line = proc.stderr.readline().decode()
        if "listening on 127.0.0.1:" not in line:
            raise BenchError(f"tsg_serve did not start: {line.strip()}")
        port = int(line.split("127.0.0.1:")[1].split()[0])
        answer = call(port, {"api_version": 1, "id": "health", "kind": "health"})
        elapsed = time.perf_counter() - t0
        if not answer.get("ok") or answer["payload"]["status"] != "ok":
            raise BenchError(f"health probe failed: {answer}")
    except BaseException:
        stop_daemon(proc)
        raise
    return proc, port, elapsed


def stop_daemon(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stderr.close()


def call(port, body):
    with socket.create_connection(("127.0.0.1", port), timeout=REQUEST_TIMEOUT_S) as s:
        s.sendall((json.dumps(body) + "\n").encode())
        data = bytearray()
        while not data.endswith(b"\n"):
            chunk = s.recv(1 << 16)
            if not chunk:
                raise BenchError("daemon closed the connection mid-response")
            data += chunk
    return json.loads(data)


def cpu_seconds(pid):
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("VmHWM missing from /proc status")


# --- the load generator ------------------------------------------------------


class Sample:
    __slots__ = ("body", "text", "due", "sent", "done", "line", "error", "measured")

    def __init__(self, body, due, measured):
        self.body = body
        self.text = json.dumps(body, separators=(",", ":"))
        self.due = due
        self.sent = None
        self.done = None
        self.line = None
        self.error = None
        self.measured = measured


class Conn:
    def __init__(self, port, index, selector):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.index = index
        self.selector = selector
        self.out = bytearray()
        self.buf = bytearray()
        self.scan = 0
        self.pending = collections.deque()
        self.idle_since = time.perf_counter()
        self.closed = False
        selector.register(self.sock, selectors.EVENT_READ, self)

    def send(self, sample, now):
        sample.sent = now
        self.pending.append(sample)
        self.out += sample.text.encode() + b"\n"
        self.flush()

    def flush(self):
        if self.out:
            try:
                n = self.sock.send(self.out)
                del self.out[:n]
            except BlockingIOError:
                pass
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if self.out else 0)
        self.selector.modify(self.sock, events, self)

    def receive(self, now):
        """Reads what arrived and completes the samples it answers."""
        try:
            data = self.sock.recv(1 << 20)
        except BlockingIOError:
            return
        if not data:
            self.fail_all("connection closed before the response completed")
            return
        self.buf += data
        while True:
            nl = self.buf.find(b"\n", self.scan)
            if nl < 0:
                self.scan = len(self.buf)
                break
            line = bytes(self.buf[:nl])
            del self.buf[:nl + 1]
            self.scan = 0
            if not self.pending:
                raise BenchError("response without a request")
            sample = self.pending.popleft()
            sample.done = now
            sample.line = line
        if not self.pending:
            self.idle_since = now

    def fail_all(self, reason):
        for sample in self.pending:
            sample.error = reason
        self.pending.clear()
        self.close()

    def close(self):
        if not self.closed:
            self.selector.unregister(self.sock)
            self.sock.close()
            self.closed = True


def drive(port, nconns, loop, streams, schedule, warmup, seconds, mark):
    """Runs warm-up then the measured phase.  Closed loop: each connection
    sends its next request when the previous one completes; warm-up is the
    first `warmup` requests per connection.  Open loop: `streams` lists the
    warm-up and `schedule` the measured phase as (offset, conn, body).
    mark("start") and mark("end") run at the measured phase's boundaries.
    Returns (samples, t0, t_end, generator lags in seconds)."""
    selector = selectors.DefaultSelector()
    conns = [Conn(port, i, selector) for i in range(nconns)]
    samples = []
    lags = []
    try:
        def pump(timeout):
            for key, events in selector.select(timeout):
                c = key.data
                if events & selectors.EVENT_WRITE:
                    c.flush()
                if events & selectors.EVENT_READ:
                    c.receive(time.perf_counter())

        def wait_all(deadline):
            while any(c.pending for c in conns if not c.closed):
                if time.perf_counter() > deadline:
                    for c in conns:
                        c.fail_all("timed out waiting for the response")
                    break
                pump(0.05)

        if loop == "closed":
            sent = [0] * nconns
            t0 = None
            stop = None
            while True:
                now = time.perf_counter()
                if t0 is None and all(s >= warmup for s in sent) and \
                        not any(c.pending for c in conns):
                    mark("start")
                    t0 = time.perf_counter()
                    stop = t0 + seconds
                for c in conns:
                    if c.closed or c.pending:
                        continue
                    if t0 is None and sent[c.index] >= warmup:
                        continue
                    if stop is not None and now >= stop:
                        continue
                    sample = Sample(next(streams[c.index]), now, t0 is not None)
                    if t0 is not None:
                        lags.append(now - c.idle_since)
                    sent[c.index] += 1
                    samples.append(sample)
                    c.send(sample, now)
                if stop is not None and now >= stop:
                    break
                if all(c.closed for c in conns):
                    break
                pump(0.05)
            wait_all(time.perf_counter() + REQUEST_TIMEOUT_S)
        else:
            for phase, plan in (("warmup", streams), ("measured", schedule)):
                if phase == "measured":
                    mark("start")
                base = time.perf_counter()
                if phase == "measured":
                    t0 = base
                i = 0
                while i < len(plan):
                    now = time.perf_counter()
                    while i < len(plan) and base + plan[i][0] <= now:
                        offset, conn, body = plan[i]
                        due = base + offset
                        sample = Sample(body, due, phase == "measured")
                        if phase == "measured":
                            lags.append(now - due)
                        samples.append(sample)
                        if conns[conn].closed:
                            sample.error = "connection closed"
                        else:
                            conns[conn].send(sample, now)
                        i += 1
                    if i == len(plan):
                        break
                    gap = base + plan[i][0] - time.perf_counter()
                    # epoll rounds timeouts up to whole milliseconds: sleep
                    # until ~1 ms before the next due time, then spin.
                    pump(gap - 0.0012 if gap > 0.0012 else 0)
                wait_all(time.perf_counter() + REQUEST_TIMEOUT_S)
        mark("end")
        done = [s.done for s in samples if s.measured and s.done is not None]
        t_end = max(done) if done else time.perf_counter()
        return samples, t0, t_end, lags
    finally:
        for c in conns:
            c.close()
        selector.close()


# --- verification ------------------------------------------------------------


def verify_transport(samples):
    """Per-response checks that need no reference: a complete line under
    the write cap, valid JSON, the id echoed, ok.  Returns parsed responses
    by sample index (None for failures)."""
    parsed = []
    for s in samples:
        r = None
        if s.error is None:
            if len(s.line) + 1 > WRITE_BUFFER_CAP:
                s.error = f"response of {len(s.line)} bytes exceeds the write cap"
            else:
                try:
                    r = json.loads(s.line)
                except ValueError:
                    s.error = "response line is not valid JSON"
        if r is not None:
            if r.get("id") != s.body["id"]:
                s.error = f"id {r.get('id')!r} does not echo {s.body['id']!r}"
            elif not r.get("ok"):
                s.error = f"not ok: {r.get('error')}"
        parsed.append(r if s.error is None else None)
    return parsed


def write_log(path, samples):
    with open(path, "wb") as f:
        for s in samples:
            if s.error is None:
                f.write(b'{"request":' + s.text.encode() + b',"response":' + s.line + b"}\n")


def run_probe(mode, designs_dir, log):
    out = subprocess.run([str(PROBE), mode, str(designs_dir), str(log)], capture_output=True,
                         text=True)
    if out.returncode != 0:
        raise BenchError(f"perfbench_probe {mode} failed: {out.stderr.strip()}")
    return json.loads(out.stdout.strip().splitlines()[-1])


# --- metrics -----------------------------------------------------------------


def quantile(values, q):
    """Exact quantile of the samples (linear interpolation between order
    statistics)."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def kind_label(body):
    if body["kind"] == "montecarlo" and body.get("options", {}).get("adaptive"):
        return "montecarlo_adaptive"
    return body["kind"]


def scenario_count(payload):
    """Scenarios and Monte Carlo samples a payload reports evaluating."""
    if "aggregate" in payload:
        return payload["aggregate"]["scenarios"]
    if "statistics" in payload:
        return payload["statistics"]["samples"]
    if "optimize" in payload:
        return payload["optimize"]["evaluations"] + payload["optimize"].get("samples", 0)
    return 0


def end_to_end(spec, samples, parsed, t0, t_end, seconds, cpu, rss, setups):
    measured = [(s, r) for s, r in zip(samples, parsed) if s.measured]
    good = [(s, r) for s, r in measured if s.error is None]
    duration = t_end - t0
    # A failed request counts as missing any latency limit: it reads as the
    # client's timeout.
    windows = [[] for _ in range(spec["windows"])]
    for s, _ in measured:
        w = min(len(windows) - 1, int((s.due - t0) / seconds * len(windows)))
        windows[w].append((s.done - s.due) * 1000.0 if s.error is None
                          else REQUEST_TIMEOUT_S * 1000.0)

    def latency(q):
        return statistics.median(quantile(w, q) for w in windows)

    scenarios = sum(scenario_count(r["payload"]) for _, r in good)
    n = len(measured)
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "throughput_rps": (len(good) / duration, "1/s", len(good)),
        "scenarios_per_s": (scenarios / duration, "1/s", len(good)),
        "latency_p50_ms": (latency(0.5), "ms", n),
        "latency_tail_ms": (latency(spec["tail"]), "ms", n),
        "error_rate": ((n - len(good)) / n if n else 1.0, "fraction", n),
        "cpu_ms_per_request": (cpu * 1000.0 / max(1, len(good)), "ms", len(good)),
        "peak_rss_mb": (rss, "MB", 1),
    }


def per_layer(spec, samples, parsed, lags, stats_payload, probe):
    """Layer metrics.  The sample count printed beside each is the number of
    responses for those computed from responses; '-' marks the ones read
    from the `stats` payload or the probe's replay."""
    good = [(s, r) for s, r in zip(samples, parsed) if s.measured and s.error is None]
    m = {}
    m["net.overhead_p50_ms"] = (quantile([(s.done - s.sent) * 1000.0 - r["elapsed_ms"]
                                          for s, r in good], 0.5), "ms", len(good))
    m["net.response_bytes_p50"] = (quantile([len(s.line) + 1 for s, _ in good], 0.5),
                                   "bytes", len(good))
    m["api.parse_us"] = (probe["api.parse_us"], "us")
    for kind in KINDS:
        if kind != "analyze":
            m[f"api.render_ms.{kind}"] = (probe[f"api.render_ms.{kind}"], "ms")
    for kind in KINDS:
        m[f"api.encode_ms.{kind}"] = (probe[f"api.encode_ms.{kind}"], "ms")
    elapsed = [r["elapsed_ms"] for _, r in good]
    m["service.elapsed_p50_ms"] = (quantile(elapsed, 0.5), "ms", len(good))
    m["service.elapsed_tail_ms"] = (quantile(elapsed, spec["tail"]), "ms", len(good))
    st = stats_payload
    hits = st["cache"]["hits"]
    m["service.coalescing_efficiency"] = (st["coalescing"]["efficiency"], "requests/batch")
    m["service.cache_hit_ratio"] = (hits / max(1, hits + st["requests"]["batch"]), "fraction")
    m["service.engine_batches"] = (st["coalescing"]["engine_batches"], "count")
    m["service.queue_peak"] = (st["queue"]["peak"], "count")
    m["service.shed"] = (st["admission"]["shed"], "count")
    m["service.versions_evicted"] = (st["designs"]["evicted"], "count")
    for name, unit in (("compile.ms.n256", "ms"), ("compile.ms.n1024", "ms"),
                       ("incremental.apply_us", "us"), ("incremental.analyze_warm_us", "us"),
                       ("incremental.warm_states_kept", "count"),
                       ("cycle_time.analyze_us", "us"),
                       ("scenario.generate_us_per_scenario", "us"),
                       ("scenario.kernel_us_per_scenario.montecarlo", "us"),
                       ("scenario.kernel_us_per_scenario.sweep", "us"),
                       ("scenario.lane_evictions", "count"),
                       ("scenario.sparse_scenarios", "count"),
                       ("scenario.fallbacks", "count"),
                       ("stats.samples_per_s", "1/s"), ("stats.adaptive_samples", "count"),
                       ("optimize.topk_ms", "ms"), ("optimize.topk_solves", "count"),
                       ("optimize.bnb_ms", "ms"), ("optimize.evaluations", "count")):
        m[name] = (probe[name], unit)
    m["loadgen.lag_tail_ms"] = (quantile(lags, 0.99) * 1000.0, "ms", len(lags))
    for kind in KINDS:
        m[f"trace.attribution.{kind}"] = (probe[f"trace.attribution.{kind}"], "fraction")
    return {name: v if len(v) == 3 else (*v, "-") for name, v in m.items()}


def print_kinds(samples, parsed):
    """Per-kind breakdown of the measured phase (context, not metrics)."""
    by_kind = collections.defaultdict(list)
    for s, r in zip(samples, parsed):
        if s.measured and s.error is None:
            by_kind[kind_label(s.body)].append((s, r))
    for kind, rows in sorted(by_kind.items()):
        client = quantile([(s.done - s.due) * 1000.0 for s, _ in rows], 0.5)
        server = quantile([r["elapsed_ms"] for _, r in rows], 0.5)
        size = quantile([len(s.line) + 1 for s, _ in rows], 0.5)
        print(f"  kind {kind:20s} n={len(rows):6d}  client p50 {client:10.3f} ms  "
              f"server p50 {server:10.3f} ms  response p50 {size:10.0f} bytes")


# --- main --------------------------------------------------------------------


def run(args):
    spec = WORKLOADS[args.workload]
    build()
    rng = random.Random(f"{args.workload}:{args.seed}")
    workdir = BUILD / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    designs = generate_designs(workdir, args.workload, rng)
    names = [name for name, _ in spec["designs"]]

    # Set-up: spawn-to-first-health, several times; the last daemon serves.
    setups = []
    count = 1 if args.trace else SETUPS
    for i in range(count):
        proc, port, elapsed = start_daemon(workdir, names)
        setups.append(elapsed)
        if i + 1 < count:
            stop_daemon(proc)

    try:
        if spec["loop"] == "closed":
            if args.workload == "designer_session":
                arcs = {name: meta["arcs"] for name, meta in designs.items()}
                streams = [designer_stream(c, arcs, random.Random(rng.random()))
                           for c in range(spec["conns"])]
            else:
                streams = [bulk_stream(random.Random(rng.random()))]
            schedule = None
        else:
            warm = mc_fanin_schedule(random.Random(rng.random()), spec["warmup"] / 0.25,
                                     0.25, 0)
            schedule = mc_fanin_schedule(random.Random(rng.random()), spec["rate"],
                                         args.seconds, len(warm))
            streams = warm
        marks = {}

        def mark(name):
            marks[name] = cpu_seconds(proc.pid)

        samples, t0, t_end, lags = drive(port, spec["conns"], spec["loop"], streams, schedule,
                                         spec["warmup"], args.seconds, mark)
        cpu = marks["end"] - marks["start"]
        stats_payload = call(port, {"api_version": 1, "id": "stats", "kind": "stats"})["payload"]
        rss = peak_rss_mb(proc.pid)
    finally:
        stop_daemon(proc)

    parsed = verify_transport(samples)
    log = workdir / "log.ndjson"
    write_log(log, samples)
    verdict = run_probe("trace" if args.trace else "check", workdir, log)
    mismatched = set(verdict["mismatched"])
    for s in samples:
        if s.error is None and s.body["id"] in mismatched:
            s.error = "payload differs from the in-process reference"
    if args.trace:
        metrics = per_layer(spec, samples, parsed, lags, stats_payload, verdict["metrics"])
    else:
        metrics = end_to_end(spec, samples, parsed, t0, t_end, args.seconds, cpu, rss, setups)
    failures = [s for s in samples if s.error is not None]
    for s in failures[:5]:
        print(f"failed {s.body['id']} ({s.body['kind']}): {s.error}", file=sys.stderr)
    attempted = len(samples)
    failed = len(failures)
    # Only mc_fanin repeats bodies; a hit anywhere else means the throughput
    # counted cached answers.
    unexpected_hits = stats_payload["cache"]["hits"] if args.workload != "mc_fanin" else 0
    if unexpected_hits:
        print(f"{unexpected_hits} payload-cache hits on a workload without repeated bodies",
              file=sys.stderr)

    tail = int(round(spec["tail"] * 100))
    print(f"workload {args.workload}: {spec['loop']} loop, {spec['conns']} connection(s), "
          f"seed {args.seed}, {args.seconds} s, latency_tail_ms = p{tail}, "
          f"{attempted} requests, {failed} failed, {verdict['checked']} payloads checked")
    for name, (value, unit, count) in metrics.items():
        print(f"  {name:44s} {value:14.6f} {unit:15s} n={count}")
    print_kinds(samples, parsed)
    ok = failed == 0 and not unexpected_hits
    if not args.trace:
        metrics.pop("error_rate")  # reported above; in JSON it is failed/attempted
    result = {"correct": ok, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}
    print(json.dumps(result))
    if ok:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        return run(args)
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
