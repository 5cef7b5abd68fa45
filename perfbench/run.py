#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the PBS figure regeneration.

    python3 perfbench/run.py --workload bench_cold --seed 1 --seconds 28 --trace 0

Run it from the root of a checkout. It builds the `figures` binary and
the traced runner (`perfbench/tracer`) from source, runs one workload
and prints a summary followed, as the last line of stdout, by one JSON
object: `{"correct", "attempted", "failed", "metrics"}`.

With `--trace 0` the metrics are the end-to-end ones, taken with
tracing off by timing the unchanged `figures` binary and a
`figures --serve` process from outside, with times normalized to a
reference loop's speed (`HostSpeed`). With `--trace 1` they are the
per-layer ones, from a separate traced run. Every output is checked
against the digests in `expected.json`; see README.md for the
workloads and metrics.

`--record` rewrites `expected.json` from the checked-out program.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import socket
import struct
import subprocess
import sys
import threading
import time
from collections import defaultdict
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench")
EXPECTED = os.path.join(HERE, "expected.json")

# The section order of a full `figures` run (probranch_serve::SECTIONS).
SECTIONS = ["table2", "table1", "fig1", "fig6", "fig7", "fig8", "fig9",
            "table3", "accuracy", "cost"]
PROTOCOL = "probranch-serve/1"
# Set-ups per run, whose median is `setup_s`: a trace-store fill takes
# seconds, a smoke regeneration or a server start well under one.
FILL_REPEATS = 3
SETUP_REPEATS = 5
# Sequences of the traced served run, alternating untraced and traced.
TRACED_SEQUENCES = 20
PINGS = 30
PROCESS_TIMEOUT_S = 150
# The host-speed reference loop (`HostSpeed`): its size, its time on the
# 2-vCPU VM the bounds were set on, and how long operations run before it
# runs again. One run costs about 5% of a bench regeneration.
REFERENCE_ITERATIONS = 2_500_000
REFERENCE_S = 0.2
REFERENCE_EVERY_S = 2.0

# Span names of the traced runner's layer calls.
LAYERS = ("workloads.build", "pipeline.capture", "pipeline.convoy", "pipeline.replay",
          "pipeline.functional", "experiments.streams", "stats.battery", "persist.load",
          "persist.write", "compiler.analyze", "render.render")
HARNESS_COUNTS = ["keys", "captures", "disk_loads", "store_hits", "grid_hits",
                  "pool_peak_mb", "retried_cells", "degraded_cells"]
SERVE_COUNTS = ["requests", "coalesced", "shed", "cancelled", "failed"]


class BenchError(Exception):
    """A failure that leaves no result to report."""


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------

# Percentiles in tenths, highest first.
PERCENTILE_LADDER = (999, 990, 950, 900, 750, 500)


def percentile(samples, tenths):
    """Nearest-rank percentile; `tenths` is the percentile times ten."""
    xs = sorted(samples)
    rank = max(1, (tenths * len(xs) + 999) // 1000)
    return xs[rank - 1]


def highest_percentile(samples):
    """The highest ladder percentile with at least 10 samples beyond it,
    as `(tenths, value)`, or None when there are fewer than 20 samples."""
    for tenths in PERCENTILE_LADDER:
        if len(samples) * (1000 - tenths) >= 10 * 1000:
            return tenths, percentile(samples, tenths)
    return None


def reference_loop():
    """Times a fixed pure-Python loop, the host-speed reference. It runs
    no code of the repository, so no change to the program moves it."""
    t0 = time.perf_counter()
    x = 0
    for i in range(REFERENCE_ITERATIONS):
        x += i * i
    return time.perf_counter() - t0


class HostSpeed:
    """Host-speed normalization of the end-to-end times.

    This host's speed swings by tens of percent over minutes, and a
    reference loop timed around each operation tracks those swings (see
    README.md). So the reference loop runs before the first operation
    and again after any operation that ends at least
    `REFERENCE_EVERY_S` after its last run. An operation's normalized
    time is its wall time × `REFERENCE_S` ÷ the mean of the reference
    times just before and just after it: the time it would take on a
    host where the loop takes `REFERENCE_S`."""

    def __init__(self, reference=reference_loop):
        self.reference = reference
        self.refs = []
        self.samples = defaultdict(list)
        self.probe()

    def probe(self):
        self.refs.append(self.reference())
        self.last = time.perf_counter()

    def record(self, kind, wall_s):
        """Records one operation of `kind` that took `wall_s`."""
        self.samples[kind].append((wall_s, len(self.refs) - 1))
        if time.perf_counter() - self.last >= REFERENCE_EVERY_S:
            self.probe()

    def close(self):
        """Runs the reference after the last operation, if it has not."""
        if any(i == len(self.refs) - 1 for xs in self.samples.values() for _, i in xs):
            self.probe()

    def raw(self, kind):
        return [w for w, _ in self.samples[kind]]

    def normalized(self, kind):
        return [w * 2 * REFERENCE_S / (self.refs[i] + self.refs[i + 1])
                for w, i in self.samples[kind]]


def self_times(spans):
    """Each span's duration minus the part of its interval that its
    children cover. Spans are dicts with `start_ns`, `end_ns` and
    `parent` (an index into `spans`, or None)."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = []
    for i, s in enumerate(spans):
        lo, hi = s["start_ns"], s["end_ns"]
        covered, reach = 0, lo
        for a, b in sorted((max(c["start_ns"], lo), min(c["end_ns"], hi))
                           for c in children[i]):
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        out.append(hi - lo - covered)
    return out


def descendants(spans, prefix):
    """Indices of the spans below any span whose name starts with
    `prefix`. A parent precedes its children in `spans`."""
    roots = {i for i, s in enumerate(spans) if s["name"].startswith(prefix)}
    inside = set()
    for i, s in enumerate(spans):
        if s["parent"] in roots or s["parent"] in inside:
            inside.add(i)
    return inside


# ---------------------------------------------------------------------------
# Parsers of the program's stderr
# ---------------------------------------------------------------------------

POOL_LINE = re.compile(r"^run pool: (\d+) keys, (\d+) captures, (\d+) disk loads, "
                       r"(\d+) grid hits, (\d+) MiB$", re.M)
STORE_LINE = re.compile(r"^trace store: (\d+) hits, (\d+) demotions, (\d+) evictions, "
                        r"peak (\d+) MiB$", re.M)
ROBUST_LINE = re.compile(r"^robustness: (\d+) retried, (\d+) degraded, (\d+) over deadline;", re.M)
DRAIN_LINE = re.compile(r"^service: (\d+) requests \((\d+) coalesced\), (\d+) shed, "
                        r"(\d+) cancelled, (\d+) failed; drained", re.M)
BOUND_LINE = re.compile(r"^serving sweeps on (\S+);", re.M)


def parse_trailer(stderr):
    """The counts of the `figures` stderr trailer."""
    pool, store, robust = (p.search(stderr) for p in (POOL_LINE, STORE_LINE, ROBUST_LINE))
    if not (pool and store and robust):
        raise ValueError("figures stderr has no complete run trailer")
    keys, captures, loads, grid_hits, _ = map(int, pool.groups())
    store_hits, _, _, peak_mb = map(int, store.groups())
    retried, degraded, _ = map(int, robust.groups())
    return {"keys": keys, "captures": captures, "disk_loads": loads,
            "store_hits": store_hits, "grid_hits": grid_hits, "pool_peak_mb": peak_mb,
            "retried_cells": retried, "degraded_cells": degraded}


def parse_drain(stderr):
    """The service counters of the server's drain line."""
    m = DRAIN_LINE.search(stderr)
    if not m:
        raise ValueError("server stderr has no drain line")
    return dict(zip(SERVE_COUNTS, map(int, m.groups())))


# ---------------------------------------------------------------------------
# Operations and their checks
# ---------------------------------------------------------------------------

def digest(data):
    return hashlib.sha256(data).hexdigest()


class Tally:
    """Operations attempted and failed; a failure keeps its reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.append(f"{label}: {'; '.join(problems)}")


def output_problems(data, expected, exit_code=0):
    """An output fails on a non-zero exit or a digest other than the
    recorded one."""
    problems = [f"exit code {exit_code}"] if exit_code != 0 else []
    if digest(data) != expected:
        problems.append("output differs from the recorded digest")
    return problems


def count_problems(counts, want):
    return [f"{k} = {counts.get(k)}, want {v}" for k, v in want.items() if counts.get(k) != v]


def load_expected():
    with open(EXPECTED) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Build and processes
# ---------------------------------------------------------------------------

def build():
    """Builds `figures` and the traced runner; returns their paths."""
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        raise BenchError("run from the root of a checkout: Cargo.toml and crates/ are missing")
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or "target")
    tracer_target = os.path.join(target, "perfbench-tracer")
    for cmd in (["cargo", "build", "--release", "--offline", "-q",
                 "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
                 "-p", "probranch-bench", "--bin", "figures"],
                ["cargo", "build", "--release", "--offline", "-q",
                 "--manifest-path", os.path.join(HERE, "tracer", "Cargo.toml"),
                 "--target-dir", tracer_target]):
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return (os.path.join(target, "release", "figures"),
            os.path.join(tracer_target, "release", "perfbench-tracer"))


class Run:
    """One finished child process."""

    def __init__(self, code, wall_s, rss_mib, stdout, stderr):
        self.code, self.wall_s, self.rss_mib = code, wall_s, rss_mib
        self.stdout, self.stderr = stdout, stderr


def run_process(cmd, name):
    """Runs `cmd` to completion with its output in files under WORK and
    returns its exit code, wall time and peak resident memory."""
    out_path = os.path.join(WORK, name + ".out")
    err_path = os.path.join(WORK, name + ".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        stdout = f.read()
    with open(err_path, "rb") as f:
        stderr = f.read().decode(errors="replace")
    # ru_maxrss is in KiB on Linux.
    return Run(proc.returncode, wall, usage.ru_maxrss / 1024, stdout, stderr)


def regenerate(tally, figures, expected, scale, want, trace_dir=None, name="regen"):
    """One `figures` regeneration in a fresh process, checked against the
    recorded stdout and the expected trailer counts."""
    cmd = [figures, "--scale", scale, "--jobs", "1"]
    if trace_dir:
        cmd += ["--trace-dir", trace_dir]
    r = run_process(cmd, name)
    problems = output_problems(r.stdout, expected["stdout"][scale], r.code)
    try:
        r.counts = parse_trailer(r.stderr)
        problems += count_problems(r.counts, want)
    except ValueError as e:
        r.counts = {}
        problems.append(str(e))
    tally.record(f"{name} ({scale})", problems)
    return r


# ---------------------------------------------------------------------------
# The sweep service client
# ---------------------------------------------------------------------------

def recv_exact(sock, n):
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        buf += chunk
    return bytes(buf)


def call(addr, request):
    """One request over a fresh connection (the protocol's one request
    per connection); returns `(status, body)`."""
    host, port = addr.rsplit(":", 1)
    payload = request.encode()
    with socket.create_connection((host, int(port)), timeout=PROCESS_TIMEOUT_S) as sock:
        sock.sendall(struct.pack("<I", len(payload)) + payload)
        (n,) = struct.unpack("<I", recv_exact(sock, 4))
        text = recv_exact(sock, n).decode(errors="replace")
    head, _, body = text.partition("\n\n")
    return head.removeprefix(PROTOCOL).strip(), body


def sweep_request(section):
    return f"{PROTOCOL} sweep\nsection={section}\nscale=smoke\nengine=replay\n"


class Server:
    """A `figures --serve` process on an ephemeral port."""

    def __init__(self, figures, name):
        self.err_path = os.path.join(WORK, name + ".err")
        self.err = open(self.err_path, "wb")
        self.proc = subprocess.Popen(
            [figures, "--scale", "smoke", "--jobs", "2", "--serve", "127.0.0.1:0"],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=self.err, stdin=subprocess.DEVNULL)
        self.requests = 0
        deadline = time.monotonic() + 60
        while True:
            m = BOUND_LINE.search(self.stderr())
            if m:
                self.addr = m.group(1)
                break
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.kill()
                raise BenchError("the server did not report its bound address")
            time.sleep(0.005)

    def stderr(self):
        with open(self.err_path, "rb") as f:
            return f.read().decode(errors="replace")

    def sequence(self, tally, expected, order, spans=None, seq=0):
        """One full sequence of section requests; returns its wall time."""
        t0 = time.perf_counter()
        parent = None
        if spans is not None:
            parent = len(spans)
            spans.append({"name": "sequence", "parent": None, "seq": seq})
        for section in order:
            s0 = time.perf_counter()
            try:
                status, body = call(self.addr, sweep_request(section))
                problems = [f"status {status}: {body[:200]}"] if status != "ok" else \
                    output_problems(body.encode(), expected["sections"]["smoke"][section])
            except OSError as e:
                problems = [f"transport: {e}"]
            s1 = time.perf_counter()
            self.requests += 1
            tally.record(f"request {section}", problems)
            if spans is not None:
                spans.append({"name": f"section.{section}", "parent": parent, "seq": seq,
                              "start_ns": int(s0 * 1e9), "end_ns": int(s1 * 1e9)})
        t1 = time.perf_counter()
        if spans is not None:
            spans[parent].update(start_ns=int(t0 * 1e9), end_ns=int(t1 * 1e9))
        return t1 - t0

    def ping_ms(self):
        t0 = time.perf_counter()
        status, body = call(self.addr, f"{PROTOCOL} ping\n")
        if (status, body) != ("ok", "pong"):
            raise BenchError(f"ping answered {status} {body!r}")
        return (time.perf_counter() - t0) * 1e3

    def peak_rss_mib(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise BenchError("no VmHWM in the server's /proc status")

    def shutdown(self, tally):
        """Drains the server and checks its exit and counters."""
        problems = []
        try:
            status, _ = call(self.addr, f"{PROTOCOL} shutdown\n")
            if status != "ok":
                problems.append(f"shutdown answered {status}")
            code = self.proc.wait(timeout=PROCESS_TIMEOUT_S)
            if code != 0:
                problems.append(f"exit code {code}")
        except (OSError, subprocess.TimeoutExpired) as e:
            problems.append(f"shutdown: {e}")
        finally:
            self.kill()
        try:
            counts = parse_drain(self.stderr())
            problems += count_problems(counts, {"requests": self.requests, "shed": 0,
                                                "cancelled": 0, "failed": 0})
        except ValueError as e:
            counts = {}
            problems.append(str(e))
        tally.record("server drain", problems)
        return counts

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.err.close()


def start_warm_server(tally, figures, expected, name):
    """Set-up of the served workload: start, wait until ready, warm with
    one full sequence in section order."""
    server = Server(figures, name)
    try:
        server.ping_ms()
        server.sequence(tally, expected, SECTIONS)
    except BaseException:
        server.kill()
        raise
    return server


# ---------------------------------------------------------------------------
# Workloads, tracing off
# ---------------------------------------------------------------------------

COLD_COUNTS = {"captures": 16, "disk_loads": 0, "grid_hits": 1,
               "retried_cells": 0, "degraded_cells": 0}
FILL_COUNTS = {"captures": 64, "disk_loads": 0, "retried_cells": 0, "degraded_cells": 0}
WARM_COUNTS = {"captures": 0, "disk_loads": 64, "retried_cells": 0, "degraded_cells": 0}


def timed_loop(seconds, host, op, wall):
    """Runs `op` back to back until `seconds` have passed and records
    each one's wall time, `wall(result)`, as a regeneration."""
    results, t0 = [], time.perf_counter()
    while not results or time.perf_counter() - t0 < seconds:
        results.append(op())
        host.record("regen", wall(results[-1]))
    return results


def fill_store(tally, figures, expected, store, name):
    shutil.rmtree(store, ignore_errors=True)
    t0 = time.perf_counter()
    regenerate(tally, figures, expected, "bench", FILL_COUNTS, store, name)
    elapsed = time.perf_counter() - t0
    files = len([f for f in os.listdir(store) if f.endswith(".bin")]) if os.path.isdir(store) else 0
    tally.record("trace store files", count_problems({"files": files}, {"files": 64}))
    return elapsed


def bench_cold(args, tally, figures, expected, host):
    for i in range(SETUP_REPEATS):
        r = regenerate(tally, figures, expected, "smoke", COLD_COUNTS, name=f"setup{i}")
        host.record("setup", r.wall_s)
    runs = timed_loop(args.seconds, host, lambda: regenerate(
        tally, figures, expected, "bench", COLD_COUNTS), lambda r: r.wall_s)
    return [r.rss_mib for r in runs]


def bench_warm(args, tally, figures, expected, host):
    """The first fill makes the store the timed regenerations load. The
    other fills run after them: the host stays slow for seconds after a
    fill's writes, and those should not overlap the timed loop."""
    store = os.path.join(WORK, "store")
    host.record("setup", fill_store(tally, figures, expected, store, "setup0"))
    runs = timed_loop(args.seconds, host, lambda: regenerate(
        tally, figures, expected, "bench", WARM_COUNTS, store), lambda r: r.wall_s)
    for i in range(1, FILL_REPEATS):
        host.record("setup", fill_store(tally, figures, expected, store, f"setup{i}"))
    return [r.rss_mib for r in runs]


def smoke_served(args, tally, figures, expected, host):
    """Starts and warms SETUP_REPEATS servers; the last one serves the
    measured sequences, and its peak memory over them is reported."""
    server = None
    try:
        for i in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            server = start_warm_server(tally, figures, expected, f"server{i}")
            host.record("setup", time.perf_counter() - t0)
            if i + 1 < SETUP_REPEATS:
                server.shutdown(tally)
        rng = random.Random(args.seed)
        timed_loop(args.seconds, host, lambda: server.sequence(
            tally, expected, rng.sample(SECTIONS, len(SECTIONS))), lambda wall: wall)
        rss = server.peak_rss_mib()
        server.shutdown(tally)
    finally:
        if server:
            server.kill()
    return [rss]


def end_to_end(args, tally, figures, expected):
    host = HostSpeed()
    rss = WORKLOADS[args.workload](args, tally, figures, expected, host)
    host.close()
    regen, setup = host.normalized("regen"), host.normalized("setup")
    metrics = {
        "regen_p50_s": (median(regen), "s", len(regen)),
        "peak_rss_mb": (median(rss), "MiB", len(rss)),
        "setup_s": (median(setup), "s", len(setup)),
    }
    hp = highest_percentile(regen)
    extra = [f"regen_p{hp[0] / 10:g}_s {hp[1]:.4f} s (n={len(regen)})" if hp else
             f"regen tail percentile: none, {len(regen)} samples < 20",
             f"raw wall-time medians: regeneration {median(host.raw('regen')):.4f} s, "
             f"set-up {median(host.raw('setup')):.4f} s; reference loop "
             f"{median(host.refs):.4f} s (n={len(host.refs)})"]
    return metrics, extra


# ---------------------------------------------------------------------------
# Traced runs
# ---------------------------------------------------------------------------

def read_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def append_spans(spans, more):
    """Appends `more` to `spans`, shifting its parent indices to match."""
    offset = len(spans)
    spans += [dict(s, parent=None if s["parent"] is None else s["parent"] + offset)
              for s in more]


def run_tracer(tracer, mode_args, name):
    spans_path = os.path.join(WORK, name + ".spans.jsonl")
    r = run_process([tracer] + mode_args + ["--spans", spans_path], name)
    if r.code != 0:
        raise BenchError(f"traced run failed with exit code {r.code}:\n{r.stderr[-2000:]}")
    summary = json.loads(r.stdout.decode().strip().splitlines()[-1])
    return read_spans(spans_path), summary


def layer_metrics(spans, section_s, scope):
    """Per-layer self time and work of `spans`; coverage and harness
    overhead use only the spans in `scope` (the re-executed sections)."""
    selfs = self_times(spans)
    m = {}
    totals = defaultdict(lambda: {"s": 0.0, "n": 0, "insts": 0, "bytes": 0, "values": 0})
    covered = 0.0
    for i, s in enumerate(spans):
        if s["name"] not in LAYERS:
            continue
        t = totals[s["name"]]
        t["s"] += selfs[i] / 1e9
        t["n"] += 1
        for k in ("insts", "bytes", "values"):
            t[k] += s.get(k, 0)
        if i in scope:
            covered += selfs[i] / 1e9
    for layer in ("pipeline.capture", "pipeline.convoy", "pipeline.replay"):
        t = totals[layer]
        m[layer + "_s"] = (t["s"], "s")
        m[layer + "_insts"] = (t["insts"], "count")
        m[layer + "_mips"] = (t["insts"] / t["s"] / 1e6 if t["s"] else 0.0, "MIPS")
    t = totals["pipeline.functional"]
    m["pipeline.functional_s"] = (t["s"], "s")
    m["pipeline.functional_insts"] = (t["insts"], "count")
    m["experiments.streams_s"] = (totals["experiments.streams"]["s"], "s")
    m["stats.battery_s"] = (totals["stats.battery"]["s"], "s")
    m["stats.battery_values"] = (totals["stats.battery"]["values"], "count")
    t = totals["persist.load"]
    m["persist.load_s"] = (t["s"], "s")
    m["persist.load_mb"] = (t["bytes"] / 2**20, "MiB")
    m["persist.loads"] = (t["n"], "count")
    t = totals["persist.write"]
    m["persist.write_s"] = (t["s"], "s")
    m["persist.write_mb"] = (t["bytes"] / 2**20, "MiB")
    m["workloads.build_s"] = (totals["workloads.build"]["s"], "s")
    m["workloads.builds"] = (totals["workloads.build"]["n"], "count")
    m["compiler.analyze_s"] = (totals["compiler.analyze"]["s"], "s")
    m["render.render_s"] = (totals["render.render"]["s"], "s")
    sections = sum(section_s.values())
    m["harness.overhead_s"] = (sections - covered, "s")
    m["trace.coverage"] = (covered / sections, "ratio")
    for s in SECTIONS:
        m[f"section.{s}_s"] = (section_s[s], "s")
    return m


def check_tracer(tally, summary, stdout_path, expected, scale):
    with open(stdout_path, "rb") as f:
        tally.record(f"traced regeneration ({scale})",
                     output_problems(f.read(), expected["stdout"][scale]))
    tally.record("re-executed counts", summary["mismatches"])


def traced_in_process(args, tally, figures, tracer, expected):
    warm = args.workload == "bench_warm"
    store = os.path.join(WORK, "store")
    spans = []
    if warm:
        shutil.rmtree(store, ignore_errors=True)
        spans, _ = run_tracer(tracer, ["fill", "--scale", "bench", "--trace-dir", store], "fill")
    untraced = regenerate(tally, figures, expected, "bench",
                          WARM_COUNTS if warm else COLD_COUNTS, store if warm else None)
    stdout_path = os.path.join(WORK, "traced.stdout")
    cmd = ["trace", "--scale", "bench", "--jobs", "1", "--stdout", stdout_path]
    if warm:
        cmd += ["--trace-dir", store]
    traced, summary = run_tracer(tracer, cmd, "trace")
    check_tracer(tally, summary, stdout_path, expected, "bench")
    tally.record("traced pool counts", count_problems(summary["ctx"], untraced.counts))
    append_spans(spans, traced)
    section_s = {s["name"].removeprefix("section."): (s["end_ns"] - s["start_ns"]) / 1e9
                 for s in spans if s["name"].startswith("section.")}
    m = layer_metrics(spans, section_s, descendants(spans, "reexec."))
    m["trace.overhead"] = (summary["regen_s"] / untraced.wall_s - 1, "ratio")
    for k in HARNESS_COUNTS:
        m[f"harness.{k}"] = (untraced.counts.get(k, 0), "MiB" if k == "pool_peak_mb" else "count")
    m["serve.ping_ms"] = (0.0, "ms")
    for k in SERVE_COUNTS:
        m[f"serve.{k}"] = (0, "count")
    return m, spans


def traced_served(args, tally, figures, tracer, expected):
    client_spans, untraced_walls, traced_walls, pings = [], [], [], []
    server = start_warm_server(tally, figures, expected, "server")
    try:
        rng = random.Random(args.seed)
        for i in range(TRACED_SEQUENCES):
            order = rng.sample(SECTIONS, len(SECTIONS))
            if i % 2:
                traced_walls.append(server.sequence(tally, expected, order, client_spans, i))
            else:
                untraced_walls.append(server.sequence(tally, expected, order))
        for i in range(PINGS):
            start = time.perf_counter_ns()
            pings.append(server.ping_ms())
            client_spans.append({"name": "serve.ping", "parent": None, "seq": i,
                                 "start_ns": start, "end_ns": time.perf_counter_ns()})
        drain = server.shutdown(tally)
    finally:
        server.kill()
    stdout_path = os.path.join(WORK, "traced.stdout")
    spans, summary = run_tracer(tracer, [
        "trace", "--scale", "smoke", "--jobs", "2", "--warm", "--stdout", stdout_path], "trace")
    check_tracer(tally, summary, stdout_path, expected, "smoke")
    by_section = defaultdict(list)
    for s in client_spans:
        if s["name"].startswith("section."):
            by_section[s["name"].removeprefix("section.")].append(
                (s["end_ns"] - s["start_ns"]) / 1e9)
    section_s = {s: median(v) for s, v in by_section.items()}
    m = layer_metrics(spans, section_s, descendants(spans, "reexec."))
    m["trace.overhead"] = (median(traced_walls) / median(untraced_walls) - 1, "ratio")
    for k in HARNESS_COUNTS:
        m[f"harness.{k}"] = (summary["ctx"][k], "MiB" if k == "pool_peak_mb" else "count")
    m["serve.ping_ms"] = (median(pings), "ms")
    for k in SERVE_COUNTS:
        m[f"serve.{k}"] = (drain.get(k, 0), "count")
    append_spans(spans, client_spans)
    return m, spans


def per_layer(args, tally, figures, tracer, expected):
    run = traced_served if args.workload == "smoke_served" else traced_in_process
    m, spans = run(args, tally, figures, tracer, expected)
    with open(os.path.join(WORK, "spans.jsonl"), "w") as f:
        for s in spans:
            f.write(json.dumps(s) + "\n")
    return {k: (v, unit, 1) for k, (v, unit) in m.items()}, []


# ---------------------------------------------------------------------------
# Recording the expected outputs
# ---------------------------------------------------------------------------

def record(figures):
    """Digests of the checked-out program's outputs: `figures` stdout at
    each scale and each served section's body at smoke scale."""
    tally, stdout = Tally(), {}
    for scale in ("smoke", "bench", "paper"):
        r = run_process([figures, "--scale", scale, "--jobs", "2"], f"record-{scale}")
        if r.code != 0:
            raise BenchError(f"figures --scale {scale} exited {r.code}")
        stdout[scale] = digest(r.stdout)
    server = Server(figures, "record-server")
    try:
        bodies = {}
        for section in SECTIONS:
            status, body = call(server.addr, sweep_request(section))
            if status != "ok":
                raise BenchError(f"{section}: {status}")
            bodies[section] = digest(body.encode())
        server.requests = len(SECTIONS)
        server.shutdown(tally)
    finally:
        server.kill()
    if tally.failed:
        raise BenchError("; ".join(tally.errors))
    with open(EXPECTED, "w") as f:
        json.dump({"stdout": stdout, "sections": {"smoke": bodies}}, f, indent=2)
        f.write("\n")


# ---------------------------------------------------------------------------

WORKLOADS = {"bench_cold": bench_cold, "bench_warm": bench_warm, "smoke_served": smoke_served}


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=28)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true")
    args = p.parse_args(argv)
    if not args.record and not args.workload:
        p.error("--workload is required")
    try:
        figures, tracer = build()
        shutil.rmtree(WORK, ignore_errors=True)
        os.makedirs(WORK)
        if args.record:
            record(figures)
            return 0
        expected = load_expected()
        tally = Tally()
        if args.trace:
            metrics, extra = per_layer(args, tally, figures, tracer, expected)
        else:
            metrics, extra = end_to_end(args, tally, figures, expected)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    for name, (value, unit, n) in metrics.items():
        print(f"{name:28} {value:14.6f} {unit:6} (n={n})")
    for line in extra:
        print(line)
    print(f"error_rate {tally.failed}/{tally.attempted} operations failed")
    for e in tally.errors:
        print(f"perfbench: FAILED {e}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit, _) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
