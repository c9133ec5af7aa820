#!/usr/bin/env python3
"""End-to-end benchmark of incdb_serve.

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 15 \
        --trace 0

Builds incdb (Release) and tools/incdb_serve into the benchmark's own build
directory, writes the workload's instance as an io.h dump made from the
seed, starts `incdb_serve --db=<dump> --port=0` in its own process group,
drives it over loopback from this process in a closed loop, checks every
answer with the workload's independent checker, stops the server, and
prints the metrics. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 1 the served run is followed by an in-process replay of the
same request stream (perf_trace) that times each layer's public entry
points, and the metrics are the per-layer ones. See perfbench/README.md.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from client import Conn, ProtocolError, parse_kv, run_closed_loop  # noqa
from common import ingest_line  # noqa
from corrupt import corrupt  # noqa
from ops import Log, Query, Write  # noqa
from wl_analytic import Analytic  # noqa
from wl_ctable import CertainCTable  # noqa
from wl_interactive import Interactive  # noqa

WORKLOADS = {w.name: w for w in (Analytic, CertainCTable, Interactive)}
REPLY_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 170  # the whole run, build excluded
BUILD_DEADLINE_S = 880
PR_SET_PDEATHSIG = 1  # prctl(2) option
# One connection, one evaluator thread per query, on every workload. With a
# second connection a run on a shared host measured how the two streams
# happened to interleave: which one missed the plan cache after a write, and
# whether a write raced readers pinning the old snapshot.
EVAL_THREADS = 1
# glibc raises its mmap threshold when a large block is freed, and which
# evaluator thread frees one first is a matter of timing: the server's peak
# RSS on certain_ctable jumped from 15 to 19.5 MB in some runs of one seed and
# not in others. A fixed threshold (glibc's default value) keeps
# peak_rss_mb a measure of the data the server holds.
SERVER_ENV = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build ---------------------------------------------------------------

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(children):
    for need in ("src/CMakeLists.txt", "tools/incdb_serve.cc"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            raise BenchError("no %s under %s: run from a checkout of the "
                             "repository" % (need, ROOT))
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out, *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    with open(os.path.join(out, "build.log"), "a") as blog:
        for cmd in steps:
            rc = children.run(cmd, stdout=blog, stderr=subprocess.STDOUT,
                              timeout=BUILD_DEADLINE_S)
            if rc != 0:
                raise BenchError("build step failed (%s); see %s"
                                 % (" ".join(cmd[:2]), blog.name))
    return out


# --- child processes -----------------------------------------------------

def die_with_parent():
    """Child-side: have the kernel kill the child if this process dies
    without stopping it (e.g. SIGKILL), where no cleanup code runs."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG,
                                                signal.SIGKILL)
    except (OSError, AttributeError):
        pass


class Children:
    """Every process this run starts, each in its own process group, so
    that any exit path can stop the whole group and wait for it."""

    def __init__(self):
        self.procs = []

    def spawn(self, cmd, **kw):
        p = subprocess.Popen(cmd, start_new_session=True,
                             preexec_fn=die_with_parent, **kw)
        self.procs.append(p)
        return p

    def run(self, cmd, timeout, **kw):
        p = self.spawn(cmd, **kw)
        try:
            return p.wait(timeout=timeout)
        finally:
            self.stop(p)

    def stop(self, p, grace=10.0):
        """SIGTERM to the group, SIGKILL after `grace` seconds, then reap."""
        if p.poll() is None:
            try:
                os.killpg(p.pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
            try:
                p.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        p.wait()
        if p in self.procs:
            self.procs.remove(p)

    def stop_all(self):
        for p in list(self.procs):
            self.stop(p, grace=2.0)

    @staticmethod
    def outlived(p):
        try:
            os.killpg(p.pid, 0)
            return True
        except ProcessLookupError:
            return False


def on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def on_alarm(_signum, _frame):
    raise BenchError("run exceeded %d s" % RUN_DEADLINE_S)


# --- the served run ------------------------------------------------------

def start_server(children, binary, dump, errlog):
    t0 = time.perf_counter()
    proc = children.spawn([binary, "--db=" + dump, "--port=0"],
                          stdout=subprocess.PIPE, stderr=errlog,
                          env=SERVER_ENV)
    line = proc.stdout.readline().decode()
    if not line.startswith("listening on"):
        raise BenchError("incdb_serve did not start: %r" % line)
    port = int(line.rsplit(":", 1)[1])
    # The listening socket exists before the dump is published; the first
    # ping is answered once the service is up.
    conn = Conn(port, 0, REPLY_TIMEOUT_S)
    if conn.command("ping") != "ok pong":
        raise BenchError("bad ping reply")
    setup_s = time.perf_counter() - t0
    return proc, port, conn, setup_s


def read_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for pid %d" % pid)


def percentile(values, q):
    """Nearest-rank percentile (q in (0, 100])."""
    s = sorted(values)
    k = max(0, min(len(s) - 1, int(-(-q * len(s) // 100)) - 1))
    return s[k]


def served_run(args, workload, binary, dump, children, workdir):
    errlog = open(os.path.join(workdir, "server.stderr"), "w")
    proc, _, conn, setup_s = start_server(children, binary, dump, errlog)
    conn.command("threads %d" % EVAL_THREADS)
    stats_before = parse_kv(conn.command("stats"))
    replies, elapsed = run_closed_loop([conn], {0: workload.stream(0)},
                                       args.seconds, REPLY_TIMEOUT_S)
    stats_after = parse_kv(conn.command("stats"))
    pings = []
    for _ in range(200 if args.trace else 0):
        t = time.perf_counter()
        conn.command("ping")
        pings.append(time.perf_counter() - t)
    peak_rss_mb = read_hwm_mb(proc.pid)
    conn.close()
    children.stop(proc)
    errlog.close()
    if Children.outlived(proc):
        raise BenchError("incdb_serve outlived its stop")
    log_ = Log()
    log_.replies = replies
    return {"log": log_, "elapsed": elapsed, "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb, "pings": pings,
            "stats_before": stats_before, "stats_after": stats_after}


def kind_of(reply):
    if isinstance(reply.op, Write):
        return "write"
    return "query/" + reply.op.kind_name


def count_kinds(replies):
    attempted, failed = Counter(), Counter()
    for r in replies:
        kind = kind_of(r)
        attempted[kind] += 1
        if r.error is not None:
            failed[kind] += 1
    return attempted, failed


def consistency_errors(served):
    """Checks that need no workload knowledge: versions never decrease on
    a connection, and the hits the client saw equal the growth of the
    server's hit counter."""
    errors = []
    last = {}
    for r in sorted(served["log"].replies, key=lambda r: (r.conn, r.seq)):
        if r.error is None:
            if r.version < last.get(r.conn, 0):
                errors.append("connection %d saw version %d after %d"
                              % (r.conn, r.version, last[r.conn]))
            last[r.conn] = r.version
    seen = sum(1 for r in served["log"].queries() if r.hit)
    grew = (int(served["stats_after"]["cache_hits"]) -
            int(served["stats_before"]["cache_hits"]))
    if seen != grew:
        errors.append("client saw %d cache hits, server counted %d"
                      % (seen, grew))
    return errors


def windowed_rate(replies, elapsed, window_s=1.0):
    """Median over the run's whole windows of the replies completed per
    second: a burst of CPU steal on a shared host slows a few windows, not
    the figure."""
    n = int(elapsed // window_s)
    if n < 1:
        return len(replies) / elapsed
    counts = [0] * n
    for r in replies:
        w = int(r.done_at // window_s)
        if w < n:
            counts[w] += 1
    return statistics.median(counts) / window_s


def end_to_end_metrics(served):
    queries = served["log"].queries()
    writes = served["log"].writes()
    if not queries or not writes:
        raise BenchError("run too short: %d queries, %d writes"
                         % (len(queries), len(writes)))
    lat = [r.latency * 1e3 for r in queries]
    return {
        "setup_s": (served["setup_s"], "s"),
        "queries_per_s": (windowed_rate(queries, served["elapsed"]), "1/s"),
        "query_p50_ms": (statistics.median(lat), "ms"),
        "query_p99_ms": (percentile(lat, 99), "ms"),
        "write_p50_ms": (statistics.median(r.latency * 1e3 for r in writes),
                         "ms"),
        "peak_rss_mb": (served["peak_rss_mb"], "MB"),
    }


# --- the traced replay ---------------------------------------------------

def write_replay_log(path, served):
    """Requests in the order the server applied them: each write before
    the queries answered at the version it published."""
    events = []
    for r in served["log"].replies:
        if r.error is not None:
            continue
        if isinstance(r.op, Write):
            events.append(((r.version, 0, r.conn, r.seq), r))
        else:
            events.append(((r.version, 1, r.conn, r.seq), r))
    events.sort(key=lambda e: e[0])
    with open(path, "w") as f:
        for _, r in events:
            if isinstance(r.op, Write):
                f.write("W %d %d\n" % (r.version, len(r.op.rows)))
                for rel, row in r.op.rows:
                    f.write(ingest_line(rel, row) + "\n")
            else:
                q = r.op
                f.write("Q %d %d %d %s %s %r %s %s\n"
                        % (r.version, len(r.rows), int(r.hit), q.notion,
                           q.backend, q.threshold, q.kind, q.text))


def traced_run(served, workload, tracer, dump, children, workdir, spans):
    replay = os.path.join(workdir, "replay.txt")
    out = os.path.join(workdir, "trace.json")
    write_replay_log(replay, served)
    with open(out, "w") as f:
        rc = children.run([tracer, "--db=" + dump, "--replay=" + replay,
                           "--threads=%d" % EVAL_THREADS,
                           "--spans=" + spans],
                          stdout=f, timeout=RUN_DEADLINE_S)
    if rc != 0:
        raise BenchError("perf_trace exited with %d" % rc)
    with open(out) as f:
        layer = json.load(f)
    if layer["row_mismatches"]:
        raise BenchError("replay row counts differ from the served run: %s"
                         % layer["row_mismatches"][:3])
    queries = served["log"].queries()
    writes = served["log"].writes()
    sa, sb = served["stats_after"], served["stats_before"]
    m = {}
    for name, (value, unit) in layer["metrics"].items():
        m[name] = (value, unit)
    m["plan_cache.hit_ratio"] = (
        sum(r.hit for r in queries) / len(queries), "ratio")
    m["plan_cache.invalidated_per_write"] = (
        (int(sa["invalidated"]) - int(sb["invalidated"])) / len(writes),
        "count")
    m["wire.ping_us"] = (statistics.median(served["pings"]) * 1e6, "us")
    m["wire.bytes_per_query"] = (
        sum(r.nbytes for r in queries) / len(queries), "bytes")
    return m


# --- main ----------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", choices=("drop", "extra", "prob"),
                    help="corrupt one answer before checking (the run must "
                    "then report correct=false)")
    args = ap.parse_args()

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGHUP, on_signal)
    children = Children()
    workdir = None
    try:
        out = build(children)
        signal.signal(signal.SIGALRM, on_alarm)
        signal.alarm(RUN_DEADLINE_S)
        workdir = os.path.join(out, "runs", "%s-%d-%d"
                               % (args.workload, args.seed, os.getpid()))
        os.makedirs(workdir, exist_ok=True)
        workload = WORKLOADS[args.workload](args.seed)
        print("instance %s" % " ".join("%s=%s" % kv
                                       for kv in workload.sizes().items()))
        dump = os.path.join(workdir, "instance.db")
        with open(dump, "w") as f:
            f.write(workload.dump())
        served = served_run(args, workload, os.path.join(out, "incdb_serve"),
                            dump, children, workdir)
        replies = served["log"].replies
        if args.corrupt and corrupt(served["log"], args.corrupt) is None:
            raise BenchError("no reply to corrupt with --corrupt=%s"
                             % args.corrupt)
        for w in served["log"].writes():
            workload.db.record_write(w.version, w.op.rows)
        errors = consistency_errors(served) + workload.check(served["log"])
        attempted, failed = count_kinds(replies)
        lat = defaultdict(list)
        for r in replies:
            if r.error is None:
                lat[kind_of(r)].append(r.latency * 1e3)
        for kind in sorted(attempted):
            ms = lat[kind] or [0.0]
            print("ops %-40s attempted=%d failed=%d p50_ms=%.3f max_ms=%.3f"
                  % (kind, attempted[kind], failed[kind],
                     statistics.median(ms), max(ms)))
        queries = served["log"].queries()
        print("plan_cache hit_ratio=%.4f (%d of %d queries)"
              % (sum(r.hit for r in queries) / max(1, len(queries)),
                 sum(r.hit for r in queries), len(queries)))
        for e in errors[:10]:
            print("CHECK FAILED: " + e)
        for r in replies:
            if r.error is not None:
                print("FAILED: %s -> %s" % (r.op.describe()
                                            if isinstance(r.op, Query)
                                            else "write", r.error))
                break
        if args.trace:
            spans = os.path.join(out, "traces", "%s-%d.spans.jsonl"
                                 % (args.workload, args.seed))
            os.makedirs(os.path.dirname(spans), exist_ok=True)
            metrics = traced_run(served, workload,
                                 os.path.join(out, "perf_trace"), dump,
                                 children, workdir, spans)
            print("spans written to %s" % spans)
        else:
            metrics = end_to_end_metrics(served)
        result = {
            "correct": not errors,
            "attempted": len(replies),
            "failed": sum(failed.values()),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
        }
        print(json.dumps(result))
        sys.stdout.flush()
        return 0 if not errors else 1
    except (BenchError, ProtocolError, OSError,
            subprocess.TimeoutExpired) as e:
        log("perfbench: %s" % e)
        return 1
    finally:
        signal.alarm(0)
        children.stop_all()
        if workdir and os.path.isdir(workdir):
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
