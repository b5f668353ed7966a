#!/usr/bin/env python3
"""End-to-end benchmark of oshil.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of an oshil checkout: it first builds bin/oshil.exe
and its in-process helper perfbench/replay.exe with dune. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics of a separate in-process replay with --trace 1. Progress, the
class histogram and the self-checks go to standard error. NOTES.md
describes the workloads and what each metric measures."""

import argparse
import collections
import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import time

import stats
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OSHIL = os.path.join("_build", "default", "bin", "oshil.exe")
REPLAY = os.path.join("_build", "default", "perfbench", "replay.exe")
RUN_ROOT = ".perfbench_run"
# rounds generated (and validated) up front; a run ends early if it
# uses them all
MAX_ROUNDS = 150
STARTUP_SPAWNS = 15
HEALTH = b'{"id":"health","op":"health"}'
STATS = b'{"id":"stats","op":"stats"}'


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def fail(msg):
    log(msg)
    sys.exit(2)


# --- build and inputs -------------------------------------------------

def build():
    if not (os.path.isfile(os.path.join("bin", "oshil.ml")) and os.path.isdir("lib")):
        fail("run from the root of an oshil checkout (bin/oshil.ml and lib/ are missing)")
    # no shared dune cache: the benchmark writes only inside the checkout
    r = subprocess.run(["dune", "build", "--root", ".", "--cache=disabled",
                        "./bin/oshil.exe", "./perfbench/replay.exe"], stdout=sys.stderr)
    if r.returncode != 0:
        fail("build failed")


def child_env():
    # the workloads set caching, jobs and telemetry explicitly
    return {k: v for k, v in os.environ.items() if not k.startswith("OSHIL_")}


def write_requests(path, phases):
    """phases: (phase, ops) pairs; every request is validated before use."""
    with open(path, "w") as f:
        for phase, ops in phases:
            for op in ops:
                f.write("%s\t%s\t%s\n" % (phase, op.cls, op.line.decode()))
    r = subprocess.run([REPLAY, "validate", path], stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        fail("generated requests fail validation:\n" + r.stderr)


def generate(wl, seed, n_rounds, min_rounds):
    setup, gen = wl.start(seed)
    rounds = [ops for _, ops in zip(range(n_rounds), gen)]
    for i, op in enumerate(setup):
        op.line = op.wire("%s-setup-%d" % (wl.name, i)).encode()
    for r, ops in enumerate(rounds):
        for i, op in enumerate(ops):
            op.line = op.wire("%s-%d-%d" % (wl.name, r, i)).encode()
    if len(rounds) < min_rounds:
        fail("catalogue too small for %d rounds" % min_rounds)
    return setup, rounds


# --- reply checks -----------------------------------------------------

with open(os.path.join(HERE, "reference.json")) as f:
    REFERENCE = json.load(f)

NUM = r"([-+0-9.eE]+)"
SHIL_BAND = re.compile(r"injection band:\s+\[%s, %s\] Hz" % (NUM, NUM))
HB_BAND = re.compile(r"HB: f_inj in \[%s, %s\] Hz, width %s Hz \((\d+) probes, (\d+) holes\)"
                     % (NUM, NUM, NUM))
DF_BAND = re.compile(r"DF: f_inj in \[%s, %s\] Hz" % (NUM, NUM))


def check_band(key, lo, hi):
    ref = REFERENCE.get(key)
    if ref is None:
        return "no reference value for " + key
    if abs(lo - ref["lo"]) > ref["tol"] or abs(hi - ref["hi"]) > ref["tol"]:
        return "band [%r, %r] off reference [%r, %r] by more than %r Hz" % (
            lo, hi, ref["lo"], ref["hi"], ref["tol"])
    return None


def check_report(op, report):
    """None when the report is right, else what is wrong with it."""
    if not report:
        return "empty report"
    if op.op == "shil":
        m = SHIL_BAND.search(report)
        if not m:
            return "no injection band in the shil report"
        return check_band(op.key, float(m.group(1)), float(m.group(2)))
    if op.op == "hb" and dict(op.params).get("lockrange"):
        m, d = HB_BAND.search(report), DF_BAND.search(report)
        if not (m and d):
            return "no HB/DF bands in the hb report"
        hb_lo, hb_hi, holes = float(m.group(1)), float(m.group(2)), int(m.group(5))
        df_lo, df_hi = float(d.group(1)), float(d.group(2))
        if holes:
            return "%d HB lock-range probes failed" % holes
        # the HB-vs-DF agreement the test suite holds the engines to
        if (abs(hb_lo - df_lo) / df_lo >= 0.01 or abs(hb_hi - df_hi) / df_hi >= 0.01
                or abs((hb_hi - hb_lo) - (df_hi - df_lo)) / (df_hi - df_lo) >= 0.01):
            return "HB band [%r, %r] not within 1%% of DF [%r, %r]" % (hb_lo, hb_hi, df_lo, df_hi)
        return check_band(op.key, df_lo, df_hi)
    return None


class Checker:
    """Checks replies; in a cached workload a repeated request must get
    the bytes of its first answer (the cache's hit == cold contract)."""

    def __init__(self, repeat_identical):
        self.repeat_identical = repeat_identical
        self.first = {}

    def serve_reply(self, op, reply):
        if reply is None:
            return "connection failed"
        try:
            r = json.loads(reply)
        except ValueError:
            return "unparseable reply"
        if r.get("status") != "ok":
            return "status %s: %s" % (r.get("status"), json.dumps(r.get("error")))
        return self.report(op, r.get("report"))

    def report(self, op, report):
        err = check_report(op, report)
        if err is None and self.repeat_identical:
            first = self.first.setdefault(op.key, report)
            if first != report:
                err = "repeated request answered with different bytes"
        return err


# --- one-shot CLI and daemon clients ----------------------------------

def run_cli(argv, env):
    """(seconds, stdout, exit code, max RSS in kB) of one oshil process."""
    t = time.perf_counter()
    p = subprocess.Popen([OSHIL] + argv, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL, env=env)
    out = p.stdout.read()
    p.stdout.close()
    # reaped here rather than by Popen: wait4 also gives the peak RSS
    _, status, ru = os.wait4(p.pid, 0)
    dt = time.perf_counter() - t
    p.returncode = os.waitstatus_to_exitcode(status)
    return dt, out, p.returncode, ru.ru_maxrss


class Conn:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.f = self.sock.makefile("rwb")

    def call(self, line):
        t = time.perf_counter()
        self.f.write(line + b"\n")
        self.f.flush()
        reply = self.f.readline()
        dt = time.perf_counter() - t
        if not reply:
            raise ConnectionError("daemon closed the connection")
        return dt, reply

    def close(self):
        self.f.close()
        self.sock.close()


class Daemon:
    """One `oshil serve` process at its default worker count."""

    def __init__(self, wl, run_dir, tag, env):
        self.sock = os.path.join(run_dir, tag + ".sock")
        args = [OSHIL, "serve", "--listen", "unix:" + self.sock, "--jobs", str(wl.jobs)]
        if wl.deadline is not None:
            # the same default the traced replay passes to Api.handle
            args += ["--deadline", repr(wl.deadline)]
        if wl.cache:
            args += ["--cache", "--cache-dir", os.path.join(run_dir, tag + "-cache")]
        self.log = open(os.path.join(run_dir, tag + ".log"), "wb")
        self.proc = subprocess.Popen(args, stdin=subprocess.DEVNULL, stdout=self.log,
                                     stderr=self.log, env=env)
        try:
            self.conn = self._await_health(time.monotonic() + 60)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            self.log.close()
            raise

    def _await_health(self, deadline):
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("oshil serve exited with %d" % self.proc.returncode)
            try:
                conn = Conn(self.sock)
                if json.loads(conn.call(HEALTH)[1]).get("status") == "ok":
                    return conn
                conn.close()
            except OSError:
                pass
            time.sleep(0.002)
        raise RuntimeError("oshil serve did not answer health")

    def stats(self):
        return json.loads(json.loads(self.conn.call(STATS)[1])["report"])["server"]

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the daemon")

    def stop(self):
        self.conn.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)  # graceful drain
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        return self.proc.returncode


def closed_loop(call, rounds, seconds, min_rounds):
    """One client sends its next request when its previous reply is in.
    New rounds start until `seconds` have passed (and at least
    min_rounds ran), so every class keeps its share exactly.
    call: op -> (seconds, reply). Returns (samples, wall)."""
    samples = []
    t0 = time.perf_counter()
    for started, ops in enumerate(rounds):
        if started >= min_rounds and time.perf_counter() - t0 >= seconds:
            break
        for op in ops:
            dt, reply = call(op)
            samples.append((op, dt, reply))
    return samples, time.perf_counter() - t0


def serve_caller(conn):
    def call(op):
        t = time.perf_counter()
        try:
            return conn.call(op.line)
        except OSError:
            return time.perf_counter() - t, None
    return call


def start_daemon(wl, run_dir, tag, env, setup, checker, failures):
    """A fresh daemon (on a fresh cache) that has answered the set-up."""
    daemon = Daemon(wl, run_dir, tag, env)
    checker.first.clear()
    try:
        for op in setup:
            err = checker.serve_reply(op, daemon.conn.call(op.line)[1])
            if err:
                failures.append("setup %s: %s" % (op.op, err))
    except BaseException:
        daemon.stop()
        raise
    return daemon


def drive(daemon, rounds, seconds, min_rounds):
    """closed_loop over one client connection to the daemon."""
    conn = Conn(daemon.sock)
    try:
        return closed_loop(serve_caller(conn), rounds, seconds, min_rounds)
    finally:
        conn.close()


# --- timed runs (--trace 0) -------------------------------------------

def cli_run(wl, setup, rounds, seconds, env, checker):
    rss = [0]
    failures = []

    def call(op):
        dt, out, code, maxrss = run_cli(op.argv(wl.jobs), env)
        rss[0] = max(rss[0], maxrss)
        return dt, (code, out.decode(errors="replace"))

    def check(op, reply):
        code, out = reply
        return "exit code %d" % code if code != 0 else checker.report(op, out)

    setup_times = []
    for _ in range(wl.setup_reps):
        t = time.perf_counter()
        for op in setup:
            err = check(op, call(op)[1])
            if err:
                failures.append("setup %s: %s" % (op.op, err))
        setup_times.append(time.perf_counter() - t)
    samples, wall = closed_loop(call, rounds, seconds, wl.min_rounds)
    return setup_times, samples, wall, rss[0] / 1024.0, check, failures


def serve_run(wl, setup, rounds, seconds, env, checker, run_dir):
    setup_times, failures = [], []
    daemon = None
    try:
        for rep in range(wl.setup_reps):
            if daemon is not None:
                daemon.stop()
                daemon = None
            t = time.perf_counter()
            daemon = start_daemon(wl, run_dir, "setup%d" % rep, env, setup, checker, failures)
            setup_times.append(time.perf_counter() - t)
        samples, wall = drive(daemon, rounds, seconds, wl.min_rounds)
        rss = daemon.peak_rss_mb()
    finally:
        code = daemon.stop() if daemon is not None else None
    if code != 0:
        failures.append("oshil serve exited with %d after drain" % code)
    return setup_times, samples, wall, rss, checker.serve_reply, failures


def steadiness(samples):
    """Print the class histogram; p50 and p90 must each fall inside one
    class, and at least ten samples must lie beyond p90."""
    pairs = [(op.cls, dt) for op, dt, _ in samples]
    by_class = collections.defaultdict(list)
    for c, dt in pairs:
        by_class[c].append(dt)
    log("class histogram (count, p25/median/p75 s): " + ", ".join(
        "%s=%d %.4g/%.4g/%.4g" % (c, len(v), stats.percentile(v, 0.25), stats.median(v),
                                  stats.percentile(v, 0.75))
        for c, v in sorted(by_class.items())))
    ok = True
    for q in (0.5, 0.9):
        owner = stats.class_position(pairs, q)
        log("p%d = %.6g s falls inside %s" % (q * 100, stats.percentile([d for _, d in pairs], q),
                                              owner or "NO CLASS (between classes)"))
        ok = ok and owner is not None
    n_beyond = stats.beyond([d for _, d in pairs], 0.9)
    log("%d samples, %d beyond p90" % (len(pairs), n_beyond))
    return ok and n_beyond >= 10


def timed(wl, seed, seconds, run_dir):
    env = child_env()
    setup, rounds = generate(wl, seed, MAX_ROUNDS, wl.min_rounds)
    write_requests(os.path.join(run_dir, "requests.tsv"),
                   [("setup", setup)] + [("op", ops) for ops in rounds])
    checker = Checker(repeat_identical=wl.cache)
    if wl.mode == "cli":
        setup_times, samples, wall, rss, check, failures = cli_run(
            wl, setup, rounds, seconds, env, checker)
    else:
        setup_times, samples, wall, rss, check, failures = serve_run(
            wl, setup, rounds, seconds, env, checker, run_dir)
    failed = 0
    for op, _, reply in samples:
        err = check(op, reply)
        if err:
            failed += 1
            failures.append("%s (%s): %s" % (op.cls, op.line[:120].decode(), err))
    for msg in failures[:20]:
        log("FAILED " + msg)
    steady = steadiness(samples)
    lat = [dt for _, dt, _ in samples]
    attempted = len(samples)
    log("setup reps %s s, wall %.3f s, error_rate %g" % (
        ", ".join("%.4f" % s for s in setup_times), wall, failed / attempted))
    metrics = {
        "setup_s": (stats.median(setup_times), "s"),
        "latency_p50_s": (stats.percentile(lat, 0.5), "s"),
        "latency_p90_s": (stats.percentile(lat, 0.9), "s"),
        "throughput_ops_s": (stats.rate(attempted - failed, wall), "1/s"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (rss, "MB"),
    }
    correct = not failures and steady
    return correct, attempted, failed, metrics


# --- traced run (--trace 1) -------------------------------------------

def trace(wl, seed, run_dir):
    env = child_env()
    setup, rounds = generate(wl, seed, wl.trace_rounds, wl.trace_rounds)
    ops = [op for r in rounds for op in r]
    path = os.path.join(run_dir, "trace.tsv")
    write_requests(path, [("setup", setup), ("op", ops)])
    # failures: what went wrong; failed: how many operations it hit
    failures, failed = [], 0

    startup = []
    for _ in range(STARTUP_SPAWNS):
        dt, out, code, _ = run_cli(["api", "ping"], env)
        if code != 0 or b'"pong"' not in out:
            failures.append("oshil api ping failed")
            failed += 1
        startup.append(dt)

    # the daemon's round trips, for serve.overhead_s and its counters
    served = {}
    server = {"retries": 0, "rejected_overload": 0, "deadline_expired": 0}
    if wl.mode == "serve":
        checker = Checker(repeat_identical=wl.cache)
        daemon = start_daemon(wl, run_dir, "trace", env, setup, checker, failures)
        try:
            samples, _ = drive(daemon, rounds, float("inf"), 0)
            server = daemon.stats()["requests"]
        finally:
            daemon.stop()
        for op, dt, reply in samples:
            err = checker.serve_reply(op, reply)
            if err:
                failures.append("%s: %s" % (op.cls, err))
                failed += 1
            served.setdefault(op.cls, []).append(dt)

    args = [REPLAY, "trace", "--jobs", str(wl.jobs)]
    if wl.cache:
        args += ["--cache-dir", os.path.join(run_dir, "replay-cache")]
    if wl.deadline is not None:
        args += ["--deadline", repr(wl.deadline)]
    r = subprocess.run(args + [path], stdout=subprocess.PIPE, env=env, text=True)
    if r.returncode != 0:
        fail("replay failed")
    rep = json.loads(r.stdout)
    if rep["errors"] or rep["mismatches"]:
        failures.append("replay: %d errors, %d composed replies differ from Api.handle"
                        % (rep["errors"], rep["mismatches"]))
        # an op whose Api.handle reply is an error counts as a mismatch too
        failed += rep["mismatches"]

    handled = {}
    for cls, s in rep["handle"]:
        handled.setdefault(cls, []).append(s)
    overheads = []
    for c in sorted(served):
        overheads.append(stats.median(served[c]) - stats.median(handled[c]))
        log("serve overhead %s: %.6f s" % (c, overheads[-1]))

    layers, counters = rep["layers"], rep["counters"]
    handle_s = sum(s for _, s in rep["handle"])
    in_handle = sum(v for k, v in layers.items() if k not in ("api.decode_s", "api.encode_s"))

    def ratio(num, den, empty):
        return num / den if den else empty

    metrics = {"bin.startup_s": (stats.median(startup), "s")}
    for k, v in layers.items():
        metrics[k] = (v, "s")
    metrics["api.handle_s"] = (handle_s, "s")
    for k in ["shil.grid.f_evals", "shil.df.i1_evals", "shil.lockrange.probes",
              "hb.newton_iters", "hb.solves", "spice.newton.iters", "spice.newton.solves",
              "spice.transient.steps_accepted", "spice.transient.steps_rejected",
              "cache.hits", "cache.misses", "cache.evictions", "cache.disk_writes"]:
        metrics[k] = (counters[k], "count")
    metrics["shil.refine_ok_ratio"] = (
        1 - ratio(counters["shil.solutions.refine_fails"], counters["shil.solutions.candidates"], 0),
        "ratio")
    metrics["hb.first_rung_ratio"] = (
        1 - ratio(counters["resilience.hb.failed"], counters["hb.solves"], 0), "ratio")
    metrics["cache.hit_ratio"] = (
        ratio(counters["cache.hits"], counters["cache.hits"] + counters["cache.misses"], 0), "ratio")
    metrics["serve.overhead_s"] = (stats.median(overheads) if overheads else 0.0, "s")
    for k in ["retries", "rejected_overload", "deadline_expired"]:
        metrics["serve." + k] = (server[k], "count")
    metrics["numerics.pool.busy_s"] = (rep["pool"]["busy_s"], "s")
    metrics["numerics.pool.tasks"] = (rep["pool"]["tasks"], "count")
    metrics["layer.coverage_ratio"] = (ratio(in_handle, handle_s, 0), "ratio")
    metrics["trace.overhead_ratio"] = (ratio(rep["traced_wall_s"], rep["untraced_wall_s"], 0),
                                       "ratio")
    for msg in failures[:20]:
        log("FAILED " + msg)
    attempted = STARTUP_SPAWNS + rep["ops"] + sum(len(v) for v in served.values())
    return not failures, attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    build()
    wl = workloads.WORKLOADS[a.workload]
    run_dir = os.path.join(RUN_ROOT, "%s-%d-%d" % (a.workload, a.seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        if a.trace:
            correct, attempted, failed, metrics = trace(wl, a.seed, run_dir)
        else:
            correct, attempted, failed, metrics = timed(wl, a.seed, a.seconds, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(RUN_ROOT)  # unless another run still uses it
        except OSError:
            pass
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
