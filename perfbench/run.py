#!/usr/bin/env python3
"""Benchmark entry point: builds h2push from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of an h2push checkout. The first run configures and
builds the repository's libraries, the h2pushd daemon and the perfbench
driver into .bench_build/perfbench (Release); later runs only re-check the
build. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end set of BENCHMARK.json, with --trace 1 the per_layer set.

Workloads:
  sim_cold      cold simulator sweep: page loads of the paper's w1..w20 sites
                under no push, push-all and interleaved push-all, no cache,
                on one parallel-runner worker per CPU.
  live_open    open-loop Poisson page visits to h2pushd on loopback, each
                visit one connection fetching one site's landing page and
                the objects not pushed; daemon and load generator on
                disjoint CPUs, an idle-priority busy loop on every CPU.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench")
DAEMON = os.path.join(BUILD_DIR, "h2push", "tools", "h2pushd")

WORKLOADS = ("sim_cold", "live_open")
SETUP_REPEATS = 5

# live_open corpus. The daemon serves a fixed top100-profile corpus with the
# paper's interleaving scheduler and pushes every pushable object on each
# landing-page request (push-all, the paper's §4.2.1 arm); the seed drives
# which sites are visited and when. The corpus is fixed because its size
# mix, which a corpus seed would change, moves the cost per visit by about
# 10%. The visit rate is a constant in src/open_loop.cc.
LIVE_PROFILE = "top100"
LIVE_SITES = 24
LIVE_CORPUS_SEED = 1


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def fail(message):
    log("perfbench: " + message)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("run from the root of an h2push checkout (src/ not found)")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j",
                    str(os.cpu_count() or 2)], check=True, stdout=sys.stderr)


def run_driver(args, cpus=None):
    def pin():
        if cpus:
            os.sched_setaffinity(0, cpus)
    proc = subprocess.run([DRIVER] + args, stdout=subprocess.PIPE,
                          preexec_fn=pin, timeout=150, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        fail("driver exited with %d" % proc.returncode)
    return json.loads(lines[-1])


def split_cpus():
    """Daemon and load generator get disjoint CPU sets when there are two."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) == 1:
        return cpus, cpus
    half = len(cpus) // 2
    return cpus[:half], cpus[half:]


class Daemon:
    """One h2pushd process pinned to `cpus`; construction waits until it
    listens and records how long that took."""

    def __init__(self, cpus):
        def pin():
            os.sched_setaffinity(0, cpus)
        started = time.monotonic()
        self.proc = subprocess.Popen(
            [DAEMON, "--port", "0", "--threads", str(len(cpus)),
             "--profile", LIVE_PROFILE, "--sites", str(LIVE_SITES),
             "--seed", str(LIVE_CORPUS_SEED), "--scheduler", "interleaving",
             "--push-strategy", "all"],
            stderr=subprocess.PIPE, stdout=subprocess.DEVNULL, text=True,
            preexec_fn=pin)
        self.port = None
        for line in self.proc.stderr:
            if "listening on" in line:
                address = line.split("listening on ")[1].split(" ")[0]
                self.port = int(address.rsplit(":", 1)[1])
                break
        self.ready_s = time.monotonic() - started
        # Drain the rest of stderr as it comes so the daemon never blocks on
        # a full pipe; stop() returns it.
        self.lines = []
        self.reader = threading.Thread(
            target=lambda: self.lines.extend(self.proc.stderr))
        self.reader.start()
        if self.port is None:
            self.stop()
            fail("h2pushd did not start")

    def stop(self):
        """SIGTERM (graceful drain); returns the daemon's remaining stderr."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.reader.join()
        return "".join(self.lines)

    def counters(self):
        """User and system CPU, read calls and context switches so far."""
        pid = self.proc.pid
        tick = os.sysconf("SC_CLK_TCK")
        with open("/proc/%d/stat" % pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        out = {"user_s": int(fields[11]) / tick,
               "sys_s": int(fields[12]) / tick,
               "ctx": 0, "reads": 0}
        task_dir = "/proc/%d/task" % pid
        for tid in os.listdir(task_dir):
            with open(os.path.join(task_dir, tid, "status")) as f:
                for line in f:
                    if line.startswith(("voluntary_ctxt_switches",
                                        "nonvoluntary_ctxt_switches")):
                        out["ctx"] += int(line.split()[1])
        with open("/proc/%d/io" % pid) as f:
            for line in f:
                if line.startswith("syscr:"):
                    out["reads"] = int(line.split()[1])
        return out


class Spinners:
    """One busy loop per CPU at SCHED_IDLE priority, which gives way to any
    other task at once. A CPU with nothing to run halts, and on a virtual
    machine waking it again waits for the host to schedule that virtual CPU.
    How long that takes depends on the host's other tenants. On a 4-vCPU VM
    a visit's p50 moved between 2.6 and 8.9 ms within minutes without the
    loops, and stayed between 2.0 and 2.9 ms in 20 runs with them. Each loop
    also ends on its own when this script is gone or after `limit_s`."""

    LOOP = ("import os, time\n"
            "parent, end = os.getppid(), time.monotonic() + %f\n"
            "while os.getppid() == parent and time.monotonic() < end: pass\n")

    def __init__(self, cpus, limit_s):
        def setup(cpu):
            os.sched_setaffinity(0, [cpu])
            os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
        self.procs = [
            subprocess.Popen([sys.executable, "-c", self.LOOP % limit_s],
                             preexec_fn=lambda cpu=cpu: setup(cpu))
            for cpu in cpus]

    def stop(self):
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.wait()


def run_live(seed, seconds, trace):
    server_cpus, client_cpus = split_cpus()
    spinners = Spinners(sorted(os.sched_getaffinity(0)), seconds + 120)
    try:
        setup_s = []
        daemon = None
        for _ in range(SETUP_REPEATS):
            if daemon is not None:
                daemon.stop()
            daemon = Daemon(server_cpus)
            setup_s.append(daemon.ready_s)
        try:
            before = daemon.counters()
            result = run_driver(
                ["load", "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace), "--port", str(daemon.port),
                 "--server-pid", str(daemon.proc.pid),
                 "--profile", LIVE_PROFILE, "--sites", str(LIVE_SITES),
                 "--corpus-seed", str(LIVE_CORPUS_SEED)],
                cpus=client_cpus)
            after = daemon.counters()
        finally:
            tail = daemon.stop()
    finally:
        spinners.stop()
    metrics = result["metrics"]
    requests = metrics.pop("requests_total")
    served = None
    for line in tail.splitlines():
        if "done." in line and "requests=" in line:
            served = int(line.split("requests=")[1].split()[0])
    if served != requests:
        result["errors"].append("h2pushd served %s requests, client sent %d"
                                % (served, requests))
    metrics["setup_s"] = statistics.median(setup_s)
    if trace:
        visits = result["attempted"]
        delta = {k: after[k] - before[k] for k in after}
        metrics["server_user_us_per_visit"] = delta["user_s"] * 1e6 / visits
        metrics["server_sys_us_per_visit"] = delta["sys_s"] * 1e6 / visits
        metrics["server_read_calls_per_visit"] = delta["reads"] / visits
        metrics["server_ctx_switches_per_visit"] = delta["ctx"] / visits
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    if args.workload == "live_open":
        result = run_live(args.seed, args.seconds, args.trace)
    else:
        result = run_driver(["sim", "--seed", str(args.seed), "--seconds",
                             str(args.seconds), "--trace", str(args.trace)])

    metrics = result["metrics"]
    if args.trace:
        # A layer this workload does not exercise did no work.
        for m in wanted:
            metrics.setdefault(m["name"], 0)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail("driver did not measure: " + ", ".join(missing))
    for error in result["errors"]:
        log("check failed: " + error)
    print(json.dumps({
        "correct": bool(result["correct"]) and not result["errors"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))


if __name__ == "__main__":
    main()
