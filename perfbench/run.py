#!/usr/bin/env python3
"""Repository benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It builds palsweep and the in-process
tracer (perfbench/tool) from source into .bench_build/, runs the
workload's palsweep commands as child processes, checks their outputs,
and prints one JSON result as the last line of standard output:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
perfbench/WORKLOADS.md says why each workload exists and which
end-to-end metric each layer metric should move.
"""

import argparse
import csv
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

START = time.perf_counter()
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")
PALSWEEP = os.path.join(BIN, "palsweep")
TOOL = os.path.join(BIN, "perfbench")
DIGESTS = os.path.join(ROOT, "perfbench", "digests.json")

WORKERS = "2"        # palsweep -workers for every command
MIN_REPS = 3         # timed repetitions per run, at least
SETUP_REPS = 15      # fresh processes timing set-up per run
CHILD_TIMEOUT = 170  # seconds before a hung child is killed
RUN_BUDGET = 120     # seconds after which no further repetition starts

FIGURES = "ablation,fig03,fig05,fig06_08,sia,synergy,testbed"
PAPER_PLACERS = ["pal", "pm-first", "packed-sticky", "packed-non-sticky",
                 "random-sticky", "random-non-sticky"]
GRID_SEEDS = 8       # grid-store seeds axis: 18 cells per seed
FORK_JOBS = 500      # fork-grid Synergy trace length


def read(path):
    try:
        with open(path, errors="replace") as f:
            return f.read()
    except OSError:
        return ""


def write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
        f.write("\n")


def source_digest():
    """Hashes the sources the build reads and this driver, which writes
    the workloads' specs; names the build when git cannot."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith((".go", ".mod", ".sum", ".py")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def build():
    """Builds palsweep and the tracer unless the sources are unchanged."""
    for need in ("go.mod", os.path.join("cmd", "palsweep"),
                 os.path.join("perfbench", "tool", "go.mod")):
        if not os.path.exists(os.path.join(ROOT, need)):
            sys.exit("perfbench: %s missing: run from the root of a repository checkout" % need)
    digest = source_digest()
    stamp = os.path.join(BIN, "source.sha256")
    if os.path.exists(PALSWEEP) and os.path.exists(TOOL) and read(stamp) == digest:
        return digest
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(BIN, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, GOCACHE=os.path.join(BUILD, "gocache"),
               GOPATH=os.path.join(BUILD, "gopath"), GOTMPDIR=tmp, TMPDIR=tmp,
               GOFLAGS="-buildvcs=false", GOTOOLCHAIN="local", GOPROXY="off",
               GOWORK="off", CGO_ENABLED="0")
    for cwd, out, pkg in ((ROOT, PALSWEEP, "./cmd/palsweep"),
                          (os.path.join(ROOT, "perfbench", "tool"), TOOL, ".")):
        p = subprocess.run(["go", "build", "-o", out, pkg], cwd=cwd, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.exit("perfbench: go build %s failed:\n%s" % (pkg, p.stdout))
    with open(stamp, "w") as f:
        f.write(digest)
    return digest


def commit(digest):
    if os.path.isdir(os.path.join(ROOT, ".git")):
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        if p.returncode == 0:
            return p.stdout.strip()
    return "source-" + digest[:16]


class Proc:
    """One finished child process."""

    def __init__(self, rc, wall, rss_mb, stdout, stderr):
        self.rc, self.wall, self.rss_mb = rc, wall, rss_mb
        self.stdout, self.stderr = stdout, stderr


def run(argv, cwd, tag):
    """Runs argv to exit: exit code, seconds from spawn to exit, max RSS, output."""
    out_path = os.path.join(cwd, tag + ".stdout")
    err_path = os.path.join(cwd, tag + ".stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err,
                             env=dict(os.environ, TMPDIR=cwd))
        killer = threading.Timer(CHILD_TIMEOUT, p.kill)
        killer.start()
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        killer.cancel()
    p.returncode = os.WEXITSTATUS(status) if os.WIFEXITED(status) else -1
    return Proc(p.returncode, wall, usage.ru_maxrss / 1024.0, read(out_path), read(err_path))


class Checks:
    """Counts operations (child processes with the checks on their output,
    and cross-run checks) and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.problems = []
        self.first = {}

    def op(self, what, proc, *failures):
        failures = [f for f in failures if f]
        if proc is not None and proc.rc != 0:
            failures.insert(0, "exit %d: %s" % (proc.rc, proc.stderr.strip()[-300:]))
        self.attempted += 1
        if failures:
            self.problems.append("%s: %s" % (what, "; ".join(failures)))

    def same(self, name, digest):
        """A failure when digest differs from the first one seen under name."""
        first = self.first.setdefault(name, digest)
        return None if digest == first else "%s digest %s differs from %s" % (name, digest[:12], first[:12])


def digest_dir(path):
    """Hashes every file of a palsweep -out directory, names included."""
    if not os.path.isdir(path):
        return "missing"
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as f:
            h.update(f.read() + b"\0")
    return h.hexdigest()


def table_lines(path):
    """The scenario table's lines below the header."""
    return read(os.path.join(path, "scenarios.csv")).splitlines()[1:]


def truncated(path):
    """A failure when the scenario table reports a truncated cell."""
    rows = list(csv.reader(read(os.path.join(path, "scenarios.csv")).splitlines()))
    if not rows:
        return None
    col = rows[0].index("truncated")
    bad = [r[0] for r in rows[1:] if len(r) > col and r[col] and not r[0].startswith("#")]
    return "truncated cells: %s" % ", ".join(bad[:3]) if bad else None


def union_check(shard_lines, lines):
    return None if sorted(shard_lines) == sorted(lines) else "shard tables differ from the unsharded table"


def warm_zero(proc):
    return None if ", 0 simulated," in proc.stderr else "warm re-sweep simulated cells"


def du_mb(path):
    total = 0
    for dirpath, _, filenames in os.walk(path):
        for name in filenames:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total / float(1 << 20)


class Workload:
    """One benchmark workload: prepare once, then timed repetitions."""

    args = []      # palsweep arguments naming the workload
    traced = []    # traced/ subdirectories whose tables must match "tables"
    spec = None    # scenario spec file in the work directory

    def __init__(self, name, work, checks):
        self.name, self.work, self.checks = name, work, checks
        self.unshared_wall = 0.0
        self.tool_args = ["-spec", self.spec] if self.spec else []

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def sweep(self, tag, *args):
        out = self.path(tag)
        proc = run([PALSWEEP, "-workers", WORKERS] + self.args + list(args)
                   + ["-format", "csv", "-out", out], self.work, tag)
        return proc, out

    def done(self, *paths):
        for p in paths:
            shutil.rmtree(p, ignore_errors=True)

    def prepare(self, seed):
        pass

    def finish(self):
        pass


class FiguresQuick(Workload):
    # The figure seeds are constants of the experiments package: the
    # benchmark seed does not reach them.
    args = ["-experiments", FIGURES, "-scale", "quick", "-quiet"]
    traced = ["figures"]

    def prepare(self, seed):
        self.store = self.path("store")
        p, out = self.sweep("populate", "-store", self.store)
        self.checks.op("figures into a store", p, self.checks.same("tables", digest_dir(out)))
        self.store_mb = du_mb(self.store)
        self.done(out)

    def rep(self, i):
        cold, out = self.sweep("cold%d" % i)
        self.checks.op("cold figures", cold, self.checks.same("tables", digest_dir(out)))
        warm, wout = self.sweep("warm%d" % i, "-store", self.store)
        self.checks.op("warm figures", warm, self.checks.same("tables", digest_dir(wout)))
        self.done(out, wout)
        return {"wall_s": cold.wall, "warm_s": warm.wall, "peak_rss_mb": max(cold.rss_mb, warm.rss_mb),
                "store_mb": self.store_mb, "traced_base": cold.wall}


class GridStore(Workload):
    spec = "grid.json"
    args = ["-scenario", spec]
    traced = ["warm"]

    def prepare(self, seed):
        # The set of simulations is fixed. Drawing the grid's trace seeds,
        # or the variability profile every cell runs on, from the benchmark
        # seed moved stored bytes by a tenth between quartiles of five
        # seeds, and the halves' times with them. So the seed names the
        # grid, which re-keys every cell and so re-deals the cells between
        # the two shards, and orders each axis's values, which orders the
        # sweep.
        r = random.Random(seed)
        axes = {"seeds": list(range(1, GRID_SEEDS + 1)),
                "policies": ["packed-sticky", "random-sticky"],
                "scheds": ["fifo", "las", "srtf"],
                "arrivals": ["poisson", "bursty", "diurnal"]}
        for values in axes.values():
            r.shuffle(values)
        write_json(self.path(self.spec), {
            "name": "grid-store-%d" % seed,
            "cluster": {"nodes": 8, "gpus_per_node": 4},
            "workload": {"source": "synthetic", "num_jobs": 120},
            "metrics": {"enabled": True},
            "decisions": {"enabled": True},
            "grid": axes,
        })

    def rep(self, i):
        store, journal = self.path("store%d" % i), self.path("journal%d" % i)
        cold, lines, outs = [], [], []
        for shard in (0, 1):
            p, out = self.sweep("cold%d-%d" % (i, shard), "-shard", "%d/2" % shard,
                                "-store", store, "-journal", journal)
            self.checks.op("cold shard %d/2" % shard, p, truncated(out))
            lines += table_lines(out)
            cold.append(p)
            outs.append(out)
        store_mb = du_mb(store)
        warm, wout = self.sweep("warm%d" % i, "-store", store)
        self.checks.op("warm re-sweep", warm, self.checks.same("tables", digest_dir(wout)),
                       warm_zero(warm), union_check(lines, table_lines(wout)))
        self.done(store, journal, wout, *outs)
        return {"wall_s": cold[0].wall + cold[1].wall, "warm_s": warm.wall,
                "peak_rss_mb": max(p.rss_mb for p in cold + [warm]), "store_mb": store_mb,
                "traced_base": cold[0].wall + cold[1].wall + warm.wall}

    def trace_checks(self):
        t = self.path("traced")
        return [union_check(table_lines(os.path.join(t, "cold0")) + table_lines(os.path.join(t, "cold1")),
                            table_lines(os.path.join(t, "warm")))]


class ForkGrid(Workload):
    spec = "fork.json"
    args = ["-scenario", spec]
    traced = ["shared", "warm"]

    def prepare(self, seed):
        # The trace is the Synergy generator's default, the one the paper
        # figures run: between seeded traces the sweep's wall time moved by
        # a quarter (one heavy-tailed trace decides it), between variability
        # profiles by a twelfth. So the seed draws the Longhorn profile PAL
        # places against and the root seed of the random placers.
        r = random.Random(seed)
        write_json(self.path(self.spec), {
            "name": "fork-grid",
            "seed": r.randrange(1, 1 << 31),
            "cluster": {"nodes": 64, "gpus_per_node": 4},
            "profile": {"source": "longhorn", "seed": r.randrange(1, 1 << 31)},
            "workload": {"source": "synergy", "num_jobs": FORK_JOBS},
            "engine": {"measure_first": 200, "measure_last": 400},
            "fork": {"rounds": 200, "policy": "packed-sticky", "sched": "fifo"},
            "grid": {"policies": PAPER_PLACERS, "scheds": ["fifo", "las", "srtf"],
                     "jobs_per_hour": [8, 12]},
        })

    def rep(self, i):
        store = self.path("store%d" % i)
        shared, out = self.sweep("shared%d" % i, "-store", store)
        self.checks.op("forked sweep", shared, self.checks.same("tables", digest_dir(out)), truncated(out),
                       None if " snapshot forks" in shared.stderr else "no snapshot forks")
        store_mb = du_mb(store)
        warm, wout = self.sweep("warm%d" % i, "-store", store)
        self.checks.op("warm re-sweep", warm, self.checks.same("tables", digest_dir(wout)), warm_zero(warm))
        self.done(store, out, wout)
        return {"wall_s": shared.wall, "warm_s": warm.wall, "peak_rss_mb": max(shared.rss_mb, warm.rss_mb),
                "store_mb": store_mb, "traced_base": shared.wall + warm.wall}

    def finish(self):
        # Once per run: sharing must not change a byte of the tables. The
        # journal's engine counters give the rounds stepped without sharing.
        p, out = self.sweep("unshared", "-snapshots=false", "-store", self.path("unshared-store"),
                            "-journal", self.path("unshared-journal"))
        self.checks.op("unshared sweep", p, self.checks.same("tables", digest_dir(out)))
        self.unshared_wall = p.wall
        self.tool_args = self.tool_args + ["-unshared-journal", "unshared-journal"]


WORKLOADS = {"figures-quick": FiguresQuick, "grid-store": GridStore, "fork-grid": ForkGrid}


def tool(w, cmd):
    p = run([TOOL, cmd, "-workload", w.name, "-workers", WORKERS] + w.tool_args, w.work, "tool-" + cmd)
    try:
        data = json.loads(p.stdout.strip().splitlines()[-1]) if p.rc == 0 else {}
    except (ValueError, IndexError):
        data = {}
    return p, data


def timed_run(w, seconds, bench, info):
    setup = []
    for _ in range(SETUP_REPS):
        p, data = tool(w, "setup")
        w.checks.op("set-up", p, None if "setup_s" in data else "no set-up time")
        if "setup_s" in data:
            setup.append(data["setup_s"])
            info.update(go_version=data["go_version"], gomaxprocs=data["gomaxprocs"])
    samples = []
    t0 = time.perf_counter()
    while len(samples) < MIN_REPS or (time.perf_counter() - t0 < seconds
                                      and time.perf_counter() - START < RUN_BUDGET):
        samples.append(w.rep(len(samples)))
    w.finish()
    info["reps"] = len(samples)
    runs = {"setup_s": setup}
    for m in bench["end_to_end"]:
        if m["name"] != "setup_s":
            runs[m["name"]] = [s[m["name"]] for s in samples]
    info["samples"] = {k: [round(x, 4) for x in v] for k, v in runs.items()}
    return {k: statistics.median(v) if v else 0.0 for k, v in runs.items()}


def trace_run(w, bench, info):
    base = w.rep(0)["traced_base"]
    w.finish()
    p, data = tool(w, "trace")
    checks = [w.checks.same("tables", digest_dir(w.path("traced", sub))) for sub in w.traced]
    if hasattr(w, "trace_checks"):
        checks += w.trace_checks()
    w.checks.op("traced replay", p, *checks)
    info.update(reps=1, go_version=data.get("go_version"), gomaxprocs=data.get("gomaxprocs"))
    m = data.get("metrics", {})
    if "wall_s" in data:
        m["bench.trace_overhead_frac"] = data["wall_s"] / base - 1
    m["fork.unshared_wall_s"] = w.unshared_wall
    return {x["name"]: float(m.get(x["name"], 0.0)) for x in bench["per_layer"]}


def check_digests(w, seed, source, checks):
    """Holds the run's tables to the recorded default-seed digests and to
    every earlier run of the same seed and sources in this checkout."""
    tables = checks.first.get("tables")
    if tables is None:
        return
    recorded = json.loads(read(DIGESTS) or "{}")
    want = recorded.get("tables", {}).get(w.name)
    if want and (w.name == "figures-quick" or seed == recorded.get("default_seed")):
        checks.op("recorded digest", None, None if want == tables else
                  "tables differ from perfbench/digests.json")
    cache_path = os.path.join(BUILD, "digests.json")
    cache = json.loads(read(cache_path) or "{}")
    prev = cache.setdefault("%s/%d/%s" % (w.name, seed, source[:16]), tables)
    checks.op("earlier runs' digest", None, None if prev == tables else
              "tables differ from an earlier run of this seed")
    write_json(cache_path, cache)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    a = ap.parse_args()

    bench = json.loads(read(os.path.join(ROOT, "BENCHMARK.json")) or "null")
    if not bench:
        sys.exit("perfbench: BENCHMARK.json missing: run from the repository root")
    digest = build()
    work = os.path.join(BUILD, "work", "%s-%d" % (a.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    checks = Checks()
    w = WORKLOADS[a.workload](a.workload, work, checks)
    info = {"workload": a.workload, "seed": a.seed, "trace": a.trace,
            "nproc": len(os.sched_getaffinity(0)), "commit": commit(digest)}
    try:
        w.prepare(a.seed)
        values = trace_run(w, bench, info) if a.trace else timed_run(w, a.seconds, bench, info)
        check_digests(w, a.seed, digest, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    info.update(tables=checks.first.get("tables"), problems=checks.problems,
                fail_frac=len(checks.problems) / float(max(checks.attempted, 1)))
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": not checks.problems, "attempted": checks.attempted,
                      "failed": len(checks.problems),
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}))


if __name__ == "__main__":
    main()
