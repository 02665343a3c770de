#!/usr/bin/env python3
"""Real-path benchmark of gearctl: import -> serve over TCP -> remote
export / lazy launch, driven the way a user drives the built binary.

    python3 perfbench/run.py --workload small-files --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload version-chain --seed 1 --seconds 45 --trace 1
    python3 perfbench/run.py --smoke

Each run builds gearctl and the benchmark's helpers from this checkout into
.bench_build/, generates its trees from --seed, and makes several passes.
Each pass starts one daemon and runs every client step as a separate
`gearctl --remote` process, one at a time. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics; --trace 1 reports the per-layer metrics of
traced passes (see perfbench/README.md).
"""

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import treegen  # noqa: E402

BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_work")
RESULTS = os.path.join(ROOT, ".bench_results")
GEARCTL = os.path.join(BUILD, "tools", "gearctl")
GEARBENCH = os.path.join(BUILD, "gearbench")

WORKERS = 2          # client --workers: with the daemon's thread, under 4 cores
SETUPS = 5           # set-ups per run; setup_s is their median
STEP_TIMEOUT = 120   # seconds before a client step counts as failed
RUN_CAP = 150        # no pass starts that would end after this many seconds
MIN_PASSES = 3       # daemon lives per run; each repeats every step
ROUNDS = 2           # export / cold launch / upgrade-chain rounds per pass

# Tree shapes; "tiny" is the smoke configuration.
SHAPES = {
    "small-files": {"full": dict(files=5000), "tiny": dict(files=300)},
    "version-chain": {"full": dict(versions=3, files=320, churn_files=24),
                      "tiny": dict(versions=3, files=40, churn_files=4)},
}
GENERATORS = {"small-files": treegen.small_files, "version-chain": treegen.version_chain}
STEPS = ["import", "reimport", "update", "export", "warm", "upgrade"]

_live = set()  # processes to kill if the run is cut short


def log(msg):
    print("perfbench: " + msg, flush=True)


# ---------------------------------------------------------------- processes

def _kill(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def kill_all(signum=None, frame=None):
    """Kills and reaps every live child; as a signal handler, then exits."""
    for proc in list(_live):
        _kill(proc)
        try:
            proc.wait(timeout=10)
        except (subprocess.TimeoutExpired, ChildProcessError):
            pass
    _live.clear()
    if signum is not None:
        sys.exit(1)


def _die_with_parent():
    """Runs in the daemon's child process: have the kernel SIGKILL it if
    this benchmark dies first, however it dies."""
    pr_set_pdeathsig = 1
    ctypes.CDLL(None).prctl(pr_set_pdeathsig, signal.SIGKILL)


class Result:
    def __init__(self, ok, wall, ready, cpu, maxrss_kb, out, err):
        self.ok, self.wall, self.ready = ok, wall, ready
        self.cpu, self.maxrss_kb, self.out, self.err = cpu, maxrss_kb, out, err


def run_client(argv, timeout=STEP_TIMEOUT):
    """Runs one client process to completion. `ready` is the time to its
    first stdout line, `wall` the time to exit, both from spawn."""
    err_path = os.path.join(WORK, "client.err")
    with open(err_path, "wb") as err_file:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err_file,
                                stdin=subprocess.DEVNULL,
                                start_new_session=True)
        _live.add(proc)
        lines, first = [], []

        def reader():
            for line in proc.stdout:
                if not first:
                    first.append(time.perf_counter())
                lines.append(line)

        thread = threading.Thread(target=reader)
        thread.start()
        timer = threading.Timer(timeout, _kill, (proc,))
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter()
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        _live.discard(proc)
        thread.join()
        proc.stdout.close()
    with open(err_path, "rb") as f:
        err = f.read().decode(errors="replace")
    ok = proc.returncode == 0
    if not ok:
        log("FAILED (exit %d): %s\n%s" % (proc.returncode, " ".join(argv), err[-2000:]))
    return Result(ok, end - start, (first[0] - start) if first else None,
                  usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                  b"".join(lines).decode(errors="replace"), err)


class Daemon:
    """One registry daemon: `gearctl serve`, or the traced gearbench copy,
    which answers "snap" on stdin with a JSON line of counters."""

    def __init__(self, store_dir, traced):
        self.traced = traced
        binary = GEARBENCH if traced else GEARCTL
        argv = [binary, "serve", "--addr", "127.0.0.1:0", "--store-dir", store_dir]
        self.err = open(os.path.join(WORK, "daemon.err"), "ab")
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self.err, start_new_session=True, text=True,
                                     preexec_fn=_die_with_parent)
        _live.add(self.proc)
        line = self._readline(30)
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError("daemon did not start: %r" % line)
        self.port = int(line.rsplit(":", 1)[1])

    def _readline(self, timeout):
        timer = threading.Timer(timeout, _kill, (self.proc,))
        timer.start()
        line = self.proc.stdout.readline()
        timer.cancel()
        return line.strip()

    def snap(self):
        self.proc.stdin.write("snap\n")
        self.proc.stdin.flush()
        return json.loads(self._readline(30))

    def stop(self):
        """Stops the daemon and waits for it; True on a clean exit."""
        if self.proc.poll() is None:
            if self.traced:
                self.proc.stdin.close()
            else:
                self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            _kill(self.proc)
            code = self.proc.wait()
        _live.discard(self.proc)
        self.proc.stdout.close()
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        self.err.close()
        return code == 0


# -------------------------------------------------------------------- build

def build():
    if not (os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "tools", "gearctl.cpp"))):
        sys.exit("perfbench: no gear sources next to perfbench/ (src/, tools/); "
                 "run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as out:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1)),
                      "--target", "gearctl", "gearbench"])
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("perfbench: build failed: %s" % " ".join(step))


def build_type():
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip()
    return ""


def fs_type(path):
    """Filesystem type of the mount holding `path` (/proc/self/mountinfo)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    with open("/proc/self/mountinfo") as f:
        for line in f:
            left, right = line.split(" - ", 1)
            mount = left.split()[4].replace("\\040", " ")
            inside = path == mount or path.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) > len(best):
                best, kind = mount, right.split()[0]
    return kind


# -------------------------------------------------------------------- trees

class Version:
    def __init__(self, tree, src):
        self.src = src
        self.bytes = tree.total_bytes()
        self.entries = tree.entries()
        self.contents = tree.contents()
        self.digest = tree.digest()
        self.files = {p: e[2] for p, e in self.entries.items() if e[0] == "file"}


def make_trees(workload, seed, size, dest):
    trees = GENERATORS[workload](seed, **SHAPES[workload][size])
    versions = []
    for i, tree in enumerate(trees):
        src = os.path.join(dest, "v%d" % (i + 1))
        tree.write(src)
        versions.append(Version(tree, src))
    return versions


def scan(root):
    """path -> (kind, mode, sha256 or link target), like Tree.entries()."""
    out = {}

    def walk(d, prefix):
        with os.scandir(d) as it:
            for e in it:
                p = prefix + e.name
                if e.is_symlink():
                    out[p] = ("link", None, os.readlink(e.path))
                elif e.is_dir(follow_symlinks=False):
                    out[p] = ("dir", e.stat(follow_symlinks=False).st_mode & 0o7777, "")
                    walk(e.path, p + "/")
                else:
                    with open(e.path, "rb") as f:
                        digest = hashlib.sha256(f.read()).hexdigest()
                    out[p] = ("file", e.stat(follow_symlinks=False).st_mode & 0o7777, digest)

    walk(root, "")
    return out


def materialized_ok(client, ref, version):
    """Every regular file of `version` is linked under the client's local
    store and byte-identical."""
    files = os.path.join(client, "local", "images", ref.replace(":", "_"), "files")
    for path, digest in version.files.items():
        try:
            with open(os.path.join(files, path), "rb") as f:
                if hashlib.sha256(f.read()).hexdigest() != digest:
                    return False
        except OSError:
            return False
    return True


def field(text, prefix, suffix):
    """The integer between `prefix` and `suffix` in gearctl's output."""
    i = text.find(prefix)
    if i < 0:
        return None
    i += len(prefix)
    j = text.find(suffix, i)
    try:
        return int(text[i:j])
    except ValueError:
        return None


def tree_bytes(root):
    total = 0
    for d, _, names in os.walk(root):
        for n in names:
            total += os.lstat(os.path.join(d, n)).st_size
    return total


# --------------------------------------------------------------------- pass

def median(xs):
    return statistics.median(xs) if xs else float("nan")


def mean(xs):
    return statistics.mean(xs) if xs else float("nan")


class Pass:
    """One daemon's life: the imports, then ROUNDS rounds of export, cold
    lazy launch and upgrade chain, every client call checked. Collects
    per-step samples; a traced pass also collects per-execution deltas of
    the daemon's counters."""

    def __init__(self, name, versions, traced):
        self.versions, self.traced = versions, traced
        self.dir = os.path.join(WORK, name)
        self.client = os.path.join(self.dir, "client")
        self.store = os.path.join(self.dir, "daemon")
        self.attempted = self.failed = 0
        self.samples = {s: [] for s in STEPS}   # Result per execution
        self.deltas = {s: [] for s in STEPS}    # daemon counter deltas
        self.ready = []
        self.import_rss_kb = None
        self.stored_bytes = None
        self.final_snap = {}

    def start(self):
        os.makedirs(self.dir)
        self.attempted += 1
        self.daemon = Daemon(self.store, self.traced)
        if not self.gearctl("init").ok:
            self.failed += 1

    def gearctl(self, *args, lazy=False):
        argv = [GEARCTL, "--workers", str(WORKERS), "--remote",
                "127.0.0.1:%d" % self.daemon.port]
        if lazy:
            argv.append("--lazy")
        return run_client(argv + [self.client] + list(args))

    def step(self, name, args, check, lazy=False):
        """Runs one client operation; counts it failed unless it exits 0 and
        `check(result)` holds. Records the sample under `name` (None = an
        untimed preparation step)."""
        self.attempted += 1
        before = self.daemon.snap() if self.traced else None
        r = self.gearctl(*args, lazy=lazy)
        after = self.daemon.snap() if self.traced else None
        if not (r.ok and check(r)):
            self.failed += 1
            if r.ok:
                log("check failed: %s %s\n%s%s" % (name, " ".join(args), r.out[-800:], r.err[-800:]))
            return None
        if name is not None:
            self.samples[name].append(r)
            if self.traced:
                self.deltas[name].append({k: after[k] - before[k] for k in after})
        return r

    def run(self):
        vs = self.versions
        refs = ["img:v%d" % (i + 1) for i in range(len(vs))]
        seen = set(vs[0].contents)

        def uploaded(expected):
            return lambda r: field(r.out, "unique gear files (", " uploaded") == expected

        def backfilled(expected, version=None, ref=None):
            def check(r):
                got = field(r.err, "order): ", " files")
                return (got == expected and r.ready is not None and
                        (version is None or materialized_ok(self.client, ref, version)))
            return check

        r = self.step("import", ["import", vs[0].src, refs[0]], uploaded(len(vs[0].contents)))
        if r:
            self.import_rss_kb = r.maxrss_kb
        self.step("reimport", ["import", vs[0].src, "img:v1-again"], uploaded(0))
        for v, ref in zip(vs[1:], refs[1:]):
            self.step("update", ["import", v.src, ref], uploaded(len(v.contents - seen)))
            seen |= v.contents

        newest, ref_new = vs[-1], refs[-1]
        local = os.path.join(self.client, "local")
        out = os.path.join(self.dir, "export")
        for _ in range(ROUNDS):
            self.step("export", ["export", ref_new, out],
                      lambda r: scan(out) == newest.entries)
            shutil.rmtree(out, ignore_errors=True)

            shutil.rmtree(local, ignore_errors=True)
            r = self.step("warm", ["launch", ref_new],
                          backfilled(len(newest.contents), newest, ref_new), lazy=True)
            if r:
                self.ready.append(r.ready)

            shutil.rmtree(local, ignore_errors=True)
            self.step(None, ["launch", refs[0]], backfilled(len(vs[0].contents)), lazy=True)
            held = set(vs[0].contents)
            for v, ref in zip(vs[1:], refs[1:]):
                self.step("upgrade", ["launch", ref],
                          backfilled(len(v.contents - held), v, ref), lazy=True)
                held |= v.contents

    def finish(self):
        """Stops the daemon, scrubs its store, measures it."""
        if self.traced:
            self.final_snap = self.daemon.snap()
        self.attempted += 1
        if not self.daemon.stop():
            self.failed += 1
        self.attempted += 1
        r = run_client([GEARCTL, "--store-dir", self.store, self.client, "scrub"])
        if not (r.ok and " 0 corrupt" in r.out):
            self.failed += 1
        self.stored_bytes = tree_bytes(self.store)


def run_passes(versions, traced, seconds=None, count=None, first=None):
    """Runs `count` passes or, without a count, at least MIN_PASSES and then
    more while another one fits in `seconds`. Each pass's files are dropped
    once it is done, except the last pass's."""
    passes, begin = [], time.perf_counter()
    while True:
        p = first if first and not passes else None
        if p is None:
            p = Pass("pass%d" % len(passes), versions, traced)
            p.start()
        p.run()
        p.finish()
        if passes:
            shutil.rmtree(passes[-1].dir)
        passes.append(p)
        elapsed = time.perf_counter() - begin
        if count is not None:
            if len(passes) >= count:
                return passes
        elif len(passes) >= MIN_PASSES and \
                elapsed * (len(passes) + 1) / len(passes) > min(seconds, RUN_CAP):
            return passes


def step_times(passes):
    """Per-step wall time over all passes of a run, aggregated as the
    end-to-end metrics define it: the median for cold launches, the mean
    elsewhere. On a shared host the speed of a step can move between two
    levels for tens of seconds at a time; a mean over a run's samples moves
    less from run to run than a median, which jumps with whichever level
    holds the majority."""
    def walls(step):
        return [r.wall for p in passes for r in p.samples[step]]

    return {
        "import": mean(walls("import")),
        "reimport": mean(walls("reimport")),
        "update": mean(walls("update")),
        "export": mean(walls("export")),
        "warm": median(walls("warm")),
        "upgrade": mean(walls("upgrade")),
    }


# ------------------------------------------------------------------ metrics

def end_to_end(passes, setups):
    vs = passes[0].versions
    t = step_times(passes)
    ready = [x for p in passes for x in p.ready]
    return {
        "setup_s": (median(setups), "s"),
        "import_MBps": (vs[0].bytes / 1e6 / t["import"], "MB/s"),
        "reimport_s": (t["reimport"], "s"),
        "update_import_s": (t["update"], "s"),
        "export_MBps": (vs[-1].bytes / 1e6 / t["export"], "MB/s"),
        "ready_p50_ms": (median(ready) * 1e3, "ms"),
        "warm_s": (t["warm"], "s"),
        "upgrade_s": (t["upgrade"], "s"),
        "import_rss_MB": (median([p.import_rss_kb for p in passes if p.import_rss_kb])
                          * 1024 / 1e6, "MB"),
        "stored_bytes_per_source_byte": (median([p.stored_bytes for p in passes])
                                         / sum(v.bytes for v in vs), "ratio"),
    }


def per_layer(plain, traced, layers):
    vs = traced[0].versions
    base, trace = step_times(plain), step_times(traced)
    out = {}
    for s in STEPS:
        d = [x for p in traced for x in p.deltas[s]]
        rs = [r for p in traced for r in p.samples[s]]
        m = {k: mean([x[k] for x in d]) for k in
             ("frames", "items", "bytes_in", "bytes_out", "registry_calls",
              "registry_busy_s", "puts", "put_s", "gets", "get_s")}
        wall = mean([r.wall for r in rs])
        out.update({
            s + ".net.frames": (m["frames"], "count"),
            s + ".net.items": (m["items"], "count"),
            s + ".net.bytes_in": (m["bytes_in"], "B"),
            s + ".net.bytes_out": (m["bytes_out"], "B"),
            s + ".registry.busy_s": (m["registry_busy_s"], "s"),
            s + ".registry.calls": (m["registry_calls"], "count"),
            s + ".object_store.puts": (m["puts"], "count"),
            s + ".object_store.put_s": (m["put_s"], "s"),
            s + ".object_store.gets": (m["gets"], "count"),
            s + ".object_store.get_s": (m["get_s"], "s"),
            s + ".client.wall_s": (wall, "s"),
            s + ".client.cpu_s": (mean([r.cpu for r in rs]), "s"),
            s + ".client.self_s": (wall - m["registry_busy_s"], "s"),
            s + ".trace.overhead": (trace[s] / base[s] - 1, "ratio"),
        })
    newest = vs[-1]
    held, per_chain = set(vs[0].contents), 0
    for v in vs[1:]:
        per_chain += len(v.contents - held)
        held |= v.contents
    chains = ROUNDS * len(traced)
    upgrade_items = sum(x["items"] for p in traced for x in p.deltas["upgrade"])
    out["export.net.frames_per_file"] = (out["export.net.frames"][0] / len(newest.files), "ratio")
    out["warm.net.frames_per_file"] = (out["warm.net.frames"][0] / len(newest.contents), "ratio")
    out["upgrade.net.items_per_changed_file"] = (upgrade_items / chains / per_chain, "ratio")
    out.update({k: (v, "s") for k, v in layers.items()})
    ready = [x for p in plain for x in p.ready]
    p90 = statistics.quantiles(ready, n=10)[-1] if len(ready) >= 2 else float("nan")
    out["ready.client.p90_ms"] = (p90 * 1e3, "ms")
    out["ready.client.samples"] = (len(ready), "count")
    out["daemon.peak_rss_MB"] = (max(p.final_snap.get("peak_rss_MB", float("nan"))
                                     for p in traced), "MB")
    return out


# --------------------------------------------------------------------- main

def private_tmpfs(path):
    """Mounts a tmpfs at `path` in a mount namespace of this process's own.
    Its children inherit it and it ends with the last of them, so the run's
    files live in memory, under the checkout, and nothing outlives the run.
    False where the process may not (no CAP_SYS_ADMIN)."""
    libc = ctypes.CDLL(None, use_errno=True)
    clone_newns, ms_rec, ms_private = 0x20000, 0x4000, 0x40000
    if libc.unshare(clone_newns) != 0:
        return False
    # Private first, so the tmpfs cannot propagate to the parent namespace.
    if libc.mount(b"none", b"/", None, ms_rec | ms_private, None) != 0:
        return False
    return libc.mount(b"tmpfs", os.fsencode(path), b"tmpfs", 0, b"size=2g,mode=0755") == 0


def setup_once(workload, seed, size, name):
    """Trees generated and written, daemon serving, client store
    initialised: what setup_s times."""
    start = time.perf_counter()
    versions = make_trees(workload, seed, size, os.path.join(WORK, name, "src"))
    p = Pass(name + "/pass", versions, traced=False)
    p.start()
    return time.perf_counter() - start, p


def run_benchmark(args):
    size = "tiny" if args.tiny else "full"
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    os.umask(0o022)
    in_memory = private_tmpfs(WORK)
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": size, "nproc": os.cpu_count(),
        "workers": WORKERS, "build_type": build_type(),
        "fs": {"work": fs_type(WORK), "build": fs_type(BUILD)},
    }
    log("env " + json.dumps(env))
    if not in_memory:
        log("WARNING: no private tmpfs (needs CAP_SYS_ADMIN); stores and trees are on "
            "%s, so these figures include device latency and are not comparable "
            "to tmpfs runs" % env["fs"]["work"])

    if args.trace == 0:
        setups, first = [], None
        for i in range(SETUPS):
            if first is not None:
                first.daemon.stop()
                shutil.rmtree(os.path.join(WORK, "setup%d" % (i - 1)))
            seconds, first = setup_once(args.workload, args.seed, size, "setup%d" % i)
            setups.append(seconds)
        passes = run_passes(first.versions, False, seconds=args.seconds, first=first)
        metrics = end_to_end(passes, setups)
    else:
        versions = make_trees(args.workload, args.seed, size, os.path.join(WORK, "src"))
        plain = run_passes(versions, False, seconds=args.seconds)
        shutil.rmtree(plain[-1].dir)
        traced = run_passes(versions, True, count=len(plain))
        passes = plain + traced
        layer_dir = os.path.join(WORK, "layers")
        os.makedirs(layer_dir)
        traced[-1].attempted += 1
        r = run_client([GEARBENCH, "layers", versions[-1].src, traced[-1].client, layer_dir])
        layers = {}
        if r.ok:
            layers = {k: v for k, v in json.loads(r.out.strip().splitlines()[-1]).items()
                      if "." in k}
        else:
            traced[-1].failed += 1
        metrics = per_layer(plain, traced, layers)

    versions = passes[0].versions
    for i, v in enumerate(versions):
        log("tree v%d: %d files, %d distinct, %d bytes, sha256 %s" %
            (i + 1, len(v.files), len(v.contents), v.bytes, v.digest))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for s in STEPS:
        walls = [[round(r.wall, 4) for r in p.samples[s]] for p in passes]
        log("%s walls per pass %s" % (s, walls))
    result = {
        "correct": failed == 0 and all(v == v for v, _ in metrics.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(RESULTS, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(RESULTS, name), "w") as f:
        json.dump({"env": env, "trees": [v.digest for v in versions], **result}, f, indent=1)
    if not in_memory:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def smoke():
    """Tiny trees, every step of both workloads, traced and untraced; fails
    on a missing metric, a wrong unit or any failed check."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for w in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
                    "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
            out = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=600)
            try:
                result = json.loads(out.stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                result = {}
            metrics = result.get("metrics", {})
            problems = []
            if out.returncode != 0 or not result.get("correct"):
                problems.append("exit %d, correct=%s" % (out.returncode, result.get("correct")))
            for m in declared:
                got = metrics.get(m["name"])
                if got is None or got.get("unit") != m["unit"] or \
                        not isinstance(got.get("value"), (int, float)):
                    problems.append("metric %s missing or without unit %s" % (m["name"], m["unit"]))
            print("smoke %s trace=%d: %s" % (w["name"], trace,
                                             "ok" if not problems else "; ".join(problems)))
            ok = ok and not problems
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-sized trees")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny run of every workload, traced and untraced")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, kill_all)
    build()
    try:
        return smoke() if args.smoke else run_benchmark(args)
    finally:
        kill_all()


if __name__ == "__main__":
    sys.exit(main())
