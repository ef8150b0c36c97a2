#!/usr/bin/env python3
"""End-to-end simulator benchmark (see README.md).

Builds the simulator and the benchmark runner from source, runs one
benchmark workload and prints its metrics. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.

  python3 perfbench/run.py --workload fig12-grid --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload miss-bound --seed 1 --seconds 30 --trace 1
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --write-oracle   # only when results are meant to change

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs
the traced passes and reports the per-layer metrics. Metric names and
units come from BENCHMARK.json at the repository root.
"""

import argparse
import fcntl
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected")

# Set-up is timed in this many separate processes, and the median is
# reported: one sample is too noisy to gate on.
SETUP_SAMPLES = 5

# The host probe's time on a quiet reference host (calibrate.hh):
# sweep_s and setup_s are stated at that host's speed.
PROBE_REFERENCE_S = 0.014

# Seeds the stored oracle covers. Any other seed is checked for
# determinism and traced/untraced agreement only.
ORACLE_SEEDS = list(range(0, 32)) + [12345]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, root) if not os.path.isabs(root) else root


def child_env():
    """The environment without DOPP_* knobs: slice count, slice hash,
    reference engines and stat dumps must not leak into the runs."""
    return {k: v for k, v in os.environ.items() if not k.startswith("DOPP_")}


def build():
    """Configure and build the runner; returns its path."""
    out = os.path.join(build_root(), "perfbench")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", out, "-j4"], check=True,
                       stdout=sys.stderr)
    return os.path.join(out, "perfbench_e2e")


def timed_until_ready(cmd):
    """Start cmd; return (process, seconds from spawn to its "ready")."""
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env())
    line = proc.stdout.readline()
    ready = time.monotonic() - start
    if line.strip() != "ready":
        proc.wait()
        raise RuntimeError("%s did not get ready (exit %s)"
                           % (cmd[1], proc.returncode))
    return proc, ready


def finish(proc):
    """Wait for proc and parse the JSON result on its last line."""
    out = proc.stdout.read()
    if proc.wait() != 0:
        raise RuntimeError("runner exited with %d" % proc.returncode)
    return json.loads(out.strip().splitlines()[-1])


def provenance(args, result):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            commit = git.stdout.strip()
    src = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                src.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    src.update(f.read())
    return {
        "nproc": os.cpu_count(),
        "compiler": result["build"]["compiler"],
        "build_type": result["build"]["build_type"],
        "cpu_model": cpu,
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "scale": result["scale"],
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_benchmark(args, spec):
    runner = build()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--expected", EXPECTED]
    # Each set-up sample is the time to "ready" over the probe timed
    # right after it, at the probe's reference time.
    setup = []
    for _ in range(0 if args.trace else SETUP_SAMPLES):
        proc, ready = timed_until_ready([runner, "setup"] + common)
        probe_s = float(proc.stdout.read())
        if proc.wait() != 0:
            raise RuntimeError("setup exited with %d" % proc.returncode)
        setup.append(PROBE_REFERENCE_S * ready / probe_s)

    out_dir = os.path.join(build_root(), "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    mode = "trace" if args.trace else "measure"
    cmd = [runner, mode] + common + ["--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--spans", os.path.join(out_dir, stem + ".spans.jsonl")]
    proc, _ = timed_until_ready(cmd)
    result = finish(proc)

    if args.trace:
        wanted = spec["per_layer"]
        values = result["metrics"]
    else:
        # Each run's time over the host probe timed just before it,
        # median over the passes, at the probe's reference time, summed
        # over the runs. Neighbours on a shared host slow the simulator
        # in spells that outlast a run; the probe slows with it. The
        # last pass may stop short at the deadline.
        ratios = [[] for _ in range(int(result["runs"]))]
        runs = [[] for _ in ratios]
        for run_s, probe_s in zip(result["run_seconds"],
                                  result["probe_seconds"]):
            for i, (r, p) in enumerate(zip(run_s, probe_s)):
                ratios[i].append(r / p)
                runs[i].append(r)
        sweep_s = PROBE_REFERENCE_S * sum(statistics.median(x)
                                          for x in ratios)
        wall_s = sum(statistics.median(x) for x in runs)
        host_slowdown = statistics.median(
            p for ps in result["probe_seconds"] for p in ps) \
            / PROBE_REFERENCE_S
        wanted = spec["end_to_end"]
        values = {
            "sweep_s": sweep_s,
            "accesses_per_s": result["accesses"] / sweep_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError("runner did not report %s" % ", ".join(missing))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    attempted = int(result["attempted"])
    failed = int(result["failed"])
    prov = provenance(args, result)
    with open(os.path.join(out_dir, stem + ".json"), "w") as f:
        json.dump({"provenance": prov, "runner": result,
                   "metrics": metrics}, f, indent=1)

    print("provenance " + json.dumps(prov))
    if not args.trace:
        print("probed passes %d, oracle %s" % (len(result["run_seconds"]),
                                               result["oracle"]))
    for name, m in metrics.items():
        print("%-30s %14.6g %s" % (name, m["value"], m["unit"]))
    if not args.trace:
        print("%-30s %14.6g %s" % ("sweep_wall_s", wall_s, "s"))
        print("%-30s %14.6g %s" % ("host_slowdown", host_slowdown, "ratio"))
    print("%-30s %14.6g %s" % ("fail_frac", failed / attempted, "ratio"))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def write_oracle(spec):
    runner = build()
    seeds = ",".join(str(s) for s in ORACLE_SEEDS)
    procs = []
    for w in spec["workloads"]:
        path = os.path.join(EXPECTED, w["name"] + ".txt")
        f = open(path + ".tmp", "w")
        procs.append((path, f, subprocess.Popen(
            [runner, "oracle", "--workload", w["name"], "--seeds", seeds],
            stdout=f, env=child_env())))
    status = 0
    for path, f, proc in procs:
        rc = proc.wait()
        f.close()
        if rc == 0:
            os.replace(path + ".tmp", path)
            log("wrote " + os.path.relpath(path, ROOT))
        else:
            os.remove(path + ".tmp")
            status = 1
    return status


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=names)
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--write-oracle", action="store_true")
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    try:
        if args.selftest:
            return subprocess.run([build(), "selftest"],
                                  env=child_env()).returncode
        if args.write_oracle:
            return write_oracle(spec)
        if not args.workload:
            p.error("--workload is required")
        run_benchmark(args, spec)
        return 0
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.CalledProcessError) as e:
        log("perfbench: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
