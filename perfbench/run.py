#!/usr/bin/env python3
"""Repository benchmark: build it, run one workload, check, report.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --quick      # self-check of every workload

Builds perfbench/ (which compiles ../src with the shipped default settings)
into .bench_build/ at the checkout root, runs the binary with every LISI_*
variable removed from its environment, and prints one JSON object as the
last line of stdout: {"correct", "attempted", "failed", "metrics"}.  The
line before it carries provenance.  Exits non-zero if any output is wrong.
README.md in this directory defines the workloads and metrics.
"""
import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("krylov_p4", "timestep_slu", "service_mix")
# setup_s is the median of this many cold set-ups, each in its own process
# (the tuner cache and the allocator are process-wide, so only a fresh
# process sets up cold).  Only set-ups during which the hypervisor stole at
# most MAX_STEAL_SHARE of the CPU time count, or the least disturbed one if
# none did, as for the samples of the timed phase (README.md "Host noise").
SETUP_SAMPLES = 7
MAX_STEAL_SHARE = 0.0
BUILD_TIMEOUT_S = 800
RUN_BUDGET_S = 170  # every benchmark process of one run, after the build


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources (src/) not found next to perfbench/")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", "3"], stdout=sys.stderr, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))


def scrubbed_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("LISI_")}


def scrubbed_names():
    return sorted(k for k in os.environ if k.startswith("LISI_"))


def metric_names(trace):
    """The metric names BENCHMARK.json requires for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_binary(args, deadline, extra=()):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    # On timeout subprocess.run kills the process and waits for it.
    proc = subprocess.run(cmd, cwd=ROOT, env=scrubbed_env(), text=True,
                          stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"benchmark exited {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, from /proc/stat (None elsewhere)."""
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:]]
        return fields[7], sum(fields)
    except (OSError, ValueError, IndexError):
        return None


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def undisturbed_median(samples):
    """Median value of the (steal share, value) samples with at most
    MAX_STEAL_SHARE steal, or the value of the least stolen if none."""
    used = [v for steal, v in samples if steal <= MAX_STEAL_SHARE]
    return statistics.median(used) if used else min(samples)[1]


def run_once(args):
    """One benchmark run; returns (result, provenance)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    load_before = os.getloadavg()
    # The extra set-ups run half before and half after the timed process,
    # so they sample the host at both ends of the run.
    extra = 0 if args.trace else SETUP_SAMPLES - 1
    setups = [run_binary(args, deadline, ["--setup-only"])
              for _ in range(extra // 2)]
    ticks_before = cpu_ticks()
    main = run_binary(args, deadline)
    ticks_after = cpu_ticks()
    setups += [run_binary(args, deadline, ["--setup-only"])
               for _ in range(extra - extra // 2)]
    load_after = os.getloadavg()
    steal_pct = None
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        steal_pct = 100.0 * (ticks_after[0] - ticks_before[0]) / (
            ticks_after[1] - ticks_before[1])

    metrics = main["metrics"]
    attempted = main["attempted"] + sum(s["attempted"] for s in setups)
    failed = main["failed"] + sum(s["failed"] for s in setups)
    if not args.trace:
        samples = [(s["info"]["setup_steal"], s["metrics"]["setup_s"]["value"])
                   for s in setups + [main]]
        metrics["setup_s"]["value"] = undisturbed_median(samples)
    values = [m["value"] for m in metrics.values()]
    finite = all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
    positive = bool(args.trace) or all(v > 0 for v in values)
    missing = [n for n in metric_names(args.trace) if n not in metrics]
    correct = bool(failed == 0 and attempted >= 1 and finite and positive
                   and not missing)
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "loadavg_before": load_before, "loadavg_after": load_after,
        "steal_pct": steal_pct,
        "git_sha": git_sha(), "source_digest": source_digest(),
        "scrubbed_env": scrubbed_names(), "missing_metrics": missing,
        "setup_s_samples": None if args.trace else samples,
        "failed_frac": failed / attempted if attempted else None,
        "run_info": main["info"],
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, provenance


def quick():
    """Each workload briefly, untraced and traced: every metric named in
    BENCHMARK.json is emitted and no solve fails."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=1, seconds=2,
                                      trace=trace)
            result, provenance = run_once(args)
            missing = provenance["missing_metrics"]
            good = result["correct"] and result["failed"] == 0
            ok = ok and good
            log(f"quick {workload} trace={trace}: "
                f"{'ok' if good else 'FAIL'} attempted={result['attempted']} "
                f"failed={result['failed']} missing={missing}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()
    try:
        build()
        if args.quick:
            return quick()
        if None in (args.workload, args.seed, args.seconds, args.trace):
            ap.error("--workload, --seed, --seconds and --trace are required")
        result, provenance = run_once(args)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 1
    print("provenance: " + json.dumps(provenance))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
