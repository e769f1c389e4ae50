#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload stream-m64 --seed 1 --seconds 30 --trace 0

Builds perfbench/bench.exe and bin/dcache.exe with dune, stamps the host
fingerprint, runs one workload and prints its result as the last line of
standard output: one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 gives the end-to-end metrics, --trace 1
the per-layer ones.

--save FILE keeps the result with its fingerprint; --compare FILE
prints this run's metrics against a saved result, and refuses when the
two host fingerprints differ.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("stream-m64", "offline-plan", "serve-items")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# the fingerprint fields that make timings comparable; the source
# revision is stamped too, but differs between the two sides of an A/B
HOST_KEYS = ("nproc", "cpu_model", "ocaml", "profile")
# the first build in a checkout compiles everything; a run then has 175 s
BUILD_DEADLINE_S = 870.0
DEADLINE_S = 175.0


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def command_output(args):
    try:
        out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_revision():
    if os.path.isdir(os.path.join(ROOT, ".git")):
        rev = command_output(["git", "rev-parse", "HEAD"])
        if rev:
            dirty = command_output(["git", "status", "--porcelain", "--", "lib", "bin"])
            return rev + ("-dirty" if dirty else "")
    # not a git checkout: a digest of the sources the benchmark builds
    digest = hashlib.sha256()
    for top in ("lib", "bin", "perfbench", "dune-project"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "src-" + digest.hexdigest()[:16]


def fingerprint(profile):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "ocaml": command_output(["ocamlfind", "ocamlopt", "-version"])
        or command_output(["ocamlopt", "-version"]) or "unknown",
        "profile": profile,
        "revision": source_revision(),
    }


def build(profile, deadline):
    for needed in ("dune-project", "lib", os.path.join("bin", "dcache.ml")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die("not a dcache checkout: %s is missing under %s" % (needed, ROOT))
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--profile", profile,
           "./perfbench/bench.exe", "./bin/dcache.exe"]
    try:
        out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                             timeout=max(1.0, deadline - time.monotonic()))
    except FileNotFoundError:
        die("dune is not installed")
    except subprocess.TimeoutExpired:
        die("build timed out")
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        die("build failed")


def run_bench(args, deadline):
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dcache", os.path.join(ROOT, "_build", "default", "bin", "dcache.exe"),
           "--work-dir", os.path.join(ROOT, ".bench_build", "perfbench")]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject_inflate is not None:
        cmd += ["--inject-inflate", str(args.inject_inflate)]
    # The benchmark and its dcache children run on one CPU.  The yardstick
    # readings that pace each timed pass then see the vCPU the pass ran
    # on.  And on a VM a process that sleeps on an otherwise idle vCPU
    # wakes up late when the host is busy: unpinned, the kernel puts the
    # serve-items scraper and its child on one CPU or on two from run to
    # run, and scrape latencies switched between two modes milliseconds
    # apart.
    cpu = max(os.sched_getaffinity(0))
    pin = lambda: os.sched_setaffinity(0, {cpu})
    # its own process group, so a timeout also stops the dcache children
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, preexec_fn=pin)
    lines = []
    try:
        for line in proc.stdout:
            lines.append(line.rstrip("\n"))
            if time.monotonic() > deadline:
                break
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            die("benchmark did not finish in time", 1)
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        die("benchmark exited with status %d" % proc.returncode, 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        die("benchmark printed no result line", 1)
    if set(result) != RESULT_KEYS:
        die("result line has keys %s" % sorted(result), 1)
    return result


def compare(saved_path, fp, result):
    with open(saved_path) as fh:
        saved = json.load(fh)
    theirs = saved.get("fingerprint", {})
    differ = [k for k in HOST_KEYS if theirs.get(k) != fp[k]]
    if differ:
        for k in differ:
            print("perfbench: fingerprint differs on %s: %r vs %r" % (k, theirs.get(k), fp[k]),
                  file=sys.stderr)
        die("refusing to compare timings across fingerprints", 3)
    base = saved["result"]["metrics"]
    print("compare: %s (%s) -> this run (%s)" % (saved_path, theirs.get("revision"),
                                                 fp["revision"]))
    for name, cur in result["metrics"].items():
        old = base.get(name)
        if old is None:
            continue
        ratio = cur["value"] / old["value"] if old["value"] else float("nan")
        print("compare: %-32s %14.6g -> %14.6g %s (x%.3f)" % (
            name, old["value"], cur["value"], cur["unit"], ratio))


def main():
    started = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs (self-test)")
    p.add_argument("--inject-inflate", type=float, default=None,
                   help="fault injection: Auditor.create ~inflate (self-test)")
    p.add_argument("--save", default=None, help="keep the result and fingerprint in FILE")
    p.add_argument("--compare", default=None, help="compare with a result kept by --save")
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds positive")

    profile = os.environ.get("DUNE_PROFILE", "dev")
    build(profile, started + BUILD_DEADLINE_S)
    fp = fingerprint(profile)
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    sys.stdout.flush()
    result = run_bench(args, time.monotonic() + DEADLINE_S)
    if args.compare:
        compare(args.compare, fp, result)
    if args.save:
        with open(args.save, "w") as fh:
            json.dump({"fingerprint": fp, "workload": args.workload, "seed": args.seed,
                       "trace": args.trace, "result": result}, fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
