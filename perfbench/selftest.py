#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark, from the root of a checkout:

    python3 perfbench/selftest.py

1. A tiny run of each workload, untraced and traced, prints every metric
   BENCHMARK.json names, each with its unit, and fails no op.
2. With Auditor.create ~inflate:4.0 injected, every workload reports
   failed ops, which shows the output checks are live.
3. --compare refuses a saved result whose host fingerprint differs.

Exits 0 when all of it holds, 1 otherwise.
"""

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def run(*args):
    out = subprocess.run([sys.executable, RUN, *args], cwd=ROOT, capture_output=True,
                         text=True, timeout=300)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if out.returncode == 0 and lines else None
    return out.returncode, result, out.stdout + out.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            problems.append(what)

    saved = None
    for w in spec["workloads"]:
        name = w["name"]
        for trace, catalog in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, result, text = run("--workload", name, "--seed", "7", "--seconds", "1",
                                     "--trace", str(trace), "--tiny")
            expect(result is not None, "%s --trace %d exits 0 with a result" % (name, trace))
            if result is None:
                print(text[-3000:])
                continue
            metrics = result["metrics"]
            expect(set(metrics) == {m["name"] for m in catalog},
                   "%s --trace %d prints exactly the metrics BENCHMARK.json names" % (name, trace))
            expect(all(metrics.get(m["name"], {}).get("unit") == m["unit"] for m in catalog),
                   "%s --trace %d gives every metric its unit" % (name, trace))
            expect(result["failed"] == 0 and result["correct"] and result["attempted"] >= 1,
                   "%s --trace %d: error_rate is 0 (%d of %d failed)"
                   % (name, trace, result["failed"], result["attempted"]))
        code, result, text = run("--workload", name, "--seed", "7", "--seconds", "1", "--tiny",
                                 "--inject-inflate", "4.0")
        expect(result is not None and result["failed"] > 0 and not result["correct"],
               "%s with ~inflate:4.0 injected reports error_rate > 0" % name)

    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_build")) as tmp:
        saved = os.path.join(tmp, "base.json")
        code, result, _ = run("--workload", "offline-plan", "--seed", "7", "--seconds", "1",
                              "--tiny", "--save", saved)
        expect(result is not None, "--save keeps a result")
        with open(saved) as fh:
            kept = json.load(fh)
        code, result, _ = run("--workload", "offline-plan", "--seed", "7", "--seconds", "1",
                              "--tiny", "--compare", saved)
        expect(result is not None, "--compare accepts a result from this host")
        kept["fingerprint"]["cpu_model"] = "another cpu"
        with open(saved, "w") as fh:
            json.dump(kept, fh)
        code, result, _ = run("--workload", "offline-plan", "--seed", "7", "--seconds", "1",
                              "--tiny", "--compare", saved)
        expect(code == 3 and result is None, "--compare refuses another host's fingerprint")

    print("selftest: %s" % ("FAILED: " + "; ".join(problems) if problems else "all checks hold"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
