#!/usr/bin/env python3
"""Self-test of the benchmark on reduced-size inputs.

    python3 perfbench/selftest.py [--seed N]

For every workload in BENCHMARK.json it runs the benchmark program with
--small:
  * untraced: exit 0, the oracle passes, and every end-to-end metric is
    printed by name with its unit (human line and JSON result);
  * traced: the same for every per-layer metric;
  * with --tamper-oracle, one expected value is deliberately wrong: the run
    must exit non-zero and report correct=false.
Exits 0 when every assertion holds.
"""

import json
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's build step)

OUT_DIR = os.path.join(run.ROOT, ".bench_out", "selftest")


def invoke(binary, workload, seed, extra):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--small", "--out-dir", OUT_DIR] + extra
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, proc.stdout, result


def check_metrics(label, stdout, result, metrics, errors):
    printed = result["metrics"]
    for m in metrics:
        got = printed.get(m["name"])
        if got is None or got.get("unit") != m["unit"]:
            errors.append("%s: JSON lacks %s [%s]" % (label, m["name"],
                                                      m["unit"]))
        line = r"^metric %s\s+\S+ %s " % (re.escape(m["name"]),
                                           re.escape(m["unit"]))
        if not re.search(line, stdout, re.M):
            errors.append("%s: no line for %s [%s]" % (label, m["name"],
                                                       m["unit"]))
    extra = set(printed) - {m["name"] for m in metrics}
    if extra:
        errors.append("%s: unexpected metrics %s" % (label, sorted(extra)))
    if not re.search(r"^metric failed_frac\s+0 ratio ", stdout, re.M):
        errors.append("%s: failed_frac is not printed as 0" % label)


def main(argv):
    seed = int(argv[argv.index("--seed") + 1]) if "--seed" in argv else 1
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    binary = run.build()
    if binary is None:
        return 1
    errors = []
    for w in config["workloads"]:
        name = w["name"]
        for trace, metrics in (("0", config["end_to_end"]),
                               ("1", config["per_layer"])):
            label = "%s trace=%s" % (name, trace)
            rc, stdout, result = invoke(binary, name, seed, ["--trace", trace])
            if rc != 0 or result is None or not result["correct"] \
                    or result["failed"] != 0:
                errors.append("%s: run failed (exit %d)\n%s" % (label, rc,
                                                                stdout))
                continue
            check_metrics(label, stdout, result, metrics, errors)
        rc, stdout, result = invoke(binary, name, seed,
                                    ["--trace", "0", "--tamper-oracle"])
        if rc == 0 or result is None or result["correct"]:
            errors.append("%s: a wrong oracle value did not fail the run" %
                          name)
        print("selftest %s: %s" % (name, "done"), flush=True)
    for e in errors:
        print("FAIL " + e)
    print("selftest: %s" % ("FAILED" if errors else "PASSED"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
