#!/usr/bin/env python3
"""The benchmark's own tests, at the tiny smoke size. From a checkout's root:

  python3 perfbench/smoke_test.py

For every workload it checks that an untraced run prints exactly the
end-to-end metrics of BENCHMARK.json and a traced run exactly its per-layer
metrics, each with its declared unit; that a run with a corrupted stored
digest fails its correctness checks; and that the command fails without a
result when the rest of the repository is absent.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", trace, "--size", "smoke", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(done):
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_metrics(result, declared, where):
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append("%s: result keys %s" % (where, sorted(result)))
        return errors
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        errors.append("%s: correct=%s attempted=%s failed=%s" % (
            where, result["correct"], result["attempted"], result["failed"]))
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        errors.append("%s: metrics differ from BENCHMARK.json: missing %s, "
                      "extra %s" % (where, sorted(set(want) - set(metrics)),
                                    sorted(set(metrics) - set(want))))
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or m["unit"] != want.get(name):
            errors.append("%s: %s has %s" % (where, name, m))
        elif not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            errors.append("%s: %s is not a finite number" % (where, name))
    return errors


def main():
    errors = []
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace, declared in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
            where = "%s --trace %s" % (workload, trace)
            done = run(workload, trace)
            result = result_of(done)
            if done.returncode != 0 or result is None:
                errors.append("%s: exit %d\n%s" % (where, done.returncode, done.stderr[-2000:]))
                continue
            errors += check_metrics(result, declared, where)
            if trace == "0":
                for m in SPEC["end_to_end"]:
                    if result["metrics"].get(m["name"], {}).get("value") == 0:
                        errors.append("%s: end-to-end metric %s is 0" % (where, m["name"]))
            print("ok  %s" % where, flush=True)

        where = "%s --corrupt-digest" % workload
        done = run(workload, "0", "--corrupt-digest")
        result = result_of(done)
        if done.returncode == 0 or result is None or result["correct"]:
            errors.append("%s: the corrupted digest was not detected" % where)
        else:
            print("ok  %s" % where, flush=True)

    # A directory holding only BENCHMARK.json and perfbench/ cannot build the
    # program: the command must fail without printing a result.
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(SPEC["workloads"][0]["name"], "0", cwd=bare)
    if done.returncode == 0 or done.stdout.strip():
        errors.append("bare directory: exit %d, stdout %r" % (done.returncode, done.stdout[-200:]))
    else:
        print("ok  bare directory fails without a result", flush=True)
    shutil.rmtree(bare, ignore_errors=True)

    for e in errors:
        print("FAIL " + e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
