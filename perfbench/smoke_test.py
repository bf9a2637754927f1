#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny scale divisor.

Run from the repository root (takes about a minute):

    python3 perfbench/smoke_test.py

It checks that, for every workload in BENCHMARK.json, a --trace 0 and a
--trace 1 run exit 0 with a correct result and print every end-to-end or
per-layer metric by name and unit, both as a human-readable "metric" line
and in the final JSON line; that every per-layer metric is described in
perfbench/layers.json; and that a deliberately wrong reference digest makes
the command fail. Exit status 0 when all checks pass.
"""

import fnmatch
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIVISOR = "4000"
WRONG_DIGEST = "0123456789abcdef"


def run(workload, trace, *extra):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--divisor", DIVISOR, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((ROOT / "perfbench" / "layers.json").read_text())
    described = [m for layer in layers["layers"] for m in layer["metrics"]]
    errors = []

    for metric in spec["per_layer"]:
        if not any(fnmatch.fnmatchcase(metric["name"], d) for d in described):
            errors.append(f"{metric['name']} is not described in layers.json")

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc, result = run(workload, trace)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0 or not result or not result["correct"]:
                errors.append(f"{where}: failed (exit {proc.returncode}): "
                              f"{proc.stderr[-500:]}")
                continue
            if result["failed"] != 0 or result["attempted"] < 1:
                errors.append(f"{where}: attempted/failed {result}")
            if set(result["metrics"]) != {m["name"] for m in wanted}:
                errors.append(f"{where}: JSON metrics differ from "
                              "BENCHMARK.json")
            for metric in wanted:
                name, unit = metric["name"], metric["unit"]
                line = re.compile(rf"^metric {re.escape(name)} \S+ "
                                  rf"{re.escape(unit)}( |$)", re.M)
                if not line.search(proc.stdout):
                    errors.append(f"{where}: no line for {name} ({unit})")
                if result["metrics"].get(name, {}).get("unit") != unit:
                    errors.append(f"{where}: JSON lacks {name} in {unit}")
            print(f"ok: {where}", flush=True)

    proc, result = run("x_tj4", 0, "--reference-digest", WRONG_DIGEST)
    if proc.returncode == 0 or (result and result["correct"]):
        errors.append("a wrong reference digest did not fail the command")
    else:
        print("ok: a wrong reference digest fails the command")

    for error in errors:
        print(f"FAIL: {error}")
    print("passed" if not errors else f"{len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
