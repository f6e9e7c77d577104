#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload of ``BENCHMARK.json`` at a tiny size, untraced and
traced, and checks the result line of each: exactly the keys
``correct``/``attempted``/``failed``/``metrics``, every checked output
correct, and every metric named in ``BENCHMARK.json`` emitted exactly
once, with its declared unit and a finite value (end-to-end metrics also
non-zero). Finally it checks that the command fails, without printing a
result, in a directory holding only ``BENCHMARK.json`` and the benchmark's
own files.

    python3 perfbench/smoke.py            # from the repository root

Exits non-zero on the first failure. Takes about a minute after the
first build.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Tiny inputs: a twentieth of every workload, for one second.
TINY = ["--seconds", "1", "--size", "0.05"]


def fail(msg):
    sys.exit(f"smoke: FAIL: {msg}")


def check_result(spec, workload, trace, stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} trace={trace}: no output")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} trace={trace}: keys {sorted(result)}")
    if result["correct"] is not True:
        fail(f"{workload} trace={trace}: correct={result['correct']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: attempted={result['attempted']}")
    if result["failed"] != 0:
        fail(f"{workload} trace={trace}: failed={result['failed']}")
    declared = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        fail(f"{workload} trace={trace}: missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        m = got[name]
        if m.get("unit") != unit:
            fail(f"{workload} trace={trace}: {name} unit {m.get('unit')!r} != {unit!r}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail(f"{workload} trace={trace}: {name} value {v!r} is not finite")
        if trace == "0" and v == 0:
            fail(f"{workload} trace={trace}: end-to-end {name} reads 0")


def check_bare_directory(spec):
    """The command must fail, printing no result, without the program."""
    bare = ROOT / ".bench_smoke"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in spec["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("target"))
        cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                 "--seed", "1", "--trace", "0"] + TINY[:2]
        out = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
        if out.returncode == 0:
            fail("command succeeded in a directory without the program")
        if out.stdout.strip().startswith("{") or "\"metrics\"" in out.stdout:
            fail("command printed a result in a directory without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace in ("0", "1"):
            cmd = spec["command"] + ["--workload", w["name"], "--seed", "1",
                                     "--trace", trace] + TINY
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if out.returncode != 0:
                fail(f"{w['name']} trace={trace}: exit {out.returncode}\n{out.stderr[-3000:]}")
            check_result(spec, w["name"], trace, out.stdout)
            print(f"smoke: ok {w['name']} trace={trace}", flush=True)
    check_bare_directory(spec)
    print("smoke: ok bare directory fails cleanly")


if __name__ == "__main__":
    main()
