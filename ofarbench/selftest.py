#!/usr/bin/env python3
"""Self-test of the benchmark on a small h=2 dragonfly (under a minute).

    python3 ofarbench/selftest.py

For every workload, at h=2 with short windows, with --trace 0 and 1:
  - every metric named in BENCHMARK.json is printed with its unit, and no
    other metric is reported;
  - every repeat and pass passes its correctness checks;
  - the timing pass (TrafficSource decorator), the counting pass (tracer)
    and, on the sharded workload, the one-thread pass leave the untraced
    digest unchanged.
Each correctness check that a healthy run never trips is shown able to
fail: a copy of the sources with one seeded fault (MUTANTS) is built and
run, and the named check must fail. Finally, run.py must exit non-zero
without a result where only BENCHMARK.json and ofarbench/ exist (no
simulator sources to build).
"""
import json
import os
import shutil
import subprocess
import sys

import run

SMALL = {"h": 2, "warmup": 200, "window": 400}

# (file, text, replacement, workload, overrides, check that must fail)
MUTANTS = [
    # One packet is never routed, so it sits in its VC for good.
    ("src/core/ofar_routing.cpp",
     "RouteChoice OfarPolicy::route(RouteContext& ctx) {\n",
     "RouteChoice OfarPolicy::route(RouteContext& ctx) {\n"
     "  if (ctx.pkt.seq == 3) return RouteChoice::none();\n",
     "uniform_light", SMALL, "no_stalled_packets"),
    # Ring entry without the bubble: the ring can fill and wedge. At h=2
    # this takes thousands of cycles; the healthy run stays clean there.
    ("src/core/escape_ring.cpp",
     "ring_step(ctx.net, ctx.at, 2 * packet_size_)",
     "ring_step(ctx.net, ctx.at, packet_size_)",
     "adv_sat", {"h": 2, "warmup": 1000, "window": 20000},
     "no_ring_deadlock"),
]


def check(cond, msg, errors):
    if not cond:
        errors.append(msg)


def check_workload(binary, wl, trace, errors):
    record, lines = run.run_workload(binary, wl, 7, 0.5, trace, SMALL)
    where = f"{wl} trace={trace}"
    spec = run.spec()["per_layer" if trace else "end_to_end"]
    check(list(record["metrics"]) == [m["name"] for m in spec],
          f"{where}: metrics differ from BENCHMARK.json", errors)
    for m in spec:
        printed = [ln for ln in lines if ln.startswith(m["name"] + " ")]
        check(len(printed) == 1 and f" {m['unit']}" in printed[0],
              f"{where}: {m['name']} not printed once with unit {m['unit']}",
              errors)
    check(record["failed"] == 0, f"{where}: failures {record['failures']}",
          errors)
    if trace:
        raw = record["raw"]
        want = raw["untraced"]["digest"]
        check(raw["timing"]["digest"] == want,
              f"{where}: timing pass changed the digest", errors)
        check(raw["counting"]["digest"] == want,
              f"{where}: counting pass changed the digest", errors)
        if "sim_threads_1" in raw:
            check(raw["sim_threads_1"]["digest"] == want,
                  f"{where}: sim_threads=1 changed the digest", errors)


def check_mutants(binary, errors):
    base = os.path.join(run.build_dir(), "selftest-mutant")
    tree, bdir = os.path.join(base, "tree"), os.path.join(base, "build")
    shutil.rmtree(tree, ignore_errors=True)
    for top in ("src", "ofarbench"):
        shutil.copytree(os.path.join(run.ROOT, top), os.path.join(tree, top),
                        ignore=shutil.ignore_patterns("__pycache__"))
    for path, old, new, wl, overrides, want in MUTANTS:
        where = f"mutant {path} on {wl}"
        healthy = run.worker(binary, wl, 7, "e2e", (), overrides)
        check(healthy["failed_checks"] == [],
              f"{where}: healthy run fails {healthy['failed_checks']}", errors)
        target = os.path.join(tree, path)
        with open(target) as f:
            text = f.read()
        if text.count(old) != 1:
            errors.append(f"{where}: mutation site not found")
            continue
        with open(target, "w") as f:
            f.write(text.replace(old, new))
        try:
            built = (os.path.isfile(os.path.join(bdir, "CMakeCache.txt")) or
                     subprocess.run(
                         ["cmake", "-S", os.path.join(tree, "ofarbench"),
                          "-B", bdir, "-DCMAKE_BUILD_TYPE=Release",
                          "-DOFAR_FAST=ON"], capture_output=True).returncode
                     == 0)
            built = built and subprocess.run(
                ["cmake", "--build", bdir, "-j", "4"],
                capture_output=True).returncode == 0
            if not built:
                errors.append(f"{where}: build failed")
                continue
            out = run.worker(os.path.join(bdir, "ofarbench"), wl, 7, "e2e",
                             (), overrides)
            check(want in out["failed_checks"],
                  f"{where}: {want} did not fail ({out['failed_checks']})",
                  errors)
        finally:
            with open(target, "w") as f:
                f.write(text)
    shutil.rmtree(base, ignore_errors=True)


def check_refuses_without_sources(errors):
    empty = os.path.join(run.build_dir(), "selftest-empty")
    shutil.rmtree(empty, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(empty, "ofarbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), empty)
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    out = subprocess.run(
        [sys.executable, "ofarbench/run.py", "--workload", "adv_sat",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=empty, env=env, capture_output=True, text=True, timeout=170)
    check(out.returncode != 0, "run.py succeeded without sources", errors)
    check(out.stdout.strip() == "", "run.py printed a result without sources",
          errors)
    shutil.rmtree(empty, ignore_errors=True)


def main():
    errors = []
    binary = run.build()
    for wl in run.WORKLOADS:
        for trace in (0, 1):
            check_workload(binary, wl, trace, errors)
    check_mutants(binary, errors)
    check_refuses_without_sources(errors)
    for e in errors:
        print(f"FAIL {e}")
    print(json.dumps({"selftest": "fail" if errors else "pass",
                      "errors": len(errors)}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
