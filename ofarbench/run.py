#!/usr/bin/env python3
"""Benchmark of the OFAR dragonfly simulator.

    python3 ofarbench/run.py --workload adv_sat --seed 1 --seconds 20 --trace 0

Builds the `ofarbench` driver (ofarbench/CMakeLists.txt, a Release build of
../src with NDEBUG) into $CARGO_TARGET_DIR or .bench_build, then runs the
workload in its own process:

  --trace 0  end-to-end metrics of untraced repeats, measured for --seconds,
             with window and warm-up times in reference seconds: scaled
             by the host's speed on a calibration kernel (calibrate.cpp)
             timed between the repeats.
  --trace 1  per-layer metrics from separate passes: an untraced reference,
             a timing pass (every step and traffic tick timed, spans written
             to <build>/out/spans-<workload>-seed<n>.json), a counting pass
             with a tracer, and for sharded workloads a one-thread pass.

Every repeat and pass is checked (stalled packets, credit conservation,
worklists, live-packet balance) and must reproduce the untraced digest of
the simulated statistics; each failure counts in `failed`. Metric names and
units come from BENCHMARK.json. `--workload all` runs every workload. The
last stdout line is one JSON object with keys correct, attempted, failed
and metrics; a full record with provenance goes to <build>/out/.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import cycle_report

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("adv_sat", "uniform_light", "big_h16")
REFERENCE_PATH = os.path.join(HERE, "reference_digests.json")
MIN_REPEATS = 3
# Window and warm-up times are reported in reference seconds: host seconds
# times CALIB_REF_S / (this run's median time of one calibration kernel
# run, calibrate.cpp). A reference host runs the kernel in CALIB_REF_S; a
# 4-vCPU Xeon (Sapphire Rapids, 2.0 GHz) under KVM, shared with other
# tenants, took 0.10 to 0.13 s.
CALIB_REF_S = 0.100
# Host-time limit on the worker processes of one workload, so a hung
# worker is killed and the run fails within the caller's time limit.
RUN_BUDGET_S = 170
_deadline = None


class BenchError(Exception):
    pass


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Build and provenance.

def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds the driver; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"simulator sources not found under {ROOT}/src")
    bdir = os.path.join(build_dir(), "cmake")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(build_dir(), "build.log")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release", "-DOFAR_FAST=ON"])
    steps.append(["cmake", "--build", bdir, "-j",
                  str(min(4, os.cpu_count() or 1))])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                raise BenchError(f"build failed: {' '.join(cmd)}")
    return os.path.join(bdir, "ofarbench")


def source_digest():
    """sha256 over src/ and ofarbench/ (without the reference digests):
    identifies the code in checkouts that are not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "ofarbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                if path == REFERENCE_PATH:
                    continue
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(worker_out, seed):
    b = worker_out["build"]
    return {
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "build_type": b["build_type"],
        "ndebug": b["ndebug"],
        "ofar_fast": b["ofar_fast"],
        "nproc": b["nproc"],
        "seed": seed,
        "workload": worker_out["workload"],
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def reference_digest(workload, seed):
    with open(REFERENCE_PATH) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def record_reference(workload, seed, digest):
    with open(REFERENCE_PATH) as f:
        refs = json.load(f)
    refs.setdefault(workload, {})[str(seed)] = digest
    with open(REFERENCE_PATH, "w") as f:
        json.dump(refs, f, indent=2, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# Worker passes.

def worker(binary, workload, seed, mode, extra=(), overrides=None):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--mode", mode, *extra]
    for key, value in (overrides or {}).items():
        cmd += [f"--{key}", str(value)]
    if _deadline is None:
        timeout = RUN_BUDGET_S
    else:
        timeout = max(1.0, _deadline - time.monotonic())
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(cmd)}: timed out")
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise BenchError(f"{' '.join(cmd)}: exit code {out.returncode}")
    try:
        return json.loads(out.stdout)
    except json.JSONDecodeError as e:
        raise BenchError(f"{' '.join(cmd)}: unreadable output ({e})")


def ref_scale(calib_s):
    """Reference seconds per host second: the host ran the calibration
    kernel in `calib_s` seconds, the reference host in CALIB_REF_S."""
    return CALIB_REF_S / calib_s


def judge(passes, reference):
    """(attempted, failed, notes): a pass fails on a failed check or on a
    digest other than `reference`."""
    failed, notes = 0, []
    for label, p in passes:
        bad = list(p["failed_checks"])
        if p["digest"] != reference:
            bad.append(f"digest {p['digest']} != {reference}")
        if bad:
            failed += 1
            notes.append(f"{label}: {', '.join(bad)}")
    return len(passes), failed, notes


def end_to_end(binary, workload, seed, seconds, overrides):
    """Repeats the workload, each time in a fresh process, until `seconds`
    have passed and at least MIN_REPEATS repeats ran, with a calibration
    process before the first repeat and after each. Timings are medians
    over the repeats, so they do not depend on how many fit; the window and
    warm-up times are also given in reference seconds (ref_scale)."""
    reps = []
    calibs = [worker(binary, workload, seed, "calibrate")]
    start = time.monotonic()
    while len(reps) < MIN_REPEATS or time.monotonic() - start < seconds:
        reps.append(worker(binary, workload, seed, "e2e", (), overrides))
        calibs.append(worker(binary, workload, seed, "calibrate"))
    sim = reps[0]["sim"]
    window_s = statistics.median(r["window_s"] for r in reps)
    warmup_s = statistics.median(r["warmup_s"] for r in reps)
    calib_s = statistics.median(c["calib_s"] for c in calibs)
    scale = ref_scale(calib_s)
    metrics = {
        "cycles_per_ref_s": sim["window_cycles"] / (window_s * scale),
        "setup_s": statistics.median(
            [s for r in reps for s in r["setup_samples_s"] + [r["setup_s"]]]),
        "warmup_ref_s": warmup_s * scale,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "accepted_load": sim["accepted_load"],
        "latency_mean_cycles": sim["latency_mean_cycles"],
        "latency_p99_cycles": sim["latency_p99_cycles"],
    }
    attempted, failed, notes = judge(
        [(f"repeat {i}", r) for i, r in enumerate(reps)], reps[0]["digest"])
    # The calibrations count as one more checked unit: a kernel that
    # computes something else measures something else, so a wrong checksum
    # voids the run's reference-second timings.
    attempted += 1
    bad = sum(not c["calib_ok"] for c in calibs)
    if bad:
        failed += 1
        notes.append(f"calibration: wrong checksum in {bad} of {len(calibs)}")
    info = {
        "repeats": len(reps),
        "cycles_per_s": sim["window_cycles"] / window_s,
        "warmup_s": warmup_s,
        "calib_s": calib_s,
        "max_wait_cycles": max(r["max_wait_cycles"] for r in reps),
        "latency_samples": sim["latency_samples"],
        "digest": reps[0]["digest"],
    }
    return {"repeats": reps, "calibrations": calibs}, metrics, \
        attempted, failed, notes, info


def traced(binary, workload, seed, overrides, spans_path):
    ref = worker(binary, workload, seed, "e2e", (), overrides)
    timing = worker(binary, workload, seed, "timing",
                    ["--spans-out", spans_path], overrides)
    counting = worker(binary, workload, seed, "counting", [], overrides)
    passes = [("untraced", ref), ("timing", timing), ("counting", counting)]
    sharded = ref["workload"]["sim_shards"] > 1
    if sharded:
        single = worker(binary, workload, seed, "e2e", ["--threads", "1"],
                        overrides)
        passes.append(("sim_threads=1", single))
    attempted, failed, notes = judge(passes, ref["digest"])

    doc = cycle_report.load(spans_path)
    window = ref["workload"]["window_cycles"]
    split = cycle_report.step_split(doc)
    steps = [d for d, _ in split]
    ticks = [t for _, t in split]
    warm = cycle_report.durations(doc, "sim.warmup_step")
    c = timing["counters"]
    cnt = counting["counters"]
    grants = cnt["grants"]
    by = cnt["by_condition"]
    metrics = {
        "topology.build_s": statistics.median(
            cycle_report.durations(doc, "topology.build")) / 1e9,
        "sim.construct_s": statistics.median(
            cycle_report.durations(doc, "sim.construct")) / 1e9,
        "sim.step_us_p50": cycle_report.pct(steps, .5) / 1e3,
        "sim.step_us_p99": cycle_report.pct(steps, .99) / 1e3,
        "sim.step_self_us_p50":
            cycle_report.pct([d - t for d, t in split], .5) / 1e3,
        "sim.warmup_step_us_p99": cycle_report.pct(warm, .99) / 1e3,
        "sim.ns_per_phit":
            sum(steps) / max(1, timing["sim"]["delivered_phits"]),
        "sim.active_routers_mean": c["active_routers_mean"],
        "sim.active_nodes_mean": c["active_nodes_mean"],
        "sim.live_packets_mean": c["live_packets_mean"],
        "sim.pending_offers_end": c["pending_offers_end"],
        "sim.built_routers": c["built_routers"],
        # K=1: set_sim_threads clamps to one thread, so the ratio is 1.
        "sim.shard_speedup": (single["window_s"] /
                              ref["window_s"]) if sharded else 1.0,
        "traffic.tick_us_p50": cycle_report.pct(ticks, .5) / 1e3,
        "traffic.tick_share": sum(ticks) / sum(steps),
        "traffic.offers_per_cycle":
            timing["sim"]["generated_packets"] / window,
        "routing.grants_per_cycle": grants / window,
        "routing.head_wait_cycles_mean":
            cnt["queue_wait_sum"] / grants if grants else 0.0,
        "routing.mean_hops": ref["sim"]["mean_hops"],
        "routing.ring_use_fraction": ref["sim"]["ring_use_fraction"],
        "trace.overhead": 1.0 - ref["window_s"] / counting["window_s"],
        "verify.check_s": timing["check_s"],
    }
    for cond in cycle_report.ROUTING_CONDITIONS:
        metrics[f"routing.cond.{cond}"] = by[cond] / grants if grants else 0.0

    doc["counting"] = cnt
    doc["provenance"] = provenance(ref, seed)
    with open(spans_path, "w") as f:
        json.dump(doc, f, separators=(",", ":"))
    info = {
        "step_samples": len(steps),
        "warmup_step_samples": len(warm),
        "digest": ref["digest"],
        "report": cycle_report.render(doc),
    }
    raw = {"untraced": ref, "timing": timing, "counting": counting}
    if sharded:
        raw["sim_threads_1"] = single
    return raw, metrics, attempted, failed, notes, info


# ---------------------------------------------------------------------------
# One workload, end to end.

def run_workload(binary, workload, seed, seconds, trace, overrides=None):
    """Runs one workload; returns (record, lines to print). The record holds
    provenance, metrics {name: {value, unit}}, attempted, failed and every
    pass's raw output, and is also written to <build>/out/."""
    names = spec()["per_layer" if trace else "end_to_end"]
    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{workload}-seed{seed}"
    if trace:
        raw, values, attempted, failed, notes, info = traced(
            binary, workload, seed, overrides,
            os.path.join(out_dir, f"spans-{tag}.json"))
        prov = provenance(raw["untraced"], seed)
    else:
        raw, values, attempted, failed, notes, info = end_to_end(
            binary, workload, seed, seconds, overrides)
        prov = provenance(raw["repeats"][0], seed)
    missing = [m["name"] for m in names if m["name"] not in values]
    if missing:
        raise BenchError(f"{workload}: no value for {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in names}
    ref = reference_digest(workload, seed)
    info["digest_matches_reference"] = (None if ref is None
                                        else ref == info["digest"])
    info["failed_run_share"] = failed / attempted

    lines = [f"# {workload} seed={seed} trace={trace}  "
             f"rev={prov['git_rev'][:12]} src={prov['source_sha256']} "
             f"build={prov['build_type']} ndebug={prov['ndebug']} "
             f"ofar_fast={prov['ofar_fast']} nproc={prov['nproc']}"]
    for name, m in metrics.items():
        note = ""
        if name == "latency_p99_cycles":
            note = f"  (n={info['latency_samples']} delivered packets)"
        elif name in ("cycles_per_ref_s", "warmup_ref_s"):
            note = f"  (median of {info['repeats']} repeats)"
        elif name.startswith("sim.step_us"):
            note = f"  (n={info['step_samples']} steps)"
        elif name == "sim.warmup_step_us_p99":
            note = f"  (n={info['warmup_step_samples']} steps)"
        lines.append(f"{name:34s} = {m['value']:.6g} {m['unit']}{note}")
    lines.append(f"{'failed_run_share':34s} = {failed}/{attempted} "
                 f"= {info['failed_run_share']:.3g}")
    if "calib_s" in info:
        lines.append(f"{'cycles_per_s':34s} = {info['cycles_per_s']:.6g} "
                     f"cycles/s (host seconds)")
        lines.append(f"{'warmup_s':34s} = {info['warmup_s']:.6g} s "
                     f"(host seconds)")
        lines.append(f"{'calib_s':34s} = {info['calib_s']:.6g} s (median; "
                     f"reference {CALIB_REF_S} s)")
    if "max_wait_cycles" in info:
        lines.append(f"{'max_wait_cycles':34s} = {info['max_wait_cycles']} "
                     f"(longest any live packet went without a grant)")
    lines.extend(f"  FAILED {n}" for n in notes)
    match = {None: "no reference for this seed", True: "yes",
             False: "NO"}[info["digest_matches_reference"]]
    lines.append(f"{'digest':34s} = {info['digest']} "
                 f"(matches reference: {match})")
    if "report" in info:
        lines.append(info.pop("report"))

    record = {"provenance": prov, "trace": trace, "attempted": attempted,
              "failed": failed, "failures": notes, "metrics": metrics,
              "info": info, "raw": raw}
    record_path = os.path.join(out_dir, f"{tag}-trace{trace}.json")
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1)
    lines.append(f"{'record':34s} = {record_path}")
    return record, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: "
                         "run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="store each workload's digest in "
                         "reference_digests.json for this seed")
    args = ap.parse_args(argv)
    global _deadline
    try:
        binary = build()
        seconds = (spec()["run_seconds"] if args.seconds is None
                   else args.seconds)
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        result = {"correct": True, "attempted": 0, "failed": 0,
                  "metrics": {}}
        for wl in workloads:
            _deadline = time.monotonic() + RUN_BUDGET_S
            record, lines = run_workload(binary, wl, args.seed, seconds,
                                         args.trace)
            print("\n".join(lines), flush=True)
            if args.record_reference and record["failed"] == 0:
                record_reference(wl, args.seed, record["info"]["digest"])
            result["attempted"] += record["attempted"]
            result["failed"] += record["failed"]
            for name, m in record["metrics"].items():
                key = name if len(workloads) == 1 else f"{wl}.{name}"
                result["metrics"][key] = m
        result["correct"] = result["failed"] == 0
    except BenchError as e:
        print(f"ofarbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
