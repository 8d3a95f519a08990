#!/usr/bin/env python3
"""Where the cycle went: one-screen summary of ofarbench span files.

    python3 ofarbench/cycle_report.py .bench_build/out/spans-*.json

A span file holds the spans of one timing pass (name, start, end and parent
of each, in ns) as written by `run.py --trace 1`, with the routing counts of
the separate counting pass and the run's provenance added. For each file the
report shows step self time against traffic tick time, the step-time
percentiles and the share of grants per routing condition.
"""
import json
import sys

ROUTING_CONDITIONS = ("minimal", "misroute_local", "misroute_global",
                      "ring_enter", "ring_ride", "ring_exit")


def load(path):
    with open(path) as f:
        return json.load(f)


def pct(values, q):
    """q-quantile (0..1) of `values`, linear between order statistics."""
    if not values:
        return 0.0
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def durations(doc, name):
    """Durations (ns) of every span called `name`, in recording order."""
    idx = doc["names"].index(name)
    return [end - start for n, start, end, _ in doc["spans"] if n == idx]


def step_split(doc, step="sim.step", child="traffic.tick"):
    """Per `step` span: (duration, time inside `child` spans), in ns."""
    step_idx = doc["names"].index(step)
    child_idx = doc["names"].index(child)
    inside = {}
    for n, start, end, parent in doc["spans"]:
        if n == child_idx and parent >= 0:
            inside[parent] = inside.get(parent, 0) + (end - start)
    return [(end - start, inside.get(i, 0))
            for i, (n, start, end, _) in enumerate(doc["spans"])
            if n == step_idx]


def render(doc):
    wl = doc.get("workload", "?")
    split = step_split(doc)
    steps = [d for d, _ in split]
    ticks = [t for _, t in split]
    selfs = [d - t for d, t in split]
    total = sum(steps) or 1
    prov = doc.get("provenance", {})
    lines = [
        f"== {wl}  seed={doc.get('seed')}  rev={prov.get('git_rev', '?')}"
        f"  build={prov.get('build_type', '?')}"
        f"  ndebug={prov.get('ndebug', '?')}  nproc={prov.get('nproc', '?')}",
        f"  window: {len(steps)} steps, {total / 1e9:.3f} s host time",
        "  where the cycle went      share    p50 us    p99 us",
        f"    sim.step self        {sum(selfs) / total:7.1%}"
        f"  {pct(selfs, .5) / 1e3:8.2f}  {pct(selfs, .99) / 1e3:8.2f}",
        f"    traffic.tick         {sum(ticks) / total:7.1%}"
        f"  {pct(ticks, .5) / 1e3:8.2f}  {pct(ticks, .99) / 1e3:8.2f}",
        f"    sim.step (total)     {1:7.1%}"
        f"  {pct(steps, .5) / 1e3:8.2f}  {pct(steps, .99) / 1e3:8.2f}",
    ]
    warm = durations(doc, "sim.warmup_step")
    if warm:
        lines.append(f"    warm-up step ({len(warm)})                "
                     f"{pct(warm, .5) / 1e3:8.2f}  {pct(warm, .99) / 1e3:8.2f}")
    counting = doc.get("counting")
    if counting:
        grants = counting["grants"] or 1
        lines.append(f"  routing: {counting['grants']} grants in the window, "
                     f"mean head wait "
                     f"{counting['queue_wait_sum'] / grants:.2f} cycles")
        by = counting["by_condition"]
        other = counting["grants"] - sum(by.get(c, 0) for c in
                                         ROUTING_CONDITIONS)
        cells = [f"{c} {by.get(c, 0) / grants:.1%}"
                 for c in ROUTING_CONDITIONS]
        if other:
            cells.append(f"other {other / grants:.1%}")
        lines.append("    " + "  ".join(cells))
    return "\n".join(lines)


def main(paths):
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for p in paths:
        print(render(load(p)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
