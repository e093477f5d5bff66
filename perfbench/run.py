#!/usr/bin/env python3
"""Tournament benchmark for schedbattle: host CPU time of whole workloads.

    python3 perfbench/run.py --workload serve1024|fig6|fig8 --seed N \
        --seconds S --trace 0|1

Run from the repository root. The script builds the perfbench binary
(perfbench/CMakeLists.txt, Release) into .bench_build/perfbench. It then
samples the workload as a four-class tournament (CFS, ULE, MLFQ, EEVDF) for
about --seconds seconds. A sample is one perfbench process running one class
on one part of the workload; parts exist because fig8's 42 suite runs per
class are split into PARTS slices. Samples go round-robin over every
(class, part) unit, so all units see the same host conditions.

On a shared host the same work takes a different CPU time in every process
(about +-20%), and the level drifts over minutes. Each perfbench process
therefore times a fixed speed probe before and after its runs, and the
reported times are scaled to a host on which the probe takes
REFERENCE_PROBE_S. A unit's figure is the median over its samples; a
class's figure is the sum over its parts.

--trace 0 reports the end-to-end metrics. --trace 1 runs every sample
untraced and then traced (TracingScheduler) and reports the per-layer
metrics instead. Both modes check every run's simulated-results digest:
against perfbench/references.json when the seed has a reference, against
the unit's first sample always, and, traced, against the untraced run of
the same sample. A mismatch, an implausible result or a crash is a failed
run. The last stdout line is the JSON result; the lines before it give
provenance and the failed-run fraction.

--record rewrites this workload's reference digests for REFERENCE_SEEDS.
--inject cfs_sched_latency doubles CFS's sched_latency, a modelled change
the digest check must catch. See perfbench/README.md.
"""

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
REFERENCES = os.path.join(BENCH_DIR, "references.json")

CLASSES = ("cfs", "ule", "mlfq", "eevdf")
# perfbench processes per class: fig8's suite is split so that one sample
# lasts well under a second.
PARTS = {"serve1024": 1, "fig6": 1, "fig8": 3}
# The speed probe's CPU time on an uncontended 4-CPU host (~0.042 s). Any
# constant would do: it only fixes the scale of the reported times.
REFERENCE_PROBE_S = 0.05
# The default seed and a held-out seed that no tuning used.
REFERENCE_SEEDS = (42, 1234)
# A sample that takes longer than this is killed and counted as failed.
SAMPLE_TIMEOUT_S = 120

HOOKS = ("select_task_rq", "enqueue", "pick_next", "put_prev", "on_block",
         "task_tick", "check_preempt", "on_core_idle")
QUERIES = ("tick_boundary", "runnable_count", "load_of")
MACHINE = ("ticks_fired", "ticks_elided", "catchup_batches", "context_switches",
           "wakeups", "balance_invocations", "pickcpu_scans")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once and builds the binary; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no schedbattle sources under {os.path.join(ROOT, 'src')}")
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(step))
            return False
    return os.path.isfile(BINARY)


def child_env():
    # The benchmark measures the program's defaults: drop the process-wide
    # knob overrides (shards, queue backend, tickless) a caller may have set.
    return {k: v for k, v in os.environ.items() if not k.startswith("SCHEDBATTLE_")}


def run_sample(workload, unit, seed, trace, inject):
    """One perfbench process: ({traced: record}, process line or None)."""
    cls, part = unit
    cmd = [BINARY, f"--workload={workload}", f"--class={cls}",
           f"--part={part}/{PARTS[workload]}", f"--seed={seed}"]
    if trace:
        cmd.append("--trace")
    if inject:
        cmd.append(f"--inject={inject}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              env=child_env(), timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{cls} part {part}: timed out after {SAMPLE_TIMEOUT_S}s")
        return {}, None
    if proc.returncode != 0:
        log(f"{cls} part {part}: perfbench exited with {proc.returncode}")
        return {}, None
    records, process = {}, None
    for line in proc.stdout.splitlines():
        doc = json.loads(line)
        if doc["type"] == "run":
            records[doc["traced"]] = doc
        elif doc["type"] == "process":
            process = doc
    return records, process


def load_references():
    """{workload: {seed: {class: [digest per part]}}}."""
    if not os.path.isfile(REFERENCES):
        return {}
    with open(REFERENCES) as f:
        return json.load(f)


def failed_runs(unit, records, modes, reference, first):
    """Counts the failed runs of one sample; fills `first` on a unit's first sample."""
    cls, part = unit
    failed = 0
    for traced in modes:
        rec = records.get(traced)
        name = f"{cls} part {part}{' traced' if traced else ''}"
        ok = rec is not None and rec["plausible"]
        if ok and reference is not None and rec["digest"] != reference[cls][part]:
            log(f"{name}: digest {rec['digest']} != reference {reference[cls][part]}")
            ok = False
        if ok and traced:
            plain = records.get(False)
            if plain is None or (rec["digest"], rec["events"]) != (plain["digest"],
                                                                   plain["events"]):
                log(f"{name}: traced run diverged from the untraced run")
                ok = False
        if ok:
            counts = ({h: v["calls"] for h, v in rec["hooks"].items()}, rec["queries"]) \
                if traced else None
            sig = (rec["digest"], rec["events"], counts)
            if first.setdefault((unit, traced), sig) != sig:
                log(f"{name}: results or counts differ between samples")
                ok = False
        failed += 0 if ok else 1
    return failed


def median_of(samples, key, traced=False, scaled=False):
    """Median over a unit's (records, factor) samples of key(record)."""
    return statistics.median(key(r[traced]) * (factor if scaled else 1) for r, factor in samples)


def cpu_by_class(samples, scaled):
    return {c: sum(median_of(s, lambda r: r["cpu_s"], scaled=scaled)
                   for (cls, _), s in samples.items() if cls == c)
            for c in CLASSES}


def end_to_end(samples, rss):
    cpu = cpu_by_class(samples, scaled=True)
    metrics = {"cpu_s": (sum(cpu.values()), "s")}
    for c in CLASSES:
        metrics[f"cpu_s.{c}"] = (cpu[c], "s")
    metrics["setup_s"] = (sum(median_of(s, lambda r: r["setup_s"], scaled=True)
                              for s in samples.values()), "s")
    metrics["peak_rss_mb"] = (max(rss), "MB")
    return metrics


def per_layer(samples):
    metrics = {}
    for c in CLASSES:
        units = [s for (cls, _), s in samples.items() if cls == c]
        # Counts are identical across samples (checked); times are medians.
        first = [s[0][0][True] for s in units]
        events = sum(r["events"] for r in first)
        self_all = sum(median_of(s, lambda r: sum(v["self_ns"] for v in r["hooks"].values()),
                                 True) for s in units)
        sim = sum(median_of(s, lambda r: r["sim_cpu_s"] * 1e9, True) for s in units)
        for h in HOOKS:
            calls = sum(r["hooks"][h]["calls"] for r in first)
            self_ns = sum(median_of(s, lambda r: r["hooks"][h]["self_ns"], True) for s in units)
            metrics[f"sched.{c}.{h}.calls_per_event"] = (calls / events, "calls/event")
            metrics[f"sched.{c}.{h}.self_ns_per_call"] = (self_ns / calls if calls else 0.0,
                                                          "ns/call")
        for q in QUERIES:
            metrics[f"sched.{c}.{q}.calls_per_event"] = (
                sum(r["queries"][q] for r in first) / events, "calls/event")
        metrics[f"sched.{c}.hooks_self_share"] = (self_all / sim, "frac")
        metrics[f"sim.{c}.events"] = (events, "count")
        metrics[f"sim.{c}.residual_ns_per_event"] = ((sim - self_all) / events, "ns/event")
        for m in MACHINE:
            metrics[f"machine.{c}.{m}"] = (sum(r["machine"][m] for r in first) / events,
                                           "count/event")
        traced_cpu = sum(median_of(s, lambda r: r["cpu_s"], True) for s in units)
        plain_cpu = sum(median_of(s, lambda r: r["cpu_s"]) for s in units)
        metrics[f"trace.{c}.overhead_frac"] = (traced_cpu / plain_cpu - 1, "frac")
    return metrics


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def record_references(workload):
    refs = load_references()
    entry = refs.setdefault(workload, {})
    for seed in REFERENCE_SEEDS:
        digests = {c: [] for c in CLASSES}
        for c in CLASSES:
            for part in range(PARTS[workload]):
                records, _ = run_sample(workload, (c, part), seed, trace=False, inject=None)
                if False not in records or not records[False]["plausible"]:
                    log(f"seed {seed} {c} part {part}: run failed; references not written")
                    return 1
                digests[c].append(records[False]["digest"])
        entry[str(seed)] = digests
        log(f"{workload} seed {seed}: {digests}")
    with open(REFERENCES, "w") as f:
        json.dump(refs, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(PARTS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=("cfs_sched_latency",))
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not build():
        return 1
    if args.record:
        return record_references(args.workload)

    reference = load_references().get(args.workload, {}).get(str(args.seed))
    modes = (False, True) if args.trace else (False,)
    units = [(c, part) for c in CLASSES for part in range(PARTS[args.workload])]

    # Round-robin over the units; after one full round, stop at the first
    # unit whose last sample would not end within --seconds.
    samples = {u: [] for u in units}
    rss, attempted, failed, first, last, info = [], 0, 0, {}, {}, None
    start = time.monotonic()
    for i in itertools.count():
        unit = units[i % len(units)]
        if i >= len(units) and time.monotonic() - start + last[unit] > args.seconds:
            break
        t0 = time.monotonic()
        records, process = run_sample(args.workload, unit, args.seed, args.trace, args.inject)
        last[unit] = time.monotonic() - t0
        attempted += len(modes)
        failed += failed_runs(unit, records, modes, reference, first)
        if process is not None and all(m in records for m in modes):
            factor = REFERENCE_PROBE_S / statistics.mean(process["probe_s"])
            samples[unit].append((records, factor))
            rss.append(process["peak_rss_mb"])
            info = process
    if not all(samples.values()):
        log("a unit has no completed sample")
        return 1

    release = info["build_type"] == "Release" and not info["asserts"]
    if not release:
        log(f"WARNING: non-Release build ({info['build_type']}, asserts="
            f"{info['asserts']}); timings are not comparable")
    provenance = {
        "compiler": info["compiler"], "build_type": info["build_type"],
        "release_build": release, "host_cpus": os.cpu_count(), "git_commit": git_commit(),
        "workload": args.workload, "seed": args.seed, "scale": info["scale"],
        "samples_per_unit": min(len(s) for s in samples.values()),
        "reference_checked": reference is not None, "inject": args.inject,
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"failed_frac": failed / attempted, "failed": failed,
                      "attempted": attempted,
                      "unscaled_cpu_s": cpu_by_class(samples, scaled=False)}))
    metrics = per_layer(samples) if args.trace else end_to_end(samples, rss)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
