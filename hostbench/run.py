#!/usr/bin/env python3
"""Host-cost benchmark driver for the Skyrise simulator.

Builds hostbench/ (the simulator's src/ plus the round binary) from the
checkout, and the same round binary over yardstick/src, a frozen copy of
src/. Then runs rounds of one workload until --seconds have been measured.
Each round is a fresh process: set-up, one drive, and a check of every query
result.

With --trace 0, program rounds alternate with yardstick rounds. The host's
speed drifts by more than the benchmark's bounds over minutes, and the
yardstick, being the same code, slows down with it. So every host
time is reported at the yardstick's reference speed: scaled by the
yardstick's drive (or set-up) time on the reference host (YARDSTICK) over
that of the yardstick rounds just before and after. Memory and allocation
metrics are not scaled.

With --trace 1, traced program rounds alternate with untraced ones and give
the per-layer metrics plus the tracing overhead. Every metric is printed by
name and unit; the last line of stdout is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the checkout root):
  python3 hostbench/run.py --workload scan_agg --seed 1 --seconds 30 --trace 0

Exits non-zero without a result if the build fails, a round crashes, or a
round's output cannot be read; exits 1 after printing the result if any
output is wrong (a failed, shed or mismatched query, a sim_digest that
differs between rounds, or a span file that does not bear out the traced
round's per-layer times).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
YARDSTICK_SRC = os.path.join(HERE, "yardstick", "src")
WORKLOADS = ("scan_agg", "shuffle_join", "serving")
# Median yardstick drive and set-up seconds per workload on the reference
# host (4 vCPUs, Release build): the speed host times are reported at.
YARDSTICK = {
    "scan_agg": {"drive_s": 0.88, "setup_s": 0.16},
    "shuffle_join": {"drive_s": 1.20, "setup_s": 0.032},
    "serving": {"drive_s": 1.49, "setup_s": 0.027},
}
# Whole-run ceiling: rounds stop early enough to stay below it.
RUN_LIMIT_S = 170.0
# Seams whose self time is reported as drive time; set-up and report seams
# must not open during the drive.
DRIVE_SEAMS = {"storage.get", "storage.put", "storage.callback", "faas.invoke",
               "faas.response_cb", "engine.coordinator", "engine.worker",
               "engine.invoker", "bench"}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir(name="hostbench"):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, name)


def build(directory, src=None):
    """Configures (once) and builds the round binary over src (default: the
    checkout's src/); returns its path."""
    os.makedirs(directory, exist_ok=True)
    log_path = os.path.join(directory, "build.log")
    steps = []
    if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", directory,
                      "-DCMAKE_BUILD_TYPE=Release"]
                     + (["-DSKYRISE_SRC=" + src] if src else []))
    steps.append(["cmake", "--build", directory, "--target", "hostbench",
                  "-j", "4"])
    with open(log_path, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                # A failed configure must not leave a cache that skips it.
                cache = os.path.join(directory, "CMakeCache.txt")
                if os.path.exists(cache):
                    os.remove(cache)
                with open(log_path) as failed:
                    log(failed.read()[-4000:])
                raise SystemExit("hostbench: build failed (log: %s)" % log_path)
    return os.path.join(directory, "hostbench")


def run_round(binary, workload, seed, traced, out_dir, timeout,
              extra_args=()):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--out", out_dir] + list(extra_args)
    if traced:
        cmd.append("--traced")
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout, cwd=ROOT)
    elapsed = time.monotonic() - start
    if proc.stderr:
        log(proc.stderr[-4000:].rstrip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("hostbench: round failed (%s, exit %d)"
                         % (workload, proc.returncode))
    return json.loads(lines[-1]), elapsed


def audit_spans(record):
    """Re-derives a traced round's per-seam self times from its span file.

    Nesting is rebuilt from the written intervals alone (the recorder's
    parent links and running totals are not used), so a span that overlaps
    another without nesting, straddles the drive window, or is charged to
    the wrong parent makes this disagree with the round's reported self
    times or residual. Returns a list of problems.
    """
    with open(record["spans_file"]) as spans_file:
        events = json.load(spans_file)["traceEvents"]
    # Timestamps are microseconds with three decimals: exact nanoseconds.
    spans = sorted((round(e["ts"] * 1000), -round(e["dur"] * 1000), e["name"])
                   for e in events)
    low, high = record["drive_window_ns"]
    self_ns, covered, problems = {}, 0, []
    stack = []  # [end_ns, name, duration_ns, child_ns]

    def close(end, name, duration, child):
        if low <= end - duration and end <= high:
            self_ns[name] = self_ns.get(name, 0) + duration - child

    for start, neg_duration, name in spans:
        end = start - neg_duration
        while stack and stack[-1][0] <= start:
            close(*stack.pop())
        if stack:
            if end > stack[-1][0]:
                problems.append("span %s at %d ns overlaps its parent"
                                % (name, start))
            stack[-1][3] += end - start
        else:
            if start < low < end or start < high < end:
                problems.append("span %s straddles the drive window" % name)
            elif low <= start and end <= high:
                covered += end - start
        stack.append([end, name, end - start, 0])
    while stack:
        close(*stack.pop())
    if set(self_ns) - DRIVE_SEAMS:
        problems.append("spans of %s opened during the drive"
                        % sorted(set(self_ns) - DRIVE_SEAMS))
    if self_ns != record["drive_self_ns"]:
        problems.append("span file self times %s differ from the round's %s"
                        % (self_ns, record["drive_self_ns"]))
    if high - low - covered != record["residual_ns"]:
        problems.append("span file residual %d ns differs from the round's "
                        "%d ns" % (high - low - covered, record["residual_ns"]))
    return problems


def setup_median(rounds):
    return statistics.median(s for r in rounds for s in r["setup_s"])


def scale_to_reference(rounds, workload):
    """Sets "drive_scale", "cpu_scale" and "setup_scale" on each program
    round next to a yardstick round: the yardstick's reference drive and
    set-up times over the mean of the drive wall, drive CPU and set-up times
    of the yardstick rounds just before and after it, so drift slower than a
    round cancels. (On an idle host the drive's CPU time is its wall time.)"""
    ref = YARDSTICK[workload]
    for i, r in enumerate(rounds):
        near = [rounds[j] for j in (i - 1, i + 1)
                if 0 <= j < len(rounds) and rounds[j]["kind"] == "yardstick"]
        if r["kind"] == "program" and near:
            r["drive_scale"] = ref["drive_s"] / statistics.mean(
                y["drive_s"] for y in near)
            r["cpu_scale"] = ref["drive_s"] / statistics.mean(
                y["cpu_s"] for y in near)
            r["setup_scale"] = ref["setup_s"] / statistics.mean(
                statistics.median(y["setup_s"]) for y in near)


def end_to_end(rounds):
    """rounds: the program rounds, scaled by scale_to_reference."""
    med = lambda key: statistics.median(key(r) for r in rounds)
    per_query = [r["drive_scale"] * ms for r in rounds for ms in r["query_ms"]]
    return {
        "wall_s": med(lambda r: r["drive_scale"] * r["drive_s"]),
        "cpu_s": med(lambda r: r["cpu_scale"] * r["cpu_s"]),
        "queries_per_host_s":
            med(lambda r: r["attempted"] / (r["drive_scale"] * r["drive_s"])),
        "host_s_per_sim_hour":
            med(lambda r: r["drive_scale"] * r["drive_s"] * 3600 / r["sim_s"]),
        "peak_rss_mb": med(lambda r: r["peak_rss_mb"]),
        "heap_live_mb_end": med(lambda r: r["heap_live_mb_end"]),
        "allocs_per_query": med(lambda r: r["allocs"] / r["attempted"]),
        "setup_s": statistics.median(r["setup_scale"] * s for r in rounds
                                     for s in r["setup_s"]),
        "query_host_ms_p50": statistics.median(per_query),
        "query_host_ms_p90": statistics.quantiles(
            per_query, n=10, method="inclusive")[8],
    }


def per_layer(traced, untraced):
    names = traced[0]["layers"].keys()
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in names}
    metrics["trace_overhead_pct"] = 100.0 * (
        statistics.median(r["drive_s"] for r in traced)
        / statistics.median(r["drive_s"] for r in untraced) - 1.0)
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    binaries = {"program": build(build_dir()),
                "yardstick": build(build_dir("hostbench-yardstick"),
                                   YARDSTICK_SRC)}
    # The time limit counts from here: a first run also builds.
    started = time.monotonic()
    out_dirs = {}
    for kind, binary in binaries.items():
        out_dirs[kind] = os.path.join(os.path.dirname(binary), "out")
        os.makedirs(out_dirs[kind], exist_ok=True)

    # Rounds cycle through the pattern, and a run ends only after a whole
    # cycle, with at least three cycles: untraced program and yardstick
    # rounds under --trace 0, untraced and traced program rounds under
    # --trace 1.
    pattern = ([("program", False), ("program", True)] if args.trace
               else [("program", False), ("yardstick", False)])
    measure_start = time.monotonic()
    rounds, durations = [], []
    while True:
        slot = len(rounds) % len(pattern)
        if slot == 0 and len(rounds) >= 3 * len(pattern):
            cycle = sum(statistics.median(durations[i::len(pattern)])
                        for i in range(len(pattern)))
            elapsed = time.monotonic() - measure_start
            budget = RUN_LIMIT_S - (time.monotonic() - started)
            if elapsed + cycle > args.seconds or budget < 2 * cycle:
                break
        kind, traced = pattern[slot]
        budget = RUN_LIMIT_S - (time.monotonic() - started)
        record, duration = run_round(binaries[kind], args.workload, args.seed,
                                     traced, out_dirs[kind], max(1.0, budget))
        record["kind"] = kind
        if traced and record["spans_written"]:
            # The next traced round overwrites the span file.
            record["audit"] = audit_spans(record)
        rounds.append(record)
        durations.append(duration)

    scale_to_reference(rounds, args.workload)
    yardstick = [r for r in rounds if r["kind"] == "yardstick"]
    rounds = [r for r in rounds if r["kind"] == "program"]
    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    digests = sorted({r["sim_digest"] for r in rounds})
    problems = []
    mismatches = sum(r["mismatches"] for r in rounds)
    if mismatches:
        problems.append("%d query results differ from the reference"
                        % mismatches)
    if len(digests) != 1:
        problems.append("sim_digest differs between rounds: %s" % digests)
    for r in traced:
        if r["open_spans"]:
            problems.append("%d benchmark spans left open" % r["open_spans"])
        if not r["spans_written"]:
            problems.append("could not write %s" % r["spans_file"])
        else:
            problems.extend(r["audit"])
    attempted = sum(r["attempted"] for r in rounds)
    # A failed query has no result to check, so no query counts twice.
    failed = sum(r["failed"] + r["mismatches"] for r in rounds)
    if any(r["failed"] for r in rounds):
        problems.append("%d queries failed or were shed"
                        % sum(r["failed"] for r in rounds))
    # The yardstick is frozen code; if it misbehaves, its times mean nothing.
    if (any(r["failed"] or r["mismatches"] for r in yardstick)
            or len({r["sim_digest"] for r in yardstick}) > 1):
        problems.append("yardstick rounds failed, mismatched or diverged")

    if args.trace:
        metrics = per_layer(traced, untraced)
        metrics["failed_fraction"] = failed / attempted
    else:
        metrics = end_to_end(untraced)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit("hostbench: no value for %s" % missing)

    print("workload %s seed %d: %d program rounds (%d traced), %d yardstick "
          "rounds, %d queries, sim_digest %s"
          % (args.workload, args.seed, len(rounds), len(traced),
             len(yardstick), attempted,
             digests[0] if len(digests) == 1 else "MISMATCH"))
    if yardstick:
        print("  measured here: drive %.4f s, set-up %.4f s (program); drive "
              "%.4f s, set-up %.4f s (yardstick); median scale %.4f (drive) "
              "and %.4f (set-up)"
              % (statistics.median(r["drive_s"] for r in untraced),
                 setup_median(untraced),
                 statistics.median(r["drive_s"] for r in yardstick),
                 setup_median(yardstick),
                 statistics.median(r["drive_scale"] for r in untraced),
                 statistics.median(r["setup_scale"] for r in untraced)))
    for name in units:
        print("  %-34s %16.6g %s" % (name, metrics[name], units[name]))
    if args.trace:
        queries = attempted / len(rounds)
        print("  per query: residual %.3f ms, faas self %.3f ms, storage self "
              "%.3f ms, storage callback %.3f ms, obs spans %.1f"
              % (metrics["sim.residual_ms"] / queries,
                 (metrics["faas.invoke_self_ms"]
                  + metrics["faas.response_cb_ms"]) / queries,
                 metrics["storage.call_self_ms"] / queries,
                 metrics["storage.callback_ms"] / queries,
                 metrics["obs.spans_per_query"]))
    for problem in problems:
        print("INCORRECT: " + problem)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
