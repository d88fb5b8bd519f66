#!/usr/bin/env python3
"""TNIC reproduction benchmark: end-to-end and per-layer metrics.

Builds the `perfbench` worker from source, then runs one workload as a
series of fresh single-threaded worker processes until `--seconds` have
passed. Each process runs a fixed, seeded amount of work as a closed loop
with one client, checks every output, and reports raw timings. This script
checks them, verifies that counts and virtual times repeat exactly, and
prints a table followed, on the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (untraced processes
only). With `--trace 1` the run alternates untraced and traced processes
(a counting recorder installed) and reports the per-layer metrics, including
the tracing overhead. `--self-test` runs the seeded-defect variants and
exits non-zero unless every one of them trips the checks.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Metric definitions, the reasons for each workload and the first recorded
baseline are in perfbench/METRICS.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("bft-counter", "a2m-acct", "peerreview-audit")
# Processes per run, at least, whatever --seconds says: wall metrics are
# taken from the best of them.
MIN_PROCESSES = 3
WORKER_TIMEOUT_S = 120


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Builds the worker in release mode; returns its path or None."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(target, "release", "perfbench")


def run_worker(binary, workload, seed, traced=False, defect=None):
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    if defect:
        cmd += ["--defect", defect]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_processes(binary, workload, seed, seconds, traced):
    """Runs worker processes until `seconds` have passed: untraced ones, or
    untraced/traced pairs when `traced`."""
    plain, tracedreps = [], []
    start = time.monotonic()
    step = 0.0
    while True:
        t0 = time.monotonic()
        plain.append(run_worker(binary, workload, seed))
        if traced:
            tracedreps.append(run_worker(binary, workload, seed, traced=True))
        step = max(step, time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if len(plain) >= MIN_PROCESSES and elapsed + step > seconds:
            return plain, tracedreps


def percentile(values, p):
    """The nearest-rank `p`-th percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def fingerprint_check(reps, workload, seed, binary):
    """Counts and virtual times must repeat exactly: across the processes of
    this run, and across runs of this seed with the same worker binary."""
    problems = []
    first = reps[0]["fingerprint"]
    for i, rep in enumerate(reps[1:], 1):
        diff = {k for k in set(first) | set(rep["fingerprint"])
                if first.get(k) != rep["fingerprint"].get(k)}
        if diff:
            problems.append(f"process {i} differs from process 0 in {sorted(diff)}")
    with open(binary, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()[:16]
    store = os.path.join(os.path.dirname(binary), "perfbench-fingerprints")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, f"{workload}-{seed}-{digest}.json")
    if os.path.exists(path):
        with open(path) as f:
            earlier = json.load(f)
        if earlier != first:
            problems.append(f"differs from an earlier run of seed {seed}")
    else:
        with open(path, "w") as f:
            json.dump(first, f, sort_keys=True)
    return problems


def check_reps(reps):
    problems = []
    for i, rep in enumerate(reps):
        problems += [f"process {i}: {e}" for e in rep["errors"]]
        if rep["false_convictions"]:
            problems.append(f"process {i}: {rep['false_convictions']} false convictions")
    return problems


def best(values, key=None):
    """Min-of-N over processes: the least-disturbed one."""
    return min(values, key=key)


def typical(reps):
    """The run's processes folded into one typical process.

    Co-tenants on a shared host slow the program by up to about 2x, for
    tens of milliseconds to minutes at a time, so the least-disturbed
    process or window of a run depends on whether the run held a quiet
    stretch. Every process of a run does the same seeded work, so operation j,
    construction j and timing window j are the same work in every process;
    the median of each across processes is its typical wall time, and a run
    reports statistics of those typical times. Returns the typical wall
    nanoseconds of each operation, of the timed phase (the sum of the
    typical windows) and of each construction (in seconds)."""
    def per_index(key):
        return [statistics.median(column) for column in zip(*(rep[key] for rep in reps))]
    return per_index("op_wall_ns"), sum(per_index("window_wall_ns")), per_index("setup_s")


def end_to_end(reps):
    virt = [ns for rep in reps for ns in rep["op_virt_ns"]]
    ops, wall, setups = typical(reps)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(ops) / (wall / 1e9), "1/s"),
        "op_p50_us": (statistics.median(ops) / 1e3, "us"),
        # Each process runs at least 1000 operations, so at least 10 of them
        # lie beyond the 99th percentile.
        "op_p99_us": (percentile(ops, 99) / 1e3, "us"),
        "virtual_op_p50_us": (statistics.median(virt) / 1e3, "us"),
        "peak_rss_mb": (statistics.median(rep["peak_rss_kb"] for rep in reps) / 1024, "MB"),
    }


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(plain, traced):
    """Per-layer metrics. Counts, gaps and the estimated shares come from the
    quietest traced process (counts repeat exactly across processes), layer
    costs from the fastest traced process, call timings from the untraced
    processes."""
    quiet = best(traced, key=lambda t: t["timed_wall_ns"])
    layer = quiet["layers"]

    def fastest(key):
        return best(t["layers"].get(key, 0.0) for t in traced)

    def stat(name):
        return layer.get(f"stats.{name}", 0)

    ops = len(quiet["op_wall_ns"])
    rounds = len(quiet["audit_finish_ns"])

    def best_median(key):
        return best(statistics.median(p[key] or [0]) for p in plain)

    audit_calls = [[b + f for b, f in zip(p["audit_begin_ns"], p["audit_finish_ns"])]
                   for p in plain]
    overhead = ratio(quiet["timed_wall_ns"], best(p["timed_wall_ns"] for p in plain)) - 1

    # Estimated shares of the quiet process's traced wall time: count x the
    # cost it timed for layers timed in-process, recorder gaps for audit and
    # checkpoint steps. The hop's own share excludes the attest and verify it
    # contains.
    attest_ns, verify_ns = layer["provider.attest_ns"], layer["provider.verify_ns"]
    est = {
        "crypto_sig": quiet["signatures"]
        * (layer["crypto.ed25519_sign_ns"] + layer["crypto.ed25519_verify_ns"]),
        "provider": layer["count.attest"] * attest_ns + layer["count.verify"] * verify_ns,
        "cluster": layer["count.send"] * max(0.0, layer["cluster.hop_ns"] - attest_ns - verify_ns),
        "log": layer["count.log-append"] * layer.get("log.append_ns", 0.0),
        "audit_replay": layer["gap_ns.audit-replay"],
        "audit_response": layer["gap_ns.response"],
        "checkpoint": layer["gap_ns.checkpoint"] + layer["gap_ns.prune"],
    }
    shares = {f"est_share.{k}": ratio(v, quiet["timed_wall_ns"]) for k, v in est.items()}
    shares["est_share.unattributed"] = 1 - sum(shares.values())

    metrics = {name: (fastest(name), "ns") for name in (
        "crypto.ed25519_sign_ns", "crypto.ed25519_verify_ns", "crypto.hmac_64B_ns",
        "crypto.sha256_64B_ns", "crypto.sha256_1KiB_ns", "crypto.hmac_1KiB_ns",
        "provider.attest_ns", "provider.verify_ns", "cluster.hop_ns", "log.append_ns")}
    metrics.update({
        "provider.attests_per_op": (ratio(layer["count.attest"], ops), "count"),
        "provider.verifies_per_op": (ratio(layer["count.verify"], ops), "count"),
        "provider.attest_bytes_per_op": (ratio(layer["aux.attest"], ops), "B"),
        "cluster.sends_per_op": (ratio(layer["count.send"], ops), "count"),
        "cluster.rejected": (layer["aux.recv"], "count"),
        "log.appends_per_op": (ratio(layer["count.log-append"], ops), "count"),
        "log.app_entries": (stat("log_app_entries"), "count"),
        "log.ctl_entries": (stat("log_ctl_entries"), "count"),
        "log.audit_entries": (stat("log_audit_entries"), "count"),
        "log.piggybacked_per_op": (ratio(stat("piggybacked"), ops), "count"),
        "log.retained_entries": (stat("retained_entries"), "count"),
        "log.retained_bytes": (stat("retained_bytes"), "B"),
        "audit.begin_ms_p50": (best_median("audit_begin_ns") / 1e6, "ms"),
        "audit.finish_ms_p50": (best_median("audit_finish_ns") / 1e6, "ms"),
        "audit_round_p50_ms": (best(statistics.median(a or [0]) for a in audit_calls) / 1e6,
                               "ms"),
        "audit.challenges_per_round": (ratio(stat("challenges"), rounds), "count"),
        "audit.msgs_per_round": (ratio(stat("audit_messages"), rounds), "count"),
        "audit.entries_replayed_per_round": (ratio(stat("entries_replayed"), rounds), "count"),
        "audit.wall_us_per_replayed_entry": (
            ratio(best(sum(a) for a in audit_calls) / 1e3, stat("entries_replayed")), "us"),
        "audit.replay_ns_per_entry": (
            ratio(layer["gap_ns.audit-replay"], layer["aux.response"]), "ns"),
        "audit.response_ns": (ratio(layer["gap_ns.response"], layer["count.response"]), "ns"),
        "checkpoint.completed": (stat("checkpoints_completed"), "count"),
        "checkpoint.pruned_entries": (stat("pruned_entries"), "count"),
        "checkpoint.gap_ns": (
            ratio(layer["gap_ns.checkpoint"], layer["count.checkpoint"]), "ns"),
        "verdict.transitions": (layer["count.verdict-transition"], "count"),
        "verdict.false_convictions": (quiet["false_convictions"], "count"),
        "detect_audit_rounds": (quiet["detect_audit_rounds"], "count"),
        "op_fail_frac": (ratio(sum(p["failed"] for p in plain + traced),
                               sum(len(p["op_wall_ns"]) for p in plain + traced)), "1"),
        "app.op_share": (statistics.median(
            ratio(sum(p["op_wall_ns"]), p["timed_wall_ns"]) for p in plain), "1"),
        "trace.overhead_frac": (overhead, "1"),
    })
    metrics.update({k: (v, "1") for k, v in shares.items()})
    return metrics


def traced_determinism(traced):
    """Event counts and aux sums of traced processes must repeat exactly."""
    keys = [k for k in traced[0]["layers"] if k.startswith(("count.", "aux.", "stats."))]
    first = {k: traced[0]["layers"][k] for k in keys}
    return [f"traced process {i} event counts differ"
            for i, t in enumerate(traced[1:], 1)
            if {k: t["layers"][k] for k in keys} != first]


def bench(args):
    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 1
    traced = args.trace == 1
    try:
        plain, tracedreps = run_processes(binary, args.workload, args.seed, args.seconds, traced)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        log(f"perfbench: {e}")
        return 1
    reps = plain + tracedreps
    problems = check_reps(reps)
    problems += fingerprint_check(reps, args.workload, args.seed, binary)
    if traced:
        problems += traced_determinism(tracedreps)
    for p in problems:
        log(f"CHECK FAILED: {p}")
    attempted = sum(len(rep["op_wall_ns"]) for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    metrics = per_layer(plain, tracedreps) if traced else end_to_end(plain)
    print(f"workload {args.workload}  seed {args.seed}  processes {len(plain)}"
          f"{f' + {len(tracedreps)} traced' if traced else ''}  ops {attempted}"
          f"  failed {failed}  op_fail_frac {failed / max(attempted, 1):.4g}")
    for name, (value, unit) in metrics.items():
        label = "  (virtual)" if name.startswith("virtual") else (
            "  (estimated)" if name.startswith("est_share") else "")
        print(f"  {name:34s} {value:14.6g} {unit}{label}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def self_test():
    """Each seeded defect must trip the benchmark's own checks."""
    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 1
    cases = [
        ("bft-counter", "byzantine-leader",
         lambda rep: rep["failed"] > 0, "op_fail_frac > 0"),
        ("peerreview-audit", "no-tamperer",
         lambda rep: any("not exposed" in e for e in rep["errors"]), "exposure check fails"),
    ]
    ok = True
    for workload, defect, tripped, expect in cases:
        rep = run_worker(binary, workload, 1, defect=defect)
        hit = tripped(rep) and bool(check_reps([rep]))
        ok &= hit
        print(f"{workload} --defect {defect}: {expect}: {'tripped' if hit else 'NOT TRIPPED'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
