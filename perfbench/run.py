#!/usr/bin/env python3
"""Wall-clock benchmark of the sharded query service (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles the engine from src/) into
.bench_build/perfbench, then runs repetitions of the workload, each in
its own process: a fresh world built from the seed, set-up, and a timed
window of fixed simulated work. Repetitions continue until their timed
windows add up to --seconds. Every repetition must pass the output
oracle and produce the same digest, counts and virtual-time latencies;
for a seed listed in expected_digests.json the digest must also match.

--trace 0 reports the end-to-end metrics (medians over repetitions).
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics; the table also goes to
.bench_build/perfbench/layers-<workload>-<seed>.json.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "aorta_perfbench")
EXPECTED = os.path.join(HERE, "expected_digests.json")

WORKLOADS = ("select_storm", "aq_monitor", "aq_churn")
SHARDS = 8
MIN_REPS = 3
MAX_REPS = 25
# Stop starting repetitions once a run has used this much wall time, so a
# run ends well inside the three minutes it is allowed.
RUN_BUDGET_S = 140.0
REP_TIMEOUT_S = 170.0

# Per-layer metrics: unit, and the end-to-end metric / workload each
# should move.
LAYERS = {
    "server.submit_us": ("us", "realtime_factor on select_storm, aq_churn"),
    "server.admission_p99_ms": ("sim-ms", "latency_p99_ms on select_storm, aq_churn"),
    "server.shed": ("count", "fail_ratio on all"),
    "server.rejected": ("count", "fail_ratio on all"),
    "shard.fragments_registered": ("count", "setup_s on aq_monitor; realtime_factor on aq_churn"),
    "shard.register_amplification": ("1", "setup_s on aq_monitor; realtime_factor on aq_churn"),
    "shard.selects_served": ("count", "fail_ratio on select_storm"),
    "shard.partial_selects": ("count", "fail_ratio on select_storm"),
    "shard.results_msgs": ("count", "realtime_factor on aq_monitor"),
    "shard.rows_per_msg": ("rows/msg", "realtime_factor on aq_monitor"),
    "shard.fragment_codec_us": ("us", "realtime_factor on select_storm, aq_churn"),
    "shard.rows_codec_ns": ("ns", "realtime_factor on aq_monitor"),
    "query.parse_us": ("us", "realtime_factor on select_storm, aq_churn"),
    "query.compile_us": ("us", "realtime_factor on select_storm, aq_churn"),
    "eval.compiles_per_stmt": ("1", "realtime_factor on select_storm"),
    "eval.compiled_evals": ("count", "realtime_factor, latency_* on aq_monitor"),
    "eval.index.probes": ("count", "realtime_factor, latency_* on aq_monitor"),
    "eval.index.candidate_ratio": ("1", "realtime_factor, latency_* on aq_monitor"),
    "eval.agg.tuples_evaluated": ("count", "realtime_factor, peak_rss_mb on aq_monitor"),
    "agg_cache.hit_ratio": ("1", "realtime_factor, peak_rss_mb on aq_monitor"),
    "broker.batches": ("count", "realtime_factor on aq_monitor"),
    "broker.rpcs_issued": ("count", "realtime_factor on aq_monitor"),
    "broker.coalesce_ratio": ("1", "realtime_factor on aq_monitor"),
    "broker.cache_hits": ("count", "realtime_factor on aq_monitor"),
    "broker.read_failures": ("count", "realtime_factor on aq_monitor"),
    "broker.tuples_delivered": ("count", "realtime_factor on aq_monitor"),
    "broker.batch_p99_ms": ("sim-ms", "latency_p99_ms on aq_monitor"),
    "net.messages": ("count", "fail_ratio, realtime_factor on select_storm"),
    "net.reliable.calls": ("count", "fail_ratio, realtime_factor on select_storm"),
    "net.reliable.retries": ("count", "fail_ratio, realtime_factor on select_storm"),
    "net.breaker_opens": ("count", "fail_ratio, realtime_factor on select_storm"),
    "net.rpc_timeouts": ("count", "fail_ratio, realtime_factor on select_storm"),
    "runtime.windows": ("count", "realtime_factor on all, most on select_storm"),
    "runtime.cross_posts": ("count", "realtime_factor on all, most on select_storm"),
    "runtime.max_outbox_depth": ("count", "realtime_factor on all, most on select_storm"),
    "actions.outcomes": ("count", "latency_* on aq_monitor"),
    "health.quarantines": ("count", "latency_* on aq_monitor"),
    "obs.stats_json_ms": ("ms", "(observability cost, outside the window)"),
    "obs.trace_overhead": ("1", "(traced vs untraced realtime_factor)"),
    "host.server.est_share": ("1", "realtime_factor on select_storm, aq_churn"),
    "host.query.est_share": ("1", "realtime_factor on select_storm, aq_churn"),
    "host.shard.est_share": ("1", "realtime_factor on all"),
    "host.attributed_share": ("1", "(share of the timed window the replays explain)"),
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("engine sources not found at %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def run_rep(workload, seed, threads=1, traced=False):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--threads", str(threads)] + (["--traced"] if traced else [])
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("%s exited %d: %s" % (" ".join(cmd), proc.returncode,
                                              proc.stderr.strip()[-400:]))
    return json.loads(proc.stdout)


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return float("nan")
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def tail_percentile(n):
    """Highest of the usual percentiles with at least ten samples above it."""
    best = None
    for p in (50, 90, 95, 99, 99.9):
        if n * (100 - p) / 100 >= 10:
            best = p
    return best


DETERMINISTIC = ("digest", "counts", "attempted", "failed", "stmt_ms",
                 "detect_ms")


def check(reps, workload, seed):
    """Return the list of problems with a run's repetitions."""
    problems = []
    for i, rep in enumerate(reps):
        if rep["violations"]:
            problems.append("rep %d: %d oracle violation(s), e.g. %s" % (
                i, rep["violations"], rep["violation_samples"][:2]))
        for key in DETERMINISTIC:
            if rep[key] != reps[0][key]:
                problems.append("rep %d: %s differs from rep 0" % (i, key))
    try:
        with open(EXPECTED) as f:
            expected = json.load(f).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        expected = None
    if expected is not None and expected != reps[0]["digest"]:
        problems.append("digest %s != committed %s for seed %d" % (
            reps[0]["digest"], expected, seed))
    if reps[0]["attempted"] < 1:
        problems.append("no statement was attempted")
    return problems


def run_reps(workload, seed, seconds, traced):
    """Untraced repetitions until their timed windows add up to `seconds`.
    A traced run interleaves as many traced ones and stops at half that,
    so it takes about as long as an untraced run."""
    if traced:
        seconds /= 2
    plain, traced_reps = [], []
    start = time.monotonic()
    while True:
        plain.append(run_rep(workload, seed))
        if traced:
            traced_reps.append(run_rep(workload, seed, traced=True))
        measured = sum(r["window_wall_s"] for r in plain)
        elapsed = time.monotonic() - start
        per_round = elapsed / len(plain)
        if len(plain) >= MIN_REPS and (measured >= seconds or
                                       len(plain) >= MAX_REPS):
            break
        if len(plain) >= MIN_REPS and elapsed + per_round > RUN_BUDGET_S:
            log("run budget reached after %d repetitions" % len(plain))
            break
    return plain, traced_reps


def rtf(rep):
    return rep["window_sim_s"] / rep["window_wall_s"]


# The user-facing latency of each workload: statement latency where
# clients wait on statements, detection latency where they wait on events.
LATENCY_OF = {"select_storm": "stmt", "aq_churn": "stmt", "aq_monitor": "detect"}


def end_to_end(workload, reps):
    stmt = sorted(reps[0]["stmt_ms"])
    detect = sorted(reps[0]["detect_ms"])
    latency = stmt if LATENCY_OF[workload] == "stmt" else detect
    metrics = {
        "realtime_factor": (statistics.median(rtf(r) for r in reps),
                            "sim-s/wall-s"),
        "setup_s": (statistics.median(r["setup_s"] for r in reps), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps),
                        "MiB"),
        "latency_p50_ms": (percentile(latency, 50), "sim-ms"),
        "latency_p99_ms": (percentile(latency, 99), "sim-ms"),
    }
    return metrics, stmt, detect


def flatten(obj, prefix=""):
    out = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            out.update(flatten(v, prefix + k + "."))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out[prefix[:-1]] = obj
    return out


def per_layer(plain, traced_reps):
    rep = traced_reps[len(traced_reps) // 2]
    lay = rep["layers"]
    before, after = flatten(lay["stats_before"]), flatten(lay["stats_after"])
    window = {k: v - before.get(k, 0) for k, v in after.items()}

    def total(stats, pattern):
        rx = re.compile(pattern)
        return sum(v for k, v in stats.items() if rx.fullmatch(k))

    def ratio(a, b):
        return a / b if b else 0.0

    shards = r"shard\.\d+\."
    wall_s = rep["window_wall_s"]
    dispatched = window.get("admission.dispatched", 0)
    registered_w = total(window, shards + r"fragments\.registered")
    dropped_w = total(window, shards + r"fragments\.dropped")
    served_w = total(window, shards + "selects_served")
    rows_sent_w = total(window, shards + "rows_sent")
    msgs_w = total(window, shards + "results_msgs")
    registered_all = total(after, shards + r"fragments\.registered")
    aqs_all = after.get("shard.czar.aqs_registered", 0)
    probes = total(window, shards + r"eval\.index\.probes")
    candidates = total(window, shards + r"eval\.index\.candidates")
    entries = total(after, shards + r"eval\.index\.entries")
    hits = total(after, shards + r"broker\.agg_cache\.hits")
    misses = total(after, shards + r"broker\.agg_cache\.misses")
    issued = total(window, shards + r"scan_broker\.types\.\w+\.rpcs_issued")
    coalesced = total(window, shards + r"scan_broker\.types\.\w+\.rpcs_coalesced")
    batch_p99 = [v for k, v in after.items()
                 if re.fullmatch(shards + r"scan_broker\.batch_latency_ms\.p99", k)]

    costs = lay["replay"]
    # Calls the program made in the window, from its own counters: the
    # czar parses each dispatched statement and re-parses each SELECT at
    # merge time; every worker parses and compiles each fragment it gets.
    parses = dispatched + after.get("shard.czar.selects", 0) - before.get(
        "shard.czar.selects", 0) + registered_w + served_w
    compiles = registered_w + served_w
    fragments = registered_w + dropped_w + served_w
    share_server = ratio(lay["submit_wall_us"] * 1e-6, wall_s)
    share_query = ratio((costs["parse_us"] * parses +
                         costs["compile_us"] * compiles) * 1e-6, wall_s)
    # Rows cross the backplane as continuous bursts and as one-shot
    # replies; the benchmark counts the one-shot rows it received.
    rows_coded = rows_sent_w + lay["result_rows"]
    share_shard = ratio(costs["fragment_codec_us"] * fragments * 1e-6 +
                        costs["rows_codec_ns"] * rows_coded * 1e-9, wall_s)
    untraced_rtf = statistics.median(rtf(r) for r in plain)
    traced_rtf = statistics.median(rtf(r) for r in traced_reps)

    values = {
        "server.submit_us": ratio(lay["submit_wall_us"], lay["submit_calls"]),
        "server.admission_p99_ms": lay["admission_p99_ms"],
        "server.shed": window.get("admission.shed", 0),
        "server.rejected": window.get("admission.rejected", 0),
        "shard.fragments_registered": registered_all,
        "shard.register_amplification": ratio(registered_all, aqs_all * SHARDS),
        "shard.selects_served": served_w,
        "shard.partial_selects": window.get("shard.czar.partial_selects", 0),
        "shard.results_msgs": msgs_w,
        "shard.rows_per_msg": ratio(rows_sent_w, msgs_w),
        "shard.fragment_codec_us": costs["fragment_codec_us"],
        "shard.rows_codec_ns": costs["rows_codec_ns"],
        "query.parse_us": costs["parse_us"],
        "query.compile_us": costs["compile_us"],
        "eval.compiles_per_stmt": ratio(
            total(window, shards + r"eval\.programs_compiled"), dispatched),
        "eval.compiled_evals": total(window, shards + r"eval\.compiled_evals"),
        "eval.index.probes": probes,
        "eval.index.candidate_ratio": ratio(candidates, probes * entries / SHARDS),
        "eval.agg.tuples_evaluated": total(window, shards + r"eval\.agg\.tuples_evaluated"),
        "agg_cache.hit_ratio": ratio(hits, hits + misses),
        "broker.batches": total(window, shards + r"scan_broker\.types\.\w+\.batches"),
        "broker.rpcs_issued": issued,
        "broker.coalesce_ratio": ratio(coalesced, issued + coalesced),
        "broker.cache_hits": total(window, shards + r"scan_broker\.types\.\w+\.cache_hits"),
        "broker.read_failures": total(window, shards + r"scan_broker\.types\.\w+\.read_failures"),
        "broker.tuples_delivered": total(window, shards + r"scan_broker\.types\.\w+\.tuples_delivered"),
        "broker.batch_p99_ms": max(batch_p99, default=0.0),
        "net.messages": window.get("network.sent", 0) + total(window, shards + r"network\.sent"),
        "net.reliable.calls": window.get("net.reliable.calls", 0),
        "net.reliable.retries": window.get("net.reliable.retries", 0),
        "net.breaker_opens": window.get("net.reliable.breaker.opens", 0),
        "net.rpc_timeouts": total(window, r"shard\.czar\.peers\.\d+\.timeouts"),
        "runtime.windows": window.get("runtime.windows", 0),
        "runtime.cross_posts": total(window, r"runtime\.\d+\.posts_out"),
        "runtime.max_outbox_depth": max(
            (v for k, v in after.items()
             if re.fullmatch(r"runtime\.\d+\.max_outbox_depth", k)), default=0),
        "actions.outcomes": window.get("shard.czar.outcomes_received", 0),
        "health.quarantines": total(window, shards + r"health\.quarantines"),
        "obs.stats_json_ms": lay["stats_json_ms"],
        "obs.trace_overhead": 1.0 - ratio(traced_rtf, untraced_rtf),
        "host.server.est_share": share_server,
        "host.query.est_share": share_query,
        "host.shard.est_share": share_shard,
        "host.attributed_share": share_server + share_query + share_shard,
    }
    return {name: (float(values[name]), unit) for name, (unit, _) in LAYERS.items()}


def record_digest(workload, seed):
    rep = run_rep(workload, seed)
    if rep["violations"]:
        raise BenchError("refusing to record a digest that fails the oracle")
    try:
        with open(EXPECTED) as f:
            table = json.load(f)
    except FileNotFoundError:
        table = {}
    table.setdefault(workload, {})[str(seed)] = rep["digest"]
    with open(EXPECTED, "w") as f:
        json.dump(table, f, indent=2, sort_keys=True)
        f.write("\n")
    log("recorded %s seed %d: %s" % (workload, seed, rep["digest"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digest", action="store_true",
                    help="run once and store the digest as the seed's "
                         "committed expectation")
    args = ap.parse_args()

    try:
        build()
        if args.record_digest:
            record_digest(args.workload, args.seed)
            return 0
        plain, traced_reps = run_reps(args.workload, args.seed, args.seconds,
                                      args.trace == 1)
    except (BenchError, subprocess.SubprocessError, OSError,
            json.JSONDecodeError) as e:
        log("error: %s" % e)
        return 1

    problems = check(plain + traced_reps, args.workload, args.seed)
    for p in problems:
        log("CHECK FAILED: " + p)
    first = plain[0]
    counts = first["counts"]
    print("workload %s  seed %d  repetitions %d%s  digest %s" % (
        args.workload, args.seed, len(plain),
        " (+%d traced)" % len(traced_reps) if traced_reps else "",
        first["digest"]))
    print("counts: " + ", ".join("%s=%d" % kv for kv in sorted(counts.items())))
    fail_ratio = first["failed"] / first["attempted"] if first["attempted"] else 0.0
    print("window statements: attempted=%d failed=%d fail_ratio=%.4f [1]" % (
        first["attempted"], first["failed"], fail_ratio))

    metrics, stmt, detect = end_to_end(args.workload, plain)
    for name, samples in (("stmt", stmt), ("detect", detect)):
        if not samples:
            continue
        tail = tail_percentile(len(samples))
        print("%s latency: n=%d  p50=%.3f  p%s=%s sim-ms (highest percentile "
              "with >=10 samples beyond it)" % (
                  name, len(samples), percentile(samples, 50), tail,
                  "%.3f" % percentile(samples, tail) if tail else "n/a"))

    if args.trace == 0:
        report = metrics
        print("%-28s %16s  %s" % ("metric", "value", "unit"))
        for name, (value, unit) in report.items():
            print("%-28s %16.6g  %s" % (name, value, unit))
    else:
        report = per_layer(plain, traced_reps)
        print("%-30s %14s  %-8s  %s" % ("layer metric", "value", "unit",
                                         "-> end-to-end metric / workload"))
        for name, (value, unit) in report.items():
            print("%-30s %14.6g  %-8s  -> %s" % (name, value, unit,
                                                 LAYERS[name][1]))
        path = os.path.join(BUILD, "layers-%s-%d.json" % (args.workload,
                                                          args.seed))
        with open(path, "w") as f:
            json.dump({name: {"value": v, "unit": u, "moves": LAYERS[name][1]}
                       for name, (v, u) in report.items()}, f, indent=2)
            f.write("\n")
        print("layer report written to %s" % os.path.relpath(path, ROOT))

    print(json.dumps({
        "correct": not problems,
        "attempted": first["attempted"],
        "failed": first["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
