#!/usr/bin/env python3
"""Validate (and optionally regression-gate) a BENCH_*.json report.

Stdlib-only structural checks, dispatched on the report's `bench` field.

`bench: "planner"` (from `crates/bench/src/bin/bench_planner.rs`):

  bench               "planner"
  version             1
  tasks/gpus/stages   positive integers
  oversub             finite number >= 0 (device memory oversubscription;
                      0 or absent = none)
  scheduler           non-empty string
  digest              16 hex chars (the plan's FNV-1a content digest)
  evictions           non-negative integer, or null or absent (reports
                      from before the field existed)
  fast_secs           finite float > 0
  fast_tasks_per_sec  finite float > 0
  seed_secs           finite float > 0, or null (--skip-seed runs)
  seed_tasks_per_sec  ditto
  speedup             ditto; when present must equal seed_secs/fast_secs
  peak_rss_bytes      positive integer, or null (non-Linux)

`bench: "topology"` (from `crates/bench/src/bin/ext_topology.rs`):

  bench               "topology"
  version             1
  tasks/gpus          positive integers
  nvlink_gib_s        finite float > 0
  points              non-empty list of swept points, each with a positive
                      island size dividing gpus, a positive pcie_gib_s, a
                      non-empty scheduler, mode "routed" or "aware", a
                      positive finite elapsed_secs, and non-negative integer
                      cross_island_transfers / cross_island_bytes; every
                      routed point must have an aware twin and vice versa
  aware_improvements  NON-EMPTY list (topology-aware placement must win
                      somewhere) that exactly matches the points where
                      aware_bytes < routed_bytes

`bench: "store"` (from `crates/bench/src/bin/bench_store.rs`):

  bench                    "store"
  version                  1
  records/appended         positive integers, appended >= records
  payload_bytes            positive integer
  append_secs              finite float > 0
  append_records_per_sec   finite float > 0, == appended/append_secs (1%)
  reopen_secs              finite float > 0
  replay_records_per_sec   finite float > 0, == appended/reopen_secs (1%)
  compact_secs             finite float > 0
  disk_bytes_before_compact / disk_bytes_after_compact
                           positive integers, after <= before (compaction
                           never grows the store)
  warm_log_hit             must be true: a warm restart served a decided
                           plan from the log without invoking the scheduler

`bench: "serve"` (from `crates/bench/src/bin/bench_serve.rs`):

  bench                "serve"
  version              1
  pool_gpus            positive integer
  time_scale           finite float > 0
  mixes                list of >= 2 tenant mixes, each with a non-empty
                       name, a positive duration_secs, and a non-empty
                       tenants list; every tenant row carries a name, a
                       priority (high|normal|low), an integer weight >= 1,
                       submitted/completed/rejected/evicted/failed counts
                       that sum up (submitted = completed + rejected +
                       evicted + failed), p50_ms <= p99_ms (positive when
                       anything completed) and a non-negative jobs_per_sec
  isolation            the fair-share acceptance gate: ratio must equal
                       flooded_p99_ms / unloaded_p99_ms (1%) and stay
                       <= 2.0 — a flooding tenant cannot push the
                       high-priority tenant's p99 past 2x its unloaded
                       value
  warm_start           warm_hit must be true with log_hits >= 1 (the
                       restarted daemon served the plan from the durable
                       log); speedup must equal cold_plan_ms/warm_plan_ms
  throughput_jobs_per_sec  finite float > 0

With `--compare BASELINE.json` the current report additionally fails if
throughput dropped more than 20% below the baseline: planner reports
gate fast_tasks_per_sec (same tasks/gpus/oversub point required), serve
reports gate throughput_jobs_per_sec (same pool_gpus required). A planner
report also fails if its peak_rss_bytes exceeds the baseline's by more
than 25%; that check is skipped when either value is null.

Usage:
  check_bench_schema.py REPORT.json [REPORT2.json ...]
  check_bench_schema.py REPORT.json --compare BASELINE.json

Exit status is non-zero on the first malformed file or regression.
"""

import json
import math
import sys

MAX_REGRESSION = 0.20  # fail if fast throughput drops >20% vs baseline
MAX_RSS_GROWTH = 0.25  # fail if a planner's peak RSS grows >25% vs baseline


def fail(path, msg):
    print(f"{path}: {msg}", file=sys.stderr)
    sys.exit(1)


def require(cond, path, msg):
    if not cond:
        fail(path, msg)


def check_positive_number(report, path, key, nullable=False):
    v = report.get(key, "MISSING")
    if v is None and nullable:
        return None
    require(
        isinstance(v, (int, float)) and not isinstance(v, bool),
        path,
        f"'{key}' must be a number{' or null' if nullable else ''}, got {v!r}",
    )
    require(math.isfinite(v), path, f"'{key}' must be finite, got {v!r}")
    require(v > 0, path, f"'{key}' must be positive, got {v!r}")
    return v


def check_nonneg_int(obj, path, key, where=""):
    v = obj.get(key, "MISSING")
    require(
        isinstance(v, int) and not isinstance(v, bool) and v >= 0,
        path,
        f"{where}'{key}' must be a non-negative integer, got {v!r}",
    )
    return v


def check_topology(report, path):
    require(report.get("version") == 1, path, "'version' must be 1")
    for key in ("tasks", "gpus"):
        v = report.get(key)
        require(
            isinstance(v, int) and not isinstance(v, bool) and v > 0,
            path,
            f"'{key}' must be a positive integer, got {v!r}",
        )
    check_positive_number(report, path, "nvlink_gib_s")
    gpus = report["gpus"]

    points = report.get("points")
    require(
        isinstance(points, list) and points,
        path,
        f"'points' must be a non-empty list, got {points!r}",
    )
    by_key = {}
    for i, p in enumerate(points):
        where = f"points[{i}]: "
        require(isinstance(p, dict), path, f"{where}must be an object")
        island = p.get("island")
        require(
            isinstance(island, int) and 0 < island <= gpus and gpus % island == 0,
            path,
            f"{where}'island' must divide gpus ({gpus}), got {island!r}",
        )
        pcie = p.get("pcie_gib_s")
        require(
            isinstance(pcie, (int, float))
            and not isinstance(pcie, bool)
            and math.isfinite(pcie)
            and pcie > 0,
            path,
            f"{where}'pcie_gib_s' must be a positive finite number, got {pcie!r}",
        )
        sched = p.get("scheduler")
        require(
            isinstance(sched, str) and sched,
            path,
            f"{where}'scheduler' must be a non-empty string, got {sched!r}",
        )
        mode = p.get("mode")
        require(
            mode in ("routed", "aware"),
            path,
            f"{where}'mode' must be 'routed' or 'aware', got {mode!r}",
        )
        elapsed = p.get("elapsed_secs")
        require(
            isinstance(elapsed, (int, float))
            and not isinstance(elapsed, bool)
            and math.isfinite(elapsed)
            and elapsed > 0,
            path,
            f"{where}'elapsed_secs' must be a positive finite number, got {elapsed!r}",
        )
        check_nonneg_int(p, path, "cross_island_transfers", where)
        check_nonneg_int(p, path, "cross_island_bytes", where)
        key = (island, pcie, sched, mode)
        require(key not in by_key, path, f"{where}duplicate point {key!r}")
        by_key[key] = p

    # every routed point has an aware twin, and vice versa
    expected_improved = set()
    for (island, pcie, sched, mode), p in by_key.items():
        twin_mode = "aware" if mode == "routed" else "routed"
        twin = by_key.get((island, pcie, sched, twin_mode))
        require(
            twin is not None,
            path,
            f"point {(island, pcie, sched, mode)!r} has no '{twin_mode}' twin",
        )
        if mode == "routed" and twin["cross_island_bytes"] < p["cross_island_bytes"]:
            expected_improved.add((island, pcie, sched))

    improved = report.get("aware_improvements")
    require(
        isinstance(improved, list) and improved,
        path,
        "'aware_improvements' must be a non-empty list: topology-aware "
        "placement must reduce inter-island bytes on at least one swept config",
    )
    got_improved = set()
    for i, e in enumerate(improved):
        where = f"aware_improvements[{i}]: "
        require(isinstance(e, dict), path, f"{where}must be an object")
        key = (e.get("island"), e.get("pcie_gib_s"), e.get("scheduler"))
        routed = by_key.get((*key, "routed"))
        aware = by_key.get((*key, "aware"))
        require(
            routed is not None and aware is not None,
            path,
            f"{where}references unswept config {key!r}",
        )
        require(
            e.get("routed_bytes") == routed["cross_island_bytes"]
            and e.get("aware_bytes") == aware["cross_island_bytes"],
            path,
            f"{where}byte counts disagree with the swept points",
        )
        require(
            e["aware_bytes"] < e["routed_bytes"],
            path,
            f"{where}not an improvement: aware {e['aware_bytes']} >= "
            f"routed {e['routed_bytes']}",
        )
        got_improved.add(key)
    require(
        got_improved == expected_improved,
        path,
        "'aware_improvements' does not match the points where aware beat "
        f"routed (listed {sorted(got_improved)}, "
        f"computed {sorted(expected_improved)})",
    )
    return report


def check_store(report, path):
    require(report.get("version") == 1, path, "'version' must be 1")
    for key in ("records", "appended", "payload_bytes"):
        v = report.get(key)
        require(
            isinstance(v, int) and not isinstance(v, bool) and v > 0,
            path,
            f"'{key}' must be a positive integer, got {v!r}",
        )
    require(
        report["appended"] >= report["records"],
        path,
        f"'appended' ({report['appended']}) must be >= 'records' ({report['records']})",
    )
    append_secs = check_positive_number(report, path, "append_secs")
    append_rate = check_positive_number(report, path, "append_records_per_sec")
    reopen_secs = check_positive_number(report, path, "reopen_secs")
    replay_rate = check_positive_number(report, path, "replay_records_per_sec")
    check_positive_number(report, path, "compact_secs")
    for key in ("disk_bytes_before_compact", "disk_bytes_after_compact"):
        v = report.get(key)
        require(
            isinstance(v, int) and not isinstance(v, bool) and v > 0,
            path,
            f"'{key}' must be a positive integer, got {v!r}",
        )
    require(
        report["disk_bytes_after_compact"] <= report["disk_bytes_before_compact"],
        path,
        "compaction must never grow the store "
        f"({report['disk_bytes_before_compact']} -> {report['disk_bytes_after_compact']})",
    )
    require(
        report.get("warm_log_hit") is True,
        path,
        "'warm_log_hit' must be true: a warm restart must serve a decided "
        "plan from the log without invoking the scheduler",
    )
    for rate, secs, name in (
        (append_rate, append_secs, "append_records_per_sec"),
        (replay_rate, reopen_secs, "replay_records_per_sec"),
    ):
        expected = report["appended"] / secs
        require(
            abs(rate - expected) <= 0.01 * expected,
            path,
            f"'{name}' ({rate}) inconsistent with appended/secs ({expected:.1f})",
        )
    return report


ISOLATION_LIMIT = 2.0  # flooded p99 may not exceed 2x the unloaded p99


def check_serve(report, path):
    require(report.get("version") == 1, path, "'version' must be 1")
    v = report.get("pool_gpus")
    require(
        isinstance(v, int) and not isinstance(v, bool) and v > 0,
        path,
        f"'pool_gpus' must be a positive integer, got {v!r}",
    )
    check_positive_number(report, path, "time_scale")

    mixes = report.get("mixes")
    require(
        isinstance(mixes, list) and len(mixes) >= 2,
        path,
        f"'mixes' must be a list of at least 2 tenant mixes, got {mixes!r}",
    )
    tenant_names = set()
    for i, mix in enumerate(mixes):
        where = f"mixes[{i}]: "
        require(isinstance(mix, dict), path, f"{where}must be an object")
        name = mix.get("name")
        require(
            isinstance(name, str) and name,
            path,
            f"{where}'name' must be a non-empty string, got {name!r}",
        )
        dur = mix.get("duration_secs")
        require(
            isinstance(dur, (int, float))
            and not isinstance(dur, bool)
            and math.isfinite(dur)
            and dur > 0,
            path,
            f"{where}'duration_secs' must be a positive finite number, got {dur!r}",
        )
        tenants = mix.get("tenants")
        require(
            isinstance(tenants, list) and tenants,
            path,
            f"{where}'tenants' must be a non-empty list, got {tenants!r}",
        )
        for j, t in enumerate(tenants):
            twhere = f"mixes[{i}].tenants[{j}]: "
            require(isinstance(t, dict), path, f"{twhere}must be an object")
            tname = t.get("tenant")
            require(
                isinstance(tname, str) and tname,
                path,
                f"{twhere}'tenant' must be a non-empty string, got {tname!r}",
            )
            tenant_names.add(tname)
            prio = t.get("priority")
            require(
                prio in ("high", "normal", "low"),
                path,
                f"{twhere}'priority' must be high|normal|low, got {prio!r}",
            )
            w = t.get("weight")
            require(
                isinstance(w, int) and not isinstance(w, bool) and w >= 1,
                path,
                f"{twhere}'weight' must be an integer >= 1, got {w!r}",
            )
            counts = {
                k: check_nonneg_int(t, path, k, twhere)
                for k in ("submitted", "completed", "rejected", "evicted", "failed")
            }
            require(
                counts["submitted"] >= 1,
                path,
                f"{twhere}'submitted' must be at least 1",
            )
            settled = sum(v for k, v in counts.items() if k != "submitted")
            require(
                counts["submitted"] == settled,
                path,
                f"{twhere}counts do not settle: submitted {counts['submitted']} != "
                f"completed + rejected + evicted + failed ({settled})",
            )
            percentiles = {}
            for key in ("p50_ms", "p99_ms"):
                pv = t.get(key)
                require(
                    isinstance(pv, (int, float))
                    and not isinstance(pv, bool)
                    and math.isfinite(pv)
                    and pv >= 0,
                    path,
                    f"{twhere}'{key}' must be a non-negative finite number, got {pv!r}",
                )
                if counts["completed"] > 0:
                    require(pv > 0, path, f"{twhere}'{key}' must be positive when jobs completed")
                percentiles[key] = pv
            require(
                percentiles["p50_ms"] <= percentiles["p99_ms"],
                path,
                f"{twhere}p50_ms ({percentiles['p50_ms']}) exceeds p99_ms "
                f"({percentiles['p99_ms']})",
            )
            jps = t.get("jobs_per_sec")
            require(
                isinstance(jps, (int, float))
                and not isinstance(jps, bool)
                and math.isfinite(jps)
                and jps >= 0,
                path,
                f"{twhere}'jobs_per_sec' must be a non-negative finite number, got {jps!r}",
            )

    iso = report.get("isolation")
    require(isinstance(iso, dict), path, f"'isolation' must be an object, got {iso!r}")
    tname = iso.get("tenant")
    require(
        tname in tenant_names,
        path,
        f"isolation 'tenant' {tname!r} does not appear in any mix",
    )
    unloaded = check_positive_number(iso, path, "unloaded_p99_ms")
    flooded = check_positive_number(iso, path, "flooded_p99_ms")
    ratio = check_positive_number(iso, path, "ratio")
    expected = flooded / unloaded
    require(
        abs(ratio - expected) <= 0.01 * expected,
        path,
        f"isolation 'ratio' ({ratio}) inconsistent with flooded/unloaded ({expected:.3f})",
    )
    require(
        ratio <= ISOLATION_LIMIT,
        path,
        f"fair-share isolation failed: flooded p99 is {ratio:.2f}x the unloaded "
        f"p99 (limit {ISOLATION_LIMIT}x) — a flooding tenant starved the "
        "high-priority tenant",
    )

    warm = report.get("warm_start")
    require(isinstance(warm, dict), path, f"'warm_start' must be an object, got {warm!r}")
    cold_ms = check_positive_number(warm, path, "cold_plan_ms")
    warm_ms = check_positive_number(warm, path, "warm_plan_ms")
    hits = warm.get("log_hits")
    require(
        isinstance(hits, int) and not isinstance(hits, bool) and hits >= 1,
        path,
        f"warm_start 'log_hits' must be an integer >= 1, got {hits!r}",
    )
    require(
        warm.get("warm_hit") is True,
        path,
        "warm_start 'warm_hit' must be true: the restarted daemon must serve "
        "the plan from the durable log without re-planning",
    )
    speedup = check_positive_number(warm, path, "speedup")
    expected = cold_ms / warm_ms
    require(
        abs(speedup - expected) <= 0.01 * expected,
        path,
        f"warm_start 'speedup' ({speedup}) inconsistent with cold/warm ({expected:.3f})",
    )

    check_positive_number(report, path, "throughput_jobs_per_sec")
    return report


def check(path):
    with open(path) as f:
        report = json.load(f)
    require(isinstance(report, dict), path, "top level must be an object")
    bench = report.get("bench")
    if bench == "topology":
        return check_topology(report, path)
    if bench == "store":
        return check_store(report, path)
    if bench == "serve":
        return check_serve(report, path)
    require(
        bench == "planner",
        path,
        f"'bench' must be 'planner', 'topology', 'store' or 'serve', got {bench!r}",
    )
    require(report.get("version") == 1, path, "'version' must be 1")

    for key in ("tasks", "gpus", "stages"):
        v = report.get(key)
        require(
            isinstance(v, int) and not isinstance(v, bool) and v > 0,
            path,
            f"'{key}' must be a positive integer, got {v!r}",
        )

    oversub = report.setdefault("oversub", 0)
    require(
        isinstance(oversub, (int, float))
        and not isinstance(oversub, bool)
        and math.isfinite(oversub)
        and oversub >= 0,
        path,
        f"'oversub' must be a finite number >= 0, got {oversub!r}",
    )
    if report.setdefault("evictions", None) is not None:
        check_nonneg_int(report, path, "evictions")

    sched = report.get("scheduler")
    require(
        isinstance(sched, str) and sched,
        path,
        f"'scheduler' must be a non-empty string, got {sched!r}",
    )
    digest = report.get("digest")
    require(
        isinstance(digest, str)
        and len(digest) == 16
        and all(c in "0123456789abcdef" for c in digest),
        path,
        f"'digest' must be 16 lowercase hex chars, got {digest!r}",
    )

    fast_secs = check_positive_number(report, path, "fast_secs")
    fast_rate = check_positive_number(report, path, "fast_tasks_per_sec")
    seed_secs = check_positive_number(report, path, "seed_secs", nullable=True)
    seed_rate = check_positive_number(report, path, "seed_tasks_per_sec", nullable=True)
    speedup = check_positive_number(report, path, "speedup", nullable=True)
    rss = report.get("peak_rss_bytes", "MISSING")
    require(
        rss is None or (isinstance(rss, int) and not isinstance(rss, bool) and rss > 0),
        path,
        f"'peak_rss_bytes' must be a positive integer or null, got {rss!r}",
    )

    # seed fields are all-or-nothing, and speedup must be consistent
    seed_fields = [seed_secs, seed_rate, speedup]
    require(
        all(v is None for v in seed_fields) or all(v is not None for v in seed_fields),
        path,
        "seed_secs/seed_tasks_per_sec/speedup must all be null or all present",
    )
    if speedup is not None:
        expected = seed_secs / fast_secs
        require(
            abs(speedup - expected) <= 0.01 * expected,
            path,
            f"'speedup' ({speedup}) inconsistent with seed_secs/fast_secs ({expected:.3f})",
        )

    # rates must match their times (±1% for rounding)
    expected_rate = report["tasks"] / fast_secs
    require(
        abs(fast_rate - expected_rate) <= 0.01 * expected_rate,
        path,
        f"'fast_tasks_per_sec' ({fast_rate}) inconsistent with tasks/fast_secs "
        f"({expected_rate:.1f})",
    )
    return report


def compare_serve(current, cur_path, baseline, base_path):
    require(
        current["pool_gpus"] == baseline["pool_gpus"],
        cur_path,
        f"cannot compare: 'pool_gpus' differs from baseline "
        f"({current['pool_gpus']} vs {baseline['pool_gpus']})",
    )
    cur = current["throughput_jobs_per_sec"]
    base = baseline["throughput_jobs_per_sec"]
    ratio = cur / base
    print(f"serve throughput: {cur:.2f} jobs/sec vs baseline {base:.2f} ({ratio:.2f}x)")
    require(
        ratio >= 1.0 - MAX_REGRESSION,
        cur_path,
        f"serve throughput regressed {100 * (1 - ratio):.1f}% vs {base_path} "
        f"(limit {100 * MAX_REGRESSION:.0f}%)",
    )


def compare(current, cur_path, baseline, base_path):
    if current.get("bench") == "serve" and baseline.get("bench") == "serve":
        return compare_serve(current, cur_path, baseline, base_path)
    require(
        current.get("bench") == "planner" and baseline.get("bench") == "planner",
        cur_path,
        "--compare only applies to planner or serve reports",
    )
    for key in ("tasks", "gpus", "oversub"):
        require(
            current[key] == baseline[key],
            cur_path,
            f"cannot compare: '{key}' differs from baseline "
            f"({current[key]} vs {baseline[key]})",
        )
    cur = current["fast_tasks_per_sec"]
    base = baseline["fast_tasks_per_sec"]
    ratio = cur / base
    print(
        f"fast throughput: {cur:.0f} tasks/sec vs baseline {base:.0f} "
        f"({ratio:.2f}x)"
    )
    require(
        ratio >= 1.0 - MAX_REGRESSION,
        cur_path,
        f"planner throughput regressed {100 * (1 - ratio):.1f}% vs {base_path} "
        f"(limit {100 * MAX_REGRESSION:.0f}%)",
    )
    cur_rss = current.get("peak_rss_bytes")
    base_rss = baseline.get("peak_rss_bytes")
    if cur_rss is None or base_rss is None:
        print("peak RSS: not reported on both sides, gate skipped")
        return
    growth = cur_rss / base_rss
    print(
        f"peak RSS: {cur_rss / 2**20:.1f} MiB vs baseline "
        f"{base_rss / 2**20:.1f} MiB ({growth:.2f}x)"
    )
    require(
        growth <= 1.0 + MAX_RSS_GROWTH,
        cur_path,
        f"planner peak RSS grew {100 * (growth - 1):.1f}% vs {base_path} "
        f"(limit {100 * MAX_RSS_GROWTH:.0f}%)",
    )


def main(argv):
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0 if argv else 1
    if "--compare" in argv:
        i = argv.index("--compare")
        require(
            i == len(argv) - 2 and i == 1,
            "usage",
            "--compare takes exactly: REPORT.json --compare BASELINE.json",
        )
        current = check(argv[0])
        baseline = check(argv[2])
        compare(current, argv[0], baseline, argv[2])
    else:
        for path in argv:
            check(path)
            print(f"{path}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
