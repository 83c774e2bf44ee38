#!/usr/bin/env python3
"""Validate a scraped micco-serve /metrics snapshot. Stdlib only.

The daemon's `/metrics` endpoint renders `name value` lines (counters
first, then gauges). After an e2e run has drained — every submitted job
reached a terminal state — the snapshot must satisfy:

  - `serve.submitted` >= 1: the load generator reached the daemon
  - accounting closes: serve.submitted == serve.completed + serve.failed
    + serve.canceled + serve.preempted  (queue/memory rejections never
    become jobs, so they are *not* part of this sum)
  - the pool is quiet: serve.running == 0, serve.queue_depth == 0, and
    serve.free_gpus == serve.pool_gpus
  - per-tenant accounting closes the same way for every tenant named
    with --tenant (tenant.<name>.submitted counts only admitted jobs)
  - with --require-completed N: serve.completed >= N
  - with --require-warm: plan_cache.log_hits + plan_cache.mem_hits >= 1
    (the shared store served at least one plan without re-planning)
  - with --expect-misses N: plan_cache.misses == N (the scheduler ran
    exactly N times), and the plan cache closes over the completed jobs:
    plan_cache.mem_hits + plan_cache.log_hits + plan_cache.misses ==
    serve.completed (each job counts its own lookup once; this holds
    only when no job failed or was canceled after planning)

Usage:
  check_serve_metrics.py METRICS.txt [--tenant NAME ...]
                         [--require-completed N] [--require-warm]
                         [--expect-misses N]

Reads stdin when METRICS.txt is `-`. Exit status is non-zero on the
first violation.
"""

import sys


def fail(msg):
    print(f"metrics: {msg}", file=sys.stderr)
    sys.exit(1)


def parse(text):
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        parts = line.rsplit(None, 1)
        if len(parts) != 2:
            fail(f"line {lineno}: expected 'name value', got {line!r}")
        name, raw = parts
        try:
            values[name] = float(raw)
        except ValueError:
            fail(f"line {lineno}: value of {name!r} is not a number: {raw!r}")
    return values


def get(values, name, default=None):
    if name in values:
        return values[name]
    if default is not None:
        return default
    fail(f"required metric {name!r} is missing")


def main(argv):
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0 if argv else 1

    path = argv[0]
    tenants = []
    require_completed = 0
    require_warm = False
    expect_misses = None
    i = 1
    while i < len(argv):
        if argv[i] == "--tenant" and i + 1 < len(argv):
            tenants.append(argv[i + 1])
            i += 2
        elif argv[i] == "--require-completed" and i + 1 < len(argv):
            require_completed = int(argv[i + 1])
            i += 2
        elif argv[i] == "--require-warm":
            require_warm = True
            i += 1
        elif argv[i] == "--expect-misses" and i + 1 < len(argv):
            expect_misses = int(argv[i + 1])
            i += 2
        else:
            fail(f"unknown argument {argv[i]!r}")

    text = sys.stdin.read() if path == "-" else open(path).read()
    values = parse(text)
    if not values:
        fail("empty snapshot")

    submitted = get(values, "serve.submitted")
    if submitted < 1:
        fail(f"serve.submitted must be >= 1, got {submitted}")
    settled = sum(
        get(values, f"serve.{k}", default=0.0)
        for k in ("completed", "failed", "canceled", "preempted")
    )
    if submitted != settled:
        fail(
            f"accounting does not close: serve.submitted {submitted:.0f} != "
            f"completed + failed + canceled + preempted ({settled:.0f})"
        )

    running = get(values, "serve.running", default=0.0)
    depth = get(values, "serve.queue_depth", default=0.0)
    if running != 0 or depth != 0:
        fail(f"pool not drained: running {running:.0f}, queue_depth {depth:.0f}")
    pool = get(values, "serve.pool_gpus")
    free = get(values, "serve.free_gpus")
    if free != pool:
        fail(f"GPUs leaked: free_gpus {free:.0f} != pool_gpus {pool:.0f}")

    for tenant in tenants:
        t_submitted = get(values, f"tenant.{tenant}.submitted")
        t_settled = sum(
            get(values, f"tenant.{tenant}.{k}", default=0.0)
            for k in ("completed", "failed", "canceled", "preempted")
        )
        if t_submitted != t_settled:
            fail(
                f"tenant {tenant!r} accounting does not close: submitted "
                f"{t_submitted:.0f} != settled {t_settled:.0f}"
            )

    completed = get(values, "serve.completed", default=0.0)
    if completed < require_completed:
        fail(f"serve.completed {completed:.0f} < required {require_completed}")

    if require_warm:
        warm = values.get("plan_cache.log_hits", 0.0) + values.get(
            "plan_cache.mem_hits", 0.0
        )
        if warm < 1:
            fail("no warm starts: plan_cache.log_hits + mem_hits < 1")

    if expect_misses is not None:
        misses = get(values, "plan_cache.misses")
        if misses != expect_misses:
            fail(f"plan_cache.misses {misses:.0f} != expected {expect_misses}")
        lookups = (
            get(values, "plan_cache.mem_hits")
            + get(values, "plan_cache.log_hits")
            + misses
        )
        if lookups != completed:
            fail(
                f"plan cache does not close: mem_hits + log_hits + misses "
                f"({lookups:.0f}) != serve.completed ({completed:.0f})"
            )

    print(
        f"metrics ok: {submitted:.0f} submitted, {completed:.0f} completed, "
        f"pool {pool:.0f} GPUs idle"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
