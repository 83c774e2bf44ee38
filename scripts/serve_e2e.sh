#!/usr/bin/env bash
# Multi-tenant serving end-to-end: daemon up -> tenant mix through the
# load generator -> /metrics scrape -> stdlib-only invariant checks.
#
# Starts `micco serve` on a durable store with a high-priority and a
# low-priority tenant declared, floods it with an open-loop mix via
# `micco load` (every submission uses the same SessionConfig, so repeat
# jobs must warm-start from the shared plan cache), then scrapes
# /metrics and asserts the accounting closes, the pool drained, at least
# one plan was served without re-planning, and the plan cache decided
# that one config exactly once (every other job was a hit).
#
# Usage:
#   scripts/serve_e2e.sh [PORT]     # default 7071
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${1:-7071}"
ADDR="127.0.0.1:$PORT"
STORE=$(mktemp -d -t micco-serve-e2e-XXXXXX)
trap 'kill $SERVE_PID 2>/dev/null || true; rm -rf "$STORE"' EXIT

echo "== building micco (release) =="
cargo build --release -q -p micco-cli --bin micco

echo "== starting daemon on $ADDR =="
./target/release/micco serve --addr "$ADDR" --pool-gpus 4 \
  --store "$STORE" --time-scale 20 \
  --tenants prio:high:2,flood:low --max-runtime-secs 120 &
SERVE_PID=$!

# poll /healthz (stdlib urllib; no curl dependency)
python3 - "$ADDR" <<'EOF'
import sys, time, urllib.request
addr = sys.argv[1]
for _ in range(50):
    try:
        with urllib.request.urlopen(f"http://{addr}/healthz", timeout=1) as r:
            if r.status == 200:
                sys.exit(0)
    except OSError:
        time.sleep(0.1)
sys.exit("daemon never became healthy")
EOF

echo "== driving the tenant mix =="
./target/release/micco load --addr "$ADDR" --duration 2 --drain 60 \
  --jobs-per-sec 4 --tenants prio:high,flood:low:20 \
  --vector-size 6 --tensor-size 32 --vectors 2 --gpus 2

echo "== scraping /metrics =="
python3 - "$ADDR" > serve-metrics.txt <<'EOF'
import sys, urllib.request
addr = sys.argv[1]
with urllib.request.urlopen(f"http://{addr}/metrics", timeout=5) as r:
    sys.stdout.write(r.read().decode())
EOF
cat serve-metrics.txt

echo "== checking invariants =="
python3 scripts/check_serve_metrics.py serve-metrics.txt \
  --tenant prio --tenant flood --require-completed 1 --require-warm \
  --expect-misses 1

kill $SERVE_PID 2>/dev/null || true
echo "ok: serve e2e"
