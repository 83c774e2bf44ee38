//! Durable plan store benchmark with a machine-readable report.
//!
//! Appends N checksummed records to a fresh write-ahead log (two versions
//! per key, so compaction has something to fold), reopens the store to
//! measure recovery replay, compacts, and verifies a warm restart of the
//! plan-aware layer serves a previously decided plan from the log without
//! invoking the scheduler. Writes `BENCH_store.json`.
//!
//! Usage:
//!   bench_store [--records N] [--payload B] [--out PATH]
//!
//! Defaults are 50,000 records of 256 bytes; CI smoke runs use
//! `--records 5000`. Appends run unsynced (`StoreOptions::sync = false`)
//! so the numbers measure the log path, not the disk's fsync latency —
//! recovery semantics are identical either way.

use std::time::Instant;

use micco_core::{DurablePlanCache, MiccoScheduler, ReuseBounds, Session};
use micco_gpusim::MachineConfig;
use micco_store::{PlanStore, StoreOptions};
use micco_workload::WorkloadSpec;

struct Args {
    records: usize,
    payload: usize,
    out: String,
}

fn usage_error(msg: &str) -> ! {
    eprintln!("bench_store: {msg}");
    eprintln!("usage: bench_store [--records N] [--payload B] [--out PATH]");
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        records: 50_000,
        payload: 256,
        out: "BENCH_store.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| usage_error(&format!("{name} requires a value")))
        };
        let int = |name: &str, v: String| {
            v.parse()
                .unwrap_or_else(|_| usage_error(&format!("{name} expects an integer, got {v}")))
        };
        match flag.as_str() {
            "--records" => args.records = int("--records", value("--records")),
            "--payload" => args.payload = int("--payload", value("--payload")),
            "--out" => args.out = value("--out"),
            other => usage_error(&format!("unknown flag {other}")),
        }
    }
    if args.records == 0 || args.payload == 0 {
        usage_error("--records and --payload must be positive");
    }
    args
}

/// Deterministic pseudo-random payload for `key` (splitmix-style LCG).
fn payload_for(key: u64, len: usize) -> Vec<u8> {
    let mut x = key.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = parse_args();
    let dir = std::env::temp_dir().join(format!("micco-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = StoreOptions {
        sync: false,
        ..StoreOptions::default()
    };
    eprintln!(
        "bench_store: {} records x {} bytes (two versions per key)",
        args.records, args.payload
    );

    // append: every key written twice, newest wins on replay
    let mut store = PlanStore::open_with(&dir, options).expect("fresh store opens");
    let start = Instant::now();
    for round in 0..2u64 {
        for k in 0..args.records as u64 {
            let body = payload_for(k ^ (round << 32), args.payload);
            store.put(k, &body).expect("append succeeds");
        }
    }
    let append_secs = start.elapsed().as_secs_f64();
    let appended = 2 * args.records;
    let append_rate = appended as f64 / append_secs;
    let disk_before = store.stats().disk_bytes;
    drop(store);
    eprintln!("append: {append_secs:.3}s ({append_rate:.0} records/sec)");

    // recovery replay: reopen and verify the newest version of every key
    let start = Instant::now();
    let mut store = PlanStore::open_with(&dir, options).expect("reopen succeeds");
    let reopen_secs = start.elapsed().as_secs_f64();
    let replayed = store.recovery().records_loaded;
    let replay_rate = replayed as f64 / reopen_secs;
    assert_eq!(store.len(), args.records, "one live version per key");
    for k in [0u64, (args.records as u64) / 2, args.records as u64 - 1] {
        assert_eq!(
            store.get(k).expect("live record"),
            payload_for(k ^ (1 << 32), args.payload),
            "newest version wins"
        );
    }
    eprintln!("reopen: {reopen_secs:.3}s ({replay_rate:.0} records replayed/sec)");

    // compaction folds the superseded half away
    let start = Instant::now();
    let report = store.compact().expect("compact succeeds");
    let compact_secs = start.elapsed().as_secs_f64();
    let disk_after = store.stats().disk_bytes;
    assert_eq!(report.live_records, args.records);
    assert!(
        disk_after <= disk_before,
        "compaction never grows the store"
    );
    drop(store);
    eprintln!(
        "compact: {compact_secs:.3}s ({} -> {} bytes)",
        disk_before, disk_after
    );

    // warm restart through the plan-aware layer: decide once, reopen,
    // and the same request must come back as a log hit (no scheduling)
    let plan_dir = dir.join("plans");
    let stream = WorkloadSpec::new(8, 64)
        .with_vectors(2)
        .with_seed(7)
        .generate();
    let session = Session::new(MachineConfig::mi100_like(4));
    {
        let cache = DurablePlanCache::open(&plan_dir).expect("plan store opens");
        let mut sched = MiccoScheduler::new(ReuseBounds::new(0, 2, 0));
        session
            .plan_with_cache(&cache, &mut sched, &stream)
            .expect("cold plan");
        assert_eq!(cache.misses(), 1);
    }
    let cache = DurablePlanCache::open(&plan_dir).expect("plan store reopens");
    let mut sched = MiccoScheduler::new(ReuseBounds::new(0, 2, 0));
    session
        .plan_with_cache(&cache, &mut sched, &stream)
        .expect("warm plan");
    let warm_log_hit = cache.log_hits() == 1 && cache.misses() == 0;
    assert!(warm_log_hit, "warm restart must serve from the log");
    eprintln!("warm restart: log hit, scheduler not invoked");
    let _ = std::fs::remove_dir_all(&dir);

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"store\",\n",
            "  \"version\": 1,\n",
            "  \"records\": {records},\n",
            "  \"appended\": {appended},\n",
            "  \"payload_bytes\": {payload},\n",
            "  \"append_secs\": {append_secs},\n",
            "  \"append_records_per_sec\": {append_rate},\n",
            "  \"reopen_secs\": {reopen_secs},\n",
            "  \"replay_records_per_sec\": {replay_rate},\n",
            "  \"compact_secs\": {compact_secs},\n",
            "  \"disk_bytes_before_compact\": {disk_before},\n",
            "  \"disk_bytes_after_compact\": {disk_after},\n",
            "  \"warm_log_hit\": {warm_log_hit}\n",
            "}}\n"
        ),
        records = args.records,
        appended = appended,
        payload = args.payload,
        append_secs = json_f64(append_secs),
        append_rate = json_f64(append_rate),
        reopen_secs = json_f64(reopen_secs),
        replay_rate = json_f64(replay_rate),
        compact_secs = json_f64(compact_secs),
        disk_before = disk_before,
        disk_after = disk_after,
        warm_log_hit = warm_log_hit,
    );
    std::fs::write(&args.out, &json).expect("write report");
    eprintln!("wrote {}", args.out);
    print!("{json}");
}
