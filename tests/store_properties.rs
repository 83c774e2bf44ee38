//! Crash-consistency properties of the durable plan store (proptest):
//! for random record sets and random damage — truncation at an arbitrary
//! byte offset, or a single bit flip anywhere in a fragment — recovery
//! must serve exactly the verified clean prefix, never a damaged byte,
//! and replay bit-identically across reopens and compactions.

use proptest::prelude::*;

use micco::gpusim::MachineConfig;
use micco::sched::{DurablePlanCache, MiccoScheduler, PlanCache, ReuseBounds, Session};
use micco::store::fragment::encoded_len;
use micco::store::{PlanStore, StoreOptions, FILE_HEADER_LEN};
use micco::workload::WorkloadSpec;

/// Unsynced store options: recovery semantics are identical, the tests
/// just skip per-record fsyncs.
fn fast() -> StoreOptions {
    StoreOptions {
        sync: false,
        ..StoreOptions::default()
    }
}

/// A scratch directory unique to this test case.
fn scratch(tag: &str, case: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "micco-store-prop-{tag}-{}-{case:x}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Write `payloads` under keys `0..n` into a fresh store and return the
/// fragment path (everything fits one fragment at the default rotation
/// threshold).
fn write_records(dir: &std::path::Path, payloads: &[Vec<u8>]) -> std::path::PathBuf {
    let mut store = PlanStore::open_with(dir, fast()).expect("fresh store opens");
    for (i, p) in payloads.iter().enumerate() {
        store.put(i as u64, p).expect("append succeeds");
    }
    let frag = store.stats();
    assert_eq!(frag.fragments, 1, "one fragment at default rotation");
    let name = micco::store::Manifest::load(dir)
        .expect("manifest readable")
        .expect("manifest exists")
        .fragments[0]
        .clone();
    dir.join(name)
}

/// Byte offset of the start of record `i` within the fragment.
fn record_offset(payloads: &[Vec<u8>], i: usize) -> u64 {
    FILE_HEADER_LEN
        + payloads[..i]
            .iter()
            .map(|p| encoded_len(p.len()))
            .sum::<u64>()
}

/// Strategy: a handful of variably-sized payloads (including empty).
fn payloads_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..48), 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Truncating the fragment at any byte offset — a crash mid-append —
    /// leaves exactly the records that fit entirely before the cut
    /// servable, and nothing else. A second reopen replays identically.
    #[test]
    fn truncation_recovers_exactly_the_clean_prefix(
        payloads in payloads_strategy(),
        cut_frac in 0.0f64..=1.0,
        case in any::<u64>(),
    ) {
        let dir = scratch("trunc", case);
        let frag = write_records(&dir, &payloads);
        let file_len = std::fs::metadata(&frag).expect("fragment exists").len();
        let cut = (file_len as f64 * cut_frac) as u64;
        std::fs::OpenOptions::new()
            .write(true)
            .open(&frag)
            .expect("fragment writable")
            .set_len(cut)
            .expect("truncate");

        let store = PlanStore::open_with(&dir, fast()).expect("recovery never errors");
        for (i, p) in payloads.iter().enumerate() {
            let end = record_offset(&payloads, i) + encoded_len(p.len());
            if end <= cut {
                prop_assert_eq!(store.get(i as u64), Some(p.as_slice()),
                    "complete record {} before the cut is served", i);
            } else {
                prop_assert_eq!(store.get(i as u64), None,
                    "record {} crossing the cut is never served", i);
            }
        }
        let first: Vec<(u64, u64, Vec<u8>)> = store
            .records()
            .map(|(k, d, p)| (k, d, p.to_vec()))
            .collect();
        drop(store);
        let store = PlanStore::open_with(&dir, fast()).expect("second reopen");
        let second: Vec<(u64, u64, Vec<u8>)> = store
            .records()
            .map(|(k, d, p)| (k, d, p.to_vec()))
            .collect();
        prop_assert_eq!(first, second, "replay is bit-identical across reopens");
        prop_assert!(store.recovery().corrupt_regions_quarantined == 0,
            "a clean truncation is torn, not corrupt");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A single flipped bit anywhere in the fragment is caught by the
    /// CRC/digest/magic checks: every record from the damaged one onward
    /// is quarantined, everything before it is served byte-identically.
    #[test]
    fn bit_flip_never_serves_damaged_bytes(
        payloads in payloads_strategy(),
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
        case in any::<u64>(),
    ) {
        let dir = scratch("flip", case);
        let frag = write_records(&dir, &payloads);
        let mut bytes = std::fs::read(&frag).expect("fragment readable");
        let idx = (bytes.len() as f64 * pos_frac) as usize;
        let idx = idx.min(bytes.len() - 1);
        bytes[idx] ^= 1 << bit;
        std::fs::write(&frag, &bytes).expect("rewrite fragment");

        // the first record whose bytes contain the flip; a flip in the
        // file magic damages "record 0" for this purpose
        let damaged = (0..payloads.len())
            .find(|&i| {
                (idx as u64) < record_offset(&payloads, i) + encoded_len(payloads[i].len())
            })
            .unwrap_or(0);
        let store = PlanStore::open_with(&dir, fast()).expect("recovery never errors");
        for (i, p) in payloads.iter().enumerate() {
            if i < damaged && (idx as u64) >= FILE_HEADER_LEN {
                prop_assert_eq!(store.get(i as u64), Some(p.as_slice()),
                    "record {} before the damage is served intact", i);
            } else {
                prop_assert_eq!(store.get(i as u64), None,
                    "record {} at or after the damage is quarantined", i);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Rotation and compaction preserve every live record byte-for-byte:
    /// many tiny fragments, reopen, compact, reopen again — identical
    /// records every time, and later writes supersede earlier ones.
    #[test]
    fn rotation_and_compaction_replay_bit_identically(
        payloads in payloads_strategy(),
        rewrites in proptest::collection::vec((0u64..12, proptest::collection::vec(any::<u8>(), 0..32)), 0..6),
        case in any::<u64>(),
    ) {
        let dir = scratch("rotate", case);
        let tiny = StoreOptions { fragment_max_bytes: 64, sync: false };
        let mut expected: std::collections::BTreeMap<u64, Vec<u8>> = Default::default();
        let mut store = PlanStore::open_with(&dir, tiny).expect("fresh store");
        for (i, p) in payloads.iter().enumerate() {
            store.put(i as u64, p).expect("append");
            expected.insert(i as u64, p.clone());
        }
        for (k, p) in &rewrites {
            store.put(*k, p).expect("rewrite");
            expected.insert(*k, p.clone());
        }
        drop(store);

        let mut store = PlanStore::open_with(&dir, tiny).expect("reopen");
        let replayed: std::collections::BTreeMap<u64, Vec<u8>> = store
            .records()
            .map(|(k, _, p)| (k, p.to_vec()))
            .collect();
        prop_assert_eq!(&replayed, &expected, "replay matches every write, newest wins");
        store.compact().expect("compact");
        drop(store);
        let store = PlanStore::open_with(&dir, tiny).expect("reopen after compact");
        let compacted: std::collections::BTreeMap<u64, Vec<u8>> = store
            .records()
            .map(|(k, _, p)| (k, p.to_vec()))
            .collect();
        prop_assert_eq!(&compacted, &expected, "compaction loses nothing");
        prop_assert!(store.stats().fragments <= 1, "compaction folds to one snapshot");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// End to end through the plan-aware layer: persist real decided
    /// plans, flip a bit somewhere in the log, reopen — every lookup
    /// either serves a byte-identical plan or misses; a tampered record
    /// is never served, and replanning after damage still succeeds.
    #[test]
    fn damaged_plan_log_never_serves_a_tampered_plan(
        seeds in proptest::collection::vec(any::<u64>(), 1..4),
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
        case in any::<u64>(),
    ) {
        let dir = scratch("plans", case);
        let session = Session::new(MachineConfig::mi100_like(2));
        let mut originals = Vec::new();
        {
            let cache = DurablePlanCache::open(&dir).expect("fresh store");
            for seed in &seeds {
                let stream = WorkloadSpec::new(4, 32)
                    .with_vectors(1)
                    .with_seed(*seed)
                    .generate();
                let mut sched = MiccoScheduler::new(ReuseBounds::new(0, 2, 0));
                let key = PlanCache::key_for_with_topology(
                    &sched, &stream, session.config(), *session.options(), None,
                );
                let plan = session
                    .plan_with_cache(&cache, &mut sched, &stream)
                    .expect("planning succeeds")
                    .into_plan();
                originals.push((key, stream, plan));
            }
        }
        // flip one bit in the first fragment
        let name = micco::store::Manifest::load(&dir)
            .expect("manifest readable")
            .expect("manifest exists")
            .fragments[0]
            .clone();
        let frag = dir.join(name);
        let mut bytes = std::fs::read(&frag).expect("fragment readable");
        let idx = ((bytes.len() as f64 * pos_frac) as usize).min(bytes.len() - 1);
        bytes[idx] ^= 1 << bit;
        std::fs::write(&frag, &bytes).expect("rewrite fragment");

        let cache = DurablePlanCache::open(&dir).expect("recovery never errors");
        for (key, _, plan) in &originals {
            // None means quarantined or rejected, which is correct for damage
            if let Some(served) = cache.lookup(*key) {
                prop_assert_eq!(
                    served.to_text(),
                    plan.to_text(),
                    "a served plan is byte-identical to what was decided"
                );
            }
        }
        // replanning the damaged requests still works and re-persists
        for (key, stream, plan) in &originals {
            let mut sched = MiccoScheduler::new(ReuseBounds::new(0, 2, 0));
            let replanned = session
                .plan_with_cache(&cache, &mut sched, stream)
                .expect("replanning after damage succeeds");
            prop_assert_eq!(replanned.plan().fingerprint, plan.fingerprint,
                "replanned plan matches the original decision");
            prop_assert!(cache.lookup(*key).is_some(), "servable again");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
