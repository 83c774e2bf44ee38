//! Allocation accounting for the plan-cache key.
//!
//! This test binary installs a counting `#[global_allocator]` and asserts
//! that hashing a fresh stream's fingerprint performs **zero** heap
//! allocations, and so does `PlanCache::key_for_with_topology` on a stream
//! that has cached its fingerprint: the scheduler name is hashed
//! borrow-wise through `Scheduler::write_name` (no `String` name, no owned
//! key struct). Every `DurablePlanCache` request derives its key before it
//! probes the cache.
//!
//! Kept in its own integration-test binary because a global allocator is
//! process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

use micco_core::{
    DriverOptions, MiccoScheduler, PlanCache, ReuseBounds, RoundRobinScheduler, Scheduler,
};
use micco_gpusim::MachineConfig;
use micco_workload::WorkloadSpec;

fn assert_key_allocates_zero(sched: &dyn Scheduler, label: &str) {
    let stream = WorkloadSpec::new(8, 64)
        .with_repeat_rate(0.5)
        .with_vectors(3)
        .with_seed(7)
        .generate();
    let cfg = MachineConfig::mi100_like(3);
    let opts = DriverOptions::default().with_measure_overhead();

    // Hashing the fresh stream allocates nothing either: its words go
    // straight into the hash's lanes.
    let before = alloc_count();
    let fingerprint = stream.fingerprint();
    let allocs = alloc_count() - before;
    assert_eq!(
        allocs, 0,
        "{label}: fingerprinting a fresh stream allocated {allocs} times (expected 0)"
    );
    assert_eq!(stream.fingerprint(), fingerprint);

    // The first key of the stream is not under test.
    let key = PlanCache::key_for_with_topology(sched, &stream, &cfg, opts, None);

    let before = alloc_count();
    let again = PlanCache::key_for_with_topology(sched, &stream, &cfg, opts, None);
    let allocs = alloc_count() - before;
    assert_eq!(again, key, "{label}: the key is deterministic");
    assert_eq!(
        allocs, 0,
        "{label}: deriving a cached stream's plan key allocated {allocs} times (expected 0)"
    );
}

#[test]
fn plan_cache_key_is_allocation_free() {
    // One #[test] so the two scheduler runs cannot interleave allocation
    // counts across harness threads.
    assert_key_allocates_zero(&RoundRobinScheduler::new(), "round-robin");
    assert_key_allocates_zero(&MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), "micco");
}
