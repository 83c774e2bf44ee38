//! Allocation accounting for the plan cache hit path.
//!
//! This test binary installs a counting `#[global_allocator]` and asserts
//! that once a plan is cached, `PlanCache::plan_for_with_topology` performs
//! **zero** heap allocations: the key is hashed borrow-wise (no `String`
//! name, no owned key struct) and the lookup hits the interned `FastIdMap`
//! directly.
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

fn assert_hit_path_allocates_zero(mut sched: Box<dyn Scheduler>, label: &str) {
    let stream = WorkloadSpec::new(8, 64)
        .with_repeat_rate(0.5)
        .with_vectors(3)
        .with_seed(7)
        .generate();
    let cfg = MachineConfig::mi100_like(3);
    let opts = DriverOptions::default();

    let mut cache = PlanCache::new();
    // Miss: plans and stores (allocates freely — not under test).
    let digest = cache
        .plan_for_with_topology(&mut *sched, &stream, &cfg, opts, None)
        .expect("plans")
        .digest();
    assert_eq!(cache.misses(), 1);

    // Warm a second round so any lazy one-time setup is done.
    let _ = cache
        .plan_for_with_topology(&mut *sched, &stream, &cfg, opts, None)
        .expect("plans");
    assert_eq!(cache.hits(), 1);

    let before = alloc_count();
    let hit = cache
        .plan_for_with_topology(&mut *sched, &stream, &cfg, opts, None)
        .expect("plans");
    // Snapshot the counter before digest(): serializing the plan for the
    // comparison below allocates, the lookup itself must not.
    let allocs = alloc_count() - before;
    assert_eq!(
        hit.digest(),
        digest,
        "{label}: cache returned a different plan"
    );
    assert_eq!(
        allocs, 0,
        "{label}: PlanCache hit path allocated {allocs} times (expected 0)"
    );
    assert_eq!(cache.hits(), 2);
}

#[test]
fn plan_cache_hit_path_is_allocation_free() {
    // One #[test] so the two scheduler runs cannot interleave allocation
    // counts across harness threads.
    assert_hit_path_allocates_zero(Box::new(RoundRobinScheduler::new()), "round-robin");
    assert_hit_path_allocates_zero(
        Box::new(MiccoScheduler::new(ReuseBounds::new(0, 2, 0))),
        "micco",
    );
}
