//! What a finished job costs the daemon in heap memory.
//!
//! The daemon keeps every job's record for its whole lifetime, so the
//! bytes a finished job leaves behind are what a long-running daemon
//! grows by per job. This test binary installs a counting
//! `#[global_allocator]` that tracks live heap bytes, runs tiny jobs
//! through an in-process daemon, and bounds the growth per job.
//!
//! Kept in its own integration-test binary because a global allocator is
//! process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Duration;

use micco_core::SessionConfig;
use micco_serve::{JobState, ServeConfig, Service};

struct CountingAlloc;

static LIVE: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Live heap bytes a finished job may leave behind: its record, with a
/// short tenant name and the plan's scheduler name, and its share of the
/// job table's spare capacity.
const MAX_BYTES_PER_JOB: i64 = 512;

fn run_jobs(service: &Service, n: usize) {
    let config = SessionConfig {
        vector_size: 4,
        tensor_size: 32,
        vectors: 1,
        gpus: 2,
        ..SessionConfig::default()
    };
    let shared = service.scheduling();
    for _ in 0..n {
        let id = shared.submit("t", None, config.clone()).expect("admitted");
        let job = shared
            .wait_job(id, Duration::from_secs(30))
            .expect("job settles");
        assert_eq!(job.state, JobState::Done, "{:?}", job.error);
    }
}

#[test]
fn a_finished_job_costs_the_daemon_at_most_512_heap_bytes() {
    let service = Service::start(
        "127.0.0.1:0",
        ServeConfig {
            pool_gpus: 2,
            ..ServeConfig::default()
        },
    )
    .expect("daemon starts");
    // warm-up: first-use allocations (metric names, tenant state, lazy
    // statics) are paid once, not per job
    run_jobs(&service, 100);
    let before = LIVE.load(Ordering::Relaxed);
    const MEASURED: usize = 500;
    run_jobs(&service, MEASURED);
    let per_job = (LIVE.load(Ordering::Relaxed) - before) / MEASURED as i64;
    service.shutdown();
    assert!(
        per_job <= MAX_BYTES_PER_JOB,
        "each finished job keeps {per_job} live heap bytes (limit {MAX_BYTES_PER_JOB})"
    );
}
