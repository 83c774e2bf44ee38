//! End-to-end telemetry acceptance tests over the facade crate:
//!
//! 1. A golden Perfetto-JSON fixture pins the exporter's output for the
//!    checked-in golden workload/plan pair (regenerate with
//!    `MICCO_BLESS=1 cargo test --test telemetry`), and the reader gives
//!    it back byte for byte after a re-export.
//! 2. Property tests: traced runs produce well-nested spans
//!    (run ⊇ stages ⊇ device activity) and per-lane non-overlap, and the
//!    trace reader survives hostile bytes: flipped, dropped, duplicated
//!    and spliced bytes of the golden fixture and of a generated trace
//!    give a typed error or events that survive their own round trip.
//! 3. Acceptance: per-GPU compute/copy span sums reconcile with the
//!    simulator's busy/copy accounting on the sim backend, and per-worker
//!    compute span sums reconcile with `per_worker_busy_secs` on the real
//!    backend.
//! 4. The two canonical exec entry points (`execute_assignments`,
//!    `execute_plan`) produce bit-identical checksums for the same
//!    placement, with and without work stealing.

use std::sync::Arc;

use proptest::prelude::*;

use micco::exec::{execute_assignments, ExecOptions, TensorShape, TensorStore};
use micco::gpusim::MachineConfig;
use micco::obs::{
    from_perfetto_json, reconcile_with_stats, span_track_totals, to_perfetto_json, Recorder,
    TraceEvent, Track, CONTROL_PID,
};
use micco::sched::{
    MiccoScheduler, ReuseBounds, RoundRobinScheduler, SchedulePlan, ScheduleReport, Session,
};
use micco::workload::WorkloadSpec;

/// Run `spec` through a traced [`Session`] and hand back the recorder and
/// report.
fn traced_run(spec: &WorkloadSpec, gpus: usize, overlap: bool) -> (Arc<Recorder>, ScheduleReport) {
    let stream = spec.generate();
    let recorder = Recorder::shared();
    let report = Session::new(MachineConfig::mi100_like(gpus))
        .overlap(overlap)
        .trace(recorder.clone())
        .run(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
        .expect("workload fits the machine");
    (recorder, report)
}

/// All `(pid, track)` spans as `(start_us, end_us)` intervals.
fn lane_intervals(events: &[TraceEvent]) -> Vec<((u32, Track), (f64, f64))> {
    events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Span {
                pid,
                track,
                start_us,
                dur_us,
                ..
            } => Some(((*pid, *track), (*start_us, start_us + dur_us))),
            _ => None,
        })
        .collect()
}

/// The single run-track span's `(start_us, end_us)`.
fn run_span(events: &[TraceEvent]) -> (f64, f64) {
    let runs: Vec<(f64, f64)> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Span {
                pid: CONTROL_PID,
                track: Track::Run,
                start_us,
                dur_us,
                ..
            } => Some((*start_us, start_us + dur_us)),
            _ => None,
        })
        .collect();
    assert_eq!(runs.len(), 1, "exactly one run span per session");
    runs[0]
}

#[test]
fn golden_perfetto_trace_is_stable() {
    let root = env!("CARGO_MANIFEST_DIR");
    let wl = std::fs::read_to_string(format!("{root}/tests/fixtures/golden_workload.txt"))
        .expect("golden workload fixture");
    let stream = micco::workload::from_text(&wl).expect("fixture parses");
    let plan_text = std::fs::read_to_string(format!("{root}/tests/fixtures/golden_plan.txt"))
        .expect("golden plan fixture");
    let plan = SchedulePlan::from_text(&plan_text).expect("fixture parses");

    let recorder = Recorder::shared();
    // default options: overhead timing off, so the export is a pure
    // function of the (deterministic) simulated timeline
    Session::new(MachineConfig::mi100_like(plan.num_gpus))
        .trace(recorder.clone())
        .replay(&plan, &stream)
        .expect("fixture plan replays");
    let json = recorder.to_perfetto_json();

    let path = format!("{root}/tests/fixtures/golden_trace.json");
    if std::env::var_os("MICCO_BLESS").is_some() {
        std::fs::write(&path, &json).expect("write golden trace");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden trace fixture (regenerate with MICCO_BLESS=1)");
    assert_eq!(
        json, golden,
        "perfetto export drifted from tests/fixtures/golden_trace.json; \
         regenerate with MICCO_BLESS=1 if the change is intentional"
    );
}

fn golden_trace() -> String {
    let root = env!("CARGO_MANIFEST_DIR");
    std::fs::read_to_string(format!("{root}/tests/fixtures/golden_trace.json"))
        .expect("golden trace fixture")
}

/// The reader inverts the exporter on the fixture: reading it and
/// exporting again gives the same bytes.
#[test]
fn golden_trace_reads_back_and_reexports_byte_for_byte() {
    let golden = golden_trace();
    let events = from_perfetto_json(&golden).expect("the fixture reads back");
    assert!(events.iter().any(|e| matches!(e, TraceEvent::Flow { .. })));
    assert_eq!(to_perfetto_json(&events), golden);
}

/// `events` without their process labels, which the export rewrites as
/// one label per used pid ahead of everything else.
fn without_labels(events: &[TraceEvent]) -> Vec<TraceEvent> {
    events
        .iter()
        .filter(|e| !matches!(e, TraceEvent::ProcessLabel { .. }))
        .cloned()
        .collect()
}

/// Apply one edit `(kind, at, what, len)` to `bytes`. Kinds 0–3 edit
/// bytes: flip a bit, drop a run, duplicate a run in place, or splice a
/// copy of a run in elsewhere. Kinds 4–6 drop, duplicate or splice whole
/// lines (the export writes one event per line), which keeps the JSON
/// intact more often and so reaches the reader's own checks. Positions
/// wrap around the current length.
fn mutate(bytes: &mut Vec<u8>, (kind, at, what, len): (u8, u64, u64, usize)) {
    let n = bytes.len();
    if n == 0 {
        return;
    }
    let (at, end, to) = if kind < 4 {
        let at = (at % n as u64) as usize;
        (at, (at + len).min(n), (what % (n as u64 + 1)) as usize)
    } else {
        let starts: Vec<usize> = std::iter::once(0)
            .chain((0..n).filter(|&i| bytes[i] == b'\n').map(|i| i + 1))
            .collect();
        let first = (at % starts.len() as u64) as usize;
        let end = starts.get(first + 1 + len % 3).copied().unwrap_or(n);
        let to = starts[(what % starts.len() as u64) as usize];
        (starts[first], end, to)
    };
    match kind {
        0 => bytes[at] ^= 1 << (what % 8),
        1 | 4 => {
            bytes.drain(at..end);
        }
        2 | 5 => {
            let run = bytes[at..end].to_vec();
            bytes.splice(end..end, run);
        }
        _ => {
            let run = bytes[at..end].to_vec();
            bytes.splice(to..to, run);
        }
    }
}

#[test]
fn sim_session_spans_reconcile_with_gpu_stats() {
    for overlap in [false, true] {
        let spec = WorkloadSpec::new(10, 96)
            .with_repeat_rate(0.6)
            .with_vectors(3)
            .with_seed(11);
        let (recorder, report) = traced_run(&spec, 4, overlap);
        let events = recorder.events();
        // the acceptance criterion: per-GPU compute/copy span sums equal
        // the simulator's busy/copy totals
        reconcile_with_stats(&events, &report.stats, 1e-9)
            .unwrap_or_else(|e| panic!("overlap={overlap}: {e}"));
        // and the run span covers the report's elapsed time
        let (start, end) = run_span(&events);
        assert!(start.abs() < 1e-9);
        assert!((end / 1e6 - report.elapsed_secs()).abs() < 1e-9);
    }
}

#[test]
fn real_exec_spans_reconcile_with_busy_secs() {
    const SHAPE: TensorShape = TensorShape { batch: 2, dim: 16 };
    let stream = WorkloadSpec::new(6, SHAPE.dim)
        .with_batch(SHAPE.batch)
        .with_repeat_rate(0.5)
        .with_vectors(2)
        .with_seed(9)
        .generate();
    let workers = 2;
    let report = Session::new(MachineConfig::mi100_like(workers))
        .run(&mut RoundRobinScheduler::new(), &stream)
        .expect("workload fits");
    let recorder = Recorder::shared();
    let store = TensorStore::new(SHAPE.batch, SHAPE.dim, 9);
    let opts = ExecOptions::default().with_trace(recorder.clone());
    let out = execute_assignments(&stream, &report.assignments, workers, &store, &opts)
        .expect("execution succeeds");
    let totals = span_track_totals(&recorder.events());
    for (w, &busy) in out.per_worker_busy_secs.iter().enumerate() {
        let spans = totals
            .get(&(w as u32, Track::Compute))
            .copied()
            .unwrap_or(0.0);
        assert!(
            (spans - busy).abs() < 1e-9,
            "worker {w}: compute spans sum to {spans} s, busy accounting says {busy} s"
        );
    }
}

#[test]
fn canonical_entry_points_checksum_match_across_the_unified_api() {
    use micco::exec::execute_plan;

    const SHAPE: TensorShape = TensorShape { batch: 2, dim: 12 };
    let stream = WorkloadSpec::new(5, SHAPE.dim)
        .with_batch(SHAPE.batch)
        .with_repeat_rate(0.4)
        .with_vectors(2)
        .with_seed(31)
        .generate();
    let workers = 2;
    let cfg = MachineConfig::mi100_like(workers);
    let report = Session::new(cfg)
        .run(&mut RoundRobinScheduler::new(), &stream)
        .expect("workload fits");
    let store = TensorStore::new(SHAPE.batch, SHAPE.dim, 31);

    // the two canonical entries — assignment slice and plan IR — are one
    // engine: their checksums pin to each other for the same placement
    let via_assignments = execute_assignments(
        &stream,
        &report.assignments,
        workers,
        &store,
        &ExecOptions::default(),
    )
    .expect("assignment entry runs");
    let with_steal = execute_assignments(
        &stream,
        &report.assignments,
        workers,
        &store,
        &ExecOptions::default().with_steal(),
    )
    .expect("steal mode runs");
    assert_eq!(
        via_assignments.checksum, with_steal.checksum,
        "work stealing changed the result"
    );

    let plan = Session::new(cfg)
        .plan(&mut RoundRobinScheduler::new(), &stream)
        .expect("plan decides")
        .into_plan();
    let via_plan =
        execute_plan(&stream, &plan, &store, &ExecOptions::default()).expect("plan entry runs");
    assert_eq!(
        via_assignments.checksum, via_plan.checksum,
        "plan vs assignments drifted"
    );
    let again =
        execute_plan(&stream, &plan, &store, &ExecOptions::default()).expect("plan entry reruns");
    assert_eq!(via_plan.checksum, again.checksum, "nondeterministic rerun");
}

/// Strategy: a modest random workload.
fn spec_strategy() -> impl Strategy<Value = WorkloadSpec> {
    (
        1usize..10,   // pairs per stage
        0.0f64..=1.0, // repeat rate
        1usize..4,    // stages
        any::<u64>(), // seed
    )
        .prop_map(|(vs, rate, nv, seed)| {
            WorkloadSpec::new(vs, 64)
                .with_repeat_rate(rate)
                .with_vectors(nv)
                .with_seed(seed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Spans are well-nested: the run span contains every stage span and
    /// every device span, and stage spans tile the run span contiguously.
    #[test]
    fn traced_spans_are_well_nested(
        spec in spec_strategy(),
        gpus in 1usize..4,
        overlap in any::<bool>(),
    ) {
        let (recorder, report) = traced_run(&spec, gpus, overlap);
        let events = recorder.events();
        let (run_start, run_end) = run_span(&events);
        let tol = 1e-6; // µs-scale float noise

        let mut stages: Vec<(f64, f64)> = Vec::new();
        for ((pid, track), (s, e)) in lane_intervals(&events) {
            prop_assert!(s >= run_start - tol && e <= run_end + tol,
                "span [{s}, {e}] escapes the run span [{run_start}, {run_end}]");
            if pid == CONTROL_PID && track == Track::Control {
                stages.push((s, e));
            }
        }
        // stage spans tile [0, elapsed] in order, without gaps or overlap
        prop_assert_eq!(stages.len(), spec.num_vectors);
        let mut cursor = 0.0f64;
        for (s, e) in stages {
            prop_assert!((s - cursor).abs() < tol, "stage starts at {s}, expected {cursor}");
            prop_assert!(e >= s - tol);
            cursor = e;
        }
        prop_assert!((cursor - report.elapsed_secs() * 1e6).abs() < tol);
    }

    /// Within one `(pid, track)` lane, spans never overlap — each device
    /// does one thing at a time per engine.
    #[test]
    fn device_lanes_never_overlap(
        spec in spec_strategy(),
        gpus in 1usize..4,
        overlap in any::<bool>(),
    ) {
        let (recorder, _) = traced_run(&spec, gpus, overlap);
        let mut lanes: std::collections::BTreeMap<(u32, Track), Vec<(f64, f64)>> =
            std::collections::BTreeMap::new();
        for (lane, iv) in lane_intervals(&recorder.events()) {
            lanes.entry(lane).or_default().push(iv);
        }
        for ((pid, track), mut spans) in lanes {
            if pid == CONTROL_PID {
                continue; // control/run lanes checked by the nesting test
            }
            spans.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in spans.windows(2) {
                prop_assert!(
                    w[1].0 >= w[0].1 - 1e-6,
                    "pid {pid} {track:?}: span starting {} overlaps one ending {}",
                    w[1].0, w[0].1
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Hostile bytes never panic the trace reader: a mutated golden
    /// fixture or generated trace reads as a typed error or as events, and
    /// whatever it accepts reads back to the same events after its own
    /// export.
    #[test]
    fn trace_reader_survives_byte_mutations(
        spec in spec_strategy(),
        gpus in 1usize..4,
        golden in any::<bool>(),
        edits in proptest::collection::vec((0u8..7, any::<u64>(), any::<u64>(), 1usize..48), 1..4),
    ) {
        let source = if golden {
            golden_trace()
        } else {
            traced_run(&spec, gpus, true).0.to_perfetto_json()
        };
        let mut bytes = source.into_bytes();
        for edit in edits {
            mutate(&mut bytes, edit);
        }
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(events) = from_perfetto_json(&text) {
            let again = from_perfetto_json(&to_perfetto_json(&events));
            prop_assert!(again.is_ok(), "own export rejected: {:?}", again.err());
            prop_assert_eq!(without_labels(&again.unwrap()), without_labels(&events));
        }
    }
}
