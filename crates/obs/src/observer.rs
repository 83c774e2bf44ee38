//! The bridge from the simulator's observation hooks to telemetry:
//! [`SpanObserver`] implements [`micco_gpusim::ExecObserver`] and renders
//! every hook into spans, instants, flows, and metrics.

use std::collections::HashSet;
use std::sync::Arc;

use micco_gpusim::{ExecObserver, FaultKind, GpuId};
use micco_workload::{TaskId, TensorId};

use crate::metrics::MetricsRegistry;
use crate::sink::TraceSink;
use crate::span::{FlowPoint, TraceEvent, Track, CONTROL_PID, LINK_PID_BASE};

/// Simulated seconds → exported microseconds.
pub const SECS_TO_US: f64 = 1e6;

/// Turns [`ExecObserver`] hooks into [`TraceEvent`]s and metrics.
///
/// Attach one to a [`micco_gpusim::SimMachine`] via
/// `machine.set_observer(Box::new(obs))`; every executed task then lands
/// on the sink as a compute-track span (plus a copy-track span for its
/// staging), stages appear as control spans, D2D transfers as flow
/// arrows, and counters/gauges accumulate in the [`MetricsRegistry`].
///
/// For multi-node projections, give each node's observer a distinct
/// `pid_base` (e.g. `node × gpus_per_node`) and a label prefix so device
/// processes stay distinguishable in one merged timeline.
pub struct SpanObserver {
    sink: Arc<dyn TraceSink>,
    metrics: Arc<MetricsRegistry>,
    pid_base: u32,
    label_prefix: String,
    /// Latest absolute device time seen per local gpu index (µs) — the
    /// anchor for instants and flow endpoints, which fire between timed
    /// hooks.
    dev_time_us: Vec<f64>,
    labeled: HashSet<u32>,
    next_flow: u64,
    emit_stage_spans: bool,
    /// The task whose timed spans are currently being emitted, set by the
    /// `kernel` hook and cleared at `task_done`. Staging-side hooks
    /// (source charges, prefetch copies) fire *before* `kernel`, so only
    /// the task's own destination copy span gets a `task` annotation —
    /// the happens-before certifier keys on exactly that.
    current: Option<(GpuId, TaskId)>,
}

impl SpanObserver {
    /// Observer writing to `sink` with device pids starting at 0.
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        SpanObserver {
            sink,
            metrics: Arc::new(MetricsRegistry::new()),
            pid_base: 0,
            label_prefix: String::new(),
            dev_time_us: Vec::new(),
            labeled: HashSet::new(),
            next_flow: 0,
            emit_stage_spans: true,
            current: None,
        }
    }

    /// Offset device pids by `base` and prefix their process labels (for
    /// per-node projections of a cluster run).
    pub fn with_pid_base(mut self, base: u32, label_prefix: &str) -> Self {
        self.pid_base = base;
        self.label_prefix = label_prefix.to_owned();
        self
    }

    /// Share an existing metrics registry instead of the observer's own
    /// (so several observers — or the real executor — aggregate into one).
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = metrics;
        self
    }

    /// Suppress the control-process stage spans (used when several node
    /// observers share one sink and the caller emits stages itself).
    pub fn without_stage_spans(mut self) -> Self {
        self.emit_stage_spans = false;
        self
    }

    /// Handle to the registry this observer feeds. Grab it before boxing
    /// the observer into a machine.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    fn pid(&self, gpu: GpuId) -> u32 {
        self.pid_base + gpu.0 as u32
    }

    fn ensure_labeled(&mut self, gpu: GpuId) {
        let pid = self.pid(gpu);
        if self.labeled.insert(pid) {
            self.sink.record(TraceEvent::ProcessLabel {
                pid,
                label: format!("{}{gpu}", self.label_prefix),
            });
        }
    }

    fn now_us(&mut self, gpu: GpuId) -> f64 {
        if gpu.0 >= self.dev_time_us.len() {
            self.dev_time_us.resize(gpu.0 + 1, 0.0);
        }
        self.dev_time_us[gpu.0]
    }

    fn bump(&mut self, gpu: GpuId, end_us: f64) {
        let now = self.now_us(gpu);
        if end_us > now {
            self.dev_time_us[gpu.0] = end_us;
        }
    }

    fn instant(&mut self, gpu: GpuId, track: Track, name: String, args: Vec<(String, String)>) {
        self.ensure_labeled(gpu);
        let ts_us = self.now_us(gpu);
        self.sink.record(TraceEvent::Instant {
            pid: self.pid(gpu),
            track,
            name,
            ts_us,
            args,
        });
    }
}

impl ExecObserver for SpanObserver {
    fn reuse_hit(&mut self, _gpu: GpuId, _tensor: TensorId) {
        self.metrics.inc("reuse_hits");
    }

    fn alloc(&mut self, _gpu: GpuId) {
        self.metrics.inc("allocs");
    }

    fn h2d(&mut self, _gpu: GpuId, _tensor: TensorId, bytes: u64) {
        self.metrics.inc("h2d_count");
        self.metrics.add("h2d_bytes", bytes);
    }

    fn d2d(&mut self, src: GpuId, dst: GpuId, tensor: TensorId, bytes: u64) {
        self.metrics.inc("d2d_count");
        self.metrics.add("d2d_bytes", bytes);
        self.ensure_labeled(src);
        self.ensure_labeled(dst);
        let id = (u64::from(self.pid_base) << 32) | self.next_flow;
        self.next_flow += 1;
        let from_ts = self.now_us(src);
        // per-device clocks drift within a stage, but a flow is a
        // happens-before edge: the data cannot arrive before it was sent
        let to_ts = self.now_us(dst).max(from_ts);
        self.sink.record(TraceEvent::Flow {
            id,
            name: format!("d2d t{}", tensor.0),
            from: FlowPoint {
                pid: self.pid(src),
                track: Track::Copy,
                ts_us: from_ts,
            },
            to: FlowPoint {
                pid: self.pid(dst),
                track: Track::Copy,
                ts_us: to_ts,
            },
        });
        let _ = bytes;
    }

    fn source_charge(&mut self, _src: GpuId, secs: f64) {
        self.metrics.add_gauge("source_charge_secs", secs);
    }

    fn evict(&mut self, gpu: GpuId, tensor: TensorId, writeback: bool, bytes: u64) {
        self.metrics.inc("evictions");
        if writeback {
            self.metrics.add("writeback_bytes", bytes);
        }
        self.instant(
            gpu,
            Track::Copy,
            format!("evict t{}", tensor.0),
            vec![
                ("bytes".to_owned(), bytes.to_string()),
                ("writeback".to_owned(), writeback.to_string()),
            ],
        );
    }

    fn kernel(&mut self, gpu: GpuId, task: TaskId, _secs: f64) {
        self.metrics.inc("kernels");
        self.current = Some((gpu, task));
    }

    fn task_done(&mut self, _gpu: GpuId, _flops: u64, compute_secs: f64, mem_secs: f64) {
        self.current = None;
        self.metrics.inc("tasks");
        self.metrics.add_gauge("compute_secs", compute_secs);
        self.metrics.add_gauge("memory_secs", mem_secs);
    }

    fn fault(&mut self, gpu: GpuId, task: TaskId, kind: FaultKind) {
        self.metrics.inc("faults");
        self.instant(
            gpu,
            Track::Compute,
            format!("fault task {}", task.0),
            vec![("kind".to_owned(), format!("{kind:?}"))],
        );
    }

    fn retry(&mut self, gpu: GpuId, task: TaskId, attempt: u32) {
        self.metrics.inc("retries");
        self.instant(
            gpu,
            Track::Compute,
            format!("retry task {}", task.0),
            vec![("attempt".to_owned(), attempt.to_string())],
        );
    }

    fn device_lost(&mut self, gpu: GpuId, stage: usize, permanent: bool) {
        self.metrics.inc("device_lost");
        self.instant(
            gpu,
            Track::Compute,
            format!("device lost (stage {stage})"),
            vec![("permanent".to_owned(), permanent.to_string())],
        );
    }

    fn copy_timed(&mut self, gpu: GpuId, start: f64, end: f64) {
        self.ensure_labeled(gpu);
        self.metrics.add_gauge("copy_span_secs", end - start);
        let args = match self.current {
            Some((g, task)) if g == gpu => vec![("task".to_owned(), task.0.to_string())],
            _ => Vec::new(),
        };
        self.sink.record(TraceEvent::Span {
            pid: self.pid(gpu),
            track: Track::Copy,
            name: "copy".to_owned(),
            start_us: start * SECS_TO_US,
            dur_us: (end - start) * SECS_TO_US,
            args,
        });
        self.bump(gpu, end * SECS_TO_US);
    }

    fn kernel_timed(&mut self, gpu: GpuId, task: TaskId, start: f64, end: f64) {
        self.ensure_labeled(gpu);
        self.metrics.add_gauge("compute_span_secs", end - start);
        if end > start {
            self.sink.record(TraceEvent::Span {
                pid: self.pid(gpu),
                track: Track::Compute,
                name: format!("task {}", task.0),
                start_us: start * SECS_TO_US,
                dur_us: (end - start) * SECS_TO_US,
                args: Vec::new(),
            });
        }
        self.bump(gpu, end * SECS_TO_US);
    }

    fn link_hop(
        &mut self,
        link: usize,
        class: &'static str,
        a: usize,
        b: usize,
        bytes: u64,
        start: f64,
        end: f64,
    ) {
        self.metrics.inc("link_hops");
        self.metrics.add("link_bytes", bytes);
        let pid = LINK_PID_BASE + link as u32;
        if self.labeled.insert(pid) {
            self.sink.record(TraceEvent::ProcessLabel {
                pid,
                label: format!("{}link{link} {class} g{a}-g{b}", self.label_prefix),
            });
        }
        // Hops for one routed transfer fire just before its `d2d` flow is
        // recorded, so the id the *next* flow will take ties every hop
        // span to the transfer that caused it.
        let flow = (u64::from(self.pid_base) << 32) | self.next_flow;
        self.sink.record(TraceEvent::Span {
            pid,
            track: Track::Link,
            name: format!("xfer g{a}-g{b}"),
            start_us: start * SECS_TO_US,
            dur_us: (end - start) * SECS_TO_US,
            args: vec![
                ("class".to_owned(), class.to_owned()),
                ("bytes".to_owned(), bytes.to_string()),
                ("flow".to_owned(), flow.to_string()),
            ],
        });
    }

    fn stage_done(&mut self, stage: usize, start: f64, end: f64) {
        self.metrics.inc("stages");
        if !self.emit_stage_spans {
            return;
        }
        self.sink.record(TraceEvent::Span {
            pid: CONTROL_PID,
            track: Track::Control,
            name: format!("stage {stage}"),
            start_us: start * SECS_TO_US,
            dur_us: (end - start) * SECS_TO_US,
            args: Vec::new(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perfetto::{reconcile_with_stats, span_track_totals};
    use crate::sink::Recorder;
    use micco_gpusim::{MachineConfig, SimMachine};
    use micco_workload::WorkloadSpec;

    fn run_traced(async_copy: bool) -> (Arc<Recorder>, micco_gpusim::ExecStats) {
        let stream = WorkloadSpec::new(10, 64)
            .with_repeat_rate(0.6)
            .with_vectors(2)
            .with_seed(7)
            .generate();
        let mut cfg = MachineConfig::mi100_like(2);
        if async_copy {
            cfg.cost = cfg.cost.with_async_copy();
        }
        let recorder = Recorder::shared();
        let obs = SpanObserver::new(recorder.clone()).with_metrics(recorder.metrics());
        let mut machine = SimMachine::new(cfg).with_observer(Box::new(obs));
        let mut i = 0usize;
        for v in stream.vectors() {
            for t in &v.tasks {
                machine
                    .execute(t, GpuId(i % 2))
                    .expect("in-range placement");
                i += 1;
            }
            machine.barrier();
        }
        (recorder, machine.stats().clone())
    }

    #[test]
    fn sim_spans_reconcile_with_stats_in_both_modes() {
        for async_copy in [false, true] {
            let (recorder, stats) = run_traced(async_copy);
            let events = recorder.events();
            reconcile_with_stats(&events, &stats, 0, 1e-9)
                .unwrap_or_else(|e| panic!("async={async_copy}: {e}"));
            // control process carries one span per stage
            let totals = span_track_totals(&events);
            assert!(totals.contains_key(&(CONTROL_PID, Track::Control)));
        }
    }

    #[test]
    fn metrics_match_stats_aggregates() {
        let (recorder, stats) = run_traced(false);
        let snap = recorder.metrics_snapshot();
        assert_eq!(snap.counter("tasks"), stats.total_tasks());
        assert_eq!(snap.counter("reuse_hits"), stats.total_reuse_hits());
        assert_eq!(snap.counter("h2d_count"), stats.total_h2d());
        assert_eq!(snap.counter("evictions"), stats.total_evictions());
        let compute: f64 = stats.per_gpu.iter().map(|g| g.compute_secs).sum();
        assert!((snap.gauge("compute_secs") - compute).abs() < 1e-9);
        let memory: f64 = stats.per_gpu.iter().map(|g| g.memory_secs).sum();
        assert!((snap.gauge("copy_span_secs") - memory).abs() < 1e-9);
    }

    #[test]
    fn link_hops_render_as_link_lane_spans() {
        use micco_gpusim::LinkTopology;
        let stream = WorkloadSpec::new(10, 64)
            .with_repeat_rate(0.6)
            .with_vectors(2)
            .with_seed(7)
            .generate();
        let cfg = MachineConfig::mi100_like(4);
        let recorder = Recorder::shared();
        let obs = SpanObserver::new(recorder.clone()).with_metrics(recorder.metrics());
        let mut machine = SimMachine::new(cfg)
            .with_topology(LinkTopology::nvlink(4, 2))
            .with_observer(Box::new(obs));
        let mut i = 0usize;
        for v in stream.vectors() {
            for t in &v.tasks {
                machine.execute(t, GpuId(i % 4)).unwrap();
                i += 1;
            }
            machine.barrier();
        }
        let events = recorder.events();
        let link_spans: Vec<_> = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::Span {
                        track: Track::Link,
                        ..
                    }
                )
            })
            .collect();
        assert!(
            !link_spans.is_empty(),
            "routed transfers must show on link lanes"
        );
        for e in &link_spans {
            if let TraceEvent::Span { pid, args, .. } = e {
                assert!(*pid >= LINK_PID_BASE);
                assert!(args.iter().any(|(k, _)| k == "class"));
            }
        }
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::ProcessLabel { pid, label } if *pid >= LINK_PID_BASE && label.starts_with("link")
        )));
        // the link spans' total busy time matches the machine's accounting
        let total_span: f64 = link_spans
            .iter()
            .map(|e| match e {
                TraceEvent::Span { dur_us, .. } => dur_us / SECS_TO_US,
                _ => 0.0,
            })
            .sum();
        let total_busy: f64 = machine.link_busy_secs().iter().sum();
        assert!((total_span - total_busy).abs() < 1e-9);
        // device spans still reconcile with stats despite the extra lanes
        reconcile_with_stats(&events, machine.stats(), 0, 1e-9).unwrap();
    }

    #[test]
    fn pid_base_offsets_processes() {
        let recorder = Recorder::shared();
        let mut obs = SpanObserver::new(recorder.clone()).with_pid_base(8, "node2/");
        obs.kernel_timed(GpuId(1), TaskId(0), 0.0, 1.0);
        let events = recorder.events();
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::ProcessLabel { pid: 9, label } if label == "node2/gpu1"
        )));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::Span { pid: 9, .. })));
    }
}
