//! Timed in-process calls into the layers, shared by the `real_verify`
//! flow and the served workloads' layer pass: generate a config's stream,
//! plan it, replay the plan, and turn the samples into the `workload.*`,
//! `core.*` and `gpusim.*` metrics.

use std::collections::BTreeMap;
use std::time::Instant;

use micco_core::{Planned, ScheduleReport, Scheduler, Session, SessionConfig};
use micco_workload::TensorPairStream;

use crate::probe::{mean, median, SpanLog};
use crate::Outcome;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The layer calls of one job, in call order: `(name, start, end)`.
#[derive(Default)]
pub struct Calls(Vec<(&'static str, Instant, Instant)>);

impl Calls {
    /// Run `f` as the call `name`, recording when it started and ended.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let value = f();
        self.0.push((name, t, Instant::now()));
        value
    }

    /// Milliseconds of the call `name`; 0 when it was not made.
    pub fn ms(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, ..)| *n == name)
            .map_or(0.0, |(_, a, b)| b.duration_since(*a).as_secs_f64() * 1e3)
    }

    /// Milliseconds from the first call's start to the last call's end.
    pub fn total_ms(&self) -> f64 {
        match (self.0.first(), self.0.last()) {
            (Some(first), Some(last)) => last.2.duration_since(first.1).as_secs_f64() * 1e3,
            _ => 0.0,
        }
    }

    /// Log the calls as children of one root span named `root`.
    pub fn log(&self, log: &mut SpanLog, root: &'static str, job: u64) {
        let (Some(first), Some(last)) = (self.0.first(), self.0.last()) else {
            return;
        };
        let parent = log.push(root, first.1, last.2, None, job);
        for &(name, a, b) in &self.0 {
            log.push(name, a, b, Some(parent), job);
        }
    }
}

/// A config made ready to plan: its stream, session and scheduler.
pub struct Job {
    pub stream: TensorPairStream,
    pub session: Session,
    pub scheduler: Box<dyn Scheduler>,
}

impl Job {
    /// `SessionConfig::stream` as the call `workload.stream`, then the
    /// session and scheduler the config describes.
    pub fn generate(cfg: &SessionConfig, calls: &mut Calls) -> Result<Job, String> {
        let stream = calls
            .time("workload.stream", || cfg.stream())
            .map_err(err)?;
        Ok(Job {
            session: cfg.session(&stream).map_err(err)?,
            scheduler: cfg.build_scheduler().map_err(err)?,
            stream,
        })
    }

    /// A fresh plan: `Session::plan` as the call `core.plan`.
    pub fn plan(&mut self, calls: &mut Calls) -> Result<Planned, String> {
        let Job {
            stream,
            session,
            scheduler,
        } = self;
        calls
            .time("core.plan", || session.plan(scheduler.as_mut(), stream))
            .map_err(err)
    }

    /// `Planned::execute` on the simulator as the call `gpusim.replay`.
    pub fn replay(&self, planned: &Planned, calls: &mut Calls) -> Result<ScheduleReport, String> {
        calls
            .time("gpusim.replay", || planned.execute(&self.stream))
            .map_err(err)
    }
}

/// Per-job samples of the stream, planner and simulator layers.
#[derive(Default)]
pub struct LayerSamples {
    ms: BTreeMap<&'static str, Vec<f64>>,
    assign: Vec<f64>,
    shadow: Vec<f64>,
    evictions: Vec<f64>,
    transfers: Vec<f64>,
    reuse: Vec<f64>,
    tasks: Vec<f64>,
}

impl LayerSamples {
    /// Add one job: its calls, the assign time of its plan when the plan
    /// was decided fresh, and its replay report.
    pub fn add(
        &mut self,
        calls: &Calls,
        assign_ms: Option<f64>,
        report: &ScheduleReport,
        tasks: usize,
    ) {
        for &(name, a, b) in &calls.0 {
            self.ms
                .entry(name)
                .or_default()
                .push(b.duration_since(a).as_secs_f64() * 1e3);
        }
        if let Some(assign) = assign_ms {
            self.assign.push(assign);
            self.shadow.push(calls.ms("core.plan") - assign);
        }
        let st = &report.stats;
        let reuse = st.total_reuse_hits() as f64;
        let transfers = (st.total_h2d() + st.total_d2d()) as f64;
        self.evictions.push(st.total_evictions() as f64);
        self.transfers.push(transfers);
        // operand fetches are either reuse hits or transfers
        self.reuse.push(reuse / (reuse + transfers));
        self.tasks.push(tasks as f64);
    }

    /// Median milliseconds of the call `name`; 0 when it was not made.
    pub fn median_ms(&self, name: &str) -> f64 {
        self.ms.get(name).map_or(0.0, |v| median(v))
    }

    /// Set the `workload.*`, `core.*` planner and `gpusim.*` replay metrics.
    pub fn report(&self, out: &mut Outcome) {
        out.set("workload.gen_ms", self.median_ms("workload.stream"));
        out.set("workload.tasks", mean(&self.tasks));
        out.set("core.plan_ms", self.median_ms("core.plan"));
        out.set("core.assign_ms", median(&self.assign));
        out.set("gpusim.shadow_ms", median(&self.shadow));
        out.set("gpusim.replay_ms", self.median_ms("gpusim.replay"));
        out.set("gpusim.evictions", mean(&self.evictions));
        out.set("gpusim.transfers", mean(&self.transfers));
        out.set("gpusim.reuse_ratio", mean(&self.reuse));
    }
}
