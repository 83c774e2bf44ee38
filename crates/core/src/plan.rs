//! The schedule-plan IR: a durable, validated placement artifact.
//!
//! A [`SchedulePlan`] is what [`crate::Session::plan`] produces and what
//! [`crate::Session::replay`] (and the real executor in `micco-exec`, and
//! the cluster driver) consume: per-stage assignment vectors, the scheduler
//! name and reuse bounds that produced them, and a content-hash
//! **fingerprint** of the workload the plan was decided for. Splitting
//! decide from execute makes the plan cacheable (hadron nodes repeat
//! across thousands of contraction graphs — the same schedule is worth
//! reusing), replayable across backends, and shippable between processes.
//!
//! Plans serialize to a versioned line-oriented text format (the same
//! no-dependency idiom as `micco-workload`'s stream format):
//!
//! ```text
//! micco-plan v2
//! scheduler micco[fixed(0,2,0)]
//! gpus 4
//! fingerprint 9322391459459612643
//! overhead 0
//! stage bounds 0 2 0
//! assign 0 1
//! assign 1 3
//! stage
//! assign 2 0
//! ```
//!
//! Future format versions bump the header; parsers reject versions they do
//! not understand with [`PlanFormatError::UnsupportedVersion`] rather than
//! misreading them.

use micco_gpusim::{GpuId, LinkTopology, MachineConfig};
use micco_workload::{TaskId, TensorPairStream};

use crate::bounds::ReuseBounds;
use crate::driver::{Assignment, DriverOptions, Scheduler};

/// Plan format version written by [`SchedulePlan::to_text`].
pub const PLAN_VERSION: u32 = 2;

const HEADER_PREFIX: &str = "micco-plan v";

/// One stage of a plan: the bounds the scheduler used for the vector (if
/// it uses bounds at all) and the placement of each of its tasks, in
/// stream order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PlanStage {
    /// Reuse bounds in effect while this stage was decided (`None` for
    /// schedulers without bounds, e.g. round-robin).
    pub bounds: Option<ReuseBounds>,
    /// One placement per task of the stage vector, in task order.
    pub assignments: Vec<Assignment>,
}

/// A complete schedule: who runs where, decided ahead of execution.
///
/// # Examples
///
/// ```
/// use micco_core::{RoundRobinScheduler, SchedulePlan, Session};
/// use micco_gpusim::MachineConfig;
/// use micco_workload::WorkloadSpec;
///
/// let stream = WorkloadSpec::new(8, 64).with_vectors(2).generate();
/// let plan = Session::new(MachineConfig::mi100_like(2))
///     .plan(&mut RoundRobinScheduler::new(), &stream)
///     .unwrap()
///     .into_plan();
/// // round-trips through the text format exactly
/// let back = SchedulePlan::from_text(&plan.to_text()).unwrap();
/// assert_eq!(plan, back);
/// // and validates against the stream it was planned for
/// assert!(plan.validate(&stream).is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulePlan {
    /// Name of the scheduler that decided the plan.
    pub scheduler: String,
    /// Number of devices the plan targets (every assignment is in range).
    pub num_gpus: usize,
    /// [`TensorPairStream::fingerprint`] of the workload the plan was
    /// decided for.
    pub fingerprint: u64,
    /// Wall-clock seconds spent inside `Scheduler::begin_vector` and
    /// `Scheduler::assign` while deciding (0.0 unless planned with
    /// [`DriverOptions::measure_overhead`]).
    pub overhead_secs: f64,
    /// Per-stage assignments, one entry per stream vector.
    pub stages: Vec<PlanStage>,
}

/// A plan that does not fit the stream or machine it was asked to run on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The plan was decided for a different workload.
    FingerprintMismatch {
        /// Fingerprint recorded in the plan.
        plan: u64,
        /// Fingerprint of the stream offered for execution.
        stream: u64,
    },
    /// Stage counts differ.
    StageCountMismatch {
        /// Stages in the plan.
        plan: usize,
        /// Vectors in the stream.
        stream: usize,
    },
    /// A stage covers a different number of tasks than its vector.
    StageLenMismatch {
        /// Stage index.
        stage: usize,
        /// Assignments in the plan stage.
        plan: usize,
        /// Tasks in the stream vector.
        stream: usize,
    },
    /// A stage assigns a task other than the one at that position.
    TaskMismatch {
        /// Stage index.
        stage: usize,
        /// Position within the stage.
        index: usize,
        /// Task the plan assigns.
        plan: TaskId,
        /// Task the stream has there.
        stream: TaskId,
    },
    /// An assignment targets a device the plan itself declares out of range.
    GpuOutOfRange {
        /// Offending task.
        task: TaskId,
        /// Target device.
        gpu: GpuId,
        /// Devices the plan targets.
        num_gpus: usize,
    },
    /// The executing machine has a different device count than the plan.
    DeviceCountMismatch {
        /// Devices the plan targets.
        plan: usize,
        /// Devices the machine has.
        machine: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::FingerprintMismatch { plan, stream } => write!(
                f,
                "plan fingerprint {plan:#x} does not match stream fingerprint {stream:#x}"
            ),
            PlanError::StageCountMismatch { plan, stream } => {
                write!(f, "plan has {plan} stages, stream has {stream} vectors")
            }
            PlanError::StageLenMismatch {
                stage,
                plan,
                stream,
            } => write!(
                f,
                "stage {stage}: plan assigns {plan} tasks, vector has {stream}"
            ),
            PlanError::TaskMismatch {
                stage,
                index,
                plan,
                stream,
            } => write!(
                f,
                "stage {stage} position {index}: plan assigns task {plan:?}, stream has {stream:?}"
            ),
            PlanError::GpuOutOfRange {
                task,
                gpu,
                num_gpus,
            } => write!(
                f,
                "task {task:?} assigned to {gpu} but plan targets {num_gpus} devices"
            ),
            PlanError::DeviceCountMismatch { plan, machine } => write!(
                f,
                "plan targets {plan} devices but the machine has {machine}"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// Serialisation/parse errors for the plan text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanFormatError {
    /// Missing or malformed header line.
    BadHeader,
    /// The header declares a format version this parser does not speak.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
    },
    /// A malformed line, with its 1-based line number.
    BadLine {
        /// Line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// An `assign` line appeared before any `stage` line.
    AssignOutsideStage {
        /// Line number.
        line: usize,
    },
    /// A required field never appeared.
    MissingField {
        /// Field name.
        field: &'static str,
    },
}

impl std::fmt::Display for PlanFormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanFormatError::BadHeader => {
                write!(f, "missing '{HEADER_PREFIX}{PLAN_VERSION}' header")
            }
            PlanFormatError::UnsupportedVersion { found } => write!(
                f,
                "plan format v{found} is not supported (this build reads v{PLAN_VERSION})"
            ),
            PlanFormatError::BadLine { line, reason } => write!(f, "line {line}: {reason}"),
            PlanFormatError::AssignOutsideStage { line } => {
                write!(f, "line {line}: assign before any 'stage' marker")
            }
            PlanFormatError::MissingField { field } => write!(f, "missing '{field}' field"),
        }
    }
}

impl std::error::Error for PlanFormatError {}

/// Why a degraded-mode repair could not be produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepairError {
    /// No lost devices were named — nothing to repair.
    NothingLost,
    /// A named device is outside the plan's declared range.
    LostGpuOutOfRange {
        /// Offending device index.
        gpu: usize,
        /// Devices the plan targets.
        num_gpus: usize,
    },
    /// Every device of the plan was lost — no survivor to repair onto.
    NoSurvivors,
}

impl std::fmt::Display for RepairError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepairError::NothingLost => write!(f, "no lost devices named, nothing to repair"),
            RepairError::LostGpuOutOfRange { gpu, num_gpus } => {
                write!(
                    f,
                    "lost device {gpu} is outside the plan's {num_gpus} devices"
                )
            }
            RepairError::NoSurvivors => {
                write!(f, "every device was lost, no survivor to repair onto")
            }
        }
    }
}

impl std::error::Error for RepairError {}

/// Degraded-mode replan: re-place every assignment that targets a device
/// in `lost` onto the least-loaded surviving device of its stage (lowest
/// index breaking ties — the repair is deterministic).
///
/// The repaired plan keeps the original `num_gpus`, fingerprint, stage
/// structure, and per-stage bounds, so it still passes
/// [`SchedulePlan::validate`] against the original stream; the lost
/// devices simply receive no work. The repair is recorded in the plan's
/// lineage by appending `+repair(lost=…)` to the scheduler line (free
/// text in the v1 format, so no format bump) — the analysis engine keys
/// its degraded-placement diagnostic off that marker.
///
/// # Examples
///
/// ```
/// use micco_core::{repair_plan, RoundRobinScheduler, Session};
/// use micco_gpusim::{GpuId, MachineConfig};
/// use micco_workload::WorkloadSpec;
///
/// let stream = WorkloadSpec::new(8, 64).with_vectors(2).generate();
/// let plan = Session::new(MachineConfig::mi100_like(3))
///     .plan(&mut RoundRobinScheduler::new(), &stream)
///     .unwrap()
///     .into_plan();
/// let repaired = repair_plan(&plan, &[GpuId(1)]).unwrap();
/// assert!(repaired.validate(&stream).is_ok());
/// assert!(repaired.scheduler.ends_with("+repair(lost=1)"));
/// assert!(repaired.flat_assignments().iter().all(|a| a.gpu != GpuId(1)));
/// ```
///
/// # Errors
///
/// [`RepairError::NothingLost`] for an empty `lost` list,
/// [`RepairError::LostGpuOutOfRange`] when a named device is not in the
/// plan, and [`RepairError::NoSurvivors`] when every device was lost.
pub fn repair_plan(plan: &SchedulePlan, lost: &[GpuId]) -> Result<SchedulePlan, RepairError> {
    repair_plan_with(plan, lost, None)
}

/// [`repair_plan`] honouring an interconnect topology: orphans are
/// re-placed onto the *topology-nearest* surviving device of their stage —
/// the survivor with the cheapest route from the lost device, so operands
/// that were staged near the casualty stay reachable over fast links —
/// breaking ties by least load and then lowest index. With `None` the
/// repair is exactly the least-loaded [`repair_plan`].
pub fn repair_plan_with(
    plan: &SchedulePlan,
    lost: &[GpuId],
    topology: Option<&LinkTopology>,
) -> Result<SchedulePlan, RepairError> {
    if lost.is_empty() {
        return Err(RepairError::NothingLost);
    }
    if let Some(g) = lost.iter().find(|g| g.0 >= plan.num_gpus) {
        return Err(RepairError::LostGpuOutOfRange {
            gpu: g.0,
            num_gpus: plan.num_gpus,
        });
    }
    let mut is_lost = vec![false; plan.num_gpus];
    for g in lost {
        is_lost[g.0] = true;
    }
    if is_lost.iter().all(|&l| l) {
        return Err(RepairError::NoSurvivors);
    }
    // route cost from the orphan's original device to each survivor,
    // quantized to link-time bits for a total-ordered integer key (0 when
    // no topology: the key degenerates to (load, index))
    let near_bytes = 1u64 << 26; // 64 MiB reference transfer
    let route_cost = |from: usize, to: usize| -> u64 {
        topology.map_or(0, |t| {
            if t.num_gpus() == plan.num_gpus {
                t.transfer_secs(from, to, near_bytes).to_bits()
            } else {
                0
            }
        })
    };
    let mut repaired = plan.clone();
    for stage in &mut repaired.stages {
        // survivors' existing load in this stage, in assignment counts
        let mut load = vec![0usize; plan.num_gpus];
        for a in &stage.assignments {
            if !is_lost[a.gpu.0] {
                load[a.gpu.0] += 1;
            }
        }
        for a in &mut stage.assignments {
            if is_lost[a.gpu.0] {
                let from = a.gpu.0;
                if let Some(target) = (0..plan.num_gpus)
                    .filter(|&g| !is_lost[g])
                    .min_by_key(|&g| (route_cost(from, g), load[g], g))
                {
                    a.gpu = GpuId(target);
                    load[target] += 1;
                }
            }
        }
    }
    let mut named: Vec<usize> = is_lost
        .iter()
        .enumerate()
        .filter_map(|(g, &l)| l.then_some(g))
        .collect();
    named.sort_unstable();
    let list = named
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",");
    repaired.scheduler = format!("{}+repair(lost={list})", plan.scheduler);
    Ok(repaired)
}

impl SchedulePlan {
    /// Total assignments across all stages.
    pub fn total_tasks(&self) -> usize {
        self.stages.iter().map(|s| s.assignments.len()).sum()
    }

    /// All assignments flattened into stream order (what slice-based
    /// consumers like the real executor take).
    pub fn flat_assignments(&self) -> Vec<Assignment> {
        self.stages
            .iter()
            .flat_map(|s| s.assignments.iter().copied())
            .collect()
    }

    /// Check the plan against the stream it is about to run on: matching
    /// fingerprint, one stage per vector, every task covered exactly once
    /// in order, every device within the plan's declared range. The
    /// stream hashes itself at most once ([`TensorPairStream::fingerprint`]
    /// caches the value), so validating a stream that was already keyed or
    /// validated costs only the structural walk.
    pub fn validate(&self, stream: &TensorPairStream) -> Result<(), PlanError> {
        let fp = stream.fingerprint();
        if self.fingerprint != fp {
            return Err(PlanError::FingerprintMismatch {
                plan: self.fingerprint,
                stream: fp,
            });
        }
        if self.stages.len() != stream.vectors().len() {
            return Err(PlanError::StageCountMismatch {
                plan: self.stages.len(),
                stream: stream.vectors().len(),
            });
        }
        for (si, (stage, vector)) in self.stages.iter().zip(stream.vectors()).enumerate() {
            if stage.assignments.len() != vector.tasks.len() {
                return Err(PlanError::StageLenMismatch {
                    stage: si,
                    plan: stage.assignments.len(),
                    stream: vector.tasks.len(),
                });
            }
            for (i, (a, t)) in stage.assignments.iter().zip(&vector.tasks).enumerate() {
                if a.task != t.id {
                    return Err(PlanError::TaskMismatch {
                        stage: si,
                        index: i,
                        plan: a.task,
                        stream: t.id,
                    });
                }
                if a.gpu.0 >= self.num_gpus {
                    return Err(PlanError::GpuOutOfRange {
                        task: a.task,
                        gpu: a.gpu,
                        num_gpus: self.num_gpus,
                    });
                }
            }
        }
        Ok(())
    }

    /// [`Self::validate`] plus a device-count check against the executing
    /// machine.
    pub fn validate_for(
        &self,
        stream: &TensorPairStream,
        machine_gpus: usize,
    ) -> Result<(), PlanError> {
        self.validate(stream)?;
        if self.num_gpus != machine_gpus {
            return Err(PlanError::DeviceCountMismatch {
                plan: self.num_gpus,
                machine: machine_gpus,
            });
        }
        Ok(())
    }

    /// Serialise to the versioned text format. Round-trips exactly through
    /// [`Self::from_text`] (the overhead float is stored as its bit
    /// pattern).
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(96 + self.total_tasks() * 12);
        self.write_text(&mut out)
            .expect("writing to a String never fails");
        out
    }

    /// Stream the text format into any [`std::fmt::Write`] sink — the one
    /// serialiser behind both [`Self::to_text`] (a `String` sink) and
    /// [`Self::digest`] (a hashing sink, no intermediate allocation).
    fn write_text<W: std::fmt::Write>(&self, out: &mut W) -> std::fmt::Result {
        writeln!(out, "{HEADER_PREFIX}{PLAN_VERSION}")?;
        writeln!(out, "scheduler {}", self.scheduler)?;
        writeln!(out, "gpus {}", self.num_gpus)?;
        writeln!(out, "fingerprint {}", self.fingerprint)?;
        writeln!(out, "overhead {}", self.overhead_secs.to_bits())?;
        for stage in &self.stages {
            match stage.bounds {
                Some(b) => {
                    let [x, y, z] = b.as_array();
                    writeln!(out, "stage bounds {x} {y} {z}")?;
                }
                None => out.write_str("stage\n")?,
            }
            for a in &stage.assignments {
                writeln!(out, "assign {} {}", a.task.0, a.gpu.0)?;
            }
        }
        Ok(())
    }

    /// Parse the text format. Blank lines and `#` comments are ignored;
    /// unknown versions and malformed lines are typed errors.
    pub fn from_text(text: &str) -> Result<SchedulePlan, PlanFormatError> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, l)) => {
                let l = l.trim();
                let version: u32 = l
                    .strip_prefix(HEADER_PREFIX)
                    .and_then(|v| v.parse().ok())
                    .ok_or(PlanFormatError::BadHeader)?;
                if version != PLAN_VERSION {
                    return Err(PlanFormatError::UnsupportedVersion { found: version });
                }
            }
            None => return Err(PlanFormatError::BadHeader),
        }
        let mut scheduler: Option<String> = None;
        let mut num_gpus: Option<usize> = None;
        let mut fingerprint: Option<u64> = None;
        let mut overhead_bits: u64 = 0;
        let mut stages: Vec<PlanStage> = Vec::new();
        for (idx, raw) in lines {
            let line_no = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = |reason: String| PlanFormatError::BadLine {
                line: line_no,
                reason,
            };
            if let Some(rest) = line.strip_prefix("scheduler ") {
                scheduler = Some(rest.trim().to_owned());
            } else if let Some(rest) = line.strip_prefix("gpus ") {
                num_gpus =
                    Some(rest.trim().parse().map_err(|_| {
                        bad(format!("'{}' is not an unsigned integer", rest.trim()))
                    })?);
            } else if let Some(rest) = line.strip_prefix("fingerprint ") {
                fingerprint =
                    Some(rest.trim().parse().map_err(|_| {
                        bad(format!("'{}' is not an unsigned integer", rest.trim()))
                    })?);
            } else if let Some(rest) = line.strip_prefix("overhead ") {
                overhead_bits = rest
                    .trim()
                    .parse()
                    .map_err(|_| bad(format!("'{}' is not an unsigned integer", rest.trim())))?;
            } else if line == "stage" {
                stages.push(PlanStage::default());
            } else if let Some(rest) = line.strip_prefix("stage bounds ") {
                let fields: Vec<&str> = rest.split_whitespace().collect();
                if fields.len() != 3 {
                    return Err(bad(format!("expected 3 bounds, got {}", fields.len())));
                }
                let mut nums = [0usize; 3];
                for (slot, f) in nums.iter_mut().zip(&fields) {
                    *slot = f
                        .parse()
                        .map_err(|_| bad(format!("'{f}' is not an unsigned integer")))?;
                }
                stages.push(PlanStage {
                    bounds: Some(ReuseBounds::from(nums)),
                    assignments: Vec::new(),
                });
            } else if let Some(rest) = line.strip_prefix("assign ") {
                let fields: Vec<&str> = rest.split_whitespace().collect();
                if fields.len() != 2 {
                    return Err(bad(format!("expected 2 fields, got {}", fields.len())));
                }
                let task: u64 = fields[0]
                    .parse()
                    .map_err(|_| bad(format!("'{}' is not an unsigned integer", fields[0])))?;
                let gpu: usize = fields[1]
                    .parse()
                    .map_err(|_| bad(format!("'{}' is not an unsigned integer", fields[1])))?;
                stages
                    .last_mut()
                    .ok_or(PlanFormatError::AssignOutsideStage { line: line_no })?
                    .assignments
                    .push(Assignment {
                        task: TaskId(task),
                        gpu: GpuId(gpu),
                    });
            } else {
                return Err(bad(format!("unrecognised line '{line}'")));
            }
        }
        Ok(SchedulePlan {
            scheduler: scheduler.ok_or(PlanFormatError::MissingField { field: "scheduler" })?,
            num_gpus: num_gpus.ok_or(PlanFormatError::MissingField { field: "gpus" })?,
            fingerprint: fingerprint.ok_or(PlanFormatError::MissingField {
                field: "fingerprint",
            })?,
            overhead_secs: f64::from_bits(overhead_bits),
            stages,
        })
    }

    /// Content hash of the serialised plan: FNV-1a over the exact bytes of
    /// [`Self::to_text`]. Two plans digest equal iff they serialise
    /// identically (scheduler line, device count, workload fingerprint,
    /// overhead bits, every stage bound and every assignment). This is
    /// what the golden fingerprint corpus (`tests/fixtures/fingerprints.txt`)
    /// pins across planner rewrites.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        self.write_text(&mut h).expect("hashing writer never fails");
        h.0
    }
}

/// Incremental FNV-1a accumulator; doubles as a [`std::fmt::Write`] sink
/// so scheduler names hash through [`Scheduler::write_name`] without a
/// `String` allocation.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    fn mix_byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    #[inline]
    fn mix(&mut self, value: u64) {
        for b in value.to_le_bytes() {
            self.mix_byte(b);
        }
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.mix_byte(b);
        }
        Ok(())
    }
}

/// Opaque cache key identifying a `(scheduler, stream, config, options,
/// topology)` planning request (see [`PlanCache::key_for_with_topology`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey(u64);

impl PlanKey {
    /// The raw 64-bit value — what `micco-store` keys durable records by.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuild a key from its raw value (a record read back from a store).
    pub fn from_raw(raw: u64) -> PlanKey {
        PlanKey(raw)
    }
}

/// The plan-cache key derivation. [`crate::DurablePlanCache`] is the plan
/// cache; this type only names how a planning request becomes its
/// [`PlanKey`].
///
/// Keys combine the stream fingerprint with the scheduler name, the
/// machine configuration and the planning knobs, so one cache may safely
/// serve multiple schedulers and machine shapes at once. Any mutation of
/// the stream — task order, tensor footprints, vector boundaries — changes
/// the fingerprint and so the key.
#[derive(Debug)]
pub struct PlanCache;

impl PlanCache {
    /// The key of the request `(scheduler, stream, config, options,
    /// topology)` — what [`crate::DurablePlanCache`] stores its plan under,
    /// and what [`crate::DurablePlanCache::lookup`] probes with, without
    /// planning. Allocation-free once the stream has cached its fingerprint,
    /// for schedulers with an allocation-free [`Scheduler::write_name`]
    /// (all schedulers in this crate). The topology spec (and the
    /// `topology_aware` knob) is mixed in only when a topology is present,
    /// so flat keys are byte-stable.
    pub fn key_for_with_topology(
        scheduler: &dyn Scheduler,
        stream: &TensorPairStream,
        config: &MachineConfig,
        options: DriverOptions,
        topology: Option<&LinkTopology>,
    ) -> PlanKey {
        let mut h = Fnv::new();
        h.mix(stream.fingerprint());
        scheduler
            .write_name(&mut h)
            .expect("hashing writer never fails");
        h.mix(config.num_gpus as u64);
        h.mix(config.mem_bytes);
        h.mix(config.cost.device_gflops.to_bits());
        h.mix(config.cost.h2d_gib_s.to_bits());
        h.mix(config.cost.d2d_gib_s.to_bits());
        h.mix(config.cost.transfer_latency_us.to_bits());
        h.mix(config.cost.alloc_latency_us.to_bits());
        h.mix(config.cost.evict_latency_us.to_bits());
        h.mix(config.cost.d2d_charges_source as u64);
        h.mix(config.cost.async_copy as u64);
        h.mix(config.cost.shared_h2d_link as u64);
        h.mix(config.cost.prefetch_tasks as u64);
        h.mix(config.eviction as u64);
        // overlap and the staging window a second time, in the slots keys
        // have always carried them in, so stored keys stay byte-stable
        h.mix(config.cost.async_copy as u64);
        h.mix(config.cost.prefetch_tasks as u64);
        if options.measure_overhead {
            // mixed only when set so non-measuring keys stay byte-stable;
            // without this a measuring request after a non-measuring one
            // hit the cached plan and reported a zero overhead
            h.mix(1);
        }
        let Some(topo) = topology else {
            return PlanKey(h.0);
        };
        h.mix(options.topology_aware as u64);
        for byte in topo.to_spec().bytes() {
            h.mix_byte(byte);
        }
        PlanKey(h.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::RoundRobinScheduler;
    use crate::session::Session;
    use micco_workload::WorkloadSpec;

    fn plan_fixture() -> (TensorPairStream, SchedulePlan) {
        let stream = WorkloadSpec::new(8, 48)
            .with_vectors(3)
            .with_seed(5)
            .generate();
        let plan = Session::new(MachineConfig::mi100_like(3))
            .plan(&mut RoundRobinScheduler::new(), &stream)
            .unwrap()
            .into_plan();
        (stream, plan)
    }

    #[test]
    fn text_roundtrip_is_exact() {
        let (_, plan) = plan_fixture();
        let back = SchedulePlan::from_text(&plan.to_text()).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn bounds_survive_roundtrip() {
        let mut plan = plan_fixture().1;
        plan.stages[0].bounds = Some(ReuseBounds::new(0, 2, 0));
        plan.stages[1].bounds = Some(ReuseBounds::unbounded());
        plan.overhead_secs = 1.5e-7;
        let back = SchedulePlan::from_text(&plan.to_text()).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn unsupported_version_rejected() {
        // v1 plans carry the FNV-1a stream fingerprint, which no stream
        // hashes to any more
        for found in [1, 3] {
            let text = format!("micco-plan v{found}\nscheduler x\ngpus 1\nfingerprint 0\n");
            assert_eq!(
                SchedulePlan::from_text(&text),
                Err(PlanFormatError::UnsupportedVersion { found })
            );
            assert_eq!(
                SchedulePlan::from_text(&text).unwrap_err().to_string(),
                format!("plan format v{found} is not supported (this build reads v2)")
            );
        }
    }

    #[test]
    fn bad_header_rejected() {
        assert_eq!(
            SchedulePlan::from_text("nope\n"),
            Err(PlanFormatError::BadHeader)
        );
        assert_eq!(SchedulePlan::from_text(""), Err(PlanFormatError::BadHeader));
        assert_eq!(
            SchedulePlan::from_text("micco-plan vX\n"),
            Err(PlanFormatError::BadHeader)
        );
    }

    #[test]
    fn assign_outside_stage_rejected() {
        let text = "micco-plan v2\nscheduler x\ngpus 1\nfingerprint 0\nassign 0 0\n";
        assert!(matches!(
            SchedulePlan::from_text(text),
            Err(PlanFormatError::AssignOutsideStage { line: 5 })
        ));
    }

    #[test]
    fn missing_fields_rejected() {
        let text = "micco-plan v2\ngpus 1\nfingerprint 0\n";
        assert_eq!(
            SchedulePlan::from_text(text),
            Err(PlanFormatError::MissingField { field: "scheduler" })
        );
    }

    #[test]
    fn malformed_lines_rejected_with_position() {
        let text = "micco-plan v2\nscheduler x\ngpus one\n";
        match SchedulePlan::from_text(text) {
            Err(PlanFormatError::BadLine { line, reason }) => {
                assert_eq!(line, 3);
                assert!(reason.contains("'one'"));
            }
            other => panic!("expected BadLine, got {other:?}"),
        }
        let text = "micco-plan v2\nscheduler x\ngpus 1\nfingerprint 0\nwat\n";
        assert!(matches!(
            SchedulePlan::from_text(text),
            Err(PlanFormatError::BadLine { line: 5, .. })
        ));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "micco-plan v2\n# comment\n\nscheduler rr\ngpus 2\nfingerprint 7\noverhead 0\nstage\nassign 0 1\n";
        let plan = SchedulePlan::from_text(text).unwrap();
        assert_eq!(plan.scheduler, "rr");
        assert_eq!(plan.total_tasks(), 1);
        assert_eq!(plan.stages[0].assignments[0].gpu, GpuId(1));
    }

    #[test]
    fn validate_catches_every_mismatch_class() {
        let (stream, plan) = plan_fixture();
        assert_eq!(plan.validate(&stream), Ok(()));

        let mut vectors = stream.clone().into_vectors();
        vectors[0].tasks[0].flops += 1;
        let other = TensorPairStream::new(vectors);
        assert!(matches!(
            plan.validate(&other),
            Err(PlanError::FingerprintMismatch { .. })
        ));

        let mut p = plan.clone();
        p.fingerprint = stream.fingerprint();
        p.stages.pop();
        assert!(matches!(
            p.validate(&stream),
            Err(PlanError::StageCountMismatch { .. })
        ));

        let mut p = plan.clone();
        p.stages[1].assignments.pop();
        assert!(matches!(
            p.validate(&stream),
            Err(PlanError::StageLenMismatch { stage: 1, .. })
        ));

        let mut p = plan.clone();
        p.stages[0].assignments[0].task = TaskId(u64::MAX);
        assert!(matches!(
            p.validate(&stream),
            Err(PlanError::TaskMismatch {
                stage: 0,
                index: 0,
                ..
            })
        ));

        let mut p = plan.clone();
        p.stages[0].assignments[0].gpu = GpuId(99);
        assert!(matches!(
            p.validate(&stream),
            Err(PlanError::GpuOutOfRange { .. })
        ));

        assert!(matches!(
            plan.validate_for(&stream, plan.num_gpus + 1),
            Err(PlanError::DeviceCountMismatch { .. })
        ));
        assert_eq!(plan.validate_for(&stream, plan.num_gpus), Ok(()));
    }

    #[test]
    fn repair_moves_every_orphan_onto_survivors() {
        let (stream, plan) = plan_fixture();
        let repaired = repair_plan(&plan, &[GpuId(1)]).unwrap();
        assert_eq!(repaired.validate(&stream), Ok(()));
        assert_eq!(repaired.num_gpus, plan.num_gpus);
        assert_eq!(repaired.fingerprint, plan.fingerprint);
        assert!(repaired
            .flat_assignments()
            .iter()
            .all(|a| a.gpu != GpuId(1)));
        assert_eq!(repaired.total_tasks(), plan.total_tasks());
        assert!(repaired.scheduler.ends_with("+repair(lost=1)"));
        // bounds metadata is untouched by the repair
        for (r, p) in repaired.stages.iter().zip(&plan.stages) {
            assert_eq!(r.bounds, p.bounds);
        }
    }

    #[test]
    fn repair_is_deterministic_and_balances_load() {
        let (_, plan) = plan_fixture();
        let a = repair_plan(&plan, &[GpuId(0)]).unwrap();
        let b = repair_plan(&plan, &[GpuId(0)]).unwrap();
        assert_eq!(a, b);
        // per stage, survivor loads stay within one task of each other
        // when the original placement was balanced (round-robin fixture)
        for stage in &a.stages {
            let mut load = vec![0usize; a.num_gpus];
            for asg in &stage.assignments {
                load[asg.gpu.0] += 1;
            }
            let survivors: Vec<usize> = load[1..].to_vec();
            let max = survivors.iter().max().copied().unwrap_or(0);
            let min = survivors.iter().min().copied().unwrap_or(0);
            assert!(max - min <= 1, "greedy repair must re-balance: {load:?}");
        }
    }

    #[test]
    fn repaired_plan_roundtrips_through_text() {
        let (stream, plan) = plan_fixture();
        let repaired = repair_plan(&plan, &[GpuId(2), GpuId(0)]).unwrap();
        assert!(repaired.scheduler.contains("+repair(lost=0,2)"));
        let back = SchedulePlan::from_text(&repaired.to_text()).unwrap();
        assert_eq!(repaired, back);
        assert_eq!(back.validate(&stream), Ok(()));
    }

    #[test]
    fn repair_rejects_degenerate_inputs() {
        let (_, plan) = plan_fixture();
        assert_eq!(repair_plan(&plan, &[]), Err(RepairError::NothingLost));
        assert_eq!(
            repair_plan(&plan, &[GpuId(9)]),
            Err(RepairError::LostGpuOutOfRange {
                gpu: 9,
                num_gpus: plan.num_gpus
            })
        );
        assert_eq!(
            repair_plan(&plan, &[GpuId(0), GpuId(1), GpuId(2)]),
            Err(RepairError::NoSurvivors)
        );
        assert!(RepairError::NoSurvivors.to_string().contains("survivor"));
    }

    #[test]
    fn error_displays_are_informative() {
        let e = PlanError::FingerprintMismatch { plan: 1, stream: 2 };
        assert!(e.to_string().contains("fingerprint"));
        let e = PlanFormatError::MissingField { field: "gpus" };
        assert!(e.to_string().contains("gpus"));
    }

    #[test]
    fn digest_streams_the_exact_serialised_bytes() {
        let (_, plan) = plan_fixture();
        // digest() hashes through the streaming serialiser; it must equal
        // FNV-1a over the exact to_text() bytes
        let mut h = Fnv::new();
        for b in plan.to_text().bytes() {
            h.mix_byte(b);
        }
        assert_eq!(plan.digest(), h.0);
    }

    #[test]
    fn plan_key_raw_roundtrip() {
        let (stream, _) = plan_fixture();
        let cfg = MachineConfig::mi100_like(3);
        let key = PlanCache::key_for_with_topology(
            &RoundRobinScheduler::new(),
            &stream,
            &cfg,
            DriverOptions::default(),
            None,
        );
        assert_eq!(PlanKey::from_raw(key.raw()), key);
    }
}
