//! The abstract interpreter: replay a plan symbolically and check MICCO's
//! invariants.
//!
//! The semantic pass drives the same [`SimMachine`] state-transition
//! function that `micco_core::Session::plan` used to decide the plan, so
//! the residency and occupancy state the checks observe at step *k* is
//! bit-for-bit the state the scheduler saw when it made decision *k*. The
//! reuse/balance rules mirror Alg. 1's candidate construction exactly —
//! including the step fall-through and the least-loaded fallback — which
//! is what makes them *sound*: a plan produced by any of the repo's
//! schedulers under a non-oversubscribed machine never trips a warning
//! (the mutation proptest in `tests/analysis_properties.rs` enforces
//! this), while seeded violations are flagged with their exact code.

use std::collections::HashMap;

use micco_core::pattern::classify;
use micco_core::{ReuseBounds, SchedulePlan};
use micco_gpusim::{
    EvictionPolicy, ExecError, ExecObserver, GpuId, LinkTopology, MachineConfig, SimMachine,
};
use micco_workload::{ContractionTask, TensorId, TensorPairStream};

use crate::diag::{Code, Diagnostic, Report};

/// Tunables of the semantic pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// `MICCO-W201`: a re-fetch within this many tasks of the eviction
    /// counts as thrash. `0` disables the check.
    pub thrash_window: u64,
    /// `MICCO-W102`: tolerated slots beyond `max(bounds) + balanceNum`
    /// before the cap counts as exceeded. Assignments move two slots at a
    /// time and the availability gate is strict, so a legitimate final
    /// placement can overshoot the cap by up to two slots — the default
    /// slack of 2 makes valid schedules clean.
    pub balance_slack: usize,
    /// Run the reuse-aware checks (`W101`/`W102`/`W202`). They only fire
    /// on stages that recorded bounds; disable to lint bound-free plans
    /// for memory behaviour alone.
    pub check_reuse: bool,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            thrash_window: 32,
            balance_slack: 2,
            check_reuse: true,
        }
    }
}

/// One stage of placements for [`analyze_placements`]: the bounds in
/// effect (if any) and each task with its chosen device, in stream order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct PlacedStage {
    /// Reuse bounds the stage was decided under (`None` for bound-free
    /// schedulers — disables the reuse/balance checks for the stage).
    pub(crate) bounds: Option<ReuseBounds>,
    /// `(task, device)` placements in execution order.
    pub(crate) placements: Vec<(ContractionTask, GpuId)>,
}

/// 1-based line of stage `s`'s `stage` marker in the canonical plan text
/// produced by [`SchedulePlan::to_text`] (header block is 5 lines).
fn stage_line(plan: &SchedulePlan, stage: usize) -> usize {
    let mut line = 5;
    for st in plan.stages.iter().take(stage) {
        line += 1 + st.assignments.len();
    }
    line + 1
}

/// 1-based line of assignment `index` of stage `stage` in the canonical
/// plan text.
fn assignment_line(plan: &SchedulePlan, stage: usize, index: usize) -> usize {
    stage_line(plan, stage) + 1 + index
}

/// How far a plan got through [`placed_stages`] before it was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Refused {
    /// `E004`, or an `E003` on the stage count: nothing lines up.
    Plan,
    /// `E003`/`E002` within stages that line up with the stream's.
    Placements,
}

/// The structural gate the linter and the certifier share: `E004` when
/// the plan was decided for another stream, `E003` for every stage or task
/// that does not line up with the stream's, and `E002` for every placement
/// outside the plan's own device geometry. A plan that passes comes back
/// as its placements, to replay on a machine with the plan's device count;
/// a plan that disagrees with the stream's shape has no meaningful replay.
pub(crate) fn placed_stages(
    plan: &SchedulePlan,
    stream: &TensorPairStream,
    report: &mut Report,
) -> Result<Vec<PlacedStage>, Refused> {
    let fp = stream.fingerprint();
    if plan.fingerprint != fp {
        report.push(
            Diagnostic::new(
                Code::FingerprintMismatch,
                format!(
                    "plan fingerprint {:#x} does not match stream fingerprint {fp:#x}",
                    plan.fingerprint
                ),
            )
            .at_line(4)
            .with("plan", plan.fingerprint)
            .with("stream", fp),
        );
        return Err(Refused::Plan);
    }
    if plan.stages.len() != stream.vectors().len() {
        report.push(
            Diagnostic::new(
                Code::PlanStructureMismatch,
                format!(
                    "plan has {} stages, stream has {} vectors",
                    plan.stages.len(),
                    stream.vectors().len()
                ),
            )
            .with("plan_stages", plan.stages.len())
            .with("stream_vectors", stream.vectors().len()),
        );
        return Err(Refused::Plan);
    }

    let mut structural_ok = true;
    for (s, (stage, vector)) in plan.stages.iter().zip(stream.vectors()).enumerate() {
        if stage.assignments.len() != vector.tasks.len() {
            report.push(
                Diagnostic::new(
                    Code::PlanStructureMismatch,
                    format!(
                        "stage {s}: plan assigns {} tasks, vector has {}",
                        stage.assignments.len(),
                        vector.tasks.len()
                    ),
                )
                .at_stage(s)
                .at_line(stage_line(plan, s))
                .with("plan_len", stage.assignments.len())
                .with("vector_len", vector.tasks.len()),
            );
            structural_ok = false;
            continue;
        }
        for (i, (a, t)) in stage.assignments.iter().zip(&vector.tasks).enumerate() {
            if a.task != t.id {
                report.push(
                    Diagnostic::new(
                        Code::PlanStructureMismatch,
                        format!(
                            "stage {s} position {i}: plan assigns task {}, stream has task {}",
                            a.task.0, t.id.0
                        ),
                    )
                    .at(s, i)
                    .for_task(a.task)
                    .at_line(assignment_line(plan, s, i))
                    .with("plan_task", a.task.0)
                    .with("stream_task", t.id.0),
                );
                structural_ok = false;
            }
            if a.gpu.0 >= plan.num_gpus {
                report.push(
                    Diagnostic::new(
                        Code::AssignmentOutOfRange,
                        format!(
                            "stage {s} position {i}: task {} assigned to gpu {} but the plan targets {} devices",
                            a.task.0, a.gpu.0, plan.num_gpus
                        ),
                    )
                    .at(s, i)
                    .for_task(a.task)
                    .on_gpu(a.gpu)
                    .at_line(assignment_line(plan, s, i))
                    .with("gpu", a.gpu.0)
                    .with("num_gpus", plan.num_gpus),
                );
                structural_ok = false;
            }
        }
    }
    if !structural_ok {
        return Err(Refused::Placements);
    }
    Ok(plan
        .stages
        .iter()
        .zip(stream.vectors())
        .map(|(st, v)| PlacedStage {
            bounds: st.bounds,
            placements: v
                .tasks
                .iter()
                .cloned()
                .zip(st.assignments.iter().map(|a| a.gpu))
                .collect(),
        })
        .collect())
}

/// Analyze a plan against the stream and machine it is meant to run on,
/// with default [`AnalysisConfig`] and no link topology.
pub fn analyze_plan(plan: &SchedulePlan, stream: &TensorPairStream, cfg: &MachineConfig) -> Report {
    analyze_plan_with(plan, stream, cfg, &AnalysisConfig::default(), None)
}

/// [`analyze_plan`] with explicit tunables and an optional link topology.
///
/// Runs the structural gate first (`E002`–`E004`, plus `E005` when the
/// plan's device count differs from the machine's); only a structurally
/// clean plan is replayed semantically (`E001`, `W1xx`, `W2xx`, `I301`),
/// on the plan's device geometry. Diagnostics from the semantic pass are
/// anchored to lines of the canonical plan text.
///
/// With a topology, every device-to-device fetch is also routed
/// symbolically, and `MICCO-W204` fires when the machine's chosen source
/// crosses an NVLink island although another device on the destination's
/// own island also held the operand — the expensive hop was avoidable
/// without changing the placement. `topology: None`, a single-island
/// topology or one for another device count leave the flat diagnostics
/// exactly as they are.
pub fn analyze_plan_with(
    plan: &SchedulePlan,
    stream: &TensorPairStream,
    cfg: &MachineConfig,
    acfg: &AnalysisConfig,
    topology: Option<&LinkTopology>,
) -> Report {
    let mut report = Report::new();

    // Lineage check before the structural gate: a repaired plan carries a
    // `+repair(lost=…)` marker in its scheduler line, and the degraded
    // placement is worth flagging even when the plan is otherwise broken.
    if plan.scheduler.contains("+repair(") {
        report.push(
            Diagnostic::new(
                Code::DegradedPlacement,
                format!(
                    "plan was repaired onto surviving devices ({}); placements no longer \
                     reflect the original scheduler's reuse/balance decisions",
                    plan.scheduler
                ),
            )
            .at_line(2)
            .with("scheduler", &plan.scheduler),
        );
    }

    let placed = placed_stages(plan, stream, &mut report);
    if matches!(placed, Err(Refused::Plan)) {
        return report;
    }
    let mut machine_cfg = *cfg;
    if plan.num_gpus != cfg.num_gpus {
        report.push(
            Diagnostic::new(
                Code::DeviceCountMismatch,
                format!(
                    "plan targets {} devices but the machine has {} (semantic pass uses the plan's geometry)",
                    plan.num_gpus, cfg.num_gpus
                ),
            )
            .at_line(3)
            .with("plan", plan.num_gpus)
            .with("machine", cfg.num_gpus),
        );
        machine_cfg.num_gpus = plan.num_gpus;
    }
    let Ok(stages) = placed else {
        return report;
    };
    let mut semantic = analyze_placements(&stages, &machine_cfg, acfg, topology);
    for d in &mut semantic.diagnostics {
        if let (Some(s), Some(i)) = (d.stage, d.index) {
            d.line = Some(assignment_line(plan, s, i));
        }
    }
    report.extend(semantic);
    report
}

/// What the replay observer needs to remember about one task's execution.
enum MemEvent {
    /// Tensor fetched onto a device (h2d or d2d — either re-populates
    /// residency after an eviction).
    Fetch { gpu: usize, tensor: TensorId },
    /// Tensor evicted from a device; `writeback` when the eviction
    /// actually paid a host write-back.
    Evict {
        gpu: usize,
        tensor: TensorId,
        writeback: bool,
    },
}

/// [`ExecObserver`] that records the memory traffic of one task.
#[derive(Default)]
struct Collector {
    events: Vec<MemEvent>,
    /// Device-to-device fetches as `(src, dst, tensor)`, kept separately
    /// with their source for the topology pass (W204).
    d2d: Vec<(usize, usize, TensorId)>,
}

impl ExecObserver for Collector {
    fn h2d(&mut self, gpu: GpuId, tensor: TensorId) {
        self.events.push(MemEvent::Fetch { gpu: gpu.0, tensor });
    }

    fn d2d(&mut self, src: GpuId, dst: GpuId, tensor: TensorId) {
        self.events.push(MemEvent::Fetch { gpu: dst.0, tensor });
        self.d2d.push((src.0, dst.0, tensor));
    }

    fn evict(&mut self, gpu: GpuId, tensor: TensorId, writeback: bool, _bytes: u64) {
        self.events.push(MemEvent::Evict {
            gpu: gpu.0,
            tensor,
            writeback,
        });
    }
}

/// The semantic pass over placements that passed [`placed_stages`]:
/// replays every stage through a fresh [`SimMachine`] built from `cfg`
/// (whose device count is the plan's) and checks capacity (`E001`), reuse
/// bounds (`W101`), balance caps (`W102`), avoidable cross-island fetches
/// (`W204`, under a matching multi-island `topology`), eviction thrash
/// (`W201`), missed reuse (`W202`) and dead write-backs (`I301`).
pub(crate) fn analyze_placements(
    stages: &[PlacedStage],
    cfg: &MachineConfig,
    acfg: &AnalysisConfig,
    topology: Option<&LinkTopology>,
) -> Report {
    let mut report = Report::new();
    let num_gpus = cfg.num_gpus;
    if num_gpus == 0 {
        return report;
    }
    // the route check only makes sense when the topology matches the
    // machine and actually has more than one island to cross
    let topo = topology.filter(|t| t.num_gpus() == num_gpus && !t.is_single_island());

    // Global next-use index (operand positions only), for W201 windows and
    // I301 dead write-backs.
    let mut uses: HashMap<TensorId, Vec<u64>> = HashMap::new();
    let mut idx = 0u64;
    for stage in stages {
        for (task, _) in &stage.placements {
            uses.entry(task.a.id).or_default().push(idx);
            uses.entry(task.b.id).or_default().push(idx);
            idx += 1;
        }
    }
    let used_after = |t: TensorId, after: u64| -> bool {
        uses.get(&t)
            .is_some_and(|v| v.last().is_some_and(|&last| last > after))
    };

    let mut machine = replay_machine(stages, cfg);

    // (gpu, tensor) → global index of the most recent eviction.
    let mut evicted_at: HashMap<(usize, TensorId), u64> = HashMap::new();
    let mut global = 0u64;

    for (s, stage) in stages.iter().enumerate() {
        let slots_total = 2 * stage.placements.len();
        let balance = if slots_total == 0 {
            1
        } else {
            slots_total.div_ceil(num_gpus).max(1)
        };
        let mut slots = vec![0usize; num_gpus];

        for (i, (task, gpu)) in stage.placements.iter().enumerate() {
            let g = gpu.0;

            if acfg.check_reuse {
                if let Some(bounds) = stage.bounds {
                    check_reuse_rules(
                        &mut report,
                        &machine,
                        task,
                        *gpu,
                        bounds,
                        &slots,
                        balance,
                        s,
                        i,
                    );
                }
            }

            // Pre-execution residency for the W204 route check: exactly
            // the holder sets the machine chooses its transfer source from.
            let pre_holders = topo.map(|_| classify(task, &machine));

            let mut collector = Collector::default();
            match machine.execute_observed(task, *gpu, &mut collector) {
                Ok(()) => {}
                Err(ExecError::OutOfMemory {
                    gpu: oom_gpu,
                    source,
                }) => {
                    let micco_gpusim::memory::AllocError::WontFit {
                        requested,
                        capacity,
                    } = source;
                    report.push(
                        Diagnostic::new(
                            Code::CapacityExceeded,
                            format!(
                                "stage {s} position {i}: task {} needs {requested} B on gpu {} but only {capacity} B of capacity can be freed",
                                task.id.0, oom_gpu.0
                            ),
                        )
                        .at(s, i)
                        .for_task(task.id)
                        .on_gpu(oom_gpu)
                        .with("requested", requested)
                        .with("capacity", capacity),
                    );
                }
                Err(ExecError::BadGpu { gpu: bad, num_gpus }) => {
                    // Screened by the structural gate; keep a defensive
                    // report rather than panicking if the gate and the
                    // machine disagree.
                    report.push(
                        Diagnostic::new(
                            Code::AssignmentOutOfRange,
                            format!(
                                "stage {s} position {i}: machine rejected gpu {} ({num_gpus} devices)",
                                bad.0
                            ),
                        )
                        .at(s, i)
                        .for_task(task.id)
                        .on_gpu(bad),
                    );
                }
                Err(ExecError::DeviceLost { .. }) => {
                    // The analysis machine never arms a FaultPlan, so this
                    // arm is unreachable; skip the placement defensively.
                }
            }

            if let (Some(t), Some(class)) = (topo, &pre_holders) {
                for &(src, dst, tensor) in &collector.d2d {
                    if !t.crosses_island(src, dst) {
                        continue;
                    }
                    let holders: &[GpuId] = if tensor == task.a.id {
                        &class.holders_a
                    } else if tensor == task.b.id {
                        &class.holders_b
                    } else {
                        continue;
                    };
                    let Some(alt) = holders
                        .iter()
                        .find(|h| h.0 != dst && t.same_island(h.0, dst))
                    else {
                        continue;
                    };
                    report.push(
                        Diagnostic::new(
                            Code::CrossIslandTransfer,
                            format!(
                                "tensor {} fetched onto gpu {dst} from gpu {src} (island {} → {}) although gpu {} on the same island also holds it",
                                tensor.0,
                                t.island_of(src),
                                t.island_of(dst),
                                alt.0
                            ),
                        )
                        .at(s, i)
                        .for_task(task.id)
                        .on_gpu(*gpu)
                        .with("tensor", tensor.0)
                        .with("src", src)
                        .with("dst", dst)
                        .with("src_island", t.island_of(src))
                        .with("dst_island", t.island_of(dst))
                        .with("same_island_holder", alt.0),
                    );
                }
            }

            for event in collector.events {
                match event {
                    MemEvent::Fetch { gpu: fg, tensor } => {
                        if let Some(evicted) = evicted_at.remove(&(fg, tensor)) {
                            let distance = global - evicted;
                            if acfg.thrash_window > 0 && distance <= acfg.thrash_window {
                                report.push(
                                    Diagnostic::new(
                                        Code::EvictionThrash,
                                        format!(
                                            "tensor {} re-fetched onto gpu {fg} only {distance} task(s) after being evicted from it",
                                            tensor.0
                                        ),
                                    )
                                    .at(s, i)
                                    .for_task(task.id)
                                    .on_gpu(GpuId(fg))
                                    .with("tensor", tensor.0)
                                    .with("evicted_at", evicted)
                                    .with("refetched_at", global)
                                    .with("distance", distance),
                                );
                            }
                        }
                    }
                    MemEvent::Evict {
                        gpu: eg,
                        tensor,
                        writeback,
                    } => {
                        evicted_at.insert((eg, tensor), global);
                        if writeback && !used_after(tensor, global) {
                            report.push(
                                Diagnostic::new(
                                    Code::DeadTransfer,
                                    format!(
                                        "tensor {} written back to the host on eviction from gpu {eg} but never used again",
                                        tensor.0
                                    ),
                                )
                                .at(s, i)
                                .for_task(task.id)
                                .on_gpu(GpuId(eg))
                                .with("tensor", tensor.0)
                                .with("evicted_at", global),
                            );
                        }
                    }
                }
            }

            slots[g] += 2;
            if acfg.check_reuse {
                if let Some(bounds) = stage.bounds {
                    let max_bound = bounds.get(0).max(bounds.get(1)).max(bounds.get(2));
                    let cap = max_bound
                        .saturating_add(balance)
                        .saturating_add(acfg.balance_slack);
                    if slots[g] > cap {
                        report.push(
                            Diagnostic::new(
                                Code::BalanceCapExceeded,
                                format!(
                                    "gpu {g} carries {} tensor slots this stage, above the cap of {cap} (max bound {max_bound} + balance {balance} + slack {})",
                                    slots[g], acfg.balance_slack
                                ),
                            )
                            .at(s, i)
                            .for_task(task.id)
                            .on_gpu(*gpu)
                            .with("slots", slots[g])
                            .with("cap", cap)
                            .with("max_bound", max_bound)
                            .with("balance", balance),
                        );
                    }
                }
            }

            global += 1;
        }
        machine.barrier();
    }
    report
}

/// A fresh machine built from `cfg` to replay `stages` on. Under the
/// clairvoyant policy its oracle is armed with the placements in order,
/// mirroring what an oracle-armed planning pass would see.
pub(crate) fn replay_machine(stages: &[PlacedStage], cfg: &MachineConfig) -> SimMachine {
    let machine = SimMachine::new(*cfg);
    if cfg.eviction != EvictionPolicy::Clairvoyant {
        return machine;
    }
    let vectors = stages
        .iter()
        .map(|s| micco_workload::Vector::new(s.placements.iter().map(|(t, _)| t.clone()).collect()))
        .collect();
    machine.with_oracle(&TensorPairStream::new(vectors))
}

/// The `W101`/`W202` checks for one placement, against the pre-execution
/// machine state — exactly what the scheduler saw when deciding.
///
/// Mirrors Alg. 1's candidate construction: step I offers both-holder
/// devices gated by bound 0; if none qualify, step II offers single-holder
/// devices gated by bound 1; if none qualify, any device gated by bound 2;
/// if still none, the least-loaded fallback. A placement is
///
/// * `W202` (missed reuse) when a holder step produced candidates and the
///   chosen device is not among them — reuse the bounds allowed was left
///   on the table;
/// * `W101` (bound violated) when the chosen device fails **every** gate
///   applicable to it and is not the least-loaded fallback — no step of
///   the algorithm could have produced it.
#[allow(clippy::too_many_arguments)]
fn check_reuse_rules(
    report: &mut Report,
    machine: &SimMachine,
    task: &ContractionTask,
    gpu: GpuId,
    bounds: ReuseBounds,
    slots: &[usize],
    balance: usize,
    stage: usize,
    index: usize,
) {
    let g = gpu.0;
    let available = |d: usize, bound: usize| slots[d] < bound.saturating_add(balance);
    let class = classify(task, machine);

    // W202: a holder step offered candidates the plan ignored.
    let step1: Vec<usize> = class
        .holders_both
        .iter()
        .map(|h| h.0)
        .filter(|&d| available(d, bounds.get(0)))
        .collect();
    if !step1.is_empty() {
        if !step1.contains(&g) {
            report.push(
                Diagnostic::new(
                    Code::MissedReuse,
                    format!(
                        "task {} ({}) placed on gpu {g} although device(s) {:?} hold both operands within bound {}",
                        task.id.0, class.pattern, step1, bounds.get(0)
                    ),
                )
                .at(stage, index)
                .for_task(task.id)
                .on_gpu(gpu)
                .with("pattern", class.pattern)
                .with("candidates", format!("{step1:?}"))
                .with("bound", bounds.get(0)),
            );
        }
    } else {
        let mut step2: Vec<usize> = Vec::new();
        for h in class.holders_a.iter().chain(&class.holders_b) {
            if available(h.0, bounds.get(1)) && !step2.contains(&h.0) {
                step2.push(h.0);
            }
        }
        if !step2.is_empty() && !step2.contains(&g) {
            report.push(
                Diagnostic::new(
                    Code::MissedReuse,
                    format!(
                        "task {} ({}) placed on gpu {g} although device(s) {:?} hold an operand within bound {}",
                        task.id.0, class.pattern, step2, bounds.get(1)
                    ),
                )
                .at(stage, index)
                .for_task(task.id)
                .on_gpu(gpu)
                .with("pattern", class.pattern)
                .with("candidates", format!("{step2:?}"))
                .with("bound", bounds.get(1)),
            );
        }
    }

    // W101: the chosen device fails every gate that could have admitted it.
    let is_holder_both = class.holders_both.iter().any(|h| h.0 == g);
    let is_holder_one =
        class.holders_a.iter().any(|h| h.0 == g) || class.holders_b.iter().any(|h| h.0 == g);
    let mut passes = available(g, bounds.get(2));
    if !passes && is_holder_both {
        passes = available(g, bounds.get(0));
    }
    if !passes && is_holder_one {
        passes = available(g, bounds.get(1));
    }
    let least_loaded = slots
        .iter()
        .enumerate()
        .min_by_key(|(d, &n)| (n, *d))
        .map(|(d, _)| d)
        .unwrap_or(0);
    if !passes && g != least_loaded {
        report.push(
            Diagnostic::new(
                Code::ReuseBoundViolated,
                format!(
                    "task {} placed on gpu {g} with {} slots already assigned — every availability gate of bounds {bounds} (balance {balance}) fails and gpu {least_loaded} is less loaded",
                    task.id.0, slots[g]
                ),
            )
            .at(stage, index)
            .for_task(task.id)
            .on_gpu(gpu)
            .with("slots", slots[g])
            .with("bounds", bounds)
            .with("balance", balance)
            .with("least_loaded", least_loaded),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use micco_core::{MiccoScheduler, RoundRobinScheduler, Session};
    use micco_workload::{TaskId, TensorDesc, WorkloadSpec};

    const MB: u64 = 1 << 20;

    fn task(id: u64, a: u64, b: u64, out: u64, bytes: u64) -> ContractionTask {
        ContractionTask {
            id: TaskId(id),
            a: TensorDesc {
                id: TensorId(a),
                bytes,
            },
            b: TensorDesc {
                id: TensorId(b),
                bytes,
            },
            out: TensorDesc {
                id: TensorId(out),
                bytes,
            },
            flops: 1_000_000,
        }
    }

    fn stage_of(
        bounds: Option<ReuseBounds>,
        placements: Vec<(ContractionTask, usize)>,
    ) -> PlacedStage {
        PlacedStage {
            bounds,
            placements: placements.into_iter().map(|(t, g)| (t, GpuId(g))).collect(),
        }
    }

    fn small_cfg(gpus: usize, mem: u64) -> MachineConfig {
        MachineConfig::mi100_like(gpus).with_mem_bytes(mem)
    }

    #[test]
    fn clean_plan_is_clean() {
        let stream = WorkloadSpec::new(16, 96)
            .with_repeat_rate(0.7)
            .with_vectors(3)
            .with_seed(7)
            .generate();
        let cfg = MachineConfig::mi100_like(3);
        for plan in [
            Session::new(cfg)
                .plan(&mut RoundRobinScheduler::new(), &stream)
                .unwrap()
                .into_plan(),
            Session::new(cfg)
                .plan(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
                .unwrap()
                .into_plan(),
        ] {
            let r = analyze_plan(&plan, &stream, &cfg);
            assert!(
                !r.denies(crate::diag::Severity::Warning),
                "valid plan flagged: {}",
                r.render_text()
            );
        }
    }

    #[test]
    fn capacity_violation_yields_e001_with_coordinates() {
        // one device, 4 MB capacity: a task with a 6 MB working set cannot
        // fit even on an empty device
        let cfg = small_cfg(1, 4 * MB);
        let stages = vec![stage_of(None, vec![(task(0, 1, 2, 3, 2 * MB), 0)])];
        let r = analyze_placements(&stages, &cfg, &AnalysisConfig::default(), None);
        let hits = r.with_code(Code::CapacityExceeded);
        assert_eq!(hits.len(), 1);
        assert_eq!((hits[0].stage, hits[0].index), (Some(0), Some(0)));
        assert_eq!(hits[0].task, Some(TaskId(0)));
        assert_eq!(hits[0].gpu, Some(GpuId(0)));
    }

    #[test]
    fn replay_continues_past_oom() {
        // the second task fits fine; the failed first task must not pin the
        // device shut
        let cfg = small_cfg(1, 4 * MB);
        let stages = vec![stage_of(
            None,
            vec![(task(0, 1, 2, 3, 2 * MB), 0), (task(1, 10, 11, 12, MB), 0)],
        )];
        let r = analyze_placements(&stages, &cfg, &AnalysisConfig::default(), None);
        assert_eq!(r.with_code(Code::CapacityExceeded).len(), 1);
    }

    #[test]
    fn out_of_range_yields_e002_and_skips_replay() {
        let stream = WorkloadSpec::new(4, 32).with_vectors(1).generate();
        let cfg = MachineConfig::mi100_like(2);
        let mut plan = Session::new(cfg)
            .plan(&mut RoundRobinScheduler::new(), &stream)
            .unwrap()
            .into_plan();
        plan.stages[0].assignments[0].gpu = GpuId(5);
        // out of range AND every task would overflow this memory
        let r = analyze_plan(&plan, &stream, &cfg.with_mem_bytes(1));
        assert!(r.has(Code::AssignmentOutOfRange));
        assert!(!r.has(Code::CapacityExceeded), "replay must be skipped");
        let d = &r.with_code(Code::AssignmentOutOfRange)[0];
        assert_eq!(d.gpu, Some(GpuId(5)));
    }

    #[test]
    fn pile_up_with_tight_bounds_yields_w101_and_w102() {
        // 4 fresh pairs, 2 devices, bounds (0,0,0): balance = 4. Piling all
        // on gpu0 exceeds every gate from the third pair on.
        let cfg = MachineConfig::mi100_like(2);
        let bounds = Some(ReuseBounds::naive());
        let placements = (0..4u64)
            .map(|i| (task(i, 100 + 2 * i, 101 + 2 * i, 200 + i, MB), 0))
            .collect();
        let stages = vec![stage_of(bounds, placements)];
        let r = analyze_placements(&stages, &cfg, &AnalysisConfig::default(), None);
        assert!(r.has(Code::ReuseBoundViolated), "{}", r.render_text());
        assert!(r.has(Code::BalanceCapExceeded), "{}", r.render_text());
        let w101 = &r.with_code(Code::ReuseBoundViolated)[0];
        assert_eq!(w101.stage, Some(0));
        assert_eq!(w101.gpu, Some(GpuId(0)));
    }

    #[test]
    fn off_holder_placement_yields_w202() {
        // warm gpu0 with tensors 1,2 in stage 0; stage 1 places the reusing
        // pair on gpu1 although gpu0 qualifies under generous bounds
        let cfg = MachineConfig::mi100_like(2);
        let stages = vec![
            stage_of(None, vec![(task(0, 1, 2, 3, MB), 0)]),
            stage_of(
                Some(ReuseBounds::new(4, 4, 4)),
                vec![(task(1, 1, 2, 4, MB), 1)],
            ),
        ];
        let r = analyze_placements(&stages, &cfg, &AnalysisConfig::default(), None);
        let hits = r.with_code(Code::MissedReuse);
        assert_eq!(hits.len(), 1);
        assert_eq!((hits[0].stage, hits[0].index), (Some(1), Some(0)));
        // and the same placement raises no W202 when the stage has no bounds
        let stages_unbounded = vec![
            stage_of(None, vec![(task(0, 1, 2, 3, MB), 0)]),
            stage_of(None, vec![(task(1, 1, 2, 4, MB), 1)]),
        ];
        let r2 = analyze_placements(&stages_unbounded, &cfg, &AnalysisConfig::default(), None);
        assert!(!r2.has(Code::MissedReuse));
    }

    #[test]
    fn thrash_and_dead_writeback_detected_under_pressure() {
        // capacity fits ~3 tensors of 1 MB (plus a little): alternate two
        // working sets so the machine keeps evicting what it re-fetches
        let cfg = small_cfg(1, 3 * MB + MB / 2);
        let mut placements = Vec::new();
        for round in 0..3u64 {
            placements.push((task(2 * round, 1, 2, 100 + 2 * round, MB), 0));
            placements.push((task(2 * round + 1, 3, 4, 101 + 2 * round, MB), 0));
        }
        let stages = vec![stage_of(None, placements)];
        let r = analyze_placements(&stages, &cfg, &AnalysisConfig::default(), None);
        assert!(r.has(Code::EvictionThrash), "{}", r.render_text());
        // outputs (device-created, never operands) get written back on
        // eviction although nothing ever reads them again
        assert!(r.has(Code::DeadTransfer), "{}", r.render_text());
        // a window of zero disables the thrash check
        let quiet = AnalysisConfig {
            thrash_window: 0,
            ..AnalysisConfig::default()
        };
        assert!(!analyze_placements(&stages, &cfg, &quiet, None).has(Code::EvictionThrash));
    }

    #[test]
    fn structural_mismatches_are_typed() {
        let stream = WorkloadSpec::new(4, 32).with_vectors(2).generate();
        let cfg = MachineConfig::mi100_like(2);
        let plan = Session::new(cfg)
            .plan(&mut RoundRobinScheduler::new(), &stream)
            .unwrap()
            .into_plan();

        let mut fp = plan.clone();
        fp.fingerprint ^= 1;
        assert!(analyze_plan(&fp, &stream, &cfg).has(Code::FingerprintMismatch));

        let mut missing = plan.clone();
        missing.stages.pop();
        assert!(analyze_plan(&missing, &stream, &cfg).has(Code::PlanStructureMismatch));

        let mut short = plan.clone();
        short.stages[1].assignments.pop();
        let r = analyze_plan(&short, &stream, &cfg);
        let d = &r.with_code(Code::PlanStructureMismatch)[0];
        assert_eq!(d.stage, Some(1));

        let mut wrong_task = plan.clone();
        wrong_task.stages[0].assignments[1].task = TaskId(9999);
        let r = analyze_plan(&wrong_task, &stream, &cfg);
        let d = &r.with_code(Code::PlanStructureMismatch)[0];
        assert_eq!((d.stage, d.index), (Some(0), Some(1)));

        let mut oob = plan.clone();
        oob.stages[0].assignments[0].gpu = GpuId(99);
        let r = analyze_plan(&oob, &stream, &cfg);
        let d = &r.with_code(Code::AssignmentOutOfRange)[0];
        assert_eq!((d.stage, d.index), (Some(0), Some(0)));

        let r = analyze_plan(&plan, &stream, &MachineConfig::mi100_like(4));
        assert!(r.has(Code::DeviceCountMismatch));
    }

    #[test]
    fn plan_text_lines_anchor_diagnostics() {
        let stream = WorkloadSpec::new(4, 32)
            .with_vectors(2)
            .with_seed(3)
            .generate();
        let cfg = MachineConfig::mi100_like(2);
        let mut plan = Session::new(cfg)
            .plan(&mut RoundRobinScheduler::new(), &stream)
            .unwrap()
            .into_plan();
        plan.stages[1].assignments[2].gpu = GpuId(77);
        let r = analyze_plan(&plan, &stream, &cfg);
        let d = &r.with_code(Code::AssignmentOutOfRange)[0];
        let line = d.line.expect("line attached");
        // the reported line in the canonical text really is that assignment
        let text = plan.to_text();
        let row = text.lines().nth(line - 1).expect("line exists");
        assert_eq!(row, format!("assign {} 77", d.task.expect("task").0));
    }

    #[test]
    fn clairvoyant_policy_replays_with_oracle() {
        let cfg = MachineConfig {
            eviction: EvictionPolicy::Clairvoyant,
            ..small_cfg(1, 4 * MB)
        };
        let stages = vec![stage_of(
            None,
            vec![(task(0, 1, 2, 100, MB), 0), (task(1, 1, 2, 101, MB), 0)],
        )];
        let r = analyze_placements(&stages, &cfg, &AnalysisConfig::default(), None);
        assert!(!r.has(Code::CapacityExceeded));
    }

    #[test]
    fn empty_plan_is_clean() {
        let stages: Vec<PlacedStage> = Vec::new();
        let cfg = MachineConfig::mi100_like(2);
        assert!(analyze_placements(&stages, &cfg, &AnalysisConfig::default(), None).is_clean());
    }

    #[test]
    fn cross_island_fetch_with_near_holder_yields_w204() {
        // 4 GPUs in two 2-GPU islands {0,1} and {2,3}. Warm tensor 1 on
        // gpus 0 and 3, then use it on gpu 2: the machine fetches from the
        // lowest-id holder (gpu 0, across the island boundary) although
        // gpu 3 on gpu 2's own island also holds it.
        let cfg = MachineConfig::mi100_like(4);
        let topo = LinkTopology::nvlink(4, 2);
        let stages = vec![
            stage_of(None, vec![(task(0, 1, 2, 100, MB), 0)]),
            stage_of(None, vec![(task(1, 1, 3, 101, MB), 3)]),
            stage_of(None, vec![(task(2, 1, 4, 102, MB), 2)]),
        ];
        let r = analyze_placements(&stages, &cfg, &AnalysisConfig::default(), Some(&topo));
        let hits = r.with_code(Code::CrossIslandTransfer);
        assert_eq!(hits.len(), 1, "{}", r.render_text());
        assert_eq!((hits[0].stage, hits[0].index), (Some(2), Some(0)));
        assert_eq!(hits[0].gpu, Some(GpuId(2)));
        assert!(hits[0].message.contains("gpu 3"), "{}", hits[0].message);
        // without the same-island alternative the fetch is unavoidable
        let stages_unavoidable = vec![
            stage_of(None, vec![(task(0, 1, 2, 100, MB), 0)]),
            stage_of(None, vec![(task(1, 1, 4, 101, MB), 2)]),
        ];
        let r2 = analyze_placements(
            &stages_unavoidable,
            &cfg,
            &AnalysisConfig::default(),
            Some(&topo),
        );
        assert!(!r2.has(Code::CrossIslandTransfer), "{}", r2.render_text());
        // flat analysis of the triggering fixture stays clean
        let r3 = analyze_placements(&stages, &cfg, &AnalysisConfig::default(), None);
        assert!(!r3.has(Code::CrossIslandTransfer));
    }

    #[test]
    fn w204_never_fires_on_a_single_island() {
        let cfg = MachineConfig::mi100_like(4);
        let one_island = LinkTopology::nvlink(4, 4);
        let stages = vec![
            stage_of(None, vec![(task(0, 1, 2, 100, MB), 0)]),
            stage_of(None, vec![(task(1, 1, 3, 101, MB), 3)]),
            stage_of(None, vec![(task(2, 1, 4, 102, MB), 2)]),
        ];
        let r = analyze_placements(&stages, &cfg, &AnalysisConfig::default(), Some(&one_island));
        assert!(!r.has(Code::CrossIslandTransfer));
        // a topology for the wrong device count is ignored, not trusted
        let wrong = LinkTopology::nvlink(8, 2);
        let r2 = analyze_placements(&stages, &cfg, &AnalysisConfig::default(), Some(&wrong));
        assert!(!r2.has(Code::CrossIslandTransfer));
    }

    #[test]
    fn repaired_plan_lints_degraded_placement() {
        let stream = WorkloadSpec::new(16, 96)
            .with_repeat_rate(0.7)
            .with_vectors(3)
            .with_seed(7)
            .generate();
        let cfg = MachineConfig::mi100_like(3);
        let plan = Session::new(cfg)
            .plan(&mut RoundRobinScheduler::new(), &stream)
            .unwrap()
            .into_plan();
        assert!(!analyze_plan(&plan, &stream, &cfg).has(Code::DegradedPlacement));
        let repaired = micco_core::repair_plan(&plan, &[GpuId(1)]).unwrap();
        let r = analyze_plan(&repaired, &stream, &cfg);
        assert!(
            r.has(Code::DegradedPlacement),
            "repaired plan must flag W203"
        );
        assert_eq!(
            r.errors(),
            0,
            "degraded placement is a warning, not an error"
        );
        let d = &r.with_code(Code::DegradedPlacement)[0];
        assert_eq!(d.severity(), crate::Severity::Warning);
        assert_eq!(d.line, Some(2), "anchors to the scheduler line");
        assert!(d.message.contains("+repair(lost=1)"));
    }
}
