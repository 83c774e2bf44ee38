//! The MICCO heuristic scheduling algorithm (Alg. 1 + Alg. 2).
//!
//! Per tensor pair, the scheduler toggles among three policies:
//!
//! 1. **data-centric** — build the candidate queue from devices already
//!    holding the pair's operands, gated by the pattern's reuse bound
//!    (Alg. 1);
//! 2. **computation-centric** — among candidates, pick the least-loaded
//!    device (Alg. 2, no-eviction branch);
//! 3. **memory-eviction-sensitive** — if any candidate would have to evict,
//!    pick the device with the most free memory instead (Alg. 2, eviction
//!    branch).
//!
//! Ties break by the secondary metric and then uniformly at random from a
//! seeded RNG (the paper's `random(min …)`; seeded here so every experiment
//! is reproducible).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;

use micco_gpusim::{GpuId, MachineView};
use micco_workload::{ContractionTask, Vector};

use crate::bounds::{BoundsProvider, FixedBounds, ReuseBounds};
use crate::driver::Scheduler;
use crate::pattern::{classify_into, ClassifiedPair};
use crate::state::VectorState;

/// Reusable per-assign scratch: holder classification, the candidate
/// queue, the per-candidate score cache, and the finalist list. Cleared
/// and refilled on every [`MiccoScheduler::assign`] call so the steady
/// state of a million-task plan allocates nothing.
#[derive(Debug, Clone, Default)]
struct AssignScratch {
    class: ClassifiedPair,
    candidates: Vec<GpuId>,
    keys: Vec<(f64, f64)>,
    finalists: Vec<GpuId>,
}

/// The MICCO scheduler, generic over where its reuse bounds come from.
///
/// * `MiccoScheduler::new(bounds)` — fixed bounds (Fig. 8 sweeps);
/// * `MiccoScheduler::naive()` — all-zero bounds (the paper's MICCO-naive);
/// * `MiccoScheduler::with_provider(model)` — per-vector bounds from the
///   regression model (the paper's MICCO-optimal).
///
/// At each stage boundary the scheduler hands the vector to its
/// [`BoundsProvider`] and uses the bounds it returns for that vector. The
/// scheduler measures nothing itself: only a provider that reads data
/// characteristics (the regression model) measures them.
///
/// # Examples
///
/// ```
/// use micco_core::{GrouteScheduler, MiccoScheduler, ReuseBounds, Session};
/// use micco_gpusim::MachineConfig;
/// use micco_workload::WorkloadSpec;
///
/// let stream = WorkloadSpec::new(32, 256).with_repeat_rate(0.75).with_vectors(6).generate();
/// let session = Session::new(MachineConfig::mi100_like(4));
/// let micco = session
///     .run(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
///     .unwrap();
/// let groute = session.run(&mut GrouteScheduler::new(), &stream).unwrap();
/// // reuse-aware placement finds strictly more resident operands
/// assert!(micco.stats.total_reuse_hits() >= groute.stats.total_reuse_hits());
/// ```
#[derive(Debug, Clone)]
pub struct MiccoScheduler<P: BoundsProvider = FixedBounds> {
    provider: P,
    state: VectorState,
    bounds: ReuseBounds,
    rng: StdRng,
    scratch: AssignScratch,
    topology_aware: bool,
}

impl MiccoScheduler<FixedBounds> {
    /// MICCO with a fixed reuse-bound setting.
    pub fn new(bounds: ReuseBounds) -> Self {
        MiccoScheduler::with_provider(FixedBounds(bounds))
    }

    /// MICCO-naive: reuse bounds all zero.
    pub fn naive() -> Self {
        MiccoScheduler::new(ReuseBounds::naive())
    }
}

impl<P: BoundsProvider> MiccoScheduler<P> {
    /// MICCO with a per-vector bounds provider (e.g. the regression model).
    pub fn with_provider(provider: P) -> Self {
        MiccoScheduler {
            provider,
            state: VectorState::default(),
            bounds: ReuseBounds::naive(),
            rng: StdRng::seed_from_u64(0x4d49_4343_4f00), // "MICCO"
            scratch: AssignScratch::default(),
            topology_aware: false,
        }
    }

    /// Override the tie-break RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng = StdRng::seed_from_u64(seed);
        self
    }

    /// The bounds in effect for the current vector.
    pub fn current_bounds(&self) -> ReuseBounds {
        self.bounds
    }

    /// Alg. 2: pick from the candidate queue, toggling between the
    /// computation-centric and memory-eviction-sensitive policies.
    ///
    /// Candidate scoring fans out through `rayon` (`par_iter`) and is
    /// collected *in candidate order*; the reduction to the winner is then
    /// a fixed-order sequential scan over that ordered score vector. The
    /// extremum, the finalist list, and the single RNG draw per assignment
    /// are therefore bit-identical to a fully sequential evaluation no
    /// matter how the scoring work is scheduled.
    #[allow(clippy::too_many_arguments)]
    fn select(
        rng: &mut StdRng,
        keys: &mut Vec<(f64, f64)>,
        finalists: &mut Vec<GpuId>,
        candidates: &[GpuId],
        task: &ContractionTask,
        view: &dyn MachineView,
        class: &ClassifiedPair,
        topology_aware: bool,
    ) -> GpuId {
        debug_assert!(!candidates.is_empty());
        // order-independent boolean OR over candidates
        let evict_risk = candidates.par_iter().any(|g| view.would_evict(*g, task));
        // Topology-aware fetch estimate: the routed link time the machine
        // would charge to pull each missing operand from its lowest-id
        // holder (the source the machine deterministically picks). Exactly
        // the execute-phase charge, so candidates reachable over NVLink
        // outrank candidates that would pull the same tensor across an
        // island or node boundary.
        let aware = topology_aware && view.topology().is_some();
        let fetch = |g: GpuId| -> f64 {
            let Some(topo) = view.topology() else {
                return 0.0;
            };
            let mut secs = 0.0;
            if !class.holders_a.is_empty() && !class.holders_a.contains(&g) {
                secs += topo.transfer_secs(class.holders_a[0].0, g.0, task.a.bytes);
            }
            if task.b.id != task.a.id
                && !class.holders_b.is_empty()
                && !class.holders_b.contains(&g)
            {
                secs += topo.transfer_secs(class.holders_b[0].0, g.0, task.b.bytes);
            }
            secs
        };
        // (primary, secondary) sort key per candidate. The computation-
        // centric policy ranks by least accumulated cost this stage
        // (`mapGPUCom`: busy time, so a device slowed by transfers is not
        // overloaded further), tie-broken by least memory; the memory-
        // eviction-sensitive policy flips the two.
        let key = |g: GpuId| {
            let busy = if aware {
                view.stage_busy_secs(g) + fetch(g)
            } else {
                view.stage_busy_secs(g)
            };
            if evict_risk {
                (view.mem_used(g) as f64, busy)
            } else {
                (busy, view.mem_used(g) as f64)
            }
        };
        keys.clear();
        keys.extend(candidates.par_iter().map(|&g| key(g)));
        let cmp = |a: &(f64, f64), b: &(f64, f64)| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1));
        let best = *keys.iter().min_by(|a, b| cmp(a, b)).expect("non-empty");
        finalists.clear();
        finalists.extend(
            candidates
                .iter()
                .zip(keys.iter())
                .filter(|(_, k)| cmp(k, &best) == std::cmp::Ordering::Equal)
                .map(|(&g, _)| g),
        );
        *finalists.choose(rng).expect("non-empty")
    }
}

impl<P: BoundsProvider> Scheduler for MiccoScheduler<P> {
    fn name(&self) -> String {
        format!("micco[{}]", self.provider.name())
    }

    fn write_name(&self, out: &mut dyn std::fmt::Write) -> std::fmt::Result {
        out.write_str("micco[")?;
        self.provider.write_name(out)?;
        out.write_str("]")
    }

    fn begin_vector(&mut self, vector: &Vector, view: &dyn MachineView) {
        self.bounds = self.provider.bounds_for(vector);
        self.state.begin(vector, view.num_gpus());
    }

    fn stage_bounds(&self) -> Option<ReuseBounds> {
        Some(self.bounds)
    }

    fn assign(&mut self, task: &ContractionTask, view: &dyn MachineView) -> GpuId {
        let AssignScratch {
            class,
            candidates,
            keys,
            finalists,
        } = &mut self.scratch;
        classify_into(task, view, class);
        let bounds = self.bounds;
        candidates.clear();

        // Step I (data-centric, mapping (1)): devices holding both operands.
        if !class.holders_both.is_empty() {
            candidates.extend(
                class
                    .holders_both
                    .iter()
                    .copied()
                    .filter(|&g| self.state.available(g, bounds.get(0))),
            );
        }

        // Step II (mappings (2)/(3)): devices holding one operand.
        if candidates.is_empty() && (!class.holders_a.is_empty() || !class.holders_b.is_empty()) {
            for &g in class.holders_a.iter().chain(&class.holders_b) {
                if self.state.available(g, bounds.get(1)) && !candidates.contains(&g) {
                    candidates.push(g);
                }
            }
        }

        // Step II fallback / TwoNew (mappings (4)–(7)): any available device.
        if candidates.is_empty() {
            candidates.extend(
                (0..view.num_gpus())
                    .map(GpuId)
                    .filter(|&g| self.state.available(g, bounds.get(2))),
            );
        }

        // Guarantee progress even under pathological bounds.
        if candidates.is_empty() {
            candidates.push(self.state.least_loaded());
        }

        let gpu = Self::select(
            &mut self.rng,
            keys,
            finalists,
            candidates,
            task,
            view,
            class,
            self.topology_aware,
        );
        self.state.record(gpu);
        gpu
    }

    fn set_topology_aware(&mut self, on: bool) {
        self.topology_aware = on;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::GrouteScheduler;
    use crate::driver::run_schedule_on;
    use crate::session::Session;
    use micco_gpusim::{MachineConfig, SimMachine};
    use micco_workload::{
        RepeatDistribution, TaskId, TensorDesc, TensorId, TensorPairStream, WorkloadSpec,
    };

    const MB: u64 = 1 << 20;

    fn task(a: u64, b: u64, out: u64) -> ContractionTask {
        ContractionTask {
            id: TaskId(out),
            a: TensorDesc {
                id: TensorId(a),
                bytes: MB,
            },
            b: TensorDesc {
                id: TensorId(b),
                bytes: MB,
            },
            out: TensorDesc {
                id: TensorId(out),
                bytes: MB,
            },
            flops: 1_000_000,
        }
    }

    fn vector_of(tasks: Vec<ContractionTask>) -> Vector {
        Vector::new(tasks)
    }

    #[test]
    fn two_repeated_same_goes_to_holder() {
        let mut m = SimMachine::new(MachineConfig::mi100_like(4));
        // place tensors 1, 2 on gpu2 by executing a warm-up task there
        m.execute(&task(1, 2, 900), micco_gpusim::GpuId(2)).unwrap();
        m.barrier();
        let mut s = MiccoScheduler::new(ReuseBounds::new(2, 2, 2));
        let v = vector_of(vec![task(1, 2, 100)]);
        s.begin_vector(&v, &m);
        let g = s.assign(&v.tasks[0], &m);
        assert_eq!(g, micco_gpusim::GpuId(2));
    }

    #[test]
    fn one_repeated_goes_to_holder() {
        let mut m = SimMachine::new(MachineConfig::mi100_like(4));
        m.execute(&task(1, 9, 900), micco_gpusim::GpuId(3)).unwrap();
        m.barrier();
        let mut s = MiccoScheduler::new(ReuseBounds::new(2, 2, 2));
        let v = vector_of(vec![task(1, 5, 100)]);
        s.begin_vector(&v, &m);
        assert_eq!(s.assign(&v.tasks[0], &m), micco_gpusim::GpuId(3));
    }

    #[test]
    fn saturated_holder_is_skipped_under_naive_bounds() {
        let mut m = SimMachine::new(MachineConfig::mi100_like(2));
        m.execute(&task(1, 2, 900), micco_gpusim::GpuId(0)).unwrap();
        m.barrier();
        let mut s = MiccoScheduler::naive();
        // vector of 2 pairs → 4 slots / 2 GPUs → balance 2; bound 0
        let v = vector_of(vec![task(1, 2, 100), task(1, 2, 101)]);
        s.begin_vector(&v, &m);
        let g0 = s.assign(&v.tasks[0], &m);
        assert_eq!(g0, micco_gpusim::GpuId(0), "first pair reuses gpu0");
        m.execute(&v.tasks[0], g0).unwrap();
        // gpu0 now has 2 assigned tensors = bound(0) + balance(2)... wait,
        // 2 < 0 + 2 is false → gpu0 unavailable; pair must go to gpu1
        let g1 = s.assign(&v.tasks[1], &m);
        assert_eq!(g1, micco_gpusim::GpuId(1), "bound forces spill to gpu1");
    }

    #[test]
    fn generous_bounds_allow_piling_on_holder() {
        let mut m = SimMachine::new(MachineConfig::mi100_like(2));
        m.execute(&task(1, 2, 900), micco_gpusim::GpuId(0)).unwrap();
        m.barrier();
        let mut s = MiccoScheduler::new(ReuseBounds::new(4, 4, 4));
        let v = vector_of(vec![task(1, 2, 100), task(1, 2, 101)]);
        s.begin_vector(&v, &m);
        let g0 = s.assign(&v.tasks[0], &m);
        m.execute(&v.tasks[0], g0).unwrap();
        let g1 = s.assign(&v.tasks[1], &m);
        assert_eq!((g0, g1), (micco_gpusim::GpuId(0), micco_gpusim::GpuId(0)));
    }

    #[test]
    fn two_new_prefers_least_compute() {
        let mut m = SimMachine::new(MachineConfig::mi100_like(2));
        // load gpu0 with work in the current stage
        let warm = task(1, 2, 900);
        m.execute(&warm, micco_gpusim::GpuId(0)).unwrap();
        let mut s = MiccoScheduler::new(ReuseBounds::new(2, 2, 2));
        let v = vector_of(vec![task(10, 11, 100)]);
        s.begin_vector(&v, &m);
        assert_eq!(s.assign(&v.tasks[0], &m), micco_gpusim::GpuId(1));
    }

    #[test]
    fn eviction_risk_switches_to_memory_policy() {
        // capacity 4 MB; gpu0 holds 3 MB (busy but roomless), gpu1 holds 1 MB
        let cfg = MachineConfig::mi100_like(2).with_mem_bytes(4 * MB);
        let mut m = SimMachine::new(cfg);
        m.execute(&task(1, 2, 900), micco_gpusim::GpuId(0)).unwrap(); // 3 MB on gpu0
        m.barrier();
        let mut s = MiccoScheduler::new(ReuseBounds::new(4, 4, 4));
        // new pair needs 3 MB: gpu0 would evict (1 MB free), gpu1 not (4 MB
        // free). Under compute-centric both are idle this stage, so gpu0
        // could win the tie; the eviction check must force gpu1.
        let v = vector_of(vec![task(10, 11, 100)]);
        s.begin_vector(&v, &m);
        assert_eq!(s.assign(&v.tasks[0], &m), micco_gpusim::GpuId(1));
    }

    #[test]
    fn deterministic_given_seed() {
        let stream = WorkloadSpec::new(32, 128)
            .with_repeat_rate(0.7)
            .with_vectors(4)
            .generate();
        let cfg = MachineConfig::mi100_like(4);
        let run = |seed| {
            let mut s = MiccoScheduler::new(ReuseBounds::new(0, 2, 0)).with_seed(seed);
            Session::new(cfg).run(&mut s, &stream).unwrap().assignments
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn micco_beats_groute_on_reuse_heavy_workload() {
        let stream = WorkloadSpec::new(64, 384)
            .with_repeat_rate(0.75)
            .with_distribution(RepeatDistribution::Uniform)
            .with_vectors(6)
            .with_seed(3)
            .generate();
        let cfg = MachineConfig::mi100_like(8);
        let micco = Session::new(cfg)
            .run(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
            .unwrap();
        let groute = Session::new(cfg)
            .run(&mut GrouteScheduler::new(), &stream)
            .unwrap();
        let speedup = micco.speedup_over(&groute);
        assert!(
            speedup > 1.05,
            "MICCO should beat Groute on reuse-heavy input; got speedup {speedup:.3} \
             (micco {:.1} GF, groute {:.1} GF)",
            micco.gflops(),
            groute.gflops()
        );
        // and it should do so via fewer peer transfers / more reuse hits
        // (h2d counts tie: every distinct tensor is fetched exactly once
        // under either scheduler; the savings are in replication traffic)
        assert!(micco.stats.total_d2d() < groute.stats.total_d2d());
        assert!(micco.stats.total_reuse_hits() > groute.stats.total_reuse_hits());
    }

    #[test]
    fn progress_under_pathological_bounds() {
        // bounds 0 with balance 1: every device saturates instantly, the
        // least-loaded fallback must still assign every pair
        let stream = WorkloadSpec::new(16, 64)
            .with_repeat_rate(1.0)
            .with_vectors(2)
            .generate();
        let cfg = MachineConfig::mi100_like(2);
        let r = Session::new(cfg)
            .run(&mut MiccoScheduler::naive(), &stream)
            .unwrap();
        assert_eq!(r.assignments.len(), stream.total_tasks());
    }

    #[test]
    fn saturated_same_holder_falls_back_to_one_tensor_holders() {
        // tensors 1,2 both on gpu0 (saturated); tensor 1 ALSO on gpu1.
        // Step I fails on bounds; step II must find gpu1 via holders-of-one.
        let mut m = SimMachine::new(MachineConfig::mi100_like(3));
        m.execute(&task(1, 2, 900), micco_gpusim::GpuId(0)).unwrap();
        m.execute(&task(1, 9, 901), micco_gpusim::GpuId(1)).unwrap();
        m.barrier();
        let mut s = MiccoScheduler::new(ReuseBounds::new(0, 4, 0));
        // balance = 2·1/3 → 1; saturate gpu0's per-vector count first
        let v = vector_of(vec![task(5, 6, 100), task(1, 2, 101)]);
        s.begin_vector(&v, &m);
        // force the first pair onto gpu0 by making it the only holder…
        // actually assign normally: TwoNew → least busy = any; then check
        // the second (TwoRepeatedSame on gpu0) must dodge to gpu1 if gpu0
        // is saturated.
        let g0 = s.assign(&v.tasks[0], &m);
        m.execute(&v.tasks[0], g0).unwrap();
        let g1 = s.assign(&v.tasks[1], &m);
        if g0 == micco_gpusim::GpuId(0) {
            assert_eq!(
                g1,
                micco_gpusim::GpuId(1),
                "saturated same-holder must fall back to the one-tensor holder"
            );
        } else {
            // gpu0 still available: the data-centric step takes it
            assert_eq!(g1, micco_gpusim::GpuId(0));
        }
    }

    #[test]
    fn eviction_branch_breaks_ties_by_compute() {
        // two candidates with equal memory: the eviction-sensitive branch
        // falls back to least compute among them
        let cfg = MachineConfig::mi100_like(2).with_mem_bytes(3 * MB);
        let mut m = SimMachine::new(cfg);
        // both GPUs hold 3 MB (full): any new task forces eviction risk
        m.execute(&task(1, 2, 900), micco_gpusim::GpuId(0)).unwrap();
        m.execute(&task(3, 4, 901), micco_gpusim::GpuId(1)).unwrap();
        // gpu0 now also has more stage compute
        m.execute(&task(1, 2, 902), micco_gpusim::GpuId(0)).unwrap();
        let mut s = MiccoScheduler::new(ReuseBounds::new(4, 4, 4));
        let v = vector_of(vec![task(10, 11, 100)]);
        s.begin_vector(&v, &m);
        // equal mem_used; gpu1 has less stage busy time → wins the tie
        assert_eq!(s.assign(&v.tasks[0], &m), micco_gpusim::GpuId(1));
    }

    #[test]
    fn current_bounds_reflect_provider() {
        let mut s = MiccoScheduler::new(ReuseBounds::new(1, 2, 3));
        let m = SimMachine::new(MachineConfig::mi100_like(2));
        let v = vector_of(vec![task(1, 2, 100)]);
        s.begin_vector(&v, &m);
        assert_eq!(s.current_bounds(), ReuseBounds::new(1, 2, 3));
    }

    #[test]
    fn name_reflects_provider() {
        let s = MiccoScheduler::new(ReuseBounds::new(0, 2, 0));
        assert_eq!(s.name(), "micco[fixed(0,2,0)]");
    }

    #[test]
    fn warm_machine_reuse_spans_vectors() {
        // run the same single-pair vector twice on one machine: the second
        // pass must classify as TwoRepeatedSame and stay on the same GPU
        let mut m = SimMachine::new(MachineConfig::mi100_like(4));
        let stream = TensorPairStream::new(vec![
            vector_of(vec![task(1, 2, 100)]),
            vector_of(vec![task(1, 2, 101)]),
        ]);
        let mut s = MiccoScheduler::new(ReuseBounds::new(2, 2, 2));
        let r = run_schedule_on(&mut s, &stream, &mut m).unwrap();
        assert_eq!(r.assignments[0].gpu, r.assignments[1].gpu);
        assert_eq!(r.stats.total_reuse_hits(), 2);
    }
}
