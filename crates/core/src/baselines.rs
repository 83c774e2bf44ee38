//! Baseline schedulers the paper compares against.

use micco_gpusim::{GpuId, MachineView};
use micco_workload::{ContractionTask, Vector};

use crate::driver::Scheduler;

/// Groute-like baseline (Ben-Nun et al., the paper's comparison point):
/// assign each incoming pair — and its data — to the *earliest available
/// device*, i.e. the device with the least accumulated busy time in the
/// current stage. Purely load-balance-driven; residency is ignored when
/// choosing (though the machine still reuses accidentally co-located data,
/// as real Groute would).
#[derive(Debug, Clone, Default)]
pub struct GrouteScheduler;

impl GrouteScheduler {
    /// New baseline scheduler.
    pub fn new() -> Self {
        GrouteScheduler
    }
}

impl Scheduler for GrouteScheduler {
    fn name(&self) -> String {
        "groute".to_owned()
    }

    fn write_name(&self, out: &mut dyn std::fmt::Write) -> std::fmt::Result {
        out.write_str("groute")
    }

    fn begin_vector(&mut self, _vector: &Vector, _view: &dyn MachineView) {}

    fn assign(&mut self, _task: &ContractionTask, view: &dyn MachineView) -> GpuId {
        (0..view.num_gpus())
            .map(GpuId)
            .min_by(|a, b| {
                view.stage_busy_secs(*a)
                    .total_cmp(&view.stage_busy_secs(*b))
                    .then(a.0.cmp(&b.0))
            })
            .expect("machine has at least one GPU")
    }
}

/// CODA-like baseline (Kim et al., ACM TACO 2018, discussed in the paper's
/// related work): co-location of computation and data via *static*
/// fine-grained interleaved placement. Every tensor has a fixed home device
/// (hash of its id); a contraction runs on the home of its larger operand
/// (first operand on ties). Data placement is considered — but statically,
/// with no reuse/balance interplay, which is exactly the gap the paper
/// positions MICCO against ("pays more attention to data locations rather
/// than reusing data").
#[derive(Debug, Clone, Default)]
pub struct CodaScheduler;

impl CodaScheduler {
    /// New CODA-like scheduler.
    pub fn new() -> Self {
        CodaScheduler
    }

    /// Static home device of a tensor.
    fn home(id: micco_workload::TensorId, num_gpus: usize) -> GpuId {
        // splitmix-style hash for an even interleave
        let mut x = id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 31;
        GpuId((x % num_gpus as u64) as usize)
    }
}

impl Scheduler for CodaScheduler {
    fn name(&self) -> String {
        "coda".to_owned()
    }

    fn write_name(&self, out: &mut dyn std::fmt::Write) -> std::fmt::Result {
        out.write_str("coda")
    }

    fn begin_vector(&mut self, _vector: &Vector, _view: &dyn MachineView) {}

    fn assign(&mut self, task: &ContractionTask, view: &dyn MachineView) -> GpuId {
        let n = view.num_gpus();
        if task.b.bytes > task.a.bytes {
            Self::home(task.b.id, n)
        } else {
            Self::home(task.a.id, n)
        }
    }
}

/// Trivial round-robin placement (sanity baseline; perfectly balanced in
/// task count, oblivious to everything else).
#[derive(Debug, Clone, Default)]
pub struct RoundRobinScheduler {
    next: usize,
}

impl RoundRobinScheduler {
    /// New round-robin scheduler.
    pub fn new() -> Self {
        RoundRobinScheduler { next: 0 }
    }
}

impl Scheduler for RoundRobinScheduler {
    fn name(&self) -> String {
        "round-robin".to_owned()
    }

    fn write_name(&self, out: &mut dyn std::fmt::Write) -> std::fmt::Result {
        out.write_str("round-robin")
    }

    fn begin_vector(&mut self, _vector: &Vector, _view: &dyn MachineView) {}

    fn assign(&mut self, _task: &ContractionTask, view: &dyn MachineView) -> GpuId {
        let g = GpuId(self.next % view.num_gpus());
        self.next += 1;
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use micco_gpusim::MachineConfig;
    use micco_workload::WorkloadSpec;

    #[test]
    fn groute_balances_busy_time() {
        let stream = WorkloadSpec::new(32, 128)
            .with_repeat_rate(0.0)
            .with_vectors(2)
            .generate();
        let r = Session::new(MachineConfig::mi100_like(4))
            .run(&mut GrouteScheduler::new(), &stream)
            .unwrap();
        // with homogeneous tasks and no reuse, busy times should be near equal
        assert!(
            r.stats.imbalance() < 1.1,
            "imbalance {}",
            r.stats.imbalance()
        );
    }

    #[test]
    fn groute_uses_all_devices() {
        let stream = WorkloadSpec::new(16, 64).with_vectors(1).generate();
        let r = Session::new(MachineConfig::mi100_like(8))
            .run(&mut GrouteScheduler::new(), &stream)
            .unwrap();
        let mut used: Vec<usize> = r.assignments.iter().map(|a| a.gpu.0).collect();
        used.sort_unstable();
        used.dedup();
        assert_eq!(used.len(), 8);
    }

    #[test]
    fn round_robin_cycles() {
        let stream = WorkloadSpec::new(6, 64).with_vectors(1).generate();
        let r = Session::new(MachineConfig::mi100_like(3))
            .run(&mut RoundRobinScheduler::new(), &stream)
            .unwrap();
        let gpus: Vec<usize> = r.assignments.iter().map(|a| a.gpu.0).collect();
        assert_eq!(gpus, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn names() {
        assert_eq!(GrouteScheduler::new().name(), "groute");
        assert_eq!(RoundRobinScheduler::new().name(), "round-robin");
        assert_eq!(CodaScheduler::new().name(), "coda");
    }

    #[test]
    fn coda_placement_is_static() {
        // the same tensor pair always lands on the same device, across
        // vectors and machine states
        let stream = WorkloadSpec::new(8, 64)
            .with_repeat_rate(0.9)
            .with_vectors(3)
            .generate();
        let cfg = MachineConfig::mi100_like(4);
        let r1 = Session::new(cfg)
            .run(&mut CodaScheduler::new(), &stream)
            .unwrap();
        let r2 = Session::new(cfg)
            .run(&mut CodaScheduler::new(), &stream)
            .unwrap();
        assert_eq!(r1.assignments, r2.assignments);
        // tasks sharing the same larger operand land together
        use std::collections::HashMap;
        let mut by_operand: HashMap<u64, Vec<usize>> = HashMap::new();
        for (v, a) in stream
            .vectors()
            .iter()
            .flat_map(|v| &v.tasks)
            .zip(&r1.assignments)
        {
            by_operand.entry(v.a.id.0).or_default().push(a.gpu.0);
        }
        for (_, gpus) in by_operand {
            assert!(gpus.windows(2).all(|w| w[0] == w[1]), "home must be static");
        }
    }

    #[test]
    fn coda_repeats_colocate_and_reuse() {
        // with heavy reuse, CODA gets reuse hits (its whole selling point)
        let stream = WorkloadSpec::new(32, 128)
            .with_repeat_rate(0.9)
            .with_vectors(4)
            .generate();
        let cfg = MachineConfig::mi100_like(4);
        let coda = Session::new(cfg)
            .run(&mut CodaScheduler::new(), &stream)
            .unwrap();
        assert!(coda.stats.total_reuse_hits() > 0);
    }
}
