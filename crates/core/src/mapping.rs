//! The seven task-assignment mappings of Fig. 4.
//!
//! Given an incoming pair's local reuse pattern and the device actually
//! chosen, the placement falls into one of the paper's seven canonical
//! mappings, ordered by memory-operation cost:
//!
//! * **(1)** both operands already on the chosen device — zero memory ops;
//! * **(2)/(3)** exactly one operand already on the chosen device — one
//!   allocation + one transfer ((2) when the other operand is resident on
//!   some other device, (3) when it is new);
//! * **(4)–(7)** neither operand on the chosen device — two allocations +
//!   two transfers, subdivided by where the operands *could* have been
//!   found: (4) both elsewhere, (5)/(6) one elsewhere + one new, (7) both
//!   new.
//!
//! [`MappingHistogram`] counts the mappings a schedule actually used —
//! the per-placement visibility that makes the trade-off auditable (the
//! experiment binaries print it; tests assert the data-centric policy
//! shifts mass towards mapping (1)).

use micco_gpusim::{GpuId, MachineView};
use micco_workload::ContractionTask;

/// One of the paper's seven canonical task assignments (Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mapping {
    /// Both operands resident on the chosen device (0 memory ops).
    M1,
    /// One operand resident here; the other resident elsewhere (1 transfer,
    /// served device-to-device).
    M2,
    /// One operand resident here; the other new (1 host transfer).
    M3,
    /// Neither resident here, both resident elsewhere (2 peer transfers).
    M4,
    /// Neither resident here; first operand resident elsewhere, second new.
    M5,
    /// Neither resident here; first operand new, second resident elsewhere.
    M6,
    /// Both operands new to the whole machine (2 host transfers).
    M7,
}

impl Mapping {
    /// Classify the placement of `task` on `gpu` against current residency.
    pub fn classify(task: &ContractionTask, gpu: GpuId, view: &dyn MachineView) -> Mapping {
        let here = |t: micco_workload::TensorId| view.holds(gpu, t);
        let anywhere = |t: micco_workload::TensorId| !view.holders(t).is_empty();
        match (here(task.a.id), here(task.b.id)) {
            (true, true) => Mapping::M1,
            (true, false) => {
                if anywhere(task.b.id) {
                    Mapping::M2
                } else {
                    Mapping::M3
                }
            }
            (false, true) => {
                if anywhere(task.a.id) {
                    Mapping::M2
                } else {
                    Mapping::M3
                }
            }
            (false, false) => match (anywhere(task.a.id), anywhere(task.b.id)) {
                (true, true) => Mapping::M4,
                (true, false) => Mapping::M5,
                (false, true) => Mapping::M6,
                (false, false) => Mapping::M7,
            },
        }
    }

    /// Memory operations (allocation+transfer pairs) this mapping costs —
    /// the ordering of Fig. 4.
    pub fn memory_ops(self) -> usize {
        match self {
            Mapping::M1 => 0,
            Mapping::M2 | Mapping::M3 => 1,
            Mapping::M4 | Mapping::M5 | Mapping::M6 | Mapping::M7 => 2,
        }
    }

    /// Index 0–6 (for histograms).
    pub fn index(self) -> usize {
        match self {
            Mapping::M1 => 0,
            Mapping::M2 => 1,
            Mapping::M3 => 2,
            Mapping::M4 => 3,
            Mapping::M5 => 4,
            Mapping::M6 => 5,
            Mapping::M7 => 6,
        }
    }
}

impl std::fmt::Display for Mapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({})", self.index() + 1)
    }
}

/// Counts of each mapping over a schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MappingHistogram {
    counts: [u64; 7],
}

impl MappingHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one placement.
    pub fn record(&mut self, m: Mapping) {
        self.counts[m.index()] += 1;
    }

    /// Count of mapping with 1-based paper number `k`, or `None` when `k`
    /// is not one of the paper's seven mappings (`k = 0` used to underflow
    /// the index and `k > 7` to read out of bounds — both panicked).
    pub fn count(&self, k: usize) -> Option<u64> {
        self.counts.get(k.checked_sub(1)?).copied()
    }

    /// Total placements recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of placements that were mapping (1) — the zero-cost reuse
    /// the data-centric policy hunts for.
    pub fn m1_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.counts[0] as f64 / self.total() as f64
        }
    }

    /// Mean memory operations per placement implied by the histogram.
    pub fn mean_memory_ops(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        let ops: u64 = self.counts[1]
            + self.counts[2]
            + 2 * (self.counts[3] + self.counts[4] + self.counts[5] + self.counts[6]);
        ops as f64 / self.total() as f64
    }
}

impl std::fmt::Display for MappingHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "(1)={} (2)={} (3)={} (4)={} (5)={} (6)={} (7)={} | mean mem-ops {:.2}",
            self.counts[0],
            self.counts[1],
            self.counts[2],
            self.counts[3],
            self.counts[4],
            self.counts[5],
            self.counts[6],
            self.mean_memory_ops()
        )
    }
}

/// Replay a finished schedule against a fresh machine to produce its
/// mapping histogram (placements are re-classified in execution order).
pub fn mapping_histogram(
    stream: &micco_workload::TensorPairStream,
    assignments: &[crate::driver::Assignment],
    config: &micco_gpusim::MachineConfig,
) -> MappingHistogram {
    let mut machine = micco_gpusim::SimMachine::new(*config);
    let mut hist = MappingHistogram::new();
    let mut idx = 0;
    for vector in &stream.vectors {
        for task in &vector.tasks {
            let gpu = assignments[idx].gpu;
            hist.record(Mapping::classify(task, gpu, &machine));
            machine
                .execute(task, gpu)
                .expect("assignments came from a successful run");
            idx += 1;
        }
        machine.barrier();
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use crate::{GrouteScheduler, MiccoScheduler, ReuseBounds};
    use micco_gpusim::{MachineConfig, SimMachine};
    use micco_workload::{TaskId, TensorDesc, TensorId, WorkloadSpec};

    fn task(a: u64, b: u64, out: u64) -> ContractionTask {
        ContractionTask {
            id: TaskId(out),
            a: TensorDesc {
                id: TensorId(a),
                bytes: 1 << 20,
            },
            b: TensorDesc {
                id: TensorId(b),
                bytes: 1 << 20,
            },
            out: TensorDesc {
                id: TensorId(out),
                bytes: 1 << 20,
            },
            flops: 1,
        }
    }

    #[test]
    fn classify_all_seven() {
        let mut m = SimMachine::new(MachineConfig::mi100_like(3));
        // residency: tensors 1, 2 on gpu0; tensor 3 on gpu1
        m.execute(&task(1, 2, 900), micco_gpusim::GpuId(0)).unwrap();
        m.execute(&task(3, 3, 901), micco_gpusim::GpuId(1)).unwrap();
        let g0 = micco_gpusim::GpuId(0);
        let g2 = micco_gpusim::GpuId(2);
        assert_eq!(Mapping::classify(&task(1, 2, 100), g0, &m), Mapping::M1);
        assert_eq!(Mapping::classify(&task(1, 3, 100), g0, &m), Mapping::M2);
        assert_eq!(Mapping::classify(&task(1, 50, 100), g0, &m), Mapping::M3);
        assert_eq!(Mapping::classify(&task(1, 3, 100), g2, &m), Mapping::M4);
        assert_eq!(Mapping::classify(&task(1, 50, 100), g2, &m), Mapping::M5);
        assert_eq!(Mapping::classify(&task(50, 1, 100), g2, &m), Mapping::M6);
        assert_eq!(Mapping::classify(&task(50, 51, 100), g2, &m), Mapping::M7);
    }

    #[test]
    fn memory_ops_ordering_matches_fig4() {
        assert_eq!(Mapping::M1.memory_ops(), 0);
        assert_eq!(Mapping::M2.memory_ops(), 1);
        assert_eq!(Mapping::M3.memory_ops(), 1);
        for m in [Mapping::M4, Mapping::M5, Mapping::M6, Mapping::M7] {
            assert_eq!(m.memory_ops(), 2);
        }
    }

    #[test]
    fn histogram_accounting() {
        let mut h = MappingHistogram::new();
        h.record(Mapping::M1);
        h.record(Mapping::M1);
        h.record(Mapping::M3);
        h.record(Mapping::M7);
        assert_eq!(h.total(), 4);
        assert_eq!(h.count(1), Some(2));
        assert_eq!(h.count(3), Some(1));
        assert_eq!(h.count(7), Some(1));
        // the paper numbering is 1-based: both edges are None, not panics
        assert_eq!(h.count(0), None);
        assert_eq!(h.count(8), None);
        assert_eq!(h.count(usize::MAX), None);
        assert!((h.m1_fraction() - 0.5).abs() < 1e-12);
        assert!((h.mean_memory_ops() - 0.75).abs() < 1e-12);
        assert!(h.to_string().contains("(1)=2"));
    }

    #[test]
    fn micco_shifts_mass_towards_mapping_one() {
        let stream = WorkloadSpec::new(64, 128)
            .with_repeat_rate(0.8)
            .with_vectors(5)
            .generate();
        let cfg = MachineConfig::mi100_like(4);
        let micco = Session::new(cfg)
            .run(&mut MiccoScheduler::new(ReuseBounds::new(0, 2, 0)), &stream)
            .unwrap();
        let groute = Session::new(cfg)
            .run(&mut GrouteScheduler::new(), &stream)
            .unwrap();
        let hm = mapping_histogram(&stream, &micco.assignments, &cfg);
        let hg = mapping_histogram(&stream, &groute.assignments, &cfg);
        assert_eq!(hm.total() as usize, stream.total_tasks());
        assert!(
            hm.m1_fraction() > hg.m1_fraction(),
            "micco m1 {:.3} must exceed groute {:.3}",
            hm.m1_fraction(),
            hg.m1_fraction()
        );
        assert!(hm.mean_memory_ops() < hg.mean_memory_ops());
    }

    #[test]
    fn display_uses_paper_numbering() {
        assert_eq!(Mapping::M1.to_string(), "(1)");
        assert_eq!(Mapping::M7.to_string(), "(7)");
    }
}
