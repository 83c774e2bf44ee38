//! Bump-allocated plan assembly: one flat buffer per planning pass.
//!
//! The seed planner allocated a fresh `Vec<Assignment>` per stage and a
//! fresh stage vector per plan. At a million tasks that is thousands of
//! allocator round-trips per plan — and a [`crate::PlanCache`] that plans
//! many streams repays them every miss. A [`PlanArena`] turns the whole
//! decide phase into appends onto two flat, reusable vectors (assignments
//! in stream order, per-stage `(bounds, len)` records), reset with two
//! `clear()` calls between plans. The finished [`crate::SchedulePlan`] is
//! carved out of the arena in one pass with exact-capacity stage vectors.

use crate::bounds::ReuseBounds;
use crate::driver::Assignment;
use crate::plan::{PlanStage, SchedulePlan};

/// Reusable backing store for plan assembly (see module docs). Used by
/// the planning loop only: [`crate::Session::plan`] sizes a fresh one per
/// plan, and [`crate::PlanCache`] keeps one across misses.
#[derive(Debug, Clone, Default)]
pub(crate) struct PlanArena {
    assignments: Vec<Assignment>,
    stages: Vec<(Option<ReuseBounds>, u32)>,
}

impl PlanArena {
    /// An arena pre-sized for `tasks` assignments over `stages` stages.
    pub(crate) fn with_capacity(tasks: usize, stages: usize) -> Self {
        PlanArena {
            assignments: Vec::with_capacity(tasks),
            stages: Vec::with_capacity(stages),
        }
    }

    /// Drop the previous plan's contents, keeping the backing buffers.
    pub(crate) fn reset(&mut self) {
        self.assignments.clear();
        self.stages.clear();
    }

    /// Append one placement to the current (open) stage.
    pub(crate) fn push(&mut self, a: Assignment) {
        self.assignments.push(a);
    }

    /// Close the current stage: all assignments pushed since the previous
    /// close belong to it.
    pub(crate) fn close_stage(&mut self, bounds: Option<ReuseBounds>) {
        let prior: u32 = self.stages.iter().map(|&(_, n)| n).sum();
        let len = u32::try_from(self.assignments.len())
            .ok()
            .and_then(|total| total.checked_sub(prior))
            .expect("stage length fits u32");
        self.stages.push((bounds, len));
    }

    /// Materialise the recorded stages into a [`SchedulePlan`] (one pass,
    /// exact-capacity stage vectors; the arena stays intact for reuse).
    pub(crate) fn to_plan(
        &self,
        scheduler: String,
        num_gpus: usize,
        fingerprint: u64,
        overhead_secs: f64,
    ) -> SchedulePlan {
        let mut stages = Vec::with_capacity(self.stages.len());
        let mut cursor = 0usize;
        for &(bounds, len) in &self.stages {
            let end = cursor + len as usize;
            stages.push(PlanStage {
                bounds,
                assignments: self.assignments[cursor..end].to_vec(),
            });
            cursor = end;
        }
        SchedulePlan {
            scheduler,
            num_gpus,
            fingerprint,
            overhead_secs,
            stages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use micco_gpusim::GpuId;
    use micco_workload::TaskId;

    fn a(task: u64, gpu: usize) -> Assignment {
        Assignment {
            task: TaskId(task),
            gpu: GpuId(gpu),
        }
    }

    #[test]
    fn stages_are_carved_in_order() {
        let mut arena = PlanArena::default();
        arena.push(a(0, 1));
        arena.push(a(1, 0));
        arena.close_stage(Some(ReuseBounds::new(0, 2, 0)));
        arena.close_stage(None); // empty stage
        arena.push(a(2, 1));
        arena.close_stage(None);
        let plan = arena.to_plan("t".to_owned(), 2, 99, 0.0);
        assert_eq!(plan.stages.len(), 3);
        assert_eq!(plan.stages[0].assignments, vec![a(0, 1), a(1, 0)]);
        assert_eq!(plan.stages[0].bounds, Some(ReuseBounds::new(0, 2, 0)));
        assert!(plan.stages[1].assignments.is_empty());
        assert_eq!(plan.stages[2].assignments, vec![a(2, 1)]);
        assert_eq!((plan.fingerprint, plan.num_gpus), (99, 2));
    }

    #[test]
    fn reset_keeps_capacity_and_clears_contents() {
        let mut arena = PlanArena::with_capacity(16, 4);
        for i in 0..10 {
            arena.push(a(i, 0));
        }
        arena.close_stage(None);
        assert_eq!(arena.assignments.len(), 10);
        arena.reset();
        assert!(arena.assignments.is_empty() && arena.stages.is_empty());
        assert!(arena.assignments.capacity() >= 16);
        let plan = arena.to_plan("t".to_owned(), 1, 0, 0.0);
        assert!(plan.stages.is_empty());
    }
}
