//! Dependency analysis and staging (the paper's pre-processing, Fig. 1).
//!
//! Takes the contraction plans of many graphs, deduplicates common
//! subexpressions across them (the same `(lhs, rhs)` contraction appearing
//! in several graphs is computed once — this is where the repeated-tensor
//! stream comes from), levels the surviving steps by dependency depth, and
//! emits one stage [`Vector`] per level. Steps in one stage are mutually
//! independent, so the scheduler may place them on any device.

use std::collections::HashMap;

use micco_tensor::{contraction_flops, tensor_bytes, COMPLEX_BYTES};
use micco_workload::{ContractionTask, TaskId, TensorDesc, TensorId, TensorPairStream, Vector};

use crate::plan::{ContractionStep, PlanOutput};

/// Maps global hadron labels to dense [`TensorId`]s, stable across calls so
/// multiple streams built from one front end share identities.
#[derive(Debug, Clone, Default)]
pub struct InternTable {
    map: HashMap<u64, TensorId>,
}

impl InternTable {
    /// Empty table.
    pub fn new() -> Self {
        InternTable::default()
    }

    /// Intern a label, allocating the next dense id on first sight.
    pub fn intern(&mut self, label: u64) -> TensorId {
        let next = TensorId(self.map.len() as u64);
        *self.map.entry(label).or_insert(next)
    }

    /// Look up a label without interning.
    pub fn get(&self, label: u64) -> Option<TensorId> {
        self.map.get(&label).copied()
    }

    /// Number of interned labels.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// The staged, deduplicated program for a set of contraction graphs.
#[derive(Debug, Clone, PartialEq)]
pub struct StagedProgram {
    /// Stage vectors ready for the scheduler.
    pub stream: TensorPairStream,
    /// Steps before cross-graph deduplication.
    pub total_steps: usize,
    /// Steps surviving deduplication (== tasks in the stream).
    pub unique_steps: usize,
}

impl StagedProgram {
    /// Fraction of steps eliminated by common-subexpression sharing.
    pub fn cse_savings(&self) -> f64 {
        if self.total_steps == 0 {
            0.0
        } else {
            1.0 - self.unique_steps as f64 / self.total_steps as f64
        }
    }
}

/// Merge many plans into a staged stream.
pub fn build_stream(plans: &[PlanOutput], intern: &mut InternTable) -> StagedProgram {
    let total_steps: usize = plans.iter().map(|p| p.steps.len()).sum();

    // Cross-graph dedupe: identical steps are one computation.
    let mut unique: Vec<ContractionStep> = Vec::new();
    {
        let mut seen: HashMap<(u64, u64, u64), ()> = HashMap::new();
        for p in plans {
            for &s in &p.steps {
                if seen.insert((s.lhs, s.rhs, s.out), ()).is_none() {
                    unique.push(s);
                }
            }
        }
    }

    // Level by dependency depth: a label not produced by any step is a leaf
    // (level 0); a produced label sits one above its operands.
    let produced: HashMap<u64, &ContractionStep> = unique.iter().map(|s| (s.out, s)).collect();
    let mut level_memo: HashMap<u64, usize> = HashMap::new();
    fn level_of(
        label: u64,
        produced: &HashMap<u64, &ContractionStep>,
        memo: &mut HashMap<u64, usize>,
    ) -> usize {
        if let Some(&l) = memo.get(&label) {
            return l;
        }
        let l = match produced.get(&label) {
            None => 0,
            Some(s) => 1 + level_of(s.lhs, produced, memo).max(level_of(s.rhs, produced, memo)),
        };
        memo.insert(label, l);
        l
    }

    let mut by_level: Vec<Vec<ContractionStep>> = Vec::new();
    for &s in &unique {
        let lvl = level_of(s.out, &produced, &mut level_memo);
        debug_assert!(lvl >= 1);
        if by_level.len() < lvl {
            by_level.resize(lvl, Vec::new());
        }
        by_level[lvl - 1].push(s);
    }

    // Deterministic order within each stage, then lower to tasks.
    let mut next_task = 0u64;
    let mut vectors = Vec::with_capacity(by_level.len());
    for mut steps in by_level {
        steps.sort_unstable_by_key(|s| (s.lhs, s.rhs, s.out));
        let tasks = steps
            .iter()
            .map(|s| {
                let bytes_full = tensor_bytes(s.kind, s.batch, s.dim);
                let out_bytes = if s.is_final {
                    // final reduction yields one complex number per batch
                    s.batch as u64 * COMPLEX_BYTES
                } else {
                    bytes_full
                };
                let task = ContractionTask {
                    id: TaskId(next_task),
                    a: TensorDesc {
                        id: intern.intern(s.lhs),
                        bytes: bytes_full,
                    },
                    b: TensorDesc {
                        id: intern.intern(s.rhs),
                        bytes: bytes_full,
                    },
                    out: TensorDesc {
                        id: intern.intern(s.out),
                        bytes: out_bytes,
                    },
                    flops: contraction_flops(s.kind, s.batch, s.dim),
                };
                next_task += 1;
                task
            })
            .collect();
        vectors.push(Vector::new(tasks));
    }

    StagedProgram {
        stream: TensorPairStream::new(vectors),
        total_steps,
        unique_steps: unique.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ContractionGraph, HadronNode, NodeId};
    use crate::plan::{plan_contraction, EdgeOrder};
    use micco_tensor::ContractionKind;

    fn meson(label: u64) -> HadronNode {
        HadronNode {
            label,
            kind: ContractionKind::Meson,
            batch: 2,
            dim: 8,
        }
    }

    fn chain(labels: &[u64]) -> ContractionGraph {
        let mut g = ContractionGraph::new();
        let ids: Vec<NodeId> = labels.iter().map(|&l| g.add_node(meson(l))).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        g
    }

    fn plan(labels: &[u64]) -> PlanOutput {
        plan_contraction(&chain(labels), EdgeOrder::Sequential).unwrap()
    }

    #[test]
    fn single_graph_staging() {
        let mut intern = InternTable::new();
        let staged = build_stream(&[plan(&[1, 2, 3, 4])], &mut intern);
        // chain of 4: 3 steps, strictly sequential levels
        assert_eq!(staged.total_steps, 3);
        assert_eq!(staged.unique_steps, 3);
        assert_eq!(staged.stream.vectors().len(), 3);
        assert!(staged.stream.vectors().iter().all(|v| v.len() == 1));
        assert_eq!(staged.cse_savings(), 0.0);
    }

    #[test]
    fn identical_graphs_fully_deduplicate() {
        let mut intern = InternTable::new();
        let staged = build_stream(&[plan(&[1, 2, 3]), plan(&[1, 2, 3])], &mut intern);
        assert_eq!(staged.total_steps, 4);
        assert_eq!(staged.unique_steps, 2);
        assert!((staged.cse_savings() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shared_prefix_dedupes_first_stage() {
        let mut intern = InternTable::new();
        // both graphs start 1–2, then diverge
        let staged = build_stream(&[plan(&[1, 2, 10]), plan(&[1, 2, 20])], &mut intern);
        assert_eq!(staged.total_steps, 4);
        assert_eq!(staged.unique_steps, 3); // 1⊗2 shared
                                            // stage 1 has the shared step; stage 2 the two finals
        assert_eq!(staged.stream.vectors()[0].len(), 1);
        assert_eq!(staged.stream.vectors()[1].len(), 2);
    }

    #[test]
    fn independent_graphs_parallelise_in_stage_one() {
        let mut intern = InternTable::new();
        let staged = build_stream(&[plan(&[1, 2]), plan(&[3, 4]), plan(&[5, 6])], &mut intern);
        assert_eq!(staged.stream.vectors().len(), 1);
        assert_eq!(staged.stream.vectors()[0].len(), 3);
    }

    #[test]
    fn final_step_output_is_scalar_sized() {
        let mut intern = InternTable::new();
        let staged = build_stream(&[plan(&[1, 2])], &mut intern);
        let t = &staged.stream.vectors()[0].tasks[0];
        assert_eq!(t.out.bytes, 2 * 16); // batch 2 × one complex
        assert_eq!(t.a.bytes, 2 * 8 * 8 * 16);
    }

    #[test]
    fn intermediate_feeds_next_stage() {
        let mut intern = InternTable::new();
        let staged = build_stream(&[plan(&[1, 2, 3])], &mut intern);
        let first_out = staged.stream.vectors()[0].tasks[0].out.id;
        let second = &staged.stream.vectors()[1].tasks[0];
        assert!(second.a.id == first_out || second.b.id == first_out);
    }

    #[test]
    fn intern_table_is_stable_and_dense() {
        let mut intern = InternTable::new();
        let a = intern.intern(42);
        let b = intern.intern(43);
        assert_eq!(intern.intern(42), a);
        assert_eq!(a, TensorId(0));
        assert_eq!(b, TensorId(1));
        assert_eq!(intern.get(43), Some(b));
        assert_eq!(intern.get(99), None);
        assert_eq!(intern.len(), 2);
        assert!(!intern.is_empty());
    }

    #[test]
    fn task_ids_unique_across_stages() {
        let mut intern = InternTable::new();
        let staged = build_stream(&[plan(&[1, 2, 3, 4, 5])], &mut intern);
        let mut ids: Vec<u64> = staged
            .stream
            .vectors()
            .iter()
            .flat_map(|v| v.tasks.iter().map(|t| t.id.0))
            .collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn empty_input_yields_empty_program() {
        let mut intern = InternTable::new();
        let staged = build_stream(&[], &mut intern);
        assert!(staged.stream.vectors().is_empty());
        assert_eq!(staged.cse_savings(), 0.0);
    }
}
