//! Intra-vector task reordering (an optimisation extension).
//!
//! Tasks within a stage vector are independent, so the front end's emission
//! order is arbitrary — but the *scheduler* consumes them online, and under
//! memory pressure the distance between two uses of a tensor decides
//! whether the second use still finds it resident. Clustering tasks that
//! share operands shortens those distances, improving both reuse-hit rates
//! and eviction behaviour, at zero cost to correctness (any permutation of
//! an independent vector computes the same thing — asserted by tests).
//!
//! The paper keeps the front end's order; this module is a documented
//! extension (see DESIGN.md §6) with an experiment binary
//! (`ext_reordering`) quantifying the effect.

use std::collections::HashMap;

use micco_workload::{TensorId, TensorPairStream, Vector};

/// Greedy reuse-clustered permutation of a vector's tasks.
///
/// Starting from the first task, repeatedly append an unscheduled task that
/// shares an operand with the most recently scheduled one (preferring lower
/// original index for determinism); when none shares, fall back to the
/// lowest-index unscheduled task. `O(n·k)` with the operand index, `k` =
/// max tasks per tensor.
pub fn reuse_clustered_order(vector: &Vector) -> Vec<usize> {
    let n = vector.len();
    if n == 0 {
        return Vec::new();
    }
    // tensor -> task indices using it
    let mut users: HashMap<TensorId, Vec<usize>> = HashMap::new();
    for (i, t) in vector.tasks.iter().enumerate() {
        users.entry(t.a.id).or_default().push(i);
        if t.b.id != t.a.id {
            users.entry(t.b.id).or_default().push(i);
        }
    }
    let mut order = Vec::with_capacity(n);
    let mut scheduled = vec![false; n];
    let mut cursor = 0usize; // lowest possibly-unscheduled index
    let mut current = 0usize;
    scheduled[0] = true;
    order.push(0);
    while order.len() < n {
        // neighbour sharing an operand with `current`
        let t = &vector.tasks[current];
        let next = [t.a.id, t.b.id]
            .iter()
            .flat_map(|id| users.get(id).into_iter().flatten())
            .copied()
            .filter(|&j| !scheduled[j])
            .min();
        let pick = next.unwrap_or_else(|| {
            while scheduled[cursor] {
                cursor += 1;
            }
            cursor
        });
        scheduled[pick] = true;
        order.push(pick);
        current = pick;
    }
    order
}

/// Apply a per-vector ordering function to a whole stream.
pub fn reorder_stream(
    stream: &TensorPairStream,
    order: impl Fn(&Vector) -> Vec<usize>,
) -> TensorPairStream {
    let vectors = stream
        .vectors()
        .iter()
        .map(|v| {
            let perm = order(v);
            debug_assert_eq!(perm.len(), v.len());
            Vector::new(perm.into_iter().map(|i| v.tasks[i].clone()).collect())
        })
        .collect();
    TensorPairStream::new(vectors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use micco_tensor::ContractionKind;
    use micco_workload::{ContractionTask, TaskId, WorkloadSpec};

    fn task(id: u64, a: u64, b: u64) -> ContractionTask {
        ContractionTask::uniform(
            TaskId(id),
            TensorId(a),
            TensorId(b),
            TensorId(1000 + id),
            ContractionKind::Meson,
            1,
            4,
        )
    }

    #[test]
    fn order_is_a_permutation() {
        let stream = WorkloadSpec::new(32, 64)
            .with_repeat_rate(0.7)
            .with_vectors(3)
            .generate();
        for v in stream.vectors() {
            let mut order = reuse_clustered_order(v);
            order.sort_unstable();
            assert_eq!(order, (0..v.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn clusters_shared_operands() {
        // tasks 0 and 3 share tensor 1; 1 and 2 share nothing with 0
        let v = Vector::new(vec![
            task(0, 1, 2),
            task(1, 10, 11),
            task(2, 20, 21),
            task(3, 1, 30),
        ]);
        let order = reuse_clustered_order(&v);
        assert_eq!(order[0], 0);
        assert_eq!(order[1], 3, "task sharing tensor 1 must follow immediately");
    }

    #[test]
    fn chain_is_followed_transitively() {
        // 0 -(a)- 2 -(b)- 1: clustered order follows the chain
        let v = Vector::new(vec![task(0, 1, 2), task(1, 3, 4), task(2, 2, 3)]);
        assert_eq!(reuse_clustered_order(&v), vec![0, 2, 1]);
    }

    #[test]
    fn empty_and_singleton() {
        assert!(reuse_clustered_order(&Vector::default()).is_empty());
        let v = Vector::new(vec![task(0, 1, 2)]);
        assert_eq!(reuse_clustered_order(&v), vec![0]);
    }

    #[test]
    fn deterministic() {
        let stream = WorkloadSpec::new(64, 64)
            .with_repeat_rate(0.8)
            .with_vectors(2)
            .generate();
        for v in stream.vectors() {
            assert_eq!(reuse_clustered_order(v), reuse_clustered_order(v));
        }
    }

    #[test]
    fn reorder_stream_preserves_task_multiset() {
        let stream = WorkloadSpec::new(16, 64)
            .with_repeat_rate(0.5)
            .with_vectors(3)
            .generate();
        let reordered = reorder_stream(&stream, reuse_clustered_order);
        assert_eq!(reordered.total_tasks(), stream.total_tasks());
        assert_eq!(reordered.total_flops(), stream.total_flops());
        for (a, b) in stream.vectors().iter().zip(reordered.vectors()) {
            let mut x: Vec<_> = a.tasks.iter().map(|t| t.id).collect();
            let mut y: Vec<_> = b.tasks.iter().map(|t| t.id).collect();
            x.sort_unstable();
            y.sort_unstable();
            assert_eq!(x, y);
        }
    }

    #[test]
    fn reordering_improves_reuse_adjacency() {
        // measure: mean index distance between consecutive uses of a tensor
        // vector 0 is all-fresh by construction; measure the second vector,
        // where intra-vector repeats exist
        let stream = WorkloadSpec::new(64, 64)
            .with_repeat_rate(0.8)
            .with_vectors(2)
            .with_seed(4)
            .generate();
        let adjacency = |v: &Vector| {
            let mut last: HashMap<TensorId, usize> = HashMap::new();
            let mut dist = 0usize;
            let mut n = 0usize;
            for (i, t) in v.tasks.iter().enumerate() {
                for id in [t.a.id, t.b.id] {
                    if let Some(&p) = last.get(&id) {
                        dist += i - p;
                        n += 1;
                    }
                    last.insert(id, i);
                }
            }
            dist as f64 / n.max(1) as f64
        };
        let before = adjacency(&stream.vectors()[1]);
        let after = adjacency(&reorder_stream(&stream, reuse_clustered_order).vectors()[1]);
        assert!(
            after < before,
            "mean reuse distance {after:.2} !< {before:.2}"
        );
    }
}
