//! Property-based tests of graph contraction planning and staging.

// Strategy closures unwrap freely (clippy's allow-unwrap-in-tests only
// covers `#[test]` bodies, not helper functions in integration-test files).
#![allow(clippy::unwrap_used)]

use proptest::prelude::*;

use std::collections::{HashMap, HashSet};

use micco_graph::{
    build_stream, plan_contraction, ContractionGraph, EdgeOrder, HadronNode, InternTable,
};
use micco_tensor::ContractionKind;

fn meson(label: u64) -> HadronNode {
    HadronNode {
        label,
        kind: ContractionKind::Meson,
        batch: 2,
        dim: 8,
    }
}

/// Random connected multigraph: a spanning chain plus extra random edges.
fn connected_graph() -> impl Strategy<Value = ContractionGraph> {
    (
        2usize..10,
        proptest::collection::vec((0usize..10, 0usize..10), 0..8),
        any::<u64>(),
    )
        .prop_map(|(n, extras, label_base)| {
            let mut g = ContractionGraph::new();
            let ids: Vec<_> = (0..n)
                .map(|i| g.add_node(meson(label_base.wrapping_add(i as u64))))
                .collect();
            for w in ids.windows(2) {
                g.add_edge(w[0], w[1]).unwrap();
            }
            for (a, b) in extras {
                let (a, b) = (a % n, b % n);
                if a != b {
                    g.add_edge(ids[a], ids[b]).unwrap();
                }
            }
            g
        })
}

fn order() -> impl Strategy<Value = EdgeOrder> {
    prop_oneof![Just(EdgeOrder::Sequential), Just(EdgeOrder::MinDegree)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A plan is dependency-ordered, ends with exactly one final step, and
    /// contains at most node_count − 1 steps.
    #[test]
    fn plans_are_well_formed(g in connected_graph(), order in order()) {
        let plan = plan_contraction(&g, order).unwrap();
        prop_assert!(!plan.steps.is_empty());
        prop_assert!(plan.steps.len() < g.node_count());
        prop_assert_eq!(plan.steps.iter().filter(|s| s.is_final).count(), 1);
        prop_assert!(plan.steps.last().unwrap().is_final);

        let mut known: HashSet<u64> = g.nodes().iter().map(|n| n.label).collect();
        for s in &plan.steps {
            prop_assert!(known.contains(&s.lhs), "lhs produced before use");
            prop_assert!(known.contains(&s.rhs), "rhs produced before use");
            prop_assert!(s.lhs != s.out && s.rhs != s.out);
            known.insert(s.out);
        }
    }

    /// Planning is deterministic.
    #[test]
    fn planning_deterministic(g in connected_graph(), order in order()) {
        prop_assert_eq!(plan_contraction(&g, order).unwrap(), plan_contraction(&g, order).unwrap());
    }

    /// Staging any set of plans yields a stream whose stages respect
    /// dependencies: every non-leaf operand is produced in a strictly
    /// earlier stage.
    #[test]
    fn stages_respect_dependencies(
        graphs in proptest::collection::vec(connected_graph(), 1..5),
        order in order(),
    ) {
        let plans: Vec<_> =
            graphs.iter().map(|g| plan_contraction(g, order).unwrap()).collect();
        let mut intern = InternTable::new();
        let staged = build_stream(&plans, &mut intern);

        // map: output tensor -> stage index
        let mut produced_at: HashMap<_, usize> = HashMap::new();
        for (si, v) in staged.stream.vectors().iter().enumerate() {
            for t in &v.tasks {
                produced_at.insert(t.out.id, si);
            }
        }
        for (si, v) in staged.stream.vectors().iter().enumerate() {
            for t in &v.tasks {
                for d in [t.a.id, t.b.id] {
                    if let Some(&pi) = produced_at.get(&d) {
                        prop_assert!(pi < si, "operand produced at stage {pi} used at {si}");
                    }
                }
            }
        }
        prop_assert_eq!(staged.stream.total_tasks(), staged.unique_steps);
        prop_assert!(staged.unique_steps <= staged.total_steps);
    }

    /// Duplicating a plan never increases the unique-step count.
    #[test]
    fn duplication_is_free(g in connected_graph(), order in order()) {
        let p = plan_contraction(&g, order).unwrap();
        let mut i1 = InternTable::new();
        let once = build_stream(std::slice::from_ref(&p), &mut i1);
        let mut i2 = InternTable::new();
        let twice = build_stream(&[p.clone(), p], &mut i2);
        prop_assert_eq!(once.unique_steps, twice.unique_steps);
        prop_assert_eq!(twice.total_steps, 2 * once.total_steps);
        prop_assert!(twice.cse_savings() >= 0.49);
    }

    /// The intern table assigns dense, stable, collision-free ids.
    #[test]
    fn intern_table_bijective(labels in proptest::collection::vec(any::<u64>(), 1..60)) {
        let mut t = InternTable::new();
        let ids: Vec<_> = labels.iter().map(|&l| t.intern(l)).collect();
        // same label -> same id; distinct labels -> distinct ids
        let mut by_label = HashMap::new();
        for (l, id) in labels.iter().zip(&ids) {
            if let Some(prev) = by_label.insert(*l, *id) {
                prop_assert_eq!(prev, *id);
            }
        }
        let distinct_labels: HashSet<_> = labels.iter().collect();
        let distinct_ids: HashSet<_> = ids.iter().collect();
        prop_assert_eq!(distinct_labels.len(), distinct_ids.len());
        prop_assert_eq!(t.len(), distinct_labels.len());
    }
}
