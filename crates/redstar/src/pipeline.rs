//! The correlator pipeline: spec → diagrams → graphs → staged stream.

use micco_graph::{
    build_stream, plan_contraction, plan_contraction_shared, ContractionGraph, EdgeOrder,
    HadronNode, InternTable, PlanOutput, StagedProgram,
};

use micco_workload::TensorPairStream;

use crate::operators::CorrelatorSpec;
use crate::wick::enumerate_diagrams;

/// Everything the pipeline produces for one correlator.
#[derive(Debug, Clone)]
pub struct CorrelatorProgram {
    /// Correlator name.
    pub name: String,
    /// The staged, deduplicated tensor-pair stream (all time slices).
    pub stream: TensorPairStream,
    /// Total contraction graphs lowered.
    pub graph_count: usize,
    /// Contraction steps before cross-graph deduplication.
    pub total_steps: usize,
    /// Steps surviving deduplication.
    pub unique_steps: usize,
    /// The per-graph plans (kept for numeric evaluation).
    pub plans: Vec<PlanOutput>,
    /// Aggregate working-set bytes of the stream.
    pub working_set_bytes: u64,
}

impl CorrelatorProgram {
    /// Fraction of steps eliminated by common-subexpression sharing.
    pub fn cse_savings(&self) -> f64 {
        if self.total_steps == 0 {
            0.0
        } else {
            1.0 - self.unique_steps as f64 / self.total_steps as f64
        }
    }
}

/// Stable 64-bit label for a hadron node instance.
fn node_label(name: &str, is_sink: bool, momentum: i16, t: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u64| {
        h ^= b;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    for byte in name.bytes() {
        eat(byte as u64);
    }
    eat(is_sink as u64 + 1);
    eat(momentum as u16 as u64 + 3);
    // source operators live at time 0 regardless of the sink time slice,
    // so their labels — and tensors — are shared across all t.
    eat(if is_sink { t as u64 + 7 } else { 7 });
    h
}

/// Enumerate all momentum assignments for `k` operators drawn from `momenta`
/// whose sum equals `total`.
fn momentum_assignments(momenta: &[i16], k: usize, total: i32) -> Vec<Vec<i16>> {
    fn rec(momenta: &[i16], k: usize, total: i32, cur: &mut Vec<i16>, out: &mut Vec<Vec<i16>>) {
        if k == 0 {
            if total == 0 {
                out.push(cur.clone());
            }
            return;
        }
        for &m in momenta {
            cur.push(m);
            rec(momenta, k - 1, total - m as i32, cur, out);
            cur.pop();
        }
    }
    let mut out = Vec::new();
    rec(momenta, k, total, &mut Vec::new(), &mut out);
    out
}

/// Build the full program for a correlator specification, planning each
/// diagram in isolation (min-degree edge order).
pub fn build_correlator(spec: &CorrelatorSpec) -> CorrelatorProgram {
    build_correlator_impl(spec, false)
}

/// Like [`build_correlator`], but plans each time-slice's diagram family
/// *jointly* with [`micco_graph::plan_contraction_shared`], steering all
/// graphs toward common intermediates for more cross-graph sharing.
pub fn build_correlator_shared(spec: &CorrelatorSpec) -> CorrelatorProgram {
    build_correlator_impl(spec, true)
}

/// Build one staged program for a *job* of several correlators evaluated in
/// the same session. Real Redstar campaigns run many correlation functions
/// against the same gauge configurations, and operators recur across
/// correlators (every `f0` system contains pions), so tensors — and whole
/// sub-chains — are shared *across* correlators. Building jointly interns
/// all labels in one table and deduplicates steps across the whole job.
pub fn build_job(specs: &[CorrelatorSpec]) -> CorrelatorProgram {
    let mut graph_count = 0usize;
    let mut names = Vec::new();
    // collect components per time slice ACROSS all correlators, so the
    // joint planner sees cross-correlator pair frequencies
    let mut merged_slices: Vec<Vec<ContractionGraph>> = Vec::new();
    for spec in specs {
        let (count, per_slice) = lower_graphs(spec);
        graph_count += count;
        names.push(spec.name.clone());
        if merged_slices.len() < per_slice.len() {
            merged_slices.resize_with(per_slice.len(), Vec::new);
        }
        for (slot, graphs) in merged_slices.iter_mut().zip(per_slice) {
            slot.extend(graphs);
        }
    }
    let mut all_plans: Vec<PlanOutput> = Vec::new();
    for slice_graphs in &merged_slices {
        all_plans.extend(plan_contraction_shared(slice_graphs).expect("validated components"));
    }
    let mut intern = InternTable::new();
    let StagedProgram {
        stream,
        total_steps,
        unique_steps,
    } = build_stream(&all_plans, &mut intern);
    let working_set_bytes = stream.unique_bytes();
    CorrelatorProgram {
        name: names.join("+"),
        stream,
        graph_count,
        total_steps,
        unique_steps,
        plans: all_plans,
        working_set_bytes,
    }
}

/// Lower a spec to its connected contraction-graph components, grouped by
/// time slice. Returns `(diagram_count, per_slice_components)`.
fn lower_graphs(spec: &CorrelatorSpec) -> (usize, Vec<Vec<ContractionGraph>>) {
    let hadrons: Vec<_> = spec.source.iter().chain(&spec.sink).cloned().collect();
    let diagrams = enumerate_diagrams(&hadrons, spec.max_diagrams_per_combo);
    let src_n = spec.source.len();

    // Momentum sweep: total momentum of source must equal total of sink; we
    // anchor both at zero (a zero-momentum correlator).
    let src_momenta = momentum_assignments(&spec.momenta, src_n, 0);
    let snk_momenta = momentum_assignments(&spec.momenta, spec.sink.len(), 0);

    let mut graph_count = 0usize;
    let mut per_slice: Vec<Vec<ContractionGraph>> = Vec::with_capacity(spec.time_slices);
    for t in 1..=spec.time_slices {
        let mut slice_graphs = Vec::new();
        for sm in &src_momenta {
            for km in &snk_momenta {
                for diagram in &diagrams {
                    let mut g = ContractionGraph::new();
                    let ids: Vec<_> = hadrons
                        .iter()
                        .enumerate()
                        .map(|(i, op)| {
                            let is_sink = i >= src_n;
                            let momentum = if is_sink { km[i - src_n] } else { sm[i] };
                            g.add_node(HadronNode {
                                label: node_label(&op.name, is_sink, momentum, t),
                                kind: spec.kind,
                                batch: spec.batch,
                                dim: spec.tensor_dim,
                            })
                        })
                        .collect();
                    // Insert edges in a label-canonical order so diagrams
                    // that reduce to the same undirected multigraph produce
                    // byte-identical plans (Redstar's "unique graphs"
                    // deduplication relies on the same canonicalisation).
                    let mut edge_keys: Vec<(u64, u64, usize, usize)> = diagram
                        .pairing
                        .iter()
                        .enumerate()
                        .map(|(h, &target)| {
                            let la = g.node(ids[h]).expect("node exists").label;
                            let lb = g.node(ids[target]).expect("node exists").label;
                            let (lo, hi) = if la <= lb { (la, lb) } else { (lb, la) };
                            (lo, hi, h, target)
                        })
                        .collect();
                    edge_keys.sort_unstable();
                    for (_, _, h, target) in edge_keys {
                        g.add_edge(ids[h], ids[target])
                            .expect("diagram edges are valid");
                    }
                    // Disconnected diagrams (e.g. the two-2-cycle
                    // derangements of four-hadron systems) factorise into
                    // independent loops: contract each connected component
                    // separately. (The numeric layer sums component finals
                    // rather than multiplying them — a documented
                    // simplification that preserves the computational
                    // structure; see DESIGN.md §2.)
                    graph_count += 1;
                    for component in g.components() {
                        if component.validate().is_ok() {
                            slice_graphs.push(component);
                        }
                    }
                }
            }
        }
        per_slice.push(slice_graphs);
    }
    (graph_count, per_slice)
}

fn build_correlator_impl(spec: &CorrelatorSpec, shared: bool) -> CorrelatorProgram {
    let (graph_count, per_slice) = lower_graphs(spec);
    let mut plans: Vec<PlanOutput> = Vec::new();
    for slice_graphs in &per_slice {
        if shared {
            // plan each time slice's family jointly (families across time
            // slices share only source nodes, so per-slice batching keeps
            // the frequency table sharp)
            plans.extend(plan_contraction_shared(slice_graphs).expect("validated above"));
        } else {
            for g in slice_graphs {
                if let Ok(plan) = plan_contraction(g, EdgeOrder::MinDegree) {
                    plans.push(plan);
                }
            }
        }
    }

    let mut intern = InternTable::new();
    let StagedProgram {
        stream,
        total_steps,
        unique_steps,
    } = build_stream(&plans, &mut intern);
    let working_set_bytes = stream.unique_bytes();
    CorrelatorProgram {
        name: spec.name.clone(),
        stream,
        graph_count,
        total_steps,
        unique_steps,
        plans,
        working_set_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{Flavor, MesonOperator};

    fn tiny_spec(time_slices: usize, momenta: Vec<i16>) -> CorrelatorSpec {
        let op = |n: &str| MesonOperator::new(n, Flavor::Up, Flavor::Up);
        CorrelatorSpec {
            kind: micco_tensor::ContractionKind::Meson,
            name: "tiny".into(),
            source: vec![op("a1")],
            sink: vec![op("rho"), op("pi")],
            momenta,
            time_slices,
            tensor_dim: 8,
            batch: 2,
            max_diagrams_per_combo: 100,
        }
    }

    /// A graph-lowered stream's working set equals the sort-and-dedup sum
    /// that `unique_bytes` once computed: lowering gives each id one size.
    #[test]
    fn working_set_matches_a_sort_and_dedup_of_the_lowered_stream() {
        for spec in [
            crate::presets::f0d2(crate::PresetScale::Ci),
            crate::presets::nucleon_pipi(crate::PresetScale::Ci),
        ] {
            let p = build_correlator(&spec);
            let mut descs: Vec<_> = p
                .stream
                .vectors()
                .iter()
                .flat_map(|v| v.tasks.iter().flat_map(|t| [t.a, t.b, t.out]))
                .collect();
            descs.sort_unstable_by_key(|d| d.id);
            descs.dedup_by_key(|d| d.id);
            let sorted: u64 = descs.iter().map(|d| d.bytes).sum();
            assert!(sorted > 0);
            assert_eq!(p.working_set_bytes, sorted, "{}", spec.name);
        }
    }

    #[test]
    fn builds_graphs_per_time_slice_and_combo() {
        let p = build_correlator(&tiny_spec(2, vec![0]));
        // 3 hadrons → 2 derangements; 1 momentum combo each side; 2 slices
        assert_eq!(p.graph_count, 4);
        assert!(p.total_steps > 0);
        assert!(p.unique_steps <= p.total_steps);
        assert!(!p.stream.vectors().is_empty());
    }

    #[test]
    fn momentum_sweep_multiplies_graphs() {
        let narrow = build_correlator(&tiny_spec(1, vec![0]));
        let wide = build_correlator(&tiny_spec(1, vec![-1, 0, 1]));
        // sink combos summing to 0 from {-1,0,1} over 2 ops: (0,0), (-1,1), (1,-1)
        assert_eq!(wide.graph_count, 3 * narrow.graph_count);
    }

    #[test]
    fn source_tensors_shared_across_time_slices() {
        let one = build_correlator(&tiny_spec(1, vec![0]));
        let four = build_correlator(&tiny_spec(4, vec![0]));
        // unique steps grow sub-linearly? Here source nodes are shared but
        // every step involves a sink node, so steps scale with t; the
        // leaf-tensor count is what shares. Check stream-level reuse: the
        // working set of 4 slices is less than 4× one slice's.
        assert!(four.working_set_bytes < 4 * one.working_set_bytes);
        assert!(four.working_set_bytes > one.working_set_bytes);
    }

    #[test]
    fn cse_dedupes_across_diagrams() {
        // with 2 sink hadrons and 2 derangements per combo, both diagrams
        // contain overlapping pairings at the same momenta → shared steps
        let p = build_correlator(&tiny_spec(1, vec![-1, 0, 1]));
        assert!(
            p.unique_steps < p.total_steps,
            "expected CSE savings, got {}/{}",
            p.unique_steps,
            p.total_steps
        );
        assert!(p.cse_savings() > 0.0);
    }

    #[test]
    fn momentum_assignment_respects_sum() {
        let combos = momentum_assignments(&[-1, 0, 1], 3, 0);
        assert!(combos
            .iter()
            .all(|c| c.iter().map(|&m| m as i32).sum::<i32>() == 0));
        // count: solutions of a+b+c=0 over {-1,0,1}^3 = 7
        assert_eq!(combos.len(), 7);
    }

    #[test]
    fn node_label_distinguishes_role_time_momentum() {
        let base = node_label("pi", false, 0, 1);
        assert_eq!(
            base,
            node_label("pi", false, 0, 5),
            "source labels ignore t"
        );
        assert_ne!(node_label("pi", true, 0, 1), node_label("pi", true, 0, 2));
        assert_ne!(node_label("pi", true, 1, 1), node_label("pi", true, 0, 1));
        assert_ne!(
            node_label("pi", false, 0, 1),
            node_label("rho", false, 0, 1)
        );
    }

    #[test]
    fn job_shares_across_correlators() {
        // two correlators sharing the "pi" sink operator at the same
        // momenta/time slices: the job must dedupe their common steps
        let op = |n: &str| MesonOperator::new(n, Flavor::Up, Flavor::Up);
        let mk = |name: &str, src: &str| CorrelatorSpec {
            kind: micco_tensor::ContractionKind::Meson,
            name: name.into(),
            source: vec![op(src)],
            sink: vec![op("rho"), op("pi")],
            momenta: vec![0],
            time_slices: 2,
            tensor_dim: 8,
            batch: 2,
            max_diagrams_per_combo: 100,
        };
        let a = mk("corr_a", "a1");
        let b = mk("corr_b", "b1");
        let separate = build_correlator(&a).unique_steps + build_correlator(&b).unique_steps;
        let job = build_job(&[a, b]);
        assert_eq!(job.name, "corr_a+corr_b");
        assert!(
            job.unique_steps < separate,
            "job {} must dedupe vs separate {}",
            job.unique_steps,
            separate
        );
        assert!(job.stream.total_tasks() == job.unique_steps);
    }

    #[test]
    fn deterministic() {
        let a = build_correlator(&tiny_spec(2, vec![-1, 0, 1]));
        let b = build_correlator(&tiny_spec(2, vec![-1, 0, 1]));
        assert_eq!(a.stream, b.stream);
    }

    #[test]
    fn disconnected_diagrams_contribute_components() {
        // 4 same-flavour hadrons → 9 derangements, 3 of which are
        // two-2-cycle (disconnected) diagrams. All 9 must be lowered.
        let op = |n: &str| MesonOperator::new(n, Flavor::Up, Flavor::Up);
        let spec = CorrelatorSpec {
            kind: micco_tensor::ContractionKind::Meson,
            name: "four".into(),
            source: vec![op("a"), op("b")],
            sink: vec![op("c"), op("d")],
            momenta: vec![0],
            time_slices: 1,
            tensor_dim: 8,
            batch: 2,
            max_diagrams_per_combo: 100,
        };
        let p = build_correlator(&spec);
        assert_eq!(p.graph_count, 9, "all derangements counted");
        // 6 connected 4-cycles contribute 3 steps each; 3 disconnected
        // diagrams contribute 2 components × 1 final step each
        assert_eq!(p.total_steps, 6 * 3 + 3 * 2);
    }

    #[test]
    fn shared_planner_never_increases_unique_steps() {
        let spec = tiny_spec(3, vec![-1, 0, 1]);
        let isolated = build_correlator(&spec);
        let shared = build_correlator_shared(&spec);
        assert_eq!(shared.graph_count, isolated.graph_count);
        assert!(
            shared.unique_steps <= isolated.unique_steps,
            "shared {} > isolated {}",
            shared.unique_steps,
            isolated.unique_steps
        );
        // On these 3-node (triangle) diagrams every contraction order is a
        // cyclic rotation of the same trace, so the numeric values agree
        // too. (NOT generally true for ≥4-node cycles in this simplified
        // numeric model — see the `numeric` module docs.)
        let (vi, _) = crate::numeric::evaluate_plans(&isolated.plans, 4);
        let (vs, _) = crate::numeric::evaluate_plans(&shared.plans, 4);
        assert!(
            (vi - vs).abs() < 1e-6,
            "triangle traces must agree: {vi} vs {vs}"
        );
    }
}
