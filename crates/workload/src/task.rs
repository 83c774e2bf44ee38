//! Core task vocabulary: tensors, contraction tasks, vectors, streams.

use std::sync::OnceLock;

use micco_tensor::{
    checked_contraction_bytes, checked_contraction_flops, contraction_flops, tensor_bytes,
    ContractionKind,
};

use crate::xxh64::WordHasher;

/// Globally unique identity of a tensor (an original hadron-node payload or
/// an intermediate produced by an earlier contraction).
///
/// Two tasks referencing the same `TensorId` reference the *same data* —
/// this is exactly the reuse the scheduler exploits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TensorId(pub u64);

/// Identity of one contraction task within a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

/// Shape-level description of a tensor as the scheduler and simulator see it
/// (the numeric payload lives elsewhere; placement only needs identity and
/// footprint).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TensorDesc {
    /// Identity (shared ⇒ reusable).
    pub id: TensorId,
    /// Device-memory footprint in bytes.
    pub bytes: u64,
}

impl TensorDesc {
    /// Describe a hadron tensor of the given kind/batch/dim.
    pub fn new(id: TensorId, kind: ContractionKind, batch: usize, dim: usize) -> Self {
        TensorDesc {
            id,
            bytes: tensor_bytes(kind, batch, dim),
        }
    }
}

/// One hadron contraction: reduce the edge between two hadron nodes,
/// producing an output tensor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContractionTask {
    /// Task identity (unique within a stream).
    pub id: TaskId,
    /// First input tensor.
    pub a: TensorDesc,
    /// Second input tensor.
    pub b: TensorDesc,
    /// Output tensor (always fresh — contraction creates new data).
    pub out: TensorDesc,
    /// Kernel cost in flops.
    pub flops: u64,
}

impl ContractionTask {
    /// Build a task for two same-shape hadron tensors of `kind`.
    pub fn uniform(
        id: TaskId,
        a: TensorId,
        b: TensorId,
        out: TensorId,
        kind: ContractionKind,
        batch: usize,
        dim: usize,
    ) -> Self {
        let bytes = tensor_bytes(kind, batch, dim);
        ContractionTask {
            id,
            a: TensorDesc { id: a, bytes },
            b: TensorDesc { id: b, bytes },
            out: TensorDesc { id: out, bytes },
            flops: contraction_flops(kind, batch, dim),
        }
    }

    /// Total flops and total bytes (both inputs and the output) of `count`
    /// tasks built by [`Self::uniform`] with this shape, or `None` when
    /// either total overflows `u64` — the check to make before generating a
    /// stream from untrusted sizes.
    pub fn checked_totals(
        kind: ContractionKind,
        batch: usize,
        dim: usize,
        count: u64,
    ) -> Option<(u64, u64)> {
        let flops = checked_contraction_flops(kind, batch, dim)?.checked_mul(count)?;
        let bytes = checked_contraction_bytes(kind, batch, dim)?.checked_mul(count)?;
        Some((flops, bytes))
    }

    /// Total input bytes of the task.
    pub fn input_bytes(&self) -> u64 {
        self.a.bytes + self.b.bytes
    }
}

/// One stage vector: a list of independent contraction tasks that may run
/// concurrently across GPUs. The scheduler processes the pairs in order
/// (online), and the machine synchronises at vector boundaries (stages are
/// sequential, Fig. 1).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Vector {
    /// Independent contraction tasks of this stage.
    pub tasks: Vec<ContractionTask>,
}

impl Vector {
    /// Build from tasks.
    pub fn new(tasks: Vec<ContractionTask>) -> Self {
        Vector { tasks }
    }

    /// Number of contraction tasks (pairs).
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when the vector carries no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Number of tensor *slots* in the vector — the paper's "vector size"
    /// counts tensors, two per pair.
    pub fn tensor_slots(&self) -> usize {
        self.tasks.len() * 2
    }

    /// Total kernel flops of the vector.
    pub fn total_flops(&self) -> u64 {
        self.tasks.iter().map(|t| t.flops).sum()
    }

    /// Total distinct input tensors (repeats within the vector counted once).
    pub fn unique_input_tensors(&self) -> usize {
        let mut ids: Vec<TensorId> = self.tasks.iter().flat_map(|t| [t.a.id, t.b.id]).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Sum of input bytes counting each distinct tensor once, plus all
    /// output bytes — the working set if the whole vector ran on one device.
    pub fn unique_bytes(&self) -> u64 {
        let mut ids: Vec<TensorDesc> = self.tasks.iter().flat_map(|t| [t.a, t.b]).collect();
        ids.sort_unstable_by_key(|d| d.id);
        ids.dedup_by_key(|d| d.id);
        let inputs: u64 = ids.iter().map(|d| d.bytes).sum();
        let outputs: u64 = self.tasks.iter().map(|t| t.out.bytes).sum();
        inputs + outputs
    }
}

/// A whole scheduling problem: an ordered sequence of stage vectors.
///
/// A stream is an immutable value. [`TensorPairStream::new`] is its only
/// constructor, [`TensorPairStream::vectors`] reads it, and changing one
/// means taking the vectors out with [`TensorPairStream::into_vectors`]
/// and building a new stream. That is what lets a stream compute its
/// [`TensorPairStream::fingerprint`] once, on first use, and keep it:
/// nothing can change the tasks under a cached fingerprint.
///
/// ```compile_fail
/// use micco_workload::{TensorPairStream, Vector};
///
/// let mut stream = TensorPairStream::default();
/// stream.vectors.push(Vector::default()); // the vectors are private
/// ```
#[derive(Debug, Clone, Default)]
pub struct TensorPairStream {
    /// Stage vectors, executed in order with a barrier between stages.
    vectors: Vec<Vector>,
    /// [`TensorPairStream::fingerprint`], once something has asked for it.
    fingerprint: OnceLock<u64>,
}

/// Streams are equal when their vectors are: whether either one has
/// computed its fingerprint yet does not matter.
impl PartialEq for TensorPairStream {
    fn eq(&self, other: &Self) -> bool {
        self.vectors == other.vectors
    }
}

impl Eq for TensorPairStream {}

impl TensorPairStream {
    /// Build from vectors.
    pub fn new(vectors: Vec<Vector>) -> Self {
        TensorPairStream {
            vectors,
            fingerprint: OnceLock::new(),
        }
    }

    /// The stage vectors, in execution order.
    pub fn vectors(&self) -> &[Vector] {
        &self.vectors
    }

    /// Take the stage vectors out, e.g. to build a changed stream with
    /// [`TensorPairStream::new`].
    pub fn into_vectors(self) -> Vec<Vector> {
        self.vectors
    }

    /// Total tasks across all vectors.
    pub fn total_tasks(&self) -> usize {
        self.vectors.iter().map(Vector::len).sum()
    }

    /// Total kernel flops across all vectors.
    pub fn total_flops(&self) -> u64 {
        self.vectors.iter().map(Vector::total_flops).sum()
    }

    /// Working-set bytes if every distinct tensor in the stream (inputs and
    /// outputs) were resident at once. Used to size oversubscribed machines
    /// (Fig. 11).
    pub fn unique_bytes(&self) -> u64 {
        let mut ids: Vec<TensorDesc> = self
            .vectors
            .iter()
            .flat_map(|v| v.tasks.iter().flat_map(|t| [t.a, t.b, t.out]))
            .collect();
        ids.sort_unstable_by_key(|d| d.id);
        ids.dedup_by_key(|d| d.id);
        ids.iter().map(|d| d.bytes).sum()
    }

    /// Largest single-vector working set in bytes (peak concurrent demand).
    pub fn peak_vector_bytes(&self) -> u64 {
        self.vectors
            .iter()
            .map(Vector::unique_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Content hash of the whole stream: XXH64 (seed 0) over every task
    /// field plus the stage boundaries. The hashed bytes are, per vector, a
    /// `u64::MAX` stage marker and the task count, then each task's id,
    /// operand ids and byte sizes, output id and bytes, and flops — every
    /// value a little-endian `u64`. Any change to the stream — task order,
    /// tensor identity or footprint, flops, vector count — changes the
    /// fingerprint; equal streams always fingerprint equal. Schedule plans
    /// carry this value so a plan can be checked against the stream it is
    /// replayed on, and plan caches key on it.
    ///
    /// The words go straight into XXH64's four independent lanes, with no
    /// byte buffer and no allocation. The hash is computed on the first
    /// call and cached in the stream (clones keep it), so every later call
    /// is a load. Streams that nothing keys or validates never pay for it.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut h = WordHasher::new();
            for v in &self.vectors {
                // a stage marker keeps [t0 | t1] distinct from [t0, t1]
                h.word(u64::MAX);
                h.word(v.tasks.len() as u64);
                h.blocks(v.tasks.iter().map(|t| {
                    [
                        t.id.0,
                        t.a.id.0,
                        t.a.bytes,
                        t.b.id.0,
                        t.b.bytes,
                        t.out.id.0,
                        t.out.bytes,
                        t.flops,
                    ]
                }));
            }
            h.finish()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(id: u64, a: u64, b: u64, out: u64) -> ContractionTask {
        ContractionTask::uniform(
            TaskId(id),
            TensorId(a),
            TensorId(b),
            TensorId(out),
            ContractionKind::Meson,
            2,
            4,
        )
    }

    #[test]
    fn tensor_desc_bytes() {
        let d = TensorDesc::new(TensorId(1), ContractionKind::Meson, 2, 4);
        assert_eq!(d.bytes, 2 * 4 * 4 * 16);
    }

    #[test]
    fn task_flops_and_bytes() {
        let t = task(0, 1, 2, 100);
        assert_eq!(t.flops, 2 * 4u64.pow(3) * 8);
        assert_eq!(t.input_bytes(), 2 * t.a.bytes);
    }

    #[test]
    fn checked_totals_match_a_generated_vector_and_catch_overflow() {
        let v = Vector::new(vec![task(0, 1, 2, 100), task(1, 1, 3, 101)]);
        let bytes: u64 = v.tasks.iter().map(|t| t.input_bytes() + t.out.bytes).sum();
        assert_eq!(
            ContractionTask::checked_totals(ContractionKind::Meson, 2, 4, 2),
            Some((v.total_flops(), bytes))
        );
        let per_task = ContractionTask::checked_totals(ContractionKind::Meson, 4, 1 << 14, 1);
        assert!(per_task.is_some());
        assert_eq!(
            ContractionTask::checked_totals(ContractionKind::Meson, 4, 1 << 14, 1 << 20),
            None
        );
    }

    #[test]
    fn vector_counts() {
        let v = Vector::new(vec![task(0, 1, 2, 100), task(1, 1, 3, 101)]);
        assert_eq!(v.len(), 2);
        assert_eq!(v.tensor_slots(), 4);
        // tensor 1 repeats: distinct inputs are {1, 2, 3}
        assert_eq!(v.unique_input_tensors(), 3);
        assert_eq!(v.total_flops(), 2 * 2 * 4u64.pow(3) * 8);
    }

    #[test]
    fn vector_unique_bytes_dedups_inputs_not_outputs() {
        let v = Vector::new(vec![task(0, 1, 2, 100), task(1, 1, 2, 101)]);
        let per = TensorDesc::new(TensorId(0), ContractionKind::Meson, 2, 4).bytes;
        // inputs {1,2} once each + two outputs
        assert_eq!(v.unique_bytes(), 4 * per);
    }

    #[test]
    fn stream_aggregates() {
        let s = TensorPairStream::new(vec![
            Vector::new(vec![task(0, 1, 2, 100)]),
            Vector::new(vec![task(1, 1, 3, 101), task(2, 100, 2, 102)]),
        ]);
        assert_eq!(s.total_tasks(), 3);
        let per = TensorDesc::new(TensorId(0), ContractionKind::Meson, 2, 4).bytes;
        // distinct ids: 1,2,3,100,101,102
        assert_eq!(s.unique_bytes(), 6 * per);
        assert_eq!(s.peak_vector_bytes(), s.vectors()[1].unique_bytes());
        assert_eq!(s.total_flops(), 3 * 2 * 4u64.pow(3) * 8);
    }

    #[test]
    fn empty_vector() {
        let v = Vector::default();
        assert!(v.is_empty());
        assert_eq!(v.unique_bytes(), 0);
        assert_eq!(TensorPairStream::default().peak_vector_bytes(), 0);
    }

    #[test]
    fn fingerprint_is_content_sensitive() {
        let base = TensorPairStream::new(vec![
            Vector::new(vec![task(0, 1, 2, 100)]),
            Vector::new(vec![task(1, 1, 3, 101), task(2, 100, 2, 102)]),
        ]);
        assert_eq!(base.fingerprint(), base.clone().fingerprint());

        // task order within a vector matters
        let mut reordered = base.clone().into_vectors();
        reordered[1].tasks.reverse();
        assert_ne!(
            base.fingerprint(),
            TensorPairStream::new(reordered).fingerprint()
        );

        // moving a stage boundary matters even with identical task lists
        let flat = TensorPairStream::new(vec![Vector::new(
            base.vectors()
                .iter()
                .flat_map(|v| v.tasks.clone())
                .collect(),
        )]);
        assert_ne!(base.fingerprint(), flat.fingerprint());

        // any field change matters
        let mut heavier = base.clone().into_vectors();
        heavier[0].tasks[0].flops += 1;
        assert_ne!(
            base.fingerprint(),
            TensorPairStream::new(heavier).fingerprint()
        );

        // trailing empty vectors are structurally different streams
        let mut padded = base.clone().into_vectors();
        padded.push(Vector::default());
        assert_ne!(
            base.fingerprint(),
            TensorPairStream::new(padded).fingerprint()
        );
    }
}
