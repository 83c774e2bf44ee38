//! Shared tensor store: concurrent interning of leaf tensors and
//! registration of computed intermediates, each dropped after its last
//! use in an execution.

use std::collections::HashMap;
use std::mem::MaybeUninit;
use std::sync::Arc;

use parking_lot::RwLock;

use micco_tensor::{BatchedMatrix, Complex64};
use micco_workload::{ContractionTask, TensorId, TensorPairStream};

/// splitmix64's increment, the golden ratio in 64-bit fixed point.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64's output function.
#[inline(always)]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A draw mapped to `[-0.5, 0.5)`.
#[inline(always)]
fn unit(z: u64) -> f64 {
    (z >> 11) as f64 / (1u64 << 53) as f64 - 0.5
}

/// Deterministic leaf: the splitmix64 stream seeded at `id ^ seed·γ`, two
/// draws per element in element order. CPUs with AVX-512F and DQ fill it
/// in SIMD; the others draw one value after another.
fn leaf(id: TensorId, batch: usize, dim: usize, seed: u64) -> BatchedMatrix {
    let base = id.0 ^ seed.wrapping_mul(GAMMA);
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx512f") && std::is_x86_feature_detected!("avx512dq") {
        let len = batch * dim * dim;
        let mut data = Vec::with_capacity(len);
        // SAFETY: `is_x86_feature_detected!` just found both features
        // `fill_avx512` is compiled for on this CPU.
        unsafe { fill_avx512(&mut data.spare_capacity_mut()[..len], base) };
        // SAFETY: `fill_avx512` initialised all `len` elements.
        unsafe { data.set_len(len) };
        return BatchedMatrix::from_vec(batch, dim, data);
    }
    leaf_sequential(batch, dim, base)
}

/// The portable leaf, one draw after another. For the baseline
/// instruction set the compiler vectorises a slice loop of the same draws
/// with an emulated 64-bit lane multiply, which is slower than this loop
/// (DESIGN §8.4).
fn leaf_sequential(batch: usize, dim: usize, base: u64) -> BatchedMatrix {
    let mut state = base;
    let mut next = move || {
        state = state.wrapping_add(GAMMA);
        unit(mix(state))
    };
    BatchedMatrix::from_fn(batch, dim, |_, _, _| {
        let re = next();
        Complex64::new(re, next())
    })
}

/// The leaf fill compiled with AVX-512F and DQ. Draw `k` of the stream
/// is `mix(base + k·γ)`, so the compiler turns the running state into one
/// counter per lane; DQ brings the 64-bit lane multiply (`vpmullq`) and
/// the 64-bit integer to double conversion that the draws need. Element
/// `e` takes draws `2e + 1` and `2e + 2`, as in [`leaf_sequential`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn fill_avx512(out: &mut [MaybeUninit<Complex64>], base: u64) {
    let mut state = base;
    for z in out {
        let re = state.wrapping_add(GAMMA);
        state = re.wrapping_add(GAMMA);
        z.write(Complex64::new(unit(mix(re)), unit(mix(state))));
    }
}

/// What the store holds, under one lock so that a use count and its
/// tensor change together.
#[derive(Default)]
struct Slots {
    tensors: HashMap<TensorId, Arc<BatchedMatrix>>,
    /// Uses left, in the running execution, of each operand it has not
    /// finished with. An id without an entry has none left (or was never
    /// an operand).
    uses: HashMap<TensorId, usize>,
}

/// Concurrent tensor store. Leaves are generated on first touch, outside
/// the lock, and the first one stored wins, so concurrent first touches
/// agree; an intermediate is stored by the worker that computed it.
///
/// During an execution the store holds a tensor only while a task still
/// needs it: the engine counts every operand's uses before the first
/// stage, drops a tensor once the last task that reads it has run, and
/// never inserts an output that no later task reads. So an execution
/// leaves the store empty of everything it touched, and a store serves one
/// execution at a time.
pub struct TensorStore {
    batch: usize,
    dim: usize,
    seed: u64,
    slots: RwLock<Slots>,
}

impl TensorStore {
    /// Store for uniform-shape streams.
    pub fn new(batch: usize, dim: usize, seed: u64) -> Self {
        TensorStore {
            batch,
            dim,
            seed,
            slots: RwLock::new(Slots::default()),
        }
    }

    /// Fetch a tensor, generating the deterministic leaf if absent, and
    /// keep it. An execution drops it again after its last counted use;
    /// outside an execution it stays until the store drops.
    pub fn fetch(&self, id: TensorId) -> Arc<BatchedMatrix> {
        if let Some(t) = self.slots.read().tensors.get(&id) {
            return Arc::clone(t);
        }
        // Built before taking the write lock, which every other fetch, hits
        // included, would otherwise wait behind. A worker that loses the
        // race to store it drops its copy and returns the stored one.
        let fresh = Arc::new(leaf(id, self.batch, self.dim, self.seed));
        Arc::clone(self.slots.write().tensors.entry(id).or_insert(fresh))
    }

    /// Whether `id` is currently materialised: fetched or computed and,
    /// within an execution, not yet past its last use.
    pub fn contains(&self, id: TensorId) -> bool {
        self.slots.read().tensors.contains_key(&id)
    }

    /// Number of materialised tensors. 0 after an execution that started
    /// from an empty store.
    pub fn len(&self) -> usize {
        self.slots.read().tensors.len()
    }

    /// True when nothing is materialised, as after every execution that
    /// started from an empty store.
    pub fn is_empty(&self) -> bool {
        self.slots.read().tensors.is_empty()
    }

    /// Count each operand's uses in `stream`, before its first stage.
    pub(crate) fn count_uses(&self, stream: &TensorPairStream) {
        let mut w = self.slots.write();
        for task in stream.vectors().iter().flat_map(|v| &v.tasks) {
            *w.uses.entry(task.a.id).or_default() += 1;
            *w.uses.entry(task.b.id).or_default() += 1;
        }
    }

    /// Generate the leaf `id` ahead of its first use, unless it is already
    /// held or has no use left. A prefetcher that lags behind the workers
    /// thus never rebuilds a tensor they have finished with.
    pub(crate) fn warm(&self, id: TensorId) {
        {
            let r = self.slots.read();
            if r.tensors.contains_key(&id) || !r.uses.contains_key(&id) {
                return;
            }
        }
        let fresh = Arc::new(leaf(id, self.batch, self.dim, self.seed));
        let mut w = self.slots.write();
        if w.uses.contains_key(&id) {
            w.tensors.entry(id).or_insert(fresh);
        }
    }

    /// `task` has run and produced `out`: keep `out` if a later task reads
    /// it, and drop each operand whose last use this was. The dropped
    /// tensors are freed outside the lock.
    pub(crate) fn retire(&self, task: &ContractionTask, out: BatchedMatrix) {
        let mut freed = Vec::with_capacity(2);
        {
            let mut w = self.slots.write();
            if w.uses.contains_key(&task.out.id) {
                w.tensors
                    .entry(task.out.id)
                    .or_insert_with(|| Arc::new(out));
            }
            for id in [task.a.id, task.b.id] {
                if let Some(left) = w.uses.get_mut(&id) {
                    *left -= 1;
                    if *left == 0 {
                        w.uses.remove(&id);
                        freed.extend(w.tensors.remove(&id));
                    }
                }
            }
        }
        drop(freed);
    }

    /// End an execution that stopped early: drop every tensor it still
    /// counted uses for, and the counts.
    pub(crate) fn abandon(&self) {
        let mut w = self.slots.write();
        let Slots { tensors, uses } = &mut *w;
        for (id, _) in uses.drain() {
            tensors.remove(&id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_bits(m: &BatchedMatrix) -> Vec<(u64, u64)> {
        (0..m.batch())
            .flat_map(|b| m.slab(b).to_vec())
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect()
    }

    #[test]
    fn every_leaf_instance_equals_the_sequential_generator() {
        // The splitmix64 draws written out one by one: the reference for
        // every path of `leaf`.
        let reference = |batch: usize, dim: usize, base: u64| {
            let mut state = base;
            let mut draw = || {
                state = state.wrapping_add(GAMMA);
                (mix(state) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            };
            BatchedMatrix::from_fn(batch, dim, |_, _, _| {
                let re = draw();
                Complex64::new(re, draw())
            })
        };
        // dims 0 to 40 at batch 1 cover every SIMD remainder; batch 4 at
        // dim 32 is the `real_verify` leaf
        let shapes = (0..=40).map(|dim| (1, dim)).chain([(4, 32)]);
        for (batch, dim) in shapes {
            for id in [0, 17, 1 << 40, u64::MAX] {
                for seed in [0, 1, 41, 7771, u64::MAX] {
                    let base = id ^ seed.wrapping_mul(GAMMA);
                    let want = to_bits(&reference(batch, dim, base));
                    let at = format!("batch {batch}, dim {dim}, id {id}, seed {seed}");
                    let dispatched = leaf(TensorId(id), batch, dim, seed);
                    assert_eq!(to_bits(&dispatched), want, "dispatched, {at}");
                    let portable = leaf_sequential(batch, dim, base);
                    assert_eq!(to_bits(&portable), want, "portable, {at}");
                    #[cfg(target_arch = "x86_64")]
                    if std::is_x86_feature_detected!("avx512f")
                        && std::is_x86_feature_detected!("avx512dq")
                    {
                        let mut out = vec![MaybeUninit::uninit(); batch * dim * dim];
                        // SAFETY: the CPU has AVX-512F and DQ.
                        unsafe { fill_avx512(&mut out, base) };
                        // SAFETY: `fill_avx512` initialised every element.
                        let data = out.into_iter().map(|z| unsafe { z.assume_init() });
                        let got = BatchedMatrix::from_vec(batch, dim, data.collect());
                        assert_eq!(to_bits(&got), want, "avx512, {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn leaves_are_deterministic_and_cached() {
        let s = TensorStore::new(2, 4, 7);
        let a = s.fetch(TensorId(1));
        let b = s.fetch(TensorId(1));
        assert!(Arc::ptr_eq(&a, &b), "second fetch must hit the cache");
        let other = TensorStore::new(2, 4, 7);
        assert_eq!(*a, *other.fetch(TensorId(1)), "same (id, seed) ⇒ same leaf");
        assert_ne!(*a, *other.fetch(TensorId(2)));
        let reseeded = TensorStore::new(2, 4, 8);
        assert_ne!(*a, *reseeded.fetch(TensorId(1)));
    }

    #[test]
    fn concurrent_first_touch_agrees() {
        let s = Arc::new(TensorStore::new(2, 8, 3));
        let start = Arc::new(std::sync::Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let s = Arc::clone(&s);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    s.fetch(TensorId(42))
                })
            })
            .collect();
        let got: Vec<Arc<BatchedMatrix>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let stored = s.fetch(TensorId(42));
        for t in &got {
            assert_eq!(t.frobenius_norm(), stored.frobenius_norm());
            // a thread that lost the race returns the stored leaf, not its own
            assert!(Arc::ptr_eq(t, &stored));
        }
        assert_eq!(s.len(), 1);
    }
}
