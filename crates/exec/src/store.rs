//! Shared tensor store: concurrent interning of leaf tensors and
//! registration of computed intermediates.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use micco_tensor::{BatchedMatrix, Complex64};
use micco_workload::TensorId;

/// Deterministic leaf generator (splitmix64 keyed by tensor id and seed).
fn leaf(id: TensorId, batch: usize, dim: usize, seed: u64) -> BatchedMatrix {
    let mut state = id.0 ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    BatchedMatrix::from_fn(batch, dim, |_, _, _| {
        let re = (next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        let im = (next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        Complex64::new(re, im)
    })
}

/// Concurrent tensor store. Leaves are generated on first touch, outside
/// the lock, and the first one stored wins, so concurrent first touches
/// agree; intermediates are inserted by the worker that computed them.
pub struct TensorStore {
    batch: usize,
    dim: usize,
    seed: u64,
    map: RwLock<HashMap<TensorId, Arc<BatchedMatrix>>>,
}

impl TensorStore {
    /// Store for uniform-shape streams.
    pub fn new(batch: usize, dim: usize, seed: u64) -> Self {
        TensorStore {
            batch,
            dim,
            seed,
            map: RwLock::new(HashMap::new()),
        }
    }

    /// Fetch a tensor, generating the deterministic leaf if absent.
    pub fn fetch(&self, id: TensorId) -> Arc<BatchedMatrix> {
        if let Some(t) = self.map.read().get(&id) {
            return Arc::clone(t);
        }
        // Built before taking the write lock, which every other fetch, hits
        // included, would otherwise wait behind. A worker that loses the
        // race to store it drops its copy and returns the stored one.
        let fresh = Arc::new(leaf(id, self.batch, self.dim, self.seed));
        Arc::clone(self.map.write().entry(id).or_insert(fresh))
    }

    /// Register a computed intermediate. Re-registration must be identical
    /// (checked in debug builds) — it can happen when two schedulers' task
    /// sets overlap.
    pub fn insert(&self, id: TensorId, value: Arc<BatchedMatrix>) {
        let mut w = self.map.write();
        if let Some(prev) = w.get(&id) {
            debug_assert_eq!(**prev, *value, "conflicting values for {id:?}");
            return;
        }
        w.insert(id, value);
    }

    /// Whether `id` is currently materialised.
    pub fn contains(&self, id: TensorId) -> bool {
        self.map.read().contains_key(&id)
    }

    /// Number of materialised tensors.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// True when nothing is materialised.
    pub fn is_empty(&self) -> bool {
        self.map.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn insert_then_fetch() {
        let s = TensorStore::new(2, 4, 0);
        let m = Arc::new(micco_tensor::BatchedMatrix::identity(2, 4));
        s.insert(TensorId(50), Arc::clone(&m));
        assert!(s.contains(TensorId(50)));
        assert!(Arc::ptr_eq(&s.fetch(TensorId(50)), &m));
        assert_eq!(s.len(), 1);
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
