//! Tensor-identity interning: sparse 64-bit ids → dense 32-bit symbols.
//!
//! Streams name tensors with arbitrary (often widely spaced) [`TensorId`]
//! values. The planner's hot loops, however, want *dense* indices so that
//! residency, next-use and host-copy state can live in flat vectors
//! instead of hash maps. A [`TensorInterner`] assigns each distinct id a
//! [`TensorSym`] — a `u32` in first-appearance order — and converts in
//! both directions. Interning happens once per machine at the id boundary;
//! everything downstream indexes by symbol.
//!
//! The interner's own id→symbol map still hashes, but with a
//! multiply-xor-shift hasher ([`FastIdHasher`]) rather than the standard
//! library's SipHash: tensor ids are not attacker-controlled, so the
//! DoS-resistant default only costs planning throughput.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use crate::task::{TensorId, TensorPairStream};

/// Dense symbol for an interned [`TensorId`] (assigned in first-appearance
/// order, starting at 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TensorSym(pub u32);

impl TensorSym {
    /// The symbol as a `usize` index into per-symbol SoA vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A fast, non-cryptographic hasher for 64-bit keys (splitmix64 finalizer).
///
/// Only suitable for trusted keys like tensor ids; falls back to mixing
/// arbitrary bytes so derived `Hash` impls still work.
#[derive(Default)]
pub struct FastIdHasher(u64);

impl Hasher for FastIdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // splitmix64 finalizer: full avalanche over the accumulated state
        let mut z = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = self.0.rotate_left(5) ^ i;
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// `HashMap` keyed by trusted 64-bit identities (tensor/task ids) using
/// [`FastIdHasher`].
pub type FastIdMap<K, V> = HashMap<K, V, BuildHasherDefault<FastIdHasher>>;

/// `HashSet` counterpart of [`FastIdMap`].
pub type FastIdSet<K> = HashSet<K, BuildHasherDefault<FastIdHasher>>;

/// Bidirectional id↔symbol table.
///
/// # Examples
///
/// ```
/// use micco_workload::{TensorId, TensorInterner, TensorSym};
///
/// let mut interner = TensorInterner::new();
/// let a = interner.intern(TensorId(1_000_000));
/// let b = interner.intern(TensorId(7));
/// assert_eq!((a, b), (TensorSym(0), TensorSym(1)));
/// // re-interning is idempotent
/// assert_eq!(interner.intern(TensorId(1_000_000)), a);
/// assert_eq!(interner.resolve(b), TensorId(7));
/// assert_eq!(interner.get(TensorId(42)), None);
/// assert_eq!(interner.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TensorInterner {
    symbols: FastIdMap<u64, u32>,
    ids: Vec<TensorId>,
}

impl TensorInterner {
    /// An empty table.
    pub fn new() -> Self {
        TensorInterner::default()
    }

    /// An empty table with room for `n` distinct tensors.
    pub fn with_capacity(n: usize) -> Self {
        TensorInterner {
            symbols: FastIdMap::with_capacity_and_hasher(n, BuildHasherDefault::default()),
            ids: Vec::with_capacity(n),
        }
    }

    /// The symbol for `id`, assigning the next free one on first sight.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` distinct tensors are interned (4
    /// billion — far beyond any stream this repo plans).
    #[inline]
    pub fn intern(&mut self, id: TensorId) -> TensorSym {
        if let Some(&s) = self.symbols.get(&id.0) {
            return TensorSym(s);
        }
        let s = u32::try_from(self.ids.len()).expect("interner overflow: > u32::MAX tensors");
        self.symbols.insert(id.0, s);
        self.ids.push(id);
        TensorSym(s)
    }

    /// The symbol for `id`, if it has been interned.
    #[inline]
    pub fn get(&self, id: TensorId) -> Option<TensorSym> {
        self.symbols.get(&id.0).copied().map(TensorSym)
    }

    /// The original id of a symbol (the boundary conversion for
    /// serialization and reporting).
    ///
    /// # Panics
    ///
    /// Panics when `sym` was not produced by this interner.
    #[inline]
    pub fn resolve(&self, sym: TensorSym) -> TensorId {
        self.ids[sym.index()]
    }

    /// Number of distinct tensors interned so far.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True before the first intern.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Intern every tensor of `stream` (inputs and outputs) in stream
    /// order, so per-symbol state can be pre-sized before planning starts.
    pub fn intern_stream(&mut self, stream: &TensorPairStream) {
        for v in stream.vectors() {
            for t in &v.tasks {
                self.intern(t.a.id);
                self.intern(t.b.id);
                self.intern(t.out.id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{ContractionTask, TaskId, TensorDesc, Vector};

    fn task(id: u64, a: u64, b: u64, out: u64) -> ContractionTask {
        let d = |n| TensorDesc {
            id: TensorId(n),
            bytes: 8,
        };
        ContractionTask {
            id: TaskId(id),
            a: d(a),
            b: d(b),
            out: d(out),
            flops: 1,
        }
    }

    #[test]
    fn first_appearance_order_round_trips() {
        let mut i = TensorInterner::new();
        let ids = [9_u64, 3, 9, 700, 3, 0];
        let syms: Vec<TensorSym> = ids.iter().map(|&n| i.intern(TensorId(n))).collect();
        assert_eq!(
            syms.iter().map(|s| s.0).collect::<Vec<_>>(),
            vec![0, 1, 0, 2, 1, 3]
        );
        for (&n, &s) in ids.iter().zip(&syms) {
            assert_eq!(i.resolve(s), TensorId(n));
            assert_eq!(i.get(TensorId(n)), Some(s));
        }
        assert_eq!(i.len(), 4);
        assert!(!i.is_empty());
    }

    #[test]
    fn intern_stream_covers_inputs_and_outputs() {
        let stream = TensorPairStream::new(vec![
            Vector::new(vec![task(0, 1, 2, 100)]),
            Vector::new(vec![task(1, 2, 3, 101)]),
        ]);
        let mut i = TensorInterner::with_capacity(8);
        i.intern_stream(&stream);
        // distinct: 1, 2, 100, 3, 101 — in stream order
        assert_eq!(i.len(), 5);
        assert_eq!(i.get(TensorId(1)), Some(TensorSym(0)));
        assert_eq!(i.get(TensorId(100)), Some(TensorSym(2)));
        assert_eq!(i.get(TensorId(101)), Some(TensorSym(4)));
    }

    #[test]
    fn fast_map_behaves_like_a_map() {
        let mut m: FastIdMap<u64, u32> = FastIdMap::default();
        for k in 0..1000_u64 {
            m.insert(k.wrapping_mul(0x9e37_79b9), k as u32);
        }
        assert_eq!(m.len(), 1000);
        for k in 0..1000_u64 {
            assert_eq!(m.get(&k.wrapping_mul(0x9e37_79b9)), Some(&(k as u32)));
        }
        let mut s: FastIdSet<u64> = FastIdSet::default();
        assert!(s.insert(7));
        assert!(!s.insert(7));
    }
}
