//! Tensor-identity interning: 64-bit ids → dense 32-bit symbols.
//!
//! Streams name tensors with 64-bit [`TensorId`] values. The planner's hot
//! loops, however, want *dense* indices so that residency, next-use and
//! host-copy state can live in flat vectors instead of hash maps. A
//! [`TensorInterner`] assigns each distinct id a [`TensorSym`] — a `u32`
//! in first-appearance order — and converts in both directions. Interning
//! happens once per machine at the id boundary; everything downstream
//! indexes by symbol.
//!
//! Every in-tree producer numbers its tensors in dense runs: the generator
//! numbers inputs from 0 and outputs from [`OUTPUT_ID_BASE`], and graph
//! lowering numbers from 0. The interner therefore keeps one array per run,
//! indexed by the id's offset into the run, and resolves those ids without
//! hashing. An id joins a run's array only while its offset stays within a
//! constant factor of the number of interned tensors ([`TensorInterner`]
//! documents the bound), so a sparse id never grows an array; such ids go
//! to a hash map, which a lookup probes only when it is non-empty. That
//! map hashes with a multiply-xor-shift hasher ([`FastIdHasher`]) rather
//! than the standard library's SipHash: tensor ids are not
//! attacker-controlled, so the DoS-resistant default only costs planning
//! throughput.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use crate::generator::OUTPUT_ID_BASE;
use crate::task::{TensorId, TensorPairStream};

/// Dense symbol for an interned [`TensorId`] (assigned in first-appearance
/// order, starting at 0; never `u32::MAX`).
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

/// Marks an entry of a run's array whose id has no symbol.
const NO_SYM: u32 = u32::MAX;

/// How far past twice the interned count a run's array may reach: room for
/// small streams whose ids start a little above their run's base.
const RUN_SLACK: u64 = 1024;

/// Bidirectional id↔symbol table.
///
/// Ids in the two dense runs — `0, 1, …` and `OUTPUT_ID_BASE, …` — resolve
/// by array index. An id extends its run's array only when its offset into
/// the run is below `2 × len() + 1024`, so neither array ever holds more
/// than that many entries; any other id is hashed. Symbols come out in
/// first-appearance order whichever way an id is stored.
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
    /// Symbols of ids `0, 1, …`, indexed by id ([`NO_SYM`] where none).
    inputs: Vec<u32>,
    /// Symbols of ids `OUTPUT_ID_BASE, …`, indexed by id − base.
    outputs: Vec<u32>,
    /// Symbols of ids beyond either array's reach when first seen.
    sparse: FastIdMap<u64, u32>,
    /// Original ids, indexed by symbol.
    ids: Vec<TensorId>,
}

impl TensorInterner {
    /// An empty table.
    pub fn new() -> Self {
        TensorInterner::default()
    }

    /// Whether `id` falls in the output run, and its offset into its run.
    #[inline]
    fn run_of(id: TensorId) -> (bool, u64) {
        match id.0.checked_sub(OUTPUT_ID_BASE) {
            Some(offset) => (true, offset),
            None => (false, id.0),
        }
    }

    /// The symbol for `id`, assigning the next free one on first sight.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX - 1` distinct tensors are interned (4
    /// billion — far beyond any stream this repo plans).
    #[inline]
    pub fn intern(&mut self, id: TensorId) -> TensorSym {
        match self.get(id) {
            Some(s) => s,
            None => self.insert(id),
        }
    }

    /// Assign the next symbol to an id that has none.
    fn insert(&mut self, id: TensorId) -> TensorSym {
        let s = u32::try_from(self.ids.len())
            .ok()
            .filter(|&s| s != NO_SYM)
            .expect("interner overflow: > u32::MAX - 1 tensors");
        self.ids.push(id);
        let reach = 2 * self.ids.len() as u64 + RUN_SLACK;
        let (output, offset) = Self::run_of(id);
        let run = if output {
            &mut self.outputs
        } else {
            &mut self.inputs
        };
        if offset < reach {
            let i = offset as usize;
            if i >= run.len() {
                run.resize(i + 1, NO_SYM);
            }
            run[i] = s;
        } else {
            self.sparse.insert(id.0, s);
        }
        TensorSym(s)
    }

    /// The symbol for `id`, if it has been interned.
    #[inline]
    pub fn get(&self, id: TensorId) -> Option<TensorSym> {
        let (output, offset) = Self::run_of(id);
        let run = if output { &self.outputs } else { &self.inputs };
        if offset < run.len() as u64 {
            let s = run[offset as usize];
            if s != NO_SYM {
                return Some(TensorSym(s));
            }
        }
        // an id hashed before its run's array grew past it stays hashed
        if self.sparse.is_empty() {
            return None;
        }
        self.sparse.get(&id.0).copied().map(TensorSym)
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

    /// Both run arrays stay within the documented bound.
    fn assert_runs_bounded(i: &TensorInterner) {
        let bound = 2 * i.len() as u64 + RUN_SLACK;
        assert!(
            i.inputs.len() as u64 <= bound,
            "input run {}",
            i.inputs.len()
        );
        assert!(
            i.outputs.len() as u64 <= bound,
            "output run {}",
            i.outputs.len()
        );
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
        let mut i = TensorInterner::new();
        i.intern_stream(&stream);
        // distinct: 1, 2, 100, 3, 101 — in stream order
        assert_eq!(i.len(), 5);
        assert_eq!(i.get(TensorId(1)), Some(TensorSym(0)));
        assert_eq!(i.get(TensorId(100)), Some(TensorSym(2)));
        assert_eq!(i.get(TensorId(101)), Some(TensorSym(4)));
    }

    /// Interleaved `intern` and `get` over dense ids of both runs, ids just
    /// past each array's reach, run boundaries and random 64-bit values
    /// answer exactly like a map, in first-appearance order.
    #[test]
    fn matches_a_map_over_dense_and_sparse_ids() {
        let mut state = 0x5eed_u64;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut i = TensorInterner::new();
        let mut reference: HashMap<u64, u32> = HashMap::new();
        let mut seen: Vec<u64> = Vec::new();
        for step in 0..40_000u64 {
            let reach = 2 * i.len() as u64 + RUN_SLACK;
            let id = match next() % 10 {
                0..=2 => next() % 3_000,
                3..=5 => OUTPUT_ID_BASE + next() % 3_000,
                6 => reach + next() % 4,
                7 => OUTPUT_ID_BASE + reach + next() % 4,
                8 => [u64::MAX, OUTPUT_ID_BASE - 1, OUTPUT_ID_BASE, 0][(next() % 4) as usize],
                _ => next(),
            };
            // revisit earlier ids too, so hashed ids that an array has
            // since grown past are looked up again
            let id = if step % 3 == 0 && !seen.is_empty() {
                seen[(next() % seen.len() as u64) as usize]
            } else {
                id
            };
            if next() % 2 == 0 {
                assert_eq!(
                    i.get(TensorId(id)),
                    reference.get(&id).copied().map(TensorSym),
                    "get {id}"
                );
            } else {
                let fresh = reference.len() as u32;
                let expected = *reference.entry(id).or_insert_with(|| {
                    seen.push(id);
                    fresh
                });
                assert_eq!(i.intern(TensorId(id)), TensorSym(expected), "intern {id}");
            }
            assert_runs_bounded(&i);
        }
        assert_eq!(i.len(), reference.len());
        assert!(!i.sparse.is_empty(), "the sparse ids were hashed");
        for (&id, &s) in &reference {
            assert_eq!(i.resolve(TensorSym(s)), TensorId(id));
            assert_eq!(i.get(TensorId(id)), Some(TensorSym(s)));
        }
    }

    #[test]
    fn an_outlier_never_grows_a_run() {
        let mut i = TensorInterner::new();
        for n in 0..10 {
            i.intern(TensorId(n));
            i.intern(TensorId(OUTPUT_ID_BASE + n));
        }
        let far_input = i.intern(TensorId(1_000_000_000));
        let far_output = i.intern(TensorId(OUTPUT_ID_BASE + 1_000_000_000));
        assert_eq!((far_input, far_output), (TensorSym(20), TensorSym(21)));
        assert_eq!((i.inputs.len(), i.outputs.len()), (10, 10));
        assert_eq!(i.sparse.len(), 2);
        assert_runs_bounded(&i);
        // dense ids keep resolving by index beside the hashed outliers
        for n in 10..20 {
            let s = i.intern(TensorId(n));
            assert_eq!(i.get(TensorId(n)), Some(s));
        }
        assert_eq!(i.sparse.len(), 2);
        assert_eq!(i.get(TensorId(1_000_000_000)), Some(far_input));
        assert_eq!(
            i.get(TensorId(OUTPUT_ID_BASE + 1_000_000_000)),
            Some(far_output)
        );
        assert_eq!(i.get(TensorId(999_999_999)), None);
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
