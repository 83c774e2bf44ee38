//! The machine's residency index: for each tensor symbol, the devices
//! holding a copy and the copy's slot in that device's [`DeviceMemory`].
//!
//! A tensor has at most a few copies — a third holder shows up at under
//! 1% of operand uses on the evaluation's shapes — so each symbol's record
//! holds two copies inline, and a map keyed by symbol takes the third and
//! later ones. The index therefore grows with symbols plus resident
//! copies, never with symbols × devices, and answering "which slot holds
//! `s` on device `g`" reads one record.
//!
//! [`DeviceMemory`]: crate::DeviceMemory

use micco_workload::{FastIdMap, TensorSym};

use crate::machine::GpuId;

/// No device (an empty inline copy).
const NONE: u32 = u32::MAX;

/// One resident copy: its device and its slot there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Held {
    gpu: u32,
    slot: u32,
}

const EMPTY: Held = Held {
    gpu: NONE,
    slot: NONE,
};

/// One symbol's copies. `inline[0]` fills before `inline[1]`, and
/// `overflow` copies exist only while both are filled.
#[derive(Debug, Clone, Copy)]
struct Record {
    inline: [Held; 2],
    /// Copies of this symbol in [`Residency::overflow`].
    overflow: u32,
}

const VACANT: Record = Record {
    inline: [EMPTY; 2],
    overflow: 0,
};

/// Symbol → resident copies, for every device of one machine.
#[derive(Debug, Clone, Default)]
pub(crate) struct Residency {
    records: Vec<Record>,
    /// Third and later copies, by symbol.
    overflow: FastIdMap<u32, Vec<Held>>,
}

impl Residency {
    /// Make room for symbols `0..n`.
    pub(crate) fn grow(&mut self, n: usize) {
        if self.records.len() < n {
            self.records.resize(n, VACANT);
        }
    }

    /// The `(device, slot)` of every copy of `s`, inline ones first.
    #[inline]
    pub(crate) fn copies(&self, s: TensorSym) -> impl Iterator<Item = (usize, u32)> + '_ {
        let r = &self.records[s.index()];
        let extra: &[Held] = if r.overflow == 0 {
            &[]
        } else {
            &self.overflow[&s.0]
        };
        r.inline
            .iter()
            .chain(extra)
            .filter(|c| c.gpu != NONE)
            .map(|c| (c.gpu as usize, c.slot))
    }

    /// The slot holding `s` on device `g`, if `g` holds it.
    #[inline]
    pub(crate) fn slot(&self, s: TensorSym, g: usize) -> Option<u32> {
        let r = &self.records[s.index()];
        let g = g as u32;
        for c in r.inline {
            if c.gpu == g {
                return Some(c.slot);
            }
        }
        if r.overflow == 0 {
            return None;
        }
        self.overflow[&s.0]
            .iter()
            .find(|c| c.gpu == g)
            .map(|c| c.slot)
    }

    /// Record that device `g` now holds `s` in `slot`.
    pub(crate) fn insert(&mut self, s: TensorSym, g: usize, slot: u32) {
        debug_assert!(self.slot(s, g).is_none(), "{s:?} already on gpu{g}");
        let copy = Held {
            gpu: g as u32,
            slot,
        };
        let r = &mut self.records[s.index()];
        match r.inline.iter_mut().find(|c| c.gpu == NONE) {
            Some(free) => *free = copy,
            None => {
                r.overflow += 1;
                self.overflow.entry(s.0).or_default().push(copy);
            }
        }
    }

    /// Record that device `g` no longer holds `s`.
    pub(crate) fn remove(&mut self, s: TensorSym, g: usize) {
        let g = g as u32;
        let r = &mut self.records[s.index()];
        let Some(at) = r.inline.iter().position(|c| c.gpu == g) else {
            let extra = self.overflow.get_mut(&s.0).expect("copy is indexed");
            let at = extra
                .iter()
                .position(|c| c.gpu == g)
                .expect("copy is indexed");
            extra.swap_remove(at);
            r.overflow -= 1;
            if r.overflow == 0 {
                self.overflow.remove(&s.0);
            }
            return;
        };
        // keep the inline copies packed to the front, refilled from the
        // overflow while it has any
        if at == 0 {
            r.inline[0] = r.inline[1];
        }
        r.inline[1] = if r.overflow == 0 {
            EMPTY
        } else {
            let extra = self.overflow.get_mut(&s.0).expect("overflow is indexed");
            let moved = extra.pop().expect("overflow count matches");
            r.overflow -= 1;
            if r.overflow == 0 {
                self.overflow.remove(&s.0);
            }
            moved
        };
    }

    /// Every device holding `s`, ascending, into `out` (cleared first).
    pub(crate) fn holders_into(&self, s: TensorSym, out: &mut Vec<GpuId>) {
        out.clear();
        out.extend(self.copies(s).map(|(g, _)| GpuId(g)));
        out.sort_unstable();
    }

    /// Lowest-numbered device holding `s` other than `exclude`.
    #[inline]
    pub(crate) fn first_holder_excluding(&self, s: TensorSym, exclude: usize) -> Option<GpuId> {
        self.copies(s)
            .map(|(g, _)| g)
            .filter(|&g| g != exclude)
            .min()
            .map(GpuId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Random inserts and removals over few symbols and many devices agree
    /// with a map of (symbol, device) → slot, with holders ascending.
    #[test]
    fn matches_a_map_through_overflow_churn() {
        let mut state = 7u64;
        let mut next = move |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % n
        };
        let (syms, gpus) = (5usize, 9usize);
        let mut r = Residency::default();
        r.grow(syms);
        let mut reference: BTreeMap<(usize, usize), u32> = BTreeMap::new();
        for step in 0..20_000u32 {
            let (s, g) = (next(syms as u64) as usize, next(gpus as u64) as usize);
            let sym = TensorSym(s as u32);
            if reference.remove(&(s, g)).is_some() {
                r.remove(sym, g);
            } else {
                reference.insert((s, g), step);
                r.insert(sym, g, step);
            }
            for s in 0..syms {
                let sym = TensorSym(s as u32);
                let expected: Vec<GpuId> = (0..gpus)
                    .filter(|&g| reference.contains_key(&(s, g)))
                    .map(GpuId)
                    .collect();
                let mut got = Vec::new();
                r.holders_into(sym, &mut got);
                assert_eq!(got, expected, "holders of {s} at step {step}");
                for g in 0..gpus {
                    assert_eq!(r.slot(sym, g), reference.get(&(s, g)).copied());
                    let first = expected.iter().copied().find(|h| h.0 != g);
                    assert_eq!(r.first_holder_excluding(sym, g), first);
                }
                let mut copies: Vec<(usize, u32)> = r.copies(sym).collect();
                copies.sort_unstable();
                let want: Vec<(usize, u32)> = reference
                    .range((s, 0)..(s + 1, 0))
                    .map(|(&(_, g), &slot)| (g, slot))
                    .collect();
                assert_eq!(copies, want);
            }
        }
        assert!(
            r.overflow.len() <= syms,
            "one overflow entry per symbol at most"
        );
        for (s, extra) in &r.overflow {
            assert_eq!(extra.len() as u32, r.records[*s as usize].overflow);
            assert!(!extra.is_empty());
        }
    }
}
