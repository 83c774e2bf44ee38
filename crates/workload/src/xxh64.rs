//! XXH64 (seed 0) over a sequence of little-endian `u64` words — the hash
//! behind [`crate::TensorPairStream::fingerprint`].
//!
//! The value is XXH64 of the bytes the words spell
//! (<https://github.com/Cyan4973/xxHash/blob/dev/doc/xxhash_spec.md>),
//! but the input never becomes bytes: a 32-byte stripe is four words, one
//! per lane, so each word goes straight into its lane's accumulator. The
//! four lanes are independent multiply chains, so the CPU runs them side
//! by side.

const PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME_5: u64 = 0x27D4_EB2F_1656_67C5;

/// One lane step: fold the word `input` into `acc`.
#[inline(always)]
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME_2))
        .rotate_left(31)
        .wrapping_mul(PRIME_1)
}

/// An XXH64 state fed one word, or one eight-word block, at a time.
pub(crate) struct WordHasher {
    /// The four lane accumulators.
    lanes: [u64; 4],
    /// The stripe being filled; its first `filled` words are live.
    stripe: [u64; 4],
    filled: usize,
    /// Words fed so far.
    words: u64,
}

impl WordHasher {
    pub(crate) fn new() -> Self {
        WordHasher {
            lanes: [
                PRIME_1.wrapping_add(PRIME_2),
                PRIME_2,
                0,
                PRIME_1.wrapping_neg(),
            ],
            stripe: [0; 4],
            filled: 0,
            words: 0,
        }
    }

    /// Feed one word.
    pub(crate) fn word(&mut self, word: u64) {
        self.stripe[self.filled] = word;
        self.filled += 1;
        self.words += 1;
        if self.filled == 4 {
            for (lane, w) in self.lanes.iter_mut().zip(self.stripe) {
                *lane = round(*lane, w);
            }
            self.filled = 0;
        }
    }

    /// Feed eight-word blocks, in order. A block is two whole stripes, so
    /// every block starts at the stripe position the first one does, and
    /// that position is a constant of the loop.
    pub(crate) fn blocks(&mut self, blocks: impl Iterator<Item = [u64; 8]>) {
        match self.filled {
            0 => self.blocks_at::<0>(blocks),
            1 => self.blocks_at::<1>(blocks),
            2 => self.blocks_at::<2>(blocks),
            _ => self.blocks_at::<3>(blocks),
        }
    }

    /// [`Self::blocks`] with `FILLED` words already in the stripe: those
    /// and a block's first `8 - FILLED` words complete two stripes, and the
    /// block's last `FILLED` words start the next one.
    fn blocks_at<const FILLED: usize>(&mut self, blocks: impl Iterator<Item = [u64; 8]>) {
        let [mut l0, mut l1, mut l2, mut l3] = self.lanes;
        let mut carry = self.stripe;
        for block in blocks {
            let word = |i: usize| {
                if i < FILLED {
                    carry[i]
                } else {
                    block[i - FILLED]
                }
            };
            l0 = round(round(l0, word(0)), word(4));
            l1 = round(round(l1, word(1)), word(5));
            l2 = round(round(l2, word(2)), word(6));
            l3 = round(round(l3, word(3)), word(7));
            carry[..FILLED].copy_from_slice(&block[8 - FILLED..]);
            self.words += 8;
        }
        self.lanes = [l0, l1, l2, l3];
        self.stripe = carry;
    }

    /// The hash of every word fed so far.
    pub(crate) fn finish(&self) -> u64 {
        let len = self.words * 8;
        let mut acc = if len >= 32 {
            let [l0, l1, l2, l3] = self.lanes;
            let mut acc = l0
                .rotate_left(1)
                .wrapping_add(l1.rotate_left(7))
                .wrapping_add(l2.rotate_left(12))
                .wrapping_add(l3.rotate_left(18));
            for lane in self.lanes {
                acc = (acc ^ round(0, lane))
                    .wrapping_mul(PRIME_1)
                    .wrapping_add(PRIME_4);
            }
            acc
        } else {
            PRIME_5
        };
        acc = acc.wrapping_add(len);
        // the words of an unfinished stripe are the input's tail
        for &w in &self.stripe[..self.filled] {
            acc = (acc ^ round(0, w))
                .rotate_left(27)
                .wrapping_mul(PRIME_1)
                .wrapping_add(PRIME_4);
        }
        acc ^= acc >> 33;
        acc = acc.wrapping_mul(PRIME_2);
        acc ^= acc >> 29;
        acc = acc.wrapping_mul(PRIME_3);
        acc ^ (acc >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_words_hash_to_xxh64_of_no_bytes() {
        assert_eq!(WordHasher::new().finish(), 0xef46_db37_51d8_e999);
    }

    /// Whole blocks land where single words would, from every stripe
    /// position, with and without a tail after them.
    #[test]
    fn blocks_equal_the_same_words_fed_one_at_a_time() {
        let word = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i << 7);
        for lead in 0..4u64 {
            for count in 0..4u64 {
                for tail in 0..4u64 {
                    let mut one_by_one = WordHasher::new();
                    let mut blocked = WordHasher::new();
                    let mut next = 0;
                    for _ in 0..lead {
                        one_by_one.word(word(next));
                        blocked.word(word(next));
                        next += 1;
                    }
                    let first = next;
                    for i in first..first + 8 * count {
                        one_by_one.word(word(i));
                    }
                    blocked.blocks(
                        (0..count).map(|b| std::array::from_fn(|j| word(first + 8 * b + j as u64))),
                    );
                    next += 8 * count;
                    for i in next..next + tail {
                        one_by_one.word(word(i));
                        blocked.word(word(i));
                    }
                    assert_eq!(
                        blocked.finish(),
                        one_by_one.finish(),
                        "{lead} lead words, {count} blocks, {tail} tail words"
                    );
                }
            }
        }
    }
}
