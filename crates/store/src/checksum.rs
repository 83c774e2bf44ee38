//! The two hash functions of the record format.
//!
//! * [`crc32`] — CRC-32/ISO-HDLC (the zlib polynomial), the per-record
//!   integrity check. Catches torn writes and bit rot in header or payload.
//!   [`crc32_update`] extends a CRC over more bytes.
//! * [`fnv1a`] — 64-bit FNV-1a, byte-compatible with
//!   `SchedulePlan::digest()` in `micco-core`: the store verifies on load
//!   that a record's payload still hashes to the digest it was written
//!   with, so the digest column doubles as a content index *and* a second,
//!   independent corruption check.

/// CRC-32/ISO-HDLC slicing-by-8 tables (reflected 0xEDB88320
/// polynomial). `CRC_TABLES[0]` is the byte-at-a-time table; entry `i` of
/// `CRC_TABLES[k]` advances byte `i`'s contribution past `k` more bytes.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32/ISO-HDLC over `bytes` (init `0xFFFF_FFFF`, final xor, reflected
/// — the same parameters as zlib's `crc32`).
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Extend `crc`, the CRC-32 of some bytes `a`, to the CRC-32 of
/// `a ‖ bytes`, as zlib's `crc32(crc, buf, len)` does: so
/// `crc32_update(crc32(a), b) == crc32(a ‖ b)`, and `crc` 0 starts from no
/// bytes. A record's CRC covers its header then its payload without
/// copying the two into one buffer.
///
/// Slicing-by-8: each step folds eight bytes through eight table lookups
/// that do not depend on one another, instead of eight dependent
/// byte steps; the bytes left over take the byte-wise step. The value is
/// the byte-wise CRC's.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !crc;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// 64-bit FNV-1a over `bytes` — bit-identical to the incremental sink
/// `micco-core` hashes plan text through, so for a payload that *is* a
/// serialized plan, `fnv1a(payload) == plan.digest()`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time CRC-32 the slicing-by-8 one must equal.
    fn crc32_bytewise(crc: u32, bytes: &[u8]) -> u32 {
        let mut crc = !crc;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// `len` bytes of an xorshift stream: every byte value, no pattern the
    /// 8-byte stride could line up with.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn sliced_crc_equals_the_bytewise_crc() {
        let bytes = noise(300_000);
        // every length through eight full words, so every remainder
        for len in 0..=64 {
            assert_eq!(
                crc32(&bytes[..len]),
                crc32_bytewise(0, &bytes[..len]),
                "len {len}"
            );
        }
        // a store-record-sized payload, and one extended from a header CRC
        assert_eq!(crc32(&bytes), crc32_bytewise(0, &bytes));
        let (head, tail) = bytes.split_at(24);
        assert_eq!(crc32_update(crc32(head), tail), crc32_bytewise(0, &bytes));
        // every split point of the known vectors, through `crc32_update`
        for input in [
            &b"123456789"[..],
            b"The quick brown fox jumps over the lazy dog",
        ] {
            for split in 0..=input.len() {
                let (head, tail) = input.split_at(split);
                let want = crc32_bytewise(crc32_bytewise(0, head), tail);
                assert_eq!(crc32_update(crc32(head), tail), want, "split {split}");
            }
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // standard check value for CRC-32/ISO-HDLC
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_crc_equals_one_shot_at_every_split() {
        for input in [
            &b"123456789"[..],
            b"",
            b"The quick brown fox jumps over the lazy dog",
        ] {
            assert_eq!(crc32_update(0, input), crc32(input));
            for split in 0..=input.len() {
                let (head, tail) = input.split_at(split);
                assert_eq!(
                    crc32_update(crc32(head), tail),
                    crc32(input),
                    "split {split}"
                );
            }
        }
        assert_eq!(crc32_update(crc32(b"1234"), b"56789"), 0xCBF4_3926);
        assert_eq!(
            crc32_update(crc32(b"The quick brown fox "), b"jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn fnv1a_matches_known_vectors() {
        // standard 64-bit FNV-1a test vectors
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn single_bit_flip_changes_both() {
        let a = b"micco-plan v2\nscheduler rr\n".to_vec();
        let mut b = a.clone();
        b[7] ^= 0x01;
        assert_ne!(crc32(&a), crc32(&b));
        assert_ne!(fnv1a(&a), fnv1a(&b));
    }
}
