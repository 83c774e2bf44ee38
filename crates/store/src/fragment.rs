//! Fragment files: append-only logs of checksummed, length-prefixed
//! records.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset 0:  8-byte file magic  "MCOWAL1\n"
//! then, per record:
//!   u32  payload length
//!   u64  record key
//!   u64  FNV-1a digest of the payload
//!   u32  CRC-32 over (length ‖ key ‖ digest ‖ payload)
//!   payload bytes
//! ```
//!
//! The CRC covers the length field, so a bit flip anywhere in the header
//! or payload fails the check; a record cut short by a crash simply runs
//! out of bytes. [`scan`] classifies the tail accordingly:
//!
//! * [`TailState::Torn`] — the last record's bytes end before its declared
//!   length (or mid-header). This is the expected crash signature of an
//!   interrupted append; recovery truncates the file back to the record
//!   boundary and keeps appending.
//! * [`TailState::Corrupt`] — a record is fully present but its CRC or
//!   digest does not match (bit rot, overwrite). Framing beyond this point
//!   cannot be trusted, so the scan stops; everything from the record's
//!   offset on is quarantined and never served.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

use crate::checksum::{crc32, crc32_update, fnv1a};

/// Magic bytes opening every fragment file.
pub const FILE_MAGIC: [u8; 8] = *b"MCOWAL1\n";

/// Length of the fragment file header (the magic).
pub const FILE_HEADER_LEN: u64 = 8;

/// Length of the fixed per-record header (len + key + digest + crc).
pub const RECORD_HEADER_LEN: u64 = 4 + 8 + 8 + 4;

/// Upper bound on a record payload; a declared length beyond this is
/// treated as corruption rather than an allocation request.
pub const MAX_PAYLOAD_LEN: u32 = 1 << 28; // 256 MiB

/// How a fragment's byte stream ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailState {
    /// Every byte belongs to a verified record.
    Clean,
    /// The final record was cut short mid-write; `offset` is where it
    /// starts (the clean-prefix length).
    Torn {
        /// Byte offset of the incomplete record.
        offset: u64,
    },
    /// A fully-present record failed its CRC or digest check at `offset`;
    /// the fragment is unreadable from there on.
    Corrupt {
        /// Byte offset of the first bad record.
        offset: u64,
    },
}

/// One verified record as read back from a fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawRecord {
    /// Caller-chosen 64-bit key.
    pub key: u64,
    /// FNV-1a digest of `payload` (verified during the scan).
    pub digest: u64,
    /// Byte offset of the record header within the fragment.
    pub offset: u64,
    /// The record body.
    pub payload: Vec<u8>,
}

/// Result of [`scan`]: the verified records plus how the tail ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FragmentScan {
    /// Records whose CRC and digest both verified, in file order.
    pub records: Vec<RawRecord>,
    /// How the byte stream ended.
    pub tail: TailState,
    /// Total file length in bytes.
    pub file_len: u64,
}

impl FragmentScan {
    /// Length of the verified prefix: everything before the first torn or
    /// corrupt byte.
    pub fn clean_len(&self) -> u64 {
        match self.tail {
            TailState::Clean => self.file_len,
            TailState::Torn { offset } | TailState::Corrupt { offset } => offset,
        }
    }
}

/// Total on-disk footprint of a record with `payload_len` body bytes.
pub fn encoded_len(payload_len: usize) -> u64 {
    RECORD_HEADER_LEN + payload_len as u64
}

/// Serialize one record (header + payload) into a buffer ready to append.
/// Returns the buffer and the payload's FNV-1a digest, which the record
/// carries and a caller's index keeps.
pub fn encode_record(key: u64, payload: &[u8]) -> (Vec<u8>, u64) {
    let len = payload.len() as u32;
    let digest = fnv1a(payload);
    let mut buf = Vec::with_capacity(RECORD_HEADER_LEN as usize + payload.len());
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(&key.to_le_bytes());
    buf.extend_from_slice(&digest.to_le_bytes());
    // CRC over everything serialized so far, then the payload, so the
    // length field itself is covered.
    let crc = crc32_update(crc32(&buf), payload);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf.extend_from_slice(payload);
    (buf, digest)
}

/// What [`append`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Appended {
    /// Bytes written: the record header and the payload.
    pub bytes: u64,
    /// FNV-1a digest of the payload, as the record carries it.
    pub digest: u64,
}

/// Create a fresh fragment file at `path` (truncating), write the magic,
/// and fsync so the header is durable before the manifest names the file.
pub fn create(path: &Path) -> std::io::Result<File> {
    let mut f = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(path)?;
    f.write_all(&FILE_MAGIC)?;
    f.sync_all()?;
    Ok(f)
}

/// Append one record to an open fragment, optionally fsyncing the data.
pub fn append(file: &mut File, key: u64, payload: &[u8], sync: bool) -> std::io::Result<Appended> {
    let (buf, digest) = encode_record(key, payload);
    file.write_all(&buf)?;
    if sync {
        file.sync_data()?;
    }
    Ok(Appended {
        bytes: buf.len() as u64,
        digest,
    })
}

/// Read a fragment back, verifying every record. Never fails on torn or
/// corrupt content — that is reported through [`FragmentScan::tail`]; an
/// `Err` is a real I/O problem (file missing, permission).
pub fn scan(path: &Path) -> std::io::Result<FragmentScan> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let file_len = bytes.len() as u64;
    if (bytes.len() as u64) < FILE_HEADER_LEN {
        return Ok(FragmentScan {
            records: Vec::new(),
            tail: TailState::Torn { offset: 0 },
            file_len,
        });
    }
    if bytes[..FILE_HEADER_LEN as usize] != FILE_MAGIC {
        return Ok(FragmentScan {
            records: Vec::new(),
            tail: TailState::Corrupt { offset: 0 },
            file_len,
        });
    }
    let mut records = Vec::new();
    let mut pos = FILE_HEADER_LEN as usize;
    let tail = loop {
        if pos == bytes.len() {
            break TailState::Clean;
        }
        let offset = pos as u64;
        let remaining = bytes.len() - pos;
        if remaining < RECORD_HEADER_LEN as usize {
            break TailState::Torn { offset };
        }
        let header = &bytes[pos..pos + RECORD_HEADER_LEN as usize];
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        if len > MAX_PAYLOAD_LEN {
            break TailState::Corrupt { offset };
        }
        let total = RECORD_HEADER_LEN as usize + len as usize;
        if remaining < total {
            break TailState::Torn { offset };
        }
        let key = u64::from_le_bytes([
            header[4], header[5], header[6], header[7], header[8], header[9], header[10],
            header[11],
        ]);
        let digest = u64::from_le_bytes([
            header[12], header[13], header[14], header[15], header[16], header[17], header[18],
            header[19],
        ]);
        let stored_crc = u32::from_le_bytes([header[20], header[21], header[22], header[23]]);
        let payload = &bytes[pos + RECORD_HEADER_LEN as usize..pos + total];
        if crc32_update(crc32(&header[..20]), payload) != stored_crc || fnv1a(payload) != digest {
            break TailState::Corrupt { offset };
        }
        records.push(RawRecord {
            key,
            digest,
            offset,
            payload: payload.to_vec(),
        });
        pos += total;
    };
    Ok(FragmentScan {
        records,
        tail,
        file_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("micco-frag-{}-{name}", std::process::id()))
    }

    /// The record encoder as first written: CRC-32 over a copy of the
    /// header and payload joined in one buffer.
    fn encode_record_by_copy(key: u64, payload: &[u8]) -> Vec<u8> {
        let len = payload.len() as u32;
        let digest = fnv1a(payload);
        let mut buf = Vec::with_capacity(RECORD_HEADER_LEN as usize + payload.len());
        buf.extend_from_slice(&len.to_le_bytes());
        buf.extend_from_slice(&key.to_le_bytes());
        buf.extend_from_slice(&digest.to_le_bytes());
        let mut crc_input = buf.clone();
        crc_input.extend_from_slice(payload);
        buf.extend_from_slice(&crc32(&crc_input).to_le_bytes());
        buf.extend_from_slice(payload);
        buf
    }

    #[test]
    fn records_are_byte_identical_to_the_copying_encoder() {
        // about the size of a 20,480-task plan's text
        let plan_sized: Vec<u8> = (0..300_000u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B1) >> 24) as u8)
            .collect();
        for payload in [&b""[..], b"x", &plan_sized] {
            let (record, digest) = encode_record(0x5eed, payload);
            assert_eq!(record, encode_record_by_copy(0x5eed, payload));
            assert_eq!(digest, fnv1a(payload));
        }
    }

    #[test]
    fn roundtrip_multiple_records() {
        let path = tmp("roundtrip.wal");
        let mut f = create(&path).unwrap();
        append(&mut f, 1, b"alpha", true).unwrap();
        append(&mut f, 2, b"", false).unwrap();
        append(&mut f, 3, b"gamma-delta", true).unwrap();
        drop(f);
        let scan = scan(&path).unwrap();
        assert_eq!(scan.tail, TailState::Clean);
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.records[0].payload, b"alpha");
        assert_eq!(scan.records[1].payload, b"");
        assert_eq!(scan.records[2].key, 3);
        assert_eq!(scan.records[0].offset, FILE_HEADER_LEN);
        assert_eq!(scan.records[1].offset, FILE_HEADER_LEN + encoded_len(5));
        assert_eq!(scan.clean_len(), scan.file_len);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_detected_at_record_boundary() {
        let path = tmp("torn.wal");
        let mut f = create(&path).unwrap();
        append(&mut f, 1, b"keep-me", true).unwrap();
        append(&mut f, 2, b"torn-away", true).unwrap();
        drop(f);
        let full = scan(&path).unwrap();
        let boundary = full.records[1].offset;
        // cut the second record short by 3 bytes
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full.file_len - 3).unwrap();
        drop(f);
        let s = scan(&path).unwrap();
        assert_eq!(s.records.len(), 1);
        assert_eq!(s.tail, TailState::Torn { offset: boundary });
        assert_eq!(s.clean_len(), boundary);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bit_flip_is_corrupt_not_torn() {
        let path = tmp("flip.wal");
        let mut f = create(&path).unwrap();
        append(&mut f, 1, b"first", true).unwrap();
        append(&mut f, 2, b"second", true).unwrap();
        drop(f);
        let full = scan(&path).unwrap();
        let second = full.records[1].offset;
        let mut bytes = std::fs::read(&path).unwrap();
        // flip one payload bit of the second record
        let idx = (second + RECORD_HEADER_LEN) as usize;
        bytes[idx] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let s = scan(&path).unwrap();
        assert_eq!(s.records.len(), 1);
        assert_eq!(s.records[0].key, 1);
        assert_eq!(s.tail, TailState::Corrupt { offset: second });
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_and_absurd_length_are_corrupt() {
        let path = tmp("magic.wal");
        std::fs::write(&path, b"NOTMAGIC-and-then-some").unwrap();
        assert_eq!(scan(&path).unwrap().tail, TailState::Corrupt { offset: 0 });
        // valid magic, then a length field claiming 1 GiB
        let mut bytes = FILE_MAGIC.to_vec();
        bytes.extend_from_slice(&(1u32 << 30).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 20]);
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(
            scan(&path).unwrap().tail,
            TailState::Corrupt {
                offset: FILE_HEADER_LEN
            }
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_header_is_torn() {
        let path = tmp("header.wal");
        let mut f = create(&path).unwrap();
        append(&mut f, 9, b"payload", true).unwrap();
        drop(f);
        // keep the first record plus 5 stray header bytes
        let keep = FILE_HEADER_LEN + encoded_len(7) + 5;
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[1, 2, 3, 4, 5]);
        bytes.truncate(keep as usize);
        std::fs::write(&path, &bytes).unwrap();
        let s = scan(&path).unwrap();
        assert_eq!(s.records.len(), 1);
        assert_eq!(
            s.tail,
            TailState::Torn {
                offset: FILE_HEADER_LEN + encoded_len(7)
            }
        );
        std::fs::remove_file(&path).unwrap();
    }
}
