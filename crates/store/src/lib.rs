#![warn(missing_docs)]

//! # micco-store
//!
//! A crash-safe, write-ahead-logged record store — the durable half of the
//! plan cache. The design follows chroma's wal3 at miniature scale:
//!
//! * **Fragment files** (`frag-NNNNNN.wal`) are append-only logs of
//!   length-prefixed records. Every record carries its 64-bit key, a 64-bit
//!   FNV-1a digest of the payload, and a CRC-32 over header and payload,
//!   so torn and bit-rotted records are detected at read time — never
//!   served.
//! * A small **manifest** (`MANIFEST`) is the single source of truth: it
//!   names the live fragments (in replay order), the snapshot watermark,
//!   and the next fragment sequence number. It is replaced atomically via
//!   write-temp → fsync → rename, so a crash leaves either the old or the
//!   new manifest, never a torn one.
//! * **Recovery on open** replays the manifest's fragments, physically
//!   truncates any torn tail record (an append cut short by a crash), and
//!   quarantines any record whose CRC or digest mismatches — the rest of
//!   that fragment is unreachable (framing is gone) and is never guessed
//!   at. Later records win over earlier ones with the same key.
//! * **Compaction** folds every live record into a single snapshot
//!   fragment (`snap-NNNNNN.wal`), swings the manifest to it atomically,
//!   and deletes the dead fragments — including orphans left by a crash
//!   between fragment creation and manifest update.
//!
//! The store is deliberately payload-agnostic: callers hand it bytes. The
//! plan-specific layer (parse, byte-equality re-verification, cache
//! hydration) lives in `micco-core`'s `DurablePlanCache`, keeping the
//! dependency arrow pointing one way.
//!
//! ```
//! use micco_store::{PlanStore, StoreOptions};
//!
//! let dir = std::env::temp_dir().join(format!("micco-store-doc-{}", std::process::id()));
//! let mut store = PlanStore::open(&dir)?;
//! store.put(42, b"micco-plan v2\n...")?;
//! drop(store);
//!
//! // warm restart: the record is replayed from the log
//! let store = PlanStore::open(&dir)?;
//! assert_eq!(store.get(42), Some(&b"micco-plan v2\n..."[..]));
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), micco_store::StoreError>(())
//! ```

pub mod checksum;
pub mod fragment;
pub mod manifest;
pub mod store;

pub use checksum::{crc32, fnv1a};
pub use fragment::{TailState, FILE_HEADER_LEN, RECORD_HEADER_LEN};
pub use manifest::{Manifest, MANIFEST_NAME};
pub use store::{
    CompactReport, PlanStore, RecoveryReport, StoreError, StoreOptions, StoreStats, VerifyReport,
};
