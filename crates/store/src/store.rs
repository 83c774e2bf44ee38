//! [`PlanStore`]: the write-ahead-logged record store.
//!
//! ## Recovery state machine (on [`PlanStore::open`])
//!
//! ```text
//!           ┌─ no MANIFEST ──────────────► fresh store (orphan .wal
//!           │                               files are ignored)
//! open(dir)─┤
//!           └─ MANIFEST ─► for each listed fragment, in order:
//!                │
//!                ├─ file missing ──► count, continue (serve the rest)
//!                ├─ scan Clean ────► load all records
//!                ├─ scan Torn ─────► load the clean prefix, physically
//!                │                   truncate the torn tail record
//!                └─ scan Corrupt ──► load the clean prefix, quarantine
//!                                    from the bad record on (framing is
//!                                    untrustworthy; nothing past it is
//!                                    ever served)
//! ```
//!
//! Later records win over earlier ones with the same key (an overwrite is
//! an append). New appends after open always go to a *fresh* fragment, so
//! a quarantined suffix is never written over.

use std::collections::BTreeMap;
use std::fs::File;
use std::path::{Path, PathBuf};

use crate::fragment::{self, TailState};
use crate::manifest::{Manifest, MANIFEST_NAME};

/// File extension shared by fragment and snapshot files.
const WAL_EXT: &str = "wal";

/// Tunables for a [`PlanStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOptions {
    /// Rotate to a new fragment once the active one exceeds this many
    /// bytes (small fragments bound the blast radius of a corrupt region
    /// and make GC incremental).
    pub fragment_max_bytes: u64,
    /// fsync after every appended record. Off trades the last few appends
    /// for throughput — recovery still truncates cleanly either way.
    pub sync: bool,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            fragment_max_bytes: 1 << 20,
            sync: true,
        }
    }
}

/// Store failures: real I/O problems and unreadable manifests. Torn or
/// bit-rotted *records* are not errors — recovery handles them and
/// reports through [`RecoveryReport`] / [`VerifyReport`].
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io {
        /// Path involved.
        path: PathBuf,
        /// Source error.
        source: std::io::Error,
    },
    /// The manifest exists but cannot be parsed; the store refuses to
    /// guess at a view of the data.
    BadManifest {
        /// 1-based line number (0 for a missing field).
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl StoreError {
    pub(crate) fn io(path: &Path, source: std::io::Error) -> StoreError {
        StoreError::Io {
            path: path.to_path_buf(),
            source,
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            StoreError::BadManifest { line, reason } => {
                write!(f, "manifest line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::BadManifest { .. } => None,
        }
    }
}

/// What [`PlanStore::open`] found and repaired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Fragments the manifest listed.
    pub fragments_listed: usize,
    /// Listed fragments whose file was missing on disk.
    pub fragments_missing: usize,
    /// Records that verified (CRC + digest) and were loaded.
    pub records_loaded: usize,
    /// Loaded records later overwritten by a newer record with the same
    /// key (the live count is `records_loaded - records_superseded`).
    pub records_superseded: usize,
    /// Torn tail records physically truncated away.
    pub torn_records_truncated: usize,
    /// Corrupt regions quarantined (a failed CRC/digest check plus the
    /// unreachable remainder of its fragment).
    pub corrupt_regions_quarantined: usize,
}

impl RecoveryReport {
    /// True when recovery found nothing to repair.
    pub fn is_clean(&self) -> bool {
        self.fragments_missing == 0
            && self.torn_records_truncated == 0
            && self.corrupt_regions_quarantined == 0
    }
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "replayed {} record(s) from {} fragment(s); {} superseded, {} torn tail(s) truncated, \
             {} corrupt region(s) quarantined, {} missing fragment(s)",
            self.records_loaded,
            self.fragments_listed,
            self.records_superseded,
            self.torn_records_truncated,
            self.corrupt_regions_quarantined,
            self.fragments_missing,
        )
    }
}

/// Point-in-time store shape (the CLI's `store stats`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStats {
    /// Live (deduplicated) records currently servable.
    pub live_records: usize,
    /// Fragments named by the manifest.
    pub fragments: usize,
    /// Total bytes of `.wal` files on disk (including orphans).
    pub disk_bytes: u64,
    /// Snapshot watermark, if a compaction has run.
    pub snapshot: Option<u64>,
    /// Next fragment sequence number.
    pub next_seq: u64,
    /// Records appended through this handle since open.
    pub appended: u64,
    /// What recovery found when this handle was opened.
    pub recovery: RecoveryReport,
}

/// Per-fragment result of a read-only [`PlanStore::verify`] pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FragmentVerify {
    /// Fragment file name.
    pub name: String,
    /// Verified records in the fragment.
    pub records: usize,
    /// How the fragment's byte stream ended.
    pub tail: TailState,
    /// Bytes of verified prefix.
    pub clean_len: u64,
    /// Total file length.
    pub file_len: u64,
    /// The file was listed but is missing on disk.
    pub missing: bool,
}

/// Result of a read-only integrity scan over the whole store.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VerifyReport {
    /// One entry per manifest-listed fragment.
    pub fragments: Vec<FragmentVerify>,
    /// `.wal` files on disk that no manifest entry names (crash leftovers;
    /// the next compaction deletes them).
    pub orphan_files: Vec<String>,
}

impl VerifyReport {
    /// True when every fragment is present and fully verified and no
    /// orphans linger.
    pub fn is_clean(&self) -> bool {
        self.orphan_files.is_empty()
            && self
                .fragments
                .iter()
                .all(|fr| !fr.missing && fr.tail == TailState::Clean)
    }

    /// Total verified records across fragments (pre-deduplication).
    pub fn records(&self) -> usize {
        self.fragments.iter().map(|fr| fr.records).sum()
    }
}

impl std::fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for fr in &self.fragments {
            if fr.missing {
                writeln!(f, "{}: MISSING", fr.name)?;
                continue;
            }
            match fr.tail {
                TailState::Clean => {
                    writeln!(f, "{}: ok, {} record(s), {} bytes", fr.name, fr.records, fr.file_len)?
                }
                TailState::Torn { offset } => writeln!(
                    f,
                    "{}: torn tail record at byte {offset} ({} of {} bytes verified, {} record(s) readable)",
                    fr.name, fr.clean_len, fr.file_len, fr.records
                )?,
                TailState::Corrupt { offset } => writeln!(
                    f,
                    "{}: corrupt record at byte {offset} — quarantined to end of fragment ({} record(s) readable)",
                    fr.name, fr.records
                )?,
            }
        }
        for o in &self.orphan_files {
            writeln!(f, "{o}: orphan (not in manifest; removed by next compact)")?;
        }
        write!(
            f,
            "verify: {} fragment(s), {} record(s) readable — {}",
            self.fragments.len(),
            self.records(),
            if self.is_clean() {
                "clean"
            } else {
                "NOT clean"
            }
        )
    }
}

/// What a [`PlanStore::compact`] pass folded and reclaimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactReport {
    /// Fragments folded into the snapshot.
    pub folded_fragments: usize,
    /// `.wal` files deleted (dead fragments plus orphans).
    pub removed_files: usize,
    /// Live records written into the snapshot.
    pub live_records: usize,
    /// Disk bytes reclaimed.
    pub reclaimed_bytes: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Stored {
    digest: u64,
    payload: Vec<u8>,
}

struct ActiveFragment {
    file: File,
    bytes: u64,
}

/// The write-ahead-logged record store. See the [module docs](self) for
/// the recovery state machine and [`crate`] docs for the file formats.
pub struct PlanStore {
    dir: PathBuf,
    options: StoreOptions,
    manifest: Manifest,
    // BTreeMap so iteration (hydration, compaction) is deterministic.
    index: BTreeMap<u64, Stored>,
    active: Option<ActiveFragment>,
    recovery: RecoveryReport,
    appended: u64,
}

impl PlanStore {
    /// Open (creating if necessary) the store in `dir` with default
    /// options, running recovery. See [`PlanStore::open_with`].
    pub fn open(dir: impl AsRef<Path>) -> Result<PlanStore, StoreError> {
        PlanStore::open_with(dir, StoreOptions::default())
    }

    /// [`PlanStore::open`] with explicit [`StoreOptions`].
    ///
    /// # Errors
    ///
    /// I/O failures and an unparseable manifest are errors; torn or
    /// corrupt *records* are not — they are repaired/quarantined and
    /// reported via [`PlanStore::recovery`].
    pub fn open_with(
        dir: impl AsRef<Path>,
        options: StoreOptions,
    ) -> Result<PlanStore, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| StoreError::io(&dir, e))?;
        let manifest = Manifest::load(&dir)?.unwrap_or_default();
        let mut recovery = RecoveryReport {
            fragments_listed: manifest.fragments.len(),
            ..RecoveryReport::default()
        };
        let mut index: BTreeMap<u64, Stored> = BTreeMap::new();
        for name in &manifest.fragments {
            let path = dir.join(name);
            let scan = match fragment::scan(&path) {
                Ok(s) => s,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    recovery.fragments_missing += 1;
                    continue;
                }
                Err(e) => return Err(StoreError::io(&path, e)),
            };
            for rec in scan.records {
                if index
                    .insert(
                        rec.key,
                        Stored {
                            digest: rec.digest,
                            payload: rec.payload,
                        },
                    )
                    .is_some()
                {
                    recovery.records_superseded += 1;
                }
                recovery.records_loaded += 1;
            }
            match scan.tail {
                TailState::Clean => {}
                TailState::Torn { offset } => {
                    // physically truncate back to the record boundary so
                    // the fragment reads clean from now on
                    let f = std::fs::OpenOptions::new()
                        .write(true)
                        .open(&path)
                        .map_err(|e| StoreError::io(&path, e))?;
                    f.set_len(offset).map_err(|e| StoreError::io(&path, e))?;
                    f.sync_all().map_err(|e| StoreError::io(&path, e))?;
                    recovery.torn_records_truncated += 1;
                }
                TailState::Corrupt { .. } => {
                    // leave the bytes for post-mortem; they are never
                    // served and the next compact drops the fragment
                    recovery.corrupt_regions_quarantined += 1;
                }
            }
        }
        Ok(PlanStore {
            dir,
            options,
            manifest,
            index,
            active: None,
            recovery,
            appended: 0,
        })
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// What recovery found when this handle was opened.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The payload stored under `key`, if any.
    pub fn get(&self, key: u64) -> Option<&[u8]> {
        self.index.get(&key).map(|s| s.payload.as_slice())
    }

    /// Iterate `(key, digest, payload)` over every live record, in key
    /// order (deterministic).
    pub fn records(&self) -> impl Iterator<Item = (u64, u64, &[u8])> {
        self.index
            .iter()
            .map(|(k, s)| (*k, s.digest, s.payload.as_slice()))
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Durably append `payload` under `key` (an existing key is
    /// overwritten — the newer record wins on replay too). The record is
    /// written to the active fragment, rotating to a fresh one past
    /// [`StoreOptions::fragment_max_bytes`]; a brand-new fragment is
    /// registered in the manifest *before* any record lands in it.
    pub fn put(&mut self, key: u64, payload: &[u8]) -> Result<(), StoreError> {
        if self
            .active
            .as_ref()
            .is_none_or(|a| a.bytes >= self.options.fragment_max_bytes)
        {
            self.rotate()?;
        }
        let active = self.active.as_mut().ok_or_else(|| StoreError::Io {
            path: self.dir.clone(),
            source: std::io::Error::other("rotate left no active fragment"),
        })?;
        let path = self.dir.clone();
        let appended = fragment::append(&mut active.file, key, payload, self.options.sync)
            .map_err(|e| StoreError::io(&path, e))?;
        active.bytes += appended.bytes;
        self.index.insert(
            key,
            Stored {
                digest: appended.digest,
                payload: payload.to_vec(),
            },
        );
        self.appended += 1;
        Ok(())
    }

    /// Start a fresh active fragment: create the file (magic fsynced),
    /// then publish it in the manifest. A crash between the two steps
    /// leaves an orphan file the next compaction deletes.
    fn rotate(&mut self) -> Result<(), StoreError> {
        let seq = self.manifest.next_seq;
        let name = format!("frag-{seq:06}.{WAL_EXT}");
        let path = self.dir.join(&name);
        let file = fragment::create(&path).map_err(|e| StoreError::io(&path, e))?;
        let mut next = self.manifest.clone();
        next.next_seq = seq + 1;
        next.fragments.push(name);
        next.store(&self.dir)?;
        self.manifest = next;
        self.active = Some(ActiveFragment {
            file,
            bytes: fragment::FILE_HEADER_LEN,
        });
        Ok(())
    }

    /// Fold every live record into a single snapshot fragment, swing the
    /// manifest to it atomically, and delete dead fragments plus any
    /// orphaned `.wal` files. The snapshot sequence number becomes the
    /// store's watermark.
    pub fn compact(&mut self) -> Result<CompactReport, StoreError> {
        let disk_before = self.disk_bytes();
        let folded = self.manifest.fragments.len();
        let snap_seq = self.manifest.next_seq;
        let snap_name = format!("snap-{snap_seq:06}.{WAL_EXT}");
        let mut keep: Vec<String> = Vec::new();
        if !self.index.is_empty() {
            let path = self.dir.join(&snap_name);
            let mut file = fragment::create(&path).map_err(|e| StoreError::io(&path, e))?;
            for (key, stored) in &self.index {
                fragment::append(&mut file, *key, &stored.payload, false)
                    .map_err(|e| StoreError::io(&path, e))?;
            }
            file.sync_all().map_err(|e| StoreError::io(&path, e))?;
            keep.push(snap_name);
        }
        let next = Manifest {
            next_seq: snap_seq + 1,
            snapshot: (!keep.is_empty()).then_some(snap_seq),
            fragments: keep.clone(),
        };
        next.store(&self.dir)?;
        self.manifest = next;
        self.active = None;
        // GC: every .wal not named by the new manifest is dead or orphaned
        let mut removed = 0;
        for name in self.wal_files()? {
            if !keep.contains(&name) {
                let path = self.dir.join(&name);
                std::fs::remove_file(&path).map_err(|e| StoreError::io(&path, e))?;
                removed += 1;
            }
        }
        Ok(CompactReport {
            folded_fragments: folded,
            removed_files: removed,
            live_records: self.index.len(),
            reclaimed_bytes: disk_before.saturating_sub(self.disk_bytes()),
        })
    }

    /// Read-only integrity scan: re-verify every fragment from disk and
    /// report torn tails, corrupt regions, missing fragments, and orphan
    /// files — without mutating anything.
    pub fn verify(&self) -> Result<VerifyReport, StoreError> {
        verify_in(&self.dir, &self.manifest)
    }

    /// Read-only integrity scan of the store directory *without opening
    /// it*. Opening runs recovery (torn tails are physically truncated
    /// back to the last record boundary); this reports the directory
    /// exactly as it sits on disk, repairing nothing.
    pub fn verify_dir(dir: impl AsRef<Path>) -> Result<VerifyReport, StoreError> {
        let dir = dir.as_ref();
        let manifest = Manifest::load(dir)?.unwrap_or_default();
        verify_in(dir, &manifest)
    }

    /// Current shape of the store.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            live_records: self.index.len(),
            fragments: self.manifest.fragments.len(),
            disk_bytes: self.disk_bytes(),
            snapshot: self.manifest.snapshot,
            next_seq: self.manifest.next_seq,
            appended: self.appended,
            recovery: self.recovery,
        }
    }

    /// Every `.wal` file currently in the directory, sorted.
    fn wal_files(&self) -> Result<Vec<String>, StoreError> {
        wal_files_in(&self.dir)
    }

    /// Total bytes of `.wal` files plus the manifest (best effort).
    fn disk_bytes(&self) -> u64 {
        let mut total = 0;
        if let Ok(names) = self.wal_files() {
            for name in names {
                if let Ok(meta) = std::fs::metadata(self.dir.join(name)) {
                    total += meta.len();
                }
            }
        }
        if let Ok(meta) = std::fs::metadata(self.dir.join(MANIFEST_NAME)) {
            total += meta.len();
        }
        total
    }
}

/// Every `.wal` file in `dir`, sorted.
fn wal_files_in(dir: &Path) -> Result<Vec<String>, StoreError> {
    let mut names = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| StoreError::io(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io(dir, e))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(&format!(".{WAL_EXT}")) {
            names.push(name);
        }
    }
    names.sort_unstable();
    Ok(names)
}

/// Scan every fragment `manifest` names under `dir` and list orphans —
/// shared by [`PlanStore::verify`] and [`PlanStore::verify_dir`].
fn verify_in(dir: &Path, manifest: &Manifest) -> Result<VerifyReport, StoreError> {
    let mut report = VerifyReport::default();
    for name in &manifest.fragments {
        let path = dir.join(name);
        match fragment::scan(&path) {
            Ok(scan) => report.fragments.push(FragmentVerify {
                name: name.clone(),
                records: scan.records.len(),
                tail: scan.tail,
                clean_len: scan.clean_len(),
                file_len: scan.file_len,
                missing: false,
            }),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                report.fragments.push(FragmentVerify {
                    name: name.clone(),
                    records: 0,
                    tail: TailState::Clean,
                    clean_len: 0,
                    file_len: 0,
                    missing: true,
                })
            }
            Err(e) => return Err(StoreError::io(&path, e)),
        }
    }
    for name in wal_files_in(dir)? {
        if !manifest.fragments.contains(&name) {
            report.orphan_files.push(name);
        }
    }
    report.orphan_files.sort_unstable();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("micco-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_survives_reopen() {
        let dir = tmp_dir("reopen");
        let mut store = PlanStore::open(&dir).unwrap();
        assert!(store.is_empty());
        store.put(1, b"one").unwrap();
        store.put(2, b"two").unwrap();
        store.put(1, b"one-v2").unwrap(); // overwrite: newest wins
        assert_eq!(store.len(), 2);
        drop(store);
        let store = PlanStore::open(&dir).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(1), Some(&b"one-v2"[..]));
        assert_eq!(store.get(2), Some(&b"two"[..]));
        assert_eq!(store.get(3), None);
        assert_eq!(store.recovery().records_loaded, 3);
        assert_eq!(store.recovery().records_superseded, 1);
        assert!(store.recovery().is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_truncated_and_prefix_served() {
        let dir = tmp_dir("torn");
        let mut store = PlanStore::open(&dir).unwrap();
        store.put(1, b"alpha").unwrap();
        store.put(2, b"beta").unwrap();
        drop(store);
        // cut the last record short, as a crash mid-append would
        let frag = PlanStore::open(&dir).unwrap().manifest.fragments[0].clone();
        let path = dir.join(&frag);
        let len = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 2)
            .unwrap();
        let store = PlanStore::open(&dir).unwrap();
        assert_eq!(store.recovery().torn_records_truncated, 1);
        assert_eq!(store.get(1), Some(&b"alpha"[..]));
        assert_eq!(store.get(2), None, "torn record is never served");
        // the file was physically truncated: a fresh scan reads clean
        let scan = fragment::scan(&path).unwrap();
        assert_eq!(scan.tail, TailState::Clean);
        assert_eq!(scan.records.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_dir_reports_damage_without_repairing() {
        let dir = tmp_dir("verify-dir");
        let mut store = PlanStore::open(&dir).unwrap();
        store.put(1, b"alpha").unwrap();
        store.put(2, b"beta").unwrap();
        let frag = store.manifest.fragments[0].clone();
        drop(store);
        let path = dir.join(&frag);
        let len = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 2)
            .unwrap();
        // read-only: the torn tail is reported and the file untouched
        let report = PlanStore::verify_dir(&dir).unwrap();
        assert!(!report.is_clean());
        assert!(matches!(report.fragments[0].tail, TailState::Torn { .. }));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len - 2);
        // opening heals; a second verify_dir now reads clean
        drop(PlanStore::open(&dir).unwrap());
        let report = PlanStore::verify_dir(&dir).unwrap();
        assert!(report.is_clean(), "open-time recovery truncated the tail");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_record_quarantined_not_served() {
        let dir = tmp_dir("corrupt");
        let mut store = PlanStore::open(&dir).unwrap();
        store.put(1, b"good-one").unwrap();
        store.put(2, b"about-to-rot").unwrap();
        store.put(3, b"unreachable-after-rot").unwrap();
        let frag = store.manifest.fragments[0].clone();
        drop(store);
        let path = dir.join(&frag);
        let mut bytes = std::fs::read(&path).unwrap();
        // flip a payload byte of record 2
        let scan = fragment::scan(&path).unwrap();
        let off = (scan.records[1].offset + fragment::RECORD_HEADER_LEN) as usize;
        bytes[off] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let store = PlanStore::open(&dir).unwrap();
        assert_eq!(store.recovery().corrupt_regions_quarantined, 1);
        assert_eq!(store.get(1), Some(&b"good-one"[..]));
        assert_eq!(store.get(2), None, "corrupt record is never served");
        assert_eq!(
            store.get(3),
            None,
            "records behind a corrupt region are unreachable"
        );
        // verify (read-only) reports it too, without repairing
        let verify = store.verify().unwrap();
        assert!(!verify.is_clean());
        assert!(verify.to_string().contains("corrupt record"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_and_compact_fold_to_snapshot() {
        let dir = tmp_dir("compact");
        let mut store = PlanStore::open_with(
            &dir,
            StoreOptions {
                fragment_max_bytes: 64, // force rotation every record or two
                sync: false,
            },
        )
        .unwrap();
        for k in 0..10u64 {
            store.put(k, format!("payload-{k}").as_bytes()).unwrap();
            store.put(k, format!("payload-{k}-v2").as_bytes()).unwrap();
        }
        assert!(store.stats().fragments > 1, "rotation produced fragments");
        let report = store.compact().unwrap();
        assert_eq!(report.live_records, 10);
        assert!(report.folded_fragments > 1);
        assert!(report.reclaimed_bytes > 0);
        let stats = store.stats();
        assert_eq!(stats.fragments, 1);
        assert!(stats.snapshot.is_some());
        drop(store);
        // reopen: everything comes back from the snapshot alone
        let store = PlanStore::open(&dir).unwrap();
        assert_eq!(store.len(), 10);
        for k in 0..10u64 {
            assert_eq!(
                store.get(k),
                Some(format!("payload-{k}-v2").as_bytes()),
                "newest version survives compaction"
            );
        }
        assert!(store.verify().unwrap().is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphan_fragments_ignored_on_open_and_removed_by_compact() {
        let dir = tmp_dir("orphan");
        let mut store = PlanStore::open(&dir).unwrap();
        store.put(7, b"legit").unwrap();
        drop(store);
        // an orphan .wal not named by the manifest (crash between fragment
        // creation and manifest publish)
        let orphan = dir.join("frag-999999.wal");
        let mut f = fragment::create(&orphan).unwrap();
        fragment::append(&mut f, 8, b"ghost", true).unwrap();
        drop(f);
        let mut store = PlanStore::open(&dir).unwrap();
        assert_eq!(store.get(8), None, "orphan records are not served");
        let verify = store.verify().unwrap();
        assert_eq!(verify.orphan_files, vec!["frag-999999.wal".to_owned()]);
        store.compact().unwrap();
        assert!(!orphan.exists(), "compact deletes orphans");
        assert_eq!(store.get(7), Some(&b"legit"[..]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_fragment_tolerated_bad_manifest_rejected() {
        let dir = tmp_dir("manifest");
        let mut store = PlanStore::open(&dir).unwrap();
        store.put(1, b"a").unwrap();
        let frag = store.manifest.fragments[0].clone();
        drop(store);
        std::fs::remove_file(dir.join(&frag)).unwrap();
        let store = PlanStore::open(&dir).unwrap();
        assert_eq!(store.recovery().fragments_missing, 1);
        assert!(store.is_empty());
        drop(store);
        std::fs::write(dir.join(MANIFEST_NAME), "garbage\n").unwrap();
        assert!(matches!(
            PlanStore::open(&dir),
            Err(StoreError::BadManifest { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_empty_store_clears_fragments() {
        let dir = tmp_dir("empty-compact");
        let mut store = PlanStore::open(&dir).unwrap();
        let report = store.compact().unwrap();
        assert_eq!(report.live_records, 0);
        assert_eq!(store.stats().fragments, 0);
        // still usable afterwards
        store.put(1, b"after").unwrap();
        assert_eq!(store.get(1), Some(&b"after"[..]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn error_displays_are_informative() {
        let e = StoreError::BadManifest {
            line: 3,
            reason: "bad 'seq' value".into(),
        };
        assert!(e.to_string().contains("line 3"));
        let e = StoreError::io(
            Path::new("/nope"),
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        );
        assert!(e.to_string().contains("/nope"));
    }
}
