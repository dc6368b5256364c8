//! Write-ahead journal: the one durable format of the shard result
//! caches.
//!
//! Each cached result is one cycle-level simulation — exactly the
//! expensive thing this daemon exists to avoid recomputing — so every
//! cache insert is appended, through a batching writer thread, as one
//! framed record
//!
//! ```text
//! +-------------+---------------+==============================+
//! | len: u32 LE | crc32: u32 LE | compact JSON of one entry    |
//! +-------------+---------------+==============================+
//! ```
//!
//! ([`oov_proto::frame_record`]) to an append-only file, fsynced per
//! batch. [`recover`] replays such a file from the start and **stops
//! at the first torn or corrupt record** instead of failing —
//! everything before the tear is durable, and a crash mid-append costs
//! at most the final batch. A record whose frame is intact but whose
//! JSON no longer decodes (say, a schema change) is skipped with a
//! counted warning.
//!
//! Each entry carries the full-request fingerprint (the cache key),
//! the machine-config fingerprint, and the result. Fingerprints are
//! 64-bit FNV values that use the whole range, while JSON numbers are
//! f64-backed (exact only to 2^53), so they travel as hex strings.
//!
//! # Snapshot + compaction
//!
//! The writer thread keeps the full persistent state in memory (it
//! sees every insert, so this costs no coordination with the shards).
//! When the journal grows past [`JournalConfig::max_bytes`], it writes
//! the whole state to `<journal>.snapshot` as a run of the same frames
//! — temp file, `fsync`, rename, parent-directory `fsync` — and
//! truncates the journal. Startup ([`restore`]) therefore replays
//! **snapshot, then journal tail**, later entries winning; only the
//! journal's torn tail is ever truncated in place, never the snapshot,
//! which compaction replaces whole.
//!
//! A clean shutdown drains the writer (its final batch is fsynced like
//! any other) and leaves the journal as it is: it already holds every
//! insert since the last compaction.

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread::JoinHandle;

use oov_proto::{frame_record, FrameReader, Json};

use crate::proto::SimResult;

/// Default journal-rotation threshold (`--journal-max-bytes`).
pub const DEFAULT_JOURNAL_MAX_BYTES: u64 = 8 << 20;

/// Most records the writer folds into one write+fsync. Bounded so a
/// flood of inserts cannot make any single batch (and therefore the
/// crash-loss window) arbitrarily large.
const MAX_BATCH: usize = 256;

/// One persisted result-cache entry.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheLine {
    /// Full-request fingerprint — the result-cache key and the
    /// shard-routing key.
    pub key: u64,
    /// Machine-config fingerprint.
    pub machine_fp: u64,
    /// The cached result.
    pub result: SimResult,
}

/// Write-ahead-journal configuration.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// The journal file (`--journal`); created if missing.
    pub path: PathBuf,
    /// Rotation threshold: once the journal exceeds this many bytes,
    /// the writer snapshots and truncates.
    pub max_bytes: u64,
}

impl JournalConfig {
    /// A journal at `path` with the default rotation threshold.
    #[must_use]
    pub fn new(path: PathBuf) -> Self {
        JournalConfig {
            path,
            max_bytes: DEFAULT_JOURNAL_MAX_BYTES,
        }
    }
}

/// `<journal>.snapshot` — where compaction parks the full state.
#[must_use]
pub fn snapshot_path(journal: &Path) -> PathBuf {
    let mut name = journal.as_os_str().to_os_string();
    name.push(".snapshot");
    PathBuf::from(name)
}

/// What [`recover`] salvaged from one file of frames.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Replayed entries, in file order (later entries for the same
    /// key should win).
    pub entries: Vec<CacheLine>,
    /// Bytes of intact prefix — the length the journal must be
    /// truncated to before appending resumes.
    pub intact_bytes: u64,
    /// Bytes past the intact prefix (a torn or corrupt tail; 0 for a
    /// cleanly-closed file).
    pub truncated_bytes: u64,
    /// Frame-intact records whose payload no longer decoded, skipped
    /// with a warning.
    pub skipped: u64,
}

fn fp_to_hex(fp: u64) -> String {
    format!("{fp:#018x}")
}

fn fp_from_hex(s: &str) -> Result<u64, String> {
    let digits = s
        .strip_prefix("0x")
        .ok_or_else(|| format!("fingerprint `{s}` lacks the 0x prefix"))?;
    u64::from_str_radix(digits, 16).map_err(|e| format!("bad fingerprint `{s}`: {e}"))
}

/// Encodes one cache entry as a record payload (compact JSON).
#[must_use]
pub fn encode_record(entry: &CacheLine) -> Vec<u8> {
    Json::obj(vec![
        ("key", fp_to_hex(entry.key).into()),
        ("machine_fp", fp_to_hex(entry.machine_fp).into()),
        ("result", Json::Obj(entry.result.body())),
    ])
    .to_string()
    .into_bytes()
}

fn decode_record(payload: &[u8]) -> Result<CacheLine, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("payload not UTF-8: {e}"))?;
    let doc = Json::parse(text).map_err(|e| format!("{e}"))?;
    let fp = |name: &str| {
        doc.get(name)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("entry without `{name}`"))
            .and_then(fp_from_hex)
    };
    Ok(CacheLine {
        key: fp("key")?,
        machine_fp: fp("machine_fp")?,
        result: SimResult::from_json(
            doc.get("result")
                .ok_or_else(|| "entry without `result`".to_string())?,
        )?,
    })
}

/// Replays a file of frames — the journal or its snapshot — stopping
/// at the first torn or corrupt record. Never writes to the file. A
/// missing file is empty, not an error: the first run of a
/// `--journal` server starts that way.
///
/// # Errors
///
/// Any other read failure (permissions, a directory in the way), so
/// the caller can leave a file it could not read untouched.
pub fn recover(path: &Path) -> Result<Recovery, String> {
    let buf = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Recovery::default()),
        Err(e) => return Err(format!("{}: read failed: {e}", path.display())),
    };
    let mut rec = Recovery::default();
    let mut reader = FrameReader::new(&buf);
    while let Some(payload) = reader.next_record() {
        match decode_record(payload) {
            Ok(entry) => rec.entries.push(entry),
            Err(why) => {
                rec.skipped += 1;
                eprintln!(
                    "oov-serve: {}: skipping undecodable record {}: {why}",
                    path.display(),
                    rec.entries.len() as u64 + rec.skipped,
                );
            }
        }
    }
    rec.intact_bytes = reader.consumed() as u64;
    rec.truncated_bytes = reader.truncated() as u64;
    if rec.truncated_bytes > 0 {
        eprintln!(
            "oov-serve: {}: torn/corrupt tail ({:?}); keeping the {}-record intact prefix, \
             ignoring {} bytes past it",
            path.display(),
            reader.stop(),
            rec.entries.len(),
            rec.truncated_bytes
        );
    }
    Ok(rec)
}

/// The persistent state startup recovers for one journal path.
#[derive(Debug, Default)]
pub struct Restored {
    /// The snapshot's entries with the journal tail's on top, keyed by
    /// request fingerprint.
    pub state: HashMap<u64, CacheLine>,
    /// Records replayed from the journal tail (the snapshot's are not
    /// counted).
    pub tail_records: u64,
    /// Intact-but-undecodable records skipped, in both files.
    pub skipped: u64,
    /// Intact prefix of the journal tail. `None` when the journal
    /// exists but cannot be read: journaling stays off for the run, so
    /// the file is left byte-identical.
    pub tail_intact_bytes: Option<u64>,
}

/// Startup recovery: [`recover`] the snapshot, then the journal tail
/// on top (later entries win). An unreadable snapshot is skipped with
/// a warning — the next compaction replaces it; so is a snapshot in an
/// older format, whose first frame cannot pass its checksum.
#[must_use]
pub fn restore(journal: &Path) -> Restored {
    let mut out = Restored::default();
    match recover(&snapshot_path(journal)) {
        Ok(snap) => {
            out.skipped += snap.skipped;
            out.state
                .extend(snap.entries.into_iter().map(|e| (e.key, e)));
        }
        Err(e) => eprintln!("oov-serve: {e}; skipping the snapshot"),
    }
    match recover(journal) {
        Ok(tail) => {
            out.skipped += tail.skipped;
            out.tail_records = tail.entries.len() as u64;
            out.tail_intact_bytes = Some(tail.intact_bytes);
            out.state
                .extend(tail.entries.into_iter().map(|e| (e.key, e)));
        }
        Err(e) => eprintln!("oov-serve: {e}; journaling disabled, the file is left as it is"),
    }
    out
}

/// Writes `entries` to `path` as a run of journal frames, durably and
/// atomically: temp file + `fsync` + rename + **`fsync` of the parent
/// directory** (without the last step the rename itself can be lost to
/// a crash, resurrecting the old snapshot). The temp name carries the
/// writer's pid (`<path>.tmp.<pid>`), so two servers sharing a journal
/// path cannot clobber each other's in-flight temp file.
fn write_snapshot<'a>(
    path: &Path,
    entries: impl Iterator<Item = &'a CacheLine>,
) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let mut out = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
    let mut frame = Vec::new();
    for entry in entries {
        frame.clear();
        frame_record(&encode_record(entry), &mut frame);
        out.write_all(&frame)?;
    }
    out.into_inner().map_err(|e| e.into_error())?.sync_all()?;
    std::fs::rename(&tmp, path)?;
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)?.sync_all()
}

/// Pre-fetched metric handles for the writer thread.
pub(crate) struct JournalCounters {
    pub appended_records: std::sync::Arc<oov_obs::Counter>,
    pub appended_bytes: std::sync::Arc<oov_obs::Counter>,
    pub rotations: std::sync::Arc<oov_obs::Counter>,
}

/// The batching journal writer: owns the file, the full persistent
/// state (for snapshots), and the compaction policy. Shards talk to it
/// through a clonable [`mpsc::Sender`] — an append is one non-blocking
/// send, never an fsync on the request path.
pub(crate) struct JournalWriter {
    tx: mpsc::Sender<CacheLine>,
    thread: JoinHandle<()>,
}

impl JournalWriter {
    /// Opens (creating if needed) and truncates the journal to its
    /// intact prefix, then starts the writer thread. `state` is the
    /// recovered persistent state the thread snapshots from;
    /// `intact_bytes` comes from [`recover`].
    pub(crate) fn start(
        cfg: JournalConfig,
        state: HashMap<u64, CacheLine>,
        intact_bytes: u64,
        counters: JournalCounters,
    ) -> Result<JournalWriter, String> {
        let file = (|| -> std::io::Result<std::fs::File> {
            let f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&cfg.path)?;
            // Drop any torn tail before the first new append lands
            // after it.
            f.set_len(intact_bytes)?;
            f.sync_all()?;
            Ok(f)
        })()
        .map_err(|e| format!("journal {}: {e}", cfg.path.display()))?;
        let (tx, rx) = mpsc::channel::<CacheLine>();
        let thread = std::thread::Builder::new()
            .name("oov-journal".to_string())
            .spawn(move || writer_loop(&rx, file, state, &cfg, &counters))
            .map_err(|e| format!("journal writer spawn: {e}"))?;
        Ok(JournalWriter { tx, thread })
    }

    /// A sender shards append through.
    pub(crate) fn sender(&self) -> mpsc::Sender<CacheLine> {
        self.tx.clone()
    }

    /// Drains and stops the writer once every other sender is gone:
    /// the final batch is fsynced like any other, and the journal stays
    /// in place as the durable state.
    pub(crate) fn finish(self) {
        drop(self.tx);
        let _ = self.thread.join();
    }
}

/// The writer thread: batch, frame, append, fsync; snapshot + truncate
/// past the size threshold. Exits when every sender is gone.
fn writer_loop(
    rx: &mpsc::Receiver<CacheLine>,
    mut file: std::fs::File,
    mut state: HashMap<u64, CacheLine>,
    cfg: &JournalConfig,
    counters: &JournalCounters,
) {
    let mut journal_bytes = file.metadata().map(|m| m.len()).unwrap_or(0);
    let mut buf: Vec<u8> = Vec::with_capacity(64 << 10);
    while let Ok(first) = rx.recv() {
        buf.clear();
        let mut records = 0u64;
        let mut next = Some(first);
        while let Some(entry) = next {
            if frame_record(&encode_record(&entry), &mut buf).is_some() {
                records += 1;
            }
            state.insert(entry.key, entry);
            next = if records < MAX_BATCH as u64 {
                rx.try_recv().ok()
            } else {
                None
            };
        }
        let written = (|| -> std::io::Result<()> {
            file.write_all(&buf)?;
            // `sync_data` is the durability point: a crash after this
            // returns every record in the batch from recovery.
            file.sync_data()
        })();
        if let Err(e) = written {
            eprintln!(
                "oov-serve: journal {}: append failed ({e}); records riding on the next \
                 snapshot only",
                cfg.path.display()
            );
            continue;
        }
        journal_bytes += buf.len() as u64;
        counters.appended_records.add(records);
        counters.appended_bytes.add(buf.len() as u64);
        if journal_bytes <= cfg.max_bytes {
            continue;
        }
        // Compaction: snapshot the full state, then truncate. A crash
        // between the two leaves snapshot + journal overlapping, which
        // replay handles (same keys, same values — later wins).
        let compacted = write_snapshot(&snapshot_path(&cfg.path), state.values())
            .map_err(|e| format!("snapshot failed ({e}); journal keeps growing"))
            .and_then(|()| {
                file.set_len(0)
                    .and_then(|()| file.sync_all())
                    .map_err(|e| format!("post-snapshot truncate failed: {e}"))
            });
        match compacted {
            Ok(()) => {
                journal_bytes = 0;
                counters.rotations.inc();
            }
            Err(e) => eprintln!("oov-serve: journal {}: {e}", cfg.path.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oov_stats::SimStats;

    fn line(key: u64, cycles: u64) -> CacheLine {
        CacheLine {
            key,
            machine_fp: key.rotate_left(17),
            result: SimResult {
                stats: SimStats {
                    cycles,
                    committed: 5,
                    ..SimStats::new()
                },
                ideal_cycles: 1,
                faults_taken: 0,
                cached: false,
                shard: 0,
            },
        }
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("oov_journal_{}_{name}", std::process::id()))
    }

    fn write_journal(path: &Path, entries: &[CacheLine]) {
        let mut buf = Vec::new();
        for e in entries {
            frame_record(&encode_record(e), &mut buf).unwrap();
        }
        std::fs::write(path, &buf).unwrap();
    }

    #[test]
    fn round_trip_preserves_full_range_fingerprints() {
        // Fingerprints above 2^53 would corrupt silently as JSON
        // numbers; the hex-string encoding must carry them exactly.
        for e in [
            CacheLine {
                machine_fp: 0xdead_beef_cafe_f00d,
                ..line(u64::MAX, 123)
            },
            CacheLine {
                machine_fp: 0,
                ..line(1, 456)
            },
        ] {
            assert_eq!(decode_record(&encode_record(&e)).unwrap(), e);
        }
    }

    #[test]
    fn recover_round_trips_and_missing_file_is_empty() {
        let path = tmp("rt.wal");
        let entries = vec![line(u64::MAX, 10), line(7, 20), line(7, 30)];
        write_journal(&path, &entries);
        let rec = recover(&path).unwrap();
        assert_eq!(rec.entries, entries);
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(rec.skipped, 0);
        assert_eq!(rec.intact_bytes, std::fs::metadata(&path).unwrap().len());
        std::fs::remove_file(&path).ok();

        let rec = recover(&tmp("nonexistent.wal")).unwrap();
        assert!(rec.entries.is_empty());
        assert_eq!(rec.intact_bytes, 0);
    }

    #[test]
    fn torn_tail_recovers_intact_prefix() {
        let path = tmp("torn.wal");
        let entries = vec![line(1, 10), line(2, 20), line(3, 30)];
        write_journal(&path, &entries);
        let full = std::fs::metadata(&path).unwrap().len();
        // Tear 5 bytes off the last record.
        let buf = std::fs::read(&path).unwrap();
        std::fs::write(&path, &buf[..buf.len() - 5]).unwrap();
        let rec = recover(&path).unwrap();
        assert_eq!(rec.entries, entries[..2]);
        assert!(rec.truncated_bytes > 0);
        assert!(rec.intact_bytes < full);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn undecodable_but_intact_record_is_skipped() {
        let path = tmp("skip.wal");
        let mut buf = Vec::new();
        frame_record(&encode_record(&line(1, 10)), &mut buf).unwrap();
        // Frame-intact garbage: valid CRC over an undecodable payload.
        frame_record(b"{\"not\": \"an entry\"}", &mut buf).unwrap();
        frame_record(&encode_record(&line(2, 20)), &mut buf).unwrap();
        std::fs::write(&path, &buf).unwrap();
        let rec = recover(&path).unwrap();
        assert_eq!(rec.entries, vec![line(1, 10), line(2, 20)]);
        assert_eq!(rec.skipped, 1);
        assert_eq!(rec.truncated_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_round_trips_and_legacy_json_snapshot_is_skipped() {
        let path = tmp("rt.snapshot");
        let entries = vec![line(u64::MAX, 10), line(42, 1000)];
        write_snapshot(&path, entries.iter()).unwrap();
        let rec = recover(&path).unwrap();
        assert_eq!(rec.entries, entries);
        assert_eq!(rec.truncated_bytes, 0);
        let mut leftover = path.as_os_str().to_os_string();
        leftover.push(format!(".tmp.{}", std::process::id()));
        assert!(!Path::new(&leftover).exists(), "temp file renamed away");

        // A snapshot in the old JSON-document format has no intact
        // frame: nothing is restored from it and nothing is written.
        let legacy = b"{\n  \"version\": 1,\n  \"entries\": []\n}\n";
        std::fs::write(&path, legacy).unwrap();
        let rec = recover(&path).unwrap();
        assert!(rec.entries.is_empty());
        assert_eq!(rec.truncated_bytes, legacy.len() as u64);
        assert_eq!(std::fs::read(&path).unwrap(), legacy);
        std::fs::remove_file(&path).ok();
    }

    fn counters() -> JournalCounters {
        let reg = oov_obs::Registry::new();
        JournalCounters {
            appended_records: reg.counter("journal.appended_records"),
            appended_bytes: reg.counter("journal.appended_bytes"),
            rotations: reg.counter("journal.rotations"),
        }
    }

    #[test]
    fn writer_appends_durably_and_truncates_torn_tail() {
        let path = tmp("writer.wal");
        std::fs::remove_file(&path).ok();
        // Pre-existing torn tail: start() must drop it.
        write_journal(&path, &[line(9, 90)]);
        let keep = std::fs::metadata(&path).unwrap().len();
        let mut buf = std::fs::read(&path).unwrap();
        buf.extend_from_slice(&[0xAB; 6]);
        std::fs::write(&path, &buf).unwrap();

        let w = JournalWriter::start(
            JournalConfig::new(path.clone()),
            HashMap::new(),
            keep,
            counters(),
        )
        .unwrap();
        let tx = w.sender();
        tx.send(line(1, 10)).unwrap();
        tx.send(line(2, 20)).unwrap();
        drop(tx);
        w.finish();
        let rec = recover(&path).unwrap();
        assert_eq!(rec.entries, vec![line(9, 90), line(1, 10), line(2, 20)]);
        assert_eq!(rec.truncated_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writer_compacts_past_threshold() {
        let path = tmp("compact.wal");
        std::fs::remove_file(&path).ok();
        let snap = snapshot_path(&path);
        std::fs::remove_file(&snap).ok();
        let cfg = JournalConfig {
            path: path.clone(),
            max_bytes: 256, // a couple of records
        };
        let c = counters();
        let rotations = std::sync::Arc::clone(&c.rotations);
        let w = JournalWriter::start(cfg, HashMap::new(), 0, c).unwrap();
        let tx = w.sender();
        for k in 0..32 {
            tx.send(line(k, k * 10)).unwrap();
        }
        drop(tx);
        w.finish();
        assert!(rotations.get() >= 1, "no compaction happened");
        // The snapshot is a run of the journal's own frames.
        let snap_rec = recover(&snap).unwrap();
        assert_eq!(snap_rec.skipped, 0);
        assert_eq!(snap_rec.truncated_bytes, 0);
        assert!(!snap_rec.entries.is_empty());
        // Snapshot + journal tail together hold every record.
        let merged = restore(&path).state;
        assert_eq!(merged.len(), 32);
        for k in 0..32u64 {
            assert_eq!(merged[&k].result.stats.cycles, k * 10);
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&snap).ok();
    }
}
