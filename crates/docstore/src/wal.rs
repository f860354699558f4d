//! A checksummed append-only write-ahead log.
//!
//! Every mutation to a [`crate::store::DocStore`] is appended as a framed
//! record before being applied in memory; on open, the log is replayed to
//! recover state. Frames are `[len: u32 BE][crc32: u32 BE][payload]`; replay
//! stops cleanly at the first truncated or corrupt frame (a torn tail from a
//! crash), discarding it and everything after.
//!
//! All filesystem access goes through the [`crate::disk::Disk`] trait, so
//! the fault-injection harness (DESIGN.md §14) can interpose seeded short
//! writes, `EIO`, `ENOSPC`, and crash points under every syscall the log
//! makes. Production code uses [`RealDisk`] via [`Wal::open`]/[`Wal::open_with`].

use crate::disk::{Disk, DiskFile, RealDisk};
use crowdfill_obs::metrics::Histogram;
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What a log handle has done since it was opened ([`Wal::counts`]):
/// appends, their frame bytes (headers included) and the time each spent
/// becoming as durable as the policy promises; fsyncs; compactions; and
/// at open, the records replayed and a torn tail's bytes, if one was cut.
#[derive(Debug, Clone, Default)]
pub struct WalCounts {
    pub appends: u64,
    pub append_bytes: u64,
    pub flush_ns: Histogram,
    pub fsyncs: u64,
    pub compactions: u64,
    pub replayed_records: u64,
    pub torn_tail_bytes: u64,
    pub torn_tail_repairs: u64,
}

/// When an append becomes *durable* — guaranteed to survive a process or
/// OS crash once `append` returns.
///
/// The paper's deployment treats an acked worker action as committed; a
/// record that dies with the process silently breaks that contract, so the
/// default is [`FsyncPolicy::Always`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every append: an `Ok` from [`Wal::append`] means the
    /// record is on stable storage. The default for commit-critical logs.
    Always,
    /// Buffer appends and `fsync` every `n` records (plus on [`Wal::sync`],
    /// compaction, and drop). Appends between sync points may be lost to a
    /// crash; throughput-critical logs opt into this window explicitly.
    EveryN(u32),
    /// Flush to the OS page cache only (the pre-recovery behavior): records
    /// survive a process crash but not an OS crash or power loss.
    OsOnly,
}

/// CRC-32 (IEEE 802.3, reflected) with a lazily-built lookup table.
pub fn crc32(data: &[u8]) -> u32 {
    fn table() -> [u32; 256] {
        let mut t = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB88320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            t[i] = c;
            i += 1;
        }
        t
    }
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(table);
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// An append-only log of byte records.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    disk: Arc<dyn Disk>,
    writer: BufWriter<Box<dyn DiskFile>>,
    policy: FsyncPolicy,
    /// Appends since the last fsync (EveryN bookkeeping).
    unsynced: u32,
    /// Any append since the last fsync, regardless of policy — the flag
    /// `Drop` checks. `unsynced` alone misses `OsOnly` (which never counts),
    /// so a clean shutdown used to leave the whole OsOnly tail to the OS.
    dirty: bool,
    /// Current on-disk length in bytes (valid prefix at open + frames
    /// appended since; reset by compaction).
    bytes: u64,
    /// Lifetime fsyncs through this handle (including the one in `Drop`),
    /// observable after the handle is gone — the kill-vs-clean-exit test
    /// distinguishes the two paths with it.
    fsync_count: Arc<AtomicU64>,
    /// What `counts` reports but `fsyncs`, read from `fsync_count`.
    counts: WalCounts,
}

impl Wal {
    /// Opens (creating if absent) the log at `path` and replays existing
    /// records through `replay`, with the default durability policy
    /// ([`FsyncPolicy::Always`]). Truncated/corrupt tails are dropped from
    /// the file so subsequent appends are clean.
    pub fn open(path: impl AsRef<Path>, replay: impl FnMut(&[u8])) -> std::io::Result<Wal> {
        Wal::open_with(path, FsyncPolicy::Always, replay)
    }

    /// Opens the log with an explicit durability policy.
    pub fn open_with(
        path: impl AsRef<Path>,
        policy: FsyncPolicy,
        replay: impl FnMut(&[u8]),
    ) -> std::io::Result<Wal> {
        Wal::open_on(Arc::new(RealDisk), path, policy, replay)
    }

    /// Opens the log on an explicit [`Disk`] (fault injection goes here).
    pub fn open_on(
        disk: Arc<dyn Disk>,
        path: impl AsRef<Path>,
        policy: FsyncPolicy,
        mut replay: impl FnMut(&[u8]),
    ) -> std::io::Result<Wal> {
        let path = path.as_ref().to_path_buf();
        // A crash between `compact`'s temp-file write and its rename leaves
        // a stale sibling `*.wal.tmp`. It was never renamed, so it is not
        // part of the log — remove the corpse so a later compact can't
        // collide with it (or, worse, a future reader mistake it for data).
        let tmp = path.with_extension("wal.tmp");
        if disk.exists(&tmp) {
            crowdfill_obs::obs_warn!(
                "docstore",
                "removing stale compaction temp file: {}",
                tmp.display()
            );
            disk.remove_file(&tmp)?;
        }
        let mut replayed = 0u64;
        let mut valid_len: u64 = 0;
        let mut torn_bytes: u64 = 0;
        if disk.exists(&path) {
            let mut reader = disk.open_read(&path)?;
            loop {
                let mut header = [0u8; 8];
                let (res, got) = read_exact_or_eof(&mut reader, &mut header);
                match res {
                    ReadResult::Eof => break,
                    ReadResult::Partial => {
                        torn_bytes += got as u64; // torn header
                        break;
                    }
                    ReadResult::Full => {}
                }
                let len = u32::from_be_bytes(header[0..4].try_into().unwrap()) as usize;
                let crc = u32::from_be_bytes(header[4..8].try_into().unwrap());
                // Cap record size to defend against a corrupt length field.
                if len > 1 << 30 {
                    torn_bytes += 8;
                    break;
                }
                let mut payload = vec![0u8; len];
                let (res, got) = read_exact_or_eof(&mut reader, &mut payload);
                match res {
                    ReadResult::Full => {}
                    _ => {
                        torn_bytes += 8 + got as u64; // torn payload
                        break;
                    }
                }
                if crc32(&payload) != crc {
                    torn_bytes += 8 + len as u64;
                    break; // corrupt record: stop replay here
                }
                replay(&payload);
                replayed += 1;
                valid_len += 8 + len as u64;
            }
            // Everything after the first bad frame is unframeable; it is
            // dropped wholesale and belongs in the torn-tail accounting.
            let mut rest = Vec::new();
            if torn_bytes > 0 && reader.read_to_end(&mut rest).is_ok() {
                torn_bytes += rest.len() as u64;
            }
        }
        // Truncate any torn tail, then append from the end. The valid
        // prefix must survive; only the torn tail is dropped via `set_len`.
        let mut file = disk.open_append(&path)?;
        file.set_len(valid_len)?;
        file.seek_end()?;
        let writer = BufWriter::new(file);
        let counts = WalCounts {
            replayed_records: replayed,
            torn_tail_bytes: torn_bytes,
            torn_tail_repairs: u64::from(torn_bytes > 0),
            ..WalCounts::default()
        };
        if torn_bytes > 0 {
            // A torn tail means the last crash dropped un-acked bytes —
            // expected after a kill, but an operator should be able to tell
            // a clean open from a post-crash repair.
            crowdfill_obs::obs_warn!(
                "docstore",
                "wal open repaired a torn tail: {}", path.display();
                dropped_bytes => torn_bytes,
                replayed => replayed,
                valid_bytes => valid_len,
            );
        } else {
            crowdfill_obs::obs_debug!(
                "docstore",
                "wal open: {}", path.display();
                replayed => replayed,
                valid_bytes => valid_len,
            );
        }
        Ok(Wal {
            path,
            disk,
            writer,
            policy,
            unsynced: 0,
            dirty: false,
            bytes: valid_len,
            fsync_count: Arc::new(AtomicU64::new(0)),
            counts,
        })
    }

    /// The active durability policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Current on-disk length in bytes (header + payload of every live
    /// frame).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// What this handle has done since it was opened, the replay at open
    /// included.
    pub fn counts(&self) -> WalCounts {
        WalCounts {
            fsyncs: self.fsync_count.load(Ordering::SeqCst),
            ..self.counts.clone()
        }
    }

    /// Lifetime fsync counter for this handle; survives the handle (the
    /// `Drop` fsync is visible through it).
    pub fn fsync_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.fsync_count)
    }

    /// Appends one record and makes it as durable as the policy promises:
    /// on stable storage (`Always`), within `n` appends of stable storage
    /// (`EveryN`), or in the OS page cache (`OsOnly`).
    pub fn append(&mut self, payload: &[u8]) -> std::io::Result<()> {
        let len = (payload.len() as u32).to_be_bytes();
        let crc = crc32(payload).to_be_bytes();
        self.writer.write_all(&len)?;
        self.writer.write_all(&crc)?;
        self.writer.write_all(payload)?;
        self.dirty = true;
        let flush_started = Instant::now();
        match self.policy {
            FsyncPolicy::Always => self.fsync()?,
            FsyncPolicy::EveryN(n) => {
                self.unsynced += 1;
                if self.unsynced >= n.max(1) {
                    self.fsync()?;
                } else {
                    // Keep the pre-sync window in the OS, not user space:
                    // a process crash then only risks the OS-crash window.
                    self.writer.flush()?;
                }
            }
            FsyncPolicy::OsOnly => self.writer.flush()?,
        }
        self.counts
            .flush_ns
            .record_duration(flush_started.elapsed());
        self.bytes += 8 + payload.len() as u64;
        self.counts.appends += 1;
        self.counts.append_bytes += 8 + payload.len() as u64;
        Ok(())
    }

    /// Forces everything appended so far onto stable storage, regardless of
    /// policy (an explicit durability barrier, e.g. before acking a batch).
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.fsync()
    }

    fn fsync(&mut self) -> std::io::Result<()> {
        self.writer.flush()?;
        self.writer.get_mut().sync_data()?;
        self.unsynced = 0;
        self.dirty = false;
        self.fsync_count.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// Atomically replaces the log's contents with `records` (compaction):
    /// writes a sibling temp file, renames it over the log, and fsyncs the
    /// directory so the rename itself survives an OS crash.
    pub fn compact<'a>(&mut self, records: impl Iterator<Item = &'a [u8]>) -> std::io::Result<()> {
        let tmp = self.path.with_extension("wal.tmp");
        let mut new_bytes = 0u64;
        {
            let mut w = BufWriter::new(self.disk.create(&tmp)?);
            for payload in records {
                w.write_all(&(payload.len() as u32).to_be_bytes())?;
                w.write_all(&crc32(payload).to_be_bytes())?;
                w.write_all(payload)?;
                new_bytes += 8 + payload.len() as u64;
            }
            w.flush()?;
            w.get_mut().sync_all()?;
        }
        self.disk.rename(&tmp, &self.path)?;
        if let Some(dir) = self.path.parent() {
            self.disk.sync_dir(dir)?;
        }
        let mut file = self.disk.open_append(&self.path)?;
        file.seek_end()?;
        self.writer = BufWriter::new(file);
        self.unsynced = 0; // the temp file was sync_all'd before the rename
        self.dirty = false;
        self.bytes = new_bytes;
        self.counts.compactions += 1;
        crowdfill_obs::obs_debug!("docstore", "wal compacted: {}", self.path.display());
        Ok(())
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // Best-effort: close the unsynced window on clean shutdown so only
        // a crash (tested below) can lose the tail. `dirty`, not `unsynced`:
        // OsOnly never counts toward `unsynced`, but its whole tail is
        // one OS crash away from gone until this fsync.
        if self.dirty {
            let _ = self.fsync();
        }
    }
}

enum ReadResult {
    Full,
    Partial,
    Eof,
}

/// Fills `buf` if it can; returns how it ended and how many bytes landed.
fn read_exact_or_eof(reader: &mut impl Read, buf: &mut [u8]) -> (ReadResult, usize) {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    (ReadResult::Eof, 0)
                } else {
                    (ReadResult::Partial, filled)
                }
            }
            Ok(n) => filled += n,
            Err(_) => return (ReadResult::Partial, filled),
        }
    }
    (ReadResult::Full, filled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{FaultPlan, FaultyDisk};
    use std::fs::{File, OpenOptions};

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "crowdfill-wal-test-{}-{name}.wal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn append_and_replay() {
        let path = tmp_path("roundtrip");
        {
            let mut wal = Wal::open(&path, |_| panic!("fresh log has no records")).unwrap();
            wal.append(b"alpha").unwrap();
            wal.append(b"beta").unwrap();
            wal.append(b"").unwrap(); // empty records are fine
        }
        let mut seen = Vec::new();
        let _wal = Wal::open(&path, |rec| seen.push(rec.to_vec())).unwrap();
        assert_eq!(seen, vec![b"alpha".to_vec(), b"beta".to_vec(), Vec::new()]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bytes_tracks_frames_and_compaction() {
        let path = tmp_path("bytes");
        let mut wal = Wal::open_with(&path, FsyncPolicy::OsOnly, |_| {}).unwrap();
        assert_eq!(wal.bytes(), 0);
        wal.append(b"12345").unwrap();
        assert_eq!(wal.bytes(), 8 + 5);
        wal.append(b"").unwrap();
        assert_eq!(wal.bytes(), 8 + 5 + 8);
        let keep: Vec<Vec<u8>> = vec![vec![1, 2]];
        wal.compact(keep.iter().map(Vec::as_slice)).unwrap();
        assert_eq!(wal.bytes(), 8 + 2);
        drop(wal);
        // Reopen picks the length back up from the valid prefix.
        let wal = Wal::open(&path, |_| {}).unwrap();
        assert_eq!(wal.bytes(), 8 + 2);
        drop(wal);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_discarded_and_overwritten() {
        let path = tmp_path("torn");
        {
            let mut wal = Wal::open(&path, |_| {}).unwrap();
            wal.append(b"good").unwrap();
        }
        // Simulate a crash mid-append: garbage half-frame at the end.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0, 0, 0, 99, 1, 2]).unwrap(); // truncated header+payload
        }
        let mut seen = Vec::new();
        {
            let mut wal = Wal::open(&path, |rec| seen.push(rec.to_vec())).unwrap();
            assert_eq!(seen, vec![b"good".to_vec()]);
            // The repair is counted, not just debug-logged: 6 garbage bytes.
            let counts = wal.counts();
            assert_eq!((counts.torn_tail_bytes, counts.torn_tail_repairs), (6, 1));
            assert_eq!(counts.replayed_records, 1);
            wal.append(b"after-recovery").unwrap();
        }
        let mut seen2 = Vec::new();
        let _ = Wal::open(&path, |rec| seen2.push(rec.to_vec())).unwrap();
        assert_eq!(seen2, vec![b"good".to_vec(), b"after-recovery".to_vec()]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn clean_open_counts_no_torn_tail() {
        let path = tmp_path("clean-open");
        {
            let mut wal = Wal::open(&path, |_| {}).unwrap();
            wal.append(b"whole").unwrap();
        }
        let counts = Wal::open(&path, |_| {}).unwrap().counts();
        assert_eq!((counts.torn_tail_bytes, counts.torn_tail_repairs), (0, 0));
        assert_eq!(counts.replayed_records, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_record_stops_replay() {
        let path = tmp_path("corrupt");
        {
            let mut wal = Wal::open(&path, |_| {}).unwrap();
            wal.append(b"first").unwrap();
            wal.append(b"second").unwrap();
        }
        // Flip a byte inside the second record's payload.
        {
            let mut bytes = std::fs::read(&path).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0xFF;
            std::fs::write(&path, bytes).unwrap();
        }
        let mut seen = Vec::new();
        let _ = Wal::open(&path, |rec| seen.push(rec.to_vec())).unwrap();
        assert_eq!(seen, vec![b"first".to_vec()]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compaction_rewrites_log() {
        let path = tmp_path("compact");
        {
            let mut wal = Wal::open(&path, |_| {}).unwrap();
            for i in 0..10u8 {
                wal.append(&[i]).unwrap();
            }
            let keep: Vec<Vec<u8>> = vec![vec![42], vec![43]];
            wal.compact(keep.iter().map(Vec::as_slice)).unwrap();
            wal.append(&[44]).unwrap();
        }
        let mut seen = Vec::new();
        let _ = Wal::open(&path, |rec| seen.push(rec.to_vec())).unwrap();
        assert_eq!(seen, vec![vec![42], vec![43], vec![44]]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_removes_stale_compaction_tmp() {
        let path = tmp_path("stale-tmp");
        {
            let mut wal = Wal::open(&path, |_| {}).unwrap();
            wal.append(b"kept").unwrap();
        }
        // Simulate a crash between compact's temp write and its rename: a
        // fully-written sibling temp file next to the intact log.
        let tmp = path.with_extension("wal.tmp");
        std::fs::write(&tmp, b"half-finished compaction").unwrap();
        let mut seen = Vec::new();
        {
            let mut wal = Wal::open(&path, |rec| seen.push(rec.to_vec())).unwrap();
            assert_eq!(seen, vec![b"kept".to_vec()], "log contents untouched");
            assert!(!tmp.exists(), "stale temp file must be removed on open");
            // A later compact must succeed cleanly where the corpse stood.
            let keep: Vec<Vec<u8>> = vec![b"compacted".to_vec()];
            wal.compact(keep.iter().map(Vec::as_slice)).unwrap();
        }
        let mut seen2 = Vec::new();
        let _ = Wal::open(&path, |rec| seen2.push(rec.to_vec())).unwrap();
        assert_eq!(seen2, vec![b"compacted".to_vec()]);
        assert!(!tmp.exists());
        std::fs::remove_file(&path).unwrap();
    }

    /// Env var that flips this test binary into "crash child" mode: append
    /// records under `Always` to the given path, then die without unwinding.
    const CRASH_CHILD_ENV: &str = "CROWDFILL_WAL_CRASH_CHILD";
    const CRASH_CHILD_RECORDS: u32 = 50;

    #[test]
    fn kill_and_replay_loses_no_acked_record() {
        if let Ok(path) = std::env::var(CRASH_CHILD_ENV) {
            // Child process: every `Ok` from append is an "ack". Die hard —
            // no Drop, no BufWriter flush — right after the last ack.
            let mut wal = Wal::open_with(&path, FsyncPolicy::Always, |_| {}).unwrap();
            for i in 0..CRASH_CHILD_RECORDS {
                wal.append(format!("acked-{i}").as_bytes()).unwrap();
            }
            std::process::abort();
        }
        let path = tmp_path("kill");
        let status = std::process::Command::new(std::env::current_exe().unwrap())
            .arg("kill_and_replay_loses_no_acked_record")
            .arg("--test-threads=1")
            .env(CRASH_CHILD_ENV, &path)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .unwrap();
        assert!(!status.success(), "crash child must die by abort");
        let mut seen = Vec::new();
        let _ = Wal::open(&path, |rec| seen.push(rec.to_vec())).unwrap();
        assert_eq!(
            seen.len() as u32,
            CRASH_CHILD_RECORDS,
            "every acked record must survive the crash under FsyncPolicy::Always"
        );
        for (i, rec) in seen.iter().enumerate() {
            assert_eq!(rec, format!("acked-{i}").as_bytes());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_n_policy_syncs_on_schedule() {
        let path = tmp_path("every-n");
        let mut wal = Wal::open_with(&path, FsyncPolicy::EveryN(4), |_| {}).unwrap();
        for i in 1..=3u8 {
            wal.append(&[i]).unwrap();
            assert_eq!(wal.unsynced, i as u32, "below n: no fsync yet");
        }
        wal.append(&[4]).unwrap();
        assert_eq!(wal.unsynced, 0, "nth append closes the window");
        wal.append(&[5]).unwrap();
        assert_eq!(wal.unsynced, 1);
        wal.sync().unwrap();
        assert_eq!(wal.unsynced, 0, "explicit sync is a durability barrier");
        drop(wal);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn always_policy_never_accumulates_unsynced() {
        let path = tmp_path("always");
        let mut wal = Wal::open(&path, |_| {}).unwrap();
        assert_eq!(wal.policy(), FsyncPolicy::Always);
        for i in 0..5u8 {
            wal.append(&[i]).unwrap();
            assert_eq!(wal.unsynced, 0);
        }
        drop(wal);
        std::fs::remove_file(&path).unwrap();
    }

    /// Clean shutdown vs a crash, distinguished by the fsync barrier: a
    /// dropped `OsOnly`/`EveryN` log fsyncs its unsynced window on the way
    /// out (the bug was `Drop` checking `unsynced > 0`, which `OsOnly`
    /// never sets); a killed process never reaches `Drop`, so no barrier
    /// runs — its records ride on the page cache alone.
    #[test]
    fn clean_exit_fsyncs_where_a_kill_does_not() {
        // Clean exit: Drop finds the dirty flag set and fsyncs.
        let path = tmp_path("clean-exit");
        let mut wal = Wal::open_with(&path, FsyncPolicy::OsOnly, |_| {}).unwrap();
        wal.append(b"tail").unwrap();
        let fsyncs = wal.fsync_counter();
        assert_eq!(fsyncs.load(Ordering::SeqCst), 0, "OsOnly never fsyncs");
        drop(wal);
        assert_eq!(
            fsyncs.load(Ordering::SeqCst),
            1,
            "clean shutdown must close the unsynced window"
        );

        // Simulated kill (`mem::forget`: no Drop runs): no barrier. The
        // records still replay — a process crash leaves the page cache
        // intact — but nothing was forced to stable storage, which is
        // exactly the OS-crash window the Drop fsync closes.
        let path2 = tmp_path("kill-exit");
        let mut wal = Wal::open_with(&path2, FsyncPolicy::EveryN(100), |_| {}).unwrap();
        wal.append(b"tail").unwrap();
        let fsyncs = wal.fsync_counter();
        std::mem::forget(wal);
        assert_eq!(fsyncs.load(Ordering::SeqCst), 0, "no Drop, no barrier");
        let mut seen = Vec::new();
        let _ = Wal::open(&path2, |rec| seen.push(rec.to_vec())).unwrap();
        assert_eq!(seen, vec![b"tail".to_vec()]);
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&path2).unwrap();
    }

    #[test]
    fn clean_drop_is_idempotent_after_explicit_sync() {
        let path = tmp_path("drop-synced");
        let mut wal = Wal::open_with(&path, FsyncPolicy::OsOnly, |_| {}).unwrap();
        wal.append(b"x").unwrap();
        wal.sync().unwrap();
        let fsyncs = wal.fsync_counter();
        assert_eq!(fsyncs.load(Ordering::SeqCst), 1);
        drop(wal);
        assert_eq!(
            fsyncs.load(Ordering::SeqCst),
            1,
            "already-synced log must not pay a second fsync on drop"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn forgotten_wal_still_recovers_os_flushed_records() {
        // `mem::forget` models a process crash (no Drop, no user-space
        // flush). Every policy flushes to the OS per append, so records
        // survive a *process* crash under all of them; the policies differ
        // only in the OS-crash window, which a unit test cannot simulate.
        let path = tmp_path("forget");
        let mut wal = Wal::open_with(&path, FsyncPolicy::EveryN(100), |_| {}).unwrap();
        for i in 0..7u8 {
            wal.append(&[i]).unwrap();
        }
        std::mem::forget(wal);
        let mut seen = Vec::new();
        let _ = Wal::open(&path, |rec| seen.push(rec.to_vec())).unwrap();
        assert_eq!(seen, (0..7u8).map(|i| vec![i]).collect::<Vec<_>>());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn oversized_length_field_rejected() {
        let path = tmp_path("oversize");
        {
            use std::io::Write;
            let mut f = File::create(&path).unwrap();
            f.write_all(&u32::MAX.to_be_bytes()).unwrap();
            f.write_all(&[0u8; 4]).unwrap();
        }
        let mut seen = 0;
        let _ = Wal::open(&path, |_| seen += 1).unwrap();
        assert_eq!(seen, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_fsync_failure_surfaces_from_append() {
        let path = tmp_path("eio-append");
        // Boundary 1: replay-open set_len. Boundary 2: the first append's
        // buffered frame write. Boundary 3: its fsync — fail there.
        let disk = Arc::new(FaultyDisk::new(FaultPlan {
            fail_sync_at: Some(3),
            ..FaultPlan::default()
        }));
        let mut wal = Wal::open_on(disk, &path, FsyncPolicy::Always, |_| {}).unwrap();
        let err = wal.append(b"doomed").unwrap_err();
        assert!(err.to_string().contains("injected EIO"), "{err}");
        // The handle stays usable; the next append re-tries the barrier.
        wal.append(b"ok").unwrap();
        drop(wal);
        let mut seen = Vec::new();
        let _ = Wal::open(&path, |rec| seen.push(rec.to_vec())).unwrap();
        assert_eq!(seen, vec![b"doomed".to_vec(), b"ok".to_vec()]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn enospc_append_fails_and_tail_is_repaired_on_reopen() {
        let path = tmp_path("enospc-wal");
        let disk = Arc::new(FaultyDisk::new(FaultPlan {
            enospc_after_bytes: Some(20),
            ..FaultPlan::default()
        }));
        let mut wal = Wal::open_on(disk, &path, FsyncPolicy::Always, |_| {}).unwrap();
        wal.append(b"fits").unwrap(); // 12 bytes
        let err = wal.append(b"does-not-fit-anymore").unwrap_err(); // would be 28 more
        assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
        std::mem::forget(wal); // Drop's fsync would also hit ENOSPC bookkeeping
        let mut seen = Vec::new();
        let _ = Wal::open(&path, |rec| seen.push(rec.to_vec())).unwrap();
        assert_eq!(seen, vec![b"fits".to_vec()], "partial frame repaired away");
        std::fs::remove_file(&path).unwrap();
    }
}
