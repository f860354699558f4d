//! Versioned, CRC-framed checkpoint files (DESIGN.md §14).
//!
//! A [`SnapshotStore`] manages a directory of snapshot files, each one a
//! point-in-time image of some live state plus the history watermark
//! (`base_seq`) it covers: everything below the watermark is inside the
//! image, everything at or above it must come from the WAL suffix.
//!
//! Writes are crash-atomic: the frame goes to a sibling temp file, is
//! fsynced, renamed into place, and the directory is fsynced — a crash at
//! any boundary leaves either the previous snapshot set intact or the new
//! file fully in place, never a half-written file under a valid name.
//! Loads degrade gracefully: a corrupt newest file falls back to the next
//! (counted in [`SnapshotCounts::fallbacks`]), and when nothing valid
//! remains the caller replays the full WAL.
//!
//! File format (all integers big-endian):
//!
//! ```text
//! [magic "CFSNAP" 6][version u16][base_seq u64][len u64][crc32 u32][payload]
//! ```
//!
//! The CRC covers `base_seq || len || payload`, so a truncated payload and
//! a corrupted watermark are both caught by the same check.

use crate::disk::{Disk, RealDisk};
use crate::wal::crc32;
use crowdfill_obs::Counter;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: &[u8; 6] = b"CFSNAP";
const VERSION: u16 = 1;
/// Defends the length field against corruption, like the WAL's cap.
const MAX_PAYLOAD: u64 = 1 << 32;

/// One decoded snapshot: the payload bytes and the watermark they cover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// History sequence the image includes everything below.
    pub base_seq: u64,
    pub payload: Vec<u8>,
}

/// What a store has done since it was opened ([`SnapshotStore::counts`]):
/// snapshots written, loads that fell back past a newer file, and files
/// (or payloads, counted by their reader) found unusable.
#[derive(Debug, Clone, Default)]
pub struct SnapshotCounts {
    pub writes: Counter,
    pub fallbacks: Counter,
    pub corrupt: Counter,
}

/// A directory of snapshot files, newest-wins with bounded retention.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    disk: Arc<dyn Disk>,
    /// How many snapshots to keep on disk (≥ 1; the default 2 keeps one
    /// fallback behind the latest).
    keep: usize,
    counts: SnapshotCounts,
}

impl SnapshotStore {
    /// Opens (creating if absent) the snapshot directory on the real
    /// filesystem, retaining 2 snapshots.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<SnapshotStore> {
        SnapshotStore::open_on(Arc::new(RealDisk), dir, 2)
    }

    /// Opens the store on an explicit [`Disk`] with explicit retention.
    pub fn open_on(
        disk: Arc<dyn Disk>,
        dir: impl AsRef<Path>,
        keep: usize,
    ) -> std::io::Result<SnapshotStore> {
        let dir = dir.as_ref().to_path_buf();
        disk.create_dir_all(&dir)?;
        let store = SnapshotStore {
            dir,
            disk,
            keep: keep.max(1),
            counts: SnapshotCounts::default(),
        };
        // A crash between a snapshot's temp write and its rename leaves a
        // `*.tmp` corpse; it was never part of the store.
        for p in store.list()?.1 {
            crowdfill_obs::obs_warn!(
                "docstore",
                "removing stale snapshot temp file: {}",
                p.display()
            );
            store.disk.remove_file(&p)?;
        }
        Ok(store)
    }

    /// The directory this store manages.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// What this store has done since it was opened.
    pub fn counts(&self) -> &SnapshotCounts {
        &self.counts
    }

    fn file_name(seq: u64) -> String {
        format!("snap-{seq:020}.cfsnap")
    }

    /// `(snapshots newest-first, stale temp files)`.
    #[allow(clippy::type_complexity)]
    fn list(&self) -> std::io::Result<(Vec<(u64, PathBuf)>, Vec<PathBuf>)> {
        let mut snaps = Vec::new();
        let mut tmps = Vec::new();
        for path in self.disk.list_dir(&self.dir)? {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if name.ends_with(".tmp") {
                tmps.push(path);
                continue;
            }
            if let Some(seq) = name
                .strip_prefix("snap-")
                .and_then(|r| r.strip_suffix(".cfsnap"))
                .and_then(|d| d.parse::<u64>().ok())
            {
                snaps.push((seq, path));
            }
        }
        snaps.sort_by_key(|s| std::cmp::Reverse(s.0));
        Ok((snaps, tmps))
    }

    /// Writes a snapshot crash-atomically and prunes beyond the retention
    /// bound. On return the new file is durable, including its name.
    pub fn write(&self, base_seq: u64, payload: &[u8]) -> std::io::Result<()> {
        let final_path = self.dir.join(Self::file_name(base_seq));
        let tmp = self.dir.join(format!("{}.tmp", Self::file_name(base_seq)));
        {
            let mut f = self.disk.create(&tmp)?;
            let mut frame = Vec::with_capacity(28 + payload.len());
            frame.extend_from_slice(MAGIC);
            frame.extend_from_slice(&VERSION.to_be_bytes());
            frame.extend_from_slice(&base_seq.to_be_bytes());
            frame.extend_from_slice(&(payload.len() as u64).to_be_bytes());
            frame.extend_from_slice(&crc_of(base_seq, payload).to_be_bytes());
            frame.extend_from_slice(payload);
            f.write_all(&frame)?;
            f.flush()?;
            f.sync_all()?;
        }
        self.disk.rename(&tmp, &final_path)?;
        self.disk.sync_dir(&self.dir)?;
        self.counts.writes.inc();
        crowdfill_obs::obs_debug!(
            "docstore",
            "snapshot written: {}", final_path.display();
            base_seq => base_seq,
            bytes => payload.len() as u64,
        );
        self.prune()?;
        Ok(())
    }

    /// Removes all but the newest `keep` snapshots. Pruning failures are
    /// surfaced (disk faults), but a missing file is not an error.
    fn prune(&self) -> std::io::Result<()> {
        let (snaps, _) = self.list()?;
        for (_, path) in snaps.into_iter().skip(self.keep) {
            self.disk.remove_file(&path)?;
        }
        Ok(())
    }

    /// Loads the newest snapshot that decodes cleanly, walking backwards
    /// through retained files. `None` means no usable snapshot exists —
    /// the caller falls back to full-WAL replay.
    pub fn load_latest(&self) -> std::io::Result<Option<Snapshot>> {
        let (snaps, _) = self.list()?;
        for (i, (seq, path)) in snaps.iter().enumerate() {
            match self.load_file(path) {
                Ok(snap) => {
                    if i > 0 {
                        self.counts.fallbacks.inc();
                    }
                    crowdfill_obs::obs_debug!(
                        "docstore",
                        "snapshot loaded: {}", path.display();
                        base_seq => snap.base_seq,
                        fallbacks => i as u64,
                    );
                    return Ok(Some(snap));
                }
                Err(e) => {
                    self.counts.corrupt.inc();
                    crowdfill_obs::obs_warn!(
                        "docstore",
                        "corrupt snapshot skipped: {} ({e})", path.display();
                        base_seq => *seq,
                    );
                }
            }
        }
        Ok(None)
    }

    fn load_file(&self, path: &Path) -> std::io::Result<Snapshot> {
        let mut reader = self.disk.open_read(path)?;
        let mut header = [0u8; 28];
        reader.read_exact(&mut header)?;
        if &header[0..6] != MAGIC {
            return Err(bad("bad magic"));
        }
        let version = u16::from_be_bytes(header[6..8].try_into().unwrap());
        if version != VERSION {
            return Err(bad("unsupported version"));
        }
        let base_seq = u64::from_be_bytes(header[8..16].try_into().unwrap());
        let len = u64::from_be_bytes(header[16..24].try_into().unwrap());
        if len > MAX_PAYLOAD {
            return Err(bad("payload length out of range"));
        }
        let crc = u32::from_be_bytes(header[24..28].try_into().unwrap());
        let mut payload = vec![0u8; len as usize];
        reader.read_exact(&mut payload)?;
        if crc_of(base_seq, &payload) != crc {
            return Err(bad("crc mismatch"));
        }
        Ok(Snapshot { base_seq, payload })
    }
}

/// CRC over `base_seq || len || payload`.
fn crc_of(base_seq: u64, payload: &[u8]) -> u32 {
    let mut buf = Vec::with_capacity(16 + payload.len());
    buf.extend_from_slice(&base_seq.to_be_bytes());
    buf.extend_from_slice(&(payload.len() as u64).to_be_bytes());
    buf.extend_from_slice(payload);
    crc32(&buf)
}

fn bad(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("crowdfill-snap-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn write_then_load_roundtrips() {
        let dir = tmp_dir("roundtrip");
        let store = SnapshotStore::open(&dir).unwrap();
        assert_eq!(store.load_latest().unwrap(), None, "empty store");
        store.write(7, b"payload-bytes").unwrap();
        let snap = store.load_latest().unwrap().expect("snapshot");
        assert_eq!(snap.base_seq, 7);
        assert_eq!(snap.payload, b"payload-bytes");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn newest_wins_and_retention_prunes() {
        let dir = tmp_dir("retention");
        let store = SnapshotStore::open(&dir).unwrap();
        for seq in [10u64, 20, 30] {
            store
                .write(seq, format!("state-at-{seq}").as_bytes())
                .unwrap();
        }
        let snap = store.load_latest().unwrap().expect("snapshot");
        assert_eq!(snap.base_seq, 30);
        // keep=2: the seq-10 file is gone.
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names.len(), 2, "{names:?}");
        assert!(!names.iter().any(|n| n.contains("-00000000000000000010")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_latest_falls_back_to_previous() {
        let dir = tmp_dir("fallback");
        let store = SnapshotStore::open(&dir).unwrap();
        store.write(5, b"older-but-sound").unwrap();
        store.write(9, b"newer-but-doomed").unwrap();
        // Flip a payload byte in the newest file.
        let newest = dir.join("snap-00000000000000000009.cfsnap");
        let mut bytes = std::fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&newest, bytes).unwrap();

        let snap = store.load_latest().unwrap().expect("fallback snapshot");
        assert_eq!(snap.base_seq, 5);
        assert_eq!(snap.payload, b"older-but-sound");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn all_corrupt_means_none() {
        let dir = tmp_dir("none");
        let store = SnapshotStore::open(&dir).unwrap();
        store.write(1, b"a").unwrap();
        store.write(2, b"b").unwrap();
        for entry in std::fs::read_dir(&dir).unwrap() {
            std::fs::write(entry.unwrap().path(), b"garbage").unwrap();
        }
        assert_eq!(store.load_latest().unwrap(), None, "full replay it is");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_payload_is_corrupt() {
        let dir = tmp_dir("truncated");
        let store = SnapshotStore::open(&dir).unwrap();
        store.write(3, b"0123456789").unwrap();
        let path = dir.join("snap-00000000000000000003.cfsnap");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        assert_eq!(store.load_latest().unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_removes_stale_tmp() {
        let dir = tmp_dir("stale");
        {
            let store = SnapshotStore::open(&dir).unwrap();
            store.write(4, b"real").unwrap();
        }
        std::fs::write(dir.join("snap-00000000000000000005.cfsnap.tmp"), b"half").unwrap();
        let store = SnapshotStore::open(&dir).unwrap();
        assert!(!dir.join("snap-00000000000000000005.cfsnap.tmp").exists());
        let snap = store.load_latest().unwrap().expect("snapshot");
        assert_eq!(snap.base_seq, 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewrite_at_same_seq_is_allowed() {
        // A checkpoint at an unchanged watermark (no new ops) overwrites
        // in place via the same tmp+rename path.
        let dir = tmp_dir("same-seq");
        let store = SnapshotStore::open(&dir).unwrap();
        store.write(8, b"first").unwrap();
        store.write(8, b"second").unwrap();
        let snap = store.load_latest().unwrap().expect("snapshot");
        assert_eq!(snap.payload, b"second");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
