//! Crash-durable persistence beneath the supervised sharded engine.
//!
//! PR 4's supervision makes the engine survive *worker* crashes: each
//! worker periodically serializes its open state into an in-memory
//! [`CheckpointSlot`] and hands its newly closed buckets over with it
//! (exact, because forward decay's frozen numerators never need
//! rescaling — Section VI-B), and a respawned worker re-reads the short
//! tail its queues retain. A *process* crash still loses everything. This module
//! pushes the same artifacts to disk:
//!
//! * a **per-shard segmented WAL** of every epoch message the ingress
//!   handles send (CRC32-framed via [`fd_core::checkpoint::put_frame`]),
//!   plus a control log of **commit records** snapshotting every handle's
//!   admission state and each shard's high sequence number at a
//!   caller-chosen stream `position`;
//! * **atomic on-disk checkpoints** of the worker slots (tmp + fsync +
//!   read-back verify + rename): the open-state snapshot as
//!   `ckpt-<shard>-<version>.bin`, replaced at every persist, and the
//!   closed groups handed off since the shard's previous persist as one
//!   write-once **closed-delta**, `closed-<shard>-<k>.bin` — each closed
//!   group reaches disk exactly once, and a persisted checkpoint is as
//!   small as the shard's open state. A versioned `MANIFEST` records, per
//!   shard, which checkpoint file is current, the WAL sequence it covers,
//!   and how many closed-deltas go with it. WAL segments wholly below the
//!   manifest coverage are garbage-collected after each manifest commit;
//!   closed-deltas the manifest names never are.
//!
//! ## Off the hot path
//!
//! The dispatcher never serializes, checksums, or touches a file: it
//! enqueues a `WalCmd` — an `Arc` clone of the batch it was already
//! sending — onto a bounded SPSC ring consumed by one **writer thread**,
//! which does everything else. Durability's dispatch-path cost is one
//! branch and one ring push per *batch* (~1024 tuples); the
//! `durability_overhead` bench prices the fsync=checkpoint configuration
//! against the non-durable dispatch path (`BENCH_durability.json`). A full
//! ring applies backpressure instead of dropping records.
//!
//! ## Recovery model (group commit)
//!
//! `recover` loads the manifest's checkpoints and closed-deltas, scans the
//! logs, and picks the **newest commit record `C`**
//! such that, for every shard `s`,
//! `covered[s] ≤ C.hi[s] ≤ last_good_wal_seq[s]` — i.e. the checkpoint on
//! disk does not overshoot `C` and the WAL tail reaches it. Torn tails
//! (CRC or length mismatch, from a crash mid-append or injected short
//! writes) are cleanly truncated and counted, never a panic. Everything
//! beyond `C` is physically truncated, workers are restored from the
//! on-disk checkpoints and replayed through the normal batch path, the
//! dispatcher's admission state is restored from `C`, and the caller
//! re-feeds its input from `C.position` — yielding answers bit-identical
//! to an uncrashed run for deterministic queries. A store damaged *below*
//! its last commit (a corrupt manifest-referenced checkpoint, a WAL gap)
//! is an explicit [`fd_core::Error::Durability`], never a silently wrong
//! answer — and so is a store holding anything this build does not write
//! (there is one format, in `codec.rs`, and no upgrade path). Recovery
//! reads everything and decides before it cuts anything, so a refused
//! store is left byte for byte as found.
//!
//! ## Degradation ladder
//!
//! Any I/O error on the writer thread (including injected
//! [`DiskFault`](crate::fault::DiskFault)s) flips the engine to
//! **degraded durability**: the `durability_degraded` gauge goes to 1,
//! one warning is logged, and the stream continues under PR 4's
//! in-memory supervision exactly as if `--data-dir` had never been
//! passed. The store on disk is left at its last consistent commit, so a
//! later restart still recovers everything up to that point.

use std::sync::Arc;

use crate::io::IoBackend;
#[cfg(doc)]
use crate::supervisor::CheckpointSlot;
use crate::tuple::Micros;

/// When the WAL writer calls fsync.
///
/// A `kill -9` (or OOM-kill) loses nothing that was *written* — the page
/// cache survives the process — so fsync frequency only matters for
/// power loss and kernel crashes. See the README's trade-off table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// fsync after every appended record. Maximum durability, slowest.
    EveryBatch,
    /// fsync all dirty files after every N appended records.
    EveryN(u64),
    /// fsync only when a checkpoint/manifest commits (and at clean
    /// shutdown). The default: a power loss rolls back to the last
    /// manifest commit, a process crash loses nothing.
    #[default]
    OnCheckpoint,
}

impl FsyncPolicy {
    /// Parses the CLI spelling: `batch`, `every:N` (N ≥ 1), `checkpoint`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "batch" => Some(FsyncPolicy::EveryBatch),
            "checkpoint" => Some(FsyncPolicy::OnCheckpoint),
            _ => {
                let n: u64 = s.strip_prefix("every:")?.parse().ok()?;
                if n == 0 {
                    return None;
                }
                Some(FsyncPolicy::EveryN(n))
            }
        }
    }
}

/// Configuration for [`ShardedEngine::try_durable`](crate::shard::ShardedEngine::try_durable).
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// fsync cadence (default [`FsyncPolicy::OnCheckpoint`]).
    pub fsync: FsyncPolicy,
    /// Bytes per WAL segment before rotation (default 8 MiB). Smaller
    /// segments make garbage collection finer-grained.
    pub segment_bytes: u64,
    /// The filesystem to write through (default [`StdFs`](crate::io::StdFs);
    /// tests substitute [`FaultyFs`](crate::io::FaultyFs)).
    pub io: Arc<dyn IoBackend>,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        Self {
            fsync: FsyncPolicy::OnCheckpoint,
            segment_bytes: 8 * 1024 * 1024,
            io: Arc::new(crate::io::StdFs),
        }
    }
}

/// What a recovered (or freshly created) store told the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Stream position (input events already durable) to re-feed from.
    /// `0` for a fresh store.
    pub position: u64,
    /// The dispatcher watermark restored from the chosen commit, µs.
    pub watermark: Micros,
    /// WAL batch records replayed through workers during recovery.
    pub replayed_batches: u64,
    /// Tuples inside those batches.
    pub replayed_tuples: u64,
    /// Torn/corrupt records (and unreachable segments) truncated.
    pub truncated_records: u64,
    /// `false` when the directory held no prior store.
    pub resumed: bool,
}

mod codec;
mod recover;
mod sink;
mod writer;

pub(crate) use codec::{CommitState, ProducerCommit, ReplayMsg};
pub(crate) use recover::recover;
pub(crate) use sink::DurableSink;

/// A file of the store directory, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum StoreFile {
    Manifest,
    /// A WAL segment of `shard`, named by the seq of its first record.
    Wal(usize, u64),
    /// A control-log segment, by id.
    Ctl(u64),
    /// `shard`'s checkpoint, by version.
    Ckpt(usize, u64),
    /// `shard`'s closed-delta, by index.
    Closed(usize, u64),
}

impl StoreFile {
    /// The file's name; the zero-padded ones sort in numeric order.
    pub(super) fn name(self) -> String {
        match self {
            Self::Manifest => "MANIFEST".to_owned(),
            Self::Wal(shard, first_seq) => format!("wal-{shard}-{first_seq:020}.seg"),
            Self::Ctl(id) => format!("ctl-{id:020}.seg"),
            Self::Ckpt(shard, version) => format!("ckpt-{shard}-{version}.bin"),
            Self::Closed(shard, index) => format!("closed-{shard}-{index}.bin"),
        }
    }

    /// The inverse of [`name`](Self::name); `None` for anything else.
    pub(super) fn parse(name: &str) -> Option<Self> {
        if name == "MANIFEST" {
            return Some(Self::Manifest);
        }
        let (stem, ext) = name.rsplit_once('.')?;
        let mut parts = stem.split('-');
        let kind = parts.next()?;
        let mut num = || parts.next()?.parse::<u64>().ok();
        let file = match (kind, ext) {
            ("wal", "seg") => Self::Wal(num()? as usize, num()?),
            ("ctl", "seg") => Self::Ctl(num()?),
            ("ckpt", "bin") => Self::Ckpt(num()? as usize, num()?),
            ("closed", "bin") => Self::Closed(num()? as usize, num()?),
            _ => return None,
        };
        parts.next().is_none().then_some(file)
    }
}

fn err(detail: impl Into<String>) -> fd_core::Error {
    fd_core::Error::Durability {
        detail: detail.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_names_roundtrip_and_sort() {
        for file in [
            StoreFile::Manifest,
            StoreFile::Wal(3, 1001),
            StoreFile::Ctl(7),
            StoreFile::Ckpt(2, 9),
            StoreFile::Closed(1, 4),
        ] {
            assert_eq!(StoreFile::parse(&file.name()), Some(file));
        }
        for other in [
            "wal-x-1.seg",
            "wal-1.seg",
            "wal-1-2-3.seg",
            "ckpt-0-1.bin.tmp",
            "ctl-1.bin",
            "",
        ] {
            assert_eq!(StoreFile::parse(other), None, "{other:?}");
        }
        // Zero-padded names sort lexicographically in numeric order.
        assert!(StoreFile::Wal(0, 9).name() < StoreFile::Wal(0, 10).name());
        assert!(StoreFile::Ctl(99).name() < StoreFile::Ctl(100).name());
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("batch"), Some(FsyncPolicy::EveryBatch));
        assert_eq!(
            FsyncPolicy::parse("checkpoint"),
            Some(FsyncPolicy::OnCheckpoint)
        );
        assert_eq!(
            FsyncPolicy::parse("every:64"),
            Some(FsyncPolicy::EveryN(64))
        );
        for bad in ["", "every", "every:", "every:0", "every:x", "always"] {
            assert_eq!(FsyncPolicy::parse(bad), None, "spec {bad:?}");
        }
    }
}
