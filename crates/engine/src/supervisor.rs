//! Supervision primitives for the sharded engine: checkpoint slots and
//! restart policy.
//!
//! The design follows the classic supervisor pattern (bounded restarts
//! with exponential backoff, then graceful degradation) specialized to the
//! engine's determinism requirements. A shard worker periodically
//! serializes its whole [`crate::engine::Engine`] — forward decay makes
//! this cheap and *exact*, because summaries carry frozen numerators
//! `g(t_i − L)` that are plain numbers, not functions of the current time
//! (paper Section VI-B). Each shard retains the small tail of messages
//! since its last checkpoint: the sending handle appends to that backlog, the
//! worker trims it as each checkpoint it publishes covers older entries.
//! On worker death the supervisor restores the engine from the slot and
//! replays the tail, which reproduces the worker's state byte-for-byte
//! (see [`crate::engine::Engine::checkpoint`]).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Take a checkpoint after at least this many tuples since the previous
/// one (default for [`crate::shard::ShardedEngine`]). Tuned on the
/// `recovery_overhead` bench: each shard retains a replay backlog
/// covering at most this many tuples, so the interval bounds both the
/// replay tail and the retained-batch working set — under 3% overhead on
/// the dispatch path for the Figure 2 count workload — while the
/// serialization and backlog trimming run on worker threads, where they
/// overlap dispatch whenever a spare core exists.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 32_768;

/// Give up on a shard after this many worker restarts (default).
pub const DEFAULT_MAX_RESTARTS: u32 = 3;

/// Base delay of the exponential respawn backoff: attempt k waits
/// `BACKOFF_BASE << k`.
pub const BACKOFF_BASE: Duration = Duration::from_millis(10);

/// One shard's checkpoint slot: the latest engine snapshot, stamped with
/// the sequence number of the last message folded into it.
///
/// Written by the worker (engine bytes + seq), which also trims the
/// replay backlog against the `seq` it just published; the dispatcher
/// reads the slot only on recovery (full restore) and at degrade-time
/// salvage. Single writer, so a plain mutex on the bytes is uncontended
/// in the steady state.
#[derive(Debug, Default)]
pub struct CheckpointSlot {
    /// Sequence number of the last message whose effects are inside
    /// `bytes`. Backlog entries with `seq <= this` are covered and may
    /// be discarded.
    seq: AtomicU64,
    bytes: Mutex<Option<Vec<u8>>>,
    /// Set once the engine reports its aggregator cannot checkpoint
    /// (e.g. samplers). The dispatcher then stops retaining backlog: on
    /// death the shard degrades immediately instead of replaying.
    unsupported: AtomicBool,
}

impl CheckpointSlot {
    /// Sequence number of the stored snapshot (`0` = none yet).
    pub fn seq(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    /// Stores a snapshot, handing back the one it displaces so the worker
    /// can reuse its allocation for the next serialization (`None` on the
    /// first store). `seq` must be the sequence number of the last
    /// message applied before serializing.
    pub fn store(&self, seq: u64, bytes: Vec<u8>) -> Option<Vec<u8>> {
        let prev = self
            .bytes
            .lock()
            .expect("checkpoint slot poisoned")
            .replace(bytes);
        self.seq.store(seq, Ordering::Release);
        prev
    }

    /// The stored snapshot, if any, with its sequence number.
    pub fn load(&self) -> Option<(u64, Vec<u8>)> {
        let bytes = self
            .bytes
            .lock()
            .expect("checkpoint slot poisoned")
            .clone()?;
        Some((self.seq(), bytes))
    }

    /// Marks the slot as permanently unable to checkpoint.
    pub fn mark_unsupported(&self) {
        self.unsupported.store(true, Ordering::Release);
    }

    /// Whether checkpointing was found to be unsupported for this query.
    pub fn unsupported(&self) -> bool {
        self.unsupported.load(Ordering::Acquire)
    }
}

/// Backoff before respawn attempt `attempt` (0-based): `BACKOFF_BASE << attempt`,
/// saturating.
pub fn backoff(attempt: u32) -> Duration {
    BACKOFF_BASE.saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
}

/// One worker *incarnation*'s progress lease — the stuck-shard watchdog's
/// ground truth.
///
/// The worker heartbeats ([`beat`](WorkerLease::beat) /
/// [`record_progress`](WorkerLease::record_progress)) with relaxed stores
/// on its message loop; the dispatcher reads the lease only when a shard's
/// ring has been full past the send deadline, and declares the worker
/// *wedged* when the heartbeat is older than the configured lease. Safe
/// Rust cannot kill a thread, so a wedged worker is **retired**
/// ([`retire`](WorkerLease::retire)) and abandoned: a fresh incarnation
/// with a fresh lease takes over through the normal checkpoint + backlog
/// replay path, while the old thread — if it ever unwedges — observes
/// [`retired`](WorkerLease::retired) on its next loop iteration and exits
/// without side effects (no checkpoint stores, no result sends, no
/// telemetry decrements: its replayed messages are the live copies now).
#[derive(Debug)]
pub struct WorkerLease {
    /// When this incarnation was installed; heartbeats are milliseconds
    /// since then.
    born: std::time::Instant,
    /// Milliseconds since `born` at the worker's last sign of life.
    beat_ms: AtomicU64,
    /// Highest sequence number the worker has fully applied.
    consumed_seq: AtomicU64,
    /// Set by the watchdog when it abandons this incarnation.
    retired: AtomicBool,
}

impl Default for WorkerLease {
    fn default() -> Self {
        Self {
            born: std::time::Instant::now(),
            beat_ms: AtomicU64::new(0),
            consumed_seq: AtomicU64::new(0),
            retired: AtomicBool::new(false),
        }
    }
}

impl WorkerLease {
    /// Worker-side: records a sign of life (one relaxed store).
    pub fn beat(&self) {
        self.beat_ms
            .store(self.born.elapsed().as_millis() as u64, Ordering::Relaxed);
    }

    /// Worker-side: records a sign of life plus the last fully-applied
    /// sequence number.
    pub fn record_progress(&self, seq: u64) {
        self.consumed_seq.store(seq, Ordering::Relaxed);
        self.beat();
    }

    /// The last sequence number the worker reported applying.
    pub fn consumed_seq(&self) -> u64 {
        self.consumed_seq.load(Ordering::Relaxed)
    }

    /// How long ago the last heartbeat was (time since birth, if the
    /// worker never beat at all).
    pub fn stale_for(&self) -> Duration {
        self.born
            .elapsed()
            .saturating_sub(Duration::from_millis(self.beat_ms.load(Ordering::Relaxed)))
    }

    /// Whether the heartbeat is older than `lease`.
    pub fn is_stale(&self, lease: Duration) -> bool {
        self.stale_for() > lease
    }

    /// Watchdog-side: abandons this incarnation. Sticky.
    pub fn retire(&self) {
        self.retired.store(true, Ordering::Release);
    }

    /// Whether this incarnation has been abandoned. Checked once per
    /// message by the worker loop (one relaxed-ish load — cheap).
    pub fn retired(&self) -> bool {
        self.retired.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_roundtrip() {
        let slot = CheckpointSlot::default();
        assert_eq!(slot.seq(), 0);
        assert!(slot.load().is_none());
        slot.store(7, vec![1, 2, 3]);
        assert_eq!(slot.load(), Some((7, vec![1, 2, 3])));
        slot.store(9, vec![4]);
        assert_eq!(slot.load(), Some((9, vec![4])));
    }

    #[test]
    fn unsupported_is_sticky() {
        let slot = CheckpointSlot::default();
        assert!(!slot.unsupported());
        slot.mark_unsupported();
        assert!(slot.unsupported());
    }

    #[test]
    fn backoff_grows_and_saturates() {
        assert_eq!(backoff(0), Duration::from_millis(10));
        assert_eq!(backoff(1), Duration::from_millis(20));
        assert_eq!(backoff(2), Duration::from_millis(40));
        assert!(backoff(40) >= backoff(3));
    }

    #[test]
    fn lease_tracks_heartbeats_and_progress() {
        let lease = WorkerLease::default();
        assert_eq!(lease.consumed_seq(), 0);
        lease.record_progress(41);
        assert_eq!(lease.consumed_seq(), 41);
        // A fresh beat resets staleness to (sub-millisecond) zero.
        lease.beat();
        assert!(!lease.is_stale(Duration::from_millis(50)));
        std::thread::sleep(Duration::from_millis(30));
        assert!(lease.is_stale(Duration::from_millis(5)));
        assert!(lease.stale_for() >= Duration::from_millis(20));
    }

    #[test]
    fn lease_retirement_is_sticky() {
        let lease = WorkerLease::default();
        assert!(!lease.retired());
        lease.retire();
        assert!(lease.retired());
        lease.beat(); // a zombie heartbeat does not un-retire
        assert!(lease.retired());
    }
}
