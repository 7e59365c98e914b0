//! Supervision primitives for the sharded engine: checkpoint slots and
//! restart policy.
//!
//! The design follows the classic supervisor pattern (bounded restarts
//! with exponential backoff, then graceful degradation) specialized to the
//! engine's determinism requirements. A shard worker serializes its *open*
//! state — open buckets, LFTA slots, counters — on a cadence that follows
//! that state's size ([`checkpoint_interval`]), and hands every bucket
//! closed since the previous checkpoint over to its [`CheckpointSlot`] as
//! the bucket's typed run (its groups, sorted by key), moved, not
//! serialized. Forward decay makes both halves cheap and *exact*:
//! summaries carry frozen numerators `g(aᵢ) / g(W)` that are plain
//! numbers, not functions of the current time (paper Section VI-B), so a
//! snapshot is plain data and a closed bucket never changes again. The
//! queues between the ingress handles and the worker ([`crate::spsc`])
//! *retain* what the worker has read: an entry stays in its queue, behind
//! the read cursor, until the worker releases it — which it does for
//! everything a checkpoint it just published covers. So the messages since
//! the last checkpoint exist exactly once, in the queue they were sent on,
//! and weigh no more than `max(checkpoint_every tuples, the last
//! snapshot's bytes)`. On worker death the supervisor restores the engine
//! from the slot's snapshot and attaches a fresh reader *incarnation* to
//! every queue at the first entry past the slot's seq; the new worker
//! re-reads the tail, which reproduces its predecessor's open state
//! byte-for-byte (see [`crate::engine::Engine::checkpoint`]) while the
//! slot's closed runs stay where they are. Nothing is re-sent.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use crate::groups::{groups, Run};
use crate::tuple::Packet;

/// Take a checkpoint after at least this many tuples since the previous
/// one (default for [`crate::shard::ShardedEngine`]): the floor of
/// [`checkpoint_interval`]. A shard whose snapshot outweighs this many
/// [`Packet`]s waits longer, so its queues retain read entries covering at
/// most `max(checkpoint_every tuples, the last snapshot's bytes)`: the
/// bound on both the re-read tail and the retained-batch working set.
/// What a checkpoint costs is set by the shard's *open* state alone —
/// closed buckets leave the snapshot at the checkpoint after they close —
/// and is paid on the worker thread, where it overlaps dispatch whenever a
/// spare core exists; the `recovery_overhead` bench and the pipeline
/// benchmark's `supervisor.*` ledger rows measure it (EXPERIMENTS.md has
/// the figures).
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 32_768;

/// Tuples (epochs count one more each) a shard worker applies before its
/// next checkpoint, having just published — or started from — a snapshot
/// of `snapshot_bytes`: at least `every`, and at least as many tuples as
/// the snapshot holds [`Packet`]s' worth of bytes. The retained tail a respawn re-reads then
/// never outweighs the snapshot it is replayed onto, and serializing
/// costs at most one `Packet`'s worth of bytes per tuple covered, however
/// large the open state. `0` (supervision off) stays `0`.
pub fn checkpoint_interval(every: u64, snapshot_bytes: u64) -> u64 {
    if every == 0 {
        return 0;
    }
    every.max(snapshot_bytes.div_ceil(std::mem::size_of::<Packet>() as u64))
}

/// Give up on a shard after this many worker restarts (default).
pub const DEFAULT_MAX_RESTARTS: u32 = 3;

/// Base delay of the exponential respawn backoff: attempt k waits
/// `BACKOFF_BASE << k`.
pub const BACKOFF_BASE: Duration = Duration::from_millis(10);

/// What one lock of a [`CheckpointSlot`] guards: the snapshot and the
/// closed runs, which only ever change together.
#[derive(Default)]
struct SlotState {
    /// The worker engine's open state as of the slot's `seq` (`None`
    /// until the first store).
    blob: Option<Vec<u8>>,
    /// The run of every bucket the shard closed at or before `seq`, in
    /// close order, across all worker incarnations.
    closed: Vec<Box<dyn Run>>,
}

/// A [`CheckpointSlot`]'s contents, borrowed under its lock.
pub struct SlotView<'a> {
    /// Sequence number of the last message folded into `blob`.
    pub seq: u64,
    /// The worker engine's open state as of `seq`
    /// ([`crate::engine::Engine::restore`] takes it).
    pub blob: &'a [u8],
    /// The run of every bucket the shard closed at or before `seq`.
    pub closed: &'a [Box<dyn Run>],
}

/// One shard's checkpoint slot: "the open state at `seq`" plus "every
/// bucket closed at or before `seq`", which together are the shard's whole
/// state at `seq`.
///
/// Written by the worker, which then releases what its queues retain up
/// to the `seq` it just published; read on recovery (restore the open state; the
/// closed runs stay put), by the durable store's writer thread, and at
/// the end of the run, when [`take_closed`](Self::take_closed) hands the
/// closed runs to the combiner. Single writer, so the mutex is
/// uncontended in the steady state.
#[derive(Default)]
pub struct CheckpointSlot {
    /// Sequence number of the last message whose effects are inside the
    /// slot. Retained queue entries with `seq <= this` are covered and may
    /// be released. Written under the state lock; readable without it.
    seq: AtomicU64,
    state: Mutex<SlotState>,
}

impl CheckpointSlot {
    /// A slot preloaded from a durable store: the persisted snapshot and
    /// the closed runs persisted beside it.
    pub fn resumed(seq: u64, blob: Vec<u8>, closed: Vec<Box<dyn Run>>) -> Self {
        Self {
            seq: AtomicU64::new(seq),
            state: Mutex::new(SlotState {
                blob: Some(blob),
                closed,
            }),
        }
    }

    /// Sequence number of the stored snapshot (`0` = none yet).
    pub fn seq(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    /// Publishes a checkpoint: the snapshot taken after applying message
    /// `seq`, and the runs of the buckets closed since the previous store —
    /// one critical section, so no reader ever sees one without the other.
    /// Hands back the displaced snapshot buffer for the next
    /// serialization (empty on the first store) and how many closed
    /// groups the slot now holds.
    ///
    /// Refused (`None`) when `lease` has been retired: the watchdog reads
    /// the slot only after retiring the old incarnation, and the check
    /// runs under the same lock as that read, so a zombie that lost the
    /// race can publish neither a stale snapshot nor closed buckets its
    /// successor will close again.
    pub fn store(
        &self,
        lease: &WorkerLease,
        seq: u64,
        blob: Vec<u8>,
        newly_closed: Vec<Box<dyn Run>>,
    ) -> Option<(Vec<u8>, usize)> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if lease.retired() {
            return None;
        }
        let displaced = state.blob.replace(blob).unwrap_or_default();
        state.closed.extend(newly_closed);
        self.seq.store(seq, Ordering::Release);
        Some((displaced, groups(&state.closed)))
    }

    /// Runs `f` on the slot's contents under its lock; `None` when no
    /// snapshot has been stored yet.
    pub fn read<R>(&self, f: impl FnOnce(SlotView<'_>) -> R) -> Option<R> {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let blob = state.blob.as_deref()?;
        Some(f(SlotView {
            seq: self.seq(),
            blob,
            closed: &state.closed,
        }))
    }

    /// Moves the closed runs out (end of run: they go to the combiner).
    pub fn take_closed(&self) -> Vec<Box<dyn Run>> {
        std::mem::take(
            &mut self
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .closed,
        )
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
/// with a fresh lease takes over through the normal restore-and-re-read
/// path, while the old thread — if it ever unwedges — finds its queue
/// receivers inert, observes [`retired`](WorkerLease::retired) on its next
/// loop iteration and exits without side effects (no checkpoint stores, no
/// result sends: the successor re-reads its messages).
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
    /// The message this incarnation has read and not finished with, as
    /// `producer + 1` (`0`: none). See [`settle`](WorkerLease::settle).
    in_flight: AtomicUsize,
}

impl Default for WorkerLease {
    fn default() -> Self {
        Self {
            born: std::time::Instant::now(),
            beat_ms: AtomicU64::new(0),
            consumed_seq: AtomicU64::new(0),
            retired: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
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

    /// Worker-side: a message from `producer`'s queue has been read.
    /// Call before checking [`retired`](WorkerLease::retired).
    pub fn begin(&self, producer: usize) {
        self.in_flight.store(producer + 1, Ordering::SeqCst);
    }

    /// Takes the in-flight message's mark, returning its producer. The
    /// queue-depth gauges count a message from its send until its reader
    /// is done with it; whoever takes the mark — the worker leaving the
    /// message, or the watchdog abandoning a worker that may never leave
    /// it — owes the gauges that decrement, so it happens exactly once.
    ///
    /// `begin` then `retired` on the worker and `retire` then `settle` on
    /// the watchdog are each a store followed by a load of the other's
    /// flag; all four are `SeqCst`, so at least one side sees the other:
    /// the watchdog finds the mark, or the worker finds itself retired
    /// before it starts on the message and settles on its way out.
    pub fn settle(&self) -> Option<usize> {
        self.in_flight.swap(0, Ordering::SeqCst).checked_sub(1)
    }

    /// Watchdog-side: abandons this incarnation. Sticky.
    pub fn retire(&self) {
        self.retired.store(true, Ordering::SeqCst);
    }

    /// Whether this incarnation has been abandoned. Checked a few times
    /// per message by the worker loop (a plain load on x86 — cheap).
    pub fn retired(&self) -> bool {
        self.retired.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The run of bucket `bucket` (one second wide) holding a count for
    /// each of `keys`, as a state-mode engine closes it.
    fn closed(bucket: u64, keys: &[u32]) -> Box<dyn Run> {
        use crate::tuple::{Packet, Proto, MICROS_PER_SEC};
        let query = crate::udaf::Query::builder("slot")
            .group_by(|p| p.dst_ip.into())
            .bucket_secs(1)
            .aggregate(crate::aggregators::count_factory())
            .try_build()
            .expect("valid query");
        let mut e = crate::engine::Engine::new(query);
        e.keep_closed_state();
        for &dst_ip in keys {
            e.process(&Packet {
                ts: bucket * MICROS_PER_SEC,
                src_ip: 1,
                dst_ip,
                src_port: 1,
                dst_port: 80,
                len: 100,
                proto: Proto::Tcp,
            });
        }
        let mut runs = e.finish_state();
        assert_eq!(runs.len(), 1);
        runs.pop().expect("one run")
    }

    /// Each run's bucket and group count.
    fn ids(runs: &[Box<dyn Run>]) -> Vec<(u64, usize)> {
        runs.iter().map(|run| (run.bucket(), run.len())).collect()
    }

    #[test]
    fn slot_pairs_each_snapshot_with_the_buckets_closed_so_far() {
        let slot = CheckpointSlot::default();
        let lease = WorkerLease::default();
        assert_eq!(slot.seq(), 0);
        assert!(slot.read(|_| ()).is_none());
        let (spare, held) = slot
            .store(&lease, 7, vec![1, 2, 3], vec![closed(0, &[1])])
            .expect("live lease");
        assert!(spare.is_empty());
        assert_eq!(held, 1);
        // The displaced snapshot comes back for reuse; closed runs
        // accumulate across stores, and the count is of their groups.
        let (spare, held) = slot
            .store(&lease, 9, vec![4], vec![closed(1, &[1, 2])])
            .expect("live lease");
        assert_eq!(spare, vec![1, 2, 3]);
        assert_eq!(held, 3);
        let seen = slot.read(|v| (v.seq, v.blob.to_vec(), ids(v.closed)));
        assert_eq!(seen, Some((9, vec![4], vec![(0, 1), (1, 2)])));
        assert_eq!(ids(&slot.take_closed()), vec![(0, 1), (1, 2)]);
        assert!(slot.take_closed().is_empty(), "moved out exactly once");
        assert_eq!(slot.read(|v| v.seq), Some(9), "the snapshot stays");
    }

    #[test]
    fn retired_incarnation_cannot_publish() {
        let slot = CheckpointSlot::resumed(5, vec![9], vec![closed(0, &[1])]);
        let zombie = WorkerLease::default();
        zombie.retire();
        assert!(slot
            .store(&zombie, 8, vec![1], vec![closed(1, &[1])])
            .is_none());
        let seen = slot.read(|v| (v.seq, v.blob.to_vec(), ids(v.closed)));
        assert_eq!(seen, Some((5, vec![9], vec![(0, 1)])), "slot untouched");
    }

    #[test]
    fn checkpoint_interval_stretches_to_the_snapshot_in_packets() {
        const EVERY: u64 = 1_000;
        let packet = std::mem::size_of::<Packet>() as u64;
        assert_eq!(packet, 32);
        // A snapshot no heavier than `every` packets keeps the floor.
        for bytes in [0, 1, 31_999, EVERY * packet] {
            assert_eq!(checkpoint_interval(EVERY, bytes), EVERY, "{bytes} B");
        }
        // A larger one covers its bytes, one packet per tuple, rounded up.
        assert_eq!(checkpoint_interval(EVERY, EVERY * packet + 1), EVERY + 1);
        assert_eq!(checkpoint_interval(EVERY, 6_150_000), 192_188);
        // Supervision off never checkpoints, however large the state.
        for bytes in [0, 6_150_000, u64::MAX] {
            assert_eq!(checkpoint_interval(0, bytes), 0);
        }
        assert_eq!(checkpoint_interval(1, u64::MAX), u64::MAX.div_ceil(32));
        assert_eq!(checkpoint_interval(u64::MAX, u64::MAX), u64::MAX);
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
    fn in_flight_mark_is_taken_exactly_once() {
        let lease = WorkerLease::default();
        assert_eq!(lease.settle(), None, "nothing read yet");
        lease.begin(0);
        assert_eq!(lease.settle(), Some(0));
        assert_eq!(lease.settle(), None, "the other party finds it gone");
        lease.begin(3);
        lease.retire(); // retirement leaves the mark for whoever settles
        assert_eq!(lease.settle(), Some(3));
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
