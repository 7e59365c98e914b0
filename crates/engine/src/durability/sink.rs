//! The engine-facing half of the store: a ring of commands to the writer
//! thread.

use std::path::PathBuf;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use super::codec::CommitState;
use super::recover::Resume;
use super::writer::{Flags, Writer};
use super::{err, DurabilityOptions};
use crate::io::IoBackend;
use crate::spsc::{ring, BatchPool, RingSender};
use crate::supervisor::CheckpointSlot;
use crate::telemetry::EngineTelemetry;
use crate::tuple::{Micros, Packet};

/// The batches the ring to the WAL writer may hold, in bytes. The writer
/// stalls for whole milliseconds inside checkpoint fsyncs, and a ring that
/// fills during one parks the dispatcher (a sleep/wake round-trip billed
/// to its CPU clock), so the ring is much deeper than the worker rings. But
/// each entry keeps its batch alive until the writer encodes it, so the
/// backlog one stall leaves is the dispatch rate times the stall: bounded
/// in entries alone, the faster the pipeline, the more memory it holds.
/// 8 MiB rides out `fig2_durable`'s stalls (EXPERIMENTS.md, "A log folded
/// into a key-sorted run"); if the disk persistently cannot keep up, the
/// full ring is the backpressure.
const WAL_BACKLOG_BYTES: usize = 8 << 20;

/// The ring's depth in entries for batches of up to `batch_size` tuples:
/// [`WAL_BACKLOG_BYTES`] of full batches (a commit, a few words, takes an
/// entry too), within bounds that keep tiny batches from allocating a huge
/// ring and huge ones from parking every send.
fn wal_ring_depth(batch_size: usize) -> usize {
    let batch_bytes = batch_size.max(1) * std::mem::size_of::<Packet>();
    (WAL_BACKLOG_BYTES / batch_bytes).clamp(16, 8192)
}

pub(super) enum WalCmd {
    Epoch {
        shard: usize,
        seq: u64,
        wm: Micros,
        pkts: Arc<Vec<Packet>>,
    },
    Commit(CommitState),
    Finish,
}

/// The engine-facing handle to the durability writer thread.
///
/// Cheap by construction: every method is one ring push (the batch
/// travels as an `Arc` clone). Dropping the sink without
/// [`finish`](DurableSink::finish) — e.g. on an unwinding dispatcher —
/// abandons the writer: it stops immediately and performs **no further
/// fsync or rename**, so a half-initialized run can never publish a
/// half-written MANIFEST.
pub(crate) struct DurableSink {
    tx: Option<RingSender<WalCmd>>,
    handle: Option<JoinHandle<()>>,
    flags: Arc<Flags>,
    /// Commands held back until the next commit — see [`DurableSink::push`].
    stash: Vec<WalCmd>,
}

/// Stash bound: an engine that streams without ever committing still
/// hands its records over in bursts no larger than this (an `Arc` clone
/// per batch, so the bound is about ring fairness, not memory).
const STASH_MAX: usize = 128;

/// Upper bound on any single hand-off to the WAL writer's ring.
/// Deliberately generous — orders of magnitude above a healthy writer's
/// worst fsync — because timing out here costs durability: a writer that
/// cannot accept a command within this bound is treated exactly like a
/// persistent disk failure (degrade, keep streaming on in-memory
/// supervision) rather than letting a wedged I/O call head-of-line-block
/// the dispatcher forever.
const WAL_SEND_DEADLINE: Duration = Duration::from_secs(10);

impl DurableSink {
    /// Spawns the writer thread over a recovered (or fresh) store in `dir`,
    /// through `io` — `opts.io`, or the fault-injecting wrapper around it —
    /// for batches of up to `batch_size` tuples.
    pub(crate) fn spawn(
        (dir, opts): &(PathBuf, DurabilityOptions),
        io: Arc<dyn IoBackend>,
        resume: Resume,
        slots: Vec<Arc<CheckpointSlot>>,
        telemetry: Arc<EngineTelemetry>,
        pools: Vec<BatchPool<Packet>>,
        batch_size: usize,
    ) -> Result<Self, fd_core::Error> {
        let writer = Writer::new(dir, io, opts, resume, slots, telemetry, pools);
        let flags = Arc::clone(&writer.flags);
        let (tx, rx) = ring::<WalCmd>(wal_ring_depth(batch_size));
        let handle = std::thread::Builder::new()
            .name("fd-wal-writer".to_owned())
            .spawn(move || writer.run(rx))
            .map_err(|e| err(format!("failed to spawn WAL writer: {e}")))?;
        Ok(Self {
            tx: Some(tx),
            handle: Some(handle),
            flags,
            stash: Vec::new(),
        })
    }

    /// Whether the writer hit a persistent disk failure and the engine is
    /// running on in-memory supervision only.
    pub(crate) fn degraded(&self) -> bool {
        self.flags.degraded.load(Relaxed)
    }

    /// Stashes a command for the next commit-time burst.
    ///
    /// Nothing in the WAL is recoverable until a commit record covers it
    /// (recovery resumes from the newest commit and truncates past its
    /// coverage), so shipping records to the writer eagerly buys no
    /// durability — it only costs a ring hand-off per batch, and the
    /// futex wake behind most of those hand-offs is the single biggest
    /// per-batch cost the durable hook can impose on the dispatcher (see
    /// the `durability_overhead` bench). Batching the hand-off to one
    /// burst per commit keeps WAL order intact — batches still precede
    /// their commit on the ring — and collapses the wakes to one.
    /// [`STASH_MAX`] bounds the stash for callers that never commit.
    fn push(&mut self, cmd: WalCmd) {
        self.stash.push(cmd);
        if self.stash.len() >= STASH_MAX || self.degraded() {
            self.flush_stash();
        }
    }

    /// Drains the stash onto the writer's ring — or, once degraded, onto
    /// the floor. Consecutive sends after the first find the ring
    /// non-empty, so the ring's notify elision makes the whole burst cost
    /// a single wake.
    fn flush_stash(&mut self) {
        let Some(tx) = self.tx.as_ref().filter(|_| !self.degraded()) else {
            self.stash.clear();
            return;
        };
        for cmd in self.stash.drain(..) {
            if tx.send_deadline(cmd, WAL_SEND_DEADLINE).is_err() {
                // The writer disappeared (panicked) or sat wedged past the
                // generous deadline; treat both exactly like a persistent
                // disk failure. The rest of the stash goes with the drain.
                self.flags.degraded.store(true, Relaxed);
                break;
            }
        }
    }

    pub(crate) fn batch(&mut self, shard: usize, seq: u64, pkts: &Arc<Vec<Packet>>, wm: Micros) {
        self.push(WalCmd::Epoch {
            shard,
            seq,
            wm,
            pkts: Arc::clone(pkts),
        });
    }

    pub(crate) fn commit(&mut self, c: CommitState) {
        self.push(WalCmd::Commit(c));
        self.flush_stash();
    }

    /// Flushes everything, commits a final manifest, and joins the writer.
    pub(crate) fn finish(&mut self) {
        self.flush_stash();
        if let Some(tx) = self.tx.take() {
            let _ = tx.send(WalCmd::Finish);
        }
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for DurableSink {
    fn drop(&mut self) {
        // Dropped without finish(): the engine is being abandoned, very
        // possibly mid-unwind with half-applied state. Tell the writer to
        // stop *without* any further fsync, rename, or manifest commit —
        // the store stays at its last complete commit.
        self.flags.abandoned.store(true, Relaxed);
        self.tx = None;
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_wal_ring_holds_its_bytes_of_full_batches() {
        let bytes = |batch: usize| wal_ring_depth(batch) * batch * std::mem::size_of::<Packet>();
        // The default batch: 256 entries of 1 024 tuples.
        assert_eq!(bytes(1024), WAL_BACKLOG_BYTES);
        assert_eq!(wal_ring_depth(1024), 256);
        // Tiny batches stop at the old depth, huge ones keep a few entries.
        assert_eq!(wal_ring_depth(1), 8192);
        assert_eq!(wal_ring_depth(1 << 20), 16);
    }
}
