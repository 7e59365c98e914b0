//! The engine-facing half of the store: a ring of commands to the writer
//! thread.

use std::path::Path;
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

/// Ring depth (messages) between the dispatcher and the WAL writer.
/// Much deeper than the worker rings, and deliberately so: the writer
/// stalls for whole milliseconds inside checkpoint fsyncs, and a ring
/// that fills during one turns every subsequent batch into a
/// sleep/wake round-trip billed to the *dispatcher's* CPU clock. At
/// one `Arc` + a few words per entry, 8192 slots cost ~1 MiB and let
/// the dispatcher ride out multi-ms flushes without ever blocking;
/// if the disk persistently cannot keep up, the full ring is the
/// backpressure that bounds memory.
const WAL_RING_DEPTH: usize = 8192;

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
    /// Spawns the writer thread over a recovered (or fresh) store, through
    /// `io` — `opts.io`, or the fault-injecting wrapper around it.
    pub(crate) fn spawn(
        dir: &Path,
        io: Arc<dyn IoBackend>,
        opts: &DurabilityOptions,
        resume: Resume,
        slots: Vec<Arc<CheckpointSlot>>,
        telemetry: Arc<EngineTelemetry>,
        pools: Vec<BatchPool<Packet>>,
    ) -> Result<Self, fd_core::Error> {
        let writer = Writer::new(dir, io, opts, resume, slots, telemetry, pools);
        let flags = Arc::clone(&writer.flags);
        let (tx, rx) = ring::<WalCmd>(WAL_RING_DEPTH);
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
