//! What the handles and workers of one plane share, and the one
//! send / recover / respawn / degrade protocol over it — including the
//! durable resume, which is a respawn whose checkpoint slot and backlog
//! were preloaded from a store.

use std::collections::VecDeque;
use std::sync::atomic::AtomicBool;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use super::ingress::IngressHandle;
use super::worker::{spawn_worker, WorkerHandle};
use super::{EngineConfig, Msg, FABRIC_RING_DEPTH};
use crate::durability::{recover, DurableSink, ProducerCommit, RecoveryReport, ReplayMsg};
use crate::engine::{ClosedGroup, Engine, EngineStats};
use crate::fault::{FaultKind, FaultState};
use crate::io::{FaultyFs, IoBackend};
use crate::overload::ShedPolicy;
use crate::spsc::{ring, BatchPool, RingSender, SendError};
use crate::supervisor::{backoff, CheckpointSlot, WorkerLease};
use crate::telemetry::EngineTelemetry;
use crate::tuple::{Packet, Proto};
use crate::udaf::Query;

/// Recovery state of one shard, behind its own mutex so a recovering
/// handle never blocks senders of *other* shards. The sender slots live
/// OUTSIDE this lock (see [`FabShard::senders`]) because a send can block
/// on a full ring; recovery must be able to run while other handles are
/// parked in `send`.
pub(super) struct FabInner {
    pub(super) worker: Option<WorkerHandle>,
    /// Restarts consumed so far, cumulative for the run.
    restarts: u32,
    /// Bumped at the start of every recovery (successful or degrading),
    /// while `inner` is held across the whole reap + replay +
    /// fresh-sender install. Each installed sender is stamped with the
    /// generation it belongs to, and a handle observes the generation
    /// *atomically with its backlog push* (both under `inner`), so for
    /// any send exactly one of two things is true: the push preceded the
    /// recovery — the replay delivered the message and the stamp check
    /// in [`FabShared::send`] refuses the now-duplicate direct send — or
    /// it followed it, in which case the replay never saw the message
    /// and the fresh sender's stamp matches the observed generation.
    /// A handle whose send failed (or was refused) re-reads the
    /// generation under `inner`: if it moved, another handle already
    /// recovered and replayed the backlog, so it must NOT recover again.
    generation: u64,
    /// Producers whose handles have finished (their rings are closed).
    /// A respawn closes these producers' fresh rings immediately so the
    /// new worker's rotation skips them exactly like the old one did.
    pub(super) finished: Vec<bool>,
    /// The live worker incarnation's progress lease (watchdog state),
    /// replaced wholesale on every respawn.
    lease: Arc<WorkerLease>,
    /// Abandoned (wedged) incarnations, joined at finish/drop once they
    /// observe their retired lease (see [`reap_zombies`]).
    pub(super) zombies: Vec<WorkerHandle>,
    /// Defensive stash for a worker that exited *cleanly* while being
    /// reaped — not expected (a worker only exits when its rings close),
    /// but its state must not be silently dropped if it happens.
    pub(super) early_exit: Option<(Vec<ClosedGroup>, EngineStats)>,
}

/// One producer's sender slot on one shard: the ring sender, stamped with
/// the [`FabInner::generation`] it was installed under.
type SenderSlot = Mutex<Option<(u64, RingSender<Msg>)>>;

/// One shard of the plane: the per-producer replay backlogs, the
/// checkpoint slot shared across worker incarnations, and one sender slot
/// per producer.
pub(super) struct FabShard {
    /// Per-producer backlog rows of messages since the last checkpoint.
    /// Each row is FIFO in that producer's (strictly increasing) seq;
    /// rows are merged by seq for replay. One mutex for all rows — pushes
    /// and trims are brief, and a single lock keeps trim atomic. The
    /// worker — not the sender — trims covered entries right after each
    /// checkpoint it publishes, recycling their buffers off the send path.
    pub(super) backlogs: Mutex<Vec<VecDeque<Msg>>>,
    /// The worker's checkpoint slot (shared across its incarnations).
    pub(super) slot: Arc<CheckpointSlot>,
    /// Per-producer sender slots. Outside [`FabShard::inner`]: a sender
    /// blocked on a full ring holds only its own slot's lock, so recovery
    /// (under `inner`) can proceed — the blocked send fails as soon as
    /// the dead worker's receiver drops, releasing the slot for the
    /// recoverer to install a fresh sender into.
    pub(super) senders: Vec<SenderSlot>,
    pub(super) inner: Mutex<FabInner>,
    /// Checked (cheaply) by every handle before sending; set under
    /// `inner` when the restart budget is exhausted.
    pub(super) degraded: AtomicBool,
    /// Added to every seq this shard sees. Zero except on a store the
    /// classic single dispatcher wrote, whose shards had independent seq
    /// counters: there it is the shard's committed `hi`, so the WAL stays
    /// contiguous across the upgrade. Such stores only open at `P = 1`.
    pub(super) seq_base: u64,
}

/// Everything the `P` ingress handles and `N` shard workers share.
///
/// ## The producer-seq determinism rule
///
/// Every sealed epoch ships exactly one [`Msg`] to **every** shard
/// (possibly empty, always carrying the producer's watermark), and epochs
/// must be dealt to producers in strict round-robin order starting at
/// producer 0. Producer `p`'s `k`-th epoch then has the per-shard
/// sequence number `k·P + p + 1` (plus the shard's
/// [`seq_base`](FabShard::seq_base)): the per-shard message stream is
/// *globally* ordered — `seq ≡ producer (mod P)`, consecutive seqs are
/// consecutive epochs — and each worker drains its rings in fixed
/// rotation, applying messages in exactly this seq order. Dealing a
/// stream round-robin in chunks across the handles therefore reproduces
/// the original per-shard apply order bit for bit, and one number
/// subsumes the `(producer, seq)` pair everywhere downstream: backlog
/// trim, checkpoint coverage, WAL contiguity and crash recovery all key
/// on it.
pub(super) struct FabShared {
    pub(super) cfg: EngineConfig,
    pub(super) shards: Vec<FabShard>,
    pub(super) telemetry: Arc<EngineTelemetry>,
    /// The armed fault of `cfg.fault`, shared with every worker
    /// incarnation.
    pub(super) fault: Option<Arc<FaultState>>,
    /// The per-worker query (selection stripped — the handle has already
    /// applied it), also used to rebuild worker engines from checkpoints.
    pub(super) worker_query: Query,
    /// Per-producer batch pools (pool sharding): handles never contend on
    /// a shared free list, and total pooled capacity scales with
    /// `producers × shards`.
    pub(super) pools: Vec<BatchPool<Packet>>,
    /// Handle end-of-run stats, one slot per producer, written by
    /// [`IngressHandle::close`] and folded by [`ShardedEngine::finish`].
    pub(super) stats_out: Mutex<Vec<Option<EngineStats>>>,
}

impl FabShared {
    /// Whether messages to `shard` are retained for replay.
    fn retaining(&self, shard: usize) -> bool {
        self.cfg.supervising() && !self.shards[shard].slot.unsupported()
    }

    /// The producer that sealed `seq` on `shard` (the determinism rule).
    pub(super) fn producer_of(&self, shard: usize, seq: u64) -> usize {
        let k = seq.saturating_sub(self.shards[shard].seq_base + 1);
        (k % self.cfg.producers as u64) as usize
    }

    /// Ships one epoch message from producer `p` to `shard`, retaining it
    /// in the backlog and running the recovery protocol if the send finds
    /// the worker dead. Safe for concurrent callers.
    pub(super) fn send(
        self: &Arc<Self>,
        shard: usize,
        p: usize,
        msg: Msg,
    ) -> Result<(), fd_core::Error> {
        let sh = &self.shards[shard];
        if sh.degraded.load(Relaxed) {
            self.telemetry
                .dropped_degraded
                .fetch_add(msg.pkts.len() as u64, Relaxed);
            return Ok(());
        }
        // Observe the generation and push into the backlog as one atomic
        // step with respect to recovery, which holds `inner` across its
        // whole reap + backlog replay + fresh-sender install + generation
        // bump. Either the push lands before the recovery — its replay
        // delivers the message, and the stamp check below refuses the
        // now-duplicate direct send — or after it, in which case the
        // replay never saw the message and the fresh sender's stamp
        // matches. Splitting the two (push, then read) would let a
        // recovery slip in between and both replay the message AND leave
        // a fresh sender the direct send succeeds against: duplicate
        // delivery.
        let gen = {
            let inner = sh.inner.lock().unwrap_or_else(PoisonError::into_inner);
            if self.retaining(shard) {
                sh.backlogs.lock().unwrap_or_else(PoisonError::into_inner)[p]
                    .push_back(msg.clone());
            }
            inner.generation
        };
        // Queue depth is a genuinely two-writer gauge (incremented here,
        // decremented by the worker), so it is a per-message RMW —
        // unconditional, to keep both sides consistent however the
        // enabled flag is toggled.
        let tel = &self.telemetry.shards()[shard];
        tel.batches_sent.fetch_add(1, Relaxed);
        tel.queue_depth.fetch_add(1, Relaxed);
        self.telemetry.producers()[p].ring_depth[shard].fetch_add(1, Relaxed);
        enum Attempt {
            Sent,
            Dead,
            Full,
        }
        let overload = &self.cfg.overload;
        let mut pending = Some(msg);
        let sent = loop {
            let attempt = {
                let slot = sh.senders[p].lock().unwrap_or_else(PoisonError::into_inner);
                match slot.as_ref() {
                    // A sender from another generation was installed by a
                    // recovery whose replay already delivered the message
                    // pushed above — refuse it rather than send a duplicate.
                    Some((stamp, tx)) if *stamp == gen => {
                        let msg = pending.take().expect("message pending");
                        match tx.send_deadline(msg, overload.send_deadline) {
                            Ok(()) => Attempt::Sent,
                            Err(SendError::Closed(_)) => Attempt::Dead,
                            Err(SendError::Full(m)) => {
                                pending = Some(m);
                                Attempt::Full
                            }
                        }
                    }
                    _ => Attempt::Dead,
                }
            };
            match attempt {
                Attempt::Sent => break true,
                Attempt::Dead => break false,
                Attempt::Full => {
                    // Ring still full after a whole deadline. Releasing the
                    // slot lock between attempts is what lets a wedge
                    // recovery install a fresh sender: a wedged (not dead)
                    // worker never drops its receiver, so a send that held
                    // the lock while blocking would deadlock the recovery.
                    let mut inner = sh.inner.lock().unwrap_or_else(PoisonError::into_inner);
                    if inner.generation != gen {
                        // Another handle recovered the shard meanwhile; its
                        // replay (which ran after our backlog push above)
                        // delivered the message.
                        break true;
                    }
                    if self.retaining(shard) && inner.lease.is_stale(overload.lease) {
                        eprintln!(
                            "fd-shard-{shard}: worker wedged (no heartbeat for {:?}); respawning",
                            inner.lease.stale_for()
                        );
                        self.recover_wedged_locked(shard, &mut inner);
                        // The recovery's replay delivered (or its degrade
                        // counted) the message pushed to the backlog above.
                        break true;
                    }
                    // A slow — not wedged — worker. `Block` and `Subsample`
                    // keep waiting, one deadline at a time; `DropOldest`
                    // first relieves it of its stalest queued payload.
                    if overload.policy == ShedPolicy::DropOldest {
                        self.hollow_oldest_locked(shard, p);
                    }
                }
            }
        };
        if sent {
            return Ok(());
        }
        // A send fails (or is refused) only if the worker died at some
        // point — i.e. it panicked.
        if !self.cfg.supervising() {
            return Err(fd_core::Error::WorkerLost { shard });
        }
        let mut inner = sh.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.generation == gen {
            // First handle to notice: run the recovery. The message is in
            // the backlog, so the respawn's replay delivers it.
            self.recover_locked(shard, &mut inner);
        }
        // Otherwise another handle recovered (or degraded) the shard
        // while we were trying; its replay ran after our backlog push, so
        // the message is already delivered or counted — never resend.
        Ok(())
    }

    /// `ShedPolicy::DropOldest`: drops the payload of the oldest epoch
    /// still queued on producer `p`'s ring to `shard`, in place, under the
    /// ring lock — and of its backlog copy, so a later replay reproduces
    /// the hollow epoch. Seq and watermark stay, which keeps every shard's
    /// seq stream dense; the worker passes the hollow epoch in no time,
    /// which is what relieves the ring. Under forward decay the oldest
    /// queued tuples are the ones whose weights `g(t_i − L)` are smallest,
    /// so this loses the least decayed mass per tuple shed. Caller holds
    /// the shard's `inner`, so no recovery can replay the backlog between
    /// the two edits.
    fn hollow_oldest_locked(&self, shard: usize, p: usize) {
        let sh = &self.shards[shard];
        let hollowed = sh.senders[p]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .and_then(|(_, tx)| {
                tx.edit_queued(|m| {
                    if m.pkts.is_empty() {
                        return None;
                    }
                    m.scales = None;
                    Some((m.seq, std::mem::take(&mut m.pkts)))
                })
            });
        let Some((seq, pkts)) = hollowed else { return };
        if let Some(m) = sh.backlogs.lock().unwrap_or_else(PoisonError::into_inner)[p]
            .iter_mut()
            .find(|m| m.seq == seq)
        {
            m.pkts = Arc::default();
            m.scales = None;
        }
        let shed = pkts.len() as u64;
        self.telemetry.shed_tuples.fetch_add(shed, Relaxed);
        self.telemetry.shed_batches.fetch_add(1, Relaxed);
        self.telemetry.shards()[shard]
            .shed_tuples
            .fetch_add(shed, Relaxed);
        self.telemetry.producers()[p]
            .shed_tuples
            .fetch_add(shed, Relaxed);
        self.recycle(p, pkts);
    }

    /// Reaps the dead worker and restarts it from its checkpoint with
    /// exponential backoff, degrading the shard when the budget is
    /// exhausted. Caller holds `inner`. Always bumps the generation —
    /// up front, so the senders [`respawn_locked`](Self::respawn_locked)
    /// installs carry the generation this recovery publishes.
    pub(super) fn recover_locked(self: &Arc<Self>, shard: usize, inner: &mut FabInner) {
        inner.generation += 1;
        self.reap_locked(shard, inner);
        self.restart_or_degrade_locked(shard, inner);
    }

    /// Retires an unresponsive — but alive — worker incarnation. Safe Rust
    /// cannot kill a thread, so its lease goes sticky-dead and the thread
    /// is parked in [`FabInner::zombies`]; if it ever unwedges it observes
    /// the retired lease and exits without side effects. Caller holds
    /// `inner`; the generation bump makes every in-flight send against the
    /// old rings refuse or re-route exactly as for a crash recovery.
    pub(super) fn retire_worker_locked(inner: &mut FabInner) {
        inner.generation += 1;
        inner.lease.retire();
        if let Some(handle) = inner.worker.take() {
            if handle.is_finished() {
                // Its result is deliberately discarded: the successor (or
                // the checkpoint salvage) accounts for the same tuples.
                let _ = handle.join();
            } else {
                inner.zombies.push(handle);
            }
        }
    }

    /// Wedge recovery: abandons the wedged worker and restarts the shard
    /// through the same bounded-budget path as a crashed one.
    fn recover_wedged_locked(self: &Arc<Self>, shard: usize, inner: &mut FabInner) {
        Self::retire_worker_locked(inner);
        self.telemetry.wedged_respawns.fetch_add(1, Relaxed);
        self.restart_or_degrade_locked(shard, inner);
    }

    /// The bounded-restart tail shared by crash and wedge recovery:
    /// respawn from the checkpoint with exponential backoff, degrading the
    /// shard when the budget is exhausted. Caller holds `inner` and has
    /// already bumped the generation and disposed of the old worker.
    fn restart_or_degrade_locked(self: &Arc<Self>, shard: usize, inner: &mut FabInner) {
        let sh = &self.shards[shard];
        let mut restored = false;
        if !sh.slot.unsupported() {
            while inner.restarts < self.cfg.max_restarts {
                let attempt = inner.restarts;
                inner.restarts += 1;
                self.telemetry.restarts.fetch_add(1, Relaxed);
                std::thread::sleep(backoff(attempt));
                if self.respawn_locked(shard, inner) {
                    restored = true;
                    break;
                }
                // The replay killed the fresh worker (a permanent fault):
                // reap it and spend another restart.
                self.reap_locked(shard, inner);
            }
        }
        if !restored {
            self.degrade_locked(shard, inner);
        }
    }

    /// Depth of producer `p`'s ring to `shard` (0 when the sender is
    /// gone). A seal-time lag probe, racy by nature — the worker drains
    /// concurrently — but monotone enough for a shed decision.
    pub(super) fn ring_len(&self, shard: usize, p: usize) -> usize {
        self.shards[shard].senders[p]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map_or(0, |(_, tx)| tx.len())
    }

    /// Joins a dead worker's thread, recording its panic.
    fn reap_locked(&self, shard: usize, inner: &mut FabInner) {
        if let Some(handle) = inner.worker.take() {
            match handle.join() {
                Ok(state) => inner.early_exit = Some(state),
                Err(payload) => {
                    self.telemetry.worker_panics.fetch_add(1, Relaxed);
                    eprintln!(
                        "fd-shard-{shard}: worker panicked: {}",
                        panic_message(&payload)
                    );
                }
            }
        }
    }

    /// Brings up a worker incarnation for `shard`: restores an engine from
    /// the snapshot in the shard's checkpoint slot (a fresh one when the
    /// slot is empty) — the slot's closed groups stay where they are: the
    /// snapshot no longer holds them, and the replay closes only buckets
    /// that were still open in it — spawns the worker on fresh rings,
    /// replays the backlog tail in seq order, and installs the fresh
    /// senders (closing finished producers' rings). The initial spawn, a crash respawn and a durable resume are
    /// all this one call — they differ only in what the slot and backlog
    /// hold. Caller holds `inner`; other handles' sends fail against the
    /// old rings and park on `inner` until the new generation is
    /// published. Returns `false` if the restore fails or the worker dies
    /// mid-replay.
    fn respawn_locked(self: &Arc<Self>, shard: usize, inner: &mut FabInner) -> bool {
        let sh = &self.shards[shard];
        let tel = &self.telemetry.shards()[shard];
        let restored = sh.slot.read(|v| {
            tel.closed_groups_held.store(v.closed.len() as u64, Relaxed);
            (v.seq, Engine::restore(self.worker_query.clone(), v.blob))
        });
        let (ckpt_seq, engine) = match restored {
            Some((seq, Ok(e))) => (seq, e),
            Some((_, Err(err))) => {
                // "Can't happen" (we wrote these bytes); surface it
                // rather than looping on a poisoned slot.
                eprintln!("fd-shard-{shard}: checkpoint restore failed: {err:?}");
                return false;
            }
            None => {
                let mut e = Engine::new(self.worker_query.clone());
                e.keep_closed_state();
                (0, e)
            }
        };
        let p_count = self.cfg.producers;
        // The uncheckpointed tail: the per-producer backlog rows merged by
        // seq (each row is already FIFO).
        let mut replay: Vec<Msg> = {
            let rows = sh.backlogs.lock().unwrap_or_else(PoisonError::into_inner);
            rows.iter()
                .flat_map(|row| row.iter().filter(|m| m.seq > ckpt_seq).cloned())
                .collect()
        };
        replay.sort_by_key(|m| m.seq);
        // With parallel handles the tail can have a gap: a producer stalled
        // between sealing an epoch and logging it here. The worker's
        // rotation cannot pass the gap until that producer's send runs —
        // which waits for `inner`, held across this whole call — so what
        // lies beyond the gap must fit in the rings without the worker
        // draining them, or the refill below would wait forever.
        let dense = replay
            .iter()
            .zip(ckpt_seq.max(sh.seq_base) + 1..)
            .take_while(|(m, next)| m.seq == *next)
            .count();
        let mut beyond_gap = vec![0usize; p_count];
        for m in &replay[dense..] {
            beyond_gap[self.producer_of(shard, m.seq)] += 1;
        }
        let (txs, rxs): (Vec<_>, Vec<_>) = beyond_gap
            .iter()
            .map(|&n| ring::<Msg>(FABRIC_RING_DEPTH.max(n)))
            .unzip();
        // A fresh incarnation gets a fresh lease: the old one stays
        // retired forever (any zombie still holding it keeps seeing
        // `retired() == true`), and the watchdog clock restarts from now.
        inner.lease = Arc::new(WorkerLease::default());
        inner.worker = Some(spawn_worker(
            shard,
            engine,
            rxs,
            Arc::clone(self),
            ckpt_seq,
            Arc::clone(&inner.lease),
        ));
        // The old rings died with un-decremented messages in them; the
        // gauges restart from the replay.
        tel.queue_depth.store(0, Relaxed);
        for p in 0..p_count {
            self.telemetry.producers()[p].ring_depth[shard].store(0, Relaxed);
        }
        // Refill in seq order — the exact order the worker's rotation
        // drains, so up to the first gap a bounded ring can never deadlock
        // the refill, and past it the rings were sized to hold the rest.
        // A full ring is re-tried one send deadline at a time rather than
        // slept on: a parked sender is woken only at half-drain, and a
        // worker stopped at the gap may never drain that far.
        for msg in replay {
            let p = self.producer_of(shard, msg.seq);
            if !msg.pkts.is_empty() {
                self.telemetry.replayed_batches.fetch_add(1, Relaxed);
                self.telemetry
                    .replayed_tuples
                    .fetch_add(msg.pkts.len() as u64, Relaxed);
            }
            tel.queue_depth.fetch_add(1, Relaxed);
            self.telemetry.producers()[p].ring_depth[shard].fetch_add(1, Relaxed);
            let mut pending = msg;
            loop {
                match txs[p].send_deadline(pending, self.cfg.overload.send_deadline) {
                    Ok(()) => break,
                    Err(SendError::Full(m)) => pending = m,
                    Err(SendError::Closed(_)) => return false,
                }
            }
        }
        // Only now are the fresh rings reachable by other handles,
        // stamped with the current generation. A finished producer can
        // never close its ring again, so close it here on its behalf.
        for (p, tx) in txs.into_iter().enumerate() {
            let mut slot = sh.senders[p].lock().unwrap_or_else(PoisonError::into_inner);
            *slot = if inner.finished[p] {
                None
            } else {
                Some((inner.generation, tx))
            };
        }
        true
    }

    /// Gives up on a shard: closes its rings, drains its backlogs
    /// (counting the tuples as degraded drops), and marks it so later
    /// epochs are counted instead of sent. Its last checkpoint — snapshot
    /// and closed groups — is still salvaged at [`ShardedEngine::finish`].
    /// Caller holds `inner`.
    pub(super) fn degrade_locked(&self, shard: usize, inner: &mut FabInner) {
        let sh = &self.shards[shard];
        sh.degraded.store(true, Relaxed);
        self.telemetry.degraded_shards.fetch_add(1, Relaxed);
        for slot in &sh.senders {
            *slot.lock().unwrap_or_else(PoisonError::into_inner) = None;
        }
        self.reap_locked(shard, inner);
        let rows: Vec<VecDeque<Msg>> = {
            let mut rows = sh.backlogs.lock().unwrap_or_else(PoisonError::into_inner);
            rows.iter_mut().map(std::mem::take).collect()
        };
        let mut dropped = 0u64;
        for (p, row) in rows.into_iter().enumerate() {
            for msg in row {
                dropped += msg.pkts.len() as u64;
                self.recycle(p, msg.pkts);
            }
            self.telemetry.producers()[p].ring_depth[shard].store(0, Relaxed);
        }
        self.telemetry.dropped_degraded.fetch_add(dropped, Relaxed);
        self.telemetry.shards()[shard].queue_depth.store(0, Relaxed);
    }
}

impl FabShared {
    /// Bounds each producer's batch-buffer free list to its share of the
    /// working set — per shard, a full ring plus one staging buffer plus
    /// (supervised) one checkpoint window of backlog — and faults that
    /// working set in now, off the ingest path. Backlogged batches are
    /// alive until their trim, so a bound below the window would drop
    /// every trimmed buffer and force a cold allocation (and a page fault
    /// per 4 KB of batch) per epoch. The prewarm is capped so pathological
    /// checkpoint intervals cannot turn spawn into a 100 MB memset.
    fn size_pools(&self) {
        let batch = self.cfg.batch_size;
        let window = match self.cfg.checkpoint_every {
            0 => 0,
            every => ((every / batch as u64) + 2).min(512) as usize,
        };
        let bound = self.cfg.n_shards * (FABRIC_RING_DEPTH + 1 + window);
        let blank = Packet {
            ts: 0,
            src_ip: 0,
            dst_ip: 0,
            src_port: 0,
            dst_port: 0,
            len: 0,
            proto: Proto::Tcp,
        };
        for pool in &self.pools {
            pool.set_max_pooled(bound);
            pool.prewarm(bound.min(256), batch, blank);
        }
    }

    /// Drops one reference to a batch, returning the buffer to producer
    /// `p`'s pool when it was the last (bare epoch markers own none).
    pub(super) fn recycle(&self, p: usize, pkts: Arc<Vec<Packet>>) {
        if pkts.capacity() > 0 {
            if let Ok(buf) = Arc::try_unwrap(pkts) {
                self.pools[p].put(buf);
            }
        }
    }
}

/// What [`spawn_plane`] hands the engine.
pub(super) struct Plane {
    pub(super) fab: Arc<FabShared>,
    pub(super) handles: Vec<IngressHandle>,
    /// Present exactly when the configuration names a store.
    pub(super) store: Option<(DurableSink, RecoveryReport)>,
}

/// Builds the ingress plane a configuration describes: telemetry, pools,
/// one worker per shard, one handle per producer, and — when the
/// configuration names a store — the durable resume: workers are restored
/// from the on-disk checkpoints, the WAL tail is replayed through the
/// normal message path, and every handle gets back the admission state of
/// the newest honorable commit.
pub(super) fn spawn_plane(query: &Query, cfg: &EngineConfig) -> Result<Plane, fd_core::Error> {
    cfg.validate(query)?;
    let (n, producers) = (cfg.n_shards, cfg.producers);
    let fault = cfg.fault.map(|plan| Arc::new(FaultState::new(plan)));
    let mut recovered = match &cfg.store {
        Some((dir, opts)) => {
            // An armed disk fault fires inside the durability layer.
            let io: Arc<dyn IoBackend> = match fault.as_deref().map(|f| f.plan.kind) {
                Some(FaultKind::Disk(d)) => Arc::new(FaultyFs::new(Arc::clone(&opts.io), d)),
                _ => Arc::clone(&opts.io),
            };
            Some((recover(&io, dir, n)?, io))
        }
        None => None,
    };
    // What the store's commit says about the producers. A store the
    // classic single dispatcher wrote has no producer blocks: its scalar
    // fields are the one producer's state, and its per-shard `hi` — the
    // classic shards counted independently — become the seq bases.
    let resumed = recovered
        .as_ref()
        .filter(|(r, _)| r.resumed)
        .map(|(r, _)| &r.commit);
    let blocks: Vec<ProducerCommit> = match resumed {
        None => Vec::new(),
        Some(c) if c.producers.is_empty() && producers == 1 => vec![ProducerCommit {
            watermark: c.watermark,
            closed_below: c.closed_below,
            rr: c.rr,
            epochs: 0,
            tuples_in: c.tuples_in,
            filtered: c.filtered,
            late_drops: c.late_drops,
        }],
        Some(c) if c.producers.len() != producers => {
            return Err(fd_core::Error::Durability {
                detail: format!(
                    "store was written with {} producers, engine configured with \
                     {producers}; the epoch interleaving is producer-count-specific",
                    c.producers.len()
                ),
            });
        }
        Some(c) => c.producers.clone(),
    };
    let epochs_dealt: u64 = blocks.iter().map(|b| b.epochs).sum();
    let seq_bases = (0..n)
        .map(|shard| {
            let hi = resumed.map_or(0, |c| c.hi[shard]);
            hi.checked_sub(epochs_dealt)
                .ok_or_else(|| fd_core::Error::Durability {
                    detail: format!(
                        "shard {shard}: commit covers seq {hi} but its producers sealed \
                         {epochs_dealt} epochs"
                    ),
                })
        })
        .collect::<Result<Vec<u64>, _>>()?;
    let telemetry = Arc::new(EngineTelemetry::with_producers(n, producers));
    telemetry.set_enabled(cfg.live);
    // The handles have already applied the selection; don't pay for it
    // again on the worker.
    let mut worker_query = query.clone();
    worker_query.filter = None;
    let mut shards = Vec::with_capacity(n);
    for (shard, &seq_base) in seq_bases.iter().enumerate() {
        // What the store holds for the shard goes into its slot exactly as
        // if the worker had published it moments ago: the persisted
        // snapshot (moved — nothing else reads it) and the closed groups
        // persisted beside it.
        let persisted = recovered
            .as_mut()
            .and_then(|(rec, _)| Some((rec.ckpts[shard].take()?, &rec.closed[shard])));
        let slot = match persisted {
            Some(((seq, blob), deltas)) => {
                let mut closed = Vec::new();
                for (i, section) in deltas.iter().enumerate() {
                    let mut r = fd_core::checkpoint::Reader::new(section);
                    let groups = crate::engine::read_closed_groups(&mut r, &worker_query)
                        .ok()
                        .filter(|_| r.is_empty())
                        .ok_or_else(|| fd_core::Error::Durability {
                            detail: format!(
                                "shard {shard}: closed-delta {} does not decode under this query",
                                i + 1
                            ),
                        })?;
                    closed.extend(groups);
                }
                CheckpointSlot::resumed(seq, blob, closed)
            }
            None => CheckpointSlot::default(),
        };
        shards.push(FabShard {
            backlogs: Mutex::new((0..producers).map(|_| VecDeque::new()).collect()),
            slot: Arc::new(slot),
            senders: (0..producers).map(|_| Mutex::new(None)).collect(),
            inner: Mutex::new(FabInner {
                worker: None,
                restarts: 0,
                generation: 0,
                finished: vec![false; producers],
                lease: Arc::new(WorkerLease::default()),
                zombies: Vec::new(),
                early_exit: None,
            }),
            degraded: AtomicBool::new(false),
            seq_base,
        });
    }
    let fab = Arc::new(FabShared {
        cfg: cfg.clone(),
        shards,
        telemetry,
        fault,
        worker_query,
        pools: (0..producers).map(|_| BatchPool::new(0)).collect(),
        stats_out: Mutex::new(vec![None; producers]),
    });
    fab.size_pools();
    // Preload the WAL tail, exactly as if the handles had sent it moments
    // ago: the spawn below then restores each worker from its slot and
    // feeds it everything past the snapshot through the normal path.
    let mut replayed_batches = 0u64;
    let mut replayed_tuples = 0u64;
    if let Some((rec, _)) = &recovered {
        for (shard, sh) in fab.shards.iter().enumerate() {
            let mut rows = sh.backlogs.lock().unwrap_or_else(PoisonError::into_inner);
            for r in &rec.replay[shard] {
                // A classic store's punctuation record is an empty epoch.
                let (seq, wm, pkts) = match r {
                    ReplayMsg::Batch { seq, wm, pkts } => (*seq, *wm, pkts.clone()),
                    ReplayMsg::Punct { seq, wm } => (*seq, *wm, Vec::new()),
                };
                if !pkts.is_empty() {
                    replayed_batches += 1;
                    replayed_tuples += pkts.len() as u64;
                }
                rows[fab.producer_of(shard, seq)].push_back(Msg {
                    seq,
                    pkts: Arc::new(pkts),
                    scales: None,
                    wm,
                    sent: Instant::now(),
                });
            }
        }
    }
    for (shard, sh) in fab.shards.iter().enumerate() {
        let mut inner = sh.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if !fab.respawn_locked(shard, &mut inner) {
            return Err(fd_core::Error::Durability {
                detail: format!("shard {shard} worker died replaying the WAL tail"),
            });
        }
    }
    let mut handles: Vec<IngressHandle> = (0..producers)
        .map(|p| IngressHandle::new(p, query.clone(), &fab))
        .collect();
    for (h, block) in handles.iter_mut().zip(&blocks) {
        h.resume(block);
    }
    let store = match (&cfg.store, recovered) {
        (Some((dir, opts)), Some((rec, io))) => {
            fab.telemetry
                .wal_records_truncated
                .store(rec.truncated, Relaxed);
            fab.telemetry
                .recovery_replayed_batches
                .store(replayed_batches, Relaxed);
            let report = RecoveryReport {
                position: rec.commit.position,
                watermark: rec.commit.watermark,
                replayed_batches,
                replayed_tuples,
                truncated_records: rec.truncated,
                resumed: rec.resumed,
            };
            // The writer recycles each batch buffer back to the pool of
            // the producer that sealed it, so every producer's bounded
            // pool keeps its hit rate.
            let sink = DurableSink::spawn(
                dir,
                &io,
                opts.fsync,
                opts.segment_bytes,
                &rec,
                fab.shards.iter().map(|s| Arc::clone(&s.slot)).collect(),
                Arc::clone(&fab.telemetry),
                fab.pools.clone(),
            )?;
            Some((sink, report))
        }
        _ => None,
    };
    Ok(Plane {
        fab,
        handles,
        store,
    })
}

/// Joins retired (zombie) worker incarnations, giving each a short grace
/// period to notice its retired lease and exit. A thread still running
/// after the grace period is detached by dropping its handle — safe Rust
/// cannot kill it, and blocking shutdown on a genuinely wedged thread
/// would turn a shed into a hang. Join results are discarded: a retired
/// incarnation's state is stale by construction (its unapplied messages
/// were replayed to its successor).
pub(super) fn reap_zombies(zombies: &mut Vec<WorkerHandle>) {
    for handle in zombies.drain(..) {
        let give_up = Instant::now() + Duration::from_millis(250);
        while !handle.is_finished() && Instant::now() < give_up {
            std::thread::sleep(Duration::from_millis(1));
        }
        if handle.is_finished() {
            let _ = handle.join();
        }
    }
}

/// Best-effort extraction of a panic payload's message (panics carry
/// `&'static str` or `String` in practice).
pub(super) fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::*;
    use super::*;

    #[test]
    fn transient_worker_death_recovers_exactly() {
        // Kill shard 0 mid-stream; the supervisor restores it from its
        // checkpoint, replays the per-producer backlog tail, and the rows
        // come out identical to an unfaulted run — with the recovery
        // visible in telemetry.
        let stream: Vec<Packet> = (0..30_000)
            .map(|i| pkt(0.01 * i as f64, (i % 53) as u32))
            .collect();
        let clean = Engine::new(count_query()).run(stream.clone());
        for producers in [1usize, 2] {
            let mut e = sharded(count_query(), 2)
                .try_batch_size(128)
                .expect("batch")
                .checkpoint_every(1_000)
                .inject_fault(plan("panic:0:5000"))
                .try_producers(producers)
                .expect("producers");
            let rows = e.run(stream.clone());
            assert_rows_eq(&clean, &rows, &format!("P={producers}"));
            let snap = e.telemetry().snapshot();
            assert_eq!(snap.restarts, 1, "one respawn");
            assert_eq!(snap.worker_panics, 1, "the injected death was reaped");
            assert!(snap.replayed_batches > 0, "the backlog tail was replayed");
            assert!(snap.checkpoints > 0);
            assert_eq!(snap.degraded_shards, 0);
            assert_eq!(snap.dropped_degraded, 0);
        }
    }

    #[test]
    fn poisoned_shard_degrades_after_bounded_restarts() {
        // A permanent fault exhausts the restart budget; the shard
        // degrades, its checkpoint is salvaged, and the engine still
        // produces rows for the healthy shards.
        let stream: Vec<Packet> = (0..20_000)
            .map(|i| pkt(0.01 * i as f64, (i % 53) as u32))
            .collect();
        let mut e = sharded(count_query(), 2)
            .try_batch_size(128)
            .expect("batch")
            .checkpoint_every(1_000)
            .max_restarts(2)
            .inject_fault(plan("poison:1:4000"));
        let rows = e.run(stream);
        assert!(!rows.is_empty(), "healthy shard still emits");
        let snap = e.telemetry().snapshot();
        assert_eq!(snap.restarts, 2, "budget spent exactly");
        assert_eq!(snap.degraded_shards, 1);
        assert!(
            snap.dropped_degraded > 0,
            "post-degradation tuples are counted dropped"
        );
        assert_eq!(snap.worker_panics, 3, "initial death + 2 failed respawns");
    }

    #[test]
    fn unsupervised_dead_worker_is_a_hard_error() {
        // checkpoint_every(0): no replay, so a dead worker is reported.
        let stream: Vec<Packet> = (0..4_000)
            .map(|i| pkt(0.01 * i as f64, (i % 7) as u32))
            .collect();
        let mut e = sharded(count_query(), 1)
            .try_batch_size(64)
            .expect("batch")
            .checkpoint_every(0)
            .inject_fault(plan("panic:0:100"));
        let lost = stream.iter().find_map(|p| e.try_process(p).err());
        assert!(
            matches!(lost, Some(fd_core::Error::WorkerLost { shard: 0 })),
            "expected WorkerLost, got {lost:?}"
        );
    }

    #[test]
    fn drop_oldest_hollows_queued_epochs_and_completes_under_slow_shard() {
        // One shard, deliberately slow worker (10 ms per batch), 2 ms send
        // deadline: the ring fills, and DropOldest must hollow the oldest
        // queued epochs instead of stalling ingress — visibly, in
        // telemetry, and without ever breaking the shard's seq stream
        // (the worker's seq debug_assert is armed in this build).
        let stream: Vec<Packet> = (0..1_280)
            .map(|i| pkt(0.001 * i as f64, (i % 5) as u32))
            .collect();
        let cfg = OverloadConfig {
            policy: ShedPolicy::DropOldest,
            send_deadline: Duration::from_millis(2),
            ..OverloadConfig::default()
        };
        let started = Instant::now();
        let mut e = sharded(count_query(), 1)
            .try_batch_size(16)
            .expect("batch")
            .try_overload(cfg)
            .expect("overload config")
            .inject_fault(plan("slow:0:10"));
        let rows = e.run(stream.clone());
        assert!(!rows.is_empty(), "shedding must not lose whole buckets");
        let snap = e.telemetry().snapshot();
        assert!(snap.shed_batches > 0, "ring pressure must shed epochs");
        assert!(
            snap.shed_tuples >= snap.shed_batches,
            "hollowed epochs carried tuples"
        );
        // What was not shed was applied: nothing is lost uncounted.
        let applied: f64 = rows.iter().filter_map(|r| r.value.as_float()).sum();
        assert_eq!(applied as u64 + snap.shed_tuples, stream.len() as u64);
        assert_eq!(snap.wedged_respawns, 0, "slow is not wedged");
        assert_eq!(snap.degraded_shards, 0);
        // 80 batches at 10 ms each would take 800 ms fully blocked; the
        // sheds must buy a visibly bounded ingress stall.
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "DropOldest must bound the run"
        );
    }

    #[test]
    fn watchdog_respawns_wedged_worker_losslessly() {
        // The worker wedges (spins, no crash) at tuple 64. Supervision's
        // panic path never fires; only the watchdog can see it: ring full
        // past the deadline + stale lease. The respawned incarnation
        // replays the backlog, so the result is bit-identical to a clean
        // run under the lossless Block policy.
        let stream: Vec<Packet> = (0..4_000)
            .map(|i| pkt(0.002 * i as f64, (i % 11) as u32))
            .collect();
        let clean = Engine::new(count_query()).run(stream.clone());
        let cfg = OverloadConfig {
            send_deadline: Duration::from_millis(5),
            lease: Duration::from_millis(50),
            ..OverloadConfig::default()
        };
        let mut e = sharded(count_query(), 1)
            .try_batch_size(16)
            .expect("batch")
            .try_overload(cfg)
            .expect("overload config")
            .inject_fault(plan("wedge:0:64"));
        let rows = e.run(stream);
        assert_rows_eq(&clean, &rows, "after the wedge");
        let snap = e.telemetry().snapshot();
        assert_eq!(snap.wedged_respawns, 1, "exactly one wedge detected");
        assert_eq!(snap.restarts, 1, "respawn spends a restart");
        assert_eq!(snap.worker_panics, 0, "a wedge is not a panic");
        assert_eq!(snap.degraded_shards, 0);
        assert_eq!(snap.shed_tuples, 0, "Block never sheds");
    }
}
