//! What the handles and workers of one plane share, and the one
//! send / recover / respawn / degrade protocol over it — including the
//! durable resume, which is a respawn whose checkpoint slot and queues
//! were preloaded from a store.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use super::ingress::IngressHandle;
use super::worker::{spawn_worker, WorkerHandle};
use super::{EngineConfig, Msg, FABRIC_RING_DEPTH};
use crate::durability::{recover, DurableSink, RecoveryReport, ReplayMsg};
use crate::engine::{Engine, EngineStats};
use crate::fault::{FaultKind, FaultState};
use crate::groups::{groups, Run};
use crate::io::{FaultyFs, IoBackend};
use crate::overload::ShedPolicy;
use crate::spsc::{ring, BatchPool, RingSender, SendError};
use crate::supervisor::{backoff, checkpoint_interval, CheckpointSlot, WorkerLease};
use crate::telemetry::EngineTelemetry;
use crate::tuple::{Packet, Proto};
use crate::udaf::Query;

/// Recovery state of one shard, behind its own mutex so a recovering
/// handle never blocks senders of *other* shards — nor, since a send
/// takes only its queue's lock, the other senders of this one.
pub(super) struct FabInner {
    pub(super) worker: Option<WorkerHandle>,
    /// Restarts consumed so far, cumulative for the run.
    restarts: u32,
    /// The live worker incarnation's progress lease (watchdog state),
    /// replaced wholesale on every respawn.
    lease: Arc<WorkerLease>,
    /// Abandoned (wedged) incarnations, joined at finish/drop once they
    /// observe their retired lease (see [`reap_zombies`]).
    pub(super) zombies: Vec<WorkerHandle>,
    /// What the worker returned when it was reaped:
    /// [`super::ShardedEngine::finish`] takes it. (A worker only returns
    /// when its queues close, so a mid-stream reap is not expected to leave
    /// anything here — but must not silently drop it if it happens.)
    pub(super) exited: Option<(Vec<Box<dyn Run>>, EngineStats)>,
}

/// One shard of the plane: one queue per producer and the checkpoint
/// slot, both shared across the shard's worker incarnations.
pub(super) struct FabShard {
    /// Producer `p`'s queue to this shard's worker, for the plane's
    /// lifetime: supervised, it retains what the worker has read since its
    /// last checkpoint, which is all a respawn needs besides the slot.
    pub(super) queues: Vec<RingSender<Msg>>,
    /// The worker's checkpoint slot (shared across its incarnations).
    pub(super) slot: Arc<CheckpointSlot>,
    pub(super) inner: Mutex<FabInner>,
    /// Checked (cheaply) by every handle before sending; set under
    /// `inner` when the restart budget is exhausted.
    pub(super) degraded: AtomicBool,
}

/// Everything the `P` ingress handles and `N` shard workers share.
///
/// ## The producer-seq determinism rule
///
/// Every sealed epoch ships exactly one [`Msg`] to **every** shard
/// (possibly empty, always carrying the producer's watermark), and epochs
/// must be dealt to producers in strict round-robin order starting at
/// producer 0. Producer `p`'s `k`-th epoch then has the per-shard
/// sequence number `k·P + p + 1`: the per-shard message stream is
/// *globally* ordered — `seq ≡ producer (mod P)`, consecutive seqs are
/// consecutive epochs — and each worker drains its queues in fixed
/// rotation, applying messages in exactly this seq order. Dealing a
/// stream round-robin in chunks across the handles therefore reproduces
/// the original per-shard apply order bit for bit, and one number
/// subsumes the `(producer, seq)` pair everywhere downstream: queue
/// release, checkpoint coverage, WAL contiguity and crash recovery all key
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
    /// [`IngressHandle::close`] and folded by [`super::ShardedEngine::finish`].
    pub(super) stats_out: Mutex<Vec<Option<EngineStats>>>,
}

impl FabShared {
    /// The producer that sealed `seq` (the determinism rule).
    pub(super) fn producer_of(&self, seq: u64) -> usize {
        (seq.saturating_sub(1) % self.cfg.producers as u64) as usize
    }

    /// The two gauges that count producer `p`'s messages to `shard` from
    /// their send until the worker is done with them. Every change is an
    /// add or a subtract paired with one queue transition, so the writers
    /// — handles, workers, recoveries — need no order among themselves.
    fn depth(&self, shard: usize, p: usize) -> [&AtomicU64; 2] {
        [
            &self.telemetry.shards()[shard].queue_depth,
            &self.telemetry.producers()[p].ring_depth[shard],
        ]
    }

    /// Takes the message a worker incarnation is leaving — or is being
    /// abandoned on — out of the depth gauges, unless the other party
    /// already has (see [`WorkerLease::settle`]).
    pub(super) fn settle(&self, shard: usize, lease: &WorkerLease) {
        if let Some(p) = lease.settle() {
            for gauge in self.depth(shard, p) {
                gauge.fetch_sub(1, Relaxed);
            }
        }
    }

    /// Ships one epoch message from producer `p` to `shard`: one queue
    /// lock on the way through. Only a send that finds the worker dead, or
    /// the queue full for a whole deadline, takes `inner` — to recover the
    /// shard, or learn that another handle has — and then tries the same
    /// queue again: a message is enqueued once, by its sender, whatever
    /// happens to the worker. Safe for concurrent callers.
    pub(super) fn send(
        self: &Arc<Self>,
        shard: usize,
        p: usize,
        msg: Msg,
    ) -> Result<(), fd_core::Error> {
        let sh = &self.shards[shard];
        let drop_degraded = |msg: Msg| {
            self.telemetry
                .dropped_degraded
                .fetch_add(msg.pkts.len() as u64, Relaxed);
            Ok(())
        };
        if sh.degraded.load(Relaxed) {
            return drop_degraded(msg);
        }
        // Queue depth is a genuinely two-writer gauge (incremented here,
        // decremented by the worker), so it is a per-message RMW —
        // unconditional, to keep both sides consistent however the
        // enabled flag is toggled — and it precedes the push, so the
        // worker's decrement can never run first.
        self.telemetry.shards()[shard]
            .batches_sent
            .fetch_add(1, Relaxed);
        for gauge in self.depth(shard, p) {
            gauge.fetch_add(1, Relaxed);
        }
        let overload = &self.cfg.overload;
        let mut pending = msg;
        loop {
            let dead;
            (pending, dead) = match sh.queues[p].send_deadline(pending, overload.send_deadline) {
                Ok(()) => return Ok(()),
                Err(SendError::Closed(msg)) => (msg, true),
                Err(SendError::Full(msg)) => (msg, false),
            };
            // A queue loses its reader only when the worker died — i.e.
            // it panicked. This message never entered the queue.
            if dead && !self.cfg.supervising() {
                for gauge in self.depth(shard, p) {
                    gauge.fetch_sub(1, Relaxed);
                }
                return Err(fd_core::Error::WorkerLost { shard });
            }
            let mut inner = sh.inner.lock().unwrap_or_else(PoisonError::into_inner);
            if sh.degraded.load(Relaxed) {
                // Given up meanwhile — by the recovery below, a pass ago,
                // or by another handle's. This message never entered the
                // queue whose contents the degradation counted.
                for gauge in self.depth(shard, p) {
                    gauge.fetch_sub(1, Relaxed);
                }
                return drop_degraded(pending);
            }
            if dead {
                // Recoveries run under `inner` and end with a reader
                // attached: a queue still without one means this handle is
                // the first to notice.
                if !sh.queues[p].reader_alive() {
                    self.recover_locked(shard, &mut inner, false);
                }
            } else if self.cfg.supervising() && inner.lease.is_stale(overload.lease) {
                eprintln!(
                    "fd-shard-{shard}: worker wedged (no heartbeat for {:?}); respawning",
                    inner.lease.stale_for()
                );
                self.recover_locked(shard, &mut inner, true);
            } else if overload.policy == ShedPolicy::DropOldest {
                // A slow — not wedged — worker. `Block` and `Subsample`
                // keep waiting, one deadline at a time; `DropOldest`
                // first relieves it of its stalest queued payload.
                self.hollow_oldest(shard, p);
            }
        }
    }

    /// `ShedPolicy::DropOldest`: drops the payload of the oldest epoch
    /// still unread on producer `p`'s queue to `shard`, in place, under
    /// the queue lock. Seq and watermark stay, which keeps every shard's
    /// seq stream dense — and a successor that re-reads the entry after a
    /// crash meets the same hollow epoch; the worker passes it in no time,
    /// which is what relieves the queue. Under forward decay the oldest
    /// queued tuples are the ones whose weights `g(t_i − L)` are smallest,
    /// so this loses the least decayed mass per tuple shed.
    fn hollow_oldest(&self, shard: usize, p: usize) {
        let hollowed = self.shards[shard].queues[p].edit_queued(|m| {
            if m.pkts.is_empty() {
                return None;
            }
            m.scales = None;
            Some(std::mem::take(&mut m.pkts))
        });
        let Some(pkts) = hollowed else { return };
        self.count_shed(shard, Some(p), pkts.len() as u64);
        self.telemetry.shed_batches.fetch_add(1, Relaxed);
        self.recycle(p, pkts);
    }

    /// Counts `n` tuples shed on their way to `shard` in every scope that
    /// lost them — the engine, the shard and, when the shed happened before
    /// the send (a worker's refusal has no producer), the `producer` — so
    /// the engine-wide figure is the sum over the shards.
    pub(super) fn count_shed(&self, shard: usize, producer: Option<usize>, n: u64) {
        let t = &self.telemetry;
        t.shed_tuples.fetch_add(n, Relaxed);
        t.shards()[shard].shed_tuples.fetch_add(n, Relaxed);
        if let Some(p) = producer {
            t.producers()[p].shed_tuples.fetch_add(n, Relaxed);
        }
    }

    /// The one recovery, whoever found the worker gone: disposes of the
    /// incarnation — joins a dead one, recording its panic, or retires a
    /// `wedged` one — then respawns from the checkpoint after an
    /// exponential backoff, or degrades the shard when the restart budget
    /// is exhausted (a worker that dies again on what it re-reads — a
    /// permanent fault — comes back here through the next send). Caller
    /// holds `inner`.
    pub(super) fn recover_locked(
        self: &Arc<Self>,
        shard: usize,
        inner: &mut FabInner,
        wedged: bool,
    ) {
        if wedged {
            self.retire_worker_locked(shard, inner);
            self.telemetry.wedged_respawns.fetch_add(1, Relaxed);
        } else {
            self.reap_locked(shard, inner);
        }
        let attempt = inner.restarts;
        let restored = attempt < self.cfg.max_restarts && {
            inner.restarts += 1;
            self.telemetry.restarts.fetch_add(1, Relaxed);
            std::thread::sleep(backoff(attempt));
            self.respawn_locked(shard, inner)
                .inspect_err(|err| eprintln!("fd-shard-{shard}: not respawned: {err}"))
                .is_ok()
        };
        if !restored {
            self.degrade_locked(shard);
        }
    }

    /// Retires an unresponsive — but alive — worker incarnation. Safe Rust
    /// cannot kill a thread, so its lease goes sticky-dead and the thread
    /// is parked in [`FabInner::zombies`]; its queue receivers go inert
    /// when the caller attaches a successor's (or abandons the queues), so
    /// if it ever unwedges it reads nothing more, observes the retired
    /// lease and exits without side effects. Caller holds `inner`.
    pub(super) fn retire_worker_locked(&self, shard: usize, inner: &mut FabInner) {
        inner.lease.retire();
        self.settle(shard, &inner.lease);
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

    /// Joins the worker's thread — the one place that does: a panic is
    /// counted and logged, the state of a worker that returned is left in
    /// [`FabInner::exited`]. Caller holds `inner`.
    pub(super) fn reap_locked(&self, shard: usize, inner: &mut FabInner) {
        if let Some(handle) = inner.worker.take() {
            match handle.join() {
                Ok(state) => inner.exited = Some(state),
                Err(payload) => {
                    self.telemetry.worker_panics.fetch_add(1, Relaxed);
                    let what = payload
                        .downcast_ref::<&'static str>()
                        .copied()
                        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                        .unwrap_or("<non-string panic payload>");
                    eprintln!("fd-shard-{shard}: worker panicked: {what}");
                }
            }
        }
    }

    /// Brings up a worker incarnation for `shard`: restores an engine from
    /// the snapshot in the shard's checkpoint slot (a fresh one when the
    /// slot is empty) — the slot's closed runs stay where they are: the
    /// snapshot no longer holds them, and re-reading closes only buckets
    /// that were still open in it — and spawns the worker on fresh readers
    /// attached to every queue at the first entry past the slot's seq.
    /// The initial spawn, a crash respawn, a watchdog respawn and a durable
    /// resume are all this one call — they differ only in what the slot
    /// and the queues hold. Nothing is sent and nobody waits: a producer
    /// stalled mid-seal leaves the new worker waiting on its queue, as the
    /// old one was. Caller holds `inner`. Fails — leaving the shard without
    /// a worker, for the caller to degrade or report — if the snapshot
    /// does not restore or the OS refuses the thread.
    fn respawn_locked(
        self: &Arc<Self>,
        shard: usize,
        inner: &mut FabInner,
    ) -> Result<(), fd_core::Error> {
        let sh = &self.shards[shard];
        let tel = &self.telemetry.shards()[shard];
        let every = self.cfg.checkpoint_every;
        let restored = sh.slot.read(|v| {
            tel.closed_groups_held
                .store(groups(v.closed) as u64, Relaxed);
            // The first interval follows the snapshot the worker starts from.
            let interval = checkpoint_interval(every, v.blob.len() as u64);
            let engine = Engine::restore(self.worker_query.clone(), v.blob);
            (v.seq, interval, engine)
        });
        let (ckpt_seq, interval, engine) = match restored {
            Some((seq, interval, Ok(e))) => (seq, interval, e),
            Some((_, _, Err(err))) => {
                // "Can't happen" for bytes a worker wrote; a store can
                // hold a snapshot of another query's geometry.
                return Err(fd_core::Error::Durability {
                    detail: format!(
                        "shard {shard}: checkpoint does not restore under this query: {err:?}"
                    ),
                });
            }
            None => {
                let mut e = Engine::new(self.worker_query.clone());
                e.keep_closed_state();
                (0, every, e)
            }
        };
        tel.checkpoint_interval_tuples.store(interval, Relaxed);
        // A fresh incarnation gets a fresh lease: the old one stays
        // retired forever (any zombie still holding it keeps seeing
        // `retired() == true`), and the watchdog clock restarts from now.
        inner.lease = Arc::new(WorkerLease::default());
        let mut replayed = (0u64, 0u64);
        let rxs = (sh.queues.iter().enumerate())
            .map(|(p, queue)| {
                let mut reread = 0;
                let rx = queue.attach(
                    |m| m.seq <= ckpt_seq,
                    |m, was_read| {
                        reread += u64::from(was_read);
                        if !m.pkts.is_empty() {
                            replayed.0 += 1;
                            replayed.1 += m.pkts.len() as u64;
                        }
                    },
                );
                // What the predecessor had read — and counted out of the
                // depth gauges — is queued again.
                for gauge in self.depth(shard, p) {
                    gauge.fetch_add(reread, Relaxed);
                }
                rx
            })
            .collect();
        self.telemetry
            .replayed_batches
            .fetch_add(replayed.0, Relaxed);
        self.telemetry
            .replayed_tuples
            .fetch_add(replayed.1, Relaxed);
        let (fab, lease) = (Arc::clone(self), Arc::clone(&inner.lease));
        let worker = spawn_worker(shard, engine, rxs, fab, ckpt_seq, interval, lease);
        inner.worker = Some(worker.map_err(|err| {
            eprintln!("fd-shard-{shard}: worker thread did not start: {err}");
            fd_core::Error::WorkerLost { shard }
        })?);
        Ok(())
    }

    /// Gives up on a shard: marks it so later epochs are counted instead
    /// of sent, and retires its queues' readers for good — a last
    /// incarnation, attached at the front and dropped at once, leaves
    /// in-flight sends failing and a zombie's receivers inert — counting
    /// what the queues held, read or not, as degraded drops. Its last
    /// checkpoint — snapshot and closed runs — is still salvaged at
    /// [`super::ShardedEngine::finish`]. Caller holds `inner` and has
    /// disposed of the worker.
    pub(super) fn degrade_locked(&self, shard: usize) {
        let sh = &self.shards[shard];
        sh.degraded.store(true, Relaxed);
        self.telemetry.degraded_shards.fetch_add(1, Relaxed);
        let mut dropped = 0u64;
        for (p, queue) in sh.queues.iter().enumerate() {
            let mut unread = 0;
            drop(queue.attach(
                |_| false,
                |m, was_read| {
                    unread += u64::from(!was_read);
                    dropped += m.pkts.len() as u64;
                },
            ));
            for gauge in self.depth(shard, p) {
                gauge.fetch_sub(unread, Relaxed);
            }
        }
        self.telemetry.dropped_degraded.fetch_add(dropped, Relaxed);
    }
}

impl FabShared {
    /// Ends the plane: closes every queue — those of handles still out
    /// there too — and joins every worker, so no thread outlives it.
    pub(super) fn shut_down(&self) {
        for (shard, sh) in self.shards.iter().enumerate() {
            for queue in &sh.queues {
                queue.close();
            }
            let mut inner = sh.inner.lock().unwrap_or_else(PoisonError::into_inner);
            self.reap_locked(shard, &mut inner);
            reap_zombies(&mut inner.zombies);
        }
    }

    /// Bounds each producer's batch-buffer free list to its share of the
    /// working set — per shard, a full queue plus one staging buffer plus
    /// (supervised) one checkpoint window of retained entries — and faults
    /// that working set in now, off the ingest path. Retained batches are
    /// alive until their release, so a bound below the window would drop
    /// every released buffer and force a cold allocation (and a page fault
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
    let cfg = cfg.validate(query)?;
    let (n, producers) = (cfg.n_shards, cfg.producers);
    let fault = cfg.fault.map(|plan| Arc::new(FaultState::new(plan)));
    let mut recovered = match &cfg.store {
        Some((dir, opts)) => {
            // An armed disk fault fires inside the durability layer.
            let io: Arc<dyn IoBackend> = match fault.as_deref().map(|f| f.plan.kind) {
                Some(FaultKind::Disk(d)) => Arc::new(FaultyFs::new(Arc::clone(&opts.io), d)),
                _ => Arc::clone(&opts.io),
            };
            Some((recover(io.as_ref(), dir, n, producers)?, io))
        }
        None => None,
    };
    let telemetry = Arc::new(EngineTelemetry::with_producers(n, producers));
    telemetry.set_enabled(cfg.live);
    // The handles have already applied the selection; don't pay for it
    // again on the worker.
    let mut worker_query = query.clone();
    worker_query.filter = None;
    let mut shards = Vec::with_capacity(n);
    for shard in 0..n {
        // What the store holds for the shard goes into its slot exactly as
        // if the worker had published it moments ago: the persisted
        // snapshot (moved — nothing else reads it) and the closed runs
        // persisted beside it.
        let persisted = recovered
            .as_mut()
            .and_then(|(rec, _)| Some((rec.ckpts[shard].take()?, &rec.closed[shard])));
        let slot = match persisted {
            Some(((seq, blob), deltas)) => {
                let store = worker_query.aggregate.group_store(&worker_query);
                let mut closed = Vec::new();
                for (i, section) in deltas.iter().enumerate() {
                    let mut r = fd_core::checkpoint::Reader::new(section);
                    let runs = (store.read_closed(&mut r).ok())
                        .filter(|_| r.is_empty())
                        .ok_or_else(|| fd_core::Error::Durability {
                            detail: format!(
                                "shard {shard}: closed-delta {} does not decode under this query",
                                i + 1
                            ),
                        })?;
                    closed.extend(runs);
                }
                CheckpointSlot::resumed(seq, blob, closed)
            }
            None => CheckpointSlot::default(),
        };
        shards.push(FabShard {
            // No reader yet: the spawn below attaches the first.
            queues: (0..producers)
                .map(|_| ring::<Msg>(FABRIC_RING_DEPTH).0)
                .collect(),
            slot: Arc::new(slot),
            inner: Mutex::new(FabInner {
                worker: None,
                restarts: 0,
                lease: Arc::new(WorkerLease::default()),
                zombies: Vec::new(),
                exited: None,
            }),
            degraded: AtomicBool::new(false),
        });
    }
    let fab = Arc::new(FabShared {
        cfg,
        shards,
        telemetry,
        fault,
        worker_query,
        pools: (0..producers).map(|_| BatchPool::new(0)).collect(),
        stats_out: Mutex::new(vec![None; producers]),
    });
    fab.size_pools();
    // Preload the WAL tail, exactly as if the handles had sent it moments
    // ago — however long it is: the spawn below then restores each worker
    // from its slot and attaches it past the snapshot.
    if let Some((rec, _)) = &mut recovered {
        for (shard, tail) in std::mem::take(&mut rec.replay).into_iter().enumerate() {
            let sh = &fab.shards[shard];
            for ReplayMsg { seq, wm, pkts } in tail {
                let p = fab.producer_of(seq);
                for gauge in fab.depth(shard, p) {
                    gauge.fetch_add(1, Relaxed);
                }
                sh.queues[p].preload(Msg {
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
        let spawned = {
            let mut inner = sh.inner.lock().unwrap_or_else(PoisonError::into_inner);
            fab.respawn_locked(shard, &mut inner)
        };
        // The workers already up must not outlive a plane nobody gets
        // (shutting down takes every shard's `inner`, this one's too).
        spawned.inspect_err(|_| fab.shut_down())?;
    }
    let mut handles: Vec<IngressHandle> = (0..producers)
        .map(|p| IngressHandle::new(p, query, &fab))
        .collect();
    let store = match (&fab.cfg.store, recovered) {
        (Some(store), Some((rec, io))) => {
            // The commit's producer blocks, one per handle (none in the
            // baseline of a store that never committed).
            for (h, block) in handles.iter_mut().zip(&rec.commit.producers) {
                h.resume(block);
            }
            fab.telemetry
                .wal_records_truncated
                .store(rec.truncated, Relaxed);
            // What the first incarnations found in their queues is the WAL
            // tail, all of it past the persisted checkpoints.
            let replayed_batches = fab.telemetry.replayed_batches.load(Relaxed);
            fab.telemetry
                .recovery_replayed_batches
                .store(replayed_batches, Relaxed);
            let report = RecoveryReport {
                position: rec.commit.position,
                watermark: rec.commit.watermark(),
                replayed_batches,
                replayed_tuples: fab.telemetry.replayed_tuples.load(Relaxed),
                truncated_records: rec.truncated,
                resumed: rec.resumed,
            };
            // The writer recycles each batch buffer back to the pool of
            // the producer that sealed it, so every producer's bounded
            // pool keeps its hit rate.
            let sink = DurableSink::spawn(
                store,
                io,
                rec.resume,
                fab.shards.iter().map(|s| Arc::clone(&s.slot)).collect(),
                Arc::clone(&fab.telemetry),
                fab.pools.clone(),
                fab.cfg.batch_size,
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
/// incarnation's state is stale by construction (its successor re-read
/// its unapplied messages).
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
        // The refused message never entered the queue, so the depth
        // gauges count exactly what is queued and unread.
        let unread = e.fab.shards[0].queues[0].len() as u64;
        let tel = e.telemetry();
        assert_eq!(tel.shards()[0].queue_depth.load(Relaxed), unread);
        assert_eq!(tel.producers()[0].ring_depth[0].load(Relaxed), unread);
    }

    #[test]
    fn a_worker_that_cannot_be_spawned_is_an_error_not_a_panic() {
        use super::super::worker::REFUSE_SPAWNS;
        // Respawns run on the sending thread — this one — under the shard's
        // `inner` lock. The OS refusing the thread there must cost the
        // shard, not the process: it degrades, counted, the stream
        // finishes and the healthy shard still answers.
        let stream: Vec<Packet> = (0..20_000)
            .map(|i| pkt(0.01 * i as f64, (i % 53) as u32))
            .collect();
        let mut e = sharded(count_query(), 2)
            .try_batch_size(128)
            .expect("batch")
            .checkpoint_every(1_000)
            .inject_fault(plan("panic:1:4000"));
        REFUSE_SPAWNS.set(true);
        let rows = e.run(stream);
        // At start-up there is no shard to degrade: the caller is told.
        let refused = ShardedEngine::try_new(count_query(), 2).err();
        REFUSE_SPAWNS.set(false);
        assert!(!rows.is_empty(), "healthy shard still emits");
        let snap = e.telemetry().snapshot();
        assert_eq!(snap.worker_panics, 1, "the injected death was reaped");
        assert_eq!(snap.restarts, 1, "the failed respawn spent a restart");
        assert_eq!(snap.degraded_shards, 1);
        assert!(
            snap.dropped_degraded > 0,
            "post-degradation tuples are counted dropped"
        );
        for shard in &snap.shards {
            assert_eq!(shard.queue_depth, 0, "nothing is left queued");
        }
        assert!(
            matches!(refused, Some(fd_core::Error::WorkerLost { shard: 0 })),
            "expected WorkerLost, got {refused:?}"
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
        // ...and every scope that lost a tuple counted it.
        let by_shard: u64 = snap.shards.iter().map(|s| s.shed_tuples).sum();
        let by_producer: u64 = snap.producers.iter().map(|p| p.shed_tuples).sum();
        assert_eq!(by_shard, snap.shed_tuples);
        assert_eq!(by_producer, snap.shed_tuples);
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

    #[test]
    fn depth_gauges_return_to_zero_across_every_kind_of_recovery() {
        // A crash respawn re-queues what the dead worker had read, a wedge
        // respawn leaves a zombie holding a message, a degradation drops
        // what the queues hold: whatever happened, once the run is over
        // nothing is queued and the gauges must say so.
        let stream: Vec<Packet> = (0..20_000)
            .map(|i| pkt(0.002 * i as f64, (i % 53) as u32))
            .collect();
        let watchdog = OverloadConfig {
            send_deadline: Duration::from_millis(5),
            lease: Duration::from_millis(50),
            ..OverloadConfig::default()
        };
        for (fault, producers) in [
            ("panic:0:5000", 1),
            ("panic:1:3000", 2),
            ("wedge:0:640", 1),
            ("poison:1:4000", 2),
        ] {
            let mut e = sharded(count_query(), 2)
                .try_batch_size(16)
                .expect("batch")
                .checkpoint_every(1_000)
                .max_restarts(2)
                .try_overload(watchdog.clone())
                .expect("overload config")
                .inject_fault(plan(fault))
                .try_producers(producers)
                .expect("producers");
            e.run(stream.clone());
            let snap = e.telemetry().snapshot();
            assert!(snap.restarts > 0, "{fault}: the fault fired");
            for (s, shard) in snap.shards.iter().enumerate() {
                assert_eq!(shard.queue_depth, 0, "{fault}: shard {s}");
            }
            for (p, prod) in snap.producers.iter().enumerate() {
                assert!(
                    prod.ring_depth.iter().all(|&d| d == 0),
                    "{fault}: producer {p} ring depths {:?}",
                    prod.ring_depth
                );
            }
        }
    }
}
