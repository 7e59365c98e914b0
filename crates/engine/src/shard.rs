//! Sharded parallel execution: one query, N worker threads.
//!
//! Forward decay makes stream summaries *mergeable* — the numerator
//! `g(t_i − L)` of every weight is frozen at arrival, so two partial
//! summaries over disjoint substreams with the same landmark combine into
//! the summary of their union (Section VI-B of the paper: "distributed
//! computation … each site maintains a summary of its local stream").
//! [`ShardedEngine`] exploits exactly that: it hash-partitions the tuple
//! stream across `n_shards` worker threads, each running a full
//! single-threaded [`Engine`] (its own LFTA + HFTA) over its substream,
//! and combines the per-shard closed buckets with
//! [`Aggregator::merge_boxed`] at the end.
//!
//! ## The ingress plane
//!
//! There is one: `P` [`IngressHandle`]s (default 1), each owning a full
//! admit-route-stage loop, feed every shard worker through a dedicated
//! per-(producer, shard) SPSC ring. A handle replicates the
//! single-threaded engine's admission logic — selection, the late-tuple
//! check against closed buckets, the watermark advance — before a tuple is
//! routed, so a tuple is accepted or dropped exactly when the
//! single-threaded engine would accept or drop it. Staged tuples ship as
//! *epochs*: one sequence-numbered message to **every** shard (possibly
//! empty), carrying the handle's watermark — a watermark broadcast is an
//! empty epoch. The engine itself drives the handles in *coordinator
//! mode* (the feed methods below); [`ShardedEngine::take_ingress_handles`]
//! detaches them for genuinely parallel feeding.
//!
//! Workers run in *state mode* ([`Engine::keep_closed_state`]): a closed
//! bucket yields raw [`ClosedGroup`] aggregation state rather than
//! emitted rows. [`ShardedEngine::finish`] folds all shards' groups into
//! one `BTreeMap` keyed by `(bucket, key)` — merging states that met the
//! same group on different shards — and only then evaluates each group at
//! its bucket end, producing rows in the same (bucket, key) order as the
//! single-threaded engine.
//!
//! ## Routing
//!
//! [`ShardBy::Key`] (the default) sends every tuple of a group to the
//! same shard, so group states never split and results are *identical*
//! to the single-threaded engine for every aggregator — this is the mode
//! the equivalence tests pin down. [`ShardBy::RoundRobin`] spreads each
//! group across all shards and relies on the merge path; it matches the
//! single-threaded engine exactly for the exactly-mergeable aggregates
//! (counts, sums — Theorem 1 state is a pair of scalars that add), and
//! within approximation bounds for the sketch/sampler summaries.
//!
//! ## Supervision and recovery
//!
//! Each worker periodically serializes its whole engine into a shared
//! [`CheckpointSlot`] ([`Engine::checkpoint`] — forward decay's frozen
//! numerators make the snapshot plain data, exact to the bit). The
//! sending handle retains the short tail of messages since the last
//! checkpoint. When a send fails (the worker panicked), the supervisor
//! respawns the worker from the checkpoint with exponential backoff and
//! replays the tail, after which the run continues **byte-identically**:
//! the restored LFTA slots sit in their exact old positions, so every
//! future fold/evict/flush — and every floating-point combination order —
//! is unchanged. A shard that exhausts its restart budget (a poison-pill
//! input, say) is *degraded*: later tuples routed to it are counted
//! dropped, and its last checkpoint is still salvaged into the final
//! result at [`ShardedEngine::finish`]. Every recovery action is
//! observable in [`EngineTelemetry`]: `restarts`, `checkpoints`,
//! `replayed_batches` / `replayed_tuples`, `degraded_shards`,
//! `dropped_degraded`.
//!
//! Supervision is on by default
//! ([`DEFAULT_CHECKPOINT_EVERY`](crate::supervisor::DEFAULT_CHECKPOINT_EVERY)
//! tuples between checkpoints); [`ShardedEngine::checkpoint_every`] tunes
//! the interval, and `0` disables the whole layer — no checkpoints, no
//! backlog, and a dead worker is a hard error
//! ([`fd_core::Error::WorkerLost`]). Queries whose aggregators cannot
//! serialize (the samplers) flag their slot unsupported on the first
//! attempt and degrade on death instead of replaying.
//!
//! ## Configuration
//!
//! Every builder-style setter writes one private [`EngineConfig`] and
//! rebuilds the plane from it (the workers have seen nothing yet, so
//! retiring them is free). Setters therefore work in any order, and an
//! invalid *combination* is an error from whichever call completes it.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::durability::{
    recover, CommitState, DurabilityOptions, DurableSink, ProducerCommit, RecoveryReport, ReplayMsg,
};
use crate::engine::{ClosedGroup, Engine, EngineStats, Row, StreamEvent};
use crate::fault::{FaultKind, FaultPlan, FaultState};
use crate::io::{FaultyFs, IoBackend};
use crate::overload::{DrainReport, OverloadConfig, ScaleColumn, ShedPolicy, Subsampler};
use crate::spsc::{ring, BatchPool, RingReceiver, RingSender, SendError};
use crate::supervisor::{
    backoff, CheckpointSlot, WorkerLease, DEFAULT_CHECKPOINT_EVERY, DEFAULT_MAX_RESTARTS,
};
use crate::telemetry::EngineTelemetry;
use crate::tuple::{secs, Micros, Packet, Proto};
use crate::udaf::{Aggregator, Query};

/// How an ingress handle assigns accepted tuples to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardBy {
    /// Hash of the group key: each group lives wholly on one shard, so
    /// sharded results are identical to the single-threaded engine for
    /// every aggregator.
    #[default]
    Key,
    /// Strict rotation: each group's state splits across all shards and
    /// is re-assembled by merging — the paper's distributed-computation
    /// scenario. Exact for additively-mergeable aggregates (count/sum),
    /// approximate within summary guarantees otherwise.
    RoundRobin,
}

/// One epoch's message from an ingress handle to a shard worker,
/// sequence-numbered per shard (1-based; a [`CheckpointSlot`] stores the
/// seq it covers, `0` meaning "none yet"). The packets travel behind an
/// `Arc` so the supervision backlog retains them without copying; in
/// unsupervised mode the worker holds the only reference and recycles the
/// buffer. `pkts` may be empty — every shard sees every seq, and a bare
/// watermark broadcast is exactly that.
#[derive(Clone)]
struct Msg {
    seq: u64,
    pkts: Arc<Vec<Packet>>,
    /// Horvitz–Thompson scale column from subsample shedding, pairing
    /// each packet with its 1/p reweighting factor (`None` = all ones,
    /// the only value outside `ShedPolicy::Subsample`).
    scales: ScaleColumn,
    /// The sending handle's admission watermark as of this epoch.
    wm: Micros,
    /// Send instant, for the worker's dispatch-to-apply latency.
    sent: Instant,
}

/// Default tuples staged for one shard before its handle seals an epoch;
/// override with [`ShardedEngine::try_batch_size`] (CLI: `--batch`).
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// Per-(producer, shard) ring depth. Each shard worker drains its `P`
/// rings in strict rotation, so a producer can only ever run this many
/// epochs ahead of the slowest producer — deep enough to absorb
/// scheduling jitter and a worker's checkpoint pause, shallow enough to
/// bound the memory pinned by `P × N` rings.
pub const FABRIC_RING_DEPTH: usize = 8;

/// Applies one batch to the shard engine, firing any armed panic fault at
/// its exact tuple position. The position is the engine's cumulative
/// accepted-tuple count (`tuples_in`), which is checkpointed — so "tuple
/// N" names the same logical tuple across restarts and replays, however
/// the stream was batched.
fn apply_batch(
    engine: &mut Engine,
    pkts: &[Packet],
    scales: Option<&[f64]>,
    fault: Option<&FaultState>,
    shard: usize,
) {
    if let Some(sc) = scales {
        debug_assert_eq!(sc.len(), pkts.len(), "scale column out of step");
    }
    let trigger = fault.and_then(|f| match f.plan.kind {
        FaultKind::PanicAtTuple(n) => Some((f, n, true)),
        FaultKind::PoisonedBatch(n) => Some((f, n, false)),
        // Disk faults live in the durability layer's I/O backend; slow and
        // wedge faults fire in the worker loop, before apply.
        FaultKind::SlowShard(_) | FaultKind::WedgeAtTuple(_) | FaultKind::Disk(_) => None,
    });
    match trigger {
        None => match scales {
            None => {
                for p in pkts {
                    engine.process(p);
                }
            }
            Some(sc) => {
                for (p, &s) in pkts.iter().zip(sc) {
                    engine.process_scaled(p, s);
                }
            }
        },
        Some((f, n, transient)) => {
            for (i, p) in pkts.iter().enumerate() {
                if engine.stats().tuples_in + 1 >= n {
                    // A transient fault disarms *before* panicking, so the
                    // respawned worker replays past this point.
                    if transient {
                        f.disarm();
                    }
                    panic!("injected fault: shard {shard} worker dies at tuple {n}");
                }
                match scales {
                    None => engine.process(p),
                    Some(sc) => engine.process_scaled(p, sc[i]),
                }
            }
        }
    }
}

/// A shard worker's join handle: the worker returns its closed groups and
/// end-of-run stats when its rings drain.
type WorkerHandle = JoinHandle<(Vec<ClosedGroup>, EngineStats)>;

/// Maps a group key to a shard: Fibonacci hash (multiply by 2⁶⁴/φ), then
/// multiply-shift fold of the HIGH bits. `h % n` would read the low bits,
/// which stay skewed for power-of-two-strided keys; the high bits are
/// well mixed for dense and strided keys alike (pinned by
/// `key_routing_spreads_within_bound`).
#[inline]
pub(crate) fn route_key(key: u64, n_shards: usize) -> usize {
    let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((u128::from(h) * n_shards as u128) >> 64) as usize
}

/// Everything configurable about a [`ShardedEngine`], in one value. Every
/// public setter writes a field here and calls
/// [`ShardedEngine::rebuild`], which validates the combination and
/// respawns the plane from it.
#[derive(Clone)]
struct EngineConfig {
    n_shards: usize,
    producers: usize,
    routing: ShardBy,
    batch_size: usize,
    /// Tuples between worker checkpoints; `0` disables supervision.
    checkpoint_every: u64,
    /// Per-shard restart budget before degradation.
    max_restarts: u32,
    overload: OverloadConfig,
    fault: Option<FaultPlan>,
    /// Hot-path telemetry mirroring.
    live: bool,
    /// The durable store to open (or resume), if any.
    store: Option<(PathBuf, DurabilityOptions)>,
}

fn invalid(name: &'static str, value: f64, requirement: &'static str) -> fd_core::Error {
    fd_core::Error::InvalidParameter {
        name,
        value,
        requirement,
    }
}

impl EngineConfig {
    fn new(n_shards: usize) -> Self {
        Self {
            n_shards,
            producers: 1,
            routing: ShardBy::Key,
            batch_size: DEFAULT_BATCH_SIZE,
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
            max_restarts: DEFAULT_MAX_RESTARTS,
            overload: OverloadConfig::default(),
            fault: None,
            live: true,
            store: None,
        }
    }

    /// Whether supervision is active: messages are retained for replay
    /// and workers checkpoint.
    fn supervising(&self) -> bool {
        self.checkpoint_every > 0
    }

    /// Checks the combination, whichever setter completed it.
    fn validate(&self, query: &Query) -> Result<(), fd_core::Error> {
        if self.n_shards == 0 {
            return Err(invalid("n_shards", 0.0, "at least one shard"));
        }
        if self.producers == 0 {
            return Err(invalid("producers", 0.0, "at least one ingress producer"));
        }
        if self.batch_size == 0 {
            return Err(invalid("batch_size", 0.0, "at least one tuple per batch"));
        }
        if let ShedPolicy::Subsample { target_rate } = self.overload.policy {
            // Thinned tuples would *bias* a non-linear summary instead of
            // reweighting it.
            if !query.aggregate.make(0).supports_scaled_updates() {
                return Err(invalid(
                    "shed_policy",
                    target_rate,
                    "paired with an aggregate supporting Horvitz-Thompson \
                     scaled updates (decayed count/sum/avg)",
                ));
            }
        }
        if let Some(plan) = &self.fault {
            if plan.shard >= self.n_shards {
                return Err(invalid(
                    "fault shard",
                    plan.shard as f64,
                    "a shard this engine has",
                ));
            }
        }
        if self.store.is_some() {
            if !self.supervising() {
                return Err(invalid(
                    "checkpoint_every",
                    0.0,
                    "durability persists checkpoints; supervision must be on",
                ));
            }
            // A WAL must log what was admitted, not what survived a shed.
            if self.overload.policy.is_lossy() {
                return Err(invalid(
                    "shed_policy",
                    0.0,
                    "durable stores are lossless; \
                     overload shedding must be ShedPolicy::Block",
                ));
            }
        }
        Ok(())
    }
}

/// Recovery state of one shard, behind its own mutex so a recovering
/// handle never blocks senders of *other* shards. The sender slots live
/// OUTSIDE this lock (see [`FabShard::senders`]) because a send can block
/// on a full ring; recovery must be able to run while other handles are
/// parked in `send`.
struct FabInner {
    worker: Option<WorkerHandle>,
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
    finished: Vec<bool>,
    /// The live worker incarnation's progress lease (watchdog state),
    /// replaced wholesale on every respawn.
    lease: Arc<WorkerLease>,
    /// Abandoned (wedged) incarnations, joined at finish/drop once they
    /// observe their retired lease (see [`reap_zombies`]).
    zombies: Vec<WorkerHandle>,
    /// Defensive stash for a worker that exited *cleanly* while being
    /// reaped — not expected (a worker only exits when its rings close),
    /// but its state must not be silently dropped if it happens.
    early_exit: Option<(Vec<ClosedGroup>, EngineStats)>,
}

/// One producer's sender slot on one shard: the ring sender, stamped with
/// the [`FabInner::generation`] it was installed under.
type SenderSlot = Mutex<Option<(u64, RingSender<Msg>)>>;

/// One shard of the plane: the per-producer replay backlogs, the
/// checkpoint slot shared across worker incarnations, and one sender slot
/// per producer.
struct FabShard {
    /// Per-producer backlog rows of messages since the last checkpoint.
    /// Each row is FIFO in that producer's (strictly increasing) seq;
    /// rows are merged by seq for replay. One mutex for all rows — pushes
    /// and trims are brief, and a single lock keeps trim atomic. The
    /// worker — not the sender — trims covered entries right after each
    /// checkpoint it publishes, recycling their buffers off the send path.
    backlogs: Mutex<Vec<VecDeque<Msg>>>,
    /// The worker's checkpoint slot (shared across its incarnations).
    slot: Arc<CheckpointSlot>,
    /// Per-producer sender slots. Outside [`FabShard::inner`]: a sender
    /// blocked on a full ring holds only its own slot's lock, so recovery
    /// (under `inner`) can proceed — the blocked send fails as soon as
    /// the dead worker's receiver drops, releasing the slot for the
    /// recoverer to install a fresh sender into.
    senders: Vec<SenderSlot>,
    inner: Mutex<FabInner>,
    /// Checked (cheaply) by every handle before sending; set under
    /// `inner` when the restart budget is exhausted.
    degraded: AtomicBool,
    /// Added to every seq this shard sees. Zero except on a store the
    /// classic single dispatcher wrote, whose shards had independent seq
    /// counters: there it is the shard's committed `hi`, so the WAL stays
    /// contiguous across the upgrade. Such stores only open at `P = 1`.
    seq_base: u64,
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
struct FabShared {
    cfg: EngineConfig,
    shards: Vec<FabShard>,
    telemetry: Arc<EngineTelemetry>,
    /// The armed fault of `cfg.fault`, shared with every worker
    /// incarnation.
    fault: Option<Arc<FaultState>>,
    /// The per-worker query (selection stripped — the handle has already
    /// applied it), also used to rebuild worker engines from checkpoints.
    worker_query: Query,
    /// Per-producer batch pools (pool sharding): handles never contend on
    /// a shared free list, and total pooled capacity scales with
    /// `producers × shards`.
    pools: Vec<BatchPool<Packet>>,
    /// Handle end-of-run stats, one slot per producer, written by
    /// [`IngressHandle::close`] and folded by [`ShardedEngine::finish`].
    stats_out: Mutex<Vec<Option<EngineStats>>>,
}

impl FabShared {
    /// Whether messages to `shard` are retained for replay.
    fn retaining(&self, shard: usize) -> bool {
        self.cfg.supervising() && !self.shards[shard].slot.unsupported()
    }

    /// The producer that sealed `seq` on `shard` (the determinism rule).
    fn producer_of(&self, shard: usize, seq: u64) -> usize {
        let k = seq.saturating_sub(self.shards[shard].seq_base + 1);
        (k % self.cfg.producers as u64) as usize
    }

    /// Ships one epoch message from producer `p` to `shard`, retaining it
    /// in the backlog and running the recovery protocol if the send finds
    /// the worker dead. Safe for concurrent callers.
    fn send(self: &Arc<Self>, shard: usize, p: usize, msg: Msg) -> Result<(), fd_core::Error> {
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
    fn recover_locked(self: &Arc<Self>, shard: usize, inner: &mut FabInner) {
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
    fn retire_worker_locked(inner: &mut FabInner) {
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
    fn ring_len(&self, shard: usize, p: usize) -> usize {
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
    /// the shard's checkpoint slot (a fresh one when the slot is empty),
    /// spawns the worker on fresh rings, replays the backlog tail in seq
    /// order, and installs the fresh senders (closing finished producers'
    /// rings). The initial spawn, a crash respawn and a durable resume are
    /// all this one call — they differ only in what the slot and backlog
    /// hold. Caller holds `inner`; other handles' sends fail against the
    /// old rings and park on `inner` until the new generation is
    /// published. Returns `false` if the restore fails or the worker dies
    /// mid-replay.
    fn respawn_locked(self: &Arc<Self>, shard: usize, inner: &mut FabInner) -> bool {
        let sh = &self.shards[shard];
        let (ckpt_seq, engine) = match sh.slot.load() {
            Some((seq, bytes)) => match Engine::restore(self.worker_query.clone(), &bytes) {
                Ok(e) => (seq, e),
                Err(err) => {
                    // "Can't happen" (we wrote these bytes); surface it
                    // rather than looping on a poisoned slot.
                    eprintln!("fd-shard-{shard}: checkpoint restore failed: {err:?}");
                    return false;
                }
            },
            None => {
                let mut e = Engine::new(self.worker_query.clone());
                e.keep_closed_state();
                (0, e)
            }
        };
        let p_count = self.cfg.producers;
        let (txs, rxs): (Vec<_>, Vec<_>) =
            (0..p_count).map(|_| ring::<Msg>(FABRIC_RING_DEPTH)).unzip();
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
        let tel = &self.telemetry.shards()[shard];
        tel.queue_depth.store(0, Relaxed);
        for p in 0..p_count {
            self.telemetry.producers()[p].ring_depth[shard].store(0, Relaxed);
        }
        // Replay the uncheckpointed tail: merge the per-producer backlog
        // rows by seq (each row is already FIFO) and push in that order —
        // the exact order the worker's rotation drains, so a bounded ring
        // can never deadlock the refill.
        let mut replay: Vec<Msg> = {
            let rows = sh.backlogs.lock().unwrap_or_else(PoisonError::into_inner);
            rows.iter()
                .flat_map(|row| row.iter().filter(|m| m.seq > ckpt_seq).cloned())
                .collect()
        };
        replay.sort_by_key(|m| m.seq);
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
            if txs[p].send(msg).is_err() {
                return false;
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
    /// epochs are counted instead of sent. Its last checkpoint is still
    /// salvaged at [`ShardedEngine::finish`]. Caller holds `inner`.
    fn degrade_locked(&self, shard: usize, inner: &mut FabInner) {
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

/// Spawns one shard worker: drains its `P` dedicated rings in strict
/// producer rotation (seq order — see the determinism rule on
/// [`FabShared`]), folds each epoch's batch, advances the
/// min-across-producers watermark frontier, and checkpoints at message
/// boundaries. `start_seq` is the last applied seq (the shard's seq base
/// when fresh; the checkpoint's seq on respawn), which determines where
/// the rotation resumes: the producer owning `start_seq + 1`.
fn spawn_worker(
    shard: usize,
    mut engine: Engine,
    rxs: Vec<RingReceiver<Msg>>,
    fab: Arc<FabShared>,
    start_seq: u64,
    lease: Arc<WorkerLease>,
) -> WorkerHandle {
    std::thread::Builder::new()
        .name(format!("fd-shard-{shard}"))
        .spawn(move || {
            let registry = Arc::clone(&fab.telemetry);
            let tel = &registry.shards()[shard];
            let sh = &fab.shards[shard];
            let n_shards = fab.cfg.n_shards;
            let p_count = fab.cfg.producers;
            let every = fab.cfg.checkpoint_every;
            let mut cursor = fab.producer_of(shard, start_seq + 1);
            let mut last_seq = start_seq;
            let mut open = vec![true; p_count];
            // Per-producer watermarks feeding the frontier. A closed
            // producer's entry is raised to MAX so it stops gating the
            // frontier; `Micros::MAX` never wins the min while any
            // producer is live, and an all-closed shard just exits.
            let mut prod_wm: Vec<Micros> = vec![0; p_count];
            let mut frontier_applied: Micros = 0;
            // Tuple-equivalents applied since the last checkpoint. Shard-
            // by-key balances load well enough that without an offset
            // every worker hits its checkpoint threshold in the same
            // instant and all shards stall together — which stalls the
            // senders. Staggering the *first* interval spreads the
            // serialization pauses across the whole window.
            let mut since_ckpt = shard as u64 * every / n_shards as u64;
            // The snapshot buffer displaced from the slot by each store,
            // recycled into the next serialization so steady-state
            // checkpointing stops allocating.
            let mut spare: Vec<u8> = Vec::new();
            while open.iter().any(|&o| o) {
                if !open[cursor] {
                    cursor = (cursor + 1) % p_count;
                    continue;
                }
                let Some(msg) = rxs[cursor].recv() else {
                    // The producer finished (or recovery closed its ring
                    // on its behalf): remove it from the rotation.
                    open[cursor] = false;
                    prod_wm[cursor] = Micros::MAX;
                    cursor = (cursor + 1) % p_count;
                    continue;
                };
                // A retired incarnation (the watchdog abandoned it) must
                // make no further observable moves: its messages have been
                // replayed to the fresh incarnation, whose applies, gauge
                // updates and checkpoint stores are the live ones now.
                if lease.retired() {
                    return (Vec::new(), engine.stats());
                }
                let live = registry.enabled();
                let active_fault = fab
                    .fault
                    .as_deref()
                    .filter(|f| f.plan.shard == shard && f.armed());
                let Msg {
                    seq,
                    pkts,
                    scales,
                    wm,
                    sent,
                } = msg;
                debug_assert!(
                    seq > last_seq,
                    "seq went backwards on shard {shard}: {seq} after {last_seq}"
                );
                last_seq = seq;
                match active_fault.map(|f| f.plan.kind) {
                    // Slow *processing*: an epoch without payload (a bare
                    // watermark, or one `DropOldest` hollowed) has nothing
                    // to be slow on.
                    Some(FaultKind::SlowShard(d)) if !pkts.is_empty() => std::thread::sleep(d),
                    Some(FaultKind::WedgeAtTuple(n))
                        if engine.stats().tuples_in + pkts.len() as u64 >= n =>
                    {
                        // Wedge: stop consuming without crashing, so
                        // supervision's panic path never fires — only the
                        // watchdog can notice. Disarm first (transient),
                        // then spin until the watchdog retires this
                        // incarnation. The triggering batch is NOT
                        // applied; it replays to the fresh incarnation.
                        if let Some(f) = active_fault {
                            f.disarm();
                        }
                        while !lease.retired() {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        return (Vec::new(), engine.stats());
                    }
                    _ => {}
                }
                let sc = scales.as_deref().map(|v| v.as_slice());
                if live {
                    let t0 = Instant::now();
                    apply_batch(&mut engine, &pkts, sc, active_fault, shard);
                    tel.batch_ns.record(t0.elapsed().as_nanos() as u64);
                    tel.dispatch_lag_ns.record(sent.elapsed().as_nanos() as u64);
                    tel.tuples_processed.fetch_add(pkts.len() as u64, Relaxed);
                } else {
                    apply_batch(&mut engine, &pkts, sc, active_fault, shard);
                }
                // Epochs count their batch plus the embedded watermark as
                // tuple-equivalents, so idle shards still checkpoint.
                since_ckpt += pkts.len() as u64 + 1;
                // Sole owner ⇒ unsupervised: hand the drained buffer back
                // for reuse. Under supervision the backlog clone wins and
                // the buffer is reclaimed by the post-checkpoint trim.
                fab.recycle(cursor, pkts);
                // The frontier is the min watermark across ALL producers:
                // a bucket may only close once no producer can still send
                // tuples for it (PAPER.md §VI-B's per-site merge rule).
                if wm > prod_wm[cursor] {
                    prod_wm[cursor] = wm;
                }
                let frontier = prod_wm.iter().copied().min().unwrap_or(0);
                if frontier > frontier_applied && frontier != Micros::MAX {
                    engine.punctuate(frontier);
                    frontier_applied = frontier;
                    if live {
                        tel.applied_watermark.store(frontier, Relaxed);
                        tel.lfta_evictions
                            .store(engine.stats().lfta_evictions, Relaxed);
                        if let Some(occ) = engine.lfta_occupancy() {
                            tel.lfta_occupancy.store(occ as u64, Relaxed);
                        }
                    }
                }
                lease.record_progress(seq);
                // Retired mid-apply (the watchdog just abandoned us): the
                // fresh incarnation owns the checkpoint slot and the
                // gauges from here on, so exit before touching either.
                if lease.retired() {
                    return (Vec::new(), engine.stats());
                }
                // Checkpoint at message boundaries: the snapshot then means
                // exactly "everything up to seq applied", which is what
                // backlog trimming and replay key on. The buffer handed
                // back above happens-before the seq store, so a trimmed
                // batch is never still referenced by the worker.
                if every > 0 && since_ckpt >= every && !sh.slot.unsupported() {
                    let ckpt_start = crate::telemetry::thread_cpu_ns();
                    let mut blob = std::mem::take(&mut spare);
                    match engine.checkpoint_into(&mut blob) {
                        Ok(()) => {
                            spare = sh.slot.store(seq, blob).unwrap_or_default();
                            registry.checkpoints.fetch_add(1, Relaxed);
                            let spent =
                                crate::telemetry::thread_cpu_ns().saturating_sub(ckpt_start);
                            registry.checkpoint_ns.fetch_add(spent, Relaxed);
                            since_ckpt = 0;
                            // Trim every producer's backlog row up to the
                            // covered seq. Running this here — not on the
                            // sender — keeps the reclaim scan, the `Arc`
                            // teardown and the pool pushes off the send
                            // path; buffers are handed back outside the
                            // lock so a concurrent push never waits on a
                            // pool mutex.
                            let mut covered: Vec<(usize, Arc<Vec<Packet>>)> = Vec::new();
                            {
                                let mut rows =
                                    sh.backlogs.lock().unwrap_or_else(PoisonError::into_inner);
                                for (p, row) in rows.iter_mut().enumerate() {
                                    while row.front().is_some_and(|m| m.seq <= seq) {
                                        if let Some(m) = row.pop_front() {
                                            covered.push((p, m.pkts));
                                        }
                                    }
                                }
                            }
                            for (p, pkts) in covered {
                                fab.recycle(p, pkts);
                            }
                        }
                        // Failure is permanent (the aggregate can't
                        // serialize): flag it so senders stop retaining
                        // backlog and the shard degrades on death.
                        Err(_) => sh.slot.mark_unsupported(),
                    }
                }
                registry.producers()[cursor].ring_depth[shard].fetch_sub(1, Relaxed);
                tel.queue_depth.fetch_sub(1, Relaxed);
                cursor = (cursor + 1) % p_count;
            }
            (engine.finish_state(), engine.stats())
        })
        .expect("spawn shard worker")
}

/// One producer's share of the ingress plane: a full admit-route-stage
/// loop (staging buffers, its own batch pool) that feeds every shard
/// worker through a dedicated SPSC ring.
///
/// Handles come from [`ShardedEngine::take_ingress_handles`] and are
/// `Send` (not `Sync`): move each onto its own ingress thread. Admission
/// (selection, late check, watermark advance) is handle-local — each
/// producer admits against its *own* watermark, the honest semantics of
/// distributed ingress (no producer can observe another's clock; PAPER.md
/// §VI-B). Workers close buckets at the *min* watermark across producers,
/// so a tuple admitted by its handle is never late at its worker. For
/// streams whose disorder stays within the query's slack, every admission
/// decision is identical to the single-threaded engine's.
///
/// ## The epoch contract
///
/// A handle seals an *epoch* — exactly one message per shard (possibly
/// empty, always carrying the handle's watermark) — whenever one shard's
/// staging buffer reaches the batch size, and once more at the end of each
/// [`ingest`](Self::ingest) call. For deterministic — bit-identical —
/// results, deal input chunks to the handles in round-robin order starting
/// at producer 0: producer `p`'s `k`-th epoch carries the per-shard seq
/// `k·P + p + 1` (see the determinism rule on the plane), and workers
/// apply epochs in seq order. The coordinator mode of [`ShardedEngine`]
/// (handles *not* taken) deals this way automatically.
pub struct IngressHandle {
    producer: usize,
    query: Query,
    fab: Arc<FabShared>,
    /// Per-shard staging buffers, swapped against [`Self::pool`] buffers
    /// at each seal, so steady-state ingress never allocates.
    staging: Vec<Vec<Packet>>,
    /// This producer's pool (a clone of `fab.pools[producer]`).
    pool: BatchPool<Packet>,
    /// Epochs sealed so far; the next seal ships seq
    /// `epochs · P + producer + 1` (plus each shard's base).
    epochs: u64,
    /// This producer's decay-aware thinning stage, present only under
    /// [`ShedPolicy::Subsample`].
    subsampler: Option<Subsampler>,
    rr: usize,
    watermark: Micros,
    /// The watermark the last sealed epoch carried: a later advance is
    /// news the workers have not heard.
    sealed_wm: Micros,
    /// Closed boundary in timestamp space (`closed_below · bucket_micros`).
    closed_low: Micros,
    stats: EngineStats,
    finished: bool,
}

impl IngressHandle {
    fn new(producer: usize, query: Query, fab: &Arc<FabShared>) -> Self {
        let overload = &fab.cfg.overload;
        let subsampler = match overload.policy {
            ShedPolicy::Subsample { target_rate } => Some(Subsampler::new(
                overload.decay.clone(),
                query.bucket_micros,
                target_rate,
                overload.seed ^ (producer as u64).wrapping_mul(0xA076_1D64_78BD_642F),
            )),
            _ => None,
        };
        Self {
            producer,
            query,
            fab: Arc::clone(fab),
            staging: vec![Vec::new(); fab.cfg.n_shards],
            pool: fab.pools[producer].clone(),
            epochs: 0,
            subsampler,
            rr: 0,
            watermark: 0,
            sealed_wm: 0,
            closed_low: 0,
            stats: EngineStats::default(),
            finished: false,
        }
    }

    /// Restores the admission state a durable commit froze, so re-fed
    /// input meets the exact decisions (and seq assignments) of the first
    /// run.
    fn resume(&mut self, block: &ProducerCommit) {
        self.watermark = block.watermark;
        self.sealed_wm = block.watermark;
        self.closed_low = block.closed_below.saturating_mul(self.query.bucket_micros);
        self.rr = (block.rr as usize) % self.staging.len();
        self.epochs = block.epochs;
        self.stats.tuples_in = block.tuples_in;
        self.stats.filtered = block.filtered;
        self.stats.late_drops = block.late_drops;
    }

    /// The admission state a durable commit freezes.
    fn commit_block(&self) -> ProducerCommit {
        ProducerCommit {
            watermark: self.watermark,
            closed_below: self.closed_low / self.query.bucket_micros,
            rr: self.rr as u64,
            epochs: self.epochs,
            tuples_in: self.stats.tuples_in,
            filtered: self.stats.filtered,
            late_drops: self.stats.late_drops,
        }
    }

    /// Admits and scatters one chunk, sealing an epoch each time a shard's
    /// staging buffer fills and once at the end. See the epoch contract
    /// above for how calls must interleave across handles.
    pub fn ingest(&mut self, pkts: &[Packet]) -> Result<(), fd_core::Error> {
        let mut rest = pkts;
        loop {
            let (used, _) = self.stage(rest);
            rest = &rest[used..];
            if rest.is_empty() {
                break;
            }
            self.seal_epoch()?;
        }
        self.seal_epoch()
    }

    /// The one ingress loop: a single fused pass per tuple doing admission
    /// (selection, late check, watermark advance), routing, and the push
    /// into the owning shard's staging buffer. Stops once a staging buffer
    /// reaches the batch size; returns how many tuples it consumed and
    /// whether it stopped for that reason (the caller seals and comes
    /// back with the rest).
    ///
    /// Admission mirrors [`Engine::process`] decision for decision. The
    /// late check compares timestamps against the closed boundary held in
    /// timestamp space (`closed_below · bucket_micros`), which removes
    /// both per-tuple divisions: `ts / bm < closed_below  ⇔
    /// ts < closed_below · bm` exactly, for non-negative integers, and the
    /// boundary division reruns only when the watermark gains a whole
    /// bucket. Stats and telemetry mirrors are stored once per call.
    fn stage(&mut self, pkts: &[Packet]) -> (usize, bool) {
        let bm = self.query.bucket_micros;
        let slack = self.query.slack_micros;
        let n_shards = self.staging.len();
        let routing = self.fab.cfg.routing;
        let batch_size = self.fab.cfg.batch_size;
        let mut wm = self.watermark;
        let mut closed_low = self.closed_low;
        let mut filtered = 0u64;
        let mut late = 0u64;
        let mut used = pkts.len();
        let mut full = false;
        for (i, pkt) in pkts.iter().enumerate() {
            if self.query.filter.as_ref().is_some_and(|f| !f(pkt)) {
                filtered += 1;
                continue;
            }
            if pkt.ts < closed_low {
                late += 1;
                continue;
            }
            wm = wm.max(pkt.ts);
            let horizon = wm.saturating_sub(slack);
            if horizon >= closed_low.saturating_add(bm) {
                closed_low = (horizon / bm) * bm;
            }
            let shard = match routing {
                ShardBy::Key => route_key((self.query.group_by)(pkt), n_shards),
                ShardBy::RoundRobin => {
                    let s = self.rr;
                    self.rr = (self.rr + 1) % n_shards;
                    s
                }
            };
            let buf = &mut self.staging[shard];
            buf.push(*pkt);
            if buf.len() >= batch_size {
                used = i + 1;
                full = true;
                break;
            }
        }
        self.stats.tuples_in += used as u64;
        self.stats.filtered += filtered;
        self.stats.late_drops += late;
        self.watermark = wm;
        self.closed_low = closed_low;
        if self.fab.cfg.live {
            self.mirror_admission();
        }
        (used, full)
    }

    /// Advances this handle's watermark as an explicit punctuation would;
    /// the next sealed epoch carries it to every shard.
    pub fn punctuate(&mut self, ts: Micros) {
        self.watermark = self.watermark.max(ts);
        let bm = self.query.bucket_micros;
        let target = (self.watermark.saturating_sub(self.query.slack_micros) / bm) * bm;
        self.closed_low = self.closed_low.max(target);
        if self.fab.cfg.live {
            self.mirror_admission();
        }
    }

    /// Whether sealing now would tell the workers anything: staged tuples,
    /// or a watermark advance since the last seal.
    fn dirty(&self) -> bool {
        self.watermark > self.sealed_wm || self.staging.iter().any(|s| !s.is_empty())
    }

    /// Seals the staged tuples as one epoch: exactly one sequence-stamped
    /// message per shard (empty shards included — every shard must see
    /// every seq), carrying the handle's watermark.
    pub fn seal_epoch(&mut self) -> Result<(), fd_core::Error> {
        self.seal_logged(None)
    }

    /// [`seal_epoch`](Self::seal_epoch) with an optional WAL hook: the
    /// coordinator passes its durability writer so each shard's message
    /// is logged *before* it is sent (write-ahead), and on the same ring
    /// the later commit record travels on — a commit can never be written
    /// before the epochs it covers.
    fn seal_logged(&mut self, mut durable: Option<&mut DurableSink>) -> Result<(), fd_core::Error> {
        let fab = Arc::clone(&self.fab);
        let p_count = fab.cfg.producers;
        let n_shards = self.staging.len();
        // `Subsample` thins the staged batches in place — as soon as a
        // shard sits at or past its lag budget, before its ring is even
        // full — and ships the epoch normally, with its scale columns.
        // The budget clamps to the ring depth, so the default
        // (`usize::MAX`) engages thinning only against a full ring.
        let mut scale_cols: Vec<ScaleColumn> = vec![None; n_shards];
        if let Some(sub) = self.subsampler.as_mut() {
            let budget = fab.cfg.overload.lag_budget.min(FABRIC_RING_DEPTH);
            for (shard, col) in scale_cols.iter_mut().enumerate() {
                if self.staging[shard].is_empty() || fab.ring_len(shard, self.producer) < budget {
                    continue;
                }
                let mut sc = Vec::new();
                let shed = sub.thin(&mut self.staging[shard], &mut sc);
                *col = Some(Arc::new(sc));
                if shed > 0 {
                    fab.telemetry.shed_tuples.fetch_add(shed, Relaxed);
                    fab.telemetry.shards()[shard]
                        .shed_tuples
                        .fetch_add(shed, Relaxed);
                    fab.telemetry.producers()[self.producer]
                        .shed_tuples
                        .fetch_add(shed, Relaxed);
                }
            }
        }
        let epoch_seq = self.epochs * p_count as u64 + self.producer as u64 + 1;
        self.epochs += 1;
        let wm = self.watermark;
        self.sealed_wm = wm;
        // One dead unsupervised worker must not cost the other shards
        // their message: ship the whole epoch, report the first failure.
        let mut result = Ok(());
        for (shard, col) in scale_cols.iter_mut().enumerate() {
            let seq = fab.shards[shard].seq_base + epoch_seq;
            let pkts = if self.staging[shard].is_empty() {
                // Nothing staged: ship the bare epoch marker without
                // churning a pooled buffer through the ring.
                Arc::default()
            } else {
                Arc::new(std::mem::replace(
                    &mut self.staging[shard],
                    self.pool.take(fab.cfg.batch_size),
                ))
            };
            if let Some(d) = durable.as_deref_mut() {
                d.batch(shard, seq, &pkts, wm);
            }
            let msg = Msg {
                seq,
                pkts,
                scales: col.take(),
                wm,
                sent: Instant::now(),
            };
            result = result.and(fab.send(shard, self.producer, msg));
        }
        if fab.cfg.live {
            self.mirror_epochs();
        }
        result
    }

    /// Single-writer mirrors of this producer's admission counters.
    fn mirror_admission(&self) {
        let t = &self.fab.telemetry.producers()[self.producer];
        t.tuples_in.store(self.stats.tuples_in, Relaxed);
        t.filtered.store(self.stats.filtered, Relaxed);
        t.late_drops.store(self.stats.late_drops, Relaxed);
        t.watermark_us.store(self.watermark, Relaxed);
    }

    /// Single-writer mirrors of this producer's epoch and pool counters.
    fn mirror_epochs(&self) {
        let t = &self.fab.telemetry.producers()[self.producer];
        t.epochs_sent.store(self.epochs, Relaxed);
        t.pool_reuses.store(self.pool.reuses(), Relaxed);
        t.pool_allocs.store(self.pool.allocs(), Relaxed);
    }

    /// This handle's admission counters so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Ends this producer's stream: seals any unsent remainder as a final
    /// epoch, closes its rings (removing the producer from every worker's
    /// rotation and from the frontier min), and records its stats for
    /// [`ShardedEngine::finish`] to fold.
    pub fn finish(mut self) -> EngineStats {
        if self.dirty() {
            // Only unsupervised worker loss can error here; the panic is
            // surfaced (counted, logged) by the engine's finish/join.
            let _ = self.seal_epoch();
        }
        self.close();
        self.stats
    }

    /// Marks the producer finished on every shard and drops its senders.
    /// Runs under each shard's recovery lock so a concurrent respawn
    /// can't re-install a fresh sender afterwards (which would leave the
    /// new worker waiting forever on a ring nobody closes).
    fn close(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        for sh in &self.fab.shards {
            let mut inner = sh.inner.lock().unwrap_or_else(PoisonError::into_inner);
            inner.finished[self.producer] = true;
            *sh.senders[self.producer]
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = None;
        }
        self.fab
            .stats_out
            .lock()
            .unwrap_or_else(PoisonError::into_inner)[self.producer] = Some(self.stats);
        // Final mirrors are unconditional, so a post-run snapshot agrees
        // with the folded stats even with live telemetry off.
        self.mirror_admission();
        self.mirror_epochs();
    }
}

impl Drop for IngressHandle {
    fn drop(&mut self) {
        // An abandoned handle must still leave every worker's rotation,
        // or `finish` would join workers that wait forever on its rings.
        self.close();
    }
}

/// A parallel instance of one continuous query across N worker threads.
///
/// ```
/// use fd_engine::prelude::*;
/// use fd_core::decay::Monomial;
///
/// let query = Query::builder("decayed_traffic")
///     .group_by(|p| p.dst_key())
///     .bucket_secs(60)
///     .aggregate(fwd_sum_factory(Monomial::quadratic(), |p| p.len as f64))
///     .build();
/// let mut sharded = ShardedEngine::try_new(query, 4).expect("spawn shards");
/// # let pkt = Packet { ts: 1_000_000, src_ip: 1, dst_ip: 2, src_port: 3,
/// #                    dst_port: 80, len: 100, proto: Proto::Tcp };
/// sharded.try_process_batch(&[StreamEvent::Data(pkt)]).expect("workers alive");
/// let rows = sharded.finish();
/// assert_eq!(rows.len(), 1);
/// ```
pub struct ShardedEngine {
    query: Query,
    /// The one configuration value; see [`ShardedEngine::rebuild`].
    cfg: EngineConfig,
    /// The ingress plane built from `cfg`.
    fab: Arc<FabShared>,
    /// Coordinator-mode ingress handles; emptied by
    /// [`take_ingress_handles`](Self::take_ingress_handles).
    handles: Vec<IngressHandle>,
    /// The handle staging the stream right now. Epochs are dealt in
    /// strict rotation (the determinism rule), so only this handle ever
    /// holds staged tuples and `cursor ≡ epochs dealt (mod P)`.
    cursor: usize,
    /// Scratch for segmenting [`StreamEvent`] runs, reused across calls.
    run_buf: Vec<Packet>,
    /// Admission counters folded from the handles at finish, plus the
    /// combiner's row/bucket counts.
    stats: EngineStats,
    shard_stats: Vec<EngineStats>,
    /// The durability writer, when `cfg.store` names a store.
    durable: Option<DurableSink>,
    /// Set by the first feed call: configuration is over.
    started: bool,
    done: bool,
}

/// What [`spawn_plane`] hands the engine.
struct Plane {
    fab: Arc<FabShared>,
    handles: Vec<IngressHandle>,
    /// Present exactly when the configuration names a store.
    store: Option<(DurableSink, RecoveryReport)>,
}

/// Builds the ingress plane a configuration describes: telemetry, pools,
/// one worker per shard, one handle per producer, and — when the
/// configuration names a store — the durable resume: workers are restored
/// from the on-disk checkpoints, the WAL tail is replayed through the
/// normal message path, and every handle gets back the admission state of
/// the newest honorable commit.
fn spawn_plane(query: &Query, cfg: &EngineConfig) -> Result<Plane, fd_core::Error> {
    cfg.validate(query)?;
    let (n, producers) = (cfg.n_shards, cfg.producers);
    let fault = cfg.fault.map(|plan| Arc::new(FaultState::new(plan)));
    let recovered = match &cfg.store {
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
    let seq_base = |shard: usize| -> Result<u64, fd_core::Error> {
        let hi = resumed.map_or(0, |c| c.hi[shard]);
        hi.checked_sub(epochs_dealt)
            .ok_or_else(|| fd_core::Error::Durability {
                detail: format!(
                    "shard {shard}: commit covers seq {hi} but its producers sealed \
                     {epochs_dealt} epochs"
                ),
            })
    };
    let telemetry = Arc::new(EngineTelemetry::with_producers(n, producers));
    telemetry.set_enabled(cfg.live);
    // The handles have already applied the selection; don't pay for it
    // again on the worker.
    let mut worker_query = query.clone();
    worker_query.filter = None;
    let mut shards = Vec::with_capacity(n);
    for shard in 0..n {
        shards.push(FabShard {
            backlogs: Mutex::new((0..producers).map(|_| VecDeque::new()).collect()),
            slot: Arc::new(CheckpointSlot::default()),
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
            seq_base: seq_base(shard)?,
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
    // Preload what the store holds, exactly as if the handles had sent it
    // moments ago: the spawn below then restores each worker from its
    // checkpoint and feeds it everything past it through the normal path.
    let mut replayed_batches = 0u64;
    let mut replayed_tuples = 0u64;
    if let Some((rec, _)) = &recovered {
        for (shard, sh) in fab.shards.iter().enumerate() {
            if let Some((seq, bytes)) = &rec.ckpts[shard] {
                let _ = sh.slot.store(*seq, bytes.clone());
            }
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
    fn recycle(&self, p: usize, pkts: Arc<Vec<Packet>>) {
        if pkts.capacity() > 0 {
            if let Ok(buf) = Arc::try_unwrap(pkts) {
                self.pools[p].put(buf);
            }
        }
    }
}

impl ShardedEngine {
    /// Spawns `n_shards` workers for the query, fed by one ingress
    /// producer in coordinator mode. Errors when `n_shards` is zero.
    pub fn try_new(query: Query, n_shards: usize) -> Result<Self, fd_core::Error> {
        let cfg = EngineConfig::new(n_shards);
        let plane = spawn_plane(&query, &cfg)?;
        Ok(Self {
            query,
            cfg,
            fab: plane.fab,
            handles: plane.handles,
            cursor: 0,
            run_buf: Vec::new(),
            stats: EngineStats::default(),
            shard_stats: vec![EngineStats::default(); n_shards],
            durable: None,
            started: false,
            done: false,
        })
    }

    /// Retires the current plane — its workers have seen nothing, so
    /// their drained state is empty — and respawns it from `self.cfg`:
    /// the one place configuration is read. Returns the store's recovery
    /// report when the configuration names one.
    ///
    /// # Panics
    /// If a tuple has already been processed: configuration is over.
    fn rebuild(&mut self) -> Result<Option<RecoveryReport>, fd_core::Error> {
        assert!(!self.started, "configure the engine before processing");
        self.retire();
        let plane = spawn_plane(&self.query, &self.cfg)?;
        self.fab = plane.fab;
        self.handles = plane.handles;
        self.cursor = (self.handles.iter().map(|h| h.epochs).sum::<u64>()
            % self.cfg.producers as u64) as usize;
        self.shard_stats = vec![EngineStats::default(); self.cfg.n_shards];
        let (sink, report) = plane.store.unzip();
        self.durable = sink;
        Ok(report)
    }

    /// [`rebuild`](Self::rebuild) for the setters that cannot return an
    /// error. Without a store a rebuild cannot fail; with one (a setter
    /// called after [`try_durable`](Self::try_durable)) it reopens the
    /// store and can.
    ///
    /// # Panics
    /// If the rebuild fails.
    fn rebuilt(mut self) -> Self {
        if let Err(e) = self.rebuild() {
            panic!("{e}");
        }
        self
    }

    /// Sets the routing policy (default [`ShardBy::Key`]).
    pub fn routing(mut self, routing: ShardBy) -> Self {
        self.cfg.routing = routing;
        self.rebuilt()
    }

    /// Sets the batch size: tuples staged for one shard before its epoch
    /// ships (default [`DEFAULT_BATCH_SIZE`]). Larger batches amortize
    /// ring and wakeup costs; smaller ones cut ingest-to-apply latency.
    /// Errors on zero.
    pub fn try_batch_size(mut self, n: usize) -> Result<Self, fd_core::Error> {
        self.cfg.batch_size = n;
        self.rebuild()?;
        Ok(self)
    }

    /// Sets how many tuples a worker applies between engine checkpoints
    /// (default [`DEFAULT_CHECKPOINT_EVERY`]). Smaller intervals shorten
    /// the replay tail at the price of more serialization; `0` disables
    /// supervision entirely — no checkpoints, no backlog, and a dead
    /// worker is a hard error.
    pub fn checkpoint_every(mut self, tuples: u64) -> Self {
        self.cfg.checkpoint_every = tuples;
        self.rebuilt()
    }

    /// Sets the per-shard restart budget (default
    /// [`DEFAULT_MAX_RESTARTS`]): after this many respawns a shard is
    /// degraded instead of restarted.
    pub fn max_restarts(mut self, n: u32) -> Self {
        self.cfg.max_restarts = n;
        self.rebuilt()
    }

    /// Configures the overload control plane (see [`crate::overload`]):
    /// the shed policy, the bounded-lag send deadline, the per-shard lag
    /// budget, and the stuck-shard watchdog lease. The default is
    /// lossless — [`ShedPolicy::Block`] with a
    /// [`DEFAULT_SEND_DEADLINE`](crate::overload::DEFAULT_SEND_DEADLINE)
    /// re-check cadence and a
    /// [`DEFAULT_LEASE`](crate::overload::DEFAULT_LEASE) watchdog lease.
    ///
    /// [`ShedPolicy::Subsample`] is refused for queries whose aggregate
    /// cannot apply Horvitz–Thompson scaled updates (anything beyond the
    /// decayed counts, sums and averages), and any lossy policy is refused
    /// on an engine with a durable store.
    pub fn try_overload(mut self, cfg: OverloadConfig) -> Result<Self, fd_core::Error> {
        self.cfg.overload = cfg;
        self.rebuild()?;
        Ok(self)
    }

    /// Arms a deterministic fault in one shard worker (see
    /// [`crate::fault`]) — the hook the recovery tests and the CI fault
    /// matrix drive.
    ///
    /// # Panics
    /// If the plan names a shard this engine doesn't have.
    pub fn inject_fault(mut self, plan: FaultPlan) -> Self {
        self.cfg.fault = Some(plan);
        self.rebuilt()
    }

    /// Sets the number of ingress producers (default 1): `P` ingress
    /// handles, each owning a full admit-route-stage loop, feeding every
    /// shard worker through dedicated per-(producer, shard) SPSC rings.
    /// Results stay deterministic — and bit-identical to one producer for
    /// keyed routing of within-slack streams — as long as epochs are
    /// dealt to the handles round-robin, which the engine's own feed
    /// methods do (see [`IngressHandle`] for the contract when feeding
    /// the handles from your own threads via
    /// [`take_ingress_handles`](Self::take_ingress_handles)). Errors on
    /// zero producers.
    pub fn try_producers(mut self, producers: usize) -> Result<Self, fd_core::Error> {
        self.cfg.producers = producers;
        self.rebuild()?;
        Ok(self)
    }

    /// Detaches the ingress handles for genuinely parallel feeding: move
    /// each onto its own thread and deal input chunks to the handles
    /// round-robin from producer 0 (the determinism contract). Once
    /// taken, the engine's own feed methods must no longer be used; after
    /// every handle has finished (or been dropped), call
    /// [`finish`](Self::finish) to join the workers and merge.
    ///
    /// # Panics
    /// If the handles were already taken, or a durable store is attached
    /// — durable runs require coordinator mode, where the engine deals
    /// epochs itself and write-ahead-logs them.
    pub fn take_ingress_handles(&mut self) -> Vec<IngressHandle> {
        assert!(
            self.durable.is_none(),
            "durable runs use coordinator mode; feed the engine directly"
        );
        assert!(!self.handles.is_empty(), "ingress handles already taken");
        self.started = true;
        std::mem::take(&mut self.handles)
    }

    /// Number of ingress producers.
    pub fn n_producers(&self) -> usize {
        self.cfg.producers
    }

    /// Opens (or recovers) a durable store under `dir` and attaches the
    /// WAL writer: from here on every epoch is logged before it ships,
    /// and [`durable_commit`](Self::durable_commit) makes stream
    /// positions crash-recoverable.
    ///
    /// When the directory holds a prior run's store, the engine resumes
    /// it: workers are restored from the on-disk checkpoints, the WAL tail
    /// is replayed through the normal message path, and the returned
    /// [`RecoveryReport`] says from which input `position` the caller must
    /// re-feed its stream. Results are then bit-identical to a run that
    /// never crashed (for deterministic queries). Torn WAL tails are
    /// truncated and counted, never an error; a store damaged *below* its
    /// last commit is an explicit [`fd_core::Error::Durability`]. A store
    /// resumes only under the producer count that wrote it (the epoch
    /// interleaving is producer-count-specific); one written by the
    /// pre-fabric single dispatcher resumes under one producer.
    ///
    /// Requires supervision (checkpoints are what gets persisted) and the
    /// lossless [`ShedPolicy::Block`]. Call it last: a setter called
    /// afterwards rebuilds the engine over a re-opened store. If an armed
    /// [`FaultKind::Disk`] fault is present, the store's I/O backend is
    /// wrapped in [`FaultyFs`] so the scheduled disk fault fires inside
    /// the durability layer.
    pub fn try_durable(
        mut self,
        dir: impl AsRef<std::path::Path>,
        opts: DurabilityOptions,
    ) -> Result<(Self, RecoveryReport), fd_core::Error> {
        self.cfg.store = Some((dir.as_ref().to_path_buf(), opts));
        let report = self.rebuild()?.expect("the configuration names a store");
        Ok((self, report))
    }

    /// Declares the stream durable up to `position` (a caller-defined
    /// input offset, typically "events fed so far"): seals the staged
    /// remainder — a commit covers whole epochs, so every admitted tuple
    /// below `position` is sealed and WAL-logged before the commit record
    /// that covers it — and enqueues a commit record carrying every
    /// handle's admission state and each shard's high sequence. After
    /// recovery, the caller re-feeds input from the newest committed
    /// position. A no-op without an attached store, or once degraded.
    pub fn durable_commit(&mut self, position: u64) -> Result<(), fd_core::Error> {
        if self.durable.is_none() {
            return Ok(());
        }
        self.flush()?;
        let producers: Vec<ProducerCommit> =
            self.handles.iter().map(|h| h.commit_block()).collect();
        let epochs: u64 = producers.iter().map(|p| p.epochs).sum();
        // The scalar fields carry aggregates; recovery restores the
        // handles from the per-producer blocks.
        let c = CommitState {
            position,
            watermark: producers.iter().map(|p| p.watermark).max().unwrap_or(0),
            closed_below: producers.iter().map(|p| p.closed_below).min().unwrap_or(0),
            rr: self.cursor as u64,
            tuples_in: producers.iter().map(|p| p.tuples_in).sum(),
            filtered: producers.iter().map(|p| p.filtered).sum(),
            late_drops: producers.iter().map(|p| p.late_drops).sum(),
            hi: self
                .fab
                .shards
                .iter()
                .map(|s| s.seq_base + epochs)
                .collect(),
            producers,
        };
        if let Some(d) = self.durable.as_mut() {
            d.commit(c);
        }
        Ok(())
    }

    /// Whether the durability layer hit a persistent disk failure and the
    /// engine fell back to in-memory supervision (`false` when no store is
    /// attached). Mirrored as the `durability_degraded` telemetry gauge.
    pub fn durability_degraded(&self) -> bool {
        self.durable.as_ref().is_some_and(|d| d.degraded())
    }

    /// Producer 0's batch-recycling pool, shared with the workers — its
    /// [`reuses`](BatchPool::reuses) / [`allocs`](BatchPool::allocs)
    /// counters quantify the zero-allocation steady state (every
    /// producer's are in the telemetry snapshot).
    pub fn batch_pool(&self) -> &BatchPool<Packet> {
        &self.fab.pools[0]
    }

    /// Turns hot-path telemetry mirroring on or off (default on; the
    /// overhead is a few relaxed stores per call — see the
    /// `telemetry_overhead` bench). End-of-run counters are recorded
    /// either way.
    pub fn live_telemetry(mut self, on: bool) -> Self {
        self.cfg.live = on;
        self.rebuilt()
    }

    /// The shared live-metrics registry. Clone the `Arc` to watch the run
    /// from another thread; it stays readable (with the final counts)
    /// after `finish()` and after the engine is dropped. Every setter
    /// replaces the registry, so clone it once configuration is done.
    pub fn telemetry(&self) -> &Arc<EngineTelemetry> {
        &self.fab.telemetry
    }

    /// Number of worker shards.
    pub fn n_shards(&self) -> usize {
        self.cfg.n_shards
    }

    /// The query's display name.
    pub fn query_name(&self) -> &str {
        &self.query.name
    }

    /// Offers one tuple: admission (filter, late check, watermark), then
    /// staging for the owning shard. Mirrors [`Engine::process`] decision
    /// for decision. Reports [`fd_core::Error::WorkerLost`] when an
    /// unsupervised worker has died; with supervision on (the default),
    /// worker death is recovered or degraded internally.
    pub fn try_process(&mut self, pkt: &Packet) -> Result<(), fd_core::Error> {
        self.try_process_packets(std::slice::from_ref(pkt))
    }

    /// Offers a slice of tuples: the current handle admits, routes and
    /// stages them in one pass, and each time a shard's staging buffer
    /// fills, its epoch is sealed and the next handle in rotation takes
    /// over. Errors as [`try_process`](Self::try_process).
    pub fn try_process_packets(&mut self, pkts: &[Packet]) -> Result<(), fd_core::Error> {
        debug_assert!(!self.done, "process after finish");
        assert!(
            !self.handles.is_empty(),
            "ingress handles were taken; feed them directly"
        );
        self.started = true;
        let mut rest = pkts;
        let mut result = Ok(());
        while !rest.is_empty() {
            let (used, full) = self.handles[self.cursor].stage(rest);
            rest = &rest[used..];
            if full {
                result = self.seal_current();
                if result.is_err() {
                    break;
                }
            }
        }
        self.mirror_admission();
        result
    }

    /// Processes a punctuation: advances every handle's watermark and
    /// broadcasts it as one epoch per handle, closing due buckets on
    /// every shard. Errors as [`try_process`](Self::try_process).
    pub fn try_punctuate(&mut self, ts: Micros) -> Result<(), fd_core::Error> {
        self.started = true;
        for h in &mut self.handles {
            h.punctuate(ts);
        }
        let result = self.broadcast();
        self.mirror_admission();
        result
    }

    /// Offers a batch of stream elements, then seals what is staged so
    /// every shard sees the advanced watermark — the per-batch
    /// synchronisation point of the sharded pipeline. Runs of consecutive
    /// [`StreamEvent::Data`] go through
    /// [`try_process_packets`](Self::try_process_packets); punctuations
    /// act as barriers between runs, exactly as in per-event processing.
    /// Errors as [`try_process`](Self::try_process).
    pub fn try_process_batch(&mut self, events: &[StreamEvent]) -> Result<(), fd_core::Error> {
        let mut run = std::mem::take(&mut self.run_buf);
        run.clear();
        let mut feed = || -> Result<(), fd_core::Error> {
            for ev in events {
                match ev {
                    StreamEvent::Data(pkt) => run.push(*pkt),
                    StreamEvent::Punctuation(ts) => {
                        self.try_process_packets(&run)?;
                        run.clear();
                        self.try_punctuate(*ts)?;
                    }
                }
            }
            self.try_process_packets(&run)
        };
        let result = feed();
        run.clear();
        self.run_buf = run;
        result?;
        self.flush()
    }

    /// Seals the current handle's epoch and moves the rotation on — also
    /// when a send failed: the handle's epoch counter advanced, and the
    /// cursor must stay in step with it.
    fn seal_current(&mut self) -> Result<(), fd_core::Error> {
        let p = self.cursor;
        self.cursor = (p + 1) % self.handles.len();
        self.handles[p].seal_logged(self.durable.as_mut())
    }

    /// Seals the current handle's epoch if it has anything to say (staged
    /// tuples, or a watermark the workers have not heard).
    fn flush(&mut self) -> Result<(), fd_core::Error> {
        match self.handles.get(self.cursor) {
            Some(h) if h.dirty() => self.seal_current(),
            _ => Ok(()),
        }
    }

    /// Seals one epoch per handle, in rotation: the workers' frontier is
    /// the min across producers, so a watermark reaches them only once
    /// every producer has carried it.
    fn broadcast(&mut self) -> Result<(), fd_core::Error> {
        for _ in 0..self.handles.len() {
            self.seal_current()?;
        }
        Ok(())
    }

    /// The end-of-stream flush shared by `drain` and `finish`: the stream
    /// is over, so every handle agrees on the final watermark, and one
    /// last round of epochs carries it (and any staged tuples) out. A
    /// failure here means a shard is already beyond saving; it is logged,
    /// and the join loop salvages what the shards hold.
    fn seal_final(&mut self) {
        let wm = self.handles.iter().map(|h| h.watermark).max().unwrap_or(0);
        for h in &mut self.handles {
            h.punctuate(wm);
        }
        if self.handles.iter().any(IngressHandle::dirty) {
            if let Err(e) = self.broadcast() {
                eprintln!("fd-finish: final flush failed: {e}");
            }
        }
    }

    /// Live mirrors of the coordinator's totals (single writer: this
    /// thread), stored once per feed call.
    fn mirror_admission(&self) {
        if !self.cfg.live {
            return;
        }
        let t = &self.fab.telemetry;
        let sum =
            |f: fn(&EngineStats) -> u64| -> u64 { self.handles.iter().map(|h| f(&h.stats)).sum() };
        t.tuples_in.store(sum(|s| s.tuples_in), Relaxed);
        t.filtered.store(sum(|s| s.filtered), Relaxed);
        t.late_drops.store(sum(|s| s.late_drops), Relaxed);
        let wm = self.handles.iter().map(|h| h.watermark).max().unwrap_or(0);
        t.dispatcher_watermark.store(wm, Relaxed);
    }

    /// Graceful drain: seals ingress, flushes every staged tuple, waits up
    /// to `deadline` for all shard queues to empty, then finishes the run
    /// and reports exactly what the shutdown cost. A shard still lagging at
    /// the deadline is abandoned — its worker retired, its state salvaged
    /// from the last checkpoint — rather than blocking shutdown forever,
    /// and the loss shows up in the report's `per_shard_lag` /
    /// `unflushed_epochs` instead of vanishing.
    ///
    /// Coordinator mode only: callers running taken ingress handles on
    /// their own threads must [`IngressHandle::finish`] them first.
    pub fn drain(&mut self, deadline: Duration) -> (Vec<Row>, DrainReport) {
        let mut report = DrainReport {
            per_shard_lag: vec![0; self.n_shards()],
            ..DrainReport::default()
        };
        if self.done {
            return (Vec::new(), report);
        }
        self.seal_final();
        let tel = Arc::clone(&self.fab.telemetry);
        let lag_of = |shard: usize| tel.shards()[shard].queue_depth.load(Relaxed);
        let give_up = Instant::now() + deadline;
        while (0..self.n_shards()).any(|s| lag_of(s) > 0) {
            if Instant::now() >= give_up {
                report.deadline_expired = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        if report.deadline_expired {
            for shard in 0..self.n_shards() {
                let lag = lag_of(shard);
                if lag > 0 {
                    report.per_shard_lag[shard] = lag;
                    report.unflushed_epochs += lag;
                    self.abandon_shard(shard);
                }
            }
        }
        let rows = self.finish();
        report.shed_tuples = tel.shed_tuples.load(Relaxed);
        report.shed_batches = tel.shed_batches.load(Relaxed);
        report.wedged_respawns = tel.wedged_respawns.load(Relaxed);
        (rows, report)
    }

    /// Abandons a shard that failed to drain by its deadline: retires the
    /// worker's lease, parks the thread as a zombie (it may be blocked on
    /// a full downstream or genuinely wedged), and degrades the shard so
    /// [`ShardedEngine::finish`] salvages its last checkpoint.
    fn abandon_shard(&self, shard: usize) {
        let sh = &self.fab.shards[shard];
        if sh.degraded.load(Relaxed) {
            return;
        }
        let mut inner = sh.inner.lock().unwrap_or_else(PoisonError::into_inner);
        FabShared::retire_worker_locked(&mut inner);
        self.fab.degrade_locked(shard, &mut inner);
    }

    /// Ends the stream: flushes all handles, joins every shard worker,
    /// merges their closed buckets, and returns every row in (bucket,
    /// key) order — the same order the single-threaded engine emits.
    /// Subsequent calls return no rows. Never panics on a lost worker.
    ///
    /// A worker found dead here is put through the same supervision
    /// protocol as one found dead mid-stream: restore, replay, bounded
    /// retries, then degradation with checkpoint salvage. Without
    /// supervision its shard's rows are lost (counted in
    /// `worker_panics`) and the surviving shards' rows are returned.
    pub fn finish(&mut self) -> Vec<Row> {
        if self.done {
            return Vec::new();
        }
        self.done = true;
        // Coordinator handles flush and close here; parallel callers have
        // already finished or dropped theirs.
        self.seal_final();
        for h in std::mem::take(&mut self.handles) {
            h.finish();
        }
        let fab = Arc::clone(&self.fab);
        let mut combined: BTreeMap<(u64, u64), Box<dyn Aggregator>> = BTreeMap::new();
        for (shard, sh) in fab.shards.iter().enumerate() {
            loop {
                let handle = sh
                    .inner
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .worker
                    .take();
                let Some(handle) = handle else { break };
                match handle.join() {
                    Ok((closed, stats)) => {
                        self.shard_stats[shard] = stats;
                        fold_closed(&mut combined, closed);
                        break;
                    }
                    Err(payload) => {
                        fab.telemetry.worker_panics.fetch_add(1, Relaxed);
                        eprintln!(
                            "fd-shard-{shard}: worker panicked: {}",
                            panic_message(&payload)
                        );
                        if !fab.cfg.supervising() {
                            break;
                        }
                        // Same protocol as mid-stream: bounded respawn
                        // (the fresh worker replays the backlog tail and
                        // exits — every producer's ring is already
                        // closed), else degrade with salvage below.
                        let mut inner = sh.inner.lock().unwrap_or_else(PoisonError::into_inner);
                        fab.recover_locked(shard, &mut inner);
                    }
                }
            }
            let (early, mut zombies) = {
                let mut inner = sh.inner.lock().unwrap_or_else(PoisonError::into_inner);
                (inner.early_exit.take(), std::mem::take(&mut inner.zombies))
            };
            if let Some((closed, stats)) = early {
                self.shard_stats[shard] = stats;
                fold_closed(&mut combined, closed);
            }
            if sh.degraded.load(Relaxed) {
                // Salvage the degraded shard's last checkpoint: everything
                // up to it survives in the final result.
                if let Some((_seq, bytes)) = sh.slot.load() {
                    if let Ok(mut e) = Engine::restore(fab.worker_query.clone(), &bytes) {
                        let closed = e.finish_state();
                        self.shard_stats[shard] = e.stats();
                        fold_closed(&mut combined, closed);
                    }
                }
            }
            reap_zombies(&mut zombies);
        }
        // All workers have drained and published their last checkpoints:
        // flush the WAL, persist what the last commit covers, and commit a
        // final manifest, so a cleanly-finished store recovers instantly.
        if let Some(d) = self.durable.as_mut() {
            d.finish();
        }
        // Fold the producers' admission counters into the engine stats.
        for s in fab
            .stats_out
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .flatten()
        {
            self.stats.tuples_in += s.tuples_in;
            self.stats.filtered += s.filtered;
            self.stats.late_drops += s.late_drops;
        }
        self.emit_rows(combined)
    }

    /// Evaluates the merged `(bucket, key)` states into rows and records
    /// the final counters unconditionally (even with live telemetry off),
    /// so a post-run snapshot always agrees exactly with `stats()`.
    fn emit_rows(&mut self, combined: BTreeMap<(u64, u64), Box<dyn Aggregator>>) -> Vec<Row> {
        let bucket_micros = self.query.bucket_micros;
        let mut last_bucket = None;
        let rows: Vec<Row> = combined
            .into_iter()
            .map(|((bucket, key), agg)| {
                if last_bucket != Some(bucket) {
                    last_bucket = Some(bucket);
                    self.stats.buckets_closed += 1;
                }
                Row {
                    bucket_start: bucket * bucket_micros,
                    key,
                    value: agg.emit(secs((bucket + 1) * bucket_micros)),
                }
            })
            .collect();
        self.stats.rows_out = rows.len() as u64;
        let t = &self.fab.telemetry;
        t.tuples_in.store(self.stats.tuples_in, Relaxed);
        t.filtered.store(self.stats.filtered, Relaxed);
        t.late_drops.store(self.stats.late_drops, Relaxed);
        // Every closed handle left its final watermark in its mirror.
        let wm = t.producers().iter().map(|p| p.watermark_us.load(Relaxed));
        t.dispatcher_watermark.store(wm.max().unwrap_or(0), Relaxed);
        t.rows_out.store(self.stats.rows_out, Relaxed);
        t.buckets_closed.store(self.stats.buckets_closed, Relaxed);
        rows
    }

    /// Runs a whole stream through the query and returns all rows,
    /// chunking it through [`try_process_packets`](Self::try_process_packets).
    /// A lost unsupervised worker ends the feed early; the loss is logged
    /// and [`finish`](Self::finish) returns what the other shards hold.
    pub fn run(&mut self, stream: impl IntoIterator<Item = Packet>) -> Vec<Row> {
        let chunk = self.cfg.batch_size;
        let mut buf = Vec::with_capacity(chunk);
        let mut stream = stream.into_iter();
        loop {
            buf.clear();
            buf.extend(stream.by_ref().take(chunk));
            if buf.is_empty() {
                break;
            }
            if let Err(e) = self.try_process_packets(&buf) {
                eprintln!("fd-run: feed stopped: {e}");
                break;
            }
        }
        self.finish()
    }

    /// Combined execution counters: admission counts plus the shard-side
    /// LFTA evictions, and the combiner's row/bucket counts. Shard-side
    /// numbers are folded in by [`ShardedEngine::finish`]. (With taken
    /// handles, admission lives on the handles until then.)
    pub fn stats(&self) -> EngineStats {
        let shards = crate::metrics::combine_shard_stats(&self.shard_stats);
        let mut stats = EngineStats {
            lfta_evictions: shards.lfta_evictions,
            ..self.stats
        };
        // Mid-run, admission lives on the coordinator's handles; `finish`
        // folds it into `self.stats` and drops them.
        for h in &self.handles {
            stats.tuples_in += h.stats.tuples_in;
            stats.filtered += h.stats.filtered;
            stats.late_drops += h.stats.late_drops;
        }
        stats
    }

    /// Raw per-shard engine counters (populated by
    /// [`ShardedEngine::finish`]).
    pub fn per_shard_stats(&self) -> &[EngineStats] {
        &self.shard_stats
    }

    /// Closes every ring and reaps the workers. A worker panic must not be
    /// swallowed silently: it cannot propagate from here (we may already
    /// be unwinding), so it is counted in the telemetry registry and
    /// logged. The durability writer is abandoned, not finished: it stops
    /// without any further fsync, rename or manifest commit.
    fn retire(&mut self) {
        self.durable = None;
        // Dropping the coordinator handles closes their rings; close any
        // recovery-installed senders too, then join.
        self.handles.clear();
        for (shard, sh) in self.fab.shards.iter().enumerate() {
            for slot in &sh.senders {
                *slot.lock().unwrap_or_else(PoisonError::into_inner) = None;
            }
            let (handle, mut zombies) = {
                let mut inner = sh.inner.lock().unwrap_or_else(PoisonError::into_inner);
                (inner.worker.take(), std::mem::take(&mut inner.zombies))
            };
            if let Some(handle) = handle {
                if let Err(payload) = handle.join() {
                    self.fab.telemetry.worker_panics.fetch_add(1, Relaxed);
                    eprintln!(
                        "fd-shard-{shard}: worker panicked: {}",
                        panic_message(&payload)
                    );
                }
            }
            reap_zombies(&mut zombies);
        }
    }
}

impl Drop for ShardedEngine {
    fn drop(&mut self) {
        // An abandoned engine must not leak threads.
        self.retire();
    }
}

/// Joins retired (zombie) worker incarnations, giving each a short grace
/// period to notice its retired lease and exit. A thread still running
/// after the grace period is detached by dropping its handle — safe Rust
/// cannot kill it, and blocking shutdown on a genuinely wedged thread
/// would turn a shed into a hang. Join results are discarded: a retired
/// incarnation's state is stale by construction (its unapplied messages
/// were replayed to its successor).
fn reap_zombies(zombies: &mut Vec<WorkerHandle>) {
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

/// Merges closed groups into the combined `(bucket, key)` map, combining
/// states that met the same group on different shards (or in different
/// worker incarnations).
fn fold_closed(combined: &mut BTreeMap<(u64, u64), Box<dyn Aggregator>>, closed: Vec<ClosedGroup>) {
    for cg in closed {
        match combined.entry((cg.bucket, cg.key)) {
            Entry::Occupied(mut e) => e.get_mut().merge_boxed(cg.agg),
            Entry::Vacant(e) => {
                e.insert(cg.agg);
            }
        }
    }
}

/// Best-effort extraction of a panic payload's message (panics carry
/// `&'static str` or `String` in practice).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
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
    use super::*;
    use crate::aggregators::{count_factory, fwd_sum_factory};
    use crate::tuple::MICROS_PER_SEC;
    use fd_core::decay::Monomial;

    fn pkt(ts_s: f64, dst_ip: u32) -> Packet {
        Packet {
            ts: (ts_s * MICROS_PER_SEC as f64) as Micros,
            src_ip: 1,
            dst_ip,
            src_port: 1000,
            dst_port: 80,
            len: 100,
            proto: Proto::Tcp,
        }
    }

    fn count_query() -> Query {
        Query::builder("count")
            .group_by(|p| p.dst_host())
            .bucket_secs(60)
            .aggregate(count_factory())
            .two_level(true)
            .lfta_slots(64)
            .build()
    }

    fn fwd_query() -> Query {
        Query::builder("fwd")
            .group_by(|p| p.dst_host())
            .bucket_secs(60)
            .aggregate(fwd_sum_factory(Monomial::quadratic(), |p| p.len as f64))
            .two_level(false)
            .build()
    }

    fn sharded(query: Query, n: usize) -> ShardedEngine {
        ShardedEngine::try_new(query, n).expect("spawn shards")
    }

    fn plan(spec: &str) -> FaultPlan {
        FaultPlan::parse(spec).expect("plan")
    }

    /// Same rows, same order, same values — to the bit.
    fn assert_rows_eq(want: &[Row], got: &[Row], label: &str) {
        assert_eq!(want.len(), got.len(), "{label}: row count");
        for (a, b) in want.iter().zip(got) {
            assert_eq!(
                (a.bucket_start, a.key),
                (b.bucket_start, b.key),
                "{label}: row identity"
            );
            assert_eq!(a.value, b.value, "{label}: key {}", a.key);
        }
    }

    #[test]
    fn coordinator_matches_single_threaded_for_every_producer_count() {
        // The producer-seq determinism rule in action: for every P, the
        // coordinator deals epochs round-robin and each worker drains
        // producers in seq order, so keyed-routing rows are bit-identical
        // to the single-threaded engine.
        let stream: Vec<Packet> = (0..12_000)
            .map(|i| pkt(0.01 * i as f64, (i % 97) as u32))
            .collect();
        let single = Engine::new(count_query()).run(stream.clone());
        for producers in [1usize, 2, 3] {
            let mut e = sharded(count_query(), 4)
                .try_batch_size(256)
                .expect("batch")
                .try_producers(producers)
                .expect("producers");
            let rows = e.run(stream.clone());
            assert_rows_eq(&single, &rows, &format!("P={producers}"));
            assert_eq!(e.stats().tuples_in, stream.len() as u64);
            assert_eq!(e.n_producers(), producers);
        }
    }

    #[test]
    fn round_robin_merges_split_groups_exactly() {
        // Every group's state splits across all 4 shards; counts are
        // additively mergeable so the merge path must reassemble them
        // exactly, whichever producer sealed each part.
        let stream: Vec<Packet> = (0..8_000)
            .map(|i| pkt(0.005 * i as f64, (i % 13) as u32))
            .collect();
        let single = Engine::new(count_query()).run(stream.clone());
        for producers in [1usize, 2] {
            let rows = sharded(count_query(), 4)
                .routing(ShardBy::RoundRobin)
                .try_batch_size(128)
                .expect("batch")
                .try_producers(producers)
                .expect("producers")
                .run(stream.clone());
            assert_rows_eq(&single, &rows, &format!("P={producers}"));
        }
    }

    #[test]
    fn forward_decayed_sum_shards_by_key() {
        let stream: Vec<Packet> = (0..5_000)
            .map(|i| pkt(0.03 * i as f64, (i % 31) as u32))
            .collect();
        let single = Engine::new(fwd_query()).run(stream.clone());
        let rows = sharded(fwd_query(), 4).run(stream);
        assert_rows_eq(&single, &rows, "fwd sum");
    }

    #[test]
    fn late_tuples_drop_identically() {
        let mut single = Engine::new(count_query());
        let mut parallel = sharded(count_query(), 4);
        let events = [
            StreamEvent::Data(pkt(10.0, 1)),
            StreamEvent::Punctuation(130 * MICROS_PER_SEC),
            StreamEvent::Data(pkt(15.0, 1)), // late: bucket 0 closed
            StreamEvent::Data(pkt(140.0, 2)),
        ];
        for ev in &events {
            single.process_event(ev);
        }
        parallel.try_process_batch(&events).expect("feed");
        let s_rows = single.finish();
        let p_rows = parallel.finish();
        assert_eq!(s_rows.len(), p_rows.len());
        assert_eq!(single.stats().late_drops, 1);
        assert_eq!(parallel.stats().late_drops, 1);
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let q = Query::builder("stats")
            .filter(|p| p.proto == Proto::Tcp)
            .group_by(|p| p.dst_host())
            .bucket_secs(60)
            .aggregate(count_factory())
            .build();
        let mut e = sharded(q, 3);
        for i in 0..300 {
            e.try_process(&pkt(i as f64 * 0.1, (i % 7) as u32))
                .expect("feed");
        }
        let rows = e.finish();
        let stats = e.stats();
        assert_eq!(stats.tuples_in, 300);
        assert_eq!(stats.rows_out, rows.len() as u64);
        assert!(stats.buckets_closed >= 1);
        let per_shard = e.per_shard_stats();
        assert_eq!(per_shard.len(), 3);
        assert_eq!(
            per_shard.iter().map(|s| s.tuples_in).sum::<u64>(),
            300,
            "every accepted tuple lands on exactly one shard"
        );
    }

    #[test]
    fn finish_is_idempotent_and_drop_reaps_workers() {
        for producers in [1usize, 2] {
            let mut e = sharded(count_query(), 2)
                .try_producers(producers)
                .expect("producers");
            e.try_process(&pkt(1.0, 1)).expect("feed");
            assert_eq!(e.finish().len(), 1);
            assert!(e.finish().is_empty());
        }
        // Dropping a never-finished engine must not hang or leak.
        drop(
            sharded(count_query(), 2)
                .try_producers(3)
                .expect("producers"),
        );
        // Dropping taken handles without finish() must not hang either.
        let mut e = sharded(count_query(), 2)
            .try_producers(2)
            .expect("producers");
        drop(e.take_ingress_handles());
        drop(e);
    }

    #[test]
    fn key_routing_spreads_within_bound() {
        // Dense sequential keys AND power-of-two-strided keys must both
        // land within ±20% of a uniform share on every shard — the
        // strided case is exactly what a low-bits `h % n` fold fails.
        const KEYS: u64 = 100_000;
        for n_shards in [2usize, 3, 4, 8] {
            for (label, stride_shift) in [("dense", 0u32), ("strided", 12u32)] {
                let mut counts = vec![0u64; n_shards];
                for key in 0..KEYS {
                    counts[route_key(key << stride_shift, n_shards)] += 1;
                }
                let uniform = KEYS as f64 / n_shards as f64;
                for (shard, &c) in counts.iter().enumerate() {
                    let dev = (c as f64 - uniform).abs() / uniform;
                    assert!(
                        dev <= 0.20,
                        "{label} keys, {n_shards} shards: shard {shard} got {c} \
                         (uniform {uniform:.0}, deviation {:.1}%)",
                        dev * 100.0
                    );
                }
            }
        }
    }

    #[test]
    fn dropped_engine_records_worker_panic() {
        use crate::udaf::{AggValue, Aggregator, FnFactory};
        use std::any::Any;

        // An aggregator that panics when it meets the sentinel tuple.
        struct Tripwire;
        impl Aggregator for Tripwire {
            fn update(&mut self, pkt: &Packet) {
                assert!(pkt.len != 0xDEAD, "tripwire: poisoned tuple");
            }
            fn merge_boxed(&mut self, _other: Box<dyn Aggregator>) {}
            fn emit(&self, _t: f64) -> AggValue {
                AggValue::Float(0.0)
            }
            fn size_bytes(&self) -> usize {
                0
            }
            fn as_any_box(self: Box<Self>) -> Box<dyn Any> {
                self
            }
        }

        let q = Query::builder("tripwire")
            .group_by(|_| 0) // one group: everything routes to one shard
            .bucket_secs(60)
            .aggregate(FnFactory::new("tripwire", true, |_| Box::new(Tripwire)))
            .two_level(false)
            .build();
        let mut e = sharded(q, 2);
        // Exactly one batch's worth of tuples so the feed itself seals the
        // epoch (no explicit punctuation: the worker dies, and drop — not
        // a send — must discover it).
        for i in 0..DEFAULT_BATCH_SIZE {
            let mut p = pkt(0.001 * i as f64, 1);
            if i == 7 {
                p.len = 0xDEAD;
            }
            e.try_process(&p).expect("feed");
        }
        let tel = Arc::clone(e.telemetry());
        drop(e); // Drop must reap the dead worker and record the panic
        assert_eq!(tel.worker_panics.load(Relaxed), 1);
    }

    #[test]
    fn batched_admission_matches_scalar_exactly() {
        // Per-tuple feeding, sliced feeding and several producers must all
        // accept, filter and drop exactly the tuples the single-threaded
        // engine does — including streams where the closed boundary
        // advances mid-slice and late tuples interleave with fresh ones.
        let q = || {
            Query::builder("diff")
                .filter(|p| p.dst_port == 80)
                .group_by(|p| p.dst_host())
                .bucket_secs(60)
                .slack_secs(30.0)
                .aggregate(count_factory())
                .build()
        };
        let mut stream = Vec::new();
        for i in 0..20_000u64 {
            let mut p = pkt(i as f64 * 0.05, (i % 41) as u32);
            if i % 17 == 0 {
                p.dst_port = 443; // filtered
            }
            if i % 97 == 0 {
                p.ts = p.ts.saturating_sub(200 * MICROS_PER_SEC); // late
            }
            stream.push(p);
        }
        let mut single = Engine::new(q());
        let want = single.run(stream.clone());
        let ws = single.stats();
        assert!(ws.filtered > 0 && ws.late_drops > 0);
        let check = |label: &str, e: &ShardedEngine, rows: &[Row]| {
            let s = e.stats();
            assert_eq!(
                (ws.tuples_in, ws.filtered, ws.late_drops),
                (s.tuples_in, s.filtered, s.late_drops),
                "{label}"
            );
            assert_rows_eq(&want, rows, label);
        };
        let mut scalar = sharded(q(), 3);
        for p in &stream {
            scalar.try_process(p).expect("feed");
        }
        let rows = scalar.finish();
        check("per tuple", &scalar, &rows);
        for producers in [1usize, 2] {
            let mut batched = sharded(q(), 3)
                .try_batch_size(256)
                .expect("batch")
                .try_producers(producers)
                .expect("producers");
            let rows = batched.run(stream.clone());
            check(&format!("sliced, P={producers}"), &batched, &rows);
        }
    }

    #[test]
    fn pooled_batches_recycle_and_count_like_fresh_ones() {
        // batches_sent must count recycled-pool sends identically to fresh
        // sends. Route everything to one shard, ship enough batches that
        // the bounded ring forces the worker to drain (returning buffers
        // to the pool) while the handle is still sealing. Supervision off:
        // this pins the worker-side recycling path.
        const BATCH: usize = 64;
        const N_BATCHES: u64 = 40;
        let q = Query::builder("pool")
            .group_by(|_| 0)
            .bucket_secs(60)
            .aggregate(count_factory())
            .two_level(false)
            .build();
        let mut e = sharded(q, 1)
            .try_batch_size(BATCH)
            .expect("batch")
            .checkpoint_every(0);
        let stream: Vec<Packet> = (0..N_BATCHES * BATCH as u64)
            .map(|i| pkt(0.001 * i as f64, 1))
            .collect();
        e.run(stream);
        let snap = e.telemetry().snapshot();
        let sent: u64 = snap.shards.iter().map(|s| s.batches_sent).sum();
        assert_eq!(
            sent, N_BATCHES,
            "every batch counted once, recycled or fresh"
        );
        let pool = e.batch_pool();
        assert!(
            pool.reuses() > 0,
            "steady state must recycle buffers (allocs {}, reuses {})",
            pool.allocs(),
            pool.reuses()
        );
        assert!(
            pool.allocs() < N_BATCHES,
            "most sends must reuse pooled buffers, not allocate"
        );
    }

    #[test]
    fn supervised_trim_reclaims_batch_buffers() {
        // Under supervision the apply path can't recycle (the backlog
        // holds a clone); the worker reclaims covered batches when it
        // trims after publishing each checkpoint. Checkpoint after every
        // batch so every trim succeeds deterministically: the worker
        // releases its apply-path reference *before* publishing the
        // checkpoint seq.
        const BATCH: usize = 64;
        const N_BATCHES: u64 = 40;
        let q = Query::builder("pool")
            .group_by(|_| 0)
            .bucket_secs(60)
            .aggregate(count_factory())
            .two_level(false)
            .build();
        let mut e = sharded(q, 1)
            .try_batch_size(BATCH)
            .expect("batch")
            .checkpoint_every(BATCH as u64);
        let stream: Vec<Packet> = (0..N_BATCHES * BATCH as u64)
            .map(|i| pkt(0.001 * i as f64, 1))
            .collect();
        e.run(stream);
        let snap = e.telemetry().snapshot();
        assert!(snap.checkpoints >= N_BATCHES / 2, "workers checkpointed");
        let pool = e.batch_pool();
        assert!(
            pool.reuses() > 0,
            "trimming must recycle buffers (allocs {}, reuses {})",
            pool.allocs(),
            pool.reuses()
        );
        assert!(pool.allocs() < N_BATCHES);
    }

    #[test]
    fn pools_recycle_per_producer() {
        // Pool capacity scales with producers × shards and the recycling
        // hit-rate holds up with several producers — visible through the
        // per-producer pool telemetry counters.
        const BATCH: usize = 64;
        const N: u64 = 10_000;
        let stream: Vec<Packet> = (0..N)
            .map(|i| pkt(0.001 * i as f64, (i % 7) as u32))
            .collect();
        let mut e = sharded(count_query(), 2)
            .try_batch_size(BATCH)
            .expect("batch")
            .try_producers(2)
            .expect("producers");
        e.run(stream);
        let snap = e.telemetry().snapshot();
        assert_eq!(snap.producers.len(), 2);
        let reuses: u64 = snap.producers.iter().map(|p| p.pool_reuses).sum();
        let allocs: u64 = snap.producers.iter().map(|p| p.pool_allocs).sum();
        assert!(
            reuses > 0,
            "steady state must recycle buffers (allocs {allocs}, reuses {reuses})"
        );
        assert!(
            allocs < reuses,
            "most epochs must reuse pooled buffers (allocs {allocs}, reuses {reuses})"
        );
        for (p, prod) in snap.producers.iter().enumerate() {
            assert!(prod.epochs_sent > 0, "producer {p} sealed epochs");
            for (s, depth) in prod.ring_depth.iter().enumerate() {
                assert_eq!(*depth, 0, "ring ({p},{s}) drained");
            }
        }
    }

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
    fn finish_after_worker_lost_returns_surviving_rows() {
        // No supervision, shard 0's worker dies mid-stream, and the caller
        // goes straight to finish(): the final flush meets the dead worker
        // again. That must be logged and counted — never a panic — and
        // the surviving shard's rows must come back.
        let stream: Vec<Packet> = (0..4_000)
            .map(|i| pkt(0.01 * i as f64, (i % 7) as u32))
            .collect();
        let mut e = sharded(count_query(), 2)
            .try_batch_size(64)
            .expect("batch")
            .checkpoint_every(0)
            .inject_fault(plan("panic:0:100"));
        let fed = stream
            .iter()
            .take_while(|p| e.try_process(p).is_ok())
            .count();
        assert!(fed < stream.len(), "the dead worker must surface as an Err");
        let rows = e.finish();
        assert!(!rows.is_empty(), "the surviving shard's rows come back");
        let survivors: std::collections::HashSet<u64> = (0..7u32)
            .map(|d| pkt(0.0, d).dst_host())
            .filter(|&k| route_key(k, 2) == 1)
            .collect();
        assert!(rows.iter().all(|r| survivors.contains(&r.key)));
        let snap = e.telemetry().snapshot();
        assert_eq!(snap.worker_panics, 1, "the loss is counted");
        // drain() takes the same path.
        let mut e = sharded(count_query(), 2)
            .try_batch_size(64)
            .expect("batch")
            .checkpoint_every(0)
            .inject_fault(plan("panic:0:100"));
        let _ = stream.iter().try_for_each(|p| e.try_process(p));
        let (rows, _) = e.drain(Duration::from_secs(5));
        assert!(!rows.is_empty());
    }

    /// Applies the whole setter vocabulary in the given order.
    fn configured(order: &[usize], overload: &OverloadConfig) -> ShardedEngine {
        let mut e = sharded(count_query(), 3);
        for step in order {
            e = match step {
                0 => e.routing(ShardBy::RoundRobin),
                1 => e.try_batch_size(128).expect("batch size"),
                2 => e.checkpoint_every(1_000),
                3 => e.max_restarts(2),
                4 => e.try_overload(overload.clone()).expect("overload"),
                5 => e.inject_fault(plan("panic:1:5000")),
                6 => e.try_producers(2).expect("producers"),
                _ => unreachable!("seven setters"),
            };
        }
        e
    }

    #[test]
    fn configuration_is_order_free() {
        // Every setter writes the one EngineConfig and rebuilds from it,
        // so any permutation configures the same engine: same rows (to the
        // bit), same counters, same recovery.
        let stream: Vec<Packet> = (0..30_000)
            .map(|i| pkt(0.01 * i as f64, (i % 53) as u32))
            .collect();
        let want = Engine::new(count_query()).run(stream.clone());
        let overload = OverloadConfig {
            send_deadline: Duration::from_millis(20),
            ..OverloadConfig::default()
        };
        let orders: [[usize; 7]; 5] = [
            [0, 1, 2, 3, 4, 5, 6],
            [6, 5, 4, 3, 2, 1, 0],
            // try_producers before try_overload and max_restarts.
            [6, 4, 3, 0, 1, 2, 5],
            [5, 6, 2, 4, 1, 3, 0],
            [3, 1, 6, 0, 5, 2, 4],
        ];
        let mut seen = Vec::new();
        for order in orders {
            let mut e = configured(&order, &overload);
            assert_eq!(e.n_producers(), 2, "{order:?}");
            let rows = e.run(stream.clone());
            assert_rows_eq(&want, &rows, &format!("{order:?}"));
            let snap = e.telemetry().snapshot();
            assert_eq!((snap.restarts, snap.worker_panics), (1, 1), "{order:?}");
            assert_eq!(snap.degraded_shards, 0, "{order:?}");
            seen.push((
                e.stats(),
                snap.shards.iter().map(|s| s.batches_sent).sum::<u64>(),
                snap.producers.iter().map(|p| p.epochs_sent).sum::<u64>(),
            ));
        }
        assert!(seen.windows(2).all(|w| w[0] == w[1]), "{seen:?}");
    }

    #[test]
    fn invalid_combinations_err_from_whichever_call_completes_them() {
        let is_invalid = |r: Result<ShardedEngine, fd_core::Error>, name: &str| match r {
            Err(fd_core::Error::InvalidParameter { name: n, .. }) => {
                assert_eq!(n, name);
            }
            Err(other) => panic!("expected InvalidParameter({name}), got {other:?}"),
            Ok(_) => panic!("expected InvalidParameter({name}), got an engine"),
        };
        // Zero shards, producers, batch size.
        is_invalid(ShardedEngine::try_new(count_query(), 0), "n_shards");
        is_invalid(sharded(count_query(), 2).try_producers(0), "producers");
        is_invalid(sharded(count_query(), 2).try_batch_size(0), "batch_size");
        // Subsample + an aggregate that cannot be reweighted: undecayed
        // count(*) refuses Horvitz–Thompson scaling, before and after the
        // producer count is set; a decayed linear aggregate accepts it,
        // and the lossless policy suits any aggregate.
        let subsample = OverloadConfig {
            policy: ShedPolicy::Subsample { target_rate: 0.5 },
            ..OverloadConfig::default()
        };
        is_invalid(
            sharded(count_query(), 2).try_overload(subsample.clone()),
            "shed_policy",
        );
        is_invalid(
            sharded(count_query(), 2)
                .try_producers(2)
                .and_then(|e| e.try_overload(subsample.clone())),
            "shed_policy",
        );
        assert!(sharded(fwd_query(), 2)
            .try_overload(subsample.clone())
            .is_ok());
        assert!(sharded(count_query(), 2)
            .try_overload(OverloadConfig::default())
            .is_ok());
        // Lossy shedding + a durable store, in both call orders; and a
        // store without supervision.
        let dir = std::env::temp_dir().join(format!(
            "fd-shard-invalid-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let lossy = OverloadConfig {
            policy: ShedPolicy::DropOldest,
            ..OverloadConfig::default()
        };
        let durable = |e: ShardedEngine| {
            e.try_durable(&dir, DurabilityOptions::default())
                .map(|(e, _)| e)
        };
        is_invalid(
            sharded(fwd_query(), 2)
                .try_overload(lossy.clone())
                .and_then(durable),
            "shed_policy",
        );
        is_invalid(
            durable(sharded(fwd_query(), 2)).and_then(|e| e.try_overload(lossy.clone())),
            "shed_policy",
        );
        is_invalid(
            durable(sharded(fwd_query(), 2).checkpoint_every(0)),
            "checkpoint_every",
        );
        // A valid setter after try_durable rebuilds over the same store.
        let e = durable(sharded(fwd_query(), 2))
            .and_then(|e| e.try_batch_size(64))
            .expect("batch size after the store");
        drop(e);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn telemetry_final_counters_match_stats() {
        let q = Query::builder("tel")
            .filter(|p| p.proto == Proto::Tcp)
            .group_by(|p| p.dst_host())
            .bucket_secs(60)
            .aggregate(count_factory())
            .build();
        let mut e = sharded(q, 3);
        let mut events = Vec::new();
        for i in 0..500 {
            let mut p = pkt(i as f64 * 0.5, (i % 11) as u32);
            if i % 50 == 0 {
                p.proto = Proto::Udp; // filtered out
            }
            events.push(StreamEvent::Data(p));
        }
        events.push(StreamEvent::Punctuation(400 * MICROS_PER_SEC));
        events.push(StreamEvent::Data(pkt(10.0, 1))); // late: dropped
        e.try_process_batch(&events).expect("feed");
        let rows = e.finish();
        let stats = e.stats();
        let snap = e.telemetry().snapshot();
        assert_eq!(snap.tuples_in, stats.tuples_in);
        assert_eq!(snap.filtered, stats.filtered);
        assert_eq!(snap.late_drops, stats.late_drops);
        assert_eq!(snap.rows_out, rows.len() as u64);
        assert_eq!(snap.buckets_closed, stats.buckets_closed);
        assert!(stats.late_drops >= 1);
        assert_eq!(snap.worker_panics, 0);
        // Every queue drained, every shard caught up to the watermark.
        for shard in &snap.shards {
            assert_eq!(shard.queue_depth, 0);
            assert_eq!(shard.watermark_lag_us, 0);
        }
        assert_eq!(
            snap.shards.iter().map(|s| s.tuples_processed).sum::<u64>(),
            stats.tuples_in - stats.filtered - stats.late_drops
        );
    }

    #[test]
    fn parallel_handles_match_single_threaded() {
        // True parallel ingress: P threads each own an IngressHandle and
        // feed an interleaved slice of the stream. Count aggregation is
        // order-insensitive within a bucket and the slices stay within
        // slack of each other, so the rows still match the single-threaded
        // run exactly.
        const P: usize = 3;
        let q = || {
            Query::builder("par")
                .group_by(|p| p.dst_host())
                .bucket_secs(60)
                .slack_secs(30.0)
                .aggregate(count_factory())
                .two_level(true)
                .lfta_slots(64)
                .build()
        };
        let stream: Vec<Packet> = (0..15_000)
            .map(|i| pkt(0.01 * i as f64, (i % 53) as u32))
            .collect();
        let single = Engine::new(q()).run(stream.clone());
        let mut e = sharded(q(), 4)
            .try_batch_size(128)
            .expect("batch")
            .try_producers(P)
            .expect("producers");
        let handles = e.take_ingress_handles();
        let slices: Vec<Vec<Packet>> = (0..P)
            .map(|p| stream.iter().skip(p).step_by(P).copied().collect())
            .collect();
        let joined: Vec<std::thread::JoinHandle<EngineStats>> = handles
            .into_iter()
            .zip(slices)
            .map(|(mut h, slice)| {
                std::thread::spawn(move || {
                    for chunk in slice.chunks(256) {
                        h.ingest(chunk).expect("ingest");
                    }
                    h.finish()
                })
            })
            .collect();
        let mut fed = 0u64;
        for j in joined {
            fed += j.join().expect("producer thread").tuples_in;
        }
        assert_eq!(fed, stream.len() as u64);
        let rows = e.finish();
        assert_rows_eq(&single, &rows, "parallel handles");
        assert_eq!(e.stats().tuples_in, stream.len() as u64);
    }

    #[test]
    fn default_block_policy_sheds_nothing() {
        let stream: Vec<Packet> = (0..5_000)
            .map(|i| pkt(0.01 * i as f64, (i % 13) as u32))
            .collect();
        let single = Engine::new(count_query()).run(stream.clone());
        let mut e = sharded(count_query(), 3);
        let rows = e.run(stream);
        assert_eq!(single.len(), rows.len());
        let snap = e.telemetry().snapshot();
        assert_eq!(snap.shed_tuples, 0);
        assert_eq!(snap.shed_batches, 0);
        assert_eq!(snap.wedged_respawns, 0);
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
    fn drain_on_healthy_engine_reports_clean() {
        let stream: Vec<Packet> = (0..3_000)
            .map(|i| pkt(0.01 * i as f64, (i % 7) as u32))
            .collect();
        let single = Engine::new(count_query()).run(stream.clone());
        let mut e = sharded(count_query(), 2);
        for p in &stream {
            e.try_process(p).expect("feed");
        }
        let (rows, report) = e.drain(Duration::from_secs(10));
        assert_eq!(single.len(), rows.len());
        assert!(!report.deadline_expired);
        assert!(!report.data_lost());
        assert_eq!(report.unflushed_epochs, 0);
        assert!(report.per_shard_lag.iter().all(|&l| l == 0));
        // A second drain on a finished engine is a no-op.
        let (rows2, report2) = e.drain(Duration::from_secs(1));
        assert!(rows2.is_empty());
        assert!(!report2.data_lost());
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
