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
//! and merges the per-shard closed buckets at the end.
//!
//! ## The ingress plane
//!
//! There is one: `P` [`IngressHandle`]s (default 1), each owning a full
//! admit-route-stage loop, feed every shard worker through a dedicated
//! per-(producer, shard) SPSC ring. A handle admits a tuple — selection,
//! the late check, the watermark advance — through the same type as the
//! single-threaded [`Engine`], before routing it; a worker's engine closes
//! buckets at the least of its producers' watermarks, so it never drops a
//! tuple a handle admitted. Staged tuples ship as *epochs*: one
//! sequence-numbered message to **every** shard (possibly empty), carrying
//! the handle's watermark — a watermark broadcast is an empty epoch. The
//! engine itself drives the handles in *coordinator mode* (the feed
//! methods below); [`ShardedEngine::take_ingress_handles`] detaches them
//! for genuinely parallel feeding.
//!
//! Workers run in *state mode*: a closed bucket is kept as its typed run —
//! its groups' raw states, sorted by key once, in one box per bucket —
//! rather than evaluated into rows.
//! [`ShardedEngine::finish`] collects the shards' runs in shard order (a
//! shard's slot before its worker's tail), orders them stably by bucket,
//! and merges each bucket's runs key by key — the states that met a group
//! on different shards, in that order — evaluating
//! each group at its bucket end as it goes: rows in the same (bucket, key)
//! order as the single-threaded engine, with no sort of the groups.
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
//! Each worker periodically serializes its *open* state into a shared
//! [`CheckpointSlot`] ([`Engine::checkpoint`] — forward decay's frozen
//! numerators make the snapshot plain data, exact to the bit) and, in the
//! same critical section, moves the run of every bucket closed since its
//! previous checkpoint into the slot: a closed bucket leaves the worker
//! exactly once and is never serialized again, so a checkpoint costs what
//! the open state costs however long the stream has run.
//!
//! What a recovery needs besides the snapshot is the messages after it,
//! and those are still where they were sent: the per-(producer, shard)
//! queue ([`crate::spsc`]) *retains* an entry after the worker has read
//! it — behind a read cursor, out of the sender's sight (capacity,
//! back-pressure and `DropOldest` see unread entries only) — until the
//! worker *releases* it, which it does for everything a checkpoint it has
//! just published covers. The queues live as long as the plane; a worker
//! is one reader *incarnation* of them. When a send finds the reader gone
//! (the worker panicked), or the queue full past its deadline and the
//! worker's lease stale (it is wedged), the supervisor reaps or retires
//! that incarnation, restores an engine from the slot after an
//! exponential backoff, and attaches a fresh incarnation to every queue at
//! the first entry past the slot's seq. The new worker re-reads the tail;
//! nothing is re-sent, so no message can arrive twice, and a retired
//! incarnation's receivers are inert: it can neither take an entry nor
//! close a queue. The run then continues **byte-identically**: the
//! restored LFTA slots sit in their exact old positions, so every future
//! fold/evict/flush — and every floating-point combination order — is
//! unchanged, and the slot's closed runs stay where they are (the
//! snapshot does not hold them, so re-reading cannot close them twice). A
//! shard that exhausts its restart budget (a poison-pill input, say) is
//! *degraded*: what its queues held and later tuples routed to it are
//! counted dropped, and its last checkpoint — the slot's closed runs
//! plus the buckets open in the snapshot — is still salvaged into the
//! final result at [`ShardedEngine::finish`]. Every recovery action is
//! observable in [`EngineTelemetry`]: `restarts`, `checkpoints`,
//! `replayed_batches` / `replayed_tuples` (what a fresh incarnation found
//! to read), `degraded_shards`, `dropped_degraded`.
//!
//! Supervision is on by default (at least [`DEFAULT_CHECKPOINT_EVERY`]
//! tuples between checkpoints, more for a snapshot heavier than that many
//! packets: [`crate::supervisor::checkpoint_interval`]);
//! [`ShardedEngine::checkpoint_every`] tunes that floor, and `0` disables
//! the whole layer — no checkpoints, nothing retained (the worker moves
//! each message out of its queue), and a dead worker is a hard error
//! ([`fd_core::Error::WorkerLost`]). Every built-in aggregate
//! checkpoints, the samplers included; whether a query is supervised is
//! settled when the engine is configured, which asks one fresh aggregator
//! to checkpoint. A hand-written UDAF that declines runs
//! as with `0`, and a durable store refuses it.
//!
//! ## Configuration
//!
//! Every builder-style setter writes one private `EngineConfig` value and
//! rebuilds the plane from it (the workers have seen nothing yet, so
//! retiring them is free). Setters therefore work in any order, and an
//! invalid *combination* is an error from whichever call completes it.

mod combine;
mod ingress;
mod recover;
mod worker;

use std::path::PathBuf;
#[cfg(test)]
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

use crate::durability::{CommitState, DurabilityOptions, DurableSink, RecoveryReport};
use crate::engine::{EngineStats, Row, StreamEvent};
use crate::fault::FaultPlan;
use crate::overload::{OverloadConfig, ScaleColumn, ShedPolicy};
use crate::spsc::BatchPool;
use crate::supervisor::{DEFAULT_CHECKPOINT_EVERY, DEFAULT_MAX_RESTARTS};
use crate::telemetry::EngineTelemetry;
use crate::tuple::{Micros, Packet};
use crate::udaf::Query;
#[cfg(doc)]
use crate::{engine::Engine, fault::FaultKind, io::FaultyFs, supervisor::CheckpointSlot};

pub use ingress::IngressHandle;
use recover::{spawn_plane, FabShared};

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
/// `Arc` so a supervised worker reads a message without copying it out of
/// the queue that retains it; in unsupervised mode the message moves out,
/// the worker holds the only reference and recycles the buffer. `pkts` may
/// be empty — every shard sees every seq, and a bare watermark broadcast
/// is exactly that.
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

/// Per-(producer, shard) ring depth, in epochs. Each shard worker drains
/// its `P` rings in strict rotation, so a producer can only ever run this
/// many epochs ahead of the slowest producer. Deep enough that a worker
/// pausing to serialize a checkpoint (~1 ms on the fig2 workload) drains
/// queued batches afterwards instead of stalling its senders — and that,
/// with more shards than cores, a sender rarely parks on one shard's full
/// ring while the others starve; it also bounds the memory the `P × N`
/// rings can pin.
pub const FABRIC_RING_DEPTH: usize = 32;

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

    /// Whether supervision is active: workers checkpoint, and retain what
    /// they read in between for a successor to re-read.
    fn supervising(&self) -> bool {
        self.checkpoint_every > 0
    }

    /// Checks the combination, whichever setter completed it, and returns
    /// the configuration the plane runs: unsupervised, as with
    /// `checkpoint_every(0)`, if a fresh aggregate declines to checkpoint.
    fn validate(&self, query: &Query) -> Result<Self, fd_core::Error> {
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
            if !query.aggregate.scalable() {
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
        // Only a hand-written UDAF declines; a store, which persists
        // checkpoints, refuses it by name.
        let (mut cfg, probe) = (self.clone(), query.aggregate.make(0));
        if probe.checkpoint_into(&mut Vec::new()).is_none() {
            if self.store.is_some() {
                let name = query.aggregate.name();
                let detail = format!("aggregate '{name}' does not checkpoint");
                return Err(fd_core::Error::Durability { detail });
            }
            cfg.checkpoint_every = 0;
        }
        Ok(cfg)
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
///     .try_build()?;
/// let mut sharded = ShardedEngine::try_new(query, 4)?;
/// # let pkt = Packet { ts: 1_000_000, src_ip: 1, dst_ip: 2, src_port: 3,
/// #                    dst_port: 80, len: 100, proto: Proto::Tcp };
/// sharded.try_process_batch(&[StreamEvent::Data(pkt)])?;
/// let rows = sharded.finish();
/// assert_eq!(rows.len(), 1);
/// # Ok::<(), fd_core::Error>(())
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
    /// error. Without a store a rebuild fails only if the OS refuses a
    /// worker thread; with one (a setter called after
    /// [`try_durable`](Self::try_durable)) it reopens the store and can.
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

    /// Sets how many tuples a worker applies at least between engine
    /// checkpoints (default [`DEFAULT_CHECKPOINT_EVERY`]; more after a
    /// heavier snapshot: [`crate::supervisor::checkpoint_interval`]).
    /// Smaller intervals shorten the re-read tail at the price of more
    /// serialization; `0` disables supervision entirely — no checkpoints,
    /// nothing retained, and a dead worker is a hard error.
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
    /// is preloaded into the queues the workers read, and the returned
    /// [`RecoveryReport`] says from which input `position` the caller must
    /// re-feed its stream. Results are then bit-identical to a run that
    /// never crashed (for deterministic queries). Torn WAL tails are
    /// truncated and counted, never an error; a store damaged *below* its
    /// last commit is an explicit [`fd_core::Error::Durability`]. A store
    /// resumes only under the shard and producer counts that wrote it (the
    /// epoch interleaving is producer-count-specific), and one holding
    /// anything this build does not write is refused by name: there is no
    /// upgrade path. A refused store is left byte for byte as found.
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
        let report = self.rebuild()?.ok_or_else(|| fd_core::Error::Durability {
            detail: "the rebuilt engine opened no store".into(),
        })?;
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
        let producers = self.handles.iter().map(|h| h.commit_block()).collect();
        if let Some(d) = self.durable.as_mut() {
            d.commit(CommitState::new(position, self.cfg.n_shards, producers));
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

    /// Offers one tuple: admission (filter, late check, watermark), decided
    /// as [`Engine::process`] decides it, then staging for the owning
    /// shard. Reports [`fd_core::Error::WorkerLost`] when an
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
        while !rest.is_empty() {
            let (used, full) = self.handles[self.cursor].stage(rest);
            rest = &rest[used..];
            if full {
                self.seal_current()?;
            }
        }
        Ok(())
    }

    /// Processes a punctuation: advances every handle's watermark and
    /// broadcasts it as one epoch per handle, closing due buckets on
    /// every shard. Errors as [`try_process`](Self::try_process).
    pub fn try_punctuate(&mut self, ts: Micros) -> Result<(), fd_core::Error> {
        self.started = true;
        for h in &mut self.handles {
            h.punctuate(ts);
        }
        self.broadcast()
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
        let wm = self.handles.iter().map(|h| h.adm.watermark).max();
        for h in &mut self.handles {
            h.punctuate(wm.unwrap_or(0));
        }
        if self.handles.iter().any(IngressHandle::dirty) {
            if let Err(e) = self.broadcast() {
                eprintln!("fd-finish: final flush failed: {e}");
            }
        }
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
            stats.tuples_in += h.adm.stats.tuples_in;
            stats.filtered += h.adm.stats.filtered;
            stats.late_drops += h.adm.stats.late_drops;
        }
        stats
    }

    /// Raw per-shard engine counters (populated by
    /// [`ShardedEngine::finish`]).
    pub fn per_shard_stats(&self) -> &[EngineStats] {
        &self.shard_stats
    }

    /// Closes every queue and reaps the workers. A worker panic must not
    /// be swallowed silently: it cannot propagate from here (we may
    /// already be unwinding), so it is counted in the telemetry registry
    /// and logged. The durability writer is abandoned, not finished: it
    /// stops without any further fsync, rename or manifest commit.
    fn retire(&mut self) {
        self.durable = None;
        // Dropping the coordinator handles closes their queues; close
        // those of handles taken and still out there too, then join.
        self.handles.clear();
        self.fab.shut_down();
    }
}

impl Drop for ShardedEngine {
    fn drop(&mut self) {
        // An abandoned engine must not leak threads.
        self.retire();
    }
}

#[cfg(test)]
mod testkit {
    use super::*;
    pub(super) use crate::aggregators::{count_factory, fwd_sum_factory};
    pub(super) use crate::engine::Engine;
    pub(super) use crate::tuple::Proto;
    pub(super) use crate::tuple::MICROS_PER_SEC;
    pub(super) use fd_core::decay::Monomial;
    pub(super) use std::time::Duration;

    pub(super) fn pkt(ts_s: f64, dst_ip: u32) -> Packet {
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

    pub(super) fn count_query() -> Query {
        Query::builder("count")
            .group_by(|p| p.dst_host())
            .bucket_secs(60)
            .aggregate(count_factory())
            .two_level(true)
            .lfta_slots(64)
            .try_build()
            .expect("valid query")
    }

    pub(super) fn fwd_query() -> Query {
        Query::builder("fwd")
            .group_by(|p| p.dst_host())
            .bucket_secs(60)
            .aggregate(fwd_sum_factory(Monomial::quadratic(), |p| p.len as f64))
            .two_level(false)
            .try_build()
            .expect("valid query")
    }

    pub(super) fn sharded(query: Query, n: usize) -> ShardedEngine {
        ShardedEngine::try_new(query, n).expect("spawn shards")
    }

    pub(super) fn plan(spec: &str) -> FaultPlan {
        FaultPlan::parse(spec).expect("plan")
    }

    /// Same rows, same order, same values — to the bit.
    pub(super) fn assert_rows_eq(want: &[Row], got: &[Row], label: &str) {
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
}

#[cfg(test)]
mod tests {
    use super::testkit::*;
    use super::*;

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
    fn validating_a_config_reads_scalability_from_the_factory() {
        use crate::udaf::{Aggregator, AggregatorFactory};
        use std::sync::atomic::AtomicUsize;

        /// Counts `make` calls; says for itself whether it scales.
        struct Counting {
            inner: Arc<dyn AggregatorFactory>,
            scalable: Option<bool>,
            makes: Arc<AtomicUsize>,
        }
        impl AggregatorFactory for Counting {
            fn make(&self, bucket_start: Micros) -> Box<dyn Aggregator> {
                self.makes.fetch_add(1, Relaxed);
                self.inner.make(bucket_start)
            }
            fn name(&self) -> &str {
                self.inner.name()
            }
            fn splittable(&self) -> bool {
                self.inner.splittable()
            }
            fn scalable(&self) -> bool {
                self.scalable.unwrap_or_else(|| self.inner.scalable())
            }
        }
        let makes = Arc::new(AtomicUsize::new(0));
        let query = |inner: Arc<dyn AggregatorFactory>, scalable| {
            let makes = Arc::clone(&makes);
            Query::builder("counting")
                .group_by(|p| p.dst_host())
                .aggregate(Arc::new(Counting {
                    inner,
                    scalable,
                    makes,
                }))
                .try_build()
                .expect("valid query")
        };
        let subsample = OverloadConfig {
            policy: ShedPolicy::Subsample { target_rate: 0.5 },
            ..OverloadConfig::default()
        };
        let fwd_sum = || fwd_sum_factory(Monomial::quadratic(), |p| p.len as f64);
        // Several rebuilds of a Subsample configuration, each validated.
        let e = sharded(query(fwd_sum(), None), 2)
            .try_overload(subsample.clone())
            .and_then(|e| e.try_producers(2))
            .and_then(|e| e.try_batch_size(64))
            .expect("a linear decayed aggregate may be subsampled");
        drop(e);
        // The fact is the factory's: one that answers `false` is refused
        // whatever its aggregators could do, and a hand-written UDAF
        // factory that says nothing is refused as before.
        assert!(sharded(query(fwd_sum(), Some(false)), 2)
            .try_overload(subsample.clone())
            .is_err());
        let silent = crate::udaf::FnFactory::new("udaf", false, move |start| fwd_sum().make(start));
        assert!(!silent.scalable());
        assert!(sharded(query(silent, None), 2)
            .try_overload(subsample)
            .is_err());
        // Each of the six configurations accepted above asked one fresh
        // aggregator whether it checkpoints; the refused ones built none.
        assert_eq!(
            makes.load(Relaxed),
            6,
            "one checkpoint probe per validation"
        );
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
}
