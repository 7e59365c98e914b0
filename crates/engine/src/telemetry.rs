//! Live, lock-free observability for the sharded engine.
//!
//! PR 1's [`EngineStats`](crate::engine::EngineStats) is six plain counters
//! populated only at `finish()` — useless for watching a running pipeline.
//! This module is the always-on counterpart: an [`EngineTelemetry`] registry
//! shared (via `Arc`) between the dispatcher, the N shard workers and the
//! combiner, updated with relaxed atomics on the hot path and readable from
//! any thread at any time.
//!
//! Three cost rules keep the instrumentation nearly free:
//!
//! 1. **Single-writer counters are `store`s, not `fetch_add`s.** Every
//!    admission counter has exactly one writer (the dispatcher) which
//!    already keeps the count in a local `EngineStats`; mirroring it is one
//!    relaxed store of a register, with no read-modify-write bus traffic.
//!    The same holds per shard for the worker-side gauges.
//! 2. **Read-modify-write only where two threads genuinely race** — the
//!    queue-depth gauge (incremented by the dispatcher, decremented by the
//!    worker) — and then only once per *batch*, not per tuple.
//! 3. **Histograms record per batch.** With the engine's 1024-tuple flush
//!    threshold that is three orders of magnitude fewer atomic ops than
//!    per-tuple timing.
//!
//! Snapshots ([`EngineTelemetry::snapshot`]) are `Relaxed` reads: cheap,
//! wait-free, and (like any multi-word sample of live counters) not a
//! single atomic cut of the whole registry — fine for monitoring, which is
//! what this is for. After `finish()` the counters are quiescent and agree
//! exactly with [`EngineStats`](crate::engine::EngineStats).
//!
//! [`MetricsSnapshot`] serializes to Prometheus text format
//! ([`MetricsSnapshot::to_prometheus`]) and JSON
//! ([`MetricsSnapshot::to_json`]); [`Reporter`] drives a background thread
//! that emits a snapshot every fixed interval.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Number of power-of-two buckets in a [`LogHistogram`]: bucket 0 holds the
/// value 0, bucket `i ≥ 1` holds values in `[2^(i−1), 2^i)`, and the last
/// bucket absorbs everything above `2^62`.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A lock-free histogram with power-of-two buckets, for latency-style
/// `u64` samples (nanoseconds, microseconds — any unit).
///
/// `record` is one relaxed `fetch_add` on the owning bucket; quantile
/// estimates come from a cumulative scan of a [`snapshot`], reporting the
/// (exclusive) upper bound of the bucket containing the target rank — an
/// estimate within 2× of the true sample value, which is the right
/// resolution for dashboards and regression gates.
///
/// [`snapshot`]: LogHistogram::snapshot
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The bucket index for a value: 0 for 0, else `floor(log2(v)) + 1`,
    /// clamped to the last bucket.
    #[inline]
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one sample. Wait-free; one relaxed `fetch_add`.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Relaxed);
    }

    /// A point-in-time copy of the bucket counts with precomputed
    /// p50/p95/p99 estimates.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; HISTOGRAM_BUCKETS];
        for (c, b) in counts.iter_mut().zip(&self.buckets) {
            *c = b.load(Relaxed);
        }
        HistogramSnapshot::from_counts(counts)
    }
}

/// A point-in-time view of a [`LogHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total number of recorded samples.
    pub count: u64,
    /// Upper-bound estimate of the 50th percentile (0 when empty).
    pub p50: u64,
    /// Upper-bound estimate of the 95th percentile (0 when empty).
    pub p95: u64,
    /// Upper-bound estimate of the 99th percentile (0 when empty).
    pub p99: u64,
}

impl HistogramSnapshot {
    fn from_counts(counts: [u64; HISTOGRAM_BUCKETS]) -> Self {
        let count: u64 = counts.iter().sum();
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            // Rank of the q-th percentile sample, 1-based.
            let target = ((count as f64 * q).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                seen += c;
                if seen >= target {
                    // Exclusive upper bound of bucket i: 2^i (bucket 0 → 0).
                    return if i == 0 { 0 } else { 1u64 << i.min(63) };
                }
            }
            u64::MAX
        };
        Self {
            count,
            p50: quantile(0.50),
            p95: quantile(0.95),
            p99: quantile(0.99),
        }
    }
}

/// Live counters and gauges for one shard worker and its channel.
///
/// Writer discipline: `queue_depth` is the only two-writer field
/// (the sending handle increments, the worker decrements — both per
/// message); `batches_sent` is sender-only, everything else is
/// worker-only (`closed_groups_held` also by the recovery that preloads
/// or respawns the worker, which never runs beside it).
#[derive(Debug, Default)]
pub struct ShardTelemetry {
    /// Epoch messages currently queued to this shard.
    pub queue_depth: AtomicU64,
    /// Epoch messages sent to this shard (empty watermark carriers
    /// included).
    pub batches_sent: AtomicU64,
    /// Tuples the worker has applied to its engine.
    pub tuples_processed: AtomicU64,
    /// The highest watermark (µs) the worker has applied. The difference
    /// from [`EngineTelemetry::dispatcher_watermark`] is this shard's
    /// watermark lag.
    pub applied_watermark: AtomicU64,
    /// The worker engine's LFTA evictions so far.
    pub lfta_evictions: AtomicU64,
    /// The worker engine's current LFTA slot occupancy.
    pub lfta_occupancy: AtomicU64,
    /// Tuples the overload controller shed on this shard's ring
    /// (displaced batches under `DropOldest`, thinned-away tuples under
    /// `Subsample`). Sheds are never silent — every one is counted here
    /// and in [`EngineTelemetry::shed_tuples`].
    pub shed_tuples: AtomicU64,
    /// Closed groups parked in this shard's checkpoint slot as of its
    /// last checkpoint: handed off when their bucket closed, they wait
    /// there — outside every later snapshot — for the end of the run.
    pub closed_groups_held: AtomicU64,
    /// Per-batch worker processing time, nanoseconds.
    pub batch_ns: LogHistogram,
    /// Dispatch-to-apply latency per batch (send to fully processed),
    /// nanoseconds: queueing delay plus processing time.
    pub dispatch_lag_ns: LogHistogram,
}

/// Live counters and gauges for one ingress producer of a multi-producer
/// fabric run and its per-shard rings.
///
/// Writer discipline mirrors [`ShardTelemetry`]: each `ring_depth[s]`
/// gauge is the only two-writer field (the producer's handle increments
/// on send, the shard worker decrements on apply — both per epoch
/// message); everything else is written only by the owning ingress
/// handle, so the live mirrors are relaxed stores of handle-local counts.
#[derive(Debug, Default)]
pub struct ProducerTelemetry {
    /// Tuples offered to this producer's ingress handle.
    pub tuples_in: AtomicU64,
    /// Tuples this handle's selection filter rejected.
    pub filtered: AtomicU64,
    /// Tuples this handle dropped as late against its local boundary.
    pub late_drops: AtomicU64,
    /// The handle's local admission watermark, µs.
    pub watermark_us: AtomicU64,
    /// Epochs sealed (each ships one message per shard).
    pub epochs_sent: AtomicU64,
    /// This producer's batch-pool recycles (mirror of its
    /// [`BatchPool::reuses`](crate::spsc::BatchPool::reuses)).
    pub pool_reuses: AtomicU64,
    /// This producer's batch-pool cold allocations (mirror of its
    /// [`BatchPool::allocs`](crate::spsc::BatchPool::allocs)).
    pub pool_allocs: AtomicU64,
    /// Tuples the overload controller shed from this producer's epochs
    /// (whole-epoch drops under `DropOldest`, thinned-away tuples under
    /// `Subsample`).
    pub shed_tuples: AtomicU64,
    /// Messages in flight on this producer's ring to each shard.
    pub ring_depth: Vec<AtomicU64>,
}

impl ProducerTelemetry {
    fn new(n_shards: usize) -> Self {
        Self {
            ring_depth: (0..n_shards).map(|_| AtomicU64::new(0)).collect(),
            ..Self::default()
        }
    }
}

/// The shared metrics registry of a sharded engine run.
///
/// One instance lives behind an `Arc` held by the dispatcher
/// ([`ShardedEngine`](crate::shard::ShardedEngine)), every worker thread,
/// and anyone who grabbed
/// [`ShardedEngine::telemetry`](crate::shard::ShardedEngine::telemetry) —
/// which stays readable (and keeps the final counters) after the engine is
/// finished or dropped.
#[derive(Debug)]
pub struct EngineTelemetry {
    /// Tuples offered (mirror of `EngineStats::tuples_in`). This and the
    /// next three fields are read only by a registry without producer
    /// slots; with producers, [`snapshot`](Self::snapshot) sums theirs.
    pub tuples_in: AtomicU64,
    /// Tuples rejected by the selection filter.
    pub filtered: AtomicU64,
    /// Tuples dropped for arriving after their bucket closed.
    pub late_drops: AtomicU64,
    /// The dispatcher's global watermark, µs.
    pub dispatcher_watermark: AtomicU64,
    /// Worker threads that terminated by panicking (see
    /// `Drop for ShardedEngine`).
    pub worker_panics: AtomicU64,
    /// Shard workers respawned by the supervisor after a death.
    pub restarts: AtomicU64,
    /// Engine checkpoints taken by shard workers.
    pub checkpoints: AtomicU64,
    /// Total worker **CPU time** spent serializing and publishing
    /// checkpoints, ns (thread clock where available, so time the worker
    /// spends preempted mid-serialization is not charged here). Dividing
    /// by `checkpoints` gives the mean per-checkpoint cost; on machines
    /// with fewer cores than shards this CPU also lands on wall-clock
    /// because serialization cannot overlap the dispatcher.
    pub checkpoint_ns: AtomicU64,
    /// Total snapshot bytes workers have serialized. Dividing by
    /// `checkpoints` gives the mean snapshot size, which tracks the
    /// shards' *open* state: it stays flat as buckets close, however long
    /// the stream runs.
    pub checkpoint_bytes: AtomicU64,
    /// Non-empty batches a respawned worker found waiting in the shard's
    /// queues past its checkpoint, to (re-)read.
    pub replayed_batches: AtomicU64,
    /// Tuples inside replayed batches. Replays re-run through the worker,
    /// so per-shard `tuples_processed` counts them again; reconcile with
    /// `tuples_processed ≥ admitted − dropped` rather than equality when
    /// restarts occurred.
    pub replayed_tuples: AtomicU64,
    /// Shards given up on after exhausting their restart budget (their
    /// last checkpoint is still salvaged at `finish()`).
    pub degraded_shards: AtomicU64,
    /// Tuples dropped because their shard was degraded: what its queues
    /// held at degradation time plus everything routed there after.
    pub dropped_degraded: AtomicU64,
    /// Result rows emitted by the combiner (set at `finish()`).
    pub rows_out: AtomicU64,
    /// Distinct time buckets closed by the combiner (set at `finish()`).
    pub buckets_closed: AtomicU64,
    /// Bytes appended to WAL segments (framing included) by the durable
    /// store's writer thread.
    pub wal_bytes_written: AtomicU64,
    /// Torn or corrupt WAL/checkpoint records truncated during recovery
    /// (plus unreachable segments dropped along with them).
    pub wal_records_truncated: AtomicU64,
    /// Engine checkpoints persisted to disk (distinct from `checkpoints`,
    /// which counts in-memory slot publishes by workers).
    pub checkpoints_persisted: AtomicU64,
    /// WAL batch records replayed through the normal batch path during
    /// startup recovery (distinct from `replayed_batches`, which also
    /// counts in-process re-reads after a worker crash).
    pub recovery_replayed_batches: AtomicU64,
    /// 1 when the durable store hit a persistent disk failure and the
    /// engine fell back to in-memory supervision only, else 0.
    pub durability_degraded: AtomicU64,
    /// Tuples shed by the overload controller across all shards and
    /// producers. Zero under `ShedPolicy::Block`.
    pub shed_tuples: AtomicU64,
    /// Whole batches/epochs shed by the overload controller.
    pub shed_batches: AtomicU64,
    /// Wedged (unresponsive but not dead) workers abandoned and respawned
    /// by the stuck-shard watchdog.
    pub wedged_respawns: AtomicU64,
    enabled: AtomicBool,
    shards: Vec<ShardTelemetry>,
    producers: Vec<ProducerTelemetry>,
}

impl EngineTelemetry {
    /// A zeroed registry for `n_shards` shards, with live updates enabled.
    pub fn new(n_shards: usize) -> Self {
        Self::with_producers(n_shards, 0)
    }

    /// A zeroed registry for `n_shards` shards and `n_producers` ingress
    /// handles (a [`ShardedEngine`](crate::shard::ShardedEngine) has at
    /// least one). `new(n)` is `with_producers(n, 0)`: no producer
    /// section, the shape the single-threaded engine's synthesized
    /// snapshot has.
    pub fn with_producers(n_shards: usize, n_producers: usize) -> Self {
        Self {
            tuples_in: AtomicU64::new(0),
            filtered: AtomicU64::new(0),
            late_drops: AtomicU64::new(0),
            dispatcher_watermark: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            checkpoint_ns: AtomicU64::new(0),
            checkpoint_bytes: AtomicU64::new(0),
            replayed_batches: AtomicU64::new(0),
            replayed_tuples: AtomicU64::new(0),
            degraded_shards: AtomicU64::new(0),
            dropped_degraded: AtomicU64::new(0),
            rows_out: AtomicU64::new(0),
            buckets_closed: AtomicU64::new(0),
            wal_bytes_written: AtomicU64::new(0),
            wal_records_truncated: AtomicU64::new(0),
            checkpoints_persisted: AtomicU64::new(0),
            recovery_replayed_batches: AtomicU64::new(0),
            durability_degraded: AtomicU64::new(0),
            shed_tuples: AtomicU64::new(0),
            shed_batches: AtomicU64::new(0),
            wedged_respawns: AtomicU64::new(0),
            enabled: AtomicBool::new(true),
            shards: (0..n_shards).map(|_| ShardTelemetry::default()).collect(),
            producers: (0..n_producers)
                .map(|_| ProducerTelemetry::new(n_shards))
                .collect(),
        }
    }

    /// Whether hot-path mirroring is on (see
    /// [`ShardedEngine::live_telemetry`](crate::shard::ShardedEngine::live_telemetry)).
    /// End-of-run counters are recorded either way.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Relaxed)
    }

    /// Turns hot-path mirroring on or off (the per-tuple admission mirrors
    /// and the per-batch worker gauges/histograms).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Relaxed);
    }

    /// Per-shard registries, indexed like the engine's shards.
    pub fn shards(&self) -> &[ShardTelemetry] {
        &self.shards
    }

    /// Per-producer registries, indexed like the fabric's ingress handles.
    /// Empty unless the registry was built with
    /// [`with_producers`](Self::with_producers).
    pub fn producers(&self) -> &[ProducerTelemetry] {
        &self.producers
    }

    /// A relaxed point-in-time sample of every counter, gauge and
    /// histogram. Callable from any thread, mid-stream or after the run.
    pub fn snapshot(&self) -> MetricsSnapshot {
        // Admission happens on the ingress producers: with any registered,
        // the engine-wide figures are their sums (and the furthest
        // watermark), so no thread has to mirror totals on the hot path.
        let sum = |own: &AtomicU64, of: fn(&ProducerTelemetry) -> &AtomicU64| {
            if self.producers.is_empty() {
                own.load(Relaxed)
            } else {
                self.producers.iter().map(|p| of(p).load(Relaxed)).sum()
            }
        };
        let dispatcher_watermark_us = self
            .producers
            .iter()
            .map(|p| p.watermark_us.load(Relaxed))
            .max()
            .unwrap_or_else(|| self.dispatcher_watermark.load(Relaxed));
        MetricsSnapshot {
            tuples_in: sum(&self.tuples_in, |p| &p.tuples_in),
            filtered: sum(&self.filtered, |p| &p.filtered),
            late_drops: sum(&self.late_drops, |p| &p.late_drops),
            dispatcher_watermark_us,
            worker_panics: self.worker_panics.load(Relaxed),
            restarts: self.restarts.load(Relaxed),
            checkpoints: self.checkpoints.load(Relaxed),
            checkpoint_ns: self.checkpoint_ns.load(Relaxed),
            checkpoint_bytes: self.checkpoint_bytes.load(Relaxed),
            replayed_batches: self.replayed_batches.load(Relaxed),
            replayed_tuples: self.replayed_tuples.load(Relaxed),
            degraded_shards: self.degraded_shards.load(Relaxed),
            dropped_degraded: self.dropped_degraded.load(Relaxed),
            rows_out: self.rows_out.load(Relaxed),
            buckets_closed: self.buckets_closed.load(Relaxed),
            wal_bytes_written: self.wal_bytes_written.load(Relaxed),
            wal_records_truncated: self.wal_records_truncated.load(Relaxed),
            checkpoints_persisted: self.checkpoints_persisted.load(Relaxed),
            recovery_replayed_batches: self.recovery_replayed_batches.load(Relaxed),
            durability_degraded: self.durability_degraded.load(Relaxed),
            shed_tuples: self.shed_tuples.load(Relaxed),
            shed_batches: self.shed_batches.load(Relaxed),
            wedged_respawns: self.wedged_respawns.load(Relaxed),
            shards: self
                .shards
                .iter()
                .map(|s| {
                    let applied = s.applied_watermark.load(Relaxed);
                    ShardSnapshot {
                        queue_depth: s.queue_depth.load(Relaxed),
                        batches_sent: s.batches_sent.load(Relaxed),
                        tuples_processed: s.tuples_processed.load(Relaxed),
                        applied_watermark_us: applied,
                        watermark_lag_us: dispatcher_watermark_us.saturating_sub(applied),
                        lfta_evictions: s.lfta_evictions.load(Relaxed),
                        lfta_occupancy: s.lfta_occupancy.load(Relaxed),
                        shed_tuples: s.shed_tuples.load(Relaxed),
                        closed_groups_held: s.closed_groups_held.load(Relaxed),
                        batch_ns: s.batch_ns.snapshot(),
                        dispatch_lag_ns: s.dispatch_lag_ns.snapshot(),
                    }
                })
                .collect(),
            producers: self
                .producers
                .iter()
                .map(|p| ProducerSnapshot {
                    tuples_in: p.tuples_in.load(Relaxed),
                    filtered: p.filtered.load(Relaxed),
                    late_drops: p.late_drops.load(Relaxed),
                    watermark_us: p.watermark_us.load(Relaxed),
                    epochs_sent: p.epochs_sent.load(Relaxed),
                    pool_reuses: p.pool_reuses.load(Relaxed),
                    pool_allocs: p.pool_allocs.load(Relaxed),
                    shed_tuples: p.shed_tuples.load(Relaxed),
                    ring_depth: p.ring_depth.iter().map(|d| d.load(Relaxed)).collect(),
                })
                .collect(),
        }
    }
}

/// One ingress producer's slice of a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProducerSnapshot {
    /// Tuples offered to this producer's handle.
    pub tuples_in: u64,
    /// Tuples its selection filter rejected.
    pub filtered: u64,
    /// Late tuples it dropped at admission.
    pub late_drops: u64,
    /// Its local admission watermark, µs.
    pub watermark_us: u64,
    /// Epochs it has sealed (one message per shard each).
    pub epochs_sent: u64,
    /// Its batch-pool recycles.
    pub pool_reuses: u64,
    /// Its batch-pool cold allocations.
    pub pool_allocs: u64,
    /// Tuples the overload controller shed from its epochs.
    pub shed_tuples: u64,
    /// In-flight messages on its ring to each shard, indexed by shard.
    pub ring_depth: Vec<u64>,
}

/// One shard's slice of a [`MetricsSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Messages queued to the shard at sample time.
    pub queue_depth: u64,
    /// Batches sent to the shard so far.
    pub batches_sent: u64,
    /// Tuples the worker has applied.
    pub tuples_processed: u64,
    /// Watermark the worker has applied, µs.
    pub applied_watermark_us: u64,
    /// `dispatcher_watermark − applied_watermark`, µs.
    pub watermark_lag_us: u64,
    /// LFTA evictions on this shard.
    pub lfta_evictions: u64,
    /// Current LFTA slot occupancy on this shard.
    pub lfta_occupancy: u64,
    /// Tuples the overload controller shed on this shard's ring.
    pub shed_tuples: u64,
    /// Closed groups parked in the shard's checkpoint slot as of its last
    /// checkpoint.
    pub closed_groups_held: u64,
    /// Per-batch processing-time histogram.
    pub batch_ns: HistogramSnapshot,
    /// Dispatch-to-apply latency histogram.
    pub dispatch_lag_ns: HistogramSnapshot,
}

/// A point-in-time sample of a whole engine's telemetry: plain data,
/// detached from the atomics, serializable to Prometheus text format and
/// JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Tuples offered to the dispatcher.
    pub tuples_in: u64,
    /// Tuples rejected by the selection filter.
    pub filtered: u64,
    /// Late tuples dropped at admission.
    pub late_drops: u64,
    /// Dispatcher watermark, µs.
    pub dispatcher_watermark_us: u64,
    /// Worker threads that have panicked.
    pub worker_panics: u64,
    /// Shard workers respawned by the supervisor.
    pub restarts: u64,
    /// Engine checkpoints taken by shard workers.
    pub checkpoints: u64,
    /// Total worker CPU time spent serializing and publishing
    /// checkpoints, ns.
    pub checkpoint_ns: u64,
    /// Total snapshot bytes serialized by worker checkpoints.
    pub checkpoint_bytes: u64,
    /// Batches (re-)read from the queues after a restart.
    pub replayed_batches: u64,
    /// Tuples inside replayed batches (counted again in the owning shard's
    /// `tuples_processed`).
    pub replayed_tuples: u64,
    /// Shards degraded after exhausting their restart budget.
    pub degraded_shards: u64,
    /// Tuples dropped on degraded shards.
    pub dropped_degraded: u64,
    /// Rows emitted (0 until `finish()`).
    pub rows_out: u64,
    /// Distinct buckets closed (0 until `finish()`).
    pub buckets_closed: u64,
    /// Bytes appended to WAL segments, framing included.
    pub wal_bytes_written: u64,
    /// Torn/corrupt records truncated during recovery.
    pub wal_records_truncated: u64,
    /// Engine checkpoints persisted to disk.
    pub checkpoints_persisted: u64,
    /// WAL batch records replayed during startup recovery.
    pub recovery_replayed_batches: u64,
    /// 1 when durability degraded to in-memory supervision, else 0.
    pub durability_degraded: u64,
    /// Tuples shed by the overload controller.
    pub shed_tuples: u64,
    /// Whole batches/epochs shed by the overload controller.
    pub shed_batches: u64,
    /// Wedged workers respawned by the stuck-shard watchdog.
    pub wedged_respawns: u64,
    /// Per-shard samples; empty for a single-threaded run.
    pub shards: Vec<ShardSnapshot>,
    /// Per-producer samples; empty unless the multi-producer ingress
    /// fabric is active.
    pub producers: Vec<ProducerSnapshot>,
}

impl MetricsSnapshot {
    /// Wraps a single-threaded engine's final counters in snapshot form,
    /// so `--metrics` output has one shape regardless of `--shards`.
    pub fn from_engine_stats(stats: &crate::engine::EngineStats, watermark_us: u64) -> Self {
        Self {
            tuples_in: stats.tuples_in,
            filtered: stats.filtered,
            late_drops: stats.late_drops,
            dispatcher_watermark_us: watermark_us,
            worker_panics: 0,
            restarts: 0,
            checkpoints: 0,
            checkpoint_ns: 0,
            checkpoint_bytes: 0,
            replayed_batches: 0,
            replayed_tuples: 0,
            degraded_shards: 0,
            dropped_degraded: 0,
            rows_out: stats.rows_out,
            buckets_closed: stats.buckets_closed,
            wal_bytes_written: 0,
            wal_records_truncated: 0,
            checkpoints_persisted: 0,
            recovery_replayed_batches: 0,
            durability_degraded: 0,
            shed_tuples: 0,
            shed_batches: 0,
            wedged_respawns: 0,
            shards: Vec::new(),
            producers: Vec::new(),
        }
    }

    /// Prometheus text exposition format. Metric names are prefixed `fd_`;
    /// per-shard series carry a `shard="i"` label and histogram quantiles a
    /// `quantile` label, e.g.:
    ///
    /// ```text
    /// # TYPE fd_tuples_in counter
    /// fd_tuples_in 100000
    /// # TYPE fd_shard_queue_depth gauge
    /// fd_shard_queue_depth{shard="0"} 2
    /// fd_worker_batch_ns{shard="0",quantile="0.5"} 1048576
    /// ```
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut scalar = |name: &str, kind: &str, v: u64| {
            let _ = writeln!(out, "# TYPE {name} {kind}");
            let _ = writeln!(out, "{name} {v}");
        };
        scalar("fd_tuples_in", "counter", self.tuples_in);
        scalar("fd_filtered", "counter", self.filtered);
        scalar("fd_late_drops", "counter", self.late_drops);
        scalar("fd_rows_out", "counter", self.rows_out);
        scalar("fd_buckets_closed", "counter", self.buckets_closed);
        scalar("fd_worker_panics", "counter", self.worker_panics);
        scalar("fd_restarts", "counter", self.restarts);
        scalar("fd_checkpoints", "counter", self.checkpoints);
        scalar("fd_checkpoint_ns_total", "counter", self.checkpoint_ns);
        scalar(
            "fd_checkpoint_bytes_total",
            "counter",
            self.checkpoint_bytes,
        );
        scalar("fd_replayed_batches", "counter", self.replayed_batches);
        scalar("fd_replayed_tuples", "counter", self.replayed_tuples);
        scalar("fd_degraded_shards", "gauge", self.degraded_shards);
        scalar("fd_dropped_degraded", "counter", self.dropped_degraded);
        scalar("fd_wal_bytes_written", "counter", self.wal_bytes_written);
        scalar(
            "fd_wal_records_truncated",
            "counter",
            self.wal_records_truncated,
        );
        scalar(
            "fd_checkpoints_persisted",
            "counter",
            self.checkpoints_persisted,
        );
        scalar(
            "fd_recovery_replayed_batches",
            "counter",
            self.recovery_replayed_batches,
        );
        scalar("fd_durability_degraded", "gauge", self.durability_degraded);
        scalar("fd_shed_tuples", "counter", self.shed_tuples);
        scalar("fd_shed_batches", "counter", self.shed_batches);
        scalar("fd_wedged_respawns", "counter", self.wedged_respawns);
        scalar(
            "fd_dispatcher_watermark_us",
            "gauge",
            self.dispatcher_watermark_us,
        );
        if self.shards.is_empty() {
            return out;
        }
        let mut per_shard = |name: &str, kind: &str, get: &dyn Fn(&ShardSnapshot) -> u64| {
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for (i, s) in self.shards.iter().enumerate() {
                let _ = writeln!(out, "{name}{{shard=\"{i}\"}} {}", get(s));
            }
        };
        per_shard("fd_shard_queue_depth", "gauge", &|s| s.queue_depth);
        per_shard("fd_shard_batches_sent", "counter", &|s| s.batches_sent);
        per_shard("fd_shard_tuples_processed", "counter", &|s| {
            s.tuples_processed
        });
        per_shard("fd_shard_applied_watermark_us", "gauge", &|s| {
            s.applied_watermark_us
        });
        per_shard("fd_shard_watermark_lag_us", "gauge", &|s| {
            s.watermark_lag_us
        });
        per_shard("fd_shard_lfta_evictions", "counter", &|s| s.lfta_evictions);
        per_shard("fd_shard_lfta_occupancy", "gauge", &|s| s.lfta_occupancy);
        per_shard("fd_shard_shed_tuples", "counter", &|s| s.shed_tuples);
        per_shard("fd_shard_closed_groups_held", "gauge", &|s| {
            s.closed_groups_held
        });
        let mut histogram = |name: &str, get: &dyn Fn(&ShardSnapshot) -> HistogramSnapshot| {
            let _ = writeln!(out, "# TYPE {name} summary");
            for (i, s) in self.shards.iter().enumerate() {
                let h = get(s);
                for (q, v) in [(0.5, h.p50), (0.95, h.p95), (0.99, h.p99)] {
                    let _ = writeln!(out, "{name}{{shard=\"{i}\",quantile=\"{q}\"}} {v}");
                }
                let _ = writeln!(out, "{name}_count{{shard=\"{i}\"}} {}", h.count);
            }
        };
        histogram("fd_worker_batch_ns", &|s| s.batch_ns);
        histogram("fd_dispatch_lag_ns", &|s| s.dispatch_lag_ns);
        if self.producers.is_empty() {
            return out;
        }
        let mut per_producer = |name: &str, kind: &str, get: &dyn Fn(&ProducerSnapshot) -> u64| {
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for (i, p) in self.producers.iter().enumerate() {
                let _ = writeln!(out, "{name}{{producer=\"{i}\"}} {}", get(p));
            }
        };
        per_producer("fd_producer_tuples_in", "counter", &|p| p.tuples_in);
        per_producer("fd_producer_filtered", "counter", &|p| p.filtered);
        per_producer("fd_producer_late_drops", "counter", &|p| p.late_drops);
        per_producer("fd_producer_watermark_us", "gauge", &|p| p.watermark_us);
        per_producer("fd_producer_epochs_sent", "counter", &|p| p.epochs_sent);
        per_producer("fd_producer_pool_reuses", "counter", &|p| p.pool_reuses);
        per_producer("fd_producer_pool_allocs", "counter", &|p| p.pool_allocs);
        per_producer("fd_producer_shed_tuples", "counter", &|p| p.shed_tuples);
        let _ = writeln!(out, "# TYPE fd_producer_ring_depth gauge");
        for (i, p) in self.producers.iter().enumerate() {
            for (s, depth) in p.ring_depth.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "fd_producer_ring_depth{{producer=\"{i}\",shard=\"{s}\"}} {depth}"
                );
            }
        }
        out
    }

    /// JSON object form, hand-rolled (the workspace builds offline and has
    /// no JSON dependency): all-numeric fields, shards as an array.
    pub fn to_json(&self) -> String {
        fn histogram(h: &HistogramSnapshot) -> String {
            format!(
                "{{\"count\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                h.count, h.p50, h.p95, h.p99
            )
        }
        let shards: Vec<String> = self
            .shards
            .iter()
            .map(|s| {
                format!(
                    concat!(
                        "{{\"queue_depth\":{},\"batches_sent\":{},",
                        "\"tuples_processed\":{},",
                        "\"applied_watermark_us\":{},\"watermark_lag_us\":{},",
                        "\"lfta_evictions\":{},\"lfta_occupancy\":{},",
                        "\"shed_tuples\":{},\"closed_groups_held\":{},",
                        "\"batch_ns\":{},\"dispatch_lag_ns\":{}}}"
                    ),
                    s.queue_depth,
                    s.batches_sent,
                    s.tuples_processed,
                    s.applied_watermark_us,
                    s.watermark_lag_us,
                    s.lfta_evictions,
                    s.lfta_occupancy,
                    s.shed_tuples,
                    s.closed_groups_held,
                    histogram(&s.batch_ns),
                    histogram(&s.dispatch_lag_ns),
                )
            })
            .collect();
        let producers: Vec<String> = self
            .producers
            .iter()
            .map(|p| {
                let depths: Vec<String> = p.ring_depth.iter().map(u64::to_string).collect();
                format!(
                    concat!(
                        "{{\"tuples_in\":{},\"filtered\":{},\"late_drops\":{},",
                        "\"watermark_us\":{},\"epochs_sent\":{},",
                        "\"pool_reuses\":{},\"pool_allocs\":{},",
                        "\"shed_tuples\":{},",
                        "\"ring_depth\":[{}]}}"
                    ),
                    p.tuples_in,
                    p.filtered,
                    p.late_drops,
                    p.watermark_us,
                    p.epochs_sent,
                    p.pool_reuses,
                    p.pool_allocs,
                    p.shed_tuples,
                    depths.join(","),
                )
            })
            .collect();
        format!(
            concat!(
                "{{\"tuples_in\":{},\"filtered\":{},\"late_drops\":{},",
                "\"dispatcher_watermark_us\":{},\"worker_panics\":{},",
                "\"restarts\":{},\"checkpoints\":{},\"checkpoint_ns\":{},",
                "\"checkpoint_bytes\":{},\"replayed_batches\":{},",
                "\"replayed_tuples\":{},\"degraded_shards\":{},",
                "\"dropped_degraded\":{},",
                "\"wal_bytes_written\":{},\"wal_records_truncated\":{},",
                "\"checkpoints_persisted\":{},\"recovery_replayed_batches\":{},",
                "\"durability_degraded\":{},",
                "\"shed_tuples\":{},\"shed_batches\":{},\"wedged_respawns\":{},",
                "\"rows_out\":{},\"buckets_closed\":{},\"shards\":[{}],",
                "\"producers\":[{}]}}"
            ),
            self.tuples_in,
            self.filtered,
            self.late_drops,
            self.dispatcher_watermark_us,
            self.worker_panics,
            self.restarts,
            self.checkpoints,
            self.checkpoint_ns,
            self.checkpoint_bytes,
            self.replayed_batches,
            self.replayed_tuples,
            self.degraded_shards,
            self.dropped_degraded,
            self.wal_bytes_written,
            self.wal_records_truncated,
            self.checkpoints_persisted,
            self.recovery_replayed_batches,
            self.durability_degraded,
            self.shed_tuples,
            self.shed_batches,
            self.wedged_respawns,
            self.rows_out,
            self.buckets_closed,
            shards.join(","),
            producers.join(",")
        )
    }
}

/// A background thread that emits a [`MetricsSnapshot`] to a sink at a
/// fixed interval — e.g. appending Prometheus text to a file, or printing
/// watermark lag to stderr while a long run is in flight.
///
/// Stops (and joins its thread) on [`stop`](Reporter::stop) or drop.
pub struct Reporter {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Reporter {
    /// Spawns a reporter that calls `sink` with a fresh snapshot every
    /// `interval` until stopped. The first snapshot is emitted after one
    /// full interval.
    pub fn spawn(
        telemetry: Arc<EngineTelemetry>,
        interval: Duration,
        mut sink: impl FnMut(MetricsSnapshot) + Send + 'static,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("fd-metrics-reporter".to_owned())
            .spawn(move || {
                // Wake every few ms so stop() latency stays low even for
                // long reporting intervals.
                let tick = interval
                    .min(Duration::from_millis(20))
                    .max(Duration::from_millis(1));
                let mut elapsed = Duration::ZERO;
                while !stop2.load(Relaxed) {
                    std::thread::sleep(tick);
                    elapsed += tick;
                    if elapsed >= interval {
                        elapsed = Duration::ZERO;
                        sink(telemetry.snapshot());
                    }
                }
            })
            .expect("spawn metrics reporter");
        Self {
            stop,
            handle: Some(handle),
        }
    }

    /// Signals the thread to exit and joins it. Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Reporter {
    fn drop(&mut self) {
        self.stop();
    }
}

/// CPU time consumed by the calling thread, ns. Unlike a wall-clock span,
/// a section bracketed by two reads is not inflated when the scheduler
/// slices the thread out mid-section, and time spent blocked (channel
/// waits, condvars) is not charged at all. The `checkpoint_ns` counter is
/// measured on this clock, and the `recovery_overhead` bench uses it to
/// price the dispatch path independently of core count and machine load.
// The one unsafe block in the workspace: std exposes no thread-CPU
// clock, and pulling in `libc` for a single syscall wrapper is not worth
// a dependency. The extern declaration matches POSIX `clock_gettime`.
#[allow(unsafe_code)]
#[cfg(target_os = "linux")]
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid out-pointer for the duration of the call and
    // the clock id is supported on every Linux since 2.6.12.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    } else {
        0
    }
}

/// Wall-clock fallback where no thread clock is exposed: still monotonic
/// and per-process, just charged for preempted and blocked time too.
#[cfg(not(target_os = "linux"))]
pub fn thread_cpu_ns() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 1);
        assert_eq!(LogHistogram::bucket_of(2), 2);
        assert_eq!(LogHistogram::bucket_of(3), 2);
        assert_eq!(LogHistogram::bucket_of(4), 3);
        assert_eq!(LogHistogram::bucket_of(1023), 10);
        assert_eq!(LogHistogram::bucket_of(1024), 11);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_bound_the_sample() {
        let h = LogHistogram::new();
        // 90 fast samples (~1 µs), 10 slow (~1 ms).
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        // p50 in the 1 µs bucket: upper bound 2^10 = 1024.
        assert_eq!(s.p50, 1024);
        assert!(s.p50 >= 1_000 && s.p50 < 2_000);
        // p95 and p99 land in the 1 ms bucket: upper bound 2^20.
        assert!(s.p95 >= 1_000_000 && s.p95 < 2_000_000);
        assert_eq!(s.p95, s.p99);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = LogHistogram::new().snapshot();
        assert_eq!(
            s,
            HistogramSnapshot {
                count: 0,
                p50: 0,
                p95: 0,
                p99: 0
            }
        );
    }

    #[test]
    fn snapshot_reads_live_values() {
        let t = EngineTelemetry::new(2);
        t.tuples_in.store(100, Relaxed);
        t.dispatcher_watermark.store(5_000_000, Relaxed);
        t.shards()[1].applied_watermark.store(3_000_000, Relaxed);
        t.shards()[0].queue_depth.store(4, Relaxed);
        let s = t.snapshot();
        assert_eq!(s.tuples_in, 100);
        assert_eq!(s.shards[0].queue_depth, 4);
        assert_eq!(s.shards[1].watermark_lag_us, 2_000_000);
        // Shard 0 never applied a watermark: lag is the full dispatcher
        // watermark.
        assert_eq!(s.shards[0].watermark_lag_us, 5_000_000);
    }

    #[test]
    fn prometheus_format_has_typed_series() {
        let t = EngineTelemetry::new(1);
        t.tuples_in.store(42, Relaxed);
        t.shards()[0].batch_ns.record(1_000);
        let text = t.snapshot().to_prometheus();
        assert!(text.contains("# TYPE fd_tuples_in counter"));
        assert!(text.contains("fd_tuples_in 42"));
        assert!(text.contains("# TYPE fd_shard_queue_depth gauge"));
        assert!(text.contains("fd_shard_queue_depth{shard=\"0\"} 0"));
        assert!(text.contains("fd_worker_batch_ns{shard=\"0\",quantile=\"0.5\"} 1024"));
        assert!(text.contains("fd_worker_batch_ns_count{shard=\"0\"} 1"));
    }

    #[test]
    fn checkpoint_size_metrics_appear_in_both_formats() {
        let t = EngineTelemetry::new(2);
        t.checkpoints.store(4, Relaxed);
        t.checkpoint_bytes.store(8192, Relaxed);
        t.shards()[1].closed_groups_held.store(17, Relaxed);
        let s = t.snapshot();
        let prom = s.to_prometheus();
        assert!(prom.contains("# TYPE fd_checkpoint_bytes_total counter"));
        assert!(prom.contains("fd_checkpoint_bytes_total 8192"));
        assert!(prom.contains("# TYPE fd_shard_closed_groups_held gauge"));
        assert!(prom.contains("fd_shard_closed_groups_held{shard=\"0\"} 0"));
        assert!(prom.contains("fd_shard_closed_groups_held{shard=\"1\"} 17"));
        let json = s.to_json();
        assert!(json.contains("\"checkpoint_bytes\":8192"));
        assert!(json.contains("\"closed_groups_held\":17"));
        assert_eq!(json.matches("\"closed_groups_held\"").count(), 2);
    }

    #[test]
    fn durability_metrics_appear_in_both_formats() {
        let t = EngineTelemetry::new(1);
        t.wal_bytes_written.store(4096, Relaxed);
        t.wal_records_truncated.store(2, Relaxed);
        t.checkpoints_persisted.store(3, Relaxed);
        t.recovery_replayed_batches.store(5, Relaxed);
        t.durability_degraded.store(1, Relaxed);
        let s = t.snapshot();
        let prom = s.to_prometheus();
        assert!(prom.contains("# TYPE fd_wal_bytes_written counter"));
        assert!(prom.contains("fd_wal_bytes_written 4096"));
        assert!(prom.contains("fd_wal_records_truncated 2"));
        assert!(prom.contains("fd_checkpoints_persisted 3"));
        assert!(prom.contains("fd_recovery_replayed_batches 5"));
        assert!(prom.contains("# TYPE fd_durability_degraded gauge"));
        assert!(prom.contains("fd_durability_degraded 1"));
        let json = s.to_json();
        assert!(json.contains("\"wal_bytes_written\":4096"));
        assert!(json.contains("\"wal_records_truncated\":2"));
        assert!(json.contains("\"checkpoints_persisted\":3"));
        assert!(json.contains("\"recovery_replayed_batches\":5"));
        assert!(json.contains("\"durability_degraded\":1"));
    }

    /// Golden-file pin of the Prometheus exposition format: the scrape a
    /// non-fabric run produces must stay byte-identical when producer
    /// metrics are absent, and a fabric run may only ever *append* to it.
    #[test]
    fn producer_series_extend_scrape_without_reordering_it() {
        let base = EngineTelemetry::new(1);
        base.tuples_in.store(42, Relaxed);
        let golden = base.snapshot().to_prometheus();
        assert!(
            !golden.contains("fd_producer_"),
            "non-fabric scrape must not mention producers"
        );

        // With producers registered the engine-wide count is their sum.
        let t = EngineTelemetry::with_producers(1, 2);
        t.producers()[0].tuples_in.store(25, Relaxed);
        t.producers()[1].tuples_in.store(17, Relaxed);
        t.producers()[1].epochs_sent.store(3, Relaxed);
        t.producers()[0].ring_depth[0].store(5, Relaxed);
        let text = t.snapshot().to_prometheus();
        // Additive: the entire pre-fabric scrape is a literal prefix.
        assert!(
            text.starts_with(&golden),
            "producer series must append to the existing scrape, not reshape it"
        );
        let tail = &text[golden.len()..];
        assert!(tail.contains("# TYPE fd_producer_tuples_in counter"));
        assert!(tail.contains("fd_producer_tuples_in{producer=\"0\"} 25"));
        assert!(tail.contains("fd_producer_tuples_in{producer=\"1\"} 17"));
        assert!(tail.contains("fd_producer_epochs_sent{producer=\"1\"} 3"));
        assert!(tail.contains("# TYPE fd_producer_ring_depth gauge"));
        assert!(tail.contains("fd_producer_ring_depth{producer=\"0\",shard=\"0\"} 5"));
        assert!(tail.contains("fd_producer_ring_depth{producer=\"1\",shard=\"0\"} 0"));
    }

    #[test]
    fn producer_metrics_appear_in_json() {
        let t = EngineTelemetry::with_producers(2, 2);
        t.producers()[0].pool_reuses.store(11, Relaxed);
        t.producers()[0].pool_allocs.store(4, Relaxed);
        t.producers()[1].late_drops.store(2, Relaxed);
        t.producers()[1].ring_depth[1].store(9, Relaxed);
        let json = t.snapshot().to_json();
        assert!(json.contains("\"pool_reuses\":11,\"pool_allocs\":4"));
        assert!(json.contains("\"late_drops\":2"));
        assert!(json.contains("\"ring_depth\":[0,9]"));
        assert_eq!(json.matches("\"epochs_sent\"").count(), 2);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // A registry without producers keeps an empty array, not a missing
        // field, so downstream JSON consumers see a stable schema.
        assert!(EngineTelemetry::new(1)
            .snapshot()
            .to_json()
            .ends_with("\"producers\":[]}"));
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let t = EngineTelemetry::new(2);
        t.late_drops.store(7, Relaxed);
        let json = t.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"late_drops\":7"));
        assert!(json.matches("\"queue_depth\"").count() == 2);
        // Balanced braces/brackets — the cheap well-formedness check
        // available without a JSON parser in the offline workspace.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn reporter_emits_and_stops() {
        use std::sync::Mutex;
        let t = Arc::new(EngineTelemetry::new(1));
        t.tuples_in.store(9, Relaxed);
        let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let mut rep = Reporter::spawn(Arc::clone(&t), Duration::from_millis(5), move |s| {
            seen2.lock().unwrap().push(s.tuples_in);
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while seen.lock().unwrap().is_empty() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        rep.stop();
        let emitted = seen.lock().unwrap().clone();
        assert!(!emitted.is_empty(), "reporter never fired");
        assert!(emitted.iter().all(|&v| v == 9));
        rep.stop(); // idempotent
    }
}
