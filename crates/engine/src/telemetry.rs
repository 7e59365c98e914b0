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
//! Every metric is declared once, as a row of [`ENGINE_METRICS`],
//! [`SHARD_METRICS`] or [`PRODUCER_METRICS`]: the registry structs, the
//! snapshot structs, the copy between them and both exporters —
//! Prometheus text format ([`MetricsSnapshot::to_prometheus`]) and JSON
//! ([`MetricsSnapshot::to_json`]) — come from the rows, so adding one is
//! one row plus its writer. [`Reporter`] drives a background thread that
//! emits a snapshot every fixed interval.

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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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

/// One row of a metric table ([`ENGINE_METRICS`], [`SHARD_METRICS`],
/// [`PRODUCER_METRICS`]): everything an exporter knows about a metric.
/// `S` is the snapshot struct the row reads.
pub struct Metric<S> {
    /// The field's identifier in the registry and snapshot structs, and its
    /// JSON key.
    pub key: &'static str,
    /// Its Prometheus series name.
    pub name: &'static str,
    /// The word on its `# TYPE` line: `counter`, `gauge` or `summary`.
    pub kind: &'static str,
    /// Reads it out of a snapshot.
    pub get: for<'a> fn(&'a S) -> Value<'a>,
}

/// What a [`Metric`] reads out of a snapshot: one of the three shapes a
/// registry field has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value<'a> {
    /// A counter or gauge.
    Scalar(u64),
    /// A [`LogHistogram`]'s sample.
    Summary(&'a HistogramSnapshot),
    /// One gauge per shard, indexed by shard.
    PerShard(&'a [u64]),
}

/// Declares one scope's metrics **once**. Each row — doc comment, field
/// identifier, kind (`counter`, `gauge`, `summary`, or `gauges`: one gauge
/// per shard), Prometheus name, and `derived` for a value computed at
/// snapshot time instead of stored — becomes a field of the atomic
/// registry struct (stored rows only, in row order), a field of the plain
/// snapshot struct, one copy in the relaxed `sample()` between them (a
/// derived field is left zero for [`EngineTelemetry::snapshot`] to fill),
/// and one entry of the `rows` table both exporters walk.
macro_rules! metrics {
    (
        $(#[$reg_meta:meta])* registry $Reg:ident { $($reg_extra:tt)* }
        $(#[$snap_meta:meta])* snapshot $Snap:ident { $($snap_extra:tt)* }
        $(#[$rows_meta:meta])* rows $ROWS:ident;
        $( $(#[$doc:meta])* $field:ident: $kind:ident $name:literal $($derived:ident)?, )*
    ) => {
        metrics!(@registry [$(#[$reg_meta])* $Reg { $($reg_extra)* }] {}
            $( [$(#[$doc])* $field $kind $($derived)?] )*);

        $(#[$snap_meta])*
        pub struct $Snap {
            $( $(#[$doc])* pub $field: metrics!(@plain $kind), )*
            $($snap_extra)*
        }

        impl $Reg {
            /// The mechanical half of a snapshot: every stored row, read
            /// relaxed.
            #[allow(clippy::needless_update)] // only some snapshots have more fields
            fn sample(&self) -> $Snap {
                $Snap {
                    $( $field: metrics!(@sample $kind $($derived)?; self.$field), )*
                    ..Default::default()
                }
            }
        }

        $(#[$rows_meta])*
        pub const $ROWS: &[Metric<$Snap>] = &[$( Metric {
            key: stringify!($field),
            name: $name,
            kind: metrics!(@type $kind),
            get: |s| metrics!(@value $kind s.$field),
        }, )*];
    };

    // The registry struct: the rows one at a time, the derived ones dropped.
    (@registry [$(#[$meta:meta])* $Reg:ident { $($extra:tt)* }] { $($fields:tt)* }) => {
        $(#[$meta])*
        pub struct $Reg { $($fields)* $($extra)* }
    };
    (@registry $head:tt { $($fields:tt)* }
        [$(#[$doc:meta])* $field:ident $kind:ident derived] $($rest:tt)*) => {
        metrics!(@registry $head { $($fields)* } $($rest)*);
    };
    (@registry $head:tt { $($fields:tt)* }
        [$(#[$doc:meta])* $field:ident $kind:ident] $($rest:tt)*) => {
        metrics!(@registry $head
            { $($fields)* $(#[$doc])* pub $field: metrics!(@cell $kind), } $($rest)*);
    };

    // What each kind is made of, live and sampled.
    (@cell summary) => { LogHistogram };
    (@cell gauges) => { Vec<AtomicU64> };
    (@cell $scalar:ident) => { AtomicU64 };
    (@plain summary) => { HistogramSnapshot };
    (@plain gauges) => { Vec<u64> };
    (@plain $scalar:ident) => { u64 };
    (@sample $kind:ident derived; $cell:expr) => { Default::default() };
    (@sample summary; $cell:expr) => { $cell.snapshot() };
    (@sample gauges; $cell:expr) => { $cell.iter().map(|c| c.load(Relaxed)).collect() };
    (@sample $scalar:ident; $cell:expr) => { $cell.load(Relaxed) };
    (@value summary $plain:expr) => { Value::Summary(&$plain) };
    (@value gauges $plain:expr) => { Value::PerShard(&$plain) };
    (@value $scalar:ident $plain:expr) => { Value::Scalar($plain) };
    (@type counter) => { "counter" };
    (@type gauge) => { "gauge" };
    (@type gauges) => { "gauge" };
    (@type summary) => { "summary" };
}

metrics! {
    /// Live counters and gauges for one shard worker and its channel.
    ///
    /// Writer discipline: `queue_depth` is the only two-writer field
    /// (the sending handle increments, the worker decrements — both per
    /// message); `batches_sent` is sender-only, everything else is
    /// worker-only (`closed_groups_held` and `checkpoint_interval_tuples`
    /// also by the recovery that preloads or respawns the worker, which
    /// never runs beside it; `shed_tuples`
    /// also by a sender that sheds).
    #[derive(Debug, Default)]
    registry ShardTelemetry {}
    /// One shard's slice of a [`MetricsSnapshot`].
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    snapshot ShardSnapshot {}
    /// The per-shard metrics, in export order; every series carries a
    /// `shard="i"` label.
    rows SHARD_METRICS;

    /// Epoch messages queued to this shard.
    queue_depth: gauge "fd_shard_queue_depth",
    /// Epoch messages sent to this shard (empty watermark carriers
    /// included).
    batches_sent: counter "fd_shard_batches_sent",
    /// Tuples the worker has applied to its engine.
    tuples_processed: counter "fd_shard_tuples_processed",
    /// The highest watermark the worker has applied, µs.
    applied_watermark_us: gauge "fd_shard_applied_watermark_us",
    /// How far the worker trails admission, µs:
    /// [`MetricsSnapshot::dispatcher_watermark_us`] less the watermark it
    /// has applied.
    watermark_lag_us: gauge "fd_shard_watermark_lag_us" derived,
    /// The worker engine's LFTA evictions so far.
    lfta_evictions: counter "fd_shard_lfta_evictions",
    /// The worker engine's LFTA slot occupancy.
    lfta_occupancy: gauge "fd_shard_lfta_occupancy",
    /// Tuples the overload controller shed on their way to this shard
    /// (hollowed epochs under `DropOldest`, thinned-away tuples under
    /// `Subsample`, scaled tuples the worker's aggregate refused). Sheds
    /// are never silent — every one is counted here and in the engine-wide
    /// `shed_tuples`.
    shed_tuples: counter "fd_shard_shed_tuples",
    /// Closed groups parked in this shard's checkpoint slot as of its
    /// last checkpoint: handed off when their bucket closed, they wait
    /// there — outside every later snapshot — for the end of the run.
    closed_groups_held: gauge "fd_shard_closed_groups_held",
    /// Tuples the worker applies between checkpoints as of its last one
    /// (or its start): `checkpoint_every`, stretched to the size of the
    /// snapshot in packets when that is larger
    /// ([`crate::supervisor::checkpoint_interval`]).
    checkpoint_interval_tuples: gauge "fd_shard_checkpoint_interval_tuples",
    /// Per-batch worker processing time, nanoseconds.
    batch_ns: summary "fd_worker_batch_ns",
    /// Dispatch-to-apply latency per batch (send to fully processed),
    /// nanoseconds: queueing delay plus processing time.
    dispatch_lag_ns: summary "fd_dispatch_lag_ns",
}

metrics! {
    /// Live counters and gauges for one ingress producer and its per-shard
    /// rings.
    ///
    /// Writer discipline mirrors [`ShardTelemetry`]: each `ring_depth[s]`
    /// gauge is the only two-writer field (the producer's handle increments
    /// on send, the shard worker decrements on apply — both per epoch
    /// message); everything else is written only by the owning ingress
    /// handle, so the live mirrors are relaxed stores of handle-local counts.
    #[derive(Debug, Default)]
    registry ProducerTelemetry {}
    /// One ingress producer's slice of a [`MetricsSnapshot`].
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    snapshot ProducerSnapshot {}
    /// The per-producer metrics, in export order; every series carries a
    /// `producer="i"` label.
    rows PRODUCER_METRICS;

    /// Tuples offered to this producer's ingress handle.
    tuples_in: counter "fd_producer_tuples_in",
    /// Tuples this handle's selection filter rejected.
    filtered: counter "fd_producer_filtered",
    /// Tuples this handle dropped as late against its local boundary.
    late_drops: counter "fd_producer_late_drops",
    /// The handle's local admission watermark, µs.
    watermark_us: gauge "fd_producer_watermark_us",
    /// Epochs sealed (each ships one message per shard).
    epochs_sent: counter "fd_producer_epochs_sent",
    /// This producer's batch-pool recycles (mirror of its
    /// [`BatchPool::reuses`](crate::spsc::BatchPool::reuses)).
    pool_reuses: counter "fd_producer_pool_reuses",
    /// This producer's batch-pool cold allocations (mirror of its
    /// [`BatchPool::allocs`](crate::spsc::BatchPool::allocs)).
    pool_allocs: counter "fd_producer_pool_allocs",
    /// Tuples the overload controller shed from this producer's epochs
    /// (hollowed epochs under `DropOldest`, thinned-away tuples under
    /// `Subsample`).
    shed_tuples: counter "fd_producer_shed_tuples",
    /// Messages in flight on this producer's ring to each shard.
    ring_depth: gauges "fd_producer_ring_depth",
}

impl ProducerTelemetry {
    fn new(n_shards: usize) -> Self {
        Self {
            ring_depth: (0..n_shards).map(|_| AtomicU64::new(0)).collect(),
            ..Self::default()
        }
    }
}

metrics! {
    /// The shared metrics registry of a sharded engine run.
    ///
    /// One instance lives behind an `Arc` held by the dispatcher
    /// ([`ShardedEngine`](crate::shard::ShardedEngine)), every worker thread,
    /// and anyone who grabbed
    /// [`ShardedEngine::telemetry`](crate::shard::ShardedEngine::telemetry) —
    /// which stays readable (and keeps the final counters) after the engine is
    /// finished or dropped. Admission is counted where it happens, in the
    /// [`producers`](Self::producers): the engine-wide admission figures
    /// exist only in the snapshot, which derives them.
    #[derive(Debug, Default)]
    registry EngineTelemetry {
        /// Hot-path mirroring is off. Inverted, so that the zeroed registry
        /// is a live one.
        muted: AtomicBool,
        shards: Vec<ShardTelemetry>,
        producers: Vec<ProducerTelemetry>,
    }
    /// A point-in-time sample of a whole engine's telemetry: plain data,
    /// detached from the atomics, serializable to Prometheus text format and
    /// JSON.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    snapshot MetricsSnapshot {
        /// Per-shard samples; empty for a single-threaded run.
        pub shards: Vec<ShardSnapshot>,
        /// Per-producer samples; empty for a single-threaded run.
        pub producers: Vec<ProducerSnapshot>,
    }
    /// The engine-wide metrics, in export order.
    rows ENGINE_METRICS;

    /// Tuples offered to the engine: the sum over its producers.
    tuples_in: counter "fd_tuples_in" derived,
    /// Tuples rejected by the selection filter: the sum over the producers.
    filtered: counter "fd_filtered" derived,
    /// Tuples dropped for arriving after their bucket closed: the sum over
    /// the producers.
    late_drops: counter "fd_late_drops" derived,
    /// Result rows emitted by the combiner (0 until `finish()`).
    rows_out: counter "fd_rows_out",
    /// Distinct time buckets closed by the combiner (0 until `finish()`).
    buckets_closed: counter "fd_buckets_closed",
    /// Worker threads that terminated by panicking.
    worker_panics: counter "fd_worker_panics",
    /// Shard workers respawned by the supervisor after a death.
    restarts: counter "fd_restarts",
    /// Engine checkpoints taken by shard workers.
    checkpoints: counter "fd_checkpoints",
    /// Total worker **CPU time** spent serializing and publishing
    /// checkpoints, ns (thread clock where available, so time the worker
    /// spends preempted mid-serialization is not charged here). Dividing
    /// by `checkpoints` gives the mean per-checkpoint cost; on machines
    /// with fewer cores than shards this CPU also lands on wall-clock
    /// because serialization cannot overlap the dispatcher.
    checkpoint_ns: counter "fd_checkpoint_ns_total",
    /// Total snapshot bytes workers have serialized. Dividing by
    /// `checkpoints` gives the mean snapshot size, which tracks the
    /// shards' *open* state: it stays flat as buckets close, however long
    /// the stream runs.
    checkpoint_bytes: counter "fd_checkpoint_bytes_total",
    /// Non-empty batches a respawned worker found waiting in the shard's
    /// queues past its checkpoint, to (re-)read.
    replayed_batches: counter "fd_replayed_batches",
    /// Tuples inside replayed batches. Replays re-run through the worker,
    /// so per-shard `tuples_processed` counts them again; reconcile with
    /// `tuples_processed ≥ admitted − dropped` rather than equality when
    /// restarts occurred.
    replayed_tuples: counter "fd_replayed_tuples",
    /// Shards given up on after exhausting their restart budget (their
    /// last checkpoint is still salvaged at `finish()`).
    degraded_shards: gauge "fd_degraded_shards",
    /// Tuples dropped because their shard was degraded: what its queues
    /// held at degradation time plus everything routed there after.
    dropped_degraded: counter "fd_dropped_degraded",
    /// Bytes appended to WAL segments (framing included) by the durable
    /// store's writer thread.
    wal_bytes_written: counter "fd_wal_bytes_written",
    /// Torn or corrupt WAL/checkpoint records truncated during recovery
    /// (plus unreachable segments dropped along with them).
    wal_records_truncated: counter "fd_wal_records_truncated",
    /// Engine checkpoints persisted to disk (distinct from `checkpoints`,
    /// which counts in-memory slot publishes by workers).
    checkpoints_persisted: counter "fd_checkpoints_persisted",
    /// WAL batch records replayed through the normal batch path during
    /// startup recovery (distinct from `replayed_batches`, which also
    /// counts in-process re-reads after a worker crash).
    recovery_replayed_batches: counter "fd_recovery_replayed_batches",
    /// 1 when the durable store hit a persistent disk failure and the
    /// engine fell back to in-memory supervision only, else 0.
    durability_degraded: gauge "fd_durability_degraded",
    /// Tuples shed by the overload controller across all shards and
    /// producers. Zero under `ShedPolicy::Block`.
    shed_tuples: counter "fd_shed_tuples",
    /// Whole batches/epochs shed by the overload controller.
    shed_batches: counter "fd_shed_batches",
    /// Wedged (unresponsive but not dead) workers abandoned and respawned
    /// by the stuck-shard watchdog.
    wedged_respawns: counter "fd_wedged_respawns",
    /// The furthest admission watermark among the producers, µs.
    dispatcher_watermark_us: gauge "fd_dispatcher_watermark_us" derived,
}

impl EngineTelemetry {
    /// A zeroed registry for `n_shards` shards, with live updates enabled.
    pub fn new(n_shards: usize) -> Self {
        Self::with_producers(n_shards, 0)
    }

    /// A zeroed registry for `n_shards` shards and `n_producers` ingress
    /// handles (a [`ShardedEngine`](crate::shard::ShardedEngine) has at
    /// least one). `new(n)` is `with_producers(n, 0)`: no producer
    /// section, and nothing to derive the admission figures from.
    pub fn with_producers(n_shards: usize, n_producers: usize) -> Self {
        Self {
            shards: (0..n_shards).map(|_| ShardTelemetry::default()).collect(),
            producers: (0..n_producers)
                .map(|_| ProducerTelemetry::new(n_shards))
                .collect(),
            ..Self::default()
        }
    }

    /// Whether hot-path mirroring is on (see
    /// [`ShardedEngine::live_telemetry`](crate::shard::ShardedEngine::live_telemetry)).
    /// End-of-run counters are recorded either way.
    pub fn enabled(&self) -> bool {
        !self.muted.load(Relaxed)
    }

    /// Turns hot-path mirroring on or off (the per-tuple admission mirrors
    /// and the per-batch worker gauges/histograms).
    pub fn set_enabled(&self, on: bool) {
        self.muted.store(!on, Relaxed);
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
        let mut s = self.sample();
        s.shards = self.shards.iter().map(ShardTelemetry::sample).collect();
        s.producers = (self.producers.iter())
            .map(ProducerTelemetry::sample)
            .collect();
        // The derived rows. Admission happens on the ingress producers, so
        // the engine-wide figures are their sums (and the furthest
        // watermark): no thread has to mirror totals on the hot path.
        s.tuples_in = s.producers.iter().map(|p| p.tuples_in).sum();
        s.filtered = s.producers.iter().map(|p| p.filtered).sum();
        s.late_drops = s.producers.iter().map(|p| p.late_drops).sum();
        let watermark = s.producers.iter().map(|p| p.watermark_us).max();
        s.dispatcher_watermark_us = watermark.unwrap_or(0);
        for shard in &mut s.shards {
            shard.watermark_lag_us =
                (s.dispatcher_watermark_us).saturating_sub(shard.applied_watermark_us);
        }
        s
    }
}

/// Appends one scope's series to a Prometheus scrape: per row its `# TYPE`
/// line, then its series for each of `items` in turn, labelled
/// `label="i"` (the engine's own scope is one unlabelled item).
fn prometheus_rows<S>(out: &mut String, rows: &[Metric<S>], label: &str, items: &[S]) {
    // `name{own,extra} v`, either label possibly absent.
    fn series(out: &mut String, name: &str, own: &str, extra: &str, v: u64) {
        let _ = match (own, extra) {
            ("", "") => writeln!(out, "{name} {v}"),
            ("", l) | (l, "") => writeln!(out, "{name}{{{l}}} {v}"),
            _ => writeln!(out, "{name}{{{own},{extra}}} {v}"),
        };
    }
    if items.is_empty() {
        return;
    }
    let own: Vec<String> = match label {
        "" => vec![String::new()],
        _ => (0..items.len())
            .map(|i| format!("{label}=\"{i}\""))
            .collect(),
    };
    for row in rows {
        let name = row.name;
        let _ = writeln!(out, "# TYPE {name} {}", row.kind);
        for (item, own) in items.iter().zip(&own) {
            match (row.get)(item) {
                Value::Scalar(v) => series(out, name, own, "", v),
                Value::Summary(h) => {
                    for (q, v) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
                        series(out, name, own, &format!("quantile=\"{q}\""), v);
                    }
                    series(out, &format!("{name}_count"), own, "", h.count);
                }
                Value::PerShard(depths) => {
                    for (shard, &v) in depths.iter().enumerate() {
                        series(out, name, own, &format!("shard=\"{shard}\""), v);
                    }
                }
            }
        }
    }
}

/// Appends one snapshot struct's rows to a JSON object under construction:
/// `"key":value` pairs, comma-separated, without the braces.
fn json_rows<S>(out: &mut String, rows: &[Metric<S>], item: &S) {
    for (i, row) in rows.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\"{}\":", row.key);
        let _ = match (row.get)(item) {
            Value::Scalar(v) => write!(out, "{v}"),
            Value::Summary(h) => write!(
                out,
                "{{\"count\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                h.count, h.p50, h.p95, h.p99
            ),
            Value::PerShard(depths) => {
                let depths: Vec<String> = depths.iter().map(u64::to_string).collect();
                write!(out, "[{}]", depths.join(","))
            }
        };
    }
}

/// Appends `,"key":[{…},{…}]`: one object of `rows` per item.
fn json_array<S>(out: &mut String, key: &str, rows: &[Metric<S>], items: &[S]) {
    let _ = write!(out, ",\"{key}\":[");
    for (i, item) in items.iter().enumerate() {
        out.push_str(if i == 0 { "{" } else { ",{" });
        json_rows(out, rows, item);
        out.push('}');
    }
    out.push(']');
}

impl MetricsSnapshot {
    /// Wraps a single-threaded engine's final counters in snapshot form,
    /// so `--metrics` output has one shape regardless of `--shards`.
    pub fn from_engine_stats(stats: &crate::engine::EngineStats, watermark_us: u64) -> Self {
        Self {
            tuples_in: stats.tuples_in,
            filtered: stats.filtered,
            late_drops: stats.late_drops,
            rows_out: stats.rows_out,
            buckets_closed: stats.buckets_closed,
            dispatcher_watermark_us: watermark_us,
            ..Self::default()
        }
    }

    /// Prometheus text exposition format: the three metric tables in turn
    /// (a scope with no items prints nothing), each row's `# TYPE` line
    /// followed by its series. Per-shard series carry a `shard="i"` label,
    /// per-producer ones `producer="i"`, histogram quantiles a `quantile`
    /// label, e.g.:
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
        prometheus_rows(&mut out, ENGINE_METRICS, "", std::slice::from_ref(self));
        prometheus_rows(&mut out, SHARD_METRICS, "shard", &self.shards);
        prometheus_rows(&mut out, PRODUCER_METRICS, "producer", &self.producers);
        out
    }

    /// JSON object form, hand-rolled (the workspace builds offline and has
    /// no JSON dependency): one key per [`ENGINE_METRICS`] row, then
    /// `shards` and `producers` as arrays of objects keyed the same way by
    /// their tables; a histogram is a `{count, p50, p95, p99}` object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        json_rows(&mut out, ENGINE_METRICS, self);
        json_array(&mut out, "shards", SHARD_METRICS, &self.shards);
        json_array(&mut out, "producers", PRODUCER_METRICS, &self.producers);
        out.push('}');
        out
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
    /// full interval. Fails when the OS refuses the thread.
    pub fn spawn(
        telemetry: Arc<EngineTelemetry>,
        interval: Duration,
        mut sink: impl FnMut(MetricsSnapshot) + Send + 'static,
    ) -> std::io::Result<Self> {
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
            })?;
        Ok(Self {
            stop,
            handle: Some(handle),
        })
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
// One of the three unsafe sites in the workspace (the others are the
// prefetch hint, `groups::prefetch`, and `fd_core::checkpoint`'s
// carry-less CRC-32): std exposes no thread-CPU clock, and
// pulling in `libc` for a single syscall wrapper is not worth a
// dependency. The extern declaration matches POSIX `clock_gettime`.
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
    fn snapshot_derives_admission_and_lag_from_the_producers() {
        let t = EngineTelemetry::with_producers(2, 2);
        t.producers()[0].tuples_in.store(60, Relaxed);
        t.producers()[1].tuples_in.store(40, Relaxed);
        t.producers()[0].watermark_us.store(5_000_000, Relaxed);
        t.producers()[1].watermark_us.store(4_000_000, Relaxed);
        t.shards()[1].applied_watermark_us.store(3_000_000, Relaxed);
        t.shards()[0].queue_depth.store(4, Relaxed);
        let s = t.snapshot();
        assert_eq!(s.tuples_in, 100);
        assert_eq!(s.dispatcher_watermark_us, 5_000_000, "the furthest");
        assert_eq!(s.shards[0].queue_depth, 4);
        assert_eq!(s.shards[1].watermark_lag_us, 2_000_000);
        // Shard 0 never applied a watermark: lag is the full dispatcher
        // watermark.
        assert_eq!(s.shards[0].watermark_lag_us, 5_000_000);
    }

    #[test]
    fn prometheus_summaries_carry_quantile_and_count_series() {
        let t = EngineTelemetry::new(1);
        t.shards()[0].batch_ns.record(1_000);
        let text = t.snapshot().to_prometheus();
        assert!(text.contains("# TYPE fd_worker_batch_ns summary"));
        assert!(text.contains("fd_worker_batch_ns{shard=\"0\",quantile=\"0.5\"} 1024"));
        assert!(text.contains("fd_worker_batch_ns_count{shard=\"0\"} 1"));
    }

    /// A non-fabric scrape must stay byte-identical when producer metrics
    /// are absent, and a fabric run may only ever *append* to it.
    #[test]
    fn producer_series_extend_scrape_without_reordering_it() {
        let base = EngineTelemetry::new(1);
        let golden = base.snapshot().to_prometheus();
        assert!(
            !golden.contains("fd_producer_"),
            "non-fabric scrape must not mention producers"
        );

        let t = EngineTelemetry::with_producers(1, 2);
        t.producers()[1].epochs_sent.store(3, Relaxed);
        t.producers()[0].ring_depth[0].store(5, Relaxed);
        let text = t.snapshot().to_prometheus();
        // Additive: the entire pre-fabric scrape is a literal prefix.
        assert!(
            text.starts_with(&golden),
            "producer series must append to the existing scrape, not reshape it"
        );
        let tail = &text[golden.len()..];
        assert!(tail.starts_with("# TYPE fd_producer_tuples_in counter\n"));
        assert!(tail.contains("fd_producer_epochs_sent{producer=\"1\"} 3"));
        assert!(tail.contains("fd_producer_ring_depth{producer=\"0\",shard=\"0\"} 5"));
        assert!(tail.contains("fd_producer_ring_depth{producer=\"1\",shard=\"0\"} 0"));
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let t = EngineTelemetry::with_producers(2, 2);
        t.restarts.store(7, Relaxed);
        t.producers()[1].ring_depth[1].store(9, Relaxed);
        let json = t.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"restarts\":7"));
        assert!(json.contains("\"ring_depth\":[0,9]"));
        assert!(json.matches("\"queue_depth\"").count() == 2);
        assert!(json.matches("\"epochs_sent\"").count() == 2);
        // Balanced braces/brackets — the cheap well-formedness check
        // available without a JSON parser in the offline workspace.
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
    fn reporter_emits_and_stops() {
        use std::sync::Mutex;
        let t = Arc::new(EngineTelemetry::new(1));
        t.rows_out.store(9, Relaxed);
        let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let mut rep = Reporter::spawn(Arc::clone(&t), Duration::from_millis(5), move |s| {
            seen2.lock().unwrap().push(s.rows_out);
        })
        .expect("spawn metrics reporter");
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
