//! The one file that calls into the program under test.
//!
//! Every call into `fd_engine`, `fd_core`, `fd_gen` and `fd_cli` lives
//! here, and only through the surface the README freezes: the `try_*`
//! forms, the `StreamProcessor` trait, `Engine::{new, process, punctuate,
//! drain_rows, finish, checkpoint, restore, space_bytes, stats}`,
//! `ShardedEngine::{try_new, try_producers, try_durable, checkpoint_every,
//! durable_commit, try_process_packets, drain, stats, telemetry,
//! batch_pool}`, `Lfta`, `spsc::{ring, BatchPool}`,
//! `AggregatorFactory::make` / `Aggregator`, and the summaries' `update` /
//! `update_batch` — never the deprecated or panicking twins ROADMAP item 1
//! deletes. A refactor that keeps this file compiling keeps the benchmark.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fd_core::aggregates::{DecayedCount, DecayedSum};
use fd_core::decay::AnyDecay;
use fd_core::oracle::{Oracle, OracleEvent};
use fd_core::quantiles::DecayedQuantiles;
use fd_core::Timestamp;
use fd_engine::aggregators::{fwd_count_factory, fwd_quantile_factory, fwd_sum_factory};
use fd_engine::durability::DurabilityOptions;
use fd_engine::engine::Engine;
use fd_engine::lfta::Lfta;
use fd_engine::processor::StreamProcessor;
use fd_engine::shard::ShardedEngine;
use fd_engine::spsc::{ring, BatchPool};
use fd_engine::udaf::{Aggregator, AggregatorFactory, FnFactory, Query};
use fd_gen::TraceConfig;

pub use fd_engine::engine::Row;
/// Calling-thread CPU clock (ns).
pub use fd_engine::telemetry::thread_cpu_ns as thread_cpu;
pub use fd_engine::tuple::{Packet, Proto};
pub use fd_engine::udaf::AggValue;

use crate::trace::Recorder;

/// Tuples offered per call: `fdql`'s own commit chunk, so the benchmark
/// offers exactly what the CLI offers.
pub const CHUNK: usize = fd_cli::COMMIT_CHUNK;

/// Microseconds per second on the engine clock.
pub const MICROS: u64 = fd_engine::tuple::MICROS_PER_SEC;

/// How long `drain` may wait for shard queues (`fdql --drain-timeout`'s
/// default). Never reached on a healthy run.
const DRAIN_DEADLINE: Duration = Duration::from_secs(30);

/// Every workload decays with `poly:2`, spelled as `fdql --decay` takes it.
pub const DECAY_SPEC: &str = "poly:2";

/// fdql's `fwd_quantiles` parameters: 11-bit domain, ε = 0.01, p50/95/99.
pub const QUANTILE_BITS: u32 = 11;
pub const QUANTILE_EPS: f64 = 0.01;
pub const QUANTILE_PHIS: [f64; 3] = [0.5, 0.95, 0.99];

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// The `fd_gen::TraceConfig` fields a workload sets; the rest stay at the
/// generator's defaults (zipf 1.1, 4 ports per host, no burst).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceShape {
    pub rate_pps: f64,
    pub duration_secs: f64,
    pub n_hosts: usize,
    pub tcp_fraction: f64,
    pub ooo_jitter_secs: f64,
}

/// Generates the workload's input from the seed: same seed, same trace.
pub fn generate(shape: &TraceShape, seed: u64) -> Vec<Packet> {
    TraceConfig {
        seed,
        duration_secs: shape.duration_secs,
        rate_pps: shape.rate_pps,
        n_hosts: shape.n_hosts,
        tcp_fraction: shape.tcp_fraction,
        ooo_jitter_secs: shape.ooo_jitter_secs,
        ..TraceConfig::default()
    }
    .generate()
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    DstHost,
    DstKey,
}

/// The forward-decayed aggregates the workloads use (`fdql --agg fwd_*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    Sum,
    Count,
    Quantiles,
}

/// A bucketed group-by query in `fdql`'s vocabulary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuerySpec {
    pub filter: Option<Proto>,
    pub group: Group,
    pub agg: Agg,
    pub bucket_secs: u64,
    pub slack_secs: f64,
}

impl QuerySpec {
    pub fn admits(&self, p: &Packet) -> bool {
        self.filter.is_none_or(|proto| p.proto == proto)
    }

    pub fn key(&self, p: &Packet) -> u64 {
        match self.group {
            Group::DstHost => p.dst_host(),
            Group::DstKey => p.dst_key(),
        }
    }

    pub fn bucket_micros(&self) -> u64 {
        self.bucket_secs * MICROS
    }

    pub fn slack_micros(&self) -> u64 {
        (self.slack_secs * MICROS as f64) as u64
    }

    /// Whether the aggregate emits one float per row (and so has an exact
    /// closed-form reference).
    pub fn is_scalar(&self) -> bool {
        self.agg != Agg::Quantiles
    }

    fn decay() -> AnyDecay {
        DECAY_SPEC
            .parse()
            .expect("DECAY_SPEC is a valid decay spec")
    }

    fn factory(&self) -> Arc<FnFactory> {
        let g = Self::decay();
        match self.agg {
            Agg::Sum => fwd_sum_factory(g, |p| p.len as f64),
            Agg::Count => fwd_count_factory(g),
            Agg::Quantiles => fwd_quantile_factory(
                g,
                QUANTILE_BITS,
                QUANTILE_EPS,
                QUANTILE_PHIS.to_vec(),
                |p| p.len as u64,
            ),
        }
    }

    fn query(&self) -> Result<Query, String> {
        let mut b = Query::builder("fd-benchmark")
            .bucket_secs(self.bucket_secs)
            .slack_secs(self.slack_secs)
            .aggregate(self.factory());
        if let Some(proto) = self.filter {
            b = b.filter(move |p| p.proto == proto);
        }
        b = match self.group {
            Group::DstHost => b.group_by(|p| p.dst_host()),
            Group::DstKey => b.group_by(|p| p.dst_key()),
        };
        b.try_build().map_err(|e| e.to_string())
    }

    /// The `fdql` flags that express this query and trace.
    pub fn fdql_flags(&self, shape: &TraceShape, seed: u64) -> Vec<String> {
        let mut f: Vec<String> = Vec::new();
        let mut flag = |k: &str, v: String| {
            f.push(k.to_string());
            f.push(v);
        };
        flag(
            "--agg",
            match self.agg {
                Agg::Sum => "fwd_sum",
                Agg::Count => "fwd_count",
                Agg::Quantiles => "fwd_quantiles",
            }
            .into(),
        );
        flag("--decay", DECAY_SPEC.into());
        flag(
            "--group",
            match self.group {
                Group::DstHost => "dst_host",
                Group::DstKey => "dst_key",
            }
            .into(),
        );
        flag("--bucket", self.bucket_secs.to_string());
        flag("--slack", self.slack_secs.to_string());
        if let Some(p) = self.filter {
            flag(
                "--proto",
                match p {
                    Proto::Tcp => "tcp",
                    Proto::Udp => "udp",
                }
                .into(),
            );
        }
        flag("--rate", shape.rate_pps.to_string());
        flag("--duration", shape.duration_secs.to_string());
        flag("--hosts", shape.n_hosts.to_string());
        flag("--ooo", shape.ooo_jitter_secs.to_string());
        flag("--seed", seed.to_string());
        flag("--format", "stats".into());
        f
    }
}

// ---------------------------------------------------------------------------
// The pipeline under test
// ---------------------------------------------------------------------------

/// Which executor runs the query. Sharded runs are S = 1: dispatcher plus
/// one worker is the host's two cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    /// The single-threaded `Engine` — what `fdql` runs by default.
    Single,
    /// `ShardedEngine` with one worker; `producers == 0` is the classic
    /// dispatcher, `producers > 0` the ingress fabric in coordinator mode.
    Sharded { producers: usize },
}

/// What a durable store reported when it was opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Recovery {
    pub resumed: bool,
    pub position: u64,
    pub replayed_tuples: u64,
}

/// Tuples a pass lost: everything here must be zero under `Block`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Loss {
    pub shed_tuples: u64,
    pub dropped_degraded: u64,
    pub unflushed_epochs: u64,
    /// Tuples in chunks whose offer (or commit) returned `Err`.
    pub errored_tuples: u64,
}

impl Loss {
    pub fn tuples(&self) -> u64 {
        // An unflushed epoch is at most one batch; count it as one loss
        // unit so it can never hide behind a zero.
        self.shed_tuples + self.dropped_degraded + self.unflushed_epochs + self.errored_tuples
    }
}

/// Counters read from `stats()` and `telemetry().snapshot()` after a pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub tuples_in: u64,
    pub filtered: u64,
    pub late_drops: u64,
    pub rows_out: u64,
    pub buckets_closed: u64,
    pub batches_sent: u64,
    pub restarts: u64,
    pub shed_tuples: u64,
    pub dropped_degraded: u64,
    pub checkpoints: u64,
    pub checkpoint_ns: u64,
    pub wal_bytes: u64,
    pub checkpoints_persisted: u64,
    pub pool_reuses: u64,
    pub pool_allocs: u64,
}

pub enum Pipeline {
    Single(Box<Engine>),
    Sharded(Box<ShardedEngine>),
}

impl Pipeline {
    /// Constructs the executor the way `fdql` does for these flags.
    /// `supervised == false` is `checkpoint_every(0)`: no checkpoints, no
    /// replay backlog. With `store`, attaches a durable store (default
    /// options: 8 MiB segments, `fsync=checkpoint`) as the terminal builder
    /// step.
    pub fn spawn(
        spec: &QuerySpec,
        exec: Exec,
        supervised: bool,
        store: Option<&Path>,
    ) -> Result<(Self, Recovery), String> {
        let query = spec.query()?;
        let producers = match exec {
            Exec::Single => {
                if store.is_some() {
                    return Err("a durable store needs the sharded executor".into());
                }
                return Ok((
                    Pipeline::Single(Box::new(Engine::new(query))),
                    Recovery::default(),
                ));
            }
            Exec::Sharded { producers } => producers,
        };
        let mut engine = ShardedEngine::try_new(query, 1).map_err(|e| e.to_string())?;
        if !supervised {
            engine = engine.checkpoint_every(0);
        }
        if producers > 0 {
            engine = engine.try_producers(producers).map_err(|e| e.to_string())?;
        }
        let mut recovery = Recovery::default();
        if let Some(dir) = store {
            let (e, report) = engine
                .try_durable(dir, DurabilityOptions::default())
                .map_err(|e| e.to_string())?;
            engine = e;
            recovery = Recovery {
                resumed: report.resumed,
                position: report.position,
                replayed_tuples: report.replayed_tuples,
            };
        }
        Ok((Pipeline::Sharded(Box::new(engine)), recovery))
    }

    /// Offers one chunk; returns when the executor has accepted it (under
    /// `Block`, after any wait for ring capacity).
    pub fn offer(&mut self, chunk: &[Packet]) -> Result<(), String> {
        match self {
            Pipeline::Single(e) => StreamProcessor::process_packets(e.as_mut(), chunk),
            Pipeline::Sharded(e) => e.try_process_packets(chunk),
        }
        .map_err(|e| e.to_string())
    }

    /// Declares the stream durable up to `position` (no-op without a store).
    pub fn commit(&mut self, position: u64) -> Result<(), String> {
        match self {
            Pipeline::Single(_) => Ok(()),
            Pipeline::Sharded(e) => e.durable_commit(position).map_err(|e| e.to_string()),
        }
    }

    /// Ends the stream and collects every row.
    pub fn drain(&mut self) -> (Vec<Row>, Loss) {
        let (rows, report) = match self {
            Pipeline::Single(e) => StreamProcessor::drain(e.as_mut(), DRAIN_DEADLINE),
            Pipeline::Sharded(e) => e.drain(DRAIN_DEADLINE),
        };
        let dropped_degraded = self.counters().dropped_degraded;
        (
            rows,
            Loss {
                shed_tuples: report.shed_tuples,
                dropped_degraded,
                unflushed_epochs: report.unflushed_epochs,
                errored_tuples: 0,
            },
        )
    }

    pub fn counters(&self) -> Counters {
        match self {
            Pipeline::Single(e) => {
                let s = e.stats();
                Counters {
                    tuples_in: s.tuples_in,
                    filtered: s.filtered,
                    late_drops: s.late_drops,
                    rows_out: s.rows_out,
                    buckets_closed: s.buckets_closed,
                    ..Counters::default()
                }
            }
            Pipeline::Sharded(e) => {
                let s = e.stats();
                let t = e.telemetry().snapshot();
                let pool = e.batch_pool();
                Counters {
                    tuples_in: s.tuples_in,
                    filtered: s.filtered,
                    late_drops: s.late_drops,
                    rows_out: s.rows_out,
                    buckets_closed: s.buckets_closed,
                    batches_sent: t.shards.iter().map(|sh| sh.batches_sent).sum(),
                    restarts: t.restarts,
                    shed_tuples: t.shed_tuples,
                    dropped_degraded: t.dropped_degraded,
                    checkpoints: t.checkpoints,
                    checkpoint_ns: t.checkpoint_ns,
                    wal_bytes: t.wal_bytes_written,
                    checkpoints_persisted: t.checkpoints_persisted,
                    // The fabric recycles through per-producer pools.
                    pool_reuses: pool.reuses()
                        + t.producers.iter().map(|p| p.pool_reuses).sum::<u64>(),
                    pool_allocs: pool.allocs()
                        + t.producers.iter().map(|p| p.pool_allocs).sum::<u64>(),
                }
            }
        }
    }
}

/// Sorts rows into the canonical `(bucket_start, key)` order two executors'
/// outputs are compared in.
pub fn canonical(rows: &mut [Row]) {
    rows.sort_unstable_by_key(|r| (r.bucket_start, r.key));
}

// ---------------------------------------------------------------------------
// engine: the single-threaded baseline, split at bucket boundaries
// ---------------------------------------------------------------------------

/// One pass of an in-order trace through `Engine`, split by the benchmark
/// at bucket boundaries so update, close and emit are separate spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineSplit {
    pub tuples: u64,
    pub update_ns: u64,
    pub close_ns: u64,
    pub emit_ns: u64,
    pub groups_closed: u64,
    pub rows: u64,
    pub buckets: u64,
    /// Largest `space_bytes()` seen just before a bucket close.
    pub space_bytes_peak: u64,
}

/// `in_order` must be sorted by timestamp: the split relies on every tuple
/// of bucket *b* arriving before the first of *b + 1*, so that the
/// benchmark's own `punctuate` (and not a data tuple) closes each bucket.
pub fn engine_split_pass(
    spec: &QuerySpec,
    in_order: &[Packet],
    rec: &mut Recorder,
) -> Result<(Vec<Row>, EngineSplit), String> {
    let bm = spec.bucket_micros();
    let mut engine = Engine::new(spec.query()?);
    let mut out = EngineSplit {
        tuples: in_order.len() as u64,
        ..EngineSplit::default()
    };
    let mut rows: Vec<Row> = Vec::new();
    rec.next_pass();
    let pass = rec.open("pass");
    let mut i = 0;
    while i < in_order.len() {
        let bucket = in_order[i].ts / bm;
        let end = i + in_order[i..].partition_point(|p| p.ts / bm <= bucket);
        let s = rec.open("update");
        for p in &in_order[i..end] {
            engine.process(p);
        }
        out.update_ns += rec.close(s, 0);
        out.space_bytes_peak = out.space_bytes_peak.max(engine.space_bytes() as u64);

        let before = engine.stats().rows_out;
        let s = rec.open("close");
        engine.punctuate((bucket + 1) * bm + spec.slack_micros());
        out.close_ns += rec.close(s, 0);
        out.groups_closed += engine.stats().rows_out - before;
        out.buckets += 1;

        let s = rec.open("emit");
        let emitted = engine.drain_rows();
        out.emit_ns += rec.close(s, 0);
        out.rows += emitted.len() as u64;
        rows.extend(emitted);
        i = end;
    }
    rows.extend(engine.finish());
    rec.close(pass, 0);
    Ok((rows, out))
}

/// Checkpoint and restore of mid-stream state: feeds the first half,
/// snapshots, restores into a second engine, and finishes the stream on
/// the restored one — whose rows must equal an uninterrupted run's.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CheckpointCost {
    pub checkpoint_ns: u64,
    pub restore_ns: u64,
    pub bytes: u64,
}

pub fn engine_checkpoint_roundtrip(
    spec: &QuerySpec,
    trace: &[Packet],
) -> Result<(Vec<Row>, CheckpointCost), String> {
    let (head, tail) = trace.split_at(trace.len() / 2);
    let mut engine = Engine::new(spec.query()?);
    for p in head {
        engine.process(p);
    }
    let t = Instant::now();
    let blob = engine.checkpoint().map_err(|e| e.to_string())?;
    let checkpoint_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let mut restored = Engine::restore(spec.query()?, &blob).map_err(|e| e.to_string())?;
    let restore_ns = t.elapsed().as_nanos() as u64;
    for p in tail {
        restored.process(p);
    }
    Ok((
        restored.finish(),
        CheckpointCost {
            checkpoint_ns,
            restore_ns,
            bytes: blob.len() as u64,
        },
    ))
}

// ---------------------------------------------------------------------------
// lfta: the low-level table driven directly
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LftaCost {
    pub updates: u64,
    pub evictions: u64,
    pub update_ns: u64,
    pub partials_flushed: u64,
    pub flush_ns: u64,
}

/// Drives `Lfta::{new, update, flush_below}` over the admitted tuples of an
/// in-order trace, flushing at each bucket boundary as the engine does.
/// `None` for aggregates that are not splittable (they never touch it).
pub fn lfta_drive(spec: &QuerySpec, in_order: &[Packet]) -> Result<Option<LftaCost>, String> {
    let query = spec.query()?;
    if !(query.two_level && query.aggregate.splittable()) {
        return Ok(None);
    }
    let bm = spec.bucket_micros();
    let admitted: Vec<&Packet> = in_order.iter().filter(|p| spec.admits(p)).collect();
    let mut lfta = Lfta::new(query.lfta_slots);
    let mut cost = LftaCost::default();
    let mut i = 0;
    while i < admitted.len() {
        let bucket = admitted[i].ts / bm;
        let end = i + admitted[i..].partition_point(|p| p.ts / bm <= bucket);
        let t = Instant::now();
        for p in &admitted[i..end] {
            // Evicted partials are dropped here; the engine would merge them.
            std::hint::black_box(lfta.update(
                spec.key(p),
                bucket,
                p,
                query.aggregate.as_ref(),
                bucket * bm,
            ));
        }
        cost.update_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let flushed = lfta.flush_below(bucket + 1);
        cost.flush_ns += t.elapsed().as_nanos() as u64;
        cost.partials_flushed += flushed.len() as u64;
        i = end;
    }
    cost.updates = lfta.updates();
    cost.evictions = lfta.evictions();
    Ok(Some(cost))
}

// ---------------------------------------------------------------------------
// aggregators: one Box<dyn Aggregator>, no hashing
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AggregatorCost {
    pub make_ns: f64,
    pub update_ns_per_tuple: f64,
    pub merge_ns: f64,
    pub emit_ns: f64,
}

/// Prices the four `Aggregator` life-cycle calls on the workload's own
/// aggregate, each over at least `min` of wall time. `bucket0` holds
/// admitted tuples of the first bucket (so timestamps sit past the
/// landmark and inside one bucket).
pub fn aggregator_cost(spec: &QuerySpec, bucket0: &[Packet], min: Duration) -> AggregatorCost {
    let factory = spec.factory();
    let t_end = spec.bucket_secs as f64;
    const N: usize = 1024;

    let make_ns = timed_loop(min, N, || {
        let made: Vec<Box<dyn Aggregator>> = (0..N).map(|_| factory.make(0)).collect();
        std::hint::black_box(made)
    });

    let mut agg = factory.make(0);
    let update_ns_per_tuple = timed_loop(min, bucket0.len(), || {
        for p in bucket0 {
            agg.update(p);
        }
    });
    std::hint::black_box(agg.emit(t_end));

    // Merge and emit operate on groups that have seen a handful of tuples,
    // like the long tail of a Zipf workload.
    let seeded = |n: usize| -> Vec<Box<dyn Aggregator>> {
        (0..n)
            .map(|i| {
                let mut a = factory.make(0);
                for p in bucket0.iter().skip(i % bucket0.len().max(1)).take(8) {
                    a.update(p);
                }
                a
            })
            .collect()
    };
    let mut merge_total = Duration::ZERO;
    let mut merges = 0usize;
    while merge_total < min {
        let mut left = seeded(N);
        let right = seeded(N);
        let t = Instant::now();
        for (a, b) in left.iter_mut().zip(right) {
            a.merge_boxed(b);
        }
        merge_total += t.elapsed();
        merges += N;
        std::hint::black_box(left);
    }
    let merge_ns = merge_total.as_nanos() as f64 / merges as f64;

    let groups = seeded(N);
    let emit_ns = timed_loop(min, N, || {
        for a in &groups {
            std::hint::black_box(a.emit(t_end));
        }
    });

    AggregatorCost {
        make_ns,
        update_ns_per_tuple,
        merge_ns,
        emit_ns,
    }
}

/// Runs `body` (which performs `ops` operations) until `min` has elapsed;
/// returns nanoseconds per operation.
fn timed_loop<R>(min: Duration, ops: usize, mut body: impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    let mut rounds = 0usize;
    loop {
        std::hint::black_box(body());
        rounds += 1;
        let elapsed = start.elapsed();
        if elapsed >= min {
            return elapsed.as_nanos() as f64 / (rounds * ops.max(1)) as f64;
        }
    }
}

// ---------------------------------------------------------------------------
// core: the raw summary behind the aggregate
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SummaryCost {
    pub scalar_ns_per_tuple: f64,
    pub batch_ns_per_tuple: f64,
}

/// Per-item `update` against 1024-wide `update_batch` on the `fd_core`
/// summary the workload's aggregate wraps — no `Box<dyn>`, no hashing.
pub fn summary_cost(spec: &QuerySpec, bucket0: &[Packet], min: Duration) -> SummaryCost {
    const WIDTH: usize = 1024;
    let g = QuerySpec::decay();
    let ts: Vec<Timestamp> = bucket0.iter().map(Packet::timestamp).collect();
    let n = ts.len();
    let (scalar, batch) = match spec.agg {
        Agg::Sum => {
            let vals: Vec<f64> = bucket0.iter().map(|p| p.len as f64).collect();
            let mut s = DecayedSum::new(g.clone(), Timestamp::ZERO);
            let scalar = timed_loop(min, n, || {
                for (&t, &v) in ts.iter().zip(&vals) {
                    s.update(t, v);
                }
            });
            std::hint::black_box(s.query(spec.bucket_secs as f64));
            let mut s = DecayedSum::new(g, Timestamp::ZERO);
            let batch = timed_loop(min, n, || {
                for (t, v) in ts.chunks(WIDTH).zip(vals.chunks(WIDTH)) {
                    s.update_batch(t, v);
                }
            });
            std::hint::black_box(s.query(spec.bucket_secs as f64));
            (scalar, batch)
        }
        Agg::Count => {
            let mut s = DecayedCount::new(g.clone(), Timestamp::ZERO);
            let scalar = timed_loop(min, n, || {
                for &t in &ts {
                    s.update(t);
                }
            });
            std::hint::black_box(s.query(spec.bucket_secs as f64));
            let mut s = DecayedCount::new(g, Timestamp::ZERO);
            let batch = timed_loop(min, n, || {
                for t in ts.chunks(WIDTH) {
                    s.update_batch(t);
                }
            });
            std::hint::black_box(s.query(spec.bucket_secs as f64));
            (scalar, batch)
        }
        Agg::Quantiles => {
            let vals: Vec<u64> = bucket0.iter().map(|p| p.len as u64).collect();
            let fresh =
                || DecayedQuantiles::new(g.clone(), Timestamp::ZERO, QUANTILE_BITS, QUANTILE_EPS);
            let mut s = fresh();
            let scalar = timed_loop(min, n, || {
                for (&t, &v) in ts.iter().zip(&vals) {
                    s.update(t, v);
                }
            });
            std::hint::black_box(s.quantile(0.5, spec.bucket_secs as f64));
            let mut s = fresh();
            let batch = timed_loop(min, n, || {
                for (t, v) in ts.chunks(WIDTH).zip(vals.chunks(WIDTH)) {
                    s.update_batch(t, v);
                }
            });
            std::hint::black_box(s.quantile(0.5, spec.bucket_secs as f64));
            (scalar, batch)
        }
    };
    SummaryCost {
        scalar_ns_per_tuple: scalar,
        batch_ns_per_tuple: batch,
    }
}

// ---------------------------------------------------------------------------
// spsc: the ring hop and the batch pool
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpscCost {
    pub ring_hop_ns_per_batch: f64,
    pub pool_cycle_ns: f64,
}

/// Two threads, one `ring::<Vec<Packet>>(8)`, 1024-tuple buffers recycled
/// through a `BatchPool`: the hand-off the dispatcher pays per batch.
pub fn spsc_cost(min: Duration) -> SpscCost {
    const BATCH: usize = 1024;
    const ROUND: usize = 4096;
    let pool: BatchPool<Packet> = BatchPool::new(32);
    let blank = Packet {
        ts: 0,
        src_ip: 0,
        dst_ip: 0,
        src_port: 0,
        dst_port: 0,
        len: 0,
        proto: Proto::Tcp,
    };
    pool.prewarm(32, BATCH, blank);

    let pool_cycle_ns = timed_loop(min, ROUND, || {
        for _ in 0..ROUND {
            pool.put(pool.take(BATCH));
        }
    });

    let (tx, rx) = ring::<Vec<Packet>>(8);
    let consumer_pool = pool.clone();
    let mut sent = 0usize;
    let start = Instant::now();
    std::thread::scope(|s| {
        s.spawn(move || {
            while let Some(buf) = rx.recv() {
                consumer_pool.put(buf);
            }
        });
        loop {
            for _ in 0..ROUND {
                if tx.send(pool.take(BATCH)).is_err() {
                    unreachable!("the consumer outlives the sender");
                }
            }
            sent += ROUND;
            if start.elapsed() >= min {
                break;
            }
        }
        drop(tx); // closes the ring; the scope joins the consumer
    });
    // The scope has joined the consumer: every batch was received.
    let hop_total = start.elapsed().as_nanos() as f64 / sent as f64;
    SpscCost {
        // The pool cycle rides along on each hop; take it back out.
        ring_hop_ns_per_batch: (hop_total - pool_cycle_ns).max(0.0),
        pool_cycle_ns,
    }
}

// ---------------------------------------------------------------------------
// cli: the real fdql path
// ---------------------------------------------------------------------------

/// What `fdql --format stats` printed on its `# tuples=…` line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FdqlStats {
    pub tuples: u64,
    pub filtered: u64,
    pub rows: u64,
    pub late_drops: u64,
}

/// Parses the flags and runs them through `fd_cli` exactly as the `fdql`
/// binary does (generation included — the CLI streams its own trace).
pub fn run_fdql(flags: &[String]) -> Result<FdqlStats, String> {
    let cfg = fd_cli::CliConfig::parse(flags)?;
    let report = fd_cli::try_run_report(&cfg)?;
    if report.data_lost_under_block() {
        return Err("fdql lost data under the lossless policy".into());
    }
    let line = report
        .output
        .lines()
        .find(|l| l.starts_with("# tuples="))
        .ok_or("fdql printed no stats line")?;
    let field = |name: &str| -> Result<u64, String> {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(name)?.strip_prefix('='))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("fdql stats line lacks '{name}': {line}"))
    };
    Ok(FdqlStats {
        tuples: field("tuples")?,
        filtered: field("filtered")?,
        rows: field("rows")?,
        late_drops: field("late_drops")?,
    })
}

// ---------------------------------------------------------------------------
// oracle: the brute-force referee for the sketch workload
// ---------------------------------------------------------------------------

/// Decayed rank bounds of `value` among one group's items, from
/// `fd_core::oracle::Oracle`: `(rank of values < value, rank of values ≤
/// value, decayed count)`, all at query time `t_end`.
pub fn oracle_rank_bounds(
    items: &[(u64, u64)], // (timestamp µs, value)
    landmark_micros: u64,
    t_end_micros: u64,
    value: u64,
) -> (f64, f64, f64) {
    let mut oracle = Oracle::new(
        QuerySpec::decay(),
        Timestamp::from_micros(landmark_micros as i64),
    );
    for &(ts, v) in items {
        oracle.push(OracleEvent {
            t: Timestamp::from_micros(ts as i64),
            v: 0.0,
            key: v,
        });
    }
    let t = Timestamp::from_micros(t_end_micros as i64);
    let below = if value == 0 {
        0.0
    } else {
        oracle.rank(value - 1, t)
    };
    (below, oracle.rank(value, t), oracle.count(t))
}
