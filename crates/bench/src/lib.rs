//! Shared harness utilities for the figure-reproduction benchmarks.
//!
//! Every `benches/fig*.rs` target regenerates one figure of the paper: it
//! builds the workload with `fd-gen`, runs the competing queries through
//! `fd-engine`, measures per-tuple cost and summary space, and prints the
//! same series the paper plots, as a markdown table. Results are recorded in
//! `EXPERIMENTS.md`.

use std::time::Instant;

use fd_engine::engine::{Engine, EngineStats, Row};
use fd_engine::shard::ShardedEngine;
use fd_engine::spsc::BatchPool;
use fd_engine::tuple::Packet;
use fd_engine::udaf::Query;

/// True when `FD_QUICK` is set in the environment: benches shrink their
/// workloads to a smoke-test budget, skip their strict assertions (the
/// tiny runs are too noisy to gate on), and leave the committed
/// `BENCH_*.json` files untouched. Used by the CI bench-smoke job.
pub fn quick() -> bool {
    std::env::var_os("FD_QUICK").is_some_and(|v| !v.is_empty() && v != "0")
}

/// Scales a full-run workload knob down for `FD_QUICK` smoke runs:
/// returns `full` normally, `full * 0.05` (at least `floor`) under quick.
pub fn quick_scaled(full: f64, floor: f64) -> f64 {
    if quick() {
        (full * 0.05).max(floor)
    } else {
        full
    }
}

/// Outcome of running one query over one trace.
#[derive(Debug)]
pub struct RunMeasurement {
    /// Mean cost per offered tuple, nanoseconds.
    pub ns_per_tuple: f64,
    /// Engine counters.
    pub stats: EngineStats,
    /// Mean summary size per group (bytes), measured at peak (just before
    /// the final bucket close).
    pub space_per_group: Option<f64>,
    /// The emitted rows (for correctness spot checks).
    pub rows: Vec<Row>,
}

/// Runs `query` over `packets`, timing the processing loop only (trace
/// generation and row collection excluded). One warm-up pass over a prefix
/// primes caches and the allocator.
pub fn measure_query(query: &Query, packets: &[Packet]) -> RunMeasurement {
    // Warm-up on up to 50k packets with a throwaway engine.
    let warm = &packets[..packets.len().min(50_000)];
    let mut w = Engine::new(query.clone());
    for p in warm {
        w.process(p);
    }
    w.finish();

    let mut engine = Engine::new(query.clone());
    let start = Instant::now();
    for p in packets {
        engine.process(p);
    }
    let elapsed = start.elapsed();
    let space_per_group = engine.space_per_group();
    let rows = engine.finish();
    RunMeasurement {
        ns_per_tuple: elapsed.as_nanos() as f64 / packets.len().max(1) as f64,
        stats: engine.stats(),
        space_per_group,
        rows,
    }
}

/// Outcome of one sharded run.
#[derive(Debug)]
pub struct ShardMeasurement {
    /// End-to-end throughput, tuples/second: ingest of the whole trace
    /// plus the final flush/merge (`finish`), wall clock.
    pub tuples_per_sec: f64,
    /// The same as mean nanoseconds per offered tuple.
    pub ns_per_tuple: f64,
    /// Combined engine counters.
    pub stats: EngineStats,
    /// Emitted row count (for correctness spot checks).
    pub rows: usize,
}

/// Runs `query` over `packets` through an N-shard engine, fed through
/// `try_process_packets` (the batched path `fdql` uses) in
/// [`fd_engine::shard::DEFAULT_BATCH_SIZE`] chunks, timing ingest + final
/// merge wall-clock. On a host with fewer than `n_shards + 1` cores the
/// workers timeslice with the ingress thread, so the wall-clock gain is
/// bounded by the core count.
pub fn measure_sharded_query(
    query: &Query,
    n_shards: usize,
    packets: &[Packet],
) -> ShardMeasurement {
    let feed = |engine: &mut ShardedEngine, packets: &[Packet]| {
        for chunk in packets.chunks(DISPATCH_BATCH) {
            engine
                .try_process_packets(chunk)
                .expect("shard workers alive");
        }
    };
    // Warm-up pass, same shape as `measure_query`.
    let mut w = ShardedEngine::try_new(query.clone(), n_shards).expect("spawn shards");
    feed(&mut w, &packets[..packets.len().min(50_000)]);
    w.finish();

    let mut engine = ShardedEngine::try_new(query.clone(), n_shards).expect("spawn shards");
    let start = Instant::now();
    feed(&mut engine, packets);
    let rows = engine.finish().len();
    let elapsed = start.elapsed().as_secs_f64();
    ShardMeasurement {
        tuples_per_sec: packets.len() as f64 / elapsed,
        ns_per_tuple: elapsed * 1e9 / packets.len().max(1) as f64,
        stats: engine.stats(),
        rows,
    }
}

/// Batch size the dispatch simulations seal at — the engine's
/// [`fd_engine::shard::DEFAULT_BATCH_SIZE`].
const DISPATCH_BATCH: usize = fd_engine::shard::DEFAULT_BATCH_SIZE;

/// The engine's shard routing: Fibonacci hash, high-bits multiply-shift
/// fold (matches `ShardedEngine`; a low-bits `h % n` fold would misstate
/// the cost *and* the spread for strided keys).
#[inline]
fn route_shard(key: u64, n_shards: usize) -> usize {
    let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((u128::from(h) * n_shards as u128) >> 64) as usize
}

/// Measures the per-tuple cost of the *legacy scalar* dispatch path —
/// per-tuple admission with two divisions (bucket id, closed-bucket
/// target), then a `mem::take` hand-off that leaves an empty `Vec` to
/// regrow, exactly as the pre-batching dispatcher did. Workers are not
/// attached: this isolates the serial ingress fraction.
pub fn measure_dispatch_scalar_ns(query: &Query, n_shards: usize, packets: &[Packet]) -> f64 {
    assert!(n_shards > 0 && !packets.is_empty());
    let mut staged: Vec<Vec<Packet>> = vec![Vec::new(); n_shards];
    let mut watermark: u64 = 0;
    let mut closed_below: u64 = 0;
    let start = Instant::now();
    for pkt in packets {
        if let Some(f) = &query.filter {
            if !f(pkt) {
                continue;
            }
        }
        let bucket = pkt.ts / query.bucket_micros;
        if bucket < closed_below {
            continue;
        }
        watermark = watermark.max(pkt.ts);
        let key = (query.group_by)(pkt);
        let shard = route_shard(key, n_shards);
        staged[shard].push(*pkt);
        if staged[shard].len() >= DISPATCH_BATCH {
            // The legacy hand-off: ship the Vec, regrow a fresh one.
            let batch = std::mem::take(&mut staged[shard]);
            drop(std::hint::black_box(batch));
        }
        closed_below =
            closed_below.max(watermark.saturating_sub(query.slack_micros) / query.bucket_micros);
    }
    std::hint::black_box(&staged);
    start.elapsed().as_nanos() as f64 / packets.len() as f64
}

/// One ingress producer's pass over `packets`, exactly as the engine's
/// `IngressHandle` runs it, worker-free: one fused pass per tuple doing
/// admission with the closed boundary held in timestamp space (no
/// per-tuple divisions), routing, and the push into the owning shard's
/// staging buffer; each time a buffer fills, an epoch seal that ships
/// every shard's staging (a bare marker when empty) through an `Arc`
/// hand-off with pool recycling. With `checkpoint_every > 0` the
/// supervision layer's whole per-message bookkeeping runs inline as well:
/// a clone retained in the per-shard replay backlog, a trim pass
/// releasing batches the latest checkpoint covers, and — the part no
/// instruction count shows — the buffer *rotation*: a retained batch
/// cannot recycle until a checkpoint covers it, so the staging buffers
/// cycle through a `checkpoint_every`-deep window instead of ping-ponging
/// hot. In the real engine the trim and reclaim run on worker threads
/// (the handle only appends), so the supervised number is a conservative
/// ceiling on the ingress thread's share of the cost. The simulated
/// worker checkpoints after `checkpoint_every` applied tuple-equivalents,
/// staggered per shard exactly as the engine staggers. Returns elapsed
/// seconds.
fn dispatch_secs(query: &Query, n_shards: usize, packets: &[Packet], checkpoint_every: u64) -> f64 {
    use std::collections::VecDeque;
    use std::sync::Arc;

    struct Seat {
        backlog: VecDeque<(u64, Arc<Vec<Packet>>)>,
        /// Tuple-equivalents the simulated worker has applied since its
        /// last checkpoint (pre-offset for the engine's stagger).
        applied: u64,
        /// Sequence number of the latest simulated checkpoint.
        ckpt: u64,
    }
    // Pool sized as the engine sizes it: staging plus one checkpoint
    // window of retained batches per shard; prewarmed off the clock, as
    // the engine prewarms at spawn.
    let window = match checkpoint_every {
        0 => 0,
        every => ((every / DISPATCH_BATCH as u64) + 2).min(512) as usize,
    };
    let bound = n_shards * (1 + window) + 2;
    let pool: BatchPool<Packet> = BatchPool::new(bound);
    let blank = Packet {
        ts: 0,
        src_ip: 0,
        dst_ip: 0,
        src_port: 0,
        dst_port: 0,
        len: 0,
        proto: fd_engine::tuple::Proto::Tcp,
    };
    pool.prewarm(bound.min(512), DISPATCH_BATCH, blank);
    let recycle = |pkts: Arc<Vec<Packet>>| {
        if pkts.capacity() > 0 {
            if let Ok(buf) = Arc::try_unwrap(pkts) {
                pool.put(buf);
            }
        }
    };
    let mut seats: Vec<Seat> = (0..n_shards)
        .map(|s| Seat {
            backlog: VecDeque::new(),
            applied: s as u64 * checkpoint_every / n_shards as u64,
            ckpt: 0,
        })
        .collect();
    let mut staging: Vec<Vec<Packet>> = (0..n_shards).map(|_| pool.take(DISPATCH_BATCH)).collect();
    let bm = query.bucket_micros;
    let slack = query.slack_micros;
    let mut wm: u64 = 0;
    let mut closed_low: u64 = 0;
    let mut seq: u64 = 0;
    let start = Instant::now();
    for pkt in packets {
        if query.filter.as_ref().is_some_and(|f| !f(pkt)) || pkt.ts < closed_low {
            continue;
        }
        wm = wm.max(pkt.ts);
        let horizon = wm.saturating_sub(slack);
        if horizon >= closed_low.saturating_add(bm) {
            closed_low = (horizon / bm) * bm;
        }
        let buf = &mut staging[route_shard((query.group_by)(pkt), n_shards)];
        buf.push(*pkt);
        if buf.len() < DISPATCH_BATCH {
            continue;
        }
        // Epoch seal: every shard ships (the determinism contract).
        seq += 1;
        for (staged, seat) in staging.iter_mut().zip(&mut seats) {
            let sent: Arc<Vec<Packet>> = if staged.is_empty() {
                Arc::default()
            } else {
                Arc::new(std::mem::replace(staged, pool.take(DISPATCH_BATCH)))
            };
            let sent = std::hint::black_box(sent);
            if checkpoint_every == 0 {
                // Unsupervised hand-off: the "worker" is the sole owner
                // and returns the drained buffer.
                recycle(sent);
                continue;
            }
            // Retain before sending (the failed send itself must be
            // replayable), then trim what the checkpoint covers.
            seat.backlog.push_back((seq, Arc::clone(&sent)));
            while seat.backlog.front().is_some_and(|(q, _)| *q <= seat.ckpt) {
                let (_, pkts) = seat.backlog.pop_front().expect("non-empty front");
                recycle(pkts);
            }
            // The "worker": applies the batch (dropping its reference)
            // and checkpoints at message boundaries.
            seat.applied += sent.len() as u64 + 1;
            drop(sent);
            if seat.applied >= checkpoint_every {
                seat.ckpt = seq;
                seat.applied = 0;
            }
        }
    }
    std::hint::black_box(&staging);
    std::hint::black_box(&seats);
    start.elapsed().as_secs_f64()
}

/// Measures the per-tuple cost of the engine's ingress loop (see
/// `dispatch_secs`) with supervision off — the serial ingress fraction
/// of one producer, comparable head-to-head with
/// [`measure_dispatch_scalar_ns`].
pub fn measure_dispatch_ns(query: &Query, n_shards: usize, packets: &[Packet]) -> f64 {
    measure_dispatch_supervised_ns(query, n_shards, packets, 0)
}

/// Measures the ingress loop with the supervision layer's per-message
/// bookkeeping run inline (see `dispatch_secs`); `checkpoint_every == 0`
/// runs the identical loop with supervision off (the baseline).
pub fn measure_dispatch_supervised_ns(
    query: &Query,
    n_shards: usize,
    packets: &[Packet],
    checkpoint_every: u64,
) -> f64 {
    assert!(n_shards > 0 && !packets.is_empty());
    dispatch_secs(query, n_shards, packets, checkpoint_every) * 1e9 / packets.len() as f64
}

/// Wall-clock aggregate ingress throughput (tuples/s) with `producers`
/// threads each running the ingress loop over a contiguous slice of
/// `packets`. On hosts with fewer cores than producers this measures
/// oversubscription, not the plane — gate on a core count check and fall
/// back to the modeled aggregate
/// ([`fd_engine::metrics::fabric_capacity_pps`]).
pub fn measure_parallel_ingress_tps(
    query: &Query,
    n_shards: usize,
    producers: usize,
    packets: &[Packet],
) -> f64 {
    assert!(producers > 0 && !packets.is_empty());
    let per = packets.len().div_ceil(producers);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for slice in packets.chunks(per) {
            let q = query.clone();
            scope.spawn(move || dispatch_secs(&q, n_shards, slice, 0));
        }
    });
    packets.len() as f64 / start.elapsed().as_secs_f64()
}

/// Formats a byte count like the paper's log-scale space plots (B, KB, MB).
pub fn fmt_bytes(bytes: f64) -> String {
    if bytes >= 1024.0 * 1024.0 {
        format!("{:.1} MB", bytes / (1024.0 * 1024.0))
    } else if bytes >= 1024.0 {
        format!("{:.1} KB", bytes / 1024.0)
    } else {
        format!("{bytes:.0} B")
    }
}

/// A printable result table: one row per x-value, one column per series.
pub struct Table {
    title: String,
    x_label: String,
    columns: Vec<String>,
    rows: Vec<(String, Vec<String>)>,
}

impl Table {
    /// Starts a table with the given title, x-axis label and series names.
    pub fn new(title: impl Into<String>, x_label: impl Into<String>, columns: &[&str]) -> Self {
        Self {
            title: title.into(),
            x_label: x_label.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row of cells (must match the number of series).
    pub fn row(&mut self, x: impl Into<String>, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "cell count mismatch");
        self.rows.push((x.into(), cells));
    }

    /// Renders the table as GitHub-flavoured markdown.
    pub fn render(&self) -> String {
        let mut out = format!("\n### {}\n\n", self.title);
        out += &format!("| {} |", self.x_label);
        for c in &self.columns {
            out += &format!(" {c} |");
        }
        out += "\n|";
        for _ in 0..=self.columns.len() {
            out += "---|";
        }
        out += "\n";
        for (x, cells) in &self.rows {
            out += &format!("| {x} |");
            for c in cells {
                out += &format!(" {c} |");
            }
            out += "\n";
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_engine::prelude::*;
    use fd_gen::TraceConfig;

    #[test]
    fn measure_query_reports_cost_and_rows() {
        let trace = TraceConfig {
            duration_secs: 1.0,
            rate_pps: 20_000.0,
            ..Default::default()
        }
        .generate();
        let q = Query::builder("count")
            .group_by(|p| p.dst_key())
            .bucket_secs(60)
            .aggregate(count_factory())
            .try_build()
            .expect("valid query");
        let m = measure_query(&q, &trace);
        assert!(m.ns_per_tuple > 0.0);
        assert_eq!(m.stats.tuples_in, trace.len() as u64);
        let total: f64 = m.rows.iter().map(|r| r.value.as_float().unwrap()).sum();
        assert_eq!(total, trace.len() as f64);
    }

    #[test]
    fn fmt_bytes_scales() {
        assert_eq!(fmt_bytes(12.0), "12 B");
        assert_eq!(fmt_bytes(2048.0), "2.0 KB");
        assert_eq!(fmt_bytes(3.0 * 1024.0 * 1024.0), "3.0 MB");
    }

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new("Fig X", "rate", &["a", "b"]);
        t.row("100k", vec!["1".into(), "2".into()]);
        let md = t.render();
        assert!(md.contains("### Fig X"));
        assert!(md.contains("| 100k | 1 | 2 |"));
    }

    #[test]
    #[should_panic(expected = "cell count mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("t", "x", &["a", "b"]);
        t.row("1", vec!["only-one".into()]);
    }
}
