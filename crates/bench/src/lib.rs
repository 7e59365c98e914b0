//! Shared harness utilities for the figure-reproduction benchmarks.
//!
//! Every `benches/fig*.rs` target regenerates one figure of the paper: it
//! builds the workload with `fd-gen`, runs the competing queries through
//! `fd-engine`, measures per-tuple cost and summary space, and prints the
//! same series the paper plots, as a markdown table. Results are recorded in
//! `EXPERIMENTS.md`.
//!
//! Every measurement here runs the engine's own entry points
//! ([`Engine::process`], [`ShardedEngine::try_process_packets`]); a bench
//! that times ingress detaches the engine's `IngressHandle`s rather than
//! running a copy of their loop.

use std::time::Instant;

use fd_engine::engine::{Engine, EngineStats, Row};
use fd_engine::shard::ShardedEngine;
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
        for chunk in packets.chunks(fd_engine::shard::DEFAULT_BATCH_SIZE) {
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
