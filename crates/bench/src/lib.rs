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
//! running a copy of their loop. [`overhead`] is the one sharded run and
//! the one paired-overhead gate.
//!
//! [`ShardedEngine::try_process_packets`]: fd_engine::shard::ShardedEngine::try_process_packets

pub mod overhead;

use std::sync::Arc;
use std::time::Instant;

use fd_engine::engine::{Engine, EngineStats, Row};
use fd_engine::tuple::{Packet, Proto};
use fd_engine::udaf::{AggregatorFactory, Query};

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

/// The Fig. 2 query over `aggregate`: TCP only, grouped by destination
/// host, 60 s buckets, split across a 65 536-slot LFTA when `two_level`.
pub fn fig2_query(aggregate: Arc<dyn AggregatorFactory>, two_level: bool) -> Query {
    Query::builder("fig2")
        .filter(|p| p.proto == Proto::Tcp)
        .group_by(|p| p.dst_host())
        .bucket_secs(60)
        .aggregate(aggregate)
        .two_level(two_level)
        .lfta_slots(65_536)
        .try_build()
        .expect("valid query")
}

/// Outcome of running one query over one trace.
#[derive(Debug)]
pub struct RunMeasurement {
    /// Mean cost per offered tuple, nanoseconds.
    pub ns_per_tuple: f64,
    /// Engine counters.
    pub stats: EngineStats,
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
    let rows = engine.finish();
    RunMeasurement {
        ns_per_tuple: elapsed.as_nanos() as f64 / packets.len().max(1) as f64,
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
