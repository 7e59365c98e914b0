//! One paired-overhead harness for the gates that price an engine choice
//! on the paper's Fig. 2 query (§VIII): durability, supervision, the
//! overload plane and live telemetry.
//!
//! A gate runs one trace through the same 4-shard engine configured two
//! ways, "off" and "on", and fails when "on" costs more than its budget.
//! Every pass is fed as `fdql` feeds ([`run`]). A pass lasts tens of
//! milliseconds, a few scheduling quanta, so noise is handled twice over
//! ([`paired`]): each round runs two passes per configuration and keeps
//! each configuration's minimum, and the gated ratio is the median of the
//! per-round ratios, with the order alternating across rounds so that
//! common-mode drift cancels.
//!
//! The gated clock is the dispatcher thread's CPU (`thread_cpu_ns`): it
//! counts the work the dispatch path executes, not time blocked on a full
//! ring or preempted by a worker, so it does not price the core count.
//! Wall clock is context, except for live telemetry, whose worker-side
//! mirroring never shows on the dispatcher.

use std::path::Path;
use std::time::Instant;

use fd_engine::prelude::*;
use fd_engine::telemetry::thread_cpu_ns;
use fd_gen::TraceConfig;

use crate::{quick, quick_scaled};

/// Worker shards in every gate's engine.
pub const SHARDS: usize = 4;

/// Tuples per feed chunk and per durable commit: `fdql`'s `COMMIT_CHUNK`.
pub const CHUNK: usize = 4096;

/// What every gate's JSON says about its input.
const WORKLOAD: &str =
    "20000 hosts, zipf 1.1, 100000 pkt/s x 10 s, TCP, 4 shards, 4096-tuple chunks";

/// The Fig. 2 trace: 20 000 hosts, Zipf 1.1, 100 000 pkt/s for 10 s (1 s
/// under `FD_QUICK`), all TCP.
pub fn fig2_trace(seed: u64) -> Vec<Packet> {
    TraceConfig {
        seed,
        duration_secs: quick_scaled(10.0, 1.0),
        rate_pps: 100_000.0,
        n_hosts: 20_000,
        zipf_skew: 1.1,
        tcp_fraction: 1.0,
        ..Default::default()
    }
    .generate()
}

/// One timed pass of [`run`].
#[derive(Debug, Default)]
pub struct Pass {
    /// Dispatcher-thread CPU ns per offered tuple.
    pub cpu_ns_per_tuple: f64,
    /// Wall ns per offered tuple, ingest plus `finish`.
    pub wall_ns_per_tuple: f64,
    /// Rows emitted.
    pub rows: usize,
    /// The engine's telemetry after `finish`.
    pub snapshot: MetricsSnapshot,
}

/// Runs `query` over `packets` through a `shards`-shard engine set up by
/// `configure` and, given a `store`, made durable in a fresh store there
/// (removed afterwards). The trace is fed as `fdql` feeds it: [`CHUNK`]
/// tuples at a time through `try_process_packets`, each chunk followed by
/// `durable_commit` of the position (a no-op without a store); then
/// `finish`. Ingest plus `finish` is timed on the calling thread's CPU
/// clock and on the wall clock.
pub fn run(
    query: &Query,
    packets: &[Packet],
    shards: usize,
    store: Option<&Path>,
    configure: impl FnOnce(ShardedEngine) -> ShardedEngine,
) -> Pass {
    let mut e = configure(ShardedEngine::try_new(query.clone(), shards).expect("spawn shards"));
    if let Some(dir) = store {
        let _ = std::fs::remove_dir_all(dir);
        e = e
            .try_durable(dir, DurabilityOptions::default())
            .expect("open durable store")
            .0;
    }
    let cpu0 = thread_cpu_ns();
    let start = Instant::now();
    let mut position = 0u64;
    for chunk in packets.chunks(CHUNK) {
        e.try_process_packets(chunk).expect("shard workers alive");
        position += chunk.len() as u64;
        e.durable_commit(position).expect("commit");
    }
    let rows = e.finish().len();
    let wall_ns = start.elapsed().as_nanos() as f64;
    let cpu_ns = thread_cpu_ns().saturating_sub(cpu0) as f64;
    assert!(rows > 0, "workload produced no rows");
    assert!(!e.durability_degraded(), "bench store must stay healthy");
    if let Some(dir) = store {
        let _ = std::fs::remove_dir_all(dir);
    }
    let n = packets.len() as f64;
    Pass {
        cpu_ns_per_tuple: cpu_ns / n,
        wall_ns_per_tuple: wall_ns / n,
        rows,
        snapshot: e.telemetry().snapshot(),
    }
}

/// One configuration's least per-tuple costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Floor {
    /// Dispatcher-thread CPU ns per tuple.
    pub cpu_ns_per_tuple: f64,
    /// Wall ns per tuple.
    pub wall_ns_per_tuple: f64,
}

impl Floor {
    const NONE: Floor = Floor {
        cpu_ns_per_tuple: f64::INFINITY,
        wall_ns_per_tuple: f64::INFINITY,
    };

    fn lower_to(&mut self, p: &Pass) {
        self.cpu_ns_per_tuple = self.cpu_ns_per_tuple.min(p.cpu_ns_per_tuple);
        self.wall_ns_per_tuple = self.wall_ns_per_tuple.min(p.wall_ns_per_tuple);
    }
}

/// What [`paired`] measured.
#[derive(Debug)]
pub struct Paired {
    /// Rounds run.
    pub rounds: usize,
    /// "Off"'s floors over every pass.
    pub off: Floor,
    /// "On"'s floors over every pass.
    pub on: Floor,
    /// Median over rounds of on/off dispatcher CPU, as a % overhead.
    pub cpu_overhead_pct: f64,
    /// Median over rounds of on/off wall clock, as a % overhead.
    pub wall_overhead_pct: f64,
    /// The last "on" pass's telemetry.
    pub on_snapshot: MetricsSnapshot,
}

/// Rounds a gate runs: 9, or 2 under `FD_QUICK`.
pub fn rounds() -> usize {
    if quick() {
        2
    } else {
        9
    }
}

/// Compares `pass(true)` ("on") with `pass(false)` ("off"): one warm-up
/// pass of "on" (it touches every page, file and thread "off" does), then
/// `rounds` rounds of two passes per configuration, "off" first in even
/// rounds and "on" first in odd ones. A round's ratio is of the two
/// configurations' minima within it; the floors are each configuration's
/// minima over every pass after the warm-up.
pub fn paired(rounds: usize, mut pass: impl FnMut(bool) -> Pass) -> Paired {
    pass(true);
    let mut floors = [Floor::NONE; 2];
    let mut cpu_ratios = Vec::with_capacity(rounds);
    let mut wall_ratios = Vec::with_capacity(rounds);
    let mut on_snapshot = MetricsSnapshot::default();
    for round in 0..rounds {
        let mut best = [Floor::NONE; 2];
        let first = round % 2 == 1;
        for on in [first, first, !first, !first] {
            let p = pass(on);
            best[on as usize].lower_to(&p);
            floors[on as usize].lower_to(&p);
            if on {
                on_snapshot = p.snapshot;
            }
        }
        let [off, on] = best;
        cpu_ratios.push(on.cpu_ns_per_tuple / off.cpu_ns_per_tuple);
        wall_ratios.push(on.wall_ns_per_tuple / off.wall_ns_per_tuple);
        println!(
            "  round {round}: dispatch CPU off {:.1} / on {:.1} ns/t, wall off {:.1} / on {:.1} ns/t",
            off.cpu_ns_per_tuple, on.cpu_ns_per_tuple, off.wall_ns_per_tuple, on.wall_ns_per_tuple,
        );
    }
    let [off, on] = floors;
    let p = Paired {
        rounds,
        off,
        on,
        cpu_overhead_pct: (median(&mut cpu_ratios) - 1.0) * 100.0,
        wall_overhead_pct: (median(&mut wall_ratios) - 1.0) * 100.0,
        on_snapshot,
    };
    println!(
        "floors: dispatch CPU {:.1} -> {:.1} ns/t, wall {:.1} -> {:.1} ns/t",
        off.cpu_ns_per_tuple, on.cpu_ns_per_tuple, off.wall_ns_per_tuple, on.wall_ns_per_tuple,
    );
    println!(
        "median paired overhead: dispatch CPU {:+.2}%, wall {:+.2}% on {} core(s)",
        p.cpu_overhead_pct,
        p.wall_overhead_pct,
        cores()
    );
    p
}

/// The median of `xs` (the mean of the middle two for an even count).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_unstable_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Cores this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One gate: its bench name, its `BENCH_*.json` file and its budget.
pub struct Gate {
    bench: &'static str,
    file: &'static str,
    /// `FD_TOLERANCE_PCT` if set, else the gate's default.
    tolerance_pct: f64,
}

impl Gate {
    /// Reads the budget and announces the run.
    pub fn new(bench: &'static str, file: &'static str, default_tolerance_pct: f64) -> Self {
        let tolerance_pct = std::env::var("FD_TOLERANCE_PCT")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(default_tolerance_pct);
        println!(
            "{bench}: {} core(s), budget {tolerance_pct}%{}",
            cores(),
            if quick() { " [FD_QUICK]" } else { "" }
        );
        Self {
            bench,
            file,
            tolerance_pct,
        }
    }

    /// Under `FD_QUICK`, nothing: a smoke run is too short to gate on.
    /// Otherwise writes the gate's JSON at the repo root — `bench`,
    /// `workload`, `rounds`, `fields` in order, `tolerance_pct` — and fails
    /// when `overhead_pct` exceeds the budget.
    pub fn check(&self, workload: &str, rounds: usize, fields: &[(&str, f64)], overhead_pct: f64) {
        if quick() {
            println!("FD_QUICK set: skipping the JSON write and the tolerance gate");
            return;
        }
        let mut json = format!(
            "{{\n  \"bench\": \"{}\",\n  \"workload\": \"{workload}: {WORKLOAD}\",\n  \"rounds\": {rounds},\n",
            self.bench
        );
        for (key, x) in fields
            .iter()
            .chain([&("tolerance_pct", self.tolerance_pct)])
        {
            if x.fract() == 0.0 {
                json += &format!("  \"{key}\": {x},\n");
            } else {
                json += &format!("  \"{key}\": {x:.2},\n");
            }
        }
        json = json.trim_end_matches(",\n").to_string() + "\n}\n";
        let out = format!("{}/../../{}", env!("CARGO_MANIFEST_DIR"), self.file);
        std::fs::write(&out, json).unwrap_or_else(|e| panic!("write {out}: {e}"));
        println!("wrote {out}");
        assert!(
            overhead_pct <= self.tolerance_pct,
            "{}: {overhead_pct:.2}% overhead exceeds the {}% budget",
            self.bench,
            self.tolerance_pct
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(cpu: f64, wall: f64) -> Pass {
        Pass {
            cpu_ns_per_tuple: cpu,
            wall_ns_per_tuple: wall,
            ..Pass::default()
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn on_runs_first_in_odd_rounds() {
        let mut order = Vec::new();
        paired(3, |on| {
            order.push(on);
            pass(1.0, 1.0)
        });
        let (f, t) = (false, true);
        let warm_up = [t];
        let even = [f, f, t, t];
        let odd = [t, t, f, f];
        assert_eq!(order, [&warm_up[..], &even, &odd, &even].concat());
    }

    #[test]
    fn floors_are_per_config_minima_over_every_pass() {
        // The warm-up is cheapest of all and must not count; each floor
        // sits in a round's second pass of its configuration, and the CPU
        // and wall floors come from different passes.
        let mut costs = vec![
            (true, 0.5, 0.5), // warm-up
            (false, 10.0, 20.0),
            (false, 9.0, 22.0),
            (true, 12.0, 21.0),
            (true, 11.0, 30.0),
            (true, 13.0, 25.0), // round 1: "on" first
            (true, 14.0, 19.0),
            (false, 10.0, 18.0),
            (false, 12.0, 24.0),
        ]
        .into_iter();
        let p = paired(2, |on| {
            let (want, cpu, wall) = costs.next().expect("one cost per pass");
            assert_eq!(on, want);
            pass(cpu, wall)
        });
        let floor = |f: Floor| (f.cpu_ns_per_tuple, f.wall_ns_per_tuple);
        assert_eq!(floor(p.off), (9.0, 18.0));
        assert_eq!(floor(p.on), (11.0, 19.0));
        // Per-round ratios of per-round minima: 11/9 and 13/10 CPU.
        let cpu = ((11.0 / 9.0 + 13.0 / 10.0) / 2.0 - 1.0) * 100.0;
        assert!((p.cpu_overhead_pct - cpu).abs() < 1e-9);
    }
}
