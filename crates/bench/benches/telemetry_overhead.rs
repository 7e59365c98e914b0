//! Telemetry overhead smoke: instrumented vs uninstrumented sharded run.
//!
//! The telemetry registry's cost rules (single-writer counters are relaxed
//! stores, RMW and histograms only per batch) are supposed to make live
//! observability nearly free. This bench pins that down: the same fig2
//! count workload through the same 4-shard engine, with hot-path mirroring
//! on (`live_telemetry(true)`, the default) and off, best-of-N each, and
//! fails if the instrumented run is more than a few percent slower.
//!
//! Results land in `BENCH_telemetry.json` at the repo root.
//!
//! Run: `cargo bench --bench telemetry_overhead`
//! Tolerance override: `FD_TOLERANCE_PCT=10 cargo bench --bench telemetry_overhead`

use std::time::Instant;

use fd_bench::{quick, quick_scaled};
use fd_engine::prelude::*;
use fd_gen::TraceConfig;

const SHARDS: usize = 4;
const DEFAULT_TOLERANCE_PCT: f64 = 5.0;

fn rounds() -> usize {
    if quick() {
        2
    } else {
        7
    }
}

fn trace() -> Vec<Packet> {
    TraceConfig {
        seed: 2,
        duration_secs: quick_scaled(10.0, 1.0),
        rate_pps: 100_000.0,
        n_hosts: 20_000,
        zipf_skew: 1.1,
        tcp_fraction: 1.0,
        ..Default::default()
    }
    .generate()
}

fn query() -> Query {
    Query::builder("telemetry_overhead")
        .filter(|p| p.proto == Proto::Tcp)
        .group_by(|p| p.dst_host())
        .bucket_secs(60)
        .aggregate(count_factory())
        .two_level(true)
        .lfta_slots(65_536)
        .try_build()
        .expect("valid query")
}

/// One full ingest + finish, returning mean ns per offered tuple.
fn run_once(packets: &[Packet], live: bool) -> f64 {
    let mut e = ShardedEngine::try_new(query(), SHARDS)
        .expect("spawn shards")
        .live_telemetry(live);
    let start = Instant::now();
    for p in packets {
        e.try_process(p).expect("shard workers alive");
    }
    let rows = e.finish().len();
    let elapsed = start.elapsed().as_secs_f64();
    assert!(rows > 0, "workload produced no rows");
    elapsed * 1e9 / packets.len() as f64
}

fn main() {
    let packets = trace();
    let tolerance_pct = std::env::var("FD_TOLERANCE_PCT")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(DEFAULT_TOLERANCE_PCT);
    let rounds = rounds();
    println!(
        "telemetry overhead: {} packets, {SHARDS} shards, best of {rounds}, \
         tolerance {tolerance_pct}%{}",
        packets.len(),
        if quick() { " [FD_QUICK]" } else { "" }
    );

    // Warm-up (page cache, allocator, thread pool churn).
    run_once(&packets, false);

    // Interleave the two configurations so thermal/scheduler drift hits
    // both equally; best-of-N is the noise floor of each.
    let mut best_off = f64::INFINITY;
    let mut best_on = f64::INFINITY;
    for round in 0..rounds {
        let off = run_once(&packets, false);
        let on = run_once(&packets, true);
        best_off = best_off.min(off);
        best_on = best_on.min(on);
        println!("  round {round}: off {off:.1} ns/t, on {on:.1} ns/t");
    }
    let overhead_pct = (best_on / best_off - 1.0) * 100.0;
    println!(
        "best: uninstrumented {best_off:.1} ns/t, instrumented {best_on:.1} ns/t \
         => overhead {overhead_pct:+.2}%"
    );

    if quick() {
        println!("FD_QUICK set: skipping the JSON write and the tolerance gate");
        return;
    }

    let json = format!(
        "{{\n  \"bench\": \"telemetry_overhead\",\n  \
         \"workload\": \"fig2 count: 20000 hosts, zipf 1.1, 100000 pkt/s x 10 s, TCP, {SHARDS} shards\",\n  \
         \"rounds\": {rounds},\n  \
         \"uninstrumented_ns_per_tuple\": {best_off:.2},\n  \
         \"instrumented_ns_per_tuple\": {best_on:.2},\n  \
         \"overhead_pct\": {overhead_pct:.2},\n  \
         \"tolerance_pct\": {tolerance_pct}\n}}\n"
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_telemetry.json");
    std::fs::write(out, &json).expect("write BENCH_telemetry.json");
    println!("wrote {out}");

    assert!(
        overhead_pct <= tolerance_pct,
        "live telemetry costs {overhead_pct:.2}% (> {tolerance_pct}% budget)"
    );
}
