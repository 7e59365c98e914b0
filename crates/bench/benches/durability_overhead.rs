//! Durability overhead gate: what the WAL adds to the dispatch hot path.
//!
//! The durable sink is designed to cost the dispatcher almost nothing:
//! per batch, one branch and one `Arc` clone pushed onto a dedicated
//! writer thread's ring — serialization, checksumming, segment rotation,
//! fsync and checkpoint persistence all happen on the writer thread, off
//! the dispatch path. This bench holds that design to a number.
//!
//! **The gated number: dispatcher-thread CPU in the real engine** (the
//! `thread_cpu_ns` clock), durable (`fsync=checkpoint`, the default
//! policy) vs supervised-but-in-memory, identical chunked feeding either
//! way so the only delta is the durable hook plus the commit records.
//! Thread CPU does not charge time the writer thread spends in `write(2)`
//! or `fsync(2)`; with a spare core for the writer, its work overlaps
//! dispatch and the metric isolates the hook itself, so the budget is
//! tight (5%).
//!
//! **On a single-core host the isolation is physically impossible**: the
//! writer time-shares the dispatcher's core, and every preemption bills
//! cache refills to the dispatcher's own CPU clock — an irreducible
//! co-scheduling floor of a few ns/tuple that would dwarf a 5% budget
//! (baseline dispatch is ~13 ns/tuple). The gate there uses a looser,
//! documented budget instead of silently gating interference. The budget
//! is not toothless: a broken batch-recycling path (the WAL writer
//! holding the third `Arc` on every batch so buffers never returned to
//! the pool, charging a fresh ~100 KiB allocation plus cold-page fill to
//! the dispatcher per flush) measured +75% here and is exactly the class
//! of dispatcher-side regression the single-core budget exists to catch.
//! Wall clock is reported as context, never gated: on one core it
//! includes the writer's entire serialize/checksum/write/fsync bill.
//!
//! Noise handling matches the repo's other gates: interleaved passes with
//! per-config minima inside each round, **median of per-round ratios**
//! across rounds with alternating order, warm-up pass first.
//!
//! Results land in `BENCH_durability.json` at the repo root; the
//! `*_ns_per_tuple` fields there are regression-gated across commits by
//! `scripts/bench_diff.py`.
//!
//! Run: `cargo bench -p fd-bench --bench durability_overhead`
//! Knobs: `FD_TOLERANCE_PCT` (gate, default 5 with ≥2 cores / 45 on a
//! single core), `FD_ROUNDS` (pairs, default 9), `FD_QUICK` (short
//! rounds, no JSON, no gate).

use std::path::PathBuf;
use std::time::Instant;

use fd_bench::{quick, quick_scaled};
use fd_engine::prelude::*;
use fd_engine::telemetry::thread_cpu_ns;
use fd_gen::TraceConfig;

const SHARDS: usize = 4;
/// Dispatch-CPU budget when the writer thread has a core to overlap on.
const DEFAULT_TOLERANCE_PCT: f64 = 5.0;
/// Dispatch-CPU budget on a single-core host, where the writer's CPU
/// time-shares the ingest core and preemption bills cache refills to the
/// dispatcher — see the module docs for why 5% is unmeasurable there.
const SINGLE_CORE_TOLERANCE_PCT: f64 = 45.0;
/// Events per durable commit — mirrors the fdql driver's chunk.
const COMMIT_CHUNK: usize = 4096;

fn trace() -> Vec<Packet> {
    TraceConfig {
        seed: 3,
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
    Query::builder("durability_overhead")
        .filter(|p| p.proto == Proto::Tcp)
        .group_by(|p| p.dst_host())
        .bucket_secs(60)
        .aggregate(count_factory())
        .two_level(true)
        .lfta_slots(65_536)
        .try_build()
        .expect("valid query")
}

fn rounds() -> usize {
    if let Some(n) = std::env::var("FD_ROUNDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    if quick() {
        2
    } else {
        9
    }
}

struct RunSample {
    /// Dispatcher-thread CPU ns per offered tuple (the gated metric).
    cpu_ns_per_tuple: f64,
    /// Raw end-to-end wall ns per offered tuple.
    wall_ns_per_tuple: f64,
    /// WAL bytes written (0 for the in-memory configuration).
    wal_bytes: u64,
    /// Checkpoints persisted to disk (0 for the in-memory configuration).
    checkpoints_persisted: u64,
}

impl RunSample {
    fn min(self, other: RunSample) -> RunSample {
        let durable = if other.wal_bytes > 0 { &other } else { &self };
        RunSample {
            cpu_ns_per_tuple: self.cpu_ns_per_tuple.min(other.cpu_ns_per_tuple),
            wall_ns_per_tuple: self.wall_ns_per_tuple.min(other.wall_ns_per_tuple),
            wal_bytes: durable.wal_bytes,
            checkpoints_persisted: durable.checkpoints_persisted,
        }
    }
}

/// One full ingest + finish through the real engine, workers attached,
/// fed in [`COMMIT_CHUNK`] chunks exactly like the fdql durable driver.
/// `store == None` is the in-memory baseline (same supervision, same
/// chunked feeding, no sink); `Some(dir)` writes a fresh durable store.
fn run_engine(packets: &[Packet], store: Option<PathBuf>) -> RunSample {
    let mut e = ShardedEngine::try_new(query(), SHARDS)
        .expect("spawn shards")
        .checkpoint_every(DEFAULT_CHECKPOINT_EVERY);
    let durable = store.is_some();
    if let Some(dir) = &store {
        let _ = std::fs::remove_dir_all(dir);
        e = e
            .try_durable(dir, DurabilityOptions::default())
            .expect("open durable store")
            .0;
    }
    let cpu0 = thread_cpu_ns();
    let start = Instant::now();
    let mut position = 0u64;
    for chunk in packets.chunks(COMMIT_CHUNK) {
        e.try_process_packets(chunk).expect("feed");
        position += chunk.len() as u64;
        if durable {
            e.durable_commit(position).expect("commit");
        }
    }
    let rows = e.finish().len();
    let elapsed_ns = start.elapsed().as_nanos() as f64;
    let cpu_ns = thread_cpu_ns().saturating_sub(cpu0) as f64;
    assert!(rows > 0, "workload produced no rows");
    assert!(!e.durability_degraded(), "bench store must stay healthy");
    let snap = e.telemetry().snapshot();
    if durable && std::env::var("FD_PROBE_DISCARD").is_err() {
        assert!(snap.wal_bytes_written > 0, "durable run must write a WAL");
    }
    if let Some(dir) = &store {
        let _ = std::fs::remove_dir_all(dir);
    }
    let n = packets.len() as f64;
    RunSample {
        cpu_ns_per_tuple: cpu_ns / n,
        wall_ns_per_tuple: elapsed_ns / n,
        wal_bytes: snap.wal_bytes_written,
        checkpoints_persisted: snap.checkpoints_persisted,
    }
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn main() {
    let packets = trace();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tolerance_pct = std::env::var("FD_TOLERANCE_PCT")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(if cores >= 2 {
            DEFAULT_TOLERANCE_PCT
        } else {
            SINGLE_CORE_TOLERANCE_PCT
        });
    let rounds = rounds();
    let store = std::env::temp_dir().join(format!("fd-bench-durable-{}", std::process::id()));
    println!(
        "durability overhead: {} packets, {SHARDS} shards, fsync=checkpoint, \
         commit every {COMMIT_CHUNK} events, {cores} core(s), \
         dispatch-CPU tolerance {tolerance_pct}%{}{}",
        packets.len(),
        if cores == 1 {
            " (single-core co-scheduling budget)"
        } else {
            ""
        },
        if quick() { " [FD_QUICK]" } else { "" }
    );

    let mut best_off_cpu = f64::INFINITY;
    let mut best_on_cpu = f64::INFINITY;
    let mut best_off_wall = f64::INFINITY;
    let mut best_on_wall = f64::INFINITY;
    let mut cpu_ratios = Vec::with_capacity(rounds);
    let mut wall_ratios = Vec::with_capacity(rounds);
    let mut wal_bytes = 0u64;
    let mut ckpts = 0u64;
    run_engine(&packets, Some(store.clone())); // warm-up: page cache, allocator, threads
    for round in 0..rounds {
        let (off, on) = if round % 2 == 0 {
            let off = run_engine(&packets, None).min(run_engine(&packets, None));
            let on = run_engine(&packets, Some(store.clone()))
                .min(run_engine(&packets, Some(store.clone())));
            (off, on)
        } else {
            let on = run_engine(&packets, Some(store.clone()))
                .min(run_engine(&packets, Some(store.clone())));
            let off = run_engine(&packets, None).min(run_engine(&packets, None));
            (off, on)
        };
        best_off_cpu = best_off_cpu.min(off.cpu_ns_per_tuple);
        best_on_cpu = best_on_cpu.min(on.cpu_ns_per_tuple);
        best_off_wall = best_off_wall.min(off.wall_ns_per_tuple);
        best_on_wall = best_on_wall.min(on.wall_ns_per_tuple);
        cpu_ratios.push(on.cpu_ns_per_tuple / off.cpu_ns_per_tuple);
        wall_ratios.push(on.wall_ns_per_tuple / off.wall_ns_per_tuple);
        wal_bytes = on.wal_bytes;
        ckpts = on.checkpoints_persisted;
        println!(
            "  round {round}: dispatch CPU off {:.1} / on {:.1} ns/t, \
             wall off {:.1} / on {:.1} ns/t ({:.1} MiB WAL, {} checkpoints persisted)",
            off.cpu_ns_per_tuple,
            on.cpu_ns_per_tuple,
            off.wall_ns_per_tuple,
            on.wall_ns_per_tuple,
            on.wal_bytes as f64 / (1024.0 * 1024.0),
            on.checkpoints_persisted,
        );
    }
    let cpu_overhead_pct = (median(&mut cpu_ratios) - 1.0) * 100.0;
    let wall_overhead_pct = (median(&mut wall_ratios) - 1.0) * 100.0;
    println!(
        "floors: dispatch CPU {best_off_cpu:.1} -> {best_on_cpu:.1} ns/t, \
         wall {best_off_wall:.1} -> {best_on_wall:.1} ns/t"
    );
    println!(
        "median paired overhead: dispatch CPU {cpu_overhead_pct:+.2}%, \
         wall {wall_overhead_pct:+.2}% on {cores} core(s)"
    );

    if quick() {
        println!("FD_QUICK set: skipping the JSON write and the tolerance gate");
        return;
    }

    let json = format!(
        "{{\n  \"bench\": \"durability_overhead\",\n  \
         \"workload\": \"fig2 count: 20000 hosts, zipf 1.1, 100000 pkt/s x 10 s, TCP, {SHARDS} shards, fsync=checkpoint, commit every {COMMIT_CHUNK}\",\n  \
         \"rounds\": {rounds},\n  \
         \"plain_dispatch_cpu_ns_per_tuple\": {best_off_cpu:.2},\n  \
         \"durable_dispatch_cpu_ns_per_tuple\": {best_on_cpu:.2},\n  \
         \"dispatch_cpu_overhead_pct\": {cpu_overhead_pct:.2},\n  \
         \"plain_wall_ns\": {best_off_wall:.2},\n  \
         \"durable_wall_ns\": {best_on_wall:.2},\n  \
         \"wall_overhead_pct\": {wall_overhead_pct:.2},\n  \
         \"wal_mib\": {:.2},\n  \
         \"checkpoints_persisted\": {ckpts},\n  \
         \"cores\": {cores},\n  \
         \"tolerance_pct\": {tolerance_pct}\n}}\n",
        wal_bytes as f64 / (1024.0 * 1024.0),
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_durability.json");
    std::fs::write(out, &json).expect("write BENCH_durability.json");
    println!("wrote {out}");

    assert!(
        cpu_overhead_pct <= tolerance_pct,
        "the durable sink costs {cpu_overhead_pct:.2}% dispatch-thread CPU \
         (> {tolerance_pct}% budget); wall {wall_overhead_pct:+.2}%"
    );
}
