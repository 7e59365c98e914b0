//! Multi-producer ingress scaling on the fwd-poly count workload, observed
//! through the engine's own ingress plane.
//!
//! `ShardedEngine::try_producers(P)` gives the plane P ingress handles,
//! each owning the full admit-route-stage loop and its own rings to every
//! shard worker. This bench detaches them
//! (`ShardedEngine::take_ingress_handles`), feeds each from its own thread
//! with the workers attached, and records per P:
//!
//! - `ingress_cpu_ns_per_tuple`: the handles' thread CPU
//!   ([`fd_engine::telemetry::thread_cpu_ns`]) summed over the producers,
//!   per tuple, best of 25 passes — what the plane costs, gated by
//!   `scripts/bench_diff.py`;
//! - `wallclock_tuples_per_sec`: tuples over the wall time from the first
//!   `ingest` until `finish` has drained the workers and merged.
//!
//! Producer `p` takes every P-th tuple from `p` on, so each handle's
//! watermark tracks the stream's, in `fdql`-sized chunks; the passes of
//! the three producer counts are interleaved. Every P must
//! emit the same rows: the same groups, each value equal up to rounding
//! (a worker adds a group's weights in epoch order, which depends on P).
//!
//! A row is `core_bound` when the host has fewer cores than P producers
//! plus the shard workers: the threads then time-slice, and the wall
//! clock measures the host rather than the plane. The wall-clock speedup
//! at 4 producers is recorded, not asserted: with the workers attached,
//! the 8 shards' worker cost and the zipf-skewed hottest shard cap the
//! plane, and no run has yet shown what that cap allows.
//!
//! Results land in `BENCH_ingress.json` at the repo root. `FD_QUICK=1`
//! shrinks the run and skips the JSON write.
//!
//! Run: `cargo bench --bench ingress_scaling`

use std::fmt::Write as _;
use std::time::Instant;

use fd_bench::{quick, quick_scaled, Table};
use fd_core::decay::Monomial;
use fd_engine::prelude::*;
use fd_engine::telemetry::thread_cpu_ns;
use fd_gen::TraceConfig;

const PRODUCERS: [usize; 3] = [1, 2, 4];
const SHARDS: usize = 8;
/// Timed passes per producer count; the best is reported. A shared host
/// slows by up to 2× in phases of seconds, so the run (~10 s) is made long
/// enough to see a quiet one.
const PASSES: usize = 25;
/// Tuples per `ingest` call: `fdql`'s commit chunk. Each call ends in a
/// seal, so 1024-tuple calls would ship eight-times-smaller messages than
/// the plane's own batch rule and park on full rings far more often.
const CHUNK: usize = 4096;

fn trace() -> Vec<Packet> {
    TraceConfig {
        seed: 2,
        duration_secs: quick_scaled(20.0, 1.0),
        rate_pps: 100_000.0,
        n_hosts: 20_000,
        zipf_skew: 1.1,
        tcp_fraction: 1.0,
        ..Default::default()
    }
    .generate()
}

fn query() -> Query {
    Query::builder("ingress")
        .filter(|p| p.proto == Proto::Tcp)
        .group_by(|p| p.dst_host())
        .bucket_secs(60)
        .aggregate(fwd_count_factory(Monomial::quadratic()))
        .two_level(false)
        .try_build()
        .expect("valid query")
}

struct Pass {
    cpu_ns_per_tuple: f64,
    tuples_per_sec: f64,
    rows: Vec<Row>,
}

/// One run of the plane: P detached handles, each fed its share from its
/// own thread, then `finish`.
fn run(slices: &[Vec<Packet>]) -> Pass {
    let mut engine = ShardedEngine::try_new(query(), SHARDS)
        .expect("spawn shards")
        .try_producers(slices.len())
        .expect("producers");
    let handles = engine.take_ingress_handles();
    let start = Instant::now();
    let cpu_ns: u64 = std::thread::scope(|scope| {
        let producers: Vec<_> = handles
            .into_iter()
            .zip(slices)
            .map(|(mut h, slice)| {
                scope.spawn(move || {
                    let cpu0 = thread_cpu_ns();
                    for chunk in slice.chunks(CHUNK) {
                        h.ingest(chunk).expect("shard workers alive");
                    }
                    h.finish();
                    thread_cpu_ns() - cpu0
                })
            })
            .collect();
        producers
            .into_iter()
            .map(|p| p.join().expect("producer thread"))
            .sum()
    });
    let rows = engine.finish();
    let secs = start.elapsed().as_secs_f64();
    let n = slices.iter().map(Vec::len).sum::<usize>() as f64;
    Pass {
        cpu_ns_per_tuple: cpu_ns as f64 / n,
        tuples_per_sec: n / secs,
        rows,
    }
}

/// The same groups, each value equal up to rounding.
fn assert_same_rows(want: &[Row], got: &[Row], producers: usize) {
    assert_eq!(want.len(), got.len(), "{producers} producers: row count");
    for (w, g) in want.iter().zip(got) {
        assert_eq!(
            (w.bucket_start, w.key),
            (g.bucket_start, g.key),
            "{producers} producers: groups"
        );
        let (a, b) = (
            w.value.as_float().expect("a count"),
            g.value.as_float().expect("a count"),
        );
        assert!(
            (a - b).abs() <= 1e-9 * a.abs().max(b.abs()),
            "{producers} producers: key {} counted {b}, one producer {a}",
            w.key
        );
    }
}

fn fmt_tps(tps: f64) -> String {
    format!("{:.1} Mt/s", tps / 1e6)
}

fn main() {
    let packets = trace();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "ingress scaling on the fwd-poly count workload: {} packets, {SHARDS} shards, \
         {cores} host core(s){}",
        packets.len(),
        if quick() { " [FD_QUICK]" } else { "" }
    );

    let mut table = Table::new(
        "Multi-producer ingress — observed through IngressHandle",
        "producers",
        &["ingress CPU ns/t", "wall-clock", "core-bound"],
    );
    // Producer p of P takes every P-th tuple from p on.
    let shares: Vec<Vec<Vec<Packet>>> = PRODUCERS
        .iter()
        .map(|&p| {
            (0..p)
                .map(|i| packets.iter().skip(i).step_by(p).copied().collect())
                .collect()
        })
        .collect();
    let reference = run(&shares[0]).rows; // warm-up: threads, rings, allocator
    let mut cpu = [f64::INFINITY; PRODUCERS.len()];
    let mut wallclock = [0.0f64; PRODUCERS.len()];
    for _ in 0..PASSES {
        // Interleaved, so each P's passes spread over the whole run.
        for (i, share) in shares.iter().enumerate() {
            let pass = run(share);
            assert_same_rows(&reference, &pass.rows, PRODUCERS[i]);
            cpu[i] = cpu[i].min(pass.cpu_ns_per_tuple);
            wallclock[i] = wallclock[i].max(pass.tuples_per_sec);
        }
    }
    let mut json_series = String::new();
    for ((p, cpu), tps) in PRODUCERS.iter().zip(cpu).zip(wallclock) {
        let core_bound = cores < p + SHARDS;
        table.row(
            format!("{p}"),
            vec![format!("{cpu:.1}"), fmt_tps(tps), format!("{core_bound}")],
        );
        let _ = writeln!(
            json_series,
            "    {{\"label\": \"{p} producers\", \"producers\": {p}, \
             \"ingress_cpu_ns_per_tuple\": {cpu:.1}, \
             \"wallclock_tuples_per_sec\": {tps:.0}, \
             \"core_bound\": {core_bound}}},"
        );
    }
    table.print();

    let speedup4 = wallclock[wallclock.len() - 1] / wallclock[0];
    println!("wall-clock speedup at 4 producers vs 1: {speedup4:.2}x");

    if quick() {
        println!("FD_QUICK set: skipping the JSON write");
        return;
    }

    let json = format!(
        "{{\n  \"bench\": \"ingress_scaling\",\n  \
         \"workload\": \"fwd-poly count: 20000 hosts, zipf 1.1, 100000 pkt/s x 20 s, TCP\",\n  \
         \"host_cores\": {cores},\n  \
         \"shards\": {SHARDS},\n  \
         \"wallclock_speedup_at_4_producers\": {speedup4:.2},\n  \
         \"note\": \"P detached IngressHandles fed from P threads, workers attached, best of {PASSES} passes; ingress_cpu_ns_per_tuple sums the handles' thread CPU; wallclock runs from the first ingest to finish; core_bound when host_cores < producers + shards\",\n  \
         \"series\": [\n{}  ]\n}}\n",
        json_series.trim_end_matches(",\n").to_string() + "\n"
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ingress.json");
    std::fs::write(out, &json).expect("write BENCH_ingress.json");
    println!("wrote {out}");
}
