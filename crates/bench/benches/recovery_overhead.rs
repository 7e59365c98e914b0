//! Supervision overhead gate: what checkpointing adds to the dispatch
//! hot path on the fig2 count workload.
//!
//! Checkpointing is designed to stay off the per-tuple dispatch path:
//! workers serialize state only once per `checkpoint_every` tuples
//! (forward decay's frozen numerators make that serialization exact *and*
//! compact), and the dispatcher's extra work is one `Arc` clone, a
//! backlog push and a trim pass per batch — plus one cost no instruction
//! count shows: a retained batch cannot recycle until a checkpoint
//! covers it, so staging buffers rotate through a checkpoint window of
//! memory instead of ping-ponging hot.
//!
//! **The gated number: dispatcher-thread CPU in the real engine**
//! (the `thread_cpu_ns` clock), supervised vs unsupervised, full engine
//! runs with workers attached. Thread CPU counts exactly the work the
//! dispatch path executes — buffer fill, route, ring push, and under
//! supervision the backlog clone/trim — while time blocked on a full
//! ring or preempted by a co-tenant is not charged, which makes the
//! metric core-count independent and far tighter than wall ratios on a
//! 1-core shared runner.
//!
//! Wall-clock ratios are recorded too but only as context: on CI's
//! single core the workers' serialization CPU lands on wall time by
//! timeslicing, pricing the core count rather than the design (on any
//! host with a spare core it overlaps dispatch).
//!
//! Noise is handled twice over: a single pass is ~10 ms — shorter than
//! an OS scheduling quantum — so each round interleaves several passes
//! per configuration and keeps per-config minima (the least-disturbed
//! pass), and the reported overheads are **medians of per-round
//! ratios** with the round order alternating, which cancels common-mode
//! drift and rejects outlier rounds.
//!
//! Results land in `BENCH_recovery.json` at the repo root; the
//! `*_ns_per_tuple` fields there are regression-gated across commits by
//! `scripts/bench_diff.py`.
//!
//! Run: `cargo bench -p fd-bench --bench recovery_overhead`
//! Knobs: `FD_TOLERANCE_PCT` (gate, default 3), `FD_CHECKPOINT_EVERY`
//! (interval), `FD_ROUNDS` (engine pairs, default 9), `FD_QUICK` (short
//! rounds, no JSON, no gate).

use std::time::Instant;

use fd_bench::{quick, quick_scaled};
use fd_engine::prelude::*;
use fd_engine::telemetry::thread_cpu_ns;
use fd_gen::TraceConfig;

const SHARDS: usize = 4;
const DEFAULT_TOLERANCE_PCT: f64 = 3.0;

fn env_rounds(var: &str, full: usize) -> usize {
    if let Some(n) = std::env::var(var)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    if quick() {
        2
    } else {
        full
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
    Query::builder("recovery_overhead")
        .filter(|p| p.proto == Proto::Tcp)
        .group_by(|p| p.dst_host())
        .bucket_secs(60)
        .aggregate(count_factory())
        .two_level(true)
        .lfta_slots(65_536)
        .try_build()
        .expect("valid query")
}

struct RunSample {
    /// Dispatcher-thread CPU ns per offered tuple (the gated metric).
    cpu_ns_per_tuple: f64,
    /// Raw end-to-end wall ns per offered tuple.
    wall_ns_per_tuple: f64,
    /// Checkpoints taken (0 for the unsupervised configuration).
    checkpoints: u64,
    /// Total worker serialization CPU, ns.
    checkpoint_ns: u64,
}

impl RunSample {
    fn min(self, other: RunSample) -> RunSample {
        let supervised = if other.checkpoints > 0 { &other } else { &self };
        RunSample {
            cpu_ns_per_tuple: self.cpu_ns_per_tuple.min(other.cpu_ns_per_tuple),
            wall_ns_per_tuple: self.wall_ns_per_tuple.min(other.wall_ns_per_tuple),
            checkpoints: supervised.checkpoints,
            checkpoint_ns: supervised.checkpoint_ns,
        }
    }
}

/// One full ingest + finish through the real engine, workers attached.
/// `checkpoint_every == 0` disables supervision entirely (no backlog, no
/// checkpoints — the pre-supervision fast path).
fn run_engine(packets: &[Packet], checkpoint_every: u64) -> RunSample {
    let mut e = ShardedEngine::try_new(query(), SHARDS)
        .expect("spawn shards")
        .checkpoint_every(checkpoint_every);
    let cpu0 = thread_cpu_ns();
    let start = Instant::now();
    for p in packets {
        e.try_process(p).expect("shard workers alive");
    }
    let rows = e.finish().len();
    let elapsed_ns = start.elapsed().as_nanos() as f64;
    let cpu_ns = thread_cpu_ns().saturating_sub(cpu0) as f64;
    assert!(rows > 0, "workload produced no rows");
    let snap = e.telemetry().snapshot();
    // FD_QUICK shrinks the trace below one checkpoint interval per shard;
    // only insist on real checkpoints when the workload can produce them.
    if checkpoint_every > 0 && packets.len() as u64 / SHARDS as u64 > 2 * checkpoint_every {
        assert!(
            snap.checkpoints > 0,
            "supervised run must actually checkpoint"
        );
    }
    let n = packets.len() as f64;
    RunSample {
        cpu_ns_per_tuple: cpu_ns / n,
        wall_ns_per_tuple: elapsed_ns / n,
        checkpoints: snap.checkpoints,
        checkpoint_ns: snap.checkpoint_ns,
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
    let tolerance_pct = std::env::var("FD_TOLERANCE_PCT")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(DEFAULT_TOLERANCE_PCT);
    let every = std::env::var("FD_CHECKPOINT_EVERY")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(DEFAULT_CHECKPOINT_EVERY);
    let rounds = env_rounds("FD_ROUNDS", 9);
    println!(
        "recovery overhead: {} packets, {SHARDS} shards, checkpoint every \
         {every} tuples, dispatch-CPU tolerance {tolerance_pct}%{}",
        packets.len(),
        if quick() { " [FD_QUICK]" } else { "" }
    );

    // Gated phase: the real engine, workers attached, dispatcher-thread
    // CPU. Each round interleaves 2 passes per configuration (order
    // alternating across rounds) and keeps per-config minima before
    // taking the round's ratio.
    let mut best_off_cpu = f64::INFINITY;
    let mut best_on_cpu = f64::INFINITY;
    let mut best_off_wall = f64::INFINITY;
    let mut best_on_wall = f64::INFINITY;
    let mut cpu_ratios = Vec::with_capacity(rounds);
    let mut wall_ratios = Vec::with_capacity(rounds);
    let mut ckpt_count = 0u64;
    let mut ckpt_ns = 0u64;
    run_engine(&packets, 0); // warm-up: page cache, allocator, thread churn
    for round in 0..rounds {
        let pass = |every| run_engine(&packets, every);
        let (off, on) = if round % 2 == 0 {
            let off = pass(0).min(pass(0));
            let on = pass(every).min(pass(every));
            (off, on)
        } else {
            let on = pass(every).min(pass(every));
            let off = pass(0).min(pass(0));
            (off, on)
        };
        best_off_cpu = best_off_cpu.min(off.cpu_ns_per_tuple);
        best_on_cpu = best_on_cpu.min(on.cpu_ns_per_tuple);
        best_off_wall = best_off_wall.min(off.wall_ns_per_tuple);
        best_on_wall = best_on_wall.min(on.wall_ns_per_tuple);
        cpu_ratios.push(on.cpu_ns_per_tuple / off.cpu_ns_per_tuple);
        wall_ratios.push(on.wall_ns_per_tuple / off.wall_ns_per_tuple);
        ckpt_count = on.checkpoints;
        ckpt_ns = on.checkpoint_ns;
        println!(
            "  engine round {round}: dispatch CPU off {:.1} / on {:.1} ns/t, \
             wall off {:.1} / on {:.1} ns/t ({} checkpoints, {:.2} ms serialization CPU)",
            off.cpu_ns_per_tuple,
            on.cpu_ns_per_tuple,
            off.wall_ns_per_tuple,
            on.wall_ns_per_tuple,
            on.checkpoints,
            on.checkpoint_ns as f64 / 1e6,
        );
    }
    let cpu_overhead_pct = (median(&mut cpu_ratios) - 1.0) * 100.0;
    let wall_overhead_pct = (median(&mut wall_ratios) - 1.0) * 100.0;
    println!(
        "engine floors: dispatch CPU {best_off_cpu:.1} -> {best_on_cpu:.1} ns/t, \
         wall {best_off_wall:.1} -> {best_on_wall:.1} ns/t"
    );
    println!(
        "median paired overhead: dispatch CPU {cpu_overhead_pct:+.2}%, \
         wall {wall_overhead_pct:+.2}% on {} core(s)",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    if quick() {
        println!("FD_QUICK set: skipping the JSON write and the tolerance gate");
        return;
    }

    let json = format!(
        "{{\n  \"bench\": \"recovery_overhead\",\n  \
         \"workload\": \"fig2 count: 20000 hosts, zipf 1.1, 100000 pkt/s x 10 s, TCP, {SHARDS} shards, checkpoint every {every}\",\n  \
         \"rounds\": {rounds},\n  \
         \"unsupervised_dispatch_cpu_ns_per_tuple\": {best_off_cpu:.2},\n  \
         \"supervised_dispatch_cpu_ns_per_tuple\": {best_on_cpu:.2},\n  \
         \"dispatch_cpu_overhead_pct\": {cpu_overhead_pct:.2},\n  \
         \"unsupervised_wall_ns\": {best_off_wall:.2},\n  \
         \"supervised_wall_ns\": {best_on_wall:.2},\n  \
         \"wall_overhead_pct\": {wall_overhead_pct:.2},\n  \
         \"checkpoints\": {ckpt_count},\n  \
         \"checkpoint_serialization_ms\": {:.2},\n  \
         \"tolerance_pct\": {tolerance_pct}\n}}\n",
        ckpt_ns as f64 / 1e6,
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_recovery.json");
    std::fs::write(out, &json).expect("write BENCH_recovery.json");
    println!("wrote {out}");

    assert!(
        cpu_overhead_pct <= tolerance_pct,
        "supervision costs {cpu_overhead_pct:.2}% dispatch-thread CPU \
         (> {tolerance_pct}% budget); wall {wall_overhead_pct:+.2}%"
    );
}
