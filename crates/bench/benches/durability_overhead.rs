//! Durability overhead gate: what the WAL adds to the dispatch hot path.
//!
//! The durable sink is designed to cost the dispatcher almost nothing:
//! per batch, one branch and one `Arc` clone pushed onto a dedicated
//! writer thread's ring — serialization, checksumming, segment rotation,
//! fsync and checkpoint persistence all happen on the writer thread, off
//! the dispatch path. This bench holds that design to a number.
//!
//! "On" is durable (`fsync=checkpoint`, the default policy, a commit per
//! chunk as `fdql` commits), "off" is supervised but in memory; both are
//! fed the same chunks, so the only delta is the durable hook plus the
//! commit records. The gated statistic is the median paired ratio of
//! dispatcher-thread CPU (`fd_bench::overhead`). Thread CPU does not
//! charge time the writer spends in `write(2)` or `fsync(2)`; with a spare
//! core for the writer, its work overlaps dispatch and the metric isolates
//! the hook itself, so the budget is tight (5%).
//!
//! **On a single-core host the isolation is physically impossible**: the
//! writer time-shares the dispatcher's core, and every preemption bills
//! cache refills to the dispatcher's own CPU clock — an irreducible
//! co-scheduling floor of a few ns/tuple that would dwarf a 5% budget. The
//! gate there uses a looser, documented budget instead of silently gating
//! interference. The budget is not toothless: a broken batch-recycling
//! path (the WAL writer holding the third `Arc` on every batch so buffers
//! never returned to the pool, charging a fresh ~100 KiB allocation plus
//! cold-page fill to the dispatcher per flush) measured +75% here and is
//! exactly the class of dispatcher-side regression the single-core budget
//! exists to catch. Wall clock is reported as context, never gated: on
//! one core it includes the writer's entire serialize/checksum/write/fsync
//! bill.
//!
//! Results land in `BENCH_durability.json` at the repo root.
//!
//! Run: `cargo bench -p fd-bench --bench durability_overhead`

use fd_bench::fig2_query;
use fd_bench::overhead::{self, cores, Gate, SHARDS};
use fd_engine::prelude::*;

/// Dispatch-CPU budget when the writer thread has a core to overlap on.
const DEFAULT_TOLERANCE_PCT: f64 = 5.0;
/// Dispatch-CPU budget on a single-core host, where the writer's CPU
/// time-shares the ingest core and preemption bills cache refills to the
/// dispatcher — see the module docs for why 5% is unmeasurable there.
const SINGLE_CORE_TOLERANCE_PCT: f64 = 45.0;

fn main() {
    let budget = if cores() >= 2 {
        DEFAULT_TOLERANCE_PCT
    } else {
        SINGLE_CORE_TOLERANCE_PCT
    };
    let gate = Gate::new("durability_overhead", "BENCH_durability.json", budget);
    let packets = overhead::fig2_trace(3);
    let q = fig2_query(count_factory(), true);
    let store = std::env::temp_dir().join(format!("fd-bench-durable-{}", std::process::id()));
    let p = overhead::paired(overhead::rounds(), |durable| {
        let store = durable.then_some(store.as_path());
        overhead::run(&q, &packets, SHARDS, store, |e| e)
    });
    let snap = &p.on_snapshot;
    assert!(snap.wal_bytes_written > 0, "durable run must write a WAL");
    gate.check(
        "fig2 count, fsync=checkpoint, a commit per chunk",
        p.rounds,
        &[
            ("plain_dispatch_cpu_ns_per_tuple", p.off.cpu_ns_per_tuple),
            ("durable_dispatch_cpu_ns_per_tuple", p.on.cpu_ns_per_tuple),
            ("dispatch_cpu_overhead_pct", p.cpu_overhead_pct),
            ("plain_wall_ns", p.off.wall_ns_per_tuple),
            ("durable_wall_ns", p.on.wall_ns_per_tuple),
            ("wall_overhead_pct", p.wall_overhead_pct),
            ("wal_mib", snap.wal_bytes_written as f64 / (1024.0 * 1024.0)),
            ("checkpoints_persisted", snap.checkpoints_persisted as f64),
            ("cores", cores() as f64),
        ],
        p.cpu_overhead_pct,
    );
}
