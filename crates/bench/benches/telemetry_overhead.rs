//! Telemetry overhead gate: instrumented vs uninstrumented sharded run.
//!
//! The telemetry registry's cost rules (single-writer counters are relaxed
//! stores, RMW and histograms only per batch) are supposed to make live
//! observability nearly free. "On" mirrors hot-path telemetry
//! (`live_telemetry(true)`, the default), "off" does not. Much of the
//! mirroring happens on the workers, where the dispatcher's CPU clock
//! cannot see it, so this gate alone is on the wall-clock floors
//! (`fd_bench::overhead`), budget 5%.
//!
//! Results land in `BENCH_telemetry.json` at the repo root.
//!
//! Run: `cargo bench -p fd-bench --bench telemetry_overhead`

use fd_bench::fig2_query;
use fd_bench::overhead::{self, Gate, SHARDS};
use fd_engine::prelude::*;

const DEFAULT_TOLERANCE_PCT: f64 = 5.0;

fn main() {
    let gate = Gate::new(
        "telemetry_overhead",
        "BENCH_telemetry.json",
        DEFAULT_TOLERANCE_PCT,
    );
    let packets = overhead::fig2_trace(2);
    let q = fig2_query(count_factory(), true);
    let p = overhead::paired(overhead::rounds(), |live| {
        overhead::run(&q, &packets, SHARDS, None, |e| e.live_telemetry(live))
    });
    let overhead_pct = (p.on.wall_ns_per_tuple / p.off.wall_ns_per_tuple - 1.0) * 100.0;
    println!("wall floors: overhead {overhead_pct:+.2}%");
    gate.check(
        "fig2 count",
        p.rounds,
        &[
            ("uninstrumented_ns_per_tuple", p.off.wall_ns_per_tuple),
            ("instrumented_ns_per_tuple", p.on.wall_ns_per_tuple),
            ("overhead_pct", overhead_pct),
        ],
        overhead_pct,
    );
}
