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
//! "On" is the default, supervised engine; "off" disables supervision
//! (`checkpoint_every(0)`: no backlog, no checkpoints). The gated
//! statistic is the median paired ratio of dispatcher-thread CPU
//! (`fd_bench::overhead`), budget 3%. Wall clock is context only: on a
//! single core the workers' serialization CPU lands on wall time by
//! timeslicing, pricing the core count rather than the design.
//!
//! Results land in `BENCH_recovery.json` at the repo root.
//!
//! Run: `cargo bench -p fd-bench --bench recovery_overhead`

use fd_bench::fig2_query;
use fd_bench::overhead::{self, Gate, SHARDS};
use fd_bench::quick;
use fd_engine::prelude::*;

const DEFAULT_TOLERANCE_PCT: f64 = 3.0;

fn main() {
    let gate = Gate::new(
        "recovery_overhead",
        "BENCH_recovery.json",
        DEFAULT_TOLERANCE_PCT,
    );
    let packets = overhead::fig2_trace(2);
    let q = fig2_query(count_factory(), true);
    let p = overhead::paired(overhead::rounds(), |supervised| {
        overhead::run(&q, &packets, SHARDS, None, |e| {
            if supervised {
                e
            } else {
                e.checkpoint_every(0)
            }
        })
    });
    let snap = &p.on_snapshot;
    // Under FD_QUICK a shard sees less than one checkpoint interval.
    assert!(
        quick() || snap.checkpoints > 0,
        "supervised run must actually checkpoint"
    );
    gate.check(
        &format!("fig2 count, checkpoint every {DEFAULT_CHECKPOINT_EVERY}"),
        p.rounds,
        &[
            (
                "unsupervised_dispatch_cpu_ns_per_tuple",
                p.off.cpu_ns_per_tuple,
            ),
            (
                "supervised_dispatch_cpu_ns_per_tuple",
                p.on.cpu_ns_per_tuple,
            ),
            ("dispatch_cpu_overhead_pct", p.cpu_overhead_pct),
            ("unsupervised_wall_ns", p.off.wall_ns_per_tuple),
            ("supervised_wall_ns", p.on.wall_ns_per_tuple),
            ("wall_overhead_pct", p.wall_overhead_pct),
            ("checkpoints", snap.checkpoints as f64),
            (
                "checkpoint_serialization_ms",
                snap.checkpoint_ns as f64 / 1e6,
            ),
        ],
        p.cpu_overhead_pct,
    );
}
