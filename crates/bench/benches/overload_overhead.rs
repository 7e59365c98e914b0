//! Overload-plane overhead gate: what the shed machinery costs a
//! dispatcher that never needs it, measured on a forward-decayed sum
//! workload through the real engine.
//!
//! The overload control plane is designed to be invisible on the happy
//! path. Admission replaces a blocking ring push with a
//! `wait_capacity(deadline)` probe that returns `Ready` immediately when
//! the ring has room, so the lossless default ([`ShedPolicy::Block`])
//! adds one capacity check and one depth read per batch. Arming
//! [`ShedPolicy::Subsample`] additionally builds a per-shard
//! forward-decay subsampler, threads an optional Horvitz–Thompson scale
//! column through every batch message, and compares the ring depth
//! against the lag budget on every dispatch — but thins nothing until a
//! shard actually lags.
//!
//! "On" is subsample-armed, "off" the Block default. The gated statistic
//! is the median paired ratio of dispatcher-thread CPU
//! (`fd_bench::overhead`), budget 3%; wall ratios are context only.
//!
//! A third configuration measures the *engaged* worst case — lag budget
//! 0, so every batch is thinned through the sampler — to put a committed
//! ceiling on what shedding itself costs when overload is real. That
//! number is exempt from the happy-path budget: it is the price of load
//! shedding, not of having the option.
//!
//! Results land in `BENCH_overload.json` at the repo root.
//!
//! Run: `cargo bench -p fd-bench --bench overload_overhead`

use fd_bench::fig2_query;
use fd_bench::overhead::{self, Gate, Pass, SHARDS};
use fd_bench::quick;
use fd_core::decay::{AnyDecay, Monomial};
use fd_engine::prelude::*;

const DEFAULT_TOLERANCE_PCT: f64 = 3.0;

/// The `Subsample` policy at `target_rate`, under the query's decay.
fn subsample(target_rate: f64) -> OverloadConfig {
    OverloadConfig {
        policy: ShedPolicy::Subsample { target_rate },
        decay: AnyDecay::Monomial(Monomial::quadratic()),
        ..OverloadConfig::default()
    }
}

fn main() {
    let gate = Gate::new(
        "overload_overhead",
        "BENCH_overload.json",
        DEFAULT_TOLERANCE_PCT,
    );
    let packets = overhead::fig2_trace(2);
    // A linear, scalable aggregate: the one kind `Subsample` admits, so all
    // three configurations run the identical query.
    let q = fig2_query(
        fwd_sum_factory(Monomial::quadratic(), |p| p.len as f64),
        true,
    );
    let pass = |config| -> Pass {
        overhead::run(&q, &packets, SHARDS, None, |e| {
            e.try_overload(config)
                .expect("fwd sum accepts every policy")
        })
    };
    let p = overhead::paired(overhead::rounds(), |armed| {
        let s = pass(if armed {
            subsample(1.0)
        } else {
            OverloadConfig::default()
        });
        assert!(
            armed || s.snapshot.shed_tuples == 0,
            "Block must never shed"
        );
        s
    });

    // Context: the engaged worst case, every batch thinned.
    let mut thin_cpu = f64::INFINITY;
    let mut thin_shed = 0u64;
    for _ in 0..p.rounds.div_ceil(3) {
        let s = pass(OverloadConfig {
            lag_budget: 0,
            ..subsample(0.7)
        });
        thin_cpu = thin_cpu.min(s.cpu_ns_per_tuple);
        thin_shed = thin_shed.max(s.snapshot.shed_tuples);
    }
    assert!(
        quick() || thin_shed > 0,
        "lag budget 0 at rate 0.7 must actually thin"
    );
    println!(
        "engaged thinning: {thin_cpu:.1} ns/t dispatch CPU at rate 0.7, \
         lag budget 0 ({thin_shed} of {} tuples shed)",
        packets.len()
    );
    gate.check(
        "fig2 fwd-sum",
        p.rounds,
        &[
            ("block_dispatch_cpu_ns_per_tuple", p.off.cpu_ns_per_tuple),
            ("armed_dispatch_cpu_ns_per_tuple", p.on.cpu_ns_per_tuple),
            ("happy_path_overhead_pct", p.cpu_overhead_pct),
            ("block_wall_ns", p.off.wall_ns_per_tuple),
            ("armed_wall_ns", p.on.wall_ns_per_tuple),
            ("wall_overhead_pct", p.wall_overhead_pct),
            ("thinning_dispatch_cpu_ns_per_tuple", thin_cpu),
            ("thinning_shed_tuples", thin_shed as f64),
        ],
        p.cpu_overhead_pct,
    );
}
