//! Saturation demo: watch the backward-decay machinery fall over, live.
//!
//! The paper's headline operational result: *"the forward decay approach
//! could answer queries on multi-gigabit data without loss, while methods
//! based on backward decay dropped many packets, and reached 100% CPU
//! load."* This example replays the same synthetic trace through the
//! forward-decayed query and the backward (CKT prefix-hierarchy) baseline,
//! measures each one's per-tuple cost on this machine by timing
//! `Engine::run` over the trace, and reports the CPU load and dropped
//! tuples that cost implies at increasing offered rates: the load model of
//! `fd_engine::metrics` (load = R·c, capped at 100%, beyond which the
//! surplus is dropped) that the Figure 2 and Figure 5 benches use.
//!
//! Run with: `cargo run --release --example saturation`

use std::time::Instant;

use forward_decay::core::decay::{BackExponential, Exponential};
use forward_decay::engine::prelude::*;
use forward_decay::gen::TraceConfig;

fn main() -> Result<(), forward_decay::core::Error> {
    let packets = TraceConfig {
        seed: 77,
        duration_secs: 10.0,
        rate_pps: 200_000.0,
        n_hosts: 20_000,
        zipf_skew: 1.1,
        tcp_fraction: 1.0,
        ..Default::default()
    }
    .generate();
    println!(
        "trace: {} packets; query: per-minute heavy TCP receivers (φ = 0.02)\n",
        packets.len()
    );

    let forward = Query::builder("forward")
        .bucket_secs(60)
        .aggregate(fwd_hh_factory(Exponential::new(0.1), 0.01, 0.02, |p| {
            p.dst_host()
        }))
        .try_build()?;
    let backward = Query::builder("backward")
        .bucket_secs(60)
        .aggregate(prefix_hh_factory(
            16,
            0.01,
            DynBackward::from_decay(BackExponential::new(0.1)),
            0.02,
            |p| p.dst_host(),
        ))
        .try_build()?;

    // Nanoseconds per tuple of a full run over the trace, the best of
    // three: other load on the host only ever adds time.
    let ns_per_tuple = |query: &Query| {
        (0..3)
            .map(|_| {
                let start = Instant::now();
                Engine::new(query.clone()).run(packets.iter().copied());
                start.elapsed().as_nanos() as f64 / packets.len() as f64
            })
            .fold(f64::INFINITY, f64::min)
    };
    let fwd_ns = ns_per_tuple(&forward);
    let bwd_ns = ns_per_tuple(&backward);
    println!("measured cost: forward {fwd_ns:.0} ns/tuple, backward {bwd_ns:.0} ns/tuple\n");

    println!(
        "{:>12} | {:>22} | {:>22}",
        "offered rate", "forward decay", "backward decay (CKT)"
    );
    println!("{:->12}-+-{:->22}-+-{:->22}", "", "", "");
    for rate in [100_000.0, 400_000.0, 1_600_000.0, 6_400_000.0f64] {
        let fmt = |ns: f64| {
            let p = LoadPoint::from_cost(rate, ns);
            if p.drop_frac > 0.0 {
                format!(
                    "{:.0}% load, {:.0}% DROPPED",
                    p.cpu_pct,
                    p.drop_frac * 100.0
                )
            } else {
                format!("{:.1}% load, no loss", p.cpu_pct)
            }
        };
        println!(
            "{:>9}k/s | {:>22} | {:>22}",
            rate as u64 / 1000,
            fmt(fwd_ns),
            fmt(bwd_ns)
        );
    }

    println!(
        "\nThe forward-decayed SpaceSaving keeps up long after the backward\n\
         structure saturates — the paper's Section VIII conclusion, reproduced\n\
         on this machine's clock."
    );
    Ok(())
}
