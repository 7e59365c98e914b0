//! Figure 5 of the paper: heavy-hitter performance as the stream rate
//! varies.
//!
//! Per one-minute interval, the query identifies the network hosts
//! receiving the most TCP traffic, comparing:
//!
//! - "Unary HH": SpaceSaving optimized for unweighted updates (undecayed),
//! - weighted SpaceSaving under forward exponential decay,
//! - weighted SpaceSaving under forward quadratic decay,
//! - the sliding-window/backward-decay pane structure.
//!
//! The paper's findings to reproduce: the weighted version's overhead over
//! Unary HH is small, the decay function barely matters, and the
//! sliding-window backward-decay approach is much more expensive — at
//! 200k pkt/s it neared 90% CPU (instability) while the forward methods
//! idled.
//!
//! Run: `cargo bench --bench fig5_hh_rate`

use std::sync::Arc;

use fd_bench::{measure_query, quick, quick_scaled, Table};
use fd_core::decay::{BackExponential, Exponential, Monomial};
use fd_engine::prelude::*;
use fd_engine::udaf::FnFactory;
use fd_gen::TraceConfig;

const DURATION_SECS: f64 = 15.0;
const EPS: f64 = 0.01;
const PHI: f64 = 0.02;

fn trace_at(rate_pps: f64) -> Vec<Packet> {
    TraceConfig {
        seed: 5,
        duration_secs: quick_scaled(DURATION_SECS, 1.5),
        rate_pps,
        n_hosts: 20_000,
        zipf_skew: 1.1,
        tcp_fraction: 1.0,
        ..Default::default()
    }
    .generate()
}

fn competitors() -> Vec<(&'static str, Arc<FnFactory>)> {
    vec![
        ("Unary HH", unary_hh_factory(EPS, PHI, |p| p.dst_host())),
        (
            "fwd exp",
            fwd_hh_factory(Exponential::new(0.1), EPS, PHI, |p| p.dst_host()),
        ),
        (
            "fwd poly",
            fwd_hh_factory(Monomial::quadratic(), EPS, PHI, |p| p.dst_host()),
        ),
        (
            "bwd sliding window",
            prefix_hh_factory(
                16,
                EPS,
                DynBackward::from_decay(BackExponential::new(0.1)),
                PHI,
                |p| p.dst_host(),
            ),
        ),
    ]
}

fn query(factory: Arc<FnFactory>) -> Query {
    // One heavy-hitter summary per minute over all TCP traffic (a single
    // group per bucket, holding the SpaceSaving/pane structure).
    Query::builder("fig5")
        .filter(|p| p.proto == Proto::Tcp)
        .bucket_secs(60)
        .aggregate(factory)
        .try_build()
        .expect("valid query")
}

fn main() {
    println!(
        "\nFigure 5 — heavy hitters vs stream rate. Trace: {DURATION_SECS} s synthetic \
         TCP, Zipf 1.1 destinations; φ = {PHI}, ε = {EPS}.\n"
    );
    let labels: Vec<&str> = competitors().iter().map(|(l, _)| *l).collect();
    let mut table = Table::new(
        "Figure 5 — CPU load vs stream rate (summary maintenance)",
        "rate (pkt/s)",
        &labels,
    );
    let mut costs_at_max: Vec<f64> = Vec::new();
    for rate in [50_000.0, 100_000.0, 150_000.0, 200_000.0f64] {
        let packets = trace_at(rate);
        let mut cells = Vec::new();
        let mut costs = Vec::new();
        for (_, factory) in competitors() {
            let m = measure_query(&query(factory), &packets);
            costs.push(m.ns_per_tuple);
            let p = LoadPoint::from_cost(rate, m.ns_per_tuple);
            cells.push(if p.drop_frac > 0.0 {
                format!("100% (drops {:.0}%)", p.drop_frac * 100.0)
            } else {
                format!("{:.2}%", p.cpu_pct)
            });
        }
        if rate == 200_000.0 {
            costs_at_max = costs.clone();
        }
        table.row(format!("{}k", rate as u64 / 1000), cells);
    }
    table.print();

    if quick() {
        println!("\nfig5: FD_QUICK set, skipping the timing shape assertions");
        return;
    }

    // Shape assertions — the paper's findings.
    let (unary, fwd_exp, fwd_poly, sw) = (
        costs_at_max[0],
        costs_at_max[1],
        costs_at_max[2],
        costs_at_max[3],
    );
    // "the overhead of the weighted version … is small compared to the
    // version optimized for unweighted updates".
    assert!(
        fwd_exp < 4.0 * unary && fwd_poly < 4.0 * unary,
        "weighted SS overhead too large: unary {unary}, exp {fwd_exp}, poly {fwd_poly}"
    );
    // "little variation as a function of the decay function".
    let (lo, hi) = (fwd_exp.min(fwd_poly), fwd_exp.max(fwd_poly));
    assert!(
        hi < 2.0 * lo + 20.0,
        "decay functions should cost alike: {fwd_exp} vs {fwd_poly}"
    );
    // "the sliding window-based implementation of backward decay is much
    // more expensive".
    assert!(
        sw > 3.0 * fwd_exp.max(fwd_poly),
        "sliding-window HH should dominate the cost chart: {sw} vs {fwd_exp}/{fwd_poly}"
    );
    println!("\nfig5: unary ≈ weighted ≪ sliding-window ordering verified ✓");
}
