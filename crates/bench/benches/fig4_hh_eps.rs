//! Figure 4 of the paper: heavy-hitter CPU and space as the accuracy
//! parameter ε varies, on TCP and on UDP traffic.
//!
//! Panels:
//!   (a) CPU vs ε over TCP at 200k pkt/s
//!   (c) space vs ε over TCP (log scale in the paper)
//!   (b), (d) the same over UDP at 170k pkt/s
//!
//! The paper's findings to reproduce: forward-decay CPU is robust to ε and
//! its space grows as 1/ε (but stays kilobytes); the sliding-window
//! backward-decay structure's space is orders of magnitude larger and does
//! **not** vary with ε (it effectively stores a large fraction of the
//! input); behaviour is essentially unchanged on UDP.
//!
//! Run: `cargo bench --bench fig4_hh_eps`

#![allow(clippy::needless_range_loop)]

use std::sync::Arc;

use fd_bench::{fmt_bytes, measure_query, quick, quick_scaled, Table};
use fd_core::decay::{BackExponential, Exponential, Monomial};
use fd_engine::prelude::*;
use fd_engine::udaf::FnFactory;
use fd_gen::TraceConfig;

const DURATION_SECS: f64 = 15.0;
const PHI: f64 = 0.02;

fn trace(proto: Proto, rate_pps: f64) -> Vec<Packet> {
    TraceConfig {
        seed: 4,
        duration_secs: quick_scaled(DURATION_SECS, 1.5),
        rate_pps,
        n_hosts: 20_000,
        zipf_skew: 1.1,
        // The paper filters one protocol out of the mixed feed.
        tcp_fraction: if proto == Proto::Tcp { 1.0 } else { 0.0 },
        ..Default::default()
    }
    .generate()
}

fn competitors(eps: f64) -> Vec<(&'static str, Arc<FnFactory>)> {
    vec![
        ("Unary HH", unary_hh_factory(eps, PHI, |p| p.dst_host())),
        (
            "fwd exp",
            fwd_hh_factory(Exponential::new(0.1), eps, PHI, |p| p.dst_host()),
        ),
        (
            "fwd poly",
            fwd_hh_factory(Monomial::quadratic(), eps, PHI, |p| p.dst_host()),
        ),
        (
            "bwd sliding window",
            prefix_hh_factory(
                16,
                eps,
                DynBackward::from_decay(BackExponential::new(0.1)),
                PHI,
                |p| p.dst_host(),
            ),
        ),
    ]
}

fn query(proto: Proto, factory: Arc<FnFactory>) -> Query {
    Query::builder("fig4")
        .filter(move |p| p.proto == proto)
        .bucket_secs(60)
        .aggregate(factory)
        .try_build()
        .expect("valid query")
}

/// Runs the CPU and space sweeps for one protocol; returns
/// (per-ε costs, per-ε spaces), each indexed `[eps][competitor]`.
fn sweep(
    proto: Proto,
    rate: f64,
    cpu_title: &str,
    space_title: &str,
) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let packets = trace(proto, rate);
    let labels: Vec<&str> = competitors(0.1).iter().map(|(l, _)| *l).collect();
    let mut cpu_table = Table::new(cpu_title, "ε", &labels);
    let mut space_table = Table::new(space_title, "ε", &labels);
    let mut all_costs = Vec::new();
    let mut all_spaces = Vec::new();
    for eps in [0.1, 0.05, 0.02, 0.01] {
        let mut cpu_cells = Vec::new();
        let mut space_cells = Vec::new();
        let mut costs = Vec::new();
        let mut spaces = Vec::new();
        for (_, factory) in competitors(eps) {
            let q = query(proto, factory);
            let m = measure_query(&q, &packets);
            costs.push(m.ns_per_tuple);
            cpu_cells.push(format!("{:.2}%", cpu_load_pct(rate, m.ns_per_tuple)));
            // Space: probe a live engine mid-bucket.
            let mut e = Engine::new(q);
            for p in packets.iter().filter(|p| p.ts < 60 * MICROS_PER_SEC) {
                e.process(p);
            }
            let bytes = e.space_per_group().expect("live group");
            spaces.push(bytes);
            space_cells.push(fmt_bytes(bytes));
        }
        cpu_table.row(format!("{eps}"), cpu_cells);
        space_table.row(format!("{eps}"), space_cells);
        all_costs.push(costs);
        all_spaces.push(spaces);
    }
    cpu_table.print();
    space_table.print();
    (all_costs, all_spaces)
}

fn check_shape(proto: &str, costs: &[Vec<f64>], spaces: &[Vec<f64>]) {
    if quick() {
        return;
    }
    // CPU of the forward methods is robust to ε.
    for s in 1..=2 {
        let (c_coarse, c_fine) = (costs[0][s], costs[3][s]);
        assert!(
            c_fine < 2.0 * c_coarse + 30.0,
            "{proto}: forward HH cost should be robust to ε ({c_coarse} → {c_fine})"
        );
    }
    // Forward space grows with 1/ε but stays in the kilobytes.
    for s in 1..=2 {
        assert!(
            spaces[3][s] > 3.0 * spaces[0][s],
            "{proto}: forward HH space should grow as ε shrinks"
        );
        assert!(
            spaces[3][s] < 512.0 * 1024.0,
            "{proto}: forward HH space should stay small"
        );
    }
    // Sliding-window space: orders of magnitude larger and — the paper's
    // point — growing ε "does not have much pruning power": even at the
    // coarsest ε the structure effectively stores a large fraction of the
    // input. Across the 10× ε sweep it must move far less than 10×, and its
    // floor must dwarf forward decay's ceiling.
    let sw_spaces: Vec<f64> = spaces.iter().map(|row| row[3]).collect();
    let (sw_min, sw_max) = (
        sw_spaces.iter().cloned().fold(f64::MAX, f64::min),
        sw_spaces.iter().cloned().fold(0.0, f64::max),
    );
    assert!(
        sw_max / sw_min < 3.0,
        "{proto}: sliding-window space should be weakly ε-sensitive: {sw_spaces:?}"
    );
    let fwd_max = spaces
        .iter()
        .map(|row| row[1].max(row[2]))
        .fold(0.0, f64::max);
    assert!(
        sw_min > 100.0 * fwd_max,
        "{proto}: sliding-window space should dwarf forward decay ({sw_min} vs {fwd_max})"
    );
    // Sliding-window CPU dominates at every ε.
    for row in costs {
        assert!(
            row[3] > 2.0 * row[1].max(row[2]),
            "{proto}: SW CPU should dominate: {row:?}"
        );
    }
}

fn main() {
    println!(
        "\nFigure 4 — heavy hitters vs ε. Traces: {DURATION_SECS} s synthetic, Zipf 1.1 \
         destinations, φ = {PHI}; TCP at 200k pkt/s, UDP at 170k pkt/s (the \
         paper's rates).\n"
    );
    let (tcp_costs, tcp_spaces) = sweep(
        Proto::Tcp,
        200_000.0,
        "Figure 4(a) — CPU vs ε, TCP at 200k pkt/s",
        "Figure 4(c) — space per group vs ε, TCP (log scale in the paper)",
    );
    check_shape("TCP", &tcp_costs, &tcp_spaces);
    let (udp_costs, udp_spaces) = sweep(
        Proto::Udp,
        170_000.0,
        "Figure 4(b) — CPU vs ε, UDP at 170k pkt/s",
        "Figure 4(d) — space per group vs ε, UDP (log scale in the paper)",
    );
    check_shape("UDP", &udp_costs, &udp_spaces);
    if quick() {
        println!("\nfig4: FD_QUICK set, skipped the shape assertions");
        return;
    }
    // "the behavior of the algorithm is virtually unchanged despite the
    // different characteristics of UDP data".
    for s in 0..4 {
        let (t, u) = (tcp_costs[3][s], udp_costs[3][s]);
        assert!(
            (t / u).max(u / t) < 3.0,
            "competitor {s}: TCP vs UDP behaviour should match ({t} vs {u})"
        );
    }
    println!("\nfig4: ε-robust forward CPU, 1/ε forward space, flat+huge SW space, TCP≈UDP ✓");
}
