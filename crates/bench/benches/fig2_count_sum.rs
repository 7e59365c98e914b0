//! Figure 2 of the paper: Count queries under time decay.
//!
//! The paper's query counts per-minute TCP packets per destination
//! (`select tb, destIP, destPort, count(*) from TCP group by time/60, …`),
//! with tens of thousands of active groups, comparing
//!
//! - undecayed GSQL `count(*)` (the baseline),
//! - forward decay, quadratic ("poly") and exponential ("exp"),
//! - backward decay via exponential histograms, which answer a decay
//!   function chosen at query time through the Cohen–Strauss combination of
//!   sliding-window queries.
//!
//! Four panels:
//!   (a) CPU load vs stream rate (100k–400k pkt/s), two-level aggregation ON
//!   (b) same with aggregate splitting disabled
//!   (c) throughput vs the EH accuracy parameter ε (0.1 → 0.01) at 100k pkt/s
//!   (d) space per group (log scale)
//!
//! Absolute CPU percentages are far below the paper's (a 2026 core against a
//! 2004 Xeon); the reproduced *shape* is the ordering and the trends — see
//! EXPERIMENTS.md.
//!
//! Run: `cargo bench --bench fig2_count_sum`

use std::sync::Arc;

use fd_bench::{fig2_query, fmt_bytes, measure_query, quick, quick_scaled, Table};
use fd_core::decay::{BackPolynomial, Exponential, Monomial};
use fd_engine::prelude::*;
use fd_engine::udaf::FnFactory;
use fd_gen::TraceConfig;

const DURATION_SECS: f64 = 20.0;

fn duration_secs() -> f64 {
    quick_scaled(DURATION_SECS, 2.0)
}

fn trace_at(rate_pps: f64) -> Vec<Packet> {
    TraceConfig {
        seed: 2,
        duration_secs: duration_secs(),
        rate_pps,
        n_hosts: 20_000,
        zipf_skew: 1.1,
        tcp_fraction: 1.0,
        ..Default::default()
    }
    .generate()
}

/// The four competitors of Figure 2, as (label, factory) pairs.
fn competitors(eh_eps: f64) -> Vec<(&'static str, Arc<FnFactory>)> {
    vec![
        ("no decay", count_factory()),
        ("fwd poly", fwd_count_factory(Monomial::quadratic())),
        ("fwd exp", fwd_count_factory(Exponential::new(0.1))),
        (
            "bwd EH",
            eh_count_factory(eh_eps, DynBackward::from_decay(BackPolynomial::new(2.0))),
        ),
    ]
}

fn fmt_load(p: LoadPoint) -> String {
    if p.drop_frac > 0.0 {
        format!("100% (drops {:.0}%)", p.drop_frac * 100.0)
    } else {
        format!("{:.1}%", p.cpu_pct)
    }
}

/// Panels (a) and (b): per-rate measurement shared between the two
/// architectures. Returns the per-tuple costs at the highest rate for the
/// shape assertions: `costs[two_level as usize]` → label → ns.
fn panels_a_b() -> [Vec<(String, f64)>; 2] {
    let labels: Vec<&str> = competitors(0.1).iter().map(|(l, _)| *l).collect();
    let mut table_a = Table::new(
        "Figure 2(a) — CPU load vs stream rate, two-level aggregation ON",
        "rate (pkt/s)",
        &labels,
    );
    let mut table_b = Table::new(
        "Figure 2(b) — CPU load vs stream rate, aggregate splitting DISABLED",
        "rate (pkt/s)",
        &labels,
    );
    let mut costs_at_max: [Vec<(String, f64)>; 2] = [Vec::new(), Vec::new()];
    for rate in [100_000.0, 200_000.0, 400_000.0f64] {
        let packets = trace_at(rate);
        for (panel, (table, two_level)) in [(&mut table_a, true), (&mut table_b, false)]
            .into_iter()
            .enumerate()
        {
            let mut cells = Vec::new();
            let mut row_costs = Vec::new();
            for (label, factory) in competitors(0.1) {
                let m = measure_query(&fig2_query(factory, two_level), &packets);
                row_costs.push((label.to_string(), m.ns_per_tuple));
                cells.push(fmt_load(LoadPoint::from_cost(rate, m.ns_per_tuple)));
            }
            if rate == 400_000.0 {
                costs_at_max[panel] = row_costs;
            }
            table.row(format!("{}k", rate as u64 / 1000), cells);
        }
    }
    table_a.print();
    table_b.print();
    costs_at_max
}

fn panel_c() {
    // The paper: "we decreased ε down to 0.01, while the stream data rate
    // was set to 100,000 packets/second"; at ε = 0.01 its EH implementation
    // saturated the CPU. Our EH amortizes updates more aggressively than
    // the 2009 baseline, so to expose the asymptotic ε-dependence (the
    // O(1/ε) merge-insertion scans of the EH-for-sums) this panel uses the
    // sum query on a hotter per-group load (500 hosts); with the paper's
    // original cardinality the effect hides below measurement noise on
    // modern hardware — see EXPERIMENTS.md.
    let rate = 100_000.0;
    let packets = TraceConfig {
        seed: 2,
        duration_secs: duration_secs(),
        rate_pps: rate,
        n_hosts: 500,
        zipf_skew: 1.1,
        tcp_fraction: 1.0,
        ..Default::default()
    }
    .generate();
    let mut table = Table::new(
        "Figure 2(c) — sum query: throughput and EH cost vs accuracy ε at 100k pkt/s",
        "ε",
        &[
            "fwd poly ns/pkt",
            "fwd exp ns/pkt",
            "bwd EH ns/pkt",
            "bwd EH max pkt/s",
        ],
    );
    let sum_competitors = |eps: f64| -> Vec<(&'static str, Arc<FnFactory>)> {
        vec![
            (
                "fwd poly",
                fwd_sum_factory(Monomial::quadratic(), |p| p.len as f64),
            ),
            (
                "fwd exp",
                fwd_sum_factory(Exponential::new(0.1), |p| p.len as f64),
            ),
            (
                "bwd EH",
                eh_sum_factory(
                    eps,
                    DynBackward::from_decay(BackPolynomial::new(2.0)),
                    |p| p.len as u64,
                ),
            ),
        ]
    };
    let mut eh_costs = Vec::new();
    for eps in [0.1, 0.05, 0.02, 0.01] {
        let mut cells = Vec::new();
        for (label, factory) in sum_competitors(eps) {
            let m = measure_query(&fig2_query(factory, true), &packets);
            cells.push(format!("{:.0}", m.ns_per_tuple));
            if label == "bwd EH" {
                eh_costs.push(m.ns_per_tuple);
                cells.push(format!("{:.0}k", 1e6 / m.ns_per_tuple));
            }
        }
        table.row(format!("{eps}"), cells);
    }
    table.print();
    println!("(forward-decay costs must be flat in ε; the EH cost grows / throughput degrades)");
    if !quick() {
        assert!(
            eh_costs[3] > 1.2 * eh_costs[0],
            "EH at ε = 0.01 should cost more than at ε = 0.1: {eh_costs:?}"
        );
    }
}

fn panel_d() -> (f64, f64, f64, f64) {
    let packets = trace_at(100_000.0);
    let mut table = Table::new(
        "Figure 2(d) — space per group (the paper plots this on a log scale)",
        "method",
        &["bytes/group"],
    );
    let probe = |factory: Arc<FnFactory>| -> f64 {
        let mut e = Engine::new(fig2_query(factory, false));
        for p in packets.iter().filter(|p| p.ts < 60 * MICROS_PER_SEC) {
            e.process(p);
        }
        e.space_per_group().expect("live groups")
    };
    let undecayed = probe(count_factory());
    let forward = probe(fwd_count_factory(Monomial::quadratic()));
    let eh_coarse = probe(eh_count_factory(
        0.1,
        DynBackward::from_decay(BackPolynomial::new(2.0)),
    ));
    let eh_fine = probe(eh_count_factory(
        0.01,
        DynBackward::from_decay(BackPolynomial::new(2.0)),
    ));
    table.row("no decay", vec![fmt_bytes(undecayed)]);
    table.row("fwd poly / fwd exp", vec![fmt_bytes(forward)]);
    table.row("bwd EH (ε = 0.1)", vec![fmt_bytes(eh_coarse)]);
    table.row("bwd EH (ε = 0.01)", vec![fmt_bytes(eh_fine)]);
    table.print();
    (undecayed, forward, eh_coarse, eh_fine)
}

fn main() {
    println!(
        "\nFigure 2 — count queries under decay. Trace: {} s synthetic TCP, \
         20k hosts, Zipf 1.1, per-destination-host minute groups; the EH \
         baseline answers the same quadratic-decay query via the \
         Cohen–Strauss window combination.\n",
        duration_secs()
    );
    let costs = panels_a_b();
    panel_c();
    let (undecayed, forward, eh_coarse, eh_fine) = panel_d();

    if quick() {
        println!("\nfig2: FD_QUICK set, skipping the timing shape assertions");
        return;
    }

    // Shape assertions — the paper's qualitative claims.
    let cost = |panel: usize, l: &str| {
        costs[panel]
            .iter()
            .find(|(x, _)| x == l)
            .map(|(_, c)| *c)
            .unwrap()
    };
    let (nd, fp, fe, eh) = (
        cost(0, "no decay"),
        cost(0, "fwd poly"),
        cost(0, "fwd exp"),
        cost(0, "bwd EH"),
    );
    assert!(
        fp < 3.0 * nd,
        "fwd poly should be near the undecayed cost: {fp} vs {nd}"
    );
    assert!(
        fe < 6.0 * nd,
        "fwd exp should be a small constant over undecayed: {fe} vs {nd}"
    );
    assert!(
        eh > 2.0 * fp,
        "EH should cost appreciably more than forward decay: {eh} vs {fp}"
    );
    assert!(
        cost(1, "bwd EH") > 1.5 * cost(1, "fwd poly"),
        "EH stays costlier even without splitting"
    );
    assert_eq!(undecayed, 4.0, "undecayed groups store a 4-byte integer");
    assert_eq!(forward, 8.0, "forward-decayed groups store an 8-byte float");
    assert!(
        eh_coarse > 20.0 * forward && eh_fine > eh_coarse,
        "EH space must be orders of magnitude above forward decay and grow as ε shrinks: \
         {eh_coarse} / {eh_fine}"
    );
    println!("\nfig2: cost ordering (no decay ≈ fwd ≪ EH) and space ordering verified ✓");
}
