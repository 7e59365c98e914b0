//! Network monitor: the paper's motivating deployment, on a synthetic tap.
//!
//! Runs the two flagship GSQL queries of Section VIII inside the
//! Gigascope-like engine, over a Zipf-skewed synthetic packet trace:
//!
//! 1. per-minute, per-destination decayed traffic sums (the quadratic-decay
//!    `sum(len*(time%60)*(time%60))/3600` query), and
//! 2. per-minute decayed heavy hitters: the hosts receiving the most TCP
//!    traffic, weighted toward the most recent packets.
//!
//! Run with: `cargo run --release --example network_monitor`

use forward_decay::core::decay::{Exponential, Monomial};
use forward_decay::engine::prelude::*;
use forward_decay::gen::TraceConfig;

fn main() -> Result<(), forward_decay::core::Error> {
    let trace = TraceConfig {
        seed: 1,
        duration_secs: 180.0, // three one-minute buckets
        rate_pps: 50_000.0,
        n_hosts: 5_000,
        zipf_skew: 1.2,
        ..Default::default()
    };
    println!(
        "generating {} packets (~{:.0} pkt/s, {} hosts, Zipf {:.1})…",
        trace.expected_packets(),
        trace.rate_pps,
        trace.n_hosts,
        trace.zipf_skew
    );
    let packets = trace.generate();

    // Query 1 — decayed traffic per destination (quadratic forward decay),
    // two-level execution as GS would run it.
    let q1 = Query::builder("decayed_traffic_per_dst")
        .filter(|p| p.proto == Proto::Tcp)
        .group_by(|p| p.dst_key())
        .bucket_secs(60)
        .aggregate(fwd_sum_factory(Monomial::quadratic(), |p| p.len as f64))
        .two_level(true)
        .lfta_slots(8192)
        .try_build()?;
    let mut e1 = Engine::new(q1);
    let rows = e1.run(packets.iter().copied());
    let stats = e1.stats();
    println!(
        "\n[query 1] decayed sum(len), quadratic decay: {} rows, {} tuples, {} LFTA evictions",
        rows.len(),
        stats.tuples_in,
        stats.lfta_evictions
    );
    // Show the three biggest groups of the first minute.
    let mut first_min: Vec<&Row> = rows.iter().filter(|r| r.bucket_start == 0).collect();
    first_min.sort_by(|a, b| {
        b.value
            .as_float()
            .unwrap()
            .total_cmp(&a.value.as_float().unwrap())
    });
    println!("  top decayed destinations in minute 0:");
    for r in first_min.iter().take(3) {
        let (ip, port) = (r.key >> 16, r.key & 0xFFFF);
        println!(
            "    10.{}.{}.{}:{port} -> decayed bytes {:.0}",
            (ip >> 16) & 0xFF,
            (ip >> 8) & 0xFF,
            ip & 0xFF,
            r.value.as_float().unwrap()
        );
    }

    // Query 2 — decayed heavy hitters: top TCP receivers per minute under
    // exponential decay with a 15-second half-life.
    let q2 = Query::builder("hot_receivers")
        .filter(|p| p.proto == Proto::Tcp)
        .bucket_secs(60)
        .aggregate(fwd_hh_factory(
            Exponential::with_half_life(15.0),
            0.001,
            0.02,
            |p| p.dst_host(),
        ))
        .try_build()?;
    let mut e2 = Engine::new(q2);
    for p in &packets {
        e2.process(p);
    }
    let space = e2.space_per_group(); // probe while groups are still live
    let rows = e2.finish();
    println!("\n[query 2] φ = 0.02 decayed heavy hitters (15 s half-life):");
    for r in &rows {
        let minute = r.bucket_start / (60 * MICROS_PER_SEC);
        let hits = r.value.as_items().unwrap();
        print!("  minute {minute}: ");
        for h in hits.iter().take(5) {
            print!(
                "host 10.x.{}.{} ({:.0})  ",
                (h.item >> 8) & 0xFF,
                h.item & 0xFF,
                h.value
            );
        }
        println!("[{} hitters total]", hits.len());
    }
    println!(
        "\nper-group summary space: {:.0} bytes (SpaceSaving with 1/ε = 1000 counters)",
        space.unwrap_or(0.0)
    );
    Ok(())
}
