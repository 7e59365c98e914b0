//! DDoS detection: decayed vs undecayed heavy hitters under a traffic
//! anomaly.
//!
//! "One today is worth two tomorrows" — the paper's epigraph is exactly the
//! operational case for time decay: when a flood starts mid-bucket, an
//! undecayed per-minute heavy-hitter report still averages the attack
//! against the quiet first half of the minute, while an exponentially
//! decayed report (15 s half-life) reflects the *current* traffic mix.
//!
//! A synthetic trace runs quietly for 45 s, then a flood aims 40% of all
//! packets at one victim host. Both queries watch the same stream; we
//! compare the victim's reported share in the bucket where the attack
//! begins.
//!
//! Run with: `cargo run --release --example ddos_detection`

use forward_decay::core::decay::Exponential;
use forward_decay::engine::prelude::*;
use forward_decay::gen::{Burst, TraceConfig};

const VICTIM: u32 = 0x0A00_BEEF;

fn main() -> Result<(), forward_decay::core::Error> {
    let trace = TraceConfig {
        seed: 13,
        duration_secs: 60.0,
        rate_pps: 50_000.0,
        n_hosts: 5_000,
        zipf_skew: 1.0,
        tcp_fraction: 1.0,
        burst: Some(Burst {
            start_secs: 45.0,
            end_secs: 60.0,
            dst_ip: VICTIM,
            fraction: 0.4,
        }),
        ..Default::default()
    };
    let packets = trace.generate();
    println!(
        "trace: {} packets over 60 s; flood of 40% toward 10.0.190.239 starting at t = 45 s\n",
        packets.len()
    );

    let undecayed = Query::builder("undecayed")
        .bucket_secs(60)
        .aggregate(unary_hh_factory(0.001, 0.01, |p| p.dst_host()))
        .try_build()?;
    let decayed = Query::builder("decayed")
        .bucket_secs(60)
        .aggregate(fwd_hh_factory(
            Exponential::with_half_life(15.0),
            0.001,
            0.01,
            |p| p.dst_host(),
        ))
        .try_build()?;

    // Both queries share one scan of the stream.
    let mut engines = [Engine::new(undecayed), Engine::new(decayed)];
    for p in &packets {
        for e in &mut engines {
            e.process(p);
        }
    }
    let results: Vec<(String, Vec<Row>)> = engines
        .iter_mut()
        .map(|e| (e.query_name().to_string(), e.finish()))
        .collect();

    println!("per-minute φ = 0.01 heavy hitters at the end of the attack minute:\n");
    let mut shares = Vec::new();
    for (name, rows) in &results {
        let bucket0 = &rows[0];
        let hits = bucket0.value.as_items().unwrap();
        let total: f64 = hits.iter().map(|h| h.value).sum();
        let victim = hits
            .iter()
            .find(|h| h.item == VICTIM as u64)
            .map(|h| h.value)
            .unwrap_or(0.0);
        // Share relative to the whole (decayed) stream, approximated by the
        // report: use rank position and the leading entries.
        let rank = hits.iter().position(|h| h.item == VICTIM as u64);
        println!(
            "  {name:>9}: victim rank {:>2?} of {:>3} reported, weight {victim:.0} \
             ({:.0}% of reported mass)",
            rank.map(|r| r + 1),
            hits.len(),
            100.0 * victim / total
        );
        shares.push(victim / total);
    }
    let (und, dec) = (shares[0], shares[1]);
    println!(
        "\nvictim share of reported traffic: undecayed {:.1}% vs decayed {:.1}%",
        und * 100.0,
        dec * 100.0
    );
    assert!(
        dec > 1.5 * und,
        "decay should amplify the in-progress attack ({dec} vs {und})"
    );
    println!(
        "\nThe decayed view weights the attack at its true current intensity;\n\
         the undecayed minute average dilutes it against pre-attack traffic."
    );
    Ok(())
}
