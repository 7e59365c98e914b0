//! End-to-end correctness: the full engine pipeline (filter → LFTA → HFTA →
//! bucket close) against brute-force reference computations on a realistic
//! synthetic trace.

use std::collections::HashMap;

use forward_decay::core::decay::{Exponential, ForwardDecay, Monomial};
use forward_decay::engine::prelude::*;
use forward_decay::gen::TraceConfig;

fn trace() -> Vec<Packet> {
    TraceConfig {
        seed: 11,
        duration_secs: 150.0, // spans three 60 s buckets
        rate_pps: 20_000.0,
        n_hosts: 1_000,
        zipf_skew: 1.1,
        tcp_fraction: 0.8,
        ..Default::default()
    }
    .generate()
}

/// Brute-force per-(bucket, group) reference for a decayed sum.
fn reference_decayed_sum<G: ForwardDecay>(
    packets: &[Packet],
    g: &G,
    val: impl Fn(&Packet) -> f64,
    key: impl Fn(&Packet) -> u64,
    tcp_only: bool,
) -> HashMap<(u64, u64), f64> {
    let mut out: HashMap<(u64, u64), f64> = HashMap::new();
    for p in packets {
        if tcp_only && p.proto != Proto::Tcp {
            continue;
        }
        let bucket = p.ts / (60 * MICROS_PER_SEC);
        let landmark = (bucket * 60) as f64;
        let t_end = ((bucket + 1) * 60) as f64;
        let w = g.weight(landmark, p.ts_secs(), t_end);
        *out.entry((bucket, key(p))).or_default() += w * val(p);
    }
    out
}

#[test]
fn undecayed_count_matches_exact_per_group() {
    let packets = trace();
    let q = Query::builder("count")
        .filter(|p| p.proto == Proto::Tcp)
        .group_by(|p| p.dst_key())
        .bucket_secs(60)
        .aggregate(count_factory())
        .try_build()
        .expect("valid query");
    let rows = Engine::new(q).run(packets.iter().copied());

    let mut exact: HashMap<(u64, u64), f64> = HashMap::new();
    for p in packets.iter().filter(|p| p.proto == Proto::Tcp) {
        *exact
            .entry((p.ts / (60 * MICROS_PER_SEC), p.dst_key()))
            .or_default() += 1.0;
    }
    assert_eq!(rows.len(), exact.len());
    for r in &rows {
        let bucket = r.bucket_start / (60 * MICROS_PER_SEC);
        assert_eq!(r.value.as_float().unwrap(), exact[&(bucket, r.key)]);
    }
}

#[test]
fn forward_quadratic_sum_matches_brute_force_both_architectures() {
    let packets = trace();
    let g = Monomial::quadratic();
    let exact = reference_decayed_sum(&packets, &g, |p| p.len as f64, |p| p.dst_key(), true);
    for two_level in [true, false] {
        let q = Query::builder("fwd_sum")
            .filter(|p| p.proto == Proto::Tcp)
            .group_by(|p| p.dst_key())
            .bucket_secs(60)
            .aggregate(fwd_sum_factory(g, |p| p.len as f64))
            .two_level(two_level)
            .lfta_slots(512) // force eviction traffic
            .try_build()
            .expect("valid query");
        let mut e = Engine::new(q);
        let rows = e.run(packets.iter().copied());
        assert_eq!(rows.len(), exact.len(), "two_level = {two_level}");
        if two_level {
            assert!(
                e.stats().lfta_evictions > 0,
                "test should exercise evictions"
            );
        }
        for r in &rows {
            let bucket = r.bucket_start / (60 * MICROS_PER_SEC);
            let want = exact[&(bucket, r.key)];
            let got = r.value.as_float().unwrap();
            assert!(
                (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                "two_level = {two_level}, bucket {bucket}, key {}: {got} vs {want}",
                r.key
            );
        }
    }
}

#[test]
fn forward_exponential_count_matches_brute_force() {
    let packets = trace();
    let g = Exponential::new(0.1);
    let exact = reference_decayed_sum(&packets, &g, |_| 1.0, |p| p.dst_host(), false);
    let q = Query::builder("fwd_count")
        .group_by(|p| p.dst_host())
        .bucket_secs(60)
        .aggregate(fwd_count_factory(g))
        .try_build()
        .expect("valid query");
    let rows = Engine::new(q).run(packets.iter().copied());
    assert_eq!(rows.len(), exact.len());
    for r in &rows {
        let bucket = r.bucket_start / (60 * MICROS_PER_SEC);
        let want = exact[&(bucket, r.key)];
        let got = r.value.as_float().unwrap();
        assert!((got - want).abs() <= 1e-9 * want.max(1.0));
    }
}

#[test]
fn engine_heavy_hitters_match_exact_decayed_counts() {
    let packets = trace();
    let g = Monomial::quadratic();
    // Exact decayed counts per host in bucket 0.
    let mut exact: HashMap<u64, f64> = HashMap::new();
    let mut total = 0.0;
    for p in packets
        .iter()
        .filter(|p| p.ts < 60 * MICROS_PER_SEC && p.proto == Proto::Tcp)
    {
        let w = g.weight(0.0, p.ts_secs(), 60.0);
        *exact.entry(p.dst_host()).or_default() += w;
        total += w;
    }
    let phi = 0.02;
    let eps = 0.001;
    let q = Query::builder("hh")
        .filter(|p| p.proto == Proto::Tcp)
        .bucket_secs(60)
        .aggregate(fwd_hh_factory(g, eps, phi, |p| p.dst_host()))
        .try_build()
        .expect("valid query");
    let rows = Engine::new(q).run(packets.iter().copied());
    let bucket0 = rows.iter().find(|r| r.bucket_start == 0).expect("bucket 0");
    let reported: HashMap<u64, f64> = bucket0
        .value
        .as_items()
        .unwrap()
        .iter()
        .map(|iv| (iv.item, iv.value))
        .collect();
    // Completeness: every true φ-heavy host is reported.
    for (&host, &c) in &exact {
        if c >= phi * total {
            assert!(reported.contains_key(&host), "missed heavy host {host}");
        }
    }
    // Soundness: nothing below (φ − ε)·C, and estimates within ε·C.
    for (&host, &est) in &reported {
        let truth = exact.get(&host).copied().unwrap_or(0.0);
        assert!(truth >= (phi - eps) * total - 1e-9, "false positive {host}");
        assert!(est >= truth - 1e-9 && est - truth <= eps * total + 1e-9);
    }
}

#[test]
fn engine_quantiles_track_exact_decayed_ranks() {
    let packets = trace();
    let g = Exponential::new(0.05);
    let eps = 0.02;
    let q = Query::builder("quant")
        .bucket_secs(60)
        .aggregate(fwd_quantile_factory(
            g,
            11,
            eps,
            vec![0.25, 0.5, 0.75, 0.95],
            |p| p.len as u64,
        ))
        .try_build()
        .expect("valid query");
    let rows = Engine::new(q).run(packets.iter().copied());
    let bucket0 = rows.iter().find(|r| r.bucket_start == 0).expect("bucket 0");
    // Exact weighted ranks in bucket 0.
    let in_bucket: Vec<&Packet> = packets
        .iter()
        .filter(|p| p.ts < 60 * MICROS_PER_SEC)
        .collect();
    let weights: Vec<f64> = in_bucket
        .iter()
        .map(|p| g.weight(0.0, p.ts_secs(), 60.0))
        .collect();
    let total: f64 = weights.iter().sum();
    for iv in bucket0.value.as_items().unwrap() {
        let (value, phi) = (iv.item, iv.value);
        // The length distribution has atoms (e.g. 30% of packets are exactly
        // 1500 B), so a correct φ-quantile `v` satisfies
        // rank(< v) ≤ (φ+ε)·C and rank(≤ v) ≥ (φ−ε)·C.
        let rank_le: f64 = in_bucket
            .iter()
            .zip(&weights)
            .filter(|(p, _)| (p.len as u64) <= value)
            .map(|(_, w)| w)
            .sum();
        let rank_lt: f64 = in_bucket
            .iter()
            .zip(&weights)
            .filter(|(p, _)| (p.len as u64) < value)
            .map(|(_, w)| w)
            .sum();
        assert!(
            rank_le / total >= phi - 4.0 * eps,
            "phi = {phi}: value {value} has rank(≤) fraction {}",
            rank_le / total
        );
        assert!(
            rank_lt / total <= phi + 4.0 * eps,
            "phi = {phi}: value {value} has rank(<) fraction {}",
            rank_lt / total
        );
    }
}

#[test]
fn space_per_group_ordering_matches_figure_2d() {
    // The paper's Figure 2(d): undecayed ≈ 4 B < forward ≈ 8 B ≪ EH (KBs).
    let packets = trace();
    let probe = |factory: std::sync::Arc<fd_engine::udaf::FnFactory>| -> f64 {
        let q = Query::builder("probe")
            .filter(|p| p.proto == Proto::Tcp)
            .group_by(|p| p.dst_key())
            .bucket_secs(60)
            .aggregate(factory)
            .two_level(false)
            .try_build()
            .expect("valid query");
        let mut e = Engine::new(q);
        for p in packets.iter().filter(|p| p.ts < 60 * MICROS_PER_SEC) {
            e.process(p);
        }
        e.space_per_group().expect("live groups")
    };
    let undecayed = probe(count_factory());
    let forward = probe(fwd_count_factory(Monomial::quadratic()));
    let eh = probe(eh_count_factory(
        0.1,
        DynBackward::from_decay(fd_core::decay::BackPolynomial::new(2.0)),
    ));
    assert_eq!(undecayed, 4.0);
    assert_eq!(forward, 8.0);
    assert!(
        eh > 50.0 * forward,
        "EH per-group space should be orders of magnitude above forward decay: {eh} bytes"
    );
}
