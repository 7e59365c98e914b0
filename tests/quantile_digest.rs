//! The flat q-digest from outside the crate: a pinned checkpoint restores
//! and finishes as the run it was taken from, an oversize value cannot take a
//! worker down, and the insert-heavy regime stays inside Theorem 3's bounds
//! at a speed a sorted array with one insert per update does not reach.

use std::time::Instant;

use forward_decay::core::decay::{Monomial, NoDecay};
use forward_decay::core::oracle::{Oracle, OracleEvent};
use forward_decay::core::quantiles::QDigest;
use forward_decay::engine::prelude::*;

fn pkt(ts: Micros, dst_ip: u32, len: u32) -> Packet {
    Packet {
        ts,
        src_ip: 1,
        dst_ip,
        src_port: 1000,
        dst_port: 80,
        len,
        proto: Proto::Tcp,
    }
}

fn quantile_query(bits: u32, epsilon: f64) -> Query {
    Query::builder("golden")
        .group_by(|p| p.dst_host())
        .bucket_secs(10)
        .slack_secs(5.0)
        .aggregate(fwd_quantile_factory(
            Monomial::quadratic(),
            bits,
            epsilon,
            vec![0.5, 0.95, 0.99],
            |p| p.len as u64,
        ))
        .try_build()
        .expect("valid query")
}

/// 360 tuples over 33 s, three groups, ±2 s out of order, lengths below 256:
/// with `k = 8/0.25 = 32` every group compresses several times per bucket.
fn golden_stream() -> Vec<Packet> {
    (0..360u64)
        .map(|i| {
            pkt(
                i * 90_000 + (i * 7 % 5) * 400_000,
                (i * 5 % 3) as u32,
                (i * 37 % 251) as u32,
            )
        })
        .collect()
}

/// Tuples the golden checkpoint covers: one bucket closed, two open.
const GOLDEN_PREFIX: usize = 250;

fn golden_bytes() -> Vec<u8> {
    let hex = include_str!("data/engine_checkpoint_fwd_quantiles_poly2.hex");
    hex.split_whitespace()
        .flat_map(|line| {
            (0..line.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&line[i..i + 2], 16).expect("hex digit pair"))
        })
        .collect()
}

#[test]
fn a_checkpoint_from_before_the_flat_layout_restores_and_finishes_identically() {
    // Written by `Engine::checkpoint` from this query and stream prefix:
    // first at the commit before the q-digest went flat (nodes in hash
    // order), then again at the commit that made cells weigh `g(a) / g(W)`,
    // whose images no earlier build reads.
    let golden = golden_bytes();
    let stream = golden_stream();
    let mut restored = Engine::restore(quantile_query(8, 0.25), &golden).expect("restore");
    assert_eq!(restored.stats().buckets_closed, 1);
    let mut whole = Engine::new(quantile_query(8, 0.25));
    for p in &stream[..GOLDEN_PREFIX] {
        whole.process(p);
    }
    for p in &stream[GOLDEN_PREFIX..] {
        restored.process(p);
        whole.process(p);
    }
    let rows = whole.finish();
    assert_eq!(rows.len(), 12);
    assert_eq!(restored.finish(), rows);
}

#[test]
fn an_oversize_value_saturates_instead_of_stopping_the_query() {
    // 1 500-byte packets into an 8-bit domain. The digest asserts its
    // domain; the aggregator must not let a tuple reach that assert, or the
    // worker dies on it, and again on every replay.
    let stream: Vec<Packet> = (0..4_000u64)
        .map(|i| {
            pkt(
                i * 5_000,
                (i % 7) as u32,
                if i % 3 == 0 { 1_500 } else { 40 },
            )
        })
        .collect();
    let rows = Engine::new(quantile_query(8, 0.05)).run(stream.clone());
    assert_eq!(rows.len(), 2 * 7);
    for row in &rows {
        let AggValue::Items(quantiles) = &row.value else {
            panic!("quantile rows carry items");
        };
        // A third of the mass sits past the domain: p95 and p99 are its top.
        assert_eq!(quantiles[0].item, 40);
        assert_eq!(quantiles[1].item, 255);
        assert_eq!(quantiles[2].item, 255);
    }
    let mut sharded = ShardedEngine::try_new(quantile_query(8, 0.05), 2)
        .expect("spawn")
        .checkpoint_every(512);
    assert_eq!(sharded.run(stream), rows);
    let t = sharded.telemetry().snapshot();
    assert!(t.checkpoints > 0);
    assert_eq!((t.restarts, t.worker_panics), (0, 0));
}

#[test]
fn a_million_distinct_values_stay_within_the_bounds_and_the_clock() {
    const N: u64 = 1_000_000;
    let eps = 0.01;
    let mut digest = QDigest::with_epsilon(32, eps);
    let mut oracle = Oracle::new(NoDecay, 0.0);
    // An odd multiplier permutes the 32-bit domain: every value is new.
    let value = |i: u64| i.wrapping_mul(2_654_435_761) & 0xFFFF_FFFF;
    for i in 0..N {
        oracle.push(OracleEvent::new(1.0, 1.0, value(i)));
    }
    let started = Instant::now();
    for i in 0..N {
        digest.update(value(i), 1.0);
    }
    let took = started.elapsed();
    assert_eq!(digest.total_weight(), N as f64);
    let k = digest.compression() as usize;
    assert!(digest.len() <= 3 * k, "{} nodes for k = {k}", digest.len());
    for probe in [0u64, 1 << 20, 1 << 28, 1 << 31, 3 << 30, u32::MAX as u64] {
        let err = (digest.rank(probe) - oracle.rank(probe, 1.0)).abs();
        assert!(err <= eps * N as f64, "rank({probe}) is off by {err}");
    }
    for phi in [0.01, 0.5, 0.99] {
        let got = digest.quantile(phi).expect("non-empty");
        let rank = oracle.rank(got, 1.0);
        assert!(
            (rank - phi * N as f64).abs() <= 2.0 * eps * N as f64,
            "φ = {phi}: value {got} has rank {rank}"
        );
    }
    // Every update is a new leaf among thousands of nodes. The bound is
    // what the same machine needs for the plainest sorted layout: one
    // `insert` per update into an array kept around the digest's size
    // (thinned to two thirds of it at four thirds), nothing else. A digest
    // that buffers and splices per batch must beat it. Optimized builds
    // only: unoptimized, the array's one `memmove` outruns any loop.
    if !cfg!(debug_assertions) {
        let size = digest.len();
        let mut sorted: Vec<(u64, f64)> = Vec::new();
        let started = Instant::now();
        for i in 0..N {
            let at = sorted.partition_point(|e| e.0 < value(i));
            sorted.insert(at, (value(i), 1.0));
            if sorted.len() >= size * 4 / 3 {
                let mut keep = false;
                sorted.retain(|_| {
                    keep = !keep;
                    keep
                });
            }
        }
        let bound = started.elapsed();
        assert!(sorted.windows(2).all(|p| p[0].0 < p[1].0));
        assert!(
            took < bound,
            "1 M distinct updates took {took:?}; a sorted array with inserts takes {bound:?}"
        );
    }
}

/// Regenerates the golden checkpoint. Run at the commit whose bytes are
/// wanted: `cargo test --test quantile_digest -- --ignored --nocapture`.
#[test]
#[ignore = "prints the fixture; not a check"]
fn print_golden_checkpoint() {
    let mut engine = Engine::new(quantile_query(8, 0.25));
    for p in &golden_stream()[..GOLDEN_PREFIX] {
        engine.process(p);
    }
    let bytes = engine.checkpoint().expect("checkpoint");
    for line in bytes.chunks(32) {
        let hex: String = line.iter().map(|b| format!("{b:02x}")).collect();
        println!("{hex}");
    }
}
