//! Section VI-B: out-of-order arrivals. Forward decay never relies on
//! timestamp order — the same trace shuffled and sorted must give identical
//! answers, both at the summary level and through the engine (given enough
//! watermark slack).

use forward_decay::core::aggregates::{DecayedCount, DecayedSum};
use forward_decay::core::decay::{Exponential, ForwardDecay, Monomial};
use forward_decay::core::heavy_hitters::DecayedHeavyHitters;
use forward_decay::core::quantiles::DecayedQuantiles;
use forward_decay::engine::prelude::*;
use forward_decay::gen::TraceConfig;

fn jittered_trace() -> Vec<Packet> {
    TraceConfig {
        seed: 47,
        duration_secs: 50.0,
        rate_pps: 10_000.0,
        n_hosts: 300,
        ooo_jitter_secs: 3.0,
        ..Default::default()
    }
    .generate()
}

#[test]
fn summaries_are_arrival_order_independent() {
    let packets = jittered_trace();
    let mut sorted = packets.clone();
    sorted.sort_by_key(|p| p.ts);
    assert_ne!(
        packets.iter().map(|p| p.ts).collect::<Vec<_>>(),
        sorted.iter().map(|p| p.ts).collect::<Vec<_>>(),
        "trace must actually be out of order"
    );
    let t_q = 55.0;
    let g = Monomial::quadratic();

    // Exact aggregates: identical up to floating-point summation order.
    let feed_sum = |pkts: &[Packet]| {
        let mut s = DecayedSum::new(g, 0.0);
        for p in pkts {
            s.update(p.ts_secs(), p.len as f64);
        }
        s.query(t_q)
    };
    let (a, b) = (feed_sum(&packets), feed_sum(&sorted));
    assert!((a - b).abs() <= 1e-12 * a, "{a} vs {b}");

    let feed_count = |pkts: &[Packet]| {
        let mut c = DecayedCount::new(Exponential::new(0.1), 0.0);
        for p in pkts {
            c.update(p.ts_secs());
        }
        c.query(t_q)
    };
    let (a, b) = (feed_count(&packets), feed_count(&sorted));
    assert!((a - b).abs() <= 1e-9 * a);

    // Approximate sketches: their *guarantees* are order-independent (the
    // weights fed in are identical multisets), though internal tie-breaking
    // may differ — the heavy head and the quantile band must agree.
    let feed_hh = |pkts: &[Packet]| {
        let mut h = DecayedHeavyHitters::new(g, 0.0, 128);
        for p in pkts {
            h.update(p.ts_secs(), p.dst_host());
        }
        h.heavy_hitters(0.05, t_q)
            .iter()
            .map(|x| x.item)
            .collect::<Vec<_>>()
    };
    let (hh_a, hh_b) = (feed_hh(&packets), feed_hh(&sorted));
    assert_eq!(&hh_a[..3.min(hh_a.len())], &hh_b[..3.min(hh_b.len())]);

    let feed_quant = |pkts: &[Packet]| {
        let mut q = DecayedQuantiles::new(g, 0.0, 11, 0.02);
        for p in pkts {
            q.update(p.ts_secs(), p.len as u64);
        }
        q.quantile(0.5, t_q).unwrap() as f64
    };
    let (qa, qb) = (feed_quant(&packets), feed_quant(&sorted));
    assert!((qa - qb).abs() <= 0.05 * 2048.0, "medians {qa} vs {qb}");
}

#[test]
fn engine_with_slack_matches_sorted_run() {
    let packets = jittered_trace();
    let mut sorted = packets.clone();
    sorted.sort_by_key(|p| p.ts);

    let build = || {
        Query::builder("ooo")
            .group_by(|p| p.dst_host() % 20)
            .bucket_secs(10)
            // ±3 s jitter lets the watermark run up to 6 s ahead of a
            // straggler; 8 s of slack covers it.
            .slack_secs(8.0)
            .aggregate(fwd_sum_factory(Monomial::quadratic(), |p| p.len as f64))
            .try_build()
            .expect("valid query")
    };
    let mut e_ooo = Engine::new(build());
    let rows_ooo = e_ooo.run(packets.iter().copied());
    assert_eq!(e_ooo.stats().late_drops, 0, "slack must absorb all jitter");
    let rows_sorted = Engine::new(build()).run(sorted.iter().copied());
    assert_eq!(rows_ooo.len(), rows_sorted.len());
    for (a, b) in rows_ooo.iter().zip(&rows_sorted) {
        assert_eq!((a.bucket_start, a.key), (b.bucket_start, b.key));
        let (x, y) = (a.value.as_float().unwrap(), b.value.as_float().unwrap());
        assert!((x - y).abs() <= 1e-9 * x.abs().max(1.0));
    }
}

#[test]
fn engine_without_slack_counts_late_drops() {
    let packets = jittered_trace();
    let q = Query::builder("no_slack")
        .bucket_secs(10)
        .aggregate(count_factory())
        .try_build()
        .expect("valid query");
    let mut e = Engine::new(q);
    for p in &packets {
        e.process(p);
    }
    e.finish();
    // With 3 s jitter and 10 s buckets, some arrivals land in closed
    // buckets and must be counted as dropped, not silently lost.
    assert!(e.stats().late_drops > 0);
    assert_eq!(
        e.stats().tuples_in,
        packets.len() as u64,
        "all tuples accounted for"
    );
}

#[test]
fn sketches_track_the_oracle_under_random_interleavings() {
    // Sketch internals (SpaceSaving evictions, q-digest compressions, KMV
    // admissions) are order-*dependent*, so shuffled runs need not be
    // bit-identical — but every interleaving must stay within the sketch's
    // error budget of the same order-independent oracle. Each permutation
    // of one adversarial stream is checked against one brute-force answer.
    use forward_decay::core::distinct::DominanceSketch;
    use forward_decay::core::oracle::{adversarial_stream, Oracle, StreamConfig};
    use forward_decay::core::Timestamp;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    let g = Monomial::quadratic();
    let landmark = 100.0;
    let t_q = Timestamp::from_secs_f64(175.0);
    let cfg = StreamConfig {
        n: 300,
        key_domain: 32,
        ..StreamConfig::default()
    };
    for seed in [3u64, 17] {
        let base = adversarial_stream(seed, &cfg);
        let mut oracle = Oracle::new(g, landmark);
        oracle.push_all(&base);
        let w = oracle.count(t_q);
        assert!(w > 0.0);
        let true_hh: Vec<u64> = oracle
            .heavy_hitters(0.1 + 1e-9, t_q)
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        for perm_seed in 0..4u64 {
            // Fisher–Yates with the in-repo rand shim.
            let mut events = base.clone();
            let mut rng = SmallRng::seed_from_u64(seed * 1000 + perm_seed);
            for i in (1..events.len()).rev() {
                events.swap(i, rng.gen_range(0..i + 1));
            }

            let mut hh = DecayedHeavyHitters::new(g, landmark, 256);
            let mut quant = DecayedQuantiles::new(g, landmark, 11, 0.05);
            let mut dom = DominanceSketch::new(g, landmark, 0.2, 7);
            for e in &events {
                hh.update(e.t, e.key);
                quant.update(e.t, e.key);
                dom.update(e.t, e.key);
            }

            // Heavy hitters: totals exact, every true φ-HH reported, every
            // reported key genuinely above φ − 1/capacity.
            assert!((hh.decayed_count(t_q) - w).abs() <= 1e-6 * w);
            let reported = hh.heavy_hitters(0.1, t_q);
            for k in &true_hh {
                assert!(
                    reported.iter().any(|h| h.item == *k),
                    "perm {perm_seed}: true heavy hitter {k} missing"
                );
            }
            for h in &reported {
                let true_count = oracle.item_count(h.item, t_q);
                assert!(
                    true_count >= (0.1 - 1.0 / 256.0) * w - 1e-6 * w,
                    "perm {perm_seed}: spurious heavy hitter {}",
                    h.item
                );
            }

            // Quantiles: the reported median's oracle rank stays in the
            // 0.5 ± 2ε band.
            let med = quant.quantile(0.5, t_q).expect("non-empty");
            let rank = oracle.rank(med, t_q);
            assert!(
                rank >= (0.5 - 0.1) * w - 1e-9 * w,
                "perm {perm_seed}: median {med} ranks {rank} of {w}"
            );
            if med > 0 {
                let below = oracle.rank(med - 1, t_q);
                assert!(
                    below <= (0.5 + 0.1) * w + 1e-9 * w,
                    "perm {perm_seed}: median {med} ranks {below} of {w}"
                );
            }

            // Dominance sketch: within its ε band of the true norm.
            let want = oracle.dominance(t_q);
            assert!(
                (dom.query(t_q) - want).abs() <= 2.0 * 0.2 * want,
                "perm {perm_seed}: dominance {} vs {want}",
                dom.query(t_q)
            );
        }
    }
}

#[test]
fn historical_queries_on_future_timestamps() {
    // Section VI-B: if items carry timestamps beyond the query time, the
    // query is "historical" and weights may exceed 1 — allowed and exact.
    let g = Monomial::quadratic();
    let mut s = DecayedSum::new(g, 0.0);
    s.update(10.0, 2.0); // item in the "future" of the query below
    s.update(4.0, 2.0);
    let at_5 = s.query(5.0);
    let expected = g.weight(0.0, 10.0, 5.0) * 2.0 + g.weight(0.0, 4.0, 5.0) * 2.0;
    assert!((at_5 - expected).abs() < 1e-12);
    assert!(g.weight(0.0, 10.0, 5.0) > 1.0);
}

#[test]
fn bucket_hopping_streams_match_the_oracle() {
    // Consecutive tuples land up to three buckets apart, forwards and
    // backwards, so almost every arrival misses the engine's "same bucket
    // as the last tuple" shortcut and several buckets stay open at once.
    // Slack covers the whole hop range: nothing is late, and every
    // (bucket, group) must equal the brute-force decayed sum.
    use forward_decay::core::oracle::{Oracle, OracleEvent};
    use std::collections::BTreeMap;

    const WIDTH_SECS: u64 = 10;
    const WIDTH: Micros = WIDTH_SECS * MICROS_PER_SEC;
    let g = Monomial::quadratic();
    let hops = [0u64, 2, 1, 3, 0, 3, 1, 2];
    let stream: Vec<Packet> = (0..4_000u64)
        .map(|i| Packet {
            ts: (i / 250 + hops[(i % 8) as usize]) * WIDTH + (i * 7_919) % WIDTH,
            src_ip: 1,
            dst_ip: (i % 13) as u32,
            src_port: 1000,
            dst_port: 80,
            len: 100 + (i % 50) as u32,
            proto: Proto::Tcp,
        })
        .collect();
    assert!(
        stream
            .windows(2)
            .filter(|w| w[0].ts / WIDTH != w[1].ts / WIDTH)
            .count()
            > stream.len() * 3 / 4,
        "the stream must actually hop"
    );

    let mut oracles: BTreeMap<(Micros, u64), Oracle<Monomial>> = BTreeMap::new();
    for p in &stream {
        let start = p.ts / WIDTH * WIDTH;
        oracles
            .entry((start, p.dst_host()))
            .or_insert_with(|| Oracle::new(g, secs(start)))
            .push(OracleEvent {
                t: p.timestamp(),
                v: p.len as f64,
                key: p.dst_host(),
            });
    }

    for (two_level, lfta_slots) in [(true, 8), (true, 4096), (false, 8)] {
        let q = Query::builder("hops")
            .group_by(|p| p.dst_host())
            .bucket_secs(WIDTH_SECS)
            .slack_secs(45.0)
            .aggregate(fwd_sum_factory(g, |p| p.len as f64))
            .two_level(two_level)
            .lfta_slots(lfta_slots)
            .try_build()
            .expect("valid query");
        let mut e = Engine::new(q);
        let rows = e.run(stream.iter().copied());
        assert_eq!(e.stats().late_drops, 0, "slack must cover every hop");
        assert_eq!(rows.len(), oracles.len());
        for (row, ((start, key), oracle)) in rows.iter().zip(&oracles) {
            assert_eq!((row.bucket_start, row.key), (*start, *key));
            let want = oracle.sum(secs(start + WIDTH));
            let got = row.value.as_float().expect("scalar");
            assert!(
                (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                "two_level={two_level} slots={lfta_slots} bucket {start} key {key}: {got} vs {want}"
            );
        }
    }
}
