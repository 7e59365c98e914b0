//! Differential tests: the sharded engine must be semantically identical
//! to the single-threaded engine.
//!
//! Forward decay's mergeability (Section VI-B: frozen numerators
//! `g(t_i − L)` let partial summaries over disjoint substreams combine
//! exactly) is what makes sharding *correct*, not just fast. These tests
//! pin that down by replaying identical streams — in-order, out-of-order
//! under watermark slack, punctuation-driven — through `Engine` and
//! `ShardedEngine` and requiring byte-identical sorted rows.

use std::sync::Arc;

use forward_decay::core::decay::{Exponential, Monomial};
use forward_decay::engine::prelude::*;
use forward_decay::engine::udaf::FnFactory;
use forward_decay::gen::TraceConfig;

/// Replays the same events through both engines and asserts exact row
/// equality: same length, same (bucket, key) order, same values.
fn assert_equivalent(make_query: impl Fn() -> Query, events: &[StreamEvent], n_shards: usize) {
    let mut single = Engine::new(make_query());
    for ev in events {
        single.process_event(ev);
    }
    let expected = single.finish();

    let mut sharded = ShardedEngine::try_new(make_query(), n_shards).expect("spawn shards");
    sharded.try_process_batch(events).expect("feed");
    let got = sharded.finish();

    assert_eq!(
        expected.len(),
        got.len(),
        "row count: single {} vs {n_shards}-shard {}",
        expected.len(),
        got.len()
    );
    for (e, g) in expected.iter().zip(&got) {
        assert_eq!((e.bucket_start, e.key), (g.bucket_start, g.key));
        assert_eq!(e.value, g.value, "key {} bucket {}", e.key, e.bucket_start);
    }
    // Admission must also agree: same tuples accepted, filtered, dropped.
    let (s, p) = (single.stats(), sharded.stats());
    assert_eq!(s.tuples_in, p.tuples_in);
    assert_eq!(s.filtered, p.filtered);
    assert_eq!(s.late_drops, p.late_drops);
}

fn data(packets: Vec<Packet>) -> Vec<StreamEvent> {
    packets.into_iter().map(StreamEvent::Data).collect()
}

/// Interleaves periodic heartbeats (punctuations) into a time-ordered
/// packet stream: one [`StreamEvent::Punctuation`] every `interval` of
/// stream time, plus a final one past the last packet — GS's mechanism for
/// keeping time buckets flowing through idle stretches.
fn with_heartbeats(
    packets: impl IntoIterator<Item = Packet>,
    interval: Micros,
) -> Vec<StreamEvent> {
    assert!(interval > 0);
    let mut out = Vec::new();
    let mut next_beat = interval;
    let mut max_ts = 0;
    for p in packets {
        while p.ts >= next_beat {
            out.push(StreamEvent::Punctuation(next_beat));
            next_beat += interval;
        }
        max_ts = max_ts.max(p.ts);
        out.push(StreamEvent::Data(p));
    }
    out.push(StreamEvent::Punctuation(max_ts.max(next_beat)));
    out
}

fn trace(seed: u64, ooo_jitter_secs: f64) -> Vec<Packet> {
    TraceConfig {
        seed,
        duration_secs: 180.0,
        rate_pps: 2_000.0,
        n_hosts: 500,
        zipf_skew: 1.1,
        ooo_jitter_secs,
        ..Default::default()
    }
    .generate()
}

fn count_query() -> Query {
    Query::builder("count")
        .filter(|p| p.proto == Proto::Tcp)
        .group_by(|p| p.dst_host())
        .bucket_secs(60)
        .aggregate(count_factory())
        .two_level(true)
        .lfta_slots(256)
        .try_build()
        .expect("valid query")
}

#[test]
fn in_order_stream_is_identical() {
    assert_equivalent(count_query, &data(trace(11, 0.0)), 4);
}

#[test]
fn out_of_order_stream_under_slack_is_identical() {
    // 2 s of jitter against 5 s of slack: out-of-order tuples are accepted
    // and late ones (if any) dropped by the *same* global decision.
    let q = || {
        Query::builder("slack")
            .group_by(|p| p.dst_host())
            .bucket_secs(60)
            .slack_secs(5.0)
            .aggregate(count_factory())
            .two_level(true)
            .lfta_slots(256)
            .try_build()
            .expect("valid query")
    };
    assert_equivalent(q, &data(trace(12, 2.0)), 4);
}

#[test]
fn out_of_order_stream_without_slack_drops_identically() {
    // No slack: jitter produces real late drops; both paths must drop the
    // exact same tuples (checked via stats inside assert_equivalent).
    assert_equivalent(count_query, &data(trace(13, 1.5)), 4);
}

#[test]
fn punctuated_stream_is_identical() {
    // Heartbeats interleaved with data close buckets through idle gaps.
    let mut packets = trace(14, 0.0);
    packets.retain(|p| p.ts < 60_000_000 || p.ts >= 150_000_000); // idle gap
    let events = with_heartbeats(packets, 30 * MICROS_PER_SEC);
    assert_equivalent(count_query, &events, 4);
}

#[test]
fn heartbeats_keep_buckets_flowing_through_idle_gaps() {
    // Data in minute 0, then silence, then data in minute 10. Without
    // heartbeats, minute 0 only closes when minute-10 data arrives;
    // with them, it closes on schedule.
    let pkt = |i: u64| Packet {
        ts: i * MICROS_PER_SEC / 1000,
        src_ip: i as u32,
        dst_ip: (i % 64) as u32,
        src_port: 1,
        dst_port: 80,
        len: 100,
        proto: Proto::Tcp,
    };
    let mut packets: Vec<Packet> = (0..100).map(pkt).collect(); // t < 0.1 s
    packets.push(Packet {
        ts: 600 * MICROS_PER_SEC,
        ..pkt(0)
    });
    let events = with_heartbeats(packets, 60 * MICROS_PER_SEC);
    // Punctuations present and interleaved in order.
    let beats = events
        .iter()
        .filter(|e| matches!(e, StreamEvent::Punctuation(_)))
        .count();
    assert!(beats >= 10, "expected ~10 heartbeats, got {beats}");

    let mut e = Engine::new(count_query());
    let mut first_row_after = None;
    for (i, ev) in events.iter().enumerate() {
        e.process_event(ev);
        if first_row_after.is_none() && e.stats().rows_out > 0 {
            first_row_after = Some(i);
        }
    }
    // The first bucket closed on a punctuation (index ≤ data count + a
    // couple of beats), long before the minute-10 packet (last event-2).
    let idx = first_row_after.expect("bucket must close");
    assert!(
        idx < events.len() - 2,
        "bucket only closed at stream end ({idx})"
    );
    e.finish();
}

#[test]
fn punctuation_only_stream_is_identical() {
    // No data at all: both engines emit nothing and agree on stats.
    let events: Vec<StreamEvent> = (1..10)
        .map(|i| StreamEvent::Punctuation(i * 60 * MICROS_PER_SEC))
        .collect();
    assert_equivalent(count_query, &events, 4);
}

#[test]
fn decayed_and_udaf_aggregates_are_identical() {
    // Forward-decayed sums (single-level: per-group updates in arrival
    // order on both paths) and a UDAF summary (SpaceSaving heavy hitters,
    // never split): byte-identical emissions under key sharding.
    let fwd = || {
        Query::builder("fwd_sum")
            .group_by(|p| p.dst_host())
            .bucket_secs(60)
            .aggregate(fwd_sum_factory(Monomial::quadratic(), |p| p.len as f64))
            .two_level(false)
            .try_build()
            .expect("valid query")
    };
    let exp = || {
        Query::builder("fwd_exp")
            .group_by(|p| p.dst_host())
            .bucket_secs(60)
            .aggregate(fwd_count_factory(Exponential::new(0.1)))
            .two_level(false)
            .try_build()
            .expect("valid query")
    };
    let hh = || {
        Query::builder("hh")
            .group_by(|p| p.dst_host() % 16)
            .bucket_secs(60)
            .aggregate(fwd_hh_factory(Monomial::quadratic(), 0.05, 0.01, |p| {
                p.dst_key()
            }))
            .try_build()
            .expect("valid query")
    };
    let events = data(trace(15, 0.0));
    assert_equivalent(fwd, &events, 4);
    assert_equivalent(exp, &events, 4);
    assert_equivalent(hh, &events, 4);
}

#[test]
fn shard_counts_from_one_to_eight_agree() {
    let events = data(trace(16, 0.5));
    let q = || {
        Query::builder("slack")
            .group_by(|p| p.dst_host())
            .bucket_secs(60)
            .slack_secs(2.0)
            .aggregate(count_factory())
            .try_build()
            .expect("valid query")
    };
    for n in [1, 2, 3, 8] {
        assert_equivalent(q, &events, n);
    }
}

#[test]
fn round_robin_routing_matches_for_additive_aggregates() {
    // Round-robin splits every group across all shards; count state is a
    // pair of scalars that add exactly, so the merge path must reassemble
    // the single-threaded answer bit for bit.
    let events = data(trace(17, 0.0));
    let mut single = Engine::new(count_query());
    for ev in &events {
        single.process_event(ev);
    }
    let expected = single.finish();
    let mut sharded = ShardedEngine::try_new(count_query(), 4)
        .expect("spawn shards")
        .routing(ShardBy::RoundRobin);
    sharded.try_process_batch(&events).expect("feed");
    let got = sharded.finish();
    assert_eq!(expected.len(), got.len());
    for (e, g) in expected.iter().zip(&got) {
        assert_eq!((e.bucket_start, e.key), (g.bucket_start, g.key));
        assert_eq!(e.value, g.value);
    }
}

#[test]
fn round_robin_rows_under_moving_clocks_are_the_parent_commits() {
    // Round-robin meets every group on every shard: the combiner merges
    // partials from every shard for nearly every key, weighed under
    // `exp:10` over 60 s buckets down to e^−600. Checkpoints every 500
    // tuples put each shard's closed buckets partly in its slot and partly
    // in its worker's tail. Each `<aggregate> <bucket_start> <key> <value
    // bits>` line was printed at the commit that made cells weigh
    // `g(a) / g(W)`.
    let pinned = include_str!("data/round_robin_rows_exp10.txt");
    let stream: Vec<Packet> = (0..6_000u64)
        .map(|i| Packet {
            ts: MICROS_PER_SEC + i * 40_000 + (i * 7919 % 10) * 60_000,
            src_ip: 1,
            dst_ip: (i * 5 % 11) as u32,
            src_port: 1000,
            dst_port: 80,
            len: 40 + (i * 97 % 1400) as u32,
            proto: Proto::Tcp,
        })
        .collect();
    let g: forward_decay::core::decay::AnyDecay = "exp:10".parse().expect("decay spec");
    let mut printed = String::new();
    for (name, aggregate) in [
        ("fwd_sum", fwd_sum_factory(g.clone(), |p| p.len as f64)),
        ("fwd_avg", fwd_avg_factory(g.clone(), |p| p.len as f64)),
    ] {
        let query = Query::builder(name)
            .group_by(|p| p.dst_host())
            .bucket_secs(60)
            .slack_secs(2.0)
            .aggregate(aggregate)
            .try_build()
            .expect("valid query");
        let mut e = ShardedEngine::try_new(query, 4)
            .expect("spawn shards")
            .routing(ShardBy::RoundRobin)
            .try_batch_size(64)
            .expect("batch size")
            .checkpoint_every(500);
        for chunk in stream.chunks(300) {
            e.try_process_packets(chunk).expect("feed");
        }
        let rows = e.finish();
        assert!(e.telemetry().snapshot().checkpoints > 0);
        for r in rows {
            let bits = r.value.as_float().expect("float").to_bits();
            printed += &format!("{name} {} {} {bits:016x}\n", r.bucket_start, r.key);
        }
    }
    assert_eq!(printed.lines().count(), 110);
    assert!(printed == pinned, "rows differ from the parent commit's");
}

// ---------------------------------------------------------------------------
// Multi-producer ingress fabric: the same differential contract, with P
// ingress producers scattering into the shard fabric. The single-threaded
// engine — itself pinned to the brute-force reference by the differential
// oracle harness (`tests/differential.rs`) — is the oracle throughout.
// ---------------------------------------------------------------------------

/// A shorter trace for the P × shards matrix (nine fabric runs per test).
fn fabric_trace(seed: u64, ooo_jitter_secs: f64) -> Vec<Packet> {
    TraceConfig {
        seed,
        duration_secs: 60.0,
        rate_pps: 2_000.0,
        n_hosts: 500,
        zipf_skew: 1.1,
        ooo_jitter_secs,
        ..Default::default()
    }
    .generate()
}

/// Runs the single-threaded oracle once: sorted rows plus admission stats.
fn oracle_run(make_query: &impl Fn() -> Query, packets: &[Packet]) -> (Vec<Row>, EngineStats) {
    let mut single = Engine::new(make_query());
    for p in packets {
        single.process_event(&StreamEvent::Data(*p));
    }
    let rows = single.finish();
    let stats = single.stats();
    (rows, stats)
}

/// Sums a count query's rows: the tuples the fabric counted.
fn counted(rows: &[Row]) -> u64 {
    rows.iter()
        .map(|r| r.value.as_float().expect("a count") as u64)
        .sum()
}

/// Every tuple a handle admitted is counted, and no shard worker dropped
/// one: the handles' admission is the only admission.
fn assert_conserved(fabric: &ShardedEngine, rows: &[Row], ctx: &str) {
    let s = fabric.stats();
    let admitted = s.tuples_in - s.filtered - s.late_drops;
    assert_eq!(counted(rows), admitted, "{ctx}: counted vs admitted");
    for (shard, w) in fabric.per_shard_stats().iter().enumerate() {
        assert_eq!(w.late_drops, 0, "{ctx}: shard {shard} dropped a tuple");
    }
}

/// Detaches the fabric's handles and feeds each its slice from its own
/// thread, in 256-tuple chunks; returns the tuples the handles took in.
fn feed_detached(fabric: &mut ShardedEngine, slices: Vec<Vec<Packet>>) -> u64 {
    let joined: Vec<std::thread::JoinHandle<EngineStats>> = fabric
        .take_ingress_handles()
        .into_iter()
        .zip(slices)
        .map(|(mut h, slice)| {
            std::thread::spawn(move || {
                for chunk in slice.chunks(256) {
                    h.ingest(chunk).expect("ingest");
                }
                h.finish()
            })
        })
        .collect();
    joined
        .into_iter()
        .map(|j| j.join().expect("producer thread").tuples_in)
        .sum()
}

/// `packets` cut into `p` contiguous runs: maximal inter-producer skew.
fn contiguous_slices(packets: &[Packet], p: usize) -> Vec<Vec<Packet>> {
    packets
        .chunks(packets.len().div_ceil(p))
        .map(<[Packet]>::to_vec)
        .collect()
}

/// Feeds the fabric in coordinator mode and requires byte-identical rows
/// and admission stats against the precomputed oracle run, and every
/// admitted tuple counted (the queries are counts).
fn assert_fabric_matches(
    make_query: &impl Fn() -> Query,
    packets: &[Packet],
    oracle: &(Vec<Row>, EngineStats),
    n_shards: usize,
    producers: usize,
    routing: ShardBy,
) {
    let (expected, want) = oracle;
    let mut fabric = ShardedEngine::try_new(make_query(), n_shards)
        .expect("spawn shards")
        .routing(routing)
        .try_batch_size(256)
        .expect("batch size")
        .try_producers(producers)
        .expect("fabric");
    let got = fabric.run(packets.iter().copied());
    let ctx = format!("P={producers} shards={n_shards} routing={routing:?}");
    assert_eq!(expected.len(), got.len(), "{ctx}: row count");
    for (e, g) in expected.iter().zip(&got) {
        assert_eq!((e.bucket_start, e.key), (g.bucket_start, g.key), "{ctx}");
        assert_eq!(
            e.value, g.value,
            "{ctx}: key {} bucket {}",
            e.key, e.bucket_start
        );
    }
    let s = fabric.stats();
    assert_eq!(want.tuples_in, s.tuples_in, "{ctx}: tuples_in");
    assert_eq!(want.filtered, s.filtered, "{ctx}: filtered");
    assert_eq!(want.late_drops, s.late_drops, "{ctx}: late_drops");
    assert_conserved(&fabric, &got, &ctx);
}

#[test]
fn multi_producer_matrix_keyed_in_order_is_identical() {
    // The producer-seq determinism rule across the whole P × shards grid:
    // coordinator dealing restores global order at every worker, so keyed
    // routing is bit-identical for any producer count.
    let packets = fabric_trace(21, 0.0);
    let oracle = oracle_run(&count_query, &packets);
    for producers in [1usize, 2, 4] {
        for shards in [1usize, 4, 8] {
            assert_fabric_matches(
                &count_query,
                &packets,
                &oracle,
                shards,
                producers,
                ShardBy::Key,
            );
        }
    }
}

#[test]
fn multi_producer_matrix_under_slack_is_identical() {
    // 2 s of jitter against 5 s of slack — within-slack disorder, the
    // scope of the fabric's bit-identity guarantee (DESIGN.md §8). Every
    // handle sees a subsequence of the stream, so its local watermark
    // trails the global one and admission decisions agree exactly.
    let q = || {
        Query::builder("slack")
            .group_by(|p| p.dst_host())
            .bucket_secs(60)
            .slack_secs(5.0)
            .aggregate(count_factory())
            .two_level(true)
            .lfta_slots(256)
            .try_build()
            .expect("valid query")
    };
    let packets = fabric_trace(22, 2.0);
    let oracle = oracle_run(&q, &packets);
    for producers in [1usize, 2, 4] {
        for shards in [1usize, 4, 8] {
            assert_fabric_matches(&q, &packets, &oracle, shards, producers, ShardBy::Key);
        }
    }
}

#[test]
fn multi_producer_matrix_round_robin_matches() {
    // Round-robin splits every group across all shards; additive count
    // state re-assembles exactly whatever the producer count.
    let packets = fabric_trace(23, 0.0);
    let oracle = oracle_run(&count_query, &packets);
    for producers in [1usize, 2, 4] {
        for shards in [1usize, 4, 8] {
            assert_fabric_matches(
                &count_query,
                &packets,
                &oracle,
                shards,
                producers,
                ShardBy::RoundRobin,
            );
        }
    }
}

#[test]
fn multi_producer_crash_restart_mid_stream_is_identical() {
    // The FD_FAULT plan grammar, injected programmatically: shard 0 dies
    // after 5 000 tuples. Checkpoint restore plus per-producer backlog
    // replay (merged by global seq) must rebuild the worker bit-identically
    // for every producer count.
    let packets = fabric_trace(24, 0.0);
    let (expected, _) = oracle_run(&count_query, &packets);
    for producers in [1usize, 2, 4] {
        let mut fabric = ShardedEngine::try_new(count_query(), 4)
            .expect("spawn shards")
            .try_batch_size(128)
            .expect("batch size")
            .checkpoint_every(1_000)
            .inject_fault(FaultPlan::parse("panic:0:5000").expect("plan"))
            .try_producers(producers)
            .expect("fabric");
        let got = fabric.run(packets.iter().copied());
        assert_eq!(expected.len(), got.len(), "P={producers}: row count");
        for (e, g) in expected.iter().zip(&got) {
            assert_eq!(
                (e.bucket_start, e.key),
                (g.bucket_start, g.key),
                "P={producers}"
            );
            assert_eq!(e.value, g.value, "P={producers}: key {}", e.key);
        }
        let snap = fabric.telemetry().snapshot();
        assert_eq!(snap.worker_panics, 1, "P={producers}: one injected panic");
        assert_eq!(snap.restarts, 1, "P={producers}: one respawn");
        assert_eq!(snap.degraded_shards, 0, "P={producers}");
        assert!(snap.replayed_batches > 0, "P={producers}: backlog replayed");
    }
}

#[test]
fn parallel_ingress_interleavings_match_the_single_producer_oracle() {
    // True 4-thread ingress under two different stream partitions: strided
    // (each producer takes every 4th packet — the coordinator's deal) and
    // contiguous quarters (maximal inter-producer time skew). The worker's
    // fixed producer rotation makes both deterministic, and count state is
    // exactly additive, so both reassemble the single-producer answer bit
    // for bit — whichever thread wins each race.
    const P: usize = 4;
    let q = || {
        Query::builder("par")
            .group_by(|p| p.dst_host())
            .bucket_secs(10)
            .slack_secs(90.0)
            .aggregate(count_factory())
            .two_level(true)
            .lfta_slots(256)
            .try_build()
            .expect("valid query")
    };
    let packets = fabric_trace(25, 0.0);
    let (expected, _) = oracle_run(&q, &packets);
    for contiguous in [false, true] {
        let slices: Vec<Vec<Packet>> = if contiguous {
            contiguous_slices(&packets, P)
        } else {
            (0..P)
                .map(|p| packets.iter().skip(p).step_by(P).copied().collect())
                .collect()
        };
        let mut fabric = ShardedEngine::try_new(q(), 4)
            .expect("spawn shards")
            .try_batch_size(128)
            .expect("batch size")
            .try_producers(P)
            .expect("fabric");
        let fed = feed_detached(&mut fabric, slices);
        assert_eq!(fed, packets.len() as u64, "contiguous={contiguous}");
        let got = fabric.finish();
        assert_eq!(expected.len(), got.len(), "contiguous={contiguous}: rows");
        for (e, g) in expected.iter().zip(&got) {
            assert_eq!(
                (e.bucket_start, e.key),
                (g.bucket_start, g.key),
                "contiguous={contiguous}"
            );
            assert_eq!(e.value, g.value, "contiguous={contiguous}: key {}", e.key);
        }
    }
}

#[test]
fn detached_handles_skewed_past_the_slack_count_every_admitted_tuple() {
    // Contiguous slices put each producer a whole slice (15–30 s) ahead of
    // the one before, far past the 1 s slack. Every handle admits all of
    // its in-order slice, so a worker must close buckets at the least
    // producer's watermark, never at its own data watermark, or it drops
    // the lagging producers' tuples after their handles admitted them.
    let q = || {
        Query::builder("skew")
            .group_by(|p| p.dst_host())
            .bucket_secs(10)
            .slack_secs(1.0)
            .aggregate(count_factory())
            .two_level(true)
            .lfta_slots(256)
            .try_build()
            .expect("valid query")
    };
    let packets = fabric_trace(25, 0.0);
    for producers in [2usize, 4] {
        for shards in [1usize, 3] {
            let mut fabric = ShardedEngine::try_new(q(), shards)
                .expect("spawn shards")
                .try_batch_size(128)
                .expect("batch size")
                .try_producers(producers)
                .expect("fabric");
            feed_detached(&mut fabric, contiguous_slices(&packets, producers));
            let rows = fabric.finish();
            let ctx = format!("P={producers} shards={shards}");
            assert_eq!(fabric.stats().late_drops, 0, "{ctx}: in-order slices");
            assert_conserved(&fabric, &rows, &ctx);
        }
    }
}

#[test]
fn coordinator_disorder_past_the_slack_counts_every_admitted_tuple() {
    // 2 s of jitter against 0.5 s of slack: the handles late-drop, each
    // against its own watermark, and whatever they admit must be counted.
    let q = || {
        Query::builder("ooo")
            .group_by(|p| p.dst_host())
            .bucket_secs(5)
            .slack_secs(0.5)
            .aggregate(count_factory())
            .two_level(true)
            .lfta_slots(256)
            .try_build()
            .expect("valid query")
    };
    let packets = fabric_trace(27, 2.0);
    for producers in [2usize, 4] {
        for shards in [1usize, 4] {
            let mut fabric = ShardedEngine::try_new(q(), shards)
                .expect("spawn shards")
                .try_batch_size(256)
                .expect("batch size")
                .try_producers(producers)
                .expect("fabric");
            let rows = fabric.run(packets.iter().copied());
            let ctx = format!("P={producers} shards={shards}");
            assert!(
                fabric.stats().late_drops > 0,
                "{ctx}: disorder past the slack"
            );
            assert_conserved(&fabric, &rows, &ctx);
        }
    }
}

#[test]
fn parallel_ingress_crash_recovery_is_exact_and_recovers_once() {
    // Regression for a duplicate-delivery race: a handle that had pushed
    // its epoch into the shard's backlog but not yet acquired its sender
    // slot while another handle ran the full recovery (reap + backlog
    // replay + fresh-sender install) used to get its message replayed
    // AND successfully sent against the freshly installed ring. Four
    // true ingress threads race a shard-0 panic; every tuple must be
    // applied exactly once (the worker's seq debug_assert catches
    // duplicates, the counts catch losses) and exactly one recovery may
    // run however many handles notice the dead worker.
    const P: usize = 4;
    let packets = fabric_trace(26, 0.0);
    let (expected, _) = oracle_run(&count_query, &packets);
    let mut fabric = ShardedEngine::try_new(count_query(), 4)
        .expect("spawn shards")
        .try_batch_size(64)
        .expect("batch size")
        .checkpoint_every(500)
        .inject_fault(FaultPlan::parse("panic:0:5000").expect("plan"))
        .try_producers(P)
        .expect("fabric");
    let joined: Vec<std::thread::JoinHandle<EngineStats>> = fabric
        .take_ingress_handles()
        .into_iter()
        .enumerate()
        .map(|(p, mut h)| {
            let slice: Vec<Packet> = packets.iter().skip(p).step_by(P).copied().collect();
            std::thread::spawn(move || {
                for chunk in slice.chunks(64) {
                    h.ingest(chunk).expect("ingest");
                }
                h.finish()
            })
        })
        .collect();
    for j in joined {
        j.join().expect("producer thread");
    }
    let got = fabric.finish();
    assert_eq!(expected.len(), got.len(), "row count");
    for (e, g) in expected.iter().zip(&got) {
        assert_eq!((e.bucket_start, e.key), (g.bucket_start, g.key));
        assert_eq!(e.value, g.value, "key {}", e.key);
    }
    let snap = fabric.telemetry().snapshot();
    assert_eq!(snap.worker_panics, 1, "one injected panic");
    assert_eq!(
        snap.restarts, 1,
        "exactly one recovery despite racing handles"
    );
    assert_eq!(snap.degraded_shards, 0);
    assert!(snap.replayed_batches > 0, "backlog tail was replayed");
}

/// 8 shards × 1M tuples with jitter, slack, a selection and a multi-part
/// aggregate: the full pipeline under sustained load. Run with
/// `cargo test --test sharded_equivalence -- --ignored`.
#[test]
#[ignore = "stress test: ~1M tuples through 9 threads"]
fn stress_8_shards_1m_tuples() {
    let packets = TraceConfig {
        seed: 99,
        duration_secs: 600.0,
        rate_pps: 1_700.0,
        n_hosts: 10_000,
        zipf_skew: 1.1,
        ooo_jitter_secs: 1.0,
        ..Default::default()
    }
    .generate();
    assert!(packets.len() >= 1_000_000, "got {}", packets.len());
    let q = || -> Query {
        let combo: Arc<FnFactory> = multi_factory(vec![
            count_factory(),
            sum_factory(|p| p.len as f64),
            fwd_count_factory(Monomial::quadratic()),
        ]);
        Query::builder("stress")
            .filter(|p| p.proto == Proto::Tcp)
            .group_by(|p| p.dst_host())
            .bucket_secs(60)
            .slack_secs(3.0)
            .aggregate(combo)
            .two_level(false)
            .try_build()
            .expect("valid query")
    };
    assert_equivalent(q, &data(packets), 8);
}
