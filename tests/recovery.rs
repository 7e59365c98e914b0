//! Fault-tolerance tests: supervised shard workers must recover from
//! crashes without changing a single output bit.
//!
//! Forward decay makes this cheap to get *exactly* right: a summary's
//! state is a handful of frozen numerators `g(t_i − L)` (Section VI-B),
//! so a checkpoint is an exact serialization, not an approximation.
//! Recovery is therefore testable by the strongest possible oracle —
//! bit-identical `f64` output against an unfaulted run — rather than by
//! tolerance bands.
//!
//! The fault schedule is deterministic ([`fault::FaultPlan`] triggers on
//! the worker engine's own checkpointed tuple counter), so every test
//! here replays identically under `--test-threads=1`, in CI, and across
//! checkpoint-interval choices. The randomized sweep honors an `FD_FAULT`
//! seed from the environment so the CI fault matrix explores different
//! placements without losing reproducibility.

use forward_decay::core::decay::Monomial;
use forward_decay::engine::fault::{self, FaultKind, FaultPlan};
use forward_decay::engine::prelude::*;
use forward_decay::gen::TraceConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn decayed_query() -> Query {
    Query::builder("fwd_sum")
        .filter(|p| p.proto == Proto::Tcp)
        .group_by(|p| p.dst_host())
        .bucket_secs(2)
        .aggregate(fwd_sum_factory(Monomial::quadratic(), |p| p.len as f64))
        .two_level(true)
        .lfta_slots(4096)
        .try_build()
        .expect("valid query")
}

fn trace(duration_secs: f64, rate_pps: f64, seed: u64) -> Vec<Packet> {
    TraceConfig {
        seed,
        duration_secs,
        rate_pps,
        n_hosts: 2_000,
        zipf_skew: 1.1,
        ..Default::default()
    }
    .generate()
}

/// The five samplers the engine runs, over the same groups: reservoir,
/// Aggarwal's biased reservoir, priority sampling, Efraimidis–Spirakis and
/// sampling with replacement.
fn samplers_query() -> Query {
    let g = Monomial::new(1.0);
    let host = |p: &Packet| p.src_host();
    Query::builder("samplers")
        .group_by(|p| p.dst_host())
        .bucket_secs(2)
        .aggregate(multi_factory(vec![
            reservoir_factory(8, 99, host),
            biased_reservoir_factory(0.1, 99, host),
            pri_sample_factory(g, 8, 99, host),
            wrs_factory(g, 8, 99, host),
            with_replacement_factory(g, 8, 99, host),
        ]))
        .try_build()
        .expect("valid query")
}

/// Whether two values are the same to the bit, item for item.
fn same_bits(a: &AggValue, b: &AggValue) -> bool {
    match (a, b) {
        (AggValue::Float(x), AggValue::Float(y)) => x.to_bits() == y.to_bits(),
        (AggValue::Items(x), AggValue::Items(y)) => {
            x.len() == y.len()
                && (x.iter().zip(y))
                    .all(|(p, q)| (p.item, p.value.to_bits()) == (q.item, q.value.to_bits()))
        }
        (AggValue::Multi(x), AggValue::Multi(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| same_bits(p, q))
        }
        _ => false,
    }
}

/// The strongest equality there is for `f64` output: same rows, same
/// order, same bits.
fn assert_bit_identical(expected: &[Row], got: &[Row], label: &str) {
    assert_eq!(expected.len(), got.len(), "{label}: row count");
    for (e, g) in expected.iter().zip(got) {
        assert_eq!(
            (e.bucket_start, e.key),
            (g.bucket_start, g.key),
            "{label}: row identity"
        );
        assert!(
            same_bits(&e.value, &g.value),
            "{label}: bucket {} key {}: {} vs {}",
            e.bucket_start,
            e.key,
            e.value,
            g.value
        );
    }
}

/// Same rows, same order, values equal to within float-combination
/// noise — the right oracle for *single vs sharded*, where per-shard
/// LFTAs flush partial sums in a different order than one big LFTA.
fn assert_equivalent(expected: &[Row], got: &[Row], label: &str) {
    assert_eq!(expected.len(), got.len(), "{label}: row count");
    for (e, g) in expected.iter().zip(got) {
        assert_eq!(
            (e.bucket_start, e.key),
            (g.bucket_start, g.key),
            "{label}: row identity"
        );
        let (ev, gv) = (
            e.value.as_float().expect("scalar aggregate"),
            g.value.as_float().expect("scalar aggregate"),
        );
        assert!(
            (ev - gv).abs() <= 1e-9 * ev.abs().max(gv.abs()).max(1.0),
            "{label}: bucket {} key {}: {ev} vs {gv}",
            e.bucket_start,
            e.key
        );
    }
}

/// The tentpole guarantee at scale: 8 shards, ~1M tuples, a worker crash
/// mid-stream — and the recovered run is bit-for-bit the unfaulted
/// sharded run (and semantically the single-threaded one).
#[test]
fn transient_crash_recovers_bit_identically_at_one_million_tuples() {
    let packets = trace(10.0, 100_000.0, 2);
    assert!(packets.len() >= 900_000, "want ~1M tuples");

    let baseline = Engine::new(decayed_query()).run(packets.iter().copied());

    let mut clean = ShardedEngine::try_new(decayed_query(), 8)
        .expect("spawn shards")
        .checkpoint_every(8_192);
    let clean_rows = clean.run(packets.iter().copied());
    assert_equivalent(&baseline, &clean_rows, "clean sharded vs single");

    let mut faulted = ShardedEngine::try_new(decayed_query(), 8)
        .expect("spawn shards")
        .checkpoint_every(8_192)
        .inject_fault(FaultPlan {
            shard: 3,
            kind: FaultKind::PanicAtTuple(40_000),
        });
    let faulted_rows = faulted.run(packets.iter().copied());
    assert_bit_identical(&clean_rows, &faulted_rows, "recovered vs clean");

    let t = faulted.telemetry().snapshot();
    assert_eq!(t.worker_panics, 1, "exactly the injected crash");
    assert_eq!(t.restarts, 1, "one restart heals a transient fault");
    assert!(t.checkpoints > 0, "workers checkpointed");
    assert!(
        t.replayed_tuples > 0,
        "the tail since the last checkpoint was replayed"
    );
    assert_eq!(t.degraded_shards, 0);
    assert_eq!(t.dropped_degraded, 0);
    // And the replay stayed a *tail*: far less than the shard's full feed.
    assert!(
        t.replayed_tuples < packets.len() as u64 / 8,
        "replayed {} of ~{} shard tuples — checkpointing is not bounding \
         the backlog",
        t.replayed_tuples,
        packets.len() / 8
    );
}

/// A permanent fault exhausts the restart budget, then degrades: the
/// supervisor salvages the shard's last checkpoint instead of aborting
/// the whole query, and accounts for every tuple it had to drop.
#[test]
fn poison_pill_degrades_gracefully_and_salvages_the_checkpoint() {
    let packets = trace(6.0, 20_000.0, 7);
    let mut e = ShardedEngine::try_new(decayed_query(), 4)
        .expect("spawn shards")
        .checkpoint_every(1_024)
        .max_restarts(2)
        .inject_fault(FaultPlan {
            shard: 1,
            kind: FaultKind::PoisonedBatch(10_000),
        });
    let rows = e.run(packets.iter().copied());
    assert!(!rows.is_empty(), "healthy shards still produce output");

    let t = e.telemetry().snapshot();
    assert_eq!(t.degraded_shards, 1);
    assert_eq!(t.restarts, 2, "the full restart budget was spent");
    assert_eq!(
        t.worker_panics,
        1 + t.restarts,
        "initial crash plus one per failed restart"
    );
    assert!(
        t.dropped_degraded > 0,
        "tuples routed to the dead shard are counted, not silently lost"
    );
    assert!(t.checkpoints > 0, "a checkpoint existed to salvage");

    // Admission still saw the whole stream; only the degraded shard's
    // tail (post-checkpoint backlog + later-routed tuples) was dropped.
    let stats = e.stats();
    assert_eq!(stats.tuples_in, packets.len() as u64);
    assert!(
        t.dropped_degraded < packets.len() as u64 / 2,
        "dropped {} of {} tuples — far more than one shard's tail",
        t.dropped_degraded,
        packets.len()
    );
    assert!(stats.rows_out > 0);
}

/// Recovery must be exact for *any* checkpoint interval and crash point:
/// a seeded sweep over both, honoring an `FD_FAULT` seed from the
/// environment (the CI fault matrix sets it; locally it defaults).
#[test]
fn randomized_checkpoint_intervals_recover_exactly() {
    let seed = fault::env_seed().unwrap_or(0xF0D4);
    let mut rng = SmallRng::seed_from_u64(seed);
    let packets = trace(4.0, 25_000.0, 11);
    // The bit-exact oracle for each round is the *unfaulted sharded run
    // with the same shard count* (float combination order depends on the
    // topology, not on checkpointing or crashes). Its per-shard tuple
    // counts also tell us where a crash point can actually fire.
    type CleanRun = (Vec<Row>, Vec<u64>);
    let mut clean: std::collections::BTreeMap<usize, CleanRun> = Default::default();

    for round in 0..6 {
        let n_shards = rng.gen_range(2..=6usize);
        let every = rng.gen_range(64..=8_192u64);
        let shard = rng.gen_range(0..n_shards);
        let (expected, per_shard) = clean.entry(n_shards).or_insert_with(|| {
            let mut e = ShardedEngine::try_new(decayed_query(), n_shards).expect("spawn shards");
            let rows = e.run(packets.iter().copied());
            let per_shard = e.per_shard_stats().iter().map(|s| s.tuples_in).collect();
            (rows, per_shard)
        });
        // Crash somewhere the shard's worker will actually reach.
        let at = rng.gen_range(1..=per_shard[shard]);
        let mut e = ShardedEngine::try_new(decayed_query(), n_shards)
            .expect("spawn shards")
            .checkpoint_every(every)
            .inject_fault(FaultPlan {
                shard,
                kind: FaultKind::PanicAtTuple(at),
            });
        let rows = e.run(packets.iter().copied());
        assert_bit_identical(
            expected,
            &rows,
            &format!(
                "seed {seed} round {round}: shards={n_shards} \
                 checkpoint_every={every} crash at tuple {at} of shard {shard}"
            ),
        );
        let t = e.telemetry().snapshot();
        assert_eq!(t.restarts, 1, "seed {seed} round {round}");
    }
}

/// The multi-producer ingress fabric under the same randomized sweep:
/// for any (producers, shards, checkpoint interval, crash point),
/// checkpoint restore plus merged-by-seq per-producer backlog replay
/// must reproduce the unfaulted fabric run bit for bit. Honors the CI
/// fault matrix's `FD_FAULT` seed like the single-dispatcher sweep.
#[test]
fn randomized_multi_producer_crashes_recover_exactly() {
    let seed = fault::env_seed().unwrap_or(0xFA8);
    let mut rng = SmallRng::seed_from_u64(seed);
    let packets = trace(4.0, 25_000.0, 12);
    // The oracle per (shards, producers) topology is the unfaulted fabric
    // run itself: worker drain order is a pure function of the dealt
    // epochs, so a crashed-and-recovered run has no excuse to differ.
    type CleanRun = (Vec<Row>, Vec<u64>);
    let mut clean: std::collections::BTreeMap<(usize, usize), CleanRun> = Default::default();

    for round in 0..6 {
        let n_shards = rng.gen_range(2..=6usize);
        let producers = rng.gen_range(1..=4usize);
        let every = rng.gen_range(64..=8_192u64);
        let shard = rng.gen_range(0..n_shards);
        let (expected, per_shard) = clean.entry((n_shards, producers)).or_insert_with(|| {
            let mut e = ShardedEngine::try_new(decayed_query(), n_shards)
                .expect("spawn shards")
                .try_producers(producers)
                .expect("fabric");
            let rows = e.run(packets.iter().copied());
            let per_shard = e.per_shard_stats().iter().map(|s| s.tuples_in).collect();
            (rows, per_shard)
        });
        let at = rng.gen_range(1..=per_shard[shard]);
        let mut e = ShardedEngine::try_new(decayed_query(), n_shards)
            .expect("spawn shards")
            .checkpoint_every(every)
            .inject_fault(FaultPlan {
                shard,
                kind: FaultKind::PanicAtTuple(at),
            })
            .try_producers(producers)
            .expect("fabric");
        let rows = e.run(packets.iter().copied());
        assert_bit_identical(
            expected,
            &rows,
            &format!(
                "seed {seed} round {round}: producers={producers} shards={n_shards} \
                 checkpoint_every={every} crash at tuple {at} of shard {shard}"
            ),
        );
        let t = e.telemetry().snapshot();
        assert_eq!(t.restarts, 1, "seed {seed} round {round}");
    }
}

/// A crash before the first checkpoint must also recover: the supervisor
/// rebuilds the worker from an empty engine and replays everything.
#[test]
fn crash_before_first_checkpoint_replays_from_scratch() {
    let packets = trace(2.0, 10_000.0, 3);
    let baseline = ShardedEngine::try_new(decayed_query(), 2)
        .expect("spawn shards")
        .run(packets.iter().copied());
    let mut e = ShardedEngine::try_new(decayed_query(), 2)
        .expect("spawn shards")
        .checkpoint_every(1_000_000) // larger than the stream: never fires
        .inject_fault(FaultPlan {
            shard: 0,
            kind: FaultKind::PanicAtTuple(500),
        });
    let rows = e.run(packets.iter().copied());
    assert_bit_identical(&baseline, &rows, "from-scratch replay");
    let t = e.telemetry().snapshot();
    assert_eq!(t.restarts, 1);
    assert_eq!(t.checkpoints, 0, "no checkpoint ever fired");
    assert!(t.replayed_tuples > 0);
}

/// A shard whose snapshot outweighs `checkpoint_every` packets waits
/// that many packets' worth of tuples between checkpoints, so a crash deep
/// inside such an interval leaves a retained tail longer than
/// `checkpoint_every`. The respawned worker re-reads all of it, and the
/// rows are still the single-threaded engine's, to the bit.
#[test]
fn respawn_rereads_a_tail_longer_than_checkpoint_every() {
    const EVERY: u64 = 256;
    let q = || {
        Query::builder("fwd_quantiles")
            .group_by(|p| p.dst_host())
            .bucket_secs(2)
            .aggregate(fwd_quantile_factory(
                Monomial::quadratic(),
                11,
                0.01,
                vec![0.5, 0.95, 0.99],
                |p| p.len as u64,
            ))
            .two_level(false)
            .try_build()
            .expect("valid query")
    };
    let packets = trace(3.0, 10_000.0, 29);
    let baseline = Engine::new(q()).run(packets.iter().copied());
    let run = |fault: Option<FaultPlan>| {
        let mut e = ShardedEngine::try_new(q(), 2)
            .expect("spawn shards")
            .try_batch_size(128)
            .expect("batch")
            .checkpoint_every(EVERY);
        if let Some(plan) = fault {
            e = e.inject_fault(plan);
        }
        let rows = e.run(packets.iter().copied());
        (rows, e.telemetry().snapshot())
    };
    let (rows, clean) = run(None);
    assert_bit_identical(&baseline, &rows, "unfaulted sharded run");
    let interval = clean.shards[0].checkpoint_interval_tuples;
    assert!(interval > 4 * EVERY, "stretched to {interval} tuples");
    let (rows, t) = run(Some(FaultPlan {
        shard: 0,
        kind: FaultKind::PanicAtTuple(clean.shards[0].tuples_processed * 2 / 3),
    }));
    assert_bit_identical(&baseline, &rows, "respawned after a long tail");
    assert_eq!(t.restarts, 1);
    // Whole batches the dead worker applied past its last checkpoint are
    // applied twice. Each message boundary found fewer tuples than the
    // interval in force since that checkpoint, so a re-read past `EVERY`
    // shows the crash landed in a stretched interval.
    let reread = t.shards[0].tuples_processed - clean.shards[0].tuples_processed;
    assert!(reread > EVERY, "re-read {reread} tuples");
    assert!(
        t.replayed_tuples >= reread,
        "{} replayed",
        t.replayed_tuples
    );
}

/// A wedge is the crash the panic path cannot see: the worker spins
/// forever without dying or heartbeating. Only the overload plane's
/// watchdog — ring jammed past the send deadline *and* a stale lease —
/// can detect it. This test pins down all three guarantees at once:
///
///  - **losslessness**: the respawned incarnation restores the last
///    checkpoint and replays the backlog, so the output is bit-identical
///    to an unfaulted run of the same topology;
///  - **detection latency**: the dispatcher may stall on the jammed ring
///    for at most ~2 lease periods before the watchdog retires and
///    respawns the worker, so the faulted run finishes within a 10%
///    throughput slack plus that detection budget;
///  - **sibling isolation**: the healthy shards still see their entire
///    feeds — a wedge on one shard never becomes data loss on another.
#[test]
fn wedged_worker_respawns_within_the_lease_budget() {
    use std::time::{Duration, Instant};

    let packets = trace(4.0, 25_000.0, 17);
    let lease = Duration::from_millis(250);

    let mut clean = ShardedEngine::try_new(decayed_query(), 3)
        .expect("spawn shards")
        .try_batch_size(64)
        .expect("batch size");
    let t0 = Instant::now();
    let expected = clean.run(packets.iter().copied());
    let clean_elapsed = t0.elapsed();
    let clean_per_shard: Vec<u64> = clean
        .per_shard_stats()
        .iter()
        .map(|s| s.tuples_in)
        .collect();

    let mut e = ShardedEngine::try_new(decayed_query(), 3)
        .expect("spawn shards")
        .try_batch_size(64)
        .expect("batch size")
        .try_overload(OverloadConfig {
            send_deadline: Duration::from_millis(5),
            lease,
            ..OverloadConfig::default()
        })
        .expect("overload config")
        .inject_fault(FaultPlan {
            shard: 1,
            kind: FaultKind::WedgeAtTuple(5_000),
        });
    let t0 = Instant::now();
    let rows = e.run(packets.iter().copied());
    let elapsed = t0.elapsed();

    assert_bit_identical(&expected, &rows, "respawned vs clean");
    let t = e.telemetry().snapshot();
    assert_eq!(t.wedged_respawns, 1, "exactly the injected wedge");
    assert_eq!(t.restarts, 1, "the respawn spends one restart");
    assert_eq!(t.worker_panics, 0, "a wedge is not a panic");
    assert_eq!(t.degraded_shards, 0);
    assert_eq!(t.shed_tuples, 0, "the default Block policy never sheds");
    assert!(t.replayed_tuples > 0, "the backlog was replayed");

    let got_per_shard: Vec<u64> = e.per_shard_stats().iter().map(|s| s.tuples_in).collect();
    assert_eq!(
        clean_per_shard, got_per_shard,
        "every shard — wedged and healthy alike — saw its full feed"
    );
    assert!(
        elapsed <= clean_elapsed.mul_f64(1.1) + 2 * lease,
        "detection blew the lease budget: faulted run took {elapsed:?} \
         against a {clean_elapsed:?} baseline (lease {lease:?})"
    );
}

// ---------------------------------------------------------------------------
// Closed buckets leave the checkpoint: bounded cost, exactly-once hand-off
// ---------------------------------------------------------------------------

/// A stream built for placing crashes exactly: tuple `i` arrives at
/// `i · BUCKET / PER_BUCKET`, so bucket `b` is tuples
/// `[b · PER_BUCKET, (b + 1) · PER_BUCKET)` and closes the moment tuple
/// `(b + 1) · PER_BUCKET` is applied. Keys cycle, so every bucket holds
/// every group.
const PER_BUCKET: u64 = 1_000;
const HANDOFF_GROUPS: u32 = 37;

fn handoff_stream(n_buckets: u64) -> Vec<Packet> {
    (0..n_buckets * PER_BUCKET)
        .map(|i| Packet {
            ts: i * (2 * MICROS_PER_SEC / PER_BUCKET),
            src_ip: 7,
            dst_ip: i as u32 % HANDOFF_GROUPS,
            src_port: 9,
            dst_port: 80,
            len: 40 + (i % 1_400) as u32,
            proto: Proto::Tcp,
        })
        .collect()
}

/// One worker, 64-tuple epochs, a checkpoint every 10 epochs: the worker
/// counts `64 + 1` per epoch, so checkpoints (and with them hand-offs)
/// land after shard tuples 640, 1280, 1920, … while buckets close at
/// tuples 1001, 2001, 3001, …
fn handoff_engine(fault: &str) -> ShardedEngine {
    ShardedEngine::try_new(decayed_query(), 1)
        .expect("spawn shards")
        .try_batch_size(64)
        .expect("batch size")
        .checkpoint_every(650)
        .inject_fault(FaultPlan::parse(fault).expect("fault spec"))
}

/// Crash points on every side of a hand-off. Bucket 0 closes at tuple
/// 1001 and leaves the engine with the checkpoint after tuple 1280:
///
/// * 1100, 1280 — between the close and the next checkpoint: the closed
///   groups die with the worker and the replay closes the bucket again;
/// * 1281, 1300 — right after the hand-off: the slot holds bucket 0, the
///   restored snapshot does not, and the replay must not close it twice;
/// * 2001 — the tuple that closes bucket 1, with bucket 0 already handed
///   off; 3300 — two hand-offs down.
///
/// A group handed off twice would be merged twice (a doubled sum); one
/// lost would be a missing row. One worker sees the stream exactly as the
/// single-threaded engine does, so the oracle is that engine, to the bit.
#[test]
fn crashes_on_every_side_of_a_handoff_lose_and_duplicate_nothing() {
    let stream = handoff_stream(5);
    let expected = Engine::new(decayed_query()).run(stream.iter().copied());
    assert_eq!(expected.len(), 5 * HANDOFF_GROUPS as usize);
    for at in [1_100u64, 1_280, 1_281, 1_300, 2_001, 3_300] {
        let mut e = handoff_engine(&format!("panic:0:{at}"));
        let rows = e.run(stream.iter().copied());
        assert_bit_identical(&expected, &rows, &format!("crash at tuple {at}"));
        let t = e.telemetry().snapshot();
        assert_eq!((t.restarts, t.worker_panics), (1, 1), "crash at {at}");
        assert_eq!(t.degraded_shards, 0, "crash at {at}");
        // Four buckets closed mid-stream, and each went to the slot with
        // the checkpoint after its close (1280, 2560, 3200, 4480) — once.
        assert_eq!(
            t.shards[0].closed_groups_held,
            4 * u64::from(HANDOFF_GROUPS),
            "crash at {at}"
        );
    }
}

/// The watchdog's retire-and-respawn across a bucket boundary: the wedged
/// incarnation stops just before the epoch that closes bucket 0 (tuple
/// 1000), or with bucket 0 closed but not yet handed off (1100), or right
/// after handing it off (1300). Its successor restores the slot's
/// snapshot and replays; the zombie, once retired, may publish nothing.
#[test]
fn wedge_retired_across_a_bucket_boundary_hands_off_exactly_once() {
    use std::time::Duration;
    let stream = handoff_stream(4);
    let expected = Engine::new(decayed_query()).run(stream.iter().copied());
    for at in [1_000u64, 1_100, 1_300] {
        let mut e = handoff_engine(&format!("wedge:0:{at}"))
            .try_overload(OverloadConfig {
                send_deadline: Duration::from_millis(5),
                lease: Duration::from_millis(50),
                ..OverloadConfig::default()
            })
            .expect("overload config");
        let rows = e.run(stream.iter().copied());
        assert_bit_identical(&expected, &rows, &format!("wedge at tuple {at}"));
        let t = e.telemetry().snapshot();
        assert_eq!((t.wedged_respawns, t.restarts), (1, 1), "wedge at {at}");
        assert_eq!(
            (t.worker_panics, t.degraded_shards),
            (0, 0),
            "wedge at {at}"
        );
    }
}

/// Degradation after two closed buckets: the poisoned tuple sits in bucket
/// 2, past the checkpoint (after tuple 2560) that handed bucket 1 off.
/// Salvage must return buckets 0 and 1 — from the slot's closed groups —
/// exactly as the single-threaded engine emits them, once each, plus what
/// the snapshot held of bucket 2 (tuples 2000..2560).
#[test]
fn degraded_shard_salvages_its_handed_off_buckets_exactly_once() {
    let stream = handoff_stream(4);
    let expected = Engine::new(decayed_query()).run(stream.iter().copied());
    let mut e = handoff_engine("poison:0:2700").max_restarts(1);
    let rows = e.run(stream.iter().copied());
    let t = e.telemetry().snapshot();
    assert_eq!((t.degraded_shards, t.restarts), (1, 1));
    assert!(t.dropped_degraded > 0);

    let closed_rows = 2 * HANDOFF_GROUPS as usize;
    let bucket_2 = 2 * 2 * MICROS_PER_SEC;
    assert_bit_identical(
        &expected[..closed_rows],
        &rows[..closed_rows],
        "salvaged closed buckets",
    );
    // Bucket 2 as of the last checkpoint: every group, a partial sum.
    assert_eq!(rows.len(), closed_rows + HANDOFF_GROUPS as usize);
    for (want, got) in expected[closed_rows..].iter().zip(&rows[closed_rows..]) {
        assert_eq!((got.bucket_start, got.key), (bucket_2, want.key));
        assert!(got.value.as_float() < want.value.as_float());
    }
    // What the worker engine had applied when the snapshot was taken.
    assert_eq!(e.per_shard_stats()[0].tuples_in, 2_560);
}

/// The randomized sweep again, on a trace whose crash windows straddle
/// bucket boundaries by construction: every round crashes within one
/// checkpoint interval of a bucket close on the faulted shard, so the
/// close, the hand-off and the crash fall in every order across rounds.
#[test]
fn randomized_crashes_around_bucket_boundaries_recover_exactly() {
    let seed = fault::env_seed().unwrap_or(0xB0C4);
    let mut rng = SmallRng::seed_from_u64(seed);
    let packets = trace(9.0, 12_000.0, 19);
    type CleanRun = (Vec<Row>, Vec<u64>);
    let mut clean: std::collections::BTreeMap<usize, CleanRun> = Default::default();
    for round in 0..6 {
        let n_shards = rng.gen_range(1..=3usize);
        let every = rng.gen_range(256..=2_048u64);
        let shard = rng.gen_range(0..n_shards);
        let (expected, per_shard) = clean.entry(n_shards).or_insert_with(|| {
            let mut e = ShardedEngine::try_new(decayed_query(), n_shards).expect("spawn shards");
            let rows = e.run(packets.iter().copied());
            let per_shard = e.per_shard_stats().iter().map(|s| s.tuples_in).collect();
            (rows, per_shard)
        });
        // The shard's tuples spread evenly over 4.5 two-second buckets:
        // aim at a close (k of them are whole), then jitter by up to one
        // checkpoint interval either way.
        let per_bucket = per_shard[shard] * 2 / 9;
        let boundary = rng.gen_range(1..=4u64) * per_bucket;
        let at = (boundary + rng.gen_range(0..=2 * every))
            .saturating_sub(every)
            .clamp(1, per_shard[shard]);
        let mut e = ShardedEngine::try_new(decayed_query(), n_shards)
            .expect("spawn shards")
            .checkpoint_every(every)
            .inject_fault(FaultPlan {
                shard,
                kind: FaultKind::PanicAtTuple(at),
            });
        let rows = e.run(packets.iter().copied());
        assert_bit_identical(
            expected,
            &rows,
            &format!(
                "seed {seed} round {round}: shards={n_shards} checkpoint_every={every} \
                 crash at tuple {at} of shard {shard} (bucket boundary ≈ {boundary})"
            ),
        );
        assert_eq!(
            e.telemetry().snapshot().restarts,
            1,
            "seed {seed} round {round}"
        );
    }
}

/// What a checkpoint costs must not depend on how long the stream has run:
/// 24 equal buckets through two default-supervised shards, and the bytes
/// serialized per checkpoint over buckets 21–23 stay within 1.25× of
/// those over buckets 3–5. (While closed buckets rode in every snapshot,
/// the later window was several times the earlier one.)
#[test]
fn checkpoint_bytes_stay_flat_as_buckets_close() {
    const GROUPS: u32 = 1_500;
    const PER_BUCKET: u64 = 90_000;
    let q = Query::builder("flat")
        .group_by(|p| p.dst_host())
        .bucket_secs(2)
        .aggregate(fwd_sum_factory(Monomial::quadratic(), |p| p.len as f64))
        .try_build()
        .expect("valid query");
    let mut e = ShardedEngine::try_new(q, 2).expect("spawn shards");
    let tel = std::sync::Arc::clone(e.telemetry());
    // (checkpoint bytes, checkpoints) once everything sent has been applied.
    let sample = |e: &mut ShardedEngine, through_bucket: u64| {
        e.try_punctuate((through_bucket + 1) * 2 * MICROS_PER_SEC)
            .expect("punctuate");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        loop {
            let s = tel.snapshot();
            if s.shards.iter().all(|sh| sh.queue_depth == 0) {
                return (s.checkpoint_bytes, s.checkpoints);
            }
            assert!(
                std::time::Instant::now() < deadline,
                "workers never drained"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    };
    let mut marks = Vec::new();
    let mut chunk = Vec::with_capacity(PER_BUCKET as usize);
    for bucket in 0..24u64 {
        chunk.clear();
        chunk.extend((0..PER_BUCKET).map(|j| Packet {
            ts: bucket * 2 * MICROS_PER_SEC + j * (2 * MICROS_PER_SEC / PER_BUCKET),
            src_ip: 1,
            dst_ip: (j % u64::from(GROUPS)) as u32,
            src_port: 1,
            dst_port: 80,
            len: 100,
            proto: Proto::Tcp,
        }));
        e.try_process_packets(&chunk).expect("feed");
        if [2, 5, 20, 23].contains(&bucket) {
            marks.push(sample(&mut e, bucket));
        }
    }
    let per_checkpoint = |from: (u64, u64), to: (u64, u64)| {
        assert!(to.1 > from.1, "no checkpoint in the window");
        (to.0 - from.0) as f64 / (to.1 - from.1) as f64
    };
    let early = per_checkpoint(marks[0], marks[1]);
    let late = per_checkpoint(marks[2], marks[3]);
    assert!(
        late <= 1.25 * early && early <= 1.25 * late,
        "bytes per checkpoint drifted: {early:.0} over buckets 3-5, {late:.0} over 21-23"
    );
    let rows = e.finish();
    assert_eq!(rows.len(), 24 * GROUPS as usize);
    let held: u64 = tel
        .snapshot()
        .shards
        .iter()
        .map(|s| s.closed_groups_held)
        .sum();
    assert!(
        held >= 22 * u64::from(GROUPS),
        "closed buckets were handed to the slots ({held} groups)"
    );
}

/// The samplers checkpoint like every other aggregate — their keys are
/// fixed at arrival and their generators' state is in the bytes — so a
/// crashed worker running them is restored, not degraded, and the rows
/// are the unfaulted run's to the bit.
#[test]
fn samplers_recover_from_a_crash_bit_identically() {
    let packets = trace(3.0, 5_000.0, 13);
    let run = |fault: Option<FaultPlan>| {
        let mut e = ShardedEngine::try_new(samplers_query(), 2)
            .expect("spawn shards")
            .checkpoint_every(256);
        if let Some(plan) = fault {
            e = e.inject_fault(plan);
        }
        let rows = e.run(packets.iter().copied());
        (rows, e.telemetry().snapshot())
    };
    let (expected, _) = run(None);
    assert!(!expected.is_empty());
    let (rows, t) = run(Some(FaultPlan {
        shard: 1,
        kind: FaultKind::PanicAtTuple(4_000),
    }));
    assert_bit_identical(&expected, &rows, "samplers after a crash");
    assert!(t.checkpoints > 0, "the samplers checkpointed");
    assert_eq!((t.restarts, t.worker_panics), (1, 1));
    assert_eq!(t.degraded_shards, 0);
    assert!(
        t.replayed_tuples > 0,
        "the tail since the checkpoint was re-read"
    );
}

/// The randomized sweep on the sampler query: any shard count, checkpoint
/// interval and crash point restores the samplers' reservoirs and
/// generators exactly. Honors `FD_FAULT` like the sweeps above.
#[test]
fn randomized_sampler_crashes_recover_exactly() {
    let seed = fault::env_seed().unwrap_or(0x5A3F);
    let mut rng = SmallRng::seed_from_u64(seed);
    let packets = trace(3.0, 8_000.0, 23);
    type CleanRun = (Vec<Row>, Vec<u64>);
    let mut clean: std::collections::BTreeMap<usize, CleanRun> = Default::default();
    for round in 0..4 {
        let n_shards = rng.gen_range(1..=4usize);
        let every = rng.gen_range(64..=4_096u64);
        let shard = rng.gen_range(0..n_shards);
        let (expected, per_shard) = clean.entry(n_shards).or_insert_with(|| {
            let mut e = ShardedEngine::try_new(samplers_query(), n_shards).expect("spawn shards");
            let rows = e.run(packets.iter().copied());
            let per_shard = e.per_shard_stats().iter().map(|s| s.tuples_in).collect();
            (rows, per_shard)
        });
        let at = rng.gen_range(1..=per_shard[shard]);
        let mut e = ShardedEngine::try_new(samplers_query(), n_shards)
            .expect("spawn shards")
            .checkpoint_every(every)
            .inject_fault(FaultPlan {
                shard,
                kind: FaultKind::PanicAtTuple(at),
            });
        let rows = e.run(packets.iter().copied());
        let label = format!(
            "seed {seed} round {round}: shards={n_shards} checkpoint_every={every} \
             crash at tuple {at} of shard {shard}"
        );
        assert_bit_identical(expected, &rows, &label);
        let t = e.telemetry().snapshot();
        assert_eq!((t.restarts, t.degraded_shards), (1, 0), "{label}");
    }
}

/// A respawn across a gap in the seq stream. Producer 0's first epoch kills
/// shard 0's worker; producer 0 then keeps sealing (few enough epochs that
/// it never parks on a full queue) until the supervisor has respawned the
/// worker — all while producer 1 has sent nothing. The fresh worker
/// re-reads seq 1 from producer 0's queue and must then simply wait for
/// seq 2 on producer 1's, however much of producer 0's later epochs sit
/// queued beyond the gap; once producer 1 ingests its share, the run ends
/// with the rows of the single-threaded engine over the same stream.
#[test]
fn respawn_across_a_gap_waits_for_the_stalled_producer() {
    use forward_decay::engine::shard::FABRIC_RING_DEPTH;
    use std::time::Duration;
    const CHUNK: usize = 48;
    let q = || {
        Query::builder("gap")
            .group_by(|p| p.dst_host())
            .bucket_secs(2)
            .aggregate(fwd_sum_factory(Monomial::quadratic(), |p| p.len as f64))
            .two_level(false)
            .try_build()
            .expect("valid query")
    };
    // Run off-thread: a worker stuck at the gap must fail the test, not
    // hang the suite.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let body = std::thread::spawn(move || {
        let packets = trace(1.0, 6_000.0, 21);
        // Epochs are dealt round-robin: even chunks are producer 0's.
        let chunks: Vec<&[Packet]> = packets.chunks(CHUNK).collect();
        let expected = Engine::new(q()).run(packets.iter().copied());
        let mut e = ShardedEngine::try_new(q(), 2)
            .expect("spawn shards")
            .inject_fault(FaultPlan {
                shard: 0,
                kind: FaultKind::PanicAtTuple(3),
            })
            .try_producers(2)
            .expect("fabric");
        let tel = std::sync::Arc::clone(e.telemetry());
        let mut handles = e.take_ingress_handles();
        let (mut sent0, mut sent1) = (0, 0);
        let mut respawned = false;
        while !respawned && sent0 < FABRIC_RING_DEPTH - 1 {
            handles[0].ingest(chunks[2 * sent0]).expect("producer 0");
            sent0 += 1;
            for _ in 0..200 {
                respawned = tel.snapshot().restarts == 1;
                if respawned {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        assert!(respawned, "no respawn within {sent0} epochs of producer 0");
        assert_eq!(handles[1].stats().tuples_in, 0, "producer 1 is the gap");
        assert!(tel.snapshot().replayed_batches >= 1, "seq 1 was re-read");
        // Producer 1 catches up, then both deal out the rest in turn.
        while 2 * sent0 < chunks.len() || 2 * sent1 + 1 < chunks.len() {
            if sent1 < sent0 && 2 * sent1 + 1 < chunks.len() {
                handles[1]
                    .ingest(chunks[2 * sent1 + 1])
                    .expect("producer 1");
                sent1 += 1;
            } else {
                handles[0].ingest(chunks[2 * sent0]).expect("producer 0");
                sent0 += 1;
            }
        }
        for h in handles {
            h.finish();
        }
        let rows = e.finish();
        assert_bit_identical(&expected, &rows, "respawn across a gap");
        let t = tel.snapshot();
        assert_eq!(t.restarts, 1);
        assert_eq!(t.worker_panics, 1);
        assert_eq!(t.degraded_shards, 0);
        assert!(t.replayed_batches >= 1);
        done_tx.send(()).expect("report");
    });
    done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the run did not finish: the respawned worker is stuck at the gap");
    body.join().expect("test body");
}
