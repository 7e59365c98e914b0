//! What the engine's group store rests on, and what it must not change:
//! a first partial may stand in for `make` + `merge`, checkpoint bytes are
//! the parent format's, bucket arithmetic survives the top of the clock,
//! and the store's two instantiations — a built-in factory's state held by
//! value, a UDAF's boxed — are indistinguishable in rows and bytes.

use std::sync::Arc;

use forward_decay::core::aggregates::DecayedCount;
use forward_decay::core::decay::{AnyDecay, BackExponential, Monomial};
use forward_decay::core::oracle::{Oracle, OracleEvent};
use forward_decay::core::Summary;
use forward_decay::engine::prelude::*;
use forward_decay::engine::udaf::FnFactory;

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

/// Every bit of an emitted value, so `NaN`s and signed zeros compare too.
fn bits(v: &AggValue) -> Vec<u64> {
    match v {
        AggValue::Float(x) => vec![x.to_bits()],
        AggValue::Items(items) => items
            .iter()
            .flat_map(|i| [i.item, i.value.to_bits()])
            .collect(),
        AggValue::Multi(parts) => parts.iter().flat_map(bits).collect(),
    }
}

/// Every factory the engine may split across the LFTA, under decay `g`.
fn splittable_factories(g: &AnyDecay) -> Vec<Arc<FnFactory>> {
    let len = |p: &Packet| p.len as f64;
    let mut all = vec![
        count_factory(),
        sum_factory(len),
        fwd_count_factory(g.clone()),
        fwd_sum_factory(g.clone(), len),
        fwd_avg_factory(g.clone(), len),
        fwd_var_factory(g.clone(), len),
        fwd_min_factory(g.clone(), len),
        fwd_max_factory(g.clone(), len),
    ];
    all.push(multi_factory(all.clone()));
    all
}

#[test]
fn a_first_partial_is_the_state_make_and_merge_would_build() {
    const START: Micros = 120 * MICROS_PER_SEC;
    let t_end = secs(START + 60 * MICROS_PER_SEC);
    let at = |s: f64, len: u32| pkt(START + (s * MICROS_PER_SEC as f64) as Micros, 7, len);
    // Two partials of one group, as the LFTA would release them. Under
    // exp:12 the landmark renormalizes once α·n passes ln 1e150 ≈ 345,
    // i.e. 28.8 s into the bucket — inside the first partial.
    let first = [at(1.0, 40), at(10.0, 1500), at(35.0, 576), at(50.0, 64)];
    let second = [at(5.0, 900), at(40.0, 41), at(58.0, 1200)];
    for spec in ["none", "poly:2", "exp:12"] {
        let g: AnyDecay = spec.parse().expect("decay spec");
        if spec.starts_with("exp") {
            let mut probe = DecayedCount::new(g.clone(), secs(START));
            for p in &first {
                probe.update(p.timestamp());
            }
            assert!(
                Summary::stats(&probe).renormalizations > 0,
                "{spec} must renormalize inside the first partial"
            );
        }
        for factory in splittable_factories(&g) {
            assert!(factory.splittable());
            let partial = |pkts: &[Packet]| {
                let mut agg = factory.make(START);
                for p in pkts {
                    agg.update(p);
                }
                agg
            };
            let mut moved_in = partial(&first);
            let mut merged = factory.make(START);
            merged.merge_boxed(partial(&first));
            let what = format!("{} under {spec}", factory.name());
            assert_eq!(
                bits(&moved_in.emit(t_end)),
                bits(&merged.emit(t_end)),
                "{what}: first partial"
            );
            // And they stay interchangeable as later partials merge in.
            moved_in.merge_boxed(partial(&second));
            merged.merge_boxed(partial(&second));
            assert_eq!(
                bits(&moved_in.emit(t_end)),
                bits(&merged.emit(t_end)),
                "{what}: after a second partial"
            );
        }
    }
}

fn golden_query() -> Query {
    Query::builder("golden")
        .group_by(|p| p.dst_host())
        .bucket_secs(10)
        .slack_secs(5.0)
        .aggregate(fwd_sum_factory(Monomial::quadratic(), |p| p.len as f64))
        .lfta_slots(4)
        .try_build()
        .expect("valid query")
}

/// 44 tuples over 33 s, seven groups, ±2 s out of order: two buckets have
/// closed (their rows wait in the header), two are open with groups at the
/// high level, and the four LFTA slots are resident.
fn golden_stream() -> Vec<Packet> {
    (0..44u64)
        .map(|i| {
            pkt(
                i * 750_000 + (i * 7 % 5) * 400_000,
                (i * 5 % 7) as u32,
                100 + i as u32,
            )
        })
        .collect()
}

#[test]
fn checkpoint_bytes_are_the_parent_formats() {
    // Written by `Engine::checkpoint` at the commit before the group store
    // was replaced, from the same query and stream.
    let golden: Vec<u8> = include_str!("data/engine_checkpoint_fwd_sum_poly2.hex")
        .split_whitespace()
        .flat_map(|line| {
            (0..line.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&line[i..i + 2], 16).expect("hex digit pair"))
        })
        .collect();
    assert_eq!(golden.len(), 1482);

    let mut engine = Engine::new(golden_query());
    for p in golden_stream() {
        engine.process(&p);
    }
    assert_eq!(engine.stats().buckets_closed, 2);
    assert!(engine.stats().lfta_evictions > 0);
    assert!(
        engine.checkpoint().expect("checkpoint") == golden,
        "checkpoint bytes differ from the parent commit's"
    );

    // The old bytes restore, and the restored run ends where this one does.
    let mut restored = Engine::restore(golden_query(), &golden).expect("restore");
    assert!(
        restored.checkpoint().expect("checkpoint") == golden,
        "a restored engine re-serializes differently"
    );
    assert_eq!(restored.finish(), engine.finish());
}

#[test]
fn space_per_group_is_the_parent_commits() {
    // Fig. 2(d)'s metric is the summary's size probe, not the cell's
    // footprint: 8 bytes a group, for fwd_sum held by value or boxed. The
    // footprint counts the LFTA's slots, which a by-value cell widens; the
    // boxed store's is the parent commit's.
    let by_value = fwd_sum_factory(Monomial::quadratic(), |p| p.len as f64);
    let space = |factory| {
        let mut engine = Engine::new(Query {
            aggregate: factory,
            ..golden_query()
        });
        for p in golden_stream() {
            engine.process(&p);
        }
        (engine.space_per_group(), engine.space_bytes())
    };
    let (boxed_per_group, boxed_bytes) = space(as_udaf(&by_value));
    let (per_group, bytes) = space(by_value);
    assert_eq!((boxed_per_group, boxed_bytes), (Some(8.0), 352));
    assert_eq!(per_group, Some(8.0));
    assert!(bytes > boxed_bytes);
}

#[test]
fn the_last_bucket_before_the_end_of_the_clock_closes() {
    const WIDTH: Micros = 60 * MICROS_PER_SEC;
    let stream: Vec<Packet> = [50, 40, 5]
        .iter()
        .map(|back| pkt(u64::MAX - back, 3, 100))
        .collect();
    let query = |two_level: bool| {
        Query::builder("edge")
            .group_by(|p| p.dst_host())
            .bucket_secs(60)
            .aggregate(count_factory())
            .two_level(two_level)
            .try_build()
            .expect("valid query")
    };
    let want = vec![Row {
        bucket_start: u64::MAX / WIDTH * WIDTH,
        key: 3,
        value: AggValue::Float(3.0),
    }];
    for two_level in [true, false] {
        assert_eq!(Engine::new(query(two_level)).run(stream.clone()), want);
        // Closed by a watermark at the very top rather than by `finish`.
        let mut e = Engine::new(query(two_level));
        for p in &stream {
            e.process(p);
        }
        e.punctuate(u64::MAX);
        assert_eq!(e.finish(), want);
        assert_eq!(e.stats().late_drops, 0);
    }
    let mut sharded = ShardedEngine::try_new(query(true), 2).expect("spawn");
    sharded.try_process_packets(&stream).expect("feed");
    assert_eq!(sharded.finish(), want);

    // A decayed aggregate there is evaluated at the saturated bucket end,
    // the top of the clock — not at an end that wrapped past it.
    let g: AnyDecay = "poly:2".parse().expect("decay spec");
    let decayed = Query::builder("edge")
        .bucket_secs(60)
        .aggregate(fwd_count_factory(g.clone()))
        .try_build()
        .expect("valid query");
    let rows = Engine::new(decayed).run(stream.clone());
    let mut at_top = DecayedCount::new(g, secs(u64::MAX / WIDTH * WIDTH));
    for p in &stream {
        at_top.update(p.timestamp());
    }
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].value.as_float(), Some(at_top.query(secs(u64::MAX))));
}

/// Every factory whose groups the engine holds by value — each public
/// factory but `multi_factory` — under decay `g`.
fn by_value_factories(g: &AnyDecay) -> Vec<Arc<FnFactory>> {
    let len = |p: &Packet| p.len as f64;
    let len_u = |p: &Packet| p.len as u64;
    let src = |p: &Packet| p.src_host();
    let back = || DynBackward::from_decay(BackExponential::new(0.05));
    vec![
        count_factory(),
        sum_factory(len),
        fwd_count_factory(g.clone()),
        fwd_sum_factory(g.clone(), len),
        fwd_avg_factory(g.clone(), len),
        fwd_var_factory(g.clone(), len),
        fwd_max_factory(g.clone(), len),
        fwd_min_factory(g.clone(), len),
        eh_count_factory(0.1, back()),
        eh_sum_factory(0.1, back(), len_u),
        unary_hh_factory(0.05, 0.1, src),
        fwd_hh_factory(g.clone(), 0.05, 0.1, src),
        sw_hh_factory(2.0, 3, back(), 0.1, src),
        cm_hh_factory(g.clone(), 0.1, 0.05, 7, src),
        prefix_hh_factory(5, 0.2, back(), 0.1, |p| p.src_host() & 31),
        reservoir_factory(4, 7, src),
        pri_sample_factory(g.clone(), 4, 7, src),
        wrs_factory(g.clone(), 4, 7, src),
        with_replacement_factory(g.clone(), 4, 7, src),
        biased_reservoir_factory(0.05, 7, src),
        fwd_quantile_factory(g.clone(), 11, 0.05, vec![0.5, 0.99], len_u),
        distinct_factory(g.clone(), 0.2, 7, src),
    ]
}

/// `f` as a hand-written UDAF: a `make` closure, whose groups the engine
/// holds boxed.
fn as_udaf(f: &Arc<FnFactory>) -> Arc<FnFactory> {
    let inner = Arc::clone(f);
    FnFactory::new(f.name(), f.splittable(), move |start| inner.make(start))
}

fn agreement_query(aggregate: Arc<FnFactory>, two_level: bool) -> Query {
    Query::builder("agree")
        .group_by(|p| p.dst_host())
        .bucket_secs(5)
        .slack_secs(1.0)
        .aggregate(aggregate)
        .two_level(two_level)
        .lfta_slots(4)
        .try_build()
        .expect("valid query")
}

/// 600 tuples over a minute, nine groups, each tuple up to 2 s early or
/// late against a 1 s slack: buckets close mid-stream and some tuples
/// arrive after theirs has.
fn agreement_stream() -> Vec<Packet> {
    (0..600u64)
        .map(|i| Packet {
            ts: 10 * MICROS_PER_SEC + i * 100_000 + (i * 7919 % 41) * 100_000 - 2 * MICROS_PER_SEC,
            src_ip: if i % 4 == 0 { 3 } else { (i * 13 % 57) as u32 },
            ..pkt(0, (i * 5 % 9) as u32, 40 + (i * 97 % 1400) as u32)
        })
        .collect()
}

/// Rows as `(bucket start, key, every bit of the value)`.
type RowBits = Vec<(Micros, u64, Vec<u64>)>;

fn row_bits(rows: &[Row]) -> RowBits {
    rows.iter()
        .map(|r| (r.bucket_start, r.key, bits(&r.value)))
        .collect()
}

#[test]
fn by_value_and_boxed_groups_agree_in_rows_and_bytes() {
    let stream = agreement_stream();
    let (head, tail) = stream.split_at(stream.len() / 2);
    for spec in ["poly:2", "exp:0.05"] {
        let g: AnyDecay = spec.parse().expect("decay spec");
        for factory in by_value_factories(&g) {
            let udaf = as_udaf(&factory);
            for two_level in [true, false] {
                let what = format!("{} under {spec}, two_level {two_level}", factory.name());
                let by_value = || agreement_query(Arc::clone(&factory), two_level);
                let boxed = || agreement_query(Arc::clone(&udaf), two_level);
                let (mut a, mut b) = (Engine::new(by_value()), Engine::new(boxed()));
                for p in head {
                    a.process(p);
                    b.process(p);
                }
                assert!(a.stats().buckets_closed > 0 && a.stats().late_drops > 0);
                let blob = a.checkpoint().expect("checkpoint");
                assert!(
                    blob == b.checkpoint().expect("checkpoint"),
                    "{what}: mid-stream checkpoints differ"
                );
                assert_eq!(a.space_per_group(), b.space_per_group(), "{what}");
                // Each instantiation resumes from the other's bytes.
                let mut engines = [
                    a,
                    b,
                    Engine::restore(by_value(), &blob).expect("restore"),
                    Engine::restore(boxed(), &blob).expect("restore"),
                ];
                for e in &mut engines {
                    for p in tail {
                        e.process(p);
                    }
                }
                let blobs: Vec<Vec<u8>> = engines
                    .iter()
                    .map(|e| e.checkpoint().expect("checkpoint"))
                    .collect();
                let stats: Vec<EngineStats> = engines.iter().map(Engine::stats).collect();
                let rows: Vec<_> = engines.iter_mut().map(|e| row_bits(&e.finish())).collect();
                assert!(!rows[0].is_empty(), "{what}");
                for i in 1..engines.len() {
                    assert!(blobs[i] == blobs[0], "{what}: engine {i}'s checkpoint");
                    assert_eq!(stats[i], stats[0], "{what}: engine {i}'s counters");
                    assert_eq!(rows[i], rows[0], "{what}: engine {i}'s rows");
                }
            }
            let sharded = |f: &Arc<FnFactory>| {
                let mut s =
                    ShardedEngine::try_new(agreement_query(Arc::clone(f), true), 2).expect("spawn");
                s.try_process_packets(&stream).expect("feed");
                row_bits(&s.finish())
            };
            // Each shard's own LFTA releases partials in its own order, so
            // the rows are held to the other instantiation's, not to one
            // engine's.
            let rows = sharded(&factory);
            assert!(!rows.is_empty());
            assert_eq!(
                rows,
                sharded(&udaf),
                "{} under {spec}, sharded",
                factory.name()
            );
        }
    }
}

/// `n` tuples over a minute, each up to 2 s early or late against a 1 s
/// slack: a third of them on nine hot groups, the rest spread over ~2 000,
/// so a bucket holds both groups that merge many partials and more groups
/// than a small LFTA has slots.
fn batch_stream(n: u64) -> Vec<Packet> {
    let step = 60 * MICROS_PER_SEC / n;
    (0..n)
        .map(|i| Packet {
            ts: 10 * MICROS_PER_SEC + i * step + (i * 7919 % 41) * 100_000 - 2 * MICROS_PER_SEC,
            src_ip: if i % 4 == 0 { 3 } else { (i * 13 % 57) as u32 },
            ..pkt(
                0,
                if i % 3 == 0 {
                    (i % 9) as u32
                } else {
                    (i * 7919 % 2003) as u32
                },
                40 + (i * 97 % 1400) as u32,
            )
        })
        .collect()
}

/// What an engine has produced and holds so far: rows drained (bit for
/// bit), counters and checkpoint bytes.
fn observe(e: &mut Engine) -> (RowBits, EngineStats, Vec<u8>) {
    let rows = row_bits(&e.drain_rows());
    (rows, e.stats(), e.checkpoint().expect("checkpoint"))
}

/// Every by-value factory and its boxed twin, fed in chunks through
/// `process_packets` and tuple by tuple through `process`: after every
/// chunk the two engines have emitted the same rows, bit for bit, and hold
/// the same counters and checkpoint bytes. Chunks of 1 and 3 run over a
/// short stream; chunks of 64, 4 096 (`fdql`'s commit chunk, and the most
/// tuples one fold takes) and the whole trace over one longer than a fold
/// run. Most chunks straddle a bucket close, and many a late tuple.
fn a_batch_folds_as_its_tuples_one_at_a_time(two_level: bool, slots: usize) {
    let (short, long) = (batch_stream(300), batch_stream(5_000));
    let runs: [(&[Packet], usize); 5] = [
        (&short, 1),
        (&short, 3),
        (&long, 64),
        (&long, 4096),
        (&long, long.len()),
    ];
    let g: AnyDecay = "exp:0.05".parse().expect("decay spec");
    for factory in by_value_factories(&g) {
        for f in [Arc::clone(&factory), as_udaf(&factory)] {
            let query = || Query {
                lfta_slots: slots,
                ..agreement_query(Arc::clone(&f), two_level)
            };
            for &(stream, chunk) in &runs {
                let what = format!(
                    "{} (two_level {two_level}, {slots} slots), chunks of {chunk}",
                    f.name()
                );
                let (mut batched, mut single) = (Engine::new(query()), Engine::new(query()));
                for pkts in stream.chunks(chunk) {
                    batched.process_packets(pkts);
                    for p in pkts {
                        single.process(p);
                    }
                    let (a, b) = (observe(&mut batched), observe(&mut single));
                    assert_eq!(a.0, b.0, "{what}: rows");
                    assert_eq!(a.1, b.1, "{what}: counters");
                    assert!(a.2 == b.2, "{what}: checkpoint bytes");
                }
                let s = batched.stats();
                assert!(s.late_drops > 0 && s.buckets_closed > 1, "{what}");
                if batched.is_split() && slots == 4 {
                    assert!(s.lfta_evictions > 0, "{what}");
                }
                assert_eq!(row_bits(&batched.finish()), row_bits(&single.finish()));
            }
        }
    }
}

#[test]
fn a_batch_folds_as_its_tuples_one_at_a_time_through_4_lfta_slots() {
    a_batch_folds_as_its_tuples_one_at_a_time(true, 4);
}

#[test]
fn a_batch_folds_as_its_tuples_one_at_a_time_through_4096_lfta_slots() {
    a_batch_folds_as_its_tuples_one_at_a_time(true, 4096);
}

#[test]
fn a_batch_folds_as_its_tuples_one_at_a_time_unsplit() {
    a_batch_folds_as_its_tuples_one_at_a_time(false, 4096);
}

#[test]
fn a_sharded_worker_folds_its_batches_as_the_engine_folds_the_stream() {
    // Single-level, so each group's tuples meet its state in arrival order
    // in whichever shard owns it: the rows are the engine's bit for bit.
    let stream = batch_stream(5_000);
    let g: AnyDecay = "poly:2".parse().expect("decay spec");
    for factory in by_value_factories(&g) {
        for f in [Arc::clone(&factory), as_udaf(&factory)] {
            let query = || agreement_query(Arc::clone(&f), false);
            let want = row_bits(&Engine::new(query()).run(stream.iter().copied()));
            let mut sharded = ShardedEngine::try_new(query(), 2).expect("spawn");
            sharded.try_process_packets(&stream).expect("feed");
            assert!(!want.is_empty());
            assert_eq!(row_bits(&sharded.finish()), want, "{}", f.name());
        }
    }
}

/// A rate whose bucket outlives its renormalization horizon: α = 100/s
/// over 5 s buckets is α·width = 500, past ln 1e150 ≈ 345, so a bucket's
/// clock moves once its tuples pass 3.45 s into it — and moves every cell
/// of the bucket with it: its groups, LFTA residents and partials.
const RESCALING: &str = "exp:100";

fn rescaling_query(aggregate: Arc<FnFactory>, two_level: bool) -> Query {
    Query::builder("rescaling")
        .group_by(|p| p.dst_host())
        .bucket_secs(5)
        .slack_secs(1.0)
        .aggregate(aggregate)
        .two_level(two_level)
        .lfta_slots(4)
        .try_build()
        .expect("valid query")
}

/// 1 500 tuples over 30 s on nine groups, each up to 0.4 s early or late
/// against a 1 s slack: no tuple is dropped, so every row has a reference.
fn rescaling_stream() -> Vec<Packet> {
    (0..1_500u64)
        .map(|i| Packet {
            ts: MICROS_PER_SEC + i * 20_000 + (i * 7919 % 9) * 100_000 - 400_000,
            ..pkt(0, (i * 5 % 9) as u32, 40 + (i * 97 % 1400) as u32)
        })
        .collect()
}

/// Each row's decayed sum recomputed from scratch over the tuples of its
/// bucket and group (`fd_core::oracle`).
fn oracle_sums(g: &AnyDecay, stream: &[Packet]) -> Vec<Row> {
    let width = 5 * MICROS_PER_SEC;
    let mut groups: std::collections::BTreeMap<(Micros, u64), Oracle<AnyDecay>> =
        Default::default();
    for p in stream {
        let start = p.ts / width * width;
        (groups.entry((start, p.dst_host())))
            .or_insert_with(|| Oracle::new(g.clone(), secs(start)))
            .push(OracleEvent::new(secs(p.ts), p.len as f64, 0));
    }
    (groups.into_iter())
        .map(|((bucket_start, key), o)| Row {
            bucket_start,
            key,
            value: AggValue::Float(o.sum(secs(bucket_start + width))),
        })
        .collect()
}

/// `rows` against the reference within the oracle harness's budget for
/// the O(1) aggregates: 1e-6 relative (every length is positive, so the
/// sum is its own cancellation-free scale).
fn assert_within_budget(mut rows: Vec<Row>, want: &[Row], what: &str) {
    rows.sort_by_key(|r| (r.bucket_start, r.key));
    assert_eq!(rows.len(), want.len(), "{what}: row count");
    for (got, want) in rows.iter().zip(want) {
        assert_eq!((got.bucket_start, got.key), (want.bucket_start, want.key));
        let (x, y) = (
            got.value.as_float().unwrap(),
            want.value.as_float().unwrap(),
        );
        assert!(
            x.is_finite() && (x - y).abs() <= 1e-6 * y,
            "{what}: bucket {} key {}: {x} vs {y}",
            got.bucket_start,
            got.key
        );
    }
}

/// `stream`'s `fwd_sum` rows through a single engine (batched and per
/// tuple), a sharded one and one restored from a checkpoint taken after
/// `head` tuples, split and unsplit: each within budget of the oracle's.
fn assert_every_path_within_budget(g: &AnyDecay, stream: &[Packet], head: usize) {
    let want = oracle_sums(g, stream);
    let factory = fwd_sum_factory(g.clone(), |p| p.len as f64);
    let (head, tail) = stream.split_at(head);
    for two_level in [true, false] {
        let query = || rescaling_query(Arc::clone(&factory), two_level);
        let what = |path| format!("{path}, two_level {two_level}");
        let mut single = Engine::new(query());
        single.process_packets(stream);
        assert_eq!(single.stats().late_drops, 0);
        assert_within_budget(single.finish(), &want, &what("single"));
        let mut per_tuple = Engine::new(query());
        stream.iter().for_each(|p| per_tuple.process(p));
        assert_within_budget(per_tuple.finish(), &want, &what("per tuple"));
        let mut sharded = ShardedEngine::try_new(query(), 2).expect("spawn");
        sharded.try_process_packets(stream).expect("feed");
        assert_within_budget(sharded.finish(), &want, &what("sharded"));
        let mut before = Engine::new(query());
        before.process_packets(head);
        let blob = before.checkpoint().expect("checkpoint");
        let mut restored = Engine::restore(query(), &blob).expect("restore");
        assert!(restored.checkpoint().expect("checkpoint") == blob);
        restored.process_packets(tail);
        assert_within_budget(restored.finish(), &want, &what("restored"));
    }
}

/// How many times `g`'s clock moves over the first 5 s bucket of `stream`.
fn moves_in_first_bucket(g: &AnyDecay, stream: &[Packet]) -> u64 {
    let mut probe = DecayedCount::new(g.clone(), 0.0);
    (stream.iter().take_while(|p| p.ts < 5 * MICROS_PER_SEC))
        .for_each(|p| probe.update(secs(p.ts)));
    Summary::stats(&probe).renormalizations
}

#[test]
fn a_clock_that_moves_inside_a_bucket_moves_all_of_its_cells() {
    let g: AnyDecay = RESCALING.parse().expect("decay spec");
    let stream = rescaling_stream();
    assert!(
        moves_in_first_bucket(&g, &stream) > 0,
        "{RESCALING} must rescale in a bucket"
    );
    assert_every_path_within_budget(&g, &stream, stream.len() / 2 + 17);
}

#[test]
fn a_group_that_misses_many_moves_takes_them_when_reached() {
    // exp:2000 moves a bucket's clock every ln 1e150 / 2000 ≈ 0.17 s.
    // Groups 0–2 fall quiet from 1 s to 4.5 s into each 5 s bucket and miss
    // some twenty moves — more than a bucket keeps the factors of — before
    // their next tuple: what they held underflows to zero, as the oracle's
    // weights do. The checkpoint is taken 2.5 s into the second bucket,
    // while they lag, so it writes lagging cells too.
    let g: AnyDecay = "exp:2000".parse().expect("decay spec");
    let quiet = |p: &Packet| {
        let into = p.ts % (5 * MICROS_PER_SEC);
        p.dst_ip < 3 && (MICROS_PER_SEC..4_500_000).contains(&into)
    };
    let stream: Vec<Packet> = (0..3_000u64)
        .map(|i| pkt(i * 5_000, (i % 9) as u32, 40 + (i * 97 % 1400) as u32))
        .filter(|p| !quiet(p))
        .collect();
    assert!(moves_in_first_bucket(&g, &stream) > 20);
    let head = (stream.iter().position(|p| p.ts >= 7_500_000)).expect("a second bucket");
    assert_every_path_within_budget(&g, &stream, head);
}

#[test]
fn a_bucket_restored_from_cells_under_different_landmarks_is_aligned() {
    // Held boxed, each group keeps its own clock, as the parent commit held
    // every group: in bucket [0, 5 s) group 1 sees tuples at 0.5 s and 1 s
    // only (its landmark stays 0), group 2 one at 4 s too (α·4 = 400: its
    // landmark moves to 4 s). The image carries both landmarks in one
    // bucket; the by-value store takes it onto one clock.
    let g: AnyDecay = RESCALING.parse().expect("decay spec");
    let at = |s: f64, host: u32| pkt((s * MICROS_PER_SEC as f64) as Micros, host, 100 + host);
    let head = [at(0.5, 1), at(1.0, 1), at(1.0, 2), at(4.0, 2), at(4.2, 3)];
    let tail = [at(4.5, 1), at(4.6, 2), at(4.9, 3), at(6.0, 1), at(9.0, 2)];
    let stream: Vec<Packet> = head.iter().chain(&tail).copied().collect();
    let want = oracle_sums(&g, &stream);
    let by_value = fwd_sum_factory(g, |p| p.len as f64);
    let boxed = as_udaf(&by_value);
    for two_level in [true, false] {
        let what = format!("two_level {two_level}");
        let mut parent = Engine::new(rescaling_query(Arc::clone(&boxed), two_level));
        parent.process_packets(&head);
        let image = parent.checkpoint().expect("checkpoint");
        let mut aligned =
            Engine::restore(rescaling_query(Arc::clone(&by_value), two_level), &image)
                .expect("cells under different landmarks are aligned, not refused");
        assert!(
            aligned.checkpoint().expect("checkpoint") != image,
            "{what}: the group still under landmark 0 is written under the bucket's"
        );
        parent.process_packets(&tail);
        aligned.process_packets(&tail);
        let rows = aligned.finish();
        assert_within_budget(parent.finish(), &want, &format!("{what}, boxed"));
        assert_within_budget(rows, &want, &format!("{what}, aligned"));
    }
}
