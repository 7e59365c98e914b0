//! What the engine's group store rests on, and what it must not change:
//! a first partial may stand in for `make` + `merge`, checkpoint bytes are
//! the parent format's, and bucket arithmetic survives the top of the clock.

use std::sync::Arc;

use forward_decay::core::aggregates::DecayedCount;
use forward_decay::core::decay::{AnyDecay, Monomial};
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
        .build()
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
            .build()
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
        .build();
    let rows = Engine::new(decayed).run(stream.clone());
    let mut at_top = DecayedCount::new(g, secs(u64::MAX / WIDTH * WIDTH));
    for p in &stream {
        at_top.update(p.timestamp());
    }
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].value.as_float(), Some(at_top.query(secs(u64::MAX))));
}
