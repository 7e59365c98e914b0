//! Every ready-made aggregate factory, pinned: the bytes `checkpoint_into`
//! writes and the bits `emit` answers — after one fixed out-of-order
//! stream, and after `merge_boxed` of its two halves — must equal what the
//! commit before the one-adapter refactor produced.
//!
//! `data/aggregator_states.hex` is what [`table`] of this file returned at
//! that commit (857f0e0). One line per (factory, decay, stage):
//! `name stage state emit`, where `state` is the checkpoint in hex, or
//! `~len` for a summary whose bytes follow a `HashMap`'s iteration order
//! and so differ from one instance to the next — for those the length, the
//! answer, and the answer of a restored copy are what is held. Its state
//! is `-` where the aggregate declined to checkpoint then (the five
//! samplers): there the name, the stage and the answer must still match,
//! and the bytes the samplers have written since they checkpoint are
//! pinned, line for line, in `data/aggregator_sampler_states.hex`.

use std::any::Any;
use std::sync::Arc;

use forward_decay::core::decay::{AnyDecay, BackExponential};
use forward_decay::core::Error;
use forward_decay::engine::durability::DurabilityOptions;
use forward_decay::engine::prelude::*;
use forward_decay::engine::udaf::FnFactory;

const BUCKET_START: Micros = 60 * MICROS_PER_SEC;
const T_END: f64 = 120.0;

/// 256 tuples inside the bucket `[60 s, 120 s)`, out of order (a stride
/// permutation of the arrival index plus a sub-second jitter), hosts
/// skewed so the heavy-hitter summaries have something to find.
fn stream() -> Vec<Packet> {
    (0..256u64)
        .map(|i| {
            let slot = i * 37 % 256;
            let host = if i % 3 == 0 { 7 } else { (i * 11 % 29) as u32 };
            Packet {
                ts: BUCKET_START + slot * 230_000 + (i * 7 % 5) * 1_000,
                src_ip: (i * 13 % 101) as u32,
                dst_ip: host,
                src_port: 1024 + (i % 7) as u16,
                dst_port: 80,
                len: 40 + (i * 97 % 1400) as u32,
                proto: Proto::Tcp,
            }
        })
        .collect()
}

struct Case {
    name: String,
    factory: Arc<FnFactory>,
    /// Whether two instances fed the same stream serialize to the same
    /// bytes (false: a `HashMap` inside decides the order).
    canonical: bool,
}

fn cases() -> Vec<Case> {
    let len = |p: &Packet| p.len as f64;
    let len_u = |p: &Packet| p.len as u64;
    let host = |p: &Packet| p.dst_host();
    let back = || DynBackward::from_decay(BackExponential::new(0.05));
    let mut out = Vec::new();
    let mut case = |name: &str, factory: Arc<FnFactory>, canonical: bool| {
        out.push(Case {
            name: name.to_string(),
            factory,
            canonical,
        })
    };
    case("count", count_factory(), true);
    case("sum", sum_factory(len), true);
    case("eh_count", eh_count_factory(0.1, back()), true);
    case("eh_sum", eh_sum_factory(0.1, back(), len_u), true);
    case("unary_hh", unary_hh_factory(0.05, 0.1, host), false);
    case("sw_hh", sw_hh_factory(5.0, 3, back(), 0.1, host), false);
    case(
        "prefix_hh",
        prefix_hh_factory(5, 0.2, back(), 0.1, |p| p.dst_host() & 31),
        false,
    );
    case("reservoir", reservoir_factory(8, 7, host), true);
    case("aggarwal", biased_reservoir_factory(0.05, 7, host), true);
    for spec in ["poly:2", "exp:0.05"] {
        let g = || spec.parse::<AnyDecay>().expect("decay spec");
        let mut decayed = |name: &str, factory: Arc<FnFactory>, canonical: bool| {
            case(&format!("{name}/{spec}"), factory, canonical)
        };
        decayed("fwd_count", fwd_count_factory(g()), true);
        decayed("fwd_sum", fwd_sum_factory(g(), len), true);
        decayed("fwd_avg", fwd_avg_factory(g(), len), true);
        decayed("fwd_var", fwd_var_factory(g(), len), true);
        decayed("fwd_max", fwd_max_factory(g(), len), true);
        decayed("fwd_min", fwd_min_factory(g(), len), true);
        decayed("fwd_hh", fwd_hh_factory(g(), 0.05, 0.1, host), false);
        decayed("cm_hh", cm_hh_factory(g(), 0.1, 0.05, 7, host), false);
        decayed("prisamp", pri_sample_factory(g(), 8, 7, host), true);
        decayed("wrs", wrs_factory(g(), 8, 7, host), true);
        decayed("swr", with_replacement_factory(g(), 8, 7, host), true);
        decayed(
            "fwd_quantiles",
            fwd_quantile_factory(g(), 11, 0.05, vec![0.5, 0.95, 0.99], len_u),
            true,
        );
        decayed("fwd_distinct", distinct_factory(g(), 0.2, 7, host), false);
        decayed(
            "multi",
            multi_factory(vec![
                count_factory(),
                sum_factory(len),
                fwd_avg_factory(g(), len),
                fwd_quantile_factory(g(), 11, 0.05, vec![0.5], len_u),
            ]),
            true,
        );
    }
    out
}

/// An [`AggValue`] with every float spelled by its bits.
fn show(v: &AggValue) -> String {
    match v {
        AggValue::Float(x) => format!("f:{:016x}", x.to_bits()),
        AggValue::Items(items) => {
            let items: Vec<String> = items
                .iter()
                .map(|iv| format!("{}:{:016x}", iv.item, iv.value.to_bits()))
                .collect();
            format!("i:[{}]", items.join(","))
        }
        AggValue::Multi(parts) => {
            let parts: Vec<String> = parts.iter().map(show).collect();
            format!("m:({})", parts.join(";"))
        }
    }
}

fn state_bytes(agg: &dyn Aggregator) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    agg.checkpoint_into(&mut out).map(|()| out)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The aggregate after the whole stream, and after its even half absorbed
/// its odd half.
fn stages(factory: &FnFactory) -> [(&'static str, Box<dyn Aggregator>); 2] {
    let mut whole = factory.make(BUCKET_START);
    let mut even = factory.make(BUCKET_START);
    let mut odd = factory.make(BUCKET_START);
    for (i, p) in stream().iter().enumerate() {
        whole.update(p);
        if i % 2 == 0 { &mut even } else { &mut odd }.update(p);
    }
    even.merge_boxed(odd);
    [("stream", whole), ("merged", even)]
}

fn table() -> String {
    let mut out = String::new();
    for case in cases() {
        for (stage, agg) in stages(&case.factory) {
            let state = match state_bytes(agg.as_ref()) {
                None => "-".to_string(),
                Some(bytes) if case.canonical => hex(&bytes),
                Some(bytes) => format!("~{}", bytes.len()),
            };
            out.push_str(&format!(
                "{} {stage} {state} {}\n",
                case.name,
                show(&agg.emit(T_END))
            ));
        }
    }
    out
}

#[test]
fn states_and_answers_are_the_parent_commits() {
    let now = table();
    let pinned = include_str!("data/aggregator_states.hex");
    assert_eq!(pinned.lines().count(), now.lines().count());
    let mut samplers = Vec::new();
    for (want, got) in pinned.lines().zip(now.lines()) {
        // Compare by line so a failure names the factory, not 40 kB of hex.
        let (w, g): (Vec<&str>, Vec<&str>) = (want.split(' ').collect(), got.split(' ').collect());
        if w[2] == "-" {
            // Declined then: the answer is the parent's, the bytes new.
            assert!(
                (w[0], w[1], w[3]) == (g[0], g[1], g[3]),
                "answers differently from the parent commit:\n  {want}\n  {got}"
            );
            samplers.push(got);
        } else {
            assert!(
                want == got,
                "differs from the parent commit:\n  {want}\n  {got}"
            );
        }
    }
    let pinned = include_str!("data/aggregator_sampler_states.hex");
    assert_eq!(pinned.lines().count(), samplers.len());
    for (want, got) in pinned.lines().zip(samplers) {
        assert!(want == got, "a sampler's bytes moved:\n  {want}\n  {got}");
    }
}

#[test]
fn restore_of_a_checkpoint_is_a_fixed_point() {
    for case in cases() {
        for (stage, agg) in stages(&case.factory) {
            let what = format!("{} {stage}", case.name);
            let restore = |bytes: &[u8]| {
                let mut fresh = case.factory.make(BUCKET_START);
                fresh.restore(bytes).expect(&what);
                fresh
            };
            let written = state_bytes(agg.as_ref()).expect(&what);
            let mut restored = restore(&written);
            assert_eq!(
                show(&restored.emit(T_END)),
                show(&agg.emit(T_END)),
                "{what}"
            );
            // The first restore may fold what the writer had only buffered
            // (a q-digest's pending arrivals); from there on the bytes hold.
            let once = state_bytes(restored.as_ref()).expect(&what);
            let twice = state_bytes(restore(&once).as_ref()).expect(&what);
            if case.canonical {
                assert!(twice == once, "{what}: re-serializes differently");
            } else {
                assert_eq!(
                    (once.len(), twice.len()),
                    (written.len(), written.len()),
                    "{what}"
                );
            }
            // A restored copy keeps folding like the original.
            let mut original = agg;
            for p in stream().iter().take(16) {
                original.update(p);
                restored.update(p);
            }
            assert_eq!(
                show(&restored.emit(T_END)),
                show(&original.emit(T_END)),
                "{what}"
            );
        }
    }
}

#[test]
fn size_probes_are_the_papers_constants() {
    // "Undecayed methods store 4 byte integers, forward decay stores 8 byte
    // floating point values"; an average is two of those, variance and
    // extrema three. The samplers report their capacity.
    let all = cases();
    let size = |name: &str| {
        let case = all.iter().find(|c| c.name == name).expect(name);
        let (_, agg) = &stages(&case.factory)[0];
        agg.size_bytes()
    };
    for (name, bytes) in [
        ("count", 4),
        ("sum", 4),
        ("fwd_count/poly:2", 8),
        ("fwd_sum/exp:0.05", 8),
        ("fwd_avg/poly:2", 16),
        ("fwd_var/poly:2", 24),
        ("fwd_max/exp:0.05", 24),
        ("fwd_min/poly:2", 24),
        ("reservoir", 8 * 8 + 32),
        ("prisamp/poly:2", 8 * 32 + 64),
        ("wrs/exp:0.05", 8 * 32 + 64),
        ("swr/poly:2", 8 * 16 + 48),
    ] {
        assert_eq!(size(name), bytes, "{name}");
    }
    // A composite is the sum of its parts (its digest is the stand-alone
    // one: same stream, same ε).
    assert_eq!(
        size("multi/poly:2"),
        4 + 4 + 16 + size("fwd_quantiles/poly:2")
    );
}

/// A hand-written count that keeps [`Aggregator::checkpoint_into`]'s
/// declining default.
#[derive(Default)]
struct Declining(u64);

impl Aggregator for Declining {
    fn update(&mut self, _: &Packet) {
        self.0 += 1;
    }
    fn merge_boxed(&mut self, other: Box<dyn Aggregator>) {
        self.0 += other
            .as_any_box()
            .downcast::<Declining>()
            .expect("a count")
            .0;
    }
    fn emit(&self, _t: f64) -> AggValue {
        AggValue::Float(self.0 as f64)
    }
    fn size_bytes(&self) -> usize {
        8
    }
    fn as_any_box(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[test]
fn a_hand_written_udaf_may_decline_to_checkpoint() {
    let udaf = || FnFactory::new("udaf", true, |_| Box::new(Declining::default()));
    let alone = udaf();
    let combo = multi_factory(vec![count_factory(), udaf()]);
    for factory in [alone, combo] {
        let name = factory.name().to_string();
        let mut agg = factory.make(BUCKET_START);
        agg.update(&stream()[0]);
        assert!(state_bytes(agg.as_ref()).is_none(), "{name}");
        let query = || {
            Query::builder("declining")
                .group_by(|p| p.dst_host())
                .bucket_secs(60)
                .aggregate(factory.clone())
                .try_build()
                .expect("valid query")
        };
        // A store persists checkpoints: it refuses the aggregate by name.
        let dir = std::env::temp_dir().join(format!("fd-declining-{}-{name}", std::process::id()));
        let refused = ShardedEngine::try_new(query(), 2)
            .expect("spawn shards")
            .try_durable(&dir, DurabilityOptions::default())
            .err();
        assert!(
            matches!(&refused, Some(Error::Durability { detail }) if detail.contains(&name)),
            "{name}: {refused:?}"
        );
        assert!(!dir.exists(), "{name}: a refused store is never opened");
        // Without one, the query runs unsupervised and answers as one engine.
        let mut e = ShardedEngine::try_new(query(), 2).expect("spawn shards");
        let rows = e.run(stream());
        let want = Engine::new(query()).run(stream());
        assert_eq!(format!("{rows:?}"), format!("{want:?}"), "{name}");
        assert_eq!(e.telemetry().snapshot().checkpoints, 0, "{name}");
    }
}

#[test]
fn merging_across_factories_panics_with_the_type_mismatch() {
    let all = cases();
    let message = |a: &Case, b: &Case| {
        let (mut mine, theirs) = (a.factory.make(BUCKET_START), b.factory.make(BUCKET_START));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            mine.merge_boxed(theirs)
        }));
        let payload = caught.expect_err("a cross-type merge must panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    };
    let by_name = |name: &str| {
        all.iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("no case {name}"))
    };
    for (a, b) in [
        ("count", "sum"),
        ("sum", "fwd_sum/poly:2"),
        ("fwd_sum/poly:2", "fwd_avg/poly:2"),
        ("fwd_hh/poly:2", "unary_hh"),
        ("reservoir", "aggarwal"),
        ("multi/poly:2", "count"),
        ("fwd_quantiles/exp:0.05", "fwd_distinct/exp:0.05"),
    ] {
        let msg = message(by_name(a), by_name(b));
        assert!(
            msg.contains("aggregator type mismatch"),
            "{a} <- {b}: {msg:?}"
        );
    }
}

#[test]
fn fwd_avg_and_fwd_var_rows_are_the_core_summaries_bits() {
    // One group of a single-level query: its landmark is the bucket start
    // and its row is read at the bucket end, so each arrival weighs
    // `g(a) / g(W)`. The row is what the core's own states, `Mean` and
    // `Moments`, answer when fed those weights and read at a denominator
    // of 1 — under `exp:10` down to e^−600.
    use forward_decay::core::aggregates::{Mean, Moments};
    use forward_decay::core::decay::ForwardDecay;
    use forward_decay::core::decayed::Weighted;
    let len = |p: &Packet| p.len as f64;
    let landmark = forward_decay::core::Timestamp::from_micros(BUCKET_START as i64);
    for spec in ["poly:2", "exp:10"] {
        let g: AnyDecay = spec.parse().expect("decay spec");
        let (mut avg, mut var) = (Mean::new(landmark), Moments::new(landmark));
        for p in stream() {
            let w = g.relative_weight(p.ts - BUCKET_START, 60 * MICROS_PER_SEC);
            avg.add(p.timestamp(), len(&p), w);
            var.add(p.timestamp(), len(&p), w);
        }
        for (factory, want) in [
            (fwd_avg_factory(g.clone(), len), avg.over(1.0)),
            (fwd_var_factory(g.clone(), len), var.over(1.0)),
        ] {
            let name = factory.name().to_string();
            let query = Query::builder("one group")
                .group_by(|_| 0)
                .bucket_secs(60)
                .aggregate(factory)
                .two_level(false)
                .try_build()
                .expect("valid query");
            let rows = Engine::new(query).run(stream());
            let [Row {
                bucket_start,
                value: AggValue::Float(got),
                ..
            }] = rows[..]
            else {
                panic!("{name}/{spec}: one row, a float: {rows:?}");
            };
            assert_eq!(bucket_start, BUCKET_START, "{name}/{spec}");
            let want = want.expect("weight");
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{name}/{spec}: {got} vs {want}"
            );
        }
    }
}
