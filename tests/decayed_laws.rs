//! Forward decay is one clock around a weighted summary, so its behaviour
//! is stated here once and held for every summary it wraps.
//!
//! **Pinned.** `data/core_decayed_states.hex` is what [`table`] of this file
//! returned at the commit before the six hand-written wrappers became
//! `Decayed<G, S>` (8db3299): for count / sum / min / max / heavy hitters /
//! quantiles / count-min heavy hitters × `{poly:2, exp:0.5}`, the
//! `checkpoint::to_bytes` image and the query bits after a scalar feed, a
//! batched feed, and `merge_from` of two halves in both orders — halves
//! split by time (one never renormalized, the other did: the effective
//! landmarks differ) and by parity (both renormalized, to different
//! landmarks). The exponential stream crosses two gaps of 850 s, each wider
//! than `ln 1e150 / α ≈ 691 s`, so every arrival prologue rescales and every
//! merge aligns landmarks. A summary whose bytes follow a `HashMap`'s
//! iteration order (SpaceSaving's index, the count-min candidates) differs
//! from one instance to the next: its image is held by length (`~len`) and
//! its state by answers that read every counter.

use forward_decay::core::aggregates::{DecayedCount, DecayedExtremum, DecayedSum};
use forward_decay::core::checkpoint::{from_bytes, to_bytes, Decode, Encode};
use forward_decay::core::cm::DecayedCmHeavyHitters;
use forward_decay::core::decay::AnyDecay;
use forward_decay::core::heavy_hitters::DecayedHeavyHitters;
use forward_decay::core::merge::Mergeable;
use forward_decay::core::quantiles::DecayedQuantiles;
use forward_decay::core::Timestamp;

const LANDMARK: f64 = 10.0;
const T_END: f64 = 2600.0;
const SPECS: [&str; 2] = ["poly:2", "exp:0.5"];
const BURST: u64 = 96;
const BATCH: usize = 50;

#[derive(Clone, Copy)]
struct Event {
    t: Timestamp,
    key: u64,
    val: u64,
}

impl Event {
    /// The value as a signed measurement (sums cancel, minima go negative).
    fn v(&self) -> f64 {
        self.val as f64 - 700.0
    }
}

/// Three bursts of 96 arrivals, 850 s apart, each a stride permutation of
/// its slots (out of order); every 17th arrival of a later burst is a
/// straggler from the burst before (it lands *behind* a landmark that has
/// already moved), every 29th precedes the landmark and is clamped. Keys are
/// skewed so the heavy-hitter summaries have something to find.
fn stream() -> Vec<Event> {
    (0..3 * BURST)
        .map(|i| {
            let burst = i / BURST;
            let slot = i * 37 % BURST;
            let mut t =
                12.0 + burst as f64 * 850.0 + slot as f64 * 0.61 + (i * 7 % 5) as f64 * 0.013;
            if burst > 0 && i % 17 == 3 {
                t -= 850.0;
            }
            if i % 29 == 5 {
                t = 4.0 + (i % 5) as f64;
            }
            Event {
                t: t.into(),
                key: if i % 3 == 0 { 7 } else { i * 11 % 29 },
                val: 40 + i * 97 % 1400,
            }
        })
        .collect()
}

fn decay(spec: &str) -> AnyDecay {
    spec.parse().expect("decay spec")
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// One decayed summary as this file drives it: how to build, feed and ask.
struct Case<S> {
    name: &'static str,
    make: fn(AnyDecay) -> S,
    feed: fn(&mut S, &Event),
    feed_batch: fn(&mut S, &[Timestamp], &[Event]),
    answer: fn(&S) -> String,
    /// Whether two instances fed the same stream serialize to the same
    /// bytes (false: a `HashMap` inside decides the order).
    canonical: bool,
}

fn image<S: Encode>(s: &S, canonical: bool) -> String {
    let bytes = to_bytes(s);
    if canonical {
        hex(&bytes)
    } else {
        format!("~{}", bytes.len())
    }
}

/// The six states of a case under one decay: scalar feed, batched feed, and
/// the four merges.
fn stages<S: Mergeable>(case: &Case<S>, spec: &str) -> Vec<(&'static str, S)> {
    let events = stream();
    let fed = |pick: &dyn Fn(usize) -> bool| {
        let mut s = (case.make)(decay(spec));
        for (_, e) in events.iter().enumerate().filter(|(i, _)| pick(*i)) {
            (case.feed)(&mut s, e);
        }
        s
    };
    let mut batched = (case.make)(decay(spec));
    for chunk in events.chunks(BATCH) {
        let ts: Vec<Timestamp> = chunk.iter().map(|e| e.t).collect();
        (case.feed_batch)(&mut batched, &ts, chunk);
    }
    let merged = |mut a: S, b: S| {
        a.merge_from(&b);
        a
    };
    let early = |i: usize| i < BURST as usize;
    let late = |i: usize| i >= BURST as usize;
    let even = |i: usize| i.is_multiple_of(2);
    let odd = |i: usize| !i.is_multiple_of(2);
    vec![
        ("scalar", fed(&|_| true)),
        ("batch", batched),
        ("time_ab", merged(fed(&early), fed(&late))),
        ("time_ba", merged(fed(&late), fed(&early))),
        ("parity_ab", merged(fed(&even), fed(&odd))),
        ("parity_ba", merged(fed(&odd), fed(&even))),
    ]
}

fn rows<S: Mergeable + Encode>(case: &Case<S>, out: &mut String) {
    for spec in SPECS {
        for (stage, s) in stages(case, spec) {
            out.push_str(&format!(
                "{}/{spec} {stage} {} {}\n",
                case.name,
                image(&s, case.canonical),
                (case.answer)(&s)
            ));
        }
    }
}

fn extremum_answer(s: &DecayedExtremum<AnyDecay>) -> String {
    match s.query(T_END) {
        None => "none".to_string(),
        Some((x, t, v)) => format!("{}@{}:{}", bits(x), t.as_micros(), bits(v)),
    }
}

fn extremum_case(
    name: &'static str,
    make: fn(AnyDecay) -> DecayedExtremum<AnyDecay>,
) -> Case<DecayedExtremum<AnyDecay>> {
    Case {
        name,
        make,
        feed: |s, e| s.update(e.t, e.v()),
        feed_batch: |s, _, es| es.iter().for_each(|e| s.update(e.t, e.v())),
        answer: extremum_answer,
        canonical: true,
    }
}

fn count_case() -> Case<DecayedCount<AnyDecay>> {
    Case {
        name: "count",
        make: |g| DecayedCount::new(g, LANDMARK),
        feed: |s, e| s.update(e.t),
        feed_batch: |s, ts, _| s.update_batch(ts),
        answer: |s| bits(s.query(T_END)),
        canonical: true,
    }
}

fn sum_case() -> Case<DecayedSum<AnyDecay>> {
    Case {
        name: "sum",
        make: |g| DecayedSum::new(g, LANDMARK),
        feed: |s, e| s.update(e.t, e.v()),
        feed_batch: |s, ts, es| {
            let vs: Vec<f64> = es.iter().map(Event::v).collect();
            s.update_batch(ts, &vs)
        },
        answer: |s| bits(s.query(T_END)),
        canonical: true,
    }
}

fn hh_case() -> Case<DecayedHeavyHitters<AnyDecay>> {
    Case {
        name: "hh",
        // One counter per key and to spare: which keys a full summary keeps
        // through a merge of tied counts is the `HashMap`'s choice.
        make: |g| DecayedHeavyHitters::new(g, LANDMARK, 32),
        feed: |s, e| s.update(e.t, e.key),
        feed_batch: |s, ts, es| {
            let keys: Vec<u64> = es.iter().map(|e| e.key).collect();
            s.update_batch(ts, &keys)
        },
        answer: |s| {
            let mut hot = s.heavy_hitters(0.1, T_END);
            hot.sort_by(|a, b| b.count.total_cmp(&a.count).then(a.item.cmp(&b.item)));
            let hot: Vec<String> = hot
                .iter()
                .map(|h| format!("{}:{}:{}", h.item, bits(h.count), h.guaranteed))
                .collect();
            let counters: Vec<String> = (0..29)
                .filter_map(|key| s.estimate(key, T_END))
                .map(|c| format!("{}:{}:{}", c.item, bits(c.count), bits(c.error)))
                .collect();
            format!(
                "{}[{}][{}]",
                bits(s.decayed_count(T_END)),
                hot.join(","),
                counters.join(",")
            )
        },
        canonical: false,
    }
}

fn quantile_case() -> Case<DecayedQuantiles<AnyDecay>> {
    Case {
        name: "quantiles",
        make: |g| DecayedQuantiles::new(g, LANDMARK, 11, 0.05),
        feed: |s, e| s.update(e.t, e.val),
        feed_batch: |s, ts, es| {
            let vals: Vec<u64> = es.iter().map(|e| e.val).collect();
            s.update_batch(ts, &vals)
        },
        answer: |s| {
            format!(
                "{}{:?}{}:{:?}",
                bits(s.decayed_count(T_END)),
                s.quantiles(&[0.5, 0.9, 0.99], T_END),
                bits(s.rank(700, T_END)),
                s.quantile(0.25, T_END)
            )
        },
        canonical: true,
    }
}

fn cm_case() -> Case<DecayedCmHeavyHitters<AnyDecay>> {
    Case {
        name: "cm_hh",
        make: |g| DecayedCmHeavyHitters::new(g, LANDMARK, 0.1, 0.05, 0.05, 7),
        feed: |s, e| s.update(e.t, e.key),
        // Pinned from a commit where only the scalar feed existed.
        feed_batch: |s, _, es| es.iter().for_each(|e| s.update(e.t, e.key)),
        answer: |s| {
            let mut hot = s.heavy_hitters(T_END);
            hot.sort_by(|a, b| b.count.total_cmp(&a.count).then(a.item.cmp(&b.item)));
            let hot: Vec<String> = hot
                .iter()
                .map(|h| format!("{}:{}", h.item, bits(h.count)))
                .collect();
            let estimates: Vec<String> = (0..29).map(|key| bits(s.estimate(key, T_END))).collect();
            format!(
                "{}[{}][{}]",
                bits(s.decayed_count(T_END)),
                hot.join(","),
                estimates.join(",")
            )
        },
        canonical: false,
    }
}

fn table() -> String {
    let mut out = String::new();
    rows(&count_case(), &mut out);
    rows(&sum_case(), &mut out);
    rows(
        &extremum_case("min", |g| DecayedExtremum::min(g, LANDMARK)),
        &mut out,
    );
    rows(
        &extremum_case("max", |g| DecayedExtremum::max(g, LANDMARK)),
        &mut out,
    );
    rows(&hh_case(), &mut out);
    rows(&quantile_case(), &mut out);
    rows(&cm_case(), &mut out);
    out
}

#[test]
fn states_and_answers_are_the_parent_commits() {
    let now = table();
    let pinned = include_str!("data/core_decayed_states.hex");
    assert_eq!(pinned.lines().count(), now.lines().count());
    for (want, got) in pinned.lines().zip(now.lines()) {
        // Compare by line so a failure names the summary, not 30 kB of hex.
        assert!(
            want == got,
            "differs from the parent commit:\n  {want}\n  {got}"
        );
    }
}

/// `from_bytes ∘ to_bytes` is a fixed point and answers like the original.
fn restores<S: Mergeable + Encode + Decode>(case: &Case<S>) {
    for spec in SPECS {
        for (stage, s) in stages(case, spec) {
            let what = format!("{}/{spec} {stage}", case.name);
            let restore = |bytes: &[u8]| from_bytes::<S>(bytes).expect(&what);
            let restored = restore(&to_bytes(&s));
            assert_eq!((case.answer)(&restored), (case.answer)(&s), "{what}");
            // The first restore may fold what the writer had only buffered
            // (a q-digest's pending arrivals); from there on the bytes hold.
            let once = to_bytes(&restored);
            let twice = image(&restore(&once), case.canonical);
            assert!(
                image(&restored, case.canonical) == twice,
                "{what}: re-serializes differently"
            );
        }
    }
}

#[test]
fn restore_of_a_checkpoint_is_a_fixed_point() {
    restores(&count_case());
    restores(&sum_case());
    restores(&extremum_case("min", |g| DecayedExtremum::min(g, LANDMARK)));
    restores(&extremum_case("max", |g| DecayedExtremum::max(g, LANDMARK)));
    restores(&hh_case());
    restores(&quantile_case());
    restores(&cm_case());
}

#[test]
fn the_exponential_stream_renormalizes() {
    // What the table pins is only worth pinning if the clock really moved:
    // α·gap must exceed ln 1e150 between bursts.
    use forward_decay::core::summary::Summary;
    for (stage, s) in stages(&count_case(), "exp:0.5") {
        assert!(s.stats().renormalizations >= 1, "{stage}");
    }
    for (_, s) in stages(&count_case(), "poly:2") {
        assert_eq!(s.stats().renormalizations, 0);
    }
}

// ---------------------------------------------------------------------------
// The laws, stated once over `S: Weighted` and held for every implementor.
// ---------------------------------------------------------------------------

use forward_decay::core::aggregates::{Accumulator, Extremal};
use forward_decay::core::cm::CmCandidates;
use forward_decay::core::decayed::{Decayed, Weighted};
use forward_decay::core::heavy_hitters::WeightedSpaceSaving;
use forward_decay::core::quantiles::QDigest;
use forward_decay::core::summary::Summary;

/// One [`Weighted`] implementor under the clock, as the laws see it.
struct Law<S: Weighted> {
    name: &'static str,
    make: fn(AnyDecay, f64) -> Decayed<AnyDecay, S>,
    item: fn(&Event) -> S::Item,
    /// What the summary answers at `T_END`, as numbers; the first is its
    /// scale (the total decayed mass, for a sketch).
    probe: fn(&Decayed<AnyDecay, S>) -> Vec<f64>,
    /// How far two summaries of one stream may sit apart, as a fraction of
    /// the scale: 0 for the exact cells, the sketch's ε otherwise.
    slack: f64,
}

/// [`stream`] on whole seconds: under `poly:2` every weight `n²` and every
/// partial sum of `n²·v` is then an integer below 2⁵³, so an exact cell
/// answers bit for bit whatever the order of its additions.
fn whole_seconds() -> Vec<Event> {
    let mut events = stream();
    for e in &mut events {
        e.t = Timestamp::from_micros(e.t.as_micros() / 1_000_000 * 1_000_000);
    }
    events
}

fn agree<S: Weighted>(
    law: &Law<S>,
    what: &str,
    exact: bool,
    slack: f64,
    a: &Decayed<AnyDecay, S>,
    b: &Decayed<AnyDecay, S>,
) {
    let (pa, pb) = ((law.probe)(a), (law.probe)(b));
    assert_eq!(pa.len(), pb.len(), "{what}");
    let scale = pa[0].abs().max(pb[0].abs());
    for (i, (x, y)) in pa.iter().zip(&pb).enumerate() {
        if exact {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: answer {i}: {x} vs {y}");
        } else {
            let tol = slack * scale + 1e-9 * x.abs().max(y.abs());
            assert!((x - y).abs() <= tol, "{what}: answer {i}: {x} vs {y}");
        }
    }
}

fn laws<S: Weighted>(law: Law<S>) {
    let events = whole_seconds();
    for spec in SPECS {
        let what = |law_name: &str| format!("{}/{spec}: {law_name}", law.name);
        let fed = |pick: &dyn Fn(usize) -> bool| {
            let mut s = (law.make)(decay(spec), LANDMARK);
            for (_, e) in events.iter().enumerate().filter(|(i, _)| pick(*i)) {
                s.update_at(e.t, (law.item)(e));
            }
            s
        };
        let whole = fed(&|_| true);
        let exact = law.slack == 0.0 && spec == "poly:2";

        // Batched ≡ scalar.
        let mut batched = (law.make)(decay(spec), LANDMARK);
        for chunk in events.chunks(BATCH) {
            let ts: Vec<Timestamp> = chunk.iter().map(|e| e.t).collect();
            let items: Vec<S::Item> = chunk.iter().map(law.item).collect();
            batched.update_batch_at(&ts, &items);
        }
        let batched_what = what("batched ≡ scalar");
        batched.check_invariants().expect(&batched_what);
        agree(&law, &batched_what, exact, law.slack, &batched, &whole);

        // merge(A, B) ≡ the summary of the concatenated stream — for halves
        // whose effective landmarks differ, in both orders.
        for (split, in_a) in [
            ("time", (|i| i < BURST as usize) as fn(usize) -> bool),
            ("parity", |i| i.is_multiple_of(2)),
        ] {
            let (a, b) = (fed(&in_a), fed(&|i| !in_a(i)));
            for (order, mut into, from) in [("ab", a.clone(), &b), ("ba", b.clone(), &a)] {
                into.merge_from(from);
                let what = what(&format!("merge ≡ concat ({split} {order})"));
                into.check_invariants().expect(&what);
                agree(&law, &what, exact, 2.0 * law.slack, &into, &whole);
            }
        }

        // Different landmarks do not merge.
        let refused = std::panic::catch_unwind(|| {
            let mut a = (law.make)(decay(spec), LANDMARK);
            a.merge_from(&(law.make)(decay(spec), LANDMARK + 1.0));
        })
        .expect_err("summaries with different landmarks merged");
        let message = refused.downcast_ref::<String>().expect("a formatted panic");
        assert!(
            message.contains("summaries must share a landmark"),
            "{}: {message}",
            what("landmark mismatch")
        );
    }
}

fn keys_probe(mass: f64, estimate: impl Fn(u64) -> f64) -> Vec<f64> {
    std::iter::once(mass).chain((0..29).map(estimate)).collect()
}

#[test]
fn laws_hold_for_the_count_cell() {
    laws(Law::<Accumulator<()>> {
        name: "count",
        make: |g, l| DecayedCount::new(g, l),
        item: |_| (),
        probe: |s| vec![s.query(T_END)],
        slack: 0.0,
    });
}

#[test]
fn laws_hold_for_the_sum_cell() {
    laws(Law::<Accumulator<f64>> {
        name: "sum",
        make: |g, l| DecayedSum::new(g, l),
        item: Event::v,
        probe: |s| vec![s.query(T_END)],
        slack: 0.0,
    });
}

#[test]
fn laws_hold_for_the_extremal_cell() {
    let probe = |s: &DecayedExtremum<AnyDecay>| {
        let (x, t, v) = s.query(T_END).expect("a non-empty stream");
        vec![x, t.as_secs_f64(), v]
    };
    laws(Law::<Extremal> {
        name: "min",
        make: |g, l| DecayedExtremum::min(g, l),
        item: Event::v,
        probe,
        slack: 0.0,
    });
    laws(Law::<Extremal> {
        name: "max",
        make: |g, l| DecayedExtremum::max(g, l),
        item: Event::v,
        probe,
        slack: 0.0,
    });
}

#[test]
fn laws_hold_for_space_saving() {
    laws(Law::<WeightedSpaceSaving> {
        name: "hh",
        // Fewer counters than keys: evictions, and estimates within C/16.
        make: |g, l| DecayedHeavyHitters::new(g, l, 16),
        item: |e| e.key,
        probe: |s| {
            keys_probe(s.decayed_count(T_END), |key| {
                s.estimate(key, T_END).map_or(0.0, |c| c.count)
            })
        },
        slack: 1.0 / 16.0,
    });
}

#[test]
fn laws_hold_for_the_q_digest() {
    laws(Law::<QDigest> {
        name: "quantiles",
        make: |g, l| DecayedQuantiles::new(g, l, 11, 0.05),
        item: |e| e.val,
        probe: |s| {
            std::iter::once(s.decayed_count(T_END))
                .chain((0..8).map(|i| s.rank(100 + 180 * i, T_END)))
                .collect()
        },
        slack: 0.05,
    });
}

#[test]
fn laws_hold_for_count_min() {
    laws(Law::<CmCandidates> {
        name: "cm_hh",
        make: |g, l| DecayedCmHeavyHitters::new(g, l, 0.1, 0.05, 0.05, 7),
        item: |e| e.key,
        probe: |s| keys_probe(s.decayed_count(T_END), |key| s.estimate(key, T_END)),
        slack: 0.05,
    });
}
