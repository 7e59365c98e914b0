//! One codec, held to its bytes and to hostile input.
//!
//! **Pinned.** `data/codec_parent.hex` is what the image builders of this
//! file encoded at the commit before the checkpoint codec became the
//! `Encode` / `Decode` traits, one `<name> <hex>` per line: every decay
//! `fdql` parses, two row-mode engine checkpoints whose pending rows hold
//! floats, items and nested composites (one with an LFTA, one single
//! level), and the states no other pinned file covers. A state-mode engine
//! checkpoint, closed buckets pending, comes from
//! `data/engine_checkpoint_state_mode.hex`. Each must encode to
//! those bytes, and decoding then re-encoding them must give them back.
//! (Where a state holds a hashed container, the parent wrote it in hash
//! order; its generator rebuilt the state until that order happened to be
//! the canonical one the encoder now writes.) `data/codec_samplers.hex`
//! holds, the same way, the five samplers the engine runs, as first
//! encoded when they began to checkpoint, generator state and all.
//!
//! **Hostile input.** Every pinned image and one image of every other
//! checkpointed state is truncated, extended, bit-flipped and given
//! inflated length fields, 2 000 seeded times. No decode may panic or
//! allocate more than twice its input plus 4 KiB — a counting allocator
//! watches — and no strict prefix or extension of an image may decode.
//! What does decode is then fed 16 tuples, merged with a fresh instance
//! both ways and queried, none of which may panic. The same holds with the
//! ends of the integer and float ranges written over every offset of every
//! image, where a counter or a timestamp that decodes would overflow on
//! its next use.

use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::cell::Cell;
use std::sync::{Arc, Once};

use forward_decay::core::aggregates::{
    DecayedAverage, DecayedCount, DecayedExtremum, DecayedSum, DecayedVariance,
};
use forward_decay::core::backward::{ExponentialHistogram, PrefixBackwardHH, SlidingWindowHH};
use forward_decay::core::checkpoint::{
    from_bytes, require, to_bytes, CodecError, Decode, Encode, Reader, MAX_COUNT,
};
use forward_decay::core::cm::{CmSketch, DecayedCmHeavyHitters};
use forward_decay::core::decay::{AnyDecay, BackExponential, Exponential, Monomial, PolySum};
use forward_decay::core::distinct::{DominanceSketch, ExactDominance, Kmv};
use forward_decay::core::hash::SeededHash;
use forward_decay::core::heavy_hitters::{
    DecayedHeavyHitters, UnarySpaceSaving, WeightedSpaceSaving,
};
use forward_decay::core::merge::Mergeable;
use forward_decay::core::quantiles::{DecayedQuantiles, QDigest};
use forward_decay::core::sampling::{
    BiasedReservoir, PrioritySampler, ReservoirSampler, WeightedReservoir, WithReplacementSampler,
};
use forward_decay::engine::prelude::*;
use forward_decay::engine::udaf::FnFactory;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// A per-thread allocation meter
// ---------------------------------------------------------------------------

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn account(delta: isize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

struct Metered;

// SAFETY: every call is forwarded to the system allocator unchanged; the
// meter only adds up sizes in thread-locals that never allocate.
unsafe impl GlobalAlloc for Metered {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            account(layout.size() as isize);
        }
        p
    }
    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        account(-(layout.size() as isize));
    }
    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            account(new_size as isize - layout.size() as isize);
        }
        q
    }
}

#[global_allocator]
static METER: Metered = Metered;

/// Runs a decode of `len` input bytes and holds its allocation high-water
/// mark — the decoded value included — to twice the input plus 4 KiB.
fn metered<R>(name: &str, len: usize, decode: impl FnOnce() -> R) -> R {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let out = decode();
    let peak = PEAK.with(Cell::get) - base;
    assert!(
        peak <= (2 * len + 4096) as isize,
        "{name}: decoding {len} bytes peaked at {peak} allocated bytes"
    );
    out
}

// ---------------------------------------------------------------------------
// The pinned images: built here, the same way the parent commit built them
// ---------------------------------------------------------------------------

/// Every decay `fdql --decay` parses, plus the general polynomial.
fn decays() -> Vec<(String, AnyDecay)> {
    let mut out: Vec<(String, AnyDecay)> = [
        "none",
        "landmark",
        "poly:2",
        "poly:0.5",
        "exp:0.05",
        "halflife:30",
    ]
    .iter()
    .map(|spec| (format!("decay/{spec}"), spec.parse().expect("a decay spec")))
    .collect();
    out.push((
        "decay/poly_sum".to_string(),
        AnyDecay::Poly(PolySum::new(vec![1.0, 0.0, 2.5])),
    ));
    out
}

/// Twelve hashes offered to a four-slot KMV: eight are evicted.
fn kmv() -> Kmv {
    let h = SeededHash::new(3);
    let mut kmv = Kmv::new(4);
    for v in 0..12 {
        kmv.offer(h.hash(v));
    }
    kmv
}

/// Nine arrivals over four values, some values seen again later.
fn exact_dominance() -> ExactDominance<Monomial> {
    let mut d = ExactDominance::new(Monomial::quadratic(), 10.0);
    for i in 0..9u64 {
        d.update(11.0 + i as f64 * 0.7, i * 5 % 4);
    }
    d
}

fn exponential_histogram() -> ExponentialHistogram {
    let mut eh = ExponentialHistogram::with_epsilon(0.25);
    for i in 0..100u64 {
        eh.insert_value(i as f64 * 0.5, 1 + i * 7 % 13);
    }
    eh
}

/// A splittable aggregate that answers with items: a tally of the group's
/// packets and bytes. What puts an `Items` value in a two-level engine's
/// pending rows (every built-in that answers with items is high-level only).
#[derive(Default)]
struct Tally {
    packets: u64,
    bytes: u64,
}

impl Aggregator for Tally {
    fn update(&mut self, p: &Packet) {
        self.packets += 1;
        self.bytes += p.len as u64;
    }
    fn merge_boxed(&mut self, other: Box<dyn Aggregator>) {
        let other = other.as_any_box().downcast::<Tally>().expect("a tally");
        self.packets += other.packets;
        self.bytes += other.bytes;
    }
    fn emit(&self, _t: f64) -> AggValue {
        AggValue::Items(vec![ItemValue {
            item: self.packets,
            value: self.bytes as f64,
        }])
    }
    fn size_bytes(&self) -> usize {
        16
    }
    fn as_any_box(self: Box<Self>) -> Box<dyn Any> {
        self
    }
    fn checkpoint_into(&self, out: &mut Vec<u8>) -> Option<()> {
        self.packets.put(out);
        self.bytes.put(out);
        Some(())
    }
    fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut r = Reader::new(bytes);
        (self.packets, self.bytes) = (u64::take(&mut r)?, u64::take(&mut r)?);
        require(r.is_empty(), "trailing bytes after a tally")?;
        require(
            self.packets.max(self.bytes) <= MAX_COUNT,
            "a tally past 2^62",
        )
    }
}

/// The two engine queries: with an LFTA (the tally supplies the items) and
/// single-level (a q-digest does).
fn engine_query(two_level: bool) -> Query {
    let len = |p: &Packet| p.len as f64;
    let aggregate = if two_level {
        multi_factory(vec![
            fwd_sum_factory("poly:2".parse::<AnyDecay>().expect("poly:2"), len),
            multi_factory(vec![
                FnFactory::new("tally", true, |_| Box::new(Tally::default())),
                count_factory(),
            ]),
        ])
    } else {
        multi_factory(vec![
            fwd_sum_factory("exp:0.05".parse::<AnyDecay>().expect("exp:0.05"), len),
            multi_factory(vec![
                count_factory(),
                fwd_quantile_factory(
                    "poly:2".parse::<AnyDecay>().expect("poly:2"),
                    10,
                    0.1,
                    vec![0.5, 0.9],
                    |p| p.len as u64,
                ),
            ]),
        ])
    };
    Query::builder(if two_level { "lfta" } else { "single" })
        .group_by(|p| p.dst_host())
        .bucket_secs(10)
        .aggregate(aggregate)
        .two_level(two_level)
        .lfta_slots(8)
        .try_build()
        .expect("valid query")
}

/// 60 packets over five hosts and 22 s: buckets 0 and 1 have closed into
/// pending rows (never drained), bucket 2 is open.
fn engine(two_level: bool) -> Engine {
    let mut e = Engine::new(engine_query(two_level));
    for i in 0..60u64 {
        e.process(&Packet {
            ts: i * 370_000 + i * 7 % 5 * 1_000,
            src_ip: 1,
            dst_ip: (i * 3 % 5) as u32,
            src_port: 1000,
            dst_port: 80,
            len: 40 + (i * 97 % 1400) as u32,
            proto: Proto::Tcp,
        });
    }
    e
}

// ---------------------------------------------------------------------------
// Every checkpointed state: an image, and a decoded state put to use
// ---------------------------------------------------------------------------

/// Decodes under the meter, then re-encodes (the result) and puts what
/// decoded to use.
type Decoder = Box<dyn Fn(&[u8]) -> Result<Vec<u8>, CodecError>>;

/// One image, and how to decode it.
struct Case {
    name: String,
    image: Vec<u8>,
    decode: Decoder,
}

fn case<T: Encode + Decode + 'static>(name: &str, value: T, use_it: fn(&mut T)) -> Case {
    let label = name.to_string();
    Case {
        name: label.clone(),
        image: to_bytes(&value),
        decode: Box::new(move |bytes| {
            let mut state = metered(&label, bytes.len(), || from_bytes::<T>(bytes))?;
            let again = to_bytes(&state);
            use_it(&mut state);
            Ok(again)
        }),
    }
}

fn engine_case(name: &str, two_level: bool) -> Case {
    let label = name.to_string();
    Case {
        name: label.clone(),
        image: engine(two_level).checkpoint().expect("checkpoint"),
        decode: Box::new(move |bytes| {
            let query = engine_query(two_level);
            let mut e = metered(&label, bytes.len(), || Engine::restore(query, bytes))?;
            let again = e.checkpoint()?;
            // Into the first second of the open bucket, [20 s, 30 s), its
            // landmark: the restored LFTA partials and groups take them,
            // and merge at the close.
            merging(|| {
                for (t, key) in arrivals() {
                    e.process(&packet(t + 10.0, key));
                }
                e.finish();
            });
            Ok(again)
        }),
    }
}

/// A shard worker's checkpoint, closed buckets pending: the first image of
/// `data/engine_checkpoint_state_mode.hex`, `fwd_sum` under `n²` over
/// 10 s buckets, whose closed section decodes into one run per bucket.
fn engine_state_case() -> Case {
    let image: Vec<u8> = (include_str!("data/engine_checkpoint_state_mode.hex").split("\n\n"))
        .next()
        .expect("an image")
        .split_whitespace()
        .flat_map(|line| {
            (0..line.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&line[i..i + 2], 16).expect("hex digit pair"))
        })
        .collect();
    let query = || {
        Query::builder("golden")
            .group_by(|p| p.dst_host())
            .bucket_secs(10)
            .slack_secs(5.0)
            .aggregate(fwd_sum_factory(Monomial::quadratic(), |p| p.len as f64))
            .lfta_slots(4)
            .try_build()
            .expect("valid query")
    };
    Case {
        name: "engine/state".to_string(),
        image,
        decode: Box::new(move |bytes| {
            let mut e = metered("engine/state", bytes.len(), || {
                Engine::restore(query(), bytes)
            })?;
            let again = e.checkpoint()?;
            merging(|| {
                for (t, key) in arrivals() {
                    e.process(&packet(t + 20.0, key));
                }
                e.finish();
            });
            Ok(again)
        }),
    }
}

/// The 16 arrivals a decoded state is fed: inside a second after the
/// landmark (10 s), where a decayed weight stays finite whatever a flipped
/// exponent has made of the decay's parameter.
fn arrivals() -> impl Iterator<Item = (f64, u64)> {
    (0..16u64).map(|i| (10.0 + 0.05 * i as f64, i * 7 % 5))
}

fn packet(t: f64, key: u64) -> Packet {
    Packet {
        ts: (t * MICROS_PER_SEC as f64) as Micros,
        src_ip: 1,
        dst_ip: key as u32,
        src_port: 1000,
        dst_port: 80,
        len: 40 + key as u32 * 300,
        proto: Proto::Tcp,
    }
}

/// What merging refuses, by the documented panic of `merge_from`: two
/// states whose parameters (a landmark, a capacity, a precision) differ.
fn refused(message: &str) -> bool {
    ["must match", "must share", "cannot merge"]
        .iter()
        .any(|m| message.contains(m))
}

/// Runs `merge`. A decoded parameter a flip has changed no longer matches
/// the fresh instance it meets, and the merge refuses it; any other panic
/// propagates.
fn merging(merge: impl FnOnce()) {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let loud = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !info.payload_as_str().is_some_and(refused) {
                loud(info);
            }
        }));
    });
    if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(merge)) {
        let message = (payload.downcast_ref::<String>().map(String::as_str))
            .or_else(|| payload.downcast_ref::<&str>().copied());
        if !message.is_some_and(refused) {
            std::panic::resume_unwind(payload);
        }
    }
}

/// Merges a fresh instance into `state`, and `state` into another.
fn merge_fresh<T: Mergeable + Clone>(state: &mut T, fresh: T) {
    let mut other = fresh.clone();
    merging(|| other.merge_from(state));
    merging(|| state.merge_from(&fresh));
}

fn poly2() -> AnyDecay {
    "poly:2".parse().expect("poly:2")
}

fn cases() -> Vec<Case> {
    let mut out: Vec<Case> = decays()
        .into_iter()
        .map(|(name, g)| {
            case(&name, g, |g| {
                let mut sum = DecayedSum::new(g.clone(), 10.0);
                arrivals().for_each(|(t, key)| sum.update(t, key as f64));
                std::hint::black_box(sum.query(11.0));
            })
        })
        .collect();
    out.push(case("kmv", kmv(), |s| {
        let h = SeededHash::new(3);
        arrivals().for_each(|(_, key)| {
            s.offer(h.hash(key + 100));
        });
        merge_fresh(s, Kmv::new(4));
        std::hint::black_box(s.estimate());
    }));
    out.push(case("exact_dominance", exact_dominance(), |s| {
        arrivals().for_each(|(t, key)| s.update(t, key));
        merge_fresh(s, ExactDominance::new(Monomial::quadratic(), 10.0));
        std::hint::black_box(s.query(11.0));
    }));
    out.push(case(
        "exponential_histogram",
        exponential_histogram(),
        |s| {
            arrivals().for_each(|(t, key)| s.insert_value(t + 50.0, key + 1));
            merge_fresh(s, ExponentialHistogram::with_epsilon(0.25));
            let f = BackExponential::new(0.05);
            std::hint::black_box((s.window_query(5.0, 61.0), s.decayed_query(&f, 61.0)));
        },
    ));
    out.push(engine_case("engine/lfta", true));
    out.push(engine_case("engine/single", false));
    out.push(engine_state_case());
    out.extend(sampler_cases());
    out.extend(unpinned_cases());
    out
}

/// Forty arrivals offered to a sampler of four: evictions have emptied
/// slots, and the generator has moved on from its seed.
fn sampled<S>(mut s: S, offer: impl Fn(&mut S, f64, u64)) -> S {
    for i in 0..40u64 {
        offer(&mut s, 10.0 + i as f64 * 0.37, i * 7 % 13);
    }
    s
}

fn reservoir() -> ReservoirSampler<u64> {
    sampled(ReservoirSampler::new(4, 7), |s, _, k| s.update(k))
}

fn biased_reservoir() -> BiasedReservoir<u64> {
    sampled(BiasedReservoir::new(0.2, 7), |s, _, k| s.update(k))
}

fn weighted_reservoir() -> WeightedReservoir<u64, AnyDecay> {
    sampled(WeightedReservoir::new(poly2(), 10.0, 4, 7), |s, t, k| {
        s.update(t, &k)
    })
}

/// The engine's five samplers, whose images `data/codec_samplers.hex` pins.
fn sampler_cases() -> Vec<Case> {
    vec![
        case("reservoir", reservoir(), |s| {
            arrivals().for_each(|(_, k)| s.update(k));
            merge_fresh(s, ReservoirSampler::new(4, 9));
            std::hint::black_box(s.sample());
        }),
        case("biased_reservoir", biased_reservoir(), |s| {
            arrivals().for_each(|(_, k)| s.update(k));
            merge_fresh(s, BiasedReservoir::new(0.2, 9));
            std::hint::black_box(s.sample());
        }),
        case("weighted_reservoir", weighted_reservoir(), |s| {
            arrivals().for_each(|(t, k)| s.update(t, &k));
            merge_fresh(s, WeightedReservoir::new(poly2(), 10.0, 4, 9));
            std::hint::black_box(s.sample());
        }),
        case(
            "priority_sampler",
            sampled(PrioritySampler::new(poly2(), 10.0, 4, 7), |s, t, k| {
                s.update(t, &k)
            }),
            |s| {
                arrivals().for_each(|(t, k)| s.update(t, &k));
                merge_fresh(s, PrioritySampler::new(poly2(), 10.0, 4, 9));
                std::hint::black_box((s.sample(), s.estimate_decayed_count(11.0)));
            },
        ),
        case(
            "with_replacement",
            sampled(
                WithReplacementSampler::new(poly2(), 10.0, 3, 7),
                |s, t, k| s.update(t, &k),
            ),
            |s| {
                arrivals().for_each(|(t, k)| s.update(t, &k));
                merge_fresh(s, WithReplacementSampler::new(poly2(), 10.0, 3, 9));
                std::hint::black_box(s.sample());
            },
        ),
    ]
}

/// The states the pinned files above and `aggregator_states.hex` /
/// `core_decayed_states.hex` hold, built small.
fn unpinned_cases() -> Vec<Case> {
    fn fed<S>(mut s: S, feed: impl Fn(&mut S, f64, u64)) -> S {
        for i in 0..40u64 {
            feed(&mut s, 10.0 + i as f64 * 0.37, i * i % 11);
        }
        s
    }
    vec![
        case(
            "fwd_count",
            fed(DecayedCount::new(poly2(), 10.0), |s, t, _| s.update(t)),
            |s| {
                arrivals().for_each(|(t, _)| s.update(t));
                merge_fresh(s, DecayedCount::new(poly2(), 10.0));
                std::hint::black_box(s.query(11.0));
            },
        ),
        case(
            "fwd_sum",
            fed(DecayedSum::new(Exponential::new(0.5), 10.0), |s, t, k| {
                s.update(t, k as f64)
            }),
            |s| {
                arrivals().for_each(|(t, k)| s.update(t, k as f64));
                merge_fresh(s, DecayedSum::new(Exponential::new(0.5), 10.0));
                std::hint::black_box(s.query(11.0));
            },
        ),
        case(
            "fwd_avg",
            fed(
                DecayedAverage::new(Monomial::quadratic(), 10.0),
                |s, t, k| s.update(t, k as f64),
            ),
            |s| {
                arrivals().for_each(|(t, k)| s.update(t, k as f64));
                merge_fresh(s, DecayedAverage::new(Monomial::quadratic(), 10.0));
                std::hint::black_box(s.query(11.0));
            },
        ),
        case(
            "fwd_var",
            fed(
                DecayedVariance::new(Exponential::new(0.5), 10.0),
                |s, t, k| s.update(t, k as f64),
            ),
            |s| {
                arrivals().for_each(|(t, k)| s.update(t, k as f64));
                merge_fresh(s, DecayedVariance::new(Exponential::new(0.5), 10.0));
                std::hint::black_box(s.query(11.0));
            },
        ),
        case(
            "fwd_max",
            fed(DecayedExtremum::max(poly2(), 10.0), |s, t, k| {
                s.update(t, k as f64)
            }),
            |s| {
                arrivals().for_each(|(t, k)| s.update(t, k as f64));
                merge_fresh(s, DecayedExtremum::max(poly2(), 10.0));
                std::hint::black_box(s.query(11.0));
            },
        ),
        case(
            "fwd_hh",
            fed(DecayedHeavyHitters::new(poly2(), 10.0, 8), |s, t, k| {
                s.update(t, k)
            }),
            |s| {
                arrivals().for_each(|(t, k)| s.update(t, k));
                merge_fresh(s, DecayedHeavyHitters::new(poly2(), 10.0, 8));
                std::hint::black_box((s.heavy_hitters(0.1, 11.0), s.estimate(3, 11.0)));
            },
        ),
        case(
            "space_saving",
            fed(WeightedSpaceSaving::new(8), |s, t, k| s.update(k, t)),
            |s| {
                arrivals().for_each(|(t, k)| s.update(k + 3, t));
                merge_fresh(s, WeightedSpaceSaving::new(8));
                std::hint::black_box((s.heavy_hitters(0.1), s.min_count()));
            },
        ),
        case(
            "unary_space_saving",
            fed(UnarySpaceSaving::new(6), |s, _, k| s.update(k)),
            |s| {
                arrivals().for_each(|(_, k)| s.update(k + 3));
                merge_fresh(s, UnarySpaceSaving::new(6));
                std::hint::black_box((s.heavy_hitters(0.1), s.estimate(4)));
            },
        ),
        case(
            "cm_hh",
            fed(
                DecayedCmHeavyHitters::new(poly2(), 10.0, 0.2, 0.2, 0.2, 7),
                |s, t, k| s.update(t, k),
            ),
            |s| {
                arrivals().for_each(|(t, k)| s.update(t, k));
                let fresh = DecayedCmHeavyHitters::new(poly2(), 10.0, 0.2, 0.2, 0.2, 7);
                merge_fresh(s, fresh);
                std::hint::black_box((s.heavy_hitters(11.0), s.estimate(2, 11.0)));
            },
        ),
        case(
            "count_min",
            fed(CmSketch::new(16, 3, 5), |s, t, k| s.update(k, t)),
            |s| {
                arrivals().for_each(|(t, k)| s.update(k, t));
                merge_fresh(s, CmSketch::new(16, 3, 5));
                std::hint::black_box(s.query(3));
            },
        ),
        case(
            "fwd_quantiles",
            fed(DecayedQuantiles::new(poly2(), 10.0, 10, 0.2), |s, t, k| {
                s.update(t, k * 90)
            }),
            |s| {
                arrivals().for_each(|(t, k)| {
                    let top = s.inner().domain() - 1;
                    s.update(t, (k * 90).min(top));
                });
                merge_fresh(s, DecayedQuantiles::new(poly2(), 10.0, 10, 0.2));
                std::hint::black_box((s.quantiles(&[0.5, 0.9], 11.0), s.rank(300, 11.0)));
            },
        ),
        case(
            "q_digest",
            fed(QDigest::new(10, 8), |s, t, k| s.update(k * 90, t)),
            |s| {
                arrivals().for_each(|(t, k)| {
                    let top = s.domain() - 1;
                    s.update((k * 90).min(top), t);
                });
                merge_fresh(s, QDigest::new(10, 8));
                std::hint::black_box((s.quantile(0.5), s.rank(300.min(s.domain() - 1))));
            },
        ),
        case(
            "sliding_window_hh",
            fed(SlidingWindowHH::new(1.0, 3), |s, t, k| s.update(t, k)),
            |s| {
                arrivals().for_each(|(t, k)| s.update(t + 20.0, k));
                merge_fresh(s, SlidingWindowHH::new(1.0, 3));
                let f = BackExponential::new(0.05);
                std::hint::black_box((
                    s.heavy_hitters(&f, 31.0, 0.1),
                    s.window_count(2, 5.0, 31.0),
                ));
            },
        ),
        case(
            "prefix_hh",
            fed(PrefixBackwardHH::new(4, 0.25), |s, t, k| s.update(t, k)),
            |s| {
                arrivals().for_each(|(t, k)| s.update(t + 20.0, k));
                merge_fresh(s, PrefixBackwardHH::new(4, 0.25));
                let f = BackExponential::new(0.05);
                std::hint::black_box(s.heavy_hitters(&f, 31.0, 0.1));
            },
        ),
        case(
            "dominance_sketch",
            fed(
                DominanceSketch::new(Monomial::quadratic(), 10.0, 0.5, 5),
                |s, t, k| s.update(t, k),
            ),
            |s| {
                arrivals().for_each(|(t, k)| s.update(t, k + 20));
                merge_fresh(s, DominanceSketch::new(Monomial::quadratic(), 10.0, 0.5, 5));
                std::hint::black_box(s.query(11.0));
            },
        ),
    ]
}

// ---------------------------------------------------------------------------
// The tests
// ---------------------------------------------------------------------------

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
        .collect()
}

/// Each `<name> <hex>` line of `pinned` is what the case of that name
/// encodes, and decoding then re-encoding it gives it back.
fn assert_pinned(pinned: &str, lines: usize) {
    let cases = cases();
    assert_eq!(pinned.lines().count(), lines);
    for line in pinned.lines() {
        let (name, want) = line.split_once(' ').expect("<name> <hex>");
        let case = (cases.iter().find(|c| c.name == name)).unwrap_or_else(|| panic!("{name}"));
        // Compare as hex so a failure shows the bytes, not a list of them.
        assert_eq!(hex(&case.image), want, "{name}: encodes differently");
        let again = (case.decode)(&unhex(want)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(hex(&again), want, "{name}: decode ∘ encode moved the bytes");
    }
}

#[test]
fn pinned_images_are_the_parent_commits_bytes_and_fixed_points() {
    assert_pinned(include_str!("data/codec_parent.hex"), 12);
}

#[test]
fn sampler_images_are_pinned_and_fixed_points() {
    assert_pinned(include_str!("data/codec_samplers.hex"), 5);
}

#[test]
fn decoders_survive_seeded_mutation() {
    for case in cases() {
        let Case {
            name,
            image,
            decode,
        } = &case;
        decode(image).unwrap_or_else(|e| panic!("{name}: the valid image: {e}"));
        // An image is exactly its bytes: no strict prefix of it and no
        // extension by trailing bytes decodes.
        for cut in 0..image.len() {
            assert!(
                decode(&image[..cut]).is_err(),
                "{name}: prefix of {cut} bytes"
            );
        }
        for extra in 1..=9 {
            let mut longer = image.clone();
            longer.resize(image.len() + extra, 0);
            assert!(decode(&longer).is_err(), "{name}: {extra} trailing bytes");
        }
        // Never a panic, never an allocation past the meter's bound —
        // here or when what decoded is put to use.
        let mut rng = SmallRng::seed_from_u64(0xC0DEC ^ name.len() as u64);
        for _ in 0..2_000 {
            let mut bytes = image.clone();
            let at = rng.gen_range(0..bytes.len());
            match rng.gen_range(0..4) {
                0 => bytes.truncate(at),
                1 => bytes.extend((0..=at % 17).map(|_| rng.gen::<u8>())),
                2 => bytes[at] ^= 1u8 << rng.gen_range(0..8),
                _ if at + 8 <= bytes.len() => {
                    // What may be a count, inflated to the most a decoder
                    // that allowed eight elements per remaining byte took.
                    let rest = (bytes.len() - at - 8) as u64;
                    bytes[at..at + 8].copy_from_slice(&(8 * rest).to_le_bytes());
                }
                _ => {}
            }
            let _ = decode(&bytes);
        }
        // Flips rarely land a field on the end of its range: there, a
        // counter that decodes overflows on its next update, a timestamp
        // its next age, a width the timestamp it shifts. Every such word
        // at every offset.
        for word in EXTREME_WORDS {
            for at in 0..(image.len() + 1).saturating_sub(word.len()) {
                let mut bytes = image.clone();
                bytes[at..at + word.len()].copy_from_slice(word);
                let _ = decode(&bytes);
            }
        }
    }
}

/// The ends of the `u64`, `i64` and `u32` ranges, the largest finite
/// floats and infinity.
const EXTREME_WORDS: [&[u8]; 7] = [
    &u64::MAX.to_le_bytes(),
    &i64::MAX.to_le_bytes(),
    &i64::MIN.to_le_bytes(),
    &u32::MAX.to_le_bytes(),
    &f64::MAX.to_le_bytes(),
    &f64::MIN.to_le_bytes(),
    &f64::INFINITY.to_le_bytes(),
];

#[test]
fn counters_and_timestamps_at_the_end_of_their_range_are_refused() {
    fn with(mut bytes: Vec<u8>, at: usize, word: [u8; 8]) -> Vec<u8> {
        bytes[at..at + 8].copy_from_slice(&word);
        bytes
    }
    let max = u64::MAX.to_le_bytes();
    // `… | acc | n | max_t`: a count's next update overflows `n`.
    let mut count = DecayedCount::new(poly2(), 10.0);
    count.update(11.0);
    let image = to_bytes(&count);
    assert_eq!(u64_at(&image, image.len() - 16), 1);
    let count = with(image.clone(), image.len() - 16, max);
    assert!(from_bytes::<DecayedCount<AnyDecay>>(&count).is_err());
    // `… | total | merges`: a histogram's overflows `total`.
    let image = to_bytes(&exponential_histogram());
    let eh = with(image.clone(), image.len() - 16, max);
    assert!(from_bytes::<ExponentialHistogram>(&eh).is_err());
    // `β | landmark | …`: no arrival's age since the start of the clock
    // fits in an `i64`.
    let image = to_bytes(&exact_dominance());
    assert_eq!(u64_at(&image, 8), 10_000_000);
    let dominance = with(image, 8, i64::MIN.to_le_bytes());
    assert!(from_bytes::<ExactDominance<Monomial>>(&dominance).is_err());
}

#[test]
fn an_inflated_count_reserves_no_more_than_the_input() {
    // An image large enough that the meter's 4 KiB slack cannot absorb
    // what a count reserves.
    let mut eh = ExponentialHistogram::with_epsilon(0.002);
    (0..30_000u64).for_each(|i| eh.insert_value(i as f64, 1));
    let mut image = to_bytes(&eh);
    assert!(image.len() > 16 * 4096, "{} bytes", image.len());
    let decode = |bytes: &[u8]| {
        metered("exponential_histogram", bytes.len(), || {
            from_bytes::<ExponentialHistogram>(bytes)
        })
    };
    decode(&image).expect("the valid image");
    // `max_per_class | class count | classes`: the count inflated to the
    // most the count check passes, one class per 8 remaining bytes. Taken
    // at its word, it reserved 32 bytes of `VecDeque` per class: four times
    // the input.
    let most = (image.len() - 16) as u64 / 8;
    image[8..16].copy_from_slice(&most.to_le_bytes());
    assert!(decode(&image).is_err());
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

#[test]
fn a_space_saving_heap_that_is_not_a_permutation_is_refused() {
    let mut ss = WeightedSpaceSaving::new(3);
    for item in [1, 2, 3] {
        ss.update(item, 1.0);
    }
    let mut bytes = to_bytes(&ss);
    // capacity | counters (3 × 24) | heap: point the heap's root — the
    // counter a new item evicts — past the counters.
    let root = 8 + 8 + 3 * 24 + 8;
    assert_eq!(u64_at(&bytes, root - 8), 3);
    bytes[root..root + 8].copy_from_slice(&7u64.to_le_bytes());
    match from_bytes::<WeightedSpaceSaving>(&bytes) {
        Err(e) => assert!(e.to_string().contains("heap"), "{e}"),
        Ok(mut ss) => {
            ss.update(4, 1.0);
            panic!("a heap slot past the counters decoded, and updated");
        }
    }
}

#[test]
fn a_stream_summary_whose_links_leave_its_buckets_is_refused() {
    let mut ss = UnarySpaceSaving::new(4);
    for item in [1, 1, 2] {
        ss.update(item);
    }
    let mut bytes = to_bytes(&ss);
    // capacity | nodes (40 each) | buckets (32 each) | free | min_bucket:
    // point the bucket list's head past the buckets.
    let nodes = u64_at(&bytes, 8) as usize;
    let buckets_at = 16 + 40 * nodes;
    let free_at = buckets_at + 8 + 32 * u64_at(&bytes, buckets_at) as usize;
    let min_at = free_at + 8 + 8 * u64_at(&bytes, free_at) as usize;
    bytes[min_at..min_at + 8].copy_from_slice(&9u64.to_le_bytes());
    match from_bytes::<UnarySpaceSaving>(&bytes) {
        Err(e) => assert!(e.to_string().contains("bucket"), "{e}"),
        Ok(mut ss) => {
            ss.update(3);
            panic!("a bucket list past the buckets decoded, and updated");
        }
    }
}

#[test]
fn a_count_min_sketch_wider_than_its_counters_is_refused() {
    let mut cm = CmSketch::new(16, 2, 1);
    cm.update(1, 1.0);
    let mut bytes = to_bytes(&cm);
    // width is the first field.
    bytes[..8].copy_from_slice(&(1u64 << 20).to_le_bytes());
    match from_bytes::<CmSketch>(&bytes) {
        Err(e) => assert!(e.to_string().contains("dimensions"), "{e}"),
        Ok(mut cm) => {
            (0..64).for_each(|item| cm.update(item, 1.0));
            panic!("a sketch claiming 2^20 columns over 32 counters decoded, and updated");
        }
    }
}

#[test]
fn map_bearing_families_checkpoint_canonically() {
    // Two instances from two factories — two hash seeds — fed one stream.
    type Factory = fn() -> Arc<FnFactory>;
    let families: [(&str, Factory); 6] = [
        ("unary_hh", || unary_hh_factory(0.05, 0.1, |p| p.dst_host())),
        ("fwd_hh", || {
            fwd_hh_factory(poly2(), 0.05, 0.1, |p| p.dst_host())
        }),
        ("cm_hh", || {
            cm_hh_factory(poly2(), 0.1, 0.05, 7, |p| p.dst_host())
        }),
        ("sw_hh", || {
            let back = DynBackward::from_decay(BackExponential::new(0.05));
            sw_hh_factory(5.0, 3, back, 0.1, |p| p.dst_host())
        }),
        ("prefix_hh", || {
            let back = DynBackward::from_decay(BackExponential::new(0.05));
            prefix_hh_factory(5, 0.2, back, 0.1, |p| p.dst_host() & 31)
        }),
        ("fwd_distinct", || {
            distinct_factory(poly2(), 0.2, 7, |p| p.dst_host())
        }),
    ];
    for (name, factory) in families {
        let state = || {
            let mut agg = factory().make(0);
            for i in 0..256u64 {
                agg.update(&packet(i as f64 * 0.23, i * 11 % 29 + i % 3 * 7));
            }
            let mut bytes = Vec::new();
            agg.checkpoint_into(&mut bytes).expect("checkpoints");
            bytes
        };
        assert!(state() == state(), "{name}: one stream, two byte images");
    }
}

#[test]
fn a_top_k_free_list_naming_a_live_slot_is_refused() {
    let mut bytes = to_bytes(&weighted_reservoir());
    // `… | free list | generator (32) | n | accepted`: one freed slot of
    // the five a four-sample reservoir has used, renamed to a live one.
    let free_at = bytes.len() - 48 - 8;
    assert_eq!(u64_at(&bytes, free_at - 8), 1);
    let live = (u64_at(&bytes, free_at) + 1) % 5;
    bytes[free_at..free_at + 8].copy_from_slice(&live.to_le_bytes());
    match from_bytes::<WeightedReservoir<u64, AnyDecay>>(&bytes) {
        Err(e) => assert!(e.to_string().contains("free list"), "{e}"),
        Ok(mut s) => {
            (0..8).for_each(|i| s.update(11.0 + i as f64, &i));
            panic!("a free list naming a live slot decoded, and updated");
        }
    }
}

#[test]
fn a_reservoir_longer_than_k_is_refused() {
    let mut bytes = to_bytes(&reservoir());
    // `k | reservoir | …`: four items held, k cut to three.
    assert_eq!(u64_at(&bytes, 0), 4);
    bytes[..8].copy_from_slice(&3u64.to_le_bytes());
    match from_bytes::<ReservoirSampler<u64>>(&bytes) {
        Err(e) => assert!(e.to_string().contains("longer than k"), "{e}"),
        Ok(_) => panic!("a reservoir of four decoded with k = 3"),
    }
}

#[test]
fn a_bias_rate_outside_the_unit_interval_is_refused() {
    let image = to_bytes(&biased_reservoir());
    // `λ | n_max | …`
    assert_eq!(
        f64::from_le_bytes(image[..8].try_into().expect("8 bytes")),
        0.2
    );
    for lambda in [0.0, -0.2, 1.5, f64::NAN, f64::INFINITY] {
        let mut bytes = image.clone();
        bytes[..8].copy_from_slice(&lambda.to_le_bytes());
        match from_bytes::<BiasedReservoir<u64>>(&bytes) {
            Err(e) => assert!(e.to_string().contains("bias rate"), "λ = {lambda}: {e}"),
            Ok(_) => panic!("a biased reservoir decoded with λ = {lambda}"),
        }
    }
}

#[test]
fn an_all_zero_generator_state_is_refused() {
    let mut bytes = to_bytes(&reservoir());
    // The generator's four words close the image.
    let at = bytes.len() - 32;
    bytes[at..].fill(0);
    match from_bytes::<ReservoirSampler<u64>>(&bytes) {
        Err(e) => assert!(e.to_string().contains("all-zero generator"), "{e}"),
        Ok(_) => panic!("a generator that draws only zeros decoded"),
    }
}

#[test]
fn an_average_whose_parts_disagree_on_g_or_clock_is_refused() {
    // An average's image is a sum's beside a count's, each with its `g` and
    // clock: the 888 s gap moves an `exp:0.5` clock (ln 1e150 / 0.5 ≈ 691 s).
    let ts = [12.0, 900.0];
    let g = Exponential::new(0.5);
    let count = |g: Exponential, landmark: f64, ts: &[f64]| {
        let mut c = DecayedCount::new(g, landmark);
        ts.iter().for_each(|&t| c.update(t));
        to_bytes(&c)
    };
    let mut sum = DecayedSum::new(g, 10.0);
    let mut avg = DecayedAverage::new(g, 10.0);
    for t in ts {
        sum.update(t, t);
        avg.update(t, t);
    }
    let sum = to_bytes(&sum);
    assert_eq!([sum.clone(), count(g, 10.0, &ts)].concat(), to_bytes(&avg));
    from_bytes::<DecayedAverage<Exponential>>(&to_bytes(&avg)).expect("one g, one clock");
    for (what, count) in [
        ("a clock that did not move", count(g, 10.0, &ts[..1])),
        ("another landmark", count(g, 11.0, &ts)),
        ("another g", count(Exponential::new(0.25), 10.0, &ts)),
    ] {
        let image = [sum.clone(), count].concat();
        assert!(
            from_bytes::<DecayedAverage<Exponential>>(&image).is_err(),
            "an average whose count has {what} decoded"
        );
    }
}
