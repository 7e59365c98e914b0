//! Ready-made aggregator factories: every fd-core summary wired into the
//! engine's UDAF interface, plus the undecayed built-ins.
//!
//! Each `*_factory` function returns an [`AggregatorFactory`] ready to plug
//! into [`crate::udaf::QueryBuilder::aggregate`]. Factories correspond
//! one-to-one to the algorithms of the paper's experiments:
//!
//! | factory | paper role |
//! |---|---|
//! | [`count_factory`], [`sum_factory`] | undecayed GSQL `count(*)` / `sum(len)` (Figure 2 baseline) |
//! | [`fwd_count_factory`], [`fwd_sum_factory`] | forward-decayed count/sum, "poly"/"exp" curves of Figure 2 |
//! | [`fwd_avg_factory`], [`fwd_var_factory`], [`fwd_max_factory`], [`fwd_min_factory`] | the other constant-space aggregates of Theorem 1 |
//! | [`eh_count_factory`], [`eh_sum_factory`] | backward decay via exponential histograms (Figure 2) |
//! | [`unary_hh_factory`] | "Unary HH" unweighted SpaceSaving (Figure 5) |
//! | [`fwd_hh_factory`] | weighted SpaceSaving under forward decay (Figures 4, 5) |
//! | [`cm_hh_factory`] | Count-Min backed decayed heavy hitters (ablation A5) |
//! | [`prefix_hh_factory`] | CKT prefix-hierarchy backward heavy hitters (Figures 4, 5) |
//! | [`sw_hh_factory`] | dyadic-time sliding-window backward heavy hitters |
//! | [`reservoir_factory`] | undecayed reservoir sample (Figure 3) |
//! | [`pri_sample_factory`] | `PRISAMP` priority sampling under forward decay (Figure 3) |
//! | [`wrs_factory`], [`with_replacement_factory`] | Efraimidis–Spirakis weighted reservoir (Theorem 6), sampling with replacement (Theorem 5) |
//! | [`biased_reservoir_factory`] | Aggarwal's backward-decay sampler (Figure 3) |
//! | [`fwd_quantile_factory`] | decayed quantiles via weighted q-digest (Theorem 3) |
//! | [`distinct_factory`] | decayed count-distinct (Theorem 4) |
//! | [`multi_factory`] | several of the above over the same groups |
//!
//! Forward-decayed aggregators receive the **bucket start as landmark**,
//! exactly like the paper's `time % 60` idiom; simple forward-decayed
//! aggregates are *splittable* across the two-level architecture, UDAF-style
//! summaries run at the high level only (as in the paper's setup).
//!
//! # One adapter
//!
//! Every summary has the same life — a timestamped arrival goes in with its
//! weight `g(tᵢ − L)` frozen, partial states merge by addition, and the
//! answer is divided by `g(t − L)` when the bucket closes — so the engine's
//! side of it is written once. One private adapter holds a group's state
//! `S` (the fd-core summary, or the bare `u64` / `f64` of the undecayed
//! built-ins) and an `Arc` of what is the same for every group of the
//! query (`Ops`: which field to read, how to fold it in — with a
//! Horvitz–Thompson scale if the aggregate is linear — how to answer, how
//! big it is, whether it serializes). Its [`Aggregator`] impl is the only
//! one here besides [`multi_factory`]'s composite: one `merge_boxed`
//! downcast onto [`Mergeable::merge_from`] (Section VI-B: frozen numerators
//! make forward-decay summaries mergeable, so per-shard partial buckets
//! combine losslessly), one checkpoint/restore through
//! [`fd_core::checkpoint`].
//!
//! **Adding an aggregate is one factory function**: which field to read,
//! two or three closures over the summary, and its constructor. The source
//! of [`fwd_avg_factory`] is the worked example, annotated line by line.

use std::any::Any;
use std::sync::Arc;

use fd_core::aggregates::{
    DecayedAverage, DecayedCount, DecayedExtremum, DecayedSum, DecayedVariance,
};
use fd_core::backward::{ExponentialHistogram, PrefixBackwardHH, SlidingWindowHH};
use fd_core::checkpoint::{from_bytes, require, CodecError, Decode, Encode, Reader, MAX_COUNT};
use fd_core::cm::DecayedCmHeavyHitters;
use fd_core::decay::{BackwardDecay, ForwardDecay};
use fd_core::distinct::DominanceSketch;
use fd_core::hash::mix64;
use fd_core::heavy_hitters::{DecayedHeavyHitters, HeavyHitter, UnarySpaceSaving};
use fd_core::quantiles::DecayedQuantiles;
use fd_core::sampling::{
    BiasedReservoir, PrioritySampler, ReservoirSampler, WeightedReservoir, WithReplacementSampler,
};
use fd_core::{Mergeable, Timestamp};

use crate::tuple::{self, Packet};
use crate::udaf::{write_agg, AggValue, Aggregator, AggregatorFactory, FnFactory, ItemValue};

/// A backward decay function erased to a closure, so queries can choose it
/// at runtime (the Cohen–Strauss "decay specified at query time" setting).
#[derive(Clone)]
pub struct DynBackward(Arc<dyn Fn(f64) -> f64 + Send + Sync>);

impl DynBackward {
    /// Wraps any [`BackwardDecay`] implementation.
    pub fn from_decay<F: BackwardDecay>(f: F) -> Self {
        Self(Arc::new(move |a| f.f(a)))
    }

    /// Wraps a raw function of age.
    pub fn from_fn(f: impl Fn(f64) -> f64 + Send + Sync + 'static) -> Self {
        Self(Arc::new(f))
    }
}

impl BackwardDecay for DynBackward {
    #[inline]
    fn f(&self, age: f64) -> f64 {
        (self.0)(age)
    }
}

/// Derives a per-bucket RNG seed from a base seed and the bucket's start.
fn bucket_seed(base: u64, bucket_start: Timestamp) -> u64 {
    mix64(base ^ bucket_start.as_micros() as u64)
}

// ---------------------------------------------------------------------------
// The adapter
// ---------------------------------------------------------------------------

/// What is the same for every group of a query: what the aggregate does
/// with its per-group state `S`. The factory owns it once; each group
/// points at it.
struct Ops<S, U, X, F, E> {
    /// Which field of the tuple the aggregate reads (`|_| ()` for a count).
    extract: X,
    /// Folds one arrival: `Fn(&mut S, &Packet, U)`.
    feed: F,
    /// Folds one arrival carrying a Horvitz–Thompson scale. Giving one is
    /// what makes the factory [`scalable`](AggregatorFactory::scalable).
    scaled: Option<fn(&mut S, &Packet, U, f64)>,
    /// Answers at query time `t` (seconds): `Fn(&S, f64) -> AggValue`.
    emit: E,
    /// The paper's space-per-group probe.
    size: fn(&S) -> usize,
    /// How the state crosses a checkpoint. Closures and query-time
    /// parameters (extractors, φ, the backward decay) are not captured — the
    /// factory recreates them and `read` refills only the summary state.
    write: fn(&S, &mut Vec<u8>) -> Option<()>,
    read: fn(&[u8]) -> Result<S, CodecError>,
}

/// One group's aggregation state.
struct Adapter<S, U, X, F, E> {
    state: S,
    ops: Arc<Ops<S, U, X, F, E>>,
}

impl<S, U, X, F, E> Ops<S, U, X, F, E>
where
    S: Mergeable + Send + 'static,
    U: 'static,
    X: Fn(&Packet) -> U + Send + Sync + 'static,
    F: Fn(&mut S, &Packet, U) + Send + Sync + 'static,
    E: Fn(&S, f64) -> AggValue + Send + Sync + 'static,
{
    /// An aggregate that neither scales nor checkpoints (the samplers:
    /// their reservoirs and RNGs are not encoded), until
    /// [`scaled`](Self::scaled) / [`checkpointed`](Self::checkpointed) say
    /// otherwise.
    fn new(extract: X, feed: F, emit: E, size: fn(&S) -> usize) -> Self {
        Self {
            extract,
            feed,
            scaled: None,
            emit,
            size,
            write: |_, _| None,
            read: |_| Err(CodecError::new("aggregator does not support checkpointing")),
        }
    }

    fn scaled(mut self, scaled: fn(&mut S, &Packet, U, f64)) -> Self {
        self.scaled = Some(scaled);
        self
    }

    /// Checkpoints the state through its [`fd_core::checkpoint`] encoding.
    fn checkpointed(mut self) -> Self
    where
        S: Encode + Decode,
    {
        self.write = |state, out| {
            state.put(out);
            Some(())
        };
        self.read = from_bytes;
        self
    }

    /// The factory: `new` builds a group's fresh state for the bucket
    /// starting at the given time — a decayed summary's landmark, exactly
    /// like the paper's `time % 60`.
    fn factory(
        self,
        name: &str,
        splittable: bool,
        new: impl Fn(Timestamp) -> S + Send + Sync + 'static,
    ) -> Arc<FnFactory> {
        let scalable = self.scaled.is_some();
        let ops = Arc::new(self);
        FnFactory::with_scaling(name, splittable, scalable, move |bucket_start| {
            Box::new(Adapter {
                state: new(tuple::timestamp(bucket_start)),
                ops: Arc::clone(&ops),
            })
        })
    }
}

impl<S, U, X, F, E> Aggregator for Adapter<S, U, X, F, E>
where
    S: Mergeable + Send + 'static,
    U: 'static,
    X: Fn(&Packet) -> U + Send + Sync + 'static,
    F: Fn(&mut S, &Packet, U) + Send + Sync + 'static,
    E: Fn(&S, f64) -> AggValue + Send + Sync + 'static,
{
    #[inline]
    fn update(&mut self, pkt: &Packet) {
        (self.ops.feed)(&mut self.state, pkt, (self.ops.extract)(pkt));
    }
    fn update_scaled(&mut self, pkt: &Packet, scale: f64) {
        match self.ops.scaled {
            Some(scaled) => scaled(&mut self.state, pkt, (self.ops.extract)(pkt), scale),
            // Only ever a unit scale: the engine refuses any other for a
            // factory that is not `scalable()`.
            None => self.update(pkt),
        }
    }
    fn merge_boxed(&mut self, other: Box<dyn Aggregator>) {
        let other = other
            .as_any_box()
            .downcast::<Self>()
            .expect("aggregator type mismatch");
        self.state.merge_from(&other.state);
    }
    fn emit(&self, t: f64) -> AggValue {
        (self.ops.emit)(&self.state, t)
    }
    fn size_bytes(&self) -> usize {
        (self.ops.size)(&self.state)
    }
    fn as_any_box(self: Box<Self>) -> Box<dyn Any> {
        self
    }
    fn checkpoint_into(&self, out: &mut Vec<u8>) -> Option<()> {
        (self.ops.write)(&self.state, out)
    }
    fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        self.state = (self.ops.read)(bytes)?;
        Ok(())
    }
}

/// Heavy hitters as the items of a row.
fn hitters(found: Vec<HeavyHitter>) -> AggValue {
    AggValue::Items(
        found
            .into_iter()
            .map(|h| ItemValue {
                item: h.item,
                value: h.count,
            })
            .collect(),
    )
}

/// A drawn sample as the items of a row.
fn sampled(items: impl Iterator<Item = u64>) -> AggValue {
    AggValue::Items(items.map(|item| ItemValue { item, value: 1.0 }).collect())
}

// ---------------------------------------------------------------------------
// Undecayed built-ins
// ---------------------------------------------------------------------------

/// Undecayed `count(*)` — the GSQL built-in of the paper's baseline query.
pub fn count_factory() -> Arc<FnFactory> {
    let ops = Ops::new(
        |_| (),
        |n: &mut u64, _, ()| *n += 1,
        |n, _| AggValue::Float(*n as f64),
        // The paper: "Undecayed methods store 4 byte integers".
        |_| 4,
    )
    .checkpointed();
    Ops {
        // A restored count leaves room to count on.
        read: |bytes| {
            let n = from_bytes(bytes)?;
            require(n <= MAX_COUNT, "a count past 2^62 arrivals")?;
            Ok(n)
        },
        ..ops
    }
    .factory("count", true, |_| 0u64)
}

/// Undecayed `sum(expr)` over a tuple field.
pub fn sum_factory(val: impl Fn(&Packet) -> f64 + Send + Sync + 'static) -> Arc<FnFactory> {
    Ops::new(
        val,
        |sum: &mut f64, _, v| *sum += v,
        |sum, _| AggValue::Float(*sum),
        |_| 4,
    )
    .scaled(|sum, _, v, w| *sum += v * w)
    .checkpointed()
    .factory("sum", true, |_| 0.0f64)
}

// ---------------------------------------------------------------------------
// Forward-decayed scalar aggregates (splittable)
// ---------------------------------------------------------------------------

/// Forward-decayed count (Theorem 1); splittable across LFTA/HFTA.
pub fn fwd_count_factory<G: ForwardDecay>(g: G) -> Arc<FnFactory> {
    Ops::new(
        |_| (),
        |s: &mut DecayedCount<G>, p, ()| s.update(p.timestamp()),
        |s, t| AggValue::Float(s.query(t)),
        // The paper: "forward decay stores 8 byte floating point
        // values".
        |_| 8,
    )
    .scaled(|s, p, (), w| s.update_weighted(p.timestamp(), w))
    .checkpointed()
    .factory("fwd_count", true, move |start| {
        DecayedCount::new(g.clone(), start)
    })
}

/// Forward-decayed sum over a tuple field (Theorem 1); splittable.
pub fn fwd_sum_factory<G: ForwardDecay>(
    g: G,
    val: impl Fn(&Packet) -> f64 + Send + Sync + 'static,
) -> Arc<FnFactory> {
    Ops::new(
        val,
        |s: &mut DecayedSum<G>, p, v| s.update(p.timestamp(), v),
        |s, t| AggValue::Float(s.query(t)),
        |_| 8,
    )
    .scaled(|s, p, v, w| s.update_weighted(p.timestamp(), v, w))
    .checkpointed()
    .factory("fwd_sum", true, move |start| {
        DecayedSum::new(g.clone(), start)
    })
}

/// Forward-decayed average of a tuple field (Definition 5); splittable.
pub fn fwd_avg_factory<G: ForwardDecay>(
    g: G,
    val: impl Fn(&Packet) -> f64 + Send + Sync + 'static,
) -> Arc<FnFactory> {
    Ops::new(
        // The field to read, how one arrival folds in, the answer when the
        // bucket closes at `t`, and the space probe: two 8-byte accumulators.
        val,
        |s: &mut DecayedAverage<G>, p, v| s.update(p.timestamp(), v),
        |s, t| AggValue::Float(s.query(t).unwrap_or(f64::NAN)),
        |_| 16,
    )
    // Linear in each tuple, so a 1/p scale keeps it unbiased; saying how is
    // what makes the factory `scalable()`.
    .scaled(|s, p, v, w| s.update_weighted(p.timestamp(), v, w))
    // The summary encodes, so it checkpoints (the samplers leave this out).
    .checkpointed()
    // Splittable — partial averages merge exactly — with the bucket start
    // as the landmark of each group's fresh state.
    .factory("fwd_avg", true, move |start| {
        DecayedAverage::new(g.clone(), start)
    })
}

/// Forward-decayed variance of a tuple field (Section IV-A); splittable.
pub fn fwd_var_factory<G: ForwardDecay>(
    g: G,
    val: impl Fn(&Packet) -> f64 + Send + Sync + 'static,
) -> Arc<FnFactory> {
    Ops::new(
        val,
        |s: &mut DecayedVariance<G>, p, v| s.update(p.timestamp(), v),
        |s, t| AggValue::Float(s.query(t).unwrap_or(f64::NAN)),
        |_| 24,
    )
    .checkpointed()
    .factory("fwd_var", true, move |start| {
        DecayedVariance::new(g.clone(), start)
    })
}

/// A forward-decayed extremum, `new` choosing which.
fn fwd_ext_factory<G: ForwardDecay>(
    name: &str,
    new: impl Fn(Timestamp) -> DecayedExtremum<G> + Send + Sync + 'static,
    val: impl Fn(&Packet) -> f64 + Send + Sync + 'static,
) -> Arc<FnFactory> {
    Ops::new(
        val,
        |s: &mut DecayedExtremum<G>, p, v| s.update(p.timestamp(), v),
        |s, t| AggValue::Float(s.query(t).map_or(f64::NAN, |(v, _, _)| v)),
        |_| 24,
    )
    .checkpointed()
    .factory(name, true, new)
}

/// Forward-decayed maximum of a tuple field (Definition 6); splittable.
pub fn fwd_max_factory<G: ForwardDecay>(
    g: G,
    val: impl Fn(&Packet) -> f64 + Send + Sync + 'static,
) -> Arc<FnFactory> {
    let new = move |start| DecayedExtremum::max(g.clone(), start);
    fwd_ext_factory("fwd_max", new, val)
}

/// Forward-decayed minimum of a tuple field (Definition 6); splittable.
pub fn fwd_min_factory<G: ForwardDecay>(
    g: G,
    val: impl Fn(&Packet) -> f64 + Send + Sync + 'static,
) -> Arc<FnFactory> {
    let new = move |start| DecayedExtremum::min(g.clone(), start);
    fwd_ext_factory("fwd_min", new, val)
}

// ---------------------------------------------------------------------------
// Backward-decay baselines via exponential histograms (high-level only)
// ---------------------------------------------------------------------------

/// Backward-decayed count via an exponential histogram with error `ε`; the
/// decay function is applied at query time (Cohen–Strauss). High-level only.
pub fn eh_count_factory(epsilon: f64, back: DynBackward) -> Arc<FnFactory> {
    Ops::new(
        |_| (),
        |s: &mut ExponentialHistogram, p, ()| s.insert(p.timestamp()),
        move |s, t| AggValue::Float(s.decayed_query(&back, t)),
        ExponentialHistogram::size_bytes,
    )
    .checkpointed()
    .factory("eh_count", false, move |_| {
        ExponentialHistogram::with_epsilon(epsilon)
    })
}

/// Backward-decayed sum via an exponential histogram (bucket sizes are
/// integers, hence the integer-valued field). High-level only.
pub fn eh_sum_factory(
    epsilon: f64,
    back: DynBackward,
    val: impl Fn(&Packet) -> u64 + Send + Sync + 'static,
) -> Arc<FnFactory> {
    Ops::new(
        val,
        |s: &mut ExponentialHistogram, p, v| s.insert_value(p.timestamp(), v.max(1)),
        move |s, t| AggValue::Float(s.decayed_query(&back, t)),
        ExponentialHistogram::size_bytes,
    )
    .checkpointed()
    .factory("eh_sum", false, move |_| {
        ExponentialHistogram::with_epsilon(epsilon)
    })
}

// ---------------------------------------------------------------------------
// Heavy hitters
// ---------------------------------------------------------------------------

/// Undecayed φ-heavy-hitters with the unary-optimized SpaceSaving ("Unary
/// HH" of Figure 5). High-level only, as the paper's UDAFs were.
pub fn unary_hh_factory(
    epsilon: f64,
    phi: f64,
    item: impl Fn(&Packet) -> u64 + Send + Sync + 'static,
) -> Arc<FnFactory> {
    Ops::new(
        item,
        |s: &mut UnarySpaceSaving, _, item| s.update(item),
        move |s, _| hitters(s.heavy_hitters(phi)),
        UnarySpaceSaving::size_bytes,
    )
    .checkpointed()
    .factory("unary_hh", false, move |_| {
        UnarySpaceSaving::with_epsilon(epsilon)
    })
}

/// Forward-decayed φ-heavy-hitters via weighted SpaceSaving (Theorem 2).
/// High-level only.
pub fn fwd_hh_factory<G: ForwardDecay>(
    g: G,
    epsilon: f64,
    phi: f64,
    item: impl Fn(&Packet) -> u64 + Send + Sync + 'static,
) -> Arc<FnFactory> {
    Ops::new(
        item,
        |s: &mut DecayedHeavyHitters<G>, p, item| s.update(p.timestamp(), item),
        move |s, t| hitters(s.heavy_hitters(phi, t)),
        DecayedHeavyHitters::size_bytes,
    )
    .checkpointed()
    .factory("fwd_hh", false, move |start| {
        DecayedHeavyHitters::with_epsilon(g.clone(), start, epsilon)
    })
}

/// Backward-decayed φ-heavy-hitters via the dyadic sliding-window summary
/// (the Figure 4/5 baseline): every tuple updates `levels` time-interval
/// maps. High-level only.
pub fn sw_hh_factory(
    pane_secs: f64,
    levels: usize,
    back: DynBackward,
    phi: f64,
    item: impl Fn(&Packet) -> u64 + Send + Sync + 'static,
) -> Arc<FnFactory> {
    Ops::new(
        item,
        |s: &mut SlidingWindowHH, p, item| s.update(p.timestamp(), item),
        move |s, t| hitters(s.heavy_hitters(&back, t, phi)),
        SlidingWindowHH::size_bytes,
    )
    .checkpointed()
    .factory("sw_hh", false, move |_| {
        SlidingWindowHH::new(pane_secs, levels)
    })
}

/// Forward-decayed φ-heavy-hitters backed by a Count-Min sketch — the
/// alternative backend compared against weighted SpaceSaving in the A5
/// ablation. High-level only.
pub fn cm_hh_factory<G: ForwardDecay>(
    g: G,
    phi: f64,
    epsilon: f64,
    seed: u64,
    item: impl Fn(&Packet) -> u64 + Send + Sync + 'static,
) -> Arc<FnFactory> {
    Ops::new(
        item,
        |s: &mut DecayedCmHeavyHitters<G>, p, item| s.update(p.timestamp(), item),
        |s, t| hitters(s.heavy_hitters(t)),
        DecayedCmHeavyHitters::size_bytes,
    )
    .checkpointed()
    .factory("cm_hh", false, move |start| {
        DecayedCmHeavyHitters::new(
            g.clone(),
            start,
            phi,
            epsilon,
            0.01,
            bucket_seed(seed, start),
        )
    })
}

/// Backward-decayed φ-heavy-hitters via the prefix-hierarchy structure of
/// Cormode–Korn–Tirthapura — the paper's actual Figure 4/5 baseline: every
/// tuple inserts into `domain_bits + 1` exponential histograms. High-level
/// only.
pub fn prefix_hh_factory(
    domain_bits: u32,
    epsilon: f64,
    back: DynBackward,
    phi: f64,
    item: impl Fn(&Packet) -> u64 + Send + Sync + 'static,
) -> Arc<FnFactory> {
    Ops::new(
        item,
        |s: &mut PrefixBackwardHH, p, item| s.update(p.timestamp(), item),
        move |s, t| hitters(s.heavy_hitters(&back, t, phi)),
        PrefixBackwardHH::size_bytes,
    )
    .checkpointed()
    .factory("prefix_hh", false, move |_| {
        PrefixBackwardHH::new(domain_bits, epsilon)
    })
}

// ---------------------------------------------------------------------------
// Samplers
// ---------------------------------------------------------------------------

/// Undecayed reservoir sample of size `k` (the Figure 3 baseline).
pub fn reservoir_factory(
    k: usize,
    seed: u64,
    item: impl Fn(&Packet) -> u64 + Send + Sync + 'static,
) -> Arc<FnFactory> {
    Ops::new(
        item,
        |s: &mut ReservoirSampler<u64>, _, item| s.update(item),
        |s, _| sampled(s.sample().iter().copied()),
        |s| s.capacity() * 8 + 32,
    )
    .factory("reservoir", false, move |start| {
        ReservoirSampler::new(k, bucket_seed(seed, start))
    })
}

/// Priority sampling under forward decay — the paper's `PRISAMP(srcIP,
/// exp(time % 60))` UDAF (Figure 3).
pub fn pri_sample_factory<G: ForwardDecay>(
    g: G,
    k: usize,
    seed: u64,
    item: impl Fn(&Packet) -> u64 + Send + Sync + 'static,
) -> Arc<FnFactory> {
    Ops::new(
        item,
        |s: &mut PrioritySampler<u64, G>, p, item| s.update(p.timestamp(), &item),
        |s, _| sampled(s.sample().iter().map(|e| e.item)),
        |s| s.capacity() * 32 + 64,
    )
    .factory("prisamp", false, move |start| {
        PrioritySampler::new(g.clone(), start, k, bucket_seed(seed, start))
    })
}

/// Weighted reservoir sampling (Efraimidis–Spirakis) under forward decay
/// (Theorem 6).
pub fn wrs_factory<G: ForwardDecay>(
    g: G,
    k: usize,
    seed: u64,
    item: impl Fn(&Packet) -> u64 + Send + Sync + 'static,
) -> Arc<FnFactory> {
    Ops::new(
        item,
        |s: &mut WeightedReservoir<u64, G>, p, item| s.update(p.timestamp(), &item),
        |s, _| sampled(s.sample().iter().map(|e| e.item)),
        |s| s.capacity() * 32 + 64,
    )
    .factory("wrs", false, move |start| {
        WeightedReservoir::new(g.clone(), start, k, bucket_seed(seed, start))
    })
}

/// Sampling with replacement under forward decay (Theorem 5): `s`
/// independent chains.
pub fn with_replacement_factory<G: ForwardDecay>(
    g: G,
    s: usize,
    seed: u64,
    item: impl Fn(&Packet) -> u64 + Send + Sync + 'static,
) -> Arc<FnFactory> {
    Ops::new(
        item,
        |s: &mut WithReplacementSampler<u64, G>, p, item| s.update(p.timestamp(), &item),
        |s, _| sampled(s.sample().into_iter().copied()),
        |s| s.capacity() * 16 + 48,
    )
    .factory("swr", false, move |start| {
        WithReplacementSampler::new(g.clone(), start, s, bucket_seed(seed, start))
    })
}

/// Aggarwal's biased reservoir (backward exponential decay baseline of
/// Figure 3).
pub fn biased_reservoir_factory(
    lambda: f64,
    seed: u64,
    item: impl Fn(&Packet) -> u64 + Send + Sync + 'static,
) -> Arc<FnFactory> {
    Ops::new(
        item,
        |s: &mut BiasedReservoir<u64>, _, item| s.update(item),
        |s, _| sampled(s.sample().iter().copied()),
        |s| s.capacity() * 8 + 32,
    )
    .factory("aggarwal", false, move |start| {
        BiasedReservoir::new(lambda, bucket_seed(seed, start))
    })
}

// ---------------------------------------------------------------------------
// Quantiles and count distinct
// ---------------------------------------------------------------------------

/// Forward-decayed φ-quantiles via the weighted q-digest (Theorem 3): emits
/// one `(value, φ)` item per requested quantile. Values lie in
/// `[0, 2^bits)`; a larger one saturates to `2^bits − 1`, the top of the
/// domain, rather than stopping the query. High-level only.
pub fn fwd_quantile_factory<G: ForwardDecay>(
    g: G,
    bits: u32,
    epsilon: f64,
    phis: Vec<f64>,
    val: impl Fn(&Packet) -> u64 + Send + Sync + 'static,
) -> Arc<FnFactory> {
    Ops::new(
        val,
        |s: &mut DecayedQuantiles<G>, p, v| {
            // A value past the domain counts as the largest one: the
            // digest asserts its domain, and a panic here would take
            // the worker down on every replay of the tuple.
            let top = s.inner().domain() - 1;
            s.update(p.timestamp(), v.min(top));
        },
        move |s, t| {
            let found = s.quantiles(&phis, t);
            AggValue::Items(
                phis.iter()
                    .zip(found)
                    .filter_map(|(&value, item)| Some(ItemValue { item: item?, value }))
                    .collect(),
            )
        },
        DecayedQuantiles::size_bytes,
    )
    .checkpointed()
    .factory("fwd_quantiles", false, move |start| {
        DecayedQuantiles::new(g.clone(), start, bits, epsilon)
    })
}

/// Forward-decayed count-distinct via the dominance-norm sketch
/// (Theorem 4). High-level only. All bucket instances share the hash seed
/// so partial results remain mergeable.
pub fn distinct_factory<G: ForwardDecay>(
    g: G,
    epsilon: f64,
    seed: u64,
    item: impl Fn(&Packet) -> u64 + Send + Sync + 'static,
) -> Arc<FnFactory> {
    Ops::new(
        item,
        |s: &mut DominanceSketch<G>, p, item| s.update(p.timestamp(), item),
        |s, t| AggValue::Float(s.query(t)),
        DominanceSketch::size_bytes,
    )
    .checkpointed()
    .factory("fwd_distinct", false, move |start| {
        DominanceSketch::new(g.clone(), start, epsilon, seed)
    })
}

// ---------------------------------------------------------------------------
// Multi-aggregate composition
// ---------------------------------------------------------------------------

struct MultiAgg {
    parts: Vec<Box<dyn Aggregator>>,
}

impl Aggregator for MultiAgg {
    fn update(&mut self, pkt: &Packet) {
        for p in &mut self.parts {
            p.update(pkt);
        }
    }
    fn update_scaled(&mut self, pkt: &Packet, scale: f64) {
        for p in &mut self.parts {
            p.update_scaled(pkt, scale);
        }
    }
    fn merge_boxed(&mut self, other: Box<dyn Aggregator>) {
        let o = other
            .as_any_box()
            .downcast::<Self>()
            .expect("aggregator type mismatch");
        assert_eq!(self.parts.len(), o.parts.len(), "aggregate arity mismatch");
        for (mine, theirs) in self.parts.iter_mut().zip(o.parts) {
            mine.merge_boxed(theirs);
        }
    }
    fn emit(&self, t: f64) -> AggValue {
        AggValue::Multi(self.parts.iter().map(|p| p.emit(t)).collect())
    }
    fn size_bytes(&self) -> usize {
        self.parts.iter().map(|p| p.size_bytes()).sum()
    }
    fn as_any_box(self: Box<Self>) -> Box<dyn Any> {
        self
    }
    /// A length-prefixed seq of length-prefixed part states.
    fn checkpoint_into(&self, out: &mut Vec<u8>) -> Option<()> {
        self.parts.len().put(out);
        self.parts
            .iter()
            .try_for_each(|part| write_agg(out, part.as_ref()))
    }
    /// Each part restores straight from its slice of `bytes`: the arity is
    /// checked before any is read, and nothing is copied.
    fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut r = Reader::new(bytes);
        if r.count(8)? != self.parts.len() {
            return Err(CodecError::new("aggregate arity mismatch"));
        }
        for part in &mut self.parts {
            let len = r.count(1)?;
            part.restore(r.bytes(len)?)?;
        }
        match r.remaining() {
            0 => Ok(()),
            n => Err(CodecError::new(format!(
                "{n} trailing bytes after the parts"
            ))),
        }
    }
}

/// Composes several aggregates over the same groups — GSQL's
/// `select count(*), sum(len), …` shape. Each row's value is an
/// [`AggValue::Multi`] with one entry per component, in order. The combined
/// aggregate is splittable, and scalable, only if every component is.
///
/// ```
/// use fd_engine::prelude::*;
/// use fd_core::decay::Monomial;
///
/// let combo = multi_factory(vec![
///     count_factory(),
///     fwd_sum_factory(Monomial::quadratic(), |p| p.len as f64),
/// ]);
/// assert!(combo.splittable());
/// ```
pub fn multi_factory(parts: Vec<Arc<FnFactory>>) -> Arc<FnFactory> {
    assert!(!parts.is_empty(), "need at least one component aggregate");
    let name = parts.iter().map(|p| p.name()).collect::<Vec<_>>().join("+");
    let splittable = parts.iter().all(|p| p.splittable());
    let scalable = parts.iter().all(|p| p.scalable());
    FnFactory::with_scaling(name, splittable, scalable, move |bucket_start| {
        Box::new(MultiAgg {
            parts: parts.iter().map(|p| p.make(bucket_start)).collect(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::{Micros, Proto, MICROS_PER_SEC};
    use crate::udaf::AggregatorFactory;
    use fd_core::decay::{BackExponential, Exponential, Monomial, NoDecay};

    fn pkt(ts_s: f64, dst_ip: u32, len: u32) -> Packet {
        Packet {
            ts: (ts_s * MICROS_PER_SEC as f64) as Micros,
            src_ip: dst_ip ^ 0xFFFF,
            dst_ip,
            src_port: 1,
            dst_port: 80,
            len,
            proto: Proto::Tcp,
        }
    }

    #[test]
    fn count_and_sum_builtin() {
        let cf = count_factory();
        let sf = sum_factory(|p| p.len as f64);
        let mut c = cf.make(0);
        let mut s = sf.make(0);
        for i in 0..10 {
            let p = pkt(i as f64, 1, 100);
            c.update(&p);
            s.update(&p);
        }
        assert_eq!(c.emit(60.0), AggValue::Float(10.0));
        assert_eq!(s.emit(60.0), AggValue::Float(1000.0));
        assert!(cf.splittable() && sf.splittable());
    }

    #[test]
    fn fwd_sum_matches_paper_example() {
        // Example 2: L = 100 (bucket start), g = n², t = 110.
        let f = fwd_sum_factory(Monomial::quadratic(), |p| p.len as f64);
        let mut a = f.make(100 * MICROS_PER_SEC);
        for (t, v) in [(105.0, 4), (107.0, 8), (103.0, 3), (108.0, 6), (104.0, 4)] {
            a.update(&pkt(t, 1, v));
        }
        let got = a.emit(110.0).as_float().expect("float");
        assert!((got - 9.67).abs() < 1e-9);
    }

    #[test]
    fn fwd_aggregates_merge_like_concat() {
        let f = fwd_var_factory(Exponential::new(0.1), |p| p.len as f64);
        let mut whole = f.make(0);
        let mut a = f.make(0);
        let b_box = {
            let mut b = f.make(0);
            for i in 0..50 {
                let p = pkt(i as f64, 1, 100 + (i % 7) as u32);
                whole.update(&p);
                if i % 2 == 0 {
                    a.update(&p);
                } else {
                    b.update(&p);
                }
            }
            b
        };
        // `whole` is missing the even items fed only to `a`… rebuild:
        let mut whole2 = f.make(0);
        for i in 0..50 {
            let p = pkt(i as f64, 1, 100 + (i % 7) as u32);
            whole2.update(&p);
        }
        a.merge_boxed(b_box);
        let (x, y) = (
            whole2.emit(60.0).as_float().expect("float"),
            a.emit(60.0).as_float().expect("float"),
        );
        assert!((x - y).abs() < 1e-9 * x.abs().max(1.0));
    }

    #[test]
    fn eh_count_decays_at_query_time() {
        let back = DynBackward::from_decay(BackExponential::new(0.1));
        let f = eh_count_factory(0.05, back);
        assert!(!f.splittable());
        let mut a = f.make(0);
        for i in 0..1000 {
            a.update(&pkt(i as f64 * 0.06, 1, 100));
        }
        let decayed = a.emit(60.0).as_float().expect("float");
        // Exact decayed count: Σ e^{-0.1 (60 − 0.06 i)}.
        let exact: f64 = (0..1000)
            .map(|i| (-0.1f64 * (60.0 - 0.06 * i as f64)).exp())
            .sum();
        assert!(
            (decayed - exact).abs() / exact < 0.15,
            "{decayed} vs {exact}"
        );
    }

    #[test]
    fn hh_aggregators_find_hot_host() {
        let mk_stream = || {
            (0..2000u64).map(|i| pkt(i as f64 * 0.01, if i % 2 == 0 { 42 } else { i as u32 }, 100))
        };
        for f in [
            unary_hh_factory(0.01, 0.3, |p| p.dst_host()),
            fwd_hh_factory(Monomial::quadratic(), 0.01, 0.3, |p| p.dst_host()),
            sw_hh_factory(
                5.0,
                3,
                DynBackward::from_decay(BackExponential::new(0.01)),
                0.3,
                |p| p.dst_host(),
            ),
        ] {
            let mut a = f.make(0);
            for p in mk_stream() {
                a.update(&p);
            }
            let items = a.emit(20.0);
            let hits = items.as_items().expect("items");
            assert_eq!(hits.len(), 1, "{}", f.name());
            assert_eq!(hits[0].item, 42, "{}", f.name());
        }
    }

    #[test]
    fn sampler_aggregators_emit_k_items() {
        for f in [
            reservoir_factory(50, 7, |p| p.src_host()),
            pri_sample_factory(Exponential::new(0.1), 50, 7, |p| p.src_host()),
            wrs_factory(Exponential::new(0.1), 50, 7, |p| p.src_host()),
            with_replacement_factory(NoDecay, 50, 7, |p| p.src_host()),
        ] {
            let mut a = f.make(0);
            for i in 0..5000u64 {
                a.update(&pkt(i as f64 * 0.01, i as u32, 100));
            }
            let v = a.emit(60.0);
            assert_eq!(v.as_items().expect("items").len(), 50, "{}", f.name());
        }
    }

    #[test]
    fn biased_reservoir_aggregator_runs() {
        let f = biased_reservoir_factory(0.01, 3, |p| p.src_host());
        let mut a = f.make(0);
        for i in 0..5000u64 {
            a.update(&pkt(i as f64 * 0.01, i as u32, 100));
        }
        let items = a.emit(60.0);
        assert!(items.as_items().expect("items").len() <= 100);
        assert!(!items.as_items().expect("items").is_empty());
    }

    #[test]
    fn quantile_aggregator_reports_decayed_median() {
        let f = fwd_quantile_factory(Exponential::new(0.2), 12, 0.02, vec![0.5], |p| p.len as u64);
        let mut a = f.make(0);
        for i in 0..500 {
            a.update(&pkt(i as f64 * 0.1, 1, 100)); // early small lengths
        }
        for i in 500..600 {
            a.update(&pkt(i as f64 * 0.1, 1, 1500)); // late large lengths
        }
        let items = a.emit(60.0);
        assert_eq!(items.as_items().expect("items")[0].item, 1500);
    }

    #[test]
    fn distinct_aggregator_counts_hosts() {
        let f = distinct_factory(NoDecay, 0.15, 11, |p| p.src_host());
        let mut a = f.make(0);
        for i in 0..20_000u64 {
            a.update(&pkt(i as f64 * 0.001, (i % 500) as u32, 100));
        }
        let d = a.emit(30.0).as_float().expect("float");
        assert!((d - 500.0).abs() / 500.0 < 0.35, "distinct estimate {d}");
    }

    #[test]
    fn sampler_seeds_differ_per_bucket() {
        let f = reservoir_factory(5, 7, |p| p.src_host());
        let mut a0 = f.make(0);
        let mut a1 = f.make(60 * MICROS_PER_SEC);
        for i in 0..1000u64 {
            let p = pkt(i as f64 * 0.01, i as u32, 100);
            a0.update(&p);
            a1.update(&p);
        }
        // Different seeds → almost surely different samples.
        assert_ne!(a0.emit(60.0), a1.emit(60.0));
    }

    #[test]
    fn multi_factory_composes_and_splits() {
        let combo = multi_factory(vec![
            count_factory(),
            sum_factory(|p| p.len as f64),
            fwd_sum_factory(Monomial::quadratic(), |p| p.len as f64),
        ]);
        use crate::udaf::AggregatorFactory as _;
        assert!(combo.splittable());
        assert_eq!(combo.name(), "count+sum+fwd_sum");
        let mut a = combo.make(0);
        let mut b = combo.make(0);
        for i in 0..10 {
            a.update(&pkt(i as f64, 1, 100));
            b.update(&pkt(10.0 + i as f64, 1, 100));
        }
        a.merge_boxed(b);
        let v = a.emit(60.0);
        let parts = v.as_multi().expect("multi");
        assert_eq!(parts[0].as_float(), Some(20.0));
        assert_eq!(parts[1].as_float(), Some(2000.0));
        assert!(parts[2].as_float().unwrap() > 0.0);
    }

    #[test]
    fn multi_factory_is_high_level_when_any_part_is() {
        let combo = multi_factory(vec![
            count_factory(),
            unary_hh_factory(0.1, 0.1, |p| p.dst_host()),
        ]);
        use crate::udaf::AggregatorFactory as _;
        assert!(!combo.splittable());
    }

    #[test]
    fn eh_merge_combines_counts() {
        let back = DynBackward::from_fn(|_| 1.0);
        let f = eh_count_factory(0.1, back.clone());
        let mut a = f.make(0);
        let mut b = f.make(0);
        let mut whole = f.make(0);
        for i in 0..20 {
            let p = pkt(i as f64 * 0.5, 1, 100);
            if i % 2 == 0 {
                a.update(&p);
            } else {
                b.update(&p);
            }
            whole.update(&p);
        }
        a.merge_boxed(b);
        let (AggValue::Float(merged), AggValue::Float(expected)) = (a.emit(10.0), whole.emit(10.0))
        else {
            panic!("eh count emits floats");
        };
        // EH merge is approximate: same epsilon bound as a single histogram.
        assert!((merged - expected).abs() <= 0.1 * expected + 1e-9);
    }

    #[test]
    #[should_panic(expected = "aggregator type mismatch")]
    fn merge_across_aggregator_types_panics() {
        let mut a = count_factory().make(0);
        let b = sum_factory(|p| p.len as f64).make(0);
        a.merge_boxed(b);
    }
}
