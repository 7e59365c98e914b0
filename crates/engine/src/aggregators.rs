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
//! # One definition, two holders
//!
//! Every summary has the same life — a timestamped arrival goes in with a
//! static weight, partial states merge by addition, and the answer is read
//! when the bucket closes — so the engine's side of it is written once, as
//! a private `Ops`: what is the same for every group of the query (which
//! field to read, how to fold an arrival in — with a Horvitz–Thompson scale
//! if the aggregate is linear — how to answer, how big it is, how a group's
//! fresh state is built, and how arrivals are weighed). `Ops` is the
//! by-value cell kind of the engine's group store: there a group is its
//! bare state `S`, held inline, and the store keeps the `Ops` once for all
//! of them. Every row is read at its bucket's end, so a forward-decayed
//! group weighs an arrival `a` into its bucket by `g(a) / g(W)` and holds
//! only those numerators — the [`Weighted`] summary a [`fd_core::Decayed`]
//! wraps (an average's or a variance's accumulators, [`Mean`] and
//! [`Moments`], among them), answering as that summary does ([`answer`])
//! over a denominator of 1 — while `Ops` holds the query's one `g`.
//! Merging is [`Mergeable::merge_from`] (Section VI-B: frozen numerators
//! make forward-decay summaries mergeable, so per-shard partial buckets
//! combine losslessly), and checkpointing is the state's own
//! [`fd_core::checkpoint`] encoding — every state here encodes, the
//! samplers' generators included, so every factory checkpoints.
//!
//! A bucket closes, in either mode, into one typed run of bare states,
//! which the engine evaluates and the sharded engine's combiner merges key
//! by key through these same bodies: no group is boxed to leave the store.
//!
//! [`AggregatorFactory::make`] still returns a group boxed, as a private
//! adapter over the same state whose [`Aggregator`] impl — the only one
//! here besides [`multi_factory`]'s composite — calls the same bodies. It
//! knows no bucket width, so it holds the state in fd-core's standalone
//! form (a [`fd_core::Decayed`], whose Section VI-A renormalizer answers an
//! unbounded stream at any `t`); an engine store that makes one gives it
//! its width ([`Aggregator::set_bucket_width`]), and from then on it weighs,
//! writes and answers as the by-value cell does. It is what
//! `multi_factory`'s parts hold and what a caller of `make` gets; its
//! `merge_boxed` downcast, and the composite's, are reached only through
//! that public method, never from close, hand-off, persist or combine.
//!
//! **Adding an aggregate is one factory function**: which field to read,
//! two or three closures over the summary, and its constructor. The source
//! of [`fwd_avg_factory`] is the worked example, annotated line by line.

use std::any::Any;
use std::sync::Arc;

use fd_core::aggregates::{Accumulator, Extremal, Mean, Moments};
use fd_core::backward::{ExponentialHistogram, PrefixBackwardHH, SlidingWindowHH};
use fd_core::checkpoint::{from_bytes, require, CodecError, Decode, Encode, Reader, MAX_COUNT};
use fd_core::cm::{CmCandidates, DecayedCmHeavyHitters};
use fd_core::decay::{clamp_to_landmark, BackwardDecay, ForwardDecay};
use fd_core::decayed::{self, answer, Decayed, Numerators, Weighted};
use fd_core::distinct::DominanceSketch;
use fd_core::hash::mix64;
use fd_core::heavy_hitters::{
    DecayedHeavyHitters, HeavyHitter, UnarySpaceSaving, WeightedSpaceSaving,
};
use fd_core::quantiles::{DecayedQuantiles, QDigest};
use fd_core::sampling::{
    BiasedReservoir, PrioritySampler, ReservoirSampler, WeightedReservoir, WithReplacementSampler,
};
use fd_core::{Error, Mergeable, Timestamp};

use crate::groups::{Arrival, Cells, Store};
use crate::tuple::{self, Micros, Packet};
use crate::udaf::{put_framed, AggValue, Aggregator, AggregatorFactory, FnFactory, ItemValue};

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

/// How a query's groups weigh their arrivals: not at all (`()`: the
/// undecayed built-ins, and the samplers and count-distinct, which keep
/// their own `g`), or by the query's one forward decay `g` relative to
/// their bucket's end ([`Fwd`]). A bucket is given by its start and its
/// width (µs). The defaults are the undecayed ones.
trait Weighing<S>: Send + Sync + 'static {
    /// What an answer is given: the query time, or `g(t − L) / g(W)`.
    type Query;
    /// A group's state as `make` builds it outside a store: the bare state,
    /// or the state under fd-core's standalone clock (`Decayed`), which
    /// answers at any `t`.
    type Alone: Mergeable + Encode + Decode + Send + 'static;
    fn alone(&self, start: Timestamp, state: S) -> Self::Alone;
    /// Folds an arrival at `t` into `alone` with `feed`.
    fn fold_alone(&self, alone: &mut Self::Alone, t: Timestamp, feed: impl FnOnce(&mut S, Arrival));
    fn alone_state<'a>(&self, alone: &'a Self::Alone) -> &'a S;
    fn alone_query(&self, alone: &Self::Alone, t: f64) -> Self::Query;
    /// An arrival at `t` in the bucket.
    fn arrive(&self, start: Micros, width: Micros, t: Timestamp) -> Arrival;
    /// What the answer at `t` of a group of the bucket is given.
    fn query(&self, start: Micros, width: Micros, t: f64) -> Self::Query;
    fn put(&self, state: &S, out: &mut Vec<u8>);
    fn take(&self, bytes: &[u8]) -> Result<S, CodecError>;
    /// Appends the encoding of `g`.
    fn put_decay(&self, _out: &mut Vec<u8>) {}
    /// The numeric contract of the weights over one bucket's horizon.
    fn check(&self, _horizon_secs: f64) -> Result<(), Error> {
        Ok(())
    }
}

impl<S: Mergeable + Encode + Decode + Send + 'static> Weighing<S> for () {
    type Query = f64;
    type Alone = S;
    fn alone(&self, _: Timestamp, state: S) -> S {
        state
    }
    fn fold_alone(&self, state: &mut S, t: Timestamp, feed: impl FnOnce(&mut S, Arrival)) {
        feed(state, (t, 1.0));
    }
    fn alone_state<'a>(&self, state: &'a S) -> &'a S {
        state
    }
    fn alone_query(&self, _: &S, t: f64) -> f64 {
        t
    }
    fn arrive(&self, _: Micros, _: Micros, t: Timestamp) -> Arrival {
        (t, 1.0)
    }
    fn query(&self, _: Micros, _: Micros, t: f64) -> f64 {
        t
    }
    fn put(&self, state: &S, out: &mut Vec<u8>) {
        state.put(out);
    }
    fn take(&self, bytes: &[u8]) -> Result<S, CodecError> {
        from_bytes(bytes)
    }
}

/// The query's one forward decay `g` (Definition 3), and whether the answer
/// is a ratio of weights ([`check_horizon`](decayed::check_horizon)).
struct Fwd<G> {
    g: G,
    ratio: bool,
}

impl<G: ForwardDecay> Fwd<G> {
    /// An answer that is a decayed sum: the count, the sum, an extremum.
    fn new(g: G) -> Self {
        Self { g, ratio: false }
    }

    /// An answer that is a ratio of weights: an average, a variance, heavy
    /// hitters' shares, quantiles' ranks.
    fn ratio(g: G) -> Self {
        Self { g, ratio: true }
    }
}

/// An arrival `a` into a bucket `W` wide weighs `g(a) / g(W)`, its landmark
/// the bucket start — exactly like the paper's `time % 60` — and its row,
/// answered at the bucket's end, is its numerators as they stand.
impl<G: ForwardDecay, S: Weighted + Numerators> Weighing<S> for Fwd<G> {
    type Query = Option<f64>;
    type Alone = Decayed<G, S>;
    fn alone(&self, start: Timestamp, state: S) -> Decayed<G, S> {
        Decayed::wrap(self.g.clone(), start, state)
    }
    fn fold_alone(
        &self,
        alone: &mut Decayed<G, S>,
        t: Timestamp,
        feed: impl FnOnce(&mut S, Arrival),
    ) {
        alone.update_with(t, |state, t, w| feed(state, (t, w)));
    }
    fn alone_state<'a>(&self, alone: &'a Decayed<G, S>) -> &'a S {
        alone.inner()
    }
    fn alone_query(&self, alone: &Decayed<G, S>, t: f64) -> Option<f64> {
        alone.denominator(t)
    }
    #[inline]
    fn arrive(&self, start: Micros, width: Micros, t: Timestamp) -> Arrival {
        let landmark = tuple::timestamp(start);
        let t = clamp_to_landmark(t, landmark);
        let age = t.as_micros() - landmark.as_micros();
        (t, self.g.relative_weight(age as u64, width))
    }
    /// `g(t − L) / g(W)`: exactly 1 at the bucket's end, where the engine
    /// reads every row, in the log domain at any other `t`, and `None`
    /// where it is zero.
    fn query(&self, start: Micros, width: Micros, t: f64) -> Option<f64> {
        if t == tuple::secs(start.saturating_add(width)) {
            return Some(1.0);
        }
        let (age, width) = (t - tuple::timestamp(start), width as f64 * 1e-6);
        let denom = (self.g.ln_g(age) - self.g.ln_g(width)).exp();
        (denom != 0.0).then_some(denom)
    }
    fn put(&self, state: &S, out: &mut Vec<u8>) {
        state.put_fields(out);
    }
    fn take(&self, bytes: &[u8]) -> Result<S, CodecError> {
        let mut r = Reader::new(bytes);
        let state = S::take_fields(&mut r)?;
        match r.remaining() {
            0 => Ok(state),
            n => Err(CodecError::new(format!("{n} trailing bytes after a state"))),
        }
    }
    fn put_decay(&self, out: &mut Vec<u8>) {
        self.g.put(out);
    }
    fn check(&self, horizon_secs: f64) -> Result<(), Error> {
        decayed::check_horizon(&self.g, horizon_secs, self.ratio)
    }
}

/// What is the same for every group of a query: what the aggregate does
/// with its per-group state `S`, how a group's fresh state is built, and
/// how arrivals are weighed (`W`). The factory owns it once; the engine's
/// by-value group store and every boxed [`Adapter`] point at it.
struct Ops<S, U, X, F, E, N, W> {
    /// Which field of the tuple the aggregate reads (`|_| ()` for a count).
    extract: X,
    /// Folds one arrival, its time and weight and the field read:
    /// `Fn(&mut S, Arrival, U)`.
    feed: F,
    /// Folds one arrival carrying a Horvitz–Thompson scale. Giving one is
    /// what makes the factory [`scalable`](AggregatorFactory::scalable).
    scaled: Option<fn(&mut S, Arrival, U, f64)>,
    /// Answers at query time: `Fn(&S, W::Query) -> AggValue`.
    answer: E,
    /// The paper's space-per-group probe.
    space: fn(&S) -> usize,
    /// A group's fresh state for the bucket starting at the given time.
    fresh: N,
    weigh: W,
}

impl<S, U, X, F, E, W> Ops<S, U, X, F, E, (), W> {
    /// An aggregate weighed by `weigh` that does not scale, until
    /// [`scaled`](Self::scaled) says how.
    fn new(weigh: W, extract: X, feed: F, answer: E, space: fn(&S) -> usize) -> Self
    where
        W: Weighing<S>,
        X: Fn(&Packet) -> U,
        F: Fn(&mut S, Arrival, U),
        E: Fn(&S, W::Query) -> AggValue,
    {
        Ops {
            extract,
            feed,
            scaled: None,
            answer,
            space,
            fresh: (),
            weigh,
        }
    }

    fn scaled(mut self, scaled: fn(&mut S, Arrival, U, f64)) -> Self {
        self.scaled = Some(scaled);
        self
    }

    /// The factory: `fresh` builds a group's state for the bucket starting
    /// at the given time. The engine holds its groups by value; `make`
    /// boxes one state in an [`Adapter`].
    fn factory<N>(self, name: &str, splittable: bool, fresh: N) -> Arc<FnFactory>
    where
        Adapter<S, U, X, F, E, N, W>: Aggregator,
        Arc<Ops<S, U, X, F, E, N, W>>: Cells<Cell = S> + Sync,
        N: Fn(Timestamp) -> S,
        W: Weighing<S>,
    {
        let ops = Arc::new(Ops {
            extract: self.extract,
            feed: self.feed,
            scaled: self.scaled,
            answer: self.answer,
            space: self.space,
            fresh,
            weigh: self.weigh,
        });
        let (boxing, checking) = (Arc::clone(&ops), Arc::clone(&ops));
        FnFactory::built(
            name,
            splittable,
            ops.scaled.is_some(),
            move |start| -> Box<dyn Aggregator> {
                let alone = (boxing.fresh)(tuple::timestamp(start));
                Box::new(Adapter {
                    held: Held::Alone(boxing.weigh.alone(tuple::timestamp(start), alone)),
                    ops: Arc::clone(&boxing),
                    start,
                })
            },
            Some(Box::new(move |query| {
                Box::new(Store::new(Arc::clone(&ops), query))
            })),
            Some(Box::new(move |horizon| checking.weigh.check(horizon))),
        )
    }
}

/// The by-value cells: a group is its bare state `S`. These bodies are the
/// aggregate's one definition — the boxed [`Adapter`] calls them too.
impl<S, U, X, F, E, N, W> Cells for Arc<Ops<S, U, X, F, E, N, W>>
where
    S: Mergeable + Send + 'static,
    U: 'static,
    X: Fn(&Packet) -> U + Send + Sync + 'static,
    F: Fn(&mut S, Arrival, U) + Send + Sync + 'static,
    E: Fn(&S, W::Query) -> AggValue + Send + Sync + 'static,
    N: Fn(Timestamp) -> S + Send + Sync + 'static,
    W: Weighing<S>,
{
    type Cell = S;
    #[inline]
    fn make(&self, start: Micros, _: Micros) -> S {
        (self.fresh)(tuple::timestamp(start))
    }
    #[inline]
    fn arrive(&self, start: Micros, width: Micros, pkt: &Packet) -> Arrival {
        self.weigh.arrive(start, width, pkt.timestamp())
    }
    #[inline]
    fn update(&self, state: &mut S, pkt: &Packet, at: Arrival) {
        (self.feed)(state, at, (self.extract)(pkt));
    }
    #[inline]
    fn update_scaled(&self, state: &mut S, pkt: &Packet, at: Arrival, scale: f64) {
        match self.scaled {
            Some(scaled) => scaled(state, at, (self.extract)(pkt), scale),
            // Only ever a unit scale: the engine refuses any other for a
            // factory that is not `scalable()`.
            None => self.update(state, pkt, at),
        }
    }
    #[inline]
    fn merge(&self, into: &mut S, from: S) {
        into.merge_from(&from);
    }
    #[inline]
    fn emit(&self, state: &S, start: Micros, width: Micros, t: f64) -> AggValue {
        (self.answer)(state, self.weigh.query(start, width, t))
    }
    #[inline]
    fn size(&self, state: &S) -> usize {
        (self.space)(state)
    }
    /// The summary state alone: closures and query-time parameters
    /// (extractors, φ, the backward decay, `g`) are the factory's to
    /// recreate.
    fn put(&self, state: &S, out: &mut Vec<u8>) -> Option<()> {
        self.weigh.put(state, out);
        Some(())
    }
    fn take(&self, _: Micros, _: Micros, bytes: &[u8]) -> Result<S, CodecError> {
        self.weigh.take(bytes)
    }
    fn put_decay(&self, out: &mut Vec<u8>) {
        self.weigh.put_decay(out);
    }
}

/// One group's state boxed: what `make` returns.
struct Adapter<S, U, X, F, E, N, W: Weighing<S>> {
    ops: Arc<Ops<S, U, X, F, E, N, W>>,
    /// The start of its bucket.
    start: Micros,
    held: Held<S, W::Alone>,
}

/// A boxed group's state: outside a store, as `make` built it, in
/// fd-core's standalone form; inside one, told its bucket's width, the
/// bare state the by-value cell is, weighed and written as that is.
enum Held<S, A> {
    Alone(A),
    Within(Micros, S),
}

impl<S, U, X, F, E, N, W> Adapter<S, U, X, F, E, N, W>
where
    W: Weighing<S>,
    Arc<Ops<S, U, X, F, E, N, W>>: Cells<Cell = S>,
{
    /// Folds one tuple in, with a Horvitz–Thompson scale if it has one.
    fn fold(&mut self, pkt: &Packet, scale: Option<f64>) {
        let ops = &self.ops;
        let fold = |state: &mut S, at| match scale {
            None => ops.update(state, pkt, at),
            Some(scale) => ops.update_scaled(state, pkt, at, scale),
        };
        match &mut self.held {
            Held::Alone(alone) => ops.weigh.fold_alone(alone, pkt.timestamp(), fold),
            Held::Within(width, state) => fold(state, ops.arrive(self.start, *width, pkt)),
        }
    }
}

impl<S, U, X, F, E, N, W> Aggregator for Adapter<S, U, X, F, E, N, W>
where
    S: Send + 'static,
    U: 'static,
    X: Send + Sync + 'static,
    F: Send + Sync + 'static,
    E: Fn(&S, W::Query) -> AggValue + Send + Sync + 'static,
    N: Send + Sync + 'static,
    W: Weighing<S>,
    Arc<Ops<S, U, X, F, E, N, W>>: Cells<Cell = S>,
{
    #[inline]
    fn update(&mut self, pkt: &Packet) {
        self.fold(pkt, None);
    }
    fn update_scaled(&mut self, pkt: &Packet, scale: f64) {
        self.fold(pkt, Some(scale));
    }
    fn merge_boxed(&mut self, other: Box<dyn Aggregator>) {
        let other = other
            .as_any_box()
            .downcast::<Self>()
            .expect("aggregator type mismatch");
        match (&mut self.held, other.held) {
            (Held::Alone(ours), Held::Alone(theirs)) => ours.merge_from(&theirs),
            (Held::Within(_, ours), Held::Within(_, theirs)) => self.ops.merge(ours, theirs),
            _ => panic!("a group outside a store merged with one inside"),
        }
    }
    fn emit(&self, t: f64) -> AggValue {
        match &self.held {
            Held::Alone(alone) => {
                let weigh = &self.ops.weigh;
                (self.ops.answer)(weigh.alone_state(alone), weigh.alone_query(alone, t))
            }
            Held::Within(width, state) => self.ops.emit(state, self.start, *width, t),
        }
    }
    fn size_bytes(&self) -> usize {
        match &self.held {
            Held::Alone(alone) => self.ops.size(self.ops.weigh.alone_state(alone)),
            Held::Within(_, state) => self.ops.size(state),
        }
    }
    fn as_any_box(self: Box<Self>) -> Box<dyn Any> {
        self
    }
    fn checkpoint_into(&self, out: &mut Vec<u8>) -> Option<()> {
        match &self.held {
            Held::Alone(alone) => alone.put(out),
            Held::Within(_, state) => self.ops.weigh.put(state, out),
        }
        Some(())
    }
    fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        match &mut self.held {
            Held::Alone(alone) => *alone = from_bytes(bytes)?,
            Held::Within(_, state) => *state = self.ops.weigh.take(bytes)?,
        }
        Ok(())
    }
    fn set_bucket_width(&mut self, width: Micros) {
        self.held = Held::Within(width, self.ops.make(self.start, width));
    }
    fn put_decay(&self, out: &mut Vec<u8>) {
        self.ops.weigh.put_decay(out);
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

/// An undecayed count: a `u64` whose restore leaves room to count on.
struct Count {
    n: u64,
}

fd_core::codec_struct!(Count { n: u64 }
    check |c| require(c.n <= MAX_COUNT, "a count past 2^62 arrivals"));

impl Mergeable for Count {
    fn merge_from(&mut self, other: &Self) {
        self.n += other.n;
    }
}

/// Undecayed `count(*)` — the GSQL built-in of the paper's baseline query.
pub fn count_factory() -> Arc<FnFactory> {
    Ops::new(
        (),
        |_| (),
        |c: &mut Count, _, ()| c.n += 1,
        |c, _| AggValue::Float(c.n as f64),
        // The paper: "Undecayed methods store 4 byte integers".
        |_| 4,
    )
    .factory("count", true, |_| Count { n: 0 })
}

/// Undecayed `sum(expr)` over a tuple field.
pub fn sum_factory(val: impl Fn(&Packet) -> f64 + Send + Sync + 'static) -> Arc<FnFactory> {
    Ops::new(
        (),
        val,
        |sum: &mut f64, _, v| *sum += v,
        |sum, _| AggValue::Float(*sum),
        |_| 4,
    )
    .scaled(|sum, _, v, w| *sum += v * w)
    .factory("sum", true, |_| 0.0f64)
}

// ---------------------------------------------------------------------------
// Forward-decayed scalar aggregates (splittable)
// ---------------------------------------------------------------------------

/// Forward-decayed count (Theorem 1); splittable across LFTA/HFTA.
pub fn fwd_count_factory<G: ForwardDecay>(g: G) -> Arc<FnFactory> {
    Ops::new(
        Fwd::new(g),
        |_| (),
        |s: &mut Accumulator<()>, (t, w), ()| s.add(t, (), w),
        |s, d| AggValue::Float(answer(s, d)),
        // The paper: "forward decay stores 8 byte floating point
        // values".
        |_| 8,
    )
    .scaled(|s, (t, w), (), scale| s.add(t, (), w * scale))
    .factory("fwd_count", true, Accumulator::new)
}

/// Forward-decayed sum over a tuple field (Theorem 1); splittable.
pub fn fwd_sum_factory<G: ForwardDecay>(
    g: G,
    val: impl Fn(&Packet) -> f64 + Send + Sync + 'static,
) -> Arc<FnFactory> {
    Ops::new(
        Fwd::new(g),
        val,
        |s: &mut Accumulator<f64>, (t, w), v| s.add(t, v, w),
        |s, d| AggValue::Float(answer(s, d)),
        |_| 8,
    )
    .scaled(|s, (t, w), v, scale| s.add(t, v * scale, w))
    .factory("fwd_sum", true, Accumulator::new)
}

/// Forward-decayed average of a tuple field (Definition 5); splittable.
pub fn fwd_avg_factory<G: ForwardDecay>(
    g: G,
    val: impl Fn(&Packet) -> f64 + Send + Sync + 'static,
) -> Arc<FnFactory> {
    Ops::new(
        // The query's one `g`, the field to read, how one arrival — its
        // time and static weight `g(a) / g(W)` — folds into a sum and a
        // count, the answer when the bucket closes (what
        // `DecayedAverage::query` answers), and the space probe: two 8-byte
        // accumulators.
        Fwd::ratio(g),
        val,
        |s: &mut Mean, (t, w), v| s.add(t, v, w),
        |s, d| AggValue::Float(answer(s, d).unwrap_or(f64::NAN)),
        |_| 16,
    )
    // Linear in each tuple, so a 1/p scale keeps it unbiased; saying how is
    // what makes the factory `scalable()`.
    .scaled(|s, (t, w), v, scale| s.add_scaled(t, v, w, scale))
    // Splittable — partial averages merge exactly — and each group's fresh
    // state is two empty accumulators.
    .factory("fwd_avg", true, Mean::new)
}

/// Forward-decayed variance of a tuple field (Section IV-A); splittable.
pub fn fwd_var_factory<G: ForwardDecay>(
    g: G,
    val: impl Fn(&Packet) -> f64 + Send + Sync + 'static,
) -> Arc<FnFactory> {
    Ops::new(
        Fwd::ratio(g),
        val,
        |s: &mut Moments, (t, w), v| s.add(t, v, w),
        |s, d| AggValue::Float(answer(s, d).unwrap_or(f64::NAN)),
        |_| 24,
    )
    .factory("fwd_var", true, Moments::new)
}

/// A forward-decayed extremum, `new` choosing which.
fn fwd_ext_factory<G: ForwardDecay>(
    name: &str,
    new: fn() -> Extremal,
    g: G,
    val: impl Fn(&Packet) -> f64 + Send + Sync + 'static,
) -> Arc<FnFactory> {
    Ops::new(
        Fwd::new(g),
        val,
        |s: &mut Extremal, (t, w), v| s.add(t, v, w),
        |s, d| AggValue::Float(answer(s, d).map_or(f64::NAN, |(v, _, _)| v)),
        |_| 24,
    )
    .factory(name, true, move |_| new())
}

/// Forward-decayed maximum of a tuple field (Definition 6); splittable.
pub fn fwd_max_factory<G: ForwardDecay>(
    g: G,
    val: impl Fn(&Packet) -> f64 + Send + Sync + 'static,
) -> Arc<FnFactory> {
    fwd_ext_factory("fwd_max", Extremal::max, g, val)
}

/// Forward-decayed minimum of a tuple field (Definition 6); splittable.
pub fn fwd_min_factory<G: ForwardDecay>(
    g: G,
    val: impl Fn(&Packet) -> f64 + Send + Sync + 'static,
) -> Arc<FnFactory> {
    fwd_ext_factory("fwd_min", Extremal::min, g, val)
}

// ---------------------------------------------------------------------------
// Backward-decay baselines via exponential histograms (high-level only)
// ---------------------------------------------------------------------------

/// Backward-decayed count via an exponential histogram with error `ε`; the
/// decay function is applied at query time (Cohen–Strauss). High-level only.
pub fn eh_count_factory(epsilon: f64, back: DynBackward) -> Arc<FnFactory> {
    Ops::new(
        (),
        |_| (),
        |s: &mut ExponentialHistogram, (t, _), ()| s.insert(t),
        move |s, t| AggValue::Float(s.decayed_query(&back, t)),
        ExponentialHistogram::size_bytes,
    )
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
        (),
        val,
        |s: &mut ExponentialHistogram, (t, _), v| s.insert_value(t, v.max(1)),
        move |s, t| AggValue::Float(s.decayed_query(&back, t)),
        ExponentialHistogram::size_bytes,
    )
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
        (),
        item,
        |s: &mut UnarySpaceSaving, _, item| s.update(item),
        move |s, _| hitters(s.heavy_hitters(phi)),
        UnarySpaceSaving::size_bytes,
    )
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
        Fwd::ratio(g),
        item,
        |s: &mut WeightedSpaceSaving, (t, w), item| s.add(t, item, w),
        move |s, d| hitters(s.heavy_hitters_over(phi, d)),
        // As the standalone summary counts itself, clock included.
        |s| s.size_bytes() + std::mem::size_of::<DecayedHeavyHitters<G>>(),
    )
    .factory("fwd_hh", false, move |_| {
        WeightedSpaceSaving::with_epsilon(epsilon)
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
        (),
        item,
        |s: &mut SlidingWindowHH, (t, _), item| s.update(t, item),
        move |s, t| hitters(s.heavy_hitters(&back, t, phi)),
        SlidingWindowHH::size_bytes,
    )
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
        Fwd::ratio(g),
        item,
        |s: &mut CmCandidates, (t, w), item| s.add(t, item, w),
        |s, d| hitters(s.heavy_hitters_over(d)),
        |s| s.size_bytes() + std::mem::size_of::<DecayedCmHeavyHitters<G>>(),
    )
    .factory("cm_hh", false, move |start| {
        CmCandidates::new(phi, epsilon, 0.01, bucket_seed(seed, start))
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
        (),
        item,
        |s: &mut PrefixBackwardHH, (t, _), item| s.update(t, item),
        move |s, t| hitters(s.heavy_hitters(&back, t, phi)),
        PrefixBackwardHH::size_bytes,
    )
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
        (),
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
        (),
        item,
        |s: &mut PrioritySampler<u64, G>, (t, _), item| s.update(t, &item),
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
        (),
        item,
        |s: &mut WeightedReservoir<u64, G>, (t, _), item| s.update(t, &item),
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
        (),
        item,
        |s: &mut WithReplacementSampler<u64, G>, (t, _), item| s.update(t, &item),
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
        (),
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
        Fwd::ratio(g),
        val,
        |s: &mut QDigest, (t, w), v| {
            // A value past the domain counts as the largest one: the
            // digest asserts its domain, and a panic here would take
            // the worker down on every replay of the tuple.
            let top = s.domain() - 1;
            s.add(t, v.min(top), w);
        },
        // The `g(t − L)` factor cancels between rank and count.
        move |s, _| {
            let found = s.quantiles(&phis);
            AggValue::Items(
                phis.iter()
                    .zip(found)
                    .filter_map(|(&value, item)| Some(ItemValue { item: item?, value }))
                    .collect(),
            )
        },
        |s| s.size_bytes() + std::mem::size_of::<DecayedQuantiles<G>>(),
    )
    .factory("fwd_quantiles", false, move |_| {
        QDigest::with_epsilon(bits, epsilon)
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
        (),
        item,
        |s: &mut DominanceSketch<G>, (t, _), item| s.update(t, item),
        |s, t| AggValue::Float(s.query(t)),
        DominanceSketch::size_bytes,
    )
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
            .try_for_each(|part| put_framed(out, |out| part.checkpoint_into(out)))
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
    fn set_bucket_width(&mut self, width: Micros) {
        (self.parts.iter_mut()).for_each(|part| part.set_bucket_width(width));
    }
    /// Each part's, in order.
    fn put_decay(&self, out: &mut Vec<u8>) {
        self.parts.iter().for_each(|part| part.put_decay(out));
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
    let checked = parts.clone();
    let make = move |bucket_start| -> Box<dyn Aggregator> {
        Box::new(MultiAgg {
            parts: parts.iter().map(|p| p.make(bucket_start)).collect(),
        })
    };
    let horizon = move |h| checked.iter().try_for_each(|p| p.check_horizon(h));
    FnFactory::built(
        name,
        splittable,
        scalable,
        make,
        None,
        Some(Box::new(horizon)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::{Micros, Proto, MICROS_PER_SEC};
    use crate::udaf::AggregatorFactory;
    use fd_core::decay::{AnyDecay, BackExponential, Exponential, Monomial, NoDecay};

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
    fn a_group_told_its_bucket_width_answers_as_the_standalone_one() {
        // Bucket [100 s, 160 s): weighed against its end, a group answers
        // what fd-core's standalone clock answers, at the end and at any
        // other query time, and writes no clock.
        for g in [
            AnyDecay::Monomial(Monomial::quadratic()),
            AnyDecay::Exponential(Exponential::new(0.5)),
        ] {
            let f = fwd_sum_factory(g, |p| p.len as f64);
            let (mut alone, mut within) =
                (f.make(100 * MICROS_PER_SEC), f.make(100 * MICROS_PER_SEC));
            within.set_bucket_width(60 * MICROS_PER_SEC);
            for i in 0..50 {
                let p = pkt(100.0 + i as f64 * 1.1, 1, 40 + i);
                alone.update(&p);
                within.update(&p);
            }
            for t in [160.0, 130.0, 400.0] {
                let (a, w) = (
                    alone.emit(t).as_float().unwrap(),
                    within.emit(t).as_float().unwrap(),
                );
                assert!((a - w).abs() <= 1e-12 * a.abs(), "at {t}: {a} vs {w}");
            }
            let (mut a, mut w) = (Vec::new(), Vec::new());
            alone.checkpoint_into(&mut a).expect("checkpoint");
            within.checkpoint_into(&mut w).expect("checkpoint");
            assert!(
                w.len() < a.len(),
                "{} bytes within, {} alone",
                w.len(),
                a.len()
            );
        }
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
    fn a_decayed_cell_is_its_numerators_alone() {
        // `g` is the query's and the clock its bucket's: the cells of the
        // group store (an LFTA slot holds one as an optional partial) carry
        // neither. With both, `fwd_sum`'s cell was 72 bytes, its page entry
        // 80 and its LFTA slot 88.
        use crate::lfta::Partial;
        use std::mem::size_of;
        type Sum = Accumulator<f64>;
        assert!(size_of::<Sum>() <= 24, "fwd_sum cell");
        assert!(size_of::<(u64, Sum)>() <= 32, "fwd_sum page entry");
        assert!(size_of::<Option<Partial<Sum>>>() <= 48, "fwd_sum LFTA slot");
        assert!(size_of::<Mean>() <= 48, "fwd_avg cell");
        assert!(size_of::<Moments>() <= 72, "fwd_var cell");
    }

    #[test]
    #[should_panic(expected = "aggregator type mismatch")]
    fn merge_across_aggregator_types_panics() {
        let mut a = count_factory().make(0);
        let b = sum_factory(|p| p.len as f64).make(0);
        a.merge_boxed(b);
    }
}
