//! Ready-made aggregator factories: every fd-core summary wired into the
//! engine's UDAF interface, plus the undecayed built-ins.
//!
//! Each `*_factory` function returns an [`AggregatorFactory`](crate::udaf::AggregatorFactory) ready to plug
//! into [`crate::udaf::QueryBuilder::aggregate`]. Factories correspond
//! one-to-one to the algorithms of the paper's experiments:
//!
//! | factory | paper role |
//! |---|---|
//! | [`count_factory`], [`sum_factory`] | undecayed GSQL `count(*)` / `sum(len)` (Figure 2 baseline) |
//! | [`fwd_count_factory`], [`fwd_sum_factory`] | forward-decayed count/sum, "poly"/"exp" curves of Figure 2 |
//! | [`eh_count_factory`], [`eh_sum_factory`] | backward decay via exponential histograms (Figure 2) |
//! | [`unary_hh_factory`] | "Unary HH" unweighted SpaceSaving (Figure 5) |
//! | [`fwd_hh_factory`] | weighted SpaceSaving under forward decay (Figures 4, 5) |
//! | [`cm_hh_factory`] | Count-Min backed decayed heavy hitters (ablation A5) |
//! | [`prefix_hh_factory`] | CKT prefix-hierarchy backward heavy hitters (Figures 4, 5) |
//! | [`sw_hh_factory`] | dyadic-time sliding-window backward heavy hitters |
//! | [`reservoir_factory`] | undecayed reservoir sample (Figure 3) |
//! | [`pri_sample_factory`] | `PRISAMP` priority sampling under forward decay (Figure 3) |
//! | [`wrs_factory`] | Efraimidis–Spirakis weighted reservoir (Theorem 6) |
//! | [`biased_reservoir_factory`] | Aggarwal's backward-decay sampler (Figure 3) |
//! | [`fwd_quantile_factory`] | decayed quantiles via weighted q-digest (Theorem 3) |
//! | [`distinct_factory`] | decayed count-distinct (Theorem 4) |
//!
//! Forward-decayed aggregators receive the **bucket start as landmark**,
//! exactly like the paper's `time % 60` idiom; simple forward-decayed
//! aggregates are *splittable* across the two-level architecture, UDAF-style
//! summaries run at the high level only (as in the paper's setup). Every
//! aggregator supports [`Aggregator::merge_boxed`], so per-shard partial
//! buckets combine losslessly (Section VI-B: frozen numerators make forward
//! decay summaries mergeable).

use std::any::Any;
use std::sync::Arc;

use fd_core::aggregates::{
    DecayedAverage, DecayedCount, DecayedExtremum, DecayedSum, DecayedVariance,
};
use fd_core::backward::{ExponentialHistogram, PrefixBackwardHH, SlidingWindowHH};
use fd_core::cm::DecayedCmHeavyHitters;
use fd_core::decay::{BackwardDecay, ForwardDecay};
use fd_core::distinct::DominanceSketch;
use fd_core::hash::mix64;
use fd_core::heavy_hitters::{DecayedHeavyHitters, UnarySpaceSaving};
use fd_core::quantiles::DecayedQuantiles;
use fd_core::sampling::{
    BiasedReservoir, PrioritySampler, ReservoirSampler, WeightedReservoir, WithReplacementSampler,
};
use fd_core::Mergeable;

use crate::tuple::{self, Packet};
use crate::udaf::{AggValue, Aggregator, FnFactory, ItemValue};

/// A value extractor: which numeric field of the tuple an aggregate sums.
pub type ValFn = Arc<dyn Fn(&Packet) -> f64 + Send + Sync>;
/// An item extractor: which field a heavy-hitter / sampler / distinct
/// aggregate operates over.
pub type ItemFn = Arc<dyn Fn(&Packet) -> u64 + Send + Sync>;

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

/// Derives a per-bucket RNG seed from a base seed.
fn bucket_seed(base: u64, bucket_start: u64) -> u64 {
    mix64(base ^ bucket_start)
}

/// Implements [`Aggregator::checkpoint`] / [`Aggregator::restore`] by
/// serializing the adapter's `inner` fd-core summary through
/// [`fd_core::checkpoint`]. Closures and query-time parameters (value
/// extractors, φ, decay) are not captured — the factory recreates them and
/// `restore` refills only the summary state.
macro_rules! inner_checkpoint {
    () => {
        fn checkpoint(&self) -> Option<Vec<u8>> {
            fd_core::checkpoint::to_bytes(&self.inner).ok()
        }
        fn checkpoint_into(&self, out: &mut Vec<u8>) -> Option<()> {
            fd_core::checkpoint::to_bytes_into(&self.inner, out).ok()
        }
        fn restore(&mut self, bytes: &[u8]) -> Result<(), fd_core::checkpoint::CodecError> {
            self.inner = fd_core::checkpoint::from_bytes(bytes)?;
            Ok(())
        }
    };
}

// ---------------------------------------------------------------------------
// Undecayed built-ins
// ---------------------------------------------------------------------------

struct CountAgg(u64);

impl Aggregator for CountAgg {
    fn update(&mut self, _: &Packet) {
        self.0 += 1;
    }
    fn merge_boxed(&mut self, other: Box<dyn Aggregator>) {
        self.0 += other
            .as_any_box()
            .downcast::<Self>()
            .expect("aggregator type mismatch")
            .0;
    }
    fn emit(&self, _t: f64) -> AggValue {
        AggValue::Float(self.0 as f64)
    }
    fn size_bytes(&self) -> usize {
        // The paper: "Undecayed methods store 4 byte integers".
        4
    }
    fn as_any_box(self: Box<Self>) -> Box<dyn Any> {
        self
    }
    fn checkpoint(&self) -> Option<Vec<u8>> {
        fd_core::checkpoint::to_bytes(&self.0).ok()
    }
    fn checkpoint_into(&self, out: &mut Vec<u8>) -> Option<()> {
        fd_core::checkpoint::to_bytes_into(&self.0, out).ok()
    }
    fn restore(&mut self, bytes: &[u8]) -> Result<(), fd_core::checkpoint::CodecError> {
        self.0 = fd_core::checkpoint::from_bytes(bytes)?;
        Ok(())
    }
}

/// Undecayed `count(*)` — the GSQL built-in of the paper's baseline query.
pub fn count_factory() -> Arc<FnFactory> {
    FnFactory::new("count", true, |_| Box::new(CountAgg(0)))
}

struct SumAgg {
    sum: f64,
    val: ValFn,
}

impl Aggregator for SumAgg {
    fn update(&mut self, pkt: &Packet) {
        self.sum += (self.val)(pkt);
    }
    fn supports_scaled_updates(&self) -> bool {
        true
    }
    fn update_scaled(&mut self, pkt: &Packet, scale: f64) {
        self.sum += (self.val)(pkt) * scale;
    }
    fn merge_boxed(&mut self, other: Box<dyn Aggregator>) {
        self.sum += other
            .as_any_box()
            .downcast::<Self>()
            .expect("aggregator type mismatch")
            .sum;
    }
    fn emit(&self, _t: f64) -> AggValue {
        AggValue::Float(self.sum)
    }
    fn size_bytes(&self) -> usize {
        4
    }
    fn as_any_box(self: Box<Self>) -> Box<dyn Any> {
        self
    }
    fn checkpoint(&self) -> Option<Vec<u8>> {
        fd_core::checkpoint::to_bytes(&self.sum).ok()
    }
    fn checkpoint_into(&self, out: &mut Vec<u8>) -> Option<()> {
        fd_core::checkpoint::to_bytes_into(&self.sum, out).ok()
    }
    fn restore(&mut self, bytes: &[u8]) -> Result<(), fd_core::checkpoint::CodecError> {
        self.sum = fd_core::checkpoint::from_bytes(bytes)?;
        Ok(())
    }
}

/// Undecayed `sum(expr)` over a tuple field.
pub fn sum_factory(val: impl Fn(&Packet) -> f64 + Send + Sync + 'static) -> Arc<FnFactory> {
    let val: ValFn = Arc::new(val);
    FnFactory::new("sum", true, move |_| {
        Box::new(SumAgg {
            sum: 0.0,
            val: val.clone(),
        })
    })
}

// ---------------------------------------------------------------------------
// Forward-decayed scalar aggregates (splittable)
// ---------------------------------------------------------------------------

/// Generates an adapter + factory for a forward-decayed scalar aggregate.
macro_rules! fwd_scalar_agg {
    ($agg:ident, $inner:ident, $factory:ident, $name:literal, update_t) => {
        struct $agg<G: ForwardDecay> {
            inner: $inner<G>,
        }
        impl<G: ForwardDecay> Aggregator for $agg<G> {
            inner_checkpoint!();
            fn update(&mut self, pkt: &Packet) {
                self.inner.update(pkt.timestamp());
            }
            fn supports_scaled_updates(&self) -> bool {
                true
            }
            fn update_scaled(&mut self, pkt: &Packet, scale: f64) {
                self.inner.update_weighted(pkt.timestamp(), scale);
            }
            fn merge_boxed(&mut self, other: Box<dyn Aggregator>) {
                let o = other
                    .as_any_box()
                    .downcast::<Self>()
                    .expect("aggregator type mismatch");
                self.inner.merge_from(&o.inner);
            }
            fn emit(&self, t: f64) -> AggValue {
                AggValue::Float(self.inner.query(t))
            }
            fn size_bytes(&self) -> usize {
                // The paper: "forward decay stores 8 byte floating point
                // values".
                8
            }
            fn as_any_box(self: Box<Self>) -> Box<dyn Any> {
                self
            }
        }
        #[doc = concat!("Forward-decayed ", $name, " (Theorem 1); splittable across LFTA/HFTA.")]
        pub fn $factory<G: ForwardDecay>(g: G) -> Arc<FnFactory> {
            FnFactory::new($name, true, move |bucket_start| {
                Box::new($agg {
                    inner: $inner::new(g.clone(), tuple::timestamp(bucket_start)),
                })
            })
        }
    };
    ($agg:ident, $inner:ident, $factory:ident, $name:literal, update_tv) => {
        struct $agg<G: ForwardDecay> {
            inner: $inner<G>,
            val: ValFn,
        }
        impl<G: ForwardDecay> Aggregator for $agg<G> {
            inner_checkpoint!();
            fn update(&mut self, pkt: &Packet) {
                self.inner.update(pkt.timestamp(), (self.val)(pkt));
            }
            fn supports_scaled_updates(&self) -> bool {
                true
            }
            fn update_scaled(&mut self, pkt: &Packet, scale: f64) {
                self.inner
                    .update_weighted(pkt.timestamp(), (self.val)(pkt), scale);
            }
            fn merge_boxed(&mut self, other: Box<dyn Aggregator>) {
                let o = other
                    .as_any_box()
                    .downcast::<Self>()
                    .expect("aggregator type mismatch");
                self.inner.merge_from(&o.inner);
            }
            fn emit(&self, t: f64) -> AggValue {
                AggValue::Float(self.inner.query(t))
            }
            fn size_bytes(&self) -> usize {
                8
            }
            fn as_any_box(self: Box<Self>) -> Box<dyn Any> {
                self
            }
        }
        #[doc = concat!("Forward-decayed ", $name, " over a tuple field (Theorem 1); splittable.")]
        pub fn $factory<G: ForwardDecay>(
            g: G,
            val: impl Fn(&Packet) -> f64 + Send + Sync + 'static,
        ) -> Arc<FnFactory> {
            let val: ValFn = Arc::new(val);
            FnFactory::new($name, true, move |bucket_start| {
                Box::new($agg {
                    inner: $inner::new(g.clone(), tuple::timestamp(bucket_start)),
                    val: val.clone(),
                })
            })
        }
    };
}

fwd_scalar_agg!(
    FwdCountAgg,
    DecayedCount,
    fwd_count_factory,
    "fwd_count",
    update_t
);
fwd_scalar_agg!(FwdSumAgg, DecayedSum, fwd_sum_factory, "fwd_sum", update_tv);

struct FwdAvgAgg<G: ForwardDecay> {
    inner: DecayedAverage<G>,
    val: ValFn,
}

impl<G: ForwardDecay> Aggregator for FwdAvgAgg<G> {
    inner_checkpoint!();
    fn update(&mut self, pkt: &Packet) {
        self.inner.update(pkt.timestamp(), (self.val)(pkt));
    }
    fn supports_scaled_updates(&self) -> bool {
        true
    }
    fn update_scaled(&mut self, pkt: &Packet, scale: f64) {
        self.inner
            .update_weighted(pkt.timestamp(), (self.val)(pkt), scale);
    }
    fn merge_boxed(&mut self, other: Box<dyn Aggregator>) {
        let o = other
            .as_any_box()
            .downcast::<Self>()
            .expect("aggregator type mismatch");
        self.inner.merge_from(&o.inner);
    }
    fn emit(&self, t: f64) -> AggValue {
        AggValue::Float(self.inner.query(t).unwrap_or(f64::NAN))
    }
    fn size_bytes(&self) -> usize {
        16
    }
    fn as_any_box(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Forward-decayed average of a tuple field (Definition 5); splittable.
pub fn fwd_avg_factory<G: ForwardDecay>(
    g: G,
    val: impl Fn(&Packet) -> f64 + Send + Sync + 'static,
) -> Arc<FnFactory> {
    let val: ValFn = Arc::new(val);
    FnFactory::new("fwd_avg", true, move |bucket_start| {
        Box::new(FwdAvgAgg {
            inner: DecayedAverage::new(g.clone(), tuple::timestamp(bucket_start)),
            val: val.clone(),
        })
    })
}

struct FwdVarAgg<G: ForwardDecay> {
    inner: DecayedVariance<G>,
    val: ValFn,
}

impl<G: ForwardDecay> Aggregator for FwdVarAgg<G> {
    inner_checkpoint!();
    fn update(&mut self, pkt: &Packet) {
        self.inner.update(pkt.timestamp(), (self.val)(pkt));
    }
    fn merge_boxed(&mut self, other: Box<dyn Aggregator>) {
        let o = other
            .as_any_box()
            .downcast::<Self>()
            .expect("aggregator type mismatch");
        self.inner.merge_from(&o.inner);
    }
    fn emit(&self, t: f64) -> AggValue {
        AggValue::Float(self.inner.query(t).unwrap_or(f64::NAN))
    }
    fn size_bytes(&self) -> usize {
        24
    }
    fn as_any_box(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Forward-decayed variance of a tuple field (Section IV-A); splittable.
pub fn fwd_var_factory<G: ForwardDecay>(
    g: G,
    val: impl Fn(&Packet) -> f64 + Send + Sync + 'static,
) -> Arc<FnFactory> {
    let val: ValFn = Arc::new(val);
    FnFactory::new("fwd_var", true, move |bucket_start| {
        Box::new(FwdVarAgg {
            inner: DecayedVariance::new(g.clone(), tuple::timestamp(bucket_start)),
            val: val.clone(),
        })
    })
}

struct FwdExtAgg<G: ForwardDecay> {
    inner: DecayedExtremum<G>,
    val: ValFn,
}

impl<G: ForwardDecay> Aggregator for FwdExtAgg<G> {
    inner_checkpoint!();
    fn update(&mut self, pkt: &Packet) {
        self.inner.update(pkt.timestamp(), (self.val)(pkt));
    }
    fn merge_boxed(&mut self, other: Box<dyn Aggregator>) {
        let o = other
            .as_any_box()
            .downcast::<Self>()
            .expect("aggregator type mismatch");
        self.inner.merge_from(&o.inner);
    }
    fn emit(&self, t: f64) -> AggValue {
        AggValue::Float(self.inner.query(t).map(|(v, _, _)| v).unwrap_or(f64::NAN))
    }
    fn size_bytes(&self) -> usize {
        24
    }
    fn as_any_box(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Forward-decayed maximum of a tuple field (Definition 6); splittable.
pub fn fwd_max_factory<G: ForwardDecay>(
    g: G,
    val: impl Fn(&Packet) -> f64 + Send + Sync + 'static,
) -> Arc<FnFactory> {
    let val: ValFn = Arc::new(val);
    FnFactory::new("fwd_max", true, move |bucket_start| {
        Box::new(FwdExtAgg {
            inner: DecayedExtremum::max(g.clone(), tuple::timestamp(bucket_start)),
            val: val.clone(),
        })
    })
}

/// Forward-decayed minimum of a tuple field (Definition 6); splittable.
pub fn fwd_min_factory<G: ForwardDecay>(
    g: G,
    val: impl Fn(&Packet) -> f64 + Send + Sync + 'static,
) -> Arc<FnFactory> {
    let val: ValFn = Arc::new(val);
    FnFactory::new("fwd_min", true, move |bucket_start| {
        Box::new(FwdExtAgg {
            inner: DecayedExtremum::min(g.clone(), tuple::timestamp(bucket_start)),
            val: val.clone(),
        })
    })
}

// ---------------------------------------------------------------------------
// Backward-decay baselines via exponential histograms (high-level only)
// ---------------------------------------------------------------------------

/// An integer-valued field extractor (EH sums need integer bucket sizes).
pub type IntValFn = Arc<dyn Fn(&Packet) -> u64 + Send + Sync>;

struct EhAgg {
    inner: ExponentialHistogram,
    back: DynBackward,
    /// `None` → count; `Some(val)` → sum of `val(pkt)` (integer-valued).
    val: Option<IntValFn>,
}

impl Aggregator for EhAgg {
    inner_checkpoint!();
    fn update(&mut self, pkt: &Packet) {
        match &self.val {
            None => self.inner.insert(pkt.timestamp()),
            Some(v) => self.inner.insert_value(pkt.timestamp(), v(pkt).max(1)),
        }
    }
    fn merge_boxed(&mut self, other: Box<dyn Aggregator>) {
        let o = other
            .as_any_box()
            .downcast::<Self>()
            .expect("aggregator type mismatch");
        self.inner.merge_from(&o.inner);
    }
    fn emit(&self, t: f64) -> AggValue {
        AggValue::Float(self.inner.decayed_query(&self.back, t))
    }
    fn size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }
    fn as_any_box(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Backward-decayed count via an exponential histogram with error `ε`; the
/// decay function is applied at query time (Cohen–Strauss). High-level only.
pub fn eh_count_factory(epsilon: f64, back: DynBackward) -> Arc<FnFactory> {
    FnFactory::new("eh_count", false, move |_| {
        Box::new(EhAgg {
            inner: ExponentialHistogram::with_epsilon(epsilon),
            back: back.clone(),
            val: None,
        })
    })
}

/// Backward-decayed sum via an exponential histogram. High-level only.
pub fn eh_sum_factory(
    epsilon: f64,
    back: DynBackward,
    val: impl Fn(&Packet) -> u64 + Send + Sync + 'static,
) -> Arc<FnFactory> {
    let val: IntValFn = Arc::new(val);
    FnFactory::new("eh_sum", false, move |_| {
        Box::new(EhAgg {
            inner: ExponentialHistogram::with_epsilon(epsilon),
            back: back.clone(),
            val: Some(val.clone()),
        })
    })
}

// ---------------------------------------------------------------------------
// Heavy hitters
// ---------------------------------------------------------------------------

struct UnaryHhAgg {
    inner: UnarySpaceSaving,
    item: ItemFn,
    phi: f64,
}

impl Aggregator for UnaryHhAgg {
    inner_checkpoint!();
    fn update(&mut self, pkt: &Packet) {
        self.inner.update((self.item)(pkt));
    }
    fn merge_boxed(&mut self, other: Box<dyn Aggregator>) {
        let o = other
            .as_any_box()
            .downcast::<Self>()
            .expect("aggregator type mismatch");
        self.inner.merge_from(&o.inner);
    }
    fn emit(&self, _t: f64) -> AggValue {
        AggValue::Items(
            self.inner
                .heavy_hitters(self.phi)
                .into_iter()
                .map(|h| ItemValue {
                    item: h.item,
                    value: h.count,
                })
                .collect(),
        )
    }
    fn size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }
    fn as_any_box(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Undecayed φ-heavy-hitters with the unary-optimized SpaceSaving ("Unary
/// HH" of Figure 5). High-level only, as the paper's UDAFs were.
pub fn unary_hh_factory(
    epsilon: f64,
    phi: f64,
    item: impl Fn(&Packet) -> u64 + Send + Sync + 'static,
) -> Arc<FnFactory> {
    let item: ItemFn = Arc::new(item);
    FnFactory::new("unary_hh", false, move |_| {
        Box::new(UnaryHhAgg {
            inner: UnarySpaceSaving::with_epsilon(epsilon),
            item: item.clone(),
            phi,
        })
    })
}

struct FwdHhAgg<G: ForwardDecay> {
    inner: DecayedHeavyHitters<G>,
    item: ItemFn,
    phi: f64,
}

impl<G: ForwardDecay> Aggregator for FwdHhAgg<G> {
    inner_checkpoint!();
    fn update(&mut self, pkt: &Packet) {
        self.inner.update(pkt.timestamp(), (self.item)(pkt));
    }
    fn merge_boxed(&mut self, other: Box<dyn Aggregator>) {
        let o = other
            .as_any_box()
            .downcast::<Self>()
            .expect("aggregator type mismatch");
        self.inner.merge_from(&o.inner);
    }
    fn emit(&self, t: f64) -> AggValue {
        AggValue::Items(
            self.inner
                .heavy_hitters(self.phi, t)
                .into_iter()
                .map(|h| ItemValue {
                    item: h.item,
                    value: h.count,
                })
                .collect(),
        )
    }
    fn size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }
    fn as_any_box(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Forward-decayed φ-heavy-hitters via weighted SpaceSaving (Theorem 2).
/// High-level only.
pub fn fwd_hh_factory<G: ForwardDecay>(
    g: G,
    epsilon: f64,
    phi: f64,
    item: impl Fn(&Packet) -> u64 + Send + Sync + 'static,
) -> Arc<FnFactory> {
    let item: ItemFn = Arc::new(item);
    FnFactory::new("fwd_hh", false, move |bucket_start| {
        Box::new(FwdHhAgg {
            inner: DecayedHeavyHitters::with_epsilon(
                g.clone(),
                tuple::timestamp(bucket_start),
                epsilon,
            ),
            item: item.clone(),
            phi,
        })
    })
}

struct SwHhAgg {
    inner: SlidingWindowHH,
    back: DynBackward,
    item: ItemFn,
    phi: f64,
}

impl Aggregator for SwHhAgg {
    inner_checkpoint!();
    fn update(&mut self, pkt: &Packet) {
        self.inner.update(pkt.timestamp(), (self.item)(pkt));
    }
    fn merge_boxed(&mut self, other: Box<dyn Aggregator>) {
        let o = other
            .as_any_box()
            .downcast::<Self>()
            .expect("aggregator type mismatch");
        self.inner.merge_from(&o.inner);
    }
    fn emit(&self, t: f64) -> AggValue {
        AggValue::Items(
            self.inner
                .heavy_hitters(&self.back, t, self.phi)
                .into_iter()
                .map(|h| ItemValue {
                    item: h.item,
                    value: h.count,
                })
                .collect(),
        )
    }
    fn size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }
    fn as_any_box(self: Box<Self>) -> Box<dyn Any> {
        self
    }
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
    let item: ItemFn = Arc::new(item);
    FnFactory::new("sw_hh", false, move |_| {
        Box::new(SwHhAgg {
            inner: SlidingWindowHH::new(pane_secs, levels),
            back: back.clone(),
            item: item.clone(),
            phi,
        })
    })
}

struct CmHhAgg<G: ForwardDecay> {
    inner: DecayedCmHeavyHitters<G>,
    item: ItemFn,
}

impl<G: ForwardDecay> Aggregator for CmHhAgg<G> {
    inner_checkpoint!();
    fn update(&mut self, pkt: &Packet) {
        self.inner.update(pkt.timestamp(), (self.item)(pkt));
    }
    fn merge_boxed(&mut self, other: Box<dyn Aggregator>) {
        let o = other
            .as_any_box()
            .downcast::<Self>()
            .expect("aggregator type mismatch");
        self.inner.merge_from(&o.inner);
    }
    fn emit(&self, t: f64) -> AggValue {
        AggValue::Items(
            self.inner
                .heavy_hitters(t)
                .into_iter()
                .map(|h| ItemValue {
                    item: h.item,
                    value: h.count,
                })
                .collect(),
        )
    }
    fn size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }
    fn as_any_box(self: Box<Self>) -> Box<dyn Any> {
        self
    }
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
    let item: ItemFn = Arc::new(item);
    FnFactory::new("cm_hh", false, move |bucket_start| {
        Box::new(CmHhAgg {
            inner: DecayedCmHeavyHitters::new(
                g.clone(),
                tuple::timestamp(bucket_start),
                phi,
                epsilon,
                0.01,
                bucket_seed(seed, bucket_start),
            ),
            item: item.clone(),
        })
    })
}

struct PrefixHhAgg {
    inner: PrefixBackwardHH,
    back: DynBackward,
    item: ItemFn,
    phi: f64,
}

impl Aggregator for PrefixHhAgg {
    inner_checkpoint!();
    fn update(&mut self, pkt: &Packet) {
        self.inner.update(pkt.timestamp(), (self.item)(pkt));
    }
    fn merge_boxed(&mut self, other: Box<dyn Aggregator>) {
        let o = other
            .as_any_box()
            .downcast::<Self>()
            .expect("aggregator type mismatch");
        self.inner.merge_from(&o.inner);
    }
    fn emit(&self, t: f64) -> AggValue {
        AggValue::Items(
            self.inner
                .heavy_hitters(&self.back, t, self.phi)
                .into_iter()
                .map(|h| ItemValue {
                    item: h.item,
                    value: h.count,
                })
                .collect(),
        )
    }
    fn size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }
    fn as_any_box(self: Box<Self>) -> Box<dyn Any> {
        self
    }
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
    let item: ItemFn = Arc::new(item);
    FnFactory::new("prefix_hh", false, move |_| {
        Box::new(PrefixHhAgg {
            inner: PrefixBackwardHH::new(domain_bits, epsilon),
            back: back.clone(),
            item: item.clone(),
            phi,
        })
    })
}

// ---------------------------------------------------------------------------
// Samplers
// ---------------------------------------------------------------------------

struct ReservoirAgg {
    inner: ReservoirSampler<u64>,
    item: ItemFn,
}

impl Aggregator for ReservoirAgg {
    fn update(&mut self, pkt: &Packet) {
        self.inner.update((self.item)(pkt));
    }
    fn merge_boxed(&mut self, other: Box<dyn Aggregator>) {
        let o = other
            .as_any_box()
            .downcast::<Self>()
            .expect("aggregator type mismatch");
        self.inner.merge_from(&o.inner);
    }
    fn emit(&self, _t: f64) -> AggValue {
        AggValue::Items(
            self.inner
                .sample()
                .iter()
                .map(|&item| ItemValue { item, value: 1.0 })
                .collect(),
        )
    }
    fn size_bytes(&self) -> usize {
        self.inner.capacity() * 8 + 32
    }
    fn as_any_box(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Undecayed reservoir sample of size `k` (the Figure 3 baseline).
pub fn reservoir_factory(
    k: usize,
    seed: u64,
    item: impl Fn(&Packet) -> u64 + Send + Sync + 'static,
) -> Arc<FnFactory> {
    let item: ItemFn = Arc::new(item);
    FnFactory::new("reservoir", false, move |bucket_start| {
        Box::new(ReservoirAgg {
            inner: ReservoirSampler::new(k, bucket_seed(seed, bucket_start)),
            item: item.clone(),
        })
    })
}

struct PriSampleAgg<G: ForwardDecay> {
    inner: PrioritySampler<u64, G>,
    item: ItemFn,
}

impl<G: ForwardDecay> Aggregator for PriSampleAgg<G> {
    fn update(&mut self, pkt: &Packet) {
        let key = (self.item)(pkt);
        self.inner.update(pkt.timestamp(), &key);
    }
    fn merge_boxed(&mut self, other: Box<dyn Aggregator>) {
        let o = other
            .as_any_box()
            .downcast::<Self>()
            .expect("aggregator type mismatch");
        self.inner.merge_from(&o.inner);
    }
    fn emit(&self, _t: f64) -> AggValue {
        AggValue::Items(
            self.inner
                .sample()
                .iter()
                .map(|e| ItemValue {
                    item: e.item,
                    value: 1.0,
                })
                .collect(),
        )
    }
    fn size_bytes(&self) -> usize {
        self.inner.capacity() * 32 + 64
    }
    fn as_any_box(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Priority sampling under forward decay — the paper's `PRISAMP(srcIP,
/// exp(time % 60))` UDAF (Figure 3).
pub fn pri_sample_factory<G: ForwardDecay>(
    g: G,
    k: usize,
    seed: u64,
    item: impl Fn(&Packet) -> u64 + Send + Sync + 'static,
) -> Arc<FnFactory> {
    let item: ItemFn = Arc::new(item);
    FnFactory::new("prisamp", false, move |bucket_start| {
        Box::new(PriSampleAgg {
            inner: PrioritySampler::new(
                g.clone(),
                tuple::timestamp(bucket_start),
                k,
                bucket_seed(seed, bucket_start),
            ),
            item: item.clone(),
        })
    })
}

struct WrsAgg<G: ForwardDecay> {
    inner: WeightedReservoir<u64, G>,
    item: ItemFn,
}

impl<G: ForwardDecay> Aggregator for WrsAgg<G> {
    fn update(&mut self, pkt: &Packet) {
        let key = (self.item)(pkt);
        self.inner.update(pkt.timestamp(), &key);
    }
    fn merge_boxed(&mut self, other: Box<dyn Aggregator>) {
        let o = other
            .as_any_box()
            .downcast::<Self>()
            .expect("aggregator type mismatch");
        self.inner.merge_from(&o.inner);
    }
    fn emit(&self, _t: f64) -> AggValue {
        AggValue::Items(
            self.inner
                .sample()
                .iter()
                .map(|e| ItemValue {
                    item: e.item,
                    value: 1.0,
                })
                .collect(),
        )
    }
    fn size_bytes(&self) -> usize {
        self.inner.capacity() * 32 + 64
    }
    fn as_any_box(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Weighted reservoir sampling (Efraimidis–Spirakis) under forward decay
/// (Theorem 6).
pub fn wrs_factory<G: ForwardDecay>(
    g: G,
    k: usize,
    seed: u64,
    item: impl Fn(&Packet) -> u64 + Send + Sync + 'static,
) -> Arc<FnFactory> {
    let item: ItemFn = Arc::new(item);
    FnFactory::new("wrs", false, move |bucket_start| {
        Box::new(WrsAgg {
            inner: WeightedReservoir::new(
                g.clone(),
                tuple::timestamp(bucket_start),
                k,
                bucket_seed(seed, bucket_start),
            ),
            item: item.clone(),
        })
    })
}

struct WithReplacementAgg<G: ForwardDecay> {
    inner: WithReplacementSampler<u64, G>,
    item: ItemFn,
}

impl<G: ForwardDecay> Aggregator for WithReplacementAgg<G> {
    fn update(&mut self, pkt: &Packet) {
        let key = (self.item)(pkt);
        self.inner.update(pkt.timestamp(), &key);
    }
    fn merge_boxed(&mut self, other: Box<dyn Aggregator>) {
        let o = other
            .as_any_box()
            .downcast::<Self>()
            .expect("aggregator type mismatch");
        self.inner.merge_from(&o.inner);
    }
    fn emit(&self, _t: f64) -> AggValue {
        AggValue::Items(
            self.inner
                .sample()
                .iter()
                .map(|&&item| ItemValue { item, value: 1.0 })
                .collect(),
        )
    }
    fn size_bytes(&self) -> usize {
        self.inner.capacity() * 16 + 48
    }
    fn as_any_box(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Sampling with replacement under forward decay (Theorem 5): `s`
/// independent chains.
pub fn with_replacement_factory<G: ForwardDecay>(
    g: G,
    s: usize,
    seed: u64,
    item: impl Fn(&Packet) -> u64 + Send + Sync + 'static,
) -> Arc<FnFactory> {
    let item: ItemFn = Arc::new(item);
    FnFactory::new("swr", false, move |bucket_start| {
        Box::new(WithReplacementAgg {
            inner: WithReplacementSampler::new(
                g.clone(),
                tuple::timestamp(bucket_start),
                s,
                bucket_seed(seed, bucket_start),
            ),
            item: item.clone(),
        })
    })
}

struct BiasedReservoirAgg {
    inner: BiasedReservoir<u64>,
    item: ItemFn,
}

impl Aggregator for BiasedReservoirAgg {
    fn update(&mut self, pkt: &Packet) {
        self.inner.update((self.item)(pkt));
    }
    fn merge_boxed(&mut self, other: Box<dyn Aggregator>) {
        let o = other
            .as_any_box()
            .downcast::<Self>()
            .expect("aggregator type mismatch");
        self.inner.merge_from(&o.inner);
    }
    fn emit(&self, _t: f64) -> AggValue {
        AggValue::Items(
            self.inner
                .sample()
                .iter()
                .map(|&item| ItemValue { item, value: 1.0 })
                .collect(),
        )
    }
    fn size_bytes(&self) -> usize {
        self.inner.capacity() * 8 + 32
    }
    fn as_any_box(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Aggarwal's biased reservoir (backward exponential decay baseline of
/// Figure 3).
pub fn biased_reservoir_factory(
    lambda: f64,
    seed: u64,
    item: impl Fn(&Packet) -> u64 + Send + Sync + 'static,
) -> Arc<FnFactory> {
    let item: ItemFn = Arc::new(item);
    FnFactory::new("aggarwal", false, move |bucket_start| {
        Box::new(BiasedReservoirAgg {
            inner: BiasedReservoir::new(lambda, bucket_seed(seed, bucket_start)),
            item: item.clone(),
        })
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
    fn supports_scaled_updates(&self) -> bool {
        self.parts.iter().all(|p| p.supports_scaled_updates())
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
    fn checkpoint(&self) -> Option<Vec<u8>> {
        let parts: Option<Vec<Vec<u8>>> = self.parts.iter().map(|p| p.checkpoint()).collect();
        fd_core::checkpoint::to_bytes(&parts?).ok()
    }
    fn checkpoint_into(&self, out: &mut Vec<u8>) -> Option<()> {
        // Same wire shape as `checkpoint` (a length-prefixed seq of
        // length-prefixed part states), written without the intermediate
        // `Vec<Vec<u8>>`.
        fd_core::checkpoint::put_u64(out, self.parts.len() as u64);
        for part in &self.parts {
            let len_pos = out.len();
            fd_core::checkpoint::put_u64(out, 0);
            part.checkpoint_into(out)?;
            let len = (out.len() - len_pos - 8) as u64;
            out[len_pos..len_pos + 8].copy_from_slice(&len.to_le_bytes());
        }
        Some(())
    }
    fn restore(&mut self, bytes: &[u8]) -> Result<(), fd_core::checkpoint::CodecError> {
        let parts: Vec<Vec<u8>> = fd_core::checkpoint::from_bytes(bytes)?;
        if parts.len() != self.parts.len() {
            return Err(fd_core::checkpoint::CodecError::new(
                "aggregate arity mismatch",
            ));
        }
        for (mine, snap) in self.parts.iter_mut().zip(&parts) {
            mine.restore(snap)?;
        }
        Ok(())
    }
}

/// Composes several aggregates over the same groups — GSQL's
/// `select count(*), sum(len), …` shape. Each row's value is an
/// [`AggValue::Multi`] with one entry per component, in order. The combined
/// aggregate is splittable only if every component is.
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
    let splittable = parts.iter().all(|p| {
        use crate::udaf::AggregatorFactory as _;
        p.splittable()
    });
    let name = {
        use crate::udaf::AggregatorFactory as _;
        parts.iter().map(|p| p.name()).collect::<Vec<_>>().join("+")
    };
    FnFactory::new(name, splittable, move |bucket_start| {
        use crate::udaf::AggregatorFactory as _;
        Box::new(MultiAgg {
            parts: parts.iter().map(|p| p.make(bucket_start)).collect(),
        })
    })
}

// ---------------------------------------------------------------------------
// Quantiles and count distinct
// ---------------------------------------------------------------------------

struct FwdQuantileAgg<G: ForwardDecay> {
    inner: DecayedQuantiles<G>,
    val: ItemFn,
    phis: Arc<[f64]>,
}

impl<G: ForwardDecay> Aggregator for FwdQuantileAgg<G> {
    inner_checkpoint!();
    fn update(&mut self, pkt: &Packet) {
        // A value past the domain counts as the largest one: the digest
        // asserts its domain, and a panic here would take the worker down
        // on every replay of the tuple.
        let top = self.inner.inner().domain() - 1;
        self.inner.update(pkt.timestamp(), (self.val)(pkt).min(top));
    }
    fn merge_boxed(&mut self, other: Box<dyn Aggregator>) {
        let o = other
            .as_any_box()
            .downcast::<Self>()
            .expect("aggregator type mismatch");
        self.inner.merge_from(&o.inner);
    }
    fn emit(&self, t: f64) -> AggValue {
        let quantiles = self.inner.quantiles(&self.phis, t);
        AggValue::Items(
            self.phis
                .iter()
                .zip(quantiles)
                .filter_map(|(&value, item)| Some(ItemValue { item: item?, value }))
                .collect(),
        )
    }
    fn size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }
    fn as_any_box(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

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
    let val: ItemFn = Arc::new(val);
    let phis: Arc<[f64]> = phis.into();
    FnFactory::new("fwd_quantiles", false, move |bucket_start| {
        Box::new(FwdQuantileAgg {
            inner: DecayedQuantiles::new(g.clone(), tuple::timestamp(bucket_start), bits, epsilon),
            val: val.clone(),
            phis: phis.clone(),
        })
    })
}

struct DistinctAgg<G: ForwardDecay> {
    inner: DominanceSketch<G>,
    item: ItemFn,
}

impl<G: ForwardDecay> Aggregator for DistinctAgg<G> {
    inner_checkpoint!();
    fn update(&mut self, pkt: &Packet) {
        self.inner.update(pkt.timestamp(), (self.item)(pkt));
    }
    fn merge_boxed(&mut self, other: Box<dyn Aggregator>) {
        let o = other
            .as_any_box()
            .downcast::<Self>()
            .expect("aggregator type mismatch");
        self.inner.merge_from(&o.inner);
    }
    fn emit(&self, t: f64) -> AggValue {
        AggValue::Float(self.inner.query(t))
    }
    fn size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }
    fn as_any_box(self: Box<Self>) -> Box<dyn Any> {
        self
    }
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
    let item: ItemFn = Arc::new(item);
    FnFactory::new("fwd_distinct", false, move |bucket_start| {
        Box::new(DistinctAgg {
            inner: DominanceSketch::new(g.clone(), tuple::timestamp(bucket_start), epsilon, seed),
            item: item.clone(),
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
