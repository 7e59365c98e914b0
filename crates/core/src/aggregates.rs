//! Constant-space decayed aggregates under forward decay (Section IV-A/B).
//!
//! Theorem 1 of the paper: *any summation of an arithmetic operation on
//! tuples that can be computed in constant space without decay can also be
//! computed in constant space under any forward decay function.* The trick is
//! uniform across this module: maintain sums of `g(t_i − L)`-weighted terms,
//! and divide by `g(t − L)` only when a query is posed at time `t`. The
//! clock is [`Decayed`]; what this module adds are the two constant-space
//! cells it runs — an [`Accumulator`] for count and sum, an [`Extremal`]
//! for min and max — and the average and variance composed of them.
//!
//! All aggregates here are exact (no approximation), use O(1) space, take
//! O(1) time per update, are mergeable across distributed sites
//! ([`crate::merge::Mergeable`]), accept out-of-order arrivals, and survive
//! exponential decay on unboundedly long streams via landmark
//! renormalization ([`crate::numerics::Renormalizer`]).

use std::marker::PhantomData;

use crate::checkpoint::{require, CodecError, Decode, Encode, Reader, MAX_COUNT};
use crate::codec_struct;
use crate::decay::{clamp_to_landmark, ForwardDecay};
use crate::decayed::{Decayed, Weighted};
use crate::kernel::{batch_ticks_repeat, striped_dot, striped_sum, WeightKernel};
use crate::merge::Mergeable;
use crate::summary::{Summary, SummaryStats};
use crate::Timestamp;

/// The value lane of an [`Accumulator`]: what an arrival's weight is
/// multiplied by before it is added. A count has none (`()`, every value
/// is 1); a sum carries an `f64` per arrival.
pub trait Lane: Copy + std::fmt::Debug {
    /// Whether the accumulator only ever adds weights themselves, and so
    /// can never go negative or NaN.
    const COUNTS: bool;

    /// This arrival's value.
    fn value(self) -> f64;

    /// A batch's values as a column, or `None` when they are all 1.
    fn column(items: &[Self]) -> Option<&[f64]>;
}

impl Lane for () {
    const COUNTS: bool = true;

    #[inline]
    fn value(self) -> f64 {
        1.0
    }

    fn column(_: &[()]) -> Option<&[f64]> {
        None
    }
}

impl Lane for f64 {
    const COUNTS: bool = false;

    #[inline]
    fn value(self) -> f64 {
        self
    }

    fn column(items: &[f64]) -> Option<&[f64]> {
        Some(items)
    }
}

/// The cell behind [`DecayedCount`] and [`DecayedSum`]: the running
/// `Σ w_i · v_i` of the weights [`Decayed`] hands it, the values coming
/// from the lane `V`.
#[derive(Debug, Clone, Copy)]
pub struct Accumulator<V: Lane> {
    /// Σ g(t_i − L_eff) · v_i
    acc: f64,
    /// Raw (undecayed) number of arrivals; with `max_t`, diagnostics that
    /// are part of the checkpoint format.
    n: u64,
    max_t: Timestamp,
    lane: PhantomData<V>,
}

/// `acc`, `n`, `max_t`: the lane is a type, not a field on the wire.
impl<V: Lane> Encode for Accumulator<V> {
    fn put(&self, out: &mut Vec<u8>) {
        (self.acc, self.n, self.max_t).put(out);
    }
}

impl<V: Lane> Decode for Accumulator<V> {
    const MIN_BYTES: usize = 24;

    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let (acc, n, max_t) = Decode::take(r)?;
        require(n <= MAX_COUNT, "an accumulator counts past 2^62 arrivals")?;
        Ok(Self {
            acc,
            n,
            max_t,
            lane: PhantomData,
        })
    }
}

impl<V: Lane> Accumulator<V> {
    /// An empty accumulator for the clock with landmark `L`.
    pub fn new(landmark: impl Into<Timestamp>) -> Self {
        Self {
            acc: 0.0,
            n: 0,
            max_t: landmark.into(),
            lane: PhantomData,
        }
    }
}

/// `Σ g(age(tᵢ)) · vᵢ` through the one-entry tick memo, in slice order,
/// with the batch maximum.
fn memo_dot<G: ForwardDecay>(
    g: &G,
    ts: &[Timestamp],
    vals: impl Iterator<Item = f64>,
    age: impl Fn(Timestamp) -> f64,
) -> (f64, Timestamp) {
    let mut k = WeightKernel::new(g.clone());
    let (mut acc, mut max_us) = (0.0, i64::MIN);
    for (&t, v) in ts.iter().zip(vals) {
        acc += k.g(age(t)) * v;
        max_us = max_us.max(t.as_micros());
    }
    (acc, Timestamp::from_micros(max_us))
}

impl<V: Lane> Weighted for Accumulator<V> {
    type Item = V;
    type Output = f64;

    #[inline]
    fn add(&mut self, t_i: Timestamp, v: V, w: f64) {
        self.acc += w * v.value();
        self.n += 1;
        self.max_t = self.max_t.max(t_i);
    }

    #[inline]
    fn scale(&mut self, factor: f64) {
        self.acc *= factor;
    }

    #[inline]
    fn over(&self, denom: f64) -> f64 {
        self.acc / denom
    }

    /// One pass over the batch, the maximum riding along. The per-tick memo
    /// is used only when the family prefers it *and* the batch's ticks
    /// actually repeat ([`batch_ticks_repeat`] samples the batch);
    /// otherwise striped partial sums win, through the family's own
    /// unswitched [`ForwardDecay::g_sum_batch`] / [`g_dot_batch`] where the
    /// landmark cannot have moved. The identical weights are summed,
    /// possibly reassociated.
    ///
    /// [`g_dot_batch`]: ForwardDecay::g_dot_batch
    fn add_batch<G: ForwardDecay>(
        &mut self,
        g: &G,
        l0: Timestamp,
        l: Timestamp,
        ts: &[Timestamp],
        items: &[V],
    ) {
        let vals = V::column(items);
        let age = |t| clamp_to_landmark(t, l0) - l;
        let (sum, max_t) = if g.prefers_tick_cache() && batch_ticks_repeat(ts) {
            match vals {
                None => memo_dot(g, ts, std::iter::repeat(1.0), age),
                Some(vals) => memo_dot(g, ts, vals.iter().copied(), age),
            }
        } else if g.is_multiplicative() {
            match vals {
                None => striped_sum(ts, |t| g.g(age(t))),
                Some(vals) => striped_dot(ts, vals, |t| g.g(age(t))),
            }
        } else {
            // Non-multiplicative families clamp intrinsically (`g(n ≤ 0)`
            // equals `g(0)` for Monomial / LandmarkWindow / PolySum), so
            // their unswitched overrides need no clamp in the loop.
            match vals {
                None => g.g_sum_batch(ts, l),
                Some(vals) => g.g_dot_batch(ts, vals, l),
            }
        };
        self.acc += sum;
        self.n += ts.len() as u64;
        self.max_t = self.max_t.max(max_t);
    }

    fn stats(&self) -> SummaryStats {
        SummaryStats {
            items: self.n,
            accepted: self.n,
            ..SummaryStats::default()
        }
    }

    fn check_invariants(&self, _landmark: Timestamp) -> Result<(), String> {
        // A count sums non-negative weights: the accumulator can never go
        // negative or NaN, whatever the stream threw at it.
        if V::COUNTS {
            if self.acc.is_nan() {
                return Err("DecayedCount accumulator is NaN".into());
            }
            if self.acc < 0.0 {
                return Err(format!("DecayedCount accumulator negative: {}", self.acc));
            }
            if self.acc > 0.0 && self.n == 0 {
                return Err("DecayedCount has mass but zero raw count".into());
            }
        }
        Ok(())
    }
}

impl<V: Lane> Mergeable for Accumulator<V> {
    fn merge_from(&mut self, other: &Self) {
        self.acc += other.acc;
        self.n += other.n;
        self.max_t = self.max_t.max(other.max_t);
    }
}

/// Decayed count (Definition 5): `C = Σ_i g(t_i − L) / g(t − L)`.
///
/// ```
/// use fd_core::aggregates::DecayedCount;
/// use fd_core::decay::Monomial;
///
/// let mut c = DecayedCount::new(Monomial::quadratic(), 100.0);
/// for t in [105.0, 107.0, 103.0, 108.0, 104.0] {
///     c.update(t);
/// }
/// assert!((c.query(110.0) - 1.63).abs() < 1e-9); // Example 2 of the paper
/// ```
pub type DecayedCount<G> = Decayed<G, Accumulator<()>>;

impl<G: ForwardDecay> DecayedCount<G> {
    /// Creates an empty decayed count with the given decay function and
    /// landmark.
    pub fn new(g: G, landmark: impl Into<Timestamp>) -> Self {
        let landmark = landmark.into();
        Self::wrap(g, landmark, Accumulator::new(landmark))
    }

    /// Ingests an item with timestamp `t_i`. Pre-landmark timestamps are
    /// clamped to the landmark ([`clamp_to_landmark`]).
    #[inline]
    pub fn update(&mut self, t_i: impl Into<Timestamp>) {
        self.update_at(t_i.into(), ());
    }

    /// Ingests an item with timestamp `t_i` carrying an importance weight
    /// `w ≥ 0` — typically a Horvitz–Thompson inverse-inclusion-probability
    /// scale attached by load shedding. The item contributes
    /// `w · g(t_i − L)` to the accumulator, so `update_weighted(t, 1.0)`
    /// is exactly [`update`](Self::update) and a survivor admitted with
    /// probability `p` fed as `update_weighted(t, 1.0 / p)` keeps the
    /// decayed count unbiased (the weight multiplies the *frozen numerator*,
    /// so mergeability and renormalization are untouched).
    #[inline]
    pub fn update_weighted(&mut self, t_i: impl Into<Timestamp>, w: f64) {
        let (t_i, g) = self.arrive(t_i.into());
        self.inner.add(t_i, (), g * w);
    }

    /// Ingests a batch of timestamps in one call: the same count as
    /// per-item [`update`](Self::update) calls up to `f64` rounding, with
    /// the renormalization check hoisted out of the loop
    /// ([`Summary::update_batch_at`] on [`Decayed`]) and the weights
    /// summed in one striped or memoized pass ([`Accumulator`]'s
    /// `add_batch`).
    pub fn update_batch(&mut self, ts: &[Timestamp]) {
        // A `Vec` of units is a length: nothing is allocated.
        self.update_batch_at(ts, &vec![(); ts.len()]);
    }
}

/// Decayed sum (Definition 5): `S = Σ_i g(t_i − L) · v_i / g(t − L)`.
pub type DecayedSum<G> = Decayed<G, Accumulator<f64>>;

impl<G: ForwardDecay> DecayedSum<G> {
    /// Creates an empty decayed sum.
    pub fn new(g: G, landmark: impl Into<Timestamp>) -> Self {
        let landmark = landmark.into();
        Self::wrap(g, landmark, Accumulator::new(landmark))
    }

    /// Ingests an item `(t_i, v_i)`. Pre-landmark timestamps are clamped to
    /// the landmark ([`clamp_to_landmark`]).
    #[inline]
    pub fn update(&mut self, t_i: impl Into<Timestamp>, v: f64) {
        self.update_at(t_i.into(), v);
    }

    /// Ingests an item `(t_i, v_i)` carrying a Horvitz–Thompson scale `w`:
    /// contributes `w · g(t_i − L) · v_i`, i.e. exactly
    /// [`update`](Self::update)`(t_i, v * w)`. See
    /// [`DecayedCount::update_weighted`].
    #[inline]
    pub fn update_weighted(&mut self, t_i: impl Into<Timestamp>, v: f64, w: f64) {
        self.update(t_i, v * w);
    }

    /// Ingests a columnar batch: `ts[i]` pairs with `vals[i]` — the batched
    /// counterpart of per-item [`update`](Self::update) calls (see
    /// [`DecayedCount::update_batch`] for what is hoisted and the rounding
    /// caveats).
    ///
    /// # Panics
    /// Panics if the slices' lengths differ.
    pub fn update_batch(&mut self, ts: &[Timestamp], vals: &[f64]) {
        self.update_batch_at(ts, vals);
    }
}

/// Decayed average (Definition 5): `A = S / C = Σ g(t_i−L)v_i / Σ g(t_i−L)`.
///
/// As the paper notes, the average is independent of the query time `t` (the
/// `g(t − L)` normalizations cancel): it is a weighted mean of the values,
/// weighted toward the recent ones.
#[derive(Debug, Clone)]
pub struct DecayedAverage<G: ForwardDecay> {
    sum: DecayedSum<G>,
    count: DecayedCount<G>,
}

codec_struct!(DecayedAverage<G: ForwardDecay> { sum: DecayedSum<G>, count: DecayedCount<G> });

impl<G: ForwardDecay> DecayedAverage<G> {
    /// Creates an empty decayed average.
    pub fn new(g: G, landmark: impl Into<Timestamp>) -> Self {
        let landmark = landmark.into();
        Self {
            sum: DecayedSum::new(g.clone(), landmark),
            count: DecayedCount::new(g, landmark),
        }
    }

    /// Ingests an item `(t_i, v_i)`.
    #[inline]
    pub fn update(&mut self, t_i: impl Into<Timestamp>, v: f64) {
        let t_i = t_i.into();
        self.sum.update(t_i, v);
        self.count.update(t_i);
    }

    /// Ingests an item `(t_i, v_i)` carrying a Horvitz–Thompson scale `w`:
    /// the scale enters numerator and denominator alike, keeping the
    /// weighted mean a consistent ratio estimator under subsampling. See
    /// [`DecayedCount::update_weighted`].
    #[inline]
    pub fn update_weighted(&mut self, t_i: impl Into<Timestamp>, v: f64, w: f64) {
        let t_i = t_i.into();
        self.sum.update_weighted(t_i, v, w);
        self.count.update_weighted(t_i, w);
    }

    /// The decayed average; `None` if no items (or all weights zero).
    #[inline]
    pub fn query(&self, t: impl Into<Timestamp>) -> Option<f64> {
        let t = t.into();
        let c = self.count.query(t);
        if c == 0.0 {
            None
        } else {
            Some(self.sum.query(t) / c)
        }
    }
}

impl<G: ForwardDecay> Mergeable for DecayedAverage<G> {
    fn merge_from(&mut self, other: &Self) {
        self.sum.merge_from(&other.sum);
        self.count.merge_from(&other.count);
    }
}

/// Decayed variance (Section IV-A): interpreting the normalized weights as
/// probabilities, `V = Σ g(t_i − L) v_i² / C − A²` where `C` is the decayed
/// count and `A` the decayed average — a sum of squares beside a
/// [`DecayedAverage`].
#[derive(Debug, Clone)]
pub struct DecayedVariance<G: ForwardDecay> {
    sum_sq: DecayedSum<G>,
    mean: DecayedAverage<G>,
}

codec_struct!(DecayedVariance<G: ForwardDecay> { sum_sq: DecayedSum<G>, mean: DecayedAverage<G> });

impl<G: ForwardDecay> DecayedVariance<G> {
    /// Creates an empty decayed variance.
    pub fn new(g: G, landmark: impl Into<Timestamp>) -> Self {
        let landmark = landmark.into();
        Self {
            sum_sq: DecayedSum::new(g.clone(), landmark),
            mean: DecayedAverage::new(g, landmark),
        }
    }

    /// Ingests an item `(t_i, v_i)`.
    #[inline]
    pub fn update(&mut self, t_i: impl Into<Timestamp>, v: f64) {
        let t_i = t_i.into();
        self.sum_sq.update(t_i, v * v);
        self.mean.update(t_i, v);
    }

    /// The decayed variance; `None` if no items. Clamped at zero against
    /// floating-point cancellation.
    pub fn query(&self, t: impl Into<Timestamp>) -> Option<f64> {
        let t = t.into();
        let a = self.mean.query(t)?;
        Some((self.sum_sq.query(t) / self.mean.count.query(t) - a * a).max(0.0))
    }
}

impl<G: ForwardDecay> Mergeable for DecayedVariance<G> {
    fn merge_from(&mut self, other: &Self) {
        self.sum_sq.merge_from(&other.sum_sq);
        self.mean.merge_from(&other.mean);
    }
}

/// Which extremum an [`Extremal`] tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Extremum {
    Min,
    Max,
}

/// The variant index as a `u32`.
impl Encode for Extremum {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u32).put(out);
    }
}

impl Decode for Extremum {
    const MIN_BYTES: usize = 4;

    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u32::take(r)? {
            0 => Ok(Extremum::Min),
            1 => Ok(Extremum::Max),
            v => Err(CodecError::new(format!("no extremum {v}"))),
        }
    }
}

/// The cell behind [`DecayedExtremum`]: the extremal weighted value
/// `w_i · v_i` seen so far and the item that achieved it.
#[derive(Debug, Clone)]
pub struct Extremal {
    which: Extremum,
    /// Extremal g(t_i − L_eff) · v_i and the item that achieved it.
    best: Option<(f64, Timestamp, f64)>,
}

codec_struct!(Extremal { which: Extremum, best: Option<(f64, Timestamp, f64)> });

impl Extremal {
    /// An empty tracker of the smallest weighted value.
    pub fn min() -> Self {
        Extremal {
            which: Extremum::Min,
            best: None,
        }
    }

    /// An empty tracker of the largest weighted value.
    pub fn max() -> Self {
        Extremal {
            which: Extremum::Max,
            best: None,
        }
    }

    /// Whether candidate `(key, t_i, v)` replaces the current best.
    ///
    /// Strictly better keys (by `total_cmp`, so `-0.0 < 0.0` and the
    /// comparison is a total order) always win. *Equal* keys — duplicate
    /// timestamps with the same value, or distinct items whose decayed
    /// weights coincide — fall back to the lexicographically smallest
    /// `(t_i, v)`, so the reported witness is identical across the scalar,
    /// batched, and merge paths regardless of arrival or merge order.
    /// A NaN key (a NaN value: no defined ordering, and before this guard
    /// the first-arriving NaN stuck as the extremum forever) is ignored.
    fn offer(&mut self, key: f64, t_i: Timestamp, v: f64) {
        if key.is_nan() {
            return;
        }
        let wins = self.best.as_ref().is_none_or(|(b, bt, bv)| {
            let by_key = match self.which {
                Extremum::Min => key.total_cmp(b),
                Extremum::Max => b.total_cmp(&key),
            };
            by_key.then(t_i.cmp(bt)).then(v.total_cmp(bv)).is_lt()
        });
        if wins {
            self.best = Some((key, t_i, v));
        }
    }
}

impl Weighted for Extremal {
    type Item = f64;
    type Output = Option<(f64, Timestamp, f64)>;

    #[inline]
    fn add(&mut self, t_i: Timestamp, v: f64, w: f64) {
        self.offer(w * v, t_i, v);
    }

    fn scale(&mut self, factor: f64) {
        if let Some((key, _, _)) = &mut self.best {
            *key *= factor;
        }
    }

    fn over(&self, denom: f64) -> Self::Output {
        self.best.map(|(key, t_i, v)| (key / denom, t_i, v))
    }

    fn stats(&self) -> SummaryStats {
        SummaryStats {
            occupancy: u64::from(self.best.is_some()),
            capacity: 1,
            ..SummaryStats::default()
        }
    }

    fn check_invariants(&self, landmark: Timestamp) -> Result<(), String> {
        // NaN keys are rejected at ingestion; the witness timestamp can
        // never precede the landmark after the clamp.
        if let Some((key, t_i, _)) = self.best {
            if key.is_nan() {
                return Err("DecayedExtremum stored a NaN key".into());
            }
            if t_i < landmark {
                return Err(format!(
                    "DecayedExtremum witness {t_i:?} precedes landmark {landmark:?}"
                ));
            }
        }
        Ok(())
    }
}

impl Mergeable for Extremal {
    /// The same winner rule as an arrival — equal keys resolve to the
    /// smallest `(t_i, v)`, so `A.merge_from(B)` and `B.merge_from(A)`
    /// report the same witness.
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(self.which, other.which, "cannot merge min with max");
        if let Some((key, t_i, v)) = other.best {
            self.offer(key, t_i, v);
        }
    }
}

/// Decayed Min / Max (Definition 6): the smallest (largest) decayed value
/// `g(t_i − L) v_i / g(t − L)`, found by tracking the extremal un-normalized
/// `g(t_i − L) v_i` (constant space — provably impossible under backward
/// decay). `query(t)` is that value with the item `(t_i, v_i)` achieving it,
/// `None` if empty.
pub type DecayedExtremum<G> = Decayed<G, Extremal>;

impl<G: ForwardDecay> DecayedExtremum<G> {
    /// Creates a decayed-minimum tracker.
    pub fn min(g: G, landmark: impl Into<Timestamp>) -> Self {
        Self::wrap(g, landmark, Extremal::min())
    }

    /// Creates a decayed-maximum tracker.
    pub fn max(g: G, landmark: impl Into<Timestamp>) -> Self {
        Self::wrap(g, landmark, Extremal::max())
    }

    /// Ingests an item `(t_i, v_i)`. Pre-landmark timestamps are clamped to
    /// the landmark; a NaN value is ignored.
    #[inline]
    pub fn update(&mut self, t_i: impl Into<Timestamp>, v: f64) {
        self.update_at(t_i.into(), v);
    }
}

// ----- unified Summary API ------------------------------------------------

impl<G: ForwardDecay> DecayedAverage<G> {
    /// The landmark `L` passed at construction.
    pub fn landmark(&self) -> Timestamp {
        self.sum.landmark()
    }
}

impl<G: ForwardDecay> Summary for DecayedAverage<G> {
    type Update = f64;
    type Output = Option<f64>;

    fn landmark(&self) -> Timestamp {
        self.landmark()
    }

    fn update_at(&mut self, t_i: Timestamp, v: f64) {
        self.update(t_i, v);
    }

    fn query_at(&self, t: Timestamp) -> Option<f64> {
        self.query(t)
    }

    fn stats(&self) -> SummaryStats {
        // Sum and count renormalize in lockstep; each is its own pass.
        let count = self.count.stats();
        SummaryStats {
            renormalizations: self.sum.stats().renormalizations + count.renormalizations,
            ..count
        }
    }
}

impl<G: ForwardDecay> DecayedVariance<G> {
    /// The landmark `L` passed at construction.
    pub fn landmark(&self) -> Timestamp {
        self.mean.landmark()
    }
}

impl<G: ForwardDecay> Summary for DecayedVariance<G> {
    type Update = f64;
    type Output = Option<f64>;

    fn landmark(&self) -> Timestamp {
        self.landmark()
    }

    fn update_at(&mut self, t_i: Timestamp, v: f64) {
        self.update(t_i, v);
    }

    fn query_at(&self, t: Timestamp) -> Option<f64> {
        self.query(t)
    }

    fn stats(&self) -> SummaryStats {
        let mean = self.mean.stats();
        SummaryStats {
            renormalizations: self.sum_sq.stats().renormalizations + mean.renormalizations,
            ..mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decay::{Exponential, LandmarkWindow, Monomial, NoDecay};

    /// The stream of Examples 1–2 of the paper.
    fn example_stream() -> [(f64, f64); 5] {
        [
            (105.0, 4.0),
            (107.0, 8.0),
            (103.0, 3.0),
            (108.0, 6.0),
            (104.0, 4.0),
        ]
    }

    #[test]
    fn paper_example_2_count_sum_average() {
        let g = Monomial::quadratic();
        let mut c = DecayedCount::new(g, 100.0);
        let mut s = DecayedSum::new(g, 100.0);
        let mut a = DecayedAverage::new(g, 100.0);
        for (t, v) in example_stream() {
            c.update(t);
            s.update(t, v);
            a.update(t, v);
        }
        assert!((c.query(110.0) - 1.63).abs() < 1e-9);
        assert!((s.query(110.0) - 9.67).abs() < 1e-9);
        let avg = a.query(110.0).unwrap();
        assert!((avg - 9.67 / 1.63).abs() < 1e-9);
        assert!((avg - 5.93).abs() < 0.005); // the paper rounds to 5.93
    }

    #[test]
    fn average_is_independent_of_query_time() {
        let g = Monomial::quadratic();
        let mut a = DecayedAverage::new(g, 100.0);
        for (t, v) in example_stream() {
            a.update(t, v);
        }
        let at_110 = a.query(110.0).unwrap();
        let at_1000 = a.query(1000.0).unwrap();
        assert!((at_110 - at_1000).abs() < 1e-9);
    }

    #[test]
    fn constant_stream_has_constant_average_and_zero_variance() {
        let g = Exponential::new(0.3);
        let mut a = DecayedAverage::new(g, 0.0);
        let mut var = DecayedVariance::new(g, 0.0);
        for i in 0..100 {
            a.update(i as f64, 7.5);
            var.update(i as f64, 7.5);
        }
        assert!((a.query(100.0).unwrap() - 7.5).abs() < 1e-9);
        assert!(var.query(100.0).unwrap() < 1e-9);
    }

    #[test]
    fn count_against_brute_force() {
        let g = Monomial::new(1.5);
        let landmark = 10.0;
        let ts: Vec<f64> = (0..200).map(|i| 10.0 + 0.37 * i as f64).collect();
        let mut c = DecayedCount::new(g, landmark);
        for &t in &ts {
            c.update(t);
        }
        let t_q = 100.0;
        let brute: f64 = ts.iter().map(|&ti| g.weight(landmark, ti, t_q)).sum();
        assert!((c.query(t_q) - brute).abs() < 1e-9 * brute);
    }

    #[test]
    fn sum_with_no_decay_is_plain_sum() {
        let mut s = DecayedSum::new(NoDecay, 0.0);
        for i in 0..50 {
            s.update(i as f64, 2.0);
        }
        assert!((s.query(1000.0) - 100.0).abs() < 1e-12);
    }

    #[test]
    fn landmark_window_counts_everything_after_landmark() {
        let mut c = DecayedCount::new(LandmarkWindow, 100.0);
        c.update(100.0); // exactly at landmark: weight 0
        c.update(101.0);
        c.update(150.0);
        assert!((c.query(200.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn variance_matches_brute_force() {
        let g = Exponential::new(0.05);
        let landmark = 0.0;
        let items: Vec<(f64, f64)> = (0..100)
            .map(|i| (i as f64, ((i * 7919) % 13) as f64))
            .collect();
        let mut v = DecayedVariance::new(g, landmark);
        for &(t, x) in &items {
            v.update(t, x);
        }
        let t_q = 100.0;
        let ws: Vec<f64> = items
            .iter()
            .map(|&(ti, _)| g.weight(landmark, ti, t_q))
            .collect();
        let wsum: f64 = ws.iter().sum();
        let mean: f64 = items
            .iter()
            .zip(&ws)
            .map(|(&(_, x), &w)| w * x)
            .sum::<f64>()
            / wsum;
        let brute: f64 = items
            .iter()
            .zip(&ws)
            .map(|(&(_, x), &w)| w * (x - mean) * (x - mean))
            .sum::<f64>()
            / wsum;
        let got = v.query(t_q).unwrap();
        assert!((got - brute).abs() < 1e-9, "{got} vs {brute}");
    }

    #[test]
    fn min_max_match_brute_force() {
        let g = Monomial::quadratic();
        let landmark = 100.0;
        let items = example_stream();
        let mut mn = DecayedExtremum::min(g, landmark);
        let mut mx = DecayedExtremum::max(g, landmark);
        for (t, v) in items {
            mn.update(t, v);
            mx.update(t, v);
        }
        let t_q = 110.0;
        let decayed: Vec<f64> = items
            .iter()
            .map(|&(ti, v)| g.weight(landmark, ti, t_q) * v)
            .collect();
        let bmin = decayed.iter().cloned().fold(f64::INFINITY, f64::min);
        let bmax = decayed.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!((mn.query(t_q).unwrap().0 - bmin).abs() < 1e-12);
        assert!((mx.query(t_q).unwrap().0 - bmax).abs() < 1e-12);
    }

    #[test]
    fn min_handles_negative_values() {
        let g = Monomial::quadratic();
        let mut mn = DecayedExtremum::min(g, 0.0);
        mn.update(5.0, -2.0);
        mn.update(9.0, 1.0);
        let (val, t_i, v) = mn.query(10.0).unwrap();
        assert_eq!(t_i, 5.0);
        assert_eq!(v, -2.0);
        assert!((val - g.weight(0.0, 5.0, 10.0) * -2.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_order_arrivals_give_same_answer() {
        let g = Monomial::quadratic();
        let mut sorted = DecayedSum::new(g, 0.0);
        let mut shuffled = DecayedSum::new(g, 0.0);
        let items: Vec<(f64, f64)> = (1..=50).map(|i| (i as f64, (i % 7) as f64)).collect();
        for &(t, v) in &items {
            sorted.update(t, v);
        }
        let mut rev = items.clone();
        rev.reverse();
        rev.swap(0, 20);
        for &(t, v) in &rev {
            shuffled.update(t, v);
        }
        assert!((sorted.query(60.0) - shuffled.query(60.0)).abs() < 1e-9);
    }

    #[test]
    fn exponential_sum_survives_long_stream() {
        // 1M seconds at α=0.1: g spans e^100000 — hopeless without
        // renormalization.
        let g = Exponential::new(0.1);
        let mut s = DecayedSum::new(g, 0.0);
        let mut t = 0.0;
        for _ in 0..100_000 {
            t += 10.0;
            s.update(t, 1.0);
        }
        let q = s.query(t);
        // Σ e^{-0.1·10k} = 1/(1 − e^{−1}) over the infinite tail.
        let expected = 1.0 / (1.0 - (-1.0f64).exp());
        assert!(q.is_finite());
        assert!((q - expected).abs() < 1e-6, "q = {q}");
    }

    #[test]
    fn merge_equals_concat_for_all_aggregates() {
        let g = Exponential::new(0.2);
        let items: Vec<(f64, f64)> = (0..100)
            .map(|i| (i as f64, ((i * 31) % 17) as f64))
            .collect();

        macro_rules! check {
            ($make:expr, $update:ident, $query:expr) => {{
                let mut whole = $make;
                let mut left = $make;
                let mut right = $make;
                for (i, &(t, v)) in items.iter().enumerate() {
                    let _ = v;
                    whole.$update(t, v);
                    if i % 2 == 0 {
                        left.$update(t, v);
                    } else {
                        right.$update(t, v);
                    }
                }
                left.merge_from(&right);
                let (a, b) = ($query(&whole), $query(&left));
                assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "{a} vs {b}");
            }};
        }

        check!(DecayedSum::new(g, 0.0), update, |s: &DecayedSum<_>| s
            .query(100.0));
        check!(
            DecayedVariance::new(g, 0.0),
            update,
            |s: &DecayedVariance<_>| s.query(100.0).unwrap()
        );
        check!(
            DecayedExtremum::max(g, 0.0),
            update,
            |s: &DecayedExtremum<_>| s.query(100.0).unwrap().0
        );

        // Count takes only a timestamp.
        let mut whole = DecayedCount::new(g, 0.0);
        let mut left = DecayedCount::new(g, 0.0);
        let mut right = DecayedCount::new(g, 0.0);
        for (i, &(t, _)) in items.iter().enumerate() {
            whole.update(t);
            if i % 2 == 0 {
                left.update(t)
            } else {
                right.update(t)
            }
        }
        left.merge_from(&right);
        assert!((whole.query(100.0) - left.query(100.0)).abs() < 1e-9);
    }

    #[test]
    fn merge_with_disparate_effective_landmarks() {
        // Drive one shard far enough that it renormalizes, the other not.
        let g = Exponential::new(1.0);
        let mut a = DecayedCount::new(g, 0.0);
        let mut b = DecayedCount::new(g, 0.0);
        let mut reference = DecayedCount::new(g, 0.0);
        for i in 0..1000 {
            let t = i as f64;
            a.update(t);
            reference.update(t);
        }
        for i in 990..1000 {
            let t = i as f64;
            b.update(t);
            reference.update(t);
        }
        a.merge_from(&b);
        let (x, y) = (a.query(1000.0), reference.query(1000.0));
        assert!((x - y).abs() < 1e-9 * y, "{x} vs {y}");
    }

    #[test]
    #[should_panic(expected = "share a landmark")]
    fn merge_rejects_landmark_mismatch() {
        let g = NoDecay;
        let mut a = DecayedCount::new(g, 0.0);
        let b = DecayedCount::new(g, 5.0);
        a.merge_from(&b);
    }

    #[test]
    fn empty_queries() {
        let g = Monomial::quadratic();
        assert_eq!(DecayedCount::new(g, 0.0).query(10.0), 0.0);
        assert_eq!(DecayedSum::new(g, 0.0).query(10.0), 0.0);
        assert_eq!(DecayedAverage::new(g, 0.0).query(10.0), None);
        assert_eq!(DecayedVariance::new(g, 0.0).query(10.0), None);
        assert!(DecayedExtremum::<Monomial>::max(g, 0.0)
            .query(10.0)
            .is_none());
    }

    #[test]
    fn unit_weight_matches_unweighted_update() {
        let g = Exponential::new(0.1);
        let mut plain_c = DecayedCount::new(g, 0.0);
        let mut weighted_c = DecayedCount::new(g, 0.0);
        let mut plain_s = DecayedSum::new(g, 0.0);
        let mut weighted_s = DecayedSum::new(g, 0.0);
        let mut plain_a = DecayedAverage::new(g, 0.0);
        let mut weighted_a = DecayedAverage::new(g, 0.0);
        for i in 0..500 {
            let (t, v) = (i as f64 * 0.7, ((i * 13) % 11) as f64);
            plain_c.update(t);
            weighted_c.update_weighted(t, 1.0);
            plain_s.update(t, v);
            weighted_s.update_weighted(t, v, 1.0);
            plain_a.update(t, v);
            weighted_a.update_weighted(t, v, 1.0);
        }
        assert_eq!(plain_c.query(400.0), weighted_c.query(400.0));
        assert_eq!(plain_s.query(400.0), weighted_s.query(400.0));
        assert_eq!(plain_a.query(400.0), weighted_a.query(400.0));
    }

    #[test]
    fn horvitz_thompson_identity_on_duplicated_mass() {
        // Feeding an item once with weight 1/p equals feeding it 1/p times
        // with weight 1 — the algebraic identity HT unbiasedness rests on.
        let g = Monomial::quadratic();
        let mut dup = DecayedCount::new(g, 100.0);
        let mut ht = DecayedCount::new(g, 100.0);
        let mut dup_s = DecayedSum::new(g, 100.0);
        let mut ht_s = DecayedSum::new(g, 100.0);
        for (t, v) in example_stream() {
            for _ in 0..4 {
                dup.update(t);
                dup_s.update(t, v);
            }
            ht.update_weighted(t, 4.0);
            ht_s.update_weighted(t, v, 4.0);
        }
        assert!((dup.query(110.0) - ht.query(110.0)).abs() < 1e-9);
        assert!((dup_s.query(110.0) - ht_s.query(110.0)).abs() < 1e-9);
    }

    #[test]
    fn historical_query_weights_can_exceed_one() {
        // Section VI-B: items "in the future" relative to the query time are
        // allowed; weights > 1 are then meaningful for historical queries.
        let g = Monomial::quadratic();
        let mut c = DecayedCount::new(g, 0.0);
        c.update(10.0);
        let hist = c.query(5.0); // query in the past of the item
        assert!(hist > 1.0);
    }
}
