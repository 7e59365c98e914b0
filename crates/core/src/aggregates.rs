//! Constant-space decayed aggregates under forward decay (Section IV-A/B).
//!
//! Theorem 1 of the paper: *any summation of an arithmetic operation on
//! tuples that can be computed in constant space without decay can also be
//! computed in constant space under any forward decay function.* The trick is
//! uniform across this module: maintain sums of `g(t_i − L)`-weighted terms,
//! and divide by `g(t − L)` only when a query is posed at time `t`.
//!
//! All aggregates here are exact (no approximation), use O(1) space, take
//! O(1) time per update, are mergeable across distributed sites
//! ([`crate::merge::Mergeable`]), accept out-of-order arrivals, and survive
//! exponential decay on unboundedly long streams via landmark
//! renormalization ([`crate::numerics::Renormalizer`]).

use crate::decay::{clamp_to_landmark, ForwardDecay};
use crate::kernel::WeightKernel;
use crate::merge::Mergeable;
use crate::numerics::{landmark_shift_factor, Renormalizer};
use crate::Timestamp;

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
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct DecayedCount<G: ForwardDecay> {
    g: G,
    renorm: Renormalizer,
    /// Σ g(t_i − L_eff)
    acc: f64,
    /// Raw (undecayed) number of updates, for diagnostics.
    n: u64,
    max_t: Timestamp,
}

impl<G: ForwardDecay> DecayedCount<G> {
    /// Creates an empty decayed count with the given decay function and
    /// landmark.
    pub fn new(g: G, landmark: impl Into<Timestamp>) -> Self {
        let landmark = landmark.into();
        Self {
            g,
            renorm: Renormalizer::new(landmark),
            acc: 0.0,
            n: 0,
            max_t: landmark,
        }
    }

    /// Ingests an item with timestamp `t_i`. Pre-landmark timestamps are
    /// clamped to the landmark ([`clamp_to_landmark`]).
    #[inline]
    pub fn update(&mut self, t_i: impl Into<Timestamp>) {
        let t_i = clamp_to_landmark(t_i.into(), self.renorm.original_landmark());
        if let Some(factor) = self.renorm.pre_update(&self.g, t_i) {
            self.acc *= factor;
        }
        self.acc += self.g.g(t_i - self.renorm.landmark());
        self.n += 1;
        self.max_t = self.max_t.max(t_i);
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
        let t_i = clamp_to_landmark(t_i.into(), self.renorm.original_landmark());
        if let Some(factor) = self.renorm.pre_update(&self.g, t_i) {
            self.acc *= factor;
        }
        self.acc += self.g.g(t_i - self.renorm.landmark()) * w;
        self.n += 1;
        self.max_t = self.max_t.max(t_i);
    }

    /// Ingests a batch of timestamps in one call.
    ///
    /// Computes the same count as per-item [`update`](Self::update) calls,
    /// but hoists the renormalization check out of the inner loop (one
    /// [`Renormalizer::pre_update`] against the batch maximum instead of
    /// one per item) and evaluates weights through a [`WeightKernel`]
    /// (per-tick memoization) or striped partial sums. The memo is used
    /// only when the family prefers it *and* the batch's ticks actually
    /// repeat ([`crate::kernel::batch_ticks_repeat`] samples the batch);
    /// otherwise the striped loop wins. Results agree with the scalar path
    /// up to `f64`
    /// rounding: the identical weights are summed, possibly reassociated,
    /// and exponential decay may renormalize once (to the batch maximum)
    /// where the scalar path renormalizes stepwise.
    ///
    /// Multiplicative families find the batch maximum up front (the
    /// renormalization check must see it before any weight is computed,
    /// since a rescale moves the landmark); for everything else the
    /// landmark cannot move mid-batch, so the maximum rides along in the
    /// weight pass and the slice is swept exactly once.
    pub fn update_batch(&mut self, ts: &[Timestamp]) {
        if ts.is_empty() {
            return;
        }
        let max_t = if self.g.is_multiplicative() {
            let &max_t = ts.iter().max().expect("batch is non-empty");
            if let Some(factor) = self.renorm.pre_update(&self.g, max_t) {
                self.acc *= factor;
            }
            // Clamp pre-landmark stragglers against the *original* landmark
            // (the effective landmark `l` only ever advances past it), so
            // the batched weights match the scalar path exactly.
            let l0 = self.renorm.original_landmark();
            let l = self.renorm.landmark();
            if self.g.prefers_tick_cache() && crate::kernel::batch_ticks_repeat(ts) {
                let mut k = WeightKernel::new(self.g.clone());
                let mut acc = 0.0;
                for &t in ts {
                    acc += k.g(clamp_to_landmark(t, l0) - l);
                }
                self.acc += acc;
            } else {
                self.acc +=
                    crate::kernel::striped_sum(ts, |t| self.g.g(clamp_to_landmark(t, l0) - l)).0;
            }
            max_t
        } else {
            // Non-multiplicative families clamp intrinsically (`g(n ≤ 0)`
            // equals `g(0)` for Monomial / LandmarkWindow / PolySum), so the
            // unswitched `g_sum_batch` overrides stay on this path.
            let l = self.renorm.landmark();
            if self.g.prefers_tick_cache() && crate::kernel::batch_ticks_repeat(ts) {
                let mut k = WeightKernel::new(self.g.clone());
                let mut acc = 0.0;
                let mut max_us = i64::MIN;
                for &t in ts {
                    acc += k.g(t - l);
                    max_us = max_us.max(t.as_micros());
                }
                self.acc += acc;
                Timestamp::from_micros(max_us)
            } else {
                let (sum, max_t) = self.g.g_sum_batch(ts, l);
                self.acc += sum;
                max_t
            }
        };
        self.n += ts.len() as u64;
        self.max_t = self.max_t.max(max_t);
    }

    /// The decayed count at query time `t`. `t` should be at least the
    /// largest timestamp observed, else some weights exceed 1 (Section VI-B
    /// permits this for "historical" queries).
    #[inline]
    pub fn query(&self, t: impl Into<Timestamp>) -> f64 {
        let t = t.into();
        if self.acc == 0.0 {
            return 0.0;
        }
        let denom = self.g.g(t - self.renorm.landmark());
        if denom == 0.0 {
            return 0.0;
        }
        self.acc / denom
    }

    /// Number of raw updates ingested.
    pub fn raw_count(&self) -> u64 {
        self.n
    }

    /// The largest timestamp observed so far.
    pub fn max_timestamp(&self) -> Timestamp {
        self.max_t
    }

    /// The decay function.
    pub fn decay(&self) -> &G {
        &self.g
    }

    /// Internal un-normalized accumulator `Σ g(t_i − L_eff)` together with
    /// the effective landmark. Exposed for the sketch wrappers.
    pub fn raw_parts(&self) -> (f64, Timestamp) {
        (self.acc, self.renorm.landmark())
    }
}

impl<G: ForwardDecay> Mergeable for DecayedCount<G> {
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(
            self.renorm.original_landmark(),
            other.renorm.original_landmark(),
            "summaries must share a landmark"
        );
        // Align effective landmarks: rescale whichever is older.
        let (mut other_acc, other_lm) = (other.acc, other.renorm.landmark());
        if other_lm < self.renorm.landmark() {
            // Express other's accumulator relative to our landmark, in the
            // log domain: the linear `1/g(ΔL)` collapses to 0.0 once the
            // landmark gap overflows g (≈ 709/α s for exponential decay).
            other_acc *= landmark_shift_factor(&self.g, other_lm, self.renorm.landmark());
        } else if other_lm > self.renorm.landmark() {
            if let Some(f) = self.renorm.rescale_to(&self.g, other_lm) {
                self.acc *= f;
            }
        }
        self.acc += other_acc;
        self.n += other.n;
        self.max_t = self.max_t.max(other.max_t);
    }
}

/// Decayed sum (Definition 5): `S = Σ_i g(t_i − L) · v_i / g(t − L)`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct DecayedSum<G: ForwardDecay> {
    g: G,
    renorm: Renormalizer,
    /// Σ g(t_i − L_eff) · v_i
    acc: f64,
    n: u64,
    max_t: Timestamp,
}

impl<G: ForwardDecay> DecayedSum<G> {
    /// Creates an empty decayed sum.
    pub fn new(g: G, landmark: impl Into<Timestamp>) -> Self {
        let landmark = landmark.into();
        Self {
            g,
            renorm: Renormalizer::new(landmark),
            acc: 0.0,
            n: 0,
            max_t: landmark,
        }
    }

    /// Ingests an item `(t_i, v_i)`. Pre-landmark timestamps are clamped to
    /// the landmark ([`clamp_to_landmark`]).
    #[inline]
    pub fn update(&mut self, t_i: impl Into<Timestamp>, v: f64) {
        let t_i = clamp_to_landmark(t_i.into(), self.renorm.original_landmark());
        if let Some(factor) = self.renorm.pre_update(&self.g, t_i) {
            self.acc *= factor;
        }
        self.acc += self.g.g(t_i - self.renorm.landmark()) * v;
        self.n += 1;
        self.max_t = self.max_t.max(t_i);
    }

    /// Ingests an item `(t_i, v_i)` carrying a Horvitz–Thompson scale `w`:
    /// contributes `w · g(t_i − L) · v_i`, i.e. exactly
    /// [`update`](Self::update)`(t_i, v * w)`. See
    /// [`DecayedCount::update_weighted`].
    #[inline]
    pub fn update_weighted(&mut self, t_i: impl Into<Timestamp>, v: f64, w: f64) {
        self.update(t_i, v * w);
    }

    /// Ingests a columnar batch: `ts[i]` pairs with `vals[i]`.
    ///
    /// The batched counterpart of per-item [`update`](Self::update) calls,
    /// with the renormalization check hoisted to one
    /// [`Renormalizer::pre_update`] per batch and the weight loop run
    /// through a [`WeightKernel`] or striped partial sums (see
    /// [`DecayedCount::update_batch`] for the rounding caveats).
    ///
    /// # Panics
    /// Panics if the slices' lengths differ.
    pub fn update_batch(&mut self, ts: &[Timestamp], vals: &[f64]) {
        assert_eq!(ts.len(), vals.len(), "columnar batch slices must align");
        if ts.is_empty() {
            return;
        }
        let max_t = if self.g.is_multiplicative() {
            let &max_t = ts.iter().max().expect("batch is non-empty");
            if let Some(factor) = self.renorm.pre_update(&self.g, max_t) {
                self.acc *= factor;
            }
            // Clamp against the original landmark, as in the scalar path.
            let l0 = self.renorm.original_landmark();
            let l = self.renorm.landmark();
            if self.g.prefers_tick_cache() && crate::kernel::batch_ticks_repeat(ts) {
                let mut k = WeightKernel::new(self.g.clone());
                let mut acc = 0.0;
                for (&t, &v) in ts.iter().zip(vals) {
                    acc += k.g(clamp_to_landmark(t, l0) - l) * v;
                }
                self.acc += acc;
            } else {
                self.acc += crate::kernel::striped_dot(ts, vals, |t| {
                    self.g.g(clamp_to_landmark(t, l0) - l)
                })
                .0;
            }
            max_t
        } else {
            let l = self.renorm.landmark();
            if self.g.prefers_tick_cache() && crate::kernel::batch_ticks_repeat(ts) {
                let mut k = WeightKernel::new(self.g.clone());
                let mut acc = 0.0;
                let mut max_us = i64::MIN;
                for (&t, &v) in ts.iter().zip(vals) {
                    acc += k.g(t - l) * v;
                    max_us = max_us.max(t.as_micros());
                }
                self.acc += acc;
                Timestamp::from_micros(max_us)
            } else {
                let (sum, max_t) = self.g.g_dot_batch(ts, vals, l);
                self.acc += sum;
                max_t
            }
        };
        self.n += ts.len() as u64;
        self.max_t = self.max_t.max(max_t);
    }

    /// The decayed sum at query time `t`.
    #[inline]
    pub fn query(&self, t: impl Into<Timestamp>) -> f64 {
        let t = t.into();
        if self.n == 0 {
            return 0.0;
        }
        let denom = self.g.g(t - self.renorm.landmark());
        if denom == 0.0 {
            return 0.0;
        }
        self.acc / denom
    }

    /// Number of raw updates ingested.
    pub fn raw_count(&self) -> u64 {
        self.n
    }

    /// The largest timestamp observed so far.
    pub fn max_timestamp(&self) -> Timestamp {
        self.max_t
    }
}

impl<G: ForwardDecay> Mergeable for DecayedSum<G> {
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(
            self.renorm.original_landmark(),
            other.renorm.original_landmark(),
            "summaries must share a landmark"
        );
        let (mut other_acc, other_lm) = (other.acc, other.renorm.landmark());
        if other_lm < self.renorm.landmark() {
            // Log-domain alignment; see DecayedCount::merge_from.
            other_acc *= landmark_shift_factor(&self.g, other_lm, self.renorm.landmark());
        } else if other_lm > self.renorm.landmark() {
            if let Some(f) = self.renorm.rescale_to(&self.g, other_lm) {
                self.acc *= f;
            }
        }
        self.acc += other_acc;
        self.n += other.n;
        self.max_t = self.max_t.max(other.max_t);
    }
}

/// Decayed average (Definition 5): `A = S / C = Σ g(t_i−L)v_i / Σ g(t_i−L)`.
///
/// As the paper notes, the average is independent of the query time `t` (the
/// `g(t − L)` normalizations cancel): it is a weighted mean of the values,
/// weighted toward the recent ones.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct DecayedAverage<G: ForwardDecay> {
    sum: DecayedSum<G>,
    count: DecayedCount<G>,
}

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
/// count and `A` the decayed average.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct DecayedVariance<G: ForwardDecay> {
    sum_sq: DecayedSum<G>,
    sum: DecayedSum<G>,
    count: DecayedCount<G>,
}

impl<G: ForwardDecay> DecayedVariance<G> {
    /// Creates an empty decayed variance.
    pub fn new(g: G, landmark: impl Into<Timestamp>) -> Self {
        let landmark = landmark.into();
        Self {
            sum_sq: DecayedSum::new(g.clone(), landmark),
            sum: DecayedSum::new(g.clone(), landmark),
            count: DecayedCount::new(g, landmark),
        }
    }

    /// Ingests an item `(t_i, v_i)`.
    #[inline]
    pub fn update(&mut self, t_i: impl Into<Timestamp>, v: f64) {
        let t_i = t_i.into();
        self.sum_sq.update(t_i, v * v);
        self.sum.update(t_i, v);
        self.count.update(t_i);
    }

    /// The decayed variance; `None` if no items. Clamped at zero against
    /// floating-point cancellation.
    pub fn query(&self, t: impl Into<Timestamp>) -> Option<f64> {
        let t = t.into();
        let c = self.count.query(t);
        if c == 0.0 {
            return None;
        }
        let a = self.sum.query(t) / c;
        Some((self.sum_sq.query(t) / c - a * a).max(0.0))
    }

    /// The decayed mean, as a convenience.
    pub fn mean(&self, t: impl Into<Timestamp>) -> Option<f64> {
        let t = t.into();
        let c = self.count.query(t);
        if c == 0.0 {
            None
        } else {
            Some(self.sum.query(t) / c)
        }
    }
}

impl<G: ForwardDecay> Mergeable for DecayedVariance<G> {
    fn merge_from(&mut self, other: &Self) {
        self.sum_sq.merge_from(&other.sum_sq);
        self.sum.merge_from(&other.sum);
        self.count.merge_from(&other.count);
    }
}

/// Which extremum a [`DecayedExtremum`] tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
enum Extremum {
    Min,
    Max,
}

/// Decayed Min / Max (Definition 6): the smallest (largest) decayed value
/// `g(t_i − L) v_i / g(t − L)`, found by tracking the extremal un-normalized
/// `g(t_i − L) v_i` (constant space — provably impossible under backward
/// decay).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct DecayedExtremum<G: ForwardDecay> {
    g: G,
    renorm: Renormalizer,
    which: Extremum,
    /// Extremal g(t_i − L_eff) · v_i and the item that achieved it.
    best: Option<(f64, Timestamp, f64)>,
}

impl<G: ForwardDecay> DecayedExtremum<G> {
    /// Creates a decayed-minimum tracker.
    pub fn min(g: G, landmark: impl Into<Timestamp>) -> Self {
        let landmark = landmark.into();
        Self {
            g,
            renorm: Renormalizer::new(landmark),
            which: Extremum::Min,
            best: None,
        }
    }

    /// Creates a decayed-maximum tracker.
    pub fn max(g: G, landmark: impl Into<Timestamp>) -> Self {
        let landmark = landmark.into();
        Self {
            g,
            renorm: Renormalizer::new(landmark),
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
    /// NaN keys are rejected at ingestion and never reach this comparison.
    fn candidate_wins(&self, key: f64, t_i: Timestamp, v: f64) -> bool {
        use std::cmp::Ordering;
        let Some((b, bt, bv)) = &self.best else {
            return true;
        };
        let ord = match self.which {
            Extremum::Min => key.total_cmp(b),
            Extremum::Max => b.total_cmp(&key),
        };
        match ord {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => t_i < *bt || (t_i == *bt && v.total_cmp(bv) == Ordering::Less),
        }
    }

    /// Ingests an item `(t_i, v_i)`. Pre-landmark timestamps are clamped to
    /// the landmark; a NaN value is ignored (it has no defined ordering, and
    /// before this guard the first-arriving NaN stuck as the extremum
    /// forever, making the result arrival-order-dependent).
    #[inline]
    pub fn update(&mut self, t_i: impl Into<Timestamp>, v: f64) {
        let t_i = clamp_to_landmark(t_i.into(), self.renorm.original_landmark());
        if let Some(factor) = self.renorm.pre_update(&self.g, t_i) {
            if let Some((key, _, _)) = &mut self.best {
                *key *= factor;
            }
        }
        let key = self.g.g(t_i - self.renorm.landmark()) * v;
        if key.is_nan() {
            return;
        }
        if self.candidate_wins(key, t_i, v) {
            self.best = Some((key, t_i, v));
        }
    }

    /// The decayed extremal value at query time `t`, with the item
    /// `(t_i, v_i)` that achieves it. `None` if empty.
    pub fn query(&self, t: impl Into<Timestamp>) -> Option<(f64, Timestamp, f64)> {
        let t = t.into();
        let (key, t_i, v) = self.best?;
        let denom = self.g.g(t - self.renorm.landmark());
        if denom == 0.0 {
            return None;
        }
        Some((key / denom, t_i, v))
    }
}

impl<G: ForwardDecay> Mergeable for DecayedExtremum<G> {
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(self.which, other.which, "cannot merge min with max");
        assert_eq!(
            self.renorm.original_landmark(),
            other.renorm.original_landmark(),
            "summaries must share a landmark"
        );
        if let Some((okey, ot, ov)) = other.best {
            // Align the candidate's key to our effective landmark (log
            // domain, as in DecayedCount::merge_from).
            let okey = if other.renorm.landmark() < self.renorm.landmark() {
                okey * landmark_shift_factor(
                    &self.g,
                    other.renorm.landmark(),
                    self.renorm.landmark(),
                )
            } else if other.renorm.landmark() > self.renorm.landmark() {
                if let Some(f) = self.renorm.rescale_to(&self.g, other.renorm.landmark()) {
                    if let Some((key, _, _)) = &mut self.best {
                        *key *= f;
                    }
                }
                okey
            } else {
                okey
            };
            // Same winner rule as `update` — equal keys resolve to the
            // smallest (t_i, v), so A.merge_from(B) and B.merge_from(A)
            // report the same witness.
            if !okey.is_nan() && self.candidate_wins(okey, ot, ov) {
                self.best = Some((okey, ot, ov));
            }
        }
    }
}

// ----- unified Summary API ------------------------------------------------

use crate::summary::{Summary, SummaryStats};

impl<G: ForwardDecay> DecayedCount<G> {
    /// The landmark `L` passed at construction.
    pub fn landmark(&self) -> Timestamp {
        self.renorm.original_landmark()
    }
}

impl<G: ForwardDecay> Summary for DecayedCount<G> {
    type Update = ();
    type Output = f64;

    fn landmark(&self) -> Timestamp {
        self.landmark()
    }

    fn update_at(&mut self, t_i: Timestamp, _u: ()) {
        self.update(t_i);
    }

    fn update_batch_at(&mut self, ts: &[Timestamp], us: &[()]) {
        assert_eq!(ts.len(), us.len(), "columnar batch slices must align");
        self.update_batch(ts);
    }

    fn query_at(&self, t: Timestamp) -> f64 {
        self.query(t)
    }

    fn stats(&self) -> SummaryStats {
        SummaryStats {
            renormalizations: self.renorm.rescales(),
            items: self.n,
            accepted: self.n,
            ..SummaryStats::default()
        }
    }

    fn check_invariants(&self) -> Result<(), String> {
        // Counts sum non-negative weights: the accumulator can never go
        // negative or NaN, whatever the stream threw at it.
        if self.acc.is_nan() {
            return Err("DecayedCount accumulator is NaN".into());
        }
        if self.acc < 0.0 {
            return Err(format!("DecayedCount accumulator negative: {}", self.acc));
        }
        if self.acc > 0.0 && self.n == 0 {
            return Err("DecayedCount has mass but zero raw count".into());
        }
        Ok(())
    }
}

impl<G: ForwardDecay> DecayedSum<G> {
    /// The landmark `L` passed at construction.
    pub fn landmark(&self) -> Timestamp {
        self.renorm.original_landmark()
    }
}

impl<G: ForwardDecay> Summary for DecayedSum<G> {
    type Update = f64;
    type Output = f64;

    fn landmark(&self) -> Timestamp {
        self.landmark()
    }

    fn update_at(&mut self, t_i: Timestamp, v: f64) {
        self.update(t_i, v);
    }

    fn update_batch_at(&mut self, ts: &[Timestamp], vs: &[f64]) {
        self.update_batch(ts, vs);
    }

    fn query_at(&self, t: Timestamp) -> f64 {
        self.query(t)
    }

    fn stats(&self) -> SummaryStats {
        SummaryStats {
            renormalizations: self.renorm.rescales(),
            items: self.n,
            accepted: self.n,
            ..SummaryStats::default()
        }
    }
}

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
        SummaryStats {
            renormalizations: self.sum.renorm.rescales() + self.count.renorm.rescales(),
            items: self.count.n,
            accepted: self.count.n,
            ..SummaryStats::default()
        }
    }
}

impl<G: ForwardDecay> DecayedVariance<G> {
    /// The landmark `L` passed at construction.
    pub fn landmark(&self) -> Timestamp {
        self.sum.landmark()
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
        SummaryStats {
            renormalizations: self.sum_sq.renorm.rescales()
                + self.sum.renorm.rescales()
                + self.count.renorm.rescales(),
            items: self.count.n,
            accepted: self.count.n,
            ..SummaryStats::default()
        }
    }
}

impl<G: ForwardDecay> DecayedExtremum<G> {
    /// The landmark `L` passed at construction.
    pub fn landmark(&self) -> Timestamp {
        self.renorm.original_landmark()
    }
}

impl<G: ForwardDecay> Summary for DecayedExtremum<G> {
    type Update = f64;
    type Output = Option<(f64, Timestamp, f64)>;

    fn landmark(&self) -> Timestamp {
        self.landmark()
    }

    fn update_at(&mut self, t_i: Timestamp, v: f64) {
        self.update(t_i, v);
    }

    fn query_at(&self, t: Timestamp) -> Option<(f64, Timestamp, f64)> {
        self.query(t)
    }

    fn stats(&self) -> SummaryStats {
        SummaryStats {
            renormalizations: self.renorm.rescales(),
            occupancy: u64::from(self.best.is_some()),
            capacity: 1,
            ..SummaryStats::default()
        }
    }

    fn check_invariants(&self) -> Result<(), String> {
        // NaN keys are rejected at ingestion; the witness timestamp can
        // never precede the landmark after the clamp.
        if let Some((key, t_i, _)) = self.best {
            if key.is_nan() {
                return Err("DecayedExtremum stored a NaN key".into());
            }
            if t_i < self.renorm.original_landmark() {
                return Err(format!(
                    "DecayedExtremum witness {t_i:?} precedes landmark {:?}",
                    self.renorm.original_landmark()
                ));
            }
        }
        Ok(())
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
