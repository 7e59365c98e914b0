//! Forward decay, written once: [`Decayed<G, S>`] is one clock around any
//! weighted summary.
//!
//! Definition 3 weights an item that arrived at `t_i` by
//! `g(t_i − L) / g(t − L)`: the numerator is fixed at arrival, the
//! denominator common to all items. So the paper's whole method (§IV–V) is
//! one move — hand an existing *weighted* summary the static weight
//! `g(t_i − L)`, divide by `g(t − L)` only when asked — and [`Decayed`] is
//! that move: the arrival prologue (clamp to the landmark, renormalize if
//! exponential weights have grown large, freeze the weight), its batched
//! form, the landmark alignment of a merge, and the guarded query-time
//! denominator. *What* is summarized is the [`Weighted`] summary inside: an
//! accumulator ([`crate::aggregates`]), SpaceSaving
//! ([`crate::heavy_hitters`]), a q-digest ([`crate::quantiles`]), a
//! count-min sketch with its candidates ([`crate::cm`], the worked example:
//! a new decayed sketch is one `impl Weighted` and a type alias).
//!
//! ```
//! use fd_core::decay::Exponential;
//! use fd_core::decayed::Decayed;
//! use fd_core::heavy_hitters::WeightedSpaceSaving;
//!
//! // What `DecayedHeavyHitters::new` spells: SpaceSaving under a clock.
//! let g = Exponential::with_half_life(60.0);
//! let mut hh = Decayed::wrap(g, 0.0, WeightedSpaceSaving::new(100));
//! for i in 0..1000u64 {
//!     hh.update(i as f64, i / 100); // item 9 is the last 100 seconds
//! }
//! assert_eq!(hh.heavy_hitters(0.5, 1000.0)[0].item, 9);
//! assert!(hh.decayed_count(1000.0) < 100.0); // ≈ 87 of the 1000 arrivals
//! ```

use crate::checkpoint::{CodecError, Decode, Encode, Reader};
use crate::decay::{clamp_to_landmark, ForwardDecay};
use crate::error::Error;
use crate::kernel::WeightKernel;
use crate::merge::Mergeable;
use crate::numerics::{landmark_shift_factor, Renormalizer};
use crate::summary::{Summary, SummaryStats};
use crate::Timestamp;

/// The arrival prologue of a clock — a landmark under `g` and its
/// renormalizer, however many summaries it drives: clamps a pre-landmark
/// `t_i` ([`clamp_to_landmark`]), renormalizes if the new weight would be
/// too large to store, and returns the clamped time with the weight
/// `g(t_i − L_eff)` — fixed from here on — and, if the landmark moved, the
/// factor every state under the clock must be multiplied by before the
/// weight joins them.
#[inline]
pub fn arrive<G: ForwardDecay>(
    g: &G,
    renorm: &mut Renormalizer,
    t_i: Timestamp,
) -> (Timestamp, f64, Option<f64>) {
    let t_i = clamp_to_landmark(t_i, renorm.original_landmark());
    let moved = renorm.pre_update(g, t_i);
    (t_i, g.g(t_i - renorm.landmark()), moved)
}

/// The query-time denominator `g(t − L_eff)` of a clock, or `None` where it
/// is zero (a polynomial `g` at the landmark itself) and no decayed answer
/// is defined.
#[inline]
pub fn denominator<G: ForwardDecay>(g: &G, renorm: &Renormalizer, t: Timestamp) -> Option<f64> {
    let denom = g.g(t - renorm.landmark());
    (denom != 0.0).then_some(denom)
}

/// A [`Decayed`]'s bytes from its three parts, wherever they are held:
/// `g`, the renormalizer, the summary. A holder that keeps one `g` and one
/// clock for many summaries writes each as the standalone summary is
/// written.
pub fn put_parts<G: Encode, S: Encode>(g: &G, renorm: &Renormalizer, inner: &S, out: &mut Vec<u8>) {
    (g, renorm, inner).put(out);
}

/// Reads back what [`put_parts`] wrote under the `g` whose encoding is
/// `g_bytes`: the renormalizer and the summary. A summary written under
/// another `g` is refused, not decoded.
pub fn take_parts<S: Decode>(
    r: &mut Reader<'_>,
    g_bytes: &[u8],
) -> Result<(Renormalizer, S), CodecError> {
    if r.bytes(g_bytes.len())? != g_bytes {
        return Err(CodecError::new("a state decayed by another g"));
    }
    Ok((Renormalizer::take(r)?, S::take(r)?))
}

/// Weighted state held apart from its clock: the static numerators of one
/// [`Weighted`] summary, or of several under one clock ([`Both`]), as a
/// holder that keeps one `g` and one clock for many states (the engine's
/// bucket) stores them. Written under its clock as the standalone summaries
/// are: each part [`put_parts`].
pub trait Numerators: Mergeable + Clone + Send + Sized + 'static {
    /// Multiplies every stored weight by `factor`: the clock moved.
    fn scale(&mut self, factor: f64);

    /// Appends each part's bytes under `g` and `renorm`.
    fn put_under<G: Encode>(&self, g: &G, renorm: &Renormalizer, out: &mut Vec<u8>);

    /// Reads back what [`put_under`](Self::put_under) wrote under the `g`
    /// encoded as `g_bytes` ([`take_parts`]), with the clock it was written
    /// under; parts written under different clocks are refused.
    fn take_under(r: &mut Reader<'_>, g_bytes: &[u8]) -> Result<(Renormalizer, Self), CodecError>;
}

impl<S: Weighted + Encode + Decode + Send + 'static> Numerators for S {
    #[inline]
    fn scale(&mut self, factor: f64) {
        Weighted::scale(self, factor);
    }

    fn put_under<G: Encode>(&self, g: &G, renorm: &Renormalizer, out: &mut Vec<u8>) {
        put_parts(g, renorm, self, out);
    }

    fn take_under(r: &mut Reader<'_>, g_bytes: &[u8]) -> Result<(Renormalizer, Self), CodecError> {
        take_parts(r, g_bytes)
    }
}

/// Two states under one clock, in the order their standalone summary's
/// fields are: an average's sum and count
/// ([`DecayedAverage`](crate::aggregates::DecayedAverage)), a variance's sum
/// of squares and average.
#[derive(Debug, Clone)]
pub struct Both<A, B>(pub A, pub B);

impl<A: Mergeable, B: Mergeable> Mergeable for Both<A, B> {
    fn merge_from(&mut self, other: &Self) {
        self.0.merge_from(&other.0);
        self.1.merge_from(&other.1);
    }
}

impl<A: Numerators, B: Numerators> Numerators for Both<A, B> {
    fn scale(&mut self, factor: f64) {
        self.0.scale(factor);
        self.1.scale(factor);
    }

    fn put_under<G: Encode>(&self, g: &G, renorm: &Renormalizer, out: &mut Vec<u8>) {
        self.0.put_under(g, renorm, out);
        self.1.put_under(g, renorm, out);
    }

    /// The parts of one standalone summary see the same arrivals and
    /// merges, so they are written under the same clock.
    fn take_under(r: &mut Reader<'_>, g_bytes: &[u8]) -> Result<(Renormalizer, Self), CodecError> {
        let (renorm, a) = A::take_under(r, g_bytes)?;
        let (theirs, b) = B::take_under(r, g_bytes)?;
        if theirs != renorm {
            return Err(CodecError::new(
                "the parts of a state under different clocks",
            ));
        }
        Ok((renorm, Both(a, b)))
    }
}

/// `ln` of the room a decayed sum keeps above its largest weight: 2¹²⁸,
/// as many arrivals as a count may hold (2⁶², `checkpoint::MAX_COUNT`),
/// each weighing a value — or a variance's squared value — of up to 2⁶⁶.
const LN_SUM_HEADROOM: f64 = 128.0 * std::f64::consts::LN_2;

/// The numeric contract of `g` over one bucket, for summaries that share
/// one clock per bucket: every weight stored for an arrival at most
/// `horizon_secs` past its landmark, times the room a sum needs (2¹²⁸),
/// must be a finite `f64`. A multiplicative `g` stores at most
/// [`RESCALE_THRESHOLD`](crate::numerics::RESCALE_THRESHOLD) (the renormalizer moves the landmark first), so it
/// always passes; a polynomial stores `g(horizon)`. Past the bound a sum overflows to `∞`
/// and its answer, `∞ / ∞`, is NaN.
///
/// Where the answer is a `ratio` of weights (an average, a quantile's
/// rank), a multiplicative `g` must also keep every weight a normal `f64`
/// under the clock's newest landmark, which moves with the newest arrival:
/// an arrival `horizon_secs` older weighs `1 / g(horizon)` against it. Past
/// that, a group that fell quiet early in the bucket has its weights
/// underflow to zero, and its ratio is `0 / 0`. A sum loses nothing that
/// way: its answer was below the smallest `f64` too.
///
/// # Errors
/// [`Error::InvalidParameter`] naming `ln g` over the horizon and the
/// bound it must stay below.
pub fn check_horizon<G: ForwardDecay>(g: &G, horizon_secs: f64, ratio: bool) -> Result<(), Error> {
    let ln_g = g.ln_g(horizon_secs);
    let refused = |requirement| {
        Err(Error::InvalidParameter {
            name: "ln g(bucket + slack)",
            value: ln_g,
            requirement,
        })
    };
    match (g.is_multiplicative(), ratio) {
        (true, false) => Ok(()),
        (true, true) if ln_g < -f64::MIN_POSITIVE.ln() => Ok(()),
        (true, true) => refused(
            "below -ln(f64::MIN_POSITIVE) ≈ 708.40 for an exponential g under a ratio \
             (average, variance, heavy hitters, quantiles): past it, the weights of a group \
             that fell quiet underflow (a smaller α, or a narrower bucket)",
        ),
        (false, _) if ln_g + LN_SUM_HEADROOM < f64::MAX.ln() => Ok(()),
        (false, _) => refused(
            "below ln(f64::MAX / 2^128) ≈ 621.06, the room a decayed sum needs \
             (a smaller β, or a narrower bucket)",
        ),
    }
}

/// A summary of weighted arrivals that forward decay can drive: weights
/// add, and the whole state scales linearly.
pub trait Weighted: Mergeable + Clone {
    /// What accompanies an arrival's timestamp: `()` for a count, the value
    /// for a sum, the item or value identifier for a sketch.
    type Item: Copy;

    /// The decayed answer of the [`Summary`] view.
    type Output: Default;

    /// Adds the arrival `(t_i, item)` with weight `w = g(t_i − L) ≥ 0`;
    /// `t_i` is already clamped to the landmark.
    fn add(&mut self, t_i: Timestamp, item: Self::Item, w: f64);

    /// Multiplies every stored weight by `factor ≥ 0` — the linear
    /// renormalization pass of Section VI-A. Zero is legal: a landmark
    /// shift wider than `f64` can express rounds to it
    /// ([`landmark_shift_factor`]).
    fn scale(&mut self, factor: f64);

    /// The answer at a query time whose `g(t − L)` is `denom ≠ 0`.
    fn over(&self, denom: f64) -> Self::Output;

    /// Adds a batch in slice order, `ts[i]` weighing `g(max(ts[i], l0) − l)`.
    /// The default evaluates weights through a [`WeightKernel`], so
    /// duplicated clock ticks cost a compare instead of a `powf`/`exp`.
    fn add_batch<G: ForwardDecay>(
        &mut self,
        g: &G,
        l0: Timestamp,
        l: Timestamp,
        ts: &[Timestamp],
        items: &[Self::Item],
    ) {
        let mut k = WeightKernel::new(g.clone());
        for (&t_i, &item) in ts.iter().zip(items) {
            let t_i = clamp_to_landmark(t_i, l0);
            self.add(t_i, item, k.g(t_i - l));
        }
    }

    /// Occupancy and activity counters; [`Decayed`] fills in
    /// `renormalizations`.
    fn stats(&self) -> SummaryStats {
        SummaryStats::default()
    }

    /// Structural self-check ([`Summary::check_invariants`]) of a summary
    /// created with `landmark`.
    fn check_invariants(&self, _landmark: Timestamp) -> Result<(), String> {
        Ok(())
    }
}

/// A [`Weighted`] summary under the forward-decay clock of `g`
/// (Definition 3): arrivals weigh `g(t_i − L)`, answers are divided by
/// `g(t − L)`.
///
/// Exact bookkeeping around `inner`: the summary's error bounds, space and
/// merge semantics carry over unchanged (Theorems 1–3), out-of-order
/// arrivals need no care (the weight depends on `t_i` alone), and summaries
/// built with the same `g` and landmark merge even after exponential
/// renormalization has moved their effective landmarks apart.
#[derive(Debug, Clone)]
pub struct Decayed<G: ForwardDecay, S: Weighted> {
    g: G,
    renorm: Renormalizer,
    /// Weights `g(t_i − L_eff)` against the current effective landmark.
    pub(crate) inner: S,
}

impl<G: ForwardDecay, S: Weighted> Decayed<G, S> {
    /// Puts the (empty) summary `inner` under the clock of `g` with
    /// landmark `L`.
    pub fn wrap(g: G, landmark: impl Into<Timestamp>, inner: S) -> Self {
        Self {
            g,
            renorm: Renormalizer::new(landmark),
            inner,
        }
    }

    /// The landmark `L` passed at construction (renormalization is
    /// invisible here).
    pub fn landmark(&self) -> Timestamp {
        self.renorm.original_landmark()
    }

    /// The weighted summary: ratios of its weights are decayed ratios,
    /// absolute ones need [`denominator`](Self::denominator).
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The arrival prologue: clamps a pre-landmark `t_i`
    /// ([`clamp_to_landmark`]), renormalizes first if the new weight would
    /// be too large to store, and returns the clamped time with the weight
    /// `g(t_i − L_eff)` — fixed from here on.
    #[inline]
    pub(crate) fn arrive(&mut self, t_i: Timestamp) -> (Timestamp, f64) {
        let (t_i, w, moved) = arrive(&self.g, &mut self.renorm, t_i);
        if let Some(factor) = moved {
            self.inner.scale(factor);
        }
        (t_i, w)
    }

    /// The query-time denominator `g(t − L)`, or `None` where it is zero (a
    /// polynomial `g` at the landmark itself) and no decayed answer is
    /// defined. `t` should be at least the largest timestamp observed, else
    /// some weights exceed 1 (Section VI-B permits this for "historical"
    /// queries).
    #[inline]
    pub fn denominator(&self, t: impl Into<Timestamp>) -> Option<f64> {
        denominator(&self.g, &self.renorm, t.into())
    }

    /// The decayed answer at query time `t` — the count, the sum, the
    /// extremum with its witness, a sketch's total mass: the summary's state
    /// over [`denominator`](Self::denominator), empty where that is `None`.
    #[inline]
    pub fn query(&self, t: impl Into<Timestamp>) -> S::Output {
        self.denominator(t)
            .map(|denom| self.inner.over(denom))
            .unwrap_or_default()
    }
}

/// `g`, the renormalizer, then the summary's own fields.
impl<G: ForwardDecay, S: Weighted + Encode> Encode for Decayed<G, S> {
    fn put(&self, out: &mut Vec<u8>) {
        put_parts(&self.g, &self.renorm, &self.inner, out);
    }
}

impl<G: ForwardDecay, S: Weighted + Decode> Decode for Decayed<G, S> {
    const MIN_BYTES: usize = G::MIN_BYTES + Renormalizer::MIN_BYTES + S::MIN_BYTES;

    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            g: G::take(r)?,
            renorm: Renormalizer::take(r)?,
            inner: S::take(r)?,
        })
    }
}

impl<G: ForwardDecay, S: Weighted> Mergeable for Decayed<G, S> {
    /// Aligns the two effective landmarks — whichever side is older is
    /// re-expressed against the newer — then merges the summaries.
    ///
    /// # Panics
    /// Panics unless both were created with the same landmark.
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(
            self.renorm.original_landmark(),
            other.renorm.original_landmark(),
            "summaries must share a landmark"
        );
        let (ours, theirs) = (self.renorm.landmark(), other.renorm.landmark());
        if theirs < ours {
            // In the log domain: the linear 1/g(ΔL) collapses to 0.0 once
            // the gap overflows g (≈ 709/α s for exponential decay), zeroing
            // the other side's mass.
            let mut aligned = other.inner.clone();
            aligned.scale(landmark_shift_factor(&self.g, theirs, ours));
            self.inner.merge_from(&aligned);
        } else {
            if let Some(factor) = self.renorm.rescale_to(&self.g, theirs) {
                self.inner.scale(factor);
            }
            self.inner.merge_from(&other.inner);
        }
    }
}

/// Timestamped arrivals in, the summary's state over `g(t − L)` out; what
/// else a summary answers (heavy hitters, quantiles, ranks) comes from the
/// inherent methods of its alias.
impl<G: ForwardDecay, S: Weighted> Summary for Decayed<G, S> {
    type Update = S::Item;
    type Output = S::Output;

    fn landmark(&self) -> Timestamp {
        self.landmark()
    }

    #[inline]
    fn update_at(&mut self, t_i: Timestamp, item: S::Item) {
        let (t_i, w) = self.arrive(t_i);
        self.inner.add(t_i, item, w);
    }

    /// Per-item [`update_at`](Self::update_at) calls in slice order, with
    /// the renormalization check hoisted out of the loop: only a
    /// multiplicative `g` can move the landmark, and whether it must
    /// depends on the largest age in flight alone, so one
    /// [`Renormalizer::pre_update`] against the batch maximum stands in for
    /// one per item. Results agree with the scalar path up to `f64`
    /// rounding: the identical weights are added, and exponential decay may
    /// renormalize once (to the batch maximum) where the scalar path
    /// renormalizes stepwise.
    fn update_batch_at(&mut self, ts: &[Timestamp], items: &[S::Item]) {
        assert_eq!(ts.len(), items.len(), "columnar batch slices must align");
        if ts.is_empty() {
            return;
        }
        if self.g.is_multiplicative() {
            let &max_t = ts.iter().max().expect("batch is non-empty");
            if let Some(factor) = self.renorm.pre_update(&self.g, max_t) {
                self.inner.scale(factor);
            }
        }
        // Stragglers clamp against the *original* landmark (the effective
        // one only ever advances past it), as on the scalar path.
        let (l0, l) = (self.renorm.original_landmark(), self.renorm.landmark());
        self.inner.add_batch(&self.g, l0, l, ts, items);
    }

    #[inline]
    fn query_at(&self, t: Timestamp) -> S::Output {
        self.query(t)
    }

    fn stats(&self) -> SummaryStats {
        SummaryStats {
            renormalizations: self.renorm.rescales(),
            ..self.inner.stats()
        }
    }

    fn check_invariants(&self) -> Result<(), String> {
        self.inner.check_invariants(self.landmark())
    }
}

/// The sketches over item (or value) identifiers — heavy hitters,
/// quantiles, count-min — share one ingestion spelling and answer their
/// total decayed mass. (Bounded to `Item = u64` rather than written for
/// every `S`: a count's `update(t)` carries no item, so the scalar cells in
/// [`crate::aggregates`] spell their own one-line `update`s.)
impl<G: ForwardDecay, S: Weighted<Item = u64, Output = f64>> Decayed<G, S> {
    /// Ingests an occurrence of `item` at time `t_i`. Pre-landmark
    /// timestamps are clamped to the landmark ([`clamp_to_landmark`]).
    #[inline]
    pub fn update(&mut self, t_i: impl Into<Timestamp>, item: u64) {
        self.update_at(t_i.into(), item);
    }

    /// Ingests a columnar batch, `ts[i]` pairing with `items[i]`, applied in
    /// slice order; see [`Summary::update_batch_at`] on [`Decayed`] for
    /// what is hoisted and the rounding caveats.
    ///
    /// # Panics
    /// Panics if the slices' lengths differ.
    pub fn update_batch(&mut self, ts: &[Timestamp], items: &[u64]) {
        self.update_batch_at(ts, items);
    }

    /// The total decayed count `C` at query time `t`.
    pub fn decayed_count(&self, t: impl Into<Timestamp>) -> f64 {
        self.query(t)
    }
}
