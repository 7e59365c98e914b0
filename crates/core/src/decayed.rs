//! Forward decay, written once: [`Decayed<G, S>`] is one clock around any
//! weighted summary.
//!
//! Definition 3 weights an item that arrived at `t_i` by
//! `g(t_i − L) / g(t − L)`: the numerator is fixed at arrival, the
//! denominator common to all items. So the paper's whole method (§IV–V) is
//! one move — hand an existing *weighted* summary the static weight
//! `g(t_i − L)`, divide by `g(t − L)` only when asked — and [`Decayed`] is
//! that move: the arrival prologue (clamp to the landmark, renormalize if
//! exponential weights have grown large, freeze the weight), the landmark
//! alignment of a merge, and the guarded query-time denominator. A batch
//! is its arrivals fed in order ([`Summary::update_batch_at`]). *What* is
//! summarized is the [`Weighted`] summary inside: an
//! accumulator, or two or three of them under the one clock for an average
//! or a variance ([`Both`], [`crate::aggregates`]), SpaceSaving
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
use crate::merge::Mergeable;
use crate::numerics::Renormalizer;
use crate::summary::{Summary, SummaryStats};
use crate::Timestamp;

/// The static numerators of one [`Weighted`] summary, or of several under
/// one clock ([`Both`]), written per part as [`Decayed`] writes them (`g`,
/// the renormalizer, the fields) or as the engine's cells do (the fields).
pub trait Numerators: Mergeable + Clone + Send + Sized + 'static {
    /// Appends each part's own fields.
    fn put_fields(&self, out: &mut Vec<u8>);

    /// Reads back what [`put_fields`](Self::put_fields) wrote.
    fn take_fields(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Appends each part's bytes under `g` and `renorm`.
    fn put_under<G: Encode>(&self, g: &G, renorm: &Renormalizer, out: &mut Vec<u8>);

    /// Reads back what [`put_under`](Self::put_under) wrote, with the clock
    /// it was written under; parts written under another `g` than the one
    /// encoded as `g_bytes`, or under different clocks, are refused.
    fn take_under(r: &mut Reader<'_>, g_bytes: &[u8]) -> Result<(Renormalizer, Self), CodecError>;
}

impl<S: Weighted + Encode + Decode + Send + 'static> Numerators for S {
    fn put_fields(&self, out: &mut Vec<u8>) {
        self.put(out);
    }

    fn take_fields(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        S::take(r)
    }

    fn put_under<G: Encode>(&self, g: &G, renorm: &Renormalizer, out: &mut Vec<u8>) {
        (g, renorm, self).put(out);
    }

    fn take_under(r: &mut Reader<'_>, g_bytes: &[u8]) -> Result<(Renormalizer, Self), CodecError> {
        if r.bytes(g_bytes.len())? != g_bytes {
            return Err(CodecError::new("a state decayed by another g"));
        }
        Ok((Renormalizer::take(r)?, S::take(r)?))
    }
}

/// Two states under one clock, each written as its standalone summary is:
/// the [`Weighted`] states of an average ([`Mean`](crate::aggregates::Mean))
/// and of a variance ([`Moments`](crate::aggregates::Moments)).
#[derive(Debug, Clone)]
pub struct Both<A, B>(pub A, pub B);

impl<A: Mergeable, B: Mergeable> Mergeable for Both<A, B> {
    fn merge_from(&mut self, other: &Self) {
        self.0.merge_from(&other.0);
        self.1.merge_from(&other.1);
    }
}

impl<A: Numerators, B: Numerators> Numerators for Both<A, B> {
    fn put_fields(&self, out: &mut Vec<u8>) {
        self.0.put_fields(out);
        self.1.put_fields(out);
    }

    fn take_fields(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Both(A::take_fields(r)?, B::take_fields(r)?))
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

/// The numeric contract of `g` over one bucket, whose cells weigh `g(a) /
/// g(W) ≤ 1`: a sum is never refused (where its weights underflow, so did
/// its answer). A `ratio` of weights (an average, a quantile's rank) is
/// `0 / 0` for a group whose every weight underflows, so an exponential's
/// earliest weight `1 / g(horizon)` must stay normal, and a monomial —
/// `(a / W)^β` underflows for `a / W < e^(−744.4 / β)`, the first 15 % of
/// a bucket under `poly:400` — keeps `ln g(horizon) < ln(f64::MAX / 2^128)`.
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
        (_, false) => Ok(()),
        (true, true) if ln_g < -f64::MIN_POSITIVE.ln() => Ok(()),
        (true, true) => refused(
            "below -ln(f64::MIN_POSITIVE) ≈ 708.40 for an exponential g under a ratio \
             (average, variance, heavy hitters, quantiles): past it, the weights of a group \
             that fell quiet underflow (a smaller α, or a narrower bucket)",
        ),
        (false, true) if ln_g + 128.0 * std::f64::consts::LN_2 < f64::MAX.ln() => Ok(()),
        (false, true) => refused(
            "below ln(f64::MAX / 2^128) ≈ 621.06 for a polynomial g under a ratio: past it, \
             the weights of a group that arrived only early in a bucket underflow \
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
    /// ([`landmark_shift_factor`](crate::numerics::landmark_shift_factor)).
    fn scale(&mut self, factor: f64);

    /// The answer at a query time whose `g(t − L)` is `denom ≠ 0`.
    fn over(&self, denom: f64) -> Self::Output;

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

    /// Folds the arrival at `t_i` in with `add`, given its time and weight
    /// as [`Weighted::add`] is, after the arrival prologue: clamp to the
    /// landmark ([`clamp_to_landmark`]), renormalize if the new weight
    /// would be too large to store, freeze the weight `g(t_i − L_eff)`.
    #[inline]
    pub fn update_with(&mut self, t_i: Timestamp, add: impl FnOnce(&mut S, Timestamp, f64)) {
        let t_i = clamp_to_landmark(t_i, self.renorm.original_landmark());
        if let Some(factor) = self.renorm.pre_update(&self.g, t_i) {
            self.inner.scale(factor);
        }
        add(&mut self.inner, t_i, self.g.g(t_i - self.renorm.landmark()));
    }

    /// The query-time denominator `g(t − L)`, or `None` where it is zero (a
    /// polynomial `g` at the landmark itself) and no decayed answer is
    /// defined. `t` should be at least the largest timestamp observed, else
    /// some weights exceed 1 (Section VI-B permits this for "historical"
    /// queries).
    #[inline]
    pub fn denominator(&self, t: impl Into<Timestamp>) -> Option<f64> {
        let denom = self.g.g(t.into() - self.renorm.landmark());
        (denom != 0.0).then_some(denom)
    }

    /// The decayed answer at query time `t` — the count, the sum, the
    /// extremum with its witness, a sketch's total mass: the summary's state
    /// over [`denominator`](Self::denominator), empty where that is `None`.
    #[inline]
    pub fn query(&self, t: impl Into<Timestamp>) -> S::Output {
        answer(&self.inner, self.denominator(t))
    }
}

/// A state's decayed answer over a denominator, empty where that is `None`:
/// [`Decayed::query`], for a holder that keeps the decay apart.
#[inline]
pub fn answer<S: Weighted>(state: &S, denom: Option<f64>) -> S::Output {
    denom.map(|denom| state.over(denom)).unwrap_or_default()
}

/// Each part as [`Numerators::put_under`] writes it.
impl<G: ForwardDecay, S: Weighted + Numerators> Encode for Decayed<G, S> {
    fn put(&self, out: &mut Vec<u8>) {
        self.inner.put_under(&self.g, &self.renorm, out);
    }
}

/// Refuses a part under another `g` or clock than the first part's.
impl<G: ForwardDecay, S: Weighted + Numerators> Decode for Decayed<G, S> {
    /// At least the first part's `g` and clock.
    const MIN_BYTES: usize = G::MIN_BYTES + Renormalizer::MIN_BYTES;

    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let mut ahead = r.clone();
        let g = G::take(&mut ahead)?;
        let g_bytes = r.clone().bytes(r.remaining() - ahead.remaining())?;
        let (renorm, inner) = S::take_under(r, g_bytes)?;
        Ok(Self { g, renorm, inner })
    }
}

impl<G: ForwardDecay, S: Weighted> Mergeable for Decayed<G, S> {
    /// Joins the two clocks as the engine's buckets do
    /// ([`Renormalizer::join`]: whichever side is older is re-expressed
    /// against the newer landmark, and the merged clock counts the larger
    /// number of rescales), then merges the summaries.
    ///
    /// # Panics
    /// Panics unless both were created with the same landmark.
    fn merge_from(&mut self, other: &Self) {
        let Some((ours, theirs)) = self.renorm.join(&self.g, &other.renorm) else {
            panic!(
                "summaries must share a landmark: {} vs {}",
                self.landmark(),
                other.landmark()
            );
        };
        if let Some(factor) = ours {
            self.inner.scale(factor);
        }
        match theirs {
            Some(factor) => {
                let mut aligned = other.inner.clone();
                aligned.scale(factor);
                self.inner.merge_from(&aligned);
            }
            None => self.inner.merge_from(&other.inner),
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
        self.update_with(t_i, |s, t_i, w| s.add(t_i, item, w));
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

    /// Ingests a columnar batch, `ts[i]` pairing with `items[i]`: per-item
    /// [`update`](Self::update) calls in slice order.
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
