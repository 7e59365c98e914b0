//! Numerical machinery for forward decay (Section VI-A of the paper).
//!
//! The efficiency of forward decay comes from storing quantities built from
//! the *un-normalized* weights `g(t_i − L)` and scaling by `g(t − L)` only at
//! query time. For polynomial `g` these intermediates stay comfortably inside
//! `f64` range; for exponential `g(n) = exp(αn)` they grow without bound as
//! the stream ages. The paper's fix is **landmark renormalization**: because
//! exponential decay is invariant under the choice of landmark, all stored
//! values can be multiplied by `exp(−α(L′ − L))` to re-express them relative
//! to a fresh landmark `L′` — a linear pass over whatever data structure is in
//! use.
//!
//! This module provides two tools:
//!
//! - [`Renormalizer`], which watches the magnitude of stored `g` values and
//!   tells a summary when (and by how much) to rescale;
//! - [`LogSum`], a log-domain accumulator (`logsumexp`) used by the samplers,
//!   which never overflows regardless of `α` or stream length.

use crate::decay::ForwardDecay;
use crate::Timestamp;

/// Magnitude at which a summary should renormalize its stored `g` values.
///
/// `f64::MAX ≈ 1.8e308`; renormalizing at `1e150` leaves ~158 decimal orders
/// of headroom for sums of many terms and products taken during queries.
pub const RESCALE_THRESHOLD: f64 = 1e150;

/// Tracks the current *effective landmark* of a summary and decides when the
/// stored `g(t_i − L)` values must be rescaled to a newer landmark.
///
/// For decay functions that are not multiplicative (see
/// [`ForwardDecay::is_multiplicative`]) renormalization is unsound, and this
/// type never requests it; such functions (the polynomials) do not need it,
/// as their `g` values grow only polynomially in the stream age.
///
/// # Usage
///
/// ```
/// use fd_core::decay::{Exponential, ForwardDecay};
/// use fd_core::numerics::Renormalizer;
///
/// let g = Exponential::new(2.0);
/// let mut r = Renormalizer::new(0.0);
/// let mut acc = 0.0_f64; // Σ g(t_i − L_eff)
/// for i in 0..1000 {
///     let t = i as f64;
///     if let Some(rescale) = r.pre_update(&g, t) {
///         acc *= rescale; // the linear pass from Section VI-A
///     }
///     acc += g.g(t - r.landmark());
/// }
/// // Query at t = 1000: scale by g(t − L_eff) exactly as with the original L.
/// let decayed_count = acc / g.g(1000.0 - r.landmark());
/// assert!(decayed_count.is_finite() && decayed_count > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Renormalizer {
    /// The landmark all stored values are currently relative to.
    landmark: Timestamp,
    /// The original landmark, preserved for reporting.
    original: Timestamp,
    /// How many rescale events this renormalizer has requested.
    rescales: u64,
}

crate::codec_struct!(Renormalizer {
    landmark: Timestamp,
    original: Timestamp,
    rescales: u64
});

impl Renormalizer {
    /// Creates a renormalizer with the given initial landmark.
    pub fn new(landmark: impl Into<Timestamp>) -> Self {
        let landmark = landmark.into();
        Self {
            landmark,
            original: landmark,
            rescales: 0,
        }
    }

    /// The current effective landmark. Use this (not the original landmark)
    /// when computing `g(t_i − L)` for new arrivals and `g(t − L)` at query
    /// time.
    #[inline]
    pub fn landmark(&self) -> Timestamp {
        self.landmark
    }

    /// The landmark the summary was created with.
    #[inline]
    pub fn original_landmark(&self) -> Timestamp {
        self.original
    }

    /// How many rescale events ([`pre_update`](Self::pre_update) returning
    /// `Some`) have occurred — the larger count of two clocks after a
    /// [`join`](Self::join). Each one is a linear pass over the owning
    /// summary's state, so this is the cost signal the telemetry layer
    /// surfaces.
    #[inline]
    pub fn rescales(&self) -> u64 {
        self.rescales
    }

    /// Call before ingesting an item with timestamp `t`. If the stored values
    /// need rescaling, advances the effective landmark to `t` and returns the
    /// factor `g(L − L′)⁻¹`-equivalent, i.e. the value every stored `g`-based
    /// quantity must be **multiplied by**. Returns `None` when no rescale is
    /// needed.
    #[inline]
    pub fn pre_update<G: ForwardDecay>(&mut self, g: &G, t: impl Into<Timestamp>) -> Option<f64> {
        let t = t.into();
        if !g.is_multiplicative() {
            return None;
        }
        let n = t - self.landmark;
        if n <= 0.0 || g.ln_g(n) < RESCALE_THRESHOLD.ln() {
            return None;
        }
        // Rescale so the newest item has g-value g(0)… but for exponential g,
        // g(0) = 1 and g(t_i − L′) = g(t_i − L) · exp(−α (L′ − L)).
        // Multiplicative g means g(a + b) = g(a) · g(b), so the factor is
        // 1 / g(L′ − L) — computed in the log domain, because after a long
        // idle gap g(n) itself overflows to +∞ and `1.0 / g(n)` would be
        // exactly 0.0, destroying every stored quantity it multiplies.
        let factor = (-g.ln_g(n)).exp();
        self.landmark = t;
        self.rescales += 1;
        Some(factor)
    }

    /// Brings `self` to the newer of the two effective landmarks, as a
    /// holder of states under both clocks must before it merges them:
    /// returns the factors the states under `self` and under `theirs` must
    /// be multiplied by (`None`: as they are), or `None` if the two began
    /// at different landmarks and have no common one. `self` then counts
    /// the larger number of rescales of the two, so joining a clock with
    /// itself, or a fresh clock of the same landmark with another, moves
    /// nothing but the landmark.
    pub fn join<G: ForwardDecay>(
        &mut self,
        g: &G,
        theirs: &Renormalizer,
    ) -> Option<(Option<f64>, Option<f64>)> {
        if self.original != theirs.original {
            return None;
        }
        self.rescales = self.rescales.max(theirs.rescales);
        let (ours, other) = (self.landmark, theirs.landmark);
        Some(match ours.cmp(&other) {
            std::cmp::Ordering::Greater => (None, Some(landmark_shift_factor(g, other, ours))),
            std::cmp::Ordering::Less => {
                self.landmark = other;
                (Some(landmark_shift_factor(g, ours, other)), None)
            }
            std::cmp::Ordering::Equal => (None, None),
        })
    }
}

/// The factor that re-expresses a quantity stored relative to landmark
/// `from` in terms of the newer landmark `to ≥ from`, for a multiplicative
/// decay function: `1 / g(to − from)`, computed in the log domain.
///
/// Merge and restore paths use this to align two summaries whose effective
/// landmarks drifted apart — one shard renormalized (or was restored from a
/// checkpoint taken after renormalization) while the other did not. The
/// naïve linear-domain `1.0 / g.g(to - from)` overflows to `1/∞ = 0.0` once
/// the gap exceeds ≈ `709/α` seconds for `g(n) = exp(αn)`, silently zeroing
/// the older side's mass and tripping the sketches' `scale_all` sanity
/// asserts. The log-domain form degrades gradually through the subnormal
/// range instead; a gap so wide that even subnormals cannot express the
/// factor (≈ `745/α` seconds) yields `0.0`, which at that point *is* the
/// correctly rounded value — the older mass is below `f64` resolution
/// relative to the newer landmark.
///
/// For non-multiplicative `g` landmark shifting is unsound; callers must
/// not shift landmarks for those functions (their renormalizers never
/// advance, so the gap is always zero).
#[inline]
pub fn landmark_shift_factor<G: ForwardDecay>(
    g: &G,
    from: impl Into<Timestamp>,
    to: impl Into<Timestamp>,
) -> f64 {
    let (from, to) = (from.into(), to.into());
    debug_assert!(to >= from, "landmark shift target precedes source");
    if to <= from {
        return 1.0;
    }
    (-g.ln_g(to - from)).exp()
}

/// A log-domain accumulator: maintains `ln Σ exp(xᵢ)` without ever leaving
/// the representable range of `f64`.
///
/// Used by the samplers, whose acceptance probabilities are ratios
/// `g(t_i − L) / Σ g(t_j − L)`; with exponential decay and long streams both
/// numerator and denominator overflow long before the ratio does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogSum {
    /// `ln` of the running sum; `-∞` for an empty sum.
    ln_total: f64,
}

crate::codec_struct!(LogSum { ln_total: f64 });

impl Default for LogSum {
    fn default() -> Self {
        Self::new()
    }
}

impl LogSum {
    /// An empty sum (`ln 0 = −∞`).
    pub fn new() -> Self {
        Self {
            ln_total: f64::NEG_INFINITY,
        }
    }

    /// Adds a term given by its natural logarithm.
    ///
    /// A NaN term is ignored: the accumulator backs sampler weight totals,
    /// and before this guard a single NaN (both branch comparisons false)
    /// poisoned the running sum permanently. `+∞` saturates the sum instead
    /// of producing `∞ − ∞ = NaN` in the rebalancing arithmetic.
    #[inline]
    pub fn add_ln(&mut self, ln_x: f64) {
        if ln_x.is_nan() || ln_x == f64::NEG_INFINITY {
            return;
        }
        if ln_x == f64::INFINITY || self.ln_total == f64::INFINITY {
            self.ln_total = f64::INFINITY;
        } else if self.ln_total == f64::NEG_INFINITY {
            self.ln_total = ln_x;
        } else if ln_x > self.ln_total {
            self.ln_total = ln_x + (self.ln_total - ln_x).exp().ln_1p();
        } else {
            self.ln_total += (ln_x - self.ln_total).exp().ln_1p();
        }
    }

    /// `ln` of the current sum (`−∞` if empty).
    #[inline]
    pub fn ln(&self) -> f64 {
        self.ln_total
    }

    /// The current sum itself; may be `+∞` if it exceeds `f64` range.
    #[inline]
    pub fn value(&self) -> f64 {
        self.ln_total.exp()
    }

    /// True if no terms have been added.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ln_total == f64::NEG_INFINITY
    }

    /// Merges another log-sum into this one (sum of the two sums).
    #[inline]
    pub fn merge(&mut self, other: &LogSum) {
        self.add_ln(other.ln_total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decay::{Exponential, Monomial};

    #[test]
    fn logsum_matches_direct_sum_for_small_values() {
        let xs: [f64; 5] = [0.5, 1.5, 2.0, 0.1, 3.3];
        let mut ls = LogSum::new();
        for &x in &xs {
            ls.add_ln(x.ln());
        }
        let direct: f64 = xs.iter().sum();
        assert!((ls.value() - direct).abs() < 1e-9);
    }

    #[test]
    fn logsum_handles_huge_terms() {
        let mut ls = LogSum::new();
        ls.add_ln(1000.0); // e^1000 — far beyond f64 range
        ls.add_ln(1001.0);
        ls.add_ln(999.0);
        // ln(e^1000 + e^1001 + e^999) = 1001 + ln(1 + e^-1 + e^-2)
        let expected = 1001.0 + (1.0 + (-1.0f64).exp() + (-2.0f64).exp()).ln();
        assert!((ls.ln() - expected).abs() < 1e-9);
    }

    #[test]
    fn logsum_empty_and_neg_infinity() {
        let mut ls = LogSum::new();
        assert!(ls.is_empty());
        assert_eq!(ls.value(), 0.0);
        ls.add_ln(f64::NEG_INFINITY); // adding zero changes nothing
        assert!(ls.is_empty());
        ls.add_ln(0.0); // add 1
        assert!(!ls.is_empty());
        assert!((ls.value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn logsum_merge_equals_concat() {
        let mut a = LogSum::new();
        let mut b = LogSum::new();
        let mut all = LogSum::new();
        for i in 0..10 {
            let x = (i as f64) * 0.7 - 2.0;
            if i % 2 == 0 {
                a.add_ln(x);
            } else {
                b.add_ln(x);
            }
            all.add_ln(x);
        }
        a.merge(&b);
        assert!((a.ln() - all.ln()).abs() < 1e-9);
    }

    #[test]
    fn renormalizer_keeps_exponential_sums_finite() {
        // α = 1, items every second for 2000 seconds: g(2000) = e^2000
        // overflows f64 (max ~e^709) without renormalization.
        let g = Exponential::new(1.0);
        let mut r = Renormalizer::new(0.0);
        let mut acc = 0.0_f64;
        let mut rescales = 0;
        for i in 0..=2000 {
            let t = i as f64;
            if let Some(f) = r.pre_update(&g, t) {
                acc *= f;
                rescales += 1;
            }
            acc += g.g(t - r.landmark());
            assert!(acc.is_finite(), "overflow at t = {t}");
        }
        assert!(rescales >= 4, "expected several rescales, got {rescales}");
        // Decayed count at t = 2000 with α = 1: Σ e^{-(2000-i)} ≈ 1/(1-e^{-1}).
        let decayed = acc / g.g(2000.0 - r.landmark());
        let expected = 1.0 / (1.0 - (-1.0f64).exp());
        assert!((decayed - expected).abs() < 1e-9, "decayed = {decayed}");
    }

    #[test]
    fn renormalizer_is_inert_for_polynomials() {
        let g = Monomial::new(2.0);
        let mut r = Renormalizer::new(0.0);
        assert_eq!(r.pre_update(&g, 1e200), None);
        assert_eq!(r.landmark(), 0.0);
        assert_eq!(r.join(&g, &Renormalizer::new(0.0)), Some((None, None)));
    }

    #[test]
    fn renormalizer_join_is_exact() {
        // α · 10 s = 400 > ln 1e150: the clock ahead moves to 20.
        let g = Exponential::new(40.0);
        let mut ahead = Renormalizer::new(10.0);
        assert!(ahead.pre_update(&g, 20.0).is_some());
        let mut r = Renormalizer::new(10.0);
        let t_i = 20.5;
        let before = g.g(t_i - r.landmark());
        let (factor, none) = r.join(&g, &ahead).unwrap();
        assert_eq!(none, None);
        let after = g.g(t_i - r.landmark());
        assert!((before * factor.unwrap() - after).abs() / after < 1e-12);
        assert_eq!(r.landmark(), 20.0);
        assert_eq!(r.original_landmark(), 10.0);
    }

    #[test]
    fn join_moves_to_the_newer_landmark_and_keeps_the_larger_count() {
        // α · 7 s = 350 > ln 1e150: each arrival 7 s on moves the clock.
        let g = Exponential::new(50.0);
        let (mut behind, mut ahead) = (Renormalizer::new(10.0), Renormalizer::new(10.0));
        assert!(ahead.pre_update(&g, 17.0).is_some());
        assert!(ahead.pre_update(&g, 24.0).is_some());
        // A fresh clock joined with a moved one becomes it; so does the
        // moved one joined with itself, scaling nothing.
        let factor = landmark_shift_factor(&g, 10.0, 24.0);
        assert_eq!(behind.join(&g, &ahead), Some((Some(factor), None)));
        assert_eq!(behind, ahead);
        assert_eq!(behind.join(&g, &ahead), Some((None, None)));
        // The side behind is the one scaled.
        let mut fresh = Renormalizer::new(10.0);
        assert_eq!(ahead.join(&g, &fresh), Some((None, Some(factor))));
        assert_eq!((ahead.landmark(), ahead.rescales()), (24.0.into(), 2));
        assert_eq!(fresh.join(&g, &Renormalizer::new(11.0)), None);
    }

    #[test]
    fn renormalizer_survives_overflow_gap() {
        // Regression: with α = 1 a 720 s idle gap gives g(720) = e^720 = +∞
        // in f64, so the old `1.0 / g(n)` factor was exactly 0.0 and one
        // rescale zeroed all stored state. The log-domain factor e^{-720}
        // is subnormal but strictly positive.
        let g = Exponential::new(1.0);
        let mut r = Renormalizer::new(0.0);
        let mut acc = g.g(0.0); // one item at t = 0
        let f = r.pre_update(&g, 720.0).expect("gap must trigger a rescale");
        assert!(f > 0.0, "rescale factor collapsed to 0.0");
        assert_eq!(f, (-720.0f64).exp());
        acc *= f;
        assert!(acc > 0.0, "stored state was zeroed by the rescale");
        acc += g.g(720.0 - r.landmark()); // second item, at t = 720
                                          // Decayed count at t = 720 is e^{-720} + 1 ≈ 1: correct and non-zero.
        let decayed = acc / g.g(720.0 - r.landmark());
        assert!(decayed.is_finite() && decayed >= 1.0, "decayed = {decayed}");
        assert_eq!(r.rescales(), 1);

        // Joining a clock behind by the same kind of gap must not zero either.
        let mut r2 = Renormalizer::new(0.0);
        let (f2, _) = r2.join(&g, &r).unwrap();
        assert_eq!(f2, Some((-720.0f64).exp()));
        assert_eq!(r2.rescales(), 1);
    }

    #[test]
    fn renormalizer_counts_rescales() {
        let g = Exponential::new(1.0);
        let mut r = Renormalizer::new(0.0);
        assert_eq!(r.rescales(), 0);
        for i in 0..=2000 {
            r.pre_update(&g, i as f64);
        }
        assert!(r.rescales() >= 4, "rescales = {}", r.rescales());
        let inert = Renormalizer::new(0.0);
        assert_eq!(inert.rescales(), 0);
    }

    #[test]
    fn logsum_ignores_nan_and_saturates_at_infinity() {
        // NaN into an empty sum leaves it empty.
        let mut ls = LogSum::new();
        ls.add_ln(f64::NAN);
        assert!(ls.is_empty());

        // NaN into a non-empty sum leaves it unchanged (it used to poison
        // the accumulator forever: both branch comparisons were false).
        ls.add_ln(0.0); // add 1
        ls.add_ln(f64::NAN);
        assert_eq!(ls.ln(), 0.0);

        // A subnormal-scale term (ln 5e-324 ≈ −744.4) is absorbed without
        // disturbing the total.
        ls.add_ln(-745.0);
        assert!(ls.ln().is_finite() && ls.ln() >= 0.0);

        // +∞ saturates rather than producing (∞ − ∞) = NaN…
        ls.add_ln(f64::INFINITY);
        assert_eq!(ls.ln(), f64::INFINITY);
        ls.add_ln(f64::INFINITY); // …twice stays saturated, not NaN
        assert_eq!(ls.ln(), f64::INFINITY);
        ls.add_ln(0.0);
        assert_eq!(ls.ln(), f64::INFINITY);
        ls.add_ln(f64::NAN); // NaN still ignored at saturation
        assert_eq!(ls.ln(), f64::INFINITY);
    }

    #[test]
    fn landmark_shift_factor_matches_linear_domain_when_finite() {
        let g = Exponential::new(0.5);
        let f = landmark_shift_factor(&g, 10.0, 30.0);
        assert!((f - 1.0 / g.g(20.0)).abs() / f < 1e-12);
        // Zero gap (and reversed arguments in release builds) is the identity.
        assert_eq!(landmark_shift_factor(&g, 10.0, 10.0), 1.0);
    }

    #[test]
    fn landmark_shift_factor_survives_overflow_gap() {
        // α = 1, gap 720: g(720) = e^720 = +∞ in f64, so the linear-domain
        // factor 1/g(720) collapsed to exactly 0.0. The log-domain factor is
        // the subnormal e^{-720} > 0.
        let g = Exponential::new(1.0);
        let f = landmark_shift_factor(&g, 0.0, 720.0);
        assert!(f > 0.0, "factor collapsed to 0.0 across an overflow gap");
        assert_eq!(f, (-720.0f64).exp());
        // Past the subnormal range (gap ≳ 745) the factor rounds to 0.0 —
        // honest rounding, not a collapse: the old mass is below resolution.
        let f2 = landmark_shift_factor(&g, 0.0, 2000.0);
        assert_eq!(f2, 0.0);
        assert!(!f2.is_nan());
    }

    #[test]
    fn renormalizer_ignores_backward_time() {
        let g = Exponential::new(1.0);
        let mut r = Renormalizer::new(100.0);
        assert_eq!(r.pre_update(&g, 50.0), None);
        assert_eq!(r.landmark(), 100.0);
    }
}
