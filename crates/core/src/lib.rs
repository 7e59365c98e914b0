//! # fd-core — Forward Decay for data streams
//!
//! A from-scratch implementation of *"Forward Decay: A Practical Time Decay
//! Model for Streaming Systems"* (Cormode, Shkapenyuk, Srivastava, Xu,
//! ICDE 2009).
//!
//! The paper's central idea: instead of weighting a stream item by a function
//! of its *age* measured **backward** from the (ever-moving) current time,
//! weight it by a function of the time elapsed **forward** from a fixed
//! landmark `L`:
//!
//! ```text
//! w(i, t) = g(t_i − L) / g(t − L)
//! ```
//!
//! for a monotone non-decreasing `g`. The numerator is *fixed at arrival*, so
//! every aggregate reduces to its weighted, undecayed counterpart plus a
//! single scaling by `g(t − L)` at query time — and that reduction is one
//! type here, [`Decayed<G, S>`](decayed): a clock around any [`Weighted`]
//! summary `S`. The crate is that type, the summaries it runs, and what
//! they are measured against:
//!
//! - [`decay`] — forward decay functions (no decay, monomial, exponential,
//!   landmark window, general polynomials) and the classical backward decay
//!   functions they are compared against;
//! - [`decayed`] — [`Decayed`] and [`Weighted`]: the arrival prologue
//!   (scalar and batched), merge-time landmark alignment and the query-time
//!   denominator, written once; a new decayed sketch is one `impl Weighted`;
//! - the weighted summaries and their decayed aliases: [`aggregates`]
//!   (constant-space Count / Sum / Min / Max, and the Average / Variance
//!   composed of them — Theorem 1), [`heavy_hitters`] (weighted SpaceSaving
//!   — Theorem 2 — plus the unary variant the paper uses as undecayed
//!   baseline), [`quantiles`] (a weighted q-digest — Theorem 3), [`cm`] (a
//!   Count-Min sketch with a candidate set, the alternative heavy-hitter
//!   backend of the ablation benches);
//! - what does not reduce to a weighted sum keeps its own log-domain
//!   arithmetic: [`distinct`] — the dominance norm
//!   `Σ_v max_{v_i = v} g(t_i − L)` (Theorem 4) — and [`sampling`] —
//!   sampling with replacement (Theorem 5), weighted reservoir and priority
//!   sampling without (Theorem 6), the exponential-decay sampler of
//!   Corollary 1 and Aggarwal's biased reservoir as backward baseline;
//! - [`backward`] — the backward-decay machinery the paper benchmarks
//!   against: exponential histograms for sliding-window / arbitrary-decay
//!   sums and counts (with the Cohen–Strauss query-time combination) and a
//!   pane-structured sliding-window heavy-hitter summary;
//! - [`numerics`] — landmark renormalization and log-domain accumulation
//!   for exponential `g` (Section VI-A); [`kernel`] — batched weight
//!   evaluation with per-tick memoization behind the batched paths;
//! - [`merge`] — [`Mergeable`]: every summary merges across sites or shards
//!   (Section VI-B); [`summary`] — the [`Summary`] view (`update_at` /
//!   `query_at`) every decayed summary and sampler offers generic code;
//!   [`checkpoint`] — binary snapshot/restore for all of them, through
//!   two small traits (`Encode` / `Decode`);
//! - [`oracle`] — a brute-force differential oracle, an adversarial stream
//!   generator and a ddmin shrinker, backing `tests/differential.rs`;
//!   [`error`] — the [`Error`] of the `try_` constructors.
//!
//! ## Quick example
//!
//! ```
//! use fd_core::decay::Monomial;
//! use fd_core::aggregates::{DecayedCount, DecayedSum};
//!
//! # fn main() -> Result<(), fd_core::Error> {
//! // Example 1 of the paper: landmark L = 100, g(n) = n², queried at t = 110.
//! let g = Monomial::try_new(2.0)?;
//! let landmark = 100.0;
//! let stream = [(105.0, 4.0), (107.0, 8.0), (103.0, 3.0), (108.0, 6.0), (104.0, 4.0)];
//!
//! let mut count = DecayedCount::new(g.clone(), landmark);
//! let mut sum = DecayedSum::new(g.clone(), landmark);
//! for &(t, v) in &stream {
//!     count.update(t);
//!     sum.update(t, v);
//! }
//! assert!((count.query(110.0) - 1.63).abs() < 1e-9);
//! assert!((sum.query(110.0) - 9.67).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```
//!
//! ## Timestamps
//!
//! All APIs take `impl Into<`[`Timestamp`]`>`: either a [`Timestamp`]
//! (integer microseconds since a fixed epoch, the workspace-wide clock
//! shared with `fd-engine`'s packet tuples) or a plain `f64` in seconds,
//! which converts at microsecond resolution.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod aggregates;
pub mod backward;
pub mod checkpoint;
pub mod cm;
pub mod decay;
pub mod decayed;
pub mod distinct;
pub mod error;
pub mod hash;
pub mod heavy_hitters;
pub mod kernel;
pub mod merge;
pub mod numerics;
pub mod oracle;
pub mod quantiles;
pub mod sampling;
pub mod summary;

pub use decay::{BackwardDecay, ForwardDecay};
pub use decayed::{Decayed, Weighted};
pub use error::Error;
pub use merge::Mergeable;
pub use summary::{Summary, SummaryStats};

/// One-stop imports for typical forward-decay use.
///
/// ```
/// use fd_core::prelude::*;
///
/// let mut sum = DecayedSum::new(Exponential::with_half_life(60.0), 0.0);
/// sum.update(10.0, 3.0);
/// assert!(sum.query(20.0) > 0.0);
/// ```
pub mod prelude {
    pub use crate::aggregates::{
        DecayedAverage, DecayedCount, DecayedExtremum, DecayedSum, DecayedVariance,
    };
    pub use crate::decay::{
        AnyDecay, BackwardDecay, Exponential, ForwardDecay, LandmarkWindow, Monomial, NoDecay,
        PolySum,
    };
    pub use crate::decayed::{Decayed, Weighted};
    pub use crate::distinct::DominanceSketch;
    pub use crate::error::Error;
    pub use crate::heavy_hitters::DecayedHeavyHitters;
    pub use crate::kernel::WeightKernel;
    pub use crate::merge::Mergeable;
    pub use crate::quantiles::DecayedQuantiles;
    pub use crate::sampling::{exp_decay_sample, PrioritySampler, WeightedReservoir};
    pub use crate::summary::{Summary, SummaryStats};
    pub use crate::Timestamp;
}

/// An instant on the stream clock: integer microseconds since an arbitrary
/// fixed epoch.
///
/// The paper is agnostic to time units. This crate fixes *one* clock for the
/// whole workspace: a 64-bit count of microseconds, the native resolution of
/// packet traces, shared by the summaries here and by the `fd-engine` tuple
/// format (which previously kept its own `u64` microsecond clock alongside
/// fd-core's `f64` seconds). Being an integer type, `Timestamp` is totally
/// ordered and hashable, so bucket indices and merge decisions are exact and
/// identical across shards — no float-comparison edge cases.
///
/// All decay math still happens in `f64` seconds via [`as_secs_f64`]; every
/// public API takes `impl Into<Timestamp>`, and `From<f64>` interprets a
/// float as *seconds* (rounded to the nearest microsecond), so existing
/// call sites written against the old `f64` alias compile unchanged:
///
/// ```
/// use fd_core::Timestamp;
///
/// let t: Timestamp = 1.5.into();           // seconds → micros
/// assert_eq!(t.as_micros(), 1_500_000);
/// assert_eq!(t.as_secs_f64(), 1.5);
/// assert_eq!(Timestamp::from_micros(250), Timestamp::from(0.00025));
/// ```
///
/// The only semantic requirements on timestamps are unchanged: they must be
/// non-decreasing *on average* (out-of-order arrivals are explicitly
/// supported) and every item timestamp must be at or after the landmark of
/// the summary it feeds.
///
/// [`as_secs_f64`]: Timestamp::as_secs_f64
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp {
    micros: i64,
}

// Within ±2⁶² µs of the epoch, the age of one decoded timestamp relative
// to another always fits in an `i64`.
crate::codec_struct!(Timestamp { micros: i64 } check |t| checkpoint::require(
    t.micros.unsigned_abs() < 1 << 62,
    "a timestamp more than 146 000 years from the epoch",
));

impl Timestamp {
    /// The epoch itself: `t = 0`.
    pub const ZERO: Timestamp = Timestamp { micros: 0 };

    /// A timestamp from raw microseconds since the epoch.
    pub const fn from_micros(micros: i64) -> Self {
        Self { micros }
    }

    /// Microseconds since the epoch.
    pub const fn as_micros(self) -> i64 {
        self.micros
    }

    /// A timestamp from seconds since the epoch, rounded to the nearest
    /// microsecond.
    pub fn from_secs_f64(secs: f64) -> Self {
        Self {
            micros: (secs * 1e6).round() as i64,
        }
    }

    /// Seconds since the epoch, the unit all decay math runs in.
    pub fn as_secs_f64(self) -> f64 {
        self.micros as f64 * 1e-6
    }
}

impl From<f64> for Timestamp {
    /// Interprets the float as *seconds* since the epoch.
    fn from(secs: f64) -> Self {
        Self::from_secs_f64(secs)
    }
}

impl From<Timestamp> for f64 {
    fn from(t: Timestamp) -> f64 {
        t.as_secs_f64()
    }
}

/// Timestamp difference in *seconds* — ages and window widths feed straight
/// into the `f64` decay math.
impl std::ops::Sub for Timestamp {
    type Output = f64;

    fn sub(self, rhs: Timestamp) -> f64 {
        (self.micros - rhs.micros) as f64 * 1e-6
    }
}

/// Age in seconds of a timestamp relative to a float clock reading —
/// eases migration of call sites that still hold `f64` seconds.
impl std::ops::Sub<Timestamp> for f64 {
    type Output = f64;

    fn sub(self, rhs: Timestamp) -> f64 {
        self - rhs.as_secs_f64()
    }
}

/// Shifts a timestamp by a duration in seconds.
impl std::ops::Add<f64> for Timestamp {
    type Output = Timestamp;

    fn add(self, secs: f64) -> Timestamp {
        Timestamp {
            micros: self.micros + (secs * 1e6).round() as i64,
        }
    }
}

/// Shifts a timestamp back by a duration in seconds.
impl std::ops::Sub<f64> for Timestamp {
    type Output = Timestamp;

    fn sub(self, secs: f64) -> Timestamp {
        Timestamp {
            micros: self.micros - (secs * 1e6).round() as i64,
        }
    }
}

/// Compares against a time in seconds (exact at microsecond resolution).
impl PartialEq<f64> for Timestamp {
    fn eq(&self, secs: &f64) -> bool {
        *self == Timestamp::from_secs_f64(*secs)
    }
}

impl PartialEq<Timestamp> for f64 {
    fn eq(&self, t: &Timestamp) -> bool {
        Timestamp::from_secs_f64(*self) == *t
    }
}

impl PartialOrd<f64> for Timestamp {
    fn partial_cmp(&self, secs: &f64) -> Option<std::cmp::Ordering> {
        Some(self.micros.cmp(&Timestamp::from_secs_f64(*secs).micros))
    }
}

impl PartialOrd<Timestamp> for f64 {
    fn partial_cmp(&self, t: &Timestamp) -> Option<std::cmp::Ordering> {
        Some(Timestamp::from_secs_f64(*self).micros.cmp(&t.micros))
    }
}

impl std::fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}s", self.as_secs_f64())
    }
}

impl std::fmt::Display for Timestamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.as_secs_f64())
    }
}
