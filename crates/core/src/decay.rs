//! Decay functions: the forward model introduced by the paper (Section III)
//! and the classical backward model it replaces (Section II).
//!
//! A *decay function* `w(i, t)` (Definition 1) assigns every stream item a
//! weight in `[0, 1]` that equals 1 at arrival and never increases as time
//! passes.
//!
//! - **Backward decay** (Definition 2): `w(i, t) = f(t − t_i) / f(0)` for a
//!   monotone non-increasing `f` of the item's *age*. Ages change
//!   continuously, which is what makes backward decay expensive to support.
//! - **Forward decay** (Definition 3): `w(i, t) = g(t_i − L) / g(t − L)` for a
//!   monotone non-decreasing `g` and a fixed landmark `L ≤ t_i`. The
//!   numerator is frozen at arrival; only the common denominator moves.
//!
//! Both models are expressed as traits so that summaries are generic over the
//! decay function, and both come with the concrete families the paper
//! discusses. [`Exponential`] forward decay coincides exactly with
//! [`BackExponential`] backward decay (Section III-A) — a property tested
//! here and exploited by the samplers in [`crate::sampling`].

use crate::checkpoint::{CodecError, Decode, Encode, Reader};
use crate::codec_struct;
use crate::error::Error;
use crate::Timestamp;

// ---------------------------------------------------------------------------
// Forward decay
// ---------------------------------------------------------------------------

/// A forward decay function `g` (Definition 3 of the paper).
///
/// Implementations must guarantee that `g` is positive and monotone
/// non-decreasing on `n ≥ 0` (checked for all in-crate implementations by
/// [`check_forward_axioms`]).
///
/// Decay functions are part of every summary's checkpointable state, so
/// implementors encode through [`crate::checkpoint`] — for the small,
/// parameter-only structs here, one [`codec_struct!`](crate::codec_struct)
/// line whose check is the family's own `try_new`.
pub trait ForwardDecay: Clone + Send + Sync + Encode + Decode + 'static {
    /// Evaluates `g(n)` for `n ≥ 0` (seconds since the landmark).
    fn g(&self, n: f64) -> f64;

    /// Evaluates `ln g(n)`. Summaries that must survive exponential decay on
    /// long streams (the samplers) work in the log domain; the default
    /// forwarding through [`ForwardDecay::g`] is exact only while `g(n)` fits
    /// in `f64`, so implementations with faster-than-polynomial growth
    /// override this.
    #[inline]
    fn ln_g(&self, n: f64) -> f64 {
        self.g(n).ln()
    }

    /// True if `g(a + b) = g(a) · g(b)` for all `a, b ≥ 0` — i.e. `g` is an
    /// exponential. Multiplicative decay admits landmark renormalization
    /// (Section VI-A) and coincides with its backward counterpart
    /// (Section III-A).
    #[inline]
    fn is_multiplicative(&self) -> bool {
        false
    }

    /// `g(a) / g(W)`, the weight at the end of a window `W` µs wide of an
    /// arrival `a ≤ W` µs into it: how the engine's buckets weigh. An
    /// exponential divides in the log domain, a monomial takes the ratio of
    /// the integers, so a whole-number dilation keeps every bit (Lemma 1).
    #[inline]
    fn relative_weight(&self, age_micros: u64, width_micros: u64) -> f64 {
        self.g(age_micros as f64 * 1e-6) / self.g(width_micros as f64 * 1e-6)
    }

    /// The decayed weight `w(i, t) = g(t_i − L) / g(t − L)` of an item that
    /// arrived at `t_i`, evaluated at time `t ≥ t_i`.
    ///
    /// A pre-landmark arrival (`t_i < L`) is clamped to the landmark per
    /// [`clamp_to_landmark`] — the uniform policy shared with every summary's
    /// ingestion path.
    #[inline]
    fn weight(
        &self,
        landmark: impl Into<Timestamp>,
        t_i: impl Into<Timestamp>,
        t: impl Into<Timestamp>,
    ) -> f64 {
        let (landmark, t_i, t) = (landmark.into(), t_i.into(), t.into());
        let t_i = clamp_to_landmark(t_i, landmark);
        let denom = self.g(t - landmark);
        if denom == 0.0 {
            return 0.0;
        }
        if self.is_multiplicative() {
            // Evaluate as exp(ln g(tᵢ−L) − ln g(t−L)): immune to overflow of
            // the individual g values.
            return (self.ln_g(t_i - landmark) - self.ln_g(t - landmark)).exp();
        }
        self.g(t_i - landmark) / denom
    }
}

/// The uniform pre-landmark arrival policy: an item stamped before the
/// landmark is treated as arriving *at* the landmark (`t_i < L` behaves as
/// `t_i = L`).
///
/// The paper requires `L ≤ t_i`, but real streams deliver stragglers and
/// clock-skewed tuples stamped before the landmark. Every ingestion path —
/// the `update_at`s (a batch is its items fed in order), the engine's
/// cells, and the samplers — routes item timestamps through this clamp
/// against the summary's **original** landmark, so all decay families and
/// all code paths agree:
///
/// - for the polynomial families the clamp coincides with their intrinsic
///   `g(n ≤ 0) = g(0)` handling (Monomial and LandmarkWindow map negative
///   ages to weight 0, PolySum to its constant term), so nothing changes;
/// - for exponential `g` it caps a pre-landmark item's weight at the
///   landmark's weight instead of letting `exp(αn)` keep decaying below `L`
///   (or tripping a debug assert), which previously made the scalar, batched
///   and sampler paths disagree with each other.
#[inline]
pub fn clamp_to_landmark(t_i: Timestamp, landmark: Timestamp) -> Timestamp {
    if t_i < landmark {
        landmark
    } else {
        t_i
    }
}

/// No decay: `g(n) = 1`. Forward decay's embedding of plain, undecayed
/// aggregation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoDecay;

codec_struct!(NoDecay {});

impl ForwardDecay for NoDecay {
    #[inline]
    fn g(&self, _n: f64) -> f64 {
        1.0
    }
    #[inline]
    fn ln_g(&self, _n: f64) -> f64 {
        0.0
    }
    #[inline]
    fn is_multiplicative(&self) -> bool {
        true // g(a+b) = 1 = g(a)·g(b); renormalization is a harmless no-op.
    }
}

/// Monomial (polynomial) forward decay: `g(n) = n^β`, `β > 0`.
///
/// The only forward decay family with the *relative decay* property
/// (Definition 4 / Lemma 1): the weight of an item depends only on its
/// relative position `(t_i − L)/(t − L)` inside the window `[L, t]`, namely
/// `w = γ^β` for relative age `γ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Monomial {
    beta: f64,
}

codec_struct!(Monomial { beta: f64 } check |m| Monomial::try_new(m.beta));

impl Monomial {
    /// Creates `g(n) = n^β`.
    ///
    /// # Panics
    /// Panics if `beta` is not finite and positive; see [`try_new`] for
    /// the fallible variant.
    ///
    /// [`try_new`]: Monomial::try_new
    pub fn new(beta: f64) -> Self {
        Self::try_new(beta).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates `g(n) = n^β`, rejecting a non-finite or non-positive `beta`.
    pub fn try_new(beta: f64) -> Result<Self, Error> {
        Ok(Self {
            beta: crate::error::require_positive("beta", beta)?,
        })
    }

    /// Quadratic decay `g(n) = n²`, the paper's running example.
    pub fn quadratic() -> Self {
        Self::new(2.0)
    }
}

impl ForwardDecay for Monomial {
    #[inline]
    fn g(&self, n: f64) -> f64 {
        // Zero clamp as a select (not `max`, which would swallow NaN), so
        // the quadratic fast path is a two-op straight line; `powf` of a
        // clamped 0 is 0 for every valid β, matching the old guard.
        let n = if n <= 0.0 { 0.0 } else { n };
        if self.beta == 2.0 {
            n * n // fast path for the common quadratic case
        } else {
            n.powf(self.beta)
        }
    }

    #[inline]
    fn ln_g(&self, n: f64) -> f64 {
        if n <= 0.0 {
            f64::NEG_INFINITY
        } else {
            self.beta * n.ln()
        }
    }

    #[inline]
    fn relative_weight(&self, age_micros: u64, width_micros: u64) -> f64 {
        self.g(age_micros as f64 / width_micros as f64)
    }
}

/// Exponential forward decay: `g(n) = exp(αn)`, `α > 0`.
///
/// Identical to backward exponential decay with rate `α` (Section III-A):
/// `g(t_i − L)/g(t − L) = exp(−α(t − t_i))` independent of `L`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    alpha: f64,
}

codec_struct!(Exponential { alpha: f64 } check |e| Exponential::try_new(e.alpha));

impl Exponential {
    /// Creates `g(n) = exp(αn)`.
    ///
    /// # Panics
    /// Panics if `alpha` is not finite and positive; see [`try_new`] for
    /// the fallible variant.
    ///
    /// [`try_new`]: Exponential::try_new
    pub fn new(alpha: f64) -> Self {
        Self::try_new(alpha).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates `g(n) = exp(αn)`, rejecting a non-finite or non-positive
    /// `alpha`.
    pub fn try_new(alpha: f64) -> Result<Self, Error> {
        Ok(Self {
            alpha: crate::error::require_positive("alpha", alpha)?,
        })
    }

    /// Creates the exponential decay whose weight halves every `half_life`
    /// seconds.
    ///
    /// # Panics
    /// Panics if `half_life` is not finite and positive; see
    /// [`try_with_half_life`] for the fallible variant.
    ///
    /// [`try_with_half_life`]: Exponential::try_with_half_life
    pub fn with_half_life(half_life: f64) -> Self {
        Self::try_with_half_life(half_life).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates the exponential decay whose weight halves every `half_life`
    /// seconds, rejecting a non-finite or non-positive half-life.
    pub fn try_with_half_life(half_life: f64) -> Result<Self, Error> {
        let half_life = crate::error::require_positive("half_life", half_life)?;
        Self::try_new(std::f64::consts::LN_2 / half_life)
    }
}

impl ForwardDecay for Exponential {
    #[inline]
    fn g(&self, n: f64) -> f64 {
        (self.alpha * n).exp()
    }

    #[inline]
    fn ln_g(&self, n: f64) -> f64 {
        self.alpha * n
    }

    #[inline]
    fn relative_weight(&self, age_micros: u64, width_micros: u64) -> f64 {
        let before_end = (age_micros as f64 - width_micros as f64) * 1e-6;
        self.ln_g(before_end).exp()
    }

    #[inline]
    fn is_multiplicative(&self) -> bool {
        true
    }
}

/// Landmark window (Section III-C): `g(n) = 1` for `n > 0`, else `0`. All
/// items after the landmark count fully until the window "closes" (the query
/// terminates); items at or before the landmark count for nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LandmarkWindow;

codec_struct!(LandmarkWindow {});

impl ForwardDecay for LandmarkWindow {
    #[inline]
    fn g(&self, n: f64) -> f64 {
        if n > 0.0 {
            1.0
        } else {
            0.0
        }
    }
}

/// General polynomial forward decay: `g(n) = Σ_j γ_j n^j` with non-negative
/// coefficients (Section III-B's "arbitrary polynomial decay functions").
#[derive(Debug, Clone, PartialEq)]
pub struct PolySum {
    /// `coeffs[j]` is γ_j, the coefficient of `n^j`.
    coeffs: Vec<f64>,
}

codec_struct!(PolySum { coeffs: Vec<f64> } check |p| PolySum::try_new(p.coeffs.clone()));

impl PolySum {
    /// Creates `g(n) = Σ_j coeffs[j] · n^j`.
    ///
    /// # Panics
    /// Panics if coefficients are empty, any is negative or non-finite, or
    /// all are zero (g would not be positive); see [`try_new`] for the
    /// fallible variant.
    ///
    /// [`try_new`]: PolySum::try_new
    pub fn new(coeffs: Vec<f64>) -> Self {
        Self::try_new(coeffs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates `g(n) = Σ_j coeffs[j] · n^j`, rejecting empty, negative,
    /// non-finite or all-zero coefficients.
    pub fn try_new(coeffs: Vec<f64>) -> Result<Self, Error> {
        if coeffs.is_empty() {
            return Err(Error::MissingComponent {
                builder: "PolySum",
                component: "coefficients",
            });
        }
        if let Some(bad) = coeffs.iter().find(|c| !c.is_finite() || **c < 0.0) {
            return Err(Error::InvalidParameter {
                name: "coeffs",
                value: *bad,
                requirement: "non-negative and finite",
            });
        }
        if !coeffs.iter().any(|c| *c > 0.0) {
            return Err(Error::InvalidParameter {
                name: "coeffs",
                value: 0.0,
                requirement: "positive for at least one coefficient",
            });
        }
        Ok(Self { coeffs })
    }
}

impl ForwardDecay for PolySum {
    #[inline]
    fn g(&self, n: f64) -> f64 {
        let n = n.max(0.0);
        // Horner evaluation.
        self.coeffs.iter().rev().fold(0.0, |acc, &c| acc * n + c)
    }
}

/// A forward decay function chosen at runtime (from configuration, a query
/// string, a CLI flag…), closed over the families of Section III.
///
/// Static generics ([`Monomial`], [`Exponential`], …) compile to direct
/// calls and are preferred in hot paths; `AnyDecay` trades one match per
/// evaluation for dynamic selection.
///
/// ```
/// use fd_core::decay::{AnyDecay, ForwardDecay};
///
/// let g: AnyDecay = "poly:2".parse().unwrap();
/// assert_eq!(g.weight(100.0, 105.0, 110.0), 0.25);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum AnyDecay {
    /// `g(n) = 1`.
    None,
    /// `g(n) = n^β`.
    Monomial(Monomial),
    /// `g(n) = exp(αn)`.
    Exponential(Exponential),
    /// Landmark window.
    Landmark(LandmarkWindow),
    /// `g(n) = Σ γ_j n^j`.
    Poly(PolySum),
}

/// A `u32` variant index (in declaration order), then the family's
/// parameters.
impl Encode for AnyDecay {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            AnyDecay::None => 0u32.put(out),
            AnyDecay::Monomial(m) => (1u32, m).put(out),
            AnyDecay::Exponential(e) => (2u32, e).put(out),
            AnyDecay::Landmark(l) => (3u32, l).put(out),
            AnyDecay::Poly(p) => (4u32, p).put(out),
        }
    }
}

impl Decode for AnyDecay {
    const MIN_BYTES: usize = 4;

    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match u32::take(r)? {
            0 => AnyDecay::None,
            1 => AnyDecay::Monomial(Monomial::take(r)?),
            2 => AnyDecay::Exponential(Exponential::take(r)?),
            3 => AnyDecay::Landmark(LandmarkWindow::take(r)?),
            4 => AnyDecay::Poly(PolySum::take(r)?),
            v => return Err(CodecError::new(format!("no decay family {v}"))),
        })
    }
}

impl ForwardDecay for AnyDecay {
    #[inline]
    fn g(&self, n: f64) -> f64 {
        match self {
            AnyDecay::None => NoDecay.g(n),
            AnyDecay::Monomial(m) => m.g(n),
            AnyDecay::Exponential(e) => e.g(n),
            AnyDecay::Landmark(l) => l.g(n),
            AnyDecay::Poly(p) => p.g(n),
        }
    }

    #[inline]
    fn ln_g(&self, n: f64) -> f64 {
        match self {
            AnyDecay::None => NoDecay.ln_g(n),
            AnyDecay::Monomial(m) => m.ln_g(n),
            AnyDecay::Exponential(e) => e.ln_g(n),
            AnyDecay::Landmark(l) => l.ln_g(n),
            AnyDecay::Poly(p) => p.ln_g(n),
        }
    }

    #[inline]
    fn relative_weight(&self, age_micros: u64, width_micros: u64) -> f64 {
        match self {
            AnyDecay::None => NoDecay.relative_weight(age_micros, width_micros),
            AnyDecay::Monomial(m) => m.relative_weight(age_micros, width_micros),
            AnyDecay::Exponential(e) => e.relative_weight(age_micros, width_micros),
            AnyDecay::Landmark(l) => l.relative_weight(age_micros, width_micros),
            AnyDecay::Poly(p) => p.relative_weight(age_micros, width_micros),
        }
    }

    #[inline]
    fn is_multiplicative(&self) -> bool {
        match self {
            AnyDecay::None => NoDecay.is_multiplicative(),
            AnyDecay::Exponential(e) => e.is_multiplicative(),
            _ => false,
        }
    }
}

impl std::str::FromStr for AnyDecay {
    type Err = String;

    /// Parses `"none"`, `"landmark"`, `"poly:<β>"`, `"exp:<α>"`, or
    /// `"halflife:<seconds>"`.
    fn from_str(s: &str) -> Result<Self, String> {
        let (kind, arg) = match s.split_once(':') {
            Some((k, a)) => (k, Some(a)),
            None => (s, None),
        };
        let num = |a: Option<&str>| -> Result<f64, String> {
            a.ok_or_else(|| format!("'{kind}' needs a numeric parameter"))?
                .parse::<f64>()
                .map_err(|e| format!("bad parameter for '{kind}': {e}"))
        };
        match kind {
            "none" => Ok(AnyDecay::None),
            "landmark" => Ok(AnyDecay::Landmark(LandmarkWindow)),
            "poly" => Monomial::try_new(num(arg)?)
                .map(AnyDecay::Monomial)
                .map_err(|e| e.to_string()),
            "exp" => Exponential::try_new(num(arg)?)
                .map(AnyDecay::Exponential)
                .map_err(|e| e.to_string()),
            "halflife" => Exponential::try_with_half_life(num(arg)?)
                .map(AnyDecay::Exponential)
                .map_err(|e| e.to_string()),
            other => Err(format!(
                "unknown decay '{other}' (none|landmark|poly:β|exp:α|halflife:s)"
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// Backward decay
// ---------------------------------------------------------------------------

/// A backward decay function `f` (Definition 2 of the paper): positive and
/// monotone non-increasing in the item's age `a = t − t_i`.
pub trait BackwardDecay: Clone + Send + Sync + 'static {
    /// Evaluates `f(a)` for age `a ≥ 0`.
    fn f(&self, age: f64) -> f64;

    /// The decayed weight `w(i, t) = f(t − t_i) / f(0)`.
    #[inline]
    fn weight(&self, t_i: impl Into<Timestamp>, t: impl Into<Timestamp>) -> f64 {
        let (t_i, t) = (t_i.into(), t.into());
        debug_assert!(t >= t_i, "query time precedes item");
        self.f(t - t_i) / self.f(0.0)
    }
}

/// Sliding window of width `W`: `f(a) = 1` for `a < W`, else `0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackSlidingWindow {
    width: f64,
}

impl BackSlidingWindow {
    /// Creates a sliding window of the given width (seconds).
    ///
    /// # Panics
    /// Panics if `width` is not finite and positive.
    pub fn new(width: f64) -> Self {
        assert!(width.is_finite() && width > 0.0);
        Self { width }
    }
}

impl BackwardDecay for BackSlidingWindow {
    #[inline]
    fn f(&self, age: f64) -> f64 {
        if age < self.width {
            1.0
        } else {
            0.0
        }
    }
}

/// Backward exponential decay: `f(a) = exp(−λa)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackExponential {
    lambda: f64,
}

impl BackExponential {
    /// Creates `f(a) = exp(−λa)`.
    ///
    /// # Panics
    /// Panics if `lambda` is not finite and positive.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda.is_finite() && lambda > 0.0);
        Self { lambda }
    }

    /// The forward decay function that yields *identical* weights
    /// (Section III-A), regardless of landmark.
    pub fn as_forward(&self) -> Exponential {
        Exponential::new(self.lambda)
    }
}

impl BackwardDecay for BackExponential {
    #[inline]
    fn f(&self, age: f64) -> f64 {
        (-self.lambda * age).exp()
    }
}

/// Backward polynomial decay: `f(a) = (a + 1)^{−α}` (the `+1` makes
/// `f(0) = 1`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackPolynomial {
    alpha: f64,
}

impl BackPolynomial {
    /// Creates `f(a) = (a + 1)^{−α}`.
    ///
    /// # Panics
    /// Panics if `alpha` is not finite and positive.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha.is_finite() && alpha > 0.0);
        Self { alpha }
    }
}

impl BackwardDecay for BackPolynomial {
    #[inline]
    fn f(&self, age: f64) -> f64 {
        (age + 1.0).powf(-self.alpha)
    }
}

// ---------------------------------------------------------------------------
// Definition-1 property checks
// ---------------------------------------------------------------------------

/// Checks the decay-function axioms of Definition 1 for a forward decay
/// function on a grid of item times and query times over `[landmark,
/// horizon]`. Returns `Err` describing the first violated axiom.
///
/// Intended for tests and for validating user-supplied decay functions.
pub fn check_forward_axioms<G: ForwardDecay>(
    g: &G,
    landmark: impl Into<Timestamp>,
    horizon: impl Into<Timestamp>,
    steps: usize,
) -> Result<(), String> {
    let (landmark, horizon) = (landmark.into(), horizon.into());
    assert!(horizon > landmark && steps >= 2);
    let dt = (horizon - landmark) / steps as f64;
    for i in 1..=steps {
        let t_i = landmark + dt * i as f64;
        // Axiom 1: w(i, t_i) = 1 (when g(t_i − L) > 0), and w ∈ [0, 1].
        let w0 = g.weight(landmark, t_i, t_i);
        if g.g(t_i - landmark) > 0.0 && (w0 - 1.0).abs() > 1e-9 {
            return Err(format!("w(i, t_i) = {w0} ≠ 1 at t_i = {t_i}"));
        }
        let mut prev = w0;
        for j in i..=steps {
            let t = landmark + dt * j as f64;
            let w = g.weight(landmark, t_i, t);
            if !(0.0..=1.0 + 1e-12).contains(&w) {
                return Err(format!("w(i, {t}) = {w} outside [0, 1]"));
            }
            // Axiom 2: monotone non-increasing in t.
            if w > prev + 1e-9 {
                return Err(format!("w increased from {prev} to {w} at t = {t}"));
            }
            prev = w;
        }
    }
    Ok(())
}

/// Checks the decay-function axioms of Definition 1 for a backward decay
/// function on a grid of ages over `[0, horizon]`.
pub fn check_backward_axioms<F: BackwardDecay>(
    f: &F,
    horizon: f64,
    steps: usize,
) -> Result<(), String> {
    assert!(horizon > 0.0 && steps >= 2);
    let da = horizon / steps as f64;
    let w0 = f.weight(0.0, 0.0);
    if (w0 - 1.0).abs() > 1e-9 {
        return Err(format!("w at age 0 is {w0} ≠ 1"));
    }
    let mut prev = w0;
    for j in 1..=steps {
        let age = da * j as f64;
        let w = f.weight(0.0, age);
        if !(0.0..=1.0 + 1e-12).contains(&w) {
            return Err(format!("w(age = {age}) = {w} outside [0, 1]"));
        }
        if w > prev + 1e-9 {
            return Err(format!("w increased from {prev} to {w} at age {age}"));
        }
        prev = w;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Example 1 of the paper: L = 100, g(n) = n², t = 110.
    #[test]
    fn paper_example_1_weights() {
        let g = Monomial::quadratic();
        let stream = [105.0, 107.0, 103.0, 108.0, 104.0];
        let expected = [0.25, 0.49, 0.09, 0.64, 0.16];
        for (&t_i, &w) in stream.iter().zip(&expected) {
            assert!(
                (g.weight(100.0, t_i, 110.0) - w).abs() < 1e-12,
                "t_i = {t_i}"
            );
        }
    }

    /// Section III-A: forward and backward exponential decay coincide for
    /// any landmark.
    #[test]
    fn exponential_forward_equals_backward() {
        let alpha = 0.37;
        let fwd = Exponential::new(alpha);
        let bwd = BackExponential::new(alpha);
        for &landmark in &[0.0, 50.0, 99.9] {
            for &t_i in &[100.0, 123.4, 200.0] {
                for &dt in &[0.0, 0.1, 7.5, 300.0] {
                    let t = t_i + dt;
                    let wf = fwd.weight(landmark, t_i, t);
                    let wb = bwd.weight(t_i, t);
                    assert!(
                        (wf - wb).abs() < 1e-12,
                        "L={landmark} t_i={t_i} t={t}: fwd={wf} bwd={wb}"
                    );
                }
            }
        }
    }

    /// Lemma 1: monomial forward decay has the relative decay property,
    /// w = γ^β for relative age γ.
    #[test]
    fn monomial_relative_decay_property() {
        for &beta in &[0.5, 1.0, 2.0, 3.5] {
            let g = Monomial::new(beta);
            let landmark = 40.0;
            for &gamma in &[0.1, 0.25, 0.5, 0.75, 0.9] {
                for &t in &[50.0, 100.0, 1e6] {
                    let t_i = gamma * t + (1.0 - gamma) * landmark;
                    let w = g.weight(landmark, t_i, t);
                    assert!(
                        (w - gamma.powf(beta)).abs() < 1e-9,
                        "β={beta} γ={gamma} t={t}: w={w}"
                    );
                }
            }
        }
    }

    /// Backward polynomial decay does NOT have the relative decay property
    /// (the contrast the paper draws in Section III-B).
    #[test]
    fn backward_polynomial_lacks_relative_decay() {
        let f = BackPolynomial::new(2.0);
        let landmark = 0.0;
        let gamma = 0.5;
        let w_at = |t: f64| f.weight(gamma * t + (1.0 - gamma) * landmark, t);
        assert!((w_at(10.0) - w_at(1000.0)).abs() > 1e-3);
    }

    #[test]
    fn landmark_window_weights() {
        let g = LandmarkWindow;
        assert_eq!(g.weight(100.0, 105.0, 200.0), 1.0);
        assert_eq!(g.weight(100.0, 100.0, 200.0), 0.0); // at the landmark: n = 0
    }

    #[test]
    fn no_decay_weights_all_one() {
        let g = NoDecay;
        assert_eq!(g.weight(0.0, 5.0, 1e9), 1.0);
        assert!(g.is_multiplicative());
    }

    #[test]
    fn polysum_horner_matches_naive() {
        let g = PolySum::new(vec![1.0, 0.0, 2.0, 0.5]); // 1 + 2n² + 0.5n³
        for &n in &[0.0, 0.5, 1.0, 3.0, 10.0] {
            let naive = 1.0 + 2.0 * n * n + 0.5 * n * n * n;
            assert!((g.g(n) - naive).abs() < 1e-9 * naive.max(1.0));
        }
    }

    #[test]
    fn forward_axioms_hold_for_all_families() {
        check_forward_axioms(&NoDecay, 0.0, 100.0, 50).unwrap();
        check_forward_axioms(&Monomial::new(0.7), 0.0, 100.0, 50).unwrap();
        check_forward_axioms(&Monomial::quadratic(), 10.0, 500.0, 50).unwrap();
        check_forward_axioms(&Exponential::new(0.1), 0.0, 100.0, 50).unwrap();
        check_forward_axioms(&LandmarkWindow, 0.0, 100.0, 50).unwrap();
        check_forward_axioms(&PolySum::new(vec![0.0, 1.0, 3.0]), 0.0, 100.0, 50).unwrap();
    }

    #[test]
    fn backward_axioms_hold_for_all_families() {
        check_backward_axioms(&BackSlidingWindow::new(30.0), 100.0, 50).unwrap();
        check_backward_axioms(&BackExponential::new(0.2), 100.0, 50).unwrap();
        check_backward_axioms(&BackPolynomial::new(1.5), 100.0, 50).unwrap();
    }

    #[test]
    fn exponential_half_life() {
        let g = Exponential::with_half_life(10.0);
        let w = g.weight(0.0, 0.0, 10.0);
        assert!((w - 0.5).abs() < 1e-12);
        let w2 = g.weight(0.0, 5.0, 25.0);
        assert!((w2 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn exponential_weight_survives_huge_spans() {
        // g(t−L) overflows f64, but the multiplicative log-domain path keeps
        // the weight exact.
        let g = Exponential::new(1.0);
        let w = g.weight(0.0, 9_999.0, 10_000.0);
        assert!((w - (-1.0f64).exp()).abs() < 1e-12, "w = {w}");
    }

    #[test]
    fn ln_g_consistent_with_g() {
        fn check<G: ForwardDecay>(g: &G) {
            for &n in &[0.1, 1.0, 17.0, 123.4] {
                assert!((g.g(n).ln() - g.ln_g(n)).abs() < 1e-9);
            }
        }
        check(&Monomial::new(1.3));
        check(&Exponential::new(0.4));
        check(&PolySum::new(vec![1.0, 2.0]));
    }

    #[test]
    fn any_decay_matches_static_families() {
        let any: AnyDecay = "poly:2".parse().unwrap();
        let stat = Monomial::quadratic();
        for &(l, t_i, t) in &[(0.0, 5.0, 10.0), (100.0, 105.0, 110.0)] {
            assert_eq!(any.weight(l, t_i, t), stat.weight(l, t_i, t));
        }
        let any: AnyDecay = "exp:0.5".parse().unwrap();
        assert!(any.is_multiplicative());
        assert_eq!(any.ln_g(3.0), 1.5);
        let any: AnyDecay = "halflife:10".parse().unwrap();
        assert!((any.weight(0.0, 0.0, 10.0) - 0.5).abs() < 1e-12);
        let any: AnyDecay = "none".parse().unwrap();
        assert_eq!(any.weight(0.0, 1.0, 1e9), 1.0);
        let any: AnyDecay = "landmark".parse().unwrap();
        assert_eq!(any.weight(5.0, 6.0, 100.0), 1.0);
    }

    #[test]
    fn any_decay_rejects_malformed_specs() {
        for bad in [
            "",
            "poly",
            "poly:-1",
            "poly:zzz",
            "exp:0",
            "sliding:5",
            "halflife:-2",
        ] {
            assert!(bad.parse::<AnyDecay>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn any_decay_satisfies_axioms() {
        for spec in ["none", "landmark", "poly:1.5", "exp:0.2", "halflife:30"] {
            let g: AnyDecay = spec.parse().unwrap();
            check_forward_axioms(&g, 0.0, 100.0, 40).unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "invalid beta")]
    fn monomial_rejects_nonpositive_beta() {
        let _ = Monomial::new(0.0);
    }

    #[test]
    fn try_constructors_report_instead_of_panicking() {
        assert!(Monomial::try_new(2.0).is_ok());
        assert!(Monomial::try_new(0.0).is_err());
        assert!(Monomial::try_new(f64::NAN).is_err());
        assert!(Exponential::try_new(-1.0).is_err());
        assert!(Exponential::try_with_half_life(0.0).is_err());
        assert!(Exponential::try_with_half_life(60.0).is_ok());
        assert!(PolySum::try_new(vec![]).is_err());
        assert!(PolySum::try_new(vec![0.0, 0.0]).is_err());
        assert!(PolySum::try_new(vec![1.0, -1.0]).is_err());
        assert!(PolySum::try_new(vec![0.0, 1.0]).is_ok());
        let msg = Monomial::try_new(0.0).unwrap_err().to_string();
        assert!(msg.contains("beta") && msg.contains("> 0"), "{msg}");
    }

    #[test]
    #[should_panic]
    fn exponential_rejects_nonpositive_alpha() {
        let _ = Exponential::new(-1.0);
    }

    #[test]
    #[should_panic]
    fn polysum_rejects_all_zero() {
        let _ = PolySum::new(vec![0.0, 0.0]);
    }

    #[test]
    fn sliding_window_cutoff_is_sharp() {
        let f = BackSlidingWindow::new(60.0);
        assert_eq!(f.weight(0.0, 59.999), 1.0);
        assert_eq!(f.weight(0.0, 60.0), 0.0);
    }

    #[test]
    fn pre_landmark_arrivals_clamp_to_the_landmark() {
        // For every family, an item stamped before the landmark weighs
        // exactly as much as one stamped *at* the landmark — weight() must
        // not decay it below L, return NaN, or (for exponential) give it a
        // weight below the landmark item's.
        let landmark = 100.0;
        let t = 110.0;
        for g in [
            AnyDecay::None,
            AnyDecay::Monomial(Monomial::new(2.0)),
            AnyDecay::Monomial(Monomial::new(1.5)),
            AnyDecay::Exponential(Exponential::new(0.3)),
            AnyDecay::Landmark(LandmarkWindow),
            AnyDecay::Poly(PolySum::new(vec![1.0, 0.0, 2.0])),
        ] {
            let at_landmark = g.weight(landmark, landmark, t);
            for early in [99.9, 50.0, -1000.0] {
                let w = g.weight(landmark, early, t);
                assert_eq!(
                    w, at_landmark,
                    "pre-landmark arrival at {early} disagrees with the clamp"
                );
                assert!(!w.is_nan());
            }
        }
    }

    #[test]
    fn clamp_to_landmark_is_identity_at_and_after_l() {
        let l = Timestamp::from_secs_f64(100.0);
        assert_eq!(clamp_to_landmark(Timestamp::from_secs_f64(99.0), l), l);
        assert_eq!(clamp_to_landmark(l, l), l);
        let later = Timestamp::from_secs_f64(101.0);
        assert_eq!(clamp_to_landmark(later, l), later);
    }
}
