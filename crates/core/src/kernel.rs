//! Batched weight evaluation with per-tick memoization.
//!
//! Every forward-decayed summary spends its per-update budget on one
//! evaluation of `g(t_i − L)` (or `ln g` for the samplers). For the
//! polynomial families that is a `powf`, for exponential decay an `exp` —
//! tens of cycles per tuple, dominating the arithmetic around it
//! (`BENCH_shard.json`: fwd poly 40.9 ns/tuple vs 32.2 undecayed).
//!
//! Two observations make most of that cost avoidable on real streams:
//!
//! 1. **Timestamps repeat.** Packet feeds quantize arrival times to a
//!    clock tick (the fig2 trace stamps 100k pkt/s on microsecond ticks;
//!    coarser feeds — NetFlow, millisecond loggers — repeat far more), so
//!    consecutive updates to a summary frequently carry the *same* age
//!    `n = t_i − L`. A one-entry tick cache turns every repeat into a
//!    compare and a load.
//! 2. **Batches share the renormalization decision.** Whether an update
//!    must rescale the summary first
//!    ([`Renormalizer::pre_update`](crate::numerics::Renormalizer::pre_update))
//!    depends
//!    only on the decay family and the largest age in flight — so a batch
//!    can hoist that check out of the inner loop entirely (the batched
//!    arrival of [`Decayed`](crate::decayed::Decayed)) and leave a bare
//!    multiply-accumulate loop the compiler can vectorize.
//!
//! [`WeightKernel`] packages observation 1: it wraps a [`ForwardDecay`] and
//! memoizes the last distinct age seen, separately for `g` and `ln_g`.
//! For decay functions whose evaluation is already a couple of arithmetic
//! ops ([`NoDecay`](crate::decay::NoDecay), the quadratic
//! [`Monomial`](crate::decay::Monomial) fast path, …) the cache would cost
//! more than it saves; [`ForwardDecay::prefers_tick_cache`] lets each
//! family opt out, and the kernel then degenerates to a plain call.
//!
//! ```
//! use fd_core::kernel::WeightKernel;
//! use fd_core::decay::Exponential;
//!
//! let mut k = WeightKernel::new(Exponential::new(0.5));
//! let ages = [1.0, 1.0, 1.0, 2.0, 2.0]; // duplicated ticks
//! let total: f64 = ages.iter().map(|&n| k.g(n)).sum();
//! assert!(total > 0.0);
//! assert_eq!(k.misses(), 2); // only two distinct ages were evaluated
//! ```

use crate::decay::ForwardDecay;
use crate::Timestamp;

/// Evaluates `g` / `ln_g` over ages with a one-entry per-tick memo.
///
/// The memo key is the age itself (`f64` equality, so a `NaN` age never
/// hits and is simply recomputed). `g` and `ln_g` keep independent entries
/// because callers rarely need both for the same age.
///
/// Cache effectiveness is observable via [`hits`](Self::hits) /
/// [`misses`](Self::misses) — the `hotpath` bench reports the measured hit
/// rate per workload.
#[derive(Debug, Clone)]
pub struct WeightKernel<G: ForwardDecay> {
    g: G,
    /// Cached decision from [`ForwardDecay::prefers_tick_cache`]: when
    /// false, every call forwards straight to the decay function.
    memoize: bool,
    g_key: f64,
    g_val: f64,
    ln_key: f64,
    ln_val: f64,
    hits: u64,
    misses: u64,
}

impl<G: ForwardDecay> WeightKernel<G> {
    /// Wraps a decay function. The cache starts cold.
    pub fn new(g: G) -> Self {
        let memoize = g.prefers_tick_cache();
        Self {
            g,
            memoize,
            g_key: f64::NAN,
            g_val: 0.0,
            ln_key: f64::NAN,
            ln_val: 0.0,
            hits: 0,
            misses: 0,
        }
    }

    /// `g(n)`, memoized on the last distinct age.
    #[inline]
    pub fn g(&mut self, n: f64) -> f64 {
        if !self.memoize {
            return self.g.g(n);
        }
        if n == self.g_key {
            self.hits += 1;
            return self.g_val;
        }
        self.misses += 1;
        let v = self.g.g(n);
        self.g_key = n;
        self.g_val = v;
        v
    }

    /// `ln g(n)`, memoized on the last distinct age.
    #[inline]
    pub fn ln_g(&mut self, n: f64) -> f64 {
        if !self.memoize {
            return self.g.ln_g(n);
        }
        if n == self.ln_key {
            self.hits += 1;
            return self.ln_val;
        }
        self.misses += 1;
        let v = self.g.ln_g(n);
        self.ln_key = n;
        self.ln_val = v;
        v
    }

    /// Cache hits so far (always 0 when the family opts out of the cache).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (i.e. real `g`/`ln_g` evaluations) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Fraction of memoized calls served from the cache, or 0.0 before any
    /// call.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Number of independent accumulators in the striped batch loops: enough
/// to hide the f64 add latency behind the multiply pipeline.
const LANES: usize = 4;

/// How many leading timestamps [`batch_ticks_repeat`] samples.
const TICK_PROBE: usize = 64;

/// Decides whether a batch's ticks repeat often enough for the per-tick
/// memo to pay for itself, by sampling adjacent equality over the first
/// `TICK_PROBE` (64) timestamps. Streams arrive (near) time-ordered, so items
/// sharing a tick sit next to each other and adjacent equality estimates
/// the one-entry cache's hit rate directly. Returns `true` when at least a
/// quarter of the sampled pairs repeat — below that, the memo's
/// compare-and-store overhead outweighs the saved `g` evaluations and the
/// striped loops win (measured in the `hotpath` bench: a ~5%-hit µs-tick
/// feed loses ~20% to the memo, a ~99%-hit ms-tick feed gains ~75%).
pub fn batch_ticks_repeat(ts: &[Timestamp]) -> bool {
    let probe = &ts[..ts.len().min(TICK_PROBE)];
    if probe.len() < 2 {
        return false;
    }
    let repeats = probe.windows(2).filter(|w| w[0] == w[1]).count();
    repeats * 4 >= probe.len() - 1
}

/// `Σ f(ts[i])` with `LANES` (4) independent partial sums, so consecutive
/// adds pipeline instead of serializing on one accumulator's latency. The
/// reassociation changes results by at most normal `f64` rounding. The
/// batch maximum rides along in the same pass — measurably cheaper than a
/// second sweep over the slice. `ts` must be non-empty, else the returned
/// maximum is meaningless (`i64::MIN` micros).
///
/// This is the engine room of [`ForwardDecay::g_sum_batch`]; decay
/// families call it with a closure already specialized on their runtime
/// parameters so the inner loop carries no invariant branches.
pub fn striped_sum(ts: &[Timestamp], f: impl Fn(Timestamp) -> f64) -> (f64, Timestamp) {
    let mut lanes = [0.0f64; LANES];
    let mut max_us = i64::MIN;
    let mut chunks = ts.chunks_exact(LANES);
    for c in &mut chunks {
        for j in 0..LANES {
            lanes[j] += f(c[j]);
            max_us = max_us.max(c[j].as_micros());
        }
    }
    for &t in chunks.remainder() {
        lanes[0] += f(t);
        max_us = max_us.max(t.as_micros());
    }
    (lanes.iter().sum(), Timestamp::from_micros(max_us))
}

/// `Σ f(ts[i]) · vals[i]`, striped like [`striped_sum`] and likewise
/// returning the batch maximum; `ts` must be non-empty and no longer than
/// `vals`.
pub fn striped_dot(
    ts: &[Timestamp],
    vals: &[f64],
    f: impl Fn(Timestamp) -> f64,
) -> (f64, Timestamp) {
    let mut lanes = [0.0f64; LANES];
    let mut max_us = i64::MIN;
    let mut tc = ts.chunks_exact(LANES);
    let mut vc = vals.chunks_exact(LANES);
    for (t4, v4) in (&mut tc).zip(&mut vc) {
        for j in 0..LANES {
            lanes[j] += f(t4[j]) * v4[j];
            max_us = max_us.max(t4[j].as_micros());
        }
    }
    for (&t, &v) in tc.remainder().iter().zip(vc.remainder()) {
        lanes[0] += f(t) * v;
        max_us = max_us.max(t.as_micros());
    }
    (lanes.iter().sum(), Timestamp::from_micros(max_us))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decay::{AnyDecay, Exponential, LandmarkWindow, Monomial, NoDecay};

    #[test]
    fn kernel_matches_scalar_exactly() {
        fn check<G: ForwardDecay>(g: G) {
            let mut k = WeightKernel::new(g.clone());
            let ages = [0.0, 0.5, 0.5, 3.0, 3.0, 3.0, 0.5, 1e6, -1.0];
            for &n in &ages {
                assert_eq!(k.g(n).to_bits(), g.g(n).to_bits(), "g({n})");
                assert_eq!(k.ln_g(n).to_bits(), g.ln_g(n).to_bits(), "ln_g({n})");
            }
        }
        check(NoDecay);
        check(Monomial::quadratic());
        check(Monomial::new(1.7));
        check(Exponential::new(0.3));
        check(LandmarkWindow);
        check("poly:1.5".parse::<AnyDecay>().unwrap());
    }

    #[test]
    fn duplicated_ticks_hit_the_cache() {
        let mut k = WeightKernel::new(Monomial::new(1.5)); // powf: memoized
        for _ in 0..10 {
            k.g(7.0);
        }
        assert_eq!(k.misses(), 1);
        assert_eq!(k.hits(), 9);
        assert!(k.hit_rate() > 0.89);
    }

    #[test]
    fn cheap_families_bypass_the_cache() {
        let mut k = WeightKernel::new(NoDecay);
        for _ in 0..10 {
            k.g(7.0);
        }
        assert_eq!(k.hits() + k.misses(), 0, "no cache traffic for NoDecay");
    }

    #[test]
    fn g_and_ln_g_keep_independent_entries() {
        let mut k = WeightKernel::new(Exponential::new(0.1));
        k.g(1.0);
        k.ln_g(1.0); // ln entry is its own miss…
        k.ln_g(1.0); // …then hits
        assert_eq!(k.misses(), 2);
        assert_eq!(k.hits(), 1);
    }

    #[test]
    fn nan_age_never_poisons_the_cache() {
        let mut k = WeightKernel::new(Monomial::new(1.5));
        let a = k.g(f64::NAN);
        let b = k.g(f64::NAN);
        assert!(a.is_nan() && b.is_nan());
        assert_eq!(k.hits(), 0, "NaN never compares equal to the memo key");
    }
}
