//! Decayed count-distinct under forward decay (Section IV-D, Theorem 4).
//!
//! Definition 9 generalizes COUNT DISTINCT to time-decayed data by summing,
//! per distinct value, the **maximum** current weight of its occurrences:
//!
//! ```text
//! D = Σ_v max_{v_i = v} g(t_i − L) / g(t − L)
//! ```
//!
//! Factoring out `g(t − L)` leaves the *dominance norm* `Σ_v max_i w_i` over
//! the static weights `w_i = g(t_i − L)` — estimable from combinations of
//! unweighted count-distinct summaries.
//!
//! Two implementations:
//!
//! - [`ExactDominance`] — a per-value max (O(distinct values) space), the
//!   ground truth for tests and small domains;
//! - [`DominanceSketch`] — the small-space estimator: geometric weight
//!   *levels* (base `1 + ε`), one KMV distinct sketch per level estimating
//!   `d_j = |{v : max weight of v ≥ (1+ε)^j}|`, combined as
//!   `D ≈ Σ_j ((1+ε)^j − (1+ε)^{j−1}) · d_j`. Only a logarithmic window of
//!   levels below the current maximum is retained — lower levels contribute
//!   at most an ε fraction — so space is `O(k · log_{1+ε}(n/ε))` for KMV
//!   size `k = O(1/ε²)`, and updates touch each active level with a single
//!   comparison (`Õ(1)` in the paper's notation). The paper points to the
//!   range-efficient distinct counter of Pavan–Tirthapura for the
//!   asymptotically tightest `Õ(1/ε²)` bound; this level-set construction is
//!   the same "careful combination of unweighted count distinct summaries"
//!   with an extra log factor, and identical streaming behaviour.
//!
//! All arithmetic runs in the log domain, so exponential decay needs no
//! renormalization.

use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};

use crate::checkpoint::{require, CodecError, Decode, Encode, Reader};
use crate::codec_struct;
use crate::decay::ForwardDecay;
use crate::hash::SeededHash;
use crate::merge::Mergeable;
use crate::numerics::LogSum;
use crate::Timestamp;

// ---------------------------------------------------------------------------
// Exact reference
// ---------------------------------------------------------------------------

/// Exact decayed count-distinct: tracks `max ln g(t_i − L)` per distinct
/// value. Linear space; the reference implementation.
#[derive(Debug, Clone)]
pub struct ExactDominance<G: ForwardDecay> {
    g: G,
    landmark: Timestamp,
    /// value → max ln-weight observed.
    max_ln_w: HashMap<u64, f64>,
}

codec_struct!(ExactDominance<G: ForwardDecay> {
    g: G,
    landmark: Timestamp,
    max_ln_w: HashMap<u64, f64>,
});

impl<G: ForwardDecay> ExactDominance<G> {
    /// Creates an empty summary.
    pub fn new(g: G, landmark: impl Into<Timestamp>) -> Self {
        let landmark = landmark.into();
        Self {
            g,
            landmark,
            max_ln_w: HashMap::new(),
        }
    }

    /// Ingests an occurrence of `value` at `t_i`. Pre-landmark timestamps
    /// are clamped to the landmark ([`crate::decay::clamp_to_landmark`]).
    #[inline]
    pub fn update(&mut self, t_i: impl Into<Timestamp>, value: u64) {
        let t_i = crate::decay::clamp_to_landmark(t_i.into(), self.landmark);
        let ln_w = self.g.ln_g(t_i - self.landmark);
        if ln_w == f64::NEG_INFINITY {
            return;
        }
        self.max_ln_w
            .entry(value)
            .and_modify(|m| *m = m.max(ln_w))
            .or_insert(ln_w);
    }

    /// The decayed distinct count `D` at query time `t` (Definition 9).
    pub fn query(&self, t: impl Into<Timestamp>) -> f64 {
        let t = t.into();
        let mut ls = LogSum::new();
        for &ln_w in self.max_ln_w.values() {
            ls.add_ln(ln_w);
        }
        (ls.ln() - self.g.ln_g(t - self.landmark)).exp()
    }
}

impl<G: ForwardDecay> Mergeable for ExactDominance<G> {
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(self.landmark, other.landmark, "landmarks must match");
        for (&v, &ln_w) in &other.max_ln_w {
            self.max_ln_w
                .entry(v)
                .and_modify(|m| *m = m.max(ln_w))
                .or_insert(ln_w);
        }
    }
}

// ---------------------------------------------------------------------------
// KMV distinct sketch
// ---------------------------------------------------------------------------

/// A K-Minimum-Values distinct counter over pre-hashed 64-bit keys: keeps
/// the `k` smallest distinct hash values; the distinct count is estimated
/// as `(k − 1) · 2⁶⁴ / τ` where `τ` is the k-th smallest hash.
#[derive(Debug, Clone)]
pub struct Kmv {
    k: usize,
    /// Max-heap of the k smallest hashes.
    heap: BinaryHeap<u64>,
    members: HashSet<u64>,
}

impl Kmv {
    /// Creates a sketch keeping `k` minimum values (standard error
    /// ≈ `1/√(k−2)`).
    ///
    /// # Panics
    /// Panics if `k < 2`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 2);
        Self {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
            members: HashSet::with_capacity(k * 2),
        }
    }

    /// The k-th smallest hash currently held, or `u64::MAX` while under-full
    /// (every hash is accepted until then).
    #[inline]
    pub fn threshold(&self) -> u64 {
        if self.heap.len() < self.k {
            u64::MAX
        } else {
            *self.heap.peek().expect("non-empty")
        }
    }

    /// Offers a hash value. Returns true if it entered the sketch. O(log k)
    /// when accepted, O(1) when rejected.
    pub fn offer(&mut self, h: u64) -> bool {
        if h >= self.threshold() || self.members.contains(&h) {
            return false;
        }
        self.heap.push(h);
        self.members.insert(h);
        if self.heap.len() > self.k {
            let evicted = self.heap.pop().expect("non-empty");
            self.members.remove(&evicted);
        }
        true
    }

    /// Estimated number of distinct keys offered.
    pub fn estimate(&self) -> f64 {
        if self.heap.len() < self.k {
            return self.heap.len() as f64; // exact while under-full
        }
        let tau = self.threshold() as f64;
        (self.k as f64 - 1.0) * (u64::MAX as f64) / tau
    }

    /// Approximate memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.heap.capacity() * 8 + self.members.capacity() * 16 + std::mem::size_of::<Self>()
    }
}

/// `k`, the heap's array, then the members — the same values, so written
/// in the same order: the bytes are canonical without a sort. Members in
/// any order read back; members that are not the heap's values do not.
impl Encode for Kmv {
    fn put(&self, out: &mut Vec<u8>) {
        self.k.put(out);
        for _heap_then_members in 0..2 {
            self.heap.len().put(out);
            self.heap.iter().for_each(|h| h.put(out));
        }
    }
}

impl Decode for Kmv {
    const MIN_BYTES: usize = 24;

    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let k = usize::take(r)?;
        let heap: Vec<u64> = Vec::take(r)?;
        let members: HashSet<u64> = Vec::<u64>::take(r)?.into_iter().collect();
        require(
            k >= 2 && members.len() == heap.len() && heap.iter().all(|h| members.contains(h)),
            "KMV members are not its heap",
        )?;
        Ok(Self {
            k,
            heap: BinaryHeap::from(heap),
            members,
        })
    }
}

impl Mergeable for Kmv {
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(self.k, other.k, "sketch sizes must match");
        for &h in &other.members {
            self.offer(h);
        }
    }
}

// ---------------------------------------------------------------------------
// Dominance-norm sketch
// ---------------------------------------------------------------------------

/// Small-space estimator of the decayed distinct count (Theorem 4).
///
/// See the module docs for the construction. Relative error is
/// `(1 ± O(ε))` with high probability; the `epsilon` parameter controls
/// both the geometric level base and the per-level KMV size.
///
/// ```
/// use fd_core::distinct::DominanceSketch;
/// use fd_core::decay::NoDecay;
///
/// // With no decay, D is simply the number of distinct values.
/// let mut d = DominanceSketch::new(NoDecay, 0.0, 0.1, 42);
/// for i in 0..10_000u64 {
///     d.update(i as f64 * 0.001, i % 1000);
/// }
/// let est = d.query(10.0);
/// assert!((est - 1000.0).abs() / 1000.0 < 0.15);
/// ```
#[derive(Debug, Clone)]
pub struct DominanceSketch<G: ForwardDecay> {
    g: G,
    landmark: Timestamp,
    /// ln of the geometric level base `b = 1 + ε`.
    ln_base: f64,
    /// Per-level KMV size.
    k: usize,
    /// Number of levels retained below the maximum.
    window: i64,
    hasher: SeededHash,
    /// level j → KMV of values whose max weight reaches `b^j`.
    levels: BTreeMap<i64, Kmv>,
    /// Items ingested (drives the level-window width).
    n: u64,
}

impl<G: ForwardDecay> DominanceSketch<G> {
    /// Creates a sketch with target relative error `ε` (each level's KMV
    /// gets `k = ⌈4/ε²⌉` slots; level base `1 + ε`).
    ///
    /// # Panics
    /// Panics unless `0 < ε ≤ 0.5`.
    pub fn new(g: G, landmark: impl Into<Timestamp>, epsilon: f64, seed: u64) -> Self {
        let landmark = landmark.into();
        assert!(epsilon > 0.0 && epsilon <= 0.5, "ε must be in (0, 0.5]");
        Self {
            g,
            landmark,
            ln_base: (1.0 + epsilon).ln(),
            k: (4.0 / (epsilon * epsilon)).ceil() as usize,
            window: 0,
            hasher: SeededHash::new(seed),
            levels: BTreeMap::new(),
            n: 0,
        }
    }

    /// The level index of a log-weight.
    #[inline]
    fn level_of(&self, ln_w: f64) -> i64 {
        (ln_w / self.ln_base).floor() as i64
    }

    /// Current retained-window width in levels: `log_b(n/ε_trunc)` with the
    /// truncation error budget fixed at the level base's ε.
    fn target_window(&self) -> i64 {
        let eps = (self.ln_base.exp() - 1.0).max(1e-6);
        let n = (self.n.max(16)) as f64;
        (((n / eps).ln() / self.ln_base).ceil() as i64).saturating_add(1)
    }

    /// Ingests an occurrence of `value` at `t_i` (pre-landmark timestamps
    /// clamp to the landmark). Touches at most `O(window)` levels, each
    /// with a single threshold comparison.
    pub fn update(&mut self, t_i: impl Into<Timestamp>, value: u64) {
        let t_i = crate::decay::clamp_to_landmark(t_i.into(), self.landmark);
        let ln_w = self.g.ln_g(t_i - self.landmark);
        if ln_w == f64::NEG_INFINITY {
            return;
        }
        self.n += 1;
        self.window = self.window.max(self.target_window());
        let level = self.level_of(ln_w);
        let max_level = self.levels.keys().next_back().copied().unwrap_or(level);
        let new_max = max_level.max(level);
        let floor_level = new_max - self.window + 1;
        // Drop levels that fell out of the window.
        while let Some((&lo, _)) = self.levels.iter().next() {
            if lo < floor_level {
                self.levels.remove(&lo);
            } else {
                break;
            }
        }
        if level < floor_level {
            return; // too light to matter
        }
        let h = self.hasher.hash(value);
        for j in floor_level..=level {
            self.levels
                .entry(j)
                .or_insert_with(|| Kmv::new(self.k))
                .offer(h);
        }
    }

    /// The estimated decayed distinct count `D` at query time `t`.
    pub fn query(&self, t: impl Into<Timestamp>) -> f64 {
        let t = t.into();
        if self.levels.is_empty() {
            return 0.0;
        }
        // D̂ = Σ_j (b^j − b^{j−1}) d̂_j  +  b^{j_min − 1} · d̂_{j_min},
        // accumulated in the log domain. The telescoped sum reconstructs
        // Σ_v b^{ℓ_v} ∈ [D/b, D]; multiply by √b to center the bias.
        let mut ls = LogSum::new();
        let ln_step = (1.0 - (-self.ln_base).exp()).ln(); // ln(1 − 1/b)
        let j_min = *self.levels.keys().next().expect("non-empty");
        for (&j, kmv) in &self.levels {
            let d = kmv.estimate();
            if d > 0.0 {
                ls.add_ln(j as f64 * self.ln_base + ln_step + d.ln());
            }
        }
        let d_min = self.levels[&j_min].estimate();
        if d_min > 0.0 {
            ls.add_ln((j_min - 1) as f64 * self.ln_base + d_min.ln());
        }
        (ls.ln() + 0.5 * self.ln_base - self.g.ln_g(t - self.landmark)).exp()
    }

    /// Approximate memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.levels.values().map(Kmv::size_bytes).sum::<usize>()
            + self.levels.len() * 16
            + std::mem::size_of::<Self>()
    }
}

/// The fields in declaration order, `levels` as a count and then
/// `(level, KMV)` pairs in ascending level order.
impl<G: ForwardDecay> Encode for DominanceSketch<G> {
    fn put(&self, out: &mut Vec<u8>) {
        self.g.put(out);
        self.landmark.put(out);
        self.ln_base.put(out);
        self.k.put(out);
        self.window.put(out);
        self.hasher.put(out);
        self.levels.len().put(out);
        self.levels.iter().for_each(|level| level.put(out));
        self.n.put(out);
    }
}

/// Refuses a sketch whose level window is not the one its item count and
/// level base imply, whose levels overrun that window, or whose KMVs are
/// not all of its size: each would have the next update walk, or merge, an
/// unbounded range of levels.
impl<G: ForwardDecay> Decode for DominanceSketch<G> {
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let mut s = Self {
            g: G::take(r)?,
            landmark: Timestamp::take(r)?,
            ln_base: f64::take(r)?,
            k: usize::take(r)?,
            window: i64::take(r)?,
            hasher: SeededHash::take(r)?,
            levels: BTreeMap::new(),
            n: 0,
        };
        for _ in 0..r.count(8 + Kmv::MIN_BYTES)? {
            if s.levels.insert(i64::take(r)?, Kmv::take(r)?).is_some() {
                return Err(CodecError::new("a dominance level repeats"));
            }
        }
        s.n = u64::take(r)?;
        let span = match (s.levels.keys().next(), s.levels.keys().next_back()) {
            (Some(&lo), Some(&hi)) => i128::from(hi) - i128::from(lo) + 1,
            _ => 0,
        };
        let fits = s.ln_base > 0.0
            && s.ln_base.is_finite()
            && s.k >= 2
            && (s.window == s.target_window() || (s.n, s.window) == (0, 0))
            && span <= i128::from(s.window)
            && s.levels.values().all(|kmv| kmv.k == s.k);
        require(fits, "dominance levels do not fit the sketch")?;
        Ok(s)
    }
}

impl<G: ForwardDecay> Mergeable for DominanceSketch<G> {
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(self.landmark, other.landmark, "landmarks must match");
        assert_eq!(self.k, other.k, "sketch sizes must match");
        assert!(
            (self.ln_base - other.ln_base).abs() < 1e-12,
            "level bases must match"
        );
        assert_eq!(
            self.hasher, other.hasher,
            "hash seeds must match for a mergeable pair"
        );
        self.n += other.n;
        self.window = self.window.max(other.window).max(self.target_window());
        for (&j, kmv) in &other.levels {
            match self.levels.get_mut(&j) {
                Some(mine) => mine.merge_from(kmv),
                None => {
                    self.levels.insert(j, kmv.clone());
                }
            }
        }
        // Re-trim to the merged window.
        if let Some(&max_level) = self.levels.keys().next_back() {
            let floor_level = max_level - self.window + 1;
            let drop: Vec<i64> = self
                .levels
                .keys()
                .copied()
                .filter(|&j| j < floor_level)
                .collect();
            for j in drop {
                self.levels.remove(&j);
            }
        }
    }
}

// ----- unified Summary API ------------------------------------------------

use crate::summary::Summary;

impl<G: ForwardDecay> ExactDominance<G> {
    /// The landmark `L` passed at construction.
    pub fn landmark(&self) -> Timestamp {
        self.landmark
    }
}

impl<G: ForwardDecay> Summary for ExactDominance<G> {
    type Update = u64;
    type Output = f64;

    fn landmark(&self) -> Timestamp {
        self.landmark
    }

    fn update_at(&mut self, t_i: Timestamp, value: u64) {
        self.update(t_i, value);
    }

    fn query_at(&self, t: Timestamp) -> f64 {
        self.query(t)
    }

    fn check_invariants(&self) -> Result<(), String> {
        // One max-weight entry per distinct value; every stored log-weight
        // is a real number (NEG_INFINITY is filtered at ingestion).
        for (&v, &ln_w) in &self.max_ln_w {
            if ln_w.is_nan() || ln_w == f64::NEG_INFINITY {
                return Err(format!(
                    "ExactDominance stored invalid ln-weight {ln_w} for {v}"
                ));
            }
        }
        Ok(())
    }
}

impl<G: ForwardDecay> DominanceSketch<G> {
    /// The landmark `L` passed at construction.
    pub fn landmark(&self) -> Timestamp {
        self.landmark
    }
}

impl<G: ForwardDecay> Summary for DominanceSketch<G> {
    type Update = u64;
    type Output = f64;

    fn landmark(&self) -> Timestamp {
        self.landmark
    }

    fn update_at(&mut self, t_i: Timestamp, value: u64) {
        self.update(t_i, value);
    }

    fn query_at(&self, t: Timestamp) -> f64 {
        self.query(t)
    }

    fn check_invariants(&self) -> Result<(), String> {
        // Live levels must fit inside the trimming window.
        if let (Some(&lo), Some(&hi)) = (self.levels.keys().next(), self.levels.keys().next_back())
        {
            if hi - lo + 1 > self.window {
                return Err(format!(
                    "DominanceSketch spans {} levels, window is {}",
                    hi - lo + 1,
                    self.window
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decay::{Exponential, Monomial, NoDecay};

    #[test]
    fn kmv_exact_when_underfull() {
        let mut kmv = Kmv::new(64);
        let h = SeededHash::new(1);
        for v in 0..40u64 {
            kmv.offer(h.hash(v));
            kmv.offer(h.hash(v)); // duplicates must not double count
        }
        assert_eq!(kmv.estimate(), 40.0);
    }

    #[test]
    fn kmv_estimate_within_error() {
        let k = 256;
        let mut kmv = Kmv::new(k);
        let h = SeededHash::new(7);
        let n = 100_000u64;
        for v in 0..n {
            kmv.offer(h.hash(v));
        }
        let est = kmv.estimate();
        let rel = (est - n as f64).abs() / n as f64;
        assert!(rel < 4.0 / (k as f64).sqrt(), "relative error {rel}");
    }

    #[test]
    fn kmv_merge_equals_union() {
        let mut a = Kmv::new(128);
        let mut b = Kmv::new(128);
        let h = SeededHash::new(3);
        for v in 0..30_000u64 {
            if v % 2 == 0 {
                a.offer(h.hash(v));
            } else {
                b.offer(h.hash(v));
            }
        }
        let mut whole = Kmv::new(128);
        for v in 0..30_000u64 {
            whole.offer(h.hash(v));
        }
        a.merge_from(&b);
        assert_eq!(a.threshold(), whole.threshold());
        assert_eq!(a.estimate(), whole.estimate());
    }

    #[test]
    fn exact_dominance_matches_brute_force() {
        let g = Monomial::quadratic();
        let landmark = 0.0;
        let mut d = ExactDominance::new(g, landmark);
        let items = [(1.0, 10u64), (2.0, 20), (3.0, 10), (4.0, 30), (2.5, 30)];
        for &(t, v) in &items {
            d.update(t, v);
        }
        let t_q = 5.0;
        // max weights: v=10 at t=3, v=20 at t=2, v=30 at t=4.
        let expected = (g.weight(landmark, 3.0, t_q))
            + (g.weight(landmark, 2.0, t_q))
            + (g.weight(landmark, 4.0, t_q));
        assert!((d.query(t_q) - expected).abs() < 1e-9);
    }

    #[test]
    fn exact_dominance_no_decay_counts_distinct() {
        let mut d = ExactDominance::new(NoDecay, 0.0);
        for i in 0..1000u64 {
            d.update(i as f64 * 0.01, i % 77);
        }
        assert!((d.query(100.0) - 77.0).abs() < 1e-9);
    }

    #[test]
    fn exact_dominance_merge() {
        let g = Monomial::quadratic();
        let mut a = ExactDominance::new(g, 0.0);
        let mut b = ExactDominance::new(g, 0.0);
        let mut whole = ExactDominance::new(g, 0.0);
        for i in 0..500u64 {
            let (t, v) = (1.0 + i as f64 * 0.01, i % 50);
            whole.update(t, v);
            if i % 2 == 0 {
                a.update(t, v)
            } else {
                b.update(t, v)
            }
        }
        a.merge_from(&b);
        assert!((a.query(10.0) - whole.query(10.0)).abs() < 1e-9);
    }

    #[test]
    fn sketch_tracks_exact_under_polynomial_decay() {
        let g = Monomial::quadratic();
        let landmark = 0.0;
        let eps = 0.15;
        let mut sketch = DominanceSketch::new(g, landmark, eps, 99);
        let mut exact = ExactDominance::new(g, landmark);
        // 2000 distinct values, each appearing several times at different
        // moments.
        for i in 0..30_000u64 {
            let t = 1.0 + (i as f64) * 0.001;
            let v = i % 2000;
            sketch.update(t, v);
            exact.update(t, v);
        }
        let t_q = 32.0;
        let (e, s) = (exact.query(t_q), sketch.query(t_q));
        let rel = (s - e).abs() / e;
        assert!(
            rel < 3.0 * eps,
            "relative error {rel}: exact {e}, sketch {s}"
        );
    }

    #[test]
    fn sketch_tracks_exact_under_exponential_decay() {
        let g = Exponential::new(0.05);
        let landmark = 0.0;
        let eps = 0.15;
        let mut sketch = DominanceSketch::new(g, landmark, eps, 5);
        let mut exact = ExactDominance::new(g, landmark);
        for i in 0..20_000u64 {
            let t = (i as f64) * 0.01; // through t = 200: weights span e^10
            let v = (i * 13) % 997;
            sketch.update(t, v);
            exact.update(t, v);
        }
        let t_q = 200.0;
        let (e, s) = (exact.query(t_q), sketch.query(t_q));
        let rel = (s - e).abs() / e;
        assert!(
            rel < 3.0 * eps,
            "relative error {rel}: exact {e}, sketch {s}"
        );
    }

    #[test]
    fn sketch_survives_weights_beyond_f64_range() {
        // α·t reaches 5000 ≫ ln(f64::MAX) ≈ 709: only the log domain works.
        let g = Exponential::new(1.0);
        let mut sketch = DominanceSketch::new(g, 0.0, 0.2, 1);
        let mut exact = ExactDominance::new(g, 0.0);
        for i in 0..5_000u64 {
            let t = i as f64;
            sketch.update(t, i % 100);
            exact.update(t, i % 100);
        }
        let (e, s) = (exact.query(5_000.0), sketch.query(5_000.0));
        assert!(e.is_finite() && s.is_finite());
        let rel = (s - e).abs() / e;
        assert!(rel < 0.6, "relative error {rel}");
    }

    #[test]
    fn sketch_space_is_sublinear() {
        let g = NoDecay;
        let mut sketch = DominanceSketch::new(g, 0.0, 0.2, 4);
        for i in 0..200_000u64 {
            sketch.update(i as f64 * 1e-4, i); // all values distinct
        }
        // An exact structure would hold 200k entries ≈ 3 MB; the sketch must
        // stay far below that.
        assert!(
            sketch.size_bytes() < 400_000,
            "sketch uses {} bytes",
            sketch.size_bytes()
        );
        let est = sketch.query(20.0);
        let rel = (est - 200_000.0).abs() / 200_000.0;
        assert!(rel < 0.3, "relative error {rel}");
    }

    #[test]
    fn sketch_merge_tracks_exact() {
        let g = Monomial::quadratic();
        let eps = 0.15;
        let mut a = DominanceSketch::new(g, 0.0, eps, 21);
        let mut b = DominanceSketch::new(g, 0.0, eps, 21);
        let mut exact = ExactDominance::new(g, 0.0);
        for i in 0..20_000u64 {
            let t = 1.0 + i as f64 * 0.001;
            let v = (i * 31) % 1500;
            exact.update(t, v);
            if i % 2 == 0 {
                a.update(t, v)
            } else {
                b.update(t, v)
            }
        }
        a.merge_from(&b);
        let t_q = 25.0;
        let (e, s) = (exact.query(t_q), a.query(t_q));
        let rel = (s - e).abs() / e;
        assert!(
            rel < 3.0 * eps,
            "relative error {rel}: exact {e}, merged {s}"
        );
    }

    #[test]
    fn empty_sketches_answer_zero() {
        let g = Monomial::quadratic();
        assert_eq!(ExactDominance::new(g, 0.0).query(1.0), 0.0);
        assert_eq!(DominanceSketch::new(g, 0.0, 0.2, 0).query(1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "hash seeds must match")]
    fn sketch_merge_rejects_different_seeds() {
        let g = NoDecay;
        let mut a = DominanceSketch::new(g, 0.0, 0.2, 1);
        let b = DominanceSketch::new(g, 0.0, 0.2, 2);
        a.merge_from(&b);
    }
}
