//! A weighted Count-Min sketch and a CM-based decayed heavy-hitter tracker.
//!
//! The paper's Theorem 2 uses SpaceSaving, but any weighted frequency
//! sketch slots into the same forward-decay reduction: feed it the static
//! weights `g(tᵢ − L)`, scale by `g(t − L)` at query time, rescale the
//! whole (linear) structure when exponential weights grow large. This
//! module provides the Count-Min alternative (Cormode & Muthukrishnan),
//! used by the ablation benchmarks to compare the two backends.

use std::collections::HashMap;

use crate::checkpoint::require;
use crate::codec_struct;
use crate::decay::ForwardDecay;
use crate::decayed::{Decayed, Weighted};
use crate::hash::SeededHash;
use crate::heavy_hitters::HeavyHitter;
use crate::merge::Mergeable;
use crate::Timestamp;

/// A Count-Min sketch over weighted updates: `depth` rows of `width`
/// counters; a point query returns the minimum of the item's `depth`
/// counters, overestimating the true weight by at most `ε·W` with
/// probability `1 − δ` (for `width = ⌈e/ε⌉`, `depth = ⌈ln(1/δ)⌉`).
#[derive(Debug, Clone)]
pub struct CmSketch {
    width: usize,
    depth: usize,
    /// Row-major `depth × width` counters.
    counters: Vec<f64>,
    hashers: Vec<SeededHash>,
    total: f64,
}

// An update indexes `depth` rows of `width` counters with one hasher per
// row: dimensions that do not match the arrays are refused.
codec_struct!(CmSketch {
    width: usize,
    depth: usize,
    counters: Vec<f64>,
    hashers: Vec<SeededHash>,
    total: f64,
} check |s| {
    let cells = s.width.checked_mul(s.depth);
    require(
        s.width > 0 && cells == Some(s.counters.len()) && s.hashers.len() == s.depth,
        "Count-Min dimensions do not fit its arrays",
    )
});

impl CmSketch {
    /// Creates a sketch with explicit dimensions.
    ///
    /// # Panics
    /// Panics if `width` or `depth` is zero.
    pub fn new(width: usize, depth: usize, seed: u64) -> Self {
        assert!(width > 0 && depth > 0);
        Self {
            width,
            depth,
            counters: vec![0.0; width * depth],
            hashers: (0..depth as u64)
                .map(|d| SeededHash::new(seed ^ d.wrapping_mul(0xD6E8_FEB8_6659_FD93)))
                .collect(),
            total: 0.0,
        }
    }

    /// Creates a sketch with additive error `ε·W` at failure probability
    /// `δ` per query.
    ///
    /// # Panics
    /// Panics unless `0 < ε ≤ 1` and `0 < δ < 1`.
    pub fn with_epsilon_delta(epsilon: f64, delta: f64, seed: u64) -> Self {
        assert!(epsilon > 0.0 && epsilon <= 1.0);
        assert!(delta > 0.0 && delta < 1.0);
        let width = (std::f64::consts::E / epsilon).ceil() as usize;
        let depth = (1.0 / delta).ln().ceil().max(1.0) as usize;
        Self::new(width, depth, seed)
    }

    /// Sketch depth (number of rows).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Total ingested weight.
    pub fn total_weight(&self) -> f64 {
        self.total
    }

    /// Approximate memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.counters.capacity() * 8 + std::mem::size_of::<Self>()
    }

    /// Adds weight `w ≥ 0` to `item`.
    #[inline]
    pub fn update(&mut self, item: u64, w: f64) {
        debug_assert!(w >= 0.0 && w.is_finite());
        self.total += w;
        for (d, h) in self.hashers.iter().enumerate() {
            let col = (h.hash(item) % self.width as u64) as usize;
            self.counters[d * self.width + col] += w;
        }
    }

    /// Estimated weight of `item`: never an underestimate; overestimates by
    /// at most `ε·W` with probability `1 − δ`.
    #[inline]
    pub fn query(&self, item: u64) -> f64 {
        let mut est = f64::INFINITY;
        for (d, h) in self.hashers.iter().enumerate() {
            let col = (h.hash(item) % self.width as u64) as usize;
            est = est.min(self.counters[d * self.width + col]);
        }
        if est.is_finite() {
            est
        } else {
            0.0
        }
    }

    /// Multiplies every counter and the total by `factor` (zero is legal, as
    /// for [`Weighted::scale`]).
    pub fn scale_all(&mut self, factor: f64) {
        debug_assert!(factor >= 0.0 && !factor.is_nan());
        for c in &mut self.counters {
            *c *= factor;
        }
        self.total *= factor;
    }
}

impl Mergeable for CmSketch {
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(
            (self.width, self.depth),
            (other.width, other.depth),
            "dimensions must match"
        );
        assert_eq!(self.hashers, other.hashers, "hash seeds must match");
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        self.total += other.total;
    }
}

/// A [`CmSketch`] plus a bounded candidate set: weighted φ-heavy-hitters
/// without a clock — the summary [`DecayedCmHeavyHitters`] puts under one.
///
/// Candidates are the items whose sketched weight reached the
/// `φ/2`-fraction watermark when last seen; the set is pruned against the
/// sketch whenever it outgrows `capacity`.
#[derive(Debug, Clone)]
pub struct CmCandidates {
    sketch: CmSketch,
    phi: f64,
    capacity: usize,
    /// candidate item → sketched estimate when last touched.
    candidates: HashMap<u64, f64>,
}

codec_struct!(CmCandidates {
    sketch: CmSketch,
    phi: f64,
    capacity: usize,
    candidates: HashMap<u64, f64>,
});

impl CmCandidates {
    /// Candidates for φ-heavy-hitters over a sketch of error `ε` (choose
    /// `ε ≤ φ/2` for useful answers) and failure probability `δ`.
    pub fn new(phi: f64, epsilon: f64, delta: f64, seed: u64) -> Self {
        assert!(phi > 0.0 && phi < 1.0);
        let capacity = (8.0 / phi).ceil() as usize;
        CmCandidates {
            sketch: CmSketch::with_epsilon_delta(epsilon, delta, seed),
            phi,
            capacity,
            candidates: HashMap::with_capacity(capacity * 2),
        }
    }

    /// The candidates whose sketched weight reaches `φ·W`, heaviest first,
    /// each divided by a clock's denominator `g(t − L)`: none where it is
    /// undefined.
    pub fn heavy_hitters_over(&self, denom: Option<f64>) -> Vec<HeavyHitter> {
        let Some(denom) = denom else {
            return Vec::new();
        };
        let threshold = self.phi * self.sketch.total_weight();
        let mut out: Vec<HeavyHitter> = (self.candidates.keys())
            .map(|&item| (item, self.sketch.query(item)))
            .filter(|&(_, est)| est >= threshold)
            .map(|(item, est)| HeavyHitter {
                item,
                count: est / denom,
                guaranteed: false,
            })
            .collect();
        out.sort_by(|a, b| b.count.total_cmp(&a.count));
        out
    }

    /// Approximate memory footprint in bytes, without a clock.
    pub fn size_bytes(&self) -> usize {
        self.sketch.size_bytes() + self.candidates.capacity() * 24
    }

    /// Drops candidates that have fallen below the watermark; if that is
    /// not enough, keeps only the heaviest `capacity`.
    fn prune(&mut self) {
        let threshold = self.phi / 2.0 * self.sketch.total_weight();
        let sketch = &self.sketch;
        for (item, est) in self.candidates.iter_mut() {
            *est = sketch.query(*item);
        }
        self.candidates.retain(|_, est| *est >= threshold);
        if self.candidates.len() > self.capacity {
            let mut by_weight: Vec<(u64, f64)> =
                self.candidates.iter().map(|(&i, &e)| (i, e)).collect();
            by_weight.sort_by(|a, b| b.1.total_cmp(&a.1));
            by_weight.truncate(self.capacity);
            self.candidates = by_weight.into_iter().collect();
        }
    }
}

/// The whole of what a decayed sketch has to say for itself: how a
/// weighted arrival goes in, how the (linear) state rescales, and what it
/// answers over `g(t − L)`. The clock, the merge-time
/// landmark alignment, checkpointing and the `Summary` view are
/// [`Decayed`]'s.
impl Weighted for CmCandidates {
    type Item = u64;
    type Output = f64;

    fn add(&mut self, _t_i: Timestamp, item: u64, w: f64) {
        self.sketch.update(item, w);
        let est = self.sketch.query(item);
        if est >= self.phi / 2.0 * self.sketch.total_weight() {
            self.candidates.insert(item, est);
            if self.candidates.len() > self.capacity {
                self.prune();
            }
        }
    }

    fn scale(&mut self, factor: f64) {
        self.sketch.scale_all(factor);
        for est in self.candidates.values_mut() {
            *est *= factor;
        }
    }

    fn over(&self, denom: f64) -> f64 {
        self.sketch.total_weight() / denom
    }
}

impl Mergeable for CmCandidates {
    /// Sketches are added; candidate sets are unioned, re-estimated against
    /// the merged sketch and pruned back to capacity.
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(self.phi, other.phi, "phi must match");
        self.sketch.merge_from(&other.sketch);
        let sketch = &self.sketch;
        for &item in other.candidates.keys() {
            let est = sketch.query(item);
            self.candidates.insert(item, est);
        }
        // prune() re-estimates every candidate against the merged sketch
        // and enforces the capacity bound.
        self.prune();
    }
}

/// Decayed φ-heavy-hitters backed by a [`CmSketch`] plus a bounded candidate
/// set ([`CmCandidates`]) — the Count-Min counterpart of
/// [`crate::heavy_hitters::DecayedHeavyHitters`]. `update`, `update_batch`
/// and `decayed_count` are the clock's.
pub type DecayedCmHeavyHitters<G> = Decayed<G, CmCandidates>;

impl<G: ForwardDecay> DecayedCmHeavyHitters<G> {
    /// Creates a tracker for φ-heavy-hitters with sketch error `ε` (choose
    /// `ε ≤ φ/2` for useful answers) and failure probability `δ`.
    pub fn new(
        g: G,
        landmark: impl Into<Timestamp>,
        phi: f64,
        epsilon: f64,
        delta: f64,
        seed: u64,
    ) -> Self {
        Self::wrap(g, landmark, CmCandidates::new(phi, epsilon, delta, seed))
    }

    /// The φ-heavy-hitters at query time `t` (the φ fixed at construction),
    /// heaviest first.
    pub fn heavy_hitters(&self, t: impl Into<Timestamp>) -> Vec<HeavyHitter> {
        self.inner().heavy_hitters_over(self.denominator(t))
    }

    /// Estimated decayed count of `item` at time `t` (sketch upper bound).
    pub fn estimate(&self, item: u64, t: impl Into<Timestamp>) -> f64 {
        self.denominator(t)
            .map_or(0.0, |denom| self.inner().sketch.query(item) / denom)
    }

    /// Approximate memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.inner().size_bytes() + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decay::{Exponential, Monomial, NoDecay};

    #[test]
    fn cm_never_underestimates_and_bounds_overestimate() {
        let eps = 0.005;
        let mut cm = CmSketch::with_epsilon_delta(eps, 0.01, 42);
        let mut exact: HashMap<u64, f64> = HashMap::new();
        for i in 0..50_000u64 {
            let item = i % 1000;
            let w = 1.0 + (i % 5) as f64;
            cm.update(item, w);
            *exact.entry(item).or_default() += w;
        }
        let w_total = cm.total_weight();
        let mut violations = 0;
        for (&item, &true_w) in &exact {
            let est = cm.query(item);
            assert!(est + 1e-9 >= true_w, "underestimate for {item}");
            if est - true_w > eps * w_total {
                violations += 1;
            }
        }
        // δ = 0.01 per query: allow a handful of the 1000 to exceed.
        assert!(
            violations <= 20,
            "{violations} queries exceeded the ε bound"
        );
    }

    #[test]
    fn cm_absent_items_estimate_small() {
        let mut cm = CmSketch::with_epsilon_delta(0.01, 0.01, 7);
        for i in 0..10_000u64 {
            cm.update(i % 100, 1.0);
        }
        let mut max_ghost = 0.0f64;
        for ghost in 1_000_000..1_000_100u64 {
            max_ghost = max_ghost.max(cm.query(ghost));
        }
        assert!(
            max_ghost <= 0.02 * cm.total_weight(),
            "ghost estimate {max_ghost}"
        );
    }

    #[test]
    fn cm_merge_equals_concat() {
        let mut a = CmSketch::new(256, 4, 1);
        let mut b = CmSketch::new(256, 4, 1);
        let mut whole = CmSketch::new(256, 4, 1);
        for i in 0..20_000u64 {
            let (item, w) = (i % 300, 1.0);
            whole.update(item, w);
            if i % 2 == 0 {
                a.update(item, w)
            } else {
                b.update(item, w)
            }
        }
        a.merge_from(&b);
        for item in 0..300u64 {
            assert!((a.query(item) - whole.query(item)).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "hash seeds must match")]
    fn cm_merge_rejects_seed_mismatch() {
        let mut a = CmSketch::new(64, 2, 1);
        let b = CmSketch::new(64, 2, 2);
        a.merge_from(&b);
    }

    #[test]
    fn cm_scale_all_preserves_ratios() {
        let mut cm = CmSketch::new(128, 3, 9);
        cm.update(1, 10.0);
        cm.update(2, 30.0);
        cm.scale_all(0.5);
        assert!((cm.query(1) - 5.0).abs() < 1e-9);
        assert!((cm.query(2) - 15.0).abs() < 1e-9);
        assert!((cm.total_weight() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn cm_hh_finds_heavy_items_under_decay() {
        let g = Monomial::quadratic();
        let mut hh = DecayedCmHeavyHitters::new(g, 0.0, 0.1, 0.01, 0.01, 3);
        for i in 0..30_000u64 {
            let t = 1.0 + i as f64 * 0.001;
            let item = if i % 4 == 0 { 999 } else { i % 2000 };
            hh.update(t, item);
        }
        let hits = hh.heavy_hitters(32.0);
        assert!(!hits.is_empty());
        assert_eq!(hits[0].item, 999);
        let c = hh.decayed_count(32.0);
        assert!(
            (hits[0].count / c - 0.25).abs() < 0.05,
            "share {}",
            hits[0].count / c
        );
    }

    #[test]
    fn cm_hh_agrees_with_space_saving_backend() {
        use crate::heavy_hitters::DecayedHeavyHitters;
        let g = Exponential::new(0.05);
        let mut cm = DecayedCmHeavyHitters::new(g, 0.0, 0.05, 0.005, 0.01, 5);
        let mut ss = DecayedHeavyHitters::with_epsilon(g, 0.0, 0.005);
        for i in 0..40_000u64 {
            let t = i as f64 * 0.002;
            // Zipf-ish: item k with frequency ∝ 1/(k+1).
            let item = (i % 97).min(i % 13).min(i % 7);
            cm.update(t, item);
            ss.update(t, item);
        }
        let t_q = 80.0;
        let cm_hits: Vec<u64> = cm.heavy_hitters(t_q).iter().map(|h| h.item).collect();
        let ss_hits: Vec<u64> = ss.heavy_hitters(0.05, t_q).iter().map(|h| h.item).collect();
        assert_eq!(
            cm_hits.first(),
            ss_hits.first(),
            "{cm_hits:?} vs {ss_hits:?}"
        );
        for item in &ss_hits {
            assert!(cm_hits.contains(item), "CM missed {item}");
        }
    }

    #[test]
    fn cm_hh_survives_exponential_overflow() {
        // Round-robin over 3 items with α = 1 at 1 s spacing: the decayed
        // shares are ≈ 0.665 / 0.245 / 0.090 (recency dominates), so
        // φ = 0.05 must report all three.
        let g = Exponential::new(1.0);
        let mut hh = DecayedCmHeavyHitters::new(g, 0.0, 0.05, 0.02, 0.05, 11);
        for i in 0..10_000u64 {
            hh.update(i as f64, i % 3);
        }
        let c = hh.decayed_count(10_000.0);
        assert!(c.is_finite() && c > 0.0);
        let hits = hh.heavy_hitters(10_000.0);
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].item, 0, "the most recent item must lead");
    }

    #[test]
    fn cm_hh_candidate_set_stays_bounded() {
        let g = NoDecay;
        let mut hh = DecayedCmHeavyHitters::new(g, 0.0, 0.01, 0.001, 0.01, 13);
        for i in 0..100_000u64 {
            hh.update(i as f64 * 1e-4, i % 50_000);
        }
        let CmCandidates {
            candidates,
            capacity,
            ..
        } = hh.inner();
        assert!(
            candidates.len() <= *capacity,
            "{} candidates",
            candidates.len()
        );
    }
}
