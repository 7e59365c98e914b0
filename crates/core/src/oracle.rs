//! Brute-force differential oracle: the reference side of the metamorphic
//! harness in `tests/differential.rs`.
//!
//! The paper's central claim (Section III) is that forward decay with frozen
//! numerators `g(t_i − L)` computes *exactly* the decayed answer an offline
//! evaluator would, for any arrival order. That makes every summary in this
//! crate oracle-testable: keep the whole stream, recompute each decayed
//! aggregate from scratch at query time, and the streaming answer must agree
//! — exactly for the O(1) aggregates, within the sketch's error bound for
//! SpaceSaving / q-digest / Count-Min / KMV.
//!
//! Three tools live here:
//!
//! - [`Oracle`], the brute-force evaluator: O(n) space and O(n) per query,
//!   numerically careful (per-item weights via [`ForwardDecay::weight`]'s
//!   log-domain path) but otherwise the most naive possible implementation —
//!   naive enough to be obviously correct;
//! - [`adversarial_stream`], a seeded generator of hostile inputs:
//!   out-of-order arrivals, timestamps at and below the landmark, duplicate
//!   timestamps, zero/negative/huge/NaN values, skewed keys — combined with
//!   extreme decay rates by the harness to force mid-stream renormalization;
//! - [`shrink`], a delta-debugging minimizer that cuts a failing stream down
//!   to a (locally) minimal reproduction, which the harness prints as a
//!   ready-to-commit regression case ([`format_events`]).
//!
//! Seeds come from [`harness_seeds`]: a committed matrix by default, or the
//! `FD_ORACLE_SEED` environment variable for randomized CI smoke runs.

use crate::decay::ForwardDecay;
use crate::Timestamp;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One stream item as the oracle sees it: a timestamp, a value (used by the
/// scalar aggregates and samplers), and a key (used by the heavy-hitter,
/// quantile and distinct summaries). Harness streams carry both so one
/// generated stream can drive every summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleEvent {
    /// Arrival timestamp (may precede the landmark, duplicate a neighbor,
    /// or arrive out of order — that is the point).
    pub t: Timestamp,
    /// Scalar payload; may be zero, negative, huge, or NaN.
    pub v: f64,
    /// Item identifier for keyed summaries.
    pub key: u64,
}

impl OracleEvent {
    /// Convenience constructor from seconds / value / key.
    pub fn new(t_secs: f64, v: f64, key: u64) -> Self {
        Self {
            t: Timestamp::from_secs_f64(t_secs),
            v,
            key,
        }
    }
}

/// The brute-force reference evaluator: holds every `(t_i, v_i, key_i)` and
/// recomputes each decayed answer from scratch at query time.
#[derive(Debug, Clone)]
pub struct Oracle<G: ForwardDecay> {
    g: G,
    landmark: Timestamp,
    events: Vec<OracleEvent>,
}

impl<G: ForwardDecay> Oracle<G> {
    /// An empty oracle for decay `g` against `landmark`.
    pub fn new(g: G, landmark: impl Into<Timestamp>) -> Self {
        Self {
            g,
            landmark: landmark.into(),
            events: Vec::new(),
        }
    }

    /// Records one event.
    pub fn push(&mut self, e: OracleEvent) {
        self.events.push(e);
    }

    /// Records a slice of events.
    pub fn push_all(&mut self, events: &[OracleEvent]) {
        self.events.extend_from_slice(events);
    }

    /// The recorded events, in arrival order.
    pub fn events(&self) -> &[OracleEvent] {
        &self.events
    }

    /// The decayed weight of a single arrival at query time `t` —
    /// [`ForwardDecay::weight`], which clamps pre-landmark timestamps and
    /// runs multiplicative decay through the log domain.
    #[inline]
    pub fn weight(&self, t_i: Timestamp, t: Timestamp) -> f64 {
        self.g.weight(self.landmark, t_i, t)
    }

    /// Decayed count `C(t) = Σᵢ w(i, t)`.
    pub fn count(&self, t: impl Into<Timestamp>) -> f64 {
        let t = t.into();
        self.events.iter().map(|e| self.weight(e.t, t)).sum()
    }

    /// Decayed sum `S(t) = Σᵢ w(i, t) · vᵢ`.
    pub fn sum(&self, t: impl Into<Timestamp>) -> f64 {
        let t = t.into();
        self.events.iter().map(|e| self.weight(e.t, t) * e.v).sum()
    }

    /// Decayed average `S/C`, or `None` when the decayed count is zero.
    pub fn average(&self, t: impl Into<Timestamp>) -> Option<f64> {
        let t = t.into();
        let c = self.count(t);
        (c != 0.0).then(|| self.sum(t) / c)
    }

    /// Decayed variance `Σ w v²/C − (S/C)²`, clamped at zero; `None` when
    /// the decayed count is zero — the same formula as `DecayedVariance`.
    pub fn variance(&self, t: impl Into<Timestamp>) -> Option<f64> {
        let t = t.into();
        let c = self.count(t);
        if c == 0.0 {
            return None;
        }
        let sum_sq: f64 = self
            .events
            .iter()
            .map(|e| self.weight(e.t, t) * e.v * e.v)
            .sum();
        let a = self.sum(t) / c;
        Some((sum_sq / c - a * a).max(0.0))
    }

    /// Decayed minimum (`min = true`) or maximum over `w(i, t) · vᵢ`, with
    /// the witness `(t_i, v_i)` — NaN values skipped, ties broken toward the
    /// lexicographically smallest `(t_i, v_i)`, mirroring `DecayedExtremum`.
    pub fn extremum(&self, min: bool, t: impl Into<Timestamp>) -> Option<(f64, Timestamp, f64)> {
        use std::cmp::Ordering;
        let t = t.into();
        let mut best: Option<(f64, Timestamp, f64)> = None;
        for e in &self.events {
            let d = self.weight(e.t, t) * e.v;
            if d.is_nan() {
                continue;
            }
            let t_i = crate::decay::clamp_to_landmark(e.t, self.landmark);
            let wins = match &best {
                None => true,
                Some((b, bt, bv)) => {
                    let ord = if min { d.total_cmp(b) } else { b.total_cmp(&d) };
                    match ord {
                        Ordering::Less => true,
                        Ordering::Greater => false,
                        Ordering::Equal => {
                            t_i < *bt || (t_i == *bt && e.v.total_cmp(bv) == Ordering::Less)
                        }
                    }
                }
            };
            if wins {
                best = Some((d, t_i, e.v));
            }
        }
        best
    }

    /// For a min/max near-tie check: the gap between the best and
    /// second-best *distinct* decayed value, or `None` with fewer than two
    /// distinct values. The harness only asserts on the witness when this
    /// gap is comfortably above rounding noise.
    pub fn extremum_margin(&self, min: bool, t: impl Into<Timestamp>) -> Option<f64> {
        let t = t.into();
        let mut ds: Vec<f64> = self
            .events
            .iter()
            .map(|e| self.weight(e.t, t) * e.v)
            .filter(|d| !d.is_nan())
            .collect();
        ds.sort_by(|a, b| a.total_cmp(b));
        if !min {
            ds.reverse();
        }
        let first = *ds.first()?;
        ds.iter().find(|&&d| d != first).map(|d| (d - first).abs())
    }

    /// Decayed count of one item: `Σ_{keyᵢ = key} w(i, t)`.
    pub fn item_count(&self, key: u64, t: impl Into<Timestamp>) -> f64 {
        let t = t.into();
        self.events
            .iter()
            .filter(|e| e.key == key)
            .map(|e| self.weight(e.t, t))
            .sum()
    }

    /// The *true* φ-heavy-hitters at `t`: every key whose decayed count is
    /// at least `φ · C(t)`, heaviest first.
    pub fn heavy_hitters(&self, phi: f64, t: impl Into<Timestamp>) -> Vec<(u64, f64)> {
        let t = t.into();
        let threshold = phi * self.count(t);
        let mut per_key: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
        for e in &self.events {
            *per_key.entry(e.key).or_insert(0.0) += self.weight(e.t, t);
        }
        let mut out: Vec<(u64, f64)> = per_key
            .into_iter()
            .filter(|&(_, c)| c >= threshold)
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Decayed rank of `value` at `t` (Definition 8): the decayed count of
    /// events whose key is `≤ value`.
    pub fn rank(&self, value: u64, t: impl Into<Timestamp>) -> f64 {
        let t = t.into();
        self.events
            .iter()
            .filter(|e| e.key <= value)
            .map(|e| self.weight(e.t, t))
            .sum()
    }

    /// The exact decayed φ-quantile at `t`: the smallest observed key whose
    /// decayed rank reaches `φ · C(t)`.
    pub fn quantile(&self, phi: f64, t: impl Into<Timestamp>) -> Option<u64> {
        let t = t.into();
        let target = phi * self.count(t);
        let mut keys: Vec<u64> = self.events.iter().map(|e| e.key).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.into_iter().find(|&k| self.rank(k, t) >= target)
    }

    /// The decayed dominance norm at `t` (Definition 9): per distinct key,
    /// the *maximum* weight any of its occurrences carries, summed.
    pub fn dominance(&self, t: impl Into<Timestamp>) -> f64 {
        let t = t.into();
        let mut per_key: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
        for e in &self.events {
            let w = self.weight(e.t, t);
            per_key
                .entry(e.key)
                .and_modify(|m| *m = m.max(w))
                .or_insert(w);
        }
        per_key.values().sum()
    }
}

/// Shape parameters for [`adversarial_stream`].
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Number of events.
    pub n: usize,
    /// Landmark, in seconds.
    pub landmark: f64,
    /// Rough length of the stream after the landmark, in seconds.
    pub span: f64,
    /// Keys are drawn from `[0, key_domain)`, skewed so a few are heavy.
    pub key_domain: u64,
    /// Typical magnitude of values.
    pub value_scale: f64,
    /// Include NaN values (≈ 2% of events). Leave off for summaries whose
    /// oracle comparison cannot absorb NaN (e.g. witness checks).
    pub allow_nan: bool,
    /// Include pre-landmark stragglers (≈ 10% of events).
    pub pre_landmark: bool,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            n: 400,
            landmark: 100.0,
            span: 60.0,
            key_domain: 64,
            value_scale: 10.0,
            allow_nan: false,
            pre_landmark: true,
        }
    }
}

/// Generates a seeded adversarial stream: mostly-increasing timestamps with
/// out-of-order arrivals, duplicates, items exactly at and before the
/// landmark, and hostile values. Deterministic in `(seed, cfg)`.
pub fn adversarial_stream(seed: u64, cfg: &StreamConfig) -> Vec<OracleEvent> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut events = Vec::with_capacity(cfg.n);
    let step = cfg.span / cfg.n.max(1) as f64;
    let mut now = cfg.landmark;
    let mut prev_t = Timestamp::from_secs_f64(cfg.landmark);
    for _ in 0..cfg.n {
        now += rng.gen_range(0.0..step * 2.0);
        let roll: f64 = rng.gen_range(0.0..1.0);
        let t = if cfg.pre_landmark && roll < 0.10 {
            // Straggler stamped before the landmark.
            Timestamp::from_secs_f64(cfg.landmark - rng.gen_range(0.0..cfg.span / 4.0))
        } else if roll < 0.20 {
            // Exact duplicate of the previous timestamp.
            prev_t
        } else if roll < 0.35 {
            // Out-of-order arrival from the recent past.
            Timestamp::from_secs_f64((now - rng.gen_range(0.0..cfg.span / 4.0)).max(cfg.landmark))
        } else if roll < 0.40 {
            // Exactly at the landmark.
            Timestamp::from_secs_f64(cfg.landmark)
        } else {
            Timestamp::from_secs_f64(now)
        };
        let vroll: f64 = rng.gen_range(0.0..1.0);
        let v = if cfg.allow_nan && vroll < 0.02 {
            f64::NAN
        } else if vroll < 0.07 {
            0.0
        } else if vroll < 0.12 {
            // Huge magnitude, either sign.
            if rng.gen_bool(0.5) {
                1e6
            } else {
                -1e6
            }
        } else {
            rng.gen_range(-cfg.value_scale..cfg.value_scale)
        };
        // Skew keys so a handful are genuinely heavy.
        let key = if rng.gen_bool(0.5) {
            rng.gen_range(0..cfg.key_domain.clamp(1, 4))
        } else {
            rng.gen_range(0..cfg.key_domain.max(1))
        };
        events.push(OracleEvent { t, v, key });
        prev_t = t;
    }
    events
}

/// Delta-debugging (ddmin) shrinker: repeatedly removes chunks of events,
/// keeping each removal that still makes `fails` return `true`, until the
/// stream is locally minimal (no single remaining event can be dropped).
///
/// `fails` must be deterministic. The result still fails.
pub fn shrink<F: FnMut(&[OracleEvent]) -> bool>(
    events: &[OracleEvent],
    mut fails: F,
) -> Vec<OracleEvent> {
    debug_assert!(fails(events), "shrink() needs a failing input to start");
    let mut cur = events.to_vec();
    let mut chunk = (cur.len() / 2).max(1);
    loop {
        let mut removed_any = false;
        let mut i = 0;
        while i < cur.len() {
            let end = (i + chunk).min(cur.len());
            let mut cand = Vec::with_capacity(cur.len() - (end - i));
            cand.extend_from_slice(&cur[..i]);
            cand.extend_from_slice(&cur[end..]);
            if fails(&cand) {
                cur = cand;
                removed_any = true;
                // Keep `i` in place: the next chunk slid into this slot.
            } else {
                i += chunk;
            }
        }
        if chunk == 1 && !removed_any {
            return cur;
        }
        if !removed_any {
            chunk = (chunk / 2).max(1);
        }
    }
}

/// Renders events as a Rust array literal — what the harness prints when a
/// shrunk failure needs committing as a named regression test.
pub fn format_events(events: &[OracleEvent]) -> String {
    let mut s = String::from("&[\n");
    for e in events {
        s.push_str(&format!(
            "    OracleEvent {{ t: Timestamp::from_micros({}), v: {:?}, key: {} }},\n",
            e.t.as_micros(),
            e.v,
            e.key
        ));
    }
    s.push(']');
    s
}

/// The seed list the harness iterates: the committed `default` matrix, or a
/// comma-separated override from `FD_ORACLE_SEED` (the CI smoke entry sets
/// it to the run id for a fresh stream per run). An unset, empty, or
/// unparsable variable falls back to the committed matrix.
pub fn harness_seeds(default: &[u64]) -> Vec<u64> {
    if let Ok(raw) = std::env::var("FD_ORACLE_SEED") {
        let parsed: Vec<u64> = raw
            .split(',')
            .filter_map(|p| p.trim().parse().ok())
            .collect();
        if !parsed.is_empty() {
            return parsed;
        }
    }
    default.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregates::{DecayedCount, DecayedSum};
    use crate::decay::Monomial;

    #[test]
    fn oracle_agrees_with_streaming_count_and_sum() {
        let g = Monomial::quadratic();
        let mut oracle = Oracle::new(g, 100.0);
        let mut count = DecayedCount::new(g, 100.0);
        let mut sum = DecayedSum::new(g, 100.0);
        for e in adversarial_stream(7, &StreamConfig::default()) {
            oracle.push(e);
            count.update(e.t);
            sum.update(e.t, e.v);
        }
        let t = Timestamp::from_secs_f64(170.0);
        assert!((oracle.count(t) - count.query(t)).abs() <= 1e-9 * oracle.count(t).abs().max(1.0));
        assert!((oracle.sum(t) - sum.query(t)).abs() <= 1e-9 * oracle.sum(t).abs().max(1.0));
    }

    #[test]
    fn generator_is_deterministic_in_seed() {
        let cfg = StreamConfig::default();
        let a = adversarial_stream(42, &cfg);
        let b = adversarial_stream(42, &cfg);
        let c = adversarial_stream(43, &cfg);
        assert_eq!(a.len(), cfg.n);
        assert!(a.iter().zip(&b).all(|(x, y)| {
            x.t == y.t && x.key == y.key && (x.v == y.v || (x.v.is_nan() && y.v.is_nan()))
        }));
        assert!(a.iter().zip(&c).any(|(x, y)| x.t != y.t || x.key != y.key));
    }

    #[test]
    fn generator_covers_the_adversarial_cases() {
        let cfg = StreamConfig {
            n: 2000,
            allow_nan: true,
            ..StreamConfig::default()
        };
        let l = Timestamp::from_secs_f64(cfg.landmark);
        let events = adversarial_stream(11, &cfg);
        assert!(events.iter().any(|e| e.t < l), "no pre-landmark stragglers");
        assert!(events.iter().any(|e| e.t == l), "no landmark-exact events");
        assert!(
            events.windows(2).any(|w| w[1].t == w[0].t),
            "no duplicate timestamps"
        );
        assert!(
            events.windows(2).any(|w| w[1].t < w[0].t),
            "no out-of-order arrivals"
        );
        assert!(events.iter().any(|e| e.v == 0.0), "no zero values");
        assert!(events.iter().any(|e| e.v < 0.0), "no negative values");
        assert!(events.iter().any(|e| e.v.is_nan()), "no NaN values");
    }

    #[test]
    fn shrink_minimizes_a_planted_failure() {
        // Failure predicate: "contains an event with key 13". The minimal
        // failing stream is exactly one such event.
        let cfg = StreamConfig {
            key_domain: 16,
            ..StreamConfig::default()
        };
        let events = adversarial_stream(3, &cfg);
        assert!(events.iter().any(|e| e.key == 13), "seed must plant key 13");
        let minimal = shrink(&events, |es| es.iter().any(|e| e.key == 13));
        assert_eq!(minimal.len(), 1);
        assert_eq!(minimal[0].key, 13);
    }

    #[test]
    fn harness_seeds_fall_back_to_default() {
        // The test runner may or may not have FD_ORACLE_SEED set; only the
        // unset path is asserted here (CI covers the override).
        if std::env::var("FD_ORACLE_SEED").is_err() {
            assert_eq!(harness_seeds(&[1, 2, 3]), vec![1, 2, 3]);
        }
    }

    #[test]
    fn extremum_skips_nan_and_breaks_ties_deterministically() {
        let g = Monomial::quadratic();
        let mut o = Oracle::new(g, 0.0);
        o.push(OracleEvent::new(5.0, f64::NAN, 0));
        o.push(OracleEvent::new(7.0, 3.0, 0));
        o.push(OracleEvent::new(5.0, 3.0, 0)); // lighter weight, same value
        let (_, t_i, v) = o.extremum(false, 10.0).unwrap();
        assert_eq!((t_i, v), (Timestamp::from_secs_f64(7.0), 3.0));
        // Exact duplicate of the max: the earliest (t, v) is the witness.
        o.push(OracleEvent::new(7.0, 3.0, 1));
        let (_, t_i, v) = o.extremum(false, 10.0).unwrap();
        assert_eq!((t_i, v), (Timestamp::from_secs_f64(7.0), 3.0));
    }
}
