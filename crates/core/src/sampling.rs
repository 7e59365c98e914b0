//! Sampling under forward decay (Section V of the paper).
//!
//! Because forward decay is invariant to globally scaling the weights, all
//! samplers work directly with the un-normalized weights `w_i = g(t_i − L)`:
//!
//! - [`WithReplacementSampler`] — sampling *with* replacement (Theorem 5):
//!   `s` independent chains, each retaining item `i` with probability
//!   `w_i / W_i`, in constant space and constant time per tuple;
//! - [`WeightedReservoir`] — Efraimidis–Spirakis weighted reservoir sampling
//!   *without* replacement (Theorem 6): item `i` gets key `u_i^{1/w_i}`, the
//!   sample is the `k` largest keys;
//! - [`PrioritySampler`] — priority sampling of Alon et al. (Theorem 6):
//!   priority `q_i = w_i / u_i`, retain the `k` highest, with a near-optimal
//!   unbiased subset-sum estimator;
//! - [`ReservoirSampler`] — classical unweighted reservoir sampling
//!   (Vitter), the paper's undecayed baseline;
//! - [`BiasedReservoir`] — Aggarwal's biased reservoir sampling (VLDB 2006),
//!   the paper's *backward* exponential-decay baseline, limited to
//!   sequential integer arrivals;
//! - [`exp_decay_sample`] — Corollary 1: an `O(k)`-space sample under
//!   backward exponential decay with **arbitrary** timestamps, obtained for
//!   free from the forward view.
//!
//! All samplers work entirely in the log domain, so exponential decay over
//! arbitrarily long streams needs no renormalization pass at all.
//!
//! Keys and priorities are fixed at arrival, so the five samplers above
//! checkpoint ([`crate::checkpoint`]) as plain data, their generator's
//! state included: a restored sampler draws on where it stopped.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::checkpoint::{require, CodecError, Decode, Encode, Reader, MAX_COUNT};
use crate::codec_struct;
use crate::decay::{Exponential, ForwardDecay};
use crate::merge::Mergeable;
use crate::numerics::{LogSum, Renormalizer};
use crate::Timestamp;

/// A totally ordered `f64` (by `total_cmp`) for use in heaps.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Draws a uniform variate in the open interval `(0, 1)`.
#[inline]
fn open_unit<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen();
        if u > 0.0 {
            return u;
        }
    }
}

/// The generator's four state words.
impl Encode for SmallRng {
    fn put(&self, out: &mut Vec<u8>) {
        self.state().iter().for_each(|word| word.put(out));
    }
}

/// Refuses the all-zero state, from which xoshiro draws nothing but zeros.
impl Decode for SmallRng {
    const MIN_BYTES: usize = 32;

    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let state = [u64::take(r)?, u64::take(r)?, u64::take(r)?, u64::take(r)?];
        SmallRng::from_state(state).ok_or_else(|| CodecError::new("an all-zero generator state"))
    }
}

// ---------------------------------------------------------------------------
// The top-k core of the weighted samplers
// ---------------------------------------------------------------------------

/// One arrival a [`TopK`] keeps: its key, what a sample shows of it, and
/// its weight `ln w`.
#[derive(Debug, Clone)]
struct Kept<T> {
    key: f64,
    entry: SampleEntry<T>,
    ln_w: f64,
}

codec_struct!(Kept<T> { key: f64, entry: SampleEntry<T>, ln_w: f64 });

/// What [`WeightedReservoir`] (`PRIORITY = false`) and [`PrioritySampler`]
/// (`true`) share. An arrival of weight `ln w` draws a uniform `u` and is
/// keyed `−rank = −(ln ln(1/u) − ln w)` or the priority `ln q = ln w − ln u`;
/// the `cap` largest keys are kept in `entries`, with a min-heap of
/// `(key, slot)` whose root is the weakest and a free list of emptied slots,
/// reused last-freed first. Of two equal keys the lower slot is the weaker
/// priority but the stronger rank: each sampler's order before they shared
/// this core.
#[derive(Debug, Clone)]
struct TopK<G, T, const PRIORITY: bool> {
    g: G,
    landmark: Timestamp,
    cap: usize,
    heap: BinaryHeap<Reverse<(OrdF64, u64)>>,
    entries: Vec<Option<Kept<T>>>,
    free: Vec<u64>,
    rng: SmallRng,
    /// Arrivals offered, and how many of them were kept when offered.
    n: u64,
    accepted: u64,
}

impl<G: ForwardDecay, T: Clone, const PRIORITY: bool> TopK<G, T, PRIORITY> {
    fn new(g: G, landmark: Timestamp, cap: usize, seed: u64) -> Self {
        Self {
            g,
            landmark,
            cap,
            heap: BinaryHeap::with_capacity(cap + 1),
            entries: Vec::with_capacity(cap + 1),
            free: Vec::new(),
            rng: SmallRng::seed_from_u64(seed),
            n: 0,
            accepted: 0,
        }
    }

    fn update(&mut self, t_i: Timestamp, item: &T) {
        let t_i = crate::decay::clamp_to_landmark(t_i, self.landmark);
        let ln_w = self.g.ln_g(t_i - self.landmark);
        self.arrive(t_i, item, ln_w);
    }

    fn update_batch(&mut self, ts: &[Timestamp], items: &[T]) {
        assert_eq!(ts.len(), items.len(), "columnar batch slices must align");
        let mut k = crate::kernel::WeightKernel::new(self.g.clone());
        for (&t_i, item) in ts.iter().zip(items) {
            let t_i = crate::decay::clamp_to_landmark(t_i, self.landmark);
            let ln_w = k.ln_g(t_i - self.landmark);
            self.arrive(t_i, item, ln_w);
        }
    }

    /// Counts an arrival and, unless its weight is zero, offers it.
    fn arrive(&mut self, t: Timestamp, item: &T, ln_w: f64) {
        self.n += 1;
        if ln_w == f64::NEG_INFINITY {
            return;
        }
        let u = open_unit(&mut self.rng);
        let key = if PRIORITY {
            ln_w - u.ln()
        } else {
            -((-(u.ln())).ln() - ln_w)
        };
        let kept = || Kept {
            key,
            entry: SampleEntry {
                item: item.clone(),
                t,
            },
            ln_w,
        };
        if self.offer(key, kept) {
            self.accepted += 1;
        }
    }
}

impl<G, T, const PRIORITY: bool> TopK<G, T, PRIORITY> {
    /// The heap's second key for `slot`, and its own inverse.
    fn tie(slot: u64) -> u64 {
        if PRIORITY {
            slot
        } else {
            !slot
        }
    }

    /// The weakest kept key, if any entry is kept.
    fn weakest(&self) -> Option<f64> {
        self.heap.peek().map(|&Reverse((OrdF64(key), _))| key)
    }

    /// Keeps what `make` builds under `key`, unless the core is full and
    /// `key` is no stronger than its weakest — then `make` never runs.
    /// Says whether it kept it.
    fn offer(&mut self, key: f64, make: impl FnOnce() -> Kept<T>) -> bool {
        if self.heap.len() == self.cap && self.weakest().is_some_and(|weakest| key <= weakest) {
            return false;
        }
        let kept = Some(make());
        let slot = match self.free.pop() {
            Some(slot) => {
                self.entries[slot as usize] = kept;
                slot
            }
            None => {
                self.entries.push(kept);
                (self.entries.len() - 1) as u64
            }
        };
        self.heap.push(Reverse((OrdF64(key), Self::tie(slot))));
        if self.heap.len() > self.cap {
            if let Some(Reverse((_, tie))) = self.heap.pop() {
                let evicted = Self::tie(tie);
                self.entries[evicted as usize] = None;
                self.free.push(evicted);
            }
        }
        true
    }

    /// The kept arrivals, in slot order.
    fn kept(&self) -> impl Iterator<Item = &Kept<T>> {
        self.entries.iter().flatten()
    }

    /// The decoder's refusals and both samplers' invariants: each empty
    /// slot freed once, the heap keying the rest, no more kept than fit.
    fn check(&self) -> Result<(), CodecError> {
        let mut freed = vec![false; self.entries.len()];
        for &slot in &self.free {
            let empty = usize::try_from(slot)
                .ok()
                .filter(|&s| matches!(self.entries.get(s), Some(None)));
            require(
                empty.is_some_and(|s| !std::mem::replace(&mut freed[s], true)),
                "a free list naming a live, missing or repeated slot",
            )?;
        }
        let kept = self.entries.len() - self.free.len();
        let counted = self.accepted <= self.n && self.n <= MAX_COUNT;
        require(
            self.heap.len() == kept && kept <= self.cap && counted,
            "a miscounted sample",
        )
    }

    fn stats(&self) -> SummaryStats {
        SummaryStats {
            renormalizations: 0,
            occupancy: self.heap.len() as u64,
            capacity: self.cap as u64,
            items: self.n,
            accepted: self.accepted,
        }
    }
}

impl<G: ForwardDecay, T: Clone, const PRIORITY: bool> Mergeable for TopK<G, T, PRIORITY> {
    /// Offers every arrival `other` keeps, in its slot order.
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(self.cap, other.cap, "sample sizes must match");
        assert_eq!(self.landmark, other.landmark, "landmarks must match");
        for kept in other.kept() {
            self.offer(kept.key, || kept.clone());
        }
        self.n += other.n;
    }
}

/// Every field in order but the heap, which the keys rebuild.
impl<G: Encode, T: Encode, const PRIORITY: bool> Encode for TopK<G, T, PRIORITY> {
    fn put(&self, out: &mut Vec<u8>) {
        (&self.g, self.landmark, self.cap).put(out);
        (&self.entries, &self.free, &self.rng).put(out);
        (self.n, self.accepted).put(out);
    }
}

/// Refuses what [`TopK::check`] refuses.
impl<G: Decode, T: Decode, const PRIORITY: bool> Decode for TopK<G, T, PRIORITY> {
    const MIN_BYTES: usize = G::MIN_BYTES + 8 + 8 + 8 + 8 + 32 + 16;

    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let (g, landmark, cap) = Decode::take(r)?;
        let (entries, free, rng): (Vec<Option<Kept<T>>>, Vec<u64>, _) = Decode::take(r)?;
        let (n, accepted) = Decode::take(r)?;
        let heap = (entries.iter().enumerate())
            .filter_map(|(slot, e)| {
                Some(Reverse((OrdF64(e.as_ref()?.key), Self::tie(slot as u64))))
            })
            .collect();
        let core = Self {
            g,
            landmark,
            cap,
            heap,
            entries,
            free,
            rng,
            n,
            accepted,
        };
        core.check()?;
        Ok(core)
    }
}

// ---------------------------------------------------------------------------
// Unweighted reservoir sampling (baseline)
// ---------------------------------------------------------------------------

/// Classical reservoir sampling without replacement (Vitter's Algorithm R
/// with the geometric-skip acceleration known as Algorithm L). The paper's
/// "no decay" sampling baseline.
#[derive(Debug, Clone)]
pub struct ReservoirSampler<T> {
    k: usize,
    reservoir: Vec<T>,
    /// Items seen so far.
    n: u64,
    /// Algorithm-L state: `w` threshold and how many items to skip.
    w: f64,
    skip: u64,
    rng: SmallRng,
}

codec_struct!(ReservoirSampler<T> { k: usize, reservoir: Vec<T>, n: u64, w: f64, skip: u64, rng: SmallRng }
check |s| {
    require(s.k > 0 && s.reservoir.len() <= s.k, "a reservoir longer than k")?;
    require(s.n <= MAX_COUNT && s.reservoir.len() as u64 <= s.n, "a reservoir of unseen items")
});

impl<T: Clone> ReservoirSampler<T> {
    /// Creates a reservoir of size `k` with the given RNG seed.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k > 0);
        Self {
            k,
            reservoir: Vec::with_capacity(k),
            n: 0,
            w: 1.0,
            skip: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Offers one item to the sampler. O(1) amortized; once the reservoir is
    /// full, most calls are a single decrement.
    #[inline]
    pub fn update(&mut self, item: T) {
        self.n += 1;
        if self.reservoir.len() < self.k {
            self.reservoir.push(item);
            if self.reservoir.len() == self.k {
                self.advance_skip();
            }
            return;
        }
        if self.skip > 0 {
            self.skip -= 1;
            return;
        }
        let slot = self.rng.gen_range(0..self.k);
        self.reservoir[slot] = item;
        self.advance_skip();
    }

    /// Algorithm L: draw the gap until the next accepted item.
    fn advance_skip(&mut self) {
        self.w *= open_unit(&mut self.rng).powf(1.0 / self.k as f64);
        let gap = (open_unit(&mut self.rng).ln() / (1.0 - self.w).ln()).floor();
        self.skip = if gap.is_finite() && gap >= 0.0 {
            gap as u64
        } else {
            u64::MAX
        };
    }

    /// The current sample (fewer than `k` items if the stream was shorter).
    pub fn sample(&self) -> &[T] {
        &self.reservoir
    }

    /// Sample capacity `k`.
    pub fn capacity(&self) -> usize {
        self.k
    }
}

impl<T: Clone> Mergeable for ReservoirSampler<T> {
    /// Exact distributed merge: draw the combined sample by picking from
    /// each side without replacement with probability proportional to the
    /// numbers of items each side has seen.
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(self.k, other.k, "sample sizes must match");
        let mut left = self.reservoir.clone();
        let mut right = other.reservoir.clone();
        let (mut n1, mut n2) = (self.n, other.n);
        let mut merged = Vec::with_capacity(self.k.min(left.len() + right.len()));
        while merged.len() < self.k && (n1 > 0 || n2 > 0) {
            let take_left = if n2 == 0 {
                true
            } else if n1 == 0 {
                false
            } else {
                (self.rng.gen::<f64>()) * ((n1 + n2) as f64) < n1 as f64
            };
            if take_left {
                if left.is_empty() {
                    break;
                }
                let i = self.rng.gen_range(0..left.len());
                merged.push(left.swap_remove(i));
                n1 -= 1;
            } else {
                if right.is_empty() {
                    break;
                }
                let i = self.rng.gen_range(0..right.len());
                merged.push(right.swap_remove(i));
                n2 -= 1;
            }
        }
        self.reservoir = merged;
        self.n += other.n;
        // Restart the skip machinery conservatively.
        self.w = 1.0;
        self.skip = 0;
        if self.reservoir.len() == self.k {
            self.advance_skip();
        }
    }
}

// ---------------------------------------------------------------------------
// Sampling with replacement under forward decay (Theorem 5)
// ---------------------------------------------------------------------------

/// One chain of the with-replacement sampler: its current item and the
/// total-weight threshold at which the item will be replaced.
#[derive(Debug, Clone)]
struct Chain<T> {
    item: Option<T>,
    /// Replace the item as soon as `ln W_total ≥ ln_threshold`.
    ln_threshold: f64,
}

codec_struct!(Chain<T> { item: Option<T>, ln_threshold: f64 });

/// Sampling *with replacement* under forward decay (Theorem 5): `s`
/// independent chains, each holding one item; chain `j` replaces its item
/// with arrival `i` with probability `g(t_i − L) / W_i` where `W_i` is the
/// total weight so far. Each chain's final item is distributed as
/// `P(i) = g(t_i − L) / Σ_j g(t_j − L)`.
///
/// Implements the skip acceleration the paper points at ("the procedure can
/// be accelerated by using an appropriate random distribution to determine
/// the total weight of subsequent items to skip over", Section V-A): when a
/// chain adopts an item at total weight `W_i`, the survival probability of
/// that item once the total reaches `W` is exactly `W_i / W`, so drawing
/// `u ~ U(0,1)` once fixes the replacement point at `W_i / u`. Per tuple
/// each chain does one comparison, and randomness is consumed only at the
/// O(log of total weight growth) actual replacements.
///
/// Weights and thresholds live in the log domain ([`LogSum`]), so
/// exponential decay on unbounded streams cannot overflow.
#[derive(Debug, Clone)]
pub struct WithReplacementSampler<T, G: ForwardDecay> {
    g: G,
    landmark: Timestamp,
    chains: Vec<Chain<T>>,
    total: LogSum,
    rng: SmallRng,
    draws: u64,
    n: u64,
}

codec_struct!(WithReplacementSampler<T, G: ForwardDecay> {
    g: G, landmark: Timestamp, chains: Vec<Chain<T>>, total: LogSum, rng: SmallRng, draws: u64, n: u64
} check |s| {
    require(!s.chains.is_empty() && s.n.max(s.draws) <= MAX_COUNT, "no chains, or 2^62 draws")
});

impl<T: Clone, G: ForwardDecay> WithReplacementSampler<T, G> {
    /// Creates a sampler of `s` independent chains.
    ///
    /// # Panics
    /// Panics if `s == 0`.
    pub fn new(g: G, landmark: impl Into<Timestamp>, s: usize, seed: u64) -> Self {
        let landmark = landmark.into();
        assert!(s > 0);
        Self {
            g,
            landmark,
            chains: vec![
                Chain {
                    item: None,
                    ln_threshold: f64::NEG_INFINITY,
                };
                s
            ],
            total: LogSum::new(),
            rng: SmallRng::seed_from_u64(seed),
            draws: 0,
            n: 0,
        }
    }

    /// Offers `(t_i, item)` to every chain (pre-landmark timestamps clamp
    /// to the landmark). One comparison per chain per tuple; random draws
    /// only on replacements.
    pub fn update(&mut self, t_i: impl Into<Timestamp>, item: &T) {
        let t_i = crate::decay::clamp_to_landmark(t_i.into(), self.landmark);
        let ln_w = self.g.ln_g(t_i - self.landmark);
        if ln_w == f64::NEG_INFINITY {
            return; // zero weight: can never be sampled
        }
        self.n += 1;
        self.total.add_ln(ln_w);
        let ln_total = self.total.ln();
        for chain in &mut self.chains {
            if chain.item.is_some() && ln_total < chain.ln_threshold {
                continue;
            }
            // The crossing item is the replacement (conditioned on the
            // threshold falling in (W_{j−1}, W_j], the replacement
            // probability is exactly w_j / W_j).
            chain.item = Some(item.clone());
            // Next replacement once the total reaches W_j / u.
            self.draws += 1;
            let u = open_unit(&mut self.rng);
            chain.ln_threshold = ln_total - u.ln();
        }
    }

    /// The current sample: one (possibly repeated) item per chain.
    pub fn sample(&self) -> Vec<&T> {
        self.chains.iter().filter_map(|c| c.item.as_ref()).collect()
    }

    /// Number of chains (the sample size `s`).
    pub fn capacity(&self) -> usize {
        self.chains.len()
    }

    /// Random numbers drawn so far — O(s · log total-weight-growth) thanks
    /// to the skip thresholds, against `s · n` for the naive per-tuple coin.
    pub fn random_draws(&self) -> u64 {
        self.draws
    }
}

impl<T: Clone, G: ForwardDecay> Mergeable for WithReplacementSampler<T, G> {
    /// Per chain, keep this side's item with probability `W_self / (W_self +
    /// W_other)` — exactly the distribution of a chain run over the
    /// concatenated stream.
    ///
    /// The distributional guarantee assumes the two sides drew from
    /// **independent** RNG streams: construct shards with distinct seeds.
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(
            self.chains.len(),
            other.chains.len(),
            "sample sizes must match"
        );
        assert_eq!(self.landmark, other.landmark, "landmarks must match");
        let mut merged_total = self.total;
        merged_total.merge(&other.total);
        let p_keep_self = if merged_total.is_empty() {
            1.0
        } else {
            (self.total.ln() - merged_total.ln()).exp()
        };
        let ln_merged = merged_total.ln();
        for (c, oc) in self.chains.iter_mut().zip(&other.chains) {
            match (&c.item, &oc.item) {
                (None, Some(theirs)) => c.item = Some(theirs.clone()),
                (Some(_), Some(theirs)) if self.rng.gen::<f64>() >= p_keep_self => {
                    c.item = Some(theirs.clone());
                }
                _ => {}
            }
            // Pareto thresholds are memoryless: conditioned on surviving to
            // the merged total, the remaining lifetime redraws exactly.
            if c.item.is_some() {
                self.draws += 1;
                let u = open_unit(&mut self.rng);
                c.ln_threshold = ln_merged - u.ln();
            }
        }
        self.total = merged_total;
    }
}

// ---------------------------------------------------------------------------
// Efraimidis–Spirakis weighted reservoir sampling (Theorem 6)
// ---------------------------------------------------------------------------

/// An entry of a without-replacement sample: the item and its timestamp.
#[derive(Debug, Clone)]
pub struct SampleEntry<T> {
    /// The sampled item.
    pub item: T,
    /// Its arrival timestamp.
    pub t: Timestamp,
}

codec_struct!(SampleEntry<T> { item: T, t: Timestamp });

/// Weighted reservoir sampling *without replacement* (Efraimidis–Spirakis,
/// as adopted in Theorem 6): item `i` draws `u_i ~ U(0,1)` and gets key
/// `p_i = u_i^{1/w_i}`; the sample is the `k` items with the largest keys.
///
/// Keys are kept as ranks `ln(−ln p_i) = ln(ln(1/u_i)) − ln w_i` (monotone
/// in `−p_i`), which stay finite for any exponential-decay weight — this is
/// precisely what makes the forward view numerically effortless.
///
/// O(k) space, O(log k) per update (a heap of the k smallest ranks).
#[derive(Debug, Clone)]
pub struct WeightedReservoir<T, G: ForwardDecay> {
    /// The k smallest ranks, kept as the largest keys `−rank`.
    core: TopK<G, T, false>,
}

codec_struct!(WeightedReservoir<T, G: ForwardDecay> { core: TopK<G, T, false> }
    check |s| require(s.core.cap > 0, "a weighted reservoir of no size"));

impl<T: Clone, G: ForwardDecay> WeightedReservoir<T, G> {
    /// Creates a weighted reservoir of size `k`.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(g: G, landmark: impl Into<Timestamp>, k: usize, seed: u64) -> Self {
        assert!(k > 0);
        Self {
            core: TopK::new(g, landmark.into(), k, seed),
        }
    }

    /// Offers `(t_i, item)`; pre-landmark timestamps clamp to the landmark.
    /// O(log k).
    pub fn update(&mut self, t_i: impl Into<Timestamp>, item: &T) {
        self.core.update(t_i.into(), item);
    }

    /// Offers a columnar batch: `ts[i]` pairs with `items[i]`.
    ///
    /// Identical in distribution *and* in realized draws to per-item
    /// [`update`](Self::update) calls (the RNG consumption is the same);
    /// the only difference is that `ln_g` runs through a
    /// [`WeightKernel`](crate::kernel::WeightKernel), so duplicated clock
    /// ticks skip the transcendental.
    ///
    /// # Panics
    /// Panics if the slices' lengths differ.
    pub fn update_batch(&mut self, ts: &[Timestamp], items: &[T]) {
        self.core.update_batch(ts, items);
    }

    /// The current sample, in no particular order.
    pub fn sample(&self) -> Vec<&SampleEntry<T>> {
        self.core.kept().map(|k| &k.entry).collect()
    }

    /// Sample capacity `k`.
    pub fn capacity(&self) -> usize {
        self.core.cap
    }
}

/// Keys are independent across items, so the sample of the union is the
/// `k` best-ranked entries of the union of samples.
///
/// "Independent across items" requires the shards themselves to be seeded
/// differently; same-seed shards re-draw the same uniforms and the merged
/// sample is no longer distributed like a single-stream run.
impl<T: Clone, G: ForwardDecay> Mergeable for WeightedReservoir<T, G> {
    fn merge_from(&mut self, other: &Self) {
        self.core.merge_from(&other.core);
    }
}

/// Corollary 1 of the paper: a size-`k` sample under **backward exponential
/// decay** with arbitrary timestamps in `O(k)` space — simply a
/// [`WeightedReservoir`] under the coinciding forward exponential decay.
pub fn exp_decay_sample<T: Clone>(
    alpha: f64,
    landmark: impl Into<Timestamp>,
    k: usize,
    seed: u64,
) -> WeightedReservoir<T, Exponential> {
    WeightedReservoir::new(Exponential::new(alpha), landmark, k, seed)
}

// ---------------------------------------------------------------------------
// Efraimidis–Spirakis with exponential jumps (algorithm A-ES)
// ---------------------------------------------------------------------------

/// Weighted reservoir sampling with the *exponential jumps* acceleration of
/// Efraimidis & Spirakis (algorithm A-ES): instead of drawing one random
/// key per item, draw the total **weight to skip** until the next reservoir
/// insertion. Produces the same sample distribution as
/// [`WeightedReservoir`], with O(1) amortized work and
/// O(k·log(n)/k)-ish random draws overall — the paper's remark that
/// reservoir procedures "can be accelerated by using an appropriate random
/// distribution to determine the total weight of subsequent items to skip
/// over" (Section V-A) applied to the without-replacement sampler.
///
/// Weights are handled relative to a moving landmark
/// ([`Renormalizer`]), and keys are kept as `ln p`, so exponential decay on
/// long streams stays in range.
#[derive(Debug, Clone)]
pub struct JumpWeightedReservoir<T> {
    k: usize,
    renorm: Renormalizer,
    /// (ln-domain key, item, arrival time); the minimum key is tracked
    /// lazily.
    entries: Vec<(f64, T, Timestamp)>,
    /// Index of the minimum-key entry (the threshold), or `usize::MAX`.
    min_idx: usize,
    /// Remaining weight (current-landmark units) to skip before the next
    /// insertion; `None` until the reservoir fills.
    skip: Option<f64>,
    rng: SmallRng,
    n: u64,
    draws: u64,
}

impl<T: Clone> JumpWeightedReservoir<T> {
    /// Creates a jump-accelerated weighted reservoir of size `k`.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(landmark: impl Into<Timestamp>, k: usize, seed: u64) -> Self {
        let landmark = landmark.into();
        assert!(k > 0);
        Self {
            k,
            renorm: Renormalizer::new(landmark),
            entries: Vec::with_capacity(k),
            min_idx: usize::MAX,
            skip: None,
            rng: SmallRng::seed_from_u64(seed),
            n: 0,
            draws: 0,
        }
    }

    fn refresh_min(&mut self) {
        self.min_idx = self
            .entries
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0))
            .map(|(i, _)| i)
            .unwrap_or(usize::MAX);
    }

    /// Draws the next weight-to-skip for threshold `ln_t` (= ln of the
    /// smallest key).
    fn draw_skip(&mut self, ln_t: f64) -> f64 {
        self.draws += 1;
        let u = open_unit(&mut self.rng);
        u.ln() / ln_t // both negative → positive weight
    }

    /// Offers `(t_i, item)` under forward decay `g` (pre-landmark
    /// timestamps clamp to the landmark). O(1) amortized outside
    /// insertions.
    pub fn update<G: ForwardDecay>(&mut self, g: &G, t_i: impl Into<Timestamp>, item: &T) {
        let t_i = crate::decay::clamp_to_landmark(t_i.into(), self.renorm.original_landmark());
        self.n += 1;
        if let Some(factor) = self.renorm.pre_update(g, t_i) {
            // Weights scale by `factor`; keys p = u^{1/w} become p^{1/factor}
            // (ln p scales by 1/factor) and pending skip weight scales too.
            for e in &mut self.entries {
                e.0 /= factor;
            }
            if let Some(s) = &mut self.skip {
                *s *= factor;
            }
        }
        let w = g.g(t_i - self.renorm.landmark());
        if w <= 0.0 {
            return;
        }
        if self.entries.len() < self.k {
            // Fill phase: plain ES keys.
            self.draws += 1;
            let u = open_unit(&mut self.rng);
            let ln_p = u.ln() / w;
            self.entries.push((ln_p, item.clone(), t_i));
            if self.entries.len() == self.k {
                self.refresh_min();
                let ln_t = self.entries[self.min_idx].0;
                let s = self.draw_skip(ln_t);
                self.skip = Some(s);
            }
            return;
        }
        let skip = self.skip.as_mut().expect("set when reservoir filled");
        if *skip > w {
            *skip -= w;
            return;
        }
        // This item crosses the jump boundary: insert it with a key drawn
        // uniformly from (T^w, 1), replacing the threshold entry.
        let ln_t = self.entries[self.min_idx].0;
        let t_pow_w = (w * ln_t).exp(); // may underflow to 0 — fine
        self.draws += 1;
        let u = open_unit(&mut self.rng);
        let key = t_pow_w + u * (1.0 - t_pow_w);
        let ln_p = key.ln() / w;
        self.entries[self.min_idx] = (ln_p, item.clone(), t_i);
        self.refresh_min();
        let ln_t = self.entries[self.min_idx].0;
        let s = self.draw_skip(ln_t);
        self.skip = Some(s);
    }

    /// The current sample.
    pub fn sample(&self) -> Vec<(&T, Timestamp)> {
        self.entries.iter().map(|(_, item, t)| (item, *t)).collect()
    }

    /// Items offered so far.
    pub fn items_seen(&self) -> u64 {
        self.n
    }

    /// Random numbers drawn so far — the quantity the jumps reduce.
    pub fn random_draws(&self) -> u64 {
        self.draws
    }
}

// ---------------------------------------------------------------------------
// Priority sampling (Theorem 6)
// ---------------------------------------------------------------------------

/// Priority sampling (Alon, Duffield, Lund, Thorup): item `i` gets priority
/// `q_i = w_i / u_i`; the sample is the `k` items of highest priority, and
/// the `(k+1)`-th priority `τ` yields the unbiased subset-sum estimator
/// `ŵ_i = max(w_i, τ)` for sampled items.
///
/// Priorities are held as `ln q_i = ln w_i − ln u_i`. The estimator operates
/// on *decay-normalized* weights `w_i / g(t − L)` (i.e. the decayed weights
/// at query time), keeping everything in `f64` range.
#[derive(Debug, Clone)]
pub struct PrioritySampler<T, G: ForwardDecay> {
    /// The k + 1 largest priorities.
    core: TopK<G, T, true>,
}

codec_struct!(PrioritySampler<T, G: ForwardDecay> { core: TopK<G, T, true> }
    check |s| require(s.core.cap > 1, "a priority sampler of no size"));

impl<T: Clone, G: ForwardDecay> PrioritySampler<T, G> {
    /// Creates a priority sampler of size `k` (internally keeps `k + 1`
    /// entries to know the threshold `τ`).
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(g: G, landmark: impl Into<Timestamp>, k: usize, seed: u64) -> Self {
        assert!(k > 0);
        Self {
            core: TopK::new(g, landmark.into(), k + 1, seed),
        }
    }

    /// Offers `(t_i, item)`; pre-landmark timestamps clamp to the landmark.
    /// O(log k).
    pub fn update(&mut self, t_i: impl Into<Timestamp>, item: &T) {
        self.core.update(t_i.into(), item);
    }

    /// Offers a columnar batch, drawing as per-item [`update`](Self::update)
    /// calls would: see [`WeightedReservoir::update_batch`].
    pub fn update_batch(&mut self, ts: &[Timestamp], items: &[T]) {
        self.core.update_batch(ts, items);
    }

    /// The current sample: the `k` highest-priority items (the threshold
    /// item is excluded).
    pub fn sample(&self) -> Vec<&SampleEntry<T>> {
        let mut all: Vec<&Kept<T>> = self.core.kept().collect();
        if all.len() > self.capacity() {
            // Drop the single lowest-priority entry (the threshold).
            let weakest = (0..all.len()).min_by(|&a, &b| all[a].key.total_cmp(&all[b].key));
            if let Some(weakest) = weakest {
                all.swap_remove(weakest);
            }
        }
        all.into_iter().map(|k| &k.entry).collect()
    }

    /// Unbiased estimate of the **decayed sum of weights** at query time
    /// `t`: `E[estimate] = Σ_i g(t_i − L)/g(t − L)` (the decayed count).
    /// Per sampled item the estimator is `max(w_i, τ)` on decay-normalized
    /// weights.
    pub fn estimate_decayed_count(&self, t: impl Into<Timestamp>) -> f64 {
        self.estimate_selection(t, |_| true)
    }

    /// Unbiased estimate of the decayed count restricted to items matching
    /// `pred` — the "unbiased estimator for any selection query" that
    /// priority sampling was designed for (Alon et al., cited in
    /// Section V-B). `E[estimate] = Σ_{i: pred(iᵢ)} g(t_i − L)/g(t − L)`.
    pub fn estimate_selection(&self, t: impl Into<Timestamp>, pred: impl Fn(&T) -> bool) -> f64 {
        let t = t.into();
        let ln_denom = self.core.g.ln_g(t - self.core.landmark);
        let mut all: Vec<(f64, f64, bool)> = (self.core.kept())
            .map(|k| (k.key, k.ln_w, pred(&k.entry.item)))
            .collect();
        if all.is_empty() {
            return 0.0;
        }
        match self.core.weakest() {
            // Threshold τ = lowest priority among the k+1 kept.
            Some(tau_ln_q) if all.len() > self.capacity() => {
                all.sort_by(|a, b| b.0.total_cmp(&a.0));
                all.truncate(self.capacity());
                all.iter()
                    .filter(|(_, _, hit)| *hit)
                    .map(|(_, ln_w, _)| (ln_w.max(tau_ln_q) - ln_denom).exp())
                    .sum()
            }
            // Fewer than k items seen: the sample is exact.
            _ => all
                .iter()
                .filter(|(_, _, hit)| *hit)
                .map(|(_, ln_w, _)| (ln_w - ln_denom).exp())
                .sum(),
        }
    }

    /// Sample capacity `k`.
    pub fn capacity(&self) -> usize {
        self.core.cap - 1
    }
}

/// Priorities are independent across items: keep the `k + 1` highest of
/// the union.
///
/// Shards must be constructed with **distinct seeds**. Same-seed shards
/// draw identical uniforms, duplicating priorities across the union; the
/// merged threshold `τ` then sits systematically high and the
/// Horvitz–Thompson estimate ([`PrioritySampler::estimate_decayed_count`])
/// biases upward — the differential harness measured ≈ 1.9× on three
/// same-seed shards of a 266-item stream.
impl<T: Clone, G: ForwardDecay> Mergeable for PrioritySampler<T, G> {
    fn merge_from(&mut self, other: &Self) {
        self.core.merge_from(&other.core);
    }
}

// ---------------------------------------------------------------------------
// Aggarwal's biased reservoir (backward-decay baseline)
// ---------------------------------------------------------------------------

/// Aggarwal's biased reservoir sampling (VLDB 2006) for backward exponential
/// decay with rate `λ` — the baseline the paper compares against in its
/// sampling experiments.
///
/// Limitations the paper highlights (and Corollary 1 removes): the method
/// assumes items arrive one per time unit (sequential integer timestamps),
/// and the achievable sample size is tied to `1/λ`.
///
/// Algorithm: the reservoir has capacity `n_max = ⌈1/λ⌉`. Every arrival is
/// inserted; with probability `fill = len/n_max` it replaces a uniformly
/// random resident, otherwise the reservoir grows. In steady state the
/// inclusion probability of the item that arrived `a` steps ago is
/// approximately `e^{−λa}` times that of the newest item.
#[derive(Debug, Clone)]
pub struct BiasedReservoir<T> {
    lambda: f64,
    n_max: usize,
    reservoir: Vec<T>,
    n: u64,
    rng: SmallRng,
}

codec_struct!(BiasedReservoir<T> { lambda: f64, n_max: usize, reservoir: Vec<T>, n: u64, rng: SmallRng }
check |s| {
    require(s.lambda > 0.0 && s.lambda <= 1.0, "a bias rate outside (0, 1]")?;
    let fits = s.n_max == (1.0 / s.lambda).ceil() as usize && s.reservoir.len() <= s.n_max;
    require(fits && s.n <= MAX_COUNT, "a biased reservoir longer than 1/λ, or past 2^62 items")
});

impl<T: Clone> BiasedReservoir<T> {
    /// Creates a biased reservoir for bias rate `λ` (capacity `⌈1/λ⌉`).
    ///
    /// # Panics
    /// Panics unless `0 < λ ≤ 1`.
    pub fn new(lambda: f64, seed: u64) -> Self {
        assert!(lambda > 0.0 && lambda <= 1.0, "λ must be in (0, 1]");
        let n_max = (1.0 / lambda).ceil() as usize;
        Self {
            lambda,
            n_max,
            reservoir: Vec::with_capacity(n_max),
            n: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Offers the next item (arrivals are implicitly at t = 1, 2, 3, …).
    pub fn update(&mut self, item: T) {
        self.n += 1;
        let fill = self.reservoir.len() as f64 / self.n_max as f64;
        if self.reservoir.len() < self.n_max && self.rng.gen::<f64>() >= fill {
            self.reservoir.push(item);
        } else {
            let slot = self.rng.gen_range(0..self.reservoir.len());
            self.reservoir[slot] = item;
        }
    }

    /// The current (biased) sample.
    pub fn sample(&self) -> &[T] {
        &self.reservoir
    }

    /// Number of items offered so far.
    pub fn items_seen(&self) -> u64 {
        self.n
    }

    /// Reservoir capacity `⌈1/λ⌉` — note it is *dictated* by λ, unlike the
    /// freely chosen `k` of the forward-decay samplers.
    pub fn capacity(&self) -> usize {
        self.n_max
    }
}

// ----- unified Summary API ------------------------------------------------

use crate::summary::{Summary, SummaryStats};

/// Records in, the drawn sample (with replacement) out.
impl<T: Clone, G: ForwardDecay> Summary for WithReplacementSampler<T, G> {
    type Update = T;
    type Output = Vec<T>;

    fn landmark(&self) -> Timestamp {
        self.landmark
    }

    fn update_at(&mut self, t_i: Timestamp, item: T) {
        self.update(t_i, &item);
    }

    fn query_at(&self, _t: Timestamp) -> Vec<T> {
        self.sample().into_iter().cloned().collect()
    }

    fn stats(&self) -> SummaryStats {
        SummaryStats {
            renormalizations: 0, // log-domain weights: never renormalizes
            occupancy: if self.n > 0 {
                self.capacity() as u64
            } else {
                0
            },
            capacity: self.capacity() as u64,
            items: self.n,
            // Each random draw replaces a chain's held item.
            accepted: self.draws,
        }
    }

    fn check_invariants(&self) -> Result<(), String> {
        // Every chain that saw a positive-weight item must hold one, and
        // its replacement threshold must be a real number.
        for (i, chain) in self.chains.iter().enumerate() {
            if chain.item.is_some() && chain.ln_threshold.is_nan() {
                return Err(format!(
                    "WithReplacementSampler chain {i} has NaN threshold"
                ));
            }
            if chain.item.is_none() && !self.total.is_empty() {
                return Err(format!(
                    "WithReplacementSampler chain {i} empty despite mass"
                ));
            }
        }
        Ok(())
    }
}

/// Records in, the reservoir sample (without replacement) out.
impl<T: Clone, G: ForwardDecay> Summary for WeightedReservoir<T, G> {
    type Update = T;
    type Output = Vec<T>;

    fn landmark(&self) -> Timestamp {
        self.core.landmark
    }

    fn update_at(&mut self, t_i: Timestamp, item: T) {
        self.update(t_i, &item);
    }

    fn update_batch_at(&mut self, ts: &[Timestamp], items: &[T]) {
        self.update_batch(ts, items);
    }

    fn query_at(&self, _t: Timestamp) -> Vec<T> {
        self.sample().into_iter().map(|e| e.item.clone()).collect()
    }

    fn stats(&self) -> SummaryStats {
        self.core.stats()
    }

    fn check_invariants(&self) -> Result<(), String> {
        self.core.check().map_err(|e| e.to_string())
    }
}

/// Records in, the Horvitz–Thompson estimate of the decayed count out;
/// the sample itself comes from the inherent [`sample`] method.
///
/// [`sample`]: PrioritySampler::sample
impl<T: Clone, G: ForwardDecay> Summary for PrioritySampler<T, G> {
    type Update = T;
    type Output = f64;

    fn landmark(&self) -> Timestamp {
        self.core.landmark
    }

    fn update_at(&mut self, t_i: Timestamp, item: T) {
        self.update(t_i, &item);
    }

    fn update_batch_at(&mut self, ts: &[Timestamp], items: &[T]) {
        self.update_batch(ts, items);
    }

    fn query_at(&self, t: Timestamp) -> f64 {
        self.estimate_decayed_count(t)
    }

    /// Capacity `k + 1`: the extra entry kept is the threshold `τ`.
    fn stats(&self) -> SummaryStats {
        self.core.stats()
    }

    fn check_invariants(&self) -> Result<(), String> {
        self.core.check().map_err(|e| e.to_string())
    }
}

impl<T: Clone> Mergeable for BiasedReservoir<T> {
    /// Distribution-level merge: keeps each slot from the side whose
    /// stream it represents with probability proportional to the two
    /// streams' item counts — the same subsampling argument as
    /// [`ReservoirSampler`]. The bias rate must match; the merged
    /// reservoir approximates the biased sample of the interleaved
    /// stream (exact only when both sides saw their items at the same
    /// rate, as in a hash-partitioned shard split).
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(self.lambda, other.lambda, "bias rates must match");
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            self.reservoir = other.reservoir.clone();
            self.n = other.n;
            return;
        }
        let p_other = other.n as f64 / (self.n + other.n) as f64;
        let keep = self.reservoir.len().min(self.n_max);
        for i in 0..keep {
            if self.rng.gen_range(0.0..1.0) < p_other && !other.reservoir.is_empty() {
                let j = self.rng.gen_range(0..other.reservoir.len());
                self.reservoir[i] = other.reservoir[j].clone();
            }
        }
        while self.reservoir.len() < self.n_max {
            if self.rng.gen_range(0.0..1.0) < p_other && !other.reservoir.is_empty() {
                let j = self.rng.gen_range(0..other.reservoir.len());
                self.reservoir.push(other.reservoir[j].clone());
            } else {
                break;
            }
        }
        self.n += other.n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decay::{Monomial, NoDecay};
    use std::collections::HashMap;

    #[test]
    fn stats_tracks_sampler_acceptance_rate() {
        // Uniform weights: acceptances follow the coupon-collector curve
        // k·H_n ≪ n, so the live acceptance rate collapses as the stream
        // grows — the signal the telemetry layer surfaces.
        let mut r = WeightedReservoir::new(NoDecay, 0.0, 10, 42);
        for i in 0..10_000u64 {
            r.update(i as f64 + 1.0, &i);
        }
        let s = Summary::stats(&r);
        assert_eq!(s.items, 10_000);
        assert_eq!(s.occupancy, 10);
        assert_eq!(s.capacity, 10);
        assert!(s.accepted >= 10);
        let rate = s.accepted as f64 / s.items as f64;
        assert!(rate < 0.1, "acceptance rate {rate} should collapse");

        let mut p = PrioritySampler::new(NoDecay, 0.0, 10, 7);
        for i in 0..10_000u64 {
            p.update(i as f64 + 1.0, &i);
        }
        let ps = Summary::stats(&p);
        assert_eq!(ps.items, 10_000);
        assert_eq!(ps.occupancy, 11); // k + 1 with the threshold entry
        assert!((ps.accepted as f64 / ps.items as f64) < 0.1);
    }

    #[test]
    fn reservoir_uniformity() {
        // Each of 20 items should appear in a k=5 sample with prob 1/4.
        let trials = 4000;
        let mut counts = [0u32; 20];
        for seed in 0..trials {
            let mut r = ReservoirSampler::new(5, seed);
            for i in 0..20u32 {
                r.update(i);
            }
            for &x in r.sample() {
                counts[x as usize] += 1;
            }
        }
        let expected = trials as f64 * 5.0 / 20.0;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.12, "item {i}: count {c}, expected {expected}");
        }
    }

    #[test]
    fn reservoir_short_stream_keeps_everything() {
        let mut r = ReservoirSampler::new(10, 1);
        for i in 0..7 {
            r.update(i);
        }
        let mut s: Vec<i32> = r.sample().to_vec();
        s.sort();
        assert_eq!(s, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn reservoir_skip_does_not_starve() {
        // With a long stream, late items must still enter the sample.
        let mut r = ReservoirSampler::new(100, 7);
        for i in 0..100_000u64 {
            r.update(i);
        }
        let late = r.sample().iter().filter(|&&x| x > 50_000).count();
        assert!(late > 25, "only {late} late items in sample");
    }

    #[test]
    fn reservoir_merge_is_uniform() {
        let trials = 3000;
        let mut counts = [0u32; 20];
        for seed in 0..trials {
            let mut a = ReservoirSampler::new(4, seed * 2 + 1);
            let mut b = ReservoirSampler::new(4, seed * 2 + 2);
            for i in 0..10u32 {
                a.update(i);
            }
            for i in 10..20u32 {
                b.update(i);
            }
            a.merge_from(&b);
            assert_eq!(a.sample().len(), 4);
            for &x in a.sample() {
                counts[x as usize] += 1;
            }
        }
        let expected = trials as f64 * 4.0 / 20.0;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.15, "item {i}: count {c}, expected {expected}");
        }
    }

    #[test]
    fn with_replacement_probabilities_match_weights() {
        // Theorem 5: P(final = i) = w_i / W. Quadratic decay over 4 items.
        let g = Monomial::quadratic();
        let items = [1.0, 2.0, 3.0, 4.0]; // t_i with L = 0 → weights 1,4,9,16
        let w_total = 1.0 + 4.0 + 9.0 + 16.0;
        let trials = 30_000;
        let mut counts: HashMap<u64, u32> = HashMap::new();
        for seed in 0..trials {
            let mut s = WithReplacementSampler::new(g, 0.0, 1, seed);
            for (idx, &t) in items.iter().enumerate() {
                s.update(t, &(idx as u64));
            }
            *counts.entry(*s.sample()[0]).or_default() += 1;
        }
        for (idx, &t) in items.iter().enumerate() {
            let w = t * t;
            let expected = trials as f64 * w / w_total;
            let c = *counts.get(&(idx as u64)).unwrap_or(&0) as f64;
            assert!(
                (c - expected).abs() < 4.0 * expected.sqrt() + 10.0,
                "item {idx}: {c} vs {expected}"
            );
        }
    }

    #[test]
    fn with_replacement_survives_exponential_decay_long_stream() {
        let g = Exponential::new(1.0);
        let mut s = WithReplacementSampler::new(g, 0.0, 10, 3);
        for i in 0..50_000u64 {
            s.update(i as f64 * 0.5, &i);
        }
        // All chains must hold very recent items: the newest item carries
        // more weight than everything older combined (e^{0.5} − 1 < 1… in
        // fact Σ older < newest/(e^{0.5}−1) ≈ 1.54 × newest, so "recent",
        // not necessarily the last).
        for &item in s.sample().iter() {
            assert!(*item > 49_900, "stale chain item {item}");
        }
    }

    #[test]
    fn with_replacement_merge_distribution() {
        // Merged chains must still satisfy P(i) = w_i / W over the union.
        let g = NoDecay; // uniform weights make the math easy: P = 1/20
        let trials = 20_000;
        let mut counts = [0u32; 20];
        for seed in 0..trials {
            let mut a = WithReplacementSampler::new(g, 0.0, 1, seed * 2 + 1);
            let mut b = WithReplacementSampler::new(g, 0.0, 1, seed * 2 + 2);
            for i in 0..15u64 {
                a.update(i as f64, &i);
            }
            for i in 15..20u64 {
                b.update(i as f64, &i);
            }
            a.merge_from(&b);
            counts[*a.sample()[0] as usize] += 1;
        }
        let expected = trials as f64 / 20.0;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.15, "item {i}: {c} vs {expected}");
        }
    }

    #[test]
    fn weighted_reservoir_k1_matches_weights() {
        // For k = 1, ES sampling reduces to P(i) = w_i / W exactly.
        let g = Monomial::new(1.0); // weights = t_i
        let items = [1.0, 2.0, 3.0, 4.0];
        let w_total: f64 = items.iter().sum();
        let trials = 30_000;
        let mut counts: HashMap<u64, u32> = HashMap::new();
        for seed in 0..trials {
            let mut s = WeightedReservoir::new(g, 0.0, 1, seed);
            for (idx, &t) in items.iter().enumerate() {
                s.update(t, &(idx as u64));
            }
            *counts.entry(s.sample()[0].item).or_default() += 1;
        }
        for (idx, &t) in items.iter().enumerate() {
            let expected = trials as f64 * t / w_total;
            let c = *counts.get(&(idx as u64)).unwrap_or(&0) as f64;
            assert!(
                (c - expected).abs() < 4.0 * expected.sqrt() + 10.0,
                "item {idx}: {c} vs {expected}"
            );
        }
    }

    #[test]
    fn weighted_reservoir_no_duplicates_and_correct_size() {
        let g = Monomial::quadratic();
        let mut s = WeightedReservoir::new(g, 0.0, 50, 11);
        for i in 0..10_000u64 {
            s.update(1.0 + i as f64 * 0.01, &i);
        }
        let sample = s.sample();
        assert_eq!(sample.len(), 50);
        let mut ids: Vec<u64> = sample.iter().map(|e| e.item).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 50, "duplicates in a without-replacement sample");
    }

    #[test]
    fn weighted_reservoir_biases_toward_recent() {
        let g = Exponential::new(0.01);
        let mut s = WeightedReservoir::new(g, 0.0, 200, 5);
        for i in 0..20_000u64 {
            s.update(i as f64 * 0.1, &i);
        }
        // With half-life ≈ 69 s over a 2000 s stream, nearly all samples
        // should land in the last quarter.
        let recent = s.sample().iter().filter(|e| e.item > 15_000).count();
        assert!(recent > 180, "only {recent}/200 samples recent");
    }

    #[test]
    fn weighted_reservoir_merge_matches_single_stream_distribution() {
        // k=1 check again, but sharded across two samplers then merged.
        let g = Monomial::new(1.0);
        let trials = 30_000;
        let mut heavy = 0u32;
        for seed in 0..trials {
            let mut a = WeightedReservoir::new(g, 0.0, 1, seed * 2 + 1);
            let mut b = WeightedReservoir::new(g, 0.0, 1, seed * 2 + 2);
            a.update(1.0, &1u64); // weight 1
            b.update(9.0, &9u64); // weight 9
            a.merge_from(&b);
            if a.sample()[0].item == 9 {
                heavy += 1;
            }
        }
        let frac = heavy as f64 / trials as f64;
        assert!((frac - 0.9).abs() < 0.02, "P(heavy) = {frac}, want 0.9");
    }

    #[test]
    fn exp_decay_sampler_arbitrary_timestamps() {
        // Corollary 1: arbitrary (non-integer, out-of-order) timestamps.
        let mut s = exp_decay_sample::<u64>(0.5, 0.0, 10, 42);
        let ts = [5.3, 1.1, 9.9, 2.2, 9.8, 0.4, 7.7, 9.95, 3.3, 8.8, 9.97, 6.1];
        for (i, &t) in ts.iter().enumerate() {
            s.update(t, &(i as u64));
        }
        assert_eq!(s.sample().len(), 10);
    }

    #[test]
    fn priority_sampler_estimator_is_unbiased() {
        // E[estimate of decayed count] should match the true decayed count.
        let g = Monomial::quadratic();
        let landmark = 0.0;
        let items: Vec<f64> = (1..=100).map(|i| i as f64 * 0.1).collect();
        let t_q = 10.0;
        let truth: f64 = items.iter().map(|&t| g.weight(landmark, t, t_q)).sum();
        let trials = 2000;
        let mut sum = 0.0;
        for seed in 0..trials {
            let mut s = PrioritySampler::new(g, landmark, 10, seed);
            for (i, &t) in items.iter().enumerate() {
                s.update(t, &(i as u64));
            }
            sum += s.estimate_decayed_count(t_q);
        }
        let mean = sum / trials as f64;
        assert!(
            (mean - truth).abs() / truth < 0.05,
            "estimator mean {mean} vs truth {truth}"
        );
    }

    #[test]
    fn priority_sampler_exact_below_k() {
        let g = NoDecay;
        let mut s = PrioritySampler::new(g, 0.0, 10, 1);
        for i in 0..5u64 {
            s.update(i as f64, &i);
        }
        assert_eq!(s.sample().len(), 5);
        assert!((s.estimate_decayed_count(10.0) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn priority_sampler_sample_size_is_k() {
        let g = Monomial::new(1.0);
        let mut s = PrioritySampler::new(g, 0.0, 25, 9);
        for i in 0..1000u64 {
            s.update(1.0 + i as f64, &i);
        }
        assert_eq!(s.sample().len(), 25);
    }

    #[test]
    fn priority_sampler_merge_preserves_estimator() {
        let g = Monomial::new(1.0);
        let landmark = 0.0;
        let t_q = 20.0;
        let items: Vec<f64> = (1..=200).map(|i| i as f64 * 0.1).collect();
        let truth: f64 = items.iter().map(|&t| g.weight(landmark, t, t_q)).sum();
        let trials = 2000;
        let mut sum = 0.0;
        for seed in 0..trials {
            let mut a = PrioritySampler::new(g, landmark, 10, seed * 2 + 1);
            let mut b = PrioritySampler::new(g, landmark, 10, seed * 2 + 2);
            for (i, &t) in items.iter().enumerate() {
                if i % 2 == 0 {
                    a.update(t, &(i as u64));
                } else {
                    b.update(t, &(i as u64));
                }
            }
            a.merge_from(&b);
            sum += a.estimate_decayed_count(t_q);
        }
        let mean = sum / trials as f64;
        assert!(
            (mean - truth).abs() / truth < 0.08,
            "merged estimator mean {mean} vs truth {truth}"
        );
    }

    #[test]
    fn biased_reservoir_prefers_recent() {
        let mut counts_old = 0u64;
        let mut counts_new = 0u64;
        for seed in 0..200 {
            let mut r = BiasedReservoir::new(0.01, seed);
            for i in 0..10_000u64 {
                r.update(i);
            }
            for &x in r.sample() {
                if x < 5_000 {
                    counts_old += 1;
                } else {
                    counts_new += 1;
                }
            }
        }
        assert!(
            counts_new > counts_old * 5,
            "bias too weak: old {counts_old}, new {counts_new}"
        );
    }

    #[test]
    fn biased_reservoir_capacity_tied_to_lambda() {
        let r = BiasedReservoir::<u64>::new(0.001, 1);
        assert_eq!(r.capacity(), 1000);
        let mut r2 = BiasedReservoir::new(0.1, 1);
        for i in 0..1000u64 {
            r2.update(i);
        }
        assert!(r2.sample().len() <= 10);
    }

    #[test]
    fn biased_reservoir_inclusion_decays_exponentially() {
        // Empirical check of the e^{-λa} shape: compare inclusion rates at
        // two ages; their ratio should be ≈ e^{λ·Δa}.
        let lambda = 0.02;
        let trials = 3000;
        let mut inc_recent = 0u32; // age ~50
        let mut inc_old = 0u32; // age ~150
        for seed in 0..trials {
            let mut r = BiasedReservoir::new(lambda, seed);
            for i in 0..1000u64 {
                r.update(i);
            }
            if r.sample().contains(&949) {
                inc_recent += 1;
            }
            if r.sample().contains(&849) {
                inc_old += 1;
            }
        }
        let ratio = inc_recent as f64 / inc_old.max(1) as f64;
        let expected = (lambda * 100.0).exp(); // ≈ 7.39
        assert!(
            (ratio / expected).ln().abs() < 0.5,
            "ratio {ratio}, expected ≈ {expected}"
        );
    }

    #[test]
    fn with_replacement_skip_draws_few_randoms() {
        // Uniform weights, n items: each chain replaces ~H_n ≈ ln n times,
        // so draws ≈ s·ln n ≪ s·n (the naive per-tuple coin).
        let g = NoDecay;
        let (s, n) = (10usize, 100_000u64);
        let mut sampler = WithReplacementSampler::new(g, 0.0, s, 5);
        for i in 0..n {
            sampler.update(i as f64, &i);
        }
        let budget = (s as f64) * (n as f64).ln() * 4.0;
        assert!(
            (sampler.random_draws() as f64) < budget,
            "skip thresholds drew {} randoms (budget {budget})",
            sampler.random_draws()
        );
    }

    #[test]
    fn jump_reservoir_k1_matches_weights() {
        // Same distribution check as the heap-based sampler: for k = 1,
        // P(i) = w_i / W.
        let g = Monomial::new(1.0); // weights = t_i
        let items = [1.0, 2.0, 3.0, 4.0];
        let w_total: f64 = items.iter().sum();
        let trials = 30_000;
        let mut counts: HashMap<u64, u32> = HashMap::new();
        for seed in 0..trials {
            let mut s = JumpWeightedReservoir::new(0.0, 1, seed);
            for (idx, &t) in items.iter().enumerate() {
                s.update(&g, t, &(idx as u64));
            }
            *counts.entry(*s.sample()[0].0).or_default() += 1;
        }
        for (idx, &t) in items.iter().enumerate() {
            let expected = trials as f64 * t / w_total;
            let c = *counts.get(&(idx as u64)).unwrap_or(&0) as f64;
            assert!(
                (c - expected).abs() < 4.0 * expected.sqrt() + 10.0,
                "item {idx}: {c} vs {expected}"
            );
        }
    }

    #[test]
    fn jump_reservoir_draws_far_fewer_randoms() {
        let g = NoDecay;
        let n = 200_000u64;
        let mut s = JumpWeightedReservoir::new(0.0, 100, 3);
        for i in 0..n {
            s.update(&g, i as f64, &i);
        }
        assert_eq!(s.sample().len(), 100);
        // Plain ES draws n randoms; jumps draw O(k log(n/k)).
        assert!(
            s.random_draws() < n / 50,
            "jumps drew {} randoms for {n} items",
            s.random_draws()
        );
    }

    #[test]
    fn jump_reservoir_matches_heap_sampler_distribution() {
        // Both samplers implement the same distribution; compare the
        // empirical inclusion rate of a heavy item.
        let g = Monomial::quadratic();
        let trials = 4_000;
        let (mut inc_jump, mut inc_heap) = (0u32, 0u32);
        for seed in 0..trials {
            let mut j = JumpWeightedReservoir::new(0.0, 5, seed);
            let mut h = WeightedReservoir::new(g, 0.0, 5, seed + 1_000_000);
            for i in 1..=50u64 {
                let t = i as f64;
                j.update(&g, t, &i);
                h.update(t, &i);
            }
            if j.sample().iter().any(|(&item, _)| item == 50) {
                inc_jump += 1;
            }
            if h.sample().iter().any(|e| e.item == 50) {
                inc_heap += 1;
            }
        }
        let (pj, ph) = (
            inc_jump as f64 / trials as f64,
            inc_heap as f64 / trials as f64,
        );
        assert!(
            (pj - ph).abs() < 0.05,
            "inclusion rates diverge: jump {pj}, heap {ph}"
        );
    }

    #[test]
    fn jump_reservoir_survives_exponential_decay() {
        let g = Exponential::new(1.0);
        let mut s = JumpWeightedReservoir::new(0.0, 20, 9);
        for i in 0..100_000u64 {
            s.update(&g, i as f64 * 0.1, &i);
        }
        let sample = s.sample();
        assert_eq!(sample.len(), 20);
        // Under e^{t} weights over 10 000 s, everything sampled is recent.
        assert!(sample.iter().all(|(_, t)| *t > 9_990.0));
    }

    #[test]
    fn priority_selection_estimator_is_unbiased() {
        // Estimate the decayed count of the EVEN items only.
        let g = Monomial::new(1.0);
        let landmark = 0.0;
        let items: Vec<f64> = (1..=100).map(|i| i as f64 * 0.1).collect();
        let t_q = 10.0;
        let truth: f64 = items
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == 0)
            .map(|(_, &t)| g.weight(landmark, t, t_q))
            .sum();
        let trials = 3_000;
        let mut sum = 0.0;
        for seed in 0..trials {
            let mut s = PrioritySampler::new(g, landmark, 15, seed);
            for (i, &t) in items.iter().enumerate() {
                s.update(t, &(i as u64));
            }
            sum += s.estimate_selection(t_q, |&i| i % 2 == 0);
        }
        let mean = sum / trials as f64;
        assert!(
            (mean - truth).abs() / truth < 0.06,
            "selection estimator mean {mean} vs truth {truth}"
        );
    }

    #[test]
    fn zero_weight_items_are_never_sampled() {
        // Monomial weight at the landmark is 0 — such items cannot appear.
        let g = Monomial::quadratic();
        let mut wr = WeightedReservoir::new(g, 0.0, 5, 2);
        let mut ps = PrioritySampler::new(g, 0.0, 5, 2);
        let mut sr = WithReplacementSampler::new(g, 0.0, 5, 2);
        wr.update(0.0, &0u64);
        ps.update(0.0, &0u64);
        sr.update(0.0, &0u64);
        for i in 1..=10u64 {
            wr.update(i as f64, &i);
            ps.update(i as f64, &i);
            sr.update(i as f64, &i);
        }
        assert!(wr.sample().iter().all(|e| e.item != 0));
        assert!(ps.sample().iter().all(|e| e.item != 0));
        assert!(sr.sample().iter().all(|&&i| i != 0));
    }
}
