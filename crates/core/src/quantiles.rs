//! Quantiles under forward decay (Section IV-C, Theorem 3).
//!
//! Definition 8: the decayed rank of value `v` is
//! `r_v = Σ_{v_i ≤ v} g(t_i − L) / g(t − L)`; the φ-quantile is the smallest
//! `v` with `r_v ≥ φ·C`. As with heavy hitters, factoring out `g(t − L)`
//! reduces this to a *weighted* quantile problem over static weights
//! `g(t_i − L)`, which the q-digest of Shrivastava et al. handles natively.
//!
//! This module provides:
//!
//! - [`QDigest`] — a weighted q-digest over an integer domain `[0, 2^bits)`:
//!   space `O((1/ε)·log U)` counters for rank error `ε·W` (Theorem 3);
//! - [`DecayedQuantiles`] — [`QDigest`] under the forward-decay clock
//!   ([`Decayed`]).

use std::borrow::Cow;

use crate::checkpoint::{require, CodecError, Decode, Encode, Reader};
use crate::decay::ForwardDecay;
use crate::decayed::{Decayed, Weighted};
use crate::merge::Mergeable;
use crate::summary::SummaryStats;
use crate::Timestamp;

// ---------------------------------------------------------------------------
// Weighted q-digest
// ---------------------------------------------------------------------------

/// One digest entry: a node id (1-based heap numbering) and its weight.
type Entry = (u64, f64);

/// A weighted q-digest over the integer domain `[0, 2^bits)`.
///
/// Nodes are the dyadic intervals of the domain, identified by 1-based heap
/// numbering (`1` = whole domain, children of `id` are `2·id`, `2·id + 1`,
/// leaves are `2^bits + v`). Each carries an `f64` weight. The digest
/// property is restored by [`Self::compress`], which runs automatically
/// every `capacity` updates.
///
/// For compression parameter `k` (see [`QDigest::new`]), any rank query is
/// answered within `W · bits / k` of the true weighted rank, using at most
/// `O(k)` live nodes. [`QDigest::with_epsilon`] picks `k = ⌈bits/ε⌉` so the
/// rank error is at most `ε·W` — the `O((1/ε) log U)` space of Theorem 3.
///
/// # Layout
///
/// One flat array. `entries[..sorted]` is the node run, strictly ascending
/// by id — which is level-major: every level is one contiguous run, siblings
/// are adjacent, the leaves are the tail. `entries[sorted..]` holds the leaf
/// arrivals since the last flush, in arrival order. An update is a push
/// (a small digest, which a search costs little, adds to its leaf at once);
/// a flush sorts the arrivals *stably* and adds them to their nodes one at
/// a time, so every node sees exactly the additions, in exactly the order,
/// it would have seen had each arrival been applied at once — when a flush
/// happens never shows in any weight. A checkpoint is the array as it
/// stands (nodes, then un-merged arrivals, under one length); restoring is
/// the same sort-and-fold from an empty node run, which also reads a blob
/// whose entries come in arbitrary order.
#[derive(Debug, Clone)]
pub struct QDigest {
    bits: u32,
    k: u64,
    entries: Vec<Entry>,
    sorted: usize,
    total: f64,
    pending: usize,
}

/// Most arrivals a digest buffers before folding them into its nodes.
const MAX_BUF: usize = 64;

/// Nodes below which a digest does not buffer: a binary search and a short
/// `insert` per update cost less there than a push, a sort and a co-walk per
/// batch, and a light digest carries no buffer slack.
const UNBUFFERED: usize = 64;

/// Arrivals a digest of `nodes` nodes buffers before a flush: none while it
/// is small, then a quarter of the node run, capped where a longer sort
/// stops paying.
fn buf_limit(nodes: usize) -> usize {
    if nodes < UNBUFFERED {
        0
    } else {
        (nodes / 4).min(MAX_BUF)
    }
}

/// Index of the first entry of `run[from..]` whose id is `≥ id`, probing
/// exponentially from `from`: a co-walk of two sorted lists costs the
/// logarithm of each gap, whichever list is the sparse one.
fn lower_bound_from(run: &[Entry], from: usize, id: u64) -> usize {
    let (mut lo, mut hi, mut step) = (from, from, 1);
    while hi < run.len() && run[hi].0 < id {
        lo = hi + 1;
        hi += step;
        step *= 2;
    }
    lo + run[lo..hi.min(run.len())].partition_point(|e| e.0 < id)
}

/// Sorts `tail` by id, entries of one id staying in order. A buffer's worth
/// of ids that leave the low bits free goes through packed
/// `id·MAX_BUF + position` keys: sorting machine words is about twice as
/// fast as sorting the entries, and the sort is a third of a flush.
fn sort_stably_by_id(tail: &mut [Entry]) {
    const POS_BITS: u32 = MAX_BUF.trailing_zeros();
    if tail.len() > MAX_BUF || tail.iter().any(|e| e.0 >> (64 - POS_BITS) != 0) {
        return tail.sort_by_key(|e| e.0);
    }
    let mut keys = [0u64; MAX_BUF];
    let mut arrived = [(0, 0.0); MAX_BUF];
    arrived[..tail.len()].copy_from_slice(tail);
    let keys = &mut keys[..tail.len()];
    for (i, (key, e)) in keys.iter_mut().zip(tail.iter()).enumerate() {
        *key = e.0 << POS_BITS | i as u64;
    }
    keys.sort_unstable();
    for (e, key) in tail.iter_mut().zip(keys.iter()) {
        *e = arrived[(key & (MAX_BUF as u64 - 1)) as usize];
    }
}

impl QDigest {
    /// Creates a q-digest for values in `[0, 2^bits)` with compression
    /// parameter `k` (maximum ≈ `3k` live nodes, rank error `W·bits/k`).
    ///
    /// # Panics
    /// Panics unless `1 ≤ bits ≤ 62` and `k ≥ 1`.
    pub fn new(bits: u32, k: u64) -> Self {
        assert!((1..=62).contains(&bits), "bits must be in 1..=62");
        assert!(k >= 1);
        Self {
            bits,
            k,
            entries: Vec::new(),
            sorted: 0,
            total: 0.0,
            pending: 0,
        }
    }

    /// Creates a q-digest with rank error at most `ε·W` for values in
    /// `[0, 2^bits)`.
    ///
    /// # Panics
    /// Panics unless `0 < ε ≤ 1`.
    pub fn with_epsilon(bits: u32, epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon <= 1.0);
        Self::new(bits, (bits as f64 / epsilon).ceil() as u64)
    }

    /// The domain size `2^bits`.
    pub fn domain(&self) -> u64 {
        1u64 << self.bits
    }

    /// The compression parameter `k` (live nodes stay below ≈ `3k`).
    pub fn compression(&self) -> u64 {
        self.k
    }

    /// Total ingested weight.
    pub fn total_weight(&self) -> f64 {
        self.total
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.nodes().len()
    }

    /// True if nothing has been ingested.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<Entry>() + std::mem::size_of::<Self>()
    }

    /// Adds `value` with positive weight `w`: a push (or, in a small digest,
    /// a search), plus a periodic flush and compress.
    pub fn update(&mut self, value: u64, w: f64) {
        assert!(value < self.domain(), "value {value} outside domain");
        debug_assert!(w >= 0.0 && w.is_finite());
        if w == 0.0 {
            return;
        }
        let leaf = self.domain() + value;
        let limit = buf_limit(self.sorted);
        if limit == 0 {
            // Unbuffered: the leaf takes the weight at once.
            debug_assert_eq!(self.entries.len(), self.sorted);
            let at = self.entries.partition_point(|e| e.0 < leaf);
            match self.entries.get_mut(at) {
                Some(node) if node.0 == leaf => node.1 += w,
                _ => {
                    self.entries.insert(at, (leaf, w));
                    self.sorted += 1;
                }
            }
        } else {
            self.entries.push((leaf, w));
            if self.entries.len() - self.sorted >= limit {
                self.flush();
            }
        }
        self.total += w;
        self.pending += 1;
        if self.pending as u64 >= self.k {
            self.compress();
        }
    }

    /// The node run with every buffered arrival folded in: borrowed when the
    /// buffer is empty, a flushed copy otherwise. For `&self` readers; every
    /// `&mut self` operation flushes in place first.
    fn nodes(&self) -> Cow<'_, [Entry]> {
        if self.entries.len() == self.sorted {
            Cow::Borrowed(&self.entries)
        } else {
            let mut flushed = self.clone();
            flushed.flush();
            Cow::Owned(flushed.entries)
        }
    }

    /// Folds the buffered arrivals into the node run.
    fn flush(&mut self) {
        if self.entries.len() > self.sorted {
            self.fold_tail();
        }
    }

    /// Sorts `entries[sorted..]` stably by id and folds it into the node
    /// run. A weight whose id has a node is added to it, one addition per
    /// entry in tail order; the entries of an id without one are summed in
    /// tail order into a new node, and the new nodes are spliced in from the
    /// back.
    fn fold_tail(&mut self) {
        let n = self.sorted;
        let (run, tail) = self.entries.split_at_mut(n);
        sort_stably_by_id(tail);
        // New nodes, ascending, each with its place in the run.
        let mut new: Vec<(usize, Entry)> = Vec::new();
        let mut at = 0;
        for &(id, w) in tail.iter() {
            at = lower_bound_from(run, at, id);
            if at < n && run[at].0 == id {
                run[at].1 += w;
            } else if let Some((_, node)) = new.last_mut().filter(|(_, node)| node.0 == id) {
                node.1 += w;
            } else {
                new.push((at, (id, w)));
            }
        }
        self.entries.truncate(n + new.len());
        self.sorted = n + new.len();
        // From the back, so that every node of the run moves once.
        let mut end = n;
        for (before, &(at, node)) in new.iter().enumerate().rev() {
            self.entries.copy_within(at..end, at + before + 1);
            self.entries[at + before] = node;
            end = at;
        }
    }

    /// Restores the digest property, pruning light nodes into their parents
    /// and dropping nodes of weight zero. Runs automatically; public for
    /// tests and benchmarks.
    ///
    /// One backward sweep over the node run — leaves first, each level's
    /// sibling pairs against the level above. A pair too light to deserve
    /// separate nodes is added to its parent in place, or, if the parent is
    /// absent, carried up as a new node: the carried nodes of a level come
    /// out in order, so the next level is the merge of two sorted lists.
    /// Survivors are written behind the read cursor, never past it (a merge
    /// removes at least as many nodes as it creates).
    pub fn compress(&mut self) {
        self.flush();
        self.pending = 0;
        let tau = self.total / self.k as f64;
        let nodes = &mut self.entries[..];
        // `nodes[..read]` is unread, `nodes[write..]` is output; `carry` and
        // `next` hold the new nodes of the current and the next level up,
        // both descending by id.
        let (mut read, mut write) = (nodes.len(), nodes.len());
        let (mut carry, mut next) = (Vec::<Entry>::new(), Vec::<Entry>::new());
        for level in (0..=self.bits).rev() {
            let first = 1u64 << level;
            // The level above ends where this one starts; `above` walks it
            // backward in step with the pairs.
            let mut above = nodes[..read].partition_point(|e| e.0 < first);
            let mut c = 0;
            let mut pop = |read: &mut usize, nodes: &[Entry]| -> Option<Entry> {
                let old = (*read > 0 && nodes[*read - 1].0 >= first).then(|| nodes[*read - 1]);
                match (old, carry.get(c).copied()) {
                    (Some(o), Some(n)) if n.0 > o.0 => {
                        c += 1;
                        Some(n)
                    }
                    (Some(o), _) => {
                        *read -= 1;
                        Some(o)
                    }
                    (None, Some(n)) => {
                        c += 1;
                        Some(n)
                    }
                    (None, None) => None,
                }
            };
            let mut held = pop(&mut read, nodes);
            while let Some(right) = held {
                // `right`'s sibling, if present, is the next id down.
                held = pop(&mut read, nodes);
                let left = match held {
                    Some(l) if right.0 & 1 == 1 && l.0 == right.0 - 1 => {
                        held = pop(&mut read, nodes);
                        Some(l)
                    }
                    _ => None,
                };
                let pair = right.1 + left.map_or(0.0, |l| l.1);
                let parent = right.0 >> 1;
                while above > 0 && nodes[above - 1].0 > parent {
                    above -= 1;
                }
                let parent_at = (above > 0 && nodes[above - 1].0 == parent).then(|| above - 1);
                let parent_w = parent_at.map_or(0.0, |p| nodes[p].1);
                if level > 0 && pair != 0.0 && pair + parent_w < tau {
                    match parent_at {
                        Some(p) => nodes[p].1 = parent_w + pair,
                        None => next.push((parent, pair)),
                    }
                } else {
                    for e in [Some(right), left].into_iter().flatten() {
                        if e.1 != 0.0 {
                            write -= 1;
                            nodes[write] = e;
                        }
                    }
                }
            }
            carry.clear();
            std::mem::swap(&mut carry, &mut next);
        }
        let live = nodes.len() - write;
        self.entries.copy_within(write.., 0);
        self.entries.truncate(live);
        self.sorted = live;
    }

    /// The (approximate) weighted rank of `value`: total weight of items
    /// `≤ value`. Within `ε·W` of the truth.
    pub fn rank(&self, value: u64) -> f64 {
        debug_assert!(value < self.domain());
        // A node [lo, hi] contributes fully if hi ≤ value, half-heartedly
        // (not at all, here) if it straddles. Counting straddlers as zero
        // keeps rank() a lower-ish estimate within the error bound.
        self.nodes()
            .iter()
            .filter(|&&(id, _)| self.range(id).1 <= value)
            .map(|&(_, w)| w)
            .sum()
    }

    /// The φ-quantile: the smallest value whose estimated rank reaches
    /// `φ·W`. `None` on an empty digest.
    pub fn quantile(&self, phi: f64) -> Option<u64> {
        self.quantiles(&[phi])[0]
    }

    /// The φ-quantile for every `φ` of `phis`, in their order, from one
    /// ordering of the nodes and one pass over it. All `None` on an empty
    /// digest.
    pub fn quantiles(&self, phis: &[f64]) -> Vec<Option<u64>> {
        let mut out = vec![None; phis.len()];
        if self.total <= 0.0 {
            return out;
        }
        // Visit nodes in increasing max-value order, smaller ranges first
        // (the classic q-digest query order). A node of weight zero answers
        // for nothing.
        let mut ordered: Vec<(u64, u64, f64)> = self
            .nodes()
            .iter()
            .filter(|e| e.1 != 0.0)
            .map(|&(id, w)| {
                let (lo, hi) = self.range(id);
                (hi, hi - lo, w)
            })
            .collect();
        ordered.sort_unstable_by_key(|&(hi, span, _)| (hi, span));
        // The running weight only grows, so ascending targets are met in
        // order.
        let mut by_target: Vec<(f64, usize)> = phis
            .iter()
            .enumerate()
            .map(|(i, phi)| (phi.clamp(0.0, 1.0) * self.total, i))
            .collect();
        by_target.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let mut waiting = by_target.iter().peekable();
        let mut acc = 0.0;
        for &(hi, _, w) in &ordered {
            acc += w;
            while let Some(&(_, i)) = waiting.next_if(|&&(target, _)| acc >= target) {
                out[i] = Some(hi);
            }
        }
        // Rounding: fall back to the maximum value present.
        let max = ordered.last().map(|&(hi, _, _)| hi);
        for &(_, i) in waiting {
            out[i] = max;
        }
        out
    }

    /// The `[lo, hi]` value range (inclusive) covered by node `id`.
    fn range(&self, id: u64) -> (u64, u64) {
        let level = 63 - id.leading_zeros(); // depth of the node; leaves at `bits`
        let span_bits = self.bits - level;
        let lo = (id - (1u64 << level)) << span_bits;
        (lo, lo + (1u64 << span_bits) - 1)
    }

    /// Multiplies all node weights and the total by `factor`
    /// ([`Weighted::scale`]); the nodes a factor of zero leaves answer no
    /// query and go at the next compress.
    pub fn scale_all(&mut self, factor: f64) {
        debug_assert!(factor >= 0.0 && !factor.is_nan());
        self.flush();
        for e in &mut self.entries {
            e.1 *= factor;
        }
        self.total *= factor;
    }
}

impl Mergeable for QDigest {
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(self.bits, other.bits, "domains must match");
        assert_eq!(self.k, other.k, "compression parameters must match");
        self.flush();
        let theirs = other.nodes();
        self.entries.reserve_exact(theirs.len());
        self.entries.extend(theirs.iter().filter(|e| e.1 != 0.0));
        self.fold_tail();
        self.total += other.total;
        self.compress();
    }
}

/// `bits`, `k`, the nodes, `total`, `pending` — the nodes being the node
/// run followed by the un-merged arrivals: writing neither sorts nor
/// copies.
impl Encode for QDigest {
    fn put(&self, out: &mut Vec<u8>) {
        self.bits.put(out);
        self.k.put(out);
        self.entries.put(out);
        self.total.put(out);
        self.pending.put(out);
    }
}

/// Nodes in any order, ids possibly repeated, each inside the domain.
impl Decode for QDigest {
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let (bits, k) = (u32::take(r)?, u64::take(r)?);
        let mut entries: Vec<Entry> = Vec::take(r)?;
        let (total, pending) = (f64::take(r)?, usize::take(r)?);
        require(
            (1..=62).contains(&bits) && k > 0 && (pending as u64) < k,
            "q-digest parameters out of range",
        )?;
        require(
            entries.iter().all(|e| e.0 != 0 && e.0 >> (bits + 1) == 0),
            "q-digest node id outside the domain",
        )?;
        entries.retain(|e| e.1 != 0.0);
        let mut q = QDigest {
            bits,
            k,
            entries,
            sorted: 0,
            total,
            pending,
        };
        q.fold_tail();
        Ok(q)
    }
}

// ---------------------------------------------------------------------------
// Forward-decayed wrapper
// ---------------------------------------------------------------------------

/// What [`DecayedQuantiles`] needs of the q-digest: weighted updates under
/// another name, and the total mass as the answer.
impl Weighted for QDigest {
    type Item = u64;
    type Output = f64;

    #[inline]
    fn add(&mut self, _t_i: Timestamp, value: u64, w: f64) {
        self.update(value, w);
    }

    fn scale(&mut self, factor: f64) {
        self.scale_all(factor);
    }

    fn over(&self, denom: f64) -> f64 {
        self.total / denom
    }

    fn stats(&self) -> SummaryStats {
        SummaryStats {
            occupancy: self.len() as u64,
            // The digest property caps live nodes at ≈ 3k.
            capacity: 3 * self.k,
            ..SummaryStats::default() // arrivals are not tracked by the q-digest
        }
    }

    fn check_invariants(&self, _landmark: Timestamp) -> Result<(), String> {
        let total = self.total;
        if total.is_nan() || total < 0.0 {
            return Err(format!("q-digest total weight invalid: {total}"));
        }
        let mut node_sum = 0.0;
        for &(id, w) in self.nodes().iter() {
            if w.is_nan() || w < 0.0 {
                return Err(format!("q-digest node {id} has invalid weight {w}"));
            }
            node_sum += w;
        }
        // Node weights must account for the total (same additions, possibly
        // reassociated by compression).
        if (node_sum - total).abs() > 1e-6 * total.max(1.0) {
            return Err(format!(
                "q-digest node mass {node_sum} disagrees with total {total}"
            ));
        }
        Ok(())
    }
}

/// Decayed φ-quantiles under forward decay (Definition 8 / Theorem 3): a
/// weighted [`QDigest`] under the [`Decayed`] clock. `update`,
/// `update_batch` and `decayed_count` are the clock's.
///
/// ```
/// use fd_core::quantiles::DecayedQuantiles;
/// use fd_core::decay::Monomial;
///
/// let mut q = DecayedQuantiles::new(Monomial::quadratic(), 0.0, 16, 0.01);
/// for i in 1..=1000u64 {
///     q.update(i as f64 * 0.01, i % 1000);
/// }
/// let median = q.quantile(0.5, 10.0).unwrap();
/// // Under quadratic decay recent (larger) values weigh more, so the
/// // decayed median sits above the plain median of ~500.
/// assert!(median > 550);
/// ```
pub type DecayedQuantiles<G> = Decayed<G, QDigest>;

impl<G: ForwardDecay> DecayedQuantiles<G> {
    /// Creates a decayed quantile summary for values in `[0, 2^bits)` with
    /// rank error `ε` relative to the decayed count.
    pub fn new(g: G, landmark: impl Into<Timestamp>, bits: u32, epsilon: f64) -> Self {
        Self::wrap(g, landmark, QDigest::with_epsilon(bits, epsilon))
    }

    /// The decayed φ-quantile at query time `t` (which only normalizes; the
    /// quantile itself is independent of `t` because the `g(t−L)` factor
    /// cancels between rank and count).
    pub fn quantile(&self, phi: f64, _t: impl Into<Timestamp>) -> Option<u64> {
        self.inner().quantile(phi)
    }

    /// The decayed φ-quantile for every `φ` of `phis`, in their order, from
    /// one pass over the digest ([`QDigest::quantiles`]).
    pub fn quantiles(&self, phis: &[f64], _t: impl Into<Timestamp>) -> Vec<Option<u64>> {
        self.inner().quantiles(phis)
    }

    /// The decayed rank of `value` at query time `t` (Definition 8).
    pub fn rank(&self, value: u64, t: impl Into<Timestamp>) -> f64 {
        self.denominator(t)
            .map_or(0.0, |denom| self.inner().rank(value) / denom)
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
    use crate::summary::Summary;

    /// Brute-force weighted rank for checking.
    fn exact_rank(items: &[(u64, f64)], v: u64) -> f64 {
        items.iter().filter(|(x, _)| *x <= v).map(|(_, w)| w).sum()
    }

    #[test]
    fn qdigest_node_ranges() {
        let q = QDigest::new(3, 8); // domain [0, 8)
        assert_eq!(q.range(1), (0, 7));
        assert_eq!(q.range(2), (0, 3));
        assert_eq!(q.range(3), (4, 7));
        assert_eq!(q.range(8), (0, 0)); // first leaf
        assert_eq!(q.range(15), (7, 7)); // last leaf
    }

    #[test]
    fn qdigest_exact_when_uncompressed() {
        let mut q = QDigest::new(8, 1_000_000);
        let items: Vec<(u64, f64)> = (0..100).map(|i| (i % 256, 1.0 + (i % 3) as f64)).collect();
        for &(v, w) in &items {
            q.update(v, w);
        }
        for v in [0u64, 50, 99, 255] {
            assert!((q.rank(v) - exact_rank(&items, v)).abs() < 1e-9);
        }
    }

    #[test]
    fn qdigest_rank_error_within_epsilon() {
        let eps = 0.05;
        let mut q = QDigest::with_epsilon(16, eps);
        let mut items = Vec::new();
        // Deterministic messy mixture over a 16-bit domain.
        for i in 0..20_000u64 {
            let v = (i.wrapping_mul(2654435761) >> 16) & 0xFFFF;
            let w = 1.0 + (i % 7) as f64;
            q.update(v, w);
            items.push((v, w));
        }
        let w_total: f64 = items.iter().map(|(_, w)| w).sum();
        assert!((q.total_weight() - w_total).abs() < 1e-6 * w_total);
        for v in (0..0xFFFFu64).step_by(4111) {
            let err = (q.rank(v) - exact_rank(&items, v)).abs();
            assert!(
                err <= eps * w_total + 1e-6,
                "rank({v}) error {err} > {}",
                eps * w_total
            );
        }
        // Space bound: O((1/ε) log U) nodes.
        assert!(
            q.len() as f64 <= 4.0 * 16.0 / eps,
            "too many nodes: {}",
            q.len()
        );
    }

    #[test]
    fn qdigest_quantiles_within_epsilon() {
        let eps = 0.02;
        let mut q = QDigest::with_epsilon(12, eps);
        let mut items = Vec::new();
        for i in 0..50_000u64 {
            let v = (i.wrapping_mul(40503) ^ (i >> 3)) & 0xFFF;
            q.update(v, 1.0);
            items.push((v, 1.0));
        }
        let w_total = items.len() as f64;
        for &phi in &[0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let est = q.quantile(phi).unwrap();
            let r = exact_rank(&items, est);
            assert!(
                r >= (phi - 2.0 * eps) * w_total && r - 1.0 <= (phi + 2.0 * eps) * w_total,
                "phi = {phi}: rank {r} of estimate {est} outside window"
            );
        }
    }

    #[test]
    fn qdigest_merge_matches_concat() {
        let eps = 0.05;
        let mut a = QDigest::with_epsilon(10, eps);
        let mut b = QDigest::with_epsilon(10, eps);
        let mut whole = QDigest::with_epsilon(10, eps);
        let mut items = Vec::new();
        for i in 0..10_000u64 {
            let v = (i * 37) % 1024;
            let w = 1.0;
            whole.update(v, w);
            if i % 2 == 0 {
                a.update(v, w)
            } else {
                b.update(v, w)
            }
            items.push((v, w));
        }
        a.merge_from(&b);
        let w_total = items.len() as f64;
        for v in (0..1024u64).step_by(101) {
            let exact = exact_rank(&items, v);
            assert!((a.rank(v) - exact).abs() <= 2.0 * eps * w_total);
        }
        assert!((a.total_weight() - whole.total_weight()).abs() < 1e-6);
    }

    #[test]
    fn decayed_quantiles_follow_recency() {
        // Early values small, late values large; decay should pull the
        // median toward the late (large) values.
        let g = Exponential::new(0.1);
        let mut q = DecayedQuantiles::new(g, 0.0, 10, 0.01);
        for i in 0..500 {
            q.update(i as f64 * 0.1, 100); // early: value 100
        }
        for i in 500..600 {
            q.update(i as f64 * 0.1, 900); // late: value 900
        }
        let med = q.quantile(0.5, 60.0).unwrap();
        assert_eq!(med, 900);
        // Without decay the median would be 100 (500 vs 100 occurrences).
        let mut undecayed = DecayedQuantiles::new(NoDecay, 0.0, 10, 0.01);
        for i in 0..500 {
            undecayed.update(i as f64 * 0.1, 100);
        }
        for i in 500..600 {
            undecayed.update(i as f64 * 0.1, 900);
        }
        assert_eq!(undecayed.quantile(0.5, 60.0), Some(100));
    }

    #[test]
    fn decayed_quantiles_match_brute_force() {
        let g = Monomial::quadratic();
        let landmark = 0.0;
        let eps = 0.02;
        let mut q = DecayedQuantiles::new(g, landmark, 10, eps);
        let mut items = Vec::new();
        for i in 0..10_000u64 {
            let t = 1.0 + i as f64 * 0.01;
            let v = (i.wrapping_mul(48271)) % 1024;
            q.update(t, v);
            items.push((t, v));
        }
        let t_q = 102.0;
        let weights: Vec<f64> = items
            .iter()
            .map(|&(t, _)| g.weight(landmark, t, t_q))
            .collect();
        let w_total: f64 = weights.iter().sum();
        for &phi in &[0.25, 0.5, 0.75] {
            let est = q.quantile(phi, t_q).unwrap();
            let exact_r: f64 = items
                .iter()
                .zip(&weights)
                .filter(|((_, v), _)| *v <= est)
                .map(|(_, w)| w)
                .sum();
            let frac = exact_r / w_total;
            assert!(
                (frac - phi).abs() <= 3.0 * eps,
                "phi = {phi}: estimate {est} has decayed rank fraction {frac}"
            );
        }
    }

    #[test]
    fn decayed_quantiles_survive_exponential_overflow() {
        let g = Exponential::new(1.0);
        let mut q = DecayedQuantiles::new(g, 0.0, 8, 0.05);
        for i in 0..5_000u64 {
            q.update(i as f64, i % 256);
        }
        let med = q.quantile(0.5, 5_000.0);
        assert!(med.is_some());
        assert!(q.decayed_count(5_000.0).is_finite());
    }

    #[test]
    fn decayed_quantiles_merge() {
        let g = Monomial::quadratic();
        let mut whole = DecayedQuantiles::new(g, 0.0, 10, 0.02);
        let mut left = DecayedQuantiles::new(g, 0.0, 10, 0.02);
        let mut right = DecayedQuantiles::new(g, 0.0, 10, 0.02);
        for i in 0..4_000u64 {
            let t = 1.0 + i as f64 * 0.01;
            let v = (i * 7) % 1024;
            whole.update(t, v);
            if i % 2 == 0 {
                left.update(t, v)
            } else {
                right.update(t, v)
            }
        }
        left.merge_from(&right);
        for &phi in &[0.25, 0.5, 0.75] {
            let a = whole.quantile(phi, 50.0).unwrap() as f64;
            let b = left.quantile(phi, 50.0).unwrap() as f64;
            assert!((a - b).abs() <= 0.1 * 1024.0, "phi = {phi}: {a} vs {b}");
        }
    }

    #[test]
    fn empty_summaries() {
        assert_eq!(QDigest::new(8, 10).quantile(0.5), None);
        let d = DecayedQuantiles::new(NoDecay, 0.0, 8, 0.1);
        assert_eq!(d.quantile(0.5, 10.0), None);
        assert_eq!(d.decayed_count(10.0), 0.0);
    }

    // ----- the flat digest against its reference model --------------------

    /// The q-digest as a map from node id to weight, one probe per access:
    /// what the flat layout must equal node for node and bit for bit. Its
    /// additions are the specification — `update` adds to the leaf at once,
    /// `compress` tests `(own + sibling) + parent < W/k` and adds
    /// `own + sibling` to the parent, `merge_from` adds node to node.
    #[derive(Clone)]
    struct MapDigest {
        bits: u32,
        k: u64,
        nodes: std::collections::HashMap<u64, f64>,
        total: f64,
        pending: u64,
    }

    impl MapDigest {
        fn new(bits: u32, k: u64) -> Self {
            let nodes = std::collections::HashMap::new();
            Self {
                bits,
                k,
                nodes,
                total: 0.0,
                pending: 0,
            }
        }
        fn update(&mut self, value: u64, w: f64) {
            if w == 0.0 {
                return;
            }
            *self.nodes.entry((1 << self.bits) + value).or_insert(0.0) += w;
            self.total += w;
            self.pending += 1;
            if self.pending >= self.k {
                self.compress();
            }
        }
        fn compress(&mut self) {
            self.pending = 0;
            let tau = self.total / self.k as f64;
            let get =
                |nodes: &std::collections::HashMap<u64, f64>, id| *nodes.get(&id).unwrap_or(&0.0);
            for level in (1..=self.bits).rev() {
                let at_level = |id: &u64| 63 - id.leading_zeros() == level;
                let ids: Vec<u64> = self.nodes.keys().copied().filter(at_level).collect();
                for id in ids {
                    let own = get(&self.nodes, id);
                    let sib = get(&self.nodes, id ^ 1);
                    if own != 0.0 && own + sib + get(&self.nodes, id >> 1) < tau {
                        *self.nodes.entry(id >> 1).or_insert(0.0) += own + sib;
                        self.nodes.remove(&id);
                        self.nodes.remove(&(id ^ 1));
                    }
                }
            }
            self.nodes.retain(|_, w| *w != 0.0);
        }
        fn scale_all(&mut self, factor: f64) {
            self.nodes.values_mut().for_each(|w| *w *= factor);
            self.total *= factor;
        }
        fn merge_from(&mut self, other: &Self) {
            for (&id, &w) in &other.nodes {
                *self.nodes.entry(id).or_insert(0.0) += w;
            }
            self.total += other.total;
            self.compress();
        }
        /// `(id, weight bits)` ascending, weight-zero nodes left out (the
        /// two layouts drop them at different moments).
        fn live(&self) -> Vec<(u64, u64)> {
            let mut v: Vec<_> = self.nodes.iter().map(|(&id, &w)| (id, w)).collect();
            v.sort_unstable_by_key(|e| e.0);
            live(&v)
        }
    }

    fn live(nodes: &[Entry]) -> Vec<(u64, u64)> {
        let nonzero = nodes.iter().filter(|e| e.1 != 0.0);
        nonzero.map(|&(id, w)| (id, w.to_bits())).collect()
    }

    #[track_caller]
    fn assert_same(flat: &QDigest, model: &MapDigest, what: &str) {
        assert_eq!(live(&flat.nodes()), model.live(), "{what}: nodes");
        assert_eq!(flat.total.to_bits(), model.total.to_bits(), "{what}: total");
        assert_eq!(flat.pending as u64, model.pending, "{what}: pending");
        let run = &flat.entries[..flat.sorted];
        assert!(
            run.windows(2).all(|p| p[0].0 < p[1].0),
            "{what}: node run not ascending"
        );
    }

    /// `(value, weight)` from the oracle's hostile generator: weights span
    /// `0` (a skipped update) to `1e6`, a handful of values are heavy.
    fn adversarial_items(seed: u64, bits: u32, n: usize) -> Vec<(u64, f64)> {
        let cfg = crate::oracle::StreamConfig {
            n,
            key_domain: 1 << bits,
            ..Default::default()
        };
        let events = crate::oracle::adversarial_stream(seed, &cfg);
        events.iter().map(|e| (e.key, e.v.abs())).collect()
    }

    /// `(bits, k)`; ids of the last one are too wide for packed sort keys.
    const SHAPES: [(u32, u64); 5] = [(3, 2), (6, 8), (11, 40), (16, 200), (60, 64)];

    #[test]
    fn flat_digest_equals_the_map_model_bit_for_bit() {
        for seed in crate::oracle::harness_seeds(&[1, 2, 3, 5, 8, 13]) {
            for (bits, k) in SHAPES {
                let what = format!("seed {seed}, bits {bits}, k {k}");
                let items = adversarial_items(seed, bits, 3_000);
                let (mut flat, mut model) = (QDigest::new(bits, k), MapDigest::new(bits, k));
                // A second pair takes every third item and is merged in
                // (with arrivals still buffered) every 700.
                let (mut side, mut side_model) = (flat.clone(), model.clone());
                for (i, &(v, w)) in items.iter().enumerate() {
                    if i % 3 == 2 {
                        side.update(v, w);
                        side_model.update(v, w);
                    } else {
                        flat.update(v, w);
                        model.update(v, w);
                    }
                    match i % 700 {
                        // A renormalization; the third one underflows the
                        // light nodes to zero and the fourth everything.
                        150 => {
                            let factor = [0.5, 1e-3, 1e-300, 0.0][(i / 700) % 4];
                            flat.scale_all(factor);
                            model.scale_all(factor);
                        }
                        // A mid-stream checkpoint and restore.
                        350 => {
                            let bytes = crate::checkpoint::to_bytes(&flat);
                            flat = crate::checkpoint::from_bytes(&bytes).unwrap();
                        }
                        699 => {
                            flat.merge_from(&side);
                            model.merge_from(&side_model);
                            assert_same(&side, &side_model, &what);
                        }
                        _ => {}
                    }
                    if i % 97 == 0 {
                        assert_same(&flat, &model, &format!("{what}, item {i}"));
                    }
                }
                flat.compress();
                model.compress();
                assert_same(&flat, &model, &what);
                assert_eq!(flat.len(), model.nodes.len(), "{what}");
            }
        }
    }

    #[test]
    fn a_flush_after_any_subset_of_updates_changes_nothing() {
        use rand::{Rng, SeedableRng};
        for case in 0..64u64 {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(0x51ed_270b ^ case);
            let (bits, k) = SHAPES[rng.gen_range(0..SHAPES.len())];
            let items = adversarial_items(case, bits, rng.gen_range(1..1_500));
            let density = rng.gen_range(0.0..1.0);
            let (mut plain, mut forced) = (QDigest::new(bits, k), QDigest::new(bits, k));
            for &(v, w) in &items {
                plain.update(v, w);
                forced.update(v, w);
                if rng.gen_bool(density) {
                    forced.flush();
                }
                assert_eq!(plain.quantile(0.5), forced.quantile(0.5));
            }
            assert_eq!(live(&plain.nodes()), live(&forced.nodes()), "case {case}");
            assert_eq!(plain.total.to_bits(), forced.total.to_bits());
            assert_eq!(plain.pending, forced.pending);
        }
    }

    #[test]
    fn restore_reads_entries_in_any_order() {
        // A blob from before the flat layout lists each node once, in hash
        // order; reversing a flushed digest's entries stands in for one.
        let mut q = QDigest::new(11, 40);
        for (v, w) in adversarial_items(4, 11, 2_000) {
            q.update(v, w);
        }
        q.flush();
        let mut shuffled = q.clone();
        shuffled.entries.reverse();
        let bytes = crate::checkpoint::to_bytes(&shuffled);
        let restored: QDigest = crate::checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(live(&restored.nodes()), live(&q.nodes()));
        assert_eq!(restored.sorted, restored.entries.len());
        // Ids outside the tree are refused, not indexed with.
        for bad in [0u64, 1 << 12] {
            let mut broken = q.clone();
            broken.entries[0].0 = bad;
            let bytes = crate::checkpoint::to_bytes(&broken);
            assert!(crate::checkpoint::from_bytes::<QDigest>(&bytes).is_err());
        }
    }

    // ----- weight-zero nodes -----------------------------------------------

    #[test]
    fn zero_weight_nodes_are_dropped_and_answer_nothing() {
        let mut q = QDigest::new(8, 16);
        for v in 0..200 {
            q.update(v, 1.0);
        }
        q.scale_all(0.0);
        // Zeroed but not yet compressed away: still no answer.
        assert_eq!(q.quantile(0.0), None);
        q.compress();
        assert_eq!(q.len(), 0);
        for _ in 0..1_000 {
            q.update(250, 1.0);
        }
        // The minimum present is 250; no node below it carries weight.
        assert_eq!(q.quantile(0.0), Some(250));
        assert_eq!(q.quantile(1.0), Some(250));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn decayed_quantiles_forget_what_a_landmark_shift_zeroes() {
        // α = 1 and a 2 000 s gap: the shift factor e^{-2000} rounds to
        // exactly 0.0, on the merge path and on the renormalizing update.
        let g = Exponential::new(1.0);
        let mut old = DecayedQuantiles::new(g, 0.0, 8, 0.5);
        for v in 0..200 {
            old.update(1.0, v);
        }
        let mut ahead = DecayedQuantiles::new(g, 0.0, 8, 0.5);
        for _ in 0..1_000 {
            ahead.update(2_000.0, 250);
        }
        let mut merged = ahead.clone();
        merged.merge_from(&old);
        for _ in 0..1_000 {
            old.update(2_000.0, 250);
        }
        for q in [&merged, &old] {
            assert_eq!(q.quantile(0.0, 2_000.0), Some(250));
            assert_eq!(q.inner().len(), 1);
            q.check_invariants().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn qdigest_rejects_out_of_domain() {
        let mut q = QDigest::new(4, 10);
        q.update(16, 1.0);
    }
}
