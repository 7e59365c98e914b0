//! Heavy hitters under forward decay (Section IV-C, Theorem 2).
//!
//! Definition 7: the decayed count of value `v` is
//! `d_v = Σ_{v_i = v} g(t_i − L) / g(t − L)`; the φ-heavy-hitters are the
//! values with `d_v ≥ φ·C` where `C` is the total decayed count. Factoring
//! out `g(t − L)` reduces the problem to *weighted* heavy hitters over the
//! static per-item weights `g(t_i − L)`, solved by the SpaceSaving algorithm
//! of Metwally et al. extended to weighted updates: `O(1/ε)` counters and
//! `O(log 1/ε)` time per update.
//!
//! Three structures live here:
//!
//! - [`WeightedSpaceSaving`] — SpaceSaving over arbitrary `f64`-weighted
//!   updates (counter array + indexed min-heap);
//! - [`UnarySpaceSaving`] — the classic Stream-Summary structure with O(1)
//!   unary updates, the "Unary HH" baseline in the paper's Figure 5;
//! - [`DecayedHeavyHitters`] — [`WeightedSpaceSaving`] under the
//!   forward-decay clock ([`Decayed`]), which feeds it `g(t_i − L)` weights
//!   and renormalizes the landmark when exponential weights grow large
//!   (Section VI-A).

use std::collections::HashMap;

use crate::checkpoint::{require, CodecError, Decode, Encode, Reader, MAX_COUNT};
use crate::codec_struct;
use crate::decay::ForwardDecay;
use crate::decayed::{Decayed, Weighted};
use crate::merge::Mergeable;
use crate::summary::SummaryStats;
use crate::Timestamp;

/// One monitored counter: an item, its estimated (over-)count, and the
/// maximum possible overestimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HhCounter {
    /// The monitored item.
    pub item: u64,
    /// Estimated weight of the item; never underestimates the truth, and
    /// overestimates by at most `error`.
    pub count: f64,
    /// Upper bound on the overestimation of `count`.
    pub error: f64,
}

codec_struct!(HhCounter {
    item: u64,
    count: f64,
    error: f64
});

/// A reported heavy hitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeavyHitter {
    /// The item.
    pub item: u64,
    /// Estimated (decayed, if queried through [`DecayedHeavyHitters`])
    /// count.
    pub count: f64,
    /// True if the item is *guaranteed* to pass the threshold
    /// (`count − error ≥ φ·C`), not merely possible.
    pub guaranteed: bool,
}

// ---------------------------------------------------------------------------
// Weighted SpaceSaving
// ---------------------------------------------------------------------------

/// SpaceSaving for weighted updates (Theorem 2 of the paper).
///
/// Monitors at most `⌈1/ε⌉` items. For a total ingested weight `W`, every
/// item's weight is estimated within `εW`, all items of weight `≥ φW` are
/// reported by [`Self::heavy_hitters`] for `φ ≥ ε`, and no item of weight
/// `< (φ − ε)W` is reported.
///
/// ```
/// use fd_core::heavy_hitters::WeightedSpaceSaving;
///
/// let mut ss = WeightedSpaceSaving::with_epsilon(0.01);
/// for i in 0..10_000u64 {
///     ss.update(i % 10, 1.0); // ten items, equal weight
/// }
/// let hh = ss.heavy_hitters(0.05);
/// assert_eq!(hh.len(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct WeightedSpaceSaving {
    capacity: usize,
    counters: Vec<HhCounter>,
    /// Min-heap of counter indices keyed by `counters[i].count`.
    heap: Vec<usize>,
    /// `heap_pos[i]` = position of counter `i` inside `heap`.
    heap_pos: Vec<usize>,
    /// item → counter index.
    index: HashMap<u64, usize>,
    total: f64,
}

impl WeightedSpaceSaving {
    /// Creates a summary with `capacity` counters (error bound
    /// `ε = 1/capacity`).
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            capacity,
            counters: Vec::with_capacity(capacity),
            heap: Vec::with_capacity(capacity),
            heap_pos: Vec::with_capacity(capacity),
            index: HashMap::with_capacity(capacity * 2),
            total: 0.0,
        }
    }

    /// Creates a summary with error bound `ε` (i.e. `⌈1/ε⌉` counters).
    ///
    /// # Panics
    /// Panics unless `0 < ε ≤ 1`.
    pub fn with_epsilon(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon <= 1.0, "ε must be in (0, 1]");
        Self::new((1.0 / epsilon).ceil() as usize)
    }

    /// The number of counters this summary may hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The total weight ingested so far.
    pub fn total_weight(&self) -> f64 {
        self.total
    }

    /// Number of currently monitored items.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// True if nothing has been ingested.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Approximate memory footprint in bytes (used by the space figures).
    pub fn size_bytes(&self) -> usize {
        self.counters.capacity() * std::mem::size_of::<HhCounter>()
            + self.heap.capacity() * std::mem::size_of::<usize>() * 2
            + self.index.capacity()
                * (std::mem::size_of::<u64>() + std::mem::size_of::<usize>() + 8)
            + std::mem::size_of::<Self>()
    }

    /// Ingests `item` with positive weight `w`. `O(log capacity)`.
    pub fn update(&mut self, item: u64, w: f64) {
        debug_assert!(w >= 0.0 && w.is_finite(), "weight must be non-negative");
        if w == 0.0 {
            return;
        }
        self.total += w;
        if let Some(&ci) = self.index.get(&item) {
            self.counters[ci].count += w;
            self.sift_down(self.heap_pos[ci]);
        } else if self.counters.len() < self.capacity {
            let ci = self.counters.len();
            self.counters.push(HhCounter {
                item,
                count: w,
                error: 0.0,
            });
            self.heap.push(ci);
            self.heap_pos.push(self.heap.len() - 1);
            self.index.insert(item, ci);
            self.sift_up(self.heap.len() - 1);
        } else {
            // Evict the minimum counter: the newcomer inherits its count as
            // error and adds its own weight.
            let ci = self.heap[0];
            let old = self.counters[ci];
            self.index.remove(&old.item);
            self.index.insert(item, ci);
            self.counters[ci] = HhCounter {
                item,
                count: old.count + w,
                error: old.count,
            };
            self.sift_down(0);
        }
    }

    /// Estimated weight of `item` and its error bound: the true weight lies
    /// in `[count − error, count]`. Unmonitored items have true weight at
    /// most the minimum monitored count.
    pub fn estimate(&self, item: u64) -> Option<HhCounter> {
        self.index.get(&item).map(|&ci| self.counters[ci])
    }

    /// The smallest monitored count — an upper bound on the weight of any
    /// unmonitored item. Zero when empty.
    pub fn min_count(&self) -> f64 {
        if self.counters.len() < self.capacity {
            0.0
        } else {
            self.heap.first().map_or(0.0, |&ci| self.counters[ci].count)
        }
    }

    /// All items with estimated weight `≥ φ · W`, heaviest first.
    /// With `φ ≥ ε` this includes every true φ-heavy-hitter and nothing
    /// below `(φ − ε)W`.
    pub fn heavy_hitters(&self, phi: f64) -> Vec<HeavyHitter> {
        let threshold = phi * self.total;
        let mut out: Vec<HeavyHitter> = self
            .counters
            .iter()
            .filter(|c| c.count >= threshold)
            .map(|c| HeavyHitter {
                item: c.item,
                count: c.count,
                guaranteed: c.count - c.error >= threshold,
            })
            .collect();
        out.sort_by(|a, b| b.count.total_cmp(&a.count));
        out
    }

    /// [`heavy_hitters`](Self::heavy_hitters) with every count divided by
    /// a clock's denominator `g(t − L)`: the decayed φ-heavy-hitters, none
    /// where the denominator is undefined.
    pub fn heavy_hitters_over(&self, phi: f64, denom: Option<f64>) -> Vec<HeavyHitter> {
        let Some(denom) = denom else {
            return Vec::new();
        };
        let mut out = self.heavy_hitters(phi);
        for h in &mut out {
            h.count /= denom;
        }
        out
    }

    /// The monitored counters, in arbitrary order.
    pub fn counters(&self) -> &[HhCounter] {
        &self.counters
    }

    /// Multiplies every stored count, error and the running total by
    /// `factor` ([`Weighted::scale`]: zero is legal, NaN and negative
    /// factors remain bugs).
    pub fn scale_all(&mut self, factor: f64) {
        debug_assert!(factor >= 0.0 && !factor.is_nan());
        for c in &mut self.counters {
            c.count *= factor;
            c.error *= factor;
        }
        self.total *= factor;
        // Order is preserved (factor ≥ 0): the heap stays valid.
    }

    // --- indexed binary min-heap ------------------------------------------

    fn less(&self, a: usize, b: usize) -> bool {
        self.counters[self.heap[a]].count < self.counters[self.heap[b]].count
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.heap_pos[self.heap[a]] = a;
        self.heap_pos[self.heap[b]] = b;
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.less(i, parent) {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            if l < self.heap.len() && self.less(l, smallest) {
                smallest = l;
            }
            if r < self.heap.len() && self.less(r, smallest) {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.swap(i, smallest);
            i = smallest;
        }
    }

    #[cfg(test)]
    fn check_heap_invariant(&self) {
        for i in 1..self.heap.len() {
            assert!(!self.less(i, (i - 1) / 2), "heap violated at {i}");
        }
        for (ci, &hp) in self.heap_pos.iter().enumerate() {
            assert_eq!(self.heap[hp], ci);
        }
    }
}

/// `capacity`, the counters, `heap`, `heap_pos`, `index`, `total` — the
/// index written in counter order: it is the inverse of `counters`, so the
/// bytes are canonical without a sort.
impl Encode for WeightedSpaceSaving {
    fn put(&self, out: &mut Vec<u8>) {
        self.capacity.put(out);
        self.counters.put(out);
        self.heap.put(out);
        self.heap_pos.put(out);
        self.counters.len().put(out);
        (self.counters.iter().enumerate()).for_each(|(ci, c)| (c.item, ci).put(out));
        self.total.put(out);
    }
}

/// Refuses a state the next update would index out of bounds with: a
/// heap that is not a permutation of the counters with `heap_pos` its
/// inverse, or an index that is not exactly item → counter.
impl Decode for WeightedSpaceSaving {
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let s = Self {
            capacity: usize::take(r)?,
            counters: Vec::take(r)?,
            heap: Vec::take(r)?,
            heap_pos: Vec::take(r)?,
            index: HashMap::take(r)?,
            total: f64::take(r)?,
        };
        let n = s.counters.len();
        require(
            s.capacity > 0 && n <= s.capacity,
            "SpaceSaving occupancy outside its capacity",
        )?;
        // `heap_pos[heap[p]] == p` for every position makes `heap`
        // injective, so a permutation, and `heap_pos` its inverse.
        let inverse = s.heap.len() == n
            && s.heap_pos.len() == n
            && (s.heap.iter().enumerate()).all(|(p, &ci)| s.heap_pos.get(ci) == Some(&p));
        let indexed = s.index.len() == n
            && (s.counters.iter().enumerate()).all(|(ci, c)| s.index.get(&c.item) == Some(&ci));
        require(
            inverse && indexed,
            "SpaceSaving heap or index does not fit its counters",
        )?;
        Ok(s)
    }
}

impl Mergeable for WeightedSpaceSaving {
    /// Merges in the style of Agarwal et al., *Mergeable Summaries*: sum the
    /// estimates for the union of monitored items (an item absent from one
    /// summary contributes that summary's minimum count as additional
    /// error), keep the heaviest `capacity`. The merged error stays within
    /// `ε(W₁ + W₂)`.
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(self.capacity, other.capacity, "capacities must match");
        let min_self = self.min_count();
        let min_other = other.min_count();
        let mut merged: HashMap<u64, HhCounter> = HashMap::with_capacity(self.len() + other.len());
        for c in &self.counters {
            merged.insert(c.item, *c);
        }
        for c in &other.counters {
            merged
                .entry(c.item)
                .and_modify(|m| {
                    m.count += c.count;
                    m.error += c.error;
                })
                .or_insert(HhCounter {
                    item: c.item,
                    // The item may have occurred in `self` with weight up to
                    // min_self without being monitored.
                    count: c.count + min_self,
                    error: c.error + min_self,
                });
        }
        for m in merged.values_mut() {
            if self.index.contains_key(&m.item) && !other.index.contains_key(&m.item) {
                m.count += min_other;
                m.error += min_other;
            }
        }
        let mut all: Vec<HhCounter> = merged.into_values().collect();
        all.sort_by(|a, b| b.count.total_cmp(&a.count));
        all.truncate(self.capacity);

        let total = self.total + other.total;
        *self = Self::new(self.capacity);
        self.total = total;
        for (ci, c) in all.into_iter().enumerate() {
            self.counters.push(c);
            self.heap.push(ci);
            self.heap_pos.push(ci);
            self.index.insert(c.item, ci);
            self.sift_up(self.heap.len() - 1);
        }
    }
}

// ---------------------------------------------------------------------------
// Unary SpaceSaving (Stream-Summary)
// ---------------------------------------------------------------------------

const NIL: usize = usize::MAX;

#[derive(Debug, Clone, Copy)]
struct SsNode {
    item: u64,
    error: u64,
    bucket: usize,
    prev: usize,
    next: usize,
}

codec_struct!(SsNode {
    item: u64,
    error: u64,
    bucket: usize,
    prev: usize,
    next: usize
});

#[derive(Debug, Clone, Copy)]
struct SsBucket {
    count: u64,
    head: usize, // first node in this bucket
    prev: usize, // bucket with next-smaller count
    next: usize, // bucket with next-larger count
}

codec_struct!(SsBucket {
    count: u64,
    head: usize,
    prev: usize,
    next: usize
});

/// The Stream-Summary data structure of Metwally et al.: SpaceSaving
/// specialized to unary (`+1`) integer updates with **O(1)** worst-case time
/// per update — the "Unary HH" baseline of the paper's experiments.
///
/// Nodes with equal counts share a bucket; buckets form a doubly linked list
/// in increasing count order, so both "find the minimum" and "move a node to
/// count + 1" are constant time.
#[derive(Debug, Clone)]
pub struct UnarySpaceSaving {
    capacity: usize,
    nodes: Vec<SsNode>,
    buckets: Vec<SsBucket>,
    free_buckets: Vec<usize>,
    /// Bucket with the smallest count (NIL when empty).
    min_bucket: usize,
    index: HashMap<u64, usize>,
    total: u64,
}

impl UnarySpaceSaving {
    /// Creates a summary with `capacity` counters (error bound
    /// `ε = 1/capacity`).
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self {
            capacity,
            nodes: Vec::with_capacity(capacity),
            buckets: Vec::with_capacity(capacity + 1),
            free_buckets: Vec::new(),
            min_bucket: NIL,
            index: HashMap::with_capacity(capacity * 2),
            total: 0,
        }
    }

    /// Creates a summary with error bound `ε`.
    ///
    /// # Panics
    /// Panics unless `0 < ε ≤ 1`.
    pub fn with_epsilon(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon <= 1.0);
        Self::new((1.0 / epsilon).ceil() as usize)
    }

    /// Number of monitored items.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if nothing has been ingested.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Approximate memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<SsNode>()
            + self.buckets.capacity() * std::mem::size_of::<SsBucket>()
            + self.index.capacity()
                * (std::mem::size_of::<u64>() + std::mem::size_of::<usize>() + 8)
            + std::mem::size_of::<Self>()
    }

    /// Ingests one occurrence of `item`. O(1).
    pub fn update(&mut self, item: u64) {
        self.total += 1;
        if let Some(&ni) = self.index.get(&item) {
            self.increment(ni);
        } else if self.nodes.len() < self.capacity {
            // New monitored item with count 1.
            let ni = self.nodes.len();
            self.nodes.push(SsNode {
                item,
                error: 0,
                bucket: NIL,
                prev: NIL,
                next: NIL,
            });
            self.index.insert(item, ni);
            if self.min_bucket != NIL && self.buckets[self.min_bucket].count == 1 {
                self.attach(ni, self.min_bucket);
            } else {
                let b = self.new_bucket(1, NIL, self.min_bucket);
                if self.min_bucket != NIL {
                    self.buckets[self.min_bucket].prev = b;
                }
                self.min_bucket = b;
                self.attach(ni, b);
            }
        } else {
            // Replace some node of the minimum bucket.
            let b = self.min_bucket;
            let ni = self.buckets[b].head;
            let old_item = self.nodes[ni].item;
            let min_count = self.buckets[b].count;
            self.index.remove(&old_item);
            self.index.insert(item, ni);
            self.nodes[ni].item = item;
            self.nodes[ni].error = min_count;
            self.increment(ni);
        }
    }

    /// Estimated count and error bound of `item` (true count in
    /// `[count − error, count]`), if monitored.
    pub fn estimate(&self, item: u64) -> Option<(u64, u64)> {
        self.index.get(&item).map(|&ni| {
            let n = &self.nodes[ni];
            (self.buckets[n.bucket].count, n.error)
        })
    }

    /// All items with estimated count `≥ φ · N`, heaviest first.
    pub fn heavy_hitters(&self, phi: f64) -> Vec<HeavyHitter> {
        let threshold = phi * self.total as f64;
        let mut out = Vec::new();
        let mut b = self.min_bucket;
        while b != NIL {
            let count = self.buckets[b].count;
            if count as f64 >= threshold {
                let mut ni = self.buckets[b].head;
                while ni != NIL {
                    let n = &self.nodes[ni];
                    out.push(HeavyHitter {
                        item: n.item,
                        count: count as f64,
                        guaranteed: (count - n.error) as f64 >= threshold,
                    });
                    ni = n.next;
                }
            }
            b = self.buckets[b].next;
        }
        out.reverse(); // buckets were visited in increasing count order
        out
    }

    // --- bucket-list plumbing ---------------------------------------------

    fn new_bucket(&mut self, count: u64, prev: usize, next: usize) -> usize {
        let b = SsBucket {
            count,
            head: NIL,
            prev,
            next,
        };
        if let Some(i) = self.free_buckets.pop() {
            self.buckets[i] = b;
            i
        } else {
            self.buckets.push(b);
            self.buckets.len() - 1
        }
    }

    /// Links node `ni` at the head of bucket `b`.
    fn attach(&mut self, ni: usize, b: usize) {
        let head = self.buckets[b].head;
        self.nodes[ni].bucket = b;
        self.nodes[ni].prev = NIL;
        self.nodes[ni].next = head;
        if head != NIL {
            self.nodes[head].prev = ni;
        }
        self.buckets[b].head = ni;
    }

    /// Unlinks node `ni` from its bucket; frees the bucket if it empties and
    /// returns whether it was freed.
    fn detach(&mut self, ni: usize) {
        let n = self.nodes[ni];
        if n.prev != NIL {
            self.nodes[n.prev].next = n.next;
        } else {
            self.buckets[n.bucket].head = n.next;
        }
        if n.next != NIL {
            self.nodes[n.next].prev = n.prev;
        }
    }

    fn free_bucket_if_empty(&mut self, b: usize) {
        if self.buckets[b].head != NIL {
            return;
        }
        let (prev, next) = (self.buckets[b].prev, self.buckets[b].next);
        if prev != NIL {
            self.buckets[prev].next = next;
        } else {
            self.min_bucket = next;
        }
        if next != NIL {
            self.buckets[next].prev = prev;
        }
        self.free_buckets.push(b);
    }

    /// Moves node `ni` from its bucket with count c to count c + 1. O(1).
    fn increment(&mut self, ni: usize) {
        let b = self.nodes[ni].bucket;
        let c = self.buckets[b].count;
        let next = self.buckets[b].next;
        self.detach(ni);
        if next != NIL && self.buckets[next].count == c + 1 {
            self.attach(ni, next);
        } else {
            let nb = self.new_bucket(c + 1, b, next);
            self.buckets[b].next = nb;
            if next != NIL {
                self.buckets[next].prev = nb;
            }
            self.attach(ni, nb);
        }
        self.free_bucket_if_empty(b);
    }

    #[cfg(test)]
    fn check_invariants(&self) {
        // Buckets strictly increasing, every node's bucket pointer correct.
        let mut b = self.min_bucket;
        let mut last = 0u64;
        let mut seen = 0usize;
        while b != NIL {
            let bk = &self.buckets[b];
            assert!(bk.count > last, "bucket counts must increase");
            last = bk.count;
            assert_ne!(bk.head, NIL, "live bucket must be non-empty");
            let mut ni = bk.head;
            while ni != NIL {
                assert_eq!(self.nodes[ni].bucket, b);
                seen += 1;
                ni = self.nodes[ni].next;
            }
            b = bk.next;
        }
        assert_eq!(seen, self.nodes.len());
        assert_eq!(self.index.len(), self.nodes.len());
    }
}

// Written field by field, `index` sorted by item; refused unless its links
// and index fit together (`check_links`).
codec_struct!(UnarySpaceSaving {
    capacity: usize,
    nodes: Vec<SsNode>,
    buckets: Vec<SsBucket>,
    free_buckets: Vec<usize>,
    min_bucket: usize,
    index: HashMap<u64, usize>,
    total: u64,
} check |s| s.check_links().map_err(CodecError::new));

impl UnarySpaceSaving {
    /// What `update`, the queries and `merge_from` index by, checked once
    /// on restore: the bucket list from `min_bucket` is acyclic with
    /// strictly increasing counts; each live bucket heads a non-empty node
    /// list whose nodes point back at it and overestimate by at most its
    /// count, itself at most the total; every node is on exactly one list;
    /// the free buckets are distinct and none is live; and `index` is
    /// exactly item → node.
    fn check_links(&self) -> Result<(), &'static str> {
        if self.capacity == 0 || self.nodes.len() > self.capacity {
            return Err("Stream-Summary occupancy outside its capacity");
        }
        if self.total > MAX_COUNT {
            return Err("Stream-Summary counts past 2^62 arrivals");
        }
        let mut live = vec![false; self.buckets.len()];
        let mut listed = vec![false; self.nodes.len()];
        let (mut b, mut prev_b, mut floor) = (self.min_bucket, NIL, None);
        while b != NIL {
            let bucket = self
                .buckets
                .get(b)
                .ok_or("Stream-Summary bucket out of range")?;
            if live[b]
                || bucket.prev != prev_b
                || bucket.head == NIL
                || floor >= Some(bucket.count)
                || bucket.count > self.total
            {
                return Err("Stream-Summary bucket list broken");
            }
            live[b] = true;
            let (mut ni, mut prev_n) = (bucket.head, NIL);
            while ni != NIL {
                let node = self
                    .nodes
                    .get(ni)
                    .ok_or("Stream-Summary node out of range")?;
                if listed[ni]
                    || node.bucket != b
                    || node.prev != prev_n
                    || node.error > bucket.count
                {
                    return Err("Stream-Summary node list broken");
                }
                listed[ni] = true;
                (prev_n, ni) = (ni, node.next);
            }
            (prev_b, floor, b) = (b, Some(bucket.count), bucket.next);
        }
        if listed.contains(&false) {
            return Err("Stream-Summary node on no list");
        }
        for &f in &self.free_buckets {
            match live.get_mut(f) {
                Some(taken @ false) => *taken = true,
                _ => return Err("Stream-Summary free list broken"),
            }
        }
        let indexed = self.index.len() == self.nodes.len()
            && (self.nodes.iter().enumerate()).all(|(ni, n)| self.index.get(&n.item) == Some(&ni));
        if !indexed {
            return Err("Stream-Summary index does not fit its nodes");
        }
        Ok(())
    }
}

impl Mergeable for UnarySpaceSaving {
    /// Merged by rebuilding: union the counters (as in
    /// [`WeightedSpaceSaving::merge_from`]) and reinsert the heaviest
    /// `capacity` of them.
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(self.capacity, other.capacity, "capacities must match");
        let collect = |s: &Self| -> Vec<(u64, u64, u64)> {
            let mut v = Vec::with_capacity(s.len());
            let mut b = s.min_bucket;
            while b != NIL {
                let mut ni = s.buckets[b].head;
                while ni != NIL {
                    v.push((s.nodes[ni].item, s.buckets[b].count, s.nodes[ni].error));
                    ni = s.nodes[ni].next;
                }
                b = s.buckets[b].next;
            }
            v
        };
        let min_of = |s: &Self| -> u64 {
            if s.len() < s.capacity {
                0
            } else if s.min_bucket != NIL {
                s.buckets[s.min_bucket].count
            } else {
                0
            }
        };
        let (min_self, min_other) = (min_of(self), min_of(other));
        let mut merged: HashMap<u64, (u64, u64)> = HashMap::new();
        for (item, c, e) in collect(self) {
            merged.insert(item, (c, e));
        }
        for (item, c, e) in collect(other) {
            merged
                .entry(item)
                .and_modify(|(mc, me)| {
                    *mc += c;
                    *me += e;
                })
                .or_insert((c + min_self, e + min_self));
        }
        for (item, (c, e)) in merged.iter_mut() {
            if self.index.contains_key(item) && !other.index.contains_key(item) {
                *c += min_other;
                *e += min_other;
            }
        }
        let mut all: Vec<(u64, u64, u64)> = merged
            .into_iter()
            .map(|(item, (c, e))| (item, c, e))
            .collect();
        all.sort_by_key(|b| std::cmp::Reverse(b.1));
        all.truncate(self.capacity);

        let total = self.total + other.total;
        *self = Self::new(self.capacity);
        self.total = total;
        // Rebuild buckets by inserting in increasing count order.
        all.sort_by_key(|a| a.1);
        let mut tail = NIL;
        for (item, count, error) in all {
            let ni = self.nodes.len();
            self.nodes.push(SsNode {
                item,
                error,
                bucket: NIL,
                prev: NIL,
                next: NIL,
            });
            self.index.insert(item, ni);
            if tail != NIL && self.buckets[tail].count == count {
                self.attach(ni, tail);
            } else {
                let b = self.new_bucket(count, tail, NIL);
                if tail != NIL {
                    self.buckets[tail].next = b;
                } else {
                    self.min_bucket = b;
                }
                self.attach(ni, b);
                tail = b;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Forward-decayed wrapper
// ---------------------------------------------------------------------------

/// What [`DecayedHeavyHitters`] needs of SpaceSaving: weighted updates
/// under another name, and the total mass as the answer.
impl Weighted for WeightedSpaceSaving {
    type Item = u64;
    type Output = f64;

    #[inline]
    fn add(&mut self, _t_i: Timestamp, item: u64, w: f64) {
        self.update(item, w);
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
            capacity: self.capacity as u64,
            ..SummaryStats::default() // arrivals are not tracked by SpaceSaving
        }
    }

    fn check_invariants(&self, _landmark: Timestamp) -> Result<(), String> {
        let total = self.total;
        if total.is_nan() || total < 0.0 {
            return Err(format!("SpaceSaving total weight invalid: {total}"));
        }
        if self.len() > self.capacity {
            return Err(format!(
                "SpaceSaving occupancy {} exceeds capacity {}",
                self.len(),
                self.capacity
            ));
        }
        for c in &self.counters {
            if c.count.is_nan() || c.count < 0.0 || c.error.is_nan() || c.error < 0.0 {
                return Err(format!(
                    "SpaceSaving counter invalid: item {} count {} error {}",
                    c.item, c.count, c.error
                ));
            }
            if c.error > c.count + 1e-9 * c.count.abs() {
                return Err(format!(
                    "SpaceSaving error bound exceeds count: item {} count {} error {}",
                    c.item, c.count, c.error
                ));
            }
        }
        Ok(())
    }
}

/// Decayed φ-heavy-hitters under forward decay (Definition 7 / Theorem 2):
/// a [`WeightedSpaceSaving`] summary under the [`Decayed`] clock, which
/// feeds it the weights `g(t_i − L)`, scales by `g(t − L)` at query time
/// and renormalizes the landmark when exponential weights threaten `f64`
/// overflow. `update`, `update_batch` and `decayed_count` are the clock's.
///
/// ```
/// use fd_core::heavy_hitters::DecayedHeavyHitters;
/// use fd_core::decay::Monomial;
///
/// // Example 3 of the paper: φ = 0.2 heavy hitters are items 4, 6 and 8.
/// let mut hh = DecayedHeavyHitters::new(Monomial::quadratic(), 100.0, 100);
/// for (t, v) in [(105.0, 4), (107.0, 8), (103.0, 3), (108.0, 6), (104.0, 4)] {
///     hh.update(t, v);
/// }
/// let mut items: Vec<u64> = hh.heavy_hitters(0.2, 110.0).iter().map(|h| h.item).collect();
/// items.sort();
/// assert_eq!(items, vec![4, 6, 8]);
/// ```
pub type DecayedHeavyHitters<G> = Decayed<G, WeightedSpaceSaving>;

impl<G: ForwardDecay> DecayedHeavyHitters<G> {
    /// Creates a decayed heavy-hitter summary with `capacity` counters
    /// (error `ε = 1/capacity` relative to the decayed count `C`).
    pub fn new(g: G, landmark: impl Into<Timestamp>, capacity: usize) -> Self {
        Self::wrap(g, landmark, WeightedSpaceSaving::new(capacity))
    }

    /// Creates a summary with error bound `ε`.
    pub fn with_epsilon(g: G, landmark: impl Into<Timestamp>, epsilon: f64) -> Self {
        Self::wrap(g, landmark, WeightedSpaceSaving::with_epsilon(epsilon))
    }

    /// The φ-heavy-hitters at query time `t`: all items whose decayed count
    /// is at least `φ·C`, with estimates reported as decayed counts.
    pub fn heavy_hitters(&self, phi: f64, t: impl Into<Timestamp>) -> Vec<HeavyHitter> {
        self.inner().heavy_hitters_over(phi, self.denominator(t))
    }

    /// The estimated decayed count of `item` at time `t`, with error bound.
    pub fn estimate(&self, item: u64, t: impl Into<Timestamp>) -> Option<HhCounter> {
        let denom = self.denominator(t)?;
        self.inner().estimate(item).map(|mut c| {
            c.count /= denom;
            c.error /= denom;
            c
        })
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
    fn stats_reports_occupancy_and_renormalizations() {
        use crate::summary::Summary;
        let g = Exponential::new(1.0);
        let mut hh = DecayedHeavyHitters::new(g, 0.0, 8);
        for i in 0..2000 {
            hh.update(i as f64, (i % 20) as u64);
        }
        let s = hh.stats();
        assert!(s.renormalizations >= 4, "renorms = {}", s.renormalizations);
        assert_eq!(s.occupancy, 8);
        assert_eq!(s.capacity, 8);
    }

    #[test]
    fn survives_idle_gap_past_exponential_overflow() {
        // Regression for the 1/g(n) = 0.0 rescale factor: an idle gap past
        // e^709 used to zero the sketch (and trip scale_all's
        // debug_assert!(factor > 0.0) in debug builds).
        let g = Exponential::new(1.0);
        let mut hh = DecayedHeavyHitters::new(g, 0.0, 8);
        hh.update(0.0, 1);
        hh.update(720.0, 2);
        let c = hh.decayed_count(720.0);
        assert!(c.is_finite() && c >= 1.0, "decayed count = {c}");
    }

    #[test]
    fn paper_example_3_decayed_counts_and_hh() {
        let mut hh = DecayedHeavyHitters::new(Monomial::quadratic(), 100.0, 100);
        for (t, v) in [
            (105.0, 4u64),
            (107.0, 8),
            (103.0, 3),
            (108.0, 6),
            (104.0, 4),
        ] {
            hh.update(t, v);
        }
        let t = 110.0;
        assert!((hh.decayed_count(t) - 1.63).abs() < 1e-9);
        let d = |item| hh.estimate(item, t).unwrap().count;
        assert!((d(3) - 0.09).abs() < 1e-9);
        assert!((d(4) - 0.41).abs() < 1e-9);
        assert!((d(6) - 0.64).abs() < 1e-9);
        assert!((d(8) - 0.49).abs() < 1e-9);
        let hits = hh.heavy_hitters(0.2, t);
        let mut items: Vec<u64> = hits.iter().map(|h| h.item).collect();
        items.sort();
        assert_eq!(items, vec![4, 6, 8]);
        assert!(hits.iter().all(|h| h.guaranteed)); // exact: capacity > distinct
    }

    /// Deterministic skewed stream: item k appears ~N/2^k times.
    fn skewed_stream(n: usize) -> Vec<u64> {
        (0..n).map(|i| (i.trailing_ones()) as u64).collect()
    }

    #[test]
    fn weighted_ss_error_bound() {
        let eps = 0.02;
        let mut ss = WeightedSpaceSaving::with_epsilon(eps);
        let mut exact: HashMap<u64, f64> = HashMap::new();
        // Adversarial-ish mix: skewed hot items + a long tail of singletons.
        let mut w_total = 0.0;
        for (i, item) in skewed_stream(20_000).into_iter().enumerate() {
            let item = if i % 3 == 0 {
                1_000_000 + i as u64
            } else {
                item
            };
            let w = 1.0 + (i % 5) as f64;
            ss.update(item, w);
            *exact.entry(item).or_default() += w;
            w_total += w;
        }
        assert!((ss.total_weight() - w_total).abs() < 1e-6);
        for (&item, &true_w) in &exact {
            if let Some(c) = ss.estimate(item) {
                assert!(c.count + 1e-9 >= true_w, "underestimate for {item}");
                assert!(
                    c.count - true_w <= eps * w_total + 1e-6,
                    "overestimate for {item}"
                );
                assert!(
                    c.count - c.error <= true_w + 1e-9,
                    "error bound broken for {item}"
                );
            } else {
                assert!(true_w <= eps * w_total + 1e-6, "missed heavy item {item}");
            }
        }
        // Completeness: every φ-heavy item is reported for φ = 2ε.
        let phi = 2.0 * eps;
        let reported: Vec<u64> = ss.heavy_hitters(phi).iter().map(|h| h.item).collect();
        for (&item, &true_w) in &exact {
            if true_w >= phi * w_total {
                assert!(reported.contains(&item), "true heavy hitter {item} missing");
            }
        }
    }

    #[test]
    fn weighted_ss_heap_invariant_under_churn() {
        let mut ss = WeightedSpaceSaving::new(16);
        for i in 0..5000u64 {
            ss.update(i % 97, 1.0 + (i % 7) as f64);
            if i % 503 == 0 {
                ss.check_heap_invariant();
            }
        }
        ss.check_heap_invariant();
    }

    #[test]
    fn weighted_ss_merge_error_bound() {
        let eps = 0.05;
        let mut a = WeightedSpaceSaving::with_epsilon(eps);
        let mut b = WeightedSpaceSaving::with_epsilon(eps);
        let mut exact: HashMap<u64, f64> = HashMap::new();
        let stream = skewed_stream(10_000);
        for (i, item) in stream.into_iter().enumerate() {
            let w = 1.0;
            if i % 2 == 0 {
                a.update(item, w)
            } else {
                b.update(item, w)
            }
            *exact.entry(item).or_default() += w;
        }
        let w_total: f64 = exact.values().sum();
        a.merge_from(&b);
        assert!((a.total_weight() - w_total).abs() < 1e-6);
        for (&item, &true_w) in &exact {
            let est = a.estimate(item).map(|c| c.count).unwrap_or(0.0);
            assert!(
                (est - true_w).abs() <= 2.0 * eps * w_total + 1e-6,
                "item {item}: est {est}, true {true_w}"
            );
        }
    }

    #[test]
    fn unary_ss_matches_weighted_ss_on_unary_stream() {
        let mut unary = UnarySpaceSaving::new(32);
        let mut weighted = WeightedSpaceSaving::new(32);
        for item in skewed_stream(30_000) {
            unary.update(item);
            weighted.update(item, 1.0);
        }
        unary.check_invariants();
        // SpaceSaving is deterministic given the same tie-breaking… but tie
        // breaking differs, so compare estimates of the clear heavy items.
        for item in 0..6u64 {
            let (uc, _) = unary.estimate(item).unwrap();
            let wc = weighted.estimate(item).unwrap().count;
            assert!(
                (uc as f64 - wc).abs() <= 32.0,
                "item {item}: unary {uc}, weighted {wc}"
            );
        }
    }

    #[test]
    fn unary_ss_exact_when_capacity_suffices() {
        let mut ss = UnarySpaceSaving::new(64);
        let mut exact: HashMap<u64, u64> = HashMap::new();
        for i in 0..10_000u64 {
            let item = i % 50;
            ss.update(item);
            *exact.entry(item).or_default() += 1;
        }
        ss.check_invariants();
        for (&item, &c) in &exact {
            assert_eq!(ss.estimate(item), Some((c, 0)));
        }
    }

    #[test]
    fn unary_ss_error_bound_under_eviction() {
        let cap = 20;
        let mut ss = UnarySpaceSaving::new(cap);
        let mut exact: HashMap<u64, u64> = HashMap::new();
        for (i, item) in skewed_stream(50_000).into_iter().enumerate() {
            let item = if i % 4 == 3 {
                500 + (i as u64 % 200)
            } else {
                item
            };
            ss.update(item);
            *exact.entry(item).or_default() += 1;
        }
        ss.check_invariants();
        let n = 50_000f64;
        for (&item, &c) in &exact {
            if let Some((est, err)) = ss.estimate(item) {
                assert!(est >= c, "underestimate");
                assert!((est - c) as f64 <= n / cap as f64 + 1.0);
                assert!(est - err <= c);
            } else {
                assert!(
                    (c as f64) <= n / cap as f64 + 1.0,
                    "missed item {item} ({c})"
                );
            }
        }
    }

    #[test]
    fn unary_ss_merge() {
        let mut a = UnarySpaceSaving::new(16);
        let mut b = UnarySpaceSaving::new(16);
        let mut exact: HashMap<u64, u64> = HashMap::new();
        for (i, item) in skewed_stream(8_000).into_iter().enumerate() {
            if i % 2 == 0 {
                a.update(item)
            } else {
                b.update(item)
            }
            *exact.entry(item).or_default() += 1;
        }
        a.merge_from(&b);
        a.check_invariants();
        // The top item (0, ~4000 occurrences) must survive the merge with a
        // sane estimate.
        let (est, _) = a.estimate(0).unwrap();
        let true0 = exact[&0];
        assert!(est >= true0 && est - true0 <= 2 * 8_000 / 16);
    }

    #[test]
    fn decayed_hh_exponential_renormalizes_on_long_stream() {
        let g = Exponential::new(0.5);
        let mut hh = DecayedHeavyHitters::new(g, 0.0, 16);
        let mut t = 0.0;
        for i in 0..20_000u64 {
            t += 0.5;
            hh.update(t, i % 4);
        }
        let c = hh.decayed_count(t);
        assert!(c.is_finite() && c > 0.0);
        // Recent items dominate; all 4 round-robin items are 1/4-heavy.
        let hits = hh.heavy_hitters(0.1, t);
        assert_eq!(hits.len(), 4);
    }

    #[test]
    fn decayed_hh_respects_decay_ordering() {
        // Item A occurs early and often; item B occurs late and rarely.
        // Under strong decay B outweighs A.
        let g = Exponential::new(2.0);
        let mut hh = DecayedHeavyHitters::new(g, 0.0, 32);
        for i in 0..100 {
            hh.update(i as f64 * 0.1, 111); // through t = 10
        }
        for i in 0..3 {
            hh.update(20.0 + i as f64 * 0.1, 222);
        }
        let a = hh.estimate(111, 21.0).unwrap().count;
        let b = hh.estimate(222, 21.0).unwrap().count;
        assert!(b > a, "late item should dominate: a = {a}, b = {b}");
    }

    #[test]
    fn decayed_hh_merge_matches_single_site() {
        let g = Monomial::quadratic();
        let mut whole = DecayedHeavyHitters::new(g, 0.0, 64);
        let mut left = DecayedHeavyHitters::new(g, 0.0, 64);
        let mut right = DecayedHeavyHitters::new(g, 0.0, 64);
        for i in 0..2000u64 {
            let t = 1.0 + i as f64 * 0.01;
            let item = i % 20;
            whole.update(t, item);
            if i % 2 == 0 {
                left.update(t, item)
            } else {
                right.update(t, item)
            }
        }
        left.merge_from(&right);
        let t_q = 25.0;
        for item in 0..20u64 {
            let w = whole.estimate(item, t_q).unwrap().count;
            let m = left.estimate(item, t_q).unwrap().count;
            assert!((w - m).abs() < 1e-9 * w.max(1.0), "item {item}: {w} vs {m}");
        }
    }

    #[test]
    fn zero_weight_update_is_ignored() {
        let mut ss = WeightedSpaceSaving::new(4);
        ss.update(1, 0.0);
        assert!(ss.is_empty());
        assert_eq!(ss.total_weight(), 0.0);
    }

    #[test]
    fn hh_query_on_empty_summaries() {
        let ss = WeightedSpaceSaving::new(4);
        assert!(ss.heavy_hitters(0.1).is_empty());
        assert_eq!(ss.min_count(), 0.0);
        let u = UnarySpaceSaving::new(4);
        assert!(u.heavy_hitters(0.1).is_empty());
        let d = DecayedHeavyHitters::new(NoDecay, 0.0, 4);
        assert!(d.heavy_hitters(0.1, 10.0).is_empty());
    }
}
