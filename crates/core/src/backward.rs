//! Backward-decay machinery: the baselines the paper benchmarks forward
//! decay against (Sections VII and VIII).
//!
//! - [`ExponentialHistogram`] — Datar, Gionis, Indyk, Motwani (SODA 2002):
//!   approximate counts and sums over sliding windows using
//!   `O((1/ε) log n)` buckets. Run here over an *unbounded* window so that,
//!   following Cohen & Strauss (PODS 2003), **any** backward decay function
//!   chosen at query time can be answered by combining scaled window
//!   queries — exactly the baseline used in the paper's Figure 2;
//! - [`PrefixBackwardHH`] — heavy hitters under arbitrary backward decay
//!   via a dyadic hierarchy over the item domain, one exponential histogram
//!   per prefix node: the structure of Cormode, Korn & Tirthapura
//!   (PODS 2008) that the paper benchmarks in Figures 4 and 5. Its defining
//!   costs — per-tuple overhead an order of magnitude above SpaceSaving,
//!   space in the megabytes and *insensitive to ε* — are the behaviours the
//!   paper reports for the backward-decay approach;
//! - [`SlidingWindowHH`] — a dyadic decomposition over *time* with exact
//!   per-interval key counts, covering the window-query side of the same
//!   comparison;
//! - [`DeterministicWave`] / [`WaveSum`] — Gibbons & Tirthapura
//!   (SPAA 2002): the other classic `O((1/ε) log εN)` sliding-window
//!   count/sum structures, kept as additional baselines.

use std::collections::{HashMap, VecDeque};

use crate::checkpoint::{require, MAX_COUNT, MAX_SPAN_SECS};
use crate::codec_struct;
use crate::decay::BackwardDecay;
use crate::heavy_hitters::HeavyHitter;
use crate::Timestamp;

// ---------------------------------------------------------------------------
// Exponential histograms
// ---------------------------------------------------------------------------

/// One EH bucket: an aggregated `size` (count or sum of values) and the
/// timestamp of its most recent element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EhBucket {
    /// Aggregated quantity in the bucket.
    pub size: u64,
    /// Timestamp of the newest element merged into the bucket.
    pub newest: Timestamp,
    /// Timestamp of the oldest element merged into the bucket.
    pub oldest: Timestamp,
}

codec_struct!(EhBucket {
    size: u64,
    newest: Timestamp,
    oldest: Timestamp
});

/// An exponential histogram over an unbounded window.
///
/// Buckets are grouped in size classes `[2^j, 2^{j+1})`; at most
/// `max_per_class` buckets live in any class, the two oldest being merged
/// when the bound is exceeded. Sliding-window count/sum queries are answered
/// with relative error `≈ 1/(max_per_class − 2)`; arbitrary backward decay
/// is answered at query time by weighting each bucket with the decay
/// function (the Cohen–Strauss combination of window queries).
///
/// Counts use [`ExponentialHistogram::insert`] (size-1 elements); sums
/// insert their value via [`ExponentialHistogram::insert_value`].
#[derive(Debug, Clone)]
pub struct ExponentialHistogram {
    max_per_class: usize,
    /// `classes[j]`: buckets of size class `[2^j, 2^{j+1})`, newest at the
    /// front. Canonical EH keeps sizes non-decreasing with age, so all of
    /// class `j + 1` is older than all of class `j`.
    classes: Vec<VecDeque<EhBucket>>,
    total: u64,
    merges: u64,
}

// Insertion merges the two oldest buckets of a class holding more than
// `max_per_class`, and files a bucket by its size: both must hold. The
// buckets add up to the total, which leaves room to count on.
codec_struct!(ExponentialHistogram {
    max_per_class: usize,
    classes: Vec<VecDeque<EhBucket>>,
    total: u64,
    merges: u64,
} check |eh| {
    let filed = |(j, class): (usize, &VecDeque<EhBucket>)| {
        (class.iter()).all(|b| b.size != 0 && 63 - b.size.leading_zeros() as usize == j)
    };
    require(
        eh.max_per_class >= 2 && eh.classes.iter().enumerate().all(filed),
        "exponential histogram buckets out of their classes",
    )?;
    let sum = (eh.classes.iter().flatten()).try_fold(0u64, |sum, b| sum.checked_add(b.size));
    require(
        sum == Some(eh.total) && eh.total <= MAX_COUNT && eh.merges <= MAX_COUNT,
        "exponential histogram buckets do not add up to its total",
    )
});

impl ExponentialHistogram {
    /// Creates a histogram with relative error `ε` for window queries
    /// (`⌈1/ε⌉ + 2` buckets per size class).
    ///
    /// # Panics
    /// Panics unless `0 < ε ≤ 1`.
    pub fn with_epsilon(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon <= 1.0);
        Self::new((1.0 / epsilon).ceil() as usize + 2)
    }

    /// Creates a histogram allowing `max_per_class ≥ 2` buckets per size
    /// class.
    ///
    /// # Panics
    /// Panics if `max_per_class < 2`.
    pub fn new(max_per_class: usize) -> Self {
        assert!(max_per_class >= 2);
        Self {
            max_per_class,
            classes: Vec::new(),
            total: 0,
            merges: 0,
        }
    }

    /// Inserts one element (a count of 1) at time `t`.
    #[inline]
    pub fn insert(&mut self, t: impl Into<Timestamp>) {
        let t = t.into();
        self.insert_value(t, 1);
    }

    /// Inserts an element of value `v ≥ 1` at time `t` (the EH-for-sums
    /// variant).
    pub fn insert_value(&mut self, t: impl Into<Timestamp>, v: u64) {
        let t = t.into();
        debug_assert!(v >= 1);
        self.total += v;
        let class = 63 - v.leading_zeros() as usize; // ⌊log₂ v⌋
        self.insert_bucket(
            class,
            EhBucket {
                size: v,
                newest: t,
                oldest: t,
            },
        );
        self.cascade(class);
    }

    /// Inserts a bucket into its class keeping the class ordered newest
    /// first. Classes hold at most `max_per_class + 1` buckets, so the scan
    /// is O(1/ε) worst case and O(1) for in-order streams.
    fn insert_bucket(&mut self, class: usize, b: EhBucket) {
        if self.classes.len() <= class {
            self.classes.resize_with(class + 1, VecDeque::new);
        }
        let deque = &mut self.classes[class];
        let pos = deque
            .iter()
            .position(|x| x.newest <= b.newest)
            .unwrap_or(deque.len());
        deque.insert(pos, b);
    }

    /// Merge the two oldest buckets of any over-full class, cascading
    /// upward.
    fn cascade(&mut self, mut class: usize) {
        while class < self.classes.len() && self.classes[class].len() > self.max_per_class {
            let oldest = self.classes[class].pop_back().expect("over-full");
            let second = self.classes[class].pop_back().expect("over-full");
            let merged = EhBucket {
                size: oldest.size + second.size,
                newest: oldest.newest.max(second.newest),
                oldest: oldest.oldest.min(second.oldest),
            };
            self.merges += 1;
            let up = 63 - merged.size.leading_zeros() as usize;
            self.insert_bucket(up, merged);
            class = up;
        }
    }

    /// Exact total inserted (counts or summed values) since creation.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of live buckets (`O((1/ε) log n)`).
    pub fn bucket_count(&self) -> usize {
        self.classes.iter().map(VecDeque::len).sum()
    }

    /// Number of bucket merges performed (a cost diagnostic).
    pub fn merge_count(&self) -> u64 {
        self.merges
    }

    /// Approximate memory footprint in bytes — the "space per group" the
    /// paper plots in Figure 2(d).
    pub fn size_bytes(&self) -> usize {
        self.classes
            .iter()
            .map(|c| c.capacity() * std::mem::size_of::<EhBucket>())
            .sum::<usize>()
            + self.classes.capacity() * std::mem::size_of::<VecDeque<EhBucket>>()
            + std::mem::size_of::<Self>()
    }

    /// Approximate count/sum of elements with timestamp in `(t − window,
    /// t]`: buckets fully inside count fully, the straddling bucket counts
    /// half. Relative error bounded by `≈ 1/(max_per_class − 2)`.
    pub fn window_query(&self, window: f64, t: impl Into<Timestamp>) -> f64 {
        let t = t.into();
        let cutoff = t - window;
        let mut acc = 0.0;
        let mut straddler: Option<&EhBucket> = None;
        for class in &self.classes {
            for b in class {
                if b.newest > cutoff {
                    acc += b.size as f64;
                    if b.oldest <= cutoff {
                        // Straddling bucket: oldest such (largest size wins
                        // the correction).
                        match straddler {
                            Some(s) if s.size >= b.size => {}
                            _ => straddler = Some(b),
                        }
                    }
                }
            }
        }
        if let Some(s) = straddler {
            acc -= s.size as f64 / 2.0;
        }
        acc
    }

    /// The Cohen–Strauss query-time combination: an approximate decayed
    /// count/sum `Σ_i f(t − t_i)/f(0) · v_i` for **any** backward decay
    /// function `f` supplied now, at query time. Each bucket is weighted by
    /// `f` at the midpoint of its time span; the within-bucket spread is
    /// what the EH's ε controls.
    pub fn decayed_query<F: BackwardDecay>(&self, f: &F, t: impl Into<Timestamp>) -> f64 {
        let t = t.into();
        let f0 = f.f(0.0);
        let mut acc = 0.0;
        for class in &self.classes {
            for b in class {
                let mid = Timestamp::from_micros((b.newest.as_micros() + b.oldest.as_micros()) / 2);
                let age = (t - mid).max(0.0);
                acc += b.size as f64 * f.f(age) / f0;
            }
        }
        acc
    }

    /// All live buckets, newest first.
    pub fn buckets(&self) -> Vec<EhBucket> {
        let mut out = Vec::with_capacity(self.bucket_count());
        for class in &self.classes {
            out.extend(class.iter().copied());
        }
        out.sort_by_key(|n| std::cmp::Reverse(n.newest));
        out
    }

    /// All live buckets of `self`, oldest first (for merging).
    fn buckets_oldest_first(&self) -> Vec<EhBucket> {
        let mut all = self.buckets();
        all.reverse();
        all
    }

    #[cfg(test)]
    fn check_invariants(&self) {
        for (j, class) in self.classes.iter().enumerate() {
            assert!(class.len() <= self.max_per_class, "class {j} over-full");
            for b in class {
                let c = 63 - b.size.leading_zeros() as usize;
                assert_eq!(c, j, "bucket of size {} in class {j}", b.size);
                assert!(b.newest >= b.oldest);
            }
            // Newest-first within the class.
            for w in class.iter().zip(class.iter().skip(1)) {
                assert!(w.0.newest >= w.1.newest);
            }
        }
        let sum: u64 = self.classes.iter().flatten().map(|b| b.size).sum();
        assert_eq!(sum, self.total);
    }
}

impl crate::merge::Mergeable for ExponentialHistogram {
    /// Distributed merge: absorb the other histogram's buckets (oldest
    /// first) and re-canonicalize. The merged histogram's window-query
    /// error can reach twice the single-site bound, because a bucket from
    /// one site may interleave with differently-aged buckets from the
    /// other; the total stays exact.
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(
            self.max_per_class, other.max_per_class,
            "precision must match"
        );
        for b in other.buckets_oldest_first() {
            let class = 63 - b.size.leading_zeros() as usize;
            self.insert_bucket(class, b);
            self.cascade(class);
        }
        self.total += other.total;
        self.merges += other.merges;
    }
}

// ---------------------------------------------------------------------------
// Sliding-window / arbitrary-backward-decay heavy hitters
// ---------------------------------------------------------------------------

/// One sealed time interval of a dyadic level: exact per-key counts.
#[derive(Debug, Clone)]
struct Interval {
    start: Timestamp,
    counts: HashMap<u64, u64>,
    total: u64,
}

codec_struct!(Interval { start: Timestamp, counts: HashMap<u64, u64>, total: u64 }
check |iv| require(
    iv.total <= MAX_COUNT && iv.counts.values().all(|&c| c <= iv.total),
    "an interval's counts exceed its total",
));

/// One level of the dyadic time decomposition: intervals of a fixed span.
#[derive(Debug, Clone)]
struct Level {
    span: f64,
    current: Option<Interval>,
    sealed: Vec<Interval>,
}

codec_struct!(Level { span: f64, current: Option<Interval>, sealed: Vec<Interval> });

impl Level {
    fn insert(&mut self, t: Timestamp, item: u64) {
        let aligned = (t.as_secs_f64() / self.span).floor() * self.span;
        let needs_seal = self.current.as_ref().is_some_and(|c| c.start != aligned);
        if needs_seal {
            self.sealed
                .push(self.current.take().expect("checked above"));
        }
        let cur = self.current.get_or_insert_with(|| Interval {
            start: aligned.into(),
            counts: HashMap::new(),
            total: 0,
        });
        *cur.counts.entry(item).or_insert(0) += 1;
        cur.total += 1;
    }

    fn intervals(&self) -> impl Iterator<Item = &Interval> {
        self.sealed.iter().chain(self.current.iter())
    }
}

/// Heavy hitters under *backward* decay chosen at query time: the baseline
/// for the paper's Figures 4 and 5, standing in for the out-of-order
/// sliding-window structures of Cormode, Korn & Tirthapura (PODS 2008).
///
/// As in that line of work, the stream is maintained under a **dyadic
/// decomposition over time**: level ℓ partitions time into intervals of
/// `pane_duration · 2^ℓ` seconds, and every arrival updates one interval at
/// *every* level, so that any sliding window `[t − a, t]` can later be
/// assembled from O(log) dyadic nodes, and an arbitrary decay function can
/// be answered at query time as a combination of scaled window queries
/// (Cohen–Strauss).
///
/// This structure deliberately exhibits the backward-decay costs the paper
/// measures: `O(levels)` hash-map updates per tuple (CPU well above
/// SpaceSaving — Figure 5), every distinct key stored at every level (space
/// a multiple of the input key set, and **independent of ε** —
/// Figure 4(c)(d)).
#[derive(Debug, Clone)]
pub struct SlidingWindowHH {
    pane_duration: f64,
    levels: Vec<Level>,
    items: u64,
}

// Queries read the finest level, and shift interval starts by its span:
// there must be a level, and the spans must be the ones `new` builds,
// short enough that the shifts stay on the clock.
codec_struct!(SlidingWindowHH { pane_duration: f64, levels: Vec<Level>, items: u64 }
check |s| require(
    (1..=40).contains(&s.levels.len())
        && s.pane_duration > 0.0
        && (s.levels.iter().enumerate()).all(|(l, level)| {
            level.span == s.pane_duration * (1u64 << l) as f64 && level.span < MAX_SPAN_SECS
        })
        && s.items <= MAX_COUNT,
    "sliding window levels or item count out of range",
));

impl SlidingWindowHH {
    /// Creates a summary with the given finest pane duration (seconds) and
    /// `levels ≥ 1` dyadic levels (maximum exactly-decomposable window
    /// `pane_duration · 2^{levels−1}`).
    ///
    /// # Panics
    /// Panics unless `pane_duration > 0` and `1 ≤ levels ≤ 40`.
    pub fn new(pane_duration: f64, levels: usize) -> Self {
        assert!(pane_duration > 0.0 && pane_duration.is_finite());
        assert!((1..=40).contains(&levels));
        Self {
            pane_duration,
            levels: (0..levels)
                .map(|l| Level {
                    span: pane_duration * (1u64 << l) as f64,
                    current: None,
                    sealed: Vec::new(),
                })
                .collect(),
            items: 0,
        }
    }

    /// Ingests an occurrence of `item` at time `t ≥ 0`. O(levels) hash-map
    /// updates.
    pub fn update(&mut self, t: impl Into<Timestamp>, item: u64) {
        let t = t.into();
        debug_assert!(t >= 0.0, "dyadic time decomposition needs t ≥ 0");
        self.items += 1;
        for level in &mut self.levels {
            level.insert(t, item);
        }
    }

    /// Total items ingested.
    pub fn items_seen(&self) -> u64 {
        self.items
    }

    /// The finest pane duration in seconds.
    pub fn pane_duration(&self) -> f64 {
        self.pane_duration
    }

    /// Number of dyadic levels.
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Total live intervals across all levels (a space diagnostic).
    pub fn interval_count(&self) -> usize {
        self.levels.iter().map(|l| l.intervals().count()).sum()
    }

    /// Approximate memory footprint in bytes: per-key storage across every
    /// interval of every level.
    pub fn size_bytes(&self) -> usize {
        self.levels
            .iter()
            .flat_map(|l| l.intervals())
            .map(|i| i.counts.capacity() * 24 + std::mem::size_of::<Interval>())
            .sum::<usize>()
            + std::mem::size_of::<Self>()
    }

    /// Exact count of `item` within the window `(t − a, t]`, assembled from
    /// the finest level whose intervals tile the window (straddling
    /// intervals contribute proportionally — the source of the structure's
    /// approximation).
    pub fn window_count(&self, item: u64, window: f64, t: impl Into<Timestamp>) -> f64 {
        let t = t.into();
        let cutoff = t - window;
        let mut acc = 0.0;
        for iv in self.levels[0].intervals() {
            let end = iv.start + self.levels[0].span;
            if end <= cutoff || iv.start > t {
                continue;
            }
            let c = iv.counts.get(&item).copied().unwrap_or(0) as f64;
            if iv.start >= cutoff {
                acc += c;
            } else {
                // Straddler: pro-rate by overlap.
                acc += c * (end - cutoff) / self.levels[0].span;
            }
        }
        acc
    }

    /// The decayed count of every key and the decayed total, for an
    /// arbitrary backward decay function `f` supplied at query time: the
    /// Cohen–Strauss combination over the finest-level intervals, each
    /// weighted by `f` at its midpoint.
    pub fn decayed_counts<F: BackwardDecay>(
        &self,
        f: &F,
        t: impl Into<Timestamp>,
    ) -> (HashMap<u64, f64>, f64) {
        let t = t.into();
        let f0 = f.f(0.0);
        let mut acc: HashMap<u64, f64> = HashMap::new();
        let mut total = 0.0;
        let span = self.levels[0].span;
        for iv in self.levels[0].intervals() {
            if iv.total == 0 {
                continue;
            }
            let mid = iv.start + span * 0.5;
            let w = f.f((t - mid).max(0.0)) / f0;
            if w == 0.0 {
                continue;
            }
            for (&k, &c) in &iv.counts {
                *acc.entry(k).or_insert(0.0) += w * c as f64;
            }
            total += w * iv.total as f64;
        }
        (acc, total)
    }

    /// The φ-heavy-hitters under backward decay `f` at query time `t`.
    pub fn heavy_hitters<F: BackwardDecay>(
        &self,
        f: &F,
        t: impl Into<Timestamp>,
        phi: f64,
    ) -> Vec<HeavyHitter> {
        let t = t.into();
        let (counts, total) = self.decayed_counts(f, t);
        let threshold = phi * total;
        let mut out: Vec<HeavyHitter> = counts
            .into_iter()
            .filter(|(_, c)| *c >= threshold)
            .map(|(item, count)| HeavyHitter {
                item,
                count,
                guaranteed: true,
            })
            .collect();
        // Ties by item: the counts come out of a `HashMap`, whose order
        // must not reach a row.
        out.sort_by(|a, b| b.count.total_cmp(&a.count).then(a.item.cmp(&b.item)));
        out
    }
}

// ---------------------------------------------------------------------------
// Deterministic waves
// ---------------------------------------------------------------------------

/// Deterministic Waves (Gibbons & Tirthapura, SPAA 2002): the other classic
/// `O((1/ε) log εN)` structure for sliding-window **counts**, kept here as a
/// second backward-decay baseline next to [`ExponentialHistogram`].
///
/// Level `i` records the timestamps of every `2^i`-th element, keeping the
/// most recent `⌈2/ε⌉ + 2` of them (the factor 2 makes the finest covering
/// level's spacing at most `ε` times the window count). A window query
/// locates the finest level that still covers the window boundary; the
/// position of the latest recorded element at or before the boundary
/// determines the count with relative error at most `ε`.
#[derive(Debug, Clone)]
pub struct DeterministicWave {
    per_level: usize,
    /// `levels[i]`: (sequence number, timestamp) of recorded elements,
    /// oldest first.
    levels: Vec<VecDeque<(u64, Timestamp)>>,
    n: u64,
}

// A window count is `n` minus a recorded sequence number.
codec_struct!(DeterministicWave {
    per_level: usize,
    levels: Vec<VecDeque<(u64, Timestamp)>>,
    n: u64,
} check |w| require(
    w.n <= MAX_COUNT && w.levels.iter().flatten().all(|&(seq, _)| seq < w.n),
    "a wave records an element it has not seen",
));

impl DeterministicWave {
    /// Creates a wave with relative error `ε` for window count queries.
    ///
    /// # Panics
    /// Panics unless `0 < ε ≤ 1`.
    pub fn with_epsilon(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon <= 1.0);
        Self {
            per_level: (2.0 / epsilon).ceil() as usize + 2,
            levels: Vec::new(),
            n: 0,
        }
    }

    /// Inserts one element at time `t` (non-decreasing).
    pub fn insert(&mut self, t: impl Into<Timestamp>) {
        let t = t.into();
        let seq = self.n;
        self.n += 1;
        // Element seq belongs to levels 0 ..= trailing_zeros(seq).
        let max_level = if seq == 0 { 63 } else { seq.trailing_zeros() } as usize;
        for i in 0..=max_level.min(62) {
            if self.levels.len() <= i {
                self.levels.push(VecDeque::new());
            }
            let level = &mut self.levels[i];
            level.push_back((seq, t));
            if level.len() > self.per_level {
                level.pop_front();
            }
            // Don't create levels far beyond what the stream length
            // justifies.
            if (1u64 << i) > seq.max(1) {
                break;
            }
        }
    }

    /// Total elements inserted.
    pub fn total(&self) -> u64 {
        self.n
    }

    /// Approximate count of elements with timestamp in `(t − window, t]`,
    /// within relative error ε.
    pub fn window_query(&self, window: f64, t: impl Into<Timestamp>) -> f64 {
        let t = t.into();
        let cutoff = t - window;
        // Find the finest level whose oldest record is at or before the
        // cutoff (so the boundary is covered).
        for level in &self.levels {
            let Some(&(_, oldest_ts)) = level.front() else {
                continue;
            };
            if oldest_ts > cutoff && level.len() >= self.per_level {
                continue; // boundary precedes this level's coverage
            }
            // Latest record at or before the cutoff; elements after it are
            // in the window.
            let mut boundary_seq = None;
            for &(seq, ts) in level.iter().rev() {
                if ts <= cutoff {
                    boundary_seq = Some(seq);
                    break;
                }
            }
            return match boundary_seq {
                Some(seq) => (self.n - seq - 1) as f64,
                None => self.n as f64, // whole (covered) stream in window
            };
        }
        self.n as f64
    }

    /// Number of stored records across all levels.
    pub fn record_count(&self) -> usize {
        self.levels.iter().map(VecDeque::len).sum()
    }

    /// Approximate memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.levels.iter().map(|l| l.capacity() * 16).sum::<usize>() + std::mem::size_of::<Self>()
    }
}

/// The sum variant of [`DeterministicWave`]: approximate sliding-window
/// **sums** of non-negative integer values in `O((1/ε) log εV)` space.
///
/// Level `i` records a `(cumulative sum, timestamp)` checkpoint every time
/// the running sum crosses a multiple of `2^i`, keeping the most recent
/// `⌈2/ε⌉ + 2` checkpoints. A window query subtracts the latest checkpoint
/// at or before the boundary from the total, at the finest level still
/// covering the boundary; the skipped remainder is at most one level stride
/// ≤ `ε` times the window sum.
#[derive(Debug, Clone)]
pub struct WaveSum {
    per_level: usize,
    /// `levels[i]`: (cumulative sum at checkpoint, timestamp), oldest
    /// first.
    levels: Vec<VecDeque<(u64, Timestamp)>>,
    /// Running sum of all inserted values.
    cum: u64,
}

// A window sum is `cum` minus a recorded checkpoint.
codec_struct!(WaveSum {
    per_level: usize,
    levels: Vec<VecDeque<(u64, Timestamp)>>,
    cum: u64,
} check |w| require(
    w.cum <= MAX_COUNT && w.levels.iter().flatten().all(|&(cum, _)| cum <= w.cum),
    "a wave checkpoint exceeds its running sum",
));

impl WaveSum {
    /// Creates a wave with relative error `ε` for window sum queries.
    ///
    /// # Panics
    /// Panics unless `0 < ε ≤ 1`.
    pub fn with_epsilon(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon <= 1.0);
        Self {
            per_level: (2.0 / epsilon).ceil() as usize + 2,
            levels: Vec::new(),
            cum: 0,
        }
    }

    /// Inserts a value `v ≥ 0` at time `t` (non-decreasing).
    pub fn insert(&mut self, t: impl Into<Timestamp>, v: u64) {
        let t = t.into();
        let before = self.cum;
        self.cum += v;
        // Record a checkpoint at every level whose stride was crossed. If
        // no multiple of 2^i was crossed, none of the coarser strides were
        // either (`x >> i == y >> i` implies `x >> j == y >> j` for j ≥ i).
        for i in 0..63 {
            if before >> i == self.cum >> i {
                break;
            }
            if self.levels.len() <= i {
                self.levels.push(VecDeque::new());
            }
            let level = &mut self.levels[i];
            level.push_back((self.cum, t));
            if level.len() > self.per_level {
                level.pop_front();
            }
        }
    }

    /// Total of all inserted values (exact).
    pub fn total(&self) -> u64 {
        self.cum
    }

    /// Approximate sum of values with timestamp in `(t − window, t]`,
    /// within relative error ε.
    pub fn window_query(&self, window: f64, t: impl Into<Timestamp>) -> f64 {
        let t = t.into();
        let cutoff = t - window;
        for level in &self.levels {
            let Some(&(_, oldest_ts)) = level.front() else {
                continue;
            };
            if oldest_ts > cutoff && level.len() >= self.per_level {
                continue; // boundary precedes this level's coverage
            }
            let mut boundary_cum = None;
            for &(cum, ts) in level.iter().rev() {
                if ts <= cutoff {
                    boundary_cum = Some(cum);
                    break;
                }
            }
            return match boundary_cum {
                Some(cum) => (self.cum - cum) as f64,
                None => self.cum as f64,
            };
        }
        self.cum as f64
    }

    /// Number of stored checkpoints across all levels.
    pub fn record_count(&self) -> usize {
        self.levels.iter().map(VecDeque::len).sum()
    }

    /// Approximate memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.levels.iter().map(|l| l.capacity() * 16).sum::<usize>() + std::mem::size_of::<Self>()
    }
}

// ---------------------------------------------------------------------------
// Prefix-hierarchy backward-decay heavy hitters (CKT-style)
// ---------------------------------------------------------------------------

/// Heavy hitters under arbitrary backward decay chosen at query time, via a
/// **dyadic hierarchy over the item domain** — the structure of Cormode,
/// Korn & Tirthapura (PODS 2008), the paper's actual Figure 4/5 baseline.
///
/// Every dyadic prefix of the item id owns an [`ExponentialHistogram`];
/// each arrival inserts into the histogram of *every* prefix
/// (`domain_bits + 1` of them). At query time, the decayed count of any
/// prefix is available through the Cohen–Strauss combination, so the
/// φ-heavy items are found by descending the prefix tree, pruning subtrees
/// below the threshold.
///
/// This reproduces the backward-decay costs the paper reports: tens of EH
/// insertions per tuple (CPU an order of magnitude above SpaceSaving), and
/// space proportional to distinct items × levels × EH buckets — megabytes
/// per group, essentially insensitive to ε (the node count, not the
/// per-node precision, dominates).
#[derive(Debug, Clone)]
pub struct PrefixBackwardHH {
    domain_bits: u32,
    epsilon: f64,
    /// (level, prefix) → per-prefix histogram. Level 0 = full ids,
    /// level `domain_bits` = the root (single prefix).
    nodes: HashMap<(u32, u64), ExponentialHistogram>,
    items: u64,
}

// The parameters `new` accepts: updates shift and mask by `domain_bits` and
// make histograms of precision `epsilon`.
codec_struct!(PrefixBackwardHH {
    domain_bits: u32,
    epsilon: f64,
    nodes: HashMap<(u32, u64), ExponentialHistogram>,
    items: u64,
} check |p| require(
    (1..=40).contains(&p.domain_bits)
        && p.epsilon > 0.0
        && p.epsilon <= 1.0
        && p.items <= MAX_COUNT,
    "prefix hierarchy parameters out of range",
));

impl PrefixBackwardHH {
    /// Creates a summary over item ids in `[0, 2^domain_bits)` with
    /// per-node EH error `ε`. Ids outside the domain are masked.
    ///
    /// # Panics
    /// Panics unless `1 ≤ domain_bits ≤ 40` and `0 < ε ≤ 1`.
    pub fn new(domain_bits: u32, epsilon: f64) -> Self {
        assert!((1..=40).contains(&domain_bits));
        assert!(epsilon > 0.0 && epsilon <= 1.0);
        Self {
            domain_bits,
            epsilon,
            nodes: HashMap::new(),
            items: 0,
        }
    }

    /// Ingests an occurrence of `item` at time `t`: one EH insertion per
    /// prefix level (`domain_bits + 1` insertions).
    pub fn update(&mut self, t: impl Into<Timestamp>, item: u64) {
        let t = t.into();
        self.items += 1;
        let masked = item & ((1u64 << self.domain_bits) - 1);
        let eps = self.epsilon;
        for level in 0..=self.domain_bits {
            let prefix = masked >> level;
            self.nodes
                .entry((level, prefix))
                .or_insert_with(|| ExponentialHistogram::with_epsilon(eps))
                .insert(t);
        }
    }

    /// Total items ingested.
    pub fn items_seen(&self) -> u64 {
        self.items
    }

    /// Number of live prefix nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Approximate memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.nodes
            .values()
            .map(|eh| eh.size_bytes() + 24)
            .sum::<usize>()
            + std::mem::size_of::<Self>()
    }

    /// Decayed count of one prefix node under `f` at time `t` (zero if the
    /// node does not exist).
    fn node_count_decayed<F: BackwardDecay>(
        &self,
        level: u32,
        prefix: u64,
        f: &F,
        t: Timestamp,
    ) -> f64 {
        self.nodes
            .get(&(level, prefix))
            .map_or(0.0, |eh| eh.decayed_query(f, t))
    }

    /// The decayed total count `C` under `f` at time `t` (the root node).
    pub fn decayed_total<F: BackwardDecay>(&self, f: &F, t: impl Into<Timestamp>) -> f64 {
        let t = t.into();
        self.node_count_decayed(self.domain_bits, 0, f, t)
    }

    /// The φ-heavy-hitters under backward decay `f` at query time `t`,
    /// found by descending the prefix tree.
    pub fn heavy_hitters<F: BackwardDecay>(
        &self,
        f: &F,
        t: impl Into<Timestamp>,
        phi: f64,
    ) -> Vec<HeavyHitter> {
        let t = t.into();
        let total = self.decayed_total(f, t);
        let threshold = phi * total;
        if total <= 0.0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        // Stack of (level, prefix) with decayed count ≥ threshold.
        let mut stack = vec![(self.domain_bits, 0u64)];
        while let Some((level, prefix)) = stack.pop() {
            let c = self.node_count_decayed(level, prefix, f, t);
            if c < threshold {
                continue;
            }
            if level == 0 {
                out.push(HeavyHitter {
                    item: prefix,
                    count: c,
                    guaranteed: false,
                });
            } else {
                stack.push((level - 1, prefix << 1));
                stack.push((level - 1, (prefix << 1) | 1));
            }
        }
        out.sort_by(|a, b| b.count.total_cmp(&a.count));
        out
    }
}

impl crate::merge::Mergeable for SlidingWindowHH {
    /// Distributed merge of two dyadic decompositions with identical pane
    /// configuration: intervals covering the same `[start, start + span)`
    /// range have their exact per-key counts added; disjoint intervals are
    /// adopted as-is. Exactness is preserved — both sides hold exact counts
    /// per interval, so the merged structure answers any window or decayed
    /// query as if the concatenated stream had been ingested at one site.
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(
            self.pane_duration, other.pane_duration,
            "pane durations must match"
        );
        assert_eq!(
            self.levels.len(),
            other.levels.len(),
            "level counts must match"
        );
        for (mine, theirs) in self.levels.iter_mut().zip(&other.levels) {
            // Index every interval (sealed and current) by start time.
            // Out-of-order sealing can leave several intervals with the
            // same start on either side — fold them all together.
            let mut by_start: std::collections::HashMap<Timestamp, Interval> =
                std::collections::HashMap::new();
            let mut absorb = |iv: Interval| match by_start.entry(iv.start) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let acc = e.get_mut();
                    for (&k, &c) in &iv.counts {
                        *acc.counts.entry(k).or_insert(0) += c;
                    }
                    acc.total += iv.total;
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(iv);
                }
            };
            for iv in mine.sealed.drain(..).chain(mine.current.take()) {
                absorb(iv);
            }
            for iv in theirs.intervals() {
                absorb(iv.clone());
            }
            let mut merged: Vec<Interval> = by_start.into_values().collect();
            merged.sort_by_key(|iv| iv.start);
            // The newest interval becomes `current` so later in-order
            // arrivals extend it instead of sealing a fresh one.
            mine.current = merged.pop();
            mine.sealed = merged;
        }
        self.items += other.items;
    }
}

impl crate::merge::Mergeable for PrefixBackwardHH {
    /// Distributed merge: per-prefix exponential histograms are merged
    /// node-wise (missing nodes are adopted whole). Each node inherits the
    /// EH merge guarantee — exact totals, window error up to twice the
    /// single-site bound.
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(
            self.domain_bits, other.domain_bits,
            "domain sizes must match"
        );
        assert_eq!(self.epsilon, other.epsilon, "precision must match");
        for (key, eh) in &other.nodes {
            match self.nodes.entry(*key) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    e.get_mut().merge_from(eh);
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(eh.clone());
                }
            }
        }
        self.items += other.items;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decay::{BackExponential, BackPolynomial, BackSlidingWindow, BackwardDecay};

    /// A deterministic stream: one element per 0.1 s for `n` elements.
    fn ts_stream(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64 * 0.1).collect()
    }

    #[test]
    fn eh_count_window_error_bound() {
        let eps = 0.1;
        let mut eh = ExponentialHistogram::with_epsilon(eps);
        let ts = ts_stream(50_000);
        for &t in &ts {
            eh.insert(t);
        }
        eh.check_invariants();
        let t_q = *ts.last().unwrap();
        for &w in &[1.0, 10.0, 100.0, 1000.0, 4000.0] {
            let exact = ts.iter().filter(|&&x| x > t_q - w).count() as f64;
            let est = eh.window_query(w, t_q);
            let rel = (est - exact).abs() / exact.max(1.0);
            assert!(
                rel <= eps,
                "window {w}: est {est}, exact {exact}, rel {rel}"
            );
        }
    }

    #[test]
    fn eh_bucket_count_is_logarithmic() {
        let mut eh = ExponentialHistogram::with_epsilon(0.1);
        for &t in &ts_stream(100_000) {
            eh.insert(t);
        }
        // O((1/ε) log n) = O(12 × 17) buckets — give generous headroom.
        assert!(
            eh.bucket_count() < 400,
            "bucket count {}",
            eh.bucket_count()
        );
        assert_eq!(eh.total(), 100_000);
    }

    #[test]
    fn eh_sum_window_error_bound() {
        let eps = 0.1;
        let mut eh = ExponentialHistogram::with_epsilon(eps);
        let items: Vec<(f64, u64)> = (0..30_000)
            .map(|i| (i as f64 * 0.1, 1 + (i as u64 * 7919) % 1400))
            .collect();
        for &(t, v) in &items {
            eh.insert_value(t, v);
        }
        eh.check_invariants();
        let t_q = items.last().unwrap().0;
        for &w in &[10.0, 100.0, 1000.0] {
            let exact: u64 = items
                .iter()
                .filter(|&&(x, _)| x > t_q - w)
                .map(|&(_, v)| v)
                .sum();
            let est = eh.window_query(w, t_q);
            let rel = (est - exact as f64).abs() / exact as f64;
            assert!(
                rel <= 2.0 * eps,
                "window {w}: est {est}, exact {exact}, rel {rel}"
            );
        }
    }

    #[test]
    fn eh_decayed_query_matches_brute_force_poly() {
        let eps = 0.05;
        let mut eh = ExponentialHistogram::with_epsilon(eps);
        let ts = ts_stream(20_000);
        for &t in &ts {
            eh.insert(t);
        }
        let t_q = *ts.last().unwrap();
        let f = BackPolynomial::new(1.5);
        let exact: f64 = ts.iter().map(|&x| f.weight(x, t_q)).sum();
        let est = eh.decayed_query(&f, t_q);
        let rel = (est - exact).abs() / exact;
        assert!(rel < 3.0 * eps, "est {est}, exact {exact}, rel {rel}");
    }

    #[test]
    fn eh_decayed_query_matches_brute_force_exponential() {
        let eps = 0.02;
        let mut eh = ExponentialHistogram::with_epsilon(eps);
        let ts = ts_stream(20_000);
        for &t in &ts {
            eh.insert(t);
        }
        let t_q = *ts.last().unwrap();
        let f = BackExponential::new(0.01);
        let exact: f64 = ts.iter().map(|&x| f.weight(x, t_q)).sum();
        let est = eh.decayed_query(&f, t_q);
        let rel = (est - exact).abs() / exact;
        assert!(rel < 0.1, "est {est}, exact {exact}, rel {rel}");
    }

    #[test]
    fn eh_decayed_query_sliding_window_decay_equals_window_query_roughly() {
        let mut eh = ExponentialHistogram::with_epsilon(0.05);
        let ts = ts_stream(10_000);
        for &t in &ts {
            eh.insert(t);
        }
        let t_q = *ts.last().unwrap();
        let f = BackSlidingWindow::new(100.0);
        let via_decay = eh.decayed_query(&f, t_q);
        let exact = ts.iter().filter(|&&x| t_q - x < 100.0).count() as f64;
        let rel = (via_decay - exact).abs() / exact;
        assert!(rel < 0.15, "via decay {via_decay}, exact {exact}");
    }

    #[test]
    fn eh_space_grows_with_precision() {
        let build = |eps: f64| {
            let mut eh = ExponentialHistogram::with_epsilon(eps);
            for &t in &ts_stream(50_000) {
                eh.insert(t);
            }
            eh.size_bytes()
        };
        let coarse = build(0.1);
        let fine = build(0.01);
        assert!(
            fine > 3 * coarse,
            "expected ε=0.01 to use much more space: {fine} vs {coarse}"
        );
    }

    #[test]
    fn eh_merge_preserves_total_and_window_error() {
        use crate::merge::Mergeable;
        let eps = 0.05;
        let mut a = ExponentialHistogram::with_epsilon(eps);
        let mut b = ExponentialHistogram::with_epsilon(eps);
        let ts = ts_stream(20_000);
        for (i, &t) in ts.iter().enumerate() {
            if i % 2 == 0 {
                a.insert(t);
            } else {
                b.insert(t);
            }
        }
        a.merge_from(&b);
        a.check_invariants();
        assert_eq!(a.total(), 20_000);
        let t_q = *ts.last().unwrap();
        for &w in &[10.0, 100.0, 1000.0] {
            let exact = ts.iter().filter(|&&x| x > t_q - w).count() as f64;
            let est = a.window_query(w, t_q);
            let rel = (est - exact).abs() / exact;
            assert!(rel <= 2.0 * eps, "window {w}: est {est}, exact {exact}");
        }
        // Decayed queries survive the merge too.
        let f = BackExponential::new(0.01);
        let exact: f64 = ts.iter().map(|&x| f.weight(x, t_q)).sum();
        let est = a.decayed_query(&f, t_q);
        assert!((est - exact).abs() / exact < 0.15);
    }

    #[test]
    #[should_panic(expected = "precision must match")]
    fn eh_merge_rejects_mismatched_precision() {
        use crate::merge::Mergeable;
        let mut a = ExponentialHistogram::with_epsilon(0.1);
        let b = ExponentialHistogram::with_epsilon(0.01);
        a.merge_from(&b);
    }

    #[test]
    fn eh_empty_queries() {
        let eh = ExponentialHistogram::with_epsilon(0.1);
        assert_eq!(eh.window_query(10.0, 100.0), 0.0);
        assert_eq!(eh.decayed_query(&BackExponential::new(0.1), 100.0), 0.0);
        assert_eq!(eh.bucket_count(), 0);
    }

    #[test]
    fn swhh_exact_within_single_interval() {
        let mut hh = SlidingWindowHH::new(60.0, 4);
        for i in 0..1000u64 {
            hh.update(i as f64 * 0.01, i % 5);
        }
        let f = BackExponential::new(0.001); // nearly flat
        let (counts, total) = hh.decayed_counts(&f, 10.0);
        assert!((total - 1000.0).abs() < 10.0);
        for v in 0..5u64 {
            assert!((counts[&v] - 200.0).abs() < 5.0);
        }
    }

    #[test]
    fn swhh_decayed_counts_match_brute_force() {
        let mut hh = SlidingWindowHH::new(5.0, 6);
        let mut items: Vec<(f64, u64)> = Vec::new();
        for i in 0..20_000u64 {
            let t = i as f64 * 0.01; // 200 s of stream, 40 finest intervals
            let v = if i % 3 == 0 { 7 } else { i % 50 };
            hh.update(t, v);
            items.push((t, v));
        }
        let t_q = 200.0;
        let f = BackExponential::new(0.05);
        let (counts, total) = hh.decayed_counts(&f, t_q);
        let exact_total: f64 = items.iter().map(|&(t, _)| f.weight(t, t_q)).sum();
        assert!(
            (total - exact_total).abs() / exact_total < 0.2,
            "total {total} vs {exact_total}"
        );
        let exact_7: f64 = items
            .iter()
            .filter(|&&(_, v)| v == 7)
            .map(|&(t, _)| f.weight(t, t_q))
            .sum();
        let got_7 = counts[&7];
        assert!(
            (got_7 - exact_7).abs() / exact_7 < 0.2,
            "key 7: {got_7} vs {exact_7}"
        );
    }

    #[test]
    fn swhh_heavy_hitters_find_the_hot_key() {
        let mut hh = SlidingWindowHH::new(10.0, 4);
        for i in 0..10_000u64 {
            let t = i as f64 * 0.01;
            let v = if i % 2 == 0 { 42 } else { i };
            hh.update(t, v);
        }
        let hits = hh.heavy_hitters(&BackPolynomial::new(1.0), 100.0, 0.3);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].item, 42);
    }

    #[test]
    fn swhh_window_count_tiles_the_window() {
        let mut hh = SlidingWindowHH::new(1.0, 8);
        // Key 9: one occurrence per 0.1 s for 100 s.
        for i in 0..1000u64 {
            hh.update(i as f64 * 0.1, 9);
        }
        let t_q = 99.9;
        for window in [5.0, 20.0, 50.0] {
            let got = hh.window_count(9, window, t_q);
            let exact = window * 10.0;
            assert!(
                (got - exact).abs() <= 12.0,
                "window {window}: got {got}, exact ≈ {exact}"
            );
        }
    }

    #[test]
    fn swhh_stores_keys_at_every_level() {
        // The defining space behaviour of Figure 4(c)(d): footprint tracks
        // (distinct keys × levels), with no ε to shrink it.
        let mut small_keys = SlidingWindowHH::new(5.0, 8);
        let mut many_keys = SlidingWindowHH::new(5.0, 8);
        for i in 0..50_000u64 {
            let t = i as f64 * 0.01;
            small_keys.update(t, i % 10);
            many_keys.update(t, i % 10_000);
        }
        assert!(
            many_keys.size_bytes() > 10 * small_keys.size_bytes(),
            "space should track key cardinality: {} vs {}",
            many_keys.size_bytes(),
            small_keys.size_bytes()
        );
        // Coarse levels replicate the key set: at least levels/2 × the keys.
        assert!(
            many_keys.size_bytes() > 4 * 10_000 * 24,
            "levels should multiply the per-key storage: {}",
            many_keys.size_bytes()
        );
        assert_eq!(many_keys.level_count(), 8);
        assert!(many_keys.interval_count() >= 100 + 50 + 25);
    }

    #[test]
    fn wave_window_count_error_bound() {
        let eps = 0.1;
        let mut wave = DeterministicWave::with_epsilon(eps);
        let ts: Vec<f64> = (0..60_000).map(|i| i as f64 * 0.1).collect();
        for &t in &ts {
            wave.insert(t);
        }
        let t_q = *ts.last().unwrap();
        for &w in &[1.0, 10.0, 100.0, 1000.0, 5000.0] {
            let exact = ts.iter().filter(|&&x| x > t_q - w).count() as f64;
            let est = wave.window_query(w, t_q);
            let rel = (est - exact).abs() / exact.max(1.0);
            assert!(rel <= eps + 1e-9, "window {w}: est {est}, exact {exact}");
        }
        assert_eq!(wave.total(), 60_000);
    }

    #[test]
    fn wave_space_is_logarithmic() {
        let mut wave = DeterministicWave::with_epsilon(0.1);
        for i in 0..1_000_000u64 {
            wave.insert(i as f64);
        }
        // ~(2/ε + 2) records × log₂ N levels.
        assert!(
            wave.record_count() < 22 * 21,
            "records: {}",
            wave.record_count()
        );
        assert!(wave.size_bytes() < 16 * 1024);
    }

    #[test]
    fn wave_sum_window_error_bound() {
        let eps = 0.1;
        let mut wave = WaveSum::with_epsilon(eps);
        // Deterministic messy values in [1, 1400].
        let items: Vec<(f64, u64)> = (0..40_000)
            .map(|i| (i as f64 * 0.1, 1 + (i as u64).wrapping_mul(7919) % 1400))
            .collect();
        for &(t, v) in &items {
            wave.insert(t, v);
        }
        assert_eq!(wave.total(), items.iter().map(|&(_, v)| v).sum::<u64>());
        let t_q = items.last().unwrap().0;
        for &w in &[50.0, 500.0, 3000.0] {
            let exact: u64 = items
                .iter()
                .filter(|&&(x, _)| x > t_q - w)
                .map(|&(_, v)| v)
                .sum();
            let est = wave.window_query(w, t_q);
            let rel = (est - exact as f64).abs() / exact as f64;
            // ε plus the unavoidable single-straddler slack.
            assert!(
                rel <= eps + 1400.0 / exact as f64,
                "window {w}: est {est}, exact {exact}, rel {rel}"
            );
        }
        // Space: ~(2/ε + 2) checkpoints × log₂(total) levels.
        assert!(
            wave.record_count() < 22 * 26,
            "records {}",
            wave.record_count()
        );
    }

    #[test]
    fn wave_sum_unit_values_match_count_wave() {
        let mut ws = WaveSum::with_epsilon(0.1);
        let mut wc = DeterministicWave::with_epsilon(0.1);
        for i in 0..10_000u64 {
            ws.insert(i as f64, 1);
            wc.insert(i as f64);
        }
        for &w in &[100.0, 1000.0, 5000.0] {
            let (a, b) = (ws.window_query(w, 9_999.0), wc.window_query(w, 9_999.0));
            let rel = (a - b).abs() / b.max(1.0);
            assert!(rel < 0.2, "window {w}: sum-wave {a} vs count-wave {b}");
        }
    }

    #[test]
    fn wave_short_stream_and_whole_window() {
        let mut wave = DeterministicWave::with_epsilon(0.2);
        for i in 0..10 {
            wave.insert(i as f64);
        }
        assert_eq!(wave.window_query(100.0, 9.0), 10.0);
        let recent = wave.window_query(2.5, 9.0);
        assert!((recent - 3.0).abs() <= 1.0, "recent = {recent}");
    }

    #[test]
    fn prefix_hh_finds_heavy_items_under_decay() {
        let mut hh = PrefixBackwardHH::new(12, 0.05);
        for i in 0..20_000u64 {
            let t = i as f64 * 0.01;
            let v = if i % 3 == 0 { 42 } else { i % 3000 };
            hh.update(t, v);
        }
        let f = BackExponential::new(0.02);
        let hits = hh.heavy_hitters(&f, 200.0, 0.1);
        assert!(!hits.is_empty());
        assert_eq!(hits[0].item, 42);
        // Its decayed count should be ≈ 1/3 of the decayed total.
        let total = hh.decayed_total(&f, 200.0);
        assert!((hits[0].count / total - 1.0 / 3.0).abs() < 0.1);
    }

    #[test]
    fn prefix_hh_total_matches_brute_force() {
        let mut hh = PrefixBackwardHH::new(10, 0.05);
        let ts: Vec<f64> = (0..5_000).map(|i| i as f64 * 0.02).collect();
        for (i, &t) in ts.iter().enumerate() {
            hh.update(t, (i % 512) as u64);
        }
        let f = BackPolynomial::new(1.2);
        let t_q = 100.0;
        let exact: f64 = ts.iter().map(|&x| f.weight(x, t_q)).sum();
        let got = hh.decayed_total(&f, t_q);
        assert!((got - exact).abs() / exact < 0.15, "{got} vs {exact}");
    }

    #[test]
    fn prefix_hh_space_tracks_items_not_epsilon() {
        let build = |eps: f64, keys: u64| {
            let mut hh = PrefixBackwardHH::new(16, eps);
            for i in 0..30_000u64 {
                hh.update(i as f64 * 0.01, i % keys);
            }
            hh
        };
        let coarse = build(0.1, 5_000);
        let fine = build(0.02, 5_000);
        // ε changes space by far less than the key cardinality does.
        let ratio_eps = fine.size_bytes() as f64 / coarse.size_bytes() as f64;
        assert!(
            ratio_eps < 2.0,
            "ε should barely move the footprint: {ratio_eps}"
        );
        let few = build(0.1, 50);
        assert!(
            coarse.size_bytes() > 10 * few.size_bytes(),
            "space should track distinct items: {} vs {}",
            coarse.size_bytes(),
            few.size_bytes()
        );
        // And the footprint is huge in absolute terms (MBs in the paper).
        assert!(
            coarse.size_bytes() > 1_000_000,
            "{} bytes",
            coarse.size_bytes()
        );
    }

    #[test]
    fn prefix_hh_masks_out_of_domain_items() {
        let mut hh = PrefixBackwardHH::new(4, 0.1);
        hh.update(1.0, 0xFFFF); // masked to 15
        hh.update(2.0, 15);
        let f = BackExponential::new(0.001);
        let hits = hh.heavy_hitters(&f, 3.0, 0.5);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].item, 15);
    }

    #[test]
    fn prefix_hh_empty() {
        let hh = PrefixBackwardHH::new(8, 0.1);
        let f = BackExponential::new(0.1);
        assert_eq!(hh.decayed_total(&f, 1.0), 0.0);
        assert!(hh.heavy_hitters(&f, 1.0, 0.1).is_empty());
    }

    #[test]
    fn swhh_sliding_window_decay_expires_old_intervals() {
        let mut hh = SlidingWindowHH::new(1.0, 6);
        for i in 0..1000u64 {
            hh.update(i as f64 * 0.1, 1); // 100 s of key 1
        }
        for i in 1000..1100u64 {
            hh.update(i as f64 * 0.1, 2); // last 10 s of key 2
        }
        let f = BackSlidingWindow::new(10.0);
        let (counts, _) = hh.decayed_counts(&f, 110.0);
        let c1 = counts.get(&1).copied().unwrap_or(0.0);
        let c2 = counts.get(&2).copied().unwrap_or(0.0);
        assert!(c2 > 50.0, "recent key under-counted: {c2}");
        // Key 1 may leak via the straddling interval, but must be mostly
        // gone.
        assert!(
            c1 < c2 / 2.0,
            "expired key still dominant: c1 = {c1}, c2 = {c2}"
        );
    }
}
