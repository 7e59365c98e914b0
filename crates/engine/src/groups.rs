//! The engine's group store: every group's state a query holds, and
//! everything done to it — the LFTA's fold, evict and flush, the open
//! buckets' move-in rule and merges, bucket close into [`Run`]s, the
//! sorted checkpoint walk, restore and the space probes — written once,
//! generic over the cell `C` a group's state lives in.
//!
//! There are exactly two instantiations of that code, picked by the
//! factory through [`AggregatorFactory::group_store`]:
//! - **By value.** The built-in factories' cell is the bare fd-core summary
//!   (or the bare count / `f64` of the undecayed built-ins); a decayed one
//!   is only its static numerators. The store holds the factory's `Ops`
//!   once — with the query's one `g` — so a new group is its state built in
//!   place — no `make`, no box, no `Arc` clone — and a closed one is freed
//!   with its bucket (see [`crate::aggregators`]).
//! - **Boxed** ([`Boxed`], the default). A hand-written UDAF's cell is the
//!   `Box<dyn Aggregator>` its factory's `make` builds, as is
//!   `multi_factory`'s composite.
//!
//! The engine holds the store as one `Box<dyn GroupStore>`: one virtual
//! call per admitted run of tuples ([`GroupStore::fold_batch`]).
//!
//! **Closed runs.** A bucket closes, in either mode, into one typed run —
//! its id and its `(key, cell)` groups in key order, in the
//! pages the bucket held them in — boxed once per bucket as a [`Run`],
//! which the engine evaluates into rows at once or, in state mode, keeps
//! for the combiner to merge key by key. Its closed section is written per
//! group ([`put_closed`]) and read back by the store
//! ([`GroupStore::read_closed`]).
//!
//! **Layout.** A query keeps only as many buckets open as its slack spans —
//! one to three in practice — so the buckets sit in a short vector ordered
//! by id and a lookup is a scan of it. A bucket's groups are `(key, cell)`
//! pairs in small pages ([`Pages`]), laid out by how the groups arrive:
//! - **Split** (an LFTA over a splittable aggregate): a group's high-level
//!   state is needed only at its bucket's end, so the bucket indexes
//!   nothing. What the LFTA evicts or flushes is appended to the bucket's
//!   *log*; the log is folded into the bucket's *run* — its groups,
//!   ascending by key — only when something reads the groups (close, a
//!   checkpoint, the space probes, a restore) or when it has grown longer
//!   than the run ([`OpenBucket::compact`]): a stable radix sort of the
//!   log's keys ([`Sorter`]), then one merge of the run and the log in key
//!   order into fresh pages, each partial taken from the log as the merge
//!   reaches it and each drained page of the run freed as the merge leaves
//!   it.
//! - **Unsplit** (`two_level(false)`, or an aggregate that does not split):
//!   each tuple updates its group in place, so the bucket keeps its cells
//!   in the order groups opened and an open-addressing [`Index`] from key to
//!   position, probed from its [`mix64`] hash; close drains the pages into
//!   one exact-size page and sorts it by key. Both start, when the bucket's
//!   first group arrives, at the population of the bucket that closed
//!   last.
//!
//! **Batched fold.** A split run folds its tuples through the LFTA in order,
//! requesting the slot of the tuple [`AHEAD`] places on, and appends what
//! it evicts to the log of the partial's bucket: a sequential write, where
//! a lookup in a bucket far past the cache cost two dependent misses. An
//! unsplit run walks the index as a two-stage software pipeline (Chen,
//! Ailamaki, Gibbons & Mowry, ICDE 2004): the index entry of the tuple
//! 2·[`AHEAD`] on is requested, the one [`AHEAD`] on is probed and its cell
//! requested, and only then is the current one folded. The [`prefetch`]
//! hints change no result.
//!
//! **Weights relative to the bucket's end.** Every row of a bucket is
//! answered at its end `L + W`, its start `L` the landmark, so an
//! arrival's weight in its row is the paper's `g(tᵢ − L) / g(t − L)` at one
//! `t` the whole bucket shares: `g(aᵢ) / g(W)` of its age `aᵢ = tᵢ − L`,
//! static and never above 1. A cell folds each tuple with that weight
//! ([`Cells::arrive`]), so a row is its cell's numerators as they stand,
//! partials merge by addition wherever and whenever they meet, and a
//! checkpoint writes each cell's bare state. A boxed cell is told its
//! bucket's width when the store makes it, and weighs the same. Section
//! VI-A's renormalizer, which an unbounded stream queried at any `t` needs,
//! stays with fd-core's standalone `Decayed`. An image names the `g` its
//! cells weigh by once ([`Cells::put_decay`]), and a restore under another
//! is refused.
//!
//! **Move-in.** The first partial the LFTA releases for a group *is* that
//! group's high-level state and moves in as it stands — a plain copy of the
//! cell — and later ones merge into it. A first partial equals what `make`
//! plus one merge would build (`tests/group_store.rs` holds every
//! splittable factory to that). A Horvitz–Thompson-scaled tuple of a split
//! query is a partial of its own, released at once.
//!
//! **Order.** The order cells sit in is never observable: rows and closed
//! sections are written from runs in key order, and a checkpoint writes
//! each bucket in key order. The partials of a group merge in the order the
//! LFTA released them, however the log is folded, so a checkpoint, a probe
//! or a restore at any point leaves every later row and byte as it was.
//! Checkpoint bytes are the same for both instantiations: each cell is
//! framed as a `u64` length and its state's own encoding.

use std::any::Any;
use std::cell::RefCell;
use std::sync::Arc;

use fd_core::checkpoint::{CodecError, Decode, Encode, Reader};
use fd_core::hash::mix64;
use fd_core::Timestamp;

#[cfg(doc)]
use crate::engine::Engine;
use crate::engine::Row;
use crate::lfta::{Lfta, Partial};
use crate::tuple::{bucket_end, bucket_start, secs, Micros, Packet};
use crate::udaf::{put_framed, AggValue, Aggregator, AggregatorFactory, Query};

/// How many items ahead of the one being folded a batch walk requests a
/// cache line: the LFTA pass the slot of tuple *i* + `AHEAD`, the unsplit
/// pass the cell of tuple *i* + `AHEAD` and the index entry of tuple
/// *i* + 2·`AHEAD`. Far enough that a line arrives before it is
/// used, near enough that it is not evicted again first.
const AHEAD: usize = 8;

/// Asks the core to start loading the cache line holding `t`. A hint: it
/// neither reads nor writes `t` and changes no result, only when a later
/// access to `t` finds it in cache. A no-op off x86_64.
// One of the three unsafe sites in the workspace (the others are
// `telemetry::thread_cpu_ns` and `fd_core::checkpoint`'s carry-less
// CRC-32): std has no stable prefetch hint.
#[allow(unsafe_code)]
#[inline(always)]
pub(crate) fn prefetch<T>(t: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        #[target_feature(enable = "sse")]
        fn hint(p: *const i8) {
            _mm_prefetch::<_MM_HINT_T0>(p);
        }
        // SAFETY: SSE is part of the x86_64 baseline, so the feature the
        // callee is compiled for is present; a prefetch of any address is
        // architecturally a hint and never faults.
        unsafe { hint(std::ptr::from_ref(t).cast()) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = t;
}

/// An arrival as a decayed cell takes it: its time, clamped to its
/// bucket's start, and its static weight `g(aᵢ) / g(W)` against the
/// bucket's end.
pub(crate) type Arrival = (Timestamp, f64);

/// What the store does to a cell, once per query: the one seam between
/// the generic store and an aggregate. Cloned once per closed bucket, into
/// its run. A bucket is given by its start and its width `W` (µs).
pub(crate) trait Cells: Clone + Send + 'static {
    /// A group's state as the store holds it.
    type Cell: Send + 'static;
    /// A fresh group's state for the bucket starting at `start`.
    fn make(&self, start: Micros, width: Micros) -> Self::Cell;
    /// A tuple's arrival in that bucket.
    fn arrive(&self, start: Micros, width: Micros, pkt: &Packet) -> Arrival;
    /// Folds one tuple in.
    fn update(&self, cell: &mut Self::Cell, pkt: &Packet, at: Arrival);
    /// Folds one tuple in with a Horvitz–Thompson scale (only a scalable
    /// aggregate sees one that is not `1.0`).
    fn update_scaled(&self, cell: &mut Self::Cell, pkt: &Packet, at: Arrival, scale: f64);
    /// Absorbs a partial of the same group.
    fn merge(&self, into: &mut Self::Cell, from: Self::Cell);
    /// The answer at query time `t` (seconds) of a group of that bucket.
    fn emit(&self, cell: &Self::Cell, start: Micros, width: Micros, t: f64) -> AggValue;
    /// The paper's space-per-group probe.
    fn size(&self, cell: &Self::Cell) -> usize;
    /// Appends the state's checkpoint bytes; `None` if it declines.
    fn put(&self, cell: &Self::Cell, out: &mut Vec<u8>) -> Option<()>;
    /// Reads back what [`put`](Self::put) wrote, for a group of that
    /// bucket.
    fn take(&self, start: Micros, width: Micros, bytes: &[u8]) -> Result<Self::Cell, CodecError>;
    /// Appends the encoding of the decay `g` the cells weigh by; nothing
    /// if they weigh by none.
    fn put_decay(&self, out: &mut Vec<u8>);
}

/// The boxed instantiation: a `Box<dyn Aggregator>` per group from the
/// factory's `make`, told its bucket's width, which weighs its own
/// arrivals.
#[derive(Clone)]
struct Boxed(Arc<dyn AggregatorFactory>);

impl Cells for Boxed {
    type Cell = Box<dyn Aggregator>;
    fn make(&self, start: Micros, width: Micros) -> Self::Cell {
        let mut cell = self.0.make(start);
        cell.set_bucket_width(width);
        cell
    }
    fn arrive(&self, _: Micros, _: Micros, _: &Packet) -> Arrival {
        (Timestamp::ZERO, 1.0)
    }
    fn update(&self, cell: &mut Self::Cell, pkt: &Packet, _: Arrival) {
        cell.update(pkt);
    }
    fn update_scaled(&self, cell: &mut Self::Cell, pkt: &Packet, _: Arrival, scale: f64) {
        cell.update_scaled(pkt, scale);
    }
    fn merge(&self, into: &mut Self::Cell, from: Self::Cell) {
        into.merge_boxed(from);
    }
    fn emit(&self, cell: &Self::Cell, _: Micros, _: Micros, t: f64) -> AggValue {
        cell.emit(t)
    }
    fn size(&self, cell: &Self::Cell) -> usize {
        cell.size_bytes()
    }
    fn put(&self, cell: &Self::Cell, out: &mut Vec<u8>) -> Option<()> {
        cell.checkpoint_into(out)
    }
    fn take(&self, start: Micros, width: Micros, bytes: &[u8]) -> Result<Self::Cell, CodecError> {
        let mut cell = self.make(start, width);
        cell.restore(bytes)?;
        Ok(cell)
    }
    fn put_decay(&self, out: &mut Vec<u8>) {
        self.0.make(0).put_decay(out);
    }
}

/// The default store: `query`'s groups boxed.
pub(crate) fn boxed(query: &Query) -> Box<dyn GroupStore> {
    Box::new(Store::new(Boxed(Arc::clone(&query.aggregate)), query))
}

/// A tuple the engine has admitted and not yet folded in: its group, its
/// bucket and the bucket's start, and where it sits in its batch.
pub struct Admitted {
    pub(crate) key: u64,
    pub(crate) bucket: u64,
    pub(crate) bucket_start: Micros,
    pub(crate) index: usize,
}

/// The group store as [`Engine`] holds it, whichever its cell.
pub trait GroupStore: Send {
    /// Folds a run of admitted tuples in, in order — through the LFTA if
    /// the query is split — each `Admitted` naming its tuple in `pkts`.
    fn fold_batch(&mut self, pkts: &[Packet], run: &[Admitted]);
    /// Folds an admitted tuple with a scale straight into its high-level
    /// group.
    fn fold_scaled(&mut self, pkt: &Packet, at: &Admitted, scale: f64);
    /// Closes every bucket below `target` (`u64::MAX`: all of them), in id
    /// order, each into one [`Run`] handed to `out`.
    fn close_below(&mut self, target: u64, out: &mut dyn FnMut(Box<dyn Run>));
    /// Appends the open buckets' groups and the LFTA's residents in their
    /// slots; `None` if a cell declines to checkpoint.
    fn checkpoint_into(&self, out: &mut Vec<u8>) -> Option<()>;
    /// Reads back what [`checkpoint_into`](Self::checkpoint_into) wrote into
    /// this fresh store, with the LFTA counters the checkpoint header
    /// carries.
    fn restore(
        &mut self,
        r: &mut Reader<'_>,
        lfta: Option<(u64, u64, u64)>,
    ) -> Result<(), CodecError>;
    /// Reads back a closed section [`put_closed`] wrote, one run per
    /// bucket. Its groups must ascend by `(bucket, key)`, as every run
    /// writes them.
    fn read_closed(&self, r: &mut Reader<'_>) -> Result<Vec<Box<dyn Run>>, CodecError>;
    /// The footprint of all live state.
    fn space_bytes(&self) -> usize;
    /// The mean size of a high-level group, `None` without one.
    fn space_per_group(&self) -> Option<f64>;
    /// `(n_slots, evictions, updates)` of the LFTA, `None` if unsplit.
    fn lfta_counters(&self) -> Option<(u64, u64, u64)>;
    /// Occupied LFTA slots, `None` if unsplit.
    fn lfta_occupancy(&self) -> Option<usize>;
}

/// A closed bucket whatever its cells: what the engine evaluates, and what
/// the shard worker, its checkpoint slot, the durable store and the
/// combiner pass on.
pub trait Run: Any + Send {
    /// The bucket's id.
    fn bucket(&self) -> u64;
    /// How many groups it holds.
    fn len(&self) -> usize;
    /// Appends the decay its cells weigh by, as [`put_decay`] frames it.
    fn put_decay(&self, out: &mut Vec<u8>);
    /// Appends each group as `(bucket, key, framed state)`, in key order;
    /// `None` if a cell declines to checkpoint.
    fn put(&self, out: &mut Vec<u8>) -> Option<()>;
    /// Evaluates the bucket, `width` µs wide, into `out`, one row per key
    /// in key order: a key also in `more` — runs of the same bucket from
    /// stores of the same query, in merge order — is the merge of its
    /// cells, this run's first.
    fn rows(self: Box<Self>, more: Vec<Box<dyn Run>>, width: Micros, out: &mut Vec<Row>);
}

/// How many groups `runs` hold.
pub(crate) fn groups(runs: &[Box<dyn Run>]) -> usize {
    runs.iter().map(|run| run.len()).sum()
}

/// Appends the closed section of `runs`: a group count, the decay the
/// groups weigh by if there is one, then every group as [`Run::put`]
/// writes it — the tail of an [`Engine`] checkpoint and the body of a
/// durable closed-delta. `None` if a cell declines.
pub(crate) fn put_closed(out: &mut Vec<u8>, runs: &[Box<dyn Run>]) -> Option<()> {
    groups(runs).put(out);
    if let Some(run) = runs.first() {
        run.put_decay(out);
    }
    runs.iter().try_for_each(|run| run.put(out))
}

/// Appends the encoding of the decay `g` `cells` weigh by, framed: an
/// image names it once, and a restore under another `g` is refused.
fn put_decay<K: Cells>(cells: &K, out: &mut Vec<u8>) {
    put_framed(out, |out| {
        cells.put_decay(out);
        Some(())
    });
}

/// Reads back what [`put_decay`] wrote, refusing another `g` than
/// `cells`'.
fn take_decay<K: Cells>(cells: &K, r: &mut Reader<'_>) -> Result<(), CodecError> {
    let mut ours = Vec::new();
    cells.put_decay(&mut ours);
    let len = r.count(1)?;
    if r.bytes(len)? != ours {
        return Err(CodecError::new("an image written under another decay g"));
    }
    Ok(())
}

/// The runs of `runs` after its first `groups` groups, which end a run.
pub(crate) fn after(mut runs: &[Box<dyn Run>], mut groups: usize) -> &[Box<dyn Run>] {
    while let Some((run, rest)) = runs.split_first().filter(|(run, _)| run.len() <= groups) {
        (groups, runs) = (groups - run.len(), rest);
    }
    debug_assert_eq!(groups, 0, "a cursor inside a run");
    runs
}

/// A closed bucket of a store over `K`: its groups, in key order, with the
/// store's cells to evaluate and write them.
struct TypedRun<K: Cells> {
    cells: K,
    bucket: u64,
    groups: Pages<(u64, K::Cell)>,
}

impl<K: Cells> Run for TypedRun<K> {
    fn bucket(&self) -> u64 {
        self.bucket
    }

    fn len(&self) -> usize {
        self.groups.len()
    }

    fn put_decay(&self, out: &mut Vec<u8>) {
        put_decay(&self.cells, out);
    }

    fn put(&self, out: &mut Vec<u8>) -> Option<()> {
        self.groups.iter().try_for_each(|(key, cell)| {
            self.bucket.put(out);
            key.put(out);
            put_framed(out, |out| self.cells.put(cell, out))
        })
    }

    fn rows(self: Box<Self>, more: Vec<Box<dyn Run>>, width: Micros, out: &mut Vec<Row>) {
        let (cells, bucket, first) = (self.cells.clone(), self.bucket, out.len());
        let (bucket_start, t_end) = (bucket_start(bucket, width), secs(bucket_end(bucket, width)));
        // Every run of a query comes from a store its one factory built.
        let more = more
            .into_iter()
            .filter_map(|run| (run as Box<dyn Any>).downcast().ok());
        let runs: Vec<Self> = std::iter::once(*self).chain(more.map(|run| *run)).collect();
        debug_assert!(
            (runs.iter()).all(|run| {
                let keys = || run.groups.iter().map(|&(key, _)| key);
                keys().zip(keys().skip(1)).all(|(a, b)| a < b)
            }),
            "a run's keys must ascend"
        );
        out.reserve(runs.iter().map(|run| run.groups.len()).sum());
        let mut heads: Vec<_> = (runs.into_iter())
            .map(|run| run.groups.into_iter().peekable())
            .collect();
        // The least key any run has left, then its cells in run order,
        // merged.
        while let Some(key) = (heads.iter_mut())
            .filter_map(|groups| groups.peek().map(|&(key, _)| key))
            .min()
        {
            let mut met =
                (heads.iter_mut()).filter_map(|groups| Some(groups.next_if(|&(k, _)| k == key)?.1));
            let Some(mut cell) = met.next() else {
                break;
            };
            met.for_each(|other| cells.merge(&mut cell, other));
            out.push(Row {
                bucket_start,
                key,
                value: cells.emit(&cell, bucket_start, width, t_end),
            });
        }
        debug_assert!(
            out[first..].windows(2).all(|w| w[0].key < w[1].key),
            "a merged bucket's keys must ascend"
        );
    }
}

/// A bucket's group index: open addressing over 16-byte `(key, position
/// + 1)` entries, `0` marking an empty one, probed linearly from the
/// key's [`mix64`] hash. Group keys are packed addresses and ports —
/// shifted, strided, low-entropy in whatever bits a table indexes by — so
/// the full-avalanche finalizer is what keeps probe runs short; it is a
/// fixed bijection, not a keyed hash, the same trade the LFTA's slot
/// mapping and the shard router already make. The entry count is a power
/// of two held at load ≤ ¾, so an empty entry always ends a probe. Being
/// the store's own, a key's first entry can be requested ahead of its
/// probe ([`home`](Self::home)).
struct Index {
    entries: Vec<(u64, usize)>,
    len: usize,
}

impl Index {
    /// An empty index with room for `groups` keys at load ≤ ¾.
    fn with_capacity(groups: usize) -> Self {
        let n = if groups == 0 {
            0
        } else {
            (groups * 4).div_ceil(3).next_power_of_two()
        };
        Self {
            entries: vec![(0, 0); n],
            len: 0,
        }
    }

    /// The entry a probe for `key` starts at; `None` while the index has
    /// none.
    fn home(&self, key: u64) -> Option<usize> {
        let mask = self.entries.len().checked_sub(1)?;
        Some(mix64(key) as usize & mask)
    }

    /// `Ok` with the position of `key`, or `Err` with the empty entry a
    /// probe for it ends at (`0` while there is none).
    fn probe(&self, key: u64) -> Result<usize, usize> {
        let Some(mut at) = self.home(key) else {
            return Err(0);
        };
        let mask = self.entries.len() - 1;
        loop {
            match self.entries[at] {
                (_, 0) => return Err(at),
                (k, pos) if k == key => return Ok(pos - 1),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// The position of `key`, if it has one.
    fn get(&self, key: u64) -> Option<usize> {
        self.probe(key).ok()
    }

    /// `Ok` with the position of `key`, or `Err` with the position it has
    /// just been given: the next after the last.
    fn find_or_insert(&mut self, key: u64) -> Result<usize, usize> {
        loop {
            match self.probe(key) {
                Ok(pos) => return Ok(pos),
                Err(at) if (self.len + 1) * 4 <= self.entries.len() * 3 => {
                    self.entries[at] = (key, self.len + 1);
                    self.len += 1;
                    return Err(self.len - 1);
                }
                Err(_) => self.grow(),
            }
        }
    }

    /// Doubles the entry count (to 8 from none), re-placing every key.
    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        let n = (self.entries.len() * 2).max(8);
        let old = std::mem::replace(&mut self.entries, vec![(0, 0); n]);
        for (key, pos) in old.into_iter().filter(|&(_, pos)| pos != 0) {
            let mut at = mix64(key) as usize & (n - 1);
            while self.entries[at].1 != 0 {
                at = (at + 1) & (n - 1);
            }
            self.entries[at] = (key, pos);
        }
    }

    /// How many keys it holds.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.len
    }
}

/// How many items a full page holds: a power of two, at most 64 KiB of
/// them.
fn page_len<T>() -> usize {
    let fit = (64 << 10) / std::mem::size_of::<T>().max(1);
    1 << fit.max(1).ilog2()
}

/// A sequence held in pages of [`page_len`] items, every page but the last
/// full: a bucket's groups, its log, a closed run (whose pages an unsplit
/// close makes one, which only `iter`, `push` and draining read). A page is a small block,
/// so a bucket's cells are many blocks the allocator hands from one bucket
/// to the next, as it does boxes, rather than one block the size of the
/// bucket's population — which, freed, moves glibc's mmap threshold and
/// leaves the heap holding what falls below it.
struct Pages<T> {
    pages: Vec<Vec<T>>,
    len: usize,
}

impl<T> Default for Pages<T> {
    fn default() -> Self {
        Self {
            pages: Vec::new(),
            len: 0,
        }
    }
}

impl<T> Pages<T> {
    /// None yet, the page list and the first page sized for `room`.
    fn with_room(room: usize) -> Self {
        let n = page_len::<T>();
        let mut pages = Vec::with_capacity(room.div_ceil(n));
        if room > 0 {
            pages.push(Vec::with_capacity(room.min(n)));
        }
        Self { pages, len: 0 }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, at: usize) -> &T {
        let n = page_len::<T>();
        &self.pages[at / n][at % n]
    }

    fn get_mut(&mut self, at: usize) -> &mut T {
        let n = page_len::<T>();
        &mut self.pages[at / n][at % n]
    }

    fn last(&self) -> Option<&T> {
        self.pages.last()?.last()
    }

    /// Appends `item`. A first page grows with its contents; a later one
    /// starts full-size.
    fn push(&mut self, item: T) {
        let n = page_len::<T>();
        match self.pages.last_mut() {
            Some(page) if page.len() < n => page.push(item),
            _ => {
                let mut page = Vec::with_capacity(if self.pages.is_empty() { 1 } else { n });
                page.push(item);
                self.pages.push(page);
            }
        }
        self.len += 1;
    }

    fn iter(&self) -> impl Iterator<Item = &T> + Clone {
        self.pages.iter().flatten()
    }
}

impl<T> IntoIterator for Pages<T> {
    type Item = T;
    type IntoIter = std::iter::Flatten<std::vec::IntoIter<Vec<T>>>;

    /// Every item in order, each page freed once drained.
    fn into_iter(self) -> Self::IntoIter {
        self.pages.into_iter().flatten()
    }
}

/// Bits of a key one radix pass sorts by.
const RADIX_BITS: u32 = 8;
/// Fewer keys than this sort by comparison: a radix sort's counts take
/// 2 KiB a digit whatever the key count, up to 16 KiB, so for a few keys
/// they would outweigh the keys — and `restore`, which folds the logs it
/// reads, would break the decoders' allocation bound of twice their input
/// plus 4 KiB (`tests/codec.rs` fails without this cutoff).
const RADIX_FROM: usize = 256;

/// A stable sort of keys by value, ties in the order they came, in buffers
/// reused from one sort to the next (one set per store, so they are as
/// large as the largest log, held once). A key's offset from the least key
/// and its position are packed into one `u64` whenever both fit — an
/// `(address << 16) | port` key spans 48 bits, 36 of them on a bucket of
/// 10⁶ hosts — and the packed words are sorted by an LSD radix sort over
/// the offset's bits only, a digit every key shares skipped; keys too wide
/// to pack sort as `(key, position)` pairs, by comparison.
#[derive(Default)]
struct Sorter {
    packed: Vec<u64>,
    spare: Vec<u64>,
    pairs: Vec<(u64, usize)>,
    counts: Vec<[usize; 1 << RADIX_BITS]>,
}

/// Keys in order, as a [`Sorter`] left them.
enum Order<'a> {
    /// Offsets from `lo` above `shift` bits of position.
    Packed {
        words: &'a [u64],
        lo: u64,
        shift: u32,
    },
    Pairs(&'a [(u64, usize)]),
}

impl Order<'_> {
    fn len(&self) -> usize {
        match self {
            Order::Packed { words, .. } => words.len(),
            Order::Pairs(pairs) => pairs.len(),
        }
    }

    /// The `i`-th key in order, and the position it came at.
    #[inline]
    fn get(&self, i: usize) -> Option<(u64, usize)> {
        match *self {
            Order::Packed { words, lo, shift } => {
                let word = *words.get(i)?;
                Some((lo + (word >> shift), (word & ((1 << shift) - 1)) as usize))
            }
            Order::Pairs(pairs) => pairs.get(i).copied(),
        }
    }
}

impl Sorter {
    /// The `n` `keys` in order.
    fn sort(&mut self, n: usize, keys: impl Iterator<Item = u64> + Clone) -> Order<'_> {
        const MASK: u64 = (1 << RADIX_BITS) - 1;
        let (lo, hi) =
            (keys.clone()).fold((u64::MAX, 0), |(lo, hi), key| (lo.min(key), hi.max(key)));
        let span = u64::BITS - hi.saturating_sub(lo).leading_zeros();
        let shift = u64::BITS - (n as u64).leading_zeros();
        if span + shift > u64::BITS {
            self.pairs.clear();
            self.pairs.extend(keys.zip(0..));
            // Positions are unique, so this order is the stable one.
            self.pairs.sort_unstable();
            return Order::Pairs(&self.pairs);
        }
        let Self {
            packed,
            spare,
            counts,
            ..
        } = self;
        packed.clear();
        packed.extend(keys.zip(0..).map(|(key, pos)| (key - lo) << shift | pos));
        if n < RADIX_FROM {
            packed.sort_unstable();
            return Order::Packed {
                words: packed,
                lo,
                shift,
            };
        }
        let digits = span.div_ceil(RADIX_BITS) as usize;
        counts.clear();
        counts.resize(digits, [0; 1 << RADIX_BITS]);
        for &word in packed.iter() {
            for (d, count) in counts.iter_mut().enumerate() {
                count[(word >> (shift + d as u32 * RADIX_BITS) & MASK) as usize] += 1;
            }
        }
        if spare.len() < n {
            spare.resize(n, 0);
        }
        for (d, count) in counts.iter_mut().enumerate() {
            if count.contains(&n) {
                continue;
            }
            let mut sum = 0;
            for c in count.iter_mut() {
                (sum, *c) = (sum + *c, sum);
            }
            let digit = shift + d as u32 * RADIX_BITS;
            for &word in &packed[..n] {
                let at = &mut count[(word >> digit & MASK) as usize];
                spare[*at] = word;
                *at += 1;
            }
            std::mem::swap(packed, spare);
        }
        Order::Packed {
            words: &packed[..n],
            lo,
            shift,
        }
    }
}

/// An open time bucket: its groups ([module docs](self), "Layout").
struct OpenBucket<C> {
    /// Time-bucket id (`ts / bucket_micros`).
    id: u64,
    /// Split: the run, ascending by key. Unsplit: the groups in the order
    /// they opened.
    groups: Pages<(u64, C)>,
    /// Unsplit: group key → position in `groups`.
    index: Index,
    /// Split: the partials released since the log was last folded into the
    /// run, in release order (a partial is taken out of its entry only as
    /// the fold merges it).
    log: Pages<(u64, Option<C>)>,
    /// The groups an unsplit bucket is sized for when its first one
    /// arrives.
    room: usize,
}

impl<C> OpenBucket<C> {
    /// An empty bucket that will make room for `groups` groups. It
    /// allocates nothing until then: a split bucket holds no group until a
    /// partial moves in.
    fn new(id: u64, groups: usize) -> Self {
        Self {
            id,
            groups: Pages::default(),
            index: Index::with_capacity(0),
            log: Pages::default(),
            room: groups,
        }
    }

    /// Unsplit: sizes the index and the first page for `room` groups,
    /// before the bucket's first group.
    #[cold]
    fn make_room(&mut self) {
        self.groups = Pages::with_room(self.room);
        self.index = Index::with_capacity(self.room);
    }

    /// Unsplit: the cell of group `key`, `make` building it if the group is
    /// new.
    fn cell_mut(&mut self, key: u64, make: impl FnOnce() -> C) -> &mut C {
        if self.groups.len() == 0 {
            self.make_room();
        }
        let at = match self.index.find_or_insert(key) {
            Ok(at) => at,
            Err(at) => {
                self.groups.push((key, make()));
                at
            }
        };
        &mut self.groups.get_mut(at).1
    }

    /// Unsplit: gives the new group `key` the cell `cell`; `false`, doing
    /// nothing, if the bucket holds the group.
    fn insert(&mut self, key: u64, cell: C) -> bool {
        if self.groups.len() == 0 {
            self.make_room();
        }
        let new = self.index.find_or_insert(key).is_err();
        if new {
            self.groups.push((key, cell));
        }
        new
    }

    /// Split: folds the log into the run. The log's keys are sorted, ties
    /// in release order, and the run and the log merged in key order into
    /// fresh pages, each partial taken from the log as the merge reaches it
    /// (requested [`AHEAD`] partials early: they lie scattered over the
    /// log). A group of the run comes first, then its partials in release
    /// order; a group new to the run is its first partial, moved in.
    fn compact(&mut self, sorter: &mut Sorter, merge: impl Fn(&mut C, C)) {
        let Self { groups, log, .. } = self;
        if log.len() == 0 {
            return;
        }
        let order = sorter.sort(log.len(), log.iter().map(|&(key, _)| key));
        let mut out = Pages::with_room(groups.len() + log.len());
        let mut run = std::mem::take(groups).pages.into_iter();
        let mut page = run.next().unwrap_or_default().into_iter();
        // The run's next group, if its key is below `key` (or equals it).
        let mut next_below = |key: u64, or_equal: bool| loop {
            match page.as_slice().first() {
                Some(&(k, _)) if k < key || (or_equal && k == key) => return page.next(),
                Some(_) => return None,
                None => page = run.next()?.into_iter(),
            }
        };
        let mut partial = |i: usize| {
            if let Some((_, ahead)) = order.get(i + AHEAD) {
                prefetch(log.get(ahead));
            }
            let (key, pos) = order.get(i)?;
            Some((key, log.get_mut(pos).1.take()?))
        };
        let mut i = 0;
        while i < order.len() {
            let Some((key, first)) = partial(i) else {
                break;
            };
            i += 1;
            while let Some(group) = next_below(key, false) {
                out.push(group);
            }
            let mut cell = match next_below(key, true) {
                Some((_, mut cell)) => {
                    merge(&mut cell, first);
                    cell
                }
                None => first,
            };
            while let Some((_, later)) = (order.get(i))
                .is_some_and(|(k, _)| k == key)
                .then(|| partial(i))
                .flatten()
            {
                i += 1;
                merge(&mut cell, later);
            }
            out.push((key, cell));
        }
        while let Some(group) = next_below(u64::MAX, true) {
            out.push(group);
        }
        *groups = out;
        *log = Pages::default();
    }
}

/// The open buckets, ascending by id.
struct OpenBuckets<C> {
    open: Vec<OpenBucket<C>>,
    /// Population of the bucket that closed last.
    last_closed_groups: usize,
}

impl<C> OpenBuckets<C> {
    /// `bucket`, opened (in id order) if this is its first cell.
    fn bucket_mut(&mut self, bucket: u64) -> &mut OpenBucket<C> {
        let older = self.open.iter().rposition(|b| b.id <= bucket);
        let at = match older {
            Some(i) if self.open[i].id == bucket => i,
            _ => {
                let at = older.map_or(0, |i| i + 1);
                let opened = OpenBucket::new(bucket, self.last_closed_groups);
                self.open.insert(at, opened);
                at
            }
        };
        &mut self.open[at]
    }

    /// Appends a partial aggregate from the low level to its bucket's log.
    /// Inlined into each call site: as a call, it costs the per-tuple path
    /// measurably.
    #[inline(always)]
    fn log(&mut self, partial: Partial<C>) {
        let Partial { key, bucket, agg } = partial;
        self.bucket_mut(bucket).log.push((key, Some(agg)));
    }

    /// Ends a fold: a log grown longer than its run is folded into it.
    fn end_fold(&mut self, sorter: &mut Sorter, merge: impl Fn(&mut C, C)) {
        for b in self
            .open
            .iter_mut()
            .filter(|b| b.log.len() > b.groups.len())
        {
            b.compact(sorter, &merge);
        }
    }

    /// The open bucket `bucket`, if it is open.
    fn get(&self, bucket: u64) -> Option<&OpenBucket<C>> {
        self.open.iter().rfind(|b| b.id == bucket)
    }

    /// The two prefetch stages of an unsplit batch walk, run before it
    /// folds the tuple just before `rest`: the index entry of `rest`'s tuple
    /// 2·[`AHEAD`] − 1 is requested, and the tuple [`AHEAD`] − 1 — whose
    /// entry was requested [`AHEAD`] steps ago — is probed, without
    /// inserting, for its cell to be requested. A group or bucket that is
    /// not open yet has no line to request; one the walk opens or moves
    /// before reaching the tuple just costs a miss.
    #[inline]
    fn prefetch_ahead(&self, rest: &[Admitted]) {
        if let Some(a) = rest.get(2 * AHEAD - 1) {
            if let Some(b) = self.get(a.bucket) {
                if let Some(at) = b.index.home(a.key) {
                    prefetch(&b.index.entries[at]);
                }
            }
        }
        if let Some(a) = rest.get(AHEAD - 1) {
            if let Some(b) = self.get(a.bucket) {
                if let Some(at) = b.index.get(a.key) {
                    prefetch(b.groups.get(at));
                }
            }
        }
    }

    /// Removes the oldest open bucket if its id is below `target`.
    fn pop_below(&mut self, target: u64) -> Option<OpenBucket<C>> {
        if self.open.first()?.id >= target {
            return None;
        }
        Some(self.open.remove(0))
    }

    /// Every group's state, in no particular order.
    fn cells(&self) -> impl Iterator<Item = &C> {
        (self.open.iter()).flat_map(|b| b.groups.iter().map(|(_, cell)| cell))
    }
}

/// The group store over cells `K`.
pub(crate) struct Store<K: Cells> {
    cells: K,
    /// The low level, when the query is split.
    lfta: Option<Lfta<K::Cell>>,
    /// The open buckets' high-level groups. Behind a `RefCell` so that a
    /// reader through `&self` — a checkpoint, a space probe — can fold the
    /// logs first.
    open: RefCell<OpenBuckets<K::Cell>>,
    /// The sort every fold of a log and every unsplit close and checkpoint
    /// runs.
    sorter: RefCell<Sorter>,
    bucket_micros: Micros,
}

impl<K: Cells> Store<K> {
    /// An empty store for `query`, with an LFTA of its slot count when the
    /// query runs two-level over a splittable aggregate.
    pub(crate) fn new(cells: K, query: &Query) -> Self {
        let split = query.two_level && query.aggregate.splittable();
        Self {
            cells,
            lfta: split.then(|| Lfta::with_slots(query.lfta_slots)),
            open: RefCell::new(OpenBuckets {
                open: Vec::new(),
                last_closed_groups: 0,
            }),
            sorter: RefCell::default(),
            bucket_micros: query.bucket_micros,
        }
    }

    /// The open buckets, every log folded into its run first.
    fn compacted(&self) -> std::cell::Ref<'_, OpenBuckets<K::Cell>> {
        if self.lfta.is_some() {
            let (mut open, mut sorter) = (self.open.borrow_mut(), self.sorter.borrow_mut());
            for b in &mut open.open {
                b.compact(&mut sorter, |into, from| self.cells.merge(into, from));
            }
        }
        self.open.borrow()
    }
}

impl<K: Cells> GroupStore for Store<K> {
    fn fold_batch(&mut self, pkts: &[Packet], run: &[Admitted]) {
        let (cells, width) = (&self.cells, self.bucket_micros);
        let (open, sorter) = (self.open.get_mut(), self.sorter.get_mut());
        let Some(lfta) = &mut self.lfta else {
            // Unsplit: each tuple straight into its high-level group.
            for (i, a) in run.iter().enumerate() {
                open.prefetch_ahead(&run[i + 1..]);
                let pkt = &pkts[a.index];
                let at = cells.arrive(a.bucket_start, width, pkt);
                let b = open.bucket_mut(a.bucket);
                let cell = b.cell_mut(a.key, || cells.make(a.bucket_start, width));
                cells.update(cell, pkt, at);
            }
            return;
        };
        // Split: what a tuple's fold evicts joins its own bucket's log.
        for (i, a) in run.iter().enumerate() {
            if let Some(ahead) = run.get(i + AHEAD) {
                lfta.prefetch(ahead.key, ahead.bucket);
            }
            let pkt = &pkts[a.index];
            let at = cells.arrive(a.bucket_start, width, pkt);
            let make = || cells.make(a.bucket_start, width);
            if let Some(partial) = lfta.fold(a.key, a.bucket, make, |c| cells.update(c, pkt, at)) {
                open.log(partial);
            }
        }
        open.end_fold(sorter, |into, from| cells.merge(into, from));
    }

    fn fold_scaled(&mut self, pkt: &Packet, at: &Admitted, scale: f64) {
        let (cells, width) = (&self.cells, self.bucket_micros);
        let (open, sorter) = (self.open.get_mut(), self.sorter.get_mut());
        let arrival = cells.arrive(at.bucket_start, width, pkt);
        let b = open.bucket_mut(at.bucket);
        if self.lfta.is_none() {
            let group = b.cell_mut(at.key, || cells.make(at.bucket_start, width));
            return cells.update_scaled(group, pkt, arrival, scale);
        }
        // Split: the tuple is a partial of its own, released at once.
        let mut cell = cells.make(at.bucket_start, width);
        cells.update_scaled(&mut cell, pkt, arrival, scale);
        b.log.push((at.key, Some(cell)));
        open.end_fold(sorter, |into, from| cells.merge(into, from));
    }

    fn close_below(&mut self, target: u64, out: &mut dyn FnMut(Box<dyn Run>)) {
        let cells = &self.cells;
        let (open, sorter) = (self.open.get_mut(), self.sorter.get_mut());
        if let Some(lfta) = &mut self.lfta {
            lfta.drain_below(target, |p| open.log(p));
        }
        while let Some(mut bucket) = open.pop_below(target) {
            if self.lfta.is_some() {
                bucket.compact(sorter, |into, from| cells.merge(into, from));
            } else {
                // One exact-size page in key order, each page freed as it
                // drains into it. Keys are unique within a bucket, so the
                // unstable sort is deterministic.
                let mut groups = Vec::with_capacity(bucket.groups.len());
                groups.extend(std::mem::take(&mut bucket.groups));
                groups.sort_unstable_by_key(|&(key, _)| key);
                (bucket.groups.len, bucket.groups.pages) = (groups.len(), vec![groups]);
            }
            open.last_closed_groups = bucket.groups.len();
            out(Box::new(TypedRun {
                cells: cells.clone(),
                bucket: bucket.id,
                groups: bucket.groups,
            }));
        }
    }

    fn checkpoint_into(&self, out: &mut Vec<u8>) -> Option<()> {
        let cells = &self.cells;
        let open = self.compacted();
        let put = |out: &mut Vec<u8>, (key, cell): &(u64, K::Cell)| {
            key.put(out);
            put_framed(out, |out| cells.put(cell, out))
        };
        put_decay(cells, out);
        // A bucket whose only cells are LFTA residents has no groups to
        // write.
        let live = || open.open.iter().filter(|b| b.groups.len() > 0);
        live().count().put(out);
        let mut sorter = self.sorter.borrow_mut();
        for b in live() {
            b.id.put(out);
            b.groups.len().put(out);
            if self.lfta.is_some() {
                // The run: in key order.
                b.groups.iter().try_for_each(|group| put(out, group))?;
            } else {
                let order = sorter.sort(b.groups.len(), b.groups.iter().map(|&(key, _)| key));
                for (_, at) in (0..order.len()).filter_map(|i| order.get(i)) {
                    put(out, b.groups.get(at))?;
                }
            }
        }
        // The LFTA's residents *in place* — index, key, bucket, state —
        // not flushed first: restoring them into the same slots preserves
        // the exact future fold/evict/flush order, which is what makes
        // recovery byte-identical. Its counters and slot count travel in
        // the checkpoint header.
        if let Some(lfta) = &self.lfta {
            // Count residents while writing them (patching the count in
            // after) rather than paying a second full-table scan up front.
            let count_pos = out.len();
            0u64.put(out);
            let mut resident = 0u64;
            for (idx, p) in lfta.residents() {
                resident += 1;
                idx.put(out);
                p.key.put(out);
                p.bucket.put(out);
                put_framed(out, |out| cells.put(&p.agg, out))?;
            }
            out[count_pos..count_pos + 8].copy_from_slice(&resident.to_le_bytes());
        }
        Some(())
    }

    fn restore(
        &mut self,
        r: &mut Reader<'_>,
        lfta: Option<(u64, u64, u64)>,
    ) -> Result<(), CodecError> {
        let (cells, width) = (&self.cells, self.bucket_micros);
        let (open, sorter) = (self.open.get_mut(), self.sorter.get_mut());
        let framed = |r: &mut Reader<'_>, bucket: u64| {
            let len = u64::take(r)? as usize;
            cells.take(bucket_start(bucket, width), width, r.bytes(len)?)
        };
        take_decay(cells, r)?;
        // A bucket is at least its id and group count, a group its key and
        // state length.
        let n_buckets = r.count(16)?;
        let mut newest = None;
        for _ in 0..n_buckets {
            let bucket = u64::take(r)?;
            // As written: ascending. Holding a corrupt blob to that keeps
            // every open of a table an append.
            if newest.is_some_and(|newest| newest >= bucket) {
                return Err(CodecError::new("checkpoint buckets out of order"));
            }
            newest = Some(bucket);
            let n_groups = r.count(16)?;
            let b = open.bucket_mut(bucket);
            for _ in 0..n_groups {
                let key = u64::take(r)?;
                let cell = framed(r, bucket)?;
                if self.lfta.is_some() {
                    b.log.push((key, Some(cell)));
                } else if !b.insert(key, cell) {
                    return Err(CodecError::new(format!("group {key} twice in a bucket")));
                }
            }
            // Split: the groups as a run, a key met twice merged into one.
            b.compact(sorter, |into, from| cells.merge(into, from));
            if b.groups.len() != n_groups {
                return Err(CodecError::new("a group twice in a bucket"));
            }
        }
        match (lfta, &mut self.lfta) {
            (Some((n_slots, evictions, updates)), Some(table)) => {
                // The table's geometry is the query's, not the blob's: a
                // count read from bytes must neither size an allocation
                // nor restore partials into slots the query's table would
                // not have probed.
                if n_slots != table.n_slots() as u64 {
                    return Err(CodecError::new(format!(
                        "snapshot has {n_slots} LFTA slots, the query {}",
                        table.n_slots()
                    )));
                }
                table.resume_counters(evictions, updates);
                // A resident is at least its slot, key, bucket and state
                // length.
                for _ in 0..r.count(32)? {
                    let idx = u64::take(r)? as usize;
                    let key = u64::take(r)?;
                    let bucket = u64::take(r)?;
                    let agg = framed(r, bucket)?;
                    table.place(idx, Partial { key, bucket, agg })?;
                }
                Ok(())
            }
            (None, None) => Ok(()),
            (Some(_), None) => Err(CodecError::new(
                "snapshot has an LFTA but the query is single-level",
            )),
            (None, Some(_)) => Err(CodecError::new(
                "query is two-level but the snapshot has no LFTA",
            )),
        }
    }

    fn read_closed(&self, r: &mut Reader<'_>) -> Result<Vec<Box<dyn Run>>, CodecError> {
        let (cells, width) = (&self.cells, self.bucket_micros);
        let (mut runs, mut run) = (Vec::<Box<dyn Run>>::new(), None::<TypedRun<K>>);
        // A group is at least its three words.
        let n_groups = r.count(24)?;
        if n_groups > 0 {
            take_decay(cells, r)?;
        }
        for _ in 0..n_groups {
            let (bucket, key, len) = (u64::take(r)?, u64::take(r)?, u64::take(r)? as usize);
            let cell = cells.take(bucket_start(bucket, width), width, r.bytes(len)?)?;
            let last = run
                .as_ref()
                .and_then(|run| Some((run.bucket, run.groups.last()?.0)));
            if last.is_some_and(|last| last >= (bucket, key)) {
                return Err(CodecError::new("closed groups out of (bucket, key) order"));
            }
            match &mut run {
                Some(run) if run.bucket == bucket => run.groups.push((key, cell)),
                _ => {
                    let mut groups = Pages::default();
                    groups.push((key, cell));
                    let next = TypedRun {
                        cells: cells.clone(),
                        bucket,
                        groups,
                    };
                    runs.extend(run.replace(next).map(|run| Box::new(run) as Box<dyn Run>));
                }
            }
        }
        runs.extend(run.map(|run| Box::new(run) as Box<dyn Run>));
        Ok(runs)
    }

    fn space_bytes(&self) -> usize {
        let size = |c: &K::Cell| self.cells.size(c);
        let high: usize = self.compacted().cells().map(size).sum();
        high + self.lfta.as_ref().map_or(0, |l| l.size_bytes(size))
    }

    fn space_per_group(&self) -> Option<f64> {
        let open = self.compacted();
        let (bytes, groups) = (open.cells()).fold((0usize, 0usize), |(bytes, groups), c| {
            (bytes + self.cells.size(c), groups + 1)
        });
        (groups > 0).then(|| bytes as f64 / groups as f64)
    }

    fn lfta_counters(&self) -> Option<(u64, u64, u64)> {
        (self.lfta.as_ref()).map(|l| (l.n_slots() as u64, l.evictions(), l.updates()))
    }

    fn lfta_occupancy(&self) -> Option<usize> {
        self.lfta.as_ref().map(Lfta::occupancy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashMap};

    /// The most of `keys` whose home entries agree in an index sized for
    /// all of them.
    fn worst_pile(keys: impl Iterator<Item = u64> + Clone) -> usize {
        let index = Index::with_capacity(keys.clone().count());
        let mut piles = vec![0usize; index.entries.len()];
        for k in keys {
            piles[index.home(k).expect("sized")] += 1;
        }
        piles.into_iter().max().unwrap_or(0)
    }

    #[test]
    fn hasher_spreads_shifted_and_strided_keys() {
        // 1M keys each of the shapes packed (address, port) keys take: all
        // entropy above bit 20, above bit 32, or in multiples of a page.
        // The index starts a probe at the hash's low bits. Over its 2^21
        // entries a uniform hash piles ~8 keys on its worst home, where
        // the identity puts half the first shape, all of the second and
        // 2048 of the third on one — and a linear probe walks every pile
        // it joins, so
        // the mean probe, ~1.5 entries at load ½ for a uniform hash, is
        // what a bad one shows first.
        const N: u64 = 1 << 20;
        type Shape = fn(u64) -> u64;
        let shapes: [(&str, Shape); 3] = [
            ("i << 20", |i| i << 20),
            ("i << 32", |i| i << 32),
            ("i * 4096", |i| i * 4096),
        ];
        for (name, key) in shapes {
            let worst = worst_pile((0..N).map(key));
            assert!(worst <= 16, "{name}: {worst} keys share one home");
            let mut index = Index::with_capacity(N as usize);
            for k in (0..N).map(key) {
                assert!(index.find_or_insert(k).is_err(), "{name}: a key twice");
            }
            let mask = index.entries.len() - 1;
            let probed: usize = (index.entries.iter().enumerate())
                .filter(|(_, &(_, pos))| pos != 0)
                .map(|(at, &(k, _))| (at.wrapping_sub(index.home(k).expect("sized")) & mask) + 1)
                .sum();
            let mean = probed as f64 / N as f64;
            assert!(mean <= 2.0, "{name}: a mean probe of {mean} entries");
        }
    }

    #[test]
    fn index_agrees_with_a_map_model() {
        // Seeded inserts and lookups against `HashMap<u64, usize>`, from
        // no room at all, from an under-estimate and from plenty; the keys
        // include 0 and u64::MAX (an entry is empty by its position word,
        // never by its key), and repeat often enough that most inserts
        // find their key.
        for (seed, room) in [(1u64, 0usize), (2, 3), (3, 5000)] {
            let mut index = Index::with_capacity(room);
            let sized = index.entries.len();
            let mut model: HashMap<u64, usize> = HashMap::new();
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                mix64(state)
            };
            for _ in 0..20_000 {
                let r = next();
                let key = match r % 8 {
                    0 => 0,
                    1 => u64::MAX,
                    2 => r >> 3,
                    _ => ((r >> 3) % 3000) << 20,
                };
                if r & (1 << 40) == 0 {
                    let want = model.get(&key).copied().ok_or(model.len());
                    assert_eq!(index.find_or_insert(key), want, "seed {seed}, key {key}");
                    let len = model.len();
                    model.entry(key).or_insert(len);
                } else {
                    assert_eq!(index.get(key), model.get(&key).copied(), "seed {seed}");
                }
                assert_eq!(index.len(), model.len());
                assert!(index.len() * 4 <= index.entries.len() * 3, "load past 3/4");
            }
            assert!(model.contains_key(&0) && model.contains_key(&u64::MAX));
            if room < model.len() {
                assert!(index.entries.len() > sized, "seed {seed}: never grew");
            }
            for (&key, &pos) in &model {
                assert_eq!(index.get(key), Some(pos));
            }
        }
    }

    #[test]
    fn the_radix_sort_orders_as_a_stable_comparison_sort() {
        // Sizes on both sides of the comparison-sort cutoff, and keys of
        // the shapes packed keys take: full-width, entropy only above bit
        // 20, a handful that tie throughout, and (address, port) pairs.
        let mut sorter = Sorter::default();
        let mut state = 7u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            mix64(state)
        };
        type Shape = fn(u64) -> u64;
        let shapes: [Shape; 4] = [
            |r| r,
            |r| (r % 5000) << 20,
            |r| r % 7,
            |r| (r >> 44) << 16 | r & 0xFFFF,
        ];
        for n in [0, 1, 5, RADIX_FROM - 1, RADIX_FROM, 5_000, 70_000] {
            for shape in shapes {
                let keys: Vec<u64> = (0..n).map(|_| shape(next())).collect();
                let mut want: Vec<(u64, usize)> = keys.iter().copied().zip(0..).collect();
                want.sort_by_key(|&(key, _)| key);
                let order = sorter.sort(n, keys.iter().copied());
                let got: Vec<(u64, usize)> =
                    (0..order.len()).filter_map(|i| order.get(i)).collect();
                assert!(got == want, "{n} keys");
            }
        }
    }

    #[test]
    fn a_fold_merges_each_keys_partials_in_release_order() {
        // A cell is the ids of the partials merged into it, in merge order.
        // However the log is folded — when it outgrows the run at the end
        // of a fold, or at arbitrary points as a checkpoint folds it — each
        // group must be its partials in release order, the groups in key
        // order.
        let mut open = OpenBuckets::<Vec<u64>> {
            open: Vec::new(),
            last_closed_groups: 0,
        };
        open.bucket_mut(0);
        let mut sorter = Sorter::default();
        let merge = |into: &mut Vec<u64>, from: Vec<u64>| into.extend(from);
        let mut model: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let (mut state, mut folds) = (11u64, 0);
        for id in 0..40_000u64 {
            state = mix64(state ^ id);
            let key = (state % 3_000) << 20 | state >> 62;
            open.log(Partial {
                key,
                bucket: 0,
                agg: vec![id],
            });
            model.entry(key).or_default().push(id);
            if id % 1_000 == 999 {
                let before = open.open[0].log.len();
                open.end_fold(&mut sorter, merge);
                folds += usize::from(open.open[0].log.len() < before);
            }
            if state % 4_999 == 0 {
                open.open[0].compact(&mut sorter, merge);
            }
        }
        assert!(folds > 3, "{folds} folds at a fold's end");
        let b = &mut open.open[0];
        b.compact(&mut sorter, merge);
        let groups: Vec<(u64, Vec<u64>)> = std::mem::take(&mut b.groups).into_iter().collect();
        assert_eq!(groups, model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn buckets_stay_in_id_order_whatever_order_they_open_in() {
        let mut store = OpenBuckets::<u64> {
            open: Vec::new(),
            last_closed_groups: 0,
        };
        for id in [5u64, 3, 9, 4, 3, 9] {
            store.bucket_mut(id).cell_mut(id, || id);
        }
        let ids: Vec<u64> = store.open.iter().map(|b| b.id).collect();
        assert_eq!(ids, [3, 4, 5, 9]);
        assert_eq!(store.pop_below(5).map(|b| b.id), Some(3));
        assert_eq!(store.pop_below(5).map(|b| b.id), Some(4));
        assert!(store.pop_below(5).is_none());
        assert_eq!(store.open.len(), 2);
    }
}
