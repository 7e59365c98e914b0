//! The engine's group store: every group's state a query holds, and
//! everything done to it — the LFTA's fold, evict and flush, the open
//! buckets' move-in rule and merges, bucket close into rows or
//! [`ClosedGroup`]s, the sorted checkpoint walk, restore and the space
//! probes — written once, generic over the cell `C` a group's state lives
//! in.
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
//! call per admitted run of tuples ([`GroupStore::fold_batch`]). A cell
//! leaves the store boxed only as a [`ClosedGroup`] in state mode, which
//! is what the sharded engine's combiner, the supervisor and the durable
//! store consume.
//!
//! **Layout.** A query keeps only as many buckets open as its slack spans —
//! one to three in practice — so the buckets sit in a short vector ordered
//! by id and a lookup is a scan of it. A bucket keeps its cells dense, in
//! small pages ([`page_len`]), and an open-addressing [`Index`] from `u64`
//! group key to cell, probed from its [`mix64`] hash. Both start, when the
//! bucket's first group arrives, at the population of the bucket that
//! closed last, which is the best available estimate of its own: an
//! over-estimate is bounded by what a bucket really held (never a
//! constant), an under-estimate grows by doubling.
//!
//! **Batched fold.** A run folds in two passes. The LFTA pass folds its
//! tuples in order, requesting the slot of the tuple [`AHEAD`] places on,
//! and collects what it evicts, in release order. The absorb pass moves
//! those partials into their buckets as a two-stage software pipeline
//! (Chen, Ailamaki, Gibbons & Mowry, ICDE 2004): the index entry of the
//! partial 2·[`AHEAD`] on is requested, the one [`AHEAD`] on is probed and
//! its cell requested, and only then is the current one absorbed — so a
//! bucket far past the cache costs the next groups' misses in flight, not
//! two dependent ones each. An unsplit store runs the same pipeline over
//! the run. The [`prefetch`] hints change no result.
//!
//! **One clock per bucket.** What every cell of a bucket shares — a
//! decayed aggregate's landmark and renormalizer, [`Cells::Clock`] — the
//! bucket holds once. Each tuple is weighed against its bucket's clock
//! before it folds, LFTA or not, so a bucket opens with its first tuple. If
//! an arrival moves an exponential `g`'s clock (Section VI-A), the bucket
//! records the move and every cell under the clock — its groups, its LFTA
//! residents, its partials awaiting absorption — takes it lazily
//! ([`Moves`]), when the store next reaches the cell: a move costs the
//! cells reached, not the bucket's population. A checkpoint writes each
//! cell under its bucket's clock, as its standalone summary is written; a
//! restored cell's clock is joined into its bucket's, aligning whichever
//! side is behind, as a merge does.
//!
//! **Move-in.** The first partial the LFTA releases for a group *is* that
//! group's high-level state and moves in as it stands — a plain copy of the
//! cell — and later ones merge into it. A first partial equals what `make`
//! plus one merge would build (`tests/group_store.rs` holds every
//! splittable factory to that).
//!
//! **Order.** The order cells sit in — the order groups opened — is never
//! observable: every reader that produces rows or bytes sorts by key first, and the order in
//! which partials merge into a group is the order the LFTA released them.
//! A run changes neither: its tuples fold into the LFTA in arrival order,
//! its partials are absorbed in release order, and it is folded whole
//! before any close, checkpoint, probe or restore sees the store.
//! Checkpoint bytes are the same for both instantiations: each cell is
//! framed as a `u64` length and its state's own encoding.

use std::sync::Arc;

use fd_core::checkpoint::{CodecError, Decode, Encode, Reader};
use fd_core::hash::mix64;
use fd_core::Timestamp;

#[cfg(doc)]
use crate::engine::Engine;
use crate::engine::{ClosedGroup, EngineStats, Row};
use crate::lfta::{Lfta, Partial};
use crate::tuple::{bucket_end, bucket_start, secs, Micros, Packet};
use crate::udaf::{put_framed, AggValue, Aggregator, AggregatorFactory, Query};

/// How many items ahead of the one being folded a batch walk requests a
/// cache line: the LFTA pass the slot of tuple *i* + `AHEAD`, the absorb
/// and direct passes the cell of item *i* + `AHEAD` and the index entry of
/// item *i* + 2·`AHEAD`. Far enough that a line arrives before it is
/// used, near enough that it is not evicted again first.
const AHEAD: usize = 8;

/// Asks the core to start loading the cache line holding `t`. A hint: it
/// neither reads nor writes `t` and changes no result, only when a later
/// access to `t` finds it in cache. A no-op off x86_64.
// One of the two unsafe sites in the workspace (the other is
// `telemetry::thread_cpu_ns`): std has no stable prefetch hint.
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

/// An arrival as a decayed cell takes it: its time, clamped to the
/// landmark, and its static weight `g(tᵢ − L)` against its bucket's clock.
pub(crate) type Arrival = (Timestamp, f64);

/// What the store does to a cell, once per query: the one seam between
/// the generic store and an aggregate.
pub(crate) trait Cells: Send + 'static {
    /// A group's state as the store holds it.
    type Cell: Send + 'static;
    /// What every group of a bucket shares, held once by the bucket: a
    /// decayed aggregate's clock (its `g` anchored at the bucket start, and
    /// a `Renormalizer`), `()` for every other.
    type Clock: Clone + Send + 'static;
    /// The clock of the bucket starting at `bucket_start`.
    fn clock(&self, bucket_start: Micros) -> Self::Clock;
    /// A fresh group's state for the bucket starting at `bucket_start`.
    fn make(&self, bucket_start: Micros) -> Self::Cell;
    /// A tuple's arrival under `clock`, and the factor every cell under the
    /// clock must be multiplied by first if the tuple moved its landmark
    /// (Section VI-A).
    fn arrive(&self, clock: &mut Self::Clock, pkt: &Packet) -> (Arrival, Option<f64>);
    /// Multiplies every weight a cell stores by `factor`.
    fn rescale(&self, _cell: &mut Self::Cell, _factor: f64) {}
    /// Folds one tuple in.
    fn update(&self, cell: &mut Self::Cell, pkt: &Packet, at: Arrival);
    /// Folds one tuple in with a Horvitz–Thompson scale (only a scalable
    /// aggregate sees one that is not `1.0`).
    fn update_scaled(&self, cell: &mut Self::Cell, pkt: &Packet, at: Arrival, scale: f64);
    /// Absorbs a partial of the same group, under the same clock.
    fn merge(&self, into: &mut Self::Cell, from: Self::Cell);
    /// The answer at query time `t` (seconds).
    fn emit(&self, clock: &Self::Clock, cell: &Self::Cell, t: f64) -> AggValue;
    /// The paper's space-per-group probe.
    fn size(&self, cell: &Self::Cell) -> usize;
    /// Appends the state's checkpoint bytes, written as its standalone
    /// summary under `clock` once scaled by the moves it has `missed`;
    /// `None` if it declines.
    fn put(
        &self,
        clock: &Self::Clock,
        cell: &Self::Cell,
        missed: &[f64],
        out: &mut Vec<u8>,
    ) -> Option<()>;
    /// Reads back what [`put`](Self::put) wrote, for a group of the bucket
    /// starting at `bucket_start`: the cell and the clock it was written
    /// under.
    fn take(
        &self,
        bucket_start: Micros,
        bytes: &[u8],
    ) -> Result<(Self::Clock, Self::Cell), CodecError>;
    /// Moves `ours` to the newer landmark of the two: the factors the cells
    /// under `ours` and under `theirs` must be multiplied by, or `None` if
    /// the clocks began at different landmarks.
    fn join(
        &self,
        _ours: &mut Self::Clock,
        _theirs: &Self::Clock,
    ) -> Option<(Option<f64>, Option<f64>)> {
        Some((None, None))
    }
    /// The cell, under `clock`, as the [`Aggregator`] a [`ClosedGroup`]
    /// carries.
    fn boxed(&self, clock: Self::Clock, cell: Self::Cell) -> Box<dyn Aggregator>;
}

/// The boxed instantiation: a `Box<dyn Aggregator>` per group from the
/// factory's `make`, which keeps its own clock.
struct Boxed(Arc<dyn AggregatorFactory>);

impl Cells for Boxed {
    type Cell = Box<dyn Aggregator>;
    type Clock = ();
    fn clock(&self, _: Micros) {}
    fn make(&self, bucket_start: Micros) -> Self::Cell {
        self.0.make(bucket_start)
    }
    fn arrive(&self, _: &mut (), _: &Packet) -> (Arrival, Option<f64>) {
        ((Timestamp::ZERO, 1.0), None)
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
    fn emit(&self, _: &(), cell: &Self::Cell, t: f64) -> AggValue {
        cell.emit(t)
    }
    fn size(&self, cell: &Self::Cell) -> usize {
        cell.size_bytes()
    }
    fn put(&self, _: &(), cell: &Self::Cell, _: &[f64], out: &mut Vec<u8>) -> Option<()> {
        cell.checkpoint_into(out)
    }
    fn take(&self, bucket_start: Micros, bytes: &[u8]) -> Result<((), Self::Cell), CodecError> {
        let mut cell = self.0.make(bucket_start);
        cell.restore(bytes)?;
        Ok(((), cell))
    }
    fn boxed(&self, _: (), cell: Self::Cell) -> Box<dyn Aggregator> {
        cell
    }
}

/// The default store: `query`'s groups boxed.
pub(crate) fn boxed(query: &Query) -> Box<dyn GroupStore> {
    Box::new(Store::new(Boxed(Arc::clone(&query.aggregate)), query))
}

/// Where closing buckets go — rows, or in state mode raw state — and the
/// counters they bump.
pub struct Closing<'a> {
    pub(crate) rows: &'a mut Vec<Row>,
    pub(crate) state: Option<&'a mut Vec<ClosedGroup>>,
    pub(crate) stats: &'a mut EngineStats,
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
    /// Closes every bucket below `target` (`u64::MAX`: all of them) into
    /// `out`, in id order, each bucket's groups in key order. Returns the
    /// id of the newest bucket closed.
    fn close_below(&mut self, target: u64, out: Closing<'_>) -> Option<u64>;
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
    /// The footprint of all live state.
    fn space_bytes(&self) -> usize;
    /// The mean size of a high-level group, `None` without one.
    fn space_per_group(&self) -> Option<f64>;
    /// `(n_slots, evictions, updates)` of the LFTA, `None` if unsplit.
    fn lfta_counters(&self) -> Option<(u64, u64, u64)>;
    /// Occupied LFTA slots, `None` if unsplit.
    fn lfta_occupancy(&self) -> Option<usize>;
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
    fn len(&self) -> usize {
        self.len
    }
}

/// How many moves of a clock leave every finite weight under it zero: a
/// move multiplies by at most 1 / `RESCALE_THRESHOLD` = 1e-150, and five
/// such factors take even `f64::MAX` below the smallest subnormal. A cell
/// that missed more takes only the last `SETTLED`, which leaves exactly
/// what taking them all, one by one, would.
const SETTLED: u64 = 5;

/// The moves of a bucket's clock, which the cells under it take lazily: a
/// move is recorded here, and each cell — a group, an LFTA resident, a
/// partial awaiting absorption — takes the moves it missed when the store
/// next reaches it: folds into it, absorbs, closes or checkpoints it.
/// Empty until the clock first moves.
#[derive(Default)]
struct Moves {
    /// The factors of the last [`SETTLED`] moves, move `k` at `k % SETTLED`.
    last: [f64; SETTLED as usize],
    /// How many times the clock has moved.
    count: u64,
    /// How many moves each group's cell has taken, by position.
    taken: Vec<u64>,
}

impl Moves {
    /// The factors of the moves after the first `taken`, oldest first.
    fn since(&self, taken: u64) -> impl Iterator<Item = f64> + '_ {
        let from = taken.max(self.count.saturating_sub(SETTLED));
        (from..self.count).map(|k| self.last[(k % SETTLED) as usize])
    }

    /// Brings a cell that has taken `*taken` moves up to the clock.
    #[inline]
    fn take<C>(&self, taken: &mut u64, cell: &mut C, rescale: impl Fn(&mut C, f64)) {
        if *taken < self.count {
            self.since(*taken).for_each(|f| rescale(cell, f));
            *taken = self.count;
        }
    }

    /// Brings the group at position `at` up to the clock.
    #[inline]
    fn take_at<C>(&mut self, at: usize, cell: &mut C, rescale: impl Fn(&mut C, f64)) {
        if let Some(mut taken) = self.taken.get(at).copied() {
            self.take(&mut taken, cell, rescale);
            self.taken[at] = taken;
        }
    }
}

/// An open time bucket: its clock, its groups' cells, dense, in the order
/// the groups opened, and an [`Index`] from group key to cell.
struct OpenBucket<C, T> {
    /// Time-bucket id (`ts / bucket_micros`).
    id: u64,
    /// The clock every cell of the bucket — its groups here, its LFTA
    /// residents and partials — is weighed against.
    clock: T,
    /// The clock's moves its groups have not all taken.
    moves: Moves,
    /// Group key → position in `pages`.
    index: Index,
    /// `(key, cell)` pairs, [`page_len`] to a page; every page but the last
    /// is full.
    pages: Vec<Vec<(u64, C)>>,
    /// The groups the bucket is sized for when its first one arrives.
    room: usize,
}

/// How many `(key, cell)` pairs a full page holds: a power of two, at
/// most 64 KiB of them. A page is a small block, so a bucket's cells are
/// many blocks the allocator hands from one bucket to the next, as it does
/// boxes, rather than one block the size of the bucket's population —
/// which, freed, moves glibc's mmap threshold and leaves the heap holding
/// what falls below it.
fn page_len<C>() -> usize {
    let fit = (64 << 10) / std::mem::size_of::<(u64, C)>().max(1);
    1 << fit.max(1).ilog2()
}

impl<C, T> OpenBucket<C, T> {
    /// An empty bucket that will make room for `groups` groups. It
    /// allocates nothing until then: a bucket opened for its clock by the
    /// LFTA holds no group until a partial moves in, and sizing it early
    /// held two buckets' tables at once.
    fn new(id: u64, clock: T, groups: usize) -> Self {
        Self {
            id,
            clock,
            moves: Moves::default(),
            index: Index::with_capacity(0),
            pages: Vec::new(),
            room: groups,
        }
    }

    /// Sizes the index and the first page for `room` groups,
    /// before the bucket's first group.
    #[cold]
    fn make_room(&mut self) {
        let n = page_len::<C>();
        self.pages.reserve_exact(self.room.div_ceil(n));
        if self.room > 0 {
            self.pages.push(Vec::with_capacity(self.room.min(n)));
        }
        self.index = Index::with_capacity(self.room);
    }

    /// The `(key, cell)` pair at position `at`.
    fn at(&self, at: usize) -> &(u64, C) {
        let n = page_len::<C>();
        &self.pages[at / n][at % n]
    }

    /// The cell at position `at`.
    fn at_mut(pages: &mut [Vec<(u64, C)>], at: usize) -> &mut C {
        let n = page_len::<C>();
        &mut pages[at / n][at % n].1
    }

    /// Appends a group's cell at the position after the last. A first
    /// page grows with its bucket; a later one starts full-size.
    fn push(pages: &mut Vec<Vec<(u64, C)>>, key: u64, cell: C) {
        let n = page_len::<C>();
        match pages.last_mut() {
            Some(page) if page.len() < n => page.push((key, cell)),
            _ => {
                let mut page = Vec::with_capacity(if pages.is_empty() { 1 } else { n });
                page.push((key, cell));
                pages.push(page);
            }
        }
    }

    /// Appends a new group's cell, which has taken every move.
    fn push_new(&mut self, key: u64, cell: C) {
        Self::push(&mut self.pages, key, cell);
        if self.moves.count > 0 {
            self.moves.taken.push(self.moves.count);
        }
    }

    /// The cell of group `key`, up to the clock (`rescale`d by the moves it
    /// missed), `make` building it if the group is new.
    fn cell_mut(
        &mut self,
        key: u64,
        make: impl FnOnce() -> C,
        rescale: impl Fn(&mut C, f64),
    ) -> &mut C {
        if self.pages.is_empty() {
            self.make_room();
        }
        let at = match self.index.find_or_insert(key) {
            Ok(at) => at,
            Err(at) => {
                self.push_new(key, make());
                at
            }
        };
        let cell = Self::at_mut(&mut self.pages, at);
        self.moves.take_at(at, cell, rescale);
        cell
    }

    /// Gives group `key` the cell `cell`: a new group takes it as it
    /// stands, an existing one, up to the clock, `merge`s it in.
    fn absorb(
        &mut self,
        key: u64,
        cell: C,
        merge: impl FnOnce(&mut C, C),
        rescale: impl Fn(&mut C, f64),
    ) {
        if self.pages.is_empty() {
            self.make_room();
        }
        match self.index.find_or_insert(key) {
            Ok(at) => {
                let into = Self::at_mut(&mut self.pages, at);
                self.moves.take_at(at, into, rescale);
                merge(into, cell);
            }
            Err(_) => self.push_new(key, cell),
        }
    }

    /// Records a move of the clock by `factor`, for its cells to take.
    /// Only an exponential `g` moves a clock, once α·age passes
    /// ln 1e150 ≈ 345.
    #[cold]
    #[inline(never)]
    fn record(&mut self, factor: f64) {
        let moves = &mut self.moves;
        if moves.count == 0 {
            moves.taken = vec![0; self.index.len()];
        }
        moves.last[(moves.count % SETTLED) as usize] = factor;
        moves.count += 1;
    }

    /// Brings every group up to the clock, and forgets its moves.
    fn settle(&mut self, rescale: impl Fn(&mut C, f64)) {
        let moves = std::mem::take(&mut self.moves);
        let cells = self.pages.iter_mut().flatten().map(|(_, cell)| cell);
        for (cell, &taken) in cells.zip(&moves.taken) {
            moves.since(taken).for_each(|f| rescale(cell, f));
        }
    }

    /// The moves the cell of group `key` has yet to take, oldest first.
    fn missed(&self, key: u64) -> Vec<f64> {
        if self.moves.taken.is_empty() {
            return Vec::new();
        }
        let taken = self.index.get(key).map(|at| self.moves.taken[at]);
        taken.map_or_else(Vec::new, |taken| self.moves.since(taken).collect())
    }

    /// Every `(key, cell)`, in the order the groups opened.
    fn iter(&self) -> impl Iterator<Item = &(u64, C)> {
        self.pages.iter().flatten()
    }
}

/// The open buckets, ascending by id.
struct OpenBuckets<C, T> {
    open: Vec<OpenBucket<C, T>>,
    /// Population of the bucket that closed last.
    last_closed_groups: usize,
}

impl<C, T> OpenBuckets<C, T> {
    /// `bucket`, opened (in id order, under the clock `clock` makes) if
    /// this is its first cell.
    fn bucket_mut(&mut self, bucket: u64, clock: impl FnOnce() -> T) -> &mut OpenBucket<C, T> {
        let older = self.open.iter().rposition(|b| b.id <= bucket);
        let at = match older {
            Some(i) if self.open[i].id == bucket => i,
            _ => {
                let at = older.map_or(0, |i| i + 1);
                let opened = OpenBucket::new(bucket, clock(), self.last_closed_groups);
                self.open.insert(at, opened);
                at
            }
        };
        &mut self.open[at]
    }

    /// Takes a partial aggregate from the low level: the first partial of
    /// a group moves in as it stands, later ones `merge` into it. The
    /// partial's bucket is open — its fold opened it — so the two share a
    /// clock. Inlined into each of `fold_batch`'s call sites: as a call, it
    /// costs the per-tuple path measurably.
    #[inline(always)]
    fn absorb(
        &mut self,
        (partial, mut taken): (Partial<C>, u64),
        clock: impl FnOnce(u64) -> T,
        merge: impl FnOnce(&mut C, C),
        rescale: impl Fn(&mut C, f64),
    ) {
        let Partial {
            key,
            bucket,
            mut agg,
        } = partial;
        let opened = || {
            debug_assert!(false, "a partial of bucket {bucket} outlived its clock");
            clock(bucket)
        };
        let b = self.bucket_mut(bucket, opened);
        b.moves.take(&mut taken, &mut agg, &rescale);
        b.absorb(key, agg, merge, rescale);
    }

    /// The open bucket `bucket`, if it is open.
    fn get(&self, bucket: u64) -> Option<&OpenBucket<C, T>> {
        self.open.iter().rfind(|b| b.id == bucket)
    }

    /// The two prefetch stages of a batch walk, run before it folds the
    /// item just before `rest`: the index entry of `rest`'s item
    /// 2·[`AHEAD`] − 1 is requested, and the item [`AHEAD`] − 1 — whose
    /// entry was requested [`AHEAD`] steps ago — is probed, without
    /// inserting, for its cell to be requested. A group or bucket that is
    /// not open yet has no line to request; one the walk opens or moves
    /// before reaching the item just costs a miss.
    #[inline]
    fn prefetch_ahead<I>(&self, rest: &[I], group: impl Fn(&I) -> (u64, u64)) {
        if let Some((bucket, key)) = rest.get(2 * AHEAD - 1).map(&group) {
            if let Some(b) = self.get(bucket) {
                if let Some(at) = b.index.home(key) {
                    prefetch(&b.index.entries[at]);
                }
            }
        }
        if let Some((bucket, key)) = rest.get(AHEAD - 1).map(&group) {
            if let Some(b) = self.get(bucket) {
                if let Some(at) = b.index.get(key) {
                    prefetch(b.at(at));
                }
            }
        }
    }

    /// Removes the oldest open bucket if its id is below `target`.
    fn pop_below(&mut self, target: u64) -> Option<OpenBucket<C, T>> {
        if self.open.first()?.id >= target {
            return None;
        }
        let bucket = self.open.remove(0);
        self.last_closed_groups = bucket.index.len();
        Some(bucket)
    }

    /// Every live group's state, in no particular order.
    fn cells(&self) -> impl Iterator<Item = &C> {
        self.open
            .iter()
            .flat_map(|b| b.iter().map(|(_, cell)| cell))
    }
}

/// The group store over cells `K`.
pub(crate) struct Store<K: Cells> {
    cells: K,
    /// The low level, when the query is split.
    lfta: Option<Lfta<K::Cell>>,
    /// The open buckets' clocks and high-level groups.
    open: OpenBuckets<K::Cell, K::Clock>,
    /// How many moves of its bucket's clock each LFTA resident has taken,
    /// by slot ([`Moves`]): empty until a clock first moves.
    resident_taken: Vec<u64>,
    /// What a batch's LFTA pass evicted, in release order, with the moves
    /// each had taken, until its absorb pass moves it into `open`: empty
    /// between calls, its buffer reused.
    evicted: Vec<(Partial<K::Cell>, u64)>,
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
            open: OpenBuckets {
                open: Vec::new(),
                last_closed_groups: 0,
            },
            resident_taken: Vec::new(),
            evicted: Vec::new(),
            bucket_micros: query.bucket_micros,
        }
    }
}

/// A tuple's arrival under bucket `b`'s clock, recording the move if it
/// moves the clock.
#[inline(always)]
fn arrive<K: Cells>(cells: &K, b: &mut OpenBucket<K::Cell, K::Clock>, pkt: &Packet) -> Arrival {
    let (at, moved) = cells.arrive(&mut b.clock, pkt);
    if let Some(factor) = moved {
        b.record(factor);
    }
    at
}

/// The LFTA fold of a tuple of group `key` into bucket `b` once a clock has
/// moved: the slot's resident, if it is the group's, first takes the moves
/// it missed; one evicted leaves with the count it had taken, for its
/// bucket to bring it up when it is absorbed.
#[inline(never)]
fn fold_taking<K: Cells>(
    cells: &K,
    lfta: &mut Lfta<K::Cell>,
    resident_taken: &mut Vec<u64>,
    b: &OpenBucket<K::Cell, K::Clock>,
    key: u64,
    fold: impl FnOnce(&mut Lfta<K::Cell>) -> Option<Partial<K::Cell>>,
) -> Option<(Partial<K::Cell>, u64)> {
    if resident_taken.is_empty() {
        *resident_taken = vec![0; lfta.n_slots()];
    }
    let slot = lfta.slot_of(key, b.id);
    let taken = &mut resident_taken[slot];
    let rescale = |cell: &mut K::Cell, factor| cells.rescale(cell, factor);
    if let Some(resident) = lfta.resident_mut(slot) {
        if (resident.key, resident.bucket) == (key, b.id) {
            b.moves.take(taken, &mut resident.agg, rescale);
        }
    }
    let had = std::mem::replace(taken, b.moves.count);
    fold(lfta).map(|partial| (partial, had))
}

/// Brings a restored `cell`, written under `theirs`, and the cells under
/// bucket `b`'s clock to the newer of the two landmarks, as a merge would.
/// A restore's moves are taken at once: its bucket has recorded none.
fn adopt<K: Cells>(
    cells: &K,
    b: &mut OpenBucket<K::Cell, K::Clock>,
    lfta: Option<&mut Lfta<K::Cell>>,
    theirs: &K::Clock,
    cell: &mut K::Cell,
) -> Result<(), CodecError> {
    let (ours, mine) = (cells.join(&mut b.clock, theirs))
        .ok_or_else(|| CodecError::new("a group's landmark is not its bucket's start"))?;
    if let Some(factor) = ours {
        debug_assert_eq!(b.moves.count, 0, "a restored bucket records no move");
        let residents = (lfta.into_iter().flat_map(Lfta::residents_mut))
            .filter(|p| p.bucket == b.id)
            .map(|p| &mut p.agg);
        let groups = b.pages.iter_mut().flatten().map(|(_, cell)| cell);
        groups
            .chain(residents)
            .for_each(|cell| cells.rescale(cell, factor));
    }
    if let Some(factor) = mine {
        cells.rescale(cell, factor);
    }
    Ok(())
}

impl<K: Cells> GroupStore for Store<K> {
    fn fold_batch(&mut self, pkts: &[Packet], run: &[Admitted]) {
        let (cells, open, width) = (&self.cells, &mut self.open, self.bucket_micros);
        let merge = |into: &mut K::Cell, from| cells.merge(into, from);
        let rescale = |cell: &mut K::Cell, factor| cells.rescale(cell, factor);
        let clock = |bucket| cells.clock(bucket_start(bucket, width));
        let Some(lfta) = &mut self.lfta else {
            // Unsplit: each tuple straight into its high-level group.
            for (i, a) in run.iter().enumerate() {
                open.prefetch_ahead(&run[i + 1..], |a| (a.bucket, a.key));
                let pkt = &pkts[a.index];
                let b = open.bucket_mut(a.bucket, || cells.clock(a.bucket_start));
                let at = arrive(cells, b, pkt);
                let cell = b.cell_mut(a.key, || cells.make(a.bucket_start), rescale);
                cells.update(cell, pkt, at);
            }
            return;
        };
        // A tuple is weighed against its bucket's clock, which opens with
        // the bucket's first tuple, LFTA or not.
        let resident_taken = &mut self.resident_taken;
        let mut fold = |lfta: &mut Lfta<K::Cell>, a: &Admitted| {
            let pkt = &pkts[a.index];
            let b = open.bucket_mut(a.bucket, || cells.clock(a.bucket_start));
            let at = arrive(cells, b, pkt);
            let fold = |lfta: &mut Lfta<K::Cell>| {
                let make = || cells.make(a.bucket_start);
                lfta.fold(a.key, a.bucket, make, |c| cells.update(c, pkt, at))
            };
            if b.moves.count == 0 && resident_taken.is_empty() {
                return fold(lfta).map(|partial| (partial, 0));
            }
            fold_taking(cells, lfta, resident_taken, b, a.key, fold)
        };
        // A run of one — `Engine::process` — has nothing to look ahead to.
        if let [a] = run {
            if let Some(partial) = fold(lfta, a) {
                open.absorb(partial, clock, merge, rescale);
            }
            return;
        }
        // The LFTA pass, in tuple order; then the absorb pass, in the order
        // the LFTA released the partials.
        let evicted = &mut self.evicted;
        for (i, a) in run.iter().enumerate() {
            if let Some(ahead) = run.get(i + AHEAD) {
                lfta.prefetch(ahead.key, ahead.bucket);
            }
            if let Some(partial) = fold(lfta, a) {
                evicted.push(partial);
            }
        }
        let mut rest = evicted.drain(..);
        loop {
            open.prefetch_ahead(rest.as_slice(), |(p, _)| (p.bucket, p.key));
            let Some(partial) = rest.next() else {
                return;
            };
            open.absorb(partial, clock, merge, rescale);
        }
    }

    fn fold_scaled(&mut self, pkt: &Packet, at: &Admitted, scale: f64) {
        let cells = &self.cells;
        let b = (self.open).bucket_mut(at.bucket, || cells.clock(at.bucket_start));
        let arrival = arrive(cells, b, pkt);
        let rescale = |cell: &mut K::Cell, factor| cells.rescale(cell, factor);
        let group = b.cell_mut(at.key, || cells.make(at.bucket_start), rescale);
        cells.update_scaled(group, pkt, arrival, scale);
    }

    fn close_below(&mut self, target: u64, out: Closing<'_>) -> Option<u64> {
        let (cells, open, width) = (&self.cells, &mut self.open, self.bucket_micros);
        let rescale = |cell: &mut K::Cell, factor| cells.rescale(cell, factor);
        if let Some(lfta) = &mut self.lfta {
            let clock = |bucket| cells.clock(bucket_start(bucket, width));
            let taken = |slot| self.resident_taken.get(slot).copied().unwrap_or(0);
            lfta.drain_below(target, |slot, p| {
                let merge = |into: &mut K::Cell, from| cells.merge(into, from);
                open.absorb((p, taken(slot)), clock, merge, rescale)
            });
        }
        let Closing {
            rows,
            mut state,
            stats,
        } = out;
        let mut newest = None;
        while let Some(mut bucket) = open.pop_below(target) {
            bucket.settle(rescale);
            let id = bucket.id;
            newest = Some(id);
            stats.buckets_closed += 1;
            // Keys are unique within a bucket, so the unstable sorts are
            // deterministic.
            if let Some(state) = &mut state {
                let (clock, first) = (&bucket.clock, state.len());
                let mut pages = bucket.pages;
                // Every page stays allocated until every cell is boxed: boxes
                // carved from the holes of pages freed one by one would keep
                // the next bucket's pages from reusing them.
                let moved = pages.iter_mut().flat_map(|page| page.drain(..));
                state.extend(moved.map(|(key, cell)| ClosedGroup {
                    bucket: id,
                    key,
                    agg: cells.boxed(clock.clone(), cell),
                }));
                drop(pages);
                state[first..].sort_unstable_by_key(|c| c.key);
                continue;
            }
            let bucket_start = bucket_start(id, width);
            let t_end = secs(bucket_end(id, width));
            let first = rows.len();
            rows.extend(bucket.iter().map(|&(key, ref cell)| Row {
                bucket_start,
                key,
                value: cells.emit(&bucket.clock, cell, t_end),
            }));
            rows[first..].sort_unstable_by_key(|r| r.key);
            stats.rows_out += (rows.len() - first) as u64;
        }
        newest
    }

    fn checkpoint_into(&self, out: &mut Vec<u8>) -> Option<()> {
        let cells = &self.cells;
        let put = |out: &mut Vec<u8>, clock: &K::Clock, cell: &K::Cell, missed: &[f64]| {
            put_framed(out, |out| cells.put(clock, cell, missed, out))
        };
        // A bucket whose only cells are LFTA residents has no groups to
        // write; its clock travels with them.
        let live = || self.open.open.iter().filter(|b| b.index.len() > 0);
        live().count().put(out);
        for bucket in live() {
            bucket.id.put(out);
            bucket.index.len().put(out);
            // Keys by value: the sort then compares within one dense
            // array instead of chasing a pointer per probe.
            let mut entries: Vec<(u64, &K::Cell)> = bucket.iter().map(|(k, c)| (*k, c)).collect();
            entries.sort_unstable_by_key(|&(key, _)| key);
            for (key, cell) in entries {
                key.put(out);
                put(out, &bucket.clock, cell, &bucket.missed(key))?;
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
                let bucket = self.open.get(p.bucket);
                let bucket = bucket.expect("a resident's bucket is open");
                let taken = self.resident_taken.get(idx).copied().unwrap_or(0);
                let missed: Vec<f64> = bucket.moves.since(taken).collect();
                put(out, &bucket.clock, &p.agg, &missed)?;
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
        let framed = |r: &mut Reader<'_>, bucket: u64| {
            let len = u64::take(r)? as usize;
            cells.take(bucket_start(bucket, width), r.bytes(len)?)
        };
        let clock = |bucket| move || cells.clock(bucket_start(bucket, width));
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
            let open = self.open.bucket_mut(bucket, clock(bucket));
            for _ in 0..n_groups {
                let key = u64::take(r)?;
                let (theirs, mut cell) = framed(r, bucket)?;
                adopt(cells, open, None, &theirs, &mut cell)?;
                let mut fresh = true;
                open.absorb(key, cell, |_, _| fresh = false, |_, _| {});
                if !fresh {
                    return Err(CodecError::new(format!("group {key} twice in a bucket")));
                }
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
                    let (theirs, mut agg) = framed(r, bucket)?;
                    let open = self.open.bucket_mut(bucket, clock(bucket));
                    adopt(cells, open, Some(&mut *table), &theirs, &mut agg)?;
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

    fn space_bytes(&self) -> usize {
        let size = |c: &K::Cell| self.cells.size(c);
        let high: usize = self.open.cells().map(size).sum();
        high + self.lfta.as_ref().map_or(0, |l| l.size_bytes(size))
    }

    fn space_per_group(&self) -> Option<f64> {
        let (bytes, groups) = (self.open.cells()).fold((0usize, 0usize), |(bytes, groups), c| {
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
    use std::collections::HashMap;

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
    fn buckets_stay_in_id_order_whatever_order_they_open_in() {
        let mut store = OpenBuckets::<u64, ()> {
            open: Vec::new(),
            last_closed_groups: 0,
        };
        for id in [5u64, 3, 9, 4, 3, 9] {
            store.bucket_mut(id, || ()).cell_mut(id, || id, |_, _| {});
        }
        let ids: Vec<u64> = store.open.iter().map(|b| b.id).collect();
        assert_eq!(ids, [3, 4, 5, 9]);
        assert_eq!(store.pop_below(5).map(|b| b.id), Some(3));
        assert_eq!(store.pop_below(5).map(|b| b.id), Some(4));
        assert!(store.pop_below(5).is_none());
        assert_eq!(store.open.len(), 2);
    }
}
