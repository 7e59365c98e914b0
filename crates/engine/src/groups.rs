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
//!   (or the bare count / `f64` of the undecayed built-ins). The store holds
//!   the factory's `Ops` once, so a new group is its state built in place —
//!   no `make`, no box, no `Arc` clone — and a closed one is freed with its
//!   bucket (see [`crate::aggregators`]).
//! - **Boxed** ([`Boxed`], the default). A hand-written UDAF's cell is the
//!   `Box<dyn Aggregator>` its factory's `make` builds, as is
//!   `multi_factory`'s composite.
//!
//! The engine holds the store as one `Box<dyn GroupStore>`: one virtual
//! call per admitted tuple. A cell leaves the store boxed only as a
//! [`ClosedGroup`] in state mode, which is what the sharded engine's
//! combiner, the supervisor and the durable store consume.
//!
//! **Layout.** A query keeps only as many buckets open as its slack spans —
//! one to three in practice — so the buckets sit in a short vector ordered
//! by id and a lookup is a scan of it. A bucket keeps its cells dense, in
//! small pages ([`page_len`]), and an index from `u64` group key to cell
//! hashed with [`mix64`]. Both start at the population of the bucket that
//! closed last, which is the best available estimate of its own: an
//! over-estimate is bounded by what a bucket really held (never a
//! constant), an under-estimate grows by doubling.
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
//! Checkpoint bytes are the same for both instantiations: each cell is
//! framed as a `u64` length and its state's own encoding.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use fd_core::checkpoint::{CodecError, Decode, Encode, Reader};
use fd_core::hash::{hash_bytes, mix64};

#[cfg(doc)]
use crate::engine::Engine;
use crate::engine::{ClosedGroup, EngineStats, Row};
use crate::lfta::{Lfta, Partial};
use crate::tuple::{bucket_end, bucket_start, secs, Micros, Packet};
use crate::udaf::{put_framed, AggValue, Aggregator, AggregatorFactory, Query};

/// Hashes a `u64` group key through [`mix64`]. Group keys are packed
/// addresses and ports — shifted, strided, low-entropy in whatever bits a
/// table indexes by — so the full-avalanche finalizer is what keeps probe
/// sequences short; it is a fixed bijection, not a keyed hash, the same
/// trade the LFTA's slot mapping and the shard router already make.
#[derive(Default)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.0 = mix64(self.0 ^ hash_bytes(bytes));
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        self.0 = mix64(key);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// What the store does to a cell, once per query: the one seam between
/// the generic store and an aggregate.
pub(crate) trait Cells: Send + 'static {
    /// A group's state as the store holds it.
    type Cell: Send;
    /// A fresh group's state for the bucket starting at `bucket_start`.
    fn make(&self, bucket_start: Micros) -> Self::Cell;
    /// Folds one tuple in.
    fn update(&self, cell: &mut Self::Cell, pkt: &Packet);
    /// Folds one tuple in with a Horvitz–Thompson scale (only a scalable
    /// aggregate sees one that is not `1.0`).
    fn update_scaled(&self, cell: &mut Self::Cell, pkt: &Packet, scale: f64);
    /// Absorbs a partial of the same group.
    fn merge(&self, into: &mut Self::Cell, from: Self::Cell);
    /// The answer at query time `t` (seconds).
    fn emit(&self, cell: &Self::Cell, t: f64) -> AggValue;
    /// The paper's space-per-group probe.
    fn size(&self, cell: &Self::Cell) -> usize;
    /// Appends the state's checkpoint bytes; `None` if it declines.
    fn put(&self, cell: &Self::Cell, out: &mut Vec<u8>) -> Option<()>;
    /// Reads back what [`put`](Self::put) wrote, for a group of the bucket
    /// starting at `bucket_start`.
    fn take(&self, bucket_start: Micros, bytes: &[u8]) -> Result<Self::Cell, CodecError>;
    /// The cell as the [`Aggregator`] a [`ClosedGroup`] carries.
    fn boxed(&self, cell: Self::Cell) -> Box<dyn Aggregator>;
}

/// The boxed instantiation: a `Box<dyn Aggregator>` per group from the
/// factory's `make`.
struct Boxed(Arc<dyn AggregatorFactory>);

impl Cells for Boxed {
    type Cell = Box<dyn Aggregator>;
    fn make(&self, bucket_start: Micros) -> Self::Cell {
        self.0.make(bucket_start)
    }
    fn update(&self, cell: &mut Self::Cell, pkt: &Packet) {
        cell.update(pkt);
    }
    fn update_scaled(&self, cell: &mut Self::Cell, pkt: &Packet, scale: f64) {
        cell.update_scaled(pkt, scale);
    }
    fn merge(&self, into: &mut Self::Cell, from: Self::Cell) {
        into.merge_boxed(from);
    }
    fn emit(&self, cell: &Self::Cell, t: f64) -> AggValue {
        cell.emit(t)
    }
    fn size(&self, cell: &Self::Cell) -> usize {
        cell.size_bytes()
    }
    fn put(&self, cell: &Self::Cell, out: &mut Vec<u8>) -> Option<()> {
        cell.checkpoint_into(out)
    }
    fn take(&self, bucket_start: Micros, bytes: &[u8]) -> Result<Self::Cell, CodecError> {
        let mut cell = self.0.make(bucket_start);
        cell.restore(bytes)?;
        Ok(cell)
    }
    fn boxed(&self, cell: Self::Cell) -> Box<dyn Aggregator> {
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

/// The group store as [`Engine`] holds it, whichever its cell.
pub trait GroupStore: Send {
    /// Folds an admitted tuple of `(bucket, key)` in — through the LFTA if
    /// the query is split — and says whether that evicted a resident.
    fn fold(&mut self, key: u64, bucket: u64, bucket_start: Micros, pkt: &Packet) -> bool;
    /// Folds a scaled tuple straight into its high-level group.
    fn fold_scaled(
        &mut self,
        key: u64,
        bucket: u64,
        bucket_start: Micros,
        pkt: &Packet,
        scale: f64,
    );
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

/// An open time bucket: its groups' cells, dense, in the order the groups
/// opened, and a hash index from group key to cell.
struct OpenBucket<C> {
    /// Time-bucket id (`ts / bucket_micros`).
    id: u64,
    /// Group key → position in `pages`.
    index: HashMap<u64, usize, BuildHasherDefault<KeyHasher>>,
    /// `(key, cell)` pairs, [`page_len`] to a page; every page but the last
    /// is full.
    pages: Vec<Vec<(u64, C)>>,
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

impl<C> OpenBucket<C> {
    /// An empty bucket with room for `groups` groups.
    fn new(id: u64, groups: usize) -> Self {
        let n = page_len::<C>();
        let mut pages = Vec::with_capacity(groups.div_ceil(n));
        if groups > 0 {
            pages.push(Vec::with_capacity(groups.min(n)));
        }
        Self {
            id,
            index: HashMap::with_capacity_and_hasher(groups, BuildHasherDefault::default()),
            pages,
        }
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

    /// The cell of group `key`, `make` building it if the group is new.
    fn cell_mut(&mut self, key: u64, make: impl FnOnce() -> C) -> &mut C {
        let len = self.index.len();
        match self.index.entry(key) {
            Entry::Occupied(e) => Self::at_mut(&mut self.pages, *e.get()),
            Entry::Vacant(e) => {
                e.insert(len);
                Self::push(&mut self.pages, key, make());
                Self::at_mut(&mut self.pages, len)
            }
        }
    }

    /// Gives group `key` the cell `cell`: a new group takes it as it
    /// stands, an existing one `merge`s it in.
    fn absorb(&mut self, key: u64, cell: C, merge: impl FnOnce(&mut C, C)) {
        let len = self.index.len();
        match self.index.entry(key) {
            Entry::Occupied(e) => merge(Self::at_mut(&mut self.pages, *e.get()), cell),
            Entry::Vacant(e) => {
                e.insert(len);
                Self::push(&mut self.pages, key, cell);
            }
        }
    }

    /// Every `(key, cell)`, in the order the groups opened.
    fn iter(&self) -> impl Iterator<Item = &(u64, C)> {
        self.pages.iter().flatten()
    }
}

/// The open buckets, ascending by id.
struct OpenBuckets<C> {
    open: Vec<OpenBucket<C>>,
    /// Population of the bucket that closed last.
    last_closed_groups: usize,
}

impl<C> OpenBuckets<C> {
    /// `bucket`, opened (in id order) if this is its first group.
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

    /// Takes a partial aggregate from the low level: the first partial of
    /// a group moves in as it stands, later ones `merge` into it.
    fn absorb(&mut self, partial: Partial<C>, merge: impl FnOnce(&mut C, C)) {
        (self.bucket_mut(partial.bucket)).absorb(partial.key, partial.agg, merge);
    }

    /// Removes the oldest open bucket if its id is below `target`.
    fn pop_below(&mut self, target: u64) -> Option<OpenBucket<C>> {
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
    /// The open buckets' high-level groups.
    open: OpenBuckets<K::Cell>,
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
            bucket_micros: query.bucket_micros,
        }
    }
}

impl<K: Cells> GroupStore for Store<K> {
    fn fold(&mut self, key: u64, bucket: u64, bucket_start: Micros, pkt: &Packet) -> bool {
        let cells = &self.cells;
        let Some(lfta) = &mut self.lfta else {
            let group = (self.open.bucket_mut(bucket)).cell_mut(key, || cells.make(bucket_start));
            cells.update(group, pkt);
            return false;
        };
        let make = || cells.make(bucket_start);
        let Some(partial) = lfta.fold(key, bucket, make, |c| cells.update(c, pkt)) else {
            return false;
        };
        self.open
            .absorb(partial, |into, from| cells.merge(into, from));
        true
    }

    fn fold_scaled(
        &mut self,
        key: u64,
        bucket: u64,
        bucket_start: Micros,
        pkt: &Packet,
        scale: f64,
    ) {
        let cells = &self.cells;
        let group = (self.open.bucket_mut(bucket)).cell_mut(key, || cells.make(bucket_start));
        cells.update_scaled(group, pkt, scale);
    }

    fn close_below(&mut self, target: u64, out: Closing<'_>) -> Option<u64> {
        let (cells, open) = (&self.cells, &mut self.open);
        if let Some(lfta) = &mut self.lfta {
            lfta.drain_below(target, |p| {
                open.absorb(p, |into, from| cells.merge(into, from))
            });
        }
        let width = self.bucket_micros;
        let Closing {
            rows,
            mut state,
            stats,
        } = out;
        let mut newest = None;
        while let Some(bucket) = open.pop_below(target) {
            let id = bucket.id;
            newest = Some(id);
            stats.buckets_closed += 1;
            // Keys are unique within a bucket, so the unstable sorts are
            // deterministic.
            if let Some(state) = &mut state {
                let first = state.len();
                state.extend(
                    bucket
                        .pages
                        .into_iter()
                        .flatten()
                        .map(|(key, cell)| ClosedGroup {
                            bucket: id,
                            key,
                            agg: cells.boxed(cell),
                        }),
                );
                state[first..].sort_unstable_by_key(|c| c.key);
                continue;
            }
            let bucket_start = bucket_start(id, width);
            let t_end = secs(bucket_end(id, width));
            let first = rows.len();
            rows.extend(bucket.iter().map(|&(key, ref cell)| Row {
                bucket_start,
                key,
                value: cells.emit(cell, t_end),
            }));
            rows[first..].sort_unstable_by_key(|r| r.key);
            stats.rows_out += (rows.len() - first) as u64;
        }
        newest
    }

    fn checkpoint_into(&self, out: &mut Vec<u8>) -> Option<()> {
        let cells = &self.cells;
        let put = |out: &mut Vec<u8>, cell: &K::Cell| put_framed(out, |out| cells.put(cell, out));
        self.open.open.len().put(out);
        for bucket in &self.open.open {
            bucket.id.put(out);
            bucket.index.len().put(out);
            // Keys by value: the sort then compares within one dense
            // array instead of chasing a pointer per probe.
            let mut entries: Vec<(u64, &K::Cell)> = bucket.iter().map(|(k, c)| (*k, c)).collect();
            entries.sort_unstable_by_key(|&(key, _)| key);
            for (key, cell) in entries {
                key.put(out);
                put(out, cell)?;
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
                put(out, &p.agg)?;
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
            let open = self.open.bucket_mut(bucket);
            for _ in 0..n_groups {
                let key = u64::take(r)?;
                let cell = framed(r, bucket)?;
                let mut fresh = true;
                open.absorb(key, cell, |_, _| fresh = false);
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
    use std::hash::BuildHasher;

    /// The most keys whose hashes agree in the bits `cell` extracts — what
    /// a table indexing by those bits would probe through.
    fn worst_pile(keys: impl Iterator<Item = u64>, cells: usize, cell: fn(u64) -> u64) -> usize {
        let hasher = BuildHasherDefault::<KeyHasher>::default();
        let mut piles = vec![0usize; cells];
        for k in keys {
            piles[cell(hasher.hash_one(k)) as usize] += 1;
        }
        piles.into_iter().max().unwrap_or(0)
    }

    #[test]
    fn hasher_spreads_shifted_and_strided_keys() {
        // 1M keys each of the shapes packed (address, port) keys take: all
        // entropy above bit 20, above bit 32, or in multiples of a page.
        // The std table picks a cell by the hash's low bits and tells
        // neighbours apart by its top seven. Over 2^20 cells a uniform hash
        // piles ~9 keys on its worst cell, where the identity puts all 1M
        // of the first two shapes (and 4096 of the third) on one, with a
        // single tag for all of them.
        const N: u64 = 1 << 20;
        type Shape = fn(u64) -> u64;
        let shapes: [(&str, Shape); 3] = [
            ("i << 20", |i| i << 20),
            ("i << 32", |i| i << 32),
            ("i * 4096", |i| i * 4096),
        ];
        for (name, key) in shapes {
            let worst = worst_pile((0..N).map(key), 1 << 20, |h| h & ((1 << 20) - 1));
            assert!(worst <= 16, "{name}: {worst} keys share one cell");
            let tagged = worst_pile((0..N).map(key), 128, |h| h >> 57);
            assert!(
                tagged <= 2 * (N as usize / 128),
                "{name}: {tagged} keys share one tag"
            );
        }
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
