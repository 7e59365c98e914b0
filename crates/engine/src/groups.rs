//! The engine's high-level group store: the open time buckets and, per
//! bucket, one table of group key → aggregation state.
//!
//! A query keeps only as many buckets open as its slack spans — one to
//! three in practice — so the buckets sit in a short vector ordered by id
//! and a lookup is a scan of it. Each bucket's table is keyed by the `u64`
//! group key and hashed with [`mix64`]; a new table starts at the
//! population of the bucket that closed last, which is the best available
//! estimate of its own: an over-estimate is bounded by what a bucket really
//! held (never a constant), an under-estimate grows by doubling as before.
//!
//! Table iteration order is arbitrary and never observable: every reader
//! that produces rows or bytes sorts by key first, and the order in which
//! partials merge into a group is the order the LFTA released them.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use fd_core::hash::{hash_bytes, mix64};

use crate::lfta::Partial;
use crate::udaf::Aggregator;

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

/// One bucket's groups.
pub(crate) type GroupTable = HashMap<u64, Box<dyn Aggregator>, BuildHasherDefault<KeyHasher>>;

/// An open time bucket.
pub(crate) struct OpenBucket {
    /// Time-bucket id (`ts / bucket_micros`).
    pub(crate) id: u64,
    pub(crate) groups: GroupTable,
}

/// The open buckets, ascending by id.
#[derive(Default)]
pub(crate) struct OpenBuckets {
    open: Vec<OpenBucket>,
    /// Population of the bucket that closed last.
    last_closed_groups: usize,
}

impl OpenBuckets {
    /// The table of `bucket`, opened (in id order) if this is its first
    /// group.
    pub(crate) fn table_mut(&mut self, bucket: u64) -> &mut GroupTable {
        let older = self.open.iter().rposition(|b| b.id <= bucket);
        let at = match older {
            Some(i) if self.open[i].id == bucket => i,
            _ => {
                let at = older.map_or(0, |i| i + 1);
                let groups = GroupTable::with_capacity_and_hasher(
                    self.last_closed_groups,
                    BuildHasherDefault::default(),
                );
                self.open.insert(at, OpenBucket { id: bucket, groups });
                at
            }
        };
        &mut self.open[at].groups
    }

    /// Takes a partial aggregate from the low level. The first partial of
    /// a group *is* the group's high-level state and moves in as it
    /// stands; later ones merge into it.
    pub(crate) fn absorb(&mut self, partial: Partial) {
        match self.table_mut(partial.bucket).entry(partial.key) {
            Entry::Occupied(mut e) => e.get_mut().merge_boxed(partial.agg),
            Entry::Vacant(e) => {
                e.insert(partial.agg);
            }
        }
    }

    /// Removes the oldest open bucket.
    pub(crate) fn pop_oldest(&mut self) -> Option<OpenBucket> {
        if self.open.is_empty() {
            return None;
        }
        let bucket = self.open.remove(0);
        self.last_closed_groups = bucket.groups.len();
        Some(bucket)
    }

    /// Removes the oldest open bucket if its id is below `target`.
    pub(crate) fn pop_below(&mut self, target: u64) -> Option<OpenBucket> {
        if self.open.first()?.id >= target {
            return None;
        }
        self.pop_oldest()
    }

    /// The open buckets, ascending by id.
    pub(crate) fn iter(&self) -> std::slice::Iter<'_, OpenBucket> {
        self.open.iter()
    }

    /// Every live group's state, in no particular order.
    pub(crate) fn aggregators(&self) -> impl Iterator<Item = &dyn Aggregator> {
        self.open
            .iter()
            .flat_map(|b| b.groups.values().map(|agg| agg.as_ref()))
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

    struct Unit;
    impl Aggregator for Unit {
        fn update(&mut self, _: &crate::tuple::Packet) {}
        fn merge_boxed(&mut self, _: Box<dyn Aggregator>) {}
        fn emit(&self, _: f64) -> crate::udaf::AggValue {
            crate::udaf::AggValue::Float(0.0)
        }
        fn size_bytes(&self) -> usize {
            0
        }
        fn as_any_box(self: Box<Self>) -> Box<dyn std::any::Any> {
            self
        }
    }

    #[test]
    fn buckets_stay_in_id_order_whatever_order_they_open_in() {
        let mut store = OpenBuckets::default();
        for id in [5u64, 3, 9, 4, 3, 9] {
            store.table_mut(id).insert(id, Box::new(Unit));
        }
        let ids: Vec<u64> = store.iter().map(|b| b.id).collect();
        assert_eq!(ids, [3, 4, 5, 9]);
        assert_eq!(store.pop_below(5).map(|b| b.id), Some(3));
        assert_eq!(store.pop_below(5).map(|b| b.id), Some(4));
        assert!(store.pop_below(5).is_none());
        assert_eq!(store.iter().len(), 2);
    }
}
