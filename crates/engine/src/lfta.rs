//! The low-level aggregation table (Gigascope's LFTA).
//!
//! GS splits splittable queries into a low-level part running a *fixed-size*
//! hash table close to the packet source, and a high-level part combining
//! the partial aggregates. The low table is direct-mapped: a colliding group
//! evicts the resident entry, which is flushed upward as a partial
//! aggregate. This is what makes undecayed and forward-decayed aggregation
//! so cheap in Figure 2(a): most tuples fold into a slot with one hash and
//! one arithmetic op, and only evictions touch the (slower) high level.
//!
//! The table is generic over its cell `C`, the state a slot holds. The
//! engine's group store instantiates it twice: with the bare fd-core
//! summary of a built-in factory, held inline in the slot, and with the
//! `Box<dyn Aggregator>` a UDAF's factory makes (the default, and what
//! [`Lfta::new`] / [`Lfta::update`] drive). Slot mapping, eviction and
//! flush order are the same code for both.
//!
//! The store folds a batch's tuples through the table one by one, in
//! arrival order, requesting the slot of a tuple a few places ahead
//! (`Lfta::prefetch`) so that it is in cache by the time that tuple's fold
//! reads it; what a fold evicts is appended, in the order released, to the
//! log of its bucket, which the high level folds into the bucket's groups
//! later, in that order.

use fd_core::checkpoint::CodecError;
use fd_core::hash::mix64;

use crate::groups::prefetch;
use crate::tuple::{Micros, Packet};
use crate::udaf::{Aggregator, AggregatorFactory};

/// A partial aggregate evicted (or flushed) from the low-level table.
pub struct Partial<C = Box<dyn Aggregator>> {
    /// Group key.
    pub key: u64,
    /// Time bucket id (bucket start / bucket width).
    pub bucket: u64,
    /// The partial aggregate state.
    pub agg: C,
}

/// The fixed-size direct-mapped partial-aggregation table. A slot holds its
/// resident as the [`Partial`] it will leave as.
pub struct Lfta<C = Box<dyn Aggregator>> {
    slots: Vec<Option<Partial<C>>>,
    /// `slots.len() - 1` when the slot count is a power of two: the slot
    /// index is then the hash's low bits, the same mapping as the
    /// remainder without the division.
    mask: Option<usize>,
    evictions: u64,
    updates: u64,
}

impl Lfta {
    /// Creates a table with `n_slots` slots of boxed aggregators.
    ///
    /// # Panics
    /// Panics if `n_slots == 0`.
    pub fn new(n_slots: usize) -> Self {
        Self::with_slots(n_slots)
    }

    /// Folds a tuple into its group's slot, making the group's aggregator
    /// with `factory` if it has none. If the slot is held by a different
    /// (group, bucket), that resident is evicted and returned so the engine
    /// can forward it to the high level.
    pub fn update(
        &mut self,
        key: u64,
        bucket: u64,
        pkt: &Packet,
        factory: &dyn AggregatorFactory,
        bucket_start: Micros,
    ) -> Option<Partial> {
        self.fold(
            key,
            bucket,
            || factory.make(bucket_start),
            |a| a.update(pkt),
        )
    }
}

impl<C> Lfta<C> {
    /// A table with `n_slots` slots.
    ///
    /// # Panics
    /// Panics if `n_slots == 0`.
    pub(crate) fn with_slots(n_slots: usize) -> Self {
        assert!(n_slots > 0);
        let mut slots = Vec::with_capacity(n_slots);
        slots.resize_with(n_slots, || None);
        Self {
            slots,
            mask: n_slots.is_power_of_two().then(|| n_slots - 1),
            evictions: 0,
            updates: 0,
        }
    }

    /// The slot `(key, bucket)` maps to.
    #[inline]
    fn slot_of(&self, key: u64, bucket: u64) -> usize {
        let hash = mix64(key ^ bucket.rotate_left(32)) as usize;
        match self.mask {
            Some(mask) => hash & mask,
            None => hash % self.slots.len(),
        }
    }

    /// Requests the cache line of the `(key, bucket)` slot, ahead of its
    /// [`fold`](Self::fold).
    #[inline]
    pub(crate) fn prefetch(&self, key: u64, bucket: u64) {
        prefetch(&self.slots[self.slot_of(key, bucket)]);
    }

    /// Folds a tuple into the `(key, bucket)` slot with `update`, after
    /// `make` fills it if another group holds it (that resident is evicted
    /// and returned) or none does. Inlined into each call site, closures
    /// and all: as a call, it costs the per-tuple path measurably.
    #[inline(always)]
    pub(crate) fn fold(
        &mut self,
        key: u64,
        bucket: u64,
        make: impl FnOnce() -> C,
        update: impl FnOnce(&mut C),
    ) -> Option<Partial<C>> {
        self.updates += 1;
        let idx = self.slot_of(key, bucket);
        let slot = &mut self.slots[idx];
        match slot {
            Some(s) if s.key == key && s.bucket == bucket => {
                update(&mut s.agg);
                None
            }
            _ => {
                let mut agg = make();
                update(&mut agg);
                let evicted = slot.replace(Partial { key, bucket, agg });
                self.evictions += u64::from(evicted.is_some());
                evicted
            }
        }
    }

    /// Flushes every resident entry of a bucket before `target` (batch
    /// bucket close).
    pub fn flush_below(&mut self, target: u64) -> Vec<Partial<C>> {
        let mut flushed = Vec::new();
        self.drain_below(target, |p| flushed.push(p));
        flushed
    }

    /// Flushes everything (end of stream).
    pub fn flush_all(&mut self) -> Vec<Partial<C>> {
        self.flush_below(u64::MAX)
    }

    /// Hands every resident of a bucket before `target` to `sink`, in slot
    /// order. No bucket id reaches `u64::MAX` (a bucket is
    /// at least a second of microseconds wide), so that target drains
    /// everything.
    pub(crate) fn drain_below(&mut self, target: u64, mut sink: impl FnMut(Partial<C>)) {
        for slot in &mut self.slots {
            if let Some(p) = slot.take_if(|s| s.bucket < target) {
                sink(p);
            }
        }
    }

    /// Number of collision evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Number of tuple updates so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Number of occupied slots.
    pub fn occupancy(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Approximate memory footprint: every slot inline, plus each
    /// resident's state as `size` reports it. A by-value cell's slot holds
    /// the whole state, so its slots are as wide as the state is.
    pub fn size_bytes(&self, size: impl Fn(&C) -> usize) -> usize {
        self.residents()
            .map(|(_, s)| size(&s.agg) + std::mem::size_of::<Partial<C>>())
            .sum::<usize>()
            + self.slots.capacity() * std::mem::size_of::<Option<Partial<C>>>()
    }

    /// Total slot count (resident or not) — recorded in checkpoints so
    /// restore can rebuild the exact same table geometry.
    pub(crate) fn n_slots(&self) -> usize {
        self.slots.len()
    }

    /// The residents with their slot indices, in slot order.
    pub(crate) fn residents(&self) -> impl Iterator<Item = (usize, &Partial<C>)> {
        (self.slots.iter().enumerate()).filter_map(|(idx, slot)| Some((idx, slot.as_ref()?)))
    }

    /// Puts a checkpointed resident back into the slot it was recorded in.
    pub(crate) fn place(&mut self, idx: usize, resident: Partial<C>) -> Result<(), CodecError> {
        let slot = (self.slots.get_mut(idx))
            .ok_or_else(|| CodecError::new(format!("LFTA slot {idx} out of range")))?;
        *slot = Some(resident);
        Ok(())
    }

    /// Restores the activity counters a checkpoint header carries.
    pub(crate) fn resume_counters(&mut self, evictions: u64, updates: u64) {
        self.evictions = evictions;
        self.updates = updates;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Proto;
    use crate::udaf::{AggValue, FnFactory};
    use std::any::Any;

    struct CountAgg(u64);
    impl Aggregator for CountAgg {
        fn update(&mut self, _: &Packet) {
            self.0 += 1;
        }
        fn merge_boxed(&mut self, other: Box<dyn Aggregator>) {
            self.0 += other.as_any_box().downcast::<CountAgg>().expect("type").0;
        }
        fn emit(&self, _t: f64) -> AggValue {
            AggValue::Float(self.0 as f64)
        }
        fn size_bytes(&self) -> usize {
            8
        }
        fn as_any_box(self: Box<Self>) -> Box<dyn Any> {
            self
        }
    }

    fn pkt(ts: Micros) -> Packet {
        Packet {
            ts,
            src_ip: 0,
            dst_ip: 0,
            src_port: 0,
            dst_port: 0,
            len: 1,
            proto: Proto::Tcp,
        }
    }

    /// A count two ways: a boxed aggregator from a factory, and a bare
    /// `u64` held in the slot. Every test runs both.
    trait Counting: Sized {
        fn table(n_slots: usize) -> Lfta<Self>;
        fn feed(lfta: &mut Lfta<Self>, key: u64, bucket: u64) -> Option<Partial<Self>>;
        fn count(&self) -> u64;
    }

    impl Counting for Box<dyn Aggregator> {
        fn table(n_slots: usize) -> Lfta<Self> {
            Lfta::new(n_slots)
        }
        fn feed(lfta: &mut Lfta<Self>, key: u64, bucket: u64) -> Option<Partial<Self>> {
            let f = FnFactory::new("count", true, |_| Box::new(CountAgg(0)));
            lfta.update(key, bucket, &pkt(1), f.as_ref(), 0)
        }
        fn count(&self) -> u64 {
            self.emit(0.0).as_float().expect("float") as u64
        }
    }

    impl Counting for u64 {
        fn table(n_slots: usize) -> Lfta<Self> {
            Lfta::with_slots(n_slots)
        }
        fn feed(lfta: &mut Lfta<Self>, key: u64, bucket: u64) -> Option<Partial<Self>> {
            lfta.fold(key, bucket, || 0, |n| *n += 1)
        }
        fn count(&self) -> u64 {
            *self
        }
    }

    /// The cases, each generic over the cell.
    mod cases {
        use super::*;

        pub(super) fn same_group_folds_in_place<C: Counting>() {
            let mut lfta = C::table(64);
            for _ in 0..10 {
                assert!(C::feed(&mut lfta, 7, 0).is_none());
            }
            assert_eq!(lfta.evictions(), 0);
            assert_eq!(lfta.occupancy(), 1);
            let flushed = lfta.flush_all();
            assert_eq!(flushed.len(), 1);
            assert_eq!(flushed[0].agg.count(), 10);
        }

        pub(super) fn collisions_evict_partials<C: Counting>() {
            // A 1-slot table forces every key change to evict.
            let mut lfta = C::table(1);
            assert!(C::feed(&mut lfta, 1, 0).is_none());
            let evicted = C::feed(&mut lfta, 2, 0).expect("eviction");
            assert_eq!(evicted.key, 1);
            assert_eq!(lfta.evictions(), 1);
        }

        pub(super) fn bucket_change_evicts_same_key_on_collision<C: Counting>() {
            // The slot hash covers (key, bucket); with one slot the new bucket
            // must evict the old bucket's partial rather than fold into it.
            let mut lfta = C::table(1);
            assert!(C::feed(&mut lfta, 7, 0).is_none());
            let evicted = C::feed(&mut lfta, 7, 1).expect("eviction");
            assert_eq!((evicted.key, evicted.bucket), (7, 0));
            assert_eq!(evicted.agg.count(), 1);
        }

        pub(super) fn flush_below_is_selective<C: Counting>() {
            let mut lfta = C::table(1024);
            for key in 0..20u64 {
                C::feed(&mut lfta, key, key % 2);
            }
            let b0 = lfta.flush_below(1);
            assert!(b0.iter().all(|p| p.bucket == 0));
            let remaining = lfta.flush_all();
            assert!(remaining.iter().all(|p| p.bucket == 1));
            assert_eq!(b0.len() + remaining.len(), 20);
        }

        pub(super) fn masked_slot_mapping_equals_the_remainder<C: Counting>() {
            // The same stream through a 64-slot table (mask) and the reference
            // mapping: every tuple must land where `hash % slots` puts it, or a
            // restore into recorded slot positions would change eviction order.
            let mut lfta = C::table(64);
            for key in 0..1000u64 {
                C::feed(&mut lfta, key, key % 3);
                let idx = (mix64(key ^ (key % 3).rotate_left(32)) as usize) % 64;
                let resident = lfta.slots[idx].as_ref().expect("just written");
                assert_eq!((resident.key, resident.bucket), (key, key % 3));
            }
        }

        pub(super) fn partials_sum_to_total_under_heavy_collisions<C: Counting>() {
            // Whatever the eviction pattern, no tuple may be lost.
            let mut lfta = C::table(8);
            let mut partials = Vec::new();
            for i in 0..10_000u64 {
                partials.extend(C::feed(&mut lfta, i % 100, 0));
            }
            partials.extend(lfta.flush_all());
            assert_eq!(partials.iter().map(|p| p.agg.count()).sum::<u64>(), 10_000);
            assert!(
                lfta.evictions() > 0,
                "expected collisions with 8 slots / 100 keys"
            );
        }
    }

    macro_rules! both_cells {
        ($($name:ident),* $(,)?) => {
            $(#[test]
            fn $name() {
                cases::$name::<Box<dyn Aggregator>>();
                cases::$name::<u64>();
            })*
        };
    }

    both_cells!(
        same_group_folds_in_place,
        collisions_evict_partials,
        bucket_change_evicts_same_key_on_collision,
        flush_below_is_selective,
        masked_slot_mapping_equals_the_remainder,
        partials_sum_to_total_under_heavy_collisions,
    );
}
