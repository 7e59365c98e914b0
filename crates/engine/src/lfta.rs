//! The low-level aggregation table (Gigascope's LFTA).
//!
//! GS splits splittable queries into a low-level part running a *fixed-size*
//! hash table close to the packet source, and a high-level part combining
//! the partial aggregates. The low table is direct-mapped: a colliding group
//! evicts the resident entry, which is flushed upward as a partial
//! aggregate. This is what makes undecayed and forward-decayed aggregation
//! so cheap in Figure 2(a): most tuples fold into a slot with one hash and
//! one arithmetic op, and only evictions touch the (slower) high level.

use fd_core::hash::mix64;

use crate::tuple::{bucket_start, Micros, Packet};
use crate::udaf::{Aggregator, AggregatorFactory};

/// A partial aggregate evicted (or flushed) from the low-level table.
pub struct Partial {
    /// Group key.
    pub key: u64,
    /// Time bucket id (bucket start / bucket width).
    pub bucket: u64,
    /// The partial aggregate state.
    pub agg: Box<dyn Aggregator>,
}

/// The fixed-size direct-mapped partial-aggregation table. A slot holds its
/// resident as the [`Partial`] it will leave as.
pub struct Lfta {
    slots: Vec<Option<Partial>>,
    /// `slots.len() - 1` when the slot count is a power of two: the slot
    /// index is then the hash's low bits, the same mapping as the
    /// remainder without the division.
    mask: Option<usize>,
    evictions: u64,
    updates: u64,
}

impl Lfta {
    /// Creates a table with `n_slots` slots.
    ///
    /// # Panics
    /// Panics if `n_slots == 0`.
    pub fn new(n_slots: usize) -> Self {
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

    /// Folds a tuple into its group's slot. If the slot is held by a
    /// different (group, bucket), that resident is evicted and returned so
    /// the engine can forward it to the high level.
    pub fn update(
        &mut self,
        key: u64,
        bucket: u64,
        pkt: &Packet,
        factory: &dyn AggregatorFactory,
        bucket_start: Micros,
    ) -> Option<Partial> {
        self.updates += 1;
        let hash = mix64(key ^ bucket.rotate_left(32)) as usize;
        let idx = match self.mask {
            Some(mask) => hash & mask,
            None => hash % self.slots.len(),
        };
        let slot = &mut self.slots[idx];
        match slot {
            Some(s) if s.key == key && s.bucket == bucket => {
                s.agg.update(pkt);
                None
            }
            _ => {
                let mut agg = factory.make(bucket_start);
                agg.update(pkt);
                let evicted = slot.replace(Partial { key, bucket, agg });
                self.evictions += u64::from(evicted.is_some());
                evicted
            }
        }
    }

    /// Flushes every resident entry of a bucket before `target` (batch
    /// bucket close).
    pub fn flush_below(&mut self, target: u64) -> Vec<Partial> {
        self.flush_if(|b| b < target)
    }

    /// Flushes everything (end of stream).
    pub fn flush_all(&mut self) -> Vec<Partial> {
        self.flush_if(|_| true)
    }

    fn flush_if(&mut self, pred: impl Fn(u64) -> bool) -> Vec<Partial> {
        self.slots
            .iter_mut()
            .filter_map(|slot| slot.take_if(|s| pred(s.bucket)))
            .collect()
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

    /// Approximate memory footprint of the resident partial aggregates.
    pub fn size_bytes(&self) -> usize {
        self.slots
            .iter()
            .flatten()
            .map(|s| s.agg.size_bytes() + std::mem::size_of::<Partial>())
            .sum::<usize>()
            + self.slots.capacity() * std::mem::size_of::<Option<Partial>>()
    }

    /// Total slot count (resident or not) — recorded in checkpoints so
    /// restore can rebuild the exact same table geometry.
    pub(crate) fn n_slots(&self) -> usize {
        self.slots.len()
    }

    /// Serializes the table into an engine-checkpoint blob: a resident
    /// count, then every resident slot *in place* (index, key, bucket,
    /// length-prefixed aggregator state). Slots are deliberately **not**
    /// flushed first — restoring them into the same positions preserves
    /// the exact future fold/evict/flush order, which is what makes
    /// recovery byte-identical. The activity counters and slot count
    /// travel in the checkpoint header, not here.
    ///
    /// Returns `None` if any resident aggregator declines
    /// [`Aggregator::checkpoint`].
    pub(crate) fn snapshot_into(&self, out: &mut Vec<u8>) -> Option<()> {
        use fd_core::checkpoint::Encode;
        // Count residents while writing them (patching the count in after)
        // rather than paying a second full-table scan up front.
        let count_pos = out.len();
        0u64.put(out);
        let mut resident = 0u64;
        for (idx, slot) in self.slots.iter().enumerate() {
            if let Some(s) = slot {
                resident += 1;
                idx.put(out);
                s.key.put(out);
                s.bucket.put(out);
                crate::udaf::write_agg(out, s.agg.as_ref())?;
            }
        }
        out[count_pos..count_pos + 8].copy_from_slice(&resident.to_le_bytes());
        Some(())
    }

    /// Rebuilds a table from a [`snapshot_into`](Self::snapshot_into)
    /// section: fresh aggregators from `factory`, refilled via
    /// [`Aggregator::restore`] into the recorded slot positions of a
    /// table of the query's `n_slots`. The counters come from the
    /// checkpoint header.
    pub(crate) fn restore_from(
        r: &mut fd_core::checkpoint::Reader<'_>,
        n_slots: usize,
        evictions: u64,
        updates: u64,
        factory: &dyn AggregatorFactory,
        bucket_micros: Micros,
    ) -> Result<Self, fd_core::checkpoint::CodecError> {
        use fd_core::checkpoint::{CodecError, Decode};
        let mut lfta = Lfta::new(n_slots);
        lfta.evictions = evictions;
        lfta.updates = updates;
        // A resident is at least its slot, key, bucket and state length.
        let resident = r.count(32)?;
        for _ in 0..resident {
            let idx = u64::take(r)? as usize;
            let key = u64::take(r)?;
            let bucket = u64::take(r)?;
            let len = u64::take(r)? as usize;
            let bytes = r.bytes(len)?;
            if idx >= lfta.slots.len() {
                return Err(CodecError::new(format!("LFTA slot {idx} out of range")));
            }
            let mut agg = factory.make(bucket_start(bucket, bucket_micros));
            agg.restore(bytes)?;
            lfta.slots[idx] = Some(Partial { key, bucket, agg });
        }
        Ok(lfta)
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

    fn factory() -> std::sync::Arc<FnFactory> {
        FnFactory::new("count", true, |_| Box::new(CountAgg(0)))
    }

    #[test]
    fn same_group_folds_in_place() {
        let mut lfta = Lfta::new(64);
        let f = factory();
        for _ in 0..10 {
            assert!(lfta.update(7, 0, &pkt(1), f.as_ref(), 0).is_none());
        }
        assert_eq!(lfta.evictions(), 0);
        assert_eq!(lfta.occupancy(), 1);
        let flushed = lfta.flush_all();
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].agg.emit(0.0), AggValue::Float(10.0));
    }

    #[test]
    fn collisions_evict_partials() {
        // A 1-slot table forces every key change to evict.
        let mut lfta = Lfta::new(1);
        let f = factory();
        assert!(lfta.update(1, 0, &pkt(1), f.as_ref(), 0).is_none());
        let evicted = lfta.update(2, 0, &pkt(2), f.as_ref(), 0).expect("eviction");
        assert_eq!(evicted.key, 1);
        assert_eq!(lfta.evictions(), 1);
    }

    #[test]
    fn bucket_change_evicts_same_key_on_collision() {
        // The slot hash covers (key, bucket); with one slot the new bucket
        // must evict the old bucket's partial rather than fold into it.
        let mut lfta = Lfta::new(1);
        let f = factory();
        assert!(lfta.update(7, 0, &pkt(1), f.as_ref(), 0).is_none());
        let evicted = lfta
            .update(7, 1, &pkt(2), f.as_ref(), 60)
            .expect("eviction");
        assert_eq!((evicted.key, evicted.bucket), (7, 0));
        assert_eq!(evicted.agg.emit(0.0), AggValue::Float(1.0));
    }

    #[test]
    fn flush_below_is_selective() {
        let mut lfta = Lfta::new(1024);
        let f = factory();
        for key in 0..20u64 {
            lfta.update(key, key % 2, &pkt(1), f.as_ref(), 0);
        }
        let b0 = lfta.flush_below(1);
        assert!(b0.iter().all(|p| p.bucket == 0));
        let remaining = lfta.flush_all();
        assert!(remaining.iter().all(|p| p.bucket == 1));
        assert_eq!(b0.len() + remaining.len(), 20);
    }

    #[test]
    fn masked_slot_mapping_equals_the_remainder() {
        // The same stream through a 64-slot table (mask) and the reference
        // mapping: every tuple must land where `hash % slots` puts it, or a
        // restore into recorded slot positions would change eviction order.
        let mut lfta = Lfta::new(64);
        let f = factory();
        for key in 0..1000u64 {
            lfta.update(key, key % 3, &pkt(1), f.as_ref(), 0);
            let idx = (mix64(key ^ (key % 3).rotate_left(32)) as usize) % 64;
            let resident = lfta.slots[idx].as_ref().expect("just written");
            assert_eq!((resident.key, resident.bucket), (key, key % 3));
        }
    }

    #[test]
    fn partials_sum_to_total_under_heavy_collisions() {
        // Whatever the eviction pattern, no tuple may be lost.
        let mut lfta = Lfta::new(8);
        let f = factory();
        let mut total = 0.0;
        let mut partials: Vec<Partial> = Vec::new();
        for i in 0..10_000u64 {
            if let Some(p) = lfta.update(i % 100, 0, &pkt(1), f.as_ref(), 0) {
                partials.push(p);
            }
        }
        partials.extend(lfta.flush_all());
        for p in &partials {
            total += p.agg.emit(0.0).as_float().expect("float");
        }
        assert_eq!(total, 10_000.0);
        assert!(
            lfta.evictions() > 0,
            "expected collisions with 8 slots / 100 keys"
        );
    }
}
