//! The ingress handle: one producer's admit-route-stage loop and epoch
//! seal.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, PoisonError};
use std::time::Instant;

use super::recover::FabShared;
use super::{Msg, ShardBy, FABRIC_RING_DEPTH};
use crate::admission::Admission;
use crate::durability::{DurableSink, ProducerCommit};
use crate::engine::EngineStats;
use crate::overload::{ScaleColumn, ShedPolicy, Subsampler};
use crate::spsc::BatchPool;
use crate::tuple::{Micros, Packet};
use crate::udaf::Query;
#[cfg(doc)]
use {super::ShardedEngine, crate::engine::Engine};

/// Maps a group key to a shard: Fibonacci hash (multiply by 2⁶⁴/φ), then
/// multiply-shift fold of the HIGH bits. `h % n` would read the low bits,
/// which stay skewed for power-of-two-strided keys; the high bits are
/// well mixed for dense and strided keys alike (pinned by
/// `key_routing_spreads_within_bound`).
#[inline]
pub(super) fn route_key(key: u64, n_shards: usize) -> usize {
    let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((u128::from(h) * n_shards as u128) >> 64) as usize
}

/// One producer's share of the ingress plane: a full admit-route-stage
/// loop (staging buffers, its own batch pool) that feeds every shard
/// worker through a dedicated SPSC ring.
///
/// Handles come from [`ShardedEngine::take_ingress_handles`] and are
/// `Send` (not `Sync`): move each onto its own ingress thread. A handle
/// admits (selection, late check, watermark advance) through the same
/// type as [`Engine`], against its *own* watermark — the honest semantics
/// of distributed ingress (no producer can observe another's clock;
/// PAPER.md §VI-B). A worker closes buckets at the least of its producers'
/// watermarks, so a tuple its handle admitted is never late there. For
/// streams whose disorder stays within the query's slack, every admission
/// decision is identical to the single-threaded engine's.
///
/// ## The epoch contract
///
/// A handle seals an *epoch* — exactly one message per shard (possibly
/// empty, always carrying the handle's watermark) — whenever one shard's
/// staging buffer reaches the batch size, and once more at the end of each
/// [`ingest`](Self::ingest) call. For deterministic — bit-identical —
/// results, deal input chunks to the handles in round-robin order starting
/// at producer 0: producer `p`'s `k`-th epoch carries the per-shard seq
/// `k·P + p + 1` (see the determinism rule on the plane), and workers
/// apply epochs in seq order. The coordinator mode of [`ShardedEngine`]
/// (handles *not* taken) deals this way automatically.
pub struct IngressHandle {
    producer: usize,
    fab: Arc<FabShared>,
    /// Per-shard staging buffers, swapped against [`Self::pool`] buffers
    /// at each seal, so steady-state ingress never allocates.
    staging: Vec<Vec<Packet>>,
    /// This producer's pool (a clone of `fab.pools[producer]`).
    pool: BatchPool<Packet>,
    /// Epochs sealed so far; the next seal ships seq
    /// `epochs · P + producer + 1`.
    pub(super) epochs: u64,
    /// This producer's decay-aware thinning stage, present only under
    /// [`ShedPolicy::Subsample`].
    subsampler: Option<Subsampler>,
    rr: usize,
    /// This producer's admission decisions and counters.
    pub(super) adm: Admission,
    /// The watermark the last sealed epoch carried: a later advance is
    /// news the workers have not heard.
    sealed_wm: Micros,
}

impl IngressHandle {
    pub(super) fn new(producer: usize, query: &Query, fab: &Arc<FabShared>) -> Self {
        let overload = &fab.cfg.overload;
        let subsampler = match overload.policy {
            ShedPolicy::Subsample { target_rate } => Some(Subsampler::new(
                overload.decay.clone(),
                query.bucket_micros,
                target_rate,
                overload.seed ^ (producer as u64).wrapping_mul(0xA076_1D64_78BD_642F),
            )),
            _ => None,
        };
        Self {
            producer,
            adm: Admission::new(query),
            fab: Arc::clone(fab),
            staging: vec![Vec::new(); fab.cfg.n_shards],
            pool: fab.pools[producer].clone(),
            epochs: 0,
            subsampler,
            rr: 0,
            sealed_wm: 0,
        }
    }

    /// Restores the admission state a durable commit froze, so re-fed
    /// input meets the exact decisions (and seq assignments) of the first
    /// run.
    pub(super) fn resume(&mut self, block: &ProducerCommit) {
        self.adm.watermark = block.watermark;
        self.sealed_wm = block.watermark;
        self.adm.set_closed_below(block.closed_below);
        self.rr = (block.rr as usize) % self.staging.len();
        self.epochs = block.epochs;
        self.adm.stats.tuples_in = block.tuples_in;
        self.adm.stats.filtered = block.filtered;
        self.adm.stats.late_drops = block.late_drops;
    }

    /// The admission state a durable commit freezes.
    pub(super) fn commit_block(&self) -> ProducerCommit {
        ProducerCommit {
            watermark: self.adm.watermark,
            closed_below: self.adm.closed_below(),
            rr: self.rr as u64,
            epochs: self.epochs,
            tuples_in: self.adm.stats.tuples_in,
            filtered: self.adm.stats.filtered,
            late_drops: self.adm.stats.late_drops,
        }
    }

    /// Admits and scatters one chunk, sealing an epoch each time a shard's
    /// staging buffer fills and once at the end. See the epoch contract
    /// above for how calls must interleave across handles.
    pub fn ingest(&mut self, pkts: &[Packet]) -> Result<(), fd_core::Error> {
        let mut rest = pkts;
        loop {
            let (used, _) = self.stage(rest);
            rest = &rest[used..];
            if rest.is_empty() {
                break;
            }
            self.seal_epoch()?;
        }
        self.seal_epoch()
    }

    /// The one ingress loop: a single fused pass per tuple doing admission
    /// (the same [`Admission`] decisions as [`Engine::process`], closes
    /// included), routing, and the push into the owning shard's staging
    /// buffer. Stops once a staging buffer reaches the batch size; returns
    /// how many tuples it consumed and whether it stopped for that reason
    /// (the caller seals and comes back with the rest). `tuples_in` and
    /// the telemetry mirrors are stored once per call.
    pub(super) fn stage(&mut self, pkts: &[Packet]) -> (usize, bool) {
        let n_shards = self.staging.len();
        let routing = self.fab.cfg.routing;
        let batch_size = self.fab.cfg.batch_size;
        let mut used = pkts.len();
        let mut full = false;
        for (i, pkt) in pkts.iter().enumerate() {
            let Some(admitted) = self.adm.admit(pkt, i) else {
                continue;
            };
            if self.adm.due() {
                self.adm.close();
            }
            let shard = match routing {
                ShardBy::Key => route_key(admitted.key, n_shards),
                ShardBy::RoundRobin => {
                    let s = self.rr;
                    self.rr = (self.rr + 1) % n_shards;
                    s
                }
            };
            let buf = &mut self.staging[shard];
            buf.push(*pkt);
            if buf.len() >= batch_size {
                used = i + 1;
                full = true;
                break;
            }
        }
        self.adm.stats.tuples_in += used as u64;
        if self.fab.cfg.live {
            self.mirror_admission();
        }
        (used, full)
    }

    /// Advances this handle's watermark as an explicit punctuation would;
    /// the next sealed epoch carries it to every shard.
    pub fn punctuate(&mut self, ts: Micros) {
        self.adm.punctuate(ts);
        if self.fab.cfg.live {
            self.mirror_admission();
        }
    }

    /// Whether sealing now would tell the workers anything: staged tuples,
    /// or a watermark advance since the last seal.
    pub(super) fn dirty(&self) -> bool {
        self.adm.watermark > self.sealed_wm || self.staging.iter().any(|s| !s.is_empty())
    }

    /// Seals the staged tuples as one epoch: exactly one sequence-stamped
    /// message per shard (empty shards included — every shard must see
    /// every seq), carrying the handle's watermark.
    pub fn seal_epoch(&mut self) -> Result<(), fd_core::Error> {
        self.seal_logged(None)
    }

    /// [`seal_epoch`](Self::seal_epoch) with an optional WAL hook: the
    /// coordinator passes its durability writer so each shard's message
    /// is logged *before* it is sent (write-ahead), and on the same ring
    /// the later commit record travels on — a commit can never be written
    /// before the epochs it covers.
    pub(super) fn seal_logged(
        &mut self,
        mut durable: Option<&mut DurableSink>,
    ) -> Result<(), fd_core::Error> {
        let fab = &self.fab;
        let p_count = fab.cfg.producers;
        let n_shards = self.staging.len();
        // `Subsample` thins the staged batches in place — as soon as a
        // shard sits at or past its lag budget, before its ring is even
        // full — and ships the epoch normally, with its scale columns.
        // The budget clamps to the ring depth, so the default
        // (`usize::MAX`) engages thinning only against a full ring.
        let mut scale_cols: Vec<ScaleColumn> = vec![None; n_shards];
        if let Some(sub) = self.subsampler.as_mut() {
            let budget = fab.cfg.overload.lag_budget.min(FABRIC_RING_DEPTH);
            for (shard, col) in scale_cols.iter_mut().enumerate() {
                // The queue's unread depth: a lag probe, racy by nature —
                // the worker drains concurrently — but monotone enough
                // for a shed decision.
                let lag = fab.shards[shard].queues[self.producer].len();
                if self.staging[shard].is_empty() || lag < budget {
                    continue;
                }
                let mut sc = Vec::new();
                let shed = sub.thin(&mut self.staging[shard], &mut sc);
                *col = Some(Arc::new(sc));
                if shed > 0 {
                    fab.count_shed(shard, Some(self.producer), shed);
                }
            }
        }
        let seq = self.epochs * p_count as u64 + self.producer as u64 + 1;
        self.epochs += 1;
        let wm = self.adm.watermark;
        self.sealed_wm = wm;
        // One dead unsupervised worker must not cost the other shards
        // their message: ship the whole epoch, report the first failure.
        let mut result = Ok(());
        for (shard, col) in scale_cols.iter_mut().enumerate() {
            let pkts = if self.staging[shard].is_empty() {
                // Nothing staged: ship the bare epoch marker without
                // churning a pooled buffer through the ring.
                Arc::default()
            } else {
                Arc::new(std::mem::replace(
                    &mut self.staging[shard],
                    self.pool.take(fab.cfg.batch_size),
                ))
            };
            if let Some(d) = durable.as_deref_mut() {
                d.batch(shard, seq, &pkts, wm);
            }
            let msg = Msg {
                seq,
                pkts,
                scales: col.take(),
                wm,
                sent: Instant::now(),
            };
            result = result.and(fab.send(shard, self.producer, msg));
        }
        if fab.cfg.live {
            self.mirror_epochs();
        }
        result
    }

    /// Single-writer mirrors of this producer's admission counters.
    fn mirror_admission(&self) {
        let t = &self.fab.telemetry.producers()[self.producer];
        let s = self.adm.stats;
        t.tuples_in.store(s.tuples_in, Relaxed);
        t.filtered.store(s.filtered, Relaxed);
        t.late_drops.store(s.late_drops, Relaxed);
        t.watermark_us.store(self.adm.watermark, Relaxed);
    }

    /// Single-writer mirrors of this producer's epoch and pool counters.
    fn mirror_epochs(&self) {
        let t = &self.fab.telemetry.producers()[self.producer];
        t.epochs_sent.store(self.epochs, Relaxed);
        t.pool_reuses.store(self.pool.reuses(), Relaxed);
        t.pool_allocs.store(self.pool.allocs(), Relaxed);
    }

    /// This handle's admission counters so far.
    pub fn stats(&self) -> EngineStats {
        self.adm.stats
    }

    /// Ends this producer's stream: seals any unsent remainder as a final
    /// epoch, closes its rings (removing the producer from every worker's
    /// rotation and from the frontier min), and records its stats for
    /// [`ShardedEngine::finish`] to fold.
    pub fn finish(mut self) -> EngineStats {
        if self.dirty() {
            // Only unsupervised worker loss can error here; the panic is
            // surfaced (counted, logged) by the engine's finish/join.
            let _ = self.seal_epoch();
        }
        self.close();
        self.adm.stats
    }

    /// Closes this producer's queue on every shard — for good: a queue
    /// outlives its readers, so a worker respawned later finds it closed
    /// too — and leaves the producer's final stats and mirrors behind.
    /// Idempotent: `finish` runs it, and then the drop does again.
    fn close(&mut self) {
        for sh in &self.fab.shards {
            sh.queues[self.producer].close();
        }
        self.fab
            .stats_out
            .lock()
            .unwrap_or_else(PoisonError::into_inner)[self.producer] = Some(self.adm.stats);
        // Final mirrors are unconditional, so a post-run snapshot agrees
        // with the folded stats even with live telemetry off.
        self.mirror_admission();
        self.mirror_epochs();
    }
}

impl Drop for IngressHandle {
    fn drop(&mut self) {
        // An abandoned handle must still leave every worker's rotation,
        // or `finish` would join workers that wait forever on its rings.
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::*;
    use super::*;

    #[test]
    fn key_routing_spreads_within_bound() {
        // Dense sequential keys AND power-of-two-strided keys must both
        // land within ±20% of a uniform share on every shard — the
        // strided case is exactly what a low-bits `h % n` fold fails.
        const KEYS: u64 = 100_000;
        for n_shards in [2usize, 3, 4, 8] {
            for (label, stride_shift) in [("dense", 0u32), ("strided", 12u32)] {
                let mut counts = vec![0u64; n_shards];
                for key in 0..KEYS {
                    counts[route_key(key << stride_shift, n_shards)] += 1;
                }
                let uniform = KEYS as f64 / n_shards as f64;
                for (shard, &c) in counts.iter().enumerate() {
                    let dev = (c as f64 - uniform).abs() / uniform;
                    assert!(
                        dev <= 0.20,
                        "{label} keys, {n_shards} shards: shard {shard} got {c} \
                         (uniform {uniform:.0}, deviation {:.1}%)",
                        dev * 100.0
                    );
                }
            }
        }
    }

    #[test]
    fn batched_admission_matches_scalar_exactly() {
        // Per-tuple feeding, sliced feeding and several producers must all
        // accept, filter and drop exactly the tuples the single-threaded
        // engine does — including streams where the closed boundary
        // advances mid-slice and late tuples interleave with fresh ones.
        let q = || {
            Query::builder("diff")
                .filter(|p| p.dst_port == 80)
                .group_by(|p| p.dst_host())
                .bucket_secs(60)
                .slack_secs(30.0)
                .aggregate(count_factory())
                .try_build()
                .expect("valid query")
        };
        let mut stream = Vec::new();
        for i in 0..20_000u64 {
            let mut p = pkt(i as f64 * 0.05, (i % 41) as u32);
            if i % 17 == 0 {
                p.dst_port = 443; // filtered
            }
            if i % 97 == 0 {
                p.ts = p.ts.saturating_sub(200 * MICROS_PER_SEC); // late
            }
            stream.push(p);
        }
        let mut single = Engine::new(q());
        let want = single.run(stream.clone());
        let ws = single.stats();
        assert!(ws.filtered > 0 && ws.late_drops > 0);
        let check = |label: &str, e: &ShardedEngine, rows: &[Row]| {
            let s = e.stats();
            assert_eq!(
                (ws.tuples_in, ws.filtered, ws.late_drops),
                (s.tuples_in, s.filtered, s.late_drops),
                "{label}"
            );
            assert_rows_eq(&want, rows, label);
        };
        let mut scalar = sharded(q(), 3);
        for p in &stream {
            scalar.try_process(p).expect("feed");
        }
        let rows = scalar.finish();
        check("per tuple", &scalar, &rows);
        for producers in [1usize, 2] {
            let mut batched = sharded(q(), 3)
                .try_batch_size(256)
                .expect("batch")
                .try_producers(producers)
                .expect("producers");
            let rows = batched.run(stream.clone());
            check(&format!("sliced, P={producers}"), &batched, &rows);
        }
    }

    #[test]
    fn parallel_handles_match_single_threaded() {
        // True parallel ingress: P threads each own an IngressHandle and
        // feed an interleaved slice of the stream. Count aggregation is
        // order-insensitive within a bucket and the slices stay within
        // slack of each other, so the rows still match the single-threaded
        // run exactly.
        const P: usize = 3;
        let q = || {
            Query::builder("par")
                .group_by(|p| p.dst_host())
                .bucket_secs(60)
                .slack_secs(30.0)
                .aggregate(count_factory())
                .two_level(true)
                .lfta_slots(64)
                .try_build()
                .expect("valid query")
        };
        let stream: Vec<Packet> = (0..15_000)
            .map(|i| pkt(0.01 * i as f64, (i % 53) as u32))
            .collect();
        let single = Engine::new(q()).run(stream.clone());
        let mut e = sharded(q(), 4)
            .try_batch_size(128)
            .expect("batch")
            .try_producers(P)
            .expect("producers");
        let handles = e.take_ingress_handles();
        let slices: Vec<Vec<Packet>> = (0..P)
            .map(|p| stream.iter().skip(p).step_by(P).copied().collect())
            .collect();
        let joined: Vec<std::thread::JoinHandle<EngineStats>> = handles
            .into_iter()
            .zip(slices)
            .map(|(mut h, slice)| {
                std::thread::spawn(move || {
                    for chunk in slice.chunks(256) {
                        h.ingest(chunk).expect("ingest");
                    }
                    h.finish()
                })
            })
            .collect();
        let mut fed = 0u64;
        for j in joined {
            fed += j.join().expect("producer thread").tuples_in;
        }
        assert_eq!(fed, stream.len() as u64);
        let rows = e.finish();
        assert_rows_eq(&single, &rows, "parallel handles");
        assert_eq!(e.stats().tuples_in, stream.len() as u64);
    }

    #[test]
    fn pools_recycle_per_producer() {
        // Pool capacity scales with producers × shards and the recycling
        // hit-rate holds up with several producers — visible through the
        // per-producer pool telemetry counters.
        const BATCH: usize = 64;
        const N: u64 = 10_000;
        let stream: Vec<Packet> = (0..N)
            .map(|i| pkt(0.001 * i as f64, (i % 7) as u32))
            .collect();
        let mut e = sharded(count_query(), 2)
            .try_batch_size(BATCH)
            .expect("batch")
            .try_producers(2)
            .expect("producers");
        e.run(stream);
        let snap = e.telemetry().snapshot();
        assert_eq!(snap.producers.len(), 2);
        let reuses: u64 = snap.producers.iter().map(|p| p.pool_reuses).sum();
        let allocs: u64 = snap.producers.iter().map(|p| p.pool_allocs).sum();
        assert!(
            reuses > 0,
            "steady state must recycle buffers (allocs {allocs}, reuses {reuses})"
        );
        assert!(
            allocs < reuses,
            "most epochs must reuse pooled buffers (allocs {allocs}, reuses {reuses})"
        );
        for (p, prod) in snap.producers.iter().enumerate() {
            assert!(prod.epochs_sent > 0, "producer {p} sealed epochs");
            for (s, depth) in prod.ring_depth.iter().enumerate() {
                assert_eq!(*depth, 0, "ring ({p},{s}) drained");
            }
        }
    }
}
