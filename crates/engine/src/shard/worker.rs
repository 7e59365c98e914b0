//! The shard worker: the one loop that drains a shard's queues, applies
//! epochs, tells its engine whose they are, and checkpoints.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use super::recover::FabShared;
use super::Msg;
use crate::engine::{Engine, EngineStats};
use crate::fault::{FaultKind, FaultState};
use crate::groups::Run;
use crate::spsc::RingReceiver;
use crate::supervisor::{checkpoint_interval, WorkerLease};
use crate::tuple::Packet;

/// Applies one batch to the shard engine, firing any armed panic fault at
/// its exact tuple position. The position is the engine's cumulative
/// accepted-tuple count (`tuples_in`), which is checkpointed — so "tuple
/// N" names the same logical tuple across restarts and replays, however
/// the stream was batched.
///
/// Returns how many tuples the engine refused: a non-unit scale on an
/// aggregate that cannot be reweighted. Configuration refuses the policy
/// that makes scale columns for such a query, so this is zero; were it
/// not, the tuples are lost to shedding and counted as shed.
fn apply_batch(
    engine: &mut Engine,
    pkts: &[Packet],
    scales: Option<&[f64]>,
    fault: Option<&FaultState>,
    shard: usize,
) -> u64 {
    if let Some(sc) = scales {
        debug_assert_eq!(sc.len(), pkts.len(), "scale column out of step");
    }
    let trigger = fault.and_then(|f| match f.plan.kind {
        FaultKind::PanicAtTuple(n) => Some((f, n, true)),
        FaultKind::PoisonedBatch(n) => Some((f, n, false)),
        // Disk faults live in the durability layer's I/O backend; slow and
        // wedge faults fire in the worker loop, before apply.
        FaultKind::SlowShard(_) | FaultKind::WedgeAtTuple(_) | FaultKind::Disk(_) => None,
    });
    // The tuples before the one an armed fault fires at: `tuples_in`
    // counts every tuple offered (none is refused, see above).
    let cut = trigger.map_or(pkts.len(), |(_, n, _)| {
        let before = n.saturating_sub(1).saturating_sub(engine.stats().tuples_in);
        before.min(pkts.len() as u64) as usize
    });
    let refused = match scales {
        None => {
            engine.process_packets(&pkts[..cut]);
            0
        }
        Some(sc) => (pkts[..cut].iter().zip(sc))
            .filter(|&(p, &s)| engine.process_scaled(p, s).is_err())
            .count() as u64,
    };
    if let Some((f, n, transient)) = trigger.filter(|_| cut < pkts.len()) {
        // A transient fault disarms *before* panicking, so the respawned
        // worker re-reads past this point.
        if transient {
            f.disarm();
        }
        panic!("injected fault: shard {shard} worker dies at tuple {n}");
    }
    refused
}

/// A shard worker's join handle: when its queues drain, the worker returns
/// the runs it has not handed to its checkpoint slot (every bucket closed
/// after its last checkpoint — the whole run's, unsupervised) and its
/// end-of-run stats.
pub(super) type WorkerHandle = JoinHandle<(Vec<Box<dyn Run>>, EngineStats)>;

#[cfg(test)]
thread_local! {
    /// Test hook: while set, every [`spawn_worker`] on this thread fails as
    /// if the OS had refused the thread.
    pub(super) static REFUSE_SPAWNS: std::cell::Cell<bool> =
        const { std::cell::Cell::new(false) };
}

/// The depth gauges' hold on the message the worker has read. Dropped —
/// the message done with, the incarnation retired, or the thread unwinding
/// from a panic — it takes the message out of them, unless the watchdog
/// abandoned this incarnation mid-message and already has.
struct InFlight<'a> {
    fab: &'a FabShared,
    shard: usize,
    lease: &'a WorkerLease,
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.fab.settle(self.shard, self.lease);
    }
}

/// Spawns one shard worker: drains its `P` dedicated queues in strict
/// producer rotation (seq order — see the determinism rule on
/// [`FabShared`]), folds each epoch's batch and punctuates its watermark
/// as that producer's, and checkpoints at message boundaries, releasing
/// what its queues retained up to each one.
/// `start_seq` is the last applied seq (the shard's seq base when fresh;
/// the checkpoint's seq on respawn, where `rxs` were attached), which
/// determines where the rotation resumes: the producer owning
/// `start_seq + 1`. `interval` is the first [`checkpoint_interval`], set
/// by the snapshot `engine` was restored from. Fails when the OS refuses
/// the thread; `rxs` are then dropped, leaving the queues without a reader.
pub(super) fn spawn_worker(
    shard: usize,
    mut engine: Engine,
    rxs: Vec<RingReceiver<Msg>>,
    fab: Arc<FabShared>,
    start_seq: u64,
    mut interval: u64,
    lease: Arc<WorkerLease>,
) -> std::io::Result<WorkerHandle> {
    #[cfg(test)]
    if REFUSE_SPAWNS.get() {
        return Err(std::io::Error::other("injected: no thread for you"));
    }
    std::thread::Builder::new()
        .name(format!("fd-shard-{shard}"))
        .spawn(move || {
            let registry = Arc::clone(&fab.telemetry);
            let tel = &registry.shards()[shard];
            let sh = &fab.shards[shard];
            let n_shards = fab.cfg.n_shards;
            let p_count = fab.cfg.producers;
            let every = fab.cfg.checkpoint_every;
            let mut cursor = fab.producer_of(start_seq + 1);
            let mut last_seq = start_seq;
            let mut open = vec![true; p_count];
            // A bucket may only close once no producer can still send
            // tuples for it (PAPER.md §VI-B's per-site merge rule): the
            // engine's frontier is the minimum over the producers.
            engine.track_producers(p_count);
            // Tuple-equivalents applied since the last checkpoint. Shard-
            // by-key balances load well enough that without an offset
            // every worker hits its checkpoint threshold in the same
            // instant and all shards stall together — which stalls the
            // senders. Staggering the *first* interval spreads the
            // serialization pauses across the whole window.
            let mut since_ckpt = shard as u64 * every / n_shards as u64;
            // The snapshot buffer displaced from the slot by each store,
            // recycled into the next serialization so steady-state
            // checkpointing stops allocating.
            let mut spare: Vec<u8> = Vec::new();
            // Releases what the queues retain through `seq`, handing the
            // buffers back outside the queue locks so a concurrent push
            // never waits on a pool mutex. Running this here — not on the
            // sender — keeps the `Arc` teardown and the pool pushes off
            // the send path.
            let mut covered: Vec<Msg> = Vec::new();
            let mut release = |seq: u64| {
                for (p, rx) in rxs.iter().enumerate() {
                    rx.release(|m| m.seq <= seq, &mut covered);
                    for m in covered.drain(..) {
                        fab.recycle(p, m.pkts);
                    }
                }
            };
            while open.iter().any(|&o| o) {
                if !open[cursor] {
                    cursor = (cursor + 1) % p_count;
                    continue;
                }
                // Supervised, the message stays in its queue until a
                // checkpoint covers it; otherwise it moves out.
                let msg = if every > 0 {
                    rxs[cursor].recv_retaining()
                } else {
                    rxs[cursor].recv()
                };
                let Some(msg) = msg else {
                    // The producer finished (or this incarnation is
                    // retired, and its receivers inert): remove it from
                    // the rotation.
                    open[cursor] = false;
                    engine.close_producer(cursor);
                    cursor = (cursor + 1) % p_count;
                    continue;
                };
                // Marked before the retirement check: a watchdog that
                // retired this incarnation without finding the mark leaves
                // the message's gauge count to the guard.
                lease.begin(cursor);
                let _in_flight = InFlight {
                    fab: &fab,
                    shard,
                    lease: &lease,
                };
                // A retired incarnation (the watchdog abandoned it) must
                // make no further observable moves: the fresh incarnation
                // re-reads its messages, and the successor's applies,
                // gauge updates and checkpoint stores are the live ones.
                if lease.retired() {
                    return (Vec::new(), engine.stats());
                }
                let live = registry.enabled();
                let active_fault = fab
                    .fault
                    .as_deref()
                    .filter(|f| f.plan.shard == shard && f.armed());
                let Msg {
                    seq,
                    pkts,
                    scales,
                    wm,
                    sent,
                } = msg;
                debug_assert!(
                    seq > last_seq,
                    "seq went backwards on shard {shard}: {seq} after {last_seq}"
                );
                last_seq = seq;
                match active_fault.map(|f| f.plan.kind) {
                    // Slow *processing*: an epoch without payload (a bare
                    // watermark, or one `DropOldest` hollowed) has nothing
                    // to be slow on.
                    Some(FaultKind::SlowShard(d)) if !pkts.is_empty() => std::thread::sleep(d),
                    Some(FaultKind::WedgeAtTuple(n))
                        if engine.stats().tuples_in + pkts.len() as u64 >= n =>
                    {
                        // Wedge: stop consuming without crashing, so
                        // supervision's panic path never fires — only the
                        // watchdog can notice. Disarm first (transient),
                        // then spin until the watchdog retires this
                        // incarnation. The triggering batch is NOT
                        // applied; the fresh incarnation re-reads it.
                        if let Some(f) = active_fault {
                            f.disarm();
                        }
                        while !lease.retired() {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        return (Vec::new(), engine.stats());
                    }
                    _ => {}
                }
                let sc = scales.as_deref().map(|v| v.as_slice());
                engine.begin_epoch(cursor);
                let (frontier, late) = (engine.frontier(), engine.stats().late_drops);
                let refused = if live {
                    let t0 = Instant::now();
                    let refused = apply_batch(&mut engine, &pkts, sc, active_fault, shard);
                    tel.batch_ns.record(t0.elapsed().as_nanos() as u64);
                    tel.dispatch_lag_ns.record(sent.elapsed().as_nanos() as u64);
                    tel.tuples_processed.fetch_add(pkts.len() as u64, Relaxed);
                    refused
                } else {
                    apply_batch(&mut engine, &pkts, sc, active_fault, shard)
                };
                if refused > 0 {
                    fab.count_shed(shard, None, refused);
                }
                // Its handle admitted every tuple against a watermark no
                // lower than this producer's running one here, and the
                // frontier is no higher than that: nothing can be late.
                debug_assert_eq!(
                    engine.stats().late_drops,
                    late,
                    "shard {shard} dropped a tuple producer {cursor} admitted"
                );
                // Epochs count their batch plus the embedded watermark as
                // tuple-equivalents, so idle shards still checkpoint.
                since_ckpt += pkts.len() as u64 + 1;
                // Sole owner ⇒ moved out of its queue: hand the drained
                // buffer back for reuse. A retained entry holds the other
                // reference, and the buffer is reclaimed by the release
                // after the checkpoint that covers it.
                fab.recycle(cursor, pkts);
                let closed_before = engine.stats().buckets_closed;
                engine.punctuate(wm);
                let applied = engine.frontier();
                if applied > frontier && live {
                    let stats = engine.stats();
                    tel.applied_watermark_us.store(applied, Relaxed);
                    tel.lfta_evictions.store(stats.lfta_evictions, Relaxed);
                    // Counting occupied slots scans the whole table, and
                    // nearly every epoch advances the frontier: sample the
                    // gauge only when a bucket close has just paid for the
                    // same scan.
                    if stats.buckets_closed > closed_before {
                        if let Some(occ) = engine.lfta_occupancy() {
                            tel.lfta_occupancy.store(occ as u64, Relaxed);
                        }
                    }
                }
                lease.record_progress(seq);
                // Retired mid-apply (the watchdog just abandoned us): the
                // fresh incarnation owns the checkpoint slot and the
                // gauges from here on, so exit before touching either.
                if lease.retired() {
                    return (Vec::new(), engine.stats());
                }
                // Checkpoint at message boundaries: the snapshot then means
                // exactly "everything up to seq applied", which is what
                // queue release and re-attachment key on. The buffer handed
                // back above happens-before the release, so a released
                // batch is never still referenced by the worker.
                if interval > 0 && since_ckpt >= interval {
                    let ckpt_start = crate::telemetry::thread_cpu_ns();
                    // Buckets closed since the last checkpoint leave the
                    // engine first, so the snapshot covers open state only
                    // and costs the same however long the stream has run;
                    // the slot takes them in the same critical section as
                    // the snapshot that no longer holds them.
                    let newly_closed = engine.drain_closed_state();
                    let mut blob = std::mem::take(&mut spare);
                    // Configuration asked the aggregate before supervising
                    // it, so a checkpoint that fails here is a fault like
                    // any other: the worker dies, and the recovery ladder
                    // takes the shard from its last checkpoint.
                    if let Err(err) = engine.checkpoint_into(&mut blob) {
                        panic!("shard {shard} worker cannot checkpoint: {err}");
                    }
                    let bytes = blob.len() as u64;
                    let Some((displaced, held)) = sh.slot.store(&lease, seq, blob, newly_closed)
                    else {
                        // Retired between the check above and the store:
                        // the successor owns the slot.
                        return (Vec::new(), engine.stats());
                    };
                    spare = displaced;
                    registry.checkpoints.fetch_add(1, Relaxed);
                    registry.checkpoint_bytes.fetch_add(bytes, Relaxed);
                    tel.closed_groups_held.store(held as u64, Relaxed);
                    interval = checkpoint_interval(every, bytes);
                    tel.checkpoint_interval_tuples.store(interval, Relaxed);
                    let spent = crate::telemetry::thread_cpu_ns().saturating_sub(ckpt_start);
                    registry.checkpoint_ns.fetch_add(spent, Relaxed);
                    since_ckpt = 0;
                    release(seq);
                }
                cursor = (cursor + 1) % p_count;
            }
            (engine.finish_state(), engine.stats())
        })
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::*;
    use super::*;

    #[test]
    fn dropped_engine_records_worker_panic() {
        use crate::udaf::{AggValue, Aggregator, FnFactory};
        use std::any::Any;

        // An aggregator that panics when it meets the sentinel tuple.
        struct Tripwire;
        impl Aggregator for Tripwire {
            fn update(&mut self, pkt: &Packet) {
                assert!(pkt.len != 0xDEAD, "tripwire: poisoned tuple");
            }
            fn merge_boxed(&mut self, _other: Box<dyn Aggregator>) {}
            fn emit(&self, _t: f64) -> AggValue {
                AggValue::Float(0.0)
            }
            fn size_bytes(&self) -> usize {
                0
            }
            fn as_any_box(self: Box<Self>) -> Box<dyn Any> {
                self
            }
        }

        let q = Query::builder("tripwire")
            .group_by(|_| 0) // one group: everything routes to one shard
            .bucket_secs(60)
            .aggregate(FnFactory::new("tripwire", true, |_| Box::new(Tripwire)))
            .two_level(false)
            .try_build()
            .expect("valid query");
        let mut e = sharded(q, 2);
        // Exactly one batch's worth of tuples so the feed itself seals the
        // epoch (no explicit punctuation: the worker dies, and drop — not
        // a send — must discover it).
        for i in 0..DEFAULT_BATCH_SIZE {
            let mut p = pkt(0.001 * i as f64, 1);
            if i == 7 {
                p.len = 0xDEAD;
            }
            e.try_process(&p).expect("feed");
        }
        let tel = Arc::clone(e.telemetry());
        drop(e); // Drop must reap the dead worker and record the panic
        assert_eq!(tel.worker_panics.load(Relaxed), 1);
    }

    #[test]
    fn a_checkpoint_that_fails_mid_run_takes_the_recovery_ladder() {
        use crate::udaf::{AggValue, Aggregator, FnFactory};
        use fd_core::checkpoint::{CodecError, Encode};
        use std::any::Any;

        // Checkpoints while fresh, so configuration supervises it, and
        // declines once it has counted anything.
        struct Flaky(u64);
        impl Aggregator for Flaky {
            fn update(&mut self, _pkt: &Packet) {
                self.0 += 1;
            }
            fn merge_boxed(&mut self, _other: Box<dyn Aggregator>) {}
            fn emit(&self, _t: f64) -> AggValue {
                AggValue::Float(self.0 as f64)
            }
            fn size_bytes(&self) -> usize {
                8
            }
            fn as_any_box(self: Box<Self>) -> Box<dyn Any> {
                self
            }
            fn checkpoint_into(&self, out: &mut Vec<u8>) -> Option<()> {
                (self.0 == 0).then(|| self.0.put(out))
            }
            fn restore(&mut self, _bytes: &[u8]) -> Result<(), CodecError> {
                Ok(())
            }
        }

        let q = Query::builder("flaky")
            .group_by(|_| 0)
            .aggregate(FnFactory::new("flaky", false, |_| Box::new(Flaky(0))))
            .two_level(false)
            .try_build()
            .expect("valid query");
        let mut e = sharded(q, 1)
            .try_batch_size(32)
            .expect("batch")
            .checkpoint_every(64)
            .max_restarts(2);
        e.run((0..2_000).map(|i| pkt(0.001 * i as f64, 1)));
        // Every incarnation dies at its first checkpoint: the budget is
        // spent, and the shard degrades rather than the process.
        let snap = e.telemetry().snapshot();
        assert_eq!(
            (snap.worker_panics, snap.restarts, snap.degraded_shards),
            (3, 2, 1)
        );
        assert_eq!(snap.checkpoints, 0);
    }

    #[test]
    fn pooled_batches_recycle_and_count_like_fresh_ones() {
        // batches_sent must count recycled-pool sends identically to fresh
        // sends. Route everything to one shard, ship enough batches that
        // the bounded ring forces the worker to drain (returning buffers
        // to the pool) while the handle is still sealing. Supervision off:
        // this pins the worker-side recycling path.
        const BATCH: usize = 64;
        const N_BATCHES: u64 = 40;
        let q = Query::builder("pool")
            .group_by(|_| 0)
            .bucket_secs(60)
            .aggregate(count_factory())
            .two_level(false)
            .try_build()
            .expect("valid query");
        let mut e = sharded(q, 1)
            .try_batch_size(BATCH)
            .expect("batch")
            .checkpoint_every(0);
        let stream: Vec<Packet> = (0..N_BATCHES * BATCH as u64)
            .map(|i| pkt(0.001 * i as f64, 1))
            .collect();
        e.run(stream);
        let snap = e.telemetry().snapshot();
        let sent: u64 = snap.shards.iter().map(|s| s.batches_sent).sum();
        assert_eq!(
            sent, N_BATCHES,
            "every batch counted once, recycled or fresh"
        );
        let pool = e.batch_pool();
        assert!(
            pool.reuses() > 0,
            "steady state must recycle buffers (allocs {}, reuses {})",
            pool.allocs(),
            pool.reuses()
        );
        assert!(
            pool.allocs() < N_BATCHES,
            "most sends must reuse pooled buffers, not allocate"
        );
    }

    #[test]
    fn supervised_trim_reclaims_batch_buffers() {
        // Under supervision the apply path can't recycle (the backlog
        // holds a clone); the worker reclaims covered batches when it
        // trims after publishing each checkpoint. Checkpoint after every
        // batch so every trim succeeds deterministically: the worker
        // releases its apply-path reference *before* publishing the
        // checkpoint seq.
        const BATCH: usize = 64;
        const N_BATCHES: u64 = 40;
        let q = Query::builder("pool")
            .group_by(|_| 0)
            .bucket_secs(60)
            .aggregate(count_factory())
            .two_level(false)
            .try_build()
            .expect("valid query");
        let mut e = sharded(q, 1)
            .try_batch_size(BATCH)
            .expect("batch")
            .checkpoint_every(BATCH as u64);
        let stream: Vec<Packet> = (0..N_BATCHES * BATCH as u64)
            .map(|i| pkt(0.001 * i as f64, 1))
            .collect();
        e.run(stream);
        let snap = e.telemetry().snapshot();
        assert!(snap.checkpoints >= N_BATCHES / 2, "workers checkpointed");
        let pool = e.batch_pool();
        assert!(
            pool.reuses() > 0,
            "trimming must recycle buffers (allocs {}, reuses {})",
            pool.allocs(),
            pool.reuses()
        );
        assert!(pool.allocs() < N_BATCHES);
    }
}
