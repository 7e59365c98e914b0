//! End of stream: drain, join, merge the shards' closed buckets, emit.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, PoisonError};
use std::time::{Duration, Instant};

use super::recover::reap_zombies;
#[cfg(doc)]
use super::IngressHandle;
use super::ShardedEngine;
use crate::engine::{Engine, Row};
use crate::groups::{groups, Run};
use crate::overload::DrainReport;

impl ShardedEngine {
    /// Graceful drain: seals ingress, flushes every staged tuple, waits up
    /// to `deadline` for all shard queues to empty, then finishes the run
    /// and reports exactly what the shutdown cost. A shard still lagging at
    /// the deadline is abandoned — its worker retired, its state salvaged
    /// from the last checkpoint — rather than blocking shutdown forever,
    /// and the loss shows up in the report's `per_shard_lag` /
    /// `unflushed_epochs` instead of vanishing.
    ///
    /// Coordinator mode only: callers running taken ingress handles on
    /// their own threads must [`IngressHandle::finish`] them first.
    pub fn drain(&mut self, deadline: Duration) -> (Vec<Row>, DrainReport) {
        let mut report = DrainReport {
            per_shard_lag: vec![0; self.n_shards()],
            ..DrainReport::default()
        };
        if self.done {
            return (Vec::new(), report);
        }
        self.seal_final();
        let tel = Arc::clone(&self.fab.telemetry);
        let lag_of = |shard: usize| tel.shards()[shard].queue_depth.load(Relaxed);
        let give_up = Instant::now() + deadline;
        while (0..self.n_shards()).any(|s| lag_of(s) > 0) {
            if Instant::now() >= give_up {
                report.deadline_expired = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        if report.deadline_expired {
            for shard in 0..self.n_shards() {
                let lag = lag_of(shard);
                if lag > 0 {
                    report.per_shard_lag[shard] = lag;
                    report.unflushed_epochs += lag;
                    self.abandon_shard(shard);
                }
            }
        }
        let rows = self.finish();
        report.shed_tuples = tel.shed_tuples.load(Relaxed);
        report.shed_batches = tel.shed_batches.load(Relaxed);
        report.wedged_respawns = tel.wedged_respawns.load(Relaxed);
        (rows, report)
    }

    /// Abandons a shard that failed to drain by its deadline: retires the
    /// worker's lease, parks the thread as a zombie (it may be blocked on
    /// a full downstream or genuinely wedged), and degrades the shard so
    /// [`ShardedEngine::finish`] salvages its last checkpoint.
    fn abandon_shard(&self, shard: usize) {
        let sh = &self.fab.shards[shard];
        if sh.degraded.load(Relaxed) {
            return;
        }
        let mut inner = sh.inner.lock().unwrap_or_else(PoisonError::into_inner);
        self.fab.retire_worker_locked(shard, &mut inner);
        self.fab.degrade_locked(shard);
    }

    /// Ends the stream: flushes all handles, joins every shard worker,
    /// merges their closed buckets, and returns every row in (bucket,
    /// key) order — the same order the single-threaded engine emits.
    /// Subsequent calls return no rows. Never panics on a lost worker.
    ///
    /// A shard's closed runs arrive in two parts: those its checkpoint
    /// slot holds (everything closed up to the last checkpoint, handed off
    /// once each) and those the worker returns (everything after). A
    /// worker found dead here is put through the same supervision
    /// protocol as one found dead mid-stream: restore, re-read, bounded
    /// retries, then degradation with checkpoint salvage. Without
    /// supervision its shard's rows are lost (counted in
    /// `worker_panics`) and the surviving shards' rows are returned.
    pub fn finish(&mut self) -> Vec<Row> {
        if self.done {
            return Vec::new();
        }
        self.done = true;
        // Coordinator handles flush and close here; parallel callers have
        // already finished or dropped theirs.
        self.seal_final();
        for h in std::mem::take(&mut self.handles) {
            h.finish();
        }
        let fab = Arc::clone(&self.fab);
        // Per shard: the runs closed after its last checkpoint.
        let mut tails: Vec<Vec<Box<dyn Run>>> = Vec::new();
        for (shard, sh) in fab.shards.iter().enumerate() {
            let mut tail = Vec::new();
            let mut inner = sh.inner.lock().unwrap_or_else(PoisonError::into_inner);
            while inner.worker.is_some() {
                fab.reap_locked(shard, &mut inner);
                if inner.exited.is_none() && fab.cfg.supervising() {
                    // It panicked. Same protocol as mid-stream: bounded
                    // respawn (the fresh worker re-reads the tail its
                    // queues retain and exits — every producer has closed
                    // its queue), else degrade with salvage below.
                    fab.recover_locked(shard, &mut inner, false);
                }
            }
            if let Some((closed, stats)) = inner.exited.take() {
                self.shard_stats[shard] = stats;
                tail = closed;
            }
            let mut zombies = std::mem::take(&mut inner.zombies);
            drop(inner);
            if sh.degraded.load(Relaxed) {
                // Salvage the degraded shard's last checkpoint: everything
                // up to it survives in the final result — the buckets
                // still open in the snapshot here, the closed ones below.
                let salvaged = sh
                    .slot
                    .read(|v| Engine::restore(fab.worker_query.clone(), v.blob));
                if let Some(Ok(mut e)) = salvaged {
                    tail.extend(e.finish_state());
                    self.shard_stats[shard] = e.stats();
                }
            }
            reap_zombies(&mut zombies);
            tails.push(tail);
        }
        // All workers have drained and published their last checkpoints:
        // flush the WAL, persist what the last commit covers — the writer
        // reads the slots' closed runs, so this comes before they move
        // out — and commit a final manifest, so a cleanly-finished store
        // recovers instantly.
        if let Some(d) = self.durable.as_mut() {
            d.finish();
        }
        // The shards' closed runs in shard order: what the slot holds, then
        // what the worker returned.
        let mut closed = Vec::new();
        for (sh, tail) in fab.shards.iter().zip(tails) {
            closed.extend(sh.slot.take_closed());
            closed.extend(tail);
        }
        // Fold the producers' admission counters into the engine stats.
        for s in fab
            .stats_out
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .flatten()
        {
            self.stats.tuples_in += s.tuples_in;
            self.stats.filtered += s.filtered;
            self.stats.late_drops += s.late_drops;
        }
        self.emit_rows(closed)
    }

    /// Merges each bucket's runs key by key, evaluates them into rows, and
    /// records the final counters unconditionally (even with live
    /// telemetry off), so a post-run snapshot always agrees exactly with
    /// `stats()`.
    fn emit_rows(&mut self, mut closed: Vec<Box<dyn Run>>) -> Vec<Row> {
        let width = self.query.bucket_micros;
        // Stable: the runs of a bucket — one per shard that met it, or per
        // worker incarnation — stay in arrival order, and merge in it.
        closed.sort_by_key(|run| run.bucket());
        // Exact unless a group met on two shards (a splittable aggregate).
        let mut rows = Vec::with_capacity(groups(&closed));
        let mut runs = closed.into_iter().peekable();
        while let Some(run) = runs.next() {
            let bucket = run.bucket();
            let mut more = Vec::new();
            while let Some(same) = runs.next_if(|run| run.bucket() == bucket) {
                more.push(same);
            }
            run.rows(more, width, &mut rows);
            self.stats.buckets_closed += 1;
        }
        self.stats.rows_out = rows.len() as u64;
        // Admission counters: every closed handle left its final figures in
        // its producer mirror, which the snapshot sums.
        let t = &self.fab.telemetry;
        t.rows_out.store(self.stats.rows_out, Relaxed);
        t.buckets_closed.store(self.stats.buckets_closed, Relaxed);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::super::ingress::route_key;
    use super::super::testkit::*;
    use super::super::*;
    use super::*;

    #[test]
    fn stats_aggregate_across_shards() {
        let q = Query::builder("stats")
            .filter(|p| p.proto == Proto::Tcp)
            .group_by(|p| p.dst_host())
            .bucket_secs(60)
            .aggregate(count_factory())
            .try_build()
            .expect("valid query");
        let mut e = sharded(q, 3);
        for i in 0..300 {
            e.try_process(&pkt(i as f64 * 0.1, (i % 7) as u32))
                .expect("feed");
        }
        let rows = e.finish();
        let stats = e.stats();
        assert_eq!(stats.tuples_in, 300);
        assert_eq!(stats.rows_out, rows.len() as u64);
        assert!(stats.buckets_closed >= 1);
        let per_shard = e.per_shard_stats();
        assert_eq!(per_shard.len(), 3);
        assert_eq!(
            per_shard.iter().map(|s| s.tuples_in).sum::<u64>(),
            300,
            "every accepted tuple lands on exactly one shard"
        );
    }

    #[test]
    fn finish_is_idempotent_and_drop_reaps_workers() {
        for producers in [1usize, 2] {
            let mut e = sharded(count_query(), 2)
                .try_producers(producers)
                .expect("producers");
            e.try_process(&pkt(1.0, 1)).expect("feed");
            assert_eq!(e.finish().len(), 1);
            assert!(e.finish().is_empty());
        }
        // Dropping a never-finished engine must not hang or leak.
        drop(
            sharded(count_query(), 2)
                .try_producers(3)
                .expect("producers"),
        );
        // Dropping taken handles without finish() must not hang either.
        let mut e = sharded(count_query(), 2)
            .try_producers(2)
            .expect("producers");
        drop(e.take_ingress_handles());
        drop(e);
    }

    #[test]
    fn finish_after_worker_lost_returns_surviving_rows() {
        // No supervision, shard 0's worker dies mid-stream, and the caller
        // goes straight to finish(): the final flush meets the dead worker
        // again. That must be logged and counted — never a panic — and
        // the surviving shard's rows must come back.
        let stream: Vec<Packet> = (0..4_000)
            .map(|i| pkt(0.01 * i as f64, (i % 7) as u32))
            .collect();
        let mut e = sharded(count_query(), 2)
            .try_batch_size(64)
            .expect("batch")
            .checkpoint_every(0)
            .inject_fault(plan("panic:0:100"));
        let fed = stream
            .iter()
            .take_while(|p| e.try_process(p).is_ok())
            .count();
        assert!(fed < stream.len(), "the dead worker must surface as an Err");
        let rows = e.finish();
        assert!(!rows.is_empty(), "the surviving shard's rows come back");
        let survivors: std::collections::HashSet<u64> = (0..7u32)
            .map(|d| pkt(0.0, d).dst_host())
            .filter(|&k| route_key(k, 2) == 1)
            .collect();
        assert!(rows.iter().all(|r| survivors.contains(&r.key)));
        let snap = e.telemetry().snapshot();
        assert_eq!(snap.worker_panics, 1, "the loss is counted");
        // drain() takes the same path.
        let mut e = sharded(count_query(), 2)
            .try_batch_size(64)
            .expect("batch")
            .checkpoint_every(0)
            .inject_fault(plan("panic:0:100"));
        let _ = stream.iter().try_for_each(|p| e.try_process(p));
        let (rows, _) = e.drain(Duration::from_secs(5));
        assert!(!rows.is_empty());
    }

    #[test]
    fn telemetry_final_counters_match_stats() {
        let q = Query::builder("tel")
            .filter(|p| p.proto == Proto::Tcp)
            .group_by(|p| p.dst_host())
            .bucket_secs(60)
            .aggregate(count_factory())
            .try_build()
            .expect("valid query");
        let mut e = sharded(q, 3);
        let mut events = Vec::new();
        for i in 0..500 {
            let mut p = pkt(i as f64 * 0.5, (i % 11) as u32);
            if i % 50 == 0 {
                p.proto = Proto::Udp; // filtered out
            }
            events.push(StreamEvent::Data(p));
        }
        events.push(StreamEvent::Punctuation(400 * MICROS_PER_SEC));
        events.push(StreamEvent::Data(pkt(10.0, 1))); // late: dropped
        e.try_process_batch(&events).expect("feed");
        let rows = e.finish();
        let stats = e.stats();
        let snap = e.telemetry().snapshot();
        assert_eq!(snap.tuples_in, stats.tuples_in);
        assert_eq!(snap.filtered, stats.filtered);
        assert_eq!(snap.late_drops, stats.late_drops);
        assert_eq!(snap.rows_out, rows.len() as u64);
        assert_eq!(snap.buckets_closed, stats.buckets_closed);
        assert!(stats.late_drops >= 1);
        assert_eq!(snap.worker_panics, 0);
        // Every queue drained, every shard caught up to the watermark.
        for shard in &snap.shards {
            assert_eq!(shard.queue_depth, 0);
            assert_eq!(shard.watermark_lag_us, 0);
        }
        assert_eq!(
            snap.shards.iter().map(|s| s.tuples_processed).sum::<u64>(),
            stats.tuples_in - stats.filtered - stats.late_drops
        );
    }

    #[test]
    fn drain_on_healthy_engine_reports_clean() {
        let stream: Vec<Packet> = (0..3_000)
            .map(|i| pkt(0.01 * i as f64, (i % 7) as u32))
            .collect();
        let single = Engine::new(count_query()).run(stream.clone());
        let mut e = sharded(count_query(), 2);
        for p in &stream {
            e.try_process(p).expect("feed");
        }
        let (rows, report) = e.drain(Duration::from_secs(10));
        assert_eq!(single.len(), rows.len());
        assert!(!report.deadline_expired);
        assert!(!report.data_lost());
        assert_eq!(report.unflushed_epochs, 0);
        assert!(report.per_shard_lag.iter().all(|&l| l == 0));
        // A second drain on a finished engine is a no-op.
        let (rows2, report2) = e.drain(Duration::from_secs(1));
        assert!(rows2.is_empty());
        assert!(!report2.data_lost());
    }
}
