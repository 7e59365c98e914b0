//! One unified surface for running a query, whatever executes it.
//!
//! [`Engine`] (single-threaded) and [`ShardedEngine`] (N supervised
//! workers) share the same vocabulary — process, punctuate, finish, stats —
//! and [`StreamProcessor`] is that vocabulary as a trait, so differential
//! tests ([`replay`]) and tools are written once and run on either
//! executor. Methods that can genuinely fail on one implementation (a dead
//! unsupervised worker) are fallible for both; the single-threaded engine
//! simply never errs. [`StreamProcessor::process_packets`] is each
//! executor's batch path: the sharded engine's ingress plane, and
//! [`Engine::process_packets`], which folds a batch into its group store
//! as one run rather than tuple by tuple.

use crate::engine::{Engine, EngineStats, Row, StreamEvent};
use crate::shard::ShardedEngine;
use crate::telemetry::MetricsSnapshot;
use crate::tuple::{Micros, Packet};

/// A running query execution that consumes a timestamped stream and
/// produces bucketed rows: the one API over the single-threaded
/// [`Engine`] and the supervised [`ShardedEngine`].
pub trait StreamProcessor {
    /// Offers one tuple.
    ///
    /// # Errors
    /// [`fd_core::Error::WorkerLost`] if the executor has lost a worker it
    /// cannot recover (sharded engine with supervision disabled).
    fn process(&mut self, pkt: &Packet) -> Result<(), fd_core::Error>;

    /// Offers a batch of tuples through the executor's fastest path.
    ///
    /// # Errors
    /// As [`StreamProcessor::process`].
    fn process_packets(&mut self, pkts: &[Packet]) -> Result<(), fd_core::Error>;

    /// Advances the watermark without data, closing due buckets.
    ///
    /// # Errors
    /// As [`StreamProcessor::process`].
    fn punctuate(&mut self, wm: Micros) -> Result<(), fd_core::Error>;

    /// Offers one stream element (data or punctuation).
    ///
    /// # Errors
    /// As [`StreamProcessor::process`].
    fn process_event(&mut self, ev: &StreamEvent) -> Result<(), fd_core::Error> {
        match ev {
            StreamEvent::Data(pkt) => self.process(pkt),
            StreamEvent::Punctuation(ts) => self.punctuate(*ts),
        }
    }

    /// Ends the stream: closes all open buckets and returns every pending
    /// row. Idempotent where the executor supports it.
    fn finish(&mut self) -> Vec<Row>;

    /// Graceful drain: flushes everything in flight, waits up to `deadline`
    /// for queues to empty, then finishes — reporting what the shutdown
    /// cost (sheds, wedge respawns, epochs abandoned at the deadline). The
    /// single-threaded engine has nothing in flight, so the default simply
    /// finishes with a clean report.
    fn drain(&mut self, deadline: std::time::Duration) -> (Vec<Row>, crate::overload::DrainReport) {
        let _ = deadline;
        (self.finish(), crate::overload::DrainReport::clean())
    }

    /// Execution counters so far (shard-side counters of a sharded run
    /// are complete only after [`finish`](StreamProcessor::finish)).
    fn stats(&self) -> EngineStats;

    /// A point-in-time telemetry sample in the unified snapshot shape.
    /// The single-threaded engine synthesizes one from its counters; the
    /// sharded engine samples its live registry.
    fn telemetry_snapshot(&self) -> MetricsSnapshot;
}

/// Deterministic replay entry point for differential testing: feeds every
/// event to `p` in slice order, advances the watermark to `final_wm`,
/// finishes the run, and returns the rows in a canonical order —
/// `(bucket_start, key)` ascending — so two executors' outputs can be
/// compared element-wise regardless of shard interleaving.
///
/// # Errors
/// Propagates the first executor error ([`StreamProcessor::process`]).
pub fn replay<P: StreamProcessor>(
    p: &mut P,
    events: &[StreamEvent],
    final_wm: Micros,
) -> Result<Vec<Row>, fd_core::Error> {
    for ev in events {
        p.process_event(ev)?;
    }
    p.punctuate(final_wm)?;
    let mut rows = p.finish();
    rows.sort_by(|a, b| (a.bucket_start, &a.key).cmp(&(b.bucket_start, &b.key)));
    Ok(rows)
}

impl StreamProcessor for Engine {
    fn process(&mut self, pkt: &Packet) -> Result<(), fd_core::Error> {
        Engine::process(self, pkt);
        Ok(())
    }

    fn process_packets(&mut self, pkts: &[Packet]) -> Result<(), fd_core::Error> {
        Engine::process_packets(self, pkts);
        Ok(())
    }

    fn punctuate(&mut self, wm: Micros) -> Result<(), fd_core::Error> {
        Engine::punctuate(self, wm);
        Ok(())
    }

    fn finish(&mut self) -> Vec<Row> {
        Engine::finish(self)
    }

    fn stats(&self) -> EngineStats {
        Engine::stats(self)
    }

    fn telemetry_snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::from_engine_stats(&Engine::stats(self), self.watermark())
    }
}

impl StreamProcessor for ShardedEngine {
    fn process(&mut self, pkt: &Packet) -> Result<(), fd_core::Error> {
        self.try_process(pkt)
    }

    fn process_packets(&mut self, pkts: &[Packet]) -> Result<(), fd_core::Error> {
        self.try_process_packets(pkts)
    }

    fn punctuate(&mut self, wm: Micros) -> Result<(), fd_core::Error> {
        self.try_punctuate(wm)
    }

    fn finish(&mut self) -> Vec<Row> {
        ShardedEngine::finish(self)
    }

    fn drain(&mut self, deadline: std::time::Duration) -> (Vec<Row>, crate::overload::DrainReport) {
        ShardedEngine::drain(self, deadline)
    }

    fn stats(&self) -> EngineStats {
        ShardedEngine::stats(self)
    }

    fn telemetry_snapshot(&self) -> MetricsSnapshot {
        self.telemetry().snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregators::count_factory;
    use crate::tuple::{Proto, MICROS_PER_SEC};
    use crate::udaf::Query;

    fn pkt(ts_s: f64, dst_ip: u32) -> Packet {
        Packet {
            ts: (ts_s * MICROS_PER_SEC as f64) as Micros,
            src_ip: 1,
            dst_ip,
            src_port: 1000,
            dst_port: 80,
            len: 100,
            proto: Proto::Tcp,
        }
    }

    fn query() -> Query {
        Query::builder("count")
            .group_by(|p| p.dst_host())
            .bucket_secs(60)
            .aggregate(count_factory())
            .try_build()
            .expect("valid query")
    }

    /// Generic driver code: compiles once, runs on both executors.
    fn drive<P: StreamProcessor>(p: &mut P) -> Vec<Row> {
        for i in 0..5_000u64 {
            StreamProcessor::process(p, &pkt(0.05 * i as f64, (i % 17) as u32)).expect("process");
        }
        StreamProcessor::punctuate(p, 500 * MICROS_PER_SEC).expect("punctuate");
        StreamProcessor::finish(p)
    }

    #[test]
    fn both_executors_agree_through_the_trait() {
        let mut single = Engine::new(query());
        let mut parallel = ShardedEngine::try_new(query(), 3).expect("spawn");
        let a = drive(&mut single);
        let b = drive(&mut parallel);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.bucket_start, x.key), (y.bucket_start, y.key));
            assert_eq!(x.value, y.value);
        }
        assert_eq!(
            StreamProcessor::stats(&single).tuples_in,
            StreamProcessor::stats(&parallel).tuples_in
        );
    }

    #[test]
    fn telemetry_snapshot_has_one_shape() {
        let mut single = Engine::new(query());
        let mut parallel = ShardedEngine::try_new(query(), 2).expect("spawn");
        drive(&mut single);
        drive(&mut parallel);
        let s = single.telemetry_snapshot();
        let p = parallel.telemetry_snapshot();
        assert_eq!(s.tuples_in, p.tuples_in);
        assert_eq!(s.rows_out, p.rows_out);
        assert!(s.shards.is_empty(), "single-threaded: no shard slices");
        assert_eq!(p.shards.len(), 2);
    }
}
