//! Stream drivers: shared scans over multiple queries, and rate-controlled
//! replay that makes the paper's "tuple dropping" behaviour observable.
//!
//! GS runs many continuous queries against one packet feed; [`QuerySet`]
//! reproduces that shared-scan arrangement. The paper's experiments vary
//! the *offered* stream rate and report CPU load and drops once the system
//! saturates; [`RateDriver`] replays a recorded trace at a chosen offered
//! rate against the real measured processing speed, dropping tuples when
//! the ingress buffer overflows — the executable version of the
//! [`crate::metrics`] load model.

use std::time::Instant;

use crate::engine::{Engine, EngineStats, Row, StreamEvent};
use crate::processor::StreamProcessor;
#[cfg(doc)]
use crate::shard::ShardedEngine;
use crate::tuple::{Micros, Packet};
use crate::udaf::Query;

/// Interleaves periodic heartbeats (punctuations) into a time-ordered
/// packet stream: one [`StreamEvent::Punctuation`] every `interval` of
/// stream time, plus a final one past the last packet — GS's mechanism for
/// keeping time buckets flowing through idle stretches.
pub fn with_heartbeats(
    packets: impl IntoIterator<Item = Packet>,
    interval: Micros,
) -> Vec<StreamEvent> {
    assert!(interval > 0);
    let mut out = Vec::new();
    let mut next_beat = interval;
    let mut max_ts = 0;
    for p in packets {
        while p.ts >= next_beat {
            out.push(StreamEvent::Punctuation(next_beat));
            next_beat += interval;
        }
        max_ts = max_ts.max(p.ts);
        out.push(StreamEvent::Data(p));
    }
    out.push(StreamEvent::Punctuation(max_ts.max(next_beat)));
    out
}

/// Several continuous queries sharing one scan of the stream.
pub struct QuerySet {
    engines: Vec<Engine>,
}

impl QuerySet {
    /// Instantiates all queries.
    pub fn new(queries: Vec<Query>) -> Self {
        assert!(!queries.is_empty(), "need at least one query");
        Self {
            engines: queries.into_iter().map(Engine::new).collect(),
        }
    }

    /// Offers one tuple to every query.
    pub fn process(&mut self, pkt: &Packet) {
        for e in &mut self.engines {
            e.process(pkt);
        }
    }

    /// Ends the stream; returns `(query name, rows)` per query.
    pub fn finish(&mut self) -> Vec<(String, Vec<Row>)> {
        self.engines
            .iter_mut()
            .map(|e| (e.query_name().to_string(), e.finish()))
            .collect()
    }

    /// Per-query execution counters.
    pub fn stats(&self) -> Vec<(String, EngineStats)> {
        self.engines
            .iter()
            .map(|e| (e.query_name().to_string(), e.stats()))
            .collect()
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.engines.len()
    }

    /// True if the set is empty (never: construction requires ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }

    /// Total live aggregation state across all queries.
    pub fn space_bytes(&self) -> usize {
        self.engines.iter().map(Engine::space_bytes).sum()
    }
}

/// Outcome of a rate-controlled replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayStats {
    /// Tuples offered by the trace.
    pub offered: u64,
    /// Tuples actually processed.
    pub processed: u64,
    /// Tuples dropped at the (simulated) ingress buffer.
    pub dropped: u64,
    /// Wall-clock processing time, seconds.
    pub busy_secs: f64,
    /// CPU load: busy time over stream (offered) time, capped at 100.
    pub cpu_load_pct: f64,
}

impl ReplayStats {
    /// Fraction of offered tuples dropped.
    pub fn drop_fraction(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.dropped as f64 / self.offered as f64
        }
    }
}

/// Replays a trace at a fixed offered rate against the engine's real
/// processing speed.
///
/// Tuples arrive on a virtual clock at `rate_pps`; the engine services them
/// as fast as the host CPU allows (measured per batch). When the engine
/// falls behind by more than `buffer` tuples, the surplus is dropped — the
/// behaviour the paper reports when backward-decay machinery saturates a
/// core.
#[derive(Debug, Clone, Copy)]
pub struct RateDriver {
    /// Offered rate, tuples per second.
    pub rate_pps: f64,
    /// Ingress buffer capacity in tuples.
    pub buffer: u64,
    /// Tuples per timing batch (the measurement granularity).
    pub batch: usize,
}

impl RateDriver {
    /// Creates a driver with a 64k-tuple ingress buffer and 1024-tuple
    /// timing batches.
    pub fn new(rate_pps: f64) -> Self {
        assert!(rate_pps > 0.0);
        Self {
            rate_pps,
            buffer: 65_536,
            batch: 1024,
        }
    }

    /// Replays `packets` through any [`StreamProcessor`] at the offered
    /// rate.
    ///
    /// For the single-threaded [`Engine`] the service time per batch is the
    /// full aggregation cost. For a [`ShardedEngine`] it is the
    /// *dispatcher's* time — admission plus routing — because the workers
    /// aggregate concurrently on other cores. That is exactly what the
    /// sharded architecture buys: the ingress thread only has to keep up
    /// with admission, so the saturation rate (and the drop onset) moves
    /// out by roughly the per-tuple aggregation cost over the per-tuple
    /// dispatch cost.
    ///
    /// # Errors
    /// Propagates the first processing error (e.g.
    /// [`fd_core::Error::WorkerLost`] from an unsupervised sharded engine).
    pub fn try_replay<P: StreamProcessor>(
        &self,
        engine: &mut P,
        packets: &[Packet],
    ) -> Result<ReplayStats, fd_core::Error> {
        self.replay_with(packets, |p| engine.process(p))
    }

    fn replay_with(
        &self,
        packets: &[Packet],
        mut process: impl FnMut(&Packet) -> Result<(), fd_core::Error>,
    ) -> Result<ReplayStats, fd_core::Error> {
        let mut processed = 0u64;
        let mut dropped = 0u64;
        let mut free_at = 0.0f64; // virtual clock: when the engine is next idle
        let mut busy_secs = 0.0f64; // accumulated service time
        let mut i = 0usize;
        while i < packets.len() {
            let end = (i + self.batch).min(packets.len());
            // Arrival time of the first tuple of the batch on the offered
            // clock.
            let arrival = i as f64 / self.rate_pps;
            // Backlog in tuples when this batch arrives: how much offered
            // data is waiting because the engine is still busy.
            let lag_secs = (free_at - arrival).max(0.0);
            let backlog = lag_secs * self.rate_pps;
            if backlog > self.buffer as f64 {
                // Buffer overflow: this batch is lost at the NIC.
                dropped += (end - i) as u64;
                i = end;
                continue;
            }
            let t0 = Instant::now();
            for p in &packets[i..end] {
                process(p)?;
            }
            let service = t0.elapsed().as_secs_f64();
            // The engine starts serving when the batch has arrived and the
            // engine is free.
            free_at = free_at.max(arrival) + service;
            busy_secs += service;
            processed += (end - i) as u64;
            i = end;
        }
        let offered = packets.len() as u64;
        let stream_secs = offered as f64 / self.rate_pps;
        Ok(ReplayStats {
            offered,
            processed,
            dropped,
            busy_secs,
            cpu_load_pct: (busy_secs / stream_secs * 100.0).min(100.0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregators::{count_factory, fwd_sum_factory};
    use crate::tuple::{Proto, MICROS_PER_SEC};
    use fd_core::decay::Monomial;

    fn pkt(i: u64) -> Packet {
        Packet {
            ts: i * MICROS_PER_SEC / 1000,
            src_ip: i as u32,
            dst_ip: (i % 64) as u32,
            src_port: 1,
            dst_port: 80,
            len: 100,
            proto: Proto::Tcp,
        }
    }

    fn count_query(name: &str) -> Query {
        Query::builder(name)
            .group_by(|p| p.dst_host())
            .bucket_secs(60)
            .aggregate(count_factory())
            .build()
    }

    #[test]
    fn query_set_runs_all_queries_over_one_scan() {
        let mut qs = QuerySet::new(vec![
            count_query("counts"),
            Query::builder("decayed")
                .group_by(|p| p.dst_host())
                .bucket_secs(60)
                .aggregate(fwd_sum_factory(Monomial::quadratic(), |p| p.len as f64))
                .build(),
        ]);
        for i in 0..1000 {
            qs.process(&pkt(i));
        }
        let results = qs.finish();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].0, "counts");
        assert_eq!(results[0].1.len(), 64);
        assert_eq!(results[1].1.len(), 64);
        for (_, stats) in qs.stats() {
            assert_eq!(stats.tuples_in, 1000);
        }
    }

    #[test]
    fn heartbeats_keep_buckets_flowing_through_idle_gaps() {
        // Data in minute 0, then silence, then data in minute 10. Without
        // heartbeats, minute 0 only closes when minute-10 data arrives;
        // with them, it closes on schedule.
        let mut packets: Vec<Packet> = (0..100).map(pkt).collect(); // t < 0.1 s
        packets.push(Packet {
            ts: 600 * MICROS_PER_SEC,
            ..pkt(0)
        });
        let events = with_heartbeats(packets.clone(), 60 * MICROS_PER_SEC);
        // Punctuations present and interleaved in order.
        let beats = events
            .iter()
            .filter(|e| matches!(e, StreamEvent::Punctuation(_)))
            .count();
        assert!(beats >= 10, "expected ~10 heartbeats, got {beats}");

        let mut e = Engine::new(count_query("hb"));
        let mut first_row_after = None;
        for (i, ev) in events.iter().enumerate() {
            e.process_event(ev);
            if first_row_after.is_none() && e.stats().rows_out > 0 {
                first_row_after = Some(i);
            }
        }
        // The first bucket closed on a punctuation (index ≤ data count + a
        // couple of beats), long before the minute-10 packet (last event-2).
        let idx = first_row_after.expect("bucket must close");
        assert!(
            idx < events.len() - 2,
            "bucket only closed at stream end ({idx})"
        );
        e.finish();
    }

    #[test]
    fn replay_at_low_rate_drops_nothing() {
        let mut e = Engine::new(count_query("slow"));
        let packets: Vec<Packet> = (0..20_000).map(pkt).collect();
        // 10 tuples/s offered: any engine keeps up.
        let stats = RateDriver {
            rate_pps: 1e4,
            buffer: 1024,
            batch: 256,
        }
        .try_replay(&mut e, &packets)
        .expect("an engine never fails");
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.processed, 20_000);
        assert!(stats.cpu_load_pct < 100.0);
    }

    #[test]
    fn replay_at_impossible_rate_drops_tuples() {
        let mut e = Engine::new(count_query("fast"));
        let packets: Vec<Packet> = (0..200_000).map(pkt).collect();
        // 10¹² tuples/s offered: no engine keeps up; the buffer must
        // overflow.
        let stats = RateDriver {
            rate_pps: 1e12,
            buffer: 4_096,
            batch: 1024,
        }
        .try_replay(&mut e, &packets)
        .expect("an engine never fails");
        assert!(stats.dropped > 0, "expected drops at an impossible rate");
        assert_eq!(stats.processed + stats.dropped, stats.offered);
        assert_eq!(stats.cpu_load_pct, 100.0);
    }

    #[test]
    fn replay_stats_accounting() {
        let s = ReplayStats {
            offered: 100,
            processed: 75,
            dropped: 25,
            busy_secs: 1.0,
            cpu_load_pct: 100.0,
        };
        assert!((s.drop_fraction() - 0.25).abs() < 1e-12);
        let empty = ReplayStats {
            offered: 0,
            processed: 0,
            dropped: 0,
            busy_secs: 0.0,
            cpu_load_pct: 0.0,
        };
        assert_eq!(empty.drop_fraction(), 0.0);
    }
}
