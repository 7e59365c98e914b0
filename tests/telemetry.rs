//! Live-telemetry integration tests: the whole point of the registry is
//! that it is readable *while the pipeline runs* — from the dispatching
//! thread between batches, and from an unrelated observer thread — and
//! that once the run is over its counters agree exactly with the
//! engine's own [`EngineStats`].

use std::collections::HashSet;
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use forward_decay::core::decay::Exponential;
use forward_decay::engine::prelude::*;
use forward_decay::engine::telemetry::{
    Metric, Value, ENGINE_METRICS, PRODUCER_METRICS, SHARD_METRICS,
};
use forward_decay::gen::TraceConfig;

fn decayed_query() -> Query {
    Query::builder("telemetry")
        .group_by(|p| p.dst_host())
        .bucket_secs(60)
        .aggregate(fwd_sum_factory(Exponential::new(0.05), |p| p.len as f64))
        .lfta_slots(1024)
        .try_build()
        .expect("valid query")
}

#[test]
fn gauges_are_readable_mid_stream_before_finish() {
    let trace = TraceConfig {
        seed: 11,
        duration_secs: 120.0,
        rate_pps: 10_000.0,
        n_hosts: 500,
        ..Default::default()
    };
    let mut e = ShardedEngine::try_new(decayed_query(), 4).expect("spawn shards");
    let tel = Arc::clone(e.telemetry());
    let mut mid_snapshots = 0usize;
    for (i, p) in trace.iter().enumerate() {
        e.try_process(&p).expect("feed");
        if i == 300_000 {
            // Force a punctuation broadcast so the workers have applied a
            // watermark, then sample while the stream is still open.
            e.try_punctuate(p.ts).expect("punctuate");
            let s = tel.snapshot();
            mid_snapshots += 1;
            assert_eq!(s.tuples_in, 300_001, "admission mirror lags");
            assert!(s.dispatcher_watermark_us >= p.ts);
            assert_eq!(s.rows_out, 0, "no rows before finish()");
            assert!(
                s.shards.iter().map(|sh| sh.batches_sent).sum::<u64>() > 0,
                "batches should have been dispatched by now"
            );
            for (i, sh) in s.shards.iter().enumerate() {
                // Queue depth is sampled live: bounded by the channel, and
                // consistent (inc/dec are unconditional on both sides).
                assert!(sh.queue_depth <= 64, "shard {i} depth {}", sh.queue_depth);
                // Each worker has applied the broadcast watermark or is
                // at most one punctuation behind the dispatcher.
                assert!(
                    sh.watermark_lag_us <= s.dispatcher_watermark_us,
                    "shard {i} lag {} vs dispatcher {}",
                    sh.watermark_lag_us,
                    s.dispatcher_watermark_us
                );
            }
        }
    }
    assert_eq!(mid_snapshots, 1);
    let rows = e.finish();
    assert!(!rows.is_empty());
    // After finish: quiescent and exact.
    let s = tel.snapshot();
    let stats = e.stats();
    assert_eq!(s.tuples_in, stats.tuples_in);
    assert_eq!(s.rows_out, stats.rows_out);
    for sh in &s.shards {
        assert_eq!(sh.queue_depth, 0);
        assert_eq!(sh.watermark_lag_us, 0);
    }
}

#[test]
fn observer_thread_watches_a_live_run_via_reporter() {
    // A Reporter on another thread samples the registry while the
    // dispatcher floods tuples; every sample it takes must be internally
    // sane, and the series of tuples_in samples must be non-decreasing.
    let trace = TraceConfig {
        seed: 12,
        duration_secs: 180.0,
        rate_pps: 20_000.0,
        n_hosts: 1_000,
        ..Default::default()
    };
    let mut e = ShardedEngine::try_new(decayed_query(), 3).expect("spawn shards");
    let seen: Arc<Mutex<Vec<MetricsSnapshot>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    let mut reporter = Reporter::spawn(
        Arc::clone(e.telemetry()),
        Duration::from_millis(2),
        move |s| sink.lock().unwrap().push(s),
    )
    .expect("spawn metrics reporter");
    let rows = e.run(trace.iter());
    reporter.stop();
    assert!(!rows.is_empty());
    let samples = seen.lock().unwrap();
    assert!(
        samples.len() >= 2,
        "reporter sampled only {} times",
        samples.len()
    );
    let mut prev = 0u64;
    for s in samples.iter() {
        assert!(s.tuples_in >= prev, "tuples_in went backwards");
        prev = s.tuples_in;
        assert!(s.filtered + s.late_drops <= s.tuples_in);
        assert_eq!(s.worker_panics, 0);
    }
    // At least one mid-run sample caught the stream in flight.
    assert!(
        samples.iter().any(|s| s.tuples_in > 0 && s.rows_out == 0),
        "no sample observed the run before finish()"
    );
}

#[test]
fn disabled_telemetry_still_records_final_counters() {
    let trace = TraceConfig {
        seed: 13,
        duration_secs: 60.0,
        rate_pps: 5_000.0,
        n_hosts: 200,
        ..Default::default()
    };
    let mut e = ShardedEngine::try_new(decayed_query(), 2)
        .expect("spawn shards")
        .live_telemetry(false);
    let rows = e.run(trace.iter());
    let stats = e.stats();
    let s = e.telemetry().snapshot();
    // Hot-path mirrors were off, but finish() stores the end-of-run
    // counters unconditionally.
    assert_eq!(s.tuples_in, stats.tuples_in);
    assert_eq!(s.late_drops, stats.late_drops);
    assert_eq!(s.rows_out, rows.len() as u64);
    assert_eq!(s.buckets_closed, stats.buckets_closed);
    // ...while the per-batch histograms stayed silent.
    for sh in &s.shards {
        assert_eq!(sh.batch_ns.count, 0);
        assert_eq!(sh.tuples_processed, 0);
    }
}

#[test]
fn serialized_snapshots_carry_the_exact_counters() {
    let trace = TraceConfig {
        seed: 14,
        duration_secs: 90.0,
        rate_pps: 10_000.0,
        n_hosts: 300,
        ..Default::default()
    };
    let mut e = ShardedEngine::try_new(decayed_query(), 2).expect("spawn shards");
    e.run(trace.iter());
    let stats = e.stats();
    let s = e.telemetry().snapshot();
    let prom = s.to_prometheus();
    assert!(prom.contains(&format!("fd_tuples_in {}", stats.tuples_in)));
    assert!(prom.contains(&format!("fd_rows_out {}", stats.rows_out)));
    assert!(prom.contains("fd_shard_tuples_processed{shard=\"1\"}"));
    let json = s.to_json();
    assert!(json.contains(&format!("\"tuples_in\":{}", stats.tuples_in)));
    assert!(json.contains(&format!("\"rows_out\":{}", stats.rows_out)));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

/// Soak: several million tuples through a fully instrumented sharded
/// pipeline (CI re-runs this with `-C debug-assertions` to arm the
/// numeric guards). The registry must stay consistent throughout:
/// conservation of tuples, bounded queues, no panics.
#[test]
fn telemetry_soak_conserves_tuples_under_load() {
    let trace = TraceConfig {
        seed: 15,
        duration_secs: 240.0,
        rate_pps: 15_000.0,
        n_hosts: 2_000,
        ooo_jitter_secs: 0.25,
        ..Default::default()
    };
    let q = Query::builder("soak")
        .filter(|p| p.proto == Proto::Tcp)
        .group_by(|p| p.dst_host())
        .bucket_secs(60)
        .slack_secs(1.0)
        .aggregate(fwd_sum_factory(Exponential::new(0.5), |p| p.len as f64))
        .lfta_slots(2048)
        .try_build()
        .expect("valid query");
    let mut e = ShardedEngine::try_new(q, 4).expect("spawn shards");
    let tel = Arc::clone(e.telemetry());
    for (i, p) in trace.iter().enumerate() {
        e.try_process(&p).expect("feed");
        if i % 400_000 == 0 {
            let s = tel.snapshot();
            assert!(s.filtered + s.late_drops <= s.tuples_in);
            for sh in &s.shards {
                assert!(sh.queue_depth <= 64);
            }
        }
    }
    let rows = e.finish();
    let stats = e.stats();
    assert!(stats.tuples_in > 3_000_000, "soak too short");
    assert!(!rows.is_empty());
    let s = tel.snapshot();
    assert_eq!(s.worker_panics, 0);
    assert_eq!(
        s.shards.iter().map(|sh| sh.tuples_processed).sum::<u64>(),
        stats.tuples_in - stats.filtered - stats.late_drops,
        "tuples lost or duplicated between dispatcher and workers"
    );
    let batches: u64 = s.shards.iter().map(|sh| sh.batches_sent).sum();
    let batch_samples: u64 = s.shards.iter().map(|sh| sh.batch_ns.count).sum();
    assert_eq!(batches, batch_samples, "every batch must be timed");
    assert_eq!(tel.worker_panics.load(Relaxed), 0);
}

#[test]
fn supervision_counters_surface_in_every_export_format() {
    use forward_decay::engine::fault::{FaultKind, FaultPlan};

    // A clean supervised run: checkpoints tick, nothing else does.
    let trace = TraceConfig {
        seed: 23,
        duration_secs: 30.0,
        rate_pps: 10_000.0,
        n_hosts: 500,
        ..Default::default()
    };
    let mut e = ShardedEngine::try_new(decayed_query(), 3)
        .expect("spawn shards")
        .checkpoint_every(4_096);
    let rows = e.run(trace.iter());
    assert!(!rows.is_empty());
    let s = e.telemetry().snapshot();
    assert!(s.checkpoints > 0, "supervised workers must checkpoint");
    assert_eq!(s.restarts, 0);
    assert_eq!(s.replayed_batches, 0);
    assert_eq!(s.replayed_tuples, 0);
    assert_eq!(s.degraded_shards, 0);
    assert_eq!(s.dropped_degraded, 0);

    let prom = s.to_prometheus();
    for name in [
        "fd_restarts",
        "fd_checkpoints",
        "fd_replayed_batches",
        "fd_replayed_tuples",
        "fd_degraded_shards",
        "fd_dropped_degraded",
    ] {
        assert!(prom.contains(name), "{name} missing from:\n{prom}");
    }
    let json = s.to_json();
    for key in ["\"restarts\":", "\"checkpoints\":", "\"replayed_tuples\":"] {
        assert!(json.contains(key), "{key} missing from:\n{json}");
    }
    assert!(json.contains(&format!("\"checkpoints\":{}", s.checkpoints)));

    // A faulted run: the same counters move, and batch accounting keeps
    // dispatches and replays separate (batch_ns times *processed*
    // batches, so replayed work shows up there and not in batches_sent).
    let mut e = ShardedEngine::try_new(decayed_query(), 3)
        .expect("spawn shards")
        .checkpoint_every(4_096)
        .inject_fault(FaultPlan {
            shard: 1,
            kind: FaultKind::PanicAtTuple(50_000),
        });
    let rows = e.run(trace.iter());
    assert!(!rows.is_empty());
    let s = e.telemetry().snapshot();
    assert_eq!(s.worker_panics, 1);
    assert_eq!(s.restarts, 1);
    assert!(s.replayed_batches > 0);
    assert!(s.replayed_tuples > 0);
    let sent: u64 = s.shards.iter().map(|sh| sh.batches_sent).sum();
    let timed: u64 = s.shards.iter().map(|sh| sh.batch_ns.count).sum();
    assert!(
        timed >= sent,
        "replayed batches are timed but not re-counted as dispatched \
         (timed {timed} < sent {sent})"
    );
    assert!(s.to_prometheus().contains("fd_restarts 1"));
}

/// Each shard reports the checkpoint interval in force: `checkpoint_every`
/// while its snapshot weighs no more than that many packets, and the
/// snapshot's size in packets once it does — a q-digest per host over a
/// few thousand hosts outweighs 512 packets many times over.
#[test]
fn checkpoint_interval_gauge_follows_the_snapshot_size() {
    const EVERY: u64 = 512;
    let trace = TraceConfig {
        seed: 31,
        duration_secs: 4.0,
        rate_pps: 10_000.0,
        n_hosts: 3_000,
        ..Default::default()
    };
    let intervals = |q: Query| {
        let mut e = ShardedEngine::try_new(q, 2)
            .expect("spawn shards")
            .checkpoint_every(EVERY);
        e.run(trace.iter());
        let s = e.telemetry().snapshot();
        assert!(s.checkpoints > 0, "supervised workers must checkpoint");
        (s.shards.iter())
            .map(|sh| sh.checkpoint_interval_tuples)
            .collect::<Vec<u64>>()
    };
    let quantiles = Query::builder("quantiles")
        .group_by(|p| p.dst_host())
        .bucket_secs(2)
        .aggregate(fwd_quantile_factory(
            Exponential::new(0.05),
            11,
            0.01,
            vec![0.5, 0.95, 0.99],
            |p| p.len as u64,
        ))
        .try_build()
        .expect("valid query");
    for interval in intervals(quantiles) {
        assert!(interval > EVERY, "a large state stretches it: {interval}");
    }
    let count = Query::builder("count")
        .group_by(|_| 0)
        .bucket_secs(2)
        .aggregate(count_factory())
        .try_build()
        .expect("valid query");
    assert_eq!(
        intervals(count),
        vec![EVERY; 2],
        "one group keeps the floor"
    );
}

#[test]
fn durability_counters_surface_in_every_export_format() {
    use forward_decay::engine::durability::DurabilityOptions;
    use forward_decay::engine::fault::{DiskFault, DiskFaultKind, FaultKind, FaultPlan};

    let dir = std::env::temp_dir().join(format!("fd-telemetry-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let trace = TraceConfig {
        seed: 29,
        duration_secs: 5.0,
        rate_pps: 10_000.0,
        n_hosts: 300,
        ..Default::default()
    };
    let packets: Vec<Packet> = trace.iter().collect();

    // A healthy durable run: WAL bytes and checkpoints tick, nothing
    // degrades, nothing is truncated or replayed.
    let (mut e, _) = ShardedEngine::try_new(decayed_query(), 2)
        .expect("spawn shards")
        .checkpoint_every(1_024)
        .try_durable(&dir, DurabilityOptions::default())
        .expect("open durable store");
    e.try_process_packets(&packets).expect("feed");
    e.durable_commit(packets.len() as u64).expect("commit");
    let rows = e.finish();
    assert!(!rows.is_empty());
    let s = e.telemetry().snapshot();
    assert!(s.wal_bytes_written > 0, "the WAL must have been written");
    assert!(s.checkpoints_persisted > 0, "checkpoints must hit disk");
    assert_eq!(s.wal_records_truncated, 0);
    assert_eq!(s.recovery_replayed_batches, 0);
    assert_eq!(s.durability_degraded, 0);

    let prom = s.to_prometheus();
    for name in [
        "fd_wal_bytes_written",
        "fd_wal_records_truncated",
        "fd_checkpoints_persisted",
        "fd_recovery_replayed_batches",
        "fd_durability_degraded",
    ] {
        assert!(prom.contains(name), "{name} missing from:\n{prom}");
    }
    assert!(prom.contains(&format!("fd_wal_bytes_written {}", s.wal_bytes_written)));
    let json = s.to_json();
    for key in [
        "\"wal_bytes_written\":",
        "\"wal_records_truncated\":",
        "\"checkpoints_persisted\":",
        "\"recovery_replayed_batches\":",
        "\"durability_degraded\":",
    ] {
        assert!(json.contains(key), "{key} missing from:\n{json}");
    }
    assert!(json.contains(&format!(
        "\"checkpoints_persisted\":{}",
        s.checkpoints_persisted
    )));
    drop(e);

    // Reopening the store moves the recovery-side counters.
    let (mut e, report) = ShardedEngine::try_new(decayed_query(), 2)
        .expect("spawn shards")
        .checkpoint_every(1_024)
        .try_durable(&dir, DurabilityOptions::default())
        .expect("reopen durable store");
    assert!(report.resumed);
    e.finish();
    let s = e.telemetry().snapshot();
    assert_eq!(s.recovery_replayed_batches, report.replayed_batches);
    assert_eq!(s.wal_records_truncated, report.truncated_records);
    drop(e);
    let _ = std::fs::remove_dir_all(&dir);

    // A degraded run: the gauge flips to 1 in both export formats.
    let dir = std::env::temp_dir().join(format!("fd-telemetry-degraded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut e, _) = ShardedEngine::try_new(decayed_query(), 2)
        .expect("spawn shards")
        .checkpoint_every(1_024)
        .inject_fault(FaultPlan {
            shard: 0,
            kind: FaultKind::Disk(DiskFault {
                kind: DiskFaultKind::Enospc,
                at_op: 1,
            }),
        })
        .try_durable(&dir, DurabilityOptions::default())
        .expect("open durable store");
    e.try_process_packets(&packets).expect("feed");
    e.durable_commit(packets.len() as u64).expect("commit");
    let rows2 = e.finish();
    assert_eq!(rows.len(), rows2.len(), "degradation must not change rows");
    assert!(e.durability_degraded());
    let s = e.telemetry().snapshot();
    assert_eq!(s.durability_degraded, 1);
    assert!(s.to_prometheus().contains("fd_durability_degraded 1"));
    assert!(s.to_json().contains("\"durability_degraded\":1"));
    drop(e);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A 2-shard × 2-producer registry with a distinct value in every stored
/// cell (101, 102, … in declaration order; shard i's checkpoint interval,
/// set last so the older cells keep their values, is 32 768 · 2^i) and
/// both histograms fed.
fn populated() -> EngineTelemetry {
    let t = EngineTelemetry::with_producers(2, 2);
    let mut next = 100u64;
    let mut put = |cell: &AtomicU64| {
        next += 1;
        cell.store(next, Relaxed);
    };
    put(&t.rows_out);
    put(&t.buckets_closed);
    put(&t.worker_panics);
    put(&t.restarts);
    put(&t.checkpoints);
    put(&t.checkpoint_ns);
    put(&t.checkpoint_bytes);
    put(&t.replayed_batches);
    put(&t.replayed_tuples);
    put(&t.degraded_shards);
    put(&t.dropped_degraded);
    put(&t.wal_bytes_written);
    put(&t.wal_records_truncated);
    put(&t.checkpoints_persisted);
    put(&t.recovery_replayed_batches);
    put(&t.durability_degraded);
    put(&t.shed_tuples);
    put(&t.shed_batches);
    put(&t.wedged_respawns);
    for (i, s) in t.shards().iter().enumerate() {
        put(&s.queue_depth);
        put(&s.batches_sent);
        put(&s.tuples_processed);
        put(&s.applied_watermark_us);
        put(&s.lfta_evictions);
        put(&s.lfta_occupancy);
        put(&s.shed_tuples);
        put(&s.closed_groups_held);
        for _ in 0..=i {
            s.batch_ns.record(1_000 << (4 * i));
        }
        for _ in 0..i + 3 {
            s.dispatch_lag_ns.record(100_000 << (4 * i));
        }
    }
    for p in t.producers() {
        put(&p.tuples_in);
        put(&p.filtered);
        put(&p.late_drops);
        put(&p.watermark_us);
        put(&p.epochs_sent);
        put(&p.pool_reuses);
        put(&p.pool_allocs);
        put(&p.shed_tuples);
        p.ring_depth.iter().for_each(&mut put);
    }
    for (i, s) in t.shards().iter().enumerate() {
        s.checkpoint_interval_tuples.store(32_768 << i, Relaxed);
    }
    t
}

/// The Prometheus exposition format is an interface: dashboards and alert
/// rules key on these names, types, labels and this order. The file was
/// written by the build before the exporters became table-driven; it holds
/// the scrape of [`populated`] followed by the producer-less scrape
/// `fdql --metrics` prints for a single-threaded run.
#[test]
fn prometheus_scrape_is_byte_identical_to_the_golden_file() {
    let full = populated().snapshot().to_prometheus();
    let stats = EngineStats {
        tuples_in: 7_000,
        filtered: 600,
        late_drops: 50,
        lfta_evictions: 4,
        rows_out: 30,
        buckets_closed: 2,
    };
    let single = MetricsSnapshot::from_engine_stats(&stats, 9_000_000).to_prometheus();
    let got = format!("{full}{single}");
    let want = include_str!("data/metrics_scrape.prom");
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} of the scrape", n + 1);
    }
    assert_eq!(got, want);
}

/// Every row of every metric table, fed a value no other row of its struct
/// has, shows that value under its Prometheus name — beneath the row's
/// `# TYPE` line — and under its JSON key.
#[test]
fn every_table_row_is_exported_under_its_name_and_key() {
    fn check<S>(rows: &[Metric<S>], label: &str, items: &[S], prom: &str, json: &str) {
        for (i, item) in items.iter().enumerate() {
            let own = if label.is_empty() {
                String::new()
            } else {
                format!("{label}=\"{i}\"")
            };
            // `name{own,extra} v` on a line of its own.
            let series = |name: &str, extra: &str, v: u64| {
                let labels: Vec<&str> = [own.as_str(), extra]
                    .into_iter()
                    .filter(|l| !l.is_empty())
                    .collect();
                let line = if labels.is_empty() {
                    format!("\n{name} {v}\n")
                } else {
                    format!("\n{name}{{{}}} {v}\n", labels.join(","))
                };
                assert!(prom.contains(&line), "no line {line:?}");
            };
            // `"key":value` in full, not as a prefix of a longer number.
            let pair = |key: &str, value: String| {
                let found = [',', '}']
                    .iter()
                    .any(|end| json.contains(&format!("\"{key}\":{value}{end}")));
                assert!(found, "no \"{key}\":{value} in {json}");
            };
            let mut seen = HashSet::new();
            for row in rows {
                let type_line = format!("# TYPE {} {}\n", row.name, row.kind);
                assert_eq!(prom.matches(&type_line).count(), 1, "{type_line}");
                match (row.get)(item) {
                    Value::Scalar(v) => {
                        assert!(v > 0 && seen.insert(v), "{}: {v} is not its own", row.key);
                        series(row.name, "", v);
                        pair(row.key, v.to_string());
                    }
                    Value::Summary(h) => {
                        assert!(h.count > 0 && seen.insert(h.p50), "{}: unfed", row.key);
                        series(row.name, "quantile=\"0.5\"", h.p50);
                        series(row.name, "quantile=\"0.95\"", h.p95);
                        series(row.name, "quantile=\"0.99\"", h.p99);
                        series(&format!("{}_count", row.name), "", h.count);
                        let h = format!(
                            "{{\"count\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                            h.count, h.p50, h.p95, h.p99
                        );
                        pair(row.key, h);
                    }
                    Value::PerShard(vs) => {
                        for (shard, &v) in vs.iter().enumerate() {
                            assert!(v > 0 && seen.insert(v), "{}: {v} is not its own", row.key);
                            series(row.name, &format!("shard=\"{shard}\""), v);
                        }
                        let vs: Vec<String> = vs.iter().map(u64::to_string).collect();
                        pair(row.key, format!("[{}]", vs.join(",")));
                    }
                }
            }
        }
    }
    let s = populated().snapshot();
    let (prom, json) = (format!("\n{}", s.to_prometheus()), s.to_json());
    check(ENGINE_METRICS, "", std::slice::from_ref(&s), &prom, &json);
    check(SHARD_METRICS, "shard", &s.shards, &prom, &json);
    check(PRODUCER_METRICS, "producer", &s.producers, &prom, &json);
    // Nothing is exported that no table declares.
    let rows = ENGINE_METRICS.len() + SHARD_METRICS.len() + PRODUCER_METRICS.len();
    assert_eq!(prom.matches("# TYPE ").count(), rows);
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
}
