//! Durable-store integration tests: WAL + on-disk checkpoints must make a
//! sharded run crash-recoverable **without changing a single output bit**,
//! and every injected disk fault must end in recovery or explicit,
//! accounted degradation — never a panic, a hang, or a silently wrong
//! answer.
//!
//! Process crashes are simulated here by *dropping* the engine mid-stream
//! (which abandons the WAL writer without any final flush — a strictly
//! harsher cut than `kill -9`, which at least keeps queued page-cache
//! writes); the real `kill -9` matrix lives in the fd-cli
//! `process_crash` test, which murders actual `fdql` processes.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use forward_decay::core::decay::Monomial;
use forward_decay::engine::durability::{DurabilityOptions, FsyncPolicy};
use forward_decay::engine::fault::{self, DiskFault, DiskFaultKind, FaultKind, FaultPlan};
use forward_decay::engine::io::IoFile;
use forward_decay::engine::prelude::*;
use forward_decay::engine::shard::ShardedEngine;
use forward_decay::gen::TraceConfig;

fn decayed_query() -> Query {
    Query::builder("fwd_sum")
        .filter(|p| p.proto == Proto::Tcp)
        .group_by(|p| p.dst_host())
        .bucket_secs(2)
        .aggregate(fwd_sum_factory(Monomial::quadratic(), |p| p.len as f64))
        .two_level(true)
        .lfta_slots(2048)
        .try_build()
        .expect("valid query")
}

fn trace(duration_secs: f64, rate_pps: f64, seed: u64) -> Vec<Packet> {
    TraceConfig {
        seed,
        duration_secs,
        rate_pps,
        n_hosts: 500,
        zipf_skew: 1.1,
        ..Default::default()
    }
    .generate()
}

/// A self-cleaning store directory under the system temp dir (the
/// workspace has no tempfile crate).
struct StoreDir(PathBuf);

impl StoreDir {
    fn new(label: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "fd-durability-{}-{label}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn assert_bit_identical(expected: &[Row], got: &[Row], label: &str) {
    assert_eq!(expected.len(), got.len(), "{label}: row count");
    for (e, g) in expected.iter().zip(got) {
        assert_eq!(
            (e.bucket_start, e.key),
            (g.bucket_start, g.key),
            "{label}: row identity"
        );
        let (ev, gv) = (
            e.value.as_float().expect("scalar aggregate"),
            g.value.as_float().expect("scalar aggregate"),
        );
        assert_eq!(
            ev.to_bits(),
            gv.to_bits(),
            "{label}: bucket {} key {}: {ev} vs {gv}",
            e.bucket_start,
            e.key
        );
    }
}

/// Opens a durable engine over `dir` with small intervals so checkpoints
/// and manifest commits happen many times even on short test streams.
fn open(dir: &Path, n_shards: usize, opts: DurabilityOptions) -> (ShardedEngine, RecoveryReport) {
    ShardedEngine::try_new(decayed_query(), n_shards)
        .expect("spawn shards")
        .checkpoint_every(512)
        .try_durable(dir, opts)
        .expect("open durable store")
}

/// Feeds `packets[from..]` in committed chunks, mirroring the fdql driver
/// loop: process a chunk, then declare the position durable.
fn feed(e: &mut ShardedEngine, packets: &[Packet], from: u64, chunk: usize) {
    let mut pos = from as usize;
    while pos < packets.len() {
        let end = (pos + chunk).min(packets.len());
        e.try_process_packets(&packets[pos..end]).expect("feed");
        pos = end;
        e.durable_commit(pos as u64).expect("commit");
    }
}

/// Blocks until the store's writer thread has put a commit record on
/// disk. `durable_commit` only *enqueues* the record, and dropping the
/// engine abandons whatever the writer has not reached yet — so a test
/// that crashes mid-stream and then expects to resume past position 0
/// has to let the writer get that far first, however the threads happen
/// to be scheduled.
fn wait_for_a_commit_on_disk(dir: &Path) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let committed = || {
        std::fs::read_dir(dir).is_ok_and(|entries| {
            entries.flatten().any(|e| {
                e.file_name().to_string_lossy().starts_with("ctl-")
                    && e.metadata().is_ok_and(|m| m.len() > 0)
            })
        })
    };
    while !committed() {
        assert!(
            std::time::Instant::now() < deadline,
            "the WAL writer never wrote a commit record"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// Polls `ok` until it holds, for up to 30 s.
fn wait_until(what: &str, ok: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !ok() {
        assert!(
            std::time::Instant::now() < deadline,
            "waited 30 s for {what}"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// A complete durable run over a fresh store: feed, commit, finish.
fn durable_run(dir: &Path, packets: &[Packet], n_shards: usize) -> (Vec<Row>, ShardedEngine) {
    let (mut e, report) = open(dir, n_shards, DurabilityOptions::default());
    assert!(!report.resumed, "fresh directory must not resume");
    feed(&mut e, packets, 0, 1024);
    let rows = e.finish();
    (rows, e)
}

#[test]
fn durable_run_is_bit_identical_and_a_clean_store_reopens_to_the_same_rows() {
    let packets = trace(4.0, 20_000.0, 31);
    let expected = ShardedEngine::try_new(decayed_query(), 2)
        .expect("spawn shards")
        .checkpoint_every(512)
        .run(packets.iter().copied());

    let store = StoreDir::new("clean");
    let (rows, e) = durable_run(store.path(), &packets, 2);
    assert_bit_identical(&expected, &rows, "durable vs in-memory");
    assert!(!e.durability_degraded());
    let s = e.telemetry().snapshot();
    assert!(s.wal_bytes_written > 0, "the WAL must have been written");
    assert!(s.checkpoints_persisted > 0, "checkpoints must hit disk");
    assert_eq!(s.durability_degraded, 0);
    assert_eq!(s.wal_records_truncated, 0, "clean run, clean log");
    drop(e);

    // Reopen the finished store: everything is already committed, so the
    // resume point is the end of the stream and finishing immediately —
    // with no re-feed at all — reproduces the run's rows from disk alone.
    let (mut e, report) = open(store.path(), 2, DurabilityOptions::default());
    assert!(report.resumed);
    assert_eq!(report.position, packets.len() as u64);
    assert_eq!(report.truncated_records, 0);
    let rows2 = e.finish();
    assert_bit_identical(&rows, &rows2, "reopened store");
}

#[test]
fn dropping_the_engine_mid_stream_recovers_bit_identically() {
    let packets = trace(4.0, 20_000.0, 37);
    let store = StoreDir::new("midstream");
    let expected = {
        let d = StoreDir::new("midstream-clean");
        durable_run(d.path(), &packets, 3).0
    };

    // Crash: feed only part of the stream, then drop the engine without
    // finish() — the WAL writer is abandoned wherever it happens to be.
    let crash_at = packets.len() / 2;
    {
        let (mut e, _) = open(store.path(), 3, DurabilityOptions::default());
        feed(&mut e, &packets[..crash_at], 0, 1024);
        wait_for_a_commit_on_disk(store.path());
        // dropped here, mid-stream
    }

    // Restart: recover, re-feed from the committed position, finish.
    let (mut e, report) = open(store.path(), 3, DurabilityOptions::default());
    assert!(report.resumed);
    assert!(
        report.position <= crash_at as u64,
        "cannot have committed past what was fed"
    );
    assert!(report.position > 0, "commits happened before the crash");
    feed(&mut e, &packets, report.position, 1024);
    let rows = e.finish();
    assert_bit_identical(&expected, &rows, "recovered after mid-stream drop");
}

#[test]
fn repeated_crashes_at_different_points_all_recover_exactly() {
    let packets = trace(3.0, 15_000.0, 41);
    let expected = {
        let d = StoreDir::new("multi-clean");
        durable_run(d.path(), &packets, 2).0
    };
    // Crash → partially resume → crash again → resume to completion: the
    // store must absorb any number of cuts.
    let store = StoreDir::new("multi");
    let cuts = [packets.len() / 4, packets.len() / 2, 3 * packets.len() / 4];
    let mut resumed_from = 0u64;
    for &cut in &cuts {
        let (mut e, report) = open(store.path(), 2, DurabilityOptions::default());
        assert!(report.position >= resumed_from, "position went backwards");
        resumed_from = report.position;
        if (report.position as usize) < cut {
            e.try_process_packets(&packets[report.position as usize..cut])
                .expect("feed");
            e.durable_commit(cut as u64).expect("commit");
        }
        // dropped mid-stream again
    }
    let (mut e, report) = open(store.path(), 2, DurabilityOptions::default());
    feed(&mut e, &packets, report.position, 1024);
    let rows = e.finish();
    assert_bit_identical(&expected, &rows, "after three crashes");
}

#[test]
fn torn_wal_tails_are_truncated_counted_and_harmless() {
    let packets = trace(3.0, 15_000.0, 43);
    let store = StoreDir::new("torn");
    let (rows, e) = durable_run(store.path(), &packets, 2);
    drop(e);

    // Maul the store the way a crash mid-append does: garbage after the
    // last complete record of every log.
    let mut mauled = 0u64;
    for entry in std::fs::read_dir(store.path()).expect("list store") {
        let path = entry.expect("entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.ends_with(".seg") {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .expect("open segment");
            f.write_all(&[0xAB; 13]).expect("append garbage");
            mauled += 1;
        }
    }
    assert!(mauled >= 3, "expected WAL and control segments to maul");

    let (mut e, report) = open(store.path(), 2, DurabilityOptions::default());
    assert!(report.resumed);
    assert_eq!(
        report.truncated_records, mauled,
        "every torn tail must be truncated and counted"
    );
    assert_eq!(report.position, packets.len() as u64);
    assert_eq!(e.telemetry().snapshot().wal_records_truncated, mauled);
    let rows2 = e.finish();
    assert_bit_identical(&rows, &rows2, "after torn-tail truncation");
}

#[test]
fn reopening_with_a_different_shard_count_is_an_explicit_error() {
    let packets = trace(1.0, 10_000.0, 47);
    let store = StoreDir::new("shardcount");
    durable_run(store.path(), &packets, 2);
    let err = ShardedEngine::try_new(decayed_query(), 3)
        .expect("spawn shards")
        .checkpoint_every(512)
        .try_durable(store.path(), DurabilityOptions::default())
        .err()
        .expect("shard-count mismatch must be refused");
    assert!(
        matches!(err, forward_decay::core::Error::Durability { .. }),
        "got {err:?}"
    );
}

#[test]
fn durability_requires_supervision() {
    let store = StoreDir::new("nosuper");
    let err = ShardedEngine::try_new(decayed_query(), 2)
        .expect("spawn shards")
        .checkpoint_every(0)
        .try_durable(store.path(), DurabilityOptions::default())
        .err()
        .expect("durability without checkpoints must be refused");
    assert!(
        matches!(err, forward_decay::core::Error::InvalidParameter { .. }),
        "got {err:?}"
    );
}

#[test]
fn abandoning_an_uncommitted_run_publishes_no_manifest() {
    let packets = trace(2.0, 10_000.0, 53);
    let store = StoreDir::new("abandon");
    {
        let (mut e, _) = open(store.path(), 2, DurabilityOptions::default());
        // Feed without a single durable_commit, then drop mid-stream: the
        // abandoned writer must stop dead — no fsync, no rename, and above
        // all no manifest published from half-applied state.
        e.try_process_packets(&packets).expect("feed");
    }
    let names: Vec<String> = std::fs::read_dir(store.path())
        .expect("list store")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        !names.iter().any(|n| n == "MANIFEST"),
        "no commit was ever made, yet a MANIFEST appeared: {names:?}"
    );
    assert!(
        !names.iter().any(|n| n.ends_with(".tmp")),
        "abandoned writer left a half-written temp file: {names:?}"
    );
    // And the WAL that did land is still a usable (position 0) store.
    let (mut e, report) = open(store.path(), 2, DurabilityOptions::default());
    assert_eq!(report.position, 0, "nothing was committed");
    feed(&mut e, &packets, 0, 1024);
    assert!(!e.finish().is_empty());
}

#[test]
fn garbage_collection_bounds_the_store_footprint() {
    let packets = trace(4.0, 25_000.0, 59);
    let store = StoreDir::new("gc");
    let opts = DurabilityOptions {
        segment_bytes: 4096, // rotate constantly
        ..DurabilityOptions::default()
    };
    let (mut e, _) = ShardedEngine::try_new(decayed_query(), 2)
        .expect("spawn shards")
        .checkpoint_every(256)
        .try_durable(store.path(), opts)
        .expect("open");
    feed(&mut e, &packets, 0, 512);
    let rows = e.finish();
    drop(e);
    let names: Vec<String> = std::fs::read_dir(store.path())
        .expect("list store")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    // ~100k tuples over 4 KiB segments is hundreds of rotations; retained
    // segments must stay proportional to the replay window, not the run.
    assert!(
        names.len() < 60,
        "GC is not collecting: {} files in the store: {names:?}",
        names.len()
    );
    assert_eq!(
        names.iter().filter(|n| *n == "MANIFEST").count(),
        1,
        "exactly one manifest: {names:?}"
    );
    assert!(
        !names.iter().any(|n| n.ends_with(".tmp")),
        "temp files must not survive a clean shutdown: {names:?}"
    );
    // And the collected store still recovers the full run.
    let (mut e, report) = open(store.path(), 2, DurabilityOptions::default());
    assert_eq!(report.position, packets.len() as u64);
    let rows2 = e.finish();
    assert_bit_identical(&rows, &rows2, "after heavy GC");
}

#[test]
fn fsync_policies_change_durability_cost_not_results() {
    let packets = trace(2.0, 15_000.0, 61);
    let mut all_rows: Vec<Vec<Row>> = Vec::new();
    for (label, fsync) in [
        ("batch", FsyncPolicy::EveryBatch),
        ("every7", FsyncPolicy::EveryN(7)),
        ("checkpoint", FsyncPolicy::OnCheckpoint),
    ] {
        let store = StoreDir::new(&format!("fsync-{label}"));
        let opts = DurabilityOptions {
            fsync,
            ..DurabilityOptions::default()
        };
        let (mut e, _) = open(store.path(), 2, opts);
        feed(&mut e, &packets, 0, 1024);
        let rows = e.finish();
        assert!(!e.durability_degraded(), "{label}");
        drop(e);
        // Every policy's store must reopen to the full committed position.
        let (mut e, report) = open(store.path(), 2, DurabilityOptions::default());
        assert_eq!(report.position, packets.len() as u64, "{label}");
        let rows2 = e.finish();
        assert_bit_identical(&rows, &rows2, &format!("{label} reopen"));
        all_rows.push(rows);
    }
    assert_bit_identical(&all_rows[0], &all_rows[1], "batch vs every:7");
    assert_bit_identical(&all_rows[0], &all_rows[2], "batch vs checkpoint");
}

/// The fault-matrix core: every disk-fault kind, at trigger points from
/// "first operation" to "deep inside checkpoint/manifest commits", must
/// leave (a) the live stream producing exact results, and (b) a store
/// that either recovers or refuses with an explicit error — never a
/// panic, never silently wrong rows.
#[test]
fn injected_disk_faults_end_in_recovery_or_explicit_degradation() {
    let packets = trace(2.0, 15_000.0, 67);
    let expected = {
        let d = StoreDir::new("faults-clean");
        durable_run(d.path(), &packets, 2).0
    };
    let mut degraded_runs = 0u32;
    for kind in DiskFaultKind::ALL {
        for at_op in [1, 2, 7, 19] {
            let label = format!("{kind:?}@{at_op}");
            let store = StoreDir::new(&format!("fault-{kind:?}-{at_op}"));
            let (mut e, report) = ShardedEngine::try_new(decayed_query(), 2)
                .expect("spawn shards")
                .checkpoint_every(512)
                .inject_fault(FaultPlan {
                    shard: 0,
                    kind: FaultKind::Disk(DiskFault { kind, at_op }),
                })
                .try_durable(store.path(), DurabilityOptions::default())
                .expect("a write fault cannot fail the open of a fresh store");
            assert!(!report.resumed);
            feed(&mut e, &packets, 0, 1024);
            let rows = e.finish();
            // The stream must survive the fault bit-exactly, durable or not.
            assert_bit_identical(&expected, &rows, &label);
            if e.durability_degraded() {
                degraded_runs += 1;
                assert_eq!(
                    e.telemetry().snapshot().durability_degraded,
                    1,
                    "{label}: gauge must mirror degradation"
                );
            }
            drop(e);
            // Whatever the fault left on disk: recover it or refuse it.
            match ShardedEngine::try_new(decayed_query(), 2)
                .expect("spawn shards")
                .checkpoint_every(512)
                .try_durable(store.path(), DurabilityOptions::default())
            {
                Ok((mut e, report)) => {
                    feed(&mut e, &packets, report.position, 1024);
                    let rows = e.finish();
                    assert_bit_identical(&expected, &rows, &format!("{label} reopen"));
                }
                Err(forward_decay::core::Error::Durability { .. }) => {
                    // Explicitly refused: the store is damaged below its
                    // last commit. Honest, and the only acceptable failure.
                }
                Err(other) => panic!("{label}: unexpected error kind {other:?}"),
            }
        }
    }
    assert!(
        degraded_runs > 0,
        "no fault in the whole matrix degraded durability — injection is dead"
    );
}

/// Seed-driven sweep honoring the CI fault matrix's `FD_FAULT` seed, so
/// different CI rows explore different (kind, trigger) placements.
#[test]
fn seeded_disk_faults_recover_or_degrade() {
    let base = fault::env_seed().unwrap_or(0xD15C);
    let packets = trace(1.5, 10_000.0, 71);
    let expected = {
        let d = StoreDir::new("seeded-clean");
        durable_run(d.path(), &packets, 2).0
    };
    for round in 0..8u64 {
        let seed = base.wrapping_mul(0x9E37_79B9).wrapping_add(round);
        let fault = DiskFault::from_seed(seed);
        let label = format!("seed {seed} → {fault:?}");
        let store = StoreDir::new(&format!("seeded-{round}"));
        let (mut e, _) = ShardedEngine::try_new(decayed_query(), 2)
            .expect("spawn shards")
            .checkpoint_every(512)
            .inject_fault(FaultPlan {
                shard: 0,
                kind: FaultKind::Disk(fault),
            })
            .try_durable(store.path(), DurabilityOptions::default())
            .expect("open");
        feed(&mut e, &packets, 0, 1024);
        let rows = e.finish();
        assert_bit_identical(&expected, &rows, &label);
    }
}

#[test]
fn full_disk_degrades_to_in_memory_supervision_not_an_error() {
    let packets = trace(2.0, 10_000.0, 73);
    let expected = ShardedEngine::try_new(decayed_query(), 2)
        .expect("spawn shards")
        .checkpoint_every(512)
        .run(packets.iter().copied());
    let store = StoreDir::new("enospc");
    let (mut e, _) = ShardedEngine::try_new(decayed_query(), 2)
        .expect("spawn shards")
        .checkpoint_every(512)
        .inject_fault(FaultPlan::parse("disk:enospc:1").expect("spec"))
        .try_durable(store.path(), DurabilityOptions::default())
        .expect("open");
    feed(&mut e, &packets, 0, 1024);
    let rows = e.finish();
    assert_bit_identical(&expected, &rows, "ENOSPC run");
    assert!(
        e.durability_degraded(),
        "a persistently full disk must degrade durability"
    );
    let s = e.telemetry().snapshot();
    assert_eq!(s.durability_degraded, 1);
    assert_eq!(s.worker_panics, 0, "degradation must not kill workers");
    assert_eq!(
        s.degraded_shards, 0,
        "shards stay healthy; only disk is lost"
    );
}

/// The samplers checkpoint like every other aggregate, so a sampler store
/// resumes from its persisted checkpoints: a crash replays the WAL tail
/// past them — under one checkpoint interval per shard (as each shard's
/// gauge reports it), not the whole log — and the resumed run finishes to the uncrashed run's rows.
#[test]
fn durable_samplers_resume_from_their_persisted_checkpoints() {
    const EVERY: u64 = 256;
    let g = Monomial::new(1.0);
    let host = |p: &Packet| p.src_host();
    let q = || {
        Query::builder("samplers")
            .group_by(|p| p.dst_host())
            .bucket_secs(2)
            .aggregate(multi_factory(vec![
                reservoir_factory(8, 99, host),
                biased_reservoir_factory(0.1, 99, host),
                pri_sample_factory(g, 8, 99, host),
                wrs_factory(g, 8, 99, host),
                with_replacement_factory(g, 8, 99, host),
            ]))
            .try_build()
            .expect("valid query")
    };
    let open = |dir: &Path| {
        ShardedEngine::try_new(q(), 2)
            .expect("spawn shards")
            .checkpoint_every(EVERY)
            .try_durable(dir, DurabilityOptions::default())
            .expect("open")
    };
    let packets = trace(3.0, 8_000.0, 79);
    let expected = ShardedEngine::try_new(q(), 2)
        .expect("spawn shards")
        .checkpoint_every(EVERY)
        .run(packets.iter().copied());
    let store = StoreDir::new("sampler");
    let cut = packets.len() / 2;
    {
        let (mut e, _) = open(store.path());
        let head: Vec<StreamEvent> = packets[..cut]
            .iter()
            .map(|&p| StreamEvent::Data(p))
            .collect();
        e.try_process_batch(&head).expect("feed");
        // Let the workers apply — and checkpoint — all they were sent, then
        // commit once: the writer persists those checkpoints with it.
        let tel = Arc::clone(e.telemetry());
        wait_until("the workers to drain", || {
            tel.snapshot().shards.iter().all(|s| s.queue_depth == 0)
        });
        e.durable_commit(cut as u64).expect("commit");
        // The one commit is the one persist. Once it has begun, dropping
        // the engine mid-stream lets it finish and stops the writer there.
        wait_until("a persisted checkpoint", || {
            tel.snapshot().checkpoints_persisted > 0
        });
    }
    let (mut e, report) = open(store.path());
    assert!(report.resumed);
    assert_eq!(report.position, cut as u64);
    // Each resumed worker reports the interval its persisted snapshot set:
    // `EVERY`, or the snapshot's size in packets when that is larger.
    let intervals: u64 = (e.telemetry().snapshot().shards.iter())
        .map(|s| s.checkpoint_interval_tuples)
        .sum();
    assert!(
        report.replayed_tuples < intervals,
        "replayed {} tuples: more than a checkpoint interval per shard ({intervals} in all)",
        report.replayed_tuples
    );
    feed(&mut e, &packets, report.position, 512);
    let rows = e.finish();
    assert_eq!(
        format!("{rows:?}"),
        format!("{expected:?}"),
        "the resumed sampler store must finish to the uncrashed run's rows"
    );
}

/// The dispatch-path contract behind the overhead bench: attaching a
/// durable sink must not change admission, routing, or results even when
/// combined with a concurrent worker crash.
#[test]
fn durability_composes_with_worker_crash_recovery() {
    let packets = trace(3.0, 15_000.0, 83);
    let expected = {
        let d = StoreDir::new("compose-clean");
        durable_run(d.path(), &packets, 2).0
    };
    let store = StoreDir::new("compose");
    let (mut e, _) = ShardedEngine::try_new(decayed_query(), 2)
        .expect("spawn shards")
        .checkpoint_every(512)
        .inject_fault(FaultPlan {
            shard: 1,
            kind: FaultKind::PanicAtTuple(5_000),
        })
        .try_durable(store.path(), DurabilityOptions::default())
        .expect("open");
    feed(&mut e, &packets, 0, 1024);
    let rows = e.finish();
    assert_bit_identical(&expected, &rows, "worker crash under durability");
    let s = e.telemetry().snapshot();
    assert_eq!(s.worker_panics, 1);
    assert_eq!(s.restarts, 1);
    assert!(!e.durability_degraded());
    drop(e);
    // The store survived the worker crash too.
    let (mut e, report) = open(store.path(), 2, DurabilityOptions::default());
    assert_eq!(report.position, packets.len() as u64);
    let rows2 = e.finish();
    assert_bit_identical(&expected, &rows2, "reopen after worker crash");
}

// ---------------------------------------------------------------------------
// Closed-deltas: closed buckets persist once, beside an open-state checkpoint
// ---------------------------------------------------------------------------

fn store_files(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect()
        })
        .unwrap_or_default()
}

/// A process death with closed buckets on both sides of it: buckets 0 and
/// 1 have closed and been handed off — persisted as closed-deltas — bucket
/// 2 is open in the last persisted checkpoint, bucket 3 has not begun. The
/// reopened engine preloads the deltas into the checkpoint slots, replays
/// the WAL tail onto the open-state snapshot, and finishes with exactly
/// the rows of a run that never died.
#[test]
fn reopen_across_a_bucket_boundary_keeps_every_closed_bucket_once() {
    let packets = trace(8.0, 12_000.0, 89);
    let expected = {
        let d = StoreDir::new("boundary-clean");
        durable_run(d.path(), &packets, 2).0
    };
    let store = StoreDir::new("boundary");
    let crash_at = packets
        .iter()
        .position(|p| p.ts >= 5_000_000)
        .expect("the trace runs past 5 s");
    {
        let (mut e, _) = open(store.path(), 2, DurabilityOptions::default());
        feed(&mut e, &packets[..crash_at], 0, 1024);
        // A persist only happens when a commit finds the slot at or below
        // it, so keep committing until a closed-delta is published; the
        // writer is sequential, so once a *later* commit record has
        // reached the control log, the manifest naming that delta has too.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let ctl_bytes = |dir: &Path| -> u64 {
            store_files(dir)
                .iter()
                .filter(|n| n.starts_with("ctl-"))
                .filter_map(|n| std::fs::metadata(dir.join(n)).ok())
                .map(|m| m.len())
                .sum()
        };
        let mut recommit_until = |done: &dyn Fn() -> bool| {
            while !done() {
                assert!(
                    std::time::Instant::now() < deadline,
                    "the writer stalled: {:?}",
                    store_files(store.path())
                );
                e.durable_commit(crash_at as u64).expect("commit");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        };
        recommit_until(&|| {
            store_files(store.path())
                .iter()
                .any(|n| n.starts_with("closed-") && n.ends_with(".bin"))
        });
        let before = ctl_bytes(store.path());
        recommit_until(&|| ctl_bytes(store.path()) > before);
        // dropped here: the writer is abandoned mid-stream
    }
    let (mut e, report) = open(store.path(), 2, DurabilityOptions::default());
    assert!(report.resumed);
    assert!(report.position > 0 && report.position <= crash_at as u64);
    let held: u64 = e
        .telemetry()
        .snapshot()
        .shards
        .iter()
        .map(|s| s.closed_groups_held)
        .sum();
    assert!(held > 0, "the slots were preloaded from the closed-deltas");
    feed(&mut e, &packets, report.position, 1024);
    let rows = e.finish();
    assert_bit_identical(&expected, &rows, "reopened across a bucket boundary");
    drop(e);
    // And the finished store reproduces the run from disk alone.
    let (mut e, report) = open(store.path(), 2, DurabilityOptions::default());
    assert_eq!(report.position, packets.len() as u64);
    assert_bit_identical(&expected, &e.finish(), "finished store, reopened");
}

/// A filesystem that cannot publish closed-deltas: creating one fails, or
/// — with `at_rename` — it is written whole and the rename that would
/// publish it fails.
#[derive(Debug)]
struct NoClosedDeltas {
    inner: StdFs,
    at_rename: bool,
}

fn is_closed_delta(path: &Path) -> bool {
    path.file_name()
        .is_some_and(|n| n.to_string_lossy().starts_with("closed-"))
}

impl IoBackend for NoClosedDeltas {
    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        self.inner.create_dir_all(dir)
    }
    fn open_append(&self, path: &Path) -> std::io::Result<Box<dyn IoFile>> {
        self.inner.open_append(path)
    }
    fn create(&self, path: &Path) -> std::io::Result<Box<dyn IoFile>> {
        if !self.at_rename && is_closed_delta(path) {
            return Err(std::io::Error::other(
                "injected: closed-delta create refused",
            ));
        }
        self.inner.create(path)
    }
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        if self.at_rename && is_closed_delta(to) {
            return Err(std::io::Error::other(
                "injected: closed-delta rename refused",
            ));
        }
        self.inner.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        self.inner.remove_file(path)
    }
    fn list(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        self.inner.list(dir)
    }
    fn truncate(&self, path: &Path, len: u64) -> std::io::Result<()> {
        self.inner.truncate(path, len)
    }
    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        self.inner.sync_dir(dir)
    }
}

/// The closed-delta write is the one new way a persist can fail. It must
/// fail like every other: durability degrades, the stream finishes
/// exactly on in-memory supervision (the slot still holds the groups the
/// disk refused), and the store stays at its last manifest — which names
/// no delta that was not published whole — so it reopens and finishes
/// exactly too.
#[test]
fn a_failed_closed_delta_write_degrades_and_never_corrupts() {
    let packets = trace(6.0, 10_000.0, 97);
    let expected = {
        let d = StoreDir::new("nodelta-clean");
        durable_run(d.path(), &packets, 2).0
    };
    for at_rename in [false, true] {
        let label = if at_rename { "rename" } else { "create" };
        let store = StoreDir::new(&format!("nodelta-{label}"));
        let opts = DurabilityOptions {
            io: Arc::new(NoClosedDeltas {
                inner: StdFs,
                at_rename,
            }),
            ..DurabilityOptions::default()
        };
        let (mut e, _) = open(store.path(), 2, opts);
        feed(&mut e, &packets, 0, 1024);
        let rows = e.finish();
        assert_bit_identical(&expected, &rows, &format!("{label}: degraded run"));
        assert!(e.durability_degraded(), "{label}: the failure must degrade");
        let s = e.telemetry().snapshot();
        assert_eq!(
            (s.durability_degraded, s.degraded_shards),
            (1, 0),
            "{label}"
        );
        drop(e);
        assert!(
            !store_files(store.path())
                .iter()
                .any(|n| n.starts_with("closed-") && n.ends_with(".bin")),
            "{label}: no delta was ever published"
        );
        // The healthy filesystem finds a store from before the first
        // bucket closed: consistent, just short.
        let (mut e, report) = open(store.path(), 2, DurabilityOptions::default());
        assert!(report.position < packets.len() as u64, "{label}");
        feed(&mut e, &packets, report.position, 1024);
        let rows = e.finish();
        assert_bit_identical(&expected, &rows, &format!("{label}: reopened"));
        assert!(!e.durability_degraded(), "{label}");
    }
}

/// `Arc` is how the tests above reach `DurabilityOptions::io`; pin the
/// default wiring so a refactor can't silently detach [`StdFs`].
#[test]
fn default_options_use_the_real_filesystem() {
    let opts = DurabilityOptions::default();
    assert_eq!(opts.fsync, FsyncPolicy::OnCheckpoint);
    assert_eq!(opts.segment_bytes, 8 * 1024 * 1024);
    let io: Arc<dyn forward_decay::engine::io::IoBackend> = opts.io;
    assert!(format!("{io:?}").contains("StdFs"));
}

// ---------------------------------------------------------------------------
// Multi-producer ingress fabric × durability
// ---------------------------------------------------------------------------

/// Opens a durable engine whose ingress runs through the multi-producer
/// fabric in coordinator mode (the only mode durable runs support).
fn open_fabric(
    dir: &Path,
    n_shards: usize,
    producers: usize,
    opts: DurabilityOptions,
) -> (ShardedEngine, RecoveryReport) {
    ShardedEngine::try_new(decayed_query(), n_shards)
        .expect("spawn shards")
        .checkpoint_every(512)
        .try_producers(producers)
        .expect("fabric")
        .try_durable(dir, opts)
        .expect("open durable store")
}

#[test]
fn fabric_durable_run_is_bit_identical_and_recovers_after_mid_stream_drop() {
    let packets = trace(4.0, 20_000.0, 61);
    let expected = ShardedEngine::try_new(decayed_query(), 2)
        .expect("spawn shards")
        .checkpoint_every(512)
        .run(packets.iter().copied());

    // Clean fabric run against a fresh store.
    let store = StoreDir::new("fabric-clean");
    let (mut e, report) = open_fabric(store.path(), 2, 2, DurabilityOptions::default());
    assert!(!report.resumed);
    feed(&mut e, &packets, 0, 1024);
    let rows = e.finish();
    assert_bit_identical(&expected, &rows, "durable fabric vs in-memory");
    assert!(!e.durability_degraded());
    let s = e.telemetry().snapshot();
    assert!(s.wal_bytes_written > 0);
    assert!(s.checkpoints_persisted > 0);
    assert_eq!(s.wal_records_truncated, 0);
    drop(e);

    // Crash mid-stream against a second store, then resume and finish:
    // the per-producer commit blocks must restore each ingress handle
    // (watermark, seq cursor, admission counters) bit-identically.
    let store2 = StoreDir::new("fabric-crash");
    let crash_at = packets.len() / 2;
    {
        let (mut e, _) = open_fabric(store2.path(), 2, 2, DurabilityOptions::default());
        feed(&mut e, &packets[..crash_at], 0, 1024);
        wait_for_a_commit_on_disk(store2.path());
        // dropped here, mid-stream
    }
    let (mut e, report) = open_fabric(store2.path(), 2, 2, DurabilityOptions::default());
    assert!(report.resumed);
    assert!(report.position > 0, "commits happened before the crash");
    assert!(report.position <= crash_at as u64);
    feed(&mut e, &packets, report.position, 1024);
    let rows2 = e.finish();
    assert_bit_identical(&expected, &rows2, "fabric recovered after drop");
}

#[test]
fn a_store_refuses_any_producer_count_but_its_own() {
    let packets = trace(1.0, 10_000.0, 67);
    let refused = |dir: &Path, producers: usize, label: &str| {
        let before = store_bytes(dir);
        let err = ShardedEngine::try_new(decayed_query(), 2)
            .expect("spawn shards")
            .checkpoint_every(512)
            .try_producers(producers)
            .expect("fabric")
            .try_durable(dir, DurabilityOptions::default())
            .err()
            .unwrap_or_else(|| panic!("{label} must be refused"));
        assert!(
            matches!(err, forward_decay::core::Error::Durability { .. }),
            "{label}: got {err:?}"
        );
        assert!(
            before == store_bytes(dir),
            "{label}: the store was modified"
        );
    };

    // A two-producer store under one producer, and under three …
    let store = StoreDir::new("two-producers");
    {
        let (mut e, _) = open_fabric(store.path(), 2, 2, DurabilityOptions::default());
        feed(&mut e, &packets, 0, 1024);
        e.finish();
    }
    refused(store.path(), 1, "one producer over a two-producer store");
    refused(store.path(), 3, "three producers over a two-producer store");

    // … and a one-producer store under two.
    let single = StoreDir::new("one-producer");
    durable_run(single.path(), &packets, 2);
    refused(single.path(), 2, "two producers over a one-producer store");
}

/// Every file of a store directory, by name.
fn store_bytes(dir: &Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    store_files(dir)
        .into_iter()
        .map(|n| {
            let bytes = std::fs::read(dir.join(&n)).expect("read store file");
            (n, bytes)
        })
        .collect()
}

/// The query and stream of the pinned crashed stores.
fn fixture_query() -> Query {
    Query::builder("fixture")
        .group_by(|p| p.dst_host())
        .bucket_secs(2)
        .aggregate(fwd_sum_factory(Monomial::quadratic(), |p| p.len as f64))
        .try_build()
        .expect("valid query")
}

/// Writes the store a `tests/data` file holds (`<file name> <hex>` per
/// line) into a fresh directory.
fn materialise(name: &str, pinned: &str) -> StoreDir {
    let store = StoreDir::new(name);
    std::fs::create_dir_all(store.path()).expect("mkdir");
    for line in pinned.lines() {
        let (name, hex) = line.split_once(' ').expect("<file name> <hex>");
        let bytes: Vec<u8> = (0..hex.len() / 2)
            .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).expect("hex"))
            .collect();
        std::fs::write(store.path().join(name), bytes).expect("materialise");
    }
    store
}

/// `tests/data/durable_store.hex` is the directory of a small crashed run
/// — S = 2, P = 1, 4 KiB segments, a checkpoint every 256 tuples, commits
/// every 170 tuples to 4 600 and every 50 from there, dropped without
/// `finish` after persisting checkpoints and closed-deltas, with rolled WAL
/// segments and epochs past the last commit that reached the disk —
/// written at the commit that made cells weigh `g(a) / g(W)`. That store
/// opens, resumes from its newest commit and finishes with the
/// single-threaded engine's rows.
#[test]
fn a_store_written_by_the_parent_commit_resumes_bit_identically() {
    let query = fixture_query;
    let packets: Vec<Packet> = (0..6_000u32)
        .map(|i| Packet {
            ts: u64::from(i) * 1_000,
            src_ip: i,
            dst_ip: i * i % 5,
            src_port: 3,
            dst_port: 4,
            len: 40 + i % 1400,
            proto: Proto::Tcp,
        })
        .collect();
    let expected = Engine::new(query()).run(packets.clone());

    let store = materialise("parent-store", include_str!("data/durable_store.hex"));
    assert!(
        store_files(store.path())
            .iter()
            .filter(|n| n.starts_with("wal-0-"))
            .count()
            > 1,
        "the fixture holds a rolled WAL"
    );

    let (mut e, report) = ShardedEngine::try_new(query(), 2)
        .and_then(|e| e.try_batch_size(3))
        .and_then(|e| {
            e.checkpoint_every(256).try_durable(
                store.path(),
                DurabilityOptions {
                    segment_bytes: 4096,
                    ..DurabilityOptions::default()
                },
            )
        })
        .expect("open the parent's store");
    // The newest commit on disk is at tuple 4 650: the epochs logged after
    // it are cut without counting as damage, and the tail between the
    // checkpoints and the commit replays.
    assert_eq!(
        report,
        RecoveryReport {
            position: 4_650,
            watermark: 4_649_000,
            replayed_batches: 74,
            replayed_tuples: 177,
            truncated_records: 0,
            resumed: true,
        }
    );
    e.try_process_packets(&packets[4_650..]).expect("re-feed");
    e.durable_commit(packets.len() as u64).expect("commit");
    assert_bit_identical(&expected, &e.finish(), "resumed from the parent's store");
    drop(e);
    // And what this build wrote on top of it reopens from disk alone.
    let (mut e, report) = ShardedEngine::try_new(query(), 2)
        .and_then(|e| e.try_batch_size(3))
        .and_then(|e| {
            e.checkpoint_every(256)
                .try_durable(store.path(), DurabilityOptions::default())
        })
        .expect("reopen");
    assert_eq!(report.position, packets.len() as u64);
    assert_bit_identical(&expected, &e.finish(), "finished store, reopened");
}

/// `tests/data/durable_store_parent.hex` is a crashed store of the same
/// run, written before cells weighed `g(a) / g(W)`: its checkpoints and
/// closed-deltas hold cells under their bucket's clock, which this build
/// cannot read. Its `FDM2` manifest says so, and the store is refused by
/// name, byte for byte as found, never read as torn nor misread.
#[test]
fn a_store_written_before_relative_weights_is_refused_untouched() {
    let store = materialise("fdm2-store", include_str!("data/durable_store_parent.hex"));
    let before = store_bytes(store.path());
    let refused = ShardedEngine::try_new(fixture_query(), 2)
        .and_then(|e| e.try_batch_size(3))
        .and_then(|e| {
            e.checkpoint_every(256)
                .try_durable(store.path(), DurabilityOptions::default())
        })
        .err()
        .expect("an FDM2 store is refused");
    let text = refused.to_string();
    assert!(
        text.contains("FDM2") && text.contains("an older build"),
        "{text}"
    );
    assert!(
        store_bytes(store.path()) == before,
        "a refused store is left as found"
    );
}
