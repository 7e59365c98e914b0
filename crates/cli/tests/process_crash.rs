//! Process-level crash matrix: murder a real `fdql` process with
//! `SIGKILL` mid-stream, restart it with the same flags, and require the
//! restart to resume from the durable store and print output
//! byte-identical to a run that was never killed. A seeded kill schedule
//! (`FD_CRASH`) lets the CI crash-matrix explore different cut points;
//! an oracle test cross-checks the durable path's actual numbers against
//! the brute-force `fd_core::oracle` reference.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use fd_core::decay::Monomial;
use fd_core::oracle::{Oracle, OracleEvent};
use fd_gen::TraceConfig;

const FDQL: &str = env!("CARGO_BIN_EXE_fdql");

/// A self-cleaning store directory under the system temp dir.
struct StoreDir(PathBuf);

impl StoreDir {
    fn new(label: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("fd-process-crash-{}-{label}", std::process::id()));
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

/// The queries under test: `--agg`, `--hosts` and `--checkpoint-every`.
/// The first's snapshots stay under its interval's worth of packets, so it
/// checkpoints every 512 tuples; the second's q-digests outweigh 256
/// packets, so its workers stretch the interval to their snapshots' size
/// and a crash re-reads a tail longer than `--checkpoint-every`.
const FIXED_CADENCE: [&str; 3] = ["fwd_sum", "200", "512"];
const STRETCHED_CADENCE: [&str; 3] = ["fwd_quantiles", "2000", "256"];

/// The query under test. `--pace-ms` stretches the run to a few hundred
/// milliseconds so a kill can land mid-stream; it does not change output.
fn args(set: [&str; 3], data_dir: Option<&Path>, pace_ms: u64) -> Vec<String> {
    let [agg, hosts, every] = set;
    let mut a: Vec<String> = [
        "--agg",
        agg,
        "--group",
        "dst_host",
        "--bucket",
        "2",
        "--rate",
        "15000",
        "--duration",
        "3",
        "--hosts",
        hosts,
        "--seed",
        "11",
        "--shards",
        "2",
        "--checkpoint-every",
        every,
        "--format",
        "csv",
        "--limit",
        "0",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if let Some(dir) = data_dir {
        a.push("--data-dir".into());
        a.push(dir.display().to_string());
    }
    if pace_ms > 0 {
        a.push("--pace-ms".into());
        a.push(pace_ms.to_string());
    }
    a
}

/// Runs `fdql` to completion and returns (stdout, stderr).
fn run_to_completion(args: &[String]) -> (String, String) {
    let out = Command::new(FDQL).args(args).output().expect("spawn fdql");
    assert!(
        out.status.success(),
        "fdql failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
    )
}

/// Spawns `fdql`, lets it run for `delay`, then delivers `SIGKILL` — no
/// shutdown hooks, no Drop, nothing: the store is whatever hit the disk.
fn spawn_and_kill(args: &[String], delay: Duration) {
    let mut child = Command::new(FDQL)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn fdql");
    std::thread::sleep(delay);
    // If the run already finished, the kill is a no-op on a zombie —
    // that's a legal matrix entry (crash-after-commit-of-everything).
    let _ = child.kill();
    let _ = child.wait();
}

/// Kills `fdql` running `set` at seeded points, twice per store, and
/// requires every restart to finish byte-identical to an uncrashed run.
fn kill_dash_nine_matrix(set: [&str; 3]) {
    // Golden output: the same flags without a store, run to completion.
    let (golden, _) = run_to_completion(&args(set, None, 0));
    assert!(golden.contains("# tuples="), "sanity: {golden}");

    // A clean durable run must already match the in-memory run exactly.
    let clean_store = StoreDir::new(&format!("clean-{}", set[0]));
    let (clean, _) = run_to_completion(&args(set, Some(clean_store.path()), 0));
    assert_eq!(golden, clean, "durable run diverged from in-memory run");

    // The kill schedule: seeded so CI rows explore different cut points,
    // spread from "barely started" to "almost done".
    let seed = std::env::var("FD_CRASH")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(0xC4A5);
    let base = 30 + seed % 50;
    let step = 60 + (seed / 50) % 40;
    let delays: Vec<u64> = (0..4).map(|k| base + k * step).collect();

    let mut resumed_restarts = 0u32;
    for (i, &delay_ms) in delays.iter().enumerate() {
        let store = StoreDir::new(&format!("kill-{}-{i}", set[0]));
        // Crash 1: paced run, killed mid-stream.
        spawn_and_kill(
            &args(set, Some(store.path()), 20),
            Duration::from_millis(delay_ms),
        );
        // Crash 2: the *restart* gets killed too — recovery of a store
        // that was itself written by a recovering process must hold.
        spawn_and_kill(
            &args(set, Some(store.path()), 20),
            Duration::from_millis(delay_ms / 2 + 15),
        );
        // Final restart runs to completion and must reproduce the golden
        // output byte for byte.
        let (out, err) = run_to_completion(&args(set, Some(store.path()), 0));
        assert_eq!(
            golden, out,
            "delay {delay_ms}ms: restarted output diverged\nstderr: {err}"
        );
        if err.contains("resumed durable store") {
            resumed_restarts += 1;
        }
    }
    assert!(
        resumed_restarts > 0,
        "no kill in the whole matrix landed mid-stream (delays {delays:?}) — \
         the crash matrix is not exercising recovery"
    );
}

#[test]
fn kill_dash_nine_matrix_restarts_bit_identically() {
    kill_dash_nine_matrix(FIXED_CADENCE);
}

#[test]
fn kill_dash_nine_matrix_restarts_bit_identically_on_a_stretched_cadence() {
    // The workers' own gauge shows the interval in force is the
    // snapshot's size in packets, not the 256 tuples asked for.
    let mut metered = args(STRETCHED_CADENCE, None, 0);
    metered.push("--metrics".into());
    let (out, _) = run_to_completion(&metered);
    let intervals: Vec<u64> = out
        .lines()
        .filter_map(|l| l.strip_prefix("fd_shard_checkpoint_interval_tuples{shard="))
        .map(|l| l.split_once(' ').expect("a value").1.parse().expect("u64"))
        .collect();
    assert_eq!(intervals.len(), 2, "{out}");
    assert!(intervals.iter().all(|&n| n > 256), "{intervals:?}");
    kill_dash_nine_matrix(STRETCHED_CADENCE);
}

#[test]
fn recovered_numbers_match_the_brute_force_oracle() {
    // One global group, forward-decayed sum, poly:2 — exactly the shape
    // the oracle computes by brute force from the raw event list.
    let bucket_secs = 2u64;
    let a: Vec<String> = [
        "--agg",
        "fwd_sum",
        "--group",
        "none",
        "--bucket",
        "2",
        "--rate",
        "8000",
        "--duration",
        "3",
        "--hosts",
        "100",
        "--seed",
        "17",
        "--shards",
        "2",
        "--checkpoint-every",
        "512",
        "--format",
        "csv",
        "--limit",
        "0",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    // Run durably, kill once mid-stream, then restart to completion: the
    // numbers checked against the oracle are *recovered* numbers.
    let store = StoreDir::new("oracle");
    let mut crashed = a.clone();
    crashed.push("--data-dir".into());
    crashed.push(store.path().display().to_string());
    crashed.push("--pace-ms".into());
    crashed.push("20".into());
    spawn_and_kill(&crashed, Duration::from_millis(60));
    let mut resumed = a.clone();
    resumed.push("--data-dir".into());
    resumed.push(store.path().display().to_string());
    let (out, _) = run_to_completion(&resumed);

    // The same trace the CLI generates (same seed → same packets).
    let trace = TraceConfig {
        seed: 17,
        duration_secs: 3.0,
        rate_pps: 8_000.0,
        n_hosts: 100,
        ..Default::default()
    }
    .generate();
    assert!(!trace.is_empty());

    let mut checked = 0u32;
    for line in out.lines().skip(1) {
        if line.starts_with('#') {
            continue;
        }
        let mut fields = line.split(',');
        let bucket_start: f64 = fields.next().unwrap().parse().expect("bucket");
        let value: f64 = fields.nth(1).unwrap().parse().expect("value");
        // Brute force: every event in the bucket, weighed with landmark =
        // bucket start, evaluated at bucket end — the paper's definition,
        // with no engine, no sharding, no WAL in the loop.
        let mut oracle = Oracle::new(Monomial::quadratic(), bucket_start);
        let end = bucket_start + bucket_secs as f64;
        for p in &trace {
            let t = p.ts as f64 / 1e6;
            if t >= bucket_start && t < end {
                oracle.push(OracleEvent::new(t, p.len as f64, 0));
            }
        }
        let want = oracle.sum(end);
        let rel = (value - want).abs() / want.abs().max(1e-12);
        assert!(
            rel < 1e-9,
            "bucket {bucket_start}: recovered fdql says {value}, oracle says {want} (rel {rel:e})"
        );
        checked += 1;
    }
    assert!(checked >= 2, "expected at least two buckets, got {checked}");
}
