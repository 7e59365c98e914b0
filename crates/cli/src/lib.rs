//! # fd-cli — the `fdql` command-line tool
//!
//! Runs a forward-decayed continuous query over a synthetic packet trace
//! and prints the result rows, exercising the whole stack (fd-gen →
//! fd-engine → fd-core) from a shell:
//!
//! ```text
//! fdql --agg fwd_sum --decay poly:2 --group dst_key --bucket 60 \
//!      --proto tcp --rate 100000 --duration 120 --format csv
//! ```
//!
//! The argument grammar is deliberately tiny (no external parser crate);
//! [`CliConfig::parse`] turns an argument list into a validated
//! configuration, [`try_run`] executes it and returns the rendered output.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

use std::fmt::Write as _;
use std::sync::Arc;

use fd_core::decay::AnyDecay;
use fd_engine::prelude::*;
use fd_engine::udaf::FnFactory;
use fd_gen::{Burst, TraceConfig};

/// Which aggregate to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// Undecayed `count(*)`.
    Count,
    /// Undecayed `sum(len)`.
    Sum,
    /// Forward-decayed count.
    FwdCount,
    /// Forward-decayed `sum(len)`.
    FwdSum,
    /// Forward-decayed average of `len`.
    FwdAvg,
    /// Forward-decayed φ = 0.01 heavy hitters over the group's items.
    FwdHh,
    /// Forward-decayed quantiles (p50/p95/p99) of `len`.
    FwdQuantiles,
    /// Forward-decayed count-distinct of source hosts.
    FwdDistinct,
}

impl AggKind {
    fn parse(s: &str) -> Result<Self, String> {
        Ok(match s {
            "count" => Self::Count,
            "sum" => Self::Sum,
            "fwd_count" => Self::FwdCount,
            "fwd_sum" => Self::FwdSum,
            "fwd_avg" => Self::FwdAvg,
            "fwd_hh" => Self::FwdHh,
            "fwd_quantiles" => Self::FwdQuantiles,
            "fwd_distinct" => Self::FwdDistinct,
            other => {
                return Err(format!(
                    "unknown aggregate '{other}' \
                     (count|sum|fwd_count|fwd_sum|fwd_avg|fwd_hh|fwd_quantiles|fwd_distinct)"
                ))
            }
        })
    }
}

/// Group-by key choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupKey {
    /// One global group.
    None,
    /// Destination host.
    DstHost,
    /// Destination (host, port) pair.
    DstKey,
    /// Source host.
    SrcHost,
}

impl GroupKey {
    fn parse(s: &str) -> Result<Self, String> {
        Ok(match s {
            "none" => Self::None,
            "dst_host" => Self::DstHost,
            "dst_key" => Self::DstKey,
            "src_host" => Self::SrcHost,
            other => {
                return Err(format!(
                    "unknown group key '{other}' (none|dst_host|dst_key|src_host)"
                ))
            }
        })
    }
}

/// Output format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// CSV rows.
    Csv,
    /// Aligned text table.
    Table,
    /// Only the engine statistics.
    Stats,
}

/// A parsed, validated `fdql` invocation.
#[derive(Debug, Clone)]
pub struct CliConfig {
    /// Aggregate to run.
    pub agg: AggKind,
    /// Forward decay function (for the `fwd_*` aggregates).
    pub decay: AnyDecay,
    /// Group-by key.
    pub group: GroupKey,
    /// Time-bucket width in seconds.
    pub bucket_secs: u64,
    /// Optional protocol filter.
    pub proto: Option<Proto>,
    /// Trace rate (packets/second).
    pub rate_pps: f64,
    /// Trace duration (seconds).
    pub duration_secs: f64,
    /// Trace host count.
    pub n_hosts: usize,
    /// Trace RNG seed.
    pub seed: u64,
    /// Output format.
    pub format: Format,
    /// Limit on printed rows (0 = unlimited).
    pub limit: usize,
    /// Out-of-order timestamp jitter half-width in seconds.
    pub ooo_jitter_secs: f64,
    /// Engine watermark slack in seconds (tolerates the jitter).
    pub slack_secs: f64,
    /// Optional flood: `start,end,fraction` toward one victim host.
    pub burst: Option<Burst>,
    /// Worker shards for parallel execution (0 = single-threaded engine).
    pub shards: usize,
    /// Ingress producers feeding the shard rings (0 = the engine default,
    /// one). Any non-zero value engages the sharded executor.
    pub producers: usize,
    /// Dispatcher batch size for sharded runs (0 = engine default).
    pub batch: usize,
    /// Checkpoint interval in tuples for sharded runs (`None` = engine
    /// default; `Some(0)` disables supervision entirely).
    pub checkpoint_every: Option<u64>,
    /// Restart budget per shard before graceful degradation (`None` =
    /// engine default).
    pub max_restarts: Option<u32>,
    /// Append a Prometheus text-format metrics snapshot to the output.
    pub metrics: bool,
    /// Durable store directory (`None` = in-memory only). With a store,
    /// the run logs every dispatched batch to a WAL, commits the stream
    /// position every [`COMMIT_CHUNK`] events, and a restarted `fdql` with
    /// the same flags resumes from the last commit instead of starting
    /// over.
    pub data_dir: Option<std::path::PathBuf>,
    /// WAL fsync cadence (with `--data-dir`).
    pub fsync: FsyncPolicy,
    /// Sleep this many milliseconds after each commit chunk —
    /// paces the stream so crash tests can land a `kill -9` mid-run.
    pub pace_ms: u64,
    /// Overload shed policy for sharded runs. A lossy policy (or an
    /// explicit lag budget) engages the sharded executor even without
    /// `--shards`.
    pub shed: ShedPolicy,
    /// Per-shard lag budget in queued batches (`None` = engine default:
    /// shed only once a ring is full past the send deadline).
    pub lag_budget: Option<usize>,
    /// Graceful-drain deadline in seconds: how long shutdown waits for
    /// shard queues to empty before abandoning laggards.
    pub drain_timeout_secs: f64,
}

impl Default for CliConfig {
    fn default() -> Self {
        Self {
            agg: AggKind::FwdSum,
            decay: AnyDecay::Monomial(fd_core::decay::Monomial::quadratic()),
            group: GroupKey::DstHost,
            bucket_secs: 60,
            proto: None,
            rate_pps: 50_000.0,
            duration_secs: 60.0,
            n_hosts: 10_000,
            seed: 42,
            format: Format::Table,
            limit: 20,
            ooo_jitter_secs: 0.0,
            slack_secs: 0.0,
            burst: None,
            shards: 0,
            producers: 0,
            batch: 0,
            checkpoint_every: None,
            max_restarts: None,
            metrics: false,
            data_dir: None,
            fsync: FsyncPolicy::OnCheckpoint,
            pace_ms: 0,
            shed: ShedPolicy::Block,
            lag_budget: None,
            drain_timeout_secs: 30.0,
        }
    }
}

/// The `--help` text.
pub const USAGE: &str = "\
fdql — forward-decayed continuous queries over synthetic packet traces

USAGE:
    fdql [OPTIONS]

OPTIONS (all optional):
    --agg <kind>        count|sum|fwd_count|fwd_sum|fwd_avg|fwd_hh|fwd_quantiles|fwd_distinct
                        [default: fwd_sum]
    --decay <spec>      none|landmark|poly:<β>|exp:<α>|halflife:<secs>  [default: poly:2]
    --group <key>       none|dst_host|dst_key|src_host                  [default: dst_host]
    --bucket <secs>     time bucket width                               [default: 60]
    --proto <p>         tcp|udp (omit for both)
    --rate <pps>        trace packet rate                               [default: 50000]
    --duration <secs>   trace duration                                  [default: 60]
    --hosts <n>         distinct destination hosts                      [default: 10000]
    --seed <n>          trace RNG seed                                  [default: 42]
    --format <f>        csv|table|stats                                 [default: table]
    --limit <n>         max rows printed, 0 = all                       [default: 20]
    --ooo <secs>        out-of-order timestamp jitter half-width        [default: 0]
    --slack <secs>      engine watermark slack for late tuples          [default: 0]
    --burst <s,e,f>     flood fraction f toward one host in [s, e) secs
    --shards <n>        parallel worker shards, 0 = single-threaded     [default: 0]
    --producers <n>     ingress producers feeding the shard rings (sharded
                        runs), 0 = default               [default: 1]
    --batch <n>         dispatcher batch size (sharded runs), 0 = default [default: 0]
    --checkpoint-every <n>  minimum worker checkpoint interval in tuples
                        (sharded runs; a shard whose snapshot outweighs n
                        32-byte packets waits longer); 0 disables
                        supervision                     [default: 32768]
    --max-restarts <n>  restarts per shard before degradation [default: 3]
    --metrics           append a Prometheus metrics snapshot (takes no value)
    --data-dir <path>   durable store directory (WAL + checkpoints); rerunning
                        with the same flags resumes after a crash [default: off]
    --fsync <policy>    batch|every:<n>|checkpoint — WAL fsync cadence with
                        --data-dir                       [default: checkpoint]
    --pace-ms <ms>      sleep per commit chunk (crash-test pacing)
                                                         [default: 0]
    --shed <policy>     block|drop-oldest|subsample:<rate> — what to do when
                        a shard stays over its lag budget past the send
                        deadline; lossy policies engage the sharded
                        executor and are refused with --data-dir
                                                         [default: block]
    --lag-budget <n>    per-shard lag budget in queued batches; subsample
                        thinning starts at this depth     [default: ring depth]
    --drain-timeout <secs>  graceful-drain deadline: how long shutdown waits
                        for shard queues to empty before abandoning
                        laggards                         [default: 30]
    --help              print this text

ENVIRONMENT:
    FD_FAULT=<plan>     inject a deterministic fault into a sharded run,
                        e.g. slow:0:50 (50 ms/batch on shard 0) or
                        wedge:0:10000 (spin at tuple 10000) — the overload
                        soak harness; non-plan values are ignored
";

impl CliConfig {
    /// Parses an argument list (without the program name).
    pub fn parse<I, S>(args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut cfg = Self::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let flag = flag.as_ref();
            if flag == "--help" {
                return Err(USAGE.to_string());
            }
            // The only valueless flag besides --help.
            if flag == "--metrics" {
                cfg.metrics = true;
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| format!("flag '{flag}' needs a value\n\n{USAGE}"))?;
            let v = value.as_ref();
            // `f64::from_str` accepts "nan" and "inf"; no flag means either.
            let num = |v: &str| match v.parse::<f64>() {
                Ok(x) if x.is_finite() => Ok(x),
                Ok(_) => Err(format!("bad number '{v}': must be finite")),
                Err(e) => Err(format!("bad number '{v}': {e}")),
            };
            let int = |v: &str| {
                v.parse::<u64>()
                    .map_err(|e| format!("bad integer '{v}': {e}"))
            };
            match flag {
                "--agg" => cfg.agg = AggKind::parse(v)?,
                "--decay" => cfg.decay = v.parse()?,
                "--group" => cfg.group = GroupKey::parse(v)?,
                "--bucket" => {
                    cfg.bucket_secs = int(v)?;
                    if cfg.bucket_secs == 0 {
                        return Err("bucket width must be positive".into());
                    }
                    if cfg.bucket_secs.checked_mul(MICROS_PER_SEC).is_none() {
                        return Err(format!(
                            "bucket width '{v}' does not fit the 64-bit microsecond clock"
                        ));
                    }
                }
                "--proto" => {
                    cfg.proto = Some(match v {
                        "tcp" => Proto::Tcp,
                        "udp" => Proto::Udp,
                        other => return Err(format!("unknown protocol '{other}' (tcp|udp)")),
                    })
                }
                "--rate" => {
                    cfg.rate_pps = num(v)?;
                    if cfg.rate_pps <= 0.0 {
                        return Err("rate must be positive".into());
                    }
                }
                "--duration" => {
                    cfg.duration_secs = num(v)?;
                    if cfg.duration_secs <= 0.0 {
                        return Err("duration must be positive".into());
                    }
                }
                "--hosts" => {
                    cfg.n_hosts = int(v)? as usize;
                    if cfg.n_hosts == 0 {
                        return Err("need at least one host".into());
                    }
                }
                "--seed" => cfg.seed = int(v)?,
                "--format" => {
                    cfg.format = match v {
                        "csv" => Format::Csv,
                        "table" => Format::Table,
                        "stats" => Format::Stats,
                        other => return Err(format!("unknown format '{other}' (csv|table|stats)")),
                    }
                }
                "--limit" => cfg.limit = int(v)? as usize,
                "--shards" => cfg.shards = int(v)? as usize,
                "--producers" => cfg.producers = int(v)? as usize,
                "--batch" => cfg.batch = int(v)? as usize,
                "--checkpoint-every" => cfg.checkpoint_every = Some(int(v)?),
                "--max-restarts" => {
                    let n = int(v)?;
                    if n > u64::from(u32::MAX) {
                        return Err(format!("--max-restarts {n} is out of range"));
                    }
                    cfg.max_restarts = Some(n as u32);
                }
                "--data-dir" => {
                    if v.is_empty() {
                        return Err("--data-dir needs a non-empty path".into());
                    }
                    cfg.data_dir = Some(std::path::PathBuf::from(v));
                }
                "--fsync" => {
                    cfg.fsync = FsyncPolicy::parse(v).ok_or_else(|| {
                        format!("unknown fsync policy '{v}' (batch|every:<n>|checkpoint)")
                    })?;
                }
                "--pace-ms" => cfg.pace_ms = int(v)?,
                "--shed" => cfg.shed = v.parse().map_err(|e| format!("{e}"))?,
                "--lag-budget" => {
                    let n = int(v)? as usize;
                    if n == 0 {
                        return Err("lag budget must be positive".into());
                    }
                    cfg.lag_budget = Some(n);
                }
                "--drain-timeout" => {
                    cfg.drain_timeout_secs = num(v)?;
                    if cfg.drain_timeout_secs <= 0.0 {
                        return Err("drain timeout must be positive".into());
                    }
                }
                "--ooo" => {
                    cfg.ooo_jitter_secs = num(v)?;
                    if cfg.ooo_jitter_secs < 0.0 {
                        return Err("jitter must be non-negative".into());
                    }
                }
                "--slack" => {
                    cfg.slack_secs = num(v)?;
                    if cfg.slack_secs < 0.0 {
                        return Err("slack must be non-negative".into());
                    }
                }
                "--burst" => {
                    let parts: Vec<&str> = v.split(',').collect();
                    if parts.len() != 3 {
                        return Err(format!("--burst wants start,end,fraction, got '{v}'"));
                    }
                    let (start, end, fraction) = (num(parts[0])?, num(parts[1])?, num(parts[2])?);
                    if !(start >= 0.0 && end > start && fraction > 0.0 && fraction <= 1.0) {
                        return Err(format!("bad burst spec '{v}'"));
                    }
                    cfg.burst = Some(Burst {
                        start_secs: start,
                        end_secs: end,
                        dst_ip: 0x0A00_BEEF,
                        fraction,
                    });
                }
                other => return Err(format!("unknown flag '{other}'\n\n{USAGE}")),
            }
        }
        Ok(cfg)
    }

    fn factory(&self) -> Arc<FnFactory> {
        let g = self.decay.clone();
        match self.agg {
            AggKind::Count => count_factory(),
            AggKind::Sum => sum_factory(|p| p.len as f64),
            AggKind::FwdCount => fwd_count_factory(g),
            AggKind::FwdSum => fwd_sum_factory(g, |p| p.len as f64),
            AggKind::FwdAvg => fwd_avg_factory(g, |p| p.len as f64),
            AggKind::FwdHh => fwd_hh_factory(g, 0.001, 0.01, |p| p.dst_host()),
            AggKind::FwdQuantiles => {
                fwd_quantile_factory(g, 11, 0.01, vec![0.5, 0.95, 0.99], |p| p.len as u64)
            }
            AggKind::FwdDistinct => distinct_factory(g, 0.1, 7, |p| p.src_host()),
        }
    }

    fn query(&self) -> Result<Query, String> {
        let mut b = Query::builder(format!("fdql-{:?}", self.agg))
            .bucket_secs(self.bucket_secs)
            .slack_secs(self.slack_secs)
            .aggregate(self.factory());
        if let Some(proto) = self.proto {
            b = b.filter(move |p| p.proto == proto);
        }
        b = match self.group {
            GroupKey::None => b,
            GroupKey::DstHost => b.group_by(|p| p.dst_host()),
            GroupKey::DstKey => b.group_by(|p| p.dst_key()),
            GroupKey::SrcHost => b.group_by(|p| p.src_host()),
        };
        b.try_build().map_err(|e| e.to_string())
    }
}

/// What a completed `fdql` run looked like beyond its stdout: the drain
/// report and the supervision counters the shutdown report and the exit
/// code are derived from.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The rendered stdout payload (rows + stats line + optional metrics).
    pub output: String,
    /// The graceful-drain report (clean for single-threaded runs).
    pub drain: DrainReport,
    /// The shed policy the run executed under.
    pub shed_policy: ShedPolicy,
    /// Shards that exhausted their restart budget and were degraded.
    pub degraded_shards: u64,
    /// Worker respawns (panics and wedges combined).
    pub restarts: u64,
    /// Batches replayed from supervision backlogs.
    pub replayed_batches: u64,
    /// Tuples routed to already-degraded shards and dropped.
    pub dropped_degraded: u64,
}

impl RunReport {
    /// Whether the run lost data it had promised not to lose: any shed,
    /// unflushed epoch, or degraded-shard drop under the lossless
    /// [`ShedPolicy::Block`]. Under the lossy policies, sheds are the
    /// configured cost and only the exit-status stays clean.
    pub fn data_lost_under_block(&self) -> bool {
        !self.shed_policy.is_lossy() && (self.drain.data_lost() || self.dropped_degraded > 0)
    }

    /// The one-line-per-fact shutdown report `fdql` prints to stderr.
    pub fn shutdown_summary(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "fdql shutdown: shed_tuples={} shed_batches={} wedged_respawns={} \
             restarts={} replayed_batches={} degraded_shards={} dropped_degraded={} \
             unflushed_epochs={}{}",
            self.drain.shed_tuples,
            self.drain.shed_batches,
            self.drain.wedged_respawns,
            self.restarts,
            self.replayed_batches,
            self.degraded_shards,
            self.dropped_degraded,
            self.drain.unflushed_epochs,
            if self.drain.deadline_expired {
                " (drain deadline expired)"
            } else {
                ""
            }
        );
        for (shard, lag) in self.drain.per_shard_lag.iter().enumerate() {
            if *lag > 0 {
                let _ = writeln!(
                    s,
                    "fdql shutdown: shard {shard} abandoned with {lag} queued"
                );
            }
        }
        if self.data_lost_under_block() {
            let _ = writeln!(
                s,
                "fdql shutdown: DATA LOST under lossless policy 'block' — exiting nonzero"
            );
        }
        s
    }
}

/// Executes a parsed invocation and returns the rendered output, or an
/// error message if the configuration does not form a valid query.
pub fn try_run(cfg: &CliConfig) -> Result<String, String> {
    try_run_report(cfg).map(|r| r.output)
}

/// Executes a parsed invocation and returns the rendered output together
/// with the shutdown report ([`RunReport`]) the `fdql` binary prints to
/// stderr and derives its exit status from.
pub fn try_run_report(cfg: &CliConfig) -> Result<RunReport, String> {
    let trace = TraceConfig {
        seed: cfg.seed,
        duration_secs: cfg.duration_secs,
        rate_pps: cfg.rate_pps,
        n_hosts: cfg.n_hosts,
        ooo_jitter_secs: cfg.ooo_jitter_secs,
        burst: cfg.burst,
        ..Default::default()
    };
    // Single-threaded and sharded runs produce the same artifacts: rows,
    // final counters, a metrics snapshot (the sharded one carries live
    // per-shard series; the single-threaded one wraps the counters so
    // `--metrics` output has one shape either way), and a drain report.
    let sharded = cfg.shards > 0
        || cfg.data_dir.is_some()
        || cfg.producers > 0
        || cfg.shed.is_lossy()
        || cfg.lag_budget.is_some();
    let (mut rows, stats, snapshot, drain) = if sharded {
        // A durable store needs the sharded executor (its checkpoints are
        // what gets persisted); so do extra ingress producers and the
        // overload controller: those flags without `--shards` run one
        // worker shard.
        let shards = cfg.shards.max(1);
        let mut engine = ShardedEngine::try_new(cfg.query()?, shards).map_err(|e| e.to_string())?;
        if cfg.batch > 0 {
            engine = engine
                .try_batch_size(cfg.batch)
                .map_err(|e| e.to_string())?;
        }
        if let Some(every) = cfg.checkpoint_every {
            engine = engine.checkpoint_every(every);
        }
        if let Some(n) = cfg.max_restarts {
            engine = engine.max_restarts(n);
        }
        let mut overload = OverloadConfig {
            policy: cfg.shed,
            decay: cfg.decay.clone(),
            seed: cfg.seed,
            ..OverloadConfig::default()
        };
        if let Some(budget) = cfg.lag_budget {
            overload.lag_budget = budget;
        }
        engine = engine.try_overload(overload).map_err(|e| e.to_string())?;
        // The overload soak harness: FD_FAULT carrying a fault-plan spec
        // (`slow:0:50`, `wedge:0:10000`, …) arms that fault in this run.
        // Values that don't parse as a plan (e.g. the numeric seeds the
        // test-suite fault matrix uses) are ignored.
        if let Ok(spec) = std::env::var("FD_FAULT") {
            if let Some(plan) = FaultPlan::parse(spec.trim()) {
                if plan.shard < shards {
                    eprintln!("fdql: injecting fault {} (FD_FAULT)", spec.trim());
                    engine = engine.inject_fault(plan);
                }
            }
        }
        if cfg.producers > 0 {
            engine = engine
                .try_producers(cfg.producers)
                .map_err(|e| e.to_string())?;
        }
        let drain_deadline = std::time::Duration::from_secs_f64(cfg.drain_timeout_secs);
        let mut start = 0;
        if let Some(dir) = &cfg.data_dir {
            let opts = DurabilityOptions {
                fsync: cfg.fsync,
                ..DurabilityOptions::default()
            };
            let (e, report) = engine.try_durable(dir, opts).map_err(|e| e.to_string())?;
            engine = e;
            if report.resumed {
                // Resume details go to stderr only: stdout must be
                // bit-identical to an uncrashed run's.
                eprintln!(
                    "fdql: resumed durable store in {} at position {} \
                     (replayed {} batches / {} tuples, truncated {} records)",
                    dir.display(),
                    report.position,
                    report.replayed_batches,
                    report.replayed_tuples,
                    report.truncated_records
                );
            }
            start = report.position;
        }
        let (rows, drain) =
            feed_in_chunks(&mut engine, &trace, start, cfg.pace_ms, drain_deadline)?;
        if engine.durability_degraded() {
            eprintln!("fdql: durability degraded mid-run; results are complete but not persisted");
        }
        (rows, engine.stats(), engine.telemetry().snapshot(), drain)
    } else {
        let mut engine = Engine::new(cfg.query()?);
        let rows = engine.run(trace.iter());
        let stats = engine.stats();
        let snapshot = MetricsSnapshot::from_engine_stats(&stats, engine.watermark());
        (rows, stats, snapshot, DrainReport::clean())
    };
    if cfg.limit > 0 && rows.len() > cfg.limit {
        rows.truncate(cfg.limit);
    }
    let mut out = String::new();
    match cfg.format {
        Format::Csv => out.push_str(&rows_to_csv(&rows)),
        Format::Table => out.push_str(&rows_to_table(&rows, cfg.bucket_secs)),
        Format::Stats => {}
    }
    let _ = writeln!(
        out,
        "# tuples={} filtered={} rows={} buckets={} evictions={} late_drops={}",
        stats.tuples_in,
        stats.filtered,
        stats.rows_out,
        stats.buckets_closed,
        stats.lfta_evictions,
        stats.late_drops
    );
    if cfg.metrics {
        out.push_str(&snapshot.to_prometheus());
    }
    Ok(RunReport {
        output: out,
        drain,
        shed_policy: cfg.shed,
        degraded_shards: snapshot.degraded_shards,
        restarts: snapshot.restarts,
        replayed_batches: snapshot.replayed_batches,
        dropped_degraded: snapshot.dropped_degraded,
    })
}

/// Events fed between durable commits. Fixed (not a flag) so a restarted
/// `fdql` replays the identical commit schedule and stdout stays
/// bit-identical to an uncrashed run.
pub const COMMIT_CHUNK: usize = 4096;

/// Feeds the trace from `start` in [`COMMIT_CHUNK`] chunks, committing the
/// stream position after each — a no-op without a durable store — and
/// drains the engine.
fn feed_in_chunks(
    engine: &mut ShardedEngine,
    trace: &TraceConfig,
    start: u64,
    pace_ms: u64,
    drain_deadline: std::time::Duration,
) -> Result<(Vec<Row>, DrainReport), String> {
    let mut position = start;
    let mut buf: Vec<Packet> = Vec::with_capacity(COMMIT_CHUNK);
    let mut commit = |engine: &mut ShardedEngine, buf: &mut Vec<Packet>| -> Result<(), String> {
        engine.try_process_packets(buf).map_err(|e| e.to_string())?;
        position += buf.len() as u64;
        engine.durable_commit(position).map_err(|e| e.to_string())?;
        buf.clear();
        if pace_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(pace_ms));
        }
        Ok(())
    };
    // The trace is a deterministic function of its seed, so "re-feed from
    // the committed position" is a plain skip.
    for pkt in trace.iter().skip(start as usize) {
        buf.push(pkt);
        if buf.len() == COMMIT_CHUNK {
            commit(engine, &mut buf)?;
        }
    }
    commit(engine, &mut buf)?;
    Ok(engine.drain(drain_deadline))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_parse_empty_args() {
        let cfg = CliConfig::parse(Vec::<String>::new()).unwrap();
        assert_eq!(cfg.agg, AggKind::FwdSum);
        assert_eq!(cfg.bucket_secs, 60);
    }

    #[test]
    fn full_flag_set_parses() {
        let cfg = CliConfig::parse([
            "--agg",
            "fwd_hh",
            "--decay",
            "halflife:15",
            "--group",
            "none",
            "--bucket",
            "30",
            "--proto",
            "udp",
            "--rate",
            "1000",
            "--duration",
            "5",
            "--hosts",
            "100",
            "--seed",
            "7",
            "--format",
            "csv",
            "--limit",
            "0",
        ])
        .unwrap();
        assert_eq!(cfg.agg, AggKind::FwdHh);
        assert_eq!(cfg.group, GroupKey::None);
        assert_eq!(cfg.bucket_secs, 30);
        assert_eq!(cfg.proto, Some(Proto::Udp));
        assert_eq!(cfg.format, Format::Csv);
        assert_eq!(cfg.limit, 0);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(CliConfig::parse(["--agg", "nope"]).is_err());
        assert!(CliConfig::parse(["--decay", "poly:-3"]).is_err());
        assert!(CliConfig::parse(["--bucket", "0"]).is_err());
        assert!(CliConfig::parse(["--rate"]).is_err());
        assert!(CliConfig::parse(["--bogus", "1"]).is_err());
        assert!(CliConfig::parse(["--help"]).is_err()); // help is an Err(USAGE)
    }

    #[test]
    fn runs_a_small_decayed_sum() {
        let cfg = CliConfig::parse([
            "--rate",
            "5000",
            "--duration",
            "2",
            "--hosts",
            "50",
            "--group",
            "dst_host",
            "--format",
            "csv",
            "--limit",
            "0",
        ])
        .unwrap();
        let out = try_run(&cfg).expect("valid invocation");
        // header + ~50 groups + stats comment
        assert!(out.lines().count() > 40, "{out}");
        assert!(out.contains("# tuples=") && out.contains("rows="));
    }

    #[test]
    fn runs_heavy_hitters_with_exponential_decay() {
        let cfg = CliConfig::parse([
            "--agg",
            "fwd_hh",
            "--decay",
            "exp:0.1",
            "--group",
            "none",
            "--rate",
            "20000",
            "--duration",
            "3",
            "--hosts",
            "200",
            "--format",
            "table",
        ])
        .unwrap();
        let out = try_run(&cfg).expect("valid invocation");
        assert!(
            out.contains(':'),
            "heavy-hitter items should be listed: {out}"
        );
    }

    #[test]
    fn burst_and_ooo_flags_parse_and_run() {
        let cfg = CliConfig::parse([
            "--agg",
            "fwd_hh",
            "--group",
            "none",
            "--rate",
            "10000",
            "--duration",
            "4",
            "--hosts",
            "100",
            "--ooo",
            "0.5",
            "--slack",
            "1",
            "--burst",
            "2,4,0.5",
            "--format",
            "table",
        ])
        .unwrap();
        assert_eq!(cfg.ooo_jitter_secs, 0.5);
        assert_eq!(cfg.slack_secs, 1.0);
        let burst = cfg.burst.unwrap();
        assert_eq!(
            (burst.start_secs, burst.end_secs, burst.fraction),
            (2.0, 4.0, 0.5)
        );
        let out = try_run(&cfg).expect("valid invocation");
        // The flood victim (10.0.190.239 = 0x0A00BEEF) must lead the report.
        assert!(
            out.contains(&format!("{}", 0x0A00_BEEFu64)),
            "victim missing from heavy hitters: {out}"
        );
    }

    #[test]
    fn bad_burst_specs_are_rejected() {
        for bad in ["1,2", "2,1,0.5", "0,1,0", "0,1,2", "a,b,c"] {
            assert!(
                CliConfig::parse(["--burst", bad]).is_err(),
                "accepted {bad:?}"
            );
        }
        assert!(CliConfig::parse(["--ooo", "-1"]).is_err());
        assert!(CliConfig::parse(["--slack", "-1"]).is_err());
    }

    #[test]
    fn non_finite_numbers_are_usage_errors() {
        // `--slack nan` used to reach `QueryBuilder::slack_secs`'s assert.
        for flag in [
            "--slack",
            "--rate",
            "--duration",
            "--ooo",
            "--drain-timeout",
        ] {
            for bad in ["nan", "NaN", "inf", "-inf", "infinity"] {
                let err = CliConfig::parse([flag, bad]).expect_err(flag);
                assert!(err.contains("must be finite"), "{flag} {bad}: {err}");
            }
        }
        for bad in ["nan,2,0.5", "0,inf,0.5", "0,1,nan"] {
            assert!(CliConfig::parse(["--burst", bad]).is_err(), "{bad}");
        }
    }

    #[test]
    fn a_bucket_wider_than_the_clock_is_a_usage_error() {
        // 18446744073710 s × 10⁶ wrapped to a 448 384 µs bucket in release
        // builds and panicked debug ones.
        let err = CliConfig::parse(["--bucket", "18446744073710"]).unwrap_err();
        assert!(err.contains("does not fit"), "{err}");
        assert!(CliConfig::parse(["--bucket", "18446744073709"]).is_ok());
    }

    #[test]
    fn metrics_and_shards_flags_parse() {
        let cfg = CliConfig::parse(["--metrics", "--shards", "4", "--batch", "512"]).unwrap();
        assert!(cfg.metrics);
        assert_eq!(cfg.shards, 4);
        assert_eq!(cfg.batch, 512);
        // --metrics takes no value: the next token is parsed as a flag.
        assert!(CliConfig::parse(["--metrics", "true"]).is_err());
        let cfg = CliConfig::parse(Vec::<String>::new()).unwrap();
        assert!(!cfg.metrics);
        assert_eq!(cfg.shards, 0);
    }

    #[test]
    fn supervision_flags_parse_and_run() {
        let cfg = CliConfig::parse(["--checkpoint-every", "4096", "--max-restarts", "5"]).unwrap();
        assert_eq!(cfg.checkpoint_every, Some(4096));
        assert_eq!(cfg.max_restarts, Some(5));
        let cfg = CliConfig::parse(Vec::<String>::new()).unwrap();
        assert_eq!(cfg.checkpoint_every, None);
        assert_eq!(cfg.max_restarts, None);
        assert!(CliConfig::parse(["--max-restarts", "9999999999999"]).is_err());
        assert!(CliConfig::parse(["--checkpoint-every", "x"]).is_err());

        // Same trace supervised and unsupervised: identical rows.
        fn args(every: &'static str) -> [&'static str; 12] {
            [
                "--rate",
                "10000",
                "--duration",
                "2",
                "--hosts",
                "50",
                "--shards",
                "2",
                "--checkpoint-every",
                every,
                "--format",
                "csv",
            ]
        }
        let supervised =
            try_run(&CliConfig::parse(args("1024")).unwrap()).expect("valid invocation");
        let unsupervised =
            try_run(&CliConfig::parse(args("0")).unwrap()).expect("valid invocation");
        assert_eq!(
            supervised, unsupervised,
            "checkpointing must not change results"
        );
    }

    /// Pulls `name value` (no labels) out of Prometheus text.
    fn prom_value(out: &str, name: &str) -> u64 {
        out.lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .unwrap_or_else(|| panic!("metric {name} missing from:\n{out}"))
            .parse()
            .unwrap()
    }

    #[test]
    fn metrics_snapshot_agrees_with_stats_line() {
        // Differential run: the same trace single-threaded and sharded,
        // both with --metrics. The Prometheus counters must agree exactly
        // with the engine's own stats line, and with each other.
        fn args(shards: &'static str) -> [&'static str; 13] {
            [
                "--rate",
                "20000",
                "--duration",
                "3",
                "--hosts",
                "100",
                "--proto",
                "tcp",
                "--format",
                "stats",
                "--metrics",
                "--shards",
                shards,
            ]
        }
        let single = try_run(&CliConfig::parse(args("0")).unwrap()).expect("valid invocation");
        let sharded = try_run(&CliConfig::parse(args("3")).unwrap()).expect("valid invocation");
        for out in [&single, &sharded] {
            // "# tuples=N filtered=N rows=N ..." is the ground truth.
            let stats_line = out.lines().find(|l| l.starts_with("# tuples=")).unwrap();
            let field = |key: &str| -> u64 {
                stats_line
                    .split_whitespace()
                    .find_map(|w| w.strip_prefix(&format!("{key}=")))
                    .unwrap()
                    .parse()
                    .unwrap()
            };
            assert_eq!(prom_value(out, "fd_tuples_in"), field("tuples"));
            assert_eq!(prom_value(out, "fd_filtered"), field("filtered"));
            assert_eq!(prom_value(out, "fd_late_drops"), field("late_drops"));
            assert_eq!(prom_value(out, "fd_rows_out"), field("rows"));
            assert_eq!(prom_value(out, "fd_buckets_closed"), field("buckets"));
            assert_eq!(prom_value(out, "fd_worker_panics"), 0);
        }
        for name in [
            "fd_tuples_in",
            "fd_filtered",
            "fd_late_drops",
            "fd_rows_out",
        ] {
            assert_eq!(
                prom_value(&single, name),
                prom_value(&sharded, name),
                "single vs sharded disagree on {name}"
            );
        }
        // Only the sharded run exposes per-shard series.
        assert!(!single.contains("fd_shard_queue_depth"));
        assert!(sharded.contains("fd_shard_queue_depth{shard=\"2\"}"));
        assert!(sharded.contains("fd_worker_batch_ns{shard=\"0\",quantile=\"0.99\"}"));
    }

    #[test]
    fn sharded_run_honors_batch_flag() {
        fn args(batch: &'static str) -> [&'static str; 12] {
            [
                "--rate",
                "10000",
                "--duration",
                "2",
                "--hosts",
                "50",
                "--shards",
                "2",
                "--batch",
                batch,
                "--format",
                "csv",
            ]
        }
        // Same trace, different batch sizes: identical rows either way.
        let small = try_run(&CliConfig::parse(args("32")).unwrap()).expect("valid invocation");
        let large = try_run(&CliConfig::parse(args("4096")).unwrap()).expect("valid invocation");
        assert_eq!(small, large, "batch size must not change results");
        assert!(CliConfig::parse(["--batch", "x"]).is_err());
    }

    #[test]
    fn producers_flag_parses_and_does_not_change_rows() {
        let cfg = CliConfig::parse(["--producers", "4", "--shards", "2"]).unwrap();
        assert_eq!(cfg.producers, 4);
        let cfg = CliConfig::parse(Vec::<String>::new()).unwrap();
        assert_eq!(cfg.producers, 0);
        assert!(CliConfig::parse(["--producers", "x"]).is_err());
        assert!(
            CliConfig::parse(["--producers", "0"]).is_ok(),
            "0 = default"
        );

        // Same trace through one producer and three: identical rows, and
        // every producer exposes its own series.
        fn args(producers: &'static str) -> [&'static str; 15] {
            [
                "--rate",
                "10000",
                "--duration",
                "2",
                "--hosts",
                "50",
                "--shards",
                "2",
                "--producers",
                producers,
                "--format",
                "csv",
                "--metrics",
                "--seed",
                "7",
            ]
        }
        let one = try_run(&CliConfig::parse(args("0")).unwrap()).expect("valid invocation");
        let three = try_run(&CliConfig::parse(args("3")).unwrap()).expect("valid invocation");
        let rows = |out: &str| -> String {
            out.lines()
                .take_while(|l| !l.starts_with('#'))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(
            rows(&one),
            rows(&three),
            "the producer count must not change results"
        );
        assert!(one.contains("fd_producer_tuples_in{producer=\"0\"}"));
        assert!(!one.contains("fd_producer_tuples_in{producer=\"1\"}"));
        assert!(three.contains("fd_producer_tuples_in{producer=\"2\"}"));
        assert!(three.contains("fd_producer_ring_depth{producer=\"0\",shard=\"1\"}"));
    }

    #[test]
    fn metrics_answer_whether_checkpoint_cost_is_flat() {
        // Eight 1 s buckets through one supervised shard: the mean
        // snapshot size (bytes / checkpoints) is there to read, and the
        // slot's parked groups show the closed buckets left the snapshots.
        let out = try_run(
            &CliConfig::parse([
                "--rate",
                "20000",
                "--duration",
                "8",
                "--bucket",
                "1",
                "--hosts",
                "100",
                "--shards",
                "1",
                "--checkpoint-every",
                "4096",
                "--format",
                "stats",
                "--metrics",
            ])
            .unwrap(),
        )
        .expect("valid invocation");
        let checkpoints = prom_value(&out, "fd_checkpoints");
        assert!(checkpoints >= 30, "{checkpoints} checkpoints");
        let per_checkpoint = prom_value(&out, "fd_checkpoint_bytes_total") / checkpoints;
        // ~100 open groups and their LFTA slots (≈9 KiB); with the closed
        // buckets riding along the mean was more than twice that.
        assert!(
            (1..12 * 1024).contains(&per_checkpoint),
            "{per_checkpoint} bytes per checkpoint"
        );
        let held = out
            .lines()
            .find_map(|l| l.strip_prefix("fd_shard_closed_groups_held{shard=\"0\"} "))
            .expect("per-shard gauge")
            .parse::<u64>()
            .unwrap();
        assert!(held >= 6 * 100, "{held} closed groups parked in the slot");
    }

    #[test]
    fn overload_flags_parse() {
        let cfg = CliConfig::parse([
            "--shed",
            "subsample:0.25",
            "--lag-budget",
            "8",
            "--drain-timeout",
            "5",
        ])
        .unwrap();
        assert_eq!(cfg.shed, ShedPolicy::Subsample { target_rate: 0.25 });
        assert_eq!(cfg.lag_budget, Some(8));
        assert_eq!(cfg.drain_timeout_secs, 5.0);
        let cfg = CliConfig::parse(["--shed", "drop-oldest"]).unwrap();
        assert_eq!(cfg.shed, ShedPolicy::DropOldest);
        let cfg = CliConfig::parse(Vec::<String>::new()).unwrap();
        assert_eq!(cfg.shed, ShedPolicy::Block);
        assert_eq!(cfg.lag_budget, None);
        assert_eq!(cfg.drain_timeout_secs, 30.0);
        assert!(CliConfig::parse(["--shed", "nope"]).is_err());
        assert!(CliConfig::parse(["--shed", "subsample:1.5"]).is_err());
        assert!(CliConfig::parse(["--lag-budget", "0"]).is_err());
        assert!(CliConfig::parse(["--drain-timeout", "0"]).is_err());
    }

    #[test]
    fn healthy_run_reports_clean_shutdown() {
        let cfg = CliConfig::parse([
            "--rate",
            "10000",
            "--duration",
            "2",
            "--hosts",
            "50",
            "--shards",
            "2",
            "--format",
            "stats",
        ])
        .unwrap();
        let report = try_run_report(&cfg).unwrap();
        assert!(!report.drain.deadline_expired);
        assert!(!report.data_lost_under_block());
        assert_eq!(report.drain.shed_tuples, 0);
        assert_eq!(report.degraded_shards, 0);
        let summary = report.shutdown_summary();
        assert!(summary.contains("shed_tuples=0"), "{summary}");
        assert!(!summary.contains("DATA LOST"), "{summary}");
    }

    #[test]
    fn lossy_shed_engages_sharded_executor_and_matches_block_when_healthy() {
        // With no overload pressure, DropOldest must shed nothing and the
        // rows must be identical to a Block run of the same trace.
        fn args(shed: &'static str) -> [&'static str; 12] {
            [
                "--rate",
                "10000",
                "--duration",
                "2",
                "--hosts",
                "50",
                "--shed",
                shed,
                "--format",
                "csv",
                "--limit",
                "0",
            ]
        }
        let block = try_run_report(&CliConfig::parse(args("block")).unwrap()).unwrap();
        let lossy = try_run_report(&CliConfig::parse(args("drop-oldest")).unwrap()).unwrap();
        assert_eq!(block.output, lossy.output);
        assert_eq!(lossy.drain.shed_tuples, 0, "no pressure, no sheds");
        assert!(
            !lossy.data_lost_under_block(),
            "lossy policy never trips it"
        );
    }

    #[test]
    fn subsample_is_refused_for_unscalable_aggregates() {
        let cfg = CliConfig::parse([
            "--agg",
            "count",
            "--shed",
            "subsample:0.5",
            "--duration",
            "1",
            "--rate",
            "1000",
        ])
        .unwrap();
        let err = try_run(&cfg).unwrap_err();
        assert!(
            err.contains("Horvitz-Thompson") || err.contains("shed_policy"),
            "{err}"
        );
    }

    #[test]
    fn lossy_shed_is_refused_with_durable_store() {
        let dir = std::env::temp_dir().join(format!("fdql-shed-durable-{}", std::process::id()));
        let cfg = CliConfig::parse([
            "--shed",
            "drop-oldest",
            "--data-dir",
            dir.to_str().unwrap(),
            "--duration",
            "1",
            "--rate",
            "1000",
        ])
        .unwrap();
        let err = try_run(&cfg).unwrap_err();
        assert!(
            err.contains("lossless") || err.contains("shed_policy"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_format_prints_only_counters() {
        let cfg = CliConfig::parse([
            "--format",
            "stats",
            "--rate",
            "1000",
            "--duration",
            "1",
            "--hosts",
            "10",
        ])
        .unwrap();
        let out = try_run(&cfg).expect("valid invocation");
        assert_eq!(out.lines().count(), 1);
        assert!(out.starts_with("# tuples="));
    }

    #[test]
    fn several_producers_count_every_admitted_tuple() {
        // Two producers, two shards, disorder as wide as the slack: every
        // tuple the stats line says was admitted is in the CSV counts.
        let cfg = CliConfig::parse([
            "--agg",
            "count",
            "--group",
            "dst_host",
            "--bucket",
            "5",
            "--rate",
            "40000",
            "--duration",
            "20",
            "--hosts",
            "50000",
            "--ooo",
            "2",
            "--slack",
            "2",
            "--shards",
            "2",
            "--producers",
            "2",
            "--format",
            "csv",
            "--limit",
            "0",
        ])
        .unwrap();
        let out = try_run(&cfg).expect("valid invocation");
        let (rows, stats) = out.trim_end().rsplit_once('\n').expect("rows, then stats");
        let field = |name: &str| -> u64 {
            let at = stats.find(&format!(" {name}=")).expect(name) + name.len() + 2;
            let digits = stats[at..].split(' ').next().expect(name);
            digits.parse().expect(name)
        };
        let admitted = field("tuples") - field("filtered") - field("late_drops");
        let counted: u64 = (rows.lines().skip(1))
            .map(|row| {
                row.split(',')
                    .nth(2)
                    .expect("value")
                    .parse::<u64>()
                    .expect("count")
            })
            .sum();
        assert_eq!(counted, admitted, "{stats}");
    }
}
