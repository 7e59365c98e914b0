//! The traced run: the per-layer ledger, timed from outside.
//!
//! Three kinds of measurement feed it. Spans around every call of a traced
//! pass (`pass` → `spawn`, `offer`…, `commit`…, `drain`; for the
//! single-threaded split, `pass` → `update`, `close`, `emit` per bucket).
//! Whole passes of a varied configuration, priced by difference against
//! the workload's own (`checkpoint_every(0)`, no store, classic
//! dispatcher). And micro-loops that drive one module's public functions
//! directly. End-to-end metrics never come from this run.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::adapter::{self, Exec, Packet, Pipeline, CHUNK};
use crate::json::Json;
use crate::measure::{median, percentile, top_percentile};
use crate::metrics::PER_LAYER;
use crate::reference;
use crate::run::{self, gate, run_pass, Gate, Pass, PassConfig, Tally};
use crate::trace::{self, Recorder};
use crate::workloads::Workload;

/// Passes of each varied configuration (and of the single-threaded
/// baseline): a median needs three.
const VARIANT_PASSES: usize = 3;

/// Share of `--seconds` spent on the interleaved traced/untraced passes.
const PASS_SHARE: f64 = 0.3;

/// Cap on traced/untraced pairs: on a workload whose pass takes tens of
/// milliseconds the time share alone would record tens of thousands of spans.
const MAX_PAIRS: usize = 12;

pub struct Traced {
    /// Every `PER_LAYER` metric, in that order.
    pub ledger: Vec<(&'static str, f64)>,
    pub traced_passes: usize,
    pub attempted: u64,
    pub failed: u64,
    pub gate: Gate,
    /// The percentile actually reported under the `*_p99` names: p99 when
    /// the sample supports it, else the highest that does.
    pub tail_percentile: f64,
    pub spans: Json,
}

/// Collects ledger entries by name; unknown names are a bug here, caught
/// when the ledger is laid out against `PER_LAYER`.
#[derive(Default)]
struct Ledger(BTreeMap<&'static str, f64>);

impl Ledger {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    fn finish(self) -> Vec<(&'static str, f64)> {
        for name in self.0.keys() {
            assert!(
                PER_LAYER.iter().any(|m| m.name == *name),
                "'{name}' is not a per-layer metric"
            );
        }
        PER_LAYER
            .iter()
            .map(|m| (m.name, self.0.get(m.name).copied().unwrap_or(0.0)))
            .collect()
    }
}

fn per_tuple(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(
        &passes
            .iter()
            .map(|p| f(p) / p.offered as f64)
            .collect::<Vec<_>>(),
    )
}

fn wall_per_tuple(passes: &[Pass]) -> f64 {
    per_tuple(passes, |p| p.wall_ns as f64)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// `VARIANT_PASSES` passes of a varied configuration, rows dropped (all
/// but the first pass's with `keep_first`). A variant's rows must still be
/// the reference's: the knobs change cost, not output.
fn variant(
    cfg: PassConfig,
    trace: &[Packet],
    tally: &mut Tally,
    mut rec: Option<&mut Recorder>,
    keep_first: bool,
) -> Result<Vec<Pass>, String> {
    let mut passes = Vec::with_capacity(VARIANT_PASSES);
    for i in 0..VARIANT_PASSES {
        let mut p = run_pass(&cfg, trace, rec.as_deref_mut())?;
        tally.check(&p);
        if !(keep_first && i == 0) {
            p.rows = Vec::new();
        }
        passes.push(p);
    }
    Ok(passes)
}

/// Drops a durable engine after its last commit without draining it (the
/// crash), reopens the store, re-feeds the stream from the position the
/// store reports — the newest commit that reached it — and drains: how long
/// recovery takes, how much it replays, and whether a recovered run still
/// produces the uninterrupted run's rows.
fn recovery_probe(w: &Workload, trace: &[Packet]) -> Result<(Duration, u64, u64), String> {
    let dir = run::fresh_store_dir()?;
    let feed = |p: &mut Pipeline, from: usize| -> Result<(), String> {
        let mut position = from as u64;
        for chunk in trace[from..].chunks(CHUNK) {
            position += chunk.len() as u64;
            p.offer(chunk)?;
            p.commit(position)?;
        }
        Ok(())
    };
    let probe = || -> Result<(Duration, u64, u64), String> {
        let (mut p, _) = Pipeline::spawn(&w.query, w.exec, true, Some(&dir))?;
        feed(&mut p, 0)?;
        drop(p);
        let t = Instant::now();
        let (mut p, recovery) = Pipeline::spawn(&w.query, w.exec, true, Some(&dir))?;
        let took = t.elapsed();
        let resume = recovery.position as usize;
        if !recovery.resumed || resume > trace.len() {
            return Err(format!(
                "store reopened at position {resume} (resumed: {}) of {}",
                recovery.resumed,
                trace.len()
            ));
        }
        feed(&mut p, resume)?;
        let (mut rows, loss) = p.drain();
        if loss.tuples() > 0 {
            return Err(format!("recovered engine lost data: {loss:?}"));
        }
        adapter::canonical(&mut rows);
        Ok((took, recovery.replayed_tuples, reference::digest(&rows)))
    };
    let out = probe();
    run::remove_store(&dir);
    out
}

/// shard, supervisor, spsc, trace: what the spans and counters of the
/// workload's own passes say. Returns the percentile reported as `*_p99`.
fn pass_layers(ledger: &mut Ledger, traced: &[Pass], untraced: &[Pass], rec: &Recorder) -> f64 {
    ledger.set(
        "shard.dispatch_cpu_ns_per_tuple",
        per_tuple(traced, offer_cpu),
    );
    ledger.set(
        "shard.offer_wait_ns_per_tuple",
        per_tuple(traced, |p| {
            let waited = p.offers.iter().map(|o| o.wall_ns.saturating_sub(o.cpu_ns));
            waited.sum::<u64>() as f64
        }),
    );
    let offer_us = pooled_us(traced, |p| &p.offers);
    let tail = top_percentile(offer_us.len()).min(99.0);
    ledger.set("shard.offer_us_p50", percentile(&offer_us, 50.0));
    ledger.set("shard.offer_us_p99", percentile(&offer_us, tail));
    ledger.set("shard.offer_us_max", percentile(&offer_us, 100.0));
    ledger.set(
        "shard.worker_cpu_ns_per_tuple",
        per_tuple(traced, |p| p.cpu_ns.saturating_sub(p.caller_cpu_ns) as f64),
    );
    let med = |f: fn(&Pass) -> u64| median(&traced.iter().map(|p| ms(f(p))).collect::<Vec<_>>());
    ledger.set("shard.drain_ms", med(|p| p.drain_ns));
    ledger.set("shard.spawn_ms", med(|p| p.spawn_ns));
    let c = traced[traced.len() - 1].counters;
    ledger.set("shard.tuples_in", c.tuples_in as f64);
    ledger.set("shard.filtered", c.filtered as f64);
    ledger.set("shard.late_drops", c.late_drops as f64);
    ledger.set("shard.rows_out", c.rows_out as f64);
    ledger.set("shard.buckets_closed", c.buckets_closed as f64);
    ledger.set("shard.batches_sent", c.batches_sent as f64);
    ledger.set("shard.restarts", c.restarts as f64);
    ledger.set("shard.shed_tuples", c.shed_tuples as f64);
    ledger.set("supervisor.checkpoints", c.checkpoints as f64);
    ledger.set(
        "supervisor.checkpoint_cpu_ns_per_tuple",
        per_tuple(traced, |p| p.counters.checkpoint_ns as f64),
    );
    if c.pool_reuses + c.pool_allocs > 0 {
        ledger.set(
            "spsc.pool_reuse_share",
            c.pool_reuses as f64 / (c.pool_reuses + c.pool_allocs) as f64,
        );
    }

    // Do the layers sum to the total, and what did tracing cost?
    ledger.set(
        "trace.coverage_share",
        trace::coverage_share(rec.spans(), "pass"),
    );
    let wall_untraced = wall_per_tuple(untraced);
    ledger.set(
        "trace.overhead_pct",
        100.0 * (wall_per_tuple(traced) - wall_untraced) / wall_untraced,
    );
    ledger.set("trace.traced_passes", traced.len() as f64);
    ledger.set("trace.untraced_passes", untraced.len() as f64);
    tail
}

/// Calling-thread CPU summed over a pass's offer spans.
fn offer_cpu(p: &Pass) -> f64 {
    p.offers.iter().map(|o| o.cpu_ns).sum::<u64>() as f64
}

/// Wall microseconds of every call of one kind, pooled over the passes
/// and sorted ascending.
fn pooled_us(passes: &[Pass], calls: fn(&Pass) -> &Vec<run::CallSample>) -> Vec<f64> {
    let mut us: Vec<f64> = passes
        .iter()
        .flat_map(|p| calls(p).iter().map(|c| c.wall_ns as f64 / 1e3))
        .collect();
    us.sort_by(f64::total_cmp);
    us
}

/// supervisor, durability, shard: whole passes of a varied configuration,
/// priced by difference against the workload's own untraced passes.
fn variant_layers(
    ledger: &mut Ledger,
    w: &Workload,
    trace: &[Packet],
    tally: &mut Tally,
    wall_untraced: f64,
) -> Result<(), String> {
    let Exec::Sharded { producers } = w.exec else {
        return Ok(());
    };
    let own = PassConfig::of(*w);
    // Default supervision against checkpoint_every(0). A store needs
    // supervision, so the durable workload prices it on its store-less twin.
    let bare = PassConfig {
        durable: false,
        ..own
    };
    let unsupervised = PassConfig {
        supervised: false,
        ..bare
    };
    let unsupervised = variant(unsupervised, trace, tally, None, false)?;
    let supervised_wall = if w.durable {
        let storeless = wall_per_tuple(&variant(bare, trace, tally, None, false)?);
        // The same pass with and without the store.
        ledger.set("durability.tax_ns_per_tuple", wall_untraced - storeless);
        storeless
    } else {
        wall_untraced
    };
    ledger.set(
        "supervisor.tax_ns_per_tuple",
        supervised_wall - wall_per_tuple(&unsupervised),
    );

    // The same input through the classic dispatcher, for the
    // fabric-vs-classic gap that gates ROADMAP item 1.
    if producers > 0 {
        let classic = PassConfig {
            exec: Exec::Sharded { producers: 0 },
            ..own
        };
        let mut scratch = Recorder::new();
        let classic = variant(classic, trace, tally, Some(&mut scratch), false)?;
        ledger.set(
            "shard.classic_dispatch_cpu_ns_per_tuple",
            per_tuple(&classic, offer_cpu),
        );
    }
    Ok(())
}

/// durability: the commit spans, the WAL counters, and a crash-and-reopen.
fn durability_layers(
    ledger: &mut Ledger,
    w: &Workload,
    trace: &[Packet],
    traced: &[Pass],
    tail: f64,
    tally: &mut Tally,
) -> Result<(), String> {
    let commit_us = pooled_us(traced, |p| &p.commits);
    ledger.set("durability.commit_us_p50", percentile(&commit_us, 50.0));
    ledger.set("durability.commit_us_p99", percentile(&commit_us, tail));
    ledger.set(
        "durability.commit_ns_per_tuple",
        per_tuple(traced, |p| {
            p.commits.iter().map(|c| c.wall_ns).sum::<u64>() as f64
        }),
    );
    ledger.set(
        "durability.wal_bytes_per_tuple",
        per_tuple(traced, |p| p.counters.wal_bytes as f64),
    );
    ledger.set(
        "durability.checkpoints_persisted",
        traced[traced.len() - 1].counters.checkpoints_persisted as f64,
    );
    let (took, replayed, digest) = recovery_probe(w, trace)?;
    tally.check_digest(digest);
    ledger.set("durability.recover_ms", ms(took.as_nanos() as u64));
    ledger.set("durability.replayed_tuples", replayed as f64);
    Ok(())
}

/// engine, lfta, aggregators, core, spsc: one module's public functions
/// driven directly. These want an in-order trace — every tuple of a bucket
/// before the first of the next — so an out-of-order workload's is sorted.
fn direct_layers(
    ledger: &mut Ledger,
    w: &Workload,
    trace: &[Packet],
    rec: &mut Recorder,
    tally: &mut Tally,
    micro: Duration,
) -> Result<(), String> {
    let in_order_input = w.shape.ooo_jitter_secs == 0.0;
    let sorted;
    let in_order: &[Packet] = if in_order_input {
        trace
    } else {
        let mut s = trace.to_vec();
        s.sort_by_key(|p| p.ts);
        sorted = s;
        &sorted
    };

    let (mut split_rows, split) = adapter::engine_split_pass(&w.query, in_order, rec)?;
    if in_order_input {
        // Same input as the passes, so the same rows.
        adapter::canonical(&mut split_rows);
        tally.check_digest(reference::digest(&split_rows));
    }
    drop(split_rows);
    ledger.set(
        "engine.update_ns_per_tuple",
        split.update_ns as f64 / split.tuples as f64,
    );
    ledger.set(
        "engine.close_ns_per_group",
        split.close_ns as f64 / split.groups_closed.max(1) as f64,
    );
    ledger.set(
        "engine.emit_ns_per_row",
        split.emit_ns as f64 / split.rows.max(1) as f64,
    );
    ledger.set(
        "engine.groups_per_bucket",
        split.groups_closed as f64 / split.buckets.max(1) as f64,
    );
    ledger.set("engine.space_bytes_peak", split.space_bytes_peak as f64);

    let (mut resumed_rows, ckpt) = adapter::engine_checkpoint_roundtrip(&w.query, trace)?;
    adapter::canonical(&mut resumed_rows);
    tally.check_digest(reference::digest(&resumed_rows));
    drop(resumed_rows);
    ledger.set("engine.checkpoint_ms", ms(ckpt.checkpoint_ns));
    ledger.set("engine.checkpoint_bytes", ckpt.bytes as f64);
    ledger.set("engine.restore_ms", ms(ckpt.restore_ns));

    if let Some(l) = adapter::lfta_drive(&w.query, in_order)? {
        ledger.set(
            "lfta.update_ns_per_tuple",
            l.update_ns as f64 / l.updates.max(1) as f64,
        );
        ledger.set(
            "lfta.eviction_share",
            l.evictions as f64 / l.updates.max(1) as f64,
        );
        ledger.set(
            "lfta.flush_ns_per_partial",
            l.flush_ns as f64 / l.partials_flushed.max(1) as f64,
        );
    }

    // Admitted tuples of the first bucket, at most 64k.
    let bm = w.query.bucket_micros();
    let bucket0: Vec<Packet> = in_order
        .iter()
        .take_while(|p| p.ts < bm)
        .filter(|p| w.query.admits(p))
        .take(1 << 16)
        .copied()
        .collect();
    if bucket0.is_empty() {
        return Err("the first bucket admits no tuple".into());
    }
    let a = adapter::aggregator_cost(&w.query, &bucket0, micro);
    ledger.set("aggregators.make_ns", a.make_ns);
    ledger.set("aggregators.update_ns_per_tuple", a.update_ns_per_tuple);
    ledger.set("aggregators.merge_ns", a.merge_ns);
    ledger.set("aggregators.emit_ns", a.emit_ns);
    let s = adapter::summary_cost(&w.query, &bucket0, micro);
    ledger.set("core.summary_scalar_ns_per_tuple", s.scalar_ns_per_tuple);
    ledger.set("core.summary_batch_ns_per_tuple", s.batch_ns_per_tuple);

    if w.exec != Exec::Single {
        let s = adapter::spsc_cost(micro);
        ledger.set("spsc.ring_hop_ns_per_batch", s.ring_hop_ns_per_batch);
        ledger.set("spsc.pool_cycle_ns", s.pool_cycle_ns);
    }
    Ok(())
}

/// cli: the same flags through fdql itself, generation included. Returns
/// whether its counters could be checked against the benchmark's, and
/// whether they disagreed.
fn cli_layer(
    ledger: &mut Ledger,
    w: &Workload,
    seed: u64,
    counters: &adapter::Counters,
) -> Result<(bool, bool), String> {
    let mut flags = w.query.fdql_flags(&w.shape, seed);
    if let Exec::Sharded { producers } = w.exec {
        flags.extend(["--shards".into(), "1".into()]);
        if producers > 0 {
            flags.extend(["--producers".into(), producers.to_string()]);
        }
    }
    let store = w.durable.then(run::fresh_store_dir).transpose()?;
    if let Some(dir) = &store {
        flags.extend(["--data-dir".into(), dir.display().to_string()]);
    }
    let t = Instant::now();
    let fdql = adapter::run_fdql(&flags);
    let fdql_ns = t.elapsed().as_nanos() as f64;
    if let Some(dir) = &store {
        run::remove_store(dir);
    }
    let fdql = fdql?;
    ledger.set("cli.fdql_ns_per_tuple", fdql_ns / fdql.tuples.max(1) as f64);
    // fdql exposes no --tcp-fraction: its trace is the workload's only where
    // the workload keeps the generator's default mix.
    let checkable = w.shape.tcp_fraction == 0.85;
    let c = counters;
    let same = (fdql.tuples, fdql.filtered, fdql.rows, fdql.late_drops)
        == (c.tuples_in, c.filtered, c.rows_out, c.late_drops);
    if checkable && !same {
        eprintln!("fd-benchmark: fdql counted {fdql:?}, the benchmark {c:?}");
    }
    Ok((checkable, checkable && !same))
}

/// The traced run of one workload. `micro` is the floor on each
/// micro-loop's duration.
pub fn run_traced(
    w: &Workload,
    seed: u64,
    seconds: f64,
    micro: Duration,
) -> Result<Traced, String> {
    let mut ledger = Ledger::default();
    let mut rec = Recorder::new();

    // gen
    let t = Instant::now();
    let trace = adapter::generate(&w.shape, seed);
    let gen_ns = t.elapsed().as_nanos() as f64;
    if trace.is_empty() {
        return Err("the generator produced an empty trace".into());
    }
    ledger.set("gen.ns_per_tuple", gen_ns / trace.len() as f64);
    ledger.set("gen.tuples", trace.len() as f64);

    // The workload's own configuration: one discarded warm-up, then traced
    // and untraced passes interleaved so drift hits both alike. One pass's
    // rows are kept for the gate; of the rest only their digests.
    let own = PassConfig::of(*w);
    drop(run_pass(&own, &trace, None)?);
    let (mut traced, mut untraced): (Vec<Pass>, Vec<Pass>) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds * PASS_SHARE);
    while traced.len() < VARIANT_PASSES || (started.elapsed() < budget && traced.len() < MAX_PAIRS)
    {
        let mut t = run_pass(&own, &trace, Some(&mut rec))?;
        let mut u = run_pass(&own, &trace, None)?;
        if !traced.is_empty() {
            t.rows = Vec::new();
        }
        u.rows = Vec::new();
        traced.push(t);
        untraced.push(u);
    }
    let mut tally = Tally::against(traced[0].digest);
    for p in traced.iter().chain(&untraced) {
        tally.check(p);
    }

    // engine: the single-threaded baseline — also the gate's referee for a
    // sharded workload. On the single-threaded workload it is the workload.
    let mut singles = if w.exec == Exec::Single {
        Vec::new()
    } else {
        let single = PassConfig {
            exec: Exec::Single,
            durable: false,
            ..own
        };
        variant(single, &trace, &mut tally, None, true)?
    };
    ledger.set(
        "engine.single_ns_per_tuple",
        wall_per_tuple(if singles.is_empty() {
            &untraced
        } else {
            &singles
        }),
    );
    let gate = gate(w, &trace, &traced[0], singles.first())?;
    traced[0].rows = Vec::new();
    singles.clear();

    let tail = pass_layers(&mut ledger, &traced, &untraced, &rec);
    variant_layers(
        &mut ledger,
        w,
        &trace,
        &mut tally,
        wall_per_tuple(&untraced),
    )?;
    if w.durable {
        durability_layers(&mut ledger, w, &trace, &traced, tail, &mut tally)?;
    }
    direct_layers(&mut ledger, w, &trace, &mut rec, &mut tally, micro)?;
    let counters = traced[traced.len() - 1].counters;
    let (fdql_checked, fdql_disagrees) = cli_layer(&mut ledger, w, seed, &counters)?;

    ledger.set("trace.spans", rec.spans().len() as f64);
    let selfs = trace::self_times(rec.spans());
    let spans = Json::Arr(
        rec.spans()
            .iter()
            .zip(&selfs)
            .map(|(s, own)| {
                Json::obj([
                    ("name", Json::Str(s.name.into())),
                    ("pass", Json::Num(s.pass as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("self_ns", Json::Num(*own as f64)),
                    ("cpu_ns", Json::Num(s.cpu_ns as f64)),
                ])
            })
            .collect(),
    );
    let (attempted, failed) = tally.totals(&gate, trace.len() as u64);
    Ok(Traced {
        ledger: ledger.finish(),
        traced_passes: traced.len(),
        attempted: attempted + u64::from(fdql_checked),
        failed: failed + u64::from(fdql_disagrees),
        gate,
        tail_percentile: tail,
        spans,
    })
}
