//! One pass of a workload through the pipeline, and the untraced run that
//! turns passes into the end-to-end metrics.
//!
//! Load model: closed loop, one client. The calling thread replays the
//! pre-generated trace in `CHUNK`-tuple offers and makes the next offer
//! when the previous call returns; under `ShedPolicy::Block` ring
//! backpressure makes the measured rate the sustainable rate. Then `drain`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::adapter::{self, Counters, Exec, Loss, Packet, Pipeline, Row, CHUNK};
use crate::measure::{self, quartiles, Quartiles};
use crate::reference::{self, Mismatch};
use crate::trace::Recorder;
use crate::workloads::Workload;

/// Whole-trace passes per run: at least this many even if `--seconds` is
/// already spent, so the quartiles always have a sample behind them.
pub const MIN_PASSES: usize = 11;

/// Set-up is repeated: one trace generation is a single sample of a
/// sub-second quantity. The first happens in this process, before any pass;
/// the repeats are spread evenly between the passes, so that a host that is
/// slow for half a minute does not slow all of them, each in a child process
/// of its own — where a user pays set-up, and where the heap garbage a
/// regenerated trace leaves behind (its `Vec` grows by doubling, and freed
/// steps stay resident) cannot reach this process's `peak_rss_mib`.
pub const SETUP_REPS: usize = 5;

/// The hidden flag that makes a child process time one set-up and print it.
pub const SETUP_PROBE_FLAG: &str = "--setup-probe";

/// How one pass is configured: the workload's own executor and store, or a
/// variation the traced run prices by difference.
#[derive(Debug, Clone, Copy)]
pub struct PassConfig {
    pub workload: Workload,
    pub exec: Exec,
    pub durable: bool,
    /// `false` = `checkpoint_every(0)`.
    pub supervised: bool,
}

impl PassConfig {
    pub fn of(workload: Workload) -> Self {
        Self {
            workload,
            exec: workload.exec,
            durable: workload.durable,
            supervised: true,
        }
    }
}

/// Wall and calling-thread CPU of one offer (traced passes only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallSample {
    pub wall_ns: u64,
    pub cpu_ns: u64,
}

/// Wall and process CPU (all threads) of one slice of a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slice {
    pub wall_ns: u64,
    pub cpu_ns: u64,
}

pub struct Pass {
    pub offered: u64,
    /// Ingest + drain, wall.
    pub wall_ns: u64,
    /// Ingest + drain, process CPU (all threads).
    pub cpu_ns: u64,
    /// Ingest + drain, CPU of the calling thread alone.
    pub caller_cpu_ns: u64,
    pub spawn_ns: u64,
    pub drain_ns: u64,
    /// Rows in canonical order.
    pub rows: Vec<Row>,
    pub digest: u64,
    pub loss: Loss,
    pub counters: Counters,
    /// Wall and process CPU of each of the workload's `slices` equal slices
    /// of the trace (fewer on a trace of fewer chunks); the last takes the
    /// drain too, and they add up to `wall_ns` and `cpu_ns`.
    pub slices: Vec<Slice>,
    /// Per-offer and per-commit samples; empty on untraced passes.
    pub offers: Vec<CallSample>,
    pub commits: Vec<CallSample>,
}

impl Pass {
    pub fn tuples_per_s(&self) -> f64 {
        self.offered as f64 / (self.wall_ns as f64 / 1e9)
    }

    pub fn cpu_ns_per_tuple(&self) -> f64 {
        self.cpu_ns as f64 / self.offered as f64
    }
}

/// Where durable stores and outputs go: `benchmark/out/`, inside the
/// checkout the binary was built in.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A fresh, not yet existing store directory under `out/` (which is
/// created if need be).
pub fn fresh_store_dir() -> Result<PathBuf, String> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    Ok(out.join(format!("store-{}-{n}", std::process::id())))
}

/// Removes a pass's store; a leftover directory is litter, not a failure.
pub fn remove_store(dir: &Path) {
    if let Err(e) = std::fs::remove_dir_all(dir) {
        eprintln!("fd-benchmark: could not remove {}: {e}", dir.display());
    }
}

/// Runs the whole trace once on a fresh engine. With a recorder the pass
/// is traced: `pass` → `spawn`, `offer`…, `commit`…, `drain`, each offer
/// and commit also sampled on the calling thread's CPU clock.
pub fn run_pass(
    cfg: &PassConfig,
    trace: &[Packet],
    mut rec: Option<&mut Recorder>,
) -> Result<Pass, String> {
    let store = cfg.durable.then(fresh_store_dir).transpose()?;
    let result = run_pass_in(cfg, trace, &mut rec, store.as_deref());
    if let Some(dir) = &store {
        remove_store(dir);
    }
    result
}

/// Runs `call` inside a span, sampled on the calling thread's CPU clock.
/// Untraced, it only runs it: the untraced pass reads no clock per chunk.
fn spanned<R>(
    rec: &mut Option<&mut Recorder>,
    name: &'static str,
    call: impl FnOnce() -> R,
) -> (R, Option<CallSample>) {
    let Some(r) = rec.as_deref_mut() else {
        return (call(), None);
    };
    let span = r.open(name);
    let (cpu, wall) = (adapter::thread_cpu(), Instant::now());
    let out = call();
    let sample = CallSample {
        wall_ns: wall.elapsed().as_nanos() as u64,
        cpu_ns: adapter::thread_cpu() - cpu,
    };
    r.close(span, sample.cpu_ns);
    (out, Some(sample))
}

fn run_pass_in(
    cfg: &PassConfig,
    trace: &[Packet],
    rec: &mut Option<&mut Recorder>,
    store: Option<&Path>,
) -> Result<Pass, String> {
    let pass_span = rec.as_deref_mut().map(|r| {
        r.next_pass();
        r.open("pass")
    });

    let t = Instant::now();
    let (spawned, _) = spanned(rec, "spawn", || {
        Pipeline::spawn(&cfg.workload.query, cfg.exec, cfg.supervised, store)
    });
    let (mut pipeline, _) = spawned?;
    let spawn_ns = t.elapsed().as_nanos() as u64;

    let (mut offers, mut commits) = (Vec::new(), Vec::new());
    let mut errored_tuples = 0u64;
    let mut position = 0u64;

    let chunks = trace.len().div_ceil(CHUNK);
    let n_slices = cfg.workload.slices.clamp(1, chunks);
    let mut slices = Vec::with_capacity(n_slices);
    let (cpu0, caller0) = (measure::process_cpu_ns(), adapter::thread_cpu());
    let t0 = Instant::now();
    let (mut slice_cpu, mut slice_t) = (cpu0, t0);
    for (i, chunk) in trace.chunks(CHUNK).enumerate() {
        // Chunk `i` opens slice `slices.len() + 1` when it is that slice's
        // first: the clocks are read twice per slice, not per chunk.
        if i * n_slices / chunks > slices.len() {
            let (cpu, t) = (measure::process_cpu_ns(), Instant::now());
            slices.push(Slice {
                wall_ns: (t - slice_t).as_nanos() as u64,
                cpu_ns: cpu - slice_cpu,
            });
            (slice_cpu, slice_t) = (cpu, t);
        }
        position += chunk.len() as u64;
        let (mut outcome, sample) = spanned(rec, "offer", || pipeline.offer(chunk));
        offers.extend(sample);
        if cfg.durable && outcome.is_ok() {
            let (committed, sample) = spanned(rec, "commit", || pipeline.commit(position));
            commits.extend(sample);
            outcome = committed;
        }
        if let Err(e) = outcome {
            eprintln!("fd-benchmark: chunk ending at {position} failed: {e}");
            errored_tuples += chunk.len() as u64;
        }
    }
    let t = Instant::now();
    let ((mut rows, mut loss), _) = spanned(rec, "drain", || pipeline.drain());
    let drain_ns = t.elapsed().as_nanos() as u64;
    let (cpu1, t1) = (measure::process_cpu_ns(), Instant::now());
    let (wall_ns, cpu_ns) = ((t1 - t0).as_nanos() as u64, cpu1 - cpu0);
    slices.push(Slice {
        wall_ns: (t1 - slice_t).as_nanos() as u64,
        cpu_ns: cpu1 - slice_cpu,
    });
    let caller_cpu_ns = adapter::thread_cpu() - caller0;
    if let (Some(r), Some(s)) = (rec.as_deref_mut(), pass_span) {
        r.close(s, 0);
    }

    loss.errored_tuples = errored_tuples;
    let counters = pipeline.counters();
    drop(pipeline); // joins the worker; outside every timed interval
    adapter::canonical(&mut rows);
    let digest = reference::digest(&rows);
    Ok(Pass {
        offered: trace.len() as u64,
        wall_ns,
        cpu_ns,
        caller_cpu_ns,
        spawn_ns,
        drain_ns,
        rows,
        digest,
        loss,
        counters,
        slices,
        offers,
        commits,
    })
}

/// Set-up as a user of the system pays it: generate the trace from the
/// seed, then construct the first engine (creating the store on the
/// durable workload). Returns the trace, the set-up time, and the resident
/// set with only the trace built.
pub fn set_up(w: &Workload, seed: u64) -> Result<(Vec<Packet>, Duration, u64), String> {
    let t = Instant::now();
    let trace = adapter::generate(&w.shape, seed);
    if trace.is_empty() {
        return Err("the generator produced an empty trace".into());
    }
    let rss_kib = measure::rss_kib();
    let store = w.durable.then(fresh_store_dir).transpose()?;
    let spawned = Pipeline::spawn(&w.query, w.exec, true, store.as_deref());
    let elapsed = t.elapsed();
    drop(spawned.map(|(p, _)| p)?);
    if let Some(dir) = &store {
        remove_store(dir);
    }
    Ok((trace, elapsed, rss_kib))
}

/// Times one set-up in a fresh child process (see `SETUP_REPS`): this
/// executable with `SETUP_PROBE_FLAG`, which prints the seconds its own
/// `set_up` took. `output()` waits for the child.
fn set_up_in_child(w: &Workload, seed: u64, quick: bool) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(&exe);
    cmd.args([
        "--workload",
        w.name,
        "--seed",
        &seed.to_string(),
        SETUP_PROBE_FLAG,
    ]);
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|_| {
            format!(
                "set-up probe failed: {}",
                String::from_utf8_lossy(&out.stderr)
            )
        })
}

/// Everything the correctness gate needs besides the passes themselves.
pub struct Gate {
    /// Rows the workload must produce, canonical: the single-threaded
    /// engine's for sharded workloads, the program's own for `Single`.
    pub reference_rows: u64,
    pub mismatch: Mismatch,
    /// Admission counters (filtered, late) that disagree with the closed
    /// form, in tuples.
    pub admission_diff: u64,
    pub oracle_groups: u64,
    pub oracle_failed: u64,
}

impl Gate {
    pub fn failed(&self) -> u64 {
        self.mismatch.total() + self.admission_diff + self.oracle_failed
    }
}

/// Referees one pass's canonical rows (see `reference`). `single` is a
/// single-threaded pass over the same trace with its rows kept, if the
/// caller has one; otherwise a sharded workload runs its own.
pub fn gate(
    w: &Workload,
    trace: &[Packet],
    pass: &Pass,
    single: Option<&Pass>,
) -> Result<Gate, String> {
    let mut g = Gate {
        reference_rows: pass.rows.len() as u64,
        mismatch: Mismatch::default(),
        admission_diff: 0,
        oracle_groups: 0,
        oracle_failed: 0,
    };
    if w.query.is_scalar() {
        let closed = reference::independent_scalar(&w.query, trace);
        g.reference_rows = closed.rows.len() as u64;
        g.mismatch += reference::compare_scalar(&pass.rows, &closed.rows);
        g.admission_diff += pass.counters.filtered.abs_diff(closed.filtered)
            + pass.counters.late_drops.abs_diff(closed.late_drops);
    }
    if w.exec != Exec::Single {
        let own;
        let single = match single {
            Some(s) => s,
            None => {
                let cfg = PassConfig {
                    exec: Exec::Single,
                    durable: false,
                    ..PassConfig::of(*w)
                };
                own = run_pass(&cfg, trace, None)?;
                &own
            }
        };
        g.reference_rows = single.rows.len() as u64;
        g.mismatch += reference::compare_exact(&pass.rows, &single.rows);
    }
    if !w.query.is_scalar() {
        (g.oracle_groups, g.oracle_failed) =
            reference::check_quantiles(&w.query, trace, &pass.rows);
    }
    Ok(g)
}

/// A metric's reported value with the quartiles of the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sampled {
    pub value: f64,
    pub q: Quartiles,
}

impl Sampled {
    /// The median of the samples: for a quantity the host's interference
    /// does not push one way (memory).
    fn median(samples: &[f64]) -> Self {
        let q = quartiles(samples);
        Self { value: q.median, q }
    }

    /// The best sample: for set-up, which is one piece of work. Interference
    /// on a shared host only ever slows the program, so the fastest
    /// observation is the closest to the program's own speed. The quartiles
    /// still describe every sample.
    fn best(samples: &[f64]) -> Self {
        let best = samples.iter().copied().reduce(f64::min);
        Self {
            value: best.expect("at least one sample"),
            q: quartiles(samples),
        }
    }

    /// A pass's time with the host's interference taken out, as far as one
    /// run can: the sum, over the slices of a pass, of the fastest
    /// observation of that slice in any pass (`pick` chooses wall or CPU),
    /// turned into the metric by `to_value`.
    ///
    /// The host is a 2-vCPU guest whose neighbours slow it by up to 2× in
    /// phases of a second to a minute (the same 8 M loads from an
    /// L2-resident array took 42–218 ms, a register-only loop 19.7 or
    /// 25 ms), so whole passes of one build differ by 2×, and a pass of a
    /// second seldom fits inside a quiet phase: the best whole pass of an
    /// 18-s run still wandered by 25 % between runs. A slice of 50 ms does
    /// fit, and every pass does identical work in slice `k` (same trace,
    /// fresh engine, count-driven checkpoints), so slice `k` needs one quiet
    /// moment in the whole run, not the whole pass one. Over ten seeds this
    /// narrowed the spread between runs by a quarter to a half against the
    /// best whole pass. The quartiles are those of the whole passes.
    fn floor(
        passes: &[Vec<Slice>],
        pick: fn(&Slice) -> u64,
        whole: &[f64],
        to_value: impl Fn(f64) -> f64,
    ) -> Self {
        Self {
            value: to_value(floor_ns(passes, pick) as f64),
            q: quartiles(whole),
        }
    }
}

/// Sum over slice positions of the smallest `pick` any pass has there.
fn floor_ns(passes: &[Vec<Slice>], pick: fn(&Slice) -> u64) -> u64 {
    let n = passes.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .filter_map(|k| passes.iter().map(|p| pick(&p[k])).min())
        .sum()
}

/// The end-to-end result of one workload.
pub struct EndToEnd {
    pub tuples_per_s: Sampled,
    pub cpu_ns_per_tuple: Sampled,
    pub peak_rss_mib: Sampled,
    pub setup_s: Sampled,
    pub passes: usize,
    pub offered_per_pass: u64,
    pub attempted: u64,
    pub failed: u64,
    pub gate: Gate,
    /// Whether the kernel let the resident-set high-water mark be reset
    /// before each pass. If not, `peak_rss_mib` is one reading over all
    /// passes — the worst pass's peak, or set-up's if that was higher.
    pub rss_per_pass: bool,
}

/// Counts every run of a trace against one reference digest: what the
/// full gate (run on one pass's rows only) does not see. A differing digest
/// is at least one wrong row, and without the rows every reference row
/// counts; on top, whatever each pass lost.
pub struct Tally {
    reference_digest: u64,
    runs: u64,
    mismatched: u64,
    lost: u64,
}

impl Tally {
    pub fn against(reference_digest: u64) -> Self {
        Self {
            reference_digest,
            runs: 0,
            mismatched: 0,
            lost: 0,
        }
    }

    pub fn check(&mut self, pass: &Pass) {
        self.check_digest(pass.digest);
        self.lost += pass.loss.tuples() + pass.counters.tuples_in.abs_diff(pass.offered);
    }

    pub fn check_digest(&mut self, digest: u64) {
        self.runs += 1;
        if digest != self.reference_digest {
            self.mismatched += 1;
        }
    }

    /// `(attempted, failed)` over every run counted, given the gate's
    /// verdict on the one pass it saw in full.
    pub fn totals(&self, gate: &Gate, offered: u64) -> (u64, u64) {
        (
            self.runs * (gate.reference_rows + offered),
            gate.failed() + self.mismatched * gate.reference_rows.max(1) + self.lost,
        )
    }
}

/// The untraced run: a first set-up, one discarded warm-up pass, then timed
/// passes on a fresh engine each until `seconds` of timed work (never fewer
/// than `MIN_PASSES`) with the remaining set-ups spread between them, then
/// the gate on the last pass's rows. `quick` only tells the set-up probes
/// which trace `w` is.
pub fn run_untraced(
    w: &Workload,
    seed: u64,
    seconds: f64,
    quick: bool,
) -> Result<EndToEnd, String> {
    let (trace, first, baseline_kib) = set_up(w, seed)?;
    let mut setups = vec![first.as_secs_f64()];

    let cfg = PassConfig::of(*w);
    let warm_up = run_pass(&cfg, &trace, None)?;
    // Every pass must produce the warm-up's rows, bit for bit — including
    // the last one, whose rows the gate then referees in full.
    let mut tally = Tally::against(warm_up.digest);
    tally.check(&warm_up);
    drop(warm_up);

    let (mut rates, mut cpus, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    let mut slices = Vec::new();
    let mut rss_per_pass = true;
    let mut timed = Duration::ZERO;
    let budget = Duration::from_secs_f64(seconds);
    let mut last: Option<Pass> = None;
    while timed < budget || rates.len() < MIN_PASSES {
        drop(last.take()); // rows of the previous pass go before the next starts
        let due = budget.mul_f64(setups.len() as f64 / SETUP_REPS as f64);
        if setups.len() < SETUP_REPS && timed >= due {
            setups.push(set_up_in_child(w, seed, quick)?);
        }
        rss_per_pass &= measure::reset_rss_peak();
        let pass = run_pass(&cfg, &trace, None)?;
        peaks.push(measure::rss_peak_kib().saturating_sub(baseline_kib) as f64 / 1024.0);
        timed += Duration::from_nanos(pass.wall_ns);
        rates.push(pass.tuples_per_s());
        cpus.push(pass.cpu_ns_per_tuple());
        slices.push(pass.slices.clone());
        tally.check(&pass);
        last = Some(pass);
    }
    if !rss_per_pass {
        // The mark was never reset: every reading is the running maximum,
        // and only the last one means anything.
        peaks.drain(..peaks.len() - 1);
    }
    let last = last.expect("MIN_PASSES is at least one");
    while setups.len() < SETUP_REPS {
        // More than MIN_PASSES' worth of budget per pass: catch up.
        setups.push(set_up_in_child(w, seed, quick)?);
    }

    let gate = gate(w, &trace, &last, None)?;
    let (attempted, failed) = tally.totals(&gate, last.offered);
    let offered = last.offered as f64;
    Ok(EndToEnd {
        tuples_per_s: Sampled::floor(&slices, |s| s.wall_ns, &rates, |ns| offered / (ns / 1e9)),
        cpu_ns_per_tuple: Sampled::floor(&slices, |s| s.cpu_ns, &cpus, |ns| ns / offered),
        peak_rss_mib: Sampled::median(&peaks),
        setup_s: Sampled::best(&setups),
        passes: rates.len(),
        offered_per_pass: last.offered,
        attempted,
        failed,
        gate,
        rss_per_pass,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn floor_adds_up_each_slices_fastest_observation() {
        let s = |wall_ns, cpu_ns| Slice { wall_ns, cpu_ns };
        let passes = vec![
            vec![s(10, 7), s(40, 9), s(30, 30)],
            vec![s(20, 5), s(15, 15), s(35, 20)],
        ];
        assert_eq!(floor_ns(&passes, |s| s.wall_ns), 10 + 15 + 30);
        assert_eq!(floor_ns(&passes, |s| s.cpu_ns), 5 + 9 + 20);
        // One pass: its own total. A slower repeat of it changes nothing.
        assert_eq!(floor_ns(&passes[..1], |s| s.wall_ns), 80);
        let mut slower = passes.clone();
        slower.push(vec![s(100, 100), s(100, 100), s(100, 100)]);
        assert_eq!(floor_ns(&slower, |s| s.wall_ns), 55);
        let rate = Sampled::floor(&passes, |s| s.wall_ns, &[1.0, 2.0], |ns| 1e9 / ns);
        assert_eq!((rate.value, rate.q.n), (1e9 / 55.0, 2));
    }

    #[test]
    fn a_pass_is_cut_into_the_workloads_slices_and_they_add_up() {
        let w = workloads::find("fig2_scalar").unwrap().quick();
        let trace = adapter::generate(&w.shape, 7);
        for slices in [1, 5, 16, usize::MAX] {
            let cfg = PassConfig::of(workloads::Workload { slices, ..w });
            let pass = run_pass(&cfg, &trace, None).unwrap();
            assert_eq!(pass.slices.len(), slices.min(trace.len().div_ceil(CHUNK)));
            let sum = |pick: fn(&Slice) -> u64| pass.slices.iter().map(pick).sum::<u64>();
            assert_eq!(sum(|s| s.wall_ns), pass.wall_ns);
            assert_eq!(sum(|s| s.cpu_ns), pass.cpu_ns);
        }
    }
}
