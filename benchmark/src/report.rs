//! The one result schema, and `compare`.
//!
//! Every JSON file the benchmark writes is one `fd-benchmark/1` document:
//! where and how it was measured (git sha, rustc, core count, seed, run
//! length, the filesystem under the data dir), then one entry per workload
//! run with its pass counts, its gate and its metrics. `compare` reads two
//! of them.

use std::path::Path;
use std::process::Command;

use crate::json::Json;
use crate::measure::{self, Quartiles};
use crate::metrics::{self, Better, MetricDef};

pub const SCHEMA: &str = "fd-benchmark/1";

/// Where and how a document was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Env {
    pub git_sha: String,
    pub rustc: String,
    pub nproc: usize,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub data_dir_fs: String,
}

/// First line of a command's stdout, or "unknown" (no git in an exported
/// checkout; that is fine). `output()` waits for the child.
fn first_line(program: &str, args: &[&str], cwd: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

impl Env {
    pub fn detect(seed: u64, seconds: f64, quick: bool, out_dir: &Path) -> Self {
        let package = Path::new(env!("CARGO_MANIFEST_DIR"));
        // The data dir may not exist yet; its parent's filesystem is its own.
        let probe = [out_dir, package]
            .into_iter()
            .find(|p| p.exists())
            .unwrap_or(package);
        Self {
            git_sha: first_line("git", &["rev-parse", "HEAD"], package),
            rustc: first_line("rustc", &["-V"], package),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            seed,
            seconds,
            quick,
            data_dir_fs: measure::fs_type(probe),
        }
    }

    /// Dispatcher plus one worker need two cores; with fewer the threads
    /// time-share one and every wall-clock number is a scheduling artefact.
    pub fn core_bound(&self) -> bool {
        self.nproc < 2
    }

    /// Whether fsync on the data dir reaches a disk at all.
    pub fn fs_note(&self) -> &'static str {
        match self.data_dir_fs.as_str() {
            "tmpfs" | "ramfs" => "memory-backed: fsync is a no-op, not disk behaviour",
            "overlay" | "overlayfs" => "overlay: fsync cost is the upper layer's, not a raw disk's",
            "unknown" => "filesystem unknown: fsync numbers are unlabelled",
            _ => "block-backed filesystem",
        }
    }

    fn fields(&self) -> Vec<(String, Json)> {
        [
            ("schema", Json::Str(SCHEMA.into())),
            ("git_sha", Json::Str(self.git_sha.clone())),
            ("rustc", Json::Str(self.rustc.clone())),
            ("nproc", Json::Num(self.nproc as f64)),
            ("core_bound", Json::Bool(self.core_bound())),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("quick", Json::Bool(self.quick)),
            ("data_dir_fs", Json::Str(self.data_dir_fs.clone())),
            ("data_dir_fs_note", Json::Str(self.fs_note().into())),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }
}

/// One metric as measured: the reported value, with the quartiles and count
/// of the samples behind it (a single reading is its own quartiles).
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub q: Quartiles,
}

impl Measured {
    pub fn single(def: &MetricDef, value: f64) -> Self {
        let q = Quartiles {
            q1: value,
            median: value,
            q3: value,
            n: 1,
        };
        Self::sampled(def, value, q)
    }

    pub fn sampled(def: &MetricDef, value: f64, q: Quartiles) -> Self {
        Self {
            name: def.name,
            unit: def.unit,
            value,
            q,
        }
    }
}

/// One workload's run, traced or not.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadRun {
    pub workload: String,
    pub traced: bool,
    pub passes: usize,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Measured>,
    /// Free-form facts worth keeping beside the numbers.
    pub notes: Vec<(String, Json)>,
}

impl WorkloadRun {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, each metric exactly `value` and `unit`.
    pub fn contract_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.to_string(),
                                Json::obj([
                                    ("value", Json::Num(m.value)),
                                    ("unit", Json::Str(m.unit.into())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .render()
    }

    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("workload".to_string(), Json::Str(self.workload.clone())),
            ("traced".into(), Json::Bool(self.traced)),
            ("passes".into(), Json::Num(self.passes as f64)),
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            (
                "failed_share".into(),
                Json::Num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
        ];
        fields.extend(self.notes.iter().cloned());
        fields.push((
            "metrics".into(),
            Json::Obj(
                self.metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            Json::obj([
                                ("value", Json::Num(m.value)),
                                ("unit", Json::Str(m.unit.into())),
                                ("q1", Json::Num(m.q.q1)),
                                ("median", Json::Num(m.q.median)),
                                ("q3", Json::Num(m.q.q3)),
                                ("n", Json::Num(m.q.n as f64)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ));
        Json::Obj(fields)
    }

    /// The human-readable table printed above the contract line.
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} ({}): {} passes, attempted {}, failed {} (share {:e})",
            self.workload,
            if self.traced { "traced" } else { "untraced" },
            self.passes,
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
        );
        for m in &self.metrics {
            let _ = write!(out, "  {:<42} {:>16.4} {:<6}", m.name, m.value, m.unit);
            if m.q.n > 1 {
                let _ = write!(
                    out,
                    " q1 {:.4} median {:.4} q3 {:.4} n {}",
                    m.q.q1, m.q.median, m.q.q3, m.q.n
                );
            }
            out.push('\n');
        }
        out
    }
}

/// Renders a whole document: the environment, then the runs.
pub fn document(env: &Env, runs: &[Json]) -> Json {
    let mut fields = env.fields();
    fields.push(("runs".into(), Json::Arr(runs.to_vec())));
    Json::Obj(fields)
}

/// The `runs` array of a parsed document.
pub fn runs_of(doc: &Json) -> Result<&[Json], String> {
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("not a {SCHEMA} document"));
    }
    match doc.get("runs") {
        Some(Json::Arr(runs)) => Ok(runs),
        _ => Err("document has no 'runs'".into()),
    }
}

// ---------------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The spread of the medians is wider than the bound: the pair cannot
    /// be told apart from noise, so it is neither unchanged nor regressed.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A metric as read back from a document.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub q: Quartiles,
}

/// How far a run's reported value is expected to wander between runs, as a
/// share of it, judged from inside the run: the interquartile spread of the
/// per-pass samples shrunk by √n (the standard error of a median is
/// ≈ 0.93·IQR/√n for roughly normal samples). It cannot see what hits a
/// whole run alike — a host that is slow for a minute — so it is a floor.
pub fn run_spread(r: &Reading) -> f64 {
    r.q.spread() / (r.q.n.max(1) as f64).sqrt()
}

/// `b` against baseline `a`: regressed when it is worse by more than the
/// bound and by more than the noise; unresolved when the noise alone is
/// wider than the bound; otherwise ok.
pub fn verdict(def: &MetricDef, a: &Reading, b: &Reading) -> Verdict {
    let worse_by = match def.better {
        Better::Higher => (a.value - b.value) / a.value.abs(),
        Better::Lower => (b.value - a.value) / a.value.abs(),
    };
    let spread = run_spread(a).max(run_spread(b));
    if worse_by > def.bound && worse_by > spread {
        Verdict::Regressed
    } else if spread > def.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct CompareRow {
    pub workload: String,
    pub metric: &'static str,
    pub a: Reading,
    pub b: Reading,
    pub verdict: Verdict,
}

fn reading_of(metric: &Json) -> Option<Reading> {
    let num = |k: &str| metric.get(k).and_then(Json::as_f64);
    let value = num("value")?;
    Some(Reading {
        value,
        q: Quartiles {
            q1: num("q1").unwrap_or(value),
            median: num("median").unwrap_or(value),
            q3: num("q3").unwrap_or(value),
            n: num("n").map_or(1, |n| n as usize),
        },
    })
}

/// One row per (workload, end-to-end metric) present in both documents'
/// untraced runs. A run that failed its gate makes every row of its
/// workload `regressed`: a wrong answer has no speed.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<CompareRow>, String> {
    for (name, doc) in [("first", a), ("second", b)] {
        if doc.get("quick").and_then(Json::as_bool) == Some(true) {
            return Err(format!(
                "the {name} document is a --quick run: never comparable"
            ));
        }
    }
    let untraced = |doc: &'_ Json| -> Result<Vec<Json>, String> {
        Ok(runs_of(doc)?
            .iter()
            .filter(|r| r.get("traced").and_then(Json::as_bool) == Some(false))
            .cloned()
            .collect())
    };
    let (runs_a, runs_b) = (untraced(a)?, untraced(b)?);
    let mut rows = Vec::new();
    for ra in &runs_a {
        let Some(workload) = ra.get("workload").and_then(Json::as_str) else {
            continue;
        };
        let Some(rb) = runs_b
            .iter()
            .find(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        else {
            continue;
        };
        let gate_ok = [ra, rb]
            .iter()
            .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
        for def in &metrics::END_TO_END {
            let find = |r: &Json| r.get("metrics")?.get(def.name).and_then(reading_of);
            let (Some(a), Some(b)) = (find(ra), find(rb)) else {
                continue;
            };
            rows.push(CompareRow {
                workload: workload.to_string(),
                metric: def.name,
                a,
                b,
                verdict: if gate_ok {
                    verdict(def, &a, &b)
                } else {
                    Verdict::Regressed
                },
            });
        }
    }
    if rows.is_empty() {
        return Err("the documents share no untraced workload run".into());
    }
    Ok(rows)
}

pub fn compare_table(rows: &[CompareRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<17} {:<17} {:>12} {:>40} {:>12} {:>40} {:>22}  verdict",
        "workload",
        "metric",
        "a",
        "a [q1, median, q3] n",
        "b",
        "b [q1, median, q3] n",
        "b/a (base a)"
    );
    for r in rows {
        let iqr = |q: &Quartiles| format!("[{:.4e}, {:.4e}, {:.4e}] {}", q.q1, q.median, q.q3, q.n);
        let _ = writeln!(
            out,
            "{:<17} {:<17} {:>12.5e} {:>40} {:>12.5e} {:>40} {:>8.4} ({:.5e})  {}",
            r.workload,
            r.metric,
            r.a.value,
            iqr(&r.a.q),
            r.b.value,
            iqr(&r.b.q),
            r.b.value / r.a.value,
            r.a.value,
            r.verdict.as_str()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(q1: f64, median: f64, q3: f64, n: usize) -> Quartiles {
        Quartiles { q1, median, q3, n }
    }

    /// A reading whose reported value is its median.
    fn r(q1: f64, median: f64, q3: f64, n: usize) -> Reading {
        Reading {
            value: median,
            q: q(q1, median, q3, n),
        }
    }

    fn def(name: &str) -> &'static MetricDef {
        metrics::end_to_end(name).expect("metric")
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let rate = def("tuples_per_s"); // higher is better
        let bound = rate.bound;
        let base = r(98.0, 100.0, 102.0, 16);
        let at = |v: f64| r(v - 1.0, v, v + 1.0, 16);
        // Slower, but inside the bound.
        assert_eq!(
            verdict(rate, &base, &at(100.0 * (1.0 - bound / 2.0))),
            Verdict::Ok
        );
        // Slower by twice the bound, with tight samples: regressed.
        assert_eq!(
            verdict(rate, &base, &at(100.0 * (1.0 - 2.0 * bound))),
            Verdict::Regressed
        );
        // Faster is never a regression.
        assert_eq!(verdict(rate, &base, &at(130.0)), Verdict::Ok);
        // Samples so wide that the value itself wanders by more than the
        // bound (IQR 120 % over √4 = 60 %): unresolved, even when it also
        // looks worse by more than the bound.
        assert_eq!(
            verdict(rate, &base, &r(40.0, 100.0, 160.0, 4)),
            Verdict::Unresolved
        );
        let worse = 100.0 * (1.0 - 1.2 * bound);
        assert_eq!(
            verdict(rate, &base, &r(worse * 0.4, worse, worse * 1.6, 4)),
            Verdict::Unresolved
        );

        let cpu = def("cpu_ns_per_tuple"); // lower is better
        let base = r(178.0, 180.0, 182.0, 16);
        let up = 180.0 * (1.0 + 2.0 * cpu.bound);
        assert_eq!(
            verdict(cpu, &base, &r(up - 2.0, up, up + 2.0, 16)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(cpu, &base, &r(150.0, 152.0, 154.0, 16)),
            Verdict::Ok
        );
        // The reported value decides, not the median beside it: a floor
        // that got worse regresses even if the median held.
        let best_worse = Reading {
            value: up,
            q: q(178.0, 180.0, 182.0, 16),
        };
        assert_eq!(verdict(cpu, &base, &best_worse), Verdict::Regressed);
        // A single reading has no spread: only the bound decides.
        let rss = def("peak_rss_mib");
        let one = |v: f64| r(v, v, v, 1);
        assert_eq!(
            verdict(rss, &one(40.0), &one(40.0 * (1.0 + rss.bound * 0.9))),
            Verdict::Ok
        );
        assert_eq!(
            verdict(rss, &one(40.0), &one(40.0 * (1.0 + rss.bound * 1.1))),
            Verdict::Regressed
        );
    }

    fn run_with(workload: &str, rate: Quartiles, failed: u64) -> WorkloadRun {
        WorkloadRun {
            workload: workload.into(),
            traced: false,
            passes: rate.n,
            attempted: 1000,
            failed,
            metrics: vec![
                Measured::sampled(def("tuples_per_s"), rate.median, rate),
                Measured::single(def("peak_rss_mib"), 41.5),
            ],
            notes: vec![],
        }
    }

    fn doc(runs: &[WorkloadRun], quick: bool) -> Json {
        let env = Env {
            git_sha: "abc".into(),
            rustc: "rustc 1.0".into(),
            nproc: 2,
            seed: 7,
            seconds: 12.0,
            quick,
            data_dir_fs: "ext4".into(),
        };
        let text = document(
            &env,
            &runs.iter().map(WorkloadRun::to_json).collect::<Vec<_>>(),
        )
        .render();
        Json::parse(&text).expect("what we write parses")
    }

    #[test]
    fn compare_reads_back_what_the_runner_writes() {
        let a = doc(
            &[run_with("fig2_scalar", q(98.0, 100.0, 102.0, 16), 0)],
            false,
        );
        let b = doc(
            &[run_with("fig2_scalar", q(49.0, 50.0, 51.0, 16), 0)],
            false,
        );
        let rows = compare(&a, &b).expect("compare");
        assert_eq!(rows.len(), 2, "one row per shared end-to-end metric");
        assert_eq!(
            (rows[0].metric, rows[0].verdict),
            ("tuples_per_s", Verdict::Regressed)
        );
        assert_eq!(
            (rows[1].metric, rows[1].verdict),
            ("peak_rss_mib", Verdict::Ok)
        );
        assert_eq!(rows[0].a, r(98.0, 100.0, 102.0, 16));
        let table = compare_table(&rows);
        assert!(table.contains("regressed") && table.contains("0.5000"));
        // Against itself everything is ok.
        assert!(compare(&a, &a)
            .expect("compare")
            .iter()
            .all(|r| r.verdict == Verdict::Ok));
    }

    #[test]
    fn a_failed_gate_regresses_every_row_and_quick_never_compares() {
        let a = doc(
            &[run_with("fig2_scalar", q(98.0, 100.0, 102.0, 16), 0)],
            false,
        );
        let wrong = doc(
            &[run_with("fig2_scalar", q(98.0, 100.0, 102.0, 16), 3)],
            false,
        );
        assert!(compare(&a, &wrong)
            .expect("compare")
            .iter()
            .all(|r| r.verdict == Verdict::Regressed));
        let quick = doc(
            &[run_with("fig2_scalar", q(98.0, 100.0, 102.0, 16), 0)],
            true,
        );
        assert!(compare(&a, &quick).is_err());
        let other = doc(
            &[run_with("wide_ooo_single", q(1.0, 1.0, 1.0, 1), 0)],
            false,
        );
        assert!(compare(&a, &other).is_err(), "no shared workload");
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let run = run_with("fig2_scalar", q(98.0, 100.5, 102.0, 16), 0);
        let line = run.contract_line();
        assert!(!line.contains('\n'));
        let v = Json::parse(&line).expect("parse");
        let keys: Vec<&str> = v.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v
            .get("metrics")
            .and_then(|m| m.get("tuples_per_s"))
            .expect("metric");
        let keys: Vec<&str> = m.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["value", "unit"]);
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(100.5));
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
        // A failed gate flips `correct`.
        let bad = run_with("fig2_scalar", q(98.0, 100.5, 102.0, 16), 1);
        let v = Json::parse(&bad.contract_line()).expect("parse");
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(false));
    }
}
