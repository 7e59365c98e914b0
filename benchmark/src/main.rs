//! `fd-benchmark` — the repo's one pipeline benchmark.
//!
//! ```text
//! fd-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace [0|1]]
//!              [--quick] [--out <file>]
//! fd-benchmark compare <a.json> <b.json>
//! fd-benchmark selfcheck [--seed <n>] [--seconds <s>] [--quick]
//! ```
//!
//! With `--workload` it runs that workload in this process and prints, as
//! the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics, or with
//! `--trace 1` the per-layer ledger. Without, it runs all five, each in a
//! process of its own, one at a time. See README.md.

mod adapter;
mod json;
mod layers;
mod measure;
mod metrics;
mod reference;
mod report;
mod run;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

use json::Json;
use report::{Env, Measured, Verdict, WorkloadRun};

/// The seed results are recorded with, and the hold-out a claim must also
/// hold on (both listed in the README).
const DEFAULT_SEED: u64 = 7;
const DEFAULT_SECONDS: f64 = 26.0;
const QUICK_SECONDS: f64 = 1.0;
const MICRO_LOOP: Duration = Duration::from_millis(500);
const QUICK_MICRO_LOOP: Duration = Duration::from_millis(50);

const EXIT_FAILED: u8 = 1;
const EXIT_USAGE: u8 = 2;
const EXIT_CORE_BOUND: u8 = 3;

const USAGE: &str = "\
fd-benchmark — end-to-end pipeline benchmark for the forward-decay engine

USAGE:
    fd-benchmark [OPTIONS]                    run the workloads
    fd-benchmark compare <a.json> <b.json>    compare two result documents
    fd-benchmark selfcheck [OPTIONS]          run the full set twice and compare

OPTIONS:
    --workload <name>   run one workload in this process:
                        fig2_scalar|fig2_durable|ingress_fabric|sketch_quantiles|wide_ooo_single
                        (default: all five, each in its own process)
    --seed <n>          trace seed                          [default: 7; hold-out: 1123]
    --seconds <s>       timed seconds per workload          [default: 26; --quick: 1]
    --trace [0|1]       1 (or bare): the traced run — per-layer ledger and
                        benchmark/out/trace-<workload>.json [default: 0]
    --quick             smoke mode: 10x shorter traces, marked quick, never comparable
    --out <file>        where to write the result document
                        [default: benchmark/out/<run|result>-…-seed<n>.json]
";

#[derive(Debug, Clone, PartialEq)]
struct RunOpts {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    quick: bool,
    out: Option<PathBuf>,
    /// Hidden: time one set-up and print the seconds (`run::SETUP_REPS`).
    setup_probe: bool,
}

impl RunOpts {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }

    fn kind(&self) -> &'static str {
        if self.traced {
            "traced"
        } else {
            "untraced"
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Cli {
    Run(RunOpts),
    Compare(PathBuf, PathBuf),
    Selfcheck(RunOpts),
    Help,
}

fn parse_run_opts(args: &[String]) -> Result<RunOpts, String> {
    let mut o = RunOpts {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        traced: false,
        quick: false,
        out: None,
        setup_probe: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag '{flag}' needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value(flag)?;
                if workloads::find(&name).is_none() {
                    return Err(format!("unknown workload '{name}'"));
                }
                o.workload = Some(name);
            }
            "--seed" => {
                let v = value(flag)?;
                o.seed = v.parse().map_err(|e| format!("bad seed '{v}': {e}"))?;
            }
            "--seconds" => {
                let v = value(flag)?;
                let s: f64 = v.parse().map_err(|e| format!("bad seconds '{v}': {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {v}"));
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                // `--trace`, `--trace 1` and `--trace 0` are all accepted.
                o.traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => o.quick = true,
            run::SETUP_PROBE_FLAG => o.setup_probe = true,
            "--out" => o.out = Some(PathBuf::from(value(flag)?)),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if o.setup_probe && o.workload.is_none() {
        return Err(format!("{} needs --workload", run::SETUP_PROBE_FLAG));
    }
    Ok(o)
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(Cli::Help);
    }
    match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => Ok(Cli::Compare(a.into(), b.into())),
            _ => Err("compare takes exactly two result documents".into()),
        },
        Some("selfcheck") => {
            let o = parse_run_opts(&args[1..])?;
            if o.workload.is_some() || o.traced || o.out.is_some() {
                return Err("selfcheck runs the full untraced set; it takes only \
                            --seed, --seconds and --quick"
                    .into());
            }
            Ok(Cli::Selfcheck(o))
        }
        _ => parse_run_opts(args).map(Cli::Run),
    }
}

fn write_doc(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn read_doc(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The exit status of a workload run: the gate first, then the host.
fn exit_code(run: &WorkloadRun, env: &Env) -> u8 {
    if !run.correct() {
        EXIT_FAILED
    } else if env.core_bound() {
        EXIT_CORE_BOUND
    } else {
        0
    }
}

fn gate_notes(gate: &run::Gate) -> Vec<(String, Json)> {
    vec![
        (
            "reference_rows".into(),
            Json::Num(gate.reference_rows as f64),
        ),
        (
            "rows_missing".into(),
            Json::Num(gate.mismatch.missing as f64),
        ),
        ("rows_extra".into(), Json::Num(gate.mismatch.extra as f64)),
        (
            "rows_outside".into(),
            Json::Num(gate.mismatch.outside as f64),
        ),
        (
            "admission_diff".into(),
            Json::Num(gate.admission_diff as f64),
        ),
        ("oracle_groups".into(), Json::Num(gate.oracle_groups as f64)),
        ("oracle_failed".into(), Json::Num(gate.oracle_failed as f64)),
    ]
}

/// Runs one workload in this process.
fn run_one(opts: &RunOpts, name: &str) -> Result<u8, String> {
    let mut w = workloads::find(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    if opts.quick {
        w = w.quick();
    }
    if opts.setup_probe {
        let (_, elapsed, _) = run::set_up(&w, opts.seed)?;
        println!("{}", elapsed.as_secs_f64());
        return Ok(0);
    }
    let out_dir = run::out_dir();
    let env = Env::detect(opts.seed, opts.seconds(), opts.quick, &out_dir);
    if env.core_bound() {
        eprintln!(
            "fd-benchmark: {} core(s) — dispatcher and worker share one; \
             results are marked core_bound and the exit status is non-zero",
            env.nproc
        );
    }

    let result = if opts.traced {
        let micro = if opts.quick {
            QUICK_MICRO_LOOP
        } else {
            MICRO_LOOP
        };
        let t = layers::run_traced(&w, opts.seed, opts.seconds(), micro)?;
        let spans_path = out_dir.join(format!("trace-{}.json", w.name));
        let run = WorkloadRun {
            workload: w.name.into(),
            traced: true,
            passes: t.traced_passes,
            attempted: t.attempted.max(1),
            failed: t.failed,
            metrics: metrics::PER_LAYER
                .iter()
                .zip(&t.ledger)
                .map(|(def, (_, v))| Measured::single(def, *v))
                .collect(),
            notes: {
                let mut n = gate_notes(&t.gate);
                n.push(("tail_percentile".into(), Json::Num(t.tail_percentile)));
                n
            },
        };
        let spans_doc = report::document(
            &env,
            &[Json::obj([
                ("workload", Json::Str(w.name.into())),
                ("ledger", run.to_json()),
                ("spans", t.spans),
            ])],
        );
        write_doc(&spans_path, &spans_doc)?;
        println!("spans: {}", spans_path.display());
        run
    } else {
        let e = run::run_untraced(&w, opts.seed, opts.seconds(), opts.quick)?;
        if !e.rss_per_pass {
            eprintln!(
                "fd-benchmark: /proc/self/clear_refs is not writable; peak_rss_mib is one \
                 reading over all passes, not a median of per-pass peaks"
            );
        }
        let sampled = |name: &str, s: run::Sampled| {
            let def = metrics::end_to_end(name).expect("listed in END_TO_END");
            Measured::sampled(def, s.value, s.q)
        };
        let mut notes = gate_notes(&e.gate);
        notes.push((
            "offered_per_pass".into(),
            Json::Num(e.offered_per_pass as f64),
        ));
        notes.push(("setup_reps".into(), Json::Num(e.setup_s.q.n as f64)));
        WorkloadRun {
            workload: w.name.into(),
            traced: false,
            passes: e.passes,
            attempted: e.attempted,
            failed: e.failed,
            metrics: vec![
                sampled("tuples_per_s", e.tuples_per_s),
                sampled("cpu_ns_per_tuple", e.cpu_ns_per_tuple),
                sampled("peak_rss_mib", e.peak_rss_mib),
                sampled("setup_s", e.setup_s),
            ],
            notes,
        }
    };

    let doc = report::document(&env, &[result.to_json()]);
    let path = opts.out.clone().unwrap_or_else(|| {
        out_dir.join(format!(
            "run-{}-{}-seed{}.json",
            w.name,
            opts.kind(),
            opts.seed
        ))
    });
    write_doc(&path, &doc)?;
    print!("{}", result.table());
    println!(
        "env: seed {} seconds {} quick {} nproc {} core_bound {} rustc '{}' git {} data-dir fs {} ({})",
        env.seed,
        env.seconds,
        env.quick,
        env.nproc,
        env.core_bound(),
        env.rustc,
        env.git_sha,
        env.data_dir_fs,
        env.fs_note()
    );
    println!("result: {}", path.display());
    println!("{}", result.contract_line());
    Ok(exit_code(&result, &env))
}

/// Runs every workload, each in a process of its own, one at a time, and
/// merges their documents into one.
fn run_all(opts: &RunOpts, out: &Path) -> Result<u8, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out_dir = run::out_dir();
    let mut runs = Vec::new();
    let mut worst = 0u8;
    for w in workloads::ALL {
        let part = out_dir.join(format!("part-{}-{}.json", std::process::id(), w.name));
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name, "--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds().to_string()])
            .args(["--trace", if opts.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&part);
        if opts.quick {
            cmd.arg("--quick");
        }
        // `status` waits for the child; its output streams through.
        let status = cmd
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let code = status.code().map_or(EXIT_FAILED, |c| c.clamp(0, 255) as u8);
        worst = worst.max(code);
        match read_doc(&part) {
            Ok(doc) => runs.extend(report::runs_of(&doc)?.iter().cloned()),
            Err(e) => eprintln!("fd-benchmark: {} left no result ({e})", w.name),
        }
        let _ = std::fs::remove_file(&part);
    }
    let env = Env::detect(opts.seed, opts.seconds(), opts.quick, &out_dir);
    write_doc(out, &report::document(&env, &runs))?;
    println!("result: {}", out.display());
    Ok(worst)
}

fn compare_files(a: &Path, b: &Path) -> Result<u8, String> {
    let rows = report::compare(&read_doc(a)?, &read_doc(b)?)?;
    print!("{}", report::compare_table(&rows));
    let regressed = rows.iter().any(|r| r.verdict == Verdict::Regressed);
    Ok(if regressed { EXIT_FAILED } else { 0 })
}

/// Two full untraced sets of the same build must agree with each other
/// within the benchmark's own bounds — every pair `ok`, not `unresolved`.
fn selfcheck(opts: &RunOpts) -> Result<u8, String> {
    let out_dir = run::out_dir();
    let (a, b) = (
        out_dir.join(format!("selfcheck-a-seed{}.json", opts.seed)),
        out_dir.join(format!("selfcheck-b-seed{}.json", opts.seed)),
    );
    let worst = run_all(opts, &a)?.max(run_all(opts, &b)?);
    if opts.quick {
        println!("selfcheck: --quick runs are never comparable; ran both sets only");
        return Ok(worst);
    }
    let rows = report::compare(&read_doc(&a)?, &read_doc(&b)?)?;
    print!("{}", report::compare_table(&rows));
    let all_ok = rows.iter().all(|r| r.verdict == Verdict::Ok);
    println!(
        "selfcheck: {}",
        if all_ok {
            "every pair ok"
        } else {
            "NOT every pair ok"
        }
    );
    Ok(if all_ok {
        worst
    } else {
        worst.max(EXIT_FAILED)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_cli(&args) {
        Ok(Cli::Help) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("fd-benchmark: {e}\n\n{USAGE}");
            return ExitCode::from(EXIT_USAGE);
        }
        Ok(Cli::Compare(a, b)) => compare_files(&a, &b),
        Ok(Cli::Selfcheck(opts)) => selfcheck(&opts),
        Ok(Cli::Run(opts)) => match &opts.workload {
            Some(name) => run_one(&opts, name),
            None => {
                let out = opts.out.clone().unwrap_or_else(|| {
                    run::out_dir().join(format!("result-{}-seed{}.json", opts.kind(), opts.seed))
                });
                run_all(&opts, &out)
            }
        },
    };
    match outcome {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            // No result line: the run did not produce one.
            eprintln!("fd-benchmark: {e}");
            ExitCode::from(EXIT_FAILED)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_drivers_invocation() {
        let cli = parse_cli(&args(
            "--workload fig2_scalar --seed 1123 --seconds 12 --trace 0",
        ));
        let Ok(Cli::Run(o)) = cli else {
            panic!("{cli:?}")
        };
        assert_eq!(o.workload.as_deref(), Some("fig2_scalar"));
        assert_eq!(
            (o.seed, o.seconds, o.traced, o.quick),
            (1123, Some(12.0), false, false)
        );
        let Ok(Cli::Run(o)) = parse_cli(&args("--workload wide_ooo_single --trace 1 --seed 3"))
        else {
            panic!()
        };
        assert!(o.traced && o.seed == 3);
        // A bare --trace means 1 and does not swallow the next flag.
        let Ok(Cli::Run(o)) = parse_cli(&args("--trace --quick")) else {
            panic!()
        };
        assert!(o.traced && o.quick && o.workload.is_none());
        assert_eq!(o.seconds(), QUICK_SECONDS);
    }

    #[test]
    fn defaults_and_subcommands() {
        let Ok(Cli::Run(o)) = parse_cli(&[]) else {
            panic!()
        };
        assert_eq!(
            (o.seed, o.seconds(), o.traced),
            (DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
        assert_eq!(
            parse_cli(&args("compare a.json b.json")),
            Ok(Cli::Compare("a.json".into(), "b.json".into()))
        );
        assert!(parse_cli(&args("compare a.json")).is_err());
        assert!(
            matches!(parse_cli(&args("selfcheck --seed 1123")), Ok(Cli::Selfcheck(o)) if o.seed == 1123)
        );
        assert!(parse_cli(&args("selfcheck --workload fig2_scalar")).is_err());
        assert_eq!(parse_cli(&args("--help")), Ok(Cli::Help));
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--seconds -1",
            "--seconds",
            "--frobnicate",
        ] {
            assert!(parse_cli(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn a_failed_gate_or_a_one_core_host_exits_non_zero() {
        let env = |nproc| Env {
            git_sha: "x".into(),
            rustc: "x".into(),
            nproc,
            seed: 7,
            seconds: 12.0,
            quick: false,
            data_dir_fs: "ext4".into(),
        };
        let run = |failed| WorkloadRun {
            workload: "fig2_scalar".into(),
            traced: false,
            passes: 11,
            attempted: 100,
            failed,
            metrics: vec![],
            notes: vec![],
        };
        assert_eq!(exit_code(&run(0), &env(2)), 0);
        assert_eq!(exit_code(&run(1), &env(2)), EXIT_FAILED);
        assert_eq!(exit_code(&run(0), &env(1)), EXIT_CORE_BOUND);
        assert_eq!(exit_code(&run(1), &env(1)), EXIT_FAILED);
    }
}
