//! Sharded-engine scaling on the Figure 2 workload: single-threaded vs
//! N-shard throughput.
//!
//! Section VI-B of the paper: forward-decay summaries are mergeable, so
//! "each site maintains a summary of its local stream" and combination is
//! exact. The sharded engine turns that into core-level parallelism; this
//! bench measures it on the paper's count-query workload (20 000 hosts,
//! Zipf 1.1, 100k pkt/s): per competitor, the single-threaded engine's
//! per-tuple cost (the baseline) and the wall-clock N-shard throughput on
//! this host, fed as `fdql` feeds (`fd_bench::overhead::run`: 4096-tuple
//! chunks through `try_process_packets`) after a warm-up pass over a
//! prefix. Every N-shard run must emit as many rows as the single-threaded
//! one.
//!
//! Results land in `BENCH_shard.json` at the repo root; every number in it
//! is measured. With fewer cores than shards plus the ingress thread, the
//! wall-clock numbers measure oversubscription (`wallclock_core_bound`).
//!
//! Run: `cargo bench --bench shard_scaling`

use std::fmt::Write as _;
use std::sync::Arc;

use fd_bench::overhead::run;
use fd_bench::{fig2_query, measure_query, quick, quick_scaled, Table};
use fd_core::decay::{BackPolynomial, Monomial};
use fd_engine::prelude::*;
use fd_engine::udaf::FnFactory;
use fd_gen::TraceConfig;

const SHARDS: [usize; 3] = [2, 4, 8];

fn trace() -> Vec<Packet> {
    TraceConfig {
        seed: 2,
        duration_secs: quick_scaled(20.0, 1.0),
        rate_pps: 100_000.0,
        n_hosts: 20_000,
        zipf_skew: 1.1,
        tcp_fraction: 1.0,
        ..Default::default()
    }
    .generate()
}

/// The fig2 competitors that exercise the three cost regimes: LFTA-split
/// built-in (dispatch-bound), single-level forward decay (balanced), and
/// the backward-decay EH baseline (aggregation-bound).
fn competitors() -> Vec<(&'static str, Arc<FnFactory>, bool)> {
    vec![
        ("no decay", count_factory(), true),
        ("fwd poly", fwd_count_factory(Monomial::quadratic()), false),
        (
            "bwd EH",
            eh_count_factory(0.1, DynBackward::from_decay(BackPolynomial::new(2.0))),
            false,
        ),
    ]
}

fn fmt_tps(tps: f64) -> String {
    format!("{:.2} Mt/s", tps / 1e6)
}

fn main() {
    let packets = trace();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Wall-clock scaling needs one core per worker plus one per ingress
    // producer (this bench drives the classic single-dispatcher engine,
    // so producers = 1; `ingress_scaling` covers the fabric); with fewer,
    // those numbers measure oversubscription, not the engine — the flag
    // below marks them so readers (and CI boxes) don't mistake core
    // starvation for a scaling regression.
    let producers = 1usize;
    let wallclock_core_bound = cores < SHARDS[SHARDS.len() - 1] + producers;
    println!(
        "shard scaling on the fig2 workload: {} packets, {cores} host core(s){}{}",
        packets.len(),
        if wallclock_core_bound {
            " [wall-clock core-bound]"
        } else {
            ""
        },
        if quick() { " [FD_QUICK]" } else { "" }
    );

    let shard_cols: Vec<String> = SHARDS.iter().map(|n| format!("{n} shards")).collect();
    let mut wall_cols: Vec<&str> = vec!["single"];
    wall_cols.extend(shard_cols.iter().map(String::as_str));
    let mut table_wall = Table::new(
        "Sharded engine — wall-clock throughput (this host)",
        "query",
        &wall_cols,
    );

    let mut json_series = String::new();
    for (label, factory, two_level) in competitors() {
        let q = fig2_query(factory, two_level);
        let single = measure_query(&q, &packets);
        let single_tps = 1e9 / single.ns_per_tuple;

        let mut wall_cells = vec![fmt_tps(single_tps)];
        let mut wall_json = format!("\"1\": {single_tps:.0}");
        for n in SHARDS {
            run(&q, &packets[..packets.len().min(50_000)], n, None, |e| e);
            let m = run(&q, &packets, n, None, |e| e);
            assert_eq!(
                m.rows,
                single.rows.len(),
                "{label}: sharded row count diverged"
            );
            let tps = 1e9 / m.wall_ns_per_tuple;
            wall_cells.push(fmt_tps(tps));
            let _ = write!(wall_json, ", \"{n}\": {tps:.0}");
        }
        table_wall.row(label, wall_cells);

        let _ = writeln!(
            json_series,
            "    {{\"label\": \"{label}\", \"two_level\": {two_level}, \
             \"single_ns_per_tuple\": {:.1}, \
             \"wallclock_tuples_per_sec\": {{{wall_json}}}}},",
            single.ns_per_tuple
        );
    }
    table_wall.print();

    if quick() {
        println!("FD_QUICK set: skipping the JSON write");
        return;
    }

    let json = format!(
        "{{\n  \"bench\": \"shard_scaling\",\n  \
         \"workload\": \"fig2 count: 20000 hosts, zipf 1.1, 100000 pkt/s x 20 s, TCP\",\n  \
         \"host_cores\": {cores},\n  \
         \"producers\": {producers},\n  \
         \"wallclock_core_bound\": {wallclock_core_bound},\n  \
         \"note\": \"wall-clock numbers are bounded by host_cores (core-bound when host_cores < shards + producers); every number is measured on this host; the sharded runs are fed as fdql feeds, in 4096-tuple chunks through try_process_packets\",\n  \
         \"series\": [\n{}  ]\n}}\n",
        json_series.trim_end_matches(",\n").to_string() + "\n"
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shard.json");
    std::fs::write(out, &json).expect("write BENCH_shard.json");
    println!("wrote {out}");
}
