//! Multi-producer ingress scaling on the fwd-poly count workload.
//!
//! BENCH_shard.json shows one ingress producer (its serial
//! admit-route-stage loop) capping modeled throughput at `1e9/dispatch_ns`
//! regardless of shard count — the ingress ceiling of the paper's §VI
//! cost model. The ingress plane lifts that serial term with `P`
//! producers, each owning the full loop; this bench measures
//!
//! - the per-tuple cost of one producer's loop (`ingress_ns_per_tuple`,
//!   gated by `scripts/bench_diff.py`),
//! - wall-clock aggregate ingress throughput with P producer threads on
//!   this host, and
//! - the modeled aggregate `P·10⁹/ingress_ns`, capped end-to-end by the
//!   workers at `min(P·10⁹/ingress_ns, n·10⁹/worker_ns)`
//!   ([`fd_engine::metrics::fabric_capacity_pps`]).
//!
//! Hosts with fewer cores than producers cannot show the scaling in
//! wall-clock (the threads time-slice one core), so each row carries a
//! `core_bound` honesty flag and the headline `aggregate_tuples_per_sec`
//! falls back to the modeled number when the flag is set.
//!
//! Results land in `BENCH_ingress.json` at the repo root.
//!
//! Run: `cargo bench --bench ingress_scaling`

use std::fmt::Write as _;

use fd_bench::{
    measure_dispatch_ns, measure_parallel_ingress_tps, measure_query, quick, quick_scaled, Table,
};
use fd_core::decay::Monomial;
use fd_engine::metrics::fabric_capacity_pps;
use fd_engine::prelude::*;
use fd_gen::TraceConfig;

const PRODUCERS: [usize; 3] = [1, 2, 4];
const SHARDS: usize = 8;

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

fn query() -> Query {
    Query::builder("ingress")
        .filter(|p| p.proto == Proto::Tcp)
        .group_by(|p| p.dst_host())
        .bucket_secs(60)
        .aggregate(fwd_count_factory(Monomial::quadratic()))
        .two_level(false)
        .try_build()
        .expect("valid query")
}

fn fmt_tps(tps: f64) -> String {
    format!("{:.0} Mt/s", tps / 1e6)
}

fn main() {
    let packets = trace();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "ingress scaling on the fwd-poly count workload: {} packets, {cores} host core(s){}",
        packets.len(),
        if quick() { " [FD_QUICK]" } else { "" }
    );

    let q = query();
    // Serial per-producer cost, and the worker cost that caps the
    // end-to-end model.
    let ingress_ns = measure_dispatch_ns(&q, SHARDS, &packets);
    let worker_ns = measure_query(&q, &packets).ns_per_tuple;
    println!("ingress (one producer): {ingress_ns:.1} ns/t · worker: {worker_ns:.1} ns/t");

    let mut table = Table::new(
        "Multi-producer ingress — aggregate throughput",
        "producers",
        &[
            "wall-clock",
            "modeled ingress",
            "end-to-end capacity",
            "core-bound",
        ],
    );
    let mut json_series = String::new();
    let mut headline = Vec::new();
    for p in PRODUCERS {
        let wallclock = measure_parallel_ingress_tps(&q, SHARDS, p, &packets);
        let modeled = p as f64 * 1e9 / ingress_ns;
        let capacity = fabric_capacity_pps(ingress_ns, worker_ns, SHARDS, p);
        let core_bound = cores < p;
        // The headline number a reader should quote: measured where the
        // host can actually run P producers in parallel, modeled where it
        // cannot (flagged either way).
        let aggregate = if core_bound { modeled } else { wallclock };
        headline.push(aggregate);
        table.row(
            format!("{p}"),
            vec![
                fmt_tps(wallclock),
                fmt_tps(modeled),
                fmt_tps(capacity),
                format!("{core_bound}"),
            ],
        );
        let _ = writeln!(
            json_series,
            "    {{\"label\": \"{p} producers\", \"producers\": {p}, \
             \"wallclock_tuples_per_sec\": {wallclock:.0}, \
             \"modeled_ingress_tuples_per_sec\": {modeled:.0}, \
             \"end_to_end_capacity_pps\": {capacity:.0}, \
             \"core_bound\": {core_bound}, \
             \"aggregate_tuples_per_sec\": {aggregate:.0}}},"
        );
    }
    table.print();

    let speedup4 = headline[headline.len() - 1] / headline[0];
    println!("aggregate ingress speedup at 4 producers vs 1: {speedup4:.2}x");
    if !quick() {
        assert!(
            speedup4 >= 2.5,
            "ingress fabric must scale: {speedup4:.2}x < 2.5x at 4 producers"
        );
    }

    if quick() {
        println!("FD_QUICK set: skipping the JSON write");
        return;
    }

    let json = format!(
        "{{\n  \"bench\": \"ingress_scaling\",\n  \
         \"workload\": \"fwd-poly count: 20000 hosts, zipf 1.1, 100000 pkt/s x 20 s, TCP\",\n  \
         \"host_cores\": {cores},\n  \
         \"shards\": {SHARDS},\n  \
         \"ingress_ns_per_tuple\": {ingress_ns:.1},\n  \
         \"worker_ns_per_tuple\": {worker_ns:.1},\n  \
         \"aggregate_speedup_at_4_producers\": {speedup4:.2},\n  \
         \"note\": \"aggregate_tuples_per_sec is wall-clock when host_cores >= producers, else the modeled P*1e9/ingress_ns with core_bound=true; end_to_end_capacity_pps applies min(P*1e9/ingress_ns, shards*1e9/worker_ns)\",\n  \
         \"series\": [\n{}  ]\n}}\n",
        json_series.trim_end_matches(",\n").to_string() + "\n"
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ingress.json");
    std::fs::write(out, &json).expect("write BENCH_ingress.json");
    println!("wrote {out}");
}
