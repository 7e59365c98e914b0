//! Hot-path benchmark: scalar vs batched columnar summary updates, and
//! scalar vs batched dispatch — the regression-gated numbers for the
//! batching work.
//!
//! Two halves:
//!
//! - **Summary updates.** `DecayedCount`/`DecayedSum` fed one tuple at a
//!   time vs through `update_batch`, per decay family, on the Figure 2
//!   arrival process (100k pkt/s Poisson on microsecond ticks). The
//!   batched path hoists the renormalization check and the landmark read
//!   out of the inner loop and stripes the accumulation across lanes for
//!   instruction-level parallelism; it still evaluates `g` once per
//!   tuple, so a transcendental family (`powf`, `exp`) costs about what
//!   its scalar path does.
//! - **Dispatch.** The sharded dispatcher's serial ingress fraction,
//!   simulated without workers: the legacy per-tuple path (two divisions
//!   per tuple, `mem::take` hand-offs that regrow) vs the batched path
//!   (division-free admission, one hash pass, pool-recycled buffers).
//!
//! Results land in `BENCH_hotpath.json` at the repo root;
//! `scripts/bench_diff.py` gates CI on >10% ns/tuple regressions against
//! the parent commit's run, measured on the same runner in the same job. `FD_QUICK=1` shrinks the run and skips both the
//! strict assertions and the JSON write.
//!
//! Run: `cargo bench --bench hotpath`

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use fd_bench::{measure_dispatch_ns, measure_dispatch_scalar_ns, quick, quick_scaled, Table};
use fd_core::aggregates::{DecayedCount, DecayedSum};
use fd_core::decay::{Exponential, ForwardDecay, Monomial, NoDecay};
use fd_core::Timestamp;
use fd_engine::prelude::*;
use fd_gen::TraceConfig;

/// Engine default batch size; also the chunk the batched loops feed.
const BATCH: usize = fd_engine::shard::DEFAULT_BATCH_SIZE;
/// Timing passes per measurement; the minimum is reported.
const PASSES: usize = 3;

fn trace() -> Vec<Packet> {
    TraceConfig {
        seed: 7,
        duration_secs: quick_scaled(20.0, 0.5),
        rate_pps: 100_000.0,
        n_hosts: 20_000,
        zipf_skew: 1.1,
        tcp_fraction: 1.0,
        ..Default::default()
    }
    .generate()
}

/// Best-of-N wall time for `body`, as ns per `n` items.
fn time_ns_per(n: usize, mut body: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..PASSES {
        let t0 = Instant::now();
        body();
        best = best.min(t0.elapsed().as_nanos() as f64);
    }
    best / n.max(1) as f64
}

/// One summary-update series: scalar vs batched `DecayedCount` over `ts`.
/// Returns (scalar_ns, batched_ns) and asserts the two answers agree.
fn measure_count<G: ForwardDecay>(g: G, ts: &[Timestamp]) -> (f64, f64) {
    // `black_box` granularity mirrors the unit of arrival each path sees
    // in the engine: the scalar path gets one opaque tuple at a time, the
    // batched path one opaque chunk — and keeps the compiler from hoisting
    // either computation out of the timed region.
    let mut scalar_answer = 0.0;
    let scalar_ns = time_ns_per(ts.len(), || {
        let mut c = DecayedCount::new(g.clone(), 0.0);
        for &t in ts {
            c.update(black_box(t));
        }
        scalar_answer = black_box(c.query(*ts.last().unwrap() + 1.0));
    });
    let mut batched_answer = 0.0;
    let batched_ns = time_ns_per(ts.len(), || {
        let mut c = DecayedCount::new(g.clone(), 0.0);
        for chunk in ts.chunks(BATCH) {
            c.update_batch(black_box(chunk));
        }
        batched_answer = black_box(c.query(*ts.last().unwrap() + 1.0));
    });
    let rel = (scalar_answer - batched_answer).abs() / scalar_answer.abs().max(1.0);
    assert!(
        rel <= 1e-9,
        "batched count diverged: {scalar_answer} vs {batched_answer}"
    );
    (scalar_ns, batched_ns)
}

/// Scalar vs batched `DecayedSum` (weights times a value column).
fn measure_sum<G: ForwardDecay>(g: G, ts: &[Timestamp], vals: &[f64]) -> (f64, f64) {
    let mut scalar_answer = 0.0;
    let scalar_ns = time_ns_per(ts.len(), || {
        let mut s = DecayedSum::new(g.clone(), 0.0);
        for (&t, &v) in ts.iter().zip(vals) {
            s.update(black_box(t), black_box(v));
        }
        scalar_answer = black_box(s.query(*ts.last().unwrap() + 1.0));
    });
    let mut batched_answer = 0.0;
    let batched_ns = time_ns_per(ts.len(), || {
        let mut s = DecayedSum::new(g.clone(), 0.0);
        for (tc, vc) in ts.chunks(BATCH).zip(vals.chunks(BATCH)) {
            s.update_batch(black_box(tc), black_box(vc));
        }
        batched_answer = black_box(s.query(*ts.last().unwrap() + 1.0));
    });
    let rel = (scalar_answer - batched_answer).abs() / scalar_answer.abs().max(1.0);
    assert!(
        rel <= 1e-9,
        "batched sum diverged: {scalar_answer} vs {batched_answer}"
    );
    (scalar_ns, batched_ns)
}

fn reduction_pct(scalar: f64, batched: f64) -> f64 {
    100.0 * (1.0 - batched / scalar)
}

fn main() {
    let packets = trace();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "hot path: {} tuples, batch {BATCH}, {cores} host core(s){}",
        packets.len(),
        if quick() { " [FD_QUICK]" } else { "" }
    );

    let ts: Vec<Timestamp> = packets
        .iter()
        .map(|p| Timestamp::from_micros(p.ts as i64))
        .collect();
    let vals: Vec<f64> = packets.iter().map(|p| p.len as f64).collect();

    let mut table = Table::new(
        "Hot path — scalar vs batched summary updates",
        "series",
        &["scalar ns/t", "batched ns/t", "reduction"],
    );
    let mut json_series = String::new();
    let mut record = |label: &str, scalar: f64, batched: f64| {
        let red = reduction_pct(scalar, batched);
        table.row(
            label,
            vec![
                format!("{scalar:.1}"),
                format!("{batched:.1}"),
                format!("{red:.0}%"),
            ],
        );
        let _ = writeln!(
            json_series,
            "    {{\"label\": \"{label}\", \"scalar_ns_per_tuple\": {scalar:.1}, \
             \"batched_ns_per_tuple\": {batched:.1}, \"reduction_pct\": {red:.1}}},"
        );
        red
    };

    let (s, b) = measure_count(NoDecay, &ts);
    record("no decay count", s, b);

    let g_poly2 = Monomial::quadratic();
    let (s, b) = measure_count(g_poly2, &ts);
    let poly2_reduction = record("fwd poly (β=2) count", s, b);

    let (s, b) = measure_count(Monomial::new(1.5), &ts);
    record("fwd poly (β=1.5) count, µs ticks", s, b);

    let (s, b) = measure_count(Exponential::new(0.1), &ts);
    record("exp (α=0.1) count, µs ticks", s, b);

    let (s, b) = measure_sum(g_poly2, &ts, &vals);
    let poly2_sum_reduction = record("fwd poly (β=2) sum", s, b);

    table.print();

    // Dispatch: the fig2 count query's serial ingress fraction.
    let q = Query::builder("fig2")
        .filter(|p| p.proto == Proto::Tcp)
        .group_by(|p| p.dst_host())
        .bucket_secs(60)
        .aggregate(count_factory())
        .try_build()
        .expect("valid query");
    let n_shards = 8;
    // Dispatch sweeps an 80 MB packet stream per pass and is the gated
    // number, so it gets extra passes to stabilize the minimum.
    let best = |f: &dyn Fn() -> f64| (0..PASSES + 2).map(|_| f()).fold(f64::INFINITY, f64::min);
    let disp_scalar = best(&|| measure_dispatch_scalar_ns(&q, n_shards, &packets));
    let disp_batched = best(&|| measure_dispatch_ns(&q, n_shards, &packets));
    let disp_reduction = reduction_pct(disp_scalar, disp_batched);
    let mut dtable = Table::new(
        "Hot path — dispatch cost (fig2 workload, 8 shards, no workers)",
        "path",
        &["ns/tuple"],
    );
    dtable.row(
        "scalar (per-tuple, mem::take)",
        vec![format!("{disp_scalar:.1}")],
    );
    dtable.row(
        "batched (columnar, pooled)",
        vec![format!("{disp_batched:.1}")],
    );
    dtable.row("reduction", vec![format!("{disp_reduction:.0}%")]);
    dtable.print();

    if quick() {
        println!("FD_QUICK set: skipping strict gates and the JSON write");
        return;
    }

    // Soft floors well under the committed numbers: catch a path that
    // stopped being batched at all, without flaking on machine noise.
    // The parent commit's run on the same runner + scripts/bench_diff.py
    // carry the tight (10%) regression gate.
    assert!(
        poly2_reduction >= 15.0 || poly2_sum_reduction >= 15.0,
        "fwd-poly batched path lost its advantage: \
         β=2 count {poly2_reduction:.1}%, β=2 sum {poly2_sum_reduction:.1}%"
    );
    assert!(
        disp_reduction >= 15.0,
        "batched dispatch lost its advantage: {disp_reduction:.1}%"
    );

    let json = format!(
        "{{\n  \"bench\": \"hotpath\",\n  \
         \"workload\": \"fig2 arrivals: 20000 hosts, zipf 1.1, 100000 pkt/s x 20 s, TCP\",\n  \
         \"host_cores\": {cores},\n  \
         \"batch_size\": {BATCH},\n  \
         \"note\": \"ns/tuple, best of {PASSES} passes; batched = update_batch over {BATCH}-tuple chunks; dispatch simulated without workers (serial ingress fraction)\",\n  \
         \"series\": [\n{}  ],\n  \
         \"dispatch\": {{\"n_shards\": {n_shards}, \"scalar_ns_per_tuple\": {disp_scalar:.1}, \
         \"batched_ns_per_tuple\": {disp_batched:.1}, \"reduction_pct\": {disp_reduction:.1}}}\n}}\n",
        json_series.trim_end_matches(",\n").to_string() + "\n"
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    std::fs::write(out, &json).expect("write BENCH_hotpath.json");
    println!("wrote {out}");
}
