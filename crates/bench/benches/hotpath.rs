//! Hot-path benchmark: the per-tuple cost of a forward-decay summary
//! update, per decay family — Theorem 1's one static weight `g(tᵢ − L)`
//! and one add.
//!
//! `DecayedCount` / `DecayedSum` are fed one tuple at a time on the
//! Figure 2 arrival process (100k pkt/s Poisson on microsecond ticks), as
//! the engine's cells are. A transcendental family (`powf`, `exp`) pays
//! for its `g`; the quadratic and the undecayed count pay for the add.
//! Each series is timed as the pipeline benchmark times a run: passes cut
//! into equal slices, the cost the sum of each slice's fastest time, the
//! series' passes interleaved.
//!
//! Results land in `BENCH_hotpath.json` at the repo root;
//! `scripts/bench_diff.py` gates CI on >10% ns/tuple regressions against
//! the parent commit's runs, measured in alternating pairs on the same
//! runner in the same job. `FD_QUICK=1` shrinks the run and skips the
//! JSON write.
//!
//! Run: `cargo bench --bench hotpath`

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use fd_bench::{quick, quick_scaled, Table};
use fd_core::aggregates::{DecayedCount, DecayedSum};
use fd_core::decay::{Exponential, ForwardDecay, Monomial, NoDecay};
use fd_core::Timestamp;
use fd_engine::prelude::*;
use fd_gen::TraceConfig;

/// Passes per series, interleaved across the series so each one's passes
/// spread over the whole run; a shared host slows by up to 2× in phases of
/// seconds, so the run (~6 s) is made long enough to see a quiet one.
const PASSES: usize = 100;
/// Equal slices each pass is timed in. Interference from the host only
/// ever slows a slice, so a series' cost is the sum over slices of each
/// slice's fastest time in any pass (every pass does identical work in
/// slice k).
const SLICES: usize = 32;

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

/// One pass of a series: every tuple into a fresh summary, each slice's
/// elapsed ns written to `slice_ns`.
type Pass<'a> = Box<dyn Fn(&mut [f64]) + 'a>;

/// `DecayedCount` fed one opaque tuple at a time; `black_box` keeps the
/// compiler from hoisting the weight computation out of the timed loop.
fn count<'a, G: ForwardDecay>(g: G, ts: &'a [Timestamp]) -> Pass<'a> {
    Box::new(move |slice_ns| {
        let mut c = DecayedCount::new(g.clone(), 0.0);
        let per = ts.len().div_ceil(slice_ns.len());
        for (chunk, ns) in ts.chunks(per).zip(slice_ns.iter_mut()) {
            let t0 = Instant::now();
            for &t in chunk {
                c.update(black_box(t));
            }
            *ns = t0.elapsed().as_nanos() as f64;
        }
        black_box(c.query(*ts.last().unwrap() + 1.0));
    })
}

/// `DecayedSum`: the weight times a value, one tuple at a time.
fn sum<'a, G: ForwardDecay>(g: G, ts: &'a [Timestamp], vals: &'a [f64]) -> Pass<'a> {
    Box::new(move |slice_ns| {
        let mut s = DecayedSum::new(g.clone(), 0.0);
        let per = ts.len().div_ceil(slice_ns.len());
        let chunks = ts.chunks(per).zip(vals.chunks(per));
        for ((tc, vc), ns) in chunks.zip(slice_ns.iter_mut()) {
            let t0 = Instant::now();
            for (&t, &v) in tc.iter().zip(vc) {
                s.update(black_box(t), black_box(v));
            }
            *ns = t0.elapsed().as_nanos() as f64;
        }
        black_box(s.query(*ts.last().unwrap() + 1.0));
    })
}

fn main() {
    let packets = trace();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "hot path: {} tuples, {cores} host core(s){}",
        packets.len(),
        if quick() { " [FD_QUICK]" } else { "" }
    );

    let ts: Vec<Timestamp> = packets
        .iter()
        .map(|p| Timestamp::from_micros(p.ts as i64))
        .collect();
    let vals: Vec<f64> = packets.iter().map(|p| p.len as f64).collect();

    let g_poly2 = Monomial::quadratic();
    let series: [(&str, Pass); 5] = [
        ("no decay count", count(NoDecay, &ts)),
        ("fwd poly (β=2) count", count(g_poly2, &ts)),
        (
            "fwd poly (β=1.5) count, µs ticks",
            count(Monomial::new(1.5), &ts),
        ),
        (
            "exp (α=0.1) count, µs ticks",
            count(Exponential::new(0.1), &ts),
        ),
        ("fwd poly (β=2) sum", sum(g_poly2, &ts, &vals)),
    ];
    let mut floors = [[f64::INFINITY; SLICES]; 5];
    let mut slice_ns = [0.0; SLICES];
    for _ in 0..PASSES {
        for ((_, pass), floor) in series.iter().zip(&mut floors) {
            pass(&mut slice_ns);
            for (f, &ns) in floor.iter_mut().zip(&slice_ns) {
                *f = f.min(ns);
            }
        }
    }

    let mut table = Table::new("Hot path — summary updates", "series", &["ns/t"]);
    let mut json_series = String::new();
    for ((label, _), floor) in series.iter().zip(&floors) {
        let ns = floor.iter().sum::<f64>() / ts.len() as f64;
        table.row(*label, vec![format!("{ns:.2}")]);
        let _ = writeln!(
            json_series,
            "    {{\"label\": \"{label}\", \"scalar_ns_per_tuple\": {ns:.2}}},"
        );
    }
    table.print();

    if quick() {
        println!("FD_QUICK set: skipping the JSON write");
        return;
    }

    let json = format!(
        "{{\n  \"bench\": \"hotpath\",\n  \
         \"workload\": \"fig2 arrivals: 20000 hosts, zipf 1.1, 100000 pkt/s x 20 s, TCP\",\n  \
         \"host_cores\": {cores},\n  \
         \"note\": \"ns/tuple, one update per tuple; each of {SLICES} slices at its fastest over {PASSES} interleaved passes\",\n  \
         \"series\": [\n{}  ]\n}}\n",
        json_series.trim_end_matches(",\n").to_string() + "\n"
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    std::fs::write(out, &json).expect("write BENCH_hotpath.json");
    println!("wrote {out}");
}
