//! Micro-benchmarks: per-update cost of every summary in fd-core, the
//! primitive costs underlying the figure-level results.
//!
//! Hand-rolled harness (no external benchmark framework): each summary is
//! rebuilt and driven over the same deterministic 100k-tuple stream for a
//! fixed number of rounds after a warm-up pass; the best round is reported
//! as ns/update, matching how criterion's minimum-time estimate is read.
//!
//! Run: `cargo bench --bench micro_summaries`

use std::hint::black_box;
use std::time::Instant;

use fd_bench::{quick, Table};
use fd_core::aggregates::{DecayedCount, DecayedSum};
use fd_core::backward::{ExponentialHistogram, PrefixBackwardHH, SlidingWindowHH};
use fd_core::decay::{Exponential, Monomial, NoDecay};
use fd_core::distinct::{DominanceSketch, ExactDominance};
use fd_core::heavy_hitters::{DecayedHeavyHitters, UnarySpaceSaving, WeightedSpaceSaving};
use fd_core::quantiles::QDigest;
use fd_core::sampling::{BiasedReservoir, PrioritySampler, ReservoirSampler, WeightedReservoir};

fn n() -> u64 {
    if quick() {
        20_000
    } else {
        100_000
    }
}

fn rounds() -> usize {
    if quick() {
        2
    } else {
        5
    }
}

/// Deterministic pseudo-stream: (timestamp, item, value).
fn stream() -> Vec<(f64, u64, u64)> {
    (0..n())
        .map(|i| {
            let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (i as f64 * 1e-3, h % 10_000, 40 + h % 1460)
        })
        .collect()
}

/// Times `run` (setup via `mk`, drive via `run`) over a few rounds after
/// one warm-up, returning the best observed ns/update.
fn bench<S>(mk: impl Fn() -> S, run: impl Fn(&mut S, &[(f64, u64, u64)])) -> f64 {
    let data = stream();
    let mut s = mk();
    run(&mut s, &data); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..rounds() {
        let mut s = mk();
        let start = Instant::now();
        run(&mut s, &data);
        let ns = start.elapsed().as_nanos() as f64 / data.len() as f64;
        best = best.min(ns);
    }
    best
}

fn main() {
    let mut table = Table::new(
        "Micro: per-update cost of each summary",
        "summary",
        &["ns/update"],
    );
    let mut add = |name: &str, ns: f64| {
        println!("{name:<32} {ns:>8.1} ns/update");
        table.row(name, vec![format!("{ns:.1}")]);
    };

    // ----- scalar aggregates ------------------------------------------------
    add(
        "decayed_sum_poly",
        bench(
            || DecayedSum::new(Monomial::quadratic(), 0.0),
            |s, data| {
                for &(t, _, v) in data {
                    s.update(t, v as f64);
                }
                black_box(s.query(100.0));
            },
        ),
    );
    add(
        "decayed_sum_exp",
        bench(
            || DecayedSum::new(Exponential::new(0.1), 0.0),
            |s, data| {
                for &(t, _, v) in data {
                    s.update(t, v as f64);
                }
                black_box(s.query(100.0));
            },
        ),
    );
    add(
        "decayed_count_nodecay",
        bench(
            || DecayedCount::new(NoDecay, 0.0),
            |s, data| {
                for &(t, _, _) in data {
                    s.update(t);
                }
                black_box(s.query(100.0));
            },
        ),
    );

    // ----- heavy hitters ----------------------------------------------------
    add(
        "unary_space_saving",
        bench(
            || UnarySpaceSaving::with_epsilon(0.01),
            |s, data| {
                for &(_, item, _) in data {
                    s.update(item);
                }
                black_box(s.len());
            },
        ),
    );
    add(
        "weighted_space_saving",
        bench(
            || WeightedSpaceSaving::with_epsilon(0.01),
            |s, data| {
                for &(_, item, v) in data {
                    s.update(item, v as f64);
                }
                black_box(s.len());
            },
        ),
    );
    add(
        "decayed_hh_exp",
        bench(
            || DecayedHeavyHitters::with_epsilon(Exponential::new(0.1), 0.0, 0.01),
            |s, data| {
                for &(t, item, _) in data {
                    s.update(t, item);
                }
                black_box(s.decayed_count(100.0));
            },
        ),
    );

    // ----- backward-decay baselines -----------------------------------------
    add(
        "eh_count_eps0.01",
        bench(
            || ExponentialHistogram::with_epsilon(0.01),
            |s, data| {
                for &(t, _, _) in data {
                    s.insert(t);
                }
                black_box(s.bucket_count());
            },
        ),
    );
    add(
        "eh_sum_eps0.01",
        bench(
            || ExponentialHistogram::with_epsilon(0.01),
            |s, data| {
                for &(t, _, v) in data {
                    s.insert_value(t, v);
                }
                black_box(s.bucket_count());
            },
        ),
    );
    add(
        "dyadic_window_hh",
        bench(
            || SlidingWindowHH::new(1.0, 8),
            |s, data| {
                for &(t, item, _) in data {
                    s.update(t, item);
                }
                black_box(s.interval_count());
            },
        ),
    );
    add(
        "prefix_backward_hh",
        bench(
            || PrefixBackwardHH::new(16, 0.05),
            |s, data| {
                for &(t, item, _) in data {
                    s.update(t, item);
                }
                black_box(s.node_count());
            },
        ),
    );

    // ----- quantiles ---------------------------------------------------------
    add(
        "qdigest_weighted",
        bench(
            || QDigest::with_epsilon(14, 0.01),
            |s, data| {
                for &(_, item, v) in data {
                    s.update(item & 0x3FFF, v as f64);
                }
                black_box(s.quantile(0.5));
            },
        ),
    );
    // ----- samplers ----------------------------------------------------------
    add(
        "reservoir_k1000",
        bench(
            || ReservoirSampler::new(1000, 7),
            |s, data| {
                for &(_, item, _) in data {
                    s.update(item);
                }
                black_box(s.sample().len());
            },
        ),
    );
    add(
        "weighted_reservoir_exp_k1000",
        bench(
            || WeightedReservoir::new(Exponential::new(0.1), 0.0, 1000, 7),
            |s, data| {
                for &(t, item, _) in data {
                    s.update(t, &item);
                }
                black_box(s.sample().len());
            },
        ),
    );
    add(
        "priority_sampler_exp_k1000",
        bench(
            || PrioritySampler::new(Exponential::new(0.1), 0.0, 1000, 7),
            |s, data| {
                for &(t, item, _) in data {
                    s.update(t, &item);
                }
                black_box(s.sample().len());
            },
        ),
    );
    add(
        "biased_reservoir_lambda0.001",
        bench(
            || BiasedReservoir::new(0.001, 7),
            |s, data| {
                for &(_, item, _) in data {
                    s.update(item);
                }
                black_box(s.sample().len());
            },
        ),
    );

    // ----- distinct / dominance ----------------------------------------------
    add(
        "exact_dominance",
        bench(
            || ExactDominance::new(Monomial::quadratic(), 0.0),
            |s, data| {
                for &(t, item, _) in data {
                    s.update(t, item);
                }
                black_box(s.query(100.0));
            },
        ),
    );
    add(
        "dominance_sketch_eps0.2",
        bench(
            || DominanceSketch::new(Monomial::quadratic(), 0.0, 0.2, 7),
            |s, data| {
                for &(t, item, _) in data {
                    s.update(t, item);
                }
                black_box(s.query(100.0));
            },
        ),
    );

    table.print();
}
