//! Randomized property tests for fd-core: the paper's definitions, theorems
//! and error bounds checked on deterministic pseudo-random inputs.
//!
//! Each test runs a fixed number of cases from a seeded [`SmallRng`], so
//! failures are reproducible without an external property-testing framework.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use fd_core::aggregates::{DecayedCount, DecayedExtremum, DecayedSum, DecayedVariance};
use fd_core::backward::{ExponentialHistogram, PrefixBackwardHH};
use fd_core::cm::CmSketch;
use fd_core::decay::{
    check_backward_axioms, check_forward_axioms, BackExponential, BackPolynomial,
    BackSlidingWindow, BackwardDecay, Exponential, ForwardDecay, LandmarkWindow, Monomial, NoDecay,
    PolySum,
};
use fd_core::distinct::{DominanceSketch, ExactDominance, Kmv};
use fd_core::heavy_hitters::{UnarySpaceSaving, WeightedSpaceSaving};
use fd_core::numerics::LogSum;
use fd_core::quantiles::QDigest;
use fd_core::sampling::{JumpWeightedReservoir, PrioritySampler, WeightedReservoir};
use fd_core::{Mergeable, Timestamp};

const CASES: u64 = 32;

/// Run [`CASES`] independent cases of `body`, each with its own seeded RNG.
fn cases(test_seed: u64, mut body: impl FnMut(&mut SmallRng)) {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(test_seed.wrapping_mul(0x9e37_79b9) ^ case);
        body(&mut rng);
    }
}

/// A random stream of (timestamp, value) pairs with timestamps in
/// `(landmark, landmark + span]` and values in `[-100, 100)`.
fn random_stream(rng: &mut SmallRng, landmark: f64, span: f64, max_len: usize) -> Vec<(f64, f64)> {
    let len = rng.gen_range(1..max_len.max(2));
    (0..len)
        .map(|_| {
            (
                landmark + rng.gen_range(0.001..1.0) * span,
                rng.gen_range(-100.0..100.0),
            )
        })
        .collect()
}

fn random_vec_f64(
    rng: &mut SmallRng,
    lo: f64,
    hi: f64,
    min_len: usize,
    max_len: usize,
) -> Vec<f64> {
    let len = rng.gen_range(min_len..max_len);
    (0..len).map(|_| rng.gen_range(lo..hi)).collect()
}

// ----- Definition 1 axioms -------------------------------------------

#[test]
fn forward_axioms_random_monomial() {
    cases(1, |rng| {
        let beta = rng.gen_range(0.1..6.0);
        check_forward_axioms(&Monomial::new(beta), 0.0, 200.0, 40).unwrap();
    });
}

#[test]
fn forward_axioms_random_exponential() {
    cases(2, |rng| {
        let alpha = rng.gen_range(0.001..2.0);
        check_forward_axioms(&Exponential::new(alpha), 5.0, 105.0, 40).unwrap();
    });
}

#[test]
fn forward_axioms_random_polysum() {
    cases(3, |rng| {
        let c0 = rng.gen_range(0.0..5.0);
        let c1 = rng.gen_range(0.0..5.0);
        let c2 = rng.gen_range(0.01..5.0);
        check_forward_axioms(&PolySum::new(vec![c0, c1, c2]), 0.0, 100.0, 40).unwrap();
    });
}

#[test]
fn backward_axioms_random() {
    cases(4, |rng| {
        let lambda = rng.gen_range(0.001..1.0);
        let alpha = rng.gen_range(0.1..4.0);
        let w = rng.gen_range(1.0..500.0);
        check_backward_axioms(&BackExponential::new(lambda), 300.0, 40).unwrap();
        check_backward_axioms(&BackPolynomial::new(alpha), 300.0, 40).unwrap();
        check_backward_axioms(&BackSlidingWindow::new(w), 600.0, 40).unwrap();
    });
}

// ----- Section III-A: forward exp ≡ backward exp ----------------------

#[test]
fn exponential_models_coincide() {
    cases(5, |rng| {
        let alpha = rng.gen_range(0.001..1.0);
        let landmark = rng.gen_range(0.0..100.0);
        let t_i = landmark + rng.gen_range(0.0..100.0);
        let t = t_i + rng.gen_range(0.0..200.0);
        let fwd = Exponential::new(alpha).weight(landmark, t_i, t);
        let bwd = BackExponential::new(alpha).weight(t_i, t);
        assert!((fwd - bwd).abs() < 1e-9);
    });
}

// ----- Lemma 1: relative decay ----------------------------------------

#[test]
fn relative_decay_for_monomials() {
    cases(6, |rng| {
        let beta = rng.gen_range(0.1..5.0);
        let gamma = rng.gen_range(0.01..1.0);
        let t1 = rng.gen_range(1.0..1e4);
        let scale = rng.gen_range(1.1..1e3);
        let g = Monomial::new(beta);
        let landmark = 0.0;
        let t2 = t1 * scale;
        let w1 = g.weight(landmark, gamma * t1, t1);
        let w2 = g.weight(landmark, gamma * t2, t2);
        // Timestamps are quantized to integer microseconds, which perturbs the
        // effective gamma = t_i / t by up to ~1e-6/(gamma*t1); the exact law
        // holds on the quantized times, and to ~1e-3 on the analytic gamma.
        let quant = |x: f64| Timestamp::from(x).as_secs_f64();
        let g1 = quant(gamma * t1) / quant(t1);
        let g2 = quant(gamma * t2) / quant(t2);
        assert!(
            (w1 - g1.powf(beta)).abs() < 1e-9,
            "w({t1}) = {w1} != {g1}^{beta}"
        );
        assert!(
            (w2 - g2.powf(beta)).abs() < 1e-9,
            "w({t2}) = {w2} != {g2}^{beta}"
        );
        assert!((w1 - w2).abs() < 1e-3, "w({t1}) = {w1}, w({t2}) = {w2}");
        assert!((w1 - gamma.powf(beta)).abs() < 1e-3);
    });
}

// ----- Theorem 1: aggregates match brute force ------------------------

#[test]
fn decayed_sum_count_match_brute_force() {
    cases(7, |rng| {
        let items = random_stream(rng, 10.0, 90.0, 200);
        let beta = rng.gen_range(0.2..4.0);
        let g = Monomial::new(beta);
        let landmark = 10.0;
        let t_q = 110.0;
        let mut sum = DecayedSum::new(g, landmark);
        let mut count = DecayedCount::new(g, landmark);
        for &(t, v) in &items {
            sum.update(t, v);
            count.update(t);
        }
        let bs: f64 = items
            .iter()
            .map(|&(t, v)| g.weight(landmark, t, t_q) * v)
            .sum();
        let bc: f64 = items.iter().map(|&(t, _)| g.weight(landmark, t, t_q)).sum();
        assert!((sum.query(t_q) - bs).abs() <= 1e-9 * bs.abs().max(1.0));
        assert!((count.query(t_q) - bc).abs() <= 1e-9 * bc.max(1.0));
    });
}

#[test]
fn aggregates_are_order_invariant() {
    cases(8, |rng| {
        let items = random_stream(rng, 0.0, 50.0, 100);
        let seed = rng.gen_range(0u64..1000);
        let g = Exponential::new(0.1);
        let mut forward_order = DecayedVariance::new(g, 0.0);
        let mut shuffled_order = DecayedVariance::new(g, 0.0);
        for &(t, v) in &items {
            forward_order.update(t, v);
        }
        // Deterministic shuffle driven by `seed`.
        let mut shuffled = items.clone();
        let n = shuffled.len();
        for i in 0..n {
            let j = ((seed as usize).wrapping_mul(31).wrapping_add(i * 17)) % n;
            shuffled.swap(i, j);
        }
        for &(t, v) in &shuffled {
            shuffled_order.update(t, v);
        }
        let (a, b) = (forward_order.query(60.0), shuffled_order.query(60.0));
        match (a, b) {
            (Some(x), Some(y)) => assert!((x - y).abs() <= 1e-6 * x.abs().max(1.0)),
            _ => assert_eq!(a.is_some(), b.is_some()),
        }
    });
}

#[test]
fn merge_equals_concat_random_split() {
    cases(9, |rng| {
        let items = random_stream(rng, 0.0, 80.0, 150);
        let split_mask = rng.gen::<u64>();
        let g = Monomial::quadratic();
        let mut whole = DecayedSum::new(g, 0.0);
        let mut a = DecayedSum::new(g, 0.0);
        let mut b = DecayedSum::new(g, 0.0);
        for (i, &(t, v)) in items.iter().enumerate() {
            whole.update(t, v);
            if (split_mask >> (i % 64)) & 1 == 0 {
                a.update(t, v);
            } else {
                b.update(t, v);
            }
        }
        a.merge_from(&b);
        let (x, y) = (whole.query(100.0), a.query(100.0));
        assert!((x - y).abs() <= 1e-9 * x.abs().max(1.0));
    });
}

#[test]
fn extremum_matches_brute_force() {
    cases(10, |rng| {
        let items = random_stream(rng, 0.0, 50.0, 120);
        let g = Monomial::new(1.0);
        let mut mx = DecayedExtremum::max(g, 0.0);
        for &(t, v) in &items {
            mx.update(t, v);
        }
        let t_q = 60.0;
        let brute = items
            .iter()
            .map(|&(t, v)| g.weight(0.0, t, t_q) * v)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((mx.query(t_q).unwrap().0 - brute).abs() < 1e-9);
    });
}

// ----- Numerics --------------------------------------------------------

#[test]
fn logsum_matches_naive() {
    cases(11, |rng| {
        let xs = random_vec_f64(rng, 1e-6, 1e6, 1, 50);
        let mut ls = LogSum::new();
        for &x in &xs {
            ls.add_ln(x.ln());
        }
        let naive: f64 = xs.iter().sum();
        assert!((ls.value() - naive).abs() <= 1e-9 * naive);
    });
}

#[test]
fn exponential_count_is_landmark_invariant() {
    cases(12, |rng| {
        // Section III-A / VI-A: for exponential decay the landmark choice
        // must not affect the decayed result.
        let alpha = rng.gen_range(0.01..0.5);
        let items = random_vec_f64(rng, 0.0, 100.0, 1, 100);
        let g = Exponential::new(alpha);
        let t_q = 150.0;
        let mut c0 = DecayedCount::new(g, 0.0);
        let mut c50 = DecayedCount::new(g, -50.0);
        for &t in &items {
            c0.update(t);
            c50.update(t);
        }
        let (a, b) = (c0.query(t_q), c50.query(t_q));
        assert!((a - b).abs() <= 1e-9 * a.max(1.0));
    });
}

// ----- Theorem 2: SpaceSaving bounds -----------------------------------

#[test]
fn space_saving_never_underestimates() {
    cases(13, |rng| {
        let n = rng.gen_range(50..400);
        let items: Vec<(u64, f64)> = (0..n)
            .map(|_| (rng.gen_range(0u64..40), rng.gen_range(0.5..5.0)))
            .collect();
        let cap = rng.gen_range(4usize..24);
        let mut ss = WeightedSpaceSaving::new(cap);
        let mut exact = std::collections::HashMap::<u64, f64>::new();
        let mut total = 0.0;
        for &(item, w) in &items {
            ss.update(item, w);
            *exact.entry(item).or_default() += w;
            total += w;
        }
        for (&item, &true_w) in &exact {
            if let Some(c) = ss.estimate(item) {
                assert!(c.count + 1e-9 >= true_w);
                assert!(c.count - true_w <= total / cap as f64 + 1e-9);
                assert!(c.count - c.error <= true_w + 1e-9);
            } else {
                assert!(true_w <= total / cap as f64 + 1e-9);
            }
        }
    });
}

#[test]
fn unary_space_saving_bounds() {
    cases(14, |rng| {
        let len = rng.gen_range(100usize..600);
        let items: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..60)).collect();
        let cap = rng.gen_range(4usize..32);
        let mut ss = UnarySpaceSaving::new(cap);
        let mut exact = std::collections::HashMap::<u64, u64>::new();
        for &item in &items {
            ss.update(item);
            *exact.entry(item).or_default() += 1;
        }
        let n = items.len() as f64;
        for (&item, &c) in &exact {
            if let Some((est, err)) = ss.estimate(item) {
                assert!(est >= c);
                assert!((est - c) as f64 <= n / cap as f64 + 1.0);
                assert!(est.saturating_sub(err) <= c);
            } else {
                assert!((c as f64) <= n / cap as f64 + 1.0);
            }
        }
    });
}

// ----- Theorem 3: quantile bounds --------------------------------------

#[test]
fn qdigest_rank_error() {
    cases(15, |rng| {
        let n = rng.gen_range(100..800);
        let items: Vec<(u64, f64)> = (0..n)
            .map(|_| (rng.gen_range(0u64..1024), rng.gen_range(0.5..4.0)))
            .collect();
        let eps = 0.1;
        let mut q = QDigest::with_epsilon(10, eps);
        for &(v, w) in &items {
            q.update(v, w);
        }
        let total: f64 = items.iter().map(|&(_, w)| w).sum();
        for probe in [0u64, 128, 511, 777, 1023] {
            let exact: f64 = items
                .iter()
                .filter(|&&(v, _)| v <= probe)
                .map(|&(_, w)| w)
                .sum();
            assert!((q.rank(probe) - exact).abs() <= eps * total + 1e-9);
        }
    });
}

#[test]
fn qdigest_merge_preserves_bounds() {
    cases(17, |rng| {
        let n = rng.gen_range(100..500);
        let items: Vec<(u64, f64)> = (0..n)
            .map(|_| (rng.gen_range(0u64..256), rng.gen_range(1.0..2.0)))
            .collect();
        let mask = rng.gen::<u64>();
        let eps = 0.1;
        let mut a = QDigest::with_epsilon(8, eps);
        let mut b = QDigest::with_epsilon(8, eps);
        for (i, &(v, w)) in items.iter().enumerate() {
            if (mask >> (i % 64)) & 1 == 0 {
                a.update(v, w)
            } else {
                b.update(v, w)
            }
        }
        a.merge_from(&b);
        let total: f64 = items.iter().map(|&(_, w)| w).sum();
        for probe in [0u64, 64, 128, 255] {
            let exact: f64 = items
                .iter()
                .filter(|&&(v, _)| v <= probe)
                .map(|&(_, w)| w)
                .sum();
            assert!((a.rank(probe) - exact).abs() <= 2.0 * eps * total + 1e-9);
        }
    });
}

// ----- Theorem 4: dominance norm ---------------------------------------

#[test]
fn exact_dominance_is_max_per_value() {
    cases(18, |rng| {
        let n = rng.gen_range(1..200);
        let items: Vec<(f64, u64)> = (0..n)
            .map(|_| (rng.gen_range(0.1..50.0), rng.gen_range(0u64..30)))
            .collect();
        let g = Monomial::new(1.0);
        let mut d = ExactDominance::new(g, 0.0);
        let mut maxw = std::collections::HashMap::<u64, f64>::new();
        let t_q = 60.0;
        for &(t, v) in &items {
            d.update(t, v);
            let w = g.weight(0.0, t, t_q);
            maxw.entry(v).and_modify(|m| *m = m.max(w)).or_insert(w);
        }
        let brute: f64 = maxw.values().sum();
        assert!((d.query(t_q) - brute).abs() <= 1e-9 * brute.max(1.0));
    });
}

#[test]
fn kmv_merge_equals_union() {
    cases(19, |rng| {
        let n = rng.gen_range(10..500);
        let keys: Vec<u64> = (0..n).map(|_| rng.gen::<u64>()).collect();
        let mask = rng.gen::<u64>();
        let h = fd_core::hash::SeededHash::new(1);
        let mut a = Kmv::new(32);
        let mut b = Kmv::new(32);
        let mut whole = Kmv::new(32);
        for (i, &k) in keys.iter().enumerate() {
            whole.offer(h.hash(k));
            if (mask >> (i % 64)) & 1 == 0 {
                a.offer(h.hash(k));
            } else {
                b.offer(h.hash(k));
            }
        }
        a.merge_from(&b);
        assert_eq!(a.threshold(), whole.threshold());
        assert!((a.estimate() - whole.estimate()).abs() < 1e-9);
    });
}

#[test]
fn dominance_sketch_order_invariance() {
    cases(20, |rng| {
        // The sketch must give identical answers for any arrival order
        // (Section VI-B: out-of-order arrivals are free).
        let n = rng.gen_range(10..200);
        let items: Vec<(f64, u64)> = (0..n)
            .map(|_| (rng.gen_range(0.1..20.0), rng.gen_range(0u64..100)))
            .collect();
        let g = Monomial::new(2.0);
        let mut fwd = DominanceSketch::new(g, 0.0, 0.2, 7);
        let mut rev = DominanceSketch::new(g, 0.0, 0.2, 7);
        for &(t, v) in &items {
            fwd.update(t, v);
        }
        for &(t, v) in items.iter().rev() {
            rev.update(t, v);
        }
        let (a, b) = (fwd.query(25.0), rev.query(25.0));
        assert!((a - b).abs() <= 0.05 * a.abs().max(1.0), "{a} vs {b}");
    });
}

// ----- Theorem 6 / samplers --------------------------------------------

#[test]
fn weighted_reservoir_invariants() {
    cases(21, |rng| {
        let items = random_vec_f64(rng, 0.1, 100.0, 1, 300);
        let k = rng.gen_range(1usize..20);
        let seed = rng.gen::<u64>();
        let g = Monomial::new(1.0);
        let mut wr = WeightedReservoir::new(g, 0.0, k, seed);
        for (i, &t) in items.iter().enumerate() {
            wr.update(t, &(i as u64));
        }
        let sample = wr.sample();
        assert_eq!(sample.len(), k.min(items.len()));
        let mut ids: Vec<u64> = sample.iter().map(|e| e.item).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate items in sample");
    });
}

#[test]
fn priority_sampler_estimate_exact_underfull() {
    cases(22, |rng| {
        let items = random_vec_f64(rng, 0.1, 50.0, 1, 10);
        let seed = rng.gen::<u64>();
        let g = Monomial::new(1.0);
        let mut ps = PrioritySampler::new(g, 0.0, 16, seed);
        for (i, &t) in items.iter().enumerate() {
            ps.update(t, &(i as u64));
        }
        let t_q = 60.0;
        let truth: f64 = items.iter().map(|&t| g.weight(0.0, t, t_q)).sum();
        assert!((ps.estimate_decayed_count(t_q) - truth).abs() <= 1e-9 * truth.max(1.0));
    });
}

// ----- Exponential histograms ------------------------------------------

#[test]
fn eh_window_error() {
    cases(23, |rng| {
        let n = rng.gen_range(100usize..3000);
        let eps_inv = rng.gen_range(5u32..20);
        let wfrac = rng.gen_range(0.05..1.0);
        let eps = 1.0 / eps_inv as f64;
        let mut eh = ExponentialHistogram::with_epsilon(eps);
        let ts: Vec<f64> = (0..n).map(|i| i as f64).collect();
        for &t in &ts {
            eh.insert(t);
        }
        let t_q = ts[n - 1];
        let w = wfrac * n as f64;
        let exact = ts.iter().filter(|&&x| x > t_q - w).count() as f64;
        let est = eh.window_query(w, t_q);
        assert!(
            (est - exact).abs() <= eps * exact.max(1.0) + 1.0,
            "n={n} eps={eps} w={w}: est {est} exact {exact}"
        );
    });
}

#[test]
fn eh_total_is_exact() {
    cases(24, |rng| {
        let len = rng.gen_range(1usize..500);
        let values: Vec<u64> = (0..len).map(|_| rng.gen_range(1u64..1000)).collect();
        let mut eh = ExponentialHistogram::with_epsilon(0.1);
        for (i, &v) in values.iter().enumerate() {
            eh.insert_value(i as f64, v);
        }
        assert_eq!(eh.total(), values.iter().sum::<u64>());
        // Whole-stream window query must also be near-exact (no straddler).
        let est = eh.window_query(values.len() as f64 + 10.0, values.len() as f64);
        assert!((est - eh.total() as f64).abs() <= 1e-9);
    });
}

// ----- Landmark window / no decay --------------------------------------

#[test]
fn landmark_window_counts_post_landmark_items() {
    cases(25, |rng| {
        let items = random_vec_f64(rng, 0.0, 100.0, 1, 100);
        let landmark = rng.gen_range(0.0..100.0);
        let mut c = DecayedCount::new(LandmarkWindow, landmark);
        let mut expected = 0u32;
        for &t in &items {
            if t >= landmark {
                c.update(t);
                if t > landmark {
                    expected += 1;
                }
            }
        }
        assert!((c.query(200.0) - expected as f64).abs() < 1e-9);
    });
}

// ----- Count-Min -------------------------------------------------------

#[test]
fn cm_sketch_is_an_upper_bound() {
    cases(26, |rng| {
        let n = rng.gen_range(20..400);
        let items: Vec<(u64, f64)> = (0..n)
            .map(|_| (rng.gen_range(0u64..50), rng.gen_range(0.1..5.0)))
            .collect();
        let seed = rng.gen::<u64>();
        let mut cm = CmSketch::new(128, 3, seed);
        let mut exact = std::collections::HashMap::<u64, f64>::new();
        for &(item, w) in &items {
            cm.update(item, w);
            *exact.entry(item).or_default() += w;
        }
        for (&item, &true_w) in &exact {
            assert!(cm.query(item) + 1e-9 >= true_w);
        }
        let total: f64 = exact.values().sum();
        assert!((cm.total_weight() - total).abs() <= 1e-9 * total);
    });
}

#[test]
fn cm_merge_equals_concat_prop() {
    cases(27, |rng| {
        let n = rng.gen_range(20..300);
        let items: Vec<(u64, f64)> = (0..n)
            .map(|_| (rng.gen_range(0u64..100), rng.gen_range(0.5..2.0)))
            .collect();
        let mask = rng.gen::<u64>();
        let mut a = CmSketch::new(64, 3, 9);
        let mut b = CmSketch::new(64, 3, 9);
        let mut whole = CmSketch::new(64, 3, 9);
        for (i, &(item, w)) in items.iter().enumerate() {
            whole.update(item, w);
            if (mask >> (i % 64)) & 1 == 0 {
                a.update(item, w)
            } else {
                b.update(item, w)
            }
        }
        a.merge_from(&b);
        for item in 0..100u64 {
            assert!((a.query(item) - whole.query(item)).abs() < 1e-9);
        }
    });
}

// ----- Prefix-hierarchy backward HH -------------------------------------

#[test]
fn prefix_hh_total_prop() {
    cases(29, |rng| {
        let n = rng.gen_range(100usize..1000);
        let alpha = rng.gen_range(0.01..0.5);
        let mut hh = PrefixBackwardHH::new(8, 0.05);
        let ts: Vec<f64> = (0..n).map(|i| i as f64 * 0.1).collect();
        for (i, &t) in ts.iter().enumerate() {
            hh.update(t, (i % 256) as u64);
        }
        let f = BackExponential::new(alpha);
        let t_q = ts[n - 1] + 1.0;
        let exact: f64 = ts.iter().map(|&x| f.weight(x, t_q)).sum();
        let got = hh.decayed_total(&f, t_q);
        assert!(
            (got - exact).abs() / exact.max(1e-9) < 0.2,
            "{got} vs {exact}"
        );
    });
}

// ----- Jump-accelerated weighted reservoir ------------------------------

#[test]
fn jump_reservoir_invariants() {
    cases(30, |rng| {
        let items = random_vec_f64(rng, 0.1, 100.0, 1, 300);
        let k = rng.gen_range(1usize..20);
        let seed = rng.gen::<u64>();
        let g = Monomial::new(1.0);
        let mut jr = JumpWeightedReservoir::new(0.0, k, seed);
        for (i, &t) in items.iter().enumerate() {
            jr.update(&g, t, &(i as u64));
        }
        let sample = jr.sample();
        assert_eq!(sample.len(), k.min(items.len()));
        let mut ids: Vec<u64> = sample.iter().map(|(&item, _)| item).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate items in jump sample");
        assert!(jr.random_draws() <= jr.items_seen() + k as u64 + 2);
    });
}

// ----- AnyDecay ----------------------------------------------------------

#[test]
fn any_decay_poly_matches_monomial() {
    cases(31, |rng| {
        use fd_core::decay::AnyDecay;
        let beta = rng.gen_range(0.1..5.0);
        let t_i = rng.gen_range(1.0..50.0);
        let dt = rng.gen_range(0.0..50.0);
        let spec: AnyDecay = format!("poly:{beta}").parse().unwrap();
        let stat = Monomial::new(beta);
        let t = t_i + dt;
        assert!((spec.weight(0.0, t_i, t) - stat.weight(0.0, t_i, t)).abs() < 1e-12);
    });
}

#[test]
fn no_decay_count_is_plain_count() {
    cases(32, |rng| {
        let items = random_vec_f64(rng, 0.0, 100.0, 1, 100);
        let mut c = DecayedCount::new(NoDecay, 0.0);
        for &t in &items {
            c.update(t);
        }
        assert!((c.query(1000.0) - items.len() as f64).abs() < 1e-9);
    });
}

// ----- Checkpoint codec ---------------------------------------------------

#[test]
fn checkpoint_roundtrips_decayed_sum() {
    cases(33, |rng| {
        use fd_core::checkpoint::{from_bytes, to_bytes};
        let n = rng.gen_range(0..200);
        let items: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.gen_range(0.0..100.0), rng.gen_range(-50.0..50.0)))
            .collect();
        let alpha = rng.gen_range(0.01..2.0);
        let mut s = DecayedSum::new(Exponential::new(alpha), 0.0);
        for &(t, v) in &items {
            s.update(t, v);
        }
        let bytes = to_bytes(&s);
        let restored: DecayedSum<Exponential> = from_bytes(&bytes).unwrap();
        assert_eq!(s.query(150.0).to_bits(), restored.query(150.0).to_bits());
    });
}

#[test]
fn checkpoint_roundtrips_space_saving() {
    cases(34, |rng| {
        use fd_core::checkpoint::{from_bytes, to_bytes};
        let n = rng.gen_range(1..300);
        let items: Vec<(u64, f64)> = (0..n)
            .map(|_| (rng.gen_range(0u64..200), rng.gen_range(0.1..5.0)))
            .collect();
        let cap = rng.gen_range(2usize..32);
        let mut ss = WeightedSpaceSaving::new(cap);
        for &(item, w) in &items {
            ss.update(item, w);
        }
        let bytes = to_bytes(&ss);
        let restored: WeightedSpaceSaving = from_bytes(&bytes).unwrap();
        assert_eq!(restored.len(), ss.len());
        assert!((restored.total_weight() - ss.total_weight()).abs() < 1e-12);
        for &(item, _) in &items {
            let (a, b) = (ss.estimate(item), restored.estimate(item));
            assert_eq!(a.map(|c| c.count.to_bits()), b.map(|c| c.count.to_bits()));
        }
    });
}

#[test]
fn checkpoint_roundtrips_qdigest() {
    cases(35, |rng| {
        use fd_core::checkpoint::{from_bytes, to_bytes};
        let n = rng.gen_range(1..300);
        let items: Vec<(u64, f64)> = (0..n)
            .map(|_| (rng.gen_range(0u64..256), rng.gen_range(0.5..3.0)))
            .collect();
        let mut q = QDigest::with_epsilon(8, 0.1);
        for &(v, w) in &items {
            q.update(v, w);
        }
        let bytes = to_bytes(&q);
        let restored: QDigest = from_bytes(&bytes).unwrap();
        for probe in [0u64, 63, 128, 255] {
            assert!((q.rank(probe) - restored.rank(probe)).abs() < 1e-9);
        }
    });
}

#[test]
fn checkpoint_rejects_random_corruption() {
    cases(36, |rng| {
        use fd_core::checkpoint::{from_bytes, to_bytes};
        // Flipping a bit either changes the value or breaks decoding — it
        // must never panic.
        let corrupt_at = rng.gen_range(0usize..64);
        let bit = rng.gen_range(0u8..8);
        let mut ss = WeightedSpaceSaving::new(4);
        ss.update(1, 2.0);
        ss.update(2, 3.0);
        let mut bytes = to_bytes(&ss);
        let idx = corrupt_at % bytes.len();
        bytes[idx] ^= 1 << bit;
        let _ = from_bytes::<WeightedSpaceSaving>(&bytes); // Ok or Err, no panic
    });
}

#[test]
fn checkpoint_prefixes_error_never_panic() {
    // Every strict prefix of a valid checkpoint is what a torn write
    // leaves behind. Decoding one must be a clean `Err` — truncated input
    // or trailing-byte mismatch — and never a panic or a bogus `Ok`.
    cases(37, |rng| {
        use fd_core::checkpoint::{from_bytes, to_bytes};
        let mut s = DecayedSum::new(Exponential::new(rng.gen_range(0.01..1.0)), 0.0);
        for (t, v) in random_stream(rng, 0.0, 50.0, 64) {
            s.update(t, v);
        }
        let sum_bytes = to_bytes(&s);
        let mut ss = WeightedSpaceSaving::new(rng.gen_range(2usize..16));
        for _ in 0..rng.gen_range(1..100) {
            ss.update(rng.gen_range(0u64..50), rng.gen_range(0.1..4.0));
        }
        let ss_bytes = to_bytes(&ss);
        let cut = rng.gen_range(0..sum_bytes.len());
        assert!(
            from_bytes::<DecayedSum<Exponential>>(&sum_bytes[..cut]).is_err(),
            "prefix of len {cut}/{} decoded as DecayedSum",
            sum_bytes.len()
        );
        let cut = rng.gen_range(0..ss_bytes.len());
        assert!(
            from_bytes::<WeightedSpaceSaving>(&ss_bytes[..cut]).is_err(),
            "prefix of len {cut}/{} decoded as WeightedSpaceSaving",
            ss_bytes.len()
        );
        // Cross-type decodes of the prefixes may land anywhere in Ok/Err —
        // but never in a panic.
        let _ = from_bytes::<WeightedSpaceSaving>(&sum_bytes[..cut.min(sum_bytes.len())]);
        let _ = from_bytes::<DecayedSum<Exponential>>(&ss_bytes[..cut]);
    });
}

#[test]
fn reader_survives_arbitrary_byte_soup() {
    // The durability layer points `Reader` at whatever survived a crash.
    // Any read schedule over any bytes must either succeed or error —
    // and a failed read must consume nothing.
    cases(38, |rng| {
        use fd_core::checkpoint::{Decode, Reader};
        let len = rng.gen_range(0usize..128);
        let soup: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let mut r = Reader::new(&soup);
        for _ in 0..64 {
            let before = r.remaining();
            let consumed = match rng.gen_range(0u8..4) {
                0 => u64::take(&mut r).is_ok().then_some(8),
                1 => u32::take(&mut r).is_ok().then_some(4),
                2 => u8::take(&mut r).is_ok().then_some(1),
                _ => {
                    let n = rng.gen_range(0usize..64);
                    r.bytes(n).is_ok().then_some(n)
                }
            };
            match consumed {
                Some(n) => assert_eq!(r.remaining(), before - n),
                None => assert_eq!(r.remaining(), before, "failed read consumed bytes"),
            }
        }
    });
}

#[test]
fn frame_stream_prefixes_truncate_cleanly() {
    // A log is a concatenation of frames; cutting it at any byte must
    // yield some complete frames followed by exactly one Torn (or a clean
    // End when the cut lands on a frame boundary) — the invariant behind
    // the WAL's torn-tail truncation rule.
    cases(39, |rng| {
        use fd_core::checkpoint::{put_frame, read_frame, Frame};
        let n_frames = rng.gen_range(1usize..8);
        let mut log = Vec::new();
        let mut boundaries = vec![0usize];
        for _ in 0..n_frames {
            let len = rng.gen_range(0usize..64);
            let payload: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            put_frame(&mut log, &payload);
            boundaries.push(log.len());
        }
        let cut = rng.gen_range(0..=log.len());
        let mut cursor = &log[..cut];
        let mut complete = 0usize;
        let clean = loop {
            match read_frame(cursor) {
                Frame::Complete { consumed, .. } => {
                    complete += 1;
                    cursor = &cursor[consumed..];
                }
                Frame::End => break true,
                Frame::Torn => break false,
            }
        };
        let on_boundary = boundaries.contains(&cut);
        assert_eq!(
            clean, on_boundary,
            "cut at {cut} (boundaries {boundaries:?}): clean={clean}"
        );
        // The frames before the cut always survive intact.
        assert_eq!(
            complete,
            boundaries.iter().filter(|&&b| b > 0 && b <= cut).count(),
            "cut at {cut}"
        );
    });
}

// ----- Section VI-B: merges for the backward-decay baselines -----------

#[test]
fn sliding_window_hh_merge_equals_concat() {
    use fd_core::backward::SlidingWindowHH;
    cases(37, |rng| {
        let n = rng.gen_range(50usize..600);
        let mut whole = SlidingWindowHH::new(1.0, 6);
        let mut a = SlidingWindowHH::new(1.0, 6);
        let mut b = SlidingWindowHH::new(1.0, 6);
        let mut t_max = 0.0f64;
        for _ in 0..n {
            let t = rng.gen_range(0.0..40.0);
            let item = rng.gen_range(0u64..20);
            t_max = t_max.max(t);
            whole.update(t, item);
            if rng.gen_range(0.0..1.0) < 0.5 {
                a.update(t, item);
            } else {
                b.update(t, item);
            }
        }
        a.merge_from(&b);
        assert_eq!(a.items_seen(), whole.items_seen());
        let t_q = t_max + 1.0;
        for item in 0..20u64 {
            for window in [5.0, 17.0, 41.0] {
                let (m, w) = (
                    a.window_count(item, window, t_q),
                    whole.window_count(item, window, t_q),
                );
                assert!(
                    (m - w).abs() < 1e-9,
                    "item {item} window {window}: {m} vs {w}"
                );
            }
        }
        let f = BackExponential::new(0.1);
        let (ma, ta) = a.decayed_counts(&f, t_q);
        let (mw, tw) = whole.decayed_counts(&f, t_q);
        assert!((ta - tw).abs() <= 1e-9 * tw.max(1.0));
        for (k, v) in &mw {
            assert!((ma.get(k).copied().unwrap_or(0.0) - v).abs() <= 1e-9 * v.max(1.0));
        }
    });
}

#[test]
fn prefix_hh_merge_preserves_totals() {
    cases(38, |rng| {
        let n = rng.gen_range(100usize..800);
        let mut whole = PrefixBackwardHH::new(8, 0.1);
        let mut a = PrefixBackwardHH::new(8, 0.1);
        let mut b = PrefixBackwardHH::new(8, 0.1);
        for i in 0..n {
            let t = i as f64 * 0.05;
            let item = rng.gen_range(0u64..256);
            whole.update(t, item);
            if i % 2 == 0 {
                a.update(t, item);
            } else {
                b.update(t, item);
            }
        }
        a.merge_from(&b);
        assert_eq!(a.items_seen(), whole.items_seen());
        let f = BackSlidingWindow::new(n as f64); // everything in window
        let t_q = n as f64 * 0.05;
        let (ta, tw) = (a.decayed_total(&f, t_q), whole.decayed_total(&f, t_q));
        // EH merge keeps totals exact for all-in-window queries.
        assert!((ta - tw).abs() <= 1e-9 * tw.max(1.0), "{ta} vs {tw}");
    });
}

#[test]
fn cm_hh_merge_equals_concat() {
    use fd_core::cm::DecayedCmHeavyHitters;
    cases(39, |rng| {
        let g = Monomial::quadratic();
        let mk = || DecayedCmHeavyHitters::new(g, 0.0, 0.1, 0.01, 0.01, 77);
        let (mut whole, mut a, mut b) = (mk(), mk(), mk());
        let n = rng.gen_range(500usize..3000);
        for i in 0..n {
            let t = 1.0 + i as f64 * 0.01;
            let item = if i % 3 == 0 {
                42
            } else {
                rng.gen_range(0u64..500)
            };
            whole.update(t, item);
            if rng.gen_range(0.0..1.0) < 0.5 {
                a.update(t, item);
            } else {
                b.update(t, item);
            }
        }
        a.merge_from(&b);
        let t_q = 1.0 + n as f64 * 0.01 + 5.0;
        let (ca, cw) = (a.decayed_count(t_q), whole.decayed_count(t_q));
        assert!((ca - cw).abs() <= 1e-6 * cw.max(1.0), "{ca} vs {cw}");
        // The planted heavy item must survive the merged candidate set.
        let hits: Vec<u64> = a.heavy_hitters(t_q).iter().map(|h| h.item).collect();
        assert!(hits.contains(&42), "{hits:?}");
        assert!((a.estimate(42, t_q) - whole.estimate(42, t_q)).abs() <= 1e-6 * cw.max(1.0));
    });
}

// ----- Batched weight kernel and columnar update paths ------------------

/// Asserts the memoizing kernel agrees with direct scalar evaluation for
/// every age in `ages` — to 1e-12 relative where finite, bit-for-bit where
/// not (`±inf` overflow past [`RESCALE_THRESHOLD`], `-inf` from `ln_g(0)`).
fn assert_kernel_matches<G: ForwardDecay>(g: &G, ages: &[f64]) {
    use fd_core::kernel::WeightKernel;
    let mut k = WeightKernel::new(g.clone());
    for &n in ages {
        for (got, want, which) in [(k.g(n), g.g(n), "g"), (k.ln_g(n), g.ln_g(n), "ln_g")] {
            if want.is_finite() {
                assert!(
                    (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                    "{which}({n}): kernel {got} vs scalar {want}"
                );
            } else {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{which}({n}): kernel {got} vs scalar {want}"
                );
            }
        }
    }
}

#[test]
fn weight_kernel_matches_scalar_all_families() {
    use fd_core::decay::AnyDecay;
    use fd_core::numerics::RESCALE_THRESHOLD;
    cases(41, |rng| {
        // Ages with heavy duplication (repeated ticks exercise the memo),
        // zero/negative ages (ln_g = -inf branches), and ages straddling the
        // overflow boundary where g saturates to +inf but ln_g stays finite.
        let ln_thresh = RESCALE_THRESHOLD.ln();
        let mut ages = Vec::new();
        for _ in 0..rng.gen_range(5..40) {
            let n = rng.gen_range(-10.0..1e4);
            let dups = rng.gen_range(1..6);
            ages.extend(std::iter::repeat_n(n, dups));
        }
        ages.extend([0.0, -1.0, 1e100, 1e300]);

        let beta = rng.gen_range(0.1..6.0);
        let alpha = rng.gen_range(0.01..2.0);
        // Ages just below/at/above the rescale boundary for this alpha.
        for f in [0.5, 0.999, 1.0, 1.001, 4.0] {
            ages.push(f * ln_thresh / alpha);
        }

        assert_kernel_matches(&NoDecay, &ages);
        assert_kernel_matches(&Monomial::new(beta), &ages);
        assert_kernel_matches(&Monomial::quadratic(), &ages);
        assert_kernel_matches(&Exponential::new(alpha), &ages);
        assert_kernel_matches(&LandmarkWindow, &ages);
        assert_kernel_matches(&PolySum::new(vec![1.0, 0.5, 0.25, 0.1, 0.05]), &ages);
        let any: AnyDecay = format!("exp:{alpha}").parse().unwrap();
        assert_kernel_matches(&any, &ages);
    });
}

#[test]
fn batched_count_sum_match_scalar() {
    cases(42, |rng| {
        let items = random_stream(rng, 0.0, 100.0, 200);
        let ts: Vec<Timestamp> = items.iter().map(|&(t, _)| t.into()).collect();
        let vs: Vec<f64> = items.iter().map(|&(_, v)| v).collect();
        let beta = rng.gen_range(0.2..4.0);
        let g = Monomial::new(beta);

        let mut sc = DecayedCount::new(g, 0.0);
        let mut bc = DecayedCount::new(g, 0.0);
        let mut ss = DecayedSum::new(g, 0.0);
        let mut bs = DecayedSum::new(g, 0.0);
        for &(t, v) in &items {
            sc.update(t);
            ss.update(t, v);
        }
        bc.update_batch(&ts);
        bs.update_batch(&ts, &vs);

        let t_q = 120.0;
        let (a, b) = (sc.query(t_q), bc.query(t_q));
        assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "count {a} vs {b}");
        let (a, b) = (ss.query(t_q), bs.query(t_q));
        assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "sum {a} vs {b}");
    });
}

#[test]
fn batched_count_matches_scalar_across_rescale_boundary() {
    use fd_core::summary::Summary;
    cases(43, |rng| {
        // Exponential decay with timestamps far enough out that ln g(n)
        // crosses ln(RESCALE_THRESHOLD): the scalar path renormalizes
        // stepwise, the batch path renormalizes once to the batch max.
        // Both must agree on the (scale-free) decayed answer.
        let alpha = rng.gen_range(0.5..2.0);
        let span = 2.5 * fd_core::numerics::RESCALE_THRESHOLD.ln() / alpha;
        let mut ts: Vec<Timestamp> = (0..rng.gen_range(10..120))
            .map(|_| Timestamp::from(rng.gen_range(0.001..1.0) * span))
            .collect();
        ts.sort_unstable();
        let g = Exponential::new(alpha);
        let mut scalar = DecayedCount::new(g, 0.0);
        let mut batched = DecayedCount::new(g, 0.0);
        for &t in &ts {
            scalar.update(t);
        }
        batched.update_batch(&ts);
        assert!(
            scalar.stats().renormalizations > 0,
            "test must actually cross the rescale boundary"
        );
        let t_q = Timestamp::from(span * 1.01);
        let (a, b) = (scalar.query(t_q), batched.query(t_q));
        assert!(
            (a - b).abs() <= 1e-9 * a.abs().max(1.0),
            "alpha={alpha}: scalar {a} vs batched {b}"
        );
    });
}

#[test]
fn batched_hh_quantiles_match_scalar_bitwise() {
    use fd_core::heavy_hitters::DecayedHeavyHitters;
    use fd_core::quantiles::DecayedQuantiles;
    cases(44, |rng| {
        let n = rng.gen_range(10..300);
        let ts: Vec<Timestamp> = {
            let mut v: Vec<Timestamp> = (0..n)
                .map(|_| Timestamp::from(rng.gen_range(0.001..80.0)))
                .collect();
            v.sort_unstable();
            v
        };
        let items: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..40)).collect();
        let beta = rng.gen_range(0.2..4.0);
        let g = Monomial::new(beta);

        // Monomial never renormalizes and the kernel memo returns exact
        // values, so the batched paths replay the identical update sequence:
        // SpaceSaving state must match bit-for-bit, and so must the
        // q-digest's ranks: its nodes are one sorted run, summed in the
        // same order in both, and a flush folds arrivals one addition at a
        // time in arrival order however they were batched.
        let mut s_hh = DecayedHeavyHitters::new(g, 0.0, 12);
        let mut b_hh = DecayedHeavyHitters::new(g, 0.0, 12);
        let mut s_q = DecayedQuantiles::new(g, 0.0, 6, 0.1);
        let mut b_q = DecayedQuantiles::new(g, 0.0, 6, 0.1);
        for (&t, &item) in ts.iter().zip(&items) {
            s_hh.update(t, item);
            s_q.update(t, item);
        }
        b_hh.update_batch(&ts, &items);
        b_q.update_batch(&ts, &items);

        let t_q = 90.0;
        assert_eq!(
            s_hh.decayed_count(t_q).to_bits(),
            b_hh.decayed_count(t_q).to_bits()
        );
        for item in 0..40u64 {
            let (a, b) = (s_hh.estimate(item, t_q), b_hh.estimate(item, t_q));
            assert_eq!(
                a.map(|c| c.count.to_bits()),
                b.map(|c| c.count.to_bits()),
                "item {item}"
            );
        }
        for probe in [0u64, 7, 20, 39] {
            let (a, b) = (s_q.rank(probe, t_q), b_q.rank(probe, t_q));
            assert_eq!(a.to_bits(), b.to_bits(), "probe {probe}: {a} vs {b}");
        }
    });
}

#[test]
fn batched_samplers_match_scalar_draws() {
    cases(45, |rng| {
        let n = rng.gen_range(1..200);
        let ts: Vec<Timestamp> = (0..n)
            .map(|_| Timestamp::from(rng.gen_range(0.001..100.0)))
            .collect();
        let ids: Vec<u64> = (0..n as u64).collect();
        let k = rng.gen_range(1usize..16);
        let seed = rng.gen::<u64>();
        let g = Monomial::new(rng.gen_range(0.2..3.0));

        // The batched path consumes the RNG in the same order with the same
        // weights, so the realized sample must be identical.
        let mut s_wr = WeightedReservoir::new(g, 0.0, k, seed);
        let mut b_wr = WeightedReservoir::new(g, 0.0, k, seed);
        let mut s_ps = PrioritySampler::new(g, 0.0, k, seed);
        let mut b_ps = PrioritySampler::new(g, 0.0, k, seed);
        for (&t, &id) in ts.iter().zip(&ids) {
            s_wr.update(t, &id);
            s_ps.update(t, &id);
        }
        b_wr.update_batch(&ts, &ids);
        b_ps.update_batch(&ts, &ids);

        let key = |sample: Vec<&fd_core::sampling::SampleEntry<u64>>| {
            let mut v: Vec<u64> = sample.iter().map(|e| e.item).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(key(s_wr.sample()), key(b_wr.sample()));
        let t_q = 120.0;
        assert_eq!(
            s_ps.estimate_decayed_count(t_q).to_bits(),
            b_ps.estimate_decayed_count(t_q).to_bits()
        );
    });
}

#[test]
fn biased_reservoir_merge_invariants() {
    use fd_core::sampling::BiasedReservoir;
    cases(40, |rng| {
        let lambda = 0.05;
        let mut a = BiasedReservoir::new(lambda, rng.gen_range(0..1000));
        let mut b = BiasedReservoir::new(lambda, rng.gen_range(0..1000));
        let (na, nb) = (rng.gen_range(0usize..200), rng.gen_range(0usize..200));
        for i in 0..na {
            a.update(i as u64);
        }
        for i in 0..nb {
            b.update(10_000 + i as u64);
        }
        let cap = a.capacity();
        a.merge_from(&b);
        assert_eq!(a.items_seen(), (na + nb) as u64);
        assert!(a.sample().len() <= cap);
        if na + nb > 0 {
            assert!(!a.sample().is_empty());
        }
        // Every sampled item must come from one of the two streams.
        for &x in a.sample() {
            assert!(x < na as u64 || (10_000..10_000 + nb as u64).contains(&x));
        }
    });
}
