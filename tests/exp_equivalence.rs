//! Section III-A of the paper: forward and backward exponential decay are
//! the *same* decay model. These tests check the equivalence on the weight
//! formula, where `BackExponential::as_forward` is the map from one to the
//! other, and through entire summaries and the engine pipeline, against the
//! backward-decay baseline machinery.

use forward_decay::core::aggregates::DecayedSum;
use forward_decay::core::backward::ExponentialHistogram;
use forward_decay::core::decay::{BackExponential, BackwardDecay, Exponential, ForwardDecay};
use forward_decay::core::heavy_hitters::DecayedHeavyHitters;
use forward_decay::engine::prelude::*;
use forward_decay::gen::TraceConfig;

fn trace() -> Vec<Packet> {
    TraceConfig {
        seed: 23,
        duration_secs: 60.0,
        rate_pps: 10_000.0,
        n_hosts: 500,
        ..Default::default()
    }
    .generate()
}

#[test]
fn as_forward_weighs_every_item_as_the_backward_decay_from_any_landmark() {
    let bwd = BackExponential::new(0.08);
    let fwd = bwd.as_forward();
    for landmark in [-1000.0, 0.0, 37.5] {
        for t in [40.0, 60.0, 600.0] {
            for t_i in [37.5, 38.25, 40.0] {
                let (f, b) = (fwd.weight(landmark, t_i, t), bwd.weight(t_i, t));
                assert!(
                    (f - b).abs() <= 1e-12 * b,
                    "L = {landmark}, t_i = {t_i}, t = {t}: forward {f}, backward {b}"
                );
            }
        }
    }
}

#[test]
fn forward_exact_sum_equals_backward_brute_force() {
    let packets = trace();
    let bwd = BackExponential::new(0.08);
    let fwd = bwd.as_forward();
    let t_q = 60.0;

    let mut sum = DecayedSum::new(fwd, 0.0);
    for p in &packets {
        sum.update(p.ts_secs(), p.len as f64);
    }
    let backward_truth: f64 = packets
        .iter()
        .map(|p| bwd.weight(p.ts_secs(), t_q) * p.len as f64)
        .sum();
    let forward_answer = sum.query(t_q);
    assert!(
        (forward_answer - backward_truth).abs() <= 1e-9 * backward_truth,
        "{forward_answer} vs {backward_truth}"
    );
}

#[test]
fn forward_exact_beats_eh_approximation_of_the_same_query() {
    // The EH answers the same backward-exponential query approximately; the
    // forward computation answers it exactly. Check both against truth.
    let packets = trace();
    let alpha = 0.05;
    let eps = 0.05;
    let t_q = 60.0;
    let bwd = BackExponential::new(alpha);
    let truth: f64 = packets.iter().map(|p| bwd.weight(p.ts_secs(), t_q)).sum();

    let mut fwd_sum = DecayedSum::new(bwd.as_forward(), 0.0);
    let mut eh = ExponentialHistogram::with_epsilon(eps);
    for p in &packets {
        fwd_sum.update(p.ts_secs(), 1.0);
        eh.insert(p.ts_secs());
    }
    let fwd_err = (fwd_sum.query(t_q) - truth).abs() / truth;
    let eh_err = (eh.decayed_query(&bwd, t_q) - truth).abs() / truth;
    assert!(fwd_err < 1e-9, "forward must be exact, err = {fwd_err}");
    assert!(eh_err <= 2.0 * eps, "EH err {eh_err} beyond its bound");
    assert!(fwd_err < eh_err, "exact must beat approximate");
}

#[test]
fn engine_forward_exp_agrees_with_engine_eh_backward_exp() {
    // The full pipeline: same query once under forward exponential decay
    // (exact) and once through the EH baseline (approximate). Results agree
    // within the EH error bound, per group.
    let packets = trace();
    let alpha = 0.03;
    let eps = 0.05;

    let fwd_q = Query::builder("fwd")
        .group_by(|p| p.dst_host() % 50)
        .bucket_secs(60)
        .aggregate(fwd_count_factory(Exponential::new(alpha)))
        .build();
    let bwd_q = Query::builder("bwd")
        .group_by(|p| p.dst_host() % 50)
        .bucket_secs(60)
        .aggregate(eh_count_factory(
            eps,
            DynBackward::from_decay(BackExponential::new(alpha)),
        ))
        .build();
    let fwd_rows = Engine::new(fwd_q).run(packets.iter().copied());
    let bwd_rows = Engine::new(bwd_q).run(packets.iter().copied());
    assert_eq!(fwd_rows.len(), bwd_rows.len());
    for (f, b) in fwd_rows.iter().zip(&bwd_rows) {
        assert_eq!((f.bucket_start, f.key), (b.bucket_start, b.key));
        let (x, y) = (f.value.as_float().unwrap(), b.value.as_float().unwrap());
        assert!(
            (x - y).abs() <= 3.0 * eps * x.max(1.0),
            "group {}: forward {x}, EH-backward {y}",
            f.key
        );
    }
}

#[test]
fn decayed_hh_landmark_choice_is_irrelevant_for_exponential() {
    // Because forward exp ≡ backward exp, the landmark must not affect
    // heavy-hitter answers.
    let packets = trace();
    let alpha = 0.1;
    let mut hh_a = DecayedHeavyHitters::new(Exponential::new(alpha), 0.0, 100);
    let mut hh_b = DecayedHeavyHitters::new(Exponential::new(alpha), -1000.0, 100);
    for p in &packets {
        hh_a.update(p.ts_secs(), p.dst_host());
        hh_b.update(p.ts_secs(), p.dst_host());
    }
    let (a, b) = (
        hh_a.heavy_hitters(0.05, 60.0),
        hh_b.heavy_hitters(0.05, 60.0),
    );
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.item, y.item);
        assert!((x.count - y.count).abs() <= 1e-6 * x.count.max(1.0));
    }
}
