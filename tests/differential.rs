//! Differential oracle harness: every `Summary` implementor, cross-checked
//! against the brute-force reference in `fd_core::oracle` on seeded
//! adversarial streams, through four ingestion paths:
//!
//! - **scalar** — one `update_at` per event;
//! - **batched** — `update_batch_at` over columnar chunks (the kernel /
//!   memoized fast paths);
//! - **merged** — events round-robined across three shards fed
//!   independently, then folded with `Mergeable::merge_from` (shards
//!   renormalize at different times, so this exercises landmark alignment);
//! - **checkpointed** — snapshot to bytes mid-stream, restore, continue.
//!   The samplers' bytes carry their generator state, so a restored
//!   sampler must answer exactly as the uninterrupted scalar run does.
//!
//! Error budgets: the O(1) aggregates and `ExactDominance` must agree to
//! floating-point accumulation order (1e-6 relative, against a
//! cancellation-aware scale); the sketches must agree within their paper
//! bounds (SpaceSaving `W/c`, q-digest `εW` per merge level, KMV `ε`
//! relative); the samplers are checked structurally (membership, size,
//! invariants) plus the Horvitz–Thompson estimate for priority sampling.
//!
//! On failure the ddmin shrinker minimizes the stream and prints it as a
//! Rust literal ready to commit as a named regression test — the
//! `regression_*` tests at the bottom are exactly such distilled cases.
//!
//! Seeds: the committed matrix below, or `FD_ORACLE_SEED=s1,s2,…` (CI's
//! nightly smoke sets it to the run id).

use forward_decay::core::aggregates::{
    DecayedAverage, DecayedCount, DecayedExtremum, DecayedSum, DecayedVariance,
};
use forward_decay::core::checkpoint::{from_bytes, to_bytes, Decode, Encode};
use forward_decay::core::cm::DecayedCmHeavyHitters;
use forward_decay::core::decay::{AnyDecay, Exponential, ForwardDecay, Monomial, NoDecay};
use forward_decay::core::distinct::{DominanceSketch, ExactDominance};
use forward_decay::core::heavy_hitters::DecayedHeavyHitters;
use forward_decay::core::merge::Mergeable;
use forward_decay::core::oracle::{
    adversarial_stream, format_events, harness_seeds, shrink, Oracle, OracleEvent, StreamConfig,
};
use forward_decay::core::quantiles::DecayedQuantiles;
use forward_decay::core::sampling::{PrioritySampler, WeightedReservoir, WithReplacementSampler};
use forward_decay::core::summary::Summary;
use forward_decay::core::Timestamp;

/// The committed seed matrix — what CI's `differential` job runs.
const SEEDS: &[u64] = &[1, 7, 42, 1009, 86_028_157];
const LANDMARK: f64 = 100.0;
const Q_TIME: f64 = 175.0;
const SHARDS: usize = 3;
const BATCH: usize = 37;

fn q() -> Timestamp {
    Timestamp::from_secs_f64(Q_TIME)
}

/// The decay matrix: no decay (exact arithmetic), polynomial (the paper's
/// workhorse), and an exponential fast enough that the renormalizer fires
/// several times inside the stream's 60 s span (α·span ≫ ln 1e150).
fn decays() -> Vec<(&'static str, AnyDecay)> {
    vec![
        ("none", AnyDecay::None),
        ("quad", AnyDecay::Monomial(Monomial::quadratic())),
        ("exp20", AnyDecay::Exponential(Exponential::new(20.0))),
    ]
}

/// Runs `check` and, on failure, ddmin-shrinks the stream and panics with a
/// committed-regression-ready reproduction.
fn assert_stream(
    events: &[OracleEvent],
    seed: u64,
    label: &str,
    check: impl Fn(&[OracleEvent]) -> Result<(), String>,
) {
    if let Err(first) = check(events) {
        let minimal = shrink(events, |es| check(es).is_err());
        let err = check(&minimal).err().unwrap_or(first);
        panic!(
            "differential failure [{label}] seed {seed}: {err}\n\
             shrunk to {} event(s) — reproduce with FD_ORACLE_SEED={seed}, or\n\
             commit as a regression test over:\n{}",
            minimal.len(),
            format_events(&minimal),
        );
    }
}

/// Drives one summary through the scalar, batched and merged paths.
///
/// `mk` receives an instance id — 0 for the scalar/batched/checkpointed
/// instances, the shard index for the merged path's shards. Deterministic
/// summaries ignore it; the samplers fold it into their seed, because
/// merged shards must draw from independent RNG streams (same-seed shards
/// produce correlated priorities and a biased merged estimator — a bug this
/// harness caught; see the `Mergeable` docs on the samplers).
fn drive<S>(
    mk: &dyn Fn(u64) -> S,
    upd: &dyn Fn(&OracleEvent) -> S::Update,
    events: &[OracleEvent],
) -> Vec<(&'static str, S)>
where
    S: Summary + Mergeable,
    S::Update: Clone,
{
    let mut scalar = mk(0);
    for e in events {
        scalar.update_at(e.t, upd(e));
    }
    let mut batched = mk(0);
    for chunk in events.chunks(BATCH) {
        let ts: Vec<Timestamp> = chunk.iter().map(|e| e.t).collect();
        let us: Vec<S::Update> = chunk.iter().map(upd).collect();
        batched.update_batch_at(&ts, &us);
    }
    let mut shards: Vec<S> = (0..SHARDS).map(|i| mk(i as u64)).collect();
    for (i, e) in events.iter().enumerate() {
        shards[i % SHARDS].update_at(e.t, upd(e));
    }
    let mut merged = shards.remove(0);
    for s in &shards {
        merged.merge_from(s);
    }
    vec![("scalar", scalar), ("batched", batched), ("merged", merged)]
}

/// The checkpoint path: half the stream, snapshot/restore, the other half.
fn drive_checkpointed<S>(
    mk: &dyn Fn(u64) -> S,
    upd: &dyn Fn(&OracleEvent) -> S::Update,
    events: &[OracleEvent],
) -> S
where
    S: Summary + Encode + Decode,
{
    let mid = events.len() / 2;
    let mut s = mk(0);
    for e in &events[..mid] {
        s.update_at(e.t, upd(e));
    }
    let bytes = to_bytes(&s);
    let mut s: S = from_bytes(&bytes).expect("restore mid-stream");
    for e in &events[mid..] {
        s.update_at(e.t, upd(e));
    }
    s
}

fn close(path: &str, what: &str, got: f64, want: f64, tol: f64) -> Result<(), String> {
    if (got - want).abs() <= tol || (got.is_nan() && want.is_nan()) {
        Ok(())
    } else {
        Err(format!(
            "{path}: {what} = {got}, oracle says {want} (tol {tol})"
        ))
    }
}

// ---------------------------------------------------------------------------
// Exact O(1) aggregates: count, sum, average, variance — 1e-6 relative
// against a cancellation-aware magnitude scale.
// ---------------------------------------------------------------------------

#[test]
fn differential_count_and_sum() {
    for seed in harness_seeds(SEEDS) {
        let events = adversarial_stream(seed, &StreamConfig::default());
        for (gname, g) in decays() {
            let gc = g.clone();
            assert_stream(&events, seed, &format!("count/{gname}"), move |es| {
                let mut o = Oracle::new(gc.clone(), LANDMARK);
                o.push_all(es);
                let want = o.count(q());
                let mk = |_: u64| DecayedCount::new(gc.clone(), LANDMARK);
                let mut paths = drive(&mk, &|_| (), es);
                paths.push(("checkpointed", drive_checkpointed(&mk, &|_| (), es)));
                for (path, s) in paths {
                    s.check_invariants().map_err(|e| format!("{path}: {e}"))?;
                    close(
                        path,
                        "count",
                        s.query_at(q()),
                        want,
                        1e-6 * want.abs().max(1e-12),
                    )?;
                }
                Ok(())
            });
            let gc = g.clone();
            assert_stream(&events, seed, &format!("sum/{gname}"), move |es| {
                let mut o = Oracle::new(gc.clone(), LANDMARK);
                o.push_all(es);
                let want = o.sum(q());
                // Scale against Σ w·|v|: ±1e6 values cancel in the sum, so a
                // tolerance relative to |want| alone would be meaningless.
                let scale: f64 = es.iter().map(|e| o.weight(e.t, q()) * e.v.abs()).sum();
                let mk = |_: u64| DecayedSum::new(gc.clone(), LANDMARK);
                let mut paths = drive(&mk, &|e| e.v, es);
                paths.push(("checkpointed", drive_checkpointed(&mk, &|e| e.v, es)));
                for (path, s) in paths {
                    s.check_invariants().map_err(|e| format!("{path}: {e}"))?;
                    close(path, "sum", s.query_at(q()), want, 1e-6 * scale.max(1e-12))?;
                }
                Ok(())
            });
        }
    }
}

#[test]
fn differential_average_and_variance() {
    for seed in harness_seeds(SEEDS) {
        let events = adversarial_stream(seed, &StreamConfig::default());
        for (gname, g) in decays() {
            let gc = g.clone();
            assert_stream(&events, seed, &format!("avg+var/{gname}"), move |es| {
                let mut o = Oracle::new(gc.clone(), LANDMARK);
                o.push_all(es);
                let c = o.count(q());
                if c <= 1e-12 {
                    return Ok(()); // no decayed mass: both sides answer None
                }
                let scale: f64 = es
                    .iter()
                    .map(|e| o.weight(e.t, q()) * e.v.abs())
                    .sum::<f64>()
                    / c;
                let want_avg = o.average(q()).expect("mass > 0");
                let mk = |_: u64| DecayedAverage::new(gc.clone(), LANDMARK);
                let mut paths = drive(&mk, &|e| e.v, es);
                paths.push(("checkpointed", drive_checkpointed(&mk, &|e| e.v, es)));
                for (path, s) in paths {
                    s.check_invariants().map_err(|e| format!("{path}: {e}"))?;
                    let got = s
                        .query_at(q())
                        .ok_or_else(|| format!("{path}: average None, oracle {want_avg}"))?;
                    close(path, "average", got, want_avg, 1e-6 * scale.max(1e-12))?;
                }
                let sq_scale: f64 = es
                    .iter()
                    .map(|e| o.weight(e.t, q()) * e.v * e.v)
                    .sum::<f64>()
                    / c;
                let want_var = o.variance(q()).expect("mass > 0");
                let mk = |_: u64| DecayedVariance::new(gc.clone(), LANDMARK);
                let mut paths = drive(&mk, &|e| e.v, es);
                paths.push(("checkpointed", drive_checkpointed(&mk, &|e| e.v, es)));
                for (path, s) in paths {
                    s.check_invariants().map_err(|e| format!("{path}: {e}"))?;
                    let got = s
                        .query_at(q())
                        .ok_or_else(|| format!("{path}: variance None, oracle {want_var}"))?;
                    close(path, "variance", got, want_var, 1e-6 * sq_scale.max(1e-12))?;
                }
                Ok(())
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Extremum: decayed value always exact; the witness (t_i, v_i) is asserted
// whenever the oracle's winner is clear of FP rounding (or the tie is exact,
// where the deterministic smallest-(t, v) rule applies on both sides).
// ---------------------------------------------------------------------------

#[test]
fn differential_extremum() {
    for seed in harness_seeds(SEEDS) {
        // NaN values on: the skip-NaN policy is part of what's under test.
        let cfg = StreamConfig {
            allow_nan: true,
            ..StreamConfig::default()
        };
        let events = adversarial_stream(seed, &cfg);
        for (gname, g) in decays() {
            for min in [true, false] {
                let gc = g.clone();
                let which = if min { "min" } else { "max" };
                assert_stream(&events, seed, &format!("{which}/{gname}"), move |es| {
                    let mut o = Oracle::new(gc.clone(), LANDMARK);
                    o.push_all(es);
                    let want = o.extremum(min, q());
                    let margin = o.extremum_margin(min, q());
                    let mk = |_: u64| {
                        if min {
                            DecayedExtremum::min(gc.clone(), LANDMARK)
                        } else {
                            DecayedExtremum::max(gc.clone(), LANDMARK)
                        }
                    };
                    let mut paths = drive(&mk, &|e| e.v, es);
                    paths.push(("checkpointed", drive_checkpointed(&mk, &|e| e.v, es)));
                    for (path, s) in paths {
                        s.check_invariants().map_err(|e| format!("{path}: {e}"))?;
                        match (s.query_at(q()), want) {
                            (None, None) => {}
                            (got, None) | (got @ None, _) => {
                                return Err(format!("{path}: got {got:?}, oracle {want:?}"));
                            }
                            (Some((gd, gt, gv)), Some((wd, wt, wv))) => {
                                let tol = 1e-6 * wd.abs().max(1e-12);
                                close(path, "decayed extremum", gd, wd, tol)?;
                                // Witness: only when the oracle's winner is
                                // unambiguous (clear margin, or an exact tie
                                // resolved by the shared tie rule).
                                let clear = margin.is_none_or(|m| m > tol);
                                if clear && (gt, gv) != (wt, wv) {
                                    return Err(format!(
                                        "{path}: witness ({gt:?}, {gv}), oracle ({wt:?}, {wv})"
                                    ));
                                }
                            }
                        }
                    }
                    Ok(())
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Heavy hitters (weighted SpaceSaving, capacity c = 256, φ = 0.1):
//  - the total decayed weight is tracked exactly;
//  - completeness: every key with true share ≥ φ is reported (SpaceSaving
//    never underestimates);
//  - soundness: every reported key has true share ≥ φ − ε_eff, where
//    ε_eff = 1/c for single-summary paths and SHARDS/c after merging.
// ---------------------------------------------------------------------------

#[test]
fn differential_heavy_hitters() {
    const CAP: usize = 256;
    const PHI: f64 = 0.1;
    for seed in harness_seeds(SEEDS) {
        let events = adversarial_stream(seed, &StreamConfig::default());
        for (gname, g) in decays() {
            let gc = g.clone();
            assert_stream(&events, seed, &format!("hh/{gname}"), move |es| {
                let mut o = Oracle::new(gc.clone(), LANDMARK);
                o.push_all(es);
                let w = o.count(q());
                let mk = |_: u64| DecayedHeavyHitters::new(gc.clone(), LANDMARK, CAP);
                let mut paths = drive(&mk, &|e| e.key, es);
                paths.push(("checkpointed", drive_checkpointed(&mk, &|e| e.key, es)));
                for (path, s) in paths {
                    s.check_invariants().map_err(|e| format!("{path}: {e}"))?;
                    close(
                        path,
                        "total weight",
                        s.query_at(q()),
                        w,
                        1e-6 * w.max(1e-12),
                    )?;
                    if w <= 1e-12 {
                        continue;
                    }
                    let eps = if path == "merged" {
                        SHARDS as f64 / CAP as f64
                    } else {
                        1.0 / CAP as f64
                    };
                    let reported = s.heavy_hitters(PHI, q());
                    for (key, true_count) in o.heavy_hitters(PHI * (1.0 + 1e-9), q()) {
                        if !reported.iter().any(|h| h.item == key) {
                            return Err(format!(
                                "{path}: true heavy hitter {key} (count {true_count}, \
                                 threshold {}) not reported",
                                PHI * w
                            ));
                        }
                    }
                    for h in &reported {
                        let true_count = o.item_count(h.item, q());
                        let floor = (PHI - eps) * w - 1e-6 * w;
                        if true_count < floor {
                            return Err(format!(
                                "{path}: reported {} has true count {true_count} \
                                 below the soundness floor {floor}",
                                h.item
                            ));
                        }
                        if h.count + 1e-6 * w < true_count {
                            return Err(format!(
                                "{path}: SpaceSaving underestimates {}: {} < {true_count}",
                                h.item, h.count
                            ));
                        }
                    }
                }
                Ok(())
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Quantiles (q-digest over 11-bit keys, ε = 0.05): the total weight is
// exact; each reported φ-quantile must sit within the rank band
// (φ ± B)·W, with B = 2ε for single-summary paths and 4ε after merges
// (compression error compounds per merge).
// ---------------------------------------------------------------------------

#[test]
fn differential_quantiles() {
    const EPS: f64 = 0.05;
    for seed in harness_seeds(SEEDS) {
        let events = adversarial_stream(seed, &StreamConfig::default());
        for (gname, g) in decays() {
            let gc = g.clone();
            assert_stream(&events, seed, &format!("quantiles/{gname}"), move |es| {
                let mut o = Oracle::new(gc.clone(), LANDMARK);
                o.push_all(es);
                let w = o.count(q());
                let mk = |_: u64| DecayedQuantiles::new(gc.clone(), LANDMARK, 11, EPS);
                let mut paths = drive(&mk, &|e| e.key, es);
                paths.push(("checkpointed", drive_checkpointed(&mk, &|e| e.key, es)));
                for (path, s) in paths {
                    s.check_invariants().map_err(|e| format!("{path}: {e}"))?;
                    close(
                        path,
                        "total weight",
                        s.query_at(q()),
                        w,
                        1e-6 * w.max(1e-12),
                    )?;
                    if w <= 1e-12 {
                        continue;
                    }
                    let band = if path == "merged" {
                        4.0 * EPS
                    } else {
                        2.0 * EPS
                    };
                    for phi in [0.25, 0.5, 0.9] {
                        let got = s
                            .quantile(phi, q())
                            .ok_or_else(|| format!("{path}: φ={phi} quantile None"))?;
                        let hi = o.rank(got, q());
                        if hi + 1e-9 * w < (phi - band) * w {
                            return Err(format!(
                                "{path}: φ={phi} quantile {got} ranks too low: \
                                 {hi} < {}",
                                (phi - band) * w
                            ));
                        }
                        let lo = if got == 0 { 0.0 } else { o.rank(got - 1, q()) };
                        if lo > (phi + band) * w + 1e-9 * w {
                            return Err(format!(
                                "{path}: φ={phi} quantile {got} ranks too high: \
                                 rank({}) = {lo} > {}",
                                got.saturating_sub(1),
                                (phi + band) * w
                            ));
                        }
                    }
                }
                Ok(())
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Dominance norms: ExactDominance must match the oracle to FP accumulation
// order; the KMV-backed DominanceSketch within its ε (fixed seeds make the
// randomized bound a deterministic check).
// ---------------------------------------------------------------------------

#[test]
fn differential_dominance() {
    const EPS: f64 = 0.2;
    for seed in harness_seeds(SEEDS) {
        let events = adversarial_stream(seed, &StreamConfig::default());
        for (gname, g) in decays() {
            let gc = g.clone();
            assert_stream(&events, seed, &format!("dominance/{gname}"), move |es| {
                let mut o = Oracle::new(gc.clone(), LANDMARK);
                o.push_all(es);
                let want = o.dominance(q());
                let mk = |_: u64| ExactDominance::new(gc.clone(), LANDMARK);
                let mut paths = drive(&mk, &|e| e.key, es);
                paths.push(("checkpointed", drive_checkpointed(&mk, &|e| e.key, es)));
                for (path, s) in paths {
                    s.check_invariants().map_err(|e| format!("{path}: {e}"))?;
                    close(
                        path,
                        "dominance",
                        s.query_at(q()),
                        want,
                        1e-6 * want.max(1e-12),
                    )?;
                }
                let mk = |_: u64| DominanceSketch::new(gc.clone(), LANDMARK, EPS, 12345);
                let mut paths = drive(&mk, &|e| e.key, es);
                paths.push(("checkpointed", drive_checkpointed(&mk, &|e| e.key, es)));
                for (path, s) in paths {
                    s.check_invariants().map_err(|e| format!("{path}: {e}"))?;
                    if want <= 1e-12 {
                        continue;
                    }
                    close(
                        path,
                        "dominance sketch",
                        s.query_at(q()),
                        want,
                        2.0 * EPS * want,
                    )?;
                }
                Ok(())
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Samplers. Samples are random, so the checks are structural: membership
// in the stream, size bounds, internal invariants, and the Horvitz–Thompson
// estimate for priority sampling. The checkpoint carries the generator
// state, so the checkpointed path must reproduce the scalar path exactly.
// ---------------------------------------------------------------------------

/// The answer of the path named `path` against the scalar path's, compared
/// as `key` maps them: a path that makes the scalar path's draws must give
/// its answer exactly.
fn as_scalar<S: Summary, K: PartialEq + std::fmt::Debug>(
    sampler: &str,
    paths: &[(&'static str, S)],
    path: &str,
    key: impl Fn(S::Output) -> K,
) -> Result<(), String> {
    let answer = |name: &str| {
        let (_, s) = (paths.iter().find(|(p, _)| *p == name)).expect("a driven path");
        key(s.query_at(q()))
    };
    let (scalar, got) = (answer("scalar"), answer(path));
    if scalar == got {
        Ok(())
    } else {
        Err(format!(
            "{sampler} diverges between scalar ({scalar:?}) and {path} ({got:?}) paths"
        ))
    }
}

#[test]
fn differential_samplers() {
    for seed in harness_seeds(SEEDS) {
        let events = adversarial_stream(seed, &StreamConfig::default());
        let keys: std::collections::HashSet<u64> = events.iter().map(|e| e.key).collect();
        for (gname, g) in decays() {
            let gc = g.clone();
            let all_keys = keys.clone();
            assert_stream(&events, seed, &format!("samplers/{gname}"), move |es| {
                let keys: std::collections::HashSet<u64> = es.iter().map(|e| e.key).collect();
                let _ = &all_keys;
                let mut o = Oracle::new(gc.clone(), LANDMARK);
                o.push_all(es);
                let w = o.count(q());

                // With-replacement sampler: s independent chains.
                let mk = |inst: u64| {
                    WithReplacementSampler::<u64, _>::new(
                        gc.clone(),
                        LANDMARK,
                        8,
                        seed ^ (inst << 32),
                    )
                };
                let mut paths = drive(&mk, &|e| e.key, es);
                paths.push(("checkpointed", drive_checkpointed(&mk, &|e| e.key, es)));
                for (path, s) in &paths {
                    s.check_invariants().map_err(|e| format!("{path}: {e}"))?;
                    for item in s.query_at(q()) {
                        if !keys.contains(&item) {
                            return Err(format!("{path}: sampled {item} never streamed"));
                        }
                    }
                }
                // The default batched path replays updates one by one in
                // order, so its RNG consumption — and thus its sample — must
                // be identical to the scalar path's.
                as_scalar("with-replacement sampler", &paths, "batched", |s| s)?;
                as_scalar("with-replacement sampler", &paths, "checkpointed", |s| s)?;

                // Weighted reservoir (without replacement): at most k items.
                let mk = |inst: u64| {
                    WeightedReservoir::<u64, _>::new(gc.clone(), LANDMARK, 16, seed ^ (inst << 32))
                };
                let mut paths = drive(&mk, &|e| e.key, es);
                paths.push(("checkpointed", drive_checkpointed(&mk, &|e| e.key, es)));
                for (path, s) in &paths {
                    s.check_invariants().map_err(|e| format!("{path}: {e}"))?;
                    let sample = s.query_at(q());
                    if sample.len() > 16 {
                        return Err(format!("{path}: reservoir holds {}", sample.len()));
                    }
                    for item in sample {
                        if !keys.contains(&item) {
                            return Err(format!("{path}: sampled {item} never streamed"));
                        }
                    }
                }
                as_scalar("weighted reservoir", &paths, "checkpointed", |s| s)?;

                // Priority sampler: the Horvitz–Thompson estimate of the
                // decayed count. k = 64 of ≤ 400 events keeps the estimator's
                // deterministic-per-seed error well inside ±50%.
                let mk = |inst: u64| {
                    PrioritySampler::<u64, _>::new(gc.clone(), LANDMARK, 64, seed ^ (inst << 32))
                };
                let mut paths = drive(&mk, &|e| e.key, es);
                paths.push(("checkpointed", drive_checkpointed(&mk, &|e| e.key, es)));
                for (path, s) in &paths {
                    s.check_invariants().map_err(|e| format!("{path}: {e}"))?;
                    if w > 1e-12 {
                        close(path, "HT estimate", s.query_at(q()), w, 0.5 * w)?;
                    }
                }
                as_scalar("priority sampler", &paths, "checkpointed", f64::to_bits)?;
                Ok(())
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Count-Min-backed heavy hitters (not a `Summary` implementor — driven
// through its inherent API): scalar and merged paths; CM overestimates by at
// most εW per committed seed, and the single heaviest true key must surface.
// ---------------------------------------------------------------------------

#[test]
fn differential_cm_heavy_hitters() {
    const PHI: f64 = 0.1;
    const EPS: f64 = 0.02;
    for seed in harness_seeds(SEEDS) {
        let events = adversarial_stream(seed, &StreamConfig::default());
        for (gname, g) in decays() {
            let gc = g.clone();
            assert_stream(&events, seed, &format!("cm-hh/{gname}"), move |es| {
                let mut o = Oracle::new(gc.clone(), LANDMARK);
                o.push_all(es);
                let w = o.count(q());
                if w <= 1e-12 {
                    return Ok(());
                }
                let mk = || DecayedCmHeavyHitters::new(gc.clone(), LANDMARK, PHI, EPS, 0.01, 99);
                let mut scalar = mk();
                for e in es {
                    scalar.update(e.t, e.key);
                }
                let mut shards: Vec<_> = (0..SHARDS).map(|_| mk()).collect();
                for (i, e) in es.iter().enumerate() {
                    shards[i % SHARDS].update(e.t, e.key);
                }
                let mut merged = shards.remove(0);
                for s in &shards {
                    merged.merge_from(s);
                }
                for (path, s, eps_eff) in [
                    ("scalar", &scalar, EPS),
                    ("merged", &merged, EPS * SHARDS as f64),
                ] {
                    let reported = s.heavy_hitters(q());
                    // Soundness: reported counts come from the CM sketch, so
                    // they overestimate by at most ε_eff·W; anything reported
                    // must genuinely weigh in at φ − ε_eff or more.
                    for h in &reported {
                        let true_count = o.item_count(h.item, q());
                        if true_count < (PHI - eps_eff) * w - 1e-6 * w {
                            return Err(format!(
                                "{path}: reported {} with true count {true_count} < {}",
                                h.item,
                                (PHI - eps_eff) * w
                            ));
                        }
                        if h.count + 1e-6 * w < true_count {
                            return Err(format!(
                                "{path}: CM underestimates {}: {} < {true_count}",
                                h.item, h.count
                            ));
                        }
                    }
                    // The heaviest true key (when clearly heavy) must surface.
                    if let Some((top, c)) = o.heavy_hitters(PHI + eps_eff, q()).first() {
                        if !reported.iter().any(|h| h.item == *top) {
                            return Err(format!(
                                "{path}: heaviest key {top} (count {c}) not reported"
                            ));
                        }
                    }
                }
                Ok(())
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Committed regression cases — streams distilled by the shrinker (or built
// by hand from its output) for the bugs this harness flushed out.
// ---------------------------------------------------------------------------

/// Merging shards whose effective landmarks drifted more than ~709/α apart
/// used to compute the alignment factor as `1 / g(ΔL)` in the linear domain:
/// `g` overflows to ∞, the factor collapses to 0, and the older shard's
/// entire mass vanished (or tripped `scale_all`'s positivity assert under
/// debug assertions). The factor now comes out of the log domain.
#[test]
fn regression_merge_across_renormalization_gap() {
    let g = Exponential::new(1.0);
    // Shard A: one item right after the landmark; never renormalizes.
    let mut a = DecayedCount::new(g, 0.0);
    a.update(1.0);
    // Shard B: items ~800 s later; its renormalizer moves the effective
    // landmark far enough that g(ΔL) overflows in the linear domain.
    let mut b = DecayedCount::new(g, 0.0);
    b.update(800.0);
    b.update(801.0);
    assert!(
        Summary::stats(&b).renormalizations >= 1,
        "shard B must have renormalized for this regression to bite"
    );
    let t = 802.0;
    let want = g.weight(0.0, 1.0, t) + g.weight(0.0, 800.0, t) + g.weight(0.0, 801.0, t);
    // Old shard into new: A's (negligible) mass shifts by e^{-800} — an
    // honest subnormal-rounds-to-zero, not 1/∞.
    let mut newer = b.clone();
    newer.merge_from(&a);
    assert!((newer.query(t) - want).abs() <= 1e-9 * want);
    // New shard into old: B renormalizes A up to its landmark, same answer.
    let mut older = a.clone();
    older.merge_from(&b);
    assert!((older.query(t) - want).abs() <= 1e-9 * want);
    newer.check_invariants().unwrap();
    older.check_invariants().unwrap();
}

/// Arrivals stamped before the landmark used to trip a debug assertion — and
/// in release, a linear `g` handed them *negative* weights that silently
/// corrupted sums. Policy now: clamp to the landmark, uniformly.
#[test]
fn regression_pre_landmark_arrivals_clamp() {
    let g = Monomial::new(1.0); // g(n) = n: pre-landmark n < 0 flips the sign
    let mut sum = DecayedSum::new(g, 100.0);
    let mut count = DecayedCount::new(g, 100.0);
    sum.update(95.0, 4.0); // straggler: clamps to L, weight g(0) = 0
    sum.update(110.0, 2.0);
    count.update(95.0);
    count.update(110.0);
    let t = 120.0;
    let want_sum = g.weight(100.0, 110.0, t) * 2.0; // straggler contributes 0
    assert!((sum.query(t) - want_sum).abs() <= 1e-12);
    assert!(sum.query(t) >= 0.0, "no negative mass from stragglers");
    let want_count = g.weight(100.0, 110.0, t);
    assert!((count.query(t) - want_count).abs() <= 1e-12);
    // Batched path clamps identically.
    let mut batched = DecayedSum::new(g, 100.0);
    batched.update_batch(
        &[
            Timestamp::from_secs_f64(95.0),
            Timestamp::from_secs_f64(110.0),
        ],
        &[4.0, 2.0],
    );
    assert!((batched.query(t) - sum.query(t)).abs() <= 1e-12);
}

/// The engine's `u64` µs clock used to reach the core's `i64` one through an
/// `as` cast: an instant past `i64::MAX` wrapped to long before the
/// landmark, so the *newest* tuple of a bucket got the smallest weight.
/// Policy now: saturate at the end of the signed clock.
#[test]
fn regression_timestamps_past_the_signed_clock_saturate() {
    use forward_decay::engine::prelude::*;
    const WIDTH: Micros = 60 * MICROS_PER_SEC;
    let edge = i64::MAX as u64;
    let landmark = edge / WIDTH * WIDTH; // the bucket the edge falls in
    let factory = fwd_sum_factory(Monomial::new(1.0), |p| p.len as f64);
    let at = |ts: Micros| Packet {
        ts,
        src_ip: 1,
        dst_ip: 2,
        src_port: 3,
        dst_port: 4,
        len: 1,
        proto: Proto::Udp,
    };
    // One tuple's share of the decayed sum at the end of time, by arrival.
    let share = |ts: Micros| {
        let mut sum = factory.make(landmark);
        sum.update(&at(ts));
        sum.emit(secs(u64::MAX)).as_float().expect("float")
    };
    let arrivals = [
        landmark,
        edge - 10 * MICROS_PER_SEC,
        edge - 1,
        edge,
        edge + 1,
        edge + 10 * MICROS_PER_SEC,
        u64::MAX,
    ];
    let shares = arrivals.map(share);
    assert!(
        shares.windows(2).all(|w| w[0] <= w[1]),
        "a later arrival must not weigh less: {shares:?}"
    );
    assert_eq!(shares[0], 0.0, "g(0) = 0 at the landmark");
    assert_eq!(shares[6], 1.0, "the end of time is as recent as it gets");
    // The engine takes the same stream without a panic, bucket by bucket.
    let q = Query::builder("edge")
        .bucket_secs(60)
        .aggregate(factory)
        .try_build()
        .expect("valid query");
    let rows = Engine::new(q).run(arrivals.map(at));
    assert_eq!(rows.first().map(|r| r.bucket_start), Some(landmark));
    assert!(rows
        .iter()
        .all(|r| r.value.as_float().is_some_and(f64::is_finite)));
}

/// Two shards seeing equal extremal keys — here undecayed value 7.0 at
/// t = 1 and t = 2 — used to report whichever witness merged first. The tie
/// rule (smallest `(t_i, v)`) now makes A⋅merge(B) and B⋅merge(A) agree.
#[test]
fn regression_extremum_merge_order_tie() {
    let mk = || DecayedExtremum::max(NoDecay, 0.0);
    let mut a = mk();
    a.update(1.0, 7.0);
    let mut b = mk();
    b.update(2.0, 7.0);
    let mut ab = a.clone();
    ab.merge_from(&b);
    let mut ba = b.clone();
    ba.merge_from(&a);
    let wa = ab.query(10.0).unwrap();
    let wb = ba.query(10.0).unwrap();
    assert_eq!(wa, wb, "merge order changed the witness");
    assert_eq!(wa.1, Timestamp::from_secs_f64(1.0), "earliest witness wins");
}

/// A NaN value used to lodge itself as the extremum forever (every
/// comparison against NaN is false, so nothing could displace it). NaN keys
/// are now skipped at ingestion and at merge.
#[test]
fn regression_extremum_ignores_nan_values() {
    let mut m = DecayedExtremum::max(Monomial::quadratic(), 0.0);
    m.update(1.0, f64::NAN);
    m.update(2.0, 3.0);
    let (_, t_i, v) = m.query(10.0).expect("real value present");
    assert_eq!((t_i, v), (Timestamp::from_secs_f64(2.0), 3.0));
    m.check_invariants().unwrap();
    // And across a merge: a shard holding only NaN contributes nothing.
    let mut nan_shard = DecayedExtremum::max(Monomial::quadratic(), 0.0);
    nan_shard.update(5.0, f64::NAN);
    assert!(
        nan_shard.query(10.0).is_none(),
        "NaN never becomes a witness"
    );
    let mut merged = m.clone();
    merged.merge_from(&nan_shard);
    assert_eq!(merged.query(10.0), m.query(10.0));
}

// ---------------------------------------------------------------------------
// Engine-level differential: the single-threaded Engine and the supervised
// ShardedEngine replay the same event sequence (data + punctuation) and must
// emit the same rows, modulo floating-point summation order.
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Shedding differential: the sharded engine under each `ShedPolicy`,
// cross-checked against the single-threaded reference over the same stream.
//
//  - Block and DropOldest on a healthy run admit the entire stream: rows
//    must match the reference exactly (modulo FP summation order) and the
//    shed counters must read zero — "lossless when unpressured" is checked,
//    not assumed.
//  - DropOldest under forced ring pressure sheds whole epochs. Every
//    surviving row aggregates a subset of the reference's tuples, and fwd
//    contributions are non-negative, so each row is bounded above by the
//    reference row — and every shed shows up in telemetry.
//  - Subsample keeps tuple i with probability p_i ∝ its forward-decayed
//    weight and scales survivors by 1/p_i (Horvitz–Thompson), so each row
//    is an unbiased estimate of the reference. With ~1.5 k tuples per row
//    the fixed-seed estimator error sits well inside the asserted ±25% per
//    heavy row and ±5% in aggregate.
// ---------------------------------------------------------------------------

mod shedding {
    use forward_decay::core::decay::{AnyDecay, Monomial};
    use forward_decay::engine::prelude::*;
    use forward_decay::gen::TraceConfig;
    use std::collections::HashMap;
    use std::time::Duration;

    const FINAL_WM: Micros = 30 * MICROS_PER_SEC;

    /// The shared stream: 20 s at 5 k pps with 2 s of reordering jitter,
    /// punctuation interleaved every 1 000 events (lagging far enough that
    /// the jitter never turns into late drops).
    fn events() -> Vec<StreamEvent> {
        let packets = TraceConfig {
            seed: 47,
            duration_secs: 20.0,
            rate_pps: 5_000.0,
            n_hosts: 200,
            ooo_jitter_secs: 2.0,
            ..Default::default()
        }
        .generate();
        let mut events = Vec::with_capacity(packets.len() + packets.len() / 1000);
        let mut max_ts: Micros = 0;
        for (i, p) in packets.iter().enumerate() {
            max_ts = max_ts.max(p.ts);
            events.push(StreamEvent::Data(*p));
            if i % 1000 == 999 {
                events.push(StreamEvent::Punctuation(
                    max_ts.saturating_sub(10 * MICROS_PER_SEC),
                ));
            }
        }
        events
    }

    /// Forward-decayed sum of packet lengths — linear, so Horvitz–Thompson
    /// scaling applies, and non-negative, so shed rows are sub-sums.
    fn build() -> Query {
        Query::builder("shedding")
            .group_by(|p| p.dst_host() % 16)
            .bucket_secs(5)
            .slack_secs(6.0)
            .aggregate(fwd_sum_factory(Monomial::quadratic(), |p| p.len as f64))
            .try_build()
            .expect("valid query")
    }

    fn reference() -> Vec<Row> {
        let mut single = Engine::new(build());
        replay(&mut single, &events(), FINAL_WM).expect("single-threaded replay")
    }

    fn by_key(rows: &[Row]) -> HashMap<(Micros, u64), f64> {
        rows.iter()
            .map(|r| {
                (
                    (r.bucket_start, r.key),
                    r.value.as_float().expect("float row"),
                )
            })
            .collect()
    }

    #[test]
    fn block_and_drop_oldest_admit_everything_when_healthy() {
        let want = reference();
        assert!(!want.is_empty());
        for policy in [ShedPolicy::Block, ShedPolicy::DropOldest] {
            let mut sharded = ShardedEngine::try_new(build(), 3)
                .expect("spawn shards")
                .try_overload(OverloadConfig {
                    policy,
                    ..OverloadConfig::default()
                })
                .expect("fwd sum accepts every policy");
            let rows = replay(&mut sharded, &events(), FINAL_WM).expect("sharded replay");
            let snap = sharded.telemetry().snapshot();
            assert_eq!(snap.shed_tuples, 0, "{policy:?}: healthy run must not shed");
            assert_eq!(
                snap.shed_batches, 0,
                "{policy:?}: healthy run must not shed"
            );
            assert_eq!(rows.len(), want.len(), "{policy:?}: row counts diverge");
            for (x, y) in want.iter().zip(&rows) {
                assert_eq!((x.bucket_start, x.key), (y.bucket_start, y.key));
                let (xv, yv) = (x.value.as_float().unwrap(), y.value.as_float().unwrap());
                assert!(
                    (xv - yv).abs() <= 1e-9 * xv.abs().max(1.0),
                    "{policy:?}: bucket {} key {}: {xv} vs {yv}",
                    x.bucket_start,
                    x.key
                );
            }
        }
    }

    #[test]
    fn drop_oldest_rows_are_subsums_of_reference_under_pressure() {
        // One shard, a deliberately slow worker and a 2 ms send deadline:
        // the ring jams and DropOldest must displace whole epochs. The
        // admitted tuples are a subset of the stream, so with non-negative
        // contributions every surviving row is bounded by the reference.
        let stream: Vec<Packet> = TraceConfig {
            seed: 48,
            duration_secs: 4.0,
            rate_pps: 500.0,
            n_hosts: 40,
            ..Default::default()
        }
        .generate();
        let want = by_key(&Engine::new(build()).run(stream.clone()));
        let mut e = ShardedEngine::try_new(build(), 1)
            .expect("spawn shard")
            .try_batch_size(16)
            .expect("batch size")
            .try_overload(OverloadConfig {
                policy: ShedPolicy::DropOldest,
                send_deadline: Duration::from_millis(2),
                ..OverloadConfig::default()
            })
            .expect("overload config")
            .inject_fault(FaultPlan::parse("slow:0:10").expect("plan"));
        let rows = e.run(stream);
        let snap = e.telemetry().snapshot();
        assert!(snap.shed_batches > 0, "pressure must force displacement");
        assert!(snap.shed_tuples >= snap.shed_batches);
        assert!(!rows.is_empty(), "shedding must not erase the whole answer");
        let total_want: f64 = want.values().sum();
        let mut total_got = 0.0;
        for r in &rows {
            let got = r.value.as_float().expect("float row");
            total_got += got;
            let w = want
                .get(&(r.bucket_start, r.key))
                .unwrap_or_else(|| panic!("row ({}, {}) not in reference", r.bucket_start, r.key));
            assert!(
                got <= w * (1.0 + 1e-9) + 1e-9,
                "bucket {} key {}: admitted subset sums to {got} > reference {w}",
                r.bucket_start,
                r.key
            );
        }
        assert!(
            total_got < total_want,
            "sheds were counted ({}) but no mass is missing",
            snap.shed_tuples
        );
    }

    #[test]
    fn subsample_is_unbiased_within_ht_variance_budget() {
        let want = reference();
        // lag_budget 0 marks every shard permanently lagging, so the
        // thinner engages on every batch — the estimator's worst case.
        let mut sharded = ShardedEngine::try_new(build(), 3)
            .expect("spawn shards")
            .try_overload(OverloadConfig {
                policy: ShedPolicy::Subsample { target_rate: 0.5 },
                lag_budget: 0,
                decay: AnyDecay::Monomial(Monomial::quadratic()),
                seed: 0xD1FF,
                ..OverloadConfig::default()
            })
            .expect("fwd sum is linear, so HT scaling applies");
        let rows = replay(&mut sharded, &events(), FINAL_WM).expect("sharded replay");
        let snap = sharded.telemetry().snapshot();
        assert!(snap.shed_tuples > 0, "rate 0.5 over 100 k tuples must thin");
        // Every scope that lost a tuple counted it (the aggregate scales,
        // so no worker refused one after its producer let it through).
        let by_shard: u64 = snap.shards.iter().map(|s| s.shed_tuples).sum();
        let by_producer: u64 = snap.producers.iter().map(|p| p.shed_tuples).sum();
        assert_eq!(by_shard, snap.shed_tuples);
        assert_eq!(by_producer, snap.shed_tuples);

        // Survivors are a subset of the stream: no invented (bucket, key).
        let want_map = by_key(&want);
        let got_map = by_key(&rows);
        for k in got_map.keys() {
            assert!(want_map.contains_key(k), "row {k:?} not in reference");
        }
        // Aggregate mass: the HT estimate of the total is unbiased and
        // averages over every row's noise.
        let total_want: f64 = want_map.values().sum();
        let total_got: f64 = got_map.values().sum();
        assert!(
            (total_got - total_want).abs() <= 0.05 * total_want,
            "HT total {total_got} vs reference {total_want}"
        );
        // Per-row: every row carrying ≥1% of the mass must sit within the
        // variance budget. (Tiny rows can legitimately vanish — each tuple
        // survives with p ≥ P_MIN — so they are checked only for subset
        // membership above.)
        let floor = 0.01 * total_want;
        for (k, w) in &want_map {
            if *w < floor {
                continue;
            }
            let got = got_map
                .get(k)
                .unwrap_or_else(|| panic!("heavy row {k:?} vanished under subsampling"));
            assert!(
                (got - w).abs() <= 0.25 * w,
                "row {k:?}: HT estimate {got} vs reference {w} (±25% budget)"
            );
        }
    }
}

#[test]
fn differential_engine_vs_sharded_engine_replay() {
    use forward_decay::engine::prelude::*;
    use forward_decay::gen::TraceConfig;

    let packets = TraceConfig {
        seed: 31,
        duration_secs: 20.0,
        rate_pps: 5_000.0,
        n_hosts: 200,
        ooo_jitter_secs: 2.0,
        ..Default::default()
    }
    .generate();
    // Interleave punctuation (lagging well behind the max timestamp so the
    // jitter never turns into late drops) between data events.
    let mut events = Vec::with_capacity(packets.len() + packets.len() / 1000);
    let mut max_ts: Micros = 0;
    for (i, p) in packets.iter().enumerate() {
        max_ts = max_ts.max(p.ts);
        events.push(StreamEvent::Data(*p));
        if i % 1000 == 999 {
            events.push(StreamEvent::Punctuation(
                max_ts.saturating_sub(10 * MICROS_PER_SEC),
            ));
        }
    }
    let build = || {
        Query::builder("differential")
            .group_by(|p| p.dst_host() % 16)
            .bucket_secs(5)
            .slack_secs(6.0)
            .aggregate(fwd_sum_factory(Monomial::quadratic(), |p| p.len as f64))
            .try_build()
            .expect("valid query")
    };
    let final_wm = 30 * MICROS_PER_SEC;
    let mut single = Engine::new(build());
    let a = replay(&mut single, &events, final_wm).expect("single-threaded replay");
    let mut sharded = ShardedEngine::try_new(build(), 3).expect("spawn shards");
    let b = replay(&mut sharded, &events, final_wm).expect("sharded replay");
    assert_eq!(single.stats().late_drops, 0, "slack must absorb the jitter");
    assert_eq!(a.len(), b.len(), "row counts diverge");
    for (x, y) in a.iter().zip(&b) {
        assert_eq!((x.bucket_start, x.key), (y.bucket_start, y.key));
        let (xv, yv) = (x.value.as_float().unwrap(), y.value.as_float().unwrap());
        assert!(
            (xv - yv).abs() <= 1e-9 * xv.abs().max(1.0),
            "bucket {} key {}: {xv} vs {yv}",
            x.bucket_start,
            x.key
        );
    }
}

// ---------------------------------------------------------------------------
// The numeric contract of `g` over a bucket: `try_build` refuses a decayed
// query whose weights could overflow a sum (`ln g(width + slack)` past
// ln(f64::MAX / 2^128)), or, for a ratio under an exponential `g`, underflow
// beneath the bucket's newest landmark (past −ln(f64::MIN_POSITIVE)); and
// nothing it accepts emits a non-finite value from finite input.
// ---------------------------------------------------------------------------

#[test]
fn no_decay_try_build_accepts_emits_a_non_finite_value() {
    use forward_decay::engine::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    let build = |spec: &str, width: u64, slack: f64, kind: usize| {
        let g: AnyDecay = spec.parse().expect("decay spec");
        let len = |p: &Packet| p.len as f64;
        let aggregate = match kind {
            0 => fwd_sum_factory(g, len),
            1 => fwd_count_factory(g),
            2 => fwd_hh_factory(g, 0.1, 0.2, |p| p.src_host()),
            3 => fwd_avg_factory(g, len),
            4 => fwd_var_factory(g, len),
            _ => fwd_quantile_factory(g, 16, 0.05, vec![0.5], |p| u64::from(p.len)),
        };
        Query::builder("contract")
            .group_by(|p| p.dst_host() % 3)
            .bucket_secs(width)
            .slack_secs(slack)
            .aggregate(aggregate)
            .try_build()
    };
    // The NaN cases found by hand, and the fast rates the renormalizer
    // keeps finite.
    for (spec, width) in [("poly:400", 60), ("poly:180", 60), ("poly:90", 3_600)] {
        let refused = build(spec, width, 0.0, 0).err().expect("refused");
        assert!(
            refused.to_string().contains("ln g(bucket + slack)"),
            "{spec} at {width} s: {refused}"
        );
    }
    for (spec, width) in [("poly:2", 86_400), ("exp:1000", 60), ("exp:1000", 86_400)] {
        assert!(build(spec, width, 2.0, 0).is_ok(), "{spec} at {width} s");
    }
    // A ratio under one clock: α·(60 + 2) = 620 keeps a quiet group's
    // weights normal, 62 000 would not.
    assert!(build("exp:10", 60, 2.0, 3).is_ok());
    for kind in 2..6 {
        let refused = build("exp:1000", 60, 2.0, kind).err().expect("refused");
        assert!(refused.to_string().contains("MIN_POSITIVE"), "{refused}");
    }
    let mut rng = SmallRng::seed_from_u64(0xF1_417E);
    let (mut accepted, mut refused) = (0, 0);
    for _ in 0..120 {
        let spec = if rng.gen_bool(0.5) {
            format!("poly:{}", rng.gen_range(0.5..450.0))
        } else {
            format!("exp:{}", rng.gen_range(0.001..2000.0))
        };
        let width = [1u64, 5, 60, 3_600, 86_400][rng.gen_range(0..5usize)];
        let slack = [0.0, 2.0][rng.gen_range(0..2usize)];
        let kind = rng.gen_range(0..6usize);
        let Ok(query) = build(&spec, width, slack, kind) else {
            refused += 1;
            continue;
        };
        accepted += 1;
        // Two buckets, lengths up to 65 535: spread from the first
        // microsecond to the last; or an idle tail, every group arriving
        // from 30 % to 70 % into each bucket and group 0 only to 40 %, so
        // a clock moves past a quiet group and the answer is read long
        // after its last move. (A steep polynomial weighs an arrival in the
        // first instants of a bucket below the smallest f64 — a group with
        // only such arrivals has no ratio — so neither stream gives a
        // group only those.)
        let width_us = width * MICROS_PER_SEC;
        let spread = |i: u64| (i * (2 * width_us - 1) / 95, i % 7);
        let idle_tail = |i: u64| {
            let (bucket, k) = (i / 48, i % 48);
            let host = if k < 12 { 0 } else { 1 + k % 2 };
            let into = if host == 0 {
                0.3 + 0.1 * k as f64 / 12.0
            } else {
                0.3 + 0.4 * k as f64 / 48.0
            };
            (bucket * width_us + (into * width_us as f64) as u64, host)
        };
        let finite = |v: &AggValue| match v {
            AggValue::Float(x) => x.is_finite(),
            AggValue::Items(items) => items.iter().all(|i| i.value.is_finite()),
            AggValue::Multi(_) => unreachable!("one aggregate"),
        };
        for shape in [&spread as &dyn Fn(u64) -> (u64, u64), &idle_tail] {
            let stream: Vec<Packet> = (0..96u64)
                .map(|i| Packet {
                    ts: shape(i).0,
                    src_ip: (i % 5) as u32,
                    dst_ip: shape(i).1 as u32,
                    src_port: 1,
                    dst_port: 2,
                    len: rng.gen_range(0..=65_535u32),
                    proto: Proto::Tcp,
                })
                .collect();
            for row in Engine::new(query.clone()).run(stream) {
                assert!(
                    finite(&row.value),
                    "{spec}, {width} s buckets, {slack} s slack, aggregate {kind}: {:?}",
                    row.value
                );
            }
        }
    }
    assert!(
        accepted >= 40 && refused >= 10,
        "{accepted} accepted, {refused} refused"
    );
}
