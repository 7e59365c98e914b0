//! Checkpoint/restore: every fd-core summary snapshots to bytes mid-stream,
//! restores, continues ingesting, and answers exactly like the original —
//! the state-recovery story a production stream processor needs.

use forward_decay::core::aggregates::{DecayedCount, DecayedSum, DecayedVariance};
use forward_decay::core::backward::{ExponentialHistogram, PrefixBackwardHH, SlidingWindowHH};
use forward_decay::core::checkpoint::{from_bytes, to_bytes, Decode, Encode};
use forward_decay::core::cm::CmSketch;
use forward_decay::core::decay::{AnyDecay, BackExponential, Exponential, Monomial};
use forward_decay::core::distinct::{DominanceSketch, ExactDominance};
use forward_decay::core::heavy_hitters::{
    DecayedHeavyHitters, UnarySpaceSaving, WeightedSpaceSaving,
};
use forward_decay::core::quantiles::{DecayedQuantiles, QDigest};
use forward_decay::engine::prelude::*;
use forward_decay::gen::TraceConfig;

fn trace() -> Vec<Packet> {
    TraceConfig {
        seed: 97,
        duration_secs: 20.0,
        rate_pps: 10_000.0,
        n_hosts: 500,
        ..Default::default()
    }
    .generate()
}

/// Ingests the first half, snapshots, restores, feeds the second half into
/// both the original and the restored copy, and compares via `query`.
fn check_roundtrip<S, Q>(mut summary: S, mut feed: impl FnMut(&mut S, &Packet), query: Q)
where
    S: Encode + Decode,
    Q: Fn(&S) -> f64,
{
    let packets = trace();
    let mid = packets.len() / 2;
    for p in &packets[..mid] {
        feed(&mut summary, p);
    }
    let snapshot = to_bytes(&summary);
    let mut restored: S = from_bytes(&snapshot).expect("deserialize");
    // The summaries that still sum over a HashMap (sliding-window and
    // prefix heavy hitters, the exact dominance norm) iterate it in a
    // different order after restore, which reorders their floating-point
    // accumulation — allow ULP noise. (The q-digest is not one of them: it
    // is a sorted Vec and answers bit for bit.)
    let (a0, b0) = (query(&summary), query(&restored));
    assert!(
        (a0 - b0).abs() <= 1e-12 * a0.abs().max(1.0),
        "state differs at snapshot: {a0} vs {b0}"
    );
    for p in &packets[mid..] {
        feed(&mut summary, p);
        feed(&mut restored, p);
    }
    let (a, b) = (query(&summary), query(&restored));
    assert!(
        (a - b).abs() <= 1e-12 * a.abs().max(1.0),
        "diverged after restore: {a} vs {b}"
    );
}

#[test]
fn scalar_aggregates_checkpoint() {
    check_roundtrip(
        DecayedSum::new(Monomial::quadratic(), 0.0),
        |s, p| s.update(p.ts_secs(), p.len as f64),
        |s| s.query(21.0),
    );
    check_roundtrip(
        DecayedCount::new(Exponential::new(0.5), 0.0), // exercises renormalizer state
        |s, p| s.update(p.ts_secs()),
        |s| s.query(21.0),
    );
    check_roundtrip(
        DecayedVariance::new(AnyDecay::Monomial(Monomial::new(1.5)), 0.0),
        |s, p| s.update(p.ts_secs(), p.len as f64),
        |s| s.query(21.0).unwrap(),
    );
}

#[test]
fn heavy_hitter_summaries_checkpoint() {
    check_roundtrip(
        WeightedSpaceSaving::with_epsilon(0.01),
        |s, p| s.update(p.dst_host(), p.len as f64),
        |s| {
            s.heavy_hitters(0.02)
                .first()
                .map(|h| h.count)
                .unwrap_or(0.0)
        },
    );
    check_roundtrip(
        UnarySpaceSaving::with_epsilon(0.01),
        |s, p| s.update(p.dst_host()),
        |s| {
            s.heavy_hitters(0.02)
                .first()
                .map(|h| h.count)
                .unwrap_or(0.0)
        },
    );
    check_roundtrip(
        DecayedHeavyHitters::new(Exponential::new(0.2), 0.0, 256),
        |s, p| s.update(p.ts_secs(), p.dst_host()),
        |s| s.decayed_count(21.0),
    );
    check_roundtrip(
        CmSketch::with_epsilon_delta(0.01, 0.01, 5),
        |s, p| s.update(p.dst_host(), 1.0),
        |s| s.query(0x0A00_0000),
    );
}

#[test]
fn quantile_summaries_checkpoint() {
    check_roundtrip(
        QDigest::with_epsilon(11, 0.02),
        |s, p| s.update(p.len as u64, 1.0),
        |s| s.quantile(0.5).unwrap_or(0) as f64,
    );
    check_roundtrip(
        DecayedQuantiles::new(Monomial::quadratic(), 0.0, 11, 0.02),
        |s, p| s.update(p.ts_secs(), p.len as u64),
        |s| s.quantile(0.5, 21.0).unwrap_or(0) as f64,
    );
}

#[test]
fn distinct_summaries_checkpoint() {
    check_roundtrip(
        ExactDominance::new(Monomial::new(1.0), 0.0),
        |s, p| s.update(p.ts_secs(), p.dst_host()),
        |s| s.query(21.0),
    );
    check_roundtrip(
        DominanceSketch::new(Monomial::new(1.0), 0.0, 0.2, 9),
        |s, p| s.update(p.ts_secs(), p.dst_host()),
        |s| s.query(21.0),
    );
}

#[test]
fn backward_baselines_checkpoint() {
    let f = BackExponential::new(0.1);
    check_roundtrip(
        ExponentialHistogram::with_epsilon(0.05),
        |s, p| s.insert_value(p.ts_secs(), p.len as u64),
        |s| s.decayed_query(&f, 21.0),
    );
    check_roundtrip(
        SlidingWindowHH::new(1.0, 6),
        |s, p| s.update(p.ts_secs(), p.dst_host()),
        |s| s.decayed_counts(&f, 21.0).1,
    );
    check_roundtrip(
        PrefixBackwardHH::new(10, 0.1),
        |s, p| s.update(p.ts_secs(), p.dst_host() % 1024),
        |s| s.decayed_total(&f, 21.0),
    );
}

#[test]
fn renormalizing_summaries_checkpoint_mid_renormalization() {
    // α = 20 drives g(t − L) past the rescale threshold several times inside
    // the 20 s trace, so the snapshot lands *between* renormalizations: the
    // restored copy must carry the effective landmark and rescale count, not
    // just the raw accumulator, or the halves disagree after restore.
    check_roundtrip(
        DecayedCount::new(Exponential::new(20.0), 0.0),
        |s, p| s.update(p.ts_secs()),
        |s| s.query(21.0),
    );
    check_roundtrip(
        DecayedHeavyHitters::new(Exponential::new(20.0), 0.0, 64),
        |s, p| s.update(p.ts_secs(), p.dst_host()),
        |s| s.decayed_count(21.0),
    );
    check_roundtrip(
        DecayedQuantiles::new(Exponential::new(20.0), 0.0, 11, 0.05),
        |s, p| s.update(p.ts_secs(), p.len as u64),
        |s| s.decayed_count(21.0),
    );
}

#[test]
fn restored_summary_merges_across_renormalization_gap() {
    // Regression (found by the differential oracle harness): restore a
    // shard whose renormalizer moved its effective landmark ~800 s ahead,
    // then merge it with a shard still at the original landmark. The
    // landmark gap exceeds ln(f64::MAX)/α ≈ 709 s, so the old linear-domain
    // alignment factor `1/g(ΔL)` evaluated as `1/∞ = 0` — silently zeroing
    // the stale shard's mass in release and tripping `scale_all`'s
    // positivity assert under debug assertions. The factor now comes out of
    // the log domain ([`landmark_shift_factor`]) as an honest subnormal.
    use forward_decay::core::merge::Mergeable;
    use forward_decay::core::summary::Summary;

    let g = Exponential::new(1.0);
    let mut stale = DecayedCount::new(g, 0.0);
    stale.update(1.0);
    let mut ahead = DecayedCount::new(g, 0.0);
    ahead.update(800.0);
    ahead.update(801.0);
    assert!(
        Summary::stats(&ahead).renormalizations >= 1,
        "the fast shard must actually have renormalized"
    );
    let restored: DecayedCount<Exponential> = from_bytes(&to_bytes(&ahead)).expect("restore");
    assert_eq!(
        Summary::stats(&restored).renormalizations,
        Summary::stats(&ahead).renormalizations,
        "rescale count must survive the snapshot"
    );
    let t = 802.0;
    use forward_decay::core::decay::ForwardDecay;
    let want = g.weight(0.0, 1.0, t) + g.weight(0.0, 800.0, t) + g.weight(0.0, 801.0, t);
    // Stale into restored-ahead…
    let mut a = restored.clone();
    a.merge_from(&stale);
    assert!(
        (a.query(t) - want).abs() <= 1e-9 * want,
        "{} vs {want}",
        a.query(t)
    );
    // …and restored-ahead into stale.
    let mut b = stale.clone();
    b.merge_from(&restored);
    assert!(
        (b.query(t) - want).abs() <= 1e-9 * want,
        "{} vs {want}",
        b.query(t)
    );
    a.check_invariants().expect("merged state sane");
    b.check_invariants().expect("merged state sane");
}

#[test]
fn snapshots_are_compact() {
    // A constant-space aggregate's snapshot is a few dozen bytes; a
    // SpaceSaving summary is proportional to its counters, not the stream.
    let mut sum = DecayedSum::new(Monomial::quadratic(), 0.0);
    let mut ss = WeightedSpaceSaving::with_epsilon(0.01);
    for p in trace() {
        sum.update(p.ts_secs(), p.len as f64);
        ss.update(p.dst_host(), 1.0);
    }
    let sum_bytes = to_bytes(&sum);
    let ss_bytes = to_bytes(&ss);
    assert!(
        sum_bytes.len() < 128,
        "scalar snapshot is {} bytes",
        sum_bytes.len()
    );
    assert!(
        ss_bytes.len() < 64 * 1024,
        "SS snapshot is {} bytes",
        ss_bytes.len()
    );
}

#[test]
fn corrupted_snapshots_fail_loudly() {
    let mut q = QDigest::with_epsilon(8, 0.1);
    q.update(5, 1.0);
    let mut bytes = to_bytes(&q);
    bytes.truncate(bytes.len() / 2);
    assert!(from_bytes::<QDigest>(&bytes).is_err());
}

#[test]
fn quantile_checkpoints_are_canonical() {
    // Byte-for-byte snapshots are what the supervisor's replay and the
    // durable store compare and deduplicate on. The digest's nodes are
    // written in ascending id order, then the arrivals not yet folded in:
    // a function of the stream alone, not of a per-instance hash seed.
    let packets = trace();
    let digest = || DecayedQuantiles::new(Exponential::new(0.3), 0.0, 11, 0.02);
    let (mut a, mut b) = (digest(), digest());
    for p in &packets {
        a.update(p.ts_secs(), p.len as u64);
        b.update(p.ts_secs(), p.len as u64);
    }
    let bytes = to_bytes(&a);
    assert!(
        bytes == to_bytes(&b),
        "one stream, two instances, different bytes"
    );
    // Restoring folds the pending arrivals in, so the first round trip may
    // reorder; from then on checkpoint ∘ restore is the identity.
    let restore =
        |bytes: &[u8]| from_bytes::<DecayedQuantiles<Exponential>>(bytes).expect("restore");
    let once = to_bytes(&restore(&bytes));
    let twice = to_bytes(&restore(&once));
    assert!(once == twice, "checkpoint ∘ restore is not a fixed point");
    assert!(once.len() <= bytes.len());
    for phi in [0.0, 0.5, 0.99, 1.0] {
        assert_eq!(restore(&twice).quantile(phi, 21.0), a.quantile(phi, 21.0));
    }

    // The same through the engine: every group's digest in one blob.
    let query = || {
        Query::builder("q")
            .group_by(|p| p.dst_host())
            .bucket_secs(10)
            .aggregate(fwd_quantile_factory(
                Monomial::quadratic(),
                11,
                0.01,
                vec![0.5, 0.95, 0.99],
                |p| p.len as u64,
            ))
            .build()
    };
    let (mut e1, mut e2) = (Engine::new(query()), Engine::new(query()));
    for p in &packets[..packets.len() * 3 / 4] {
        e1.process(p);
        e2.process(p);
    }
    let blob = e1.checkpoint().expect("checkpoint");
    assert!(
        blob == e2.checkpoint().expect("checkpoint"),
        "two engines, one stream, different checkpoints"
    );
    let once = Engine::restore(query(), &blob)
        .expect("restore")
        .checkpoint()
        .expect("checkpoint");
    let mut resumed = Engine::restore(query(), &once).expect("restore");
    assert!(once == resumed.checkpoint().expect("checkpoint"));
    for p in &packets[packets.len() * 3 / 4..] {
        e1.process(p);
        resumed.process(p);
    }
    assert_eq!(resumed.finish(), e1.finish());
}
