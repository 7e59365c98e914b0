//! Soak test: the engine is a *streaming* system — state must stay bounded
//! by groups × summary size, never by stream length. A multi-minute,
//! multi-million-tuple trace flows through lazily (never materialized) and
//! the engine's live state is probed between buckets.

use forward_decay::core::decay::Exponential;
use forward_decay::engine::prelude::*;
use forward_decay::gen::TraceConfig;

#[test]
fn state_stays_bounded_over_a_long_lazy_stream() {
    // 5 minutes at 20k pkt/s = 6M tuples, streamed straight from the
    // generator iterator.
    let trace = TraceConfig {
        seed: 3,
        duration_secs: 300.0,
        rate_pps: 20_000.0,
        n_hosts: 2_000,
        ..Default::default()
    };
    let q = Query::builder("soak")
        .group_by(|p| p.dst_host())
        .bucket_secs(60)
        .aggregate(fwd_sum_factory(Exponential::new(0.05), |p| p.len as f64))
        .lfta_slots(4096)
        .try_build()
        .expect("valid query");
    let mut e = Engine::new(q);
    let mut peak_space = 0usize;
    let mut rows_total = 0usize;
    for (i, p) in trace.iter().enumerate() {
        e.process(&p);
        if i % 500_000 == 0 {
            peak_space = peak_space.max(e.space_bytes());
            rows_total += e.drain_rows().len();
        }
    }
    rows_total += e.finish().len();
    let stats = e.stats();
    assert!(
        stats.tuples_in > 5_500_000,
        "stream too short: {}",
        stats.tuples_in
    );
    assert_eq!(stats.buckets_closed, 5);
    // ~2000 groups across ≤ 2 open buckets, a few words each, plus the
    // 4096-slot LFTA: well under 2 MB no matter how long the stream runs.
    assert!(
        peak_space < 2 * 1024 * 1024,
        "state ballooned to {peak_space} bytes"
    );
    assert!(rows_total >= 5 * 1_500, "rows: {rows_total}");
}

#[test]
fn renormalization_soak_under_fierce_exponential_decay() {
    // α = 5/s over 300 s ⇒ g spans e^1500, forcing ~4 renormalizations per
    // group per bucket; every emitted value must still be finite and sane.
    let trace = TraceConfig {
        seed: 4,
        duration_secs: 300.0,
        rate_pps: 5_000.0,
        n_hosts: 50,
        ..Default::default()
    };
    let q = Query::builder("renorm_soak")
        .group_by(|p| p.dst_host())
        .bucket_secs(60)
        .aggregate(fwd_count_factory(Exponential::new(5.0)))
        .try_build()
        .expect("valid query");
    let rows = Engine::new(q).run(trace.iter());
    assert!(!rows.is_empty());
    for r in &rows {
        let v = r.value.as_float().expect("float");
        assert!(v.is_finite() && v >= 0.0, "bad decayed count {v}");
        // With α = 5 and ~100 pkt/s/group, the decayed count at bucket end
        // is around (rate/group)/α ≈ 20 — never astronomical.
        assert!(v < 1e4, "decayed count suspiciously large: {v}");
    }
}
