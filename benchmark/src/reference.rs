//! The correctness gate: what the rows should be, computed without the
//! program under test, and the comparisons that feed `failed`.
//!
//! Three referees, by workload:
//! - scalar aggregates: a closed-form evaluation of
//!   Σ g(tᵢ − L)·vᵢ / g(t − L) per (bucket, key), written here from the
//!   paper's definition with its own watermark bookkeeping — every row must
//!   agree within 1e-9 relative;
//! - every sharded workload: the single-threaded `Engine`'s rows for the
//!   same trace, bit for bit, in canonical `(bucket_start, key)` order;
//! - the sketch workload: `fd_core`'s brute-force oracle on the 64 heaviest
//!   groups, within the q-digest's ε.

use std::collections::HashMap;

use crate::adapter::{self, AggValue, Packet, QuerySpec, Row, MICROS, QUANTILE_EPS};

/// Relative tolerance of the closed-form check.
pub const SCALAR_REL_TOL: f64 = 1e-9;

/// Groups the oracle referees on the sketch workload.
pub const ORACLE_GROUPS: usize = 64;

/// Rows that disagree with a referee.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mismatch {
    /// Reference rows the program did not emit.
    pub missing: u64,
    /// Emitted rows the reference does not have.
    pub extra: u64,
    /// Rows present on both sides whose values disagree.
    pub outside: u64,
}

impl Mismatch {
    pub fn total(&self) -> u64 {
        self.missing + self.extra + self.outside
    }
}

impl std::ops::AddAssign for Mismatch {
    fn add_assign(&mut self, o: Self) {
        self.missing += o.missing;
        self.extra += o.extra;
        self.outside += o.outside;
    }
}

/// The closed-form reference for a scalar workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Independent {
    /// `(bucket_start µs, key, value)` in canonical order.
    pub rows: Vec<(u64, u64, f64)>,
    pub filtered: u64,
    /// Tuples whose bucket had already closed when they arrived. The
    /// engine drops these too, so they are not failures.
    pub late_drops: u64,
}

/// `g(n) = n²` with the monomial's clamp at the landmark — `poly:2`,
/// restated here so the reference shares no code with `fd_core::decay`.
fn g(n_secs: f64) -> f64 {
    if n_secs <= 0.0 {
        0.0
    } else {
        n_secs * n_secs
    }
}

/// Evaluates the query from its definition. The landmark of a bucket is its
/// start and rows are evaluated at its end; a bucket closes once the
/// watermark (largest admitted timestamp) passes its end plus the slack,
/// and later tuples for it are dropped as late.
pub fn independent_scalar(spec: &QuerySpec, trace: &[Packet]) -> Independent {
    assert!(
        spec.is_scalar(),
        "closed form exists for scalar aggregates only"
    );
    let (bm, slack) = (spec.bucket_micros(), spec.slack_micros());
    let mut acc: HashMap<(u64, u64), f64> = HashMap::new();
    let (mut filtered, mut late_drops) = (0u64, 0u64);
    let (mut watermark, mut closed_below) = (0u64, 0u64);
    for p in trace {
        if !spec.admits(p) {
            filtered += 1;
            continue;
        }
        let bucket = p.ts / bm;
        if bucket < closed_below {
            late_drops += 1;
            continue;
        }
        watermark = watermark.max(p.ts);
        let age = (p.ts - bucket * bm) as f64 / MICROS as f64;
        let v = match spec.agg {
            adapter::Agg::Sum => p.len as f64,
            _ => 1.0,
        };
        *acc.entry((bucket, spec.key(p))).or_insert(0.0) += g(age) * v;
        closed_below = closed_below.max(watermark.saturating_sub(slack) / bm);
    }
    let norm = g(spec.bucket_secs as f64);
    let mut rows: Vec<(u64, u64, f64)> = acc
        .into_iter()
        .map(|((bucket, key), sum)| (bucket * bm, key, sum / norm))
        .collect();
    rows.sort_unstable_by_key(|r| (r.0, r.1));
    Independent {
        rows,
        filtered,
        late_drops,
    }
}

/// Walks two canonically ordered row lists in step.
fn merge_join<A, B>(
    got: &[A],
    want: &[B],
    got_key: impl Fn(&A) -> (u64, u64),
    want_key: impl Fn(&B) -> (u64, u64),
    agree: impl Fn(&A, &B) -> bool,
) -> Mismatch {
    let mut m = Mismatch::default();
    let (mut i, mut j) = (0, 0);
    while i < got.len() && j < want.len() {
        match got_key(&got[i]).cmp(&want_key(&want[j])) {
            std::cmp::Ordering::Less => {
                m.extra += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                m.missing += 1;
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                if !agree(&got[i], &want[j]) {
                    m.outside += 1;
                }
                i += 1;
                j += 1;
            }
        }
    }
    m.extra += (got.len() - i) as u64;
    m.missing += (want.len() - j) as u64;
    m
}

/// Compares canonical rows to the closed form within `SCALAR_REL_TOL`.
pub fn compare_scalar(rows: &[Row], reference: &[(u64, u64, f64)]) -> Mismatch {
    merge_join(
        rows,
        reference,
        |r| (r.bucket_start, r.key),
        |w| (w.0, w.1),
        |r, w| match r.value {
            AggValue::Float(x) => {
                (x - w.2).abs() <= SCALAR_REL_TOL * w.2.abs().max(f64::MIN_POSITIVE)
            }
            _ => false,
        },
    )
}

fn same_bits(a: &AggValue, b: &AggValue) -> bool {
    match (a, b) {
        (AggValue::Float(x), AggValue::Float(y)) => x.to_bits() == y.to_bits(),
        (AggValue::Items(x), AggValue::Items(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|(p, q)| p.item == q.item && p.value.to_bits() == q.value.to_bits())
        }
        (AggValue::Multi(x), AggValue::Multi(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| same_bits(p, q))
        }
        _ => false,
    }
}

/// Compares canonical rows bit for bit.
pub fn compare_exact(rows: &[Row], expected: &[Row]) -> Mismatch {
    merge_join(
        rows,
        expected,
        |r| (r.bucket_start, r.key),
        |w| (w.bucket_start, w.key),
        |r, w| same_bits(&r.value, &w.value),
    )
}

/// A 64-bit FNV-1a digest of canonical rows, bit-exact in every value:
/// lets every pass be checked against the one pass compared in full
/// without keeping its rows resident (which would count against
/// `peak_rss_mib`).
pub fn digest(rows: &[Row]) -> u64 {
    fn mix(h: &mut u64, word: u64) {
        for b in word.to_le_bytes() {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn mix_value(h: &mut u64, v: &AggValue) {
        match v {
            AggValue::Float(x) => {
                mix(h, 1);
                mix(h, x.to_bits());
            }
            AggValue::Items(items) => {
                mix(h, 2);
                mix(h, items.len() as u64);
                for it in items {
                    mix(h, it.item);
                    mix(h, it.value.to_bits());
                }
            }
            AggValue::Multi(parts) => {
                mix(h, 3);
                mix(h, parts.len() as u64);
                for p in parts {
                    mix_value(h, p);
                }
            }
        }
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in rows {
        mix(&mut h, r.bucket_start);
        mix(&mut h, r.key);
        mix_value(&mut h, &r.value);
    }
    h
}

/// Referees the sketch workload's heaviest groups against the brute-force
/// oracle: an emitted φ-quantile `v` is within ε when the decayed-rank
/// interval of `v` — from the mass strictly below it to the mass at or
/// below it — meets `[(φ − ε)·C, (φ + ε)·C]`. Returns `(groups checked,
/// groups failed)`; a group fails on a missing row or any quantile out of
/// bounds. `rows` must be canonical.
pub fn check_quantiles(spec: &QuerySpec, trace: &[Packet], rows: &[Row]) -> (u64, u64) {
    let bm = spec.bucket_micros();
    let mut sizes: HashMap<(u64, u64), u64> = HashMap::new();
    for p in trace.iter().filter(|p| spec.admits(p)) {
        *sizes.entry((p.ts / bm, spec.key(p))).or_insert(0) += 1;
    }
    let mut heaviest: Vec<((u64, u64), u64)> = sizes.into_iter().collect();
    heaviest.sort_unstable_by_key(|&(group, n)| (std::cmp::Reverse(n), group));
    heaviest.truncate(ORACLE_GROUPS);
    let mut items: HashMap<(u64, u64), Vec<(u64, u64)>> = heaviest
        .iter()
        .map(|&(g, n)| (g, Vec::with_capacity(n as usize)))
        .collect();
    for p in trace.iter().filter(|p| spec.admits(p)) {
        if let Some(v) = items.get_mut(&(p.ts / bm, spec.key(p))) {
            v.push((p.ts, p.len as u64));
        }
    }
    let mut failed = 0u64;
    for ((bucket, key), group_items) in &items {
        let start = bucket * bm;
        let row = rows
            .binary_search_by_key(&(start, *key), |r| (r.bucket_start, r.key))
            .ok()
            .map(|i| &rows[i]);
        let Some(AggValue::Items(quantiles)) = row.map(|r| &r.value) else {
            failed += 1;
            continue;
        };
        let ok = !quantiles.is_empty()
            && quantiles.iter().all(|q| {
                let (below, at, count) =
                    adapter::oracle_rank_bounds(group_items, start, start + bm, q.item);
                let (phi, eps) = (q.value, QUANTILE_EPS);
                at >= (phi - eps) * count && below <= (phi + eps) * count
            });
        if !ok {
            failed += 1;
        }
    }
    (items.len() as u64, failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{Agg, Exec, Group, Pipeline, Proto, TraceShape};

    fn small_shape() -> TraceShape {
        TraceShape {
            rate_pps: 20_000.0,
            duration_secs: 4.0,
            n_hosts: 500,
            tcp_fraction: 0.85,
            ooo_jitter_secs: 0.0,
        }
    }

    fn sum_query() -> QuerySpec {
        QuerySpec {
            filter: Some(Proto::Tcp),
            group: Group::DstHost,
            agg: Agg::Sum,
            bucket_secs: 1,
            slack_secs: 0.0,
        }
    }

    fn run(spec: &QuerySpec, exec: Exec, trace: &[Packet]) -> Vec<Row> {
        let (mut p, _) = Pipeline::spawn(spec, exec, true, None).expect("spawn");
        for chunk in trace.chunks(adapter::CHUNK) {
            p.offer(chunk).expect("offer");
        }
        let (mut rows, loss) = p.drain();
        assert_eq!(loss.tuples(), 0);
        adapter::canonical(&mut rows);
        rows
    }

    #[test]
    fn closed_form_agrees_with_the_engine_in_order() {
        let trace = adapter::generate(&small_shape(), 7);
        let spec = sum_query();
        let reference = independent_scalar(&spec, &trace);
        assert_eq!(reference.late_drops, 0);
        assert!(reference.filtered > 0 && reference.rows.len() > 500);
        let rows = run(&spec, Exec::Single, &trace);
        assert_eq!(compare_scalar(&rows, &reference.rows), Mismatch::default());
    }

    #[test]
    fn closed_form_reproduces_the_engines_late_drops() {
        let shape = TraceShape {
            ooo_jitter_secs: 1.5,
            ..small_shape()
        };
        let trace = adapter::generate(&shape, 11);
        let spec = QuerySpec {
            filter: None,
            group: Group::DstKey,
            slack_secs: 0.5,
            ..sum_query()
        };
        let reference = independent_scalar(&spec, &trace);
        assert!(
            reference.late_drops > 0,
            "jitter beyond the slack drops tuples"
        );
        let (mut p, _) = Pipeline::spawn(&spec, Exec::Single, true, None).expect("spawn");
        for chunk in trace.chunks(adapter::CHUNK) {
            p.offer(chunk).expect("offer");
        }
        let (mut rows, _) = p.drain();
        adapter::canonical(&mut rows);
        assert_eq!(p.counters().late_drops, reference.late_drops);
        assert_eq!(compare_scalar(&rows, &reference.rows), Mismatch::default());
    }

    #[test]
    fn a_perturbed_reference_row_is_a_failure() {
        let trace = adapter::generate(&small_shape(), 7);
        let spec = sum_query();
        let rows = run(&spec, Exec::Single, &trace);
        let mut reference = independent_scalar(&spec, &trace);
        reference.rows[3].2 *= 1.0 + 1e-6;
        let m = compare_scalar(&rows, &reference.rows);
        assert_eq!((m.missing, m.extra, m.outside), (0, 0, 1));
        // A dropped reference row makes the emitted one extra; an invented
        // one goes missing.
        let dropped = reference.rows.remove(10);
        assert_eq!(compare_scalar(&rows, &reference.rows).extra, 1);
        reference.rows.insert(10, (dropped.0, dropped.1, dropped.2));
        reference.rows.push((u64::MAX, 0, 1.0));
        assert_eq!(compare_scalar(&rows, &reference.rows).missing, 1);
    }

    #[test]
    fn sharded_rows_match_single_thread_bit_for_bit() {
        let trace = adapter::generate(&small_shape(), 7);
        let spec = sum_query();
        let single = run(&spec, Exec::Single, &trace);
        for producers in [0, 1] {
            let sharded = run(&spec, Exec::Sharded { producers }, &trace);
            assert_eq!(compare_exact(&sharded, &single), Mismatch::default());
            assert_eq!(digest(&sharded), digest(&single));
        }
        // One flipped mantissa bit is a mismatch and a different digest.
        let mut bent = single.clone();
        if let AggValue::Float(x) = &mut bent[0].value {
            *x = f64::from_bits(x.to_bits() ^ 1);
        }
        assert_eq!(compare_exact(&bent, &single).outside, 1);
        assert_ne!(digest(&bent), digest(&single));
    }

    #[test]
    fn oracle_accepts_the_sketch_and_rejects_a_wrong_quantile() {
        let trace = adapter::generate(&small_shape(), 7);
        let spec = QuerySpec {
            filter: None,
            agg: Agg::Quantiles,
            bucket_secs: 2,
            ..sum_query()
        };
        let mut rows = run(&spec, Exec::Single, &trace);
        let (checked, failed) = check_quantiles(&spec, &trace, &rows);
        assert_eq!((checked, failed), (ORACLE_GROUPS as u64, 0));
        // Claim every group's median is the smallest packet length.
        for r in &mut rows {
            if let AggValue::Items(items) = &mut r.value {
                items[0].item = 40;
            }
        }
        let (_, failed) = check_quantiles(&spec, &trace, &rows);
        assert!(failed > 0);
    }
}
