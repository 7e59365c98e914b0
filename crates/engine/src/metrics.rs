//! The CPU-load model used to present measured per-tuple costs the way the
//! paper does.
//!
//! The paper plots *CPU load %* against offered stream rate on a fixed
//! machine: a query whose per-tuple cost is `c` nanoseconds saturates one
//! core at `10⁹/c` packets per second, and its load at offered rate `R` is
//! `R·c` (capped at 100%, beyond which GS drops tuples). We measure `c`
//! directly on this machine by timing a full engine run and translate to
//! the same curves; who saturates first — and by what factor — is a
//! machine-independent property of the algorithms.

/// CPU load (percent, capped at 100) for per-tuple cost `ns_per_tuple`
/// nanoseconds at an offered rate of `rate_pps` packets/second.
pub fn cpu_load_pct(rate_pps: f64, ns_per_tuple: f64) -> f64 {
    (rate_pps * ns_per_tuple / 1e9 * 100.0).min(100.0)
}

/// Fraction of tuples dropped at the offered rate: zero until the core
/// saturates, then `1 − capacity/rate`.
pub fn drop_fraction(rate_pps: f64, ns_per_tuple: f64) -> f64 {
    let load = rate_pps * ns_per_tuple / 1e9;
    if load <= 1.0 {
        0.0
    } else {
        1.0 - 1.0 / load
    }
}

/// One point of a load curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadPoint {
    /// Offered stream rate, packets per second.
    pub rate_pps: f64,
    /// Resulting CPU load, percent (≤ 100).
    pub cpu_pct: f64,
    /// Fraction of tuples dropped (> 0 only at 100% load).
    pub drop_frac: f64,
}

impl LoadPoint {
    /// Builds the load point for a measured per-tuple cost.
    pub fn from_cost(rate_pps: f64, ns_per_tuple: f64) -> Self {
        Self {
            rate_pps,
            cpu_pct: cpu_load_pct(rate_pps, ns_per_tuple),
            drop_frac: drop_fraction(rate_pps, ns_per_tuple),
        }
    }
}

/// Sums per-shard execution counters into one
/// [`EngineStats`](crate::engine::EngineStats) — the view
/// of a sharded run as if it were one engine. Admission counters
/// (`tuples_in`, `filtered`, `late_drops`) add because each tuple is
/// admitted on exactly one shard; `lfta_evictions` adds across the
/// per-shard LFTAs. Note that `buckets_closed` adds *per-shard* closes: a
/// time bucket spanning k shards counts k times here — the combiner's own
/// count (see [`crate::shard::ShardedEngine::stats`]) reports distinct
/// buckets.
pub fn combine_shard_stats(shards: &[crate::engine::EngineStats]) -> crate::engine::EngineStats {
    let mut total = crate::engine::EngineStats::default();
    for s in shards {
        total.tuples_in += s.tuples_in;
        total.filtered += s.filtered;
        total.late_drops += s.late_drops;
        total.lfta_evictions += s.lfta_evictions;
        total.rows_out += s.rows_out;
        total.buckets_closed += s.buckets_closed;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_is_linear_then_capped() {
        assert_eq!(cpu_load_pct(100_000.0, 1_000.0), 10.0); // 1 µs × 100k/s
        assert_eq!(cpu_load_pct(1_000_000.0, 1_000.0), 100.0);
        assert_eq!(cpu_load_pct(5_000_000.0, 1_000.0), 100.0);
    }

    #[test]
    fn drops_begin_exactly_at_saturation() {
        assert_eq!(drop_fraction(999_999.0, 1_000.0), 0.0);
        assert_eq!(drop_fraction(1_000_000.0, 1_000.0), 0.0);
        let d = drop_fraction(2_000_000.0, 1_000.0);
        assert!((d - 0.5).abs() < 1e-12);
    }

    #[test]
    fn load_point_bundles_both() {
        let p = LoadPoint::from_cost(400_000.0, 3_000.0);
        assert_eq!(p.cpu_pct, 100.0);
        assert!(p.drop_frac > 0.0);
        let q = LoadPoint::from_cost(100_000.0, 2_500.0);
        assert_eq!(q.cpu_pct, 25.0);
        assert_eq!(q.drop_frac, 0.0);
    }

    #[test]
    fn combine_shard_stats_sums_all_counters() {
        use crate::engine::EngineStats;
        let a = EngineStats {
            tuples_in: 10,
            filtered: 1,
            late_drops: 2,
            lfta_evictions: 3,
            rows_out: 4,
            buckets_closed: 5,
        };
        let b = EngineStats {
            tuples_in: 20,
            ..EngineStats::default()
        };
        let total = combine_shard_stats(&[a, b]);
        assert_eq!(total.tuples_in, 30);
        assert_eq!(total.filtered, 1);
        assert_eq!(total.late_drops, 2);
        assert_eq!(total.lfta_evictions, 3);
        assert_eq!(total.rows_out, 4);
        assert_eq!(total.buckets_closed, 5);
    }
}
