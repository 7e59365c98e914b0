//! The metric names, units and directions — the one list `BENCHMARK.json`,
//! the runner's output and `compare` all agree on.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. `failed_share` is the fifth end-to-end
/// number: it is zero on a correct run, so it travels as `failed` /
/// `attempted` (and `correct`) rather than as a bounded metric — a bound
/// is a share of the baseline's median, and a share of zero is zero.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("tuples_per_s", "1/s", Higher, 0.25),
    e2e("cpu_ns_per_tuple", "ns", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// The per-layer ledger; layer = module name. A metric that does not apply
/// to a workload (no store, no LFTA, no worker) reads 0 there.
pub const PER_LAYER: [MetricDef; 57] = [
    layer("gen.ns_per_tuple", "ns", Lower),
    layer("gen.tuples", "count", Higher),
    layer("cli.fdql_ns_per_tuple", "ns", Lower),
    layer("shard.dispatch_cpu_ns_per_tuple", "ns", Lower),
    layer("shard.offer_wait_ns_per_tuple", "ns", Lower),
    layer("shard.offer_us_p50", "us", Lower),
    layer("shard.offer_us_p99", "us", Lower),
    layer("shard.offer_us_max", "us", Lower),
    layer("shard.worker_cpu_ns_per_tuple", "ns", Lower),
    layer("shard.drain_ms", "ms", Lower),
    layer("shard.spawn_ms", "ms", Lower),
    layer("shard.classic_dispatch_cpu_ns_per_tuple", "ns", Lower),
    layer("shard.tuples_in", "count", Higher),
    layer("shard.filtered", "count", Higher),
    layer("shard.late_drops", "count", Lower),
    layer("shard.rows_out", "count", Higher),
    layer("shard.buckets_closed", "count", Higher),
    layer("shard.batches_sent", "count", Lower),
    layer("shard.restarts", "count", Lower),
    layer("shard.shed_tuples", "count", Lower),
    layer("supervisor.checkpoints", "count", Lower),
    layer("supervisor.checkpoint_cpu_ns_per_tuple", "ns", Lower),
    layer("supervisor.tax_ns_per_tuple", "ns", Lower),
    layer("spsc.ring_hop_ns_per_batch", "ns", Lower),
    layer("spsc.pool_cycle_ns", "ns", Lower),
    layer("spsc.pool_reuse_share", "share", Higher),
    layer("engine.single_ns_per_tuple", "ns", Lower),
    layer("engine.update_ns_per_tuple", "ns", Lower),
    layer("engine.close_ns_per_group", "ns", Lower),
    layer("engine.emit_ns_per_row", "ns", Lower),
    layer("engine.groups_per_bucket", "count", Higher),
    layer("engine.space_bytes_peak", "bytes", Lower),
    layer("engine.checkpoint_ms", "ms", Lower),
    layer("engine.checkpoint_bytes", "bytes", Lower),
    layer("engine.restore_ms", "ms", Lower),
    layer("lfta.update_ns_per_tuple", "ns", Lower),
    layer("lfta.eviction_share", "share", Lower),
    layer("lfta.flush_ns_per_partial", "ns", Lower),
    layer("aggregators.make_ns", "ns", Lower),
    layer("aggregators.update_ns_per_tuple", "ns", Lower),
    layer("aggregators.merge_ns", "ns", Lower),
    layer("aggregators.emit_ns", "ns", Lower),
    layer("core.summary_scalar_ns_per_tuple", "ns", Lower),
    layer("core.summary_batch_ns_per_tuple", "ns", Lower),
    layer("durability.commit_us_p50", "us", Lower),
    layer("durability.commit_us_p99", "us", Lower),
    layer("durability.commit_ns_per_tuple", "ns", Lower),
    layer("durability.wal_bytes_per_tuple", "bytes", Lower),
    layer("durability.checkpoints_persisted", "count", Lower),
    layer("durability.tax_ns_per_tuple", "ns", Lower),
    layer("durability.recover_ms", "ms", Lower),
    layer("durability.replayed_tuples", "count", Lower),
    layer("trace.coverage_share", "share", Higher),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.traced_passes", "count", Higher),
    layer("trace.untraced_passes", "count", Higher),
    layer("trace.spans", "count", Higher),
];

pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` sits at the repo root, outside this package; it and
    /// this file must list the same workloads and metrics.
    #[test]
    fn benchmark_json_lists_exactly_these() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<Json> {
            match doc.get(key) {
                Some(Json::Arr(items)) => items.clone(),
                _ => panic!("BENCHMARK.json lacks '{key}'"),
            }
        };
        let s = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).expect(k).to_string();

        let workloads: Vec<String> = listed("workloads").iter().map(|w| s(w, "name")).collect();
        let ours: Vec<&str> = workloads::ALL
            .iter()
            .map(|w| w.name)
            .filter(|n| !workloads::NOT_IN_BENCHMARK_JSON.contains(n))
            .collect();
        assert_eq!(workloads, ours);
        for w in listed("workloads") {
            assert!(s(&w, "why").len() <= 200 && !s(&w, "why").contains('\n'));
        }

        let e2e = listed("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(s(got, "name"), want.name);
            assert_eq!(s(got, "unit"), want.unit);
            assert_eq!(s(got, "better"), want.better.as_str());
            assert_eq!(got.get("bound").and_then(Json::as_f64), Some(want.bound));
        }
        let layers = listed("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(s(got, "name"), want.name);
            assert_eq!(s(got, "unit"), want.unit);
            assert_eq!(s(got, "better"), want.better.as_str());
        }
    }
}
