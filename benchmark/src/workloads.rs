//! The five workloads: what each one is, and why it exists (the full
//! versions are in the README, one-line ones of those the driver runs in
//! `BENCHMARK.json`).

use crate::adapter::{Agg, Exec, Group, Proto, QuerySpec, TraceShape};

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub shape: TraceShape,
    pub query: QuerySpec,
    pub exec: Exec,
    /// Attach a durable store and commit after every chunk.
    pub durable: bool,
    /// A pass is timed in this many equal slices of the trace (see
    /// `run::Sampled::floor`): about one per 50 ms of a pass on the host the
    /// benchmark was written on, at most 16. Shorter slices would fit more
    /// easily between the host's slow phases, but the process CPU clock
    /// credits a running worker thread only at scheduler ticks, so up to a
    /// few milliseconds of its time land in the neighbouring slice.
    pub slices: usize,
}

impl Workload {
    /// `--quick`: a ≈10× shorter trace. Marks the output `quick: true`;
    /// never comparable with a full run.
    pub fn quick(mut self) -> Self {
        self.shape.duration_secs /= 10.0;
        self.slices = (self.slices / 8).max(1);
        self
    }
}

const FIG2_SHAPE: TraceShape = TraceShape {
    rate_pps: 100_000.0,
    duration_secs: 40.0,
    n_hosts: 20_000,
    tcp_fraction: 0.85,
    ooo_jitter_secs: 0.0,
};

const FIG2_QUERY: QuerySpec = QuerySpec {
    filter: Some(Proto::Tcp),
    group: Group::DstHost,
    agg: Agg::Sum,
    bucket_secs: 10,
    slack_secs: 0.0,
};

pub const ALL: [Workload; 5] = [
    // The paper's Fig. 2 query as `fdql --shards 1` runs it: a one-multiply-add
    // aggregate, so group hashing, dyn dispatch, the ring hop and
    // checkpointing do the work.
    Workload {
        name: "fig2_scalar",
        shape: FIG2_SHAPE,
        query: FIG2_QUERY,
        exec: Exec::Sharded { producers: 0 },
        durable: false,
        slices: 8,
    },
    // `fig2_scalar` plus a WAL and a commit per chunk: the durability tax, which
    // a WAL change must move while fig2_scalar stays put.
    Workload {
        name: "fig2_durable",
        shape: FIG2_SHAPE,
        query: FIG2_QUERY,
        exec: Exec::Sharded { producers: 0 },
        durable: true,
        slices: 16,
    },
    // 5% of tuples pass the filter and the aggregate is a count, so the
    // calling thread (admit, filter, route, scatter on the fabric at P=1) is
    // the bottleneck and the worker idles.
    Workload {
        name: "ingress_fabric",
        shape: TraceShape {
            tcp_fraction: 0.95,
            ..FIG2_SHAPE
        },
        query: QuerySpec {
            filter: Some(Proto::Udp),
            agg: Agg::Count,
            ..FIG2_QUERY
        },
        exec: Exec::Sharded { producers: 1 },
        durable: false,
        slices: 4,
    },
    // A q-digest per group: the fd_core summary update is most of the cost and
    // the worker is saturated, so ingress or ring work should not move it.
    Workload {
        name: "sketch_quantiles",
        shape: TraceShape {
            duration_secs: 20.0,
            ..FIG2_SHAPE
        },
        query: QuerySpec {
            filter: None,
            agg: Agg::Quantiles,
            ..FIG2_QUERY
        },
        exec: Exec::Sharded { producers: 0 },
        durable: false,
        slices: 16,
    },
    // 1M hosts, out-of-order, single-threaded Engine: ~760k group creations,
    // closes and emits with late drops, bypassing shard/spsc/supervisor
    // entirely.
    Workload {
        name: "wide_ooo_single",
        shape: TraceShape {
            rate_pps: 200_000.0,
            duration_secs: 20.0,
            n_hosts: 1_000_000,
            tcp_fraction: 0.85,
            ooo_jitter_secs: 2.0,
        },
        query: QuerySpec {
            filter: None,
            group: Group::DstKey,
            agg: Agg::Sum,
            bucket_secs: 5,
            slack_secs: 2.0,
        },
        exec: Exec::Single,
        durable: false,
        slices: 16,
    },
];

/// In the binary, `selfcheck` and the README, but not in `BENCHMARK.json`:
/// the driver's time limit covers `4 + 22 × workloads` runs, and four
/// workloads leave each run half as long again as five would — on a host
/// this noisy that is worth more than the fifth workload. `fig2_durable`
/// runs everything this one does, plus the store.
#[cfg(test)]
pub const NOT_IN_BENCHMARK_JSON: [&str; 1] = ["fig2_scalar"];

pub fn find(name: &str) -> Option<Workload> {
    ALL.into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_findable() {
        for w in ALL {
            assert_eq!(find(w.name), Some(w));
            assert_eq!(ALL.iter().filter(|o| o.name == w.name).count(), 1);
        }
        assert_eq!(find("nope"), None);
    }

    #[test]
    fn quick_only_shortens_the_trace() {
        let w = ALL[0];
        let q = w.quick();
        assert_eq!(q.shape.duration_secs * 10.0, w.shape.duration_secs);
        assert_eq!(q.query, w.query);
    }

    #[test]
    fn slices_are_between_one_and_sixteen() {
        for w in ALL {
            assert!((1..=16).contains(&w.slices), "{}", w.name);
            assert!((1..=w.slices).contains(&w.quick().slices), "{}", w.name);
        }
        assert!(NOT_IN_BENCHMARK_JSON.iter().all(|n| find(n).is_some()));
    }
}
