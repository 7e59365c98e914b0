//! # fd-engine — a Gigascope-like mini stream engine
//!
//! The paper's experiments (Section VIII) run inside GS/Gigascope, AT&T's
//! production network-stream DBMS: SQL-like continuous queries with
//! time-bucket group-by, user-defined aggregate functions (UDAFs), and a
//! two-level execution architecture that splits a query into a *low-level*
//! part (LFTA: partial aggregation in a fixed-size hash table close to the
//! NIC) and a *high-level* part (HFTA: super-aggregation combining the
//! partial results).
//!
//! This crate reproduces that substrate:
//!
//! - [`mod@tuple`] — the packet record type and the microsecond clock;
//! - [`udaf`] — the [`udaf::Aggregator`] trait (GS's UDAF hook) and the
//!   query model: filter → group-by → time bucket → aggregate;
//! - [`aggregators`] — ready-made aggregator factories wrapping every
//!   fd-core summary, plus the undecayed built-ins (`count(*)`,
//!   `sum(len)`) and the backward-decay baselines;
//! - [`lfta`] — the low-level fixed-size direct-mapped aggregation table
//!   with collision eviction;
//! - [`engine`] — the full pipeline: two-level or single-level execution,
//!   bucket close on watermark, per-tuple cost accounting;
//! - [`shard`] — the sharded parallel engine: N worker threads, each a
//!   full LFTA+HFTA pipeline over a hash partition of the stream, fed by
//!   P ingress handles through per-(producer, shard) rings, with closed
//!   buckets combined by merging (Section VI-B mergeability);
//! - [`spsc`] — the ingress plane's plumbing: bounded single-producer
//!   rings and a batch-recycling pool, so steady-state ingress ships
//!   batches to workers without allocating;
//! - [`metrics`] — the CPU-load model translating measured per-tuple cost
//!   into the load/drop curves the paper plots;
//! - [`overload`] — the overload control plane: bounded-lag backpressure
//!   deadlines, decay-aware shed policies with Horvitz–Thompson
//!   reweighting, the stuck-shard watchdog lease parameters, and the
//!   [`overload::DrainReport`] graceful shutdown contract;
//! - [`telemetry`] — live lock-free observability for the sharded engine:
//!   an `Arc`-shared atomic registry (queue depth, watermark lag, admission
//!   counters), per-batch latency histograms with p50/p95/p99, and
//!   Prometheus/JSON snapshot export;
//! - [`processor`] — the [`processor::StreamProcessor`] trait: the one
//!   process/punctuate/finish surface implemented by both executors, so
//!   drivers and tools are generic over single-threaded vs sharded runs;
//! - [`supervisor`] — checkpoint slots and restart policy for
//!   fault-tolerant shard workers: each worker periodically serializes its
//!   open state (exact, thanks to Section VI-B mergeable summaries) and
//!   hands its closed buckets over once, and its queues retain what it has
//!   read since, for a respawned worker to re-read after a crash;
//! - [`fault`] — deterministic fault injection (`FD_FAULT=panic:SHARD:N`,
//!   `disk:KIND:N`) used by the recovery test-suite and the fault-matrix
//!   and crash-matrix CI jobs;
//! - [`io`] — the filesystem seam of the durability layer: the
//!   [`io::IoBackend`] trait, the real [`io::StdFs`] backend, and the
//!   fault-injecting [`io::FaultyFs`] wrapper;
//! - [`durability`] — crash-durable persistence: per-shard segmented
//!   CRC-framed WALs, atomic on-disk checkpoints and write-once
//!   closed-bucket deltas behind a versioned `MANIFEST`, torn-tail
//!   truncation, and recovery that resumes a run bit-identically after
//!   `kill -9`.
//!
//! The paper's example query
//!
//! ```sql
//! select tb, destIP, destPort, sum(len*(time % 60)*(time % 60))/3600
//! from TCP group by time/60 as tb, destIP, destPort
//! ```
//!
//! is expressed here as:
//!
//! ```
//! use fd_engine::prelude::*;
//! use fd_core::decay::Monomial;
//!
//! let query = Query::builder("decayed_traffic")
//!     .filter(|p| p.proto == Proto::Tcp)
//!     .group_by(|p| p.dst_key())
//!     .bucket_secs(60)
//!     .aggregate(fwd_sum_factory(Monomial::quadratic(), |p| p.len as f64))
//!     .try_build()?;
//! let mut engine = Engine::new(query);
//! # let pkt = Packet { ts: 1_000_000, src_ip: 1, dst_ip: 2, src_port: 3,
//! #                    dst_port: 80, len: 100, proto: Proto::Tcp };
//! engine.process(&pkt);
//! let rows = engine.finish();
//! assert_eq!(rows.len(), 1);
//! # Ok::<(), fd_core::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

mod admission;
pub mod aggregators;
pub mod durability;
pub mod engine;
pub mod fault;
mod groups;
pub mod io;
pub mod lfta;
pub mod metrics;
pub mod overload;
pub mod processor;
pub mod report;
pub mod shard;
pub mod spsc;
pub mod supervisor;
pub mod telemetry;
pub mod tuple;
pub mod udaf;

/// One-stop imports for writing queries.
pub mod prelude {
    pub use crate::aggregators::*;
    pub use crate::durability::{DurabilityOptions, FsyncPolicy, RecoveryReport};
    pub use crate::engine::{Engine, EngineStats, Row, StreamEvent};
    pub use crate::fault::{DiskFault, DiskFaultKind, FaultKind, FaultPlan};
    pub use crate::io::{FaultyFs, IoBackend, StdFs};
    pub use crate::metrics::{combine_shard_stats, cpu_load_pct, drop_fraction, LoadPoint};
    pub use crate::overload::{DrainReport, OverloadConfig, ShedPolicy};
    pub use crate::processor::{replay, StreamProcessor};
    pub use crate::report::{rows_to_csv, rows_to_table};
    pub use crate::shard::{IngressHandle, ShardBy, ShardedEngine};
    pub use crate::supervisor::{DEFAULT_CHECKPOINT_EVERY, DEFAULT_MAX_RESTARTS};
    pub use crate::telemetry::{EngineTelemetry, MetricsSnapshot, Reporter};
    pub use crate::tuple::{secs, Micros, Packet, Proto, MICROS_PER_SEC};
    pub use crate::udaf::{AggValue, Aggregator, AggregatorFactory, ItemValue, Query};
}
