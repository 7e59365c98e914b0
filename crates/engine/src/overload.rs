//! The overload control plane: bounded-lag backpressure, decay-aware load
//! shedding, and the vocabulary shared by the dispatcher, the ingress
//! fabric, the supervisor's stuck-shard watchdog and graceful drain.
//!
//! A slow or wedged shard worker must not head-of-line-block the whole
//! ingress plane. The controller bounds how long any hot-path send may
//! park ([`crate::spsc::RingSender::send_deadline`]) and, when a shard
//! stays over its lag budget past the deadline, consults a [`ShedPolicy`]:
//!
//! * [`ShedPolicy::Block`] — lossless: keep waiting in deadline-sized
//!   slices (each slice re-checks the watchdog, so a wedged worker is
//!   detected and respawned instead of being waited on forever).
//! * [`ShedPolicy::DropOldest`] — hollow the *oldest* queued epoch: its
//!   payload is dropped in place, its sequence number and watermark stay
//!   queued (every shard must see every seq), and the worker passes the
//!   hollow epoch in no time, which is what relieves the ring. Under
//!   forward decay the oldest epoch is exactly the one whose weights
//!   `g(t_i − L)` are smallest, so dropping it loses the least decayed
//!   mass per tuple shed.
//! * [`ShedPolicy::Subsample`] — the paper's own escape hatch: thin
//!   admitted tuples with inclusion probability proportional to their
//!   forward-decay weight and attach a `1/p` Horvitz–Thompson scale to
//!   each survivor ([`Subsampler`]), so decayed counts, sums and averages
//!   remain *unbiased* estimates of the unshed stream. Sheds are counted
//!   per shard and per producer in telemetry — never silent.
//!
//! ## Unbiasedness
//!
//! Every tuple `i` gets an inclusion probability `p_i ∈ [P_MIN, 1]` and,
//! if it survives, contributes its update multiplied by `1/p_i`. For any
//! aggregate that is linear in per-tuple contributions `x_i` (decayed
//! count: `x_i = g(t_i − L)`; decayed sum: `x_i = g(t_i − L)·v_i`),
//! `E[Σ_survivors x_i / p_i] = Σ_i p_i · x_i / p_i = Σ_i x_i` — the exact
//! unshed total, for *any* choice of `p_i > 0`. Choosing `p_i ∝ w_i`
//! (the tuple's forward-decay weight) minimizes the variance contribution
//! `x_i² (1 − p_i) / p_i` of the heavy, recent tuples: the items decay
//! will soon make irrelevant are the ones shed first. The decayed average
//! is a ratio of two such estimators and stays consistent. Non-linear
//! summaries (quantiles, heavy hitters, samplers) admit no such scale
//! column, so `Subsample` is refused at configuration time for queries
//! whose aggregate factory is not
//! [`scalable`](crate::udaf::AggregatorFactory::scalable).

use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use fd_core::decay::AnyDecay;
use fd_core::ForwardDecay;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::tuple::{Micros, Packet};

/// Inclusion probabilities are clamped below at this value: no tuple is
/// ever shed with near-certainty, which caps the per-survivor scale at
/// `1 / P_MIN` and with it the Horvitz–Thompson variance contribution of
/// any single tuple.
pub const P_MIN: f64 = 0.05;

/// Default bound on any single hot-path ring wait. Under
/// [`ShedPolicy::Block`] this is only the *re-check cadence* (the wait
/// loops, losing nothing); under the lossy policies it is how long a
/// producer is willing to stall before shedding.
pub const DEFAULT_SEND_DEADLINE: Duration = Duration::from_millis(100);

/// Default watchdog lease: a worker whose ring is full and whose last
/// heartbeat is older than this is declared wedged. Deliberately
/// conservative so deliberately-slow shards (tests inject multi-hundred-ms
/// `SlowShard` faults) are never reaped by default.
pub const DEFAULT_LEASE: Duration = Duration::from_secs(30);

/// What the dispatcher does with a batch once its shard has stayed over
/// the lag budget past the send deadline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShedPolicy {
    /// Never shed: block in deadline-sized slices until the ring drains
    /// (re-checking the stuck-shard watchdog between slices). Lossless;
    /// the default, and the only policy a durable store accepts.
    Block,
    /// Each time the ring stays full for a whole send deadline, drop the
    /// payload of the oldest queued epoch — the one with the least decayed
    /// mass per tuple — then keep sending. Bounded stall, bounded loss.
    DropOldest,
    /// Thin tuples to roughly `target_rate` of the offered stream,
    /// weighted by forward-decay weight, with Horvitz–Thompson
    /// reweighting of survivors. `target_rate` must lie in `(0, 1]`.
    Subsample {
        /// Fraction of offered tuples to admit under sustained overload.
        target_rate: f64,
    },
}

impl ShedPolicy {
    /// Whether this policy can lose data. A durable store refuses lossy
    /// policies: its contract is that acknowledged data survives, and a
    /// WAL record whose batch was later hollowed would resurrect tuples
    /// the telemetry reported shed.
    pub fn is_lossy(&self) -> bool {
        !matches!(self, ShedPolicy::Block)
    }
}

impl FromStr for ShedPolicy {
    type Err = fd_core::Error;

    /// Parses the CLI spelling: `block`, `drop-oldest`, or
    /// `subsample:RATE` with `RATE` in `(0, 1]`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "block" => Ok(ShedPolicy::Block),
            "drop-oldest" => Ok(ShedPolicy::DropOldest),
            _ => {
                let rate = s
                    .strip_prefix("subsample:")
                    .and_then(|r| r.parse::<f64>().ok())
                    .ok_or(fd_core::Error::InvalidParameter {
                        name: "shed",
                        value: f64::NAN,
                        requirement: "block | drop-oldest | subsample:RATE",
                    })?;
                if !(rate > 0.0 && rate <= 1.0) {
                    return Err(fd_core::Error::InvalidParameter {
                        name: "shed subsample rate",
                        value: rate,
                        requirement: "in (0, 1]",
                    });
                }
                Ok(ShedPolicy::Subsample { target_rate: rate })
            }
        }
    }
}

/// Overload-control tunables for a sharded engine.
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// The shed policy consulted once a shard is over budget past the
    /// deadline.
    pub policy: ShedPolicy,
    /// Upper bound on any single hot-path ring wait.
    pub send_deadline: Duration,
    /// Per-shard lag budget in queued batches (in-flight epochs). A shard
    /// at or over this depth is considered lagging and, for
    /// [`ShedPolicy::Subsample`], has its incoming tuples thinned even
    /// before the ring fills. Clamped to the ring depth at configuration
    /// time (a budget beyond the ring can never be observed).
    pub lag_budget: usize,
    /// Watchdog lease: a worker holding a full ring with no heartbeat for
    /// this long is declared wedged and respawned.
    pub lease: Duration,
    /// The decay function weighting subsample inclusion probabilities —
    /// normally the query's own decay, so shedding and aggregation agree
    /// on which tuples matter least.
    pub decay: AnyDecay,
    /// Seed for the deterministic subsampling RNG.
    pub seed: u64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        Self {
            policy: ShedPolicy::Block,
            send_deadline: DEFAULT_SEND_DEADLINE,
            lag_budget: usize::MAX,
            lease: DEFAULT_LEASE,
            decay: AnyDecay::None,
            seed: 0x6f76_6c64,
        }
    }
}

/// What [`crate::shard::ShardedEngine::drain`] accomplished before its
/// deadline: the shutdown report `fdql` prints and tests assert on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Tuples shed by the overload controller over the engine's lifetime
    /// (thinned by `Subsample` or lost in hollowed epochs).
    pub shed_tuples: u64,
    /// Whole epochs hollowed by `DropOldest`.
    pub shed_batches: u64,
    /// Wedged workers the watchdog respawned.
    pub wedged_respawns: u64,
    /// Batches that were still queued (or stuck in a wedged worker) when
    /// the drain deadline expired — data that never reached its engine.
    pub unflushed_epochs: u64,
    /// Ring depth per shard at the moment the drain gave up (all zeros on
    /// a clean drain).
    pub per_shard_lag: Vec<u64>,
    /// Whether the deadline expired before every ring emptied.
    pub deadline_expired: bool,
}

impl DrainReport {
    /// A report with nothing outstanding.
    pub fn clean() -> Self {
        Self::default()
    }

    /// Whether data was lost: either the drain left epochs unflushed, or
    /// the controller shed tuples along the way. Under
    /// [`ShedPolicy::Block`] any loss is a hard failure (`fdql` exits
    /// nonzero); under the lossy policies sheds are the accepted cost.
    pub fn data_lost(&self) -> bool {
        self.unflushed_epochs > 0 || self.shed_tuples > 0
    }
}

/// The decay-aware thinning stage: stateful (RNG) and owned by whichever
/// thread stages batches for a shard (the coordinator dispatcher, or one
/// ingress handle per producer — never shared).
#[derive(Debug)]
pub struct Subsampler {
    decay: AnyDecay,
    bucket_micros: Micros,
    target_rate: f64,
    rng: SmallRng,
}

impl Subsampler {
    /// Creates a thinning stage targeting `target_rate` admission under
    /// the given decay, with per-tuple landmarks at multiples of
    /// `bucket_micros` (the engine's own landmark rule: bucket start).
    pub fn new(decay: AnyDecay, bucket_micros: Micros, target_rate: f64, seed: u64) -> Self {
        assert!(bucket_micros > 0, "bucket width must be positive");
        assert!(
            target_rate > 0.0 && target_rate <= 1.0,
            "target rate must lie in (0, 1]"
        );
        Self {
            decay,
            bucket_micros,
            target_rate,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The forward-decay weight of a tuple at reference time `tau`:
    /// `g(t_i − L_i) / g(τ − L_i)` with `L_i` the tuple's bucket start —
    /// exactly the weight the aggregation layer will assign it.
    fn weight(&self, ts: Micros, tau: Micros) -> f64 {
        let landmark = (ts / self.bucket_micros) * self.bucket_micros;
        let num = self.decay.g((ts - landmark) as f64 / 1e6);
        let den = self.decay.g(tau.saturating_sub(landmark) as f64 / 1e6);
        if den > 0.0 && num.is_finite() && den.is_finite() {
            (num / den).clamp(0.0, 1.0)
        } else {
            1.0
        }
    }

    /// Thins `batch` in place, writing one Horvitz–Thompson scale per
    /// *survivor* into `scales` (cleared first; `scales[i]` pairs with the
    /// retained `batch[i]`). Returns the number of tuples shed.
    ///
    /// Inclusion probabilities are `p_i = clamp(r · w_i / w̄, P_MIN, 1)`
    /// where `w_i` is the tuple's forward-decay weight at the batch
    /// maximum timestamp, `w̄` the batch mean weight and `r` the target
    /// rate — so the *expected* admitted fraction is ≈ `r`, skewed toward
    /// the tuples forward decay weighs heaviest. When every survivor
    /// keeps `p = 1` (a batch under no pressure) `scales` stays all-ones.
    pub fn thin(&mut self, batch: &mut Vec<Packet>, scales: &mut Vec<f64>) -> u64 {
        scales.clear();
        let Some(tau) = batch.iter().map(|p| p.ts).max() else {
            return 0;
        };
        let mean_w = batch.iter().map(|p| self.weight(p.ts, tau)).sum::<f64>() / batch.len() as f64;
        let norm = if mean_w > 0.0 { mean_w } else { 1.0 };
        let before = batch.len();
        let mut kept = 0usize;
        for i in 0..before {
            let p_i = (self.target_rate * self.weight(batch[i].ts, tau) / norm).clamp(P_MIN, 1.0);
            let keep = p_i >= 1.0 || self.rng.gen::<f64>() < p_i;
            if keep {
                batch.swap(kept, i);
                scales.push(1.0 / p_i);
                kept += 1;
            }
        }
        batch.truncate(kept);
        (before - kept) as u64
    }
}

/// The per-tuple scale column attached to a thinned batch: `None` means
/// "all ones" (the unshed fast path pays nothing), `Some` pairs
/// element-wise with the batch. Shared `Arc` so the entry a queue retains
/// and the message its worker is applying reference one allocation.
pub type ScaleColumn = Option<Arc<Vec<f64>>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Proto;

    fn pkt(ts: Micros) -> Packet {
        Packet {
            ts,
            src_ip: 1,
            dst_ip: 2,
            src_port: 3,
            dst_port: 4,
            len: 100,
            proto: Proto::Tcp,
        }
    }

    #[test]
    fn shed_policy_parses() {
        assert_eq!("block".parse::<ShedPolicy>().unwrap(), ShedPolicy::Block);
        assert_eq!(
            "drop-oldest".parse::<ShedPolicy>().unwrap(),
            ShedPolicy::DropOldest
        );
        assert_eq!(
            "subsample:0.25".parse::<ShedPolicy>().unwrap(),
            ShedPolicy::Subsample { target_rate: 0.25 }
        );
        for bad in ["", "drop", "subsample", "subsample:0", "subsample:1.5"] {
            assert!(bad.parse::<ShedPolicy>().is_err(), "spec {bad:?}");
        }
        assert!(!ShedPolicy::Block.is_lossy());
        assert!(ShedPolicy::DropOldest.is_lossy());
        assert!(ShedPolicy::Subsample { target_rate: 0.5 }.is_lossy());
    }

    #[test]
    fn subsampler_hits_the_target_rate_and_scales_are_inverse_probabilities() {
        let mut s = Subsampler::new(AnyDecay::from_str("none").unwrap(), 1_000_000, 0.5, 0xfeed);
        let mut shed = 0u64;
        let mut kept = 0usize;
        let mut offered = 0usize;
        let mut scales = Vec::new();
        for round in 0..200 {
            let mut batch: Vec<Packet> = (0..100).map(|i| pkt(round * 7_000 + i * 13)).collect();
            offered += batch.len();
            shed += s.thin(&mut batch, &mut scales);
            assert_eq!(scales.len(), batch.len());
            // No decay → uniform weights → every p_i == target_rate.
            for &w in &scales {
                assert!((w - 2.0).abs() < 1e-12, "scale {w}");
            }
            kept += batch.len();
        }
        assert_eq!(kept + shed as usize, offered);
        let rate = kept as f64 / offered as f64;
        assert!((rate - 0.5).abs() < 0.03, "admitted fraction {rate}");
    }

    #[test]
    fn subsampler_prefers_recent_tuples_under_decay() {
        // Exponential decay with a 2 s half-life-ish rate: tuples early in
        // the bucket carry tiny weights and should be shed far more often.
        let mut s = Subsampler::new(
            AnyDecay::from_str("exp:1.0").unwrap(),
            60_000_000,
            0.5,
            0xdead,
        );
        let mut old_kept = 0usize;
        let mut new_kept = 0usize;
        let mut scales = Vec::new();
        for round in 0..300 {
            // Half the batch sits 10 s behind the freshest tuples.
            let mut batch: Vec<Packet> = (0..20)
                .map(|i| pkt(1_000_000 + round * 17 + i * 3))
                .chain((0..20).map(|i| pkt(11_000_000 + round * 17 + i * 3)))
                .collect();
            s.thin(&mut batch, &mut scales);
            old_kept += batch.iter().filter(|p| p.ts < 10_000_000).count();
            new_kept += batch.iter().filter(|p| p.ts >= 10_000_000).count();
        }
        assert!(
            new_kept > old_kept * 3,
            "recent {new_kept} vs old {old_kept}"
        );
    }

    #[test]
    fn horvitz_thompson_estimate_is_unbiased_within_tolerance() {
        // Decayed-count estimator: Σ 1/p_i over survivors must track the
        // offered count. 60k tuples, quadratic decay, 30% target.
        let mut s = Subsampler::new(
            AnyDecay::from_str("poly:2").unwrap(),
            1_000_000,
            0.3,
            0x5eed,
        );
        let mut estimate = 0.0;
        let mut offered = 0usize;
        let mut scales = Vec::new();
        for round in 0..600 {
            let mut batch: Vec<Packet> = (0..100).map(|i| pkt(round * 997 + i * 11)).collect();
            offered += batch.len();
            s.thin(&mut batch, &mut scales);
            estimate += scales.iter().sum::<f64>();
        }
        let rel = (estimate - offered as f64).abs() / offered as f64;
        assert!(rel < 0.02, "HT estimate off by {:.2}%", rel * 100.0);
    }

    #[test]
    fn thin_is_deterministic_for_a_seed() {
        let run = |seed| {
            let mut s =
                Subsampler::new(AnyDecay::from_str("poly:2").unwrap(), 1_000_000, 0.4, seed);
            let mut batch: Vec<Packet> = (0..500).map(|i| pkt(i * 3_001)).collect();
            let mut scales = Vec::new();
            s.thin(&mut batch, &mut scales);
            (batch.iter().map(|p| p.ts).collect::<Vec<_>>(), scales)
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0, "different seeds thin differently");
    }

    #[test]
    fn drain_report_loss_rules() {
        assert!(!DrainReport::clean().data_lost());
        let mut r = DrainReport::clean();
        r.shed_tuples = 1;
        assert!(r.data_lost());
        let mut r = DrainReport::clean();
        r.unflushed_epochs = 2;
        assert!(r.data_lost());
    }
}
