//! The [`Summary`] trait: one ingestion/query shape for every forward-decay
//! summary in this crate.
//!
//! Everything the paper builds shares one lifecycle — timestamped arrivals
//! go in, and at query time the state is normalized by `g(t − L)`. For the
//! summaries that reduce to a weighted one (aggregates, heavy hitters,
//! quantiles — Theorems 1–3) that lifecycle *is* a type,
//! [`Decayed`](crate::decayed::Decayed), and its one `impl Summary` serves
//! them all; the dominance sketches (Theorem 4), the samplers
//! (Theorems 5–6) and the composite average / variance implement the trait
//! themselves. Generic code — the differential oracle harness, which
//! replays, merges and checkpoints any `S: Summary` against the brute-force
//! reference — is written against this view; the engine's one adapter
//! (`fd_engine::aggregators`) needs only
//! [`Mergeable`](crate::merge::Mergeable) and the
//! [`checkpoint`](crate::checkpoint) traits.
//!
//! What varies is two associated types: [`Update`](Summary::Update), the
//! payload accompanying each timestamp (`()` for a count, `f64` for a
//! sum, `u64` for an item identifier, `T` for a sampled record), and
//! [`Output`](Summary::Output), the answer (`f64` for scalar aggregates and
//! sketch mass, `Option<_>` where an empty summary has none, `Vec<T>` for a
//! drawn sample). The methods are named `update_at` / `query_at` so the
//! inherent `update` / `query` and the richer `heavy_hitters(phi, t)`,
//! `quantile(phi, t)` keep their names:
//!
//! ```
//! use fd_core::prelude::*;
//! use fd_core::summary::Summary;
//!
//! /// Replays a stream into any summary and answers at `t` — works for
//! /// counts, sums, sketches and samplers alike.
//! fn replay<S: Summary>(
//!     s: &mut S,
//!     stream: impl IntoIterator<Item = (Timestamp, S::Update)>,
//!     t: Timestamp,
//! ) -> S::Output {
//!     for (t_i, u) in stream {
//!         s.update_at(t_i, u);
//!     }
//!     s.query_at(t)
//! }
//!
//! let g = Monomial::quadratic();
//! let mut sum = DecayedSum::new(g, 100.0);
//! let mut count = DecayedCount::new(g, 100.0);
//! let stream = [(105.0, 4.0), (107.0, 8.0), (103.0, 3.0)];
//!
//! let s = replay(&mut sum, stream.map(|(t, v)| (t.into(), v)), 110.0.into());
//! let c = replay(&mut count, stream.map(|(t, _)| (t.into(), ())), 110.0.into());
//! assert!(s > 0.0 && c > 0.0);
//! ```

use crate::Timestamp;

/// Occupancy and activity counters for a summary, surfaced through
/// [`Summary::stats`] — the fd-core half of the engine's telemetry layer.
///
/// Every field is a plain monotone counter or gauge sampled at call time;
/// reading them never perturbs the summary. Fields that make no sense for a
/// given summary are left at zero (e.g. `capacity` for the exact O(1)
/// aggregates).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SummaryStats {
    /// Landmark renormalization events so far (each is a linear pass over
    /// the summary's state; see [`crate::numerics::Renormalizer`]).
    pub renormalizations: u64,
    /// Live entries held right now: SpaceSaving counters in use, q-digest
    /// nodes, sample slots filled. Zero for constant-space aggregates.
    pub occupancy: u64,
    /// Hard bound on `occupancy`, when one exists; zero means unbounded (or
    /// not applicable).
    pub capacity: u64,
    /// Items offered to the summary.
    pub items: u64,
    /// Items that changed the retained state. Equal to `items` for
    /// deterministic summaries; for the samplers this counts accepted draws,
    /// so `accepted / items` is the live acceptance rate.
    pub accepted: u64,
}

/// A forward-decay stream summary: timestamped updates in, a
/// `g(t − L)`-normalized answer out.
///
/// Implementors decay against a fixed landmark `L` ([`landmark`]); the
/// per-item weight `g(t_i − L)` is fixed at arrival (the paper's central
/// trick), so summaries with equal landmarks and decay functions are
/// mergeable — most implementors also implement
/// [`Mergeable`](crate::merge::Mergeable), which is what the sharded
/// engine exploits to combine per-shard state.
///
/// [`landmark`]: Summary::landmark
pub trait Summary {
    /// Per-arrival payload fed alongside the timestamp.
    type Update;

    /// The answer produced at query time.
    type Output;

    /// The landmark `L` this summary decays against (as passed to the
    /// constructor; internal renormalization is invisible here).
    fn landmark(&self) -> Timestamp;

    /// Feeds one timestamped arrival.
    ///
    /// Equivalent to the summary's inherent `update`; `t_i` must be at
    /// or after [`landmark`](Summary::landmark).
    fn update_at(&mut self, t_i: Timestamp, u: Self::Update);

    /// Feeds a columnar batch of arrivals: `ts[i]` pairs with `us[i]`.
    ///
    /// The default loops over [`update_at`](Summary::update_at).
    /// Summaries with a batched fast path — hoisted renormalization
    /// checks, per-tick weight memoization via
    /// [`WeightKernel`](crate::kernel::WeightKernel) — override it:
    /// [`Decayed`](crate::decayed::Decayed) for everything it wraps, and
    /// the samplers.
    ///
    /// # Panics
    /// Panics if the slices' lengths differ.
    fn update_batch_at(&mut self, ts: &[Timestamp], us: &[Self::Update])
    where
        Self::Update: Clone,
    {
        assert_eq!(ts.len(), us.len(), "columnar batch slices must align");
        for (&t_i, u) in ts.iter().zip(us) {
            self.update_at(t_i, u.clone());
        }
    }

    /// Answers at query time `t ≥ t_i` for all fed items: the state
    /// normalized by `g(t − L)`.
    fn query_at(&self, t: Timestamp) -> Self::Output;

    /// Instrumentation counters for this summary ([`SummaryStats`]).
    ///
    /// The default returns all zeros; summaries with observable internals
    /// (sketches, samplers, renormalizing aggregates) override it.
    fn stats(&self) -> SummaryStats {
        SummaryStats::default()
    }

    /// Structural self-check, used by the differential oracle harness
    /// (`fd_core::oracle`, `tests/differential.rs`): verifies whatever
    /// internal invariants the summary can state about itself — totals are
    /// non-negative and non-NaN, occupancy stays within capacity, and so
    /// on — and reports the first violation as an `Err` describing it.
    ///
    /// This is a test-path hook, not a hot-path guard: implementations may
    /// walk their entire state. The default has nothing to check.
    fn check_invariants(&self) -> Result<(), String> {
        Ok(())
    }
}
