//! The aggregation abstraction (GS's UDAF hook) and the query model.
//!
//! GS lets arbitrary C/C++ code run as a *user defined aggregate function*
//! over the tuples of a group; the paper implements its weighted
//! SpaceSaving, samplers and exponential-histogram baselines exactly this
//! way. [`Aggregator`] is the Rust equivalent: per-group state with
//! `update` / `merge` / `emit`, plus a size probe for the paper's
//! space-per-group measurements.
//!
//! A [`Query`] mirrors the GSQL queries of Section VIII: an optional
//! selection, a group-by key function, a time-bucket duration (`group by
//! time/60 as tb`), and one aggregate.

use std::any::Any;
use std::fmt;
use std::sync::Arc;

use fd_core::checkpoint::{CodecError, Decode, Encode, Reader};

use crate::groups::GroupStore;
use crate::tuple::{Micros, Packet, MICROS_PER_SEC};

/// A single reported item with an associated value (a heavy hitter and its
/// count, a sampled key, a quantile, …).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ItemValue {
    /// The item (group-internal key: an IP, a port pair, a sampled value…).
    pub item: u64,
    /// Its associated value (estimated count, weight, …).
    pub value: f64,
}

fd_core::codec_struct!(ItemValue {
    item: u64,
    value: f64
});

/// The value a group's aggregator emits when its time bucket closes.
#[derive(Debug, Clone, PartialEq)]
pub enum AggValue {
    /// A scalar (count, sum, average, …).
    Float(f64),
    /// A list of items with values (heavy hitters, samples, quantiles).
    Items(Vec<ItemValue>),
    /// Several aggregates computed over the same group (the GSQL
    /// `select count(*), sum(len), …` shape) — see
    /// [`crate::aggregators::multi_factory`].
    Multi(Vec<AggValue>),
}

/// A `u32` variant index, then the float or the list.
impl Encode for AggValue {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            AggValue::Float(x) => (0u32, x).put(out),
            AggValue::Items(items) => (1u32, items).put(out),
            AggValue::Multi(parts) => (2u32, parts).put(out),
        }
    }
}

/// How deep `Multi` values may nest in a decoded row: far past any
/// composite a query builds, and short of recursing a decoder off its
/// stack on hostile bytes.
const MAX_NESTING: usize = 32;

impl Decode for AggValue {
    const MIN_BYTES: usize = 4 + 8;

    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        fn nested(r: &mut Reader<'_>, depth: usize) -> Result<AggValue, CodecError> {
            Ok(match u32::take(r)? {
                0 => AggValue::Float(f64::take(r)?),
                1 => AggValue::Items(Vec::take(r)?),
                2 if depth < MAX_NESTING => {
                    let n = r.count(AggValue::MIN_BYTES)?;
                    let mut parts =
                        Vec::with_capacity(r.reserve(n, std::mem::size_of::<AggValue>()));
                    for _ in 0..n {
                        parts.push(nested(r, depth + 1)?);
                    }
                    AggValue::Multi(parts)
                }
                v => return Err(CodecError::new(format!("no aggregate value {v} here"))),
            })
        }
        nested(r, 0)
    }
}

impl AggValue {
    /// The scalar value, if this is a `Float`.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            AggValue::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The item list, if this is an `Items`.
    pub fn as_items(&self) -> Option<&[ItemValue]> {
        match self {
            AggValue::Items(v) => Some(v.as_slice()),
            _ => None,
        }
    }

    /// The component values, if this is a `Multi`.
    pub fn as_multi(&self) -> Option<&[AggValue]> {
        match self {
            AggValue::Multi(v) => Some(v.as_slice()),
            _ => None,
        }
    }
}

impl fmt::Display for AggValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggValue::Float(x) => write!(f, "{x:.4}"),
            AggValue::Items(items) => {
                write!(f, "[")?;
                for (i, iv) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}:{:.3}", iv.item, iv.value)?;
                }
                write!(f, "]")
            }
            AggValue::Multi(parts) => {
                write!(f, "(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Per-group aggregation state — the UDAF interface.
///
/// `update` receives every tuple of the group; `merge_boxed` combines a
/// partial aggregate produced at the low level (LFTA) into this high-level
/// state; `emit` produces the group's output row when the bucket closes,
/// given the query time in seconds (the bucket end).
pub trait Aggregator: Any + Send {
    /// Folds one tuple into the state.
    fn update(&mut self, pkt: &Packet);

    /// Folds one tuple carrying a Horvitz–Thompson scale: a survivor of
    /// load shedding admitted with inclusion probability `p` arrives with
    /// `scale = 1 / p`, keeping linear aggregates unbiased. A scale of
    /// `1.0` must be exactly [`update`](Aggregator::update).
    ///
    /// Whether an aggregate honors non-unit scales is a fact its factory
    /// states, [`AggregatorFactory::scalable`], and the only gate:
    /// [`Engine::process_scaled`](crate::engine::Engine::process_scaled)
    /// refuses a non-unit scale for a query whose factory does not. An
    /// aggregate that keeps this default therefore only ever sees `1.0` —
    /// unless its factory claims `scalable()` without overriding this,
    /// which the debug assertion is there to catch.
    fn update_scaled(&mut self, pkt: &Packet, scale: f64) {
        debug_assert!(
            scale == 1.0,
            "non-unit HT scale {scale} reached an aggregator that does not scale"
        );
        self.update(pkt);
    }

    /// Absorbs a partial aggregate of the *same concrete type*.
    ///
    /// # Panics
    /// Panics if `other` is a different aggregator type (an engine bug).
    fn merge_boxed(&mut self, other: Box<dyn Aggregator>);

    /// Produces the output value at query time `t` (seconds).
    fn emit(&self, t: f64) -> AggValue;

    /// Approximate state size in bytes (the paper's space-per-group
    /// metric).
    fn size_bytes(&self) -> usize;

    /// Upcast for the downcasting dance inside `merge_boxed`
    /// implementations.
    fn as_any_box(self: Box<Self>) -> Box<dyn Any>;

    /// Appends this aggregator's serialized state to `out` for
    /// checkpoint/recovery, or returns `None` when it has no serializable
    /// representation (`out` may then hold a partial write; the caller
    /// abandons the whole checkpoint).
    ///
    /// Closures (value/item extractors, decay parameters) are *not*
    /// captured: [`AggregatorFactory::make`] recreates them, and
    /// [`restore`](Aggregator::restore) refills only the summary state.
    /// Engine checkpoints invoke this once per live group — tens of
    /// thousands of times per snapshot — hence the shared buffer. Only a
    /// hand-written UDAF keeps this declining default; a sharded engine
    /// then runs it unsupervised, and a durable store refuses it.
    fn checkpoint_into(&self, _out: &mut Vec<u8>) -> Option<()> {
        None
    }

    /// Restores state captured by
    /// [`checkpoint_into`](Aggregator::checkpoint_into)
    /// into a freshly [`make`](AggregatorFactory::make)d instance of the
    /// same factory and bucket.
    fn restore(&mut self, _bytes: &[u8]) -> Result<(), fd_core::checkpoint::CodecError> {
        Err(fd_core::checkpoint::CodecError::new(
            "aggregator does not support checkpointing",
        ))
    }
}

/// Appends one length-prefixed state to `out`, `body` writing the state —
/// the framing engine checkpoints use for each live group, whether its
/// state is boxed or held by value. Returns `None` (leaving a zero length
/// behind is fine; the caller aborts the whole checkpoint) if `body`
/// declines.
pub(crate) fn put_framed(
    out: &mut Vec<u8>,
    body: impl FnOnce(&mut Vec<u8>) -> Option<()>,
) -> Option<()> {
    let len_pos = out.len();
    out.extend_from_slice(&0u64.to_le_bytes());
    body(out)?;
    let len = (out.len() - len_pos - 8) as u64;
    out[len_pos..len_pos + 8].copy_from_slice(&len.to_le_bytes());
    Some(())
}

/// Creates fresh per-group aggregators. One factory per query.
pub trait AggregatorFactory: Send + Sync {
    /// Creates the aggregator for a group in the bucket starting at
    /// `bucket_start`. Decayed aggregates use it as their landmark, exactly
    /// as the paper's GSQL query uses `time % 60` (landmark = start of the
    /// minute).
    fn make(&self, bucket_start: Micros) -> Box<dyn Aggregator>;

    /// Display name (used in benchmark tables).
    fn name(&self) -> &str;

    /// Whether the engine may split this aggregate across the two-level
    /// architecture (partial aggregation at the LFTA). The paper's UDAFs
    /// "were written to run at the high-level only"; built-in count/sum and
    /// the forward-decayed count/sum are splittable.
    fn splittable(&self) -> bool;

    /// Whether this factory's aggregators honor non-unit Horvitz–Thompson
    /// scales in [`Aggregator::update_scaled`]. Aggregates linear in each
    /// tuple's contribution (forward-decayed count / sum / average,
    /// undecayed sum) do; order statistics, sketches and samplers do not,
    /// and a factory that says nothing does not. `ShedPolicy::Subsample`
    /// is refused at configuration time, and a non-unit
    /// [`Engine::process_scaled`](crate::engine::Engine::process_scaled)
    /// at run time, for a query whose factory answers `false`. A factory
    /// that answers `true` must make aggregators that override
    /// `update_scaled`.
    fn scalable(&self) -> bool {
        false
    }

    /// The engine's store for `query`'s groups, `query.aggregate` being
    /// this factory. The default holds each group as the boxed aggregator
    /// [`make`](Self::make) builds; the built-in factories of
    /// [`crate::aggregators`] hold each group's state by value instead. The
    /// store's type is the engine's own, so only they choose.
    fn group_store(&self, query: &Query) -> Box<dyn GroupStore> {
        crate::groups::boxed(query)
    }

    /// Whether this aggregate's numbers stay finite over one bucket's
    /// horizon of `horizon_secs` (its width plus the slack):
    /// [`QueryBuilder::try_build`] refuses a query whose aggregate says
    /// not. A forward-decayed aggregate checks its `g`
    /// ([`fd_core::decayed::check_horizon`]); the default has nothing to
    /// check.
    ///
    /// # Errors
    /// What the aggregate's numeric contract requires.
    fn check_horizon(&self, _horizon_secs: f64) -> Result<(), fd_core::Error> {
        Ok(())
    }
}

/// Builds a query's by-value group store.
pub(crate) type StoreFn = dyn Fn(&Query) -> Box<dyn GroupStore> + Send + Sync;
/// Checks an aggregate's numbers over a bucket's horizon.
pub(crate) type HorizonFn = dyn Fn(f64) -> Result<(), fd_core::Error> + Send + Sync;

/// A factory built from a closure — removes per-aggregator factory
/// boilerplate.
pub struct FnFactory {
    name: String,
    splittable: bool,
    scalable: bool,
    make: Arc<dyn Fn(Micros) -> Box<dyn Aggregator> + Send + Sync>,
    /// The by-value store of a built-in factory; `None`, boxed.
    store: Option<Box<StoreFn>>,
    /// A built-in factory's [`check_horizon`](AggregatorFactory::check_horizon).
    horizon: Option<Box<HorizonFn>>,
}

impl FnFactory {
    /// Wraps `make` as a factory.
    pub fn new(
        name: impl Into<String>,
        splittable: bool,
        make: impl Fn(Micros) -> Box<dyn Aggregator> + Send + Sync + 'static,
    ) -> Arc<Self> {
        Self::with_scaling(name, splittable, false, make)
    }

    /// [`new`](Self::new) for the in-repo factories, which also state
    /// [`scalable`](AggregatorFactory::scalable). (A UDAF that scales
    /// implements [`AggregatorFactory`] itself.)
    pub(crate) fn with_scaling(
        name: impl Into<String>,
        splittable: bool,
        scalable: bool,
        make: impl Fn(Micros) -> Box<dyn Aggregator> + Send + Sync + 'static,
    ) -> Arc<Self> {
        Self::built(name, splittable, scalable, make, None, None)
    }

    /// [`with_scaling`](Self::with_scaling) for the in-repo factories that
    /// hold their groups by value, in the store `store` builds, or check
    /// their numbers over a bucket's horizon with `horizon`.
    pub(crate) fn built(
        name: impl Into<String>,
        splittable: bool,
        scalable: bool,
        make: impl Fn(Micros) -> Box<dyn Aggregator> + Send + Sync + 'static,
        store: Option<Box<StoreFn>>,
        horizon: Option<Box<HorizonFn>>,
    ) -> Arc<Self> {
        Arc::new(Self {
            name: name.into(),
            splittable,
            scalable,
            make: Arc::new(make),
            store,
            horizon,
        })
    }
}

impl AggregatorFactory for FnFactory {
    fn make(&self, bucket_start: Micros) -> Box<dyn Aggregator> {
        (self.make)(bucket_start)
    }
    fn name(&self) -> &str {
        &self.name
    }
    fn splittable(&self) -> bool {
        self.splittable
    }
    fn scalable(&self) -> bool {
        self.scalable
    }
    fn group_store(&self, query: &Query) -> Box<dyn GroupStore> {
        match &self.store {
            Some(store) => store(query),
            None => crate::groups::boxed(query),
        }
    }
    fn check_horizon(&self, horizon_secs: f64) -> Result<(), fd_core::Error> {
        self.horizon
            .as_ref()
            .map_or(Ok(()), |check| check(horizon_secs))
    }
}

/// Tuple filter (the GSQL `from TCP` selection).
pub type Filter = Arc<dyn Fn(&Packet) -> bool + Send + Sync>;
/// Group-by key extractor (the GSQL `group by destIP, destPort`).
pub type KeyFn = Arc<dyn Fn(&Packet) -> u64 + Send + Sync>;

/// A continuous aggregate query: selection → group-by → time bucket →
/// aggregate.
#[derive(Clone)]
pub struct Query {
    /// Query name (for reports).
    pub name: String,
    /// Optional tuple selection.
    pub filter: Option<Filter>,
    /// Group-by key.
    pub group_by: KeyFn,
    /// Time-bucket width in microseconds (the `time/60` of GSQL).
    pub bucket_micros: Micros,
    /// Out-of-order slack: a bucket closes only once the watermark passes
    /// its end by this much.
    pub slack_micros: Micros,
    /// The aggregate to compute per group.
    pub aggregate: Arc<dyn AggregatorFactory>,
    /// Run the two-level (LFTA/HFTA) architecture. Figure 2(b) disables
    /// this.
    pub two_level: bool,
    /// Number of slots in the low-level direct-mapped table.
    pub lfta_slots: usize,
}

impl Query {
    /// Starts building a query.
    pub fn builder(name: impl Into<String>) -> QueryBuilder {
        QueryBuilder {
            name: name.into(),
            filter: None,
            group_by: None,
            bucket_secs: 60,
            slack_secs: 0.0,
            aggregate: None,
            two_level: true,
            lfta_slots: 4096,
        }
    }
}

/// Builder for [`Query`].
pub struct QueryBuilder {
    name: String,
    filter: Option<Filter>,
    group_by: Option<KeyFn>,
    bucket_secs: u64,
    slack_secs: f64,
    aggregate: Option<Arc<dyn AggregatorFactory>>,
    two_level: bool,
    lfta_slots: usize,
}

impl QueryBuilder {
    /// Sets the tuple selection predicate.
    pub fn filter(mut self, f: impl Fn(&Packet) -> bool + Send + Sync + 'static) -> Self {
        self.filter = Some(Arc::new(f));
        self
    }

    /// Sets the group-by key function. Defaults to a single global group.
    pub fn group_by(mut self, f: impl Fn(&Packet) -> u64 + Send + Sync + 'static) -> Self {
        self.group_by = Some(Arc::new(f));
        self
    }

    /// Sets the time-bucket width in seconds (default 60, as in the
    /// paper's queries). A zero width, or one that does not fit the 64-bit
    /// microsecond clock, is rejected at build time.
    pub fn bucket_secs(mut self, secs: u64) -> Self {
        self.bucket_secs = secs;
        self
    }

    /// Sets the out-of-order slack in seconds (default 0). A negative or
    /// non-finite slack is rejected at build time.
    pub fn slack_secs(mut self, secs: f64) -> Self {
        self.slack_secs = secs;
        self
    }

    /// Sets the aggregate factory. Required.
    pub fn aggregate(mut self, f: Arc<dyn AggregatorFactory>) -> Self {
        self.aggregate = Some(f);
        self
    }

    /// Enables/disables the two-level architecture (default on).
    pub fn two_level(mut self, on: bool) -> Self {
        self.two_level = on;
        self
    }

    /// Sets the LFTA table size (default 4096 slots). Zero slots are
    /// rejected at build time if two-level mode is on.
    pub fn lfta_slots(mut self, slots: usize) -> Self {
        self.lfta_slots = slots;
        self
    }

    /// Finalizes the query, reporting what is missing or out of range: a
    /// query needs an aggregate, a positive bucket width that fits the
    /// microsecond clock, a finite non-negative slack, and (in two-level
    /// mode) at least one LFTA slot.
    ///
    /// # Errors
    /// [`fd_core::Error::MissingComponent`] without an aggregate, and
    /// [`fd_core::Error::InvalidParameter`] naming the first setting out
    /// of range.
    pub fn try_build(self) -> Result<Query, fd_core::Error> {
        let aggregate = self.aggregate.ok_or(fd_core::Error::MissingComponent {
            builder: "Query",
            component: "aggregate",
        })?;
        let bucket_micros = self
            .bucket_secs
            .checked_mul(MICROS_PER_SEC)
            .filter(|&width| width > 0)
            .ok_or(fd_core::Error::InvalidParameter {
                name: "bucket_secs",
                value: self.bucket_secs as f64,
                requirement: "at least one second and at most u64::MAX microseconds",
            })?;
        if !(self.slack_secs >= 0.0 && self.slack_secs.is_finite()) {
            return Err(fd_core::Error::InvalidParameter {
                name: "slack_secs",
                value: self.slack_secs,
                requirement: "a finite, non-negative number of seconds",
            });
        }
        aggregate.check_horizon(self.bucket_secs as f64 + self.slack_secs)?;
        if self.two_level && self.lfta_slots == 0 {
            return Err(fd_core::Error::InvalidParameter {
                name: "lfta_slots",
                value: 0.0,
                requirement: "at least one slot in two-level mode",
            });
        }
        Ok(Query {
            name: self.name,
            filter: self.filter,
            group_by: self.group_by.unwrap_or_else(|| Arc::new(|_| 0)),
            bucket_micros,
            // Finite and non-negative: the cast at most saturates.
            slack_micros: (self.slack_secs * MICROS_PER_SEC as f64) as Micros,
            aggregate,
            two_level: self.two_level,
            lfta_slots: self.lfta_slots,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Proto;

    struct CountingAgg(u64);
    impl Aggregator for CountingAgg {
        fn update(&mut self, _pkt: &Packet) {
            self.0 += 1;
        }
        fn merge_boxed(&mut self, other: Box<dyn Aggregator>) {
            let o = other
                .as_any_box()
                .downcast::<CountingAgg>()
                .expect("type mismatch");
            self.0 += o.0;
        }
        fn emit(&self, _t: f64) -> AggValue {
            AggValue::Float(self.0 as f64)
        }
        fn size_bytes(&self) -> usize {
            8
        }
        fn as_any_box(self: Box<Self>) -> Box<dyn Any> {
            self
        }
    }

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
    fn fn_factory_basics() {
        let f = FnFactory::new("count", true, |_| Box::new(CountingAgg(0)));
        assert_eq!(f.name(), "count");
        assert!(f.splittable());
        let mut a = f.make(0);
        a.update(&pkt(10));
        a.update(&pkt(20));
        assert_eq!(a.emit(1.0), AggValue::Float(2.0));
    }

    #[test]
    fn merge_boxed_downcasts() {
        let mut a: Box<dyn Aggregator> = Box::new(CountingAgg(3));
        let b: Box<dyn Aggregator> = Box::new(CountingAgg(4));
        a.merge_boxed(b);
        assert_eq!(a.emit(0.0), AggValue::Float(7.0));
    }

    #[test]
    fn query_builder_defaults() {
        let f = FnFactory::new("count", true, |_| Box::new(CountingAgg(0)));
        let q = Query::builder("q")
            .aggregate(f)
            .try_build()
            .expect("valid query");
        assert_eq!(q.bucket_micros, 60 * MICROS_PER_SEC);
        assert!(q.two_level);
        assert!(q.filter.is_none());
        assert_eq!((q.group_by)(&pkt(0)), 0);
    }

    #[test]
    fn try_build_reports_what_is_wrong() {
        assert!(matches!(
            Query::builder("q").try_build(),
            Err(fd_core::Error::MissingComponent { .. })
        ));
        let f = crate::aggregators::count_factory();
        assert!(Query::builder("q").aggregate(f.clone()).try_build().is_ok());
        assert!(Query::builder("q")
            .aggregate(f.clone())
            .bucket_secs(0)
            .try_build()
            .is_err());
        assert!(Query::builder("q")
            .aggregate(f)
            .lfta_slots(0)
            .try_build()
            .is_err());
    }

    #[test]
    fn try_build_refuses_a_slack_that_is_not_a_duration() {
        let f = crate::aggregators::count_factory();
        for slack in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    Query::builder("q")
                        .aggregate(f.clone())
                        .slack_secs(slack)
                        .try_build(),
                    Err(fd_core::Error::InvalidParameter {
                        name: "slack_secs",
                        ..
                    })
                ),
                "slack {slack}"
            );
        }
        let q = Query::builder("q")
            .aggregate(f)
            .slack_secs(1.5)
            .try_build()
            .expect("valid query");
        assert_eq!(q.slack_micros, 1_500_000);
    }

    #[test]
    fn try_build_refuses_a_bucket_wider_than_the_clock() {
        // 18446744073710 s × 10⁶ wraps u64 to a 448 384 µs bucket.
        let f = crate::aggregators::count_factory();
        for secs in [18_446_744_073_710, u64::MAX] {
            assert!(
                matches!(
                    Query::builder("q")
                        .aggregate(f.clone())
                        .bucket_secs(secs)
                        .try_build(),
                    Err(fd_core::Error::InvalidParameter {
                        name: "bucket_secs",
                        ..
                    })
                ),
                "bucket {secs}"
            );
        }
        let widest = u64::MAX / MICROS_PER_SEC;
        let q = Query::builder("q")
            .aggregate(f)
            .bucket_secs(widest)
            .try_build()
            .expect("valid query");
        assert_eq!(q.bucket_micros, widest * MICROS_PER_SEC);
    }

    #[test]
    fn agg_value_accessors_and_display() {
        let f = AggValue::Float(1.5);
        assert_eq!(f.as_float(), Some(1.5));
        assert!(f.as_items().is_none());
        let items = AggValue::Items(vec![ItemValue {
            item: 9,
            value: 2.0,
        }]);
        assert_eq!(items.as_items().unwrap().len(), 1);
        assert_eq!(format!("{items}"), "[9:2.000]");
    }

    #[test]
    fn agg_values_round_trip_and_nest_only_so_deep() {
        use fd_core::checkpoint::{from_bytes, to_bytes};
        let nested =
            |depth: usize| (0..depth).fold(AggValue::Float(0.5), |v, _| AggValue::Multi(vec![v]));
        let value = AggValue::Multi(vec![
            AggValue::Float(-0.0),
            AggValue::Items(vec![ItemValue {
                item: 3,
                value: 4.0,
            }]),
            nested(2),
        ]);
        let bytes = to_bytes(&value);
        assert_eq!(from_bytes::<AggValue>(&bytes), Ok(value));
        let deepest = to_bytes(&nested(MAX_NESTING));
        assert_eq!(from_bytes::<AggValue>(&deepest), Ok(nested(MAX_NESTING)));
        // One level deeper than a decoder recurses is refused, not followed
        // down the stack.
        let too_deep = to_bytes(&nested(MAX_NESTING + 1));
        assert!(from_bytes::<AggValue>(&too_deep).is_err());
    }
}
