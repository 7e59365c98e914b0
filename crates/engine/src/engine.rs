//! The query execution pipeline: selection → (LFTA) → HFTA → output rows.
//!
//! Mirrors Gigascope's two-level architecture (Section VIII of the paper):
//! splittable aggregates are partially aggregated in the fixed-size
//! low-level table ([`crate::lfta::Lfta`]) and combined in the high-level
//! groups of the open buckets; non-splittable aggregates (the UDAFs,
//! "written to run at the high-level only") receive raw tuples directly.
//! Figure 2(b) of the paper disables the split —
//! [`crate::udaf::QueryBuilder::two_level`] reproduces that ablation.
//!
//! Both levels live in the query's group store, which the engine holds as
//! one trait object: a built-in aggregate's state sits in it by value, a
//! UDAF's as the box its factory makes
//! ([`AggregatorFactory::group_store`](crate::udaf::AggregatorFactory::group_store)).
//! The engine admits tuples through its `Admission`, which also decides
//! which buckets close. It folds what it admits a batch at a time
//! ([`Engine::process_packets`]): the admitted run goes to the store in one
//! call, which walks it with the cache lines of the next tuples' LFTA slots
//! (or, unsplit, groups) already requested, and is folded whole before any
//! bucket closes, so the results are those of folding tuple by tuple.
//!
//! Time buckets close when the watermark (largest timestamp seen) passes the
//! bucket end plus the query's out-of-order slack — the engine's stand-in
//! for GS's punctuation/heartbeat mechanism. A closing bucket leaves the
//! store as one typed run, its groups in key order, which the engine
//! evaluates into rows at once — or, in the sharded engine's workers, keeps
//! for the combiner to merge across shards (*state mode*).

use fd_core::checkpoint::{require, Encode, MAX_COUNT};

use crate::admission::Admission;
use crate::groups::{put_closed, Admitted, GroupStore, Run};
use crate::tuple::{Micros, Packet};
use crate::udaf::{AggValue, Query};

/// One output row of a continuous query: a closed (bucket, group) with its
/// aggregate value.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Start of the time bucket (microseconds).
    pub bucket_start: Micros,
    /// Group key.
    pub key: u64,
    /// The aggregate result, evaluated at the bucket end.
    pub value: AggValue,
}

fd_core::codec_struct!(Row {
    bucket_start: Micros,
    key: u64,
    value: AggValue
});

/// A stream element: data or control.
///
/// GS avoids query blocking on idle or lossy feeds with *heartbeats* and
/// *punctuations* (Johnson et al., VLDB 2005; Tucker et al., TKDE 2003,
/// both cited in the paper's introduction): control tuples promising that
/// no data tuple with a smaller timestamp will follow, which lets operators
/// close time buckets without waiting for data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamEvent {
    /// A data tuple.
    Data(Packet),
    /// A punctuation: no later data tuple will carry a timestamp below this
    /// value. Advances the watermark (and closes due buckets) even when the
    /// data itself has gone quiet.
    Punctuation(Micros),
}

/// Execution counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Tuples offered to the engine.
    pub tuples_in: u64,
    /// Tuples rejected by the selection predicate.
    pub filtered: u64,
    /// Tuples arriving after their bucket closed (dropped, counted — the
    /// out-of-order support of forward decay needs slack > 0 to use them).
    pub late_drops: u64,
    /// Partial aggregates evicted from the LFTA by collisions.
    pub lfta_evictions: u64,
    /// Output rows emitted.
    pub rows_out: u64,
    /// Buckets closed.
    pub buckets_closed: u64,
}

fd_core::codec_struct!(EngineStats {
    tuples_in: u64,
    filtered: u64,
    late_drops: u64,
    lfta_evictions: u64,
    rows_out: u64,
    buckets_closed: u64,
} check |s| require(
    [s.tuples_in, s.filtered, s.late_drops, s.lfta_evictions, s.rows_out, s.buckets_closed]
        .iter()
        .all(|&n| n <= MAX_COUNT),
    "engine counters past 2^62",
));

/// The most admitted tuples that wait for one fold: bounds the engine's
/// and the group store's batch buffers whatever batch a caller offers.
const FOLD_RUN: usize = 4096;

/// A running instance of one continuous query.
pub struct Engine {
    query: Query,
    /// Every group's state: the LFTA (when split) and the open buckets.
    store: Box<dyn GroupStore>,
    /// Closed rows awaiting collection.
    out: Vec<Row>,
    /// Closed runs awaiting collection (state mode only).
    closed: Option<Vec<Box<dyn Run>>>,
    /// The watermark, the close frontier and every counter but
    /// `lfta_evictions`, which is the LFTA's own (read them through
    /// [`Engine::stats`]). Its `closed_below` is the store's: only the
    /// engine moves it.
    adm: Admission,
    /// Admitted tuples awaiting their fold: empty between calls, its
    /// buffer reused.
    pending: Vec<Admitted>,
    /// Size of the last [`Engine::checkpoint`] blob, used to pre-size the
    /// next one (supervised workers checkpoint on their critical path, so
    /// growth reallocations are worth avoiding).
    last_ckpt_bytes: std::cell::Cell<usize>,
}

impl Engine {
    /// Instantiates the query.
    pub fn new(query: Query) -> Self {
        Self {
            store: query.aggregate.group_store(&query),
            adm: Admission::new(&query),
            query,
            out: Vec::new(),
            closed: None,
            pending: Vec::new(),
            last_ckpt_bytes: std::cell::Cell::new(64 * 1024),
        }
    }

    /// Switches the engine to *state mode*: closed buckets are kept as
    /// their runs (collect with [`Engine::drain_closed_state`] /
    /// [`Engine::finish_state`]) instead of evaluated into [`Row`]s — what a
    /// shard worker does, since the combiner must merge per-shard partial
    /// states before evaluating them (Section VI-B: frozen numerators make
    /// partial summaries mergeable). Called before any bucket closes.
    pub(crate) fn keep_closed_state(&mut self) {
        self.closed = Some(Vec::new());
    }

    /// Whether the two-level split is active for this query.
    pub fn is_split(&self) -> bool {
        self.store.lfta_counters().is_some()
    }

    /// The query's display name.
    pub fn query_name(&self) -> &str {
        &self.query.name
    }

    /// Offers one tuple to the query: a batch of one.
    pub fn process(&mut self, pkt: &Packet) {
        self.process_packets(std::slice::from_ref(pkt));
    }

    /// Offers a batch of tuples, in order. Each is admitted as it comes;
    /// the admitted run is folded into the group store as one batch
    /// whenever a bucket is due to close (before it closes), every
    /// 4 096 tuples, and at the end of the call. The results are
    /// those of [`process`](Engine::process) on each tuple in turn: nothing
    /// admission reads is written by a fold, so only when a tuple is folded
    /// moves, never where or in what order.
    pub fn process_packets(&mut self, pkts: &[Packet]) {
        let mut pending = std::mem::take(&mut self.pending);
        self.adm.stats.tuples_in += pkts.len() as u64;
        for (index, pkt) in pkts.iter().enumerate() {
            let Some(admitted) = self.adm.admit(pkt, index) else {
                continue;
            };
            pending.push(admitted);
            let due = self.adm.due();
            if due || pending.len() == FOLD_RUN {
                self.store.fold_batch(pkts, &pending);
                pending.clear();
            }
            if due {
                self.close_due_buckets();
            }
        }
        if !pending.is_empty() {
            self.store.fold_batch(pkts, &pending);
            pending.clear();
        }
        self.pending = pending;
    }

    /// Offers one tuple carrying a Horvitz–Thompson scale (the `1/p`
    /// inverse-inclusion-probability weight attached by decay-aware load
    /// shedding). A unit scale is exactly [`process`](Engine::process);
    /// non-unit scales take the direct high-level path, bypassing the
    /// LFTA — its direct-mapped slots carry no scale column. High-level
    /// groups take LFTA partials by the same merge, so mixing scaled and
    /// unscaled tuples within a bucket stays correct.
    ///
    /// # Errors
    /// A non-unit scale is refused — the tuple is not admitted, counted or
    /// folded in, in debug and release builds alike — unless the query's
    /// aggregate is [`scalable`](crate::udaf::AggregatorFactory::scalable):
    /// reweighting biases an order statistic, a sketch or a sample, and
    /// counting the tuple at weight one would bias it silently.
    pub fn process_scaled(&mut self, pkt: &Packet, scale: f64) -> Result<(), fd_core::Error> {
        if scale == 1.0 {
            self.process(pkt);
            return Ok(());
        }
        if !self.query.aggregate.scalable() {
            return Err(fd_core::Error::InvalidParameter {
                name: "scale",
                value: scale,
                requirement: "1.0 unless the aggregate supports Horvitz-Thompson \
                              scaled updates (decayed count/sum/avg)",
            });
        }
        self.adm.stats.tuples_in += 1;
        if let Some(admitted) = self.adm.admit(pkt, 0) {
            self.store.fold_scaled(pkt, &admitted, scale);
            if self.adm.due() {
                self.close_due_buckets();
            }
        }
        Ok(())
    }

    /// Closes every bucket whose end + slack the frontier has passed.
    /// Empty buckets cost nothing: the LFTA is flushed once for the whole
    /// closeable range, then only data-bearing buckets emit.
    fn close_due_buckets(&mut self) {
        if let Some(target) = self.adm.close() {
            self.close_below(target);
        }
    }

    /// Closes every open bucket below `target` into rows, or in state mode
    /// into the runs it keeps; returns the newest bucket closed.
    fn close_below(&mut self, target: u64) -> Option<u64> {
        let (rows, closed) = (&mut self.out, &mut self.closed);
        let (stats, width) = (&mut self.adm.stats, self.query.bucket_micros);
        let mut newest = None;
        self.store.close_below(target, &mut |run| {
            newest = Some(run.bucket());
            stats.buckets_closed += 1;
            match closed {
                Some(closed) if run.len() > 0 => closed.push(run),
                Some(_) => {}
                None => {
                    stats.rows_out += run.len() as u64;
                    run.rows(Vec::new(), width, rows);
                }
            }
        });
        newest
    }

    /// Processes a punctuation: advances the watermark to `ts` and closes
    /// every bucket whose end + slack it passes, without any data tuple.
    pub fn punctuate(&mut self, ts: Micros) {
        if let Some(target) = self.adm.punctuate(ts) {
            self.close_below(target);
        }
    }

    /// Offers one stream element (data or control).
    pub fn process_event(&mut self, ev: &StreamEvent) {
        match ev {
            StreamEvent::Data(pkt) => self.process(pkt),
            StreamEvent::Punctuation(ts) => self.punctuate(*ts),
        }
    }

    /// Collects the rows of all buckets closed so far.
    pub fn drain_rows(&mut self) -> Vec<Row> {
        std::mem::take(&mut self.out)
    }

    /// Collects the runs of all buckets closed so far (state mode only;
    /// empty in row mode).
    pub(crate) fn drain_closed_state(&mut self) -> Vec<Box<dyn Run>> {
        self.closed.as_mut().map(std::mem::take).unwrap_or_default()
    }

    fn close_all(&mut self) {
        if let Some(newest) = self.close_below(u64::MAX) {
            let closed_below = self.adm.closed_below().max(newest.saturating_add(1));
            self.adm.set_closed_below(closed_below);
        }
    }

    /// Ends the stream: closes all open buckets and returns every pending
    /// row.
    pub fn finish(&mut self) -> Vec<Row> {
        self.close_all();
        self.drain_rows()
    }

    /// Ends the stream in state mode: closes all open buckets and returns
    /// every pending run.
    pub(crate) fn finish_state(&mut self) -> Vec<Box<dyn Run>> {
        self.close_all();
        self.drain_closed_state()
    }

    /// Runs a whole stream through the query, 4 096 tuples to a
    /// [`process_packets`](Engine::process_packets) call, and returns all
    /// rows.
    pub fn run(&mut self, stream: impl IntoIterator<Item = Packet>) -> Vec<Row> {
        let mut stream = stream.into_iter();
        let mut chunk = Vec::with_capacity(FOLD_RUN);
        loop {
            chunk.clear();
            chunk.extend(stream.by_ref().take(FOLD_RUN));
            if chunk.is_empty() {
                return self.finish();
            }
            self.process_packets(&chunk);
        }
    }

    /// Execution counters so far.
    pub fn stats(&self) -> EngineStats {
        let mut s = self.adm.stats;
        if let Some((_, evictions, _)) = self.store.lfta_counters() {
            s.lfta_evictions = evictions;
        }
        s
    }

    /// Occupied LFTA slots right now; `None` in single-level mode. O(slots)
    /// — the shard workers sample it once per punctuation for telemetry.
    pub fn lfta_occupancy(&self) -> Option<usize> {
        self.store.lfta_occupancy()
    }

    /// The current watermark (largest timestamp or punctuation seen), µs.
    pub fn watermark(&self) -> Micros {
        self.adm.watermark
    }

    /// A shard worker's engine: closes at the least of `n` producers'
    /// watermarks ([`Admission::track_producers`]).
    pub(crate) fn track_producers(&mut self, n: usize) {
        self.adm.track_producers(n);
    }

    /// Producer `p`'s epoch applies next.
    pub(crate) fn begin_epoch(&mut self, p: usize) {
        self.adm.begin_epoch(p);
    }

    /// Producer `p`'s queue closed: it no longer holds closes back.
    pub(crate) fn close_producer(&mut self, p: usize) {
        self.adm.close_producer(p);
    }

    /// The least watermark of any producer, which closes are judged by.
    pub(crate) fn frontier(&self) -> Micros {
        self.adm.frontier()
    }

    /// Current memory footprint of all live aggregation state.
    pub fn space_bytes(&self) -> usize {
        self.store.space_bytes()
    }

    /// Average space per live group in bytes — the paper's Figure 2(d) /
    /// 4(c) metric. `None` when no groups are live.
    pub fn space_per_group(&self) -> Option<f64> {
        self.store.space_per_group()
    }

    /// Serializes the engine's complete execution state — watermark, close
    /// frontier, counters, every open high-level group, the LFTA slots *in
    /// place*, any pending closed state or rows — into one byte buffer.
    ///
    /// The snapshot is deterministic (group keys are sorted) and restoring
    /// it with [`Engine::restore`] resumes the run so that the remaining
    /// stream produces **byte-identical** output: LFTA slots go back to the
    /// exact positions they held, so future fold/evict/flush order — and
    /// with it every floating-point combination order — is unchanged.
    ///
    /// # Errors
    /// Fails with a `CodecError` if the query's aggregator declines to
    /// checkpoint, which only a hand-written UDAF does.
    pub fn checkpoint(&self) -> Result<Vec<u8>, fd_core::checkpoint::CodecError> {
        let mut blob = Vec::with_capacity(self.last_ckpt_bytes.get() + 16 * 1024);
        self.checkpoint_into(&mut blob)?;
        Ok(blob)
    }

    /// [`checkpoint`](Engine::checkpoint) into a caller-supplied buffer,
    /// clearing it first. Periodic checkpointing recycles the previous
    /// snapshot's buffer through here (see `CheckpointSlot::store`), so
    /// the steady state rewrites the same buffer — megabytes for a
    /// sketch per group (≈ 6 MB on the benchmark's `sketch_quantiles`) —
    /// instead of paying an allocate/fault/free cycle per checkpoint.
    pub fn checkpoint_into(
        &self,
        out: &mut Vec<u8>,
    ) -> Result<(), fd_core::checkpoint::CodecError> {
        use fd_core::checkpoint::CodecError;
        let unsupported = || {
            CodecError::new(format!(
                "aggregate '{}' does not support checkpointing",
                self.query.aggregate.name()
            ))
        };
        // Layout: `flat blob | header | header_len`. The bulky, regular
        // state — one tiny length-prefixed aggregator checkpoint per live
        // group, tens of thousands per snapshot — is packed into the blob
        // as the groups are walked, with no value built per group; the
        // small, irregular rest is one `EngineHeader`. The header trails
        // the blob so the result is one buffer, never recopied.
        let mut blob = std::mem::take(out);
        blob.clear();
        self.store
            .checkpoint_into(&mut blob)
            .ok_or_else(unsupported)?;
        put_closed(&mut blob, self.closed.as_deref().unwrap_or(&[])).ok_or_else(unsupported)?;
        self.last_ckpt_bytes.set(blob.len());
        let header_start = blob.len();
        EngineHeader {
            watermark: self.adm.watermark,
            closed_below: self.adm.closed_below(),
            stats: self.stats(),
            state_mode: self.closed.is_some(),
            lfta: self.store.lfta_counters(),
            rows: self.out.clone(),
        }
        .put(&mut blob);
        let header_len = (blob.len() - header_start) as u64;
        header_len.put(&mut blob);
        *out = blob;
        Ok(())
    }

    /// Rebuilds an engine from a [`checkpoint`](Engine::checkpoint) taken on
    /// an engine running the *same* `query` (same aggregate, bucketing and
    /// split configuration — the caller is responsible for passing the
    /// original query; mismatches surface as decode or shape errors).
    ///
    /// # Errors
    /// Fails if the bytes don't decode, or if the snapshot's two-level
    /// shape (split or not, LFTA slot count) contradicts the query's.
    pub fn restore(query: Query, bytes: &[u8]) -> Result<Self, fd_core::checkpoint::CodecError> {
        use fd_core::checkpoint::{CodecError, Reader};
        let Some((body, tail)) = bytes.split_last_chunk::<8>() else {
            return Err(CodecError::new("checkpoint shorter than its length tail"));
        };
        let header_len = u64::from_le_bytes(*tail) as usize;
        if header_len > body.len() {
            return Err(CodecError::new("checkpoint header overruns the buffer"));
        }
        let (blob, header_bytes) = body.split_at(body.len() - header_len);
        let header: EngineHeader = fd_core::checkpoint::from_bytes(header_bytes)?;
        let mut r = Reader::new(blob);
        let mut e = Engine::new(query);
        e.store.restore(&mut r, header.lfta)?;
        let closed = e.store.read_closed(&mut r)?;
        if header.state_mode {
            e.closed = Some(closed);
        } else if !closed.is_empty() {
            return Err(CodecError::new("closed state in a row-mode snapshot"));
        }
        if !r.is_empty() {
            return Err(CodecError::new("trailing bytes after checkpoint blob"));
        }
        e.adm.watermark = header.watermark;
        e.adm.set_closed_below(header.closed_below);
        e.adm.stats = header.stats;
        e.out = header.rows;
        Ok(e)
    }
}

/// The head of an [`Engine`] checkpoint: everything small and irregular.
/// The per-group bulk (HFTA buckets, LFTA slots, closed state) is packed
/// into a flat blob before it — see [`Engine::checkpoint`] for the layout
/// and the why.
struct EngineHeader {
    watermark: Micros,
    closed_below: u64,
    stats: EngineStats,
    state_mode: bool,
    /// `(n_slots, evictions, updates)` when the query is two-level.
    lfta: Option<(u64, u64, u64)>,
    /// Pending rows (row mode).
    rows: Vec<Row>,
}

fd_core::codec_struct!(EngineHeader {
    watermark: Micros,
    closed_below: u64,
    stats: EngineStats,
    state_mode: bool,
    lfta: Option<(u64, u64, u64)>,
    rows: Vec<Row>,
} check |h| require(
    (h.lfta).is_none_or(|(_, evictions, updates)| evictions.max(updates) <= MAX_COUNT),
    "LFTA counters past 2^62",
));

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregators::{count_factory, fwd_count_factory};
    use crate::tuple::{Proto, MICROS_PER_SEC};
    use crate::udaf::{AggregatorFactory as _, FnFactory};
    use fd_core::decay::Monomial;
    use std::sync::Arc;

    /// `f`, whose groups the engine holds by value, and its twin as a
    /// UDAF's `make`, whose groups it holds boxed: the tests below run
    /// both instantiations of the group store.
    fn both(f: Arc<FnFactory>) -> [Arc<FnFactory>; 2] {
        let inner = Arc::clone(&f);
        let make = move |start| inner.make(start);
        let boxed = FnFactory::with_scaling(f.name(), f.splittable(), f.scalable(), make);
        [f, boxed]
    }

    fn pkt(ts_s: f64, dst_ip: u32) -> Packet {
        Packet {
            ts: (ts_s * MICROS_PER_SEC as f64) as Micros,
            src_ip: 1,
            dst_ip,
            src_port: 1000,
            dst_port: 80,
            len: 100,
            proto: Proto::Tcp,
        }
    }

    fn count_query(aggregate: Arc<FnFactory>, two_level: bool) -> Query {
        Query::builder("count")
            .group_by(|p| p.dst_host())
            .bucket_secs(60)
            .aggregate(aggregate)
            .two_level(two_level)
            .lfta_slots(16)
            .try_build()
            .expect("valid query")
    }

    /// The count query over each instantiation.
    fn count_queries(two_level: bool) -> [Query; 2] {
        both(count_factory()).map(|f| count_query(f, two_level))
    }

    #[test]
    fn counts_per_group_and_bucket() {
        for (two_level, q) in [false, true]
            .into_iter()
            .flat_map(|t| count_queries(t).map(|q| (t, q)))
        {
            let mut e = Engine::new(q);
            let mut stream = Vec::new();
            // Bucket 0: host 1 ×10, host 2 ×5. Bucket 1: host 1 ×3.
            for i in 0..10 {
                stream.push(pkt(1.0 + i as f64, 1));
            }
            for i in 0..5 {
                stream.push(pkt(20.0 + i as f64, 2));
            }
            for i in 0..3 {
                stream.push(pkt(61.0 + i as f64, 1));
            }
            let rows = e.run(stream);
            assert_eq!(rows.len(), 3, "two_level = {two_level}");
            let find = |bs: Micros, key: u64| {
                rows.iter()
                    .find(|r| r.bucket_start == bs && r.key == key)
                    .map(|r| r.value.as_float().expect("float"))
            };
            assert_eq!(find(0, 1), Some(10.0));
            assert_eq!(find(0, 2), Some(5.0));
            assert_eq!(find(60 * MICROS_PER_SEC, 1), Some(3.0));
        }
    }

    #[test]
    fn two_level_and_single_level_agree_under_collisions() {
        // Many more groups than LFTA slots: heavy eviction traffic must not
        // change the results.
        let stream: Vec<Packet> = (0..20_000)
            .map(|i| pkt(0.001 * i as f64, (i % 500) as u32))
            .collect();
        for (split, flat) in count_queries(true).into_iter().zip(count_queries(false)) {
            let mut split = Engine::new(split);
            let mut flat = Engine::new(flat);
            let rows_split = split.run(stream.clone());
            let rows_flat = flat.run(stream.clone());
            assert!(split.stats().lfta_evictions > 0);
            assert_eq!(rows_split.len(), rows_flat.len());
            for (a, b) in rows_split.iter().zip(&rows_flat) {
                assert_eq!((a.bucket_start, a.key), (b.bucket_start, b.key));
                assert_eq!(a.value, b.value);
            }
        }
    }

    #[test]
    fn forward_decayed_count_uses_bucket_start_as_landmark() {
        // One packet at t = 90 in the bucket [60, 120): landmark 60,
        // queried at 120 → weight = ((90−60)/(120−60))² = 0.25.
        for f in both(fwd_count_factory(Monomial::quadratic())) {
            let mut e = Engine::new(count_query(f, true));
            let rows = e.run(vec![pkt(90.0, 1)]);
            assert_eq!(rows.len(), 1);
            let v = rows[0].value.as_float().expect("float");
            assert!((v - 0.25).abs() < 1e-9, "got {v}");
        }
    }

    #[test]
    fn filter_drops_tuples() {
        let q = Query::builder("tcp_only")
            .filter(|p| p.proto == Proto::Udp)
            .aggregate(count_factory())
            .try_build()
            .expect("valid query");
        let mut e = Engine::new(q);
        let rows = e.run(vec![pkt(1.0, 1), pkt(2.0, 1)]);
        assert!(rows.is_empty());
        assert_eq!(e.stats().filtered, 2);
    }

    #[test]
    fn buckets_close_on_watermark_and_late_tuples_drop() {
        for q in count_queries(false) {
            let mut e = Engine::new(q);
            e.process(&pkt(10.0, 1));
            e.process(&pkt(130.0, 1)); // watermark 130 closes bucket 0 (and 1)
            let rows = e.drain_rows();
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0].bucket_start, 0);
            e.process(&pkt(15.0, 1)); // late into closed bucket 0
            assert_eq!(e.stats().late_drops, 1);
            let final_rows = e.finish();
            assert_eq!(final_rows.len(), 1); // the t=130 bucket
        }
    }

    #[test]
    fn slack_tolerates_out_of_order() {
        for q in count_queries(false).into_iter().chain(count_queries(true)) {
            let mut e = Engine::new(Query {
                slack_micros: 10 * MICROS_PER_SEC,
                ..q
            });
            e.process(&pkt(59.0, 1));
            e.process(&pkt(65.0, 1)); // watermark 65 < 60 + 10: bucket 0 stays open
            e.process(&pkt(58.0, 1)); // out of order, still accepted
            assert_eq!(e.stats().late_drops, 0);
            let rows = e.finish();
            let b0 = rows.iter().find(|r| r.bucket_start == 0).expect("bucket 0");
            assert_eq!(b0.value.as_float(), Some(2.0));
        }
    }

    #[test]
    fn stats_and_space_reporting() {
        for q in count_queries(true) {
            let mut e = Engine::new(q);
            for i in 0..100 {
                e.process(&pkt(i as f64 * 0.1, (i % 7) as u32));
            }
            assert_eq!(e.stats().tuples_in, 100);
            assert!(e.space_bytes() > 0);
            assert_eq!(e.space_per_group(), Some(4.0));
            e.finish();
            assert_eq!(e.stats().rows_out, 7);
        }
    }

    #[test]
    fn multi_aggregate_splits_through_the_two_level_pipeline() {
        use crate::aggregators::{multi_factory, sum_factory};
        let combo = multi_factory(vec![count_factory(), sum_factory(|p| p.len as f64)]);
        let q = Query::builder("multi")
            .group_by(|p| p.dst_host())
            .bucket_secs(60)
            .aggregate(combo)
            .two_level(true)
            .lfta_slots(4) // force eviction/merge traffic through MultiAgg
            .try_build()
            .expect("valid query");
        let mut e = Engine::new(q);
        assert!(e.is_split());
        let stream: Vec<Packet> = (0..1000)
            .map(|i| pkt(i as f64 * 0.01, (i % 20) as u32))
            .collect();
        let rows = e.run(stream);
        assert!(e.stats().lfta_evictions > 0);
        assert_eq!(rows.len(), 20);
        for r in &rows {
            let parts = r.value.as_multi().expect("multi");
            assert_eq!(parts[0].as_float(), Some(50.0)); // 1000 / 20 groups
            assert_eq!(parts[1].as_float(), Some(50.0 * 100.0));
        }
    }

    #[test]
    fn punctuation_closes_buckets_without_data() {
        for q in count_queries(false) {
            let mut e = Engine::new(q);
            e.process(&pkt(10.0, 1));
            assert!(e.drain_rows().is_empty(), "bucket must stay open");
            // A heartbeat promises that t < 120 s is complete: bucket 0
            // closes even though no data tuple has passed its boundary.
            e.punctuate(120 * MICROS_PER_SEC);
            let rows = e.drain_rows();
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0].value.as_float(), Some(1.0));
            // Data arriving before the punctuation's promise is late.
            e.process(&pkt(30.0, 1));
            assert_eq!(e.stats().late_drops, 1);
        }
    }

    #[test]
    fn process_event_dispatches() {
        for q in count_queries(true) {
            let mut e = Engine::new(q);
            e.process_event(&StreamEvent::Data(pkt(5.0, 1)));
            e.process_event(&StreamEvent::Punctuation(70 * MICROS_PER_SEC));
            let rows = e.drain_rows();
            assert_eq!(rows.len(), 1);
            // Punctuations never regress the watermark.
            e.process_event(&StreamEvent::Punctuation(0));
            e.process_event(&StreamEvent::Data(pkt(100.0, 2)));
            assert_eq!(e.finish().len(), 1);
        }
    }

    #[test]
    fn scaled_tuples_reweight_linear_aggregates() {
        use crate::aggregators::{fwd_avg_factory, fwd_sum_factory, multi_factory};
        // One survivor fed with scale w must equal the same tuple fed w
        // times — the Horvitz–Thompson identity, end to end through the
        // engine (including the LFTA-bypass for scaled tuples), for each
        // linear aggregate held by value or boxed, and for their composite.
        let g = Monomial::quadratic();
        let len = |p: &Packet| p.len as f64;
        let linear = || {
            vec![
                fwd_count_factory(g),
                fwd_sum_factory(g, len),
                fwd_avg_factory(g, len),
            ]
        };
        let floats = |v: &AggValue| match v {
            AggValue::Multi(parts) => parts.iter().map(|p| p.as_float().unwrap()).collect(),
            v => vec![v.as_float().unwrap()],
        };
        let mut factories: Vec<_> = linear().into_iter().flat_map(both).collect();
        factories.push(multi_factory(linear()));
        for f in factories {
            assert!(f.scalable());
            let mut scaled = Engine::new(count_query(Arc::clone(&f), true));
            let mut dup = Engine::new(count_query(f, true));
            for i in 0..200 {
                let p = pkt(i as f64 * 0.25, (i % 5) as u32);
                if i % 3 == 0 {
                    scaled.process_scaled(&p, 3.0).expect("scalable");
                    for _ in 0..3 {
                        dup.process(&p);
                    }
                } else {
                    scaled.process(&p);
                    dup.process(&p);
                }
            }
            let (a, b) = (scaled.finish(), dup.finish());
            assert_eq!(a.len(), b.len());
            for (ra, rb) in a.iter().zip(&b) {
                assert_eq!((ra.bucket_start, ra.key), (rb.bucket_start, rb.key));
                for (x, y) in floats(&ra.value).into_iter().zip(floats(&rb.value)) {
                    assert!((x - y).abs() <= 1e-9 * y.abs().max(1.0), "{x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn unit_scale_is_exactly_process() {
        for q in count_queries(true) {
            let mut a = Engine::new(q.clone());
            let mut b = Engine::new(q);
            for i in 0..500 {
                let p = pkt(i as f64 * 0.3, (i % 9) as u32);
                a.process(&p);
                b.process_scaled(&p, 1.0).expect("a unit scale");
            }
            assert_eq!(a.finish(), b.finish());
        }
    }

    #[test]
    fn a_non_unit_scale_is_refused_unless_the_aggregate_scales() {
        use crate::aggregators::{fwd_quantile_factory, fwd_var_factory, multi_factory};
        // Whatever the build profile: the tuple neither panics the caller
        // nor lands at weight one.
        let val = |p: &Packet| p.dst_ip as f64;
        for unscalable in [
            count_factory(),
            fwd_var_factory(Monomial::quadratic(), val),
            fwd_quantile_factory(Monomial::quadratic(), 8, 0.1, vec![0.5], |p| p.dst_host()),
            multi_factory(vec![
                fwd_count_factory(Monomial::quadratic()),
                fwd_var_factory(Monomial::quadratic(), val),
            ]),
        ]
        .into_iter()
        .flat_map(both)
        {
            let q = || {
                Query::builder("unscalable")
                    .group_by(|p| p.dst_host())
                    .aggregate(unscalable.clone())
                    .try_build()
                    .expect("valid query")
            };
            let (mut offered, mut spared) = (Engine::new(q()), Engine::new(q()));
            for i in 0..50 {
                let p = pkt(i as f64, (i % 4) as u32);
                offered.process(&p);
                spared.process(&p);
                let refused = offered.process_scaled(&pkt(i as f64 + 0.5, 9), 2.0);
                assert!(matches!(
                    refused,
                    Err(fd_core::Error::InvalidParameter { name: "scale", .. })
                ));
                offered.process_scaled(&p, 1.0).expect("a unit scale");
                spared.process(&p);
            }
            assert_eq!(offered.stats(), spared.stats());
            assert_eq!(offered.finish(), spared.finish());
        }
    }

    #[test]
    fn restore_rejects_buckets_out_of_order() {
        for q in count_queries(false) {
            let q = || Query {
                slack_micros: 10 * MICROS_PER_SEC,
                ..q.clone()
            };
            let mut e = Engine::new(q());
            e.process(&pkt(59.0, 1));
            e.process(&pkt(65.0, 1)); // buckets 0 and 1 both open
            let mut blob = e.checkpoint().expect("checkpoint");
            assert!(Engine::restore(q(), &blob).is_ok());
            // The first bucket's id follows the decay (an empty frame) and
            // the bucket count; make it sort after the second.
            blob[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
            let refused = Engine::restore(q(), &blob)
                .err()
                .expect("buckets out of order");
            assert!(refused.to_string().contains("out of order"), "{refused}");
        }
    }

    #[test]
    fn restore_refuses_a_group_twice_in_a_bucket() {
        for q in count_queries(false) {
            let mut e = Engine::new(q.clone());
            e.process(&pkt(1.0, 1));
            e.process(&pkt(2.0, 2));
            let mut blob = e.checkpoint().expect("checkpoint");
            assert!(Engine::restore(q.clone(), &blob).is_ok());
            // The first group's key follows the decay (an empty frame), the
            // bucket count, id and group count; the second's follows the
            // first's framed state.
            let len = u64::from_le_bytes(blob[40..48].try_into().expect("8 bytes")) as usize;
            blob.copy_within(32..40, 48 + len);
            let refused = Engine::restore(q, &blob).err().expect("a duplicate group");
            assert!(
                refused.to_string().contains("twice in a bucket"),
                "{refused}"
            );
        }
    }

    #[test]
    fn restore_refuses_an_lfta_of_another_geometry() {
        const SLOTS: usize = 0x1234;
        for f in both(count_factory()) {
            let q = |lfta_slots| Query {
                lfta_slots,
                ..count_query(Arc::clone(&f), true)
            };
            let mut e = Engine::new(q(SLOTS));
            for i in 0..100 {
                e.process(&pkt(i as f64 * 0.1, i % 7));
            }
            let blob = e.checkpoint().expect("checkpoint");
            assert!(Engine::restore(q(SLOTS), &blob).is_ok());
            // A merely different count: the partials sit where another
            // table would have probed them.
            assert!(Engine::restore(q(SLOTS * 2), &blob).is_err());
            // An absurd count must be an `Err`, not a capacity-overflow
            // panic (or an allocator abort) in whichever thread is
            // respawning a worker. The slot count is the header's last
            // occurrence of SLOTS.
            let at = (blob.windows(8))
                .rposition(|w| w == (SLOTS as u64).to_le_bytes())
                .expect("slot count in the header");
            let mut huge = blob.clone();
            huge[at..at + 8].copy_from_slice(&(1u64 << 60).to_le_bytes());
            assert!(Engine::restore(q(SLOTS), &huge).is_err());
            assert!(Engine::restore(q(1 << 20), &huge).is_err());
        }
    }

    /// A packet of group `dst_ip` at `ts` µs carrying `len` bytes.
    fn at(ts: Micros, dst_ip: u32, len: u32) -> Packet {
        Packet {
            ts,
            len,
            ..pkt(0.0, dst_ip)
        }
    }

    /// `tests/group_store.rs`' golden query: `fwd_sum` under `n²` over 10 s
    /// buckets, 5 s of slack and four LFTA slots.
    fn golden_query() -> Query {
        Query::builder("golden")
            .group_by(|p| p.dst_host())
            .bucket_secs(10)
            .slack_secs(5.0)
            .aggregate(crate::aggregators::fwd_sum_factory(
                Monomial::quadratic(),
                |p| p.len as f64,
            ))
            .lfta_slots(4)
            .try_build()
            .expect("valid query")
    }

    /// Its 44 tuples over 33 s, seven groups, ±2 s out of order: two
    /// buckets close.
    fn golden_stream() -> Vec<Packet> {
        (0..44u64)
            .map(|i| {
                let ts = i * 750_000 + (i * 7 % 5) * 400_000;
                at(ts, (i * 5 % 7) as u32, 100 + i as u32)
            })
            .collect()
    }

    /// `fwd_avg` under `exp:10` over 60 s buckets: past 34.5 s into a
    /// bucket, where a standalone summary's clock would move.
    fn moving_query() -> Query {
        let g: fd_core::decay::AnyDecay = "exp:10".parse().expect("decay spec");
        Query::builder("avg_exp10")
            .group_by(|p| p.dst_host())
            .bucket_secs(60)
            .slack_secs(2.0)
            .aggregate(crate::aggregators::fwd_avg_factory(g, |p| p.len as f64))
            .lfta_slots(8)
            .try_build()
            .expect("valid query")
    }

    /// `n` tuples every 0.5 s from t = 1 s on seven groups, up to 0.9 s out
    /// of order.
    fn moving_stream(n: u64) -> Vec<Packet> {
        (0..n)
            .map(|i| {
                let ts = MICROS_PER_SEC + i * 500_000 + (i * 7919 % 10) * 90_000;
                at(ts, (i * 3 % 7) as u32, 40 + (i * 97 % 1400) as u32)
            })
            .collect()
    }

    /// The closed section `runs` write, and the rows they evaluate to, each
    /// value by its bits.
    fn closed_output(runs: Vec<Box<dyn Run>>, width: Micros) -> (Vec<u8>, Vec<(Micros, u64, u64)>) {
        let mut bytes = Vec::new();
        put_closed(&mut bytes, &runs).expect("every cell checkpoints");
        let mut rows = Vec::new();
        runs.into_iter()
            .for_each(|run| run.rows(Vec::new(), width, &mut rows));
        let bits = |r: Row| {
            (
                r.bucket_start,
                r.key,
                r.value.as_float().expect("float").to_bits(),
            )
        };
        (bytes, rows.into_iter().map(bits).collect())
    }

    #[test]
    fn state_mode_checkpoints_are_the_parent_commits() {
        // Written by `Engine::checkpoint` at the commit that made cells
        // weigh `g(a) / g(W)`, from these queries and streams: two images,
        // a blank line apart, each with closed buckets pending.
        let images: Vec<Vec<u8>> =
            include_str!("../../../tests/data/engine_checkpoint_state_mode.hex")
                .split("\n\n")
                .map(|image| {
                    let digits: Vec<u8> = image.bytes().filter(u8::is_ascii_hexdigit).collect();
                    let pair =
                        |d: &[u8]| u8::from_str_radix(std::str::from_utf8(d).expect("ascii"), 16);
                    digits
                        .chunks(2)
                        .map(|d| pair(d).expect("hex digit pair"))
                        .collect()
                })
                .collect();
        assert_eq!(
            images.iter().map(Vec::len).collect::<Vec<_>>(),
            [1410, 2306]
        );
        let queries: [fn() -> Query; 2] = [golden_query, moving_query];
        let streams = [golden_stream(), moving_stream(400)];
        for ((query, stream), golden) in queries.into_iter().zip(streams).zip(images) {
            let mut e = Engine::new(query());
            e.keep_closed_state();
            e.process_packets(&stream);
            assert!(e.stats().buckets_closed >= 2);
            assert!(
                e.checkpoint().expect("checkpoint") == golden,
                "{}: bytes differ",
                e.query_name()
            );
            // The parent's bytes restore, and write themselves back.
            let mut restored = Engine::restore(query(), &golden).expect("restore");
            assert!(restored.checkpoint().expect("checkpoint") == golden);
            let width = e.query.bucket_micros;
            let (ours, theirs) = (e.finish_state(), restored.finish_state());
            assert_eq!(closed_output(ours, width), closed_output(theirs, width));
        }
    }

    #[test]
    fn restore_refuses_closed_groups_out_of_order() {
        let mut e = Engine::new(golden_query());
        e.keep_closed_state();
        e.process_packets(&golden_stream());
        let blob = e.checkpoint().expect("checkpoint");
        assert!(Engine::restore(golden_query(), &blob).is_ok());
        // The closed section: a group count, the framed decay, then
        // `(bucket, key, framed state)` per group.
        let mut section = Vec::new();
        put_closed(&mut section, e.closed.as_deref().expect("state mode")).expect("section");
        let at = (blob.windows(section.len()))
            .rposition(|w| w == section)
            .expect("the section in the checkpoint");
        let word = |at: usize| u64::from_le_bytes(blob[at..at + 8].try_into().expect("8 bytes"));
        let bucket = at + 16 + word(at + 8) as usize;
        let first_key = bucket + 8;
        let second = first_key + 16 + word(first_key + 8) as usize;
        assert_eq!(word(second), word(bucket), "two groups of one bucket");
        let refused = |at: usize, value: u64| {
            let mut bad = blob.clone();
            bad[at..at + 8].copy_from_slice(&value.to_le_bytes());
            Engine::restore(golden_query(), &bad).is_err()
        };
        // A key repeated, or above the next one, in a bucket.
        assert!(refused(second + 8, word(first_key)));
        assert!(refused(first_key, word(second + 8) + 1));
        // A bucket after a newer one.
        assert!(refused(bucket, word(bucket) + 1));
    }

    #[test]
    fn a_closed_section_reads_only_under_its_own_g() {
        let under = |spec: &str| Query {
            aggregate: crate::aggregators::fwd_avg_factory(
                spec.parse::<fd_core::decay::AnyDecay>()
                    .expect("decay spec"),
                |p| p.len as f64,
            ),
            ..moving_query()
        };
        let mut e = Engine::new(under("exp:10"));
        e.keep_closed_state();
        e.process_packets(&moving_stream(400));
        let mut section = Vec::new();
        put_closed(&mut section, e.closed.as_deref().expect("state mode")).expect("section");
        let read = |spec: &str| {
            let q = under(spec);
            let mut r = fd_core::checkpoint::Reader::new(&section);
            q.aggregate
                .group_store(&q)
                .read_closed(&mut r)
                .map(|runs| runs.len())
        };
        assert!(read("exp:10").is_ok_and(|runs| runs >= 2));
        let refused = read("exp:20").err().expect("a section under another g");
        assert!(refused.to_string().contains("another decay g"), "{refused}");
    }

    /// Freezing a state-mode engine mid-stream and restoring it perturbs
    /// nothing downstream: the closed runs of both — those closed before
    /// the checkpoint included — write the same bytes and evaluate to the
    /// same rows.
    #[test]
    fn state_mode_checkpoint_roundtrip_is_transparent_mid_stream() {
        let stream = moving_stream(1_000);
        let (head, tail) = stream.split_at(stream.len() / 2);
        let mut original = Engine::new(moving_query());
        original.keep_closed_state();
        original.process_packets(head);
        assert!(
            original.closed.as_ref().is_some_and(|runs| runs.len() >= 2),
            "buckets closed before the checkpoint"
        );
        let bytes = original.checkpoint().expect("checkpoint");
        let mut restored = Engine::restore(moving_query(), &bytes).expect("restore");
        for p in tail {
            original.process(p);
            restored.process(p);
        }
        let width = original.query.bucket_micros;
        let (a, b) = (original.finish_state(), restored.finish_state());
        let ((a_bytes, a_rows), (b_bytes, b_rows)) =
            (closed_output(a, width), closed_output(b, width));
        assert!(a_rows.len() >= 7 * 8, "{} rows", a_rows.len());
        assert!(a_bytes == b_bytes, "closed sections differ");
        assert_eq!(a_rows, b_rows);
        assert_eq!(original.stats(), restored.stats());
    }

    #[test]
    fn empty_stream_produces_no_rows() {
        for q in count_queries(true) {
            let mut e = Engine::new(q);
            assert!(e.finish().is_empty());
            assert_eq!(e.stats().buckets_closed, 0);
            assert!(e.space_per_group().is_none());
        }
    }
}
