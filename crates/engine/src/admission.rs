//! Admission: selection, the group and bucket, the late check, the
//! watermark advance and the close frontier they are judged against,
//! decided by this one type in [`Engine`], every [`IngressHandle`] and so
//! each shard worker. A worker's frontier is the least watermark over its
//! producers (a closed one counts as `∞`), the current producer's
//! advancing tuple by tuple, so it never passes the handle that admitted a
//! tuple.

use crate::engine::EngineStats;
use crate::groups::Admitted;
use crate::tuple::{bucket_end, bucket_start, Micros, Packet};
use crate::udaf::{Filter, KeyFn, Query};
#[cfg(doc)]
use crate::{engine::Engine, shard::IngressHandle};

/// The admission state of one query instance; see the module docs.
pub(crate) struct Admission {
    filter: Option<Filter>,
    group_by: KeyFn,
    width: Micros,
    slack: Micros,
    /// The largest timestamp the current producer has admitted or
    /// punctuated.
    pub(crate) watermark: Micros,
    /// Every producer's watermark as of its last epoch (`MAX` once its
    /// queue closed); the current producer's runs in `watermark` instead.
    /// Empty for a lone producer.
    producers: Vec<Micros>,
    /// The producer whose epoch is being admitted.
    own: usize,
    /// The least of the other producers' watermarks: `MAX` without any.
    cap: Micros,
    /// Buckets at ids below this are closed.
    closed_below: u64,
    /// The watermark at which a close is due: bucket `closed_below`'s end
    /// plus the slack, saturating, or `MAX` while `cap` is short of it.
    /// Below it nothing closes, so the per-tuple check is one compare.
    next_close: Micros,
    /// The bucket of the last admitted tuple and its start. Consecutive
    /// tuples mostly share a bucket, so a range check against these spares
    /// the division.
    cur_bucket: u64,
    cur_start: Micros,
    /// `tuples_in`, `filtered` and `late_drops` are admission's; an
    /// [`Engine`]'s closes count into the rest.
    pub(crate) stats: EngineStats,
}

impl Admission {
    pub(crate) fn new(query: &Query) -> Self {
        let mut adm = Self {
            filter: query.filter.clone(),
            group_by: query.group_by.clone(),
            width: query.bucket_micros,
            slack: query.slack_micros,
            watermark: 0,
            producers: Vec::new(),
            own: 0,
            cap: Micros::MAX,
            closed_below: 0,
            next_close: 0,
            cur_bucket: 0,
            cur_start: 0,
            stats: EngineStats::default(),
        };
        adm.set_closed_below(0);
        adm
    }

    /// Applies the selection, finds the tuple's bucket, drops it if that
    /// bucket has closed, advances the watermark. Returns its group and
    /// bucket, for the tuple at `index` of its batch. The caller counts
    /// what it offers into `stats.tuples_in`, once per batch: counted here,
    /// it is a load and a store per tuple, which slowed the ingress loop
    /// by ~4 %.
    #[inline]
    pub(crate) fn admit(&mut self, pkt: &Packet, index: usize) -> Option<Admitted> {
        if self.filter.as_ref().is_some_and(|f| !f(pkt)) {
            self.stats.filtered += 1;
            return None;
        }
        // In `[cur_start, cur_start + width)`? The wrapping difference is
        // huge for a timestamp before `cur_start`, so one compare decides
        // and nothing can overflow.
        if pkt.ts.wrapping_sub(self.cur_start) >= self.width {
            self.cur_bucket = pkt.ts / self.width;
            self.cur_start = bucket_start(self.cur_bucket, self.width);
        }
        if self.cur_bucket < self.closed_below {
            self.stats.late_drops += 1;
            return None;
        }
        self.watermark = self.watermark.max(pkt.ts);
        Some(Admitted {
            key: (self.group_by)(pkt),
            bucket: self.cur_bucket,
            bucket_start: self.cur_start,
            index,
        })
    }

    /// Whether the frontier may have passed the next bucket's end plus
    /// the slack.
    #[inline]
    pub(crate) fn due(&self) -> bool {
        self.watermark >= self.next_close
    }

    /// The least watermark of any producer: what closes are judged by.
    pub(crate) fn frontier(&self) -> Micros {
        self.watermark.min(self.cap)
    }

    /// Moves the close frontier up to where the watermarks put it, if a
    /// close is [`due`](Self::due) — the one place a close target is
    /// computed from a watermark. Returns the new `closed_below` when it
    /// rose: every bucket below it is now closed.
    pub(crate) fn close(&mut self) -> Option<u64> {
        if !self.due() {
            return None;
        }
        let target = self.frontier().saturating_sub(self.slack) / self.width;
        // Only a saturated `next_close` lets a watermark through that
        // closes nothing.
        (target > self.closed_below).then(|| {
            self.set_closed_below(target);
            target
        })
    }

    /// Advances the watermark as a punctuation does, then
    /// [`close`](Self::close)s.
    pub(crate) fn punctuate(&mut self, ts: Micros) -> Option<u64> {
        self.watermark = self.watermark.max(ts);
        self.close()
    }

    pub(crate) fn closed_below(&self) -> u64 {
        self.closed_below
    }

    pub(crate) fn set_closed_below(&mut self, closed_below: u64) {
        self.closed_below = closed_below;
        let due = bucket_end(closed_below, self.width).saturating_add(self.slack);
        self.next_close = if due <= self.cap { due } else { Micros::MAX };
    }

    /// Judges closes by the minimum over `n` producers from now on, every
    /// watermark starting at 0: after a respawn they rebuild from the
    /// epochs re-read, which is conservative. One producer changes
    /// nothing.
    pub(crate) fn track_producers(&mut self, n: usize) {
        if n > 1 {
            (self.producers, self.own, self.watermark, self.cap) = (vec![0; n], 0, 0, 0);
            self.set_closed_below(self.closed_below);
        }
    }

    /// Admits producer `p`'s epoch next: its watermark runs, the others'
    /// cap the frontier.
    pub(crate) fn begin_epoch(&mut self, p: usize) {
        if p == self.own || self.producers.is_empty() {
            return;
        }
        self.producers[self.own] = self.watermark;
        (self.own, self.watermark) = (p, self.producers[p]);
        let others = self.producers.iter().enumerate().filter(|&(q, _)| q != p);
        self.cap = others.map(|(_, &wm)| wm).min().unwrap_or(Micros::MAX);
        self.set_closed_below(self.closed_below);
    }

    /// Producer `p`'s queue closed: it no longer holds the frontier back.
    pub(crate) fn close_producer(&mut self, p: usize) {
        if !self.producers.is_empty() {
            self.begin_epoch(p);
            self.watermark = Micros::MAX;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregators::count_factory;
    use crate::tuple::{Proto, MICROS_PER_SEC};

    const S: Micros = MICROS_PER_SEC;

    fn query(slack: Micros) -> Query {
        let q = Query::builder("admission")
            .filter(|p| p.proto == Proto::Tcp)
            .bucket_secs(10)
            .aggregate(count_factory())
            .try_build()
            .expect("valid query");
        Query {
            slack_micros: slack,
            ..q
        }
    }

    fn pkt(ts: Micros) -> Packet {
        Packet {
            ts,
            src_ip: 1,
            dst_ip: 2,
            src_port: 3,
            dst_port: 80,
            len: 100,
            proto: Proto::Tcp,
        }
    }

    /// Admits `ts`, then closes whatever became due.
    fn offer(a: &mut Admission, ts: Micros) -> Option<u64> {
        a.stats.tuples_in += 1;
        let admitted = a.admit(&pkt(ts), 0).map(|a| a.bucket);
        a.close();
        admitted
    }

    #[test]
    fn selection_late_check_and_close_frontier() {
        let mut a = Admission::new(&query(2 * S));
        let udp = Packet {
            proto: Proto::Udp,
            ..pkt(S)
        };
        a.stats.tuples_in += 1;
        assert!(a.admit(&udp, 0).is_none());
        assert_eq!(offer(&mut a, 5 * S), Some(0));
        assert_eq!(offer(&mut a, 11 * S), Some(1));
        assert_eq!(a.closed_below(), 0, "11 s is within the slack of 10 s");
        assert_eq!(offer(&mut a, 3 * S), Some(0), "out of order, within slack");
        assert_eq!(offer(&mut a, 12 * S), Some(1));
        assert_eq!(a.closed_below(), 1);
        assert_eq!(offer(&mut a, 9 * S), None, "bucket 0 closed");
        assert_eq!(a.punctuate(5 * S), None, "punctuations never regress");
        assert_eq!(a.punctuate(32 * S), Some(3));
        assert!(!a.due());
        assert_eq!(offer(&mut a, 29 * S), None);
        let s = a.stats;
        assert_eq!((s.tuples_in, s.filtered, s.late_drops), (7, 1, 2));
    }

    #[test]
    fn the_clock_edge_neither_wraps_nor_closes_twice() {
        // The last buckets before u64::MAX, with and without slack: the
        // bucket end and the due watermark saturate, and a tuple at the
        // very end of the clock still finds its bucket.
        let last = Micros::MAX / (10 * S);
        for slack in [0, 12 * S] {
            let mut a = Admission::new(&query(slack));
            assert_eq!(offer(&mut a, Micros::MAX - 25 * S), Some(last - 2));
            assert_eq!(offer(&mut a, Micros::MAX), Some(last));
            let want = (Micros::MAX - slack) / (10 * S);
            assert_eq!(a.closed_below(), want, "slack {slack}");
            assert_eq!(offer(&mut a, Micros::MAX - 25 * S), None, "slack {slack}");
            assert!(a.due(), "a saturated next_close is due");
            assert_eq!(a.punctuate(Micros::MAX), None, "and closes nothing");
            assert_eq!(offer(&mut a, Micros::MAX), Some(last));
            assert_eq!(a.stats.late_drops, 1);
        }
    }

    #[test]
    fn the_frontier_is_the_least_producer_watermark() {
        let mut a = Admission::new(&query(0));
        a.track_producers(2);
        // Producer 1 runs ahead: nothing closes while producer 0 lags.
        a.begin_epoch(1);
        assert_eq!(offer(&mut a, 45 * S), Some(4));
        assert_eq!(a.punctuate(50 * S), None);
        assert_eq!(a.closed_below(), 0);
        // Producer 0's own tuples advance the frontier tuple by tuple,
        // up to producer 1's watermark and no further.
        a.begin_epoch(0);
        assert_eq!(offer(&mut a, 5 * S), Some(0));
        assert_eq!(offer(&mut a, 21 * S), Some(2));
        assert_eq!(a.closed_below(), 2);
        assert_eq!(offer(&mut a, 15 * S), None, "late for producer 0 too");
        assert_eq!(offer(&mut a, 70 * S), Some(7));
        assert_eq!((a.frontier(), a.closed_below()), (50 * S, 5));
        // A closed producer counts as ∞.
        a.close_producer(1);
        a.begin_epoch(0);
        assert_eq!(a.punctuate(80 * S), Some(8));
        // Alone from the start, the frontier is the watermark.
        let mut lone = Admission::new(&query(0));
        lone.track_producers(1);
        lone.begin_epoch(0);
        assert_eq!(offer(&mut lone, 45 * S), Some(4));
        assert_eq!(lone.closed_below(), 4);
    }
}
