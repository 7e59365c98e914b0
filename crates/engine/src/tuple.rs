//! The stream tuple: a network packet record, mirroring the `TCP`/`UDP`
//! stream schemas of the paper's GSQL queries.

use fd_core::Timestamp;
use serde::{Deserialize, Serialize};

/// Engine timestamps: microseconds since an arbitrary epoch — the same
/// clock as [`fd_core::Timestamp`], kept unsigned in the tuple format.
pub type Micros = u64;

/// Microseconds per second.
pub const MICROS_PER_SEC: u64 = 1_000_000;

/// Converts an engine timestamp to the workspace [`Timestamp`] clock,
/// which is signed: an instant past its end saturates there (an `as` cast
/// would wrap it to before every landmark).
#[inline]
pub fn timestamp(t: Micros) -> Timestamp {
    Timestamp::from_micros(i64::try_from(t).unwrap_or(i64::MAX))
}

/// Converts an engine timestamp to seconds (the unit fd-core decay
/// functions operate in).
#[inline]
pub fn secs(t: Micros) -> f64 {
    timestamp(t).as_secs_f64()
}

/// Start of time bucket `bucket` (`ts / width`) in microseconds. Exact for
/// an id derived from a timestamp; an id read from a checkpoint can be
/// anything, so the product saturates.
#[inline]
pub(crate) fn bucket_start(bucket: u64, width: Micros) -> Micros {
    bucket.saturating_mul(width)
}

/// End (exclusive) of time bucket `bucket`, saturating: the last bucket
/// before `u64::MAX` ends past the clock's range.
#[inline]
pub(crate) fn bucket_end(bucket: u64, width: Micros) -> Micros {
    bucket.saturating_add(1).saturating_mul(width)
}

/// Transport protocol of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Proto {
    /// TCP traffic (the main streams of Figures 2–5).
    Tcp,
    /// UDP traffic (Figures 4(b) and 4(d)).
    Udp,
}

/// One observed packet — the tuple type flowing through every query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Packet {
    /// Observation timestamp (microseconds).
    pub ts: Micros,
    /// Source IPv4 address.
    pub src_ip: u32,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Packet length in bytes.
    pub len: u32,
    /// Transport protocol.
    pub proto: Proto,
}

impl Packet {
    /// The destination (IP, port) pair packed into one group key — the
    /// grouping used by the paper's count/sum queries
    /// (`group by destIP, destPort`).
    #[inline]
    pub fn dst_key(&self) -> u64 {
        ((self.dst_ip as u64) << 16) | self.dst_port as u64
    }

    /// The destination host alone — the grouping of the heavy-hitter
    /// queries ("network hosts receiving the most TCP traffic").
    #[inline]
    pub fn dst_host(&self) -> u64 {
        self.dst_ip as u64
    }

    /// The source host (sampled in the paper's `PRISAMP(srcIP, …)` query).
    #[inline]
    pub fn src_host(&self) -> u64 {
        self.src_ip as u64
    }

    /// Observation instant on the workspace clock — exact microseconds,
    /// what fd-core summaries are fed.
    #[inline]
    pub fn timestamp(&self) -> Timestamp {
        timestamp(self.ts)
    }

    /// Timestamp in seconds.
    #[inline]
    pub fn ts_secs(&self) -> f64 {
        secs(self.ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt() -> Packet {
        Packet {
            ts: 2_500_000,
            src_ip: 0x0A00_0001,
            dst_ip: 0xC0A8_0102,
            src_port: 54321,
            dst_port: 443,
            len: 1500,
            proto: Proto::Tcp,
        }
    }

    #[test]
    fn secs_conversion() {
        assert_eq!(secs(0), 0.0);
        assert_eq!(secs(1_500_000), 1.5);
        assert_eq!(pkt().ts_secs(), 2.5);
    }

    #[test]
    fn timestamp_is_monotone_across_the_end_of_the_signed_clock() {
        let edge = i64::MAX as u64;
        let ts = [0, 1, edge - 1, edge, edge + 1, u64::MAX - 1, u64::MAX];
        for pair in ts.windows(2) {
            assert!(
                timestamp(pair[0]) <= timestamp(pair[1]),
                "{} then {} went backwards",
                pair[0],
                pair[1]
            );
        }
        assert_eq!(timestamp(edge).as_micros(), i64::MAX);
        assert_eq!(timestamp(u64::MAX).as_micros(), i64::MAX);
        assert!(secs(u64::MAX) > 0.0);
    }

    #[test]
    fn dst_key_is_injective_on_ip_port() {
        let a = pkt();
        let mut b = a;
        b.dst_port = 80;
        let mut c = a;
        c.dst_ip ^= 1;
        assert_ne!(a.dst_key(), b.dst_key());
        assert_ne!(a.dst_key(), c.dst_key());
        assert_eq!(a.dst_host(), b.dst_host());
    }

    #[test]
    fn packet_is_serializable() {
        // Compile-time check that the serde derives are usable behind
        // generic bounds (no serializer crate in the dependency tree).
        fn assert_serde<T: serde::Serialize + for<'a> serde::Deserialize<'a>>() {}
        assert_serde::<Packet>();
        assert_serde::<Proto>();
    }
}
