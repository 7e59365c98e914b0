//! The store's bytes — the one module that names a magic, a record kind or
//! a field order. DESIGN.md's *Store format* table describes the layouts;
//! this file is the reference.
//!
//! The reader accepts exactly what the writer writes. A store holds two
//! framed logs ([`fd_core::checkpoint::put_frame`]: `[len][crc32][payload]`)
//! — the per-shard WAL of **epoch** records and the control log of
//! **commit** records — and three whole-file images
//! (`[magic][len][crc32][payload]`): the `FDM3` manifest, `FDK1`
//! checkpoints and `FDC1` closed-deltas. A CRC-valid record that is not one
//! of these was written by another build of this engine — earlier commits
//! of this repository wrote `FDM1` and `FDM2` manifests (the latter beside
//! images whose cells carry their bucket's clock), kind-1/kind-2 WAL
//! records with per-shard sequence counters, and commits without producer
//! blocks — and is reported as [`Decoded::Unsupported`], naming what was
//! found, so recovery refuses the store instead of truncating it as a torn
//! tail.

use fd_core::checkpoint::{crc32, read_frame, Decode, Encode, Frame, Reader};

use super::err;
use crate::tuple::{Micros, Packet, Proto};

/// File-type magics ("FDK1" / "FDC1" / "FDM3", little-endian).
const MAGIC_CKPT: u32 = 0x314B_4446;
const MAGIC_CLOSED: u32 = 0x3143_4446;
const MAGIC_MANIFEST: u32 = 0x334D_4446;

/// The control log's one record kind.
const KIND_COMMIT: u8 = 3;
/// The WAL's one record kind: a sealed epoch's packets for one shard and
/// the sender's watermark as of the seal.
const KIND_EPOCH: u8 = 4;

/// Smallest possible encoded packet — bounds the claimed packet count of
/// an epoch record before allocating for it.
const MIN_PACKET_BYTES: usize = 11;
/// Encoded size of one [`ProducerCommit`], bounding a claimed block count.
const PRODUCER_BLOCK_BYTES: usize = 7 * 8;
/// Encoded size of one [`ShardManifest`].
const MANIFEST_ROW_BYTES: usize = 3 * 8;

/// What a log decoder made of one CRC-valid payload.
#[derive(Debug)]
pub(super) enum Decoded<T> {
    Record(T),
    /// Not a whole record: the log ends before it.
    Torn,
    /// A whole record this engine cannot resume from; the text names it.
    Unsupported(String),
}

/// The refusal text for a record or file `build` ("an older", "another")
/// of this engine wrote.
fn refusal(what: impl std::fmt::Display, build: &str) -> String {
    format!("{what}: written by {build} build of this engine, and there is no upgrade path")
}

fn foreign<T>(what: impl std::fmt::Display, build: &str) -> Decoded<T> {
    Decoded::Unsupported(refusal(what, build))
}

/// LEB128: 7 value bits per byte, high bit = continuation.
fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn read_uvarint(r: &mut Reader<'_>) -> Option<u64> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let b = u8::take(r).ok()?;
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            // The 10th byte carries only the top bit of a u64.
            if shift == 63 && b > 1 {
                return None;
            }
            return Some(v);
        }
    }
    None
}

fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encodes one packet, delta-compressed against the previous packet's
/// timestamp within the same epoch record (`prev_ts`, 0 at record start).
///
/// At streaming rates consecutive timestamps differ by microseconds, so
/// the zigzag-varint delta is 1-2 bytes where the absolute `ts` costs 8
/// (wrapping arithmetic keeps out-of-order and arbitrary `u64` pairs
/// exact). Fields that are near-uniform in practice — `src_ip`, the
/// ports — stay fixed-width, where a varint would *grow* them. The
/// point is writer-thread economy, not archival compression: WAL bytes
/// are CRC'd, copied, and written per batch, and on small hosts that
/// work time-shares cores with dispatch (see the `durability_overhead`
/// bench), so ~2x fewer bytes is ~2x less interference.
fn put_packet(out: &mut Vec<u8>, p: &Packet, prev_ts: &mut u64) {
    put_uvarint(out, zigzag(p.ts.wrapping_sub(*prev_ts) as i64));
    *prev_ts = p.ts;
    p.src_ip.put(out);
    put_uvarint(out, u64::from(p.dst_ip));
    out.extend_from_slice(&p.src_port.to_le_bytes());
    out.extend_from_slice(&p.dst_port.to_le_bytes());
    let proto = match p.proto {
        Proto::Tcp => 0u64,
        Proto::Udp => 1,
    };
    put_uvarint(out, (u64::from(p.len) << 1) | proto);
}

fn read_packet(r: &mut Reader<'_>, prev_ts: &mut u64) -> Option<Packet> {
    let ts = prev_ts.wrapping_add(unzigzag(read_uvarint(r)?) as u64);
    *prev_ts = ts;
    let src_ip = u32::take(r).ok()?;
    let dst_ip = u32::try_from(read_uvarint(r)?).ok()?;
    let src_port = u16::from_le_bytes(r.bytes(2).ok()?.try_into().ok()?);
    let dst_port = u16::from_le_bytes(r.bytes(2).ok()?.try_into().ok()?);
    let len_proto = read_uvarint(r)?;
    let len = u32::try_from(len_proto >> 1).ok()?;
    let proto = if len_proto & 1 == 0 {
        Proto::Tcp
    } else {
        Proto::Udp
    };
    Some(Packet {
        ts,
        src_ip,
        dst_ip,
        src_port,
        dst_port,
        len,
        proto,
    })
}

/// A WAL record reconstructed during recovery, ready to preload a shard's
/// queue: one epoch's packets for the shard (possibly none) and the
/// sender's watermark as of the seal.
#[derive(Debug, PartialEq)]
pub(crate) struct ReplayMsg {
    pub seq: u64,
    pub wm: Micros,
    pub pkts: Vec<Packet>,
}

/// Encodes one epoch record: `kind, seq, wm, n, n packets`.
pub(super) fn encode_epoch(out: &mut Vec<u8>, seq: u64, wm: Micros, pkts: &[Packet]) {
    out.push(KIND_EPOCH);
    seq.put(out);
    wm.put(out);
    (pkts.len() as u32).put(out);
    let mut prev_ts = 0u64;
    for p in pkts {
        put_packet(out, p, &mut prev_ts);
    }
}

pub(super) fn decode_epoch(payload: &[u8]) -> Decoded<ReplayMsg> {
    let mut r = Reader::new(payload);
    let body = |r: &mut Reader<'_>| {
        let seq = u64::take(r).ok()?;
        let wm = u64::take(r).ok()?;
        let n = u32::take(r).ok()? as usize;
        // Variable-width packets: bound the claimed count by what the
        // payload could possibly hold before allocating for it, and
        // demand the record is consumed exactly.
        if n > r.remaining() / MIN_PACKET_BYTES {
            return None;
        }
        let mut pkts = Vec::with_capacity(n);
        let mut prev_ts = 0u64;
        for _ in 0..n {
            pkts.push(read_packet(r, &mut prev_ts)?);
        }
        r.is_empty().then_some(ReplayMsg { seq, wm, pkts })
    };
    match u8::take(&mut r) {
        Ok(KIND_EPOCH) => body(&mut r).map_or(Decoded::Torn, Decoded::Record),
        Ok(1) => foreign(
            "a kind-1 WAL record (a batch without a watermark)",
            "an older",
        ),
        Ok(2) => foreign("a kind-2 WAL record (a punctuation)", "an older"),
        Ok(kind) => foreign(format!("a kind-{kind} record in a WAL segment"), "another"),
        Err(_) => Decoded::Torn,
    }
}

/// One ingress handle's admission state frozen into a commit: everything
/// the resume needs to rebuild the handle bit-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ProducerCommit {
    /// Handle-local watermark, µs.
    pub watermark: Micros,
    /// Handle-local `closed_below` (bucket index).
    pub closed_below: u64,
    /// Handle-local round-robin shard cursor.
    pub rr: u64,
    /// Epochs sealed so far (the handle's local epoch counter `k`; its
    /// next per-shard seq is `k·P + p + 1`).
    pub epochs: u64,
    /// Handle-local admission counters.
    pub tuples_in: u64,
    pub filtered: u64,
    pub late_drops: u64,
}

impl ProducerCommit {
    fn fields(&self) -> [u64; 7] {
        [
            self.watermark,
            self.closed_below,
            self.rr,
            self.epochs,
            self.tuples_in,
            self.filtered,
            self.late_drops,
        ]
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let mut f = [0u64; 7];
        for v in &mut f {
            *v = u64::take(r).ok()?;
        }
        let [watermark, closed_below, rr, epochs, tuples_in, filtered, late_drops] = f;
        Some(Self {
            watermark,
            closed_below,
            rr,
            epochs,
            tuples_in,
            filtered,
            late_drops,
        })
    }
}

/// A control-log commit record: where the input stream stands and
/// everything needed to resume admission bit-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CommitState {
    /// Input events (packets) fed so far — the re-feed point.
    pub position: u64,
    /// Highest WAL sequence assigned per shard at commit time. Every shard
    /// sees every epoch, so each entry is the epochs sealed so far.
    pub hi: Vec<u64>,
    /// Per-producer ingress state, one block per ingress handle; empty
    /// only in the baseline of a store that never committed.
    pub producers: Vec<ProducerCommit>,
}

impl CommitState {
    /// The commit of `producers`' state at input `position`.
    pub(crate) fn new(position: u64, n_shards: usize, producers: Vec<ProducerCommit>) -> Self {
        Self {
            position,
            hi: vec![Self::epochs(&producers); n_shards],
            producers,
        }
    }

    /// Σ epochs, every shard's `hi`; wrapping, so hostile blocks cannot overflow.
    fn epochs(producers: &[ProducerCommit]) -> u64 {
        producers.iter().fold(0, |e, p| e.wrapping_add(p.epochs))
    }

    /// The newest producer watermark, µs.
    pub(crate) fn watermark(&self) -> Micros {
        self.producers
            .iter()
            .map(|p| p.watermark)
            .max()
            .unwrap_or(0)
    }

    /// The six header words after `position` — watermark, `closed_below`,
    /// the coordinator's rotation cursor and the admission counters —
    /// all aggregates of the producer blocks, which are what a resume
    /// restores from.
    fn aggregates(&self) -> [u64; 6] {
        let ps = &self.producers;
        let sum = |f: fn(&ProducerCommit) -> u64| ps.iter().map(f).fold(0, u64::wrapping_add);
        [
            self.watermark(),
            ps.iter().map(|p| p.closed_below).min().unwrap_or(0),
            Self::epochs(ps) % ps.len().max(1) as u64,
            sum(|p| p.tuples_in),
            sum(|p| p.filtered),
            sum(|p| p.late_drops),
        ]
    }

    /// `kind, position, six aggregates, S, S × hi, P, P producer blocks`.
    pub(super) fn encode(&self, out: &mut Vec<u8>) {
        out.push(KIND_COMMIT);
        self.position.put(out);
        for v in self.aggregates() {
            v.put(out);
        }
        (self.hi.len() as u32).put(out);
        for &h in &self.hi {
            h.put(out);
        }
        (self.producers.len() as u32).put(out);
        for v in self.producers.iter().flat_map(ProducerCommit::fields) {
            v.put(out);
        }
    }

    pub(super) fn decode(payload: &[u8], n_shards: usize) -> Decoded<Self> {
        let mut r = Reader::new(payload);
        match u8::take(&mut r) {
            Ok(KIND_COMMIT) => {}
            Ok(kind) => {
                return foreign(
                    format!("a kind-{kind} record in the control log"),
                    "another",
                )
            }
            Err(_) => return Decoded::Torn,
        }
        let head = |r: &mut Reader<'_>| {
            let mut words = [0u64; 7];
            for v in &mut words {
                *v = u64::take(r).ok()?;
            }
            let n = u32::take(r).ok()? as usize;
            if n > r.remaining() / 8 {
                return None;
            }
            let hi = (0..n)
                .map(|_| u64::take(r).ok())
                .collect::<Option<Vec<u64>>>()?;
            Some((words, hi))
        };
        let Some((words, hi)) = head(&mut r) else {
            return Decoded::Torn;
        };
        if r.is_empty() {
            return foreign("a commit record without producer blocks", "an older");
        }
        let blocks = |r: &mut Reader<'_>| {
            let n = u32::take(r).ok()? as usize;
            if n == 0 || n > r.remaining() / PRODUCER_BLOCK_BYTES {
                return None;
            }
            let ps = (0..n)
                .map(|_| ProducerCommit::decode(r))
                .collect::<Option<Vec<_>>>()?;
            r.is_empty().then_some(ps)
        };
        let Some(producers) = blocks(&mut r) else {
            return Decoded::Torn;
        };
        let c = Self {
            position: words[0],
            hi,
            producers,
        };
        let epochs = Self::epochs(&c.producers);
        if let Some(h) = c.hi.iter().find(|&&h| h != epochs) {
            return foreign(
                format!(
                    "a commit record covering seq {h} of a shard whose producers sealed \
                     {epochs} epochs (per-shard sequence counters)"
                ),
                "an older",
            );
        }
        if words[1..] != c.aggregates() {
            return foreign(
                "a commit record whose header disagrees with its producer blocks",
                "another",
            );
        }
        if c.hi.len() != n_shards {
            return Decoded::Unsupported(format!(
                "a commit record for {} shards but the engine has {n_shards} \
                 (shard count cannot change across restarts)",
                c.hi.len()
            ));
        }
        Decoded::Record(c)
    }
}

/// Starts a `[magic][len][crc32][payload]` file image in `out`: the
/// payload is appended in place — no staging copy — and [`seal`] fills in
/// the frame header.
fn begin_image(out: &mut Vec<u8>, magic: u32) {
    out.clear();
    magic.put(out);
    0u64.put(out);
}

/// Completes a file image begun by [`begin_ckpt`], [`begin_closed_delta`]
/// or [`Manifest::encode`].
pub(super) fn seal(image: &mut [u8]) {
    let len = (image.len() - 12) as u32;
    let crc = crc32(&image[12..]);
    image[4..8].copy_from_slice(&len.to_le_bytes());
    image[8..12].copy_from_slice(&crc.to_le_bytes());
}

/// The payload of a whole-file image: `None` on a wrong magic, a torn
/// frame, or bytes past the frame.
fn image_payload(data: &[u8], magic: u32) -> Option<&[u8]> {
    if data.get(..4)? != magic.to_le_bytes() {
        return None;
    }
    match read_frame(&data[4..]) {
        Frame::Complete { payload, consumed } if 4 + consumed == data.len() => Some(payload),
        _ => None,
    }
}

/// Starts an `FDK1` checkpoint image — `seq`, then the engine blob, which
/// the caller appends before [`seal`].
pub(super) fn begin_ckpt(out: &mut Vec<u8>, seq: u64) {
    begin_image(out, MAGIC_CKPT);
    seq.put(out);
}

/// A checkpoint file's `(covered seq, engine blob)`; `None` on any damage.
pub(super) fn parse_ckpt(data: &[u8]) -> Option<(u64, &[u8])> {
    let payload = image_payload(data, MAGIC_CKPT)?;
    let mut r = Reader::new(payload);
    Some((u64::take(&mut r).ok()?, r.bytes(r.remaining()).ok()?))
}

/// Starts an `FDC1` closed-delta image — `index, seq`, then the engine's
/// closed-group section ([`crate::groups::put_closed`], which
/// leads with its group count), appended by the caller before [`seal`].
pub(super) fn begin_closed_delta(out: &mut Vec<u8>, index: u64, seq: u64) {
    begin_image(out, MAGIC_CLOSED);
    index.put(out);
    seq.put(out);
}

/// A closed-delta's `(hand-off seq, group count, closed-group section)`;
/// `None` on any damage, or when the file is not delta number `index`.
pub(super) fn parse_closed_delta(data: &[u8], index: u64) -> Option<(u64, u64, &[u8])> {
    let mut r = Reader::new(image_payload(data, MAGIC_CLOSED)?);
    if u64::take(&mut r).ok()? != index {
        return None;
    }
    let seq = u64::take(&mut r).ok()?;
    let section = r.bytes(r.remaining()).ok()?;
    Some((seq, u64::take(&mut Reader::new(section)).ok()?, section))
}

/// One shard's row of the [`Manifest`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) struct ShardManifest {
    /// Which `ckpt-<shard>-<version>.bin` is current (`0` = none yet).
    pub ckpt_version: u64,
    /// The WAL seq that checkpoint covers.
    pub covered: u64,
    /// How many closed-deltas go with it (`closed-<shard>-1..=n`).
    pub closed_deltas: u64,
}

/// The `MANIFEST`: what of the directory is current. Recovery returns the
/// one it found and the writer advances it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct Manifest {
    pub version: u64,
    pub shards: Vec<ShardManifest>,
}

impl Manifest {
    /// A store that has not committed a manifest yet: zero coverage.
    pub(super) fn fresh(n_shards: usize) -> Self {
        Self {
            version: 0,
            shards: vec![ShardManifest::default(); n_shards],
        }
    }

    /// The sealed `FDM3` image: `version, S, S × (ckpt version, covered
    /// seq, closed-delta count)`.
    pub(super) fn encode(&self, out: &mut Vec<u8>) {
        begin_image(out, MAGIC_MANIFEST);
        self.version.put(out);
        (self.shards.len() as u32).put(out);
        for m in &self.shards {
            m.ckpt_version.put(out);
            m.covered.put(out);
            m.closed_deltas.put(out);
        }
        seal(out);
    }

    pub(super) fn decode(data: &[u8]) -> Result<Self, fd_core::Error> {
        let older = [
            (
                b"FDM1",
                "MANIFEST has the FDM1 layout (no closed-delta counts)",
            ),
            (
                b"FDM2",
                "MANIFEST is FDM2 (cells written under their bucket's clock)",
            ),
        ];
        if let Some((_, what)) = older.iter().find(|(magic, _)| data.starts_with(*magic)) {
            return Err(err(refusal(what, "an older")));
        }
        let bad = |why: &str| err(format!("MANIFEST is unreadable ({why})"));
        let payload = image_payload(data, MAGIC_MANIFEST)
            .ok_or_else(|| bad("bad magic, or a torn or oversized frame"))?;
        let mut r = Reader::new(payload);
        let body = |r: &mut Reader<'_>| {
            let version = u64::take(r).ok()?;
            let n = u32::take(r).ok()? as usize;
            if n > r.remaining() / MANIFEST_ROW_BYTES {
                return None;
            }
            let mut shards = Vec::with_capacity(n);
            for _ in 0..n {
                shards.push(ShardManifest {
                    ckpt_version: u64::take(r).ok()?,
                    covered: u64::take(r).ok()?,
                    closed_deltas: u64::take(r).ok()?,
                });
            }
            Some(Self { version, shards })
        };
        let m = body(&mut r).ok_or_else(|| bad("truncated payload"))?;
        if !r.is_empty() {
            return Err(bad("trailing bytes"));
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use Proto::{Tcp, Udp};

    /// `tests/data/durable_records.hex`: one of each thing a store holds,
    /// as the parent of the commit that introduced this module encoded it.
    fn golden(name: &str) -> Vec<u8> {
        let pinned = include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/data/durable_records.hex"
        ));
        let line = pinned.lines().find_map(|l| l.strip_prefix(name));
        let hex = line.expect("a pinned record").trim();
        (0..hex.len() / 2)
            .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).expect("hex"))
            .collect()
    }

    fn encoded(write: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut out = Vec::new();
        write(&mut out);
        out
    }

    /// A sealed file image: what `begin` starts, then `body`.
    fn image(begin: impl FnOnce(&mut Vec<u8>), body: &[u8]) -> Vec<u8> {
        let mut image = encoded(begin);
        image.extend_from_slice(body);
        seal(&mut image);
        image
    }

    fn record<T>(d: Decoded<T>) -> Option<T> {
        match d {
            Decoded::Record(rec) => Some(rec),
            Decoded::Torn | Decoded::Unsupported(_) => None,
        }
    }

    #[test]
    fn golden_records_encode_to_the_pinned_bytes_and_decode_back() {
        let pkt = |ts, src_ip, dst_ip, src_port, dst_port, len, proto| Packet {
            ts,
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            len,
            proto,
        };
        let e = ReplayMsg {
            seq: 17,
            wm: 42_000_000,
            pkts: vec![
                pkt(41_999_000, 0xC0A8_0001, 0x0A00_0001, 54321, 443, 1500, Udp),
                // Out of order: the ts delta goes negative.
                pkt(41_000_000, 0, u32::MAX, 0, u16::MAX, u32::MAX, Tcp),
                pkt(42_000_000, 7, 300, 80, 8080, 40, Tcp),
            ],
        };
        let bytes = encoded(|out| encode_epoch(out, e.seq, e.wm, &e.pkts));
        assert_eq!(bytes, golden("epoch"));
        assert_eq!(record(decode_epoch(&bytes)), Some(e));

        let block =
            |[watermark, closed_below, rr, epochs, tuples_in, filtered, late_drops]: [u64; 7]| {
                ProducerCommit {
                    watermark,
                    closed_below,
                    rr,
                    epochs,
                    tuples_in,
                    filtered,
                    late_drops,
                }
            };
        let blocks = [
            [90_000_000, 8, 0, 4, 2_600, 9, 1],
            [88_000_000, 7, 1, 3, 1_400, 3, 2],
        ];
        let c = CommitState::new(4_000, 2, blocks.map(block).to_vec());
        assert_eq!(c.hi, [7, 7], "every shard saw every epoch");
        let bytes = encoded(|out| c.encode(out));
        assert_eq!(bytes, golden("commit"));
        assert_eq!(record(CommitState::decode(&bytes, 2)), Some(c));

        let row = |[ckpt_version, covered, closed_deltas]: [u64; 3]| ShardManifest {
            ckpt_version,
            covered,
            closed_deltas,
        };
        let m = Manifest {
            version: 5,
            shards: [[3, 21, 2], [2, 19, 0]].map(row).to_vec(),
        };
        let bytes = encoded(|out| m.encode(out));
        assert_eq!(bytes, golden("manifest"));
        assert_eq!(Manifest::decode(&bytes).expect("decode"), m);

        let blob: Vec<u8> = (0u8..40).map(|i| i.wrapping_mul(7)).collect();
        let bytes = image(|out| begin_ckpt(out, 21), &blob);
        assert_eq!(bytes, golden("ckpt"));
        assert_eq!(parse_ckpt(&bytes), Some((21, &blob[..])));

        // The section is the engine's: its group count, then the groups.
        let mut section = 2u64.to_le_bytes().to_vec();
        section.extend((0u8..24).map(|i| 0xA0 ^ i));
        let bytes = image(|out| begin_closed_delta(out, 2, 20), &section);
        assert_eq!(bytes, golden("closed"));
        assert_eq!(parse_closed_delta(&bytes, 2), Some((20, 2, &section[..])));
        assert_eq!(parse_closed_delta(&bytes, 3), None, "not delta number 3");
    }

    #[test]
    fn only_what_another_build_wrote_is_unsupported() {
        // An empty payload (a zero-filled tail reads as zero-length frames)
        // and a bare kind byte are torn tails, not refusals …
        assert!(matches!(decode_epoch(&[]), Decoded::Torn));
        assert!(matches!(decode_epoch(&[KIND_EPOCH]), Decoded::Torn));
        assert!(matches!(
            CommitState::decode(&[KIND_COMMIT], 2),
            Decoded::Torn
        ));
        // … while a whole commit of another shard count, or one whose
        // header is not what its producer blocks add up to, is named.
        // (`recover`'s tests drive the other marks through a real open.)
        let named = |d: Decoded<CommitState>, mark: &str| match d {
            Decoded::Unsupported(what) => assert!(what.contains(mark), "{what}"),
            other => panic!("expected a refusal naming {mark:?}, got {other:?}"),
        };
        let mut bytes = golden("commit");
        named(CommitState::decode(&bytes, 3), "shard count cannot change");
        bytes[1 + 8] ^= 1; // the watermark word
        named(
            CommitState::decode(&bytes, 2),
            "disagrees with its producer blocks",
        );
    }

    #[test]
    fn uvarint_roundtrips_and_rejects_overlong() {
        for v in [0u64, 1, 127, 128, 300, 16_383, 16_384, u64::MAX] {
            let buf = encoded(|out| put_uvarint(out, v));
            let mut r = Reader::new(&buf);
            assert_eq!(read_uvarint(&mut r), Some(v), "value {v}");
            assert!(r.is_empty());
        }
        // 10 continuation bytes (no terminator within a u64's width) and a
        // 10th byte carrying more than the top bit both decode to None.
        let mut r = Reader::new(&[0x80u8; 10]);
        assert_eq!(read_uvarint(&mut r), None);
        let mut overflow = [0x80u8; 10];
        overflow[9] = 0x02;
        let mut r = Reader::new(&overflow);
        assert_eq!(read_uvarint(&mut r), None);
    }

    /// A decoder under test: its name, a valid input, whether that is a
    /// sealed file image (mutations are then also tried re-sealed, or the
    /// checksum is all they meet), and the decoder — the re-encoding of
    /// what it accepted, `None` if it refused.
    type Case = (&'static str, Vec<u8>, bool, fn(&[u8]) -> Option<Vec<u8>>);

    /// A decoder that reads from the head of a buffer accepts an input
    /// only if it consumed all of it.
    fn whole<T>(bytes: &[u8], read: impl FnOnce(&mut Reader<'_>) -> Option<T>) -> Option<T> {
        let mut r = Reader::new(bytes);
        read(&mut r).filter(|_| r.is_empty())
    }

    fn cases() -> Vec<Case> {
        vec![
            ("decode_epoch", golden("epoch"), false, |b| {
                let e = record(decode_epoch(b))?;
                Some(encoded(|out| encode_epoch(out, e.seq, e.wm, &e.pkts)))
            }),
            ("CommitState::decode", golden("commit"), false, |b| {
                let c = record(CommitState::decode(b, 2))?;
                Some(encoded(|out| c.encode(out)))
            }),
            ("Manifest::decode", golden("manifest"), true, |b| {
                let m = Manifest::decode(b).ok()?;
                Some(encoded(|out| m.encode(out)))
            }),
            ("parse_ckpt", golden("ckpt"), true, |b| {
                let (seq, blob) = parse_ckpt(b)?;
                Some(image(|out| begin_ckpt(out, seq), blob))
            }),
            ("parse_closed_delta", golden("closed"), true, |b| {
                let (seq, _, section) = parse_closed_delta(b, 2)?;
                Some(image(|out| begin_closed_delta(out, 2, seq), section))
            }),
            (
                "read_uvarint",
                encoded(|out| put_uvarint(out, u64::MAX - 5)),
                false,
                |b| {
                    let v = whole(b, read_uvarint)?;
                    Some(encoded(|out| put_uvarint(out, v)))
                },
            ),
            (
                "read_packet",
                golden("epoch")[21..39].to_vec(), // its first packet
                false,
                |b| {
                    let p = whole(b, |r| read_packet(r, &mut 0))?;
                    Some(encoded(|out| put_packet(out, &p, &mut 0)))
                },
            ),
        ]
    }

    #[test]
    fn decoders_survive_seeded_mutation() {
        let seed = crate::fault::env_seed().unwrap_or(0xC0DEC);
        for (name, valid, image, decode) in cases() {
            assert_eq!(
                decode(&valid).as_ref(),
                Some(&valid),
                "{name}: the valid input"
            );
            // A record is exactly its bytes: no strict prefix of it and no
            // extension by trailing bytes is one too.
            for cut in 0..valid.len() {
                assert_eq!(decode(&valid[..cut]), None, "{name}: prefix of {cut} bytes");
            }
            for extra in 1..=9 {
                let mut longer = valid.clone();
                longer.resize(valid.len() + extra, 0);
                assert_eq!(decode(&longer), None, "{name}: {extra} trailing bytes");
            }
            // Never a panic, never an allocation sized by an unchecked
            // count (the inflated ones below would abort the test), and
            // whatever is accepted re-encodes.
            let mut rng = SmallRng::seed_from_u64(seed ^ name.len() as u64);
            for round in 0..2_000 {
                let mut bytes = valid.clone();
                for _ in 0..rng.gen_range(1..=3) {
                    let at = rng.gen_range(0..bytes.len().max(1));
                    match rng.gen_range(0..4) {
                        0 => bytes.truncate(at),
                        1 => bytes.extend((0..=at % 17).map(|_| rng.gen::<u8>())),
                        2 if !bytes.is_empty() => bytes[at] ^= 1u8 << rng.gen_range(0..8),
                        _ => {
                            // Inflate what may be a count or a length.
                            let huge = [u32::MAX, 1 << 31, 0x00FF_FFFF][round % 3];
                            for (b, h) in bytes[at..].iter_mut().zip(huge.to_le_bytes()) {
                                *b = h;
                            }
                        }
                    }
                }
                if image && bytes.len() >= 12 && rng.gen() {
                    seal(&mut bytes);
                }
                let _ = decode(&bytes);
            }
        }
    }
}
