//! Crash-durable persistence beneath the supervised sharded engine.
//!
//! PR 4's supervision makes the engine survive *worker* crashes: each
//! worker periodically serializes its open state into an in-memory
//! [`CheckpointSlot`] and hands its newly closed buckets over with it
//! (exact, because forward decay's frozen numerators never need
//! rescaling — Section VI-B), and a respawned worker re-reads the short
//! tail its queues retain. A *process* crash still loses everything. This module
//! pushes the same artifacts to disk:
//!
//! * a **per-shard segmented WAL** of every message the dispatcher sends
//!   (batches and punctuations, CRC32-framed via
//!   [`fd_core::checkpoint::put_frame`]), plus a control log of **commit
//!   records** snapshotting the dispatcher's admission state and each
//!   shard's high sequence number at a caller-chosen stream `position`;
//! * **atomic on-disk checkpoints** of the worker slots (tmp + fsync +
//!   read-back verify + rename): the open-state snapshot as
//!   `ckpt-<shard>-<version>.bin`, replaced at every persist, and the
//!   closed groups handed off since the shard's previous persist as one
//!   write-once **closed-delta**, `closed-<shard>-<k>.bin` — each closed
//!   group reaches disk exactly once, and a persisted checkpoint is as
//!   small as the shard's open state. A versioned `MANIFEST` records, per
//!   shard, which checkpoint file is current, the WAL sequence it covers,
//!   and how many closed-deltas go with it. WAL segments wholly below the
//!   manifest coverage are garbage-collected after each manifest commit;
//!   closed-deltas the manifest names never are.
//!
//! ## Off the hot path
//!
//! The dispatcher never serializes, checksums, or touches a file: it
//! enqueues a `WalCmd` — an `Arc` clone of the batch it was already
//! sending — onto a bounded SPSC ring consumed by one **writer thread**,
//! which does everything else. Durability's dispatch-path cost is one
//! branch and one ring push per *batch* (~1024 tuples), which is how the
//! `durability_overhead` bench keeps the fsync=checkpoint configuration
//! within a few percent of the non-durable dispatch path. A full ring
//! applies backpressure instead of dropping records.
//!
//! ## Recovery model (group commit)
//!
//! `recover` loads the manifest's checkpoints and closed-deltas, scans the
//! logs, and picks the **newest commit record `C`**
//! such that, for every shard `s`,
//! `covered[s] ≤ C.hi[s] ≤ last_good_wal_seq[s]` — i.e. the checkpoint on
//! disk does not overshoot `C` and the WAL tail reaches it. Torn tails
//! (CRC or length mismatch, from a crash mid-append or injected short
//! writes) are cleanly truncated and counted, never a panic. Everything
//! beyond `C` is physically truncated, workers are restored from the
//! on-disk checkpoints and replayed through the normal batch path, the
//! dispatcher's admission state is restored from `C`, and the caller
//! re-feeds its input from `C.position` — yielding answers bit-identical
//! to an uncrashed run for deterministic queries. A store damaged *below*
//! its last commit (a corrupt manifest-referenced checkpoint, a WAL gap)
//! is an explicit [`fd_core::Error::Durability`], never a silently wrong
//! answer.
//!
//! ## Degradation ladder
//!
//! Any I/O error on the writer thread (including injected
//! [`DiskFault`](crate::fault::DiskFault)s) flips the engine to
//! **degraded durability**: the `durability_degraded` gauge goes to 1,
//! one warning is logged, and the stream continues under PR 4's
//! in-memory supervision exactly as if `--data-dir` had never been
//! passed. The store on disk is left at its last consistent commit, so a
//! later restart still recovers everything up to that point.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use fd_core::checkpoint::{crc32, put_frame, put_u32, put_u64, read_frame, Frame, Reader};

use crate::io::{IoBackend, IoFile};
use crate::spsc::{ring, BatchPool, RingReceiver, RingSender};
use crate::supervisor::CheckpointSlot;
use crate::telemetry::EngineTelemetry;
use crate::tuple::{Micros, Packet, Proto};

/// When the WAL writer calls fsync.
///
/// A `kill -9` (or OOM-kill) loses nothing that was *written* — the page
/// cache survives the process — so fsync frequency only matters for
/// power loss and kernel crashes. See the README's trade-off table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// fsync after every appended record. Maximum durability, slowest.
    EveryBatch,
    /// fsync all dirty files after every N appended records.
    EveryN(u64),
    /// fsync only when a checkpoint/manifest commits (and at clean
    /// shutdown). The default: a power loss rolls back to the last
    /// manifest commit, a process crash loses nothing.
    #[default]
    OnCheckpoint,
}

impl FsyncPolicy {
    /// Parses the CLI spelling: `batch`, `every:N` (N ≥ 1), `checkpoint`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "batch" => Some(FsyncPolicy::EveryBatch),
            "checkpoint" => Some(FsyncPolicy::OnCheckpoint),
            _ => {
                let n: u64 = s.strip_prefix("every:")?.parse().ok()?;
                if n == 0 {
                    return None;
                }
                Some(FsyncPolicy::EveryN(n))
            }
        }
    }
}

/// Configuration for [`ShardedEngine::try_durable`](crate::shard::ShardedEngine::try_durable).
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// fsync cadence (default [`FsyncPolicy::OnCheckpoint`]).
    pub fsync: FsyncPolicy,
    /// Bytes per WAL segment before rotation (default 8 MiB). Smaller
    /// segments make garbage collection finer-grained.
    pub segment_bytes: u64,
    /// The filesystem to write through (default [`StdFs`](crate::io::StdFs);
    /// tests substitute [`FaultyFs`](crate::io::FaultyFs)).
    pub io: Arc<dyn IoBackend>,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        Self {
            fsync: FsyncPolicy::OnCheckpoint,
            segment_bytes: 8 * 1024 * 1024,
            io: Arc::new(crate::io::StdFs),
        }
    }
}

/// What a recovered (or freshly created) store told the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Stream position (input events already durable) to re-feed from.
    /// `0` for a fresh store.
    pub position: u64,
    /// The dispatcher watermark restored from the chosen commit, µs.
    pub watermark: Micros,
    /// WAL batch records replayed through workers during recovery.
    pub replayed_batches: u64,
    /// Tuples inside those batches.
    pub replayed_tuples: u64,
    /// Torn/corrupt records (and unreachable segments) truncated.
    pub truncated_records: u64,
    /// `false` when the directory held no prior store.
    pub resumed: bool,
}

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

/// File-type magics ("FDK1" / "FDC1" / "FDM1" / "FDM2" little-endian).
const MAGIC_CKPT: u32 = 0x314B_4446;
const MAGIC_CLOSED: u32 = 0x3143_4446;
/// The manifest before closed-deltas existed: per shard `(checkpoint
/// version, covered seq)`. Read-only — such a store's checkpoints carry
/// their closed groups inside the snapshot, and its shards have no deltas.
const MAGIC_MANIFEST_V1: u32 = 0x314D_4446;
/// Per shard `(checkpoint version, covered seq, closed-delta count)`.
const MAGIC_MANIFEST: u32 = 0x324D_4446;

const KIND_BATCH: u8 = 1;
const KIND_PUNCT: u8 = 2;
const KIND_COMMIT: u8 = 3;
/// A batch carrying an embedded sender watermark (a fabric epoch). A
/// separate kind rather than a new field on [`KIND_BATCH`]: stores
/// written before the ingress fabric existed have watermark-less batch
/// records, and growing the old layout in place would make every one of
/// them misparse on open — classified as torn, silently truncating the
/// tail of a perfectly good store. An epoch sealed before any watermark
/// (`wm == 0`) still writes [`KIND_BATCH`]. [`KIND_PUNCT`] is read-only:
/// the pre-fabric dispatcher wrote its watermark broadcasts as such
/// records, and recovery still decodes them (as empty epochs); today a
/// watermark rides inside a batch record.
const KIND_BATCH_WM: u8 = 4;

/// Smallest possible encoded packet — used to bound the claimed packet
/// count of a batch record before allocating for it.
const MIN_PACKET_BYTES: usize = 11;

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
        let b = r.u8().ok()?;
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            // The 10th byte carries only the top bit of a u64.
            if shift == 63 && b > 1 {
                return None;
            }
            return Some(v);
        }
        if shift == 63 {
            return None;
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
/// timestamp within the same batch record (`prev_ts`, 0 at batch start).
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
    put_u32(out, p.src_ip);
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
    let src_ip = r.u32().ok()?;
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

/// The dispatcher state frozen into each control-log commit record: where
/// the input stream stands and everything needed to resume admission
/// bit-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CommitState {
    /// Input events (packets) fed so far — the re-feed point.
    pub position: u64,
    /// Dispatcher watermark, µs.
    pub watermark: Micros,
    /// Dispatcher `closed_below` (bucket index).
    pub closed_below: u64,
    /// Round-robin cursor.
    pub rr: u64,
    /// Admission counters.
    pub tuples_in: u64,
    pub filtered: u64,
    pub late_drops: u64,
    /// Highest WAL sequence assigned per shard at commit time.
    pub hi: Vec<u64>,
    /// Per-producer ingress state, one block per ingress handle. Empty
    /// only in stores written before the fabric existed — the field is
    /// appended after `hi` on the wire and only decoded when bytes remain,
    /// so legacy commits parse fine (and resume as one producer).
    pub producers: Vec<ProducerCommit>,
}

/// One ingress handle's admission state frozen into a fabric commit:
/// everything `resume_fabric` needs to rebuild the handle bit-identically.
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
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.watermark);
        put_u64(out, self.closed_below);
        put_u64(out, self.rr);
        put_u64(out, self.epochs);
        put_u64(out, self.tuples_in);
        put_u64(out, self.filtered);
        put_u64(out, self.late_drops);
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(Self {
            watermark: r.u64().ok()?,
            closed_below: r.u64().ok()?,
            rr: r.u64().ok()?,
            epochs: r.u64().ok()?,
            tuples_in: r.u64().ok()?,
            filtered: r.u64().ok()?,
            late_drops: r.u64().ok()?,
        })
    }
}

impl CommitState {
    fn zero(n_shards: usize) -> Self {
        Self {
            position: 0,
            watermark: 0,
            closed_below: 0,
            rr: 0,
            tuples_in: 0,
            filtered: 0,
            late_drops: 0,
            hi: vec![0; n_shards],
            producers: Vec::new(),
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.push(KIND_COMMIT);
        put_u64(out, self.position);
        put_u64(out, self.watermark);
        put_u64(out, self.closed_below);
        put_u64(out, self.rr);
        put_u64(out, self.tuples_in);
        put_u64(out, self.filtered);
        put_u64(out, self.late_drops);
        put_u32(out, self.hi.len() as u32);
        for &h in &self.hi {
            put_u64(out, h);
        }
        // Producer blocks ride after `hi`, where a pre-fabric commit
        // simply ends.
        if !self.producers.is_empty() {
            put_u32(out, self.producers.len() as u32);
            for p in &self.producers {
                p.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>, n_shards: usize) -> Option<Self> {
        let position = r.u64().ok()?;
        let watermark = r.u64().ok()?;
        let closed_below = r.u64().ok()?;
        let rr = r.u64().ok()?;
        let tuples_in = r.u64().ok()?;
        let filtered = r.u64().ok()?;
        let late_drops = r.u64().ok()?;
        let n = r.u32().ok()? as usize;
        if n != n_shards {
            return None;
        }
        let mut hi = Vec::with_capacity(n);
        for _ in 0..n {
            hi.push(r.u64().ok()?);
        }
        let mut producers = Vec::new();
        if !r.is_empty() {
            let np = r.u32().ok()? as usize;
            if np == 0 || np > r.remaining() / 8 {
                return None;
            }
            producers.reserve(np);
            for _ in 0..np {
                producers.push(ProducerCommit::decode(r)?);
            }
        }
        if !r.is_empty() {
            return None;
        }
        Some(Self {
            position,
            watermark,
            closed_below,
            rr,
            tuples_in,
            filtered,
            late_drops,
            hi,
            producers,
        })
    }
}

/// A WAL record reconstructed during recovery, ready to preload a shard's
/// queues.
#[derive(Debug, Clone)]
pub(crate) enum ReplayMsg {
    /// A batch of admitted packets, carrying the sender's watermark as of
    /// the batch (0 in pre-fabric stores, which punctuated via dedicated
    /// `Punct` records instead).
    Batch {
        seq: u64,
        wm: Micros,
        pkts: Vec<Packet>,
    },
    /// A watermark broadcast (pre-fabric stores only).
    Punct { seq: u64, wm: Micros },
}

impl ReplayMsg {
    fn seq(&self) -> u64 {
        match self {
            ReplayMsg::Batch { seq, .. } | ReplayMsg::Punct { seq, .. } => *seq,
        }
    }
}

fn decode_wal_record(payload: &[u8]) -> Option<ReplayMsg> {
    let mut r = Reader::new(payload);
    match r.u8().ok()? {
        kind @ (KIND_BATCH | KIND_BATCH_WM) => {
            let seq = r.u64().ok()?;
            // Legacy batches (pre-fabric stores, and epochs sealed before
            // any watermark) carry no watermark field: it is implicitly 0.
            let wm = if kind == KIND_BATCH_WM {
                r.u64().ok()?
            } else {
                0
            };
            let n = r.u32().ok()? as usize;
            // Variable-width packets: bound the claimed count by what the
            // payload could possibly hold before allocating for it, and
            // demand the record is consumed exactly.
            if n > r.remaining() / MIN_PACKET_BYTES {
                return None;
            }
            let mut pkts = Vec::with_capacity(n);
            let mut prev_ts = 0u64;
            for _ in 0..n {
                pkts.push(read_packet(&mut r, &mut prev_ts)?);
            }
            if !r.is_empty() {
                return None;
            }
            Some(ReplayMsg::Batch { seq, wm, pkts })
        }
        KIND_PUNCT => {
            let seq = r.u64().ok()?;
            let wm = r.u64().ok()?;
            if !r.is_empty() {
                return None;
            }
            Some(ReplayMsg::Punct { seq, wm })
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// File naming
// ---------------------------------------------------------------------------

const MANIFEST_NAME: &str = "MANIFEST";

fn wal_name(shard: usize, first_seq: u64) -> String {
    format!("wal-{shard}-{first_seq:020}.seg")
}

fn ctl_name(id: u64) -> String {
    format!("ctl-{id:020}.seg")
}

fn ckpt_name(shard: usize, version: u64) -> String {
    format!("ckpt-{shard}-{version}.bin")
}

fn closed_name(shard: usize, index: u64) -> String {
    format!("closed-{shard}-{index}.bin")
}

fn parse_two(name: &str, prefix: &str, suffix: &str) -> Option<(usize, u64)> {
    let body = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
    let (a, b) = body.split_once('-')?;
    Some((a.parse().ok()?, b.parse().ok()?))
}

fn parse_wal_name(name: &str) -> Option<(usize, u64)> {
    parse_two(name, "wal-", ".seg")
}

fn parse_ctl_name(name: &str) -> Option<u64> {
    name.strip_prefix("ctl-")?
        .strip_suffix(".seg")?
        .parse()
        .ok()
}

fn parse_ckpt_name(name: &str) -> Option<(usize, u64)> {
    parse_two(name, "ckpt-", ".bin")
}

fn parse_closed_name(name: &str) -> Option<(usize, u64)> {
    parse_two(name, "closed-", ".bin")
}

/// Starts a `[magic][len][crc32][payload]` file image in `out`: the
/// caller appends the payload in place — no staging copy — and
/// [`seal_file_image`] fills in the frame header.
fn begin_file_image(out: &mut Vec<u8>, magic: u32) {
    out.clear();
    put_u32(out, magic);
    put_u64(out, 0);
}

fn seal_file_image(image: &mut [u8]) {
    let len = (image.len() - 12) as u32;
    let crc = crc32(&image[12..]);
    image[4..8].copy_from_slice(&len.to_le_bytes());
    image[8..12].copy_from_slice(&crc.to_le_bytes());
}

/// The payload of a whole-file frame written by [`begin_file_image`]:
/// `None` on a wrong magic, a torn frame, or bytes past the frame.
fn file_image_payload(data: &[u8], magic: u32) -> Option<&[u8]> {
    if data.len() < 4 || u32::from_le_bytes(data[0..4].try_into().ok()?) != magic {
        return None;
    }
    match read_frame(&data[4..]) {
        Frame::Complete { payload, consumed } if 4 + consumed == data.len() => Some(payload),
        _ => None,
    }
}

fn err(detail: impl Into<String>) -> fd_core::Error {
    fd_core::Error::Durability {
        detail: detail.into(),
    }
}

// ---------------------------------------------------------------------------
// Writer-thread commands and the engine-facing sink
// ---------------------------------------------------------------------------

/// Ring depth (messages) between the dispatcher and the WAL writer.
/// Much deeper than the worker rings, and deliberately so: the writer
/// stalls for whole milliseconds inside checkpoint fsyncs, and a ring
/// that fills during one turns every subsequent batch into a
/// sleep/wake round-trip billed to the *dispatcher's* CPU clock. At
/// one `Arc` + a few words per entry, 8192 slots cost ~1 MiB and let
/// the dispatcher ride out multi-ms flushes without ever blocking;
/// if the disk persistently cannot keep up, the full ring is the
/// backpressure that bounds memory.
const WAL_RING_DEPTH: usize = 8192;

enum WalCmd {
    Batch {
        shard: usize,
        seq: u64,
        wm: Micros,
        pkts: Arc<Vec<Packet>>,
    },
    Commit(CommitState),
    Finish,
}

/// The engine-facing handle to the durability writer thread.
///
/// Cheap by construction: every method is one ring push (the batch
/// travels as an `Arc` clone). Dropping the sink without
/// [`finish`](DurableSink::finish) — e.g. on an unwinding dispatcher —
/// abandons the writer: it stops immediately and performs **no further
/// fsync or rename**, so a half-initialized run can never publish a
/// half-written MANIFEST.
pub(crate) struct DurableSink {
    tx: Option<RingSender<WalCmd>>,
    handle: Option<JoinHandle<()>>,
    degraded: Arc<AtomicBool>,
    abandoned: Arc<AtomicBool>,
    /// Commands held back until the next commit — see [`DurableSink::push`].
    stash: Vec<WalCmd>,
}

/// Stash bound: an engine that streams without ever committing still
/// hands its records over in bursts no larger than this (an `Arc` clone
/// per batch, so the bound is about ring fairness, not memory).
const STASH_MAX: usize = 128;

/// Upper bound on any single hand-off to the WAL writer's ring.
/// Deliberately generous — orders of magnitude above a healthy writer's
/// worst fsync — because timing out here costs durability: a writer that
/// cannot accept a command within this bound is treated exactly like a
/// persistent disk failure (degrade, keep streaming on in-memory
/// supervision) rather than letting a wedged I/O call head-of-line-block
/// the dispatcher forever.
const WAL_SEND_DEADLINE: Duration = Duration::from_secs(10);

impl std::fmt::Debug for DurableSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableSink")
            .field("degraded", &self.degraded())
            .field("abandoned", &self.abandoned.load(Relaxed))
            .finish_non_exhaustive()
    }
}

impl DurableSink {
    /// Spawns the writer thread over a recovered (or fresh) store.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn spawn(
        dir: &Path,
        io_backend: &Arc<dyn IoBackend>,
        fsync: FsyncPolicy,
        segment_bytes: u64,
        recovered: &Recovered,
        slots: Vec<Arc<CheckpointSlot>>,
        telemetry: Arc<EngineTelemetry>,
        pools: Vec<BatchPool<Packet>>,
    ) -> Result<Self, fd_core::Error> {
        assert!(!pools.is_empty(), "one recycle pool per producer");
        let degraded = Arc::new(AtomicBool::new(false));
        let abandoned = Arc::new(AtomicBool::new(false));
        let (tx, rx) = ring::<WalCmd>(WAL_RING_DEPTH);
        let n_shards = slots.len();
        let mut writer = Writer {
            io: Arc::clone(io_backend),
            dir: dir.to_path_buf(),
            fsync,
            segment_bytes: segment_bytes.max(4096),
            wal: (0..n_shards).map(|_| SegWriter::new()).collect(),
            ctl: SegWriter::new(),
            ctl_next_id: recovered.ctl_next_id,
            slots,
            covered: recovered.covered.clone(),
            ckpt_version: recovered.ckpt_version.clone(),
            closed_deltas: recovered.closed.iter().map(|d| d.len() as u64).collect(),
            closed_persisted: (0..n_shards).map(|s| recovered.closed_groups(s)).collect(),
            manifest_version: recovered.manifest_version,
            appends_since_sync: 0,
            last_commit: None,
            telemetry,
            degraded: Arc::clone(&degraded),
            abandoned: Arc::clone(&abandoned),
            payload_buf: Vec::new(),
            frame_buf: Vec::new(),
            delta_buf: Vec::new(),
            pools,
        };
        // Reopen the live segments recovery decided to keep appending to.
        for (s, resume) in recovered.wal_resume.iter().enumerate() {
            if let Some((name, bytes)) = resume {
                writer.wal[s].resume(name.clone(), *bytes);
            }
        }
        if let Some((name, bytes)) = &recovered.ctl_resume {
            writer.ctl.resume(name.clone(), *bytes);
        }
        let handle = std::thread::Builder::new()
            .name("fd-wal-writer".to_owned())
            .spawn(move || writer.run(rx))
            .map_err(|e| err(format!("failed to spawn WAL writer: {e}")))?;
        Ok(Self {
            tx: Some(tx),
            handle: Some(handle),
            degraded,
            abandoned,
            stash: Vec::new(),
        })
    }

    /// Whether the writer hit a persistent disk failure and the engine is
    /// running on in-memory supervision only.
    pub(crate) fn degraded(&self) -> bool {
        self.degraded.load(Relaxed)
    }

    /// Stashes a command for the next commit-time burst.
    ///
    /// Nothing in the WAL is recoverable until a commit record covers it
    /// (recovery resumes from the newest commit and truncates past its
    /// coverage), so shipping records to the writer eagerly buys no
    /// durability — it only costs a ring hand-off per batch, and the
    /// futex wake behind most of those hand-offs is the single biggest
    /// per-batch cost the durable hook can impose on the dispatcher (see
    /// the `durability_overhead` bench). Batching the hand-off to one
    /// burst per commit keeps WAL order intact — batches still precede
    /// their commit on the ring — and collapses the wakes to one.
    /// [`STASH_MAX`] bounds the stash for callers that never commit.
    fn push(&mut self, cmd: WalCmd) {
        if self.degraded() {
            self.stash.clear();
            return;
        }
        self.stash.push(cmd);
        if self.stash.len() >= STASH_MAX {
            self.flush_stash();
        }
    }

    /// Drains the stash onto the writer's ring. Consecutive sends after
    /// the first find the ring non-empty, so the ring's notify elision
    /// makes the whole burst cost a single wake.
    fn flush_stash(&mut self) {
        if self.degraded() || self.tx.is_none() {
            self.stash.clear();
            return;
        }
        let mut dead = false;
        if let Some(tx) = &self.tx {
            for cmd in self.stash.drain(..) {
                if tx.send_deadline(cmd, WAL_SEND_DEADLINE).is_err() {
                    dead = true;
                    break;
                }
            }
        }
        if dead {
            // The writer disappeared (panicked) or sat wedged past the
            // generous deadline; treat both exactly like a persistent
            // disk failure.
            self.degraded.store(true, Relaxed);
            self.stash.clear();
        }
    }

    pub(crate) fn batch(&mut self, shard: usize, seq: u64, pkts: &Arc<Vec<Packet>>, wm: Micros) {
        self.push(WalCmd::Batch {
            shard,
            seq,
            wm,
            pkts: Arc::clone(pkts),
        });
    }

    pub(crate) fn commit(&mut self, c: CommitState) {
        self.push(WalCmd::Commit(c));
        self.flush_stash();
    }

    /// Flushes everything, commits a final manifest, and joins the writer.
    pub(crate) fn finish(&mut self) {
        self.flush_stash();
        if let Some(tx) = self.tx.take() {
            let _ = tx.send(WalCmd::Finish);
        }
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for DurableSink {
    fn drop(&mut self) {
        // Dropped without finish(): the engine is being abandoned, very
        // possibly mid-unwind with half-applied state. Tell the writer to
        // stop *without* any further fsync, rename, or manifest commit —
        // the store stays at its last complete commit.
        self.abandoned.store(true, Relaxed);
        self.tx = None;
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// The writer thread
// ---------------------------------------------------------------------------

/// One append-only log (a shard's WAL or the control log) with size-based
/// segment rotation.
struct SegWriter {
    file: Option<Box<dyn IoFile>>,
    name: String,
    bytes: u64,
    dirty: bool,
}

impl SegWriter {
    fn new() -> Self {
        Self {
            file: None,
            name: String::new(),
            bytes: 0,
            dirty: false,
        }
    }

    /// Marks an existing segment (post-recovery) as the one to append to.
    /// The file is opened lazily on the first append.
    fn resume(&mut self, name: String, bytes: u64) {
        self.name = name;
        self.bytes = bytes;
    }

    /// Appends one framed record, rotating to a fresh segment named by
    /// `next_name` when the current one is full. Returns bytes appended.
    fn append(
        &mut self,
        io: &dyn IoBackend,
        dir: &Path,
        frame: &[u8],
        segment_bytes: u64,
        next_name: impl FnOnce() -> String,
    ) -> io::Result<u64> {
        if self.name.is_empty() || self.bytes >= segment_bytes {
            // Seal the old segment durably before moving on, so "sync all
            // open files" at manifest time covers every unsynced byte.
            if let Some(mut f) = self.file.take() {
                f.sync()?;
            }
            self.name = next_name();
            self.bytes = 0;
            self.dirty = false;
        }
        if self.file.is_none() {
            self.file = Some(io.open_append(&crate::io::join(dir, &self.name))?);
        }
        let f = self.file.as_mut().expect("opened above");
        f.append(frame)?;
        self.bytes += frame.len() as u64;
        self.dirty = true;
        Ok(frame.len() as u64)
    }

    fn sync(&mut self) -> io::Result<()> {
        if self.dirty {
            if let Some(f) = self.file.as_mut() {
                f.sync()?;
            }
            self.dirty = false;
        }
        Ok(())
    }
}

struct Writer {
    io: Arc<dyn IoBackend>,
    dir: PathBuf,
    fsync: FsyncPolicy,
    segment_bytes: u64,
    wal: Vec<SegWriter>,
    ctl: SegWriter,
    ctl_next_id: u64,
    slots: Vec<Arc<CheckpointSlot>>,
    /// Per-shard WAL sequence covered by the manifest-committed checkpoint.
    covered: Vec<u64>,
    ckpt_version: Vec<u64>,
    /// Per shard: closed-delta files written so far (`closed-<s>-1..=n`).
    closed_deltas: Vec<u64>,
    /// Per shard: how many of the slot's closed groups those files hold —
    /// the slot's list only grows while the writer lives, so this prefix
    /// is what never needs writing again.
    closed_persisted: Vec<usize>,
    manifest_version: u64,
    appends_since_sync: u64,
    last_commit: Option<CommitState>,
    telemetry: Arc<EngineTelemetry>,
    degraded: Arc<AtomicBool>,
    abandoned: Arc<AtomicBool>,
    payload_buf: Vec<u8>,
    frame_buf: Vec<u8>,
    delta_buf: Vec<u8>,
    /// The batch-recycling pools, one per producer. The WAL holds a third
    /// `Arc` on every batch (retaining queue, worker, WAL), and the recycling
    /// protocol is "last holder returns the buffer" — so the writer must
    /// play too, or every batch it outlives leaks from the pool and the
    /// dispatcher pays a fresh allocation (plus the page faults of filling
    /// cold memory) per flush. The `durability_overhead` bench gates this.
    pools: Vec<BatchPool<Packet>>,
}

impl Writer {
    fn run(mut self, rx: RingReceiver<WalCmd>) {
        while let Some(cmd) = rx.recv() {
            if self.abandoned.load(Relaxed) {
                // Engine dropped without finish(): stop dead. No flush, no
                // fsync, no rename — see `Drop for DurableSink`.
                return;
            }
            if self.degraded.load(Relaxed) {
                match cmd {
                    WalCmd::Finish => return,
                    // Drain and discard so the dispatcher never blocks —
                    // but keep recycling, as below.
                    WalCmd::Batch { seq, pkts, .. } => self.recycle(seq, pkts),
                    _ => {}
                }
                continue;
            }
            let result = match cmd {
                WalCmd::Batch {
                    shard,
                    seq,
                    wm,
                    pkts,
                } => {
                    let r = self.append_batch(shard, seq, wm, &pkts);
                    self.recycle(seq, pkts);
                    r
                }
                WalCmd::Commit(c) => self.handle_commit(c),
                WalCmd::Finish => {
                    if let Err(e) = self.final_flush() {
                        self.degrade("final flush", &e);
                    }
                    return;
                }
            };
            if let Err(e) = result {
                self.degrade("WAL write", &e);
            }
        }
        // Channel closed without Finish: abandoned (see above).
    }

    /// Drops the writer's `Arc` on a batch, returning the buffer to the
    /// *owning producer's* pool when this was the last holder. The owner
    /// is recoverable from the seq — fabric epochs obey
    /// `producer = (seq − 1) mod P` (the determinism rule) — so each
    /// producer's bounded pool is refilled by its own buffers instead of
    /// all recycling landing on (and overflowing) producer 0's.
    fn recycle(&self, seq: u64, pkts: Arc<Vec<Packet>>) {
        if let Ok(buf) = Arc::try_unwrap(pkts) {
            let p = (seq.saturating_sub(1) % self.pools.len() as u64) as usize;
            self.pools[p].put(buf);
        }
    }

    fn degrade(&mut self, what: &str, e: &io::Error) {
        self.degraded.store(true, Relaxed);
        self.telemetry.durability_degraded.store(1, Relaxed);
        eprintln!(
            "fd-durability: {what} failed ({e}); \
             continuing on in-memory supervision without durable persistence"
        );
        // Drop the file handles: no further writes will happen, and on
        // some fault kinds (ENOSPC) holding them open serves nothing.
        for w in &mut self.wal {
            w.file = None;
        }
        self.ctl.file = None;
    }

    /// Frames `self.payload_buf` and appends it to the given log.
    fn append_framed(&mut self, shard: Option<usize>, rotate_id: u64) -> io::Result<()> {
        self.frame_buf.clear();
        put_frame(&mut self.frame_buf, &self.payload_buf);
        let seg = match shard {
            Some(s) => &mut self.wal[s],
            None => &mut self.ctl,
        };
        let written = seg.append(
            self.io.as_ref(),
            &self.dir,
            &self.frame_buf,
            self.segment_bytes,
            || match shard {
                Some(s) => wal_name(s, rotate_id),
                None => ctl_name(rotate_id),
            },
        )?;
        self.telemetry.wal_bytes_written.fetch_add(written, Relaxed);
        self.appends_since_sync += 1;
        match self.fsync {
            FsyncPolicy::EveryBatch => {
                let seg = match shard {
                    Some(s) => &mut self.wal[s],
                    None => &mut self.ctl,
                };
                seg.sync()?;
                self.appends_since_sync = 0;
            }
            FsyncPolicy::EveryN(n) if self.appends_since_sync >= n => {
                self.sync_all()?;
                self.appends_since_sync = 0;
            }
            _ => {}
        }
        Ok(())
    }

    fn append_batch(
        &mut self,
        shard: usize,
        seq: u64,
        wm: Micros,
        pkts: &[Packet],
    ) -> io::Result<()> {
        self.payload_buf.clear();
        if wm == 0 {
            // Legacy layout — keeps epochs sealed before any watermark
            // byte-identical to pre-fabric versions of this engine.
            self.payload_buf.push(KIND_BATCH);
            put_u64(&mut self.payload_buf, seq);
        } else {
            self.payload_buf.push(KIND_BATCH_WM);
            put_u64(&mut self.payload_buf, seq);
            put_u64(&mut self.payload_buf, wm);
        }
        put_u32(&mut self.payload_buf, pkts.len() as u32);
        let mut prev_ts = 0u64;
        for p in pkts {
            put_packet(&mut self.payload_buf, p, &mut prev_ts);
        }
        self.append_framed(Some(shard), seq)
    }

    fn handle_commit(&mut self, c: CommitState) -> io::Result<()> {
        self.payload_buf.clear();
        c.encode(&mut self.payload_buf);
        let id = self.ctl_next_id;
        self.ctl_next_id += 1; // only consumed if the append rotates
        let rotated_before = self.ctl.name.clone();
        self.append_framed(None, id)?;
        if self.ctl.name == rotated_before {
            self.ctl_next_id -= 1; // no rotation: the id is still free
        }
        self.last_commit = Some(c.clone());
        self.persist_checkpoints(&c, false)
    }

    /// Persists any worker checkpoint that advanced past the manifest
    /// coverage **without overshooting commit `c`** — a snapshot newer
    /// than the newest durable commit would make recovery impossible
    /// (the WAL tail between coverage and the commit must replay onto
    /// the checkpoint) — together with the closed groups handed off since
    /// the shard's previous persist, as one write-once closed-delta: the
    /// snapshot no longer holds them, so each is written exactly once.
    /// Then commits a new manifest and garbage-collects.
    fn persist_checkpoints(&mut self, c: &CommitState, force_manifest: bool) -> io::Result<()> {
        if self.abandoned.load(Relaxed) {
            return Ok(());
        }
        let mut advanced = false;
        for s in 0..self.slots.len() {
            let within = |seq: u64| seq > self.covered[s] && seq <= c.hi[s];
            // Cheap pre-check on the atomic seq before taking the lock.
            if !within(self.slots[s].seq()) {
                continue;
            }
            // Both file images are framed straight from the borrowed slot
            // — one copy of the snapshot, one serialization of the fresh
            // closed groups — under one lock hold, so the pair is one cut
            // of the shard's state; the file I/O happens after release.
            let (ckpt, delta) = (&mut self.frame_buf, &mut self.delta_buf);
            let persisted = self.closed_persisted[s];
            let next_delta = self.closed_deltas[s] + 1;
            let cut = self.slots[s].read(|v| {
                // The slot may have moved since the pre-check.
                if !within(v.seq) {
                    return Ok(None);
                }
                begin_file_image(ckpt, MAGIC_CKPT);
                put_u64(ckpt, v.seq);
                ckpt.extend_from_slice(v.blob);
                seal_file_image(ckpt);
                let fresh = &v.closed[persisted..];
                if !fresh.is_empty() {
                    begin_file_image(delta, MAGIC_CLOSED);
                    put_u64(delta, next_delta);
                    put_u64(delta, v.seq);
                    crate::engine::write_closed_groups(delta, fresh).ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            "a closed group declined to serialize",
                        )
                    })?;
                    seal_file_image(delta);
                }
                Ok::<_, io::Error>(Some((v.seq, v.closed.len())))
            });
            let Some((seq, closed_len)) = cut.transpose()?.flatten() else {
                continue;
            };
            // The delta first: until the manifest below names it, it is an
            // orphan that recovery ignores and the next persist overwrites.
            if closed_len > persisted {
                self.publish(&closed_name(s, next_delta), &self.delta_buf)?;
                self.closed_deltas[s] = next_delta;
                self.closed_persisted[s] = closed_len;
            }
            let version = self.ckpt_version[s] + 1;
            self.publish(&ckpt_name(s, version), &self.frame_buf)?;
            self.ckpt_version[s] = version;
            self.covered[s] = seq;
            self.telemetry.checkpoints_persisted.fetch_add(1, Relaxed);
            advanced = true;
        }
        if !advanced && !force_manifest {
            return Ok(());
        }
        // Everything the new manifest implies must be durable before the
        // rename publishes it: WAL tails (recovery needs them to reach a
        // commit ≥ coverage) and the control log carrying that commit.
        self.sync_all()?;
        self.write_manifest()?;
        self.gc();
        Ok(())
    }

    /// Publishes one whole-file image atomically: tmp + fsync + read-back
    /// verify + rename. The read-back is what keeps a silently corrupted
    /// file (bad RAM, lying disk, injected corrupt-byte fault) from being
    /// published — once the manifest points at it and the WAL below it is
    /// GC'd, recovery would have nowhere to go.
    fn publish(&self, final_name: &str, image: &[u8]) -> io::Result<()> {
        let tmp_path = crate::io::join(&self.dir, &format!("{final_name}.tmp"));
        {
            let mut f = self.io.create(&tmp_path)?;
            f.append(image)?;
            f.sync()?;
        }
        if self.io.read(&tmp_path)? != image {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{final_name} failed read-back verification"),
            ));
        }
        self.io
            .rename(&tmp_path, &crate::io::join(&self.dir, final_name))
    }

    fn sync_all(&mut self) -> io::Result<()> {
        for w in &mut self.wal {
            w.sync()?;
        }
        self.ctl.sync()?;
        self.appends_since_sync = 0;
        Ok(())
    }

    fn write_manifest(&mut self) -> io::Result<()> {
        let version = self.manifest_version + 1;
        begin_file_image(&mut self.frame_buf, MAGIC_MANIFEST);
        put_u64(&mut self.frame_buf, version);
        put_u32(&mut self.frame_buf, self.covered.len() as u32);
        for s in 0..self.covered.len() {
            put_u64(&mut self.frame_buf, self.ckpt_version[s]);
            put_u64(&mut self.frame_buf, self.covered[s]);
            put_u64(&mut self.frame_buf, self.closed_deltas[s]);
        }
        seal_file_image(&mut self.frame_buf);
        self.publish(MANIFEST_NAME, &self.frame_buf)?;
        self.io.sync_dir(&self.dir)?;
        self.manifest_version = version;
        Ok(())
    }

    /// Stateless garbage collection by directory listing, run after every
    /// manifest commit. Best-effort: a failed delete is retried at the
    /// next commit, never a degradation.
    fn gc(&mut self) {
        let Ok(names) = self.io.list(&self.dir) else {
            return;
        };
        let n = self.covered.len();
        let mut wal_segs: Vec<Vec<u64>> = vec![Vec::new(); n];
        for name in &names {
            if let Some((s, first)) = parse_wal_name(name) {
                if s < n {
                    wal_segs[s].push(first);
                }
            }
        }
        for (s, firsts) in wal_segs.iter_mut().enumerate() {
            firsts.sort_unstable();
            // Segment i spans [firsts[i], firsts[i+1] - 1]; droppable when
            // its whole span is at or below the manifest coverage. The
            // newest segment is always kept (it is still being written).
            for w in firsts.windows(2) {
                if w[1].saturating_sub(1) <= self.covered[s] {
                    let _ = self
                        .io
                        .remove_file(&crate::io::join(&self.dir, &wal_name(s, w[0])));
                }
            }
        }
        // Sealed control segments: the commit that produced this manifest
        // lives in the current segment, and any older commit is subsumed
        // by it, so every other ctl segment is droppable.
        for name in &names {
            if parse_ctl_name(name).is_some() && *name != self.ctl.name {
                let _ = self.io.remove_file(&crate::io::join(&self.dir, name));
            }
        }
        // Checkpoints older than the manifest-current version, closed-
        // deltas past the manifest's count (orphans of a crash between
        // their rename and the manifest's), and any leftover tmp file
        // from a crashed writer. Deltas the manifest names are never
        // collected: they are the run's closed buckets.
        for name in &names {
            if let Some((s, v)) = parse_ckpt_name(name) {
                if s < n && v < self.ckpt_version[s] {
                    let _ = self.io.remove_file(&crate::io::join(&self.dir, name));
                }
            } else if let Some((s, k)) = parse_closed_name(name) {
                if s < n && k > self.closed_deltas[s] {
                    let _ = self.io.remove_file(&crate::io::join(&self.dir, name));
                }
            } else if name.ends_with(".tmp") {
                let _ = self.io.remove_file(&crate::io::join(&self.dir, name));
            }
        }
    }

    /// Clean shutdown: make everything written so far durable and commit
    /// a final manifest (regardless of fsync policy), so a clean run's
    /// store recovers with zero replay.
    fn final_flush(&mut self) -> io::Result<()> {
        match self.last_commit.clone() {
            Some(c) => self.persist_checkpoints(&c, true),
            None => self.sync_all(),
        }
    }
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// Everything [`recover`] learned from a store directory, consumed by
/// [`ShardedEngine::try_durable`](crate::shard::ShardedEngine::try_durable)
/// to preload seats and by [`DurableSink::spawn`] to resume the logs.
#[derive(Debug)]
pub(crate) struct Recovered {
    /// The chosen durable commit (all-zero for a fresh store).
    pub commit: CommitState,
    /// Per shard: the manifest-current checkpoint (covered seq, engine
    /// blob), if one was ever persisted.
    pub ckpts: Vec<Option<(u64, Vec<u8>)>>,
    /// Per shard: the closed-group section of every closed-delta the
    /// manifest names, in index order — together, every group the shard
    /// closed at or before its checkpoint's seq (decoding them takes the
    /// query, which recovery does not have).
    pub closed: Vec<Vec<Vec<u8>>>,
    /// Per shard: WAL records in `(covered, hi]`, the replay tail.
    pub replay: Vec<Vec<ReplayMsg>>,
    /// Torn records truncated plus unreachable segments dropped.
    pub truncated: u64,
    /// Manifest bookkeeping for the resuming writer.
    pub covered: Vec<u64>,
    pub ckpt_version: Vec<u64>,
    pub manifest_version: u64,
    /// Per shard: the segment to keep appending to (name, byte length).
    pub wal_resume: Vec<Option<(String, u64)>>,
    pub ctl_resume: Option<(String, u64)>,
    pub ctl_next_id: u64,
    /// `false` when the directory held no prior store.
    pub resumed: bool,
}

impl Recovered {
    fn fresh(n_shards: usize) -> Self {
        Self {
            commit: CommitState::zero(n_shards),
            ckpts: vec![None; n_shards],
            closed: vec![Vec::new(); n_shards],
            replay: (0..n_shards).map(|_| Vec::new()).collect(),
            truncated: 0,
            covered: vec![0; n_shards],
            ckpt_version: vec![0; n_shards],
            manifest_version: 0,
            wal_resume: vec![None; n_shards],
            ctl_resume: None,
            ctl_next_id: 1,
            resumed: false,
        }
    }

    /// How many closed groups the shard's deltas hold (each section leads
    /// with its count).
    fn closed_groups(&self, shard: usize) -> usize {
        self.closed[shard]
            .iter()
            .map(|section| Reader::new(section).u64().unwrap_or(0) as usize)
            .sum()
    }
}

/// One scanned log segment: its verified records and where the valid
/// prefix ends.
struct SegScan<T> {
    name: String,
    /// (start offset, end offset, decoded record).
    recs: Vec<(u64, u64, T)>,
    /// Length of the valid prefix (== file length when clean).
    valid_len: u64,
    /// Whether a torn/corrupt record was cut off at `valid_len`.
    torn: bool,
}

/// Walks the frames of one segment, decoding each payload; stops at the
/// first torn frame or undecodable payload and reports the cut point.
fn scan_segment<T>(
    io: &dyn IoBackend,
    dir: &Path,
    name: &str,
    mut decode: impl FnMut(&[u8]) -> Option<T>,
) -> Result<SegScan<T>, fd_core::Error> {
    let data = io
        .read(&crate::io::join(dir, name))
        .map_err(|e| err(format!("cannot read {name}: {e}")))?;
    let mut recs = Vec::new();
    let mut off = 0usize;
    let mut torn = false;
    loop {
        match read_frame(&data[off..]) {
            Frame::End => break,
            Frame::Torn => {
                torn = true;
                break;
            }
            Frame::Complete { payload, consumed } => match decode(payload) {
                Some(rec) => {
                    recs.push((off as u64, (off + consumed) as u64, rec));
                    off += consumed;
                }
                None => {
                    // Framed correctly but semantically invalid: same
                    // treatment as a torn record — cut here.
                    torn = true;
                    break;
                }
            },
        }
    }
    Ok(SegScan {
        name: name.to_owned(),
        recs,
        valid_len: off as u64,
        torn,
    })
}

/// Scans an ordered chain of segments belonging to one log. After a torn
/// segment, later segments are unreachable (their records would leave a
/// hole) and are dropped whole. Returns the per-segment scans plus how
/// many cuts were made.
fn scan_chain<T>(
    io: &dyn IoBackend,
    dir: &Path,
    names: &[String],
    decode: impl Fn(&[u8]) -> Option<T> + Copy,
) -> Result<(Vec<SegScan<T>>, u64), fd_core::Error> {
    let mut scans = Vec::new();
    let mut truncated = 0u64;
    let mut cut = false;
    for name in names {
        if cut {
            truncated += 1;
            io.remove_file(&crate::io::join(dir, name))
                .map_err(|e| err(format!("cannot drop unreachable segment {name}: {e}")))?;
            continue;
        }
        let scan = scan_segment(io, dir, name, decode)?;
        if scan.torn {
            truncated += 1;
            io.truncate(&crate::io::join(dir, name), scan.valid_len)
                .map_err(|e| err(format!("cannot truncate torn tail of {name}: {e}")))?;
            cut = true;
        }
        scans.push(scan);
    }
    Ok((scans, truncated))
}

/// Scans a store directory and reconstructs the newest consistent state
/// (see the module docs for the commit-selection rule). Never panics on
/// any byte-level damage: torn tails are truncated and counted; damage
/// below the last commit is an explicit error.
pub(crate) fn recover(
    io: &Arc<dyn IoBackend>,
    dir: &Path,
    n_shards: usize,
) -> Result<Recovered, fd_core::Error> {
    let io = io.as_ref();
    io.create_dir_all(dir)
        .map_err(|e| err(format!("cannot create {}: {e}", dir.display())))?;
    let names = io
        .list(dir)
        .map_err(|e| err(format!("cannot list {}: {e}", dir.display())))?;

    let mut wal_names: Vec<Vec<(u64, String)>> = vec![Vec::new(); n_shards];
    let mut ctl_names: Vec<(u64, String)> = Vec::new();
    let mut ckpt_files: Vec<Vec<(u64, String)>> = vec![Vec::new(); n_shards];
    let mut manifest_present = false;
    for name in &names {
        if name == MANIFEST_NAME {
            manifest_present = true;
        } else if let Some((s, first)) = parse_wal_name(name) {
            if s >= n_shards {
                return Err(err(format!(
                    "store has WAL for shard {s} but the engine has {n_shards} shards \
                     (shard count cannot change across restarts)"
                )));
            }
            wal_names[s].push((first, name.clone()));
        } else if let Some(id) = parse_ctl_name(name) {
            ctl_names.push((id, name.clone()));
        } else if let Some((s, v)) = parse_ckpt_name(name) {
            if s < n_shards {
                ckpt_files[s].push((v, name.clone()));
            }
        }
    }
    if !manifest_present && ctl_names.is_empty() && wal_names.iter().all(Vec::is_empty) {
        return Ok(Recovered::fresh(n_shards));
    }

    // --- Manifest ---------------------------------------------------------
    let Manifest {
        version: manifest_version,
        ckpt_version,
        covered,
        closed_deltas,
    } = if manifest_present {
        let data = io
            .read(&crate::io::join(dir, MANIFEST_NAME))
            .map_err(|e| err(format!("cannot read MANIFEST: {e}")))?;
        parse_manifest(&data, n_shards)?
    } else {
        // Store created, crashed before the first manifest commit: valid,
        // with zero coverage everywhere.
        Manifest {
            version: 0,
            ckpt_version: vec![0; n_shards],
            covered: vec![0; n_shards],
            closed_deltas: vec![0; n_shards],
        }
    };

    // --- Checkpoints ------------------------------------------------------
    let mut ckpts: Vec<Option<(u64, Vec<u8>)>> = vec![None; n_shards];
    for s in 0..n_shards {
        if ckpt_version[s] == 0 {
            continue;
        }
        let name = ckpt_name(s, ckpt_version[s]);
        let data = io.read(&crate::io::join(dir, &name)).map_err(|e| {
            err(format!(
                "manifest names {name} but it cannot be read: {e} \
                 (the WAL below its coverage may be gone — refusing to guess)"
            ))
        })?;
        let (seq, blob) = parse_ckpt(&data, &name)?;
        if seq != covered[s] {
            return Err(err(format!(
                "{name} covers seq {seq} but the manifest says {}",
                covered[s]
            )));
        }
        ckpts[s] = Some((seq, blob));
    }

    // --- Closed-deltas ----------------------------------------------------
    // Every delta the manifest names must be there and intact: together
    // they are the closed buckets the checkpoint no longer carries.
    let mut closed: Vec<Vec<Vec<u8>>> = vec![Vec::new(); n_shards];
    for s in 0..n_shards {
        if ckpt_version[s] == 0 && closed_deltas[s] > 0 {
            return Err(err(format!(
                "manifest names {} closed-deltas for shard {s} but no checkpoint",
                closed_deltas[s]
            )));
        }
        let mut prev_seq = 0u64;
        for k in 1..=closed_deltas[s] {
            let name = closed_name(s, k);
            let data = io.read(&crate::io::join(dir, &name)).map_err(|e| {
                err(format!(
                    "manifest names {name} but it cannot be read: {e} \
                     (its closed buckets exist nowhere else — refusing to guess)"
                ))
            })?;
            let (seq, section) = parse_closed_delta(&data, k).ok_or_else(|| {
                err(format!(
                    "closed-delta {name} is corrupt and its closed buckets exist \
                     nowhere else — refusing to guess"
                ))
            })?;
            if seq < prev_seq || seq > covered[s] {
                return Err(err(format!(
                    "{name} was handed off at seq {seq}, outside ({prev_seq}, {}] \
                     where the manifest puts it",
                    covered[s]
                )));
            }
            prev_seq = seq;
            closed[s].push(section.to_vec());
        }
    }

    let mut truncated = 0u64;

    // --- Per-shard WAL scan ----------------------------------------------
    let mut replay_all: Vec<Vec<ReplayMsg>> = Vec::with_capacity(n_shards);
    let mut wal_scans: Vec<Vec<SegScan<ReplayMsg>>> = Vec::with_capacity(n_shards);
    let mut last_good: Vec<u64> = Vec::with_capacity(n_shards);
    for s in 0..n_shards {
        wal_names[s].sort_unstable();
        let names: Vec<String> = wal_names[s].iter().map(|(_, n)| n.clone()).collect();
        let (mut scans, cuts) = scan_chain(io, dir, &names, decode_wal_record)?;
        truncated += cuts;
        // Enforce sequence contiguity across the whole chain: a gap means
        // records were lost out from under us; everything at and past the
        // gap is unusable.
        let mut expect: Option<u64> = None;
        let mut gap_cut: Option<(usize, u64)> = None; // (segment idx, offset)
        'outer: for (i, scan) in scans.iter().enumerate() {
            for (start, _end, rec) in &scan.recs {
                let seq = rec.seq();
                if let Some(e) = expect {
                    if seq != e {
                        gap_cut = Some((i, *start));
                        break 'outer;
                    }
                }
                expect = Some(seq + 1);
            }
        }
        if let Some((i, offset)) = gap_cut {
            truncated += 1;
            io.truncate(&crate::io::join(dir, &scans[i].name), offset)
                .map_err(|e| err(format!("cannot truncate WAL gap: {e}")))?;
            scans[i].recs.retain(|(start, _, _)| *start < offset);
            scans[i].valid_len = offset;
            for dropped in scans.drain(i + 1..) {
                truncated += 1;
                io.remove_file(&crate::io::join(dir, &dropped.name))
                    .map_err(|e| err(format!("cannot drop segment past WAL gap: {e}")))?;
            }
        }
        let tail_seq = scans
            .iter()
            .rev()
            .find_map(|sc| sc.recs.last().map(|(_, _, r)| r.seq()))
            .unwrap_or(covered[s]);
        // The replay tail must connect to the checkpoint coverage: the
        // first record above `covered` has to be `covered + 1`.
        let first_above = scans
            .iter()
            .flat_map(|sc| sc.recs.iter())
            .map(|(_, _, r)| r.seq())
            .find(|&q| q > covered[s]);
        let connected = match first_above {
            Some(q) => q == covered[s] + 1,
            None => true,
        };
        if !connected {
            return Err(err(format!(
                "shard {s}: WAL resumes at seq {} but the checkpoint covers only {} \
                 — records in between are missing",
                first_above.unwrap_or(0),
                covered[s]
            )));
        }
        last_good.push(tail_seq.max(covered[s]));
        wal_scans.push(scans);
        replay_all.push(Vec::new()); // filled after commit selection
    }

    // --- Control log scan -------------------------------------------------
    ctl_names.sort_unstable();
    let ctl_name_list: Vec<String> = ctl_names.iter().map(|(_, n)| n.clone()).collect();
    let decode_commit = |payload: &[u8]| -> Option<CommitState> {
        let mut r = Reader::new(payload);
        if r.u8().ok()? != KIND_COMMIT {
            return None;
        }
        CommitState::decode(&mut r, n_shards)
    };
    let (mut ctl_scans, cuts) = scan_chain(io, dir, &ctl_name_list, decode_commit)?;
    truncated += cuts;

    // --- Commit selection -------------------------------------------------
    // Newest commit whose hi-vector the on-disk state can actually honor.
    let mut chosen: Option<(usize, usize)> = None; // (segment idx, record idx)
    'select: for i in (0..ctl_scans.len()).rev() {
        for j in (0..ctl_scans[i].recs.len()).rev() {
            let c = &ctl_scans[i].recs[j].2;
            let ok = (0..n_shards).all(|s| covered[s] <= c.hi[s] && c.hi[s] <= last_good[s]);
            if ok {
                chosen = Some((i, j));
                break 'select;
            }
        }
    }
    let commit = match chosen {
        Some((i, j)) => ctl_scans[i].recs[j].2.clone(),
        None => {
            let any_commit = ctl_scans.iter().any(|sc| !sc.recs.is_empty());
            if any_commit || covered.iter().any(|&c| c > 0) {
                return Err(err(
                    "no commit record is reachable from the on-disk checkpoints and WAL \
                     (the store is damaged below its last commit point)",
                ));
            }
            // No commits ever made it to disk and nothing is checkpointed:
            // the baseline (position 0) is the consistent state.
            CommitState::zero(n_shards)
        }
    };

    // --- Physical truncation beyond the chosen commit ----------------------
    if let Some((i, j)) = chosen {
        let end = ctl_scans[i].recs[j].1;
        if ctl_scans[i].valid_len > end {
            io.truncate(&crate::io::join(dir, &ctl_scans[i].name), end)
                .map_err(|e| err(format!("cannot truncate control log: {e}")))?;
            ctl_scans[i].recs.truncate(j + 1);
            ctl_scans[i].valid_len = end;
        }
        for dropped in ctl_scans.drain(i + 1..) {
            io.remove_file(&crate::io::join(dir, &dropped.name))
                .map_err(|e| err(format!("cannot drop control segment: {e}")))?;
        }
    } else {
        // Baseline: any (empty or fully torn) control segments are useless.
        for dropped in ctl_scans.drain(..) {
            if dropped.valid_len == 0 {
                io.remove_file(&crate::io::join(dir, &dropped.name))
                    .map_err(|e| err(format!("cannot drop empty control segment: {e}")))?;
            }
        }
    }
    for s in 0..n_shards {
        let hi = commit.hi[s];
        let scans = &mut wal_scans[s];
        let mut cut_at: Option<(usize, u64)> = None;
        'find: for (i, scan) in scans.iter().enumerate() {
            for (start, _end, rec) in &scan.recs {
                if rec.seq() > hi {
                    cut_at = Some((i, *start));
                    break 'find;
                }
            }
        }
        if let Some((i, offset)) = cut_at {
            io.truncate(&crate::io::join(dir, &scans[i].name), offset)
                .map_err(|e| err(format!("cannot truncate WAL past commit: {e}")))?;
            scans[i].recs.retain(|(start, _, _)| *start < offset);
            scans[i].valid_len = offset;
            for dropped in scans.drain(i + 1..) {
                io.remove_file(&crate::io::join(dir, &dropped.name))
                    .map_err(|e| err(format!("cannot drop WAL segment past commit: {e}")))?;
            }
        }
        replay_all[s] = scans
            .iter()
            .flat_map(|sc| sc.recs.iter())
            .filter(|(_, _, r)| r.seq() > covered[s])
            .map(|(_, _, r)| r.clone())
            .collect();
    }

    // --- Resume points for the writer --------------------------------------
    let wal_resume: Vec<Option<(String, u64)>> = wal_scans
        .iter()
        .map(|scans| scans.last().map(|sc| (sc.name.clone(), sc.valid_len)))
        .collect();
    let ctl_resume = ctl_scans.last().map(|sc| (sc.name.clone(), sc.valid_len));
    let ctl_next_id = ctl_names.iter().map(|(id, _)| *id + 1).max().unwrap_or(1);

    Ok(Recovered {
        commit,
        ckpts,
        closed,
        replay: replay_all,
        truncated,
        covered,
        ckpt_version,
        manifest_version,
        wal_resume,
        ctl_resume,
        ctl_next_id,
        resumed: true,
    })
}

/// A decoded `MANIFEST`: per shard, which checkpoint file is current, the
/// WAL seq it covers, and how many closed-deltas go with it.
struct Manifest {
    version: u64,
    ckpt_version: Vec<u64>,
    covered: Vec<u64>,
    closed_deltas: Vec<u64>,
}

fn parse_manifest(data: &[u8], n_shards: usize) -> Result<Manifest, fd_core::Error> {
    let bad = |why: &str| err(format!("MANIFEST is unreadable ({why})"));
    // A v1 manifest (a store last written before closed-deltas existed)
    // has no delta counts: its checkpoints hold their closed groups.
    let (payload, has_deltas) = match file_image_payload(data, MAGIC_MANIFEST) {
        Some(p) => (p, true),
        None => match file_image_payload(data, MAGIC_MANIFEST_V1) {
            Some(p) => (p, false),
            None => return Err(bad("bad magic, or a torn or oversized frame")),
        },
    };
    let mut r = Reader::new(payload);
    let codec = |_e| bad("truncated payload");
    let version = r.u64().map_err(codec)?;
    let n = r.u32().map_err(codec)? as usize;
    if n != n_shards {
        return Err(err(format!(
            "store was written with {n} shards but the engine has {n_shards} \
             (shard count cannot change across restarts)"
        )));
    }
    let mut m = Manifest {
        version,
        ckpt_version: Vec::with_capacity(n),
        covered: Vec::with_capacity(n),
        closed_deltas: Vec::with_capacity(n),
    };
    for _ in 0..n {
        m.ckpt_version.push(r.u64().map_err(codec)?);
        m.covered.push(r.u64().map_err(codec)?);
        m.closed_deltas.push(if has_deltas {
            r.u64().map_err(codec)?
        } else {
            0
        });
    }
    if !r.is_empty() {
        return Err(bad("trailing bytes"));
    }
    Ok(m)
}

fn parse_ckpt(data: &[u8], name: &str) -> Result<(u64, Vec<u8>), fd_core::Error> {
    let payload = file_image_payload(data, MAGIC_CKPT)
        .filter(|p| p.len() >= 8)
        .ok_or_else(|| {
            err(format!(
                "checkpoint {name} is corrupt (bad magic, checksum or length) and the \
                 WAL below its coverage may be gone — refusing to guess"
            ))
        })?;
    let seq = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
    Ok((seq, payload[8..].to_vec()))
}

/// A closed-delta's `(hand-off seq, closed-group section)`; `None` on any
/// damage, or when the file is not delta number `index`.
fn parse_closed_delta(data: &[u8], index: u64) -> Option<(u64, &[u8])> {
    let payload = file_image_payload(data, MAGIC_CLOSED)?;
    let mut r = Reader::new(payload);
    if r.u64().ok()? != index {
        return None;
    }
    let seq = r.u64().ok()?;
    // The section leads with its group count.
    Some((seq, payload.get(16..).filter(|s| s.len() >= 8)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("batch"), Some(FsyncPolicy::EveryBatch));
        assert_eq!(
            FsyncPolicy::parse("checkpoint"),
            Some(FsyncPolicy::OnCheckpoint)
        );
        assert_eq!(
            FsyncPolicy::parse("every:64"),
            Some(FsyncPolicy::EveryN(64))
        );
        for bad in ["", "every", "every:", "every:0", "every:x", "always"] {
            assert_eq!(FsyncPolicy::parse(bad), None, "spec {bad:?}");
        }
    }

    #[test]
    fn packet_roundtrips_through_wal_encoding() {
        let p = Packet {
            ts: 123_456_789,
            src_ip: 0xDEAD_BEEF,
            dst_ip: 0x0A00_0001,
            src_port: 54321,
            dst_port: 443,
            len: 1500,
            proto: Proto::Udp,
        };
        // Out-of-order second packet: the ts delta goes negative (and the
        // first delta is the full absolute value) — both must round-trip
        // exactly through the zigzag wrapping arithmetic.
        let q = Packet {
            ts: 99,
            src_ip: 0,
            dst_ip: u32::MAX,
            src_port: 0,
            dst_port: u16::MAX,
            len: u32::MAX,
            proto: Proto::Tcp,
        };
        let mut buf = Vec::new();
        let mut prev = 0u64;
        put_packet(&mut buf, &p, &mut prev);
        put_packet(&mut buf, &q, &mut prev);
        let mut r = Reader::new(&buf);
        let mut prev = 0u64;
        assert_eq!(read_packet(&mut r, &mut prev).expect("decode"), p);
        assert_eq!(read_packet(&mut r, &mut prev).expect("decode"), q);
        assert!(r.is_empty());
    }

    #[test]
    fn uvarint_roundtrips_and_rejects_overlong() {
        for v in [0u64, 1, 127, 128, 300, 16_383, 16_384, u64::MAX] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
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

    #[test]
    fn commit_state_roundtrips() {
        let c = CommitState {
            position: 10_000,
            watermark: 77_000_000,
            closed_below: 12,
            rr: 3,
            tuples_in: 10_000,
            filtered: 55,
            late_drops: 7,
            hi: vec![101, 99, 0, 42],
            producers: Vec::new(),
        };
        let mut buf = Vec::new();
        c.encode(&mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), KIND_COMMIT);
        assert_eq!(CommitState::decode(&mut r, 4).expect("decode"), c);
        // Wrong shard count is rejected, not misread.
        let mut r = Reader::new(&buf);
        let _ = r.u8();
        assert!(CommitState::decode(&mut r, 3).is_none());
    }

    #[test]
    fn fabric_commit_state_roundtrips_producer_blocks() {
        let c = CommitState {
            position: 4_000,
            watermark: 90_000_000,
            closed_below: 8,
            rr: 1,
            tuples_in: 4_000,
            filtered: 12,
            late_drops: 3,
            hi: vec![7, 7],
            producers: vec![
                ProducerCommit {
                    watermark: 90_000_000,
                    closed_below: 8,
                    rr: 0,
                    epochs: 4,
                    tuples_in: 2_600,
                    filtered: 9,
                    late_drops: 1,
                },
                ProducerCommit {
                    watermark: 88_000_000,
                    closed_below: 7,
                    rr: 1,
                    epochs: 3,
                    tuples_in: 1_400,
                    filtered: 3,
                    late_drops: 2,
                },
            ],
        };
        let mut buf = Vec::new();
        c.encode(&mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), KIND_COMMIT);
        assert_eq!(CommitState::decode(&mut r, 2).expect("decode"), c);
        // A truncated producer block is rejected, never misread.
        let mut r = Reader::new(&buf[..buf.len() - 1]);
        let _ = r.u8();
        assert!(CommitState::decode(&mut r, 2).is_none());
    }

    #[test]
    fn wal_records_roundtrip_and_reject_garbage() {
        let pkts = vec![
            Packet {
                ts: 5,
                src_ip: 1,
                dst_ip: 2,
                src_port: 3,
                dst_port: 4,
                len: 100,
                proto: Proto::Tcp,
            };
            3
        ];
        let mut buf = Vec::new();
        buf.push(KIND_BATCH_WM);
        put_u64(&mut buf, 17);
        put_u64(&mut buf, 42_000_000);
        put_u32(&mut buf, pkts.len() as u32);
        let mut prev = 0u64;
        for p in &pkts {
            put_packet(&mut buf, p, &mut prev);
        }
        match decode_wal_record(&buf) {
            Some(ReplayMsg::Batch { seq, wm, pkts: got }) => {
                assert_eq!(seq, 17);
                assert_eq!(wm, 42_000_000);
                assert_eq!(got, pkts);
            }
            other => panic!("bad decode: {other:?}"),
        }
        // The legacy batch layout — no watermark field, exactly what every
        // pre-fabric store on disk holds — must keep parsing (wm = 0), not
        // be cut off as a torn record.
        let mut legacy = Vec::new();
        legacy.push(KIND_BATCH);
        put_u64(&mut legacy, 17);
        put_u32(&mut legacy, pkts.len() as u32);
        let mut prev = 0u64;
        for p in &pkts {
            put_packet(&mut legacy, p, &mut prev);
        }
        match decode_wal_record(&legacy) {
            Some(ReplayMsg::Batch { seq, wm, pkts: got }) => {
                assert_eq!(seq, 17);
                assert_eq!(wm, 0);
                assert_eq!(got, pkts);
            }
            other => panic!("bad legacy decode: {other:?}"),
        }
        // Truncated, oversized, and unknown-kind payloads all decode to
        // None (→ torn-record treatment), never panic.
        assert!(decode_wal_record(&buf[..buf.len() - 1]).is_none());
        let mut extended = buf.clone();
        extended.push(0);
        assert!(decode_wal_record(&extended).is_none());
        assert!(decode_wal_record(&[9, 0, 0]).is_none());
        assert!(decode_wal_record(&[]).is_none());
    }

    #[test]
    fn pre_fabric_store_recovers_without_truncation_and_keeps_working() {
        use crate::aggregators::fwd_sum_factory;
        use crate::engine::Engine;
        use crate::shard::{route_key, ShardedEngine};
        use crate::udaf::Query;
        use fd_core::decay::Monomial;

        // A store laid out byte-for-byte as the classic single dispatcher
        // wrote it before the ingress fabric existed: two shards with
        // independent seq counters (so unequal `hi`), watermark-less
        // KIND_BATCH records, a KIND_PUNCT broadcast, a commit with no
        // producer blocks, and no MANIFEST (crashed before the first
        // manifest commit — zero coverage). It must parse without a single
        // truncation, open under one producer, and from there behave like
        // any other store: commit, crash, reopen, and finish with the
        // single-threaded engine's rows, bit for bit.
        const BATCH: usize = 64;
        let q = || {
            Query::builder("legacy")
                .group_by(|p| p.dst_host())
                .bucket_secs(2)
                .aggregate(fwd_sum_factory(Monomial::quadratic(), |p| p.len as f64))
                .build()
        };
        let packets: Vec<Packet> = (0..6_000u32)
            .map(|i| Packet {
                ts: u64::from(i) * 1_000,
                src_ip: i,
                dst_ip: i * i % 5,
                src_port: 3,
                dst_port: 4,
                len: 40 + i % 1400,
                proto: Proto::Tcp,
            })
            .collect();
        let expected = Engine::new(q()).run(packets.clone());
        let dir = temp_store("legacy-store");
        std::fs::create_dir_all(&dir).expect("mkdir");

        // The classic dispatcher over the first 1 000 packets: stage per
        // shard, flush a shard at BATCH tuples, then flush the remainders
        // and broadcast the watermark.
        const LEGACY: usize = 1_000;
        let mut wal: [Vec<u8>; 2] = [Vec::new(), Vec::new()];
        let mut hi = [0u64; 2];
        let mut batches = 0u64;
        let mut flush = |shard: usize, staged: &mut Vec<Packet>| {
            hi[shard] += 1;
            batches += 1;
            let mut payload = vec![KIND_BATCH];
            put_u64(&mut payload, hi[shard]);
            put_u32(&mut payload, staged.len() as u32);
            let mut prev = 0u64;
            for p in staged.drain(..) {
                put_packet(&mut payload, &p, &mut prev);
            }
            put_frame(&mut wal[shard], &payload);
        };
        let mut staged: [Vec<Packet>; 2] = [Vec::new(), Vec::new()];
        for p in &packets[..LEGACY] {
            let shard = route_key(p.dst_host(), 2);
            staged[shard].push(*p);
            if staged[shard].len() == BATCH {
                flush(shard, &mut staged[shard]);
            }
        }
        let watermark = packets[LEGACY - 1].ts;
        for (shard, rest) in staged.iter_mut().enumerate() {
            if !rest.is_empty() {
                flush(shard, rest);
            }
        }
        for shard in 0..2 {
            hi[shard] += 1;
            let mut payload = vec![KIND_PUNCT];
            put_u64(&mut payload, hi[shard]);
            put_u64(&mut payload, watermark);
            put_frame(&mut wal[shard], &payload);
            std::fs::write(dir.join(wal_name(shard, 1)), &wal[shard]).expect("write wal");
        }
        assert_ne!(hi[0], hi[1], "the classic shards counted independently");
        let commit = CommitState {
            position: LEGACY as u64,
            watermark,
            closed_below: 0,
            rr: 0,
            tuples_in: LEGACY as u64,
            filtered: 0,
            late_drops: 0,
            hi: hi.to_vec(),
            producers: Vec::new(),
        };
        let mut ctl = Vec::new();
        let mut payload = Vec::new();
        commit.encode(&mut payload);
        put_frame(&mut ctl, &payload);
        std::fs::write(dir.join(ctl_name(1)), &ctl).expect("write ctl");

        // Every record parses — none is misread into the newer layout and
        // cut off as torn.
        let io: Arc<dyn IoBackend> = Arc::new(crate::io::StdFs);
        let rec = recover(&io, &dir, 2).expect("recover legacy store");
        assert_eq!(rec.truncated, 0, "legacy records must parse, not be cut");
        assert_eq!(rec.commit, commit);
        assert!(rec.resumed);
        for (replay, &hi) in rec.replay.iter().zip(&hi) {
            assert_eq!(replay.len() as u64, hi);
            match &replay[0] {
                ReplayMsg::Batch { seq, wm, pkts } => {
                    assert_eq!((*seq, *wm), (1, 0), "implied watermark is 0");
                    assert_eq!(pkts.len(), BATCH);
                }
                other => panic!("bad replay head: {other:?}"),
            }
            match replay.last() {
                Some(ReplayMsg::Punct { seq, wm }) => assert_eq!((*seq, *wm), (hi, watermark)),
                other => panic!("bad replay tail: {other:?}"),
            }
        }

        let open = |producers: usize| {
            ShardedEngine::try_new(q(), 2)
                .and_then(|e| e.try_batch_size(BATCH))
                .and_then(|e| e.checkpoint_every(512).try_producers(producers))
                .and_then(|e| e.try_durable(&dir, DurabilityOptions::default()))
        };
        // The classic seq streams are not an epoch interleaving: more than
        // one producer cannot resume them.
        match open(2) {
            Err(fd_core::Error::Durability { detail }) => {
                assert!(detail.contains("written with 0 producers"), "{detail}")
            }
            Err(other) => panic!("expected a Durability refusal, got {other:?}"),
            Ok(_) => panic!("two producers opened a classic store"),
        }
        // One producer can. Feed on and commit; a clean finish makes the
        // commit durable for certain.
        const COMMITTED: usize = 3_500;
        {
            let (mut e, report) = open(1).expect("open the legacy store");
            assert!(report.resumed);
            assert_eq!(report.truncated_records, 0);
            assert_eq!(report.position, LEGACY as u64);
            assert_eq!(report.replayed_batches, batches);
            assert_eq!(report.replayed_tuples, LEGACY as u64);
            for chunk in packets[LEGACY..COMMITTED].chunks(500) {
                e.try_process_packets(chunk).expect("feed");
            }
            e.durable_commit(COMMITTED as u64).expect("commit");
            e.finish();
        }
        // The reopened store carries the per-shard seq bases forward. Feed
        // some more and crash uncommitted …
        {
            let (mut e, report) = open(1).expect("reopen");
            assert_eq!(report.position, COMMITTED as u64);
            assert_eq!(report.truncated_records, 0);
            e.try_process_packets(&packets[COMMITTED..COMMITTED + 700])
                .expect("feed");
        }
        // … which costs nothing but the re-feed.
        let (mut e, report) = open(1).expect("reopen after the crash");
        assert_eq!(report.position, COMMITTED as u64);
        e.try_process_packets(&packets[COMMITTED..]).expect("feed");
        let rows = e.finish();
        assert_same_bits(&expected, &rows, "continued from the classic store");
        drop(e);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The fixture of the two tests below: 6 000 tuples over three 2 s
    /// buckets and a handful of groups, few enough that no LFTA slot is
    /// shared — sharded rows then equal the single-threaded engine's to
    /// the bit.
    fn three_bucket_fixture() -> (impl Fn() -> crate::udaf::Query, Vec<Packet>) {
        use crate::aggregators::fwd_sum_factory;
        use fd_core::decay::Monomial;
        let q = || {
            crate::udaf::Query::builder("closed-deltas")
                .group_by(|p| p.dst_host())
                .bucket_secs(2)
                .aggregate(fwd_sum_factory(Monomial::quadratic(), |p| p.len as f64))
                .build()
        };
        let packets = (0..6_000u32)
            .map(|i| Packet {
                ts: u64::from(i) * 1_000,
                src_ip: i,
                dst_ip: i * i % 5,
                src_port: 3,
                dst_port: 4,
                len: 40 + i % 1400,
                proto: Proto::Tcp,
            })
            .collect();
        (q, packets)
    }

    fn temp_store(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "fd-{label}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn assert_same_bits(want: &[crate::engine::Row], got: &[crate::engine::Row], label: &str) {
        assert_eq!(want.len(), got.len(), "{label}: row count");
        for (w, g) in want.iter().zip(got) {
            assert_eq!((w.bucket_start, w.key), (g.bucket_start, g.key), "{label}");
            assert_eq!(
                w.value.as_float().map(f64::to_bits),
                g.value.as_float().map(f64::to_bits),
                "{label}: bucket {} key {}",
                w.bucket_start,
                w.key
            );
        }
    }

    #[test]
    fn every_closed_group_is_persisted_exactly_once() {
        use crate::engine::{read_closed_groups, Engine};
        use crate::shard::ShardedEngine;

        let (q, packets) = three_bucket_fixture();
        let expected = Engine::new(q()).run(packets.clone());
        let dir = temp_store("once");
        let (mut e, _) = ShardedEngine::try_new(q(), 2)
            .and_then(|e| e.try_batch_size(64))
            .and_then(|e| {
                e.checkpoint_every(256)
                    .try_durable(&dir, DurabilityOptions::default())
            })
            .expect("open");
        for (i, chunk) in packets.chunks(500).enumerate() {
            e.try_process_packets(chunk).expect("feed");
            e.durable_commit(((i + 1) * 500) as u64).expect("commit");
        }
        let rows = e.finish();
        assert_same_bits(&expected, &rows, "durable run");
        drop(e);

        // What is on disk: per shard, deltas that name each (bucket, key)
        // once, all of it closed before the checkpoint they sit beside,
        // and a checkpoint whose own closed section is empty.
        let io: Arc<dyn IoBackend> = Arc::new(crate::io::StdFs);
        let rec = recover(&io, &dir, 2).expect("recover");
        let mut persisted = 0usize;
        for s in 0..2 {
            let (_, blob) = rec.ckpts[s].as_ref().expect("a checkpoint per shard");
            let mut restored = Engine::restore(q(), blob).expect("restore");
            assert!(
                restored.drain_closed_state().is_empty(),
                "shard {s}: the checkpoint still carries closed groups"
            );
            let mut seen = std::collections::BTreeSet::new();
            for section in &rec.closed[s] {
                let mut r = Reader::new(section);
                for g in read_closed_groups(&mut r, &q()).expect("decode delta") {
                    assert!(g.bucket < 2, "only buckets 0 and 1 closed mid-stream");
                    assert!(
                        seen.insert((g.bucket, g.key)),
                        "shard {s}: ({}, {}) persisted twice",
                        g.bucket,
                        g.key
                    );
                }
                assert!(r.is_empty());
            }
            assert_eq!(rec.closed_groups(s), seen.len());
            persisted += seen.len();
        }
        let closed_mid_stream = expected
            .iter()
            .filter(|r| r.bucket_start < 4_000_000)
            .count();
        assert_eq!(persisted, closed_mid_stream, "buckets 0 and 1, whole");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_written_before_closed_deltas_opens_drains_and_finishes_exactly() {
        use crate::engine::Engine;
        use crate::shard::ShardedEngine;

        // A store as the previous format wrote it — closed groups inside
        // every checkpoint, a v1 MANIFEST, no closed-deltas — made from a
        // store this build writes by moving each shard's deltas back into
        // the closed section of its checkpoint, which is exactly where
        // (and how) the old worker serialized them.
        let (q, packets) = three_bucket_fixture();
        let expected = Engine::new(q()).run(packets.clone());
        let dir = temp_store("pre-delta");
        let open = || {
            ShardedEngine::try_new(q(), 2)
                .and_then(|e| e.try_batch_size(64))
                .and_then(|e| {
                    e.checkpoint_every(256)
                        .try_durable(&dir, DurabilityOptions::default())
                })
        };
        const WRITTEN: usize = 4_600; // past two bucket closes, into bucket 2
        {
            let (mut e, _) = open().expect("open");
            for (i, chunk) in packets[..WRITTEN].chunks(460).enumerate() {
                e.try_process_packets(chunk).expect("feed");
                e.durable_commit(((i + 1) * 460) as u64).expect("commit");
            }
            e.finish();
        }
        let io: Arc<dyn IoBackend> = Arc::new(crate::io::StdFs);
        let rec = recover(&io, &dir, 2).expect("recover");
        let mut image = Vec::new();
        let mut moved_back = 0usize;
        for s in 0..2 {
            let (seq, blob) = rec.ckpts[s].as_ref().expect("a checkpoint per shard");
            // `… | closed section | header | header_len`: the section is
            // the bare count 0 just before the header.
            let header_len =
                u64::from_le_bytes(blob[blob.len() - 8..].try_into().unwrap()) as usize;
            let at = blob.len() - 8 - header_len - 8;
            assert_eq!(blob[at..at + 8], [0u8; 8], "an empty closed section");
            begin_file_image(&mut image, MAGIC_CKPT);
            put_u64(&mut image, *seq);
            image.extend_from_slice(&blob[..at]);
            put_u64(&mut image, rec.closed_groups(s) as u64);
            for section in &rec.closed[s] {
                image.extend_from_slice(&section[8..]);
            }
            image.extend_from_slice(&blob[at + 8..]);
            seal_file_image(&mut image);
            std::fs::write(dir.join(ckpt_name(s, rec.ckpt_version[s])), &image).expect("ckpt");
            for k in 1..=rec.closed[s].len() as u64 {
                std::fs::remove_file(dir.join(closed_name(s, k))).expect("drop delta");
            }
            moved_back += rec.closed_groups(s);
        }
        let closed_mid_stream = expected
            .iter()
            .filter(|r| r.bucket_start < 4_000_000)
            .count();
        assert_eq!(
            moved_back, closed_mid_stream,
            "both closed buckets ride in the checkpoints"
        );
        begin_file_image(&mut image, MAGIC_MANIFEST_V1);
        put_u64(&mut image, rec.manifest_version);
        put_u32(&mut image, 2);
        for s in 0..2 {
            put_u64(&mut image, rec.ckpt_version[s]);
            put_u64(&mut image, rec.covered[s]);
        }
        seal_file_image(&mut image);
        std::fs::write(dir.join(MANIFEST_NAME), &image).expect("manifest");

        // It recovers as what it is: checkpoints, no deltas …
        let old = recover(&io, &dir, 2).expect("recover the old layout");
        assert_eq!(old.truncated, 0);
        assert_eq!(old.commit.position, WRITTEN as u64);
        assert!(old.closed.iter().all(Vec::is_empty));
        assert_eq!(old.covered, rec.covered);
        // … opens, continues across the next bucket close, and finishes
        // with the single-threaded engine's rows.
        let (mut e, report) = open().expect("open the old store");
        assert!(report.resumed);
        assert_eq!(report.position, WRITTEN as u64);
        e.try_process_packets(&packets[WRITTEN..5_500])
            .expect("feed");
        e.durable_commit(5_500).expect("commit");
        e.try_process_packets(&packets[5_500..]).expect("feed");
        e.durable_commit(packets.len() as u64).expect("commit");
        let rows = e.finish();
        assert_same_bits(&expected, &rows, "continued from the old store");
        drop(e);
        // The first new checkpoint drained the old closed sections into
        // closed-deltas, under a v2 manifest; the store reopens to the
        // same rows from disk alone.
        let upgraded = recover(&io, &dir, 2).expect("recover the upgraded store");
        assert!(
            (0..2).map(|s| upgraded.closed_groups(s)).sum::<usize>() >= closed_mid_stream,
            "the old closed sections became deltas"
        );
        let manifest = std::fs::read(dir.join(MANIFEST_NAME)).expect("manifest");
        assert!(file_image_payload(&manifest, MAGIC_MANIFEST).is_some());
        let (mut e, report) = open().expect("reopen");
        assert_eq!(report.position, packets.len() as u64);
        assert_same_bits(&expected, &e.finish(), "upgraded store, reopened");
        drop(e);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_names_roundtrip_and_sort() {
        assert_eq!(
            parse_wal_name(&wal_name(3, 1001)),
            Some((3, 1001)),
            "wal name"
        );
        assert_eq!(parse_ctl_name(&ctl_name(7)), Some(7));
        assert_eq!(parse_ckpt_name(&ckpt_name(2, 9)), Some((2, 9)));
        assert_eq!(parse_wal_name("MANIFEST"), None);
        assert_eq!(parse_wal_name("wal-x-1.seg"), None);
        // Zero-padded names sort lexicographically in numeric order.
        assert!(wal_name(0, 9) < wal_name(0, 10));
        assert!(ctl_name(99) < ctl_name(100));
    }
}
