//! The writer thread: appends the logs, persists the worker checkpoints,
//! advances the manifest and garbage-collects behind it.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;

use fd_core::checkpoint::put_frame;

use super::codec::{self, CommitState, Manifest};
use super::recover::Resume;
use super::sink::WalCmd;
use super::{DurabilityOptions, FsyncPolicy, StoreFile};
use crate::groups;
use crate::io::{join, IoBackend, IoFile};
use crate::spsc::{BatchPool, RingReceiver};
use crate::supervisor::CheckpointSlot;
use crate::telemetry::EngineTelemetry;
use crate::tuple::Packet;

/// What the sink and the writer tell each other outside the ring.
#[derive(Default)]
pub(super) struct Flags {
    /// The writer hit a persistent disk failure (or vanished): the engine
    /// runs on in-memory supervision only.
    pub(super) degraded: AtomicBool,
    /// The sink was dropped without `finish`: stop without writing.
    pub(super) abandoned: AtomicBool,
}

/// One append-only log (a shard's WAL or the control log) with size-based
/// segment rotation.
#[derive(Default)]
struct SegWriter {
    file: Option<Box<dyn IoFile>>,
    /// The segment appended to — after recovery, the one it decided to
    /// keep, opened lazily on the first append. Empty before the first.
    name: String,
    bytes: u64,
    dirty: bool,
}

impl SegWriter {
    /// Appends one framed record, rotating to the fresh segment `next`
    /// when the current one is full. Says whether it rotated.
    fn append(
        &mut self,
        io: &dyn IoBackend,
        dir: &Path,
        frame: &[u8],
        segment_bytes: u64,
        next: StoreFile,
    ) -> io::Result<bool> {
        let rotate = self.name.is_empty() || self.bytes >= segment_bytes;
        if rotate {
            // Seal the old segment durably before moving on, so "sync all
            // open files" at manifest time covers every unsynced byte.
            if let Some(mut f) = self.file.take() {
                f.sync()?;
            }
            self.name = next.name();
            self.bytes = 0;
            self.dirty = false;
        }
        let f = match &mut self.file {
            Some(f) => f,
            none => none.insert(io.open_append(&join(dir, &self.name))?),
        };
        f.append(frame)?;
        self.bytes += frame.len() as u64;
        self.dirty = true;
        Ok(rotate)
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

pub(super) struct Writer {
    io: Arc<dyn IoBackend>,
    dir: PathBuf,
    fsync: FsyncPolicy,
    segment_bytes: u64,
    wal: Vec<SegWriter>,
    ctl: SegWriter,
    ctl_next_id: u64,
    slots: Vec<Arc<CheckpointSlot>>,
    /// What the newest published `MANIFEST` says.
    manifest: Manifest,
    /// Per shard: how many of the slot's closed groups the manifest's
    /// closed-deltas hold — the slot's list only grows while the writer
    /// lives, so this prefix is what never needs writing again.
    closed_persisted: Vec<usize>,
    appends_since_sync: u64,
    /// The newest commit record's `hi`, once there is one.
    committed: Option<Vec<u64>>,
    telemetry: Arc<EngineTelemetry>,
    pub(super) flags: Arc<Flags>,
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
    /// A writer that picks the store up where recovery left it.
    pub(super) fn new(
        dir: &Path,
        io: Arc<dyn IoBackend>,
        opts: &DurabilityOptions,
        resume: Resume,
        slots: Vec<Arc<CheckpointSlot>>,
        telemetry: Arc<EngineTelemetry>,
        pools: Vec<BatchPool<Packet>>,
    ) -> Self {
        assert!(!pools.is_empty(), "one recycle pool per producer");
        let seg = |at: Option<(String, u64)>| {
            let (name, bytes) = at.unwrap_or_default();
            SegWriter {
                name,
                bytes,
                ..SegWriter::default()
            }
        };
        Self {
            io,
            dir: dir.to_path_buf(),
            fsync: opts.fsync,
            segment_bytes: opts.segment_bytes.max(4096),
            wal: resume.wal.into_iter().map(seg).collect(),
            ctl: seg(resume.ctl),
            ctl_next_id: resume.ctl_next_id,
            slots,
            manifest: resume.manifest,
            closed_persisted: resume.closed_persisted,
            appends_since_sync: 0,
            committed: None,
            telemetry,
            flags: Arc::default(),
            payload_buf: Vec::new(),
            frame_buf: Vec::new(),
            delta_buf: Vec::new(),
            pools,
        }
    }

    pub(super) fn run(mut self, rx: RingReceiver<WalCmd>) {
        while let Some(cmd) = rx.recv() {
            if self.flags.abandoned.load(Relaxed) {
                // Engine dropped without finish(): stop dead. No flush, no
                // fsync, no rename — see `Drop for DurableSink`.
                return;
            }
            if self.flags.degraded.load(Relaxed) {
                match cmd {
                    WalCmd::Finish => return,
                    // Drain and discard so the dispatcher never blocks —
                    // but keep recycling, as below.
                    WalCmd::Epoch { seq, pkts, .. } => self.recycle(seq, pkts),
                    WalCmd::Commit(_) => {}
                }
                continue;
            }
            let result = match cmd {
                WalCmd::Epoch {
                    shard,
                    seq,
                    wm,
                    pkts,
                } => {
                    self.payload_buf.clear();
                    codec::encode_epoch(&mut self.payload_buf, seq, wm, &pkts);
                    let r = self.append_framed(Some(shard), seq).map(drop);
                    self.recycle(seq, pkts);
                    r
                }
                WalCmd::Commit(c) => self.handle_commit(c),
                WalCmd::Finish => {
                    // Clean shutdown: make everything written so far
                    // durable and commit a final manifest (regardless of
                    // fsync policy), so a clean run's store recovers with
                    // zero replay.
                    let flushed = match self.committed.take() {
                        Some(hi) => self.persist_checkpoints(&hi, true),
                        None => self.sync_all(),
                    };
                    if let Err(e) = flushed {
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
    /// is recoverable from the seq — epochs obey
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
        self.flags.degraded.store(true, Relaxed);
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

    /// Frames `self.payload_buf` and appends it to `shard`'s WAL, or to
    /// the control log; a rotation opens the segment `rotate_id` names.
    /// Says whether it rotated.
    fn append_framed(&mut self, shard: Option<usize>, rotate_id: u64) -> io::Result<bool> {
        self.frame_buf.clear();
        put_frame(&mut self.frame_buf, &self.payload_buf);
        let (seg, next) = match shard {
            Some(s) => (&mut self.wal[s], StoreFile::Wal(s, rotate_id)),
            None => (&mut self.ctl, StoreFile::Ctl(rotate_id)),
        };
        let io = self.io.as_ref();
        let rotated = seg.append(io, &self.dir, &self.frame_buf, self.segment_bytes, next)?;
        let written = self.frame_buf.len() as u64;
        self.telemetry.wal_bytes_written.fetch_add(written, Relaxed);
        self.appends_since_sync += 1;
        match self.fsync {
            FsyncPolicy::EveryBatch => {
                seg.sync()?;
                self.appends_since_sync = 0;
            }
            FsyncPolicy::EveryN(n) if self.appends_since_sync >= n => self.sync_all()?,
            _ => {}
        }
        Ok(rotated)
    }

    fn handle_commit(&mut self, c: CommitState) -> io::Result<()> {
        self.payload_buf.clear();
        c.encode(&mut self.payload_buf);
        if self.append_framed(None, self.ctl_next_id)? {
            self.ctl_next_id += 1;
        }
        self.persist_checkpoints(&c.hi, false)?;
        self.committed = Some(c.hi);
        Ok(())
    }

    /// Persists any worker checkpoint that advanced past the manifest
    /// coverage **without overshooting `hi`, the newest commit's** — a
    /// snapshot newer than the newest durable commit would make recovery
    /// impossible
    /// (the WAL tail between coverage and the commit must replay onto
    /// the checkpoint) — together with the closed groups handed off since
    /// the shard's previous persist, as one write-once closed-delta: the
    /// snapshot no longer holds them, so each is written exactly once.
    /// Then commits a new manifest and garbage-collects.
    fn persist_checkpoints(&mut self, hi: &[u64], force_manifest: bool) -> io::Result<()> {
        if self.flags.abandoned.load(Relaxed) {
            return Ok(());
        }
        let mut advanced = false;
        for (s, &hi) in hi.iter().enumerate() {
            let current = self.manifest.shards[s];
            let within = |seq: u64| seq > current.covered && seq <= hi;
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
            let next_delta = current.closed_deltas + 1;
            let cut = self.slots[s].read(|v| {
                // The slot may have moved since the pre-check.
                if !within(v.seq) {
                    return Ok(None);
                }
                codec::begin_ckpt(ckpt, v.seq);
                ckpt.extend_from_slice(v.blob);
                codec::seal(ckpt);
                let fresh = groups::after(v.closed, persisted);
                if !fresh.is_empty() {
                    codec::begin_closed_delta(delta, next_delta, v.seq);
                    groups::put_closed(delta, fresh).ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            "a closed group declined to serialize",
                        )
                    })?;
                    codec::seal(delta);
                }
                Ok::<_, io::Error>(Some((v.seq, groups::groups(v.closed))))
            });
            let Some((seq, closed_len)) = cut.transpose()?.flatten() else {
                continue;
            };
            // The delta first: until the manifest below names it, it is an
            // orphan that recovery ignores and the next persist overwrites.
            let mut next = current;
            if closed_len > persisted {
                self.publish(StoreFile::Closed(s, next_delta), &self.delta_buf)?;
                next.closed_deltas = next_delta;
                self.closed_persisted[s] = closed_len;
            }
            next.ckpt_version += 1;
            next.covered = seq;
            self.publish(StoreFile::Ckpt(s, next.ckpt_version), &self.frame_buf)?;
            self.manifest.shards[s] = next;
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
        self.manifest.version += 1;
        self.manifest.encode(&mut self.frame_buf);
        self.publish(StoreFile::Manifest, &self.frame_buf)?;
        self.io.sync_dir(&self.dir)?;
        self.gc();
        Ok(())
    }

    /// Publishes one whole-file image atomically: tmp + fsync + read-back
    /// verify + rename. The read-back is what keeps a silently corrupted
    /// file (bad RAM, lying disk, injected corrupt-byte fault) from being
    /// published — once the manifest points at it and the WAL below it is
    /// GC'd, recovery would have nowhere to go.
    fn publish(&self, file: StoreFile, image: &[u8]) -> io::Result<()> {
        let final_name = file.name();
        let tmp_path = join(&self.dir, &format!("{final_name}.tmp"));
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
        self.io.rename(&tmp_path, &join(&self.dir, &final_name))
    }

    fn sync_all(&mut self) -> io::Result<()> {
        for w in &mut self.wal {
            w.sync()?;
        }
        self.ctl.sync()?;
        self.appends_since_sync = 0;
        Ok(())
    }

    /// Stateless garbage collection by directory listing, run after every
    /// manifest commit. Best-effort: a failed delete is retried at the
    /// next commit, never a degradation.
    fn gc(&mut self) {
        let Ok(names) = self.io.list(&self.dir) else {
            return;
        };
        let shards = &self.manifest.shards;
        let mut wal_segs: Vec<Vec<u64>> = vec![Vec::new(); shards.len()];
        for name in &names {
            let dead = match StoreFile::parse(name) {
                Some(StoreFile::Wal(s, first)) if s < shards.len() => {
                    wal_segs[s].push(first);
                    false
                }
                // Sealed control segments: the commit that produced this
                // manifest lives in the current segment, and any older
                // commit is subsumed by it.
                Some(StoreFile::Ctl(_)) => *name != self.ctl.name,
                // Checkpoints older than the manifest-current version, and
                // closed-deltas past the manifest's count (orphans of a
                // crash between their rename and the manifest's). Deltas
                // the manifest names are never collected: they are the
                // run's closed buckets.
                Some(StoreFile::Ckpt(s, v)) => s < shards.len() && v < shards[s].ckpt_version,
                Some(StoreFile::Closed(s, k)) => s < shards.len() && k > shards[s].closed_deltas,
                // Any leftover tmp file from a crashed writer.
                _ => name.ends_with(".tmp"),
            };
            if dead {
                let _ = self.io.remove_file(&join(&self.dir, name));
            }
        }
        for (s, firsts) in wal_segs.iter_mut().enumerate() {
            firsts.sort_unstable();
            // Segment i spans [firsts[i], firsts[i+1] - 1]; droppable when
            // its whole span is at or below the manifest coverage. The
            // newest segment is always kept (it is still being written).
            for w in firsts.windows(2) {
                if w[1].saturating_sub(1) <= shards[s].covered {
                    let name = StoreFile::Wal(s, w[0]).name();
                    let _ = self.io.remove_file(&join(&self.dir, &name));
                }
            }
        }
    }
}
