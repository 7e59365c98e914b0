//! Opening a store: read everything, decide, and only then cut.
//!
//! [`recover`] scans the directory and either refuses it — leaving every
//! byte as found, because a refused store is evidence — or returns the
//! newest consistent state and, as its very last step, applies the cuts
//! that state implies: torn tails, records past a sequence gap, and
//! everything past the chosen commit.

use std::path::Path;

use fd_core::checkpoint::{read_frame, Frame};

use super::codec::{self, CommitState, Decoded, Manifest, ReplayMsg};
use super::{err, StoreFile};
use crate::io::{join, IoBackend};

/// Everything [`recover`] learned from a store directory, consumed by
/// [`ShardedEngine::try_durable`](crate::shard::ShardedEngine::try_durable)
/// to preload slots and queues.
#[derive(Debug)]
pub(crate) struct Recovered {
    /// The chosen durable commit (the all-zero baseline for a store that
    /// never committed).
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
    /// `false` when the directory held no prior store.
    pub resumed: bool,
    /// Where the writer picks up.
    pub resume: Resume,
}

/// The writer's starting state: what [`recover`] found current and kept.
#[derive(Debug)]
pub(crate) struct Resume {
    pub(super) manifest: Manifest,
    /// Per shard: how many closed groups the manifest's deltas hold.
    pub(super) closed_persisted: Vec<usize>,
    /// Per shard: the segment to keep appending to (name, byte length).
    pub(super) wal: Vec<Option<(String, u64)>>,
    pub(super) ctl: Option<(String, u64)>,
    pub(super) ctl_next_id: u64,
}

/// One verified record of a [`Chain`], and where it sits.
struct Rec<T> {
    seg: usize,
    start: u64,
    end: u64,
    rec: T,
}

/// One log — an ordered chain of segment files — as scanned, and the
/// decision what to keep of it.
struct Chain<T> {
    names: Vec<String>,
    /// Byte length of each segment that was read.
    lens: Vec<u64>,
    /// The verified records still kept, in log order.
    recs: Vec<Rec<T>>,
    /// The decision: `names[..keep.0]` stay, the last of them at `keep.1`
    /// bytes; every later segment goes.
    keep: (usize, u64),
}

impl<T> Chain<T> {
    /// Reads the chain up to its first torn frame or undecodable payload.
    /// Segments past a torn one are unreachable — their records would
    /// leave a hole — and are not read. Returns the chain and how many
    /// cuts that is (the torn segment, and each unreachable one). A record
    /// some other build wrote refuses the store.
    fn scan(
        io: &dyn IoBackend,
        dir: &Path,
        names: Vec<String>,
        decode: impl Fn(&[u8]) -> Decoded<T>,
    ) -> Result<(Self, u64), fd_core::Error> {
        let (mut lens, mut recs, mut valid) = (Vec::new(), Vec::new(), 0);
        for (seg, name) in names.iter().enumerate() {
            let data = io
                .read(&join(dir, name))
                .map_err(|e| err(format!("cannot read {name}: {e}")))?;
            lens.push(data.len() as u64);
            valid = 0;
            while let Frame::Complete { payload, consumed } = read_frame(&data[valid..]) {
                match decode(payload) {
                    Decoded::Record(rec) => recs.push(Rec {
                        seg,
                        start: valid as u64,
                        end: (valid + consumed) as u64,
                        rec,
                    }),
                    // Framed correctly but not a whole record: same
                    // treatment as a torn frame — cut here.
                    Decoded::Torn => break,
                    Decoded::Unsupported(what) => return Err(err(format!("{name} holds {what}"))),
                }
                valid += consumed;
            }
            if valid < data.len() {
                break;
            }
        }
        let cuts = match lens.last() {
            Some(&len) if (valid as u64) < len => 1 + (names.len() - lens.len()) as u64,
            _ => 0,
        };
        let keep = (lens.len(), valid as u64);
        let chain = Self {
            names,
            lens,
            recs,
            keep,
        };
        Ok((chain, cuts))
    }

    /// Decides to keep only the first `n_recs` records: the chain ends in
    /// segment `seg` at `len` bytes. Returns how many whole segments that
    /// newly drops.
    fn cut(&mut self, n_recs: usize, seg: usize, len: u64) -> u64 {
        let dropped = self.keep.0 - (seg + 1);
        self.recs.truncate(n_recs);
        self.keep = (seg + 1, len);
        dropped as u64
    }

    /// [`cut`](Self::cut) just before record `k`.
    fn cut_before(&mut self, k: usize) -> u64 {
        let (seg, start) = (self.recs[k].seg, self.recs[k].start);
        self.cut(k, seg, start)
    }

    /// The segment the writer keeps appending to (name, byte length).
    fn resume(&self) -> Option<(String, u64)> {
        let last = self.keep.0.checked_sub(1)?;
        Some((self.names[last].clone(), self.keep.1))
    }

    /// Makes the directory match the decision — the only place recovery
    /// writes. Later segments go first, newest first, so a crash between
    /// two cuts never leaves a hole in the chain.
    fn apply(&self, io: &dyn IoBackend, dir: &Path) -> Result<(), fd_core::Error> {
        for name in self.names[self.keep.0..].iter().rev() {
            io.remove_file(&join(dir, name))
                .map_err(|e| err(format!("cannot drop unreachable segment {name}: {e}")))?;
        }
        match self.keep.0.checked_sub(1) {
            Some(last) if self.keep.1 < self.lens[last] => io
                .truncate(&join(dir, &self.names[last]), self.keep.1)
                .map_err(|e| err(format!("cannot truncate {}: {e}", self.names[last]))),
            _ => Ok(()),
        }
    }
}

/// Reads and parses a file the manifest names: it must be there and
/// intact, or what `lost` describes is gone for good.
fn load<T>(
    io: &dyn IoBackend,
    dir: &Path,
    file: StoreFile,
    lost: &str,
    parse: impl FnOnce(&[u8]) -> Option<T>,
) -> Result<(String, T), fd_core::Error> {
    let name = file.name();
    let refuse = |how: &str| {
        err(format!(
            "manifest names {name} but it {how} ({lost} — refusing to guess)"
        ))
    };
    let data = io
        .read(&join(dir, &name))
        .map_err(|e| refuse(&format!("cannot be read: {e}")))?;
    let parsed =
        parse(&data).ok_or_else(|| refuse("is corrupt (bad magic, checksum or length)"))?;
    Ok((name, parsed))
}

/// The names of one chain, in log order.
fn in_order(mut segs: Vec<(u64, String)>) -> Vec<String> {
    segs.sort_unstable();
    segs.into_iter().map(|(_, name)| name).collect()
}

/// Scans a store directory and reconstructs the newest consistent state:
/// the newest commit `C` with `covered[s] ≤ C.hi[s] ≤ last good WAL seq`
/// on every shard (see the module docs). Never panics on any byte-level
/// damage. Torn tails are truncated and counted; damage below the last
/// commit, a store of another shard or producer count, and anything
/// another build of this engine wrote are explicit errors that leave the
/// directory untouched.
pub(crate) fn recover(
    io: &dyn IoBackend,
    dir: &Path,
    n_shards: usize,
    producers: usize,
) -> Result<Recovered, fd_core::Error> {
    io.create_dir_all(dir)
        .map_err(|e| err(format!("cannot create {}: {e}", dir.display())))?;
    let names = io
        .list(dir)
        .map_err(|e| err(format!("cannot list {}: {e}", dir.display())))?;

    let mut wal_names: Vec<Vec<(u64, String)>> = vec![Vec::new(); n_shards];
    let mut ctl_names: Vec<(u64, String)> = Vec::new();
    let mut manifest_present = false;
    for name in names {
        match StoreFile::parse(&name) {
            Some(StoreFile::Manifest) => manifest_present = true,
            Some(StoreFile::Wal(s, _)) if s >= n_shards => {
                return Err(err(format!(
                    "store has WAL for shard {s} but the engine has {n_shards} shards \
                     (shard count cannot change across restarts)"
                )));
            }
            Some(StoreFile::Wal(s, first)) => wal_names[s].push((first, name)),
            Some(StoreFile::Ctl(id)) => ctl_names.push((id, name)),
            _ => {}
        }
    }
    // An empty directory is the empty store: everything below finds
    // nothing, and the baseline comes out.
    let resumed =
        manifest_present || !ctl_names.is_empty() || wal_names.iter().any(|w| !w.is_empty());

    // --- Manifest ---------------------------------------------------------
    // Absent: the store was created and crashed before its first manifest
    // commit — valid, with zero coverage everywhere.
    let mut manifest = Manifest::fresh(n_shards);
    if manifest_present {
        let data = io
            .read(&join(dir, &StoreFile::Manifest.name()))
            .map_err(|e| err(format!("cannot read MANIFEST: {e}")))?;
        manifest = Manifest::decode(&data)?;
        if manifest.shards.len() != n_shards {
            return Err(err(format!(
                "store was written with {} shards but the engine has {n_shards} \
                 (shard count cannot change across restarts)",
                manifest.shards.len()
            )));
        }
    }

    // --- Checkpoints and closed-deltas ------------------------------------
    let mut ckpts: Vec<Option<(u64, Vec<u8>)>> = vec![None; n_shards];
    let mut closed: Vec<Vec<Vec<u8>>> = vec![Vec::new(); n_shards];
    let mut closed_persisted = vec![0usize; n_shards];
    for (s, m) in manifest.shards.iter().enumerate() {
        if m.ckpt_version == 0 && m.closed_deltas > 0 {
            return Err(err(format!(
                "manifest names {} closed-deltas for shard {s} but no checkpoint",
                m.closed_deltas
            )));
        }
        if m.ckpt_version > 0 {
            let lost = "the WAL below its coverage may be gone";
            let parse = |d: &[u8]| codec::parse_ckpt(d).map(|(seq, blob)| (seq, blob.to_vec()));
            let (name, ckpt) = load(io, dir, StoreFile::Ckpt(s, m.ckpt_version), lost, parse)?;
            if ckpt.0 != m.covered {
                return Err(err(format!(
                    "{name} covers seq {} but the manifest says {}",
                    ckpt.0, m.covered
                )));
            }
            ckpts[s] = Some(ckpt);
        }
        // Together the deltas are the closed buckets the checkpoint no
        // longer carries.
        let mut prev_seq = 0u64;
        for k in 1..=m.closed_deltas {
            let lost = "its closed buckets exist nowhere else";
            let parse = |d: &[u8]| {
                codec::parse_closed_delta(d, k).map(|(seq, n, section)| (seq, n, section.to_vec()))
            };
            let (name, (seq, groups, section)) =
                load(io, dir, StoreFile::Closed(s, k), lost, parse)?;
            if seq < prev_seq || seq > m.covered {
                return Err(err(format!(
                    "{name} was handed off at seq {seq}, outside ({prev_seq}, {}] \
                     where the manifest puts it",
                    m.covered
                )));
            }
            prev_seq = seq;
            closed_persisted[s] = closed_persisted[s].saturating_add(groups as usize);
            closed[s].push(section);
        }
    }

    // --- Per-shard WAL scan -----------------------------------------------
    let mut truncated = 0u64;
    let mut wal: Vec<Chain<ReplayMsg>> = Vec::with_capacity(n_shards);
    for (s, segs) in wal_names.into_iter().enumerate() {
        let covered = manifest.shards[s].covered;
        let (mut chain, cuts) = Chain::scan(io, dir, in_order(segs), codec::decode_epoch)?;
        truncated += cuts;
        // Sequence contiguity across the whole chain: a gap means records
        // were lost out from under us; everything at and past it is
        // unusable.
        let seq = |r: &Rec<ReplayMsg>| r.rec.seq;
        let gap =
            (chain.recs.windows(2)).position(|w| seq(&w[0]).checked_add(1) != Some(seq(&w[1])));
        if let Some(before) = gap {
            truncated += 1 + chain.cut_before(before + 1);
        }
        // The replay tail must connect to the checkpoint coverage: the
        // first record above `covered` has to be `covered + 1`.
        if let Some(q) = chain.recs.iter().map(seq).find(|&q| q > covered) {
            if q - 1 != covered {
                return Err(err(format!(
                    "shard {s}: WAL resumes at seq {q} but the checkpoint covers only \
                     {covered} — records in between are missing"
                )));
            }
        }
        wal.push(chain);
    }

    // --- Control log scan and commit selection -----------------------------
    // The newest commit whose hi-vector the on-disk state can honor.
    let decode_commit = |payload: &[u8]| CommitState::decode(payload, n_shards);
    let last_ctl_id = ctl_names.iter().map(|(id, _)| *id).max().unwrap_or(0);
    let (mut ctl, cuts) = Chain::scan(io, dir, in_order(ctl_names), decode_commit)?;
    truncated += cuts;
    let honorable = |c: &CommitState| {
        (manifest.shards.iter().zip(&wal).zip(&c.hi)).all(|((m, chain), &hi)| {
            let last_good = chain.recs.last().map_or(m.covered, |r| r.rec.seq);
            m.covered <= hi && hi <= last_good.max(m.covered)
        })
    };
    let commit = match ctl.recs.iter().rposition(|r| honorable(&r.rec)) {
        Some(k) => {
            let (seg, end) = (ctl.recs[k].seg, ctl.recs[k].end);
            ctl.cut(k + 1, seg, end);
            let c = ctl.recs.swap_remove(k).rec;
            if c.producers.len() != producers {
                return Err(err(format!(
                    "store was written with {} producers, engine configured with \
                     {producers}; the epoch interleaving is producer-count-specific",
                    c.producers.len()
                )));
            }
            c
        }
        None if !ctl.recs.is_empty() || manifest.shards.iter().any(|m| m.covered > 0) => {
            return Err(err(
                "no commit record is reachable from the on-disk checkpoints and WAL \
                 (the store is damaged below its last commit point)",
            ));
        }
        // No commit ever made it to disk and nothing is checkpointed: the
        // baseline (position 0) is the consistent state, and the (empty
        // or fully torn) control segments are useless.
        None => {
            ctl.keep = (0, 0);
            CommitState::new(0, n_shards, Vec::new())
        }
    };

    // --- Everything beyond the chosen commit goes --------------------------
    let mut replay = Vec::with_capacity(n_shards);
    for ((chain, m), &hi) in wal.iter_mut().zip(&manifest.shards).zip(&commit.hi) {
        if let Some(k) = chain.recs.iter().position(|r| r.rec.seq > hi) {
            chain.cut_before(k);
        }
        let tail = chain.recs.drain(..).map(|r| r.rec);
        replay.push(tail.filter(|r| r.seq > m.covered).collect());
    }

    // Nothing above this line changed the store; nothing below refuses it.
    for chain in &wal {
        chain.apply(io, dir)?;
    }
    ctl.apply(io, dir)?;
    Ok(Recovered {
        commit,
        ckpts,
        closed,
        replay,
        truncated,
        resumed,
        resume: Resume {
            manifest,
            closed_persisted,
            wal: wal.iter().map(Chain::resume).collect(),
            ctl: ctl.resume(),
            ctl_next_id: last_ctl_id.saturating_add(1),
        },
    })
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::path::PathBuf;

    use fd_core::checkpoint::{put_frame, Reader};
    use fd_core::decay::Monomial;

    use super::super::DurabilityOptions;
    use super::*;
    use crate::aggregators::fwd_sum_factory;
    use crate::engine::{Engine, Row};
    use crate::shard::ShardedEngine;
    use crate::tuple::{Packet, Proto};
    use crate::udaf::Query;

    /// 6 000 tuples over three 2 s buckets and a handful of groups, few
    /// enough that no LFTA slot is shared — sharded rows then equal the
    /// single-threaded engine's to the bit.
    fn query() -> Query {
        Query::builder("three-buckets")
            .group_by(|p| p.dst_host())
            .bucket_secs(2)
            .aggregate(fwd_sum_factory(Monomial::quadratic(), |p| p.len as f64))
            .try_build()
            .expect("valid query")
    }

    fn packets() -> Vec<Packet> {
        (0..6_000u32)
            .map(|i| Packet {
                ts: u64::from(i) * 1_000,
                src_ip: i,
                dst_ip: i * i % 5,
                src_port: 3,
                dst_port: 4,
                len: 40 + i % 1400,
                proto: Proto::Tcp,
            })
            .collect()
    }

    /// A store directory that removes itself.
    struct Store(PathBuf);

    impl Store {
        fn new(label: &str) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "fd-recover-{label}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("mkdir");
            Self(dir)
        }

        /// Every file, by name: what "byte for byte as found" compares.
        fn bytes(&self) -> BTreeMap<String, Vec<u8>> {
            let entries = std::fs::read_dir(&self.0).expect("list");
            let name = |e: &std::fs::DirEntry| e.file_name().to_string_lossy().into_owned();
            entries
                .flatten()
                .map(|e| (name(&e), std::fs::read(e.path()).expect("read")))
                .collect()
        }

        fn copy(&self, label: &str) -> Self {
            let copy = Self::new(label);
            for (name, bytes) in self.bytes() {
                std::fs::write(copy.0.join(name), bytes).expect("copy");
            }
            copy
        }

        /// The newest segment of a log, by name prefix (`wal-0-`, `ctl-`).
        fn newest(&self, prefix: &str) -> String {
            let newest = self.bytes().into_keys().rfind(|n| n.starts_with(prefix));
            newest.expect("a segment")
        }

        fn append(&self, name: &str, bytes: &[u8]) {
            let mut data = std::fs::read(self.0.join(name)).expect("read");
            data.extend_from_slice(bytes);
            std::fs::write(self.0.join(name), data).expect("write");
        }

        /// Appends `payload` as one CRC-valid frame.
        fn append_frame(&self, name: &str, payload: &[u8]) {
            let mut frame = Vec::new();
            put_frame(&mut frame, payload);
            self.append(name, &frame);
        }

        /// Opens the store as the engine does: 2 shards, 1 producer.
        fn open(&self, checkpoint_every: u64) -> Result<ShardedEngine, fd_core::Error> {
            let opts = DurabilityOptions {
                segment_bytes: 4096,
                ..DurabilityOptions::default()
            };
            let (e, _) = ShardedEngine::try_new(query(), 2)
                .and_then(|e| e.try_batch_size(64))
                .and_then(|e| {
                    e.checkpoint_every(checkpoint_every)
                        .try_durable(&self.0, opts)
                })?;
            Ok(e)
        }

        /// Asserts that opening fails with a `Durability` error whose text
        /// names `mark`, and leaves every byte of the directory as found.
        fn assert_refused_untouched(&self, mark: &str) {
            let before = self.bytes();
            match self.open(256) {
                Err(fd_core::Error::Durability { detail }) => {
                    assert!(detail.contains(mark), "expected {mark:?} in: {detail}")
                }
                Err(other) => panic!("{mark}: expected a Durability refusal, got {other:?}"),
                Ok(_) => panic!("{mark}: the store opened"),
            }
            assert!(
                before == self.bytes(),
                "{mark}: the refused store was modified"
            );
        }
    }

    impl Drop for Store {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Feeds `packets[from..to]`, committing every `chunk` tuples.
    fn feed(e: &mut ShardedEngine, packets: &[Packet], from: usize, to: usize, chunk: usize) {
        let mut position = from;
        for part in packets[from..to].chunks(chunk) {
            e.try_process_packets(part).expect("feed");
            position += part.len();
            e.durable_commit(position as u64).expect("commit");
        }
    }

    fn assert_same_bits(want: &[Row], got: &[Row], label: &str) {
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
        let packets = packets();
        let expected = Engine::new(query()).run(packets.clone());
        let store = Store::new("once");
        let mut e = store.open(256).expect("open");
        feed(&mut e, &packets, 0, packets.len(), 500);
        let rows = e.finish();
        assert_same_bits(&expected, &rows, "durable run");
        drop(e);

        // What is on disk: per shard, deltas that name each (bucket, key)
        // once, all of it closed before the checkpoint they sit beside,
        // and a checkpoint whose own closed section is empty.
        let rec = recover(&crate::io::StdFs, &store.0, 2, 1).expect("recover");
        let mut persisted = 0usize;
        for s in 0..2 {
            let (_, blob) = rec.ckpts[s].as_ref().expect("a checkpoint per shard");
            let mut restored = Engine::restore(query(), blob).expect("restore");
            assert!(
                restored.drain_closed_state().is_empty(),
                "shard {s}: the checkpoint still carries closed groups"
            );
            let mut seen = std::collections::BTreeSet::new();
            let store = query().aggregate.group_store(&query());
            for section in &rec.closed[s] {
                let mut r = Reader::new(section);
                let mut rows = Vec::new();
                for run in store.read_closed(&mut r).expect("decode delta") {
                    run.rows(Vec::new(), query().bucket_micros, &mut rows);
                }
                for g in rows {
                    assert!(
                        g.bucket_start < 4_000_000,
                        "only buckets 0 and 1 closed mid-stream"
                    );
                    assert!(
                        seen.insert((g.bucket_start, g.key)),
                        "shard {s}: ({}, {}) persisted twice",
                        g.bucket_start,
                        g.key
                    );
                }
                assert!(r.is_empty());
            }
            assert_eq!(rec.resume.closed_persisted[s], seen.len());
            persisted += seen.len();
        }
        let closed_mid_stream = expected
            .iter()
            .filter(|r| r.bucket_start < 4_000_000)
            .count();
        assert_eq!(persisted, closed_mid_stream, "buckets 0 and 1, whole");
    }

    /// The payloads of a log segment's frames.
    fn payloads(data: &[u8]) -> Vec<&[u8]> {
        let (mut at, mut out) = (0, Vec::new());
        while let Frame::Complete { payload, consumed } = read_frame(&data[at..]) {
            out.push(payload);
            at += consumed;
        }
        out
    }

    #[test]
    fn what_another_build_wrote_is_refused_by_name_and_left_untouched() {
        // A version mismatch is not a torn tail: each mark of a store some
        // other build of this engine wrote — the five layouts earlier
        // commits of this repository produced, and a record kind this
        // build has never heard of — sits in a CRC-valid frame at the tail
        // of a log, exactly where a torn record would be cut and counted.
        let packets = packets();
        let base = Store::new("foreign-base");
        let mut e = base.open(256).expect("open");
        feed(&mut e, &packets, 0, 4_600, 460);
        e.finish();
        drop(e);
        let ctl = base.newest("ctl-");
        let ctl_data = std::fs::read(base.0.join(&ctl)).expect("ctl");
        let commit = *payloads(&ctl_data).last().expect("a commit");
        let hi_end = 1 + 7 * 8 + 4 + 2 * 8; // kind, seven words, S, S × hi
        let mut own_counter = commit.to_vec();
        own_counter[hi_end - 8] ^= 1;
        let mut batch = vec![1u8]; // kind, seq, no packets
        batch.extend([0u8; 12]);
        let mut punct = vec![2u8]; // kind, seq, watermark
        punct.extend([0u8; 16]);
        let wal = base.newest("wal-0-");
        type Maul<'a> = Box<dyn Fn(&Store) + 'a>;
        let older = |magic: &'static [u8; 4]| -> Maul<'_> {
            Box::new(move |s| {
                let mut m = std::fs::read(s.0.join("MANIFEST")).expect("manifest");
                m[..4].copy_from_slice(magic);
                std::fs::write(s.0.join("MANIFEST"), m).expect("write");
            })
        };
        let cases: [(&str, Maul<'_>); 7] = [
            ("FDM1", older(b"FDM1")),
            ("FDM2", older(b"FDM2")),
            ("kind-1", Box::new(|s| s.append_frame(&wal, &batch))),
            ("kind-2", Box::new(|s| s.append_frame(&wal, &punct))),
            (
                "without producer blocks",
                Box::new(|s| s.append_frame(&ctl, &commit[..hi_end])),
            ),
            (
                "per-shard sequence counters",
                Box::new(|s| s.append_frame(&ctl, &own_counter)),
            ),
            ("kind-9", Box::new(|s| s.append_frame(&wal, &[9, 0, 0]))),
        ];
        for (mark, maul) in cases {
            let store = base.copy("foreign");
            maul(&store);
            store.assert_refused_untouched(mark);
        }
        // Untouched, the same store opens.
        base.open(256).expect("the base store opens");
    }

    #[test]
    fn a_store_refused_late_is_left_untouched_and_a_torn_tail_alone_still_opens() {
        // Two refusals only the whole picture can make — the records
        // between the checkpoint and the WAL are missing; no commit is
        // reachable — in a store that also has a torn tail on another
        // shard (the one scanned first), which recovery used to truncate
        // on its way to the Err.
        let packets = packets();
        let expected = Engine::new(query()).run(packets.clone());
        let base = Store::new("late-base");
        // Coverage first: a clean finish persists a checkpoint per shard.
        let mut e = base.open(256).expect("open");
        feed(&mut e, &packets, 0, 4_600, 460);
        e.finish();
        drop(e);
        // Then a stretch nothing checkpoints, so its WAL segments and
        // commits all stay above the coverage.
        let mut e = base.open(1_000_000).expect("reopen");
        feed(&mut e, &packets, 4_600, packets.len(), 350);
        let rows = e.finish();
        assert_same_bits(&expected, &rows, "two sittings");
        drop(e);
        base.append(&base.newest("wal-0-"), &[0xAB; 13]);

        // (a) The segment holding the first record past shard 1's
        // checkpoint is gone, and later ones are not.
        let gap = base.copy("late-gap");
        let manifest = std::fs::read(gap.0.join("MANIFEST")).expect("manifest");
        let covered = Manifest::decode(&manifest).expect("decode").shards[1].covered;
        assert!(covered > 0, "the first sitting left a checkpoint");
        let segs: Vec<(u64, String)> = (gap.bytes().into_keys())
            .filter_map(|n| match StoreFile::parse(&n) {
                Some(StoreFile::Wal(1, first)) => Some((first, n)),
                _ => None,
            })
            .collect();
        let holder = segs.iter().rposition(|(first, _)| *first <= covered + 1);
        let holder = holder.expect("a segment holds covered + 1");
        assert!(holder + 1 < segs.len(), "later segments exist: {segs:?}");
        std::fs::remove_file(gap.0.join(&segs[holder].1)).expect("remove");
        gap.assert_refused_untouched("records in between are missing");

        // (b) Every commit is corrupt, under a manifest with coverage.
        let lost = base.copy("late-commits");
        for name in lost.bytes().into_keys().filter(|n| n.starts_with("ctl-")) {
            let mut data = std::fs::read(lost.0.join(&name)).expect("ctl");
            data[8] ^= 0x40; // the first frame's payload: its CRC now fails
            std::fs::write(lost.0.join(&name), data).expect("write");
        }
        lost.assert_refused_untouched("no commit record is reachable");

        // With only the torn tail, the store opens: one truncation,
        // counted, and nothing lost.
        let opts = DurabilityOptions::default();
        let (mut e, report) = ShardedEngine::try_new(query(), 2)
            .and_then(|e| e.try_batch_size(64))
            .and_then(|e| e.checkpoint_every(256).try_durable(&base.0, opts))
            .expect("a torn tail is not a refusal");
        assert_eq!(report.truncated_records, 1);
        assert_eq!(report.position, packets.len() as u64);
        assert_eq!(e.telemetry().snapshot().wal_records_truncated, 1);
        assert_same_bits(&expected, &e.finish(), "after the truncation");
    }
}
