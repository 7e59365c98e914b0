//! Pluggable filesystem backend for the durability layer.
//!
//! Everything [`crate::durability`] does to disk goes through the
//! [`IoBackend`] trait: a handful of primitive operations (append-only
//! files, whole-file reads, rename, directory listing and sync) chosen so
//! the WAL/checkpoint/manifest protocol can be expressed — and sabotaged —
//! precisely. Two implementations ship:
//!
//! * [`StdFs`] — the real thing, a thin veneer over `std::fs`;
//! * [`FaultyFs`] — wraps any backend and fires one scheduled
//!   [`DiskFault`] at the Nth matching operation: short writes, fsync
//!   errors, silent byte corruption, rename failure, or a persistently
//!   full disk. Deterministic (a plain operation counter, no clocks or
//!   RNG), so the fault-matrix CI job replays bit-identical failures.
//!
//! The split keeps `durability/` honest: it cannot reach around the
//! trait to `std::fs`, so every code path the recovery tests exercise is
//! the same one production runs.

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::fault::{DiskFault, DiskFaultKind};

/// An open file handle supporting appends and durability barriers.
pub trait IoFile: Send {
    /// Appends the whole buffer at the current end of file.
    fn append(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Flushes file contents (and metadata) to stable storage.
    fn sync(&mut self) -> io::Result<()>;
}

/// The filesystem surface the durability layer is written against.
pub trait IoBackend: Send + Sync + fmt::Debug {
    /// Creates `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Opens `path` for appending, creating it if absent.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn IoFile>>;
    /// Creates (or truncates) `path` for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn IoFile>>;
    /// Reads the entire file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Atomically renames `from` to `to` (same directory).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Deletes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Lists the file names (not paths) directly inside `dir`.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Truncates `path` to exactly `len` bytes.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;
    /// Syncs the directory itself, making renames/creates in it durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
}

/// The real filesystem.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdFs;

struct StdFile(fs::File);

impl IoFile for StdFile {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }
    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
}

impl IoBackend for StdFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn IoFile>> {
        let f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Box::new(StdFile(f)))
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn IoFile>> {
        Ok(Box::new(StdFile(fs::File::create(path)?)))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            if let Ok(name) = entry.file_name().into_string() {
                names.push(name);
            }
        }
        Ok(names)
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let f = fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(len)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Directory fsync is a Unix idiom; opening a directory read-only
        // and syncing it is portable enough for the platforms CI runs on.
        fs::File::open(dir)?.sync_all()
    }
}

/// Shared trigger state: one counter per sabotaged operation type, so
/// "the 3rd fsync" means the same fsync no matter how operations of other
/// types interleave.
#[derive(Debug)]
struct FaultShared {
    fault: DiskFault,
    writes: AtomicU64,
    fsyncs: AtomicU64,
    renames: AtomicU64,
}

impl FaultShared {
    /// Counts one matching operation; true when this is the trigger.
    /// `Enospc` stays triggered for every later operation (a disk does
    /// not un-fill itself).
    fn fire(&self, counter: &AtomicU64) -> bool {
        let n = counter.fetch_add(1, Ordering::Relaxed) + 1;
        match self.fault.kind {
            DiskFaultKind::Enospc => n >= self.fault.at_op,
            _ => n == self.fault.at_op,
        }
    }
}

fn injected(kind: io::ErrorKind, what: &str) -> io::Error {
    io::Error::new(kind, format!("injected fault: {what}"))
}

/// A fault-injecting wrapper around any [`IoBackend`].
///
/// Exactly one [`DiskFault`] is scheduled per wrapper; operation counting
/// is deterministic, and every counter is shared across all files the
/// wrapper opens (the WAL writer is single-threaded, so the operation
/// order is reproducible).
#[derive(Debug)]
pub struct FaultyFs {
    inner: Arc<dyn IoBackend>,
    shared: Arc<FaultShared>,
}

impl FaultyFs {
    /// Wraps `inner`, scheduling `fault`.
    pub fn new(inner: Arc<dyn IoBackend>, fault: DiskFault) -> Self {
        Self {
            inner,
            shared: Arc::new(FaultShared {
                fault,
                writes: AtomicU64::new(0),
                fsyncs: AtomicU64::new(0),
                renames: AtomicU64::new(0),
            }),
        }
    }
}

struct FaultyFile {
    inner: Box<dyn IoFile>,
    shared: Arc<FaultShared>,
}

impl IoFile for FaultyFile {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        match self.shared.fault.kind {
            DiskFaultKind::ShortWrite if self.shared.fire(&self.shared.writes) => {
                // Persist a prefix, then fail: the on-disk state is a torn
                // record, exactly what recovery's truncation rule handles.
                self.inner.append(&buf[..buf.len() / 2])?;
                Err(injected(io::ErrorKind::Interrupted, "short write"))
            }
            DiskFaultKind::CorruptByte if self.shared.fire(&self.shared.writes) => {
                // Flip one bit mid-buffer and report success — the lie is
                // only caught by CRC verification on read-back.
                let mut copy = buf.to_vec();
                let mid = copy.len() / 2;
                if let Some(b) = copy.get_mut(mid) {
                    *b ^= 0x01;
                }
                self.inner.append(&copy)
            }
            DiskFaultKind::Enospc if self.shared.fire(&self.shared.writes) => Err(injected(
                io::ErrorKind::StorageFull,
                "no space left on device",
            )),
            _ => self.inner.append(buf),
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        if self.shared.fault.kind == DiskFaultKind::FsyncError
            && self.shared.fire(&self.shared.fsyncs)
        {
            return Err(injected(io::ErrorKind::Other, "fsync failed"));
        }
        self.inner.sync()
    }
}

impl IoBackend for FaultyFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn IoFile>> {
        Ok(Box::new(FaultyFile {
            inner: self.inner.open_append(path)?,
            shared: Arc::clone(&self.shared),
        }))
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn IoFile>> {
        Ok(Box::new(FaultyFile {
            inner: self.inner.create(path)?,
            shared: Arc::clone(&self.shared),
        }))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if self.shared.fault.kind == DiskFaultKind::RenameFail
            && self.shared.fire(&self.shared.renames)
        {
            return Err(injected(io::ErrorKind::Other, "rename failed"));
        }
        self.inner.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.list(dir)
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.inner.truncate(path, len)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        if self.shared.fault.kind == DiskFaultKind::FsyncError
            && self.shared.fire(&self.shared.fsyncs)
        {
            return Err(injected(io::ErrorKind::Other, "directory fsync failed"));
        }
        self.inner.sync_dir(dir)
    }
}

/// Joins a store directory and a file name. Free function so callers can
/// build paths uniformly without touching `PathBuf` plumbing.
pub(crate) fn join(dir: &Path, name: &str) -> PathBuf {
    dir.join(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fd_io_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn std_fs_roundtrip() {
        let dir = tmpdir("roundtrip");
        let io = StdFs;
        let path = dir.join("a.log");
        let mut f = io.open_append(&path).unwrap();
        f.append(b"hello ").unwrap();
        f.append(b"world").unwrap();
        f.sync().unwrap();
        drop(f);
        assert_eq!(io.read(&path).unwrap(), b"hello world");
        io.truncate(&path, 5).unwrap();
        assert_eq!(io.read(&path).unwrap(), b"hello");
        io.rename(&path, &dir.join("b.log")).unwrap();
        let mut names = io.list(&dir).unwrap();
        names.sort();
        assert_eq!(names, vec!["b.log"]);
        io.remove_file(&dir.join("b.log")).unwrap();
        io.sync_dir(&dir).unwrap();
        assert!(io.list(&dir).unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_write_persists_a_prefix_then_errors() {
        let dir = tmpdir("short");
        let io = FaultyFs::new(
            Arc::new(StdFs),
            DiskFault {
                kind: DiskFaultKind::ShortWrite,
                at_op: 2,
            },
        );
        let path = dir.join("w.log");
        let mut f = io.open_append(&path).unwrap();
        f.append(b"aaaa").unwrap();
        let err = f.append(b"bbbb").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        assert_eq!(StdFs.read(&path).unwrap(), b"aaaabb");
        // One-shot: later writes succeed again.
        f.append(b"cc").unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_byte_lies_about_success() {
        let dir = tmpdir("corrupt");
        let io = FaultyFs::new(
            Arc::new(StdFs),
            DiskFault {
                kind: DiskFaultKind::CorruptByte,
                at_op: 1,
            },
        );
        let path = dir.join("w.log");
        let mut f = io.open_append(&path).unwrap();
        f.append(&[0u8; 8]).unwrap();
        let on_disk = StdFs.read(&path).unwrap();
        assert_eq!(on_disk.len(), 8);
        assert_eq!(on_disk.iter().filter(|&&b| b != 0).count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_is_persistent() {
        let dir = tmpdir("enospc");
        let io = FaultyFs::new(
            Arc::new(StdFs),
            DiskFault {
                kind: DiskFaultKind::Enospc,
                at_op: 2,
            },
        );
        let mut f = io.open_append(&dir.join("w.log")).unwrap();
        f.append(b"x").unwrap();
        assert!(f.append(b"x").is_err());
        assert!(f.append(b"x").is_err());
        assert!(f.append(b"x").is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_and_rename_faults_fire_once() {
        let dir = tmpdir("oneshot");
        let io = FaultyFs::new(
            Arc::new(StdFs),
            DiskFault {
                kind: DiskFaultKind::FsyncError,
                at_op: 1,
            },
        );
        let mut f = io.open_append(&dir.join("w.log")).unwrap();
        assert!(f.sync().is_err());
        assert!(f.sync().is_ok());

        let io = FaultyFs::new(
            Arc::new(StdFs),
            DiskFault {
                kind: DiskFaultKind::RenameFail,
                at_op: 1,
            },
        );
        let from = dir.join("w.log");
        let to = dir.join("v.log");
        assert!(io.rename(&from, &to).is_err());
        assert!(io.rename(&from, &to).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }
}
