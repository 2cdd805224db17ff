//! RAM-backed asynchronous files.
//!
//! These implement [`AioFile`] for the real runtime: completions are
//! delivered through the runtime's event loop, optionally after a modelled
//! access latency, so server code exercises the same submission/harvest path
//! it would against a physical disk. (`eveth-simos` provides the seek-accurate
//! simulated disk used by the paper's disk benchmarks.)

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use crate::aio::{AioCompletion, AioFile, AioResult, FileStore, IoError};
use crate::time::Nanos;

/// A writable, RAM-backed file.
pub struct RamFile {
    data: Mutex<Vec<u8>>,
    latency: Nanos,
}

impl RamFile {
    /// Creates a file with the given initial contents and zero latency.
    pub fn new(data: impl Into<Vec<u8>>) -> Self {
        RamFile {
            data: Mutex::new(data.into()),
            latency: 0,
        }
    }

    /// Creates a file whose completions are delayed by `latency`.
    pub fn with_latency(data: impl Into<Vec<u8>>, latency: Nanos) -> Self {
        RamFile {
            data: Mutex::new(data.into()),
            latency,
        }
    }

    fn finish(&self, done: AioCompletion, res: AioResult) {
        if self.latency == 0 {
            done.complete(res);
        } else {
            done.complete_after(res, self.latency);
        }
    }
}

impl AioFile for RamFile {
    fn len(&self) -> u64 {
        self.data.lock().len() as u64
    }

    fn submit_read(&self, offset: u64, len: usize, done: AioCompletion) {
        let data = self.data.lock();
        let res = if offset >= data.len() as u64 {
            Ok(Bytes::new()) // read at or past EOF: zero bytes, like POSIX
        } else {
            let start = offset as usize;
            let end = (start + len).min(data.len());
            Ok(Bytes::copy_from_slice(&data[start..end]))
        };
        drop(data);
        self.finish(done, res);
    }

    fn submit_write(&self, offset: u64, payload: Bytes, done: AioCompletion) {
        let mut data = self.data.lock();
        let start = offset as usize;
        let end = start + payload.len();
        if data.len() < end {
            data.resize(end, 0);
        }
        data[start..end].copy_from_slice(&payload);
        drop(data);
        self.finish(done, Ok(Bytes::new()));
    }
}

impl fmt::Debug for RamFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RamFile(len={})", self.len())
    }
}

/// A read-only file whose contents are synthesized from its offset — a
/// deterministic pattern generator used to model large data sets (the
/// paper's 1 GB benchmark file, 128k × 16 KB web corpus) without allocating
/// them.
pub struct SynthFile {
    len: u64,
    seed: u64,
    latency: Nanos,
}

impl SynthFile {
    /// Creates a synthetic file of `len` bytes generated from `seed`.
    pub fn new(len: u64, seed: u64) -> Self {
        SynthFile {
            len,
            seed,
            latency: 0,
        }
    }

    /// Adds a modelled completion latency.
    pub fn with_latency(len: u64, seed: u64, latency: Nanos) -> Self {
        SynthFile { len, seed, latency }
    }

    /// The deterministic byte at `pos` — exposed so tests can verify
    /// end-to-end content integrity.
    pub fn byte_at(seed: u64, pos: u64) -> u8 {
        let x = pos
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(seed.wrapping_mul(0xD1B5_4A32_D192_ED03));
        ((x >> 32) ^ x) as u8
    }

    /// Materializes `len` bytes starting at `offset`.
    pub fn bytes_at(seed: u64, offset: u64, len: usize) -> Bytes {
        let mut v = Vec::with_capacity(len);
        for i in 0..len as u64 {
            v.push(Self::byte_at(seed, offset + i));
        }
        v.into()
    }
}

impl AioFile for SynthFile {
    fn len(&self) -> u64 {
        self.len
    }

    fn submit_read(&self, offset: u64, len: usize, done: AioCompletion) {
        let res = if offset >= self.len {
            Ok(Bytes::new())
        } else {
            let n = len.min((self.len - offset) as usize);
            Ok(Self::bytes_at(self.seed, offset, n))
        };
        if self.latency == 0 {
            done.complete(res);
        } else {
            done.complete_after(res, self.latency);
        }
    }

    fn submit_write(&self, _offset: u64, _data: Bytes, done: AioCompletion) {
        done.complete(Err(IoError::Unsupported));
    }
}

impl fmt::Debug for SynthFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SynthFile(len={}, seed={})", self.len, self.seed)
    }
}

/// An in-memory path → file table implementing [`FileStore`].
#[derive(Default)]
pub struct MemStore {
    files: RwLock<HashMap<String, Arc<dyn AioFile>>>,
}

impl MemStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a file under `path`, replacing any previous entry.
    pub fn insert(&self, path: impl Into<String>, file: Arc<dyn AioFile>) {
        self.files.write().insert(path.into(), file);
    }

    /// Registers a RAM-backed file with the given contents.
    pub fn insert_bytes(&self, path: impl Into<String>, data: impl Into<Vec<u8>>) {
        self.insert(path, Arc::new(RamFile::new(data)));
    }

    /// Registers a synthetic file.
    pub fn insert_synth(&self, path: impl Into<String>, len: u64, seed: u64) {
        self.insert(path, Arc::new(SynthFile::new(len, seed)));
    }

    /// Number of registered files.
    pub fn len(&self) -> usize {
        self.files.read().len()
    }

    /// True if no files are registered.
    pub fn is_empty(&self) -> bool {
        self.files.read().is_empty()
    }
}

impl FileStore for MemStore {
    fn lookup(&self, path: &str) -> Option<Arc<dyn AioFile>> {
        self.files.read().get(path).cloned()
    }
}

impl fmt::Debug for MemStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MemStore(files={})", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;
    use crate::syscall::{sys_aio_read, sys_aio_write};

    #[test]
    fn aio_read_roundtrip() {
        let rt = Runtime::builder().workers(1).build();
        let file: Arc<dyn AioFile> = Arc::new(RamFile::new(b"hello world".to_vec()));
        let got = rt.block_on(sys_aio_read(&file, 6, 5)).unwrap();
        assert_eq!(&got[..], b"world");
        rt.shutdown();
    }

    #[test]
    fn aio_read_past_eof_is_empty() {
        let rt = Runtime::builder().workers(1).build();
        let file: Arc<dyn AioFile> = Arc::new(RamFile::new(b"x".to_vec()));
        let got = rt.block_on(sys_aio_read(&file, 10, 5)).unwrap();
        assert!(got.is_empty());
        rt.shutdown();
    }

    #[test]
    fn aio_write_then_read() {
        let rt = Runtime::builder().workers(1).build();
        let file: Arc<dyn AioFile> = Arc::new(RamFile::new(Vec::new()));
        rt.block_on(sys_aio_write(&file, 2, Bytes::from_static(b"zz")))
            .unwrap();
        assert_eq!(file.len(), 4);
        let got = rt.block_on(sys_aio_read(&file, 0, 4)).unwrap();
        assert_eq!(&got[..], &[0, 0, b'z', b'z']);
        rt.shutdown();
    }

    #[test]
    fn latency_delays_completion() {
        let rt = Runtime::builder().workers(1).build();
        let file: Arc<dyn AioFile> =
            Arc::new(RamFile::with_latency(vec![1; 16], 20 * crate::time::MILLIS));
        let t0 = rt.now();
        rt.block_on(sys_aio_read(&file, 0, 16)).unwrap();
        assert!(rt.now() - t0 >= 15 * crate::time::MILLIS);
        rt.shutdown();
    }

    #[test]
    fn synth_content_is_deterministic() {
        let a = SynthFile::bytes_at(7, 100, 64);
        let b = SynthFile::bytes_at(7, 100, 64);
        assert_eq!(a, b);
        let c = SynthFile::bytes_at(8, 100, 64);
        assert_ne!(a, c, "different seeds should differ");
        // Slices compose: reading [100..164] equals reading [100..132] ++ [132..164].
        let d = SynthFile::bytes_at(7, 100, 32);
        let e = SynthFile::bytes_at(7, 132, 32);
        assert_eq!(&a[..32], &d[..]);
        assert_eq!(&a[32..], &e[..]);
    }

    #[test]
    fn synth_write_unsupported() {
        let rt = Runtime::builder().workers(1).build();
        let file: Arc<dyn AioFile> = Arc::new(SynthFile::new(100, 1));
        let err = rt
            .block_on(sys_aio_write(&file, 0, Bytes::from_static(b"n")))
            .unwrap_err();
        assert_eq!(err, IoError::Unsupported);
        rt.shutdown();
    }

    #[test]
    fn memstore_lookup() {
        let store = MemStore::new();
        assert!(store.is_empty());
        store.insert_bytes("/a", b"aaa".to_vec());
        store.insert_synth("/b", 1000, 3);
        assert_eq!(store.len(), 2);
        assert!(store.lookup("/a").is_some());
        assert!(store.lookup("/b").is_some());
        assert!(store.lookup("/missing").is_none());
        assert_eq!(store.lookup("/b").unwrap().len(), 1000);
    }
}
