//! Asynchronous file I/O abstractions (paper §4.5).
//!
//! The paper submits disk reads through Linux AIO and harvests completions
//! in a dedicated event loop. Here a disk is anything implementing
//! [`AioFile`]: the real runtime ships a RAM-backed implementation
//! ([`crate::io::ramdisk`]), and `eveth-simos` provides a seek-accurate
//! simulated disk with elevator scheduling. Completions resume the waiting
//! monadic thread through the runtime's AIO event port.

use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::engine::RuntimeCtx;
use crate::reactor::{EventPort, Unparker};
use crate::task::{Task, TaskShell};
use crate::time::Nanos;
use crate::trace::AioCont;

/// Errors reported by file and device I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoError {
    /// The named file does not exist.
    NotFound,
    /// The request extends past the end of the file or device.
    OutOfRange,
    /// The file or device was closed.
    Closed,
    /// The operation is not supported by this device.
    Unsupported,
    /// Any other failure, with a description.
    Other(Arc<str>),
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::NotFound => f.write_str("file not found"),
            IoError::OutOfRange => f.write_str("request out of range"),
            IoError::Closed => f.write_str("file closed"),
            IoError::Unsupported => f.write_str("operation not supported"),
            IoError::Other(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for IoError {}

/// Result of an asynchronous I/O operation: the bytes read (possibly short
/// at end-of-file), or the bytes-written count encoded as an empty buffer
/// for writes.
pub type AioResult = Result<Bytes, IoError>;

/// A file on which asynchronous reads and writes can be submitted.
///
/// Implementations must *never* block the calling thread: they record the
/// request and complete it later (possibly immediately) by invoking the
/// [`AioCompletion`].
pub trait AioFile: Send + Sync {
    /// Size of the file in bytes.
    fn len(&self) -> u64;

    /// True if the file is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Submits an asynchronous read of `len` bytes at `offset`.
    fn submit_read(&self, offset: u64, len: usize, done: AioCompletion);

    /// Submits an asynchronous write of `data` at `offset`.
    fn submit_write(&self, offset: u64, data: Bytes, done: AioCompletion);
}

/// A pending `SYS_AIO_READ` carried by a trace node.
pub struct AioReadReq {
    /// Target file.
    pub file: Arc<dyn AioFile>,
    /// Byte offset of the read.
    pub offset: u64,
    /// Number of bytes requested.
    pub len: usize,
}

impl fmt::Debug for AioReadReq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AioReadReq")
            .field("offset", &self.offset)
            .field("len", &self.len)
            .finish()
    }
}

/// A pending `SYS_AIO_WRITE` carried by a trace node.
pub struct AioWriteReq {
    /// Target file.
    pub file: Arc<dyn AioFile>,
    /// Byte offset of the write.
    pub offset: u64,
    /// Bytes to write.
    pub data: Bytes,
}

impl fmt::Debug for AioWriteReq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AioWriteReq")
            .field("offset", &self.offset)
            .field("len", &self.data.len())
            .finish()
    }
}

struct PendingAio {
    shell: TaskShell,
    cont: AioCont,
    ctx: Arc<dyn RuntimeCtx>,
    port: Arc<dyn EventPort>,
}

/// One-shot completion handle for a submitted AIO request.
///
/// Devices call [`complete`](AioCompletion::complete) exactly once (extra
/// calls are ignored); the suspended thread is resumed with the result via
/// the runtime's event port, the same route readiness events take.
#[derive(Clone)]
pub struct AioCompletion {
    inner: Arc<Mutex<Option<PendingAio>>>,
}

impl AioCompletion {
    /// Packages a parked thread continuation as a completion handle. Called
    /// by the scheduler engine; devices only consume completions.
    pub fn new(
        shell: TaskShell,
        cont: AioCont,
        ctx: Arc<dyn RuntimeCtx>,
        port: Arc<dyn EventPort>,
    ) -> Self {
        AioCompletion {
            inner: Arc::new(Mutex::new(Some(PendingAio {
                shell,
                cont,
                ctx,
                port,
            }))),
        }
    }

    /// Delivers the result now, resuming the waiting thread. Returns `false`
    /// if the completion had already been delivered.
    pub fn complete(&self, res: AioResult) -> bool {
        match self.inner.lock().take() {
            Some(p) => {
                let cont = p.cont;
                let task = Task::from_parts(p.shell, Box::new(move || cont(res)));
                p.port.notify(Unparker::new(task, p.ctx));
                true
            }
            None => false,
        }
    }

    /// Delivers the result after a delay on the runtime's timer — used by
    /// devices that model fixed access latency. Returns `false` if already
    /// delivered.
    pub fn complete_after(&self, res: AioResult, delay: Nanos) -> bool {
        match self.inner.lock().take() {
            Some(p) => {
                let cont = p.cont;
                let task = Task::from_parts(p.shell, Box::new(move || cont(res)));
                p.ctx.sleep(delay, task);
                true
            }
            None => false,
        }
    }

    /// True if the result has already been delivered.
    pub fn is_complete(&self) -> bool {
        self.inner.lock().is_none()
    }
}

impl fmt::Debug for AioCompletion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AioCompletion")
            .field("complete", &self.is_complete())
            .finish()
    }
}

/// Maps request paths to files — the interface between servers (which name
/// files) and storage devices (which hold them).
pub trait FileStore: Send + Sync {
    /// Resolves `path` to an open file, or `None` if absent.
    fn lookup(&self, path: &str) -> Option<Arc<dyn AioFile>>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testing::noop_ctx;
    use crate::reactor::DirectPort;
    use crate::task::TaskId;
    use crate::trace::Trace;

    fn completion(ctx: &Arc<crate::engine::testing::CountingCtx>) -> AioCompletion {
        AioCompletion::new(
            TaskShell::new(TaskId(1)),
            Box::new(|_res| Trace::Ret),
            Arc::clone(ctx) as Arc<dyn RuntimeCtx>,
            Arc::new(DirectPort),
        )
    }

    #[test]
    fn complete_is_one_shot() {
        let ctx = noop_ctx();
        let c = completion(&ctx);
        assert!(!c.is_complete());
        assert!(c.complete(Ok(Bytes::from_static(b"x"))));
        assert!(c.is_complete());
        assert!(!c.complete(Err(IoError::Closed)));
        assert_eq!(ctx.ready_count(), 1);
    }

    #[test]
    fn complete_after_uses_timer() {
        let ctx = noop_ctx();
        let c = completion(&ctx);
        assert!(c.complete_after(Ok(Bytes::new()), 1_000));
        // The testing ctx's timer fires immediately into the ready list.
        assert_eq!(ctx.ready_count(), 1);
    }

    #[test]
    fn io_error_display() {
        assert_eq!(IoError::NotFound.to_string(), "file not found");
        assert_eq!(IoError::Other("disk fire".into()).to_string(), "disk fire");
    }

    #[test]
    fn req_debug_shows_geometry() {
        struct Nop;
        impl AioFile for Nop {
            fn len(&self) -> u64 {
                0
            }
            fn submit_read(&self, _: u64, _: usize, _: AioCompletion) {}
            fn submit_write(&self, _: u64, _: Bytes, _: AioCompletion) {}
        }
        let r = AioReadReq {
            file: Arc::new(Nop),
            offset: 4096,
            len: 512,
        };
        let s = format!("{r:?}");
        assert!(s.contains("4096") && s.contains("512"));
    }
}
