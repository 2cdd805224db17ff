//! In-memory FIFO pipes with bounded buffers.
//!
//! A pipe is one shared [`ByteQueue`] with two independent waiting
//! mechanisms layered over it. The queue holds windows, not bytes: a
//! monadic writer's `Bytes` is queued as it is
//! ([`push_window`](ByteQueue::push_window)), a slice writer's accepted
//! bytes are copied in once, and a read inside one queued window hands out
//! a window of it ([`take_kernel`](ByteQueue::take_kernel)).
//!
//! * **event-style**: non-blocking `try_read`/`try_write` plus epoll-style
//!   readiness registration — what monadic threads use via
//!   [`read_m`](PipeReader::read_m) / [`write_all_m`](PipeWriter::write_all_m)
//!   (the paper's Figure 10 wrapping pattern);
//! * **thread-style**: blocking `read_blocking`/`write_blocking` on condition
//!   variables — what the kernel-thread (NPTL) baseline uses.
//!
//! Both baselines of the paper's FIFO benchmark therefore exercise the exact
//! same buffer, making their costs directly comparable.

use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};

use super::queue::ByteQueue;
use crate::reactor::{Fd, Interest, Pollable, WaitKey, WaitTable, Waiter};
use crate::syscall::{sys_epoll_wait, sys_nbio};
use crate::thread::{loop_m, Loop, ThreadM};

/// Errors from pipe operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipeError {
    /// The operation cannot make progress right now (buffer empty/full).
    WouldBlock,
    /// The other end of the pipe was closed.
    Closed,
}

impl fmt::Display for PipeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipeError::WouldBlock => f.write_str("operation would block"),
            PipeError::Closed => f.write_str("pipe closed"),
        }
    }
}

impl std::error::Error for PipeError {}

struct PipeState {
    buf: ByteQueue,
    cap: usize,
    write_closed: bool,
    read_closed: bool,
    /// Readiness registrations, one table per interest.
    waiters: [WaitTable; 2],
    readers: usize,
    writers: usize,
}

struct PipeDevice {
    state: Mutex<PipeState>,
    read_cv: Condvar,
    write_cv: Condvar,
}

impl PipeDevice {
    fn ready(st: &PipeState, interest: Interest) -> bool {
        match interest {
            Interest::Read => !st.buf.is_empty() || st.write_closed,
            Interest::Write => st.buf.len() < st.cap || st.read_closed,
        }
    }

    /// Wakes every waiter of both ends (an end closed).
    fn wake_all(&self, st: &mut PipeState) {
        st.waiters.iter_mut().for_each(WaitTable::wake_all);
        self.read_cv.notify_all();
        self.write_cv.notify_all();
    }

    /// The readers' one body: takes up to `max` buffered bytes (none at
    /// end-of-stream) and wakes the writers.
    fn take(&self, st: &mut PipeState, max: usize) -> Bytes {
        let out = st.buf.take_kernel(max.min(st.buf.len()));
        st.waiters[Interest::Write as usize].wake_all();
        self.write_cv.notify_all();
        out
    }

    /// The writers' one body: queues as much of `len` offered bytes as
    /// fits, made by `piece(n)`, wakes the readers and returns `n`.
    fn push(
        &self,
        st: &mut PipeState,
        len: usize,
        piece: impl FnOnce(usize) -> Bytes,
    ) -> Result<usize, PipeError> {
        if st.read_closed {
            return Err(PipeError::Closed);
        }
        let space = st.cap - st.buf.len();
        if space == 0 {
            return Err(PipeError::WouldBlock);
        }
        let n = space.min(len);
        st.buf.push_window(piece(n));
        st.waiters[Interest::Read as usize].wake_all();
        self.read_cv.notify_all();
        Ok(n)
    }
}

/// A slice writer's piece: the accepted first `n` bytes of `data`, copied
/// in once.
fn copy_in(data: &[u8]) -> impl FnOnce(usize) -> Bytes + '_ {
    move |n| Bytes::from(data[..n].to_vec())
}

impl Pollable for PipeDevice {
    fn register(&self, interest: Interest, waiter: Waiter) -> Option<WaitKey> {
        let mut st = self.state.lock();
        if Self::ready(&st, interest) {
            drop(st);
            waiter.wake();
            None
        } else {
            Some(st.waiters[interest as usize].push(waiter))
        }
    }

    fn deregister(&self, interest: Interest, key: WaitKey) -> bool {
        self.state.lock().waiters[interest as usize].withdraw(key)
    }
}

/// Creates a FIFO pipe with the given buffer capacity in bytes.
///
/// # Panics
///
/// Panics if `capacity` is zero.
///
/// # Examples
///
/// ```
/// use eveth_core::io::pipe;
///
/// let (w, r) = pipe(4096);
/// w.try_write(b"hi").unwrap();
/// assert_eq!(&r.try_read(16).unwrap()[..], b"hi");
/// ```
pub fn pipe(capacity: usize) -> (PipeWriter, PipeReader) {
    assert!(capacity > 0, "pipe capacity must be non-zero");
    let dev = Arc::new(PipeDevice {
        state: Mutex::new(PipeState {
            // Lazily grown: an idle pipe costs bytes, not its capacity
            // (the Figure 18 benchmark parks 100k threads on idle pipes).
            buf: ByteQueue::new(),
            cap: capacity,
            write_closed: false,
            read_closed: false,
            waiters: [WaitTable::new(), WaitTable::new()],
            readers: 1,
            writers: 1,
        }),
        read_cv: Condvar::new(),
        write_cv: Condvar::new(),
    });
    let fd = Fd::new(Arc::clone(&dev) as Arc<dyn Pollable>);
    (
        PipeWriter {
            dev: Arc::clone(&dev),
            fd: fd.clone(),
        },
        PipeReader { dev, fd },
    )
}

/// The reading end of a [`pipe`]. Cloning yields another handle to the same
/// end; the end closes when the last handle drops.
pub struct PipeReader {
    dev: Arc<PipeDevice>,
    fd: Fd,
}

/// The writing end of a [`pipe`]. Cloning yields another handle to the same
/// end; the end closes when the last handle drops.
pub struct PipeWriter {
    dev: Arc<PipeDevice>,
    fd: Fd,
}

impl PipeReader {
    /// The epoll-style descriptor for readiness waits on this pipe.
    pub fn fd(&self) -> &Fd {
        &self.fd
    }

    /// Non-blocking read of up to `max` bytes.
    ///
    /// Returns an empty buffer at end-of-stream (writer closed and buffer
    /// drained).
    ///
    /// # Errors
    ///
    /// [`PipeError::WouldBlock`] if the buffer is empty but the writer is
    /// still open.
    pub fn try_read(&self, max: usize) -> Result<Bytes, PipeError> {
        let mut st = self.dev.state.lock();
        if !PipeDevice::ready(&st, Interest::Read) {
            return Err(PipeError::WouldBlock);
        }
        Ok(self.dev.take(&mut st, max))
    }

    /// Blocking read of up to `max` bytes — for plain OS threads (the
    /// kernel-thread baseline). Returns an empty buffer at end-of-stream.
    pub fn read_blocking(&self, max: usize) -> Bytes {
        let mut st = self.dev.state.lock();
        while !PipeDevice::ready(&st, Interest::Read) {
            self.dev.read_cv.wait(&mut st);
        }
        self.dev.take(&mut st, max)
    }

    /// Monadic blocking read: retries `try_read` with `sys_epoll_wait`
    /// whenever the pipe is empty — the paper's non-blocking-to-blocking
    /// wrapping pattern (Figure 10). Returns an empty buffer at
    /// end-of-stream.
    pub fn read_m(&self, max: usize) -> ThreadM<Bytes> {
        let this = self.clone();
        loop_m((), move |()| {
            let dev = this.clone();
            let fd = this.fd.clone();
            sys_nbio(move || dev.try_read(max)).bind(move |r| match r {
                Ok(bytes) => ThreadM::pure(Loop::Break(bytes)),
                Err(PipeError::WouldBlock) => {
                    sys_epoll_wait(&fd, Interest::Read).map(|_| Loop::Continue(()))
                }
                Err(PipeError::Closed) => ThreadM::pure(Loop::Break(Bytes::new())),
            })
        })
    }

    /// Monadic read of exactly `n` bytes; errors at early end-of-stream.
    /// A message inside one queued window is that window; only a message
    /// spanning windows is gathered into a fresh buffer.
    pub fn read_exact_m(&self, n: usize) -> ThreadM<Result<Bytes, PipeError>> {
        let this = self.clone();
        loop_m(Vec::new(), move |mut acc| {
            let want = n - acc.len();
            this.read_m(want).map(move |chunk| {
                if chunk.is_empty() {
                    return Loop::Break(Err(PipeError::Closed));
                }
                if chunk.len() == n {
                    return Loop::Break(Ok(chunk));
                }
                acc.reserve_exact(want);
                acc.extend_from_slice(&chunk);
                if acc.len() == n {
                    Loop::Break(Ok(Bytes::from(acc)))
                } else {
                    Loop::Continue(acc)
                }
            })
        })
    }

    /// Bytes currently buffered.
    pub fn buffered(&self) -> usize {
        self.dev.state.lock().buf.len()
    }
}

impl PipeWriter {
    /// The epoll-style descriptor for readiness waits on this pipe.
    pub fn fd(&self) -> &Fd {
        &self.fd
    }

    /// Non-blocking write; returns the number of bytes accepted (possibly
    /// fewer than `data.len()`).
    ///
    /// # Errors
    ///
    /// [`PipeError::WouldBlock`] if the buffer is full;
    /// [`PipeError::Closed`] if the reader is gone.
    pub fn try_write(&self, data: &[u8]) -> Result<usize, PipeError> {
        let mut st = self.dev.state.lock();
        self.dev.push(&mut st, data.len(), copy_in(data))
    }

    /// Blocking write of the whole buffer — for plain OS threads.
    ///
    /// # Errors
    ///
    /// [`PipeError::Closed`] if the reader end closes mid-write.
    pub fn write_all_blocking(&self, data: &[u8]) -> Result<(), PipeError> {
        let mut written = 0;
        while written < data.len() {
            let mut st = self.dev.state.lock();
            while !PipeDevice::ready(&st, Interest::Write) {
                self.dev.write_cv.wait(&mut st);
            }
            let rest = &data[written..];
            written += self.dev.push(&mut st, rest.len(), copy_in(rest))?;
        }
        Ok(())
    }

    /// Monadic write of the whole buffer, retrying with `sys_epoll_wait`
    /// while the pipe is full. The pipe queues windows of `data`: no byte
    /// is copied on the way in.
    pub fn write_all_m(&self, data: Bytes) -> ThreadM<Result<(), PipeError>> {
        let this = self.clone();
        loop_m(data, move |remaining| {
            let dev = Arc::clone(&this.dev);
            let fd = this.fd.clone();
            let attempt = remaining.clone();
            let push =
                move || dev.push(&mut dev.state.lock(), attempt.len(), |n| attempt.slice(..n));
            sys_nbio(push).bind(move |r| match r {
                Ok(n) if n == remaining.len() => ThreadM::pure(Loop::Break(Ok(()))),
                Ok(n) => ThreadM::pure(Loop::Continue(remaining.slice(n..))),
                Err(PipeError::WouldBlock) => {
                    sys_epoll_wait(&fd, Interest::Write).map(move |_| Loop::Continue(remaining))
                }
                Err(e @ PipeError::Closed) => ThreadM::pure(Loop::Break(Err(e))),
            })
        })
    }

    /// Free space in the buffer.
    pub fn space(&self) -> usize {
        let st = self.dev.state.lock();
        st.cap - st.buf.len()
    }
}

impl Clone for PipeReader {
    fn clone(&self) -> Self {
        self.dev.state.lock().readers += 1;
        PipeReader {
            dev: Arc::clone(&self.dev),
            fd: self.fd.clone(),
        }
    }
}

impl Clone for PipeWriter {
    fn clone(&self) -> Self {
        self.dev.state.lock().writers += 1;
        PipeWriter {
            dev: Arc::clone(&self.dev),
            fd: self.fd.clone(),
        }
    }
}

impl Drop for PipeReader {
    fn drop(&mut self) {
        let mut st = self.dev.state.lock();
        st.readers -= 1;
        if st.readers == 0 {
            st.read_closed = true;
            self.dev.wake_all(&mut st);
        }
    }
}

impl Drop for PipeWriter {
    fn drop(&mut self) {
        let mut st = self.dev.state.lock();
        st.writers -= 1;
        if st.writers == 0 {
            st.write_closed = true;
            self.dev.wake_all(&mut st);
        }
    }
}

impl fmt::Debug for PipeReader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PipeReader({:?}, buffered={})", self.fd, self.buffered())
    }
}

impl fmt::Debug for PipeWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PipeWriter({:?}, space={})", self.fd, self.space())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;

    #[test]
    fn fifo_order_roundtrip() {
        let (w, r) = pipe(8);
        assert_eq!(w.try_write(b"abc").unwrap(), 3);
        assert_eq!(&r.try_read(2).unwrap()[..], b"ab");
        assert_eq!(&r.try_read(8).unwrap()[..], b"c");
    }

    #[test]
    fn empty_read_would_block() {
        let (_w, r) = pipe(8);
        assert_eq!(r.try_read(1).unwrap_err(), PipeError::WouldBlock);
    }

    #[test]
    fn full_write_would_block_then_drains() {
        let (w, r) = pipe(4);
        assert_eq!(w.try_write(b"123456").unwrap(), 4);
        assert_eq!(w.try_write(b"x").unwrap_err(), PipeError::WouldBlock);
        r.try_read(2).unwrap();
        assert_eq!(w.try_write(b"xy").unwrap(), 2);
    }

    #[test]
    fn writer_close_gives_eof() {
        let (w, r) = pipe(4);
        w.try_write(b"z").unwrap();
        drop(w);
        assert_eq!(&r.try_read(4).unwrap()[..], b"z");
        assert_eq!(r.try_read(4).unwrap().len(), 0, "EOF after drain");
    }

    #[test]
    fn a_monadic_write_is_read_back_as_windows_of_the_writers_buffer() {
        let rt = Runtime::builder().workers(1).build();
        let (w, r) = pipe(4096);
        let data = Bytes::from(vec![5u8; 1000]);
        rt.block_on(w.write_all_m(data.clone())).unwrap();
        let head = r.try_read(600).unwrap();
        assert_eq!((head.len(), head.as_ptr()), (600, data.as_ptr()));
        let tail = r.try_read(600).unwrap();
        assert_eq!((tail.len(), tail.as_ptr()), (400, data[600..].as_ptr()));
        rt.shutdown();
    }

    #[test]
    fn an_exact_read_inside_one_window_is_that_window() {
        let rt = Runtime::builder().workers(1).build();
        let (w, r) = pipe(64 * 1024);
        let data = Bytes::from(vec![3u8; 32 * 1024]);
        rt.block_on(w.write_all_m(data.clone())).unwrap();
        let got = rt.block_on(r.read_exact_m(32 * 1024)).unwrap();
        assert_eq!((got.len(), got.as_ptr()), (data.len(), data.as_ptr()));
        rt.shutdown();
    }

    #[test]
    fn reader_close_fails_writes() {
        let (w, r) = pipe(4);
        drop(r);
        assert_eq!(w.try_write(b"a").unwrap_err(), PipeError::Closed);
    }

    #[test]
    fn clone_keeps_end_open() {
        let (w, r) = pipe(4);
        let r2 = r.clone();
        drop(r);
        assert!(w.try_write(b"a").is_ok(), "clone keeps reader open");
        drop(r2);
        assert_eq!(w.try_write(b"b").unwrap_err(), PipeError::Closed);
    }

    #[test]
    fn blocking_roundtrip_across_os_threads() {
        let (w, r) = pipe(16);
        let h = std::thread::spawn(move || {
            w.write_all_blocking(&[7u8; 64]).unwrap();
        });
        let mut total = 0;
        loop {
            let b = r.read_blocking(16);
            if b.is_empty() {
                break;
            }
            assert!(b.iter().all(|&x| x == 7));
            total += b.len();
            if total == 64 {
                break;
            }
        }
        assert_eq!(total, 64);
        h.join().unwrap();
    }

    #[test]
    fn monadic_roundtrip_through_epoll() {
        let rt = Runtime::builder().workers(2).build();
        let (w, r) = pipe(4); // tiny buffer forces epoll waits
        let payload = Bytes::from(vec![42u8; 1024]);
        let expect = payload.clone();
        rt.spawn(crate::do_m! {
            let res <- w.write_all_m(payload);
            crate::syscall::sys_nbio(move || res.expect("write side failed"))
        });
        let got = rt.block_on(crate::do_m! {
            let data <- r.read_exact_m(1024);
            crate::ThreadM::pure(data.expect("read side failed"))
        });
        assert_eq!(got, expect);
        let stats = rt.stats();
        assert!(
            stats.epoll_registrations > 0,
            "tiny buffer must force epoll waits"
        );
        rt.shutdown();
    }

    #[test]
    fn monadic_reader_sees_eof_on_writer_drop() {
        let rt = Runtime::builder().workers(1).build();
        let (w, r) = pipe(8);
        w.try_write(b"ab").unwrap();
        drop(w);
        let got = rt.block_on(r.read_m(16));
        assert_eq!(&got[..], b"ab");
        let eof = rt.block_on(r.read_m(16));
        assert!(eof.is_empty());
        rt.shutdown();
    }

    #[test]
    fn mixed_mode_monadic_writer_blocking_reader() {
        let rt = Runtime::builder().workers(2).build();
        let (w, r) = pipe(8);
        rt.spawn(crate::do_m! {
            let res <- w.write_all_m(Bytes::from(vec![9u8; 256]));
            crate::syscall::sys_nbio(move || res.unwrap())
        });
        let mut total = 0;
        while total < 256 {
            let b = r.read_blocking(64);
            assert!(!b.is_empty());
            total += b.len();
        }
        assert_eq!(total, 256);
        rt.shutdown();
    }
}
