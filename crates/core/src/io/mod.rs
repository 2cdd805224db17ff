//! In-memory pollable devices for the real runtime.
//!
//! * [`pipe`](mod@pipe) — FIFO pipes with bounded buffers, usable both from monadic
//!   threads (non-blocking ops + `sys_epoll_wait`) and from plain OS threads
//!   (blocking ops on condition variables). The FIFO scalability benchmark
//!   (paper Figure 18) runs both runtimes against this same device.
//! * [`ramdisk`] — RAM-backed [`AioFile`](crate::aio::AioFile)
//!   implementations with optional modelled latency, plus an in-memory
//!   [`FileStore`](crate::aio::FileStore).
//! * [`queue`] — the one byte FIFO, a queue of refcounted `Bytes` windows:
//!   the pipe's buffer, each direction of the simulator's socket fabric and
//!   both queues of an application-level TCP connection.

pub mod pipe;
pub mod queue;
pub mod ramdisk;

pub use pipe::{pipe, PipeError, PipeReader, PipeWriter};
pub use ramdisk::{MemStore, RamFile, SynthFile};
