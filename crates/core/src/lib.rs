//! # eveth-core — events *and* threads, at application level
//!
//! A Rust implementation of the hybrid concurrency model of Li & Zdancewic,
//! *"Combining Events and Threads for Scalable Network Services"* (PLDI
//! 2007): per-client code is written as cheap, monadic **threads**, while
//! the whole application is an **event-driven** program built on
//! asynchronous I/O — and both halves live in the same language, address
//! space and compilation unit.
//!
//! The key pieces, following the paper:
//!
//! * [`ThreadM`] — the CPS concurrency monad (`newtype M a = M ((a ->
//!   Trace) -> Trace)`), with [`do_m!`] standing in for Haskell's
//!   `do`-syntax;
//! * [`Trace`] — the lazy tree of system calls a thread performs; the event
//!   abstraction the scheduler traverses;
//! * [`syscall`] — the system-call vocabulary (`sys_nbio`, `sys_fork`,
//!   `sys_epoll_wait`, `sys_aio_read`, `sys_throw`/`sys_catch`, …);
//! * [`engine`] — the trace interpreter shared by every scheduler;
//! * [`runtime`] — the real runtime: SMP `worker_main` loops on one shared
//!   ready queue ([`sched::WorkQueue`]), a `worker_epoll` loop for
//!   readiness and AIO completion events, a blocking-I/O pool and a timer
//!   wheel (paper Figure 14);
//! * [`sync`] — blocking synchronization (mutexes, MVars, channels) built
//!   as scheduler extensions on [`syscall::sys_park`];
//! * [`event`] — first-class composable events (CML-style
//!   `Event`/`choose`/`wrap`/`guard`/`sync`), lowering multi-way waits
//!   ("receive OR time out OR shut down") onto one generalized park;
//! * [`io`] — in-memory pollable devices (FIFO pipes, RAM disk);
//! * [`net`] — the socket abstraction servers program against, so kernel
//!   sockets and the application-level TCP stack are interchangeable;
//! * [`service`] — the event-native service framework: a [`service::Service`]
//!   trait plus a generic [`service::Server`] owning accept fan-out, the
//!   per-session readiness/idle/shutdown `choose`, and graceful drain;
//! * [`telemetry`] — the observability fabric: per-thread spans, a
//!   flight-recorder event ring with Chrome-trace export, a metrics
//!   registry and a live [`telemetry::DebugService`] introspection
//!   endpoint.
//!
//! ## Quickstart
//!
//! ```
//! use eveth_core::{do_m, runtime::Runtime, syscall::*, ThreadM};
//!
//! let rt = Runtime::builder().workers(2).build();
//! let result = rt.block_on(do_m! {
//!     sys_fork(sys_nbio(|| println!("hello from a forked thread")));
//!     let t <- sys_time();
//!     ThreadM::pure(t)
//! });
//! assert!(result < u64::MAX);
//! rt.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// The do_m! macro expands `let p = e;` bindings verbatim, and unit-typed
// bindings there trip an ICE in clippy's let_unit_value lint (clippy
// #13458-style unwrap on None); the lint is noise for this idiom anyway.
#![allow(clippy::let_unit_value)]

pub mod aio;
pub mod check;
pub mod engine;
pub mod event;
pub mod exception;
pub mod hash;
pub mod io;
pub mod local;
pub mod net;
pub mod ops;
pub mod reactor;
pub mod runtime;
pub mod sched;
pub mod service;
pub mod slab;
pub mod sync;
pub mod syscall;
pub mod task;
pub mod telemetry;
pub mod thread;
pub mod time;
pub mod timer;
pub mod trace;

pub use exception::Exception;
pub use thread::{for_each_m, forever_m, loop_m, map_m, poll_until, while_m, Cont, Loop, ThreadM};
pub use trace::Trace;
