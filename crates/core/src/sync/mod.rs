//! Blocking synchronization for monadic threads (paper §4.7).
//!
//! The paper implements mutexes "as scheduler extensions": a blocked locker's
//! trace is queued inside the mutex and dispatched back to the ready queue on
//! unlock. Every primitive here follows that recipe, built on
//! [`sys_park`](crate::syscall::sys_park): the blocking condition and the
//! waiter queue live under one lock, and wakeups hand one-shot
//! [`Unparker`](crate::reactor::Unparker)s back to the scheduler.
//!
//! The three buffers are one: `Chan`, `SyncChan` and `MVar` are views of
//! one bounded FIFO (`buffer`), which states the recipe once — check and
//! register under one lock, withdraw a losing registration, pass a
//! consumed wake on to the next waiter — and wakes one waiter per change,
//! in FIFO order.
//!
//! * [`Mutex`] — the paper's `sys_mutex`;
//! * [`MVar`] — Concurrent Haskell's one-place buffer (the FIFO with room
//!   for one);
//! * [`Chan`] — an unbounded FIFO channel (the paper's ready queues are
//!   exactly this);
//! * [`SyncChan`] — a bounded channel with back-pressure.

mod buffer;
pub mod chan;
pub mod mutex;
pub mod mvar;

pub use chan::{Chan, SyncChan};
pub use mutex::Mutex;
pub use mvar::MVar;
