//! Blocking synchronization for monadic threads (paper §4.7).
//!
//! The paper implements mutexes "as scheduler extensions": a blocked locker's
//! trace is queued inside the mutex and dispatched back to the ready queue on
//! unlock. Every primitive here follows that recipe, built on
//! [`sys_park`](crate::syscall::sys_park): the blocking condition and the
//! waiter queue live under one lock, and wakeups hand one-shot
//! [`Unparker`](crate::reactor::Unparker)s back to the scheduler.
//!
//! * [`Mutex`] — the paper's `sys_mutex`;
//! * [`MVar`] — Concurrent Haskell's one-place buffer;
//! * [`Chan`] — an unbounded FIFO channel (the paper's ready queues are
//!   exactly this);
//! * [`SyncChan`] — a bounded channel with back-pressure.

pub mod chan;
pub mod mutex;
pub mod mvar;

pub use chan::{Chan, SyncChan};
pub use mutex::Mutex;
pub use mvar::MVar;
