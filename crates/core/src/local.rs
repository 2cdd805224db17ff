//! A minimal inline executor: Claessen's original "poor man's concurrency"
//! scheduler.
//!
//! [`LocalExecutor`] drives [`engine::run_task`](crate::engine::run_task)
//! — the one trace interpreter — on the calling thread over a round-robin
//! ready list ([`CountingCtx`]): exactly the paper's Figure 11 scheduler,
//! extended with exceptions. It exists for unit tests, doctests and
//! pedagogy. Parking primitives (mutexes, channels, events) work as on any
//! runtime; timers fire immediately and blocking jobs run inline, and a
//! thread still parked when the ready list drains simply never resumes.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::engine::testing::CountingCtx;
use crate::engine::{run_task, RuntimeCtx};
use crate::exception::Exception;
use crate::task::TaskId;
use crate::thread::ThreadM;
use crate::trace::Trace;

/// Outcome of draining a [`LocalExecutor`].
#[derive(Debug)]
pub struct LocalReport {
    /// Scheduler actions metered so far (one per charged trace node; see
    /// [`CostKind`](crate::engine::CostKind)).
    pub steps: u64,
    /// Threads that ran to completion.
    pub completed: u64,
    /// Exceptions that escaped their threads since the previous report,
    /// in occurrence order.
    pub uncaught: Vec<(TaskId, Exception)>,
}

/// A deterministic, single-threaded, cooperative scheduler for monadic
/// threads: a thread runs until it yields, blocks or exits.
///
/// # Examples
///
/// ```
/// use eveth_core::{local::LocalExecutor, syscall::*, ThreadM};
///
/// let mut ex = LocalExecutor::new();
/// ex.spawn(sys_fork(sys_nbio(|| println!("child"))).then(ThreadM::pure(())));
/// let report = ex.run();
/// assert_eq!(report.completed, 2);
/// ```
pub struct LocalExecutor {
    ctx: Arc<CountingCtx>,
    /// Uncaught exceptions already handed out in an earlier report.
    reported: usize,
}

impl LocalExecutor {
    /// Creates an empty executor.
    pub fn new() -> Self {
        LocalExecutor {
            ctx: Arc::new(CountingCtx::new()),
            reported: 0,
        }
    }

    /// Enqueues a monadic program as a new thread; returns its id.
    pub fn spawn(&mut self, m: ThreadM<()>) -> TaskId {
        self.ctx.spawn(m)
    }

    /// Runs until the ready queue drains or `stop` returns `true` (checked
    /// between scheduling turns).
    pub fn run_until(&mut self, mut stop: impl FnMut() -> bool) -> LocalReport {
        let ctx: Arc<dyn RuntimeCtx> = Arc::clone(&self.ctx) as Arc<dyn RuntimeCtx>;
        while let Some(task) = self.ctx.pop_ready() {
            // Cooperative: no preemption slice.
            run_task(&ctx, task, usize::MAX);
            if stop() {
                break;
            }
        }
        let uncaught = self.ctx.uncaught().split_off(self.reported);
        self.reported += uncaught.len();
        LocalReport {
            steps: self.ctx.charges().len() as u64,
            completed: self.ctx.exited().len() as u64,
            uncaught,
        }
    }

    /// Runs until the queue drains.
    pub fn run(&mut self) -> LocalReport {
        self.run_until(|| false)
    }
}

impl Default for LocalExecutor {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LocalExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalExecutor")
            .field("queued", &self.ctx.ready_count())
            .field("steps", &self.ctx.charges().len())
            .finish()
    }
}

/// Runs a single monadic computation to completion on the calling thread
/// and returns its result (or the exception that escaped it).
///
/// Threads forked by `m` keep running until `m` itself produces a value;
/// they are abandoned afterwards. See [`LocalExecutor`] for full control.
///
/// # Errors
///
/// Returns the exception if `m` throws without catching, or a synthesized
/// exception if `m` terminates via [`sys_ret`](crate::syscall::sys_ret)
/// without producing a value.
pub fn run_local<T: Send + 'static>(m: ThreadM<T>) -> Result<T, Exception> {
    let slot: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
    let out = Arc::clone(&slot);
    let program = ThreadM::new(move |c: crate::thread::Cont<()>| {
        m.run_cont(Box::new(move |v| {
            *out.lock() = Some(v);
            Trace::Nbio(Box::new(move || c(())))
        }))
    });

    let mut ex = LocalExecutor::new();
    let main_tid = ex.spawn(program);
    let done = Arc::clone(&slot);
    let report = ex.run_until(move || done.lock().is_some());

    if let Some(v) = slot.lock().take() {
        return Ok(v);
    }
    for (tid, e) in report.uncaught {
        if tid == main_tid {
            return Err(e);
        }
    }
    Err(Exception::new(
        "main thread terminated without producing a value",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syscall::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn run_local_returns_value() {
        assert_eq!(run_local(ThreadM::pure(3)).unwrap(), 3);
    }

    #[test]
    fn run_local_surfaces_uncaught() {
        let err = run_local(sys_throw::<()>("kaboom")).unwrap_err();
        assert_eq!(err.message(), "kaboom");
    }

    #[test]
    fn run_local_sys_ret_is_error() {
        let err = run_local(sys_ret::<u8>()).unwrap_err();
        assert!(err.message().contains("without producing"));
    }

    #[test]
    fn forked_threads_interleave_round_robin() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut ex = LocalExecutor::new();
        for id in 0..3 {
            let log = Arc::clone(&log);
            ex.spawn(crate::do_m! {
                sys_nbio({ let log = log.clone(); move || log.lock().push((id, 'a')) });
                sys_yield();
                sys_nbio(move || log.lock().push((id, 'b')))
            });
        }
        let r = ex.run();
        assert_eq!(r.completed, 3);
        let entries = log.lock().clone();
        // All 'a' phases precede all 'b' phases under round-robin.
        let first_b = entries.iter().position(|e| e.1 == 'b').unwrap();
        assert!(entries[..first_b].iter().all(|e| e.1 == 'a'));
        assert_eq!(entries.len(), 6);
    }

    #[test]
    fn park_based_sync_runs_under_run_local() {
        // The reader parks through `sys_park` on the empty channel; the
        // shared interpreter resumes it when the forked writer delivers.
        let ch: crate::sync::Chan<u32> = crate::sync::Chan::new();
        let tx = ch.clone();
        let got = run_local(crate::do_m! {
            sys_fork(tx.write(41));
            let v <- ch.read();
            ThreadM::pure(v + 1)
        });
        assert_eq!(got.unwrap(), 42);
        // A park nobody answers ends the run without a value.
        let err = run_local(sys_park(|_u| {})).unwrap_err();
        assert!(err.message().contains("without producing"));
    }

    #[test]
    fn massive_fork_fanout_completes() {
        static N: AtomicU32 = AtomicU32::new(0);
        fn spawn_many(n: u32) -> ThreadM<()> {
            if n == 0 {
                sys_nbio(|| {
                    N.fetch_add(1, Ordering::SeqCst);
                })
            } else {
                crate::do_m! {
                    sys_fork(spawn_many(n - 1));
                    sys_fork(spawn_many(n - 1));
                    ThreadM::pure(())
                }
            }
        }
        let mut ex = LocalExecutor::new();
        ex.spawn(spawn_many(10));
        let r = ex.run();
        assert_eq!(N.load(Ordering::SeqCst), 1024);
        assert_eq!(r.uncaught.len(), 0);
    }

    #[test]
    fn report_debug_nonempty() {
        let mut ex = LocalExecutor::new();
        ex.spawn(ThreadM::pure(()));
        assert!(!format!("{ex:?}").is_empty());
        let r = ex.run();
        assert!(format!("{r:?}").contains("steps"));
    }
}
