//! The system calls of the multithreaded programming interface (paper
//! Figures 5, 9, 12 and 15).
//!
//! Each `sys_*` function is a monadic operation that, when executed, emits
//! one trace node carrying the current continuation — the Rust rendering of
//! the paper's Figure 9. Thread code composes these with
//! [`do_m!`](crate::do_m) in an imperative style; the scheduler interprets
//! the resulting trace.

use std::sync::Arc;

use bytes::Bytes;

use crate::aio::{AioFile, AioReadReq, AioResult, AioWriteReq};
use crate::exception::Exception;
use crate::reactor::{Fd, Interest, Unparker};
use crate::thread::{Cont, SharedCont, ThreadM};
use crate::time::Nanos;
use crate::trace::{Thunk, Trace};

/// `sys_nbio` — performs a non-blocking, effectful operation on a scheduler
/// worker and returns its result.
///
/// The closure must not block: blocking here stalls an entire event loop
/// (use [`sys_blio`] for genuinely blocking calls).
///
/// # Examples
///
/// ```
/// use eveth_core::{local::run_local, syscall::sys_nbio};
/// let m = sys_nbio(|| 2 + 2);
/// assert_eq!(run_local(m).unwrap(), 4);
/// ```
pub fn sys_nbio<T, F>(f: F) -> ThreadM<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    ThreadM::new(move |c| Trace::Nbio(Box::new(move || c(f()))))
}

/// `sys_fork` — spawns `child` as a new monadic thread and continues.
///
/// The fork trace node carries two sub-traces: the child's and the parent's
/// continuation (paper Figure 5). The child starts with an empty
/// exception-handler stack.
pub fn sys_fork(child: ThreadM<()>) -> ThreadM<()> {
    ThreadM::new(move |c| {
        Trace::Fork(
            Box::new(move || child.into_trace()),
            Box::new(move || c(())),
        )
    })
}

/// `sys_yield` — cooperatively reschedules the current thread at the back
/// of the ready queue.
pub fn sys_yield() -> ThreadM<()> {
    ThreadM::new(|c| Trace::Yield(Box::new(move || c(()))))
}

/// `sys_ret` — terminates the current thread immediately.
///
/// Polymorphic in its (never produced) result so it can end a thread from
/// any context, like Haskell's bottom-typed exits.
pub fn sys_ret<A: Send + 'static>() -> ThreadM<A> {
    ThreadM::new(|_c| Trace::Ret)
}

/// `sys_epoll_wait` — blocks until `interest` is ready on `fd` (paper
/// Figure 15). Used to wrap non-blocking operations into blocking ones, as
/// in the paper's `sock_accept` (Figure 10).
pub fn sys_epoll_wait(fd: &Fd, interest: Interest) -> ThreadM<()> {
    let fd = fd.clone();
    ThreadM::new(move |c| Trace::EpollWait(fd, interest, Box::new(move || c(()))))
}

/// `sys_aio_read` — submits an asynchronous read and blocks until its
/// completion arrives through the runtime's event loop.
pub fn sys_aio_read(file: &Arc<dyn AioFile>, offset: u64, len: usize) -> ThreadM<AioResult> {
    let file = Arc::clone(file);
    ThreadM::new(move |c| Trace::AioRead(AioReadReq { file, offset, len }, Box::new(c)))
}

/// `sys_aio_write` — submits an asynchronous write and blocks until it
/// completes. On success the result carries an empty buffer.
pub fn sys_aio_write(file: &Arc<dyn AioFile>, offset: u64, data: Bytes) -> ThreadM<AioResult> {
    let file = Arc::clone(file);
    ThreadM::new(move |c| Trace::AioWrite(AioWriteReq { file, offset, data }, Box::new(c)))
}

/// `sys_blio` — runs a *blocking* operation on the blocking-I/O thread pool
/// (paper §4.6: file opens, address resolution, …), then resumes on a
/// normal worker with the result.
pub fn sys_blio<T, F>(f: F) -> ThreadM<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    ThreadM::new(move |c| {
        Trace::Blio(Box::new(move || {
            let v = f();
            Box::new(move || c(v)) as Thunk
        }))
    })
}

/// `sys_throw` — raises an exception to the nearest enclosing
/// [`sys_catch`]; if none exists the thread terminates and the runtime
/// records the exception as uncaught.
pub fn sys_throw<A: Send + 'static>(e: impl Into<Exception>) -> ThreadM<A> {
    let e = e.into();
    ThreadM::new(move |_c| Trace::Throw(e))
}

/// `sys_catch` — runs `body` with `handler` installed (paper Figure 12).
///
/// If `body` completes with a value the handler is discarded; if it throws,
/// the handler runs *with the frame already popped*, so exceptions it
/// rethrows propagate outward — the pattern of the paper's `send_file`
/// (Figure 13).
///
/// # Examples
///
/// ```
/// use eveth_core::{local::run_local, syscall::*, ThreadM};
/// let m = sys_catch(sys_throw::<i32>("bad"), |e| {
///     ThreadM::pure(if e.message() == "bad" { 1 } else { 2 })
/// });
/// assert_eq!(run_local(m).unwrap(), 1);
/// ```
pub fn sys_catch<A, H>(body: ThreadM<A>, handler: H) -> ThreadM<A>
where
    A: Send + 'static,
    H: FnOnce(Exception) -> ThreadM<A> + Send + 'static,
{
    ThreadM::new(move |c: Cont<A>| {
        let shared = SharedCont::new(c);
        let on_ok = shared.clone();
        let on_err = shared;
        Trace::Catch {
            body: Box::new(move || {
                body.run_cont(Box::new(move |a| {
                    // Normal completion: pop the handler frame, then resume.
                    Trace::CatchPop(Box::new(move || on_ok.take()(a)))
                }))
            }),
            handler: Box::new(move |e| {
                // The engine popped the frame before invoking us.
                handler(e).run_cont(Box::new(move |a| on_err.take()(a)))
            }),
        }
    })
}

/// Runs `body` and converts any exception into an `Err` value.
pub fn sys_try<A: Send + 'static>(body: ThreadM<A>) -> ThreadM<Result<A, Exception>> {
    sys_catch(body.map(Ok), |e| ThreadM::pure(Err(e)))
}

/// Runs `body`, then `cleanup()` — whether `body` completed or threw. An
/// exception from `body` is rethrown after the cleanup runs.
pub fn sys_finally<A, F>(body: ThreadM<A>, cleanup: F) -> ThreadM<A>
where
    A: Send + 'static,
    F: Fn() -> ThreadM<()> + Send + Sync + 'static,
{
    let cleanup = Arc::new(cleanup);
    let on_err = Arc::clone(&cleanup);
    sys_catch(body, move |e| on_err().bind(move |_| sys_throw(e)))
        .bind(move |a| cleanup().map(move |_| a))
}

/// `sys_sleep` — blocks the thread for `dur` nanoseconds (virtual time
/// under simulation).
pub fn sys_sleep(dur: Nanos) -> ThreadM<()> {
    ThreadM::new(move |c| Trace::Sleep(dur, Box::new(move || c(()))))
}

/// `sys_time` — reads the scheduler clock (nanoseconds since runtime
/// start; virtual under simulation).
pub fn sys_time() -> ThreadM<Nanos> {
    ThreadM::new(|c| Trace::GetTime(Box::new(c)))
}

/// `sys_cpu` — consumes modelled CPU time: a no-op on the real runtime, a
/// clock advance under simulation. Workload models use this to represent
/// per-request processing cost.
pub fn sys_cpu(dur: Nanos) -> ThreadM<()> {
    ThreadM::new(move |c| Trace::Cpu(dur, Box::new(move || c(()))))
}

/// `sys_park` — the scheduler-extension interface (paper §4.7).
///
/// Parks the current thread and hands a one-shot [`Unparker`] to
/// `register`, which typically stores it in a waiter queue guarded by the
/// same lock that protects the blocking condition. If the condition is
/// already satisfied, `register` may unpark immediately. Mutexes, MVars,
/// channels, TCP socket waits and STM `retry` are all built on this call.
pub fn sys_park<F>(register: F) -> ThreadM<()>
where
    F: FnOnce(Unparker) + Send + 'static,
{
    ThreadM::new(move |c| Trace::Park(Box::new(register), Box::new(move || c(()))))
}

/// `sys_annotate` — names the current thread's telemetry span.
///
/// A pure metadata operation: the scheduler forwards the name to the
/// attached [`Telemetry`](crate::telemetry::Telemetry) hub (a no-op when
/// none is attached) and charges nothing, so annotating is free to leave
/// in production code. Spans keep their latest name; the flight recorder
/// logs every annotation.
pub fn sys_annotate(name: impl Into<Arc<str>>) -> ThreadM<()> {
    let name = name.into();
    ThreadM::new(move |c| Trace::Annotate(name, Box::new(move || c(()))))
}

/// Runs `m` with the current thread's span named `name` — sugar for
/// `sys_annotate(name)` followed by `m`. The name applies to the *whole*
/// thread from this point (spans are per-thread, not scoped), so put the
/// `span` at the top of the thread's program.
pub fn span<A: Send + 'static>(name: impl Into<Arc<str>>, m: ThreadM<A>) -> ThreadM<A> {
    sys_annotate(name).bind(move |_| m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::run_local;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn nbio_runs_effect() {
        static N: AtomicU32 = AtomicU32::new(0);
        run_local(sys_nbio(|| N.store(9, Ordering::SeqCst))).unwrap();
        assert_eq!(N.load(Ordering::SeqCst), 9);
    }

    #[test]
    fn trace_of_yield_is_sys_yield() {
        assert_eq!(sys_yield().into_trace().kind(), "SYS_YIELD");
    }

    #[test]
    fn trace_of_fork_is_sys_fork() {
        assert_eq!(sys_fork(ThreadM::pure(())).into_trace().kind(), "SYS_FORK");
    }

    #[test]
    fn catch_discards_handler_on_success() {
        let m = sys_catch(ThreadM::pure(5), |_e| ThreadM::pure(0));
        assert_eq!(run_local(m).unwrap(), 5);
    }

    #[test]
    fn catch_rethrow_reaches_outer_handler() {
        let inner = sys_catch(sys_throw::<i32>("inner"), |e| {
            sys_throw::<i32>(Exception::new(format!("wrapped: {}", e.message())))
        });
        let outer = sys_catch(inner, |e| ThreadM::pure(e.message().len() as i32));
        assert_eq!(run_local(outer).unwrap(), "wrapped: inner".len() as i32);
    }

    #[test]
    fn nested_catch_unwinds_in_order() {
        let m = sys_catch(
            sys_catch(sys_throw::<&'static str>("deep"), |e| {
                ThreadM::pure(if e.message() == "deep" { "mid" } else { "?" })
            }),
            |_e| ThreadM::pure("outer"),
        );
        assert_eq!(run_local(m).unwrap(), "mid");
    }

    #[test]
    fn sys_try_captures() {
        let ok = run_local(sys_try(ThreadM::pure(1))).unwrap();
        assert_eq!(ok.unwrap(), 1);
        let err = run_local(sys_try(sys_throw::<i32>("e"))).unwrap();
        assert_eq!(err.unwrap_err().message(), "e");
    }

    #[test]
    fn finally_runs_on_success_and_failure() {
        static RUNS: AtomicU32 = AtomicU32::new(0);
        let cleanup = || {
            sys_nbio(|| {
                RUNS.fetch_add(1, Ordering::SeqCst);
            })
        };

        run_local(sys_finally(ThreadM::pure(1), cleanup)).unwrap();
        assert_eq!(RUNS.load(Ordering::SeqCst), 1);

        let failing = sys_finally(sys_throw::<i32>("x"), cleanup);
        let caught = sys_catch(failing, |e| ThreadM::pure(e.message().len() as i32));
        assert_eq!(run_local(caught).unwrap(), 1);
        assert_eq!(RUNS.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn exceptions_cross_nbio_boundaries() {
        let m = sys_catch(
            crate::do_m! {
                sys_nbio(|| 1);
                sys_yield();
                sys_throw::<u8>("later")
            },
            |e| ThreadM::pure(e.message().len() as u8),
        );
        assert_eq!(run_local(m).unwrap(), 5);
    }

    #[test]
    fn sys_time_is_monotone_in_local_executor() {
        let m = crate::do_m! {
            let t1 <- sys_time();
            sys_yield();
            let t2 <- sys_time();
            ThreadM::pure((t1, t2))
        };
        let (t1, t2) = run_local(m).unwrap();
        assert!(t2 >= t1);
    }
}
