//! The CPS concurrency monad (paper §3.2).
//!
//! A computation producing an `A` is represented in continuation-passing
//! style as a function from a continuation `A -> Trace` to a [`Trace`]:
//!
//! ```haskell
//! newtype M a = M ((a -> Trace) -> Trace)
//! ```
//!
//! [`ThreadM<A>`] is the Rust rendering: the continuation and the computation
//! are boxed `FnOnce` closures. [`ThreadM::bind`] is lazy in its function
//! argument — exactly like Haskell's `>>=` — so recursive server loops build
//! their (conceptually infinite) traces one node at a time as the scheduler
//! forces them, and tail-recursive loops run in constant continuation space.
//!
//! The [`do_m!`](crate::do_m) macro plays the role of Haskell's `do`-syntax.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::syscall::{sys_nbio, sys_sleep};
use crate::time::Nanos;
use crate::trace::Trace;

/// A continuation expecting the result of a monadic computation.
pub type Cont<A> = Box<dyn FnOnce(A) -> Trace + Send>;

/// A monadic thread computation producing a value of type `A`.
///
/// Values of this type are inert descriptions: nothing runs until a scheduler
/// forces the thread's trace. Construct computations with the `sys_*` system
/// calls in [`syscall`](crate::syscall), sequence them with [`bind`] /
/// [`do_m!`](crate::do_m), and hand the finished program to a runtime
/// ([`Runtime::spawn`](crate::runtime::Runtime::spawn)) or to the inline
/// cooperative executor ([`run_local`](crate::local::run_local)).
///
/// [`bind`]: ThreadM::bind
///
/// # Examples
///
/// ```
/// use eveth_core::{do_m, local::run_local, syscall::sys_yield, ThreadM};
///
/// let program = do_m! {
///     let x <- ThreadM::pure(20);
///     sys_yield();
///     let y <- ThreadM::from_fn(move || x + 22);
///     ThreadM::pure(y)
/// };
/// assert_eq!(run_local(program).unwrap(), 42);
/// ```
pub struct ThreadM<A> {
    run: Box<dyn FnOnce(Cont<A>) -> Trace + Send>,
}

impl<A: Send + 'static> ThreadM<A> {
    /// Wraps a raw CPS function. This is the `M` constructor of the paper;
    /// most users want the `sys_*` calls instead.
    pub fn new(f: impl FnOnce(Cont<A>) -> Trace + Send + 'static) -> Self {
        ThreadM { run: Box::new(f) }
    }

    /// Monadic `return`: lifts a value into the monad.
    ///
    /// # Examples
    ///
    /// ```
    /// use eveth_core::{local::run_local, ThreadM};
    /// assert_eq!(run_local(ThreadM::pure(7)).unwrap(), 7);
    /// ```
    pub fn pure(a: A) -> Self {
        ThreadM::new(move |c| c(a))
    }

    /// Lifts a *pure* computation, evaluated only when the thread reaches
    /// this point. Use [`sys_nbio`] instead for effectful operations so
    /// they appear in the trace.
    pub fn from_fn(f: impl FnOnce() -> A + Send + 'static) -> Self {
        ThreadM::new(move |c| c(f()))
    }

    /// Monadic bind (`>>=`): sequential composition.
    ///
    /// `f` runs only when this computation's result is available at
    /// *execution* time, so recursive definitions such as
    /// `fn server() -> ThreadM<()> { step().bind(|_| server()) }`
    /// terminate at construction time and unfold lazily, exactly like the
    /// paper's recursive `server` example (Figure 4).
    pub fn bind<B: Send + 'static>(
        self,
        f: impl FnOnce(A) -> ThreadM<B> + Send + 'static,
    ) -> ThreadM<B> {
        ThreadM::new(move |c| (self.run)(Box::new(move |a| (f(a).run)(c))))
    }

    /// Functorial map over the result.
    pub fn map<B: Send + 'static>(self, f: impl FnOnce(A) -> B + Send + 'static) -> ThreadM<B> {
        ThreadM::new(move |c| (self.run)(Box::new(move |a| c(f(a)))))
    }

    /// Sequences `next` after `self`, discarding `self`'s result.
    ///
    /// `next` is constructed eagerly; for recursive tails use [`bind`] with a
    /// closure (or `do_m!`, which always produces lazy chains).
    ///
    /// [`bind`]: ThreadM::bind
    pub fn then<B: Send + 'static>(self, next: ThreadM<B>) -> ThreadM<B> {
        self.bind(move |_| next)
    }

    /// Discards the result.
    pub fn void(self) -> ThreadM<()> {
        self.map(|_| ())
    }

    /// Runs the CPS function with an explicit continuation, producing a
    /// trace. This is how schedulers and combinators tie the knot.
    pub fn run_cont(self, c: Cont<A>) -> Trace {
        (self.run)(c)
    }

    /// Converts the computation into a trace by appending the final
    /// `SYS_RET` continuation — the paper's `build_trace` (Figure 8).
    ///
    /// # Examples
    ///
    /// ```
    /// use eveth_core::{syscall::sys_yield, ThreadM};
    /// let t = sys_yield().into_trace();
    /// assert_eq!(t.kind(), "SYS_YIELD");
    /// ```
    pub fn into_trace(self) -> Trace {
        (self.run)(Box::new(|_| Trace::Ret))
    }
}

impl<A: Send + 'static> From<A> for ThreadM<A> {
    fn from(a: A) -> Self {
        ThreadM::pure(a)
    }
}

impl<A> std::fmt::Debug for ThreadM<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ThreadM(..)")
    }
}

/// A one-shot continuation cell shared between the success and failure paths
/// of `sys_catch`: only one of the two ever consumes it.
pub(crate) struct SharedCont<A>(Arc<Mutex<Option<Cont<A>>>>);

impl<A> Clone for SharedCont<A> {
    fn clone(&self) -> Self {
        SharedCont(Arc::clone(&self.0))
    }
}

impl<A> SharedCont<A> {
    pub(crate) fn new(c: Cont<A>) -> Self {
        SharedCont(Arc::new(Mutex::new(Some(c))))
    }

    /// Takes the continuation out.
    ///
    /// # Panics
    ///
    /// Panics if both paths of a `sys_catch` attempt to resume — a scheduler
    /// bug, never reachable from safe user code.
    pub(crate) fn take(&self) -> Cont<A> {
        self.0
            .lock()
            .take()
            .expect("sys_catch continuation resumed twice")
    }
}

/// Imperative-style sequencing for monadic threads — the paper's `do`-syntax.
///
/// Statement forms:
///
/// * `let x <- expr;` — monadic bind: run `expr :: ThreadM<T>`, bind `x : T`;
/// * `let pat = expr;` — ordinary pure `let`;
/// * `expr;` — run a monadic action, discarding its result;
/// * final `expr` — the overall result (`ThreadM<R>`).
///
/// # Examples
///
/// The paper's server/client skeleton (Figure 4):
///
/// ```
/// use eveth_core::{do_m, local::run_local, syscall::*, ThreadM};
///
/// fn client(n: u32) -> ThreadM<()> {
///     do_m! {
///         sys_nbio(move || println!("client {n}"));
///         ThreadM::pure(())
///     }
/// }
///
/// fn server(n: u32) -> ThreadM<()> {
///     do_m! {
///         sys_fork(client(n));
///         let more <- ThreadM::pure(n > 0);
///         if more { server(n - 1) } else { ThreadM::pure(()) }
///     }
/// }
///
/// run_local(server(3)).unwrap();
/// ```
#[macro_export]
macro_rules! do_m {
    (let mut $x:ident <- $e:expr ; $($rest:tt)+) => {
        $crate::ThreadM::bind($e, move |mut $x| $crate::do_m!($($rest)+))
    };
    (let $x:ident <- $e:expr ; $($rest:tt)+) => {
        $crate::ThreadM::bind($e, move |$x| $crate::do_m!($($rest)+))
    };
    (let $p:pat = $e:expr ; $($rest:tt)+) => {
        { let $p = $e; $crate::do_m!($($rest)+) }
    };
    ($e:expr ; $($rest:tt)+) => {
        $crate::ThreadM::bind($e, move |_| $crate::do_m!($($rest)+))
    };
    ($e:expr) => { $e };
}

/// Control-flow outcome for [`loop_m`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loop<S, B> {
    /// Run another iteration with the new state.
    Continue(S),
    /// Stop, yielding the final value.
    Break(B),
}

/// A monadic loop: repeatedly runs `body` threading state `S` until it
/// returns [`Loop::Break`]. Tail-recursive in CPS, so it runs in constant
/// continuation space regardless of iteration count.
///
/// # Examples
///
/// ```
/// use eveth_core::{local::run_local, loop_m, Loop, ThreadM};
///
/// let sum = loop_m((0u64, 0u64), |(i, acc)| {
///     ThreadM::pure(if i == 10 {
///         Loop::Break(acc)
///     } else {
///         Loop::Continue((i + 1, acc + i))
///     })
/// });
/// assert_eq!(run_local(sum).unwrap(), 45);
/// ```
pub fn loop_m<S, B, F>(init: S, body: F) -> ThreadM<B>
where
    S: Send + 'static,
    B: Send + 'static,
    F: Fn(S) -> ThreadM<Loop<S, B>> + Send + Sync + 'static,
{
    loop_arc(init, Arc::new(body))
}

fn loop_arc<S, B, F>(state: S, body: Arc<F>) -> ThreadM<B>
where
    S: Send + 'static,
    B: Send + 'static,
    F: Fn(S) -> ThreadM<Loop<S, B>> + Send + Sync + 'static,
{
    let step = body(state);
    step.bind(move |outcome| match outcome {
        Loop::Continue(s) => loop_arc(s, body),
        Loop::Break(b) => ThreadM::pure(b),
    })
}

/// Runs `body` once per item of `items`, in order.
pub fn for_each_m<I, T, F>(items: I, body: F) -> ThreadM<()>
where
    I: IntoIterator<Item = T>,
    I::IntoIter: Send + 'static,
    T: Send + 'static,
    F: Fn(T) -> ThreadM<()> + Send + Sync + 'static,
{
    let iter = items.into_iter();
    loop_m(iter, move |mut it| match it.next() {
        Some(item) => body(item).map(move |_| Loop::Continue(it)),
        None => ThreadM::pure(Loop::Break(())),
    })
}

/// Runs `body(i)` for `i in 0..n`, collecting the results.
pub fn map_m<T, F>(n: usize, body: F) -> ThreadM<Vec<T>>
where
    T: Send + 'static,
    F: Fn(usize) -> ThreadM<T> + Send + Sync + 'static,
{
    loop_m((0usize, Vec::with_capacity(n)), move |(i, mut acc)| {
        if i == n {
            ThreadM::pure(Loop::Break(acc))
        } else {
            body(i).map(move |v| {
                acc.push(v);
                Loop::Continue((i + 1, acc))
            })
        }
    })
}

/// Repeats `body` forever (or until the thread exits via
/// [`sys_ret`](crate::syscall::sys_ret) or an uncaught exception).
pub fn forever_m<F>(body: F) -> ThreadM<()>
where
    F: Fn() -> ThreadM<()> + Send + Sync + 'static,
{
    loop_m((), move |()| body().map(|_| Loop::Continue(())))
}

/// Runs `cond`, and while it yields `true`, runs `body`.
pub fn while_m<C, F>(cond: C, body: F) -> ThreadM<()>
where
    C: Fn() -> ThreadM<bool> + Send + Sync + 'static,
    F: Fn() -> ThreadM<()> + Send + Sync + 'static,
{
    let cond = Arc::new(cond);
    let body = Arc::new(body);
    loop_m((), move |()| {
        let body = Arc::clone(&body);
        cond().bind(move |go| {
            if go {
                body().map(|_| Loop::Continue(()))
            } else {
                ThreadM::pure(Loop::Break(()))
            }
        })
    })
}

/// Sleeps `every`, then checks `cond` in one non-blocking step, until it
/// holds: how a harness waits for work it has spawned to finish. Sleeping
/// lets the scheduler run everything else in between, so the same loop
/// serves a simulator's virtual clock and a wall-clock runtime.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
/// use eveth_core::{local::run_local, poll_until, time::MILLIS};
///
/// let polls = Arc::new(AtomicU64::new(0));
/// let seen = Arc::clone(&polls);
/// run_local(poll_until(MILLIS, move || seen.fetch_add(1, Ordering::SeqCst) == 2)).unwrap();
/// assert_eq!(polls.load(Ordering::SeqCst), 3);
/// ```
pub fn poll_until<C>(every: Nanos, cond: C) -> ThreadM<()>
where
    C: Fn() -> bool + Send + Sync + 'static,
{
    let cond = Arc::new(cond);
    loop_m((), move |()| {
        let cond = Arc::clone(&cond);
        sys_sleep(every)
            .bind(move |()| sys_nbio(move || cond()))
            .map(|ok| {
                if ok {
                    Loop::Break(())
                } else {
                    Loop::Continue(())
                }
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::run_local;
    use crate::syscall::{sys_nbio, sys_yield};
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn pure_returns_value() {
        assert_eq!(run_local(ThreadM::pure(5)).unwrap(), 5);
    }

    #[test]
    fn bind_sequences() {
        let m = ThreadM::pure(2).bind(|x| ThreadM::pure(x * 3));
        assert_eq!(run_local(m).unwrap(), 6);
    }

    #[test]
    fn map_transforms() {
        assert_eq!(run_local(ThreadM::pure(2).map(|x| x + 1)).unwrap(), 3);
    }

    #[test]
    fn then_discards_left() {
        let m = ThreadM::pure("ignored").then(ThreadM::pure(9));
        assert_eq!(run_local(m).unwrap(), 9);
    }

    // Observational monad laws: we cannot compare closures, so we compare
    // run_local results over effect logs.
    #[test]
    fn monad_law_left_identity() {
        let f = |x: i32| ThreadM::pure(x + 1);
        let lhs = ThreadM::pure(41).bind(f);
        let rhs = f(41);
        assert_eq!(run_local(lhs).unwrap(), run_local(rhs).unwrap());
    }

    #[test]
    fn monad_law_right_identity() {
        let m = || ThreadM::pure(7).map(|x| x * 2);
        let lhs = m().bind(ThreadM::pure);
        assert_eq!(run_local(lhs).unwrap(), run_local(m()).unwrap());
    }

    #[test]
    fn monad_law_associativity() {
        let m = || ThreadM::pure(1);
        let f = |x: i32| ThreadM::pure(x + 1);
        let g = |x: i32| ThreadM::pure(x * 10);
        let lhs = m().bind(f).bind(g);
        let rhs = m().bind(move |x| f(x).bind(g));
        assert_eq!(run_local(lhs).unwrap(), run_local(rhs).unwrap());
    }

    #[test]
    fn do_m_bind_and_pure_let() {
        let m = do_m! {
            let x <- ThreadM::pure(10);
            let y = x * 2;
            let z <- ThreadM::pure(y + 1);
            ThreadM::pure(z)
        };
        assert_eq!(run_local(m).unwrap(), 21);
    }

    #[test]
    fn do_m_discard_statement() {
        static HITS: AtomicU64 = AtomicU64::new(0);
        let m = do_m! {
            sys_nbio(|| HITS.fetch_add(1, Ordering::SeqCst));
            sys_nbio(|| HITS.fetch_add(1, Ordering::SeqCst));
            ThreadM::pure(())
        };
        run_local(m).unwrap();
        assert_eq!(HITS.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn do_m_mut_binding() {
        let m = do_m! {
            let mut v <- ThreadM::pure(vec![1]);
            let _ = v.push(2);
            ThreadM::pure(v)
        };
        assert_eq!(run_local(m).unwrap(), vec![1, 2]);
    }

    #[test]
    fn loop_m_counts() {
        let m = loop_m(0u32, |n| {
            ThreadM::pure(if n < 1000 {
                Loop::Continue(n + 1)
            } else {
                Loop::Break(n)
            })
        });
        assert_eq!(run_local(m).unwrap(), 1000);
    }

    #[test]
    fn loop_m_with_yields_is_constant_space() {
        // One hundred thousand yields: would overflow the native stack if the
        // CPS chain grew per iteration.
        let m = loop_m(0u32, |n| {
            if n < 100_000 {
                sys_yield().map(move |_| Loop::Continue(n + 1))
            } else {
                ThreadM::pure(Loop::Break(n))
            }
        });
        assert_eq!(run_local(m).unwrap(), 100_000);
    }

    #[test]
    fn for_each_m_visits_in_order() {
        let log = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let l2 = log.clone();
        let m = for_each_m(vec![1, 2, 3], move |x| {
            let l = l2.clone();
            sys_nbio(move || l.lock().push(x))
        });
        run_local(m).unwrap();
        assert_eq!(*log.lock(), vec![1, 2, 3]);
    }

    #[test]
    fn map_m_collects() {
        let m = map_m(5, |i| ThreadM::pure(i * i));
        assert_eq!(run_local(m).unwrap(), vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn while_m_runs_until_false() {
        let n = std::sync::Arc::new(AtomicU64::new(0));
        let n1 = n.clone();
        let n2 = n.clone();
        let m = while_m(
            move || {
                let n = n1.clone();
                sys_nbio(move || n.load(Ordering::SeqCst) < 5)
            },
            move || {
                let n = n2.clone();
                sys_nbio(move || {
                    n.fetch_add(1, Ordering::SeqCst);
                })
            },
        );
        run_local(m).unwrap();
        assert_eq!(n.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn from_value() {
        let m: ThreadM<i32> = 3.into();
        assert_eq!(run_local(m).unwrap(), 3);
    }

    #[test]
    fn debug_nonempty() {
        assert!(!format!("{:?}", ThreadM::pure(1)).is_empty());
    }
}
