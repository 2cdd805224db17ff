//! Transactions: optimistic read/write logs, TL2 validation and commit,
//! `retry` and `or_else`.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use eveth_core::reactor::{DirectPort, Waiter};
use eveth_core::syscall::{sys_nbio, sys_park, sys_yield};
use eveth_core::telemetry::metrics::Counter;
use eveth_core::{loop_m, Loop, ThreadM};
use parking_lot::Mutex;

use crate::tvar::{ReadEntry, ReadLog, StmEntry, TVar, WriteEntry, GLOBAL_CLOCK};

/// Why a transaction attempt did not produce a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StmAbort {
    /// The program requested [`Txn::retry`]: block until a read variable
    /// changes, then re-run.
    Retry,
    /// A concurrent commit invalidated this attempt: re-run immediately.
    Conflict,
}

/// Result of one transaction body run.
pub type StmResult<T> = Result<T, StmAbort>;

/// An in-flight transaction: the read set, the write set, and the read
/// version (TL2 snapshot timestamp).
pub struct Txn {
    rv: u64,
    reads: Vec<Box<dyn ReadLog>>,
    writes: BTreeMap<u64, Box<dyn StmEntry>>,
}

impl std::fmt::Debug for Txn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Txn(rv={}, reads={}, writes={})",
            self.rv,
            self.reads.len(),
            self.writes.len()
        )
    }
}

impl Txn {
    fn begin() -> Self {
        Txn {
            rv: GLOBAL_CLOCK.load(Ordering::SeqCst),
            reads: Vec::new(),
            writes: BTreeMap::new(),
        }
    }

    /// Reads `tvar` inside the transaction.
    ///
    /// # Errors
    ///
    /// [`StmAbort::Conflict`] if a concurrent commit has already
    /// invalidated this attempt (the runner re-executes the body).
    pub fn read<T: Clone + Send + 'static>(&mut self, tvar: &TVar<T>) -> StmResult<T> {
        // Read-your-own-writes.
        if let Some(entry) = self.writes.get(&tvar.id()) {
            if let Some(w) = entry.as_any().downcast_ref::<WriteEntry<T>>() {
                if let Some(v) = &w.pending {
                    return Ok(v.clone());
                }
            }
        }
        let value = {
            let slot = tvar.inner.slot.lock();
            if slot.locked || slot.version > self.rv {
                return Err(StmAbort::Conflict);
            }
            slot.value.clone()
        };
        self.reads.push(Box::new(ReadEntry::new(tvar.clone())));
        Ok(value)
    }

    /// Queues a write to `tvar`, visible to later reads in this
    /// transaction and applied atomically at commit.
    pub fn write<T: Clone + Send + 'static>(&mut self, tvar: &TVar<T>, value: T) {
        self.writes.insert(
            tvar.id(),
            Box::new(WriteEntry {
                tvar: tvar.clone(),
                pending: Some(value),
            }),
        );
    }

    /// Blocks the transaction until one of the variables it has read
    /// changes (GHC's `retry`).
    ///
    /// # Errors
    ///
    /// Always returns `Err(StmAbort::Retry)` — the runner interprets it.
    pub fn retry<T>(&self) -> StmResult<T> {
        Err(StmAbort::Retry)
    }

    /// Runs `first`; if it retries, rolls its *writes* back and runs
    /// `second` (GHC's `orElse`). Reads from both alternatives stay in the
    /// log, so a `retry` from both waits on the union.
    pub fn or_else<T>(
        &mut self,
        first: impl FnOnce(&mut Txn) -> StmResult<T>,
        second: impl FnOnce(&mut Txn) -> StmResult<T>,
    ) -> StmResult<T> {
        let write_keys: Vec<u64> = self.writes.keys().copied().collect();
        match first(self) {
            Err(StmAbort::Retry) => {
                // Roll back writes added by `first`.
                let added: Vec<u64> = self
                    .writes
                    .keys()
                    .copied()
                    .filter(|k| !write_keys.contains(k))
                    .collect();
                for k in added {
                    self.writes.remove(&k);
                }
                second(self)
            }
            other => other,
        }
    }

    /// Attempts to commit. On success wakes retry-waiters of every written
    /// variable.
    fn commit(mut self) -> Result<(), StmAbort> {
        // Phase 1: lock the write set in id order (BTreeMap iterates
        // sorted, so concurrent committers cannot deadlock).
        let mut locked: Vec<u64> = Vec::with_capacity(self.writes.len());
        for (id, entry) in self.writes.iter() {
            if entry.try_lock() {
                locked.push(*id);
            } else {
                for lid in &locked {
                    self.writes[lid].unlock();
                }
                return Err(StmAbort::Conflict);
            }
        }
        // Phase 2: validate the read set against the snapshot.
        for r in &self.reads {
            let own_lock = self.writes.contains_key(&r.id());
            let ok = if own_lock {
                // We hold this lock; check the version via the write entry.
                self.writes[&r.id()].version_ok(self.rv)
            } else {
                r.version_ok(self.rv)
            };
            if !ok {
                for lid in &locked {
                    self.writes[lid].unlock();
                }
                return Err(StmAbort::Conflict);
            }
        }
        // Phase 3: commit at a fresh version and wake waiters.
        let wv = GLOBAL_CLOCK.fetch_add(1, Ordering::SeqCst) + 1;
        for (_, entry) in self.writes.iter_mut() {
            entry.commit_value(wv);
        }
        for (_, entry) in self.writes.iter() {
            entry.wake_waiters();
        }
        Ok(())
    }
}

/// An attempt that did not commit: why, plus what a `retry` parks on —
/// the read set and the snapshot version it was read at.
struct Aborted {
    why: StmAbort,
    reads: Vec<Box<dyn ReadLog>>,
    rv: u64,
}

/// Runs one optimistic attempt: `Ok(v)` = committed, `Err(aborted)` = try
/// again (possibly after blocking).
fn attempt<A, F>(body: &F) -> Result<A, Aborted>
where
    F: Fn(&mut Txn) -> StmResult<A>,
{
    let mut txn = Txn::begin();
    let rv = txn.rv;
    let aborted = |why, reads| Aborted { why, reads, rv };
    match body(&mut txn) {
        Ok(v) => txn
            .commit()
            .map(|()| v)
            .map_err(|why| aborted(why, Vec::new())),
        Err(why) => Err(aborted(why, std::mem::take(&mut txn.reads))),
    }
}

/// Contention counters for a family of transactions.
///
/// STM contention never parks a thread on a lock — it shows up as
/// *re-executions* — so it is invisible to lock-wait accounting. Handing
/// the same `TxnStats` to every [`atomically_m_with_stats`] call over a
/// shared datum (as the KV store's STM backend does per store) makes that
/// contention observable: `conflicts + retry_waits` is the number of
/// wasted attempts. The cells are registry [`Counter`]s, so an owner
/// registers them on a telemetry `Registry` as they are.
#[derive(Debug, Default)]
pub struct TxnStats {
    /// Attempts invalidated by a concurrent commit (re-run immediately).
    pub conflicts: Counter,
    /// Attempts that blocked on [`Txn::retry`] (re-run after a commit to
    /// the read set).
    pub retry_waits: Counter,
    /// Attempts that committed.
    pub commits: Counter,
}

impl TxnStats {
    /// A fresh zeroed counter set.
    pub fn new() -> Arc<Self> {
        Arc::new(TxnStats::default())
    }

    /// Total re-executed attempts (conflicts + retry blocks) — the STM
    /// analogue of lock contentions.
    pub fn retries(&self) -> u64 {
        self.conflicts.get() + self.retry_waits.get()
    }
}

/// Runs `body` transactionally from a *monadic thread*: attempts execute
/// via `sys_nbio` (they never block the scheduler, per the paper's §4.7),
/// `Conflict` re-runs after a yield, and `Retry` parks the thread on every
/// variable in the read set until one of them is committed to.
///
/// # Examples
///
/// ```
/// use eveth_core::runtime::Runtime;
/// use eveth_stm::{atomically_m, TVar};
///
/// let rt = Runtime::builder().workers(2).build();
/// let counter = TVar::new(0u64);
/// let c = counter.clone();
/// rt.block_on(atomically_m(move |txn| {
///     let v = txn.read(&c)?;
///     txn.write(&c, v + 1);
///     Ok(v)
/// }));
/// assert_eq!(counter.read_now(), 1);
/// rt.shutdown();
/// ```
pub fn atomically_m<A, F>(body: F) -> ThreadM<A>
where
    A: Send + 'static,
    F: Fn(&mut Txn) -> StmResult<A> + Send + Sync + 'static,
{
    atomically_impl(body, None)
}

/// [`atomically_m`] with contention accounting: every attempt outcome is
/// counted into `stats`, which callers typically share across all
/// transactions touching one datum (see [`TxnStats`]).
pub fn atomically_m_with_stats<A, F>(body: F, stats: Arc<TxnStats>) -> ThreadM<A>
where
    A: Send + 'static,
    F: Fn(&mut Txn) -> StmResult<A> + Send + Sync + 'static,
{
    atomically_impl(body, Some(stats))
}

/// A monadic transaction's body and, while a `retry` is parked, the read
/// set it waits on. The park registers on every variable; the next
/// attempt withdraws the waiters that did not fire.
struct Runner<F> {
    body: F,
    parked: Mutex<Vec<Box<dyn ReadLog>>>,
}

fn atomically_impl<A, F>(body: F, stats: Option<Arc<TxnStats>>) -> ThreadM<A>
where
    A: Send + 'static,
    F: Fn(&mut Txn) -> StmResult<A> + Send + Sync + 'static,
{
    let runner = Arc::new(Runner {
        body,
        parked: Mutex::new(Vec::new()),
    });
    loop_m((), move |()| {
        let r = Arc::clone(&runner);
        let park_r = Arc::clone(&runner);
        let stats = stats.clone();
        sys_nbio(move || {
            for entry in r.parked.lock().drain(..) {
                entry.withdraw();
            }
            let res = attempt(&r.body);
            if let Some(stats) = &stats {
                match res.as_ref().map_err(|aborted| &aborted.why) {
                    Ok(_) => stats.commits.incr(),
                    Err(StmAbort::Conflict) => stats.conflicts.incr(),
                    Err(StmAbort::Retry) => stats.retry_waits.incr(),
                };
            }
            res
        })
        .bind(move |res| match res {
            Ok(v) => ThreadM::pure(Loop::Break(v)),
            Err(Aborted {
                why: StmAbort::Conflict,
                ..
            }) => sys_yield().map(|_| Loop::Continue(())),
            Err(Aborted { reads, rv, .. }) => {
                // Park on the union of the read set; any commit to any of
                // those variables wakes us (one-shot unparker → exactly one
                // resume even if several fire).
                sys_park(move |u| {
                    if reads.is_empty() {
                        // Retrying with an empty read set would sleep
                        // forever; treat as a spin (matches GHC, which
                        // considers it a programming error).
                        u.unpark();
                        return;
                    }
                    // Held until every waiter is parked: a wake may resume
                    // the thread at once, and its next attempt must find
                    // the whole read set to withdraw.
                    let mut parked = park_r.parked.lock();
                    *parked = reads;
                    for r in parked.iter() {
                        r.park(Waiter::new(u.clone(), DirectPort::shared()));
                    }
                    // A commit that landed between the attempt and this
                    // registration woke nobody: re-check the read set now
                    // that we are on the wait tables, or sleep forever.
                    if parked.iter().any(|r| !r.version_ok(rv)) {
                        u.unpark();
                    }
                })
                .map(|_| Loop::Continue(()))
            }
        })
    })
}

/// Runs `body` transactionally from a plain OS thread, spinning on
/// conflicts and sleeping briefly on `retry`. Intended for tests and
/// non-monadic integration; monadic threads should use [`atomically_m`].
pub fn atomically_blocking<A, F>(body: F) -> A
where
    F: Fn(&mut Txn) -> StmResult<A>,
{
    loop {
        match attempt(&body) {
            Ok(v) => return v,
            Err(Aborted {
                why: StmAbort::Conflict,
                ..
            }) => std::thread::yield_now(),
            Err(Aborted { .. }) => std::thread::sleep(std::time::Duration::from_micros(100)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let v = TVar::new(10);
        let out = atomically_blocking(|t| {
            let x = t.read(&v)?;
            t.write(&v, x * 2);
            t.read(&v)
        });
        assert_eq!(out, 20, "read-your-own-writes");
        assert_eq!(v.read_now(), 20);
    }

    #[test]
    fn transaction_is_atomic_across_two_vars() {
        let a = TVar::new(100i64);
        let b = TVar::new(0i64);
        atomically_blocking(|t| {
            let x = t.read(&a)?;
            t.write(&a, x - 40);
            let y = t.read(&b)?;
            t.write(&b, y + 40);
            Ok(())
        });
        assert_eq!(a.read_now() + b.read_now(), 100);
        assert_eq!(b.read_now(), 40);
    }

    #[test]
    fn or_else_takes_second_on_retry() {
        let v = TVar::new(0);
        let got = atomically_blocking(|t| {
            t.or_else(
                |t1| {
                    t1.write(&v, 111); // rolled back
                    t1.retry::<i32>()
                },
                |t2| {
                    t2.write(&v, 222);
                    Ok(2)
                },
            )
        });
        assert_eq!(got, 2);
        assert_eq!(v.read_now(), 222, "first alternative's write rolled back");
    }

    #[test]
    fn concurrent_increments_all_land() {
        let v = TVar::new(0u64);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let v = v.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    atomically_blocking(|t| {
                        let x = t.read(&v)?;
                        t.write(&v, x + 1);
                        Ok(())
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(v.read_now(), 8 * 500);
    }

    #[test]
    fn blocking_retry_waits_for_producer() {
        let slot: TVar<Option<u32>> = TVar::new(None);
        let consumer = {
            let slot = slot.clone();
            std::thread::spawn(move || {
                atomically_blocking(|t| match t.read(&slot)? {
                    Some(v) => {
                        t.write(&slot, None);
                        Ok(v)
                    }
                    None => t.retry(),
                })
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        atomically_blocking(|t| {
            t.write(&slot, Some(77));
            Ok(())
        });
        assert_eq!(consumer.join().unwrap(), 77);
    }

    #[test]
    fn monadic_retry_parks_until_commit() {
        use eveth_core::runtime::Runtime;
        use eveth_core::syscall::{sys_fork, sys_sleep};
        let rt = Runtime::builder().workers(2).build();
        let slot: TVar<Option<&'static str>> = TVar::new(None);
        let producer_var = slot.clone();
        let got = rt.block_on(eveth_core::do_m! {
            sys_fork(eveth_core::do_m! {
                sys_sleep(10 * eveth_core::time::MILLIS);
                atomically_m(move |t| { t.write(&producer_var, Some("msg")); Ok(()) })
            });
            atomically_m(move |t| match t.read(&slot)? {
                Some(v) => Ok(v),
                None => t.retry(),
            })
        });
        assert_eq!(got, "msg");
        rt.shutdown();
    }

    #[test]
    fn a_retry_woken_through_one_tvar_leaves_no_entry_on_the_other() {
        use eveth_core::runtime::Runtime;
        use eveth_core::syscall::{sys_fork, sys_sleep};
        let rt = Runtime::builder().workers(2).build();
        let a: TVar<Option<u32>> = TVar::new(None);
        let b: TVar<Option<u32>> = TVar::new(None);
        let (ra, rb, wa) = (a.clone(), b.clone(), a.clone());
        let got = rt.block_on(eveth_core::do_m! {
            sys_fork(eveth_core::do_m! {
                sys_sleep(10 * eveth_core::time::MILLIS);
                atomically_m(move |t| { t.write(&wa, Some(1)); Ok(()) })
            });
            atomically_m(move |t| match (t.read(&ra)?, t.read(&rb)?) {
                (Some(v), _) | (_, Some(v)) => Ok(v),
                _ => t.retry(),
            })
        });
        assert_eq!(got, 1);
        assert_eq!((a.waiter_count(), b.waiter_count()), (0, 0));
        rt.shutdown();
    }

    #[test]
    fn txn_stats_count_commits_and_retry_blocks() {
        use eveth_core::runtime::Runtime;
        use eveth_core::syscall::{sys_fork, sys_sleep};
        let rt = Runtime::builder().workers(2).build();
        let stats = TxnStats::new();
        let slot: TVar<Option<u32>> = TVar::new(None);
        let producer_var = slot.clone();
        let consumer_stats = Arc::clone(&stats);
        let got = rt.block_on(eveth_core::do_m! {
            sys_fork(eveth_core::do_m! {
                sys_sleep(10 * eveth_core::time::MILLIS);
                atomically_m(move |t| { t.write(&producer_var, Some(5)); Ok(()) })
            });
            atomically_m_with_stats(
                move |t| match t.read(&slot)? {
                    Some(v) => Ok(v),
                    None => t.retry(),
                },
                consumer_stats,
            )
        });
        assert_eq!(got, 5);
        assert_eq!(stats.commits.get(), 1);
        assert!(
            stats.retry_waits.get() >= 1,
            "the consumer must have blocked at least once"
        );
        assert_eq!(stats.retries(), stats.retry_waits.get());
        rt.shutdown();
    }

    #[test]
    fn monadic_bank_transfer_conserves_total_under_smp() {
        use eveth_core::runtime::Runtime;
        let rt = Runtime::builder().workers(4).build();
        let accounts: Vec<TVar<i64>> = (0..8).map(|_| TVar::new(1000)).collect();
        let done = TVar::new(0u32);
        const TRANSFERS: u32 = 64;
        for i in 0..TRANSFERS {
            let from = accounts[(i as usize) % 8].clone();
            let to = accounts[(i as usize * 3 + 1) % 8].clone();
            let done = done.clone();
            rt.spawn(eveth_core::do_m! {
                atomically_m(move |t| {
                    let f = t.read(&from)?;
                    let g = t.read(&to)?;
                    t.write(&from, f - 10);
                    t.write(&to, g + 10);
                    Ok(())
                });
                atomically_m(move |t| {
                    let d = t.read(&done)?;
                    t.write(&done, d + 1);
                    Ok(())
                });
                eveth_core::ThreadM::pure(())
            });
        }
        // Wait for all transfers.
        let done_watch = done.clone();
        rt.block_on(atomically_m(move |t| {
            if t.read(&done_watch)? == TRANSFERS {
                Ok(())
            } else {
                t.retry()
            }
        }));
        let total: i64 = accounts.iter().map(|a| a.read_now()).sum();
        assert_eq!(total, 8000, "money is conserved");
        rt.shutdown();
    }
}
