//! Transactional variables.
//!
//! A [`TVar`] pairs a value with a version stamp and a transactional lock
//! flag (TL2-style). All access goes through transactions
//! ([`Txn`](crate::txn::Txn)); the wait table beside the value supports
//! `retry`, which parks monadic threads until *any* variable the
//! transaction read is committed to.

use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use eveth_core::check;
use eveth_core::reactor::{WaitKey, WaitTable, Waiter};
use parking_lot::Mutex;

/// The global version clock (TL2).
pub(crate) static GLOBAL_CLOCK: AtomicU64 = AtomicU64::new(0);

static NEXT_TVAR_ID: AtomicU64 = AtomicU64::new(1);

pub(crate) struct Slot<T> {
    pub(crate) value: T,
    pub(crate) version: u64,
    pub(crate) locked: bool,
    /// Parked `retry`s, under the slot's lock.
    waiters: WaitTable,
}

pub(crate) struct TVarInner<T> {
    pub(crate) id: u64,
    pub(crate) slot: Mutex<Slot<T>>,
    /// Check-probe resource id (`eveth_core::check`).
    pub(crate) rid: u64,
}

impl<T> TVarInner<T> {
    /// Reports a check op with the committed version as the taker-side
    /// availability (a monotone counter: parked retries that saw an older
    /// version than the final one were woken, or the wakeup was lost).
    fn check_op(&self, slot: &Slot<T>, kind: check::OpKind) {
        check::op(self.rid, check::ResKind::Stm, kind, [slot.version, 0]);
    }

    fn wake_waiters(&self) {
        let mut slot = self.slot.lock();
        self.check_op(&slot, check::OpKind::Publish);
        let _scope = check::wake_scope(self.rid);
        slot.waiters.wake_all();
    }
}

/// A mutable cell readable and writable only inside STM transactions.
///
/// # Examples
///
/// ```
/// use eveth_stm::{atomically_blocking, TVar};
///
/// let acct = TVar::new(100i64);
/// atomically_blocking(|txn| {
///     let v = txn.read(&acct)?;
///     txn.write(&acct, v - 30);
///     Ok(())
/// });
/// assert_eq!(acct.read_now(), 70);
/// ```
pub struct TVar<T> {
    pub(crate) inner: Arc<TVarInner<T>>,
}

impl<T> Clone for TVar<T> {
    fn clone(&self) -> Self {
        TVar {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Clone + Send + 'static> TVar<T> {
    /// Creates a variable holding `value`.
    pub fn new(value: T) -> Self {
        TVar {
            inner: Arc::new(TVarInner {
                id: NEXT_TVAR_ID.fetch_add(1, Ordering::Relaxed),
                slot: Mutex::new(Slot {
                    value,
                    version: 0,
                    locked: false,
                    waiters: WaitTable::new(),
                }),
                rid: check::new_rid(),
            }),
        }
    }

    /// Reads the current committed value outside any transaction — a
    /// single-variable snapshot, safe because commits replace the value
    /// under the slot lock.
    pub fn read_now(&self) -> T {
        self.inner.slot.lock().value.clone()
    }

    /// The variable's unique id (commit ordering key).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Parked `retry`s waiting for a commit to this variable.
    pub fn waiter_count(&self) -> usize {
        self.inner.slot.lock().waiters.len()
    }
}

impl<T> fmt::Debug for TVar<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TVar(id={})", self.inner.id)
    }
}

/// Type-erased transaction log entry: a read observation or a pending
/// write on some `TVar`.
pub(crate) trait StmEntry: Send {
    fn id(&self) -> u64;
    /// Acquires the transactional lock; false if someone else holds it.
    fn try_lock(&self) -> bool;
    fn unlock(&self);
    /// True if the variable is unlocked and unchanged since `rv`.
    fn version_ok(&self, rv: u64) -> bool;
    /// Applies the pending write (write entries only) at version `wv` and
    /// releases the lock.
    fn commit_value(&mut self, wv: u64);
    /// Wakes retry waiters (after a commit touched this variable).
    fn wake_waiters(&self);
    fn as_any(&self) -> &dyn Any;
}

/// A read-set entry: what a `retry` parks on.
pub(crate) trait ReadLog: StmEntry {
    /// Parks a retry waiter on the variable.
    fn park(&self, w: Waiter);
    /// Withdraws the waiter, unless the variable already woke it.
    fn withdraw(&self);
}

pub(crate) struct ReadEntry<T> {
    pub(crate) tvar: TVar<T>,
    /// The key of the waiter a `retry` parked on the variable.
    parked: Cell<Option<WaitKey>>,
}

impl<T> ReadEntry<T> {
    pub(crate) fn new(tvar: TVar<T>) -> Self {
        ReadEntry {
            tvar,
            parked: Cell::new(None),
        }
    }
}

impl<T: Clone + Send + 'static> ReadLog for ReadEntry<T> {
    fn park(&self, w: Waiter) {
        let inner = &self.tvar.inner;
        let mut slot = inner.slot.lock();
        inner.check_op(&slot, check::OpKind::BlockTake);
        self.parked.set(Some(slot.waiters.push(w)));
    }
    fn withdraw(&self) {
        if let Some(key) = self.parked.take() {
            self.tvar.inner.slot.lock().waiters.withdraw(key);
        }
    }
}

impl<T: Clone + Send + 'static> StmEntry for ReadEntry<T> {
    fn id(&self) -> u64 {
        self.tvar.inner.id
    }
    fn try_lock(&self) -> bool {
        let mut slot = self.tvar.inner.slot.lock();
        if slot.locked {
            false
        } else {
            slot.locked = true;
            true
        }
    }
    fn unlock(&self) {
        self.tvar.inner.slot.lock().locked = false;
    }
    fn version_ok(&self, rv: u64) -> bool {
        let slot = self.tvar.inner.slot.lock();
        !slot.locked && slot.version <= rv
    }
    fn commit_value(&mut self, _wv: u64) {}
    fn wake_waiters(&self) {
        self.tvar.inner.wake_waiters()
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

pub(crate) struct WriteEntry<T> {
    pub(crate) tvar: TVar<T>,
    pub(crate) pending: Option<T>,
}

impl<T: Clone + Send + 'static> StmEntry for WriteEntry<T> {
    fn id(&self) -> u64 {
        self.tvar.inner.id
    }
    fn try_lock(&self) -> bool {
        let mut slot = self.tvar.inner.slot.lock();
        if slot.locked {
            false
        } else {
            slot.locked = true;
            true
        }
    }
    fn unlock(&self) {
        self.tvar.inner.slot.lock().locked = false;
    }
    fn version_ok(&self, rv: u64) -> bool {
        // We hold the lock ourselves during validation, so only the
        // version matters.
        self.tvar.inner.slot.lock().version <= rv
    }
    fn commit_value(&mut self, wv: u64) {
        let mut slot = self.tvar.inner.slot.lock();
        if let Some(v) = self.pending.take() {
            slot.value = v;
        }
        slot.version = wv;
        slot.locked = false;
    }
    fn wake_waiters(&self) {
        self.tvar.inner.wake_waiters()
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_ordered() {
        let a: TVar<i32> = TVar::new(0);
        let b: TVar<i32> = TVar::new(0);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn read_now_sees_initial() {
        let v = TVar::new("x");
        assert_eq!(v.read_now(), "x");
    }

    #[test]
    fn entry_lock_protocol() {
        let v = TVar::new(5u8);
        let e = ReadEntry::new(v.clone());
        assert!(e.try_lock());
        assert!(!e.try_lock(), "second lock must fail");
        assert!(!e.version_ok(100), "locked fails read validation");
        e.unlock();
        assert!(e.version_ok(100));
    }

    #[test]
    fn write_entry_commit_bumps_version() {
        let v = TVar::new(1u32);
        let mut e = WriteEntry {
            tvar: v.clone(),
            pending: Some(9),
        };
        assert!(e.try_lock());
        e.commit_value(42);
        assert_eq!(v.read_now(), 9);
        assert!(!e.version_ok(41), "version 42 > rv 41");
        assert!(e.version_ok(42));
    }
}
