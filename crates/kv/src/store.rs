//! The sharded in-memory store.
//!
//! Keys are hashed (FNV-1a) onto N independent shards so concurrent
//! monadic threads contend only per shard, never on a global lock. Two
//! interchangeable shard guards are provided, selected by
//! [`StoreConfig::backend`]:
//!
//! * [`Backend::Mutex`] — each shard is guarded by an
//!   [`eveth_core::sync::Mutex`], the paper's §4.7 scheduler-extension
//!   lock: waiting blocks the *monadic* thread only, never the OS worker.
//! * [`Backend::Stm`] — each shard lives in an [`eveth_stm::TVar`] and is
//!   updated with `atomically_m` transactions (§4.7's STM), trading
//!   copy-on-write costs for optimistic, lock-free readers.
//!
//! Both expose the same monadic operations, so the server and the
//! property tests are backend-agnostic — and both run the same code: each
//! command is written once against a copy-on-first-write view of its
//! shard, and `with_shard` is the one adapter that puts that view under
//! the configured guard. Expiry is hybrid: reads treat
//! stale entries as misses immediately (lazy), and the server runs a
//! [`janitor`](crate::expiry::janitor) thread off the runtime timer wheel
//! to reclaim memory for keys that are never touched again (eager).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use bytes::{BufferPool, Bytes};
use eveth_core::sync::Mutex as MonadicMutex;
use eveth_core::time::{Nanos, SECS};
use eveth_core::ThreadM;
use eveth_stm::{atomically_m_with_stats, TVar, TxnStats};
use parking_lot::Mutex as PlMutex;

use crate::stats::ShardStats;

/// Which synchronization primitive guards each shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Monadic mutex per shard (paper §4.7 scheduler extension).
    Mutex,
    /// `TVar` per shard, updated transactionally (paper §4.7 STM).
    Stm,
}

/// Store tunables.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Number of shards (rounded up to at least 1).
    pub shards: usize,
    /// Shard guard selection.
    pub backend: Backend,
    /// Values larger than this are rejected (`CLIENT_ERROR`).
    pub max_value_bytes: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            shards: 16,
            backend: Backend::Mutex,
            max_value_bytes: crate::protocol::MAX_VALUE_LEN,
        }
    }
}

/// One stored value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// The payload.
    pub value: Bytes,
    /// Opaque client flags echoed on `get`.
    pub flags: u32,
    /// Absolute expiry deadline (runtime nanoseconds); `None` = never.
    pub expires_at: Option<Nanos>,
    /// Per-entry version stamp — the `cas unique` of the memcached
    /// protocol, returned by `gets` and checked by `cas`. The store
    /// assigns a fresh stamp on every successful write (set/add/replace/
    /// cas/incr/decr); caller-provided values are overwritten.
    pub version: u64,
}

impl Entry {
    fn is_expired(&self, now: Nanos) -> bool {
        self.expires_at.is_some_and(|d| d <= now)
    }
}

/// Outcome of a `cas` (compare-and-swap on the version stamp).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CasOutcome {
    /// The stamp matched; the new value was stored.
    Stored,
    /// The entry exists but was modified since the client's `gets`.
    Exists,
    /// No live entry under the key.
    NotFound,
}

/// Outcome of an `append`/`prepend` (concatenation onto an existing
/// value).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConcatOutcome {
    /// A live entry existed; the bytes were concatenated and the entry
    /// re-stamped.
    Stored,
    /// No live entry under the key (memcached answers `NOT_STORED`).
    Missing,
    /// The combined value would exceed [`StoreConfig::max_value_bytes`].
    TooLarge,
}

/// Outcome of an `incr`/`decr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterResult {
    /// The new value.
    Ok(u64),
    /// No such key (memcached does not auto-vivify counters).
    NotFound,
    /// The stored value is not a decimal integer.
    NotNumeric,
}

type ShardMap = HashMap<Box<[u8]>, Entry>;

/// One shard under its guard — the backend switch, per shard.
enum Shard {
    /// Guarded by the monadic mutex. The inner `parking_lot` lock is only
    /// for `Send`/`Sync` soundness of the map itself; cross-thread mutual
    /// exclusion is provided by the monadic lock, so the inner lock is
    /// never contended.
    Mutex {
        gate: MonadicMutex,
        map: Arc<PlMutex<ShardMap>>,
    },
    /// Held in a `TVar`. The map is wrapped in an `Arc` so a
    /// transactional read is O(1); writers clone-on-write before
    /// committing.
    Stm(TVar<Arc<ShardMap>>),
}

impl Shard {
    /// The shard's lock, if it has one (STM shards do not).
    fn gate(&self) -> Option<&MonadicMutex> {
        match self {
            Shard::Mutex { gate, .. } => Some(gate),
            Shard::Stm(_) => None,
        }
    }
}

/// What a command body sees of its shard: a copy-on-first-write view, so
/// one body serves both backends. Under the mutex it is the locked map
/// itself; under STM it is the transaction's snapshot, cloned by the first
/// [`ShardView::write`] and committed only if that happened — a command
/// that decides from [`ShardView::read`] alone (failed `add`, stale `cas`,
/// a miss) costs the STM backend no map clone and no `TVar` write.
enum ShardView<'a> {
    Locked(&'a mut ShardMap),
    Snapshot {
        base: Arc<ShardMap>,
        copy: Option<ShardMap>,
    },
}

impl ShardView<'_> {
    fn read(&self) -> &ShardMap {
        match self {
            ShardView::Locked(map) => map,
            ShardView::Snapshot {
                copy: Some(map), ..
            } => map,
            ShardView::Snapshot { base, .. } => base,
        }
    }

    fn write(&mut self) -> &mut ShardMap {
        match self {
            ShardView::Locked(map) => map,
            ShardView::Snapshot { base, copy } => copy.get_or_insert_with(|| (**base).clone()),
        }
    }
}

/// The sharded store shared by all server threads.
pub struct ShardedStore {
    shards: Vec<Shard>,
    stats: Arc<Vec<ShardStats>>,
    /// Transaction contention counters, shared by every STM operation on
    /// this store (zero and idle under the mutex backend).
    stm_stats: Arc<TxnStats>,
    /// The version-stamp allocator behind [`Entry::version`]: one stamp is
    /// drawn per mutating operation (applied only if the write commits, so
    /// failed `add`s leave gaps — `cas unique` values are opaque). Under
    /// the serialized simulator the sequence is deterministic.
    next_version: std::sync::atomic::AtomicU64,
    cfg: StoreConfig,
}

impl ShardedStore {
    /// Builds an empty store.
    pub fn new(cfg: StoreConfig) -> Arc<Self> {
        let n = cfg.shards.max(1);
        let shards = (0..n)
            .map(|_| match cfg.backend {
                Backend::Mutex => Shard::Mutex {
                    gate: MonadicMutex::new(),
                    map: Arc::new(PlMutex::new(HashMap::new())),
                },
                Backend::Stm => Shard::Stm(TVar::new(Arc::new(HashMap::new()))),
            })
            .collect();
        Arc::new(ShardedStore {
            shards,
            stats: Arc::new((0..n).map(|_| ShardStats::default()).collect()),
            stm_stats: TxnStats::new(),
            next_version: std::sync::atomic::AtomicU64::new(1),
            cfg,
        })
    }

    /// Draws the next version stamp (one per mutating operation).
    fn stamp(&self) -> u64 {
        self.next_version
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.stats.len()
    }

    /// Per-shard counters.
    pub fn shard_stats(&self) -> &Arc<Vec<ShardStats>> {
        &self.stats
    }

    /// The configuration this store was built with.
    pub fn config(&self) -> &StoreConfig {
        &self.cfg
    }

    /// The shard index a key hashes to.
    pub fn shard_of(&self, key: &[u8]) -> usize {
        (fnv1a(key) % self.shard_count() as u64) as usize
    }

    /// Runs `f` against shard `idx` under the configured guard — the one
    /// place the command path branches on the backend. `f` must be
    /// re-runnable: an STM attempt invalidated by a concurrent commit
    /// re-executes it against the fresh snapshot.
    fn with_shard<A, F>(&self, idx: usize, f: F) -> ThreadM<A>
    where
        A: Send + 'static,
        F: Fn(&mut ShardView<'_>) -> A + Send + Sync + 'static,
    {
        match &self.shards[idx] {
            Shard::Mutex { gate, map } => {
                let map = Arc::clone(map);
                gate.with_nbio(move || f(&mut ShardView::Locked(&mut map.lock())))
            }
            Shard::Stm(cell) => {
                let cell = cell.clone();
                // The store's shared contention counters ride along, so
                // `stm_retries` sees every command.
                atomically_m_with_stats(
                    move |txn| {
                        let mut view = ShardView::Snapshot {
                            base: txn.read(&cell)?,
                            copy: None,
                        };
                        let out = f(&mut view);
                        if let ShardView::Snapshot {
                            copy: Some(map), ..
                        } = view
                        {
                            txn.write(&cell, Arc::new(map));
                        }
                        Ok(out)
                    },
                    Arc::clone(&self.stm_stats),
                )
            }
        }
    }

    /// Total nanoseconds threads spent waiting on shard locks (summed
    /// across shards) — the store-level contention signal `fig_kv`
    /// reports. Always 0 for the STM backend, whose contention shows up
    /// as transaction retries instead of lock waits.
    pub fn lock_wait_ns(&self) -> u64 {
        let gates = self.shards.iter().filter_map(Shard::gate);
        gates.map(|g| g.contended_ns()).sum()
    }

    /// Per-shard lock-wait nanoseconds, indexed by shard (all zeros for
    /// the STM backend). [`ShardedStore::lock_wait_ns`] is this summed;
    /// the per-shard view is what shows a thundering herd for what it is —
    /// the wait concentrated on the hot key's shard rather than smeared
    /// across the store.
    pub fn shard_lock_waits(&self) -> Vec<u64> {
        let waits = |s: &Shard| s.gate().map_or(0, |g| g.contended_ns());
        self.shards.iter().map(waits).collect()
    }

    /// Shard-lock acquisitions that had to wait (0 for the STM backend).
    pub fn lock_contentions(&self) -> u64 {
        let gates = self.shards.iter().filter_map(Shard::gate);
        gates.map(|g| g.contentions()).sum()
    }

    /// Transaction attempts re-executed because of contention (conflict
    /// invalidations + `retry` blocks) — the STM backend's analogue of
    /// [`ShardedStore::lock_contentions`], surfaced as the `stm_retries`
    /// column of `fig_kv`. Always 0 for the mutex backend.
    pub fn stm_retries(&self) -> u64 {
        self.stm_stats.retries()
    }

    /// The shared transaction counters behind [`ShardedStore::stm_retries`].
    pub fn stm_stats(&self) -> &Arc<TxnStats> {
        &self.stm_stats
    }

    /// Converts a protocol `exptime` (relative seconds, 0 = never) into an
    /// absolute deadline.
    pub fn deadline(now: Nanos, exptime_secs: u64) -> Option<Nanos> {
        (exptime_secs != 0).then(|| now.saturating_add(exptime_secs.saturating_mul(SECS)))
    }

    /// Looks up `key` at time `now`. Expired entries are misses.
    pub fn get(self: &Arc<Self>, key: Bytes, now: Nanos) -> ThreadM<Option<Entry>> {
        let this = Arc::clone(self);
        let idx = self.shard_of(&key);
        self.with_shard(idx, move |shard| shard.read().get(key.as_ref()).cloned())
            .map(move |entry| {
                let stats = &this.stats[idx];
                match entry {
                    Some(e) if e.is_expired(now) => {
                        // Lazy expiry: report a miss; the janitor reclaims.
                        stats.expired_lazy.incr();
                        stats.misses.incr();
                        None
                    }
                    Some(e) => {
                        stats.hits.incr();
                        Some(e)
                    }
                    None => {
                        stats.misses.incr();
                        None
                    }
                }
            })
    }

    /// Stores `entry` under `key`, unconditionally (stamping a fresh
    /// version).
    pub fn set(self: &Arc<Self>, key: Bytes, entry: Entry) -> ThreadM<()> {
        let this = Arc::clone(self);
        let idx = self.shard_of(&key);
        let mut entry = entry;
        entry.version = self.stamp();
        self.with_shard(idx, move |shard| {
            shard
                .write()
                .insert(key.to_vec().into_boxed_slice(), entry.clone());
        })
        .map(move |()| this.stats[idx].sets.incr())
    }

    /// Removes `key`; true when something (even an expired entry) was
    /// removed.
    pub fn delete(self: &Arc<Self>, key: Bytes, now: Nanos) -> ThreadM<bool> {
        let this = Arc::clone(self);
        let idx = self.shard_of(&key);
        self.with_shard(idx, move |shard| {
            if !shard.read().contains_key(key.as_ref()) {
                return None;
            }
            shard.write().remove(key.as_ref())
        })
        .map(move |old| match old {
            // Deleting an already-expired entry is a miss from the
            // client's point of view.
            Some(e) if e.is_expired(now) => {
                this.stats[idx].expired_lazy.incr();
                false
            }
            Some(_) => {
                this.stats[idx].deletes.incr();
                true
            }
            None => false,
        })
    }

    /// Stores `entry` only if no live (unexpired) entry exists under
    /// `key` — the `add` command. Returns `true` if stored.
    pub fn add(self: &Arc<Self>, key: Bytes, entry: Entry, now: Nanos) -> ThreadM<bool> {
        self.guarded_insert(key, entry, now, false)
    }

    /// Stores `entry` only if a live (unexpired) entry already exists
    /// under `key` — the `replace` command. Returns `true` if stored.
    pub fn replace(self: &Arc<Self>, key: Bytes, entry: Entry, now: Nanos) -> ThreadM<bool> {
        self.guarded_insert(key, entry, now, true)
    }

    /// `add` / `replace` share one occupancy-guarded insert; `want_occupied`
    /// selects which side of the guard stores.
    fn guarded_insert(
        self: &Arc<Self>,
        key: Bytes,
        entry: Entry,
        now: Nanos,
        want_occupied: bool,
    ) -> ThreadM<bool> {
        let this = Arc::clone(self);
        let idx = self.shard_of(&key);
        let mut entry = entry;
        entry.version = self.stamp();
        self.with_shard(idx, move |shard| {
            let occupied = shard
                .read()
                .get(key.as_ref())
                .is_some_and(|e| !e.is_expired(now));
            if occupied != want_occupied {
                return false;
            }
            shard
                .write()
                .insert(key.to_vec().into_boxed_slice(), entry.clone());
            true
        })
        .map(move |stored| {
            if stored {
                this.stats[idx].sets.incr();
            }
            stored
        })
    }

    /// Compare-and-swap: stores `entry` only if the live entry under `key`
    /// still carries version stamp `expected` (obtained via `gets`).
    pub fn cas(
        self: &Arc<Self>,
        key: Bytes,
        entry: Entry,
        expected: u64,
        now: Nanos,
    ) -> ThreadM<CasOutcome> {
        let this = Arc::clone(self);
        let idx = self.shard_of(&key);
        let mut entry = entry;
        entry.version = self.stamp();
        self.with_shard(idx, move |shard| {
            let outcome = match shard.read().get(key.as_ref()) {
                None => CasOutcome::NotFound,
                Some(e) if e.is_expired(now) => CasOutcome::NotFound,
                Some(e) if e.version != expected => CasOutcome::Exists,
                Some(_) => CasOutcome::Stored,
            };
            if outcome == CasOutcome::Stored {
                shard
                    .write()
                    .insert(key.to_vec().into_boxed_slice(), entry.clone());
            }
            outcome
        })
        .map(move |outcome| {
            let st = &this.stats[idx];
            match outcome {
                CasOutcome::Stored => {
                    st.cas_hits.incr();
                    st.sets.incr();
                }
                CasOutcome::Exists => st.cas_badval.incr(),
                CasOutcome::NotFound => st.cas_misses.incr(),
            }
            outcome
        })
    }

    /// Concatenates `data` onto the live entry at `key` — after it when
    /// `prepend` is false (`append`), before it otherwise. Per memcached,
    /// a miss (or expired entry) stores nothing and the surviving entry
    /// keeps its flags and deadline; the value is re-stamped on success.
    /// The combined length is capped at
    /// [`StoreConfig::max_value_bytes`].
    pub fn concat(
        self: &Arc<Self>,
        key: Bytes,
        data: Bytes,
        prepend: bool,
        now: Nanos,
    ) -> ThreadM<ConcatOutcome> {
        let this = Arc::clone(self);
        let idx = self.shard_of(&key);
        let version = self.stamp();
        let cap = self.cfg.max_value_bytes;
        self.with_shard(idx, move |shard| {
            let old = match shard.read().get(key.as_ref()) {
                None => return ConcatOutcome::Missing,
                Some(e) if e.is_expired(now) => return ConcatOutcome::Missing,
                Some(e) if e.value.len() + data.len() > cap => return ConcatOutcome::TooLarge,
                Some(e) => &e.value,
            };
            // Build the joined value exactly once, in a pooled region:
            // each input byte is copied a single time and `freeze` hands
            // the result over without another pass.
            let mut joined = BufferPool::global().acquire();
            joined.reserve(old.len() + data.len());
            if prepend {
                joined.extend_from_slice(&data);
                joined.extend_from_slice(old);
            } else {
                joined.extend_from_slice(old);
                joined.extend_from_slice(&data);
            }
            let e = shard.write().get_mut(key.as_ref()).expect("probed live");
            e.value = joined.freeze();
            e.version = version;
            ConcatOutcome::Stored
        })
        .map(move |outcome| {
            if outcome == ConcatOutcome::Stored {
                if prepend {
                    this.stats[idx].prepends.incr();
                } else {
                    this.stats[idx].appends.incr();
                }
            }
            outcome
        })
    }

    /// Re-deadlines the live entry at `key` to `expires_at` without
    /// touching its value or flags — the `touch` command. The entry is
    /// re-stamped (one version per mutating op, the store-wide rule).
    /// Returns `true` when a live entry was touched.
    pub fn touch(
        self: &Arc<Self>,
        key: Bytes,
        expires_at: Option<Nanos>,
        now: Nanos,
    ) -> ThreadM<bool> {
        let this = Arc::clone(self);
        let idx = self.shard_of(&key);
        let version = self.stamp();
        self.with_shard(idx, move |shard| {
            let live = shard
                .read()
                .get(key.as_ref())
                .is_some_and(|e| !e.is_expired(now));
            if live {
                let e = shard.write().get_mut(key.as_ref()).expect("probed live");
                e.expires_at = expires_at;
                e.version = version;
            }
            live
        })
        .map(move |touched| {
            if touched {
                this.stats[idx].touches.incr();
            }
            touched
        })
    }

    /// Adds `delta` (or subtracts, saturating at zero, when `negative`) to
    /// the decimal integer stored at `key`.
    pub fn counter_op(
        self: &Arc<Self>,
        key: Bytes,
        delta: u64,
        negative: bool,
        now: Nanos,
    ) -> ThreadM<CounterResult> {
        let this = Arc::clone(self);
        let idx = self.shard_of(&key);
        let version = self.stamp();
        self.with_shard(idx, move |shard| {
            let Some(e) = shard.read().get(key.as_ref()) else {
                return CounterResult::NotFound;
            };
            if e.is_expired(now) {
                // The one miss that writes: the stale entry is reclaimed.
                shard.write().remove(key.as_ref());
                return CounterResult::NotFound;
            }
            let Some(cur) = std::str::from_utf8(&e.value)
                .ok()
                .and_then(|s| s.parse::<u64>().ok())
            else {
                return CounterResult::NotNumeric;
            };
            let next = if negative {
                cur.saturating_sub(delta)
            } else {
                cur.wrapping_add(delta)
            };
            let e = shard.write().get_mut(key.as_ref()).expect("probed live");
            e.value = Bytes::from(next.to_string());
            e.version = version;
            CounterResult::Ok(next)
        })
        .map(move |res| {
            if matches!(res, CounterResult::Ok(_)) {
                this.stats[idx].counter_ops.incr();
            }
            res
        })
    }

    /// Drops every entry whose deadline is at or before `now` from shard
    /// `idx`; returns how many were reclaimed. One shard per call so the
    /// janitor yields between shards instead of stalling the scheduler.
    pub fn purge_shard(self: &Arc<Self>, idx: usize, now: Nanos) -> ThreadM<usize> {
        let this = Arc::clone(self);
        self.with_shard(idx, move |shard| {
            if !shard.read().values().any(|e| e.is_expired(now)) {
                return 0;
            }
            let map = shard.write();
            let before = map.len();
            map.retain(|_, e| !e.is_expired(now));
            before - map.len()
        })
        .map(move |n| {
            this.stats[idx].expired_purged.add(n as u64);
            n
        })
    }

    /// Total live entries (includes not-yet-purged expired entries).
    pub fn len_now(&self) -> usize {
        let len = |s: &Shard| match s {
            Shard::Mutex { map, .. } => map.lock().len(),
            Shard::Stm(cell) => cell.read_now().len(),
        };
        self.shards.iter().map(len).sum()
    }
}

impl fmt::Debug for ShardedStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ShardedStore(backend={:?}, shards={}, entries={})",
            self.cfg.backend,
            self.shard_count(),
            self.len_now()
        )
    }
}

/// FNV-1a, the shard hash (stable across runs for determinism).
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use eveth_core::do_m;
    use eveth_core::runtime::Runtime;

    fn store(backend: Backend) -> Arc<ShardedStore> {
        ShardedStore::new(StoreConfig {
            shards: 4,
            backend,
            ..Default::default()
        })
    }

    fn entry(v: &str) -> Entry {
        Entry {
            value: Bytes::from(v.to_string()),
            flags: 0,
            expires_at: None,
            version: 0,
        }
    }

    #[test]
    fn set_get_delete_roundtrip_both_backends() {
        for backend in [Backend::Mutex, Backend::Stm] {
            let rt = Runtime::builder().workers(2).build();
            let s = store(backend);
            let k = Bytes::from_static(b"alpha");
            let s2 = Arc::clone(&s);
            let k2 = k.clone();
            let got = rt.block_on(do_m! {
                s2.set(k2.clone(), entry("v1"));
                s2.get(k2, 0)
            });
            assert_eq!(got.unwrap().value, Bytes::from_static(b"v1"), "{backend:?}");

            let s3 = Arc::clone(&s);
            let deleted = rt.block_on(s3.delete(k.clone(), 0));
            assert!(deleted, "{backend:?}");
            let s4 = Arc::clone(&s);
            assert!(rt.block_on(s4.get(k, 0)).is_none(), "{backend:?}");
            rt.shutdown();
        }
    }

    #[test]
    fn expiry_is_lazy_on_get_and_eager_on_purge() {
        for backend in [Backend::Mutex, Backend::Stm] {
            let rt = Runtime::builder().workers(1).build();
            let s = store(backend);
            let k = Bytes::from_static(b"ttl");
            let e = Entry {
                expires_at: Some(100),
                ..entry("soon")
            };
            let s2 = Arc::clone(&s);
            let k2 = k.clone();
            rt.block_on(s2.set(k2, e));
            let s3 = Arc::clone(&s);
            assert!(rt.block_on(s3.get(k.clone(), 50)).is_some(), "{backend:?}");
            let s4 = Arc::clone(&s);
            assert!(rt.block_on(s4.get(k.clone(), 100)).is_none(), "{backend:?}");
            // Entry still occupies memory until purged.
            assert_eq!(s.len_now(), 1, "{backend:?}");
            let idx = s.shard_of(&k);
            let s5 = Arc::clone(&s);
            let purged = rt.block_on(s5.purge_shard(idx, 100));
            assert_eq!(purged, 1, "{backend:?}");
            assert_eq!(s.len_now(), 0, "{backend:?}");
            rt.shutdown();
        }
    }

    #[test]
    fn counters_increment_decrement_and_reject_non_numeric() {
        for backend in [Backend::Mutex, Backend::Stm] {
            let rt = Runtime::builder().workers(1).build();
            let s = store(backend);
            let k = Bytes::from_static(b"n");
            let s2 = Arc::clone(&s);
            let k2 = k.clone();
            rt.block_on(s2.set(k2, entry("10")));
            let s3 = Arc::clone(&s);
            let k3 = k.clone();
            assert_eq!(
                rt.block_on(s3.counter_op(k3, 5, false, 0)),
                CounterResult::Ok(15)
            );
            let s4 = Arc::clone(&s);
            let k4 = k.clone();
            assert_eq!(
                rt.block_on(s4.counter_op(k4, 100, true, 0)),
                CounterResult::Ok(0),
                "decr floors at zero"
            );
            let s5 = Arc::clone(&s);
            assert_eq!(
                rt.block_on(s5.counter_op(Bytes::from_static(b"absent"), 1, false, 0)),
                CounterResult::NotFound
            );
            let s6 = Arc::clone(&s);
            let k6 = k.clone();
            rt.block_on(s6.set(k6, entry("pear")));
            let s7 = Arc::clone(&s);
            assert_eq!(
                rt.block_on(s7.counter_op(k, 1, false, 0)),
                CounterResult::NotNumeric
            );
            rt.shutdown();
        }
    }

    #[test]
    fn add_replace_respect_occupancy_both_backends() {
        for backend in [Backend::Mutex, Backend::Stm] {
            let rt = Runtime::builder().workers(1).build();
            let s = store(backend);
            let k = Bytes::from_static(b"g");
            // replace on a missing key fails; add succeeds.
            let s1 = Arc::clone(&s);
            assert!(
                !rt.block_on(s1.replace(k.clone(), entry("r"), 0)),
                "{backend:?}"
            );
            let s2 = Arc::clone(&s);
            assert!(rt.block_on(s2.add(k.clone(), entry("a"), 0)), "{backend:?}");
            // add on a live key fails; replace succeeds.
            let s3 = Arc::clone(&s);
            assert!(
                !rt.block_on(s3.add(k.clone(), entry("a2"), 0)),
                "{backend:?}"
            );
            let s4 = Arc::clone(&s);
            assert!(
                rt.block_on(s4.replace(k.clone(), entry("r2"), 0)),
                "{backend:?}"
            );
            let s5 = Arc::clone(&s);
            let got = rt.block_on(s5.get(k.clone(), 0)).unwrap();
            assert_eq!(got.value, Bytes::from_static(b"r2"), "{backend:?}");
            // An expired entry counts as absent: add over it succeeds.
            let s6 = Arc::clone(&s);
            let e = Entry {
                expires_at: Some(10),
                ..entry("ttl")
            };
            rt.block_on(s6.set(k.clone(), e));
            let s7 = Arc::clone(&s);
            assert!(
                rt.block_on(s7.add(k.clone(), entry("fresh"), 10)),
                "{backend:?}"
            );
            rt.shutdown();
        }
    }

    #[test]
    fn cas_stores_only_on_matching_stamp() {
        for backend in [Backend::Mutex, Backend::Stm] {
            let rt = Runtime::builder().workers(1).build();
            let s = store(backend);
            let k = Bytes::from_static(b"c");
            let s1 = Arc::clone(&s);
            assert_eq!(
                rt.block_on(s1.cas(k.clone(), entry("x"), 1, 0)),
                CasOutcome::NotFound,
                "{backend:?}"
            );
            let s2 = Arc::clone(&s);
            rt.block_on(s2.set(k.clone(), entry("v1")));
            let s3 = Arc::clone(&s);
            let stamp = rt.block_on(s3.get(k.clone(), 0)).unwrap().version;
            // Matching stamp stores and re-stamps...
            let s4 = Arc::clone(&s);
            assert_eq!(
                rt.block_on(s4.cas(k.clone(), entry("v2"), stamp, 0)),
                CasOutcome::Stored,
                "{backend:?}"
            );
            // ...so the old stamp is now stale.
            let s5 = Arc::clone(&s);
            assert_eq!(
                rt.block_on(s5.cas(k.clone(), entry("v3"), stamp, 0)),
                CasOutcome::Exists,
                "{backend:?}"
            );
            let s6 = Arc::clone(&s);
            let e = rt.block_on(s6.get(k.clone(), 0)).unwrap();
            assert_eq!(e.value, Bytes::from_static(b"v2"), "{backend:?}");
            assert_ne!(e.version, stamp, "{backend:?}: version must advance");
            let snap = crate::stats::StatsSnapshot::gather(s.shard_stats());
            assert_eq!(
                (snap.cas_hits, snap.cas_badval, snap.cas_misses),
                (1, 1, 1),
                "{backend:?}"
            );
            rt.shutdown();
        }
    }

    #[test]
    fn stm_read_only_outcomes_do_not_copy_the_shard() {
        let rt = Runtime::builder().workers(1).build();
        let s = ShardedStore::new(StoreConfig {
            shards: 1,
            backend: Backend::Stm,
            ..Default::default()
        });
        let snapshot = || match &s.shards[0] {
            Shard::Stm(cell) => cell.read_now(),
            Shard::Mutex { .. } => unreachable!("built with Backend::Stm"),
        };
        let k = Bytes::from_static(b"k");
        let absent = Bytes::from_static(b"absent");
        rt.block_on(s.set(k.clone(), entry("pear")));
        let before = snapshot();
        let unchanged = |what: &str| {
            assert!(
                Arc::ptr_eq(&before, &snapshot()),
                "{what} must not copy-on-write the shard"
            );
        };

        assert!(!rt.block_on(s.add(k.clone(), entry("x"), 0)));
        unchanged("failed add");
        assert!(!rt.block_on(s.replace(absent.clone(), entry("x"), 0)));
        unchanged("failed replace");
        // Stamps start at 1, so 0 is always stale.
        assert_eq!(
            rt.block_on(s.cas(k.clone(), entry("x"), 0, 0)),
            CasOutcome::Exists
        );
        unchanged("stale cas");
        assert_eq!(
            rt.block_on(s.cas(absent.clone(), entry("x"), 0, 0)),
            CasOutcome::NotFound
        );
        unchanged("missed cas");
        assert_eq!(
            rt.block_on(s.concat(absent.clone(), Bytes::from_static(b"x"), false, 0)),
            ConcatOutcome::Missing
        );
        unchanged("missed append");
        assert!(!rt.block_on(s.touch(absent.clone(), None, 0)));
        unchanged("missed touch");
        assert!(!rt.block_on(s.delete(absent.clone(), 0)));
        unchanged("missed delete");
        assert_eq!(
            rt.block_on(s.counter_op(k.clone(), 1, false, 0)),
            CounterResult::NotNumeric
        );
        unchanged("non-numeric incr");
        assert_eq!(
            rt.block_on(s.counter_op(absent, 1, false, 0)),
            CounterResult::NotFound
        );
        unchanged("missed incr");
        assert_eq!(rt.block_on(s.purge_shard(0, 0)), 0);
        unchanged("empty purge");

        // The probe is live: a committed write does swap the snapshot.
        assert!(rt.block_on(s.touch(k, Some(5), 0)));
        assert!(!Arc::ptr_eq(&before, &snapshot()));
        rt.shutdown();
    }

    #[test]
    fn keys_spread_across_shards() {
        let s = store(Backend::Mutex);
        let mut seen = std::collections::HashSet::new();
        for i in 0..64 {
            seen.insert(s.shard_of(format!("key{i}").as_bytes()));
        }
        assert!(seen.len() > 1, "64 keys must hit more than one of 4 shards");
    }

    #[test]
    fn deadline_zero_means_never() {
        assert_eq!(ShardedStore::deadline(5, 0), None);
        assert_eq!(ShardedStore::deadline(5, 2), Some(5 + 2 * SECS));
    }
}
