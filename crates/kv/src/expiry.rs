//! TTL reclamation driven off the runtime timer wheel.
//!
//! Reads already treat stale entries as misses ([lazy expiry], see
//! `store`); the janitor is the eager half: a plain monadic thread that
//! sleeps on the runtime's timer (`sys_sleep`, backed by the timer wheel
//! on the real runtime and the event heap under simulation) and sweeps
//! one shard per wakeup, so a large store never stalls the scheduler for
//! a full pass.
//!
//! [lazy expiry]: crate::store::ShardedStore::get

use std::sync::Arc;

use eveth_core::event::{choose, sync, timeout_evt, Signal};
use eveth_core::syscall::sys_time;
use eveth_core::telemetry::metrics::Counter;
use eveth_core::time::Nanos;
use eveth_core::{do_m, loop_m, Loop, ThreadM};

use crate::store::ShardedStore;

/// Runs forever: every `interval` nanoseconds, purge the next shard
/// (round-robin). Spawn with `Runtime::spawn` / `SimRuntime::spawn`;
/// `sweeps` (when provided) counts completed whole-store passes.
///
/// [`janitor_until`] is the stoppable form; this one never returns.
pub fn janitor(store: Arc<ShardedStore>, interval: Nanos, sweeps: Option<Counter>) -> ThreadM<()> {
    janitor_until(store, interval, sweeps, Signal::new())
}

/// Like [`janitor`], but each wake is a `choose` between the sweep timer
/// and `stop` — the thread exits as soon as the signal fires, so a
/// drained server does not leave an immortal timer-wheel client behind.
/// The server wires its shutdown broadcast in here.
pub fn janitor_until(
    store: Arc<ShardedStore>,
    interval: Nanos,
    sweeps: Option<Counter>,
    stop: Signal,
) -> ThreadM<()> {
    let shards = store.shard_count();
    loop_m(0usize, move |idx| {
        let store = Arc::clone(&store);
        let sweeps = sweeps.clone();
        let stop = stop.clone();
        do_m! {
            let stopped <- sync(choose(vec![
                stop.wait_evt().wrap(|()| true),
                timeout_evt(interval).wrap(|()| false),
            ]));
            let _ = if stopped {
                return ThreadM::pure(Loop::Break(()));
            };
            let now <- sys_time();
            store.purge_shard(idx, now);
            let _ = if idx + 1 == shards {
                if let Some(s) = &sweeps {
                    s.incr();
                }
            };
            ThreadM::pure(Loop::Continue((idx + 1) % shards))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Backend, Entry, StoreConfig};
    use bytes::Bytes;
    use eveth_core::time::MILLIS;

    #[test]
    fn janitor_reclaims_expired_entries_in_virtual_time() {
        for backend in [Backend::Mutex, Backend::Stm] {
            let sim = eveth_simos::SimRuntime::new_default();
            let store = ShardedStore::new(StoreConfig {
                shards: 4,
                backend,
                ..Default::default()
            });
            // 32 entries expiring at t=1ms, none ever read again.
            let st = Arc::clone(&store);
            sim.block_on(eveth_core::for_each_m(0..32u32, move |i| {
                let st = Arc::clone(&st);
                st.set(
                    Bytes::from(format!("k{i}")),
                    Entry {
                        value: Bytes::from_static(b"v"),
                        flags: 0,
                        expires_at: Some(MILLIS),
                        version: 0,
                    },
                )
            }))
            .unwrap();
            assert_eq!(store.len_now(), 32, "{backend:?}");

            let sweeps = Counter::new();
            sim.spawn(janitor(Arc::clone(&store), MILLIS, Some(sweeps.clone())));
            // Run the simulation long enough for a full round-robin pass
            // after the deadline.
            sim.run_until(Some(10 * MILLIS));
            assert_eq!(store.len_now(), 0, "{backend:?}: janitor must reclaim");
            assert!(sweeps.get() >= 1, "{backend:?}: at least one full sweep");
            let purged: u64 = store
                .shard_stats()
                .iter()
                .map(|s| s.expired_purged.get())
                .sum();
            assert_eq!(purged, 32, "{backend:?}");
        }
    }
}
