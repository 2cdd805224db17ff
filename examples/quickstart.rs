//! Quickstart: monadic threads on the real (wall-clock) hybrid runtime.
//!
//! Run with: `cargo run --example quickstart`
//!
//! Mirrors the paper's §4.1: per-client logic written in the familiar
//! multithreaded style with `do_m!` (Haskell's do-syntax), scheduled by an
//! event-driven runtime underneath.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use eveth::core::runtime::Runtime;
use eveth::core::sync::{Chan, MVar, Mutex};
use eveth::core::syscall::*;
use eveth::{do_m, ThreadM};

fn main() {
    // An event-driven runtime: two worker_main scheduler loops on one
    // ready queue, a worker_epoll loop, a blocking-I/O pool, a timer.
    let rt = Runtime::builder().workers(2).build();

    // --- Threads are cheap: fork a few thousand, coordinate via a channel.
    let results: Chan<u64> = Chan::new();
    let counter = Arc::new(AtomicU64::new(0));
    const N: u64 = 5_000;

    for i in 0..N {
        let results = results.clone();
        let counter = Arc::clone(&counter);
        rt.spawn(do_m! {
            sys_yield();                            // cooperate
            let v <- sys_nbio(move || i * i);       // non-blocking effect
            let _c <- sys_nbio(move || counter.fetch_add(1, Ordering::SeqCst));
            results.write(v)
        });
    }

    // Collect all N results from the main monadic thread.
    let sum = rt.block_on(eveth::loop_m((0u64, 0u64), move |(count, sum)| {
        if count == N {
            return ThreadM::pure(eveth::Loop::Break(sum));
        }
        results
            .read()
            .map(move |v| eveth::Loop::Continue((count + 1, sum + v)))
    }));
    println!("forked {N} threads; sum of squares = {sum}");
    assert_eq!(sum, (0..N).map(|i| i * i).sum::<u64>());

    // --- Exceptions (paper §4.3): failures propagate to handlers.
    let outcome = rt.block_on(sys_catch(
        do_m! {
            sys_nbio(|| println!("acquiring resource..."));
            sys_throw::<&str>("disk on fire")
        },
        |e| {
            ThreadM::pure(if e.message() == "disk on fire" {
                "handled"
            } else {
                "?"
            })
        },
    ));
    println!("exception outcome: {outcome}");

    // --- Blocking synchronization as scheduler extensions (paper §4.7).
    let mutex = Mutex::new();
    let shared = Arc::new(AtomicU64::new(0));
    let mv: MVar<&str> = MVar::new_empty();
    let producer = mv.clone();
    let m2 = mutex.clone();
    let s2 = Arc::clone(&shared);
    rt.block_on(do_m! {
        sys_fork(do_m! {
            sys_sleep(5 * eveth::core::time::MILLIS);
            m2.with(sys_nbio(move || { s2.fetch_add(1, Ordering::SeqCst); }));
            producer.put("done")
        });
        let msg <- mv.take();                       // blocks this monadic thread only
        sys_nbio(move || println!("child says: {msg}"))
    });

    let stats = rt.stats();
    println!(
        "runtime stats: spawned={} exited={} ctx_switches={} steps={}",
        stats.spawned, stats.exited, stats.ctx_switches, stats.steps
    );
    rt.shutdown();
}
