//! SMP stress: many monadic threads across several OS workers, hammering
//! every synchronization primitive at once (paper §4.4: "multiple monadic
//! threads make progress simultaneously").

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use eveth::core::runtime::Runtime;
use eveth::core::sync::{Chan, MVar, Mutex, SyncChan};
use eveth::core::syscall::*;
use eveth::stm::{atomically_m, TVar};
use eveth::{do_m, for_each_m, poll_until};

#[test]
fn hundred_thousand_threads_complete() {
    let rt = Runtime::builder().workers(4).build();
    const N: u64 = 100_000;
    let counter = Arc::new(AtomicU64::new(0));
    for _ in 0..N {
        let c = Arc::clone(&counter);
        rt.spawn(do_m! {
            sys_yield();
            sys_nbio(move || { c.fetch_add(1, Ordering::Relaxed); })
        });
    }
    let watch = Arc::clone(&counter);
    rt.block_on(poll_until(eveth::core::time::MILLIS, move || {
        watch.load(Ordering::Relaxed) == N
    }));
    assert_eq!(counter.load(Ordering::Relaxed), N);
    assert!(rt.stats().spawned >= N);
    rt.shutdown();
}

#[test]
fn mixed_primitive_stress() {
    let rt = Runtime::builder().workers(4).build();
    const WORKERS: u64 = 32;
    const ROUNDS: u64 = 50;

    let mutex = Mutex::new();
    let guarded = Arc::new(AtomicU64::new(0));
    let chan: Chan<u64> = Chan::new();
    let bounded: SyncChan<u64> = SyncChan::new(4);
    let mv: MVar<u64> = MVar::new_empty();
    let tv: TVar<u64> = TVar::new(0);
    let done = Arc::new(AtomicU64::new(0));

    // Producers: push through every primitive.
    for w in 0..WORKERS {
        let mutex = mutex.clone();
        let guarded = Arc::clone(&guarded);
        let chan = chan.clone();
        let bounded = bounded.clone();
        let tv = tv.clone();
        let done = Arc::clone(&done);
        rt.spawn(do_m! {
            for_each_m(0..ROUNDS, move |i| {
                let mutex = mutex.clone();
                let guarded = Arc::clone(&guarded);
                let chan = chan.clone();
                let bounded = bounded.clone();
                let tv = tv.clone();
                do_m! {
                    mutex.with(sys_nbio(move || { guarded.fetch_add(1, Ordering::Relaxed); }));
                    chan.write(w * ROUNDS + i);
                    bounded.write(i);
                    atomically_m(move |t| {
                        let v = t.read(&tv)?;
                        t.write(&tv, v + 1);
                        Ok(())
                    })
                }
            });
            sys_nbio(move || { done.fetch_add(1, Ordering::Relaxed); })
        });
    }
    // Consumers for the channels.
    let chan_seen = Arc::new(AtomicU64::new(0));
    let bounded_seen = Arc::new(AtomicU64::new(0));
    for _ in 0..4 {
        let chan = chan.clone();
        let seen = Arc::clone(&chan_seen);
        rt.spawn(eveth::forever_m(move || {
            let seen = Arc::clone(&seen);
            chan.read().bind(move |_| {
                sys_nbio(move || {
                    seen.fetch_add(1, Ordering::Relaxed);
                })
            })
        }));
        let bounded = bounded.clone();
        let seen = Arc::clone(&bounded_seen);
        rt.spawn(eveth::forever_m(move || {
            let seen = Arc::clone(&seen);
            bounded.read().bind(move |_| {
                sys_nbio(move || {
                    seen.fetch_add(1, Ordering::Relaxed);
                })
            })
        }));
    }
    // MVar ping to make sure it is exercised under contention too.
    let mv2 = mv.clone();
    rt.spawn(for_each_m(0..100u64, move |i| mv2.put(i)));
    let mv3 = mv.clone();
    rt.spawn(for_each_m(0..100u64, move |_| mv3.take().map(|_| ())));

    // Wait for all producers and both channel counters.
    let total = WORKERS * ROUNDS;
    rt.block_on(poll_until(eveth::core::time::MILLIS, move || {
        done.load(Ordering::Relaxed) == WORKERS
            && chan_seen.load(Ordering::Relaxed) == total
            && bounded_seen.load(Ordering::Relaxed) == total
    }));

    assert_eq!(guarded.load(Ordering::Relaxed), total);
    assert_eq!(tv.read_now(), total);
    assert!(rt.uncaught_exceptions().is_empty());
    rt.shutdown();
}

#[test]
fn work_is_actually_parallel() {
    // Wall-clock-free SMP overlap assertion: count concurrently-OPEN
    // critical sections. Each section lives entirely inside one
    // `sys_nbio` step, and a worker interprets a step to completion
    // before it can pick up any other task — so observing two sections
    // open at the same instant proves two `worker_main` OS threads were
    // executing monadic code simultaneously (true hardware parallelism,
    // or OS preemption interleaving on a single-CPU container). Either
    // way the runtime demonstrably does not serialize its workers behind
    // a global lock, and no wall-clock threshold is involved, so this
    // bites on 1-CPU CI machines instead of self-skipping.
    let rt = Runtime::builder().workers(4).slice(8).build();
    let in_flight = Arc::new(AtomicU64::new(0));
    let peak = Arc::new(AtomicU64::new(0));

    const TASKS: u64 = 8;
    const ROUNDS: u64 = 8;
    const MAX_WAVES: usize = 16;

    for wave in 0..MAX_WAVES {
        if peak.load(Ordering::SeqCst) >= 2 {
            break;
        }
        let done: Chan<()> = Chan::new();
        for t in 0..TASKS {
            let in_flight = Arc::clone(&in_flight);
            let peak = Arc::clone(&peak);
            let done = done.clone();
            rt.spawn(do_m! {
                for_each_m(0..ROUNDS, move |round| {
                    let in_flight = Arc::clone(&in_flight);
                    let peak = Arc::clone(&peak);
                    do_m! {
                        sys_nbio(move || {
                            let open = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                            peak.fetch_max(open, Ordering::SeqCst);
                            // Spin long enough (~ms-scale) that, on one
                            // CPU, the OS preempts a worker mid-section
                            // and lets another worker open its own.
                            let mut acc: u64 = t ^ round;
                            for i in 0..2_000_000u64 {
                                acc = acc.wrapping_add(i ^ (acc << 1));
                            }
                            std::hint::black_box(acc);
                            in_flight.fetch_sub(1, Ordering::SeqCst);
                        });
                        sys_yield()
                    }
                });
                done.write(())
            });
        }
        rt.block_on(for_each_m(0..TASKS, {
            let done = done.clone();
            move |_| done.read().map(|_| ())
        }));
        if wave + 1 == MAX_WAVES && peak.load(Ordering::SeqCst) < 2 {
            eprintln!("exhausted {MAX_WAVES} waves without observing overlap");
        }
    }

    assert_eq!(in_flight.load(Ordering::SeqCst), 0, "sections all closed");
    assert!(
        peak.load(Ordering::SeqCst) >= 2,
        "no two critical sections were ever open at once across {} waves — \
         workers are serialized (peak = {})",
        MAX_WAVES,
        peak.load(Ordering::SeqCst)
    );
    rt.shutdown();
}
