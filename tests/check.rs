//! `eveth-check` end to end: schedule exploration + the happens-before
//! checker over the deterministic sim.
//!
//! The load-bearing claims:
//!
//! * schedule 0 of every exploration is the golden Fifo schedule — the
//!   one every other test runs — and it stays green;
//! * PCT schedules are *distinct* (different fingerprints) yet every one
//!   is replayable: rerunning `(index, policy)` reproduces the digest
//!   byte for byte, including on a failing schedule;
//! * a planted ABBA mutex deadlock that the Fifo schedule never hits is
//!   caught by exploration with a two-node waits-for cycle naming both
//!   telemetry spans, and the lock-ordered fix is clean;
//! * a hand-built lost wakeup — a wake consumed by a cancelled `choose`
//!   loser on a baton-less channel clone — is flagged with the starved
//!   thread and the availability evidence, and the pass-the-baton fix is
//!   clean;
//! * unsynchronized writes to a declared [`Shared`] cell race; the same
//!   writes under a monadic `Mutex` are ordered by the release→acquire
//!   edge and pass;
//! * the existing suites — `Chan`/`MVar`/`Signal`/`choose`, STM, the
//!   service framework, the KV server and the cluster router — all pass
//!   the checker under exploration (zero false positives).
//!
//! Schedule counts scale with `EVETH_CHECK_SCHEDULES` (CI smoke) and
//! `EVETH_FULL=1` (deep sweep); on an unexpected red each harness writes
//! the `(seed, config)` replay artifact to `target/check-failures.json`.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex as StdMutex};

use bytes::Bytes;
use eveth::core::check;
use eveth::core::engine::WaitKind;
use eveth::core::event::{branch_waiter, choose, sync, Branch, Event, Registration, Signal};
use eveth::core::net::{recv_exact, recv_to_end, send_all, Conn, Endpoint, HostId, NetStack};
use eveth::core::reactor::{Interest, Pollable, WaitKey, WaitTable, Waiter};
use eveth::core::service::{Server, ServerConfig, Service, Step};
use eveth::core::sync::{Chan, MVar, Mutex};
use eveth::core::syscall::{sys_annotate, sys_nbio, sys_sleep, sys_yield};
use eveth::core::time::MILLIS;
use eveth::kv::loadgen::{client_thread, KvLoadConfig, KvLoadStats, Zipf};
use eveth::kv::server::{KvConfig, KvServer};
use eveth::kv::store::StoreConfig;
use eveth::simos::{SimClock, SimConfig, SimRuntime};
use eveth::stm::{atomically_m, TVar};
use eveth::{do_m, for_each_m, loop_m, Loop, ThreadM};
use eveth_check::{schedule_count, Exploration, Explorer, Shared, Violation};

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

/// Asserts every schedule passed; on an unexpected red, writes the
/// `(seed, config)` replay artifact to `target/check-failures.json` first.
fn assert_clean(name: &str, explorer: &Explorer, ex: &Exploration) {
    if let Some(json) = ex.failure_json(explorer.seed, &explorer.config) {
        std::fs::create_dir_all("target").ok();
        std::fs::write("target/check-failures.json", &json).ok();
        panic!(
            "{name}: {} of {} schedules failed \
             (replay artifact at target/check-failures.json):\n{json}",
            ex.failures().len(),
            ex.runs.len(),
        );
    }
}

/// Monadic spin: sleeps virtual time until `ready()` holds. Used to
/// sequence the lost-wakeup repro identically under every policy.
fn wait_until(ready: impl Fn() -> bool + Send + Sync + 'static) -> ThreadM<()> {
    let ready = Arc::new(ready);
    loop_m((), move |()| {
        let ready = Arc::clone(&ready);
        sys_nbio(move || ready()).bind(|ok| {
            if ok {
                ThreadM::pure(Loop::Break(()))
            } else {
                sys_sleep(MILLIS).map(Loop::Continue)
            }
        })
    })
}

// ---------------------------------------------------------------------------
// Exploration mechanics: golden schedule 0, distinct PCT schedules,
// byte-identical replay.
// ---------------------------------------------------------------------------

/// `Chan`/`MVar`/`Signal`/`choose` workload: two producers, two
/// consumers racing both channels against a stop broadcast, a tally
/// MVar churned per item. Fully drains — leak report must be clean.
fn primitives_program(sim: &SimRuntime) -> Result<(), String> {
    let a: Chan<u64> = Chan::new();
    let b: Chan<u64> = Chan::new();
    let sink: Chan<u64> = Chan::new();
    let tally: MVar<u64> = MVar::new(0);
    let stop = Signal::new();

    for (ch, base) in [(a.clone(), 100u64), (b.clone(), 200u64)] {
        sim.spawn(do_m! {
            sys_annotate(format!("producer-{base}"));
            for_each_m(0..4u64, move |n| ch.write(base + n))
        });
    }
    for c in 0..2u64 {
        let (a, b, stop, sink) = (a.clone(), b.clone(), stop.clone(), sink.clone());
        sim.spawn(do_m! {
            sys_annotate(format!("consumer-{c}"));
            loop_m((), move |()| {
                let sink = sink.clone();
                sync(choose(vec![
                    a.read_evt().wrap(Some),
                    b.read_evt().wrap(Some),
                    stop.wait_evt().wrap(|()| None),
                ]))
                .bind(move |got| match got {
                    Some(v) => sink.write(v).map(|()| Loop::Continue(())),
                    None => ThreadM::pure(Loop::Break(())),
                })
            })
        });
    }

    let tally2 = tally.clone();
    let total = sim
        .block_on(do_m! {
            sys_annotate("collector");
            for_each_m(0..8u64, move |_| {
                let tally = tally.clone();
                do_m! {
                    sink.read();
                    let n <- tally.take();
                    tally.put(n + 1)
                }
            });
            sys_nbio(move || stop.fire());
            tally2.take()
        })
        .map_err(|e| format!("collector failed: {e:?}"))?;
    if total != 8 {
        return Err(format!("expected 8 items through the sinks, got {total}"));
    }
    Ok(())
}

#[test]
fn exploration_keeps_schedule_zero_golden_and_replays_byte_identically() {
    let explorer = Explorer::new(schedule_count(8, 48), 0xC0FFEE);
    let ex = explorer.explore(primitives_program);
    assert_clean("primitives", &explorer, &ex);

    // Schedule 0 is the golden Fifo schedule.
    assert_eq!(
        ex.runs[0].policy,
        eveth::simos::desrt::SchedulePolicy::Fifo,
        "schedule 0 must be the Fifo golden schedule"
    );

    // The seed family actually explores: most PCT fingerprints differ.
    let n = ex.runs.len();
    assert!(
        ex.distinct_schedules() > n / 2,
        "expected more than {}/{} distinct schedules, got {}",
        n / 2,
        n,
        ex.distinct_schedules()
    );

    // The whole suite drains: nothing parked, registered or armed.
    for r in &ex.runs {
        assert!(
            r.report.leak.is_clean(),
            "schedule {} leaked: {:?}",
            r.index,
            r.report.leak
        );
    }

    // Replay: the same (index, policy) reproduces the digest byte for
    // byte — fingerprint, findings and final SimReport included.
    let pick = &ex.runs[n.min(3) - 1];
    let again = explorer.run_one(pick.index, pick.policy.clone(), &primitives_program);
    assert_eq!(
        pick.digest(),
        again.digest(),
        "replaying schedule {} must be byte-identical",
        pick.index
    );
}

// ---------------------------------------------------------------------------
// Planted ABBA deadlock: invisible to Fifo, caught by exploration.
// ---------------------------------------------------------------------------

/// Two monadic threads and two mutexes. `t1` takes A, hands `t2` a
/// token, then takes B; `t2` takes the locks in the *opposite* order
/// once woken (`fixed = false`) or the same order (`fixed = true`).
/// Under Fifo the handoff serializes the critical sections; a PCT
/// schedule that prioritizes `t2` interleaves them into a cycle.
fn abba_program(fixed: bool) -> impl Fn(&SimRuntime) -> Result<(), String> {
    move |sim| {
        let a = Mutex::new();
        let b = Mutex::new();
        let token: Chan<()> = Chan::new();
        {
            let (a, b, token) = (a.clone(), b.clone(), token.clone());
            sim.spawn(do_m! {
                sys_annotate("abba-t1");
                a.lock();
                token.write(());
                b.lock();
                b.unlock();
                a.unlock()
            });
        }
        {
            let (first, second) = if fixed {
                (a.clone(), b.clone())
            } else {
                (b.clone(), a.clone())
            };
            sim.spawn(do_m! {
                sys_annotate("abba-t2");
                token.read();
                first.lock();
                second.lock();
                second.unlock();
                first.unlock()
            });
        }
        Ok(())
    }
}

#[test]
fn abba_deadlock_is_caught_by_exploration_and_lock_ordering_fixes_it() {
    let explorer = Explorer::new(16, 0xABBA);
    let broken = abba_program(false);
    let ex = explorer.explore(&broken);

    // The golden schedule never hits it: the bug is schedule-dependent.
    assert!(
        ex.runs[0].report.passed(),
        "Fifo must stay green on the ABBA program: {:?}",
        ex.runs[0].report.violations
    );

    // Some explored schedule does, with the expected two-node cycle.
    let caught: Vec<_> = ex
        .runs
        .iter()
        .filter(|r| {
            r.report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::Deadlock { .. }))
        })
        .collect();
    assert!(
        !caught.is_empty(),
        "exploration must catch the ABBA deadlock in {} schedules",
        ex.runs.len()
    );
    let bad = caught[0];
    let cycle = bad
        .report
        .violations
        .iter()
        .find_map(|v| match v {
            Violation::Deadlock { cycle } => Some(cycle),
            _ => None,
        })
        .unwrap();
    assert_eq!(cycle.len(), 2, "ABBA is a two-node cycle: {cycle:?}");
    let spans: Vec<_> = cycle.iter().filter_map(|n| n.span.clone()).collect();
    assert!(
        spans.contains(&"abba-t1".to_string()) && spans.contains(&"abba-t2".to_string()),
        "cycle must name both telemetry spans: {spans:?}"
    );
    for node in cycle {
        assert!(
            node.res.starts_with("Mutex#"),
            "waits-for edges are over the mutexes: {node:?}"
        );
    }
    // The deadlocked threads are also reported as leaked.
    assert_eq!(
        bad.report.leak.live_threads.len(),
        2,
        "{:?}",
        bad.report.leak
    );

    // A failing schedule replays byte-identically from (index, policy).
    let again = explorer.run_one(bad.index, bad.policy.clone(), &broken);
    assert_eq!(
        bad.digest(),
        again.digest(),
        "failing schedule {} must replay byte-identically",
        bad.index
    );

    // Consistent lock ordering: clean on every schedule, nothing leaks.
    let fixed = abba_program(true);
    let ex_fixed = explorer.explore(&fixed);
    assert_clean("abba-fixed", &explorer, &ex_fixed);
    for r in &ex_fixed.runs {
        assert!(
            r.report.leak.is_clean(),
            "fixed ABBA leaked: {:?}",
            r.report.leak
        );
    }
}

// ---------------------------------------------------------------------------
// Hand-built lost wakeup: a wake consumed by a cancelled choose loser.
// ---------------------------------------------------------------------------

/// A deliberately broken unbounded channel: identical to [`Chan`] except
/// that with `fixed = false` its registration has **no baton** — a wake
/// consumed by a `choose` loser that commits elsewhere is dropped
/// instead of handed to the next waiter. With `fixed = true` the baton
/// is restored and the channel is lossless again.
#[derive(Clone)]
struct BrokenChan {
    st: Arc<BrokenDev>,
}

/// The channel's state as a pollable device (its `Read` interest is "an
/// item is queued").
struct BrokenDev(StdMutex<BrokenSt>);

struct BrokenSt {
    queue: VecDeque<u32>,
    takers: WaitTable,
    rid: u64,
    fixed: bool,
}

impl BrokenSt {
    fn op(&self, kind: check::OpKind) {
        check::op(
            self.rid,
            check::ResKind::Chan,
            kind,
            [self.queue.len() as u64, 0],
        );
    }
}

impl Pollable for BrokenDev {
    fn register(&self, _: Interest, waiter: Waiter) -> Option<WaitKey> {
        let mut st = self.0.lock().unwrap();
        if !st.queue.is_empty() {
            let rid = st.rid;
            drop(st);
            let _scope = check::wake_scope(rid);
            waiter.wake();
            return None;
        }
        st.op(check::OpKind::BlockTake);
        Some(st.takers.push(waiter))
    }

    fn deregister(&self, _: Interest, key: WaitKey) -> bool {
        self.0.lock().unwrap().takers.withdraw(key)
    }

    fn pass_on(&self, _: Interest) {
        let mut st = self.0.lock().unwrap();
        // The planted bug: unless fixed, a consumed wake is never passed
        // on when this branch loses the choose.
        if st.fixed && !st.queue.is_empty() {
            st.op(check::OpKind::Baton);
            let _scope = check::wake_scope(st.rid);
            st.takers.wake_one();
        }
    }
}

impl BrokenChan {
    fn new(fixed: bool) -> Self {
        BrokenChan {
            st: Arc::new(BrokenDev(StdMutex::new(BrokenSt {
                queue: VecDeque::new(),
                takers: WaitTable::new(),
                rid: check::new_rid(),
                fixed,
            }))),
        }
    }

    fn takers(&self) -> usize {
        self.st.0.lock().unwrap().takers.len()
    }

    fn push(&self, v: u32) {
        let mut st = self.st.0.lock().unwrap();
        st.queue.push_back(v);
        st.op(check::OpKind::Publish);
        let _scope = check::wake_scope(st.rid);
        st.takers.wake_one();
    }

    fn read_evt(&self) -> Event<u32> {
        let poll_st = Arc::clone(&self.st);
        let reg_st = Arc::clone(&self.st);
        Event::from_fn(move |_t0, out| {
            out.push(Branch::new(
                WaitKind::Lock,
                move |_now| {
                    let mut st = poll_st.0.lock().unwrap();
                    let v = st.queue.pop_front();
                    if v.is_some() {
                        st.op(check::OpKind::Consume);
                    }
                    v
                },
                move |u| {
                    let dev = Arc::clone(&reg_st) as Arc<dyn Pollable>;
                    Registration::wait(dev, Interest::Read, branch_waiter(u, WaitKind::Lock))
                },
            ));
        })
    }
}

/// The repro, sequenced identically under every policy: a chooser parks
/// on `{signal, broken.read}`, a second reader parks behind it, then a
/// producer enqueues one item *and* fires the signal in one step. The
/// chooser's wake is consumed, the signal branch wins, and without the
/// baton the queued item never reaches the second reader.
fn lost_wakeup_program(fixed: bool) -> impl Fn(&SimRuntime) -> Result<(), String> {
    move |sim| {
        let broken = BrokenChan::new(fixed);
        let sig = Signal::new();
        {
            let (b, s) = (broken.clone(), sig.clone());
            sim.spawn(do_m! {
                sys_annotate("chooser");
                let _won <- sync(choose(vec![
                    s.wait_evt().wrap(|()| None),
                    b.read_evt().wrap(Some),
                ]));
                ThreadM::pure(())
            });
        }
        {
            let b = broken.clone();
            let gate = broken.clone();
            sim.spawn(do_m! {
                sys_annotate("starved");
                wait_until(move || gate.takers() >= 1);
                let _v <- sync(b.read_evt());
                ThreadM::pure(())
            });
        }
        {
            let (b, s) = (broken.clone(), sig.clone());
            let gate = broken.clone();
            sim.spawn(do_m! {
                sys_annotate("producer");
                wait_until(move || gate.takers() >= 2);
                sys_nbio(move || {
                    b.push(1);
                    s.fire();
                })
            });
        }
        Ok(())
    }
}

#[test]
fn lost_wakeup_from_cancelled_choose_loser_is_caught_and_baton_fixes_it() {
    let explorer = Explorer::new(schedule_count(4, 16), 0x105E);
    let broken = lost_wakeup_program(false);
    let ex = explorer.explore(&broken);

    // The starvation is schedule-independent (the repro self-sequences),
    // so every schedule must flag it — including Fifo.
    for r in &ex.runs {
        let lost = r.report.violations.iter().find_map(|v| match v {
            Violation::LostWakeup {
                span,
                res,
                side,
                reg_avail,
                final_avail,
                ..
            } => Some((span.clone(), res.clone(), *side, *reg_avail, *final_avail)),
            _ => None,
        });
        let (span, res, side, reg_avail, final_avail) = lost.unwrap_or_else(|| {
            panic!(
                "schedule {} must flag the lost wakeup: {:?}",
                r.index, r.report.violations
            )
        });
        assert_eq!(span.as_deref(), Some("starved"), "starved thread named");
        assert!(res.starts_with("Chan#"), "resource is the channel: {res}");
        assert_eq!(side, 0, "taker side");
        assert_eq!(
            (reg_avail, final_avail),
            (0, 1),
            "empty at registration, one item owed"
        );
        // The starved thread is still live at quiescence.
        assert!(!r.report.leak.is_clean(), "{:?}", r.report.leak);
    }

    // Restore the baton: clean on every schedule, everything drains.
    let fixed = lost_wakeup_program(true);
    let ex_fixed = explorer.explore(&fixed);
    assert_clean("lost-wakeup-fixed", &explorer, &ex_fixed);
    for r in &ex_fixed.runs {
        assert!(
            r.report.leak.is_clean(),
            "baton fix leaked: {:?}",
            r.report.leak
        );
    }
}

// ---------------------------------------------------------------------------
// Happens-before races on Shared cells.
// ---------------------------------------------------------------------------

/// Two spawned threads increment one [`Shared`] counter. Unsynchronized
/// (`guarded = false`) the writes are unordered by happens-before on
/// *every* schedule; under the monadic mutex the release→acquire edge
/// orders them.
fn race_program(guarded: bool) -> impl Fn(&SimRuntime) -> Result<(), String> {
    move |sim| {
        let counter: Shared<u64> = Shared::new("counter", 0);
        let m = Mutex::new();
        for i in 0..2u64 {
            let counter = counter.clone();
            let m = m.clone();
            let bump = move || {
                counter.update(|v| *v += 1);
            };
            sim.spawn(do_m! {
                sys_annotate(format!("writer-{i}"));
                if guarded { m.with_nbio(bump) } else { sys_nbio(bump) }
            });
        }
        Ok(())
    }
}

#[test]
fn unsynchronized_shared_writes_race_and_the_mutex_guard_is_clean() {
    let explorer = Explorer::new(schedule_count(4, 16), 0x7ACE);
    let ex = explorer.explore(race_program(false));
    for r in &ex.runs {
        let race = r.report.violations.iter().find_map(|v| match v {
            Violation::Race {
                cell,
                first,
                second,
            } => Some((cell.clone(), first.clone(), second.clone())),
            _ => None,
        });
        let (cell, first, second) = race.unwrap_or_else(|| {
            panic!(
                "schedule {} must flag the race: {:?}",
                r.index, r.report.violations
            )
        });
        assert_eq!(cell, "counter");
        assert!(first.2 && second.2, "both accesses are writes");
    }

    let ex_guarded = explorer.explore(race_program(true));
    assert_clean("race-guarded", &explorer, &ex_guarded);
}

// ---------------------------------------------------------------------------
// STM under exploration.
// ---------------------------------------------------------------------------

/// Three transactional incrementers plus a `retry`-based auditor that
/// parks until the counter reaches 12 — commit order and the retry
/// wakeups both flow through the checker.
fn stm_program(sim: &SimRuntime) -> Result<(), String> {
    let tv: TVar<u64> = TVar::new(0);
    for w in 0..3u64 {
        let tv = tv.clone();
        sim.spawn(do_m! {
            sys_annotate(format!("stm-{w}"));
            for_each_m(0..4u64, move |_| {
                let tv = tv.clone();
                atomically_m(move |t| {
                    let v = t.read(&tv)?;
                    t.write(&tv, v + 1);
                    Ok(())
                })
            })
        });
    }
    let audit = tv.clone();
    let total = sim
        .block_on(do_m! {
            sys_annotate("stm-auditor");
            atomically_m(move |t| {
                let v = t.read(&audit)?;
                if v < 12 {
                    return t.retry();
                }
                Ok(v)
            })
        })
        .map_err(|e| format!("auditor failed: {e:?}"))?;
    if total != 12 {
        return Err(format!("expected 12 commits, saw {total}"));
    }
    Ok(())
}

#[test]
fn stm_commits_and_retry_wakeups_pass_under_exploration() {
    let explorer = Explorer::new(schedule_count(6, 32), 0x57A7);
    let ex = explorer.explore(stm_program);
    assert_clean("stm", &explorer, &ex);
}

/// A `retry` whose read set is committed to *between* its attempt and its
/// registration on the waiter lists must still wake: the commit found no
/// waiter to wake, so the parker has to re-check the read set once it is
/// registered. One scheduler step per turn, and the writer delayed by
/// `k` yields, walks the commit across every gap of the waiter's
/// attempt → park sequence.
#[test]
fn stm_retry_registered_after_the_commit_it_waits_for_still_wakes() {
    for k in 0..8u64 {
        let sim = SimRuntime::new(
            SimClock::new(),
            SimConfig {
                slice: 1,
                ..SimConfig::default()
            },
        );
        let flag: TVar<bool> = TVar::new(false);
        let set = flag.clone();
        let waiter = atomically_m(move |t| if t.read(&flag)? { Ok(()) } else { t.retry() });
        sim.spawn(do_m! {
            for_each_m(0..k, |_| sys_yield());
            atomically_m(move |t| {
                t.write(&set, true);
                Ok(())
            })
        });
        assert!(
            sim.block_on(waiter).is_ok(),
            "retry slept through the commit with the writer {k} yields behind"
        );
    }
}

// ---------------------------------------------------------------------------
// The service framework, KV server and cluster router suites.
// ---------------------------------------------------------------------------

use eveth::simos::net::LinkParams;
use eveth::simos::sockets::SocketFabric;

struct Echo;

impl Service for Echo {
    type Session = ();

    fn open(&self, _conn: &Arc<dyn Conn>) {}

    fn on_chunk(&self, conn: Arc<dyn Conn>, _session: (), chunk: Bytes) -> ThreadM<Step<()>> {
        send_all(&conn, chunk).map(|sent| match sent {
            Ok(()) => Step::Continue(()),
            Err(_) => Step::Close,
        })
    }
}

/// Connect, echo one chunk, shut down, wait for the drain barrier.
fn echo_program(sim: &SimRuntime) -> Result<(), String> {
    let fabric = SocketFabric::new(sim.clock(), LinkParams::ethernet_100mbps());
    let server = Server::new(
        fabric.stack(HostId(1)),
        Echo,
        ServerConfig {
            port: 7,
            ..Default::default()
        },
    );
    sim.spawn(server.run());
    let stack = fabric.stack(HostId(2));
    let srv = Arc::clone(&server);
    let echoed = sim
        .block_on(do_m! {
            sys_annotate("echo-client");
            let conn <- stack.connect(Endpoint::new(HostId(1), 7));
            let conn = conn.unwrap();
            let sent <- send_all(&conn, Bytes::from_static(b"ping"));
            let _ = sent.unwrap();
            let back <- recv_exact(&conn, 4);
            sys_nbio(move || srv.shutdown());
            let eof <- conn.recv(16);
            let _ = assert!(eof.unwrap().is_empty(), "session closed by shutdown");
            sync(server.drained_signal().wait_evt());
            ThreadM::pure(back.unwrap())
        })
        .map_err(|e| format!("echo client failed: {e:?}"))?;
    if &echoed[..] != b"ping" {
        return Err(format!("echo mismatch: {echoed:?}"));
    }
    Ok(())
}

#[test]
fn echo_service_drains_clean_under_exploration() {
    let explorer = Explorer::new(schedule_count(4, 16), 0xEC40);
    let ex = explorer.explore(echo_program);
    assert_clean("echo-service", &explorer, &ex);
}

/// The KV server under pipelined load from two client threads, then a
/// graceful shutdown once both report done.
fn kv_program(sim: &SimRuntime) -> Result<(), String> {
    let fabric = SocketFabric::new(sim.clock(), LinkParams::ethernet_100mbps());
    let server = KvServer::new(
        fabric.stack(HostId(1)),
        KvConfig {
            port: 11211,
            store: StoreConfig {
                shards: 2,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    sim.spawn(server.run());
    let stats = Arc::new(KvLoadStats::default());
    let cfg = Arc::new(KvLoadConfig {
        server: Endpoint::new(HostId(1), 11211),
        batches_per_conn: 2,
        pipeline_depth: 2,
        keys: 8,
        zipf_s: 0.9,
        set_percent: 50,
        value_bytes: 16,
        ttl_secs: 0,
        seed: 7,
    });
    let zipf = Arc::new(Zipf::new(cfg.keys, cfg.zipf_s));
    let done: Chan<()> = Chan::new();
    for id in 0..2u64 {
        let d = done.clone();
        let body = client_thread(
            fabric.stack(HostId(2 + id as u32)) as Arc<dyn NetStack>,
            Arc::clone(&cfg),
            Arc::clone(&zipf),
            Arc::clone(&stats),
            id,
        );
        sim.spawn(do_m! {
            body;
            d.write(())
        });
    }
    let srv = Arc::clone(&server);
    sim.block_on(do_m! {
        sys_annotate("kv-coordinator");
        done.read();
        done.read();
        sys_nbio(move || srv.shutdown());
        sync(server.drained_signal().wait_evt())
    })
    .map_err(|e| format!("kv coordinator failed: {e:?}"))?;
    if stats.responses() == 0 {
        return Err("kv load produced no responses".into());
    }
    Ok(())
}

#[test]
fn kv_server_load_passes_under_exploration() {
    let explorer = Explorer::new(schedule_count(3, 12), 0x4B4B);
    let ex = explorer.explore(kv_program);
    assert_clean("kv-server", &explorer, &ex);
}

/// Two KV backends behind the PR 9 router; a pipelined
/// `set`/`get`/`quit` script through the router, then router drain.
fn cluster_program(sim: &SimRuntime) -> Result<(), String> {
    use eveth::cluster::{Router, RouterConfig};

    let fabric = SocketFabric::new(sim.clock(), LinkParams::ethernet_100mbps());
    let mut backends = Vec::new();
    for h in 1..=2u32 {
        let backend = KvServer::new(
            fabric.stack(HostId(h)),
            KvConfig {
                port: 11211,
                ..Default::default()
            },
        );
        sim.spawn(backend.run());
        backends.push(backend);
    }
    let router = Router::new(
        fabric.stack(HostId(10)),
        RouterConfig {
            port: 11311,
            backends: (1..=2).map(|h| Endpoint::new(HostId(h), 11211)).collect(),
            ..Default::default()
        },
    );
    sim.spawn(router.run());

    let stack = fabric.stack(HostId(20));
    let r2 = Arc::clone(&router);
    let reply = sim
        .block_on(do_m! {
            sys_annotate("cluster-client");
            let conn <- stack.connect(Endpoint::new(HostId(10), 11311));
            let conn = conn.unwrap();
            let sent <- send_all(&conn, Bytes::from_static(b"set k0 0 0 2\r\nhi\r\n"));
            let _ = sent.unwrap();
            let stored <- recv_exact(&conn, 8);
            let sent <- send_all(&conn, Bytes::from_static(b"get k0\r\n"));
            let _ = sent.unwrap();
            let value <- recv_exact(&conn, 23);
            let sent <- send_all(&conn, Bytes::from_static(b"quit\r\n"));
            let _ = sent.unwrap();
            let tail <- recv_to_end(&conn, 4096);
            // Shut everything down so the sim can quiesce: the router
            // drains its sessions and each backend's shutdown broadcast
            // also stops its TTL janitor loop.
            sys_nbio(move || {
                r2.shutdown();
                for b in &backends {
                    b.shutdown();
                }
            });
            sync(router.drained_signal().wait_evt());
            let mut reply = stored.unwrap().to_vec();
            let _ = reply.extend_from_slice(&value.unwrap());
            let _ = reply.extend_from_slice(&tail.unwrap());
            ThreadM::pure(reply)
        })
        .map_err(|e| format!("cluster client failed: {e:?}"))?;
    let text = String::from_utf8_lossy(&reply);
    if !(text.contains("STORED") && text.contains("VALUE k0") && text.contains("hi")) {
        return Err(format!("unexpected routed replies: {text:?}"));
    }
    Ok(())
}

#[test]
fn cluster_router_script_passes_under_exploration() {
    let explorer = Explorer::new(schedule_count(3, 12), 0xC125);
    let ex = explorer.explore(cluster_program);
    assert_clean("cluster-router", &explorer, &ex);
}
