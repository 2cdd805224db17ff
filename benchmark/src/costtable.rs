//! The cost table: each layer's public functions timed in isolation, on
//! the workload's own generated inputs.
//!
//! Monadic entries run on a 1-worker `Runtime`, in a loop whose frame
//! (`loop_m` + one `sys_nbio`) is measured separately as
//! `engine.loop_frame_ns` and subtracted from single-thread entries.
//! Two-thread round trips (`*_pingpong_*`, `*_handoff_*`) are raw. Pure
//! functions are timed directly with `Instant`.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{BufferPool, Bytes};
use eveth_cluster::HashRing;
use eveth_core::event::{always, choose, sync, timeout_evt};
use eveth_core::io::pipe;
use eveth_core::net::{recv_exact, send_all, Endpoint, HostId, NetStack};
use eveth_core::runtime::Runtime;
use eveth_core::sync::{Chan, Mutex};
use eveth_core::syscall::{sys_fork, sys_nbio, sys_sleep, sys_time, sys_yield};
use eveth_core::time::{Nanos, MILLIS, SECS};
use eveth_core::{for_each_m, loop_m, Loop, ThreadM};
use eveth_http::parser::RequestParser;
use eveth_kv::client::ReplyFramer;
use eveth_kv::protocol::CommandParser;
use eveth_kv::store::{Backend, Entry, ShardedStore, StoreConfig};
use eveth_stm::{atomically_m, TVar};
use eveth_tcp::{LoopbackNet, TcpConfig, TcpHost};

use crate::workload::{draw_batch, flatten, Keyspace, Rng, Spec, Topology};

/// Time checks are this many iterations apart.
const CHECK_EVERY: u64 = 64;
/// Populating the STM backend is quadratic in keys per shard (every set
/// clones the shard's map), so its population is capped per shard.
const STM_KEYS_PER_SHARD: usize = 1_250;

pub type Row = (&'static str, f64, &'static str);

/// Runs `body` in one monadic thread until `budget` has passed; yields
/// nanoseconds per iteration, frame included.
fn timed_loop(
    budget: Nanos,
    body: impl Fn() -> ThreadM<()> + Send + Sync + 'static,
) -> ThreadM<f64> {
    sys_time().bind(move |t0| {
        loop_m(0u64, move |iters| {
            // The nbio keeps every iteration a real trace node, so a body
            // that completes without one cannot recurse on the stack.
            sys_nbio(|| ()).then(body()).bind(move |()| {
                let iters = iters + 1;
                if iters % CHECK_EVERY != 0 {
                    return ThreadM::pure(Loop::Continue(iters));
                }
                sys_time().map(move |now| {
                    if now - t0 >= budget {
                        Loop::Break((now - t0) as f64 / iters as f64)
                    } else {
                        Loop::Continue(iters)
                    }
                })
            })
        })
    })
}

/// Calls `f` (which reports how many units it did) until `budget` has
/// passed; yields nanoseconds per unit.
fn time_direct(budget: Nanos, mut f: impl FnMut() -> u64) -> f64 {
    let budget = Duration::from_nanos(budget);
    let start = Instant::now();
    let mut units = 0u64;
    loop {
        units += f();
        let elapsed = start.elapsed();
        if elapsed >= budget {
            return elapsed.as_nanos() as f64 / units.max(1) as f64;
        }
    }
}

fn chain_nbio(n: usize) -> ThreadM<()> {
    (0..n).fold(ThreadM::pure(()), |m, _| m.then(sys_nbio(|| ())))
}

/// A byte bounced between two threads over a pair of channels. `wait`
/// is how the timed side waits for the echo; `0` stops the echo thread.
fn chan_pingpong(
    budget: Nanos,
    wait: impl Fn(&Chan<u8>) -> ThreadM<u8> + Send + Sync + 'static,
) -> ThreadM<f64> {
    let (there, back): (Chan<u8>, Chan<u8>) = (Chan::new(), Chan::new());
    let (echo_in, echo_out) = (there.clone(), back.clone());
    let echo = loop_m((), move |()| {
        let out = echo_out.clone();
        echo_in.read().bind(move |b| {
            if b == 0 {
                ThreadM::pure(Loop::Break(()))
            } else {
                out.write(b).map(|()| Loop::Continue(()))
            }
        })
    });
    let stop = there.clone();
    sys_fork(echo)
        .then(timed_loop(budget, move || {
            there.write(1).then(wait(&back)).void()
        }))
        .bind(move |ns| stop.write(0).map(move |()| ns))
}

fn pipe_pingpong(budget: Nanos) -> ThreadM<f64> {
    let (there_w, there_r) = pipe(64);
    let (back_w, back_r) = pipe(64);
    let echo = loop_m((), move |()| {
        let back_w = back_w.clone();
        there_r.read_m(1).bind(move |b| {
            if b.is_empty() || b[0] == 0 {
                ThreadM::pure(Loop::Break(()))
            } else {
                back_w.write_all_m(b).map(|_| Loop::Continue(()))
            }
        })
    });
    let stop = there_w.clone();
    sys_fork(echo)
        .then(timed_loop(budget, move || {
            there_w
                .write_all_m(Bytes::from_static(&[1]))
                .then(back_r.read_m(1))
                .void()
        }))
        .bind(move |ns| stop.write_all_m(Bytes::from_static(&[0])).map(move |_| ns))
}

/// Two threads alternating on one mutex. Each holds it across a yield
/// (so the other arrives and parks) and yields again after unlocking (so
/// the woken waiter, not the releaser, takes it next): every acquisition
/// is a park, a handoff and a wake, and one iteration of the timed side
/// spans exactly two of them.
fn mutex_handoff(budget: Nanos) -> ThreadM<f64> {
    fn hold(m: &Mutex) -> ThreadM<()> {
        let release = m.clone();
        m.lock()
            .then(sys_yield())
            .bind(move |()| release.unlock())
            .then(sys_yield())
    }
    let m = Mutex::new();
    let stop = Arc::new(AtomicBool::new(false));
    let done: Chan<()> = Chan::new();
    let (partner_m, partner_stop, partner_done) = (m.clone(), Arc::clone(&stop), done.clone());
    let partner = loop_m((), move |()| {
        if partner_stop.load(Ordering::Relaxed) {
            ThreadM::pure(Loop::Break(()))
        } else {
            hold(&partner_m).map(|()| Loop::Continue(()))
        }
    })
    .bind(move |()| partner_done.write(()));
    sys_fork(partner)
        .then(timed_loop(budget, move || hold(&m)))
        .bind(move |ns| {
            stop.store(true, Ordering::Relaxed);
            done.read().map(move |()| ns / 2.0)
        })
}

fn sleep_overshoot_us(budget: Nanos) -> ThreadM<f64> {
    let n = (budget / (2 * MILLIS)).clamp(5, 100);
    loop_m((0u64, 0u64), move |(done, over)| {
        if done == n {
            return ThreadM::pure(Loop::Break(over as f64 / n as f64 / 1e3));
        }
        sys_time().bind(move |t0| {
            sys_sleep(MILLIS)
                .then(sys_time())
                .map(move |t1| Loop::Continue((done + 1, over + (t1 - t0).saturating_sub(MILLIS))))
        })
    })
}

/// A store with `keys` ranks of the workload's population.
fn populated_store(
    cfg: StoreConfig,
    ks: &Arc<Keyspace>,
    keys: usize,
) -> ThreadM<Arc<ShardedStore>> {
    let store = ShardedStore::new(cfg);
    let fill = Arc::clone(&store);
    let ks = Arc::clone(ks);
    for_each_m(0..keys, move |rank| {
        fill.set(ks.key(rank), entry(&ks, rank))
    })
    .map(move |()| store)
}

fn entry(ks: &Keyspace, rank: usize) -> Entry {
    Entry {
        value: ks.value(rank),
        flags: (rank & 0xffff) as u32,
        expires_at: None,
        version: 0,
    }
}

/// `get_ns` and `set_ns` of one backend over the zipf rank sequence
/// `ranks` (all below the populated key count).
fn store_costs(
    budget: Nanos,
    cfg: StoreConfig,
    ks: &Arc<Keyspace>,
    keys: usize,
    ranks: Arc<Vec<usize>>,
) -> ThreadM<(f64, f64)> {
    let ks = Arc::clone(ks);
    populated_store(cfg, &ks, keys).bind(move |store| {
        let next = Arc::new(AtomicUsize::new(0));
        let pick = move |ranks: &Vec<usize>| {
            ranks[next.fetch_add(1, Ordering::Relaxed) % ranks.len()] % keys
        };
        let (get_store, get_ks, get_ranks, get_pick) = (
            Arc::clone(&store),
            Arc::clone(&ks),
            Arc::clone(&ranks),
            pick.clone(),
        );
        timed_loop(budget, move || {
            get_store
                .get(get_ks.key(get_pick(&get_ranks)), 0)
                .map(|found| {
                    black_box(found);
                })
        })
        .bind(move |get_ns| {
            timed_loop(budget, move || {
                let rank = pick(&ranks);
                store.set(ks.key(rank), entry(&ks, rank))
            })
            .map(move |set_ns| (get_ns, set_ns))
        })
    })
}

/// The TCP entries: a host pair on the lossless loopback.
fn tcp_costs(rt: &Runtime, budget: Nanos) -> (f64, f64, f64) {
    let net = LoopbackNet::new();
    let a = TcpHost::start(rt.ctx(), HostId(1), net.clone(), TcpConfig::default());
    let b = TcpHost::start(rt.ctx(), HostId(2), net.clone(), TcpConfig::default());
    net.register(&a);
    net.register(&b);
    let remote = |port| Endpoint::new(HostId(2), port);

    // Port 7: echo 64-byte messages until end of stream.
    let echo_host = Arc::clone(&b);
    rt.spawn(echo_host.listen(7).bind(|l| {
        let l = l.expect("listen 7");
        l.accept().bind(move |c| {
            let c = c.expect("accept echo");
            l.shutdown();
            loop_m((), move |()| {
                let out = Arc::clone(&c);
                recv_exact(&c, 64).bind(move |r| match r {
                    Ok(msg) => send_all(&out, msg).map(|_| Loop::Continue(())),
                    Err(_) => out.close().map(|()| Loop::Break(())),
                })
            })
        })
    }));
    let dial = Arc::clone(&a);
    let pingpong_us = rt.block_on(dial.connect(remote(7)).bind(move |c| {
        let c = c.expect("connect echo");
        let closer = Arc::clone(&c);
        let msg = Bytes::from(vec![b'x'; 64]);
        timed_loop(budget, move || {
            let back = Arc::clone(&c);
            send_all(&c, msg.clone())
                .bind(move |_| recv_exact(&back, 64))
                .void()
        })
        .bind(move |ns| closer.close().map(move |()| ns / 1e3))
    }));

    // Port 9: accept, wait for the peer's close, close.
    let (stop_accepting, stopped) = (Chan::<()>::new(), Chan::<()>::new());
    let sink_host = Arc::clone(&b);
    let (stop_rx, stopped_tx) = (stop_accepting.clone(), stopped.clone());
    rt.spawn(sink_host.listen(9).bind(move |l| {
        let l = l.expect("listen 9");
        let closer = Arc::clone(&l);
        sys_fork(loop_m((), move |()| {
            l.accept().bind(|c| match c {
                Err(_) => ThreadM::pure(Loop::Break(())),
                Ok(c) => sys_fork(c.recv(64).bind(move |_| c.close())).map(|()| Loop::Continue(())),
            })
        }))
        .then(stop_rx.read())
        .bind(move |()| {
            closer.shutdown();
            stopped_tx.write(())
        })
    }));
    let dial = Arc::clone(&a);
    let connect_close_us = rt.block_on(
        timed_loop(budget, move || {
            dial.connect(remote(9))
                .bind(|c| c.expect("connect sink").close())
        })
        .bind(move |ns| {
            stop_accepting
                .write(())
                .then(stopped.read())
                .map(move |()| ns / 1e3)
        }),
    );

    // Port 11: count bytes until end of stream.
    let total: Chan<u64> = Chan::new();
    let report = total.clone();
    let bulk_host = Arc::clone(&b);
    rt.spawn(bulk_host.listen(11).bind(move |l| {
        let l = l.expect("listen 11");
        l.accept().bind(move |c| {
            let c = c.expect("accept bulk");
            l.shutdown();
            loop_m(0u64, move |got| {
                let report = report.clone();
                let done = Arc::clone(&c);
                c.recv(64 * 1024).bind(move |r| match r {
                    Ok(chunk) if !chunk.is_empty() => {
                        ThreadM::pure(Loop::Continue(got + chunk.len() as u64))
                    }
                    _ => done
                        .close()
                        .then(report.write(got))
                        .map(|()| Loop::Break(())),
                })
            })
        })
    }));
    let dial = Arc::clone(&a);
    let bulk_mb_s = rt.block_on(dial.connect(remote(11)).bind(move |c| {
        let c = c.expect("connect bulk");
        let chunk = Bytes::from(vec![b'b'; 64 * 1024]);
        sys_time().bind(move |t0| {
            let sender = Arc::clone(&c);
            loop_m((), move |()| {
                send_all(&sender, chunk.clone())
                    .then(sys_time())
                    .map(move |now| {
                        if now - t0 >= budget {
                            Loop::Break(())
                        } else {
                            Loop::Continue(())
                        }
                    })
            })
            .then(c.close())
            .then(total.read())
            .bind(move |bytes| {
                sys_time().map(move |t1| bytes as f64 / 1e6 / ((t1 - t0) as f64 / SECS as f64))
            })
        })
    }));
    a.shutdown();
    b.shutdown();
    (pingpong_us, connect_close_us, bulk_mb_s)
}

/// Timed measurements `measure` makes (some rows need two).
const MEASUREMENTS: u64 = 25;

/// Measures every entry, spending about `total` nanoseconds over all.
pub fn measure(spec: &Spec, ks: &Arc<Keyspace>, seed: u64, total: Nanos) -> Vec<Row> {
    let budget = (total / MEASUREMENTS).max(MILLIS);
    let rt = Runtime::builder().workers(1).build();
    let mut rows: Vec<Row> = Vec::new();

    let frame = rt.block_on(timed_loop(budget, || ThreadM::pure(())));
    let net_of_frame = |ns: f64| (ns - frame).max(0.0);
    rows.push(("engine.loop_frame_ns", frame, "ns"));
    let chained = rt.block_on(timed_loop(budget, || chain_nbio(16)));
    rows.push(("engine.step_ns", net_of_frame(chained) / 16.0, "ns"));
    let fork = rt.block_on(timed_loop(budget, || sys_fork(ThreadM::pure(()))));
    rows.push(("engine.fork_ns", net_of_frame(fork), "ns"));
    let yielded = rt.block_on(timed_loop(budget, sys_yield));
    rows.push(("sched.yield_ns", net_of_frame(yielded), "ns"));
    rows.push((
        "sync.mutex_handoff_ns",
        rt.block_on(mutex_handoff(budget)),
        "ns",
    ));
    let plain = rt.block_on(chan_pingpong(budget, |rx| rx.read()));
    rows.push(("sync.chan_pingpong_ns", plain, "ns"));
    rows.push((
        "reactor.pipe_pingpong_ns",
        rt.block_on(pipe_pingpong(budget)),
        "ns",
    ));
    let idle: Chan<u8> = Chan::new();
    let choose2 = rt.block_on(timed_loop(budget, move || {
        sync(choose(vec![always(1u8), idle.read_evt()])).void()
    }));
    rows.push(("event.choose2_ns", net_of_frame(choose2), "ns"));
    let with_deadline = rt.block_on(chan_pingpong(budget, |rx| {
        sync(choose(vec![
            rx.read_evt(),
            timeout_evt(60 * SECS).wrap(|()| 0u8),
        ]))
    }));
    rows.push((
        "timer.arm_cancel_ns",
        (with_deadline - plain).max(0.0),
        "ns",
    ));
    rows.push((
        "timer.sleep_overshoot_us",
        rt.block_on(sleep_overshoot_us(budget)),
        "us",
    ));

    let acquire = time_direct(budget, || {
        let mut buf = BufferPool::global().acquire();
        buf.extend_from_slice(&[0u8; 64]);
        black_box(buf.freeze());
        1
    });
    rows.push(("bytes.acquire_freeze_ns", acquire, "ns"));

    let cell = TVar::new(0u64);
    let txn = rt.block_on(timed_loop(budget, move || {
        let cell = cell.clone();
        atomically_m(move |t| {
            let v = t.read(&cell)?;
            t.write(&cell, v + 1);
            Ok(())
        })
    }));
    rows.push(("stm.txn_ns", net_of_frame(txn), "ns"));

    // The workload's own traffic, as the parser and framer see it.
    let mut rng = Rng::new(seed, 0);
    let batches: Vec<_> = (0..64)
        .map(|_| draw_batch(ks, &mut rng, spec.depth, spec.set_percent))
        .collect();
    let requests: Vec<(Bytes, u64)> = batches
        .iter()
        .map(|b| (Bytes::from(flatten(&b.request)), b.ops as u64))
        .collect();
    let replies: Vec<(Bytes, u64)> = batches
        .iter()
        .map(|b| (Bytes::from(flatten(&b.expected)), b.ops as u64))
        .collect();
    let mut parser = CommandParser::new();
    let mut turn = 0usize;
    let parse = time_direct(budget, || {
        let (wire, cmds) = &requests[turn % requests.len()];
        turn += 1;
        let mut next = parser.feed_bytes(wire.clone()).expect("own request parses");
        while let Some(cmd) = next {
            black_box(cmd);
            next = parser.try_next().expect("own request parses");
        }
        *cmds
    });
    rows.push(("kv.protocol.parse_ns_per_cmd", parse, "ns"));
    let mut framer = ReplyFramer::new();
    let mut turn = 0usize;
    let frame_reply = time_direct(budget, || {
        let (wire, cmds) = &replies[turn % replies.len()];
        turn += 1;
        framer.feed(wire.clone()).expect("own reply frames");
        while let Some(framed) = framer.pop() {
            black_box(framed);
        }
        *cmds
    });
    rows.push(("kv.client.frame_ns_per_reply", frame_reply, "ns"));

    let shards = match spec.topology {
        Topology::Single { shards } => shards,
        Topology::Cluster => StoreConfig::default().shards,
    };
    let ranks: Arc<Vec<usize>> = Arc::new((0..4096).map(|_| ks.sample_rank(&mut rng)).collect());
    for (backend, get_name, set_name, keys) in [
        (
            Backend::Mutex,
            "kv.store.get_ns",
            "kv.store.set_ns",
            ks.len(),
        ),
        (
            Backend::Stm,
            "kv.store.get_ns_stm",
            "kv.store.set_ns_stm",
            ks.len().min(STM_KEYS_PER_SHARD * shards),
        ),
    ] {
        let cfg = StoreConfig {
            shards,
            backend,
            ..StoreConfig::default()
        };
        let (get_ns, set_ns) = rt.block_on(store_costs(budget, cfg, ks, keys, Arc::clone(&ranks)));
        rows.push((get_name, net_of_frame(get_ns), "ns"));
        rows.push((set_name, net_of_frame(set_ns), "ns"));
    }

    let (pingpong_us, connect_close_us, bulk_mb_s) = tcp_costs(&rt, budget);
    rows.push(("tcp.pingpong_us", pingpong_us, "us"));
    rows.push(("tcp.connect_close_us", connect_close_us, "us"));
    rows.push(("tcp.bulk_mb_s", bulk_mb_s, "MB/s"));

    let ring = HashRing::new(
        vec![
            Endpoint::new(HostId(3), 11211),
            Endpoint::new(HostId(4), 11211),
        ],
        64,
    );
    let keys: Vec<Bytes> = ranks.iter().map(|&r| ks.key(r % ks.len())).collect();
    let mut turn = 0usize;
    let lookup = time_direct(budget, || {
        black_box(ring.replicas(&keys[turn % keys.len()], 2));
        turn += 1;
        1
    });
    rows.push(("cluster.ring.lookup_ns", lookup, "ns"));

    let request = b"GET /index.html HTTP/1.1\r\nHost: bench.example\r\nUser-Agent: eveth-benchmark\r\nAccept: */*\r\nConnection: keep-alive\r\n\r\n";
    let http = time_direct(budget, || {
        let mut p = RequestParser::new();
        black_box(p.feed(request).expect("request parses"));
        1
    });
    rows.push(("http.parse_ns_per_req", http, "ns"));

    rt.shutdown();
    rows
}
