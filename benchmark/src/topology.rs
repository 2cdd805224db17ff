//! The system under test: `TcpHost`s on a lossless `LoopbackNet`, the
//! real `KvServer` / `Router` on top, and the set-up and tear-down every
//! workload shares. Generic over `RuntimeCtx`, so the same code runs on
//! the wall-clock `Runtime` and on `SimRuntime` for the prediction column.

use std::sync::Arc;

use eveth_cluster::{Router, RouterConfig};
use eveth_core::engine::{spawn_thread, RuntimeCtx};
use eveth_core::net::{Endpoint, HostId, NetStack};
use eveth_core::syscall::{sys_nbio, sys_sleep};
use eveth_core::time::{MILLIS, SECS};
use eveth_core::{for_each_m, loop_m, Loop, ThreadM};
use eveth_kv::server::{KvConfig, KvServer};
use eveth_kv::store::StoreConfig;
use eveth_tcp::{LoopbackNet, TcpConfig, TcpHost};

use crate::alloc;
use crate::loadgen::{open_conn, round_trip, ClientConn};
use crate::trace::{Ledger, TracedStack};
use crate::workload::{preload_batches, Keyspace, Mode, Spec, Topology};

const CLIENT_HOST: HostId = HostId(1);
const FRONT_HOST: HostId = HostId(2);
const BACKEND_HOSTS: [HostId; 2] = [HostId(3), HostId(4)];
/// Where `conn_churn`'s resident pool dials from. `TcpHost` hands out
/// ephemeral ports round-robin over 25 000 without skipping ports still
/// in use, and a churn run opens more connections than that, so
/// long-lived connections must not share a host with the churning ones.
const RESIDENT_HOST: HostId = HostId(5);
const KV_PORT: u16 = 11211;
const ROUTER_PORT: u16 = 11311;
/// Commands per round trip while preloading the key space.
const PRELOAD_DEPTH: usize = 64;

/// A built topology: hosts up, servers spawned, nothing loaded yet.
pub struct Instance {
    pub net: Arc<LoopbackNet>,
    pub hosts: Vec<Arc<TcpHost>>,
    pub client_stack: Arc<dyn NetStack>,
    /// The stack set-up's connection pool dials from.
    pub pool_stack: Arc<dyn NetStack>,
    /// Where clients connect: the `KvServer`, or the `Router`.
    pub front: Endpoint,
    /// Every `KvServer` (one; or the two backends).
    pub kv: Vec<Arc<KvServer>>,
    pub router: Option<Arc<Router>>,
    pub ledger: Option<Arc<Ledger>>,
}

fn host(ctx: &Arc<dyn RuntimeCtx>, net: &Arc<LoopbackNet>, id: HostId) -> Arc<TcpHost> {
    let h = TcpHost::start(
        Arc::clone(ctx),
        id,
        Arc::clone(net) as Arc<dyn eveth_tcp::SegmentTransport>,
        TcpConfig::default(),
    );
    net.register(&h);
    h
}

/// Starts the hosts and spawns the servers of `spec` on `ctx`. With a
/// ledger, every serving host's stack is wrapped in a [`TracedStack`].
pub fn build(ctx: &Arc<dyn RuntimeCtx>, spec: &Spec, ledger: Option<Arc<Ledger>>) -> Instance {
    let net = LoopbackNet::new();
    let mut hosts = vec![host(ctx, &net, CLIENT_HOST)];
    let serving = |h: &Arc<TcpHost>, role: &'static str| -> Arc<dyn NetStack> {
        let stack = Arc::clone(h) as Arc<dyn NetStack>;
        match &ledger {
            Some(l) => TracedStack::wrap(stack, l, role),
            None => stack,
        }
    };
    let kv_config = |shards: usize| KvConfig {
        port: KV_PORT,
        store: StoreConfig {
            shards,
            ..StoreConfig::default()
        },
        idle_timeout: spec.idle_timeout_s * SECS,
        ..KvConfig::default()
    };
    let mut kv = Vec::new();
    let mut router = None;
    let front = match spec.topology {
        Topology::Single { shards } => {
            let h = host(ctx, &net, FRONT_HOST);
            let server = KvServer::new(serving(&h, "service"), kv_config(shards));
            spawn_thread(ctx, server.run());
            kv.push(server);
            hosts.push(h);
            Endpoint::new(FRONT_HOST, KV_PORT)
        }
        Topology::Cluster => {
            for id in BACKEND_HOSTS {
                let h = host(ctx, &net, id);
                let server = KvServer::new(
                    serving(&h, "backend"),
                    kv_config(StoreConfig::default().shards),
                );
                spawn_thread(ctx, server.run());
                kv.push(server);
                hosts.push(h);
            }
            let h = host(ctx, &net, FRONT_HOST);
            let r = Router::new(
                serving(&h, "service"),
                RouterConfig {
                    port: ROUTER_PORT,
                    backends: BACKEND_HOSTS
                        .iter()
                        .map(|&id| Endpoint::new(id, KV_PORT))
                        .collect(),
                    replication: 2,
                    ..RouterConfig::default()
                },
            );
            spawn_thread(ctx, r.run());
            router = Some(r);
            hosts.push(h);
            Endpoint::new(FRONT_HOST, ROUTER_PORT)
        }
    };
    let client_stack = Arc::clone(&hosts[0]) as Arc<dyn NetStack>;
    let pool_stack = match spec.mode {
        Mode::Persistent => Arc::clone(&client_stack),
        Mode::Churn => {
            let h = host(ctx, &net, RESIDENT_HOST);
            hosts.push(Arc::clone(&h));
            h as Arc<dyn NetStack>
        }
    };
    Instance {
        net,
        client_stack,
        pool_stack,
        hosts,
        front,
        kv,
        router,
        ledger,
    }
}

/// What set-up reports back.
pub struct Loaded {
    /// The connections set-up opened: the generators' own on persistent
    /// workloads, the idle resident pool on `conn_churn`.
    pub pool: Vec<ClientConn>,
    /// Commands sent while preloading (all verified, or set-up fails).
    pub preloaded: u64,
    /// Live heap bytes per connection of the probe pool.
    pub bytes_per_conn: f64,
}

impl Instance {
    /// Sessions the front server currently runs.
    fn front_sessions(&self) -> u64 {
        match &self.router {
            Some(r) => r.server().active(),
            None => self.kv[0].server().active(),
        }
    }

    /// The monadic set-up thread: preload every key (verified), then
    /// open the connection pool and measure what each connection holds on
    /// the heap once the server has accepted it. The pool is one
    /// connection per generator thread, or the resident 1000 on
    /// `conn_churn`.
    pub fn load(
        self: &Arc<Self>,
        spec: &Spec,
        ks: &Arc<Keyspace>,
    ) -> ThreadM<Result<Loaded, String>> {
        let this = Arc::clone(self);
        let batches = preload_batches(ks, PRELOAD_DEPTH);
        let preloaded = batches.iter().map(|b| b.ops as u64).sum();
        let pool_size = match spec.mode {
            Mode::Churn => spec.resident,
            Mode::Persistent => spec.clients,
        };
        open_conn(&self.client_stack, self.front, None).bind(move |opened| {
            let loader = match opened {
                Ok(cc) => cc.conn,
                Err(why) => return ThreadM::pure(Err(why)),
            };
            let send_on = Arc::clone(&loader);
            let sets = loop_m(batches.into_iter(), move |mut rest| match rest.next() {
                None => ThreadM::pure(Loop::Break(Ok(()))),
                Some(batch) => round_trip(&send_on, batch).map(move |r| match r {
                    Ok(()) => Loop::Continue(rest),
                    Err(why) => Loop::Break(Err(format!("preload: {why}"))),
                }),
            });
            sets.bind(move |r| {
                loader.close().bind(move |()| match r {
                    Err(why) => ThreadM::pure(Err(why)),
                    Ok(()) => this.open_pool(pool_size).map(move |pool| {
                        pool.map(|(pool, bytes_per_conn)| Loaded {
                            pool,
                            preloaded,
                            bytes_per_conn,
                        })
                    }),
                })
            })
        })
    }

    /// Sleeps in 1 ms steps until the front server's session count
    /// satisfies `done` (or two seconds pass: the caller's numbers then
    /// show it).
    fn await_sessions(
        self: &Arc<Self>,
        done: impl Fn(u64) -> bool + Send + Sync + 'static,
    ) -> ThreadM<()> {
        let this = Arc::clone(self);
        loop_m(0u32, move |polls| {
            if done(this.front_sessions()) || polls > 2_000 {
                ThreadM::pure(Loop::Break(()))
            } else {
                sys_sleep(MILLIS).map(move |()| Loop::Continue(polls + 1))
            }
        })
    }

    /// Opens `n` connections one after another and waits until the front
    /// server runs a session for each; returns them with the live heap
    /// bytes each one added. Starts from zero sessions (the preload
    /// connection's must have ended) so the count is exact.
    fn open_pool(self: &Arc<Self>, n: usize) -> ThreadM<Result<(Vec<ClientConn>, f64), String>> {
        let this = Arc::clone(self);
        self.await_sessions(|active| active == 0)
            .bind(|()| sys_nbio(alloc::live_bytes))
            .bind(move |before| {
                let dial = Arc::clone(&this);
                loop_m(Vec::with_capacity(n), move |mut pool: Vec<ClientConn>| {
                    if pool.len() == n {
                        return ThreadM::pure(Loop::Break(Ok(pool)));
                    }
                    open_conn(&dial.pool_stack, dial.front, dial.ledger.clone()).map(move |r| {
                        match r {
                            Ok(cc) => {
                                pool.push(cc);
                                Loop::Continue(pool)
                            }
                            Err(why) => Loop::Break(Err(why)),
                        }
                    })
                })
                .bind(move |pool| {
                    let pool = match pool {
                        Ok(p) => p,
                        Err(why) => return ThreadM::pure(Err(why)),
                    };
                    // Accepts trail the client's handshake; wait them out.
                    this.await_sessions(move |active| active >= n as u64)
                        .bind(move |()| {
                            sys_nbio(move || {
                                let held = alloc::live_bytes().saturating_sub(before);
                                Ok((pool, held as f64 / n.max(1) as f64))
                            })
                        })
                })
            })
    }

    /// Graceful stop: close the resident pool, shut the router then the
    /// KV servers and wait for each to drain, then stop the TCP hosts.
    pub fn shutdown(self: &Arc<Self>, resident: Vec<ClientConn>) -> ThreadM<()> {
        let this = Arc::clone(self);
        close_all(resident).bind(move |()| {
            let drain_router = match &this.router {
                Some(r) => {
                    r.shutdown();
                    r.drained_signal().wait()
                }
                None => ThreadM::pure(()),
            };
            drain_router.bind(move |()| {
                let servers = this.kv.clone();
                for_each_m(servers, |s| {
                    s.shutdown();
                    s.drained_signal().wait()
                })
                .bind(move |()| {
                    sys_nbio(move || {
                        for h in &this.hosts {
                            h.shutdown();
                        }
                    })
                })
            })
        })
    }
}

fn close_all(conns: Vec<ClientConn>) -> ThreadM<()> {
    for_each_m(conns, |cc| cc.conn.close())
}
