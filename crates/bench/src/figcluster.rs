//! The cluster sweep behind both the `fig_cluster` bench target and the
//! `fig_cluster` binary (`cargo run --release -p eveth-bench --bin
//! fig_cluster`): one shared implementation so CI and ad-hoc runs
//! regenerate the exact same `BENCH_cluster.json`.
//!
//! Three scenario families over the multi-host simnet:
//!
//! * **node sweep** — the zipf-free KV workload through the
//!   consistent-hash router at 1/2/4/8 backend nodes, each node a
//!   single-shard store so per-node serialization is the bottleneck the
//!   cluster spreads. CI gates 4 nodes ≥ 2× 1 node.
//! * **crash failover** — R=2 replication, the probe key's primary host
//!   crashes mid-run (sockets reset, listener gone), and the membership
//!   is repaired a few virtual milliseconds later. A probe client
//!   measures the unavailability window (largest gap between successive
//!   successful probe reads); acknowledged replicated writes survive by
//!   construction (see `tests/cluster.rs`).
//! * **partition heal** — over the app-level TCP stack, the router is
//!   partitioned from one backend and healed later; replicated reads
//!   fail over after the backend timeout (tail latency, not
//!   unavailability), and `recovery_ns` reports how long after the heal
//!   the primary serves fast reads again.
//!
//! All columns are virtual-time deterministic: reruns must produce a
//! byte-identical `BENCH_cluster.json` (CI compares).
//!
//! Run: `cargo bench --bench fig_cluster` (EVETH_FULL=1 for the larger
//! sweep).

use std::sync::Arc;

use bytes::Bytes;
use eveth_cluster::{HashRing, Router, RouterConfig};
use eveth_core::net::{Endpoint, HostId, NetStack};
use eveth_core::syscall::{sys_nbio, sys_sleep, sys_time};
use eveth_core::time::{Nanos, MICROS, MILLIS};
use eveth_core::{do_m, loop_m, poll_until, Loop, ThreadM};
use eveth_kv::client::KvClient;
use eveth_kv::loadgen::{client_thread, KvLoadConfig, KvLoadStats, Zipf};
use eveth_kv::protocol::Reply;
use eveth_kv::server::{KvConfig, KvServer};
use eveth_kv::store::StoreConfig;
use eveth_simos::cost::CostModel;
use eveth_simos::net::LinkParams;
use std::sync::Mutex;

use crate::tables::{banner, count, write_golden, JsonVal};
use crate::workloads::{sim_with_config, Hosts};

const KV_PORT: u16 = 11211;
const ROUTER_PORT: u16 = 11311;
const ROUTER_HOST: u32 = 50;
const CLIENT_HOST: u32 = 60;
/// The replicated key the fault probe reads; its primary is the fault
/// victim.
const PROBE_KEY: &str = "hot:probe";

/// One cluster bench cell.
#[derive(Debug, Clone)]
pub struct ClusterParams {
    /// Cost model for the whole simulation.
    pub cost: CostModel,
    /// Virtual CPUs.
    pub cpus: usize,
    /// Non-blocking steps per scheduling turn.
    pub slice: usize,
    /// Backend KV nodes on the ring.
    pub nodes: usize,
    /// Replica count R (1 = no replication).
    pub replication: usize,
    /// Store shards per backend node (1 makes each node a serialization
    /// point, so the node sweep measures cluster spreading).
    pub shards_per_node: usize,
    /// Router's per-round backend inactivity deadline (0 = none).
    pub backend_timeout: Nanos,
    /// Router's per-backend failure cooldown (circuit breaker; 0 = off).
    pub backend_cooldown: Nanos,
    /// Serve over the app-level TCP stack instead of the socket fabric.
    pub app_tcp: bool,
    /// Loopback-class link instead of 100 Mbps Ethernet.
    pub loopback: bool,
    /// Concurrent client connections.
    pub clients: u64,
    /// Hosts the client connections are spread over. Matters over the
    /// app-TCP stack, where the simnet serializes each directed host
    /// pair at the link rate: one client host would make the
    /// client↔router pair the bottleneck instead of the backends.
    pub client_hosts: u32,
    /// Pipelined batches per connection.
    pub batches_per_conn: usize,
    /// Commands per batch.
    pub pipeline_depth: usize,
    /// Sets per 100 commands.
    pub set_percent: u8,
    /// Key-space size.
    pub keys: usize,
    /// Zipf skew (0.0 = uniform; uniform spreads load across nodes).
    pub zipf_s: f64,
    /// Value payload bytes.
    pub value_bytes: usize,
    /// RNG seed.
    pub seed: u64,
}

/// The injected fault, if any.
#[derive(Debug, Clone, Copy)]
pub enum Fault {
    /// No fault: the plain scaling run.
    None,
    /// Crash the probe key's primary at `at`; remove it from the ring
    /// `repair_after` later (the operator's membership fix).
    Crash {
        /// Virtual time of the crash.
        at: Nanos,
        /// Delay from crash to ring repair.
        repair_after: Nanos,
    },
    /// Partition the router from the probe key's primary at `at`, heal
    /// at `heal_at`. Requires `app_tcp` (link control lives in `SimNet`).
    Partition {
        /// Virtual time the link drops.
        at: Nanos,
        /// Virtual time the link is restored.
        heal_at: Nanos,
    },
}

/// Outcome of one cell.
#[derive(Debug, Clone)]
pub struct ClusterResult {
    /// Virtual time consumed.
    pub elapsed: Nanos,
    /// Commands answered (client-observed).
    pub responses: u64,
    /// Commands answered per virtual second.
    pub ops_per_sec: f64,
    /// Client-observed get hits / misses.
    pub hits: u64,
    /// Client-observed get misses.
    pub misses: u64,
    /// Error replies clients saw (includes `SERVER_ERROR` during faults).
    pub errors: u64,
    /// Per-command latency percentiles (batch send → reply).
    pub p50_ns: Nanos,
    /// 95th percentile.
    pub p95_ns: Nanos,
    /// 99th percentile — the failover cells' tail-latency headline.
    pub p99_ns: Nanos,
    /// Router: writes fanned to >1 replica.
    pub replicated_writes: u64,
    /// Router: replicated reads retried on another replica.
    pub read_retries: u64,
    /// Router: read-repair sets shipped.
    pub read_repairs: u64,
    /// Router: backends dropped mid-batch.
    pub backend_errors: u64,
    /// Router: `SERVER_ERROR` replies synthesized.
    pub server_errors: u64,
    /// Largest gap between successive successful probe reads (the
    /// unavailability window; 0 when no fault/probe ran).
    pub unavail_ns: Nanos,
    /// Partition cells: heal time → first fast (sub-timeout) probe read.
    pub recovery_ns: Nanos,
    /// Successful probe reads over the run.
    pub probe_successes: u64,
    /// Mean CPU utilization.
    pub cpu_utilization: f64,
}

fn backends(n: usize) -> Vec<Endpoint> {
    (1..=n as u32)
        .map(|h| Endpoint::new(HostId(h), KV_PORT))
        .collect()
}

/// The fault probe: one dedicated connection reading `PROBE_KEY` through
/// the router every `interval`, recording `(completion time, latency)`
/// of each successful read. Reconnects after transport errors; treats
/// `SERVER_ERROR` and misses as failures.
fn probe_thread(
    stack: Arc<dyn NetStack>,
    target: Endpoint,
    interval: Nanos,
    log: Arc<Mutex<Vec<(Nanos, Nanos)>>>,
) -> ThreadM<()> {
    let wire = Bytes::from(format!("get {PROBE_KEY}\r\n"));
    loop_m(None::<KvClient>, move |client| {
        let stack = Arc::clone(&stack);
        let log = Arc::clone(&log);
        let wire = wire.clone();
        let ensure = match client {
            Some(c) => ThreadM::pure(Ok(c)),
            None => KvClient::connect(stack, target),
        };
        ensure.bind(move |client| match client {
            Err(_) => sys_sleep(interval).map(|()| Loop::Continue(None)),
            Ok(client) => do_m! {
                let t0 <- sys_time();
                let got <- client.request(wire, 1);
                let t1 <- sys_time();
                let next = match got {
                    Ok(framed) => {
                        if framed.iter().any(|f| f.values > 0) {
                            log.lock().unwrap().push((t1, t1.saturating_sub(t0)));
                        }
                        Some(client)
                    }
                    Err(_) => None,
                };
                sys_sleep(interval).map(move |()| Loop::Continue(next))
            },
        })
    })
}

/// Runs one cluster cell: `nodes` single-host KV servers, the router on
/// its own host, `clients` loadgen connections against the router, and
/// (for fault cells) the probe plus the fault injector.
pub fn cluster_run(p: &ClusterParams, fault: Fault) -> ClusterResult {
    let sim = sim_with_config(p.cost.clone(), p.cpus, p.slice);
    let link = if p.loopback {
        LinkParams::loopback()
    } else {
        LinkParams::ethernet_100mbps()
    };

    // LAN-tuned TCP: the stack's default 200 ms min-RTO clamp is a
    // WAN-era safety net; inside a simulated rack it would turn any
    // partition into a 200 ms convoy behind one lost SYN.
    let tcp = p.app_tcp.then(|| eveth_tcp::tcb::TcpConfig {
        min_rto: 10 * MILLIS,
        initial_rto: 10 * MILLIS,
        tick: MILLIS,
        max_syn_retries: 2,
        ..eveth_tcp::tcb::TcpConfig::default()
    });
    // The fault handles stay on `hosts`: the fabric for crashes, the
    // packet network for partitions.
    let hosts = Hosts::new(&sim, link, tcp, p.seed);

    for h in 1..=p.nodes as u32 {
        let server = KvServer::new(
            hosts.stack(h),
            KvConfig {
                port: KV_PORT,
                store: StoreConfig {
                    shards: p.shards_per_node,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        sim.spawn(server.run());
    }

    let router = Router::new(
        hosts.stack(ROUTER_HOST),
        RouterConfig {
            port: ROUTER_PORT,
            backends: backends(p.nodes),
            replication: p.replication,
            backend_timeout: p.backend_timeout,
            backend_cooldown: p.backend_cooldown,
            ..Default::default()
        },
    );
    sim.spawn(router.run());
    let router_ep = Endpoint::new(HostId(ROUTER_HOST), ROUTER_PORT);

    // The fault victim: the probe key's primary, from the same ring the
    // router routes by.
    let ring = HashRing::new(backends(p.nodes), 64);
    let victim = ring.primary(PROBE_KEY.as_bytes());

    let probe_log: Arc<Mutex<Vec<(Nanos, Nanos)>>> = Arc::new(Mutex::new(Vec::new()));
    let mut heal_at_ns: Nanos = 0;
    if !matches!(fault, Fault::None) {
        // Seed the probe key (replicated) before the measured window.
        let seed_stack = hosts.stack(CLIENT_HOST);
        sim.block_on(do_m! {
            let c <- KvClient::connect(seed_stack, router_ep);
            let client = c.unwrap();
            let put <- client.request(
                Bytes::from(format!("set {PROBE_KEY} 0 0 5\r\nalive\r\n")),
                1,
            );
            let _ = assert_eq!(put.unwrap()[0].closing, Reply::Stored, "probe key seeded");
            client.close()
        })
        .expect("probe seed ran");
        sim.spawn(probe_thread(
            hosts.stack(CLIENT_HOST),
            router_ep,
            200 * MICROS,
            Arc::clone(&probe_log),
        ));
    }
    match fault {
        Fault::None => {}
        Fault::Crash { at, repair_after } => {
            let fabric = hosts
                .fabric
                .clone()
                .expect("crash faults run on the fabric");
            let router = Arc::clone(&router);
            let rest: Vec<Endpoint> = backends(p.nodes)
                .into_iter()
                .filter(|ep| *ep != victim)
                .collect();
            sim.spawn(do_m! {
                sys_sleep(at);
                sys_nbio(move || fabric.crash_host(victim.host));
                sys_sleep(repair_after);
                sys_nbio(move || router.set_ring(rest.clone()))
            });
        }
        Fault::Partition { at, heal_at } => {
            heal_at_ns = heal_at;
            let net = hosts.net.clone().expect("partition faults need app_tcp");
            let net_heal = Arc::clone(&net);
            sim.spawn(do_m! {
                sys_sleep(at);
                sys_nbio(move || {
                    net.set_link_down(HostId(ROUTER_HOST), victim.host);
                    net.set_link_down(victim.host, HostId(ROUTER_HOST));
                });
                sys_sleep(heal_at.saturating_sub(at));
                sys_nbio(move || {
                    net_heal.set_link_up(HostId(ROUTER_HOST), victim.host);
                    net_heal.set_link_up(victim.host, HostId(ROUTER_HOST));
                })
            });
        }
    }

    let stats = Arc::new(KvLoadStats::default());
    let cfg = Arc::new(KvLoadConfig {
        server: router_ep,
        batches_per_conn: p.batches_per_conn,
        pipeline_depth: p.pipeline_depth,
        keys: p.keys,
        zipf_s: p.zipf_s,
        set_percent: p.set_percent,
        value_bytes: p.value_bytes,
        ttl_secs: 0,
        seed: p.seed,
    });
    let zipf = Arc::new(Zipf::new(cfg.keys, cfg.zipf_s));
    for id in 0..p.clients {
        sim.spawn(client_thread(
            hosts.stack(CLIENT_HOST + id as u32 % p.client_hosts.max(1)),
            Arc::clone(&cfg),
            Arc::clone(&zipf),
            Arc::clone(&stats),
            id,
        ));
    }

    let (clients, watch) = (p.clients, Arc::clone(&stats));
    sim.block_on(poll_until(50 * MICROS, move || {
        watch.clients_done.get() == clients
    }))
    .expect("cluster load completed");

    let report = sim.report();
    let elapsed = report.now;
    let responses = stats.responses();
    let pcts = stats.latency.percentiles(&[50.0, 95.0, 99.0]);

    // Probe post-processing: the unavailability window is the largest
    // gap between successive successful reads; recovery is heal → first
    // fast read (under half the backend timeout's failover detour).
    let log = probe_log.lock().unwrap();
    let mut unavail = 0;
    for pair in log.windows(2) {
        unavail = unavail.max(pair[1].0 - pair[0].0);
    }
    let recovery_ns = if heal_at_ns > 0 {
        log.iter()
            .find(|&&(t, lat)| t >= heal_at_ns && lat < p.backend_timeout.max(1))
            .map(|&(t, _)| t - heal_at_ns)
            .unwrap_or(0)
    } else {
        0
    };

    let rs = router.stats();
    ClusterResult {
        elapsed,
        responses,
        ops_per_sec: if elapsed == 0 {
            0.0
        } else {
            responses as f64 / (elapsed as f64 / 1e9)
        },
        hits: stats.hits.get(),
        misses: stats.misses.get(),
        errors: stats.errors.get(),
        p50_ns: pcts[0],
        p95_ns: pcts[1],
        p99_ns: pcts[2],
        replicated_writes: rs.replicated_writes.get(),
        read_retries: rs.read_retries.get(),
        read_repairs: rs.read_repairs.get(),
        backend_errors: rs.backend_errors.get(),
        server_errors: rs.server_errors.get(),
        unavail_ns: unavail,
        recovery_ns,
        probe_successes: log.len() as u64,
        cpu_utilization: report.avg_utilization(),
    }
}

fn base_params() -> ClusterParams {
    ClusterParams {
        cost: CostModel::monadic(),
        cpus: 8,
        slice: 16,
        nodes: 4,
        replication: 1,
        shards_per_node: 1,
        backend_timeout: 0,
        backend_cooldown: 0,
        app_tcp: false,
        loopback: true,
        clients: 32,
        client_hosts: 1,
        batches_per_conn: 8,
        pipeline_depth: 8,
        set_percent: 10,
        keys: 1024,
        zipf_s: 0.0,
        value_bytes: 100,
        seed: 42,
    }
}

/// One JSON row with the uniform column set.
fn row(
    sweep: &str,
    fault: &str,
    p: &ClusterParams,
    r: &ClusterResult,
) -> Vec<(&'static str, JsonVal)> {
    vec![
        ("sweep", JsonVal::Str(sweep.into())),
        ("fault", JsonVal::Str(fault.into())),
        (
            "stack",
            JsonVal::Str(if p.app_tcp { "app-tcp" } else { "sockets" }.into()),
        ),
        ("nodes", JsonVal::Int(p.nodes as u64)),
        ("replication", JsonVal::Int(p.replication as u64)),
        ("clients", JsonVal::Int(p.clients)),
        ("client_hosts", JsonVal::Int(p.client_hosts as u64)),
        ("pipeline_depth", JsonVal::Int(p.pipeline_depth as u64)),
        ("cpus", JsonVal::Int(p.cpus as u64)),
        ("responses", JsonVal::Int(r.responses)),
        ("ops_per_sec", JsonVal::Num(r.ops_per_sec)),
        ("virtual_ns", JsonVal::Int(r.elapsed)),
        ("p50_ns", JsonVal::Int(r.p50_ns)),
        ("p95_ns", JsonVal::Int(r.p95_ns)),
        ("p99_ns", JsonVal::Int(r.p99_ns)),
        ("hits", JsonVal::Int(r.hits)),
        ("misses", JsonVal::Int(r.misses)),
        ("errors", JsonVal::Int(r.errors)),
        ("replicated_writes", JsonVal::Int(r.replicated_writes)),
        ("read_retries", JsonVal::Int(r.read_retries)),
        ("read_repairs", JsonVal::Int(r.read_repairs)),
        ("backend_errors", JsonVal::Int(r.backend_errors)),
        ("server_errors", JsonVal::Int(r.server_errors)),
        ("unavail_ns", JsonVal::Int(r.unavail_ns)),
        ("recovery_ns", JsonVal::Int(r.recovery_ns)),
        ("probe_successes", JsonVal::Int(r.probe_successes)),
        ("cpu_utilization", JsonVal::Num(r.cpu_utilization)),
    ]
}

/// Runs the whole cluster suite and writes `BENCH_cluster.json` at the
/// workspace root. Exits nonzero if the JSON drop cannot be written.
pub fn run() {
    let full = crate::full_scale();
    let node_counts: Vec<usize> = vec![1, 2, 4, 8];
    let mut rows: Vec<Vec<(&str, JsonVal)>> = Vec::new();

    banner(
        "CLUSTER / multi-host KV",
        "consistent-hash router: ops/s vs nodes; crash failover; partition heal",
        "the same monadic service code scaled across simulated hosts, with CML choose as the fan-in",
    );

    // ---- ops/s vs node count ---------------------------------------------
    println!();
    println!(
        "{:>6} | {:>14} | {:>12} | {:>12} | {:>5}",
        "nodes", "ops/s", "p50 ns", "p99 ns", "util"
    );
    println!(
        "{:->6}-+-{:->14}-+-{:->12}-+-{:->12}-+-{:->5}",
        "", "", "", "", ""
    );
    for &nodes in &node_counts {
        let p = ClusterParams {
            nodes,
            app_tcp: true,
            loopback: false,
            clients: 64,
            client_hosts: 8,
            batches_per_conn: if full { 48 } else { 24 },
            pipeline_depth: 16,
            ..base_params()
        };
        let r = cluster_run(&p, Fault::None);
        println!(
            "{:>6} | {:>14} | {:>12} | {:>12} | {:>4.0}%",
            nodes,
            count(r.ops_per_sec as u64),
            count(r.p50_ns),
            count(r.p99_ns),
            r.cpu_utilization * 100.0
        );
        rows.push(row("nodes", "none", &p, &r));
    }

    // ---- crash failover: R=2, primary dies mid-run ------------------------
    println!();
    println!(
        "{:>10} | {:>14} | {:>12} | {:>12} | {:>12} | {:>8}",
        "failover", "ops/s", "p99 ns", "unavail us", "retries", "errors"
    );
    println!(
        "{:->10}-+-{:->14}-+-{:->12}-+-{:->12}-+-{:->12}-+-{:->8}",
        "", "", "", "", "", ""
    );
    let p_crash = ClusterParams {
        replication: 2,
        set_percent: 20,
        batches_per_conn: 150,
        ..base_params()
    };
    let r_crash = cluster_run(
        &p_crash,
        Fault::Crash {
            at: 4 * MILLIS,
            repair_after: 4 * MILLIS,
        },
    );
    println!(
        "{:>10} | {:>14} | {:>12} | {:>12} | {:>12} | {:>8}",
        "crash",
        count(r_crash.ops_per_sec as u64),
        count(r_crash.p99_ns),
        count(r_crash.unavail_ns / 1000),
        count(r_crash.read_retries),
        count(r_crash.errors)
    );
    rows.push(row("failover", "crash", &p_crash, &r_crash));

    // ---- partition heal over app-level TCP --------------------------------
    let p_part = ClusterParams {
        nodes: 3,
        replication: 2,
        app_tcp: true,
        loopback: false,
        backend_timeout: 2 * MILLIS,
        backend_cooldown: 3 * MILLIS,
        cpus: 4,
        clients: 8,
        batches_per_conn: 60,
        set_percent: 20,
        ..base_params()
    };
    let r_part = cluster_run(
        &p_part,
        Fault::Partition {
            at: 5 * MILLIS,
            heal_at: 20 * MILLIS,
        },
    );
    println!(
        "{:>10} | {:>14} | {:>12} | {:>12} | {:>12} | {:>8}",
        "partition",
        count(r_part.ops_per_sec as u64),
        count(r_part.p99_ns),
        count(r_part.unavail_ns / 1000),
        count(r_part.read_retries),
        count(r_part.errors)
    );
    rows.push(row("failover", "partition", &p_part, &r_part));
    println!();
    println!(
        "partition heal: recovered {} us after the link came back ({} probe reads)",
        count(r_part.recovery_ns / 1000),
        count(r_part.probe_successes)
    );

    // ---- machine-readable drop -------------------------------------------
    let meta = [
        ("bench", JsonVal::Str("fig_cluster".into())),
        ("full_scale", JsonVal::Bool(full)),
        ("cost_model", JsonVal::Str("monadic".into())),
        ("keys", JsonVal::Int(base_params().keys as u64)),
        (
            "value_bytes",
            JsonVal::Int(base_params().value_bytes as u64),
        ),
        ("probe_key", JsonVal::Str(PROBE_KEY.into())),
    ];
    write_golden("BENCH_cluster.json", &meta, &rows);
    println!("expected shape: ops/s grows with node count while each node's");
    println!("single shard gate would serialize a lone server; the crash cell");
    println!("keeps serving reads through failover (bounded unavailability);");
    println!("the partition cell trades tail latency for availability until");
    println!("the link heals.");
}
