//! The wait taxonomy is exact: every blocked nanosecond lands in exactly
//! one of `io_wait_ns` (readiness waits, `sys_epoll_wait`), `lock_wait_ns`
//! (synchronization parks, `sys_park`) or `timer_wait_ns` (sleeps), and
//! the I/O + lock split sums to the independently-accumulated park-wait
//! total — on a mixed network workload over a lossy link, and on a pure
//! in-memory mutex workload that must show *zero* I/O wait.

use std::sync::Arc;

use eveth::core::net::{Endpoint, HostId, NetStack};
use eveth::core::sync::Mutex;
use eveth::core::syscall::{sys_cpu, sys_sleep, sys_yield};
use eveth::core::time::MILLIS;
use eveth::glue;
use eveth::kv::loadgen::{client_thread, KvLoadConfig, KvLoadStats, Zipf};
use eveth::kv::server::{KvConfig, KvServer};
use eveth::kv::store::{Backend, StoreConfig};
use eveth::simos::cost::CostModel;
use eveth::simos::desrt::SimReport;
use eveth::simos::net::{LinkParams, SimNet};
use eveth::simos::{SimClock, SimConfig, SimRuntime};
use eveth::tcp::tcb::TcpConfig;
use eveth::{do_m, for_each_m, poll_until};

fn assert_split_is_exact(report: &SimReport) {
    assert_eq!(
        report.io_wait_ns + report.lock_wait_ns,
        report.park_wait_ns,
        "I/O wait ({}) + lock wait ({}) must equal the park-wait total ({})",
        report.io_wait_ns,
        report.lock_wait_ns,
        report.park_wait_ns
    );
    assert_eq!(
        report.io_waits + report.lock_waits,
        report.park_waits,
        "episode counts must split the same way"
    );
}

/// A mixed workload: the sharded KV service + pipelining clients over the
/// application-level TCP stack on a lossy 100 Mbps link, on 2 virtual
/// CPUs with a small slice so shard locks actually contend. Threads block
/// on socket readiness, shard mutexes, channels AND timers — the
/// taxonomy's sum invariant must still be exact.
#[test]
fn kv_over_lossy_link_splits_io_from_lock_wait() {
    const CLIENTS: u64 = 8;
    const BATCHES: usize = 8;
    const DEPTH: usize = 4;

    let sim = SimRuntime::new(
        SimClock::new(),
        SimConfig {
            cost: CostModel::monadic(),
            slice: 8,
            cpus: 2,
            ..SimConfig::default()
        },
    );
    let net = SimNet::new(
        sim.clock(),
        LinkParams::ethernet_100mbps().with_loss(0.01),
        7,
    );
    let server_stack = glue::tcp_host_over_simnet(sim.ctx(), &net, HostId(1), TcpConfig::default());
    let client_stack: Arc<dyn NetStack> =
        glue::tcp_host_over_simnet(sim.ctx(), &net, HostId(2), TcpConfig::default());

    let server = KvServer::new(
        server_stack,
        KvConfig {
            port: 11211,
            store: StoreConfig {
                shards: 2,
                backend: Backend::Mutex,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    sim.spawn(server.run());

    let stats = Arc::new(KvLoadStats::default());
    let cfg = Arc::new(KvLoadConfig {
        server: Endpoint::new(HostId(1), 11211),
        batches_per_conn: BATCHES,
        pipeline_depth: DEPTH,
        keys: 64,
        zipf_s: 0.9,
        set_percent: 30,
        value_bytes: 64,
        ttl_secs: 0,
        seed: 13,
    });
    let zipf = Arc::new(Zipf::new(cfg.keys, cfg.zipf_s));
    for id in 0..CLIENTS {
        sim.spawn(client_thread(
            Arc::clone(&client_stack),
            Arc::clone(&cfg),
            Arc::clone(&zipf),
            Arc::clone(&stats),
            id,
        ));
    }
    let watch = Arc::clone(&stats);
    sim.block_on(poll_until(5 * MILLIS, move || {
        watch.clients_done.get() == CLIENTS
    }))
    .expect("clients finished");
    assert_eq!(stats.responses(), CLIENTS * (BATCHES * DEPTH) as u64);

    let report = sim.report();
    assert_split_is_exact(&report);
    assert!(
        report.io_wait_ns > 0,
        "a lossy-link network workload must accumulate I/O wait"
    );
    assert!(
        report.io_waits > 0 && report.lock_waits > 0,
        "both wait classes must have episodes (io {}, lock {})",
        report.io_waits,
        report.lock_waits
    );
    assert!(
        report.timer_wait_ns > 0,
        "the TCP timer loops and the watcher sleep must show as timer wait"
    );
}

/// A zero-I/O workload: threads contend on one monadic mutex and sleep,
/// never touching a socket or pipe. All blocked time must be lock (and
/// timer) wait; `io_wait_ns` must be exactly zero.
#[test]
fn pure_mutex_workload_reports_zero_io_wait() {
    let sim = SimRuntime::new(
        SimClock::new(),
        SimConfig {
            cost: CostModel::monadic(),
            slice: 16,
            cpus: 4,
            ..SimConfig::default()
        },
    );
    let gate = Mutex::new();
    for t in 0..8u64 {
        let gate = gate.clone();
        sim.spawn(for_each_m(0..10u64, move |round| {
            let gate = gate.clone();
            do_m! {
                gate.with(do_m! {
                    sys_cpu(50_000);
                    sys_yield()
                });
                sys_sleep((t + round) % 3 * 10_000)
            }
        }));
    }
    let report = sim.run();
    assert_split_is_exact(&report);
    assert_eq!(
        report.io_wait_ns, 0,
        "no socket/pipe in the workload, so no I/O wait"
    );
    assert_eq!(report.io_waits, 0);
    assert!(
        report.lock_wait_ns > 0 && report.lock_waits > 0,
        "8 threads on one mutex across 4 CPUs must contend"
    );
}
