//! Reusable workload builders behind the figure harnesses.
//!
//! Every harness is the same few shared pieces: a sim
//! ([`sim_with_config`]), one network stack per host over either
//! transport (`Hosts`), servers, N closed-loop clients
//! ([`eveth_core::net::closed_loop`], via the kv and http load
//! generators), one completion wait ([`eveth_core::poll_until`]) and one
//! percentile formula ([`LatencyHistogram`]'s nearest rank). The web
//! cell is [`web_server_run_on`]; both KV cells ([`kv_server_run`],
//! [`kv_trace_run`]) run one rig, `KvRig`; the scale scenarios share
//! `scale_rig` and `scale_teardown`.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use eveth_core::aio::FileStore;
use eveth_core::event::sync;
use eveth_core::net::{recv_exact, send_all, Conn, Endpoint, HostId, NetStack};
use eveth_core::service::{Server, ServerConfig as SvcConfig, Service, Step};
use eveth_core::syscall::{sys_aio_read, sys_nbio, sys_sleep, sys_time};
use eveth_core::telemetry::metrics::LatencyHistogram;
use eveth_core::time::{Nanos, MICROS, MILLIS};
use eveth_core::{do_m, loop_m, poll_until, Loop, ThreadM};
use eveth_http::loadgen::{client_thread, corpus_paths, LoadConfig, LoadStats};
use eveth_http::server::{ServerConfig, WebServer};
use eveth_kv::loadgen::{KvLoadConfig, KvLoadStats};
use eveth_kv::server::{KvConfig, KvServer};
use eveth_simos::cost::CostModel;
use eveth_simos::disk::{DiskGeometry, DiskSched, SimDisk};
use eveth_simos::fs::SimFs;
use eveth_simos::net::{LinkParams, SimNet};
use eveth_simos::sockets::SocketFabric;
use eveth_simos::{SimClock, SimConfig, SimRuntime};
use eveth_tcp::tcb::TcpConfig;

/// Throughput in MB/s from bytes moved over a duration.
pub fn mb_per_sec(bytes: u64, dur: Nanos) -> f64 {
    if dur == 0 {
        return 0.0;
    }
    bytes as f64 / (1024.0 * 1024.0) / (dur as f64 / 1e9)
}

/// Builds a single-CPU `SimRuntime` with the given cost model.
pub fn sim_with(cost: CostModel) -> SimRuntime {
    sim_with_cpus(cost, 1)
}

/// Builds a `SimRuntime` with the given cost model and virtual CPU count.
pub fn sim_with_cpus(cost: CostModel, cpus: usize) -> SimRuntime {
    sim_with_config(cost, cpus, 256)
}

/// Builds a `SimRuntime` with explicit cost model, CPU count and slice.
pub fn sim_with_config(cost: CostModel, cpus: usize, slice: usize) -> SimRuntime {
    SimRuntime::new(
        SimClock::new(),
        SimConfig {
            cost,
            slice,
            cpus,
            ..SimConfig::default()
        },
    )
}

/// One network stack per simulated host, over either transport: the
/// kernel-socket fabric, or (with a [`TcpConfig`]) an application-level
/// TCP host per `HostId` on one simulated packet network. Stacks are
/// built on first use and memoized — a TCP host must exist exactly once
/// per `HostId` (a second one would re-register the packet tap and orphan
/// the first), and building one spawns its threads, so callers build
/// hosts in the order their spawns must run.
pub(crate) struct Hosts {
    make: MakeStack,
    built: RefCell<HashMap<u32, Arc<dyn NetStack>>>,
    /// The socket fabric (crash faults), when the hosts run over it.
    pub(crate) fabric: Option<Arc<SocketFabric>>,
    /// The packet network (partitions), when the hosts run app-level TCP.
    pub(crate) net: Option<Arc<SimNet>>,
}

/// Builds the stack of one host, given its number.
type MakeStack = Box<dyn Fn(u32) -> Arc<dyn NetStack>>;

impl Hosts {
    /// Hosts on `link`: socket-fabric stacks when `tcp` is `None`, else
    /// TCP hosts configured by it over a network seeded with `seed`.
    pub(crate) fn new(
        sim: &SimRuntime,
        link: LinkParams,
        tcp: Option<TcpConfig>,
        seed: u64,
    ) -> Hosts {
        let (make, fabric, net): (MakeStack, _, _) = match tcp {
            Some(cfg) => {
                let net = SimNet::new(sim.clock(), link, seed);
                let (n, ctx) = (Arc::clone(&net), sim.ctx());
                let make = move |h| {
                    eveth::glue::tcp_host_over_simnet(Arc::clone(&ctx), &n, HostId(h), cfg.clone())
                        as Arc<dyn NetStack>
                };
                (Box::new(make), None, Some(net))
            }
            None => {
                let fabric = SocketFabric::new(sim.clock(), link);
                let f = Arc::clone(&fabric);
                let make = move |h| f.stack(HostId(h)) as Arc<dyn NetStack>;
                (Box::new(make), Some(fabric), None)
            }
        };
        Hosts {
            make,
            built: RefCell::default(),
            fabric,
            net,
        }
    }

    /// Host `h`'s stack, built on first use.
    pub(crate) fn stack(&self, h: u32) -> Arc<dyn NetStack> {
        let mut built = self.built.borrow_mut();
        Arc::clone(built.entry(h).or_insert_with(|| (self.make)(h)))
    }
}

/// Outcome of one disk-benchmark cell.
#[derive(Debug, Clone, Copy)]
pub struct DiskRunResult {
    /// Virtual time consumed.
    pub elapsed: Nanos,
    /// Bytes transferred.
    pub bytes: u64,
    /// Throughput.
    pub mb_s: f64,
}

/// The Figure 17 workload: `threads` monadic threads each loop random
/// 4 KB reads from a 1 GB file until `total_reads` complete; both the
/// monadic and the kernel-thread lines run this same program under
/// different cost models. Returns `None` when the cost model's thread cap
/// is exceeded (the paper's "NPTL stops at 16k").
pub fn disk_head_scheduling(
    cost: CostModel,
    sched: DiskSched,
    threads: u64,
    total_reads: u64,
    seed: u64,
) -> Option<DiskRunResult> {
    const BLOCK: usize = 4096;
    const FILE_BYTES: u64 = 1 << 30;

    if let Some(cap) = cost.max_threads {
        if threads as usize > cap {
            return None;
        }
    }
    let sim = sim_with(cost);
    let disk = SimDisk::new(sim.clock(), DiskGeometry::eide_7200_80gb(), sched, seed);
    let fs = SimFs::new(disk);
    fs.add_file("/big", FILE_BYTES);
    let file = fs.lookup("/big").expect("benchmark file");

    let remaining = Arc::new(AtomicU64::new(total_reads));
    let finished = Arc::new(AtomicU64::new(0));
    for t in 0..threads {
        let file = Arc::clone(&file);
        let remaining = Arc::clone(&remaining);
        let finished = Arc::clone(&finished);
        let rng0 = 0x9E37_79B9u64.wrapping_mul(seed + t + 1) | 1;
        sim.spawn(loop_m(rng0, move |mut rng| {
            // Claim one read; retire the thread once the quota is gone.
            let claimed = remaining
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                .is_ok();
            if !claimed {
                let finished = Arc::clone(&finished);
                return sys_nbio(move || {
                    finished.fetch_add(1, Ordering::SeqCst);
                })
                .map(|_| Loop::Break(()));
            }
            crate::xorshift(&mut rng);
            let offset = (rng % (FILE_BYTES / BLOCK as u64)) * BLOCK as u64;
            sys_aio_read(&file, offset, BLOCK).map(move |res| {
                res.expect("simulated disk never errors");
                Loop::Continue(rng)
            })
        }));
    }
    sim.block_on(poll_until(MILLIS, move || {
        finished.load(Ordering::SeqCst) >= threads
    }))
    .expect("workload completed");
    let elapsed = sim.now();
    let bytes = total_reads * BLOCK as u64;
    Some(DiskRunResult {
        elapsed,
        bytes,
        mb_s: mb_per_sec(bytes, elapsed),
    })
}

/// Outcome of one web-server benchmark cell.
#[derive(Debug, Clone)]
pub struct WebRunResult {
    /// Virtual time consumed.
    pub elapsed: Nanos,
    /// Response bytes received by all clients.
    pub bytes: u64,
    /// Throughput.
    pub mb_s: f64,
    /// Server cache hit ratio.
    pub cache_hit_ratio: f64,
    /// Responses completed.
    pub responses: u64,
}

/// Parameters for [`web_server_run`].
#[derive(Debug, Clone)]
pub struct WebRunParams {
    /// Cost model for the whole host (server + kernel).
    pub cost: CostModel,
    /// Number of 16 KB files in the corpus.
    pub files: usize,
    /// Server cache budget in bytes.
    pub cache_bytes: usize,
    /// Concurrent client connections.
    pub connections: u64,
    /// Requests per connection.
    pub requests_per_conn: usize,
    /// RNG seed.
    pub seed: u64,
}

/// The Figure 19 workload: a static web server with its own cache over the
/// kernel-socket model, a disk-backed corpus of 16 KB files, and N
/// keep-alive clients requesting random files. The monadic and
/// Apache-model lines run the same program under different cost models —
/// thread-per-connection synchronous blocking being priced by
/// [`CostModel::apache`]/[`CostModel::nptl`].
pub fn web_server_run(p: &WebRunParams) -> WebRunResult {
    web_server_run_on(p, false)
}

/// [`web_server_run`] over the kernel-socket model, or with `app_tcp`
/// over the application-level TCP stack on a simulated packet network:
/// the paper's one-line switch (ablation A4).
pub fn web_server_run_on(p: &WebRunParams, app_tcp: bool) -> WebRunResult {
    const FILE_BYTES: u64 = 16 * 1024;

    let sim = sim_with(p.cost.clone());
    let disk = SimDisk::new(
        sim.clock(),
        DiskGeometry::eide_7200_80gb(),
        DiskSched::CLook,
        p.seed,
    );
    let fs = SimFs::new(disk);
    let paths = corpus_paths(p.files);
    for path in &paths {
        fs.add_file(path.clone(), FILE_BYTES);
    }

    let tcp = app_tcp.then(TcpConfig::default);
    let hosts = Hosts::new(&sim, LinkParams::ethernet_100mbps(), tcp, p.seed);
    let (server_stack, client_stack) = (hosts.stack(1), hosts.stack(2));
    let server = WebServer::new(
        server_stack,
        fs,
        ServerConfig {
            port: 80,
            cache_bytes: p.cache_bytes,
            ..Default::default()
        },
    );
    sim.spawn(server.run());

    let stats = Arc::new(LoadStats::default());
    let cfg = Arc::new(LoadConfig {
        server: Endpoint::new(HostId(1), 80),
        requests_per_conn: p.requests_per_conn,
        paths: Arc::new(paths),
        seed: p.seed,
    });
    for id in 0..p.connections {
        sim.spawn(client_thread(
            Arc::clone(&client_stack),
            Arc::clone(&cfg),
            Arc::clone(&stats),
            id,
        ));
    }

    let (watch, target) = (Arc::clone(&stats), p.connections);
    sim.block_on(poll_until(MILLIS, move || {
        watch.clients_done.get() >= target
    }))
    .expect("web load completed");

    let elapsed = sim.now();
    let bytes = stats.bytes.get();
    WebRunResult {
        elapsed,
        bytes,
        mb_s: mb_per_sec(bytes, elapsed),
        cache_hit_ratio: server.cache().hit_ratio(),
        responses: stats.responses(),
    }
}

// ---------------------------------------------------------------------------
// The KV workload (second service, `fig_kv`).
// ---------------------------------------------------------------------------

/// Parameters for [`kv_server_run`].
#[derive(Debug, Clone)]
pub struct KvRunParams {
    /// Cost model for the whole host.
    pub cost: CostModel,
    /// Virtual CPUs the host schedules turns on (1 = the paper's
    /// single-processor testbed; more CPUs let disjoint shards overlap
    /// while a hot shard lock serializes).
    pub cpus: usize,
    /// Non-blocking steps per scheduling turn. Large slices make each
    /// pipelined batch effectively atomic (no lock contention can arise);
    /// the contention sweeps use a small slice so sessions preempt inside
    /// batches, as OS scheduling does to real memcached workers.
    pub slice: usize,
    /// Serve over the application-level TCP stack instead of the
    /// kernel-socket model (the paper's one-line switch, swept as a bench
    /// dimension).
    pub app_tcp: bool,
    /// Use a loopback-class link (10 µs, 10 Gbps) instead of the default
    /// 100 Mbps / 100 µs Ethernet. The contention sweeps use this so the
    /// run is CPU- and lock-bound rather than RTT-bound.
    pub loopback: bool,
    /// Store shard count.
    pub shards: usize,
    /// Use the `TVar`/STM shard backend instead of the monadic mutex.
    pub stm: bool,
    /// Concurrent client connections.
    pub clients: u64,
    /// Pipelined batches per connection.
    pub batches_per_conn: usize,
    /// Commands per batch (pipeline depth).
    pub pipeline_depth: usize,
    /// Sets per 100 commands.
    pub set_percent: u8,
    /// Key-space size (zipf skew 0.99).
    pub keys: usize,
    /// Value payload bytes.
    pub value_bytes: usize,
    /// Fill the whole key space with one deterministic pipelined client
    /// before the measured load starts (outside the counter window), so a
    /// get-heavy mix actually hits and its replies carry value bytes.
    pub preload: bool,
    /// RNG seed.
    pub seed: u64,
}

/// Outcome of [`kv_server_run`].
#[derive(Debug, Clone)]
pub struct KvRunResult {
    /// Virtual time consumed.
    pub elapsed: Nanos,
    /// Commands answered.
    pub responses: u64,
    /// Commands answered per virtual second.
    pub ops_per_sec: f64,
    /// Get hits observed by clients.
    pub hits: u64,
    /// Get misses observed by clients.
    pub misses: u64,
    /// Client-received bytes.
    pub bytes_in: u64,
    /// Client-sent bytes.
    pub bytes_out: u64,
    /// Median per-command virtual-time latency (batch send → reply).
    pub p50_ns: Nanos,
    /// 95th-percentile per-command latency.
    pub p95_ns: Nanos,
    /// 99th-percentile per-command latency.
    pub p99_ns: Nanos,
    /// Runtime-wide virtual nanoseconds threads spent blocked on I/O
    /// readiness (`sys_epoll_wait`: socket reads/writes/accepts) —
    /// `SimReport::io_wait_ns`.
    pub io_wait_ns: Nanos,
    /// Runtime-wide *pure* lock wait (`sys_park`: mutexes, channels,
    /// MVars, STM `retry`) — `SimReport::lock_wait_ns`, with I/O waits
    /// accounted separately. This is the contention signal the CI gate
    /// compares across shard counts.
    pub lock_wait_ns: Nanos,
    /// Virtual nanoseconds server threads spent contending specifically
    /// on the store's shard gates (the monadic mutex's own `contended_ns`,
    /// summed per shard; 0 for the STM backend).
    pub store_lock_wait_ns: Nanos,
    /// The single hottest shard gate's share of that wait — under a
    /// thundering herd on one key this approaches `store_lock_wait_ns`
    /// itself, while a well-spread workload smears it across shards.
    pub hot_shard_lock_wait_ns: Nanos,
    /// STM transaction re-executions (conflicts + retry blocks) in the
    /// store — the STM backend's contention signal (0 under the mutex
    /// backend).
    pub stm_retries: u64,
    /// Virtual CPUs the run executed on.
    pub cpus: usize,
    /// Mean CPU utilization over the run.
    pub cpu_utilization: f64,
    /// Heap allocations per answered command over the measured load
    /// window (`allocmeter` delta / responses; 0 outside the bench bins,
    /// where the counting allocator isn't installed). Preload traffic is
    /// excluded.
    pub allocs_per_op: f64,
    /// Buffer-fabric payload bytes copied per answered command
    /// (`bytes::bytes_copied_total` delta / responses). Counts every
    /// byte the `bytes` crate physically copies into a buffer — reply
    /// headers land here, while a stored value that travels
    /// store → socket as a refcounted slice contributes nothing.
    pub copies_per_op: f64,
}

impl KvRunResult {
    /// Client-observed hit ratio over gets (1.0 when there were none).
    pub fn hit_ratio(&self) -> f64 {
        let gets = self.hits + self.misses;
        if gets == 0 {
            1.0
        } else {
            self.hits as f64 / gets as f64
        }
    }
}

/// The port the KV cells' server listens on.
const KV_PORT: u16 = 11211;

/// The KV load rig both KV cells run: a sim, the KV server on host 1
/// (spawned) and the load clients' stack on host 2, over the transport
/// and link [`KvRunParams`] picks. A caller mounts extras beside the
/// server between [`KvRig::new`] and [`KvRig::load`].
struct KvRig {
    sim: SimRuntime,
    hosts: Hosts,
    server: Arc<KvServer>,
}

/// Counters of one [`KvRig::load`], with the process-wide allocation and
/// copy counts at the start of the measured window.
struct KvLoad {
    stats: Arc<KvLoadStats>,
    base_allocs: usize,
    base_copies: u64,
}

impl KvRig {
    /// Builds the rig; `send_timeout` bounds each KV reply send (0: no
    /// deadline).
    fn new(sim: SimRuntime, p: &KvRunParams, send_timeout: Nanos) -> KvRig {
        use eveth_kv::store::{Backend, StoreConfig};
        let link = if p.loopback {
            LinkParams::loopback()
        } else {
            LinkParams::ethernet_100mbps()
        };
        let hosts = Hosts::new(&sim, link, p.app_tcp.then(TcpConfig::default), p.seed);
        // Both hosts exist before the server thread is spawned.
        let (server_stack, _) = (hosts.stack(1), hosts.stack(2));
        let server = KvServer::new(
            server_stack,
            KvConfig {
                port: KV_PORT,
                store: StoreConfig {
                    shards: p.shards,
                    backend: if p.stm { Backend::Stm } else { Backend::Mutex },
                    ..Default::default()
                },
                send_timeout,
                ..Default::default()
            },
        );
        sim.spawn(server.run());
        KvRig { sim, hosts, server }
    }

    /// Fills the key space first when `p.preload` asks (outside the
    /// measured window), then runs `p.clients` load clients to the end,
    /// polling every 50 virtual µs so a makespan of a few milliseconds
    /// isn't quantized at the poll interval.
    fn load(&self, p: &KvRunParams) -> KvLoad {
        use eveth_kv::loadgen::{client_thread, preload_thread, Zipf};
        let client_stack = self.hosts.stack(2);
        let stats = Arc::new(KvLoadStats::default());
        let cfg = Arc::new(KvLoadConfig {
            server: Endpoint::new(HostId(1), KV_PORT),
            batches_per_conn: p.batches_per_conn,
            pipeline_depth: p.pipeline_depth,
            keys: p.keys,
            zipf_s: 0.99,
            set_percent: p.set_percent,
            value_bytes: p.value_bytes,
            ttl_secs: 0,
            seed: p.seed,
        });
        if p.preload {
            let pre_stats = Arc::new(KvLoadStats::default());
            let fill = preload_thread(
                Arc::clone(&client_stack),
                Arc::clone(&cfg),
                Arc::clone(&pre_stats),
            );
            self.sim.spawn(fill);
            self.wait_clients(&pre_stats, 1);
            assert_eq!(
                pre_stats.stored.get(),
                p.keys as u64,
                "preload stored every key"
            );
        }
        // Per-op allocation/copy accounting covers exactly the measured
        // load phase (client spawn → last client done); preload and setup,
        // the run's one key table among them, stay outside the window.
        let zipf = Arc::new(Zipf::new(cfg.keys, cfg.zipf_s));
        let base_allocs = crate::allocmeter::alloc_count();
        let base_copies = bytes::bytes_copied_total();
        for id in 0..p.clients {
            self.sim.spawn(client_thread(
                Arc::clone(&client_stack),
                Arc::clone(&cfg),
                Arc::clone(&zipf),
                Arc::clone(&stats),
                id,
            ));
        }
        self.wait_clients(&stats, p.clients);
        KvLoad {
            stats,
            base_allocs,
            base_copies,
        }
    }

    fn wait_clients(&self, stats: &Arc<KvLoadStats>, clients: u64) {
        let watch = Arc::clone(stats);
        self.sim
            .block_on(poll_until(50 * MICROS, move || {
                watch.clients_done.get() == clients
            }))
            .expect("kv load completed");
    }
}

/// The `fig_kv` workload: the sharded KV server and N pipelining clients
/// (zipfian keys, get/set mix) over either socket layer, under a cost
/// model. Returns client-observed throughput.
pub fn kv_server_run(p: &KvRunParams) -> KvRunResult {
    let rig = KvRig::new(sim_with_config(p.cost.clone(), p.cpus, p.slice), p, 0);
    let KvLoad {
        stats,
        base_allocs,
        base_copies,
    } = rig.load(p);

    let report = rig.sim.report();
    let elapsed = report.now;
    let responses = stats.responses();
    let run_allocs = crate::allocmeter::alloc_count().saturating_sub(base_allocs) as u64;
    let run_copies = bytes::bytes_copied_total().saturating_sub(base_copies);
    let per_op = |total: u64| {
        if responses == 0 {
            0.0
        } else {
            total as f64 / responses as f64
        }
    };
    let pcts = stats.latency.percentiles(&[50.0, 95.0, 99.0]);
    let store = rig.server.store();
    KvRunResult {
        elapsed,
        responses,
        ops_per_sec: if elapsed == 0 {
            0.0
        } else {
            responses as f64 / (elapsed as f64 / 1e9)
        },
        hits: stats.hits.get(),
        misses: stats.misses.get(),
        bytes_in: stats.bytes_in.get(),
        bytes_out: stats.bytes_out.get(),
        p50_ns: pcts[0],
        p95_ns: pcts[1],
        p99_ns: pcts[2],
        io_wait_ns: report.io_wait_ns,
        lock_wait_ns: report.lock_wait_ns,
        store_lock_wait_ns: store.lock_wait_ns(),
        hot_shard_lock_wait_ns: store.shard_lock_waits().into_iter().max().unwrap_or(0),
        stm_retries: store.stm_retries(),
        cpus: report.cpus,
        cpu_utilization: report.avg_utilization(),
        allocs_per_op: per_op(run_allocs),
        copies_per_op: per_op(run_copies),
    }
}

/// Artifacts of [`kv_trace_run`]: the Chrome-trace export, the debug
/// service's `/metrics` and `/threads` bodies fetched over real (virtual)
/// connections, and the final report + telemetry hub for reconciliation.
pub struct KvTraceArtifacts {
    /// `TraceExport::to_chrome_json` over the whole run — Perfetto/
    /// `chrome://tracing` loadable, byte-identical across reruns at the
    /// same seed and configuration.
    pub chrome_json: String,
    /// Body of `GET /metrics` served by the mounted [`DebugService`](eveth_core::telemetry::DebugService)
    /// (text exposition format).
    pub metrics_body: String,
    /// Body of `GET /threads` (the live span table).
    pub threads_body: String,
    /// The runtime's own report, for reconciling against span sums.
    pub report: eveth_simos::SimReport,
    /// The telemetry hub the run recorded into.
    pub telemetry: Arc<eveth_core::telemetry::Telemetry>,
}

impl std::fmt::Debug for KvTraceArtifacts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "KvTraceArtifacts(chrome_json={}B, metrics={}B)",
            self.chrome_json.len(),
            self.metrics_body.len()
        )
    }
}

/// One `GET` against the debug service: connect, send the request line,
/// read to EOF (the service closes after one response), return the body.
fn debug_get(stack: &Arc<dyn NetStack>, ep: Endpoint, target: &str) -> ThreadM<Vec<u8>> {
    let stack = Arc::clone(stack);
    let req = Bytes::from(format!("GET {target} HTTP/1.0\r\n\r\n"));
    do_m! {
        let conn <- stack.connect(ep);
        let conn = conn.expect("debug service reachable");
        let sent <- send_all(&conn, req);
        let _ = sent.expect("request sent");
        loop_m((Vec::new(), conn), move |(mut acc, conn)| {
            conn.recv(16 * 1024).map(move |res| match res {
                Ok(chunk) if chunk.is_empty() => Loop::Break(acc),
                Ok(chunk) => {
                    acc.extend_from_slice(&chunk);
                    Loop::Continue((acc, conn))
                }
                Err(_) => Loop::Break(acc),
            })
        })
    }
}

/// Strips the HTTP/1.0 head off a debug-service response.
fn http_body(raw: &[u8]) -> String {
    let text = String::from_utf8_lossy(raw);
    match text.split_once("\r\n\r\n") {
        Some((_, body)) => body.to_string(),
        None => text.into_owned(),
    }
}

/// The observability variant of [`kv_server_run`]: the same KV rig with
/// a telemetry hub attached to the runtime and both servers, a
/// [`DebugService`](eveth_core::telemetry::DebugService) mounted beside
/// the KV server on the same host, the bounded-send reply path switched
/// on, and a real client fetch of `/metrics` and `/threads` at the end of
/// the load. Returns the exported artifacts instead of throughput
/// numbers.
pub fn kv_trace_run(p: &KvRunParams) -> KvTraceArtifacts {
    use eveth_core::telemetry::{DebugService, Telemetry, TraceExport};

    const DEBUG_PORT: u16 = 11280;

    let sim = sim_with_config(p.cost.clone(), p.cpus, p.slice);
    let telemetry = Telemetry::new();
    assert!(sim.set_telemetry(Arc::clone(&telemetry)));
    // The send deadline is far above any virtual transfer time, so the
    // timeout count stays 0 — but the metric is live and the
    // `send_all_within` race runs.
    let rig = KvRig::new(sim, p, 50 * MILLIS);
    rig.server.attach_telemetry(&telemetry);
    let debug = Server::new(
        rig.hosts.stack(1),
        DebugService::new(&telemetry),
        SvcConfig {
            port: DEBUG_PORT,
            ..Default::default()
        },
    );
    debug.attach_telemetry(&telemetry, "debug");
    rig.sim.spawn(debug.run());
    rig.load(p);

    // Live introspection over the wire: the debug service answers on its
    // own port while the KV server is still mounted beside it.
    let client_stack = rig.hosts.stack(2);
    let fetch = |target: &str| {
        let got = debug_get(&client_stack, Endpoint::new(HostId(1), DEBUG_PORT), target);
        http_body(&rig.sim.block_on(got).expect("debug service answered"))
    };
    let metrics_body = fetch("/metrics");
    let threads_body = fetch("/threads");

    let report = rig.sim.report();
    let chrome_json = TraceExport::from_telemetry(&telemetry).to_chrome_json();
    KvTraceArtifacts {
        chrome_json,
        metrics_body,
        threads_body,
        report,
        telemetry,
    }
}

// ---------------------------------------------------------------------------
// The C1M scale scenarios (`fig_scale`).
// ---------------------------------------------------------------------------

/// Port every scale scenario's echo server listens on.
const SCALE_PORT: u16 = 7070;

/// The `fig_scale` echo service: no session state, every chunk echoed
/// back. Per-session cost is exactly the framework's own — the scale
/// scenarios measure the server plumbing (accept, session loop, idle
/// reaping, registration hygiene), not a protocol.
struct EchoService;

impl Service for EchoService {
    type Session = ();

    fn open(&self, _conn: &Arc<dyn Conn>) {}

    fn on_chunk(&self, conn: Arc<dyn Conn>, _session: (), chunk: Bytes) -> ThreadM<Step<()>> {
        send_all(&conn, chunk).map(|sent| match sent {
            Ok(()) => Step::Continue(()),
            Err(_) => Step::Close,
        })
    }
}

/// Builds the scale scenarios' standard rig: a multi-CPU sim on a
/// loopback-class link with an [`EchoService`] server on `HostId(1)`
/// (already spawned) and the shared client stack on `HostId(2)`.
#[allow(clippy::type_complexity)]
fn scale_rig(
    cpus: usize,
    idle_timeout: Nanos,
) -> (SimRuntime, Arc<Server<EchoService>>, Arc<dyn NetStack>) {
    let sim = sim_with_config(CostModel::monadic(), cpus, 32);
    let hosts = Hosts::new(&sim, LinkParams::loopback(), None, 0);
    let server = Server::new(
        hosts.stack(1),
        EchoService,
        SvcConfig {
            port: SCALE_PORT,
            idle_timeout,
            ..Default::default()
        },
    );
    sim.spawn(server.run());
    let clients = hosts.stack(2);
    (sim, server, clients)
}

/// Shuts the rig down, waits for the drain barrier, runs the sim to
/// quiescence, and assembles the common result fields. `elapsed` is the
/// scenario makespan sampled *before* shutdown so ops/s measures the
/// workload, not the teardown.
fn scale_teardown(
    sim: &SimRuntime,
    server: &Arc<Server<EchoService>>,
    elapsed: Nanos,
    latencies: &LatencyHistogram,
    ops: u64,
) -> ScaleRunResult {
    // Residue check BEFORE shutdown: every ended session must already
    // have withdrawn its registration on the shutdown broadcast — after
    // a churn storm the count reflects live sessions only. The
    // running acceptor always holds exactly one registration (its
    // accept/shutdown `choose`); subtract it so the figure reads "live
    // sessions".
    let shutdown_physical_waiters = server.shutdown_signal().waiter_count().saturating_sub(1);
    server.shutdown();
    sim.block_on(sync(server.drained_signal().wait_evt()))
        .expect("scale server drained");
    sim.run();
    let pcts = latencies.percentiles(&[50.0, 99.0]);
    let report = sim.report();
    ScaleRunResult {
        elapsed,
        ops,
        ops_per_sec: if elapsed == 0 {
            0.0
        } else {
            ops as f64 / (elapsed as f64 / 1e9)
        },
        p50_ns: pcts[0],
        p99_ns: pcts[1],
        io_wait_ns: report.io_wait_ns,
        lock_wait_ns: report.lock_wait_ns,
        accepted: server.stats().accepted.get(),
        idle_reaped: server.stats().idle_reaped.get(),
        shutdown_physical_waiters,
        live_threads_after: sim.live_threads(),
        bytes_per_conn: 0,
        allocs_per_conn: 0,
        cpus: report.cpus,
        cpu_utilization: report.avg_utilization(),
    }
}

/// Outcome of one scale-scenario cell ([`churn_run`], [`slowloris_run`],
/// [`resident_run`]). Fields a scenario does not exercise stay zero.
#[derive(Debug, Clone, Copy)]
pub struct ScaleRunResult {
    /// Virtual time from start to workload completion (teardown excluded).
    pub elapsed: Nanos,
    /// Operations completed — connect/echo/close cycles for churn,
    /// echo round trips for slowloris, connections established for
    /// resident.
    pub ops: u64,
    /// Operations per virtual second.
    pub ops_per_sec: f64,
    /// Median per-operation virtual-time latency.
    pub p50_ns: Nanos,
    /// 99th-percentile per-operation latency.
    pub p99_ns: Nanos,
    /// Runtime-wide virtual nanoseconds blocked on I/O readiness.
    pub io_wait_ns: Nanos,
    /// Runtime-wide pure lock wait (`sys_park`).
    pub lock_wait_ns: Nanos,
    /// Connections the server accepted.
    pub accepted: u64,
    /// Sessions reaped by the idle deadline.
    pub idle_reaped: u64,
    /// Waiter registrations on the server's shutdown broadcast, sampled
    /// after the workload and before shutdown. Equals the number of
    /// then-live sessions — after a churn storm that is the leak
    /// regression signal: ended sessions must have withdrawn their entries.
    pub shutdown_physical_waiters: usize,
    /// Monadic threads still alive after shutdown + drain + run-to-
    /// quiescence. Anything nonzero is a leaked thread.
    pub live_threads_after: i64,
    /// Live heap bytes per held-open connection (resident scenario only;
    /// whole-system: client thread + socket pair + server session). Zero
    /// when the harness's counting allocator is not installed.
    pub bytes_per_conn: u64,
    /// Allocator calls per held-open connection (resident scenario only).
    pub allocs_per_conn: u64,
    /// Virtual CPUs the run executed on.
    pub cpus: usize,
    /// Mean CPU utilization over the run.
    pub cpu_utilization: f64,
}

/// Parameters for [`churn_run`].
#[derive(Debug, Clone, Copy)]
pub struct ChurnParams {
    /// Virtual CPUs.
    pub cpus: usize,
    /// Total connect → echo → close cycles across the run.
    pub connections: u64,
    /// Workers churning concurrently; each runs its share of
    /// `connections` sequentially.
    pub concurrent: u64,
    /// Echo payload bytes per cycle.
    pub payload: usize,
}

/// The connect/disconnect storm: `connections` total connect → echo →
/// close cycles against the echo [`Server`], `concurrent` of them in
/// flight at once. The cell exists to prove per-connection state is
/// reclaimed under churn: afterwards the shutdown broadcast holds zero
/// physical waiter registrations and no threads outlive the drain.
pub fn churn_run(p: &ChurnParams) -> ScaleRunResult {
    assert!(p.concurrent >= 1 && p.connections >= p.concurrent);
    let (sim, server, stack) = scale_rig(p.cpus, 0);

    let latencies = Arc::new(LatencyHistogram::with_capacity(p.connections as usize));
    let done = Arc::new(AtomicU64::new(0));
    let payload = Bytes::from(vec![0x5Au8; p.payload]);
    for w in 0..p.concurrent {
        let stack = Arc::clone(&stack);
        let quota = p.connections / p.concurrent + u64::from(w < p.connections % p.concurrent);
        let latencies = Arc::clone(&latencies);
        let done = Arc::clone(&done);
        let payload = payload.clone();
        let n = p.payload;
        sim.spawn(loop_m(0u64, move |cycles| {
            if cycles == quota {
                let done = Arc::clone(&done);
                return sys_nbio(move || {
                    done.fetch_add(1, Ordering::SeqCst);
                })
                .map(|_| Loop::Break(()));
            }
            let stack = Arc::clone(&stack);
            let latencies = Arc::clone(&latencies);
            let payload = payload.clone();
            do_m! {
                let t0 <- sys_time();
                let conn <- stack.connect(Endpoint::new(HostId(1), SCALE_PORT));
                let conn = conn.expect("churn connect");
                let sent <- send_all(&conn, payload);
                let _ = sent.expect("churn send");
                let back <- recv_exact(&conn, n);
                let _ = back.expect("churn echo");
                conn.close();
                let t1 <- sys_time();
                sys_nbio(move || latencies.record(t1 - t0));
                ThreadM::pure(Loop::Continue(cycles + 1))
            }
        }));
    }

    // Wait for every cycle AND for the server to see the last close —
    // the residue sample in teardown must not race a session that is
    // still winding down.
    let (workers, srv) = (p.concurrent, Arc::clone(&server));
    sim.block_on(poll_until(50 * MICROS, move || {
        done.load(Ordering::SeqCst) == workers && srv.active() == 0
    }))
    .expect("churn completed");
    let elapsed = sim.now();
    scale_teardown(&sim, &server, elapsed, &latencies, p.connections)
}

/// Parameters for [`slowloris_run`].
#[derive(Debug, Clone, Copy)]
pub struct SlowlorisParams {
    /// Virtual CPUs.
    pub cpus: usize,
    /// Slow readers: connect, never send, hold the connection open until
    /// the server reaps them.
    pub slow: u64,
    /// Well-behaved echo clients running alongside.
    pub busy: u64,
    /// Echo round trips each busy client completes on its connection.
    pub cycles: u64,
    /// Echo payload bytes.
    pub payload: usize,
    /// Server idle deadline (virtual ns); must exceed a loopback echo
    /// round trip and undercut the run so every slow reader is reaped.
    pub idle_timeout: Nanos,
}

/// The slowloris cell: `slow` connections that never send a byte squat on
/// server sessions while `busy` clients echo through the same server. The
/// idle deadline must reap every squatter (`idle_reaped == slow`) without
/// disturbing live traffic, and a reaped session must unwind completely —
/// no orphan thread, no residual registrations.
pub fn slowloris_run(p: &SlowlorisParams) -> ScaleRunResult {
    assert!(p.idle_timeout > 0);
    let (sim, server, stack) = scale_rig(p.cpus, p.idle_timeout);

    let done = Arc::new(AtomicU64::new(0));
    let latencies = Arc::new(LatencyHistogram::new());
    for _ in 0..p.slow {
        let stack = Arc::clone(&stack);
        let done = Arc::clone(&done);
        sim.spawn(do_m! {
            let conn <- stack.connect(Endpoint::new(HostId(1), SCALE_PORT));
            let conn = conn.expect("slow connect");
            // Parked here until the server reaps us: EOF or a reset —
            // either way the squat is over.
            let hangup <- conn.recv(1024);
            let _ = hangup;
            conn.close();
            sys_nbio(move || { done.fetch_add(1, Ordering::SeqCst); })
        });
    }
    let payload = Bytes::from(vec![0x5Au8; p.payload]);
    for _ in 0..p.busy {
        let stack = Arc::clone(&stack);
        let done = Arc::clone(&done);
        let latencies = Arc::clone(&latencies);
        let payload = payload.clone();
        let n = p.payload;
        let cycles = p.cycles;
        sim.spawn(do_m! {
            let conn <- stack.connect(Endpoint::new(HostId(1), SCALE_PORT));
            let conn = conn.expect("busy connect");
            loop_m((0u64, conn), move |(i, conn)| {
                if i == cycles {
                    let done = Arc::clone(&done);
                    return do_m! {
                        conn.close();
                        sys_nbio(move || { done.fetch_add(1, Ordering::SeqCst); })
                    }
                    .map(|_| Loop::Break(()));
                }
                let latencies = Arc::clone(&latencies);
                let payload = payload.clone();
                do_m! {
                    let t0 <- sys_time();
                    let sent <- send_all(&conn, payload);
                    let _ = sent.expect("busy send");
                    let back <- recv_exact(&conn, n);
                    let _ = back.expect("busy echo");
                    let t1 <- sys_time();
                    sys_nbio(move || latencies.record(t1 - t0))
                        .map(move |_| Loop::Continue((i + 1, conn)))
                }
            })
        });
    }

    let (target, srv) = (p.slow + p.busy, Arc::clone(&server));
    sim.block_on(poll_until(50 * MICROS, move || {
        done.load(Ordering::SeqCst) == target && srv.active() == 0
    }))
    .expect("slowloris completed");
    let elapsed = sim.now();
    scale_teardown(&sim, &server, elapsed, &latencies, p.busy * p.cycles)
}

/// Parameters for [`resident_run`].
#[derive(Debug, Clone, Copy)]
pub struct ResidentParams {
    /// Virtual CPUs.
    pub cpus: usize,
    /// Connections held open concurrently.
    pub connections: u64,
    /// Bytes each connection echoes once before parking.
    pub payload: usize,
}

/// The resident-memory cell: `connections` clients connect, complete one
/// echo round trip (so every session has run its hot path), then park in
/// `recv` holding the connection open. With the harness's counting
/// allocator installed, the live-heap delta divided by the connection
/// count is the whole-system bytes-per-connection figure the CI budget
/// gates — client thread, socket pair and server session included.
pub fn resident_run(p: &ResidentParams) -> ScaleRunResult {
    assert!(p.connections >= 1);
    let (sim, server, stack) = scale_rig(p.cpus, 0);
    // Let the acceptor install itself before taking the heap baseline.
    sim.block_on(sys_sleep(MILLIS)).expect("acceptor up");
    let base_live = crate::allocmeter::live_bytes();
    let base_allocs = crate::allocmeter::alloc_count();

    let ready = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicU64::new(0));
    let latencies = Arc::new(LatencyHistogram::with_capacity(p.connections as usize));
    let payload = Bytes::from(vec![0x5Au8; p.payload]);
    for _ in 0..p.connections {
        let stack = Arc::clone(&stack);
        let ready = Arc::clone(&ready);
        let done = Arc::clone(&done);
        let latencies = Arc::clone(&latencies);
        let payload = payload.clone();
        let n = p.payload;
        sim.spawn(do_m! {
            let t0 <- sys_time();
            let conn <- stack.connect(Endpoint::new(HostId(1), SCALE_PORT));
            let conn = conn.expect("resident connect");
            let sent <- send_all(&conn, payload);
            let _ = sent.expect("resident send");
            let back <- recv_exact(&conn, n);
            let _ = back.expect("resident echo");
            let t1 <- sys_time();
            sys_nbio(move || {
                latencies.record(t1 - t0);
                ready.fetch_add(1, Ordering::SeqCst);
            });
            // Park until shutdown hangs up on us.
            let hangup <- conn.recv(1024);
            let _ = hangup;
            conn.close();
            sys_nbio(move || { done.fetch_add(1, Ordering::SeqCst); })
        });
    }

    let target = p.connections;
    sim.block_on(poll_until(50 * MICROS, move || {
        ready.load(Ordering::SeqCst) == target
    }))
    .expect("resident connections up");
    let elapsed = sim.now();
    let bytes_per_conn =
        crate::allocmeter::live_bytes().saturating_sub(base_live) as u64 / p.connections;
    let allocs_per_conn =
        crate::allocmeter::alloc_count().saturating_sub(base_allocs) as u64 / p.connections;

    // Shutdown closes every parked session; the clients unblock on the
    // hangup and retire before the drain barrier check in teardown.
    let mut r = scale_teardown(&sim, &server, elapsed, &latencies, p.connections);
    r.bytes_per_conn = bytes_per_conn;
    r.allocs_per_conn = allocs_per_conn;
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_workload_produces_paper_scale_throughput() {
        let r = disk_head_scheduling(CostModel::monadic(), DiskSched::CLook, 4, 256, 3)
            .expect("under cap");
        assert!(r.mb_s > 0.2 && r.mb_s < 2.0, "throughput {} MB/s", r.mb_s);
    }

    #[test]
    fn disk_workload_respects_thread_cap() {
        let mut cost = CostModel::nptl();
        cost.max_threads = Some(8);
        assert!(disk_head_scheduling(cost, DiskSched::CLook, 16, 64, 3).is_none());
    }

    #[test]
    fn kv_workload_answers_every_pipelined_command() {
        for app_tcp in [false, true] {
            let r = kv_server_run(&KvRunParams {
                cost: CostModel::monadic(),
                cpus: 1,
                slice: 256,
                app_tcp,
                loopback: false,
                shards: 4,
                stm: false,
                clients: 4,
                batches_per_conn: 4,
                pipeline_depth: 4,
                set_percent: 30,
                keys: 64,
                value_bytes: 64,
                preload: false,
                seed: 11,
            });
            assert_eq!(r.responses, 4 * 4 * 4, "app_tcp={app_tcp}");
            assert!(r.ops_per_sec > 0.0);
            assert!(r.hit_ratio() <= 1.0);
            assert!(r.p99_ns >= r.p50_ns && r.p50_ns > 0);
        }
    }

    #[test]
    fn kv_contended_single_shard_reports_lock_wait_and_tail_latency() {
        // The fig_kv smoke property: one shard under eight pipelining
        // clients on four virtual CPUs (with a slice small enough that
        // sessions preempt inside batches) must show real lock contention
        // (nonzero wait) and a sane latency distribution.
        let r = kv_server_run(&KvRunParams {
            cost: CostModel::monadic(),
            cpus: 4,
            slice: 8,
            app_tcp: false,
            loopback: true,
            shards: 1,
            stm: false,
            clients: 8,
            batches_per_conn: 8,
            pipeline_depth: 8,
            set_percent: 10,
            keys: 256,
            value_bytes: 64,
            preload: false,
            seed: 42,
        });
        assert_eq!(r.responses, 8 * 8 * 8);
        assert!(r.p50_ns > 0, "p50 recorded");
        assert!(r.p99_ns >= r.p50_ns, "p99 {} >= p50 {}", r.p99_ns, r.p50_ns);
        assert!(
            r.lock_wait_ns > 0,
            "a 1-shard/8-client run must report lock wait"
        );
        assert!(
            r.store_lock_wait_ns > 0,
            "the contended shard gate must report its own wait"
        );
        assert!(
            r.io_wait_ns > 0,
            "a socket workload must report readiness wait"
        );
        assert_eq!(r.stm_retries, 0, "mutex backend never retries");
        assert_eq!(r.cpus, 4);
    }

    #[test]
    fn kv_sharding_beats_single_shard_on_contended_multicpu_workload() {
        // The regression the multi-CPU model exists to catch: with 4 CPUs
        // and a contended zipfian workload, 8 shards must strictly
        // out-throughput 1 shard (the sweep was flat under the old
        // single-CPU simulator).
        let run = |shards: usize| {
            kv_server_run(&KvRunParams {
                cost: CostModel::monadic(),
                cpus: 4,
                slice: 8,
                app_tcp: false,
                loopback: true,
                shards,
                stm: false,
                clients: 64,
                batches_per_conn: 16,
                pipeline_depth: 8,
                set_percent: 10,
                keys: 1024,
                value_bytes: 100,
                preload: false,
                seed: 42,
            })
        };
        let one = run(1);
        let eight = run(8);
        assert!(
            eight.ops_per_sec > one.ops_per_sec,
            "8 shards ({:.0} ops/s) must beat 1 shard ({:.0} ops/s)",
            eight.ops_per_sec,
            one.ops_per_sec
        );
        assert!(
            one.lock_wait_ns > eight.lock_wait_ns,
            "1 shard must spend more time lock-waiting ({} vs {})",
            one.lock_wait_ns,
            eight.lock_wait_ns
        );
    }

    #[test]
    fn churn_cycles_every_connection_and_leaves_no_residue() {
        let r = churn_run(&ChurnParams {
            cpus: 4,
            connections: 256,
            concurrent: 32,
            payload: 64,
        });
        assert_eq!(r.ops, 256);
        assert_eq!(r.accepted, 256);
        assert!(r.ops_per_sec > 0.0);
        assert!(r.p99_ns >= r.p50_ns && r.p50_ns > 0);
        assert_eq!(
            r.shutdown_physical_waiters, 0,
            "ended sessions must withdraw their shutdown registrations"
        );
        assert_eq!(r.live_threads_after, 0, "no thread outlives the drain");
    }

    #[test]
    fn slowloris_reaps_exactly_the_slow_readers() {
        let r = slowloris_run(&SlowlorisParams {
            cpus: 4,
            slow: 16,
            busy: 8,
            cycles: 8,
            payload: 64,
            idle_timeout: 10 * MILLIS,
        });
        assert_eq!(r.idle_reaped, 16, "every squatter reaped, nothing else");
        assert_eq!(r.ops, 8 * 8);
        assert_eq!(r.accepted, 24);
        assert_eq!(r.shutdown_physical_waiters, 0);
        assert_eq!(r.live_threads_after, 0);
    }

    #[test]
    fn resident_holds_connections_open_until_shutdown() {
        let r = resident_run(&ResidentParams {
            cpus: 4,
            connections: 64,
            payload: 64,
        });
        assert_eq!(r.ops, 64);
        assert_eq!(r.accepted, 64);
        // All 64 sessions were live (parked on the shutdown broadcast)
        // when the residue sample was taken.
        assert_eq!(r.shutdown_physical_waiters, 64);
        assert_eq!(r.live_threads_after, 0);
        // Without the counting allocator installed (lib tests) the
        // memory figures read zero; either way they must not be junk.
        assert!(r.bytes_per_conn < 1 << 20);
    }

    #[test]
    fn web_workload_serves_everything() {
        let r = web_server_run(&WebRunParams {
            cost: CostModel::monadic(),
            files: 64,
            cache_bytes: 256 * 1024,
            connections: 4,
            requests_per_conn: 5,
            seed: 9,
        });
        assert_eq!(r.responses, 20);
        assert!(r.mb_s > 0.0);
        assert!(r.cache_hit_ratio >= 0.0);
    }
}
