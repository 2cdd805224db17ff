//! Ablations of the design choices DESIGN.md calls out.
//!
//! * **A1 — execution slice**: the paper runs each thread "for a large
//!   number of steps before switching ... to improve locality" (§4.2).
//! * **A2 — elevator vs FIFO disk scheduling**: what Figure 17 would look
//!   like without the kernel's head scheduling (§5.1).
//! * **A3 — server cache size**: the web server's own cache (§5.2).
//! * **A4 — kernel sockets vs application-level TCP** under the web
//!   server: the one-line switch, measured (§5.2).
//!
//! Run: `cargo bench --bench ablations`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use eveth::glue;
use eveth_bench::tables::{banner, mb_cell};
use eveth_bench::workloads::{
    disk_head_scheduling, mb_per_sec, sim_with, wait_counter, web_server_run, WebRunParams,
};
use eveth_core::net::{Endpoint, HostId, NetStack};
use eveth_core::syscall::sys_nbio;
use eveth_core::{loop_m, Loop};
use eveth_http::loadgen::{client_thread, corpus_paths, LoadConfig, LoadStats};
use eveth_http::server::{ServerConfig, WebServer};
use eveth_simos::cost::CostModel;
use eveth_simos::disk::{DiskGeometry, DiskSched, SimDisk};
use eveth_simos::fs::SimFs;
use eveth_simos::net::{LinkParams, SimNet};
use eveth_simos::sockets::{FabricParams, SocketFabric};
use eveth_simos::{SimClock, SimConfig, SimRuntime};
use eveth_tcp::tcb::TcpConfig;

/// A1: CPU-bound thread mix; virtual time vs slice length.
fn slice_ablation() {
    banner(
        "A1",
        "execution slice length (locality batching, §4.2)",
        "threads run many steps per scheduling turn to amortize switching",
    );
    const THREADS: u64 = 2_000;
    const STEPS: u64 = 200;
    println!("({THREADS} threads x {STEPS} non-blocking steps each)");
    println!(
        "{:>8} | {:>14} | {:>14}",
        "slice", "virtual ms", "ctx switches"
    );
    println!("{:->8}-+-{:->14}-+-{:->14}", "", "", "");
    for slice in [1usize, 4, 16, 64, 256, 1024] {
        let sim = SimRuntime::new(
            SimClock::new(),
            SimConfig {
                cost: CostModel::monadic(),
                slice,
                cpus: 1,
                ..SimConfig::default()
            },
        );
        let finished = Arc::new(AtomicU64::new(0));
        for _ in 0..THREADS {
            let finished = Arc::clone(&finished);
            sim.spawn(loop_m(0u64, move |i| {
                if i == STEPS {
                    let finished = Arc::clone(&finished);
                    return sys_nbio(move || {
                        finished.fetch_add(1, Ordering::SeqCst);
                    })
                    .map(|_| Loop::Break(()));
                }
                sys_nbio(move || std::hint::black_box(i)).map(move |_| Loop::Continue(i + 1))
            }));
        }
        wait_counter(&sim, finished, THREADS);
        let report = sim.report();
        println!(
            "{:>8} | {:>14.3} | {:>14}",
            slice,
            sim.now() as f64 / 1e6,
            report.stats.ctx_switches
        );
    }
    println!("longer slices amortize context switches; returns diminish once");
    println!("switch cost is negligible against real work.");
}

/// A2: Figure 17 with the elevator turned off.
fn elevator_ablation() {
    banner(
        "A2",
        "disk scheduling discipline (C-LOOK elevator vs FIFO)",
        "Figure 17's rise exists only because of head scheduling",
    );
    const READS: u64 = 8_192;
    println!(
        "{:>8} | {:>12} | {:>12}",
        "threads", "C-LOOK MB/s", "FIFO MB/s"
    );
    println!("{:->8}-+-{:->12}-+-{:->12}", "", "", "");
    for threads in [1u64, 16, 256, 4_096] {
        let clook = disk_head_scheduling(CostModel::monadic(), DiskSched::CLook, threads, READS, 2);
        let fifo = disk_head_scheduling(CostModel::monadic(), DiskSched::Fifo, threads, READS, 2);
        println!(
            "{:>8} | {} | {}",
            threads,
            mb_cell(clook.map(|r| r.mb_s)),
            mb_cell(fifo.map(|r| r.mb_s))
        );
    }
    println!("FIFO stays at the single-request baseline no matter the concurrency.");
}

/// A3: web-server cache budget sweep.
fn cache_ablation() {
    banner(
        "A3",
        "server cache size (the server \"implements its own caching\", §5.2)",
        "hit ratio and throughput vs cache budget at fixed concurrency",
    );
    let files = 512usize;
    let corpus = files * 16 * 1024;
    println!("{:>12} | {:>12} | {:>10}", "cache", "MB/s", "hit ratio");
    println!("{:->12}-+-{:->12}-+-{:->10}", "", "", "");
    for (label, cache_bytes) in [
        ("none", 1usize),
        ("5% corpus", corpus / 20),
        ("25% corpus", corpus / 4),
        ("100% corpus", corpus),
    ] {
        let r = web_server_run(&WebRunParams {
            cost: CostModel::monadic(),
            files,
            cache_bytes,
            connections: 128,
            requests_per_conn: 40,
            seed: 3,
        });
        println!(
            "{:>12} | {} | {:>9.1}%",
            label,
            mb_cell(Some(r.mb_s)),
            r.cache_hit_ratio * 100.0
        );
    }
    println!("a cache covering the working set converts the workload from");
    println!("disk-bound to CPU/network-bound (the paper's \"mostly-cached\" case).");
}

/// A4: kernel-socket model vs application-level TCP under the web server.
fn tcp_stack_ablation() {
    banner(
        "A4",
        "kernel sockets vs application-level TCP stack (§5.2's one-line switch)",
        "same server, same corpus, sockets swapped",
    );
    let files = 512usize;
    let connections = 32u64;
    let requests = 8usize;

    let run = |use_tcp: bool| -> (f64, u64) {
        let sim = sim_with(CostModel::monadic());
        let disk = SimDisk::new(
            sim.clock(),
            DiskGeometry::eide_7200_80gb(),
            DiskSched::CLook,
            4,
        );
        let fs = SimFs::new(disk);
        let paths = corpus_paths(files);
        for p in &paths {
            fs.add_file(p.clone(), 16 * 1024);
        }
        let (server_stack, client_stack): (Arc<dyn NetStack>, Arc<dyn NetStack>) = if use_tcp {
            let net = SimNet::new(sim.clock(), LinkParams::ethernet_100mbps(), 5);
            (
                glue::tcp_host_over_simnet(sim.ctx(), &net, HostId(1), TcpConfig::default()),
                glue::tcp_host_over_simnet(sim.ctx(), &net, HostId(2), TcpConfig::default()),
            )
        } else {
            let fabric = SocketFabric::new(sim.clock(), FabricParams::default());
            (fabric.stack(HostId(1)), fabric.stack(HostId(2)))
        };
        let server = WebServer::new(
            server_stack,
            fs,
            ServerConfig {
                port: 80,
                cache_bytes: files * 16 * 1024 / 10,
                ..Default::default()
            },
        );
        sim.spawn(server.run());
        let stats = Arc::new(LoadStats::default());
        let cfg = Arc::new(LoadConfig {
            server: Endpoint::new(HostId(1), 80),
            requests_per_conn: requests,
            paths: Arc::new(paths),
            seed: 6,
        });
        for id in 0..connections {
            sim.spawn(client_thread(
                Arc::clone(&client_stack),
                Arc::clone(&cfg),
                Arc::clone(&stats),
                id,
            ));
        }
        let done = Arc::new(AtomicU64::new(0));
        {
            let stats = Arc::clone(&stats);
            let done = Arc::clone(&done);
            sim.spawn(loop_m((), move |()| {
                let stats = Arc::clone(&stats);
                let done = Arc::clone(&done);
                eveth_core::do_m! {
                    eveth_core::syscall::sys_sleep(eveth_core::time::MILLIS);
                    let d <- sys_nbio(move || stats.clients_done.load(Ordering::Relaxed));
                    if d >= connections {
                        sys_nbio(move || { done.store(1, Ordering::SeqCst); }).map(|_| Loop::Break(()))
                    } else {
                        eveth_core::ThreadM::pure(Loop::Continue(()))
                    }
                }
            }));
        }
        wait_counter(&sim, done, 1);
        (
            mb_per_sec(stats.bytes.load(Ordering::Relaxed), sim.now()),
            stats.responses(),
        )
    };

    let (kernel_mb, kernel_resp) = run(false);
    let (tcp_mb, tcp_resp) = run(true);
    println!(
        "{:>18} | {:>12} | {:>10}",
        "socket stack", "MB/s", "responses"
    );
    println!("{:->18}-+-{:->12}-+-{:->10}", "", "", "");
    println!(
        "{:>18} | {} | {:>10}",
        "kernel model",
        mb_cell(Some(kernel_mb)),
        kernel_resp
    );
    println!(
        "{:>18} | {} | {:>10}",
        "eveth-tcp",
        mb_cell(Some(tcp_mb)),
        tcp_resp
    );
    println!("the application-level stack carries the same workload; its cost is");
    println!("protocol processing on the host CPU (the paper's zero-copy motivation).");
}

fn main() {
    slice_ablation();
    elevator_ablation();
    cache_ablation();
    tcp_stack_ablation();
}
