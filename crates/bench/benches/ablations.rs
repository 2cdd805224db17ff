//! Ablations of the design choices DESIGN.md calls out.
//!
//! * **A1 — execution slice**: the paper runs each thread "for a large
//!   number of steps before switching ... to improve locality" (§4.2).
//! * **A2 — elevator vs FIFO disk scheduling**: what Figure 17 would look
//!   like without the kernel's head scheduling (§5.1).
//! * **A3 — server cache size**: the web server's own cache (§5.2).
//! * **A4 — kernel sockets vs application-level TCP** under the web
//!   server on a cached corpus: the one-line switch, measured (§5.2).
//!
//! Each ablation asserts the claim it prints, so a run that no longer
//! shows it fails. A3 and A4 also assert that no row beats the line rate
//! of the 100 Mbps link both socket stacks share.
//!
//! Run: `cargo bench --bench ablations`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use eveth_bench::tables::{banner, mb_cell};
use eveth_bench::workloads::{
    disk_head_scheduling, web_server_run, web_server_run_on, WebRunParams,
};
use eveth_core::syscall::sys_nbio;
use eveth_core::time::MILLIS;
use eveth_core::{loop_m, poll_until, Loop};
use eveth_simos::cost::CostModel;
use eveth_simos::disk::DiskSched;
use eveth_simos::net::LinkParams;
use eveth_simos::{SimClock, SimConfig, SimRuntime};

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
    let mut last = (f64::INFINITY, u64::MAX);
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
        sim.block_on(poll_until(MILLIS, move || {
            finished.load(Ordering::SeqCst) >= THREADS
        }))
        .expect("slice ablation completed");
        let (ms, switches) = (sim.now() as f64 / 1e6, sim.report().stats.ctx_switches);
        println!("{:>8} | {:>14.3} | {:>14}", slice, ms, switches);
        assert!(
            ms <= last.0 && switches <= last.1,
            "A1: a longer slice must never cost more virtual time or switches"
        );
        last = (ms, switches);
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
    let mut fifo_one_thread = None;
    for threads in [1u64, 16, 256, 4_096] {
        let run = |sched| {
            disk_head_scheduling(CostModel::monadic(), sched, threads, READS, 2)
                .expect("monadic threads are uncapped")
                .mb_s
        };
        let (clook, fifo) = (run(DiskSched::CLook), run(DiskSched::Fifo));
        println!(
            "{:>8} | {} | {}",
            threads,
            mb_cell(Some(clook)),
            mb_cell(Some(fifo))
        );
        let base = *fifo_one_thread.get_or_insert(fifo);
        assert!(
            (fifo - base).abs() <= 0.01 * base,
            "A2: FIFO must stay within 1% of its 1-thread rate"
        );
        assert!(
            threads < 16 || clook > fifo,
            "A2: C-LOOK must beat FIFO at 16 threads and above"
        );
    }
    println!("FIFO stays at the single-request baseline no matter the concurrency.");
}

/// The web cells' link at line rate, in the tables' MB/s (2^20 bytes).
fn line_rate_mb_s() -> f64 {
    LinkParams::ethernet_100mbps().bandwidth_bps as f64 / 8.0 / (1u64 << 20) as f64
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
    let mut last = (0.0, -1.0);
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
        assert!(
            r.mb_s > last.0 && r.cache_hit_ratio > last.1,
            "A3: throughput and hit ratio must rise with the cache budget"
        );
        assert!(
            r.mb_s <= line_rate_mb_s(),
            "A3: {label} reads {:.3} MB/s, above the link's {:.3} MB/s line rate",
            r.mb_s,
            line_rate_mb_s()
        );
        last = (r.mb_s, r.cache_hit_ratio);
    }
    println!("a cache covering the working set converts the workload from");
    println!("disk-bound to CPU/network-bound (the paper's \"mostly-cached\" case).");
}

/// A4: kernel-socket model vs application-level TCP under the web server,
/// on a corpus the server cache holds whole, so the disk stays out of
/// the way and the stacks carry the load.
fn tcp_stack_ablation() {
    banner(
        "A4",
        "kernel sockets vs application-level TCP stack (§5.2's one-line switch)",
        "same server, same cached corpus, sockets swapped",
    );
    let files = 32usize;
    let run = |app_tcp: bool| {
        let p = WebRunParams {
            cost: CostModel::monadic(),
            files,
            cache_bytes: files * 16 * 1024,
            connections: 32,
            requests_per_conn: 40,
            seed: 4,
        };
        let r = web_server_run_on(&p, app_tcp);
        assert_eq!(
            r.responses,
            p.connections * p.requests_per_conn as u64,
            "A4: every request is answered (app_tcp = {app_tcp})"
        );
        r
    };
    let (kernel, tcp) = (run(false), run(true));
    println!(
        "{:>18} | {:>12} | {:>10} | {:>10}",
        "socket stack", "MB/s", "hit ratio", "responses"
    );
    println!("{:->18}-+-{:->12}-+-{:->10}-+-{:->10}", "", "", "", "");
    for (label, r) in [("kernel model", &kernel), ("eveth-tcp", &tcp)] {
        println!(
            "{:>18} | {} | {:>9.1}% | {:>10}",
            label,
            mb_cell(Some(r.mb_s)),
            r.cache_hit_ratio * 100.0,
            r.responses
        );
        assert!(
            r.mb_s <= line_rate_mb_s(),
            "A4: {label} reads {:.3} MB/s, above the link's {:.3} MB/s line rate",
            r.mb_s,
            line_rate_mb_s()
        );
    }
    assert!(
        kernel.mb_s >= tcp.mb_s,
        "A4: the kernel model ({:.3} MB/s) must carry at least what eveth-tcp does ({:.3})",
        kernel.mb_s,
        tcp.mb_s
    );
    println!(
        "with the corpus cached, both stacks run the shared link near its {:.2} MB/s",
        line_rate_mb_s()
    );
    println!("line rate; eveth-tcp's segments also carry TCP/IP headers, the");
    println!("kernel model's bytes do not.");
}

fn main() {
    slice_ablation();
    elevator_ablation();
    cache_ablation();
    tcp_stack_ablation();
}
