//! The KV service sweep behind both the `fig_kv` bench target and the
//! `fig_kv` binary (`cargo run --release -p eveth-bench --bin fig_kv`):
//! one shared implementation so CI and ad-hoc runs regenerate the exact
//! same `BENCH_kv.json`.
//!
//! KV service throughput — the repository's second workload, benched in
//! the style of the paper's figures: the same monadic program swept across
//! client counts, pipeline depths, shard counts, shard backends, virtual
//! CPU counts and both socket layers, under the monadic cost model.
//!
//! Every row carries tail latency (p50/p95/p99 of per-command
//! virtual-time latency, as the memcached literature reports) plus the
//! full wait taxonomy: runtime-wide I/O wait (`io_wait_ns`, readiness
//! blocking on sockets), *pure* lock wait (`lock_wait_ns`, `sys_park`
//! only — the two are disjoint now that the socket stacks block via
//! `sys_epoll_wait`), the store's own shard-gate wait
//! (`store_lock_wait_ns`) and STM transaction retries (`stm_retries`,
//! the STM backend's contention signal). The *contention* sweep runs the
//! zipfian workload across `cpus × shards` on a loopback-class link — the
//! regime where the multi-CPU simulator makes sharding visible: a hot
//! shard lock stretches virtual time for every waiter while disjoint
//! shards overlap.
//!
//! Beyond the human-readable table, results land in `BENCH_kv.json` at the
//! workspace root (via `eveth_bench::tables::write_golden`) so future
//! PRs can track the perf trajectory mechanically; CI fails if the
//! contended 8-shard configuration stops beating 1 shard.
//!
//! Run: `cargo bench --bench fig_kv` (EVETH_FULL=1 for the larger sweep).

use crate::tables::{banner, count, write_golden, JsonVal};
use crate::workloads::{kv_server_run, kv_trace_run, KvRunParams, KvRunResult};
use eveth_simos::cost::CostModel;

struct Sweep {
    clients: Vec<u64>,
    depths: Vec<usize>,
    shards: Vec<usize>,
    contention_cpus: Vec<usize>,
    contention_shards: Vec<usize>,
}

fn base_params() -> KvRunParams {
    KvRunParams {
        cost: CostModel::monadic(),
        cpus: 1,
        slice: 256,
        app_tcp: false,
        loopback: false,
        shards: 8,
        stm: false,
        clients: 16,
        batches_per_conn: 16,
        pipeline_depth: 8,
        set_percent: 10,
        keys: 1024,
        value_bytes: 100,
        preload: false,
        seed: 42,
    }
}

/// The contended configuration: many pipelining clients on a
/// loopback-class link with a slice small enough that sessions preempt
/// inside batches — CPU- and lock-bound, not RTT-bound.
fn contention_params() -> KvRunParams {
    KvRunParams {
        loopback: true,
        slice: 8,
        clients: 64,
        ..base_params()
    }
}

fn run_cell(p: KvRunParams) -> KvRunResult {
    kv_server_run(&p)
}

/// One JSON row with the full column set (identical schema across sweeps).
fn row(
    sweep: &str,
    stack: &str,
    backend: &str,
    p: &KvRunParams,
    r: &KvRunResult,
) -> Vec<(&'static str, JsonVal)> {
    vec![
        ("sweep", JsonVal::Str(sweep.into())),
        ("stack", JsonVal::Str(stack.into())),
        ("clients", JsonVal::Int(p.clients)),
        ("pipeline_depth", JsonVal::Int(p.pipeline_depth as u64)),
        ("shards", JsonVal::Int(p.shards as u64)),
        ("backend", JsonVal::Str(backend.into())),
        ("cpus", JsonVal::Int(p.cpus as u64)),
        ("slice", JsonVal::Int(p.slice as u64)),
        ("value_bytes", JsonVal::Int(p.value_bytes as u64)),
        ("responses", JsonVal::Int(r.responses)),
        ("ops_per_sec", JsonVal::Num(r.ops_per_sec)),
        ("hit_ratio", JsonVal::Num(r.hit_ratio())),
        ("virtual_ns", JsonVal::Int(r.elapsed)),
        ("p50_ns", JsonVal::Int(r.p50_ns)),
        ("p95_ns", JsonVal::Int(r.p95_ns)),
        ("p99_ns", JsonVal::Int(r.p99_ns)),
        ("io_wait_ns", JsonVal::Int(r.io_wait_ns)),
        ("lock_wait_ns", JsonVal::Int(r.lock_wait_ns)),
        ("store_lock_wait_ns", JsonVal::Int(r.store_lock_wait_ns)),
        ("stm_retries", JsonVal::Int(r.stm_retries)),
        ("cpu_utilization", JsonVal::Num(r.cpu_utilization)),
        ("allocs_per_op", JsonVal::Num(r.allocs_per_op)),
        ("copies_per_op", JsonVal::Num(r.copies_per_op)),
    ]
}

/// Runs the whole sweep and writes `BENCH_kv.json` at the workspace
/// root. Exits the process nonzero if the JSON drop cannot be written.
pub fn run() {
    let full = crate::full_scale();
    let sweep = if full {
        Sweep {
            clients: vec![1, 4, 16, 64, 256, 1024],
            depths: vec![1, 2, 4, 8, 16, 32],
            shards: vec![1, 2, 4, 8, 16, 32],
            contention_cpus: vec![1, 2, 4, 8],
            contention_shards: vec![1, 2, 4, 8],
        }
    } else {
        Sweep {
            clients: vec![1, 4, 16, 64],
            depths: vec![1, 4, 16],
            shards: vec![1, 4, 16],
            contention_cpus: vec![1, 4],
            contention_shards: vec![1, 8],
        }
    };
    let mut rows: Vec<Vec<(&str, JsonVal)>> = Vec::new();

    banner(
        "KV / second workload",
        "memcached-style KV throughput vs clients, depth, shards, CPUs",
        "the §5.2 architecture applied to a second protocol; both sides of the one-line NetStack switch",
    );

    // ---- throughput vs concurrent clients, both socket layers ------------
    println!();
    println!(
        "{:>8} | {:>14} | {:>14} | {:>9}",
        "clients", "sockets ops/s", "app-tcp ops/s", "hit rate"
    );
    println!("{:->8}-+-{:->14}-+-{:->14}-+-{:->9}", "", "", "", "");
    for &clients in &sweep.clients {
        let p_sock = KvRunParams {
            clients,
            ..base_params()
        };
        let sock = run_cell(p_sock.clone());
        let p_tcp = KvRunParams {
            clients,
            app_tcp: true,
            ..base_params()
        };
        let tcp = run_cell(p_tcp.clone());
        println!(
            "{:>8} | {:>14} | {:>14} | {:>8.1}%",
            clients,
            count(sock.ops_per_sec as u64),
            count(tcp.ops_per_sec as u64),
            sock.hit_ratio() * 100.0
        );
        rows.push(row("clients", "sockets", "mutex", &p_sock, &sock));
        rows.push(row("clients", "app-tcp", "mutex", &p_tcp, &tcp));
    }

    // ---- throughput vs pipeline depth ------------------------------------
    println!();
    println!(
        "{:>8} | {:>14} | {:>12} | {:>12}",
        "depth", "ops/s", "p50 ns", "p99 ns"
    );
    println!("{:->8}-+-{:->14}-+-{:->12}-+-{:->12}", "", "", "", "");
    for &depth in &sweep.depths {
        let p = KvRunParams {
            pipeline_depth: depth,
            ..base_params()
        };
        let r = run_cell(p.clone());
        println!(
            "{:>8} | {:>14} | {:>12} | {:>12}",
            depth,
            count(r.ops_per_sec as u64),
            count(r.p50_ns),
            count(r.p99_ns)
        );
        rows.push(row("pipeline_depth", "sockets", "mutex", &p, &r));
    }

    // ---- throughput vs shard count, both backends ------------------------
    println!();
    println!(
        "{:>8} | {:>14} | {:>14}",
        "shards", "mutex ops/s", "stm ops/s"
    );
    println!("{:->8}-+-{:->14}-+-{:->14}", "", "", "");
    for &shards in &sweep.shards {
        let p_mutex = KvRunParams {
            shards,
            ..base_params()
        };
        let mutex = run_cell(p_mutex.clone());
        let p_stm = KvRunParams {
            shards,
            stm: true,
            ..base_params()
        };
        let stm = run_cell(p_stm.clone());
        println!(
            "{:>8} | {:>14} | {:>14}",
            shards,
            count(mutex.ops_per_sec as u64),
            count(stm.ops_per_sec as u64)
        );
        rows.push(row("shards", "sockets", "mutex", &p_mutex, &mutex));
        rows.push(row("shards", "sockets", "stm", &p_stm, &stm));
    }

    // ---- contention: cpus × shards on the zipfian workload ---------------
    println!();
    println!(
        "{:>4} x {:>6} | {:>14} | {:>12} | {:>12} | {:>14} | {:>14} | {:>5}",
        "cpus", "shards", "ops/s", "p50 ns", "p99 ns", "lock wait us", "io wait us", "util"
    );
    println!(
        "{:->4}---{:->6}-+-{:->14}-+-{:->12}-+-{:->12}-+-{:->14}-+-{:->14}-+-{:->5}",
        "", "", "", "", "", "", "", ""
    );
    for &cpus in &sweep.contention_cpus {
        for &shards in &sweep.contention_shards {
            let p = KvRunParams {
                cpus,
                shards,
                ..contention_params()
            };
            let r = run_cell(p.clone());
            println!(
                "{:>4} x {:>6} | {:>14} | {:>12} | {:>12} | {:>14} | {:>14} | {:>4.0}%",
                cpus,
                shards,
                count(r.ops_per_sec as u64),
                count(r.p50_ns),
                count(r.p99_ns),
                count(r.lock_wait_ns / 1000),
                count(r.io_wait_ns / 1000),
                r.cpu_utilization * 100.0
            );
            rows.push(row("contention", "sockets", "mutex", &p, &r));
            // The same contended cell on the STM backend: its contention
            // surfaces as transaction retries, not lock waits.
            let p_stm = KvRunParams { stm: true, ..p };
            let r_stm = run_cell(p_stm.clone());
            rows.push(row("contention", "sockets", "stm", &p_stm, &r_stm));
        }
    }
    println!("(each cell also ran on the STM backend; see the stm_retries");
    println!(" column in BENCH_kv.json for its contention signal)");

    // ---- get-heavy: the zero-copy showcase cell --------------------------
    // A preloaded key space and a 100% get mix, so every reply carries a
    // stored value. With the buffer fabric, that value travels
    // store → socket as a refcounted slice: `copies_per_op` counts only
    // the reply headers and must stay below `value_bytes` (CI gates it).
    println!();
    println!(
        "{:>10} | {:>14} | {:>9} | {:>14} | {:>14}",
        "get-heavy", "ops/s", "hit rate", "allocs/op", "copies/op"
    );
    println!(
        "{:->10}-+-{:->14}-+-{:->9}-+-{:->14}-+-{:->14}",
        "", "", "", "", ""
    );
    let p_get = KvRunParams {
        cpus: 4,
        shards: 8,
        set_percent: 0,
        preload: true,
        ..contention_params()
    };
    let r_get = run_cell(p_get.clone());
    println!(
        "{:>10} | {:>14} | {:>8.1}% | {:>14.2} | {:>14.2}",
        "sockets",
        count(r_get.ops_per_sec as u64),
        r_get.hit_ratio() * 100.0,
        r_get.allocs_per_op,
        r_get.copies_per_op
    );
    rows.push(row("get_heavy", "sockets", "mutex", &p_get, &r_get));

    // ---- machine-readable drop -------------------------------------------
    let meta = [
        ("bench", JsonVal::Str("fig_kv".into())),
        ("full_scale", JsonVal::Bool(full)),
        ("cost_model", JsonVal::Str("monadic".into())),
        (
            "set_percent",
            JsonVal::Int(base_params().set_percent as u64),
        ),
        ("keys", JsonVal::Int(base_params().keys as u64)),
        (
            "value_bytes",
            JsonVal::Int(base_params().value_bytes as u64),
        ),
    ];
    write_golden("BENCH_kv.json", &meta, &rows);
    println!("expected shape: ops/s rises with pipeline depth (fewer round trips),");
    println!("with clients until the simulated CPUs saturate, and — in the");
    println!("contention sweep — with shard count once cpus >= 4, because the");
    println!("single hot shard lock serializes what disjoint shards overlap.");

    maybe_export_trace();
}

/// The deterministic trace cell behind `EVETH_TRACE_OUT`: small enough to
/// run in seconds, contended enough that the flight recorder sees every
/// event class (I/O parks, shard-lock parks, timer sleeps, session spans).
/// Kept fixed so CI can assert the export is byte-identical across runs.
fn trace_cell() -> KvRunParams {
    KvRunParams {
        cost: CostModel::monadic(),
        cpus: 4,
        slice: 8,
        app_tcp: false,
        loopback: true,
        shards: 1,
        stm: false,
        clients: 32,
        batches_per_conn: 4,
        pipeline_depth: 8,
        set_percent: 30,
        keys: 64,
        value_bytes: 100,
        preload: false,
        seed: 11,
    }
}

/// When `EVETH_TRACE_OUT` names a path, rerun one fixed KV cell with the
/// telemetry fabric attached and drop the Chrome trace JSON there, plus
/// the debug service's `/metrics` body at `<path>.metrics.txt`. Both
/// artifacts are functions of (params, seed) only — virtual time stamps,
/// deterministic scheduling — so reruns produce identical bytes.
fn maybe_export_trace() {
    let Ok(out) = std::env::var("EVETH_TRACE_OUT") else {
        return;
    };
    if out.is_empty() {
        return;
    }
    let art = kv_trace_run(&trace_cell());
    let trace_path = std::path::PathBuf::from(&out);
    let metrics_path = std::path::PathBuf::from(format!("{out}.metrics.txt"));
    for (path, body) in [
        (&trace_path, art.chrome_json.as_str()),
        (&metrics_path, art.metrics_body.as_str()),
    ] {
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    println!(
        "\ntrace export: {} ({} events recorded, {} dropped) + {}",
        trace_path.display(),
        art.telemetry.recorder().recorded(),
        art.telemetry.recorder().dropped(),
        metrics_path.display()
    );
}
