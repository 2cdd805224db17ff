//! The C1M scale sweep behind both the `fig_scale` bench target and the
//! `fig_scale` binary (`cargo run --release -p eveth-bench --bin
//! fig_scale`): one shared implementation so CI and ad-hoc runs
//! regenerate the exact same `BENCH_scale.json`.
//!
//! Four scenarios drive the generic `Server<S>` through the failure
//! modes that show up only at connection-count scale:
//!
//! * **churn** — connect/disconnect storms at 10k–100k total connections
//!   (1M under `EVETH_FULL=1`). The regression class this flushes out is
//!   *accumulation*: timer entries, waiter-table slots or session state
//!   that is logically dead but physically retained. Every churn row
//!   reports the physical waiter residue on the shutdown broadcast after
//!   the storm (must be 0) and the monadic threads left after drain
//!   (must be 0).
//! * **herd** — a thundering herd: the zipfian KV workload collapsed to a
//!   single key over 8 shards, so one shard gate takes every hit. The
//!   `hot_shard_lock_wait_ns` column concentrates there while the other
//!   seven idle — the signature that distinguishes real contention from
//!   diffuse scheduling noise.
//! * **slowloris** — slow readers that connect and never send, squatting
//!   on sessions until the idle deadline reaps them while well-behaved
//!   clients echo through the same server. `idle_reaped` must equal the
//!   squatter count exactly.
//! * **resident** — N connections held open after one echo round trip.
//!   With the counting allocator installed (both `fig_scale` targets
//!   install it) the live-heap delta per connection is the
//!   bytes-per-connection figure CI gates against a budget.
//!
//! All numbers are virtual-time and deterministically scheduled, so the
//! JSON drop is byte-identical across reruns — CI diffs two runs.
//!
//! Run: `cargo bench --bench fig_scale` (EVETH_FULL=1 for the
//! million-connection cell).

use crate::tables::{banner, count, write_golden, JsonVal};
use crate::workloads::{
    churn_run, kv_server_run, resident_run, slowloris_run, ChurnParams, KvRunParams,
    ResidentParams, ScaleRunResult, SlowlorisParams,
};
use eveth_core::time::MILLIS;
use eveth_simos::cost::CostModel;

/// Echo payload used by every non-KV scenario.
const PAYLOAD: usize = 64;

/// The thundering-herd cell: the contended KV configuration from
/// `fig_kv`, collapsed to a single key so every client hammers the same
/// shard gate out of 8.
fn herd_params() -> KvRunParams {
    KvRunParams {
        cost: CostModel::monadic(),
        cpus: 4,
        slice: 8,
        app_tcp: false,
        loopback: true,
        shards: 8,
        stm: false,
        clients: 64,
        batches_per_conn: 16,
        pipeline_depth: 8,
        set_percent: 10,
        keys: 1,
        value_bytes: 100,
        preload: false,
        seed: 42,
    }
}

/// One JSON row with the full column set (identical schema across
/// scenarios; columns a scenario does not exercise are zero).
#[allow(clippy::too_many_arguments)]
fn row(
    scenario: &str,
    cpus: usize,
    connections: u64,
    concurrent: u64,
    r: &ScaleRunResult,
    store_lock_wait_ns: u64,
    hot_shard_lock_wait_ns: u64,
) -> Vec<(&'static str, JsonVal)> {
    vec![
        ("scenario", JsonVal::Str(scenario.into())),
        ("cpus", JsonVal::Int(cpus as u64)),
        ("connections", JsonVal::Int(connections)),
        ("concurrent", JsonVal::Int(concurrent)),
        ("ops", JsonVal::Int(r.ops)),
        ("ops_per_sec", JsonVal::Num(r.ops_per_sec)),
        ("virtual_ns", JsonVal::Int(r.elapsed)),
        ("p50_ns", JsonVal::Int(r.p50_ns)),
        ("p99_ns", JsonVal::Int(r.p99_ns)),
        ("io_wait_ns", JsonVal::Int(r.io_wait_ns)),
        ("lock_wait_ns", JsonVal::Int(r.lock_wait_ns)),
        ("store_lock_wait_ns", JsonVal::Int(store_lock_wait_ns)),
        (
            "hot_shard_lock_wait_ns",
            JsonVal::Int(hot_shard_lock_wait_ns),
        ),
        ("accepted", JsonVal::Int(r.accepted)),
        ("idle_reaped", JsonVal::Int(r.idle_reaped)),
        (
            "shutdown_physical_waiters",
            JsonVal::Int(r.shutdown_physical_waiters as u64),
        ),
        (
            "live_threads_after",
            JsonVal::Int(r.live_threads_after as u64),
        ),
        ("bytes_per_conn", JsonVal::Int(r.bytes_per_conn)),
        ("allocs_per_conn", JsonVal::Int(r.allocs_per_conn)),
        ("cpu_utilization", JsonVal::Num(r.cpu_utilization)),
    ]
}

/// Runs the whole scale sweep and writes `BENCH_scale.json` at the
/// workspace root. Exits the process nonzero if the JSON drop cannot be
/// written (CI's budget gate reads it).
pub fn run() {
    let full = crate::full_scale();
    let churn_sizes: Vec<u64> = if full {
        vec![10_000, 100_000, 1_000_000]
    } else {
        vec![10_000, 100_000]
    };
    let resident_sizes: Vec<u64> = if full {
        vec![10_000, 100_000]
    } else {
        vec![10_000]
    };
    let mut rows: Vec<Vec<(&str, JsonVal)>> = Vec::new();

    banner(
        "C1M / scale scenarios",
        "connection churn, thundering herd, slowloris reaping, resident memory",
        "the paper's million-thread claim applied to a million *connections*: O(1) timers, slab-backed waiter tables, no per-connection leak",
    );

    // ---- churn: connect/disconnect storms --------------------------------
    println!();
    println!(
        "{:>12} | {:>14} | {:>12} | {:>12} | {:>8} | {:>8}",
        "connections", "conns/s", "p50 ns", "p99 ns", "residue", "threads"
    );
    println!(
        "{:->12}-+-{:->14}-+-{:->12}-+-{:->12}-+-{:->8}-+-{:->8}",
        "", "", "", "", "", ""
    );
    for &n in &churn_sizes {
        let p = ChurnParams {
            cpus: 4,
            connections: n,
            concurrent: 512,
            payload: PAYLOAD,
        };
        let r = churn_run(&p);
        println!(
            "{:>12} | {:>14} | {:>12} | {:>12} | {:>8} | {:>8}",
            count(n),
            count(r.ops_per_sec as u64),
            count(r.p50_ns),
            count(r.p99_ns),
            r.shutdown_physical_waiters,
            r.live_threads_after
        );
        rows.push(row("churn", p.cpus, n, p.concurrent, &r, 0, 0));
    }

    // ---- herd: every client on one key -----------------------------------
    let hp = herd_params();
    let hr = kv_server_run(&hp);
    let concentration = if hr.store_lock_wait_ns == 0 {
        0.0
    } else {
        hr.hot_shard_lock_wait_ns as f64 / hr.store_lock_wait_ns as f64
    };
    println!();
    println!(
        "herd: {} ops/s, hot shard holds {:.0}% of {} us store lock wait",
        count(hr.ops_per_sec as u64),
        concentration * 100.0,
        count(hr.store_lock_wait_ns / 1000)
    );
    // Adapt the KV result into the shared row schema.
    let herd_as_scale = ScaleRunResult {
        elapsed: hr.elapsed,
        ops: hr.responses,
        ops_per_sec: hr.ops_per_sec,
        p50_ns: hr.p50_ns,
        p99_ns: hr.p99_ns,
        io_wait_ns: hr.io_wait_ns,
        lock_wait_ns: hr.lock_wait_ns,
        accepted: 0,
        idle_reaped: 0,
        shutdown_physical_waiters: 0,
        live_threads_after: 0,
        bytes_per_conn: 0,
        allocs_per_conn: 0,
        cpus: hr.cpus,
        cpu_utilization: hr.cpu_utilization,
    };
    rows.push(row(
        "herd",
        hp.cpus,
        hp.clients,
        hp.clients,
        &herd_as_scale,
        hr.store_lock_wait_ns,
        hr.hot_shard_lock_wait_ns,
    ));

    // ---- slowloris: squatters vs the idle deadline -----------------------
    let sp = SlowlorisParams {
        cpus: 4,
        slow: 256,
        busy: 64,
        cycles: 32,
        payload: PAYLOAD,
        idle_timeout: 10 * MILLIS,
    };
    let sr = slowloris_run(&sp);
    println!(
        "slowloris: {} squatters reaped (expected {}), {} echo ops beside them",
        count(sr.idle_reaped),
        sp.slow,
        count(sr.ops)
    );
    rows.push(row(
        "slowloris",
        sp.cpus,
        sp.slow + sp.busy,
        sp.slow + sp.busy,
        &sr,
        0,
        0,
    ));

    // ---- resident: bytes per held-open connection ------------------------
    println!();
    println!(
        "{:>12} | {:>12} | {:>12} | {:>12}",
        "resident", "bytes/conn", "allocs/conn", "p99 ns"
    );
    println!("{:->12}-+-{:->12}-+-{:->12}-+-{:->12}", "", "", "", "");
    for &n in &resident_sizes {
        let p = ResidentParams {
            cpus: 4,
            connections: n,
            payload: PAYLOAD,
        };
        let r = resident_run(&p);
        println!(
            "{:>12} | {:>12} | {:>12} | {:>12}",
            count(n),
            count(r.bytes_per_conn),
            count(r.allocs_per_conn),
            count(r.p99_ns)
        );
        rows.push(row("resident", p.cpus, n, n, &r, 0, 0));
    }

    // ---- machine-readable drop -------------------------------------------
    let meta = [
        ("bench", JsonVal::Str("fig_scale".into())),
        ("full_scale", JsonVal::Bool(full)),
        ("cost_model", JsonVal::Str("monadic".into())),
        ("payload_bytes", JsonVal::Int(PAYLOAD as u64)),
    ];
    write_golden("BENCH_scale.json", &meta, &rows);
    println!("expected shape: churn conns/s roughly flat from 10k to 100k (no");
    println!("O(connections) structure on the hot path); herd lock wait pinned");
    println!("to one shard; idle_reaped == squatter count; bytes/conn flat in N.");
}
