//! Flight-recorder → Perfetto: run the contended KV cell with the
//! telemetry fabric attached, export the recorded spans as Chrome
//! trace-event JSON, and drop it next to the metrics exposition.
//!
//! The export is a pure function of (parameters, seed): events carry
//! virtual-time stamps and the scheduler is deterministic, so rerunning
//! this example produces byte-identical files — diff them to prove it.
//!
//! Run with:
//! ```text
//! cargo run --example trace_export [-- out.json]
//! ```
//!
//! Without an argument it writes `target/trace_export.json`.
//!
//! Then load the JSON in Perfetto: open <https://ui.perfetto.dev>, press
//! "Open trace file" and pick the exported file (legacy
//! `chrome://tracing` loads it too). Each monadic thread renders as its
//! own track — named `kv` session spans, wake slices sized by how long
//! the thread sat parked (I/O vs lock vs timer), spawn/exit instants.

use eveth::simos::cost::CostModel;
use eveth_bench::workloads::{kv_trace_run, KvRunParams};

fn main() {
    let out = std::env::args().nth(1).unwrap_or_else(|| {
        std::fs::create_dir_all("target").expect("target/ created");
        "target/trace_export.json".to_string()
    });

    // The same fixed cell CI exports (`EVETH_TRACE_OUT` on the fig_kv
    // binary): loopback link, 4 virtual CPUs, a single shard under 32
    // pipelining clients with a preemption slice small enough to split
    // batches — every wait kind lands on the timeline (I/O parks on the
    // sockets, lock parks on the hot shard gate, timer parks in the
    // janitor and load pacing).
    let params = KvRunParams {
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
    };
    let art = kv_trace_run(&params);

    std::fs::write(&out, &art.chrome_json).expect("trace written");
    let metrics_out = format!("{out}.metrics.txt");
    std::fs::write(&metrics_out, &art.metrics_body).expect("metrics written");

    let rec = art.telemetry.recorder();
    let (io, lock, timer) = art.telemetry.wait_totals();
    println!(
        "recorded {} events ({} dropped by the bounded ring) across {} spans",
        rec.recorded(),
        rec.dropped(),
        art.telemetry.spans().len()
    );
    println!(
        "wait attribution: io={io}ns lock={lock}ns timer={timer}ns — \
         reconciles with the report: io={} lock={} timer={}",
        art.report.io_wait_ns, art.report.lock_wait_ns, art.report.timer_wait_ns
    );
    println!(
        "wrote {out} ({} bytes) + {metrics_out}",
        art.chrome_json.len()
    );
    println!("load it at https://ui.perfetto.dev  (\"Open trace file\")");
}
