//! Disk head scheduling in miniature — the mechanism behind Figure 17.
//!
//! Run with: `cargo run --example disk_head_scheduling`
//!
//! Many threads issuing random 4 KB reads keep a deep request queue at the
//! disk; the C-LOOK elevator turns that depth into shorter seeks and
//! *higher* throughput. With FIFO scheduling (the ablation), extra threads
//! buy nothing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use eveth::core::aio::FileStore;
use eveth::core::syscall::*;
use eveth::simos::disk::{throughput_mb_s, DiskGeometry, DiskSched, SimDisk};
use eveth::simos::fs::SimFs;
use eveth::simos::SimRuntime;
use eveth::{loop_m, poll_until, Loop};

const FILE_BYTES: u64 = 1 << 30; // the paper's 1 GB test file
const BLOCK: usize = 4096;
const READS_TOTAL: u64 = 2048;

fn run(sched: DiskSched, threads: u64) -> f64 {
    let sim = SimRuntime::new_default();
    let disk = SimDisk::new(sim.clock(), DiskGeometry::eide_7200_80gb(), sched, 11);
    let fs = SimFs::new(disk);
    fs.add_file("/big", FILE_BYTES);
    let file = fs.lookup("/big").expect("file exists");

    let remaining = Arc::new(AtomicU64::new(READS_TOTAL));
    let live = Arc::new(AtomicU64::new(threads));
    for t in 0..threads {
        let file = Arc::clone(&file);
        let remaining = Arc::clone(&remaining);
        let live = Arc::clone(&live);
        let rng0 = 0x9E37_79B9u64.wrapping_mul(t + 1) | 1;
        sim.spawn(loop_m(rng0, move |mut rng| {
            if remaining.fetch_sub(1, Ordering::SeqCst) == 0
                || remaining.load(Ordering::SeqCst) > READS_TOTAL
            {
                remaining.store(0, Ordering::SeqCst);
                let live = Arc::clone(&live);
                return sys_nbio(move || {
                    live.fetch_sub(1, Ordering::SeqCst);
                })
                .map(|_| Loop::Break(()));
            }
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let offset = (rng % (FILE_BYTES / BLOCK as u64)) * BLOCK as u64;
            sys_aio_read(&file, offset, BLOCK).map(move |res| {
                res.expect("disk read");
                Loop::Continue(rng)
            })
        }));
    }

    // Wait for all reader threads to retire (sleep-poll: parking lets the
    // simulation advance to the next disk completion).
    let watch = Arc::clone(&live);
    sim.block_on(poll_until(eveth::core::time::MILLIS, move || {
        watch.load(Ordering::SeqCst) == 0
    }))
    .expect("all readers finished");

    throughput_mb_s(READS_TOTAL * BLOCK as u64, sim.now())
}

fn main() {
    println!("random 4 KB reads from a 1 GB file on a simulated 7200 RPM disk");
    println!(
        "{:>8} | {:>14} | {:>14}",
        "threads", "C-LOOK MB/s", "FIFO MB/s"
    );
    for threads in [1u64, 4, 16, 64, 256] {
        let clook = run(DiskSched::CLook, threads);
        let fifo = run(DiskSched::Fifo, threads);
        println!("{threads:>8} | {clook:>14.3} | {fifo:>14.3}");
    }
    println!("\nC-LOOK rises with concurrency (Figure 17's effect); FIFO stays flat.");
}
