//! Property tests for the simulated substrate: event ordering, disk
//! completeness and non-starvation, link FIFO and loss accounting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use eveth_core::net::HostId;
use eveth_simos::des::SimClock;
use eveth_simos::disk::{DiskGeometry, DiskSched, SimDisk};
use eveth_simos::net::{LinkParams, SimNet};
use parking_lot::Mutex;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Events fire in non-decreasing time order whatever the insertion
    /// order.
    #[test]
    fn clock_fires_in_time_order(delays in proptest::collection::vec(0u64..1_000_000, 1..100)) {
        let clock = SimClock::new();
        let log: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        for d in &delays {
            let log = Arc::clone(&log);
            let c = clock.clone();
            clock.schedule(*d, move || log.lock().push(c.now()));
        }
        while clock.fire_next() {}
        let seen = log.lock().clone();
        prop_assert_eq!(seen.len(), delays.len());
        for w in seen.windows(2) {
            prop_assert!(w[0] <= w[1], "time went backwards: {:?}", w);
        }
    }

    /// Every submitted disk request completes exactly once, under either
    /// scheduling discipline, whatever the position mix — C-LOOK never
    /// starves a request.
    #[test]
    fn disk_completes_every_request_once(
        positions in proptest::collection::vec(0u64..1_000_000, 1..200),
        clook in any::<bool>(),
    ) {
        let clock = SimClock::new();
        let sched = if clook { DiskSched::CLook } else { DiskSched::Fifo };
        let disk = SimDisk::new(clock.clone(), DiskGeometry::eide_7200_80gb(), sched, 5);
        let done = Arc::new(AtomicU64::new(0));
        let n = positions.len() as u64;
        for pos in positions {
            let done = Arc::clone(&done);
            disk.submit(pos * 512, 4096, move || {
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        while clock.fire_next() {}
        prop_assert_eq!(done.load(Ordering::SeqCst), n);
        prop_assert_eq!(disk.queue_depth(), 0);
    }

    /// Per-link FIFO: packets between one host pair arrive in send order
    /// regardless of sizes; loss only removes, never reorders.
    #[test]
    fn network_is_fifo_per_link(
        sizes in proptest::collection::vec(1usize..9_000, 1..100),
        loss in 0.0f64..0.5,
        seed in 1u64..u64::MAX,
    ) {
        let clock = SimClock::new();
        let net = SimNet::new(clock.clone(), LinkParams::ethernet_100mbps().with_loss(loss), seed);
        let inbox: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&inbox);
        net.register_host(HostId(2), Arc::new(move |_src, pkt| {
            sink.lock().push(*pkt.downcast::<u32>().expect("u32 payload"));
        }));
        for (i, size) in sizes.iter().enumerate() {
            net.send(HostId(1), HostId(2), *size, Box::new(i as u32));
        }
        while clock.fire_next() {}
        let got = inbox.lock().clone();
        // Strictly increasing subsequence of the send order.
        for w in got.windows(2) {
            prop_assert!(w[0] < w[1], "reordered: {:?}", w);
        }
        let delivered = got.len() as u64;
        let dropped = net.stats().dropped.get();
        prop_assert_eq!(delivered + dropped, sizes.len() as u64);
    }

    /// Seek times are monotone in distance (the physical law behind the
    /// elevator's win).
    #[test]
    fn seek_time_monotone(d1 in 0u64..40_000_000_000, d2 in 0u64..40_000_000_000) {
        let g = DiskGeometry::eide_7200_80gb();
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(g.service_ns(lo, 4096, 0.0) <= g.service_ns(hi, 4096, 0.0));
    }
}
