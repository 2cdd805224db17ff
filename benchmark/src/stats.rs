//! Percentile and window maths — the benchmark's ruler.

/// Nearest-rank percentile of an ascending-sorted slice (`p` in 0..=100).
/// Empty input reads 0.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// One window of a measured span: the completions whose time falls in
/// `[start, end)`, as an index range into the time-sorted completions.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// Index of the tick that opens the window (the next one closes it).
    pub tick: usize,
    pub from: usize,
    pub to: usize,
    pub ops: u64,
    /// Completions per second.
    pub rate: f64,
}

/// Cuts time-sorted `(time, ops)` completions at `ticks` (ascending, in
/// nanoseconds): one window per pair of neighbouring ticks. Completions
/// before the first or at/after the last tick belong to no window.
pub fn cut_windows(completions: &[(u64, u64)], ticks: &[u64]) -> Vec<Window> {
    let upto = |t: u64| completions.partition_point(|c| c.0 < t);
    ticks
        .windows(2)
        .enumerate()
        .filter(|(_, w)| w[1] > w[0])
        .map(|(tick, w)| {
            let (from, to) = (upto(w[0]), upto(w[1]));
            let ops: u64 = completions[from..to].iter().map(|c| c.1).sum();
            Window {
                tick,
                from,
                to,
                ops,
                rate: ops as f64 * 1e9 / (w[1] - w[0]) as f64,
            }
        })
        .collect()
}

/// Indices of the fastest `share` of `windows` (at least one), fastest
/// first.
pub fn fastest(windows: &[Window], share: f64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..windows.len()).collect();
    order.sort_by(|&a, &b| windows[b].rate.total_cmp(&windows[a].rate));
    order.truncate(
        ((windows.len() as f64 * share) as usize)
            .max(1)
            .min(windows.len()),
    );
    order
}

/// One latency summary: median, p99, sample count.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatSummary {
    pub p50_us: f64,
    pub p99_us: f64,
    pub samples: usize,
}

/// Summarises nanosecond durations (sorts in place).
pub fn summarize_ns(durations: &mut [u64]) -> LatSummary {
    durations.sort_unstable();
    LatSummary {
        p50_us: percentile(durations, 50.0) as f64 / 1e3,
        p99_us: percentile(durations, 99.0) as f64 / 1e3,
        samples: durations.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_a_known_series() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
        // Nearest rank, not interpolation: p50 of four values is the 2nd.
        assert_eq!(percentile(&[10, 20, 30, 40], 50.0), 20);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn windows_cut_at_ticks_by_completion_time_and_weight() {
        let completions = [
            (99, 5),  // before the span
            (100, 1), // a tick belongs to the window it opens
            (109, 2),
            (110, 4),
            (129, 8),
            (130, 16), // at the last tick: past the span
        ];
        let w = cut_windows(&completions, &[100, 110, 130]);
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].tick, w[0].from, w[0].to, w[0].ops), (0, 1, 3, 3));
        assert_eq!((w[1].tick, w[1].from, w[1].to, w[1].ops), (1, 3, 5, 12));
        // 3 ops in 10 ns, 12 ops in 20 ns.
        assert_eq!(w[0].rate, 3e8);
        assert_eq!(w[1].rate, 6e8);
        // A repeated tick makes no window; the survivor keeps its index.
        let w = cut_windows(&completions, &[100, 100, 110]);
        assert_eq!((w.len(), w[0].tick), (1, 1));
    }

    #[test]
    fn fastest_share_ranks_by_rate() {
        let w: Vec<Window> = [5.0, 9.0, 1.0, 7.0, 3.0, 8.0, 2.0, 6.0]
            .iter()
            .map(|&rate| Window {
                tick: 0,
                from: 0,
                to: 0,
                ops: 0,
                rate,
            })
            .collect();
        assert_eq!(fastest(&w, 0.25), vec![1, 5]);
        assert_eq!(fastest(&w, 0.5), vec![1, 5, 3, 7]);
        assert_eq!(fastest(&w, 0.01), vec![1]);
        assert_eq!(fastest(&w[..1], 0.25), vec![0]);
        assert!(fastest(&[], 0.25).is_empty());
    }

    #[test]
    fn summary_reports_microseconds() {
        let mut d: Vec<u64> = (1..=200).map(|i| i * 1_000).collect();
        let s = summarize_ns(&mut d);
        assert_eq!(s.samples, 200);
        assert_eq!(s.p50_us, 100.0);
        assert_eq!(s.p99_us, 198.0);
    }
}
