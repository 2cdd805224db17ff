//! Per-shard and aggregate protocol counters, surfaced by the `stats`
//! command and by the benchmarks. The connection lifecycle (accepts, idle
//! reaps, session errors) is the framework's `ServerStats`, not counted
//! here.

use std::fmt;

use eveth_core::telemetry::metrics::Counter;

/// Counters kept independently per shard (no cross-shard contention).
#[derive(Debug, Default)]
pub struct ShardStats {
    /// `get` lookups that found a live entry.
    pub hits: Counter,
    /// `get` lookups that found nothing (or an expired entry).
    pub misses: Counter,
    /// Successful `set`s.
    pub sets: Counter,
    /// Successful `delete`s.
    pub deletes: Counter,
    /// Successful `incr`/`decr`s.
    pub counter_ops: Counter,
    /// `append`s that concatenated onto a live entry.
    pub appends: Counter,
    /// `prepend`s that concatenated onto a live entry.
    pub prepends: Counter,
    /// `touch`es that re-deadlined a live entry.
    pub touches: Counter,
    /// `cas` operations that stored (stamp matched).
    pub cas_hits: Counter,
    /// `cas` operations rejected because the entry changed (`EXISTS`).
    pub cas_badval: Counter,
    /// `cas` operations on a missing/expired key (`NOT_FOUND`).
    pub cas_misses: Counter,
    /// Expired entries detected lazily by reads.
    pub expired_lazy: Counter,
    /// Expired entries reclaimed by the janitor.
    pub expired_purged: Counter,
}

impl ShardStats {
    /// Every cell beside the name `stats` reports it under, in report
    /// order — the one list the `STAT` lines and the per-shard
    /// `eveth_kv_shard_<name>_total` registrations are both generated
    /// from, so a new counter cannot be forgotten by either.
    pub fn cells(&self) -> [(&'static str, &Counter); 13] {
        [
            ("get_hits", &self.hits),
            ("get_misses", &self.misses),
            ("sets", &self.sets),
            ("deletes", &self.deletes),
            ("counter_ops", &self.counter_ops),
            ("appends", &self.appends),
            ("prepends", &self.prepends),
            ("touches", &self.touches),
            ("cas_hits", &self.cas_hits),
            ("cas_badval", &self.cas_badval),
            ("cas_misses", &self.cas_misses),
            ("expired_lazy", &self.expired_lazy),
            ("expired_purged", &self.expired_purged),
        ]
    }
}

/// Aggregate, server-wide protocol counters.
#[derive(Debug, Default)]
pub struct KvStats {
    /// Commands executed (all kinds).
    pub commands: Counter,
    /// Request bytes received.
    pub bytes_in: Counter,
    /// Response bytes written.
    pub bytes_out: Counter,
    /// Protocol errors answered with `CLIENT_ERROR`/`ERROR`.
    pub protocol_errors: Counter,
    /// Janitor sweeps completed (whole-store passes; shared with the
    /// janitor thread, which increments it).
    pub janitor_sweeps: Counter,
}

/// A point-in-time aggregate view across shards, for `stats` output and
/// benchmark tables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Sum of shard hits.
    pub hits: u64,
    /// Sum of shard misses.
    pub misses: u64,
    /// Sum of shard sets.
    pub sets: u64,
    /// Sum of shard deletes.
    pub deletes: u64,
    /// Sum of shard counter ops.
    pub counter_ops: u64,
    /// Sum of shard appends.
    pub appends: u64,
    /// Sum of shard prepends.
    pub prepends: u64,
    /// Sum of shard touches.
    pub touches: u64,
    /// Sum of stored `cas` ops.
    pub cas_hits: u64,
    /// Sum of `cas` ops rejected with `EXISTS`.
    pub cas_badval: u64,
    /// Sum of `cas` ops on missing keys.
    pub cas_misses: u64,
    /// Sum of lazily-detected expiries.
    pub expired_lazy: u64,
    /// Sum of janitor-reclaimed expiries.
    pub expired_purged: u64,
}

impl StatsSnapshot {
    /// Aggregates shard counters.
    pub fn gather(shards: &[ShardStats]) -> StatsSnapshot {
        let mut s = StatsSnapshot::default();
        for sh in shards {
            s.hits += sh.hits.get();
            s.misses += sh.misses.get();
            s.sets += sh.sets.get();
            s.deletes += sh.deletes.get();
            s.counter_ops += sh.counter_ops.get();
            s.appends += sh.appends.get();
            s.prepends += sh.prepends.get();
            s.touches += sh.touches.get();
            s.cas_hits += sh.cas_hits.get();
            s.cas_badval += sh.cas_badval.get();
            s.cas_misses += sh.cas_misses.get();
            s.expired_lazy += sh.expired_lazy.get();
            s.expired_purged += sh.expired_purged.get();
        }
        s
    }

    /// Hit ratio over all `get`s (1.0 when there were none).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hits={} misses={} sets={} deletes={} counter_ops={} expired={}+{}",
            self.hits,
            self.misses,
            self.sets,
            self.deletes,
            self.counter_ops,
            self.expired_lazy,
            self.expired_purged
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eveth_core::telemetry::metrics::LatencyHistogram;

    #[test]
    fn gather_sums_across_shards() {
        let shards: Vec<ShardStats> = (0..3).map(|_| ShardStats::default()).collect();
        shards[0].hits.add(2);
        shards[1].hits.incr();
        shards[2].misses.incr();
        shards[1].sets.add(7);
        let s = StatsSnapshot::gather(&shards);
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 1);
        assert_eq!(s.sets, 7);
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn hit_ratio_of_idle_store_is_one() {
        assert_eq!(StatsSnapshot::default().hit_ratio(), 1.0);
    }

    #[test]
    fn latency_percentiles_are_exact_nearest_rank() {
        // 100 known samples 1..=100 ns: nearest-rank percentiles are the
        // sample at the ceil(p * n / 100)th position.
        let h = LatencyHistogram::new();
        for v in (1..=100u64).rev() {
            h.record(v);
        }
        assert_eq!(h.len(), 100);
        assert_eq!(h.p50(), 50);
        assert_eq!(h.p95(), 95);
        assert_eq!(h.p99(), 99);
        assert_eq!(h.percentile(100.0), 100);
        assert_eq!(h.percentile(1.0), 1);
        assert_eq!(h.max(), 100);
    }

    #[test]
    fn latency_percentiles_on_small_sets_and_empty() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.p50(), 0);
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        // n = 3: p50 → rank ceil(1.5) = 2 → 20; p95/p99 → rank 3 → 30.
        assert_eq!(h.p50(), 20);
        assert_eq!(h.p95(), 30);
        assert_eq!(h.p99(), 30);
        assert!(h.p99() >= h.p50());
    }
}
