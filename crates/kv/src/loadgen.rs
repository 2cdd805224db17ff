//! The KV load generator: monadic client threads issuing pipelined
//! get/set mixes over zipfian keys, modeled on `eveth_http::loadgen`.
//!
//! Each client connects once, then repeatedly ships a *batch* of
//! `pipeline_depth` commands in one send and reads replies until the
//! batch is fully answered — the access pattern memcached deployments
//! actually see, and the knob the `fig_kv` bench sweeps. The connect,
//! close and completion count are the shared closed-loop client,
//! [`eveth_core::net::closed_loop`]; the wire work (pipelined read loop,
//! latency attribution) lives in [`crate::client`]. This module owns the
//! one batch step, workload generation and the counters: the measured
//! [`client_thread`] and the [`preload_thread`] fill are the same step
//! over two batch sources.

use std::fmt;
use std::sync::Arc;

use bytes::{BufferPool, Bytes, BytesMut};
use eveth_core::net::{closed_loop, send_all, Conn, Endpoint, NetStack};
use eveth_core::syscall::{sys_nbio, sys_time};
use eveth_core::telemetry::metrics::{Counter, LatencyHistogram};
use eveth_core::{do_m, ThreadM};

use crate::client::{read_pipelined, ReadEvent};
use crate::protocol::Reply;

/// Load-generator parameters.
#[derive(Debug, Clone)]
pub struct KvLoadConfig {
    /// Server to hammer.
    pub server: Endpoint,
    /// Command batches each client issues before closing.
    pub batches_per_conn: usize,
    /// Commands per batch (pipeline depth); 1 = strict request/response.
    pub pipeline_depth: usize,
    /// Key-space size; keys are `k000000`…
    pub keys: usize,
    /// Zipf skew (`0.0` = uniform; memcached studies typically ~0.99).
    pub zipf_s: f64,
    /// Sets per 100 commands (the rest are gets).
    pub set_percent: u8,
    /// Value payload size for sets.
    pub value_bytes: usize,
    /// TTL passed on sets (seconds; 0 = never).
    pub ttl_secs: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for KvLoadConfig {
    fn default() -> Self {
        KvLoadConfig {
            server: Endpoint::new(eveth_core::net::HostId(1), 11211),
            batches_per_conn: 32,
            pipeline_depth: 8,
            keys: 1024,
            zipf_s: 0.99,
            set_percent: 10,
            value_bytes: 100,
            ttl_secs: 0,
            seed: 1,
        }
    }
}

/// Aggregate client-side counters.
#[derive(Debug, Default)]
pub struct KvLoadStats {
    /// `VALUE` replies received (get hits).
    pub hits: Counter,
    /// `get` commands answered without a value (misses).
    pub misses: Counter,
    /// `STORED` replies.
    pub stored: Counter,
    /// Error replies (`ERROR`/`CLIENT_ERROR`/`SERVER_ERROR`) or reply
    /// parse failures observed.
    pub errors: Counter,
    /// Transport failures (connect/send/recv).
    pub transport_errors: Counter,
    /// Total bytes received.
    pub bytes_in: Counter,
    /// Total bytes sent.
    pub bytes_out: Counter,
    /// Clients that finished their run.
    pub clients_done: Counter,
    /// Per-command virtual-time latency (batch send → reply observed),
    /// with exact p50/p95/p99 — the tail-latency columns of `fig_kv`.
    pub latency: LatencyHistogram,
}

impl KvLoadStats {
    /// Total commands answered (hits + misses + stored).
    pub fn responses(&self) -> u64 {
        self.hits.get() + self.misses.get() + self.stored.get()
    }
}

impl fmt::Display for KvLoadStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hits={} misses={} stored={} errors={} transport_errors={} bytes_in={} bytes_out={}",
            self.hits.get(),
            self.misses.get(),
            self.stored.get(),
            self.errors.get(),
            self.transport_errors.get(),
            self.bytes_in.get(),
            self.bytes_out.get()
        )
    }
}

/// A zipfian sampler over ranks `0..n` with exponent `s`, via a
/// precomputed CDF (deterministic given the RNG stream). Build one per
/// run and share it: every client of a run samples the same table.
#[derive(Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the CDF for `n` ranks with skew `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "zipf over an empty key space");
        let mut weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        weights[n - 1] = 1.0; // guard against FP undershoot
        Zipf { cdf: weights }
    }

    /// Samples a rank from a uniform `u` in `[0, 1)`.
    pub fn sample(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The canonical key for a rank.
pub fn key_for(rank: usize) -> String {
    format!("k{rank:06}")
}

/// xorshift64* step shared by the client threads.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

fn unit_f64(state: &mut u64) -> f64 {
    (xorshift(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Appends one `set` command (header, payload, trailing CRLF) for `rank`
/// straight into the wire buffer — no intermediate `String`/`Vec` per
/// command, and the payload is written with [`BytesMut::put_repeat`]
/// rather than materialising a scratch value.
fn push_set(wire: &mut BytesMut, cfg: &KvLoadConfig, rank: usize) {
    use std::fmt::Write as _;
    let key = key_for(rank);
    // Infallible: BytesMut's fmt::Write never errors.
    let _ = write!(wire, "set {key} 0 {} {}\r\n", cfg.ttl_secs, cfg.value_bytes);
    wire.put_repeat(b'a' + (rank % 26) as u8, cfg.value_bytes);
    wire.extend_from_slice(b"\r\n");
}

/// Builds one batch of `depth` pipelined commands in a pooled buffer;
/// returns the frozen wire bytes and how many replies to expect (gets
/// answer with `END`, sets with `STORED`).
fn build_batch(cfg: &KvLoadConfig, zipf: &Zipf, rng: &mut u64) -> (Bytes, usize) {
    use std::fmt::Write as _;
    let mut wire = BufferPool::global().acquire();
    let mut expected = 0usize;
    for _ in 0..cfg.pipeline_depth {
        let rank = zipf.sample(unit_f64(rng));
        if (xorshift(rng) % 100) < cfg.set_percent as u64 {
            push_set(&mut wire, cfg, rank);
        } else {
            let key = key_for(rank);
            let _ = write!(wire, "get {key}\r\n");
        }
        expected += 1;
    }
    (wire.freeze(), expected)
}

/// One load-generator client: connect, ship `batches_per_conn` batches
/// of the configured get/set mix, read each batch's replies, close.
/// Keys are drawn from `zipf`, the run's one table over `cfg.keys` ranks
/// with skew `cfg.zipf_s`.
pub fn client_thread(
    stack: Arc<dyn NetStack>,
    cfg: Arc<KvLoadConfig>,
    zipf: Arc<Zipf>,
    stats: Arc<KvLoadStats>,
    id: u64,
) -> ThreadM<()> {
    let rng0 = (cfg.seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
    batch_client(
        &stack,
        cfg,
        stats,
        (rng0, 0usize),
        move |cfg, (mut rng, batch)| {
            (batch < cfg.batches_per_conn).then(|| {
                let (wire, expected) = build_batch(cfg, &zipf, &mut rng);
                (wire, expected, (rng, batch + 1))
            })
        },
    )
}

/// Deterministically fills the whole key space before a measured run:
/// a client whose batches `set` every key rank exactly once, in order,
/// `depth` at a time (values match what [`client_thread`]'s sets would
/// store). Get-heavy cells preload so every measured `get` hits and the
/// reply path actually carries value bytes. Increments
/// `stats.clients_done` when the fill is fully acknowledged.
pub fn preload_thread(
    stack: Arc<dyn NetStack>,
    cfg: Arc<KvLoadConfig>,
    stats: Arc<KvLoadStats>,
) -> ThreadM<()> {
    let depth = cfg.pipeline_depth.max(1);
    batch_client(&stack, cfg, stats, 0usize, move |cfg, next_rank| {
        (next_rank < cfg.keys).then(|| {
            let batch_end = (next_rank + depth).min(cfg.keys);
            let mut wire = BufferPool::global().acquire();
            for rank in next_rank..batch_end {
                push_set(&mut wire, cfg, rank);
            }
            (wire.freeze(), batch_end - next_rank, batch_end)
        })
    })
}

/// A [`closed_loop`] client whose step ships the batch `next_batch`
/// builds from the state (wire bytes, commands in it, the next state)
/// and reads its replies; `None` from `next_batch` ends the run.
fn batch_client<S, B>(
    stack: &Arc<dyn NetStack>,
    cfg: Arc<KvLoadConfig>,
    stats: Arc<KvLoadStats>,
    init: S,
    next_batch: B,
) -> ThreadM<()>
where
    S: Send + 'static,
    B: Fn(&KvLoadConfig, S) -> Option<(Bytes, usize, S)> + Send + Sync + 'static,
{
    let (failed, done) = (stats.transport_errors.clone(), stats.clients_done.clone());
    closed_loop(
        stack,
        cfg.server,
        init,
        failed,
        done,
        move |conn, state| match next_batch(&cfg, state) {
            None => ThreadM::pure(None),
            Some((wire, expected, next)) => exchange(conn, &stats, wire, expected, next),
        },
    )
}

/// Ships one batch and reads until its `expected` commands are answered;
/// yields `next` on success. A failed send counts a transport error; a
/// failed read was counted by [`observe_load`].
fn exchange<S: Send + 'static>(
    conn: &Arc<dyn Conn>,
    stats: &Arc<KvLoadStats>,
    wire: Bytes,
    expected: usize,
    next: S,
) -> ThreadM<Option<S>> {
    let conn = Arc::clone(conn);
    let stats = Arc::clone(stats);
    let n_out = wire.len() as u64;
    do_m! {
        let t_send <- sys_time();
        let sent <- send_all(&conn, wire);
        match sent {
            Err(_) => sys_nbio(move || stats.transport_errors.incr()).map(|()| None),
            Ok(()) => {
                stats.bytes_out.add(n_out);
                read_pipelined(conn, expected, t_send, (), move |(), ev| observe_load(&stats, ev))
                    .map(move |res| res.ok().map(|()| next))
            }
        }
    }
}

/// Folds one [`ReadEvent`] from the shared wire client into the load
/// counters. A `get` closed by `END` is a hit per `VALUE` it carried, or
/// a miss with none; `STORED` counts a store. Each closed command records
/// its latency — the virtual time between the batch send and the chunk
/// that answered it — into the histogram.
fn observe_load(stats: &KvLoadStats, ev: ReadEvent<'_>) {
    match ev {
        ReadEvent::Chunk(n) => stats.bytes_in.add(n as u64),
        ReadEvent::TransportError => stats.transport_errors.incr(),
        ReadEvent::ProtocolError => stats.errors.incr(),
        ReadEvent::Command { framed, lat } => {
            match framed.closing {
                Reply::End if framed.values == 0 => stats.misses.incr(),
                Reply::End => stats.hits.add(framed.values as u64),
                Reply::Stored => stats.stored.incr(),
                Reply::Error | Reply::ClientError(_) | Reply::ServerError(_) => {
                    stats.errors.incr();
                }
                _ => {}
            }
            stats.latency.record(lat);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(100, 1.0);
        let mut rng = 7u64;
        let mut counts = vec![0u32; 100];
        for _ in 0..10_000 {
            let r = z.sample(unit_f64(&mut rng));
            counts[r] += 1;
        }
        assert!(counts[0] > counts[50], "rank 0 must dominate rank 50");
        assert!(counts[0] > 10_000 / 100, "rank 0 above uniform share");
    }

    #[test]
    fn zipf_zero_skew_is_roughly_uniform() {
        let z = Zipf::new(10, 0.0);
        let mut rng = 3u64;
        let mut counts = vec![0u32; 10];
        for _ in 0..10_000 {
            counts[z.sample(unit_f64(&mut rng))] += 1;
        }
        for &c in &counts {
            assert!((500..2000).contains(&c), "uniform-ish share, got {c}");
        }
    }

    #[test]
    fn batches_mix_sets_and_gets_deterministically() {
        let cfg = KvLoadConfig {
            set_percent: 50,
            pipeline_depth: 64,
            ..Default::default()
        };
        let zipf = Zipf::new(cfg.keys, cfg.zipf_s);
        let mut rng = 5u64;
        let (wire, expected) = build_batch(&cfg, &zipf, &mut rng);
        assert_eq!(expected, 64);
        let text = String::from_utf8_lossy(&wire);
        assert!(text.contains("get k"), "has gets");
        assert!(text.contains("set k"), "has sets");
        let mut rng2 = 5u64;
        assert_eq!(wire, build_batch(&cfg, &zipf, &mut rng2).0, "deterministic");
    }

    #[test]
    fn key_for_is_fixed_width() {
        assert_eq!(key_for(7), "k000007");
        assert_eq!(key_for(123456), "k123456");
    }
}
