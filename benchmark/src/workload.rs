//! The five workloads and the traffic they generate.
//!
//! Everything the services see is raw memcached-text bytes produced here
//! from `(workload, seed)`. A key's value and flags are a pure function
//! of its rank, so a `set` never changes what a later `get` must return
//! and every reply has exactly one correct byte string.

use bytes::Bytes;

/// Zipf skew of the key popularity on every workload.
const ZIPF_S: f64 = 0.99;

/// What the generator threads do with their connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Each generator keeps one connection and pipelines `depth` commands
    /// per round trip.
    Persistent,
    /// Each generator loops connect → set → get → close; one op is one
    /// connection lifecycle.
    Churn,
}

/// Which services the clients talk to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One `KvServer` with this many store shards.
    Single { shards: usize },
    /// Two `KvServer` backends behind one `Router`, replication 2.
    Cluster,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub topology: Topology,
    pub mode: Mode,
    pub keys: usize,
    pub value_bytes: usize,
    /// Sets per 100 commands.
    pub set_percent: u8,
    /// Generator threads (= client connections in `Persistent` mode).
    pub clients: usize,
    /// Commands per round trip.
    pub depth: usize,
    /// Idle connections opened during set-up and held to the end.
    pub resident: usize,
    /// Server idle timeout in seconds (0 = none).
    pub idle_timeout_s: u64,
}

pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "kv_get_pipelined",
        why: "16 commands per segment: parser, store read, reply encode and interpreter steps dominate; wakeup and TCP cost is amortised 16x",
        topology: Topology::Single { shards: 8 },
        mode: Mode::Persistent,
        keys: 10_000,
        value_bytes: 100,
        set_percent: 5,
        clients: 8,
        depth: 16,
        resident: 0,
        idle_timeout_s: 0,
    },
    Spec {
        name: "kv_write_hot",
        why: "depth 1, one shard, half writes: one wakeup chain and one lock handoff per command, so reactor, scheduler, sync and the store write path dominate",
        topology: Topology::Single { shards: 1 },
        mode: Mode::Persistent,
        keys: 10_000,
        value_bytes: 1_000,
        set_percent: 50,
        clients: 8,
        depth: 1,
        resident: 0,
        idle_timeout_s: 0,
    },
    Spec {
        name: "kv_get_large",
        why: "32 KiB values: bytes moved dominate (TCP segmentation, ACKs, cwnd, refcounted slices); a parser or store gain must not move it",
        topology: Topology::Single { shards: 8 },
        mode: Mode::Persistent,
        keys: 256,
        value_bytes: 32 * 1024,
        set_percent: 0,
        clients: 4,
        depth: 1,
        resident: 0,
        idle_timeout_s: 0,
    },
    Spec {
        name: "conn_churn",
        why: "connect, set, get, close beside 1000 idle connections: accept path, fork and exit, handshake and teardown, idle-timer arm and cancel, per-connection memory",
        topology: Topology::Single { shards: 8 },
        mode: Mode::Churn,
        keys: 10_000,
        value_bytes: 100,
        set_percent: 50,
        clients: 2,
        depth: 1,
        resident: 1_000,
        idle_timeout_s: 60,
    },
    Spec {
        name: "cluster_route",
        why: "every command crosses TCP twice through the router: ring lookup, grouping, forwarding, fan-in and reply framing dominate",
        topology: Topology::Cluster,
        mode: Mode::Persistent,
        keys: 10_000,
        value_bytes: 100,
        set_percent: 20,
        clients: 8,
        depth: 8,
        resident: 0,
        idle_timeout_s: 0,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    /// The same workload shrunk for smoke tests: fewer keys, a small
    /// resident pool. Traffic shape (mix, depth, clients) is unchanged.
    pub fn quick(&self) -> Spec {
        Spec {
            keys: self.keys.min(512),
            resident: self.resident.min(32),
            ..self.clone()
        }
    }
}

/// `splitmix64`: seeds and the per-rank value streams.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generator's random stream (xorshift64*), one per client thread.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Stream `index` of run seed `seed`.
    pub fn new(seed: u64, index: u64) -> Rng {
        let mut s = seed ^ index.wrapping_mul(0xA076_1D64_78BD_642F);
        // Never zero: xorshift's only fixed point.
        Rng(splitmix64(&mut s) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

const CRLF: &[u8] = b"\r\n";
const VALUE_END: &[u8] = b"\r\nEND\r\n";
const STORED: &[u8] = b"STORED\r\n";

/// One key's precomputed wire fragments. The value is shared between the
/// `set` request and the `get` reply, so the key space costs its values
/// once.
#[derive(Debug, Clone)]
struct KeyWire {
    get_req: Bytes,
    set_head: Bytes,
    reply_head: Bytes,
    value: Bytes,
}

/// The preloaded key space: wire fragments per rank plus the zipf CDF.
#[derive(Debug)]
pub struct Keyspace {
    keys: Vec<KeyWire>,
    cdf: Vec<f64>,
}

fn value_of(rank: usize, size: usize) -> Vec<u8> {
    let mut state = rank as u64 ^ 0x5EED_CAFE;
    let mut out = Vec::with_capacity(size);
    while out.len() < size {
        let word = splitmix64(&mut state);
        for b in word.to_le_bytes() {
            if out.len() < size {
                // Printable, never CR/LF: a misframed reply cannot pass.
                out.push(b'!' + b % 94);
            }
        }
    }
    out
}

impl Keyspace {
    pub fn new(keys: usize, value_bytes: usize) -> Keyspace {
        assert!(keys > 0, "empty key space");
        let wires = (0..keys)
            .map(|rank| {
                let flags = rank & 0xffff;
                KeyWire {
                    get_req: format!("get k{rank:06}\r\n").into_bytes().into(),
                    set_head: format!("set k{rank:06} {flags} 0 {value_bytes}\r\n")
                        .into_bytes()
                        .into(),
                    reply_head: format!("VALUE k{rank:06} {flags} {value_bytes}\r\n")
                        .into_bytes()
                        .into(),
                    value: value_of(rank, value_bytes).into(),
                }
            })
            .collect();
        let mut cdf: Vec<f64> = (1..=keys).map(|k| (k as f64).powf(-ZIPF_S)).collect();
        let total: f64 = cdf.iter().sum();
        let mut acc = 0.0;
        for w in &mut cdf {
            acc += *w / total;
            *w = acc;
        }
        cdf[keys - 1] = 1.0;
        Keyspace { keys: wires, cdf }
    }

    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// A zipf-distributed rank.
    pub fn sample_rank(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c < u)
            .min(self.keys.len() - 1)
    }

    /// The key text of `rank` (for the cost table's direct store calls).
    pub fn key(&self, rank: usize) -> Bytes {
        let req = &self.keys[rank].get_req;
        req.slice(4..req.len() - 2)
    }

    pub fn value(&self, rank: usize) -> Bytes {
        self.keys[rank].value.clone()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Get(usize),
    Set(usize),
}

/// One round trip's worth of commands with its exact request and reply
/// bytes, as gather lists of refcounted fragments.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    pub ops: usize,
    pub request: Vec<Bytes>,
    pub expected: Vec<Bytes>,
}

impl Batch {
    pub fn request_len(&self) -> usize {
        self.request.iter().map(Bytes::len).sum()
    }

    pub fn expected_len(&self) -> usize {
        self.expected.iter().map(Bytes::len).sum()
    }

    pub fn push(&mut self, ks: &Keyspace, op: Op) {
        self.ops += 1;
        match op {
            Op::Get(rank) => {
                let k = &ks.keys[rank];
                self.request.push(k.get_req.clone());
                self.expected.push(k.reply_head.clone());
                self.expected.push(k.value.clone());
                self.expected.push(Bytes::from_static(VALUE_END));
            }
            Op::Set(rank) => {
                let k = &ks.keys[rank];
                self.request.push(k.set_head.clone());
                self.request.push(k.value.clone());
                self.request.push(Bytes::from_static(CRLF));
                self.expected.push(Bytes::from_static(STORED));
            }
        }
    }
}

/// Draws `depth` commands: zipf rank, then get or set by `set_percent`.
pub fn draw_batch(ks: &Keyspace, rng: &mut Rng, depth: usize, set_percent: u8) -> Batch {
    let mut batch = Batch::default();
    for _ in 0..depth {
        let rank = ks.sample_rank(rng);
        let op = if rng.next_u64() % 100 < u64::from(set_percent) {
            Op::Set(rank)
        } else {
            Op::Get(rank)
        };
        batch.push(ks, op);
    }
    batch
}

/// The two round trips of one churn lifecycle: `set k`, then `get k`.
pub fn draw_churn(ks: &Keyspace, rng: &mut Rng) -> [Batch; 2] {
    let rank = ks.sample_rank(rng);
    let mut set = Batch::default();
    set.push(ks, Op::Set(rank));
    let mut get = Batch::default();
    get.push(ks, Op::Get(rank));
    [set, get]
}

/// Preload batches: every rank set once, `depth` per round trip.
pub fn preload_batches(ks: &Keyspace, depth: usize) -> Vec<Batch> {
    (0..ks.len())
        .collect::<Vec<_>>()
        .chunks(depth)
        .map(|ranks| {
            let mut batch = Batch::default();
            for &rank in ranks {
                batch.push(ks, Op::Set(rank));
            }
            batch
        })
        .collect()
}

pub fn flatten(segs: &[Bytes]) -> Vec<u8> {
    segs.iter().flat_map(|b| b.iter().copied()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request_stream(seed: u64, client: u64, batches: usize) -> Vec<u8> {
        let ks = Keyspace::new(500, 20);
        let mut rng = Rng::new(seed, client);
        let mut out = Vec::new();
        for _ in 0..batches {
            out.extend(flatten(&draw_batch(&ks, &mut rng, 8, 30).request));
        }
        out
    }

    #[test]
    fn same_seed_gives_identical_request_bytes() {
        assert_eq!(request_stream(7, 0, 50), request_stream(7, 0, 50));
        assert_eq!(request_stream(7, 3, 50), request_stream(7, 3, 50));
    }

    #[test]
    fn different_seed_or_client_gives_different_request_bytes() {
        assert_ne!(request_stream(7, 0, 50), request_stream(8, 0, 50));
        assert_ne!(request_stream(7, 0, 50), request_stream(7, 1, 50));
    }

    #[test]
    fn wire_format_is_memcached_text() {
        let ks = Keyspace::new(3, 4);
        let mut b = Batch::default();
        b.push(&ks, Op::Set(2));
        b.push(&ks, Op::Get(2));
        let value = ks.value(2);
        assert_eq!(value.len(), 4);
        let mut req = b"set k000002 2 0 4\r\n".to_vec();
        req.extend_from_slice(&value);
        req.extend_from_slice(b"\r\nget k000002\r\n");
        assert_eq!(flatten(&b.request), req);
        let mut rep = b"STORED\r\nVALUE k000002 2 4\r\n".to_vec();
        rep.extend_from_slice(&value);
        rep.extend_from_slice(b"\r\nEND\r\n");
        assert_eq!(flatten(&b.expected), rep);
        assert_eq!(b.request_len(), req.len());
        assert_eq!(b.expected_len(), rep.len());
        assert_eq!(&ks.key(2)[..], b"k000002");
    }

    #[test]
    fn values_are_printable_and_differ_by_rank() {
        let a = value_of(1, 300);
        let b = value_of(2, 300);
        assert_ne!(a, b);
        assert!(a.iter().all(|c| (b'!'..=b'~').contains(c)));
        assert_eq!(value_of(1, 300), a);
    }

    #[test]
    fn zipf_prefers_low_ranks_and_stays_in_range() {
        let ks = Keyspace::new(1000, 1);
        let mut rng = Rng::new(1, 0);
        let mut low = 0;
        for _ in 0..10_000 {
            let r = ks.sample_rank(&mut rng);
            assert!(r < 1000);
            if r < 10 {
                low += 1;
            }
        }
        // Ranks 0..10 carry ~39 % of the mass at s = 0.99, n = 1000.
        assert!((3_000..5_000).contains(&low), "low-rank draws: {low}");
    }

    #[test]
    fn preload_covers_every_rank_once() {
        let ks = Keyspace::new(130, 8);
        let batches = preload_batches(&ks, 64);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches.iter().map(|b| b.ops).sum::<usize>(), 130);
    }
}
