//! The closed-loop load generator: raw request bytes over `NetStack` /
//! `Conn`, byte-exact reply verification, and the client-side stamps.
//!
//! Owned by the benchmark on purpose — it shares nothing with
//! `eveth_kv::loadgen`, `KvClient` or `ReplyParser`, so no later change to
//! the services can alter the traffic or the check.

use std::sync::Arc;

use bytes::Bytes;
use eveth_core::net::{send_all_vectored, Conn, Endpoint, NetStack};
use eveth_core::syscall::{sys_sleep, sys_time};
use eveth_core::time::{Nanos, MILLIS, SECS};
use eveth_core::{loop_m, Loop, ThreadM};

use crate::trace::{self, ConnTrack, Ledger, Span};
use crate::workload::{draw_batch, draw_churn, Batch, Keyspace, Rng, Spec};

/// Why a reply was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A received byte differs from the expected one at this stream offset.
    Mismatch { offset: usize },
    /// More bytes arrived than the batch's reply holds.
    Surplus { extra: usize },
    /// The stream ended with this many expected bytes still missing.
    Truncated { missing: usize },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Mismatch { offset } => write!(f, "reply differs at byte {offset}"),
            VerifyError::Surplus { extra } => write!(f, "{extra} bytes beyond the reply"),
            VerifyError::Truncated { missing } => write!(f, "reply ended {missing} bytes short"),
        }
    }
}

/// Compares an incoming byte stream against the one correct reply, chunk
/// by chunk, without assembling either.
#[derive(Debug)]
pub struct Verifier {
    expected: Vec<Bytes>,
    seg: usize,
    seg_off: usize,
    seen: usize,
    remaining: usize,
}

impl Verifier {
    pub fn new(expected: Vec<Bytes>) -> Verifier {
        let remaining = expected.iter().map(Bytes::len).sum();
        Verifier {
            expected,
            seg: 0,
            seg_off: 0,
            seen: 0,
            remaining,
        }
    }

    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Checks the next received chunk; `Ok(true)` once the whole reply
    /// has been seen.
    pub fn feed(&mut self, mut chunk: &[u8]) -> Result<bool, VerifyError> {
        while !chunk.is_empty() {
            while self.seg < self.expected.len() && self.seg_off == self.expected[self.seg].len() {
                self.seg += 1;
                self.seg_off = 0;
            }
            let Some(seg) = self.expected.get(self.seg) else {
                return Err(VerifyError::Surplus { extra: chunk.len() });
            };
            let want = &seg[self.seg_off..];
            let n = want.len().min(chunk.len());
            if want[..n] != chunk[..n] {
                let at = want
                    .iter()
                    .zip(chunk)
                    .position(|(a, b)| a != b)
                    .unwrap_or(0);
                return Err(VerifyError::Mismatch {
                    offset: self.seen + at,
                });
            }
            self.seg_off += n;
            self.seen += n;
            self.remaining -= n;
            chunk = &chunk[n..];
        }
        Ok(self.remaining == 0)
    }

    /// The stream ended: complete, or truncated.
    pub fn finish(&self) -> Result<(), VerifyError> {
        if self.remaining == 0 {
            Ok(())
        } else {
            Err(VerifyError::Truncated {
                missing: self.remaining,
            })
        }
    }
}

/// Sends one batch and verifies its reply byte for byte.
pub fn round_trip(conn: &Arc<dyn Conn>, batch: Batch) -> ThreadM<Result<(), String>> {
    let recv_conn = Arc::clone(conn);
    let verifier = Verifier::new(batch.expected);
    send_all_vectored(conn, batch.request).bind(move |sent| match sent {
        Err(e) => ThreadM::pure(Err(format!("send failed: {e}"))),
        Ok(()) => loop_m(verifier, move |mut v| {
            recv_conn
                .recv(v.remaining().clamp(1, 64 * 1024))
                .map(move |r| match r {
                    Err(e) => Loop::Break(Err(format!("recv failed: {e}"))),
                    Ok(chunk) if chunk.is_empty() => {
                        Loop::Break(v.finish().map_err(|e| e.to_string()))
                    }
                    Ok(chunk) => match v.feed(&chunk) {
                        Err(e) => Loop::Break(Err(e.to_string())),
                        Ok(true) => Loop::Break(Ok(())),
                        Ok(false) => Loop::Continue(v),
                    },
                })
        }),
    })
}

/// One completed client op (a batch, or a churn lifecycle). Latency
/// saturates at 4.29 s, far beyond the watchdog's patience per op.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub t_done: Nanos,
    pub lat_ns: u32,
    pub ops: u32,
}

impl Sample {
    fn new(t0: Nanos, t_done: Nanos, ops: u64) -> Sample {
        Sample {
            t_done,
            lat_ns: u32::try_from(t_done - t0).unwrap_or(u32::MAX),
            ops: ops as u32,
        }
    }
}

/// Samples a generator reserves room for per second of recorded span:
/// several times what one connection can complete, so the log never
/// reallocates (a doubling `Vec` would put a step into peak RSS at
/// whatever throughput crosses a power of two). Untouched capacity costs
/// address space, not memory.
const SAMPLE_ROOM_PER_S: u64 = 40_000;

/// What one generator thread hands back.
#[derive(Debug, Default)]
pub struct GenResult {
    pub samples: Vec<Sample>,
    /// Commands (lifecycles on churn) sent / not verified correct.
    pub attempted: u64,
    pub failed: u64,
    /// Request + reply bytes of verified ops.
    pub bytes: u64,
    pub error: Option<String>,
}

/// What every generator thread of a run shares.
pub struct GenEnv {
    pub spec: Spec,
    pub keyspace: Arc<Keyspace>,
    pub seed: u64,
    pub stack: Arc<dyn NetStack>,
    pub front: Endpoint,
    /// Samples completing before this instant (warm-up) are not kept.
    pub t_record: Nanos,
    /// Generators stop issuing at this instant.
    pub t_end: Nanos,
    pub ledger: Option<Arc<Ledger>>,
}

/// A client connection with its connect stamps and ledger track.
pub struct ClientConn {
    pub conn: Arc<dyn Conn>,
    pub track: Option<Arc<ConnTrack>>,
    pub t_dial: Nanos,
    pub t_open: Nanos,
}

/// Dials `front`. A refused dial is retried a few times, 1 ms apart: the
/// serving thread may not have reached `listen` yet.
pub fn open_conn(
    stack: &Arc<dyn NetStack>,
    front: Endpoint,
    ledger: Option<Arc<Ledger>>,
) -> ThreadM<Result<ClientConn, String>> {
    let stack = Arc::clone(stack);
    loop_m(0u32, move |attempt| {
        let stack = Arc::clone(&stack);
        let ledger = ledger.clone();
        sys_time().bind(move |t_dial| {
            stack.connect(front).bind(move |r| match r {
                Ok(conn) => sys_time().map(move |t_open| {
                    let track = ledger.map(|l| l.track(conn.local(), conn.peer()));
                    Loop::Break(Ok(ClientConn {
                        conn,
                        track,
                        t_dial,
                        t_open,
                    }))
                }),
                Err(e) if attempt >= 50 => {
                    ThreadM::pure(Loop::Break(Err(format!("connect {front}: {e}"))))
                }
                Err(_) => sys_sleep(MILLIS).map(move |()| Loop::Continue(attempt + 1)),
            })
        })
    })
}

impl ClientConn {
    /// A client-side span on this connection; `None` when untraced.
    fn span(&self, name: &'static str, batch: u32, t0: Nanos, t1: Nanos) -> Option<Span> {
        self.track.as_ref().map(|track| Span {
            name,
            role: "client",
            conn: track.id,
            batch,
            t0,
            t1,
        })
    }

    fn connect_span(&self) -> Option<Span> {
        self.span(trace::CONNECT, 0, self.t_dial, self.t_open)
    }

    /// Dial → the serving application holds the connection, once the
    /// serving side has stamped its accept.
    fn accept_wait_span(&self) -> Option<Span> {
        let t_accept = self.track.as_ref()?.accepted_at()?;
        (t_accept >= self.t_dial)
            .then(|| self.span(trace::ACCEPT_WAIT, 0, self.t_dial, t_accept))
            .flatten()
    }
}

/// One traced round trip: announce, send, verify, collect the stamps.
/// Returns the stages (empty when untraced) beside the outcome.
fn traced_round_trip(
    cc: &ClientConn,
    batch: Batch,
    batch_no: u32,
) -> ThreadM<(Result<(), String>, Vec<Span>)> {
    let Some(track) = cc.track.clone() else {
        return round_trip(&cc.conn, batch).map(|r| (r, Vec::new()));
    };
    track.begin_batch(batch.request_len(), batch.expected_len());
    let conn = Arc::clone(&cc.conn);
    sys_time().bind(move |t_send| {
        round_trip(&conn, batch).bind(move |r| {
            sys_time().map(move |t_done| {
                let stamps = track.end_batch();
                let stages = trace::batch_stages(track.id, batch_no, t_send, stamps, t_done);
                (r, stages)
            })
        })
    })
}

struct GenState {
    rng: Rng,
    out: GenResult,
    batch_no: u32,
}

impl GenState {
    fn new(env: &GenEnv, index: usize) -> GenState {
        GenState {
            rng: Rng::new(env.seed, index as u64),
            out: GenResult {
                samples: Vec::with_capacity(
                    ((env.t_end - env.t_record) / SECS + 1).saturating_mul(SAMPLE_ROOM_PER_S)
                        as usize,
                ),
                ..GenResult::default()
            },
            batch_no: 0,
        }
    }

    fn fail(mut self, ops: u64, why: String) -> GenResult {
        self.out.attempted += ops;
        self.out.failed += ops;
        self.out.error = Some(why);
        self.out
    }
}

/// A generator thread on its own persistent connection: draw a batch,
/// send, verify, repeat until the deadline. A failed batch ends the
/// thread (the stream is no longer aligned).
pub fn persistent_client(env: Arc<GenEnv>, index: usize, cc: ClientConn) -> ThreadM<GenResult> {
    let cc = Arc::new(cc);
    let closer = Arc::clone(&cc);
    if let Some(l) = &env.ledger {
        l.record_all(cc.connect_span().into_iter().chain(cc.accept_wait_span()));
    }
    let state = GenState::new(&env, index);
    loop_m(state, move |mut st| {
        let env = Arc::clone(&env);
        let cc = Arc::clone(&cc);
        sys_time().bind(move |t0| {
            if t0 >= env.t_end {
                return ThreadM::pure(Loop::Break(st.out));
            }
            let batch = draw_batch(
                &env.keyspace,
                &mut st.rng,
                env.spec.depth,
                env.spec.set_percent,
            );
            let ops = batch.ops as u64;
            let bytes = (batch.request_len() + batch.expected_len()) as u64;
            let batch_no = st.batch_no;
            st.batch_no += 1;
            traced_round_trip(&cc, batch, batch_no).bind(move |(r, stages)| {
                sys_time().map(move |t1| match r {
                    Err(why) => Loop::Break(st.fail(ops, why)),
                    Ok(()) => {
                        st.out.attempted += ops;
                        if t1 >= env.t_record {
                            st.out.bytes += bytes;
                            st.out.samples.push(Sample::new(t0, t1, ops));
                            if let Some(l) = &env.ledger {
                                l.record_op(t0, t1, &stages);
                            }
                        }
                        Loop::Continue(st)
                    }
                })
            })
        })
    })
    .bind(move |out| closer.conn.close().map(move |()| out))
}

/// Both round trips of one churn lifecycle on an open connection, then
/// close. Returns the outcome and the lifecycle's stages: connect, each
/// round trip's three, close.
fn churn_lifecycle(
    cc: Arc<ClientConn>,
    [set, get]: [Batch; 2],
    lifecycle: u32,
) -> ThreadM<(Result<(), String>, Vec<Span>)> {
    let (second_on, closing) = (Arc::clone(&cc), Arc::clone(&cc));
    traced_round_trip(&cc, set, 2 * lifecycle).bind(move |(r1, mut stages)| {
        let second = match r1 {
            Ok(()) => traced_round_trip(&second_on, get, 2 * lifecycle + 1),
            Err(why) => ThreadM::pure((Err(why), Vec::new())),
        };
        second.bind(move |(r2, more)| {
            stages.extend(more);
            sys_time().bind(move |t_close| {
                closing.conn.close().then(sys_time()).map(move |t1| {
                    stages.extend(closing.connect_span());
                    stages.extend(closing.span(trace::CLOSE, lifecycle, t_close, t1));
                    (r2, stages)
                })
            })
        })
    })
}

/// A churn generator: connect → set → get → close, one sample per
/// lifecycle, which is also the ledger's op.
pub fn churn_client(env: Arc<GenEnv>, index: usize) -> ThreadM<GenResult> {
    let state = GenState::new(&env, index);
    loop_m(state, move |mut st| {
        let env = Arc::clone(&env);
        sys_time().bind(move |t0| {
            if t0 >= env.t_end {
                return ThreadM::pure(Loop::Break(st.out));
            }
            let batches = draw_churn(&env.keyspace, &mut st.rng);
            let bytes: usize = batches
                .iter()
                .map(|b| b.request_len() + b.expected_len())
                .sum();
            let lifecycle = st.batch_no;
            st.batch_no += 1;
            open_conn(&env.stack, env.front, env.ledger.clone()).bind(move |opened| {
                let cc = match opened {
                    Ok(cc) => Arc::new(cc),
                    Err(why) => return ThreadM::pure(Loop::Break(st.fail(1, why))),
                };
                churn_lifecycle(Arc::clone(&cc), batches, lifecycle).bind(move |(r, stages)| {
                    sys_time().map(move |t1| {
                        if let Some(l) = &env.ledger {
                            l.untrack(cc.conn.local(), cc.conn.peer());
                        }
                        if let Err(why) = r {
                            return Loop::Break(st.fail(1, why));
                        }
                        st.out.attempted += 1;
                        if t1 >= env.t_record {
                            st.out.bytes += bytes as u64;
                            st.out.samples.push(Sample::new(t0, t1, 1));
                            if let Some(l) = &env.ledger {
                                l.record_op(t0, t1, &stages);
                                l.record_all(cc.accept_wait_span());
                            }
                        }
                        Loop::Continue(st)
                    })
                })
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{flatten, Op};

    fn reply() -> (Vec<Bytes>, Vec<u8>) {
        let ks = Keyspace::new(4, 32);
        let mut b = Batch::default();
        b.push(&ks, Op::Get(1));
        b.push(&ks, Op::Set(2));
        b.push(&ks, Op::Get(3));
        let flat = flatten(&b.expected);
        (b.expected, flat)
    }

    #[test]
    fn accepts_the_exact_reply_in_any_chunking() {
        let (expected, flat) = reply();
        for chunk in [1, 3, 7, 64, flat.len()] {
            let mut v = Verifier::new(expected.clone());
            let mut done = false;
            for piece in flat.chunks(chunk) {
                assert!(!done, "done before the last chunk");
                done = v.feed(piece).expect("exact bytes verify");
            }
            assert!(done);
            assert_eq!(v.finish(), Ok(()));
        }
    }

    #[test]
    fn rejects_a_truncated_reply() {
        let (expected, flat) = reply();
        let mut v = Verifier::new(expected);
        assert_eq!(v.feed(&flat[..flat.len() - 5]), Ok(false));
        assert_eq!(v.finish(), Err(VerifyError::Truncated { missing: 5 }));
    }

    #[test]
    fn rejects_a_corrupted_reply() {
        let (expected, mut flat) = reply();
        flat[40] ^= 0x01;
        let mut v = Verifier::new(expected);
        assert_eq!(v.feed(&flat), Err(VerifyError::Mismatch { offset: 40 }));
    }

    #[test]
    fn rejects_a_reordered_reply() {
        let ks = Keyspace::new(4, 32);
        let mut sent = Batch::default();
        sent.push(&ks, Op::Get(1));
        sent.push(&ks, Op::Get(3));
        let mut answered = Batch::default();
        answered.push(&ks, Op::Get(3));
        answered.push(&ks, Op::Get(1));
        let mut v = Verifier::new(sent.expected);
        assert!(matches!(
            v.feed(&flatten(&answered.expected)),
            Err(VerifyError::Mismatch { .. })
        ));
    }

    #[test]
    fn rejects_surplus_bytes() {
        let (expected, mut flat) = reply();
        flat.extend_from_slice(b"END\r\n");
        let mut v = Verifier::new(expected);
        assert_eq!(v.feed(&flat), Err(VerifyError::Surplus { extra: 5 }));
    }
}
