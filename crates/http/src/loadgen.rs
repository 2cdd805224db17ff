//! The multithreaded HTTP load generator (paper §5.2): each client is a
//! monadic thread that connects once and then repeatedly requests files
//! chosen at random, counting delivered bytes. The client is the shared
//! closed loop, [`eveth_core::net::closed_loop`]; this module owns its one
//! step (a random `GET` and its response) and the counters.

use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use eveth_core::net::{closed_loop, send_all, Conn, Endpoint, NetError, NetStack};
use eveth_core::telemetry::metrics::Counter;
use eveth_core::{do_m, loop_m, Loop, ThreadM};

use crate::parser::parse_response_head;

/// Load-generator parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server to hammer.
    pub server: Endpoint,
    /// Requests each client issues before closing.
    pub requests_per_conn: usize,
    /// Candidate request paths.
    pub paths: Arc<Vec<String>>,
    /// Seed for path selection.
    pub seed: u64,
}

/// Aggregate client-side counters.
#[derive(Debug, Default)]
pub struct LoadStats {
    /// 200 responses fully received.
    pub ok: Counter,
    /// Non-200 responses.
    pub non_200: Counter,
    /// Transport-level failures.
    pub errors: Counter,
    /// Total bytes received (heads + bodies).
    pub bytes: Counter,
    /// Clients that finished their run.
    pub clients_done: Counter,
}

impl LoadStats {
    /// Total responses observed.
    pub fn responses(&self) -> u64 {
        self.ok.get() + self.non_200.get()
    }
}

/// Issues one `GET path` on an open connection and reads the complete
/// response; returns status and total response bytes.
pub fn http_get(conn: &Arc<dyn Conn>, path: &str) -> ThreadM<Result<(u16, usize), NetError>> {
    let request = Bytes::from(format!(
        "GET {path} HTTP/1.1\r\nHost: bench\r\nUser-Agent: eveth-loadgen\r\n\r\n"
    ));
    let conn = Arc::clone(conn);
    do_m! {
        let sent <- send_all(&conn, request);
        match sent {
            Err(e) => ThreadM::pure(Err(e)),
            Ok(()) => read_response(conn),
        }
    }
}

fn read_response(conn: Arc<dyn Conn>) -> ThreadM<Result<(u16, usize), NetError>> {
    loop_m(Vec::new(), move |mut acc: Vec<u8>| {
        match parse_response_head(&acc) {
            Err(_) => {
                return ThreadM::pure(Loop::Break(Err(NetError::Protocol(
                    "unparseable response head".into(),
                ))))
            }
            Ok(Some(head)) => {
                let total = head.head_len + head.content_length;
                if acc.len() >= total {
                    return ThreadM::pure(Loop::Break(Ok((head.status, total))));
                }
            }
            Ok(None) => {}
        }
        conn.recv(64 * 1024).map(move |r| match r {
            Err(e) => Loop::Break(Err(e)),
            Ok(chunk) if chunk.is_empty() => Loop::Break(Err(NetError::Closed)),
            Ok(chunk) => {
                acc.extend_from_slice(&chunk);
                Loop::Continue(acc)
            }
        })
    })
}

/// One load-generator client: connect, request `requests_per_conn`
/// random files, close.
pub fn client_thread(
    stack: Arc<dyn NetStack>,
    cfg: Arc<LoadConfig>,
    stats: Arc<LoadStats>,
    id: u64,
) -> ThreadM<()> {
    let rng0 = cfg.seed ^ (id.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
    let (failed, done) = (stats.errors.clone(), stats.clients_done.clone());
    closed_loop(
        &stack,
        cfg.server,
        (rng0, 0usize),
        failed,
        done,
        move |conn, (mut rng, i)| {
            if i >= cfg.requests_per_conn {
                return ThreadM::pure(None);
            }
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let path = &cfg.paths[(rng as usize) % cfg.paths.len()];
            let stats = Arc::clone(&stats);
            http_get(conn, path).map(move |res| match res {
                Ok((status, bytes)) => {
                    if status == 200 {
                        stats.ok.incr();
                    } else {
                        stats.non_200.incr();
                    }
                    stats.bytes.add(bytes as u64);
                    Some((rng, i + 1))
                }
                Err(_) => {
                    stats.errors.incr();
                    None
                }
            })
        },
    )
}

/// Standard benchmark corpus paths: `/fNNNNN.html`.
pub fn corpus_paths(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("/f{i:06}.html")).collect()
}

impl fmt::Display for LoadStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ok={} non200={} errors={} bytes={}",
            self.ok.get(),
            self.non_200.get(),
            self.errors.get(),
            self.bytes.get()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_paths_are_distinct_and_stable() {
        let a = corpus_paths(100);
        let b = corpus_paths(100);
        assert_eq!(a, b);
        let set: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(set.len(), 100);
        assert_eq!(a[7], "/f000007.html");
    }

    #[test]
    fn load_stats_aggregate() {
        let s = LoadStats::default();
        s.ok.add(3);
        s.non_200.add(2);
        assert_eq!(s.responses(), 5);
        assert!(s.to_string().contains("ok=3"));
    }
}
