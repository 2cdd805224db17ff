//! # eveth-tcp — an application-level TCP stack for monadic threads
//!
//! The paper's §4.8: because the hybrid model combines events and threads in
//! one program, a transport protocol can live *inside the application* —
//! type-safe, tailorable, and scheduled by the same event-driven system as
//! everything else. This crate is that stack:
//!
//! * [`segment`] — wire segments with zero-copy [`bytes::Bytes`] payloads;
//! * [`seq`] — 32-bit sequence arithmetic;
//! * [`tcb`] — the per-connection state machine (handshake, sliding
//!   windows, out-of-order reassembly, FIN/RST teardown) as a pure
//!   transition system whose send and receive queues
//!   ([`ByteQueue`](eveth_core::io::queue::ByteQueue)s) hold refcounted
//!   windows of the application's buffers, not copies of their bytes —
//!   and the [`TimeWait`] record that replaces a TCB once it is closed;
//! * [`rtt`] — Jacobson/Karels RTO estimation with Karn's rule;
//! * [`congestion`] — Reno: slow start, congestion avoidance, fast
//!   retransmit/recovery;
//! * [`host`] — the event-loop glue (`worker_tcp_input`,
//!   `worker_tcp_timer`) and sockets implementing
//!   [`NetStack`](eveth_core::net::NetStack), so servers swap kernel
//!   sockets for this stack by changing one line;
//! * [`transport`] — pluggable packet substrates, including an in-process
//!   loopback with deterministic loss/duplication for protocol tests.
//!
//! ## Example: an echo roundtrip over a lossy link
//!
//! ```
//! use bytes::Bytes;
//! use eveth_core::net::{recv_exact, send_all, Endpoint, HostId, NetStack};
//! use eveth_core::syscall::sys_fork;
//! use eveth_core::{do_m, ThreadM};
//! use eveth_simos::SimRuntime;
//! use eveth_tcp::host::TcpHost;
//! use eveth_tcp::tcb::TcpConfig;
//! use eveth_tcp::transport::{Faults, LoopbackNet};
//!
//! let sim = SimRuntime::new_default();
//! let net = LoopbackNet::with_faults(Faults { loss: 0.05, ..Default::default() }, 7);
//! let a = TcpHost::start(sim.ctx(), HostId(1), net.clone(), TcpConfig::default());
//! let b = TcpHost::start(sim.ctx(), HostId(2), net.clone(), TcpConfig::default());
//! net.register(&a);
//! net.register(&b);
//!
//! let server = do_m! {
//!     let lst <- b.listen(80);
//!     let conn <- lst.unwrap().accept();
//!     let conn = conn.unwrap();
//!     let data <- recv_exact(&conn, 4);
//!     let sent <- send_all(&conn, data.unwrap());
//!     let _ = sent.unwrap();
//!     ThreadM::pure(())
//! };
//! let echoed = sim
//!     .block_on(do_m! {
//!         sys_fork(server);
//!         let conn <- a.connect(Endpoint::new(HostId(2), 80));
//!         let conn = conn.unwrap();
//!         let sent <- send_all(&conn, Bytes::from_static(b"ping"));
//!         let _ = sent.unwrap();
//!         recv_exact(&conn, 4)
//!     })
//!     .unwrap()
//!     .unwrap();
//! assert_eq!(&echoed[..], b"ping");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod congestion;
pub mod host;
pub mod rtt;
pub mod segment;
pub mod seq;
pub mod tcb;
pub mod transport;

pub use host::{TcpConn, TcpHost, TcpListener};
pub use segment::{Flags, Segment};
pub use tcb::{State, Tcb, TcpConfig, TcpStats, TimeWait};
pub use transport::{Faults, LoopbackNet, SegmentTransport};
