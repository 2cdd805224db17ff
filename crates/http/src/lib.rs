//! # eveth-http — the paper's web server case study (§5.2)
//!
//! A static-content web server written with monadic threads over the
//! hybrid runtime: HTTP parsing ([`parser`]), response construction
//! ([`response`]), the server's own AIO-backed LRU file cache ([`cache`]),
//! the server itself ([`server`] — a thin `Service` on the generic
//! event-native `Server<S>` of `eveth_core::service`) and a load generator
//! ([`loadgen`]).
//!
//! The socket layer is injected through
//! [`NetStack`](eveth_core::net::NetStack): pass the kernel-socket model
//! (`eveth_simos::sockets`) or the application-level TCP stack
//! (`eveth_tcp`) — the paper's one-line switch.
//!
//! ```
//! use eveth_core::io::ramdisk::MemStore;
//! use eveth_core::net::{Endpoint, HostId, NetStack};
//! use eveth_http::loadgen::http_get;
//! use eveth_http::server::{ServerConfig, WebServer};
//! use eveth_simos::net::LinkParams;
//! use eveth_simos::sockets::SocketFabric;
//! use eveth_simos::SimRuntime;
//! use std::sync::Arc;
//!
//! let sim = SimRuntime::new_default();
//! let fabric = SocketFabric::new(sim.clock(), LinkParams::ethernet_100mbps());
//!
//! let files = Arc::new(MemStore::new());
//! files.insert_bytes("/hello.html", b"<h1>hi</h1>".to_vec());
//!
//! let server = WebServer::new(
//!     fabric.stack(HostId(1)),
//!     files,
//!     ServerConfig { port: 80, ..Default::default() },
//! );
//! sim.spawn(server.run());
//!
//! let client = fabric.stack(HostId(2));
//! let (status, _bytes) = sim
//!     .block_on(eveth_core::do_m! {
//!         let conn <- client.connect(Endpoint::new(HostId(1), 80));
//!         let conn = conn.unwrap();
//!         let res <- http_get(&conn, "/hello.html");
//!         eveth_core::ThreadM::pure(res.unwrap())
//!     })
//!     .unwrap();
//! assert_eq!(status, 200);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod loadgen;
pub mod parser;
pub mod response;
pub mod server;

pub use cache::FileCache;
pub use parser::{Method, ParseError, Request, RequestParser, Version};
pub use response::Response;
pub use server::{HttpStats, ServerConfig, WebServer};
