//! # eveth-kv — a sharded, memcached-style key-value service
//!
//! The repository's second network service over the hybrid
//! events-and-threads runtime, demonstrating that the paper's model
//! generalizes beyond the §5.2 web server: per-client code is a
//! straight-line monadic thread, the application is event-driven
//! underneath, and the socket layer is injected through
//! [`NetStack`](eveth_core::net::NetStack) — the paper's one-line switch
//! between simulated kernel sockets and the application-level TCP stack.
//!
//! * [`protocol`] — incremental, pipelining-friendly parser for the
//!   memcached text protocol (`get`/`set`/`delete`/`incr`/`decr`/`stats`,
//!   `noreply`), with zero-copy payload slicing, plus reply encoding and a
//!   client-side reply parser;
//! * [`store`] — the sharded store: keys hash onto N shards, each guarded
//!   by a monadic [`Mutex`](eveth_core::sync::Mutex) *or* an
//!   [`eveth_stm::TVar`] transaction, selected by
//!   [`StoreConfig::backend`](store::StoreConfig);
//! * [`expiry`] — TTL reclamation: lazy on reads, plus a janitor thread
//!   woken by the runtime timer wheel;
//! * [`stats`] — per-shard and aggregate counters (the `stats` command);
//! * [`server`] — the server itself: a thin `Service` on the generic
//!   event-native `Server<S>` of `eveth_core::service`, one monadic thread per
//!   connection, pipelined execution with coalesced replies;
//! * [`client`] — the reusable wire client (connect, pipelined
//!   request/response, typed errors) shared by the loadgen and the
//!   cluster router, and [`client::ReplyFramer`], the one place replies
//!   are grouped into commands (with their raw frames, for byte-exact
//!   forwarding);
//! * [`loadgen`] — monadic client threads issuing pipelined get/set mixes
//!   over zipfian keys.
//!
//! ## Quickstart
//!
//! ```
//! use eveth_core::net::{Endpoint, HostId, NetStack};
//! use eveth_kv::loadgen::{client_thread, KvLoadConfig, KvLoadStats, Zipf};
//! use eveth_kv::server::{KvConfig, KvServer};
//! use eveth_simos::net::LinkParams;
//! use eveth_simos::sockets::SocketFabric;
//! use eveth_simos::SimRuntime;
//! use std::sync::Arc;
//!
//! let sim = SimRuntime::new_default();
//! let fabric = SocketFabric::new(sim.clock(), LinkParams::ethernet_100mbps());
//!
//! let server = KvServer::new(fabric.stack(HostId(1)), KvConfig::default());
//! sim.spawn(server.run());
//!
//! let cfg = Arc::new(KvLoadConfig {
//!     server: Endpoint::new(HostId(1), 11211),
//!     batches_per_conn: 4,
//!     pipeline_depth: 4,
//!     set_percent: 50,
//!     ..Default::default()
//! });
//! let zipf = Arc::new(Zipf::new(cfg.keys, cfg.zipf_s));
//! let stats = Arc::new(KvLoadStats::default());
//! // `block_on` (not `run`): the server's janitor re-arms the timer wheel
//! // forever, so the simulation never goes quiescent on its own.
//! sim.block_on(client_thread(
//!     fabric.stack(HostId(2)),
//!     Arc::clone(&cfg),
//!     Arc::clone(&zipf),
//!     Arc::clone(&stats),
//!     0,
//! ))
//! .unwrap();
//! assert_eq!(stats.clients_done.get(), 1);
//! assert_eq!(stats.responses(), 16, "4 batches x 4 pipelined commands");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod expiry;
pub mod loadgen;
pub mod protocol;
pub mod server;
pub mod stats;
pub mod store;

pub use client::{KvClient, KvClientError, ReplyFramer};
pub use protocol::{Command, CommandParser, ProtoError, Reply, ReplyParser};
pub use server::{KvConfig, KvServer};
pub use stats::{KvStats, StatsSnapshot};
pub use store::{Backend, Entry, ShardedStore, StoreConfig};
