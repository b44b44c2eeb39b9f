//! # ssr-serve — concurrent SimRank\* query serving
//!
//! The workspace's serving layer: everything between a TCP socket and the
//! amortized [`simrank_star::QueryEngine`]. The batch engines (PR 2/3)
//! made single queries and full sweeps fast; this crate makes them
//! *servable* — many concurrent clients, work reuse across requests, and
//! graph swaps without downtime:
//!
//! * [`epoch`] — **epoch snapshots**: graph + prepared engine behind an
//!   atomically swappable `Arc`. Admin `reload`/`edge-delta` ops publish a
//!   new epoch while in-flight queries finish on the old one; every
//!   response and cache key carries its epoch, so answers are always
//!   attributable to an exact graph version.
//! * [`cache`] — a **sharded LRU result cache** keyed by
//!   `(epoch, node, params, k)` with per-shard locks, lazy-LRU eviction,
//!   and hit/miss/insert/eviction counters.
//! * [`batcher`] — the **coalescing micro-batcher**: cache misses enter a
//!   bounded queue (the admission-control point — overflow sheds instead
//!   of queueing unboundedly) and one flush worker parks briefly to
//!   coalesce concurrent requests into one [`QueryEngine::top_k_batch`]
//!   call. The engine sweeps each full 8-query chunk of a flush at 8 lanes
//!   and a small remainder (a solo request, say) at one lane, so server
//!   throughput inherits the batched path's speedup while a lone request
//!   pays for one lane, not eight. Every engine sweep is deterministic,
//!   so results are bit-identical however requests get coalesced — the
//!   invariant that lets cached, solo, and batched answers interchange.
//! * [`protocol`] / [`codec`] — the **typed protocol** ([`Request`] /
//!   [`Response`], plain data with no serialization attached) and its two
//!   interchangeable wire encodings behind one [`codec::Codec`] API:
//!   newline-delimited JSON (unchanged on the wire; schema in README
//!   "Serving layer") and the length-prefixed binary `ssb/1` format,
//!   which carries request ids and therefore supports pipelining.
//! * [`server`] / [`runtime`](crate::server) — the **event-driven TCP
//!   server**: one poll-loop thread (epoll on Linux) owns every
//!   connection's buffers and parser state, queries run asynchronously in
//!   the batcher's flush worker, and admin ops on a dedicated executor —
//!   a fixed thread budget at any connection count. `stats` surfaces
//!   every counter; admin `config` retunes the batcher/cache at runtime.
//! * [`client`] / [`loadgen`] — the blocking protocol [`Client`] (builder
//!   picks format, timeout, pipelining depth) and the closed-loop load
//!   generator behind `simstar bench-serve` and `ssr-bench`'s
//!   `exp_serve`.
//! * [`json`] — the minimal JSON tree/parser/writer the protocol and the
//!   bench reports share (re-exported by `ssr_bench::check`).
//!
//! ```no_run
//! use ssr_serve::client::{Client, Reply};
//! use ssr_serve::server::{Server, ServerOptions};
//! use ssr_graph::DiGraph;
//!
//! let g = DiGraph::from_edges(4, &[(1, 0), (2, 0), (3, 1), (3, 2)]).unwrap();
//! let server = Server::start(g, "127.0.0.1", 0, ServerOptions::default()).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! if let Reply::Ok(reply) = client.query(1, 3).unwrap() {
//!     println!("epoch {}: {:?}", reply.epoch, reply.matches);
//! }
//! server.shutdown();
//! ```
//!
//! [`QueryEngine`]: simrank_star::QueryEngine
//! [`QueryEngine::top_k_batch`]: simrank_star::QueryEngine::top_k_batch

// `unsafe` is denied crate-wide and allowed back in exactly one place:
// the poller's raw epoll/poll FFI (see `poller::imp::sys`).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod batcher;
pub mod cache;
pub mod client;
pub mod codec;
pub mod epoch;
pub mod json;
pub mod loadgen;
pub mod metrics;
pub mod poller;
pub mod protocol;
pub(crate) mod runtime;
pub mod server;
pub mod tracing;

pub use batcher::{
    Batcher, BatcherOptions, BatcherStats, CompletionSink, QueryAnswer, SubmitError,
};
pub use cache::{CacheKey, CacheStats, ShardedCache};
pub use client::{Client, ClientBuilder, ClientError, Reply};
pub use codec::{Codec, Decoded, Malformed, WireFormat};
pub use epoch::{EpochStore, Snapshot};
pub use metrics::QueryTrace;
pub use protocol::{
    CacheDirective, MetricsReply, QueryReply, Request, Response, StatsReply, TraceReply,
};
pub use server::{Server, ServerOptions};
pub use tracing::{parse_trace, parse_trace_line, render_trace, TraceCollector, TRACE_RING_CAP};
