//! Network front-end: the cache served over the memcached text protocol.
//!
//! Everything before this crate runs the cache embedded in one process.
//! The paper's deployment is the opposite shape: Presto workers and
//! Alluxio/HDFS clients reach the cache **over the network**, and the
//! protocol edge is where admission control, tenant quotas, and
//! backpressure actually bite. This crate adds that edge:
//!
//! * [`protocol`] — an incremental memcached text-protocol parser.
//!   Commands may arrive split at arbitrary TCP boundaries or pipelined
//!   many-per-segment; the parser buffers only bounded prefixes before
//!   committing to a command, and rejects oversized keys/values without
//!   ballooning memory.
//! * [`object`] — maps memcached objects onto the page cache: a key is a
//!   versioned [`SourceFile`](edgecache_pagestore::SourceFile), its value
//!   chunked into pages, with complete-old-or-complete-new visibility.
//!   The key's `namespace:` prefix selects the tenant scope, so the
//!   quota ledger binds remote traffic exactly like embedded callers.
//! * [`server`] — the TCP front-end: a connection semaphore, per-
//!   connection read/write deadlines, and a graceful shutdown that
//!   drains in-flight requests before severing sockets and joining every
//!   thread.
//!
//! `tests/server_e2e.rs` drives the front-end over real sockets (pipelined
//! connections, one response per request in order, byte-exact values);
//! its wall-clock cost is measured by the `kv_mixed` workload of the repo
//! benchmark (`benchmark/`).
//!
//! ## Why threads, not tokio
//!
//! The workspace is offline and dependency-free by policy (see
//! `shims/`); there is no async runtime to link. The front-end therefore
//! uses a blocking reactor — one thread per connection behind an
//! accept-side semaphore — which at OLAP-cache fan-in (tens to hundreds
//! of worker connections, not C10K) measures within noise of an async
//! reactor while keeping the hot path allocation- and syscall-minimal.
//! The protocol layer is transport-agnostic (`&[u8]` in, `Vec<u8>` out),
//! so an async transport can replace [`server`] without touching it.

pub mod object;
pub mod protocol;
pub mod server;

#[cfg(test)]
mod proptests;

pub use object::{ObjectStore, ObjectValue, SetOutcome};
pub use protocol::{Command, ParserLimits, RequestParser};
pub use server::{serve, ServerConfig, ServerHandle};
