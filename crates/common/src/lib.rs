//! Shared primitives for the `edgecache` workspace.
//!
//! This crate holds the small, dependency-light building blocks used by every
//! other crate in the workspace:
//!
//! * [`clock`] — a [`Clock`] abstraction with a wall-clock
//!   implementation and a deterministic simulated clock for experiments.
//! * [`hash`] — stable 64-bit hash functions: FNV-1a and a splitmix-based
//!   mixer for page placement and consistent hashing, XXH64 for page
//!   checksums.
//! * [`ring`] — a consistent-hash ring with virtual nodes, bounded replica
//!   lookup, and the paper's "lazy data movement" node-timeout behaviour
//!   (§7 of the paper).
//! * [`lru`] — the one O(1) recency list ([`lru::RecencyList`]) and the
//!   map built on it ([`lru::LruMap`]) behind every LRU in the workspace:
//!   the evictors, the footer cache and the result cache.
//! * [`bytesize`] — parsing and formatting of human-readable byte sizes.
//! * [`error`] — the shared [`Error`] type.

pub mod bytesize;
pub mod clock;
pub mod error;
pub mod hash;
pub mod lru;
mod lru_proptests;
pub mod ring;
mod ring_proptests;

pub use bytesize::ByteSize;
pub use clock::{Clock, SharedClock, SimClock, SystemClock};
pub use error::{Error, Result};
pub use ring::ConsistentRing;
