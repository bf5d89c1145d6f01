//! Page-oriented storage for the edgecache local cache.
//!
//! The paper's cache "transforms file-level read operations into more
//! granular page-level operations through the *page store*" (§4.1). This
//! crate implements that page store:
//!
//! * [`page`] — page identity ([`FileId`], [`PageId`]) and metadata
//!   ([`PageInfo`]), plus the hierarchical [`CacheScope`] used for quota and
//!   bulk operations (§4.4).
//! * [`store`] — the [`PageStore`] trait: put/get/delete of pages with
//!   partial (ranged) reads, and [`VerifiedPage`], a payload that carries
//!   its checksum across tiers.
//! * [`local`] — [`LocalPageStore`], the SSD-backed implementation: a
//!   top-level `page_size=` directory that makes recovery self-describing
//!   (§4.3), one file of fixed-size slots per size class, a self-describing
//!   header per page that commits it after its payload, and a payload
//!   checksum for corruption detection (§8).
//! * [`memory`] — [`MemoryPageStore`], the heap-backed implementation: the
//!   DRAM tier the `CacheManager` mounts above its SSD directories (pages
//!   are demoted to SSD under pressure, not dropped; a promoted page keeps
//!   the checksum it carried), and the store of in-memory caches.
//! * [`faulty`] — [`FaultyStore`], a fault-injection wrapper reproducing the
//!   failure modes of §8 (corruption, `No space left on device`, read hangs).
//! * [`crash`] — [`CrashPlan`], armable crash points that make a
//!   [`LocalPageStore`] operation leave a realistic half-effect on disk
//!   (uncommitted payload, torn payload) and fail as if the process died, so
//!   recovery (§4.3) can be tortured deterministically.

pub mod crash;
pub mod faulty;
pub mod local;
pub mod memory;
pub mod page;
pub mod store;

pub use crash::{is_simulated_crash, CrashPlan, CrashSite};
pub use faulty::{FaultPlan, FaultyStore};
pub use local::{LocalPageStore, LocalStoreConfig};
pub use memory::MemoryPageStore;
/// The DRAM tier's former name. The standalone `benchmark/` package
/// (`embed.rs`) still names it; the alias goes when that package next
/// changes.
pub type MemTierStore = MemoryPageStore;
pub use page::{CacheScope, FileId, PageId, PageInfo};
pub use store::{PageStore, VerifiedPage};
