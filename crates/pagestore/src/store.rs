//! The [`PageStore`] trait: the storage backend beneath the cache manager.

use bytes::Bytes;
use edgecache_common::error::Result;

use crate::page::{page_checksum, PageId};

/// A page payload and the XXH64 checksum it is known to match: a tier move
/// carries the checksum instead of hashing the bytes again. Only
/// [`VerifiedPage::new`], and a store from a checksum it holds, build one.
#[derive(Debug, Clone)]
pub struct VerifiedPage {
    pub(crate) bytes: Bytes,
    pub(crate) checksum: u64,
}

impl VerifiedPage {
    /// Hashes `bytes`.
    pub fn new(bytes: Bytes) -> Self {
        let checksum = page_checksum(&bytes);
        Self { bytes, checksum }
    }

    /// The payload.
    pub fn bytes(&self) -> &Bytes {
        &self.bytes
    }

    /// XXH64 of the payload.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }
}

/// A backend that stores page payloads.
///
/// Implementations: [`LocalPageStore`](crate::local::LocalPageStore) (SSD
/// files, the production path), [`MemTierStore`](crate::memtier::MemTierStore)
/// (the DRAM tier), [`MemoryPageStore`](crate::memory::MemoryPageStore)
/// (tests/metadata), and [`FaultyStore`](crate::faulty::FaultyStore)
/// (fault injection).
///
/// Thread safety: all methods take `&self`; implementations must be safe for
/// concurrent readers and writers of *different* pages. Writers of the *same*
/// page are serialized by the cache manager's per-page locks.
pub trait PageStore: Send + Sync {
    /// Stores a page payload atomically: after `put` returns, a concurrent
    /// `get` sees either the whole new payload or the previous state, never a
    /// torn write (§4.3: a completed page write is "immediately available for
    /// subsequent read operations").
    fn put(&self, id: PageId, data: &[u8]) -> Result<()>;

    /// Reads `len` bytes starting at `offset` within the page. Reading past
    /// the end of the payload returns the available prefix (possibly empty).
    ///
    /// Full-page reads (offset 0 with `len >= payload`) verify the page
    /// checksum where the backend keeps one.
    fn get(&self, id: PageId, offset: u64, len: u64) -> Result<Bytes>;

    /// Reads the entire page payload, verifying integrity.
    fn get_full(&self, id: PageId) -> Result<Bytes> {
        self.get_verified(id).map(|page| page.bytes)
    }

    /// Reads the entire page payload, verified, with its checksum. A store
    /// that keeps a checksum returns the one it checked the bytes against;
    /// the default hashes a full `get`.
    fn get_verified(&self, id: PageId) -> Result<VerifiedPage> {
        self.get(id, 0, u64::MAX).map(VerifiedPage::new)
    }

    /// Stores a verified page, as [`Self::put`] does. A store that keeps a
    /// checksum takes the carried one instead of hashing the bytes again.
    fn put_verified(&self, id: PageId, page: VerifiedPage) -> Result<()> {
        self.put(id, page.bytes())
    }

    /// Deletes a page. Deleting a missing page returns `Ok(false)`.
    fn delete(&self, id: PageId) -> Result<bool>;

    /// Whether a page is present.
    fn contains(&self, id: PageId) -> bool;

    /// Bytes of payload currently stored.
    fn bytes_used(&self) -> u64;

    /// Scans the backend and returns `(page, payload_size)` for every page
    /// found — used for cold-start cache recovery (§4.3's "persistent global
    /// information that can be used in cache recovery").
    fn recover(&self) -> Result<Vec<(PageId, u64)>>;

    /// Whether `put` writes to files rather than copying into memory. The
    /// cache manager publishes a read-through miss into such a store behind
    /// the read, on a writer thread of its own; a memory store is cheaper to
    /// fill inline than to hand over.
    fn put_is_file_io(&self) -> bool {
        false
    }
}
