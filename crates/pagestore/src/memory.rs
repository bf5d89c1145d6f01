//! The heap-backed [`PageStore`]: the `CacheManager`'s DRAM tier, the page
//! store of in-memory caches (tests, simulations, cache workers), and home
//! for metadata-style payloads (§6.1.1 notes metadata "can be stored in
//! memory, files, or persistent key-value stores").
//!
//! The paper's cache is SSD-only; production deployments front it with
//! memory. Mounted as the manager's DRAM tier, this store takes promoted
//! [`VerifiedPage`]s as they are (no copy, no hash) and keeps the checksum
//! each carried. Serving a hit is a zero-copy [`Bytes::slice`]; integrity
//! is enforced at the tier boundary, where [`PageStore::get_verified`]
//! re-checks the carried checksum before a page's bytes leave whole (to be
//! demoted to SSD, or served as a full read).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use edgecache_common::error::{Error, Result};
use parking_lot::RwLock;

use crate::page::{page_checksum, PageId};
use crate::store::{PageStore, VerifiedPage};

/// One resident page.
#[derive(Debug, Clone)]
struct Entry {
    data: Bytes,
    /// XXH64 of the payload, carried in by `put_verified` (a tier move).
    /// Full reads re-check it, so bytes corrupted while resident are caught
    /// before they can be demoted or served whole. `None` after a plain
    /// `put`, whose full reads hash instead.
    checksum: Option<u64>,
}

/// A heap-backed page store.
#[derive(Debug, Default)]
pub struct MemoryPageStore {
    pages: RwLock<HashMap<PageId, Entry>>,
    /// Byte accounting. Every mutation happens under the `pages` write
    /// lock, which already orders updates; the atomic only lets readers
    /// sample the total without taking that lock. Relaxed suffices — a
    /// load may lag a concurrent put/delete by one update, but it can
    /// never tear, and no data is published through this counter.
    bytes_used: AtomicU64,
}

impl MemoryPageStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pages held.
    pub fn len(&self) -> usize {
        self.pages.read().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.pages.read().is_empty()
    }

    /// Test/fault-injection hook: invalidates a page's carried checksum so
    /// the next full read reports corruption. `false` when the page is
    /// missing or was stored by a plain `put` (it carries none).
    #[doc(hidden)]
    pub fn corrupt_frame(&self, id: PageId) -> bool {
        match self.pages.write().get_mut(&id) {
            Some(Entry {
                checksum: Some(checksum),
                ..
            }) => {
                *checksum = !*checksum;
                true
            }
            _ => false,
        }
    }

    fn insert(&self, id: PageId, entry: Entry) {
        let len = entry.data.len() as u64;
        let mut pages = self.pages.write();
        // Relaxed (see the field comment): serialized by the write lock.
        if let Some(old) = pages.insert(id, entry) {
            self.bytes_used
                .fetch_sub(old.data.len() as u64, Ordering::Relaxed);
        }
        self.bytes_used.fetch_add(len, Ordering::Relaxed);
    }
}

impl PageStore for MemoryPageStore {
    fn put(&self, id: PageId, data: &[u8]) -> Result<()> {
        let data = Bytes::copy_from_slice(data);
        self.insert(
            id,
            Entry {
                data,
                checksum: None,
            },
        );
        Ok(())
    }

    /// Takes `page`'s buffer over, with its carried checksum: no copy, no
    /// hash.
    fn put_verified(&self, id: PageId, page: VerifiedPage) -> Result<()> {
        debug_assert_eq!(page_checksum(&page.bytes), page.checksum);
        let entry = Entry {
            data: page.bytes,
            checksum: Some(page.checksum),
        };
        self.insert(id, entry);
        Ok(())
    }

    fn get(&self, id: PageId, offset: u64, len: u64) -> Result<Bytes> {
        let pages = self.pages.read();
        let data = &pages
            .get(&id)
            .ok_or_else(|| Error::NotFound(format!("page {id}")))?
            .data;
        let total = data.len() as u64;
        if offset >= total {
            return Ok(Bytes::new());
        }
        let end = offset.saturating_add(len).min(total);
        Ok(data.slice(offset as usize..end as usize))
    }

    /// The whole page, hashed outside the map lock and checked against its
    /// carried checksum — the DRAM tier-exit check. Demotion goes through
    /// this, so bytes corrupted while resident are detected *before* they
    /// can land on SSD, and the checksum it checks is the one the SSD record
    /// then carries. Unlike `LocalPageStore`, a ranged `get` does not scan.
    fn get_verified(&self, id: PageId) -> Result<VerifiedPage> {
        let entry = self
            .pages
            .read()
            .get(&id)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("page {id}")))?;
        let checksum = page_checksum(&entry.data);
        if entry.checksum.is_some_and(|carried| carried != checksum) {
            return Err(Error::Corrupted(format!("memory page {id}")));
        }
        Ok(VerifiedPage {
            bytes: entry.data,
            checksum,
        })
    }

    fn delete(&self, id: PageId) -> Result<bool> {
        let mut pages = self.pages.write();
        match pages.remove(&id) {
            Some(old) => {
                // Relaxed: serialized by the `pages` write lock held above.
                self.bytes_used
                    .fetch_sub(old.data.len() as u64, Ordering::Relaxed);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn contains(&self, id: PageId) -> bool {
        self.pages.read().contains_key(&id)
    }

    fn bytes_used(&self) -> u64 {
        // Relaxed: a statistic, not a synchronization point. Callers that
        // need a value consistent with the page map hold their own locks.
        self.bytes_used.load(Ordering::Relaxed)
    }

    fn recover(&self) -> Result<Vec<(PageId, u64)>> {
        Ok(self
            .pages
            .read()
            .iter()
            .map(|(id, e)| (*id, e.data.len() as u64))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{bit_flip_sites, FileId};
    use edgecache_common::hash::xxh64;

    fn pid(f: u64, i: u64) -> PageId {
        PageId::new(FileId(f), i)
    }

    /// Stores `data` as a promotion does: verified, buffer handed over.
    fn put_frame(s: &MemoryPageStore, id: PageId, data: &[u8]) {
        let page = VerifiedPage::new(Bytes::copy_from_slice(data));
        s.put_verified(id, page).unwrap();
    }

    #[test]
    fn round_trip_and_accounting() {
        let s = MemoryPageStore::new();
        s.put(pid(1, 0), b"hello").unwrap();
        assert_eq!(s.get_full(pid(1, 0)).unwrap().as_ref(), b"hello");
        assert_eq!(s.bytes_used(), 5);
        s.put(pid(1, 0), b"hi").unwrap();
        assert_eq!(s.bytes_used(), 2);
        assert!(s.delete(pid(1, 0)).unwrap());
        assert_eq!(s.bytes_used(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn ranged_get_clamps() {
        let s = MemoryPageStore::new();
        s.put(pid(1, 0), b"0123456789").unwrap();
        assert_eq!(s.get(pid(1, 0), 2, 3).unwrap().as_ref(), b"234");
        assert_eq!(s.get(pid(1, 0), 8, 100).unwrap().as_ref(), b"89");
        assert!(s.get(pid(1, 0), 100, 1).unwrap().is_empty());
    }

    #[test]
    fn missing_page() {
        let s = MemoryPageStore::new();
        assert!(matches!(s.get_full(pid(1, 1)), Err(Error::NotFound(_))));
        assert!(!s.delete(pid(1, 1)).unwrap());
    }

    #[test]
    fn recover_lists_all() {
        let s = MemoryPageStore::new();
        s.put(pid(1, 0), &[0; 10]).unwrap();
        s.put(pid(2, 5), &[0; 20]).unwrap();
        let mut r = s.recover().unwrap();
        r.sort();
        assert_eq!(r, vec![(pid(1, 0), 10), (pid(2, 5), 20)]);
    }

    #[test]
    fn round_trip_accounting_and_checksum() {
        let s = MemoryPageStore::new();
        put_frame(&s, pid(1, 0), b"hello frame");
        assert_eq!(s.get_full(pid(1, 0)).unwrap().as_ref(), b"hello frame");
        assert_eq!(s.bytes_used(), 11);
        assert_eq!(s.len(), 1);
        // Sub-range reads slice zero-copy.
        assert_eq!(s.get(pid(1, 0), 6, 5).unwrap().as_ref(), b"frame");
        assert!(s.delete(pid(1, 0)).unwrap());
        assert_eq!(s.bytes_used(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn get_verified_returns_the_frame_checksum() {
        let s = MemoryPageStore::new();
        put_frame(&s, pid(1, 0), b"payload");
        let page = s.get_verified(pid(1, 0)).unwrap();
        assert_eq!(page.bytes().as_ref(), b"payload");
        assert_eq!(page.checksum(), xxh64(b"payload", 0));
    }

    #[test]
    fn put_verified_takes_the_buffer_over() {
        let s = MemoryPageStore::new();
        let bytes = Bytes::from(vec![7u8; 4096]);
        let buffer = bytes.as_ptr();
        s.put_verified(pid(1, 0), VerifiedPage::new(bytes)).unwrap();
        let frame = s.get(pid(1, 0), 0, 4096).unwrap();
        assert_eq!(
            frame.as_ptr(),
            buffer,
            "the frame is the handed-over buffer"
        );
        assert_eq!(s.bytes_used(), 4096);
        let page = s.get_verified(pid(1, 0)).unwrap();
        assert_eq!(page.checksum(), xxh64(&[7u8; 4096], 0));
    }

    #[test]
    fn tier_exit_read_detects_corruption() {
        let s = MemoryPageStore::new();
        put_frame(&s, pid(1, 0), b"payload");
        assert_eq!(s.get_full(pid(1, 0)).unwrap().as_ref(), b"payload");
        assert!(s.corrupt_frame(pid(1, 0)));
        assert!(matches!(s.get_full(pid(1, 0)), Err(Error::Corrupted(_))));
        // Ranged hit-path gets stay scan-free and keep serving.
        assert_eq!(s.get(pid(1, 0), 0, 3).unwrap().as_ref(), b"pay");
    }

    #[test]
    fn get_full_through_the_trait_detects_a_corrupt_frame() {
        // The trait promises a verified full read; the tier keeps that
        // promise behind `dyn PageStore`, where demotion reads it.
        let s = MemoryPageStore::new();
        put_frame(&s, pid(1, 0), b"payload");
        assert!(s.corrupt_frame(pid(1, 0)));
        let store: &dyn PageStore = &s;
        assert!(matches!(
            store.get_full(pid(1, 0)),
            Err(Error::Corrupted(_))
        ));
    }

    #[test]
    fn a_carried_checksum_is_checked_and_a_plain_put_is_hashed() {
        let s = MemoryPageStore::new();
        put_frame(&s, pid(1, 0), b"carried");
        assert!(s.corrupt_frame(pid(1, 0)));
        assert!(matches!(s.get_full(pid(1, 0)), Err(Error::Corrupted(_))));
        s.put(pid(1, 1), b"plain").unwrap();
        assert!(!s.corrupt_frame(pid(1, 1)), "a plain put carries none");
        let page = s.get_verified(pid(1, 1)).unwrap();
        assert_eq!(page.bytes().as_ref(), b"plain");
        assert_eq!(page.checksum(), xxh64(b"plain", 0));
    }

    /// Swaps in a payload that differs from the published one in one bit
    /// while the carried checksum stays — what a DRAM bit flip looks like
    /// to the tier.
    fn flip_frame_bit(s: &MemoryPageStore, id: PageId, byte: usize, mask: u8) {
        let mut pages = s.pages.write();
        let entry = pages.get_mut(&id).expect("resident frame");
        let mut data = entry.data.to_vec();
        data[byte] ^= mask;
        entry.data = Bytes::from(data);
    }

    #[test]
    fn every_single_bit_flip_in_a_page_fails_the_tier_exit_read() {
        let page: Vec<u8> = (0..1usize << 20).map(|i| (i * 31 % 251) as u8).collect();
        let s = MemoryPageStore::new();
        put_frame(&s, pid(1, 0), &page);
        assert_eq!(s.get_full(pid(1, 0)).unwrap().as_ref(), &page[..]);
        for (byte, mask) in bit_flip_sites(page.len()) {
            flip_frame_bit(&s, pid(1, 0), byte, mask);
            assert!(
                matches!(s.get_full(pid(1, 0)), Err(Error::Corrupted(_))),
                "flip of bit {mask:#04x} in byte {byte} went undetected"
            );
            flip_frame_bit(&s, pid(1, 0), byte, mask);
            assert!(s.get_full(pid(1, 0)).is_ok(), "flip restored");
        }
    }
}
