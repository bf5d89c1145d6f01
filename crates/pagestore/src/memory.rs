//! An in-memory [`PageStore`], used for tests, simulations that do not need
//! disk persistence, and metadata-style payloads (§6.1.1 notes metadata "can
//! be stored in memory, files, or persistent key-value stores").

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use edgecache_common::error::{Error, Result};
use parking_lot::RwLock;

use crate::page::PageId;
use crate::store::PageStore;

/// A heap-backed page store.
#[derive(Debug, Default)]
pub struct MemoryPageStore {
    pages: RwLock<HashMap<PageId, Bytes>>,
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
}

impl PageStore for MemoryPageStore {
    fn put(&self, id: PageId, data: &[u8]) -> Result<()> {
        let mut pages = self.pages.write();
        // Relaxed (see the field comment): serialized by the write lock.
        if let Some(old) = pages.insert(id, Bytes::copy_from_slice(data)) {
            self.bytes_used
                .fetch_sub(old.len() as u64, Ordering::Relaxed);
        }
        self.bytes_used
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn get(&self, id: PageId, offset: u64, len: u64) -> Result<Bytes> {
        let pages = self.pages.read();
        let data = pages
            .get(&id)
            .ok_or_else(|| Error::NotFound(format!("page {id}")))?;
        let total = data.len() as u64;
        if offset >= total {
            return Ok(Bytes::new());
        }
        let end = offset.saturating_add(len).min(total);
        Ok(data.slice(offset as usize..end as usize))
    }

    fn delete(&self, id: PageId) -> Result<bool> {
        let mut pages = self.pages.write();
        match pages.remove(&id) {
            Some(old) => {
                // Relaxed: serialized by the `pages` write lock held above.
                self.bytes_used
                    .fetch_sub(old.len() as u64, Ordering::Relaxed);
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
            .map(|(id, d)| (*id, d.len() as u64))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::FileId;
    use crate::store::VerifiedPage;
    use edgecache_common::hash::xxh64;

    fn pid(f: u64, i: u64) -> PageId {
        PageId::new(FileId(f), i)
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
    fn verified_pages_round_trip_through_the_defaults() {
        let s = MemoryPageStore::new();
        let page = VerifiedPage::new(Bytes::from_static(b"hello"));
        s.put_verified(pid(1, 0), page).unwrap();
        let page = s.get_verified(pid(1, 0)).unwrap();
        assert_eq!(page.bytes().as_ref(), b"hello");
        assert_eq!(page.checksum(), xxh64(b"hello", 0));
        assert_eq!(s.bytes_used(), 5);
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
}
