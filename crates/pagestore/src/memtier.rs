//! The DRAM page tier: a [`PageStore`] holding checksummed, pinnable frames.
//!
//! The paper's cache is SSD-only; production deployments front it with
//! memory. `MemTierStore` is the storage half of that tier: the
//! `CacheManager` mounts it as its last cache directory, publishes hot pages
//! into it, and *demotes* frames to SSD under pressure instead of dropping
//! them — so a byte only leaves the memory/SSD hierarchy through a counted,
//! remote-backed eviction.
//!
//! Frame layout (after the Nexus page-cache spec): the payload plus a
//! 64-bit XXH64 checksum, and a pin count that shields the frame from
//! demotion while integrations hold a reference into it. A promoted
//! [`VerifiedPage`] becomes a frame as it is: no copy, no hash. Serving a
//! memory hit is a zero-copy [`Bytes::slice`] of the frame. Integrity is
//! enforced at the tier boundary: [`PageStore::get_verified`] re-checks the
//! checksum before any frame's bytes leave the tier whole.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use edgecache_common::error::{Error, Result};
use parking_lot::RwLock;

use crate::page::{page_checksum, PageId};
use crate::store::{PageStore, VerifiedPage};

/// One resident page: payload, integrity trailer, and pin count.
#[derive(Debug)]
struct Frame {
    data: Bytes,
    /// XXH64 over the payload, carried in by the publish. Full-frame reads
    /// (the demotion path, `get_verified`) re-verify it, so a frame corrupted
    /// in memory is detected before its bytes can be demoted to SSD or served
    /// whole.
    checksum: u64,
    /// Demotion shield: a pinned frame is skipped by victim selection and
    /// refuses `delete`-via-demotion while any pin is outstanding. Relaxed
    /// suffices — pins guard *policy decisions*, not data visibility (the
    /// payload is immutable `Bytes`), and every check re-reads the current
    /// value under the frame map lock.
    pins: AtomicU32,
}

/// A DRAM page store with checksummed, pinnable frames.
#[derive(Debug, Default)]
pub struct MemTierStore {
    frames: RwLock<HashMap<PageId, Arc<Frame>>>,
    /// Byte accounting. Every mutation happens under the `frames` write
    /// lock, so this is a statistic, not a synchronization point: Relaxed
    /// loads may lag a concurrent put/delete by one update but can never
    /// tear or drift (same reasoning as `MemoryPageStore::bytes_used`).
    bytes_used: AtomicU64,
    /// Frames currently holding at least one pin (gauge for the pin/unpin
    /// balance oracle). Relaxed: adjusted while holding the frame map read
    /// lock, read only by tests and introspection.
    pinned_frames: AtomicU64,
}

impl MemTierStore {
    /// Creates an empty tier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of frames held.
    pub fn len(&self) -> usize {
        self.frames.read().len()
    }

    /// Whether the tier is empty.
    pub fn is_empty(&self) -> bool {
        self.frames.read().is_empty()
    }

    /// Pins a frame against demotion. Returns `false` if the page is not
    /// resident. Pins nest; every `pin` needs a matching [`Self::unpin`].
    pub fn pin(&self, id: PageId) -> bool {
        let frames = self.frames.read();
        match frames.get(&id) {
            Some(frame) => {
                if frame.pins.fetch_add(1, Ordering::Relaxed) == 0 {
                    self.pinned_frames.fetch_add(1, Ordering::Relaxed);
                }
                true
            }
            None => false,
        }
    }

    /// Releases one pin. Returns `false` if the page is not resident or was
    /// not pinned.
    pub fn unpin(&self, id: PageId) -> bool {
        let frames = self.frames.read();
        match frames.get(&id) {
            Some(frame) => {
                // CAS loop rather than fetch_sub: an unbalanced unpin must
                // not wrap the count and pin the frame forever.
                let mut pins = frame.pins.load(Ordering::Relaxed);
                loop {
                    if pins == 0 {
                        return false;
                    }
                    match frame.pins.compare_exchange_weak(
                        pins,
                        pins - 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => break,
                        Err(cur) => pins = cur,
                    }
                }
                // Decide from the value this CAS replaced, not a re-load:
                // exactly one unpin performs the 1→0 transition, however
                // other pins and unpins interleave after it.
                if pins == 1 {
                    self.pinned_frames.fetch_sub(1, Ordering::Relaxed);
                }
                true
            }
            None => false,
        }
    }

    /// Whether the frame is currently pinned.
    pub fn is_pinned(&self, id: PageId) -> bool {
        self.frames
            .read()
            .get(&id)
            .map(|f| f.pins.load(Ordering::Relaxed) > 0)
            .unwrap_or(false)
    }

    /// Number of frames holding at least one pin.
    pub fn pinned_count(&self) -> u64 {
        self.pinned_frames.load(Ordering::Relaxed)
    }

    fn frame(&self, id: PageId) -> Result<Arc<Frame>> {
        let frames = self.frames.read();
        let frame = frames
            .get(&id)
            .ok_or_else(|| Error::NotFound(format!("page {id}")))?;
        Ok(Arc::clone(frame))
    }

    /// Test/fault-injection hook: invalidates a frame's stored checksum so
    /// the next tier-exit read reports corruption.
    #[doc(hidden)]
    pub fn corrupt_frame(&self, id: PageId) -> bool {
        let mut frames = self.frames.write();
        match frames.get(&id) {
            Some(frame) => {
                let bad = Arc::new(Frame {
                    data: frame.data.clone(),
                    checksum: !frame.checksum,
                    pins: AtomicU32::new(frame.pins.load(Ordering::Relaxed)),
                });
                frames.insert(id, bad);
                true
            }
            None => false,
        }
    }
}

impl PageStore for MemTierStore {
    fn put(&self, id: PageId, data: &[u8]) -> Result<()> {
        self.put_verified(id, VerifiedPage::new(Bytes::copy_from_slice(data)))
    }

    /// Takes `page`'s buffer over as the frame, with its carried checksum:
    /// no copy, no hash.
    fn put_verified(&self, id: PageId, page: VerifiedPage) -> Result<()> {
        debug_assert_eq!(page_checksum(&page.bytes), page.checksum);
        let len = page.bytes.len() as u64;
        let frame = Arc::new(Frame {
            data: page.bytes,
            checksum: page.checksum,
            pins: AtomicU32::new(0),
        });
        let mut frames = self.frames.write();
        if let Some(old) = frames.insert(id, frame) {
            // Replacing a frame drops its pins with it: the new bytes are a
            // refresh of the same page, which pin holders observe as such.
            if old.pins.load(Ordering::Relaxed) > 0 {
                self.pinned_frames.fetch_sub(1, Ordering::Relaxed);
            }
            self.bytes_used
                .fetch_sub(old.data.len() as u64, Ordering::Relaxed);
        }
        self.bytes_used.fetch_add(len, Ordering::Relaxed);
        Ok(())
    }

    fn get(&self, id: PageId, offset: u64, len: u64) -> Result<Bytes> {
        let frame = self.frame(id)?;
        let total = frame.data.len() as u64;
        if offset >= total {
            return Ok(Bytes::new());
        }
        let end = offset.saturating_add(len).min(total);
        Ok(frame.data.slice(offset as usize..end as usize))
    }

    /// The whole frame, re-verified against its publish-time checksum — the
    /// tier-exit read. Demotion goes through this, so bytes corrupted while
    /// resident in DRAM are detected *before* they can land on SSD, and the
    /// checksum it checks is the one the SSD record then carries. Unlike
    /// `LocalPageStore`, a ranged `get` does not scan: hit serving is a
    /// zero-copy slice, and integrity is enforced at the tier boundary.
    fn get_verified(&self, id: PageId) -> Result<VerifiedPage> {
        let frame = self.frame(id)?;
        if page_checksum(&frame.data) != frame.checksum {
            return Err(Error::Corrupted(format!("memory frame {id}")));
        }
        let (bytes, checksum) = (frame.data.clone(), frame.checksum);
        Ok(VerifiedPage { bytes, checksum })
    }

    fn delete(&self, id: PageId) -> Result<bool> {
        let mut frames = self.frames.write();
        match frames.remove(&id) {
            Some(old) => {
                if old.pins.load(Ordering::Relaxed) > 0 {
                    self.pinned_frames.fetch_sub(1, Ordering::Relaxed);
                }
                self.bytes_used
                    .fetch_sub(old.data.len() as u64, Ordering::Relaxed);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn contains(&self, id: PageId) -> bool {
        self.frames.read().contains_key(&id)
    }

    fn bytes_used(&self) -> u64 {
        // Relaxed: see the field comment — a statistic maintained under the
        // frame map write lock, not a synchronization point.
        self.bytes_used.load(Ordering::Relaxed)
    }

    fn recover(&self) -> Result<Vec<(PageId, u64)>> {
        // DRAM does not survive a restart: the tier always recovers empty.
        // (Frames lost to a crash are remote-backed — the legal exit.)
        Ok(Vec::new())
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

    #[test]
    fn round_trip_accounting_and_checksum() {
        let s = MemTierStore::new();
        s.put(pid(1, 0), b"hello frame").unwrap();
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
        let s = MemTierStore::new();
        s.put(pid(1, 0), b"payload").unwrap();
        let page = s.get_verified(pid(1, 0)).unwrap();
        assert_eq!(page.bytes().as_ref(), b"payload");
        assert_eq!(page.checksum(), xxh64(b"payload", 0));
    }

    #[test]
    fn put_verified_takes_the_buffer_over() {
        let s = MemTierStore::new();
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
    fn pins_nest_and_balance() {
        let s = MemTierStore::new();
        assert!(!s.pin(pid(1, 0)), "cannot pin a missing page");
        s.put(pid(1, 0), b"abc").unwrap();
        assert!(s.pin(pid(1, 0)));
        assert!(s.pin(pid(1, 0)));
        assert_eq!(s.pinned_count(), 1, "nested pins count one frame");
        assert!(s.is_pinned(pid(1, 0)));
        assert!(s.unpin(pid(1, 0)));
        assert!(s.is_pinned(pid(1, 0)), "still one pin outstanding");
        assert!(s.unpin(pid(1, 0)));
        assert!(!s.is_pinned(pid(1, 0)));
        assert_eq!(s.pinned_count(), 0);
        assert!(!s.unpin(pid(1, 0)), "unbalanced unpin is rejected");
    }

    #[test]
    fn replacing_a_pinned_frame_drops_its_pins() {
        let s = MemTierStore::new();
        s.put(pid(1, 0), b"v1").unwrap();
        assert!(s.pin(pid(1, 0)));
        s.put(pid(1, 0), b"v2-longer").unwrap();
        assert_eq!(s.pinned_count(), 0);
        assert!(!s.is_pinned(pid(1, 0)));
        assert_eq!(s.bytes_used(), 9);
    }

    #[test]
    fn deleting_a_pinned_frame_clears_the_gauge() {
        let s = MemTierStore::new();
        s.put(pid(1, 0), b"abc").unwrap();
        assert!(s.pin(pid(1, 0)));
        assert!(s.delete(pid(1, 0)).unwrap());
        assert_eq!(s.pinned_count(), 0);
    }

    #[test]
    fn tier_exit_read_detects_corruption() {
        let s = MemTierStore::new();
        s.put(pid(1, 0), b"payload").unwrap();
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
        let s = MemTierStore::new();
        s.put(pid(1, 0), b"payload").unwrap();
        assert!(s.corrupt_frame(pid(1, 0)));
        let store: &dyn PageStore = &s;
        assert!(matches!(
            store.get_full(pid(1, 0)),
            Err(Error::Corrupted(_))
        ));
    }

    /// Swaps in a frame whose payload differs from the published one in one
    /// bit while the publish-time checksum stays — what a DRAM bit flip
    /// looks like to the tier.
    fn flip_frame_bit(s: &MemTierStore, id: PageId, byte: usize, mask: u8) {
        let mut frames = s.frames.write();
        let old = frames.get(&id).expect("resident frame");
        let mut data = old.data.to_vec();
        data[byte] ^= mask;
        let flipped = Arc::new(Frame {
            data: Bytes::from(data),
            checksum: old.checksum,
            pins: AtomicU32::new(0),
        });
        frames.insert(id, flipped);
    }

    #[test]
    fn every_single_bit_flip_in_a_page_fails_the_tier_exit_read() {
        let page: Vec<u8> = (0..1usize << 20).map(|i| (i * 31 % 251) as u8).collect();
        let s = MemTierStore::new();
        s.put(pid(1, 0), &page).unwrap();
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

    #[test]
    fn racing_pins_and_unpins_leave_the_gauge_at_zero() {
        const THREADS: usize = 4;
        const ROUNDS: usize = 200_000;
        let s = MemTierStore::new();
        s.put(pid(1, 0), b"abc").unwrap();
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..ROUNDS {
                        assert!(s.pin(pid(1, 0)));
                        assert!(s.unpin(pid(1, 0)), "own pin is outstanding");
                    }
                });
            }
        });
        assert!(!s.is_pinned(pid(1, 0)));
        assert_eq!(s.pinned_count(), 0, "every 0→1 matched by one 1→0");
    }

    #[test]
    fn recovers_empty() {
        let s = MemTierStore::new();
        s.put(pid(1, 0), b"abc").unwrap();
        assert!(s.recover().unwrap().is_empty());
    }
}
