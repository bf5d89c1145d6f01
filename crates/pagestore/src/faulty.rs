//! Fault injection for page stores.
//!
//! §8 of the paper catalogues the failure modes seen in production:
//! read hangs (up to 10 minutes), corrupted page files, and the device
//! filling up before the configured cache capacity is reached.
//! [`FaultyStore`] wraps any [`PageStore`] and injects exactly those
//! failures so the cache manager's mitigations (remote fallback on timeout,
//! early eviction on corruption / `NoSpace`) can be tested deterministically.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use edgecache_common::clock::SharedClock;
use edgecache_common::error::{Error, Result};
use parking_lot::Mutex;

use crate::page::PageId;
use crate::store::{PageStore, VerifiedPage};

/// Mutable fault configuration shared with the wrapped store.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Pages whose reads return [`Error::Corrupted`].
    corrupt: Mutex<HashSet<PageId>>,
    /// Simulated device capacity in bytes; `put`s that would exceed it fail
    /// with [`Error::NoSpace`] — *before* the cache thinks it is full,
    /// mirroring §8's "Insufficient disk capacity".
    device_capacity: AtomicU64,
    /// Artificial delay added to every `get` (models the §8 read hangs).
    get_delay_nanos: AtomicU64,
    /// If nonzero, every Nth `get` hangs for `get_delay`; 1 = every get.
    hang_every: AtomicU64,
    gets: AtomicU64,
    /// Clock that pays for hangs. `None` sleeps on the wall clock (the
    /// historical behaviour, which real-timeout tests rely on); a
    /// [`SimClock`](edgecache_common::clock::SimClock) here makes hangs
    /// advance virtual time only, keeping simulation runs deterministic.
    clock: Mutex<Option<SharedClock>>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> Arc<Self> {
        Arc::new(Self {
            device_capacity: AtomicU64::new(u64::MAX),
            ..Default::default()
        })
    }

    /// Marks a page as corrupt (reads will fail checksum).
    pub fn corrupt_page(&self, id: PageId) {
        self.corrupt.lock().insert(id);
    }

    /// Clears a page's corruption marker.
    pub fn heal_page(&self, id: PageId) {
        self.corrupt.lock().remove(&id);
    }

    /// Sets the simulated device capacity.
    pub fn set_device_capacity(&self, bytes: u64) {
        self.device_capacity.store(bytes, Ordering::SeqCst);
    }

    /// Makes every `period`-th `get` sleep for `delay` (0 disables).
    pub fn set_read_hang(&self, delay: Duration, period: u64) {
        self.get_delay_nanos
            .store(delay.as_nanos() as u64, Ordering::SeqCst);
        self.hang_every.store(period, Ordering::SeqCst);
    }

    /// Charges injected hangs to `clock` instead of the wall clock (see the
    /// `clock` field; simulation harnesses pass a `SimClock` here).
    pub fn set_clock(&self, clock: SharedClock) {
        *self.clock.lock() = Some(clock);
    }
}

/// A [`PageStore`] wrapper that injects failures per a shared [`FaultPlan`].
pub struct FaultyStore<S> {
    inner: S,
    plan: Arc<FaultPlan>,
}

impl<S: PageStore> FaultyStore<S> {
    /// Wraps `inner` with the given plan.
    pub fn new(inner: S, plan: Arc<FaultPlan>) -> Self {
        Self { inner, plan }
    }

    /// Access to the wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The faults every read meets: a hang (counted once per read), then
    /// injected corruption.
    fn before_read(&self, id: PageId) -> Result<()> {
        let period = self.plan.hang_every.load(Ordering::SeqCst);
        let hang = period > 0
            && (self.plan.gets.fetch_add(1, Ordering::SeqCst) + 1).is_multiple_of(period);
        if hang {
            let delay = self.plan.get_delay_nanos.load(Ordering::SeqCst);
            if delay > 0 {
                let delay = Duration::from_nanos(delay);
                match self.plan.clock.lock().as_ref() {
                    Some(clock) => clock.sleep(delay),
                    None => std::thread::sleep(delay),
                }
            }
        }
        if self.plan.corrupt.lock().contains(&id) {
            return Err(Error::Corrupted(format!("page {id}: injected corruption")));
        }
        Ok(())
    }

    /// The simulated device's capacity, met by every write of `len` bytes.
    fn before_write(&self, len: usize) -> Result<()> {
        let cap = self.plan.device_capacity.load(Ordering::SeqCst);
        if self.inner.bytes_used() + len as u64 > cap {
            return Err(Error::NoSpace);
        }
        Ok(())
    }
}

impl<S: PageStore> PageStore for FaultyStore<S> {
    fn put(&self, id: PageId, data: &[u8]) -> Result<()> {
        self.before_write(data.len())?;
        self.inner.put(id, data)
    }

    fn put_verified(&self, id: PageId, page: VerifiedPage) -> Result<()> {
        self.before_write(page.bytes.len())?;
        self.inner.put_verified(id, page)
    }

    fn get(&self, id: PageId, offset: u64, len: u64) -> Result<Bytes> {
        self.before_read(id)?;
        self.inner.get(id, offset, len)
    }

    fn get_verified(&self, id: PageId) -> Result<VerifiedPage> {
        self.before_read(id)?;
        self.inner.get_verified(id)
    }

    fn delete(&self, id: PageId) -> Result<bool> {
        self.plan.heal_page(id);
        self.inner.delete(id)
    }

    fn contains(&self, id: PageId) -> bool {
        self.inner.contains(id)
    }

    fn bytes_used(&self) -> u64 {
        self.inner.bytes_used()
    }

    fn recover(&self) -> Result<Vec<(PageId, u64)>> {
        self.inner.recover()
    }

    fn put_is_file_io(&self) -> bool {
        self.inner.put_is_file_io()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryPageStore;
    use crate::page::FileId;
    use edgecache_common::hash::xxh64;
    use std::time::Instant;

    fn pid(i: u64) -> PageId {
        PageId::new(FileId(1), i)
    }

    #[test]
    fn no_faults_passes_through() {
        let store = FaultyStore::new(MemoryPageStore::new(), FaultPlan::none());
        store.put(pid(0), b"data").unwrap();
        assert_eq!(store.get_full(pid(0)).unwrap().as_ref(), b"data");
    }

    #[test]
    fn injected_corruption_fails_reads_until_delete() {
        let plan = FaultPlan::none();
        let store = FaultyStore::new(MemoryPageStore::new(), Arc::clone(&plan));
        store.put(pid(0), b"data").unwrap();
        plan.corrupt_page(pid(0));
        assert!(matches!(store.get_full(pid(0)), Err(Error::Corrupted(_))));
        // Deleting (early eviction) heals the slot; a re-put then reads fine.
        store.delete(pid(0)).unwrap();
        store.put(pid(0), b"fresh").unwrap();
        assert_eq!(store.get_full(pid(0)).unwrap().as_ref(), b"fresh");
    }

    #[test]
    fn verified_reads_and_writes_meet_the_same_faults() {
        let plan = FaultPlan::none();
        let store = FaultyStore::new(MemoryPageStore::new(), Arc::clone(&plan));
        let page = VerifiedPage::new(Bytes::from_static(b"data"));
        store.put_verified(pid(0), page).unwrap();
        assert_eq!(
            store.get_verified(pid(0)).unwrap().checksum(),
            xxh64(b"data", 0)
        );
        plan.corrupt_page(pid(0));
        assert!(matches!(
            store.get_verified(pid(0)),
            Err(Error::Corrupted(_))
        ));
        plan.set_device_capacity(6);
        let page = VerifiedPage::new(Bytes::from_static(b"abc"));
        assert!(matches!(
            store.put_verified(pid(1), page),
            Err(Error::NoSpace)
        ));
    }

    #[test]
    fn a_verified_read_counts_as_one_read_for_hangs() {
        use edgecache_common::clock::{Clock, SimClock};
        let sim = SimClock::new();
        let plan = FaultPlan::none();
        plan.set_clock(Arc::new(sim.clone()));
        plan.set_read_hang(Duration::from_secs(1), 2);
        let store = FaultyStore::new(MemoryPageStore::new(), Arc::clone(&plan));
        store.put(pid(0), b"x").unwrap();
        store.get_verified(pid(0)).unwrap();
        assert_eq!(sim.now_millis(), 0, "first read: no hang");
        store.get_verified(pid(0)).unwrap();
        assert_eq!(sim.now_millis(), 1_000, "second read hangs once");
    }

    #[test]
    fn device_capacity_triggers_no_space() {
        let plan = FaultPlan::none();
        plan.set_device_capacity(10);
        let store = FaultyStore::new(MemoryPageStore::new(), Arc::clone(&plan));
        store.put(pid(0), &[0u8; 8]).unwrap();
        assert!(matches!(store.put(pid(1), &[0u8; 8]), Err(Error::NoSpace)));
        // After deleting (early eviction) the put succeeds.
        store.delete(pid(0)).unwrap();
        store.put(pid(1), &[0u8; 8]).unwrap();
    }

    #[test]
    fn read_hang_delays_gets() {
        let plan = FaultPlan::none();
        plan.set_read_hang(Duration::from_millis(30), 1);
        let store = FaultyStore::new(MemoryPageStore::new(), Arc::clone(&plan));
        store.put(pid(0), b"x").unwrap();
        let t = Instant::now();
        store.get_full(pid(0)).unwrap();
        assert!(t.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn hangs_on_a_sim_clock_cost_no_wall_time() {
        use edgecache_common::clock::{Clock, SimClock};
        let sim = SimClock::new();
        let plan = FaultPlan::none();
        plan.set_clock(Arc::new(sim.clone()));
        plan.set_read_hang(Duration::from_secs(600), 1); // §8's 10-minute hang
        let store = FaultyStore::new(MemoryPageStore::new(), Arc::clone(&plan));
        store.put(pid(0), b"x").unwrap();
        let t = Instant::now();
        store.get_full(pid(0)).unwrap();
        assert!(t.elapsed() < Duration::from_secs(5), "no real sleep");
        assert_eq!(sim.now_millis(), 600_000, "hang charged to virtual time");
    }

    #[test]
    fn hang_every_n_only_delays_some() {
        let plan = FaultPlan::none();
        plan.set_read_hang(Duration::from_millis(40), 3);
        let store = FaultyStore::new(MemoryPageStore::new(), Arc::clone(&plan));
        store.put(pid(0), b"x").unwrap();
        let t = Instant::now();
        store.get_full(pid(0)).unwrap(); // 1st: fast
        store.get_full(pid(0)).unwrap(); // 2nd: fast
        assert!(t.elapsed() < Duration::from_millis(40));
        let t = Instant::now();
        store.get_full(pid(0)).unwrap(); // 3rd: hangs
        assert!(t.elapsed() >= Duration::from_millis(40));
    }
}
