//! Tier movement: promotion into the DRAM tier on a second SSD hit,
//! demotion under memory pressure, and the capacity loops that make room.

use std::sync::atomic::Ordering;

use edgecache_common::error::{Error, Result};
use edgecache_metrics::trace::SpanId;
use edgecache_pagestore::{PageId, PageInfo, PageStore, VerifiedPage};

use super::{CacheState, PageLock};

impl CacheState {
    /// Adjusts the DRAM tier's byte capacity at runtime (no-op without a
    /// mounted tier). Shrinking demotes resident frames to SSD until the
    /// tier fits; a frame whose demotion fails (every SSD directory refuses
    /// the bytes) is evicted outright — a counted, remote-backed exit,
    /// never a silent drop. Pinned frames stay resident: pins outrank
    /// pressure, so a capacity smaller than the pinned set is honoured only
    /// once those pins release.
    pub fn set_memory_capacity(&self, bytes: u64) {
        let Some(mem) = self.mem_dir else { return };
        self.mem_capacity.store(bytes, Ordering::Relaxed);
        // First pass: demote down to the new capacity.
        self.shrink_mem(mem, bytes, |victim| self.demote_page(victim, SpanId::NONE));
        // Fallback pass: demotion could not free enough (SSD full beyond
        // eviction, or pinned frames in the victim stream) — evict what
        // remains unpinned so the over-capacity invariant holds.
        self.shrink_mem(mem, bytes, |victim| {
            let lock = self.lock_page(*victim);
            if let Err(outcome) = self.mem_victim(&lock, mem) {
                return outcome;
            }
            self.evict_page(victim, "mem_pressure");
            DemoteOutcome::Freed
        });
    }

    /// Passes memory-tier victims to `exit` (demotion, or eviction under
    /// pressure) until the tier holds at most `target` bytes. Must be called
    /// while holding **no** page lock: `exit` takes the victim's, and page
    /// locks never nest. Stops early when nothing more can be
    /// freed: a full lap found only pinned frames, or `exit` failed (SSD
    /// refuses the bytes). Only promotion and [`Self::set_memory_capacity`]
    /// shrink the tier: publishes land on SSD and never make room here.
    fn shrink_mem(&self, mem: usize, target: u64, exit: impl Fn(&PageId) -> DemoteOutcome) {
        let mut pinned_skips = 0usize;
        while self.index.bytes_of_dir(mem) > target {
            let victim = self.policies[mem].lock().victim();
            let Some(victim) = victim else { return };
            // `exit` retires stale entries and recycles pinned ones itself
            // (`mem_victim`), under the victim's page lock — doing it here
            // would race a concurrent promotion re-inserting the same page.
            match exit(&victim) {
                DemoteOutcome::Freed | DemoteOutcome::Stale => pinned_skips = 0,
                DemoteOutcome::Pinned => {
                    pinned_skips += 1;
                    if pinned_skips >= self.policies[mem].lock().len() {
                        return;
                    }
                }
                DemoteOutcome::Failed => return,
            }
        }
    }

    /// The checks every memory victim passes first, under its page lock.
    /// A victim no longer in memory (it raced another exit or move) has its
    /// stale policy entry retired: `Stale`. A pinned one is recycled to
    /// most-recently-used so the scan moves on: `Pinned`. Both are safe
    /// only under the page lock, which a concurrent promotion re-inserting
    /// the policy entry needs too, and under the policy lock, which an
    /// eviction holds across its index removal, so neither can clobber a
    /// fresh insert or revive an evicted page. Otherwise returns the
    /// victim's index entry.
    fn mem_victim(
        &self,
        lock: &PageLock<'_>,
        mem: usize,
    ) -> std::result::Result<PageInfo, DemoteOutcome> {
        let id = lock.id;
        let mut policy = self.policies[mem].lock();
        let info = match self.index.get(&id) {
            Some(info) if info.dir == mem => info,
            _ => {
                policy.on_remove(id);
                return Err(DemoteOutcome::Stale);
            }
        };
        if self.mem_store.as_ref().is_some_and(|s| s.is_pinned(id)) {
            policy.on_remove(id);
            policy.on_insert(id);
            return Err(DemoteOutcome::Pinned);
        }
        Ok(info)
    }

    /// Moves one memory-resident page down to SSD — the "demotion, not
    /// eviction" half of the three-tier contract: under pressure a frame's
    /// bytes stay in the hierarchy, one level down. Takes the victim's
    /// page lock (callers hold none). A frame that fails its tier-exit
    /// checksum is evicted instead (counted): corrupt DRAM bytes must not
    /// land on SSD wearing a fresh checksum.
    fn demote_page(&self, id: &PageId, parent: SpanId) -> DemoteOutcome {
        let (Some(mem), Some(mem_store)) = (self.mem_dir, self.mem_store.as_ref()) else {
            return DemoteOutcome::Failed;
        };
        let mut lock = self.lock_page(*id);
        let info = match self.mem_victim(&lock, mem) {
            Ok(info) => info,
            Err(outcome) => return outcome,
        };
        // The tier-exit check; the checksum it checked travels down with
        // the bytes.
        let page = match mem_store.get_verified(*id) {
            Ok(page) => page,
            Err(e) => {
                // Checksum mismatch (or the frame vanished): a counted exit
                // through eviction — capacity is restored either way.
                self.metrics.record_error("demote", e.kind());
                self.evict_page(id, "corrupt");
                return DemoteOutcome::Freed;
            }
        };
        let Some(dir) = self.allocator.pick(id.file, info.size) else {
            return DemoteOutcome::Failed;
        };
        let mut span = self.tracer.child(parent, "demote");
        span.annotate("page", *id);
        // Make room on the target SSD directory — the same capacity loop a
        // put runs. SSD victims evicted here take no page lock of their
        // own, so no second one is ever taken.
        if self.make_room(dir, info.size).is_err() {
            span.annotate("status", "no_victim");
            return DemoteOutcome::Failed;
        }
        if let Err(e) = self.store_put(dir, info.size, |s| s.put_verified(*id, page.clone())) {
            self.metrics.record_error("demote", e.kind());
            span.annotate("status", e.kind());
            return DemoteOutcome::Failed;
        }
        // Keep `created_ms`: a page's TTL clock does not reset on a tier
        // move — only genuinely new bytes restart the privacy countdown.
        // Placing it deletes the memory copy.
        let new_info = PageInfo::new(*id, info.size, info.scope.clone(), dir, info.created_ms);
        self.place(&mut lock, new_info);
        self.hot.mem_demotions.inc();
        self.hot.mem_bytes_demoted.add(info.size);
        span.annotate("to_dir", dir);
        span.finish();
        DemoteOutcome::Freed
    }

    /// Moves a just-served SSD-resident page up into the DRAM tier on its
    /// second SSD hit (the mirror of [`Self::demote_page`], and the tier's
    /// only way in). `page` is the page's freshly read and verified full
    /// payload, checked against `info.size`; the tier takes its buffer and
    /// checksum over. The caller holds no page lock. Best-effort: any
    /// conflict (raced refresh, no room after demotion) leaves the page
    /// where it is.
    pub(super) fn promote_to_mem(&self, info: &PageInfo, page: VerifiedPage, parent: SpanId) {
        let (Some(mem), Some(mem_store)) = (self.mem_dir, self.mem_store.as_ref()) else {
            return;
        };
        let Some(room) = self.memory_capacity().checked_sub(info.size) else {
            return; // can never fit: the page stays on SSD
        };
        self.shrink_mem(mem, room, |victim| self.demote_page(victim, parent));
        if self.index.bytes_of_dir(mem) > room {
            return; // could not make room (pinned frames, demotion failure)
        }
        let id = info.id;
        let mut lock = self.lock_page(id);
        // Re-check under the lock: a concurrent refresh, eviction, or
        // another promotion may have changed the page since it was served.
        let Some(cur) = self.index.get(&id) else {
            return;
        };
        if cur.dir != info.dir || cur.size != info.size {
            return;
        }
        let mut span = self.tracer.child(parent, "promote");
        span.annotate("page", id);
        if let Err(e) = mem_store.put_verified(id, page) {
            self.metrics.record_error("promote", e.kind());
            span.annotate("status", e.kind());
            span.finish();
            return;
        }
        // Keep `created_ms` (see demote_page): TTL survives tier moves.
        // Exclusive hierarchy: the SSD copy moves up, it is not mirrored —
        // placing it deletes the lower copy.
        let new_info = PageInfo::new(id, cur.size, cur.scope.clone(), mem, cur.created_ms);
        self.place(&mut lock, new_info);
        self.hot.mem_promotions.inc();
        self.hot.mem_bytes_promoted.add(info.size);
        span.annotate("from_dir", info.dir);
        span.finish();
    }

    /// Capacity eviction in SSD directory `dir` until `size` more bytes fit:
    /// `Ok(n)` once they do, `Err(n)` when the policy runs out of victims,
    /// `n` counting the victims drawn.
    pub(super) fn make_room(&self, dir: usize, size: u64) -> std::result::Result<u64, u64> {
        let capacity = self.allocator.capacity(dir);
        let mut drawn = 0u64;
        while self.index.bytes_of_dir(dir) + size > capacity {
            if self.evict_victim(dir, "capacity").is_none() {
                return Err(drawn);
            }
            drawn += 1;
        }
        Ok(drawn)
    }

    /// Draws directory `dir`'s policy victim and evicts it, without its
    /// page lock: `None` when the policy is empty, `Some(None)` when the
    /// victim was a page the index no longer holds in `dir` (a racing
    /// eviction or move through another path). That stale entry is retired
    /// too, or the caller's loop would redraw the same victim forever.
    fn evict_victim(&self, dir: usize, cause: &str) -> Option<Option<PageInfo>> {
        let evicted = {
            let mut policy = self.policies[dir].lock();
            let victim = policy.victim()?;
            let evicted = self.index.remove(&victim, dir);
            policy.on_remove(victim);
            evicted
        };
        Some(evicted.map(|info| self.delete_evicted(info, cause)))
    }

    /// Writes a page of `len` bytes to directory `dir`'s store with `put`.
    /// §8 "Insufficient disk capacity": when the device fills up before the
    /// configured capacity (`NoSpace`), evicts at least the page's size
    /// early and retries once.
    pub(super) fn store_put(
        &self,
        dir: usize,
        len: u64,
        put: impl Fn(&dyn PageStore) -> Result<()>,
    ) -> Result<()> {
        match put(&*self.stores[dir]) {
            Err(Error::NoSpace) => {}
            done => return done,
        }
        self.metrics.record_error("put", "no_space");
        let want = len.max(1);
        let mut freed = 0u64;
        while freed < want {
            let Some(evicted) = self.evict_victim(dir, "no_space") else {
                break;
            };
            // A retired stale entry counts 1, so the loop makes progress.
            freed += evicted.map_or(1, |info| info.size);
        }
        put(&*self.stores[dir])
    }
}

/// What became of one attempted demotion (memory → SSD tier move).
enum DemoteOutcome {
    /// The frame left the memory tier through a counted exit: demoted to
    /// SSD, or — for a corrupt frame — evicted.
    Freed,
    /// The policy's victim is no longer memory-resident (racing eviction or
    /// move): retire the stale entry and redraw.
    Stale,
    /// The frame is pinned; pressure must look elsewhere.
    Pinned,
    /// No SSD directory would take the bytes; stop demoting.
    Failed,
}
